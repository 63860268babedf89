//! Recording and replaying dynamic graph sequences `G_0, G_1, G_2, …`.
//!
//! A [`DynamicGraphTrace`] stores a full sequence (as per-round edge deltas to
//! keep memory proportional to the amount of change) so that different
//! algorithms can be compared on *identical* adversarial schedules, and so
//! that experiments can be re-run deterministically.

use crate::graph::Graph;
use crate::node::{Edge, NodeId};

/// The change applied by the adversary at the beginning of one round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphDelta {
    /// Edges inserted this round.
    pub inserted: Vec<Edge>,
    /// Edges removed this round.
    pub removed: Vec<Edge>,
    /// Nodes woken up this round.
    pub woken: Vec<NodeId>,
    /// Nodes deactivated (left the network) this round.
    pub deactivated: Vec<NodeId>,
}

impl GraphDelta {
    /// Creates an empty delta.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Records the insertion of the edge `{a, b}` (canonicalized, so
    /// `insert(u, v)` and `insert(v, u)` record the same change).
    pub fn insert(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.inserted.push(Edge::new(a, b));
        self
    }

    /// Records the removal of the edge `{a, b}` (canonicalized).
    pub fn remove(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.removed.push(Edge::new(a, b));
        self
    }

    /// Records the wake-up (activation) of node `v`.
    pub fn wake(&mut self, v: NodeId) -> &mut Self {
        self.woken.push(v);
        self
    }

    /// Records the departure (deactivation) of node `v`.
    pub fn deactivate(&mut self, v: NodeId) -> &mut Self {
        self.deactivated.push(v);
        self
    }

    /// Builds a canonical delta from raw change lists: every edge is stored
    /// in canonical `{min, max}` order ([`Edge`] enforces this) and each of
    /// the four lists is sorted and deduplicated, so adversary-produced
    /// deltas cannot double-insert a change no matter how the endpoints were
    /// oriented when the change was recorded.
    ///
    /// An edge listed in both `inserted` and `removed` is kept in both: by
    /// the documented [`GraphDelta::apply`] order (insertions before
    /// removals) it ends up absent.
    pub fn from_changes(
        inserted: Vec<Edge>,
        removed: Vec<Edge>,
        woken: Vec<NodeId>,
        deactivated: Vec<NodeId>,
    ) -> GraphDelta {
        let mut delta = GraphDelta {
            inserted,
            removed,
            woken,
            deactivated,
        };
        delta.normalize();
        delta
    }

    /// Sorts and deduplicates all four change lists in place. [`Edge`]s are
    /// canonical by construction, so sorting + deduping is sufficient to
    /// collapse the same change recorded twice (e.g. once per endpoint by a
    /// node-churn adversary).
    pub fn normalize(&mut self) {
        self.inserted.sort_unstable();
        self.inserted.dedup();
        self.removed.sort_unstable();
        self.removed.dedup();
        self.woken.sort_unstable();
        self.woken.dedup();
        self.deactivated.sort_unstable();
        self.deactivated.dedup();
    }

    /// Computes the delta that transforms `from` into `to`.
    pub fn between(from: &Graph, to: &Graph) -> GraphDelta {
        assert_eq!(from.num_nodes(), to.num_nodes());
        let mut delta = GraphDelta::default();
        for e in to.edges() {
            if !from.has_edge(e.u, e.v) {
                delta.inserted.push(e);
            }
        }
        for e in from.edges() {
            if !to.has_edge(e.u, e.v) {
                delta.removed.push(e);
            }
        }
        for v in to.nodes() {
            match (from.is_active(v), to.is_active(v)) {
                (false, true) => delta.woken.push(v),
                (true, false) => delta.deactivated.push(v),
                _ => {}
            }
        }
        delta
    }

    /// Applies this delta to `g` in place.
    pub fn apply(&self, g: &mut Graph) {
        for &v in &self.woken {
            g.activate(v);
        }
        for e in &self.inserted {
            g.insert_edge(e.u, e.v);
        }
        for e in &self.removed {
            g.remove_edge(e.u, e.v);
        }
        for &v in &self.deactivated {
            g.deactivate(v);
        }
    }

    /// Returns the graph obtained by applying this delta to a copy of `prev`
    /// (how `Adversary::next_graph` is provided on top of `next_delta`).
    pub fn materialize(&self, prev: &Graph) -> Graph {
        let mut g = prev.clone();
        self.apply(&mut g);
        g
    }

    /// Un-applies this delta in place: `g` must be the graph this delta was
    /// applied to, and the delta must be *tight* (every listed change really
    /// happened — no inserting of already-present edges, no removing of
    /// absent ones; [`GraphDelta::between`] and the window's realized deltas
    /// are tight by construction). After the call `g` is the pre-delta graph.
    pub fn unapply(&self, g: &mut Graph) {
        for e in &self.inserted {
            g.remove_edge(e.u, e.v);
        }
        for e in &self.removed {
            g.insert_edge(e.u, e.v);
        }
        for &v in &self.deactivated {
            g.activate(v);
        }
        for &v in &self.woken {
            // A node that woke this round was inactive (hence edge-free)
            // before; its gained edges were listed in `inserted` and are
            // already gone.
            g.deactivate(v);
        }
    }

    /// Total number of topological changes (edge insertions + deletions).
    pub fn num_edge_changes(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }

    /// Returns `true` if the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.removed.is_empty()
            && self.woken.is_empty()
            && self.deactivated.is_empty()
    }
}

/// A recorded dynamic graph sequence, stored as an initial graph plus one
/// delta per subsequent round.
#[derive(Clone, Debug)]
pub struct DynamicGraphTrace {
    n: usize,
    initial: Graph,
    deltas: Vec<GraphDelta>,
}

impl DynamicGraphTrace {
    /// Starts a trace whose round-0 graph is `initial`.
    pub fn new(initial: Graph) -> Self {
        let n = initial.num_nodes();
        DynamicGraphTrace {
            n,
            initial,
            deltas: Vec::new(),
        }
    }

    /// Number of potential nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of recorded rounds (including round 0).
    pub fn num_rounds(&self) -> usize {
        self.deltas.len() + 1
    }

    /// Appends the graph of the next round (stored as a delta).
    pub fn push(&mut self, next: &Graph) {
        let prev = self.graph_at(self.num_rounds() - 1);
        self.deltas.push(GraphDelta::between(&prev, next));
    }

    /// Appends a precomputed delta for the next round.
    pub fn push_delta(&mut self, delta: GraphDelta) {
        self.deltas.push(delta);
    }

    /// Reconstructs the graph of round `r` (0-based). `O(r · changes)`.
    pub fn graph_at(&self, r: usize) -> Graph {
        assert!(r < self.num_rounds(), "round {r} beyond trace length");
        let mut g = self.initial.clone();
        // INVARIANT: r < num_rounds() = deltas.len() + 1, checked above.
        for delta in &self.deltas[..r] {
            delta.apply(&mut g);
        }
        g
    }

    /// Iterator over all rounds' graphs, reconstructed incrementally in `O(total changes)`.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            trace: self,
            next_round: 0,
            current: self.initial.clone(),
        }
    }

    /// Total number of edge changes over the whole trace.
    pub fn total_edge_changes(&self) -> usize {
        self.deltas.iter().map(|d| d.num_edge_changes()).sum()
    }

    /// The per-round deltas.
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }

    /// Serializes the trace to a compact line-based text format (version
    /// header, initial graph, one `delta` line per subsequent round). The
    /// format is self-contained and parsed back by [`Self::from_text`];
    /// it replaces the previous serde-based JSON persistence so that traces
    /// can still be written to disk and replayed in offline builds.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "dynnet-trace v1");
        let _ = writeln!(out, "n {}", self.n);
        let active: Vec<String> = self
            .initial
            .active_nodes()
            .map(|v| v.index().to_string())
            .collect();
        let _ = writeln!(out, "active {}", active.join(" "));
        let edges: Vec<String> = self
            .initial
            .edges()
            .map(|e| format!("{}-{}", e.u.index(), e.v.index()))
            .collect();
        let _ = writeln!(out, "edges {}", edges.join(" "));
        for d in &self.deltas {
            let mut parts: Vec<String> = Vec::new();
            for e in &d.inserted {
                parts.push(format!("+e{}-{}", e.u.index(), e.v.index()));
            }
            for e in &d.removed {
                parts.push(format!("-e{}-{}", e.u.index(), e.v.index()));
            }
            for v in &d.woken {
                parts.push(format!("+n{}", v.index()));
            }
            for v in &d.deactivated {
                parts.push(format!("-n{}", v.index()));
            }
            let _ = writeln!(out, "delta {}", parts.join(" "));
        }
        out
    }

    /// Parses a trace from the format produced by [`Self::to_text`].
    ///
    /// All node ids are validated against the universe size `n` and
    /// self-loop edges are rejected, so corrupted or truncated trace files
    /// yield an `Err` instead of panicking downstream.
    pub fn from_text(s: &str) -> Result<Self, String> {
        fn parse_node(tok: &str, n: usize) -> Result<NodeId, String> {
            let v: usize = tok.parse().map_err(|e| format!("bad node {tok}: {e}"))?;
            if v >= n {
                return Err(format!("node {v} out of range (n = {n})"));
            }
            Ok(NodeId::new(v))
        }
        fn parse_edge(tok: &str, n: usize) -> Result<Edge, String> {
            let (a, b) = tok
                .split_once('-')
                .ok_or_else(|| format!("bad edge token: {tok}"))?;
            let u = parse_node(a, n)?;
            let v = parse_node(b, n)?;
            if u == v {
                return Err(format!("self-loop edge {tok} not allowed"));
            }
            Ok(Edge::of(u.index(), v.index()))
        }
        let mut lines = s.lines();
        match lines.next() {
            Some("dynnet-trace v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let n: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("n "))
            .ok_or("missing n line")?
            .trim()
            .parse()
            .map_err(|e| format!("bad n: {e}"))?;
        let active_line = lines
            .next()
            .and_then(|l| l.strip_prefix("active"))
            .ok_or("missing active line")?;
        let edges_line = lines
            .next()
            .and_then(|l| l.strip_prefix("edges"))
            .ok_or("missing edges line")?;
        let mut initial = Graph::new_all_asleep(n);
        for tok in active_line.split_whitespace() {
            initial.activate(parse_node(tok, n)?);
        }
        for tok in edges_line.split_whitespace() {
            let e = parse_edge(tok, n)?;
            initial.insert_edge(e.u, e.v);
        }
        let mut trace = DynamicGraphTrace::new(initial);
        for line in lines {
            let body = line
                .strip_prefix("delta")
                .ok_or_else(|| format!("bad line: {line}"))?;
            let mut delta = GraphDelta::default();
            for tok in body.split_whitespace() {
                if let Some(rest) = tok.strip_prefix("+e") {
                    delta.inserted.push(parse_edge(rest, n)?);
                } else if let Some(rest) = tok.strip_prefix("-e") {
                    delta.removed.push(parse_edge(rest, n)?);
                } else if let Some(rest) = tok.strip_prefix("+n") {
                    delta.woken.push(parse_node(rest, n)?);
                } else if let Some(rest) = tok.strip_prefix("-n") {
                    delta.deactivated.push(parse_node(rest, n)?);
                } else {
                    return Err(format!("bad delta token: {tok}"));
                }
            }
            trace.push_delta(delta);
        }
        Ok(trace)
    }
}

/// Iterator over the graphs of a [`DynamicGraphTrace`].
pub struct TraceIter<'a> {
    trace: &'a DynamicGraphTrace,
    next_round: usize,
    current: Graph,
}

impl Iterator for TraceIter<'_> {
    type Item = Graph;

    fn next(&mut self) -> Option<Graph> {
        if self.next_round >= self.trace.num_rounds() {
            return None;
        }
        if self.next_round > 0 {
            self.trace.deltas[self.next_round - 1].apply(&mut self.current);
        }
        self.next_round += 1;
        Some(self.current.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: usize, edges: &[(usize, usize)]) -> Graph {
        Graph::from_edges(n, edges.iter().map(|&(a, b)| Edge::of(a, b)))
    }

    #[test]
    fn delta_between_and_apply_roundtrip() {
        let g0 = g(4, &[(0, 1), (1, 2)]);
        let g1 = g(4, &[(1, 2), (2, 3)]);
        let d = GraphDelta::between(&g0, &g1);
        assert_eq!(d.inserted, vec![Edge::of(2, 3)]);
        assert_eq!(d.removed, vec![Edge::of(0, 1)]);
        let mut x = g0.clone();
        d.apply(&mut x);
        assert_eq!(x.edge_vec(), g1.edge_vec());
        assert_eq!(d.num_edge_changes(), 2);
    }

    #[test]
    fn delta_tracks_wakeups_and_departures() {
        let mut g0 = Graph::new_all_asleep(3);
        g0.activate(NodeId::new(0));
        let mut g1 = g0.clone();
        g1.activate(NodeId::new(1));
        g1.deactivate(NodeId::new(0));
        let d = GraphDelta::between(&g0, &g1);
        assert_eq!(d.woken, vec![NodeId::new(1)]);
        assert_eq!(d.deactivated, vec![NodeId::new(0)]);
        assert!(!d.is_empty());
        assert!(GraphDelta::between(&g0, &g0).is_empty());
    }

    #[test]
    fn constructors_canonicalize_and_dedupe() {
        // The same edge recorded in both orientations, twice, must collapse
        // to a single canonical insertion — adversary-produced deltas can't
        // double-insert.
        let delta = GraphDelta::from_changes(
            vec![Edge::of(3, 1), Edge::of(1, 3), Edge::of(1, 3)],
            vec![Edge::of(2, 0), Edge::of(0, 2)],
            vec![NodeId::new(2), NodeId::new(2)],
            vec![NodeId::new(0), NodeId::new(0)],
        );
        assert_eq!(delta.inserted, vec![Edge::of(1, 3)]);
        assert_eq!(delta.removed, vec![Edge::of(0, 2)]);
        assert_eq!(delta.woken, vec![NodeId::new(2)]);
        assert_eq!(delta.deactivated, vec![NodeId::new(0)]);

        let mut built = GraphDelta::new();
        built
            .insert(NodeId::new(3), NodeId::new(1))
            .insert(NodeId::new(1), NodeId::new(3))
            .remove(NodeId::new(2), NodeId::new(0))
            .wake(NodeId::new(2))
            .deactivate(NodeId::new(0));
        built.normalize();
        assert_eq!(built.inserted, vec![Edge::of(1, 3)]);
        assert_eq!(built.removed, vec![Edge::of(0, 2)]);

        let g0 = g(4, &[(0, 2)]);
        let mut applied = g0.clone();
        delta.apply(&mut applied);
        assert!(applied.has_edge(NodeId::new(1), NodeId::new(3)));
        assert!(!applied.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!applied.is_active(NodeId::new(0)));
    }

    #[test]
    fn materialize_and_unapply_roundtrip() {
        let mut g0 = Graph::new_all_asleep(5);
        g0.insert_edge(NodeId::new(0), NodeId::new(1));
        g0.insert_edge(NodeId::new(1), NodeId::new(2));
        g0.activate(NodeId::new(4));
        let mut g1 = g0.clone();
        g1.remove_edge(NodeId::new(0), NodeId::new(1));
        g1.insert_edge(NodeId::new(2), NodeId::new(3));
        g1.deactivate(NodeId::new(4));
        let delta = GraphDelta::between(&g0, &g1);
        assert_eq!(delta.materialize(&g0), g1);
        let mut back = g1.clone();
        delta.unapply(&mut back);
        assert_eq!(back, g0);
    }

    #[test]
    fn trace_reconstructs_every_round() {
        let rounds = [
            g(4, &[(0, 1)]),
            g(4, &[(0, 1), (1, 2)]),
            g(4, &[(1, 2)]),
            g(4, &[(1, 2), (2, 3), (0, 3)]),
        ];
        let mut trace = DynamicGraphTrace::new(rounds[0].clone());
        for r in &rounds[1..] {
            trace.push(r);
        }
        assert_eq!(trace.num_rounds(), 4);
        for (i, expected) in rounds.iter().enumerate() {
            assert_eq!(
                trace.graph_at(i).edge_vec(),
                expected.edge_vec(),
                "round {i}"
            );
        }
        let replayed: Vec<Graph> = trace.iter().collect();
        assert_eq!(replayed.len(), 4);
        for (i, expected) in rounds.iter().enumerate() {
            assert_eq!(replayed[i].edge_vec(), expected.edge_vec());
        }
        // round 0→1: +{1,2}; round 1→2: -{0,1}; round 2→3: +{2,3}, +{0,3}
        assert_eq!(trace.total_edge_changes(), 1 + 1 + 2);
    }

    #[test]
    fn trace_serializes() {
        let mut trace = DynamicGraphTrace::new(g(3, &[(0, 1)]));
        trace.push(&g(3, &[(1, 2)]));
        let text = trace.to_text();
        let back = DynamicGraphTrace::from_text(&text).unwrap();
        assert_eq!(back.num_rounds(), 2);
        assert_eq!(back.graph_at(0).edge_vec(), vec![Edge::of(0, 1)]);
        assert_eq!(back.graph_at(1).edge_vec(), vec![Edge::of(1, 2)]);
        assert_eq!(back.num_nodes(), 3);
    }

    #[test]
    fn trace_text_roundtrips_activity_changes() {
        let mut g0 = Graph::new_all_asleep(4);
        g0.activate(NodeId::new(0));
        g0.activate(NodeId::new(1));
        g0.insert_edge(NodeId::new(0), NodeId::new(1));
        let mut g1 = g0.clone();
        g1.activate(NodeId::new(2));
        g1.deactivate(NodeId::new(0));
        g1.insert_edge(NodeId::new(1), NodeId::new(2));
        let mut trace = DynamicGraphTrace::new(g0);
        trace.push(&g1);
        let back = DynamicGraphTrace::from_text(&trace.to_text()).unwrap();
        let r1 = back.graph_at(1);
        assert!(r1.is_active(NodeId::new(2)));
        assert!(!r1.is_active(NodeId::new(0)));
        assert_eq!(r1.edge_vec(), g1.edge_vec());
    }

    #[test]
    fn trace_text_rejects_bad_values_without_panicking() {
        // Structurally valid tokens with out-of-range or self-loop values
        // must yield Err, not panic (corrupted trace files).
        assert!(DynamicGraphTrace::from_text("dynnet-trace v1\nn 2\nactive 0 7\nedges ").is_err());
        assert!(
            DynamicGraphTrace::from_text("dynnet-trace v1\nn 3\nactive 0 1\nedges 1-1").is_err()
        );
        assert!(DynamicGraphTrace::from_text(
            "dynnet-trace v1\nn 3\nactive 0 1\nedges 0-1\ndelta +e0-9"
        )
        .is_err());
        assert!(DynamicGraphTrace::from_text(
            "dynnet-trace v1\nn 3\nactive 0\nedges 0-1\ndelta +n9"
        )
        .is_err());
    }

    #[test]
    fn trace_text_rejects_garbage() {
        assert!(DynamicGraphTrace::from_text("").is_err());
        assert!(DynamicGraphTrace::from_text("dynnet-trace v1\nn x").is_err());
        assert!(DynamicGraphTrace::from_text(
            "dynnet-trace v1\nn 2\nactive 0 1\nedges 0-1\ndelta ?"
        )
        .is_err());
    }
}
