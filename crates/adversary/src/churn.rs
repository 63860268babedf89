//! Edge-churn adversaries: per-edge Markov on/off dynamics, uniform edge
//! flips over a footprint graph, fixed-rate random insert/remove, and
//! periodic conflict-injection bursts.
//!
//! These model the "highly dynamic" regime of the paper: changes can occur in
//! *every* round, so algorithms can never rely on a quiet recovery period.

use crate::traits::Adversary;
use dynnet_graph::{Edge, Graph, GraphDelta, NodeId};
use dynnet_runtime::rng::experiment_rng;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// The indices `i < len` of the elements flipping under independent
/// `Bernoulli(p)` trials, located by geometric skip-sampling: the gap to the
/// next flipping element is `Geometric(p)`-distributed, so the expected
/// number of RNG draws is the expected number of flips (`p·len`), not `len`.
/// Returned in ascending order.
fn geometric_flips(rng: &mut ChaCha8Rng, p: f64, len: usize) -> Vec<usize> {
    if p <= 0.0 || len == 0 {
        return Vec::new();
    }
    if p >= 1.0 {
        return (0..len).collect();
    }
    let ln_keep = (1.0 - p).ln();
    let mut flips = Vec::new();
    let mut i = 0usize;
    loop {
        let u: f64 = rng.gen();
        // Number of non-flipping elements before the next flip; saturating
        // cast and add handle u → 0 (skip to infinity ⇒ no further flips).
        i = i.saturating_add((u.ln() / ln_keep) as usize);
        if i >= len {
            return flips;
        }
        flips.push(i);
        i += 1;
    }
}

/// Per-edge two-state Markov chain over the edges of a *footprint* graph:
/// a present edge disappears with probability `p_off`, an absent footprint
/// edge (re)appears with probability `p_on`. Edges outside the footprint
/// never exist.
///
/// The stationary presence probability of a footprint edge is
/// `p_on / (p_on + p_off)`.
///
/// Delta-native: the chain state is kept as present/absent edge partitions
/// and each round's transitions are located by geometric skip-sampling over
/// the two partitions, so a round costs `O(|δ|)` expected RNG draws and
/// partition moves — never a scan of all footprint edges.
#[derive(Clone, Debug)]
pub struct MarkovChurnAdversary {
    n: usize,
    p_on: f64,
    p_off: f64,
    start_from_footprint: bool,
    rng: ChaCha8Rng,
    /// Footprint edges currently present (the chain state). Before
    /// `initialized`, holds nothing.
    present: Vec<Edge>,
    /// Footprint edges currently absent. Before `initialized`, holds the
    /// whole footprint.
    absent: Vec<Edge>,
    initialized: bool,
}

impl MarkovChurnAdversary {
    /// Creates the adversary over the edges of `footprint`.
    ///
    /// If `start_from_footprint` is true, round 0 contains all footprint
    /// edges; otherwise round 0 starts from the stationary distribution.
    pub fn new(
        footprint: &Graph,
        p_on: f64,
        p_off: f64,
        start_from_footprint: bool,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&p_on) && (0.0..=1.0).contains(&p_off));
        MarkovChurnAdversary {
            n: footprint.num_nodes(),
            p_on,
            p_off,
            start_from_footprint,
            rng: experiment_rng(seed, "markov-churn"),
            present: Vec::new(),
            absent: footprint.edge_vec(),
            initialized: false,
        }
    }

    /// Composes the current chain state as a graph.
    fn compose(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for e in &self.present {
            g.insert_edge(e.u, e.v);
        }
        g
    }

    /// One chain step: moves the flipping edges between the partitions and
    /// records them in the returned delta. Present edges are stepped first,
    /// then absent edges; both flip sets are drawn against the partitions'
    /// pre-step lengths, so every edge makes exactly one transition per
    /// round (an edge turning off cannot turn back on in the same round).
    fn step(&mut self) -> GraphDelta {
        let mut delta = GraphDelta::new();
        let off_flips = geometric_flips(&mut self.rng, self.p_off, self.present.len());
        let on_flips = geometric_flips(&mut self.rng, self.p_on, self.absent.len());
        // Descending order keeps the remaining sampled indices valid across
        // `swap_remove`s (any swapped-in element comes from a higher index).
        for &i in off_flips.iter().rev() {
            let e = self.present.swap_remove(i);
            delta.removed.push(e);
            self.absent.push(e);
        }
        // `on_flips` indices all lie below the pre-step length, so the edges
        // just appended by the off-pass are never re-flipped this round.
        for &i in on_flips.iter().rev() {
            let e = self.absent.swap_remove(i);
            delta.inserted.push(e);
            self.present.push(e);
        }
        delta
    }
}

impl Adversary for MarkovChurnAdversary {
    fn initial_graph(&mut self) -> Graph {
        let stationary = if self.p_on + self.p_off > 0.0 {
            self.p_on / (self.p_on + self.p_off)
        } else {
            1.0
        };
        let all: Vec<Edge> = self
            .present
            .drain(..)
            .chain(self.absent.drain(..))
            .collect();
        for e in all {
            if self.start_from_footprint || self.rng.gen_bool(stationary) {
                self.present.push(e);
            } else {
                self.absent.push(e);
            }
        }
        self.initialized = true;
        self.compose()
    }

    /// Whole-graph reference path: advances the chain exactly as
    /// [`Adversary::next_delta`] would (same RNG draws), then composes the
    /// graph from the chain state — so a phase switch from a foreign graph
    /// resets to the Markov state instead of keeping alien edges.
    fn next_graph(&mut self, round: u64, prev: &Graph) -> Graph {
        let _ = self.next_delta(round, prev);
        self.compose()
    }

    /// Delta-native: geometric skip-sampling over the present/absent
    /// partitions emits only the edges whose presence actually flipped —
    /// `O(|δ|)` expected work, no per-footprint-edge draws, no graph build.
    fn next_delta(&mut self, _round: u64, prev: &Graph) -> GraphDelta {
        if !self.initialized {
            // First call without `initial_graph` (e.g. a mid-run phase
            // switch): adopt the presence state `prev` implies, once.
            let all: Vec<Edge> = self
                .present
                .drain(..)
                .chain(self.absent.drain(..))
                .collect();
            for e in all {
                if prev.has_edge(e.u, e.v) {
                    self.present.push(e);
                } else {
                    self.absent.push(e);
                }
            }
            self.initialized = true;
        }
        self.step()
    }
}

/// Every round, every footprint edge flips its presence independently with
/// probability `p` — a memoryless "churn rate p" adversary.
#[derive(Clone, Debug)]
pub struct FlipChurnAdversary {
    footprint: Vec<Edge>,
    n: usize,
    p: f64,
    rng: ChaCha8Rng,
}

impl FlipChurnAdversary {
    /// All footprint edges are present in round 0; afterwards each flips
    /// independently with probability `p` per round.
    pub fn new(footprint: &Graph, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        FlipChurnAdversary {
            footprint: footprint.edge_vec(),
            n: footprint.num_nodes(),
            p,
            rng: experiment_rng(seed, "flip-churn"),
        }
    }
}

impl Adversary for FlipChurnAdversary {
    fn initial_graph(&mut self) -> Graph {
        Graph::from_edges(self.n, self.footprint.iter().copied())
    }

    /// Delta-native: each flip becomes one inserted or removed edge. The
    /// flipping edges are located by `geometric_flips` skip-sampling, so a
    /// round costs `O(p·m)` RNG draws (the expected delta size) instead of
    /// one Bernoulli draw per footprint edge. Each edge still flips
    /// independently with probability `p`, exactly as before.
    fn next_delta(&mut self, _round: u64, prev: &Graph) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for i in geometric_flips(&mut self.rng, self.p, self.footprint.len()) {
            let e = self.footprint[i];
            if prev.has_edge(e.u, e.v) {
                delta.removed.push(e);
            } else {
                delta.inserted.push(e);
            }
        }
        delta
    }
}

/// Every round removes up to `removals` random existing edges and inserts up
/// to `insertions` random new edges between arbitrary node pairs — a
/// fixed-rate topology churn independent of any footprint.
///
/// Delta-native: the evolving edge set is mirrored as an edge vector plus a
/// position map, so removal sampling and insertion membership checks are
/// `O(1)` per draw — a round costs `O(insertions + removals)`, never a
/// `Graph::edge_vec` materialization of all `m` edges.
#[derive(Clone, Debug)]
pub struct RateChurnAdversary {
    initial: Graph,
    insertions: usize,
    removals: usize,
    rng: ChaCha8Rng,
    /// Mirror of the evolving edge set (insertion order irrelevant, sampled
    /// uniformly by index).
    edges: Vec<Edge>,
    /// Position of each mirrored edge in `edges`.
    pos: HashMap<Edge, usize>,
    initialized: bool,
}

impl RateChurnAdversary {
    /// Starts from `initial` and applies the fixed per-round change rate.
    pub fn new(initial: Graph, insertions: usize, removals: usize, seed: u64) -> Self {
        RateChurnAdversary {
            initial,
            insertions,
            removals,
            rng: experiment_rng(seed, "rate-churn"),
            edges: Vec::new(),
            pos: HashMap::new(),
            initialized: false,
        }
    }

    /// (Re)builds the mirror from a graph — once at startup, or after a
    /// phase switch handed us a graph we did not produce.
    fn sync_mirror(&mut self, g: &Graph) {
        self.edges = g.edge_vec();
        self.pos = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i))
            .collect();
        self.initialized = true;
    }

    /// Removes the edge at mirror index `i` in `O(1)`.
    fn mirror_remove_at(&mut self, i: usize) -> Edge {
        let e = self.edges.swap_remove(i);
        self.pos.remove(&e);
        if i < self.edges.len() {
            self.pos.insert(self.edges[i], i);
        }
        e
    }

    /// Appends an edge to the mirror.
    fn mirror_insert(&mut self, e: Edge) {
        self.pos.insert(e, self.edges.len());
        self.edges.push(e);
    }
}

impl Adversary for RateChurnAdversary {
    fn initial_graph(&mut self) -> Graph {
        let g = self.initial.clone();
        self.sync_mirror(&g);
        g
    }

    /// Delta-native: samples removals by index from the mirrored edge set
    /// and insertion candidates against the position map, without cloning,
    /// scanning, or mutating a `Graph`.
    fn next_delta(&mut self, _round: u64, prev: &Graph) -> GraphDelta {
        if !self.initialized || self.edges.len() != prev.num_edges() {
            // First call without `initial_graph`, or a phase switch handed
            // us a foreign graph: re-adopt its edge set (one O(m) scan).
            // The check is an edge-count heuristic — a foreign graph with
            // exactly as many edges as the mirror goes undetected (no such
            // caller exists in-repo; the Scenario pipeline always feeds back
            // the graph built from this adversary's own deltas).
            self.sync_mirror(prev);
        }
        let mut delta = GraphDelta::new();
        let n = prev.num_nodes();
        for _ in 0..self.removals.min(self.edges.len()) {
            let i = self.rng.gen_range(0..self.edges.len());
            delta.removed.push(self.mirror_remove_at(i));
        }
        let mut inserted = 0;
        let mut attempts = 0;
        while inserted < self.insertions && attempts < 20 * self.insertions.max(1) {
            let a = self.rng.gen_range(0..n);
            let b = self.rng.gen_range(0..n);
            if a != b {
                let e = Edge::new(NodeId::new(a), NodeId::new(b));
                if !self.pos.contains_key(&e) {
                    // Re-picking an edge removed earlier this round: cancel
                    // the removal (net "stays present") instead of emitting
                    // an insert+remove pair, which would net to absent.
                    if let Some(p) = delta.removed.iter().position(|x| *x == e) {
                        delta.removed.remove(p);
                    } else {
                        delta.inserted.push(e);
                    }
                    self.mirror_insert(e);
                    inserted += 1;
                }
            }
            attempts += 1;
        }
        delta
    }
}

/// Keeps a base graph fixed but, every `period` rounds, inserts a burst of
/// `burst_size` random *new* edges which persist for `duration` rounds and
/// are then removed again. This is the "conflict injection" workload used to
/// measure how fast a newly inserted edge's conflict is resolved
/// (Corollary 1.2's headline guarantee).
#[derive(Clone, Debug)]
pub struct BurstAdversary {
    base: Graph,
    period: u64,
    duration: u64,
    burst_size: usize,
    rng: ChaCha8Rng,
    /// Currently injected edges with their expiry round.
    live: Vec<(Edge, u64)>,
    /// All edges ever injected with their injection round (for analysis).
    injected_log: Vec<(Edge, u64)>,
}

impl BurstAdversary {
    /// Creates a burst adversary over `base`.
    pub fn new(base: Graph, period: u64, duration: u64, burst_size: usize, seed: u64) -> Self {
        assert!(period >= 1);
        BurstAdversary {
            base,
            period,
            duration,
            burst_size,
            rng: experiment_rng(seed, "burst"),
            live: Vec::new(),
            injected_log: Vec::new(),
        }
    }

    /// The log of `(edge, round)` injections performed so far.
    pub fn injected_log(&self) -> &[(Edge, u64)] {
        &self.injected_log
    }
}

impl Adversary for BurstAdversary {
    fn initial_graph(&mut self) -> Graph {
        self.base.clone()
    }

    /// Whole-graph reference path: composed from the adversary's own
    /// state (base + live injections), independent of `prev` — so a
    /// [`crate::PhaseAdversary`] switching to this adversary resets the
    /// graph to its base instead of continuing from the foreign `prev`.
    fn next_graph(&mut self, round: u64, prev: &Graph) -> Graph {
        let _ = self.next_delta(round, prev);
        let mut g = self.base.clone();
        for (e, expiry) in &self.live {
            if *expiry > round {
                g.insert_edge(e.u, e.v);
            }
        }
        g
    }

    /// Delta-native: expired injections become removals, a burst round's new
    /// injections become insertions — the base graph is never re-composed.
    fn next_delta(&mut self, round: u64, _prev: &Graph) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for (e, expiry) in &self.live {
            if *expiry <= round {
                delta.removed.push(*e);
            }
        }
        self.live.retain(|(_, expiry)| *expiry > round);
        if round.is_multiple_of(self.period) {
            let n = self.base.num_nodes();
            let mut added = 0;
            let mut attempts = 0;
            while added < self.burst_size && attempts < 50 * self.burst_size.max(1) {
                let a = self.rng.gen_range(0..n);
                let b = self.rng.gen_range(0..n);
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                if a != b
                    && !self.base.has_edge(a, b)
                    && !self.live.iter().any(|(e, _)| *e == Edge::new(a, b))
                {
                    let e = Edge::new(a, b);
                    self.live.push((e, round + self.duration));
                    self.injected_log.push((e, round));
                    if self.duration > 0 {
                        // A just-expired edge re-injected in the same round
                        // stays present: cancel the removal instead of
                        // emitting an insert-then-remove pair.
                        if let Some(pos) = delta.removed.iter().position(|x| *x == e) {
                            delta.removed.remove(pos);
                        } else {
                            delta.inserted.push(e);
                        }
                    }
                    added += 1;
                }
                attempts += 1;
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::generators;

    #[test]
    fn markov_stays_within_footprint() {
        let footprint = generators::cycle(10);
        let mut adv = MarkovChurnAdversary::new(&footprint, 0.3, 0.3, true, 1);
        let mut g = adv.initial_graph();
        assert_eq!(g.num_edges(), 10, "starts from the full footprint");
        for r in 1..30 {
            g = adv.next_graph(r, &g);
            for e in g.edges() {
                assert!(footprint.has_edge(e.u, e.v), "edge outside footprint");
            }
        }
    }

    #[test]
    fn markov_extremes() {
        let footprint = generators::complete(6);
        let mut frozen = MarkovChurnAdversary::new(&footprint, 0.0, 0.0, true, 2);
        let g0 = frozen.initial_graph();
        let g1 = frozen.next_graph(1, &g0);
        assert_eq!(
            g0.edge_vec(),
            g1.edge_vec(),
            "p_on = p_off = 0 freezes the graph"
        );

        let mut always_off = MarkovChurnAdversary::new(&footprint, 0.0, 1.0, true, 3);
        let g0 = always_off.initial_graph();
        let g1 = always_off.next_graph(1, &g0);
        assert_eq!(g1.num_edges(), 0);
    }

    #[test]
    fn flip_churn_zero_probability_is_static() {
        let footprint = generators::grid(4, 4);
        let mut adv = FlipChurnAdversary::new(&footprint, 0.0, 5);
        let g0 = adv.initial_graph();
        let g1 = adv.next_graph(1, &g0);
        assert_eq!(g0.edge_vec(), g1.edge_vec());
    }

    #[test]
    fn flip_churn_changes_some_edges() {
        let footprint = generators::complete(10);
        let mut adv = FlipChurnAdversary::new(&footprint, 0.2, 6);
        let g0 = adv.initial_graph();
        let g1 = adv.next_graph(1, &g0);
        assert!(!g0.edge_symmetric_difference(&g1).is_empty());
    }

    #[test]
    fn rate_churn_bounds_change_per_round() {
        let mut adv = RateChurnAdversary::new(generators::cycle(20), 3, 2, 7);
        let g0 = adv.initial_graph();
        let g1 = adv.next_graph(1, &g0);
        let diff = g0.edge_symmetric_difference(&g1).len();
        assert!(
            diff <= 5,
            "at most insertions + removals changes, got {diff}"
        );
        assert!(diff > 0);
    }

    #[test]
    fn rate_churn_delta_never_nets_out_insertions() {
        // The insertion sampler may re-pick a just-removed edge; that must
        // cancel the removal (net "stays present"), not emit an
        // insert+remove pair, which nets to absent under apply order.
        for seed in 0..20 {
            let mut adv = RateChurnAdversary::new(generators::complete(5), 4, 4, seed);
            let mut g = adv.initial_graph();
            for r in 1..30 {
                let d = adv.next_delta(r, &g);
                for e in &d.inserted {
                    assert!(
                        !d.removed.contains(e),
                        "seed {seed} round {r}: insert+remove pair for {e:?}"
                    );
                }
                d.apply(&mut g);
            }
        }
    }

    #[test]
    fn markov_delta_and_graph_paths_agree() {
        // The whole-graph reference path must consume the same RNG
        // stream and produce the same evolution as the delta path.
        let footprint = generators::erdos_renyi_avg_degree(
            60,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(9, "mdg"),
        );
        let mut by_graph = MarkovChurnAdversary::new(&footprint, 0.2, 0.3, false, 17);
        let mut by_delta = by_graph.clone();
        let mut g1 = by_graph.initial_graph();
        let mut g2 = by_delta.initial_graph();
        assert_eq!(g1.edge_vec(), g2.edge_vec());
        for r in 1..40 {
            g1 = by_graph.next_graph(r, &g1);
            let d = by_delta.next_delta(r, &g2);
            d.apply(&mut g2);
            assert_eq!(g1.edge_vec(), g2.edge_vec(), "round {r}");
        }
    }

    #[test]
    fn markov_partitions_track_presence() {
        // Every footprint edge is in exactly one partition, and the deltas
        // are tight: removed edges were present, inserted edges absent.
        let footprint = generators::complete(12);
        let m = footprint.num_edges();
        let mut adv = MarkovChurnAdversary::new(&footprint, 0.4, 0.4, false, 5);
        let mut g = adv.initial_graph();
        for r in 1..50 {
            let d = adv.next_delta(r, &g);
            for e in &d.removed {
                assert!(g.has_edge(e.u, e.v), "round {r}: removed absent edge");
            }
            for e in &d.inserted {
                assert!(!g.has_edge(e.u, e.v), "round {r}: inserted present edge");
            }
            d.apply(&mut g);
            assert_eq!(adv.present.len(), g.num_edges());
            assert_eq!(adv.present.len() + adv.absent.len(), m);
        }
    }

    #[test]
    fn markov_initializes_from_prev_without_initial_graph() {
        // A phase switch can call next_delta before initial_graph; the chain
        // must adopt the presence state of the handed graph.
        let footprint = generators::cycle(8);
        let mut adv = MarkovChurnAdversary::new(&footprint, 0.0, 0.0, true, 3);
        let mut partial = Graph::new(8);
        partial.insert_edge(dynnet_graph::NodeId::new(0), dynnet_graph::NodeId::new(1));
        let d = adv.next_delta(1, &partial);
        assert!(d.is_empty(), "p_on = p_off = 0 freezes the adopted state");
        assert_eq!(adv.present.len(), 1);
        assert_eq!(adv.absent.len(), 7);
    }

    #[test]
    fn rate_churn_mirror_stays_in_sync() {
        let mut adv = RateChurnAdversary::new(generators::complete(9), 3, 4, 13);
        let mut g = adv.initial_graph();
        for r in 1..60 {
            let d = adv.next_delta(r, &g);
            for e in &d.removed {
                assert!(g.has_edge(e.u, e.v), "round {r}: removed absent edge");
            }
            for e in &d.inserted {
                assert!(!g.has_edge(e.u, e.v), "round {r}: inserted present edge");
            }
            d.apply(&mut g);
            assert_eq!(adv.edges.len(), g.num_edges(), "round {r}");
            for (i, e) in adv.edges.iter().enumerate() {
                assert!(g.has_edge(e.u, e.v));
                assert_eq!(adv.pos[e], i);
            }
        }
    }

    #[test]
    fn geometric_flips_extremes_and_coverage() {
        let mut rng = experiment_rng(1, "gf");
        assert!(geometric_flips(&mut rng, 0.0, 100).is_empty());
        assert_eq!(
            geometric_flips(&mut rng, 1.0, 4),
            vec![0, 1, 2, 3],
            "p = 1 flips everything without drawing"
        );
        let flips = geometric_flips(&mut rng, 0.5, 1000);
        assert!(flips.len() > 350 && flips.len() < 650, "{}", flips.len());
        assert!(flips.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
    }

    #[test]
    fn bursts_inject_and_expire() {
        let base = generators::path(12);
        let mut adv = BurstAdversary::new(base.clone(), 5, 2, 3, 11);
        let mut g = adv.initial_graph();
        assert_eq!(g.num_edges(), base.num_edges());
        // Round 5 is a burst round (multiples of period).
        for r in 1..=5 {
            g = adv.next_graph(r, &g);
        }
        assert!(g.num_edges() > base.num_edges(), "burst edges present");
        assert!(!adv.injected_log().is_empty());
        // Two rounds later the burst has expired (and round 10 not reached).
        for r in 6..=8 {
            g = adv.next_graph(r, &g);
        }
        assert_eq!(g.num_edges(), base.num_edges(), "burst edges expired");
    }
}
