//! Sliding-window views over a dynamic graph: the `T`-intersection graph
//! `G^∩T_r` and the `T`-union graph `G^∪T_r` of Definition 2.1.
//!
//! `G^∩T_r` contains the edges present in *every* one of the last `T` rounds
//! (and the nodes awake throughout them); `G^∪T_r` contains the edges present
//! in *at least one* of the last `T` rounds, over the same node set `V^∩T_r`.
//!
//! [`GraphWindow`] keeps no graph. It consumes one [`GraphDelta`] per round
//! ([`GraphWindow::push_delta`]; round 0 is the delta from the all-asleep
//! graph) and keeps only run-length state: per edge and per node, whether it
//! is present now and the round at which that presence/absence run started.
//! Membership in the intersection and the union follows from the run lengths
//! alone, so a round costs `O(|δ|)` amortized (including garbage collection
//! of edges that left the union), not `O(|E_r|)`. Per-node incidence lists
//! over the same edge entries answer neighbourhood queries in `O(deg)`:
//! after every push, `incidence[v]` is exactly `v`'s neighbourhood in
//! `G^∪T_r` ([`GraphWindow::union_neighbors`]).
//!
//! [`GraphWindow::push`] is the whole-graph path kept for the oracle
//! verifier and tests: it diffs the graph against the run state and
//! forwards to the delta path.

use crate::dynamic::GraphDelta;
use crate::graph::Graph;
use crate::node::{Edge, NodeId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// One presence run: `on` is the current state, `since` the round at which
/// this run started (an absent edge with `since = s` was last present in
/// round `s - 1`).
#[derive(Clone, Copy, Debug)]
struct Span {
    on: bool,
    since: u64,
}

/// Per-edge window state: the presence run plus this edge's positions in
/// its endpoints' incidence lists (`pos_u` in `incidence[e.u]`, `pos_v` in
/// `incidence[e.v]`, with `e` normalized so `u < v`). The stored positions
/// make garbage-collecting an expired edge `O(1)` — swap-remove and patch
/// the one entry that moved — instead of a linear scan of the endpoint's
/// list, which would turn mass expiry at a high-degree node quadratic.
#[derive(Clone, Copy, Debug)]
struct EdgeEntry {
    on: bool,
    since: u64,
    pos_u: u32,
    pos_v: u32,
}

/// The window-membership changes produced by pushing one round into a
/// [`GraphWindow`] — returned by [`GraphWindow::push`] and
/// [`GraphWindow::push_delta`].
///
/// Together the seven lists describe *every* way the window graphs of
/// Definition 2.1 can change between consecutive rounds, so a delta-aware
/// consumer (the incremental T-dynamic verifier in `dynnet-core`) knows
/// which nodes' window neighbourhoods changed without re-materializing the
/// window graphs. Round 0 is no special case: its update lists every initial
/// edge and active node as inserted/woken, and (the window then spanning one
/// round) as joined to the intersection:
///
/// * the tight per-round delta (`inserted`, `removed`, `woken`,
///   `deactivated`) — `inserted` edges join `G^∪T` and `removed` edges leave
///   `G^∩T` immediately; `deactivated` nodes leave `V^∩T` immediately (their
///   dropped edges are listed in `removed`);
/// * the *window-expiry* events that occur even on rounds with an empty
///   delta, purely because the window slid: `edges_left_union` (an absent
///   edge's last present round slid out of the window),
///   `edges_joined_intersection` and `nodes_joined_intersection` (a
///   presence/activity run now spans the whole window).
///
/// [`WindowUpdate::dirty_nodes`] flattens the lists into the round's *dirty
/// node set* — exactly the nodes whose incident window-graph structure
/// changed, hence (beyond output changes) the only nodes whose T-dynamic
/// verdict can change this round.
#[derive(Clone, Debug, Default)]
pub struct WindowUpdate {
    /// Edges inserted into the current graph this round (tight: every listed
    /// edge was really absent before). They are in `G^∪T` from this round on.
    pub inserted: Vec<Edge>,
    /// Edges removed from the current graph this round (tight; includes the
    /// edges dropped by node deactivations). They leave `G^∩T` immediately
    /// but remain in `G^∪T` until their last present round ages out.
    pub removed: Vec<Edge>,
    /// Nodes that became active this round.
    pub woken: Vec<NodeId>,
    /// Nodes deactivated this round — they leave `V^∩T` immediately.
    pub deactivated: Vec<NodeId>,
    /// Absent edges whose last present round slid out of the window this
    /// round: they leave `G^∪T` now, possibly with an empty delta.
    pub edges_left_union: Vec<Edge>,
    /// Edges whose presence run now spans the whole window: they join
    /// `G^∩T` this round (for `T = 1`, insertions mature immediately).
    pub edges_joined_intersection: Vec<Edge>,
    /// Nodes whose activity run now spans the whole window: they join
    /// `V^∩T` this round.
    pub nodes_joined_intersection: Vec<NodeId>,
}

impl WindowUpdate {
    /// Returns `true` if the round changed no window membership at all (the
    /// intersection graph, union graph, and `V^∩T` are all unchanged).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.removed.is_empty()
            && self.woken.is_empty()
            && self.deactivated.is_empty()
            && self.edges_left_union.is_empty()
            && self.edges_joined_intersection.is_empty()
            && self.nodes_joined_intersection.is_empty()
    }

    /// The round's dirty node set: every node incident to a listed edge
    /// event plus every node with a listed activity/membership event, sorted
    /// and deduplicated. These are the only nodes whose window-graph
    /// neighborhood changed this round.
    pub fn dirty_nodes(&self) -> Vec<NodeId> {
        let mut dirty: Vec<NodeId> = Vec::new();
        for e in self
            .inserted
            .iter()
            .chain(&self.removed)
            .chain(&self.edges_left_union)
            .chain(&self.edges_joined_intersection)
        {
            dirty.push(e.u);
            dirty.push(e.v);
        }
        dirty.extend_from_slice(&self.woken);
        dirty.extend_from_slice(&self.deactivated);
        dirty.extend_from_slice(&self.nodes_joined_intersection);
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }
}

/// Incrementally maintained sliding window over the last `T` rounds of a
/// dynamic graph, exposing the intersection graph `G^∩T_r` and union graph
/// `G^∪T_r` of Definition 2.1.
#[derive(Clone, Debug)]
pub struct GraphWindow {
    n: usize,
    window: usize,
    /// Total rounds pushed so far; the current round index is
    /// `rounds_pushed - 1`.
    rounds_pushed: u64,
    /// Presence run of every edge of `G^∪T`: present now, or absent but
    /// last present inside the window (absent entries are garbage-collected
    /// when their last present round slides out). The entries with `on` set
    /// are exactly the current graph's edges.
    ///
    /// A `BTreeMap` so that iterating it ([`GraphWindow::intersection_graph`],
    /// [`GraphWindow::union_graph`], the diff in [`GraphWindow::push`])
    /// visits edges in `Ord` order — the results are independent of
    /// insertion history by construction.
    edge_state: BTreeMap<Edge, EdgeEntry>,
    /// Per-node incidence lists over `edge_state`: `incidence[v]` holds the
    /// other endpoint of every edge entry at `v`. Maintained by the same
    /// insert/GC events as `edge_state`, so after each push it is `v`'s
    /// `G^∪T` neighbourhood, and the degree queries touch `O(deg)` entries
    /// instead of scanning the whole edge map.
    incidence: Vec<Vec<NodeId>>,
    /// Activity run per node (`on` = active in the current round).
    node_state: Vec<Span>,
    /// `(round_removed, edge)` queue driving the lazy GC of absent edges
    /// that have slid out of the union.
    gc_queue: VecDeque<(u64, Edge)>,
    /// `(round_inserted, edge)` queue driving the intersection-maturity
    /// events: an edge inserted in round `q` joins `G^∩T` when the window
    /// start reaches `q` (round `q + T - 1`), if its presence run survived.
    edge_maturity_queue: VecDeque<(u64, Edge)>,
    /// `(round_woken, node)` queue driving the `V^∩T`-maturity events,
    /// symmetric to `edge_maturity_queue`.
    node_maturity_queue: VecDeque<(u64, NodeId)>,
}

impl GraphWindow {
    /// Creates an empty window of size `window` (the paper's parameter `T ≥ 1`)
    /// over a universe of `n` nodes. Before the first push every node is
    /// asleep and there are no edges.
    pub fn new(n: usize, window: usize) -> Self {
        assert!(window >= 1, "window size T must be at least 1");
        GraphWindow {
            n,
            window,
            rounds_pushed: 0,
            edge_state: BTreeMap::new(),
            incidence: vec![Vec::new(); n],
            node_state: vec![
                Span {
                    on: false,
                    since: 0
                };
                n
            ],
            gc_queue: VecDeque::new(),
            edge_maturity_queue: VecDeque::new(),
            node_maturity_queue: VecDeque::new(),
        }
    }

    /// The window size `T`.
    #[inline]
    pub fn window_size(&self) -> usize {
        self.window
    }

    /// Number of rounds currently inside the window (`min(T, r+1)` after
    /// pushing round `r`, with rounds counted from the first push).
    #[inline]
    pub fn len(&self) -> usize {
        (self.rounds_pushed.min(self.window as u64)) as usize
    }

    /// Returns `true` if no round has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rounds_pushed == 0
    }

    /// The last round number pushed, if any.
    #[inline]
    pub fn current_round(&self) -> Option<u64> {
        self.rounds_pushed.checked_sub(1)
    }

    /// First round inside the window (all runs starting at or before it span
    /// the whole window). Only meaningful when at least one round was pushed.
    #[inline]
    fn start(&self) -> u64 {
        self.rounds_pushed - self.len() as u64
    }

    /// Pushes the communication graph of the next round into the window and
    /// returns the round's [`WindowUpdate`].
    ///
    /// Whole-graph path for the oracle verifier and tests: diffs `g` against
    /// the run state (`O(n + |E| + |G^∪T|)`) and forwards to
    /// [`GraphWindow::push_delta`]. Streaming callers that hold the round's
    /// delta should call that directly.
    pub fn push(&mut self, g: &Graph) -> WindowUpdate {
        assert_eq!(g.num_nodes(), self.n, "graph universe mismatch");
        let mut delta = GraphDelta::new();
        delta.inserted = g
            .edges()
            .filter(|e| !self.edge_state.get(e).is_some_and(|s| s.on))
            .collect();
        delta.removed = self
            .edge_state
            .iter()
            .filter(|(e, s)| s.on && !g.has_edge(e.u, e.v))
            .map(|(&e, _)| e)
            .collect();
        for (v, s) in g.nodes().zip(&self.node_state) {
            match (s.on, g.is_active(v)) {
                (false, true) => delta.woken.push(v),
                (true, false) => delta.deactivated.push(v),
                _ => {}
            }
        }
        self.push_delta(&delta)
    }

    /// Pushes the next round as a delta relative to the previous round — the
    /// `O(|δ|)` streaming path — and returns the round's [`WindowUpdate`]
    /// (the tight delta plus the window-expiry events). Round 0's delta is
    /// relative to the all-asleep graph. The delta may be loose (no-op
    /// changes are tolerated); it is tightened against the run state while
    /// being applied.
    pub fn push_delta(&mut self, delta: &GraphDelta) -> WindowUpdate {
        let round = self.rounds_pushed;
        let GraphDelta {
            inserted,
            removed,
            woken,
            deactivated,
        } = self.realize(delta, round);
        self.rounds_pushed += 1;
        let start = self.start();
        // Runs started this round span the whole window at once in round 0
        // (a one-round window) and for `T = 1`; they mature below without a
        // round trip through the queues — in round 0 that is every edge.
        let immediate = round <= start;
        if !immediate {
            self.edge_maturity_queue
                .extend(inserted.iter().map(|&e| (round, e)));
            self.node_maturity_queue
                .extend(woken.iter().map(|&v| (round, v)));
        }
        self.gc_queue.extend(removed.iter().map(|&e| (round, e)));
        let mut update = WindowUpdate {
            inserted,
            removed,
            woken,
            deactivated,
            ..WindowUpdate::default()
        };

        // GC: absent edges whose removal round slid out of the window are no
        // longer in the union and can be forgotten.
        while let Some(&(r, e)) = self.gc_queue.front() {
            if r > start {
                break;
            }
            self.gc_queue.pop_front();
            if let Entry::Occupied(occ) = self.edge_state.entry(e) {
                if !occ.get().on && occ.get().since == r {
                    let entry = occ.remove();
                    drop_incidence(&mut self.incidence, &mut self.edge_state, e, entry);
                    update.edges_left_union.push(e);
                }
            }
        }
        // Maturity: a presence/activity run started in an earlier round `r`
        // spans the whole window once the window start reaches `r`. A run
        // superseded by a later event has `since != r` and is skipped — its
        // own queue entry handles it.
        while let Some(&(r, e)) = self.edge_maturity_queue.front() {
            if r > start {
                break;
            }
            self.edge_maturity_queue.pop_front();
            if self
                .edge_state
                .get(&e)
                .is_some_and(|s| s.on && s.since == r)
            {
                update.edges_joined_intersection.push(e);
            }
        }
        while let Some(&(r, v)) = self.node_maturity_queue.front() {
            if r > start {
                break;
            }
            self.node_maturity_queue.pop_front();
            let s = self.node_state[v.index()];
            if s.on && s.since == r {
                update.nodes_joined_intersection.push(v);
            }
        }
        if immediate {
            // Every tight insertion is present with a run started this
            // round; a node woken this round may have been deactivated again.
            update
                .edges_joined_intersection
                .extend_from_slice(&update.inserted);
            let node_state = &self.node_state;
            update
                .nodes_joined_intersection
                .extend(update.woken.iter().filter(|v| node_state[v.index()].on));
        }
        update
    }

    /// Applies `delta` to the run state as round `round`, returning the
    /// *tight* delta of changes that actually took effect (including edges
    /// dropped by node deactivation and nodes implicitly woken by edge
    /// insertion). The order is that of [`GraphDelta::apply`]: wake-ups,
    /// insertions, removals, deactivations.
    fn realize(&mut self, delta: &GraphDelta, round: u64) -> GraphDelta {
        let mut tight = GraphDelta::new();
        for &v in &delta.woken {
            self.wake(v, round, &mut tight.woken);
        }
        // Re-inserted edges that were still inside the union, with the start
        // of their absence run — restored if this delta removes them again.
        let mut revived: HashMap<Edge, u64> = HashMap::new();
        for &e in &delta.inserted {
            match self.edge_state.entry(e) {
                Entry::Occupied(mut occ) => {
                    let s = occ.get_mut();
                    if s.on {
                        continue;
                    }
                    revived.insert(e, s.since);
                    s.on = true;
                    s.since = round;
                }
                Entry::Vacant(vac) => {
                    let (pos_u, pos_v) = add_incidence(&mut self.incidence, e);
                    vac.insert(EdgeEntry {
                        on: true,
                        since: round,
                        pos_u,
                        pos_v,
                    });
                }
            }
            self.wake(e.u, round, &mut tight.woken);
            self.wake(e.v, round, &mut tight.woken);
            tight.inserted.push(e);
        }
        let mut cancelled: HashSet<Edge> = HashSet::new();
        for &e in &delta.removed {
            self.remove(e, round, &revived, &mut cancelled, &mut tight.removed);
        }
        for &v in &delta.deactivated {
            if !self.node_state[v.index()].on {
                continue;
            }
            let mut present: Vec<NodeId> = self.incidence[v.index()]
                .iter()
                .copied()
                .filter(|&u| self.edge_state.get(&Edge::new(v, u)).is_some_and(|s| s.on))
                .collect();
            present.sort_unstable();
            for u in present {
                let e = Edge::new(v, u);
                self.remove(e, round, &revived, &mut cancelled, &mut tight.removed);
            }
            self.node_state[v.index()] = Span {
                on: false,
                since: round,
            };
            tight.deactivated.push(v);
        }
        if !cancelled.is_empty() {
            tight.inserted.retain(|e| !cancelled.contains(e));
        }
        tight
    }

    /// Starts an activity run at `v` in `round` unless it is already active.
    fn wake(&mut self, v: NodeId, round: u64, woken: &mut Vec<NodeId>) {
        let s = &mut self.node_state[v.index()];
        if !s.on {
            *s = Span {
                on: true,
                since: round,
            };
            woken.push(v);
        }
    }

    /// Ends the presence run of `e` in `round` if it is present. An edge
    /// inserted *and* removed by the same delta (insertions apply first) was
    /// never present in any round's final graph: its removal restores the
    /// run it had before the delta (`revived`, or no entry at all) and lists
    /// it in `cancelled` instead of `removed`.
    fn remove(
        &mut self,
        e: Edge,
        round: u64,
        revived: &HashMap<Edge, u64>,
        cancelled: &mut HashSet<Edge>,
        removed: &mut Vec<Edge>,
    ) {
        let Entry::Occupied(mut occ) = self.edge_state.entry(e) else {
            return;
        };
        let s = occ.get_mut();
        if !s.on {
            return;
        }
        if s.since != round {
            s.on = false;
            s.since = round;
            removed.push(e);
            return;
        }
        cancelled.insert(e);
        match revived.get(&e) {
            Some(&since) => {
                s.on = false;
                s.since = since;
            }
            None => {
                let entry = occ.remove();
                drop_incidence(&mut self.incidence, &mut self.edge_state, e, entry);
            }
        }
    }

    /// `v`'s neighbourhood in the union graph `G^∪T_r`: every edge entry at
    /// `v` is in the union once the push that produced it has collected the
    /// expired ones. `O(1)`; the slice is in no particular order.
    pub fn union_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.incidence[v.index()]
    }

    /// Node set `V^∩T_r`: nodes that were awake in every round of the window.
    pub fn intersection_nodes(&self) -> Vec<NodeId> {
        (0..self.n)
            .map(NodeId::new)
            .filter(|&v| self.node_in_intersection(v))
            .collect()
    }

    /// Returns `true` if `v` has been awake for the whole window.
    pub fn node_in_intersection(&self, v: NodeId) -> bool {
        let s = self.node_state[v.index()];
        self.rounds_pushed > 0 && s.on && s.since <= self.start()
    }

    /// Returns `true` if the edge was present in every round of the window.
    pub fn edge_in_intersection(&self, e: Edge) -> bool {
        self.rounds_pushed > 0
            && self
                .edge_state
                .get(&e)
                .is_some_and(|s| s.on && s.since <= self.start())
    }

    /// Returns `true` if the edge was present in at least one window round.
    pub fn edge_in_union(&self, e: Edge) -> bool {
        self.edge_state.contains_key(&e)
    }

    /// Materializes the intersection graph `G^∩T_r`.
    ///
    /// Only nodes in `V^∩T_r` are active; only edges present in all window
    /// rounds are included.
    pub fn intersection_graph(&self) -> Graph {
        let mut g = Graph::new_all_asleep(self.n);
        for v in self.intersection_nodes() {
            g.activate(v);
        }
        for &e in self.edge_state.keys() {
            if self.edge_in_intersection(e) {
                g.insert_edge(e.u, e.v);
            }
        }
        g
    }

    /// Materializes the union graph `G^∪T_r` (node set `V^∩T_r`, edge union).
    pub fn union_graph(&self) -> Graph {
        let mut g = Graph::new_all_asleep(self.n);
        for v in self.intersection_nodes() {
            g.activate(v);
        }
        for &e in self.edge_state.keys() {
            g.insert_edge(e.u, e.v);
        }
        g
    }

    /// Degree of `v` in the union graph: the number of *distinct* neighbors
    /// seen in the last `T` rounds — the paper's notion of "degree" for the
    /// (degree+1)-coloring covering constraint in dynamic networks. `O(1)`.
    pub fn union_degree(&self, v: NodeId) -> usize {
        self.union_neighbors(v).len()
    }

    /// Degree of `v` in the intersection graph (`O(deg^∪T(v))`).
    pub fn intersection_degree(&self, v: NodeId) -> usize {
        self.union_neighbors(v)
            .iter()
            .filter(|&&u| self.edge_in_intersection(Edge::new(v, u)))
            .count()
    }

    /// The pre-incidence-list `union_degree`: a full scan of the edge map.
    /// Kept as the reference the equivalence tests compare against.
    #[cfg(test)]
    fn union_degree_scan(&self, v: NodeId) -> usize {
        let start = self.start();
        self.edge_state
            .iter()
            .filter(|(e, s)| e.contains(v) && (s.on || s.since > start))
            .count()
    }

    /// The pre-incidence-list `intersection_degree` (full scan, tests only).
    #[cfg(test)]
    fn intersection_degree_scan(&self, v: NodeId) -> usize {
        if self.rounds_pushed == 0 {
            return 0;
        }
        let start = self.start();
        self.edge_state
            .iter()
            .filter(|(e, s)| e.contains(v) && s.on && s.since <= start)
            .count()
    }

    /// Depths of the window's internal maintenance queues (the lazy union
    /// GC and the edge/node intersection-maturity queues) — observability
    /// counters surfaced as the `window.*` metrics.
    pub fn queue_depths(&self) -> QueueDepths {
        QueueDepths {
            gc: self.gc_queue.len(),
            edge_maturity: self.edge_maturity_queue.len(),
            node_maturity: self.node_maturity_queue.len(),
        }
    }
}

/// Registers a fresh edge entry in both endpoints' incidence lists,
/// returning its positions `(pos_u, pos_v)` in them. A list holds at most
/// one entry per other node, and node ids are `u32`, so a position fits.
fn add_incidence(incidence: &mut [Vec<NodeId>], e: Edge) -> (u32, u32) {
    let list_u = &mut incidence[e.u.index()];
    let pos_u = list_u.len() as u32;
    list_u.push(e.v);
    let list_v = &mut incidence[e.v.index()];
    let pos_v = list_v.len() as u32;
    list_v.push(e.u);
    (pos_u, pos_v)
}

/// Removes a dropped edge entry from both endpoints' incidence lists in
/// `O(1)`: swap-remove at the entry's stored positions and patch the stored
/// position of the one edge that moved.
fn drop_incidence(
    incidence: &mut [Vec<NodeId>],
    edge_state: &mut BTreeMap<Edge, EdgeEntry>,
    e: Edge,
    entry: EdgeEntry,
) {
    incidence_swap_remove(incidence, edge_state, e.u, entry.pos_u);
    incidence_swap_remove(incidence, edge_state, e.v, entry.pos_v);
}

fn incidence_swap_remove(
    incidence: &mut [Vec<NodeId>],
    edge_state: &mut BTreeMap<Edge, EdgeEntry>,
    v: NodeId,
    pos: u32,
) {
    let list = &mut incidence[v.index()];
    let pos = pos as usize;
    debug_assert!(pos < list.len(), "stale incidence position");
    if pos >= list.len() {
        return;
    }
    list.swap_remove(pos);
    // The former last entry, if any, moved into `pos`: update its edge's
    // stored position on `v`'s side. Incidence entries exist only for
    // tracked edges, so the lookup cannot miss unless the two structures
    // already diverged — assert in debug, tolerate in release.
    let Some(&moved_to) = list.get(pos) else {
        return;
    };
    let moved_edge = Edge::new(v, moved_to);
    debug_assert!(edge_state.contains_key(&moved_edge));
    if let Some(moved) = edge_state.get_mut(&moved_edge) {
        // `pos` came from a `u32` position, so it still fits.
        if moved_edge.u == v {
            moved.pos_u = pos as u32;
        } else {
            moved.pos_v = pos as u32;
        }
    }
}

/// Depths of a [`GraphWindow`]'s internal maintenance queues, reported by
/// [`GraphWindow::queue_depths`]. Steady-state depths are bounded by the
/// churn of the last `T` rounds; monotone growth indicates a maintenance
/// leak.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueDepths {
    /// Entries in the lazy GC queue of absent edges still inside the union.
    pub gc: usize,
    /// Entries in the edge intersection-maturity queue.
    pub edge_maturity: usize,
    /// Entries in the node intersection-maturity queue.
    pub node_maturity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: usize, edges: &[(usize, usize)]) -> Graph {
        Graph::from_edges(n, edges.iter().map(|&(a, b)| Edge::of(a, b)))
    }

    /// Brute-force window graphs: `(G^∩T, G^∪T)` folded with
    /// `Graph::intersection` / `Graph::union` over the last `t` raw graphs a
    /// test pushed — independent of the window's run-length state.
    fn fold_window(pushed: &[Graph], t: usize) -> (Graph, Graph) {
        let last = &pushed[pushed.len().saturating_sub(t)..];
        let first = last[0].clone();
        let inter = last[1..]
            .iter()
            .fold(first.clone(), |acc, g| acc.intersection(g));
        let union = last[1..].iter().fold(first, |acc, g| acc.union(g));
        (inter, union)
    }

    #[test]
    fn window_of_one_round_is_current_graph() {
        let mut w = GraphWindow::new(4, 3);
        let g0 = g(4, &[(0, 1), (2, 3)]);
        w.push(&g0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.intersection_graph().edge_vec(), g0.edge_vec());
        assert_eq!(w.union_graph().edge_vec(), g0.edge_vec());
    }

    #[test]
    fn intersection_and_union_over_three_rounds() {
        let mut w = GraphWindow::new(4, 3);
        w.push(&g(4, &[(0, 1), (1, 2)]));
        w.push(&g(4, &[(0, 1), (2, 3)]));
        w.push(&g(4, &[(0, 1), (1, 2), (2, 3)]));
        let inter = w.intersection_graph();
        let uni = w.union_graph();
        assert_eq!(inter.edge_vec(), vec![Edge::of(0, 1)]);
        assert_eq!(
            uni.edge_vec(),
            vec![Edge::of(0, 1), Edge::of(1, 2), Edge::of(2, 3)]
        );
    }

    #[test]
    fn eviction_forgets_old_edges() {
        let mut w = GraphWindow::new(3, 2);
        w.push(&g(3, &[(0, 1)]));
        w.push(&g(3, &[(1, 2)]));
        w.push(&g(3, &[(1, 2)]));
        // Window now holds rounds 1 and 2: {1,2} in both; {0,1} evicted.
        assert!(w.edge_in_intersection(Edge::of(1, 2)));
        assert!(!w.edge_in_union(Edge::of(0, 1)));
        assert_eq!(w.union_graph().edge_vec(), vec![Edge::of(1, 2)]);
    }

    #[test]
    fn push_delta_matches_whole_graph_push() {
        let seq = [
            g(5, &[(0, 1), (2, 3)]),
            g(5, &[(0, 1), (1, 2)]),
            g(5, &[(1, 2)]),
            g(5, &[(1, 2), (3, 4), (0, 4)]),
            g(5, &[(3, 4)]),
        ];
        let mut by_graph = GraphWindow::new(5, 3);
        let mut by_delta = GraphWindow::new(5, 3);
        let mut prev = Graph::new_all_asleep(5);
        for gr in &seq {
            by_graph.push(gr);
            by_delta.push_delta(&GraphDelta::between(&prev, gr));
            prev = gr.clone();
            assert_eq!(by_graph.intersection_graph(), by_delta.intersection_graph());
            assert_eq!(by_graph.union_graph(), by_delta.union_graph());
            assert_eq!(by_graph.len(), by_delta.len());
        }
    }

    /// The fields of a [`WindowUpdate`], for whole-update comparisons.
    fn lists(u: &WindowUpdate) -> [Vec<Edge>; 4] {
        [
            u.inserted.clone(),
            u.removed.clone(),
            u.edges_left_union.clone(),
            u.edges_joined_intersection.clone(),
        ]
    }

    #[test]
    fn round_zero_push_equals_all_asleep_delta() {
        // Round 0 is a delta from the all-asleep graph: pushing the graph
        // and pushing that delta must agree on every update list and on the
        // materialized window graphs, also with asleep nodes present.
        let mut g0 = g(6, &[(0, 1), (1, 2), (4, 5)]);
        g0.deactivate(NodeId::new(5));
        g0.activate(NodeId::new(3));
        let mut g1 = g0.clone();
        g1.remove_edge(NodeId::new(0), NodeId::new(1));
        g1.insert_edge(NodeId::new(2), NodeId::new(3));
        for t in [1usize, 2, 6] {
            let mut by_graph = GraphWindow::new(6, t);
            let mut by_delta = GraphWindow::new(6, t);
            let u_graph = by_graph.push(&g0);
            let u_delta = by_delta.push_delta(&GraphDelta::between(&Graph::new_all_asleep(6), &g0));
            assert_eq!(lists(&u_graph), lists(&u_delta), "T={t}");
            assert_eq!(u_graph.woken, u_delta.woken, "T={t}");
            assert_eq!(u_graph.deactivated, u_delta.deactivated, "T={t}");
            assert_eq!(
                u_graph.nodes_joined_intersection, u_delta.nodes_joined_intersection,
                "T={t}"
            );
            assert_eq!(u_delta.inserted, g0.edge_vec(), "T={t}");
            assert_eq!(u_delta.edges_joined_intersection, g0.edge_vec(), "T={t}");
            let active: Vec<NodeId> = g0.active_nodes().collect();
            assert_eq!(u_delta.woken, active, "T={t}");
            assert_eq!(u_delta.nodes_joined_intersection, active, "T={t}");
            assert_eq!(by_graph.intersection_graph(), by_delta.intersection_graph());
            assert_eq!(by_graph.union_graph(), by_delta.union_graph());
            let (inter, union) = fold_window(std::slice::from_ref(&g0), t);
            assert_eq!(by_delta.intersection_graph().edge_vec(), inter.edge_vec());
            assert_eq!(by_delta.union_graph().edge_vec(), union.edge_vec());
            // The rounds after a delta-pushed round 0 match too.
            let u1_graph = by_graph.push(&g1);
            let u1_delta = by_delta.push_delta(&GraphDelta::between(&g0, &g1));
            assert_eq!(lists(&u1_graph), lists(&u1_delta), "T={t}");
            assert_eq!(by_graph.union_graph(), by_delta.union_graph());
        }
    }

    #[test]
    fn loose_deltas_are_tolerated() {
        let mut w = GraphWindow::new(3, 2);
        w.push(&g(3, &[(0, 1)]));
        let mut loose = GraphDelta::new();
        loose.insert(NodeId::new(0), NodeId::new(1)); // already present: no-op
        loose.remove(NodeId::new(0), NodeId::new(2)); // already absent: no-op
        loose.insert(NodeId::new(1), NodeId::new(2));
        // Inserted *and* removed in one delta: net no-op (never present).
        loose.insert(NodeId::new(0), NodeId::new(2));
        loose.remove(NodeId::new(0), NodeId::new(2));
        let u = w.push_delta(&loose);
        assert_eq!(u.inserted, vec![Edge::of(1, 2)]);
        assert!(u.removed.is_empty());
        assert!(w.edge_in_intersection(Edge::of(0, 1)));
        assert!(!w.edge_in_intersection(Edge::of(1, 2)));
        assert!(w.edge_in_union(Edge::of(1, 2)));
        assert!(!w.edge_in_union(Edge::of(0, 2)));
        // The same window state as pushing the net graph.
        let mut net = GraphWindow::new(3, 2);
        net.push(&g(3, &[(0, 1)]));
        net.push(&g(3, &[(0, 1), (1, 2)]));
        assert_eq!(w.union_graph(), net.union_graph());
        assert_eq!(w.intersection_graph(), net.intersection_graph());
    }

    #[test]
    fn cancelled_reinsertion_keeps_its_absence_run() {
        // {0,1} is removed in round 1, then re-inserted and removed again by
        // one delta in round 2: it stays absent, and it still leaves the
        // union when round 0 (its last present round) slides out.
        let mut w = GraphWindow::new(3, 2);
        w.push(&g(3, &[(0, 1)]));
        let mut d1 = GraphDelta::new();
        d1.remove(NodeId::new(0), NodeId::new(1));
        w.push_delta(&d1);
        let mut d2 = GraphDelta::new();
        d2.insert(NodeId::new(0), NodeId::new(1));
        d2.remove(NodeId::new(0), NodeId::new(1));
        let u2 = w.push_delta(&d2);
        assert!(u2.inserted.is_empty() && u2.removed.is_empty());
        assert_eq!(u2.edges_left_union, vec![Edge::of(0, 1)]);
        assert!(!w.edge_in_union(Edge::of(0, 1)));
        assert_eq!(w.union_degree(NodeId::new(0)), 0);
    }

    #[test]
    fn union_degree_counts_distinct_neighbors() {
        let mut w = GraphWindow::new(5, 4);
        w.push(&g(5, &[(0, 1)]));
        w.push(&g(5, &[(0, 2)]));
        w.push(&g(5, &[(0, 3)]));
        assert_eq!(w.union_degree(NodeId::new(0)), 3);
        assert_eq!(w.intersection_degree(NodeId::new(0)), 0);
    }

    #[test]
    fn node_activity_intersection() {
        let mut w = GraphWindow::new(3, 2);
        let mut g0 = Graph::new_all_asleep(3);
        g0.activate(NodeId::new(0));
        let mut g1 = Graph::new_all_asleep(3);
        g1.activate(NodeId::new(0));
        g1.activate(NodeId::new(1));
        w.push(&g0);
        w.push(&g1);
        assert!(w.node_in_intersection(NodeId::new(0)));
        assert!(!w.node_in_intersection(NodeId::new(1)));
        assert_eq!(w.intersection_nodes(), vec![NodeId::new(0)]);
    }

    #[test]
    fn incremental_matches_bruteforce() {
        let mut w = GraphWindow::new(6, 3);
        let seq = [
            g(6, &[(0, 1), (2, 3), (4, 5)]),
            g(6, &[(0, 1), (1, 2), (4, 5)]),
            g(6, &[(0, 1), (3, 4)]),
            g(6, &[(1, 2), (3, 4), (0, 1)]),
            g(6, &[(1, 2)]),
        ];
        for (r, gr) in seq.iter().enumerate() {
            w.push(gr);
            let (inter, union) = fold_window(&seq[..=r], 3);
            assert_eq!(w.intersection_graph().edge_vec(), inter.edge_vec());
            assert_eq!(w.union_graph().edge_vec(), union.edge_vec());
        }
    }

    #[test]
    fn current_round_counts_pushes() {
        let mut w = GraphWindow::new(3, 3);
        assert!(w.is_empty());
        assert_eq!(w.current_round(), None);
        w.push(&g(3, &[(0, 1)]));
        w.push(&g(3, &[(1, 2)]));
        assert_eq!(w.current_round(), Some(1));
        assert_eq!(w.len(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        let _ = GraphWindow::new(3, 0);
    }

    /// Applies a [`WindowUpdate`] to shadow copies of the window graphs.
    fn patch_shadow(
        u: &WindowUpdate,
        inter: &mut Graph,
        union: &mut Graph,
        vcap: &mut std::collections::BTreeSet<NodeId>,
    ) {
        for e in &u.inserted {
            union.insert_edge(e.u, e.v);
        }
        for e in &u.removed {
            inter.remove_edge(e.u, e.v);
        }
        for e in &u.edges_left_union {
            union.remove_edge(e.u, e.v);
        }
        for e in &u.edges_joined_intersection {
            inter.insert_edge(e.u, e.v);
        }
        for v in &u.deactivated {
            vcap.remove(v);
        }
        for v in &u.nodes_joined_intersection {
            vcap.insert(*v);
        }
    }

    #[test]
    fn window_updates_patch_shadow_graphs() {
        // From round 0 on, shadows patched only from the update lists stay
        // equal to the materialized window graphs and to brute force.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let n = 9;
        for t in 1..=5usize {
            let mut w = GraphWindow::new(n, t);
            let mut inter = Graph::new_all_asleep(n);
            let mut union = Graph::new_all_asleep(n);
            let mut vcap = std::collections::BTreeSet::new();
            let mut cur = Graph::new_all_asleep(n);
            let mut pushed = Vec::new();
            for _ in 0..6 {
                if rng.gen_bool(0.8) {
                    cur.activate(NodeId::new(rng.gen_range(0..n)));
                }
            }
            for round in 0..40 {
                // Mutate the graph a little (edges only between active nodes
                // keeps the diff tight); occasionally change node activity.
                for _ in 0..rng.gen_range(0..4) {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    if a != b && cur.is_active(NodeId::new(a)) && cur.is_active(NodeId::new(b)) {
                        cur.toggle_edge(NodeId::new(a), NodeId::new(b));
                    }
                }
                if rng.gen_bool(0.3) {
                    let v = NodeId::new(rng.gen_range(0..n));
                    if cur.is_active(v) {
                        cur.deactivate(v);
                    } else {
                        cur.activate(v);
                    }
                }
                let update = w.push(&cur);
                pushed.push(cur.clone());
                patch_shadow(&update, &mut inter, &mut union, &mut vcap);
                assert_eq!(
                    inter.edge_vec(),
                    w.intersection_graph().edge_vec(),
                    "T={t} round={round} intersection diverged"
                );
                assert_eq!(
                    union.edge_vec(),
                    w.union_graph().edge_vec(),
                    "T={t} round={round} union diverged"
                );
                let (bf_inter, bf_union) = fold_window(&pushed, t);
                assert_eq!(inter.edge_vec(), bf_inter.edge_vec(), "T={t} round={round}");
                assert_eq!(union.edge_vec(), bf_union.edge_vec(), "T={t} round={round}");
                let want: std::collections::BTreeSet<NodeId> =
                    w.intersection_nodes().into_iter().collect();
                let bf_vcap: std::collections::BTreeSet<NodeId> = bf_inter.active_nodes().collect();
                assert_eq!(vcap, want, "T={t} round={round} V^∩T diverged");
                assert_eq!(vcap, bf_vcap, "T={t} round={round} V^∩T vs brute force");
            }
        }
    }

    #[test]
    fn incidence_degree_queries_match_full_scans() {
        // Randomized runs across window sizes: after every push, the
        // incidence-list degree queries must agree with full-edge-map scans
        // for every node, and the union neighbourhood with brute force.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = 10;
        for t in [1usize, 2, 3, 5] {
            let mut w = GraphWindow::new(n, t);
            let mut cur = Graph::new(n);
            let mut pushed = Vec::new();
            for round in 0..50 {
                for _ in 0..rng.gen_range(0..5) {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    if a != b {
                        cur.toggle_edge(NodeId::new(a), NodeId::new(b));
                    }
                }
                w.push(&cur);
                pushed.push(cur.clone());
                let (_, bf_union) = fold_window(&pushed, t);
                for i in 0..n {
                    let v = NodeId::new(i);
                    assert_eq!(
                        w.union_degree(v),
                        w.union_degree_scan(v),
                        "T={t} round={round} union_degree({i})"
                    );
                    assert_eq!(
                        w.intersection_degree(v),
                        w.intersection_degree_scan(v),
                        "T={t} round={round} intersection_degree({i})"
                    );
                    let mut nbrs = w.union_neighbors(v).to_vec();
                    nbrs.sort_unstable();
                    assert_eq!(nbrs, bf_union.neighbors_vec(v), "T={t} round={round}");
                }
            }
        }
    }

    #[test]
    fn expiry_events_fire_on_empty_deltas() {
        // T = 3: the edge {0,1} is removed in round 1; it leaves the union
        // in round 3 (its last present round, 0, slides out) even though the
        // round-3 delta is empty. The edge {1,2}, inserted in round 1,
        // matures into the intersection in round 3 the same way.
        let mut w = GraphWindow::new(3, 3);
        w.push(&g(3, &[(0, 1)]));
        let mut d1 = GraphDelta::new();
        d1.remove(NodeId::new(0), NodeId::new(1));
        d1.insert(NodeId::new(1), NodeId::new(2));
        let u1 = w.push_delta(&d1);
        assert_eq!(u1.removed, vec![Edge::of(0, 1)]);
        assert_eq!(u1.inserted, vec![Edge::of(1, 2)]);
        assert!(u1.edges_left_union.is_empty());
        assert!(u1.edges_joined_intersection.is_empty());

        let u2 = w.push_delta(&GraphDelta::new());
        assert!(u2.is_empty(), "window not sliding yet: {u2:?}");

        let u3 = w.push_delta(&GraphDelta::new());
        assert_eq!(u3.edges_left_union, vec![Edge::of(0, 1)]);
        assert_eq!(u3.edges_joined_intersection, vec![Edge::of(1, 2)]);
        assert_eq!(
            u3.dirty_nodes(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert!(!w.edge_in_union(Edge::of(0, 1)));
        assert!(w.edge_in_intersection(Edge::of(1, 2)));
    }

    #[test]
    fn node_maturity_events_track_vcap() {
        // Node 2 wakes in round 1; with T = 2 it joins V^∩T in round 2.
        let mut w = GraphWindow::new(3, 2);
        let mut g0 = Graph::new_all_asleep(3);
        g0.activate(NodeId::new(0));
        let u0 = w.push(&g0);
        assert_eq!(u0.woken, vec![NodeId::new(0)]);
        assert_eq!(u0.nodes_joined_intersection, vec![NodeId::new(0)]);
        let mut d1 = GraphDelta::new();
        d1.wake(NodeId::new(2));
        let u1 = w.push_delta(&d1);
        assert_eq!(u1.woken, vec![NodeId::new(2)]);
        assert!(u1.nodes_joined_intersection.is_empty());
        assert!(!w.node_in_intersection(NodeId::new(2)));
        let u2 = w.push_delta(&GraphDelta::new());
        assert_eq!(u2.nodes_joined_intersection, vec![NodeId::new(2)]);
        assert!(w.node_in_intersection(NodeId::new(2)));
    }

    #[test]
    fn single_round_window_updates_are_immediate() {
        // T = 1: insertions mature and removals age out in the same round.
        let mut w = GraphWindow::new(3, 1);
        w.push(&g(3, &[(0, 1)]));
        let mut d = GraphDelta::new();
        d.remove(NodeId::new(0), NodeId::new(1));
        d.insert(NodeId::new(1), NodeId::new(2));
        let u = w.push_delta(&d);
        assert_eq!(u.edges_left_union, vec![Edge::of(0, 1)]);
        assert_eq!(u.edges_joined_intersection, vec![Edge::of(1, 2)]);
    }

    #[test]
    fn materialized_graphs_are_history_independent() {
        // Two windows that end up holding the same last-T rounds must
        // materialize identical graphs, regardless of the order edges
        // entered `edge_state` (initial bulk load vs. one-at-a-time in
        // reverse) and of pre-window churn that has since slid out. This
        // pins the `BTreeMap` choice for `edge_state`: with a hash map the
        // iteration in `union_graph`/`intersection_graph` would depend on
        // insertion history even when the window contents agree.
        let final_rounds = [
            g(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]),
            g(6, &[(0, 1), (1, 2), (3, 4)]),
            g(6, &[(0, 1), (1, 2), (3, 4), (2, 3)]),
        ];

        // History A: the final rounds only, edges bulk-loaded in order.
        let mut a = GraphWindow::new(6, 3);
        for r in &final_rounds {
            a.push(r);
        }

        // History B: starts from churn (edges inserted one per round, in
        // reverse order, then removed) that fully slides out of the window
        // before the final rounds arrive.
        let mut b = GraphWindow::new(6, 3);
        b.push(&g(6, &[]));
        for &(u, v) in &[(4, 5), (2, 3), (0, 1)] {
            let mut d = GraphDelta::new();
            d.insert(NodeId::new(u), NodeId::new(v));
            b.push_delta(&d);
        }
        for r in &final_rounds {
            b.push(r);
        }

        assert_eq!(a.len(), b.len());
        assert_eq!(a.union_graph().edge_vec(), b.union_graph().edge_vec());
        assert_eq!(
            a.intersection_graph().edge_vec(),
            b.intersection_graph().edge_vec()
        );
        // And the materialized order is the canonical sorted one.
        let mut expected = vec![
            Edge::of(0, 1),
            Edge::of(1, 2),
            Edge::of(2, 3),
            Edge::of(3, 4),
            Edge::of(4, 5),
        ];
        expected.sort();
        assert_eq!(a.union_graph().edge_vec(), expected);
    }
}
