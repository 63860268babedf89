//! Node churn: nodes leaving and (re)joining the network.
//!
//! Per the paper's model a node leaving is represented by removing all its
//! incident edges while keeping it in the universe as an inactive isolated
//! node; the node set `V_r` itself only grows (wake-ups are handled by the
//! runtime's wake-up schedules).

use crate::traits::Adversary;
use dynnet_graph::{Graph, GraphDelta, NodeId};
use dynnet_runtime::rng::experiment_rng;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Each round, every present node leaves with probability `p_leave` (all its
/// edges are removed) and every absent node rejoins with probability
/// `p_join`, reacquiring its edges to present footprint neighbors.
#[derive(Clone, Debug)]
pub struct NodeChurnAdversary {
    footprint: Graph,
    p_leave: f64,
    p_join: f64,
    present: Vec<bool>,
    rng: ChaCha8Rng,
}

impl NodeChurnAdversary {
    /// Creates the adversary over `footprint`; all nodes start present.
    pub fn new(footprint: Graph, p_leave: f64, p_join: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_leave) && (0.0..=1.0).contains(&p_join));
        let n = footprint.num_nodes();
        NodeChurnAdversary {
            footprint,
            p_leave,
            p_join,
            present: vec![true; n],
            rng: experiment_rng(seed, "node-churn"),
        }
    }

    /// Which nodes are currently present (have their footprint edges).
    pub fn present(&self) -> &[bool] {
        &self.present
    }

    fn compose(&self) -> Graph {
        let mut g = Graph::new(self.footprint.num_nodes());
        for e in self.footprint.edges() {
            if self.present[e.u.index()] && self.present[e.v.index()] {
                g.insert_edge(e.u, e.v);
            }
        }
        g
    }
}

impl Adversary for NodeChurnAdversary {
    fn initial_graph(&mut self) -> Graph {
        self.compose()
    }

    /// Whole-graph reference path: composed from the present-set state,
    /// independent of `prev` (phase switches reset to this composition).
    fn next_graph(&mut self, round: u64, prev: &Graph) -> Graph {
        let _ = self.next_delta(round, prev);
        self.compose()
    }

    /// Delta-native: a leaver contributes its current incident edges as
    /// removals, a joiner its footprint edges to now-present neighbors as
    /// insertions — the graph is never re-composed. The delta is normalized,
    /// so an edge between two simultaneous joiners (recorded once per
    /// endpoint) is not double-inserted.
    fn next_delta(&mut self, _round: u64, prev: &Graph) -> GraphDelta {
        let mut left = Vec::new();
        let mut joined = Vec::new();
        for i in 0..self.present.len() {
            if self.present[i] {
                if self.rng.gen_bool(self.p_leave) {
                    self.present[i] = false;
                    left.push(NodeId::new(i));
                }
            } else if self.rng.gen_bool(self.p_join) {
                self.present[i] = true;
                joined.push(NodeId::new(i));
            }
        }
        let mut delta = GraphDelta::new();
        for &v in &left {
            for u in prev.neighbors(v) {
                delta.remove(v, u);
            }
        }
        for &v in &joined {
            for u in self.footprint.neighbors(v) {
                if self.present[u.index()] && !prev.has_edge(v, u) {
                    delta.insert(v, u);
                }
            }
        }
        delta.normalize();
        delta
    }
}

/// A growth adversary: nodes join one by one (in id order, `rate` per round)
/// and connect to their footprint neighbors that have already joined. Models
/// a network bootstrapping while the algorithm is already running.
#[derive(Clone, Debug)]
pub struct GrowthAdversary {
    footprint: Graph,
    rate: usize,
    joined: usize,
}

impl GrowthAdversary {
    /// Creates a growth adversary; `rate` nodes join per round, starting with
    /// `initial` nodes present in round 0.
    pub fn new(footprint: Graph, initial: usize, rate: usize) -> Self {
        assert!(rate >= 1);
        GrowthAdversary {
            footprint,
            rate,
            joined: initial,
        }
    }

    fn compose(&self) -> Graph {
        let mut g = Graph::new_all_asleep(self.footprint.num_nodes());
        for i in 0..self.joined.min(self.footprint.num_nodes()) {
            g.activate(NodeId::new(i));
        }
        for e in self.footprint.edges() {
            if e.u.index() < self.joined && e.v.index() < self.joined {
                g.insert_edge(e.u, e.v);
            }
        }
        g
    }
}

impl Adversary for GrowthAdversary {
    fn initial_graph(&mut self) -> Graph {
        self.compose()
    }

    /// Whole-graph reference path: composed from the joined-count state,
    /// independent of `prev` (phase switches reset to this composition).
    fn next_graph(&mut self, round: u64, prev: &Graph) -> Graph {
        let _ = self.next_delta(round, prev);
        self.compose()
    }

    /// Delta-native: the rate-many nodes joining this round wake up and
    /// bring their footprint edges to already-joined neighbors.
    fn next_delta(&mut self, _round: u64, _prev: &Graph) -> GraphDelta {
        let old = self.joined.min(self.footprint.num_nodes());
        self.joined = (self.joined + self.rate).min(self.footprint.num_nodes());
        let mut delta = GraphDelta::new();
        for i in old..self.joined {
            let v = NodeId::new(i);
            delta.wake(v);
            for u in self.footprint.neighbors(v) {
                if u.index() < self.joined {
                    delta.insert(v, u);
                }
            }
        }
        delta.normalize();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::generators;

    #[test]
    fn node_churn_edges_only_between_present_nodes() {
        let mut adv = NodeChurnAdversary::new(generators::complete(8), 0.3, 0.3, 3);
        let mut g = adv.initial_graph();
        assert_eq!(g.num_edges(), 28);
        for r in 1..20 {
            g = adv.next_graph(r, &g);
            let present = adv.present().to_vec();
            for e in g.edges() {
                assert!(present[e.u.index()] && present[e.v.index()]);
            }
        }
    }

    #[test]
    fn node_churn_extremes() {
        let mut stay = NodeChurnAdversary::new(generators::cycle(6), 0.0, 0.0, 4);
        let g0 = stay.initial_graph();
        let g1 = stay.next_graph(1, &g0);
        assert_eq!(g0.edge_vec(), g1.edge_vec());

        let mut all_leave = NodeChurnAdversary::new(generators::cycle(6), 1.0, 0.0, 4);
        let g0 = all_leave.initial_graph();
        let g1 = all_leave.next_graph(1, &g0);
        assert_eq!(g1.num_edges(), 0);
    }

    #[test]
    fn growth_adversary_adds_nodes_monotonically() {
        let mut adv = GrowthAdversary::new(generators::complete(6), 2, 2);
        let g0 = adv.initial_graph();
        assert_eq!(g0.num_edges(), 1, "K_2 among the first two nodes");
        assert_eq!(g0.num_active(), 2);
        let g1 = adv.next_graph(1, &g0);
        assert_eq!(g1.num_active(), 4);
        assert_eq!(g1.num_edges(), 6, "K_4");
        let g2 = adv.next_graph(2, &g1);
        let g3 = adv.next_graph(3, &g2);
        assert_eq!(g3.num_edges(), 15, "saturates at K_6");
    }
}
