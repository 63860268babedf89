//! The classic (static-graph) version of Ghaffari's MIS algorithm, pipelined
//! so that every round is identical.
//!
//! This is the algorithm SMis (Algorithm 5) is derived from: the only
//! difference is that here decided nodes never become undecided again —
//! which is correct on a static graph but would violate property B.1 on a
//! dynamic one. It serves as the static baseline for experiment E7 and as a
//! reference implementation for the desire-level dynamics.

use crate::mis::smis::GhaffariMsg;
use dynnet_core::MisOutput;
use dynnet_graph::NodeId;
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};
use rand::Rng;

/// One node of the classic Ghaffari MIS algorithm.
#[derive(Clone, Debug)]
pub struct GhaffariMis {
    state: MisOutput,
    p: f64,
    p_floor: f64,
    candidate: bool,
}

impl GhaffariMis {
    /// Creates an undecided node; `n` is the global node-count upper bound.
    pub fn new(_v: NodeId, n: usize) -> Self {
        GhaffariMis {
            state: MisOutput::Undecided,
            p: 0.5,
            p_floor: 1.0 / (5.0 * n.max(1) as f64),
            candidate: false,
        }
    }

    /// The node's current desire-level.
    pub fn desire_level(&self) -> f64 {
        self.p
    }
}

impl NodeAlgorithm for GhaffariMis {
    type Msg = GhaffariMsg;
    type Output = MisOutput;

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> GhaffariMsg {
        match self.state {
            MisOutput::InMis => GhaffariMsg::Mark,
            MisOutput::Dominated => GhaffariMsg::Silent,
            MisOutput::Undecided => {
                self.candidate = ctx.rng.gen_bool(self.p);
                GhaffariMsg::Undecided {
                    p: self.p,
                    candidate: self.candidate,
                }
            }
        }
    }

    fn receive(&mut self, _ctx: &mut NodeContext<'_>, inbox: &[Incoming<GhaffariMsg>]) {
        if self.state != MisOutput::Undecided {
            return;
        }
        let mut mark_received = false;
        let mut candidate_note_received = false;
        let mut effective_degree = 0.0f64;
        for (_, msg) in inbox {
            match msg {
                GhaffariMsg::Mark => mark_received = true,
                GhaffariMsg::Undecided { p, candidate } => {
                    effective_degree += p;
                    if *candidate {
                        candidate_note_received = true;
                    }
                }
                GhaffariMsg::Silent => {}
            }
        }
        self.p = if effective_degree >= 2.0 {
            (self.p / 2.0).max(self.p_floor)
        } else {
            (2.0 * self.p).min(0.5)
        };
        if mark_received {
            self.state = MisOutput::Dominated;
        } else if self.candidate && !candidate_note_received {
            self.state = MisOutput::InMis;
        }
        self.candidate = false;
    }

    fn output(&self) -> MisOutput {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_core::mis::{domination_violations, independence_violations};
    use dynnet_core::HasBottom;
    use dynnet_graph::{generators, GraphDelta};
    use dynnet_runtime::{AllAtStart, SimConfig, Simulator};

    #[test]
    fn computes_an_mis_on_random_graphs() {
        for seed in 0..4u64 {
            let n = 80;
            let g = generators::erdos_renyi_avg_degree(
                n,
                8.0,
                &mut dynnet_runtime::rng::experiment_rng(seed, "ghaffari"),
            );
            let mut sim = Simulator::new(
                n,
                move |v: NodeId| GhaffariMis::new(v, n),
                AllAtStart,
                SimConfig::sequential(seed),
            );
            for _ in 0..120 {
                sim.step_delta(&g, &GraphDelta::new());
            }
            let out: Vec<MisOutput> = sim.outputs().iter().map(|o| o.unwrap()).collect();
            assert!(out.iter().all(|o| o.is_decided()), "seed {seed}");
            assert_eq!(independence_violations(&g, &out), 0, "seed {seed}");
            assert_eq!(domination_violations(&g, &out), 0, "seed {seed}");
        }
    }

    #[test]
    fn decided_nodes_never_revert() {
        let n = 30;
        let g = generators::complete(n);
        let mut sim = Simulator::new(
            n,
            move |v: NodeId| GhaffariMis::new(v, n),
            AllAtStart,
            SimConfig::sequential(9),
        );
        let mut prev: Vec<Option<MisOutput>> = vec![None; n];
        for _ in 0..80 {
            sim.step_delta(&g, &GraphDelta::new());
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                if let Some(s) = prev[i] {
                    if s != MisOutput::Undecided {
                        assert_eq!(sim.outputs()[i], Some(s));
                    }
                }
            }
            prev = sim.outputs().to_vec();
        }
    }

    #[test]
    fn desire_levels_decay_in_dense_graphs() {
        let n = 40;
        let g = generators::complete(n);
        let mut sim = Simulator::new(
            n,
            move |v: NodeId| GhaffariMis::new(v, n),
            AllAtStart,
            SimConfig::sequential(10),
        );
        for _ in 0..6 {
            sim.step_delta(&g, &GraphDelta::new());
        }
        // In K_40 the effective degree starts near 20, so undecided nodes
        // must have halved their desire-level several times by now.
        let some_undecided_low = (0..n).any(|i| {
            let node = sim.node(NodeId::new(i)).unwrap();
            node.output() == MisOutput::Undecided && node.desire_level() < 0.2
        });
        let all_decided =
            (0..n).all(|i| sim.node(NodeId::new(i)).unwrap().output() != MisOutput::Undecided);
        assert!(some_undecided_low || all_decided);
    }
}
