//! The pipelined variant of Luby's classic MIS algorithm for static graphs
//! (Section 5.1 describes DMis as a modification of it).
//!
//! In every round each undecided node draws a uniform random number and
//! broadcasts it; MIS members broadcast a mark. An undecided node that
//! receives a mark becomes dominated; an undecided node whose number is
//! strictly smaller than all numbers received from undecided neighbors joins
//! the MIS. All rounds are identical, so the algorithm works under
//! asynchronous wake-up.

use dynnet_core::MisOutput;
use dynnet_graph::NodeId;
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};
use rand::Rng;

/// The message broadcast by nodes of the MIS algorithms based on Luby.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LubyMsg {
    /// Sent by MIS members.
    Mark,
    /// Sent by undecided nodes: their random value of this round.
    Number(f64),
    /// Sent by dominated nodes (carries no information).
    Silent,
}

/// Pipelined Luby MIS for static graphs.
#[derive(Clone, Debug)]
pub struct LubyMis {
    state: MisOutput,
    /// The random number drawn in the current round (undecided nodes only).
    drawn: Option<f64>,
}

impl LubyMis {
    /// Creates an undecided node.
    pub fn new(_v: NodeId) -> Self {
        LubyMis {
            state: MisOutput::Undecided,
            drawn: None,
        }
    }

    /// Creates a node with a given initial state (used by tests and by the
    /// restart baseline to warm-start from a previous solution).
    pub fn with_state(_v: NodeId, state: MisOutput) -> Self {
        LubyMis { state, drawn: None }
    }
}

impl NodeAlgorithm for LubyMis {
    type Msg = LubyMsg;
    type Output = MisOutput;

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> LubyMsg {
        match self.state {
            MisOutput::InMis => LubyMsg::Mark,
            MisOutput::Dominated => LubyMsg::Silent,
            MisOutput::Undecided => {
                let x: f64 = ctx.rng.gen();
                self.drawn = Some(x);
                LubyMsg::Number(x)
            }
        }
    }

    fn receive(&mut self, _ctx: &mut NodeContext<'_>, inbox: &[Incoming<LubyMsg>]) {
        if self.state != MisOutput::Undecided {
            return;
        }
        let mut marked = false;
        let mut min_neighbor = f64::INFINITY;
        for (_, msg) in inbox {
            match msg {
                LubyMsg::Mark => marked = true,
                LubyMsg::Number(x) => min_neighbor = min_neighbor.min(*x),
                LubyMsg::Silent => {}
            }
        }
        if marked {
            self.state = MisOutput::Dominated;
        } else if let Some(mine) = self.drawn {
            if mine < min_neighbor {
                self.state = MisOutput::InMis;
            }
        }
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
    fn isolated_node_joins_the_mis() {
        let g = dynnet_graph::Graph::new(1);
        let mut sim = Simulator::new(1, LubyMis::new, AllAtStart, SimConfig::sequential(0));
        sim.step_delta(&g, &GraphDelta::new());
        assert_eq!(sim.outputs()[0], Some(MisOutput::InMis));
    }

    #[test]
    fn computes_an_mis_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generators::erdos_renyi_avg_degree(
                70,
                7.0,
                &mut dynnet_runtime::rng::experiment_rng(seed, "luby"),
            );
            let mut sim = Simulator::new(70, LubyMis::new, AllAtStart, SimConfig::sequential(seed));
            for _ in 0..80 {
                sim.step_delta(&g, &GraphDelta::new());
            }
            let out: Vec<MisOutput> = sim.outputs().iter().map(|o| o.unwrap()).collect();
            assert!(out.iter().all(|o| o.is_decided()), "seed {seed}");
            assert_eq!(independence_violations(&g, &out), 0, "seed {seed}");
            assert_eq!(domination_violations(&g, &out), 0, "seed {seed}");
        }
    }

    #[test]
    fn decided_nodes_never_change() {
        let g = generators::cycle(15);
        let mut sim = Simulator::new(15, LubyMis::new, AllAtStart, SimConfig::sequential(1));
        let mut prev: Vec<Option<MisOutput>> = vec![None; 15];
        for _ in 0..40 {
            sim.step_delta(&g, &GraphDelta::new());
            #[allow(clippy::needless_range_loop)]
            for i in 0..15 {
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
    fn with_state_preserves_initial_configuration() {
        let g = generators::path(3);
        let factory = |v: NodeId| {
            LubyMis::with_state(
                v,
                if v.index() == 0 {
                    MisOutput::InMis
                } else {
                    MisOutput::Undecided
                },
            )
        };
        let mut sim = Simulator::new(3, factory, AllAtStart, SimConfig::sequential(2));
        for _ in 0..15 {
            sim.step_delta(&g, &GraphDelta::new());
        }
        assert_eq!(sim.outputs()[0], Some(MisOutput::InMis));
        assert_eq!(sim.outputs()[1], Some(MisOutput::Dominated));
    }
}
