//! Algorithm 6: the basic randomized (degree+1)-coloring algorithm for
//! static graphs, in the paper's *pipelined* form where every round is
//! identical (so it also works with asynchronous wake-up).
//!
//! Per round, an uncolored node picks a tentative color uniformly at random
//! from its palette and keeps it permanently if no neighbor picked or owns
//! the same color; the palette is recomputed as `[d(v)+1]` minus the
//! neighbors' fixed colors. Lemma 6.2: all nodes are colored within
//! `O(log n)` rounds w.h.p.

use dynnet_core::{Color, ColorOutput};
use dynnet_graph::NodeId;
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};
use rand::Rng;
use std::collections::BTreeSet;

/// The message broadcast by a node running one of the coloring algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorMsg {
    /// The sender's permanently chosen color.
    Fixed(Color),
    /// The sender's tentative color for this round.
    Tentative(Color),
    /// The sender's input value in an instance's start round (used by DColor).
    Input(ColorOutput),
}

/// Algorithm 6 (pipelined basic coloring) as a per-node algorithm.
#[derive(Clone, Debug)]
pub struct BasicColoring {
    output: ColorOutput,
    /// Color palette `P_v` (kept sorted for deterministic sampling).
    palette: Vec<Color>,
    /// Tentative color chosen in the current round's send phase.
    tentative: Option<Color>,
}

impl BasicColoring {
    /// Creates an uncolored node with the initial palette `{1}`.
    pub fn new(_v: NodeId) -> Self {
        BasicColoring {
            output: ColorOutput::Undecided,
            palette: vec![1],
            tentative: None,
        }
    }

    /// The current palette (for tests and analysis).
    pub fn palette(&self) -> &[Color] {
        &self.palette
    }
}

impl NodeAlgorithm for BasicColoring {
    type Msg = ColorMsg;
    type Output = ColorOutput;

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> ColorMsg {
        match self.output {
            ColorOutput::Colored(c) => {
                self.tentative = None;
                ColorMsg::Fixed(c)
            }
            ColorOutput::Undecided => {
                if self.palette.is_empty() {
                    // Cannot happen for valid inputs (the [d+1] palette loses
                    // at most d colors before the node decides); recover by
                    // extending the palette rather than panicking mid-round.
                    self.palette.push(1);
                }
                // Same draw sequence as `SliceRandom::choose` on a non-empty
                // slice, without the unreachable `None` arm.
                let c = self.palette[ctx.rng.gen_range(0..self.palette.len())];
                self.tentative = Some(c);
                ColorMsg::Tentative(c)
            }
        }
    }

    fn receive(&mut self, ctx: &mut NodeContext<'_>, inbox: &[Incoming<ColorMsg>]) {
        let mut fixed: BTreeSet<Color> = BTreeSet::new();
        let mut tentative: BTreeSet<Color> = BTreeSet::new();
        for (_, msg) in inbox {
            match msg {
                ColorMsg::Fixed(c) => {
                    fixed.insert(*c);
                }
                ColorMsg::Tentative(c) => {
                    tentative.insert(*c);
                }
                ColorMsg::Input(_) => {}
            }
        }
        // P_v = [d(v) + 1] \ F_v.
        let degree = ctx.degree();
        self.palette = (1..=degree + 1).filter(|c| !fixed.contains(c)).collect();
        if self.output == ColorOutput::Undecided {
            if let Some(c) = self.tentative {
                if self.palette.contains(&c) && !tentative.contains(&c) {
                    self.output = ColorOutput::Colored(c);
                }
            }
        }
    }

    fn output(&self) -> ColorOutput {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_adversary::{Scenario, StaticAdversary};
    use dynnet_core::{coloring::conflict_edges, ColoringProblem, DynamicProblem, HasBottom};
    use dynnet_graph::{generators, Graph, GraphDelta};
    use dynnet_runtime::{AllAtStart, SimConfig, Simulator};

    fn run_basic(g: &Graph, rounds: usize, seed: u64) -> Vec<ColorOutput> {
        let runner = Scenario::new(g.num_nodes())
            .algorithm(BasicColoring::new)
            .adversary(StaticAdversary::new(g.clone()))
            .seed(seed)
            .rounds(rounds)
            .run(&mut []);
        runner
            .outputs()
            .iter()
            .map(|o| o.unwrap_or(ColorOutput::Undecided))
            .collect()
    }

    #[test]
    fn colors_a_single_node_immediately() {
        let g = Graph::new(1);
        let out = run_basic(&g, 1, 0);
        assert_eq!(out[0], ColorOutput::Colored(1));
    }

    #[test]
    fn produces_a_proper_degree_plus_one_coloring_on_a_cycle() {
        let g = generators::cycle(20);
        let out = run_basic(&g, 60, 1);
        let p = ColoringProblem;
        assert!(
            out.iter().all(|o| o.is_decided()),
            "all colored after O(log n) rounds"
        );
        assert_eq!(conflict_edges(&g, &out), 0);
        for v in g.nodes() {
            assert!(
                p.covering_solution_ok_at(&g, v, &out),
                "color within degree+1 at {v}"
            );
        }
    }

    #[test]
    fn produces_proper_coloring_on_random_graphs_for_multiple_seeds() {
        for seed in 0..5u64 {
            let g = generators::erdos_renyi_avg_degree(
                60,
                6.0,
                &mut dynnet_runtime::rng::experiment_rng(seed, "basic-col"),
            );
            let out = run_basic(&g, 80, seed);
            assert!(out.iter().all(|o| o.is_decided()), "seed {seed}");
            assert_eq!(conflict_edges(&g, &out), 0, "seed {seed}");
        }
    }

    #[test]
    fn colored_nodes_never_change_color() {
        let g = generators::complete(8);
        let mut sim = Simulator::new(8, BasicColoring::new, AllAtStart, SimConfig::sequential(3));
        let mut last: Vec<Option<ColorOutput>> = vec![None; 8];
        for _ in 0..40 {
            sim.step_delta(&g, &GraphDelta::new());
            #[allow(clippy::needless_range_loop)]
            for i in 0..8 {
                if let Some(ColorOutput::Colored(c)) = last[i] {
                    assert_eq!(
                        sim.outputs()[i],
                        Some(ColorOutput::Colored(c)),
                        "node {i} changed color"
                    );
                }
            }
            last = sim.outputs().to_vec();
        }
        assert!(last
            .iter()
            .all(|o| matches!(o, Some(ColorOutput::Colored(_)))));
    }

    #[test]
    fn palette_never_empty_while_uncolored() {
        let g = generators::complete(6);
        let mut sim = Simulator::new(6, BasicColoring::new, AllAtStart, SimConfig::sequential(7));
        for _ in 0..30 {
            sim.step_delta(&g, &GraphDelta::new());
            for i in 0..6 {
                let node = sim.node(NodeId::new(i)).unwrap();
                if node.output() == ColorOutput::Undecided {
                    assert!(!node.palette().is_empty());
                }
            }
        }
    }
}
