//! Algorithm 3: **SColor**, the `(O(log n), α = 2)`-network-static coloring
//! algorithm.
//!
//! SColor runs forever on the *current* graph `G_r`. It differs from the
//! basic static algorithm in one crucial way: a colored node *uncolors
//! itself* whenever its color stops being valid — because a neighbor with
//! the same color appeared or because its degree dropped below its color.
//! This gives property B.1 (the output is a valid partial solution for `G_r`
//! in every round); if a node's 2-neighborhood stays static for `O(log n)`
//! rounds the node gets colored and keeps its color (property B.2,
//! Lemma 4.5).

use crate::coloring::basic::ColorMsg;
use dynnet_core::{Color, ColorOutput};
use dynnet_graph::NodeId;
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};
use rand::Rng;
use std::collections::BTreeSet;

/// One SColor node.
#[derive(Clone, Debug)]
pub struct SColor {
    output: ColorOutput,
    /// Color palette `P_v` (starts as `{1}`, recomputed every round).
    palette: Vec<Color>,
    /// Tentative color chosen in the current round.
    tentative: Option<Color>,
    /// Number of times this node has uncolored itself (analysis metric).
    uncolor_events: u64,
}

impl SColor {
    /// Creates an uncolored SColor node.
    pub fn new(_v: NodeId) -> Self {
        SColor {
            output: ColorOutput::Undecided,
            palette: vec![1],
            tentative: None,
            uncolor_events: 0,
        }
    }

    /// The current palette.
    pub fn palette(&self) -> &[Color] {
        &self.palette
    }

    /// How often the node has uncolored itself so far.
    pub fn uncolor_events(&self) -> u64 {
        self.uncolor_events
    }
}

impl NodeAlgorithm for SColor {
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
        // P_v = [d_r(v) + 1] \ F_v — unlike DColor, colors may re-enter.
        let degree = ctx.degree();
        self.palette = (1..=degree + 1).filter(|c| !fixed.contains(c)).collect();

        match self.output {
            ColorOutput::Undecided => {
                if let Some(c) = self.tentative {
                    if self.palette.contains(&c) && !tentative.contains(&c) {
                        self.output = ColorOutput::Colored(c);
                    }
                }
            }
            ColorOutput::Colored(c) => {
                // Potential uncoloring: the color must still be in the
                // palette, i.e. within [d_r(v)+1] and not owned by a
                // neighbor.
                if !self.palette.contains(&c) {
                    self.output = ColorOutput::Undecided;
                    self.uncolor_events += 1;
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
    use dynnet_adversary::{FlipChurnAdversary, LocallyStaticAdversary, Scenario, StaticAdversary};
    use dynnet_core::{ColoringProblem, DynamicProblem, HasBottom};
    use dynnet_graph::{generators, Graph, GraphDelta};
    use dynnet_runtime::{AllAtStart, SimConfig, Simulator, TraceRecorder};

    #[test]
    fn every_round_is_a_valid_partial_solution_b1() {
        // Property B.1 must hold in *every* round, under arbitrary churn.
        let n = 40;
        let footprint = generators::erdos_renyi_avg_degree(
            n,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(4, "scolor"),
        );
        let rounds = 60;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(SColor::new)
            .adversary(FlipChurnAdversary::new(&footprint, 0.08, 21))
            .seed(8)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let p = ColoringProblem;
        for r in 0..rounds {
            let g = record.graph_at(r);
            let out: Vec<ColorOutput> = record
                .outputs_at(r)
                .iter()
                .map(|o| o.unwrap_or(ColorOutput::Undecided))
                .collect();
            let nodes: Vec<NodeId> = g.nodes().collect();
            assert!(
                p.is_partial_solution(&g, &out, &nodes),
                "B.1 violated in round {r}"
            );
        }
    }

    #[test]
    fn converges_and_stays_fixed_on_a_static_graph() {
        let g = generators::erdos_renyi_avg_degree(
            60,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(5, "scolor-static"),
        );
        let rounds = 100;
        let mut recorder = TraceRecorder::new();
        Scenario::new(60)
            .algorithm(SColor::new)
            .adversary(StaticAdversary::new(g.clone()))
            .seed(9)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        // Everyone colored at the end…
        let final_out = record.outputs_at(rounds - 1);
        assert!(final_out.iter().all(|o| o.unwrap().is_decided()));
        // …and nobody changes output in the second half of the run.
        for r in (rounds / 2)..rounds {
            assert_eq!(
                record.outputs_at(r),
                final_out,
                "output changed in round {r}"
            );
        }
    }

    #[test]
    fn uncolors_on_conflict_and_recovers() {
        // Two nodes colored identically become adjacent: both must drop the
        // color at the end of that round (B.1) and then re-color properly.
        let n = 2;
        let empty = Graph::new(n);
        let joined = generators::path(2);
        let mut sim = Simulator::new(n, SColor::new, AllAtStart, SimConfig::sequential(13));
        // Run isolated until both are colored (necessarily color 1).
        for _ in 0..3 {
            sim.step_delta(&empty, &GraphDelta::new());
        }
        assert_eq!(sim.outputs()[0], Some(ColorOutput::Colored(1)));
        assert_eq!(sim.outputs()[1], Some(ColorOutput::Colored(1)));
        // Join them: in the round the edge appears both see the conflict and uncolor.
        sim.step_delta(&joined, &GraphDelta::between(&empty, &joined));
        let c0 = sim.outputs()[0].unwrap();
        let c1 = sim.outputs()[1].unwrap();
        assert!(
            c0.is_bottom() && c1.is_bottom(),
            "both uncolor on a same-color conflict: {c0:?} {c1:?}"
        );
        // Within O(log n) rounds they settle on different colors.
        let mut last = (c0, c1);
        for _ in 0..30 {
            sim.step_delta(&joined, &GraphDelta::new());
            last = (sim.outputs()[0].unwrap(), sim.outputs()[1].unwrap());
        }
        assert!(last.0.is_decided() && last.1.is_decided());
        assert_ne!(last.0, last.1);
        assert!(sim.node(NodeId::new(0)).unwrap().uncolor_events() >= 1);
    }

    #[test]
    fn locally_static_nodes_keep_their_color_b2() {
        // Protect the 2-neighborhood of a seed node; churn the rest heavily.
        let base = generators::grid(7, 7);
        let seed_node = NodeId::new(24);
        let rounds = 120;
        let mut recorder = TraceRecorder::new();
        Scenario::new(49)
            .algorithm(SColor::new)
            .adversary(LocallyStaticAdversary::new(
                base.clone(),
                vec![seed_node],
                2,
                0.3,
                17,
            ))
            .seed(19)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        // After a logarithmic prefix the protected node must be colored and
        // never change again.
        let stable_from = 60;
        let reference = record.outputs_at(stable_from)[seed_node.index()].unwrap();
        assert!(reference.is_decided());
        for r in stable_from..rounds {
            assert_eq!(
                record.outputs_at(r)[seed_node.index()].unwrap(),
                reference,
                "protected node changed output in round {r}"
            );
        }
    }

    #[test]
    fn degree_drop_forces_uncoloring() {
        // A node colored with color 3 (legal at degree 2) must uncolor when
        // its degree drops to 0 (palette becomes {1}).
        let star = generators::star(3); // center 0 with neighbors 1, 2
        let empty = Graph::new(3);
        let p = ColoringProblem;
        let mut sim = Simulator::new(3, SColor::new, AllAtStart, SimConfig::sequential(23));
        let mut colored_center = ColorOutput::Undecided;
        for _ in 0..40 {
            sim.step_delta(&star, &GraphDelta::new());
            colored_center = sim.outputs()[0].unwrap();
            if colored_center.is_decided() {
                break;
            }
        }
        assert!(colored_center.is_decided());
        // Now isolate the center; within one round its color must be ≤ 1.
        sim.step_delta(&empty, &GraphDelta::between(&star, &empty));
        let out: Vec<ColorOutput> = sim.outputs().iter().map(|o| o.unwrap()).collect();
        assert!(p.partial_covering_ok_at(&empty, NodeId::new(0), &out));
    }
}
