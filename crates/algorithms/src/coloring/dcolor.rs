//! Algorithm 2: **DColor**, the `O(log n)`-dynamic coloring algorithm.
//!
//! DColor is started (as a fresh instance) with an input partial coloring
//! `φ`. Its communication is always restricted to the *intersection graph*
//! of all rounds since the instance started: messages from nodes that have
//! not been neighbors in every round since the start are ignored, so a newly
//! inserted edge can never create a conflict inside a running instance.
//!
//! * **Start round** (needs one communication round): broadcast the own
//!   input value, receive the neighbors' inputs, and initialize the palette
//!   `P_v = [d_j(v)+1] \ {φ_w}`.
//! * **Subsequent rounds**: uncolored nodes pick a tentative color uniformly
//!   at random from their palette and keep it if no (intersection-graph)
//!   neighbor picked or owns it; received fixed colors are removed from the
//!   palette (colors are never added back).
//!
//! Properties (Lemma 4.1): DColor is input-extending (A.1) and, w.h.p.,
//! colors all nodes within `T = O(log n)` rounds (A.2), yielding a solution
//! of the packing problem on `G^∩T` and of the covering problem on `G^∪T`.

use crate::coloring::basic::ColorMsg;
use dynnet_core::{Color, ColorOutput};
use dynnet_graph::NodeId;
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};
use rand::Rng;

/// One DColor instance at one node.
#[derive(Clone, Debug)]
pub struct DColor {
    output: ColorOutput,
    /// Color palette `P_v`; only meaningful once initialized in the start round.
    palette: Vec<Color>,
    /// Neighbors that have been present in *every* round since the instance
    /// started (the node's view of the intersection graph), sorted
    /// ascending; meaningful only once `started`. A sorted `Vec` instead of
    /// a `BTreeSet`: the set is rebuilt every round for every awake node,
    /// and the tree's per-insert allocations dominated the round kernel at
    /// large `n`.
    allowed: Vec<NodeId>,
    /// False exactly until the start round's messages have been received.
    started: bool,
    /// Double-buffer for rebuilding `allowed` while reading it.
    scratch: Vec<NodeId>,
    /// Reused per-round scratch: fixed colors heard this round.
    fixed_heard: Vec<Color>,
    /// Reused per-round scratch: tentative colors heard this round.
    tentative_heard: Vec<Color>,
    /// Tentative color chosen in the current round.
    tentative: Option<Color>,
}

impl DColor {
    /// Creates an instance for node `v` with input `φ_v` (property A.1: a
    /// decided input is never changed).
    pub fn new(_v: NodeId, input: ColorOutput) -> Self {
        DColor {
            output: input,
            palette: Vec::new(),
            allowed: Vec::new(),
            started: false,
            scratch: Vec::new(),
            fixed_heard: Vec::new(),
            tentative_heard: Vec::new(),
            tentative: None,
        }
    }

    /// The current palette (analysis/tests).
    pub fn palette(&self) -> &[Color] {
        &self.palette
    }

    /// The node's current view of its intersection-graph neighbors (sorted
    /// ascending); `None` until the start round's messages arrive.
    pub fn allowed_neighbors(&self) -> Option<&[NodeId]> {
        self.started.then_some(self.allowed.as_slice())
    }

    fn is_start_round(&self) -> bool {
        !self.started
    }
}

impl NodeAlgorithm for DColor {
    type Msg = ColorMsg;
    type Output = ColorOutput;

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> ColorMsg {
        if self.is_start_round() {
            // Start: broadcast the input value.
            self.tentative = None;
            return ColorMsg::Input(self.output);
        }
        match self.output {
            ColorOutput::Colored(c) => {
                self.tentative = None;
                ColorMsg::Fixed(c)
            }
            ColorOutput::Undecided => {
                if self.palette.is_empty() {
                    // Degenerate: an isolated node whose palette was emptied
                    // by the input neighborhood; [d+1] always contains an
                    // unused color, so this cannot happen for valid inputs —
                    // recover by extending to the next free color.
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

    fn receive(&mut self, _ctx: &mut NodeContext<'_>, inbox: &[Incoming<ColorMsg>]) {
        if self.is_start_round() {
            // Receive the neighbors' inputs; initialize the allowed set and
            // the palette P_v = [d_j(v) + 1] \ {φ_w | w ∈ N_{G_j}(v)}.
            self.allowed.clear();
            let taken = &mut self.fixed_heard;
            taken.clear();
            for (from, msg) in inbox {
                self.allowed.push(*from);
                if let ColorMsg::Input(ColorOutput::Colored(c)) = msg {
                    taken.push(*c);
                }
                // A neighbor's Fixed/Tentative message can only originate
                // from a differently-timed instance; DColor instances inside
                // Concat are aligned, so this does not occur in practice.
            }
            self.allowed.sort_unstable();
            if self.output == ColorOutput::Undecided {
                let degree = inbox.len();
                self.palette = (1..=degree + 1).filter(|c| !taken.contains(c)).collect();
            }
            self.started = true;
            return;
        }

        // A colored node never changes its output (property A.1) and its
        // palette and intersection view are never consulted again, so skip
        // the per-round view maintenance: `allowed` freezes at its
        // decision-round snapshot. In a converged steady state this makes
        // receive O(1) for almost every node.
        if self.output != ColorOutput::Undecided {
            return;
        }

        // Restrict to the intersection graph: only neighbors that have been
        // present in every round since the start are heard; the allowed set
        // shrinks to the senders that are still present.
        let fixed = &mut self.fixed_heard;
        let tentative = &mut self.tentative_heard;
        fixed.clear();
        tentative.clear();
        self.scratch.clear();
        for (from, msg) in inbox {
            if self.allowed.binary_search(from).is_err() {
                continue;
            }
            self.scratch.push(*from);
            match msg {
                ColorMsg::Fixed(c) => {
                    fixed.push(*c);
                }
                ColorMsg::Tentative(c) => {
                    tentative.push(*c);
                }
                ColorMsg::Input(ColorOutput::Colored(c)) => {
                    // An instance-start message from a neighbor whose
                    // instance is aligned: treat a decided input as fixed.
                    fixed.push(*c);
                }
                ColorMsg::Input(ColorOutput::Undecided) => {}
            }
        }
        // Senders arrive in CSR row order, which need not be ascending.
        self.scratch.sort_unstable();
        std::mem::swap(&mut self.allowed, &mut self.scratch);

        // P_v = P_v \ F_v (colors are never added back — Lemma 4.1 relies on it).
        let fixed = &self.fixed_heard;
        self.palette.retain(|c| !fixed.contains(c));

        if self.output == ColorOutput::Undecided {
            if let Some(c) = self.tentative {
                if self.palette.contains(&c) && !self.tentative_heard.contains(&c) {
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
    use dynnet_adversary::{FlipChurnAdversary, Scenario, StaticAdversary};
    use dynnet_core::HasBottom;
    use dynnet_core::{coloring::conflict_edges, verify_t_dynamic_run, ColoringProblem};
    use dynnet_graph::{generators, Graph, GraphDelta};
    use dynnet_runtime::{AllAtStart, SimConfig, Simulator, TraceRecorder};

    fn fresh(v: NodeId) -> DColor {
        DColor::new(v, ColorOutput::Undecided)
    }

    #[test]
    fn input_extending_property_a1() {
        // Nodes with a decided input never change it, whatever happens.
        let g = generators::complete(5);
        let factory = |v: NodeId| {
            if v.index() == 0 {
                DColor::new(v, ColorOutput::Colored(7))
            } else {
                fresh(v)
            }
        };
        let mut sim = Simulator::new(5, factory, AllAtStart, SimConfig::sequential(2));
        for _ in 0..30 {
            sim.step_delta(&g, &GraphDelta::new());
            assert_eq!(sim.outputs()[0], Some(ColorOutput::Colored(7)));
        }
    }

    #[test]
    fn colors_everyone_on_a_static_graph() {
        let g = generators::erdos_renyi_avg_degree(
            80,
            8.0,
            &mut dynnet_runtime::rng::experiment_rng(1, "dcolor"),
        );
        let mut recorder = TraceRecorder::new();
        Scenario::new(80)
            .algorithm(fresh)
            .adversary(StaticAdversary::new(g.clone()))
            .seed(5)
            .rounds(80)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let final_out: Vec<ColorOutput> = record
            .outputs_at(79)
            .iter()
            .map(|o| o.unwrap_or(ColorOutput::Undecided))
            .collect();
        assert!(final_out.iter().all(|o| o.is_decided()));
        assert_eq!(conflict_edges(&g, &final_out), 0);
    }

    #[test]
    fn t_dynamic_solution_under_churn() {
        // Run a single DColor instance from round 0 under churn; after
        // T rounds the output must satisfy packing on G^∩T and covering on
        // G^∪T — i.e. it is a T-dynamic solution where T is the full
        // execution length (this exercises exactly property A.2 with
        // j = T - 1 and an empty input).
        let n = 50;
        let footprint = generators::erdos_renyi_avg_degree(
            n,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(2, "dcolor-churn"),
        );
        let rounds = 70;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(fresh)
            .adversary(FlipChurnAdversary::new(&footprint, 0.02, 3))
            .seed(6)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let graphs: Vec<Graph> = record.trace.iter().collect();
        let outputs: Vec<Vec<Option<ColorOutput>>> =
            (0..rounds).map(|r| record.outputs_at(r).to_vec()).collect();
        let summary = verify_t_dynamic_run(&ColoringProblem, &graphs, &outputs, rounds, rounds - 1);
        assert!(summary.all_valid(), "{:?}", summary.invalid_rounds);
    }

    #[test]
    fn ignores_messages_from_late_edges() {
        // Nodes 0 and 1 are joined only from round 3 on; since DColor
        // restricts communication to the intersection graph since its start,
        // they may both keep color 1 without ever seeing a conflict.
        let n = 2;
        let empty = Graph::new(n);
        let joined = Graph::from_edges(n, [dynnet_graph::Edge::of(0, 1)]);
        let mut sim = Simulator::new(n, fresh, AllAtStart, SimConfig::sequential(0));
        for _ in 0..3 {
            sim.step_delta(&empty, &GraphDelta::new());
        }
        sim.step_delta(&joined, &GraphDelta::between(&empty, &joined));
        for _ in 1..10 {
            sim.step_delta(&joined, &GraphDelta::new());
        }
        assert_eq!(sim.outputs()[0], Some(ColorOutput::Colored(1)));
        assert_eq!(sim.outputs()[1], Some(ColorOutput::Colored(1)));
        // And the allowed sets stay empty: the edge appeared after the start.
        assert!(sim
            .node(NodeId::new(0))
            .unwrap()
            .allowed_neighbors()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn palette_initialized_from_input_neighborhood() {
        // Node 1 starts colored 2; node 0 must exclude 2 from its palette.
        let g = generators::path(2);
        let factory = |v: NodeId| {
            if v.index() == 1 {
                DColor::new(v, ColorOutput::Colored(2))
            } else {
                fresh(v)
            }
        };
        let mut sim = Simulator::new(2, factory, AllAtStart, SimConfig::sequential(1));
        sim.step_delta(&g, &GraphDelta::new());
        let node0 = sim.node(NodeId::new(0)).unwrap();
        assert_eq!(node0.palette(), &[1], "palette [d+1]\\{{2}} = {{1}}");
        // Within a couple more rounds node 0 takes color 1.
        let mut out = ColorOutput::Undecided;
        for _ in 0..5 {
            sim.step_delta(&g, &GraphDelta::new());
            out = sim.outputs()[0].unwrap();
        }
        assert_eq!(out, ColorOutput::Colored(1));
    }

    #[test]
    fn colors_never_exceed_union_degree_plus_one() {
        let n = 40;
        let footprint = generators::erdos_renyi_avg_degree(
            n,
            5.0,
            &mut dynnet_runtime::rng::experiment_rng(9, "dcolor-deg"),
        );
        let rounds = 60;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(fresh)
            .adversary(FlipChurnAdversary::new(&footprint, 0.05, 12))
            .seed(11)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        // The union over the whole execution bounds every legal color.
        let mut union = record.graph_at(0);
        for r in 1..rounds {
            union = union.union(&record.graph_at(r));
        }
        for (i, o) in record.outputs_at(rounds - 1).iter().enumerate() {
            if let Some(ColorOutput::Colored(c)) = o {
                assert!(*c <= union.degree(NodeId::new(i)) + 1);
            }
        }
    }
}
