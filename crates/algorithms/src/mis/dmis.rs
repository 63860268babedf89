//! Algorithm 4: **DMis**, the `O(log n)`-dynamic MIS algorithm (a pipelined
//! Luby variant restricted to the intersection graph).
//!
//! A DMis instance is started with an input configuration `(M, D)` — an
//! independent set plus nodes it dominates — and extends it: nodes never
//! leave `M` or `D` (property A.1). All communication is restricted to the
//! intersection graph of the rounds since the instance started, so edges
//! inserted later can never invalidate the independence of `M` on `G^∩T`
//! (Lemma 5.1, shown deterministically). W.h.p. every node is decided within
//! `T = O(log n)` rounds (Lemma 5.4), which requires a 2-oblivious adversary
//! (Lemma 5.2's remark); see experiment E9 for what an adaptive adversary
//! does to the *running time* (correctness of `M`'s independence is never
//! affected).

use crate::mis::luby::LubyMsg;
use dynnet_core::MisOutput;
use dynnet_graph::NodeId;
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};
use rand::Rng;

/// One DMis instance at one node.
#[derive(Clone, Debug)]
pub struct DMis {
    state: MisOutput,
    /// Neighbors present in every round since the instance started (the
    /// node's view of the intersection graph), sorted ascending; meaningful
    /// only once `started`. A sorted `Vec` instead of a `BTreeSet`: the set
    /// is rebuilt every round for every awake node, and the tree's
    /// per-insert allocations dominated the round kernel at large `n` —
    /// binary-search membership plus a reused double-buffer does the same
    /// job with zero steady-state allocation.
    allowed: Vec<NodeId>,
    /// False exactly until the first round's messages arrive (where everyone
    /// is accepted: `G^{1∩} = G_j`).
    started: bool,
    /// Double-buffer for rebuilding `allowed` while reading it.
    scratch: Vec<NodeId>,
    /// The random number drawn this round (undecided nodes only).
    drawn: Option<f64>,
    /// True while a `Dominated` *input* still has to be re-confirmed by a
    /// mark in the instance's first round (see the robustness note below).
    dominated_unconfirmed: bool,
}

impl DMis {
    /// Creates an instance for node `v` with input state `input`
    /// (`Undecided`, `InMis`, or `Dominated`).
    ///
    /// **Robustness note (documented deviation).** The paper assumes the
    /// input `(M, D)` is a partial solution of the graph one round before
    /// the instance starts; the SMis output can, for exactly one round,
    /// contain a dominated node whose dominators all left `M` in the same
    /// round (possible only when the adversary inserts an edge between two
    /// `M` nodes). To keep the combined algorithm's covering guarantee
    /// airtight, a node whose *input* is `Dominated` re-confirms its
    /// domination in the instance's first round: if it receives no mark it
    /// downgrades itself to `Undecided` and participates normally. In a
    /// locally static neighborhood the dominator is present and marks the
    /// node, so the downgrade never fires there and the locally-static
    /// stability of Theorem 1.1 is unaffected. See DESIGN.md §"Deviations".
    pub fn new(_v: NodeId, input: MisOutput) -> Self {
        DMis {
            state: input,
            allowed: Vec::new(),
            started: false,
            scratch: Vec::new(),
            drawn: None,
            dominated_unconfirmed: input == MisOutput::Dominated,
        }
    }

    /// The node's current view of its intersection-graph neighborhood
    /// (sorted ascending); `None` before the first round's messages arrive.
    pub fn allowed_neighbors(&self) -> Option<&[NodeId]> {
        self.started.then_some(self.allowed.as_slice())
    }
}

impl NodeAlgorithm for DMis {
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
        // A decided node's state is final (nodes never leave `M` or `D` —
        // property A.1) and its intersection view is never consulted again,
        // so skip the per-round view maintenance: `allowed` freezes at its
        // decision-round snapshot. In a converged steady state this makes
        // receive O(1) for almost every node.
        if self.started && self.state != MisOutput::Undecided && !self.dominated_unconfirmed {
            return;
        }

        // Restrict to the intersection graph since the instance's start: the
        // first round accepts everyone (G^{1∩} = G_j), afterwards only nodes
        // that have been neighbors in every round so far.
        self.scratch.clear();
        let mut marked = false;
        let mut min_neighbor = f64::INFINITY;
        for (from, msg) in inbox {
            if self.started && self.allowed.binary_search(from).is_err() {
                continue;
            }
            self.scratch.push(*from);
            match msg {
                LubyMsg::Mark => marked = true,
                LubyMsg::Number(x) => min_neighbor = min_neighbor.min(*x),
                LubyMsg::Silent => {}
            }
        }
        // Senders arrive in CSR row order, which need not be ascending.
        self.scratch.sort_unstable();
        std::mem::swap(&mut self.allowed, &mut self.scratch);
        self.started = true;

        if self.dominated_unconfirmed {
            // First round of an instance started with a `Dominated` input:
            // without a confirming mark the domination is stale, so the node
            // rejoins the undecided pool (see the robustness note on `new`).
            self.dominated_unconfirmed = false;
            if !marked && self.state == MisOutput::Dominated {
                self.state = MisOutput::Undecided;
            }
            if self.state == MisOutput::Dominated {
                return;
            }
        }

        if self.state == MisOutput::Undecided {
            if marked {
                self.state = MisOutput::Dominated;
            } else if let Some(mine) = self.drawn {
                if mine < min_neighbor {
                    self.state = MisOutput::InMis;
                }
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
    use dynnet_adversary::{FlipChurnAdversary, Scenario, StaticAdversary};
    use dynnet_core::mis::{domination_violations, independence_violations};
    use dynnet_core::{verify_t_dynamic_run, HasBottom, MisProblem};
    use dynnet_graph::{generators, Graph, GraphDelta};
    use dynnet_runtime::{AllAtStart, SimConfig, Simulator, TraceRecorder};

    fn fresh(v: NodeId) -> DMis {
        DMis::new(v, MisOutput::Undecided)
    }

    #[test]
    fn input_extending_property_a1() {
        let g = generators::complete(6);
        let factory = |v: NodeId| match v.index() {
            0 => DMis::new(v, MisOutput::InMis),
            1 => DMis::new(v, MisOutput::Dominated),
            _ => fresh(v),
        };
        let mut sim = Simulator::new(6, factory, AllAtStart, SimConfig::sequential(1));
        for _ in 0..25 {
            sim.step_delta(&g, &GraphDelta::new());
            assert_eq!(sim.outputs()[0], Some(MisOutput::InMis));
            assert_eq!(sim.outputs()[1], Some(MisOutput::Dominated));
        }
    }

    #[test]
    fn computes_an_mis_on_a_static_graph() {
        let g = generators::erdos_renyi_avg_degree(
            70,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(2, "dmis"),
        );
        let mut recorder = TraceRecorder::new();
        Scenario::new(70)
            .algorithm(fresh)
            .adversary(StaticAdversary::new(g.clone()))
            .seed(2)
            .rounds(80)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let out: Vec<MisOutput> = record.outputs_at(79).iter().map(|o| o.unwrap()).collect();
        assert!(out.iter().all(|o| o.is_decided()));
        assert_eq!(independence_violations(&g, &out), 0);
        assert_eq!(domination_violations(&g, &out), 0);
    }

    #[test]
    fn t_dynamic_solution_under_oblivious_churn() {
        let n = 50;
        let footprint = generators::erdos_renyi_avg_degree(
            n,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(3, "dmis-churn"),
        );
        let rounds = 80;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(fresh)
            .adversary(FlipChurnAdversary::new(&footprint, 0.02, 7))
            .seed(4)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let graphs: Vec<Graph> = record.trace.iter().collect();
        let outputs: Vec<Vec<Option<MisOutput>>> =
            (0..rounds).map(|r| record.outputs_at(r).to_vec()).collect();
        let summary = verify_t_dynamic_run(&MisProblem, &graphs, &outputs, rounds, rounds - 1);
        assert!(summary.all_valid(), "{:?}", summary.invalid_rounds);
    }

    #[test]
    fn independence_on_persistent_edges_is_deterministic() {
        // Even if the adversary is wildly dynamic, two nodes joined by an
        // edge present since the instance start can never both be in M.
        let n = 30;
        let footprint = generators::complete(n);
        let rounds = 40;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(fresh)
            .adversary(FlipChurnAdversary::new(&footprint, 0.3, 8))
            .seed(5)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        // Intersection over the whole run.
        let mut inter = record.graph_at(0);
        for r in 1..rounds {
            inter = inter.intersection(&record.graph_at(r));
        }
        let out: Vec<MisOutput> = record
            .outputs_at(rounds - 1)
            .iter()
            .map(|o| o.unwrap())
            .collect();
        assert_eq!(independence_violations(&inter, &out), 0);
    }

    #[test]
    fn late_edges_are_ignored() {
        // Two nodes that become adjacent after the start can both be in M —
        // the intersection-graph restriction ignores the new edge.
        let n = 2;
        let empty = Graph::new(n);
        let joined = generators::path(2);
        let mut sim = Simulator::new(n, fresh, AllAtStart, SimConfig::sequential(6));
        sim.step_delta(&empty, &GraphDelta::new());
        assert_eq!(sim.outputs()[0], Some(MisOutput::InMis));
        assert_eq!(sim.outputs()[1], Some(MisOutput::InMis));
        sim.step_delta(&joined, &GraphDelta::between(&empty, &joined));
        for _ in 1..5 {
            sim.step_delta(&joined, &GraphDelta::new());
        }
        assert_eq!(sim.outputs()[0], Some(MisOutput::InMis));
        assert_eq!(sim.outputs()[1], Some(MisOutput::InMis));
        assert!(sim
            .node(NodeId::new(0))
            .unwrap()
            .allowed_neighbors()
            .unwrap()
            .is_empty());
    }
}
