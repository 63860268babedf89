//! Algorithm 5: **SMis**, the `(O(log n), α = 2)`-network-static MIS
//! algorithm — a modified, pipelined version of Ghaffari's algorithm in
//! which nodes can *leave* the MIS or the dominated set again when the
//! dynamic topology invalidates their state.
//!
//! Every node keeps a desire-level `p(v) ∈ [1/(5n), 1/2]` (initially `1/2`).
//! Per round: MIS members broadcast a mark; undecided nodes become a
//! candidate with probability `p(v)` and broadcast `(p(v), candidate?)`.
//! After receiving, an undecided node updates `p(v)` based on its effective
//! degree `δ(v) = Σ_{undecided neighbors} p(u)`, joins `D` if it was marked,
//! joins `M` if it is an unchallenged candidate; an MIS member that receives
//! a mark leaves `M`, and a dominated node that receives no mark leaves `D`.
//!
//! Properties: B.1 — the output is a valid partial solution for the current
//! graph in every round; B.2 — if a node's 2-neighborhood is static for
//! `O(log n)` rounds it is decided and never changes again (Lemma 5.6,
//! golden-round argument).

use dynnet_core::MisOutput;
use dynnet_graph::NodeId;
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};
use rand::Rng;

/// The message broadcast by SMis / Ghaffari nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GhaffariMsg {
    /// Sent by MIS members.
    Mark,
    /// Sent by undecided nodes: desire-level and whether the node is a
    /// candidate this round.
    Undecided {
        /// The sender's current desire-level `p(u)`.
        p: f64,
        /// Whether the sender became a candidate this round.
        candidate: bool,
    },
    /// Sent by dominated nodes.
    Silent,
}

/// One SMis node.
#[derive(Clone, Debug)]
pub struct SMis {
    state: MisOutput,
    /// Desire-level `p(v)`, bounded to `[1/(5n), 1/2]`.
    p: f64,
    /// Lower bound `1/(5n)`.
    p_floor: f64,
    /// Whether this node became a candidate in the current round.
    candidate: bool,
    /// Number of state changes M→U / D→U (analysis metric).
    undo_events: u64,
}

impl SMis {
    /// Creates an undecided SMis node; `n` is the global upper bound on the
    /// number of nodes (needed for the `1/(5n)` desire-level floor).
    pub fn new(_v: NodeId, n: usize) -> Self {
        SMis {
            state: MisOutput::Undecided,
            p: 0.5,
            p_floor: 1.0 / (5.0 * n.max(1) as f64),
            candidate: false,
            undo_events: 0,
        }
    }

    /// Creates a node with a given initial state (e.g. to warm-start from a
    /// previous configuration, as allowed by the algorithm's input).
    pub fn with_state(v: NodeId, n: usize, state: MisOutput) -> Self {
        let mut s = SMis::new(v, n);
        s.state = state;
        s
    }

    /// The node's current desire-level.
    pub fn desire_level(&self) -> f64 {
        self.p
    }

    /// How often the node has left `M` or `D` again.
    pub fn undo_events(&self) -> u64 {
        self.undo_events
    }
}

impl NodeAlgorithm for SMis {
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

        match self.state {
            MisOutput::Undecided => {
                // Update the desire-level from the effective degree δ(v).
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
            }
            MisOutput::InMis => {
                // Two adjacent MIS members mark each other and both step back.
                if mark_received {
                    self.state = MisOutput::Undecided;
                    self.undo_events += 1;
                }
            }
            MisOutput::Dominated => {
                // Domination lost (the dominating neighbor vanished or left M).
                if !mark_received {
                    self.state = MisOutput::Undecided;
                    self.undo_events += 1;
                }
            }
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
    use dynnet_adversary::{FlipChurnAdversary, LocallyStaticAdversary, Scenario, StaticAdversary};
    use dynnet_core::{DynamicProblem, HasBottom, MisProblem};
    use dynnet_graph::{generators, Graph, GraphDelta};
    use dynnet_runtime::{AllAtStart, SimConfig, Simulator, TraceRecorder};

    fn factory(n: usize) -> impl Fn(NodeId) -> SMis + Copy {
        move |v: NodeId| SMis::new(v, n)
    }

    #[test]
    fn every_round_is_a_valid_partial_solution_b1() {
        // Property B.1: in every round, the decided part of the output is a
        // valid partial solution of the current graph. The *packing* part
        // (no two adjacent MIS members) holds strictly. For the *covering*
        // part the provable guarantee is that every dominated node had an
        // MIS neighbor at the beginning of the round — when the adversary
        // inserts an edge between two MIS members, their dominated neighbors
        // can be orphaned for exactly one round before they notice (see the
        // robustness note on `DMis::new`). The check below therefore accepts
        // a dominator from either the current or the previous round.
        let n = 40;
        let footprint = generators::erdos_renyi_avg_degree(
            n,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(5, "smis"),
        );
        let rounds = 70;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(factory(n))
            .adversary(FlipChurnAdversary::new(&footprint, 0.08, 11))
            .seed(3)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let p = MisProblem;
        let mut orphan_rounds = 0usize;
        for r in 0..rounds {
            let g = record.graph_at(r);
            let out: Vec<MisOutput> = record
                .outputs_at(r)
                .iter()
                .map(|o| o.unwrap_or(MisOutput::Undecided))
                .collect();
            let prev: Vec<MisOutput> = if r == 0 {
                vec![MisOutput::Undecided; n]
            } else {
                record
                    .outputs_at(r - 1)
                    .iter()
                    .map(|o| o.unwrap_or(MisOutput::Undecided))
                    .collect()
            };
            for v in g.nodes() {
                // Packing: strict.
                assert!(
                    p.partial_packing_ok_at(&g, v, &out),
                    "packing part of B.1 violated at {v} in round {r}"
                );
                // Covering: current-or-previous-round dominator.
                if out[v.index()] == MisOutput::Dominated {
                    let dominated_now = p.partial_covering_ok_at(&g, v, &out);
                    let dominated_before = g.neighbors(v).any(|w| prev[w.index()].in_mis());
                    assert!(
                        dominated_now || dominated_before,
                        "covering part of B.1 violated at {v} in round {r}"
                    );
                    if !dominated_now {
                        orphan_rounds += 1;
                    }
                }
            }
        }
        // Orphaned domination must be rare (it needs an adversarial M–M edge).
        assert!(
            orphan_rounds < rounds,
            "orphaned domination should be transient"
        );
    }

    #[test]
    fn converges_to_an_mis_on_a_static_graph_and_freezes() {
        let n = 60;
        let g = generators::erdos_renyi_avg_degree(
            n,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(6, "smis-static"),
        );
        let rounds = 150;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(factory(n))
            .adversary(StaticAdversary::new(g.clone()))
            .seed(4)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let final_out: Vec<MisOutput> = record
            .outputs_at(rounds - 1)
            .iter()
            .map(|o| o.unwrap())
            .collect();
        assert!(final_out.iter().all(|o| o.is_decided()));
        assert_eq!(dynnet_core::mis::independence_violations(&g, &final_out), 0);
        assert_eq!(dynnet_core::mis::domination_violations(&g, &final_out), 0);
        // Frozen over the last third of the run.
        let reference = record.outputs_at(2 * rounds / 3);
        for r in (2 * rounds / 3)..rounds {
            assert_eq!(record.outputs_at(r), reference, "changed in round {r}");
        }
    }

    #[test]
    fn adjacent_mis_members_step_back() {
        // Force two adjacent nodes into M and check that both leave it within
        // one round and that domination repair follows.
        let g = generators::path(2);
        let factory = |v: NodeId| SMis::with_state(v, 2, MisOutput::InMis);
        let mut sim = Simulator::new(2, factory, AllAtStart, SimConfig::sequential(5));
        sim.step_delta(&g, &GraphDelta::new());
        assert_eq!(sim.outputs()[0], Some(MisOutput::Undecided));
        assert_eq!(sim.outputs()[1], Some(MisOutput::Undecided));
        assert!(sim.node(NodeId::new(0)).unwrap().undo_events() >= 1);
        // Eventually exactly one of them is in M and the other dominated.
        let mut last = (MisOutput::Undecided, MisOutput::Undecided);
        for _ in 0..50 {
            sim.step_delta(&g, &GraphDelta::new());
            last = (sim.outputs()[0].unwrap(), sim.outputs()[1].unwrap());
        }
        assert!(matches!(
            last,
            (MisOutput::InMis, MisOutput::Dominated) | (MisOutput::Dominated, MisOutput::InMis)
        ));
    }

    #[test]
    fn dominated_node_recovers_when_dominator_disappears() {
        // Node 1 dominated by node 0; remove the edge: node 1 must become
        // undecided and then (isolated) join M itself.
        let joined = generators::path(2);
        let empty = Graph::new(2);
        let factory = |v: NodeId| {
            SMis::with_state(
                v,
                2,
                if v.index() == 0 {
                    MisOutput::InMis
                } else {
                    MisOutput::Dominated
                },
            )
        };
        let mut sim = Simulator::new(2, factory, AllAtStart, SimConfig::sequential(6));
        sim.step_delta(&joined, &GraphDelta::new());
        assert_eq!(sim.outputs()[1], Some(MisOutput::Dominated));
        sim.step_delta(&empty, &GraphDelta::between(&joined, &empty));
        assert_eq!(sim.outputs()[1], Some(MisOutput::Undecided));
        for _ in 0..30 {
            sim.step_delta(&empty, &GraphDelta::new());
        }
        assert_eq!(sim.outputs()[1], Some(MisOutput::InMis));
    }

    #[test]
    fn desire_level_stays_within_bounds() {
        let n = 25;
        let g = generators::complete(n);
        let mut sim = Simulator::new(n, factory(n), AllAtStart, SimConfig::sequential(7));
        for _ in 0..60 {
            sim.step_delta(&g, &GraphDelta::new());
            for i in 0..n {
                let p = sim.node(NodeId::new(i)).unwrap().desire_level();
                assert!(p >= 1.0 / (5.0 * n as f64) - 1e-12 && p <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn locally_static_nodes_decide_and_freeze_b2() {
        let base = generators::grid(7, 7);
        let seed_node = NodeId::new(24);
        let n = 49;
        let rounds = 160;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(factory(n))
            .adversary(LocallyStaticAdversary::new(
                base,
                vec![seed_node],
                2,
                0.3,
                23,
            ))
            .seed(8)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let stable_from = 80;
        let reference = record.outputs_at(stable_from)[seed_node.index()].unwrap();
        assert!(
            reference.is_decided(),
            "protected node decided after O(log n) rounds"
        );
        for r in stable_from..rounds {
            assert_eq!(record.outputs_at(r)[seed_node.index()].unwrap(), reference);
        }
    }
}
