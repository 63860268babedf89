//! Integration tests for the delta-native round pipeline.
//!
//! The pipeline's contract is: for every adversary, the incremental path
//! (adversary emits a `GraphDelta`, the runner patches one persistent
//! `Graph`, the simulator patches one persistent effective CSR) produces
//! **exactly** the execution a from-scratch reading of the same graph
//! sequence produces — same effective graph snapshot and same outputs every
//! round — while performing zero `Graph` clones and zero full CSR rebuilds
//! in steady state.

use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::runtime::{Incoming, NodeContext, ScriptedWakeup};

/// Flooding: every node outputs the maximum id heard so far. Output type is
/// `u32`, which also serves as the conflict predicate input for the adaptive
/// adversary.
#[derive(Clone)]
struct MaxFlood(u32);

impl NodeAlgorithm for MaxFlood {
    type Msg = u32;
    type Output = u32;
    fn send(&mut self, _ctx: &mut NodeContext<'_>) -> u32 {
        self.0
    }
    fn receive(&mut self, _ctx: &mut NodeContext<'_>, inbox: &[Incoming<u32>]) {
        for (_, m) in inbox {
            self.0 = self.0.max(*m);
        }
    }
    fn output(&self) -> u32 {
        self.0
    }
}

fn flood(v: NodeId) -> MaxFlood {
    MaxFlood(v.0)
}

/// Runs `rounds` rounds of the same (adversary, wake-up, seed) execution
/// twice — once on the adversary's own deltas (`next_delta` + `step_delta`,
/// incremental CSR: the runner's path) and once on the whole graph
/// sequence, each round's delta re-derived with `GraphDelta::between`.
/// After every round it asserts that
///
/// * the incremental effective CSR equals the CSR built from scratch from
///   the adversary graph over the awake nodes,
/// * both executions publish the same outputs,
/// * `StepSummary::delta` is `None` exactly in round 0 (the verifier seeds
///   from that round's view), and
/// * for oblivious adversaries (`next_graph` given), the patched graph
///   equals the adversary's whole-graph `next_graph` sequence.
fn assert_delta_path_equivalent<Adv, W>(
    name: &str,
    make_adversary: impl Fn() -> Adv,
    next_graph: Option<fn(&mut Adv, u64, &Graph) -> Graph>,
    wakeup: W,
    rounds: usize,
    parallel: bool,
) where
    Adv: OutputAdversary<u32>,
    W: WakeupSchedule + Clone,
{
    let config = SimConfig {
        seed: 11,
        parallel,
        parallel_threshold: 0,
    };

    let mut adv = make_adversary();
    let mut graph = adv.initial_graph();
    let n = graph.num_nodes();
    let mut sim = Simulator::new(n, flood, wakeup.clone(), config.clone());
    // Reference execution: whole graphs, deltas re-derived by diffing.
    let mut ref_sim = Simulator::new(n, flood, wakeup, config);
    let mut ref_prev = graph.clone();
    // Whole-graph oracle of oblivious adversaries.
    let mut oracle = make_adversary();
    let mut oracle_graph = oracle.initial_graph();
    for r in 0..rounds as u64 {
        let summary = if r == 0 {
            sim.step_delta(&graph, &GraphDelta::new())
        } else {
            let delta = adv.next_delta(r, &graph, sim.outputs());
            delta.apply(&mut graph);
            sim.step_delta(&graph, &delta)
        };
        let ref_summary = ref_sim.step_delta(&graph, &GraphDelta::between(&ref_prev, &graph));
        ref_prev.clone_from(&graph);

        assert_eq!(
            summary.delta.is_none(),
            r == 0,
            "{name}: the effective delta must be None exactly in round 0 (round {r})"
        );
        let scratch = CsrGraph::from_graph_filtered(&graph, |v| sim.is_awake(v));
        assert_eq!(
            *summary.graph, scratch,
            "{name}: incremental CSR diverged from the from-scratch CSR in round {r}"
        );
        assert_eq!(
            *ref_summary.graph, scratch,
            "{name}: re-derived-delta CSR diverged from the from-scratch CSR in round {r}"
        );
        assert_eq!(
            sim.outputs(),
            ref_sim.outputs(),
            "{name}: outputs diverged in round {r}"
        );
        if let Some(next_graph) = next_graph {
            if r > 0 {
                oracle_graph = next_graph(&mut oracle, r, &oracle_graph);
            }
            assert_eq!(
                graph, oracle_graph,
                "{name}: patched graph diverged from the next_graph sequence in round {r}"
            );
        }
    }
    // Every round after round 0 must have been served by the incremental
    // path (the adversaries in this test are sparse per round).
    let stats = sim.delta_stats();
    assert_eq!(
        stats.full_csr_builds + stats.rounds_patched,
        rounds,
        "{name}: every round is either a build or a patch"
    );
}

fn footprint(n: usize, tag: &str) -> Graph {
    generators::erdos_renyi_avg_degree(n, 5.0, &mut experiment_rng(3, tag))
}

/// Staggered wake-up over the first half of the run, plus one node that
/// wakes very late — exercises the pending-sleepers pruning on both paths.
fn late_wakeup(n: usize, rounds: usize) -> ScriptedWakeup {
    let mut rounds_per_node: Vec<u64> = (0..n).map(|i| (i as u64) % (rounds as u64 / 2)).collect();
    rounds_per_node[n - 1] = rounds as u64 - 2;
    ScriptedWakeup {
        rounds: rounds_per_node,
    }
}

#[test]
fn delta_equivalence_all_adversaries_sequential_and_parallel() {
    let n = 48;
    let rounds = 40;
    for parallel in [false, true] {
        assert_delta_path_equivalent(
            "flip-churn",
            || FlipChurnAdversary::new(&footprint(n, "flip"), 0.05, 21),
            Some(Adversary::next_graph),
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "markov-churn",
            || MarkovChurnAdversary::new(&footprint(n, "markov"), 0.2, 0.3, false, 22),
            Some(Adversary::next_graph),
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "rate-churn",
            || RateChurnAdversary::new(footprint(n, "rate"), 3, 2, 23),
            Some(Adversary::next_graph),
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "burst",
            || BurstAdversary::new(footprint(n, "burst"), 5, 3, 4, 24),
            Some(Adversary::next_graph),
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "mobility",
            || {
                MobilityAdversary::new(
                    MobilityConfig {
                        n,
                        radius: 0.25,
                        min_speed: 0.01,
                        max_speed: 0.05,
                    },
                    25,
                )
            },
            Some(Adversary::next_graph),
            AllAtStart,
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "node-churn",
            || NodeChurnAdversary::new(footprint(n, "nodes"), 0.1, 0.3, 26),
            Some(Adversary::next_graph),
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "growth",
            || GrowthAdversary::new(footprint(n, "growth"), 2, 3),
            Some(Adversary::next_graph),
            AllAtStart,
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "locally-static",
            || {
                LocallyStaticAdversary::new(
                    generators::grid(8, 6),
                    vec![NodeId::new(20)],
                    2,
                    0.3,
                    27,
                )
            },
            Some(Adversary::next_graph),
            AllAtStart,
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "static",
            || StaticAdversary::new(footprint(n, "static")),
            Some(Adversary::next_graph),
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "scripted",
            || {
                let mut flip = FlipChurnAdversary::new(&footprint(n, "script"), 0.08, 28);
                let mut trace =
                    dynnet::graph::DynamicGraphTrace::new(Adversary::initial_graph(&mut flip));
                let mut g = trace.graph_at(0);
                for r in 1..(rounds as u64 - 5) {
                    let d = Adversary::next_delta(&mut flip, r, &g);
                    d.apply(&mut g);
                    trace.push_delta(d);
                }
                ScriptedAdversary::new(trace)
            },
            Some(Adversary::next_graph),
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "phase",
            || {
                PhaseAdversary::new(vec![
                    (10, Box::new(StaticAdversary::new(footprint(n, "p0")))),
                    (
                        10,
                        Box::new(FlipChurnAdversary::new(&footprint(n, "p1"), 0.05, 29)),
                    ),
                    (10, Box::new(StaticAdversary::new(footprint(n, "p2")))),
                ])
            },
            Some(Adversary::next_graph),
            AllAtStart,
            rounds,
            parallel,
        );
        assert_delta_path_equivalent(
            "conflict-seeking",
            || {
                ConflictSeekingAdversary::new(
                    footprint(n, "adaptive"),
                    |a: &u32, b: &u32| a == b,
                    4,
                    0.03,
                    6,
                    30,
                )
            },
            None,
            late_wakeup(n, rounds),
            rounds,
            parallel,
        );
    }
}

/// A 10k-node, ~0.1%-churn-per-round scenario: in steady state the
/// incremental path performs zero full `Graph` clones and zero full CSR
/// rebuilds — round 0 is the only full build, every other round is a patch.
#[test]
fn steady_state_churn_is_all_patches_at_10k_nodes() {
    let n = 10_000;
    let rounds = 40;
    // ~4 · 10^4 footprint edges; flip probability 0.001 ⇒ ~0.1% of the
    // edges change per round.
    let fp = generators::erdos_renyi_avg_degree(n, 8.0, &mut experiment_rng(5, "steady"));
    let mut churn = ChurnStats::new();
    let runner = Scenario::new(n)
        .algorithm(flood)
        .adversary(FlipChurnAdversary::new(&fp, 0.001, 31))
        .seed(9)
        .rounds(rounds)
        .run(&mut [&mut churn]);
    let stats = runner.sim().delta_stats();
    assert_eq!(
        stats.full_csr_builds, 1,
        "only round 0 may build the CSR from scratch, got {stats:?}"
    );
    assert_eq!(stats.rounds_patched, rounds - 1, "{stats:?}");
    assert_eq!(
        stats.cow_clones, 0,
        "no observer retained a snapshot, so no copy-on-write may occur"
    );
    assert_eq!(churn.series().len(), rounds);
}

/// An observer that retains the round's snapshot `Arc` forces exactly one
/// copy-on-write clone per retained round — and the execution stays correct.
#[test]
fn retained_snapshots_trigger_copy_on_write() {
    struct Retainer {
        kept: Vec<std::sync::Arc<CsrGraph>>,
    }
    impl RoundObserver<u32> for Retainer {
        fn on_round(&mut self, view: &RoundView<'_, u32>) {
            if view.round.is_multiple_of(2) {
                self.kept.push(std::sync::Arc::clone(view.graph));
            }
        }
    }
    let n = 32;
    let fp = footprint(n, "cow");
    let mut retainer = Retainer { kept: Vec::new() };
    let runner = Scenario::new(n)
        .algorithm(flood)
        .adversary(FlipChurnAdversary::new(&fp, 0.05, 33))
        .rounds(20)
        .run(&mut [&mut retainer]);
    let stats = runner.sim().delta_stats();
    assert!(stats.cow_clones > 0, "retention must force CoW: {stats:?}");
    // Retained snapshots stay frozen at their round: each must equal the
    // CSR rebuilt from its own recorded edge set (internal consistency).
    for csr in &retainer.kept {
        assert_eq!(**csr, CsrGraph::from_graph(&csr.to_graph()));
    }
}

/// The trace a `TraceRecorder` assembles from handed deltas reconstructs
/// exactly the per-round effective graphs of the whole-graph path.
#[test]
fn recorded_delta_trace_matches_whole_graph_replay() {
    let n = 40;
    let rounds = 25;
    let fp = footprint(n, "trace");
    let wake = late_wakeup(n, rounds);

    let mut recorder = TraceRecorder::new();
    Scenario::new(n)
        .algorithm(flood)
        .adversary(MarkovChurnAdversary::new(&fp, 0.3, 0.2, true, 41))
        .wakeup(wake.clone())
        .seed(2)
        .rounds(rounds)
        .run(&mut [&mut recorder]);
    let record = recorder.into_record();

    // Reference: the same execution on the adversary's whole graphs
    // (`next_graph`), each round's delta re-derived by diffing.
    let mut sim = Simulator::new(n, flood, wake, SimConfig::sequential(2));
    let mut adv = MarkovChurnAdversary::new(&fp, 0.3, 0.2, true, 41);
    let mut prev = Adversary::initial_graph(&mut adv);
    let mut graphs = Vec::new();
    let mut outputs = Vec::new();
    for r in 0..rounds as u64 {
        let summary = if r == 0 {
            sim.step_delta(&prev, &GraphDelta::new())
        } else {
            let next = adv.next_graph(r, &prev);
            let summary = sim.step_delta(&next, &GraphDelta::between(&prev, &next));
            prev = next;
            summary
        };
        graphs.push(summary.graph.to_graph());
        outputs.push(sim.outputs().to_vec());
    }

    assert_eq!(record.num_rounds(), rounds);
    for r in 0..rounds {
        assert_eq!(
            record.graph_at(r),
            graphs[r],
            "effective graph of round {r}"
        );
        assert_eq!(record.outputs_at(r), &outputs[r][..], "round {r}");
    }
}
