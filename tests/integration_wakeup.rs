//! Integration tests for asynchronous wake-up (Section 2 / Section 7.2):
//! all algorithms use a single uniform round type, so nodes may join the
//! execution at arbitrary times without a shared round counter — driven
//! through the `Scenario` API with streaming observers.

use dynnet::core::coloring::conflict_edges;
use dynnet::core::mis::{domination_violations, independence_violations};
use dynnet::graph::codec::read_trace;
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::runtime::{DeltaLogRecorder, ScriptedWakeup, TraceRecorder};

#[test]
fn staggered_wakeup_still_yields_a_proper_coloring() {
    let n = 36;
    let window = recommended_window(n);
    let g = generators::grid(6, 6);
    let rounds = 6 * window;
    let runner = Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(StaticAdversary::new(g.clone()))
        .wakeup(Staggered {
            stride: 2,
            max_round: (2 * window) as u64,
        })
        .seed(1)
        .rounds(rounds)
        .run(&mut []);
    let out: Vec<ColorOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(ColorOutput::Undecided))
        .collect();
    assert!(
        out.iter().all(|o| o.is_decided()),
        "everyone eventually colored"
    );
    assert_eq!(conflict_edges(&g, &out), 0);
}

/// Streaming observer: in every round, the decided part of the output must be
/// consistent with the sliding window (a partial solution: proper on the
/// intersection graph, degree-bounded on the union graph).
struct PartialSolutionEveryRound {
    window: GraphWindow,
}

impl RoundObserver<ColorOutput> for PartialSolutionEveryRound {
    fn on_round(&mut self, view: &RoundView<'_, ColorOutput>) {
        self.window.push(view.current_graph());
        let report = check_t_dynamic(&ColoringProblem, &self.window, view.outputs);
        assert!(
            report.is_partial_solution(),
            "window-inconsistent decided output in round {}: {report:?}",
            view.round
        );
    }
}

#[test]
fn random_wakeup_with_churn_keeps_window_solutions_consistent() {
    // Even while nodes are still waking up, the decided part of the combined
    // coloring must be consistent with respect to the sliding window in
    // every round: proper on the intersection graph and degree-bounded on
    // the union graph. (Conflicts on brand-new edges of the *current* graph
    // are explicitly allowed by the T-dynamic definition and are resolved
    // within T rounds.)
    let n = 40;
    let window = recommended_window(n);
    let footprint = generators::erdos_renyi_avg_degree(n, 5.0, &mut experiment_rng(1, "wake"));
    let rounds = 5 * window;
    let mut partial = PartialSolutionEveryRound {
        window: GraphWindow::new(n, window),
    };
    // Once every node has been awake for a full window, full solutions are
    // required and present.
    let mut verifier = TDynamicVerifier::new(ColoringProblem, window).check_from(3 * window);
    let mut recorder = TraceRecorder::new();
    let dir = std::env::temp_dir().join(format!("dynnet-wakeup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("random-wakeup.dlog");
    let mut log = DeltaLogRecorder::create(&path);
    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(FlipChurnAdversary::new(&footprint, 0.03, 3))
        .wakeup(RandomWakeup::new(n, (2 * window) as u64, 77))
        .seed(2)
        .rounds(rounds)
        .run(&mut [&mut partial, &mut verifier, &mut recorder, &mut log]);
    log.close().unwrap();
    let summary = verifier.into_summary();
    assert!(
        summary.all_valid(),
        "invalid rounds: {:?}",
        summary.invalid_rounds
    );

    // Replay from the on-disk log. The recorded graphs mark sleeping nodes
    // inactive, so with the same wake-up schedule every node wakes in the
    // same round, and the same seed reproduces the execution exactly.
    let mut replay_verifier = TDynamicVerifier::new(ColoringProblem, window).check_from(3 * window);
    let mut replay_recorder = TraceRecorder::new();
    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(ScriptedAdversary::new(read_trace(&path).unwrap()))
        .wakeup(RandomWakeup::new(n, (2 * window) as u64, 77))
        .seed(2)
        .rounds(rounds)
        .run(&mut [&mut replay_verifier, &mut replay_recorder]);
    std::fs::remove_file(&path).unwrap();
    let (record, replay) = (recorder.into_record(), replay_recorder.into_record());
    assert_eq!(replay.num_rounds(), rounds);
    for r in 0..rounds {
        assert_eq!(replay.graph_at(r), record.graph_at(r), "graph of round {r}");
        assert_eq!(
            replay.outputs_at(r),
            record.outputs_at(r),
            "outputs of round {r}"
        );
        assert_eq!(
            replay.newly_awake_at(r),
            record.newly_awake_at(r),
            "wake-ups of round {r}"
        );
    }
    assert_eq!(replay_verifier.into_summary(), summary);
}

#[test]
fn mis_with_staggered_wakeup_converges_to_a_maximal_independent_set() {
    let n = 30;
    let window = recommended_window(n);
    let g = generators::random_geometric(n, 0.3, &mut experiment_rng(2, "wake-mis"));
    let rounds = 7 * window;
    let runner = Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(StaticAdversary::new(g.clone()))
        .wakeup(Staggered {
            stride: 3,
            max_round: (2 * window) as u64,
        })
        .seed(3)
        .rounds(rounds)
        .run(&mut []);
    let out: Vec<MisOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(MisOutput::Undecided))
        .collect();
    assert!(out.iter().all(|o| o.is_decided()));
    assert_eq!(independence_violations(&g, &out), 0);
    assert_eq!(domination_violations(&g, &out), 0);
}

/// Streaming observer: snapshots the given nodes' outputs at round
/// `snapshot_at` and asserts they never change afterwards.
struct StableAfter {
    snapshot_at: u64,
    nodes: Vec<NodeId>,
    snapshot: Option<Vec<Option<ColorOutput>>>,
}

impl RoundObserver<ColorOutput> for StableAfter {
    fn on_round(&mut self, view: &RoundView<'_, ColorOutput>) {
        if view.round == self.snapshot_at {
            let snap: Vec<Option<ColorOutput>> =
                self.nodes.iter().map(|v| view.outputs[v.index()]).collect();
            for (v, o) in self.nodes.iter().zip(&snap) {
                assert!(
                    o.map(|o| o.is_decided()).unwrap_or(false),
                    "node {v} undecided at snapshot round"
                );
            }
            self.snapshot = Some(snap);
        } else if let Some(snap) = &self.snapshot {
            for (v, expected) in self.nodes.iter().zip(snap) {
                assert_eq!(
                    view.outputs[v.index()],
                    *expected,
                    "interior node {v} changed output in round {} after late wake-ups",
                    view.round
                );
            }
        }
    }
}

#[test]
fn late_wakers_join_without_disturbing_stable_neighbors() {
    // A path where the two endpoints wake up very late: the middle segment
    // stabilizes first and must not change its output when the endpoints join.
    let n = 12;
    let window = recommended_window(n);
    let g = generators::path(n);
    let mut wake_rounds = vec![0u64; n];
    wake_rounds[0] = (3 * window) as u64;
    wake_rounds[n - 1] = (3 * window) as u64;
    let rounds = 6 * window;
    // "Deep interior" nodes (distance ≥ 2 from the late wakers, so their
    // 2-neighborhood never changes) must be frozen from just before the late
    // wake-up to the end.
    let mut stable = StableAfter {
        snapshot_at: (3 * window - 1) as u64,
        nodes: (3..n - 3).map(NodeId::new).collect(),
        snapshot: None,
    };
    let runner = Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(StaticAdversary::new(g.clone()))
        .wakeup(ScriptedWakeup {
            rounds: wake_rounds,
        })
        .seed(4)
        .rounds(rounds)
        .run(&mut [&mut stable]);
    // The late wakers themselves end up properly colored.
    let final_out: Vec<ColorOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(ColorOutput::Undecided))
        .collect();
    assert!(final_out.iter().all(|o| o.is_decided()));
    assert_eq!(conflict_edges(&g, &final_out), 0);
}
