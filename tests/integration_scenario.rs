//! Integration tests for the unified `Scenario` runner API and its streaming
//! observers: determinism through the builder, sequential-vs-parallel
//! agreement, equivalence of the streaming `TDynamicVerifier` with the batch
//! `verify_t_dynamic_run`.

use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::runtime::ExecutionRecord;

fn record_run(seed: u64, parallel: bool) -> ExecutionRecord<ColorOutput> {
    let n = 48;
    let window = recommended_window(n);
    let footprint = generators::erdos_renyi_avg_degree(n, 5.0, &mut experiment_rng(1, "scn"));
    let mut recorder = TraceRecorder::new();
    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(FlipChurnAdversary::new(&footprint, 0.03, 17))
        .seed(seed)
        .parallel(parallel)
        .parallel_threshold(0)
        .rounds(2 * window)
        .run(&mut [&mut recorder]);
    recorder.into_record()
}

#[test]
fn same_seed_gives_bit_identical_records_through_scenario() {
    let a = record_run(7, false);
    let b = record_run(7, false);
    assert_eq!(a.num_rounds(), b.num_rounds());
    for r in 0..a.num_rounds() {
        assert_eq!(
            a.outputs_at(r),
            b.outputs_at(r),
            "outputs diverge in round {r}"
        );
        assert_eq!(
            a.graph_at(r).edge_vec(),
            b.graph_at(r).edge_vec(),
            "graphs diverge in round {r}"
        );
        assert_eq!(a.newly_awake_at(r), b.newly_awake_at(r));
        assert_eq!(a.num_awake_at(r), b.num_awake_at(r));
    }
    // A different seed must diverge somewhere.
    let c = record_run(8, false);
    assert!(
        (0..a.num_rounds()).any(|r| a.outputs_at(r) != c.outputs_at(r)),
        "different seeds should produce different executions"
    );
}

#[test]
fn sequential_and_parallel_agree_via_the_builder() {
    let seq = record_run(9, false);
    let par = record_run(9, true);
    assert_eq!(seq.num_rounds(), par.num_rounds());
    for r in 0..seq.num_rounds() {
        assert_eq!(
            seq.outputs_at(r),
            par.outputs_at(r),
            "outputs diverge in round {r}"
        );
    }
}

#[test]
fn streaming_verifier_matches_batch_verifier_on_a_recorded_run() {
    let n = 40;
    let window = recommended_window(n);
    let rounds = 3 * window;
    let footprint = generators::erdos_renyi_avg_degree(n, 6.0, &mut experiment_rng(2, "scn2"));

    // One execution, verified both ways: streaming (observer, O(window)
    // memory) and batch (fully materialized record).
    let mut streaming = TDynamicVerifier::new(MisProblem, window);
    let mut recorder = TraceRecorder::new();
    Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(FlipChurnAdversary::new(&footprint, 0.08, 5))
        .seed(3)
        .rounds(rounds)
        .run(&mut [&mut streaming, &mut recorder]);
    let streaming_summary = streaming.into_summary();

    let record = recorder.into_record();
    let graphs: Vec<Graph> = record.trace.iter().collect();
    let outputs: Vec<Vec<Option<MisOutput>>> =
        (0..rounds).map(|r| record.outputs_at(r).to_vec()).collect();
    let batch_summary = verify_t_dynamic_run(&MisProblem, &graphs, &outputs, window, window - 1);

    assert_eq!(
        streaming_summary.rounds_checked,
        batch_summary.rounds_checked
    );
    assert_eq!(streaming_summary.rounds_valid, batch_summary.rounds_valid);
    assert_eq!(
        streaming_summary.rounds_partial_valid,
        batch_summary.rounds_partial_valid
    );
    assert_eq!(
        streaming_summary.total_packing_violations,
        batch_summary.total_packing_violations
    );
    assert_eq!(
        streaming_summary.total_covering_violations,
        batch_summary.total_covering_violations
    );
    assert_eq!(
        streaming_summary.total_undecided,
        batch_summary.total_undecided
    );
    assert_eq!(
        streaming_summary.first_valid_round,
        batch_summary.first_valid_round
    );
    assert_eq!(
        streaming_summary.invalid_rounds,
        batch_summary.invalid_rounds
    );
}

#[test]
fn run_until_reports_rounds_executed_and_observers_finish() {
    let n = 20;
    let window = recommended_window(n);
    let g = generators::complete(n);
    let mut churn = ChurnStats::new();
    let mut tracker = ConvergenceTracker::new(|o: &ColorOutput| o.is_decided());
    let runner = Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(StaticAdversary::new(g))
        .seed(6)
        .rounds(10 * window)
        .run_until(&mut [&mut churn, &mut tracker], |view| {
            view.outputs
                .iter()
                .all(|o| o.map(|c: ColorOutput| c.is_decided()).unwrap_or(false))
        });
    assert!(
        runner.rounds_executed() < 10 * window,
        "complete-graph coloring converges fast"
    );
    assert_eq!(churn.series().len(), runner.rounds_executed());
    assert_eq!(
        tracker.all_done_round(),
        Some(runner.rounds_executed() as u64 - 1),
        "tracker and stop predicate agree on the completion round"
    );
}

#[test]
fn boxed_adversaries_plug_into_scenario() {
    let n = 24;
    let window = recommended_window(n);
    let footprint = generators::erdos_renyi_avg_degree(n, 5.0, &mut experiment_rng(4, "scn4"));
    let workloads: Vec<Box<dyn OutputAdversary<MisOutput>>> = vec![
        Box::new(StaticAdversary::new(footprint.clone())),
        Box::new(FlipChurnAdversary::new(&footprint, 0.05, 31)),
    ];
    for adv in workloads {
        let mut verifier = TDynamicVerifier::new(MisProblem, window);
        Scenario::new(n)
            .algorithm(dynamic_mis(n, window))
            .adversary(adv)
            .seed(7)
            .rounds(3 * window)
            .run(&mut [&mut verifier]);
        assert!(verifier.summary().all_valid());
    }
}
