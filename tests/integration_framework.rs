//! Integration tests for the framework layer: Theorem 1.1's two guarantees
//! verified end-to-end for both problems on shared adversarial schedules,
//! plus determinism of the simulator across execution modes — all through
//! the unified `Scenario` API with streaming observers.

use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;

#[test]
fn theorem_1_1_part1_coloring_and_mis_on_identical_schedules() {
    // Record one adversarial schedule and replay it for both combined
    // algorithms; each must output a T-dynamic solution in every round.
    let n = 40;
    let window = recommended_window(n);
    let rounds = 3 * window;
    let footprint = generators::erdos_renyi_avg_degree(n, 5.0, &mut experiment_rng(1, "itf"));

    // Coloring run (records the trace for replay; verifies while streaming).
    let mut col_verifier = TDynamicVerifier::new(ColoringProblem, window);
    let mut recorder = TraceRecorder::graphs_only();
    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(MarkovChurnAdversary::new(&footprint, 0.05, 0.05, true, 11))
        .seed(5)
        .rounds(rounds)
        .run(&mut [&mut col_verifier, &mut recorder]);
    let col = col_verifier.into_summary();
    assert!(
        col.all_valid(),
        "coloring invalid rounds: {:?}",
        col.invalid_rounds
    );

    // MIS run on the *identical* schedule via trace replay.
    let trace = recorder.into_trace().expect("recorded trace");
    let mut mis_verifier = TDynamicVerifier::new(MisProblem, window);
    let mut replay_recorder = TraceRecorder::graphs_only();
    Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(ScriptedAdversary::new(trace.clone()))
        .seed(6)
        .rounds(rounds)
        .run(&mut [&mut mis_verifier, &mut replay_recorder]);
    let replayed = replay_recorder.into_trace().expect("recorded trace");
    assert_eq!(
        (0..rounds)
            .map(|r| trace.graph_at(r).num_edges())
            .collect::<Vec<_>>(),
        (0..rounds)
            .map(|r| replayed.graph_at(r).num_edges())
            .collect::<Vec<_>>(),
        "replay must reproduce the schedule"
    );
    let mis = mis_verifier.into_summary();
    assert!(
        mis.all_valid(),
        "MIS invalid rounds: {:?}",
        mis.invalid_rounds
    );
}

#[test]
fn theorem_1_1_part2_locally_static_stability_for_both_problems() {
    let n = 64;
    let window = recommended_window(n);
    let rounds = 4 * window;
    let base = generators::grid(8, 8);
    let seeds = vec![NodeId::new(27), NodeId::new(36)];

    // Coloring: the protected nodes' outputs must be decided and must not
    // change after round 2T (streaming check via ChurnStats).
    let mut churn = ChurnStats::new();
    let runner = Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(LocallyStaticAdversary::new(
            base.clone(),
            seeds.clone(),
            2,
            0.25,
            3,
        ))
        .seed(7)
        .rounds(rounds)
        .run(&mut [&mut churn]);
    for &v in &seeds {
        assert!(
            runner.outputs()[v.index()]
                .map(|o: ColorOutput| o.is_decided())
                .unwrap_or(false),
            "coloring output of protected node {v} undecided at the end"
        );
        let last = churn.last_change_round(v);
        assert!(
            last.is_none_or(|r| r < 2 * window),
            "coloring output of protected node {v} changed in round {last:?} >= 2T"
        );
    }

    // MIS.
    let mut churn = ChurnStats::new();
    let runner = Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(LocallyStaticAdversary::new(base, seeds.clone(), 2, 0.25, 4))
        .seed(8)
        .rounds(rounds)
        .run(&mut [&mut churn]);
    for &v in &seeds {
        assert!(
            runner.outputs()[v.index()]
                .map(|o: MisOutput| o.is_decided())
                .unwrap_or(false),
            "MIS output of protected node {v} undecided at the end"
        );
        let last = churn.last_change_round(v);
        assert!(
            last.is_none_or(|r| r < 2 * window),
            "MIS output of protected node {v} changed in round {last:?} >= 2T"
        );
    }
}

#[test]
fn sequential_and_parallel_execution_produce_identical_results() {
    let n = 60;
    let window = recommended_window(n);
    let rounds = window + 10;
    let footprint = generators::random_geometric(n, 0.22, &mut experiment_rng(2, "det"));

    let run_mode = |parallel: bool| {
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_coloring(window))
            .adversary(FlipChurnAdversary::new(&footprint, 0.03, 21))
            .seed(99)
            .parallel(parallel)
            .parallel_threshold(0)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        (0..rounds)
            .map(|r| record.outputs_at(r).to_vec())
            .collect::<Vec<_>>()
    };

    assert_eq!(run_mode(false), run_mode(true));
}

#[test]
fn window_checker_agrees_with_bruteforce_window_views() {
    // The T-dynamic checker is only as good as the window maintenance; spot
    // check the two window views on an adversarial run against
    // `Graph::intersection` / `Graph::union` folded over the last T graphs.
    let n = 20;
    let t = 6;
    let footprint = generators::erdos_renyi_avg_degree(n, 4.0, &mut experiment_rng(3, "win"));
    let mut adv = RateChurnAdversary::new(footprint, 3, 3, 17);
    let mut g = Adversary::initial_graph(&mut adv);
    let mut w = GraphWindow::new(n, t);
    let mut pushed: Vec<Graph> = Vec::new();
    for r in 1..40u64 {
        w.push(&g);
        pushed.push(g.clone());
        let last = &pushed[pushed.len().saturating_sub(t)..];
        let inter = last
            .iter()
            .skip(1)
            .fold(last[0].clone(), |acc, x| acc.intersection(x));
        let union = last
            .iter()
            .skip(1)
            .fold(last[0].clone(), |acc, x| acc.union(x));
        assert_eq!(w.intersection_graph().edge_vec(), inter.edge_vec());
        assert_eq!(w.union_graph().edge_vec(), union.edge_vec());
        g = Adversary::next_graph(&mut adv, r, &g);
    }
}

#[test]
fn growth_adversary_with_combined_algorithms_stays_valid() {
    // Nodes join over time (network bootstrap) while the algorithm runs.
    let n = 48;
    let window = recommended_window(n);
    let rounds = 3 * window;
    let footprint = generators::erdos_renyi_avg_degree(n, 5.0, &mut experiment_rng(4, "growth"));
    let mut verifier = TDynamicVerifier::new(MisProblem, window);
    Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(GrowthAdversary::new(footprint, 4, 2))
        .seed(9)
        .rounds(rounds)
        .run(&mut [&mut verifier]);
    let summary = verifier.into_summary();
    assert!(
        summary.all_valid(),
        "invalid rounds: {:?}",
        summary.invalid_rounds
    );
}
