//! Oracle-equivalence suite for the incremental T-dynamic verifier.
//!
//! Every built-in adversary drives a real scenario (the paper's combined
//! Concat algorithms for coloring and MIS) with the *incremental*
//! `TDynamicVerifier` attached as a streaming observer — the `O(|δ| +
//! output churn)` path fed by the simulator's churn lists and the window's
//! `WindowUpdate` dirty sets. The execution is recorded and re-verified with
//! the batch `verify_t_dynamic_run` oracle (full re-check of every round);
//! the two `VerificationSummary` values must be identical in every field.
//! The same execution is also streamed to an on-disk delta log, loaded back
//! with `codec::read_trace`, and replayed through `ScriptedAdversary` with
//! the same seed: the replay must reproduce every round's graph and outputs
//! and the same summary, so a recorded log alone re-executes a run.
//!
//! Also covered here: the window-expiry edge case (a verdict flips on a
//! round whose delta is empty, purely because an edge aged out of the
//! union) and the regression test for `observe_delta` before an initial
//! graph (a documented error, not a panic).

use dynnet_adversary::{
    Adversary, BurstAdversary, ConflictSeekingAdversary, FlipChurnAdversary, GrowthAdversary,
    LocallyStaticAdversary, MarkovChurnAdversary, MobilityAdversary, MobilityConfig,
    NodeChurnAdversary, OutputAdversary, PhaseAdversary, RateChurnAdversary, Scenario,
    ScriptedAdversary, StaticAdversary,
};
use dynnet_algorithms::coloring::dynamic_coloring;
use dynnet_algorithms::mis::dynamic_mis;
use dynnet_core::{
    verify_t_dynamic_run, ColorOutput, ColoringProblem, DynamicProblem, MisOutput, MisProblem,
    TDynamicVerifier, VerifyError,
};
use dynnet_graph::codec::read_trace;
use dynnet_graph::{generators, DynamicGraphTrace, Graph, GraphDelta, NodeId};
use dynnet_runtime::rng::experiment_rng;
use dynnet_runtime::{AlgorithmFactory, DeltaLogRecorder, NodeAlgorithm, TraceRecorder};
use std::fmt::Debug;

const N: usize = 24;
const WINDOWS: &[usize] = &[2, 6];

fn footprint(seed: u64) -> Graph {
    generators::erdos_renyi_avg_degree(N, 4.0, &mut experiment_rng(seed, "verify-incr"))
}

/// Runs one scenario with the incremental verifier streaming alongside a
/// recorder and a delta log, then (1) replays the recorded execution through
/// the batch oracle and asserts byte-identical summaries, and (2) re-runs
/// the algorithm on the log read back from disk and asserts the identical
/// execution.
fn assert_incremental_matches_oracle<P, A, F, Adv>(
    name: &str,
    problem: P,
    factory: impl Fn() -> F,
    adv: Adv,
    window: usize,
    rounds: usize,
) where
    P: DynamicProblem + Clone,
    P::Output: Debug,
    A: NodeAlgorithm<Output = P::Output>,
    F: AlgorithmFactory<A>,
    Adv: OutputAdversary<P::Output>,
{
    let dir = std::env::temp_dir().join(format!("dynnet-verify-incr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-T{window}.dlog", name.replace('/', "-")));
    let mut recorder = TraceRecorder::new();
    let mut incremental = TDynamicVerifier::new(problem.clone(), window);
    let mut log = DeltaLogRecorder::create(&path);
    Scenario::new(N)
        .algorithm(factory())
        .adversary(adv)
        .seed(11)
        .rounds(rounds)
        .run(&mut [&mut recorder, &mut incremental, &mut log]);
    log.close().unwrap();

    let mut replay_recorder = TraceRecorder::new();
    let mut replay_verifier = TDynamicVerifier::new(problem.clone(), window);
    Scenario::new(N)
        .algorithm(factory())
        .adversary(ScriptedAdversary::new(read_trace(&path).unwrap()))
        .seed(11)
        .rounds(rounds)
        .run(&mut [&mut replay_recorder, &mut replay_verifier]);
    std::fs::remove_file(&path).unwrap();

    let record = recorder.into_record();
    let replay = replay_recorder.into_record();
    assert_eq!(replay.num_rounds(), rounds, "{name}");
    for r in 0..rounds {
        assert_eq!(
            replay.graph_at(r),
            record.graph_at(r),
            "replayed graph differs: {name} (T = {window}), round {r}"
        );
        assert_eq!(
            replay.outputs_at(r),
            record.outputs_at(r),
            "replayed outputs differ: {name} (T = {window}), round {r}"
        );
    }

    let graphs: Vec<Graph> = (0..record.num_rounds())
        .map(|r| record.graph_at(r))
        .collect();
    let outputs: Vec<Vec<Option<P::Output>>> = (0..record.num_rounds())
        .map(|r| record.outputs_at(r).to_vec())
        .collect();
    let oracle = verify_t_dynamic_run(&problem, &graphs, &outputs, window, window - 1);
    let summary = incremental.into_summary();
    assert_eq!(
        summary, oracle,
        "incremental verifier diverged from the full-recheck oracle: {name} (T = {window})"
    );
    assert_eq!(summary.rounds_checked, rounds - (window - 1), "{name}");
    assert_eq!(
        replay_verifier.into_summary(),
        summary,
        "replayed summary differs: {name} (T = {window})"
    );
}

/// Runs one adversary against both problems (and their combined algorithms)
/// across the window sizes under test.
macro_rules! check_both_problems {
    ($name:expr, $window:ident, $rounds:ident, $mk_coloring_adv:expr, $mk_mis_adv:expr) => {
        for &$window in WINDOWS {
            let $rounds = 4 * $window + 8;
            assert_incremental_matches_oracle(
                concat!($name, "/coloring"),
                ColoringProblem,
                || dynamic_coloring($window),
                $mk_coloring_adv,
                $window,
                $rounds,
            );
            assert_incremental_matches_oracle(
                concat!($name, "/mis"),
                MisProblem,
                || dynamic_mis(N, $window),
                $mk_mis_adv,
                $window,
                $rounds,
            );
        }
    };
    ($name:expr, $window:ident, $rounds:ident, $mk_adv:expr) => {
        check_both_problems!($name, $window, $rounds, $mk_adv, $mk_adv)
    };
}

#[test]
fn static_adversary() {
    check_both_problems!("static", w, _r, StaticAdversary::new(footprint(1)));
}

#[test]
fn scripted_adversary() {
    check_both_problems!("scripted", w, rounds, {
        // Pre-record a flip-churn schedule so the scripted path replays a
        // genuinely dynamic trace.
        let mut churn = FlipChurnAdversary::new(&footprint(2), 0.05, 3);
        let g0 = Adversary::initial_graph(&mut churn);
        let mut trace = DynamicGraphTrace::new(g0.clone());
        let mut g = g0;
        for r in 1..rounds as u64 {
            let d = Adversary::next_delta(&mut churn, r, &g);
            d.apply(&mut g);
            trace.push_delta(d);
        }
        ScriptedAdversary::new(trace)
    });
}

#[test]
fn phase_adversary() {
    check_both_problems!(
        "phase",
        w,
        _r,
        PhaseAdversary::new(vec![
            (
                0,
                Box::new(StaticAdversary::new(footprint(4))) as Box<dyn Adversary>
            ),
            (6, Box::new(FlipChurnAdversary::new(&footprint(4), 0.08, 5))),
            (
                (2 * w + 4) as u64,
                Box::new(RateChurnAdversary::new(footprint(4), 2, 2, 6)),
            ),
        ])
    );
}

#[test]
fn markov_churn_adversary() {
    check_both_problems!(
        "markov",
        w,
        _r,
        MarkovChurnAdversary::new(&footprint(7), 0.1, 0.1, true, 8)
    );
}

#[test]
fn flip_churn_adversary() {
    check_both_problems!(
        "flip",
        w,
        _r,
        FlipChurnAdversary::new(&footprint(9), 0.08, 10)
    );
}

#[test]
fn rate_churn_adversary() {
    check_both_problems!(
        "rate",
        w,
        _r,
        RateChurnAdversary::new(footprint(11), 3, 3, 12)
    );
}

#[test]
fn burst_adversary() {
    check_both_problems!(
        "burst",
        w,
        _r,
        BurstAdversary::new(footprint(13), (w + 2) as u64, (w / 2 + 1) as u64, 4, 14)
    );
}

#[test]
fn node_churn_adversary() {
    check_both_problems!(
        "node-churn",
        w,
        _r,
        NodeChurnAdversary::new(footprint(15), 0.05, 0.2, 16)
    );
}

#[test]
fn growth_adversary() {
    check_both_problems!("growth", w, _r, GrowthAdversary::new(footprint(17), 6, 2));
}

#[test]
fn mobility_adversary() {
    check_both_problems!(
        "mobility",
        w,
        _r,
        MobilityAdversary::new(
            MobilityConfig {
                n: N,
                radius: 0.3,
                ..Default::default()
            },
            18,
        )
    );
}

#[test]
fn locally_static_adversary() {
    check_both_problems!(
        "locally-static",
        w,
        _r,
        LocallyStaticAdversary::new(footprint(19), vec![NodeId::new(0)], 2, 0.2, 20)
    );
}

#[test]
fn conflict_seeking_adversary() {
    check_both_problems!(
        "conflict-seeking",
        w,
        _r,
        ConflictSeekingAdversary::new(
            footprint(21),
            |a: &ColorOutput, b: &ColorOutput| {
                matches!((a, b), (ColorOutput::Colored(x), ColorOutput::Colored(y)) if x == y)
            },
            3,
            0.05,
            (2 * w) as u64,
            22,
        ),
        ConflictSeekingAdversary::new(
            footprint(21),
            |a: &MisOutput, b: &MisOutput| {
                matches!((a, b), (MisOutput::InMis, MisOutput::InMis))
            },
            3,
            0.05,
            (2 * w) as u64,
            22,
        )
    );
}

#[test]
fn window_expiry_flips_verdict_on_empty_delta() {
    // MIS on two nodes, T = 2: the edge {0,1} exists only in round 0 and
    // node 1 stays Dominated. In round 1 (first check) the edge is still in
    // G^∪2, so domination holds; in round 2 the delta is empty and the
    // outputs are unchanged — the *only* event is the edge's last present
    // round sliding out of the window. The incremental verifier must flip
    // node 1 to a covering violation from the expiry event alone.
    let outs = vec![Some(MisOutput::InMis), Some(MisOutput::Dominated)];
    let run = |mut v: TDynamicVerifier<MisProblem>| {
        let g0 = Graph::from_edges(2, [dynnet_graph::Edge::of(0, 1)]);
        v.observe(&g0, &outs);
        let mut d1 = GraphDelta::new();
        d1.remove(NodeId::new(0), NodeId::new(1));
        v.observe_delta_with_churn(&d1, &outs, Some(&[])).unwrap();
        v.observe_delta_with_churn(&GraphDelta::new(), &outs, Some(&[]))
            .unwrap();
        v.into_summary()
    };
    let incremental = run(TDynamicVerifier::new(MisProblem, 2));
    let oracle = run(TDynamicVerifier::new(MisProblem, 2).full_recheck());
    assert_eq!(incremental, oracle);
    assert_eq!(incremental.invalid_rounds, vec![2]);
    assert_eq!(incremental.total_covering_violations, 1);
    assert_eq!(incremental.rounds_valid, 1);
}

#[test]
fn observe_delta_before_initial_graph_returns_error() {
    // Regression: this used to panic via `Option::expect`. A delta is only
    // meaningful relative to an observed previous round, so the verifier
    // reports a documented error instead.
    let mut v = TDynamicVerifier::new(ColoringProblem, 3);
    let outs: Vec<Option<ColorOutput>> = vec![None; 4];
    assert_eq!(
        v.observe_delta(&GraphDelta::new(), &outs),
        Err(VerifyError::DeltaBeforeInitialGraph)
    );
    // The failed call observes nothing; a whole-graph round unblocks deltas.
    assert_eq!(v.rounds_observed(), 0);
    v.observe(&Graph::new(4), &outs);
    assert!(v.observe_delta(&GraphDelta::new(), &outs).is_ok());
    assert_eq!(v.rounds_observed(), 2);
}
