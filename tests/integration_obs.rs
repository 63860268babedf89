//! End-to-end tests for the `dynnet-obs` observability layer.
//!
//! Everything lives in ONE `#[test]` function: span recording is
//! process-global state (`set_enabled` / the shared trace buffer), so
//! concurrent test threads would observe each other's events. The sections
//! run sequentially:
//!
//! 1. **Determinism pin** — every built-in adversary (all 12) drives both
//!    combined algorithms (coloring and MIS) twice, once with tracing on and
//!    once with it off; the output vectors must be identical. Tracing is
//!    observational only and must never perturb the simulation.
//! 2. **CSV determinism** — a small sweep's CSV artifact is byte-identical
//!    with tracing on and off.
//! 3. **Overhead guard** — with tracing disabled, spans record nothing (the
//!    buffer stays empty) and the worker pool does exactly the same work
//!    (identical `tasks_pooled` deltas) as a traced run of the same
//!    scenario.
//! 4. **Artifact round-trip** — a 2k-node traced run exports a Chrome trace
//!    and a metrics JSONL which both pass the `obs` validators.
//! 5. **Span coverage** — a traced 100k-node DMis round's phase spans sum to
//!    within 10% of the measured round latency: the taxonomy covers the
//!    round path, with no large untimed gap.

use dynnet::graph::DynamicGraphTrace;
use dynnet::obs;
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use std::path::PathBuf;
use std::time::Instant;

const N: usize = 24;
const WINDOW: usize = 6;
const ROUNDS: usize = 4 * WINDOW + 8;

fn footprint(seed: u64) -> Graph {
    generators::erdos_renyi_avg_degree(N, 4.0, &mut experiment_rng(seed, "obs-it"))
}

/// A pre-recorded flip-churn schedule, so the scripted adversary replays a
/// genuinely dynamic trace.
fn scripted() -> ScriptedAdversary {
    let mut churn = FlipChurnAdversary::new(&footprint(2), 0.05, 3);
    let g0 = Adversary::initial_graph(&mut churn);
    let mut trace = DynamicGraphTrace::new(g0.clone());
    let mut g = g0;
    for r in 1..ROUNDS as u64 {
        let d = Adversary::next_delta(&mut churn, r, &g);
        d.apply(&mut g);
        trace.push_delta(d);
    }
    ScriptedAdversary::new(trace)
}

/// All 12 built-in adversaries under one output type. The oblivious ones
/// come in through the blanket `Adversary → OutputAdversary` impl; the
/// conflict-seeking one needs the problem-specific conflict predicate.
fn roster<O: Sync + 'static>(
    conflict: fn(&O, &O) -> bool,
) -> Vec<(&'static str, Box<dyn OutputAdversary<O>>)> {
    let w = WINDOW;
    vec![
        ("static", Box::new(StaticAdversary::new(footprint(1)))),
        ("scripted", Box::new(scripted())),
        (
            "phase",
            Box::new(PhaseAdversary::new(vec![
                (
                    0,
                    Box::new(StaticAdversary::new(footprint(4))) as Box<dyn Adversary>,
                ),
                (6, Box::new(FlipChurnAdversary::new(&footprint(4), 0.08, 5))),
                (
                    (2 * w + 4) as u64,
                    Box::new(RateChurnAdversary::new(footprint(4), 2, 2, 6)),
                ),
            ])),
        ),
        (
            "markov",
            Box::new(MarkovChurnAdversary::new(&footprint(7), 0.1, 0.1, true, 8)),
        ),
        (
            "flip",
            Box::new(FlipChurnAdversary::new(&footprint(9), 0.08, 10)),
        ),
        (
            "rate",
            Box::new(RateChurnAdversary::new(footprint(11), 3, 3, 12)),
        ),
        (
            "burst",
            Box::new(BurstAdversary::new(
                footprint(13),
                (w + 2) as u64,
                (w / 2 + 1) as u64,
                4,
                14,
            )),
        ),
        (
            "node-churn",
            Box::new(NodeChurnAdversary::new(footprint(15), 0.05, 0.2, 16)),
        ),
        (
            "growth",
            Box::new(GrowthAdversary::new(footprint(17), 6, 2)),
        ),
        (
            "mobility",
            Box::new(MobilityAdversary::new(
                MobilityConfig {
                    n: N,
                    radius: 0.3,
                    ..Default::default()
                },
                18,
            )),
        ),
        (
            "locally-static",
            Box::new(LocallyStaticAdversary::new(
                footprint(19),
                vec![NodeId::new(0)],
                2,
                0.2,
                20,
            )),
        ),
        (
            "conflict-seeking",
            Box::new(ConflictSeekingAdversary::new(
                footprint(21),
                conflict,
                3,
                0.05,
                (2 * w) as u64,
                22,
            )),
        ),
    ]
}

fn coloring_conflict(a: &ColorOutput, b: &ColorOutput) -> bool {
    matches!((a, b), (ColorOutput::Colored(x), ColorOutput::Colored(y)) if x == y)
}

fn mis_conflict(a: &MisOutput, b: &MisOutput) -> bool {
    matches!((a, b), (MisOutput::InMis, MisOutput::InMis))
}

/// Runs the full roster against the combined coloring algorithm and returns
/// each adversary's final output vector.
fn coloring_outputs(traced: bool) -> Vec<(&'static str, Vec<Option<ColorOutput>>)> {
    obs::set_enabled(traced);
    roster(coloring_conflict)
        .into_iter()
        .map(|(name, adv)| {
            let runner = Scenario::new(N)
                .algorithm(dynamic_coloring(WINDOW))
                .adversary(adv)
                .seed(11)
                .rounds(ROUNDS)
                .run(&mut []);
            (name, runner.outputs().to_vec())
        })
        .collect()
}

/// Runs the full roster against the combined MIS algorithm and returns each
/// adversary's final output vector.
fn mis_outputs(traced: bool) -> Vec<(&'static str, Vec<Option<MisOutput>>)> {
    obs::set_enabled(traced);
    roster(mis_conflict)
        .into_iter()
        .map(|(name, adv)| {
            let runner = Scenario::new(N)
                .algorithm(dynamic_mis(N, WINDOW))
                .adversary(adv)
                .seed(11)
                .rounds(ROUNDS)
                .run(&mut []);
            (name, runner.outputs().to_vec())
        })
        .collect()
}

/// A tiny sweep whose CSV artifact must not depend on the trace state.
fn sweep_csv(traced: bool) -> String {
    obs::set_enabled(traced);
    let seeds: Vec<u64> = vec![1, 2, 3];
    let spec = SweepSpec::grid1("obs-csv", &seeds, |&s| (format!("seed={s}"), s));
    let results = SweepEngine::new(1)
        .run(&spec, |cell| {
            let n = 64;
            let s = cell.params;
            let fp = generators::erdos_renyi_avg_degree(n, 4.0, &mut experiment_rng(s, "obs-csv"));
            let runner = Scenario::new(n)
                .algorithm(dynamic_mis(n, WINDOW))
                .adversary(FlipChurnAdversary::new(&fp, 0.05, s))
                .seed(s)
                .rounds(20)
                .run(&mut []);
            runner
                .outputs()
                .iter()
                .filter(|o| matches!(o, Some(MisOutput::InMis)))
                .count()
        })
        .expect("sweep")
        .into_results();
    let mut table = Table::new("obs-csv", &["seed", "mis_size"]);
    for (s, r) in seeds.iter().zip(&results) {
        table.push_row(vec![s.to_string(), r.to_string()]);
    }
    table.to_csv()
}

/// One parallel-executor scenario; returns (outputs, pooled-task delta).
fn pooled_run(traced: bool) -> (Vec<Option<MisOutput>>, u64) {
    obs::set_enabled(traced);
    let n = 2_000;
    let fp = generators::erdos_renyi_avg_degree(n, 6.0, &mut experiment_rng(33, "obs-pool"));
    let before = rayon_tasks_pooled();
    let runner = Scenario::new(n)
        .algorithm(dynamic_mis(n, WINDOW))
        .adversary(FlipChurnAdversary::new(&fp, 0.02, 33))
        .seed(33)
        .parallel(true)
        .parallel_threshold(0)
        .rounds(10)
        .run(&mut []);
    (runner.outputs().to_vec(), rayon_tasks_pooled() - before)
}

/// The unified registry exposes the pool counters after any run with a
/// `MetricsObserver`; read the raw pool stat here so the guard does not
/// depend on an observer being attached.
fn rayon_tasks_pooled() -> u64 {
    rayon::pool_stats().tasks_pooled
}

fn artifacts_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs-it");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// Traced 2k-node run with the metrics observer and verifier attached;
/// exports both artifacts and validates them.
fn artifact_round_trip() {
    obs::registry().reset();
    obs::set_enabled(true);
    let _ = obs::take_events();
    let n = 2_000;
    let fp = generators::erdos_renyi_avg_degree(n, 6.0, &mut experiment_rng(44, "obs-art"));
    let mut metrics = MetricsObserver::new();
    let mut verifier = TDynamicVerifier::new(MisProblem, WINDOW);
    let runner = Scenario::new(n)
        .algorithm(dynamic_mis(n, WINDOW))
        .adversary(FlipChurnAdversary::new(&fp, 0.02, 44))
        .seed(44)
        .rounds(2 * WINDOW)
        .run(&mut [&mut metrics, &mut verifier]);
    assert!(runner.outputs().iter().any(|o| o.is_some()));
    obs::set_enabled(false);

    let dir = artifacts_dir();

    // Chrome trace: every recorded span round-trips through the validator.
    let events = obs::take_events();
    assert!(!events.is_empty(), "a traced run must record spans");
    let trace_path = dir.join("trace.json");
    obs::write_chrome_trace(&trace_path, &events).expect("write chrome trace");
    let text = std::fs::read_to_string(&trace_path).expect("read chrome trace");
    let report = obs::validate_chrome_trace(&text).expect("chrome trace validates");
    assert_eq!(report.events, events.len());
    assert!(report.categories.contains("round"), "round spans present");
    assert!(
        report.categories.contains("verify"),
        "verifier spans present"
    );

    // Metrics JSONL: registry counters plus the verifier's pull-model
    // metrics, written twice so the per-scope seq check has work to do.
    let metrics_path = dir.join("metrics.jsonl");
    let mut writer = obs::JsonlWriter::create(&metrics_path, "obs-it").expect("create jsonl");
    let mut snap = obs::registry().snapshot();
    snap.collect_from(&verifier);
    writer.write(&snap).expect("write snapshot");
    writer.write(&snap).expect("write snapshot again");
    let text = std::fs::read_to_string(&metrics_path).expect("read jsonl");
    let report = obs::validate_metrics_jsonl(&text).expect("metrics jsonl validates");
    assert_eq!(report.lines, 2);
    assert!(report.scopes.contains("obs-it"));
    for metric in [
        "sim.rounds",
        "sim.output_churn",
        "verify.rounds_checked",
        "window.gc_queue_depth",
        "pool.budget",
    ] {
        assert!(
            snap.get(metric).is_some(),
            "metric '{metric}' missing from snapshot"
        );
    }
    assert_eq!(snap.get("sim.rounds"), Some(2 * WINDOW as u64));
}

/// Traced 100k-node DMis round: the phase spans must account for at least
/// 90% of the measured wall-clock of the round (and never exceed it).
fn span_coverage_100k() {
    let n = 100_000;
    let mut churn = FlipChurnAdversary::new(
        &generators::erdos_renyi_avg_degree(n, 4.0, &mut experiment_rng(55, "obs-cov")),
        0.005,
        55,
    );
    let mut g = Adversary::initial_graph(&mut churn);
    let config = SimConfig {
        seed: 55,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        n,
        |v: NodeId| DMis::new(v, MisOutput::Undecided),
        AllAtStart,
        config,
    );
    // Warm round (full CSR build) stays untraced.
    obs::set_enabled(false);
    sim.step_delta(&g, &GraphDelta::new());

    let mut last_ratio = 0.0f64;
    for round in 1..=3u64 {
        let d = Adversary::next_delta(&mut churn, round, &g);
        d.apply(&mut g);
        obs::set_enabled(true);
        let _ = obs::take_events();
        // TIMING: measures the traced round the spans must account for;
        // test-only, never feeds back into the simulation.
        let start = Instant::now();
        sim.step_delta(&g, &d);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        obs::set_enabled(false);
        let events = obs::take_events();
        let span_ns: u64 = events
            .iter()
            .filter(|e| e.cat == "round")
            .map(|e| e.dur_ns)
            .sum();
        assert!(
            span_ns <= elapsed_ns,
            "round {round}: spans ({span_ns} ns) exceed the measured round ({elapsed_ns} ns)"
        );
        last_ratio = span_ns as f64 / elapsed_ns as f64;
        // The phase taxonomy (wakeup / csr_patch / send / receive) must
        // cover the round path within 10%; retry to shrug off a scheduler
        // hiccup on a loaded machine.
        if last_ratio >= 0.9 {
            return;
        }
    }
    panic!(
        "phase spans cover only {:.1}% of the measured 100k-node round",
        100.0 * last_ratio
    );
}

#[test]
fn observability_is_inert_and_artifacts_validate() {
    // 1. Determinism pin: tracing cannot change any adversary's outputs.
    let col_off = coloring_outputs(false);
    let col_on = coloring_outputs(true);
    for ((name, off), (_, on)) in col_off.iter().zip(&col_on) {
        assert_eq!(off, on, "coloring outputs diverged under tracing: {name}");
    }
    let mis_off = mis_outputs(false);
    let mis_on = mis_outputs(true);
    for ((name, off), (_, on)) in mis_off.iter().zip(&mis_on) {
        assert_eq!(off, on, "MIS outputs diverged under tracing: {name}");
    }
    // The traced runs recorded spans; the untraced ones must not have.
    assert!(obs::events_len() > 0, "traced runs should record spans");
    let _ = obs::take_events();

    // 2. CSV determinism: the sweep artifact is byte-identical.
    let csv_off = sweep_csv(false);
    let csv_on = sweep_csv(true);
    assert_eq!(csv_off, csv_on, "sweep CSV changed under tracing");
    let _ = obs::take_events();

    // 3. Overhead guard: disabled tracing records nothing and the pool does
    // identical work either way.
    obs::set_enabled(false);
    let before = obs::events_len();
    let (out_off, pooled_off) = pooled_run(false);
    assert_eq!(obs::events_len(), before, "disabled spans must not record");
    assert!(obs::take_events().is_empty());
    let (out_on, pooled_on) = pooled_run(true);
    assert_eq!(out_off, out_on, "parallel outputs diverged under tracing");
    assert_eq!(
        pooled_off, pooled_on,
        "tracing changed the pool's task count"
    );
    let _ = obs::take_events();

    // 4. Artifact round-trip through the validators.
    artifact_round_trip();

    // 5. Phase-span coverage of a 100k-node round.
    span_coverage_100k();

    obs::set_enabled(false);
    let _ = obs::take_events();
}
