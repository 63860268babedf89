//! Comparison experiments: oblivious vs. adaptive adversaries (E9), the
//! Concat framework vs. the restart-from-scratch strawman (E11), the TDMA
//! application under mobility (E13), and simulator throughput (E14). All
//! runs stream through `Scenario` observers constructed per sweep cell; the
//! grids are declared as `SweepSpec`s on the harness `SweepEngine` (E14 runs
//! on the serial engine — it measures wall-clock time, so sibling cells must
//! not share the machine).

use super::ExpContext;
use dynnet::algorithms::apps::tdma;
use dynnet::core::mis::independence_violations;
use dynnet::metrics::{fmt2, fmt_pct, Summary, Table};
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::sweep::{run_observed, Cell, CellRows, SweepSpec};
use std::time::Instant;

/// Streaming observer: counts undecided node-rounds from round `from` on.
struct UndecidedNodeRounds {
    from: u64,
    total: usize,
}

impl RoundObserver<MisOutput> for UndecidedNodeRounds {
    fn on_round(&mut self, view: &RoundView<'_, MisOutput>) {
        if view.round < self.from {
            return;
        }
        self.total += view
            .outputs
            .iter()
            .filter(|o| o.map(|s| s == MisOutput::Undecided).unwrap_or(true))
            .count();
    }
}

/// Streaming observer: total independence violations on the window
/// intersection graph, summed over all rounds.
struct IntersectionViolations {
    window: GraphWindow,
    total: usize,
}

impl RoundObserver<MisOutput> for IntersectionViolations {
    fn on_round(&mut self, view: &RoundView<'_, MisOutput>) {
        self.window.push(view.current_graph());
        let out: Vec<MisOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(MisOutput::Undecided))
            .collect();
        self.total += independence_violations(&self.window.intersection_graph(), &out);
    }
}

/// E9: DMis against an oblivious churn adversary vs. an adaptive,
/// output-aware conflict seeker. The adaptive adversary may slow progress
/// (the O(log n) bound of Lemma 5.4 assumes 2-obliviousness) but can never
/// violate the deterministic independence guarantee. One sweep cell per
/// adversary.
pub fn e9_oblivious_vs_adaptive(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let window = recommended_window(n);
    let rounds = if ctx.smoke { 2 * window } else { 4 * window };
    let cases: &[(&str, bool)] = &[
        ("oblivious flip churn p=0.02", false),
        (
            "adaptive conflict seeker (wires MIS members together)",
            true,
        ),
    ];
    let spec = SweepSpec::grid1("e9", cases, |&(name, adaptive)| {
        (name.to_string(), (name, adaptive))
    });
    ctx.engine
        .aggregate(
            &spec,
            |cell| {
                let (name, adaptive) = cell.params;
                let footprint = generators::grid(16, 16);
                let mut undecided = UndecidedNodeRounds {
                    from: window as u64,
                    total: 0,
                };
                let mut violations = IntersectionViolations {
                    window: GraphWindow::new(n, window),
                    total: 0,
                };
                let mut verifier = TDynamicVerifier::new(MisProblem, window);
                let mut churn = ChurnStats::new();
                let observers: &mut [&mut dyn RoundObserver<MisOutput>] =
                    &mut [&mut undecided, &mut violations, &mut verifier, &mut churn];
                let scenario = Scenario::new(n)
                    .algorithm(dynamic_mis(n, window))
                    .seed(9)
                    .rounds(rounds);
                if adaptive {
                    let adv: ConflictSeekingAdversary<MisOutput, _> = ConflictSeekingAdversary::new(
                        footprint.clone(),
                        |a: &MisOutput, b: &MisOutput| a.in_mis() && b.in_mis(),
                        8,
                        0.02,
                        (2 * window) as u64,
                        91,
                    );
                    scenario.adversary(adv).run(observers);
                } else {
                    scenario
                        .adversary(FlipChurnAdversary::new(&footprint, 0.02, 90))
                        .run(observers);
                }
                let summary = verifier.into_summary();
                let churn_rate = churn.total_from(window) as f64 / (rounds - window) as f64;
                vec![
                    name.to_string(),
                    undecided.total.to_string(),
                    violations.total.to_string(),
                    format!("{}/{}", summary.rounds_valid, summary.rounds_checked),
                    fmt2(churn_rate),
                ]
            },
            CellRows::new(
                format!(
                    "E9 — Combined MIS against oblivious vs. adaptive adversaries, n = {n}, T = {window}"
                ),
                &[
                    "adversary",
                    "undecided node-rounds (lower = faster progress)",
                    "independence violations on G^∩T (total)",
                    "T-dynamic valid rounds",
                    "output changes/round",
                ],
                |_cell: &Cell<(&str, bool)>, row: Vec<String>| vec![row],
            ),
        )
        .expect("e9 sweep")
}

/// E11: Concat vs. restart-from-scratch on identical schedules, for both
/// problems and several churn rates. One sweep cell per (churn, problem)
/// pair; each cell runs the Concat scenario, records its schedule, and
/// replays it for the restart strawman.
pub fn e11_concat_vs_restart(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let window = recommended_window(n);
    let rounds = if ctx.smoke { 3 * window } else { 6 * window };
    let churns: &[f64] = if ctx.smoke {
        &[0.0, 0.01]
    } else {
        &[0.0, 0.01, 0.05]
    };
    let problems: &[&str] = &["coloring", "MIS"];
    let spec = SweepSpec::grid2("e11", churns, problems, |&churn, &problem| {
        (format!("{problem} p={churn}"), (churn, problem))
    });
    let steady = move |total: usize| total as f64 / (rounds - 2 * window) as f64;
    let period = window as u64;
    ctx.engine
        .aggregate(
            &spec,
            move |cell| {
                let (churn, problem) = cell.params;
                let footprint = generators::shared_footprint(
                    &generators::GraphFamily::ErdosRenyi { avg_degree: 8.0 },
                    n,
                    11,
                    "e11",
                    || generators::erdos_renyi_avg_degree(n, 8.0, &mut experiment_rng(11, "e11")),
                );
                if problem == "coloring" {
                    let mut concat_verifier = TDynamicVerifier::new(ColoringProblem, window);
                    let mut concat_churn = ChurnStats::new();
                    let mut recorder = TraceRecorder::graphs_only();
                    Scenario::new(n)
                        .algorithm(dynamic_coloring(window))
                        .adversary(FlipChurnAdversary::new(
                            &footprint,
                            churn,
                            500 + (churn * 1e4) as u64,
                        ))
                        .seed(11)
                        .rounds(rounds)
                        .run(&mut [&mut concat_verifier, &mut concat_churn, &mut recorder]);
                    let concat_summary = concat_verifier.into_summary();

                    let mut restart_verifier = TDynamicVerifier::new(ColoringProblem, window);
                    let mut restart_churn = ChurnStats::new();
                    Scenario::new(n)
                        .algorithm(move |v: NodeId| RestartColoring::new(v, period))
                        .adversary(ScriptedAdversary::new(recorder.into_trace().expect("recorded trace")))
                        .seed(12)
                        .rounds(rounds)
                        .run(&mut [&mut restart_verifier, &mut restart_churn]);
                    let restart_summary = restart_verifier.into_summary();
                    (
                        concat_summary,
                        restart_summary,
                        concat_churn.total_from(2 * window),
                        restart_churn.total_from(2 * window),
                    )
                } else {
                    let mut concat_verifier = TDynamicVerifier::new(MisProblem, window);
                    let mut concat_churn = ChurnStats::new();
                    let mut recorder = TraceRecorder::graphs_only();
                    Scenario::new(n)
                        .algorithm(dynamic_mis(n, window))
                        .adversary(FlipChurnAdversary::new(
                            &footprint,
                            churn,
                            600 + (churn * 1e4) as u64,
                        ))
                        .seed(13)
                        .rounds(rounds)
                        .run(&mut [&mut concat_verifier, &mut concat_churn, &mut recorder]);
                    let concat_summary = concat_verifier.into_summary();

                    let mut restart_verifier = TDynamicVerifier::new(MisProblem, window);
                    let mut restart_churn = ChurnStats::new();
                    Scenario::new(n)
                        .algorithm(move |v: NodeId| RestartMis::new(v, period))
                        .adversary(ScriptedAdversary::new(recorder.into_trace().expect("recorded trace")))
                        .seed(14)
                        .rounds(rounds)
                        .run(&mut [&mut restart_verifier, &mut restart_churn]);
                    let restart_summary = restart_verifier.into_summary();
                    (
                        concat_summary,
                        restart_summary,
                        concat_churn.total_from(2 * window),
                        restart_churn.total_from(2 * window),
                    )
                }
            },
            CellRows::new(
                format!("E11 — Concat (Corollaries 1.2/1.3) vs. restart-every-T strawman, n = {n}, T = {window}"),
                &[
                    "problem",
                    "churn p",
                    "Concat valid rounds",
                    "restart valid rounds",
                    "Concat output changes/round",
                    "restart output changes/round",
                ],
                move |cell: &Cell<(f64, &str)>,
                      (concat, restart, concat_changes, restart_changes): (
                    VerificationSummary,
                    VerificationSummary,
                    usize,
                    usize,
                )| {
                    let (churn, problem) = cell.params;
                    vec![vec![
                        problem.to_string(),
                        format!("{churn}"),
                        format!("{}/{}", concat.rounds_valid, concat.rounds_checked),
                        format!("{}/{}", restart.rounds_valid, restart.rounds_checked),
                        fmt2(steady(concat_changes)),
                        fmt2(steady(restart_changes)),
                    ]]
                },
            ),
        )
        .expect("e11 sweep")
}

/// Streaming observer running one TDMA frame per round (from `from` on).
struct TdmaProbe {
    from: u64,
    success_rates: Vec<f64>,
    frame_lengths: Vec<f64>,
    max_deg: usize,
}

impl RoundObserver<ColorOutput> for TdmaProbe {
    fn on_round(&mut self, view: &RoundView<'_, ColorOutput>) {
        if view.round < self.from {
            return;
        }
        let g = view.current_graph();
        self.max_deg = self.max_deg.max(g.max_degree());
        let colors: Vec<ColorOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(ColorOutput::Undecided))
            .collect();
        let frame = tdma::run_frame(g, &colors);
        self.success_rates.push(frame.success_rate());
        self.frame_lengths.push(frame.frame_length as f64);
    }
}

/// E13: TDMA slot assignment under random-waypoint mobility. One sweep cell
/// per speed band; each cell's observer set (probe + trace recorder) is
/// built by an `ObserverFactory` on the worker that runs the cell.
pub fn e13_tdma_mobility(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let window = recommended_window(n);
    let rounds = if ctx.smoke { 2 * window } else { 5 * window };
    let all_speeds: &[(&str, f64, f64)] = &[
        ("static (0)", 0.0, 0.0),
        ("slow (0.002–0.01)", 0.002, 0.01),
        ("fast (0.01–0.03)", 0.01, 0.03),
    ];
    let speeds = if ctx.smoke {
        &all_speeds[..2]
    } else {
        all_speeds
    };
    let spec = SweepSpec::grid1("e13", speeds, |&(name, lo, hi)| {
        (name.to_string(), (name, lo, hi))
    });
    let run = run_observed(
        &ctx.engine,
        &spec,
        || {
            (
                TdmaProbe {
                    from: window as u64,
                    success_rates: Vec::new(),
                    frame_lengths: Vec::new(),
                    max_deg: 0,
                },
                TraceRecorder::<ColorOutput>::graphs_only(),
            )
        },
        |cell, observers| {
            let (_, min_speed, max_speed) = cell.params;
            Scenario::new(n)
                .algorithm(dynamic_coloring(window))
                .adversary(MobilityAdversary::new(
                    MobilityConfig {
                        n,
                        radius: 0.08,
                        min_speed,
                        max_speed,
                    },
                    131,
                ))
                .seed(13)
                .rounds(rounds)
                .run(&mut [observers]);
        },
    )
    .expect("e13 sweep");
    let mut table = Table::new(
        format!("E13 — TDMA on the combined coloring under mobility, n = {n}, T = {window}"),
        &[
            "speed (per round)",
            "edge changes/round",
            "mean frame success rate",
            "min frame success rate",
            "mean frame length",
            "max degree+1 (upper bound)",
        ],
    );
    for (cell, (probe, recorder)) in spec.cells().iter().zip(run.into_results()) {
        let s = Summary::of(&probe.success_rates);
        table.push_row(vec![
            cell.params.0.to_string(),
            fmt2(recorder.trace().map_or(0, |t| t.total_edge_changes()) as f64 / rounds as f64),
            fmt_pct(s.mean),
            fmt_pct(s.min),
            fmt2(Summary::of(&probe.frame_lengths).mean),
            (probe.max_deg + 1).to_string(),
        ]);
    }
    vec![table]
}

/// E14: simulator throughput — wall-clock time per round for the sequential
/// and the rayon-parallel executor at increasing network sizes, for a plain
/// single-instance algorithm (DMis) and for the full combined algorithm of
/// Corollary 1.3 (which runs Θ(log n) pipelined instances per node). Runs on
/// the *serial* engine: this experiment measures time, so its cells must not
/// compete with each other for cores.
pub fn e14_simulator_throughput(ctx: &ExpContext) -> Vec<Table> {
    let time_per_round = |parallel: bool, n: usize, rounds: usize, combined: bool| -> f64 {
        let window = recommended_window(n);
        let footprint = generators::shared_footprint(
            &generators::GraphFamily::ErdosRenyi { avg_degree: 10.0 },
            n,
            14,
            "e14",
            || {
                generators::erdos_renyi_avg_degree(
                    n,
                    10.0,
                    &mut experiment_rng(14, &format!("e14-{n}")),
                )
            },
        );
        let config = SimConfig {
            seed: 14,
            parallel,
            parallel_threshold: 0,
        };
        // TIMING: this experiment (E13) measures wall-clock speedup; timings
        // are reported as measurements, not mixed into simulation output.
        let start = Instant::now();
        if combined {
            Scenario::new(n)
                .algorithm(dynamic_mis(n, window))
                .adversary(FlipChurnAdversary::new(&footprint, 0.01, 140))
                .config(config)
                .rounds(rounds)
                .run(&mut []);
        } else {
            Scenario::new(n)
                .algorithm(|v: NodeId| DMis::new(v, MisOutput::Undecided))
                .adversary(FlipChurnAdversary::new(&footprint, 0.01, 140))
                .config(config)
                .rounds(rounds)
                .run(&mut []);
        }
        start.elapsed().as_secs_f64() * 1000.0 / rounds as f64
    };
    // (combined?, n, rounds) in presentation order: single-instance sizes
    // first, then the combined algorithm.
    let mut spec = SweepSpec::new("e14");
    let single_ns: &[usize] = if ctx.smoke {
        &[4_000]
    } else {
        &[4_000, 16_000, 64_000]
    };
    let combined_ns: &[usize] = if ctx.smoke { &[1_000] } else { &[1_000, 4_000] };
    for &n in single_ns {
        spec.push(format!("DMis n={n}"), (false, n, 20usize));
    }
    for &n in combined_ns {
        spec.push(format!("combined n={n}"), (true, n, 15usize));
    }
    ctx.serial_engine()
        .aggregate(
            &spec,
            move |cell| {
                let (combined, n, rounds) = cell.params;
                let seq = time_per_round(false, n, rounds, combined);
                let par = time_per_round(true, n, rounds, combined);
                (seq, par)
            },
            CellRows::new(
                "E14 — Simulator throughput (ER d̄=10, churn p=0.01, release build)",
                &[
                    "algorithm",
                    "n",
                    "sequential ms/round",
                    "parallel ms/round",
                    "speedup",
                ],
                |cell: &Cell<(bool, usize, usize)>, (seq, par): (f64, f64)| {
                    let (combined, n, _) = cell.params;
                    vec![vec![
                        if combined {
                            "Combined MIS (Corollary 1.3)".into()
                        } else {
                            "DMis (single instance)".into()
                        },
                        n.to_string(),
                        fmt2(seq),
                        fmt2(par),
                        fmt2(seq / par),
                    ]]
                },
            ),
        )
        .expect("e14 sweep")
}
