//! Guarantee experiments for the combined algorithms (Theorem 1.1 /
//! Corollaries 1.2 and 1.3): per-round T-dynamic validity under churn,
//! conflict-resolution latency, locally-static stability, asynchronous
//! wake-up, and the effect of choosing the window too small. All runs stream
//! through `Scenario` observers constructed per sweep cell; the grids are
//! declared as `SweepSpec`s and executed on the harness `SweepEngine`.

use super::ExpContext;
use dynnet::core::coloring::max_color_used;
use dynnet::metrics::{fmt2, fmt_pct, Summary, Table};
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::sweep::{Cell, CellRows, SweepSpec};
use std::collections::HashMap;

/// Streaming observer measuring the longest per-edge conflict duration
/// (after `from`): for every edge, the longest streak of consecutive rounds
/// in which the edge is present in the current graph *and* both endpoints
/// output the same color. This is the quantity Corollary 1.2 bounds by `T`:
/// a newly inserted edge's conflict is resolved within one window.
struct EdgeConflictStreak {
    from: u64,
    streaks: HashMap<Edge, usize>,
    longest: usize,
}

impl EdgeConflictStreak {
    fn new(from: usize) -> Self {
        EdgeConflictStreak {
            from: from as u64,
            streaks: HashMap::new(),
            longest: 0,
        }
    }
}

impl RoundObserver<ColorOutput> for EdgeConflictStreak {
    fn on_round(&mut self, view: &RoundView<'_, ColorOutput>) {
        if view.round < self.from {
            return;
        }
        let g: &CsrGraph = view.graph;
        let out: Vec<ColorOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(ColorOutput::Undecided))
            .collect();
        let mut next: HashMap<Edge, usize> = HashMap::new();
        for e in g.edges() {
            if let (Some(a), Some(b)) = (out[e.u.index()].color(), out[e.v.index()].color()) {
                if a == b {
                    let len = self.streaks.get(&e).copied().unwrap_or(0) + 1;
                    self.longest = self.longest.max(len);
                    next.insert(e, len);
                }
            }
        }
        self.streaks = next;
    }
}

/// E4: the combined coloring under a churn-rate sweep — one cell per churn
/// rate, each constructing its own verifier/streak/recorder observers.
pub fn e4_combined_coloring_under_churn(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let window = recommended_window(n);
    let rounds = if ctx.smoke { 2 * window } else { 4 * window };
    let churns: &[f64] = if ctx.smoke {
        &[0.0, 0.01]
    } else {
        &[0.0, 0.005, 0.01, 0.02, 0.05, 0.1]
    };
    let spec = SweepSpec::grid1("e4", churns, |&churn| (format!("p={churn}"), churn));
    ctx.aggregate(
        &spec,
        |cell| {
            let churn = cell.params;
            let footprint = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi { avg_degree: 8.0 },
                n,
                4,
                "e4",
                || generators::erdos_renyi_avg_degree(n, 8.0, &mut experiment_rng(4, "e4")),
            );
            let mut verifier = TDynamicVerifier::new(ColoringProblem, window);
            let mut streak = EdgeConflictStreak::new(window);
            let mut recorder = TraceRecorder::graphs_only();
            let runner = Scenario::new(n)
                .algorithm(dynamic_coloring(window))
                .adversary(FlipChurnAdversary::new(
                    &footprint,
                    churn,
                    400 + (churn * 1e4) as u64,
                ))
                .seed(4)
                .rounds(rounds)
                .run(&mut [&mut verifier, &mut streak, &mut recorder]);
            let summary = verifier.into_summary();
            let final_out: Vec<ColorOutput> = runner
                .outputs()
                .iter()
                .map(|o| o.unwrap_or(ColorOutput::Undecided))
                .collect();
            vec![
                format!("{churn}"),
                fmt2(recorder.trace().map_or(0, |t| t.total_edge_changes()) as f64 / rounds as f64),
                format!("{}/{}", summary.rounds_valid, summary.rounds_checked),
                format!(
                    "{} ({})",
                    streak.longest,
                    if streak.longest < window { "yes" } else { "NO" }
                ),
                max_color_used(&final_out).to_string(),
                (footprint.max_degree() + 1).to_string(),
            ]
        },
        CellRows::new(
            format!(
                "E4 — Combined coloring (Corollary 1.2), n = {n}, T = {window}, {rounds} rounds"
            ),
            &[
                "churn p",
                "edge changes/round",
                "T-dynamic valid rounds",
                "max per-edge conflict duration (< T?)",
                "max color used",
                "max degree + 1",
            ],
            |_cell: &Cell<f64>, row: Vec<String>| vec![row],
        ),
    )
}

/// E5: locally-static stability of the combined coloring — a single-cell
/// sweep (one scenario) whose result rows cover the three protected nodes.
pub fn e5_locally_static_coloring(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let window = recommended_window(n);
    let rounds = if ctx.smoke { 3 * window } else { 5 * window };
    let seeds: Vec<NodeId> = vec![
        NodeId::new(8 * 16 + 8),
        NodeId::new(4 * 16 + 4),
        NodeId::new(12 * 16 + 11),
    ];
    let spec = SweepSpec::new("e5").cell("16×16 grid", seeds);
    ctx.aggregate(
            &spec,
            |cell| {
                let seeds = &cell.params;
                let base = generators::grid(16, 16);
                let mut churn = ChurnStats::new();
                Scenario::new(n)
                    .algorithm(dynamic_coloring(window))
                    .adversary(LocallyStaticAdversary::new(base, seeds.clone(), 2, 0.3, 5))
                    .seed(5)
                    .rounds(rounds)
                    .run(&mut [&mut churn]);
                // Mean number of output changes of unprotected nodes (they
                // keep churning).
                let unprotected_changes: Vec<f64> = (0..n)
                    .map(NodeId::new)
                    .filter(|v| !seeds.contains(v))
                    .map(|v| churn.per_node()[v.index()] as f64)
                    .collect();
                let unprotected_churn = Summary::of(&unprotected_changes).mean;
                seeds
                    .iter()
                    .map(|&v| {
                        let last_change = churn.last_change_round(v).unwrap_or(0);
                        vec![
                            format!("{v}"),
                            last_change.to_string(),
                            (2 * window).to_string(),
                            if last_change <= 2 * window {
                                "yes".into()
                            } else {
                                "NO".into()
                            },
                            fmt2(unprotected_churn),
                        ]
                    })
                    .collect::<Vec<_>>()
            },
            CellRows::new(
                format!("E5 — Locally-static stability (Corollary 1.2), 16×16 grid, T = {window}, churn 0.3 outside the protected region"),
                &[
                    "protected node",
                    "last output change (round)",
                    "bound 2T",
                    "within bound",
                    "mean churn of unprotected nodes (changes/node)",
                ],
                |_cell: &Cell<Vec<NodeId>>, rows: Vec<Vec<String>>| rows,
            ),
    )
}

/// The E8 workload grid: each cell names one adversary configuration and
/// constructs it on the worker that runs the cell.
#[derive(Clone, Copy)]
enum E8Workload {
    Static,
    /// Flip churn at the given rate, with its own RNG seed.
    Flip(f64, u64),
    Mobility,
    NodeChurn,
}

/// E8: the combined MIS under churn and mobility — one sweep cell per
/// workload.
pub fn e8_combined_mis_under_churn(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let window = recommended_window(n);
    let rounds = if ctx.smoke { 3 * window } else { 4 * window };
    let all_workloads: &[(&str, E8Workload)] = &[
        ("static", E8Workload::Static),
        ("flip churn p=0.01", E8Workload::Flip(0.01, 81)),
        ("flip churn p=0.05", E8Workload::Flip(0.05, 82)),
        ("mobility (random waypoint)", E8Workload::Mobility),
        ("node churn leave=0.02 join=0.1", E8Workload::NodeChurn),
    ];
    let workloads = if ctx.smoke {
        &all_workloads[..2]
    } else {
        all_workloads
    };
    let spec = SweepSpec::grid1("e8", workloads, |&(name, w)| (name.to_string(), (name, w)));
    ctx.aggregate(
        &spec,
        |cell| {
            let (name, workload) = cell.params;
            let footprint = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi { avg_degree: 8.0 },
                n,
                8,
                "e8",
                || generators::erdos_renyi_avg_degree(n, 8.0, &mut experiment_rng(8, "e8")),
            );
            let adv: Box<dyn OutputAdversary<MisOutput>> = match workload {
                E8Workload::Static => Box::new(StaticAdversary::new((*footprint).clone())),
                E8Workload::Flip(p, seed) => Box::new(FlipChurnAdversary::new(&footprint, p, seed)),
                E8Workload::Mobility => Box::new(MobilityAdversary::new(
                    MobilityConfig {
                        n,
                        radius: 0.08,
                        min_speed: 0.002,
                        max_speed: 0.01,
                    },
                    83,
                )),
                E8Workload::NodeChurn => {
                    Box::new(NodeChurnAdversary::new((*footprint).clone(), 0.02, 0.1, 84))
                }
            };
            let mut verifier = TDynamicVerifier::new(MisProblem, window);
            let mut churn = ChurnStats::new();
            let mut recorder = TraceRecorder::graphs_only();
            let runner = Scenario::new(n)
                .algorithm(dynamic_mis(n, window))
                .adversary(adv)
                .seed(8)
                .rounds(rounds)
                .run(&mut [&mut verifier, &mut churn, &mut recorder]);
            let summary = verifier.into_summary();
            let final_out: Vec<MisOutput> = runner
                .outputs()
                .iter()
                .map(|o| o.unwrap_or(MisOutput::Undecided))
                .collect();
            let steady_churn = churn.total_from(2 * window) as f64 / (rounds - 2 * window) as f64;
            vec![
                name.to_string(),
                fmt2(recorder.trace().map_or(0, |t| t.total_edge_changes()) as f64 / rounds as f64),
                format!("{}/{}", summary.rounds_valid, summary.rounds_checked),
                dynnet::core::mis::mis_size(&final_out).to_string(),
                fmt2(steady_churn),
            ]
        },
        CellRows::new(
            format!("E8 — Combined MIS (Corollary 1.3), n = {n}, T = {window}, {rounds} rounds"),
            &[
                "workload",
                "edge changes/round",
                "T-dynamic valid rounds",
                "MIS size (final)",
                "output changes/round (steady state)",
            ],
            |_cell: &Cell<(&str, E8Workload)>, row: Vec<String>| vec![row],
        ),
    )
}

/// The E10 wake-up schedule grid.
#[derive(Clone, Copy)]
enum E10Schedule {
    AllAtZero,
    Uniform,
    Staggered,
}

/// E10: asynchronous wake-up — convergence measured from each node's own
/// wake-up round, plus validity once everyone has been awake for a window.
/// One sweep cell per wake-up schedule.
pub fn e10_asynchronous_wakeup(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let window = recommended_window(n);
    let rounds = if ctx.smoke { 4 * window } else { 6 * window };
    let all_schedules: &[(&str, E10Schedule)] = &[
        ("all at round 0", E10Schedule::AllAtZero),
        ("uniform over [0, 2T]", E10Schedule::Uniform),
        ("staggered (stride 1)", E10Schedule::Staggered),
    ];
    let schedules = if ctx.smoke {
        &all_schedules[..2]
    } else {
        all_schedules
    };
    let spec = SweepSpec::grid1("e10", schedules, |&(name, s)| (name.to_string(), (name, s)));
    ctx.aggregate(
        &spec,
        |cell| {
            let (name, schedule) = cell.params;
            let footprint = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi { avg_degree: 8.0 },
                n,
                10,
                "e10",
                || generators::erdos_renyi_avg_degree(n, 8.0, &mut experiment_rng(10, "e10")),
            );
            let wake_rounds: Vec<u64> = match schedule {
                E10Schedule::AllAtZero => vec![0; n],
                E10Schedule::Uniform => {
                    let w = RandomWakeup::new(n, 2 * window as u64, 55);
                    (0..n).map(|i| w.wake_round(NodeId::new(i))).collect()
                }
                E10Schedule::Staggered => {
                    (0..n).map(|i| (i as u64).min(3 * window as u64)).collect()
                }
            };
            let warmup = wake_rounds.iter().map(|&w| w as usize).max().unwrap_or(0) + window;
            let mut tracker = ConvergenceTracker::new(|o: &ColorOutput| o.is_decided());
            let mut verifier = TDynamicVerifier::new(ColoringProblem, window).check_from(warmup);
            Scenario::new(n)
                .algorithm(dynamic_coloring(window))
                .adversary(FlipChurnAdversary::new(&footprint, 0.01, 101))
                .wakeup(dynnet::runtime::ScriptedWakeup {
                    rounds: wake_rounds,
                })
                .seed(10)
                .rounds(rounds)
                .run(&mut [&mut tracker, &mut verifier]);
            // Rounds from wake-up until the node's output is first
            // decided.
            let latency: Vec<f64> = tracker.latencies().iter().map(|&l| l as f64).collect();
            let s = Summary::of(&latency);
            let summary = verifier.into_summary();
            vec![
                name.to_string(),
                fmt2(s.mean),
                fmt2(s.p95),
                format!("{}/{}", summary.rounds_valid, summary.rounds_checked),
            ]
        },
        CellRows::new(
            format!("E10 — Asynchronous wake-up, combined coloring, n = {n}, T = {window}"),
            &[
                "wake-up schedule",
                "rounds to first decision after wake (mean)",
                "rounds to first decision after wake (p95)",
                "T-dynamic valid rounds after warm-up",
            ],
            |_cell: &Cell<(&str, E10Schedule)>, row: Vec<String>| vec![row],
        ),
    )
}

/// E12: sweep the window size below and above the recommended `Θ(log n)`
/// value; too-small windows must lose the per-round guarantee. One sweep
/// cell per window size.
pub fn e12_window_size_sweep(ctx: &ExpContext) -> Vec<Table> {
    let n = 256;
    let recommended = recommended_window(n);
    let rounds = if ctx.smoke {
        2 * recommended
    } else {
        4 * recommended
    };
    let windows: Vec<usize> = if ctx.smoke {
        vec![3, recommended]
    } else {
        vec![3, 6, 12, recommended / 2, recommended]
    };
    let spec = SweepSpec::grid1("e12", &windows, |&w| (format!("T={w}"), w));
    ctx.aggregate(
            &spec,
            |cell| {
                let window = cell.params;
                let footprint = generators::shared_footprint(
                    &generators::GraphFamily::ErdosRenyi { avg_degree: 8.0 },
                    n,
                    12,
                    "e12",
                    || generators::erdos_renyi_avg_degree(n, 8.0, &mut experiment_rng(12, "e12")),
                );
                let mut verifier =
                    TDynamicVerifier::new(ColoringProblem, window.max(2)).check_from(window.max(2));
                Scenario::new(n)
                    .algorithm(dynamic_coloring(window.max(2)))
                    .adversary(FlipChurnAdversary::new(
                        &footprint,
                        0.01,
                        120 + window as u64,
                    ))
                    .seed(12)
                    .rounds(rounds)
                    .run(&mut [&mut verifier]);
                verifier.into_summary()
            },
            CellRows::new(
                format!(
                    "E12 — Window-size sweep, combined coloring, n = {n} (recommended T = {recommended})"
                ),
                &[
                    "window T",
                    "T-dynamic valid fraction",
                    "undecided node-rounds",
                    "verdict",
                ],
                |cell: &Cell<usize>, summary: VerificationSummary| {
                    vec![vec![
                        cell.params.to_string(),
                        fmt_pct(summary.valid_fraction()),
                        summary.total_undecided.to_string(),
                        if summary.valid_fraction() > 0.999 {
                            "holds".into()
                        } else {
                            "fails (T too small)".into()
                        },
                    ]]
                },
            ),
        )
}
