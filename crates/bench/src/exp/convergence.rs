//! Convergence-time experiments: round complexity of the basic coloring,
//! DColor, DMis and SMis as a function of `n`, with `O(log n)` shape checks,
//! plus the per-round progress constants of Lemmas 4.3 and 5.2. Every
//! experiment declares its grid as a `SweepSpec` and executes on the
//! harness-wide work-stealing `SweepEngine`; aggregation folds the per-cell
//! results in grid order, so the tables are identical for any thread count.

use super::ExpContext;
use dynnet::core::mis::independence_violations;
use dynnet::graph::CodecError;
use dynnet::metrics::{fmt2, log_fit, Summary, Table};
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::runtime::AlgorithmFactory;
use dynnet::sweep::{Cell, CellRows, CellValue, SweepSpec};

const N_SWEEP: &[usize] = &[64, 128, 256, 512, 1024, 2048, 4096];
const N_SWEEP_SMOKE: &[usize] = &[64, 128, 256];

/// Rounds until every node's output satisfies `done`, or the scenario's
/// round budget.
fn rounds_until_done<A, F, W, Adv>(
    scenario: Scenario<F, W, Adv>,
    done: impl Fn(&A::Output) -> bool,
) -> usize
where
    A: NodeAlgorithm,
    F: AlgorithmFactory<A>,
    W: WakeupSchedule,
    Adv: OutputAdversary<A::Output>,
{
    scenario
        .run_until(&mut [], |view| {
            view.outputs
                .iter()
                .all(|o| o.as_ref().map(&done).unwrap_or(false))
        })
        .rounds_executed()
}

/// The standard scaling row: group label column(s) + mean/max rounds +
/// normalization by `log2(n)`.
fn scaling_row(label: String, n: usize, s: &Summary) -> Vec<String> {
    vec![
        label,
        n.to_string(),
        fmt2(s.mean),
        fmt2(s.max),
        fmt2(s.mean / (n as f64).log2()),
    ]
}

/// The `O(log n)` shape-check table: one least-squares `log2` fit per outer
/// group over that group's `(n, mean)` points.
fn fit_table<K: PartialEq>(
    title: &str,
    group_col: &str,
    groups: &[((K, usize), Summary)],
    label_of: impl Fn(&K) -> String,
) -> Table {
    let mut fits = Table::new(title, &[group_col, "fit", "R²"]);
    let mut i = 0;
    while i < groups.len() {
        let outer = &groups[i].0 .0;
        let mut points = Vec::new();
        while i < groups.len() && groups[i].0 .0 == *outer {
            points.push((groups[i].0 .1, groups[i].1.mean));
            i += 1;
        }
        if let Some(fit) = log_fit(&points) {
            fits.push_row(vec![
                label_of(outer),
                format!("{:.2} + {:.2}·log2(n)", fit.intercept, fit.slope),
                format!("{:.3}", fit.r_squared),
            ]);
        }
    }
    fits
}

/// E1: basic static coloring (Algorithm 6) — rounds until all nodes colored,
/// over a (family × n × seed) grid on two graph families, with a `log n`
/// fit.
pub fn e1_basic_coloring_scaling(ctx: &ExpContext) -> Vec<Table> {
    let families: &[&str] = &["ER d̄=10", "geometric r=4/√n"];
    let family_idx: Vec<usize> = (0..families.len()).collect();
    let n_axis = if ctx.smoke { N_SWEEP_SMOKE } else { N_SWEEP };
    let seeds: Vec<u64> = (0..if ctx.smoke { 2 } else { 10 }).collect();
    let spec = SweepSpec::grid3("e1", &family_idx, n_axis, &seeds, |&f, &n, &seed| {
        (format!("{} n={n} seed={seed}", families[f]), (f, n, seed))
    });
    // Streaming grouped sweep: each (family, n) group folds to its Summary
    // as its last seed lands, so only in-flight groups are buffered (and
    // every finished cell checkpoints under `--checkpoint-dir`).
    let grouped = ctx.run_grouped(
        &spec,
        |cell| {
            let (f, n, seed) = cell.params;
            let name = families[f];
            let fam = if f == 1 {
                generators::GraphFamily::Geometric {
                    radius: 4.0 / (n as f64).sqrt(),
                }
            } else {
                generators::GraphFamily::ErdosRenyi { avg_degree: 10.0 }
            };
            let g = fam.generate(n, &mut experiment_rng(seed, &format!("e1-{name}-{n}")));
            rounds_until_done(
                Scenario::new(n)
                    .algorithm(BasicColoring::new)
                    .adversary(StaticAdversary::new(g))
                    .seed(seed)
                    .rounds(400),
                |o: &ColorOutput| o.is_decided(),
            ) as f64
        },
        |c: &Cell<(usize, usize, u64)>| (c.params.0, c.params.1),
        |k: &(usize, usize), _cells: &[Cell<(usize, usize, u64)>], results: Vec<f64>| {
            (*k, Summary::of(&results))
        },
    );
    let mut table = Table::new(
        "E1 — Basic coloring (Algorithm 6): rounds until all nodes colored (static graphs)",
        &["family", "n", "mean rounds", "max rounds", "mean/log2(n)"],
    );
    for (k, s) in &grouped.groups {
        table.push_row(scaling_row(families[k.0].to_string(), k.1, s));
    }
    vec![
        table,
        fit_table(
            "E1 — O(log n) shape check (least-squares fit of mean rounds)",
            "family",
            &grouped.groups,
            |&f| families[f].to_string(),
        ),
    ]
}

/// E2: DColor — rounds until all nodes colored under edge churn, over a
/// (churn × n × seed) grid.
pub fn e2_dcolor_scaling_under_churn(ctx: &ExpContext) -> Vec<Table> {
    let churns: &[f64] = &[0.0, 0.01, 0.05];
    let n_axis: &[usize] = if ctx.smoke {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    let seeds: Vec<u64> = (0..if ctx.smoke { 2 } else { 5 }).collect();
    let spec = SweepSpec::grid3("e2", churns, n_axis, &seeds, |&churn, &n, &seed| {
        (format!("p={churn} n={n} seed={seed}"), (churn, n, seed))
    });
    let grouped = ctx.run_grouped(
        &spec,
        |cell| {
            let (churn, n, seed) = cell.params;
            let footprint = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi { avg_degree: 10.0 },
                n,
                seed,
                "e2",
                || {
                    generators::erdos_renyi_avg_degree(
                        n,
                        10.0,
                        &mut experiment_rng(seed, &format!("e2-{n}")),
                    )
                },
            );
            rounds_until_done(
                Scenario::new(n)
                    .algorithm(|v: NodeId| DColor::new(v, ColorOutput::Undecided))
                    .adversary(FlipChurnAdversary::new(&footprint, churn, 100 + seed))
                    .seed(seed)
                    .rounds(400),
                |o: &ColorOutput| o.is_decided(),
            ) as f64
        },
        |c: &Cell<(f64, usize, u64)>| (c.params.0, c.params.1),
        |k: &(f64, usize), _cells: &[Cell<(f64, usize, u64)>], results: Vec<f64>| {
            (*k, Summary::of(&results))
        },
    );
    let mut table = Table::new(
        "E2 — DColor (Algorithm 2): rounds until all nodes colored under per-edge flip churn",
        &["churn p", "n", "mean rounds", "max rounds", "mean/log2(n)"],
    );
    for (k, s) in &grouped.groups {
        table.push_row(scaling_row(format!("{}", k.0), k.1, s));
    }
    vec![
        table,
        fit_table(
            "E2 — O(log n) shape check",
            "churn p",
            &grouped.groups,
            |&p| format!("{p}"),
        ),
    ]
}

/// Per-cell progress counters of the E3 measurement.
#[derive(Clone, Copy, Default)]
struct ProgressCounts {
    observed: usize,
    colored_events: usize,
    shrink_events: usize,
    colored_given_no_shrink: usize,
    no_shrink: usize,
}

impl CellValue for ProgressCounts {
    fn encode_value(&self, out: &mut Vec<u8>) {
        for v in [
            self.observed,
            self.colored_events,
            self.shrink_events,
            self.colored_given_no_shrink,
            self.no_shrink,
        ] {
            v.encode_value(out);
        }
    }

    fn decode_value(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ProgressCounts {
            observed: usize::decode_value(input)?,
            colored_events: usize::decode_value(input)?,
            shrink_events: usize::decode_value(input)?,
            colored_given_no_shrink: usize::decode_value(input)?,
            no_shrink: usize::decode_value(input)?,
        })
    }
}

/// E3: DColor per-round progress events (Lemma 4.3): among nodes that are
/// uncolored at the start of a round, measure how often the node gets
/// colored, how often its palette shrinks by ≥ 1/4, and the conditional
/// coloring probability when the palette does *not* shrink (claimed ≥ 1/64).
/// Uses manual `Runner` stepping to inspect per-node algorithm state between
/// rounds; each graph configuration is one sweep cell.
pub fn e3_dcolor_progress(ctx: &ExpContext) -> Vec<Table> {
    let (n, rounds) = if ctx.smoke { (128, 60) } else { (512, 200) };
    let graphs: &[(&str, f64)] = &[("ER d̄=10", 10.0), ("ER d̄=30", 30.0)];
    let spec = SweepSpec::grid1("e3", graphs, |&(name, avg_deg)| {
        (format!("{name} n={n}"), (name, avg_deg))
    });
    ctx.aggregate(
        &spec,
        |cell| {
            let (_, avg_deg) = cell.params;
            let g = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi {
                    avg_degree: avg_deg,
                },
                n,
                1,
                "e3",
                || generators::erdos_renyi_avg_degree(n, avg_deg, &mut experiment_rng(1, "e3")),
            );
            let mut runner = Scenario::new(n)
                .algorithm(|v: NodeId| DColor::new(v, ColorOutput::Undecided))
                .adversary(StaticAdversary::new((*g).clone()))
                .seed(3)
                .rounds(rounds)
                .runner();
            let mut c = ProgressCounts::default();
            let mut prev_state: Vec<Option<(bool, usize)>> = vec![None; n]; // (colored, palette size)
            while runner.step(&mut []) {
                #[allow(clippy::needless_range_loop)]
                for i in 0..n {
                    let node = runner.sim().node(NodeId::new(i)).unwrap();
                    let colored_now = node.output().is_decided();
                    let palette_now = node.palette().len();
                    if let Some((was_colored, old_palette)) = prev_state[i] {
                        if !was_colored && old_palette > 0 {
                            c.observed += 1;
                            let shrank = palette_now as f64 <= 0.75 * old_palette as f64;
                            if colored_now {
                                c.colored_events += 1;
                            }
                            if shrank {
                                c.shrink_events += 1;
                            } else {
                                c.no_shrink += 1;
                                if colored_now {
                                    c.colored_given_no_shrink += 1;
                                }
                            }
                        }
                    }
                    prev_state[i] = Some((colored_now, palette_now));
                }
            }
            c
        },
        CellRows::new(
            "E3 — DColor per-round progress events (Lemma 4.3)",
            &[
                "graph",
                "node-rounds observed",
                "colored",
                "palette shrank ≥1/4",
                "P(colored | no big shrink)",
                "claimed lower bound",
            ],
            |cell: &Cell<(&str, f64)>, c: ProgressCounts| {
                let p_cond = if c.no_shrink > 0 {
                    c.colored_given_no_shrink as f64 / c.no_shrink as f64
                } else {
                    1.0
                };
                vec![vec![
                    cell.params.0.to_string(),
                    c.observed.to_string(),
                    format!(
                        "{:.1}%",
                        100.0 * c.colored_events as f64 / c.observed.max(1) as f64
                    ),
                    format!(
                        "{:.1}%",
                        100.0 * c.shrink_events as f64 / c.observed.max(1) as f64
                    ),
                    format!("{:.3}", p_cond),
                    "0.016 (= 1/64)".to_string(),
                ]]
            },
        ),
    )
}

/// Streaming probe for the E6 decay measurement: maintains the running
/// intersection graph, counts its edges between undecided nodes, and asserts
/// the deterministic packing claim as the execution streams by.
struct DecayProbe {
    intersection: Option<Graph>,
    series: Series,
    done: bool,
}

impl RoundObserver<MisOutput> for DecayProbe {
    fn on_round(&mut self, view: &RoundView<'_, MisOutput>) {
        // The running intersection of every round's graph, kept from the
        // handed deltas: round 0's (from the all-asleep graph) seeds it, and
        // later rounds can only take edges and nodes away from it.
        let no_change = GraphDelta::new();
        let delta = view.delta.unwrap_or(&no_change);
        let intersection = match &mut self.intersection {
            None => {
                let empty = Graph::new_all_asleep(view.graph.num_nodes());
                self.intersection.insert(delta.materialize(&empty))
            }
            Some(acc) => {
                for e in &delta.removed {
                    acc.remove_edge(e.u, e.v);
                }
                for &v in &delta.deactivated {
                    acc.deactivate(v);
                }
                acc
            }
        };
        // Count intersection-graph edges with both endpoints undecided.
        let undecided: Vec<bool> = view
            .outputs
            .iter()
            .map(|o| o.map(|s| s == MisOutput::Undecided).unwrap_or(true))
            .collect();
        let count = intersection
            .edges()
            .filter(|e| undecided[e.u.index()] && undecided[e.v.index()])
            .count();
        self.series.push(count as f64);
        if count == 0 {
            self.done = true;
            return;
        }
        // Verify the deterministic packing claim as we go.
        let out: Vec<MisOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(MisOutput::Undecided))
            .collect();
        assert_eq!(independence_violations(intersection, &out), 0);
    }
}

/// E6: DMis — rounds until every node is decided, over a (churn × n × seed)
/// grid, plus the per-2-round decay factor of the number of edges between
/// undecided nodes in the running intersection graph (Lemma 5.2 claims
/// expectation ≤ 2/3), measured by a per-cell streaming probe.
pub fn e6_dmis_scaling_and_decay(ctx: &ExpContext) -> Vec<Table> {
    let churns: &[f64] = &[0.0, 0.02];
    let n_axis: &[usize] = if ctx.smoke {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    let seeds: Vec<u64> = (0..if ctx.smoke { 2 } else { 5 }).collect();
    let spec = SweepSpec::grid3("e6", churns, n_axis, &seeds, |&churn, &n, &seed| {
        (format!("p={churn} n={n} seed={seed}"), (churn, n, seed))
    });
    let grouped = ctx.run_grouped(
        &spec,
        |cell| {
            let (churn, n, seed) = cell.params;
            let footprint = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi { avg_degree: 10.0 },
                n,
                seed,
                "e6",
                || {
                    generators::erdos_renyi_avg_degree(
                        n,
                        10.0,
                        &mut experiment_rng(seed, &format!("e6-{n}")),
                    )
                },
            );
            rounds_until_done(
                Scenario::new(n)
                    .algorithm(|v: NodeId| DMis::new(v, MisOutput::Undecided))
                    .adversary(FlipChurnAdversary::new(&footprint, churn, 200 + seed))
                    .seed(seed)
                    .rounds(400),
                |o: &MisOutput| o.is_decided(),
            ) as f64
        },
        |c: &Cell<(f64, usize, u64)>| (c.params.0, c.params.1),
        |k: &(f64, usize), _cells: &[Cell<(f64, usize, u64)>], results: Vec<f64>| {
            (*k, Summary::of(&results))
        },
    );
    let mut scaling = Table::new(
        "E6 — DMis (Algorithm 4): rounds until all nodes decided",
        &["churn p", "n", "mean rounds", "max rounds", "mean/log2(n)"],
    );
    for (k, s) in &grouped.groups {
        scaling.push_row(scaling_row(format!("{}", k.0), k.1, s));
    }
    let mut tables = vec![scaling];
    tables.push(fit_table(
        "E6 — O(log n) shape check",
        "churn p",
        &grouped.groups,
        |&p| format!("{p}"),
    ));

    // Decay of |E(H_r)| (edges between undecided nodes in the running
    // intersection graph), measured every 2 rounds via a streaming probe —
    // one sweep cell per churn rate.
    let decay_n = if ctx.smoke { 256 } else { 1024 };
    let decay_rounds = if ctx.smoke { 60 } else { 120 };
    let decay_spec = SweepSpec::grid1("e6-decay", &[0.0f64, 0.05], |&churn| {
        (format!("decay p={churn}"), churn)
    });
    let mut decay_tables = ctx.aggregate(
        &decay_spec,
        |cell| {
            let churn = cell.params;
            let footprint = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi { avg_degree: 12.0 },
                decay_n,
                7,
                "e6-decay",
                || {
                    generators::erdos_renyi_avg_degree(
                        decay_n,
                        12.0,
                        &mut experiment_rng(7, "e6-decay"),
                    )
                },
            );
            let mut probe = DecayProbe {
                intersection: None,
                series: Series::new("undecided-edges"),
                done: false,
            };
            let mut runner = Scenario::new(decay_n)
                .algorithm(|v: NodeId| DMis::new(v, MisOutput::Undecided))
                .adversary(FlipChurnAdversary::new(&footprint, churn, 303))
                .seed(5)
                .rounds(decay_rounds)
                .runner();
            while runner.step(&mut [&mut probe]) {
                if probe.done {
                    break;
                }
            }
            probe.series.decay_ratios(2)
        },
        CellRows::new(
            "E6 — Undecided-edge decay per 2 rounds (Lemma 5.2: expected factor ≤ 2/3)",
            &[
                "graph",
                "churn p",
                "mean decay factor",
                "p95 decay factor",
                "samples",
            ],
            |cell: &Cell<f64>, ratios: Vec<f64>| {
                let s = Summary::of(&ratios);
                vec![vec![
                    format!("ER d̄=12, n={decay_n}"),
                    format!("{}", cell.params),
                    fmt2(s.mean),
                    fmt2(s.p95),
                    s.count.to_string(),
                ]]
            },
        ),
    );
    tables.append(&mut decay_tables);
    tables
}

/// E7: SMis on static graphs — rounds until every node is decided over an
/// (n × seed) grid (the golden-round analysis of Lemma 5.6 predicts
/// O(log n)).
pub fn e7_smis_scaling(ctx: &ExpContext) -> Vec<Table> {
    let n_axis: &[usize] = if ctx.smoke {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    let seeds: Vec<u64> = (0..if ctx.smoke { 2 } else { 5 }).collect();
    let spec = SweepSpec::grid2("e7", n_axis, &seeds, |&n, &seed| {
        (format!("n={n} seed={seed}"), (n, seed))
    });
    let grouped = ctx.run_grouped(
        &spec,
        |cell| {
            let (n, seed) = cell.params;
            let g = generators::shared_footprint(
                &generators::GraphFamily::ErdosRenyi { avg_degree: 10.0 },
                n,
                seed,
                "e7",
                || {
                    generators::erdos_renyi_avg_degree(
                        n,
                        10.0,
                        &mut experiment_rng(seed, &format!("e7-{n}")),
                    )
                },
            );
            rounds_until_done(
                Scenario::new(n)
                    .algorithm(move |v: NodeId| SMis::new(v, n))
                    .adversary(StaticAdversary::new((*g).clone()))
                    .seed(seed)
                    .rounds(600),
                |o: &MisOutput| o.is_decided(),
            ) as f64
        },
        |c: &Cell<(usize, u64)>| c.params.0,
        |&n: &usize, _cells: &[Cell<(usize, u64)>], results: Vec<f64>| (n, Summary::of(&results)),
    );
    let mut scaling = Table::new(
        "E7 — SMis (Algorithm 5): rounds until all nodes decided (static graphs)",
        &["n", "mean rounds", "max rounds", "mean/log2(n)"],
    );
    for (n, s) in &grouped.groups {
        scaling.push_row(vec![
            n.to_string(),
            fmt2(s.mean),
            fmt2(s.max),
            fmt2(s.mean / (*n as f64).log2()),
        ]);
    }
    let mut tables = vec![scaling];
    let mut fits = Table::new("E7 — O(log n) shape check", &["fit", "R²"]);
    let points: Vec<(usize, f64)> = grouped.groups.iter().map(|(n, s)| (*n, s.mean)).collect();
    if let Some(fit) = log_fit(&points) {
        fits.push_row(vec![
            format!("{:.2} + {:.2}·log2(n)", fit.intercept, fit.slope),
            format!("{:.3}", fit.r_squared),
        ]);
    }
    tables.push(fits);
    tables
}
