//! Experiment implementations. Each `eN` function returns the Markdown
//! tables the harness writes to `results/eN.md` for that experiment.
//!
//! The experiment ids (E1–E14) and the claims they validate are listed in
//! [`registry`]. All experiments are deterministic given their hard-coded
//! seeds and run on a laptop in a few minutes in release mode.
//!
//! ## Declaring an experiment as a sweep
//!
//! Every multi-scenario experiment declares its grid as a
//! [`dynnet::sweep::SweepSpec`] and executes it on the harness-wide
//! [`dynnet::sweep::SweepEngine`] (the `--threads` flag of the `experiments`
//! binary). The pattern is:
//!
//! 1. **Declare the grid** with `SweepSpec::grid1/2/3` — axes in row-major
//!    order, the innermost axis being the one later summarized over (seeds).
//!    Each cell's params carry everything the scenario needs (seed, `n`,
//!    churn rate, window, adversary selector); labels name the grid point
//!    for progress and failure reports.
//! 2. **Run one scenario per cell**: the cell closure builds the footprint
//!    graph, adversary, observers, and `Scenario` *from the cell's params
//!    alone* (deterministic per-(seed, node, round) RNG), runs it, and
//!    returns plain data. Cells execute concurrently on the engine's
//!    work-stealing shards; results come back keyed by grid index.
//! 3. **Aggregate in grid order** with a [`dynnet::sweep::Aggregator`] —
//!    [`dynnet::sweep::CellRows`] for one-row-per-cell tables,
//!    [`dynnet::sweep::GroupedSummary`] for mean/max-over-seeds rows (its
//!    `groups()` feed the `O(log n)` shape fits).
//!
//! Because cells are self-contained and aggregation is keyed by grid
//! coordinates, the emitted tables are byte-identical for any thread count.
//! Timing experiments (E14) run on [`ExpContext::serial_engine`] so sibling
//! cells cannot distort their wall-clock measurements.

pub mod comparisons;
pub mod convergence;
pub mod guarantees;

use dynnet::metrics::Table;
use dynnet::sweep::{
    Aggregator, Cell, CellValue, CheckpointStore, GroupedRun, SweepEngine, SweepRun, SweepSpec,
};
use std::path::PathBuf;

/// Harness-wide execution context handed to every experiment.
pub struct ExpContext {
    /// The sweep engine multi-scenario experiments execute on.
    pub engine: SweepEngine,
    /// Reduced-grid smoke mode (CI): shrink grids/horizons so a sweep
    /// finishes in seconds while still exercising every code path.
    pub smoke: bool,
    /// Durable per-cell checkpointing: when set (`--checkpoint-dir`), every
    /// checkpointable sweep persists each finished cell under
    /// `<dir>/<spec-name>/` so a killed run can resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume mode (`--resume`): reuse completed cells found in the
    /// checkpoint directory instead of starting fresh.
    pub resume: bool,
}

impl ExpContext {
    /// A context running sweeps on `threads` workers.
    pub fn new(threads: usize) -> Self {
        ExpContext {
            engine: SweepEngine::new(threads),
            smoke: false,
            checkpoint_dir: None,
            resume: false,
        }
    }

    /// A single-threaded engine for timing-sensitive experiments (E14):
    /// concurrent sibling cells would distort wall-clock measurements.
    pub fn serial_engine(&self) -> SweepEngine {
        self.engine.serial()
    }

    /// The checkpoint store for a sweep, when `--checkpoint-dir` is set:
    /// each spec gets its own subdirectory, created fresh or resumed per
    /// `--resume`.
    fn store(&self, spec_name: &str) -> Option<CheckpointStore> {
        let dir = self.checkpoint_dir.as_ref()?.join(spec_name);
        let store = if self.resume {
            CheckpointStore::resume(dir)
        } else {
            CheckpointStore::create(dir)
        };
        Some(store.unwrap_or_else(|e| panic!("checkpoint store for {spec_name}: {e}")))
    }

    /// Runs a sweep, checkpointing each finished cell when
    /// `--checkpoint-dir` is set (and skipping cells already completed when
    /// resuming). Falls back to a plain in-memory run otherwise; results
    /// are identical either way.
    pub fn run<P, R, F>(&self, spec: &SweepSpec<P>, run_cell: F) -> SweepRun<R>
    where
        P: Sync,
        R: Send + CellValue,
        F: Fn(&Cell<P>) -> R + Sync,
    {
        let run = match self.store(spec.name()) {
            Some(store) => self.engine.run_checkpointed(spec, &store, run_cell),
            None => self.engine.run(spec, run_cell),
        };
        run.unwrap_or_else(|e| panic!("{} sweep: {e}", spec.name()))
    }

    /// Checkpointable version of [`SweepEngine::aggregate`]: runs the sweep
    /// through [`ExpContext::run`] and folds the results in grid order.
    pub fn aggregate<P, R, F, A>(&self, spec: &SweepSpec<P>, run_cell: F, agg: A) -> Vec<Table>
    where
        P: Sync,
        R: Send + CellValue,
        F: Fn(&Cell<P>) -> R + Sync,
        A: Aggregator<P, R>,
    {
        let run = self.run(spec, run_cell);
        let mut agg = dynnet::sweep::fold(spec, run, agg);
        agg.finish()
    }

    /// Streaming grouped sweep (checkpointed when `--checkpoint-dir` is
    /// set): each group of consecutive same-key cells is folded as soon as
    /// its last cell lands, so only in-flight groups are buffered — the
    /// bounded-memory path for large seed-ensemble grids.
    pub fn run_grouped<P, R, K, G, F, FK, FG>(
        &self,
        spec: &SweepSpec<P>,
        run_cell: F,
        group_of: FK,
        fold_group: FG,
    ) -> GroupedRun<G>
    where
        P: Sync,
        R: Send + CellValue,
        K: PartialEq + Sync,
        G: Send,
        F: Fn(&Cell<P>) -> R + Sync,
        FK: Fn(&Cell<P>) -> K + Sync,
        FG: Fn(&K, &[Cell<P>], Vec<R>) -> G + Sync,
    {
        let store = self.store(spec.name());
        self.engine
            .run_grouped(spec, store.as_ref(), run_cell, group_of, fold_group)
            .unwrap_or_else(|e| panic!("{} sweep: {e}", spec.name()))
    }
}

/// A named experiment: id, one-line description, and the function producing
/// its tables.
pub struct Experiment {
    /// Experiment id (`e1` … `e14`).
    pub id: &'static str,
    /// One-line description (which claim of the paper it validates).
    pub description: &'static str,
    /// Runs the experiment on the given context and returns its tables.
    pub run: fn(&ExpContext) -> Vec<Table>,
}

/// The registry of all experiments, in id order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            description: "Basic static coloring completes in O(log n) rounds (Lemma 6.2)",
            run: convergence::e1_basic_coloring_scaling,
        },
        Experiment {
            id: "e2",
            description: "DColor completes in O(log n) rounds despite churn (Lemma 4.4)",
            run: convergence::e2_dcolor_scaling_under_churn,
        },
        Experiment {
            id: "e3",
            description: "DColor per-round progress: colored w.p. ≥ 1/64 or palette shrinks by 1/4 (Lemma 4.3)",
            run: convergence::e3_dcolor_progress,
        },
        Experiment {
            id: "e4",
            description: "Corollary 1.2: T-dynamic coloring every round; conflicts resolve within T; colors ≤ d^∪T+1",
            run: guarantees::e4_combined_coloring_under_churn,
        },
        Experiment {
            id: "e5",
            description: "Corollary 1.2 locally-static part: static 2-neighborhood ⇒ no output change after 2T",
            run: guarantees::e5_locally_static_coloring,
        },
        Experiment {
            id: "e6",
            description: "DMis decides all nodes in O(log n); undecided-edge decay ≤ 2/3 per 2 rounds (Lemmas 5.2/5.4)",
            run: convergence::e6_dmis_scaling_and_decay,
        },
        Experiment {
            id: "e7",
            description: "SMis decides in O(log n) rounds when the 2-neighborhood is static (Lemma 5.6)",
            run: convergence::e7_smis_scaling,
        },
        Experiment {
            id: "e8",
            description: "Corollary 1.3: T-dynamic MIS every round under churn and mobility",
            run: guarantees::e8_combined_mis_under_churn,
        },
        Experiment {
            id: "e9",
            description: "DMis needs a 2-oblivious adversary for progress (remark after Lemma 5.2)",
            run: comparisons::e9_oblivious_vs_adaptive,
        },
        Experiment {
            id: "e10",
            description: "Asynchronous wake-up: convergence measured from each node's wake-up round",
            run: guarantees::e10_asynchronous_wakeup,
        },
        Experiment {
            id: "e11",
            description: "Concat vs. restart-from-scratch strawman on identical schedules (Section 1.1 motivation)",
            run: comparisons::e11_concat_vs_restart,
        },
        Experiment {
            id: "e12",
            description: "Window-size lower bound: T below the static complexity breaks the guarantee (Section 1.1)",
            run: guarantees::e12_window_size_sweep,
        },
        Experiment {
            id: "e13",
            description: "TDMA application: collision-free slots except on recently inserted edges (Section 1.2)",
            run: comparisons::e13_tdma_mobility,
        },
        Experiment {
            id: "e14",
            description: "Simulator throughput: sequential vs. rayon-parallel round execution",
            run: comparisons::e14_simulator_throughput,
        },
    ]
}
