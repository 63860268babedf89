//! # dynnet
//!
//! Facade crate for the `dynnet` workspace — a Rust reproduction of
//! *"Local Distributed Algorithms in Highly Dynamic Networks"* (Bamberger,
//! Kuhn, Maus; IPPS 2019 / arXiv:1802.10199).
//!
//! The workspace implements the paper's framework for local distributed
//! graph problems on synchronous round-based dynamic networks — packing and
//! covering problems, `T`-dynamic solutions over sliding windows of
//! intersection/union graphs, and the `Concat` combiner of Theorem 1.1 — and
//! instantiates it for (degree+1)-vertex coloring (Corollary 1.2) and MIS
//! (Corollary 1.3), together with the dynamic-graph simulator, adversaries,
//! baselines, verification harnesses, and an experiment suite.
//!
//! ## Quick example
//!
//! One `Scenario` wires the whole execution — algorithm, adversary, wake-up,
//! seed, rounds — and streams every round to pluggable observers (here the
//! streaming T-dynamic verifier, which patches a per-node verdict ledger
//! from each round's delta and output churn instead of re-checking the
//! whole window — `O(|δ| + churn)` per checked round):
//!
//! ```
//! use dynnet::prelude::*;
//!
//! // A 32-node random geometric network whose edges churn every round.
//! let n = 32;
//! let window = recommended_window(n);
//! let footprint = generators::random_geometric(
//!     n, 0.3, &mut dynnet::runtime::rng::experiment_rng(1, "doc"));
//!
//! // Verify that every round (after the first window) carries a T-dynamic
//! // coloring, while the execution streams by.
//! let mut verifier = TDynamicVerifier::new(ColoringProblem, window);
//! let runner = Scenario::new(n)
//!     .algorithm(dynamic_coloring(window))      // Corollary 1.2
//!     .adversary(FlipChurnAdversary::new(&footprint, 0.02, 7))
//!     .wakeup(AllAtStart)
//!     .seed(42)
//!     .rounds(3 * window)
//!     .run(&mut [&mut verifier]);
//! assert!(verifier.summary().all_valid());
//! assert!(runner.outputs().iter().all(|o| o.is_some()));
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the experiment harness that regenerates EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub use dynnet_adversary as adversary;
pub use dynnet_algorithms as algorithms;
pub use dynnet_core as core;
pub use dynnet_graph as graph;
pub use dynnet_metrics as metrics;
pub use dynnet_obs as obs;
pub use dynnet_runtime as runtime;
pub use dynnet_sweep as sweep;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use dynnet_adversary::{
        Adversary, BurstAdversary, ConflictSeekingAdversary, FlipChurnAdversary, GrowthAdversary,
        LocallyStaticAdversary, MarkovChurnAdversary, MobilityAdversary, MobilityConfig,
        NodeChurnAdversary, OutputAdversary, PhaseAdversary, RateChurnAdversary, Runner, Scenario,
        ScriptedAdversary, StaticAdversary,
    };
    pub use dynnet_algorithms::apps::tdma;
    pub use dynnet_algorithms::coloring::{
        dynamic_coloring, oracle_coloring, BasicColoring, DColor, RestartColoring, SColor,
    };
    pub use dynnet_algorithms::mis::{
        dynamic_mis, oracle_mis, DMis, GhaffariMis, LubyMis, RestartMis, SMis,
    };
    pub use dynnet_core::{
        check_t_dynamic, node_verdict, recommended_window, verify_locally_static,
        verify_t_dynamic_run, ColorOutput, ColoringProblem, DynamicProblem, HasBottom,
        InvalidRounds, MisOutput, MisProblem, NodeVerdict, TDynamicReport, TDynamicVerifier,
        VerificationSummary, VerifyError, ViolationLedger,
    };
    pub use dynnet_graph::{
        generators, CodecError, CsrApplyOutcome, CsrGraph, DeltaLogReader, DeltaLogWriter, Edge,
        Graph, GraphDelta, GraphWindow, LogStats, NodeId, WindowUpdate,
    };
    pub use dynnet_metrics::{log_fit, RowSink, Series, Summary, Table};
    pub use dynnet_obs::{MetricSource, ProgressSink, Snapshot};
    pub use dynnet_runtime::{
        AllAtStart, ChurnStats, ConvergenceTracker, DeltaLogRecorder, DeltaStats, MetricsObserver,
        NodeAlgorithm, ObserverFactory, RandomWakeup, RoundObserver, RoundView, SimConfig,
        Simulator, Staggered, TraceRecorder, WakeupSchedule,
    };
    pub use dynnet_sweep::{
        run_observed, Aggregator, Cell, CellRows, CellValue, CheckpointStore, GroupedRun,
        GroupedSummary, KillSwitch, SweepEngine, SweepError, SweepReport, SweepRun, SweepSpec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let w = recommended_window(128);
        assert!(w > 8);
        let g = generators::cycle(5);
        assert_eq!(g.num_edges(), 5);
    }
}
