//! # dynnet-runtime
//!
//! Synchronous round-based distributed simulation engine for the `dynnet`
//! reproduction of *"Local Distributed Algorithms in Highly Dynamic
//! Networks"*.
//!
//! The engine implements the paper's execution model (Section 2): in every
//! round the adversary supplies a communication graph, every awake node
//! broadcasts one message to its current neighbors, receives its neighbors'
//! messages, performs local computation, and produces an output. Nodes may
//! wake up asynchronously and never need a common round counter.
//!
//! * [`NodeAlgorithm`] — the per-node algorithm abstraction (send → receive →
//!   output per round).
//! * [`Simulator`] — drives one algorithm over a dynamic graph; sequential or
//!   rayon-parallel per-node phases with bit-identical results. Its one
//!   round entry point, `Simulator::step_delta`, builds the effective CSR in
//!   round 0 and patches it in `O(|δ|)` every later round; counters
//!   (`Simulator::delta_stats`) pin the zero-clone/zero-rebuild invariant.
//!   Each round's [`StepSummary`] also carries the exact *output churn*
//!   (`changed_outputs`), tracked at publication time, which downstream
//!   incremental consumers (the `O(|δ| + churn)` T-dynamic verifier in
//!   `dynnet-core`) rely on to skip full output scans.
//! * [`observer`] — streaming [`RoundObserver`]s fed a borrowed [`RoundView`]
//!   per round (trace recording, churn stats, convergence tracking) instead
//!   of materializing `O(n · rounds)` report vectors.
//! * [`rng`] — deterministic per-(seed, node, round) randomness.
//! * [`wakeup`] — asynchronous wake-up schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod node_state;
pub mod observer;
pub mod rng;
pub mod simulator;
pub mod wakeup;

pub use algorithm::{AlgorithmFactory, Incoming, NodeAlgorithm, NodeContext};
pub use observer::{
    ChurnStats, ConvergenceTracker, DeltaLogRecorder, ExecutionRecord, MetricsObserver,
    ObserverFactory, RoundObserver, RoundView, TraceRecorder,
};
pub use simulator::{DeltaStats, SimConfig, Simulator, StepSummary};
pub use wakeup::{AllAtStart, RandomWakeup, ScriptedWakeup, Staggered, WakeupSchedule};
