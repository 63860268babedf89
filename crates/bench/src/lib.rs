//! # dynnet-bench
//!
//! Experiment harness regenerating every experiment table in EXPERIMENTS.md
//! (the paper has no empirical tables; each experiment validates one of its
//! quantitative claims — see DESIGN.md §5 for the experiment index).
//!
//! The E1–E14 experiments ([`exp`]) are declared as `SweepSpec` grids on the
//! work-stealing `dynnet-sweep` engine and stream their executions through
//! `RoundObserver`s, so the harness exercises the delta pipeline end to end.
//! Per-round performance is measured by the layered `perfbench/` package
//! (declared in the repository's `BENCHMARK.json`), not here.
//!
//! Run all experiments:
//!
//! ```text
//! cargo run --release -p dynnet-bench --bin experiments -- all
//! ```

#![forbid(unsafe_code)]

pub mod exp;
