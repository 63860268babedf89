//! # dynnet-metrics
//!
//! Measurement utilities for the `dynnet` experiments: summary statistics,
//! per-round time series with convergence/decay detection, least-squares
//! model fitting (for the `O(log n)` shape checks), and Markdown/CSV table
//! writers the experiment harness renders its `results/eN.md` tables with.
//!
//! In the delta pipeline this crate sits *downstream* of the streaming
//! observers: per-round series ([`Series`]) are filled by
//! `dynnet_runtime::RoundObserver`s as the execution streams by, and sweep
//! results are folded into [`Table`]s in deterministic grid order via
//! [`RowSink`] (keyed row assembly, so out-of-order completion from the
//! work-stealing sweep engine cannot perturb output bytes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod series;
pub mod stats;
pub mod table;

pub use fit::{linear_fit, linear_in_n_fit, log_fit, LinearFit};
pub use series::Series;
pub use stats::{quantile_sorted, Summary};
pub use table::{fmt2, fmt_pct, RowSink, Table};
