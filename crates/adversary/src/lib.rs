//! # dynnet-adversary
//!
//! Dynamic-graph adversaries (workload generators) for the `dynnet`
//! reproduction of *"Local Distributed Algorithms in Highly Dynamic
//! Networks"*.
//!
//! The paper's dynamic graph is chosen by a worst-case adversary; this crate
//! provides a spectrum of adversaries ranging from fully static to
//! output-aware conflict seekers. Adversaries are *delta-native*: the round
//! loop asks them for the round's [`dynnet_graph::GraphDelta`]
//! ([`Adversary::next_delta`], the one required round method) and patches
//! one persistent graph, so a round costs `O(|δ|)` instead of a full graph
//! build.
//!
//! * [`StaticAdversary`], [`ScriptedAdversary`], [`PhaseAdversary`] — static
//!   graphs, recorded traces, and phase schedules.
//! * [`MarkovChurnAdversary`], [`FlipChurnAdversary`], [`RateChurnAdversary`],
//!   [`BurstAdversary`] — edge churn at configurable rates and periodic
//!   conflict-injection bursts.
//! * [`NodeChurnAdversary`], [`GrowthAdversary`] — nodes leaving/joining.
//! * [`MobilityAdversary`] — random-waypoint wireless ad-hoc mobility.
//! * [`LocallyStaticAdversary`] — keeps a protected region static while
//!   churning the rest (the workload behind the locally-static guarantees).
//! * [`ConflictSeekingAdversary`] — adaptive, output-aware attacks.
//! * [`Scenario`] / [`Runner`] — the unified execution API: builds one
//!   complete run (algorithm + adversary + wake-up + seed + rounds) and
//!   streams every round to pluggable [`dynnet_runtime::RoundObserver`]s.
//!   It is the one round loop; attach a [`dynnet_runtime::TraceRecorder`]
//!   to record an execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod churn;
pub mod locally_static;
pub mod mobility;
pub mod node_churn;
pub mod scenario;
pub mod simple;
pub mod traits;

pub use adaptive::ConflictSeekingAdversary;
pub use churn::{BurstAdversary, FlipChurnAdversary, MarkovChurnAdversary, RateChurnAdversary};
pub use locally_static::LocallyStaticAdversary;
pub use mobility::{MobilityAdversary, MobilityConfig};
pub use node_churn::{GrowthAdversary, NodeChurnAdversary};
pub use scenario::{Runner, Scenario};
pub use simple::{PhaseAdversary, ScriptedAdversary, StaticAdversary};
pub use traits::{Adversary, OutputAdversary};
