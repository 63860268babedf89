//! The unified `Scenario` execution API.
//!
//! The paper's results (Theorem 1.1, Corollaries 1.2/1.3) are statements
//! about whole executions: an adversary, a wake-up schedule, an algorithm,
//! and window verification driven together round by round. [`Scenario`] is
//! the one place that wires those pieces:
//!
//! ```
//! use dynnet_adversary::{Scenario, StaticAdversary};
//! use dynnet_graph::{generators, NodeId};
//! use dynnet_runtime::observer::ChurnStats;
//! use dynnet_runtime::{AllAtStart, Incoming, NodeAlgorithm, NodeContext};
//!
//! #[derive(Clone)]
//! struct MaxFlood(u32);
//! impl NodeAlgorithm for MaxFlood {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn send(&mut self, _ctx: &mut NodeContext<'_>) -> u32 { self.0 }
//!     fn receive(&mut self, _ctx: &mut NodeContext<'_>, inbox: &[Incoming<u32>]) {
//!         for (_, m) in inbox { self.0 = self.0.max(*m); }
//!     }
//!     fn output(&self) -> u32 { self.0 }
//! }
//!
//! let n = 8;
//! let mut churn = ChurnStats::new();
//! let runner = Scenario::new(n)
//!     .algorithm(|v: NodeId| MaxFlood(v.0))
//!     .adversary(StaticAdversary::new(generators::path(n)))
//!     .wakeup(AllAtStart)
//!     .seed(7)
//!     .rounds(n)
//!     .run(&mut [&mut churn]);
//! assert_eq!(runner.outputs()[0], Some(n as u32 - 1));
//! assert_eq!(churn.series().len(), n);
//! ```
//!
//! The builder produces a [`Runner`], the workspace's one round loop: it
//! asks the adversary for each round's delta, executes the round with
//! [`Simulator::step_delta`], and streams a borrowed [`RoundView`] to any
//! number of [`RoundObserver`]s — metrics, T-dynamic verification, and
//! trace recording ([`dynnet_runtime::TraceRecorder`]) plug in without an
//! `O(n · rounds)` materialization of the execution.

use crate::traits::OutputAdversary;
use dynnet_graph::{Graph, GraphDelta};
use dynnet_runtime::observer::{RoundObserver, RoundView};
use dynnet_runtime::{
    AlgorithmFactory, AllAtStart, NodeAlgorithm, SimConfig, Simulator, WakeupSchedule,
};

/// Builder for one complete execution: universe size, algorithm factory,
/// adversary, wake-up schedule, seed/parallelism, and round budget.
///
/// `algorithm`, `adversary`, and `wakeup` change the builder's type; the
/// remaining setters are plain field updates. Terminal methods:
/// [`Scenario::runner`] (manual stepping), [`Scenario::run`] (drive to the
/// round budget), [`Scenario::run_until`] (drive until a predicate fires).
///
/// This is the way to execute rounds against an adversary: the [`Runner`]
/// it builds is the only round loop in the workspace. Fixed topologies are
/// [`crate::StaticAdversary`]; recorded or hand-written graph sequences are
/// [`crate::ScriptedAdversary`].
pub struct Scenario<F, W, Adv> {
    n: usize,
    factory: F,
    wakeup: W,
    adversary: Adv,
    config: SimConfig,
    rounds: usize,
}

/// Scenarios whose parts are cloneable are cloneable — a sweep can hold one
/// fully configured scenario as a template and stamp out per-cell copies
/// (changing only the seed, adversary, …) on whichever worker thread runs
/// the cell.
impl<F: Clone, W: Clone, Adv: Clone> Clone for Scenario<F, W, Adv> {
    fn clone(&self) -> Self {
        Scenario {
            n: self.n,
            factory: self.factory.clone(),
            wakeup: self.wakeup.clone(),
            adversary: self.adversary.clone(),
            config: self.config.clone(),
            rounds: self.rounds,
        }
    }
}

impl Scenario<(), AllAtStart, ()> {
    /// Starts a scenario over a universe of `n` nodes with the defaults:
    /// synchronous start ([`AllAtStart`]), seed 0, sequential execution.
    /// An algorithm, an adversary, and a round budget must be supplied
    /// before the scenario can run.
    pub fn new(n: usize) -> Self {
        Scenario {
            n,
            factory: (),
            wakeup: AllAtStart,
            adversary: (),
            config: SimConfig::default(),
            rounds: 0,
        }
    }
}

impl<F, W, Adv> Scenario<F, W, Adv> {
    /// Sets the per-node algorithm factory (e.g. `dynamic_coloring(window)`
    /// or a `|v: NodeId| …` closure).
    pub fn algorithm<F2>(self, factory: F2) -> Scenario<F2, W, Adv> {
        Scenario {
            n: self.n,
            factory,
            wakeup: self.wakeup,
            adversary: self.adversary,
            config: self.config,
            rounds: self.rounds,
        }
    }

    /// Sets the adversary producing the communication graph of every round.
    pub fn adversary<Adv2>(self, adversary: Adv2) -> Scenario<F, W, Adv2> {
        Scenario {
            n: self.n,
            factory: self.factory,
            wakeup: self.wakeup,
            adversary,
            config: self.config,
            rounds: self.rounds,
        }
    }

    /// Sets the wake-up schedule (default: [`AllAtStart`]).
    pub fn wakeup<W2: WakeupSchedule>(self, wakeup: W2) -> Scenario<F, W2, Adv> {
        Scenario {
            n: self.n,
            factory: self.factory,
            wakeup,
            adversary: self.adversary,
            config: self.config,
            rounds: self.rounds,
        }
    }

    /// Sets the experiment seed all node randomness derives from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables or disables the parallel per-node phases.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.config.parallel = parallel;
        self
    }

    /// Sets the minimum number of awake nodes before the parallel path is
    /// used.
    pub fn parallel_threshold(mut self, threshold: usize) -> Self {
        self.config.parallel_threshold = threshold;
        self
    }

    /// Replaces the whole simulator configuration at once.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the round budget (required, ≥ 1).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }
}

impl<F, W: WakeupSchedule, Adv> Scenario<F, W, Adv> {
    /// Builds the [`Runner`] without executing any round (manual stepping).
    pub fn runner<A>(self) -> Runner<A, F, W, Adv>
    where
        A: NodeAlgorithm,
        F: AlgorithmFactory<A>,
        Adv: OutputAdversary<A::Output>,
    {
        assert!(self.rounds >= 1, "Scenario requires .rounds(r) with r >= 1");
        Runner {
            sim: Simulator::new(self.n, self.factory, self.wakeup, self.config),
            adversary: self.adversary,
            rounds: self.rounds,
            executed: 0,
            current_graph: None,
        }
    }

    /// Executes the full round budget, streaming every round to `observers`,
    /// and returns the completed [`Runner`] (for inspecting final outputs or
    /// node state).
    pub fn run<A>(self, observers: &mut [&mut dyn RoundObserver<A::Output>]) -> Runner<A, F, W, Adv>
    where
        A: NodeAlgorithm,
        F: AlgorithmFactory<A>,
        Adv: OutputAdversary<A::Output>,
    {
        let mut runner = self.runner();
        runner.run(observers);
        runner
    }

    /// Executes rounds until `stop` returns `true` for a round's view (or the
    /// round budget is exhausted), then returns the completed [`Runner`].
    /// `Runner::rounds_executed` tells how many rounds actually ran.
    pub fn run_until<A>(
        self,
        observers: &mut [&mut dyn RoundObserver<A::Output>],
        stop: impl FnMut(&RoundView<'_, A::Output>) -> bool,
    ) -> Runner<A, F, W, Adv>
    where
        A: NodeAlgorithm,
        F: AlgorithmFactory<A>,
        Adv: OutputAdversary<A::Output>,
    {
        let mut runner = self.runner();
        runner.run_until(observers, stop);
        runner
    }
}

/// Outcome of advancing the round loop by one round.
enum Advance {
    /// The round executed; the stop predicate did not fire.
    Continued,
    /// The round executed and the stop predicate fired.
    Stopped,
    /// The round budget was already exhausted; nothing executed.
    Exhausted,
}

/// Drives one [`Simulator`] against one adversary for a bounded number of
/// rounds, streaming each round to the registered observers. Built by
/// [`Scenario::runner`].
pub struct Runner<A, F, W, Adv>
where
    A: NodeAlgorithm,
    F: AlgorithmFactory<A>,
    W: WakeupSchedule,
    Adv: OutputAdversary<A::Output>,
{
    sim: Simulator<A, F, W>,
    adversary: Adv,
    rounds: usize,
    executed: usize,
    /// The one persistent adversary graph of the run: round 0's graph,
    /// patched in place by each round's [`dynnet_graph::GraphDelta`] — the
    /// adversary never hands back (and the runner never clones) a whole
    /// graph after round 0. `None` before round 0.
    current_graph: Option<Graph>,
}

impl<A, F, W, Adv> Runner<A, F, W, Adv>
where
    A: NodeAlgorithm,
    F: AlgorithmFactory<A>,
    W: WakeupSchedule,
    Adv: OutputAdversary<A::Output>,
{
    fn advance(
        &mut self,
        observers: &mut [&mut dyn RoundObserver<A::Output>],
        stop: &mut dyn FnMut(&RoundView<'_, A::Output>) -> bool,
    ) -> Advance {
        if self.executed >= self.rounds {
            return Advance::Exhausted;
        }
        let round = self.executed as u64;
        let _round_span = dynnet_obs::phase_span_arg("round", "round", "round", round);
        let (graph, delta) = match &mut self.current_graph {
            // Round 0 has no previous graph: the simulator builds its
            // effective CSR from the initial graph and ignores the delta.
            slot @ None => {
                let _span = dynnet_obs::phase_span("round", "adv_delta");
                (
                    slot.insert(self.adversary.initial_graph()),
                    GraphDelta::new(),
                )
            }
            // The adversary sees the previous round's outputs only — never
            // the current round's randomness (it stays 1-oblivious). It
            // hands back the round's delta, which is applied to the
            // persistent graph and patched into the simulator's incremental
            // effective CSR: per-round cost is O(|δ|) on the sparse-churn
            // path, with no graph clones and no full CSR rebuilds.
            Some(graph) => {
                let _span = dynnet_obs::phase_span("round", "adv_delta");
                let delta = self.adversary.next_delta(round, graph, self.sim.outputs());
                delta.apply(graph);
                (graph, delta)
            }
        };
        let summary = self.sim.step_delta(graph, &delta);
        self.executed += 1;
        // Observers consume `delta` (round 0's is from the all-asleep
        // graph); an observer that asks `RoundView::current_graph` pays one
        // conversion per round, shared through this cell.
        let graph_cell = std::cell::OnceCell::new();
        let view = RoundView {
            round: summary.round,
            graph: &summary.graph,
            delta: Some(&summary.delta),
            outputs: self.sim.outputs(),
            changed_outputs: Some(&summary.changed_outputs),
            newly_awake: &summary.newly_awake,
            num_awake: summary.num_awake,
            graph_cell: &graph_cell,
        };
        {
            let _span = dynnet_obs::phase_span("round", "observers");
            for obs in observers.iter_mut() {
                obs.on_round(&view);
            }
        }
        if stop(&view) {
            Advance::Stopped
        } else {
            Advance::Continued
        }
    }

    /// Mirrors the simulator's [`dynnet_runtime::DeltaStats`] into the
    /// unified metric registry (`sim.rounds_patched`, `sim.full_csr_builds`,
    /// `sim.cow_clones`, `sim.compactions`), *adding* this run's counts so
    /// multi-run processes accumulate. Called by [`Runner::run`] /
    /// [`Runner::run_until`] at the end of the execution.
    fn export_delta_stats(&self) {
        let stats = self.sim.delta_stats();
        let reg = dynnet_obs::registry();
        reg.counter("sim.rounds_patched")
            .add(stats.rounds_patched as u64);
        reg.counter("sim.full_csr_builds")
            .add(stats.full_csr_builds as u64);
        reg.counter("sim.cow_clones").add(stats.cow_clones as u64);
        reg.counter("sim.compactions").add(stats.compactions as u64);
    }

    /// Executes one round, streaming it to `observers`. Returns `false` once
    /// the round budget is exhausted (no round executed). Manual stepping
    /// does not call [`RoundObserver::finish`]; invoke it yourself (or use
    /// [`Runner::run`]).
    pub fn step(&mut self, observers: &mut [&mut dyn RoundObserver<A::Output>]) -> bool {
        !matches!(self.advance(observers, &mut |_| false), Advance::Exhausted)
    }

    /// Executes all remaining rounds, then calls [`RoundObserver::finish`] on
    /// every observer. Returns the total number of rounds executed.
    pub fn run(&mut self, observers: &mut [&mut dyn RoundObserver<A::Output>]) -> usize {
        while let Advance::Continued = self.advance(observers, &mut |_| false) {}
        self.export_delta_stats();
        for obs in observers.iter_mut() {
            obs.finish();
        }
        self.executed
    }

    /// Executes rounds until `stop` returns `true` or the budget runs out,
    /// then calls [`RoundObserver::finish`]. Returns the total number of
    /// rounds executed.
    pub fn run_until(
        &mut self,
        observers: &mut [&mut dyn RoundObserver<A::Output>],
        mut stop: impl FnMut(&RoundView<'_, A::Output>) -> bool,
    ) -> usize {
        while let Advance::Continued = self.advance(observers, &mut stop) {}
        self.export_delta_stats();
        for obs in observers.iter_mut() {
            obs.finish();
        }
        self.executed
    }

    /// Number of rounds executed so far.
    pub fn rounds_executed(&self) -> usize {
        self.executed
    }

    /// The configured round budget.
    pub fn round_budget(&self) -> usize {
        self.rounds
    }

    /// The most recent outputs (as of the last executed round).
    pub fn outputs(&self) -> &[Option<A::Output>] {
        self.sim.outputs()
    }

    /// Immutable access to the underlying simulator (node state inspection).
    pub fn sim(&self) -> &Simulator<A, F, W> {
        &self.sim
    }

    /// Immutable access to the adversary.
    pub fn adversary(&self) -> &Adv {
        &self.adversary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::FlipChurnAdversary;
    use crate::simple::StaticAdversary;
    use dynnet_graph::{generators, NodeId};
    use dynnet_runtime::observer::{ChurnStats, ConvergenceTracker, TraceRecorder};
    use dynnet_runtime::rng::experiment_rng;
    use dynnet_runtime::{Incoming, NodeContext, ScriptedWakeup};

    /// Flooding: every node outputs the maximum id heard so far.
    #[derive(Clone)]
    struct MaxFlood(u32);

    impl NodeAlgorithm for MaxFlood {
        type Msg = u32;
        type Output = u32;
        fn send(&mut self, _ctx: &mut NodeContext<'_>) -> u32 {
            self.0
        }
        fn receive(&mut self, _ctx: &mut NodeContext<'_>, inbox: &[Incoming<u32>]) {
            for (_, m) in inbox {
                self.0 = self.0.max(*m);
            }
        }
        fn output(&self) -> u32 {
            self.0
        }
    }

    #[test]
    fn trace_recorder_forces_no_copy_on_write() {
        // Recording outputs must not retain the round's graph snapshot: a
        // retained `Arc` would force a copy of the effective CSR in every
        // patched round.
        let n = 24;
        let footprint = generators::erdos_renyi_avg_degree(n, 4.0, &mut experiment_rng(1, "sc"));
        let rounds = 20;
        let mut recorder = TraceRecorder::new();
        let runner = Scenario::new(n)
            .algorithm(|v: NodeId| MaxFlood(v.0))
            .adversary(FlipChurnAdversary::new(&footprint, 0.05, 9))
            .seed(5)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let stats = runner.sim().delta_stats();
        assert_eq!(stats.cow_clones, 0);
        assert_eq!(stats.full_csr_builds + stats.rounds_patched, rounds);
        let record = recorder.into_record();
        assert_eq!(record.num_rounds(), rounds);
        assert_eq!(record.outputs_at(rounds - 1), runner.outputs());
    }

    #[test]
    fn run_until_stops_early() {
        let n = 10;
        let runner = Scenario::new(n)
            .algorithm(|v: NodeId| MaxFlood(v.0))
            .adversary(StaticAdversary::new(generators::complete(n)))
            .rounds(50)
            .run_until(&mut [], |view| {
                view.outputs.iter().all(|o| *o == Some(n as u32 - 1))
            });
        // On a complete graph flooding converges after one round.
        assert_eq!(runner.rounds_executed(), 1);
    }

    #[test]
    fn observers_see_every_round_and_wakeups() {
        let n = 4;
        let mut churn = ChurnStats::new();
        let mut conv = ConvergenceTracker::new(|&o: &u32| o == 3);
        let runner = Scenario::new(n)
            .algorithm(|v: NodeId| MaxFlood(v.0))
            .adversary(StaticAdversary::new(generators::path(n)))
            .wakeup(ScriptedWakeup {
                rounds: vec![0, 0, 0, 2],
            })
            .rounds(8)
            .run(&mut [&mut churn, &mut conv]);
        assert_eq!(churn.series().len(), 8);
        assert_eq!(conv.wake_round(NodeId::new(3)), Some(2));
        assert!(conv.all_done_round().is_some());
        assert_eq!(runner.outputs()[0], Some(3));
        assert_eq!(runner.sim().num_awake(), 4);
    }

    #[test]
    #[should_panic(expected = "rounds")]
    fn missing_round_budget_panics() {
        let _ = Scenario::new(3)
            .algorithm(|v: NodeId| MaxFlood(v.0))
            .adversary(StaticAdversary::new(generators::path(3)))
            .runner::<MaxFlood>();
    }
}
