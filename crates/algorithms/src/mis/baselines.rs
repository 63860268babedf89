//! Baseline MIS strategies for comparison experiments.
//!
//! * [`RestartMis`] — restart Luby from scratch every `period` rounds (the
//!   recovery-period strawman from the introduction).
//! * [`oracle_mis`] — centralized greedy MIS of a snapshot.

use crate::mis::luby::{LubyMis, LubyMsg};
use dynnet_core::MisOutput;
use dynnet_graph::{algo, Graph, NodeId};
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};

/// Restart-from-scratch baseline: a fresh [`LubyMis`] instance every
/// `period` rounds.
#[derive(Clone, Debug)]
pub struct RestartMis {
    node: NodeId,
    period: u64,
    rounds_since_restart: u64,
    inner: LubyMis,
    restarts: u64,
}

impl RestartMis {
    /// Creates the baseline with the given restart period (≥ 1).
    pub fn new(node: NodeId, period: u64) -> Self {
        assert!(period >= 1);
        RestartMis {
            node,
            period,
            rounds_since_restart: 0,
            inner: LubyMis::new(node),
            restarts: 0,
        }
    }

    /// Number of restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }
}

impl NodeAlgorithm for RestartMis {
    type Msg = LubyMsg;
    type Output = MisOutput;

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> LubyMsg {
        if self.rounds_since_restart == self.period {
            self.inner = LubyMis::new(self.node);
            self.rounds_since_restart = 0;
            self.restarts += 1;
        }
        self.rounds_since_restart += 1;
        self.inner.send(ctx)
    }

    fn receive(&mut self, ctx: &mut NodeContext<'_>, inbox: &[Incoming<LubyMsg>]) {
        self.inner.receive(ctx, inbox);
    }

    fn output(&self) -> MisOutput {
        self.inner.output()
    }
}

/// Centralized greedy MIS of a snapshot, in the distributed output format.
pub fn oracle_mis(g: &Graph) -> Vec<MisOutput> {
    let mis = algo::greedy_mis(g);
    (0..g.num_nodes())
        .map(|i| {
            // INVARIANT: greedy_mis returns one flag per node of `g`.
            if mis[i] {
                MisOutput::InMis
            } else if g.is_active(NodeId::new(i)) {
                MisOutput::Dominated
            } else {
                MisOutput::Undecided
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_adversary::{Scenario, StaticAdversary};
    use dynnet_core::mis::{domination_violations, independence_violations};
    use dynnet_core::output_churn_series;
    use dynnet_graph::generators;
    use dynnet_runtime::TraceRecorder;

    #[test]
    fn restart_baseline_churns_on_static_graphs() {
        let n = 30;
        let g = generators::erdos_renyi_avg_degree(
            n,
            5.0,
            &mut dynnet_runtime::rng::experiment_rng(5, "restart-mis"),
        );
        let period = 20u64;
        let rounds = 120;
        let mut recorder = TraceRecorder::new();
        let runner = Scenario::new(n)
            .algorithm(move |v: NodeId| RestartMis::new(v, period))
            .adversary(StaticAdversary::new(g))
            .seed(1)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let outputs: Vec<Vec<Option<MisOutput>>> =
            (0..rounds).map(|r| record.outputs_at(r).to_vec()).collect();
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let total_churn: usize = output_churn_series(&outputs, &nodes).iter().sum();
        assert!(total_churn > 2 * n, "got churn {total_churn}");
        assert!(runner.sim().node(NodeId::new(0)).unwrap().restarts() >= 4);
    }

    #[test]
    fn restart_baseline_valid_right_before_restart() {
        let n = 24;
        let g = generators::cycle(n);
        let period = 40u64;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(move |v: NodeId| RestartMis::new(v, period))
            .adversary(StaticAdversary::new(g.clone()))
            .seed(2)
            .rounds(period as usize)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let out: Vec<MisOutput> = record
            .outputs_at(period as usize - 1)
            .iter()
            .map(|o| o.unwrap())
            .collect();
        assert_eq!(independence_violations(&g, &out), 0);
        assert_eq!(domination_violations(&g, &out), 0);
    }

    #[test]
    fn oracle_mis_is_maximal() {
        let g = generators::erdos_renyi_avg_degree(
            50,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(6, "oracle-mis"),
        );
        let out = oracle_mis(&g);
        assert_eq!(independence_violations(&g, &out), 0);
        assert_eq!(domination_violations(&g, &out), 0);
        assert!(out.iter().all(|o| *o != MisOutput::Undecided));
    }
}
