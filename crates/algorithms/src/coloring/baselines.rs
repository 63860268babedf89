//! Baseline coloring strategies used for comparison in the experiments.
//!
//! * [`RestartColoring`] — the strawman discussed in the introduction: run
//!   the basic static algorithm and simply restart it from scratch every
//!   `period` rounds (hoping the graph did not change too much in between).
//!   It provides no guarantee while a restart is in progress and its output
//!   churns heavily even on a static graph.
//! * [`oracle_coloring`] — a centralized greedy (degree+1)-coloring of a
//!   given snapshot (the "ideal" comparison point that a distributed
//!   algorithm cannot actually compute in a dynamic network).

use crate::coloring::basic::{BasicColoring, ColorMsg};
use dynnet_core::ColorOutput;
use dynnet_graph::{algo, Graph, NodeId};
use dynnet_runtime::{Incoming, NodeAlgorithm, NodeContext};

/// The restart-from-scratch baseline: a fresh [`BasicColoring`] instance is
/// started every `period` rounds and the previous one is thrown away.
#[derive(Clone, Debug)]
pub struct RestartColoring {
    node: NodeId,
    period: u64,
    rounds_since_restart: u64,
    inner: BasicColoring,
    /// Number of restarts performed so far.
    restarts: u64,
}

impl RestartColoring {
    /// Creates the baseline with the given restart period (≥ 1).
    pub fn new(node: NodeId, period: u64) -> Self {
        assert!(period >= 1);
        RestartColoring {
            node,
            period,
            rounds_since_restart: 0,
            inner: BasicColoring::new(node),
            restarts: 0,
        }
    }

    /// Number of restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }
}

impl NodeAlgorithm for RestartColoring {
    type Msg = ColorMsg;
    type Output = ColorOutput;

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> ColorMsg {
        if self.rounds_since_restart == self.period {
            self.inner = BasicColoring::new(self.node);
            self.rounds_since_restart = 0;
            self.restarts += 1;
        }
        self.rounds_since_restart += 1;
        self.inner.send(ctx)
    }

    fn receive(&mut self, ctx: &mut NodeContext<'_>, inbox: &[Incoming<ColorMsg>]) {
        self.inner.receive(ctx, inbox);
    }

    fn output(&self) -> ColorOutput {
        self.inner.output()
    }
}

/// Centralized greedy (degree+1)-coloring of a snapshot, returned in the same
/// output format as the distributed algorithms (inactive nodes stay `⊥`).
pub fn oracle_coloring(g: &Graph) -> Vec<ColorOutput> {
    algo::greedy_coloring(g)
        .into_iter()
        .map(|c| {
            if c == 0 {
                ColorOutput::Undecided
            } else {
                ColorOutput::Colored(c)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_adversary::{Scenario, StaticAdversary};
    use dynnet_core::{coloring::conflict_edges, output_churn_series, HasBottom};
    use dynnet_graph::generators;
    use dynnet_runtime::TraceRecorder;

    #[test]
    fn restart_baseline_churns_even_on_static_graphs() {
        let n = 30;
        let g = generators::erdos_renyi_avg_degree(
            n,
            5.0,
            &mut dynnet_runtime::rng::experiment_rng(3, "restart"),
        );
        let period = 20u64;
        let rounds = 120;
        let mut recorder = TraceRecorder::new();
        let runner = Scenario::new(n)
            .algorithm(move |v: NodeId| RestartColoring::new(v, period))
            .adversary(StaticAdversary::new(g))
            .seed(1)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let outputs: Vec<Vec<Option<ColorOutput>>> =
            (0..rounds).map(|r| record.outputs_at(r).to_vec()).collect();
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let churn = output_churn_series(&outputs, &nodes);
        // The total churn over the run is large (way beyond the one-time
        // convergence churn of roughly n changes).
        let total: usize = churn.iter().sum();
        assert!(
            total > 2 * n,
            "restart baseline must keep churning, churn = {total}"
        );
        // And there are rounds in the steady state where some node is ⊥.
        let undecided_late_round = (rounds / 2..rounds).any(|r| {
            outputs[r]
                .iter()
                .any(|o| o.map(|c| c.is_bottom()).unwrap_or(true))
        });
        assert!(
            undecided_late_round,
            "restarting forces ⊥ outputs long after start"
        );
        assert!(runner.sim().node(NodeId::new(0)).unwrap().restarts() >= 4);
    }

    #[test]
    fn restart_baseline_is_valid_right_before_a_restart() {
        let n = 20;
        let g = generators::cycle(n);
        let period = 40u64;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(move |v: NodeId| RestartColoring::new(v, period))
            .adversary(StaticAdversary::new(g.clone()))
            .seed(2)
            .rounds(period as usize)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let out: Vec<ColorOutput> = record
            .outputs_at(period as usize - 1)
            .iter()
            .map(|o| o.unwrap())
            .collect();
        assert!(out.iter().all(|o| o.is_decided()));
        assert_eq!(conflict_edges(&g, &out), 0);
    }

    #[test]
    fn oracle_coloring_is_proper() {
        let g = generators::erdos_renyi_avg_degree(
            50,
            6.0,
            &mut dynnet_runtime::rng::experiment_rng(4, "oracle"),
        );
        let out = oracle_coloring(&g);
        assert_eq!(conflict_edges(&g, &out), 0);
        assert!(out.iter().all(|o| o.is_decided()));
    }
}
