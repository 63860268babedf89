//! Corollary 1.3: the combined dynamic MIS algorithm.
//!
//! `Concat` (Theorem 1.1) applied to the `(O(log n), 2)`-network-static
//! [`SMis`] and the `O(log n)`-dynamic [`DMis`]: in every round the output is
//! a `T`-dynamic MIS (independent on `G^∩T`, dominating on `G^∪T`), and the
//! output of a node whose 2-neighborhood is static during `[r, r2]` does not
//! change during `[r + 2T, r2]`.

use crate::mis::dmis::DMis;
use crate::mis::smis::SMis;
use dynnet_core::concat::{Concat, ConcatFactory};
use dynnet_core::MisOutput;
use dynnet_graph::NodeId;

/// Factory closure type for SMis instances (captures `n`).
pub type SMisFactory = Box<dyn Fn(NodeId) -> SMis + Send + Sync>;
/// Factory type for DMis instances.
pub type DMisFactory = fn(NodeId, MisOutput) -> DMis;

/// The combined algorithm's per-node type.
pub type DynamicMis = Concat<SMis, DMis, DMisFactory>;

/// The simulator factory for the combined MIS algorithm of Corollary 1.3.
pub type DynamicMisFactory = ConcatFactory<SMis, DMis, SMisFactory, DMisFactory>;

/// Builds the Corollary 1.3 algorithm for a universe of `n` nodes with window
/// size `window` (use [`dynnet_core::recommended_window`] for the default).
pub fn dynamic_mis(n: usize, window: usize) -> DynamicMisFactory {
    let sfactory: SMisFactory = Box::new(move |v: NodeId| SMis::new(v, n));
    ConcatFactory::new(window, sfactory, DMis::new as DMisFactory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_adversary::{
        FlipChurnAdversary, LocallyStaticAdversary, MobilityAdversary, MobilityConfig, Scenario,
        StaticAdversary,
    };
    use dynnet_core::mis::{domination_violations, independence_violations};
    use dynnet_core::{recommended_window, verify_t_dynamic_run, HasBottom, MisProblem};
    use dynnet_graph::{generators, Graph};
    use dynnet_runtime::TraceRecorder;

    #[test]
    fn t_dynamic_mis_in_every_round_under_churn() {
        let n = 48;
        let window = recommended_window(n);
        let footprint = generators::erdos_renyi_avg_degree(
            n,
            5.0,
            &mut dynnet_runtime::rng::experiment_rng(11, "combined-mis"),
        );
        let rounds = window * 3;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_mis(n, window))
            .adversary(FlipChurnAdversary::new(&footprint, 0.03, 13))
            .seed(7)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let graphs: Vec<Graph> = record.trace.iter().collect();
        let outputs: Vec<Vec<Option<MisOutput>>> =
            (0..rounds).map(|r| record.outputs_at(r).to_vec()).collect();
        let summary = verify_t_dynamic_run(&MisProblem, &graphs, &outputs, window, window - 1);
        assert!(
            summary.all_valid(),
            "invalid rounds: {:?}",
            summary.invalid_rounds
        );
    }

    #[test]
    fn static_graph_yields_a_plain_mis_that_freezes() {
        let n = 42;
        let window = recommended_window(n);
        let g = generators::random_geometric(
            n,
            0.25,
            &mut dynnet_runtime::rng::experiment_rng(12, "combined-mis-static"),
        );
        let rounds = window * 3;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_mis(n, window))
            .adversary(StaticAdversary::new(g.clone()))
            .seed(8)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let out: Vec<MisOutput> = record
            .outputs_at(rounds - 1)
            .iter()
            .map(|o| o.unwrap())
            .collect();
        assert!(out.iter().all(|o| o.is_decided()));
        assert_eq!(independence_violations(&g, &out), 0);
        assert_eq!(domination_violations(&g, &out), 0);
        let freeze_from = 2 * window;
        let reference = record.outputs_at(freeze_from).to_vec();
        for r in freeze_from..rounds {
            assert_eq!(record.outputs_at(r), &reference[..], "changed in round {r}");
        }
    }

    #[test]
    fn locally_static_region_stabilizes_within_two_windows() {
        let n = 49;
        let window = recommended_window(n);
        let base = generators::grid(7, 7);
        let seed_node = dynnet_graph::NodeId::new(24);
        let rounds = window * 4;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_mis(n, window))
            .adversary(LocallyStaticAdversary::new(
                base,
                vec![seed_node],
                2,
                0.25,
                37,
            ))
            .seed(9)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let stable_from = 2 * window;
        let reference = record.outputs_at(stable_from)[seed_node.index()].unwrap();
        assert!(reference.is_decided());
        for r in stable_from..rounds {
            assert_eq!(record.outputs_at(r)[seed_node.index()].unwrap(), reference);
        }
    }

    #[test]
    fn works_under_mobility() {
        let n = 40;
        let window = recommended_window(n);
        let rounds = window * 3;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_mis(n, window))
            .adversary(MobilityAdversary::new(
                MobilityConfig {
                    n,
                    radius: 0.25,
                    min_speed: 0.002,
                    max_speed: 0.01,
                },
                41,
            ))
            .seed(10)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let graphs: Vec<Graph> = record.trace.iter().collect();
        let outputs: Vec<Vec<Option<MisOutput>>> =
            (0..rounds).map(|r| record.outputs_at(r).to_vec()).collect();
        let summary = verify_t_dynamic_run(&MisProblem, &graphs, &outputs, window, window - 1);
        assert!(
            summary.all_valid(),
            "invalid rounds: {:?}",
            summary.invalid_rounds
        );
    }
}
