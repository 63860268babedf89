//! Corollary 1.2: the combined dynamic (degree+1)-coloring algorithm.
//!
//! `Concat` (Theorem 1.1) applied to the `(O(log n), 2)`-network-static
//! [`SColor`] and the `O(log n)`-dynamic [`DColor`]: in every round the
//! output is a `T`-dynamic coloring, and the output of a node whose
//! 2-neighborhood is static during `[r, r2]` does not change during
//! `[r + 2T, r2]`.

use crate::coloring::dcolor::DColor;
use crate::coloring::scolor::SColor;
use dynnet_core::concat::{Concat, ConcatFactory};
use dynnet_core::ColorOutput;
use dynnet_graph::NodeId;

/// Factory type for SColor instances.
pub type SColorFactory = fn(NodeId) -> SColor;
/// Factory type for DColor instances.
pub type DColorFactory = fn(NodeId, ColorOutput) -> DColor;

/// The combined algorithm's per-node type.
pub type DynamicColoring = Concat<SColor, DColor, DColorFactory>;

/// The simulator factory for the combined coloring algorithm of
/// Corollary 1.2 with window parameter `T1 = window`.
pub type DynamicColoringFactory = ConcatFactory<SColor, DColor, SColorFactory, DColorFactory>;

/// Builds the Corollary 1.2 algorithm with window size `window` (use
/// [`dynnet_core::recommended_window`] for the `Θ(log n)` default).
pub fn dynamic_coloring(window: usize) -> DynamicColoringFactory {
    ConcatFactory::new(
        window,
        SColor::new as SColorFactory,
        DColor::new as DColorFactory,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_adversary::{
        BurstAdversary, FlipChurnAdversary, LocallyStaticAdversary, Scenario, StaticAdversary,
    };
    use dynnet_core::{
        coloring::conflict_edges, recommended_window, verify_t_dynamic_run, ColoringProblem,
        HasBottom,
    };
    use dynnet_graph::{generators, Graph, NodeId};
    use dynnet_runtime::{ExecutionRecord, TraceRecorder};

    fn collect_outputs(
        record: &ExecutionRecord<ColorOutput>,
    ) -> (Vec<Graph>, Vec<Vec<Option<ColorOutput>>>) {
        let graphs: Vec<Graph> = record.trace.iter().collect();
        let outputs = (0..record.num_rounds())
            .map(|r| record.outputs_at(r).to_vec())
            .collect();
        (graphs, outputs)
    }

    #[test]
    fn t_dynamic_in_every_round_under_churn() {
        let n = 48;
        let window = recommended_window(n);
        let footprint = generators::erdos_renyi_avg_degree(
            n,
            5.0,
            &mut dynnet_runtime::rng::experiment_rng(7, "combined-col"),
        );
        let rounds = window * 3;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_coloring(window))
            .adversary(FlipChurnAdversary::new(&footprint, 0.03, 5))
            .seed(3)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let (graphs, outputs) = collect_outputs(&record);
        let summary = verify_t_dynamic_run(&ColoringProblem, &graphs, &outputs, window, window - 1);
        assert!(
            summary.all_valid(),
            "invalid rounds: {:?}",
            summary.invalid_rounds
        );
    }

    #[test]
    fn static_graph_behaves_like_static_coloring() {
        let n = 40;
        let window = recommended_window(n);
        let g = generators::random_geometric(
            n,
            0.25,
            &mut dynnet_runtime::rng::experiment_rng(8, "combined-static"),
        );
        let rounds = window * 3;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_coloring(window))
            .adversary(StaticAdversary::new(g.clone()))
            .seed(4)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let out: Vec<ColorOutput> = record
            .outputs_at(rounds - 1)
            .iter()
            .map(|o| o.unwrap_or(ColorOutput::Undecided))
            .collect();
        assert!(out.iter().all(|o| o.is_decided()));
        assert_eq!(conflict_edges(&g, &out), 0);
        // Locally static everywhere ⇒ output frozen after 2 * window rounds.
        let freeze_from = 2 * window;
        let reference = record.outputs_at(freeze_from).to_vec();
        for r in freeze_from..rounds {
            assert_eq!(
                record.outputs_at(r),
                &reference[..],
                "output changed in round {r}"
            );
        }
    }

    #[test]
    fn conflicts_from_injected_edges_resolve_within_a_window() {
        let n = 36;
        let window = recommended_window(n);
        let base = generators::grid(6, 6);
        let rounds = window * 4;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_coloring(window))
            .adversary(BurstAdversary::new(
                base,
                2 * window as u64,
                10 * window as u64,
                4,
                9,
            ))
            .seed(5)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        // Count, per round, conflicts on the *current* graph; they may appear
        // when a burst lands but must be gone again within `window` rounds.
        let mut conflict_rounds: Vec<usize> = Vec::new();
        for r in window..rounds {
            let g = record.graph_at(r);
            let out: Vec<ColorOutput> = record
                .outputs_at(r)
                .iter()
                .map(|o| o.unwrap_or(ColorOutput::Undecided))
                .collect();
            if conflict_edges(&g, &out) > 0 {
                conflict_rounds.push(r);
            }
        }
        // Conflicts are allowed only transiently: no run of `window`
        // consecutive conflict rounds.
        let mut longest = 0usize;
        let mut cur = 0usize;
        let mut prev: Option<usize> = None;
        for &r in &conflict_rounds {
            cur = match prev {
                Some(p) if r == p + 1 => cur + 1,
                _ => 1,
            };
            longest = longest.max(cur);
            prev = Some(r);
        }
        assert!(
            longest < window,
            "a conflict persisted for {longest} ≥ T = {window} rounds"
        );
    }

    #[test]
    fn locally_static_region_stabilizes_within_two_windows() {
        let n = 49;
        let window = recommended_window(n);
        let base = generators::grid(7, 7);
        let seed_node = NodeId::new(24);
        let rounds = window * 4;
        let mut recorder = TraceRecorder::new();
        Scenario::new(n)
            .algorithm(dynamic_coloring(window))
            .adversary(LocallyStaticAdversary::new(
                base,
                vec![seed_node],
                2,
                0.25,
                31,
            ))
            .seed(6)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        let record = recorder.into_record();
        let stable_from = 2 * window;
        let reference = record.outputs_at(stable_from)[seed_node.index()].unwrap();
        assert!(reference.is_decided());
        for r in stable_from..rounds {
            assert_eq!(
                record.outputs_at(r)[seed_node.index()].unwrap(),
                reference,
                "protected node changed its color in round {r}"
            );
        }
    }
}
