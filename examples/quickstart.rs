//! Quickstart: run the combined dynamic (degree+1)-coloring of Corollary 1.2
//! on a churning random network and verify, round by round, that the output
//! is a T-dynamic solution — all through the unified `Scenario` API with
//! streaming observers.
//!
//! ```text
//! cargo run --release -p dynnet --example quickstart
//! ```

use dynnet::core::coloring::{conflict_edges, max_color_used};
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;

fn main() {
    // 1. A network of n potential nodes whose footprint is a random
    //    geometric graph; every footprint edge flips with 2% probability per
    //    round — topology changes happen in *every* round.
    let n = 200;
    let window = recommended_window(n);
    let rounds = 4 * window;
    let footprint = generators::random_geometric(n, 0.12, &mut experiment_rng(1, "quickstart"));
    println!(
        "n = {n} nodes, footprint edges = {}, window T = {window}",
        footprint.num_edges()
    );

    // 2. Observers: the streaming T-dynamic verifier (holds only O(window)
    //    graphs) and a graphs-only trace recorder (stores per-round deltas,
    //    so memory is proportional to topology change).
    let mut verifier = TDynamicVerifier::new(ColoringProblem, window);
    let mut recorder = TraceRecorder::graphs_only();

    // 3. One Scenario wires the whole execution: the combined algorithm of
    //    Corollary 1.2 (Concat(SColor, DColor)), the churn adversary, the
    //    wake-up schedule, the seed, and the round budget.
    let runner = Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(FlipChurnAdversary::new(&footprint, 0.02, 42))
        .wakeup(AllAtStart)
        .seed(7)
        .rounds(rounds)
        .run(&mut [&mut verifier, &mut recorder]);

    // 4. The headline guarantee: from round T-1 on, every round's output is
    //    a T-dynamic coloring (proper on G^∩T, degree-bounded on G^∪T).
    let summary = verifier.summary();
    let all_valid = summary.all_valid();
    println!(
        "rounds checked: {}, valid: {} ({})",
        summary.rounds_checked,
        summary.rounds_valid,
        if all_valid {
            "all rounds valid ✓"
        } else {
            "violations found ✗"
        }
    );

    // 5. Peek at the final round.
    let trace = recorder.into_trace().expect("recorded trace");
    let final_graph = trace.graph_at(rounds - 1);
    let final_out: Vec<ColorOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(ColorOutput::Undecided))
        .collect();
    let undecided = final_out.iter().filter(|o| o.is_bottom()).count();
    println!(
        "final round: {} colors in use (max degree {}), {} conflicts on the current graph, {} undecided nodes",
        max_color_used(&final_out),
        final_graph.max_degree(),
        conflict_edges(&final_graph, &final_out),
        undecided
    );

    // 6. Total topology churn the algorithm had to absorb.
    println!(
        "total edge changes over {} rounds: {}",
        rounds,
        trace.total_edge_changes()
    );

    // A failed verdict fails the run, so scripts and CI can rely on the
    // exit status.
    if !all_valid {
        std::process::exit(1);
    }
}
