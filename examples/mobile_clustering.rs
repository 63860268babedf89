//! Mobile clustering with a dynamic MIS — the classic use of an MIS as a set
//! of cluster heads / monitoring nodes in a wireless ad-hoc network
//! (Section 1.2 of the paper). Every node is either a cluster head (MIS
//! member) or is dominated by one within the recent union graph, and cluster
//! heads in stable regions do not change even though the rest of the network
//! keeps moving.
//!
//! The cluster statistics are gathered by a custom sampling `RoundObserver`,
//! so nothing of the execution is materialized: memory stays O(window) for
//! the verifier plus O(n) for the sampler.
//!
//! ```text
//! cargo run --release -p dynnet --example mobile_clustering
//! ```

use dynnet::core::mis::mis_size;
use dynnet::prelude::*;

/// Samples cluster statistics every `stride` rounds (starting at `from`).
struct ClusterSampler {
    from: u64,
    stride: u64,
    prev_heads: Option<Vec<bool>>,
    rows: Vec<(u64, usize, usize, f64, usize)>,
}

impl RoundObserver<MisOutput> for ClusterSampler {
    fn on_round(&mut self, view: &RoundView<'_, MisOutput>) {
        if view.round < self.from || !(view.round - self.from).is_multiple_of(self.stride) {
            return;
        }
        let n = view.outputs.len();
        let heads: Vec<bool> = view
            .outputs
            .iter()
            .map(|o| o.map(|s| s.in_mis()).unwrap_or(false))
            .collect();
        let out: Vec<MisOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(MisOutput::Undecided))
            .collect();
        let head_count = mis_size(&out);
        let changes = self
            .prev_heads
            .as_ref()
            .map(|prev| (0..n).filter(|&i| prev[i] != heads[i]).count())
            .unwrap_or(0);
        self.rows.push((
            view.round,
            view.graph.num_edges(),
            head_count,
            n as f64 / head_count.max(1) as f64,
            changes,
        ));
        self.prev_heads = Some(heads);
    }
}

fn main() {
    let n = 180;
    let window = recommended_window(n);
    let rounds = 6 * window;

    let mut verifier = TDynamicVerifier::new(MisProblem, window);
    let mut sampler = ClusterSampler {
        from: window as u64,
        stride: (window / 2) as u64,
        prev_heads: None,
        rows: Vec::new(),
    };

    Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(MobilityAdversary::new(
            MobilityConfig {
                n,
                radius: 0.15,
                min_speed: 0.001,
                max_speed: 0.008,
            },
            17,
        ))
        .seed(23)
        .rounds(rounds)
        .run(&mut [&mut verifier, &mut sampler]);

    println!("mobile clustering: n = {n}, T = {window}, {rounds} rounds\n");

    // Per-sampled-round cluster statistics.
    println!(
        "{:>6} {:>8} {:>14} {:>16} {:>14}",
        "round", "edges", "cluster heads", "avg cluster size", "head changes"
    );
    for (round, edges, heads, avg_size, changes) in &sampler.rows {
        println!("{round:>6} {edges:>8} {heads:>14} {avg_size:>16.2} {changes:>14}");
    }

    // The headline guarantee over the whole run.
    let summary = verifier.summary();
    println!(
        "\nT-dynamic MIS valid in {}/{} checked rounds ({})",
        summary.rounds_valid,
        summary.rounds_checked,
        if summary.all_valid() { "✓" } else { "✗" }
    );
    println!(
        "every node is always a cluster head or dominated by one within the last T = {window} rounds"
    );
    // A failed verdict fails the run, so scripts and CI can rely on the
    // exit status.
    if !summary.all_valid() {
        std::process::exit(1);
    }
}
