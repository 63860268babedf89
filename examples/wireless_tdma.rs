//! Wireless TDMA slot assignment — the paper's motivating application for
//! vertex coloring (Section 1.2): mobile nodes in the plane coordinate
//! access to a shared radio channel by transmitting in the slot given by
//! their current color. The dynamic coloring keeps the slot assignment
//! almost-always collision free even though links appear and disappear every
//! round; the residual collisions are handled by the simple randomized
//! contention-resolution strategy from the paper.
//!
//! The TDMA frames are simulated inside a streaming `RoundObserver` at the
//! sampled rounds, so the execution is never materialized.
//!
//! ```text
//! cargo run --release -p dynnet --example wireless_tdma
//! ```

use dynnet::algorithms::apps::tdma;
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use rand_chacha::ChaCha8Rng;

/// Runs one TDMA frame (plus contention resolution) every `stride` rounds.
struct FrameSampler {
    from: u64,
    stride: u64,
    contention_rng: ChaCha8Rng,
    rows: Vec<(u64, usize, usize, usize, usize, usize)>,
    worst_success_rate: f64,
}

impl RoundObserver<ColorOutput> for FrameSampler {
    fn on_round(&mut self, view: &RoundView<'_, ColorOutput>) {
        if view.round < self.from || !(view.round - self.from).is_multiple_of(self.stride) {
            return;
        }
        let g: &CsrGraph = view.graph;
        let colors: Vec<ColorOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(ColorOutput::Undecided))
            .collect();
        let frame = tdma::run_frame(g, &colors);
        let recovered = tdma::resolve_contention(g, &colors, &frame, 4, &mut self.contention_rng);
        self.worst_success_rate = self.worst_success_rate.min(frame.success_rate());
        self.rows.push((
            view.round,
            g.num_edges(),
            frame.frame_length,
            frame.successful,
            frame.collided,
            recovered,
        ));
    }
}

fn main() {
    let n = 150;
    let window = recommended_window(n);
    let rounds = 6 * window;

    // Random-waypoint mobility: each node moves toward a waypoint in the
    // unit square; the communication graph is the unit-disk graph of the
    // current positions.
    let mut sampler = FrameSampler {
        from: window as u64,
        stride: (window / 2) as u64,
        contention_rng: experiment_rng(99, "tdma-contention"),
        rows: Vec::new(),
        worst_success_rate: 1.0,
    };

    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(MobilityAdversary::new(
            MobilityConfig {
                n,
                radius: 0.14,
                min_speed: 0.002,
                max_speed: 0.01,
            },
            3,
        ))
        .seed(11)
        .rounds(rounds)
        .run(&mut [&mut sampler]);

    println!("mobile wireless network: n = {n}, T = {window}, {rounds} rounds\n");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>9} {:>10}",
        "round", "edges", "frame len", "success", "collide", "recovered"
    );
    for (round, edges, frame_len, success, collide, recovered) in &sampler.rows {
        println!(
            "{round:>6} {edges:>8} {frame_len:>10} {success:>10} {collide:>9} {recovered:>10}"
        );
    }
    println!(
        "\nworst per-frame success rate over the sampled rounds: {:.1}%",
        100.0 * sampler.worst_success_rate
    );
    println!(
        "(collisions can only involve edges that appeared within the last T = {window} rounds; \
         everything else is guaranteed collision free by Corollary 1.2)"
    );
}
