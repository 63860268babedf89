//! Integration tests for Corollary 1.2 (dynamic (degree+1)-coloring):
//! conflict-resolution latency after adversarial edge insertions, color-range
//! bounds under churn, and behaviour under mobility — driven through the
//! `Scenario` API with streaming observers.

use dynnet::algorithms::apps::tdma;
use dynnet::core::coloring::{conflict_edges, max_color_used};
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;

/// Streaming observer: longest streak of consecutive rounds (from `from` on)
/// with at least one conflict on the current graph.
struct ConflictStreak {
    from: u64,
    current: usize,
    longest: usize,
}

impl RoundObserver<ColorOutput> for ConflictStreak {
    fn on_round(&mut self, view: &RoundView<'_, ColorOutput>) {
        if view.round < self.from {
            return;
        }
        let g = view.current_graph();
        let out: Vec<ColorOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(ColorOutput::Undecided))
            .collect();
        if conflict_edges(g, &out) > 0 {
            self.current += 1;
            self.longest = self.longest.max(self.current);
        } else {
            self.current = 0;
        }
    }
}

#[test]
fn injected_conflicts_resolve_within_one_window() {
    let n = 49;
    let window = recommended_window(n);
    let base = generators::grid(7, 7);
    let rounds = 5 * window;

    // Longest consecutive run of rounds with at least one conflict on the
    // current graph must stay below the window size T.
    let mut streak = ConflictStreak {
        from: window as u64,
        current: 0,
        longest: 0,
    };
    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(BurstAdversary::new(
            base,
            (2 * window) as u64,
            (10 * window) as u64,
            5,
            2,
        ))
        .seed(1)
        .rounds(rounds)
        .run(&mut [&mut streak]);
    assert!(
        streak.longest < window,
        "conflicts persisted {} ≥ T = {window} rounds",
        streak.longest
    );
}

/// Streaming observer: asserts the covering bound per round against the
/// window's union degree, keeping only an O(window) graph ring.
struct UnionDegreeBound {
    window: GraphWindow,
    check_from: u64,
}

impl RoundObserver<ColorOutput> for UnionDegreeBound {
    fn on_round(&mut self, view: &RoundView<'_, ColorOutput>) {
        self.window.push(view.current_graph());
        if view.round < self.check_from {
            return;
        }
        for (i, o) in view.outputs.iter().enumerate() {
            if let Some(ColorOutput::Colored(c)) = o {
                let bound = self.window.union_degree(NodeId::new(i)) + 1;
                assert!(
                    *c <= bound,
                    "round {}: node {i} has color {c} > d^∪T+1 = {bound}",
                    view.round
                );
            }
        }
    }
}

#[test]
fn colors_stay_within_union_degree_bound_under_heavy_churn() {
    let n = 40;
    let window = recommended_window(n);
    let footprint = generators::erdos_renyi_avg_degree(n, 6.0, &mut experiment_rng(1, "icol"));
    let rounds = 3 * window;

    let mut bound = UnionDegreeBound {
        window: GraphWindow::new(n, window),
        check_from: (window - 1) as u64,
    };
    let runner = Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(FlipChurnAdversary::new(&footprint, 0.10, 3))
        .seed(2)
        .rounds(rounds)
        .run(&mut [&mut bound]);

    // And the palette never explodes: far fewer colors than n are in use.
    let final_out: Vec<ColorOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(ColorOutput::Undecided))
        .collect();
    assert!(max_color_used(&final_out) <= footprint.max_degree() + 1);
}

#[test]
fn mobility_workload_keeps_t_dynamic_coloring() {
    let n = 50;
    let window = recommended_window(n);
    let rounds = 3 * window;
    let mut verifier = TDynamicVerifier::new(ColoringProblem, window);
    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(MobilityAdversary::new(
            MobilityConfig {
                n,
                radius: 0.22,
                min_speed: 0.002,
                max_speed: 0.012,
            },
            5,
        ))
        .seed(3)
        .rounds(rounds)
        .run(&mut [&mut verifier]);
    let summary = verifier.into_summary();
    assert!(
        summary.all_valid(),
        "invalid rounds: {:?}",
        summary.invalid_rounds
    );
}

#[test]
fn adaptive_conflict_seeking_adversary_cannot_break_validity() {
    // The coloring analysis tolerates even adaptive adversaries; an
    // output-aware adversary that keeps wiring equally-colored nodes together
    // must not be able to make any round's output invalid.
    let n = 36;
    let window = recommended_window(n);
    let footprint = generators::grid(6, 6);
    let adv: ConflictSeekingAdversary<ColorOutput, _> = ConflictSeekingAdversary::new(
        footprint,
        |a: &ColorOutput, b: &ColorOutput| matches!((a, b), (ColorOutput::Colored(x), ColorOutput::Colored(y)) if x == y),
        3,
        0.02,
        (2 * window) as u64,
        7,
    );
    let rounds = 4 * window;
    let mut verifier = TDynamicVerifier::new(ColoringProblem, window);
    Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(adv)
        .seed(4)
        .rounds(rounds)
        .run(&mut [&mut verifier]);
    let summary = verifier.into_summary();
    assert!(
        summary.all_valid(),
        "invalid rounds: {:?}",
        summary.invalid_rounds
    );
}

#[test]
fn tdma_application_has_collision_free_frames_once_stable() {
    // The motivating application: once the coloring has stabilized on a
    // static network, every TDMA frame is collision free.
    let n = 30;
    let window = recommended_window(n);
    let g = generators::random_geometric(n, 0.3, &mut experiment_rng(2, "tdma"));
    let rounds = 3 * window;
    let runner = Scenario::new(n)
        .algorithm(dynamic_coloring(window))
        .adversary(StaticAdversary::new(g.clone()))
        .seed(5)
        .rounds(rounds)
        .run(&mut []);
    let out: Vec<ColorOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(ColorOutput::Undecided))
        .collect();
    let frame = tdma::run_frame(&CsrGraph::from(&g), &out);
    assert_eq!(frame.collided, 0);
    assert_eq!(frame.silent, 0);
    assert!(frame.frame_length <= g.max_degree() + 1);
}
