//! Integration tests for Corollary 1.3 (dynamic MIS): per-round T-dynamic
//! validity under different adversaries, deterministic independence on
//! persistent edges, and the oblivious-vs-adaptive adversary distinction —
//! driven through the `Scenario` API with streaming observers.

use dynnet::core::mis::{domination_violations, independence_violations, mis_size};
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;

#[test]
fn node_churn_workload_keeps_t_dynamic_mis() {
    let n = 48;
    let window = recommended_window(n);
    let footprint = generators::erdos_renyi_avg_degree(n, 6.0, &mut experiment_rng(1, "imis"));
    let rounds = 3 * window;
    let mut verifier = TDynamicVerifier::new(MisProblem, window);
    Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(NodeChurnAdversary::new(footprint, 0.02, 0.10, 3))
        .seed(1)
        .rounds(rounds)
        .run(&mut [&mut verifier]);
    let summary = verifier.into_summary();
    assert!(
        summary.all_valid(),
        "invalid rounds: {:?}",
        summary.invalid_rounds
    );
}

/// Streaming observer: asserts, round by round, that no two adjacent nodes of
/// the window intersection graph are both in the MIS (the deterministic
/// packing half of Corollary 1.3). Holds only the window's run-length state.
struct IndependenceOnIntersection {
    window: GraphWindow,
}

impl RoundObserver<MisOutput> for IndependenceOnIntersection {
    fn on_round(&mut self, view: &RoundView<'_, MisOutput>) {
        self.window.push(view.current_graph());
        let inter = self.window.intersection_graph();
        let out: Vec<MisOutput> = view
            .outputs
            .iter()
            .map(|o| o.unwrap_or(MisOutput::Undecided))
            .collect();
        assert_eq!(
            independence_violations(&inter, &out),
            0,
            "two adjacent MIS members on G^∩T in round {}",
            view.round
        );
    }
}

#[test]
fn independence_on_the_window_intersection_is_never_violated() {
    // The packing half of Corollary 1.3 holds deterministically — check it
    // round by round (not only via the aggregate verifier) under heavy churn.
    let n = 40;
    let window = recommended_window(n);
    let footprint = generators::erdos_renyi_avg_degree(n, 8.0, &mut experiment_rng(2, "imis2"));
    let rounds = 3 * window;
    let mut independence = IndependenceOnIntersection {
        window: GraphWindow::new(n, window),
    };
    Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(FlipChurnAdversary::new(&footprint, 0.15, 5))
        .seed(2)
        .rounds(rounds)
        .run(&mut [&mut independence]);
}

#[test]
fn adaptive_adversary_degrades_progress_but_not_packing() {
    // Lemma 5.2 needs a 2-oblivious adversary for the O(log n) progress
    // bound. An adaptive adversary that wires MIS members together can slow
    // convergence and force repairs, but the packing half must still hold on
    // the window intersection graph.
    let n = 36;
    let window = recommended_window(n);
    let footprint = generators::grid(6, 6);
    let adv: ConflictSeekingAdversary<MisOutput, _> = ConflictSeekingAdversary::new(
        footprint,
        |a: &MisOutput, b: &MisOutput| a.in_mis() && b.in_mis(),
        3,
        0.02,
        (2 * window) as u64,
        9,
    );
    let rounds = 4 * window;
    let mut independence = IndependenceOnIntersection {
        window: GraphWindow::new(n, window),
    };
    let runner = Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(adv)
        .seed(3)
        .rounds(rounds)
        .run(&mut [&mut independence]);
    // The MIS stays non-trivial throughout.
    let final_out: Vec<MisOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(MisOutput::Undecided))
        .collect();
    assert!(mis_size(&final_out) > 0);
}

#[test]
fn phase_adversary_static_then_chaotic_then_static_reconverges() {
    let n = 42;
    let window = recommended_window(n);
    let base = generators::random_geometric(n, 0.25, &mut experiment_rng(3, "imis3"));
    let chaotic = FlipChurnAdversary::new(&base, 0.2, 7);
    let phases: Vec<(u64, Box<dyn Adversary>)> = vec![
        (
            2 * window as u64,
            Box::new(StaticAdversary::new(base.clone())),
        ),
        (window as u64, Box::new(chaotic)),
        (u64::MAX, Box::new(StaticAdversary::new(base.clone()))),
    ];
    let rounds = 6 * window;
    let mut churn = ChurnStats::new();
    let runner = Scenario::new(n)
        .algorithm(dynamic_mis(n, window))
        .adversary(PhaseAdversary::new(phases))
        .seed(4)
        .rounds(rounds)
        .run(&mut [&mut churn]);
    // After the final static phase has lasted 2T rounds, the output is a
    // plain MIS of the base graph and frozen.
    let final_out: Vec<MisOutput> = runner
        .outputs()
        .iter()
        .map(|o| o.unwrap_or(MisOutput::Undecided))
        .collect();
    assert_eq!(independence_violations(&base, &final_out), 0);
    assert_eq!(domination_violations(&base, &final_out), 0);
    let freeze_from = rounds - window;
    assert_eq!(
        churn.total_from(freeze_from),
        0,
        "outputs still churning in the last window: {:?}",
        &churn.series()[freeze_from..]
    );
}
