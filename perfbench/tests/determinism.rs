//! The per-layer counts of a traced run depend on the seed alone: the same
//! seed twice gives identical counts (verifier summary, `DeltaStats`,
//! adversary delta edges, `Concat` instance messages, output churn), and a
//! second seed changes them. Runs every workload at reduced `n`. The counts
//! are the per-layer metrics with unit `count`.
//!
//! One test function on purpose: span recording is process-global, so
//! traced runs must not overlap.

use perfbench::{run, Plan, Workload};
use std::collections::BTreeMap;

fn counts(workload: Workload, n: usize, seed: u64) -> BTreeMap<&'static str, f64> {
    let mut plan = Plan::new(workload, seed, 0.0, true);
    plan.n = n;
    plan.min_steady_rounds = 12;
    let report = run(&plan);
    assert_eq!(
        report.failed_rounds, 0,
        "{workload:?} seed {seed}: guaranteed rounds failed"
    );
    assert!(
        report.correct(),
        "{workload:?} seed {seed}: {:?}",
        report.problems
    );
    report
        .metrics
        .iter()
        .filter(|m| m.unit == "count")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn counts_repeat_for_a_seed_and_change_with_it() {
    let cases = [
        (Workload::MisErFlip, 300),
        (Workload::ColoringMobility, 300),
        (Workload::DmisErFlip500k, 3_000),
    ];
    for (workload, n) in cases {
        let first = counts(workload, n, 1);
        let again = counts(workload, n, 1);
        let other = counts(workload, n, 2);
        assert_eq!(first, again, "{workload:?}: same seed, different counts");
        assert_ne!(first, other, "{workload:?}: another seed, same counts");

        assert_eq!(first["runtime.full_csr_builds"], 1.0, "{workload:?}");
        assert_eq!(first["runtime.cow_clones"], 0.0, "{workload:?}");
        assert!(first["adversary.delta_edges"] > 0.0, "{workload:?}");
        assert!(first["verify.rounds_checked"] > 0.0, "{workload:?}");
        let concat = workload != Workload::DmisErFlip500k;
        assert_eq!(first["concat.instance_msgs"] > 0.0, concat, "{workload:?}");
    }
}
