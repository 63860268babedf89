//! # dynnet-core
//!
//! The framework of *"Local Distributed Algorithms in Highly Dynamic
//! Networks"* (Bamberger, Kuhn, Maus): packing/covering graph problems,
//! partial solutions, `T`-dynamic solutions, and the **Concat** combiner of
//! Theorem 1.1.
//!
//! * [`output`] — output value types with a `⊥` notion ([`ColorOutput`],
//!   [`MisOutput`], [`HasBottom`]).
//! * [`problem`] — the [`DynamicProblem`] trait: packing/covering LCL checks
//!   and partial-solution predicates (Definitions 3.1/3.2).
//! * [`coloring`] / [`mis`] — the two concrete problems of the paper.
//! * [`tdynamic`] — the T-dynamic solution checker (packing on `G^∩T`,
//!   covering on `G^∪T`), factored into a per-node [`NodeVerdict`] kernel
//!   shared by the batch and incremental paths.
//! * [`mod@concat`] — Algorithm 1: combining a network-static and a dynamic
//!   algorithm into one that satisfies Theorem 1.1.
//! * [`verify`] — execution-level verification harnesses for both parts of
//!   Theorem 1.1, used by tests and experiments. [`TDynamicVerifier`] is the
//!   streaming (`RoundObserver`) form: it consumes the delta pipeline's
//!   per-round [`dynnet_graph::WindowUpdate`] dirty sets and output churn,
//!   re-evaluating only the affected nodes via a [`verify::ViolationLedger`]
//!   (`O(|δ| + churn)` per checked round); the full re-check remains as its
//!   [`TDynamicVerifier::full_recheck`] oracle mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod concat;
pub mod mis;
pub mod output;
pub mod problem;
pub mod tdynamic;
pub mod verify;

pub use coloring::ColoringProblem;
pub use concat::{
    Concat, ConcatFactory, ConcatMsg, DynamicAlgorithmFactory, StaticAlgorithmFactory,
};
pub use mis::MisProblem;
pub use output::{Color, ColorOutput, HasBottom, MisOutput};
pub use problem::DynamicProblem;
pub use tdynamic::{check_t_dynamic, node_verdict, NodeVerdict, TDynamicReport};
pub use verify::{
    last_change_round, output_churn_series, verify_locally_static, verify_t_dynamic_run,
    InvalidRounds, TDynamicVerifier, VerificationSummary, VerifyError, ViolationLedger,
};

/// Recommended window size `T = Θ(log n)` for the paper's algorithms.
///
/// Both DColor and DMis complete w.h.p. within `c · log₂ n + c'` rounds; this
/// helper picks a window large enough for the constants observed empirically
/// (experiments E2 and E6, `results/e2.md` / `results/e6.md`) with a
/// comfortable safety margin, while staying
/// `O(log n)`.
pub fn recommended_window(n: usize) -> usize {
    let log = (n.max(2) as f64).log2();
    (8.0 * log).ceil() as usize + 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_window_grows_logarithmically() {
        let w16 = recommended_window(16);
        let w256 = recommended_window(256);
        let w65536 = recommended_window(65_536);
        assert!(w16 < w256 && w256 < w65536);
        // Doubling the exponent doubles the log term: close to affine in log n.
        assert!((w65536 - w256) <= 2 * (w256 - w16) + 1);
        assert!(w65536 < 200, "stays small: {w65536}");
        assert!(recommended_window(0) >= 8);
    }
}
