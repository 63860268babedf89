//! End-to-end verification harnesses for the Theorem 1.1 guarantees, used by
//! the integration tests and the experiment harness.
//!
//! The harness works on raw data — a sequence of graphs and the per-round
//! output snapshots — so it is independent of how the execution was produced
//! (any adversary, any wake-up schedule, sequential or parallel simulator).

use crate::output::HasBottom;
use crate::problem::DynamicProblem;
use crate::tdynamic::{check_t_dynamic, NodeVerdict};
use dynnet_graph::{Edge, Graph, GraphDelta, GraphWindow, NodeId, WindowUpdate};

/// Per-round verification result plus aggregate counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerificationSummary {
    /// Number of rounds that were subject to checking.
    pub rounds_checked: usize,
    /// Number of checked rounds in which the output was a full T-dynamic solution.
    pub rounds_valid: usize,
    /// Number of checked rounds in which the decided part was consistent
    /// (partial solution on the window graphs).
    pub rounds_partial_valid: usize,
    /// Total packing violations summed over the checked rounds.
    pub total_packing_violations: usize,
    /// Total covering violations summed over the checked rounds.
    pub total_covering_violations: usize,
    /// Total undecided nodes (within `V^∩T`) summed over the checked rounds.
    pub total_undecided: usize,
    /// First checked round (0-based, absolute) in which the output was a full
    /// T-dynamic solution, if any.
    pub first_valid_round: Option<usize>,
    /// Rounds (absolute indices) whose output was *not* a full solution,
    /// stored run-length encoded with a bounded run count — a
    /// million-round always-invalid run costs one run, not a million
    /// entries, and adversarial valid/invalid alternation caps out at
    /// [`InvalidRounds::MAX_RUNS`] recorded runs (the total count stays
    /// exact; see [`InvalidRounds::truncated`]).
    pub invalid_rounds: InvalidRounds,
}

/// Bounded, run-length-encoded set of invalid round indices.
///
/// Verification summaries of unbounded executions must not grow with the
/// round count: consecutive invalid rounds collapse into one `(start, len)`
/// run, and the number of *recorded* runs is capped at
/// [`InvalidRounds::MAX_RUNS`]. Pushes beyond the cap keep the aggregate
/// counters exact ([`InvalidRounds::len`]) but drop the individual indices
/// ([`InvalidRounds::truncated`] reports how many). Rounds must be pushed in
/// strictly increasing order (the verifier's natural order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvalidRounds {
    /// Maximal runs of consecutive invalid rounds, as `(start, len)`,
    /// ascending and non-adjacent.
    runs: Vec<(usize, usize)>,
    /// Total invalid rounds pushed (recorded or dropped).
    total: usize,
    /// Invalid rounds dropped after the run cap was reached.
    dropped: usize,
}

impl InvalidRounds {
    /// Upper bound on the number of *recorded* runs. Memory is
    /// `O(MAX_RUNS)` regardless of execution length.
    pub const MAX_RUNS: usize = 1024;

    /// Records `round` as invalid. Rounds arrive in strictly increasing
    /// order; a round adjacent to the last recorded run extends it in place
    /// (`O(1)`, no allocation — the always-invalid case stays at one run).
    pub fn push(&mut self, round: usize) {
        self.total += 1;
        if self.dropped == 0 {
            if let Some(last) = self.runs.last_mut() {
                debug_assert!(round >= last.0 + last.1, "rounds must be pushed in order");
                if round == last.0 + last.1 {
                    last.1 += 1;
                    return;
                }
            }
            if self.runs.len() < Self::MAX_RUNS {
                self.runs.push((round, 1));
                return;
            }
        }
        self.dropped += 1;
    }

    /// Total number of invalid rounds (exact even past the run cap).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` if no round was recorded as invalid.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of invalid rounds whose indices were dropped because the run
    /// cap was reached (`0` in the overwhelmingly common case).
    pub fn truncated(&self) -> usize {
        self.dropped
    }

    /// The recorded maximal runs as `(start, len)`, ascending.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Iterates the recorded invalid round indices in ascending order
    /// (excludes truncated rounds).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|&(start, len)| start..start + len)
    }

    /// Returns `true` if `round` is among the recorded invalid rounds.
    pub fn contains(&self, round: usize) -> bool {
        match self.runs.binary_search_by_key(&round, |&(start, _)| start) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => {
                let (start, len) = self.runs[i - 1];
                round < start + len
            }
        }
    }

    /// Materializes the recorded rounds into a vector (testing/reporting).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Reconstructs an `InvalidRounds` from its serialized parts,
    /// validating every structural invariant [`InvalidRounds::push`]
    /// maintains: runs ascending, non-empty and non-adjacent, at most
    /// [`InvalidRounds::MAX_RUNS`] of them, rounds only dropped once the
    /// cap is full, and `total` consistent with `runs + dropped`.
    ///
    /// Checkpoint decoders use this so a corrupt payload yields a typed
    /// error instead of a summary that violates the type's invariants.
    pub fn from_parts(
        runs: Vec<(usize, usize)>,
        total: usize,
        dropped: usize,
    ) -> Result<Self, &'static str> {
        if runs.len() > Self::MAX_RUNS {
            return Err("more recorded runs than MAX_RUNS");
        }
        if dropped > 0 && runs.len() != Self::MAX_RUNS {
            return Err("rounds were dropped but the run list is not at the cap");
        }
        let mut recorded = 0usize;
        let mut prev_end: Option<usize> = None;
        for &(start, len) in &runs {
            if len == 0 {
                return Err("empty run");
            }
            if prev_end.is_some_and(|end| start <= end) {
                // `start == end` would mean two adjacent runs that `push`
                // would have merged; `start < end` is overlap/disorder.
                return Err("runs not ascending and non-adjacent");
            }
            prev_end = Some(start.checked_add(len).ok_or("run end overflows usize")?);
            recorded = recorded
                .checked_add(len)
                .ok_or("run total overflows usize")?;
        }
        if recorded.checked_add(dropped) != Some(total) {
            return Err("total does not equal recorded + dropped");
        }
        Ok(InvalidRounds {
            runs,
            total,
            dropped,
        })
    }
}

/// Equality against a plain round list — convenience for tests. Holds only
/// when nothing was truncated.
impl PartialEq<Vec<usize>> for InvalidRounds {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.dropped == 0 && self.total == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl VerificationSummary {
    /// Returns `true` if every checked round carried a full T-dynamic solution.
    pub fn all_valid(&self) -> bool {
        self.rounds_checked == self.rounds_valid
    }

    /// Fraction of checked rounds with a full T-dynamic solution (1.0 if no
    /// round was checked).
    pub fn valid_fraction(&self) -> f64 {
        if self.rounds_checked == 0 {
            1.0
        } else {
            self.rounds_valid as f64 / self.rounds_checked as f64
        }
    }
}

/// Error returned by the delta observation path of [`TDynamicVerifier`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// [`TDynamicVerifier::observe_delta`] was called before the verifier
    /// knew its universe size: a delta does not say how many nodes there
    /// are, so the first round must come through
    /// [`TDynamicVerifier::observe`] or the [`dynnet_runtime::RoundObserver`]
    /// hook, which size the window from the round's graph.
    DeltaBeforeInitialGraph,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::DeltaBeforeInitialGraph => f.write_str(
                "observe the first round through TDynamicVerifier::observe or the \
                 RoundObserver hook before feeding bare deltas",
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Persistent per-node verdict state of the incremental T-dynamic verifier.
///
/// The ledger holds no graph: it reads `G^∩T_r`, `G^∪T_r` and `V^∩T_r`
/// from the [`GraphWindow`] it is handed each round. It keeps the
/// ⊥-densified output vector and one [`NodeVerdict`] bit-triple per node,
/// together with the three violation counters the round summary is built
/// from.
///
/// A node's verdict reads the window directly: its union neighbours are
/// the window's incidence list ([`GraphWindow::union_neighbors`], no
/// lookup), and intersection membership is looked up only for a neighbour
/// whose output would violate packing across the edge.
///
/// Per round it consumes the window's [`WindowUpdate`] and the round's
/// output churn, and re-evaluates *only the dirty nodes* — the union of
///
/// * nodes incident to a window-membership event (delta endpoints, edges
///   aging out of the union, runs maturing into the intersection, `V^∩T`
///   entries/exits), and
/// * nodes whose densified output changed, plus their `G^∪T` neighbors
///   (the paper's problems are radius-1 LCLs, so no other node's verdict
///   can depend on the changed output).
///
/// Every other node's verdict is unchanged by construction, which is what
/// makes a checked round `O((|δ| + churn) · Δ)` instead of `O(n + |G^∪T|)`.
/// The full re-check ([`check_t_dynamic`], used by the
/// [`TDynamicVerifier::full_recheck`] oracle mode) remains the reference
/// the equivalence tests compare against.
pub struct ViolationLedger<O> {
    dense: Vec<O>,
    verdicts: Vec<NodeVerdict>,
    undecided_count: usize,
    packing_count: usize,
    covering_count: usize,
    /// Round-stamped dirty marks (`stamp[v] == cur_stamp` ⇔ already queued
    /// this round), so the dirty set is deduplicated in `O(1)` per mark.
    stamp: Vec<u64>,
    cur_stamp: u64,
    dirty: Vec<NodeId>,
}

impl<O: HasBottom> ViolationLedger<O> {
    /// Builds the ledger by evaluating every node of `V^∩T` against the
    /// window — the one full check the incremental verifier performs (on
    /// its first checked round).
    pub fn init<P>(problem: &P, window: &GraphWindow, outputs: &[Option<P::Output>]) -> Self
    where
        P: DynamicProblem<Output = O>,
    {
        let n = outputs.len();
        let mut ledger = ViolationLedger {
            dense: crate::problem::densify_outputs(outputs),
            verdicts: vec![NodeVerdict::CLEAR; n],
            undecided_count: 0,
            packing_count: 0,
            covering_count: 0,
            stamp: vec![0; n],
            cur_stamp: 0,
            dirty: Vec::new(),
        };
        for v in window.intersection_nodes() {
            let verdict = window_verdict(problem, window, v, &ledger.dense);
            ledger.set_verdict(v, verdict);
        }
        ledger
    }

    /// Applies one round: marks the nodes touched by `update`, folds in the
    /// round's output churn (`changed` when the producer tracked it,
    /// otherwise a full diff of `outputs` against the stored dense vector),
    /// and re-evaluates the dirty nodes against `window`, which must
    /// already hold the round that produced `update`.
    pub fn apply_round<P>(
        &mut self,
        problem: &P,
        window: &GraphWindow,
        update: &WindowUpdate,
        outputs: &[Option<P::Output>],
        changed: Option<&[NodeId]>,
    ) where
        P: DynamicProblem<Output = O>,
    {
        self.cur_stamp += 1;
        self.dirty.clear();

        // 1. Structural events: every membership event dirties its endpoints.
        for e in update
            .inserted
            .iter()
            .chain(&update.removed)
            .chain(&update.edges_left_union)
            .chain(&update.edges_joined_intersection)
        {
            self.mark(e.u);
            self.mark(e.v);
        }
        for &v in update
            .deactivated
            .iter()
            .chain(&update.woken)
            .chain(&update.nodes_joined_intersection)
        {
            self.mark(v);
        }

        // 2. Output churn: a changed output can flip the verdict of the node
        // itself and of its G^∪T neighbors (radius-1 LCLs) — nobody else.
        match changed {
            Some(list) => {
                for &v in list {
                    self.refresh_output(window, outputs, v);
                }
            }
            None => {
                for i in 0..self.dense.len() {
                    self.refresh_output(window, outputs, NodeId::new(i));
                }
            }
        }

        // 3. Re-evaluate exactly the dirty nodes.
        for idx in 0..self.dirty.len() {
            let Some(&v) = self.dirty.get(idx) else {
                break;
            };
            let verdict = if window.node_in_intersection(v) {
                window_verdict(problem, window, v, &self.dense)
            } else {
                NodeVerdict::CLEAR
            };
            self.set_verdict(v, verdict);
        }
    }

    /// Folds node `v`'s current output into the dense vector, dirtying `v`
    /// and its union neighbors if the densified value actually changed.
    fn refresh_output(&mut self, window: &GraphWindow, outputs: &[Option<O>], v: NodeId) {
        let new = outputs[v.index()].clone().unwrap_or_else(O::bottom);
        if new == self.dense[v.index()] {
            return;
        }
        self.dense[v.index()] = new;
        self.mark(v);
        for &u in window.union_neighbors(v) {
            self.mark(u);
        }
    }

    fn mark(&mut self, v: NodeId) {
        if self.stamp[v.index()] != self.cur_stamp {
            self.stamp[v.index()] = self.cur_stamp;
            self.dirty.push(v);
        }
    }

    /// Replaces `v`'s stored verdict, keeping the three counters consistent.
    fn set_verdict(&mut self, v: NodeId, new: NodeVerdict) {
        let old = &mut self.verdicts[v.index()];
        fn adjust(count: &mut usize, was_bad: bool, is_bad: bool) {
            match (was_bad, is_bad) {
                (false, true) => *count += 1,
                (true, false) => *count -= 1,
                _ => {}
            }
        }
        adjust(&mut self.undecided_count, old.undecided, new.undecided);
        adjust(&mut self.packing_count, !old.packing_ok, !new.packing_ok);
        adjust(&mut self.covering_count, !old.covering_ok, !new.covering_ok);
        *old = new;
    }

    /// Number of undecided nodes in `V^∩T` (as of the last applied round).
    pub fn undecided_count(&self) -> usize {
        self.undecided_count
    }

    /// Number of packing violations on `G^∩T` among `V^∩T`.
    pub fn packing_violation_count(&self) -> usize {
        self.packing_count
    }

    /// Number of covering violations on `G^∪T` among `V^∩T`.
    pub fn covering_violation_count(&self) -> usize {
        self.covering_count
    }
}

/// Evaluates one node of `V^∩T_r` against the window — the same verdict
/// [`crate::tdynamic::node_verdict`] computes on the materialized window
/// graphs. Packing needs only the union neighbours whose output conflicts
/// with `v`'s, and only those are looked up in `G^∩T`; covering reads the
/// whole union neighbourhood, which is the window's incidence list.
fn window_verdict<P: DynamicProblem>(
    problem: &P,
    window: &GraphWindow,
    v: NodeId,
    dense: &[P::Output],
) -> NodeVerdict {
    let own = &dense[v.index()];
    if own.is_bottom() {
        return NodeVerdict {
            undecided: true,
            packing_ok: true,
            covering_ok: true,
        };
    }
    let union = window.union_neighbors(v);
    NodeVerdict {
        undecided: false,
        packing_ok: union.iter().all(|&u| {
            !problem.packing_conflict(own, &dense[u.index()])
                || !window.edge_in_intersection(Edge::new(v, u))
        }),
        covering_ok: problem.covering_ok(own, union.iter().map(|u| &dense[u.index()]), union.len()),
    }
}

/// Streaming T-dynamic verifier (Theorem 1.1, part 1).
///
/// Observes an execution round by round — either through the
/// [`dynnet_runtime::RoundObserver`] hook from a
/// `dynnet_adversary::Scenario`, or by feeding rounds directly via
/// [`TDynamicVerifier::observe`] — and maintains the same
/// [`VerificationSummary`] that the batch [`verify_t_dynamic_run`] computes.
///
/// From its first checked round on, the verifier is *incremental*: a
/// [`ViolationLedger`] keeps per-node verdicts and only re-evaluates the
/// nodes a round can actually flip (the window's [`WindowUpdate`] dirty set
/// plus the output churn and its radius-1 neighborhood), so a checked round
/// costs `O(|δ| + output churn)` instead of materializing and re-checking
/// the whole window. [`TDynamicVerifier::full_recheck`] switches to the
/// materialize-everything oracle path, which the equivalence test suite
/// pins the incremental path against.
///
/// Memory: the window's run-length state (`O(n + |G^∪T|)`, inside
/// [`GraphWindow`]) plus the `O(n)` ledger; no graph is materialized on
/// the incremental path, so verification does not bound the scenario sizes
/// that can be checked.
pub struct TDynamicVerifier<P: DynamicProblem> {
    problem: P,
    window_size: usize,
    check_from: usize,
    full_recheck: bool,
    window: Option<GraphWindow>,
    ledger: Option<ViolationLedger<P::Output>>,
    round: usize,
    summary: VerificationSummary,
}

impl<P: DynamicProblem> TDynamicVerifier<P> {
    /// Creates a verifier for `problem` with window size `window` (the
    /// paper's `T`). Checking starts at round `T - 1` (the first round with
    /// a full window, right for synchronous starts); use
    /// [`TDynamicVerifier::check_from`] to allow a longer warm-up.
    pub fn new(problem: P, window: usize) -> Self {
        assert!(window >= 1, "window size T must be at least 1");
        TDynamicVerifier {
            problem,
            window_size: window,
            check_from: window - 1,
            full_recheck: false,
            window: None,
            ledger: None,
            round: 0,
            summary: VerificationSummary::default(),
        }
    }

    /// Sets the first round (0-based) at which the guarantee is asserted.
    pub fn check_from(mut self, round: usize) -> Self {
        self.check_from = round;
        self
    }

    /// Switches to the *oracle* mode: every checked round materializes the
    /// window graphs and re-evaluates all of `V^∩T` via [`check_t_dynamic`]
    /// instead of patching the incremental [`ViolationLedger`]. Slower by
    /// construction — it exists as the reference implementation that the
    /// batch path and the equivalence tests compare the incremental
    /// summaries against.
    pub fn full_recheck(mut self) -> Self {
        self.full_recheck = true;
        self
    }

    /// Feeds the next round (graph + output snapshot) into the verifier.
    ///
    /// On the first call this fixes the universe size and window. This is
    /// the whole-graph path of the oracle: the graph is diffed against the
    /// window's run state (`O(n + |E|)`) and the outputs are re-scanned
    /// (`O(n)`); only the *check* stays dirty-set incremental. Streaming
    /// callers holding the round's delta should use
    /// [`TDynamicVerifier::observe_delta`] /
    /// [`TDynamicVerifier::observe_delta_with_churn`], which skip both
    /// scans.
    pub fn observe(&mut self, graph: &Graph, outputs: &[Option<P::Output>]) {
        let _span = dynnet_obs::phase_span("verify", "observe");
        let w = self
            .window
            .get_or_insert_with(|| GraphWindow::new(graph.num_nodes(), self.window_size));
        let update = w.push(graph);
        self.check_round(&update, outputs, None);
    }

    /// Feeds the next round as a delta relative to the previously observed
    /// graph — the `O(|δ|)` window-maintenance path of the delta pipeline.
    ///
    /// # Errors
    /// Returns [`VerifyError::DeltaBeforeInitialGraph`] if the universe size
    /// is still unknown: the first round must come through
    /// [`TDynamicVerifier::observe`] or the [`dynnet_runtime::RoundObserver`]
    /// hook (which sizes the window from the round's graph and then feeds
    /// round 0 as a delta from the all-asleep graph).
    pub fn observe_delta(
        &mut self,
        delta: &GraphDelta,
        outputs: &[Option<P::Output>],
    ) -> Result<(), VerifyError> {
        self.observe_delta_with_churn(delta, outputs, None)
    }

    /// Like [`TDynamicVerifier::observe_delta`], additionally supplying the
    /// round's output churn: `changed` must list every node whose output
    /// differs from the previous round (extra entries are tolerated). With
    /// it, a checked round costs `O(|δ| + |changed|)`; without it the
    /// verifier diffs the outputs itself in `O(n)`.
    pub fn observe_delta_with_churn(
        &mut self,
        delta: &GraphDelta,
        outputs: &[Option<P::Output>],
        changed: Option<&[NodeId]>,
    ) -> Result<(), VerifyError> {
        let Some(w) = self.window.as_mut() else {
            return Err(VerifyError::DeltaBeforeInitialGraph);
        };
        let _span = dynnet_obs::phase_span("verify", "observe_delta");
        let update = w.push_delta(delta);
        self.check_round(&update, outputs, changed);
        Ok(())
    }

    fn check_round(
        &mut self,
        update: &WindowUpdate,
        outputs: &[Option<P::Output>],
        changed: Option<&[NodeId]>,
    ) {
        let r = self.round;
        self.round += 1;
        if r < self.check_from {
            return;
        }
        // Disjoint field borrows: the window is read while the ledger and
        // summary are written; destructuring proves that to the borrow
        // checker without re-looking the `Option`s up through `expect`.
        let Self {
            problem,
            full_recheck,
            window,
            ledger,
            summary,
            ..
        } = self;
        let Some(w) = window.as_ref() else {
            // Both callers create the window before producing the round's
            // WindowUpdate, so there is nothing to check here.
            debug_assert!(false, "check_round before the first observed round");
            return;
        };
        let (undecided, packing, covering) = if *full_recheck {
            let report = check_t_dynamic(problem, w, outputs);
            (
                report.undecided.len(),
                report.packing_violations.len(),
                report.covering_violations.len(),
            )
        } else {
            // First checked round: one full evaluation seeds the ledger.
            // Every following round is checked too (rounds are consecutive
            // past `check_from`), so patching from the round's WindowUpdate
            // keeps the ledger exact.
            let ledger = match ledger {
                Some(ledger) => {
                    ledger.apply_round(problem, w, update, outputs, changed);
                    ledger
                }
                None => ledger.insert(ViolationLedger::init(problem, w, outputs)),
            };
            (
                ledger.undecided_count(),
                ledger.packing_violation_count(),
                ledger.covering_violation_count(),
            )
        };
        summary.rounds_checked += 1;
        summary.total_packing_violations += packing;
        summary.total_covering_violations += covering;
        summary.total_undecided += undecided;
        if packing == 0 && covering == 0 {
            summary.rounds_partial_valid += 1;
            if undecided == 0 {
                summary.rounds_valid += 1;
                if summary.first_valid_round.is_none() {
                    summary.first_valid_round = Some(r);
                }
                return;
            }
        }
        summary.invalid_rounds.push(r);
    }

    /// Number of rounds observed so far.
    pub fn rounds_observed(&self) -> usize {
        self.round
    }

    /// The verification summary accumulated so far.
    pub fn summary(&self) -> &VerificationSummary {
        &self.summary
    }

    /// Consumes the verifier into its summary.
    pub fn into_summary(self) -> VerificationSummary {
        self.summary
    }
}

/// Pull-style metric export: the verifier's aggregate ledger counters
/// (`verify.*`) plus its window's maintenance-queue depths (`window.*`), for
/// inclusion in a [`dynnet_obs::Snapshot`]. Window metrics appear once the
/// first round has been observed.
impl<P: DynamicProblem> dynnet_obs::MetricSource for TDynamicVerifier<P> {
    fn collect(&self, out: &mut dynnet_obs::Snapshot) {
        let s = &self.summary;
        out.set("verify.rounds_checked", s.rounds_checked as u64);
        out.set("verify.rounds_valid", s.rounds_valid as u64);
        out.set("verify.rounds_partial_valid", s.rounds_partial_valid as u64);
        out.set(
            "verify.packing_violations",
            s.total_packing_violations as u64,
        );
        out.set(
            "verify.covering_violations",
            s.total_covering_violations as u64,
        );
        out.set("verify.undecided", s.total_undecided as u64);
        if let Some(w) = &self.window {
            let depths = w.queue_depths();
            out.set("window.gc_queue_depth", depths.gc as u64);
            out.set("window.edge_maturity_depth", depths.edge_maturity as u64);
            out.set("window.node_maturity_depth", depths.node_maturity as u64);
        }
    }
}

impl<P: DynamicProblem> dynnet_runtime::RoundObserver<P::Output> for TDynamicVerifier<P> {
    /// Every round, round 0 included, arrives as a delta (round 0's from the
    /// all-asleep graph), so the window is sized from the round's graph and
    /// fed the delta: `O(|δ|)` window maintenance, no graph conversion, and
    /// the simulator's churn list makes the check `O(|δ| + churn)`. A view
    /// without a delta is read as an unchanged topology.
    fn on_round(&mut self, view: &dynnet_runtime::RoundView<'_, P::Output>) {
        let (n, t) = (view.graph.num_nodes(), self.window_size);
        let w = self.window.get_or_insert_with(|| GraphWindow::new(n, t));
        let _span = dynnet_obs::phase_span("verify", "observe_delta");
        let update = w.push_delta(view.delta.unwrap_or(&GraphDelta::new()));
        self.check_round(&update, view.outputs, view.changed_outputs);
    }
}

/// Verifies the T-dynamic property (Theorem 1.1, part 1) over a fully
/// materialized execution — a batch convenience over [`TDynamicVerifier`].
///
/// This is the *oracle* path: every checked round materializes the window
/// graphs and re-evaluates all of `V^∩T` ([`TDynamicVerifier::full_recheck`]
/// mode). The equivalence tests assert that the incremental streaming
/// verifier produces an identical [`VerificationSummary`].
///
/// * `graphs` — the dynamic graph sequence `G_0, G_1, …` (one per round);
/// * `outputs` — per round, the simulator's outputs (`None` = asleep);
/// * `window` — the window size `T`;
/// * `check_from` — first round (0-based) at which the guarantee is asserted
///   (use `T - 1` for synchronous starts, or later to allow a warm-up).
pub fn verify_t_dynamic_run<P: DynamicProblem + Clone>(
    problem: &P,
    graphs: &[Graph],
    outputs: &[Vec<Option<P::Output>>],
    window: usize,
    check_from: usize,
) -> VerificationSummary {
    assert_eq!(graphs.len(), outputs.len(), "one output snapshot per round");
    let mut verifier = TDynamicVerifier::new(problem.clone(), window)
        .check_from(check_from)
        .full_recheck();
    for (g, outs) in graphs.iter().zip(outputs) {
        verifier.observe(g, outs);
    }
    verifier.into_summary()
}

/// Returns the last round in which node `v`'s output differs from its output
/// in the following round, i.e. the round after which the output is stable to
/// the end of the execution. Returns `None` if the output never changes.
pub fn last_change_round<O: PartialEq>(outputs: &[Vec<Option<O>>], v: NodeId) -> Option<usize> {
    let mut last = None;
    for r in 1..outputs.len() {
        if outputs[r][v.index()] != outputs[r - 1][v.index()] {
            last = Some(r);
        }
    }
    last
}

/// Checks the locally-static guarantee (Theorem 1.1, part 2) for one node:
/// the output of `v` must be decided and unchanged in every round of
/// `[stable_from, to]` (inclusive bounds, absolute round indices).
pub fn verify_locally_static<O: HasBottom>(
    outputs: &[Vec<Option<O>>],
    v: NodeId,
    stable_from: usize,
    to: usize,
) -> bool {
    if stable_from > to || to >= outputs.len() {
        return false;
    }
    let reference = &outputs[stable_from][v.index()];
    let Some(ref_val) = reference.as_ref() else {
        return false;
    };
    if ref_val.is_bottom() {
        return false;
    }
    (stable_from..=to).all(|r| outputs[r][v.index()].as_ref() == Some(ref_val))
}

/// Counts, per round, how many of the given nodes changed their output
/// relative to the previous round — the "output churn" time series.
pub fn output_churn_series<O: PartialEq>(
    outputs: &[Vec<Option<O>>],
    nodes: &[NodeId],
) -> Vec<usize> {
    let mut series = vec![0usize];
    for r in 1..outputs.len() {
        let changed = nodes
            .iter()
            .filter(|v| outputs[r][v.index()] != outputs[r - 1][v.index()])
            .count();
        series.push(changed);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::ColoringProblem;
    use crate::output::ColorOutput;
    use dynnet_graph::Edge;

    fn g(n: usize, edges: &[(usize, usize)]) -> Graph {
        Graph::from_edges(n, edges.iter().map(|&(a, b)| Edge::of(a, b)))
    }

    fn colored(cs: &[usize]) -> Vec<Option<ColorOutput>> {
        cs.iter()
            .map(|&c| {
                Some(if c == 0 {
                    ColorOutput::Undecided
                } else {
                    ColorOutput::Colored(c)
                })
            })
            .collect()
    }

    #[test]
    fn verify_run_counts_valid_rounds() {
        let graphs = vec![g(2, &[(0, 1)]), g(2, &[(0, 1)]), g(2, &[(0, 1)])];
        let outputs = vec![
            colored(&[0, 0]),
            colored(&[1, 2]),
            colored(&[1, 1]), // conflict in the last round
        ];
        let p = ColoringProblem;
        let summary = verify_t_dynamic_run(&p, &graphs, &outputs, 2, 1);
        assert_eq!(summary.rounds_checked, 2);
        assert_eq!(summary.rounds_valid, 1);
        assert_eq!(summary.first_valid_round, Some(1));
        assert_eq!(summary.invalid_rounds, vec![2]);
        assert!(!summary.all_valid());
        assert!((summary.valid_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(summary.total_packing_violations, 2);
    }

    #[test]
    fn check_from_skips_warmup() {
        let graphs = vec![g(2, &[(0, 1)]); 4];
        let outputs = vec![
            colored(&[0, 0]),
            colored(&[0, 0]),
            colored(&[1, 2]),
            colored(&[1, 2]),
        ];
        let p = ColoringProblem;
        let summary = verify_t_dynamic_run(&p, &graphs, &outputs, 2, 2);
        assert!(summary.all_valid());
        assert_eq!(summary.rounds_checked, 2);
    }

    #[test]
    fn locally_static_verification() {
        let outputs = vec![
            colored(&[0, 1]),
            colored(&[2, 1]),
            colored(&[2, 1]),
            colored(&[2, 3]),
        ];
        let v0 = NodeId::new(0);
        let v1 = NodeId::new(1);
        assert!(verify_locally_static(&outputs, v0, 1, 3));
        assert!(!verify_locally_static(&outputs, v0, 0, 3), "⊥ at the start");
        assert!(
            !verify_locally_static(&outputs, v1, 1, 3),
            "changes in round 3"
        );
        assert!(verify_locally_static(&outputs, v1, 0, 2));
        assert!(!verify_locally_static(&outputs, v0, 2, 5), "out of range");
        assert_eq!(last_change_round(&outputs, v0), Some(1));
        assert_eq!(last_change_round(&outputs, v1), Some(3));
    }

    #[test]
    fn invalid_rounds_run_length_is_bounded() {
        // A million-round always-invalid run collapses into a single run.
        let mut inv = InvalidRounds::default();
        for r in 0..1_000_000 {
            inv.push(r);
        }
        assert_eq!(inv.len(), 1_000_000);
        assert_eq!(inv.runs(), &[(0, 1_000_000)]);
        assert_eq!(inv.truncated(), 0);
        assert!(inv.contains(999_999) && !inv.contains(1_000_000));

        // Adversarial alternation (no two invalid rounds adjacent) caps the
        // recorded runs; the total stays exact.
        let mut alt = InvalidRounds::default();
        for r in 0..10_000 {
            alt.push(2 * r);
        }
        assert_eq!(alt.len(), 10_000);
        assert_eq!(alt.runs().len(), InvalidRounds::MAX_RUNS);
        assert_eq!(alt.truncated(), 10_000 - InvalidRounds::MAX_RUNS);
        assert!(alt.contains(0) && alt.contains(2 * (InvalidRounds::MAX_RUNS - 1)));
        assert!(!alt.contains(1));

        // Mixed runs round-trip through the iterator, and Vec equality
        // works while nothing is truncated.
        let mut mixed = InvalidRounds::default();
        for r in [3usize, 4, 5, 9, 12, 13] {
            mixed.push(r);
        }
        assert_eq!(mixed.to_vec(), vec![3, 4, 5, 9, 12, 13]);
        assert_eq!(mixed, vec![3, 4, 5, 9, 12, 13]);
        assert_eq!(mixed.runs(), &[(3, 3), (9, 1), (12, 2)]);
        assert!(!mixed.is_empty());
    }

    #[test]
    fn invalid_rounds_from_parts_validates() {
        // Any value produced by push round-trips through its parts.
        let mut inv = InvalidRounds::default();
        for r in [3usize, 4, 5, 9, 12, 13] {
            inv.push(r);
        }
        let back =
            InvalidRounds::from_parts(inv.runs().to_vec(), inv.len(), inv.truncated()).unwrap();
        assert_eq!(back, inv);

        // Truncated values round-trip too.
        let mut alt = InvalidRounds::default();
        for r in 0..2 * (InvalidRounds::MAX_RUNS + 7) {
            if r % 2 == 0 {
                alt.push(r);
            }
        }
        assert!(alt.truncated() > 0);
        let back =
            InvalidRounds::from_parts(alt.runs().to_vec(), alt.len(), alt.truncated()).unwrap();
        assert_eq!(back, alt);

        // Structural violations are rejected.
        assert!(
            InvalidRounds::from_parts(vec![(0, 0)], 0, 0).is_err(),
            "empty run"
        );
        assert!(
            InvalidRounds::from_parts(vec![(5, 1), (3, 1)], 2, 0).is_err(),
            "descending runs"
        );
        assert!(
            InvalidRounds::from_parts(vec![(3, 2), (5, 1)], 3, 0).is_err(),
            "adjacent runs must be merged"
        );
        assert!(
            InvalidRounds::from_parts(vec![(3, 1)], 5, 0).is_err(),
            "total mismatch"
        );
        assert!(
            InvalidRounds::from_parts(vec![(3, 1)], 2, 1).is_err(),
            "dropped rounds require a full run list"
        );
        assert!(
            InvalidRounds::from_parts(vec![(usize::MAX, 2)], 2, 0).is_err(),
            "run end overflow"
        );
    }

    #[test]
    fn churn_series() {
        let outputs = vec![
            colored(&[0, 0]),
            colored(&[1, 0]),
            colored(&[1, 2]),
            colored(&[1, 2]),
        ];
        let nodes: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        assert_eq!(output_churn_series(&outputs, &nodes), vec![0, 1, 1, 0]);
    }

    // The observe_delta-before-graph error and the window-expiry verdict
    // flip are covered (against real scenarios) in
    // tests/verify_incremental.rs alongside the adversary equivalence suite.

    /// Minimal deterministic generator for the randomized equivalence tests
    /// (the crate has no RNG dependency).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, m: u64) -> u64 {
            self.next() % m
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// Drives the incremental verifier (deltas + exact churn lists) and the
    /// full-recheck oracle (whole graphs) over the same random execution,
    /// asserting identical summaries after every round.
    fn assert_equivalence<P, FOut>(
        problem: P,
        t: usize,
        check_from: usize,
        seed: u64,
        rand_out: FOut,
    ) where
        P: DynamicProblem + Clone,
        FOut: Fn(&mut Lcg) -> Option<P::Output>,
    {
        let n = 10;
        let mut rng = Lcg(seed);
        let mut incremental = TDynamicVerifier::new(problem.clone(), t).check_from(check_from);
        let mut oracle = TDynamicVerifier::new(problem, t)
            .check_from(check_from)
            .full_recheck();

        let mut graph = Graph::new_all_asleep(n);
        for i in 0..n {
            if rng.chance(70) {
                graph.activate(NodeId::new(i));
            }
        }
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| rand_out(&mut rng)).collect();
        incremental.observe(&graph, &outputs);
        oracle.observe(&graph, &outputs);

        for round in 1..40 {
            let mut next = graph.clone();
            for _ in 0..rng.below(4) {
                let a = NodeId::new(rng.below(n as u64) as usize);
                let b = NodeId::new(rng.below(n as u64) as usize);
                if a != b && next.is_active(a) && next.is_active(b) {
                    next.toggle_edge(a, b);
                }
            }
            if rng.chance(25) {
                let v = NodeId::new(rng.below(n as u64) as usize);
                if next.is_active(v) {
                    for u in next.neighbors_vec(v) {
                        next.remove_edge(v, u);
                    }
                    next.deactivate(v);
                } else {
                    next.activate(v);
                }
            }
            let delta = GraphDelta::between(&graph, &next);
            let mut changed = Vec::new();
            for (i, out) in outputs.iter_mut().enumerate() {
                if rng.chance(20) {
                    let o = rand_out(&mut rng);
                    if o != *out {
                        *out = o;
                        changed.push(NodeId::new(i));
                    }
                }
            }
            incremental
                .observe_delta_with_churn(&delta, &outputs, Some(&changed))
                .unwrap();
            oracle.observe(&next, &outputs);
            graph = next;
            assert_eq!(
                incremental.summary(),
                oracle.summary(),
                "T={t} check_from={check_from} seed={seed} diverged at round {round}"
            );
        }
    }

    #[test]
    fn incremental_coloring_matches_oracle_on_random_runs() {
        let rand_color = |rng: &mut Lcg| -> Option<ColorOutput> {
            if rng.chance(10) {
                None
            } else if rng.chance(25) {
                Some(ColorOutput::Undecided)
            } else {
                Some(ColorOutput::Colored(1 + rng.below(4) as usize))
            }
        };
        for t in [1usize, 2, 3, 5] {
            for seed in 0..4u64 {
                assert_equivalence(ColoringProblem, t, t - 1, seed, rand_color);
            }
        }
        // Early and late check starts exercise ledger creation before the
        // window is full and after a long warm-up.
        assert_equivalence(ColoringProblem, 3, 0, 99, rand_color);
        assert_equivalence(ColoringProblem, 3, 10, 100, rand_color);
    }

    #[test]
    fn incremental_mis_matches_oracle_on_random_runs() {
        use crate::mis::MisProblem;
        use crate::output::MisOutput;
        let rand_mis = |rng: &mut Lcg| -> Option<MisOutput> {
            match rng.below(10) {
                0 => None,
                1 | 2 => Some(MisOutput::Undecided),
                3..=6 => Some(MisOutput::InMis),
                _ => Some(MisOutput::Dominated),
            }
        };
        for t in [1usize, 2, 4] {
            for seed in 10..14u64 {
                assert_equivalence(MisProblem, t, t - 1, seed, rand_mis);
            }
        }
    }
}
