//! The synchronous round-based simulator.
//!
//! One [`Simulator`] drives one distributed algorithm (one [`NodeAlgorithm`]
//! instance per awake node) over a dynamic graph supplied round-by-round by
//! the caller (usually the `Scenario` runner of `dynnet-adversary`). Each
//! call to [`Simulator::step_delta`] executes one round of the paper's model:
//!
//! 1. the caller passes the adversary's graph `G_r` and its change `δ_r`,
//! 2. nodes that become active wake up,
//! 3. every awake node broadcasts one message to its current neighbors,
//! 4. every awake node receives its neighbors' messages and updates state,
//! 5. every awake node returns its output.
//!
//! The per-node send and receive phases are embarrassingly parallel; with
//! [`SimConfig::parallel`] enabled they run on rayon. Because node randomness
//! is derived from `(seed, node, round)` (see [`crate::rng`]), sequential and
//! parallel execution produce bit-identical results.
//!
//! ## The cache-conscious round kernel
//!
//! Node state is laid out structure-of-arrays (see [`crate::node_state`]):
//! awake flags in a packed bitset, wake rounds in a dense `u64` array, and
//! the algorithm instances / outputs / round messages in three contiguous
//! arenas indexed by node. The send phase writes each node's message into a
//! **persistent** message buffer in place (no per-round allocation); the
//! receive phase walks `(nodes, outputs)` shard by shard with one reusable
//! shard-local inbox scratch vector, so the hot loops stream linearly and
//! parallel shards never bounce cache lines. Work distribution and the
//! budget-aware parallel threshold are described on
//! [`SimConfig::parallel_threshold`].
//!
//! [`Simulator::step_delta`] is the only round entry point. Round 0 builds
//! the effective (awake-restricted) CSR from the whole graph; every later
//! round patches that persistent CSR with the round's [`GraphDelta`] in
//! `O(|δ|)`.

use crate::algorithm::{AlgorithmFactory, NodeAlgorithm, NodeContext};
use crate::node_state::AwakeSet;
use crate::rng::node_round_rng;
use crate::wakeup::WakeupSchedule;
use dynnet_graph::{CsrApplyOutcome, CsrGraph, Edge, Graph, GraphDelta, NodeId};
use std::sync::Arc;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Experiment seed; all node randomness derives from it.
    pub seed: u64,
    /// Execute the per-node phases on the rayon thread pool.
    pub parallel: bool,
    /// Minimum number of awake nodes before the parallel path is used
    /// (below this the sequential path is faster), scaled by the
    /// thread-budget pressure.
    ///
    /// Per-round parallel setup (chunk planning, pool wakeups, the atomic
    /// ticket) amortizes over the threads a call actually fans out to.
    /// When an outer scheduler — e.g. a sharded sweep — has claimed part of
    /// the budget via `rayon::claim_threads`, the effective width
    /// (`budget / claimed`) shrinks and the same threshold would let cells
    /// pay full setup for a fraction of the fan-out. The threshold is
    /// therefore multiplied by `budget / effective_width`, and a width of 1
    /// (budget fully claimed, or a single-core budget) skips the parallel
    /// path outright. Purely a scheduling decision: results are
    /// bit-identical either way.
    pub parallel_threshold: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            parallel: false,
            parallel_threshold: 512,
        }
    }
}

impl SimConfig {
    /// Sequential execution with the given seed.
    pub fn sequential(seed: u64) -> Self {
        SimConfig {
            seed,
            parallel: false,
            ..Default::default()
        }
    }

    /// Rayon-parallel execution with the given seed.
    pub fn parallel(seed: u64) -> Self {
        SimConfig {
            seed,
            parallel: true,
            ..Default::default()
        }
    }
}

/// The result of [`Simulator::step_delta`]: everything a
/// [`crate::observer::RoundObserver`] needs that is not borrowed directly
/// from the simulator. Outputs are *not* cloned — observers read them through
/// [`crate::observer::RoundView::outputs`].
#[derive(Clone, Debug)]
pub struct StepSummary {
    /// The round that was executed (0-based).
    pub round: u64,
    /// Snapshot of the effective communication graph `G_r` over `V_r`.
    pub graph: Arc<CsrGraph>,
    /// The change of the *effective* graph relative to the previous round:
    /// `None` exactly in round 0, which has no previous-round basis, and
    /// `Some` in every later round (valid even when a dense delta fell back
    /// to a full CSR rebuild).
    pub delta: Option<GraphDelta>,
    /// Nodes that woke up in this round.
    pub newly_awake: Vec<NodeId>,
    /// Number of awake nodes at the end of the round.
    pub num_awake: usize,
    /// Nodes whose published output changed this round (ascending), the
    /// round's *output churn*. A node appears on its wake-up round (its
    /// output goes from `None` to `Some`) and in every round its algorithm
    /// returns a different output than before. Tracked at publication time,
    /// so consumers that only care about the changed nodes — e.g. the
    /// incremental T-dynamic verifier — run in `O(|churn|)` instead of
    /// re-scanning all `n` outputs.
    pub changed_outputs: Vec<NodeId>,
}

/// Counters for the round pipeline's incremental fast path, exposed through
/// [`Simulator::delta_stats`]. A steady-state sparse-churn run performs one
/// full build (round 0) and patches every further round:
/// `full_csr_builds == 1` and `rounds_patched == rounds - 1`. The simulator
/// contains no whole-`Graph` clone site at all — sleeper pruning builds the
/// CSR directly from the adversary graph ([`CsrGraph::from_graph_filtered`])
/// and the delta path only patches — so "zero graph clones" holds by
/// construction, and these counters pin the remaining build/copy events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Rounds whose effective CSR was patched in place from a delta.
    pub rounds_patched: usize,
    /// Full effective-CSR builds: round 0 and dense-delta fallbacks.
    pub full_csr_builds: usize,
    /// Copy-on-write clones of the effective CSR, forced when an observer
    /// retained the previous round's snapshot `Arc` across rounds.
    pub cow_clones: usize,
    /// Arena compactions of the effective CSR (amortized maintenance after
    /// many row relocations; the round itself was still patched in place).
    pub compactions: usize,
}

/// Drives one [`NodeAlgorithm`] over a dynamic graph, one round per
/// [`Simulator::step_delta`] call.
pub struct Simulator<A, F, W>
where
    A: NodeAlgorithm,
    F: AlgorithmFactory<A>,
    W: WakeupSchedule,
{
    n: usize,
    factory: F,
    wakeup: W,
    config: SimConfig,
    /// Per-node algorithm instances, a contiguous arena indexed by node
    /// (`None` = asleep; the niche-optimized `Option` adds no indirection).
    nodes: Vec<Option<A>>,
    /// Published outputs, dense and indexed by node.
    outputs: Vec<Option<A::Output>>,
    /// Persistent send-phase buffer: slot `v` holds the message node `v`
    /// broadcast this round (`None` while `v` is asleep). Filled in place
    /// every round — the kernel performs no per-round `O(n)` allocation.
    messages: Vec<Option<A::Msg>>,
    /// Awake flags, one packed bit per node (SoA hot field).
    awake: AwakeSet,
    /// Round in which each node woke; valid only where the `awake` bit is
    /// set, read only when a `NodeContext` is built (never scanned).
    wake_round: Vec<u64>,
    /// Incrementally maintained count of awake nodes (avoids the per-round
    /// `O(n)` rescans of the awake set in the send/receive phases).
    num_awake: usize,
    /// Nodes that have not woken yet, ascending. The wake-up scan walks this
    /// shrinking list instead of all `n` nodes, so rounds late in a run cost
    /// `O(|sleepers|)` — zero once everyone is awake, and small even when a
    /// few nodes never wake.
    pending_sleepers: Vec<NodeId>,
    /// The effective communication graph of the last executed round (`G_r`
    /// restricted to awake nodes), maintained incrementally across rounds on
    /// the delta path. Shared with observers; copy-on-write if retained.
    effective: Arc<CsrGraph>,
    /// Whether `effective` reflects the previous round (false before round 0).
    effective_valid: bool,
    stats: DeltaStats,
    next_round: u64,
}

impl<A, F, W> Simulator<A, F, W>
where
    A: NodeAlgorithm,
    F: AlgorithmFactory<A>,
    W: WakeupSchedule,
{
    /// Creates a simulator over a universe of `n` nodes.
    pub fn new(n: usize, factory: F, wakeup: W, config: SimConfig) -> Self {
        Simulator {
            n,
            factory,
            wakeup,
            config,
            nodes: (0..n).map(|_| None).collect(),
            outputs: vec![None; n],
            messages: (0..n).map(|_| None).collect(),
            awake: AwakeSet::new(n),
            wake_round: vec![0; n],
            num_awake: 0,
            pending_sleepers: (0..n).map(NodeId::new).collect(),
            effective: Arc::new(CsrGraph::empty(n)),
            effective_valid: false,
            stats: DeltaStats::default(),
            next_round: 0,
        }
    }

    /// The universe size `n`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The next round to be executed.
    pub fn round(&self) -> u64 {
        self.next_round
    }

    /// Returns `true` if node `v` has woken up.
    pub fn is_awake(&self, v: NodeId) -> bool {
        self.awake.contains(v.index())
    }

    /// The round in which node `v` woke, if it has.
    pub fn woke_at(&self, v: NodeId) -> Option<u64> {
        let i = v.index();
        self.awake.contains(i).then(|| self.wake_round[i])
    }

    /// The most recent outputs (as of the last executed round).
    pub fn outputs(&self) -> &[Option<A::Output>] {
        &self.outputs
    }

    /// Number of nodes that have woken up so far.
    pub fn num_awake(&self) -> usize {
        self.num_awake
    }

    /// Immutable access to a node's algorithm instance (testing/inspection).
    pub fn node(&self, v: NodeId) -> Option<&A> {
        self.nodes[v.index()].as_ref()
    }

    /// Executes one round on the graph `graph` (the adversary's `G_r` for
    /// `r = self.round()`), where `delta` is the change from the previous
    /// round's adversary graph to `graph`. This is the simulator's only
    /// round entry point.
    ///
    /// Nodes that have not woken up yet (because their wake-up schedule has
    /// not fired) are not part of `V_r` in the paper's model; they are
    /// pruned from the *effective* communication graph of the round, which
    /// is the graph reported in [`StepSummary::graph`] and used for message
    /// delivery.
    ///
    /// In round 0 `delta` is not consulted: the effective CSR is built from
    /// `graph` directly and [`StepSummary::delta`] is `None` (callers pass
    /// `GraphDelta::new()`). In every later round the persistent effective
    /// CSR is patched in `O(|δ|)`: the adversary's delta is filtered to
    /// awake endpoints, the edges of nodes waking this round are folded in,
    /// and the result is applied in place — no `Graph` clone, no full CSR
    /// rebuild (unless the delta is dense). To drive a whole-graph sequence,
    /// pass `GraphDelta::between(&prev, &graph)`.
    pub fn step_delta(&mut self, graph: &Graph, delta: &GraphDelta) -> StepSummary {
        assert_eq!(graph.num_nodes(), self.n, "graph universe mismatch");
        let round = self.next_round;
        let newly_awake = {
            let _span = dynnet_obs::phase_span("round", "wakeup");
            self.run_wakeups(graph, round)
        };

        if !self.effective_valid {
            {
                let _span = dynnet_obs::phase_span("round", "csr_rebuild");
                self.rebuild_effective(graph);
            }
            return self.finish_round(round, newly_awake, None);
        }

        let mut patch_span = dynnet_obs::phase_span("round", "csr_patch");
        // Translate the adversary's delta into the *effective* delta: the
        // change of the awake-restricted graph relative to last round.
        let prev_csr = &self.effective;
        let awake_set = &self.awake;
        let awake = |v: NodeId| awake_set.contains(v.index());
        let mut eff = GraphDelta::new();
        // Nodes waking this round join the effective graph with their
        // current edges to other awake nodes.
        for &v in &newly_awake {
            eff.woken.push(v);
            for u in graph.neighbors(v) {
                if awake(u) && !prev_csr.has_edge(v, u) {
                    eff.insert(v, u);
                }
            }
        }
        // Adversary re-activations of nodes that are already awake.
        for &v in &delta.woken {
            if awake(v) {
                eff.woken.push(v);
            }
        }
        // An edge listed in both `inserted` and `removed` nets to absent
        // ([`GraphDelta::apply`] inserts before it removes); its insertion
        // must not leak into the effective delta, where the removal half
        // would be dropped by the `prev_csr.has_edge` tightening below.
        let netted_out: Option<std::collections::HashSet<Edge>> =
            if delta.inserted.is_empty() || delta.removed.is_empty() {
                None
            } else {
                Some(delta.removed.iter().copied().collect())
            };
        for e in &delta.inserted {
            // An insertion implicitly activates both endpoints in the
            // adversary graph (`Graph::insert_edge` semantics — and the
            // activation survives even a same-round removal of the edge);
            // propagate it to awake endpoints even when the edge itself is
            // filtered out because its other endpoint is still asleep.
            for w in [e.u, e.v] {
                if awake(w) && !prev_csr.is_active(w) {
                    eff.woken.push(w);
                }
            }
            if netted_out.as_ref().is_some_and(|r| r.contains(e)) {
                continue;
            }
            if awake(e.u) && awake(e.v) && !prev_csr.has_edge(e.u, e.v) {
                eff.inserted.push(*e);
            }
        }
        for e in &delta.removed {
            if prev_csr.has_edge(e.u, e.v) {
                eff.removed.push(*e);
            }
        }
        for &v in &delta.deactivated {
            if prev_csr.is_active(v) {
                eff.deactivated.push(v);
            }
        }
        eff.normalize();
        patch_span.set_arg(
            "delta_edges",
            (eff.inserted.len() + eff.removed.len()) as u64,
        );

        if Arc::strong_count(&self.effective) > 1 {
            // An observer retained last round's snapshot: copy-on-write.
            self.stats.cow_clones += 1;
        }
        let outcome = Arc::make_mut(&mut self.effective).apply_delta(&eff);
        match outcome {
            CsrApplyOutcome::Patched => self.stats.rounds_patched += 1,
            CsrApplyOutcome::Compacted => {
                self.stats.rounds_patched += 1;
                self.stats.compactions += 1;
            }
            CsrApplyOutcome::Rebuilt => self.stats.full_csr_builds += 1,
        }
        drop(patch_span);
        self.finish_round(round, newly_awake, Some(eff))
    }

    /// Wake-up phase: a node wakes in the first round where it is active in
    /// the adversary's graph and its wake-up schedule permits. Walks the
    /// shrinking pending-sleepers list, so the scan is `O(|sleepers|)` and
    /// free once everyone is awake.
    fn run_wakeups(&mut self, graph: &Graph, round: u64) -> Vec<NodeId> {
        let mut newly_awake = Vec::new();
        if !self.pending_sleepers.is_empty() {
            let awake = &mut self.awake;
            let wake_round = &mut self.wake_round;
            let wakeup = &self.wakeup;
            self.pending_sleepers.retain(|&v| {
                if graph.is_active(v) && round >= wakeup.wake_round(v) {
                    awake.insert(v.index());
                    wake_round[v.index()] = round;
                    newly_awake.push(v);
                    false
                } else {
                    true
                }
            });
            self.num_awake += newly_awake.len();
        }
        newly_awake
    }

    /// Full build of the effective CSR (round 0):
    /// constructed directly from `graph` with asleep nodes filtered out — no
    /// intermediate `Graph` clone.
    fn rebuild_effective(&mut self, graph: &Graph) {
        let csr = if self.num_awake == self.n {
            CsrGraph::from_graph(graph)
        } else {
            CsrGraph::from_graph_filtered(graph, |v| self.awake.contains(v.index()))
        };
        self.effective = Arc::new(csr);
        self.effective_valid = true;
        self.stats.full_csr_builds += 1;
    }

    /// Phases 3–7 of the round, common to round 0 and the patched rounds:
    /// instantiate the newly awake nodes, run send/deliver/receive, publish
    /// outputs. Output publication (and churn detection) is fused into the
    /// receive phase — per shard on the parallel path — so no separate
    /// `O(n)` scan runs.
    fn finish_round(
        &mut self,
        round: u64,
        newly_awake: Vec<NodeId>,
        delta: Option<GraphDelta>,
    ) -> StepSummary {
        let csr = Arc::clone(&self.effective);
        for &v in &newly_awake {
            let mut alg = self.factory.create(v);
            let mut ctx = self.context(v, round, &csr, 0);
            alg.on_wake(&mut ctx);
            self.nodes[v.index()] = Some(alg);
        }

        {
            let _span = dynnet_obs::phase_span("round", "send");
            self.run_send_phase(round, &csr);
        }
        let changed_outputs = {
            let mut span = dynnet_obs::phase_span("round", "receive");
            let changed = self.run_receive_phase(round, &csr);
            span.set_arg("churn", changed.len() as u64);
            changed
        };

        self.next_round += 1;
        StepSummary {
            round,
            graph: csr,
            delta,
            newly_awake,
            num_awake: self.num_awake,
            changed_outputs,
        }
    }

    /// Perf counters of the incremental round pipeline.
    pub fn delta_stats(&self) -> DeltaStats {
        self.stats
    }

    fn context<'a>(
        &self,
        v: NodeId,
        round: u64,
        csr: &'a CsrGraph,
        stream: u64,
    ) -> NodeContext<'a> {
        let i = v.index();
        let local_round = if self.awake.contains(i) {
            round - self.wake_round[i]
        } else {
            0
        };
        NodeContext {
            node: v,
            n: self.n,
            round,
            local_round,
            graph: csr,
            rng: node_round_rng(self.config.seed, v.0, round, stream),
        }
    }

    /// Whether this round's phases run on the pool. Purely a scheduling
    /// decision — sequential and parallel execution are bit-identical — so
    /// it may consult the live thread-budget state: the awake-node threshold
    /// scales with `budget / effective_width`, and an effective width of 1
    /// (budget fully claimed, or a single-core budget) skips parallel setup
    /// that could never be amortized (see [`SimConfig::parallel_threshold`]).
    fn use_parallel(&self, awake: usize) -> bool {
        if !self.config.parallel {
            return false;
        }
        let width = rayon::effective_width();
        if width <= 1 {
            return false;
        }
        let pressure = (rayon::max_threads() / width).max(1);
        awake >= self.config.parallel_threshold.saturating_mul(pressure)
    }

    /// Send phase: every awake node's message is written into the persistent
    /// [`Self::messages`] buffer in place (slot `v` stays `None` while `v`
    /// sleeps and is overwritten every round once awake — no clears, no
    /// per-round allocation). The parallel path walks aligned shards of
    /// `(nodes, messages)`.
    fn run_send_phase(&mut self, round: u64, csr: &CsrGraph) {
        let awake = self.num_awake;
        let seed = self.config.seed;
        let n = self.n;
        let wake_round = &self.wake_round;
        // HOT: per-node send closure — runs once per awake node per round
        // on every worker; must stay allocation-free.
        let send_one = |i: usize, alg: &mut A| {
            let v = NodeId::new(i);
            let mut ctx = NodeContext {
                node: v,
                n,
                round,
                local_round: round - wake_round[i],
                graph: csr,
                rng: node_round_rng(seed, v.0, round, 0),
            };
            alg.send(&mut ctx)
        };
        if self.use_parallel(awake) {
            rayon::par_zip_shards(
                &mut self.nodes,
                &mut self.messages,
                |offset, slots, msgs| {
                    for (k, (slot, msg)) in slots.iter_mut().zip(msgs.iter_mut()).enumerate() {
                        if let Some(alg) = slot.as_mut() {
                            *msg = Some(send_one(offset + k, alg));
                        }
                    }
                },
            );
        } else {
            for (i, (slot, msg)) in self.nodes.iter_mut().zip(&mut self.messages).enumerate() {
                if let Some(alg) = slot.as_mut() {
                    *msg = Some(send_one(i, alg));
                }
            }
        }
    }

    /// Receive phase fused with output publication: every awake node
    /// consumes its inbox, then its (possibly changed) output is published
    /// immediately, and the node is appended to the round's churn list if
    /// the published value differs from last round's.
    ///
    /// Returns the round's exact output churn, ascending. On the parallel
    /// path each worker shard processes an aligned contiguous slice of
    /// `(nodes, outputs)` and produces its own shard-local changed list;
    /// the shards are contiguous and in index order, so concatenating the
    /// per-shard lists is the node-order merge — byte-identical to the
    /// sequential pass, with no per-round `O(n)` publication scan anywhere.
    ///
    /// Each shard builds its nodes' inboxes in one reusable shard-local
    /// scratch vector (cleared per node, capacity retained across the
    /// shard), so inbox assembly performs no steady-state allocation and the
    /// scratch stays L2-resident while the shard streams its node range.
    fn run_receive_phase(&mut self, round: u64, csr: &CsrGraph) -> Vec<NodeId> {
        let awake = self.num_awake;
        let seed = self.config.seed;
        let n = self.n;
        let wake_round = &self.wake_round;
        let messages = &self.messages;
        // HOT: per-node receive closure — the inbox scratch is reused
        // across nodes; the only allocation is the per-message clone below.
        let receive_and_publish = |i: usize,
                                   slot: &mut Option<A>,
                                   out: &mut Option<A::Output>,
                                   inbox: &mut Vec<(NodeId, A::Msg)>,
                                   changed: &mut Vec<NodeId>| {
            if let Some(alg) = slot.as_mut() {
                let v = NodeId::new(i);
                inbox.clear();
                inbox.extend(
                    csr.neighbors(v)
                        .iter()
                        // ALLOC: delivery semantics — each neighbor gets its
                        // own copy of the payload; `A::Msg` is small by
                        // contract, so the clone is a memcpy, not a malloc.
                        .filter_map(|&u| messages[u.index()].clone().map(|m| (u, m))),
                );
                let mut ctx = NodeContext {
                    node: v,
                    n,
                    round,
                    local_round: round - wake_round[i],
                    graph: csr,
                    rng: node_round_rng(seed, v.0, round, 1),
                };
                alg.receive(&mut ctx, inbox);
                let published = alg.output();
                if out.as_ref() != Some(&published) {
                    *out = Some(published);
                    changed.push(v);
                }
            }
        };
        if self.use_parallel(awake) {
            let shard_lists =
                rayon::par_zip_shards(&mut self.nodes, &mut self.outputs, |offset, slots, outs| {
                    let mut changed = Vec::new();
                    let mut inbox: Vec<(NodeId, A::Msg)> = Vec::new();
                    for (k, (slot, out)) in slots.iter_mut().zip(outs.iter_mut()).enumerate() {
                        receive_and_publish(offset + k, slot, out, &mut inbox, &mut changed);
                    }
                    changed
                });
            let mut changed = Vec::with_capacity(shard_lists.iter().map(Vec::len).sum());
            for list in shard_lists {
                changed.extend(list);
            }
            changed
        } else {
            let mut changed = Vec::new();
            let mut inbox: Vec<(NodeId, A::Msg)> = Vec::new();
            for (i, (slot, out)) in self.nodes.iter_mut().zip(&mut self.outputs).enumerate() {
                receive_and_publish(i, slot, out, &mut inbox, &mut changed);
            }
            changed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Incoming;
    use crate::wakeup::{AllAtStart, ScriptedWakeup};
    use dynnet_graph::{generators, DynamicGraphTrace, Edge, Graph};
    use rand::Rng;

    /// Every node outputs the maximum id it has heard of (including itself):
    /// classic flooding; on a connected static graph of diameter D all nodes
    /// converge to the global maximum after D rounds.
    #[derive(Clone)]
    struct MaxFlood {
        best: u32,
    }

    impl NodeAlgorithm for MaxFlood {
        type Msg = u32;
        type Output = u32;

        fn send(&mut self, _ctx: &mut NodeContext<'_>) -> u32 {
            self.best
        }

        fn receive(&mut self, _ctx: &mut NodeContext<'_>, inbox: &[Incoming<u32>]) {
            for (_, m) in inbox {
                self.best = self.best.max(*m);
            }
        }

        fn output(&self) -> u32 {
            self.best
        }
    }

    fn max_flood_factory(v: NodeId) -> MaxFlood {
        MaxFlood { best: v.0 }
    }

    /// Outputs one random draw per round; used to check RNG determinism.
    struct RandomDraw {
        last: u64,
    }

    impl NodeAlgorithm for RandomDraw {
        type Msg = ();
        type Output = u64;

        fn send(&mut self, ctx: &mut NodeContext<'_>) {
            self.last = ctx.rng.gen();
        }

        fn receive(&mut self, _ctx: &mut NodeContext<'_>, _inbox: &[Incoming<()>]) {}

        fn output(&self) -> u64 {
            self.last
        }
    }

    #[test]
    fn flooding_converges_on_a_path() {
        let n = 8;
        let g = generators::path(n);
        let mut sim = Simulator::new(n, max_flood_factory, AllAtStart, SimConfig::sequential(1));
        sim.step_delta(&g, &GraphDelta::new());
        // After a single round only direct neighbors of the max know it.
        assert_eq!(sim.outputs()[0], Some(1));
        for _ in 1..n {
            sim.step_delta(&g, &GraphDelta::new());
        }
        for i in 0..n {
            assert_eq!(sim.outputs()[i], Some((n - 1) as u32));
        }
    }

    #[test]
    fn outputs_are_none_before_wakeup() {
        let n = 3;
        let g = generators::complete(n);
        let wake = ScriptedWakeup {
            rounds: vec![0, 2, 5],
        };
        let mut sim = Simulator::new(n, max_flood_factory, wake, SimConfig::sequential(0));
        let r0 = sim.step_delta(&g, &GraphDelta::new());
        assert!(sim.outputs()[0].is_some());
        assert!(sim.outputs()[1].is_none());
        assert_eq!(r0.newly_awake, vec![NodeId::new(0)]);
        let _r1 = sim.step_delta(&g, &GraphDelta::new());
        let r2 = sim.step_delta(&g, &GraphDelta::new());
        assert!(sim.outputs()[1].is_some());
        assert!(sim.outputs()[2].is_none());
        assert_eq!(r2.num_awake, 2);
        assert_eq!(sim.woke_at(NodeId::new(1)), Some(2));
    }

    #[test]
    fn messages_flow_only_over_current_edges() {
        // Two nodes connected only in round 1; flooding only succeeds then.
        let n = 2;
        let empty = Graph::new(n);
        let connected = Graph::from_edges(n, [Edge::of(0, 1)]);
        let mut sim = Simulator::new(n, max_flood_factory, AllAtStart, SimConfig::sequential(0));
        sim.step_delta(&empty, &GraphDelta::new());
        assert_eq!(sim.outputs()[0], Some(0));
        sim.step_delta(&connected, &GraphDelta::between(&empty, &connected));
        assert_eq!(sim.outputs()[0], Some(1));
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let n = 64;
        let g = generators::erdos_renyi_avg_degree(n, 6.0, &mut crate::rng::experiment_rng(3, "g"));
        let mut seq = Simulator::new(
            n,
            |_v| RandomDraw { last: 0 },
            AllAtStart,
            SimConfig {
                seed: 9,
                parallel: false,
                parallel_threshold: 0,
            },
        );
        let mut par = Simulator::new(
            n,
            |_v| RandomDraw { last: 0 },
            AllAtStart,
            SimConfig {
                seed: 9,
                parallel: true,
                parallel_threshold: 0,
            },
        );
        for _ in 0..5 {
            seq.step_delta(&g, &GraphDelta::new());
            par.step_delta(&g, &GraphDelta::new());
            assert_eq!(seq.outputs(), par.outputs());
        }
    }

    #[test]
    fn recorded_trace_replays_through_step_delta() {
        // A recorded trace replays through the single entry point: round 0
        // on the trace's first graph, then one recorded delta per round.
        let g0 = Graph::from_edges(3, [Edge::of(0, 1)]);
        let g1 = Graph::from_edges(3, [Edge::of(1, 2)]);
        let mut trace = DynamicGraphTrace::new(g0.clone());
        trace.push(&g1);
        let mut sim = Simulator::new(3, max_flood_factory, AllAtStart, SimConfig::sequential(0));
        let mut graph = g0;
        let mut rounds = vec![sim.step_delta(&graph, &GraphDelta::new()).round];
        for delta in trace.deltas() {
            delta.apply(&mut graph);
            rounds.push(sim.step_delta(&graph, delta).round);
        }
        assert_eq!(rounds, vec![0, 1]);
        assert_eq!(graph, g1);
        // Node 0 hears 1 in round 0; node 1 hears 2 in round 1; 0 never hears 2.
        assert_eq!(sim.outputs()[0], Some(1));
        assert_eq!(sim.outputs()[1], Some(2));
    }

    #[test]
    fn step_delta_nets_out_insert_remove_pairs() {
        // An edge inserted *and* removed by the same delta nets to absent
        // (apply order); the effective CSR must not keep a phantom edge.
        let n = 4;
        let g0 = Graph::from_edges(n, [Edge::of(0, 1)]);
        let mut sim = Simulator::new(n, max_flood_factory, AllAtStart, SimConfig::sequential(0));
        sim.step_delta(&g0, &GraphDelta::new());
        let mut delta = GraphDelta::new();
        delta.insert(NodeId::new(2), NodeId::new(3));
        delta.remove(NodeId::new(2), NodeId::new(3));
        let g1 = delta.materialize(&g0);
        assert!(!g1.has_edge(NodeId::new(2), NodeId::new(3)));
        let summary = sim.step_delta(&g1, &delta);
        assert!(!summary.graph.has_edge(NodeId::new(2), NodeId::new(3)));
        assert_eq!(*summary.graph, CsrGraph::from_graph(&g1));
    }

    #[test]
    fn insertion_reactivates_awake_endpoint_even_when_edge_is_filtered() {
        // Adversary deactivates node 0, then inserts {0, 2} while node 2 is
        // still asleep: the edge is pruned from the effective graph, but the
        // insertion's implicit re-activation of (awake) node 0 must still
        // reach the incremental CSR — exactly as a from-scratch build of the
        // awake-restricted graph has it.
        let n = 3;
        let wake = ScriptedWakeup {
            rounds: vec![0, 0, 9],
        };
        let g0 = Graph::from_edges(n, [Edge::of(0, 1)]);
        let mut d1 = GraphDelta::new();
        d1.remove(NodeId::new(0), NodeId::new(1));
        d1.deactivate(NodeId::new(0));
        let mut d2 = GraphDelta::new();
        d2.insert(NodeId::new(0), NodeId::new(2));
        let g1 = d1.materialize(&g0);
        let g2 = d2.materialize(&g1);

        let mut sim = Simulator::new(n, max_flood_factory, wake, SimConfig::sequential(0));
        sim.step_delta(&g0, &GraphDelta::new());
        sim.step_delta(&g1, &d1);
        let s_delta = sim.step_delta(&g2, &d2);

        let reference = CsrGraph::from_graph_filtered(&g2, |v| sim.is_awake(v));
        assert!(s_delta.graph.is_active(NodeId::new(0)));
        assert_eq!(*s_delta.graph, reference);
    }

    #[test]
    fn node_accessor_exposes_state() {
        let g = generators::complete(3);
        let mut sim = Simulator::new(3, max_flood_factory, AllAtStart, SimConfig::sequential(0));
        sim.step_delta(&g, &GraphDelta::new());
        assert_eq!(sim.node(NodeId::new(0)).unwrap().best, 2);
        assert_eq!(sim.round(), 1);
        assert!(sim.is_awake(NodeId::new(2)));
    }
}
