//! Streaming round observers.
//!
//! The paper's guarantees are statements about *whole executions*. Rather
//! than materializing every round (a full graph + output clone per round,
//! `O(n · rounds)` memory) and verifying in a post-hoc pass, a
//! [`RoundObserver`] receives a borrowed [`RoundView`] right after each
//! round executes, so metrics, T-dynamic verification, and trace recording
//! run *while* the execution streams by, each keeping only the state it
//! actually needs (an `O(window)` ring of graphs for verification, `O(n)`
//! for churn tracking, deltas for trace recording).
//!
//! Built-in observers:
//!
//! * [`TraceRecorder`] — records the dynamic graph sequence (and, unless
//!   constructed with [`TraceRecorder::graphs_only`], the per-round outputs)
//!   into an [`ExecutionRecord`].
//! * [`DeltaLogRecorder`] — streams the graph sequence to an on-disk delta
//!   log (`dynnet_graph::codec`) in `O(1)` memory in the number of rounds,
//!   for million-round traces that must survive the process.
//! * [`ChurnStats`] — per-round and per-node output-change counters.
//! * [`ConvergenceTracker`] — per-node wake-up and first-decision rounds.
//! * [`MetricsObserver`] — mirrors round/churn/awake/delta counters into the
//!   unified `dynnet-obs` metric registry (`sim.*`), and stamps pool and
//!   trace-buffer totals (`pool.*`, `obs.*`) at the end of the execution.
//!
//! The streaming T-dynamic verifier lives in `dynnet-core`
//! (`TDynamicVerifier`) because it needs the problem definitions.

use dynnet_graph::{
    CodecError, CsrGraph, DeltaLogWriter, DynamicGraphTrace, Graph, GraphDelta, LogStats, NodeId,
};
use std::cell::OnceCell;
use std::sync::Arc;

/// Borrowed view of one executed round, handed to [`RoundObserver::on_round`].
pub struct RoundView<'a, O> {
    /// The round that was executed (0-based).
    pub round: u64,
    /// The effective communication graph `G_r` over `V_r` (shared snapshot;
    /// clone the `Arc` to retain it beyond the callback).
    pub graph: &'a Arc<CsrGraph>,
    /// The change of the effective graph relative to the previous round:
    /// `None` exactly on round 0, `Some` on every later round (still valid
    /// when a dense delta fell back to a full CSR rebuild). Delta-aware
    /// observers — trace recording, window maintenance — consume this
    /// instead of diffing or converting whole graphs.
    pub delta: Option<&'a GraphDelta>,
    /// Output of every node at the end of the round (`None` = still asleep).
    pub outputs: &'a [Option<O>],
    /// Nodes whose output changed this round (the round's *output churn*),
    /// when the producer tracked it — the simulator always does
    /// ([`crate::StepSummary::changed_outputs`]). `None` means "unknown":
    /// consumers must diff `outputs` themselves. When `Some`, the list is
    /// exact — every node not listed has the same output as last round — so
    /// churn-driven consumers (e.g. the incremental T-dynamic verifier) can
    /// skip the `O(n)` scan.
    pub changed_outputs: Option<&'a [NodeId]>,
    /// Nodes that woke up in this round.
    pub newly_awake: &'a [NodeId],
    /// Number of awake nodes at the end of the round.
    pub num_awake: usize,
    /// Round-scoped cache behind [`RoundView::current_graph`]: the adjacency
    /// [`Graph`] form of `graph` is built at most once per round no matter
    /// how many observers ask for it. Callers constructing a view supply a
    /// fresh (empty) cell per round.
    pub graph_cell: &'a OnceCell<Graph>,
}

impl<O> RoundView<'_, O> {
    /// The round's communication graph in mutable-adjacency [`Graph`] form
    /// (what [`dynnet_graph::GraphWindow::push`] and most checkers take).
    ///
    /// The conversion from the CSR snapshot is done lazily on first call and
    /// shared across all observers of the round, so any number of observers
    /// cost one conversion total — and rounds nobody inspects cost none.
    pub fn current_graph(&self) -> &Graph {
        self.graph_cell.get_or_init(|| self.graph.to_graph())
    }
}

/// A streaming consumer of an execution, invoked once per round.
///
/// Implementations must not assume the borrowed data outlives the callback;
/// anything worth keeping must be copied out (cheaply, e.g. by cloning the
/// graph `Arc`).
pub trait RoundObserver<O> {
    /// Called after every executed round with a borrowed view of its results.
    fn on_round(&mut self, view: &RoundView<'_, O>);

    /// Called once after the last round of the execution.
    fn finish(&mut self) {}
}

/// Observer pairs observe jointly: each round is streamed to both elements
/// in order. Nest pairs for larger sets. This lets sweep cells hand a whole
/// observer set to a factory-based runner as one value.
impl<O, A: RoundObserver<O>, B: RoundObserver<O>> RoundObserver<O> for (A, B) {
    fn on_round(&mut self, view: &RoundView<'_, O>) {
        self.0.on_round(view);
        self.1.on_round(view);
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

/// Builds a fresh observer for each scenario of a multi-scenario sweep.
///
/// A sweep executes many scenarios concurrently; observers are stateful and
/// cannot be shared across them, so the sweep engine takes a factory and
/// constructs one observer per scenario on the worker thread that runs it.
/// Blanket-implemented for `Fn() -> Obs` closures:
///
/// ```
/// use dynnet_runtime::observer::{ChurnStats, ObserverFactory};
/// let factory = || ChurnStats::<u32>::new();
/// let _fresh = factory.create();
/// ```
pub trait ObserverFactory<O>: Sync {
    /// The observer type this factory builds.
    type Observer: RoundObserver<O> + Send;

    /// Creates a fresh observer (called once per scenario).
    fn create(&self) -> Self::Observer;
}

impl<O, Obs, F> ObserverFactory<O> for F
where
    Obs: RoundObserver<O> + Send,
    F: Fn() -> Obs + Sync,
{
    type Observer = Obs;

    fn create(&self) -> Obs {
        self()
    }
}

/// The full record of one execution: the dynamic graph sequence plus
/// (optionally) the per-round outputs. Produced by [`TraceRecorder`].
pub struct ExecutionRecord<O> {
    /// The dynamic graph sequence of the execution (effective graphs `G_r`).
    pub trace: DynamicGraphTrace,
    /// Per-round records (same length as the trace; empty if the recorder
    /// was constructed with [`TraceRecorder::graphs_only`]).
    rounds: Vec<RoundRecord<O>>,
}

/// What [`TraceRecorder`] keeps of one round besides its graph, which lives
/// in [`ExecutionRecord::trace`]. Holding no graph snapshot keeps the
/// simulator's effective CSR unshared, so recording forces no
/// copy-on-write clone.
struct RoundRecord<O> {
    outputs: Vec<Option<O>>,
    newly_awake: Vec<NodeId>,
    num_awake: usize,
}

impl<O> ExecutionRecord<O> {
    /// Number of executed rounds.
    pub fn num_rounds(&self) -> usize {
        self.trace.num_rounds()
    }

    /// The per-round record of round `r`.
    ///
    /// Panics if the recorder did not record outputs.
    fn round(&self, r: usize) -> &RoundRecord<O> {
        // INVARIANT: documented caller contract — one record was kept per
        // executed round, so r must be < num_rounds().
        &self.rounds[r]
    }

    /// The outputs at the end of round `r`.
    ///
    /// Panics if the recorder did not record outputs.
    pub fn outputs_at(&self, r: usize) -> &[Option<O>] {
        &self.round(r).outputs
    }

    /// The nodes that woke up in round `r`.
    ///
    /// Panics if the recorder did not record outputs.
    pub fn newly_awake_at(&self, r: usize) -> &[NodeId] {
        &self.round(r).newly_awake
    }

    /// The number of awake nodes at the end of round `r`.
    ///
    /// Panics if the recorder did not record outputs.
    pub fn num_awake_at(&self, r: usize) -> usize {
        self.round(r).num_awake
    }

    /// The communication graph of round `r`.
    pub fn graph_at(&self, r: usize) -> Graph {
        self.trace.graph_at(r)
    }
}

/// Records the execution into an [`ExecutionRecord`].
///
/// By default both the graph sequence and the per-round outputs (an `O(n)`
/// output clone per round, plus the round's wake-ups) are recorded. Use
/// [`TraceRecorder::graphs_only`] to record just the graph sequence (stored
/// as per-round deltas, so memory is proportional to topology change, not
/// `n · rounds`). Neither mode retains a graph snapshot `Arc`.
pub struct TraceRecorder<O> {
    trace: Option<DynamicGraphTrace>,
    rounds: Vec<RoundRecord<O>>,
    record_outputs: bool,
}

impl<O: Clone> TraceRecorder<O> {
    /// Records the graph sequence and every round's outputs.
    pub fn new() -> Self {
        TraceRecorder {
            trace: None,
            rounds: Vec::new(),
            record_outputs: true,
        }
    }

    /// Records only the graph sequence (no output clones).
    pub fn graphs_only() -> Self {
        TraceRecorder {
            trace: None,
            rounds: Vec::new(),
            record_outputs: false,
        }
    }

    /// Number of rounds recorded so far.
    pub fn num_rounds(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| t.num_rounds())
    }

    /// The recorded graph sequence, or `None` if no round was recorded.
    pub fn trace(&self) -> Option<&DynamicGraphTrace> {
        self.trace.as_ref()
    }

    /// Consumes the recorder into the graph sequence alone, or `None` if no
    /// round was recorded.
    pub fn into_trace(self) -> Option<DynamicGraphTrace> {
        self.trace
    }

    /// Consumes the recorder into an [`ExecutionRecord`].
    ///
    /// A recorder that never saw a round yields the empty record (a
    /// zero-node, single-round trace with no outputs) rather than
    /// panicking — `num_rounds() >= 1` distinguishes a real recording.
    pub fn into_record(self) -> ExecutionRecord<O> {
        ExecutionRecord {
            trace: self
                .trace
                .unwrap_or_else(|| DynamicGraphTrace::new(Graph::new(0))),
            rounds: self.rounds,
        }
    }
}

impl<O: Clone> Default for TraceRecorder<O> {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl<O: Clone> RoundObserver<O> for TraceRecorder<O> {
    fn on_round(&mut self, view: &RoundView<'_, O>) {
        match (&mut self.trace, view.delta) {
            // Delta path: record the handed delta as-is — no graph
            // conversion, no `GraphDelta::between` recomputation.
            (Some(t), Some(d)) => t.push_delta(d.clone()),
            // A view without a delta mid-trace (the runner only sends
            // those in round 0): fall back to diffing.
            (Some(t), None) => t.push(view.current_graph()),
            (None, _) => self.trace = Some(DynamicGraphTrace::new(view.current_graph().clone())),
        }
        if self.record_outputs {
            self.rounds.push(RoundRecord {
                outputs: view.outputs.to_vec(),
                newly_awake: view.newly_awake.to_vec(),
                num_awake: view.num_awake,
            });
        }
    }
}

/// Streams the dynamic graph sequence to an on-disk delta log instead of
/// RAM, so million-round traces record in `O(1)` memory in the number of
/// rounds.
///
/// Rounds append one framed [`GraphDelta`] record each to the log at the
/// given path (see [`dynnet_graph::codec`] for the wire format): record 0
/// is the initial state expressed as a delta from the all-asleep empty
/// graph, so `dynnet_graph::codec::replay_log` reconstructs the final
/// recorded graph without any side information. A small mirror [`Graph`]
/// (`O(n + m)`, *not* `O(rounds)`) tracks the current topology so a round
/// that arrives without a delta past round 0 can be diffed.
///
/// IO and encode failures are sticky: the first [`CodecError`] stops the
/// recording and is surfaced by [`DeltaLogRecorder::close`] — observers
/// cannot return errors from `on_round`, and a durability layer must never
/// panic the simulation it records. On success `close` fsyncs the log,
/// bumps the `store.bytes_written` / `store.fsync_count` counters in the
/// unified metric registry, and returns the write-side [`LogStats`]
/// (whose `max_buffered` high-water mark is the bounded-memory evidence
/// the integration tests pin).
pub struct DeltaLogRecorder {
    path: std::path::PathBuf,
    writer: Option<DeltaLogWriter>,
    mirror: Option<Graph>,
    rounds: u64,
    error: Option<CodecError>,
}

impl DeltaLogRecorder {
    /// Creates a recorder that will write (truncating) the delta log at
    /// `path`. The file itself is created on the first observed round,
    /// when the universe size is known.
    pub fn create(path: impl Into<std::path::PathBuf>) -> Self {
        DeltaLogRecorder {
            path: path.into(),
            writer: None,
            mirror: None,
            rounds: 0,
            error: None,
        }
    }

    /// Number of rounds recorded so far.
    pub fn num_rounds(&self) -> u64 {
        self.rounds
    }

    /// The graph after the last recorded round (the mirror the log's
    /// replay must match), or `None` before the first round.
    pub fn final_graph(&self) -> Option<&Graph> {
        self.mirror.as_ref()
    }

    /// Current write-side statistics, if the log was opened.
    pub fn stats(&self) -> Option<LogStats> {
        self.writer.as_ref().map(DeltaLogWriter::stats)
    }

    fn append(&mut self, mut delta: GraphDelta) {
        if self.error.is_some() {
            return;
        }
        delta.normalize();
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.append(&delta) {
                self.error = Some(e);
                return;
            }
        }
        if let Some(m) = &mut self.mirror {
            delta.apply(m);
        }
        self.rounds += 1;
    }

    /// Finishes the log: flushes, fsyncs, stamps the `store.*` counters,
    /// and returns the final statistics — or the first error the recording
    /// hit (a recorder that saw no rounds returns empty stats and writes
    /// nothing).
    pub fn close(mut self) -> Result<LogStats, CodecError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let Some(writer) = self.writer.take() else {
            return Ok(LogStats::default());
        };
        let stats = writer.finish()?;
        let reg = dynnet_obs::registry();
        reg.counter("store.bytes_written").add(stats.bytes_written);
        reg.counter("store.fsync_count").add(stats.fsyncs);
        Ok(stats)
    }
}

impl<O> RoundObserver<O> for DeltaLogRecorder {
    fn on_round(&mut self, view: &RoundView<'_, O>) {
        if self.error.is_some() {
            return;
        }
        if self.writer.is_none() {
            // First round: open the log and write the initial state as a
            // delta from the all-asleep empty graph.
            let g = view.current_graph().clone();
            match DeltaLogWriter::create(&self.path, g.num_nodes()) {
                Ok(w) => self.writer = Some(w),
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
            let initial = GraphDelta::between(&Graph::new_all_asleep(g.num_nodes()), &g);
            self.mirror = Some(Graph::new_all_asleep(g.num_nodes()));
            self.append(initial);
            return;
        }
        match view.delta {
            // Delta path: the handed delta applies to the mirror exactly
            // as it applied to the simulator's graph.
            Some(d) => self.append(d.clone()),
            // A view without a delta mid-trace: diff against the mirror.
            None => {
                let delta = match &self.mirror {
                    Some(m) => GraphDelta::between(m, view.current_graph()),
                    None => GraphDelta::default(),
                };
                self.append(delta);
            }
        }
    }
}

/// Streaming output-churn statistics: per round, how many nodes changed their
/// output relative to the previous round (the series starts with a `0` for
/// round 0, matching `output_churn_series`), plus per-node change counters
/// and last-change rounds.
pub struct ChurnStats<O> {
    prev: Option<Vec<Option<O>>>,
    series: Vec<usize>,
    per_node: Vec<usize>,
    last_change: Vec<Option<usize>>,
}

impl<O: Clone + PartialEq> ChurnStats<O> {
    /// Creates an empty churn tracker.
    pub fn new() -> Self {
        ChurnStats {
            prev: None,
            series: Vec::new(),
            per_node: Vec::new(),
            last_change: Vec::new(),
        }
    }

    /// Output changes per round (index 0 is round 0 and always `0`).
    pub fn series(&self) -> &[usize] {
        &self.series
    }

    /// Number of output changes of each node over the whole execution.
    pub fn per_node(&self) -> &[usize] {
        &self.per_node
    }

    /// The last round in which node `v` changed its output, if any.
    pub fn last_change_round(&self, v: NodeId) -> Option<usize> {
        self.last_change.get(v.index()).copied().flatten()
    }

    /// Total output changes from round `from` (inclusive) to the end.
    pub fn total_from(&self, from: usize) -> usize {
        self.series.iter().skip(from).sum()
    }

    /// Mean output changes per round from round `from` (inclusive).
    pub fn rate_from(&self, from: usize) -> f64 {
        let rounds = self.series.len().saturating_sub(from);
        if rounds == 0 {
            0.0
        } else {
            self.total_from(from) as f64 / rounds as f64
        }
    }
}

impl<O: Clone + PartialEq> Default for ChurnStats<O> {
    fn default() -> Self {
        ChurnStats::new()
    }
}

impl<O: Clone + PartialEq> RoundObserver<O> for ChurnStats<O> {
    fn on_round(&mut self, view: &RoundView<'_, O>) {
        if self.per_node.is_empty() {
            self.per_node = vec![0; view.outputs.len()];
            self.last_change = vec![None; view.outputs.len()];
        }
        let changed = match &self.prev {
            None => 0,
            Some(prev) => {
                let mut count = 0;
                for (i, (a, b)) in prev.iter().zip(view.outputs).enumerate() {
                    if a != b {
                        count += 1;
                        self.per_node[i] += 1;
                        self.last_change[i] = Some(view.round as usize);
                    }
                }
                count
            }
        };
        self.series.push(changed);
        self.prev = Some(view.outputs.to_vec());
    }
}

/// Mirrors per-round simulator signals into the unified metric registry
/// ([`dynnet_obs::registry()`]): `sim.rounds`, `sim.output_churn`,
/// `sim.delta_edges`, `sim.newly_awake` accumulate across the execution,
/// `sim.num_awake` is a gauge of the latest round. At
/// [`RoundObserver::finish`] it additionally stamps the worker-pool totals
/// (`pool.*`, from [`rayon::pool_stats`]) and the trace-buffer state
/// (`obs.trace_events` / `obs.trace_dropped`).
///
/// Handles are resolved once at construction, so the per-round path is a
/// handful of relaxed atomic adds — cheap enough to leave attached even in
/// benchmarks. Like every observer, it only reads the round view; it is
/// deterministically inert.
pub struct MetricsObserver {
    rounds: dynnet_obs::CounterHandle,
    output_churn: dynnet_obs::CounterHandle,
    delta_edges: dynnet_obs::CounterHandle,
    newly_awake: dynnet_obs::CounterHandle,
    num_awake: dynnet_obs::CounterHandle,
}

impl MetricsObserver {
    /// Creates an observer bound to the process-wide registry.
    pub fn new() -> Self {
        let reg = dynnet_obs::registry();
        MetricsObserver {
            rounds: reg.counter("sim.rounds"),
            output_churn: reg.counter("sim.output_churn"),
            delta_edges: reg.counter("sim.delta_edges"),
            newly_awake: reg.counter("sim.newly_awake"),
            num_awake: reg.counter("sim.num_awake"),
        }
    }
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver::new()
    }
}

impl<O> RoundObserver<O> for MetricsObserver {
    fn on_round(&mut self, view: &RoundView<'_, O>) {
        self.rounds.inc();
        if let Some(changed) = view.changed_outputs {
            self.output_churn.add(changed.len() as u64);
        }
        if let Some(delta) = view.delta {
            self.delta_edges
                .add((delta.inserted.len() + delta.removed.len()) as u64);
        }
        self.newly_awake.add(view.newly_awake.len() as u64);
        self.num_awake.set(view.num_awake as u64);
    }

    fn finish(&mut self) {
        let reg = dynnet_obs::registry();
        let stats = rayon::pool_stats();
        reg.counter("pool.budget").set(stats.budget as u64);
        reg.counter("pool.workers_spawned")
            .set(stats.workers_spawned as u64);
        reg.counter("pool.tasks_pooled").set(stats.tasks_pooled);
        reg.counter("pool.calls_inline").set(stats.calls_inline);
        reg.counter("pool.peak_active")
            .set(stats.peak_active as u64);
        reg.counter("obs.trace_events")
            .set(dynnet_obs::events_len() as u64);
        reg.counter("obs.trace_dropped")
            .set(dynnet_obs::dropped_events());
    }
}

/// Tracks, per node, the round it woke up and the first round its output
/// satisfied a "decided" predicate, yielding wake-to-decision latencies and
/// the round in which the whole network was first done.
pub struct ConvergenceTracker<O> {
    decided: Box<dyn Fn(&O) -> bool + Send>,
    wake_round: Vec<Option<u64>>,
    decided_round: Vec<Option<u64>>,
    all_done_round: Option<u64>,
}

impl<O> ConvergenceTracker<O> {
    /// Creates a tracker with the given "is this output decided?" predicate.
    pub fn new(decided: impl Fn(&O) -> bool + Send + 'static) -> Self {
        ConvergenceTracker {
            decided: Box::new(decided),
            wake_round: Vec::new(),
            decided_round: Vec::new(),
            all_done_round: None,
        }
    }

    /// The round in which node `v` woke, if observed.
    pub fn wake_round(&self, v: NodeId) -> Option<u64> {
        self.wake_round.get(v.index()).copied().flatten()
    }

    /// The first round in which node `v`'s output was decided, if any.
    pub fn decided_round(&self, v: NodeId) -> Option<u64> {
        self.decided_round.get(v.index()).copied().flatten()
    }

    /// The first round after which every node (the whole universe) was awake
    /// and decided, if that ever happened.
    pub fn all_done_round(&self) -> Option<u64> {
        self.all_done_round
    }

    /// Wake-to-first-decision latency (in rounds) of every node that reached
    /// a decision.
    pub fn latencies(&self) -> Vec<u64> {
        self.wake_round
            .iter()
            .zip(&self.decided_round)
            .filter_map(|(w, d)| Some(d.as_ref()? - w.as_ref()?))
            .collect()
    }
}

impl<O> RoundObserver<O> for ConvergenceTracker<O> {
    fn on_round(&mut self, view: &RoundView<'_, O>) {
        if self.wake_round.is_empty() {
            self.wake_round = vec![None; view.outputs.len()];
            self.decided_round = vec![None; view.outputs.len()];
        }
        for v in view.newly_awake {
            self.wake_round[v.index()] = Some(view.round);
        }
        let mut all_done = true;
        for (i, out) in view.outputs.iter().enumerate() {
            match out {
                Some(o) if (self.decided)(o) => {
                    if self.decided_round[i].is_none() {
                        self.decided_round[i] = Some(view.round);
                    }
                }
                _ => all_done = false,
            }
        }
        if all_done && self.all_done_round.is_none() {
            self.all_done_round = Some(view.round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynnet_graph::{Edge, Graph};

    fn send_round(
        obs: &mut dyn RoundObserver<u32>,
        round: u64,
        graph: &Arc<CsrGraph>,
        outputs: &[Option<u32>],
        newly_awake: &[NodeId],
    ) {
        let graph_cell = OnceCell::new();
        obs.on_round(&RoundView {
            round,
            graph,
            delta: None,
            outputs,
            changed_outputs: None,
            newly_awake,
            num_awake: outputs.len(),
            graph_cell: &graph_cell,
        });
    }

    #[test]
    fn trace_recorder_builds_record() {
        let g0 = Arc::new(CsrGraph::from_graph(&Graph::from_edges(
            3,
            [Edge::of(0, 1)],
        )));
        let g1 = Arc::new(CsrGraph::from_graph(&Graph::from_edges(
            3,
            [Edge::of(1, 2)],
        )));
        let mut rec = TraceRecorder::new();
        send_round(&mut rec, 0, &g0, &[Some(1), None, None], &[NodeId::new(0)]);
        send_round(
            &mut rec,
            1,
            &g1,
            &[Some(1), Some(2), None],
            &[NodeId::new(1)],
        );
        rec.finish();
        assert_eq!(rec.num_rounds(), 2);
        let record = rec.into_record();
        assert_eq!(record.num_rounds(), 2);
        assert_eq!(record.graph_at(1).edge_vec(), vec![Edge::of(1, 2)]);
        assert_eq!(record.outputs_at(1)[1], Some(2));
        assert_eq!(record.newly_awake_at(0), &[NodeId::new(0)]);
        assert_eq!(record.num_awake_at(1), 3);
    }

    #[test]
    fn graphs_only_skips_reports() {
        let g0 = Arc::new(CsrGraph::from_graph(&Graph::from_edges(
            2,
            [Edge::of(0, 1)],
        )));
        let mut rec: TraceRecorder<u32> = TraceRecorder::graphs_only();
        send_round(&mut rec, 0, &g0, &[Some(1), Some(2)], &[]);
        let record = rec.into_record();
        assert_eq!(record.trace.num_rounds(), 1);
        assert!(record.rounds.is_empty());
    }

    #[test]
    fn churn_stats_counts_changes() {
        let g = Arc::new(CsrGraph::from_graph(&Graph::new(2)));
        let mut churn = ChurnStats::new();
        send_round(&mut churn, 0, &g, &[Some(0), Some(0)], &[]);
        send_round(&mut churn, 1, &g, &[Some(1), Some(0)], &[]);
        send_round(&mut churn, 2, &g, &[Some(1), Some(2)], &[]);
        send_round(&mut churn, 3, &g, &[Some(1), Some(2)], &[]);
        assert_eq!(churn.series(), &[0, 1, 1, 0]);
        assert_eq!(churn.total_from(0), 2);
        assert_eq!(churn.total_from(2), 1);
        assert_eq!(churn.per_node(), &[1, 1]);
        assert_eq!(churn.last_change_round(NodeId::new(0)), Some(1));
        assert_eq!(churn.last_change_round(NodeId::new(1)), Some(2));
        assert!(churn.rate_from(0) > 0.49 && churn.rate_from(0) < 0.51);
    }

    #[test]
    fn convergence_tracker_latencies() {
        let g = Arc::new(CsrGraph::from_graph(&Graph::new(2)));
        let mut conv = ConvergenceTracker::new(|&o: &u32| o > 0);
        send_round(&mut conv, 0, &g, &[Some(0), None], &[NodeId::new(0)]);
        send_round(&mut conv, 1, &g, &[Some(5), Some(0)], &[NodeId::new(1)]);
        assert_eq!(conv.all_done_round(), None);
        send_round(&mut conv, 2, &g, &[Some(5), Some(7)], &[]);
        assert_eq!(conv.wake_round(NodeId::new(1)), Some(1));
        assert_eq!(conv.decided_round(NodeId::new(0)), Some(1));
        assert_eq!(conv.decided_round(NodeId::new(1)), Some(2));
        assert_eq!(conv.all_done_round(), Some(2));
        assert_eq!(conv.latencies(), vec![1, 1]);
    }
}
