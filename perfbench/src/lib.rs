//! Layered benchmark of verified `Scenario` rounds.
//!
//! The paper's algorithms must output a T-dynamic solution in *every*
//! round, so the unit of work measured here is one [`Runner::step`] of a
//! `Scenario` with the streaming [`TDynamicVerifier`] attached. Every
//! workload runs through the public `Scenario::runner()` → `Runner::step`
//! path; rounds are timed from outside, as on-CPU time of the one thread
//! they run on (see `Stopwatch`), and split into round 0, the warm-up
//! (rounds `1..=T-2`), the first checked round `T-1` (where the verifier
//! seeds its ledger) and steady state (`r ≥ T`, when `Concat` holds its full
//! `T-1` instances).
//!
//! An untraced run ([`Plan::traced`] off) yields the end-to-end metrics. A
//! traced run yields the per-layer metrics from two sources, without any
//! span or accessor added inside the crates: `TimedAdversary` and
//! `TimedVerifier` wrap the public calls into the adversary and verifier
//! layers, and the `dynnet-obs` phase spans the runtime already emits are
//! collected after every round. Steady traced runs alternate traced and
//! untraced rounds, which gives the tracing overhead in the same process.
//!
//! See `README.md` next to this crate for the workloads and for which
//! end-to-end metric each per-layer metric should move.

use dynnet::algorithms::coloring::DynamicColoring;
use dynnet::algorithms::mis::DynamicMis;
use dynnet::obs::{MetricSource, Snapshot, TraceEvent};
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::runtime::AlgorithmFactory;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-edge flip probability of the churn workloads (0.1 % per round).
const FLIP_CHURN: f64 = 0.001;
/// Average footprint degree of every workload.
const AVG_DEGREE: f64 = 8.0;

/// One benchmark workload (see `README.md` for why each was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `dynamic_mis` (Corollary 1.3) under sparse uniform flip churn.
    MisErFlip,
    /// `dynamic_coloring` (Corollary 1.2) under random-waypoint mobility.
    ColoringMobility,
    /// Bare `DMis` (Algorithm 4, no `Concat`) at half a million nodes.
    DmisErFlip500k,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    const ALL: [Workload; 3] = [
        Workload::MisErFlip,
        Workload::ColoringMobility,
        Workload::DmisErFlip500k,
    ];

    /// The workload called `name` on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MisErFlip => "mis_er_flip",
            Workload::ColoringMobility => "coloring_mobility",
            Workload::DmisErFlip500k => "dmis_er_flip_500k",
        }
    }

    /// Universe size of the benchmarked configuration.
    pub fn default_n(self) -> usize {
        match self {
            Workload::MisErFlip | Workload::ColoringMobility => 2_000,
            Workload::DmisErFlip500k => 500_000,
        }
    }

    /// `(set-ups alone, set-ups running round 0, replicas of rounds
    /// 0..=T-1)` per run, from which the run reports the median set-up, the
    /// best round 0, and the median warm-up and round T-1. At n = 2,000 a
    /// set-up lasts under a millisecond, round 0 milliseconds and a replica
    /// seconds. At half a million nodes a set-up lasts half a second and a
    /// replica ten; there the rounds of one process barely differ, so only
    /// the set-up repeats.
    fn repetitions(self) -> (usize, usize, usize) {
        match self {
            Workload::MisErFlip | Workload::ColoringMobility => (100, 15, 3),
            Workload::DmisErFlip500k => (2, 0, 1),
        }
    }
}

/// Thread budget of every workload. At two threads on a two-core machine
/// the million-node round's median spread over 20 % between runs: load on
/// either core stalls every round.
pub const THREADS: usize = 1;

/// What one run executes and measures.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    /// Universe size (the workload default, or smaller in tests).
    pub n: usize,
    pub seed: u64,
    /// Per-layer run (spans and wrapper timers on) instead of end-to-end.
    pub traced: bool,
    /// Steady rounds run until both this much wall time has passed ...
    pub steady_seconds: f64,
    /// ... and at least this many steady rounds have executed. The counts
    /// reported as per-layer metrics cover exactly these first rounds, so
    /// they repeat for a given seed whatever the machine's speed.
    pub min_steady_rounds: usize,
}

impl Plan {
    /// The benchmarked configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, steady_seconds: f64, traced: bool) -> Self {
        Plan {
            workload,
            n: workload.default_n(),
            seed,
            traced,
            steady_seconds,
            min_steady_rounds: 100,
        }
    }

    /// The window `T = recommended_window(n)`.
    pub fn window(&self) -> usize {
        recommended_window(self.n)
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct Report {
    pub n: usize,
    pub window: usize,
    pub threads: usize,
    pub rounds_executed: usize,
    pub steady_rounds: usize,
    /// Rounds carrying the guarantee the paper proves for the algorithm.
    pub guaranteed_rounds: usize,
    /// Guaranteed rounds whose output was not a T-dynamic solution.
    pub failed_rounds: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Notes printed with the result (sample counts, attribution check).
    pub notes: Vec<String>,
    /// Broken checks; empty when the run is correct.
    pub problems: Vec<String>,
}

impl Report {
    /// Whether the run met every correctness check.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Runs one workload as `plan` describes.
pub fn run(plan: &Plan) -> Report {
    let n = plan.n;
    let seed = plan.seed;
    match plan.workload {
        Workload::MisErFlip => execute::<DynamicMis, _, _, _>(plan, MisProblem, || {
            let adversary = flip_churn(n, seed);
            (dynamic_mis(n, recommended_window(n)), adversary)
        }),
        Workload::ColoringMobility => {
            execute::<DynamicColoring, _, _, _>(plan, ColoringProblem, || {
                let config = MobilityConfig {
                    n,
                    // Expected unit-disk degree π r² n = AVG_DEGREE.
                    radius: (AVG_DEGREE / (std::f64::consts::PI * n as f64)).sqrt(),
                    min_speed: 0.0002,
                    max_speed: 0.001,
                };
                let adversary = MobilityAdversary::new(config, seed);
                (dynamic_coloring(recommended_window(n)), adversary)
            })
        }
        Workload::DmisErFlip500k => execute::<DMis, _, _, _>(plan, MisProblem, || {
            (undecided_dmis as fn(NodeId) -> DMis, flip_churn(n, seed))
        }),
    }
}

fn undecided_dmis(v: NodeId) -> DMis {
    DMis::new(v, MisOutput::Undecided)
}

/// Erdős–Rényi footprint of average degree 8 under 0.1 % flip churn. Every
/// input draws from `seed` under its own purpose label (`experiment_rng`),
/// so the footprint, the churn and the node randomness stay independent.
fn flip_churn(n: usize, seed: u64) -> FlipChurnAdversary {
    let footprint =
        generators::erdos_renyi_avg_degree(n, AVG_DEGREE, &mut experiment_rng(seed, "footprint"));
    FlipChurnAdversary::new(&footprint, FLIP_CHURN, seed)
}

/// What the benchmark reads off an algorithm instance.
trait Instances {
    /// Live `Concat` DAlg instances; 0 without `Concat`.
    fn concat_instances(&self) -> usize;
}

impl Instances for DynamicMis {
    fn concat_instances(&self) -> usize {
        self.num_instances()
    }
}

impl Instances for DynamicColoring {
    fn concat_instances(&self) -> usize {
        self.num_instances()
    }
}

impl Instances for DMis {
    fn concat_instances(&self) -> usize {
        0
    }
}

/// Wraps the adversary layer: times `next_delta` and counts its edges when
/// enabled, and only delegates otherwise.
struct TimedAdversary<A> {
    inner: A,
    enabled: bool,
    /// Nanoseconds spent in the last `next_delta` call.
    last_ns: u64,
    /// Inserted + removed edges of the last delta.
    last_edges: usize,
}

impl<A> TimedAdversary<A> {
    fn new(inner: A, enabled: bool) -> Self {
        TimedAdversary {
            inner,
            enabled,
            last_ns: 0,
            last_edges: 0,
        }
    }
}

impl<O, A: Adversary> OutputAdversary<O> for TimedAdversary<A> {
    fn initial_graph(&mut self) -> Graph {
        Adversary::initial_graph(&mut self.inner)
    }

    fn next_delta(&mut self, round: u64, prev: &Graph, _outputs: &[Option<O>]) -> GraphDelta {
        if !self.enabled {
            return Adversary::next_delta(&mut self.inner, round, prev);
        }
        let start = Instant::now();
        let delta = Adversary::next_delta(&mut self.inner, round, prev);
        self.last_ns = elapsed_ns(start);
        self.last_edges = delta.inserted.len() + delta.removed.len();
        delta
    }
}

/// Wraps the verifier layer. When enabled it times
/// `TDynamicVerifier::on_round`, and on rounds without a delta it first
/// times the `RoundView::current_graph` conversion (cached for the round,
/// so the verifier reuses it). It also records what the benchmark derives
/// from the view — output churn and, for `Concat`, effective degrees —
/// outside the timed region. It never clones the graph `Arc`: a retained
/// snapshot would force copy-on-write clones in the simulator.
struct TimedVerifier<P: DynamicProblem> {
    inner: TDynamicVerifier<P>,
    enabled: bool,
    record_degrees: bool,
    /// Rounds whose `VmRSS` growth across the call is recorded.
    rss_rounds: [u64; 2],
    last_verify_ns: u64,
    last_convert_ns: u64,
    last_changed: usize,
    rss_growth_kb: i64,
    degrees: Vec<u32>,
}

impl<P: DynamicProblem> TimedVerifier<P> {
    fn new(inner: TDynamicVerifier<P>, enabled: bool, record_degrees: bool, window: usize) -> Self {
        TimedVerifier {
            inner,
            enabled,
            record_degrees,
            rss_rounds: [0, window as u64 - 1],
            last_verify_ns: 0,
            last_convert_ns: 0,
            last_changed: 0,
            rss_growth_kb: 0,
            degrees: Vec::new(),
        }
    }

    fn verifier(&self) -> &TDynamicVerifier<P> {
        &self.inner
    }
}

impl<P: DynamicProblem> RoundObserver<P::Output> for TimedVerifier<P> {
    fn on_round(&mut self, view: &RoundView<'_, P::Output>) {
        if !self.enabled {
            self.inner.on_round(view);
            return;
        }
        let rss_before = self
            .rss_rounds
            .contains(&view.round)
            .then(|| proc_status_kb("VmRSS:"));
        self.last_convert_ns = 0;
        if view.delta.is_none() {
            let start = Instant::now();
            std::hint::black_box(view.current_graph());
            self.last_convert_ns = elapsed_ns(start);
        }
        let start = Instant::now();
        self.inner.on_round(view);
        self.last_verify_ns = elapsed_ns(start);
        if let Some(before) = rss_before {
            self.rss_growth_kb += proc_status_kb("VmRSS:") - before;
        }
        self.last_changed = view.changed_outputs.map_or(0, <[NodeId]>::len);
        if self.record_degrees {
            let graph: &CsrGraph = view.graph;
            self.degrees.clear();
            self.degrees
                .extend(graph.nodes().map(|v| graph.degree(v) as u32));
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Times a stretch of work on the calling thread. Besides wall time it
/// gives on-CPU time: wall time minus the time the thread waited on a run
/// queue while other tasks held the CPU (the second field of
/// `/proc/thread-self/schedstat`, which the kernel updates whenever the
/// thread gets a CPU back). Every workload runs on this one thread, so
/// on-CPU time leaves out preemption by whatever else the host runs. (The
/// first schedstat field, time on a CPU, advances only at scheduler ticks
/// while the thread runs, too coarse for a round.) Where schedstat is
/// unavailable the wait reads 0 and both times agree.
struct Stopwatch {
    start: Instant,
    waited_ns: u64,
}

/// Nanoseconds measured by a [`Stopwatch`].
#[derive(Clone, Copy, Debug)]
struct Elapsed {
    wall: f64,
    on_cpu: f64,
}

impl Stopwatch {
    fn start() -> Self {
        let waited_ns = run_queue_wait_ns();
        Stopwatch {
            start: Instant::now(),
            waited_ns,
        }
    }

    fn stop(&self) -> Elapsed {
        let wall = elapsed_ns(self.start) as f64;
        let waited = run_queue_wait_ns().saturating_sub(self.waited_ns) as f64;
        Elapsed {
            wall,
            on_cpu: (wall - waited).max(0.0),
        }
    }
}

/// Nanoseconds the calling thread has spent waiting on a run queue; 0 where
/// `/proc/thread-self/schedstat` is unavailable.
fn run_queue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`); 0 where the
/// file is unavailable.
fn proc_status_kb(field: &str) -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Per-round durations of the runtime's phase spans, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct Phases {
    round: f64,
    adv_delta: f64,
    wakeup: f64,
    csr_rebuild: f64,
    csr_patch: f64,
    send: f64,
    receive: f64,
    observers: f64,
    verify: f64,
}

impl Phases {
    fn from_events(events: &[TraceEvent]) -> Self {
        let mut p = Phases::default();
        for e in events {
            let slot = match (e.cat, e.name) {
                ("round", "round") => &mut p.round,
                ("round", "adv_delta") => &mut p.adv_delta,
                ("round", "wakeup") => &mut p.wakeup,
                ("round", "csr_rebuild") => &mut p.csr_rebuild,
                ("round", "csr_patch") => &mut p.csr_patch,
                ("round", "send") => &mut p.send,
                ("round", "receive") => &mut p.receive,
                ("round", "observers") => &mut p.observers,
                ("verify", "observe" | "observe_delta") => &mut p.verify,
                _ => continue,
            };
            *slot += e.dur_ns as f64;
        }
        p
    }

    /// The round span minus its direct children.
    fn unattributed(&self) -> f64 {
        self.round
            - (self.adv_delta
                + self.wakeup
                + self.csr_rebuild
                + self.csr_patch
                + self.send
                + self.receive
                + self.observers)
    }
}

/// One traced round: wall time, spans and wrapper timers (nanoseconds).
#[derive(Clone, Copy, Debug, Default)]
struct LayerSample {
    wall: f64,
    phases: Phases,
    next_delta: f64,
    verify: f64,
    convert: f64,
}

impl LayerSample {
    /// Self time of each layer; they sum to the round span by construction.
    fn self_times(&self) -> [(&'static str, f64); 10] {
        let p = &self.phases;
        [
            ("adversary.next_delta", self.next_delta),
            ("runtime.graph_apply", p.adv_delta - self.next_delta),
            ("runtime.wakeup", p.wakeup),
            ("runtime.csr_rebuild", p.csr_rebuild),
            ("runtime.csr_patch", p.csr_patch),
            ("runtime.send", p.send),
            ("runtime.receive", p.receive),
            ("verify.on_round", self.verify + self.convert),
            (
                "runtime.observers_self",
                p.observers - self.verify - self.convert,
            ),
            ("runtime.unattributed", p.unattributed()),
        ]
    }
}

/// Exact counts accumulated over the pinned steady rounds.
#[derive(Default)]
struct PinnedCounts {
    delta_edges: u64,
    changed_outputs: u64,
    instance_msgs: u64,
    rounds: u64,
}

fn execute<A, F, Adv, P>(plan: &Plan, problem: P, setup: impl Fn() -> (F, Adv)) -> Report
where
    A: NodeAlgorithm + Instances,
    F: AlgorithmFactory<A>,
    Adv: Adversary,
    P: DynamicProblem<Output = A::Output> + Clone,
{
    let n = plan.n;
    let window = plan.window();
    let threads = rayon::max_threads();
    let traced = plan.traced;
    let is_concat = matches!(
        plan.workload,
        Workload::MisErFlip | Workload::ColoringMobility
    );
    dynnet::obs::set_enabled(false);

    let build = || {
        let watch = Stopwatch::start();
        let (factory, adversary) = setup();
        let footprint = watch.stop().on_cpu / 1e9;
        let runner = Scenario::new(n)
            .algorithm(factory)
            .adversary(TimedAdversary::new(adversary, traced))
            .seed(plan.seed)
            .parallel(threads > 1)
            .rounds(usize::MAX)
            .runner::<A>();
        (runner, watch.stop().on_cpu / 1e9, footprint)
    };
    // Repetitions: set-ups alone, set-ups with round 0, then replicas of
    // rounds 0..=T-1; the last replica continues into steady state. A traced
    // run reports per-layer means only, so it runs one replica.
    let (setup_reps, round0_reps, replicas) = plan.workload.repetitions();
    let replicas = if traced { 1 } else { replicas };
    let mut setup_s = Vec::new();
    let mut footprint_s = Vec::new();
    let mut round0_ms = Vec::new();
    let mut warmup_s = Vec::new();
    let mut first_check_ms = Vec::new();
    let mut guarantee = (0, 0);
    let mut pin_failures = Vec::new();
    let mut kept = None;
    let extra = setup_reps + round0_reps;
    let repetitions = extra + replicas;
    for repetition in 0..repetitions {
        let (mut runner, setup, footprint) = build();
        setup_s.push(setup);
        footprint_s.push(footprint);
        let mut verifier = TimedVerifier::new(
            TDynamicVerifier::new(problem.clone(), window),
            traced,
            traced && is_concat,
            window,
        );
        let rounds = match repetition {
            r if r < setup_reps => 0,
            r if r < extra => 1,
            _ => window,
        };
        let mut round0 = LayerSample::default();
        let mut warmup_ns = 0.0;
        let mut first_check_verify_ns = 0.0;
        for round in 0..rounds {
            dynnet::obs::set_enabled(traced);
            let watch = Stopwatch::start();
            runner.step(&mut [&mut verifier]);
            let time = watch.stop();
            dynnet::obs::set_enabled(false);
            let events = dynnet::obs::take_events();
            if round == 0 {
                round0_ms.push(time.on_cpu / 1e6);
                round0 = LayerSample {
                    wall: time.wall,
                    phases: Phases::from_events(&events),
                    next_delta: 0.0,
                    verify: verifier.last_verify_ns as f64,
                    convert: verifier.last_convert_ns as f64,
                };
            } else if round + 1 < window {
                warmup_ns += time.on_cpu;
            } else {
                first_check_ms.push(time.on_cpu / 1e6);
                first_check_verify_ns = verifier.last_verify_ns as f64;
            }
        }
        if rounds < window {
            continue;
        }
        warmup_s.push(warmup_ns / 1e9);
        if repetition + 1 < repetitions {
            add_guarantee(&mut guarantee, &verifier, is_concat, window);
            pin_failures.extend(broken_pins(runner.sim().delta_stats()));
        } else {
            kept = Some((runner, verifier, round0, first_check_verify_ns));
        }
    }
    let Some((mut runner, mut verifier, round0, first_check_verify_ns)) = kept else {
        unreachable!("at least one replica ran");
    };

    // On-CPU times of the steady rounds, and their wall times as a check.
    let mut steady_ns: Vec<f64> = Vec::new();
    let mut untraced_steady_ns: Vec<f64> = Vec::new();
    let mut steady_wall_ns: Vec<f64> = Vec::new();
    let mut layers: Vec<LayerSample> = Vec::new();
    let mut pinned = PinnedCounts::default();
    let mut pinned_snapshot = Snapshot::new();
    let mut pinned_stats = DeltaStats::default();
    let mut instances_per_node = 0.0;
    let steady_start = Instant::now();
    for k in 0.. {
        let elapsed = steady_start.elapsed().as_secs_f64();
        if k >= plan.min_steady_rounds && elapsed >= plan.steady_seconds {
            break;
        }
        // Steady traced runs trace every other round; the untraced rounds
        // in between measure the tracing overhead.
        let span_round = traced && k % 2 == 0;
        dynnet::obs::set_enabled(span_round);
        let watch = Stopwatch::start();
        runner.step(&mut [&mut verifier]);
        let time = watch.stop();
        dynnet::obs::set_enabled(false);
        if traced && !span_round {
            untraced_steady_ns.push(time.on_cpu);
        } else {
            steady_ns.push(time.on_cpu);
            steady_wall_ns.push(time.wall);
        }
        let events = dynnet::obs::take_events();
        if span_round {
            layers.push(LayerSample {
                wall: time.wall,
                phases: Phases::from_events(&events),
                next_delta: runner.adversary().last_ns as f64,
                verify: verifier.last_verify_ns as f64,
                convert: verifier.last_convert_ns as f64,
            });
        }
        if traced && k < plan.min_steady_rounds {
            pinned.rounds += 1;
            pinned.delta_edges += runner.adversary().last_edges as u64;
            pinned.changed_outputs += verifier.last_changed as u64;
            let sim = runner.sim();
            let mut instances = 0u64;
            for (i, &deg) in verifier.degrees.iter().enumerate() {
                let live = sim
                    .node(NodeId::new(i))
                    .map_or(0, Instances::concat_instances) as u64;
                pinned.instance_msgs += u64::from(deg) * live;
                instances += live;
            }
            if k + 1 == plan.min_steady_rounds {
                instances_per_node = instances as f64 / n as f64;
                pinned_stats = sim.delta_stats();
                verifier.verifier().collect(&mut pinned_snapshot);
            }
        }
    }

    add_guarantee(&mut guarantee, &verifier, is_concat, window);
    pin_failures.extend(broken_pins(runner.sim().delta_stats()));
    let mut report = Report {
        n,
        window,
        threads,
        rounds_executed: runner.rounds_executed(),
        steady_rounds: steady_ns.len() + untraced_steady_ns.len(),
        guaranteed_rounds: guarantee.0,
        failed_rounds: guarantee.1,
        metrics: Vec::new(),
        notes: Vec::new(),
        problems: pin_failures,
    };
    if report.failed_rounds > 0 {
        report.problems.push(format!(
            "{} of {} guaranteed rounds are not T-dynamic solutions",
            report.failed_rounds, report.guaranteed_rounds
        ));
    }

    if traced {
        per_layer_metrics(
            &mut report,
            &Traced {
                round0,
                layers: &layers,
                first_check_verify_ns,
                traced_p50: percentile(&mut steady_ns.clone(), 0.5),
                untraced_p50: percentile(&mut untraced_steady_ns.clone(), 0.5),
                footprint_s: median(&mut footprint_s),
                rss_growth_kb: verifier.rss_growth_kb,
                pinned: &pinned,
                pinned_stats,
                pinned_snapshot: &pinned_snapshot,
                instances_per_node,
            },
        );
    } else {
        let steady_total: f64 = steady_ns.iter().sum();
        let e2e = [
            ("round_ms_p50", percentile(&mut steady_ns, 0.5) / 1e6, "ms"),
            ("round_ms_p90", percentile(&mut steady_ns, 0.9) / 1e6, "ms"),
            (
                "node_rounds_per_s",
                n as f64 * steady_ns.len() as f64 / (steady_total / 1e9),
                "node-rounds/s",
            ),
            ("setup_s", median(&mut setup_s), "s"),
            ("round0_ms", minimum(&round0_ms), "ms"),
            ("warmup_s", median(&mut warmup_s), "s"),
            ("first_check_ms", median(&mut first_check_ms), "ms"),
            (
                "peak_rss_mb",
                proc_status_kb("VmHWM:") as f64 / 1024.0,
                "MB",
            ),
        ];
        report.metrics = e2e
            .into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit })
            .collect();
        report.notes.push(format!(
            "samples: {} steady rounds (r >= T = {window}); {} set-ups; {} rounds 0; {} replica(s) of rounds 1..=T-1",
            steady_ns.len(),
            setup_s.len(),
            round0_ms.len(),
            warmup_s.len(),
        ));
        let waited_ms = (steady_wall_ns.iter().sum::<f64>() - steady_total) / 1e6;
        report.notes.push(format!(
            "times are on-CPU; steady wall-time p50 = {:.4} ms, run-queue wait = {waited_ms:.3} ms over the steady rounds",
            percentile(&mut steady_wall_ns, 0.5) / 1e6,
        ));
    }
    report
}

/// Adds the rounds of one execution that carry the paper's guarantee, and
/// those of them that broke it, to `(guaranteed, failed)`: Theorem 1.1 for
/// `Concat` in every checked round; for a lone Algorithm 4 instance started
/// in round 0, its output in round `T-1`.
fn add_guarantee<P: DynamicProblem>(
    totals: &mut (usize, usize),
    verifier: &TimedVerifier<P>,
    is_concat: bool,
    window: usize,
) {
    let summary = verifier.verifier().summary();
    if is_concat {
        totals.0 += summary.rounds_checked;
        totals.1 += summary.rounds_checked - summary.rounds_valid;
    } else {
        let valid = summary.rounds_checked > 0 && !summary.invalid_rounds.contains(window - 1);
        totals.0 += 1;
        totals.1 += usize::from(!valid);
    }
}

/// The delta pipeline's pins: one full CSR build (round 0) and no
/// copy-on-write clone, which a retained graph snapshot would force.
fn broken_pins(stats: DeltaStats) -> Option<String> {
    (stats.full_csr_builds != 1 || stats.cow_clones != 0).then(|| {
        format!(
            "delta pins broken: full_csr_builds = {} (want 1), cow_clones = {} (want 0)",
            stats.full_csr_builds, stats.cow_clones
        )
    })
}

/// Inputs of the per-layer metrics gathered by a traced run.
struct Traced<'a> {
    round0: LayerSample,
    layers: &'a [LayerSample],
    first_check_verify_ns: f64,
    traced_p50: f64,
    untraced_p50: f64,
    footprint_s: f64,
    rss_growth_kb: i64,
    pinned: &'a PinnedCounts,
    pinned_stats: DeltaStats,
    pinned_snapshot: &'a Snapshot,
    instances_per_node: f64,
}

fn per_layer_metrics(report: &mut Report, t: &Traced<'_>) {
    let samples = t.layers.len().max(1) as f64;
    let mean_ms =
        |f: &dyn Fn(&LayerSample) -> f64| t.layers.iter().map(f).sum::<f64>() / samples / 1e6;
    let self_ms: BTreeMap<&str, f64> = {
        let mut sums = BTreeMap::new();
        for s in t.layers {
            for (name, ns) in s.self_times() {
                *sums.entry(name).or_insert(0.0) += ns;
            }
        }
        sums.into_iter()
            .map(|(k, v)| (k, v / samples / 1e6))
            .collect()
    };
    let self_of = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let pinned_rounds = t.pinned.rounds.max(1) as f64;
    let snapshot = |name: &str| t.pinned_snapshot.get(name).unwrap_or(0) as f64;
    let r0 = &t.round0;
    let dropped = dynnet::obs::dropped_events();

    let metrics = [
        (
            "adversary.next_delta_ms",
            self_of("adversary.next_delta"),
            "ms",
        ),
        (
            "adversary.delta_edges",
            t.pinned.delta_edges as f64 / pinned_rounds,
            "count",
        ),
        ("graph.footprint_s", t.footprint_s, "s"),
        (
            "runtime.step_ms",
            mean_ms(&|s| s.wall - s.next_delta - s.verify - s.convert),
            "ms",
        ),
        (
            "runtime.graph_apply_ms",
            self_of("runtime.graph_apply"),
            "ms",
        ),
        ("runtime.send_ms", self_of("runtime.send"), "ms"),
        ("runtime.receive_ms", self_of("runtime.receive"), "ms"),
        ("runtime.csr_patch_ms", self_of("runtime.csr_patch"), "ms"),
        ("runtime.wakeup_ms", self_of("runtime.wakeup"), "ms"),
        ("runtime.csr_rebuild_ms", r0.phases.csr_rebuild / 1e6, "ms"),
        (
            "runtime.observers_self_ms",
            self_of("runtime.observers_self"),
            "ms",
        ),
        (
            "runtime.unattributed_ms",
            self_of("runtime.unattributed"),
            "ms",
        ),
        (
            "runtime.unattributed_round0_ms",
            r0.phases.unattributed() / 1e6,
            "ms",
        ),
        (
            "runtime.changed_outputs",
            t.pinned.changed_outputs as f64 / pinned_rounds,
            "count",
        ),
        (
            "runtime.full_csr_builds",
            t.pinned_stats.full_csr_builds as f64,
            "count",
        ),
        (
            "runtime.cow_clones",
            t.pinned_stats.cow_clones as f64,
            "count",
        ),
        (
            "runtime.compactions",
            t.pinned_stats.compactions as f64,
            "count",
        ),
        ("concat.instances_per_node", t.instances_per_node, "count"),
        (
            "concat.instance_msgs",
            t.pinned.instance_msgs as f64 / pinned_rounds,
            "count",
        ),
        ("verify.on_round_ms", self_of("verify.on_round"), "ms"),
        ("verify.graph_convert_ms", r0.convert / 1e6, "ms"),
        ("verify.round0_ms", r0.verify / 1e6, "ms"),
        ("verify.first_check_ms", t.first_check_verify_ns / 1e6, "ms"),
        ("mem.verifier_mb", t.rss_growth_kb as f64 / 1024.0, "MB"),
        (
            "verify.rounds_checked",
            snapshot("verify.rounds_checked"),
            "count",
        ),
        (
            "verify.rounds_valid",
            snapshot("verify.rounds_valid"),
            "count",
        ),
        (
            "verify.packing_violations",
            snapshot("verify.packing_violations"),
            "count",
        ),
        (
            "verify.covering_violations",
            snapshot("verify.covering_violations"),
            "count",
        ),
        ("verify.undecided", snapshot("verify.undecided"), "count"),
        (
            "window.gc_queue_depth",
            snapshot("window.gc_queue_depth"),
            "count",
        ),
        (
            "window.edge_maturity_depth",
            snapshot("window.edge_maturity_depth"),
            "count",
        ),
        (
            "window.node_maturity_depth",
            snapshot("window.node_maturity_depth"),
            "count",
        ),
        (
            "trace.overhead_pct",
            (t.traced_p50 / t.untraced_p50 - 1.0) * 100.0,
            "%",
        ),
        ("trace.dropped_events", dropped as f64, "count"),
    ];
    report.metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect();

    if dropped != 0 {
        report.problems.push(format!(
            "{dropped} trace events dropped; raise DYNNET_TRACE_CAP"
        ));
    }
    // Attribution: the self times add up to the round span by construction,
    // so compare the span with the wall time measured around Runner::step,
    // and require every self time to be non-negative (nesting holds).
    let wall_ms = mean_ms(&|s| s.wall);
    let attributed_ms: f64 = self_ms.values().sum();
    let tolerance_ms = (0.02 * wall_ms).max(0.05);
    report.notes.push(format!(
        "attribution: layer self times + unattributed = {attributed_ms:.4} ms, traced Runner::step = {wall_ms:.4} ms ({} traced steady rounds, {} counted)",
        t.layers.len(),
        t.pinned.rounds
    ));
    if (attributed_ms - wall_ms).abs() > tolerance_ms {
        report.problems.push(format!(
            "layer self times sum to {attributed_ms:.4} ms, Runner::step took {wall_ms:.4} ms"
        ));
    }
    for (name, ms) in &self_ms {
        if *ms < -tolerance_ms {
            report
                .problems
                .push(format!("negative self time {ms:.4} ms for {name}"));
        }
    }
    let verify_span_ms = mean_ms(&|s| s.phases.verify);
    if verify_span_ms > self_of("verify.on_round") + tolerance_ms {
        report
            .problems
            .push("verifier spans exceed the wrapper around on_round".to_string());
    }
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Smallest of `samples`; 0 when empty.
fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `samples` (sorted in place); 0 when empty.
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}
