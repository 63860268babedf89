//! Experiment harness: writes every experiment's tables to `results/eN.md`,
//! running multi-scenario experiments on the sharded work-stealing sweep
//! engine.
//!
//! ```text
//! cargo run --release -p dynnet-bench --bin experiments -- all
//! cargo run --release -p dynnet-bench --bin experiments -- e4 e8 --threads 8
//! cargo run --release -p dynnet-bench --bin experiments -- e3 --threads 2 --smoke
//! cargo run --release -p dynnet-bench --bin experiments -- list
//! ```
//!
//! Flags:
//!
//! * `--threads N` — worker threads for the sweep engine (default: all
//!   available cores). Results are byte-identical for any `N`; only
//!   wall-clock time changes.
//! * `--results-dir DIR` — where to write the result files (also settable
//!   via the `DYNNET_RESULTS_DIR` environment variable; defaults to the
//!   workspace-root `results/` directory when it exists, falling back to
//!   `./results`).
//! * `--smoke` — reduced grids/horizons (CI smoke mode).
//! * `--trace-out FILE` — enable phase-span tracing and write a Chrome
//!   trace-event JSON file (open in Perfetto / `chrome://tracing`) covering
//!   the selected experiments. Tracing is observational only: results and
//!   CSVs are byte-identical with or without it.
//! * `--metrics-out FILE` — stream metric snapshots (JSONL, one per sweep
//!   progress event plus a final one) from the unified `dynnet-obs`
//!   registry.
//! * `--checkpoint-dir DIR` — persist every finished sweep cell under
//!   `DIR/<sweep-name>/` so a killed run can be resumed. Starts fresh
//!   (discarding any prior checkpoint) unless `--resume` is also given.
//! * `--resume` — with `--checkpoint-dir`, verify and reuse completed cells
//!   from a previous (possibly crashed) run instead of re-running them.
//!   The resumed run's tables and CSVs are byte-identical to an
//!   uninterrupted run's.
//!
//! Tables are printed as Markdown on stdout and additionally written to
//! `<results-dir>/<id>.md` (and `<results-dir>/<id>_<table>.csv`).

use dynnet::obs::{self, JsonlWriter, ProgressSink};
use dynnet::sweep::SweepEngine;
use dynnet_bench::exp::{registry, ExpContext};
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A [`ProgressSink`] that appends one registry snapshot to the metrics
/// JSONL stream per progress/finished event — the `--metrics-out` backend.
struct JsonlSink(Mutex<JsonlWriter>);

impl JsonlSink {
    fn write_snapshot(&self) {
        let snap = obs::registry().snapshot();
        let mut writer = self.0.lock().expect("metrics writer lock");
        if let Err(e) = writer.write(&snap) {
            eprintln!("could not append metrics snapshot: {e}");
        }
    }
}

impl ProgressSink for JsonlSink {
    fn progress(&self, _scope: &str, _done: u64, _total: u64) {
        self.write_snapshot();
    }

    fn finished(&self, _scope: &str, _summary: &str) {
        self.write_snapshot();
    }
}

/// Resolves the results directory: `--results-dir` flag, then the
/// `DYNNET_RESULTS_DIR` environment variable, then the workspace-relative
/// default. The compile-time `CARGO_MANIFEST_DIR` bakes in a build-machine
/// path, so it is only trusted if it still exists on this machine;
/// otherwise a `results/` directory under the current working directory is
/// used.
fn results_dir(flag: Option<&str>) -> PathBuf {
    let dir = flag
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("DYNNET_RESULTS_DIR").map(PathBuf::from))
        .unwrap_or_else(|| {
            let baked = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
            if baked.parent().map(|p| p.exists()).unwrap_or(false) {
                baked
            } else {
                PathBuf::from("results")
            }
        });
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = registry();

    // Parse flags; everything else is an experiment id (or `all` / `list`).
    let mut threads: Option<usize> = None;
    let mut results_flag: Option<String> = None;
    let mut smoke = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut selected_args: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it.next().expect("--threads needs a value");
                threads = Some(v.parse().expect("--threads needs an integer"));
            }
            "--results-dir" => {
                results_flag = Some(it.next().expect("--results-dir needs a path"));
            }
            "--smoke" => smoke = true,
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().expect("--trace-out needs a path")));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next().expect("--metrics-out needs a path"),
                ));
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(PathBuf::from(
                    it.next().expect("--checkpoint-dir needs a path"),
                ));
            }
            "--resume" => resume = true,
            flag if flag.starts_with('-') => {
                eprintln!(
                    "unknown flag: {flag} (expected --threads N, --results-dir DIR, --smoke, \
                     --trace-out FILE, --metrics-out FILE, --checkpoint-dir DIR, --resume)"
                );
                std::process::exit(2);
            }
            _ => selected_args.push(arg),
        }
    }

    if selected_args.is_empty() || selected_args[0] == "list" {
        println!("Available experiments (run with `experiments all` or a list of ids):\n");
        for e in &experiments {
            println!("  {:<4} {}", e.id, e.description);
        }
        return;
    }

    let selected: Vec<&str> = if selected_args.iter().any(|a| a == "all") {
        experiments.iter().map(|e| e.id).collect()
    } else {
        selected_args.iter().map(|s| s.as_str()).collect()
    };
    // A mistyped id must fail loudly, or a CI step that names it passes
    // without running anything.
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|id| !experiments.iter().any(|e| e.id == *id))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        eprintln!("unknown experiment id(s): {}", unknown.join(", "));
        eprintln!("valid ids: {} (or `all` / `list`)", valid.join(" "));
        std::process::exit(2);
    }

    // Default to the shared thread budget (`DYNNET_RAYON_THREADS` if set,
    // otherwise the core count), so one knob caps the sweep shards and the
    // per-round parallelism inside cells alike.
    let threads = threads.unwrap_or_else(|| SweepEngine::default().threads());
    let mut ctx = ExpContext::new(threads);
    ctx.engine = ctx.engine.with_progress(true);
    ctx.smoke = smoke;
    if resume && checkpoint_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir");
        std::process::exit(2);
    }
    ctx.checkpoint_dir = checkpoint_dir;
    ctx.resume = resume;
    if trace_out.is_some() {
        obs::set_enabled(true);
    }
    let metrics_sink: Option<Arc<JsonlSink>> = metrics_out.as_ref().map(|path| {
        let writer = JsonlWriter::create(path, "experiments").expect("create metrics file");
        Arc::new(JsonlSink(Mutex::new(writer)))
    });
    if let Some(sink) = &metrics_sink {
        ctx.engine = ctx
            .engine
            .add_sink(Arc::clone(sink) as Arc<dyn ProgressSink>);
    }
    eprintln!(
        "== sweep engine: {threads} thread{} {}",
        if threads == 1 { "" } else { "s" },
        if smoke { "(smoke grids)" } else { "" }
    );

    let dir = results_dir(results_flag.as_deref());
    for e in &experiments {
        if !selected.contains(&e.id) {
            continue;
        }
        eprintln!("== running {} — {}", e.id, e.description);
        // Scope shared footprint graphs to this experiment: the cache
        // entries it creates are dropped when the scope ends, so running
        // many experiments back to back holds no stale graphs.
        let footprint_scope = dynnet::graph::generators::FootprintScope::new();
        // TIMING: per-experiment elapsed time goes to stderr progress only;
        // the generated tables contain no wall-clock values.
        let start = Instant::now();
        let tables = (e.run)(&ctx);
        let elapsed = start.elapsed();
        drop(footprint_scope);
        let mut md = format!("## {} — {}\n\n", e.id.to_uppercase(), e.description);
        for t in &tables {
            md.push_str(&t.to_markdown());
            md.push('\n');
            let csv_path = dir.join(format!(
                "{}_{}.csv",
                e.id,
                t.title
                    .chars()
                    .take(40)
                    .map(|c| if c.is_alphanumeric() { c } else { '_' })
                    .collect::<String>()
            ));
            fs::write(&csv_path, t.to_csv()).expect("write csv");
        }
        md.push_str(&format!("_elapsed: {:.1}s_\n", elapsed.as_secs_f64()));
        fs::write(dir.join(format!("{}.md", e.id)), &md).expect("write markdown");
        println!("{md}");
        eprintln!("== {} finished in {:.1}s", e.id, elapsed.as_secs_f64());
    }

    if let Some(sink) = &metrics_sink {
        // Final snapshot after all experiments so the stream always ends
        // with the complete registry state.
        sink.write_snapshot();
        if let Some(path) = &metrics_out {
            eprintln!("== wrote metrics JSONL to {}", path.display());
        }
    }
    if let Some(path) = &trace_out {
        let events = obs::take_events();
        let dropped = obs::dropped_events();
        obs::write_chrome_trace(path, &events).expect("write chrome trace");
        eprintln!(
            "== wrote {} trace events to {} ({} dropped at the buffer cap)",
            events.len(),
            path.display(),
            dropped,
        );
    }
}
