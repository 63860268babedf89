//! Fault-injection harness for the durable trace store and crash-resumable
//! sweeps:
//!
//! 1. **Kill/resume byte-identity** — a sweep killed mid-run (kill switch
//!    after N persisted cells) and resumed from its checkpoint directory
//!    produces the exact same CSV as an uninterrupted run, for both the
//!    serial and the multi-threaded engine.
//! 2. **Mid-cell kill** — a cell that panics partway through its first
//!    attempt is never persisted; resume recomputes it (and only the
//!    missing work) and the output is still byte-identical.
//! 3. **Corruption detection** — a checkpointed cell whose bytes were
//!    flipped on disk is discarded and recomputed on resume (counted by
//!    `store.cells_recomputed`), never silently trusted.
//! 4. **O(1) recorder memory** — a 100k-round trace streamed through
//!    [`DeltaLogRecorder`] keeps its write buffer bounded (independent of
//!    round count) and the log replays to the exact final graph.
//! 5. **Footprint scoping** — shared footprint graphs created inside a
//!    [`generators::FootprintScope`] leave the cache when the scope drops.

use dynnet::graph::codec::replay_log;
use dynnet::prelude::*;
use dynnet::runtime::rng::experiment_rng;
use dynnet::sweep::fold;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynnet-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep under fault injection: 3 sizes × 4 seeds = 12 DColor-under-churn
/// scenarios, each returning its convergence round count.
fn resume_spec() -> SweepSpec<(usize, u64)> {
    SweepSpec::grid2(
        "resume-grid",
        &[24usize, 32, 40],
        &[0u64, 1, 2, 3],
        |&n, &seed| (format!("n={n} seed={seed}"), (n, seed)),
    )
}

fn color_rounds(cell: &Cell<(usize, u64)>) -> f64 {
    let (n, seed) = cell.params;
    let g = generators::erdos_renyi_avg_degree(
        n,
        6.0,
        &mut experiment_rng(seed, &format!("resume-{n}")),
    );
    Scenario::new(n)
        .algorithm(|v: NodeId| DColor::new(v, ColorOutput::Undecided))
        .adversary(FlipChurnAdversary::new(&g, 0.02, 900 + seed))
        .seed(seed)
        .rounds(200)
        .run_until(&mut [], |view| {
            view.outputs
                .iter()
                .all(|o| o.map(|c: ColorOutput| c.is_decided()).unwrap_or(false))
        })
        .rounds_executed() as f64
}

/// Renders a finished run to the CSV artifact the byte-identity claims are
/// checked against.
fn csv_of(spec: &SweepSpec<(usize, u64)>, run: SweepRun<f64>) -> String {
    let mut agg = fold(
        spec,
        run,
        CellRows::new(
            "resume-grid",
            &["cell", "rounds"],
            |c: &Cell<(usize, u64)>, r: f64| vec![vec![c.label.clone(), format!("{r}")]],
        ),
    );
    let tables = Aggregator::<(usize, u64), f64>::finish(&mut agg);
    tables[0].to_csv()
}

#[test]
fn killed_and_resumed_sweep_is_byte_identical() {
    let spec = resume_spec();
    let oneshot = csv_of(&spec, SweepEngine::new(2).run(&spec, color_rounds).unwrap());

    for threads in [1usize, 4] {
        let dir = tmp_dir(&format!("kill-{threads}"));
        let engine = SweepEngine::new(threads);
        let store = CheckpointStore::create(&dir)
            .unwrap()
            .with_kill_switch(KillSwitch::after(4));
        let err = engine
            .run_checkpointed(&spec, &store, color_rounds)
            .expect_err("kill switch must cancel the sweep");
        assert!(
            err.message.contains("kill switch"),
            "threads={threads}: unexpected failure: {err}"
        );
        assert!(store.cells_persisted() >= 4);

        let resumed: SweepRun<f64> = engine.resume_from(&spec, &dir, color_rounds).unwrap();
        // Only the non-durable cells ran on resume.
        assert!(
            resumed.report().cells <= spec.len() - 4,
            "threads={threads}: resume re-ran checkpointed cells"
        );
        assert_eq!(
            csv_of(&spec, resumed),
            oneshot,
            "threads={threads}: resumed CSV differs from uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn mid_cell_kill_recomputes_only_the_unfinished_work() {
    let spec = resume_spec();
    let oneshot = csv_of(&spec, SweepEngine::new(2).run(&spec, color_rounds).unwrap());
    let dir = tmp_dir("mid-cell");
    let engine = SweepEngine::new(4);
    let store = CheckpointStore::create(&dir).unwrap();

    // Cell 5 dies partway through its first attempt — after doing real
    // work, before any result reaches the store.
    let tripped = AtomicBool::new(false);
    let err = engine
        .run_checkpointed(&spec, &store, |cell: &Cell<(usize, u64)>| {
            let r = color_rounds(cell);
            if cell.index == 5 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("simulated crash inside cell 5");
            }
            r
        })
        .expect_err("mid-cell panic must cancel the sweep");
    assert_eq!(err.cell_index, 5);
    assert!(
        !store.cell_file_exists(5),
        "dead cell must not be persisted"
    );

    let persisted = store.cells_persisted() as usize;
    let resumed: SweepRun<f64> = engine.resume_from(&spec, &dir, color_rounds).unwrap();
    assert_eq!(resumed.report().cells, spec.len() - persisted);
    assert_eq!(csv_of(&spec, resumed), oneshot);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_cell_is_discarded_and_recomputed() {
    let spec = resume_spec();
    let engine = SweepEngine::new(1);
    let oneshot = csv_of(&spec, engine.run(&spec, color_rounds).unwrap());
    let dir = tmp_dir("corrupt");
    let store = CheckpointStore::create(&dir).unwrap();
    engine
        .run_checkpointed(&spec, &store, color_rounds)
        .unwrap();

    // Flip one payload byte of a checkpointed cell on disk.
    let cell_path = dir.join("cells").join("7.cell");
    let mut bytes = std::fs::read(&cell_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&cell_path, &bytes).unwrap();

    let recomputed_before = dynnet::obs::registry()
        .counter("store.cells_recomputed")
        .get();
    let resumed: SweepRun<f64> = engine.resume_from(&spec, &dir, color_rounds).unwrap();
    // The corrupt cell was rejected and re-run — never silently trusted —
    // and the healed output still matches the uninterrupted run exactly.
    assert_eq!(resumed.report().cells, 1, "exactly the corrupt cell re-ran");
    assert!(
        dynnet::obs::registry()
            .counter("store.cells_recomputed")
            .get()
            > recomputed_before,
        "corruption must be counted as a recompute"
    );
    assert_eq!(csv_of(&spec, resumed), oneshot);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_log_recorder_memory_is_bounded_and_replays() {
    let rounds = 100_000usize;
    let n = 16;
    let path = std::env::temp_dir().join(format!("dynnet-resume-{}.dlog", std::process::id()));
    let g = generators::erdos_renyi_avg_degree(n, 4.0, &mut experiment_rng(11, "dlog"));
    let mut recorder = DeltaLogRecorder::create(&path);
    let mut trace = TraceRecorder::graphs_only();
    Scenario::new(n)
        .algorithm(|v: NodeId| DColor::new(v, ColorOutput::Undecided))
        .adversary(FlipChurnAdversary::new(&g, 0.2, 77))
        .seed(11)
        .rounds(rounds)
        .run(&mut [&mut recorder, &mut trace]);
    assert_eq!(recorder.num_rounds() as usize, rounds);

    // O(1) in rounds: the recorder streams to disk through a fixed-size
    // buffer — the high-water mark is the flush threshold plus at most one
    // record, not a function of the 100k-round horizon.
    let stats = recorder.stats().expect("log was opened");
    assert_eq!(stats.records as usize, rounds);
    assert!(
        stats.max_buffered <= 64 * 1024 + 4096,
        "write buffer grew with the trace: {} bytes",
        stats.max_buffered
    );
    assert!(
        stats.bytes_written > 64 * 1024,
        "trace should span many buffer flushes"
    );

    let final_graph = trace
        .into_trace()
        .and_then(|t| t.iter().last())
        .expect("final graph after 100k rounds");
    recorder.close().unwrap();
    // The on-disk log replays to the exact final graph.
    assert_eq!(replay_log(&path).unwrap(), final_graph);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn footprint_scope_empties_cache_after_multi_family_grid() {
    let scope = generators::FootprintScope::new();
    for n in [16usize, 24] {
        for family in [
            generators::GraphFamily::ErdosRenyi { avg_degree: 4.0 },
            generators::GraphFamily::Geometric { radius: 0.4 },
        ] {
            for seed in 0..3u64 {
                let _ = generators::shared_footprint(&family, n, seed, "scope-test", || {
                    family.generate(n, &mut experiment_rng(seed, "scope-test"))
                });
            }
        }
    }
    assert!(
        generators::footprint_cache_scoped_len() > 0,
        "grid should populate the footprint cache"
    );
    drop(scope);
    assert_eq!(
        generators::footprint_cache_scoped_len(),
        0,
        "dropping the scope must release every scoped footprint"
    );
}
