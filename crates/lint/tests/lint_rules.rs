//! End-to-end tests for `dynnet-lint`: each fixture under `tests/fixtures/`
//! is a miniature workspace violating exactly one rule. The tests pin that
//! the rule fires at the expected `file:line`, that the allowlist escapes
//! behave, that diagnostics come out in stable sorted order — and that the
//! real workspace is clean under its checked-in allowlist.

use dynnet_lint::allow::Allowlist;
use dynnet_lint::{run_lint, LintReport};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn lint_fixture(name: &str, allow: &Allowlist) -> LintReport {
    run_lint(&fixture_root(name), allow).expect("fixture lint run")
}

/// Asserts the fixture yields exactly one diagnostic, with the given rule,
/// file, and line.
fn assert_single(report: &LintReport, rule: &str, rel: &str, line: usize) {
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly one diagnostic, got {:?}",
        report.diagnostics
    );
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, rule);
    assert_eq!(d.rel, rel);
    assert_eq!(d.line, line, "diagnostic moved: {d}");
}

#[test]
fn missing_safety_comment_fires() {
    let r = lint_fixture("safety", &Allowlist::default());
    assert_single(&r, "safety-comment", "vendor/shim/src/lib.rs", 5);
}

#[test]
fn missing_forbid_attr_fires() {
    let r = lint_fixture("confine_attr", &Allowlist::default());
    assert_single(&r, "unsafe-confined", "crates/foo/src/lib.rs", 1);
}

#[test]
fn first_party_unsafe_fires_even_with_safety_comment() {
    let r = lint_fixture("confine_unsafe", &Allowlist::default());
    assert_single(&r, "unsafe-confined", "crates/foo/src/lib.rs", 9);
}

#[test]
fn thread_spawn_fires_and_allowlist_blesses() {
    let r = lint_fixture("spawn", &Allowlist::default());
    assert_single(&r, "thread-spawn", "crates/foo/src/lib.rs", 7);

    let allow = Allowlist::parse("thread-spawn crates/foo/src/lib.rs\n").expect("parse");
    let r = lint_fixture("spawn", &allow);
    assert!(
        r.is_clean(),
        "blessed spawn still fired: {:?}",
        r.diagnostics
    );
}

#[test]
fn hash_iteration_fires_without_determinism_comment() {
    // The fixture also contains a `// DETERMINISM:`-justified iteration,
    // which must stay silent: exactly one diagnostic.
    let r = lint_fixture("hash", &Allowlist::default());
    assert_single(&r, "hash-iteration", "crates/foo/src/lib.rs", 9);
}

#[test]
fn wall_clock_fires_without_timing_comment() {
    // As above: the `// TIMING:`-labelled read in the same file is silent.
    let r = lint_fixture("timing", &Allowlist::default());
    assert_single(&r, "wall-clock", "crates/foo/src/lib.rs", 7);
}

#[test]
fn hash_iteration_resolves_aliases_and_bindings() {
    // Iteration through a `type` alias parameter (line 13), an alias
    // constructor binding (line 18), and a propagated `let view = m;`
    // binding (line 23) — none of which mention HashMap on the flagged
    // line. The `// DETERMINISM:`-justified iteration stays silent.
    let r = lint_fixture("hash_alias", &Allowlist::default());
    let lines: Vec<(usize, &str)> = r.diagnostics.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        lines,
        vec![
            (13, "hash-iteration"),
            (18, "hash-iteration"),
            (23, "hash-iteration"),
        ],
        "{:?}",
        r.diagnostics
    );
}

#[test]
fn panic_reachability_fires_through_call_chain() {
    // `entry` (public) -> `helper` (private) -> `unwrap()` at line 15, and
    // the raw indexing in `pick` at line 24. The `// INVARIANT:`-proved
    // site, the `[..index()]` node-id form, and the panic in uncalled
    // private code stay silent.
    let r = lint_fixture("panic_reach", &Allowlist::default());
    assert_eq!(r.diagnostics.len(), 2, "{:?}", r.diagnostics);
    let unwrap = &r.diagnostics[0];
    assert_eq!((unwrap.rule, unwrap.line), ("panic-reachability", 15));
    assert!(
        unwrap.msg.contains("foo::entry") && unwrap.msg.contains("entry -> helper"),
        "expected the public root and witness path: {}",
        unwrap.msg
    );
    let indexing = &r.diagnostics[1];
    assert_eq!((indexing.rule, indexing.line), ("panic-reachability", 24));
    assert!(
        indexing.msg.contains("raw indexing"),
        "expected a raw-indexing finding: {}",
        indexing.msg
    );

    // The burn-down directive silences the indexing site but not the unwrap.
    let allow = Allowlist::parse("panic-indexing crates/foo/src/lib.rs\n").expect("parse");
    let r = lint_fixture("panic_reach", &allow);
    assert_single(&r, "panic-reachability", "crates/foo/src/lib.rs", 15);
}

#[test]
fn slice_patterns_are_not_raw_indexing() {
    // `let [a, b] = ..` and `for [a, b] in ..` are patterns, not index
    // expressions; only the real `v[i]` at line 24 is a panic site.
    let r = lint_fixture("slice_pattern", &Allowlist::default());
    assert_single(&r, "panic-reachability", "crates/foo/src/lib.rs", 24);
}

#[test]
fn panic_indexing_directive_goes_stale() {
    // A burn-down entry for a file with no raw indexing left must itself
    // fail the lint — the allowlist only shrinks.
    let allow = Allowlist::parse("panic-indexing crates/foo/src/lib.rs\n").expect("parse");
    let r = lint_fixture("clean", &allow);
    assert_single(&r, "panic-reachability", "crates/foo/src/lib.rs", 1);
    assert!(
        r.diagnostics[0].msg.contains("stale"),
        "expected a stale-directive message: {}",
        r.diagnostics[0].msg
    );
}

#[test]
fn rng_confined_fires_and_allowlist_blesses() {
    // Construction (line 12) and draw (line 13), silenced whole-file by the
    // `rng-confined` directive.
    let r = lint_fixture("rng", &Allowlist::default());
    assert_eq!(r.diagnostics.len(), 2, "{:?}", r.diagnostics);
    assert_eq!(
        (r.diagnostics[0].rule, r.diagnostics[0].line),
        ("rng-confined", 12)
    );
    assert_eq!(
        (r.diagnostics[1].rule, r.diagnostics[1].line),
        ("rng-confined", 13)
    );

    let allow = Allowlist::parse("rng-confined crates/foo/src/lib.rs\n").expect("parse");
    let r = lint_fixture("rng", &allow);
    assert!(
        r.is_clean(),
        "blessed RNG site still fired: {:?}",
        r.diagnostics
    );
}

#[test]
fn hot_path_alloc_fires_inside_marked_region() {
    // The allocation inside the first `// HOT:` region fires; the
    // `// ALLOC:`-justified one and the cold-path allocation stay silent.
    let r = lint_fixture("hot_alloc", &Allowlist::default());
    assert_single(&r, "hot-path-alloc", "crates/foo/src/lib.rs", 14);
}

#[test]
fn ordering_without_justification_fires() {
    // The bare `Ordering::Relaxed` fires; the `// ORDERING:`-justified
    // `Relaxed` and the `SeqCst` stay silent.
    let r = lint_fixture("ordering", &Allowlist::default());
    assert_single(&r, "ordering-justified", "crates/foo/src/lib.rs", 10);
}

#[test]
fn doc_examples_are_linted_at_their_original_lines() {
    // The thread spawn inside the rustdoc example fires at its real line in
    // the source file; the ```text block is prose and stays silent.
    let r = lint_fixture("doc_example", &Allowlist::default());
    assert_single(&r, "thread-spawn", "crates/foo/src/lib.rs", 11);
}

#[test]
fn deny_exception_requires_allowlisting() {
    let r = lint_fixture("deny_exception", &Allowlist::default());
    assert_single(&r, "unsafe-confined", "crates/foo/src/lib.rs", 1);

    let allow = Allowlist::parse("unsafe-deny-exception crates/foo\n").expect("parse");
    let r = lint_fixture("deny_exception", &allow);
    assert!(r.is_clean(), "excepted deny fired: {:?}", r.diagnostics);
}

#[test]
fn clean_fixture_is_clean() {
    let r = lint_fixture("clean", &Allowlist::default());
    assert!(r.is_clean(), "{:?}", r.diagnostics);
    assert_eq!(r.files_scanned, 1);
}

#[test]
fn diagnostics_are_sorted_and_stable() {
    // Two runs over the same tree produce byte-identical, sorted output.
    let a = lint_fixture("hash_alias", &Allowlist::default());
    let b = lint_fixture("hash_alias", &Allowlist::default());
    let render = |r: &LintReport| {
        r.diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&a), render(&b));
    let mut sorted = a.diagnostics.clone();
    sorted.sort();
    assert_eq!(sorted, a.diagnostics);
    // The JSON rendering carries the same findings for the CI matcher.
    let json = a.to_json();
    assert!(json.contains("\"rule\":\"hash-iteration\""), "{json}");
    assert!(json.contains("\"line\":13"), "{json}");
}

#[test]
fn workspace_is_clean_under_checked_in_allowlist() {
    // The acceptance gate: the real workspace, linted with the real
    // allowlist, has zero violations. Any drift (a new unsafe block, a
    // converted unwrap whose budget was not ratcheted) fails this test the
    // same way it fails the CI lint step.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let allow = Allowlist::load(&dynnet_lint::default_allowlist_path(&root)).expect("allowlist");
    let report = run_lint(&root, &allow).expect("workspace lint run");
    let rendered = report
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        report.is_clean(),
        "workspace lint found violations:\n{rendered}"
    );
    assert!(report.files_scanned > 50, "scanned suspiciously few files");
}
