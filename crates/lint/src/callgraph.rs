//! Cross-file call graph over the first-party crates, powering the
//! `panic-reachability` rule: any path from a public library API to a panic
//! site (`unwrap`/`expect`/`panic!`-family macros/raw indexing) is a
//! finding unless the site carries an `// INVARIANT:` comment stating why
//! it cannot fire.
//!
//! This replaces the PR 6 per-file unwrap *budget* with a reachability
//! *proof*: instead of counting sites, the rule asks whether a caller
//! outside the crate can trip one. The graph is name-resolved, not
//! type-resolved, so edges are built conservatively:
//!
//! * `Type::name(…)` resolves through the `impl` blocks collected by
//!   [`crate::parse::impl_blocks`];
//! * plain `name(…)` resolves to same-file candidates first, then to a
//!   unique workspace-wide name, then to same-crate candidates;
//! * `.name(…)` method calls resolve only when the name is unambiguous
//!   among first-party fns *and* not a common std method name — otherwise
//!   every `.push(…)` in the workspace would alias every first-party
//!   `push` method.
//!
//! Missed edges are possible (a renamed import, a function pointer); the
//! rule is a high-signal ratchet, not a soundness proof. Two escapes exist:
//! a `// INVARIANT:` comment at the site (the reviewed justification), and
//! the `panic-indexing <file>` allowlist directive — a burn-down list for
//! files whose raw indexing predates the rule. Indexing through
//! `NodeId::index()` (`outputs[u.index()]`) is structurally exempt: node
//! ids are validated against the node universe at construction, the
//! repo-wide invariant PR 1 established.

use crate::allow::Allowlist;
use crate::parse::{call_sites, match_delim, Delim, TokenKind, Visibility};
use crate::rules::JUSTIFY_BACK;
use crate::scan::find_word;
use crate::{AnalyzedFile, Diagnostic};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

/// The first-party crate dependency graph: crate directory name (under
/// `crates/`) → transitive closure of the directory names it depends on.
/// Used to reject name-resolved call edges that contradict the manifests —
/// `obs` cannot call into `bench` if `crates/obs/Cargo.toml` does not
/// (transitively) depend on it.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// Builds [`CrateDeps`] from `crates/*/Cargo.toml`. Only `path = "…"`
/// dependencies count (everything first-party is a path dep; the build is
/// offline), keyed by the path's final directory component.
/// `[dev-dependencies]` are excluded: test code is not in the call graph.
pub fn crate_deps(root: &Path) -> CrateDeps {
    let mut direct: CrateDeps = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return direct;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let dir = entry.path();
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut in_deps = false;
        let mut deps = BTreeSet::new();
        for line in manifest.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                // `[dependencies]`, `[dependencies.dynnet-core]`, and the
                // target-specific forms all start a dependency section;
                // `[dev-dependencies]` does not.
                in_deps = line.contains("dependencies") && !line.contains("dev-dependencies");
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some(rest) = line.split("path").nth(1) {
                if let Some(val) = rest.split('"').nth(1) {
                    if let Some(dep) = val.rsplit('/').next() {
                        deps.insert(dep.to_string());
                    }
                }
            }
        }
        direct.insert(name, deps);
    }
    // Transitive closure (the graph is tiny; fixpoint is fine).
    loop {
        let mut grew = false;
        let names: Vec<String> = direct.keys().cloned().collect();
        for name in &names {
            let reachable: BTreeSet<String> = direct[name]
                .iter()
                .filter_map(|d| direct.get(d))
                .flatten()
                .cloned()
                .collect();
            let set = direct.get_mut(name).expect("key from keys()");
            for r in reachable {
                grew |= set.insert(r);
            }
        }
        if !grew {
            return direct;
        }
    }
}

/// Method names too common to resolve by name alone: a `.get(…)` call is
/// far more likely `Vec::get` than a first-party `get`, and `.store(…)` is
/// far more likely an atomic store than a first-party `store` method.
const COMMON_METHODS: [&str; 40] = [
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "next",
    "clear",
    "extend",
    "sort",
    "map",
    "filter",
    "fold",
    "find",
    "count",
    "sum",
    "min",
    "max",
    "write",
    "read",
    "flush",
    "store",
    "load",
    "swap",
    "fetch_add",
    "take",
    "replace",
    "send",
    "recv",
    "join",
    "lock",
];

/// Keywords that may directly precede `[` without the bracket being an
/// index expression: array expressions (`return [a, b]`) and slice
/// patterns (`let [a, b] = ..`, `for [a, b] in ..`), which cannot panic.
const NON_INDEX_KEYWORDS: [&str; 10] = [
    "return", "break", "in", "if", "else", "match", "while", "loop", "let", "for",
];

/// One panic site inside a function body.
struct PanicSite {
    line: usize,
    kind: &'static str,
}

/// One node of the call graph.
struct FnNode {
    file: usize,
    name: String,
    self_type: Option<String>,
    decl_line: usize,
    is_public_root: bool,
    sites: Vec<PanicSite>,
    calls: Vec<crate::parse::CallSite>,
}

/// Runs the `panic-reachability` rule over the whole workspace file set.
/// `deps` (from [`crate_deps`]) prunes name-resolved edges that contradict
/// the manifests; an empty map (no manifests found) disables that pruning.
pub fn panic_reachability(
    files: &[AnalyzedFile],
    allow: &Allowlist,
    deps: &CrateDeps,
    out: &mut Vec<Diagnostic>,
) {
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut indexing_per_file: BTreeMap<String, usize> = BTreeMap::new();

    for (fi, af) in files.iter().enumerate() {
        let rel = &af.src.rel;
        if af.src.from_doc_example || !rel.starts_with("crates/") || !rel.contains("/src/") {
            continue;
        }
        let binary_side = rel.ends_with("/main.rs") || rel.contains("/src/bin/");
        for item in &af.fns {
            let in_test = af
                .src
                .is_test
                .get(item.decl_line.saturating_sub(1))
                .copied()
                .unwrap_or(false);
            if in_test {
                continue;
            }
            let (Some(body_lines), Some(body_tokens)) = (item.body_lines, item.body_tokens) else {
                continue;
            };
            let mut sites = lexical_panic_sites(af, body_lines);
            let raw_indexing = indexing_sites(af, body_tokens);
            *indexing_per_file.entry(rel.clone()).or_insert(0) += raw_indexing.len();
            if !allow.panic_indexing.contains(rel) {
                sites.extend(raw_indexing);
            }
            // Drop sites the author has justified at the site itself.
            sites.retain(|s| !af.src.comment_near(s.line, JUSTIFY_BACK, "INVARIANT:"));
            sites.sort_by_key(|s| s.line);
            let is_public_root =
                item.vis == Visibility::Public && !binary_side && !allow.is_panic_exempt(rel);
            nodes.push(FnNode {
                file: fi,
                name: item.name.clone(),
                self_type: item.self_type.clone(),
                decl_line: item.decl_line,
                is_public_root,
                sites,
                calls: call_sites(&af.tokens, body_tokens),
            });
        }
    }

    // Stale burn-down entries: a `panic-indexing` directive for a file with
    // no raw indexing left (or no such file at all) must be deleted.
    for rel in &allow.panic_indexing {
        if indexing_per_file.get(rel).copied().unwrap_or(0) == 0 {
            out.push(Diagnostic {
                rel: rel.clone(),
                line: 1,
                rule: "panic-reachability",
                msg: "stale `panic-indexing` directive: no raw indexing sites remain in this \
                      file — delete the allowlist line"
                    .to_string(),
            });
        }
    }

    let edges = resolve_edges(files, &nodes, deps);

    // Deterministic multi-source BFS: roots in (file, line) order; the
    // first root to reach a node claims it and provides the witness path.
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by(|&a, &b| {
        (&files[nodes[a].file].src.rel, nodes[a].decl_line)
            .cmp(&(&files[nodes[b].file].src.rel, nodes[b].decl_line))
    });
    let mut reached_by: Vec<Option<(usize, Option<usize>)>> = vec![None; nodes.len()]; // (root, pred)
    for &root in order.iter().filter(|&&n| nodes[n].is_public_root) {
        if reached_by[root].is_some() {
            continue;
        }
        reached_by[root] = Some((root, None));
        let mut queue = VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            for &m in &edges[n] {
                if reached_by[m].is_none() {
                    reached_by[m] = Some((root, Some(n)));
                    queue.push_back(m);
                }
            }
        }
    }

    for (n, node) in nodes.iter().enumerate() {
        let Some((root, _)) = reached_by[n] else {
            continue;
        };
        if node.sites.is_empty() {
            continue;
        }
        let path = witness_path(&nodes, &reached_by, n);
        let root_node = &nodes[root];
        let root_name = qualified_name(files, root_node);
        for site in &node.sites {
            out.push(Diagnostic {
                rel: files[node.file].src.rel.clone(),
                line: site.line,
                rule: "panic-reachability",
                msg: format!(
                    "{} is reachable from public API `{root_name}` (path: {path}) — prove it \
                     cannot fire with an `// INVARIANT:` comment or return a typed error",
                    site.kind
                ),
            });
        }
    }
}

/// Reconstructs the BFS witness path root → … → n as fn names, capped so
/// messages stay one line.
fn witness_path(
    nodes: &[FnNode],
    reached_by: &[Option<(usize, Option<usize>)>],
    n: usize,
) -> String {
    let mut chain = vec![n];
    let mut cur = n;
    while let Some((_, Some(pred))) = reached_by[cur] {
        chain.push(pred);
        cur = pred;
    }
    chain.reverse();
    let names: Vec<&str> = chain.iter().map(|&i| nodes[i].name.as_str()).collect();
    if names.len() > 6 {
        format!(
            "{} -> ... -> {}",
            names[..2].join(" -> "),
            names[names.len() - 2..].join(" -> ")
        )
    } else {
        names.join(" -> ")
    }
}

/// `crate_name::fn_name` (with the `Type::` segment when known).
fn qualified_name(files: &[AnalyzedFile], node: &FnNode) -> String {
    let rel = &files[node.file].src.rel;
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("?");
    match &node.self_type {
        Some(t) => format!("{crate_name}::{t}::{}", node.name),
        None => format!("{crate_name}::{}", node.name),
    }
}

/// Lexical panic sites (`.unwrap()`, `.expect(`, `panic!`-family macros) on
/// the body's lines.
fn lexical_panic_sites(af: &AnalyzedFile, body: (usize, usize)) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    for lineno in body.0..=body.1.min(af.src.lines.len()) {
        let code = &af.src.lines[lineno - 1].code;
        for (pat, kind) in [(".unwrap()", "`unwrap()`"), (".expect(", "`expect()`")] {
            if code.contains(pat) {
                sites.push(PanicSite { line: lineno, kind });
            }
        }
        for (word, kind) in [
            ("panic", "`panic!`"),
            ("unreachable", "`unreachable!`"),
            ("todo", "`todo!`"),
            ("unimplemented", "`unimplemented!`"),
        ] {
            let bytes = code.as_bytes();
            if find_word(code, word)
                .iter()
                .any(|&off| bytes.get(off + word.len()) == Some(&b'!'))
            {
                sites.push(PanicSite { line: lineno, kind });
            }
        }
    }
    sites
}

/// Raw index expressions in the body's token range: `expr[...]` where the
/// bracket follows an identifier or a closing delimiter — minus the
/// structurally exempt `[….index()]` node-id form.
fn indexing_sites(af: &AnalyzedFile, body: (usize, usize)) -> Vec<PanicSite> {
    let tokens = &af.tokens;
    let mut sites = Vec::new();
    for i in body.0..body.1.min(tokens.len()) {
        if !matches!(tokens[i].kind, TokenKind::Open(Delim::Bracket)) || i == 0 {
            continue;
        }
        let indexes = match &tokens[i - 1].kind {
            TokenKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
            TokenKind::Close(Delim::Paren) | TokenKind::Close(Delim::Bracket) => true,
            _ => false,
        };
        if !indexes {
            continue;
        }
        let Some(close) = match_delim(tokens, i) else {
            continue;
        };
        // `[x.index()]` / `[path.to.id.index()]`: the group's last four
        // tokens are `. index ( )`.
        let exempt = close >= i + 5
            && tokens[close - 4].is_punct('.')
            && tokens[close - 3].is_ident("index")
            && matches!(tokens[close - 2].kind, TokenKind::Open(Delim::Paren))
            && matches!(tokens[close - 1].kind, TokenKind::Close(Delim::Paren));
        if !exempt {
            sites.push(PanicSite {
                line: tokens[i].line,
                kind: "raw indexing",
            });
        }
    }
    sites
}

/// Resolves every node's call list to edges (callee node indices),
/// conservatively (see module docs). An edge from crate A into crate B is
/// kept only when A's manifest (transitively) depends on B — name collisions
/// across unrelated crates otherwise manufacture impossible paths.
fn resolve_edges(files: &[AnalyzedFile], nodes: &[FnNode], deps: &CrateDeps) -> Vec<Vec<usize>> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_type_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
        if let Some(t) = &n.self_type {
            by_type_name
                .entry((t.as_str(), n.name.as_str()))
                .or_default()
                .push(i);
        }
    }
    let crate_of = |n: &FnNode| {
        files[n.file]
            .src
            .rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
    };

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        let mut targets: BTreeSet<usize> = BTreeSet::new();
        for call in &node.calls {
            let candidates = by_name.get(call.name.as_str());
            if let Some(q) = &call.qualifier {
                if let Some(ids) = by_type_name.get(&(q.as_str(), call.name.as_str())) {
                    targets.extend(ids.iter().copied());
                    continue;
                }
            }
            let Some(candidates) = candidates else {
                continue;
            };
            if call.method {
                if candidates.len() == 1 && !COMMON_METHODS.contains(&call.name.as_str()) {
                    targets.insert(candidates[0]);
                }
                continue;
            }
            // Plain call: same file beats unique beats same crate.
            let same_file: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| nodes[c].file == node.file)
                .collect();
            if !same_file.is_empty() {
                targets.extend(same_file);
            } else if candidates.len() == 1 {
                targets.insert(candidates[0]);
            } else {
                targets.extend(
                    candidates
                        .iter()
                        .copied()
                        .filter(|&c| crate_of(&nodes[c]) == crate_of(node)),
                );
            }
        }
        targets.remove(&i); // self-recursion adds nothing to reachability
        let caller_crate = crate_of(node);
        edges[i] = targets
            .into_iter()
            .filter(|&t| {
                let callee_crate = crate_of(&nodes[t]);
                callee_crate == caller_crate
                    || deps
                        .get(caller_crate)
                        .is_none_or(|d| d.contains(callee_crate))
            })
            .collect();
    }
    edges
}
