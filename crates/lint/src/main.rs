//! # copse-lint — the workspace invariant linter
//!
//! A std-only source checker for the handful of cross-cutting
//! invariants this workspace maintains but `clippy` cannot express
//! (CI runs it with `cargo run -p copse-lint`; a non-empty finding
//! list is a build failure):
//!
//! 1. **Timing goes through `copse-trace`.** Raw `Instant::now()` is
//!    confined to `crates/trace`; everything else uses
//!    [`Stopwatch`](../copse_trace/struct.Stopwatch.html) so clocks
//!    stay monotone, window-aware, and greppable.
//! 2. **Threads come from the pool.** Bare `thread::spawn(` is
//!    confined to `crates/pool` (named `thread::Builder` threads are
//!    fine — they cannot silently swallow a spawn failure).
//! 3. **No panics on server request paths.** `.unwrap()`/`.expect(`
//!    are banned from non-test `crates/server` code: a poisoned lock
//!    or failed spawn must degrade, not take the process down.
//! 4. **Every crate root warns on missing docs.** `#![warn(...)]`
//!    for `missing_docs` must appear in each `src/lib.rs`.
//! 5. **Server queues are bounded.** `std::sync::mpsc` and raw
//!    `VecDeque` are banned from non-test `crates/server` code
//!    outside `queue.rs`: every queue on a request path goes through
//!    the bounded, closeable channel so overload sheds instead of
//!    growing memory without bound.
//! 6. **The server never prints.** `println!`/`eprintln!` (and bare
//!    `print!`/`eprint!`) are banned from non-test, non-bin
//!    `crates/server` code: operator-facing facts belong in the
//!    stats snapshot, the metrics exposition, or the flight recorder
//!    — never interleaved on a stdio stream the embedding process
//!    owns.
//! 7. **Algorithm 1 is written once.** Across non-test
//!    `crates/core/src`, each of the four stage reports a pass times
//!    into (`&mut trace.comparison`, `&mut trace.reshuffle`,
//!    `&mut trace.levels`, `&mut trace.accumulate`) is borrowed
//!    exactly once: a second copy of the evaluation pipeline cannot
//!    re-grow beside the first without failing the build.
//! 8. **The wire speaks one dialect.** In non-test
//!    `crates/core/src/wire.rs` and `crates/server/src`, no code
//!    branches on a wire version (`version >=`, `version <`), calls a
//!    `_versioned(` codec entry point, or names an oldest-accepted
//!    version (`WIRE_VERSION` suffixed `_MIN`): a frame carries
//!    `WIRE_VERSION` or is refused, so a second dialect cannot re-grow
//!    beside the first.
//! 9. **The arithmetic route is fixed at keygen.** Non-test
//!    `crates/fhe/src/bgv` (`BgvScheme`, `BgvBackend`, `RnsContext`)
//!    defines no public
//!    `set_*_enabled(` mutator, and `KsKey` stays an enum of forms:
//!    declaring it as a `struct`, or re-growing the `parts_eval`
//!    mirror field, is a finding. A scheme is born on the evaluation
//!    route or as the schoolbook oracle and holds each switching key
//!    in the one form that route reads. Nor does it define
//!    `fn small_to_eval(`, the per-prime digit transform: the
//!    evaluation route transforms each digit once, in the key switch's
//!    auxiliary basis, and a second route cannot grow back beside it.
//!    Non-test `crates/fhe/src/math/ntt.rs` likewise names no
//!    bit-reversal pass (`fn permute(`, `bitrev`): the forward
//!    transform leaves its spectrum bit-reversed and the inverse reads
//!    it so, and a natural-order route cannot come back beside them.
//! 10. **The circuit has one model.** Non-test `crates/*/src` declares
//!     no `struct CostInputs`, no `mod ours`, no `fn classify_depth(`,
//!     none of the per-stage closed forms `fn matmul_counts(`,
//!     `fn levels_counts(`, `fn accumulate_counts(` and
//!     `fn product_depth(`, no `fn classify_counts(`, and no
//!     `struct Replay`; and outside
//!     `crates/core/src/seccomp.rs` nothing can match on a
//!     `SecCompVariant`: no `SecCompVariant::… =>` arm, no `use` of its
//!     variants, no alias of it and no `impl` on it. (A lone
//!     `SecCompVariant::Variant` inside a wrapped `use` group is not
//!     seen.)
//!     COPSE's op counts, depth and chain primes come from running the
//!     runtime on the clear backend (`copse_core::analyze`), so
//!     neither a formula set nor a second description of the circuit
//!     can re-grow beside it, and a comparator is written in one file.
//!     (`complexity::paper` keeps the paper's printed SecComp, level
//!     and total forms under other names.)
//! 11. **Matrix products run on a ring.** Non-test `crates/*/src`
//!     declares no `fn rotate_blocks`, `fn cyclic_extend_blocks`,
//!     `fn truncate_blocks` or `fn cyclic_extend` (called or generic):
//!     every product, solo or packed, multiplies ring diagonals with
//!     `FheBackend::ring_mat_vec` (a packed chunk tiled ones; a backend
//!     without a slot bound on a ring of the product's column count),
//!     so neither a block-rotation layout nor width reconciliation can
//!     grow back on the backend trait, on `BitVec` or beside them.
//! 12. **Every backend rotates.** Non-test `crates/*/src` defines no
//!     `fn supports_slot_rotation(` and names neither
//!     `SlotRotationUnsupported` nor `NegacyclicBackend`: every
//!     backend has GF(2) slots (`BgvBackend` refuses a power-of-two
//!     `m`), so neither a rotation-capability probe nor a per-bit
//!     backend without slots can grow back.
//! 13. **Products accumulate.** Non-test `crates/fhe/src/bgv` defines
//!     no `fn product(`: the slot-layout kernels' `SlotOps` has no
//!     per-term product. A matrix's terms multiply-add into one sum and
//!     finish once, so an encrypted model relinearises once per matrix,
//!     and a per-product relinearisation cannot grow back beside it.
//! 14. **The server counters have one rendering.** Non-test
//!     `crates/server` defines no text renderer named `render_` +
//!     `text` (called or generic): the metrics exposition
//!     (`metrics::FAMILIES`) is the one view of a `StatsSnapshot`, so a
//!     second, hand-laid-out page cannot grow back beside it and drift
//!     from it.
//! 15. **Observability is scoped.** Non-test `crates/*/src` defines no
//!     `fn take_events(` or `fn set_enabled(`, and non-test
//!     `crates/pool/src` no `struct WorkerCounters`: stage timings and
//!     op counts live in the pass's `EvalTrace` and the query's
//!     `ServerTiming`, so a process-wide collector or tally that
//!     concurrent work pollutes cannot grow back beside them.
//! 16. **Two backends.** Non-test `crates/*/src` implements
//!     `FheBackend` (an `impl … FheBackend for` line) only in
//!     `crates/fhe/src/clear.rs` and `crates/fhe/src/bgv/backend.rs`:
//!     the clear backend carries the bits and, under a BGV `LevelRule`,
//!     the level the analyzer reads, so a third backend that repeats
//!     each op's metering and depth rules cannot grow back beside them.
//!
//! The scan covers `crates/*/src/**/*.rs` plus the facade's `src/`;
//! examples, integration tests, and vendored shims are out of scope.
//! Line comments are stripped and `#[cfg(test)] mod` bodies skipped,
//! so test code may use the convenient forms freely.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation at a specific source line.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Finding {
    path: String,
    line: usize,
    rule: &'static str,
    excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule,
            self.excerpt.trim()
        )
    }
}

/// The patterns each rule greps for. Built from split literals so the
/// linter's own source never matches them.
struct Patterns {
    instant: String,
    spawn: String,
    unwrap: String,
    expect: String,
    docs: String,
    channel: String,
    deque: String,
    print: String,
    println: String,
    stages: [String; 4],
    dialect: [String; 4],
    /// Rule 9: a public setter is `toggle.0 .. toggle.1` on one line.
    toggle: (String, String),
    /// Rule 9: a second key form, or the per-prime digit transform.
    second_form: [String; 3],
    /// Rule 9: the transform's bit-reversal pass and its table.
    bit_reversal: [String; 2],
    circuit_model: [String; 9],
    /// Rule 10: the comparator's type name.
    comparator: String,
    /// Rule 11: the block-layout and width-reconciliation method
    /// names, after `fn `.
    block_layout: [String; 4],
    /// Rule 12: the rotation probe, its admission verdict and the
    /// per-bit backend.
    rotationless: [String; 3],
    /// Rule 13: a per-term product on the slot-layout kernels' ops.
    per_term_product: String,
    /// Rule 14: a second counter renderer, after `fn `.
    counter_view: String,
    /// Rule 15: a process-wide span collector's drain and switch.
    global_collector: [String; 2],
    /// Rule 15: the pool's process-wide worker tallies.
    pool_counters: String,
    /// Rule 16: a backend implementation, on an `impl` line.
    backend_impl: String,
}

impl Patterns {
    fn new() -> Self {
        Self {
            instant: ["Instant::", "now("].concat(),
            spawn: ["thread::", "spawn("].concat(),
            unwrap: [".unwrap", "()"].concat(),
            expect: [".expect", "("].concat(),
            docs: ["#![warn(", "missing_docs)]"].concat(),
            channel: ["mp", "sc::"].concat(),
            deque: ["Vec", "Deque"].concat(),
            // Contains-matches: "print!(" also catches eprint!, and
            // "println!(" also catches eprintln! — all four stdio
            // macros between the two patterns.
            print: ["print", "!("].concat(),
            println: ["println", "!("].concat(),
            stages: ["comparison", "reshuffle", "levels", "accumulate"]
                .map(|stage| ["&mut ", "trace.", stage].concat()),
            dialect: [
                ["version", " >="].concat(),
                ["version", " <"].concat(),
                ["_version", "ed("].concat(),
                ["WIRE_VERSION", "_MIN"].concat(),
            ],
            toggle: (["pub fn ", "set_"].concat(), ["_enabled", "("].concat()),
            second_form: [
                ["struct ", "KsKey"].concat(),
                ["parts", "_eval"].concat(),
                ["fn small", "_to_eval("].concat(),
            ],
            bit_reversal: [["fn per", "mute("].concat(), ["bit", "rev"].concat()],
            circuit_model: [
                ["struct ", "CostInputs"].concat(),
                ["mod ", "ours"].concat(),
                ["fn classify", "_depth("].concat(),
                ["fn matmul", "_counts("].concat(),
                ["fn levels", "_counts("].concat(),
                ["fn accumulate", "_counts("].concat(),
                ["fn product", "_depth("].concat(),
                ["fn classify", "_counts("].concat(),
                ["struct ", "Replay"].concat(),
            ],
            comparator: ["SecComp", "Variant"].concat(),
            block_layout: [
                ["fn rotate", "_blocks"].concat(),
                ["fn cyclic_extend", "_blocks"].concat(),
                ["fn truncate", "_blocks"].concat(),
                ["fn cyclic", "_extend"].concat(),
            ],
            rotationless: [
                ["fn supports_slot", "_rotation("].concat(),
                ["SlotRotation", "Unsupported"].concat(),
                ["Negacyclic", "Backend"].concat(),
            ],
            per_term_product: ["fn prod", "uct("].concat(),
            counter_view: ["fn render", "_text"].concat(),
            global_collector: [
                ["fn take", "_events("].concat(),
                ["fn set", "_enabled("].concat(),
            ],
            pool_counters: ["struct Worker", "Counters"].concat(),
            backend_impl: ["FheBackend", " for "].concat(),
        }
    }
}

/// Which rules apply to a file, derived from its workspace-relative
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RuleSet {
    ban_instant: bool,
    ban_spawn: bool,
    ban_panics: bool,
    ban_unbounded: bool,
    ban_print: bool,
    ban_dialect: bool,
    ban_route_toggle: bool,
    ban_bit_reversal: bool,
    ban_second_model: bool,
    ban_block_layout: bool,
    ban_rotationless: bool,
    ban_per_term_product: bool,
    ban_counter_view: bool,
    ban_global_collector: bool,
    ban_pool_counters: bool,
    ban_third_backend: bool,
}

fn rules_for(rel_path: &str) -> RuleSet {
    let server = rel_path.starts_with("crates/server/");
    RuleSet {
        ban_instant: !rel_path.starts_with("crates/trace/"),
        ban_spawn: !rel_path.starts_with("crates/pool/"),
        ban_panics: server,
        // queue.rs is the one sanctioned owner of a raw VecDeque: it
        // wraps it in the bounded channel everything else must use.
        ban_unbounded: server && rel_path != "crates/server/src/queue.rs",
        // Binaries own their stdio; library code embedded in someone
        // else's process does not.
        ban_print: server && !rel_path.contains("/bin/") && !rel_path.ends_with("/main.rs"),
        ban_dialect: rel_path == "crates/core/src/wire.rs"
            || rel_path.starts_with("crates/server/src/"),
        ban_route_toggle: rel_path.starts_with("crates/fhe/src/bgv/"),
        ban_bit_reversal: rel_path == "crates/fhe/src/math/ntt.rs",
        ban_second_model: rel_path.starts_with("crates/"),
        ban_block_layout: rel_path.starts_with("crates/"),
        ban_rotationless: rel_path.starts_with("crates/"),
        ban_per_term_product: rel_path.starts_with("crates/fhe/src/bgv/"),
        ban_counter_view: server,
        ban_global_collector: rel_path.starts_with("crates/"),
        ban_pool_counters: rel_path.starts_with("crates/pool/"),
        ban_third_backend: rel_path.starts_with("crates/")
            && rel_path != "crates/fhe/src/clear.rs"
            && rel_path != "crates/fhe/src/bgv/backend.rs",
    }
}

/// Strips a `//` line comment (including doc comments). Comment
/// markers inside string literals are rare enough in this workspace
/// that the simple truncation is accurate in practice.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Net brace depth change of a code line.
fn brace_delta(code: &str) -> i64 {
    let opens = code.bytes().filter(|&b| b == b'{').count() as i64;
    let closes = code.bytes().filter(|&b| b == b'}').count() as i64;
    opens - closes
}

/// The non-test lines of one file's source as `(line number, raw
/// line)`: `#[cfg(test)] mod` bodies are skipped.
fn production_lines(source: &str) -> Vec<(usize, &str)> {
    let mut lines = Vec::new();
    let mut pending_cfg_test = false;
    let mut skip_depth: Option<i64> = None;

    for (idx, raw) in source.lines().enumerate() {
        let code = strip_comment(raw);
        let trimmed = code.trim();

        if let Some(depth) = skip_depth {
            let depth = depth + brace_delta(code);
            skip_depth = (depth > 0).then_some(depth);
            continue;
        }

        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
            // An inline `#[cfg(test)] mod t { .. }` opens on this line.
            if trimmed.contains("mod ") {
                let depth = brace_delta(code);
                if depth > 0 {
                    skip_depth = Some(depth);
                }
                pending_cfg_test = false;
            }
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with("#[") {
                continue; // further attributes on the same item
            }
            pending_cfg_test = false;
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                let depth = brace_delta(code);
                if depth > 0 {
                    skip_depth = Some(depth);
                }
                continue;
            }
        }
        lines.push((idx + 1, raw));
    }
    lines
}

/// Scans one file's source for the per-line rules, returning every
/// finding. `rel_path` is the workspace-relative path used both for
/// reporting and for rule selection.
fn scan_source(rel_path: &str, source: &str, patterns: &Patterns) -> Vec<Finding> {
    let rules = rules_for(rel_path);
    let mut findings = Vec::new();

    for (line, raw) in production_lines(source) {
        let code = strip_comment(raw);
        let mut report = |rule: &'static str| {
            findings.push(Finding {
                path: rel_path.to_string(),
                line,
                rule,
                excerpt: raw.trim().to_string(),
            });
        };
        if rules.ban_instant && code.contains(&patterns.instant) {
            report("raw-instant");
        }
        if rules.ban_spawn && code.contains(&patterns.spawn) {
            report("bare-spawn");
        }
        if rules.ban_panics && (code.contains(&patterns.unwrap) || code.contains(&patterns.expect))
        {
            report("server-panic");
        }
        if rules.ban_unbounded
            && (code.contains(&patterns.channel) || code.contains(&patterns.deque))
        {
            report("unbounded-queue");
        }
        if rules.ban_print && (code.contains(&patterns.print) || code.contains(&patterns.println)) {
            report("server-print");
        }
        if rules.ban_dialect && patterns.dialect.iter().any(|p| code.contains(p.as_str())) {
            report("wire-dialect");
        }
        let (setter, enabled) = &patterns.toggle;
        let toggle = code
            .find(setter.as_str())
            .is_some_and(|i| code[i..].contains(enabled.as_str()));
        let second_form = patterns
            .second_form
            .iter()
            .any(|p| code.contains(p.as_str()));
        let bit_reversal = patterns
            .bit_reversal
            .iter()
            .any(|p| code.contains(p.as_str()));
        if (rules.ban_route_toggle && (toggle || second_form))
            || (rules.ban_bit_reversal && bit_reversal)
        {
            report("route-toggle");
        }
        // An arm `SecCompVariant::… =>`, or what lets one drop the
        // prefix: a `use` of its variants, an alias, an `impl` on it.
        let comparator_arm = rel_path != "crates/core/src/seccomp.rs"
            && code.find(patterns.comparator.as_str()).is_some_and(|i| {
                let (line, rest) = (code.trim_start(), &code[i + patterns.comparator.len()..]);
                let variants = rest.strip_prefix("::").is_some_and(|path| {
                    path.contains("=>") || path.starts_with(['*', '{']) || line.starts_with("use ")
                });
                variants || rest.starts_with(" as ") || line.starts_with("impl")
            });
        let formula = patterns
            .circuit_model
            .iter()
            .any(|p| code.contains(p.as_str()));
        if rules.ban_second_model && (formula || comparator_arm) {
            report("one-circuit-model");
        }
        // `fn name(` or `fn name<`, not a longer name sharing the prefix.
        let defines = |p: &String| {
            code.match_indices(p.as_str())
                .any(|(i, _)| code[i + p.len()..].starts_with(['(', '<']))
        };
        if rules.ban_block_layout && patterns.block_layout.iter().any(defines) {
            report("block-layout");
        }
        let rotationless = patterns
            .rotationless
            .iter()
            .any(|p| code.contains(p.as_str()));
        if rules.ban_rotationless && rotationless {
            report("every-backend-rotates");
        }
        if rules.ban_per_term_product && code.contains(patterns.per_term_product.as_str()) {
            report("products-accumulate");
        }
        if rules.ban_counter_view && defines(&patterns.counter_view) {
            report("one-counter-view");
        }
        let collector = patterns
            .global_collector
            .iter()
            .any(|p| code.contains(p.as_str()));
        if (rules.ban_global_collector && collector)
            || (rules.ban_pool_counters && code.contains(patterns.pool_counters.as_str()))
        {
            report("scoped-observability");
        }
        if rules.ban_third_backend
            && code.trim_start().starts_with("impl")
            && code.contains(patterns.backend_impl.as_str())
        {
            report("two-backends");
        }
    }
    findings
}

/// Rule 7 over the given `(workspace-relative path, source)` files:
/// each stage-report borrow must occur exactly once across the
/// non-test code of `crates/core/src`. Every site of a repeated borrow
/// is a finding; so is a borrow that occurs nowhere.
fn second_pipeline_findings(files: &[(String, String)], patterns: &Patterns) -> Vec<Finding> {
    let mut findings = Vec::new();
    for literal in &patterns.stages {
        let mut sites = Vec::new();
        for (rel, source) in files.iter().filter(|f| f.0.starts_with("crates/core/src/")) {
            for (line, raw) in production_lines(source) {
                let uses = strip_comment(raw).matches(literal.as_str()).count();
                sites.extend((0..uses).map(|_| Finding {
                    path: rel.clone(),
                    line,
                    rule: "second-pipeline",
                    excerpt: raw.trim().to_string(),
                }));
            }
        }
        match sites.len() {
            1 => {}
            0 => findings.push(Finding {
                path: "crates/core/src".to_string(),
                line: 1,
                rule: "second-pipeline",
                excerpt: format!("no pipeline stage times into {literal}"),
            }),
            _ => findings.extend(sites),
        }
    }
    findings
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The source directories in scope: every workspace crate's `src/`
/// plus the facade crate's `src/` (shims, examples, and integration
/// tests are intentionally excluded).
fn scan_roots(workspace: &Path) -> Vec<PathBuf> {
    let mut roots = vec![workspace.join("src")];
    let crates = workspace.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let src = dir.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    roots
}

/// Runs the full scan from the workspace root, returning findings and
/// the number of files inspected.
fn scan_workspace(workspace: &Path) -> (Vec<Finding>, usize) {
    let patterns = Patterns::new();
    let mut findings = Vec::new();
    let mut paths = Vec::new();
    for root in scan_roots(workspace) {
        rust_files(&root, &mut paths);
    }
    let scanned = paths.len();
    let mut files = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(workspace)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        findings.extend(scan_source(&rel, &source, &patterns));

        // Rule 4: crate roots must warn on missing docs.
        if rel.ends_with("src/lib.rs") && !source.contains(&patterns.docs) {
            findings.push(Finding {
                path: rel.clone(),
                line: 1,
                rule: "missing-docs-warn",
                excerpt: "crate root lacks the missing_docs warn attribute".to_string(),
            });
        }
        files.push((rel, source));
    }
    findings.extend(second_pipeline_findings(&files, &patterns));
    (findings, scanned)
}

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => workspace_root(),
    };
    let (findings, scanned) = scan_workspace(&root);
    for finding in &findings {
        eprintln!("{finding}");
    }
    if findings.is_empty() {
        println!("copse-lint: {scanned} files scanned, 0 findings");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "copse-lint: {scanned} files scanned, {} finding(s)",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<Finding> {
        scan_source(rel, src, &Patterns::new())
    }

    #[test]
    fn flags_raw_instant_outside_trace() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let hits = scan("crates/server/src/server.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "raw-instant");
        assert_eq!(hits[0].line, 1);
        assert!(scan("crates/trace/src/lib.rs", src).is_empty());
    }

    #[test]
    fn flags_bare_spawn_outside_pool() {
        let src = "fn f() { std::thread::spawn(|| ()); }\n";
        assert_eq!(scan("crates/core/src/runtime.rs", src).len(), 1);
        assert!(scan("crates/pool/src/lib.rs", src).is_empty());
    }

    #[test]
    fn named_builder_threads_are_allowed() {
        let src = "fn f() { std::thread::Builder::new().spawn(|| ()); }\n";
        assert!(scan("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn flags_server_panics_only_in_server() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let hits = scan("crates/server/src/stats.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "server-panic");
        assert!(scan("crates/core/src/runtime.rs", src).is_empty());

        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }\n";
        assert_eq!(scan("crates/server/src/transport.rs", src).len(), 1);
    }

    #[test]
    fn comments_do_not_trip_rules() {
        let src = "// calls Instant::now() internally\n/// uses .unwrap() on error\nfn f() {}\n";
        assert!(scan("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::time::Instant;\n\
                       #[test]\n\
                       fn t() { let _ = Instant::now(); x.unwrap(); }\n\
                   }\n";
        assert!(scan("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_module_is_still_scanned() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let _ = Instant::now(); }\n\
                   }\n\
                   fn late() { let _ = Instant::now(); }\n";
        let hits = scan("crates/core/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 5);
    }

    #[test]
    fn cfg_test_on_a_non_module_item_does_not_start_a_skip() {
        let src = "#[cfg(test)]\n\
                   use std::time::Instant;\n\
                   fn f() { let _ = Instant::now(); }\n";
        let hits = scan("crates/core/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
    }

    #[test]
    fn rule_scoping_follows_paths() {
        let r = rules_for("crates/trace/src/lib.rs");
        assert!(!r.ban_instant && r.ban_spawn && !r.ban_panics && !r.ban_unbounded);
        let r = rules_for("crates/pool/src/lib.rs");
        assert!(r.ban_instant && !r.ban_spawn && !r.ban_panics && !r.ban_unbounded);
        let r = rules_for("crates/server/src/server.rs");
        assert!(r.ban_instant && r.ban_spawn && r.ban_panics && r.ban_unbounded);
        assert!(r.ban_print);
        let r = rules_for("crates/server/src/queue.rs");
        assert!(r.ban_panics && !r.ban_unbounded && r.ban_print);
        let r = rules_for("src/lib.rs");
        assert!(r.ban_instant && r.ban_spawn && !r.ban_panics && !r.ban_unbounded);
        assert!(!r.ban_print, "only the server library is print-banned");
        // A server binary (if one ever appears) owns its stdio.
        assert!(!rules_for("crates/server/src/bin/serve.rs").ban_print);
        assert!(!rules_for("crates/server/src/main.rs").ban_print);
    }

    #[test]
    fn flags_stdio_prints_in_server_library_code() {
        let sources = [
            ["fn f() { print", "!(\"x\"); }\n"].concat(),
            ["fn f() { eprint", "!(\"x\"); }\n"].concat(),
            ["fn f() { print", "ln!(\"served {}\", n); }\n"].concat(),
            ["fn f() { eprint", "ln!(\"shed {}\", n); }\n"].concat(),
        ];
        for src in &sources {
            let hits = scan("crates/server/src/server.rs", src);
            assert_eq!(hits.len(), 1, "{src}");
            assert_eq!(hits[0].rule, "server-print", "{src}");
            // Out of scope: other crates, server bins, server tests.
            assert!(scan("crates/core/src/runtime.rs", src).is_empty());
            assert!(scan("crates/server/src/bin/serve.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/server/src/server.rs", &in_test).is_empty());
        }
    }

    #[test]
    fn flags_unbounded_queues_in_server_outside_queue_rs() {
        let channel = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }\n";
        let deque = "fn f() { let q: std::collections::VecDeque<u32> = Default::default(); }\n";
        for src in [channel, deque] {
            let hits = scan("crates/server/src/server.rs", src);
            assert_eq!(hits.len(), 1, "{src}");
            assert_eq!(hits[0].rule, "unbounded-queue");
            assert!(scan("crates/server/src/queue.rs", src).is_empty());
            assert!(scan("crates/core/src/runtime.rs", src).is_empty());
        }
    }

    #[test]
    fn flags_a_second_pipeline_in_core() {
        let patterns = Patterns::new();
        let stage = |i: usize| format!("fn f() {{ staged({}, || ()); }}\n", patterns.stages[i]);
        let file = |rel: &str, src: String| (rel.to_string(), src);
        let once: String = (0..4).map(stage).collect();
        let one = vec![file("crates/core/src/runtime.rs", once.clone())];
        assert!(second_pipeline_findings(&one, &patterns).is_empty());

        // A second copy of one stage, even in another core file: both
        // sites are reported.
        let mut two = one.clone();
        two.push(file("crates/core/src/packed.rs", stage(2)));
        let hits = second_pipeline_findings(&two, &patterns);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| f.rule == "second-pipeline"));
        assert_eq!(hits[1].path, "crates/core/src/packed.rs");

        // Out of scope: other crates, tests, comments.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", stage(2));
        let comment = format!("// opens {}\n", patterns.stages[2]);
        for (rel, src) in [
            ("crates/bench/src/reports.rs", stage(2)),
            ("crates/core/src/packed.rs", in_test),
            ("crates/core/src/packed.rs", comment),
        ] {
            let mut files = one.clone();
            files.push(file(rel, src));
            assert!(second_pipeline_findings(&files, &patterns).is_empty());
        }

        // A stage that lost its report is a finding too.
        let three: String = (0..3).map(stage).collect();
        let hits =
            second_pipeline_findings(&[file("crates/core/src/runtime.rs", three)], &patterns);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].excerpt.contains("accumulate"));
    }

    #[test]
    fn flags_a_second_wire_dialect() {
        let patterns = Patterns::new();
        let [ge, lt, versioned, min] = &patterns.dialect;
        let srcs = [
            format!("fn f(version: u8) {{ if {ge} 5 {{}} }}\n"),
            format!("fn f(version: u8) {{ if {lt} 6 {{}} }}\n"),
            format!("fn f() {{ encode_frame{versioned}&frame, 5); }}\n"),
            format!("const OLDEST: u8 = {min};\n"),
        ];
        for src in &srcs {
            for rel in ["crates/core/src/wire.rs", "crates/server/src/transport.rs"] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "wire-dialect");
            }
            // Out of scope: other files, tests, comments.
            assert!(scan("crates/core/src/runtime.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/core/src/wire.rs", &in_test).is_empty());
            assert!(scan("crates/core/src/wire.rs", &format!("// {src}")).is_empty());
        }
        // Refusing every version but one is not a dialect.
        let single = "fn f(version: u8) -> bool { version != WIRE_VERSION }\n";
        assert!(scan("crates/core/src/wire.rs", single).is_empty());
    }

    #[test]
    fn flags_a_route_toggle_or_a_second_key_form() {
        let patterns = Patterns::new();
        let (setter, enabled) = &patterns.toggle;
        let [as_struct, mirror, digit_lift] = &patterns.second_form;
        let srcs = [
            format!("    {setter}eval_domain{enabled}&mut self, on: bool) {{}}\n"),
            format!("    {setter}ntt{enabled}&mut self, enabled: bool) {{}}\n"),
            format!("pub {as_struct} {{\n"),
            format!("    {mirror}: Option<Vec<Vec<(EvalPoly, EvalPoly)>>>,\n"),
            format!("    pub {digit_lift}&self, coeffs: &[u64], level: usize) -> EvalPoly {{\n"),
        ];
        for src in &srcs {
            let hits = scan("crates/fhe/src/bgv/scheme.rs", src);
            assert_eq!(hits.len(), 1, "{src}");
            assert_eq!(hits[0].rule, "route-toggle");
            // Out of scope: other crates, tests, comments.
            assert!(scan("crates/core/src/runtime.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/fhe/src/bgv/scheme.rs", &in_test).is_empty());
            assert!(scan("crates/fhe/src/bgv/scheme.rs", &format!("// {src}")).is_empty());
        }
        // What the crate does hold: a one-form enum, a crate-private
        // construction-time setter, the thread knob, and the one digit
        // transform, into the auxiliary basis.
        let fine = "pub enum KsKey {\n    Eval(Vec<Vec<(EvalPoly, EvalPoly)>>),\n}\n\
                    pub(crate) fn set_ntt_enabled(&mut self, enabled: bool) {}\n\
                    pub fn set_threads(&self, threads: usize) {}\n\
                    pub fn digit_to_aux(&self, aux: &AuxBasis, coeffs: &[u64]) -> EvalPoly {}\n";
        assert!(scan("crates/fhe/src/bgv/ring.rs", fine).is_empty());
    }

    #[test]
    fn flags_a_bit_reversal_pass_in_the_transform() {
        let patterns = Patterns::new();
        let [pass, table] = &patterns.bit_reversal;
        let srcs = [
            format!("    {pass}&self, a: &mut [u64]) {{\n"),
            format!("    {table}: Vec<u32>,\n"),
            format!("            let j = self.{table}[i] as usize;\n"),
        ];
        for src in &srcs {
            let hits = scan("crates/fhe/src/math/ntt.rs", src);
            assert_eq!(hits.len(), 1, "{src}");
            assert_eq!(hits[0].rule, "route-toggle");
            // Out of scope: other files, tests, comments.
            assert!(scan("crates/fhe/src/bgv/ring.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/fhe/src/math/ntt.rs", &in_test).is_empty());
            assert!(scan("crates/fhe/src/math/ntt.rs", &format!("// {src}")).is_empty());
        }
        // What the file does hold: per-stage twiddle runs, read in place.
        let fine = "    fn stage(&self, h: usize) -> (&[u64], &[u64]) {\n\
                    let (w, ws) = self.fwd.stage(h);\n";
        assert!(scan("crates/fhe/src/math/ntt.rs", fine).is_empty());
    }

    #[test]
    fn flags_a_second_circuit_model() {
        let patterns = Patterns::new();
        let [inputs, ours, depth, formulas @ .., replay] = &patterns.circuit_model;
        let variant = &patterns.comparator;
        let mut srcs = vec![
            format!("pub {inputs} {{\n"),
            format!("pub {ours} {{\n"),
            format!("    pub {depth}inputs: &CostInputs) -> u32 {{\n"),
            format!("{replay}<'a> {{\n"),
            // A comparator arm, and each way to drop its prefix.
            format!("            {variant}::LadderPrefix => (1..p)\n"),
            format!("    use crate::seccomp::{variant}::*;\n"),
            format!("use copse_core::seccomp::{variant}::{{LadderPrefix, Tree}};\n"),
            format!("use crate::seccomp::{variant}::LadderPrefix;\n"),
            format!("use crate::seccomp::{variant} as Comparator;\n"),
            format!("impl fmt::Display for {variant} {{\n"),
        ];
        srcs.extend(
            formulas
                .iter()
                .map(|f| format!("{f}d: u32) -> OpCounts {{\n")),
        );
        for src in &srcs {
            for rel in [
                "crates/core/src/complexity.rs",
                "crates/bench/src/reports.rs",
            ] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "one-circuit-model");
            }
            // Out of scope: the facade, tests, comments.
            assert!(scan("src/lib.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/core/src/complexity.rs", &in_test).is_empty());
            assert!(scan("crates/core/src/complexity.rs", &format!("// {src}")).is_empty());
        }
        // The comparator's own file matches on its variants.
        for arm in &srcs[4..10] {
            assert_eq!(scan("crates/core/src/seccomp.rs", arm), vec![]);
        }
        // What the workspace does hold: the paper's printed forms, the
        // analyzer's report and its comparison-stage run, and a
        // variant named without a match arm.
        let fine = "pub mod paper {}\n\
                    let tree = seccomp(p, ModelForm::Encrypted, SecCompVariant::Tree);\n\
                    use crate::seccomp::{secure_less_than, SecCompVariant};\n\
                    comparator: SecCompVariant::default(),\n\
                    pub fn seccomp_counts(p: u32) -> OpCounts {}\n\
                    pub fn level_counts(b: usize) -> OpCounts {}\n\
                    pub fn from_meta(meta: &ModelMeta) -> CircuitReport {}\n\
                    pub fn seccomp(p: u32, form: ModelForm) -> StagePrediction {}\n";
        assert!(scan("crates/core/src/complexity.rs", fine).is_empty());
    }

    #[test]
    fn flags_a_block_rotation_layout() {
        // Block-layout definitions: trait and backend methods, and a
        // generic BGV kernel.
        let [rotate, extend, truncate, _] = &Patterns::new().block_layout;
        let srcs = [
            format!("    {rotate}(\n"),
            format!("    {extend}(\n"),
            format!("    {truncate}(\n"),
            format!("pub(crate) {rotate}<S: SlotOps>(\n"),
        ];
        for src in &srcs {
            for rel in ["crates/fhe/src/backend.rs", "crates/core/src/matmul.rs"] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "block-layout");
            }
            // Out of scope: the facade, tests, comments.
            assert!(scan("src/lib.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/fhe/src/clear.rs", &in_test).is_empty());
            assert!(scan("crates/fhe/src/clear.rs", &format!("// {src}")).is_empty());
        }
        // What the crates do hold: packing, unpacking, the whole-vector
        // rotation, the ring product, and longer names.
        let fine = "    fn pack_blocks(\n\
                    fn unpack_block(\n\
                    fn rotate(&self, a: &Self::Ciphertext, k: isize) -> Self::Ciphertext;\n\
                    fn ring_mat_vec(\n\
                    fn rotate_blocks_rotates_every_block() {}\n";
        assert!(scan("crates/fhe/src/backend.rs", fine).is_empty());
    }

    #[test]
    fn flags_width_reconciliation() {
        // A cyclic extension on the backend trait, on a backend, on
        // `BitVec`, or as a generic kernel.
        let extend = &Patterns::new().block_layout[3];
        let srcs = [
            format!(
                "    {extend}(&self, a: &Self::Ciphertext, width: usize) -> Self::Ciphertext;\n"
            ),
            format!(
                "    {extend}(&self, a: &ClearCiphertext, width: usize) -> ClearCiphertext {{\n"
            ),
            format!("    pub {extend}(&self, new_width: usize) -> Self {{\n"),
            format!("pub(crate) {extend}<S: SlotOps>(ops: &S, a: &S::Ct) -> S::Ct {{\n"),
        ];
        for src in &srcs {
            for rel in [
                "crates/fhe/src/backend.rs",
                "crates/fhe/src/bitvec.rs",
                "crates/core/src/matmul.rs",
            ] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "block-layout");
            }
            // Out of scope: the facade, tests, comments.
            assert!(scan("src/lib.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/fhe/src/bitvec.rs", &in_test).is_empty());
            assert!(scan("crates/fhe/src/bitvec.rs", &format!("// {src}")).is_empty());
        }
        // What the crates do hold: `BitVec`'s prefix, the ring product
        // and longer names.
        let fine = "    pub fn truncate(&self, new_width: usize) -> Self {}\n\
                    fn ring_mat_vec(\n\
                    fn cyclic_extended_width() {}\n";
        assert!(scan("crates/fhe/src/bitvec.rs", fine).is_empty());
    }

    #[test]
    fn flags_a_backend_that_cannot_rotate() {
        // A rotation probe, its admission verdict and wire code, and
        // the per-bit backend's definition and re-export.
        let [probe, verdict, per_bit] = &Patterns::new().rotationless;
        let srcs = [
            format!("    {probe}&self) -> bool {{\n"),
            format!("    {verdict} {{ rotations: u64 }},\n"),
            format!("            RejectionCode::{verdict} => 2,\n"),
            format!("pub struct {per_bit} {{\n"),
            format!("pub use negacyclic::{{{per_bit}, NegacyclicCiphertext}};\n"),
        ];
        for src in &srcs {
            for rel in ["crates/fhe/src/backend.rs", "crates/core/src/wire.rs"] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "every-backend-rotates");
            }
            // Out of scope: the facade, tests, comments.
            assert!(scan("src/lib.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/fhe/src/backend.rs", &in_test).is_empty());
            assert!(scan("crates/fhe/src/backend.rs", &format!("// {src}")).is_empty());
        }
        // What the crates do hold: the negacyclic ring flavor, the
        // scheme's typed refusal to rotate on it, and the slot probe.
        let fine = "pub fn new_negacyclic(m: usize, primes: Vec<u64>) -> Self {}\n\
                    RingFlavor::NegacyclicPow2 => {}\n\
                    pub fn try_rotate_slots(&self, a: &Ciphertext, k: isize) {}\n\
                    fn slot_capacity(&self) -> Option<usize>;\n\
                    SlotCapacityExceeded { required: usize, available: usize },\n";
        assert!(scan("crates/fhe/src/bgv/scheme.rs", fine).is_empty());
    }

    #[test]
    fn flags_a_per_term_product_in_bgv() {
        // The per-term product, as the trait declared it and as a
        // backend defined it.
        let per_term = &Patterns::new().per_term_product;
        let srcs = [
            format!("    {per_term}&self, a: &Self::Ct, b: &Self::Operand) -> Self::Ct;\n"),
            format!(
                "    {per_term}&self, a: &Level, b: &MaybeEncrypted<ClearBackend>) -> Level {{\n"
            ),
        ];
        for src in &srcs {
            for rel in [
                "crates/fhe/src/bgv/backend.rs",
                "crates/fhe/src/bgv/level.rs",
            ] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "products-accumulate");
            }
            // Out of scope: other crates and modules, tests, comments.
            assert!(scan("crates/fhe/src/clear.rs", src).is_empty());
            assert!(scan("crates/core/src/matmul.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/fhe/src/bgv/backend.rs", &in_test).is_empty());
            assert!(scan("crates/fhe/src/bgv/backend.rs", &format!("// {src}")).is_empty());
        }
        // What the BGV code does hold: the accumulate/finish pair and
        // longer names.
        let fine = "    fn mul_add(&self, sum: &mut Self::Sum, a: &Self::Factor, b: &Self::Operand);\n\
                    fn finish(&self, sum: Self::Sum) -> Self::Ct;\n\
                    pub(crate) fn product_sum(&self, primes: usize, tensor: bool) -> ProductSum {}\n\
                    pub(crate) fn ring_products<S>(\n";
        assert!(scan("crates/fhe/src/bgv/backend.rs", fine).is_empty());
    }

    #[test]
    fn flags_a_second_counter_rendering_in_the_server() {
        // The hand-laid-out page, as a method and as a generic helper.
        let view = &Patterns::new().counter_view;
        let srcs = [
            format!("    pub {view}(&self) -> String {{\n"),
            format!("pub(crate) {view}<W: Write>(out: &mut W, s: &StatsSnapshot) {{\n"),
        ];
        for src in &srcs {
            for rel in ["crates/server/src/stats.rs", "crates/server/src/metrics.rs"] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "one-counter-view");
            }
            // Out of scope: other crates, tests, comments.
            assert!(scan("crates/core/src/leakage.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/server/src/stats.rs", &in_test).is_empty());
            assert!(scan("crates/server/src/stats.rs", &format!("// {src}")).is_empty());
        }
        // What the server does hold: the exposition, its parser, and
        // longer names.
        let fine = format!(
            "pub fn render_exposition(snapshot: &StatsSnapshot) -> String {{}}\n\
             pub fn parse_exposition(text: &str) -> Result<Exposition, String> {{}}\n\
             {view}_sample() {{}}\n"
        );
        assert!(scan("crates/server/src/metrics.rs", &fine).is_empty());
    }

    #[test]
    fn flags_a_process_wide_tally() {
        // The collector's drain and switch anywhere in a crate, and
        // the worker tallies in the pool.
        let patterns = Patterns::new();
        let [drain, switch] = &patterns.global_collector;
        let counters = &patterns.pool_counters;
        let srcs = [
            format!("pub {drain}) -> Vec<TraceEvent> {{\n"),
            format!("pub {switch}enabled: bool) {{\n"),
        ];
        for src in &srcs {
            for rel in [
                "crates/trace/src/lib.rs",
                "crates/pool/src/lib.rs",
                "crates/server/src/server.rs",
            ] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "scoped-observability");
            }
            // Out of scope: the facade, tests, comments.
            assert!(scan("src/lib.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/trace/src/lib.rs", &in_test).is_empty());
            assert!(scan("crates/trace/src/lib.rs", &format!("// {src}")).is_empty());
        }
        let tally = format!("{counters} {{\n");
        let hits = scan("crates/pool/src/lib.rs", &tally);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "scoped-observability");
        assert!(scan("crates/server/src/stats.rs", &tally).is_empty());
        // What the workspace does hold: the scoped surfaces and
        // longer names.
        let fine = "pub fn stage_nanos(&self) -> [u64; 4] {}\n\
                    pub fn chrome_events(&self) -> Vec<TraceEvent> {}\n\
                    pub(crate) fn set_ntt_enabled(&mut self, enabled: bool) {}\n\
                    fn take_events_from(log: &mut Log) {}\n";
        assert!(scan("crates/trace/src/lib.rs", fine).is_empty());
    }

    #[test]
    fn flags_a_third_backend() {
        // A backend implementation, plain and generic.
        let backend = &Patterns::new().backend_impl;
        let srcs = [
            format!("impl {backend}ShapeBackend {{\n"),
            format!("impl<B: FheBackend> {backend}Traced<B> {{\n"),
        ];
        for src in &srcs {
            for rel in ["crates/fhe/src/bgv/level.rs", "crates/core/src/analyze.rs"] {
                let hits = scan(rel, src);
                assert_eq!(hits.len(), 1, "{rel}: {src}");
                assert_eq!(hits[0].rule, "two-backends");
            }
            // Out of scope: the two backends' files, the facade, tests,
            // comments.
            assert!(scan("crates/fhe/src/clear.rs", src).is_empty());
            assert!(scan("crates/fhe/src/bgv/backend.rs", src).is_empty());
            assert!(scan("src/lib.rs", src).is_empty());
            let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(scan("crates/core/src/analyze.rs", &in_test).is_empty());
            assert!(scan("crates/core/src/analyze.rs", &format!("// {src}")).is_empty());
        }
        // What the crates do hold: generic code over a backend and
        // impls of other traits for types generic in one.
        let fine = "impl<'b, B: FheBackend> Sally<'b, B> {\n\
                    impl<B: FheBackend> Clone for MaybeEncrypted<B> {\n\
                    fn run<B: FheBackend>(be: &B) {}\n";
        assert!(scan("crates/core/src/runtime.rs", fine).is_empty());
    }

    /// The invariant the linter exists to keep: the workspace itself
    /// must scan clean.
    #[test]
    fn workspace_is_clean() {
        let (findings, scanned) = scan_workspace(&workspace_root());
        assert!(scanned > 20, "expected a real scan, saw {scanned} files");
        assert!(
            findings.is_empty(),
            "lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
