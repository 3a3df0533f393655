//! `cargo xtask` — workspace task runner.
//!
//! The main task is `audit`: a dependency-free static-analysis pass
//! over the workspace sources enforcing the repo's three standing
//! invariants (see DESIGN.md, "Static analysis & invariants"):
//!
//! 1. **Panic-freedom** in the analysis crates (`dnc-num`, `dnc-curves`,
//!    `dnc-core`, `dnc-net`, `dnc-telemetry`): no `.unwrap()` /
//!    `.expect()` / panicking macros / indexing outside `#[cfg(test)]`
//!    code, unless the site carries an
//!    `// audit: allow(<lint>, <reason>)` annotation.
//! 2. **Exactness**: the `f64`/`f32` types appear only in whitelisted
//!    reporting/plotting modules; everything else computes in `Rat`.
//! 3. **Shape contracts**: every `pub fn` in `dnc-curves` / `dnc-core`
//!    that takes or returns a `Curve` documents its shape precondition
//!    (concave / convex / nondecreasing / ...).
//!
//! Usage: `cargo xtask audit [--json]`. Exit code 1 when findings exist,
//! so CI can gate on it. `--json` prints the stable machine-readable
//! report that `results/audit-baseline.json` is a snapshot of.
//!
//! Sibling tasks check emitted telemetry artifacts against their
//! schemas: `cargo xtask validate-metrics <file>...` and
//! `cargo xtask validate-trace <file>...` (CI runs both on the
//! `dnc profile` smoke outputs), plus
//! `cargo xtask validate-bench [--shape] <file>...` for the
//! `dnc-bench/v1` perf trajectories that `dnc bench` appends (see
//! DESIGN §15). `cargo xtask counters <file>` prints a metrics
//! document's work counters as sorted JSON, one per line, so CI can diff
//! them exactly against `results/profile-counters-t6.json`.

mod deepcheck;
mod index;
mod lexer;
mod lints;
mod report;
mod scan;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{AllowRecord, Finding};
use scan::ScannedFile;

/// Crates whose `src/` trees must be panic-free (L1).
const ANALYSIS_SRC: &[&str] = &[
    "crates/num/src",
    "crates/curves/src",
    "crates/core/src",
    "crates/net/src",
    "crates/telemetry/src",
    "crates/service/src",
];

/// Crates whose public `Curve` API must document shape preconditions (L3).
const SHAPE_DOC_SRC: &[&str] = &["crates/curves/src", "crates/core/src"];

/// Files where `f64` is legitimate: lossy conversion for plotting/CSV.
const FLOAT_WHITELIST: &[&str] = &[
    "crates/num/src/rat.rs",     // Rat::to_f64 — the one sanctioned exit
    "crates/core/src/report.rs", // human-readable report rendering
    "crates/bench/src/chart.rs", // SVG chart geometry
    // Telemetry is reporting-side by design: wall-clock durations and
    // gauge samples are lossy and never feed back into the Rat analysis.
    "crates/telemetry/src/snapshot.rs",
    "crates/telemetry/src/record.rs",
    "crates/telemetry/src/export.rs",
    "crates/telemetry/src/json.rs",
    // Admissions/sec and acks/sec reporting — rates are lossy, never
    // feed back into the Rat analysis.
    "crates/bench/src/throughput.rs",
    "crates/bench/src/socket.rs",
    // The perf-trajectory layer is reporting-side end to end: records,
    // gate math, and dashboard charts consume already-lossy measurements
    // and never feed back into the Rat analysis.
    "crates/bench/src/trajectory.rs",
    "crates/bench/src/dashboard.rs",
    "crates/bench/src/runner.rs",
];

/// Directory trees never scanned (`fixtures` is the deepcheck lint
/// corpus: deliberately seeded findings, exercised only by unit tests).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "results", "docs", "fixtures"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("usage: cargo xtask <audit [--json] | deepcheck [--json] | validate-metrics <file>... | validate-trace <file>... | validate-bench [--shape] <file>... | counters <file>>");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "audit" | "deepcheck" => {
            let json = flags.iter().any(|f| f == "--json");
            if let Some(bad) = flags.iter().find(|f| *f != "--json") {
                eprintln!("xtask {cmd}: unknown flag `{bad}`");
                return ExitCode::FAILURE;
            }
            if cmd == "audit" {
                audit(json)
            } else {
                deepcheck_cmd(json)
            }
        }
        "validate-metrics" => validate_files(cmd, flags, dnc_telemetry::schema::validate_metrics),
        "validate-trace" => validate_files(cmd, flags, dnc_telemetry::schema::validate_trace),
        "validate-bench" => {
            let shape = flags.iter().any(|f| f == "--shape");
            let paths: Vec<String> = flags.iter().filter(|f| *f != "--shape").cloned().collect();
            if shape {
                shape_files(&paths)
            } else {
                validate_files(cmd, &paths, dnc_telemetry::schema::validate_bench)
            }
        }
        "counters" => counters_cmd(flags),
        other => {
            eprintln!(
                "xtask: unknown task `{other}` (tasks: audit, deepcheck, validate-metrics, validate-trace, validate-bench, counters)"
            );
            ExitCode::FAILURE
        }
    }
}

/// `validate-bench --shape`: print each file's last-record shape (sorted
/// `key: type` lines), so CI can diff an appended record against the
/// committed example without comparing values.
fn shape_files(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: cargo xtask validate-bench [--shape] <file>...");
        return ExitCode::FAILURE;
    }
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::FAILURE;
            }
        };
        match dnc_telemetry::schema::bench_record_shape(&text) {
            Ok(shape) => print!("{shape}"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `counters <file>`: print the document's counter map.
fn counters_cmd(paths: &[String]) -> ExitCode {
    let [path] = paths else {
        eprintln!("usage: cargo xtask counters <metrics.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            return ExitCode::FAILURE;
        }
    };
    match counters_json(&text) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `counters` object of a `dnc-metrics/v1` document as JSON with one
/// `"name": value` entry per line, in name order.
fn counters_json(text: &str) -> Result<String, String> {
    let doc = dnc_telemetry::json::parse(text).map_err(|e| format!("{e:?}"))?;
    let counters = doc
        .get("counters")
        .and_then(|c| c.as_object())
        .ok_or("no `counters` object")?;
    let mut lines = Vec::with_capacity(counters.len());
    for (name, value) in counters {
        let n = value
            .as_number()
            .ok_or_else(|| format!("counter `{name}` is not a number"))?;
        lines.push(format!("  \"{name}\": {n}"));
    }
    Ok(format!("{{\n{}\n}}\n", lines.join(",\n")))
}

/// Run a schema validator over each listed file; report per-file results
/// and fail if any file is missing, unreadable, or invalid.
fn validate_files(
    task: &str,
    paths: &[String],
    validate: fn(&str) -> Result<(), String>,
) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: cargo xtask {task} <file>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(text) => match validate(&text) {
                Ok(()) => println!("{path}: ok"),
                Err(e) => {
                    eprintln!("{path}: INVALID: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn audit(json: bool) -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "examples", "tests"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();

    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<AllowRecord> = Vec::new();
    let mut scanned = 0usize;

    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(path) else {
            eprintln!("xtask audit: skipping unreadable file {rel}");
            continue;
        };
        scanned += 1;
        let file = ScannedFile::new(rel.clone(), source);

        if ANALYSIS_SRC.iter().any(|p| rel.starts_with(p)) {
            lints::lint_panic_family(&file, &mut findings);
        }
        if float_lint_applies(&rel) {
            lints::lint_float(&file, &mut findings);
        }
        if SHAPE_DOC_SRC.iter().any(|p| rel.starts_with(p)) {
            lints::lint_doc_shape(&file, &mut findings);
        }
        // Escape-hatch hygiene runs last so `used` flags reflect all
        // passes. The audit owns its own lint names (deepcheck allows in
        // the same file are that task's business) and is the one pass
        // that flags unrecognized lint names.
        lints::lint_stale_allows(&file, &mut findings, lints::AUDIT_LINTS, true);

        for a in &file.allows {
            if a.used.get() {
                allows.push(AllowRecord {
                    lint: a.lint.clone(),
                    file: rel.clone(),
                    line: a.line,
                    reason: a.reason.clone(),
                });
            }
        }
    }

    report::sort_findings(&mut findings);
    report::sort_allows(&mut allows);

    if json {
        print!("{}", report::to_json(&findings, &allows, scanned));
    } else {
        report::print_text("audit", &findings, &allows, scanned);
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `cargo xtask deepcheck [--json]` — the cross-file determinism /
/// concurrency / durability / contract passes. Unlike `audit`, every
/// file is scanned up front so the symbol index sees the whole
/// workspace before any lint runs.
fn deepcheck_cmd(json: bool) -> ExitCode {
    let root = workspace_root();
    let mut paths = Vec::new();
    for top in ["crates", "examples", "tests"] {
        collect_rs(&root.join(top), &mut paths);
    }
    paths.sort();

    let mut files = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(path) else {
            eprintln!("xtask deepcheck: skipping unreadable file {rel}");
            continue;
        };
        files.push(ScannedFile::new(rel, source));
    }
    let scanned = files.len();

    let mut findings = deepcheck::run(&files);
    let mut allows: Vec<AllowRecord> = Vec::new();
    for file in &files {
        lints::lint_stale_allows(file, &mut findings, deepcheck::DEEPCHECK_LINTS, false);
        for a in &file.allows {
            if a.used.get() && deepcheck::DEEPCHECK_LINTS.contains(&a.lint.as_str()) {
                allows.push(AllowRecord {
                    lint: a.lint.clone(),
                    file: file.path.clone(),
                    line: a.line,
                    reason: a.reason.clone(),
                });
            }
        }
    }

    report::sort_findings(&mut findings);
    report::sort_allows(&mut allows);

    if json {
        print!("{}", report::to_json(&findings, &allows, scanned));
    } else {
        report::print_text("deepcheck", &findings, &allows, scanned);
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The float lint covers every first-party `src/` tree (the xtask itself
/// included) but not integration-test or bench directories, and not the
/// whitelisted reporting modules.
fn float_lint_applies(rel: &str) -> bool {
    if FLOAT_WHITELIST.contains(&rel) {
        return false;
    }
    // Integration tests / benches may compare against floats freely.
    !rel.split('/').any(|seg| seg == "tests" || seg == "benches")
}

/// Recursively collect `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace root: `CARGO_MANIFEST_DIR/../..` when run via cargo, else cwd.
fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(root) = p.ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::counters_json;

    #[test]
    fn counters_print_sorted_one_per_line() {
        let doc = r#"{"schema": "dnc-metrics/v1", "counters": {"b/x": 3, "a/y": 10}}"#;
        assert_eq!(
            counters_json(doc).unwrap(),
            "{\n  \"a/y\": 10,\n  \"b/x\": 3\n}\n"
        );
        assert!(counters_json(r#"{"spans": {}}"#).is_err());
    }
}
