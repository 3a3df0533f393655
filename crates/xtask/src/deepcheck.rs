//! The `deepcheck` lint families: cross-file determinism, concurrency,
//! durability, and contract checks built on the [`SymbolIndex`].
//!
//! Where `audit` enforces *local* invariants (no panics, no floats),
//! `deepcheck` enforces the repo's *global* promises:
//!
//! | family        | lints                                   | invariant protected                         |
//! |---------------|-----------------------------------------|---------------------------------------------|
//! | determinism   | `det-hash-iter`, `det-wall-clock`       | bit-identical reports across worker counts  |
//! | concurrency   | `conc-thread-local`, `conc-panic-payload` | `fan_out` jobs stay thread-local-clean    |
//! | durability    | `dur-fsync`, `dur-framing`, `dur-group-ack`, `dur-atomic-publish` | fsync-before-ack; single-sourced framing; commit-dominated ack sink; crash-atomic snapshot publish |
//! | contract      | `contract-exit`, `contract-span`, `contract-curve-eq` | unified exit codes; RAII spans held open; canonical curve equality |
//! | hermeticity   | `test-scratch-path`                     | every temporary path comes from `ScratchDir` |
//!
//! All passes share the `// audit: allow(<lint>, <reason>)` escape hatch,
//! but deepcheck lints must be named explicitly — blanket `allow(all)`
//! does not apply (see [`ScannedFile::allowed_named`]). Soundness limits
//! of the name-based reachability are documented in DESIGN §14.

use crate::index::{self, SymbolIndex};
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::scan::ScannedFile;
use std::collections::BTreeSet;
use std::ops::Range;

/// Every lint name deepcheck owns (for allow-hygiene bookkeeping).
pub const DEEPCHECK_LINTS: &[&str] = &[
    "det-hash-iter",
    "det-wall-clock",
    "conc-thread-local",
    "conc-panic-payload",
    "dur-fsync",
    "dur-framing",
    "dur-group-ack",
    "dur-atomic-publish",
    "contract-exit",
    "contract-span",
    "contract-curve-eq",
    "test-scratch-path",
];

/// Files whose functions are *emit roots*: anything reachable from them
/// ends up in a report, an export, a chart, or the durable journal, so
/// iteration order and wall-clock reads become output.
const EMIT_ROOT_FILES: &[&str] = &[
    "/report.rs",
    "/export.rs",
    "/journal.rs",
    "/chart.rs",
    "/snapshot.rs",
    "/engine.rs",
    "/serve.rs",
    "/json.rs",
];

/// Function names that are emit roots wherever they are defined.
const EMIT_ROOT_FNS: &[&str] = &["encode", "to_json"];

/// Hash-collection methods whose results depend on hash order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Wall-clock reads are this module's entire purpose (span timing); its
/// outputs are durations, not analysis results.
const WALL_CLOCK_EXEMPT: &[&str] = &["crates/telemetry/src/record.rs"];

/// Files allowed to touch the `limits` thread-local machinery: the
/// snapshot/reinstall protocol itself, the stack it manages, and the
/// telemetry sink (whose thread-local buffer is per-thread by design).
const THREAD_LOCAL_HOME: &[&str] = &[
    "crates/core/src/par.rs",
    "crates/curves/src/limits.rs",
    "crates/telemetry/src/record.rs",
];

/// The durability lints only apply to the service crate's sources.
const DURABILITY_SRC: &str = "crates/service/";

/// The one file allowed to define the journal framing constants.
const FRAMING_HOME: &str = "crates/service/src/journal.rs";

/// Functions that deliver acknowledgement lines to clients. Every call
/// site must be *dominated* by a journal commit — an earlier call in
/// the same body that (transitively) reaches one of [`COMMIT_CALLS`].
const ACK_SINKS: &[&str] = &["send_acks"];

/// Calls that make queued operations durable: the WAL appends (which
/// fsync internally) and the raw fsync primitives themselves.
const COMMIT_CALLS: &[&str] = &["append", "append_batch", "sync_data", "sync_all"];

/// The deepcheck tool itself mentions the framing needles (below) and
/// must not flag its own configuration.
const SELF_SRC: &str = "crates/xtask/";

/// The journal magic marker (as a substring of a string/byte literal).
const MAGIC_NEEDLE: &str = "DNCJ1";

/// The CRC-32 reflected polynomial, normalized (lowercase, no `_`).
const CRC_NEEDLE: &str = "0xedb88320";

/// The one file allowed to define exit-code integer constants.
const EXIT_TABLE: &str = "crates/bench/src/exit.rs";

/// The one type whose `impl` blocks may call `temp_dir()`.
const SCRATCH_TYPE: &str = "ScratchDir";

/// Run every deepcheck pass over `files` and return the findings
/// (unsorted; the caller sorts alongside allow records).
pub fn run(files: &[ScannedFile]) -> Vec<Finding> {
    let idx = SymbolIndex::build(files);
    let mut out = Vec::new();
    lint_determinism(files, &idx, &mut out);
    lint_conc_thread_local(files, &idx, &mut out);
    lint_conc_panic_payload(files, &idx, &mut out);
    lint_dur_fsync(files, &idx, &mut out);
    lint_dur_framing(files, &mut out);
    lint_dur_group_ack(files, &idx, &mut out);
    lint_dur_atomic_publish(files, &idx, &mut out);
    lint_contract_exit(files, &mut out);
    lint_contract_span(files, &mut out);
    lint_contract_curve_eq(files, &mut out);
    lint_test_scratch_path(files, &mut out);
    // Distinct passes can rediscover the same site (e.g. two fan_out
    // call sites reaching one bad function); report each site once.
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint.as_str(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.lint.as_str(),
            b.message.as_str(),
        ))
    });
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.lint == b.lint);
    out
}

/// Paths deepcheck scans: first-party `src/` trees. Integration tests,
/// benches, examples, and the lint fixture corpus are out of scope.
fn in_scope(path: &str) -> bool {
    !path
        .split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples" | "fixtures"))
}

/// Emit a finding unless the line is test code or carries a *named*
/// allow (blanket `all` does not satisfy deepcheck lints).
fn emit(file: &ScannedFile, out: &mut Vec<Finding>, line: usize, lint: &str, message: String) {
    if !file.line_in_test(line) {
        emit_in_tests_too(file, out, line, lint, message);
    }
}

/// [`emit`] for the lints that police test code itself.
fn emit_in_tests_too(
    file: &ScannedFile,
    out: &mut Vec<Finding>,
    line: usize,
    lint: &str,
    message: String,
) {
    if file.allowed_named(line, lint) {
        return;
    }
    out.push(Finding {
        lint: lint.to_string(),
        file: file.path.clone(),
        line,
        message,
        snippet: file.snippet(line).to_string(),
    });
}

/// `toks[i]` and `toks[i+1]` form a `::` path separator.
fn path_sep(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(':')) && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

// ---------------------------------------------------------------------------
// Determinism: det-hash-iter, det-wall-clock
// ---------------------------------------------------------------------------

/// Definition indices of the emit roots.
fn emit_roots(idx: &SymbolIndex) -> Vec<usize> {
    idx.fns
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            let path = idx.files[d.file].path.as_str();
            in_scope(path)
                && !d.is_test
                && (EMIT_ROOT_FILES.iter().any(|s| path.ends_with(s))
                    || EMIT_ROOT_FNS.contains(&d.name.as_str()))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Names bound to `HashMap`/`HashSet` values in this file: type
/// annotations (`name: HashMap<…>`, struct fields, params) and direct
/// constructor assignments (`let name = HashMap::new()`).
fn hash_typed_names(file: &ScannedFile) -> BTreeSet<String> {
    let toks = &file.tokens;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back over `std :: collections ::` style path prefixes and
        // the annotation colon to the token that introduces the type.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            let is_path_bit = p.is_punct(':')
                || p.is_punct('&')
                || p.is_ident("mut")
                || p.kind == TokenKind::Lifetime
                || p.is_ident("std")
                || p.is_ident("collections")
                || p.is_ident("hash_map")
                || p.is_ident("hash_set");
            if is_path_bit {
                j -= 1;
            } else {
                break;
            }
        }
        let Some(p) = j.checked_sub(1).map(|p| &toks[p]) else {
            continue;
        };
        match (p.kind == TokenKind::Ident, p.text.as_str()) {
            // `name: HashMap<…>` — annotation on a let/field/param.
            (true, name) if !index::KEYWORDS.contains(&name) => {
                names.insert(name.to_string());
            }
            // `let name = HashMap::new()` / `with_capacity(…)`.
            (false, "=") => {
                if let Some(name) = j
                    .checked_sub(2)
                    .map(|p| &toks[p])
                    .filter(|t| t.kind == TokenKind::Ident)
                {
                    names.insert(name.text.clone());
                }
            }
            _ => {}
        }
    }
    names
}

/// Is the token at `i` inside a non-test function reachable from the
/// emit roots?
fn on_emit_path(idx: &SymbolIndex, fi: usize, i: usize, reach: &[bool]) -> bool {
    idx.enclosing_fn(fi, i)
        .is_some_and(|d| reach[d] && !idx.fns[d].is_test)
}

fn lint_determinism(files: &[ScannedFile], idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let reach = idx.reachable(&emit_roots(idx));
    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.path) {
            continue;
        }
        let hash_names = hash_typed_names(file);
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            // `Instant::now()` / `SystemTime::now()`.
            if (t.is_ident("Instant") || t.is_ident("SystemTime"))
                && path_sep(toks, i + 1)
                && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
                && !WALL_CLOCK_EXEMPT.contains(&file.path.as_str())
                && on_emit_path(idx, fi, i, &reach)
            {
                emit(
                    file,
                    out,
                    t.line,
                    "det-wall-clock",
                    format!(
                        "`{}::now()` on a path reachable from report/journal emission makes \
                         output depend on wall-clock time",
                        t.text
                    ),
                );
            }
            // `name.iter()` / `name.keys()` / … on a hash-typed binding.
            if t.kind == TokenKind::Ident
                && HASH_ITER_METHODS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && i >= 2
                && toks[i - 1].is_punct('.')
                && toks[i - 2].kind == TokenKind::Ident
                && hash_names.contains(&toks[i - 2].text)
                && on_emit_path(idx, fi, i, &reach)
            {
                emit(
                    file,
                    out,
                    t.line,
                    "det-hash-iter",
                    format!(
                        "`.{}()` iterates hash-ordered `{}` on a path reachable from \
                         report/journal emission; use an ordered collection or sort first",
                        t.text,
                        toks[i - 2].text
                    ),
                );
            }
            // `for pat in [&]name { … }` over a hash-typed binding.
            if t.is_ident("for") {
                if let Some((line, name)) = for_loop_over(toks, i, &hash_names) {
                    if on_emit_path(idx, fi, i, &reach) {
                        emit(
                            file,
                            out,
                            line,
                            "det-hash-iter",
                            format!(
                                "`for … in {name}` iterates a hash-ordered collection on a path \
                                 reachable from report/journal emission; use an ordered \
                                 collection or sort first"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// If `toks[for_at]` heads a `for pat in [&]name {` loop whose iterated
/// binding is hash-typed, return `(line, name)`.
fn for_loop_over(
    toks: &[Token],
    for_at: usize,
    hash_names: &BTreeSet<String>,
) -> Option<(usize, String)> {
    // Locate `in` at bracket depth 0 (the pattern may contain `(a, b)`).
    let mut depth = 0i64;
    let mut j = for_at + 1;
    let mut in_at = None;
    while j < toks.len() && j < for_at + 40 {
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => break, // body started without `in`: not a for-loop head
                _ => {}
            }
        } else if t.is_ident("in") && depth == 0 {
            in_at = Some(j);
            break;
        }
        j += 1;
    }
    let mut k = in_at? + 1;
    while toks
        .get(k)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        k += 1;
    }
    if toks.get(k).is_some_and(|t| t.is_ident("self"))
        && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
    {
        k += 2;
    }
    let name = toks.get(k).filter(|t| t.kind == TokenKind::Ident)?;
    // Method chains (`name.keys()`) are handled by the method pattern.
    let body_next = toks.get(k + 1).is_some_and(|t| t.is_punct('{'));
    (body_next && hash_names.contains(&name.text)).then(|| (name.line, name.text.clone()))
}

// ---------------------------------------------------------------------------
// Concurrency: conc-thread-local, conc-panic-payload
// ---------------------------------------------------------------------------

/// Top-level argument ranges of a call whose `(` is at `open`.
fn call_args(toks: &[Token], open: usize) -> Option<Vec<Range<usize>>> {
    let mut depth = 0i64;
    let mut args = Vec::new();
    let mut start = open + 1;
    let mut k = open;
    while let Some(t) = toks.get(k) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        if start < k {
                            args.push(start..k);
                        }
                        return Some(args);
                    }
                }
                "," if depth == 1 => {
                    args.push(start..k);
                    start = k + 1;
                }
                _ => {}
            }
        }
        k += 1;
    }
    None
}

/// Thread-local touches inside a token range: `limits::install` /
/// `limits::current` (stack management belongs to `fan_out` alone),
/// `thread_local!` declarations, and `STATIC.with(…)` accesses.
fn thread_local_touches(toks: &[Token], range: Range<usize>) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    for i in range {
        let Some(t) = toks.get(i) else { break };
        if t.is_ident("limits")
            && path_sep(toks, i + 1)
            && toks
                .get(i + 3)
                .is_some_and(|n| n.is_ident("install") || n.is_ident("current"))
        {
            hits.push((
                t.line,
                format!(
                    "`limits::{}` re-enters the budget thread-local stack; only `fan_out` \
                     itself may snapshot/reinstall it",
                    toks[i + 3].text
                ),
            ));
        }
        if t.is_ident("thread_local") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            hits.push((
                t.line,
                "declares a thread-local inside code reachable from a `fan_out` job".to_string(),
            ));
        }
        let all_caps = t.kind == TokenKind::Ident
            && t.text.len() > 1
            && t.text
                .chars()
                .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
            && t.text.chars().any(|c| c.is_ascii_uppercase());
        if all_caps
            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("with"))
            && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            hits.push((
                t.line,
                format!(
                    "`{}.with(…)` accesses a thread-local static from code reachable from a \
                     `fan_out` job",
                    t.text
                ),
            ));
        }
    }
    hits
}

fn lint_conc_thread_local(files: &[ScannedFile], idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let stop: BTreeSet<&str> = index::STOP_NAMES.iter().copied().collect();
    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fan_out")
                || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                || file.line_in_test(toks[i].line)
            {
                continue;
            }
            if i > 0 && toks[i - 1].is_ident("fn") {
                continue; // the definition, not a call
            }
            let Some(args) = call_args(toks, i + 1) else {
                continue;
            };
            let Some(job) = args.last().cloned() else {
                continue;
            };
            let encl = idx.enclosing_fn(fi, i);

            // Resolve the job: every ident in the argument, through local
            // closures of the enclosing fn, then fn definitions by name.
            let mut seed_defs: Vec<usize> = Vec::new();
            let mut ranges: Vec<(usize, Range<usize>)> = Vec::new();
            if toks[job.clone()].iter().any(|t| t.is_punct('|')) {
                ranges.push((fi, job.clone())); // inline closure literal
            }
            let mut work: Vec<String> = toks[job.clone()]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .filter(|t| !index::KEYWORDS.contains(&t.text.as_str()))
                .map(|t| t.text.clone())
                .collect();
            let mut seen_names: BTreeSet<String> = BTreeSet::new();
            while let Some(n) = work.pop() {
                if stop.contains(n.as_str()) || !seen_names.insert(n.clone()) {
                    continue;
                }
                let closure = encl.and_then(|d| {
                    idx.closures[d]
                        .iter()
                        .find(|c| c.name == n)
                        .map(|c| c.body.clone())
                });
                if let Some(body) = closure {
                    work.extend(index::call_names(toks, body.clone()));
                    ranges.push((fi, body));
                } else if let Some(defs) = idx.by_name.get(&n) {
                    seed_defs.extend(defs.iter().copied());
                }
            }

            // Expand to every reachable definition and scan each body.
            let reach = idx.reachable(&seed_defs);
            for (di, d) in idx.fns.iter().enumerate() {
                if reach[di] && !d.is_test {
                    ranges.push((d.file, d.body.clone()));
                }
            }
            for (rf, range) in ranges {
                let rfile = &files[rf];
                if THREAD_LOCAL_HOME.contains(&rfile.path.as_str()) || !in_scope(&rfile.path) {
                    continue;
                }
                for (line, msg) in thread_local_touches(&rfile.tokens, range) {
                    emit(rfile, out, line, "conc-thread-local", msg);
                }
            }
        }
    }
}

/// Token index of the `fn` keyword opening the signature whose body
/// starts at `body_open` (falls back just past the previous item end).
fn sig_start(toks: &[Token], body_open: usize) -> usize {
    let mut j = body_open;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_ident("fn") {
            return j;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return j + 1;
        }
    }
    0
}

fn lint_conc_panic_payload(files: &[ScannedFile], idx: &SymbolIndex, out: &mut Vec<Finding>) {
    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("panic_any") || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_ident("use")) {
                continue;
            }
            let arg_ok = call_args(toks, i + 1).is_some_and(|args| {
                args.iter()
                    .any(|r| toks[r.clone()].iter().any(|t| t.is_ident("BudgetBreach")))
            });
            // Approximation: a payload built earlier in the same function
            // counts when the function (signature included) visibly
            // works with BudgetBreach.
            let fn_ok = idx.enclosing_fn(fi, i).is_some_and(|d| {
                let body = idx.fns[d].body.clone();
                let sig = sig_start(toks, body.start);
                toks[sig..body.end]
                    .iter()
                    .any(|t| t.is_ident("BudgetBreach"))
            });
            if !arg_ok && !fn_ok {
                emit(
                    file,
                    out,
                    toks[i].line,
                    "conc-panic-payload",
                    "`panic_any` payload is not visibly a `BudgetBreach`; `fan_out` only \
                     rethrows `BudgetBreach` payloads intact"
                        .to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Durability: dur-fsync, dur-framing, dur-group-ack, dur-atomic-publish
// ---------------------------------------------------------------------------

fn lint_dur_fsync(files: &[ScannedFile], idx: &SymbolIndex, out: &mut Vec<Finding>) {
    for d in &idx.fns {
        let file = &files[d.file];
        if !file.path.starts_with(DURABILITY_SRC) || !in_scope(&file.path) || d.is_test {
            continue;
        }
        let toks = &file.tokens;
        let mut writes: Vec<usize> = Vec::new();
        let mut syncs: Vec<usize> = Vec::new();
        let mut first_append: Option<usize> = None;
        let mut first_ack: Option<usize> = None;
        for i in d.body.clone() {
            let t = &toks[i];
            if t.kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                match t.text.as_str() {
                    "write_all" | "set_len" => writes.push(i),
                    // A `fs.write(..)` through the storage trait is a
                    // journal/snapshot write even though the method is
                    // just `write`; the narrow receiver check keeps
                    // socket `write` calls out.
                    "write"
                        if i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].is_ident("fs") =>
                    {
                        writes.push(i)
                    }
                    "sync_data" | "sync_all" => syncs.push(i),
                    "append" if first_append.is_none() => first_append = Some(i),
                    _ => {}
                }
            }
            if t.is_ident("Response")
                && path_sep(toks, i + 1)
                && toks
                    .get(i + 3)
                    .is_some_and(|n| n.is_ident("Admitted") || n.is_ident("Released"))
                && first_ack.is_none()
            {
                first_ack = Some(i);
            }
        }
        if let Some(&last_write) = writes.last() {
            if !syncs.iter().any(|&s| s > last_write) {
                emit(
                    file,
                    out,
                    toks[last_write].line,
                    "dur-fsync",
                    format!(
                        "`{}` in `{}` is not followed by `sync_data`/`sync_all` in the same \
                         function; journal writes must reach disk before any acknowledgement",
                        toks[last_write].text, d.name
                    ),
                );
            }
        }
        if let (Some(ack), Some(append)) = (first_ack, first_append) {
            if ack < append {
                emit(
                    file,
                    out,
                    toks[ack].line,
                    "dur-fsync",
                    format!(
                        "acknowledgement constructed before the journal append in `{}`; the \
                         WAL write (and its fsync) must dominate the ack",
                        d.name
                    ),
                );
            }
        }
    }
}

fn lint_dur_framing(files: &[ScannedFile], out: &mut Vec<Finding>) {
    for file in files {
        if !in_scope(&file.path) || file.path.starts_with(SELF_SRC) {
            continue;
        }
        let home = file.path == FRAMING_HOME;
        let mut seen_magic = false;
        let mut seen_crc = false;
        for t in &file.tokens {
            if file.line_in_test(t.line) {
                continue;
            }
            let hit = match t.kind {
                TokenKind::StrLit if t.text.contains(MAGIC_NEEDLE) => {
                    Some(("magic marker", &mut seen_magic))
                }
                TokenKind::NumLit if t.text.replace('_', "").to_ascii_lowercase() == CRC_NEEDLE => {
                    Some(("CRC-32 polynomial", &mut seen_crc))
                }
                _ => None,
            };
            let Some((what, seen)) = hit else { continue };
            if !home {
                emit(
                    file,
                    out,
                    t.line,
                    "dur-framing",
                    format!(
                        "journal {what} duplicated outside the journal module; import the \
                         constant from `dnc_service::journal` instead"
                    ),
                );
            } else if *seen {
                emit(
                    file,
                    out,
                    t.line,
                    "dur-framing",
                    format!("journal {what} defined more than once in the journal module"),
                );
            }
            *seen = true;
        }
    }
}

/// Is the token at `i` a call head (`name(`) and not a definition
/// (`fn name(`) or a macro invocation (`name!(`)?
fn is_call_head(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && !i
            .checked_sub(1)
            .and_then(|p| toks.get(p))
            .is_some_and(|p| p.is_ident("fn") || p.is_punct('!'))
}

/// `dur-group-ack`: every call to an ack sink ([`ACK_SINKS`]) in the
/// service crate must be *dominated by a journal commit* — an earlier
/// call in the same function body that is a [`COMMIT_CALLS`] primitive
/// directly, or a workspace function from which one is reachable by
/// name. With group commit, the fsync moved out of the per-op path into
/// the batch commit; this pass pins the ordering "fsync, then
/// acknowledge" that `dur-fsync` can no longer see locally.
fn lint_dur_group_ack(files: &[ScannedFile], idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let stop: BTreeSet<&str> = index::STOP_NAMES.iter().copied().collect();
    // Which definitions (transitively) perform a journal commit? Seed
    // with bodies that call a commit primitive, then propagate backwards
    // over name-based call edges to a fixed point.
    let mut commits: Vec<bool> = (0..idx.fns.len())
        .map(|di| {
            idx.calls[di]
                .iter()
                .any(|c| COMMIT_CALLS.contains(&c.as_str()))
        })
        .collect();
    loop {
        let mut changed = false;
        for di in 0..idx.fns.len() {
            if commits[di] {
                continue;
            }
            let reaches = idx.calls[di].iter().any(|name| {
                !stop.contains(name.as_str())
                    && idx
                        .by_name
                        .get(name)
                        .is_some_and(|defs| defs.iter().any(|&d| commits[d]))
            });
            if reaches {
                commits[di] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let commit_dominates = |toks: &[Token], j: usize| {
        let c = &toks[j];
        COMMIT_CALLS.contains(&c.text.as_str())
            || (!stop.contains(c.text.as_str())
                && idx
                    .by_name
                    .get(&c.text)
                    .is_some_and(|defs| defs.iter().any(|&d| commits[d])))
    };
    for d in &idx.fns {
        let file = &files[d.file];
        if !file.path.starts_with(DURABILITY_SRC) || !in_scope(&file.path) || d.is_test {
            continue;
        }
        let toks = &file.tokens;
        for i in d.body.clone() {
            if !is_call_head(toks, i) || !ACK_SINKS.contains(&toks[i].text.as_str()) {
                continue;
            }
            let dominated =
                (d.body.start..i).any(|j| is_call_head(toks, j) && commit_dominates(toks, j));
            if !dominated {
                emit(
                    file,
                    out,
                    toks[i].line,
                    "dur-group-ack",
                    format!(
                        "`{}` acknowledges client operations in `{}` with no dominating \
                         journal commit; a call reaching `append_batch`/`append`/fsync must \
                         come earlier in the function",
                        toks[i].text, d.name
                    ),
                );
            }
        }
    }
}

/// Functions that publish a snapshot under its final name. Each must
/// reach every stage of the atomic-publish protocol through its call
/// graph.
const PUBLISH_FNS: &[&str] = &["publish_snapshot"];

/// The atomic-publish stages and the call names that satisfy each.
const PUBLISH_STAGES: &[(&str, &[&str])] = &[
    ("the temp-file write", &["write", "write_all"]),
    ("the data fsync", &["sync_data", "sync_all"]),
    ("the atomic rename", &["rename"]),
    ("the parent-directory fsync", &["sync_dir"]),
];

/// `dur-atomic-publish`: a snapshot publish site ([`PUBLISH_FNS`]) must
/// reach, through name-based call edges, all four stages of the atomic
/// publish protocol: temp write -> fsync -> rename -> dir fsync
/// ([`PUBLISH_STAGES`]). A missing stage opens a crash window where a
/// torn or unlinked snapshot can be observed under the final name and
/// recovery silently loses the compacted prefix.
fn lint_dur_atomic_publish(files: &[ScannedFile], idx: &SymbolIndex, out: &mut Vec<Finding>) {
    let stop: BTreeSet<&str> = index::STOP_NAMES.iter().copied().collect();
    for (di, d) in idx.fns.iter().enumerate() {
        let file = &files[d.file];
        if !file.path.starts_with(DURABILITY_SRC)
            || !in_scope(&file.path)
            || d.is_test
            || !PUBLISH_FNS.contains(&d.name.as_str())
        {
            continue;
        }
        // Forward reachability: union of call names over every
        // definition reachable from the publish function.
        let mut reached: BTreeSet<&str> = BTreeSet::new();
        let mut seen = vec![false; idx.fns.len()];
        let mut stack = vec![di];
        while let Some(f) = stack.pop() {
            if std::mem::replace(&mut seen[f], true) {
                continue;
            }
            for name in &idx.calls[f] {
                reached.insert(name.as_str());
                if stop.contains(name.as_str()) {
                    continue;
                }
                if let Some(defs) = idx.by_name.get(name) {
                    stack.extend(defs.iter().copied());
                }
            }
        }
        let missing: Vec<&str> = PUBLISH_STAGES
            .iter()
            .filter(|(_, calls)| !calls.iter().any(|c| reached.contains(c)))
            .map(|(stage, _)| *stage)
            .collect();
        if !missing.is_empty() {
            let toks = &file.tokens;
            emit(
                file,
                out,
                toks[sig_start(toks, d.body.start)].line,
                "dur-atomic-publish",
                format!(
                    "`{}` never reaches {} through its call graph; a snapshot is only \
                     crash-atomic when it is staged as temp write -> fsync -> rename -> \
                     parent-dir fsync",
                    d.name,
                    missing.join(", ")
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Contract: contract-exit, contract-span
// ---------------------------------------------------------------------------

fn lint_contract_exit(files: &[ScannedFile], out: &mut Vec<Finding>) {
    for file in files {
        if !in_scope(&file.path) || file.path == EXIT_TABLE {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            // `process::exit(<literal>)`.
            if t.is_ident("exit")
                && i >= 3
                && toks[i - 3].is_ident("process")
                && path_sep(toks, i - 2)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::NumLit)
            {
                emit(
                    file,
                    out,
                    t.line,
                    "contract-exit",
                    format!(
                        "`process::exit({})` uses a bare exit-code literal; use the unified \
                         exit-code table (`dnc_bench::exit`)",
                        toks[i + 2].text
                    ),
                );
            }
            // `ExitCode::from(<literal>)`.
            if t.is_ident("ExitCode")
                && path_sep(toks, i + 1)
                && toks.get(i + 3).is_some_and(|n| n.is_ident("from"))
                && toks.get(i + 4).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 5).is_some_and(|n| n.kind == TokenKind::NumLit)
            {
                emit(
                    file,
                    out,
                    t.line,
                    "contract-exit",
                    format!(
                        "`ExitCode::from({})` uses a bare exit-code literal; use the unified \
                         exit-code table (`dnc_bench::exit`)",
                        toks[i + 5].text
                    ),
                );
            }
            // `code: <literal>` struct-field initializers (CLI errors).
            if t.is_ident("code")
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::NumLit)
            {
                emit(
                    file,
                    out,
                    t.line,
                    "contract-exit",
                    format!(
                        "`code: {}` hardcodes an exit code; use the unified exit-code table \
                         (`dnc_bench::exit`)",
                        toks[i + 2].text
                    ),
                );
            }
        }
    }
}

fn lint_contract_span(files: &[ScannedFile], out: &mut Vec<Finding>) {
    for file in files {
        if !in_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("span") || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('.')) {
                continue; // a definition, or a method on some other type
            }
            // Walk back over a `crate_name ::` path prefix.
            let mut j = i;
            while j >= 2 && path_sep(toks, j - 2) {
                j -= 2;
                if j >= 1 && toks[j - 1].kind == TokenKind::Ident {
                    j -= 1;
                } else {
                    break;
                }
            }
            let head = j.checked_sub(1).map(|p| &toks[p]);
            let discarded_stmt = match head {
                None => true,
                Some(p) => p.is_punct(';') || p.is_punct('{') || p.is_punct('}'),
            };
            let bound_to_wildcard = head.is_some_and(|p| p.is_punct('='))
                && j >= 2
                && toks[j - 2].is_ident("_")
                && j >= 3
                && toks[j - 3].is_ident("let");
            if discarded_stmt || bound_to_wildcard {
                emit(
                    file,
                    out,
                    toks[i].line,
                    "contract-span",
                    "telemetry span guard is dropped immediately (statement position or \
                     `let _ =`); bind it (`let _g = span(…)`) so open/close stay balanced"
                        .to_string(),
                );
            }
        }
    }
}

/// Canonical curve equality: the interner (DESIGN §18.1) guarantees
/// two `Curve`s are functionally equal iff they are structurally
/// equal, so `Curve`/`CurveId` `==` is both correct and O(1)-amortized.
/// Comparing the raw segment slices (`a.points() == b.points()`)
/// re-walks every breakpoint, bypasses the canonical-equality
/// contract, and silently diverges if a future representation change
/// makes slice identity stricter than curve identity.
fn lint_contract_curve_eq(files: &[ScannedFile], out: &mut Vec<Finding>) {
    for file in files {
        if !in_scope(&file.path) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("points")
                || i == 0
                || !toks[i - 1].is_punct('.')
                || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                || !toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
            {
                continue;
            }
            // `….points() ==` / `!=` — the slice is the left operand.
            let left_operand = toks
                .get(i + 3)
                .is_some_and(|t| t.is_punct('=') || t.is_punct('!'))
                && toks.get(i + 4).is_some_and(|t| t.is_punct('='));
            // `… == x.y.points()` — walk back over the receiver chain
            // (`ident . ident . … .`) to see whether the whole call is
            // the right operand of a comparison.
            let mut j = i - 1; // the `.` before `points`
            while j >= 2 && toks[j - 1].kind == TokenKind::Ident && toks[j - 2].is_punct('.') {
                j -= 2;
            }
            // A further `.method()` after the call means the operand is
            // whatever the chain produces, not the segment slice.
            let chained = toks.get(i + 3).is_some_and(|t| t.is_punct('.'));
            let right_operand = !chained
                && j >= 3
                && toks[j - 1].kind == TokenKind::Ident
                && toks[j - 2].is_punct('=')
                && (toks[j - 3].is_punct('=') || toks[j - 3].is_punct('!'));
            if left_operand || right_operand {
                emit(
                    file,
                    out,
                    toks[i].line,
                    "contract-curve-eq",
                    "curve compared segment-by-segment via `.points()`; interned curves \
                     are canonical, so compare the `Curve` (or `CurveId`) values directly \
                     (DESIGN §18)"
                        .to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hermeticity: test-scratch-path
// ---------------------------------------------------------------------------

/// Token ranges of the `impl … ScratchDir … { … }` blocks in `toks`.
fn scratch_impls(toks: &[Token]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for i in (0..toks.len()).filter(|&i| toks[i].is_ident("impl")) {
        let Some(open) = (i..toks.len()).find(|&j| toks[j].is_punct('{')) else {
            continue;
        };
        if toks[i..open].iter().any(|t| t.is_ident(SCRATCH_TYPE)) {
            let mut depth = 0i64;
            let close = (open..toks.len()).find(|&j| {
                depth += i64::from(toks[j].is_punct('{')) - i64::from(toks[j].is_punct('}'));
                depth == 0
            });
            out.extend(close.map(|close| open..close));
        }
    }
    out
}

/// Two tests in one process that build the same `temp_dir()` path race
/// on it: one truncates or deletes the other's files. Every temporary
/// path must come from `ScratchDir` (pid + process-wide counter,
/// removed on drop), so any other `temp_dir()` call is flagged — in
/// `#[cfg(test)]` modules and `tests/` trees too, which no other lint
/// scans.
fn lint_test_scratch_path(files: &[ScannedFile], out: &mut Vec<Finding>) {
    for file in files {
        if file.path.split('/').any(|seg| seg == "fixtures") {
            continue;
        }
        let toks = &file.tokens;
        let home = scratch_impls(toks);
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("temp_dir")
                || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                || (i > 0 && toks[i - 1].is_ident("fn"))
                || home.iter().any(|r| r.contains(&i))
            {
                continue;
            }
            emit_in_tests_too(
                file,
                out,
                t.line,
                "test-scratch-path",
                "raw `temp_dir()` path; concurrent tests in one process can share it — \
                 use `dnc_service::fs::ScratchDir` (unique per call, removed on drop)"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> ScannedFile {
        ScannedFile::new(path.to_string(), src.to_string())
    }

    fn lints_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.lint.as_str()).collect()
    }

    // --- determinism -----------------------------------------------------

    #[test]
    fn hash_iteration_on_emit_path_is_flagged() {
        let files = vec![scan(
            "crates/fake/src/report.rs",
            "use std::collections::HashMap;\n\
             pub fn render(m: &HashMap<String, u32>) -> String {\n\
                 let mut out = String::new();\n\
                 for (k, v) in m.iter() { out.push_str(k); }\n\
                 out\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["det-hash-iter"], "{f:?}");
        assert!(f[0].message.contains('m'));
    }

    #[test]
    fn for_loop_over_hash_binding_is_flagged() {
        let files = vec![scan(
            "crates/fake/src/export.rs",
            "pub fn dump(names: std::collections::HashSet<String>) {\n\
                 for n in &names { println!(\"{n}\"); }\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["det-hash-iter"], "{f:?}");
    }

    #[test]
    fn wall_clock_reachable_from_root_is_flagged_transitively() {
        let files = vec![
            scan(
                "crates/fake/src/report.rs",
                "pub fn render() { stamp_it(); }\n",
            ),
            scan(
                "crates/fake/src/other.rs",
                "pub fn stamp_it() { let _t = std::time::Instant::now(); }\n",
            ),
        ];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["det-wall-clock"], "{f:?}");
        assert_eq!(f[0].file, "crates/fake/src/other.rs");
    }

    #[test]
    fn unreachable_and_ordered_shapes_stay_clean() {
        let files = vec![
            // Emit root iterating a BTreeMap and *looking up* in a HashMap:
            // both deterministic.
            scan(
                "crates/fake/src/report.rs",
                "pub fn render(b: &std::collections::BTreeMap<u32, u32>, m: &std::collections::HashMap<u32, u32>) {\n\
                     for (k, v) in b.iter() { let _ = m.get(k); }\n\
                 }\n",
            ),
            // Hash iteration + wall clock in a fn nothing reaches.
            scan(
                "crates/fake/src/dead.rs",
                "fn never_called(m: &std::collections::HashMap<u32, u32>) {\n\
                     for x in m.keys() { let _ = x; }\n\
                     let _t = std::time::Instant::now();\n\
                 }\n",
            ),
        ];
        let f = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn named_allow_suppresses_but_blanket_does_not() {
        let src = "pub fn render() {\n\
                   let _t = std::time::Instant::now(); // audit: allow(det-wall-clock, timing footer only)\n\
                   }\n";
        let files = vec![scan("crates/fake/src/report.rs", src)];
        assert!(run(&files).is_empty());
        let blanket = src.replace("allow(det-wall-clock,", "allow(all,");
        let files = vec![scan("crates/fake/src/report.rs", &blanket)];
        assert_eq!(lints_of(&run(&files)), ["det-wall-clock"]);
    }

    // --- concurrency -----------------------------------------------------

    #[test]
    fn fan_out_job_touching_limits_stack_is_flagged() {
        let files = vec![scan(
            "crates/fake/src/engine2.rs",
            "pub fn run(n: usize) {\n\
                 let job = |k: usize| { helper(k); };\n\
                 fan_out(n, 2, &job);\n\
             }\n\
             fn helper(k: usize) { limits::install(None); }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["conc-thread-local"], "{f:?}");
        assert!(f[0].message.contains("install"));
    }

    #[test]
    fn fan_out_inline_closure_with_thread_local_access_is_flagged() {
        let files = vec![scan(
            "crates/fake/src/engine2.rs",
            "pub fn run(n: usize) {\n\
                 fan_out(n, 2, &|k: usize| SCRATCH.with(|s| s.set(k)));\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["conc-thread-local"], "{f:?}");
    }

    #[test]
    fn fan_out_job_with_plain_compute_is_clean() {
        let files = vec![scan(
            "crates/fake/src/engine2.rs",
            "pub fn run(n: usize) {\n\
                 let job = |k: usize| { compute(k); };\n\
                 fan_out(n, 2, &job);\n\
             }\n\
             fn compute(k: usize) -> usize { k * 2 }\n\
             fn unrelated() { limits::install(None); }\n",
        )];
        let f = run(&files);
        assert!(f.is_empty(), "unreached fns must not taint the job: {f:?}");
    }

    #[test]
    fn panic_any_payload_rules() {
        let files = vec![scan(
            "crates/fake/src/breach.rs",
            "fn good(b: BudgetBreach) { std::panic::panic_any(b); }\n\
             fn also_good() { if let Some(b) = breach() { let b: BudgetBreach = b; std::panic::panic_any(b); } }\n\
             fn bad() { std::panic::panic_any(format!(\"boom\")); }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["conc-panic-payload"], "{f:?}");
        assert!(f[0].snippet.contains("boom"));
    }

    // --- durability ------------------------------------------------------

    #[test]
    fn write_without_sync_in_service_is_flagged() {
        let files = vec![scan(
            "crates/service/src/bad.rs",
            "pub fn persist(f: &mut std::fs::File, buf: &[u8]) {\n\
                 f.write_all(buf).ok();\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["dur-fsync"], "{f:?}");
    }

    #[test]
    fn write_followed_by_sync_is_clean() {
        let files = vec![scan(
            "crates/service/src/good.rs",
            "pub fn persist(f: &mut std::fs::File, buf: &[u8]) {\n\
                 f.write_all(buf).ok();\n\
                 f.sync_data().ok();\n\
             }\n",
        )];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn ack_constructed_before_append_is_flagged() {
        let files = vec![scan(
            "crates/service/src/bad2.rs",
            "pub fn admit(j: &mut J) -> Response {\n\
                 let resp = Response::Admitted { id: 1 };\n\
                 j.append(&op());\n\
                 resp\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["dur-fsync"], "{f:?}");
        assert!(f[0].message.contains("before the journal append"));
    }

    #[test]
    fn append_then_ack_is_clean_and_ack_without_append_ignored() {
        let files = vec![scan(
            "crates/service/src/good2.rs",
            "pub fn admit(j: &mut J) -> Response {\n\
                 j.append(&op());\n\
                 Response::Admitted { id: 1 }\n\
             }\n\
             pub fn committed(r: &Response) -> bool {\n\
                 matches!(r, Response::Admitted { .. })\n\
             }\n",
        )];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn framing_constants_outside_journal_are_flagged() {
        let files = vec![
            scan(
                "crates/service/src/journal.rs",
                "pub const MAGIC: &[u8; 6] = b\"DNCJ1\\n\";\n\
                 const POLY: u32 = 0xEDB8_8320;\n",
            ),
            scan(
                "crates/bench/src/churn2.rs",
                "const LOCAL_MAGIC: &[u8] = b\"DNCJ1\\n\";\n\
                 fn crc(x: u32) -> u32 { x ^ 0xedb88320 }\n",
            ),
        ];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["dur-framing", "dur-framing"], "{f:?}");
        assert!(f.iter().all(|x| x.file.contains("churn2")));
    }

    #[test]
    fn duplicate_framing_constant_inside_journal_is_flagged() {
        let files = vec![scan(
            "crates/service/src/journal.rs",
            "pub const MAGIC: &[u8; 6] = b\"DNCJ1\\n\";\n\
             const MAGIC_COPY: &[u8; 6] = b\"DNCJ1\\n\";\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["dur-framing"], "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    // --- contract --------------------------------------------------------

    #[test]
    fn exit_code_literals_are_flagged() {
        let files = vec![scan(
            "crates/bench/src/bin/tool.rs",
            "fn main() {\n\
                 if bad() { std::process::exit(2); }\n\
                 let _e = std::process::ExitCode::from(3);\n\
                 let err = CliError { code: 1, msg: String::new() };\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(
            lints_of(&f),
            ["contract-exit", "contract-exit", "contract-exit"],
            "{f:?}"
        );
    }

    #[test]
    fn exit_through_the_table_is_clean() {
        let files = vec![
            scan(
                "crates/bench/src/exit.rs",
                "pub const USAGE: i32 = 2;\n",
            ),
            scan(
                "crates/bench/src/bin/tool.rs",
                "fn main() {\n\
                     std::process::exit(dnc_bench::exit::USAGE);\n\
                     let err = CliError { code: dnc_bench::exit::USAGE as u8, msg: String::new() };\n\
                 }\n",
            ),
        ];
        assert!(run(&files).is_empty());
    }

    #[test]
    fn discarded_span_guards_are_flagged() {
        let files = vec![scan(
            "crates/fake/src/use_spans.rs",
            "fn f() {\n\
                 dnc_telemetry::span(\"a\");\n\
                 let _ = dnc_telemetry::span(\"b\");\n\
                 let _g = dnc_telemetry::span(\"c\");\n\
                 g(span(\"d\"));\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(lints_of(&f), ["contract-span", "contract-span"], "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
    }

    #[test]
    fn segment_slice_comparisons_are_flagged_on_either_side() {
        let files = vec![scan(
            "crates/fake/src/delta.rs",
            "fn f(a: &Curve, b: &Curve, want: &[Point]) -> bool {\n\
                 let l = a.points() == b.points();\n\
                 let r = want == self.base.points();\n\
                 let n = a.points() != b.points();\n\
                 l && r && n\n\
             }\n",
        )];
        let f = run(&files);
        assert_eq!(
            lints_of(&f),
            [
                "contract-curve-eq",
                "contract-curve-eq",
                "contract-curve-eq"
            ],
            "{f:?}"
        );
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
        assert_eq!(f[2].line, 4);
    }

    #[test]
    fn canonical_curve_equality_and_slice_inspection_stay_clean() {
        let files = vec![scan(
            "crates/fake/src/delta.rs",
            "fn f(a: &Curve, b: &Curve) -> bool {\n\
                 let eq = a == b;\n\
                 let n = a.points().len() == b.points().len();\n\
                 let head = a.points().first() == b.points().first();\n\
                 eq && n && head\n\
             }\n",
        )];
        let f = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn span_definition_site_is_not_flagged() {
        let files = vec![scan(
            "crates/telemetry/src/record.rs",
            "pub fn span(name: &'static str) -> SpanGuard { SpanGuard::open(name) }\n",
        )];
        assert!(run(&files).is_empty());
    }

    // --- scope and plumbing ----------------------------------------------

    #[test]
    fn tests_benches_and_fixtures_are_out_of_scope() {
        let src = "fn f() { std::process::exit(1); }\n";
        for path in [
            "crates/bench/tests/smoke.rs",
            "crates/xtask/fixtures/contract_positive.rs",
            "examples/demo.rs",
        ] {
            let files = vec![scan(path, src)];
            assert!(run(&files).is_empty(), "{path} must be out of scope");
        }
    }

    // --- fixture corpus ---------------------------------------------------

    /// Load a fixture file, scanning it under the synthetic repo path the
    /// fixture's header comment documents.
    fn fixture(name: &str, scan_path: &str) -> ScannedFile {
        let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        let src = std::fs::read_to_string(&p)
            .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", p.display()));
        ScannedFile::new(scan_path.to_string(), src)
    }

    #[test]
    fn fixture_corpus_true_positives_are_caught_and_negatives_stay_clean() {
        let cases: &[(&str, &str, &[&str])] = &[
            (
                "det_positive.rs",
                "crates/fixture/src/report.rs",
                &["det-hash-iter", "det-hash-iter", "det-wall-clock"],
            ),
            ("det_negative.rs", "crates/fixture/src/report.rs", &[]),
            ("det_unreached.rs", "crates/fixture/src/sweep.rs", &[]),
            (
                "conc_positive.rs",
                "crates/fixture/src/sharded.rs",
                &[
                    "conc-panic-payload",
                    "conc-thread-local",
                    "conc-thread-local",
                ],
            ),
            ("conc_negative.rs", "crates/fixture/src/sharded.rs", &[]),
            (
                "dur_positive.rs",
                "crates/service/src/fixture.rs",
                &["dur-framing", "dur-framing", "dur-fsync", "dur-fsync"],
            ),
            ("dur_negative.rs", "crates/service/src/fixture.rs", &[]),
            (
                "dur_group_positive.rs",
                "crates/service/src/fixture.rs",
                &["dur-group-ack", "dur-group-ack"],
            ),
            (
                "dur_group_negative.rs",
                "crates/service/src/fixture.rs",
                &[],
            ),
            (
                "dur_atomic_positive.rs",
                "crates/service/src/fixture.rs",
                &["dur-atomic-publish"],
            ),
            (
                "dur_atomic_negative.rs",
                "crates/service/src/fixture.rs",
                &[],
            ),
            (
                "contract_positive.rs",
                "crates/fixture/src/bin/tool.rs",
                &[
                    "contract-exit",
                    "contract-exit",
                    "contract-exit",
                    "contract-span",
                    "contract-span",
                ],
            ),
            (
                "contract_negative.rs",
                "crates/fixture/src/bin/tool.rs",
                &[],
            ),
            (
                "curve_eq_positive.rs",
                "crates/fixture/src/delta.rs",
                &[
                    "contract-curve-eq",
                    "contract-curve-eq",
                    "contract-curve-eq",
                ],
            ),
            ("curve_eq_negative.rs", "crates/fixture/src/delta.rs", &[]),
            (
                "scratch_positive.rs",
                "crates/fixture/tests/store.rs",
                &[
                    "test-scratch-path",
                    "test-scratch-path",
                    "test-scratch-path",
                ],
            ),
            ("scratch_negative.rs", "crates/fixture/src/fs.rs", &[]),
        ];
        for &(name, path, expected) in cases {
            let files = vec![fixture(name, path)];
            let findings = run(&files);
            let mut got = lints_of(&findings);
            got.sort_unstable();
            assert_eq!(got, expected, "{name}: {findings:?}");
        }
    }

    #[test]
    fn deepcheck_json_output_shape_is_valid() {
        // Same validation pattern as the audit's report tests: the JSON
        // emitted for a fixture run must carry the baseline's keys and
        // stay structurally balanced (what `diff` against the committed
        // baseline then enforces byte-for-byte in CI).
        let files = vec![fixture("dur_positive.rs", "crates/service/src/fixture.rs")];
        let mut findings = run(&files);
        crate::report::sort_findings(&mut findings);
        let j = crate::report::to_json(&findings, &[], files.len());
        for key in [
            "\"files_scanned\"",
            "\"finding_count\"",
            "\"findings_by_lint\"",
            "\"findings\"",
            "\"allow_count\"",
            "\"allows\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.contains("\"dur-fsync\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    // --- real service sources: guards present, and removal fires ---------

    /// Read a real `crates/service/src` file from the workspace.
    fn service_source(name: &str) -> String {
        let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask has a parent dir")
            .join("service/src")
            .join(name);
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()))
    }

    #[test]
    fn real_scratch_helper_is_clean_until_moved_out_of_its_impl() {
        let src = service_source("fs.rs");
        let path = "crates/service/src/fs.rs";
        assert!(run(&[scan(path, &src)]).is_empty());
        let moved = src.replacen("impl ScratchDir {", "impl Elsewhere {", 1);
        let findings = run(&[scan(path, &moved)]);
        assert_eq!(lints_of(&findings), ["test-scratch-path"], "{findings:?}");
    }

    #[test]
    fn real_journal_is_clean_until_the_fsync_is_removed() {
        let src = service_source("journal.rs");
        let path = "crates/service/src/journal.rs";
        let clean = run(&[scan(path, &src)]);
        assert!(clean.is_empty(), "pristine journal must pass: {clean:?}");

        let mutated = src.replace(".and_then(|()| self.fs.sync_data(&self.file))", "");
        assert!(
            mutated.len() < src.len(),
            "fsync-removal mutation must apply"
        );
        let f = run(&[scan(path, &mutated)]);
        assert!(
            f.iter().any(|x| x.lint == "dur-fsync"),
            "dropping the fsync guard must produce a dur-fsync finding: {f:?}"
        );
    }

    #[test]
    fn real_snapshot_publish_is_clean_until_a_stage_is_removed() {
        let src = service_source("snapshot.rs");
        let path = "crates/service/src/snapshot.rs";
        let clean = run(&[scan(path, &src)]);
        assert!(
            clean.is_empty(),
            "pristine snapshot module must pass: {clean:?}"
        );

        let mutated = src.replace("fs.sync_dir(parent_dir(&final_path))?;", "");
        assert!(
            mutated.len() < src.len(),
            "dir-fsync removal mutation must apply"
        );
        let f = run(&[scan(path, &mutated)]);
        assert!(
            f.iter().any(|x| x.lint == "dur-atomic-publish"),
            "dropping the directory fsync from the publish protocol must produce a \
             dur-atomic-publish finding: {f:?}"
        );
    }

    #[test]
    fn real_batcher_is_clean_until_the_group_commit_stops_dominating_the_acks() {
        // The batcher's ack sink is sanctioned only because the call
        // before it reaches `append_batch` through `process_batch`, so
        // the engine and journal sources must be in the scan set.
        let sources = [
            ("crates/service/src/batch.rs", service_source("batch.rs")),
            ("crates/service/src/engine.rs", service_source("engine.rs")),
            (
                "crates/service/src/journal.rs",
                service_source("journal.rs"),
            ),
        ];
        let files: Vec<ScannedFile> = sources.iter().map(|(p, s)| scan(p, s)).collect();
        let clean = run(&files);
        assert!(clean.is_empty(), "pristine batcher must pass: {clean:?}");

        let mutated = sources[0].1.replace("process_batch(", "apply_unjournaled(");
        assert_ne!(mutated, sources[0].1, "commit-detour mutation must apply");
        let files = vec![
            scan("crates/service/src/batch.rs", &mutated),
            scan("crates/service/src/engine.rs", &sources[1].1),
            scan("crates/service/src/journal.rs", &sources[2].1),
        ];
        let f = run(&files);
        assert!(
            f.iter().any(|x| x.lint == "dur-group-ack"),
            "routing the batch around the journaled commit path must produce a \
             dur-group-ack finding: {f:?}"
        );
    }

    #[test]
    fn real_engine_is_clean_until_the_ordered_collection_is_swapped() {
        let src = service_source("engine.rs");
        let path = "crates/service/src/engine.rs";
        let clean = run(&[scan(path, &src)]);
        assert!(clean.is_empty(), "pristine engine must pass: {clean:?}");

        let mutated = src.replace(
            "admitted: Vec<AdmitOp>",
            "admitted: HashMap<usize, AdmitOp>",
        );
        assert_ne!(mutated, src, "ordered-collection mutation must apply");
        let f = run(&[scan(path, &mutated)]);
        assert!(
            f.iter().any(|x| x.lint == "det-hash-iter"),
            "swapping the ordered admitted list for a HashMap must produce a \
             det-hash-iter finding: {f:?}"
        );
    }

    #[test]
    fn hash_typed_names_cover_annotations_and_constructors() {
        let f = scan(
            "crates/fake/src/x.rs",
            "struct S { table: HashMap<u32, u32> }\n\
             fn g(param: &std::collections::HashSet<u32>) {\n\
                 let built = HashMap::new();\n\
                 let plain: Vec<u32> = Vec::new();\n\
             }\n\
             use std::collections::HashMap;\n",
        );
        let names = hash_typed_names(&f);
        assert!(names.contains("table"));
        assert!(names.contains("param"));
        assert!(names.contains("built"));
        assert!(!names.contains("plain"));
        assert!(!names.contains("use"));
    }
}
