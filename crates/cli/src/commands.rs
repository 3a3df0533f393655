//! Command implementations, dispatched through one static registry.
//!
//! Every `dnc` command is one [`COMMANDS`] entry: a name, a positional
//! synopsis, a flag spec (value kind, default, help) and a run fn. One
//! parser checks every flag against its command's spec, so a flag of
//! one kind validates the same way everywhere, and `dnc help` is
//! generated from the table. Harness commands share one output path
//! ([`emit`]). Every command produces its report as a `String` so the
//! whole CLI is testable without spawning processes.

use crate::parse::{parse_spec, BuiltNetwork};
use dnc_bench::profile::{merge_namespaced, run_analysis, run_one, ProfileRow};
use dnc_bench::{chaos, churn, socket, throughput, torture, HarnessOutput};
use dnc_core::decomposed::{backlog_bounds, Decomposed};
use dnc_core::fifo_family::FifoFamily;
use dnc_core::integrated::Integrated;
use dnc_core::resilient::ResilientRunner;
use dnc_core::service_curve::ServiceCurve;
use dnc_core::{AnalysisReport, DelayAnalysis, OutputCap};
use dnc_net::pairing::{partition, PairingStrategy};
use dnc_net::ServerId;
use dnc_num::Rat;
use dnc_sim::{all_greedy, simulate, SimConfig};
use dnc_telemetry::export::{write_metrics, write_trace, Cell, MetricsDoc, Series};
use dnc_telemetry::{schema, Snapshot, TraceEvent};
use dnc_traffic::SourceModel;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// CLI failure: a message and a suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

/// Exit code for a run that completed but found a bound violation.
/// (Single-sourced from the workspace exit-code table, `dnc_bench::exit`.)
pub const EXIT_VIOLATION: i32 = dnc_bench::exit::VIOLATION;
/// Exit code for usage/input errors.
pub const EXIT_USAGE: i32 = dnc_bench::exit::USAGE;
/// Exit code for "no valid bound within budget" (time-stopping
/// divergence or guard exhaustion after the full degradation chain).
pub const EXIT_NO_BOUND: i32 = dnc_bench::exit::NO_BOUND;
/// Exit code for a bench record that differs from its pinned record
/// (`bench --gate`).
pub const EXIT_REGRESSION: i32 = dnc_bench::exit::REGRESSION;

impl CliError {
    /// A usage error.
    fn new(message: impl Into<String>) -> CliError {
        CliError::with_code(message, EXIT_USAGE)
    }

    fn with_code(message: impl Into<String>, code: i32) -> CliError {
        CliError {
            message: message.into(),
            code,
        }
    }
}

fn load(path: &str) -> Result<(BuiltNetwork, crate::parse::NetworkSpec), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    let spec = parse_spec(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let built = spec
        .build()
        .map_err(|e| CliError::new(format!("{path}: {e}")))?;
    // Tolerate cyclic networks (the time-stopping analysis handles them);
    // reject only structural overload.
    match built.net.validate() {
        Ok(()) | Err(dnc_net::NetworkError::NotFeedforward) => {}
        Err(e) => return Err(CliError::new(format!("{path}: invalid network: {e}"))),
    }
    Ok((built, spec))
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// How a flag's value is read. Every flag of one kind validates the
/// same way in every command.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// An unsigned integer no smaller than the bound.
    Int(u64),
    /// Free text — a path, an address, a name — shown as the placeholder.
    Text(&'static str),
}
use Kind::{Int, Switch, Text};

impl Kind {
    /// Whether `value` is a valid value of this kind.
    fn accepts(self, value: &str) -> bool {
        match self {
            Switch => false,
            Int(min) => value.parse::<u64>().is_ok_and(|n| n >= min),
            Text(_) => true,
        }
    }

    /// What a value of this kind must be, for error messages.
    fn expects(self) -> String {
        match self {
            Int(0) => "an integer".to_string(),
            Int(min) => format!("an integer >= {min}"),
            Switch | Text(_) => "a value".to_string(),
        }
    }
}

/// One flag of a command.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value used when the flag is absent (`""`: none).
    default: &'static str,
    help: &'static str,
}

const fn flag(name: &'static str, kind: Kind, default: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
    }
}

impl Flag {
    /// `--name` or `--name PLACEHOLDER`.
    fn synopsis(&self) -> String {
        match self.kind {
            Switch => self.name.to_string(),
            Int(_) => format!("{} N", self.name),
            Text(p) => format!("{} {p}", self.name),
        }
    }
}

/// How a command runs.
enum Run {
    /// Returns its report text.
    Report(fn(&Args) -> Result<String, CliError>),
    /// A harness: its output takes the shared path of [`emit`].
    Harness(fn(&Args) -> Result<HarnessOutput, CliError>),
}

/// One `dnc` command.
struct Command {
    name: &'static str,
    /// Positional arguments, one word each (e.g. `<file.dnc>`).
    synopsis: &'static str,
    flags: &'static [Flag],
    run: Run,
    /// What the command does, for `dnc help`.
    about: &'static str,
}

#[rustfmt::skip]
const SEED: Flag = flag("--seed", Int(0), "1", "master seed");
#[rustfmt::skip]
const METRICS: Flag = flag("--metrics", Text("PATH"), "", "write a dnc-metrics/v1 JSON document");
#[rustfmt::skip]
const TRACE: Flag = flag("--trace", Text("PATH"), "", "write Chrome trace_event JSON");
#[rustfmt::skip]
const OUT_DIR: Flag = flag("--out-dir", Text("DIR"), "results", "where the metrics document and CSV/SVG files go");

/// Every `dnc` command, in `dnc help` order.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { name: "check", synopsis: "<file.dnc>", flags: &[], run: Run::Report(check),
        about: "structure report: topology, utilizations, integrated pairing" },
    Command { name: "analyze", synopsis: "<file.dnc>", run: Run::Report(analyze), flags: &[
            flag("--algo", Text("NAME"), "all",
                "integrated, decomposed, service-curve, fifo-family, time-stopping,\nresilient or all"),
            flag("--csv", Text("PATH"), "", "write the bounds as CSV"),
            METRICS, TRACE],
        about: "end-to-end delay bounds; `resilient` runs the guarded Integrated ->\n\
                Decomposed -> Unbounded fallback chain (exit 3: no valid bound within\n\
                budget)" },
    Command { name: "profile", synopsis: "<file.dnc>", flags: &[METRICS, TRACE], run: Run::Report(profile),
        about: "run every applicable algorithm and compare cost vs tightness (incl.\n\
                curve-cache hit rate)" },
    Command { name: "backlog", synopsis: "<file.dnc>", flags: &[], run: Run::Report(backlog),
        about: "per-server buffer bounds" },
    Command { name: "simulate", synopsis: "<file.dnc>", run: Run::Report(simulate_cmd), flags: &[
            flag("--ticks", Int(0), "8192", "simulated ticks"), SEED],
        about: "adversarial simulation against the Integrated bounds (exit 1 on a\n\
                violation)" },
    Command { name: "provision", synopsis: "<file.dnc>", flags: &[], run: Run::Report(provision),
        about: "minimal GPS reservations meeting the declared deadlines" },
    Command { name: "tandem", synopsis: "<n> <U>", flags: &[], run: Run::Report(tandem),
        about: "emit the paper's n-switch tandem at work load U as a .dnc file" },
    Command { name: "serve", synopsis: "<file.dnc>", run: Run::Report(serve), flags: &[
            flag("--script", Text("PATH"), "", "scripted mode: the request file"),
            flag("--journal", Text("PATH"), "", "write-ahead journal, recovered first if it exists"),
            flag("--queue", Int(0), "64", "pending-request bound"),
            flag("--workers", Int(1), "1", "only 1: certification is sequential"),
            flag("--snapshot-every", Int(1), "", "compact the journal every N commits (needs --journal)"),
            flag("--listen", Text("ADDR"), "", "socket mode: the address to serve on"),
            flag("--max-conns", Int(1), "64", "socket mode: concurrent connection cap"),
            flag("--batch", Int(1), "8", "socket mode: max ops per group commit (one fsync)"),
            flag("--drain-timeout", Int(0), "5", "socket mode: seconds to drain after `shutdown`")],
        about: "durable online admission of admit/release/query requests: certified\n\
                commits are journaled before they are acknowledged, an existing journal\n\
                is recovered first (newest valid snapshot + tail replay), and a storage\n\
                failure poisons the journal (fail-stop: terminal ERR, no ack). Socket\n\
                mode serves the same request lines to concurrent TCP clients, group-\n\
                committing up to --batch ops; a `shutdown` line drains the server" },
    Command { name: "figure", synopsis: "<4|5|6>", flags: &[OUT_DIR], run: Run::Harness(figure),
        about: "regenerate Figure 4 (Decomposed vs Service Curve), 5 (Integrated vs\n\
                Decomposed) or 6 (Integrated vs Service Curve): figN.csv, figN.svg" },
    Command { name: "modern", synopsis: "", flags: &[OUT_DIR],
        run: Run::Harness(|_| Ok(dnc_bench::experiments::modern())),
        about: "Integrated vs the post-1999 θ-optimized FIFO family: modern.csv" },
    Command { name: "validate", synopsis: "", flags: &[OUT_DIR],
        run: Run::Harness(|_| Ok(dnc_bench::experiments::sim_validation())),
        about: "tandem bounds vs adversarial and randomized simulation: validate.csv;\n\
                exit 1 on any bound violation" },
    Command { name: "admission", synopsis: "", flags: &[OUT_DIR],
        run: Run::Harness(|_| Ok(dnc_bench::experiments::admission())),
        about: "largest certifiable tandem load per deadline and method: admission.csv" },
    Command { name: "tightness", synopsis: "", flags: &[OUT_DIR],
        run: Run::Harness(|_| Ok(dnc_bench::experiments::tightness())),
        about: "Theorem 1' vs the exact fluid worst case of the two-server subsystem:\n\
                tightness.csv; exit 1 unless exact <= integrated <= decomposed" },
    Command { name: "disciplines", synopsis: "", flags: &[OUT_DIR],
        run: Run::Harness(|_| Ok(dnc_bench::experiments::disciplines())),
        about: "FIFO vs SP vs EDF vs GPS on one shared link: disciplines.csv" },
    Command { name: "chaos", synopsis: "",
        run: Run::Harness(|a| Ok(chaos::harness(&chaos_config(a), a.get("--scenario")))),
        flags: &[
            flag("--scenarios", Int(0), "32", "randomized fault scenarios"),
            SEED,
            flag("--ticks", Int(0), "2048", "simulated ticks per scenario"),
            flag("--scenario", Int(0), "", "replay this scenario alone, bit-exact"),
            OUT_DIR],
        about: "randomized fault-injection soundness sweep (exit 1: a simulated delay\n\
                above a claimed bound)" },
    Command { name: "churn", synopsis: "",
        run: Run::Harness(|a| Ok(churn::harness(&churn_config(a), a.get("--seq")))),
        flags: &[
            flag("--seqs", Int(0), "6", "randomized admit/release sequences"),
            flag("--ops", Int(0), "40", "requests per sequence"),
            SEED,
            flag("--kill-points", Int(0), "8", "journal truncation points per sequence"),
            flag("--snapshot-every", Int(1), "", "compact the journal; check tail-only recovery"),
            flag("--seq", Int(0), "", "replay this sequence alone, bit-exact"),
            OUT_DIR],
        about: "online-admission soundness sweep: every commit is independently\n\
                re-certified and every journal crash-recovered from random truncation\n\
                points (exit 1: either falsifier fired)" },
    Command { name: "torture", synopsis: "",
        run: Run::Harness(|a| Ok(torture::harness(&torture_config(a)))),
        flags: &[
            flag("--scenarios", Int(0), "2", "randomized workloads"),
            flag("--ops", Int(0), "12", "requests per workload"),
            SEED,
            flag("--snapshot-every", Int(1), "4", "compact the journal every N commits"),
            flag("--stride", Int(1), "1", "visit every K-th failpoint"),
            OUT_DIR],
        about: "disk-fault torture sweep: EIO/ENOSPC/short-write/crash at every storage\n\
                failpoint, then fail-stop recovery (exit 1: a lost ack or divergence)" },
    Command { name: "socket", synopsis: "",
        run: Run::Harness(|a| Ok(socket::harness(&socket_config(a), a.switch("--check")))),
        flags: &[
            flag("--clients", Int(1), "8", "concurrent pipelining clients"),
            flag("--ops", Int(2), "12", "requests per client"),
            flag("--batch", Int(2), "8", "group-commit batch"),
            SEED,
            flag("--check", Switch, "", "require group commit to write fewer journal commits\nthan per-op fsync"),
            OUT_DIR],
        about: "journal commits and acks/sec of group commit vs per-op fsync over the\n\
                TCP front end (exit 1: a soundness mismatch or a failed --check)" },
    Command { name: "throughput", synopsis: "",
        run: Run::Harness(|a| Ok(throughput::harness(&throughput_config(a), a.switch("--check")))),
        flags: &[
            flag("--n", Int(2), "10", "tandem size"),
            flag("--ops", Int(0), "48", "requests"),
            SEED,
            flag("--check", Switch, "", "require incremental to compute fewer pairing units\nthan scratch-seq"),
            OUT_DIR],
        about: "admissions/sec of from-scratch and incremental certification (exit 1: a\n\
                cross-mode mismatch or a failed --check)" },
    Command { name: "bench", synopsis: "", run: Run::Report(bench), flags: &[
            flag("--bench-dir", Text("DIR"), ".", "directory of the BENCH_*.json records"),
            flag("--gate", Switch, "", "exit 4 unless each new record equals its pinned record")],
        about: "append the exact perf record of one fixed configuration (bounds, work\n\
                counters and soundness counts of the profile, throughput, socket, chaos\n\
                and churn stages) as one dnc-bench/v1 line to each of\n\
                BENCH_throughput.json and BENCH_churn.json, then compare it key by key\n\
                with its pinned record (the latest earlier one with the same knobs)" },
    Command { name: "help", synopsis: "", flags: &[], run: Run::Report(|_| Ok(help_text())),
        about: "print this help (also --help, -h)" },
];

/// The hand-written tail of `dnc help`: the exit-code table and notes.
const HELP_TAIL: &str = "
Harness commands (figure through throughput) print their report, write
metrics-<name>.json plus their CSV/SVG files under --out-dir, and exit 1
when the run is unsound.

exit codes (uniform across commands):
  0  success — rejections/sheds by `serve` are normal service answers
  1  violation — a simulated delay exceeded a claimed bound, or a
     durability falsifier fired (simulate, chaos, churn, torture)
  2  usage error — bad flags, unreadable files, malformed input
  3  no bound — the resilient chain ended at the explicit Unbounded tier
     (analyze --algo resilient/time-stopping)
  4  regression — a bench record differs from its pinned record, or has
     none (bench --gate); re-pin by running `dnc bench` and committing
     the appended lines

`--metrics` writes a dnc-metrics/v1 JSON document; `--trace` writes Chrome
trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev).
Span/counter detail needs a build with `--features telemetry`.

`.dnc` format: see the dnc-cli crate documentation.";

/// `dnc <name> <synopsis> [--flag VALUE]...`
fn usage_line(cmd: &Command) -> String {
    let mut s = format!("dnc {}", cmd.name);
    if !cmd.synopsis.is_empty() {
        let _ = write!(s, " {}", cmd.synopsis);
    }
    for f in cmd.flags {
        let _ = write!(s, " [{}]", f.synopsis());
    }
    s
}

/// `dnc help`, generated from [`COMMANDS`].
fn help_text() -> String {
    let mut s = String::from("usage: dnc <command> [arguments] [options]\n\ncommands:\n");
    for cmd in COMMANDS {
        let _ = writeln!(s, "  {}", usage_line(cmd));
        for line in cmd.about.lines() {
            let _ = writeln!(s, "      {line}");
        }
        for f in cmd.flags {
            let mut help = f.help.lines();
            let _ = write!(
                s,
                "      {:<22} {}",
                f.synopsis(),
                help.next().unwrap_or("")
            );
            for line in help {
                let _ = write!(s, "\n      {:<22} {line}", "");
            }
            if !f.default.is_empty() {
                let _ = write!(s, " (default {})", f.default);
            }
            s.push('\n');
        }
    }
    s.push_str(HELP_TAIL);
    s
}

/// A command line checked against its command's spec.
struct Args {
    positional: Vec<String>,
    /// Given or defaulted values by flag name (a given switch maps to "").
    values: BTreeMap<&'static str, String>,
}

impl Args {
    /// Check `rest` against `cmd`'s spec: every flag known, every value
    /// of its flag's kind, the positional count as the synopsis says.
    fn parse(cmd: &Command, rest: &[String]) -> Result<Args, CliError> {
        let usage = || format!("usage: {}", usage_line(cmd));
        let mut positional = Vec::new();
        let mut values = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                positional.push(arg.clone());
                continue;
            }
            let Some(f) = cmd.flags.iter().find(|f| f.name == arg) else {
                return Err(CliError::new(format!("unknown option {arg}\n{}", usage())));
            };
            let value = match f.kind {
                Switch => "",
                kind => it
                    .next()
                    .filter(|v| !v.starts_with("--") && kind.accepts(v))
                    .ok_or_else(|| CliError::new(format!("{} needs {}", f.name, kind.expects())))?,
            };
            values.insert(f.name, value.to_string());
        }
        if positional.len() != cmd.synopsis.split_whitespace().count() {
            return Err(CliError::new(usage()));
        }
        for f in cmd.flags.iter().filter(|f| !f.default.is_empty()) {
            values
                .entry(f.name)
                .or_insert_with(|| f.default.to_string());
        }
        Ok(Args { positional, values })
    }

    /// Positional argument `i` (the parser checked the count).
    fn pos(&self, i: usize) -> &str {
        self.positional.get(i).map_or("", String::as_str)
    }

    fn switch(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// A flag's value, given or defaulted (the parser checked its kind).
    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.values.get(name).and_then(|v| v.parse().ok())
    }

    /// The value of a flag that has a default.
    fn val<T: std::str::FromStr + Default>(&self, name: &str) -> T {
        self.get(name).unwrap_or_default()
    }
}

/// Entry point: interpret `args` (without the program name).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Err(CliError::new(help_text()));
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::new(format!("unknown command {name:?}\n\n{}", help_text())))?;
    let a = Args::parse(cmd, rest)?;
    match cmd.run {
        Run::Report(f) => f(&a),
        Run::Harness(f) => emit(&f(&a)?, &a.val::<PathBuf>("--out-dir")),
    }
}

/// The shared output path of every harness command: the report, then
/// one `wrote <path>` line per file written under `dir`; exit 1 when the
/// run is unsound.
fn emit(out: &HarnessOutput, dir: &Path) -> Result<String, CliError> {
    let mut text = out.text.clone();
    let written = out
        .write(dir)
        .map_err(|e| CliError::new(format!("{text}cannot write under {}: {e}", dir.display())))?;
    for path in written {
        let _ = writeln!(text, "wrote {}", path.display());
    }
    if out.sound {
        Ok(text)
    } else {
        Err(CliError::with_code(text, EXIT_VIOLATION))
    }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn figure(a: &Args) -> Result<HarnessOutput, CliError> {
    a.pos(0)
        .parse()
        .ok()
        .and_then(dnc_bench::experiments::figure)
        .ok_or_else(|| CliError::new("usage: dnc figure <4|5|6>"))
}

fn chaos_config(a: &Args) -> chaos::ChaosConfig {
    chaos::ChaosConfig {
        scenarios: a.val("--scenarios"),
        seed: a.val("--seed"),
        ticks: a.val("--ticks"),
    }
}

fn churn_config(a: &Args) -> churn::ChurnConfig {
    churn::ChurnConfig {
        seqs: a.val("--seqs"),
        ops: a.val("--ops"),
        seed: a.val("--seed"),
        kill_points: a.val("--kill-points"),
        snapshot_every: a.get("--snapshot-every"),
    }
}

fn torture_config(a: &Args) -> torture::TortureConfig {
    torture::TortureConfig {
        scenarios: a.val("--scenarios"),
        ops: a.val("--ops"),
        seed: a.val("--seed"),
        snapshot_every: a.val("--snapshot-every"),
        stride: a.val("--stride"),
    }
}

fn socket_config(a: &Args) -> socket::SocketConfig {
    socket::SocketConfig {
        clients: a.val("--clients"),
        ops_per_client: a.val("--ops"),
        batch: a.val("--batch"),
        seed: a.val("--seed"),
    }
}

fn throughput_config(a: &Args) -> throughput::ThroughputConfig {
    throughput::ThroughputConfig {
        n: a.val("--n"),
        ops: a.val("--ops"),
        seed: a.val("--seed"),
        ..throughput::ThroughputConfig::default()
    }
}

fn bench_options(a: &Args) -> dnc_bench::runner::BenchOptions {
    dnc_bench::runner::BenchOptions {
        bench_dir: a.val("--bench-dir"),
        stamp: None,
    }
}

/// `dnc bench`: record one exact perf record through
/// [`dnc_bench::runner::run_bench`], then map the outcome onto the
/// unified exit table: harness soundness failures exit 1; with
/// `--gate`, a record that differs from its pinned record, or has none,
/// exits 4.
fn bench(a: &Args) -> Result<String, CliError> {
    let summary = dnc_bench::runner::run_bench(&bench_options(a))
        .map_err(|e| CliError::new(format!("bench: {e}")))?;
    let mut out = summary.text.clone();
    if !summary.sound() {
        let _ = writeln!(out, "bench: harness soundness failure");
        return Err(CliError::with_code(out, EXIT_VIOLATION));
    }
    if a.switch("--gate") && !summary.matches_pins() {
        let _ = writeln!(
            out,
            "bench: gate failed: a new record is not its pinned record"
        );
        return Err(CliError::with_code(out, EXIT_REGRESSION));
    }
    Ok(out)
}

fn serve(a: &Args) -> Result<String, CliError> {
    let path = a.pos(0);
    if a.val::<usize>("--workers") != 1 {
        return Err(CliError::new(
            "--workers accepts only 1: certification is sequential",
        ));
    }
    let (journal, snapshot_every) = (a.get("--journal"), a.get("--snapshot-every"));
    if snapshot_every.is_some() && journal.is_none() {
        return Err(CliError::new("--snapshot-every needs --journal <wal>"));
    }
    let (script, listen) = (a.get("--script"), a.get("--listen"));
    if script.is_none() && listen.is_none() {
        return Err(CliError::new(
            "serve needs --script <requests> or --listen <addr>",
        ));
    }
    let (built, _) = load(path)?;
    let base_deadlines = built
        .deadlines
        .iter()
        .enumerate()
        .filter_map(|(i, d)| {
            d.map(|deadline| dnc_core::admission::Deadline {
                flow: dnc_net::FlowId(i),
                deadline,
            })
        })
        .collect();
    crate::serve::serve(
        &crate::serve::ServeOptions {
            network: path.to_string(),
            script,
            journal,
            queue: a.val("--queue"),
            listen,
            max_conns: a.val("--max-conns"),
            batch: a.val("--batch"),
            drain_timeout: a.val("--drain-timeout"),
            snapshot_every,
        },
        built.net,
        base_deadlines,
    )
}

fn tandem(a: &Args) -> Result<String, CliError> {
    let usage = || CliError::new("usage: dnc tandem <n> <U>");
    let n: usize = a.pos(0).parse().map_err(|_| usage())?;
    let u: Rat = a.pos(1).parse().map_err(|_| usage())?;
    tandem_file(n, u)
}

fn algorithms(which: &str) -> Result<Vec<Box<dyn DelayAnalysis>>, CliError> {
    let one = |name: &str| -> Option<Box<dyn DelayAnalysis>> {
        match name {
            "integrated" => Some(Box::new(Integrated::paper())),
            "decomposed" => Some(Box::new(Decomposed::paper())),
            "service-curve" => Some(Box::new(ServiceCurve::paper())),
            "fifo-family" => Some(Box::new(FifoFamily::default())),
            _ => None,
        }
    };
    if which == "all" {
        Ok(vec![
            one("service-curve").unwrap(),
            one("decomposed").unwrap(),
            one("integrated").unwrap(),
        ])
    } else {
        one(which)
            .map(|a| vec![a])
            .ok_or_else(|| CliError::new(format!("unknown algorithm {which:?}")))
    }
}

/// Optional machine-readable outputs shared by `analyze` and `profile`.
struct ExportSinks {
    metrics: Option<String>,
    trace: Option<String>,
}

impl ExportSinks {
    fn new(a: &Args) -> ExportSinks {
        ExportSinks {
            metrics: a.get("--metrics"),
            trace: a.get("--trace"),
        }
    }

    fn any(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some()
    }

    /// Write whichever outputs were requested, appending a `wrote <path>`
    /// line per file to `out`.
    fn write(
        &self,
        doc: &MetricsDoc,
        events: &[TraceEvent],
        out: &mut String,
    ) -> Result<(), CliError> {
        if let Some(p) = &self.metrics {
            write_metrics(doc, std::path::Path::new(p))
                .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
            let _ = writeln!(out, "wrote {p}");
        }
        if let Some(p) = &self.trace {
            write_trace(events, std::path::Path::new(p))
                .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
            let _ = writeln!(out, "wrote {p}");
        }
        Ok(())
    }
}

/// Hit fraction of the curve/aggregate caches during one profiled run.
const CACHE_HIT_RATE: schema::ColumnMeta = dnc_bench::column("cache hit rate", "");

/// Run every applicable algorithm on `path`, reporting tightness (worst
/// end-to-end bound) against cost (wall time, curve-operation counts).
fn profile(a: &Args) -> Result<String, CliError> {
    let path = a.pos(0);
    let sinks = ExportSinks::new(a);
    let (built, _) = load(path)?;
    let net = &built.net;
    let cyclic = net.topological_order().is_err();

    let rows: Vec<ProfileRow> = if cyclic {
        vec![run_one(net, "time-stopping", &|net| {
            let r = dnc_core::cyclic::TimeStopping::default()
                .analyze(net)
                .map_err(|e| e.to_string())?;
            let iters = r.iterations;
            match r.into_bounds() {
                Some(report) => Ok((report, format!("iters={iters}"))),
                None => Err(format!("did not converge after {iters} iterations")),
            }
        })]
    } else {
        algorithms("all")?
            .iter()
            .map(|alg| run_analysis(net, alg.as_ref()))
            .collect()
    };

    // Tightness is relative to the best (smallest) worst-case bound.
    let best = rows.iter().filter_map(ProfileRow::bound).min();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile {path}: {} servers, {} flows{}",
        net.servers().len(),
        net.flows().len(),
        if cyclic { " (cyclic)" } else { "" }
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>8} {:>10} {:>7} {:>7} {:>6}  notes",
        "algorithm", "worst bound", "vs best", "wall", "conv", "hdev", "hit%"
    );
    let mut algo_series = Series::new(
        "profile.algorithms",
        vec![
            schema::LABEL,
            schema::bound_column(),
            schema::REL_IMPROVEMENT,
            schema::WALL_TIME,
            CACHE_HIT_RATE,
        ],
    );
    for r in &rows {
        let bound = r.bound();
        // Display-only, never fed back into the analysis: the exact
        // quotient of two long-path bounds can overflow `Rat`, so divide
        // the rounded values.
        let ratio = match (bound, best) {
            (Some(b), Some(best)) if best.is_positive() => Some(b.to_f64() / best.to_f64()),
            _ => None,
        };
        let ratio_text = match (bound, ratio) {
            (Some(_), Some(q)) => format!("{q:.2}x"),
            (Some(_), None) => "1.00x".to_string(), // every bound is zero
            (None, _) => "-".to_string(),
        };
        let snap = &r.snap;
        let conv_calls = snap.span_count("curve.conv");
        let hdev_calls = snap.span_count("curve.hdev") + snap.span_count("curve.hdev_general");
        let cache_hits = snap.counter_value("cache.hit");
        let cache_lookups = cache_hits + snap.counter_value("cache.miss");
        // With telemetry compiled out (or a cache-free algorithm) there
        // are no lookups at all — show "-" rather than a fake 0%.
        let hit_rate = (cache_lookups > 0).then(|| cache_hits as f64 / cache_lookups as f64); // audit: allow(float, display-only hit rate; never feeds back into the analysis)
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>8} {:>10} {:>7} {:>7} {:>6}  {}",
            r.name,
            bound.map_or("-".to_string(), |b| format!("{:.4}", b.to_f64())),
            ratio_text,
            format!("{}µs", r.wall_us),
            conv_calls,
            hdev_calls,
            hit_rate.map_or("-".to_string(), |h| format!("{:.0}%", 100.0 * h)),
            r.notes
        );
        algo_series.push_row(vec![
            Cell::Text(r.name.to_string()),
            bound.map_or(Cell::Null, |b| Cell::Num(b.to_f64())),
            ratio.map_or(Cell::Null, Cell::Num),
            Cell::int(r.wall_us),
            hit_rate.map_or(Cell::Null, Cell::Num),
        ]);
    }
    if !dnc_telemetry::enabled() {
        let _ = writeln!(
            out,
            "note: span/counter detail is zero — rebuild with `--features telemetry`"
        );
    }

    if sinks.any() {
        let mut bounds_series = Series::new(
            "profile.bounds",
            vec![schema::LABEL, schema::bound_column()],
        );
        let mut merged = Snapshot::default();
        let mut events: Vec<TraceEvent> = Vec::new();
        for r in rows {
            for f in r.report.iter().flat_map(|report| &report.flows) {
                bounds_series.push_row(vec![
                    Cell::Text(format!("{}/{}", r.name, f.name)),
                    Cell::Num(f.e2e.to_f64()),
                ]);
            }
            merge_namespaced(r.name, r.snap, &mut merged);
            events.extend(r.events);
        }
        let mut doc = MetricsDoc::new("profile", merged)
            .with_meta("scenario", path)
            .with_meta("servers", net.servers().len().to_string())
            .with_meta("flows", net.flows().len().to_string())
            .with_meta(
                "telemetry",
                if dnc_telemetry::enabled() {
                    "on"
                } else {
                    "off"
                },
            );
        doc.series.push(algo_series);
        doc.series.push(bounds_series);
        sinks.write(&doc, &events, &mut out)?;
    }
    Ok(out)
}

fn check(a: &Args) -> Result<String, CliError> {
    let path = a.pos(0);
    let (built, _) = load(path)?;
    let net = &built.net;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} servers, {} flows",
        path,
        net.servers().len(),
        net.flows().len()
    );
    let cyclic = match net.topological_order() {
        Ok(order) => {
            let names: Vec<&str> = order.iter().map(|&s| net.server(s).name.as_str()).collect();
            let _ = writeln!(out, "topological order: {}", names.join(" -> "));
            false
        }
        Err(_) => {
            let _ = writeln!(
                out,
                "topology: CYCLIC (feedforward algorithms unavailable; use time-stopping)"
            );
            true
        }
    };
    let _ = writeln!(out, "servers:");
    for (i, s) in net.servers().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<12} rate {:<6} {:<5} load {:<8} util {:.3}",
            s.name,
            s.rate.to_string(),
            match s.discipline {
                dnc_net::Discipline::Fifo => "fifo",
                dnc_net::Discipline::StaticPriority => "sp",
                dnc_net::Discipline::Gps => "gps",
                dnc_net::Discipline::Edf => "edf",
            },
            net.load(ServerId(i)).to_string(),
            net.utilization(ServerId(i)).to_f64()
        );
    }
    if !cyclic {
        let part = partition(net, PairingStrategy::GreedyChain).expect("feedforward");
        let _ = writeln!(out, "integrated pairing ({} pairs):", part.pair_count());
        for g in &part.groups {
            let names: Vec<&str> = g
                .servers()
                .iter()
                .map(|&s| net.server(s).name.as_str())
                .collect();
            let _ = writeln!(out, "  {}", names.join(" + "));
        }
    }
    Ok(out)
}

fn format_report(out: &mut String, report: &AnalysisReport, deadlines: &[Option<Rat>]) {
    let _ = writeln!(out, "[{}]", report.algorithm);
    for (i, f) in report.flows.iter().enumerate() {
        let verdict = match deadlines.get(i).copied().flatten() {
            Some(d) if f.e2e <= d => "  MEETS",
            Some(_) => "  MISSES",
            None => "",
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>12} = {:>10.4} ticks{}",
            f.name,
            f.e2e.to_string(),
            f.e2e.to_f64(),
            verdict
        );
    }
}

fn analyze(a: &Args) -> Result<String, CliError> {
    let (which, csv): (String, Option<String>) = (a.val("--algo"), a.get("--csv"));
    let (path, which, csv) = (a.pos(0), which.as_str(), csv.as_deref());
    let sinks = ExportSinks::new(a);
    let (built, _) = load(path)?;
    if sinks.any() {
        dnc_telemetry::reset();
    }
    let mut out = String::new();
    let mut csv_rows = String::from("algorithm,flow,name,bound,bound_f64\n");
    let mut bounds_series = Series::new(
        "analyze.bounds",
        vec![schema::LABEL, schema::bound_column()],
    );
    let record = |report: &AnalysisReport, csv_rows: &mut String, bounds_series: &mut Series| {
        for line in report.to_csv().lines().skip(1) {
            csv_rows.push_str(report.algorithm);
            csv_rows.push(',');
            csv_rows.push_str(line);
            csv_rows.push('\n');
        }
        for f in &report.flows {
            bounds_series.push_row(vec![
                Cell::Text(format!("{}/{}", report.algorithm, f.name)),
                Cell::Num(f.e2e.to_f64()),
            ]);
        }
    };
    let finish =
        |mut out: String, csv_rows: String, bounds_series: Series| -> Result<String, CliError> {
            if let Some(p) = csv {
                std::fs::write(p, &csv_rows)
                    .map_err(|e| CliError::new(format!("cannot write {p}: {e}")))?;
                let _ = writeln!(out, "wrote {p}");
            }
            if sinks.any() {
                let mut doc = MetricsDoc::new("analyze", dnc_telemetry::snapshot())
                    .with_meta("scenario", path)
                    .with_meta("algo", which);
                doc.series.push(bounds_series);
                sinks.write(&doc, &dnc_telemetry::take_trace(), &mut out)?;
            }
            Ok(out)
        };
    let cyclic = built.net.topological_order().is_err();
    if which == "resilient" || which == "time-stopping" || (cyclic && which == "all") {
        let r = ResilientRunner::default().analyze(&built.net);
        match r.bounds() {
            Some(report) => {
                let _ = writeln!(
                    out,
                    "# resilient: answered at tier {} ({})",
                    r.tier(),
                    r.chain_summary()
                );
                format_report(&mut out, report, &built.deadlines);
                record(report, &mut csv_rows, &mut bounds_series);
                return finish(out, csv_rows, bounds_series);
            }
            None => {
                // Divergence / budget exhaustion gets its own exit code so
                // scripts can tell "no valid bound" from usage errors.
                let chain = r.chain_summary();
                let message = format!("no valid bound within budget; degradation chain: {chain}");
                return Err(CliError::with_code(message, EXIT_NO_BOUND));
            }
        }
    }
    if cyclic {
        return Err(CliError::new(
            "network is cyclic: only `--algo time-stopping` (or `resilient`) applies",
        ));
    }
    for alg in algorithms(which)? {
        match alg.analyze(&built.net) {
            Ok(report) => {
                format_report(&mut out, &report, &built.deadlines);
                record(&report, &mut csv_rows, &mut bounds_series);
            }
            Err(e) => {
                let _ = writeln!(out, "[{}] failed: {e}", alg.name());
            }
        }
    }
    finish(out, csv_rows, bounds_series)
}

fn backlog(a: &Args) -> Result<String, CliError> {
    let (built, _) = load(a.pos(0))?;
    let bounds = backlog_bounds(&built.net, OutputCap::Shift)
        .map_err(|e| CliError::new(format!("analysis failed: {e}")))?;
    let mut out = String::from("worst-case buffer requirements (cells):\n");
    for (i, s) in built.net.servers().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<12} {:>10} = {:>9.3}",
            s.name,
            bounds[i].to_string(),
            bounds[i].to_f64()
        );
    }
    Ok(out)
}

fn simulate_cmd(a: &Args) -> Result<String, CliError> {
    let (built, _) = load(a.pos(0))?;
    let net = &built.net;
    let cfg = SimConfig {
        ticks: a.val("--ticks"),
        seed: a.val("--seed"),
        ..SimConfig::default()
    };
    let greedy = simulate(net, &all_greedy(net), &cfg);
    // A second, randomized workload for contrast.
    let onoff = vec![
        SourceModel::OnOff {
            on: 8,
            off: 8,
            phase: 3,
        };
        net.flows().len()
    ];
    let random = simulate(net, &onoff, &cfg);
    let bound = Integrated::paper()
        .analyze(net)
        .map_err(|e| CliError::new(format!("analysis failed: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>9} {:>9} {:>12}",
        "flow", "greedy", "on-off", "bound", "verdict"
    );
    let mut violations = 0;
    for (i, f) in net.flows().iter().enumerate() {
        let worst = greedy.flows[i].max_delay.max(random.flows[i].max_delay);
        let b = bound.flows[i].e2e;
        let ok = Rat::from(worst as i64) <= b;
        if !ok {
            violations += 1;
        }
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9} {:>9.3} {:>12}",
            f.name,
            greedy.flows[i].max_delay,
            random.flows[i].max_delay,
            b.to_f64(),
            if ok { "ok" } else { "VIOLATION" }
        );
    }
    if violations > 0 {
        let message = format!("{out}\n{violations} bound violation(s)");
        return Err(CliError::with_code(message, EXIT_VIOLATION));
    }
    Ok(out)
}

/// For every flow with a deadline that crosses GPS servers, find the
/// minimal uniform reservation (on a 1/64 grid) that certifies the
/// deadline, allocating flows greedily in declaration order.
fn provision(a: &Args) -> Result<String, CliError> {
    use dnc_net::Discipline;
    let (built, spec) = load(a.pos(0))?;
    let mut net = built.net.clone();
    let mut gps_flows: Vec<usize> = (0..net.flows().len())
        .filter(|&i| {
            built.deadlines[i].is_some()
                && net.flows()[i]
                    .route
                    .iter()
                    .any(|&s| net.server(s).discipline == Discipline::Gps)
        })
        .collect();
    // Allocate the tightest deadlines first so loose flows cannot starve
    // urgent ones.
    gps_flows.sort_by_key(|&i| built.deadlines[i].expect("filtered"));
    if gps_flows.is_empty() {
        return Err(CliError::new(
            "provision: no flow has both a deadline and a GPS hop",
        ));
    }

    let analyzer = Decomposed::paper();
    let mut out = String::from(
        "minimal GPS reservations meeting the deadlines (1/64 grid):
",
    );
    for &i in &gps_flows {
        let f = dnc_net::FlowId(i);
        let deadline = built.deadlines[i].expect("filtered");
        let gps_hops: Vec<dnc_net::ServerId> = net.flows()[i]
            .route
            .iter()
            .copied()
            .filter(|&s| net.server(s).discipline == Discipline::Gps)
            .collect();
        // Sustained rate is the floor; search upward on the grid.
        let floor = net.flows()[i].spec.sustained_rate();
        let mut chosen: Option<Rat> = None;
        for k in 1..=256u32 {
            let r = floor + Rat::new(k as i128, 64);
            let mut trial = net.clone();
            for &s in &gps_hops {
                trial.reserve(f, s, r);
            }
            if trial.validate().is_err() {
                break; // ran out of capacity
            }
            if let Ok(rep) = analyzer.analyze(&trial) {
                if rep.bound(f) <= deadline {
                    chosen = Some(r);
                    net = trial;
                    break;
                }
            }
        }
        let name = &spec.flows[i].name;
        match chosen {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  {:<14} reserve {:>8}  (deadline {}, bound {:.3})",
                    name,
                    r.to_string(),
                    deadline,
                    analyzer.analyze(&net).unwrap().bound(f).to_f64()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<14} INFEASIBLE within remaining capacity (deadline {deadline})",
                    name
                );
            }
        }
    }
    Ok(out)
}

/// Emit the paper's `n`-switch tandem at work load `U` as a `.dnc`
/// document (σ = 1, ρ = U/4, unit links, unit peaks).
fn tandem_file(n: usize, u: Rat) -> Result<String, CliError> {
    if n == 0 {
        return Err(CliError::new("tandem: n must be at least 1"));
    }
    if !u.is_positive() || u >= Rat::ONE {
        return Err(CliError::new("tandem: U must be in (0, 1)"));
    }
    let rho = u / Rat::from(4);
    let mut out = format!("# ICPP'99 evaluation tandem: n = {n}, U = {u} (rho = {rho})\n");
    for j in 0..n {
        let _ = writeln!(out, "server L{j} rate 1 fifo");
    }
    let route: Vec<String> = (0..n).map(|j| format!("L{j}")).collect();
    let _ = writeln!(
        out,
        "flow conn0 route {} bucket 1 {rho} peak 1 prio 1",
        route.join(" ")
    );
    for j in 0..n {
        let _ = writeln!(out, "flow upper{j} route L{j} bucket 1 {rho} peak 1");
        if j + 1 < n {
            let _ = writeln!(
                out,
                "flow lower{j} route L{j} L{} bucket 1 {rho} peak 1",
                j + 1
            );
        } else {
            let _ = writeln!(out, "flow lower{j} route L{j} bucket 1 {rho} peak 1");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnc_service::fs::ScratchDir;

    /// A two-server sample network in a private scratch directory.
    fn sample_file() -> (ScratchDir, String) {
        let dir = ScratchDir::new("cli");
        let path = dir.join("sample.dnc");
        std::fs::write(
            &path,
            "\
server L0 rate 1 fifo
server L1 rate 1 fifo
flow conn0 route L0 L1 bucket 1 1/8 peak 1 deadline 10
flow upper0 route L0 bucket 1 1/8 peak 1
flow upper1 route L1 bucket 1 1/8 peak 1
",
        )
        .unwrap();
        (dir, path.display().to_string())
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Run one command line, its arguments split on whitespace.
    fn dnc(line: &str) -> Result<String, CliError> {
        run(&args(&line.split_whitespace().collect::<Vec<_>>()))
    }

    #[test]
    fn check_reports_structure() {
        let (_dir, p) = sample_file();
        let out = dnc(&format!("check {p}")).unwrap();
        assert!(out.contains("2 servers, 3 flows"));
        assert!(out.contains("topological order: L0 -> L1"));
        assert!(out.contains("integrated pairing (1 pairs)"));
    }

    #[test]
    fn analyze_all_algorithms() {
        let (_dir, p) = sample_file();
        let out = dnc(&format!("analyze {p} --algo all")).unwrap();
        assert!(out.contains("[decomposed]"));
        assert!(out.contains("[integrated]"));
        assert!(out.contains("[service-curve]"));
        assert!(out.contains("conn0"));
        assert!(out.contains("MEETS") || out.contains("MISSES"));
    }

    #[test]
    fn analyze_csv_output() {
        let (dir, p) = sample_file();
        let csv_path = dir.join("out.csv");
        let csv = csv_path.display();
        let out = dnc(&format!("analyze {p} --algo integrated --csv {csv}")).unwrap();
        assert!(out.contains("[integrated]") && !out.contains("[decomposed]"));
        assert!(out.contains("wrote"));
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("algorithm,flow,name,bound,bound_f64"));
        assert!(csv.contains("integrated,0,conn0,"));
        assert_eq!(csv.lines().count(), 4, "header + three flows");
    }

    fn write_script(dir: &Path, name: &str, text: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    /// `dnc serve <sample network> --script <requests> <options>`.
    fn serve_script(requests: &str, options: &str) -> Result<String, CliError> {
        let (dir, p) = sample_file();
        let script = write_script(&dir, "requests.txt", requests);
        dnc(&format!("serve {p} --script {script} {options}"))
    }

    #[test]
    fn serve_admits_releases_and_queries() {
        let script = "\
# one connection in, inspected, then out again
admit a route L0 L1 bucket 1 1/8 deadline 40
query
release a
query
";
        let out = serve_script(script, "").unwrap();
        assert!(out.contains("ADMIT   a: certified"), "{out}");
        assert!(out.contains("QUERY   1 admitted"), "{out}");
        assert!(out.contains("RELEASE a: ok"), "{out}");
        assert!(out.contains("QUERY   0 admitted"), "{out}");
        assert!(out.contains("2 commit(s)"), "{out}");
    }

    #[test]
    fn serve_rejects_an_impossible_deadline() {
        let script = "admit hopeless route L0 L1 bucket 1 1/8 deadline 1/1000\n";
        let out = serve_script(script, "").unwrap();
        assert!(out.contains("REJECT  hopeless:"), "{out}");
        assert!(out.contains("1 rollback(s)"), "{out}");
        assert!(out.contains("0 connection(s) admitted"), "{out}");
    }

    #[test]
    fn serve_recovers_committed_state_from_the_journal() {
        let (dir, p) = sample_file();
        let journal = dir.join("serve-recovery.wal");
        let journal = journal.display();
        let first = write_script(
            &dir,
            "serve-recovery-1.txt",
            "admit durable route L0 L1 bucket 1 1/8 deadline 40\n",
        );
        let out = dnc(&format!("serve {p} --script {first} --journal {journal}")).unwrap();
        assert!(out.contains("ADMIT   durable"), "{out}");

        let second = write_script(&dir, "serve-recovery-2.txt", "query\n");
        let out = dnc(&format!("serve {p} --script {second} --journal {journal}")).unwrap();
        assert!(
            out.contains("recovery: replayed 1 committed operation(s), 1 connection(s) live"),
            "{out}"
        );
        assert!(out.contains("QUERY   1 admitted"), "{out}");
        assert!(out.contains("durable"), "{out}");
    }

    #[test]
    fn serve_sheds_under_overload() {
        let script = "\
admit a route L0 L1 bucket 1 1/8 deadline 50
admit b route L0 L1 bucket 1 1/8 deadline 30
admit c route L0 L1 bucket 1 1/8 deadline 90
";
        let out = serve_script(script, "--queue 1").unwrap();
        // Capacity 1: `b` (tighter) displaces `a`; `c` (loosest) is shed
        // outright; only `b` reaches certification.
        assert!(
            out.contains("SHED    a: displaced by a tighter-deadline admit"),
            "{out}"
        );
        assert!(
            out.contains("SHED    c: queue full; deadline looser than all queued admits"),
            "{out}"
        );
        assert!(out.contains("ADMIT   b: certified"), "{out}");
        assert!(out.contains("2 shed(s)"), "{out}");
    }

    #[test]
    fn serve_workers_accepts_only_one() {
        let script = "admit a route L0 L1 bucket 1 1/8 deadline 40\n";
        let err = serve_script(script, "--workers 2").unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        assert!(err.message.contains("sequential"), "{}", err.message);
        let out = serve_script(script, "--workers 1").unwrap();
        assert_eq!(out, serve_script(script, "").unwrap());
        assert!(out.contains("ADMIT   a: certified"), "{out}");
    }

    #[test]
    fn serve_usage_errors_exit_2() {
        let (_dir, p) = sample_file();
        // No --script at all.
        let err = dnc(&format!("serve {p}")).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        // A script line the grammar rejects.
        let err = serve_script("admit x route L0 bucket 1 1/8\n", "").unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        assert!(err.message.contains("deadline"), "{}", err.message);
        // An unknown server name.
        let err = serve_script("admit x route L9 bucket 1 1/8 deadline 5\n", "").unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
        assert!(err.message.contains("unknown server"), "{}", err.message);
    }

    #[test]
    fn backlog_lists_every_server() {
        let (_dir, p) = sample_file();
        let out = dnc(&format!("backlog {p}")).unwrap();
        assert!(out.contains("L0"));
        assert!(out.contains("L1"));
    }

    #[test]
    fn simulate_reports_ok() {
        let (_dir, p) = sample_file();
        let out = dnc(&format!("simulate {p} --ticks 2048 --seed 7")).unwrap();
        assert!(out.contains("conn0"));
        assert!(out.contains("ok"));
        assert!(!out.contains("VIOLATION"));
    }

    #[test]
    fn bad_inputs_fail_cleanly() {
        assert!(dnc("analyze /nonexistent.dnc").is_err());
        assert!(dnc("frobnicate").is_err());
        for line in ["figure 7", "figure", "figure 4 5"] {
            assert_eq!(dnc(line).unwrap_err().code, EXIT_USAGE, "{line}");
        }
        assert!(run(&args(&[])).is_err());
        let (_dir, p) = sample_file();
        assert!(dnc(&format!("analyze {p} --algo magic")).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = dnc("help").unwrap();
        assert!(out.contains("usage: dnc"));
        assert_eq!(dnc("--help").unwrap(), out);
    }

    #[test]
    fn every_command_is_in_help_and_parses_flags_one_way() {
        let help = dnc("help").unwrap();
        for cmd in COMMANDS {
            let name = cmd.name;
            assert!(help.contains(&usage_line(cmd)), "{name} missing from help");
            let err = run(&args(&[name, "--bogus"])).unwrap_err();
            assert_eq!(err.code, EXIT_USAGE, "{name}: {}", err.message);
            assert!(err.message.contains("unknown option --bogus"), "{name}");
            if matches!(cmd.run, Run::Harness(_)) {
                assert!(cmd.flags.iter().any(|f| f.name == "--out-dir"), "{name}");
            }
            for f in cmd.flags.iter().filter(|f| !matches!(f.kind, Switch)) {
                let err = run(&args(&[name, f.name])).unwrap_err();
                assert_eq!(err.code, EXIT_USAGE, "{name} {} without a value", f.name);
                assert!(err.message.contains("needs"), "{name} {}", f.name);
                let d = f.default;
                assert!(d.is_empty() || f.kind.accepts(d), "{name}: bad default {d}");
                if let Int(min) = f.kind {
                    let below = min.checked_sub(1).map(|m| m.to_string());
                    for bad in ["x".to_string()].into_iter().chain(below) {
                        let err = run(&args(&[name, f.name, &bad])).unwrap_err();
                        assert_eq!(err.code, EXIT_USAGE, "{name} {} {bad}", f.name);
                    }
                }
                let workers_ok = f.name != "--workers" || matches!(f.kind, Int(1));
                assert!(workers_ok, "{name}: --workers 0 must be an error");
            }
        }
    }

    #[test]
    fn harness_flag_defaults_match_the_library_configs() {
        fn library_default<T: Default>(_: &T) -> T {
            T::default()
        }
        macro_rules! same {
            ($config:ident, $cmd:literal) => {{
                let cmd = COMMANDS.iter().find(|c| c.name == $cmd).unwrap();
                let cli = $config(&Args::parse(cmd, &[]).unwrap());
                let lib = library_default(&cli);
                assert_eq!(format!("{cli:?}"), format!("{lib:?}"), $cmd);
            }};
        }
        same!(chaos_config, "chaos");
        same!(churn_config, "churn");
        same!(torture_config, "torture");
        same!(socket_config, "socket");
        same!(throughput_config, "throughput");
        same!(bench_options, "bench");
    }

    #[test]
    fn an_unsound_harness_writes_its_files_then_exits_1() {
        let dir = ScratchDir::new("cli-emit");
        let out = HarnessOutput::new("probe", "ORDER VIOLATION\n".to_string(), Vec::new(), false)
            .with_file("probe.csv".to_string(), "a,b\n".to_string());
        let err = emit(&out, &dir).unwrap_err();
        assert_eq!(err.code, EXIT_VIOLATION);
        assert!(
            err.message.starts_with("ORDER VIOLATION\nwrote "),
            "{err:?}"
        );
        assert!(dir.join("probe.csv").exists());
        let json = std::fs::read_to_string(dir.join("metrics-probe.json")).unwrap();
        schema::validate_metrics(&json).unwrap();
    }

    fn ring_file() -> (ScratchDir, String) {
        let dir = ScratchDir::new("cli-ring");
        let path = dir.join("ring.dnc");
        std::fs::write(
            &path,
            "\
server r0 rate 1
server r1 rate 1
server r2 rate 1
flow f0 route r0 r1 bucket 1 1/8 peak 1
flow f1 route r1 r2 bucket 1 1/8 peak 1
flow f2 route r2 r0 bucket 1 1/8 peak 1
",
        )
        .unwrap();
        (dir, path.display().to_string())
    }

    #[test]
    fn cyclic_file_is_checked_and_analyzed() {
        let (_dir, p) = ring_file();
        let out = dnc(&format!("check {p}")).unwrap();
        assert!(out.contains("CYCLIC"));
        // `analyze` with the default routes through the resilient chain,
        // which answers via time-stopping at the decomposed tier.
        let out = dnc(&format!("analyze {p}")).unwrap();
        assert!(out.contains("[time-stopping]"));
        assert!(out.contains("answered at tier decomposed"), "{out}");
        assert!(out.contains("integrated: inapplicable"), "{out}");
        // Feedforward-only algorithms are refused with a clear message.
        let err = dnc(&format!("analyze {p} --algo integrated")).unwrap_err();
        assert!(err.message.contains("cyclic"));
    }

    #[test]
    fn resilient_algo_on_feedforward_reports_tier() {
        let (_dir, p) = sample_file();
        let out = dnc(&format!("analyze {p} --algo resilient")).unwrap();
        assert!(out.contains("answered at tier integrated"), "{out}");
        assert!(out.contains("[integrated]"), "{out}");
    }

    #[test]
    fn diverging_ring_exits_with_no_bound_code() {
        // 5-ring with full-circumference flows past the time-stopping
        // amplification threshold: the chain must end at the explicit
        // Unbounded tier with its dedicated exit code.
        let dir = ScratchDir::new("cli-heavy");
        let path = dir.join("heavy-ring.dnc");
        let mut text = String::new();
        for i in 0..5 {
            text.push_str(&format!("server r{i} rate 1\n"));
        }
        for k in 0..5u32 {
            let route: Vec<String> = (0..5).map(|j| format!("r{}", (k + j) % 5)).collect();
            text.push_str(&format!(
                "flow f{k} route {} bucket 2 3/20\n",
                route.join(" ")
            ));
        }
        std::fs::write(&path, text).unwrap();
        let err = dnc(&format!("analyze {}", path.display())).unwrap_err();
        assert_eq!(err.code, EXIT_NO_BOUND);
        assert!(err.message.contains("no valid bound"), "{}", err.message);
        assert!(err.message.contains("decomposed"), "{}", err.message);
    }

    #[test]
    fn provision_allocates_reservations() {
        let dir = ScratchDir::new("cli-prov");
        let path = dir.join("prov.dnc");
        std::fs::write(
            &path,
            "\
server core rate 2 gps
flow video route core bucket 8 1/8 peak 1 deadline 20
flow voice route core bucket 1 1/16 peak 1 deadline 8
",
        )
        .unwrap();
        let out = dnc(&format!("provision {}", path.display())).unwrap();
        assert!(out.contains("video"));
        assert!(out.contains("voice"));
        assert!(out.contains("reserve"), "at least one allocation: {out}");
        assert!(!out.contains("INFEASIBLE"), "both must fit: {out}");
        // A FIFO-only file is rejected with a clear message.
        let fifo = dir.join("fifo.dnc");
        std::fs::write(
            &fifo,
            "server a rate 1\nflow f route a bucket 1 1/8 deadline 5\n",
        )
        .unwrap();
        assert!(dnc(&format!("provision {}", fifo.display())).is_err());
    }

    #[test]
    fn tandem_generator_round_trips() {
        // Generate the paper tandem, parse it back, and verify it matches
        // the builder exactly (same bounds).
        use dnc_net::builders::{tandem, TandemOptions};
        let text = dnc("tandem 4 3/5").unwrap();
        let spec = crate::parse::parse_spec(&text).unwrap();
        let built = spec.build().unwrap();
        built.net.validate().unwrap();
        let t = tandem(4, Rat::ONE, Rat::new(3, 20), TandemOptions::default());
        let from_file = Integrated::paper().analyze(&built.net).unwrap();
        let from_builder = Integrated::paper().analyze(&t.net).unwrap();
        let conn0 = spec.flow_id("conn0").unwrap();
        assert_eq!(from_file.bound(conn0), from_builder.bound(t.conn0));
    }

    #[test]
    fn profile_compares_all_algorithms() {
        let (_dir, p) = sample_file();
        let out = dnc(&format!("profile {p}")).unwrap();
        assert!(out.contains("service-curve"));
        assert!(out.contains("decomposed"));
        assert!(out.contains("integrated"));
        assert!(out.contains("vs best"));
        // Exactly one algorithm is the 1.00x baseline (or all tie).
        assert!(out.contains("1.00x"), "{out}");
    }

    #[test]
    fn profile_of_a_long_tandem_exits_zero() {
        // The exact quotient of two n = 20 bounds overflows `Rat`; the
        // display-only "vs best" column must not abort the command.
        let dir = ScratchDir::new("cli-tandem20");
        let path = dir.join("t20.dnc");
        std::fs::write(&path, dnc("tandem 20 3/10").unwrap()).unwrap();
        let out = dnc(&format!("profile {}", path.display())).unwrap();
        let algos = ["service-curve", "decomposed", "integrated"];
        let rows = out
            .lines()
            .filter(|l| algos.iter().any(|a| l.starts_with(a)))
            .count();
        assert_eq!(rows, 3, "{out}");
        assert!(!out.contains("failed"), "{out}");
    }

    #[test]
    fn profile_cyclic_uses_time_stopping() {
        let (_dir, p) = ring_file();
        let out = dnc(&format!("profile {p}")).unwrap();
        assert!(out.contains("(cyclic)"));
        assert!(out.contains("time-stopping"));
        assert!(out.contains("iters="), "{out}");
    }

    #[test]
    fn profile_writes_valid_metrics_and_trace() {
        let (dir, p) = sample_file();
        let metrics = dir.join("profile-metrics.json");
        let trace = dir.join("profile-trace.json");
        let (m, t) = (metrics.display(), trace.display());
        let out = dnc(&format!("profile {p} --metrics {m} --trace {t}")).unwrap();
        assert_eq!(out.matches("wrote ").count(), 2, "{out}");
        let mjson = std::fs::read_to_string(&metrics).unwrap();
        dnc_telemetry::schema::validate_metrics(&mjson).unwrap();
        assert!(mjson.contains("\"profile.algorithms\""));
        assert!(mjson.contains("integrated"));
        let tjson = std::fs::read_to_string(&trace).unwrap();
        dnc_telemetry::schema::validate_trace(&tjson).unwrap();
        if dnc_telemetry::enabled() {
            assert!(mjson.contains("integrated/algo.integrated"));
            assert!(tjson.contains("algo.decomposed"));
        }
    }

    #[test]
    fn analyze_metrics_flag_writes_valid_json() {
        let (dir, p) = sample_file();
        let metrics = dir.join("analyze-metrics.json");
        let m = metrics.display();
        dnc(&format!("analyze {p} --algo integrated --metrics {m}")).unwrap();
        let mjson = std::fs::read_to_string(&metrics).unwrap();
        dnc_telemetry::schema::validate_metrics(&mjson).unwrap();
        assert!(mjson.contains("integrated/conn0"));
    }

    #[test]
    fn tandem_generator_rejects_bad_params() {
        assert!(dnc("tandem 0 1/2").is_err());
        assert!(dnc("tandem 4 1").is_err());
        assert!(dnc("tandem 4").is_err());
    }
}
