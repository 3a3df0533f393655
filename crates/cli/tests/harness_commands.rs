//! Every harness command — the paper's figures, our extensions of the
//! evaluation, and the soundness falsifiers — run end to end into a
//! private `--out-dir`: the report prints, exactly the files it names
//! are written, and the metrics document validates against
//! `dnc-metrics/v1`.

use dnc_cli::commands::run;
use dnc_service::fs::ScratchDir;
use dnc_telemetry::schema;

/// Run `dnc <line> --out-dir <scratch>`; check that exactly `files`
/// were written (in order) and reported, and return the report.
fn run_into(line: &str, files: &[&str]) -> String {
    let dir = ScratchDir::new("cli-harness");
    let mut argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    argv.extend(["--out-dir".to_string(), dir.display().to_string()]);
    let out = run(&argv).unwrap_or_else(|e| panic!("dnc {line}: exit {}\n{}", e.code, e.message));
    let reported: Vec<&str> = out.lines().filter(|l| l.starts_with("wrote ")).collect();
    let expected: Vec<String> = files
        .iter()
        .map(|f| format!("wrote {}", dir.join(f).display()))
        .collect();
    assert_eq!(reported, expected, "{out}");
    for f in files {
        let body = std::fs::read_to_string(dir.join(f)).unwrap();
        assert!(!body.is_empty(), "{f} is empty");
        if f.ends_with(".json") {
            schema::validate_metrics(&body).unwrap_or_else(|e| panic!("{f}: {e}"));
        }
    }
    assert_eq!(std::fs::read_dir(&*dir).unwrap().count(), files.len());
    out
}

/// One test per harness command: `name: "command line" => [files] contains "report text"`.
macro_rules! harness_tests {
    ($($name:ident: $line:literal => [$($file:literal),*] $(contains $text:literal)?;)*) => {$(
        #[test]
        fn $name() {
            let _out = run_into($line, &[$($file),*]);
            $(assert!(_out.contains($text), "{_out}");)?
        }
    )*};
}

harness_tests! {
    figure_4: "figure 4" => ["fig4.csv", "fig4.svg", "metrics-fig4.json"] contains "== n = 8 hops ==";
    figure_5: "figure 5" => ["fig5.csv", "fig5.svg", "metrics-fig5.json"];
    figure_6: "figure 6" => ["fig6.csv", "fig6.svg", "metrics-fig6.json"];
    modern: "modern" => ["modern.csv", "metrics-modern.json"];
    validate: "validate" => ["validate.csv", "metrics-validate.json"]
        contains "all observed delays within all bounds";
    admission: "admission" => ["admission.csv", "metrics-admission.json"];
    tightness: "tightness" => ["tightness.csv", "metrics-tightness.json"];
    disciplines: "disciplines" => ["disciplines.csv", "metrics-disciplines.json"];
    chaos: "chaos --scenarios 3 --seed 5 --ticks 256" => ["metrics-chaos.json"]
        contains "3 scenarios, seed 5, 256 ticks";
    chaos_replay: "chaos --scenarios 4 --seed 11 --ticks 256 --scenario 2" => []
        contains "chaos replay: scenario 2 of seed 11";
    churn: "churn --seqs 2 --ops 10 --seed 5 --kill-points 3" => ["metrics-churn.json"]
        contains "no certification or recovery violations";
    churn_replay: "churn --seqs 2 --ops 10 --seed 5 --kill-points 3 --seq 1" => []
        contains "no certification or recovery violations";
    churn_with_snapshots: "churn --seqs 1 --ops 8 --snapshot-every 2" => ["metrics-churn.json"];
    torture: "torture --scenarios 1 --ops 6 --stride 3" => ["metrics-torture.json"];
    socket: "socket --clients 2 --ops 4 --batch 4" => ["metrics-socket.json"];
    throughput: "throughput --n 4 --ops 8" => ["metrics-throughput.json"];
}
