//! The pair-bound memo serves every Integrated run: a second identical
//! `Integrated::paper().analyze(&net)` in one process computes no pair
//! bound. This binary holds a single test, so the process-global
//! telemetry counters see only its own analyses.

use dnc_core::integrated::Integrated;
use dnc_core::DelayAnalysis;
use dnc_net::builders::{tandem, TandemOptions};
use dnc_num::{int, rat};

#[test]
fn second_identical_analysis_computes_no_pair_bound() {
    let t = tandem(8, int(1), rat(5, 64), TandemOptions::default());
    let computed = || dnc_telemetry::snapshot().counter_value("core.pair_bound.calls");
    let cold = Integrated::paper().analyze(&t.net).unwrap();
    let after_cold = computed();
    let warm = Integrated::paper().analyze(&t.net).unwrap();
    assert_eq!(cold, warm, "memo hits must be Rat-exact");
    if dnc_telemetry::enabled() {
        assert!(after_cold > 0, "the cold run computes its pair bounds");
        assert_eq!(
            computed(),
            after_cold,
            "the warm run must answer every pair from the memo"
        );
    }
}
