//! The FIFO admission path interns no curve: every local delay and pair
//! bound of a FIFO network with peak-capped flows takes the one-pass
//! horizontal deviation, so a cold analysis and an incremental splice
//! leave the process-global interner empty, which keeps a long-running
//! `dnc serve` from growing it per request. The interner is
//! process-global, so this binary holds a single test.

use dnc_core::integrated::Integrated;
use dnc_core::DelayAnalysis;
use dnc_net::builders::{tandem, TandemOptions};
use dnc_net::{Flow, FlowId};
use dnc_num::{int, rat};
use dnc_traffic::TrafficSpec;

#[test]
fn fifo_analysis_and_splice_intern_nothing() {
    let t = tandem(8, int(1), rat(5, 64), TandemOptions::default());
    let alg = Integrated::paper();
    let (cold, trace) = alg.analyze_traced(&t.net).unwrap();

    // A warm re-certification of the unchanged network, seeded at the
    // middle links, replays the clean units and recomputes the rest.
    let warm = alg
        .analyze_incremental(&t.net, &trace, &t.middle[3..5])
        .unwrap()
        .expect("an unchanged network keeps its partition");
    assert_eq!(warm.report, cold, "warm and cold reports must be Rat-exact");

    // Admit a peak-capped flow and splice it in.
    let mut grown = t.net.clone();
    let route = t.middle[2..5].to_vec();
    grown
        .add_flow(Flow {
            name: "extra".into(),
            spec: TrafficSpec::paper_source(int(2), rat(1, 32)),
            route: route.clone(),
            priority: 0,
        })
        .unwrap();
    let spliced = alg
        .analyze_incremental(&grown, &warm.trace, &route)
        .unwrap()
        .expect("a tandem admit keeps the partition");
    assert_eq!(spliced.report, alg.analyze(&grown).unwrap());
    assert!(spliced
        .report
        .bound(FlowId(grown.flows().len() - 1))
        .is_positive());

    assert_eq!(
        dnc_curves::intern::store_len(),
        0,
        "the FIFO path must intern no curve"
    );
}
