//! Property tests for the fast-path engine: worker-count invariance of
//! the parallel fan-out and Rat-exactness of incremental
//! re-certification against the from-scratch analysis.

use dnc_core::integrated::Integrated;
use dnc_core::DelayAnalysis;
use dnc_net::builders::{random_feedforward, tandem, TandemOptions};
use dnc_net::Flow;
use dnc_num::{int, rat};
use dnc_traffic::TrafficSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fanning pairing groups over worker threads must not change a
    /// single byte of the report: the wave schedule fixes both what each
    /// worker sees and the merge order.
    #[test]
    fn worker_count_never_changes_the_report(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_feedforward(&mut rng, 5, 7, 4, rat(3, 4), true);
        let sequential = Integrated::paper().analyze(&net);
        for workers in [2usize, 8] {
            let parallel = Integrated::paper().with_workers(workers).analyze(&net);
            match (&sequential, &parallel) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(
                        a.to_csv(), b.to_csv(),
                        "workers={} diverged from sequential", workers
                    );
                    for (fa, fb) in a.flows.iter().zip(b.flows.iter()) {
                        prop_assert_eq!(fa.e2e, fb.e2e);
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                _ => prop_assert!(
                    false,
                    "sequential and workers={} disagree on success", workers
                ),
            }
        }
    }

    /// Randomized admit + release against the incremental splice: every
    /// answer it gives is Rat-exact equal to a from-scratch analysis,
    /// and an empty mutation (no dirty servers) replays the previous
    /// certification identically with zero recomputed units.
    #[test]
    fn incremental_recertification_is_exact(
        n in 3usize..6,
        start in 0usize..8,
        len in 1usize..4,
        sigma_halves in 1i128..4,
        rho_64ths in 1i128..5,
    ) {
        let t = tandem(n, int(1), rat(1, 16), TandemOptions::default());
        let alg = Integrated::paper();
        let (base_report, base_trace) = alg
            .analyze_traced(&t.net)
            .expect("tandem analyzes");

        // No mutation: the splice must apply, recompute nothing, and
        // reproduce the certification bit-for-bit.
        let idle = alg
            .analyze_incremental(&t.net, &base_trace, &[])
            .expect("tandem analyzes")
            .expect("unchanged partition always splices");
        prop_assert_eq!(idle.dirty_units, 0);
        prop_assert_eq!(idle.report.to_csv(), base_report.to_csv());

        // Admit a new flow over a random contiguous span of the middle
        // links, then release it again. The splice may bail (`None`)
        // when the extra flow changes the pairing partition — that is
        // the documented fallback, not a failure.
        let start = start % t.middle.len();
        let len = len.min(t.middle.len() - start);
        let route: Vec<_> = t.middle[start..start + len].to_vec();
        let mut grown = t.net.clone();
        let victim = grown
            .add_flow(Flow {
                name: "extra".into(),
                spec: TrafficSpec::paper_source(
                    rat(sigma_halves, 2),
                    rat(rho_64ths, 64),
                ),
                route: route.clone(),
                priority: 0,
            })
            .expect("light extra flow is valid");
        let admitted = alg
            .analyze_incremental(&grown, &base_trace, &route)
            .expect("grown tandem analyzes");
        if let Some(out) = admitted {
            let scratch = alg.analyze(&grown).expect("grown tandem analyzes");
            prop_assert_eq!(out.report.to_csv(), scratch.to_csv());
            for (a, b) in out.report.flows.iter().zip(scratch.flows.iter()) {
                prop_assert_eq!(a.e2e, b.e2e);
            }

            // Release: shift the trace's flow ids past the victim and
            // splice back down to the original network.
            let mut back = grown.clone();
            back.remove_flow(victim).expect("victim is live");
            let mut prev = out.trace.clone();
            prev.remap_release(victim);
            let released = alg
                .analyze_incremental(&back, &prev, &route)
                .expect("shrunk tandem analyzes");
            if let Some(out) = released {
                prop_assert_eq!(out.report.to_csv(), base_report.to_csv());
            }
        }
    }
}
