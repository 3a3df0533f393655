//! Property tests for the fast-path engine: Algorithm Decomposed is
//! Algorithm Integrated over the singleton partition, and incremental
//! re-certification is Rat-exact against the from-scratch analysis.

use dnc_core::decomposed::Decomposed;
use dnc_core::integrated::Integrated;
use dnc_core::DelayAnalysis;
use dnc_net::builders::{random_feedforward, tandem, TandemOptions};
use dnc_net::pairing::PairingStrategy;
use dnc_net::{Discipline, Flow, Network, Server};
use dnc_num::{int, rat, Rat};
use dnc_traffic::TrafficSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Networks drawn per proptest case of
/// `decomposed_is_integrated_over_singletons`.
const NETS_PER_CASE: usize = 10;

/// EDF local deadlines, in ticks.
const DEADLINES: std::ops::RangeInclusive<i64> = 40..=120;

/// A random feedforward network with every server's discipline drawn
/// from FIFO/SP/GPS/EDF, flow priorities from 0–2, and an EDF local
/// deadline on every EDF hop (loose enough that most draws are
/// schedulable).
fn mixed_network(rng: &mut StdRng) -> Network {
    const DISCIPLINES: [Discipline; 4] = [
        Discipline::Fifo,
        Discipline::StaticPriority,
        Discipline::Gps,
        Discipline::Edf,
    ];
    let base = random_feedforward(rng, 6, 8, 4, rat(3, 4), true);
    let mut net = Network::new();
    for s in base.servers() {
        net.add_server(Server {
            name: s.name.clone(),
            rate: s.rate,
            discipline: DISCIPLINES[rng.gen_range(0..DISCIPLINES.len())],
        });
    }
    for f in base.flows() {
        let id = net
            .add_flow(Flow {
                priority: rng.gen_range(0..=2),
                ..f.clone()
            })
            .expect("same servers, same route");
        for &s in &f.route {
            if net.server(s).discipline == Discipline::Edf {
                net.set_local_deadline(id, s, Rat::from(rng.gen_range(DEADLINES)));
            }
        }
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Decomposed is Integrated with every server its own group: on
    /// mixed-discipline networks both give the same report, or fail
    /// with the same error. At least half the draws must analyze, so
    /// the equality is not carried by errors alone.
    #[test]
    fn decomposed_is_integrated_over_singletons(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let singletons = Integrated {
            strategy: PairingStrategy::Singletons,
            ..Integrated::paper()
        };
        let mut analyzed = 0;
        for _ in 0..NETS_PER_CASE {
            let net = mixed_network(&mut rng);
            match (Decomposed::paper().analyze(&net), singletons.analyze(&net)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.to_csv(), b.to_csv());
                    for (fa, fb) in a.flows.iter().zip(b.flows.iter()) {
                        prop_assert_eq!(fa.e2e, fb.e2e, "flow {}", fa.name);
                    }
                    analyzed += 1;
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(
                    false,
                    "decomposed {:?} and singletons {:?} disagree on success",
                    a.map(|r| r.to_csv()),
                    b.map(|r| r.to_csv())
                ),
            }
        }
        prop_assert!(
            2 * analyzed >= NETS_PER_CASE,
            "only {} of {} draws analyzed", analyzed, NETS_PER_CASE
        );
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
