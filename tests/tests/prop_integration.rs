//! Property-based integration tests: the two-server theorem and the full
//! algorithms under randomized parameters.

use dnc_core::exact::TwoServerScenario;
use dnc_core::integrated::{pair_delay_bound, Integrated};
use dnc_core::{decomposed::Decomposed, DelayAnalysis, OutputCap};
use dnc_curves::Curve;
use dnc_net::builders::random_feedforward;
use dnc_num::{rat, Rat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Burst in [0, 6] quarters, rate in (0, 1/4) sixteenths.
fn arb_bucket() -> impl Strategy<Value = (Rat, Rat)> {
    (0i128..24, 1i128..4).prop_map(|(s, r)| (rat(s, 4), rat(r, 16)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pair_bound_sandwich(
        (s12, r12) in arb_bucket(),
        (s1, r1) in arb_bucket(),
        (s2, r2) in arb_bucket(),
    ) {
        let f12 = Curve::token_bucket(s12, r12);
        let f1 = Curve::token_bucket(s1, r1);
        let f2 = Curve::token_bucket(s2, r2);
        let pb = pair_delay_bound(&f12, &f1, &f2, Rat::ONE, Rat::ONE, OutputCap::Shift).unwrap();
        prop_assert!(pb.through >= pb.d1, "through below server-1 bound");
        prop_assert!(pb.through <= pb.d1 + pb.d2, "through above decomposed sum");
        prop_assert!(!pb.d1.is_negative() && !pb.d2.is_negative());
    }

    #[test]
    fn pair_bound_monotone_in_cross_burst(
        (s12, r12) in arb_bucket(),
        (s2, r2) in arb_bucket(),
        bump in 1i128..8,
    ) {
        let f12 = Curve::token_bucket(s12, r12);
        let zero = Curve::zero();
        let f2a = Curve::token_bucket(s2, r2);
        let f2b = Curve::token_bucket(s2 + rat(bump, 2), r2);
        let a = pair_delay_bound(&f12, &zero, &f2a, Rat::ONE, Rat::ONE, OutputCap::Shift).unwrap();
        let b = pair_delay_bound(&f12, &zero, &f2b, Rat::ONE, Rat::ONE, OutputCap::Shift).unwrap();
        prop_assert!(b.through >= a.through, "more cross burst cannot shrink the bound");
    }

    #[test]
    fn pair_bound_dominates_exact_greedy(
        (s12, r12) in arb_bucket(),
        (s1, r1) in arb_bucket(),
        (s2, r2) in arb_bucket(),
    ) {
        // Greedy sample paths: peak-capped realizations of the curves
        // (strictly increasing, A(0) = 0).
        prop_assume!(r12 + r1 < Rat::ONE && r12 + r2 < Rat::ONE);
        let peak = Rat::ONE;
        let a12 = Curve::token_bucket_peak(s12, r12, peak);
        let a1 = Curve::token_bucket_peak(s1, r1, peak);
        let a2 = Curve::token_bucket_peak(s2, r2, peak);
        let sc = TwoServerScenario {
            a12: a12.clone(), a1: a1.clone(), a2: a2.clone(),
            c1: Rat::ONE, c2: Rat::ONE,
        };
        let exact = sc.max_s12_delay(48);
        let pb = pair_delay_bound(&a12, &a1, &a2, Rat::ONE, Rat::ONE, OutputCap::Shift).unwrap();
        prop_assert!(
            exact <= pb.through,
            "exact greedy delay {} exceeds theorem bound {}", exact, pb.through
        );
    }

    #[test]
    fn pair_bound_general_rates(
        (s12, r12) in arb_bucket(),
        (s2, r2) in arb_bucket(),
        c1_num in 1i128..5,
        c2_num in 1i128..5,
    ) {
        let c1 = rat(c1_num, 2);
        let c2 = rat(c2_num, 2);
        prop_assume!(r12 < c1 && r12 + r2 < c2);
        let f12 = Curve::token_bucket(s12, r12);
        let zero = Curve::zero();
        let f2 = Curve::token_bucket(s2, r2);
        let pb = pair_delay_bound(&f12, &zero, &f2, c1, c2, OutputCap::Shift).unwrap();
        prop_assert!(pb.through >= pb.d1);
        prop_assert!(pb.through <= pb.d1 + pb.d2);
    }

    #[test]
    fn integrated_below_decomposed_on_random_networks(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_feedforward(&mut rng, 5, 7, 4, rat(3, 4), true);
        let dd = Decomposed::paper().analyze(&net).unwrap();
        let di = Integrated::paper().analyze(&net).unwrap();
        for (a, b) in di.flows.iter().zip(dd.flows.iter()) {
            prop_assert!(a.e2e <= b.e2e, "flow {}: {} > {}", a.name, a.e2e, b.e2e);
        }
    }

    #[test]
    fn optimal_pairing_sound_and_heavier(seed in 0u64..200) {
        use dnc_net::pairing::{partition, Group, PairingStrategy};
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_feedforward(&mut rng, 6, 8, 4, rat(3, 4), true);
        // Weight of a partition = flows captured by its pairs.
        let weight = |p: &dnc_net::pairing::Partition| -> usize {
            p.groups.iter().map(|g| match *g {
                Group::Pair(a, b) => net
                    .flows()
                    .iter()
                    .filter(|f| f.route.windows(2).any(|w| w[0] == a && w[1] == b))
                    .count(),
                Group::Single(_) => 0,
            }).sum()
        };
        let greedy = partition(&net, PairingStrategy::GreedyChain).unwrap();
        let optimal = partition(&net, PairingStrategy::OptimalSmall).unwrap();
        prop_assert!(weight(&optimal) >= weight(&greedy),
            "optimal weight {} below greedy {}", weight(&optimal), weight(&greedy));
        // And the resulting analysis is still sound (≤ decomposed).
        let alg = Integrated { cap: OutputCap::Shift, strategy: PairingStrategy::OptimalSmall };
        let di = alg.analyze(&net).unwrap();
        let dd = Decomposed::paper().analyze(&net).unwrap();
        for (a, b) in di.flows.iter().zip(dd.flows.iter()) {
            prop_assert!(a.e2e <= b.e2e);
        }
    }
}
