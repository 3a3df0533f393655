//! Property test: the engine's incremental fast path is observationally
//! indistinguishable from honest from-scratch certification. Two engines
//! — one with `incremental: true`, one with `incremental: false` —
//! process the same randomized admit/release sequence and must return
//! identical answers (exact `Rat` bounds included) and land on
//! identical canonical state.

use dnc_net::builders::{tandem, TandemOptions};
use dnc_net::ServerId;
use dnc_num::Rat;
use dnc_service::{AdmitRequest, ChurnEngine, EngineConfig, Request, Response};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact answer fingerprint: every field of the response, with bounds
/// and deadlines as exact rationals. `Debug` is stable and loss-free
/// here because no response field carries wall-clock time.
fn fingerprint(r: &Response) -> String {
    format!("{r:?}")
}

fn draw_requests(seed: u64, n: usize, ops: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = 0usize;
    // Assumed-live model: releases may name an already-rejected flow —
    // both engines must then refuse identically.
    let mut assumed: Vec<String> = Vec::new();
    (0..ops)
        .map(|_| {
            if assumed.is_empty() || rng.gen_ratio(3, 5) {
                next += 1;
                let name = format!("p{next}");
                assumed.push(name.clone());
                let start = rng.gen_range(0..n);
                let len = rng.gen_range(1..=(n - start).min(3));
                Request::Admit(AdmitRequest {
                    name,
                    route: (start..start + len).map(ServerId).collect(),
                    buckets: vec![(
                        Rat::from(rng.gen_range(1i64..=3)),
                        Rat::new(rng.gen_range(1i128..=3), 40),
                    )],
                    peak: None,
                    priority: 1,
                    deadline: Rat::from(rng.gen_range(4i64..=120)),
                })
            } else {
                let victim = rng.gen_range(0..assumed.len());
                Request::Release {
                    name: assumed.remove(victim),
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_engine_is_indistinguishable(seed in 0u64..1 << 32) {
        let n = 4;
        let base = tandem(n, Rat::ONE, Rat::new(1, 16), TandemOptions::default()).net;
        let mk = |incremental: bool| {
            ChurnEngine::new(
                base.clone(),
                Vec::new(),
                EngineConfig {
                    incremental,
                    ..EngineConfig::default()
                },
            )
            .expect("base tandem certifies")
        };
        let mut fast = mk(true);
        let mut scratch = mk(false);

        for (step, req) in draw_requests(seed, n, 24).into_iter().enumerate() {
            let a = fast.process(req.clone()).expect("volatile engine cannot fail");
            let b = scratch.process(req).expect("volatile engine cannot fail");
            prop_assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "step {} answered differently", step
            );
        }
        prop_assert_eq!(fast.canonical_state(), scratch.canonical_state());
        prop_assert_eq!(fast.state_digest(), scratch.state_digest());
    }
}
