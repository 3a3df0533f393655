//! Ablation benches for the design choices DESIGN.md calls out:
//! pairing strategy, output-propagation cap, and the cost of the
//! two-server theorem itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dnc_bench::paper_tandem;
use dnc_core::integrated::{pair_delay_bound, Integrated};
use dnc_core::{decomposed::Decomposed, DelayAnalysis, OutputCap};
use dnc_curves::Curve;
use dnc_net::pairing::PairingStrategy;
use dnc_num::{rat, Rat};

fn bench_pairing_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pairing");
    group.sample_size(20);
    let t = paper_tandem(8, rat(3, 5));
    for (label, strategy) in [
        ("singletons", PairingStrategy::Singletons),
        ("greedy_chain", PairingStrategy::GreedyChain),
        ("optimal_small", PairingStrategy::OptimalSmall),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &t, |b, t| {
            let alg = Integrated {
                cap: OutputCap::Shift,
                strategy,
            };
            b.iter(|| criterion::black_box(alg.analyze(&t.net).unwrap().bound(t.conn0)))
        });
    }
    group.finish();
}

fn bench_output_cap(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_output_cap");
    group.sample_size(20);
    let t = paper_tandem(8, rat(3, 5));
    for (label, cap) in [
        ("shift", OutputCap::Shift),
        ("shift_rate_capped", OutputCap::ShiftRateCapped),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &t, |b, t| {
            let alg = Decomposed { cap };
            b.iter(|| criterion::black_box(alg.analyze(&t.net).unwrap().bound(t.conn0)))
        });
    }
    group.finish();
}

fn bench_pair_theorem(c: &mut Criterion) {
    // The core primitive of Algorithm Integrated in isolation.
    let f12 = Curve::token_bucket(Rat::from(3), rat(1, 8))
        .add(&Curve::token_bucket(Rat::from(1), rat(1, 16)));
    let f1 = Curve::token_bucket(Rat::from(2), rat(1, 8));
    let f2 = Curve::token_bucket(Rat::from(4), rat(1, 8));
    c.bench_function("pair_delay_bound", |b| {
        b.iter(|| {
            criterion::black_box(
                pair_delay_bound(&f12, &f1, &f2, Rat::ONE, Rat::ONE, OutputCap::Shift).unwrap(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_pairing_strategy,
    bench_output_cap,
    bench_pair_theorem
);
criterion_main!(benches);
