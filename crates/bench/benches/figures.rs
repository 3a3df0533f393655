//! One Criterion bench per paper figure: times the regeneration of the
//! corresponding data series (a full work-load sweep for one network
//! size per figure; `dnc figure <4|5|6>` produces the full multi-size
//! CSVs).

use criterion::{criterion_group, criterion_main, Criterion};
use dnc_bench::experiments::FIGURES;
use dnc_bench::{sweep, u_grid};

fn bench_figures(c: &mut Criterion) {
    for (name, _, algos, _) in FIGURES {
        let mut g = c.benchmark_group(name);
        g.sample_size(10);
        g.bench_function("n4_full_load_grid", |b| {
            b.iter(|| criterion::black_box(sweep(&[4], &u_grid(), &algos, 1)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
