//! Ablation: tournament argmax (log-depth, used by default)
//! vs the paper's sequential secure-maximum scan (§4.1).

use criterion::{criterion_group, criterion_main, Criterion};
use pivot_mpc::{FixedConfig, MpcEngine, Share};
use pivot_transport::run_parties;
use std::time::Duration;

fn argmax_run(n_vals: usize, sequential: bool) {
    run_parties(3, |ep| {
        let mut e = MpcEngine::new(&ep, 42, FixedConfig::default());
        let vals: Vec<Share> = (0..n_vals)
            .map(|i| e.constant_f64((i % 17) as f64))
            .collect();
        let (idx, _) = if sequential {
            e.argmax_sequential(&vals)
        } else {
            e.argmax(&vals)
        };
        e.open(idx)
    });
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_argmax");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    for n in [8usize, 32] {
        g.bench_function(format!("tournament/{n}"), |b| {
            b.iter(|| argmax_run(n, false))
        });
        g.bench_function(format!("sequential/{n}"), |b| {
            b.iter(|| argmax_run(n, true))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
