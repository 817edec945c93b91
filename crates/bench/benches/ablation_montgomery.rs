//! Ablation: Montgomery exponentiation vs naive
//! square-and-multiply with division-based reduction — the substrate
//! choice underlying every Paillier operation.

use criterion::{criterion_group, criterion_main, Criterion};
use pivot_bignum::{rng as brng, BigUint, Montgomery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn naive_modpow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    let mut result = BigUint::one();
    let mut acc = base.rem_of(modulus);
    for i in 0..exp.bits() {
        if exp.bit(i) {
            result = (&result * &acc).rem_of(modulus);
        }
        acc = (&acc * &acc).rem_of(modulus);
    }
    result
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_montgomery");
    g.sample_size(20).measurement_time(Duration::from_secs(4));
    let mut rng = StdRng::seed_from_u64(9);
    for bits in [512u32, 1024] {
        let modulus = {
            let mut m = brng::gen_exact_bits(&mut rng, bits);
            if m.is_even() {
                m.add_assign_ref(&BigUint::one());
            }
            m
        };
        let base = brng::gen_below(&mut rng, &modulus);
        let exp = brng::gen_exact_bits(&mut rng, bits / 2);
        let ctx = Montgomery::new(&modulus);
        g.bench_function(format!("montgomery/{bits}b"), |b| {
            b.iter(|| ctx.pow(&base, &exp))
        });
        g.bench_function(format!("naive/{bits}b"), |b| {
            b.iter(|| naive_modpow(&base, &exp, &modulus))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
