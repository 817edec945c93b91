//! Per-layer micro-ops: the price of one call into each crate's public
//! functions, timed from the driver with a span around every op.
//!
//! These are price tags, not workloads. They run at the paper's keysize
//! (1024-bit `N`, 2048-bit `N²`), which is what `train_basic` and
//! `train_enhanced` execute; the two ops named `m1024` / `k512` price the
//! half-size modulus of `train_gbdt` and `train_wan_tcp3`.

use crate::spans::Recorder;
use crate::stats::{median, summarize, Metric};
use pivot_bignum::{rng as brng, BigUint, ExponentSchedule, Montgomery};
use pivot_mpc::dealer::DealerClient;
use pivot_mpc::{CompareBits, FixedConfig, Fp, MpcEngine, Share};
use pivot_paillier::{batch, threshold_keygen, vector, Ciphertext, NoncePool, ThresholdKeyPair};
use pivot_transport::{run_parties_with, tcp, Endpoint, NetConfig, Wire};
use pivot_zkp::{DotProductProof, MultiplicationProof, PlaintextProof};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How much each micro-op may run: up to `max_calls` timed calls, fewer
/// when one call is so long that `max_calls` of them would overrun
/// `budget`, never fewer than [`MIN_CALLS`].
#[derive(Clone, Copy)]
pub struct Effort {
    pub max_calls: usize,
    pub budget: Duration,
    /// Bits of the Paillier modulus `N` the ops are priced at.
    pub keysize: u32,
}

pub const MIN_CALLS: usize = 3;
const PARTIES: usize = 3;
const CRYPTO_THREADS: usize = 2;
/// Length of the secret-shared vectors (one MPC round carries a whole
/// level's comparisons in the workloads; 4096 is that order).
const MPC_VEC: usize = 4096;
/// `d·b` of the workloads: candidate splits one argmax ranges over.
const ARGMAX_WIDTH: usize = 96;
/// Length of the dot products: the training samples of the issue's
/// `train_basic` (the cost is linear in it).
const DOT_LEN: usize = 480;
/// Ciphertexts per batched call.
const BATCH: usize = 128;
/// Rows of preprocessing the MPC engine keeps ready, as in the workloads.
const DEALER_POOL: usize = 512;

pub struct Micro<'a> {
    rec: &'a mut Recorder,
    effort: Effort,
    seed: u64,
    pub metrics: Vec<Metric>,
    /// Ops whose result was wrong (a decryption that did not round-trip,
    /// a proof that did not verify, a comparison with the wrong sign).
    pub wrong: Vec<String>,
}

fn timed(op: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    op();
    start.elapsed().as_secs_f64()
}

/// Seconds per call of `op`. The first call is a sample like the others
/// (a cold first call cannot move a median) and sizes the rest through
/// `calls_after`.
fn sample(mut op: impl FnMut(), calls_after: impl FnOnce(f64) -> usize) -> Vec<f64> {
    let first = timed(&mut op);
    let calls = calls_after(first);
    std::iter::once(first)
        .chain((1..calls).map(|_| timed(&mut op)))
        .collect()
}

/// [`sample`] for a collective op: party 0 sizes the sample and tells
/// the others, so that all parties make the same number of calls.
fn collective_sample(ep: &Endpoint, effort: Effort, op: impl FnMut()) -> Vec<f64> {
    sample(op, |first| {
        let calls = (ep.id() == 0).then(|| calls_for(effort, first));
        ep.broadcast_from(0, calls.as_ref())
    })
}

/// Calls that fit the budget, the first included, given how long it took.
fn calls_for(effort: Effort, first_call_s: f64) -> usize {
    let fit = effort.budget.as_secs_f64() / first_call_s.max(1e-9);
    (fit as usize).clamp(MIN_CALLS, effort.max_calls.max(MIN_CALLS))
}

impl<'a> Micro<'a> {
    pub fn new(rec: &'a mut Recorder, effort: Effort, seed: u64) -> Micro<'a> {
        Micro {
            rec,
            effort,
            seed,
            metrics: Vec::new(),
            wrong: Vec::new(),
        }
    }

    /// Time `op` call by call inside a span.
    fn seconds_per_call(&mut self, name: &str, op: impl FnMut()) -> Vec<f64> {
        let effort = self.effort;
        self.rec
            .scope(name, |_| sample(op, |first| calls_for(effort, first)))
    }

    /// Median seconds per call, scaled into `unit`.
    fn push_time(&mut self, name: &str, unit: &'static str, secs: &[f64], scale: f64) {
        self.metrics
            .extend(Metric::median_of(name, unit, secs, scale));
    }

    /// Throughput: `amount` per median second.
    fn push_rate(&mut self, name: &str, unit: &'static str, amount: f64, secs: &[f64]) {
        if let Some(s) = summarize(secs) {
            self.metrics.push(Metric {
                n: s.n,
                ..Metric::once(name, unit, amount / s.median)
            });
        }
    }

    /// An exact count, or a time taken once.
    fn push_once(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::once(name, unit, value));
    }

    fn time_us(&mut self, name: &str, op: impl FnMut()) {
        let secs = self.seconds_per_call(name, op);
        self.push_time(name, "us", &secs, 1e6);
    }

    fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.wrong.push(name.to_string());
        }
    }

    pub fn run_all(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let keysize = self.effort.keysize;
        let start = Instant::now();
        let keys = self.rec.scope("paillier.threshold_keygen_s", |_| {
            threshold_keygen(&mut rng, keysize, PARTIES, PARTIES)
        });
        self.push_once(
            "paillier.threshold_keygen_s",
            "s",
            start.elapsed().as_secs_f64(),
        );
        self.bignum(&keys, &mut rng);
        self.paillier(&keys, &mut rng);
        self.runtime(&keys, &mut rng);
        self.zkp(&keys, &mut rng);
        self.mpc();
        self.transport();
    }

    fn bignum(&mut self, keys: &ThresholdKeyPair, rng: &mut StdRng) {
        let pk = &keys.pk;
        let n2 = pk.n_squared();
        let mont = Montgomery::new(n2);
        let a = brng::gen_below(rng, n2);
        let b = brng::gen_below(rng, n2);
        let (a_m, b_m) = (mont.to_mont(&a), mont.to_mont(&b));

        // One multiplication is too short to time alone.
        const MULS: usize = 64;
        let secs = self.seconds_per_call("bignum.mont_mul_m2048_ns", || {
            let mut acc = a_m.clone();
            for _ in 0..MULS {
                acc = mont.mont_mul(&acc, &b_m);
            }
            black_box(acc);
        });
        self.push_time("bignum.mont_mul_m2048_ns", "ns", &secs, 1e9 / MULS as f64);

        // r^N: the exponentiation behind every fresh encryption.
        self.time_us("bignum.pow_mont_m2048_e1024_us", || {
            black_box(mont.pow_mont(&a_m, pk.n()));
        });
        // mul_plain by a field element of the MPC layer.
        let e61 = BigUint::from_u64(rng.gen_range(1u64 << 60..pivot_mpc::MODULUS));
        self.time_us("bignum.pow_mont_m2048_e61_us", || {
            black_box(mont.pow_mont(&a_m, &e61));
        });
        // The partial-decryption exponent, replayed from its recoding.
        let schedule = ExponentSchedule::recode(keys.shares[0].exponent());
        self.time_us("bignum.pow_scheduled_m2048_us", || {
            black_box(mont.pow_scheduled(&a, &schedule));
        });
        // Combination: three bases under the Lagrange exponents 2λ of a
        // 3-of-3 sharing (36, 36, 12).
        let c = brng::gen_below(rng, n2);
        let exps = [36u64, 36, 12].map(BigUint::from_u64);
        self.time_us("bignum.multi_pow_m2048_k3_us", || {
            black_box(mont.multi_pow(&[(&a, &exps[0]), (&b, &exps[1]), (&c, &exps[2])]));
        });

        // The same r^N at half the keysize.
        let half = keysize_half_modulus(rng, keys.pk.keysize());
        let mont_half = Montgomery::new(&half.0);
        let base = mont_half.to_mont(&brng::gen_below(rng, &half.0));
        self.time_us("bignum.pow_mont_m1024_e512_us", || {
            black_box(mont_half.pow_mont(&base, &half.1));
        });
    }

    fn paillier(&mut self, keys: &ThresholdKeyPair, rng: &mut StdRng) {
        let pk = &keys.pk;
        let x = BigUint::from_u64(123_456_789);
        let ct = pk.encrypt(&x, rng);

        let mut enc_rng = StdRng::seed_from_u64(self.seed ^ 1);
        self.time_us("paillier.encrypt_us", || {
            black_box(pk.encrypt(&x, &mut enc_rng));
        });

        // A pool hit: the nonce power is already there, one multiplication
        // is left. The pool is filled before timing starts.
        let calls = self.effort.max_calls + 1;
        let pool = NoncePool::new(pk.clone(), self.seed ^ 2, calls);
        self.rec.scope("paillier.nonce_pool_fill", |_| {
            pool.refill();
            pool.wait_ready();
        });
        self.time_us("paillier.encrypt_pooled_us", || {
            black_box(pk.encrypt_with_rn(&x, &pool.take()));
        });
        let hits = pool.stats().hits;
        self.check("paillier.encrypt_pooled_us", hits > 0);
        drop(pool);

        self.time_us("paillier.rerandomize_us", || {
            black_box(pk.rerandomize(&ct, &mut enc_rng));
        });
        let k61 = BigUint::from_u64(rng.gen_range(1u64 << 60..pivot_mpc::MODULUS));
        self.time_us("paillier.mul_plain_fp_us", || {
            black_box(pk.mul_plain(&ct, &k61));
        });

        // Full-size ciphertexts without paying an encryption for each.
        let seeds: Vec<Ciphertext> = (0..8).map(|_| pk.encrypt(&x, rng)).collect();
        let enc: Vec<Ciphertext> = (0..DOT_LEN)
            .map(|i| pk.add(&seeds[i % 8], &seeds[(i / 8) % 8]))
            .collect();
        let select: Vec<bool> = (0..DOT_LEN).map(|_| rng.gen_range(0..2u32) == 1).collect();
        self.time_us("paillier.dot_binary_n480_us", || {
            black_box(vector::dot_binary(pk, &enc, &select));
        });
        let plain: Vec<BigUint> = (0..DOT_LEN)
            .map(|_| BigUint::from_u64(rng.gen_range(2..pivot_mpc::MODULUS)))
            .collect();
        self.time_us("paillier.dot_plain_n480_us", || {
            black_box(vector::dot_plain(pk, &enc, &plain));
        });

        let share = &keys.shares[0];
        self.time_us("paillier.partial_decrypt_us", || {
            black_box(share.partial_decrypt(&ct));
        });
        // The same at half the keysize: the operation `train_gbdt` spends
        // most of its time in.
        let half = threshold_keygen(rng, pk.keysize() / 2, PARTIES, PARTIES);
        let ct_half = half.pk.encrypt(&x, rng);
        self.time_us("paillier.partial_decrypt_k512_us", || {
            black_box(half.shares[0].partial_decrypt(&ct_half));
        });
        let partials: Vec<_> = keys.shares.iter().map(|s| s.partial_decrypt(&ct)).collect();
        self.time_us("paillier.combine_m3_us", || {
            black_box(keys.combiner.combine(&partials));
        });
        let round_trip = keys.combiner.combine(&partials) == x;
        self.check("paillier.combine_m3_us", round_trip);

        // Batches as the protocols issue them: a cold pool refilled in the
        // background while the batch steals from it, two crypto threads.
        let values = vec![x.clone(); BATCH];
        let seed = self.seed;
        let secs = self.seconds_per_call("paillier.encrypt_batch_per_s", || {
            let pool = NoncePool::new(pk.clone(), seed ^ 3, BATCH);
            pool.refill();
            black_box(batch::encrypt_batch(pk, &values, &pool, CRYPTO_THREADS));
        });
        self.push_rate("paillier.encrypt_batch_per_s", "1/s", BATCH as f64, &secs);
        let cts = vec![ct.clone(); BATCH];
        let secs = self.seconds_per_call("paillier.partial_decrypt_batch_per_s", || {
            black_box(batch::partial_decrypt_batch(share, &cts, CRYPTO_THREADS));
        });
        self.push_rate(
            "paillier.partial_decrypt_batch_per_s",
            "1/s",
            BATCH as f64,
            &secs,
        );
    }

    fn runtime(&mut self, keys: &ThresholdKeyPair, rng: &mut StdRng) {
        let pool = pivot_runtime::global();
        let items = vec![0u32; 1024];
        self.time_us("runtime.map_overhead_us", || {
            black_box(pool.map(CRYPTO_THREADS, &items, |x| *x));
        });

        let pk = &keys.pk;
        let bases: Vec<BigUint> = (0..64).map(|_| brng::gen_below(rng, pk.n())).collect();
        let bases = &bases;
        let run = |threads: usize| {
            move || {
                black_box(pool.map(threads, bases, |r| pk.pow_n(r)));
            }
        };
        let serial = self.seconds_per_call("runtime.map_t1", run(1));
        let parallel = self.seconds_per_call("runtime.map_t2", run(CRYPTO_THREADS));
        let serial_s = median(&serial).expect("at least MIN_CALLS samples");
        self.push_rate("runtime.map_speedup_t2", "x", serial_s, &parallel);
    }

    fn zkp(&mut self, keys: &ThresholdKeyPair, rng: &mut StdRng) {
        let pk = &keys.pk;
        let x = BigUint::from_u64(42);
        let r = brng::gen_coprime(rng, pk.n());
        let c = pk.encrypt_with(&x, &r);
        let mut prng = StdRng::seed_from_u64(self.seed ^ 4);

        self.time_us("zkp.popk_prove_us", || {
            black_box(PlaintextProof::prove(pk, &c, &x, &r, &mut prng));
        });
        let proof = PlaintextProof::prove(pk, &c, &x, &r, &mut prng);
        let mut ok = true;
        self.time_us("zkp.popk_verify_us", || ok &= proof.verify(pk, &c));
        self.check("zkp.popk_verify_us", ok);

        let c2 = pk.encrypt(&BigUint::from_u64(7), rng);
        let (c3, s) = MultiplicationProof::multiply(pk, &c2, &x, rng);
        self.time_us("zkp.popcm_prove_us", || {
            black_box(MultiplicationProof::prove(
                pk, &c, &c2, &c3, &x, &r, &s, &mut prng,
            ));
        });
        let proof = MultiplicationProof::prove(pk, &c, &c2, &c3, &x, &r, &s, &mut prng);
        let mut ok = true;
        self.time_us("zkp.popcm_verify_us", || {
            ok &= proof.verify(pk, &c, &c2, &c3)
        });
        self.check("zkp.popcm_verify_us", ok);

        const N: usize = 64;
        let xs: Vec<BigUint> = (0..N)
            .map(|_| BigUint::from_u64(rng.gen_range(0..2)))
            .collect();
        let rs: Vec<BigUint> = (0..N).map(|_| brng::gen_coprime(rng, pk.n())).collect();
        let commitments: Vec<Ciphertext> = xs
            .iter()
            .zip(&rs)
            .map(|(x, r)| pk.encrypt_with(x, r))
            .collect();
        let inputs: Vec<Ciphertext> = (0..N)
            .map(|i| pk.add(&commitments[i], &commitments[(i + 1) % N]))
            .collect();
        let (output, s) = DotProductProof::dot(pk, &inputs, &xs, rng);
        self.time_us("zkp.pohdp_n64_prove_us", || {
            black_box(DotProductProof::prove(
                pk,
                &commitments,
                &inputs,
                &output,
                &xs,
                &rs,
                &s,
                &mut prng,
            ));
        });
        let proof =
            DotProductProof::prove(pk, &commitments, &inputs, &output, &xs, &rs, &s, &mut prng);
        let mut ok = true;
        self.time_us("zkp.pohdp_n64_verify_us", || {
            ok &= proof.verify(pk, &commitments, &inputs, &output)
        });
        self.check("zkp.pohdp_n64_verify_us", ok);
    }

    /// Three parties as threads over in-process endpoints, comparison
    /// widths bounded as in the workloads. Every party runs the same ops
    /// the same number of times; party 0's timings and counts are kept.
    fn mpc(&mut self) {
        let effort = self.effort;
        let seed = self.seed;
        let mut results = self.rec.scope("mpc", |_| {
            run_parties_with(PARTIES, NetConfig::default(), |ep| {
                mpc_party(&ep, effort, seed)
            })
        });
        let party0 = results.swap_remove(0);
        for op in party0.ops {
            self.push_time(&format!("mpc.{}_us", op.name), "us", &op.secs, 1e6);
            self.push_once(
                &format!("mpc.{}_rounds", op.name),
                "count",
                op.rounds as f64,
            );
            self.push_once(&format!("mpc.{}_bytes", op.name), "B", op.bytes as f64);
        }
        self.wrong.extend(party0.wrong);

        // The offline dealer, without a network: preprocessing material
        // one party derives per second.
        let cfg = FixedConfig::default();
        let mut dealer = DealerClient::new(seed, 0, PARTIES);
        let secs = self.seconds_per_call("mpc.dealer_triples_per_s", || {
            black_box(dealer.triples(MPC_VEC));
        });
        self.push_rate("mpc.dealer_triples_per_s", "1/s", MPC_VEC as f64, &secs);
        let secs = self.seconds_per_call("mpc.dealer_masked_rows_k11_per_s", || {
            black_box(dealer.masked_rows(10, 11, MPC_VEC, &cfg));
        });
        self.push_rate(
            "mpc.dealer_masked_rows_k11_per_s",
            "1/s",
            MPC_VEC as f64,
            &secs,
        );
    }

    fn transport(&mut self) {
        let effort = self.effort;
        let inproc = self.rec.scope("transport.inproc", |_| {
            run_parties_with(PARTIES, NetConfig::default(), |ep| {
                exchange_samples(&ep, 64 * 1024, effort)
            })
            .swap_remove(0)
        });
        self.push_time("transport.inproc_exchange_64k_us", "us", &inproc, 1e6);

        let (big, small, bulk) = self.rec.scope("transport.tcp", |_| {
            run_tcp_parties(|ep| {
                let big = exchange_samples(&ep, 64 * 1024, effort);
                let small = exchange_samples(&ep, 16, effort);
                (big, small, bulk_seconds(&ep, effort))
            })
            .swap_remove(0)
        });
        self.push_time("transport.tcp_exchange_64k_us", "us", &big, 1e6);
        self.push_time("transport.tcp_exchange_16b_us", "us", &small, 1e6);
        self.push_rate("transport.tcp_bulk_mb_s", "MiB/s", BULK_MIB as f64, &bulk);

        const FP_VEC: usize = 65_536;
        let fps: Vec<Fp> = (0..FP_VEC as u64)
            .map(|i| Fp::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let mut ok = true;
        let secs = self.seconds_per_call("transport.wire_fp_vec_mb_s", || {
            let bytes = fps.to_wire();
            ok &= Vec::<Fp>::from_wire(&bytes).is_ok_and(|back| back.len() == FP_VEC);
        });
        self.check("transport.wire_fp_vec_mb_s", ok);
        let mib = (fps.to_wire().len() as f64) / (1024.0 * 1024.0);
        self.push_rate("transport.wire_fp_vec_mb_s", "MiB/s", mib, &secs);
    }
}

/// An odd modulus with the bit length of `N²` at half the keysize, and an
/// exponent with the bit length of that `N`.
fn keysize_half_modulus(rng: &mut StdRng, keysize: u32) -> (BigUint, BigUint) {
    let mut modulus = brng::gen_exact_bits(rng, keysize);
    if modulus.is_even() {
        modulus = &modulus + &BigUint::one();
    }
    (modulus, brng::gen_exact_bits(rng, keysize / 2))
}

struct MpcOp {
    name: &'static str,
    secs: Vec<f64>,
    /// Exact per-call counts.
    rounds: u64,
    bytes: u64,
}

struct MpcParty {
    ops: Vec<MpcOp>,
    wrong: Vec<String>,
}

fn mpc_party(ep: &Endpoint, effort: Effort, seed: u64) -> MpcParty {
    let cfg = FixedConfig::default();
    let mut eng = MpcEngine::new(ep, seed, cfg);
    eng.configure_comparisons(CompareBits::Auto, DEALER_POOL);
    let owner = ep.id() == 0;
    let mut rng = StdRng::seed_from_u64(seed ^ 5);
    let mut party = MpcParty {
        ops: Vec::new(),
        wrong: Vec::new(),
    };

    // Signed integers with |v| < 2^(k−1), shared by party 0.
    let mut signed = |eng: &mut MpcEngine, k: u32, len: usize| -> (Vec<i64>, Vec<Share>) {
        let bound = 1i64 << (k - 1);
        let plain: Vec<i64> = (0..len).map(|_| rng.gen_range(1 - bound..bound)).collect();
        let fps: Vec<Fp> = plain.iter().map(|&v| Fp::from_i64(v)).collect();
        let shares = eng.share_input(0, owner.then_some(fps.as_slice()));
        (plain, shares)
    };

    let (_, a) = signed(&mut eng, 31, MPC_VEC);
    let (_, b) = signed(&mut eng, 31, MPC_VEC);
    party
        .ops
        .push(mpc_op(ep, &mut eng, effort, "mul_vec", |eng| {
            black_box(eng.mul_vec(&a, &b));
        }));

    for (name, k) in [("ltz_k11", 11), ("ltz_k31", 31)] {
        let (plain, x) = signed(&mut eng, k, MPC_VEC);
        let mut last = Vec::new();
        party.ops.push(mpc_op(ep, &mut eng, effort, name, |eng| {
            last = eng.ltz_vec_bounded(&x, k);
        }));
        let opened = eng.open_vec(&last);
        let signs_match = opened
            .iter()
            .zip(&plain)
            .all(|(bit, &v)| bit.value() == u64::from(v < 0));
        if !signs_match {
            party.wrong.push(format!("mpc.{name}_us"));
        }
    }

    // Fixed-point quotients a/b with b in [1, 1024).
    const DIV_LEN: usize = 1024;
    let nums: Vec<Fp> = (0..DIV_LEN).map(|i| cfg.encode(i as f64 + 0.5)).collect();
    let dens: Vec<Fp> = (0..DIV_LEN).map(|i| cfg.encode(i as f64 + 1.0)).collect();
    let nums = eng.share_input(0, owner.then_some(nums.as_slice()));
    let dens = eng.share_input(0, owner.then_some(dens.as_slice()));
    let mut last = Vec::new();
    party
        .ops
        .push(mpc_op(ep, &mut eng, effort, "div_vec", |eng| {
            last = eng.div_vec(&nums, &dens, DIV_LEN as f64);
        }));
    let opened = eng.open_vec(&last);
    let quotients_close = opened.iter().enumerate().all(|(i, &q)| {
        let want = (i as f64 + 0.5) / (i as f64 + 1.0);
        (cfg.decode(q) - want).abs() < 1e-2
    });
    if !quotients_close {
        party.wrong.push("mpc.div_vec_us".into());
    }

    let (plain, vals) = signed(&mut eng, 30, ARGMAX_WIDTH);
    let mut best = (Share::ZERO, Share::ZERO);
    party
        .ops
        .push(mpc_op(ep, &mut eng, effort, "argmax_w96", |eng| {
            best = eng.argmax_bounded(&vals, 31);
        }));
    let opened = eng.open_vec(&[best.0, best.1]);
    let max = *plain.iter().max().expect("non-empty");
    if plain[opened[0].value() as usize] != max || opened[1].to_i64() != max {
        party.wrong.push("mpc.argmax_w96_us".into());
    }
    party
}

/// Time one collective op, and count the rounds and bytes of its first
/// call (every call costs the same).
fn mpc_op(
    ep: &Endpoint,
    eng: &mut MpcEngine,
    effort: Effort,
    name: &'static str,
    mut op: impl FnMut(&mut MpcEngine),
) -> MpcOp {
    let before = (eng.counters().snapshot().0, ep.stats().bytes_sent());
    let mut first_call = None;
    let secs = collective_sample(ep, effort, || {
        op(eng);
        first_call.get_or_insert_with(|| {
            (
                eng.counters().snapshot().0 - before.0,
                ep.stats().bytes_sent() - before.1,
            )
        });
    });
    let (rounds, bytes) = first_call.expect("the op ran");
    MpcOp {
        name,
        secs,
        rounds,
        bytes,
    }
}

/// Seconds per all-to-all exchange of a `len`-byte message.
fn exchange_samples(ep: &Endpoint, len: usize, effort: Effort) -> Vec<f64> {
    let msg = vec![0xA5u8; len];
    collective_sample(ep, effort, || {
        black_box(ep.exchange_all(&msg));
    })
}

const BULK_MIB: usize = 64;

/// Seconds to move 64 MiB from party 0 to party 1 in 1 MiB messages and
/// get one byte back. Party 2 idles.
fn bulk_seconds(ep: &Endpoint, effort: Effort) -> Vec<f64> {
    let chunk = vec![0x5Au8; 1024 * 1024];
    let calls = MIN_CALLS.max(effort.max_calls.min(5));
    (0..calls)
        .map(|_| {
            let start = Instant::now();
            match ep.id() {
                0 => {
                    for _ in 0..BULK_MIB {
                        ep.send(1, &chunk);
                    }
                    ep.flush();
                    black_box(ep.recv::<u8>(1));
                }
                1 => {
                    for _ in 0..BULK_MIB {
                        black_box(ep.recv::<Vec<u8>>(0));
                    }
                    ep.send(0, &1u8);
                    ep.flush();
                }
                _ => {}
            }
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Three parties as threads over real loopback sockets on free ports.
fn run_tcp_parties<T: Send>(f: impl Fn(Endpoint) -> T + Send + Sync) -> Vec<T> {
    let peers = crate::run::free_loopback_peers(PARTIES);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PARTIES)
            .map(|id| {
                let (peers, f) = (&peers, &f);
                scope.spawn(move || {
                    let ep = tcp::connect_mesh(id, &peers[id], peers, NetConfig::default())
                        .expect("loopback mesh connects");
                    f(ep)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tcp party thread panicked"))
            .collect()
    })
}
