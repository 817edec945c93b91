//! A party's Paillier nonce stream: `r^N mod N²` powers, computed when
//! they are drawn.
//!
//! Every Paillier encryption or re-randomisation pays one `r^N mod N²`
//! exponentiation, by far its dominant cost. At keysize 1024 that is a
//! 1024-bit-exponent ladder modulo the 2048-bit `N²`: about 1 200
//! Montgomery multiplications, 0.52–0.56 ms on the radix-2^52 AVX-512 IFMA
//! kernel and 2.0–2.3 ms on the portable 64-bit one (2-vCPU Sapphire
//! Rapids VM, the `pivot_bignum` crossover table; `Montgomery` picks the
//! kernel by CPU and modulus width). A batch of `k` encryptions
//! draws its `k` nonces `r` from the stream under one lock, then computes
//! their powers with one order-preserving [`pivot_runtime`] `map` on the
//! caller's `crypto_threads`, so that thread count bounds a party's
//! crypto cores exactly. The map's unit of work is a pair of nonces, which
//! share one interleaved ladder (`PublicKey::pow_n_batch`): in the runs
//! behind the crossover table's pair columns a power cost 0.30–0.37 ms in
//! a pair on the IFMA kernel, against 0.43–0.49 ms alone. Pairs form only
//! while every worker still gets one (`batch::map_pairs`).
//!
//! # Determinism contract
//!
//! The pool owns a seeded RNG, the party's dedicated *nonce stream*. The
//! i-th nonce handed out is the i-th draw of that stream, because draws
//! happen in take order under the stream lock, and `map` returns its
//! outputs in input order whichever worker computed them. A run's
//! ciphertexts are therefore bit-identical at any thread count, and a
//! `-PP` run is bit-identical to the serial one.
//!
//! # Why there is no background fill
//!
//! The pool used to precompute powers speculatively on a low-priority
//! runtime queue during idle phases (setup, network waits, the level
//! barrier). Sized on the benchmark ladder against a build that computes
//! each batch's powers on demand, as here (2-vCPU host, five alternating
//! pairs per workload at 24 s, every run correct; medians, with fill →
//! on demand, and in how many pairs on demand was faster):
//!
//! | workload         | `train_s`             | `setup_s`     | `peak_rss_mb` |
//! |------------------|-----------------------|---------------|---------------|
//! | `train_basic`    | 1.215 → 1.014 s (5/5) | lower in 5/5  | 13.2 → 12.1   |
//! | `train_enhanced` | 2.467 → 1.946 s (5/5) | lower in 5/5  | 13.4 → 12.1   |
//! | `train_gbdt`     | 0.848 → 0.849 s (1/5) | 0.033 → 0.017 | 14.2 → 13.4   |
//! | `train_wan_tcp3` | 4.704 → 4.668 s (2/5) | lower in 5/5  | 11.2 → 10.7   |
//!
//! The fill was better on no workload. On `train_gbdt` it precomputed
//! 1 285 powers for 1 655 takes and served 1 158 of them, work the
//! on-demand `map` does on the same cores without a second queue. Its
//! size was also a hazard: a fill target allocated one slot per unit
//! under the stream lock before training started, so a large target
//! stalled setup for as long as memory lasted.
//!
//! [`NoncePool::refill`] survives as a synchronous prefetch for a
//! microbenchmark that times encryption with the power already computed.

use crate::batch::map_pairs;
use crate::PublicKey;
use pivot_bignum::{rng as brng, BigUint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// What the pooled-encryption microbenchmark reads off a pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NonceStats {
    /// Takes served by a power [`NoncePool::refill`] computed ahead.
    pub hits: u64,
}

struct Stream {
    /// The party's nonce stream; every `r` is drawn here, in take order.
    rng: StdRng,
    /// `(r, r^N)` pairs [`NoncePool::refill`] computed ahead, in draw order.
    prefetched: VecDeque<(BigUint, BigUint)>,
    drawn: u64,
    hits: u64,
    /// While set, every take appends its raw nonces `r` to `witnesses`
    /// (take order) so ZKP provers can open the ciphertexts built from
    /// them. Retention never changes the drawn values.
    retain: bool,
    witnesses: Vec<BigUint>,
}

/// Per-party Paillier nonce stream handing out powers `r^N mod N²`.
pub struct NoncePool {
    pk: PublicKey,
    stream: Mutex<Stream>,
    /// How many powers [`Self::refill`] computes ahead; the protocols pass 0.
    prefetch: usize,
}

impl NoncePool {
    /// Create a pool over `pk` with its own seeded nonce stream.
    pub fn new(pk: PublicKey, seed: u64, prefetch: usize) -> Arc<NoncePool> {
        Arc::new(NoncePool {
            pk,
            stream: Mutex::new(Stream {
                rng: StdRng::seed_from_u64(seed),
                prefetched: VecDeque::new(),
                drawn: 0,
                hits: 0,
                retain: false,
                witnesses: Vec::new(),
            }),
            prefetch,
        })
    }

    fn stream(&self) -> MutexGuard<'_, Stream> {
        self.stream.lock().expect("nonce pool poisoned")
    }

    /// Toggle witness retention: while on, every take logs its raw nonces
    /// `r` (take order) for [`Self::drain_witnesses`].
    pub fn retain_witnesses(&self, on: bool) {
        self.stream().retain = on;
    }

    /// Drain the retained raw nonces logged since the previous drain, in
    /// take order.
    pub fn drain_witnesses(&self) -> Vec<BigUint> {
        std::mem::take(&mut self.stream().witnesses)
    }

    /// Nonces handed out so far: the stream position a checkpoint records.
    pub fn drawn(&self) -> u64 {
        self.stream().drawn
    }

    /// Counters snapshot (read by the pooled-encryption microbenchmark).
    pub fn stats(&self) -> NonceStats {
        NonceStats {
            hits: self.stream().hits,
        }
    }

    /// Take the next `k` nonce powers in stream order: prefetched ones
    /// first, the rest drawn under the lock and computed with one `map`
    /// on at most `threads` workers.
    pub fn take_many(&self, k: usize, threads: usize) -> Vec<BigUint> {
        let mut st = self.stream();
        let ready = k.min(st.prefetched.len());
        let (mut rs, mut powers): (Vec<BigUint>, Vec<BigUint>) =
            st.prefetched.drain(..ready).unzip();
        let fresh: Vec<BigUint> = (ready..k)
            .map(|_| brng::gen_coprime(&mut st.rng, self.pk.n()))
            .collect();
        powers.extend(map_pairs(&fresh, threads, |pair| self.pk.pow_n_batch(pair)));
        st.drawn += k as u64;
        st.hits += ready as u64;
        if st.retain {
            rs.extend(fresh);
            st.witnesses.extend(rs);
        }
        powers
    }

    /// Take the next nonce power (kept for the pooled-encryption
    /// microbenchmark; the protocols take batches).
    pub fn take(&self) -> BigUint {
        self.take_many(1, 1).remove(0)
    }

    /// Synchronously compute powers ahead until `prefetch` are ready,
    /// holding the stream lock throughout (a microbenchmark seam; no
    /// protocol calls it).
    pub fn refill(&self) {
        let mut st = self.stream();
        let missing = self.prefetch.saturating_sub(st.prefetched.len());
        let rs: Vec<BigUint> = (0..missing)
            .map(|_| brng::gen_coprime(&mut st.rng, self.pk.n()))
            .collect();
        let rns = self.pk.pow_n_batch(&rs);
        st.prefetched.extend(rs.into_iter().zip(rns));
    }

    /// A no-op: [`Self::refill`] returns with its powers computed (kept
    /// for the microbenchmark that used to wait for a background fill).
    pub fn wait_ready(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn pk() -> PublicKey {
        fixtures::threshold_keys(3, 128).pk
    }

    #[test]
    fn pooled_and_inline_streams_are_identical() {
        // Same seed, prefetch on vs off: identical nonce-power sequences —
        // the determinism contract behind serial/parallel parity.
        let inline = NoncePool::new(pk(), 42, 0);
        let pooled = NoncePool::new(pk(), 42, 8);
        pooled.refill();
        for _ in 0..20 {
            assert_eq!(inline.take(), pooled.take());
        }
        assert_eq!(pooled.drawn(), 20);
        assert_eq!(pooled.stats().hits, 8);
        assert_eq!(inline.stats().hits, 0);
    }

    #[test]
    fn take_many_matches_repeated_take() {
        for threads in [1, 2] {
            let a = NoncePool::new(pk(), 7, 0);
            let b = NoncePool::new(pk(), 7, 0);
            let many = a.take_many(6, threads);
            let singles: Vec<BigUint> = (0..6).map(|_| b.take()).collect();
            assert_eq!(many, singles, "threads={threads}");
        }
    }

    #[test]
    fn retained_witnesses_open_the_delivered_powers() {
        // With retention on, the i-th drained witness r must satisfy
        // r^N = the i-th delivered power — across prefetched and
        // on-demand powers — and retention must not perturb the stream.
        let key = pk();
        let plain = NoncePool::new(key.clone(), 5, 4);
        let retaining = NoncePool::new(key.clone(), 5, 4);
        retaining.retain_witnesses(true);
        retaining.refill(); // four prefetched takes, then two on demand
        let mut powers = Vec::new();
        for _ in 0..6 {
            let rn = retaining.take();
            assert_eq!(rn, plain.take(), "retention changed the stream");
            powers.push(rn);
        }
        let witnesses = retaining.drain_witnesses();
        assert_eq!(witnesses.len(), 6);
        for (r, rn) in witnesses.iter().zip(&powers) {
            assert_eq!(&key.pow_n(r), rn);
        }
        assert!(retaining.drain_witnesses().is_empty(), "drain must clear");
        retaining.retain_witnesses(false);
        let _ = retaining.take();
        assert!(
            retaining.drain_witnesses().is_empty(),
            "retention off logs nothing"
        );
        assert!(
            plain.drain_witnesses().is_empty(),
            "default pool logs nothing"
        );
    }

    #[test]
    fn encryption_with_pool_matches_rng_path() {
        // encrypt via pool nonces == encrypt via an identically seeded RNG.
        let key = pk();
        let pool = NoncePool::new(key.clone(), 99, 4);
        pool.refill();
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..8u64 {
            let x = BigUint::from_u64(i * 13);
            let direct = key.encrypt(&x, &mut rng);
            let via_pool = key.encrypt_with_rn(&x, &pool.take());
            assert_eq!(direct, via_pool, "nonce {i}");
        }
    }

    /// The first and last power of every group below, as hex.
    const PINNED: [[&str; 2]; 4] = [
        [
            "30bd9d105aa5fb64eea7e2bc96916ef66a35bf874b253f56d734dff9ffb8c1e0",
            "a34fac5e41171320e89d8fbf6574aabc981451c198300a128a1521c2438447f5",
        ],
        [
            "904f7888318b76b92831ba88ddd34e0bbf2226edc66c7c0d998b75af11ffe4fe",
            "99e50a993d3df82d665c2fb83a55e6d9e84a0ce803dac7e57ce4360e7e2e7fe7",
        ],
        [
            "3bd2f0a40dddf934162687790265f48c05be029e3f42c99f3ec84cd4cc72dfb6",
            "f0d0648740fed2b3b253a560f02d75639dfa80cf731d9b314252b9a569d535c",
        ],
        [
            "2cfc92d6f08b3d6c959e588bfe0392118638b256c50ef2eaddacd403e0fec834",
            "8bd149a90c86e64e69bf09a327ea6d6d2eef94c6beadf1c7d11c189b2b307570",
        ],
    ];

    #[test]
    fn nonce_stream_is_pinned() {
        // Powers pass through the batch API as encryptions of zero, whose
        // ciphertext is the nonce power itself.
        let key = pk();
        let batch = |pool: &Arc<NoncePool>, k: usize, threads: usize| -> Vec<BigUint> {
            let zeros = vec![BigUint::zero(); k];
            crate::batch::encrypt_batch(&key, &zeros, pool, threads)
                .iter()
                .map(|c| c.raw().clone())
                .collect()
        };
        let pool = NoncePool::new(key.clone(), 0x5EED_0A7E, 4);
        let mut singles = vec![pool.take()];
        let five = batch(&pool, 5, 1);
        singles.push(pool.take());
        let seven = batch(&pool, 7, 2);
        singles.push(pool.take());
        // Four powers computed ahead, two on demand, nonces retained.
        pool.retain_witnesses(true);
        pool.refill();
        let mixed = batch(&pool, 6, 2);
        pool.retain_witnesses(false);

        let groups = [&singles, &five, &seven, &mixed];
        let got: Vec<[String; 2]> = groups
            .iter()
            .map(|g| [g[0].to_hex(), g[g.len() - 1].to_hex()])
            .collect();
        assert_eq!(got, PINNED.map(|pair| pair.map(String::from)));

        let witnesses = pool.drain_witnesses();
        assert_eq!(witnesses.len(), mixed.len());
        for (r, rn) in witnesses.iter().zip(&mixed) {
            assert_eq!(&key.pow_n(r), rn);
        }
        assert_eq!(pool.drawn(), 3 + 5 + 7 + 6);
    }
}
