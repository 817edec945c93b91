//! The offline phase: correlated randomness for the online protocols.
//!
//! MP-SPDZ separates an input-independent offline phase (Beaver triples,
//! shared random bits, masked-truncation pairs) from the online phase; the
//! paper reports online time only (§8.1: "we report the running time of the
//! online phase"). We reproduce that cost model with a *simulated trusted
//! dealer*: every party derives the same preprocessing stream from a common
//! seed and keeps its own component, so preprocessing costs zero online
//! communication.
//!
//! This is a **simulation of the offline phase**, not a secure realization
//! of it (each party could recompute the others' shares from the seed). The
//! online protocols built on top are the real ones; swapping in genuine
//! OT/HE-based preprocessing would not change any online message.
//!
//! Stream layout: Beaver triples and masked-bit rows come from *dedicated
//! derived streams*, one per material kind (and per mask width). Each
//! stream is consumed FIFO, so a [`DealerPool`] can precompute rows on
//! background workers during idle phases without changing a single value
//! — the same determinism contract as the `NoncePool`. Order-sensitive
//! material (probabilistic truncation pairs, DP unit fractions, random
//! bits/shares) advances the client's own PRG in protocol call order: its
//! values feed ±1-ulp rounding and DP draws, so reordering would change
//! results, not just transcripts.

use crate::field::{Fp, MODULUS};
use crate::fixed::FixedConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A Beaver multiplication triple share: `(⟨a⟩, ⟨b⟩, ⟨ab⟩)`.
#[derive(Clone, Copy, Debug)]
pub struct TripleShare {
    pub a: Fp,
    pub b: Fp,
    pub c: Fp,
}

/// Shares backing one exact-truncation / comparison mask:
/// `r = r_high · 2^t + Σ bits_i · 2^i`, with the low part bit-decomposed.
#[derive(Clone, Debug)]
pub struct MaskedBitsShare {
    /// Share of the full mask `r`.
    pub r: Fp,
    /// Share of the high part `r_high`.
    pub r_high: Fp,
    /// Shares of the `t` low bits (LSB first).
    pub bits: Vec<Fp>,
}

/// Draw a uniform field element from `rng` (same draw on every party).
fn draw_uniform(rng: &mut StdRng) -> Fp {
    Fp::new(rng.gen_range(0..MODULUS))
}

/// Split `value` into `m` additive shares and keep party `party`'s.
/// Every party generates the identical share vector and indexes it.
fn draw_split(rng: &mut StdRng, party: usize, m: usize, value: Fp) -> Fp {
    let mut total = Fp::ZERO;
    let mut mine = Fp::ZERO;
    for i in 0..m - 1 {
        let share = draw_uniform(rng);
        total += share;
        if i == party {
            mine = share;
        }
    }
    let last = value - total;
    if party == m - 1 {
        mine = last;
    }
    mine
}

fn draw_triple(rng: &mut StdRng, party: usize, m: usize) -> TripleShare {
    let a = draw_uniform(rng);
    let b = draw_uniform(rng);
    let c = a * b;
    TripleShare {
        a: draw_split(rng, party, m, a),
        b: draw_split(rng, party, m, b),
        c: draw_split(rng, party, m, c),
    }
}

/// One masked-bit row: `t` bit-decomposed low bits plus a uniform
/// `high_bits`-bit high part. The caller fixes `high_bits = k + κ − t`
/// for the audited comparison width `k`.
fn draw_masked_row(
    rng: &mut StdRng,
    party: usize,
    m: usize,
    t: u32,
    high_bits: u32,
) -> MaskedBitsShare {
    debug_assert!(t + high_bits < 61, "mask exceeds the 61-bit field");
    let mut low_val = 0u64;
    let mut bit_shares = Vec::with_capacity(t as usize);
    for i in 0..t {
        let bit = rng.gen_range(0..2u64);
        low_val |= bit << i;
        bit_shares.push(draw_split(rng, party, m, Fp::new(bit)));
    }
    let high = rng.gen_range(0..(1u64 << high_bits));
    let r_val = Fp::new(high << t) + Fp::new(low_val);
    MaskedBitsShare {
        r: draw_split(rng, party, m, r_val),
        r_high: draw_split(rng, party, m, Fp::new(high)),
        bits: bit_shares,
    }
}

/// Derive a per-stream seed from the dealer seed and a material tag.
/// SplitMix64-style finalizer: identical on every party, spreads nearby
/// tags far apart so streams never collide.
fn derived_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TRIPLE_TAG: u64 = 0x7219_7213_BEAF_E201;
const MASKED_TAG: u64 = 0x0A5C_ED81_7500_13D7;

/// Hit/miss behavior of one party's [`DealerPool`] (timing-dependent —
/// *not* part of the cross-backend parity contract; the values drawn are).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DealerPoolStats {
    /// Refill target per stream (0 = inline generation only).
    pub target: u64,
    /// Beaver triples served from the precomputed queue.
    pub triple_hits: u64,
    /// Beaver triples generated inline on demand.
    pub triple_misses: u64,
    /// Masked-bit rows served from the precomputed queues.
    pub masked_hits: u64,
    /// Masked-bit rows generated inline on demand.
    pub masked_misses: u64,
    /// Items precomputed by background workers.
    pub produced: u64,
}

impl DealerPoolStats {
    /// Field-wise accumulation; `target` keeps the maximum so a
    /// default-initialized side (mixed-version reports) never zeroes a
    /// configured one.
    pub fn merge(&mut self, other: &DealerPoolStats) {
        self.target = self.target.max(other.target);
        self.triple_hits += other.triple_hits;
        self.triple_misses += other.triple_misses;
        self.masked_hits += other.masked_hits;
        self.masked_misses += other.masked_misses;
        self.produced += other.produced;
    }

    /// Fraction of takes served from the precomputed queues (`None` when
    /// nothing was taken).
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.triple_hits + self.masked_hits;
        let total = hits + self.triple_misses + self.masked_misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }
}

/// FIFO stream of one preprocessing material kind: a dedicated seeded PRG
/// plus a queue of precomputed items. Values depend only on how many items
/// were drawn so far, never on *when* they were generated — the property
/// that makes background precomputation transcript-neutral.
struct Stream<T> {
    rng: StdRng,
    queue: VecDeque<T>,
    /// Items drawn since the last background refill sized this stream
    /// (the trickle window the async worker adapts to).
    demand: u64,
    /// Largest inter-refill window drain observed.
    burst: u64,
    /// Items drawn since the last *barrier* refill — accumulates across
    /// background refills so the level barrier sees the whole level's
    /// demand even when async triggers split the window.
    level_demand: u64,
    /// Largest full-level drain observed at a barrier.
    level_burst: u64,
}

impl<T> Stream<T> {
    fn new(seed: u64) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(seed),
            queue: VecDeque::new(),
            demand: 0,
            burst: 0,
            level_demand: 0,
            level_burst: 0,
        }
    }
}

/// Per-party offline pool: the derived Beaver-triple and masked-bit-row
/// streams, precomputed on the `pivot-runtime` background queue during
/// idle phases (mirroring the `NoncePool`).
pub struct DealerPool {
    party: usize,
    m: usize,
    seed: u64,
    /// Refill target per stream; 0 disables background precomputation
    /// (everything generates inline, still from the derived streams).
    target: AtomicUsize,
    triples: Mutex<Stream<TripleShare>>,
    /// Masked-bit streams keyed by `(t, high_bits)` — each width draws
    /// from its own derived seed, so widths never perturb each other.
    masked: Mutex<HashMap<(u32, u32), Stream<MaskedBitsShare>>>,
    refill_pending: AtomicBool,
    triple_hits: AtomicU64,
    triple_misses: AtomicU64,
    masked_hits: AtomicU64,
    masked_misses: AtomicU64,
    produced: AtomicU64,
}

impl DealerPool {
    /// A pool with refill target 0 (see [`Self::set_target`]).
    fn new(seed: u64, party: usize, m: usize) -> Arc<DealerPool> {
        Arc::new(DealerPool {
            party,
            m,
            seed,
            target: AtomicUsize::new(0),
            triples: Mutex::new(Stream::new(derived_seed(seed, TRIPLE_TAG))),
            masked: Mutex::new(HashMap::new()),
            refill_pending: AtomicBool::new(false),
            triple_hits: AtomicU64::new(0),
            triple_misses: AtomicU64::new(0),
            masked_hits: AtomicU64::new(0),
            masked_misses: AtomicU64::new(0),
            produced: AtomicU64::new(0),
        })
    }

    /// Set the refill target per stream. Values are FIFO per stream, so
    /// changing the target at any point never changes a drawn value.
    pub fn set_target(&self, target: usize) {
        self.target.store(target, Ordering::Relaxed);
    }

    fn target(&self) -> usize {
        self.target.load(Ordering::Relaxed)
    }

    /// Take `n` triples: precomputed rows first (FIFO), inline generation
    /// for the rest — the values are identical either way.
    fn take_triples(&self, n: usize) -> Vec<TripleShare> {
        let mut s = self.triples.lock().expect("dealer pool poisoned");
        s.demand += n as u64;
        s.level_demand += n as u64;
        let mut out = Vec::with_capacity(n);
        let hits = n.min(s.queue.len());
        for _ in 0..hits {
            out.push(s.queue.pop_front().expect("counted"));
        }
        for _ in hits..n {
            out.push(draw_triple(&mut s.rng, self.party, self.m));
        }
        self.triple_hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.triple_misses
            .fetch_add((n - hits) as u64, Ordering::Relaxed);
        if pivot_trace::enabled() {
            let h = self.triple_hits.load(Ordering::Relaxed);
            let miss = self.triple_misses.load(Ordering::Relaxed);
            pivot_trace::gauge(
                "dealer_triple_hit_rate",
                h as f64 / (h + miss).max(1) as f64,
            );
        }
        out
    }

    /// Take `n` masked-bit rows of shape `(t, high_bits)`.
    fn take_masked(&self, t: u32, high_bits: u32, n: usize) -> Vec<MaskedBitsShare> {
        let mut map = self.masked.lock().expect("dealer pool poisoned");
        let s = map.entry((t, high_bits)).or_insert_with(|| {
            Stream::new(derived_seed(
                self.seed,
                MASKED_TAG ^ ((t as u64) << 32 | high_bits as u64),
            ))
        });
        s.demand += n as u64;
        s.level_demand += n as u64;
        let mut out = Vec::with_capacity(n);
        let hits = n.min(s.queue.len());
        for _ in 0..hits {
            out.push(s.queue.pop_front().expect("counted"));
        }
        for _ in hits..n {
            out.push(draw_masked_row(
                &mut s.rng, self.party, self.m, t, high_bits,
            ));
        }
        self.masked_hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.masked_misses
            .fetch_add((n - hits) as u64, Ordering::Relaxed);
        if pivot_trace::enabled() {
            let h = self.masked_hits.load(Ordering::Relaxed);
            let miss = self.masked_misses.load(Ordering::Relaxed);
            pivot_trace::gauge(
                "dealer_masked_hit_rate",
                h as f64 / (h + miss).max(1) as f64,
            );
        }
        out
    }

    /// Top up every stream on the shared background queue. Cheap no-op
    /// when a refill is already pending or the target is 0; call from
    /// protocol idle phases (setup, conversion waits, level barriers).
    ///
    /// Each stream fills to `max(target, demand since its last refill)`:
    /// the pipelined scheduler drains whole level-bursts at once, far
    /// past any fixed floor, and the next level's burst has the same
    /// shape — so sizing to the observed drain keeps the pool ahead of
    /// bursty consumers without changing a single drawn value (rows are
    /// FIFO; values depend only on draw order).
    pub fn refill(self: &Arc<Self>) {
        let target = self.target();
        if target == 0 || self.refill_pending.swap(true, Ordering::AcqRel) {
            return;
        }
        let pool = Arc::clone(self);
        pivot_runtime::global().spawn(move || {
            let _span = pivot_trace::runtime_span("dealer_refill");
            // Generate in small chunks so online takes never wait long on
            // the stream lock.
            const CHUNK: usize = 16;
            let triple_goal = {
                let mut s = pool.triples.lock().expect("dealer pool poisoned");
                s.burst = s.burst.max(std::mem::take(&mut s.demand));
                target.max(s.burst.max(s.level_burst) as usize)
            };
            loop {
                let mut s = pool.triples.lock().expect("dealer pool poisoned");
                if s.queue.len() >= triple_goal {
                    break;
                }
                for _ in 0..CHUNK {
                    let t = draw_triple(&mut s.rng, pool.party, pool.m);
                    s.queue.push_back(t);
                }
                pool.produced.fetch_add(CHUNK as u64, Ordering::Relaxed);
            }
            // Refill every width the protocol has requested so far.
            let keys: Vec<(u32, u32)> = {
                let map = pool.masked.lock().expect("dealer pool poisoned");
                map.keys().copied().collect()
            };
            for key in keys {
                let goal = {
                    let mut map = pool.masked.lock().expect("dealer pool poisoned");
                    let s = map.get_mut(&key).expect("known key");
                    s.burst = s.burst.max(std::mem::take(&mut s.demand));
                    target.max(s.burst.max(s.level_burst) as usize)
                };
                loop {
                    let mut map = pool.masked.lock().expect("dealer pool poisoned");
                    let s = map.get_mut(&key).expect("known key");
                    if s.queue.len() >= goal {
                        break;
                    }
                    for _ in 0..CHUNK {
                        let row = draw_masked_row(&mut s.rng, pool.party, pool.m, key.0, key.1);
                        s.queue.push_back(row);
                    }
                    pool.produced.fetch_add(CHUNK as u64, Ordering::Relaxed);
                }
            }
            pool.refill_pending.store(false, Ordering::Release);
        });
    }

    /// Synchronously top up every stream to its burst-informed goal on
    /// the caller's thread. The pipelined scheduler calls this at level
    /// barriers: the next level replays this level's burst shape scaled
    /// by the frontier growth `grow_num / grow_den` (next-level node
    /// count over this level's demanding node count), far past what the
    /// background worker can stage between a trigger and a drain — so
    /// the barrier, the protocol's designated idle point, absorbs the
    /// generation instead of the online takes. Values are unchanged
    /// either way (FIFO streams).
    pub fn refill_blocking(&self, grow_num: usize, grow_den: usize) {
        let target = self.target();
        if target == 0 {
            return;
        }
        let scaled = |burst: u64| -> usize {
            let num = burst as u128 * grow_num.max(1) as u128;
            num.div_ceil(grow_den.max(1) as u128) as usize
        };
        {
            let mut s = self.triples.lock().expect("dealer pool poisoned");
            s.burst = s.burst.max(std::mem::take(&mut s.demand));
            s.level_burst = s.level_burst.max(std::mem::take(&mut s.level_demand));
            let goal = target.max(scaled(s.level_burst));
            let mut made = 0u64;
            while s.queue.len() < goal {
                let t = draw_triple(&mut s.rng, self.party, self.m);
                s.queue.push_back(t);
                made += 1;
            }
            self.produced.fetch_add(made, Ordering::Relaxed);
        }
        let keys: Vec<(u32, u32)> = {
            let map = self.masked.lock().expect("dealer pool poisoned");
            map.keys().copied().collect()
        };
        for key in keys {
            let mut map = self.masked.lock().expect("dealer pool poisoned");
            let s = map.get_mut(&key).expect("known key");
            s.burst = s.burst.max(std::mem::take(&mut s.demand));
            s.level_burst = s.level_burst.max(std::mem::take(&mut s.level_demand));
            let goal = target.max(scaled(s.level_burst));
            let mut made = 0u64;
            while s.queue.len() < goal {
                let row = draw_masked_row(&mut s.rng, self.party, self.m, key.0, key.1);
                s.queue.push_back(row);
                made += 1;
            }
            self.produced.fetch_add(made, Ordering::Relaxed);
        }
    }

    pub fn stats(&self) -> DealerPoolStats {
        DealerPoolStats {
            target: self.target() as u64,
            triple_hits: self.triple_hits.load(Ordering::Relaxed),
            triple_misses: self.triple_misses.load(Ordering::Relaxed),
            masked_hits: self.masked_hits.load(Ordering::Relaxed),
            masked_misses: self.masked_misses.load(Ordering::Relaxed),
            produced: self.produced.load(Ordering::Relaxed),
        }
    }
}

/// Per-party client of the simulated dealer. All parties construct it with
/// the same `seed` and call the same sequence of methods; each call advances
/// an identical PRG stream and returns this party's component.
pub struct DealerClient {
    /// Call-order stream for the order-sensitive material.
    rng: StdRng,
    party: usize,
    m: usize,
    /// The derived FIFO streams serving triples and masked-bit rows.
    pool: Arc<DealerPool>,
}

impl DealerClient {
    /// `seed` must be identical across parties; `party` is this party's id.
    pub fn new(seed: u64, party: usize, m: usize) -> Self {
        assert!(party < m);
        DealerClient {
            rng: StdRng::seed_from_u64(seed),
            party,
            m,
            pool: DealerPool::new(seed, party, m),
        }
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.m
    }

    /// The offline pool behind the triple and masked-row streams.
    pub fn pool(&self) -> &Arc<DealerPool> {
        &self.pool
    }

    fn uniform(&mut self) -> Fp {
        draw_uniform(&mut self.rng)
    }

    fn split(&mut self, value: Fp) -> Fp {
        draw_split(&mut self.rng, self.party, self.m, value)
    }

    /// Next Beaver triple.
    pub fn triple(&mut self) -> TripleShare {
        self.triples(1).remove(0)
    }

    /// A batch of Beaver triples.
    pub fn triples(&mut self, n: usize) -> Vec<TripleShare> {
        self.pool.take_triples(n)
    }

    /// Share of a uniformly random field element (unknown to all parties).
    pub fn random_share(&mut self) -> Fp {
        let v = self.uniform();
        self.split(v)
    }

    /// Share of a uniformly random bit.
    pub fn random_bit(&mut self) -> Fp {
        let b = Fp::new(self.rng.gen_range(0..2u64));
        self.split(b)
    }

    /// Masked-truncation material for `Mod2m` with `t` low bits: the low
    /// part is bit-decomposed. The comparison operates on values in
    /// `[0, 2^k)`, so the high part only needs `k + κ − t` bits — the
    /// statistical-headroom audit scales with the *proven* range instead
    /// of the global `int_bits`.
    pub fn masked_rows(
        &mut self,
        t: u32,
        k: u32,
        n: usize,
        cfg: &FixedConfig,
    ) -> Vec<MaskedBitsShare> {
        assert!(t <= k, "mod 2^{t} needs at least {t} value bits, got {k}");
        assert!(
            k + cfg.kappa < 61,
            "comparison width {k} + κ {} = {} exceeds the 61-bit field",
            cfg.kappa,
            k + cfg.kappa
        );
        let high_bits = k + cfg.kappa - t;
        self.pool.take_masked(t, high_bits, n)
    }

    /// Probabilistic-truncation mask: `(⟨r⟩, ⟨r_high⟩)` with
    /// `r = r_high·2^t + r_low`, `r_low` uniform in `[0, 2^t)` (bits not
    /// needed for the probabilistic variant).
    ///
    /// Always drawn from the call-order stream: the mask value decides the
    /// ±1-ulp rounding of every probabilistic truncation, so reordering
    /// draws would change *results*, not just transcripts.
    pub fn trunc_pair(&mut self, t: u32, cfg: &FixedConfig) -> (Fp, Fp) {
        let high_bits = cfg.int_bits + cfg.kappa - t;
        let low = self.rng.gen_range(0..(1u64 << t));
        let high = self.rng.gen_range(0..(1u64 << high_bits));
        let r_val = Fp::new((high << t).wrapping_add(low));
        (self.split(r_val), self.split(Fp::new(high)))
    }

    /// Shares of a uniform fixed-point value in `[0, 1)` (that is, a random
    /// `f`-bit integer at scale `2^-f`) — used by the DP samplers (Alg. 5/6).
    /// Call-order stream: the draw *is* the DP randomness.
    pub fn random_unit_fraction(&mut self, cfg: &FixedConfig) -> Fp {
        let v = self.rng.gen_range(0..(1u64 << cfg.frac_bits));
        self.split(Fp::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `m` dealer clients in lockstep and reconstruct their outputs.
    fn clients(m: usize) -> Vec<DealerClient> {
        (0..m).map(|p| DealerClient::new(7, p, m)).collect()
    }

    fn reconstruct(shares: impl IntoIterator<Item = Fp>) -> Fp {
        shares.into_iter().fold(Fp::ZERO, |a, b| a + b)
    }

    #[test]
    fn triples_multiply() {
        let mut cs = clients(3);
        for _ in 0..20 {
            let ts: Vec<TripleShare> = cs.iter_mut().map(|c| c.triple()).collect();
            let a = reconstruct(ts.iter().map(|t| t.a));
            let b = reconstruct(ts.iter().map(|t| t.b));
            let c = reconstruct(ts.iter().map(|t| t.c));
            assert_eq!(a * b, c);
        }
    }

    #[test]
    fn random_bits_are_bits() {
        let mut cs = clients(4);
        let mut seen = [false; 2];
        for _ in 0..50 {
            let shares: Vec<Fp> = cs.iter_mut().map(|c| c.random_bit()).collect();
            let b = reconstruct(shares).value();
            assert!(b <= 1, "reconstructed {b} is not a bit");
            seen[b as usize] = true;
        }
        assert!(seen[0] && seen[1], "both bit values should occur");
    }

    #[test]
    fn masked_bits_consistent() {
        let cfg = FixedConfig::default();
        let mut cs = clients(2);
        for _ in 0..10 {
            let ms: Vec<MaskedBitsShare> = cs
                .iter_mut()
                .map(|c| c.masked_rows(16, cfg.int_bits, 1, &cfg).remove(0))
                .collect();
            let r = reconstruct(ms.iter().map(|m| m.r)).value();
            let r_high = reconstruct(ms.iter().map(|m| m.r_high)).value();
            let mut low = 0u64;
            for i in 0..16 {
                let bit = reconstruct(ms.iter().map(|m| m.bits[i])).value();
                assert!(bit <= 1);
                low |= bit << i;
            }
            assert_eq!(r, (r_high << 16) + low, "r = r_high·2^16 + r_low");
        }
    }

    #[test]
    fn bounded_masked_rows_respect_width() {
        let cfg = FixedConfig::default();
        let mut cs = clients(3);
        // Width-10 masks with t = 9 low bits: high part < 2^(10 + κ − 9).
        let rows: Vec<Vec<MaskedBitsShare>> = cs
            .iter_mut()
            .map(|c| c.masked_rows(9, 10, 5, &cfg))
            .collect();
        for i in 0..5 {
            let high = reconstruct(rows.iter().map(|r| r[i].r_high)).value();
            assert!(
                high < 1 << (10 + cfg.kappa - 9),
                "high part {high} too wide"
            );
            let r = reconstruct(rows.iter().map(|r| r[i].r)).value();
            let mut low = 0u64;
            for b in 0..9 {
                low |= reconstruct(rows.iter().map(|r| r[i].bits[b])).value() << b;
            }
            assert_eq!(r, (high << 9) + low);
        }
    }

    #[test]
    fn trunc_pair_structure() {
        let cfg = FixedConfig::default();
        let mut cs = clients(3);
        for _ in 0..10 {
            let ps: Vec<(Fp, Fp)> = cs.iter_mut().map(|c| c.trunc_pair(16, &cfg)).collect();
            let r = reconstruct(ps.iter().map(|p| p.0)).value();
            let high = reconstruct(ps.iter().map(|p| p.1)).value();
            assert_eq!(r >> 16, high, "high part matches");
            assert!(high < 1 << (cfg.int_bits + cfg.kappa - 16));
        }
    }

    #[test]
    fn streams_identical_across_parties() {
        // Two independent sets of clients with the same seed produce the
        // same reconstructed values.
        let mut a = clients(2);
        let mut b = clients(2);
        let ta: Vec<TripleShare> = a.iter_mut().map(|c| c.triple()).collect();
        let tb: Vec<TripleShare> = b.iter_mut().map(|c| c.triple()).collect();
        assert_eq!(
            reconstruct(ta.iter().map(|t| t.a)),
            reconstruct(tb.iter().map(|t| t.a))
        );
    }

    #[test]
    fn unit_fraction_in_range() {
        let cfg = FixedConfig::default();
        let mut cs = clients(2);
        for _ in 0..20 {
            let shares: Vec<Fp> = cs
                .iter_mut()
                .map(|c| c.random_unit_fraction(&cfg))
                .collect();
            let v = reconstruct(shares).value();
            assert!(v < 1 << cfg.frac_bits);
        }
    }

    #[test]
    fn split_streams_match_inline_generation() {
        // A fresh, unconfigured client (inline generation) and a pooled
        // client with a warm queue must produce identical values in
        // identical order — the determinism contract behind background
        // precomputation.
        let cfg = FixedConfig::default();
        let drain = |c: &mut DealerClient| {
            let mut out: Vec<Fp> = Vec::new();
            for t in c.triples(40) {
                out.extend([t.a, t.b, t.c]);
            }
            for row in c.masked_rows(9, 10, 8, &cfg) {
                out.push(row.r);
                out.push(row.r_high);
                out.extend(row.bits);
            }
            for t in c.triples(3) {
                out.extend([t.a, t.b, t.c]);
            }
            out
        };
        let baseline = drain(&mut DealerClient::new(77, 0, 2));

        let mut pooled = DealerClient::new(77, 0, 2);
        pooled.pool().set_target(64);
        // Force a full precompute round and wait for it to land.
        pooled.pool().refill();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pooled.pool().stats().produced < 64 {
            assert!(std::time::Instant::now() < deadline, "refill never ran");
            std::thread::yield_now();
        }
        assert_eq!(drain(&mut pooled), baseline);
        let stats = pooled.pool().stats();
        assert!(
            stats.triple_hits > 0,
            "precomputed triples unused: {stats:?}"
        );
        assert!(stats.hit_rate().unwrap() > 0.0);
    }

    #[test]
    fn split_stream_draws_are_width_independent() {
        // Draw order across widths must not perturb the per-width values.
        let cfg = FixedConfig::default();
        let mut a = DealerClient::new(5, 0, 2);
        let narrow_first: Vec<Fp> = a.masked_rows(5, 6, 3, &cfg).iter().map(|r| r.r).collect();
        let _wide = a.masked_rows(20, 30, 3, &cfg);

        let mut b = DealerClient::new(5, 0, 2);
        let _wide = b.masked_rows(20, 30, 3, &cfg);
        let narrow_second: Vec<Fp> = b.masked_rows(5, 6, 3, &cfg).iter().map(|r| r.r).collect();
        assert_eq!(narrow_first, narrow_second);
    }

    #[test]
    fn pool_stats_merge_is_field_wise() {
        let a = DealerPoolStats {
            target: 512,
            triple_hits: 10,
            triple_misses: 2,
            masked_hits: 5,
            masked_misses: 1,
            produced: 16,
        };
        // Default side in either order leaves the configured side intact.
        let mut m = a;
        m.merge(&DealerPoolStats::default());
        assert_eq!(m, a);
        let mut m = DealerPoolStats::default();
        m.merge(&a);
        assert_eq!(m, a);
        // Two configured sides add counters and keep the max target.
        let mut m = a;
        m.merge(&DealerPoolStats {
            target: 64,
            triple_hits: 1,
            triple_misses: 1,
            masked_hits: 1,
            masked_misses: 1,
            produced: 4,
        });
        assert_eq!(m.target, 512);
        assert_eq!(m.triple_hits, 11);
        assert_eq!(m.produced, 20);
    }

    #[test]
    #[should_panic(expected = "exceeds the 61-bit field")]
    fn oversized_width_rejected() {
        let cfg = FixedConfig::default();
        let mut c = DealerClient::new(1, 0, 2);
        c.masked_rows(40, 50, 1, &cfg);
    }
}
