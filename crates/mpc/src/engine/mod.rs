//! The online MPC engine: one instance per party, driving SPMD protocols
//! over a [`pivot_transport::Endpoint`].
//!
//! Every collective method must be called by **all** parties in the same
//! order with equal vector lengths — exactly the programming model of the
//! SPDZ virtual machine the paper runs on. The endpoint is
//! backend-agnostic (in-process channels or TCP links): the engine never
//! sees which, so the same protocol code runs threaded or one process
//! per party.

mod arith;
mod compare;

use crate::dealer::DealerClient;
use crate::field::Fp;
use crate::fixed::FixedConfig;
use crate::share::Share;
use pivot_transport::Endpoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Comparison width policy: how many bits a secure comparison pays for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompareBits {
    /// Comparisons use the caller's proven value range (clamped to
    /// `int_bits`).
    #[default]
    Auto,
    /// Like `Auto`, but derived widths never drop below the floor — a
    /// conservative dial up to `Floor(int_bits)`, which compares at full
    /// width everywhere (the floor only ever *raises* a width, so
    /// correctness is unaffected).
    Floor(u32),
}

/// The smallest signed comparison width `k` with `bound < 2^(k−1)` —
/// how call sites turn a proven magnitude bound into a width request.
pub fn width_for_magnitude(bound: u64) -> u32 {
    (64 - bound.leading_zeros() + 1).max(2)
}

/// Operation counters backing the paper's Table 2 cost model
/// (`Cs` = secure ops, `Cc` = secure comparisons).
#[derive(Debug)]
pub struct OpCounters {
    /// Communication rounds executed.
    pub rounds: AtomicU64,
    /// Beaver multiplications (vector elements, not rounds).
    pub multiplications: AtomicU64,
    /// Secure comparisons (vector elements).
    pub comparisons: AtomicU64,
    /// Values opened.
    pub openings: AtomicU64,
    /// Rounds spent inside comparison protocols (mod2m/LTZ/BitLT).
    cmp_rounds: AtomicU64,
    /// Field elements opened inside comparison protocols.
    cmp_opened: AtomicU64,
    /// Beaver triples consumed inside comparison protocols.
    cmp_triples: AtomicU64,
    /// Masked-bit rows consumed (one per mod2m element).
    cmp_masked_rows: AtomicU64,
    /// Low-bit count (`t`) totals of the consumed masked rows.
    cmp_masked_bits: AtomicU64,
    /// Comparison counts per effective width `k` (index = width).
    cmp_widths: [AtomicU64; 62],
}

impl Default for OpCounters {
    fn default() -> Self {
        OpCounters {
            rounds: AtomicU64::new(0),
            multiplications: AtomicU64::new(0),
            comparisons: AtomicU64::new(0),
            openings: AtomicU64::new(0),
            cmp_rounds: AtomicU64::new(0),
            cmp_opened: AtomicU64::new(0),
            cmp_triples: AtomicU64::new(0),
            cmp_masked_rows: AtomicU64::new(0),
            cmp_masked_bits: AtomicU64::new(0),
            cmp_widths: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl OpCounters {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.rounds.load(Ordering::Relaxed),
            self.multiplications.load(Ordering::Relaxed),
            self.comparisons.load(Ordering::Relaxed),
            self.openings.load(Ordering::Relaxed),
        )
    }
}

/// Snapshot of the comparison-pipeline telemetry: what the secure
/// comparisons of one run actually paid in rounds, opened field elements,
/// and preprocessing material, with a per-width histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ComparisonCounters {
    /// Secure comparisons performed (vector elements — same count as
    /// [`OpCounters::comparisons`]).
    pub count: u64,
    /// Communication rounds spent inside comparison protocols.
    pub online_rounds: u64,
    /// Field elements opened inside comparison protocols (the dominant
    /// share of comparison `bytes_sent`: one field element per party per
    /// opened value).
    pub opened_elements: u64,
    /// Beaver triples consumed by comparison multiplications.
    pub beaver_triples: u64,
    /// Masked-bit rows consumed (one per mod2m element).
    pub masked_bit_rows: u64,
    /// Total bit-decomposed low bits across the consumed rows.
    pub masked_bits: u64,
    /// `(width, comparisons)` histogram over effective widths, ascending.
    pub widths: Vec<(u32, u64)>,
}

impl ComparisonCounters {
    /// Field-wise accumulation. Every scalar adds independently and the
    /// width histograms merge by width key, so a side that is
    /// default-initialized (e.g. a mixed-version report missing the
    /// newer counter group) contributes zeros instead of dropping the
    /// other side's groups.
    pub fn merge(&mut self, other: &ComparisonCounters) {
        self.count += other.count;
        self.online_rounds += other.online_rounds;
        self.opened_elements += other.opened_elements;
        self.beaver_triples += other.beaver_triples;
        self.masked_bit_rows += other.masked_bit_rows;
        self.masked_bits += other.masked_bits;
        for &(k, n) in &other.widths {
            match self.widths.iter_mut().find(|(w, _)| *w == k) {
                Some((_, slot)) => *slot += n,
                None => self.widths.push((k, n)),
            }
        }
        self.widths.sort_by_key(|&(k, _)| k);
    }
}

/// Per-party online engine.
pub struct MpcEngine<'a> {
    ep: &'a Endpoint,
    dealer: DealerClient,
    /// Fixed-point layout shared by all parties.
    pub cfg: FixedConfig,
    counters: OpCounters,
    /// Private randomness (per party, for input sharing).
    rng: StdRng,
    /// Comparison width policy (must match across parties).
    cmp_bits: CompareBits,
    /// Set while a comparison protocol is on the stack, so the generic
    /// open/multiply layers can attribute their costs to comparisons.
    in_comparison: bool,
    /// Openings queued by [`MpcEngine::open_deferred`], settled together
    /// by the next [`MpcEngine::resolve`].
    deferred_shares: Vec<Share>,
    /// Per-ticket lengths of the queued openings.
    deferred_spans: Vec<usize>,
}

impl<'a> MpcEngine<'a> {
    /// Create the engine. `dealer_seed` must match across parties (it keys
    /// the simulated offline phase); private randomness is derived from the
    /// party id and entropy.
    pub fn new(ep: &'a Endpoint, dealer_seed: u64, cfg: FixedConfig) -> Self {
        cfg.assert_valid();
        let dealer = DealerClient::new(dealer_seed, ep.id(), ep.parties());
        let rng = StdRng::seed_from_u64(
            dealer_seed ^ (0x9e37_79b9_7f4a_7c15u64).wrapping_mul(ep.id() as u64 + 1),
        );
        MpcEngine {
            ep,
            dealer,
            cfg,
            counters: OpCounters::default(),
            rng,
            cmp_bits: CompareBits::default(),
            in_comparison: false,
            deferred_shares: Vec::new(),
            deferred_spans: Vec::new(),
        }
    }

    /// Set the comparison width policy, which must be identical on every
    /// party. The second parameter is ignored: it stays until the next
    /// `benchmark` PR drops the argument from `benchmark/src/micro.rs`.
    pub fn configure_comparisons(&mut self, mode: CompareBits, _retired: usize) {
        if let CompareBits::Floor(n) = mode {
            assert!(
                (2..=self.cfg.int_bits).contains(&n),
                "comparison width floor {n} outside 2..={}",
                self.cfg.int_bits
            );
        }
        self.cmp_bits = mode;
    }

    /// Resolve a requested comparison width under the active policy.
    pub(crate) fn effective_bits(&self, requested: u32) -> u32 {
        let k = match self.cmp_bits {
            CompareBits::Auto => requested,
            CompareBits::Floor(n) => requested.max(n),
        };
        k.clamp(2, self.cfg.int_bits)
    }

    /// Snapshot the comparison-pipeline telemetry.
    pub fn comparison_snapshot(&self) -> ComparisonCounters {
        let c = &self.counters;
        let widths: Vec<(u32, u64)> = c
            .cmp_widths
            .iter()
            .enumerate()
            .filter_map(|(k, v)| {
                let n = v.load(Ordering::Relaxed);
                (n > 0).then_some((k as u32, n))
            })
            .collect();
        ComparisonCounters {
            count: c.comparisons.load(Ordering::Relaxed),
            online_rounds: c.cmp_rounds.load(Ordering::Relaxed),
            opened_elements: c.cmp_opened.load(Ordering::Relaxed),
            beaver_triples: c.cmp_triples.load(Ordering::Relaxed),
            masked_bit_rows: c.cmp_masked_rows.load(Ordering::Relaxed),
            masked_bits: c.cmp_masked_bits.load(Ordering::Relaxed),
            widths,
        }
    }

    /// Enter a comparison scope; returns the previous flag for nesting.
    pub(crate) fn enter_comparison(&mut self) -> bool {
        std::mem::replace(&mut self.in_comparison, true)
    }

    pub(crate) fn exit_comparison(&mut self, prev: bool) {
        self.in_comparison = prev;
    }

    pub(crate) fn bump_cmp_masked(&self, rows: u64, t: u32) {
        OpCounters::bump(&self.counters.cmp_masked_rows, rows);
        OpCounters::bump(&self.counters.cmp_masked_bits, rows * t as u64);
    }

    pub(crate) fn bump_cmp_width(&self, k: u32, n: u64) {
        if let Some(slot) = self.counters.cmp_widths.get(k as usize) {
            OpCounters::bump(slot, n);
        }
    }

    /// This party's id.
    pub fn party(&self) -> usize {
        self.ep.id()
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.ep.parties()
    }

    /// The transport endpoint (for protocol layers that mix MPC with other
    /// messaging, e.g. the TPHE↔MPC conversions of Algorithm 2).
    pub fn endpoint(&self) -> &Endpoint {
        self.ep
    }

    /// The offline-phase client.
    pub fn dealer_mut(&mut self) -> &mut DealerClient {
        &mut self.dealer
    }

    /// Operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Share of a public constant (no communication).
    pub fn constant(&self, v: Fp) -> Share {
        Share::from_public(self.party(), v)
    }

    /// Encode a public real as a constant share.
    pub fn constant_f64(&self, x: f64) -> Share {
        self.constant(self.cfg.encode(x))
    }

    // ------------------------------------------------------------------
    // Input sharing and opening
    // ------------------------------------------------------------------

    /// Secret-share private inputs held by `owner`. The owner passes
    /// `Some(values)`, everyone else `None`; all parties receive their share
    /// vector. One round.
    pub fn share_input(&mut self, owner: usize, values: Option<&[Fp]>) -> Vec<Share> {
        let _span = pivot_trace::span("share_input");
        let my_shares: Vec<Fp> = if self.party() == owner {
            let values = values.expect("owner must supply inputs");
            let m = self.parties();
            // Build per-party share vectors.
            let mut per_party: Vec<Vec<Fp>> = vec![Vec::with_capacity(values.len()); m];
            for &v in values {
                let mut acc = Fp::ZERO;
                for party_shares in per_party.iter_mut().take(m - 1) {
                    let r = Fp::new(self.rng.gen_range(0..crate::field::MODULUS));
                    party_shares.push(r);
                    acc += r;
                }
                per_party[m - 1].push(v - acc);
            }
            for (to, shares) in per_party.iter().enumerate() {
                if to != owner {
                    self.ep.send(to, shares);
                }
            }
            per_party.swap_remove(owner)
        } else {
            assert!(values.is_none(), "non-owner must not supply inputs");
            self.ep.recv(owner)
        };
        OpCounters::bump(&self.counters.rounds, 1);
        pivot_trace::add_rounds(1);
        self.ep.note_round();
        my_shares.into_iter().map(Share).collect()
    }

    /// Open a vector of shares to all parties. One round.
    pub fn open_vec(&mut self, shares: &[Share]) -> Vec<Fp> {
        let _span = pivot_trace::span("open");
        let mine: Vec<Fp> = shares.iter().map(|s| s.0).collect();
        let all = self.ep.exchange_all(&mine);
        OpCounters::bump(&self.counters.rounds, 1);
        pivot_trace::add_rounds(1);
        self.ep.note_round();
        OpCounters::bump(&self.counters.openings, shares.len() as u64);
        if self.in_comparison {
            OpCounters::bump(&self.counters.cmp_rounds, 1);
            OpCounters::bump(&self.counters.cmp_opened, shares.len() as u64);
        }
        let mut out = vec![Fp::ZERO; shares.len()];
        for party_vec in &all {
            assert_eq!(party_vec.len(), shares.len(), "open length mismatch");
            for (acc, &v) in out.iter_mut().zip(party_vec) {
                *acc += v;
            }
        }
        out
    }

    /// Open a single share.
    pub fn open(&mut self, share: Share) -> Fp {
        self.open_vec(&[share])[0]
    }

    /// Queue a vector of shares for a deferred opening and return its
    /// ticket — the index of its result in the next [`MpcEngine::resolve`].
    ///
    /// Independent openings a protocol step produces (prune bits, winner
    /// indices, leaf labels, …) queue here instead of each paying an
    /// `open_vec` round; `resolve` settles the whole queue in one round.
    /// Like every collective, all parties must queue the same vectors in
    /// the same order.
    pub fn open_deferred(&mut self, shares: &[Share]) -> usize {
        self.deferred_shares.extend_from_slice(shares);
        self.deferred_spans.push(shares.len());
        self.deferred_spans.len() - 1
    }

    /// Number of deferred openings currently queued.
    pub fn deferred_pending(&self) -> usize {
        self.deferred_spans.len()
    }

    /// Settle every queued deferred opening in a single round. Returns
    /// one result vector per ticket, in queue order, and clears the
    /// queue. No-op (and no round) when nothing is queued.
    pub fn resolve(&mut self) -> Vec<Vec<Fp>> {
        if self.deferred_spans.is_empty() {
            return Vec::new();
        }
        let shares = std::mem::take(&mut self.deferred_shares);
        let spans = std::mem::take(&mut self.deferred_spans);
        let flat = self.open_vec(&shares);
        let mut at = 0;
        spans
            .into_iter()
            .map(|len| {
                let chunk = flat[at..at + len].to_vec();
                at += len;
                chunk
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Multiplication (Beaver) and truncation
    // ------------------------------------------------------------------

    /// Element-wise secure multiplication. One round.
    pub fn mul_vec(&mut self, a: &[Share], b: &[Share]) -> Vec<Share> {
        assert_eq!(a.len(), b.len(), "mul_vec length mismatch");
        let n = a.len();
        if n == 0 {
            return Vec::new();
        }
        let triples = self.dealer.triples(n);
        if self.in_comparison {
            OpCounters::bump(&self.counters.cmp_triples, n as u64);
        }
        // e = a - ta, f = b - tb, opened together in one round.
        let mut masked = Vec::with_capacity(2 * n);
        for i in 0..n {
            masked.push(a[i] - Share(triples[i].a));
        }
        for i in 0..n {
            masked.push(b[i] - Share(triples[i].b));
        }
        let opened = self.open_vec(&masked);
        OpCounters::bump(&self.counters.multiplications, n as u64);
        let party = self.party();
        (0..n)
            .map(|i| {
                let e = opened[i];
                let f = opened[n + i];
                // z = c + e·⟨b⟩ + f·⟨a⟩ + e·f (public part at party 0).
                let z = Share(triples[i].c)
                    + Share(triples[i].b).scale(e)
                    + Share(triples[i].a).scale(f);
                z.add_public(party, e * f)
            })
            .collect()
    }

    /// Secure multiplication of two scalars.
    pub fn mul(&mut self, a: Share, b: Share) -> Share {
        self.mul_vec(&[a], &[b])[0]
    }

    /// Probabilistic truncation by `t` bits (±1 ulp error, 1 round).
    ///
    /// Inputs must be signed values of magnitude below `2^(int_bits - 1)`.
    pub fn trunc_vec(&mut self, v: &[Share], t: u32) -> Vec<Share> {
        let n = v.len();
        if n == 0 {
            return Vec::new();
        }
        let k = self.cfg.int_bits;
        assert!(t < k, "truncation by {t} exceeds {k}-bit layout");
        let offset = Fp::pow2(k - 1);
        let party = self.party();
        let pairs: Vec<(Fp, Fp)> = (0..n)
            .map(|_| self.dealer.trunc_pair(t, &self.cfg))
            .collect();
        let masked: Vec<Share> = v
            .iter()
            .zip(&pairs)
            .map(|(&x, &(r, _))| (x + Share(r)).add_public(party, offset))
            .collect();
        let opened = self.open_vec(&masked);
        opened
            .iter()
            .zip(&pairs)
            .map(|(&c, &(_, r_high))| {
                // c = (v + 2^(k-1)) + r exactly over the integers (no wrap),
                // so c >> t = r_high + (v + 2^(k-1)) >> t + {0,1}.
                let c_shift = Fp::new(c.value() >> t);
                (Share::from_public(party, c_shift) - Share(r_high))
                    .sub_public(party, Fp::pow2(k - 1 - t))
            })
            .collect()
    }

    /// Fixed-point multiplication: multiply then truncate the extra scale.
    /// Two rounds.
    pub fn fixmul_vec(&mut self, a: &[Share], b: &[Share]) -> Vec<Share> {
        let prod = self.mul_vec(a, b);
        self.trunc_vec(&prod, self.cfg.frac_bits)
    }

    /// Fixed-point scalar multiplication by a public real (local scale, then
    /// one truncation round).
    pub fn fixscale_vec(&mut self, a: &[Share], c: f64) -> Vec<Share> {
        let enc = self.cfg.encode(c);
        let scaled: Vec<Share> = a.iter().map(|&x| x.scale(enc)).collect();
        self.trunc_vec(&scaled, self.cfg.frac_bits)
    }

    pub(crate) fn bump_comparisons(&self, n: u64) {
        OpCounters::bump(&self.counters.comparisons, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComparisonCounters {
        ComparisonCounters {
            count: 10,
            online_rounds: 4,
            opened_elements: 30,
            beaver_triples: 12,
            masked_bit_rows: 8,
            masked_bits: 64,
            widths: vec![(5, 3), (61, 7)],
        }
    }

    #[test]
    fn merge_is_field_wise_with_default_side_in_both_orders() {
        // A default-initialized side (mixed-version reports missing the
        // newer counter group) must contribute zeros, not wipe groups.
        let mut a = sample();
        a.merge(&ComparisonCounters::default());
        assert_eq!(a, sample());

        let mut b = ComparisonCounters::default();
        b.merge(&sample());
        assert_eq!(b, sample());
    }

    #[test]
    fn merge_adds_scalars_and_unions_width_histograms() {
        let mut a = sample();
        let other = ComparisonCounters {
            count: 1,
            online_rounds: 2,
            opened_elements: 3,
            beaver_triples: 4,
            masked_bit_rows: 5,
            masked_bits: 6,
            widths: vec![(4, 1), (5, 2)],
        };
        a.merge(&other);
        assert_eq!(a.count, 11);
        assert_eq!(a.online_rounds, 6);
        assert_eq!(a.opened_elements, 33);
        assert_eq!(a.beaver_triples, 16);
        assert_eq!(a.masked_bit_rows, 13);
        assert_eq!(a.masked_bits, 70);
        // Histogram merged by width key, sorted ascending.
        assert_eq!(a.widths, vec![(4, 1), (5, 5), (61, 7)]);
    }
}
