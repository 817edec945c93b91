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
use pivot_trace::Counter;
use pivot_transport::Endpoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Comparison width policy: how many bits a secure comparison pays for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompareBits {
    /// Comparisons use the caller's proven value range (clamped to
    /// `int_bits`).
    #[default]
    Auto,
    /// Like `Auto`, but derived widths never drop below the floor.
    /// `Floor(int_bits)` compares at full width everywhere: the reference
    /// the parity tests hold the derived widths against (the floor only
    /// ever *raises* a width, so correctness is unaffected).
    Floor(u32),
}

/// The smallest signed comparison width `k` with `bound < 2^(k−1)` —
/// how call sites turn a proven magnitude bound into a width request.
pub fn width_for_magnitude(bound: u64) -> u32 {
    (64 - bound.leading_zeros() + 1).max(2)
}

/// Per-party online engine.
pub struct MpcEngine<'a> {
    ep: &'a Endpoint,
    dealer: DealerClient,
    /// Fixed-point layout shared by all parties.
    pub cfg: FixedConfig,
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

    /// Enter a comparison scope; returns the previous flag for nesting.
    pub(crate) fn enter_comparison(&mut self) -> bool {
        std::mem::replace(&mut self.in_comparison, true)
    }

    pub(crate) fn exit_comparison(&mut self, prev: bool) {
        self.in_comparison = prev;
    }

    /// Record one round: the party's counter and the fault plan's round
    /// trigger.
    fn note_round(&self) {
        self.count(Counter::Rounds, 1);
        self.ep.note_round();
    }

    /// Add to one of the party's counters.
    pub(crate) fn count(&self, counter: Counter, n: u64) {
        self.ep.counters().add(counter, n);
    }

    /// Record `n` comparisons of effective width `k`.
    pub(crate) fn count_comparisons(&self, k: u32, n: u64) {
        self.count(Counter::SecureComparisons, n);
        self.ep
            .counters()
            .add_cell(Counter::CmpWidths, k as usize, n);
    }

    pub(crate) fn count_masked_rows(&self, rows: u64, t: u32) {
        self.count(Counter::CmpMaskedRows, rows);
        self.count(Counter::CmpMaskedBits, rows * t as u64);
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

    /// Kept for `benchmark/src/micro.rs` (`eng.counters().snapshot()`);
    /// deleted by the next `benchmark` PR, which reads the registry.
    pub fn counters(&self) -> &Self {
        self
    }

    /// `(rounds,)` from the party's registry. See [`MpcEngine::counters`].
    pub fn snapshot(&self) -> (u64,) {
        (self.ep.counters().get(Counter::Rounds),)
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
        self.note_round();
        my_shares.into_iter().map(Share).collect()
    }

    /// Open a vector of shares to all parties. One round.
    pub fn open_vec(&mut self, shares: &[Share]) -> Vec<Fp> {
        let _span = pivot_trace::span("open");
        let mine: Vec<Fp> = shares.iter().map(|s| s.0).collect();
        let all = self.ep.exchange_all(&mine);
        self.note_round();
        if self.in_comparison {
            self.count(Counter::CmpRounds, 1);
            self.count(Counter::CmpOpened, shares.len() as u64);
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
            self.count(Counter::CmpTriples, n as u64);
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
        self.count(Counter::SecureMults, n as u64);
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
}
