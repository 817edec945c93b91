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

use crate::dealer::{DealerClient, TripleShare};
use crate::field::Fp;
use crate::fixed::FixedConfig;
use crate::share::Share;
use pivot_trace::Counter;
use pivot_transport::Endpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// One factor of a product fused after a truncation
/// ([`MpcEngine::trunc_mul_vec`]): `alpha·tr[lane] + beta`, with `tr` the
/// truncation's output, `alpha` public and `beta` a share known before
/// the round.
#[derive(Clone, Copy, Debug)]
pub struct Affine {
    /// The truncated element the factor reads (unused at `alpha = 0`).
    pub lane: usize,
    pub alpha: Fp,
    pub beta: Share,
}

impl Affine {
    /// A factor that does not read the truncation.
    pub fn share(beta: Share) -> Affine {
        Affine {
            lane: 0,
            alpha: Fp::ZERO,
            beta,
        }
    }

    /// The truncated element `tr[lane]` itself.
    pub fn lane(lane: usize) -> Affine {
        Affine {
            lane,
            alpha: Fp::ONE,
            beta: Share::ZERO,
        }
    }

    /// [`Affine::share`] of each share.
    pub fn shares(shares: &[Share]) -> Vec<Affine> {
        shares.iter().map(|&s| Affine::share(s)).collect()
    }

    /// [`Affine::lane`] of each of the first `n` truncated elements.
    pub fn lanes(n: usize) -> Vec<Affine> {
        (0..n).map(Affine::lane).collect()
    }
}

/// A probabilistic truncation `raw >> t` not opened yet. It rides the next
/// product's opening ([`MpcEngine::trunc_mul_vec`]) or, when no product
/// follows, opens on its own ([`MpcEngine::settle`]).
#[derive(Default)]
#[must_use = "a pending truncation is settled or fused into a product"]
pub struct Pending {
    pub raw: Vec<Share>,
    pub t: u32,
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
                    let r = Fp::random(&mut self.rng);
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
        let triples = self.draw_triples(n);
        // e = a - ta, f = b - tb, opened together in one round.
        let mut masked = Vec::with_capacity(2 * n);
        masked.extend(a.iter().zip(&triples).map(|(&x, t)| x - Share(t.a)));
        masked.extend(b.iter().zip(&triples).map(|(&y, t)| y - Share(t.b)));
        let opened = self.open_vec(&masked);
        self.count(Counter::SecureMults, n as u64);
        let (e, f) = opened.split_at(n);
        self.beaver_outputs(&triples, e, f)
    }

    /// `n` Beaver triples, booked to the comparison rows inside one.
    fn draw_triples(&mut self, n: usize) -> Vec<TripleShare> {
        if self.in_comparison {
            self.count(Counter::CmpTriples, n as u64);
        }
        self.dealer.triples(n)
    }

    /// The product shares of opened `e = a − ta`, `f = b − tb`:
    /// `z = c + e·⟨b⟩ + f·⟨a⟩ + e·f` (public part at party 0).
    fn beaver_outputs(&self, triples: &[TripleShare], e: &[Fp], f: &[Fp]) -> Vec<Share> {
        let party = self.party();
        triples
            .iter()
            .zip(e.iter().zip(f))
            .map(|(t, (&e, &f))| {
                (Share(t.c) + Share(t.b).scale(e) + Share(t.a).scale(f)).add_public(party, e * f)
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
        self.trunc_mul_vec(v, t, &[], &[]).0
    }

    /// Open a [`Pending`] truncation in a round of its own: what a
    /// truncation that no product follows costs.
    pub fn settle(&mut self, pending: Pending) -> Vec<Share> {
        self.trunc_vec(&pending.raw, pending.t)
    }

    /// A probabilistic truncation `tr = trunc(x, t)` and the product
    /// `a ⊙ b` of factors that read it (each `α·tr[lane] + β`, see
    /// [`Affine`]), in one round. Returns `(tr, a ⊙ b)`.
    ///
    /// Bit for bit [`Self::trunc_vec`] then [`Self::mul_vec`]: the same
    /// truncation pairs (call-order stream) and then the same triples
    /// (triple stream), and the same output shares. Only the exchange
    /// count drops. The opening of `c = x + r + 2^(k−1)` fixes
    /// `tr = (c >> t) − r_high − 2^(k−1−t)`, so a factor's masked share
    /// `α·(−r_high − 2^(k−1−t)) + β − ⟨a⟩` is known before `c` is, rides
    /// the same opening, and `e = opened + α·(c >> t)` afterwards.
    pub fn trunc_mul_vec(
        &mut self,
        x: &[Share],
        t: u32,
        a: &[Affine],
        b: &[Affine],
    ) -> (Vec<Share>, Vec<Share>) {
        assert_eq!(a.len(), b.len(), "trunc_mul_vec length mismatch");
        let (n, m) = (x.len(), a.len());
        if n + m == 0 {
            return (Vec::new(), Vec::new());
        }
        let k = self.cfg.int_bits;
        assert!(t < k, "truncation by {t} exceeds {k}-bit layout");
        let party = self.party();
        let pairs: Vec<(Fp, Fp)> = (0..n)
            .map(|_| self.dealer.trunc_pair(t, &self.cfg))
            .collect();
        let triples = self.draw_triples(m);
        // c = (x + 2^(k-1)) + r exactly over the integers (no wrap), so
        // c >> t = r_high + (x + 2^(k-1)) >> t + {0,1}: `known` is the
        // share part of tr = (c >> t) + known.
        let known: Vec<Share> = pairs
            .iter()
            .map(|&(_, r_high)| (-Share(r_high)).sub_public(party, Fp::pow2(k - 1 - t)))
            .collect();
        let known_part = |f: &Affine| match f.alpha {
            Fp::ZERO => f.beta,
            alpha => known[f.lane].scale(alpha) + f.beta,
        };
        let mut masked = Vec::with_capacity(n + 2 * m);
        masked.extend(
            x.iter()
                .zip(&pairs)
                .map(|(&v, &(r, _))| (v + Share(r)).add_public(party, Fp::pow2(k - 1))),
        );
        masked.extend(
            a.iter()
                .zip(&triples)
                .map(|(f, tr)| known_part(f) - Share(tr.a)),
        );
        masked.extend(
            b.iter()
                .zip(&triples)
                .map(|(f, tr)| known_part(f) - Share(tr.b)),
        );
        let opened = self.open_vec(&masked);
        if m > 0 {
            self.count(Counter::SecureMults, m as u64);
        }
        let (c, ef) = opened.split_at(n);
        let shifted: Vec<Fp> = c.iter().map(|c| Fp::new(c.value() >> t)).collect();
        let unmask = |fs: &[Affine], opened: &[Fp]| -> Vec<Fp> {
            fs.iter()
                .zip(opened)
                .map(|(f, &o)| match f.alpha {
                    Fp::ZERO => o,
                    alpha => o + alpha * shifted[f.lane],
                })
                .collect()
        };
        let e = unmask(a, &ef[..m]);
        let f = unmask(b, &ef[m..]);
        let tr = shifted
            .iter()
            .zip(&known)
            .map(|(&c, &kn)| Share::from_public(party, c) + kn)
            .collect();
        (tr, self.beaver_outputs(&triples, &e, &f))
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
