//! The malicious-model verification plane (§9.1): Σ-protocol proofs on
//! the protocol's ciphertext commit points, spot-checked by every party.
//!
//! When [`crate::config::Verification`] is on, each committing party
//! attaches a proof bundle to the ciphertexts it publishes:
//!
//! * **popk** ([`PlaintextProof`]) on fresh encryptions — the super
//!   client's root stride `(α, γ₁, …)` at setup, party `m−1`'s η
//!   initialization in Algorithm 4;
//! * **popcm** ([`MultiplicationProof`]) on `β ⊗ [α]` masking — plaintext
//!   model updates, the Algorithm-4 η refinements;
//! * **pohdp** ([`DotProductProof`]) on the Eqn-7 encrypted split
//!   statistics, proving each pooled dot product used the *committed*
//!   indicator vector.
//!
//! Party 0's Algorithm-4 outputs carry no proof: every party recomputes
//! them from public data and compares.
//!
//! Every kind runs through the same two routines, and supplies only the
//! closure that proves or verifies one commit. The **prover tail**
//! (`prove`) draws the kind's proof randomness serially, proves every
//! commit on the pool, advances the prover's commit index and applies
//! any `[adversary]` injection. The **checker** (`check`) publishes the
//! bundle, advances the lockstep check index, rejects a bundle whose
//! shape does not match its commits, and verifies the spot-selected
//! subset.
//!
//! Proof generation is **full** (every commit carries a proof — that is
//! what makes cheating unconditionally attributable); verification is
//! **spot-checked**: each party checks a seeded-deterministic `p`-fraction
//! of the commit stream, selected by a keyed hash over
//! `(phase, prover, commit index)` that every party evaluates identically,
//! so all parties check the same subset and either all accept or all
//! raise. A failed check raises
//! [`ProtocolError::ProofRejected`] through the typed error plane, naming
//! the accused prover, the observing party, the phase and the proof kind.
//!
//! The prover verifies its own commits too: a deterministic `[adversary]`
//! tampering therefore fails on *every* party in the same round, and the
//! whole run exits through [`pivot_transport::catch_failures`] without
//! wedging a peer on a dead socket.
//!
//! With verification off, none of these hooks touches the transport or
//! the nonce stream — the transcript stays bit-identical to the
//! honest-but-curious protocol.

use crate::party::PartyContext;
use crate::stats::LocalSplits;
use pivot_bignum::{rng as brng, BigUint};
use pivot_paillier::Ciphertext;
use pivot_trace::Counter;
use pivot_transport::{ProtocolError, Wire};
use pivot_zkp::{DotProductProof, MultiplicationProof, PlaintextProof};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// popk bundle entry: `(a, z, w)`.
pub(crate) type PopkMsg = (BigUint, BigUint, BigUint);
/// popcm bundle entry: `(c₁, (a, b), (z, w₁, w₂))` — the plaintext
/// commitment rides with its proof.
pub(crate) type PopcmMsg = (BigUint, (BigUint, BigUint), (BigUint, BigUint, BigUint));
/// One pohdp proof: `(a⃗, (b, z⃗), (w₁⃗, w₂))`.
pub(crate) type PohdpProofMsg = (
    Vec<BigUint>,
    (BigUint, Vec<BigUint>),
    (Vec<BigUint>, BigUint),
);
/// One split's pohdp entry: the committed indicator encryptions plus one
/// proof per statistic of the stride.
pub(crate) type PohdpSplitMsg = (Vec<BigUint>, Vec<PohdpProofMsg>);

/// Per-party verification state, built at setup when the knob is on.
pub struct VerifyPlane {
    /// Fraction of the commit stream each party verifies.
    probability: f64,
    /// The deterministic tampering injection, if this run carries one.
    adversary: Option<crate::config::AdversarySpec>,
    /// Common spot-selection key (derived from the shared dealer seed so
    /// every party picks the identical subset).
    select_seed: u64,
    /// Private proof randomness (commitment nonces, per-proof seeds).
    rng: RefCell<StdRng>,
    /// Commits this party has *proven* per `(phase, prover=me)` — the
    /// tamper index space.
    prove_counts: RefCell<HashMap<(String, usize), u64>>,
    /// Commits this party has *checked* per `(phase, prover)` — the
    /// spot-selection index space, advanced in lockstep on all parties.
    check_counts: RefCell<HashMap<(String, usize), u64>>,
}

impl VerifyPlane {
    pub fn new(params: &crate::config::PivotParams, id: usize) -> VerifyPlane {
        VerifyPlane {
            probability: params.verification.probability(),
            adversary: params.adversary.clone(),
            select_seed: params.dealer_seed ^ 0x5E1E_C7ED_0BAD_CAFE,
            rng: RefCell::new(StdRng::seed_from_u64(
                params.dealer_seed ^ 0x2AFE_D00D_F00D ^ ((id as u64 + 1) << 24),
            )),
            prove_counts: RefCell::new(HashMap::new()),
            check_counts: RefCell::new(HashMap::new()),
        }
    }

    /// Whether commit `index` of `(phase, prover)` is spot-checked. Keyed
    /// off the shared dealer seed, so identical on every party.
    fn selected(&self, phase: &str, prover: usize, index: u64) -> bool {
        if self.probability >= 1.0 {
            return true;
        }
        if self.probability <= 0.0 {
            return false;
        }
        let mut h = splitmix(self.select_seed);
        for b in phase.bytes() {
            h = splitmix(h ^ u64::from(b));
        }
        h = splitmix(h ^ prover as u64);
        h = splitmix(h ^ index);
        (h as f64) < self.probability * (u64::MAX as f64)
    }

    fn advance(map: &RefCell<HashMap<(String, usize), u64>>, phase: &str, p: usize, n: u64) -> u64 {
        let mut map = map.borrow_mut();
        let slot = map.entry((phase.to_string(), p)).or_insert(0);
        let base = *slot;
        *slot += n;
        base
    }

    /// Apply the `[adversary]` injection to this commit batch, if it
    /// lands here: multiply the target ciphertext by `1+N` (adds 1 to the
    /// plaintext), *after* the proof was generated over the honest value.
    fn tamper(&self, ctx: &PartyContext<'_>, phase: &str, base: u64, cts: &mut [Ciphertext]) {
        let Some(adv) = &self.adversary else { return };
        if adv.party != ctx.id() || adv.phase != phase {
            return;
        }
        let lo = base as usize;
        if adv.index < lo || adv.index >= lo + cts.len() {
            return;
        }
        let i = adv.index - lo;
        let n2 = ctx.pk.n_squared();
        let bumped = (cts[i].raw() * &(ctx.pk.n() + &BigUint::one())).rem_of(n2);
        cts[i] = Ciphertext::from_raw(bumped);
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn wire_len<T: Wire>(msg: &T) -> u64 {
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    buf.len() as u64
}

fn reject(ctx: &PartyContext<'_>, prover: usize, phase: &str, kind: &str, detail: String) -> ! {
    ProtocolError::ProofRejected {
        party: prover,
        observer: ctx.id(),
        phase: phase.to_string(),
        proof_kind: kind.to_string(),
        detail,
    }
    .raise()
}

/// The prover tail every kind shares. `draw` takes the kind's per-job
/// randomness from the plane's private stream, serially, so the parallel
/// batch is schedule-independent; `prove_one` proves one job against the
/// honest `commits`. Then the prover's commit index advances and any
/// `[adversary]` injection lands in `commits`. `None` with verification
/// off.
fn prove<J: Sync, M: Send>(
    ctx: &PartyContext<'_>,
    phase: &str,
    commits: &mut [Ciphertext],
    draw: impl FnOnce(&mut StdRng) -> Vec<J>,
    prove_one: impl Fn(&J, &[Ciphertext]) -> M + Sync,
) -> Option<Vec<M>> {
    let plane = ctx.verify.as_ref()?;
    let started = Instant::now();
    let jobs = draw(&mut plane.rng.borrow_mut());
    let held: &[Ciphertext] = commits;
    let msgs = pivot_runtime::global().map(ctx.crypto_threads(), &jobs, |job| prove_one(job, held));
    let base = VerifyPlane::advance(&plane.prove_counts, phase, ctx.id(), commits.len() as u64);
    plane.tamper(ctx, phase, base, commits);
    ctx.counters
        .add_duration(Counter::VerificationNs, started.elapsed());
    Some(msgs)
}

/// What the checker verifies a prover's commits against.
enum Evidence<M> {
    /// A proof bundle: `Some` at the prover, which publishes it.
    Bundle(Option<Vec<M>>),
    /// Values every party recomputed itself; nothing is published.
    Recomputed(Vec<M>),
}

/// The checker every kind shares, run by every party (the prover
/// included) on `commits` commits of `prover`: take the evidence, advance
/// the lockstep check index, reject evidence that `fits` says does not
/// match the commits, then verify the spot-selected subset on the pool
/// (`verify_one` checks commit `i`) and raise on the first failure.
#[allow(clippy::too_many_arguments)]
fn check<M: Wire + Sync>(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    kind: &str,
    commits: usize,
    evidence: Evidence<M>,
    fits: impl FnOnce(&[M]) -> bool,
    verify_one: impl Fn(&[M], usize) -> bool + Sync,
) {
    let Some(plane) = ctx.verify.as_ref() else {
        return;
    };
    let msgs = match evidence {
        Evidence::Recomputed(expected) => expected,
        Evidence::Bundle(own) if ctx.id() == prover => {
            let msgs = own.expect("prover supplies its own proof bundle");
            ctx.counters.add(Counter::ProofsGenerated, commits as u64);
            ctx.counters.add(Counter::ProofBytes, wire_len(&msgs));
            ctx.ep.broadcast(&msgs);
            msgs
        }
        Evidence::Bundle(_) => ctx.ep.recv(prover),
    };
    let started = Instant::now();
    let base = VerifyPlane::advance(&plane.check_counts, phase, prover, commits as u64);
    if !fits(&msgs) {
        ctx.counters.add(Counter::ProofsRejected, 1);
        let detail = format!(
            "bundle carries {} entries for {commits} commits",
            msgs.len()
        );
        reject(ctx, prover, phase, kind, detail);
    }
    let picked: Vec<usize> = (0..commits)
        .filter(|&i| plane.selected(phase, prover, base + i as u64))
        .collect();
    let verdicts: Vec<bool> =
        pivot_runtime::global().map(ctx.crypto_threads(), &picked, |&i| verify_one(&msgs, i));
    let rejected = verdicts.iter().filter(|&&ok| !ok).count() as u64;
    let counters = &ctx.counters;
    counters.add(Counter::ProofsVerified, picked.len() as u64);
    counters.add(Counter::ProofsSkipped, (commits - picked.len()) as u64);
    counters.add(Counter::ProofsRejected, rejected);
    counters.add_duration(Counter::VerificationNs, started.elapsed());
    if let Some(pos) = verdicts.iter().position(|&ok| !ok) {
        let detail = format!("commit index {}", base + picked[pos] as u64);
        reject(ctx, prover, phase, kind, detail);
    }
}

/// Discard witnesses left over from unhooked encryption batches, so the
/// next hooked operation drains exactly its own nonces. No-op (and no
/// witness is ever retained) with verification off.
pub(crate) fn scrub_witnesses(ctx: &PartyContext<'_>) {
    if ctx.verify.is_some() {
        drop(ctx.nonces.drain_witnesses());
    }
}

/// The nonces of the batch a `kind` commit just encrypted: exactly one
/// per commit.
fn witnesses(ctx: &PartyContext<'_>, kind: &str, phase: &str, n: usize) -> Vec<BigUint> {
    let ws = ctx.nonces.drain_witnesses();
    assert_eq!(ws.len(), n, "{kind} witness count at {phase}");
    ws
}

/// Prover side of a popk commit: prove knowledge of every `(xᵢ, rᵢ)`
/// behind the fresh encryptions in `cts` (nonces drained from the pool),
/// then apply any tampering injection in place. Call *between* the
/// encryption batch and its broadcast.
pub(crate) fn prove_popk(
    ctx: &PartyContext<'_>,
    phase: &str,
    cts: &mut [Ciphertext],
    xs: &[BigUint],
) -> Option<Vec<PopkMsg>> {
    let n = cts.len();
    let draw = |rng: &mut StdRng| {
        let rs = witnesses(ctx, "popk", phase, n);
        assert_eq!(xs.len(), n);
        let jobs = rs.into_iter().enumerate();
        jobs.map(|(i, r)| (i, r, rng.next_u64())).collect()
    };
    let pk = &ctx.pk;
    prove(ctx, phase, cts, draw, |(i, r, seed), held| {
        let mut rng = StdRng::seed_from_u64(*seed);
        let p = PlaintextProof::prove(pk, &held[*i], &xs[*i], r, &mut rng);
        (p.commitment, p.z, p.w)
    })
}

/// All-party side of a popk commit: the prover broadcasts its bundle,
/// everyone (prover included) verifies the spot-selected subset against
/// the published ciphertexts.
pub(crate) fn check_popk(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    cts: &[Ciphertext],
    bundle: Option<Vec<PopkMsg>>,
) {
    let (pk, n, bundle) = (&ctx.pk, cts.len(), Evidence::Bundle(bundle));
    let fits = |msgs: &[PopkMsg]| msgs.len() == n;
    check(ctx, phase, prover, "popk", n, bundle, fits, |msgs, i| {
        let (commitment, z, w) = msgs[i].clone();
        PlaintextProof { commitment, z, w }.verify(pk, &cts[i])
    });
}

/// Prover side of a popcm commit: each `outputs[i] = inputs[i]^{xᵢ}·sᵢ^N`
/// (binary masking or plaintext scaling), with `sᵢ` drained from the
/// nonce pool. Commits `c₁ᵢ = Enc(xᵢ)` with fresh plane randomness and
/// proves the multiplicative relation, then applies any tampering.
pub(crate) fn prove_popcm(
    ctx: &PartyContext<'_>,
    phase: &str,
    inputs: &[Ciphertext],
    outputs: &mut [Ciphertext],
    xs: &[BigUint],
) -> Option<Vec<PopcmMsg>> {
    let n = outputs.len();
    let draw = |rng: &mut StdRng| {
        let ss = witnesses(ctx, "popcm", phase, n);
        assert_eq!(inputs.len(), n);
        assert_eq!(xs.len(), n);
        let r1s: Vec<BigUint> = (0..n).map(|_| brng::gen_coprime(rng, ctx.pk.n())).collect();
        let jobs = ss.into_iter().zip(r1s).enumerate();
        jobs.map(|(i, (s, r1))| (i, s, r1, rng.next_u64()))
            .collect()
    };
    let pk = &ctx.pk;
    prove(ctx, phase, outputs, draw, |(i, s, r1, seed), held| {
        let mut rng = StdRng::seed_from_u64(*seed);
        let x = &xs[*i];
        let c1 = pk.encrypt_with(x, r1);
        let p = MultiplicationProof::prove(pk, &c1, &inputs[*i], &held[*i], x, r1, s, &mut rng);
        (c1.into_raw(), (p.a, p.b), (p.z, p.w1, p.w2))
    })
}

/// All-party side of a popcm commit; `inputs` are the `c₂` ciphertexts
/// every party already holds (the vectors being masked).
pub(crate) fn check_popcm(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    inputs: &[Ciphertext],
    outputs: &[Ciphertext],
    bundle: Option<Vec<PopcmMsg>>,
) {
    let (pk, n, bundle) = (&ctx.pk, outputs.len(), Evidence::Bundle(bundle));
    let fits = |msgs: &[PopcmMsg]| msgs.len() == n && inputs.len() == n;
    check(ctx, phase, prover, "popcm", n, bundle, fits, |msgs, i| {
        let (c1_raw, (a, b), (z, w1, w2)) = msgs[i].clone();
        let c1 = Ciphertext::from_raw(c1_raw);
        MultiplicationProof { a, b, z, w1, w2 }.verify(pk, &c1, &inputs[i], &outputs[i])
    });
}

/// Prover side of the Eqn-7 statistics commit: for every local split,
/// commit the indicator bits (`Enc(xᵢ)` under plane randomness), read off
/// the samples' buckets, and prove each of the `stride` pooled dot products
/// against those commitments. `sets[k]` is the `k`-th input vector (`[α]`,
/// then each `[γ]`), shared by every split; `outputs` is the flattened
/// split-major statistics vector exactly as it goes on the wire. A
/// statistic is the plain product of the selected ciphertexts with no
/// extra randomizer, so the proof's rerandomizer is `s = 1`.
pub(crate) fn prove_pohdp(
    ctx: &PartyContext<'_>,
    phase: &str,
    sets: &[&[Ciphertext]],
    local: &LocalSplits,
    outputs: &mut [Ciphertext],
) -> Option<Vec<PohdpSplitMsg>> {
    let (stride, total) = (sets.len(), outputs.len());
    let n = sets.first().map_or(0, |s| s.len());
    // Per split: its indicator bits, commitment nonces, then one proof
    // seed per statistic.
    let draw = |rng: &mut StdRng| {
        let job = |(sidx, (feature, split))| {
            let bits = local.goes_left(feature, split).into_iter();
            let xs: Vec<BigUint> = bits.map(|b| BigUint::from_u64(u64::from(b))).collect();
            let rs: Vec<BigUint> = (0..n).map(|_| brng::gen_coprime(rng, ctx.pk.n())).collect();
            let seeds: Vec<u64> = (0..stride).map(|_| rng.next_u64()).collect();
            (sidx, xs, rs, seeds)
        };
        let jobs: Vec<_> = local.splits().enumerate().map(job).collect();
        assert_eq!(total, jobs.len() * stride);
        jobs
    };
    let (pk, one) = (&ctx.pk, BigUint::one());
    prove(ctx, phase, outputs, draw, |(sidx, xs, rs, seeds), held| {
        let cs: Vec<Ciphertext> = xs
            .iter()
            .zip(rs)
            .map(|(x, r)| pk.encrypt_with(x, r))
            .collect();
        let stats = &held[sidx * stride..];
        let proof = |k: usize| {
            let mut rng = StdRng::seed_from_u64(seeds[k]);
            let p = DotProductProof::prove(pk, &cs, sets[k], &stats[k], xs, rs, &one, &mut rng);
            (p.a, (p.b, p.z), (p.w1, p.w2))
        };
        let proofs = (0..stride).map(proof).collect();
        (cs.into_iter().map(Ciphertext::into_raw).collect(), proofs)
    })
}

/// All-party side of one prover's statistics commit (`outputs` = that
/// prover's flattened pooled statistics as received).
pub(crate) fn check_pohdp(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    sets: &[&[Ciphertext]],
    outputs: &[Ciphertext],
    bundle: Option<Vec<PohdpSplitMsg>>,
) {
    let stride = sets.len();
    let n = sets.first().map_or(0, |s| s.len());
    let fits = |msgs: &[PohdpSplitMsg]| {
        let entry_fits =
            |(craws, proofs): &PohdpSplitMsg| craws.len() == n && proofs.len() == stride;
        msgs.len() * stride == outputs.len() && msgs.iter().all(entry_fits)
    };
    let (pk, total, bundle) = (&ctx.pk, outputs.len(), Evidence::Bundle(bundle));
    check(
        ctx,
        phase,
        prover,
        "pohdp",
        total,
        bundle,
        fits,
        |msgs, i| {
            let (craws, proofs) = &msgs[i / stride];
            let cs: Vec<Ciphertext> = craws.iter().cloned().map(Ciphertext::from_raw).collect();
            let (a, (b, z), (w1, w2)) = proofs[i % stride].clone();
            let proof = DotProductProof { a, b, z, w1, w2 };
            proof.verify(pk, &cs, sets[i % stride], &outputs[i])
        },
    );
}

/// Prover-side hook for a commit checked by deterministic recomputation
/// rather than a proof (party 0's public-leaf dot products): advances the
/// prover's commit counter and applies any tampering injection.
pub(crate) fn tamper_outputs(ctx: &PartyContext<'_>, phase: &str, cts: &mut [Ciphertext]) {
    prove(ctx, phase, cts, |_| Vec::<()>::new(), |_, _| ());
}

/// All-party check of a deterministically recomputable commit: compare
/// the spot-selected subset of `actual` (what the prover published)
/// against `expected` (recomputed locally from public data).
pub(crate) fn check_recompute(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    expected: Vec<Ciphertext>,
    actual: &[Ciphertext],
) {
    let (n, expected) = (actual.len(), Evidence::Recomputed(expected));
    let fits = |expected: &[Ciphertext]| expected.len() == n;
    let same = |expected: &[Ciphertext], i: usize| expected[i].raw() == actual[i].raw();
    check(ctx, phase, prover, "recompute", n, expected, fits, same);
}

/// Equivocation guard for ring phases: the party that received `direct`
/// point-to-point compares it with the prover's verification `broadcast`
/// of the same ciphertexts — a prover sending different values down the
/// ring than it proves to the group is caught here.
pub(crate) fn check_equivocation(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    direct: &[Ciphertext],
    broadcast: &[Ciphertext],
) {
    if ctx.verify.is_none() {
        return;
    }
    let mismatch = direct.len() != broadcast.len()
        || direct
            .iter()
            .zip(broadcast)
            .any(|(d, b)| d.raw() != b.raw());
    if mismatch {
        ctx.counters.add(Counter::ProofsRejected, 1);
        reject(
            ctx,
            prover,
            phase,
            "equivocation",
            "ring transfer differs from the proven broadcast".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PivotParams, Verification};
    use pivot_data::{partition_vertically, Dataset, Task};
    use pivot_paillier::{batch, vector};
    use pivot_transport::{catch_failures, run_parties, RunFailure};
    use pivot_trees::TreeParams;

    fn plane_with(p: f64, seed: u64) -> VerifyPlane {
        let params = PivotParams {
            verification: Verification::Spot(p),
            dealer_seed: seed,
            ..PivotParams::default()
        };
        VerifyPlane::new(&params, 0)
    }

    #[test]
    fn selection_is_deterministic_and_roughly_proportional() {
        let plane = plane_with(0.25, 7);
        let twin = plane_with(0.25, 7);
        let hits: Vec<bool> = (0..4000).map(|i| plane.selected("stats", 1, i)).collect();
        let again: Vec<bool> = (0..4000).map(|i| twin.selected("stats", 1, i)).collect();
        assert_eq!(hits, again, "same seed must select the same subset");
        let count = hits.iter().filter(|&&h| h).count();
        assert!(
            (600..=1400).contains(&count),
            "spot(0.25) over 4000 commits selected {count}"
        );
        // Different phase / prover keys decorrelate.
        let other: Vec<bool> = (0..4000).map(|i| plane.selected("setup", 1, i)).collect();
        assert_ne!(hits, other);
    }

    #[test]
    fn full_and_off_probabilities_are_absolute() {
        let full = plane_with(1.0, 3);
        assert!((0..100).all(|i| full.selected("update", 0, i)));
        let off = plane_with(0.0, 3);
        assert!(!(0..100).any(|i| off.selected("update", 0, i)));
    }

    #[test]
    fn counters_advance_per_phase_and_prover() {
        let plane = plane_with(0.5, 11);
        assert_eq!(VerifyPlane::advance(&plane.check_counts, "setup", 0, 10), 0);
        assert_eq!(VerifyPlane::advance(&plane.check_counts, "setup", 0, 5), 10);
        assert_eq!(VerifyPlane::advance(&plane.check_counts, "setup", 1, 5), 0);
        assert_eq!(VerifyPlane::advance(&plane.check_counts, "stats", 0, 5), 0);
        // Prove-side counting is independent of check-side counting.
        assert_eq!(VerifyPlane::advance(&plane.prove_counts, "setup", 0, 4), 0);
        assert_eq!(VerifyPlane::advance(&plane.prove_counts, "setup", 0, 4), 4);
    }

    /// Public ciphertexts every party builds alike: encryptions of `xs`
    /// under one seeded stream.
    fn public_cts(ctx: &PartyContext<'_>, xs: &[BigUint], seed: u64) -> Vec<Ciphertext> {
        let mut rng = StdRng::seed_from_u64(seed);
        xs.iter().map(|x| ctx.pk.encrypt(x, &mut rng)).collect()
    }

    fn small(xs: &[u64]) -> Vec<BigUint> {
        xs.iter().map(|&x| BigUint::from_u64(x)).collect()
    }

    /// Runs `commit` (one commit by party 1, proven and checked) at m = 2
    /// with the keysize-128 fixture: first whole, which every party must
    /// accept, then with its bundle one proof short. Every party must
    /// reject the short one as `kind`, accusing party 1, and book exactly
    /// one `ProofsRejected` for it.
    fn rejects_short_bundle(kind: &str, commit: impl Fn(&PartyContext<'_>, bool) + Sync) {
        let features = (0..6)
            .map(|i| vec![f64::from(i), f64::from(i % 3)])
            .collect();
        let labels = (0..6).map(|i| f64::from(i % 2)).collect();
        let data = Dataset::new(features, labels, Task::Classification { classes: 2 });
        let partition = partition_vertically(&data, 2, 0);
        let params = PivotParams {
            keysize: 128,
            verification: Verification::Spot(1.0),
            tree: TreeParams {
                max_splits: 2,
                ..TreeParams::default()
            },
            ..PivotParams::default()
        };
        let results = run_parties(2, |ep| {
            let ctx = PartyContext::setup(&ep, partition.views[ep.id()].clone(), params.clone());
            commit(&ctx, false);
            let before = ctx.counters.get(Counter::ProofsRejected);
            let failure = catch_failures(|| commit(&ctx, true)).err();
            (failure, ctx.counters.get(Counter::ProofsRejected) - before)
        });
        for (observer, (failure, rejected)) in results.into_iter().enumerate() {
            let Some(RunFailure::Protocol(ProtocolError::ProofRejected {
                party,
                observer: seen_by,
                proof_kind,
                ..
            })) = failure
            else {
                panic!("party {observer}: expected ProofRejected, got {failure:?}");
            };
            assert_eq!((party, seen_by), (1, observer), "{kind}: accused, observer");
            assert_eq!(proof_kind, kind);
            assert_eq!(rejected, 1, "{kind}: party {observer} ProofsRejected");
        }
    }

    #[test]
    fn popk_bundle_one_proof_short_is_rejected() {
        rejects_short_bundle("popk", |ctx, short| {
            let (cts, bundle) = if ctx.id() == 1 {
                let xs = small(&[3, 0, 7]);
                scrub_witnesses(ctx);
                let mut cts = batch::encrypt_batch(&ctx.pk, &xs, &ctx.nonces, 1);
                let mut bundle = prove_popk(ctx, "setup", &mut cts, &xs).expect("verifying");
                if short {
                    bundle.pop();
                }
                ctx.ep.broadcast(&cts);
                (cts, Some(bundle))
            } else {
                (ctx.ep.recv(1), None)
            };
            check_popk(ctx, "setup", 1, &cts, bundle);
        });
    }

    #[test]
    fn popcm_bundle_one_proof_short_is_rejected() {
        rejects_short_bundle("popcm", |ctx, short| {
            let inputs = public_cts(ctx, &small(&[5, 9, 2]), 17);
            let (outputs, bundle) = if ctx.id() == 1 {
                let bits = [true, false, true];
                scrub_witnesses(ctx);
                let mut out = batch::mask_binary_batch(&ctx.pk, &inputs, &bits, &ctx.nonces, 1);
                let xs = small(&[1, 0, 1]);
                let mut bundle =
                    prove_popcm(ctx, "update", &inputs, &mut out, &xs).expect("verifying");
                if short {
                    bundle.pop();
                }
                ctx.ep.broadcast(&out);
                (out, Some(bundle))
            } else {
                (ctx.ep.recv(1), None)
            };
            check_popcm(ctx, "update", 1, &inputs, &outputs, bundle);
        });
    }

    #[test]
    fn pohdp_bundle_one_proof_short_is_rejected() {
        rejects_short_bundle("pohdp", |ctx, short| {
            let n = ctx.view.num_samples() as u64;
            let alpha = public_cts(ctx, &small(&vec![1; n as usize]), 23);
            let gamma = public_cts(ctx, &small(&(0..n).map(|i| i % 2).collect::<Vec<_>>()), 29);
            let sets: [&[Ciphertext]; 2] = [&alpha, &gamma];
            let (stats, bundle) = if ctx.id() == 1 {
                let local = LocalSplits::precompute(ctx);
                let mut stats: Vec<Ciphertext> = local
                    .splits()
                    .flat_map(|(f, s)| {
                        let left = local.goes_left(f, s);
                        sets.map(|set| vector::dot_binary(&ctx.pk, set, &left))
                    })
                    .collect();
                assert!(!stats.is_empty(), "the prover has a split to prove");
                let mut bundle =
                    prove_pohdp(ctx, "stats", &sets, &local, &mut stats).expect("verifying");
                if short {
                    bundle.last_mut().expect("one entry per split").1.pop();
                }
                ctx.ep.broadcast(&stats);
                (stats, Some(bundle))
            } else {
                (ctx.ep.recv(1), None)
            };
            check_pohdp(ctx, "stats", 1, &sets, &stats, bundle);
        });
    }
}
