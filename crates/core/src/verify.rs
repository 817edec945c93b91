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

    /// Pre-draw per-proof seeds (serially, so the parallel proof batch is
    /// schedule-independent), returned enumerated for the worker map.
    fn draw_seeds(&self, n: usize) -> Vec<(usize, u64)> {
        let mut rng = self.rng.borrow_mut();
        (0..n).map(|i| (i, rng.next_u64())).collect()
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

/// Record one verification pass and raise on the first failed check.
#[allow(clippy::too_many_arguments)]
fn conclude(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    kind: &str,
    base: u64,
    total: usize,
    picked: &[usize],
    verdicts: &[bool],
    started: Instant,
) {
    let rejected = verdicts.iter().filter(|&&ok| !ok).count() as u64;
    ctx.counters
        .add(Counter::ProofsVerified, picked.len() as u64);
    ctx.counters
        .add(Counter::ProofsSkipped, (total - picked.len()) as u64);
    ctx.counters.add(Counter::ProofsRejected, rejected);
    ctx.counters
        .add_duration(Counter::VerificationNs, started.elapsed());
    if let Some(pos) = verdicts.iter().position(|&ok| !ok) {
        reject(
            ctx,
            prover,
            phase,
            kind,
            format!("commit index {}", base + picked[pos] as u64),
        );
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
    let plane = ctx.verify.as_ref()?;
    let started = Instant::now();
    let rs = ctx.nonces.drain_witnesses();
    assert_eq!(rs.len(), cts.len(), "popk witness count at {phase}");
    assert_eq!(xs.len(), cts.len());
    let jobs = plane.draw_seeds(cts.len());
    let pk = &ctx.pk;
    let held: &[Ciphertext] = cts;
    let msgs: Vec<PopkMsg> =
        pivot_runtime::global().map(ctx.crypto_threads(), &jobs, |&(i, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = PlaintextProof::prove(pk, &held[i], &xs[i], &rs[i], &mut rng);
            (p.commitment, p.z, p.w)
        });
    let base = VerifyPlane::advance(&plane.prove_counts, phase, ctx.id(), cts.len() as u64);
    plane.tamper(ctx, phase, base, cts);
    ctx.counters
        .add_duration(Counter::VerificationNs, started.elapsed());
    Some(msgs)
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
    let Some(plane) = ctx.verify.as_ref() else {
        return;
    };
    let msgs: Vec<PopkMsg> = if ctx.id() == prover {
        let msgs = bundle.expect("prover supplies its own proof bundle");
        ctx.counters
            .add(Counter::ProofsGenerated, msgs.len() as u64);
        ctx.counters.add(Counter::ProofBytes, wire_len(&msgs));
        ctx.ep.broadcast(&msgs);
        msgs
    } else {
        ctx.ep.recv(prover)
    };
    let started = Instant::now();
    let base = VerifyPlane::advance(&plane.check_counts, phase, prover, cts.len() as u64);
    if msgs.len() != cts.len() {
        ctx.counters.add(Counter::ProofsRejected, 1);
        reject(
            ctx,
            prover,
            phase,
            "popk",
            format!(
                "bundle carries {} proofs for {} commits",
                msgs.len(),
                cts.len()
            ),
        );
    }
    let picked: Vec<usize> = (0..cts.len())
        .filter(|&i| plane.selected(phase, prover, base + i as u64))
        .collect();
    let pk = &ctx.pk;
    let verdicts: Vec<bool> = pivot_runtime::global().map(ctx.crypto_threads(), &picked, |&i| {
        let (commitment, z, w) = msgs[i].clone();
        PlaintextProof { commitment, z, w }.verify(pk, &cts[i])
    });
    conclude(
        ctx,
        phase,
        prover,
        "popk",
        base,
        cts.len(),
        &picked,
        &verdicts,
        started,
    );
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
    let plane = ctx.verify.as_ref()?;
    let started = Instant::now();
    let ss = ctx.nonces.drain_witnesses();
    assert_eq!(ss.len(), outputs.len(), "popcm witness count at {phase}");
    assert_eq!(inputs.len(), outputs.len());
    assert_eq!(xs.len(), outputs.len());
    let (r1s, jobs) = {
        let mut rng = plane.rng.borrow_mut();
        let r1s: Vec<BigUint> = (0..outputs.len())
            .map(|_| brng::gen_coprime(&mut *rng, ctx.pk.n()))
            .collect();
        let jobs: Vec<(usize, u64)> = (0..outputs.len()).map(|i| (i, rng.next_u64())).collect();
        (r1s, jobs)
    };
    let pk = &ctx.pk;
    let held: &[Ciphertext] = outputs;
    let msgs: Vec<PopcmMsg> =
        pivot_runtime::global().map(ctx.crypto_threads(), &jobs, |&(i, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let c1 = pk.encrypt_with(&xs[i], &r1s[i]);
            let p = MultiplicationProof::prove(
                pk, &c1, &inputs[i], &held[i], &xs[i], &r1s[i], &ss[i], &mut rng,
            );
            (c1.into_raw(), (p.a, p.b), (p.z, p.w1, p.w2))
        });
    let base = VerifyPlane::advance(&plane.prove_counts, phase, ctx.id(), outputs.len() as u64);
    plane.tamper(ctx, phase, base, outputs);
    ctx.counters
        .add_duration(Counter::VerificationNs, started.elapsed());
    Some(msgs)
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
    let Some(plane) = ctx.verify.as_ref() else {
        return;
    };
    let msgs: Vec<PopcmMsg> = if ctx.id() == prover {
        let msgs = bundle.expect("prover supplies its own proof bundle");
        ctx.counters
            .add(Counter::ProofsGenerated, msgs.len() as u64);
        ctx.counters.add(Counter::ProofBytes, wire_len(&msgs));
        ctx.ep.broadcast(&msgs);
        msgs
    } else {
        ctx.ep.recv(prover)
    };
    let started = Instant::now();
    let base = VerifyPlane::advance(&plane.check_counts, phase, prover, outputs.len() as u64);
    if msgs.len() != outputs.len() || inputs.len() != outputs.len() {
        ctx.counters.add(Counter::ProofsRejected, 1);
        reject(
            ctx,
            prover,
            phase,
            "popcm",
            format!(
                "bundle carries {} proofs for {} commits",
                msgs.len(),
                outputs.len()
            ),
        );
    }
    let picked: Vec<usize> = (0..outputs.len())
        .filter(|&i| plane.selected(phase, prover, base + i as u64))
        .collect();
    let pk = &ctx.pk;
    let verdicts: Vec<bool> = pivot_runtime::global().map(ctx.crypto_threads(), &picked, |&i| {
        let (c1_raw, (a, b), (z, w1, w2)) = msgs[i].clone();
        let c1 = Ciphertext::from_raw(c1_raw);
        MultiplicationProof { a, b, z, w1, w2 }.verify(pk, &c1, &inputs[i], &outputs[i])
    });
    conclude(
        ctx,
        phase,
        prover,
        "popcm",
        base,
        outputs.len(),
        &picked,
        &verdicts,
        started,
    );
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
    let plane = ctx.verify.as_ref()?;
    let started = Instant::now();
    let stride = sets.len();
    let splits: Vec<(usize, usize)> = local.splits().collect();
    assert_eq!(outputs.len(), splits.len() * stride);
    let n = sets.first().map_or(0, |s| s.len());
    // Per split: commitment nonces plus one proof seed per statistic,
    // drawn serially so the parallel batch is schedule-independent.
    let jobs: Vec<(usize, Vec<BigUint>, Vec<u64>)> = {
        let mut rng = plane.rng.borrow_mut();
        (0..splits.len())
            .map(|sidx| {
                let rs: Vec<BigUint> = (0..n)
                    .map(|_| brng::gen_coprime(&mut *rng, ctx.pk.n()))
                    .collect();
                let seeds: Vec<u64> = (0..stride).map(|_| rng.next_u64()).collect();
                (sidx, rs, seeds)
            })
            .collect()
    };
    let pk = &ctx.pk;
    let held: &[Ciphertext] = outputs;
    let one = BigUint::one();
    let msgs: Vec<PohdpSplitMsg> =
        pivot_runtime::global().map(ctx.crypto_threads(), &jobs, |(sidx, rs, seeds)| {
            let (feature, split) = splits[*sidx];
            let xs: Vec<BigUint> = local
                .goes_left(feature, split)
                .iter()
                .map(|&bit| BigUint::from_u64(u64::from(bit)))
                .collect();
            let commitments: Vec<Ciphertext> = xs
                .iter()
                .zip(rs)
                .map(|(x, r)| pk.encrypt_with(x, r))
                .collect();
            let proofs: Vec<PohdpProofMsg> = (0..stride)
                .map(|k| {
                    let mut rng = StdRng::seed_from_u64(seeds[k]);
                    let p = DotProductProof::prove(
                        pk,
                        &commitments,
                        sets[k],
                        &held[sidx * stride + k],
                        &xs,
                        rs,
                        &one,
                        &mut rng,
                    );
                    (p.a, (p.b, p.z), (p.w1, p.w2))
                })
                .collect();
            (
                commitments.into_iter().map(Ciphertext::into_raw).collect(),
                proofs,
            )
        });
    let base = VerifyPlane::advance(&plane.prove_counts, phase, ctx.id(), outputs.len() as u64);
    plane.tamper(ctx, phase, base, outputs);
    ctx.counters
        .add_duration(Counter::VerificationNs, started.elapsed());
    Some(msgs)
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
    let Some(plane) = ctx.verify.as_ref() else {
        return;
    };
    let msgs: Vec<PohdpSplitMsg> = if ctx.id() == prover {
        let msgs = bundle.expect("prover supplies its own proof bundle");
        ctx.counters
            .add(Counter::ProofsGenerated, outputs.len() as u64);
        ctx.counters.add(Counter::ProofBytes, wire_len(&msgs));
        ctx.ep.broadcast(&msgs);
        msgs
    } else {
        ctx.ep.recv(prover)
    };
    let started = Instant::now();
    let stride = sets.len();
    let n = sets.first().map_or(0, |s| s.len());
    let base = VerifyPlane::advance(&plane.check_counts, phase, prover, outputs.len() as u64);
    let malformed = msgs.len() * stride != outputs.len()
        || msgs
            .iter()
            .any(|(craws, proofs)| craws.len() != n || proofs.len() != stride);
    if malformed {
        ctx.counters.add(Counter::ProofsRejected, 1);
        reject(
            ctx,
            prover,
            phase,
            "pohdp",
            format!(
                "bundle carries {} splits for {} commits of stride {stride}",
                msgs.len(),
                outputs.len()
            ),
        );
    }
    let picked: Vec<usize> = (0..outputs.len())
        .filter(|&i| plane.selected(phase, prover, base + i as u64))
        .collect();
    let pk = &ctx.pk;
    let verdicts: Vec<bool> = pivot_runtime::global().map(ctx.crypto_threads(), &picked, |&idx| {
        let (craws, proofs) = &msgs[idx / stride];
        let commitments: Vec<Ciphertext> = craws
            .iter()
            .map(|raw| Ciphertext::from_raw(raw.clone()))
            .collect();
        let (a, (b, z), (w1, w2)) = proofs[idx % stride].clone();
        DotProductProof { a, b, z, w1, w2 }.verify(
            pk,
            &commitments,
            sets[idx % stride],
            &outputs[idx],
        )
    });
    conclude(
        ctx,
        phase,
        prover,
        "pohdp",
        base,
        outputs.len(),
        &picked,
        &verdicts,
        started,
    );
}

/// Prover-side hook for a commit checked by deterministic recomputation
/// rather than a proof (party 0's public-leaf dot products): advances the
/// prover's commit counter and applies any tampering injection.
pub(crate) fn tamper_outputs(ctx: &PartyContext<'_>, phase: &str, cts: &mut [Ciphertext]) {
    let Some(plane) = ctx.verify.as_ref() else {
        return;
    };
    let base = VerifyPlane::advance(&plane.prove_counts, phase, ctx.id(), cts.len() as u64);
    plane.tamper(ctx, phase, base, cts);
}

/// All-party check of a deterministically recomputable commit: compare
/// the spot-selected subset of `actual` (what the prover published)
/// against `expected` (recomputed locally from public data).
pub(crate) fn check_recompute(
    ctx: &PartyContext<'_>,
    phase: &str,
    prover: usize,
    expected: &[Ciphertext],
    actual: &[Ciphertext],
) {
    let Some(plane) = ctx.verify.as_ref() else {
        return;
    };
    let started = Instant::now();
    assert_eq!(expected.len(), actual.len());
    let base = VerifyPlane::advance(&plane.check_counts, phase, prover, actual.len() as u64);
    let picked: Vec<usize> = (0..actual.len())
        .filter(|&i| plane.selected(phase, prover, base + i as u64))
        .collect();
    let verdicts: Vec<bool> = picked
        .iter()
        .map(|&i| expected[i].raw() == actual[i].raw())
        .collect();
    conclude(
        ctx,
        phase,
        prover,
        "recompute",
        base,
        actual.len(),
        &picked,
        &verdicts,
        started,
    );
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
}
