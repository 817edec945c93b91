//! Encrypted indicator vectors: the node mask `[α]` and the super client's
//! label-mask vectors `[γ]` (§4.1, §4.2).

use crate::metrics::Stage;
use crate::party::PartyContext;
use crate::stats::PackedChunking;
use crate::verify;
use pivot_bignum::BigUint;
use pivot_data::Task;
use pivot_paillier::{batch, Ciphertext, SlotCodec};
use std::borrow::Cow;

/// The encrypted per-class / per-moment label vectors `[L] = {[γ_k]}`.
///
/// Classification: one vector per class `k` with `γ_k = β_k ⊙ α`.
/// Regression: `γ_1 = (y+1) ⊙ α` and `γ_2 = (y+1)² ⊙ α` — labels are
/// normalized into `[-1, 1]` and **offset by +1** so every plaintext the
/// homomorphic pipeline touches is non-negative. Negative encodings would
/// wrap mod `N` when multiplied into the enhanced protocol's
/// slack-carrying masks and break the mod-`p` conversion ([`crate::gain`],
/// "Scale discipline"); the offset is removed linearly after share
/// conversion ([`crate::gain::convert_stats_batch`]).
pub struct LabelMasks<'a> {
    /// Owned when the super client just derived them from `[α]`, borrowed
    /// when the node carries them (GBDT residual vectors).
    pub gammas: Cow<'a, [Vec<Ciphertext>]>,
    /// True when regression labels carry the +1 offset encoding.
    pub offset_encoded: bool,
}

/// One value per child of a split, left before right.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sides<T> {
    pub left: T,
    pub right: T,
}

impl<T> Sides<T> {
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Sides<U> {
        Sides {
            left: f(self.left),
            right: f(self.right),
        }
    }
}

impl Sides<bool> {
    pub const BOTH: Sides<bool> = Sides {
        left: true,
        right: true,
    };

    pub fn any(self) -> bool {
        self.left || self.right
    }

    /// Per wanted side, left before right: whether it takes the
    /// complement of the split's left indicator.
    pub fn complements(self) -> impl Iterator<Item = bool> {
        [(self.left, false), (self.right, true)]
            .into_iter()
            .filter_map(|(want, complement)| want.then_some(complement))
    }

    /// Hand `produced` — one item per wanted side, left before right — to
    /// the sides that asked.
    pub fn fill<T>(self, produced: impl IntoIterator<Item = T>) -> Sides<Option<T>> {
        let mut produced = produced.into_iter();
        Sides {
            left: self.left.then(|| produced.next()).flatten(),
            right: self.right.then(|| produced.next()).flatten(),
        }
    }
}

impl<T> Sides<Option<T>> {
    /// The sides that hold a value, left before right.
    pub fn present(&self) -> impl Iterator<Item = &T> {
        self.left.iter().chain(&self.right)
    }
}

/// Fresh root mask: `[α] = ([1], …, [1])` — all samples on the root
/// (encrypted 0/1 per the given plaintext mask for ensemble bootstraps).
///
/// The super client encrypts and broadcasts so **every party holds the
/// identical ciphertexts** — a hard protocol invariant: joint threshold
/// decryption combines partial decryptions of what must be one ciphertext.
pub fn initial_mask(ctx: &mut PartyContext<'_>, included: &[bool]) -> Vec<Ciphertext> {
    let started = std::time::Instant::now();
    let (cts, bundle) = if ctx.is_super_client() {
        let values: Vec<BigUint> = included
            .iter()
            .map(|&b| BigUint::from_u64(u64::from(b)))
            .collect();
        verify::scrub_witnesses(ctx);
        let mut cts = batch::encrypt_batch(&ctx.pk, &values, &ctx.nonces, ctx.crypto_threads());
        ctx.metrics.add_encryptions(included.len() as u64);
        let bundle = verify::prove_popk(ctx, "setup", &mut cts, &values);
        ctx.ep.broadcast(&cts);
        (cts, bundle)
    } else {
        (ctx.ep.recv(ctx.super_client), None)
    };
    verify::check_popk(ctx, "setup", ctx.super_client, &cts, bundle);
    ctx.metrics
        .add_time(Stage::LocalComputation, started.elapsed());
    cts
}

/// Super client: compute `[L]` for the current node and broadcast it; the
/// other clients receive it (§4.1 local computation step, first half).
pub fn compute_label_masks(
    ctx: &mut PartyContext<'_>,
    alpha: &[Ciphertext],
    fixed_scale: bool,
) -> LabelMasks<'static> {
    let task = ctx.current_task();
    let class_vectors = match task {
        Task::Classification { classes } => classes,
        Task::Regression => 2,
    };
    if ctx.is_super_client() {
        let labels = ctx
            .view
            .labels
            .as_deref()
            .expect("super client holds labels");
        let mut gammas = Vec::with_capacity(class_vectors);
        let mut bundles = Vec::with_capacity(class_vectors);
        match task {
            Task::Classification { classes } => {
                for k in 0..classes {
                    let beta: Vec<bool> = labels.iter().map(|&y| y as usize == k).collect();
                    verify::scrub_witnesses(ctx);
                    let mut gamma = batch::mask_binary_batch(
                        &ctx.pk,
                        alpha,
                        &beta,
                        &ctx.nonces,
                        ctx.crypto_threads(),
                    );
                    ctx.metrics.add_encryptions(alpha.len() as u64);
                    let xs: Vec<BigUint> = beta
                        .iter()
                        .map(|&b| BigUint::from_u64(u64::from(b)))
                        .collect();
                    bundles.push(verify::prove_popcm(
                        ctx,
                        "label_masks",
                        alpha,
                        &mut gamma,
                        &xs,
                    ));
                    gammas.push(gamma);
                }
            }
            Task::Regression => {
                // β₁ = (y+1), β₂ = (y+1)² in fixed-point (offset keeps the
                // plaintexts non-negative); γ = β ⊗ [α] element-wise.
                let scale = if fixed_scale {
                    (1u64 << ctx.params.fixed.frac_bits) as f64
                } else {
                    1.0
                };
                for moment in 1..=2 {
                    let encodings: Vec<BigUint> = labels
                        .iter()
                        .map(|&y| {
                            assert!(
                                y.abs() <= 1.0 + 1e-9,
                                "regression labels must be normalized into [-1, 1]"
                            );
                            let shifted = y + 1.0;
                            let v = if moment == 1 {
                                shifted
                            } else {
                                shifted * shifted
                            };
                            encode_signed(ctx, v * scale)
                        })
                        .collect();
                    let threads = ctx.crypto_threads();
                    verify::scrub_witnesses(ctx);
                    let scaled = batch::mul_plain_batch(&ctx.pk, alpha, &encodings, threads);
                    let mut gamma =
                        batch::rerandomize_batch(&ctx.pk, &scaled, &ctx.nonces, threads);
                    ctx.metrics.add_ciphertext_ops(2 * alpha.len() as u64);
                    bundles.push(verify::prove_popcm(
                        ctx,
                        "label_masks",
                        alpha,
                        &mut gamma,
                        &encodings,
                    ));
                    gammas.push(gamma);
                }
            }
        }
        for gamma in &gammas {
            ctx.ep.broadcast(gamma);
        }
        for (gamma, bundle) in gammas.iter().zip(bundles) {
            verify::check_popcm(ctx, "label_masks", ctx.super_client, alpha, gamma, bundle);
        }
        LabelMasks {
            gammas: Cow::Owned(gammas),
            offset_encoded: matches!(task, Task::Regression),
        }
    } else {
        let gammas: Vec<Vec<Ciphertext>> = (0..class_vectors)
            .map(|_| ctx.ep.recv::<Vec<Ciphertext>>(ctx.super_client))
            .collect();
        for gamma in &gammas {
            verify::check_popcm(ctx, "label_masks", ctx.super_client, alpha, gamma, None);
        }
        LabelMasks {
            gammas: Cow::Owned(gammas),
            offset_encoded: matches!(task, Task::Regression),
        }
    }
}

/// The packed label vectors: per chunk of the stride, one ciphertext per
/// sample holding `(α_j, γ_1(j), …)` in consecutive slots. Dot products
/// against these produce whole packed statistics at once (the SecureBoost+
/// move: the packing factor divides the per-split ciphertext work).
pub struct PackedLabels {
    /// `chunks[c][sample]` — slots `c·chunk_width …` of the stride.
    pub chunks: Vec<Vec<Ciphertext>>,
    pub chunking: PackedChunking,
    pub samples: usize,
    /// True when regression labels carry the +1 offset encoding.
    pub offset_encoded: bool,
}

/// The per-sample packed label multipliers `Σ_k β_k(j)·2^(w·k)` — fixed
/// for a whole training run (they depend only on the labels, task and
/// codec), so [`plan_packed_labels`] builds them once and every node
/// reuses the table. Non-super clients carry no multipliers; they only
/// receive the broadcast ciphertexts.
pub struct PackedLabelPlan {
    pub chunking: PackedChunking,
    /// `multipliers[chunk][sample]`, super client only.
    multipliers: Option<Vec<Vec<BigUint>>>,
    offset_encoded: bool,
}

/// Precompute the packed label-multiplier table for this run.
pub fn plan_packed_labels(ctx: &PartyContext<'_>, codec: &SlotCodec) -> PackedLabelPlan {
    let task = ctx.current_task();
    let stride = 1 + match task {
        Task::Classification { classes } => classes,
        Task::Regression => 2,
    };
    let chunking = PackedChunking::new(stride, codec.slots());
    let multipliers = ctx.is_super_client().then(|| {
        let labels = ctx.view.labels.as_ref().expect("super client holds labels");
        (0..chunking.chunks())
            .map(|c| {
                let lo = c * chunking.chunk_width;
                let hi = lo + chunking.widths[c];
                labels
                    .iter()
                    .map(|&y| {
                        let slot_vals: Vec<BigUint> = (lo..hi)
                            .map(|t| label_slot_value(ctx, task, y, t))
                            .collect();
                        codec.pack(&slot_vals)
                    })
                    .collect()
            })
            .collect()
    });
    PackedLabelPlan {
        chunking,
        multipliers,
        offset_encoded: matches!(task, Task::Regression),
    }
}

/// Super client: build and broadcast the packed label vectors for the
/// current node. Slot `0` carries `α_j` itself; slot `1+k` carries
/// `γ_k(j) = β_k(j)·α_j`. Because the super client knows the plaintext
/// multipliers `β_k(j)` (precomputed in the plan), the packed vector is
/// one `mul_plain` of `[α_j]` by the public packed multiplier plus a
/// re-randomization — no extra encryptions.
pub fn compute_packed_label_masks(
    ctx: &mut PartyContext<'_>,
    alpha: &[Ciphertext],
    plan: &PackedLabelPlan,
) -> PackedLabels {
    let chunking = plan.chunking.clone();
    let n = alpha.len();
    let started = std::time::Instant::now();
    let chunks = if let Some(multipliers) = &plan.multipliers {
        let threads = ctx.crypto_threads();
        let mut chunks = Vec::with_capacity(chunking.chunks());
        for chunk_multipliers in multipliers {
            assert_eq!(chunk_multipliers.len(), n);
            let scaled = batch::mul_plain_batch(&ctx.pk, alpha, chunk_multipliers, threads);
            let packed = batch::rerandomize_batch(&ctx.pk, &scaled, &ctx.nonces, threads);
            ctx.metrics.add_ciphertext_ops(2 * n as u64);
            ctx.ep.broadcast(&packed);
            chunks.push(packed);
        }
        chunks
    } else {
        (0..chunking.chunks())
            .map(|_| ctx.ep.recv::<Vec<Ciphertext>>(ctx.super_client))
            .collect()
    };
    ctx.metrics
        .add_time(Stage::LocalComputation, started.elapsed());
    PackedLabels {
        chunks,
        chunking,
        samples: n,
        offset_encoded: plan.offset_encoded,
    }
}

/// The plaintext multiplier for stride slot `t` of sample with label `y`:
/// `1` for the α slot, the class indicator or offset regression moment
/// otherwise.
fn label_slot_value(ctx: &PartyContext<'_>, task: Task, y: f64, t: usize) -> BigUint {
    if t == 0 {
        return BigUint::one();
    }
    match task {
        Task::Classification { .. } => {
            if y as usize == t - 1 {
                BigUint::one()
            } else {
                BigUint::zero()
            }
        }
        Task::Regression => {
            assert!(
                y.abs() <= 1.0 + 1e-9,
                "regression labels must be normalized into [-1, 1]"
            );
            let scale = (1u64 << ctx.params.fixed.frac_bits) as f64;
            let shifted = y + 1.0;
            let v = if t == 1 { shifted } else { shifted * shifted };
            BigUint::from_u64((v * scale).round() as u64)
        }
    }
}

/// Basic-protocol model update (§4.1, generalized per §7.2): the winning
/// client masks `[α]` *and* any encrypted label vectors (`[γ₁]`, `[γ₂]` for
/// GBDT) with its plaintext split indicator and broadcasts the `wanted`
/// sides of each — a child's vectors are produced only where something
/// reads them (see `crate::trainer`).
pub fn update_vectors_plain(
    ctx: &mut PartyContext<'_>,
    vectors: &[Vec<Ciphertext>],
    winner: usize,
    left_indicator: Option<&[bool]>,
    wanted: Sides<bool>,
) -> Sides<Option<Vec<Vec<Ciphertext>>>> {
    // Per wanted side: the winner's plaintext indicator and its proof
    // witnesses; `None` at the clients that receive the side.
    let indicators: Vec<Option<(Vec<bool>, Vec<BigUint>)>> = wanted
        .complements()
        .map(|complement| {
            (ctx.id() == winner).then(|| {
                let v_l = left_indicator.expect("winner knows its split indicator");
                let v: Vec<bool> = v_l.iter().map(|&b| b != complement).collect();
                let xs = v.iter().map(|&b| BigUint::from_u64(u64::from(b))).collect();
                (v, xs)
            })
        })
        .collect();
    // `masked[side][vector]`; on the wire, vector-major like the proofs.
    let mut masked = vec![Vec::with_capacity(vectors.len()); indicators.len()];
    let mut bundles = Vec::with_capacity(indicators.len() * vectors.len());
    let threads = ctx.crypto_threads();
    for vec in vectors {
        for (side, indicator) in masked.iter_mut().zip(&indicators) {
            side.push(match indicator {
                Some((v, xs)) => {
                    verify::scrub_witnesses(ctx);
                    let mut out = batch::mask_binary_batch(&ctx.pk, vec, v, &ctx.nonces, threads);
                    bundles.push(verify::prove_popcm(ctx, "update", vec, &mut out, xs));
                    ctx.metrics.add_encryptions(vec.len() as u64);
                    ctx.ep.broadcast(&out);
                    out
                }
                None => {
                    bundles.push(None);
                    ctx.ep.recv::<Vec<Ciphertext>>(winner)
                }
            });
        }
    }
    let mut bundles = bundles.into_iter();
    for (i, vec) in vectors.iter().enumerate() {
        for side in &masked {
            let bundle = bundles.next().expect("one slot per produced vector");
            verify::check_popcm(ctx, "update", winner, vec, &side[i], bundle);
        }
    }
    wanted.fill(masked)
}

/// Encode a signed real as a Paillier plaintext (upper half = negative).
pub fn encode_signed(ctx: &PartyContext<'_>, v: f64) -> BigUint {
    let rounded = v.round();
    if rounded >= 0.0 {
        BigUint::from_u64(rounded as u64)
    } else {
        ctx.pk.n() - &BigUint::from_u64((-rounded) as u64)
    }
}
