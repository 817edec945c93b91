//! Encrypted indicator vectors: the node mask `[α]` and the label vectors
//! `[L] = {[γ_k]}` (§4.1, §4.2).
//!
//! Every statistics pass reads one type, [`PackedLabels`]: per sample, the
//! stride `(α_j, γ_1(j), …)` laid out in the slots of the run's
//! `SlotCodec`, cut into chunks of at most `slots` values. There is one
//! builder, [`compute_packed_label_masks`]. With one slot — the whole
//! plaintext — every chunk is one vector of the stride and chunk 0 *is*
//! `[α]`, which every party already holds. A GBDT node carries its whole
//! stride in that layout already (`NodeMask::Carried`) and lends every
//! chunk: its elements are share sums below `m·p`, which the slot-width
//! audit budgets as their own label source (`LabelSource::ShareSums`).
//!
//! Classification: one vector per class `k` with `γ_k = β_k ⊙ α`.
//! Regression: `γ_1 = (y+1) ⊙ α` and `γ_2 = (y+1)² ⊙ α` — labels are
//! normalized into `[-1, 1]` and **offset by +1** so every plaintext the
//! homomorphic pipeline touches is non-negative. Negative encodings would
//! wrap mod `N` when multiplied into the enhanced protocol's
//! slack-carrying masks and break the mod-`p` conversion ([`crate::gain`],
//! "Scale discipline"); the offset is removed linearly after share
//! conversion ([`crate::gain::node_shares_from_packed`]).

use crate::party::PartyContext;
use crate::stats::PackedChunking;
use crate::train_basic::NodeMask;
use crate::verify;
use pivot_bignum::BigUint;
use pivot_data::Task;
use pivot_paillier::{batch, Ciphertext, SlotCodec};
use pivot_trace::Counter;
use std::borrow::Cow;

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
/// Timed as the `update` phase, the mask's first value: callers hold no
/// phase span.
pub fn initial_mask(ctx: &mut PartyContext<'_>, included: &[bool]) -> Vec<Ciphertext> {
    let _update = pivot_trace::phase_span(&ctx.counters, "update");
    let (cts, bundle) = if ctx.is_super_client() {
        let values: Vec<BigUint> = included
            .iter()
            .map(|&b| BigUint::from_u64(u64::from(b)))
            .collect();
        verify::scrub_witnesses(ctx);
        let mut cts = batch::encrypt_batch(&ctx.pk, &values, &ctx.nonces, ctx.crypto_threads());
        ctx.counters
            .add(Counter::Encryptions, included.len() as u64);
        let bundle = verify::prove_popk(ctx, "setup", &mut cts, &values);
        ctx.ep.broadcast(&cts);
        (cts, bundle)
    } else {
        (ctx.ep.recv(ctx.super_client), None)
    };
    verify::check_popk(ctx, "setup", ctx.super_client, &cts, bundle);
    cts
}

/// The label vectors of one node: per chunk of the stride, one ciphertext
/// per sample holding `(α_j, γ_1(j), …)` in consecutive slots. Dot products
/// against these produce whole packed statistics at once (the SecureBoost+
/// move: the packing factor divides the per-split ciphertext work).
pub struct PackedLabels<'a> {
    /// `chunks[c][sample]` — slots `c·chunk_width …` of the stride.
    /// Borrowed where the node already holds the vector (`[α]` in the
    /// one-slot layout; every chunk of the stride a GBDT node carries).
    pub chunks: Vec<Cow<'a, [Ciphertext]>>,
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
    /// `multipliers[chunk][sample]`, at the super client of a tree whose
    /// label vectors it derives.
    multipliers: Option<Vec<Vec<BigUint>>>,
    offset_encoded: bool,
}

/// Precompute the packed label-multiplier table for this run. A tree whose
/// nodes carry their stride (`carried`, §7.2) is cut by the same chunking
/// but never reads a multiplier — the labels the super client holds are
/// not what it trains on.
pub fn plan_packed_labels(
    ctx: &PartyContext<'_>,
    codec: &SlotCodec,
    carried: bool,
) -> PackedLabelPlan {
    let task = ctx.current_task();
    let stride = 1 + match task {
        Task::Classification { classes } => classes,
        Task::Regression => 2,
    };
    let chunking = PackedChunking::new(stride, codec.slots());
    let multipliers = (ctx.is_super_client() && !carried).then(|| {
        let labels = ctx.view.labels.as_ref().expect("super client holds labels");
        (0..chunking.chunks())
            .map(|c| {
                labels
                    .iter()
                    .map(|&y| {
                        let slot_vals: Vec<BigUint> = chunking
                            .stride_range(c)
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

/// The label vectors of the node that holds `mask` (§4.1 local computation
/// step, first half).
///
/// A node that carries its stride (§7.2) lends its chunks as they are: no
/// copy, nothing sent, no multiplier read. Otherwise the super client
/// builds every chunk from `plan` and broadcasts it. Slot `0` carries `α_j`
/// itself; slot `1+k` carries `γ_k(j) = β_k(j)·α_j`. Because the super
/// client knows the plaintext multipliers `β_k(j)`, a chunk is one
/// `mul_plain` of `[α_j]` by the packed multiplier plus a re-randomization
/// (one nonce per element, chunk order) — no extra encryptions, and under
/// verification one popcm per element.
pub(crate) fn compute_packed_label_masks<'a>(
    ctx: &mut PartyContext<'_>,
    mask: &'a NodeMask,
    plan: &PackedLabelPlan,
) -> PackedLabels<'a> {
    let alpha = match mask {
        NodeMask::Alpha(alpha) => alpha.as_slice(),
        NodeMask::Carried(chunks) => {
            assert_eq!(chunks.len(), plan.chunking.chunks(), "carried stride shape");
            // Residual vectors are slack-positive share sums; they carry
            // no +1 offset (see ensemble::gbdt).
            return PackedLabels {
                chunks: chunks.iter().map(|c| Cow::Borrowed(c.as_slice())).collect(),
                chunking: plan.chunking.clone(),
                samples: chunks[0].len(),
                offset_encoded: false,
            };
        }
    };
    let n = alpha.len();
    let threads = ctx.crypto_threads();
    let lent = usize::from(plan.chunking.alpha_alone());
    // The super client's proof of each chunk; `None` at the receivers.
    let mut bundles = Vec::with_capacity(plan.chunking.chunks() - lent);
    let built: Vec<Vec<Ciphertext>> = (lent..plan.chunking.chunks())
        .map(|c| {
            let Some(multipliers) = &plan.multipliers else {
                bundles.push(None);
                return ctx.ep.recv(ctx.super_client);
            };
            assert_eq!(multipliers[c].len(), n);
            verify::scrub_witnesses(ctx);
            let scaled = batch::mul_plain_batch(&ctx.pk, alpha, &multipliers[c], threads);
            let mut packed = batch::rerandomize_batch(&ctx.pk, &scaled, &ctx.nonces, threads);
            ctx.counters.add(Counter::CiphertextOps, 2 * n as u64);
            let proof =
                verify::prove_popcm(ctx, "label_masks", alpha, &mut packed, &multipliers[c]);
            bundles.push(proof);
            ctx.ep.broadcast(&packed);
            packed
        })
        .collect();
    for (chunk, bundle) in built.iter().zip(bundles) {
        verify::check_popcm(ctx, "label_masks", ctx.super_client, alpha, chunk, bundle);
    }
    PackedLabels {
        chunks: plan
            .chunking
            .alpha_alone()
            .then_some(Cow::Borrowed(alpha))
            .into_iter()
            .chain(built.into_iter().map(Cow::Owned))
            .collect(),
        chunking: plan.chunking.clone(),
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
            let scale = (1u64 << ctx.engine.cfg.frac_bits) as f64;
            let shifted = y + 1.0;
            let v = if t == 1 { shifted } else { shifted * shifted };
            BigUint::from_u64((v * scale).round() as u64)
        }
    }
}

/// Basic-protocol model update (§4.1, generalized per §7.2): the winning
/// client masks every vector the node holds — `[α]`, or the chunks of the
/// stride `(α, γ₁, γ₂)` a GBDT node carries, a 0/1 multiplier masking every
/// slot of a packed element alike — with its plaintext split indicator and
/// broadcasts the `wanted` sides of each. A child's vectors are produced
/// only where something reads them (see `crate::trainer`).
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
                    ctx.counters.add(Counter::Encryptions, vec.len() as u64);
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
