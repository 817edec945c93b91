//! Encrypted indicator vectors: the node mask `[α]` and the label vectors
//! `[L] = {[γ_k]}` (§4.1, §4.2).
//!
//! Every statistics pass reads one type, [`PackedLabels`]: per sample, the
//! stride `(α_j, γ_1(j), …)` laid out in the slots of the run's
//! `SlotCodec`, cut into chunks of at most `slots` values. A Pivot-Basic
//! node carries its stride (`NodeMask::Carried`, §7.2's route): the super
//! client encrypts it once per tree at the root ([`initial_mask`]), and the
//! winner masks every chunk with its split indicator. A GBDT node carries
//! share sums below `m·p` instead, audited as their own label source
//! (`LabelSource::ShareSums`). The enhanced protocol keeps `[α]` alone,
//! because Eqn 10 updates α alone, so its super client rebuilds the stride
//! at every pass ([`compute_packed_label_masks`]), from an `[α]` that is a
//! `crate::decrypt::Bounded` vector: 1 for [`initial_mask`]'s root, and
//! below it whatever bound `crate::train_enhanced` sets.
//!
//! Classification: one vector per class `k` with `γ_k = β_k ⊙ α`.
//! Regression: `γ_1 = (y+1) ⊙ α` and `γ_2 = (y+1)² ⊙ α` — labels are
//! normalized into `[-1, 1]` and **offset by +1** so every plaintext the
//! homomorphic pipeline touches is non-negative. Negative encodings would
//! wrap mod `N` when multiplied into the enhanced protocol's
//! slack-carrying masks and break the mod-`p` conversion ([`crate::gain`],
//! "Scale discipline"); the offset is removed linearly after share
//! conversion ([`crate::gain::node_shares_from_packed`]).

use crate::config::LabelSource;
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

/// A tree's root, encrypted once: the super client encrypts it, proves it
/// with popk under `setup` and broadcasts it, so **every party holds the
/// identical ciphertexts** — a hard protocol invariant: joint threshold
/// decryption combines partial decryptions of what must be one ciphertext.
///
/// Per chunk of the `stride` plan, each sample's packed stride (the plan's
/// multipliers) times its 0/1 inclusion bit, chunk-major — a Pivot-Basic
/// root. Without a plan, one chunk: the mask `[α]` of the bits (the
/// enhanced root, and the α slot of a GBDT root). Timed as the `update`
/// phase, the root's first value: callers hold no phase span.
pub(crate) fn initial_mask(
    ctx: &mut PartyContext<'_>,
    included: &[bool],
    stride: Option<&PackedLabelPlan>,
) -> Vec<Vec<Ciphertext>> {
    let _update = pivot_trace::phase_span(&ctx.counters, "update");
    let n = included.len();
    let (cts, bundle) = if ctx.is_super_client() {
        let multipliers =
            stride.map_or_else(|| vec![vec![BigUint::one(); n]], |p| p.multipliers(ctx));
        let values: Vec<BigUint> = multipliers
            .into_iter()
            .flatten()
            .zip(included.iter().cycle())
            .map(|(x, &b)| if b { x } else { BigUint::zero() })
            .collect();
        verify::scrub_witnesses(ctx);
        let mut cts = batch::encrypt_batch(&ctx.pk, &values, &ctx.nonces, ctx.crypto_threads());
        ctx.counters.add(Counter::Encryptions, values.len() as u64);
        let bundle = verify::prove_popk(ctx, "setup", &mut cts, &values);
        ctx.ep.broadcast(&cts);
        (cts, bundle)
    } else {
        (ctx.ep.recv(ctx.super_client), None)
    };
    verify::check_popk(ctx, "setup", ctx.super_client, &cts, bundle);
    let chunks = cts.len() / n;
    let mut cts = cts.into_iter();
    (0..chunks)
        .map(|_| cts.by_ref().take(n).collect())
        .collect()
}

/// The label vectors of one node: per chunk of the stride, one ciphertext
/// per sample holding `(α_j, γ_1(j), …)` in consecutive slots. Dot products
/// against these produce whole packed statistics at once (the SecureBoost+
/// move: the packing factor divides the per-split ciphertext work).
pub struct PackedLabels<'a> {
    /// `chunks[c][sample]` — slots `c·chunk_width …` of the stride.
    /// Borrowed where the node already holds the vector (every chunk of a
    /// carried stride; an enhanced node's `[α]` at one slot).
    pub chunks: Vec<Cow<'a, [Ciphertext]>>,
    pub chunking: PackedChunking,
    pub samples: usize,
    /// True when regression labels carry the +1 offset encoding.
    pub offset_encoded: bool,
}

/// How the stride of a run's label source lies in the slots of its codec,
/// for every node of every tree of the run.
pub(crate) struct PackedLabelPlan {
    pub(crate) codec: SlotCodec,
    pub(crate) chunking: PackedChunking,
    pub(crate) labels: LabelSource,
}

/// The label plan of trees whose roots' vectors come from `labels`: the
/// run's audited codec for them (`PivotParams::slot_plan`), and the
/// current task's stride cut into its chunks.
pub(crate) fn plan_packed_labels(ctx: &PartyContext<'_>, labels: LabelSource) -> PackedLabelPlan {
    let slots = ctx
        .params
        .slot_plan(ctx.parties(), ctx.num_samples(), labels);
    let codec = slots.codec(&ctx.engine.cfg);
    let stride = 1 + match ctx.current_task() {
        Task::Classification { classes } => classes,
        Task::Regression => 2,
    };
    PackedLabelPlan {
        chunking: PackedChunking::new(stride, codec.slots()),
        codec,
        labels,
    }
}

impl PackedLabelPlan {
    /// `multipliers[chunk][sample]`: each sample's stride packed, from the
    /// labels the super client holds. Built where read — per Basic root,
    /// per enhanced pass and node — at one pack per sample beside the
    /// encryption or `mul_plain` it feeds.
    fn multipliers(&self, ctx: &PartyContext<'_>) -> Vec<Vec<BigUint>> {
        assert!(
            self.labels != LabelSource::ShareSums,
            "share sums have no multipliers"
        );
        let task = ctx.current_task();
        let labels = ctx.view.labels.as_ref().expect("super client holds labels");
        (0..self.chunking.chunks())
            .map(|c| {
                let stride = |y| {
                    self.chunking
                        .stride_range(c)
                        .map(move |t| label_slot_value(ctx, task, y, t))
                };
                labels
                    .iter()
                    .map(|&y| self.codec.pack(&stride(y).collect::<Vec<_>>()))
                    .collect()
            })
            .collect()
    }

    /// The vectors a node holds, as its statistics pass reads them.
    fn labels<'a>(&self, chunks: Vec<Cow<'a, [Ciphertext]>>) -> PackedLabels<'a> {
        PackedLabels {
            samples: chunks[0].len(),
            chunks,
            chunking: self.chunking.clone(),
            offset_encoded: self.labels == LabelSource::OffsetMoments,
        }
    }
}

/// The label vectors of the node that holds `mask` (§4.1 local computation
/// step, first half).
///
/// A node that carries its stride (every basic and GBDT node) lends its
/// chunks as they are: no copy, nothing sent. An enhanced node holds `[α]`
/// alone: the super client builds every chunk but a lent `[α]` (chunk 0 at
/// one slot) and broadcasts it — one `mul_plain` of `[α_j]` by the packed
/// multiplier plus a re-randomization (one nonce per element, chunk order).
/// The enhanced protocol carries no proofs.
pub(crate) fn compute_packed_label_masks<'a>(
    ctx: &mut PartyContext<'_>,
    mask: &'a NodeMask,
    plan: &PackedLabelPlan,
) -> PackedLabels<'a> {
    let alpha = match mask {
        NodeMask::Alpha { alpha, .. } => alpha.cts.as_slice(),
        NodeMask::Carried(chunks) => {
            assert_eq!(chunks.len(), plan.chunking.chunks(), "carried stride shape");
            return plan.labels(chunks.iter().map(|c| Cow::Borrowed(c.as_slice())).collect());
        }
    };
    let threads = ctx.crypto_threads();
    let lent = plan.chunking.alpha_alone();
    let multipliers = ctx.is_super_client().then(|| plan.multipliers(ctx));
    let built = (usize::from(lent)..plan.chunking.chunks()).map(|c| match &multipliers {
        Some(multipliers) => {
            let scaled = batch::mul_plain_batch(&ctx.pk, alpha, &multipliers[c], threads);
            let packed = batch::rerandomize_batch(&ctx.pk, &scaled, &ctx.nonces, threads);
            ctx.counters
                .add(Counter::CiphertextOps, 2 * alpha.len() as u64);
            ctx.ep.broadcast(&packed);
            Cow::Owned(packed)
        }
        None => Cow::Owned(ctx.ep.recv(ctx.super_client)),
    });
    let alpha = lent.then_some(Cow::Borrowed(alpha));
    plan.labels(alpha.into_iter().chain(built).collect())
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
/// client masks every chunk of the stride the node carries — a 0/1
/// multiplier masking every slot of a packed element alike — with its
/// plaintext split indicator and broadcasts the `wanted` sides of each. A
/// child's vectors are produced only where something reads them (see
/// `crate::trainer`).
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
