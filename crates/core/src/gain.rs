//! The MPC computation step (§4.1): convert pooled encrypted statistics to
//! shares (Algorithm 2), evaluate every split's impurity/variance gain
//! (Eqns 5–6) on shares, and select the best split with secure argmax.
//!
//! Every function runs one protocol stage for a whole tree-level frontier
//! in the rounds of a single node: the lanes of every node concatenate
//! into one comparison/multiplication batch. Comparisons and Beaver
//! multiplications are exact regardless of batching, so every argmax and
//! prune bit is the one a node-by-node evaluation computes; callers with
//! one node (the DP trainer, the SPDZ-DT baseline) pass one-element
//! slices.
//!
//! # Scale discipline
//!
//! Shares live in the field `p = 2^61 − 1`. The fixed-point layout
//! (`pivot_mpc::FixedConfig`, default `f = 20` fractional bits, `k = 45`
//! significant bits, `κ = 14` masking bits, `k + κ + 1 < 61`) and every
//! encoding below exist so that no intermediate of this pipeline wraps:
//!
//! * **Counts stay integers, ratios are fixed-point.** Class counts and
//!   node sizes are *integer-valued* shares; reciprocals and label sums
//!   are fixed-point at scale `2^f`. The gain is arranged so no
//!   intermediate exceeds `n²·2^f < p/2` (`PivotParams::validate`
//!   rejects sample counts beyond that):
//!   classification `gain_side = Σ_k (g_k · recip) · g_k`, regression
//!   `gain_side = ((γ₁·recip)²) · n_side`. Both equal the paper's gain up
//!   to a positive affine transform shared by all splits of the node, so
//!   the argmax — and therefore the trained tree — is identical.
//! * **Labels are bounded.** Regression labels are normalized into
//!   `[-1, 1]` (`Dataset::normalize_labels`, `synth::make_regression`), so
//!   label sums stay below `n·2^f`.
//! * **Plaintexts under encryption are non-negative.** Regression label
//!   vectors are encrypted as `(y+1)` and `(y+1)²` ([`crate::masks`]); a
//!   negative encoding would wrap mod `N` once multiplied into a
//!   slack-carrying mask. The offset is removed linearly after conversion
//!   (`remove_label_offset`).
//! * **Share sums carry slack.** A ciphertext built by summing every
//!   party's encrypted share ([`crate::conversion::shares_to_ciphers`])
//!   holds the secret plus a multiple of `p` below `m·p ≪ N`. Every
//!   consumer reduces mod `p` at its next conversion, so the slack is
//!   harmless as long as it never reaches `N` — or, in a layout with more
//!   than one slot, the next slot: the slot-width audit budgets `n·m·p`
//!   for statistics over such sums (GBDT's residual vectors, §7.2). The
//!   enhanced protocol's Eqn-10 masks multiply two slack-carrying values
//!   (up to `m²·b·p²`), which is why it needs keysize ≥ 192 and why a
//!   level whose layout has more than one slot refreshes the masks first.

use crate::masks::Sides;
use crate::metrics::Stage;
use crate::party::PartyContext;
use crate::stats::{PackedStats, SplitLayout};
use pivot_data::Task;
use pivot_mpc::{width_for_magnitude, Fp, Share};

/// Comparison width covering integer node counts (`|v| ≤ n`).
fn count_width(ctx: &PartyContext<'_>) -> u32 {
    width_for_magnitude(ctx.num_samples() as u64)
}

/// Comparison width covering pairwise *differences* of gated gains: valid
/// gains live in `(−2, n + 1]·2^f` and invalid ones are pinned to `−2^f`,
/// so `|a − b| ≤ (n + 2)·2^f < 2^(f + width(n) + 1)`.
///
/// The `(n + 1)·2^f` gain bound rests on the ±1 normalized-label
/// contract. GBDT residual trees (`task_override` set) train on
/// residuals that can exceed it (up to `(1 + lr)^round`), so their gain
/// argmax keeps the full fixed-point width. (Packing their statistics
/// needs no such contract: a slot is budgeted for the share sums the
/// residuals are encrypted as, whatever value they share.)
fn gain_width(ctx: &PartyContext<'_>) -> u32 {
    if ctx.task_override.is_some() {
        return ctx.params.fixed.int_bits;
    }
    ctx.params.fixed.frac_bits + count_width(ctx) + 1
}

/// Share-domain totals of one tree node — all a leaf needs.
#[derive(Debug)]
pub struct NodeTotals {
    /// `⟨n̄⟩` — node size (integer-valued).
    pub n: Share,
    /// `⟨Σ γ_k⟩` per label vector.
    pub g: Vec<Share>,
}

impl NodeTotals {
    /// `self − other`, element-wise: a right child's totals from its
    /// parent's and its left sibling's.
    pub fn minus(&self, other: &NodeTotals) -> NodeTotals {
        NodeTotals {
            n: self.n - other.n,
            g: minus_row(&self.g, &other.g),
        }
    }
}

/// Share-domain statistics of one tree node.
pub struct NodeShares {
    /// Per split: `⟨n_l⟩` (integer-valued).
    pub n_l: Vec<Share>,
    /// Per label-vector, per split: `⟨g_l⟩` (integer counts for
    /// classification, fixed-point sums for regression).
    pub g_l: Vec<Vec<Share>>,
    /// What every split's two sides add up to.
    pub totals: NodeTotals,
}

impl NodeShares {
    /// Column `s`: the totals of the left child the split `s` would make.
    pub fn column(&self, s: usize) -> NodeTotals {
        NodeTotals {
            n: self.n_l[s],
            g: self.g_l.iter().map(|row| row[s]).collect(),
        }
    }

    /// The totals of both children of the split whose winning column is
    /// `left`: the right child holds what the left one does not.
    pub fn child_totals(&self, left: NodeTotals) -> Sides<NodeTotals> {
        Sides {
            right: self.totals.minus(&left),
            left,
        }
    }

    /// Sibling subtraction: the statistics of this node's right child,
    /// given its left child's. Every sample of the node goes to exactly
    /// one child, so `stats(left, s) + stats(right, s) = stats(node, s)`
    /// for every candidate `s` — exactly, in `Z_p`, because Paillier and
    /// additive shares are both linear (and so is the regression offset
    /// removal, which both operands have been through).
    pub fn minus(&self, left: &NodeShares) -> NodeShares {
        NodeShares {
            n_l: minus_row(&self.n_l, &left.n_l),
            g_l: self
                .g_l
                .iter()
                .zip(&left.g_l)
                .map(|(row, left_row)| minus_row(row, left_row))
                .collect(),
            totals: self.totals.minus(&left.totals),
        }
    }
}

fn minus_row(a: &[Share], b: &[Share]) -> Vec<Share> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Reassemble one node's [`NodeShares`] from the slot shares of its
/// conversion ciphertexts (`shares[i]` aligned with the node's
/// `stats::conversion_batch` order: chunk-major groups, then per-chunk
/// totals) and undo the regression offset.
pub fn node_shares_from_packed(
    ctx: &PartyContext<'_>,
    layout: &SplitLayout,
    packed: &PackedStats,
    shares: &[Vec<Share>],
) -> NodeShares {
    let chunking = &packed.chunking;
    let total = layout.total();
    // `rows[k][s]`: statistic `k` of the stride at split `s`; column
    // `total` holds the node's own totals.
    let mut rows = vec![vec![Share::ZERO; total + 1]; chunking.stride];
    let mut place = |chunk: usize, column: usize, slots: &[Share]| {
        assert_eq!(slots.len(), chunking.widths[chunk], "packed share shape");
        let base = chunk * chunking.chunk_width;
        for (row, &share) in rows[base..].iter_mut().zip(slots) {
            row[column] = share;
        }
    };
    let mut shares = shares.iter();
    let mut next = || shares.next().expect("one share row per ciphertext");
    for (chunk, &width) in chunking.widths.iter().enumerate() {
        let mut split = 0;
        for &size in &packed.group_sizes {
            let slot_shares = next();
            assert_eq!(slot_shares.len(), size * width, "packed share shape");
            for member in slot_shares.chunks(width) {
                place(chunk, split, member);
                split += 1;
            }
        }
        assert_eq!(split, total, "groups cover every split");
    }
    for chunk in 0..chunking.chunks() {
        place(chunk, total, next());
    }
    assert!(shares.next().is_none(), "consumed every ciphertext");

    let (mut totals, mut rows): (Vec<Share>, Vec<Vec<Share>>) = rows
        .into_iter()
        .map(|mut row| (row.pop().expect("the totals column"), row))
        .unzip();
    let mut node = NodeShares {
        n_l: rows.remove(0),
        g_l: rows,
        totals: NodeTotals {
            n: totals.remove(0),
            g: totals,
        },
    };
    if packed.offset_encoded {
        remove_label_offset(ctx, &mut node);
    }
    node
}

/// Undo the +1 regression-label offset after conversion (linear):
/// `γ₁ = γ₁' − n·1` and `γ₂ = γ₂' − 2·γ₁ − n·1`, where `1` is the
/// fixed-point unit `2^f`.
fn remove_label_offset(ctx: &PartyContext<'_>, node: &mut NodeShares) {
    let one_fx = ctx.params.fixed.one();
    debug_assert_eq!(node.g_l.len(), 2, "regression carries two moments");
    for s in 0..node.n_l.len() {
        let n_fx = node.n_l[s].scale(one_fx);
        let g1 = node.g_l[0][s] - n_fx;
        let g2 = node.g_l[1][s] - g1.scale(Fp::new(2)) - n_fx;
        node.g_l[0][s] = g1;
        node.g_l[1][s] = g2;
    }
    let n_fx = node.totals.n.scale(one_fx);
    let g1 = node.totals.g[0] - n_fx;
    let g2 = node.totals.g[1] - g1.scale(Fp::new(2)) - n_fx;
    node.totals.g[0] = g1;
    node.totals.g[1] = g2;
}

/// Basic protocol: open the winning index and map it to the public
/// identifier `(i*, j*, s*)`.
pub fn reveal_identifier(
    ctx: &mut PartyContext<'_>,
    layout: &SplitLayout,
    idx: Share,
) -> (usize, usize, usize) {
    let opened = ctx.engine.open(idx).value() as usize;
    layout.locate(opened)
}

/// Secure pruning decisions (opened bits): per node, too small or — when
/// `check_purity` — pure. One comparison unit and one opening round for the
/// entire frontier (small tests, and purity maxima in a lockstep
/// tournament sharing the same rounds).
pub fn prune_decisions_batch(
    ctx: &mut PartyContext<'_>,
    nodes: &[&NodeTotals],
    check_purity: bool,
) -> Vec<bool> {
    if nodes.is_empty() {
        return Vec::new();
    }
    let party = ctx.id();
    let min_samples = ctx.params.tree.min_samples as u64;
    let is_classification = matches!(ctx.current_task(), Task::Classification { .. });
    // All operands are integer counts bounded by max(n, min_samples).
    let counts_k = width_for_magnitude((ctx.num_samples() as u64).max(min_samples));
    let purity = check_purity && is_classification;
    ctx.metrics.time(Stage::MpcComputation, || {
        let engine = &mut ctx.engine;
        let maxes = if purity {
            let rows: Vec<Vec<Share>> = nodes.iter().map(|t| t.g.clone()).collect();
            engine
                .argmax_many_bounded(&rows, counts_k)
                .into_iter()
                .map(|(_, max)| max)
                .collect()
        } else {
            Vec::new()
        };
        // One mixed batch: every node's small test, then every purity test
        // (pure ⟺ max_k g_k = n̄ ⟺ (n̄ − max) − 1 < 0).
        let mut lanes: Vec<Share> = nodes
            .iter()
            .map(|t| t.n.sub_public(party, Fp::new(min_samples)))
            .collect();
        if purity {
            lanes.extend(
                nodes
                    .iter()
                    .zip(&maxes)
                    .map(|(t, &max)| (t.n - max).sub_public(party, Fp::ONE)),
            );
        }
        let bits = engine.ltz_vec_bounded(&lanes, counts_k);
        let decisions: Vec<Share> = if purity {
            // stop = small ∨ pure = small + pure − small·pure, one
            // multiplication round for the level.
            let smalls = &bits[..nodes.len()];
            let pures = &bits[nodes.len()..];
            let prods = engine.mul_vec(smalls, pures);
            (0..nodes.len())
                .map(|i| smalls[i] + pures[i] - prods[i])
                .collect()
        } else {
            bits
        };
        engine
            .open_vec(&decisions)
            .iter()
            .map(|v| v.value() == 1)
            .collect()
    })
}

/// Evaluate the gain of every split of every node (scale `2^f`), with
/// invalid splits (an empty side) pinned to `-1`. The reciprocal pipeline,
/// gain multiplications, validity tests, and gating of every frontier node
/// concatenate into the per-stage batches of one node; lanes are
/// node-major, and within a node in split order.
pub fn split_gains_batch(ctx: &mut PartyContext<'_>, nodes: &[&NodeShares]) -> Vec<Vec<Share>> {
    if nodes.is_empty() {
        return Vec::new();
    }
    let n_bound = ctx.num_samples() as f64;
    let task = ctx.current_task();
    let party = ctx.id();
    let one_fx = ctx.params.fixed.one();
    let counts_k = count_width(ctx);
    let splits_per_node: Vec<usize> = nodes.iter().map(|n| n.n_l.len()).collect();
    let lanes: usize = splits_per_node.iter().sum();

    ctx.metrics.time(Stage::MpcComputation, || {
        let engine = &mut ctx.engine;
        // Per node: right sides by subtraction, lanes node-major.
        let n_r: Vec<Vec<Share>> = nodes
            .iter()
            .map(|n| n.n_l.iter().map(|&l| n.totals.n - l).collect())
            .collect();
        let g_r: Vec<Vec<Vec<Share>>> = nodes
            .iter()
            .map(|n| {
                n.g_l
                    .iter()
                    .enumerate()
                    .map(|(k, row)| row.iter().map(|&l| n.totals.g[k] - l).collect())
                    .collect()
            })
            .collect();

        // One reciprocal pipeline over every side of every node. The sides
        // are integer-valued counts, so the normalization comparisons run
        // in the integer domain (`⌈log₂ n⌉`-bit widths instead of
        // `f + ⌈log₂ n⌉`).
        let mut sides_int: Vec<Share> = Vec::with_capacity(2 * lanes);
        for (node, rights) in nodes.iter().zip(&n_r) {
            sides_int.extend(node.n_l.iter().copied());
            sides_int.extend(rights.iter().copied());
        }
        let recips = engine.recip_vec_int(&sides_int, n_bound);

        let mut gains_raw: Vec<Vec<Share>> = Vec::with_capacity(nodes.len());
        match task {
            Task::Classification { .. } => {
                // p = g·recip (scale f), term = p·g (scale f); both sides
                // and all classes in two multiplication rounds.
                let mut gs = Vec::new();
                let mut rs = Vec::new();
                let mut at = 0;
                for (i, node) in nodes.iter().enumerate() {
                    let n_splits = splits_per_node[i];
                    let (recip_l, recip_r) = recips[at..at + 2 * n_splits].split_at(n_splits);
                    at += 2 * n_splits;
                    for k in 0..node.g_l.len() {
                        for s in 0..n_splits {
                            gs.push(node.g_l[k][s]);
                            rs.push(recip_l[s]);
                        }
                        for s in 0..n_splits {
                            gs.push(g_r[i][k][s]);
                            rs.push(recip_r[s]);
                        }
                    }
                }
                let ps = engine.mul_vec(&gs, &rs);
                let terms = engine.mul_vec(&ps, &gs);
                let mut base = 0;
                for (i, node) in nodes.iter().enumerate() {
                    let n_splits = splits_per_node[i];
                    let classes = node.g_l.len();
                    let mut gains = vec![Share::ZERO; n_splits];
                    for k in 0..classes {
                        let row = base + 2 * k * n_splits;
                        for (s, gain) in gains.iter_mut().enumerate() {
                            *gain = *gain + terms[row + s] + terms[row + n_splits + s];
                        }
                    }
                    base += 2 * classes * n_splits;
                    gains_raw.push(gains);
                }
            }
            Task::Regression => {
                // mean = γ₁·recip (fixmul), gain_side = mean²·n_side.
                let mut g1 = Vec::with_capacity(2 * lanes);
                let mut recs = Vec::with_capacity(2 * lanes);
                let mut counts = Vec::with_capacity(2 * lanes);
                let mut at = 0;
                for (i, node) in nodes.iter().enumerate() {
                    let n_splits = splits_per_node[i];
                    g1.extend(node.g_l[0].iter().copied());
                    g1.extend(g_r[i][0].iter().copied());
                    recs.extend_from_slice(&recips[at..at + 2 * n_splits]);
                    counts.extend(node.n_l.iter().copied());
                    counts.extend(n_r[i].iter().copied());
                    at += 2 * n_splits;
                }
                let means = engine.fixmul_vec(&g1, &recs);
                let m2 = engine.fixmul_vec(&means, &means);
                let terms = engine.mul_vec(&m2, &counts);
                let mut at = 0;
                for &n_splits in &splits_per_node {
                    gains_raw.push(
                        (0..n_splits)
                            .map(|s| terms[at + s] + terms[at + n_splits + s])
                            .collect(),
                    );
                    at += 2 * n_splits;
                }
            }
        }

        // Validity: both sides non-empty. a = 1[n_l = 0], b = 1[n_r = 0];
        // they cannot both be 1 (the node is non-empty), so
        // valid = 1 − a − b is linear. Side counts are integers in [0, n]:
        // the zero tests only need count-width comparisons, not the full
        // fixed-point layout. Every node's lanes share one batch.
        let mut sides = Vec::with_capacity(2 * lanes);
        for (node, rights) in nodes.iter().zip(&n_r) {
            sides.extend(node.n_l.iter().map(|s| s.sub_public(party, Fp::ONE)));
            sides.extend(rights.iter().map(|s| s.sub_public(party, Fp::ONE)));
        }
        let zero_flags = engine.ltz_vec_bounded(&sides, counts_k);
        let mut shifted = Vec::with_capacity(lanes);
        let mut valid = Vec::with_capacity(lanes);
        let mut at = 0;
        for (i, gains) in gains_raw.iter().enumerate() {
            let n_splits = splits_per_node[i];
            for (s, &g) in gains.iter().enumerate() {
                valid.push(
                    Share::from_public(party, Fp::ONE)
                        - zero_flags[at + s]
                        - zero_flags[at + n_splits + s],
                );
                shifted.push(g.add_public(party, one_fx));
            }
            at += 2 * n_splits;
        }
        // gain_final = valid·(gain + 1) − 1 (scale f): invalid ⇒ −1.
        let gated = engine.mul_vec(&valid, &shifted);
        let mut out = Vec::with_capacity(nodes.len());
        let mut at = 0;
        for &n_splits in &splits_per_node {
            out.push(
                gated[at..at + n_splits]
                    .iter()
                    .map(|g| g.sub_public(party, one_fx))
                    .collect(),
            );
            at += n_splits;
        }
        out
    })
}

/// Secure argmax over each node's gains; returns `(⟨global split index⟩,
/// ⟨gain⟩)` per node. Every frontier node's argmax ladder runs in lockstep
/// (shared comparison rounds, all-pairs tail).
pub fn best_split_batch(ctx: &mut PartyContext<'_>, gains: &[Vec<Share>]) -> Vec<(Share, Share)> {
    if gains.is_empty() {
        return Vec::new();
    }
    let k = gain_width(ctx);
    ctx.metrics.time(Stage::MpcComputation, || {
        ctx.engine.argmax_many_bounded(gains, k)
    })
}

/// Secure leaf labels: argmax class (classification, integer share) or
/// mean label (regression, fixed-point share) — one lockstep argmax or one
/// reciprocal/multiply batch for every leaf of a level.
pub fn leaf_label_shares_batch(ctx: &mut PartyContext<'_>, nodes: &[&NodeTotals]) -> Vec<Share> {
    if nodes.is_empty() {
        return Vec::new();
    }
    let n_bound = ctx.num_samples() as f64;
    let task = ctx.current_task();
    let counts_k = count_width(ctx);
    ctx.metrics.time(Stage::MpcComputation, || match task {
        // Class counts are integers in [0, n]: count-width argmax.
        Task::Classification { .. } => {
            let rows: Vec<Vec<Share>> = nodes.iter().map(|t| t.g.clone()).collect();
            ctx.engine
                .argmax_many_bounded(&rows, counts_k)
                .into_iter()
                .map(|(idx, _)| idx)
                .collect()
        }
        Task::Regression => {
            let sizes: Vec<Share> = nodes.iter().map(|t| t.n).collect();
            let recips = ctx.engine.recip_vec_int(&sizes, n_bound);
            let g1: Vec<Share> = nodes.iter().map(|t| t.g[0]).collect();
            ctx.engine.fixmul_vec(&g1, &recips)
        }
    })
}

/// Enhanced protocol: reveal only the winning `(i*, j*)` block of every
/// winner; each `⟨s*⟩` stays secret. The comparisons against the public
/// block boundaries concatenate into one bounded batch and the boundary
/// bits open in one round (they reveal exactly the block, nothing else).
pub fn reveal_blocks_batch(
    ctx: &mut PartyContext<'_>,
    layout: &SplitLayout,
    idxs: &[Share],
) -> Vec<(usize, usize, Share)> {
    if idxs.is_empty() {
        return Vec::new();
    }
    let party = ctx.id();
    // Block start offsets in global order.
    let mut blocks = Vec::new();
    for (client, row) in layout.counts.iter().enumerate() {
        for feature in 0..row.len() {
            if row[feature] > 0 {
                blocks.push((client, feature, layout.block(client, feature)));
            }
        }
    }
    // b_t = 1[idx < start_t] for every block start (skip the first: always 0).
    let per_node = blocks.len() - 1;
    let mut diffs = Vec::with_capacity(idxs.len() * per_node);
    for &idx in idxs {
        diffs.extend(
            blocks
                .iter()
                .skip(1)
                .map(|&(_, _, (start, _))| idx.sub_public(party, Fp::new(start as u64))),
        );
    }
    // idx and every block start lie in [0, total splits].
    let k = width_for_magnitude(layout.total() as u64);
    let bits = ctx.engine.ltz_vec_bounded(&diffs, k);
    let opened = ctx.engine.open_vec(&bits);
    idxs.iter()
        .enumerate()
        .map(|(i, &idx)| {
            // The winning block is the last one whose start ≤ idx.
            let mut winner = 0usize;
            for (t, bit) in opened[i * per_node..(i + 1) * per_node].iter().enumerate() {
                if bit.value() == 0 {
                    winner = t + 1;
                }
            }
            let (client, feature, (start, _)) = blocks[winner];
            let s_star = idx.sub_public(party, Fp::new(start as u64));
            (client, feature, s_star)
        })
        .collect()
}

/// Enhanced protocol: the totals of every winner's left child while `⟨s*⟩`
/// stays shared — `Σ_t ⟨λ_t⟩ · column(start + t)` over the winning block,
/// with `⟨λ⟩` the block-local one-hot shares of `s*`. `(1 + K)·b` Beaver
/// products per winner `(statistics, block start, ⟨λ⟩)`, every winner's in
/// ONE multiplication round; a one-hot times integer or fixed-point rows
/// needs no truncation, so the result equals the opened column exactly.
pub fn concealed_columns_batch(
    ctx: &mut PartyContext<'_>,
    winners: &[(&NodeShares, usize, &[Share])],
) -> Vec<NodeTotals> {
    if winners.is_empty() {
        return Vec::new();
    }
    let mut selectors = Vec::new();
    let mut entries = Vec::new();
    for &(stats, start, lambda) in winners {
        for row in std::iter::once(&stats.n_l).chain(&stats.g_l) {
            selectors.extend_from_slice(lambda);
            entries.extend_from_slice(&row[start..start + lambda.len()]);
        }
    }
    let products = ctx.metrics.time(Stage::MpcComputation, || {
        ctx.engine.mul_vec(&selectors, &entries)
    });
    let mut rest = products.as_slice();
    winners
        .iter()
        .map(|&(stats, _, lambda)| {
            let mut sums = (0..1 + stats.g_l.len()).map(|_| {
                let (picked, tail) = rest.split_at(lambda.len());
                rest = tail;
                picked.iter().fold(Share::ZERO, |acc, &x| acc + x)
            });
            let n = sums.next().expect("the count row comes first");
            NodeTotals {
                n,
                g: sums.collect(),
            }
        })
        .collect()
}
