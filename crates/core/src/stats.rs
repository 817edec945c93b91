//! The local computation step (§4.1/§4.2, Eqn 7): every client derives
//! encrypted split statistics from `[L]` and its plaintext feature columns,
//! then the encrypted statistics are pooled for the MPC step.
//!
//! There is one pipeline, [`packed_pooled_statistics`], over the slots of
//! the run's [`pivot_paillier::SlotCodec`]. The stride of a split — its
//! `K+1` statistics — is cut into *chunks* of at most `slots` values, each
//! chunk its own ciphertext stream, and `G = ⌊slots/chunk width⌋`
//! neighbouring splits merge into a single ciphertext via homomorphic slot
//! shifts: each client emits `chunks · Σᵢ ⌈cᵢ/G⌉` ciphertexts.
//!
//! The paper's layout is the one-slot case — a slot that is the whole
//! plaintext (`Packing::Off`, every verified run, a keysize that admits a
//! single audited slot): `stride` chunks of width 1, one split per
//! ciphertext, `Σᵢ cᵢ·stride` ciphertexts, nothing to shift. Two things
//! read the slot count, and both ask "is there a neighbour slot?": the
//! packing counters below, and the enhanced protocol's mask refresh
//! (`crate::train_basic::PaillierPass`).
//!
//! Where the label vectors come from is not this pass's business: the
//! stride a basic or GBDT node carries (§7.2) and the super client's
//! per-pass broadcast to an enhanced node arrive as the same
//! [`PackedLabels`], cut by the same
//! [`PackedChunking`], and differ only in the width the slots were audited
//! to (`LabelSource`).

use crate::masks::PackedLabels;
use crate::party::PartyContext;
use crate::verify;
use pivot_data::{candidate_splits, SplitCandidates};
use pivot_paillier::{vector, Ciphertext, SlotCodec};
use pivot_trace::Counter;
use pivot_transport::Endpoint;

/// Public split-candidate layout: how many candidate splits every client
/// holds per local feature (the counts are public; thresholds stay local).
#[derive(Clone, Debug)]
pub struct SplitLayout {
    /// `counts[client][local_feature]`.
    pub counts: Vec<Vec<usize>>,
    /// Flattened start offset of every (client, feature) block.
    offsets: Vec<Vec<usize>>,
    /// Block starts in global order (sorted ascending), for O(log) lookup.
    flat_starts: Vec<usize>,
    /// `(client, feature)` of each entry of `flat_starts`.
    flat_blocks: Vec<(usize, usize)>,
    total: usize,
}

impl SplitLayout {
    /// Exchange local candidate counts and build the global layout.
    pub fn build(ep: &Endpoint, local_counts: &[usize]) -> SplitLayout {
        SplitLayout::from_counts(ep.exchange_all(&local_counts.to_vec()))
    }

    /// Build the layout from already-known per-client counts.
    pub fn from_counts(counts: Vec<Vec<usize>>) -> SplitLayout {
        let mut offsets = Vec::with_capacity(counts.len());
        let mut flat_starts = Vec::new();
        let mut flat_blocks = Vec::new();
        let mut running = 0usize;
        for (client, client_counts) in counts.iter().enumerate() {
            let mut row = Vec::with_capacity(client_counts.len());
            for (feature, &c) in client_counts.iter().enumerate() {
                row.push(running);
                flat_starts.push(running);
                flat_blocks.push((client, feature));
                running += c;
            }
            offsets.push(row);
        }
        SplitLayout {
            counts,
            offsets,
            flat_starts,
            flat_blocks,
            total: running,
        }
    }

    /// Total number of candidate splits `Σ d_i·b_i`.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Map a global split index back to `(client, local_feature, split)`:
    /// binary search for the last block start at or below `global`. Empty
    /// blocks share their start with the *following* block, so the
    /// partition point always lands on the containing non-empty block
    /// (trailing empties start at `total`, excluded by the range assert).
    pub fn locate(&self, global: usize) -> (usize, usize, usize) {
        assert!(global < self.total, "split index out of range");
        let idx = self.flat_starts.partition_point(|&start| start <= global) - 1;
        let (client, feature) = self.flat_blocks[idx];
        debug_assert!(self.counts[client][feature] > 0, "landed on empty block");
        (client, feature, global - self.flat_starts[idx])
    }

    /// Start/end of one (client, feature) block in global indices.
    pub fn block(&self, client: usize, feature: usize) -> (usize, usize) {
        let start = self.offsets[client][feature];
        (start, start + self.counts[client][feature])
    }
}

/// One client's precomputed local split data: candidate thresholds and the
/// left-side indicator vector per split (plaintext, never leaves the
/// client).
pub struct LocalSplits {
    pub candidates: Vec<SplitCandidates>,
    /// `indicators[feature][split][sample]` — true iff sample goes left.
    pub indicators: Vec<Vec<Vec<bool>>>,
}

impl LocalSplits {
    /// Precompute from the client's vertical view.
    pub fn precompute(ctx: &PartyContext<'_>) -> LocalSplits {
        let view = &ctx.view;
        let mut candidates = Vec::with_capacity(view.num_local_features());
        let mut indicators = Vec::with_capacity(view.num_local_features());
        for j in 0..view.num_local_features() {
            let column = view.column(j);
            let cand = candidate_splits(&column, ctx.params.tree.max_splits);
            let per_split: Vec<Vec<bool>> = cand
                .thresholds
                .iter()
                .map(|&t| column.iter().map(|&v| v <= t).collect())
                .collect();
            candidates.push(cand);
            indicators.push(per_split);
        }
        LocalSplits {
            candidates,
            indicators,
        }
    }

    /// Flat per-feature candidate counts (for [`SplitLayout::build`]).
    pub fn counts(&self) -> Vec<usize> {
        self.candidates.iter().map(|c| c.len()).collect()
    }
}

/// How a stride of `K+1` statistics maps onto packed slots: the stride is
/// cut into chunks of at most `slots` values, and within each chunk
/// `group` whole splits share one ciphertext.
#[derive(Clone, Debug)]
pub struct PackedChunking {
    /// Statistics per split (`K+1`).
    pub stride: usize,
    /// Values per full chunk (`min(stride, slots)`).
    pub chunk_width: usize,
    /// Actual width of each chunk (the last may be narrower).
    pub widths: Vec<usize>,
    /// Splits merged per ciphertext (`max(1, ⌊slots/chunk_width⌋)`).
    pub group: usize,
}

impl PackedChunking {
    pub fn new(stride: usize, slots: usize) -> PackedChunking {
        assert!(stride >= 1 && slots >= 1);
        let chunk_width = stride.min(slots);
        let chunks = stride.div_ceil(chunk_width);
        let widths: Vec<usize> = (0..chunks)
            .map(|c| (stride - c * chunk_width).min(chunk_width))
            .collect();
        PackedChunking {
            stride,
            chunk_width,
            widths,
            group: (slots / chunk_width).max(1),
        }
    }

    /// Number of chunks the stride occupies.
    pub fn chunks(&self) -> usize {
        self.widths.len()
    }

    /// The positions of the stride that chunk `c` holds.
    pub fn stride_range(&self, c: usize) -> std::ops::Range<usize> {
        let lo = c * self.chunk_width;
        lo..lo + self.widths[c]
    }

    /// One slot per ciphertext: chunk 0 is the α slot alone — `[α]` itself,
    /// which every party already holds.
    pub fn alpha_alone(&self) -> bool {
        self.chunk_width == 1
    }

    /// Per-client group sizes for `splits` local candidate splits.
    pub fn group_sizes(&self, splits: usize) -> Vec<usize> {
        (0..splits)
            .step_by(self.group)
            .map(|start| self.group.min(splits - start))
            .collect()
    }
}

/// Pooled statistics of one node: per chunk, the merged group ciphertexts
/// in global (client-major) split order, plus the packed node totals.
pub struct PackedStats {
    /// `groups[chunk][g]` — group `g` of the global order.
    pub groups: Vec<Vec<Ciphertext>>,
    /// Splits merged into group `g` (identical across chunks).
    pub group_sizes: Vec<usize>,
    /// `totals[chunk]` — `[n̄]` and `[Σγ_k]` packed like a single split.
    pub totals: Vec<Ciphertext>,
    pub chunking: PackedChunking,
    pub offset_encoded: bool,
}

/// One client's one-slot statistics (`chunks[k][split]`) as the commit
/// stream the proofs address: statistic `k` of split `s` at `s·stride + k`.
fn split_major(chunks: &[Vec<Ciphertext>]) -> Vec<Ciphertext> {
    let splits = chunks.first().map_or(0, Vec::len);
    (0..splits)
        .flat_map(|s| chunks.iter().map(move |chunk| chunk[s].clone()))
        .collect()
}

/// Local computation + pooling (Eqn 7 / Eqn 9): dot products run against
/// the label vectors (one per chunk), neighbouring splits merge via slot
/// shifts, and only the merged ciphertexts cross the network.
pub fn packed_pooled_statistics(
    ctx: &mut PartyContext<'_>,
    layout: &SplitLayout,
    local: &LocalSplits,
    labels: &PackedLabels<'_>,
    codec: &SlotCodec,
) -> PackedStats {
    let chunking = labels.chunking.clone();
    let n_samples = labels.samples;
    let threads = ctx.crypto_threads();
    let splits: Vec<&Vec<bool>> = local.indicators.iter().flatten().collect();

    let mut mine: Vec<Vec<Ciphertext>> = Vec::with_capacity(chunking.chunks());
    for (c, chunk_labels) in labels.chunks.iter().enumerate() {
        let width = chunking.widths[c];
        // One dot product per split (the whole chunk of the stride at
        // once), then groups merge via slot shifts.
        let per_split: Vec<Ciphertext> = pivot_runtime::global().map(threads, &splits, |v_l| {
            vector::dot_binary(&ctx.pk, chunk_labels, v_l)
        });
        // Member t lands `t·width` slots up: by Horner's rule from the last
        // member down, every step shifting by one member's width, so a
        // group of g pays g − 1 shifts of `width` slots each.
        let groups: Vec<&[Ciphertext]> = per_split.chunks(chunking.group).collect();
        let merged: Vec<Ciphertext> = pivot_runtime::global().map(threads, &groups, |members| {
            let (last, below) = members.split_last().expect("groups are nonempty");
            below.iter().rev().fold(last.clone(), |acc, member| {
                let shifted = ctx.pk.mul_plain(&acc, &codec.shift_factor(width));
                ctx.pk.add(&shifted, member)
            })
        });
        // The dot products, plus one shift per split merged into its
        // group's first.
        ctx.counters.add(
            Counter::CiphertextOps,
            (n_samples * splits.len() + splits.len() - merged.len()) as u64,
        );
        mine.push(merged);
    }

    // Verification: commit the indicator bits and prove every pooled dot
    // product against those commitments (pohdp, Eqn 7). The proofs cover
    // one statistic per ciphertext — the only layout a verified run is
    // given (`PivotParams::slot_plan`).
    let sets: Vec<&[Ciphertext]> = labels.chunks.iter().map(|chunk| &chunk[..]).collect();
    let mut bundle = None;
    if ctx.verify.is_some() {
        assert_eq!(codec.slots(), 1, "the statistics proofs cover one slot");
        let mut commits = split_major(&mine);
        bundle = verify::prove_pohdp(ctx, "stats", &sets, &splits, &mut commits);
        // An `[adversary]` injection lands in the published ciphertexts.
        let stride = mine.len();
        for (i, ct) in commits.into_iter().enumerate() {
            mine[i % stride][i / stride] = ct;
        }
    }

    // Packed node totals: the all-true dot product per chunk (every client
    // can compute them from the label vectors).
    let all_true = vec![true; n_samples];
    let totals: Vec<Ciphertext> = labels
        .chunks
        .iter()
        .map(|chunk_labels| vector::dot_binary(&ctx.pk, chunk_labels, &all_true))
        .collect();

    // Pool the merged ciphertexts (safe to publish); group sizes are public
    // (derived from the public layout), so every party reassembles
    // identically.
    let all: Vec<Vec<Vec<Ciphertext>>> = ctx.ep.exchange_all(&mine);
    let mut group_sizes = Vec::new();
    let mut groups: Vec<Vec<Ciphertext>> = vec![Vec::new(); chunking.chunks()];
    for (client, client_chunks) in all.iter().enumerate() {
        let client_splits: usize = layout.counts[client].iter().sum();
        let sizes = chunking.group_sizes(client_splits);
        assert_eq!(client_chunks.len(), chunking.chunks());
        for chunk_groups in client_chunks {
            assert_eq!(
                chunk_groups.len(),
                sizes.len(),
                "packed stat shape from client {client}"
            );
        }
        // Every party proves its own pooled statistics and spot-checks
        // every prover's (its own included) in client order.
        if ctx.verify.is_some() {
            let own = (client == ctx.id()).then(|| bundle.take()).flatten();
            let commits = split_major(client_chunks);
            verify::check_pohdp(ctx, "stats", client, &sets, &commits, own);
        }
        for (c, chunk_groups) in client_chunks.iter().enumerate() {
            groups[c].extend(chunk_groups.iter().cloned());
        }
        group_sizes.extend(sizes);
    }

    let pooled_cts: usize = groups.iter().map(Vec::len).sum();
    ctx.counters
        .add(Counter::SplitStatCiphertexts, pooled_cts as u64);
    // Packing is booked where it happens: a lone slot packs nothing.
    if codec.slots() > 1 {
        let cts = (pooled_cts + totals.len()) as u64;
        ctx.counters.add(Counter::PackedCiphertexts, cts);
        ctx.counters.add(
            Counter::PackedValues,
            (layout.total() * chunking.stride + chunking.stride) as u64,
        );
        ctx.counters
            .add(Counter::PackedSlotCapacity, cts * codec.slots() as u64);
    }

    PackedStats {
        groups,
        group_sizes,
        totals,
        chunking,
        offset_encoded: labels.offset_encoded,
    }
}

impl PackedStats {
    /// Ciphertexts this node contributes to a conversion batch.
    pub fn conversion_len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum::<usize>() + self.totals.len()
    }
}

/// Flatten a whole frontier's statistics into one Algorithm-2 batch
/// `(cts, used)`: node after node ([`PackedStats::conversion_len`] each),
/// within a node chunk-major groups, then per-chunk totals, each with its
/// occupied slot count. Ciphertexts are borrowed, not cloned — the
/// conversion only reads them.
pub fn conversion_batch(per_node: &[PackedStats]) -> (Vec<&Ciphertext>, Vec<usize>) {
    let mut cts = Vec::new();
    let mut used = Vec::new();
    for ps in per_node {
        let widths = &ps.chunking.widths;
        for (chunk_groups, &width) in ps.groups.iter().zip(widths) {
            cts.extend(chunk_groups);
            used.extend(ps.group_sizes.iter().map(|size| size * width));
        }
        cts.extend(&ps.totals);
        used.extend(widths);
    }
    (cts, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_round_trips_indices() {
        // Fake a 2-client layout directly (no network needed).
        let layout = SplitLayout::from_counts(vec![vec![2, 3], vec![4]]);
        assert_eq!(layout.total(), 9);
        assert_eq!(layout.locate(4), (0, 1, 2));
        assert_eq!(layout.locate(0), (0, 0, 0));
        assert_eq!(layout.locate(8), (1, 0, 3));
        assert_eq!(layout.block(1, 0), (5, 9));
    }

    #[test]
    fn locate_binary_search_matches_linear_scan() {
        // Exhaustive cross-check against the reference linear scan on a
        // layout with empty blocks (zero-count features share starts).
        let counts = vec![vec![0, 3], vec![2, 0, 1], vec![0], vec![4]];
        let layout = SplitLayout::from_counts(counts.clone());
        assert_eq!(layout.total(), 10);
        for global in 0..layout.total() {
            let mut expect = None;
            'outer: for (client, row) in counts.iter().enumerate() {
                let mut start = counts[..client]
                    .iter()
                    .map(|r| r.iter().sum::<usize>())
                    .sum::<usize>();
                for (feature, &c) in row.iter().enumerate() {
                    if global >= start && global < start + c {
                        expect = Some((client, feature, global - start));
                        break 'outer;
                    }
                    start += c;
                }
            }
            assert_eq!(layout.locate(global), expect.unwrap(), "global {global}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_rejects_overflow() {
        let layout = SplitLayout::from_counts(vec![vec![1]]);
        layout.locate(1);
    }

    #[test]
    fn chunking_splits_wide_strides() {
        // stride 3 into 8 slots: one chunk, two splits per ciphertext.
        let c = PackedChunking::new(3, 8);
        assert_eq!(c.chunks(), 1);
        assert_eq!(c.widths, vec![3]);
        assert_eq!(c.group, 2);
        assert_eq!(c.group_sizes(5), vec![2, 2, 1]);
        // stride 5 into 2 slots: three chunks (2 + 2 + 1), no merging.
        let c = PackedChunking::new(5, 2);
        assert_eq!(c.chunks(), 3);
        assert_eq!(c.widths, vec![2, 2, 1]);
        assert_eq!(c.group, 1);
        assert_eq!(c.group_sizes(3), vec![1, 1, 1]);
        // stride equal to slots: one chunk, one split per ciphertext.
        let c = PackedChunking::new(4, 4);
        assert_eq!(c.widths, vec![4]);
        assert_eq!(c.group, 1);
        assert_eq!(c.group_sizes(0), Vec::<usize>::new());
    }
}
