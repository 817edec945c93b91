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
//! Within a chunk a client's statistics are bucket sums, SecureBoost+'s
//! histogram. A feature's thresholds are sorted, so split `s` sends left
//! exactly the samples of buckets `0..=s` ([`LocalSplits::buckets`]), and
//! its statistic is the running sum of those buckets: one addition per
//! sample per feature and one per split, where a binary dot product per
//! split paid one per sample per split. The running sum past the last
//! bucket is the node total. Paillier addition is multiplication mod `N²`,
//! so every statistic is the same integer the split's dot product gives;
//! the verified run's proofs commit to indicator bits read off the buckets.
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
use pivot_paillier::{Ciphertext, PublicKey, SlotCodec};
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

/// One client's precomputed local split data (plaintext, never leaves the
/// client): per local feature, its candidate thresholds and every sample's
/// bucket among them.
pub struct LocalSplits {
    pub candidates: Vec<SplitCandidates>,
    /// `buckets[feature][sample]`: the sample's `bucket`. Split `s` sends
    /// a sample left iff its bucket is at most `s`, so a feature's left sets
    /// are nested. Empty for a feature without candidates: nothing reads it.
    pub buckets: Vec<Vec<u32>>,
}

/// The bucket of `v` among a feature's sorted thresholds: how many of them
/// fail the split predicate `v ≤ t`. So `bucket ≤ s ⇔ v ≤ t_s` for every
/// split `s`, and a NaN, which fails every comparison, lands right of
/// every split, as `v ≤ t` sends it (a naive `t < v` would send it left).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub(crate) fn bucket(thresholds: &[f64], v: f64) -> u32 {
    let bucket = thresholds.partition_point(|&t| !(v <= t));
    u32::try_from(bucket).expect("a feature has fewer than 2^32 thresholds")
}

impl LocalSplits {
    /// Precompute from the client's vertical view.
    pub fn precompute(ctx: &PartyContext<'_>) -> LocalSplits {
        let view = &ctx.view;
        let columns = (0..view.num_local_features()).map(|j| view.column(j));
        LocalSplits::from_columns(columns, ctx.params.tree.max_splits)
    }

    /// At most `max_splits` candidates per feature column, and every
    /// sample's bucket among them.
    fn from_columns(columns: impl Iterator<Item = Vec<f64>>, max_splits: usize) -> LocalSplits {
        let (candidates, buckets) = columns
            .map(|column| {
                let cand = candidate_splits(&column, max_splits);
                let buckets = match cand.is_empty() {
                    true => Vec::new(),
                    false => column
                        .iter()
                        .map(|&v| bucket(&cand.thresholds, v))
                        .collect(),
                };
                (cand, buckets)
            })
            .unzip();
        LocalSplits {
            candidates,
            buckets,
        }
    }

    /// Flat per-feature candidate counts (for [`SplitLayout::build`]).
    pub fn counts(&self) -> Vec<usize> {
        self.candidates.iter().map(|c| c.len()).collect()
    }

    /// Every local split as `(feature, split)`, in layout order.
    pub(crate) fn splits(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let per_feature = self.candidates.iter().enumerate();
        per_feature.flat_map(|(f, c)| (0..c.len()).map(move |s| (f, s)))
    }

    /// The left-side indicator of split `split` of `feature`: true for the
    /// samples it sends left.
    pub(crate) fn goes_left(&self, feature: usize, split: usize) -> Vec<bool> {
        let buckets = &self.buckets[feature];
        buckets.iter().map(|&b| b as usize <= split).collect()
    }

    /// Per feature with candidates, its samples by bucket: entry `k` of a
    /// feature lists the samples of bucket `k`, for `k` in `0..=splits`.
    fn by_bucket(&self) -> Vec<Vec<Vec<usize>>> {
        let features = self.candidates.iter().zip(&self.buckets);
        features
            .filter(|(cand, _)| !cand.is_empty())
            .map(|(cand, buckets)| {
                let mut members = vec![Vec::new(); cand.len() + 1];
                for (j, &b) in buckets.iter().enumerate() {
                    members[b as usize].push(j);
                }
                members
            })
            .collect()
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

/// The running sum after each group of `terms`, a group given by the
/// terms' indices: a group's terms join the sum so far in one product
/// chain, one multiplication per term. Over a feature's buckets of one
/// chunk's labels, the sum after bucket `s` is split `s`'s statistic, the
/// labels of the samples it sends left, and the sum after the last bucket
/// is every label's, the node total: the feature costs one multiplication
/// per sample and one per bucket, not one per sample per split.
pub(crate) fn running_sums<G: IntoIterator<Item = usize>>(
    pk: &PublicKey,
    terms: &[Ciphertext],
    groups: impl IntoIterator<Item = G>,
) -> Vec<Ciphertext> {
    let mut sums: Vec<Ciphertext> = Vec::new();
    for group in groups {
        let group = group.into_iter().map(|j| &terms[j]);
        let sum = pk.add_all(sums.last().into_iter().chain(group));
        sums.push(sum);
    }
    sums
}

/// Groups of neighbouring splits merged into one ciphertext each: member
/// `t` lands `t·width` slots up, by Horner's rule from the last member
/// down, every step shifting by one member's width, so a group of `g`
/// pays `g − 1` shifts of `width` slots each.
fn merge_groups(
    pk: &PublicKey,
    threads: usize,
    per_split: &[Ciphertext],
    (group, width): (usize, usize),
    codec: &SlotCodec,
) -> Vec<Ciphertext> {
    let groups: Vec<&[Ciphertext]> = per_split.chunks(group).collect();
    pivot_runtime::global().map(threads, &groups, |members| {
        let (last, below) = members.split_last().expect("groups are nonempty");
        below.iter().rev().fold(last.clone(), |acc, member| {
            let shifted = pk.mul_plain(&acc, &codec.shift_factor(width));
            pk.add(&shifted, member)
        })
    })
}

/// One client's statistics of one node (Eqn 7), before pooling: per
/// chunk, its splits' statistics merged into groups, and the packed node
/// totals. A feature's statistics are the running sums of its bucket
/// histogram ([`running_sums`]), equal ciphertext for ciphertext to
/// one binary dot product per split: Paillier addition is multiplication
/// mod `N²`, and the same factors give the same residue.
fn local_statistics(
    ctx: &mut PartyContext<'_>,
    local: &LocalSplits,
    labels: &PackedLabels<'_>,
    codec: &SlotCodec,
) -> (Vec<Vec<Ciphertext>>, Vec<Ciphertext>) {
    let chunking = &labels.chunking;
    let members = local.by_bucket();
    let splits = local.splits().count();
    let threads = ctx.crypto_threads();
    let mut mine = Vec::with_capacity(chunking.chunks());
    let mut totals = Vec::with_capacity(chunking.chunks());
    for (c, chunk) in labels.chunks.iter().enumerate() {
        let features = pivot_runtime::global().map(threads, &members, |m| {
            running_sums(
                &ctx.pk,
                chunk,
                m.iter().map(|bucket| bucket.iter().copied()),
            )
        });
        // The sum past the last bucket is the node total; a client without
        // candidates sums its labels for the totals alone.
        totals.push(match features.first() {
            Some(sums) => sums.last().expect("a bucket past the last split").clone(),
            None => ctx.pk.add_all(chunk.iter()),
        });
        let per_split: Vec<Ciphertext> = features
            .into_iter()
            .flat_map(|mut sums| {
                sums.pop();
                sums
            })
            .collect();
        let shape = (chunking.group, chunking.widths[c]);
        let merged = merge_groups(&ctx.pk, threads, &per_split, shape, codec);
        // One addition per sample per feature and one per split, plus one
        // shift per split merged into its group's first.
        ctx.counters.add(
            Counter::CiphertextOps,
            (labels.samples * members.len() + 2 * splits - merged.len()) as u64,
        );
        mine.push(merged);
    }
    (mine, totals)
}

/// Local computation + pooling (Eqn 7 / Eqn 9): bucket sums run against
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
    let (mut mine, totals) = local_statistics(ctx, local, labels, codec);

    // Verification: commit the indicator bits and prove every pooled dot
    // product against those commitments (pohdp, Eqn 7). The proofs cover
    // one statistic per ciphertext — the only layout a verified run is
    // given (`PivotParams::slot_plan`).
    let sets: Vec<&[Ciphertext]> = labels.chunks.iter().map(|chunk| &chunk[..]).collect();
    let mut bundle = None;
    if ctx.verify.is_some() {
        assert_eq!(codec.slots(), 1, "the statistics proofs cover one slot");
        let mut commits = split_major(&mine);
        bundle = verify::prove_pohdp(ctx, "stats", &sets, local, &mut commits);
        // An `[adversary]` injection lands in the published ciphertexts.
        let stride = mine.len();
        for (i, ct) in commits.into_iter().enumerate() {
            mine[i % stride][i / stride] = ct;
        }
    }

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
    use crate::config::PivotParams;
    use pivot_bignum::BigUint;
    use pivot_data::{partition_vertically, Dataset, Task};
    use pivot_paillier::vector;
    use pivot_transport::run_parties;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::borrow::Cow;

    #[test]
    fn buckets_keep_the_split_predicate() {
        let thresholds = [-1.5, 0.0, 2.5, 7.0];
        let values = [
            f64::NEG_INFINITY,
            -2.0,
            -1.5,
            -1.0,
            0.0,
            1.0,
            2.5,
            7.0,
            7.5,
            f64::INFINITY,
            f64::NAN,
            -0.0,
        ];
        for v in values {
            let b = bucket(&thresholds, v) as usize;
            for (s, &t) in thresholds.iter().enumerate() {
                assert_eq!(b <= s, v <= t, "value {v}, split {s} at {t}");
            }
        }
        // A value equal to a threshold goes left of it; NaN and +∞ go right
        // of every split, −∞ left of every one.
        assert_eq!(bucket(&thresholds, 2.5), 2);
        assert_eq!(bucket(&thresholds, f64::NAN), 4);
        assert_eq!(bucket(&thresholds, f64::INFINITY), 4);
        assert_eq!(bucket(&thresholds, f64::NEG_INFINITY), 0);
        // Through precomputation: a constant column has no candidates and
        // keeps no bucket row; the indicators read off the others are the
        // predicate's.
        let columns = vec![
            vec![3.0; 6],
            vec![1.0, f64::NAN, 4.0, 2.0, f64::NEG_INFINITY, 4.0],
        ];
        let local = LocalSplits::from_columns(columns.clone().into_iter(), 8);
        assert_eq!(local.counts(), vec![0, 2]);
        assert!(local.buckets[0].is_empty(), "no row for a constant column");
        assert_eq!(local.splits().collect::<Vec<_>>(), vec![(1, 0), (1, 1)]);
        for (s, &t) in local.candidates[1].thresholds.iter().enumerate() {
            let expect: Vec<bool> = columns[1].iter().map(|&v| v <= t).collect();
            assert_eq!(local.goes_left(1, s), expect, "split {s}");
        }
    }

    /// One split per dot product against its indicator, and the node
    /// totals as the all-true dot product: the statistics as they were made
    /// before the bucket sums.
    fn reference_statistics(
        pk: &PublicKey,
        local: &LocalSplits,
        labels: &PackedLabels<'_>,
        codec: &SlotCodec,
    ) -> (Vec<Vec<Ciphertext>>, Vec<Ciphertext>) {
        let chunking = &labels.chunking;
        let mine = labels.chunks.iter().enumerate().map(|(c, chunk)| {
            let per_split: Vec<Ciphertext> = local
                .splits()
                .map(|(f, s)| vector::dot_binary(pk, chunk, &local.goes_left(f, s)))
                .collect();
            let shape = (chunking.group, chunking.widths[c]);
            merge_groups(pk, 1, &per_split, shape, codec)
        });
        let all = vec![true; labels.samples];
        let totals = labels
            .chunks
            .iter()
            .map(|chunk| vector::dot_binary(pk, chunk, &all));
        (mine.collect(), totals.collect())
    }

    #[test]
    fn bucket_sums_equal_per_split_dot_products() {
        // Party 0 holds features with candidates (ties, a NaN, ±∞ and a
        // constant column among them); party 1 only constant columns, so
        // its totals come from the labels alone.
        let n = 12;
        let columns: [Vec<Vec<f64>>; 2] = [
            vec![
                (0..n).map(|j| (j % 5) as f64).collect(),
                vec![1.0; n],
                (0..n)
                    .map(|j| match j {
                        3 => f64::NAN,
                        5 => f64::INFINITY,
                        7 => f64::NEG_INFINITY,
                        _ => (j * 7 % 11) as f64 / 3.0,
                    })
                    .collect(),
            ],
            vec![vec![2.0; n], vec![-4.0; n]],
        ];
        let params = PivotParams {
            keysize: 256,
            ..Default::default()
        };
        let data = Dataset::new(
            vec![vec![0.0; 2]; n],
            vec![0.0; n],
            Task::Classification { classes: 2 },
        );
        let partition = partition_vertically(&data, 2, 0);
        run_parties(2, |ep| {
            let mut ctx =
                PartyContext::setup(&ep, partition.views[ep.id()].clone(), params.clone());
            let local = LocalSplits::from_columns(columns[ep.id()].clone().into_iter(), 3);
            let mut rng = StdRng::seed_from_u64(ep.id() as u64);
            // Stride 3 in one slot, in 8 slots (two splits per ciphertext)
            // and in 2 slots (chunks of 2 and 1).
            for (slots, slot_bits) in [(1, 256), (8, 24), (2, 100)] {
                let chunking = PackedChunking::new(3, slots);
                let chunks = (0..chunking.chunks())
                    .map(|c| {
                        let values = (0..n).map(|j| BigUint::from_u64((7 * j + c) as u64 % 5));
                        Cow::Owned(values.map(|v| ctx.pk.encrypt(&v, &mut rng)).collect())
                    })
                    .collect();
                let labels = PackedLabels {
                    chunks,
                    chunking,
                    samples: n,
                    offset_encoded: false,
                };
                let codec = SlotCodec::new(slot_bits, slots);
                let before = ctx.counters.get(Counter::CiphertextOps);
                let made = local_statistics(&mut ctx, &local, &labels, &codec);
                let expect = reference_statistics(&ctx.pk, &local, &labels, &codec);
                assert_eq!(made, expect, "party {}, {slots} slots", ep.id());
                // One addition per sample and feature with candidates, one
                // per split, and the shifts, per chunk.
                let (d, splits) = (local.by_bucket().len(), local.splits().count());
                let merged: usize = made.0.iter().map(Vec::len).sum();
                let ops = labels.chunks.len() * (n * d + 2 * splits) - merged;
                let booked = ctx.counters.get(Counter::CiphertextOps) - before;
                assert_eq!(booked, ops as u64, "party {}, {slots} slots", ep.id());
            }
        });
    }

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
