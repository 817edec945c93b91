//! Secret-sharing based prediction on the concealed model (§5.2, "secret
//! sharing based model prediction"): thresholds and leaf labels are
//! converted into shares, feature values are shared by their owners, every
//! internal node is evaluated with one secure comparison, and path markers
//! are combined multiplicatively so only the final output is opened.

use crate::conversion::packed_share_conversion_groups;
use crate::decrypt::Bounded;
use crate::model::{ConcealedNode, ConcealedTree};
use crate::party::PartyContext;
use crate::train_enhanced::threshold_offset_bits;
use pivot_bignum::BigUint;
use pivot_data::Task;
use pivot_mpc::{Fp, Share};
use std::collections::{BTreeMap, HashMap};

/// Batched secret-shared prediction.
pub fn predict_batch(
    ctx: &mut PartyContext<'_>,
    tree: &ConcealedTree,
    local_samples: &[Vec<f64>],
) -> Vec<f64> {
    let n_samples = local_samples.len();
    if n_samples == 0 {
        return Vec::new();
    }
    // Convert the concealed model into shares once per batch.
    let internals = tree.internals();
    let leaf_paths = tree.leaf_paths();
    let (thresholds, leaf_values) = {
        let mut cts = Vec::with_capacity(internals.len() + leaf_paths.len());
        for (_, _, _, enc_t) in &internals {
            cts.push((*enc_t).clone());
        }
        for (leaf_id, _) in &leaf_paths {
            match &tree.nodes[*leaf_id] {
                ConcealedNode::Leaf { enc_value } => cts.push(enc_value.clone()),
                ConcealedNode::Internal { .. } => unreachable!("leaf ids are leaves"),
            }
        }
        // Pack the model conversion under per-kind audited bounds.
        // Thresholds are PIR dot products — a `≤ max_splits`-term sum of
        // `< m·p` λ-slack ciphertexts times offset-encoded values
        // `< 2^(off_bits+1)`; leaves are §5.2 share sums `< m·p`. Both
        // groups settle in one decryption round; narrow leaf slots pack
        // several-fold even at the enhanced keysize floor.
        let m_p = BigUint::from_u128(Fp::share_sum_bound(ctx.parties()));
        let splits = BigUint::from_u64(ctx.params.tree.max_splits.max(1) as u64);
        let t_bound = &(&m_p * &splits) * &BigUint::pow2(threshold_offset_bits(ctx) + 1);
        let leaves = Bounded::new(cts.split_off(internals.len()), m_p);
        let groups = packed_share_conversion_groups(ctx, &[Bounded::new(cts, t_bound), leaves]);
        let shares: Vec<Share> = groups.into_iter().flatten().collect();
        let off = Fp::pow2(threshold_offset_bits(ctx));
        let party = ctx.id();
        let thresholds: Vec<Share> = shares[..internals.len()]
            .iter()
            .map(|s| s.sub_public(party, off))
            .collect();
        let leaves = shares[internals.len()..].to_vec();
        (thresholds, leaves)
    };

    // Owners share their feature values for every (internal node, sample).
    // node_feature_shares[node_pos][sample]
    let f = ctx.engine.cfg.frac_bits;
    let mut node_feature_shares: Vec<Vec<Share>> = vec![Vec::new(); internals.len()];
    for owner in 0..ctx.parties() {
        let owned: Vec<usize> = internals
            .iter()
            .enumerate()
            .filter(|(_, (_, client, _, _))| *client == owner)
            .map(|(pos, _)| pos)
            .collect();
        if owned.is_empty() {
            continue;
        }
        let values: Option<Vec<Fp>> = (ctx.id() == owner).then(|| {
            let mut vals = Vec::with_capacity(owned.len() * n_samples);
            for &pos in &owned {
                let (_, _, feature_global, _) = internals[pos];
                let local_idx = ctx
                    .view
                    .feature_indices
                    .iter()
                    .position(|&g| g == feature_global)
                    .expect("owner holds the feature");
                for sample in local_samples {
                    let scaled = (sample[local_idx] * (1u64 << f) as f64).round();
                    vals.push(Fp::from_i64(scaled as i64));
                }
            }
            vals
        });
        let shared = ctx.engine.share_input(owner, values.as_deref());
        for (slot, &pos) in owned.iter().enumerate() {
            node_feature_shares[pos] = shared[slot * n_samples..(slot + 1) * n_samples].to_vec();
        }
    }

    let task = ctx.current_task();
    // One batched secure comparison evaluates every node × sample:
    // right = 1[τ < x]; left marker bit = 1 − right.
    let mut diffs = Vec::with_capacity(internals.len() * n_samples);
    for (pos, t) in thresholds.iter().enumerate() {
        for s in 0..n_samples {
            diffs.push(*t - node_feature_shares[pos][s]);
        }
    }
    let rights = bounded_node_comparisons(ctx, &internals, local_samples, &diffs, n_samples);
    let party = ctx.id();
    let one = Share::from_public(party, Fp::ONE);

    // Node-id → position in `internals`.
    let node_pos: HashMap<usize, usize> = internals
        .iter()
        .enumerate()
        .map(|(pos, (id, ..))| (*id, pos))
        .collect();

    // Walk the tree top-down, one multiplication batch per level:
    // marker(left) = marker·left_bit, marker(right) = marker − marker(left).
    let mut markers: HashMap<usize, Vec<Share>> = HashMap::new();
    markers.insert(tree.root, vec![one; n_samples]);
    let mut frontier = vec![tree.root];
    while !frontier.is_empty() {
        let mut lhs = Vec::new();
        let mut rhs = Vec::new();
        let mut meta = Vec::new();
        let mut next = Vec::new();
        for &id in &frontier {
            if let ConcealedNode::Internal { left, right, .. } = &tree.nodes[id] {
                let pos = node_pos[&id];
                let parent = markers[&id].clone();
                for s in 0..n_samples {
                    lhs.push(parent[s]);
                    rhs.push(one - rights[pos * n_samples + s]);
                }
                meta.push((id, *left, *right));
                next.push(*left);
                next.push(*right);
            }
        }
        if meta.is_empty() {
            break;
        }
        let products = ctx.engine.mul_vec(&lhs, &rhs);
        for (i, (id, left, right)) in meta.iter().enumerate() {
            let left_marker: Vec<Share> = products[i * n_samples..(i + 1) * n_samples].to_vec();
            let parent = markers[id].clone();
            let right_marker: Vec<Share> = parent
                .iter()
                .zip(&left_marker)
                .map(|(&p, &l)| p - l)
                .collect();
            markers.insert(*left, left_marker);
            markers.insert(*right, right_marker);
        }
        frontier = next;
    }

    // prediction = Σ_leaf marker·z (one multiplication batch), opened.
    let mut lhs = Vec::with_capacity(leaf_paths.len() * n_samples);
    let mut rhs = Vec::with_capacity(leaf_paths.len() * n_samples);
    for (li, (leaf_id, _)) in leaf_paths.iter().enumerate() {
        let marker = &markers[leaf_id];
        for s in 0..n_samples {
            lhs.push(marker[s]);
            rhs.push(leaf_values[li]);
        }
    }
    let prods = ctx.engine.mul_vec(&lhs, &rhs);
    let sums: Vec<Share> = (0..n_samples)
        .map(|s| {
            (0..leaf_paths.len())
                .map(|li| prods[li * n_samples + s])
                .fold(Share::ZERO, |acc, x| acc + x)
        })
        .collect();
    let opened = ctx.engine.open_vec(&sums);
    opened
        .iter()
        .map(|&v| match task {
            Task::Classification { .. } => v.value() as f64,
            Task::Regression => ctx.engine.cfg.decode(v),
        })
        .collect()
}

/// Node comparisons under a public per-feature range contract. Each split
/// owner publishes a power-of-two magnitude bound on its feature's scaled
/// values — training column (every candidate threshold is a training value
/// or a midpoint of two) plus the prediction batch — so `τ − x` provably
/// fits in `bound + 2` signed bits and the sign test pays the contract
/// width instead of the full `int_bits` ladder. The contract reveals only
/// a coarse range of each split feature, whose identity the enhanced
/// protocol already discloses (§5.2). Nodes sharing a width run as one
/// batch; distinct widths run in ascending order on every party.
fn bounded_node_comparisons(
    ctx: &mut PartyContext<'_>,
    internals: &[(usize, usize, usize, &pivot_paillier::Ciphertext)],
    local_samples: &[Vec<f64>],
    diffs: &[Share],
    n_samples: usize,
) -> Vec<Share> {
    let me = ctx.id();
    let f = ctx.engine.cfg.frac_bits;
    let mine: Vec<usize> = internals
        .iter()
        .map(|&(_, owner, feature_global, _)| {
            if owner != me {
                return 0;
            }
            let local_idx = ctx
                .view
                .feature_indices
                .iter()
                .position(|&g| g == feature_global)
                .expect("owner holds the feature");
            let col_max = (0..ctx.view.num_samples())
                .map(|i| ctx.view.features[i][local_idx].abs())
                .chain(local_samples.iter().map(|s| s[local_idx].abs()))
                .fold(0.0_f64, f64::max);
            let scaled = (col_max * (1u64 << f) as f64).round() as u64;
            (u64::BITS - scaled.leading_zeros()) as usize
        })
        .collect();
    // Element-wise max over the published contracts: only the owner's slot
    // is non-zero, but taking the max keeps the reduction symmetric.
    let all = ctx.ep.exchange_all(&mine);
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for pos in 0..internals.len() {
        let bound = all
            .iter()
            .map(|per_party| per_party[pos])
            .max()
            .unwrap_or(0);
        groups.entry(bound as u32 + 2).or_default().push(pos);
    }
    let mut rights = vec![Share::ZERO; diffs.len()];
    for (k, positions) in groups {
        let batch: Vec<Share> = positions
            .iter()
            .flat_map(|&pos| {
                diffs[pos * n_samples..(pos + 1) * n_samples]
                    .iter()
                    .copied()
            })
            .collect();
        let res = ctx.engine.ltz_vec_bounded(&batch, k);
        for (i, &pos) in positions.iter().enumerate() {
            rights[pos * n_samples..(pos + 1) * n_samples]
                .copy_from_slice(&res[i * n_samples..(i + 1) * n_samples]);
        }
    }
    rights
}
