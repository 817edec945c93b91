//! Comparison protocols: exact `mod 2^t`, sign extraction (LTZ), selection,
//! equality against public constants, and secure argmax — the machinery
//! behind the paper's "secure comparison" (`Cc`) operations.
//!
//! The construction is Catrina–de Hoogh style: open a statistically masked
//! value, compare the public low bits against dealer-supplied shared bits
//! (`BitLT`), and correct the wrap. Everything is vectorized: one `ltz_vec`
//! call performs the whole batch in a bounded number of rounds regardless
//! of batch size.
//!
//! **Range-aware widths.** Every protocol has a `_bounded` variant taking
//! the caller's *proven* value range `k` (signed values of magnitude below
//! `2^(k−1)`), so a comparison pays `O(k)` masked bits and Beaver openings
//! instead of the global `O(int_bits)`. The policy knob
//! ([`super::CompareBits`]) resolves requested widths: `Auto` takes them
//! as given, `Floor(n)` raises them to at least `n`.
//!
//! **Log-depth BitLT.** `1[a < b]` for public `a` and shared bits `b` is
//! the carry-out of a tree over the bits (Catrina–de Hoogh's carry
//! form). Bit `i` contributes `g_i = 1[a_i < b_i]` and `p_i = 1[a_i = b_i]`,
//! both affine in `b_i`; neighbouring blocks combine as
//! `(hi, lo) → (g_hi + p_hi·g_lo, p_hi·p_lo)` and the root's `g` is the
//! answer. At the leaves both outputs of a bit pair are affine in `b_lo`,
//! `b_hi` and the one product `b_lo·b_hi`, which the dealer deals with the
//! masked row (`MaskedBitsShare::pairs`), so the leaves cost no round.
//! Above them a combine costs two products, or one where `lo` holds bit 0
//! (its `p` is never read). So a `t`-bit row costs `⌈log₂⌈t/2⌉⌉`
//! multiplication rounds and `Σ_levels (2·pairs − 1)` products over the
//! `⌈t/2⌉` pair blocks (5 at `t = 9`, 24 at `t = 29`), and a comparison
//! one masked opening plus those rounds: `1 + ⌈log₂⌈t/2⌉⌉`.

use super::MpcEngine;
use crate::dealer::MaskedBitsShare;
use crate::field::Fp;
use crate::share::Share;

/// Tournament→all-pairs switchover for [`MpcEngine::argmax_many_bounded`]:
/// rows at or below this many candidates finish via the all-pairs product.
/// The lane count grows as `L(L−1)/2`, so the threshold keeps the batch
/// width modest while replacing ~`log₂ L` full comparison units (each
/// costing a masked opening plus a carry tree) with one batch and a
/// short multiplication tree.
const ALL_PAIRS_TAIL: usize = 24;

impl MpcEngine<'_> {
    /// Exact `y mod 2^t` for shared `y` guaranteed in `[0, 2^int_bits)`.
    pub fn mod2m_vec(&mut self, y: &[Share], t: u32) -> Vec<Share> {
        self.mod2m_vec_bounded(y, t, self.cfg.int_bits)
    }

    /// Exact `y mod 2^t` for shared `y` guaranteed in `[0, 2^k)`: masks
    /// (and their `k + κ − t` statistical headroom) are sized to the
    /// proven range instead of the global `int_bits`.
    pub fn mod2m_vec_bounded(&mut self, y: &[Share], t: u32, k: u32) -> Vec<Share> {
        let n = y.len();
        if n == 0 {
            return Vec::new();
        }
        let k = self.effective_bits(k.max(t));
        let was = self.enter_comparison();
        let party = self.party();
        let cfg = self.cfg;
        let masks = self.dealer_mut().masked_rows(t, k, n, &cfg);
        self.bump_cmp_masked(n as u64, t);
        let masked: Vec<Share> = y.iter().zip(&masks).map(|(&x, m)| x + Share(m.r)).collect();
        let opened = self.open_vec(&masked);

        // Public low parts and the BitLT against the shared bits of r_low.
        let low_mask = (1u64 << t) - 1;
        let c_lows: Vec<u64> = opened.iter().map(|c| c.value() & low_mask).collect();
        let rows: Vec<&MaskedBitsShare> = masks.iter().collect();
        let wraps = self.bitlt_pub_log(&c_lows, &rows, t);

        let out = c_lows
            .iter()
            .zip(&masks)
            .zip(wraps)
            .map(|((&c_low, m), wrap)| {
                // r_low as a share: Σ bits_i · 2^i (local).
                let mut r_low = Share::ZERO;
                for (i, &b) in m.bits.iter().enumerate() {
                    r_low = r_low + Share(b).scale(Fp::pow2(i as u32));
                }
                // y mod 2^t = c_low − r_low + wrap·2^t.
                (Share::from_public(party, Fp::new(c_low)) - r_low) + wrap.scale(Fp::pow2(t))
            })
            .collect();
        self.exit_comparison(was);
        out
    }

    /// Batched log-depth `BitLT`: for each row, the shared bit `1[a < b]`
    /// where `a` is public (`t` bits) and `b` is given by a masked row's
    /// shared bits (LSB first), as the carry-out of a `(g, p)` tree over
    /// the bits (`⌈log₂⌈t/2⌉⌉` rounds; see the module docs).
    fn bitlt_pub_log(
        &mut self,
        pub_vals: &[u64],
        masks: &[&MaskedBitsShare],
        t: u32,
    ) -> Vec<Share> {
        let t = t as usize;
        let one = Share::from_public(self.party(), Fp::ONE);
        // Leaf level: both outputs of a bit pair are affine in its bits and
        // their dealt product (a is public).
        let pairs = t / 2;
        let mut rows: Vec<Vec<(Share, Share)>> = pub_vals
            .iter()
            .zip(masks)
            .map(|(&a, mask)| {
                let bits = &mask.bits;
                assert_eq!((bits.len(), mask.pairs.len()), (t, pairs));
                let a_bit = |i: usize| (a >> i) & 1 == 1;
                // (g, p) of bit i: (1[a_i < b_i], 1[a_i = b_i]).
                let leaf = |i: usize| {
                    let b = Share(bits[i]);
                    if a_bit(i) {
                        (Share::ZERO, b)
                    } else {
                        (b, one - b)
                    }
                };
                let mut row: Vec<(Share, Share)> = (0..pairs)
                    .map(|i| {
                        let (lo, hi) = (2 * i, 2 * i + 1);
                        let (g_hi, p_hi) = leaf(hi);
                        // p_hi·b_lo, affine in b_lo, b_hi and b_lo·b_hi.
                        let u = Share(mask.pairs[i]);
                        let p_hi_b_lo = if a_bit(hi) { u } else { Share(bits[lo]) - u };
                        if a_bit(lo) {
                            (g_hi, p_hi_b_lo)
                        } else {
                            (g_hi + p_hi_b_lo, p_hi - p_hi_b_lo)
                        }
                    })
                    .collect();
                if t % 2 == 1 {
                    row.push(leaf(t - 1));
                }
                row
            })
            .collect();
        // (hi, lo) → (g_hi + p_hi·g_lo, p_hi·p_lo), one round per level;
        // the block holding bit 0 never needs its p.
        let mut width = t.div_ceil(2);
        while width > 1 {
            let half = width / 2;
            let mut xs = Vec::with_capacity(rows.len() * (2 * half - 1));
            let mut ys = Vec::with_capacity(rows.len() * (2 * half - 1));
            for row in &rows {
                for i in 0..half {
                    let ((g_lo, p_lo), (_, p_hi)) = (row[2 * i], row[2 * i + 1]);
                    xs.push(p_hi);
                    ys.push(g_lo);
                    if i > 0 {
                        xs.push(p_hi);
                        ys.push(p_lo);
                    }
                }
            }
            let mut prods = self.mul_vec(&xs, &ys).into_iter();
            for row in &mut rows {
                let mut next = Vec::with_capacity(width.div_ceil(2));
                for i in 0..half {
                    let g = row[2 * i + 1].0 + prods.next().expect("p_hi·g_lo");
                    let p = if i > 0 {
                        prods.next().expect("p_hi·p_lo")
                    } else {
                        Share::ZERO
                    };
                    next.push((g, p));
                }
                if width % 2 == 1 {
                    next.push(row[width - 1]);
                }
                *row = next;
            }
            width = width.div_ceil(2);
        }
        rows.iter()
            .map(|row| row.first().map_or(Share::ZERO, |&(g, _)| g))
            .collect()
    }

    /// Exact sign test: `1[x < 0]` for signed `x` with `|x| < 2^(int_bits−1)`.
    pub fn ltz_vec(&mut self, x: &[Share]) -> Vec<Share> {
        self.ltz_vec_bounded(x, self.cfg.int_bits)
    }

    /// Exact sign test with a proven range: `1[x < 0]` for signed `x` with
    /// `|x| < 2^(k−1)`. Pays `O(k)` bits instead of `O(int_bits)`;
    /// `O(log k)` rounds for the whole batch.
    pub fn ltz_vec_bounded(&mut self, x: &[Share], k: u32) -> Vec<Share> {
        let n = x.len();
        if n == 0 {
            return Vec::new();
        }
        self.bump_comparisons(n as u64);
        let k = self.effective_bits(k);
        self.bump_cmp_width(k, n as u64);
        let party = self.party();
        // y = x + 2^(k−1) ∈ [0, 2^k); sign(x) = 1 − bit_{k−1}(y).
        let y: Vec<Share> = x
            .iter()
            .map(|&v| v.add_public(party, Fp::pow2(k - 1)))
            .collect();
        let low = self.mod2m_vec_bounded(&y, k - 1, k);
        let inv = Fp::inv_pow2(k - 1);
        y.iter()
            .zip(low)
            .map(|(&yv, l)| {
                let high_bit = (yv - l).scale(inv); // exact division by 2^(k−1)
                Share::from_public(party, Fp::ONE) - high_bit
            })
            .collect()
    }

    /// Two-sided sign test: `(1[u < 0], 1[−u < 0])` element-wise for
    /// `|u| < 2^(k−1)`, sharing one masked opening and one masked-bit row
    /// per element between the two sides.
    ///
    /// With `y = u + 2^(k−1)` and `y' = 2^k − y = −u + 2^(k−1)`, the same
    /// opened `c = y + r` serves both: `y' = (2^k − c) + r`, so side B's
    /// low part is an *addition* of public and masked low bits whose carry
    /// is one more BitLT row over the *same* shared bits. This halves the
    /// masked-bit and opening cost of every symmetric comparison pair
    /// (one-hot expansion, interval tests).
    pub fn ltz_pair_vec(&mut self, u: &[Share], k: u32) -> (Vec<Share>, Vec<Share>) {
        let n = u.len();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        self.bump_comparisons(2 * n as u64);
        let k = self.effective_bits(k);
        self.bump_cmp_width(k, 2 * n as u64);
        let was = self.enter_comparison();
        let party = self.party();
        let cfg = self.cfg;
        let t = k - 1;
        let y: Vec<Share> = u
            .iter()
            .map(|&v| v.add_public(party, Fp::pow2(t)))
            .collect();
        let masks = self.dealer_mut().masked_rows(t, k, n, &cfg);
        self.bump_cmp_masked(n as u64, t);
        let masked: Vec<Share> = y.iter().zip(&masks).map(|(&x, m)| x + Share(m.r)).collect();
        let opened = self.open_vec(&masked);

        let low_mask = (1u64 << t) - 1;
        let big_k = 1u64 << k;
        // 2n BitLT rows over n shared bit rows: side A's wrap then side
        // B's carry (carry = 1[c'_low + r_low ≥ 2^t] = BitLT(2^t − 1 −
        // c'_low, r_low), with c' = 2^k − c mod 2^t).
        let c_lows: Vec<u64> = opened.iter().map(|c| c.value() & low_mask).collect();
        let cc_lows: Vec<u64> = opened
            .iter()
            .map(|c| big_k.wrapping_sub(c.value()) & low_mask)
            .collect();
        let mut pub_vals = c_lows.clone();
        pub_vals.extend(cc_lows.iter().map(|&c| low_mask - c));
        let rows: Vec<&MaskedBitsShare> = masks.iter().chain(&masks).collect();
        let wraps = self.bitlt_pub_log(&pub_vals, &rows, t);

        let inv = Fp::inv_pow2(t);
        let one = Share::from_public(party, Fp::ONE);
        let mut neg = Vec::with_capacity(n);
        let mut pos = Vec::with_capacity(n);
        for i in 0..n {
            let mut r_low = Share::ZERO;
            for (b, &bit) in masks[i].bits.iter().enumerate() {
                r_low = r_low + Share(bit).scale(Fp::pow2(b as u32));
            }
            // Side A: y mod 2^t = c_low − r_low + wrap·2^t.
            let low_a = (Share::from_public(party, Fp::new(c_lows[i])) - r_low)
                + wraps[i].scale(Fp::pow2(t));
            let high_a = (y[i] - low_a).scale(inv);
            neg.push(one - high_a);
            // Side B: y' mod 2^t = c'_low + r_low − carry·2^t.
            let low_b = (Share::from_public(party, Fp::new(cc_lows[i])) + r_low)
                - wraps[n + i].scale(Fp::pow2(t));
            let y_b = Share::from_public(party, Fp::pow2(k)) - y[i];
            let high_b = (y_b - low_b).scale(inv);
            pos.push(one - high_b);
        }
        self.exit_comparison(was);
        (neg, pos)
    }

    /// `1[a < b]` element-wise.
    pub fn lt_vec(&mut self, a: &[Share], b: &[Share]) -> Vec<Share> {
        self.lt_vec_bounded(a, b, self.cfg.int_bits)
    }

    /// `1[a < b]` element-wise with `|a − b| < 2^(k−1)` proven.
    pub fn lt_vec_bounded(&mut self, a: &[Share], b: &[Share], k: u32) -> Vec<Share> {
        let diff: Vec<Share> = a.iter().zip(b).map(|(&x, &y)| x - y).collect();
        self.ltz_vec_bounded(&diff, k)
    }

    /// Oblivious select: `cond·a + (1−cond)·b` element-wise (`cond ∈ {0,1}`).
    /// One multiplication round.
    pub fn select_vec(&mut self, cond: &[Share], a: &[Share], b: &[Share]) -> Vec<Share> {
        assert_eq!(cond.len(), a.len());
        assert_eq!(a.len(), b.len());
        let diff: Vec<Share> = a.iter().zip(b).map(|(&x, &y)| x - y).collect();
        let gated = self.mul_vec(cond, &diff);
        gated.into_iter().zip(b).map(|(g, &y)| y + g).collect()
    }

    /// One-hot expansion of shared indices, `(⟨idx⟩, domain)` per item:
    /// `eq_j = 1 − 1[idx < j] − 1[j < idx]` over `0..domain` (linear after
    /// one batched two-sided LTZ; both sides of each `idx − j` share one
    /// masked opening). Every item's equality tests share one
    /// paired-comparison batch at the widest item's bound,
    /// `⌈log₂ domain⌉ + 1` bits (a wider `k` still covers every item).
    pub fn onehot_many(&mut self, items: &[(Share, usize)]) -> Vec<Vec<Share>> {
        if items.is_empty() {
            return Vec::new();
        }
        let party = self.party();
        let mut u = Vec::new();
        let mut k = 2;
        for &(idx, domain) in items {
            u.extend((0..domain).map(|j| idx.sub_public(party, Fp::new(j as u64))));
            k = k.max(super::width_for_magnitude(domain.saturating_sub(1) as u64));
        }
        let (lt, gt) = self.ltz_pair_vec(&u, k);
        let mut out = Vec::with_capacity(items.len());
        let mut at = 0;
        for &(_, domain) in items {
            out.push(
                (0..domain)
                    .map(|j| Share::from_public(party, Fp::ONE) - lt[at + j] - gt[at + j])
                    .collect(),
            );
            at += domain;
        }
        out
    }

    /// Secure argmax by pairwise tournament: returns `(⟨index⟩, ⟨max⟩)`.
    /// `O(log n)` comparison batches.
    pub fn argmax(&mut self, vals: &[Share]) -> (Share, Share) {
        self.argmax_bounded(vals, self.cfg.int_bits)
    }

    /// Secure argmax with a proven range: `k` must cover the pairwise
    /// *differences* (`|a − b| < 2^(k−1)` for any two values).
    pub fn argmax_bounded(&mut self, vals: &[Share], k: u32) -> (Share, Share) {
        assert!(!vals.is_empty(), "argmax of empty vector");
        let party = self.party();
        let mut idx: Vec<Share> = (0..vals.len())
            .map(|j| Share::from_public(party, Fp::new(j as u64)))
            .collect();
        let mut cur: Vec<Share> = vals.to_vec();
        while cur.len() > 1 {
            let pairs = cur.len() / 2;
            let a_vals: Vec<Share> = (0..pairs).map(|i| cur[2 * i]).collect();
            let b_vals: Vec<Share> = (0..pairs).map(|i| cur[2 * i + 1]).collect();
            // sel = 1[a < b] → winner is b; ties keep the earlier element
            // `a`, matching the plaintext argmax.
            let sel = self.lt_vec_bounded(&a_vals, &b_vals, k);
            // Batch value- and index-selection into one multiplication round.
            let mut conds = Vec::with_capacity(2 * pairs);
            let mut xs = Vec::with_capacity(2 * pairs);
            let mut ys = Vec::with_capacity(2 * pairs);
            for i in 0..pairs {
                conds.push(sel[i]);
                xs.push(b_vals[i]);
                ys.push(a_vals[i]);
            }
            for i in 0..pairs {
                conds.push(sel[i]);
                xs.push(idx[2 * i + 1]);
                ys.push(idx[2 * i]);
            }
            let chosen = self.select_vec(&conds, &xs, &ys);
            let mut next_vals: Vec<Share> = chosen[..pairs].to_vec();
            let mut next_idx: Vec<Share> = chosen[pairs..].to_vec();
            if cur.len() % 2 == 1 {
                next_vals.push(*cur.last().expect("odd leftover"));
                next_idx.push(*idx.last().expect("odd leftover"));
            }
            cur = next_vals;
            idx = next_idx;
        }
        (idx[0], cur[0])
    }

    /// Lockstep multi-instance argmax: runs one tournament per row but
    /// shares every comparison/selection round across all rows, so `r`
    /// independent argmax ladders cost the rounds of one. Once a row is
    /// down to [`ALL_PAIRS_TAIL`] candidates the tournament switches to an
    /// all-pairs finish: every unordered candidate pair is compared in a
    /// single batch, the first-maximum indicator is the product
    /// `w_i = ∏_{j<i} 1[v_j < v_i] · ∏_{j>i} (1 − 1[v_i < v_j])`
    /// (⌈log₂(L−1)⌉ multiplication rounds instead of ~⌈log₂ L⌉ full
    /// comparison units), and `(⟨index⟩, ⟨max⟩)` are weighted sums.
    ///
    /// Results are identical to per-row [`Self::argmax_bounded`]: both
    /// resolve ties to the *first* maximum (the tournament keeps the
    /// earlier element on ties; `w_i` demands all earlier values strictly
    /// smaller). `k` must cover the pairwise differences of every row.
    pub fn argmax_many_bounded(&mut self, rows: &[Vec<Share>], k: u32) -> Vec<(Share, Share)> {
        let party = self.party();
        let mut idxs: Vec<Vec<Share>> = rows
            .iter()
            .map(|row| {
                (0..row.len())
                    .map(|j| Share::from_public(party, Fp::new(j as u64)))
                    .collect()
            })
            .collect();
        let mut vals: Vec<Vec<Share>> = rows.to_vec();
        for row in &vals {
            assert!(!row.is_empty(), "argmax of empty row");
        }

        // Tournament rounds, batched across every row still above the
        // all-pairs threshold.
        while vals.iter().any(|row| row.len() > ALL_PAIRS_TAIL) {
            let active: Vec<usize> = (0..vals.len())
                .filter(|&r| vals[r].len() > ALL_PAIRS_TAIL)
                .collect();
            let mut a_vals = Vec::new();
            let mut b_vals = Vec::new();
            for &r in &active {
                let pairs = vals[r].len() / 2;
                for i in 0..pairs {
                    a_vals.push(vals[r][2 * i]);
                    b_vals.push(vals[r][2 * i + 1]);
                }
            }
            // sel = 1[a < b] → winner b; ties keep the earlier element.
            let sel = self.lt_vec_bounded(&a_vals, &b_vals, k);
            let mut conds = Vec::with_capacity(2 * sel.len());
            let mut xs = Vec::with_capacity(2 * sel.len());
            let mut ys = Vec::with_capacity(2 * sel.len());
            let mut lane = 0;
            for &r in &active {
                let pairs = vals[r].len() / 2;
                for i in 0..pairs {
                    conds.push(sel[lane + i]);
                    xs.push(vals[r][2 * i + 1]);
                    ys.push(vals[r][2 * i]);
                }
                for i in 0..pairs {
                    conds.push(sel[lane + i]);
                    xs.push(idxs[r][2 * i + 1]);
                    ys.push(idxs[r][2 * i]);
                }
                lane += pairs;
            }
            let chosen = self.select_vec(&conds, &xs, &ys);
            let mut at = 0;
            for &r in &active {
                let pairs = vals[r].len() / 2;
                let odd = vals[r].len() % 2 == 1;
                let mut next_vals: Vec<Share> = chosen[at..at + pairs].to_vec();
                let mut next_idx: Vec<Share> = chosen[at + pairs..at + 2 * pairs].to_vec();
                if odd {
                    next_vals.push(*vals[r].last().expect("odd leftover"));
                    next_idx.push(*idxs[r].last().expect("odd leftover"));
                }
                at += 2 * pairs;
                vals[r] = next_vals;
                idxs[r] = next_idx;
            }
        }

        // All-pairs tail: one comparison batch over every unordered pair
        // of every remaining multi-candidate row.
        let mut diffs = Vec::new();
        for row in &vals {
            let len = row.len();
            for i in 0..len {
                for j in i + 1..len {
                    diffs.push(row[i] - row[j]);
                }
            }
        }
        let lt = self.ltz_vec_bounded(&diffs, k);
        // Factor lists per candidate: earlier strictly smaller, later not
        // greater. `lt[(i,j)]` (i < j) serves both sides.
        let mut factors: Vec<Vec<Share>> = Vec::new();
        let one = Share::from_public(party, Fp::ONE);
        let mut lane = 0;
        for row in &vals {
            let len = row.len();
            let pair = |a: usize, b: usize| {
                // Lane of unordered pair (a,b), a < b, within this row.
                a * len - a * (a + 1) / 2 + (b - a - 1)
            };
            for i in 0..len {
                let mut f = Vec::with_capacity(len.saturating_sub(1));
                for j in 0..len {
                    match j.cmp(&i) {
                        std::cmp::Ordering::Less => f.push(lt[lane + pair(j, i)]),
                        std::cmp::Ordering::Greater => f.push(one - lt[lane + pair(i, j)]),
                        std::cmp::Ordering::Equal => {}
                    }
                }
                factors.push(f);
            }
            lane += len * (len - 1) / 2;
        }
        // Product trees, batched across every candidate of every row.
        while factors.iter().any(|f| f.len() > 1) {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for f in &factors {
                for pair in f.chunks(2) {
                    if pair.len() == 2 {
                        xs.push(pair[0]);
                        ys.push(pair[1]);
                    }
                }
            }
            let prods = self.mul_vec(&xs, &ys);
            let mut at = 0;
            for f in factors.iter_mut() {
                let mut next = Vec::with_capacity(f.len().div_ceil(2));
                for pair in f.chunks(2) {
                    if pair.len() == 2 {
                        next.push(prods[at]);
                        at += 1;
                    } else {
                        next.push(pair[0]);
                    }
                }
                *f = next;
            }
        }
        // (⟨index⟩, ⟨max⟩) = (Σ w_i·idx_i, Σ w_i·v_i) in one batch.
        let mut ws = Vec::new();
        let mut targets = Vec::new();
        for (r, row) in vals.iter().enumerate() {
            if row.len() == 1 {
                continue;
            }
            let base = vals[..r].iter().map(Vec::len).sum::<usize>();
            for (i, _) in row.iter().enumerate() {
                ws.push(factors[base + i][0]);
                targets.push(idxs[r][i]);
            }
            for (i, &v) in row.iter().enumerate() {
                ws.push(factors[base + i][0]);
                targets.push(v);
            }
        }
        let weighted = self.mul_vec(&ws, &targets);
        let mut out = Vec::with_capacity(vals.len());
        let mut at = 0;
        for (r, row) in vals.iter().enumerate() {
            if row.len() == 1 {
                out.push((idxs[r][0], row[0]));
                continue;
            }
            let len = row.len();
            let idx = weighted[at..at + len]
                .iter()
                .fold(Share::ZERO, |acc, &x| acc + x);
            let val = weighted[at + len..at + 2 * len]
                .iter()
                .fold(Share::ZERO, |acc, &x| acc + x);
            at += 2 * len;
            out.push((idx, val));
        }
        out
    }
}
