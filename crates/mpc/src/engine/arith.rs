//! Derived fixed-point arithmetic: reciprocal/division (Newton–Raphson
//! with oblivious normalization), exponential and natural log
//! approximations — the "secure division and secure exponential"
//! primitives the paper draws from SPDZ (§2.2). Every truncation that a
//! product reads rides that product's opening
//! ([`MpcEngine::trunc_mul_vec`]); only a chain's last truncation opens
//! on its own.

use super::{Affine, MpcEngine, Pending};
use crate::field::Fp;
use crate::share::Share;

/// Newton–Raphson iterations `w ← w·(2 − d·w)` after normalizing into
/// `[1/2, 1)`; each squares the relative error, so 4 iterations take the
/// linear estimate's ≈ 0.086 to ≈ `0.086^16 ≈ 2^-56`, beyond the
/// fixed-point ulp. What remains is the ±1-ulp noise of the tail's
/// truncations: an integer reciprocal lands within 2 ulp of `2^f/d` (its
/// normalizing truncation is exact), asserted for every `d ≤ 2^9` in
/// `crates/mpc/tests/compare_bounded.rs`.
const NEWTON_ITERS: usize = 4;

impl MpcEngine<'_> {
    /// Fixed-point reciprocal of **positive** values `d ∈ [1, bound]`
    /// (value-wise; `d` is a fixed-point share at scale `2^f`).
    ///
    /// Strategy: obliviously normalize each `d` into `[1/2, 1)` by counting
    /// power-of-two thresholds with one batched comparison, run
    /// Newton–Raphson from a linear initial estimate, then undo the
    /// normalization.
    pub fn recip_vec(&mut self, d: &[Share], bound: f64) -> Vec<Share> {
        let recip = self.recip_pending(d, bound);
        self.settle(recip)
    }

    /// [`Self::recip_vec`] before its last truncation, for a product to
    /// fuse.
    fn recip_pending(&mut self, d: &[Share], bound: f64) -> Pending {
        let n = d.len();
        if n == 0 {
            return Pending::default();
        }
        assert!(bound >= 1.0, "bound must cover the input range");
        let s = (bound.log2().ceil() as u32).max(1);
        let f = self.cfg.frac_bits;
        assert!(
            s + 1 + f < self.cfg.int_bits,
            "reciprocal bound 2^{s} too large for the fixed-point layout"
        );
        let party = self.party();

        // b_j = 1[d < 2^j] for j = 1..=s, one batched comparison whose
        // width only needs to cover |d − 2^(f+j)| < 2^(f+s+1).
        let mut batch = Vec::with_capacity(n * s as usize);
        for &x in d {
            for j in 1..=s {
                batch.push(x.sub_public(party, Fp::pow2(f + j)));
            }
        }
        let bits = self.ltz_vec_bounded(&batch, f + s + 2);
        self.recip_tail(d, &bits, s)
    }

    /// Fixed-point reciprocal of **positive integer-valued** shares
    /// `d ∈ [1, bound]` at scale `2^0` (e.g. node sample counts): the
    /// normalization comparisons run in the *integer* domain
    /// (`1[d·2^f < 2^(f+j)] = 1[d < 2^j]`, width `⌈log₂ bound⌉ + 2`
    /// instead of `f + ⌈log₂ bound⌉ + 2`), then the Newton tail is
    /// shared with [`Self::recip_vec`]. Returns `⟨1/d⟩` at scale `2^f`.
    pub fn recip_vec_int(&mut self, d: &[Share], bound: f64) -> Vec<Share> {
        let recip = self.recip_int_pending(d, bound, false).0;
        self.settle(recip)
    }

    /// [`Self::recip_vec_int`] before its last truncation, which the
    /// caller's next product carries ([`Self::trunc_mul_vec`]). Lanes
    /// `1[d < 2^j]` for `j` in `1..=s` in one comparison batch at width
    /// `s + 2`, which covers `|d − 2^j| ≤ 2^s` for every `d ∈ [0, 2^s]`.
    /// With `zeros`, `d` may also be 0: the batch gains lane `j = 0`, and
    /// `⟨1[d = 0]⟩` comes back per element (the reciprocal of a zero is
    /// garbage); without, the flags are empty.
    pub fn recip_int_pending(
        &mut self,
        d: &[Share],
        bound: f64,
        zeros: bool,
    ) -> (Pending, Vec<Share>) {
        let n = d.len();
        if n == 0 {
            return (Pending::default(), Vec::new());
        }
        assert!(bound >= 1.0, "bound must cover the input range");
        let s = (bound.log2().ceil() as u32).max(1);
        let f = self.cfg.frac_bits;
        assert!(
            s + 1 + f < self.cfg.int_bits,
            "reciprocal bound 2^{s} too large for the fixed-point layout"
        );
        let party = self.party();
        let first = u32::from(!zeros);
        let mut batch = Vec::with_capacity(n * (s + 1 - first) as usize);
        for &x in d {
            for j in first..=s {
                batch.push(x.sub_public(party, Fp::pow2(j)));
            }
        }
        let bits = self.ltz_vec_bounded(&batch, s + 2);
        let zero_flags = if zeros {
            bits.iter().step_by(s as usize + 1).copied().collect()
        } else {
            Vec::new()
        };
        let fixed: Vec<Share> = d.iter().map(|&x| x.scale(Fp::pow2(f))).collect();
        (self.recip_tail(&fixed, &bits, s), zero_flags)
    }

    /// Shared Newton tail: normalization bits → oblivious scaling →
    /// iterated refinement → denormalization, up to the denormalizing
    /// truncation it returns pending. `d` is fixed-point at scale `2^f`;
    /// `bits` holds one equal-length row per element whose last `s` lanes
    /// are `b_j = 1[d_i < 2^(f+j+1)]`, `j = 0..s`.
    ///
    /// Ten products per element in ten rounds: every truncation but the
    /// last rides the opening of the product that reads it.
    fn recip_tail(&mut self, d: &[Share], bits: &[Share], s: u32) -> Pending {
        let party = self.party();
        let f = self.cfg.frac_bits;
        let n = d.len();

        // v = 2^z with z = Σ_j b_j. The b_j are monotone in j (a
        // thermometer code), so v = Σ_j (b_j − b_{j−1})·2^(s−j) +
        // (1 − b_{s−1}) = 1 + Σ_j b_j·2^(s−1−j): a local linear form.
        let lanes = bits.len() / n;
        let v: Vec<Share> = bits
            .chunks(lanes)
            .map(|row| {
                (0..s)
                    .zip(&row[lanes - s as usize..])
                    .fold(Share::from_public(party, Fp::ONE), |acc, (j, &b)| {
                        acc + b.scale(Fp::pow2(s - 1 - j))
                    })
            })
            .collect();

        // d_norm = d · 2^z / 2^(s+1) ∈ [1/2, 1), and w0 = 2.9142 − 2·d_norm
        // (standard linear estimate on [1/2, 1)): the first Newton
        // product d_norm·w0 reads the normalizing truncation on both sides.
        let dv = self.mul_vec(d, &v);
        let c_init = Share::from_public(party, self.cfg.encode(2.9142));
        let w0: Vec<Affine> = (0..n)
            .map(|lane| Affine {
                lane,
                alpha: Fp::from_i64(-2),
                beta: c_init,
            })
            .collect();
        let trunc = Affine::lanes(n);
        let (d_norm, mut dw) = self.trunc_mul_vec(&dv, s + 1, &trunc, &w0);
        let mut w: Vec<Share> = d_norm
            .iter()
            .map(|&dn| c_init - dn.scale(Fp::new(2)))
            .collect();

        // w ← w·(2 − d_norm·w), quadratic convergence. The truncation of
        // d_norm·w rides w·(2 − ·), and that product's truncation, the
        // next w, rides the next d_norm·w (the last one rides w·v).
        let two = Share::from_public(party, self.cfg.encode(2.0));
        let corr: Vec<Affine> = (0..n)
            .map(|lane| Affine {
                lane,
                alpha: Fp::from_i64(-1),
                beta: two,
            })
            .collect();
        let d_norm = Affine::shares(&d_norm);
        let mut wc = Vec::new();
        for iter in 0..NEWTON_ITERS {
            (_, wc) = self.trunc_mul_vec(&dw, f, &Affine::shares(&w), &corr);
            if iter + 1 < NEWTON_ITERS {
                (w, dw) = self.trunc_mul_vec(&wc, f, &d_norm, &trunc);
            }
        }

        // 1/d = (1/d_norm) · 2^z / 2^(s+1) = trunc(w · v, s+1).
        let (_, wv) = self.trunc_mul_vec(&wc, f, &trunc, &Affine::shares(&v));
        Pending { raw: wv, t: s + 1 }
    }

    /// Fixed-point division `a / b` for positive `b ∈ [1, bound]`.
    pub fn div_vec(&mut self, a: &[Share], b: &[Share], bound: f64) -> Vec<Share> {
        let recip = self.recip_pending(b, bound);
        let (_, q) = self.trunc_mul_vec(
            &recip.raw,
            recip.t,
            &Affine::shares(a),
            &Affine::lanes(a.len()),
        );
        self.trunc_vec(&q, self.cfg.frac_bits)
    }

    /// Secure exponential via the compound limit
    /// `e^x ≈ (1 + x/2^8)^(2^8)`, with inputs clamped to `[-8, 8]`.
    ///
    /// The clamp bound is a field-capacity constraint: the final squaring
    /// holds `≈ e^|x| · 2^2f` before truncation, and `e^8 · 2^40 ≈ 2^51`
    /// must stay well below `p ≈ 2^61`. Relative error is ≤ `e^(x²/512)`
    /// (≈13% at the clamp edge, <1% for |x| ≤ 2) — adequate for the secure
    /// softmax of §7.2 (probabilities, not gradients, are consumed).
    pub fn exp_vec(&mut self, x: &[Share]) -> Vec<Share> {
        self.exp_vec_impl(x, self.cfg.int_bits)
    }

    /// [`Self::exp_vec`] with a caller-proven input bound `|x| ≤ bound`
    /// (real value): the clamp comparisons run at the width the bound
    /// justifies instead of the full `int_bits`, cutting their bit cost.
    /// Results are identical — the clamp is exact at any proven width.
    pub fn exp_vec_clamped(&mut self, x: &[Share], bound: f64) -> Vec<Share> {
        let k = self.clamp_width(bound.abs() + 8.0);
        self.exp_vec_impl(x, k)
    }

    /// Comparison width justified by a real-valued magnitude bound on the
    /// clamp differences, never wider than the engine's default.
    fn clamp_width(&self, magnitude: f64) -> u32 {
        let mag = (magnitude.abs() * (1u64 << self.cfg.frac_bits) as f64).ceil() as u64;
        super::width_for_magnitude(mag).min(self.cfg.int_bits)
    }

    fn exp_vec_impl(&mut self, x: &[Share], k: u32) -> Vec<Share> {
        let n = x.len();
        if n == 0 {
            return Vec::new();
        }
        let party = self.party();
        // Clamp to [-8, 8] with two batched comparisons folded into one.
        let hi = self.constant_f64(8.0);
        let lo = self.constant_f64(-8.0);
        let mut batch = Vec::with_capacity(2 * n);
        for &v in x {
            batch.push(hi - v); // 1[hi < v] → too big
        }
        for &v in x {
            batch.push(v - lo); // 1[v < lo] → too small
        }
        let signs = self.ltz_vec_bounded(&batch, k);
        let mut conds = Vec::with_capacity(2 * n);
        let mut thens = Vec::with_capacity(2 * n);
        let mut elses = Vec::with_capacity(2 * n);
        for i in 0..n {
            conds.push(signs[i]);
            thens.push(hi);
            elses.push(x[i]);
        }
        let clamped_hi = self.select_vec(&conds, &thens, &elses);
        conds.clear();
        thens.clear();
        elses.clear();
        for (i, item) in clamped_hi.iter().enumerate() {
            conds.push(signs[n + i]);
            thens.push(lo);
            elses.push(*item);
        }
        let clamped = self.select_vec(&conds, &thens, &elses);

        // base = 1 + x/256, then square 8 times: each squaring reads the
        // truncation before it, so only the last truncation opens alone.
        let t = 8u32;
        let f = self.cfg.frac_bits;
        let one = Share::from_public(party, self.cfg.encode(1.0));
        let base: Vec<Affine> = (0..n)
            .map(|lane| Affine {
                lane,
                alpha: Fp::ONE,
                beta: one,
            })
            .collect();
        let (_, mut square) = self.trunc_mul_vec(&clamped, t, &base, &base);
        let acc = Affine::lanes(n);
        for _ in 1..t {
            (_, square) = self.trunc_mul_vec(&square, f, &acc, &acc);
        }
        self.trunc_vec(&square, f)
    }

    /// Secure natural log of `y ∈ (0, 1]` via the Mercator series
    /// `ln(1−z) = −Σ z^i/i` (degree 31, Horner). Accuracy degrades as
    /// `y → 0` (`z → 1`); used by the DP Laplace sampler where the tail
    /// shape, not exactness, matters (§9.2).
    pub fn ln_unit_vec(&mut self, y: &[Share]) -> Vec<Share> {
        let pending = self.ln_unit_pending(y);
        let total = self.settle(pending);
        total.into_iter().map(|v| -v).collect()
    }

    /// [`Self::ln_unit_vec`] before its last truncation: the log is the
    /// negated output of the returned truncation, which can ride a
    /// following product's opening.
    pub(crate) fn ln_unit_pending(&mut self, y: &[Share]) -> Pending {
        const TERMS: usize = 31;
        let n = y.len();
        if n == 0 {
            return Pending::default();
        }
        let party = self.party();
        let f = self.cfg.frac_bits;
        let one = self.cfg.encode(1.0);
        let z: Vec<Share> = y
            .iter()
            .map(|&v| Share::from_public(party, one) - v)
            .collect();
        // Horner: ln(1−z) = −z·(1 + z·(1/2 + z·(1/3 + …))). Each step's
        // accumulator is the last product's truncation plus a coefficient,
        // so the truncation rides the next product's opening.
        let acc: Vec<Share> = (0..n)
            .map(|_| self.constant_f64(1.0 / TERMS as f64))
            .collect();
        let mut raw = self.mul_vec(&acc, &z);
        let z = Affine::shares(&z);
        for i in (1..TERMS).rev() {
            let coeff = Share::from_public(party, self.cfg.encode(1.0 / i as f64));
            let acc: Vec<Affine> = (0..n)
                .map(|lane| Affine {
                    lane,
                    alpha: Fp::ONE,
                    beta: coeff,
                })
                .collect();
            (_, raw) = self.trunc_mul_vec(&raw, f, &acc, &z);
        }
        Pending { raw, t: f }
    }

    /// Secure softmax over a batch of `rows × classes` logits (row-major):
    /// the standard max-shift, exponential, and normalization — all secret
    /// shared (§7.2's "secure softmax").
    pub fn softmax_rows(&mut self, logits: &[Share], classes: usize) -> Vec<Share> {
        self.softmax_rows_impl(logits, classes, None)
    }

    /// [`Self::softmax_rows`] with a caller-proven logit bound
    /// `|logit| ≤ bound` (real value): the row-max tournament compares at
    /// the width a `2·bound` difference justifies, and the max-shifted
    /// exponentials clamp through [`Self::exp_vec_clamped`]. Identical
    /// probabilities, narrower comparisons.
    pub fn softmax_rows_clamped(
        &mut self,
        logits: &[Share],
        classes: usize,
        bound: f64,
    ) -> Vec<Share> {
        self.softmax_rows_impl(logits, classes, Some(bound.abs()))
    }

    fn softmax_rows_impl(
        &mut self,
        logits: &[Share],
        classes: usize,
        bound: Option<f64>,
    ) -> Vec<Share> {
        assert!(classes >= 1 && logits.len() % classes == 0);
        let rows = logits.len() / classes;
        if rows == 0 {
            return Vec::new();
        }
        // Row-wise max via tournament over columns (batched across rows).
        let mut cur: Vec<Vec<Share>> = (0..rows)
            .map(|r| logits[r * classes..(r + 1) * classes].to_vec())
            .collect();
        while cur[0].len() > 1 {
            let half = cur[0].len() / 2;
            let odd = cur[0].len() % 2 == 1;
            let mut a = Vec::with_capacity(rows * half);
            let mut b = Vec::with_capacity(rows * half);
            for row in &cur {
                for i in 0..half {
                    a.push(row[2 * i]);
                    b.push(row[2 * i + 1]);
                }
            }
            // Tournament operands are logits: |a − b| ≤ 2·bound.
            let k = bound.map_or(self.cfg.int_bits, |bd| self.clamp_width(2.0 * bd));
            let sel = self.lt_vec_bounded(&b, &a, k);
            let picked = self.select_vec(&sel, &a, &b);
            for (r, row) in cur.iter_mut().enumerate() {
                let mut next: Vec<Share> = picked[r * half..(r + 1) * half].to_vec();
                if odd {
                    next.push(*row.last().expect("odd element"));
                }
                *row = next;
            }
        }
        let maxes: Vec<Share> = cur.iter().map(|row| row[0]).collect();

        // Shift, exponentiate, normalize.
        let shifted: Vec<Share> = (0..rows)
            .flat_map(|r| {
                let m = maxes[r];
                logits[r * classes..(r + 1) * classes]
                    .iter()
                    .map(move |&v| v - m)
                    .collect::<Vec<_>>()
            })
            .collect();
        let exps = match bound {
            // After the max shift the inputs lie in [−2·bound, 0].
            Some(bd) => self.exp_vec_clamped(&shifted, 2.0 * bd),
            None => self.exp_vec(&shifted),
        };
        let sums: Vec<Share> = (0..rows)
            .map(|r| {
                exps[r * classes..(r + 1) * classes]
                    .iter()
                    .fold(Share::ZERO, |acc, &x| acc + x)
            })
            .collect();
        // Row sums lie in [≈1, classes] (the max contributes e^0 = 1).
        // Every exponential of a row reads its row's reciprocal.
        let recips = self.recip_pending(&sums, classes as f64 + 1.0);
        let rhs: Vec<Affine> = (0..rows * classes)
            .map(|i| Affine::lane(i / classes))
            .collect();
        let (_, scaled) = self.trunc_mul_vec(&recips.raw, recips.t, &Affine::shares(&exps), &rhs);
        self.trunc_vec(&scaled, self.cfg.frac_bits)
    }
}
