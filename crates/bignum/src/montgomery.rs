//! Montgomery modular arithmetic — the hot path of every Paillier
//! operation. A [`Montgomery`] context precomputes everything needed for an
//! odd modulus and then multiplies and exponentiates without any division.
//!
//! Three kernels do all the work, each over caller-owned buffers:
//!
//! * `mul_into` — multiply and reduce fused into one pass per limb of `a`
//!   (finely integrated operand scanning): the row `aᵢ·b` and the row `m·n`
//!   that cancels its low limb are added in the same inner loop, on two
//!   carry chains that do not wait for each other. `2s²` limb products.
//! * `sqr_into` — a real squaring: the cross products `aᵢ·aⱼ, i < j` once,
//!   doubled, plus the diagonal `aᵢ²`, then one reduction pass. `1.5s²`.
//! * `redc_into` — the reduction pass alone (`s²`), which is also all that
//!   leaving Montgomery form costs.
//!
//! Every exponentiation runs on one [`Accumulator`] that owns its ping-pong
//! buffers and the squaring scratch, replaying an [`ExponentSchedule`]: a
//! ladder allocates its table of odd powers and nothing per step.
//! Results are fully reduced, so they do not depend on the window width or
//! on which kernel produced them.

use crate::{BigUint, Limb};
use std::borrow::Cow;

/// Precomputed Montgomery context for an odd modulus `n`.
///
/// Values in *Montgomery form* are stored as plain limb vectors of exactly
/// `limbs` words, representing `x·R mod n` with `R = 2^(64·limbs)`.
pub struct Montgomery {
    n: BigUint,
    /// `-n^{-1} mod 2^64`
    n0_inv: Limb,
    /// `R^2 mod n` (used to convert into Montgomery form).
    r2: Vec<Limb>,
    /// `R mod n` — the Montgomery form of 1.
    r1: Vec<Limb>,
    limbs: usize,
}

impl Montgomery {
    /// Build a context for an odd modulus. Panics if `n` is even or < 2.
    pub fn new(n: &BigUint) -> Montgomery {
        assert!(n.is_odd(), "Montgomery requires an odd modulus");
        assert!(!n.is_one(), "modulus must be > 1");
        let limbs = n.limbs().len();

        // n0_inv = -n^{-1} mod 2^64 via Newton–Hensel iteration.
        let n0 = n.limbs()[0];
        let mut inv: Limb = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R mod n and R² mod n by explicit division (one-time cost).
        let r = BigUint::pow2(64 * limbs as u32);
        let r1 = r.rem_of(n);
        let r2 = (&r1 * &r1).rem_of(n);

        Montgomery {
            n: n.clone(),
            n0_inv,
            r2: pad(&r2, limbs),
            r1: pad(&r1, limbs),
            limbs,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> BigUint {
        self.n.clone()
    }

    /// `x mod n` as exactly `limbs` words, borrowed when `x` already is.
    fn residue<'a>(&self, x: &'a BigUint) -> Cow<'a, [Limb]> {
        if *x >= self.n {
            Cow::Owned(pad(&x.rem_of(&self.n), self.limbs))
        } else if x.limbs().len() == self.limbs {
            Cow::Borrowed(x.limbs())
        } else {
            Cow::Owned(pad(x, self.limbs))
        }
    }

    /// Convert into Montgomery form (`x → x·R mod n`).
    pub fn to_mont(&self, x: &BigUint) -> Vec<Limb> {
        self.mont_mul(&self.residue(x), &self.r2)
    }

    /// Convert out of Montgomery form (`x·R → x mod n`): one reduction pass
    /// over `x` extended with zero high limbs.
    pub fn from_mont(&self, x: &[Limb]) -> BigUint {
        let s = self.limbs;
        let mut wide = vec![0 as Limb; 2 * s];
        wide[..s].copy_from_slice(x);
        let mut out = vec![0 as Limb; s];
        self.redc_into(&mut out, &mut wide);
        BigUint::from_limbs(out)
    }

    /// Montgomery multiplication into `out`: `a·b·R^{-1} mod n`.
    ///
    /// All three slices are `limbs` words long; `a` and `b` are reduced
    /// modulo `n`. Row `i` adds `aᵢ·b + m·n` to the running sum and drops
    /// its (now zero) low limb, so the sum never outgrows `out` plus the one
    /// bit kept in `hi`: it stays below `2n`.
    pub(crate) fn mul_into(&self, out: &mut [Limb], a: &[Limb], b: &[Limb]) {
        let s = self.limbs;
        assert_eq!(a.len(), s);
        // Equal lengths up front let the inner loop index without checks.
        let (out, b, n) = (&mut out[..s], &b[..s], &self.n.limbs()[..s]);
        out.fill(0);
        let mut hi: Limb = 0;
        for &ai in a {
            // m is chosen so that limb 0 of the row sum vanishes.
            let p = ai as u128 * b[0] as u128 + out[0] as u128;
            let m = (p as Limb).wrapping_mul(self.n0_inv);
            let q = m as u128 * n[0] as u128 + (p as Limb) as u128;
            debug_assert_eq!(q as Limb, 0);
            // One carry per product row; neither waits for the other.
            let (mut carry_ab, mut carry_mn) = ((p >> 64) as Limb, (q >> 64) as Limb);
            for j in 1..s {
                let p = ai as u128 * b[j] as u128 + out[j] as u128 + carry_ab as u128;
                let q = m as u128 * n[j] as u128 + (p as Limb) as u128 + carry_mn as u128;
                out[j - 1] = q as Limb;
                carry_ab = (p >> 64) as Limb;
                carry_mn = (q >> 64) as Limb;
            }
            let top = hi as u128 + carry_ab as u128 + carry_mn as u128;
            out[s - 1] = top as Limb;
            hi = (top >> 64) as Limb;
        }
        if hi != 0 || ge(out, n) {
            sub_in_place(out, n);
        }
    }

    /// Montgomery squaring into `out`: `a²·R^{-1} mod n`, with `wide` (at
    /// least `2·limbs` words) as scratch for the double-width square.
    pub(crate) fn sqr_into(&self, out: &mut [Limb], a: &[Limb], wide: &mut [Limb]) {
        let s = self.limbs;
        assert_eq!(a.len(), s);
        let wide = &mut wide[..2 * s];
        wide.fill(0);
        // Cross products aᵢ·aⱼ for i < j, each computed once. Row i covers
        // limbs 2i+1 ..= i+s-1 and its carry lands on limb i+s, which no
        // earlier row has touched.
        for i in 0..s {
            let ai = a[i];
            let mut carry: Limb = 0;
            for (w, &aj) in wide[2 * i + 1..i + s].iter_mut().zip(&a[i + 1..]) {
                let p = ai as u128 * aj as u128 + *w as u128 + carry as u128;
                *w = p as Limb;
                carry = (p >> 64) as Limb;
            }
            wide[i + s] = carry;
        }
        // Double them and add the diagonal aᵢ² (limbs 2i, 2i+1) in one pass.
        let mut shifted_out: Limb = 0;
        let mut carry: Limb = 0;
        for (pair, &ai) in wide.chunks_exact_mut(2).zip(a) {
            let sq = ai as u128 * ai as u128;
            let (lo, hi) = (pair[0], pair[1]);
            let lo2 = (lo << 1) | shifted_out;
            let hi2 = (hi << 1) | (lo >> 63);
            shifted_out = hi >> 63;
            let t = lo2 as u128 + (sq as Limb) as u128 + carry as u128;
            pair[0] = t as Limb;
            let t = hi2 as u128 + (sq >> 64) + (t >> 64);
            pair[1] = t as Limb;
            carry = (t >> 64) as Limb;
        }
        debug_assert_eq!((shifted_out, carry), (0, 0));
        self.redc_into(out, wide);
    }

    /// Montgomery reduction: `out = wide·R^{-1} mod n` for a `2·limbs`-word
    /// `wide < n·R`, which is consumed. Row `i` adds `m·n·2^{64i}` to clear
    /// limb `i`. Rows go two at a time — `m₀·n` and `m₁·n` one limb apart in
    /// the same inner loop, on their own carry chains, as in `mul_into` —
    /// with a single row left over when `limbs` is odd. The carry out of a
    /// row's top limb is the single bit `hi`, picked up by the next row.
    fn redc_into(&self, out: &mut [Limb], wide: &mut [Limb]) {
        let s = self.limbs;
        let n = &self.n.limbs()[..s];
        let wide = &mut wide[..2 * s];
        let mut hi: Limb = 0;
        let mut i = 0;
        while i + 1 < s {
            let w = &mut wide[i..i + s + 2];
            let m0 = w[0].wrapping_mul(self.n0_inv);
            let p = m0 as u128 * n[0] as u128 + w[0] as u128;
            let p = m0 as u128 * n[1] as u128 + w[1] as u128 + (p >> 64);
            // Limb 1 as row 0 leaves it decides row 1's multiplier.
            let m1 = (p as Limb).wrapping_mul(self.n0_inv);
            let q = m1 as u128 * n[0] as u128 + (p as Limb) as u128;
            let (mut carry0, mut carry1) = ((p >> 64) as Limb, (q >> 64) as Limb);
            for j in 2..s {
                let p = m0 as u128 * n[j] as u128 + w[j] as u128 + carry0 as u128;
                let q = m1 as u128 * n[j - 1] as u128 + (p as Limb) as u128 + carry1 as u128;
                w[j] = q as Limb;
                carry0 = (p >> 64) as Limb;
                carry1 = (q >> 64) as Limb;
            }
            let p = w[s] as u128 + carry0 as u128 + hi as u128;
            let q = m1 as u128 * n[s - 1] as u128 + (p as Limb) as u128 + carry1 as u128;
            w[s] = q as Limb;
            let top = w[s + 1] as u128 + (q >> 64) + (p >> 64);
            w[s + 1] = top as Limb;
            hi = (top >> 64) as Limb;
            i += 2;
        }
        if i < s {
            let m = wide[i].wrapping_mul(self.n0_inv);
            let mut carry: Limb = 0;
            for (w, &nj) in wide[i..i + s].iter_mut().zip(n) {
                let p = m as u128 * nj as u128 + *w as u128 + carry as u128;
                *w = p as Limb;
                carry = (p >> 64) as Limb;
            }
            let top = wide[i + s] as u128 + carry as u128 + hi as u128;
            wide[i + s] = top as Limb;
            hi = (top >> 64) as Limb;
        }
        let out = &mut out[..s];
        out.copy_from_slice(&wide[s..]);
        if hi != 0 || ge(out, n) {
            sub_in_place(out, n);
        }
    }

    /// Allocating form of the multiplication kernel: returns
    /// `a·b·R^{-1} mod n`.
    ///
    /// Inputs must be `limbs` words long and reduced modulo `n`.
    pub fn mont_mul(&self, a: &[Limb], b: &[Limb]) -> Vec<Limb> {
        let mut out = vec![0 as Limb; self.limbs];
        self.mul_into(&mut out, a, b);
        out
    }

    /// Allocating form of the squaring kernel: returns `a²·R^{-1} mod n`.
    pub fn mont_sqr(&self, a: &[Limb]) -> Vec<Limb> {
        let mut out = vec![0 as Limb; self.limbs];
        self.sqr_into(&mut out, a, &mut vec![0 as Limb; 2 * self.limbs]);
        out
    }

    /// `base^exp mod n` by sliding windows over Montgomery form.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.pow_scheduled(base, &ExponentSchedule::recode(exp))
    }

    /// Exponentiation where the base is already in Montgomery form; result
    /// is in Montgomery form too. Recodes `exp` and replays it — callers
    /// that reuse an exponent keep the [`ExponentSchedule`] instead.
    pub fn pow_mont(&self, base_m: &[Limb], exp: &BigUint) -> Vec<Limb> {
        self.pow_mont_scheduled(base_m, &ExponentSchedule::recode(exp))
    }

    /// Exponentiation by a *pre-recoded* exponent (see
    /// [`ExponentSchedule::recode`]), the one ladder of this crate.
    ///
    /// *Sliding* windows: only the odd powers `base^1, base^3, …` up to the
    /// largest digit the schedule references are tabulated, runs of zero
    /// exponent bits cost one squaring each with no multiplication, and
    /// every window is anchored on a set low bit, so there is one table
    /// multiplication per *occupied* window.
    pub fn pow_mont_scheduled(&self, base_m: &[Limb], sched: &ExponentSchedule) -> Vec<Limb> {
        let Some(first) = sched.first else {
            return self.r1.clone();
        };
        let s = self.limbs;
        let mut acc = Accumulator::new(self);
        // Odd powers base^(2k+1), k = 0..=max_index, laid out back to back.
        let mut odd_pow = vec![0 as Limb; (sched.max_index + 1) * s];
        odd_pow[..s].copy_from_slice(base_m);
        if sched.max_index > 0 {
            acc.set(base_m);
            acc.sqr();
            for k in 1..=sched.max_index {
                let (done, rest) = odd_pow.split_at_mut(k * s);
                self.mul_into(&mut rest[..s], &done[(k - 1) * s..], acc.value());
            }
        }
        let entry = |index: usize| &odd_pow[index * s..(index + 1) * s];
        acc.set(entry(first));
        for &(squarings, index) in &sched.steps {
            for _ in 0..squarings {
                acc.sqr();
            }
            acc.mul(entry(index));
        }
        for _ in 0..sched.tail {
            acc.sqr();
        }
        acc.into_value()
    }

    /// `base^exp mod n` through a precomputed [`ExponentSchedule`].
    pub fn pow_scheduled(&self, base: &BigUint, sched: &ExponentSchedule) -> BigUint {
        let base_m = self.to_mont(base);
        self.from_mont(&self.pow_mont_scheduled(&base_m, sched))
    }

    /// Modular multiplication convenience: `a·b mod n` on plain values,
    /// reduced or not.
    ///
    /// Two kernel calls: `a·b·R^{-1}`, then times `R²` to cancel the `R^{-1}`
    /// of both.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let ab = self.mont_mul(&self.residue(a), &self.residue(b));
        BigUint::from_limbs(self.mont_mul(&ab, &self.r2))
    }

    /// Simultaneous multi-exponentiation: `Π baseᵢ^expᵢ mod n` via
    /// interleaved k-ary windows (generalized Shamir's trick).
    ///
    /// One shared squaring chain serves every base — the per-bit squaring
    /// cost of `k` separate [`Montgomery::pow`] calls collapses to a single
    /// chain, with one table multiplication per non-zero window digit. The
    /// window width adapts to the largest exponent so short exponents (the
    /// Lagrange-coefficient case of threshold combination) skip table
    /// construction entirely. This is the hot path of
    /// `Combiner::combine`'s `Π cᵢ^{2λᵢ}` and of encrypted dot products
    /// with plaintext weights.
    pub fn multi_pow(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        // Drop exp = 0 terms (base^0 = 1 contributes nothing).
        let active: Vec<(&BigUint, &BigUint)> = pairs
            .iter()
            .filter(|(_, e)| !e.is_zero())
            .copied()
            .collect();
        let Some(max_bits) = active.iter().map(|(_, e)| e.bits()).max() else {
            return BigUint::one();
        };
        // Window width by exponent size: the 2^w − 2 table multiplications
        // per base must amortize over ⌈bits/w⌉ windows.
        let w: u32 = match max_bits {
            0..=32 => 1,
            33..=128 => 2,
            129..=384 => 3,
            _ => 4,
        };
        // Per-base powers base^1 .. base^(2^w − 1) in Montgomery form, all
        // tables back to back in one buffer.
        let s = self.limbs;
        let per_base = (1usize << w) - 1;
        let mut tables = vec![0 as Limb; active.len() * per_base * s];
        for (table, (base, _)) in tables.chunks_exact_mut(per_base * s).zip(&active) {
            self.mul_into(&mut table[..s], &self.residue(base), &self.r2);
            for d in 1..per_base {
                let (done, rest) = table.split_at_mut(d * s);
                self.mul_into(&mut rest[..s], &done[(d - 1) * s..], &done[..s]);
            }
        }

        let mut acc = Accumulator::new(self);
        let mut started = false;
        for wi in (0..max_bits.div_ceil(w)).rev() {
            if started {
                for _ in 0..w {
                    acc.sqr();
                }
            }
            for (i, (_, e)) in active.iter().enumerate() {
                let mut digit = 0usize;
                for b in (wi * w..(wi + 1) * w).rev() {
                    digit = (digit << 1) | usize::from(b < e.bits() && e.bit(b));
                }
                if digit != 0 {
                    let at = (i * per_base + digit - 1) * s;
                    let term = &tables[at..at + s];
                    if started {
                        acc.mul(term);
                    } else {
                        acc.set(term);
                        started = true;
                    }
                }
            }
        }
        // The top window holds the leading bit of the longest exponent.
        debug_assert!(started);
        self.from_mont(acc.value())
    }
}

/// The running value of a ladder together with every buffer a step needs:
/// each kernel call writes into `spare` and the two are swapped, so a whole
/// exponentiation allocates these three vectors once.
struct Accumulator<'a> {
    ctx: &'a Montgomery,
    value: Vec<Limb>,
    spare: Vec<Limb>,
    /// Double-width scratch of the squaring kernel.
    wide: Vec<Limb>,
}

impl<'a> Accumulator<'a> {
    fn new(ctx: &'a Montgomery) -> Self {
        let s = ctx.limbs;
        Accumulator {
            ctx,
            value: vec![0; s],
            spare: vec![0; s],
            wide: vec![0; 2 * s],
        }
    }

    fn set(&mut self, x: &[Limb]) {
        self.value.copy_from_slice(x);
    }

    fn sqr(&mut self) {
        self.ctx
            .sqr_into(&mut self.spare, &self.value, &mut self.wide);
        std::mem::swap(&mut self.value, &mut self.spare);
    }

    fn mul(&mut self, x: &[Limb]) {
        self.ctx.mul_into(&mut self.spare, &self.value, x);
        std::mem::swap(&mut self.value, &mut self.spare);
    }

    fn value(&self) -> &[Limb] {
        &self.value
    }

    fn into_value(self) -> Vec<Limb> {
        self.value
    }
}

/// Widest sliding window [`ExponentSchedule::recode`] picks: 32 odd powers,
/// 8 KiB of table at a 2048-bit modulus.
pub(crate) const MAX_WINDOW: u32 = 6;

/// A fixed exponent recoded once into a sliding-window operation sequence,
/// shareable across every exponentiation with that exponent (the
/// fixed-base-style precomputation of threshold decryption: the exponent
/// `2Δsᵢ` never changes, only the ciphertext base does).
#[derive(Clone, Debug)]
pub struct ExponentSchedule {
    /// Odd-power table index of the leading window (`digit >> 1`); `None`
    /// for the exponent zero, whose result is always 1.
    first: Option<usize>,
    /// Then, in order: square `squarings` times, multiply by table entry.
    /// Squarings for a run of zero bits are folded into the following
    /// window's count.
    steps: Vec<(u32, usize)>,
    /// Trailing squarings after the last multiply.
    tail: u32,
    /// Largest table index referenced (bounds table construction).
    max_index: usize,
}

impl ExponentSchedule {
    /// Recode an exponent into sliding windows anchored on set low bits.
    ///
    /// The window width is the one that minimises the expected number of
    /// multiplications for an exponent of this length — `2^(w−1)` to build
    /// the odd-power table plus one per `w + 1` bits: 3 bits for a 61-bit
    /// `mul_plain` factor, 5 at 512 bits, 6 for a 1024-bit `N` or the
    /// ≈ 2048-bit `2Δsᵢ`.
    pub fn recode(exp: &BigUint) -> ExponentSchedule {
        let bits = exp.bits();
        let window = (1..=MAX_WINDOW)
            .min_by_key(|w| (1u32 << (w - 1)) + bits / (w + 1))
            .expect("nonempty range");
        Self::recode_with_window(exp, window)
    }

    /// [`ExponentSchedule::recode`] at a given window width.
    pub(crate) fn recode_with_window(exp: &BigUint, window: u32) -> ExponentSchedule {
        assert!((1..=MAX_WINDOW).contains(&window));
        let mut first: Option<usize> = None;
        let mut steps = Vec::new();
        let mut pending_sq: u32 = 0;
        let mut max_index = 0usize;
        let mut i = exp.bits() as i64 - 1;
        while i >= 0 {
            if !exp.bit(i as u32) {
                pending_sq += 1;
                i -= 1;
                continue;
            }
            // Window of up to `window` bits, anchored on a set low bit j so
            // the digit is odd and lives in the table.
            let mut j = (i - (window as i64 - 1)).max(0);
            while !exp.bit(j as u32) {
                j += 1;
            }
            let width = (i - j + 1) as u32;
            let mut digit = 0usize;
            for b in (j..=i).rev() {
                digit = (digit << 1) | usize::from(exp.bit(b as u32));
            }
            debug_assert!(digit % 2 == 1 && digit < 1 << window);
            let index = digit >> 1;
            max_index = max_index.max(index);
            match first {
                // Scan starts at the set MSB, so no squarings precede the
                // leading window.
                None => first = Some(index),
                Some(_) => {
                    steps.push((pending_sq + width, index));
                    pending_sq = 0;
                }
            }
            i = j - 1;
        }
        ExponentSchedule {
            first,
            steps,
            tail: pending_sq,
            max_index,
        }
    }
}

/// `v` as exactly `limbs` little-endian words.
pub(crate) fn pad(v: &BigUint, limbs: usize) -> Vec<Limb> {
    let mut out = v.limbs().to_vec();
    out.resize(limbs, 0);
    out
}

/// `a >= b` over equal-length limb slices (little-endian).
fn ge(a: &[Limb], b: &[Limb]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` over equal-length limb slices, wrapping modulo `2^(64·len)` —
/// which is the true difference when the minuend's dropped high bit is set.
fn sub_in_place(a: &mut [Limb], b: &[Limb]) {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as Limb);
        *x = d;
        borrow = b1 | b2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mod_pow;
    use crate::proptests::naive_pow;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn round_trip_mont_form() {
        let n = big(1_000_000_007);
        let ctx = Montgomery::new(&n);
        for x in [0u128, 1, 2, 999_999_999, 123_456_789] {
            let m = ctx.to_mont(&big(x));
            assert_eq!(ctx.from_mont(&m), big(x), "round trip {x}");
        }
    }

    #[test]
    fn mul_matches_naive() {
        let n = big(0xffff_ffff_ffff_ffc5); // large odd (prime) modulus
        let ctx = Montgomery::new(&n);
        let a = big(0x1234_5678_9abc_def0);
        let b = big(0xfedc_ba98_7654_3210);
        assert_eq!(ctx.mul(&a, &b), (&a * &b).rem_of(&n));
    }

    #[test]
    fn pow_small_cases() {
        let n = big(97);
        let ctx = Montgomery::new(&n);
        assert_eq!(ctx.pow(&big(2), &big(0)), BigUint::one());
        assert_eq!(ctx.pow(&big(2), &big(1)), big(2));
        assert_eq!(ctx.pow(&big(2), &big(10)), big(1024 % 97));
        assert_eq!(ctx.pow(&big(0), &big(5)), BigUint::zero());
    }

    #[test]
    fn pow_matches_generic_mod_pow_multi_limb() {
        // Multi-limb odd modulus.
        let n =
            BigUint::from_hex("f123456789abcdef0123456789abcdef0123456789abcdef01234567_89abcdef")
                .unwrap();
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        let ctx = Montgomery::new(&n);
        let base = BigUint::from_hex("deadbeefcafebabe0123456789").unwrap();
        let exp = BigUint::from_hex("10001").unwrap();
        let reference = naive_pow(&base, &exp, &n);
        assert_eq!(ctx.pow(&base, &exp), reference);
        assert_eq!(mod_pow(&base, &exp, &n), reference);
    }

    #[test]
    fn sliding_window_handles_zero_runs_and_partial_windows() {
        let n = big(1_000_000_007);
        let ctx = Montgomery::new(&n);
        // Exponents chosen to hit: long zero runs between windows, windows
        // anchored mid-run, a trailing partial window, and all-ones.
        for exp in [
            0x8000_0000_0000_0001u128, // set MSB, 62 zeros, set LSB
            0x1111_1111_1111_1111,     // isolated bits 4 apart
            0xffff_ffff_ffff_ffff,     // saturated windows
            0b1011_0000_0000_0101,     // mixed widths across a gap
            3,
            16,
            31,
        ] {
            let exp = big(exp);
            let base = big(123_456_789);
            assert_eq!(
                ctx.pow(&base, &exp),
                naive_pow(&base, &exp, &n),
                "exp {exp:?}"
            );
        }
    }

    #[test]
    fn base_larger_than_modulus_is_reduced() {
        let n = big(1_000_003);
        let ctx = Montgomery::new(&n);
        let base = big(u128::MAX);
        assert_eq!(
            ctx.pow(&base, &big(3)),
            mod_pow(&base.rem_of(&n), &big(3), &n)
        );
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        Montgomery::new(&big(100));
    }

    #[test]
    fn scheduled_pow_matches_pow_mont() {
        let n =
            BigUint::from_hex("f123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap();
        let ctx = Montgomery::new(&n);
        let base = BigUint::from_hex("deadbeefcafebabe0123456789").unwrap();
        for exp in [
            BigUint::zero(),
            BigUint::one(),
            big(0x8000_0000_0000_0001),
            big(0x1111_1111_1111_1111),
            big(0xffff_ffff_ffff_ffff),
            big(0b1011_0000_0000_0101),
            big(16),
            BigUint::from_hex("2b7e151628aed2a6abf7158809cf4f3c762e7160f38b4da56a784d90").unwrap(),
        ] {
            let sched = ExponentSchedule::recode(&exp);
            assert_eq!(
                ctx.pow_scheduled(&base, &sched),
                naive_pow(&base, &exp, &n),
                "exp {exp:?}"
            );
        }
    }

    #[test]
    fn schedule_is_reusable_across_bases() {
        let n = big(1_000_000_007);
        let ctx = Montgomery::new(&n);
        let exp = big(0xdead_beef_1234);
        let sched = ExponentSchedule::recode(&exp);
        for b in [2u128, 3, 12345, 999_999_999] {
            assert_eq!(
                ctx.pow_scheduled(&big(b), &sched),
                naive_pow(&big(b), &exp, &n)
            );
        }
    }

    #[test]
    fn multi_pow_small_cases() {
        let n = big(1_000_000_007);
        let ctx = Montgomery::new(&n);
        // Empty product and all-zero exponents are 1.
        assert_eq!(ctx.multi_pow(&[]), BigUint::one());
        let (b, z) = (big(5), big(0));
        assert_eq!(ctx.multi_pow(&[(&b, &z)]), BigUint::one());
        // 2^10 · 3^4 · 5^0 = 1024 · 81.
        let pairs = [(big(2), big(10)), (big(3), big(4)), (big(5), big(0))];
        let refs: Vec<(&BigUint, &BigUint)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        assert_eq!(ctx.multi_pow(&refs), big(1024 * 81));
    }

    #[test]
    fn multi_pow_wide_exponents_match_pow_product() {
        // ≥385-bit exponents force the 4-bit window arm; cross-check the
        // shared-squaring chain against independent Montgomery::pow calls.
        let n =
            BigUint::from_hex("f123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap();
        let ctx = Montgomery::new(&n);
        let bases = [big(0xdead_beef), big(0x1234_5678_9abc), big(3)];
        let exps = [
            BigUint::from_hex(
                "8000000000000000000000000000000000000000000000000000000000000000\
                 0000000000000000000000000001",
            )
            .unwrap(),
            BigUint::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffff").unwrap(),
            big(1),
        ];
        let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exps).collect();
        let mut expect = BigUint::one();
        for (b, e) in &pairs {
            expect = ctx.mul(&expect, &ctx.pow(b, e));
        }
        assert_eq!(ctx.multi_pow(&pairs), expect);
    }
}
