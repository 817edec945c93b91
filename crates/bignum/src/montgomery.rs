//! Montgomery modular arithmetic — the hot path of every Paillier
//! operation. A [`Montgomery`] context precomputes everything needed for an
//! odd modulus and then multiplies and exponentiates without any division.
//!
//! # Two kernels
//!
//! The portable kernel works on 64-bit limbs, `R = 2^(64·limbs)`, and is
//! the public Montgomery form (`to_mont`, `from_mont`, `mont_mul`,
//! `mont_sqr`). Three routines do its work, each over caller-owned buffers:
//!
//! * `mul_into` — multiply and reduce fused into one pass per limb of `a`
//!   (finely integrated operand scanning): the row `aᵢ·b` and the row
//!   `m·n` that cancels its low limb are added in the same inner loop, on
//!   two carry chains that do not wait for each other. `2s²` limb products.
//! * `sqr_into` — a real squaring: the cross products `aᵢ·aⱼ, i < j` once,
//!   doubled, plus the diagonal `aᵢ²`, then one reduction pass. `1.5s²`.
//! * `redc_into` — the reduction pass alone (`s²`), which is also all that
//!   leaving Montgomery form costs.
//!
//! The second kernel (`montgomery/ifma.rs`) works on 52-bit digits with
//! AVX-512 IFMA, eight digit products per instruction, in a form of its own
//! that never leaves this module. [`Montgomery::new`] adds it when the CPU
//! reports `avx512f` and `avx512ifma` and the modulus has at least
//! `ifma::MIN_BITS` = 448 bits; those two facts are the whole rule, and
//! [`Montgomery::kernel_name`] reports it. The crossover was measured with
//! the `kernel_crossover` test (three runs on a 2-vCPU Sapphire Rapids VM,
//! fastest of five rounds each; ranges over the runs): the ladder is
//! `pow_scheduled` with an exponent of half the modulus width (the nonce
//! power `r^N` modulo `N²`), and "new + pow" builds a context and raises to
//! a full-width exponent, as prime search does once per candidate. The
//! pair columns come from three later runs of the same test on the same
//! kind of VM: the IFMA ladder's cost per exponentiation when
//! `pow_scheduled_batch` runs two bases as one interleaved pair, and its
//! speed-up over the single IFMA ladder of the same run.
//!
//! | modulus bits | portable ladder µs | IFMA ladder µs | ladder speed-up | new + pow speed-up | IFMA pair µs | pair speed-up |
//! |---|---|---|---|---|---|---|
//! | 256  | 8.3–12.2      | 8.6–9.6     | 0.97–1.27× | 0.91–0.94× | 4.9–5.3     | 1.58–1.68× |
//! | 320  | 13.5–24.8     | 13.6–15.1   | 0.99–1.64× | 0.97–1.35× | 7.9–8.9     | 1.56–1.77× |
//! | 384  | 20.7–22.4     | 17.9–18.3   | 1.15–1.23× | 1.11–1.67× | 10.8–11.1   | 1.62–1.73× |
//! | 448  | 32.1–55.0     | 25.1–26.6   | 1.23–2.20× | 1.21–1.94× | 13.5–16.1   | 1.59–1.88× |
//! | 512  | 52.4–76.6     | 31.1–32.1   | 1.68–2.41× | 1.42–2.27× | 17.5–19.4   | 1.61–1.67× |
//! | 1024 | 268–494       | 117–121     | 2.30–4.13× | 2.33–3.93× | 71–94       | 1.31–1.65× |
//! | 2048 | 1 971–2 294   | 521–563     | 3.65–4.14× | 3.92–4.63× | 297–368     | 1.33–1.45× |
//! | 4096 | 16 777–19 023 | 2 728–3 035 | 6.15–6.31× | 6.28–6.78× | 2 468–2 582 | 0.98–1.06× |
//!
//! From 448 bits up the IFMA kernel won every run in both columns by at
//! least 1.2×; at 256 and 320 bits it lost or tied once its context's
//! construction counted. Below the crossover `new` builds the portable
//! kernel alone and computes nothing extra.
//!
//! # One ladder, run by groups
//!
//! Every exponentiation — [`Montgomery::pow_mont_scheduled`] and, on top
//! of it, `pow`, `pow_mont`, `pow_scheduled`,
//! [`Montgomery::pow_scheduled_batch`] and [`Montgomery::multi_pow`] — is
//! written once over the [`Kernel`] interface and replayed on the selected
//! kernel: the base enters the kernel's form once, and the result leaves
//! it fully reduced, so results do not depend on the window width, on
//! which kernel produced them, or on the group they ran in. Each ladder
//! runs on one [`Accumulator`] that owns its ping-pong buffers and the
//! kernel's scratch, replaying an [`ExponentSchedule`]: a ladder allocates
//! its table of odd powers and nothing per step.
//!
//! `replay` advances a *group* of bases through one schedule. The group's
//! members sit back to back in the accumulator and in every entry of the
//! odd-power table, so a step is one call of the kernel's group multiply
//! or group square. A single exponentiation is the group of one;
//! `pow_scheduled_batch`, the nonce powers and partial decryptions of a
//! Paillier batch, runs groups of two. The portable kernel's group
//! operations are one call per member, so a pair costs it two single
//! ladders. The IFMA kernel interleaves a pair's two digit-serial products
//! in one `amm::<V, 2>`: its ladder is latency-bound, one serial `y` chain
//! per digit, and the second chain fills issue slots the first leaves idle.
//! The "pair" columns of the table below time that, per exponentiation.
//! The gain shrinks with width as the pair's registers spill (two
//! products need `5V` vector registers of the 32): 1.16× at 3072 bits in
//! one run, none at 4096. In a scratch prototype groups of three and four
//! were no faster than pairs, and a naive eight-lane transposed layout
//! (digit j of eight bases in one register) ran at 0.86–1.11× of single
//! ladders: its 40 digit accumulators spill out of the 32 registers.
//!
//! # Products
//!
//! [`Montgomery::product`], and [`Montgomery::mul`] as its product of two,
//! runs on the selected kernel as well, without entering its factors into
//! the form: each factor is loaded as it is (a copy on the portable kernel,
//! a change of radix on IFMA), and a kernel multiplication of two plain
//! residues is their product times `R^{−1}`. So a chain of `k` factors
//! pays `k − 1` multiplications and ends short of `R^{k−1}`, and one
//! multiplication by `R^k mod n` — the kernel form of `R^{k−1}`, a ladder
//! of O(log k) steps from the form of `R`, `R² mod n` itself for two
//! factors — restores it. A Paillier sum of `k` ciphertexts thus costs `k`
//! kernel multiplications.

use crate::{BigUint, Limb};
use std::borrow::{Borrow, Cow};

#[cfg(target_arch = "x86_64")]
mod ifma;

/// `$body` with `$k` bound to the kernel context `$ctx` selected: its
/// radix-2^52 kernel if it has one, else the context itself.
macro_rules! on_kernel {
    ($ctx:expr, |$k:ident| $body:expr) => {{
        #[cfg(target_arch = "x86_64")]
        let ifma = $ctx.ifma.as_deref();
        #[cfg(not(target_arch = "x86_64"))]
        let ifma: Option<&Montgomery> = None;
        match ifma {
            Some($k) => $body,
            None => {
                let $k = $ctx;
                $body
            }
        }
    }};
}

/// The selection rule of [`Montgomery::new`]: only the CPU's feature bits
/// and the modulus width decide.
#[cfg(target_arch = "x86_64")]
fn selects_ifma(bits: u32) -> bool {
    (ifma::MIN_BITS..=ifma::MAX_BITS).contains(&bits) && ifma::cpu_supported()
}

#[cfg(not(target_arch = "x86_64"))]
fn selects_ifma(_bits: u32) -> bool {
    false
}

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
    /// The radix-2^52 kernel every exponentiation replays on, when
    /// [`Montgomery::kernel_name`] selects it.
    #[cfg(target_arch = "x86_64")]
    ifma: Option<Box<ifma::Ifma52>>,
}

impl Montgomery {
    /// Build a context for an odd modulus. Panics if `n` is even or < 2.
    pub fn new(n: &BigUint) -> Montgomery {
        let ctx = Self::portable(n);
        #[cfg(target_arch = "x86_64")]
        if selects_ifma(n.bits()) {
            return ctx.with_ifma();
        }
        ctx
    }

    /// The kernel exponentiations modulo a `bits`-bit modulus run on in
    /// this process: `"ifma52"`, the radix-2^52 AVX-512 IFMA kernel, when
    /// the CPU reports `avx512f` and `avx512ifma` and the modulus has at
    /// least the crossover width, else `"cios64"`, the portable one.
    pub fn kernel_name(bits: u32) -> &'static str {
        if selects_ifma(bits) {
            "ifma52"
        } else {
            "cios64"
        }
    }

    /// The context on the portable kernel alone, whatever the CPU.
    pub(crate) fn portable(n: &BigUint) -> Montgomery {
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
            #[cfg(target_arch = "x86_64")]
            ifma: None,
        }
    }

    /// This context with the radix-2^52 kernel added, where the CPU has it.
    #[cfg(target_arch = "x86_64")]
    fn with_ifma(self) -> Montgomery {
        let ifma = ifma::Ifma52::new(&self).map(Box::new);
        Montgomery { ifma, ..self }
    }

    /// The context on the radix-2^52 kernel at any width it serves, or
    /// `None` where the CPU lacks AVX-512 IFMA.
    #[cfg(test)]
    pub(crate) fn ifma(n: &BigUint) -> Option<Montgomery> {
        let ctx = Self::portable(n);
        #[cfg(target_arch = "x86_64")]
        let ctx = ctx.with_ifma();
        Some(ctx).filter(|ctx| ctx.kernel() == "ifma52")
    }

    /// The kernel this context's exponentiations run on.
    #[cfg(test)]
    pub(crate) fn kernel(&self) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if self.ifma.is_some() {
            return "ifma52";
        }
        "cios64"
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
        BigUint::from_limbs(self.leave(x, Form::Plain))
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
    /// [`ExponentSchedule::recode`]), with base and result in Montgomery
    /// form, replayed by `replay` on the selected kernel.
    pub fn pow_mont_scheduled(&self, base_m: &[Limb], sched: &ExponentSchedule) -> Vec<Limb> {
        assert_eq!(base_m.len(), self.limbs);
        let [power] = on_kernel!(self, |k| replay(k, [base_m], Form::Mont, sched));
        power
    }

    /// `base^exp mod n` through a precomputed [`ExponentSchedule`]: the
    /// group of one of [`Montgomery::pow_scheduled_batch`].
    pub fn pow_scheduled(&self, base: &BigUint, sched: &ExponentSchedule) -> BigUint {
        let base = self.residue(base);
        let [power] = on_kernel!(self, |k| replay(k, [&base[..]], Form::Plain, sched));
        BigUint::from_limbs(power)
    }

    /// `baseᵢ^exp mod n` for every base of a batch through one
    /// [`ExponentSchedule`], equal to [`Montgomery::pow_scheduled`] per
    /// base. The bases run in pairs, each pair advancing through the ladder
    /// together: on the IFMA kernel a step is one interleaved product of
    /// both members, whose serial digit chains hide each other's latency
    /// (1.3–1.9× the throughput of single ladders from 256 to 2048 bits,
    /// the table in the module docs); on the portable kernel it is one
    /// product per member.
    pub fn pow_scheduled_batch<B: Borrow<BigUint>>(
        &self,
        bases: &[B],
        sched: &ExponentSchedule,
    ) -> Vec<BigUint> {
        let residues: Vec<Cow<[Limb]>> = bases.iter().map(|b| self.residue(b.borrow())).collect();
        let mut out = Vec::with_capacity(bases.len());
        let mut pairs = residues.chunks_exact(2);
        for pair in pairs.by_ref() {
            let group = [&pair[0][..], &pair[1][..]];
            out.extend(on_kernel!(self, |k| replay(k, group, Form::Plain, sched)));
        }
        if let [last] = pairs.remainder() {
            let group = [&last[..]];
            out.extend(on_kernel!(self, |k| replay(k, group, Form::Plain, sched)));
        }
        out.into_iter().map(BigUint::from_limbs).collect()
    }

    /// Modular multiplication convenience: `a·b mod n` on plain values,
    /// reduced or not — the [`Montgomery::product`] of two.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.product([a, b])
    }

    /// `Π xᵢ mod n` over factors reduced or not, on the selected kernel;
    /// the empty product is 1. Two or more factors cost one kernel
    /// multiplication each and no conversion ("Products" in the module
    /// docs); the product of two needs no ladder step.
    pub fn product<'a>(&self, factors: impl IntoIterator<Item = &'a BigUint>) -> BigUint {
        let residues = factors.into_iter().map(|x| self.residue(x));
        on_kernel!(self, |k| chain(k, residues)).map_or_else(BigUint::one, BigUint::from_limbs)
    }

    /// Simultaneous multi-exponentiation: `Π baseᵢ^expᵢ mod n` via
    /// interleaved k-ary windows (generalized Shamir's trick), on the
    /// selected kernel.
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
        let active: Vec<(Cow<[Limb]>, &BigUint)> = pairs
            .iter()
            .filter(|(_, e)| !e.is_zero())
            .map(|&(b, e)| (self.residue(b), e))
            .collect();
        if active.is_empty() {
            return BigUint::one();
        }
        BigUint::from_limbs(on_kernel!(self, |k| interleave(k, &active)))
    }
}

/// Which Montgomery form a ladder's input and output are in.
#[derive(Clone, Copy)]
enum Form {
    /// A plain residue below `n`.
    Plain,
    /// The public form: `x·2^(64·limbs) mod n`, as the 64-bit kernel keeps it.
    Mont,
}

/// What a ladder needs from a Montgomery kernel. An element is
/// [`Kernel::words`] `u64`s in the kernel's own Montgomery form; values
/// cross into and out of it only through `enter` and `leave`.
trait Kernel {
    /// `u64`s per element.
    fn words(&self) -> usize;
    /// Scratch words [`Kernel::sqr`] needs.
    fn scratch_words(&self) -> usize;
    /// The form of 1.
    fn one(&self) -> &[u64];
    /// The form of `R`, which is `R² mod n`.
    fn r2(&self) -> &[u64];
    /// `out = a·b`, in the form.
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]);
    /// `out = a²`, in the form.
    fn sqr(&self, out: &mut [u64], a: &[u64], scratch: &mut [u64]);
    /// The group multiply: `a`, `b` and `out` hold the same number of
    /// elements back to back, and every member of `out` is the product of
    /// the members of `a` and `b` at its position. One `mul` per member
    /// unless the kernel interleaves them.
    fn mul_group(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let w = self.words();
        for ((out, a), b) in out
            .chunks_exact_mut(w)
            .zip(a.chunks_exact(w))
            .zip(b.chunks_exact(w))
        {
            self.mul(out, a, b);
        }
    }
    /// The group square: every member of `out` is the square of the
    /// member of `a` at its position. One `sqr` per member unless the
    /// kernel interleaves them.
    fn sqr_group(&self, out: &mut [u64], a: &[u64], scratch: &mut [u64]) {
        let w = self.words();
        for (out, a) in out.chunks_exact_mut(w).zip(a.chunks_exact(w)) {
            self.sqr(out, a, scratch);
        }
    }
    /// `x`, `limbs` words in `form`, into the kernel's form.
    fn enter(&self, out: &mut [u64], x: &[Limb], form: Form);
    /// `x` out of the kernel's form into `form`, fully reduced, as `limbs`
    /// words.
    fn leave(&self, x: &[u64], form: Form) -> Vec<Limb>;
    /// A residue, `limbs` words below `n`, as the kernel's element of the
    /// same integer, without a multiplication: the integer `x` is then the
    /// form of `x·R^{−1}`.
    fn load(&self, out: &mut [u64], x: &[Limb]);
    /// The integer an element holds, fully reduced, as `limbs` words —
    /// [`Kernel::load`] reversed, without a multiplication.
    fn store(&self, x: &[u64]) -> Vec<Limb>;
}

/// The 64-bit CIOS kernel, whose form is the public one.
impl Kernel for Montgomery {
    fn words(&self) -> usize {
        self.limbs
    }

    fn scratch_words(&self) -> usize {
        2 * self.limbs
    }

    fn one(&self) -> &[u64] {
        &self.r1
    }

    fn r2(&self) -> &[u64] {
        &self.r2
    }

    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        self.mul_into(out, a, b);
    }

    fn sqr(&self, out: &mut [u64], a: &[u64], scratch: &mut [u64]) {
        self.sqr_into(out, a, scratch);
    }

    fn enter(&self, out: &mut [u64], x: &[Limb], form: Form) {
        match form {
            Form::Plain => self.mul_into(out, x, &self.r2),
            Form::Mont => out.copy_from_slice(x),
        }
    }

    /// Leaving for the plain form is one reduction pass over `x` extended
    /// with zero high limbs.
    fn leave(&self, x: &[u64], form: Form) -> Vec<Limb> {
        let s = self.limbs;
        match form {
            Form::Plain => {
                let mut wide = vec![0 as Limb; 2 * s];
                wide[..s].copy_from_slice(x);
                let mut out = vec![0 as Limb; s];
                self.redc_into(&mut out, &mut wide);
                out
            }
            Form::Mont => x.to_vec(),
        }
    }

    fn load(&self, out: &mut [u64], x: &[Limb]) {
        out.copy_from_slice(x);
    }

    /// Every kernel call reduces fully, so an element is its residue.
    fn store(&self, x: &[u64]) -> Vec<Limb> {
        x.to_vec()
    }
}

/// The chain of [`Montgomery::product`] on kernel `k` over residues of
/// `limbs` words: `Π xᵢ` as `limbs` words, `None` for no factor.
fn chain<'a, K: Kernel>(
    k: &K,
    factors: impl Iterator<Item = Cow<'a, [Limb]>>,
) -> Option<Vec<Limb>> {
    let mut acc = Accumulator::new(k, 1);
    let mut factor = vec![0; k.words()];
    let mut count = 0u64;
    for x in factors {
        if count == 0 {
            k.load(&mut acc.value, &x);
        } else {
            k.load(&mut factor, &x);
            acc.mul(&factor);
        }
        count += 1;
    }
    if count == 0 {
        return None;
    }
    if count > 1 {
        // The kernel form of R^(k−1) is the integer R^k mod n.
        let sched = ExponentSchedule::recode(&BigUint::from_u64(count - 1));
        let cancel = ladder(k, k.r2().to_vec(), &sched);
        acc.mul(cancel.value());
    }
    Some(k.store(acc.value()))
}

/// The one sliding-window ladder: `baseᵍ^exp` for every base of a group
/// of `G`, bases and results in `form`, replaying `sched` on kernel `k`.
/// `pow_scheduled` is the group of one.
fn replay<K: Kernel, const G: usize>(
    k: &K,
    bases: [&[Limb]; G],
    form: Form,
    sched: &ExponentSchedule,
) -> [Vec<Limb>; G] {
    if sched.first.is_none() {
        return bases.map(|_| k.leave(k.one(), form));
    }
    let w = k.words();
    let mut entered = vec![0; G * w];
    for (slot, base) in entered.chunks_exact_mut(w).zip(bases) {
        k.enter(slot, base, form);
    }
    let acc = ladder(k, entered, sched);
    let mut members = acc.value().chunks_exact(w);
    bases.map(|_| k.leave(members.next().expect("G members"), form))
}

/// [`replay`]'s ladder within the kernel's form: every member of
/// `entered`, a group of elements back to back, raised to the schedule's
/// exponent, which is not zero. The members advance in lockstep — one
/// group square or group multiply per step — through one schedule, so a
/// step is one kernel call whatever the group's size.
///
/// *Sliding* windows: only the odd powers `base^1, base^3, …` up to the
/// largest digit the schedule references are tabulated, runs of zero
/// exponent bits cost one squaring each with no multiplication, and every
/// window is anchored on a set low bit, so there is one table
/// multiplication per *occupied* window.
fn ladder<'a, K: Kernel>(
    k: &'a K,
    entered: Vec<u64>,
    sched: &ExponentSchedule,
) -> Accumulator<'a, K> {
    let first = sched.first.expect("the ladder runs a nonzero exponent");
    let group = entered.len();
    let mut acc = Accumulator::new(k, group / k.words());
    // Odd powers base^(2i+1), i = 0..=max_index, laid out back to back, each
    // entry the group's members back to back: entry i is one group operand.
    let mut odd_pow = entered;
    odd_pow.resize((sched.max_index + 1) * group, 0);
    if sched.max_index > 0 {
        acc.set(&odd_pow[..group]);
        acc.sqr();
        for i in 1..=sched.max_index {
            let (done, rest) = odd_pow.split_at_mut(i * group);
            k.mul_group(&mut rest[..group], &done[(i - 1) * group..], acc.value());
        }
    }
    let entry = |index: usize| &odd_pow[index * group..(index + 1) * group];
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
    acc
}

/// The interleaved-window ladder of [`Montgomery::multi_pow`] on kernel
/// `k`: `Π baseᵢ^expᵢ` over residues and nonzero exponents, plain.
fn interleave<K: Kernel>(k: &K, active: &[(Cow<[Limb]>, &BigUint)]) -> Vec<Limb> {
    let max_bits = active.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
    // Window width by exponent size: the 2^w − 2 table multiplications
    // per base must amortize over ⌈bits/w⌉ windows.
    let w: u32 = match max_bits {
        0..=32 => 1,
        33..=128 => 2,
        129..=384 => 3,
        _ => 4,
    };
    // Per-base powers base^1 .. base^(2^w − 1) in the kernel's form, all
    // tables back to back in one buffer.
    let s = k.words();
    let per_base = (1usize << w) - 1;
    let mut tables = vec![0; active.len() * per_base * s];
    for (table, (base, _)) in tables.chunks_exact_mut(per_base * s).zip(active) {
        k.enter(&mut table[..s], base, Form::Plain);
        for d in 1..per_base {
            let (done, rest) = table.split_at_mut(d * s);
            k.mul(&mut rest[..s], &done[(d - 1) * s..], &done[..s]);
        }
    }

    let mut acc = Accumulator::new(k, 1);
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
    k.leave(acc.value(), Form::Plain)
}

/// The running values of a group of ladders together with every buffer a
/// step needs: each kernel call writes into `spare` and the two are
/// swapped, so a whole exponentiation allocates these three vectors once.
struct Accumulator<'a, K: Kernel> {
    k: &'a K,
    /// The group's members back to back.
    value: Vec<u64>,
    spare: Vec<u64>,
    /// Scratch of the squaring kernel.
    scratch: Vec<u64>,
}

impl<'a, K: Kernel> Accumulator<'a, K> {
    fn new(k: &'a K, members: usize) -> Self {
        Accumulator {
            k,
            value: vec![0; members * k.words()],
            spare: vec![0; members * k.words()],
            scratch: vec![0; k.scratch_words()],
        }
    }

    fn set(&mut self, x: &[u64]) {
        self.value.copy_from_slice(x);
    }

    fn sqr(&mut self) {
        self.k
            .sqr_group(&mut self.spare, &self.value, &mut self.scratch);
        std::mem::swap(&mut self.value, &mut self.spare);
    }

    fn mul(&mut self, x: &[u64]) {
        self.k.mul_group(&mut self.spare, &self.value, x);
        std::mem::swap(&mut self.value, &mut self.spare);
    }

    fn value(&self) -> &[u64] {
        &self.value
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
