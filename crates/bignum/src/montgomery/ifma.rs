//! The radix-2^52 Montgomery kernel on AVX-512 IFMA.
//!
//! An element is `words` digits of 52 bits in the low bits of `u64`s,
//! `digits` of them significant and the rest zero up to a whole number of
//! 8-lane vectors. Its Montgomery form is `x·R mod m` with
//! `R = 2^(52·digits)`, kept *almost* reduced: every value a kernel call
//! returns is below `2m`, which is all the next call needs, because
//! `R > 4m`. Only [`Ifma52::leave`] reduces fully.
//!
//! A multiplication is digit-serial: for each digit `bᵢ` of `b` it adds
//! `a·bᵢ + m·y`, with `y` chosen to clear the lowest digit, and shifts the
//! sum down one digit. `vpmadd52luq` / `vpmadd52huq` add the low and high
//! 52 bits of eight digit products per instruction into 64-bit lanes, so
//! a lane absorbs a few thousand products before it can overflow and the
//! carries are propagated once per multiplication, not once per product.
//! Squaring is a multiplication.
//!
//! Every function that executes an IFMA instruction is
//! `#[target_feature(enable = "avx512f,avx512ifma")]` and is reached only
//! through an [`Ifma52`], which [`Ifma52::new`] builds only after
//! `is_x86_feature_detected!` has reported both features.

use super::{ge, pad, Form, Kernel, Montgomery};
use crate::{BigUint, Limb};
use std::arch::x86_64::*;

const DIGIT_BITS: u32 = 52;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;
/// Digits per 512-bit vector.
const LANES: usize = 8;
/// Narrowest modulus the kernel serves: the crossover, where its ladder
/// overtakes the 64-bit one even counting its context's construction (the
/// table in the `montgomery` module docs).
pub(super) const MIN_BITS: u32 = 448;
/// Widest element the kernel is instantiated for, in vectors: 160 digits,
/// an 8192-bit `N²` at keysize 4096.
const MAX_VECTORS: usize = 20;
/// Widest modulus the kernel serves: `R > 4m` must hold at 160 digits.
pub(super) const MAX_BITS: u32 = (MAX_VECTORS * LANES) as u32 * DIGIT_BITS - 2;

/// Whether this CPU executes the kernel.
pub(super) fn cpu_supported() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// `out = a·b·R⁻¹ (mod m)`, below `2m`, for `a, b < 2m`.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512ifma`.
type MulFn = unsafe fn(&Ifma52, &mut [u64], &[u64], &[u64]);

/// A radix-2^52 Montgomery context, built next to the 64-bit one of the
/// same modulus.
pub(super) struct Ifma52 {
    /// Significant digits: `R = 2^(52·digits)`, the smallest with `R > 4m`.
    digits: usize,
    /// Digits stored per element, a multiple of [`LANES`].
    words: usize,
    /// 64-bit limbs of the modulus.
    limbs: usize,
    m: Vec<u64>,
    /// `-m⁻¹ mod 2^52`.
    k0: u64,
    /// `R mod m`, the form of 1.
    one: Vec<u64>,
    /// `R² mod m`: multiplying a plain residue by it enters the form.
    r2: Vec<u64>,
    /// `R²·R₆₄⁻¹ mod m`, with `R₆₄ = 2^(64·limbs)`: multiplying a value in
    /// the 64-bit kernel's form by it enters this one.
    from_cios: Vec<u64>,
    /// `R₆₄ mod m`: multiplying by it leaves for the 64-bit kernel's form.
    to_cios: Vec<u64>,
    /// The digit 1: multiplying by it leaves the form.
    unit: Vec<u64>,
    mul: MulFn,
}

impl Ifma52 {
    /// The kernel for `cios`'s modulus, or `None` when this CPU lacks
    /// AVX-512 IFMA or the modulus is wider than [`MAX_BITS`].
    pub(super) fn new(cios: &Montgomery) -> Option<Ifma52> {
        let bits = cios.n.bits();
        if bits > MAX_BITS || !cpu_supported() {
            return None;
        }
        let digits = (bits as usize + 2).div_ceil(DIGIT_BITS as usize);
        let vectors = digits.div_ceil(LANES);
        let mul: MulFn = match vectors {
            1 => amm::<1>,
            2 => amm::<2>,
            3 => amm::<3>,
            4 => amm::<4>,
            5 => amm::<5>,
            6 => amm::<6>,
            7 => amm::<7>,
            8 => amm::<8>,
            9 => amm::<9>,
            10 => amm::<10>,
            11 => amm::<11>,
            12 => amm::<12>,
            13 => amm::<13>,
            14 => amm::<14>,
            15 => amm::<15>,
            16 => amm::<16>,
            17 => amm::<17>,
            18 => amm::<18>,
            19 => amm::<19>,
            20 => amm::<20>,
            _ => unreachable!("MAX_BITS bounds the vector count"),
        };
        let words = vectors * LANES;
        let n = &cios.n;
        let r = BigUint::pow2(DIGIT_BITS * digits as u32).rem_of(n);
        let r2 = (&r * &r).rem_of(n);
        let to_digits = |x: &BigUint| to_digits(&pad(x, cios.limbs), words);
        let mut unit = vec![0; words];
        unit[0] = 1;
        Some(Ifma52 {
            digits,
            words,
            limbs: cios.limbs,
            m: to_digits(n),
            k0: cios.n0_inv & DIGIT_MASK,
            one: to_digits(&r),
            from_cios: to_digits(&cios.from_mont(&pad(&r2, cios.limbs))),
            to_cios: to_digits(&BigUint::from_limbs(cios.r1.clone())),
            r2: to_digits(&r2),
            unit,
            mul,
        })
    }
}

impl Kernel for Ifma52 {
    fn words(&self) -> usize {
        self.words
    }

    fn scratch_words(&self) -> usize {
        0
    }

    fn one(&self) -> &[u64] {
        &self.one
    }

    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        // SAFETY: an `Ifma52` exists only where `new` saw `cpu_supported`,
        // and `mul` is the instantiation for this context's vector count.
        unsafe { (self.mul)(self, out, a, b) }
    }

    fn sqr(&self, out: &mut [u64], a: &[u64], _scratch: &mut [u64]) {
        self.mul(out, a, a);
    }

    fn enter(&self, out: &mut [u64], x: &[Limb], form: Form) {
        let factor = match form {
            Form::Plain => &self.r2,
            Form::Mont => &self.from_cios,
        };
        self.mul(out, &to_digits(x, self.words), factor);
    }

    fn leave(&self, x: &[u64], form: Form) -> Vec<Limb> {
        let factor = match form {
            Form::Plain => &self.unit,
            Form::Mont => &self.to_cios,
        };
        let mut t = vec![0; self.words];
        self.mul(&mut t, x, factor);
        if ge(&t, &self.m) {
            sub_digits(&mut t, &self.m);
        }
        from_digits(&t, self.limbs)
    }
}

/// `x`'s 64-bit limbs as `words` digits of 52 bits.
fn to_digits(x: &[Limb], words: usize) -> Vec<u64> {
    (0..words)
        .map(|d| {
            let (limb, shift) = (d * 52 / 64, (d * 52 % 64) as u32);
            let lo = x.get(limb).map_or(0, |&l| l >> shift);
            let hi = match (shift, x.get(limb + 1)) {
                (13.., Some(&l)) => l << (64 - shift),
                _ => 0,
            };
            (lo | hi) & DIGIT_MASK
        })
        .collect()
}

/// Normalised digits as `limbs` 64-bit limbs; the value must fit.
fn from_digits(digits: &[u64], limbs: usize) -> Vec<Limb> {
    let mut out = vec![0 as Limb; limbs];
    // Above the value's top limb only zero digits remain.
    for (d, &digit) in digits.iter().enumerate().filter(|(_, &digit)| digit != 0) {
        let (limb, shift) = (d * 52 / 64, (d * 52 % 64) as u32);
        let wide = (digit as u128) << shift;
        out[limb] |= wide as Limb;
        if wide >> 64 != 0 {
            out[limb + 1] |= (wide >> 64) as Limb;
        }
    }
    out
}

/// `a -= b` over normalised digits, for `a ≥ b`.
fn sub_digits(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0;
    for (x, &y) in a.iter_mut().zip(b) {
        let d = x.wrapping_sub(y).wrapping_sub(borrow);
        *x = d & DIGIT_MASK;
        borrow = d >> 63;
    }
    debug_assert_eq!(borrow, 0);
}

/// Almost Montgomery multiplication over `V` vectors: `out = a·b·R⁻¹ mod m`
/// up to one multiple of `m`, so below `2m` for `a, b < 2m`, with normalised
/// digits.
///
/// The running sum lives in `V` registers. A lane receives at most four
/// values below 2^52 per digit of `b` and is shifted out within `8V ≤ 160`
/// digits, so it stays below 2^62 and the lanes need no carries until
/// the end.
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm<const V: usize>(k: &Ifma52, out: &mut [u64], a: &[u64], b: &[u64]) {
    let w = V * LANES;
    let (out, a, b, m) = (&mut out[..w], &a[..w], &b[..k.digits], &k.m[..w]);
    let (mut av, mut mv) = ([_mm512_setzero_si512(); V], [_mm512_setzero_si512(); V]);
    for v in 0..V {
        let lanes = v * LANES..(v + 1) * LANES;
        // SAFETY: each slice is exactly 8 `u64`s, one unaligned 512-bit load.
        unsafe {
            av[v] = _mm512_loadu_si512(a[lanes.clone()].as_ptr().cast());
            mv[v] = _mm512_loadu_si512(m[lanes].as_ptr().cast());
        }
    }
    let zero = _mm512_setzero_si512();
    let mut acc = [zero; V];
    // The lowest digit of the sum lives here, in full, and lane 0 of
    // `acc[0]` is never read: `y`, the one serial dependency from digit to
    // digit, is then computed without a round trip through the vector unit.
    let mut low: u64 = 0;
    let (a0, m0) = (a[0] as u128, m[0] as u128);
    for &bi in b {
        let bv = _mm512_set1_epi64(bi as i64);
        for v in 0..V {
            acc[v] = _mm512_madd52lo_epu64(acc[v], av[v], bv);
        }
        // y clears the lowest digit: low + a₀·bᵢ + m₀·y ≡ 0 (mod 2^52).
        let t = low as u128 + a0 * bi as u128;
        let y = (t as u64).wrapping_mul(k.k0) & DIGIT_MASK;
        let yv = _mm512_set1_epi64(y as i64);
        for v in 0..V {
            acc[v] = _mm512_madd52lo_epu64(acc[v], mv[v], yv);
        }
        // The next lowest digit: lane 1 so far, plus the carry of the
        // cleared one, which includes the high halves of a₀·bᵢ and m₀·y.
        let t = t + m0 * y as u128;
        debug_assert_eq!(t as u64 & DIGIT_MASK, 0);
        let lane1 = _mm_extract_epi64::<1>(_mm512_castsi512_si128(acc[0])) as u64;
        low = (t >> DIGIT_BITS) as u64 + lane1;
        // Drop the cleared digit.
        for v in 0..V {
            let above = if v + 1 < V { acc[v + 1] } else { zero };
            acc[v] = _mm512_alignr_epi64::<1>(above, acc[v]);
        }
        // The high halves weigh one digit more, which the shift accounts
        // for (lane 0 receives those of a₀·bᵢ and m₀·y again, unread).
        for v in 0..V {
            acc[v] = _mm512_madd52hi_epu64(acc[v], av[v], bv);
            acc[v] = _mm512_madd52hi_epu64(acc[v], mv[v], yv);
        }
    }
    acc[0] = _mm512_mask_set1_epi64(acc[0], 1, low as i64);
    // Carry every lane's excess into the lane above until all are digits;
    // the second pass is needed only when a digit lands on 2^52 − 1 plus a
    // carry, and a third almost never.
    let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
    loop {
        let (mut below, mut over) = (zero, 0u8);
        for v in 0..V {
            let carry = _mm512_srli_epi64::<52>(acc[v]);
            let up = _mm512_alignr_epi64::<7>(carry, below);
            below = carry;
            acc[v] = _mm512_add_epi64(_mm512_and_si512(acc[v], mask), up);
            over |= _mm512_cmpgt_epu64_mask(acc[v], mask);
        }
        if over == 0 {
            break;
        }
    }
    for v in 0..V {
        // SAFETY: `out` is exactly `8V` `u64`s; one unaligned 512-bit store
        // into lanes `8v..8v + 8`.
        unsafe { _mm512_storeu_si512(out[v * LANES..(v + 1) * LANES].as_mut_ptr().cast(), acc[v]) };
    }
}
