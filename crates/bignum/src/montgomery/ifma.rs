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

/// `out = a·b·R⁻¹ (mod m)`, below `2m`, for `a, b < 2m`, member by member
/// over a group of one or two elements back to back.
///
/// # Safety
///
/// The CPU must support `avx512f` and `avx512ifma`.
type MulFn = unsafe fn(&Ifma52, &mut [u64], &[u64], &[u64]);

/// The widest group [`amm`] is instantiated for: two products interleaved
/// fill most of the idle issue slots one serial digit chain leaves, and
/// three or four were no faster in a scratch prototype.
const GROUP: usize = 2;

/// `[amm::<V, 1>, amm::<V, 2>]` for the context's vector count `V`.
macro_rules! amm_table {
    ($vectors:expr; $($v:literal)+) => {
        match $vectors {
            $($v => [amm::<$v, 1> as MulFn, amm::<$v, 2>],)+
            _ => unreachable!("MAX_BITS bounds the vector count"),
        }
    };
}

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
    /// `muls[g − 1]` multiplies a group of `g`.
    muls: [MulFn; GROUP],
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
        let muls = amm_table!(vectors; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20);
        let words = vectors * LANES;
        let n = &cios.n;
        let r = BigUint::pow2(DIGIT_BITS * digits as u32).rem_of(n);
        let r2 = (&r * &r).rem_of(n);
        let to_digits = |x: &BigUint| {
            let mut digits = vec![0; words];
            to_digits(&mut digits, &pad(x, cios.limbs));
            digits
        };
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
            muls,
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

    fn r2(&self) -> &[u64] {
        &self.r2
    }

    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        // SAFETY: an `Ifma52` exists only where `new` saw `cpu_supported`,
        // and `muls` holds the instantiations for this context's vector
        // count.
        unsafe { (self.muls[0])(self, out, a, b) }
    }

    fn sqr(&self, out: &mut [u64], a: &[u64], _scratch: &mut [u64]) {
        self.mul(out, a, a);
    }

    /// Pairs of members run as one interleaved [`amm`], an odd last
    /// member alone.
    fn mul_group(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let span = GROUP * self.words;
        for ((out, a), b) in out.chunks_mut(span).zip(a.chunks(span)).zip(b.chunks(span)) {
            let members = out.len() / self.words;
            // SAFETY: as in `mul`; `muls[members − 1]` takes `members`
            // elements and every chunk holds that many.
            unsafe { (self.muls[members - 1])(self, out, a, b) }
        }
    }

    fn sqr_group(&self, out: &mut [u64], a: &[u64], _scratch: &mut [u64]) {
        self.mul_group(out, a, a);
    }

    fn enter(&self, out: &mut [u64], x: &[Limb], form: Form) {
        let factor = match form {
            Form::Plain => &self.r2,
            Form::Mont => &self.from_cios,
        };
        let mut digits = vec![0; self.words];
        self.load(&mut digits, x);
        self.mul(out, &digits, factor);
    }

    fn leave(&self, x: &[u64], form: Form) -> Vec<Limb> {
        let factor = match form {
            Form::Plain => &self.unit,
            Form::Mont => &self.to_cios,
        };
        let mut t = vec![0; self.words];
        self.mul(&mut t, x, factor);
        self.store(&t)
    }

    fn load(&self, out: &mut [u64], x: &[Limb]) {
        to_digits(out, x);
    }

    /// An element is below `2m`: one subtraction reduces it.
    fn store(&self, x: &[u64]) -> Vec<Limb> {
        let mut t = x.to_vec();
        if ge(&t, &self.m) {
            sub_digits(&mut t, &self.m);
        }
        from_digits(&t, self.limbs)
    }
}

/// `x`'s 64-bit limbs as the digits of 52 bits that fill `out`.
fn to_digits(out: &mut [u64], x: &[Limb]) {
    for (d, digit) in out.iter_mut().enumerate() {
        let (limb, shift) = (d * 52 / 64, (d * 52 % 64) as u32);
        let lo = x.get(limb).map_or(0, |&l| l >> shift);
        let hi = match (shift, x.get(limb + 1)) {
            (13.., Some(&l)) => l << (64 - shift),
            _ => 0,
        };
        *digit = (lo | hi) & DIGIT_MASK;
    }
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

/// Almost Montgomery multiplication over `V` vectors, for a group of `G`
/// independent products: member `g` of `out` is `a_g·b_g·R⁻¹ mod m` up to
/// one multiple of `m`, so below `2m` for `a_g, b_g < 2m`, with normalised
/// digits. Member `g` of each operand is the `8V` words from `8V·g`.
///
/// Each member keeps its own running sum in `V` registers and its own `y`
/// chain, the one serial dependency from digit to digit (a scalar multiply,
/// a broadcast, an IFMA and a lane extract: ≈ 27 cycles, against ≈ 10 of
/// IFMA work at 2048 bits). The members' chains are independent, so with
/// `G = 2` one member's IFMAs issue while the other's `y` is in flight.
/// `G = 1` is the single product.
///
/// A lane receives at most four values below 2^52 per digit of `b` and is
/// shifted out within `8V ≤ 160` digits, so it stays below 2^62 and the
/// lanes need no carries until the end.
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm<const V: usize, const G: usize>(k: &Ifma52, out: &mut [u64], a: &[u64], b: &[u64]) {
    let w = V * LANES;
    let (out, a, b, m) = (&mut out[..G * w], &a[..G * w], &b[..G * w], &k.m[..w]);
    let zero = _mm512_setzero_si512();
    let (mut av, mut mv) = ([[zero; V]; G], [zero; V]);
    for v in 0..V {
        // SAFETY: each slice is exactly 8 `u64`s, one unaligned 512-bit load.
        unsafe {
            mv[v] = _mm512_loadu_si512(m[v * LANES..(v + 1) * LANES].as_ptr().cast());
            for g in 0..G {
                let lanes = g * w + v * LANES..g * w + (v + 1) * LANES;
                av[g][v] = _mm512_loadu_si512(a[lanes].as_ptr().cast());
            }
        }
    }
    let mut acc = [[zero; V]; G];
    // The lowest digit of each sum lives here, in full, and lane 0 of
    // `acc[g][0]` is never read: `y` is then computed without a round trip
    // through the vector unit.
    let mut low = [0u64; G];
    let mut a0 = [0u128; G];
    for g in 0..G {
        a0[g] = a[g * w] as u128;
    }
    let m0 = m[0] as u128;
    for i in 0..k.digits {
        let (mut bi, mut bv) = ([0u64; G], [zero; G]);
        for g in 0..G {
            bi[g] = b[g * w + i];
            bv[g] = _mm512_set1_epi64(bi[g] as i64);
            for v in 0..V {
                acc[g][v] = _mm512_madd52lo_epu64(acc[g][v], av[g][v], bv[g]);
            }
        }
        let mut yv = [zero; G];
        for g in 0..G {
            // y clears the lowest digit: low + a₀·bᵢ + m₀·y ≡ 0 (mod 2^52).
            let t = low[g] as u128 + a0[g] * bi[g] as u128;
            let y = (t as u64).wrapping_mul(k.k0) & DIGIT_MASK;
            yv[g] = _mm512_set1_epi64(y as i64);
            for v in 0..V {
                acc[g][v] = _mm512_madd52lo_epu64(acc[g][v], mv[v], yv[g]);
            }
            // The next lowest digit: lane 1 so far, plus the carry of the
            // cleared one, which includes the high halves of a₀·bᵢ and m₀·y.
            let t = t + m0 * y as u128;
            debug_assert_eq!(t as u64 & DIGIT_MASK, 0);
            let lane1 = _mm_extract_epi64::<1>(_mm512_castsi512_si128(acc[g][0])) as u64;
            low[g] = (t >> DIGIT_BITS) as u64 + lane1;
        }
        for g in 0..G {
            // Drop the cleared digit.
            for v in 0..V {
                let above = if v + 1 < V { acc[g][v + 1] } else { zero };
                acc[g][v] = _mm512_alignr_epi64::<1>(above, acc[g][v]);
            }
            // The high halves weigh one digit more, which the shift accounts
            // for (lane 0 receives those of a₀·bᵢ and m₀·y again, unread).
            for v in 0..V {
                acc[g][v] = _mm512_madd52hi_epu64(acc[g][v], av[g][v], bv[g]);
                acc[g][v] = _mm512_madd52hi_epu64(acc[g][v], mv[v], yv[g]);
            }
        }
    }
    // Carry every lane's excess into the lane above until all are digits;
    // the second pass is needed only when a digit lands on 2^52 − 1 plus a
    // carry, and a third almost never.
    let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
    for g in 0..G {
        let acc = &mut acc[g];
        acc[0] = _mm512_mask_set1_epi64(acc[0], 1, low[g] as i64);
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
            let lanes = g * w + v * LANES..g * w + (v + 1) * LANES;
            // SAFETY: `out` is exactly `8V·G` `u64`s; one unaligned 512-bit
            // store into lanes `8V·g + 8v..8V·g + 8v + 8`.
            unsafe { _mm512_storeu_si512(out[lanes].as_mut_ptr().cast(), acc[v]) };
        }
    }
}
