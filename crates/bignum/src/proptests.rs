//! Property-based tests for the big-integer substrate: ring laws, division
//! invariants, and agreement between the fast paths (Karatsuba, Montgomery)
//! and naive reference computations.

use crate::montgomery::{pad, MAX_WINDOW};
use crate::{egcd, gcd, mod_inverse, mod_pow, BigInt, BigUint, ExponentSchedule, Limb, Montgomery};
use proptest::prelude::*;

/// Arbitrary BigUint of up to ~320 bits built from raw limbs.
fn arb_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..5).prop_map(BigUint::from_limbs)
}

fn arb_nonzero() -> impl Strategy<Value = BigUint> {
    arb_biguint().prop_filter("nonzero", |v| !v.is_zero())
}

/// Largest modulus the kernel tests build: one limb past 2048 bits.
const KERNEL_LIMBS: usize = 33;

/// An odd modulus of exactly `limbs` limbs whose top limb sits on one of the
/// kernels' carry edges: as drawn, top bit set (sums overflow into the
/// dropped `hi` bit), equal to 1 (every operand nearly fills the limbs below
/// it), or — with the rest — all ones (`n = R − 1`, the largest there is).
fn edge_modulus(limbs: usize, shape: usize, raw: &[Limb]) -> BigUint {
    let mut n = raw[..limbs].to_vec();
    match shape {
        0 => n[limbs - 1] |= 2,
        1 => n[limbs - 1] |= 1 << 63,
        2 => n[limbs - 1] = 1,
        _ => n.fill(Limb::MAX),
    }
    n[0] |= 1;
    let n = BigUint::from_limbs(n);
    if n.is_one() {
        BigUint::from_u64(3)
    } else {
        n
    }
}

/// An odd modulus above 1 out of any nonzero draw.
fn odd_modulus(mut m: BigUint) -> BigUint {
    if m.is_even() {
        m.add_assign_ref(&BigUint::one());
    }
    if m.is_one() {
        m = BigUint::from_u64(3);
    }
    m
}

/// Right-to-left square-and-multiply with a division per step: the
/// reference every ladder is checked against.
pub(crate) fn naive_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut result = BigUint::one().rem_of(m);
    let mut acc = base.rem_of(m);
    for i in 0..exp.bits() {
        if exp.bit(i) {
            result = (&result * &acc).rem_of(m);
        }
        acc = (&acc * &acc).rem_of(m);
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kernels_match_multiply_and_divide_at_every_limb_count(
        raw in proptest::collection::vec(any::<u64>(), 3 * KERNEL_LIMBS..3 * KERNEL_LIMBS + 1),
    ) {
        for limbs in 1..=KERNEL_LIMBS {
            for shape in 0..4 {
                let n = edge_modulus(limbs, shape, &raw);
                let ctx = Montgomery::new(&n);
                let r_bits = 64 * limbs as u32;
                let all_ones = &BigUint::pow2(r_bits) - &BigUint::one();
                let operands: Vec<Vec<Limb>> = [
                    BigUint::zero(),
                    BigUint::one(),
                    &n - &BigUint::one(),
                    all_ones,
                    BigUint::from_limbs(raw[KERNEL_LIMBS..][..limbs].to_vec()),
                    BigUint::from_limbs(raw[2 * KERNEL_LIMBS..][..limbs].to_vec()),
                ]
                .iter()
                .map(|x| pad(&x.rem_of(&n), limbs))
                .collect();
                // x = a·b·R⁻¹ mod n  ⇔  x < n and x·R ≡ a·b (mod n).
                let check = |x: &[Limb], a: &[Limb], b: &[Limb]| {
                    let x = BigUint::from_limbs(x.to_vec());
                    let ab = &BigUint::from_limbs(a.to_vec()) * &BigUint::from_limbs(b.to_vec());
                    x < n && x.shl_bits(r_bits).rem_of(&n) == ab.rem_of(&n)
                };
                // Dirty buffers: the kernels must not depend on their contents.
                let mut out = vec![Limb::MAX; limbs];
                let mut wide = vec![Limb::MAX; 2 * limbs];
                for a in &operands {
                    for b in &operands {
                        ctx.mul_into(&mut out, a, b);
                        prop_assert!(check(&out, a, b), "mul_into: {} limbs, shape {}", limbs, shape);
                    }
                    ctx.sqr_into(&mut out, a, &mut wide);
                    prop_assert!(check(&out, a, a), "sqr_into: {} limbs, shape {}", limbs, shape);
                    prop_assert_eq!(&out, &ctx.mont_mul(a, a));
                    prop_assert_eq!(&out, &ctx.mont_sqr(a));
                    // Leaving Montgomery form is the reduction pass alone.
                    let plain = ctx.from_mont(a);
                    prop_assert_eq!(ctx.to_mont(&plain), a.clone());
                }
            }
        }
    }

    #[test]
    fn product_matches_naive_product_at_every_limb_count(
        raw in proptest::collection::vec(any::<u64>(), 3 * KERNEL_LIMBS..3 * KERNEL_LIMBS + 1),
    ) {
        for limbs in 1..=KERNEL_LIMBS {
            for shape in 0..4 {
                let n = edge_modulus(limbs, shape, &raw);
                let ctx = Montgomery::new(&n);
                let all_ones = &BigUint::pow2(64 * limbs as u32) - &BigUint::one();
                // Reduced and unreduced factors, 0 and 1 among them.
                let factors = [
                    BigUint::from_limbs(raw[KERNEL_LIMBS..][..limbs].to_vec()),
                    &n - &BigUint::one(),
                    all_ones,
                    BigUint::one(),
                    &n + &BigUint::from_limbs(raw[2 * KERNEL_LIMBS..][..limbs].to_vec()),
                    BigUint::from_limbs(raw[2 * KERNEL_LIMBS..][..limbs].to_vec()),
                    BigUint::zero(),
                ];
                // Many factors: every nonzero one, three times over.
                let many: Vec<&BigUint> = factors[..6].iter().cycle().take(18).collect();
                let cases: [&[&BigUint]; 7] = [
                    &[],
                    &[&factors[0]],
                    &[&factors[2]],
                    &[&factors[0], &factors[1]],
                    &[&factors[3], &factors[4]],
                    &many,
                    &[&factors[0], &factors[6], &factors[1]],
                ];
                for case in cases {
                    let expect = case
                        .iter()
                        .fold(BigUint::one().rem_of(&n), |acc, x| (&acc * *x).rem_of(&n));
                    prop_assert!(
                        ctx.product(case.iter().copied()) == expect,
                        "{} factors, {} limbs, shape {}", case.len(), limbs, shape
                    );
                }
            }
        }
    }

    #[test]
    fn ladders_match_naive_pow_at_every_window_width(
        m in arb_nonzero(),
        bases in proptest::collection::vec(arb_biguint(), 2..3),
        raw in proptest::collection::vec(any::<u64>(), 64..65),
    ) {
        let m = odd_modulus(m);
        let ctx = Montgomery::new(&m);
        let base_m = ctx.to_mont(&bases[0]);
        // Exponents of exactly 1, 61, 512, 1024 and 2048 bits: the trivial
        // one, a `mul_plain` factor, and the sizes of N and 2Δsᵢ.
        for bits in [1u32, 61, 512, 1024, 2048] {
            let top = bits.div_ceil(64) as usize;
            let mut exp = BigUint::from_limbs(raw[..top].to_vec()).shr_bits(64 * top as u32 - bits);
            exp.set_bit(bits - 1);
            let other = BigUint::from_limbs(raw[32..32 + top].to_vec());
            let expect = naive_pow(&bases[0], &exp, &m);
            for window in 1..=MAX_WINDOW {
                let sched = ExponentSchedule::recode_with_window(&exp, window);
                prop_assert!(
                    ctx.from_mont(&ctx.pow_mont_scheduled(&base_m, &sched)) == expect,
                    "{} bits, window {}", bits, window
                );
            }
            prop_assert_eq!(ctx.from_mont(&ctx.pow_mont(&base_m, &exp)), expect.clone());
            prop_assert_eq!(ctx.pow(&bases[0], &exp), expect.clone());
            let both = (&expect * &naive_pow(&bases[1], &other, &m)).rem_of(&m);
            prop_assert_eq!(ctx.multi_pow(&[(&bases[0], &exp), (&bases[1], &other)]), both);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn add_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn sub_inverts_add(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_reconstructs(a in arb_biguint(), b in arb_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_round_trip(a in arb_biguint(), s in 0u32..200) {
        prop_assert_eq!(a.shl_bits(s).shr_bits(s), a);
    }

    #[test]
    fn bytes_round_trip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn decimal_round_trip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn gcd_divides_both(a in arb_nonzero(), b in arb_nonzero()) {
        let g = gcd(&a, &b);
        prop_assert!(a.rem_of(&g).is_zero());
        prop_assert!(b.rem_of(&g).is_zero());
    }

    #[test]
    fn egcd_bezout(a in arb_nonzero(), b in arb_nonzero()) {
        let (g, x, y) = egcd(&a, &b);
        let lhs = &(&BigInt::from(a) * &x) + &(&BigInt::from(b) * &y);
        prop_assert_eq!(lhs, BigInt::from(g));
    }

    #[test]
    fn montgomery_matches_naive_mul(a in arb_biguint(), b in arb_biguint(), m in arb_nonzero()) {
        let m = odd_modulus(m);
        let ctx = Montgomery::new(&m);
        let expect = (&a.rem_of(&m) * &b.rem_of(&m)).rem_of(&m);
        prop_assert_eq!(ctx.mul(&a.rem_of(&m), &b.rem_of(&m)), expect.clone());
        // Operands at or above the modulus are reduced on the way in.
        prop_assert_eq!(ctx.mul(&a, &b), expect);
    }

    #[test]
    fn mod_pow_matches_iterated_mul(a in arb_biguint(), e in 0u32..40, m in arb_nonzero()) {
        let mut m = m;
        if m.is_one() { m = BigUint::from_u64(2); }
        let mut expect = BigUint::one().rem_of(&m);
        let base = a.rem_of(&m);
        for _ in 0..e {
            expect = (&expect * &base).rem_of(&m);
        }
        prop_assert_eq!(mod_pow(&a, &BigUint::from_u64(e as u64), &m), expect);
    }

    #[test]
    fn sliding_window_pow_matches_mod_pow(a in arb_biguint(), e in arb_biguint(), m in arb_nonzero()) {
        // Montgomery::pow uses sliding windows; check it against a
        // naive square-and-multiply reference AND the generic mod_pow
        // entry point, over multi-limb exponents (so window boundaries,
        // zero runs, and the trailing partial window all get exercised).
        let m = odd_modulus(m);
        let ctx = Montgomery::new(&m);
        let expect = naive_pow(&a, &e, &m);
        prop_assert_eq!(ctx.pow(&a, &e), expect.clone());
        prop_assert_eq!(mod_pow(&a, &e, &m), expect);
    }

    #[test]
    fn multi_pow_matches_naive_product(
        bases in proptest::collection::vec(arb_biguint(), 0..5),
        exps in proptest::collection::vec(arb_biguint(), 0..5),
        m in arb_nonzero(),
    ) {
        // Interleaved-window multi-exponentiation must agree with the
        // naive Π mod_pow(baseᵢ, expᵢ) product for every base count and
        // every window width the adaptive rule can pick (exponents here
        // span 0..~320 bits, covering w = 1..=3; the 384+-bit w = 4 arm
        // is exercised by the dedicated unit test below).
        let m = odd_modulus(m);
        let ctx = Montgomery::new(&m);
        let k = bases.len().min(exps.len());
        let pairs: Vec<(&BigUint, &BigUint)> =
            bases[..k].iter().zip(&exps[..k]).collect();
        let mut expect = BigUint::one().rem_of(&m);
        for (b, e) in &pairs {
            expect = (&expect * &mod_pow(b, e, &m)).rem_of(&m);
        }
        prop_assert_eq!(ctx.multi_pow(&pairs), expect);
    }

    #[test]
    fn scheduled_pow_matches_pow_mont(base in arb_biguint(), exp in arb_biguint(), m in arb_nonzero()) {
        // A fixed exponent recoded once and replayed (the partial-decryption
        // path) against the naive reference, at the width `recode` picks.
        let m = odd_modulus(m);
        let ctx = Montgomery::new(&m);
        let sched = ExponentSchedule::recode(&exp);
        prop_assert_eq!(ctx.pow_scheduled(&base, &sched), naive_pow(&base, &exp, &m));
    }

    #[test]
    fn mod_inverse_is_inverse(a in arb_nonzero(), m in arb_nonzero()) {
        let mut m = m;
        if m.is_one() { m = BigUint::from_u64(5); }
        if let Some(inv) = mod_inverse(&a, &m) {
            prop_assert_eq!((&a * &inv).rem_of(&m), BigUint::one());
        } else {
            // No inverse must mean gcd != 1 (or a ≡ 0).
            let g = gcd(&a.rem_of(&m), &m);
            prop_assert!(!g.is_one() || a.rem_of(&m).is_zero());
        }
    }

    #[test]
    fn signed_arithmetic_matches_i128(a in -1_000_000_000_000i128..1_000_000_000_000, b in -1_000_000_000_000i128..1_000_000_000_000) {
        let (ba, bb) = (BigInt::from_i128(a), BigInt::from_i128(b));
        prop_assert_eq!(&ba + &bb, BigInt::from_i128(a + b));
        prop_assert_eq!(&ba - &bb, BigInt::from_i128(a - b));
        prop_assert_eq!(&ba * &bb, BigInt::from_i128(a * b));
        prop_assert_eq!(ba.cmp(&bb), a.cmp(&b));
    }
}

/// The widths the kernel parity test runs at: both sides of the crossover,
/// digit counts that are and are not multiples of 8 lanes, and 2078 bits,
/// where the radix-2^52 kernel's `R = 2^2080` is barely above `4m`.
const PARITY_BITS: [u32; 11] = [
    256, 447, 448, 1023, 1024, 1536, 2047, 2048, 2078, 3072, 4096,
];

/// Both kernels replay `pow_scheduled`, `pow_mont_scheduled`,
/// `pow_scheduled_batch` and `multi_pow` on the same inputs and must agree
/// bit for bit; the portable one is the reference (the tests above check it
/// against division). The batch runs at every vector count the radix-2^52
/// kernel is instantiated for, where its pairs interleave two products.
#[test]
fn kernels_agree_bit_for_bit_on_every_ladder() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(52);
    let exps = [
        BigUint::zero(),
        BigUint::one(),
        BigUint::pow2(100),
        &BigUint::pow2(80) - &BigUint::one(),
        crate::rng::gen_exact_bits(&mut rng, 1024),
        crate::rng::gen_exact_bits(&mut rng, 2050),
    ];
    for bits in PARITY_BITS {
        let n = if bits == 2078 {
            &BigUint::pow2(bits) - &BigUint::one()
        } else {
            odd_modulus(crate::rng::gen_exact_bits(&mut rng, bits))
        };
        assert_eq!(n.bits(), bits);
        let portable = Montgomery::portable(&n);
        let Some(ifma) = Montgomery::ifma(&n) else {
            println!("kernel parity at {bits} bits skipped: this CPU lacks avx512ifma");
            continue;
        };
        let bases = [
            BigUint::zero(),
            BigUint::one(),
            &n - &BigUint::one(),
            &n + &crate::rng::gen_bits(&mut rng, bits),
            crate::rng::gen_below(&mut rng, &n),
        ];
        for exp in &exps {
            let sched = ExponentSchedule::recode(exp);
            // 0, 1 and n − 1 stay trivial under a long exponent too.
            let nontrivial = if exp.bits() > 128 { 3 } else { 0 };
            for base in &bases[nontrivial..] {
                let at = format!("{bits}-bit modulus, {}-bit exponent", exp.bits());
                let expect = portable.pow_scheduled(base, &sched);
                assert_eq!(
                    ifma.pow_scheduled(base, &sched),
                    expect,
                    "pow_scheduled, {at}"
                );
                let base_m = portable.to_mont(base);
                let expect_m = portable.pow_mont_scheduled(&base_m, &sched);
                let got_m = ifma.pow_mont_scheduled(&base_m, &sched);
                assert_eq!(got_m, expect_m, "pow_mont_scheduled, {at}");
                assert_eq!(ifma.from_mont(&got_m), expect, "pow_mont_scheduled, {at}");
            }
        }
        // The last `len` bases: unreduced from 2 on, zero at 5.
        for len in [0, 1, 2, 3, bases.len()] {
            assert_eq!(
                ifma.product(&bases[bases.len() - len..]),
                portable.product(&bases[bases.len() - len..]),
                "product of {len}, {bits} bits"
            );
        }
        let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter().rev()).collect();
        assert_eq!(
            ifma.multi_pow(&pairs),
            portable.multi_pow(&pairs),
            "multi_pow, {bits} bits"
        );
        let sched = ExponentSchedule::recode(&exps[3]);
        let expect: Vec<BigUint> = bases
            .iter()
            .map(|b| portable.pow_scheduled(b, &sched))
            .collect();
        assert_eq!(
            ifma.pow_scheduled_batch(&bases, &sched),
            expect,
            "batch, {bits} bits"
        );
        assert_eq!(
            portable.pow_scheduled_batch(&bases, &sched),
            expect,
            "batch, {bits} bits"
        );
    }
    // Every vector count 1..=20 at its widest modulus, 416·V − 2 bits
    // (8V digits with R > 4m), where a member's last digit is significant.
    let exps = [
        BigUint::zero(),
        BigUint::one(),
        crate::rng::gen_exact_bits(&mut rng, 24),
    ];
    for vectors in 1..=20u32 {
        let bits = 416 * vectors - 2;
        let n = odd_modulus(crate::rng::gen_exact_bits(&mut rng, bits));
        let portable = Montgomery::portable(&n);
        let Some(ifma) = Montgomery::ifma(&n) else {
            println!("batch parity at {vectors} vectors skipped: this CPU lacks avx512ifma");
            continue;
        };
        let bases = [
            crate::rng::gen_below(&mut rng, &n),
            &n + &crate::rng::gen_bits(&mut rng, bits),
            BigUint::zero(),
            BigUint::one(),
            &n - &BigUint::one(),
            &(&n + &n) + &BigUint::one(),
            crate::rng::gen_below(&mut rng, &n),
        ];
        for exp in &exps {
            let sched = ExponentSchedule::recode(exp);
            let expect: Vec<BigUint> = bases
                .iter()
                .map(|b| portable.pow_scheduled(b, &sched))
                .collect();
            for (b, e) in bases.iter().zip(&expect) {
                assert_eq!(
                    &ifma.pow_scheduled(b, &sched),
                    e,
                    "single, {vectors} vectors"
                );
            }
            for len in [1, 2, 3, 7] {
                let at = format!(
                    "{vectors} vectors, batch of {len}, {}-bit exponent",
                    exp.bits()
                );
                let refs: Vec<&BigUint> = bases[..len].iter().collect();
                assert_eq!(
                    ifma.pow_scheduled_batch(&refs, &sched),
                    expect[..len],
                    "{at}"
                );
            }
            assert_eq!(
                portable.pow_scheduled_batch(&bases, &sched),
                expect,
                "portable batch"
            );
        }
        // Zero would make every longer product trivially agree.
        let many: Vec<&BigUint> = bases
            .iter()
            .filter(|b| !b.is_zero())
            .cycle()
            .take(40)
            .collect();
        assert_eq!(
            ifma.product(many.iter().copied()),
            portable.product(many.iter().copied()),
            "product, {vectors} vectors"
        );
    }
}

/// Below the crossover `Montgomery::new` builds the portable kernel alone;
/// at and above it, the one its public selection rule names.
#[test]
fn new_selects_the_kernel_it_names() {
    for bits in [64, 447, 448, 1024, 2048, 4096] {
        let n = &BigUint::pow2(bits) - &BigUint::one();
        let ctx = Montgomery::new(&n);
        assert_eq!(ctx.kernel(), Montgomery::kernel_name(bits), "{bits} bits");
        if bits < 448 {
            assert_eq!(ctx.kernel(), "cios64", "{bits} bits");
        }
    }
}

/// The crossover table of the `montgomery` module docs, both kernels at a
/// modulus width: `pow_scheduled` with an exponent of half that width (the
/// nonce power `r^N` modulo `N²`), and a fresh context plus `pow` with an
/// exponent of the full width (a primality test, which prime search runs
/// once per candidate). The pair column is the IFMA ladder's cost per
/// exponentiation when `pow_scheduled_batch` runs two bases as one
/// interleaved pair. Timing, so run it alone and in release: `cargo
/// test --release -p pivot-bignum --lib kernel_crossover -- --ignored
/// --nocapture`.
#[test]
#[ignore]
fn kernel_crossover() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;
    let mut rng = StdRng::seed_from_u64(1800);
    println!(
        "bits  ladder: cios64_us ifma52_us speedup  pair: ifma52_us speedup  \
         new+pow: cios64_us ifma52_us speedup"
    );
    for bits in [256u32, 320, 384, 448, 512, 1024, 2048, 4096] {
        let n = odd_modulus(crate::rng::gen_exact_bits(&mut rng, bits));
        let half = ExponentSchedule::recode(&crate::rng::gen_exact_bits(&mut rng, bits / 2));
        let full = crate::rng::gen_exact_bits(&mut rng, bits - 1);
        let base = crate::rng::gen_below(&mut rng, &n);
        let pair = [base.clone(), crate::rng::gen_below(&mut rng, &n)];
        let (Some(ifma), portable) = (Montgomery::ifma(&n), Montgomery::portable(&n)) else {
            println!("this CPU lacks avx512ifma");
            return;
        };
        let reps = (1u32 << 24) / (bits * bits / 64);
        // Fastest of five rounds: interference only adds time.
        let per_call_us = |call: &dyn Fn() -> BigUint| {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..reps {
                        std::hint::black_box(call());
                    }
                    start.elapsed().as_secs_f64() * 1e6 / reps as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let ladder = [&portable, &ifma].map(|ctx| per_call_us(&|| ctx.pow_scheduled(&base, &half)));
        let paired = per_call_us(&|| ifma.pow_scheduled_batch(&pair, &half).remove(0)) / 2.0;
        let fresh = [
            per_call_us(&|| Montgomery::portable(&n).pow(&base, &full)),
            per_call_us(&|| Montgomery::ifma(&n).unwrap().pow(&base, &full)),
        ];
        println!(
            "{bits:>4}  {:>17.1} {:>9.1} {:>6.2}x  {:>15.1} {:>6.2}x  {:>18.1} {:>9.1} {:>6.2}x",
            ladder[0],
            ladder[1],
            ladder[0] / ladder[1],
            paired,
            ladder[1] / paired,
            fresh[0],
            fresh[1],
            fresh[0] / fresh[1]
        );
    }
}
