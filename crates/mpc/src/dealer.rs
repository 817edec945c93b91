//! The offline phase: correlated randomness for the online protocols.
//!
//! MP-SPDZ separates an input-independent offline phase (Beaver triples,
//! shared random bits, masked-truncation pairs) from the online phase; the
//! paper reports online time only (§8.1: "we report the running time of the
//! online phase"). We reproduce that cost model with a *simulated trusted
//! dealer*: every party derives the same preprocessing stream from a common
//! seed and keeps its own component, so preprocessing costs zero online
//! communication.
//!
//! This is a **simulation of the offline phase**, not a secure realization
//! of it (each party could recompute the others' shares from the seed). The
//! online protocols built on top are the real ones; swapping in genuine
//! OT/HE-based preprocessing would not change any online message.
//!
//! Stream layout: Beaver triples and masked-bit rows come from *dedicated
//! derived streams*, one per material kind (and per mask width), each a
//! PRG seeded from the dealer seed and a tag — so a drawn value is a
//! function of `(seed, party, draw index)` and of nothing else, and widths
//! never perturb each other. Order-sensitive material (probabilistic
//! truncation pairs, DP unit fractions, random bits) advances the
//! client's own PRG in protocol call order: its values feed ±1-ulp rounding
//! and DP draws, so reordering would change results, not just transcripts.
//!
//! Why there is no pool: a triple costs 23 ns and a width-11 masked row
//! 137 ns to derive (`mpc.dealer_triples_per_s` 4.3 × 10⁷,
//! `mpc.dealer_masked_rows_k11_per_s` 7.3 × 10⁶ on the benchmark ladder),
//! and a party of the benchmark's training workloads draws 1.2–3.0 × 10⁵
//! triples and 5.7–11.4 × 10³ rows in a whole run: 3–9 ms of derivation
//! against 0.9–4.7 s of training. Measured, a background precompute pool
//! produced 1.5–2× what was consumed, on the queue the `NoncePool` needs,
//! and was not resolvably faster on any workload — so every draw is made
//! inline, on the party thread, at the take.

use crate::field::{Fp, MODULUS};
use crate::fixed::FixedConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A Beaver multiplication triple share: `(⟨a⟩, ⟨b⟩, ⟨ab⟩)`.
#[derive(Clone, Copy, Debug)]
pub struct TripleShare {
    pub a: Fp,
    pub b: Fp,
    pub c: Fp,
}

/// Shares backing one exact-truncation / comparison mask:
/// `r = r_high · 2^t + Σ bits_i · 2^i`, with the low part bit-decomposed.
#[derive(Clone, Debug)]
pub struct MaskedBitsShare {
    /// Share of the full mask `r`.
    pub r: Fp,
    /// Share of the high part `r_high`.
    pub r_high: Fp,
    /// Shares of the `t` low bits (LSB first).
    pub bits: Vec<Fp>,
}

/// Draw a uniform field element from `rng` (same draw on every party).
fn draw_uniform(rng: &mut StdRng) -> Fp {
    Fp::new(rng.gen_range(0..MODULUS))
}

/// Split `value` into `m` additive shares and keep party `party`'s.
/// Every party generates the identical share vector and indexes it.
fn draw_split(rng: &mut StdRng, party: usize, m: usize, value: Fp) -> Fp {
    let mut total = Fp::ZERO;
    let mut mine = Fp::ZERO;
    for i in 0..m - 1 {
        let share = draw_uniform(rng);
        total += share;
        if i == party {
            mine = share;
        }
    }
    let last = value - total;
    if party == m - 1 {
        mine = last;
    }
    mine
}

fn draw_triple(rng: &mut StdRng, party: usize, m: usize) -> TripleShare {
    let a = draw_uniform(rng);
    let b = draw_uniform(rng);
    let c = a * b;
    TripleShare {
        a: draw_split(rng, party, m, a),
        b: draw_split(rng, party, m, b),
        c: draw_split(rng, party, m, c),
    }
}

/// One masked-bit row: `t` bit-decomposed low bits plus a uniform
/// `high_bits`-bit high part. The caller fixes `high_bits = k + κ − t`
/// for the audited comparison width `k`.
fn draw_masked_row(
    rng: &mut StdRng,
    party: usize,
    m: usize,
    t: u32,
    high_bits: u32,
) -> MaskedBitsShare {
    debug_assert!(t + high_bits < 61, "mask exceeds the 61-bit field");
    let mut low_val = 0u64;
    let mut bit_shares = Vec::with_capacity(t as usize);
    for i in 0..t {
        let bit = rng.gen_range(0..2u64);
        low_val |= bit << i;
        bit_shares.push(draw_split(rng, party, m, Fp::new(bit)));
    }
    let high = rng.gen_range(0..(1u64 << high_bits));
    let r_val = Fp::new(high << t) + Fp::new(low_val);
    MaskedBitsShare {
        r: draw_split(rng, party, m, r_val),
        r_high: draw_split(rng, party, m, Fp::new(high)),
        bits: bit_shares,
    }
}

/// Derive a per-stream seed from the dealer seed and a material tag.
/// SplitMix64-style finalizer: identical on every party, spreads nearby
/// tags far apart so streams never collide.
fn derived_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TRIPLE_TAG: u64 = 0x7219_7213_BEAF_E201;
const MASKED_TAG: u64 = 0x0A5C_ED81_7500_13D7;

/// Per-party client of the simulated dealer. All parties construct it with
/// the same `seed` and call the same sequence of methods; each call advances
/// an identical PRG stream and returns this party's component.
pub struct DealerClient {
    seed: u64,
    party: usize,
    m: usize,
    /// Call-order stream for the order-sensitive material.
    rng: StdRng,
    /// Derived stream of Beaver triples.
    triples: StdRng,
    /// Derived masked-bit streams keyed by `(t, high_bits)`, seeded at
    /// first use.
    masked: HashMap<(u32, u32), StdRng>,
    rows_drawn: u64,
}

impl DealerClient {
    /// `seed` must be identical across parties; `party` is this party's id.
    pub fn new(seed: u64, party: usize, m: usize) -> Self {
        assert!(party < m);
        DealerClient {
            seed,
            party,
            m,
            rng: StdRng::seed_from_u64(seed),
            triples: StdRng::seed_from_u64(derived_seed(seed, TRIPLE_TAG)),
            masked: HashMap::new(),
            rows_drawn: 0,
        }
    }

    /// Triples plus masked-bit rows drawn so far: the derived streams'
    /// position, which a checkpoint records to detect a diverged replay.
    pub fn rows_drawn(&self) -> u64 {
        self.rows_drawn
    }

    fn split(&mut self, value: Fp) -> Fp {
        draw_split(&mut self.rng, self.party, self.m, value)
    }

    /// Next Beaver triple.
    pub fn triple(&mut self) -> TripleShare {
        self.triples(1).remove(0)
    }

    /// A batch of Beaver triples.
    pub fn triples(&mut self, n: usize) -> Vec<TripleShare> {
        self.rows_drawn += n as u64;
        (0..n)
            .map(|_| draw_triple(&mut self.triples, self.party, self.m))
            .collect()
    }

    /// Share of a uniformly random bit.
    pub fn random_bit(&mut self) -> Fp {
        let b = Fp::new(self.rng.gen_range(0..2u64));
        self.split(b)
    }

    /// Masked-truncation material for `Mod2m` with `t` low bits: the low
    /// part is bit-decomposed. The comparison operates on values in
    /// `[0, 2^k)`, so the high part only needs `k + κ − t` bits — the
    /// statistical-headroom audit scales with the *proven* range instead
    /// of the global `int_bits`.
    pub fn masked_rows(
        &mut self,
        t: u32,
        k: u32,
        n: usize,
        cfg: &FixedConfig,
    ) -> Vec<MaskedBitsShare> {
        assert!(t <= k, "mod 2^{t} needs at least {t} value bits, got {k}");
        assert!(
            k + cfg.kappa < 61,
            "comparison width {k} + κ {} = {} exceeds the 61-bit field",
            cfg.kappa,
            k + cfg.kappa
        );
        let high_bits = k + cfg.kappa - t;
        let seed = self.seed;
        let rng = self.masked.entry((t, high_bits)).or_insert_with(|| {
            let tag = MASKED_TAG ^ ((t as u64) << 32 | high_bits as u64);
            StdRng::seed_from_u64(derived_seed(seed, tag))
        });
        self.rows_drawn += n as u64;
        (0..n)
            .map(|_| draw_masked_row(rng, self.party, self.m, t, high_bits))
            .collect()
    }

    /// Probabilistic-truncation mask: `(⟨r⟩, ⟨r_high⟩)` with
    /// `r = r_high·2^t + r_low`, `r_low` uniform in `[0, 2^t)` (bits not
    /// needed for the probabilistic variant).
    ///
    /// Always drawn from the call-order stream: the mask value decides the
    /// ±1-ulp rounding of every probabilistic truncation, so reordering
    /// draws would change *results*, not just transcripts.
    pub fn trunc_pair(&mut self, t: u32, cfg: &FixedConfig) -> (Fp, Fp) {
        let high_bits = cfg.int_bits + cfg.kappa - t;
        let low = self.rng.gen_range(0..(1u64 << t));
        let high = self.rng.gen_range(0..(1u64 << high_bits));
        let r_val = Fp::new((high << t).wrapping_add(low));
        (self.split(r_val), self.split(Fp::new(high)))
    }

    /// Shares of a uniform fixed-point value in `[0, 1)` (that is, a random
    /// `f`-bit integer at scale `2^-f`) — used by the DP samplers (Alg. 5/6).
    /// Call-order stream: the draw *is* the DP randomness.
    pub fn random_unit_fraction(&mut self, cfg: &FixedConfig) -> Fp {
        let v = self.rng.gen_range(0..(1u64 << cfg.frac_bits));
        self.split(Fp::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `m` dealer clients in lockstep and reconstruct their outputs.
    fn clients(m: usize) -> Vec<DealerClient> {
        (0..m).map(|p| DealerClient::new(7, p, m)).collect()
    }

    fn reconstruct(shares: impl IntoIterator<Item = Fp>) -> Fp {
        shares.into_iter().fold(Fp::ZERO, |a, b| a + b)
    }

    #[test]
    fn triples_multiply() {
        let mut cs = clients(3);
        for _ in 0..20 {
            let ts: Vec<TripleShare> = cs.iter_mut().map(|c| c.triple()).collect();
            let a = reconstruct(ts.iter().map(|t| t.a));
            let b = reconstruct(ts.iter().map(|t| t.b));
            let c = reconstruct(ts.iter().map(|t| t.c));
            assert_eq!(a * b, c);
        }
    }

    #[test]
    fn random_bits_are_bits() {
        let mut cs = clients(4);
        let mut seen = [false; 2];
        for _ in 0..50 {
            let shares: Vec<Fp> = cs.iter_mut().map(|c| c.random_bit()).collect();
            let b = reconstruct(shares).value();
            assert!(b <= 1, "reconstructed {b} is not a bit");
            seen[b as usize] = true;
        }
        assert!(seen[0] && seen[1], "both bit values should occur");
    }

    #[test]
    fn masked_bits_consistent() {
        let cfg = FixedConfig::default();
        let mut cs = clients(2);
        for _ in 0..10 {
            let ms: Vec<MaskedBitsShare> = cs
                .iter_mut()
                .map(|c| c.masked_rows(16, cfg.int_bits, 1, &cfg).remove(0))
                .collect();
            let r = reconstruct(ms.iter().map(|m| m.r)).value();
            let r_high = reconstruct(ms.iter().map(|m| m.r_high)).value();
            let mut low = 0u64;
            for i in 0..16 {
                let bit = reconstruct(ms.iter().map(|m| m.bits[i])).value();
                assert!(bit <= 1);
                low |= bit << i;
            }
            assert_eq!(r, (r_high << 16) + low, "r = r_high·2^16 + r_low");
        }
    }

    #[test]
    fn bounded_masked_rows_respect_width() {
        let cfg = FixedConfig::default();
        let mut cs = clients(3);
        // Width-10 masks with t = 9 low bits: high part < 2^(10 + κ − 9).
        let rows: Vec<Vec<MaskedBitsShare>> = cs
            .iter_mut()
            .map(|c| c.masked_rows(9, 10, 5, &cfg))
            .collect();
        for i in 0..5 {
            let high = reconstruct(rows.iter().map(|r| r[i].r_high)).value();
            assert!(
                high < 1 << (10 + cfg.kappa - 9),
                "high part {high} too wide"
            );
            let r = reconstruct(rows.iter().map(|r| r[i].r)).value();
            let mut low = 0u64;
            for b in 0..9 {
                low |= reconstruct(rows.iter().map(|r| r[i].bits[b])).value() << b;
            }
            assert_eq!(r, (high << 9) + low);
        }
    }

    #[test]
    fn trunc_pair_structure() {
        let cfg = FixedConfig::default();
        let mut cs = clients(3);
        for _ in 0..10 {
            let ps: Vec<(Fp, Fp)> = cs.iter_mut().map(|c| c.trunc_pair(16, &cfg)).collect();
            let r = reconstruct(ps.iter().map(|p| p.0)).value();
            let high = reconstruct(ps.iter().map(|p| p.1)).value();
            assert_eq!(r >> 16, high, "high part matches");
            assert!(high < 1 << (cfg.int_bits + cfg.kappa - 16));
        }
    }

    #[test]
    fn streams_identical_across_parties() {
        // Two independent sets of clients with the same seed produce the
        // same reconstructed values.
        let mut a = clients(2);
        let mut b = clients(2);
        let ta: Vec<TripleShare> = a.iter_mut().map(|c| c.triple()).collect();
        let tb: Vec<TripleShare> = b.iter_mut().map(|c| c.triple()).collect();
        assert_eq!(
            reconstruct(ta.iter().map(|t| t.a)),
            reconstruct(tb.iter().map(|t| t.a))
        );
    }

    #[test]
    fn unit_fraction_in_range() {
        let cfg = FixedConfig::default();
        let mut cs = clients(2);
        for _ in 0..20 {
            let shares: Vec<Fp> = cs
                .iter_mut()
                .map(|c| c.random_unit_fraction(&cfg))
                .collect();
            let v = reconstruct(shares).value();
            assert!(v < 1 << cfg.frac_bits);
        }
    }

    /// Party `p`'s shares of the first and last item of each group drawn
    /// by [`dealer_streams_are_pinned`], in draw-group order: 64 triples
    /// `(a, b, c)`, 16 rows of `(t, k) = (8, 9)` and 16 of `(29, 30)`
    /// `(r, r_high, bits[0], bits[t − 1])`, 8 more triples, 4 truncation
    /// pairs `(r, r_high)`. Recorded from the PR 13 derived-stream layout;
    /// a change to any literal changes every transcript and trained model.
    const PINNED: [[u64; 32]; 3] = [
        [
            // triples[0]
            599_289_011_865_830_146,
            987_817_844_196_807_646,
            1_913_955_643_479_977_506,
            // triples[63]
            925_961_141_736_191_909,
            901_593_623_992_114_027,
            1_824_363_309_723_730_811,
            // (8, 9) rows[0]
            1_305_189_259_924_017_767,
            1_699_965_735_959_939_226,
            1_562_455_718_481_097_898,
            826_321_484_646_965_245,
            // (8, 9) rows[15]
            1_320_251_199_292_350_917,
            685_935_191_202_722_807,
            346_833_194_996_849_526,
            1_514_231_214_968_665_283,
            // (29, 30) rows[0]
            2_036_950_680_356_141_287,
            2_042_882_505_455_204_937,
            146_757_170_839_794_104,
            189_151_610_167_220_266,
            // (29, 30) rows[15]
            1_614_925_913_372_487_079,
            1_518_860_824_031_650_879,
            1_023_698_597_727_370_350,
            1_931_335_365_117_418_083,
            // late triples[0]
            1_063_251_457_681_835_818,
            196_059_077_620_445_102,
            469_276_415_722_640_059,
            // late triples[7]
            2_231_354_039_338_798_859,
            355_827_152_682_734_760,
            43_261_510_841_127_003,
            // pairs[0]
            1_720_402_681_957_271_374,
            814_535_873_437_087_249,
            // pairs[3]
            345_227_703_195_888_122,
            1_064_363_996_957_653_111,
        ],
        [
            // triples[0]
            117_379_841_136_478_121,
            890_433_864_325_311_429,
            417_049_574_588_821_360,
            // triples[63]
            1_361_163_301_569_546_160,
            648_813_861_789_128_717,
            416_656_274_257_870_838,
            // (8, 9) rows[0]
            1_007_685_710_645_254_072,
            1_196_655_732_300_236_519,
            1_685_422_532_802_136_305,
            732_873_710_765_503_991,
            // (8, 9) rows[15]
            292_737_099_570_899_642,
            469_025_187_406_002_318,
            502_650_293_615_444_240,
            622_874_680_355_852_724,
            // (29, 30) rows[0]
            2_257_813_870_818_188_773,
            1_165_075_075_379_918_759,
            1_202_402_903_405_371_859,
            216_688_951_480_073_461,
            // (29, 30) rows[15]
            161_400_004_595_174_429,
            1_300_421_203_282_838_915,
            641_775_105_911_204_808,
            2_007_161_699_626_800_309,
            // late triples[0]
            1_448_749_955_083_567_361,
            1_650_507_512_309_303_151,
            1_478_099_840_628_260_484,
            // late triples[7]
            858_194_214_588_766_514,
            850_973_789_453_003_729,
            1_578_475_213_994_778_744,
            // pairs[0]
            228_847_532_923_343_734,
            140_264_188_434_007_699,
            // pairs[3]
            648_542_299_454_769_166,
            1_035_847_528_152_685_683,
        ],
        [
            // triples[0]
            766_514_757_228_707_524,
            1_102_630_654_785_549_325,
            2_178_654_742_118_099_285,
            // triples[63]
            1_290_776_119_880_984_448,
            1_007_526_118_766_608_480,
            1_898_851_141_979_129_947,
            // (8, 9) rows[0]
            2_298_811_047_864_221_995,
            1_715_064_550_167_236_008,
            1_363_807_767_144_153_699,
            746_647_813_801_224_715,
            // (8, 9) rows[15]
            692_854_710_352_210_152,
            1_150_882_630_604_975_727,
            1_456_359_520_601_400_185,
            168_737_113_889_175_944,
            // (29, 30) rows[0]
            316_931_477_406_913_012,
            1_403_728_437_592_282_851,
            956_682_934_968_527_988,
            1_900_002_447_566_400_224,
            // (29, 30) rows[15]
            529_527_804_775_373_232,
            1_792_403_991_112_918_063,
            640_369_305_575_118_794,
            673_188_953_683_169_511,
            // late triples[0]
            234_629_855_830_197_764,
            854_520_058_693_528_500,
            1_830_521_335_159_159_076,
            // late triples[7]
            564_515_962_979_371_280,
            612_219_298_983_556_670,
            1_973_580_453_932_556_077,
            // pairs[0]
            477_325_270_394_515_463,
            1_351_044_789_573_984_217,
            // pairs[3]
            1_357_758_374_102_560_422,
            205_632_181_206_741_685,
        ],
    ];

    #[test]
    fn dealer_streams_are_pinned() {
        let cfg = FixedConfig::default();
        let m = 3;
        let mut triples = vec![Vec::new(); m];
        let mut narrow = vec![Vec::new(); m];
        let mut wide = vec![Vec::new(); m];
        let mut late = vec![Vec::new(); m];
        let mut pairs = vec![Vec::new(); m];
        for p in 0..m {
            let mut c = DealerClient::new(0x9162_07, p, m);
            // Interleaved: the three derived streams advance in turn, so a
            // group's values must not depend on what was drawn between.
            for _ in 0..4 {
                triples[p].extend(c.triples(16));
                narrow[p].extend(c.masked_rows(8, 9, 4, &cfg));
                wide[p].extend(c.masked_rows(29, 30, 4, &cfg));
            }
            late[p] = c.triples(8);
            pairs[p] = (0..4).map(|_| c.trunc_pair(16, &cfg)).collect();
        }

        let ends = |n: usize| [0, n - 1];
        let triple = |t: &TripleShare| [t.a, t.b, t.c];
        let row = |r: &MaskedBitsShare| [r.r, r.r_high, r.bits[0], r.bits[r.bits.len() - 1]];
        let got: Vec<Vec<u64>> = (0..m)
            .map(|p| {
                let mut got: Vec<Fp> = Vec::new();
                got.extend(ends(64).iter().flat_map(|&i| triple(&triples[p][i])));
                got.extend(ends(16).iter().flat_map(|&i| row(&narrow[p][i])));
                got.extend(ends(16).iter().flat_map(|&i| row(&wide[p][i])));
                got.extend(ends(8).iter().flat_map(|&i| triple(&late[p][i])));
                got.extend(ends(4).iter().flat_map(|&i| [pairs[p][i].0, pairs[p][i].1]));
                got.iter().map(|v| v.value()).collect()
            })
            .collect();
        assert_eq!(got, PINNED);

        let sum = |f: &dyn Fn(usize) -> Fp| reconstruct((0..m).map(f));
        for group in [&triples, &late] {
            for i in 0..group[0].len() {
                let (a, b, c) = (
                    sum(&|p| group[p][i].a),
                    sum(&|p| group[p][i].b),
                    sum(&|p| group[p][i].c),
                );
                assert_eq!(a * b, c, "triple {i}");
            }
        }
        for (group, t) in [(&narrow, 8usize), (&wide, 29)] {
            for i in 0..16 {
                let low = (0..t).fold(0u64, |acc, b| {
                    let bit = sum(&|p| group[p][i].bits[b]).value();
                    assert!(bit <= 1, "row {i} bit {b} reconstructs to {bit}");
                    acc | bit << b
                });
                let high = sum(&|p| group[p][i].r_high).value();
                assert_eq!(sum(&|p| group[p][i].r).value(), (high << t) + low);
            }
        }
        for i in 0..4 {
            let r = sum(&|p| pairs[p][i].0).value();
            assert_eq!(r >> 16, sum(&|p| pairs[p][i].1).value());
        }
    }

    #[test]
    fn split_stream_draws_are_width_independent() {
        // Draw order across widths must not perturb the per-width values.
        let cfg = FixedConfig::default();
        let mut a = DealerClient::new(5, 0, 2);
        let narrow_first: Vec<Fp> = a.masked_rows(5, 6, 3, &cfg).iter().map(|r| r.r).collect();
        let _wide = a.masked_rows(20, 30, 3, &cfg);

        let mut b = DealerClient::new(5, 0, 2);
        let _wide = b.masked_rows(20, 30, 3, &cfg);
        let narrow_second: Vec<Fp> = b.masked_rows(5, 6, 3, &cfg).iter().map(|r| r.r).collect();
        assert_eq!(narrow_first, narrow_second);
    }

    #[test]
    #[should_panic(expected = "exceeds the 61-bit field")]
    fn oversized_width_rejected() {
        let cfg = FixedConfig::default();
        let mut c = DealerClient::new(1, 0, 2);
        c.masked_rows(40, 50, 1, &cfg);
    }
}
