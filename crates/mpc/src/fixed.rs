//! Fixed-point parameters and public-side conversions.

use crate::field::Fp;

/// Fixed-point layout inside the field (paper: "fixed-point integer
/// representation", §8).
///
/// A real `x` is represented by the field element `round(x · 2^f)`, with
/// negatives in the upper half of `Z_p`. Magnitudes must stay below
/// `2^(k-1)`; masked openings add `kappa` statistical bits, and
/// `k + kappa + 1` must stay below the 61 field bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedConfig {
    /// Fractional bits `f`.
    pub frac_bits: u32,
    /// Total significant bits `k` (signed values in `(-2^(k-1), 2^(k-1))`).
    pub int_bits: u32,
    /// Statistical masking bits `κ`.
    pub kappa: u32,
}

impl Default for FixedConfig {
    /// `f = 20` keeps `1/n_l` representable for realistic node sizes,
    /// `k = 45` bounds every intermediate of the gain pipeline (see
    /// "Scale discipline" in `pivot-core`'s `gain` module docs), and
    /// `κ = 14` statistical masking bits exactly fill
    /// the 61-bit field (`45 + 14 + 1 = 60 < 61`).
    fn default() -> Self {
        FixedConfig {
            frac_bits: 20,
            int_bits: 45,
            kappa: 14,
        }
    }
}

impl FixedConfig {
    /// Validate the layout fits the field.
    pub fn assert_valid(&self) {
        assert!(self.frac_bits < self.int_bits, "need integer headroom");
        assert!(
            self.int_bits + self.kappa + 1 < 61,
            "fixed-point layout exceeds the 61-bit field"
        );
    }

    /// Encode a real as a field element.
    pub fn encode(&self, x: f64) -> Fp {
        assert!(x.is_finite(), "cannot encode NaN/inf");
        let scaled = (x * (1u64 << self.frac_bits) as f64).round();
        let bound = (1i64 << (self.int_bits - 1)) as f64;
        assert!(
            scaled.abs() < bound,
            "value {x} overflows the {}-bit fixed-point range",
            self.int_bits
        );
        Fp::from_i64(scaled as i64)
    }

    /// Decode a field element at scale level 1.
    pub fn decode(&self, v: Fp) -> f64 {
        v.to_i64() as f64 / (1u64 << self.frac_bits) as f64
    }

    /// Encode an integer without fractional scaling (e.g. sample counts).
    pub fn encode_int(&self, x: i64) -> Fp {
        Fp::from_i64(x)
    }

    /// The field constant `2^f` (one unit of scale).
    pub fn one(&self) -> Fp {
        Fp::pow2(self.frac_bits)
    }

    /// The public constant `inv(2^f)` used by exact truncation.
    pub fn inv_one(&self) -> Fp {
        Fp::inv_pow2(self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_valid() {
        FixedConfig::default().assert_valid();
    }

    #[test]
    fn encode_decode_round_trip() {
        let cfg = FixedConfig::default();
        for x in [0.0f64, 1.0, -1.0, 3.25, -7.75, 1000.125, -65536.5] {
            assert!((cfg.decode(cfg.encode(x)) - x).abs() < 1e-4, "{x}");
        }
    }

    #[test]
    fn near_boundary_values() {
        let cfg = FixedConfig::default();
        // Just inside the 40-bit signed boundary at scale 2^16: |x| < 2^23.
        let max = (1u64 << (cfg.int_bits - 1 - cfg.frac_bits)) as f64 - 1.0;
        assert!((cfg.decode(cfg.encode(max)) - max).abs() < 1e-3);
        assert!((cfg.decode(cfg.encode(-max)) + max).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflow_rejected() {
        let cfg = FixedConfig::default();
        cfg.encode(1e12);
    }

    #[test]
    #[should_panic(expected = "exceeds the 61-bit field")]
    fn invalid_layout_rejected() {
        FixedConfig {
            frac_bits: 20,
            int_bits: 50,
            kappa: 20,
        }
        .assert_valid();
    }
}
