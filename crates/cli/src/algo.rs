//! The training algorithms a scenario can name: spelling, report label
//! and algorithm-to-parameter policy in one place.

use pivot_core::config::{PivotParams, Protocol};

/// Which training algorithm a run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Pivot basic protocol (§4).
    PivotBasic,
    /// Pivot basic with parallel threshold decryption (`-PP`).
    PivotBasicPp,
    /// Pivot enhanced protocol (§5).
    PivotEnhanced,
    /// Pivot enhanced with parallel threshold decryption (`-PP`).
    PivotEnhancedPp,
    /// Pure-MPC baseline.
    SpdzDt,
    /// Non-private distributed baseline.
    NpdDt,
}

impl Algo {
    pub fn label(&self) -> &'static str {
        match self {
            Algo::PivotBasic => "Pivot-Basic",
            Algo::PivotBasicPp => "Pivot-Basic-PP",
            Algo::PivotEnhanced => "Pivot-Enhanced",
            Algo::PivotEnhancedPp => "Pivot-Enhanced-PP",
            Algo::SpdzDt => "SPDZ-DT",
            Algo::NpdDt => "NPD-DT",
        }
    }

    /// Whether this is a `-PP` variant: §8.3's distinction is only how
    /// many cores run the bulk crypto operations.
    pub fn is_pp(&self) -> bool {
        matches!(self, Algo::PivotBasicPp | Algo::PivotEnhancedPp)
    }
}

pub fn parse_algo(s: &str) -> Result<Algo, String> {
    match s.to_ascii_lowercase().as_str() {
        "pivot-basic" => Ok(Algo::PivotBasic),
        "pivot-basic-pp" => Ok(Algo::PivotBasicPp),
        "pivot-enhanced" => Ok(Algo::PivotEnhanced),
        "pivot-enhanced-pp" => Ok(Algo::PivotEnhancedPp),
        "spdz-dt" => Ok(Algo::SpdzDt),
        "npd-dt" => Ok(Algo::NpdDt),
        other => Err(format!(
            "unknown algorithm {other:?} (expected pivot-basic, pivot-basic-pp, \
             pivot-enhanced, pivot-enhanced-pp, spdz-dt, or npd-dt)"
        )),
    }
}

/// The algorithm-to-parameter policy, applied on top of the caller's
/// `base` knobs: enhanced variants run `Protocol::Enhanced` without the
/// purity stop (see `PivotParams::enhanced`) at a keysize floor of 192 bits
/// (the share-conversion mask needs headroom — `pivot_core::gain`, "Scale
/// discipline"), and every non-`-PP` variant runs the same batch API
/// serially: one crypto thread.
pub fn algo_params(algo: Algo, base: PivotParams) -> PivotParams {
    let mut p = base;
    if matches!(algo, Algo::PivotEnhanced | Algo::PivotEnhancedPp) {
        p.protocol = Protocol::Enhanced;
        p.tree.stop_when_pure = false;
        p.keysize = p.keysize.max(192);
    }
    if !algo.is_pp() {
        p.crypto_threads = 1;
    }
    p
}
