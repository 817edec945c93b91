//! SPDZ-style semi-honest MPC over a 61-bit Mersenne prime field.
//!
//! The original Pivot uses the MP-SPDZ framework's semi-honest additive
//! secret sharing and reports *online-phase* time only (§8.1). This crate
//! reproduces that stack:
//!
//! * [`Fp`] — the computation domain `Z_p`, `p = 2^61 − 1` (Mersenne, so
//!   reduction is two folds and a conditional subtract).
//! * [`Share`] — additive shares with free linear operations.
//! * [`dealer`] — the offline phase: Beaver triples, shared random bits and
//!   masked-truncation material, derived from a common seed so the online
//!   protocol pays zero communication for preprocessing (exactly the cost
//!   model of the paper's reported numbers).
//! * [`MpcEngine`] — vectorized online protocols: open, multiply (Beaver),
//!   fixed-point truncation, comparison (Catrina–de Hoogh style with shared
//!   random bits), division (Goldschmidt reciprocal), exponential/softmax
//!   (for GBDT, §7.2), argmax (best-split selection, §4.1), and the
//!   differential-privacy samplers of §9.2 (Algorithms 5 and 6).
//!
//! All collective operations are **vectorized**: one communication round
//! handles a whole vector, mirroring the SPDZ compiler's vectorization.

pub mod dealer;
pub mod dp;
mod engine;
mod field;
mod fixed;
mod share;

pub use dealer::DealerClient;
pub use engine::{width_for_magnitude, CompareBits, MpcEngine};
pub use field::{Fp, MODULUS};
pub use fixed::FixedConfig;
pub use share::{add_vec, scale_vec, sub_vec, sum_shares, Share};
