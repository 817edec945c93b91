//! Arbitrary-precision integer arithmetic for the Pivot reproduction.
//!
//! The original Pivot implementation (Wu et al., VLDB 2020) uses GMP for
//! big-integer computation. This crate is a from-scratch replacement that
//! provides everything the threshold Paillier cryptosystem and the MPC layer
//! need:
//!
//! * [`BigUint`] — unsigned magnitudes (little-endian `u64` limbs) with
//!   schoolbook + Karatsuba multiplication and Knuth Algorithm D division.
//! * [`BigInt`] — signed integers for extended-gcd style computations.
//! * [`Montgomery`] — Montgomery multiplication, squaring and sliding-window
//!   exponentiation for odd moduli (the hot path of Paillier): in-place
//!   kernels over caller-owned buffers and ladders that allocate nothing
//!   per step (see the module docs of `montgomery.rs`).
//! * [`prime`] — Miller–Rabin testing plus (safe-)prime generation.
//! * [`rng`] — uniform random sampling of big integers.
//!
//! Everything is written for clarity-first correctness and in safe Rust; the
//! Montgomery layer alone is written for speed, because every homomorphic
//! operation, partial decryption, proof and primality test above it is a
//! count of its multiplications and squarings.

mod int;
mod modular;
mod montgomery;
pub mod prime;
pub mod rng;
mod uint;

pub use int::{BigInt, Sign};
pub use modular::{egcd, gcd, lcm, mod_inverse, mod_mul, mod_pow};
pub use montgomery::{ExponentSchedule, Montgomery};
pub use uint::{BigUint, Limb, LIMB_BITS};

#[cfg(test)]
mod proptests;
