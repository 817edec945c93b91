//! Threshold Paillier cryptosystem for the Pivot reproduction.
//!
//! The original Pivot implementation uses the `libhcs` C library; this crate
//! is a from-scratch Rust replacement implementing the same scheme:
//!
//! * Plain Paillier (`Gen`, `Enc`, `Dec`) over `Z_{N²}` with `g = N + 1`
//!   ([`keygen`], [`PublicKey::encrypt`], [`PrivateKey::decrypt`]).
//! * The additive homomorphisms of the paper's §2.1 — Eqn (1) ciphertext
//!   addition, Eqn (2) plaintext multiplication, Eqn (3) dot products — on
//!   [`Ciphertext`] and the vector helpers in [`vector`].
//! * The **full-threshold variant** (Fouque–Poupard–Stern / Damgård–Jurik
//!   style) used throughout Pivot: a trusted dealer Shamir-shares the secret
//!   exponent `β·M` so that decryption requires *all* `m` partial
//!   decryptions ([`threshold`]).
//!
//! Key sizes follow the paper: 1024-bit `N` for efficiency experiments,
//! 512-bit for accuracy experiments; tests use smaller fixture keys from
//! [`fixtures`] to stay fast.

pub mod batch;
mod ciphertext;
pub mod fixtures;
mod keygen;
pub mod nonce;
pub mod packing;
mod public;
pub mod threshold;
pub mod vector;
mod wire_impls;

pub use ciphertext::Ciphertext;
pub use keygen::{keygen, keypair_from_primes, KeyPair, PrivateKey};
pub use nonce::{NoncePool, NonceStats};
pub use packing::SlotCodec;
pub use public::PublicKey;
pub use threshold::{threshold_keygen, PartialDecryption, SecretKeyShare, ThresholdKeyPair};
