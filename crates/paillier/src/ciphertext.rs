//! Paillier ciphertexts.

use pivot_bignum::BigUint;
use std::fmt;

/// A Paillier ciphertext: an element of `Z_{N²}^*`.
///
/// All arithmetic lives on [`crate::PublicKey`] (which owns the Montgomery
/// context); `Ciphertext` itself is a thin, serializable wrapper. The paper
/// writes this as `[x]`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ciphertext {
    raw: BigUint,
}

impl Ciphertext {
    /// Wrap a raw ciphertext value (must already be reduced mod `N²`).
    pub fn from_raw(raw: BigUint) -> Self {
        Ciphertext { raw }
    }

    /// The raw group element.
    pub fn raw(&self) -> &BigUint {
        &self.raw
    }

    /// Consume into the raw group element.
    pub fn into_raw(self) -> BigUint {
        self.raw
    }
}

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Ciphertexts are opaque; print a short fingerprint only.
        let hex = self.raw.to_hex();
        let head = &hex[..hex.len().min(12)];
        write!(f, "Ciphertext({head}…, {} bits)", self.raw.bits())
    }
}
