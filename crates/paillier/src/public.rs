//! The Paillier public key and encryption.

use crate::Ciphertext;
use pivot_bignum::{rng as brng, BigUint, ExponentSchedule, Montgomery};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Paillier public key `(N, g = N+1)` with a shared Montgomery context for
/// `N²` (the hot path of every homomorphic operation).
///
/// Cloning is cheap (`Arc` inside); the key is `Send + Sync` so all client
/// threads share one context.
#[derive(Clone)]
pub struct PublicKey {
    inner: Arc<PkInner>,
}

struct PkInner {
    n: BigUint,
    n2: BigUint,
    half_n: BigUint,
    mont_n2: Montgomery,
    /// `N − 1`: the negation exponent, cached so `neg` stops recomputing
    /// it per call.
    n_minus_1: BigUint,
    /// Window recoding of the fixed exponent `N`, precomputed once so the
    /// nonce power `r^N mod N²` — the dominant cost of every encryption,
    /// re-randomization and ZKP commitment — skips per-call exponent
    /// scanning ([`Montgomery::pow_scheduled`]).
    n_schedule: ExponentSchedule,
    /// The trivial encryption of zero (raw value 1), cached so vector
    /// accumulators stop re-deriving `encrypt_trivial(&zero)` per call.
    zero_ct: Ciphertext,
}

impl PublicKey {
    /// Build a public key from the modulus `N`.
    pub fn from_n(n: BigUint) -> Self {
        assert!(n.is_odd() && n.bits() >= 16, "implausible Paillier modulus");
        let n2 = &n * &n;
        let half_n = n.shr_bits(1);
        let mont_n2 = Montgomery::new(&n2);
        let n_minus_1 = &n - &BigUint::one();
        let n_schedule = ExponentSchedule::recode(&n);
        // (1+N)^0 · 1^N = 1 mod N².
        let zero_ct = Ciphertext::from_raw(BigUint::one());
        PublicKey {
            inner: Arc::new(PkInner {
                n,
                n2,
                half_n,
                mont_n2,
                n_minus_1,
                n_schedule,
                zero_ct,
            }),
        }
    }

    /// The modulus `N` (also the plaintext space size).
    pub fn n(&self) -> &BigUint {
        &self.inner.n
    }

    /// `N²` — the ciphertext space modulus.
    pub fn n_squared(&self) -> &BigUint {
        &self.inner.n2
    }

    /// `⌊N/2⌋`, the signed-encoding boundary.
    pub fn half_n(&self) -> &BigUint {
        &self.inner.half_n
    }

    /// Montgomery context modulo `N²`.
    pub(crate) fn mont(&self) -> &Montgomery {
        &self.inner.mont_n2
    }

    /// Bits of `N` (the paper's "keysize").
    pub fn keysize(&self) -> u32 {
        self.inner.n.bits()
    }

    /// The nonce power `r^N mod N²` via the cached window recoding of the
    /// fixed exponent `N` — bit-identical to `mont().pow(r, n)`.
    pub fn pow_n(&self, r: &BigUint) -> BigUint {
        self.inner.mont_n2.pow_scheduled(r, &self.inner.n_schedule)
    }

    /// [`Self::pow_n`] for every nonce of a batch, the nonces advancing in
    /// pairs through one ladder ([`Montgomery::pow_scheduled_batch`]).
    pub fn pow_n_batch(&self, rs: &[BigUint]) -> Vec<BigUint> {
        self.inner
            .mont_n2
            .pow_scheduled_batch(rs, &self.inner.n_schedule)
    }

    /// Encrypt a plaintext in `[0, N)`.
    ///
    /// `c = (1+N)^x · r^N mod N²`, using the binomial identity
    /// `(1+N)^x ≡ 1 + xN (mod N²)` so only one exponentiation (`r^N`) is paid.
    pub fn encrypt<R: Rng + ?Sized>(&self, x: &BigUint, rng: &mut R) -> Ciphertext {
        let r = brng::gen_coprime(rng, self.n());
        self.encrypt_with(x, &r)
    }

    /// Encrypt with caller-supplied randomness (used by ZKP provers and
    /// deterministic tests).
    pub fn encrypt_with(&self, x: &BigUint, r: &BigUint) -> Ciphertext {
        // r^N mod N² via the cached fixed-exponent schedule.
        let rn = self.pow_n(r);
        self.encrypt_with_rn(x, &rn)
    }

    /// Encrypt with an already computed nonce power `rn = r^N mod N²` (the
    /// batch path, whose powers come from a `NoncePool`): one modular
    /// multiplication plus the binomial add.
    pub fn encrypt_with_rn(&self, x: &BigUint, rn: &BigUint) -> Ciphertext {
        let x = x.rem_of(self.n());
        if x.is_zero() {
            // (1+N)^0 = 1: the ciphertext is the nonce power itself.
            return Ciphertext::from_raw(rn.clone());
        }
        // (1+N)^x = 1 + xN mod N²
        let gx = (BigUint::one() + &x * self.n()).rem_of(self.n_squared());
        Ciphertext::from_raw(self.mont().mul(&gx, rn))
    }

    /// The trivial (deterministic, randomness = 1) encryption of `x`.
    /// Used for public constants; NOT semantically secure on its own.
    pub fn encrypt_trivial(&self, x: &BigUint) -> Ciphertext {
        if x.is_zero() {
            return self.inner.zero_ct.clone();
        }
        let x = x.rem_of(self.n());
        Ciphertext::from_raw((BigUint::one() + &x * self.n()).rem_of(self.n_squared()))
    }

    /// The cached trivial encryption of zero (raw value 1) — the identity
    /// of homomorphic addition.
    pub fn trivial_zero(&self) -> &Ciphertext {
        &self.inner.zero_ct
    }

    /// Homomorphic addition (paper Eqn 1): `[x1] ⊕ [x2] = [x1 + x2]`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.add_all([a, b])
    }

    /// The homomorphic sum of every ciphertext, `[Σ xᵢ]`: their product
    /// mod `N²` as one [`Montgomery::product`] chain, one kernel
    /// multiplication per term. The empty sum is the trivial `[0]`, raw 1.
    pub fn add_all<'a>(&self, cts: impl IntoIterator<Item = &'a Ciphertext>) -> Ciphertext {
        Ciphertext::from_raw(self.mont().product(cts.into_iter().map(Ciphertext::raw)))
    }

    /// Homomorphic plaintext multiplication (paper Eqn 2):
    /// `k ⊗ [x] = [k·x]`.
    pub fn mul_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext::from_raw(self.mont().pow(a.raw(), k))
    }

    /// Homomorphic subtraction: `[x1] ⊖ [x2] = [x1 - x2]` (mod `N`).
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let neg_b = self.neg(b);
        self.add(a, &neg_b)
    }

    /// Homomorphic negation: `[x] → [N - x]`.
    pub fn neg(&self, a: &Ciphertext) -> Ciphertext {
        // c^{N-1} = [ (N-1) x ] = [-x mod N]; exponent cached in PkInner.
        self.mul_plain(a, &self.inner.n_minus_1)
    }

    /// Re-randomize a ciphertext (multiply by a fresh encryption of zero).
    pub fn rerandomize<R: Rng + ?Sized>(&self, a: &Ciphertext, rng: &mut R) -> Ciphertext {
        let r = brng::gen_coprime(rng, self.n());
        let rn = self.pow_n(&r);
        self.rerandomize_with_rn(a, &rn)
    }

    /// Re-randomize with a precomputed nonce power `rn = r^N mod N²`.
    pub fn rerandomize_with_rn(&self, a: &Ciphertext, rn: &BigUint) -> Ciphertext {
        Ciphertext::from_raw(self.mont().mul(a.raw(), rn))
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey(keysize={})", self.keysize())
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.inner.n == other.inner.n
    }
}

impl Eq for PublicKey {}
