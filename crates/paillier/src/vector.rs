//! Encrypted-vector helpers: the homomorphic dot products of paper Eqn (3),
//! which also carry the PIR-style private selection of Theorem 2 (§5.2): a
//! dot product with an encrypted one-hot vector.
//!
//! A binary dot product is a homomorphic sum, one [`PublicKey::add_all`]
//! chain: a selected term costs one multiplication on the selected
//! Montgomery kernel, and the whole chain one more. Training makes its
//! split statistics and PIR columns as bucket sums instead (pivot-core's
//! `stats` module), the same ciphertexts at a fraction of the terms.

use crate::{Ciphertext, PublicKey};
use pivot_bignum::BigUint;
use rand::Rng;

/// Encrypt every element of a plaintext vector.
pub fn encrypt_vec<R: Rng + ?Sized>(
    pk: &PublicKey,
    values: &[BigUint],
    rng: &mut R,
) -> Vec<Ciphertext> {
    values.iter().map(|v| pk.encrypt(v, rng)).collect()
}

/// Homomorphic dot product `x ⊙ [v]` with a **binary** plaintext vector
/// (paper Eqn 3 where `x ∈ {0,1}^n` — the dominant case in Pivot: indicator
/// vectors selecting samples): the product of the selected ciphertexts, one
/// [`PublicKey::add_all`] chain.
pub fn dot_binary(pk: &PublicKey, enc: &[Ciphertext], select: &[bool]) -> Ciphertext {
    assert_eq!(enc.len(), select.len(), "dimension mismatch in dot product");
    pk.add_all(
        enc.iter()
            .zip(select)
            .filter(|(_, &keep)| keep)
            .map(|(c, _)| c),
    )
}

/// Homomorphic dot product `x ⊙ [v]` with an arbitrary plaintext vector
/// (paper Eqn 3): `Π [vᵢ]^{xᵢ} = [Σ xᵢ·vᵢ]`.
pub fn dot_plain(pk: &PublicKey, enc: &[Ciphertext], plain: &[BigUint]) -> Ciphertext {
    assert_eq!(enc.len(), plain.len(), "dimension mismatch in dot product");
    // Split the product: weight-1 terms join one product chain; the rest
    // form one simultaneous multi-exponentiation `Π cᵢ^{xᵢ}` whose squaring
    // chain is shared across every term (Shamir's trick) instead of paying
    // a full windowed `mul_plain` per ciphertext.
    let mut pow_pairs: Vec<(&BigUint, &BigUint)> = Vec::new();
    let mut ones: Vec<&Ciphertext> = Vec::new();
    for (c, x) in enc.iter().zip(plain) {
        if x.is_one() {
            ones.push(c);
        } else if !x.is_zero() {
            pow_pairs.push((c.raw(), x));
        }
    }
    let powers =
        (!pow_pairs.is_empty()).then(|| Ciphertext::from_raw(pk.mont().multi_pow(&pow_pairs)));
    pk.add_all(ones.into_iter().chain(&powers))
}

/// Element-wise homomorphic multiplication of an encrypted vector by a
/// plaintext binary vector — the paper's `βₖ ⊙ [α]`-style mask refinement,
/// where a 0 entry must become a fresh encryption of 0 (not a trivial one,
/// which would leak the position).
pub fn mask_binary<R: Rng + ?Sized>(
    pk: &PublicKey,
    enc: &[Ciphertext],
    mask: &[bool],
    rng: &mut R,
) -> Vec<Ciphertext> {
    assert_eq!(enc.len(), mask.len(), "dimension mismatch in mask");
    enc.iter()
        .zip(mask)
        .map(|(c, &keep)| {
            if keep {
                pk.rerandomize(c, rng)
            } else {
                pk.encrypt(&BigUint::zero(), rng)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (crate::KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        (keygen(&mut rng, 128), rng)
    }

    fn nums(vals: &[u64]) -> Vec<BigUint> {
        vals.iter().map(|&v| BigUint::from_u64(v)).collect()
    }

    #[test]
    fn binary_dot_product() {
        let (kp, mut rng) = setup();
        let enc = encrypt_vec(&kp.pk, &nums(&[10, 20, 30, 40]), &mut rng);
        let sel = [true, false, true, false];
        let c = dot_binary(&kp.pk, &enc, &sel);
        assert_eq!(kp.sk.decrypt(&c), BigUint::from_u64(40));
    }

    #[test]
    fn plain_dot_product() {
        let (kp, mut rng) = setup();
        let enc = encrypt_vec(&kp.pk, &nums(&[1, 2, 3]), &mut rng);
        let weights = nums(&[5, 0, 7]);
        let c = dot_plain(&kp.pk, &enc, &weights);
        assert_eq!(kp.sk.decrypt(&c), BigUint::from_u64(5 + 21));
    }

    #[test]
    fn empty_selection_is_zero() {
        let (kp, mut rng) = setup();
        let enc = encrypt_vec(&kp.pk, &nums(&[9, 9]), &mut rng);
        let c = dot_binary(&kp.pk, &enc, &[false, false]);
        assert_eq!(kp.sk.decrypt(&c), BigUint::zero());
    }

    #[test]
    fn mask_zeroes_hidden_entries() {
        let (kp, mut rng) = setup();
        let enc = encrypt_vec(&kp.pk, &nums(&[3, 4, 5]), &mut rng);
        let masked = mask_binary(&kp.pk, &enc, &[true, false, true], &mut rng);
        let dec: Vec<u64> = masked
            .iter()
            .map(|c| kp.sk.decrypt(c).to_u64().unwrap())
            .collect();
        assert_eq!(dec, vec![3, 0, 5]);
        // Re-randomization: ciphertexts differ from the originals.
        assert_ne!(masked[0].raw(), enc[0].raw());
    }

    #[test]
    fn theorem2_selects_matrix_column() {
        // Theorem 2's selection is one binary dot product per row of V
        // with the encrypted one-hot column.
        let (kp, mut rng) = setup();
        // V is 3×4; one-hot selects column 2.
        let rows = [
            [true, false, true, false],
            [false, false, false, true],
            [false, true, true, true],
        ];
        let onehot = encrypt_vec(&kp.pk, &nums(&[0, 0, 1, 0]), &mut rng);
        let dec: Vec<u64> = rows
            .iter()
            .map(|row| {
                kp.sk
                    .decrypt(&dot_binary(&kp.pk, &onehot, row))
                    .to_u64()
                    .unwrap()
            })
            .collect();
        // Column 2 of V is (1, 0, 1).
        assert_eq!(dec, vec![1, 0, 1]);
    }

    #[test]
    fn select_value_by_onehot() {
        let (kp, mut rng) = setup();
        let values = nums(&[100, 200, 300]);
        let onehot = encrypt_vec(&kp.pk, &nums(&[0, 1, 0]), &mut rng);
        let c = dot_plain(&kp.pk, &onehot, &values);
        assert_eq!(kp.sk.decrypt(&c), BigUint::from_u64(200));
    }

    #[test]
    fn add_all_sums_a_vector() {
        let (kp, mut rng) = setup();
        let enc = encrypt_vec(&kp.pk, &nums(&[1, 2, 3, 4]), &mut rng);
        assert_eq!(kp.sk.decrypt(&kp.pk.add_all(&enc)), BigUint::from_u64(10));
        // The empty sum is the trivial [0]; a sum of one is its term.
        assert_eq!(kp.pk.add_all([]).raw(), kp.pk.trivial_zero().raw());
        assert_eq!(kp.pk.add_all(&enc[..1]).raw(), enc[0].raw());
    }
}
