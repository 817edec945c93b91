//! Smoke test: every `pivot::*` re-export resolves and the headline types
//! are usable through the facade paths alone.

use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_reexports_resolve() {
    // bignum
    let x = pivot::bignum::BigUint::from_u64(42);
    assert_eq!(x.to_decimal(), "42");
    let _ = pivot::bignum::BigInt::from(x);
    assert!(pivot::bignum::LIMB_BITS >= 32);

    // paillier
    let mut rng = StdRng::seed_from_u64(1);
    let kp = pivot::paillier::keygen(&mut rng, 128);
    let c = kp
        .pk
        .encrypt(&pivot::bignum::BigUint::from_u64(7), &mut rng);
    assert_eq!(kp.sk.decrypt(&c), pivot::bignum::BigUint::from_u64(7));

    // transport
    let results = pivot::transport::run_parties(2, |ep| ep.parties());
    assert_eq!(results, vec![2, 2]);

    // mpc
    let _cfg = pivot::mpc::FixedConfig::default();

    // data
    let ds = pivot::data::synth::make_classification(&Default::default());
    assert!(ds.num_samples() > 0);
    let _split = pivot::data::partition_vertically(&ds, 3, 0);
    assert!(pivot::data::metrics::accuracy(&[1.0], &[1.0]) == 1.0);

    // trees
    let params = pivot::trees::TreeParams::default();
    assert!(params.max_depth >= 1);

    // core
    let p = pivot::core::PivotParams::default();
    assert_eq!(p.protocol, pivot::core::Protocol::Basic);
    let enhanced = pivot::core::PivotParams::enhanced();
    assert_eq!(enhanced.protocol, pivot::core::Protocol::Enhanced);
    let counters = pivot::core::Counters::new();
    counters.add(pivot::core::Counter::Encryptions, 2);
    assert_eq!(counters.snapshot()[pivot::core::Counter::Encryptions], 2);

    // zkp (proof types are exercised end-to-end in tests/malicious_zkp.rs)
    let mut hasher = pivot::zkp::Sha256::new();
    hasher.update(b"facade");
    let digest = hasher.finalize();
    assert_eq!(digest.len(), 32);
}
