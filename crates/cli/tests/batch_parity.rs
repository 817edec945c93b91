//! The batched-crypto determinism contract, end to end: a `-pp` run
//! (shared worker pool, 4 threads, nonce powers computed on them) must
//! reproduce the non-`-pp` run (1 thread, through the same batch API)
//! **bit for bit** — same trained model, same test metric and
//! predictions, same per-party byte and operation counts — under the same
//! scenario seed, for both protocols with m = 3 parties.
//!
//! This is what lets the paper's Figure-4/5 `-PP` curves be read as pure
//! wall-clock effects: the protocol transcript is unchanged.

use pivot_cli::algo::Algo;
use pivot_cli::runner::{execute, Execution, PartyOutcome};
use pivot_cli::scenario::Scenario;
use std::time::Duration;

fn scenario(tag: &str, body: &str) -> Scenario {
    let path = std::env::temp_dir().join(format!(
        "pivot-batch-parity-{}-{tag}.toml",
        std::process::id()
    ));
    std::fs::write(&path, body).unwrap();
    let s = Scenario::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    s
}

/// Every field of a party's outcome except its wall clocks.
fn transcript(p: &PartyOutcome) -> String {
    let mut p = p.clone();
    p.stage_s = [0.0; 4];
    p.setup_wall_s = 0.0;
    p.train_wall_s = 0.0;
    p.predict_wall_s = 0.0;
    p.verification.wall = Duration::ZERO;
    format!("{p:#?}")
}

/// Assert two executions are transcript-identical: the metric and every
/// `PartyOutcome` field except wall clocks.
fn assert_transcript_identical(serial: &Execution, parallel: &Execution) {
    assert_eq!(serial.parties.len(), parallel.parties.len());
    assert_eq!(serial.metric, parallel.metric, "test metric");
    for (s, p) in serial.parties.iter().zip(&parallel.parties) {
        assert_eq!(transcript(s), transcript(p), "party {}", s.party);
    }
    assert!(serial.parties[0].encryptions > 0, "no encryption ran");
}

#[test]
fn basic_pp_is_bit_identical_to_serial() {
    let s = scenario(
        "basic",
        "seed = 1234\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 48\n\
         features_per_party = 2\nclasses = 2\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n\
         crypto_threads = 4\nrandomness_pool = 64\ndealer_pool = 128\n",
    );
    let serial = execute(&s, Algo::PivotBasic, false).unwrap();
    let parallel = execute(&s, Algo::PivotBasicPp, false).unwrap();
    assert_transcript_identical(&serial, &parallel);
    // The parallel run actually exercised the batched path.
    assert!(serial.parties[0].threshold_decryptions > 0);
    // Both runs drew the same preprocessing from the dealer (the scenario
    // sets the retired `dealer_pool` and `randomness_pool` keys, which
    // must size nothing).
    let (s, p) = (
        &serial.parties[0].comparison,
        &parallel.parties[0].comparison,
    );
    assert!(s.beaver_triples > 0 && s.masked_bit_rows > 0);
    assert_eq!(
        (s.beaver_triples, s.masked_bit_rows),
        (p.beaver_triples, p.masked_bit_rows)
    );
}

#[test]
fn enhanced_pp_is_bit_identical_to_serial() {
    let s = scenario(
        "enhanced",
        "seed = 777\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 40\n\
         features_per_party = 2\nclasses = 2\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 192\n\
         crypto_threads = 4\nrandomness_pool = 64\n",
    );
    let serial = execute(&s, Algo::PivotEnhanced, false).unwrap();
    let parallel = execute(&s, Algo::PivotEnhancedPp, false).unwrap();
    assert_transcript_identical(&serial, &parallel);
    assert!(serial.parties[0].threshold_decryptions > 0);
}

#[test]
fn regression_gbdt_pp_is_bit_identical_to_serial() {
    // Ensembles ride the basic protocol; cover the regression label-mask
    // path (mul_plain_batch + rerandomize_batch) and residual updates.
    let s = scenario(
        "gbdt",
        "seed = 42\nparties = 3\n\
         [data]\nkind = \"synthetic-regression\"\nsamples = 40\n\
         features_per_party = 2\n\
         [model]\nkind = \"gbdt\"\nrounds = 2\nlearning_rate = 0.5\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n\
         crypto_threads = 4\nrandomness_pool = 32\n",
    );
    let serial = execute(&s, Algo::PivotBasic, false).unwrap();
    let parallel = execute(&s, Algo::PivotBasicPp, false).unwrap();
    assert_transcript_identical(&serial, &parallel);
}
