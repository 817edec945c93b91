//! The batched-crypto determinism contract, end to end: a `-pp` run
//! (shared worker pool, 4 threads, warm offline randomness pool) must
//! reproduce the non-`-pp` run (1 thread, no pool, through the same batch
//! API) **bit for bit** — same trained model, same test
//! metric and predictions, same per-party byte counts — under the same
//! scenario seed, for both protocols with m = 3 parties.
//!
//! This is what lets the paper's Figure-4/5 `-PP` curves be read as pure
//! wall-clock effects: the protocol transcript is unchanged.

use pivot_cli::algo::Algo;
use pivot_cli::runner::{execute, Execution};
use pivot_cli::scenario::Scenario;

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

/// Assert two executions are transcript-identical (everything except wall
/// clocks and the timing-dependent pool counters).
fn assert_transcript_identical(serial: &Execution, parallel: &Execution) {
    assert_eq!(serial.parties.len(), parallel.parties.len());
    assert_eq!(serial.metric, parallel.metric, "test metric");
    for (s, p) in serial.parties.iter().zip(&parallel.parties) {
        assert_eq!(
            s.predictions, p.predictions,
            "party {} predictions",
            s.party
        );
        assert_eq!(
            s.internal_nodes, p.internal_nodes,
            "party {} model",
            s.party
        );
        assert_eq!(s.tree_depth, p.tree_depth, "party {} depth", s.party);
        assert_eq!(
            (
                s.train_bytes_sent,
                s.train_bytes_received,
                s.train_messages_sent
            ),
            (
                p.train_bytes_sent,
                p.train_bytes_received,
                p.train_messages_sent
            ),
            "party {} training traffic",
            s.party
        );
        assert_eq!(
            (s.predict_bytes_sent, s.predict_bytes_received),
            (p.predict_bytes_sent, p.predict_bytes_received),
            "party {} prediction traffic",
            s.party
        );
        assert_eq!(
            (s.encryptions, s.ciphertext_ops, s.threshold_decryptions),
            (p.encryptions, p.ciphertext_ops, p.threshold_decryptions),
            "party {} crypto op counts",
            s.party
        );
        assert_eq!(
            (s.mpc_rounds, s.secure_mults, s.secure_comparisons),
            (p.mpc_rounds, p.secure_mults, p.secure_comparisons),
            "party {} MPC op counts",
            s.party
        );
    }
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
    assert_eq!(serial.parties[0].pool.target, 0, "serial pool disabled");
    assert_eq!(
        parallel.parties[0].pool.target, 64,
        "pool enabled under -PP"
    );
    let pool = &parallel.parties[0].pool;
    assert!(
        pool.hits + pool.misses > 0,
        "-PP run drew nonces through the pool"
    );
    // Both runs drew the same preprocessing from the dealer (the scenario
    // sets the retired `dealer_pool` key, which must size nothing).
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
