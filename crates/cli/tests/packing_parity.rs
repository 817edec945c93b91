//! End-to-end packed-vs-unpacked training parity: `packing = "auto"` must
//! train the same tree (argmax parity) and produce the same test metric as
//! `packing = "off"` — while pooling measurably fewer split-statistics
//! ciphertexts — for both protocols and a GBDT ensemble at m = 3.

use pivot_cli::algo::Algo;
use pivot_cli::runner::{execute, Execution};
use pivot_cli::scenario::Scenario;
use pivot_core::Counter;

fn scenario(tag: &str, body: &str) -> Scenario {
    let path = std::env::temp_dir().join(format!(
        "pivot-packing-parity-{}-{tag}.toml",
        std::process::id()
    ));
    std::fs::write(&path, body).unwrap();
    let s = Scenario::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    s
}

/// The packed run must release the same model and metric; the transcript
/// (bytes, ciphertext counts) legitimately differs.
fn assert_model_parity(off: &Execution, auto: &Execution) {
    assert_eq!(off.metric, auto.metric, "test metric");
    for (o, a) in off.parties.iter().zip(&auto.parties) {
        assert_eq!(
            o.predictions, a.predictions,
            "party {} predictions",
            o.party
        );
        assert_eq!(
            o.internal_nodes, a.internal_nodes,
            "party {} model",
            o.party
        );
        assert_eq!(o.tree_depth, a.tree_depth, "party {} depth", o.party);
    }
    let o = &off.parties[0].counters;
    let a = &auto.parties[0].counters;
    let pooled = |c: &pivot_core::Snapshot| c[Counter::SplitStatCiphertexts];
    assert!(
        pooled(a) < pooled(o),
        "packing must pool fewer split-stat ciphertexts ({} vs {})",
        pooled(a),
        pooled(o)
    );
    let packed = |c: &pivot_core::Snapshot| {
        [
            Counter::PackedCiphertexts,
            Counter::PackedValues,
            Counter::PackedSlotCapacity,
        ]
        .map(|p| c[p])
    };
    assert_eq!(packed(o), [0, 0, 0], "off run emits no packed ciphertexts");
    let [cts, values, capacity] = packed(a);
    assert!(cts > 0 && values > cts, "packed counters populated");
    assert!(values <= capacity, "occupancy is a fraction");
    let stats_bytes = |c: &pivot_core::Snapshot| c[Counter::StatsBytesSent];
    assert!(
        stats_bytes(a) < stats_bytes(o),
        "packing must shrink split-statistics traffic ({} vs {})",
        stats_bytes(a),
        stats_bytes(o)
    );
}

fn run_pair(base: &str, tag: &str, algo: Algo) -> (Execution, Execution) {
    let off = execute(
        &scenario(&format!("{tag}-off"), &format!("{base}packing = \"off\"\n")),
        algo,
        false,
    )
    .unwrap();
    // "auto" is the default: the base scenario as is.
    let auto = execute(&scenario(&format!("{tag}-auto"), base), algo, false).unwrap();
    (off, auto)
}

#[test]
fn basic_packed_training_matches_unpacked() {
    // keysize 128 admits two 63-bit slots (m = 3): the stride of 3 spans
    // two chunks, covering the chunked-stride path end to end.
    let base = "seed = 4242\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 36\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n";
    let (off, auto) = run_pair(base, "basic", Algo::PivotBasic);
    assert_model_parity(&off, &auto);
}

#[test]
fn enhanced_packed_training_matches_unpacked() {
    // Enhanced at keysize 256: the Eqn-10 slack widens the audited slot to
    // ~68 bits, leaving 3 slots — stride 3 packs into one ciphertext per
    // split. flip_y keeps internal nodes impure so every argmax has a
    // margin over the ±1-ulp truncation noise (see the core parity tests).
    let base = "seed = 99\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 30\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 256\n\
         crypto_threads = 4\nrandomness_pool = 64\n";
    let (off, auto) = run_pair(base, "enhanced", Algo::PivotEnhancedPp);
    assert_model_parity(&off, &auto);
}

#[test]
fn gbdt_packed_training_matches_unpacked() {
    // GBDT at keysize 256: three 68-bit share-sum slots (n = 30, m = 3), so
    // a node carries its stride (α, γ₁, γ₂) in one packed vector instead of
    // three and a split pools one ciphertext instead of three.
    let base = "seed = 7\nparties = 3\n\
         [data]\nkind = \"synthetic-regression\"\nsamples = 40\n\
         features_per_party = 2\nnoise = 0.05\n\
         [model]\nkind = \"gbdt\"\nrounds = 2\nlearning_rate = 0.5\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 256\n";
    let (off, auto) = run_pair(base, "gbdt", Algo::PivotBasic);
    assert_model_parity(&off, &auto);
    assert_eq!(
        off.parties[0].counters[Counter::SplitStatCiphertexts],
        3 * auto.parties[0].counters[Counter::SplitStatCiphertexts]
    );
    // The audit is the share-sum one: four slots fit the labels a super
    // client holds at this keysize, but not the residual vectors.
    let s = scenario("gbdt-four", &format!("{base}packing = 4\n"));
    let err = execute(&s, Algo::PivotBasic, false).unwrap_err();
    assert!(
        err.contains("exceeds the audited capacity of 3 68-bit slots"),
        "{err}"
    );
}

#[test]
fn explicit_slot_count_is_honoured() {
    // packing = 2 forces two slots even when auto would pick more; the
    // model still matches and the occupancy echoes the narrower layout.
    let base = "seed = 7\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 30\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 256\n";
    let off = execute(
        &scenario("slots-off", &format!("{base}packing = \"off\"\n")),
        Algo::PivotBasic,
        false,
    )
    .unwrap();
    let two = execute(
        &scenario("slots-two", &format!("{base}packing = 2\n")),
        Algo::PivotBasic,
        false,
    )
    .unwrap();
    assert_model_parity(&off, &two);
    // A slot count beyond the audited capacity must fail fast.
    let s = scenario("slots-nine", &format!("{base}packing = 9\n"));
    let err = execute(&s, Algo::PivotBasic, false).unwrap_err();
    assert!(err.contains("invalid parameters"), "{err}");
}
