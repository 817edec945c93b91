//! End-to-end bounded-vs-full-width comparison parity: the default
//! `comparison_bits = "auto"` must release exactly the model, predictions,
//! and metric of a run whose width floor is `int_bits` (45: every
//! comparison at full width) — comparisons are exact at any proven width,
//! so every argmax is range-invariant — while opening measurably fewer
//! field elements in fewer comparison rounds, for both protocols.

use pivot_cli::algo::Algo;
use pivot_cli::runner::{execute, Execution};
use pivot_cli::scenario::Scenario;
use pivot_core::{Counter, Snapshot};

fn scenario(tag: &str, body: &str) -> Scenario {
    let path = std::env::temp_dir().join(format!(
        "pivot-comparison-parity-{}-{tag}.toml",
        std::process::id()
    ));
    std::fs::write(&path, body).unwrap();
    let s = Scenario::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    s
}

/// The non-zero cells of a registry's comparison-width histogram, as
/// `(width, comparisons)`.
fn widths(s: &Snapshot) -> Vec<(u32, u64)> {
    (0u32..)
        .zip(s.cells(Counter::CmpWidths))
        .filter(|&(_, &n)| n > 0)
        .map(|(k, &n)| (k, n))
        .collect()
}

/// The bounded run must release the same model and metric; the comparison
/// transcript must shrink (opened ≥2×, masked bits ≥2×, fewer rounds) with
/// fewer total bytes on the wire.
fn assert_parity_and_reduction(full: &Execution, auto: &Execution) {
    assert_eq!(full.metric, auto.metric, "test metric");
    for (f, a) in full.parties.iter().zip(&auto.parties) {
        assert_eq!(
            f.predictions, a.predictions,
            "party {} predictions",
            f.party
        );
        assert_eq!(
            f.internal_nodes, a.internal_nodes,
            "party {} model",
            f.party
        );
        assert_eq!(f.tree_depth, a.tree_depth, "party {} depth", f.party);
    }
    let f = &full.parties[0].counters;
    let a = &auto.parties[0].counters;
    assert_eq!(
        f[Counter::SecureComparisons],
        a[Counter::SecureComparisons],
        "same number of secure comparisons"
    );
    assert!(
        f[Counter::CmpOpened] >= 2 * a[Counter::CmpOpened],
        "comparison openings must drop >=2x: full {} vs auto {}",
        f[Counter::CmpOpened],
        a[Counter::CmpOpened]
    );
    assert!(
        f[Counter::CmpRounds] > a[Counter::CmpRounds],
        "comparison rounds must drop: full {} vs auto {}",
        f[Counter::CmpRounds],
        a[Counter::CmpRounds]
    );
    assert!(
        f[Counter::CmpMaskedBits] >= 2 * a[Counter::CmpMaskedBits],
        "masked-bit consumption must drop >=2x: full {} vs auto {}",
        f[Counter::CmpMaskedBits],
        a[Counter::CmpMaskedBits]
    );
    // The full run compares at exactly int_bits. The auto run derives
    // per-site widths; only comparisons without a provable range (the
    // enhanced prediction's feature-vs-threshold tests) may stay at 45.
    assert_eq!(widths(f).len(), 1, "full uses one width: {:?}", widths(f));
    assert_eq!(widths(f)[0].0, 45);
    let bounded: u64 = widths(a)
        .iter()
        .filter(|&&(k, _)| k < 45)
        .map(|&(_, n)| n)
        .sum();
    let unbounded: u64 = widths(a)
        .iter()
        .filter(|&&(k, _)| k >= 45)
        .map(|&(_, n)| n)
        .sum();
    assert!(
        bounded > 10 * unbounded,
        "bounded widths must dominate: {:?}",
        widths(a)
    );
    assert!(widths(a).len() > 1, "auto derives per-site widths");
    assert!(
        auto.parties[0].train[Counter::BytesSent] < full.parties[0].train[Counter::BytesSent],
        "bounded comparisons must shrink total training traffic ({} vs {})",
        auto.parties[0].train[Counter::BytesSent],
        full.parties[0].train[Counter::BytesSent]
    );
}

/// `(full-width, auto)`: the base scenario with the width floor at
/// `int_bits`, and as is (`"auto"` is the default).
fn run_pair(base: &str, tag: &str, algo: Algo) -> (Execution, Execution) {
    let full = execute(
        &scenario(
            &format!("{tag}-full"),
            &format!("{base}comparison_bits = 45\n"),
        ),
        algo,
        false,
    )
    .unwrap();
    let auto = execute(&scenario(&format!("{tag}-auto"), base), algo, false).unwrap();
    (full, auto)
}

#[test]
fn basic_bounded_comparisons_match_full() {
    let base = "seed = 4242\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 36\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n";
    let (full, auto) = run_pair(base, "basic", Algo::PivotBasic);
    assert_parity_and_reduction(&full, &auto);
}

#[test]
fn enhanced_bounded_comparisons_match_full() {
    // Enhanced adds the one-hot/PIR comparisons (shared-mask pairs) and
    // the block-only reveal to the bounded surface; run under -PP, with
    // the retired `dealer_pool` key set.
    let base = "seed = 99\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 30\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 256\n\
         crypto_threads = 4\nrandomness_pool = 64\ndealer_pool = 128\n";
    let (full, auto) = run_pair(base, "enhanced", Algo::PivotEnhancedPp);
    assert_parity_and_reduction(&full, &auto);
    for run in [&full, &auto] {
        let c = &run.parties[0].counters;
        assert!(
            c[Counter::CmpTriples] > 0 && c[Counter::CmpMaskedRows] > 0,
            "the comparisons drew preprocessing: {c:?}"
        );
    }
}

#[test]
fn width_floor_sits_between_full_and_auto() {
    let base = "seed = 7\nparties = 2\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 30\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n";
    let (full, auto) = run_pair(base, "floor", Algo::PivotBasic);
    let floored = execute(
        &scenario("floor-30", &format!("{base}comparison_bits = 30\n")),
        Algo::PivotBasic,
        false,
    )
    .unwrap();
    assert_eq!(full.metric, floored.metric);
    assert_eq!(full.parties[0].predictions, floored.parties[0].predictions);
    let f = full.parties[0].counters[Counter::CmpOpened];
    let m = floored.parties[0].counters[Counter::CmpOpened];
    let a = auto.parties[0].counters[Counter::CmpOpened];
    assert!(
        a < m && m < f,
        "floor sits between: auto {a} < floor {m} < full {f}"
    );
    assert!(
        widths(&floored.parties[0].counters)
            .iter()
            .all(|&(k, _)| k >= 30),
        "floor raises every width: {:?}",
        widths(&floored.parties[0].counters)
    );
}

/// Range-invariance proof on a *near-tie* scenario: at depth 4 with thin
/// nodes this seed's gains carry sub-ulp margins, where any change to a
/// comparison's outcome would flip an argmax. The widths never change a
/// comparison: a width floor of `int_bits` (full-width comparisons) must
/// reproduce the `"auto"` run — model, metric, and predictions — exactly.
#[test]
fn widths_never_flip_a_comparison_even_on_near_ties() {
    let base = "seed = 0xBE7C4\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 120\n\
         features_per_party = 2\nclasses = 2\n\
         [params]\nmax_depth = 4\nmax_splits = 4\nkeysize = 256\n";
    let (floored, auto) = run_pair(base, "ties", Algo::PivotBasic);
    assert_eq!(auto.metric, floored.metric);
    for (a, f) in auto.parties.iter().zip(&floored.parties) {
        assert_eq!(a.predictions, f.predictions, "party {}", a.party);
        assert_eq!(a.internal_nodes, f.internal_nodes);
        assert_eq!(a.tree_depth, f.tree_depth);
    }
    // Same comparisons, narrower transcript.
    let a = &auto.parties[0].counters;
    let f = &floored.parties[0].counters;
    assert_eq!(a[Counter::SecureComparisons], f[Counter::SecureComparisons]);
    assert!(a[Counter::CmpOpened] < f[Counter::CmpOpened]);
}

/// GBDT residual trees train on residuals that can exceed the ±1
/// normalized-label contract, so their gain argmax must keep the full
/// fixed-point width under `"auto"` (`gain_width`'s `task_override` gate)
/// — while the count-based comparisons stay bounded.
#[test]
fn gbdt_residual_gain_argmax_keeps_full_width() {
    let base = "seed = 13\nparties = 2\n\
         [data]\nkind = \"synthetic-regression\"\nsamples = 40\n\
         features_per_party = 2\n\
         [model]\nkind = \"gbdt\"\nrounds = 3\nlearning_rate = 0.5\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n";
    let (full, auto) = run_pair(base, "gbdt", Algo::PivotBasic);
    for (f, a) in full.parties.iter().zip(&auto.parties) {
        assert_eq!(f.internal_nodes, a.internal_nodes, "model shape");
        assert_eq!(f.predictions, a.predictions, "party {}", f.party);
    }
    let widths = &widths(&auto.parties[0].counters);
    let at_full: u64 = widths
        .iter()
        .filter(|&&(k, _)| k == 45)
        .map(|&(_, n)| n)
        .sum();
    let bounded: u64 = widths
        .iter()
        .filter(|&&(k, _)| k < 45)
        .map(|&(_, n)| n)
        .sum();
    assert!(
        at_full > 0,
        "residual gain argmax must stay at int_bits: {widths:?}"
    );
    assert!(
        bounded > 0,
        "count-based comparisons must stay bounded: {widths:?}"
    );
    assert!(
        auto.parties[0].counters[Counter::CmpOpened] < full.parties[0].counters[Counter::CmpOpened],
        "bounded count comparisons still shrink the transcript"
    );
}

#[test]
fn bounded_regression_gbdt_leaves_match_within_ulp() {
    // Regression exercises recip_vec_int's Goldschmidt tail and the
    // fixed-point leaf means. Truncation masks come from the dealer's
    // call-order stream, which no comparison advances, so the leaves are
    // not merely within an ulp of the full-width run's but equal.
    let base = "seed = 11\nparties = 2\n\
         [data]\nkind = \"synthetic-regression\"\nsamples = 40\n\
         features_per_party = 2\n\
         [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n";
    let (full, auto) = run_pair(base, "regression", Algo::PivotBasic);
    for (f, a) in full.parties.iter().zip(&auto.parties) {
        assert_eq!(f.internal_nodes, a.internal_nodes, "model shape");
        assert_eq!(f.predictions, a.predictions, "party {}", f.party);
    }
    let f = &full.parties[0].counters;
    let a = &auto.parties[0].counters;
    assert!(f[Counter::CmpOpened] >= 2 * a[Counter::CmpOpened]);
}
