//! End-to-end bounded-vs-full-width comparison parity: the default
//! `comparison_bits = "auto"` must release exactly the model, predictions,
//! and metric of a run whose width floor is `int_bits` (45: every
//! comparison at full width) — comparisons are exact at any proven width,
//! so every argmax is range-invariant — while opening measurably fewer
//! field elements in fewer comparison rounds, for both protocols.

use pivot_cli::algo::Algo;
use pivot_cli::runner::{execute, Execution};
use pivot_cli::scenario::Scenario;

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
    let f = &full.parties[0].comparison;
    let a = &auto.parties[0].comparison;
    assert_eq!(f.count, a.count, "same number of secure comparisons");
    assert!(
        f.opened_elements >= 2 * a.opened_elements,
        "comparison openings must drop >=2x: full {} vs auto {}",
        f.opened_elements,
        a.opened_elements
    );
    assert!(
        f.online_rounds > a.online_rounds,
        "comparison rounds must drop: full {} vs auto {}",
        f.online_rounds,
        a.online_rounds
    );
    assert!(
        f.masked_bits >= 2 * a.masked_bits,
        "masked-bit consumption must drop >=2x: full {} vs auto {}",
        f.masked_bits,
        a.masked_bits
    );
    // The full run compares at exactly int_bits. The auto run derives
    // per-site widths; only comparisons without a provable range (the
    // enhanced prediction's feature-vs-threshold tests) may stay at 45.
    assert_eq!(f.widths.len(), 1, "full uses one width: {:?}", f.widths);
    assert_eq!(f.widths[0].0, 45);
    let bounded: u64 = a
        .widths
        .iter()
        .filter(|&&(k, _)| k < 45)
        .map(|&(_, n)| n)
        .sum();
    let unbounded: u64 = a
        .widths
        .iter()
        .filter(|&&(k, _)| k >= 45)
        .map(|&(_, n)| n)
        .sum();
    assert!(
        bounded > 10 * unbounded,
        "bounded widths must dominate: {:?}",
        a.widths
    );
    assert!(a.widths.len() > 1, "auto derives per-site widths");
    assert!(
        auto.parties[0].train_bytes_sent < full.parties[0].train_bytes_sent,
        "bounded comparisons must shrink total training traffic ({} vs {})",
        auto.parties[0].train_bytes_sent,
        full.parties[0].train_bytes_sent
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
        let c = &run.parties[0].comparison;
        assert!(
            c.beaver_triples > 0 && c.masked_bit_rows > 0,
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
    let f = full.parties[0].comparison.opened_elements;
    let m = floored.parties[0].comparison.opened_elements;
    let a = auto.parties[0].comparison.opened_elements;
    assert!(
        a < m && m < f,
        "floor sits between: auto {a} < floor {m} < full {f}"
    );
    assert!(
        floored.parties[0]
            .comparison
            .widths
            .iter()
            .all(|&(k, _)| k >= 30),
        "floor raises every width: {:?}",
        floored.parties[0].comparison.widths
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
    let a = &auto.parties[0].comparison;
    let f = &floored.parties[0].comparison;
    assert_eq!(a.count, f.count);
    assert!(a.opened_elements < f.opened_elements);
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
    let widths = &auto.parties[0].comparison.widths;
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
        auto.parties[0].comparison.opened_elements < full.parties[0].comparison.opened_elements,
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
    let f = &full.parties[0].comparison;
    let a = &auto.parties[0].comparison;
    assert!(f.opened_elements >= 2 * a.opened_elements);
}
