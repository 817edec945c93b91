//! End-to-end bounded-vs-full-width comparison parity: the engine's
//! default widths (each call site's proven range) must release exactly the
//! model, predictions, and metric of a run whose width floor is `int_bits`
//! (45: every comparison at full width, set through the engine's
//! `CompareBits::Floor` override after set-up) — comparisons are exact at
//! any proven width, so every argmax is range-invariant — while opening
//! measurably fewer field elements in fewer comparison rounds, for both
//! protocols.

use pivot_core::config::PivotParams;
use pivot_core::ensemble::{predict_gbdt_batch, train_gbdt, GbdtModel, GbdtProtocolParams};
use pivot_core::party::PartyContext;
use pivot_core::{
    predict_basic, predict_enhanced, train_basic, train_enhanced, ConcealedTree, Counter, Protocol,
    Snapshot,
};
use pivot_data::{metrics, partition_vertically, synth, Dataset, Task};
use pivot_mpc::CompareBits;
use pivot_transport::run_parties;
use pivot_trees::{DecisionTree, TreeParams};

/// What is trained on top of the protocol.
#[derive(Clone, Copy)]
enum Model {
    Tree,
    Gbdt { rounds: usize, learning_rate: f64 },
}

/// One run's configuration: the data, and the parameters a party sets up
/// with.
struct Case {
    parties: usize,
    data: Dataset,
    params: PivotParams,
    model: Model,
}

impl Case {
    /// The basic protocol growing one tree of depth `max_depth` with
    /// `max_splits` candidates per feature, at `keysize`, its dealer
    /// seeded by the data's `seed`.
    fn basic(
        parties: usize,
        data: Dataset,
        seed: u64,
        max_depth: usize,
        max_splits: usize,
        keysize: u32,
    ) -> Case {
        let params = PivotParams {
            tree: TreeParams {
                max_depth,
                min_samples: 2,
                max_splits,
                stop_when_pure: false,
            },
            keysize,
            crypto_threads: 1,
            dealer_seed: seed,
            ..Default::default()
        };
        Case {
            parties,
            data,
            params,
            model: Model::Tree,
        }
    }
}

/// Two features per party, half informative (rounded up), class
/// separation 1.5.
fn classification(seed: u64, parties: usize, samples: usize, flip_y: f64) -> Dataset {
    let features = 2 * parties;
    synth::make_classification(&synth::ClassificationSpec {
        samples,
        features,
        informative: features.div_ceil(2),
        classes: 2,
        class_sep: 1.5,
        flip_y,
        seed,
    })
}

/// Two features per party, half informative, label noise 0.1.
fn regression(seed: u64, parties: usize, samples: usize) -> Dataset {
    let features = 2 * parties;
    synth::make_regression(&synth::RegressionSpec {
        samples,
        features,
        informative: features.div_ceil(2),
        noise: 0.1,
        seed,
    })
}

/// A party's trained model.
enum Trained {
    Plain(DecisionTree),
    Concealed(ConcealedTree),
    Gbdt(GbdtModel),
}

/// One party's outcome.
struct Outcome {
    party: usize,
    predictions: Vec<f64>,
    internal_nodes: usize,
    tree_depth: Option<usize>,
    /// The registry when training ended.
    train: Snapshot,
    /// The registry at the end of the run.
    counters: Snapshot,
}

struct Run {
    /// Test accuracy (classification) or MSE (regression).
    metric: f64,
    parties: Vec<Outcome>,
}

/// Train on three quarters of the case's data and jointly predict the
/// rest, every comparison's width raised to at least `floor`.
fn run(case: &Case, floor: Option<u32>) -> Run {
    let (train_set, test_set) = case.data.train_test_split(0.25);
    let m = case.parties;
    let train_part = partition_vertically(&train_set, m, 0);
    let test_part = partition_vertically(&test_set, m, 0);
    let parties = run_parties(m, |ep| {
        let view = train_part.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, case.params.clone());
        if let Some(n) = floor {
            ctx.engine.configure_comparisons(CompareBits::Floor(n), 0);
        }
        let test = &test_part.views[ep.id()].features;
        let trained = match (case.model, case.params.protocol) {
            (
                Model::Gbdt {
                    rounds,
                    learning_rate,
                },
                _,
            ) => {
                let gbdt = GbdtProtocolParams {
                    rounds,
                    learning_rate,
                };
                Trained::Gbdt(train_gbdt(&mut ctx, &gbdt))
            }
            (Model::Tree, Protocol::Basic) => Trained::Plain(train_basic::train(&mut ctx)),
            (Model::Tree, Protocol::Enhanced) => {
                Trained::Concealed(train_enhanced::train(&mut ctx))
            }
        };
        ctx.ep.flush();
        let train = ctx.counters.snapshot();
        let (predictions, internal_nodes, tree_depth) = match &trained {
            Trained::Plain(tree) => (
                predict_basic::predict_batch(&mut ctx, tree, test),
                tree.internal_count(),
                Some(tree.depth()),
            ),
            // A concealed tree does not reveal its realized depth.
            Trained::Concealed(tree) => (
                predict_enhanced::predict_batch(&mut ctx, tree, test),
                tree.internal_count(),
                None,
            ),
            Trained::Gbdt(gbdt) => {
                let trees = || gbdt.forests.iter().flatten();
                (
                    predict_gbdt_batch(&mut ctx, gbdt, test),
                    trees().map(DecisionTree::internal_count).sum(),
                    trees().map(DecisionTree::depth).max(),
                )
            }
        };
        Outcome {
            party: ctx.id(),
            predictions,
            internal_nodes,
            tree_depth,
            train,
            counters: ctx.counters.snapshot(),
        }
    });
    let metric = match test_set.task() {
        Task::Classification { .. } => {
            metrics::accuracy(&parties[0].predictions, test_set.labels())
        }
        Task::Regression => metrics::mse(&parties[0].predictions, test_set.labels()),
    };
    Run { metric, parties }
}

/// `(full-width, auto)`: the case with every comparison's width floor at
/// `int_bits`, and as is.
fn run_pair(case: &Case) -> (Run, Run) {
    (run(case, Some(45)), run(case, None))
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
fn assert_parity_and_reduction(full: &Run, auto: &Run) {
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

#[test]
fn basic_bounded_comparisons_match_full() {
    let data = classification(4242, 3, 36, 0.05);
    let (full, auto) = run_pair(&Case::basic(3, data, 4242, 2, 3, 128));
    assert_parity_and_reduction(&full, &auto);
}

#[test]
fn enhanced_bounded_comparisons_match_full() {
    // Enhanced adds the one-hot/PIR comparisons (shared-mask pairs) and
    // the block-only reveal to the bounded surface; run on four crypto
    // threads.
    let data = classification(99, 3, 30, 0.05);
    let mut case = Case::basic(3, data, 99, 2, 3, 256);
    case.params.protocol = Protocol::Enhanced;
    case.params.crypto_threads = 4;
    let (full, auto) = run_pair(&case);
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
    let case = Case::basic(2, classification(7, 2, 30, 0.05), 7, 2, 3, 128);
    let (full, auto) = run_pair(&case);
    let floored = run(&case, Some(30));
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

/// Range-invariance proof on a *near-tie* case: at depth 4 with thin
/// nodes this seed's gains carry sub-ulp margins, where any change to a
/// comparison's outcome would flip an argmax. The widths never change a
/// comparison: a width floor of `int_bits` (full-width comparisons) must
/// reproduce the default run — model, metric, and predictions — exactly.
#[test]
fn widths_never_flip_a_comparison_even_on_near_ties() {
    let data = classification(0xBE7C4, 3, 120, 0.01);
    let (floored, auto) = run_pair(&Case::basic(3, data, 0xBE7C4, 4, 4, 256));
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
/// fixed-point width by default (`gain_width`'s `task_override` gate) —
/// while the count-based comparisons stay bounded.
#[test]
fn gbdt_residual_gain_argmax_keeps_full_width() {
    let mut case = Case::basic(2, regression(13, 2, 40), 13, 2, 3, 128);
    case.model = Model::Gbdt {
        rounds: 3,
        learning_rate: 0.5,
    };
    let (full, auto) = run_pair(&case);
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
    // Regression exercises the integer reciprocal's Newton tail and the
    // fixed-point leaf means. Truncation masks come from the dealer's
    // call-order stream, which no comparison advances, so the leaves are
    // not merely within an ulp of the full-width run's but equal.
    let (full, auto) = run_pair(&Case::basic(2, regression(11, 2, 40), 11, 2, 3, 128));
    for (f, a) in full.parties.iter().zip(&auto.parties) {
        assert_eq!(f.internal_nodes, a.internal_nodes, "model shape");
        assert_eq!(f.predictions, a.predictions, "party {}", f.party);
    }
    let f = &full.parties[0].counters;
    let a = &auto.parties[0].counters;
    assert!(f[Counter::CmpOpened] >= 2 * a[Counter::CmpOpened]);
}
