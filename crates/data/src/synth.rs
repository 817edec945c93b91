//! Synthetic dataset generators mimicking `sklearn.datasets`.
//!
//! `make_classification` places one Gaussian cluster per class on the
//! vertices of an informative-feature hypercube and fills the remaining
//! features with noise — the same construction sklearn uses (§8.1 of the
//! paper generates its efficiency datasets exactly this way).
//! `make_regression` draws a random linear model over informative features
//! and adds Gaussian noise.

use crate::{Dataset, Task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard normal via Box–Muller (keeps us off rand_distr).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Parameters for [`make_classification`].
#[derive(Clone, Debug)]
pub struct ClassificationSpec {
    pub samples: usize,
    pub features: usize,
    /// Informative features (≤ `features`); the rest are pure noise.
    pub informative: usize,
    pub classes: usize,
    /// Cluster separation multiplier (sklearn's `class_sep`).
    pub class_sep: f64,
    /// Fraction of labels randomly flipped (sklearn's `flip_y`).
    pub flip_y: f64,
    pub seed: u64,
}

impl Default for ClassificationSpec {
    fn default() -> Self {
        ClassificationSpec {
            samples: 1000,
            features: 15,
            informative: 8,
            classes: 4,
            class_sep: 1.5,
            flip_y: 0.01,
            seed: 7,
        }
    }
}

/// Generate a classification dataset (one Gaussian cluster per class placed
/// on scaled hypercube vertices over the informative subspace).
pub fn make_classification(spec: &ClassificationSpec) -> Dataset {
    assert!(spec.informative >= 1 && spec.informative <= spec.features);
    assert!(spec.classes >= 2);
    // Hypercube must have enough vertices for the classes.
    assert!(
        (1usize << spec.informative.min(20)) >= spec.classes,
        "too few informative features for {} classes",
        spec.classes
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Class centroids: distinct hypercube vertices scaled by class_sep.
    let mut centroids = Vec::with_capacity(spec.classes);
    for k in 0..spec.classes {
        let centroid: Vec<f64> = (0..spec.informative)
            .map(|j| {
                let bit = (k >> (j % 20)) & 1;
                (2.0 * bit as f64 - 1.0) * spec.class_sep
            })
            .collect();
        centroids.push(centroid);
    }

    let mut features = Vec::with_capacity(spec.samples);
    let mut labels = Vec::with_capacity(spec.samples);
    for _ in 0..spec.samples {
        // Random class assignment (approximately balanced). A round-robin
        // `i % classes` pattern would alias with interleaved train/test
        // splits and produce single-class test sets.
        let class = rng.gen_range(0..spec.classes);
        let mut row = Vec::with_capacity(spec.features);
        for j in 0..spec.informative {
            row.push(centroids[class][j] + gaussian(&mut rng));
        }
        for _ in spec.informative..spec.features {
            row.push(gaussian(&mut rng));
        }
        let label = if rng.gen::<f64>() < spec.flip_y {
            rng.gen_range(0..spec.classes)
        } else {
            class
        };
        features.push(row);
        labels.push(label as f64);
    }
    Dataset::new(
        features,
        labels,
        Task::Classification {
            classes: spec.classes,
        },
    )
}

/// Parameters for [`make_regression`].
#[derive(Clone, Debug)]
pub struct RegressionSpec {
    pub samples: usize,
    pub features: usize,
    pub informative: usize,
    /// Standard deviation of the additive label noise.
    pub noise: f64,
    pub seed: u64,
}

impl Default for RegressionSpec {
    fn default() -> Self {
        RegressionSpec {
            samples: 1000,
            features: 15,
            informative: 8,
            noise: 0.1,
            seed: 7,
        }
    }
}

/// Generate a regression dataset from a random linear model; labels are
/// rescaled into `[-1, 1]` (Pivot's bounded-label requirement — "Scale
/// discipline" in `pivot-core`'s `gain` module docs).
pub fn make_regression(spec: &RegressionSpec) -> Dataset {
    assert!(spec.informative >= 1 && spec.informative <= spec.features);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let coef: Vec<f64> = (0..spec.informative)
        .map(|_| gaussian(&mut rng) * 2.0)
        .collect();

    let mut features = Vec::with_capacity(spec.samples);
    let mut labels = Vec::with_capacity(spec.samples);
    for _ in 0..spec.samples {
        let row: Vec<f64> = (0..spec.features).map(|_| gaussian(&mut rng)).collect();
        let mut y: f64 = row[..spec.informative]
            .iter()
            .zip(&coef)
            .map(|(x, c)| x * c)
            .sum();
        y += gaussian(&mut rng) * spec.noise;
        features.push(row);
        labels.push(y);
    }
    let mut ds = Dataset::new(features, labels, Task::Regression);
    ds.normalize_labels();
    ds
}

/// Matched-shape stand-in for the UCI *credit card* dataset of Table 3
/// (30000 samples × 25 features, 2 classes). Pass a smaller `samples` to
/// subsample for quick runs.
pub fn credit_card_like(samples: usize, seed: u64) -> Dataset {
    make_classification(&ClassificationSpec {
        samples,
        features: 25,
        informative: 12,
        classes: 2,
        class_sep: 1.0,
        flip_y: 0.15, // the real task is noisy: ~82% attainable accuracy
        seed,
    })
}

/// Matched-shape stand-in for the UCI *bank marketing* dataset of Table 3
/// (4521 samples × 17 features, 2 classes).
pub fn bank_market_like(samples: usize, seed: u64) -> Dataset {
    make_classification(&ClassificationSpec {
        samples,
        features: 17,
        informative: 9,
        classes: 2,
        class_sep: 1.2,
        flip_y: 0.1,
        seed,
    })
}

/// Matched-shape stand-in for the UCI *appliances energy* regression
/// dataset of Table 3 (19735 samples × 29 features).
pub fn energy_like(samples: usize, seed: u64) -> Dataset {
    make_regression(&RegressionSpec {
        samples,
        features: 29,
        informative: 14,
        noise: 0.3,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_shape_and_balance() {
        let ds = make_classification(&ClassificationSpec::default());
        assert_eq!(ds.num_samples(), 1000);
        assert_eq!(ds.num_features(), 15);
        let mut counts = [0usize; 4];
        for i in 0..ds.num_samples() {
            counts[ds.class(i)] += 1;
        }
        // Balanced up to flip noise.
        for &c in &counts {
            assert!(c > 180 && c < 320, "class count {c}");
        }
    }

    #[test]
    fn informative_features_separate_classes() {
        // Class centroids differ on informative feature 0, so the class-0
        // and class-1 means should differ noticeably there.
        let spec = ClassificationSpec {
            classes: 2,
            class_sep: 2.0,
            flip_y: 0.0,
            ..Default::default()
        };
        let ds = make_classification(&spec);
        let mut mean = [0.0f64; 2];
        let mut cnt = [0usize; 2];
        for i in 0..ds.num_samples() {
            mean[ds.class(i)] += ds.value(i, 0);
            cnt[ds.class(i)] += 1;
        }
        let m0 = mean[0] / cnt[0] as f64;
        let m1 = mean[1] / cnt[1] as f64;
        assert!((m0 - m1).abs() > 2.0, "centroids too close: {m0} vs {m1}");
    }

    #[test]
    fn regression_labels_bounded() {
        let ds = make_regression(&RegressionSpec::default());
        assert!(ds.labels().iter().all(|y| y.abs() <= 1.0));
        // Not all labels identical.
        let first = ds.label(0);
        assert!(ds.labels().iter().any(|&y| (y - first).abs() > 1e-6));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = make_classification(&ClassificationSpec::default());
        let b = make_classification(&ClassificationSpec::default());
        assert_eq!(a.value(17, 3), b.value(17, 3));
        assert_eq!(a.label(17), b.label(17));
    }

    #[test]
    fn table3_presets_have_paper_shapes() {
        let cc = credit_card_like(100, 1);
        assert_eq!(cc.num_features(), 25);
        let bm = bank_market_like(100, 1);
        assert_eq!(bm.num_features(), 17);
        let en = energy_like(100, 1);
        assert_eq!(en.num_features(), 29);
        assert_eq!(en.task(), Task::Regression);
    }
}
