//! Dense in-memory datasets.

use std::fmt;

/// Learning task type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Task {
    /// Classification with `classes` label values `0..classes`.
    Classification { classes: usize },
    /// Regression with continuous labels.
    Regression,
}

/// A dense dataset: `n` samples × `d` features plus labels.
///
/// Features are stored row-major (`features[sample][feature]`); labels are
/// class indices (as `f64`) for classification or continuous targets for
/// regression.
#[derive(Clone, Debug)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    labels: Vec<f64>,
    task: Task,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Build a dataset, validating shape invariants.
    pub fn new(features: Vec<Vec<f64>>, labels: Vec<f64>, task: Task) -> Self {
        assert_eq!(features.len(), labels.len(), "one label per sample");
        let d = features.first().map_or(0, |row| row.len());
        assert!(
            features.iter().all(|row| row.len() == d),
            "all samples need {d} features"
        );
        if let Task::Classification { classes } = task {
            assert!(classes >= 2, "classification needs at least 2 classes");
            for &label in &labels {
                let as_int = label as usize;
                assert!(
                    label.fract() == 0.0 && as_int < classes,
                    "label {label} out of range for {classes} classes"
                );
            }
        }
        let feature_names = (0..d).map(|j| format!("f{j}")).collect();
        Dataset {
            features,
            labels,
            task,
            feature_names,
        }
    }

    /// Attach human-readable feature names (for examples and model dumps).
    /// A dataset without samples takes its width from the names, so an
    /// empty split or subset is as wide as the dataset it came from.
    pub fn with_feature_names(mut self, names: Vec<String>) -> Self {
        // `new` made every row as wide as the first.
        assert!(
            self.features
                .first()
                .is_none_or(|row| row.len() == names.len()),
            "{} names for samples of another width",
            names.len()
        );
        self.feature_names = names;
        self
    }

    /// Number of samples `n`.
    pub fn num_samples(&self) -> usize {
        self.features.len()
    }

    /// Number of features `d`.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// The task.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// One sample row.
    pub fn sample(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// A single feature value.
    pub fn value(&self, sample: usize, feature: usize) -> f64 {
        self.features[sample][feature]
    }

    /// All labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Label of one sample.
    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// Class of one sample (classification only).
    pub fn class(&self, i: usize) -> usize {
        debug_assert!(matches!(self.task, Task::Classification { .. }));
        self.labels[i] as usize
    }

    /// Column view of a feature (copied).
    pub fn feature_column(&self, j: usize) -> Vec<f64> {
        self.features.iter().map(|row| row[j]).collect()
    }

    /// Split into train/test by a deterministic interleaved assignment:
    /// every `k`-th sample (by `test_fraction`) goes to test.
    pub fn train_test_split(&self, test_fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&test_fraction), "fraction in [0, 1)");
        let period = if test_fraction <= 0.0 {
            usize::MAX
        } else {
            (1.0 / test_fraction).round().max(2.0) as usize
        };
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for i in 0..self.num_samples() {
            if i % period == period - 1 {
                test_x.push(self.features[i].clone());
                test_y.push(self.labels[i]);
            } else {
                train_x.push(self.features[i].clone());
                train_y.push(self.labels[i]);
            }
        }
        (
            Dataset::new(train_x, train_y, self.task)
                .with_feature_names(self.feature_names.clone()),
            Dataset::new(test_x, test_y, self.task).with_feature_names(self.feature_names.clone()),
        )
    }

    /// Select a subset of samples by index.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let features = indices.iter().map(|&i| self.features[i].clone()).collect();
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset::new(features, labels, self.task).with_feature_names(self.feature_names.clone())
    }

    /// Replace the labels (used by GBDT residual boosting).
    pub fn with_labels(&self, labels: Vec<f64>, task: Task) -> Dataset {
        assert_eq!(labels.len(), self.num_samples());
        Dataset::new(self.features.clone(), labels, task)
            .with_feature_names(self.feature_names.clone())
    }

    /// Normalize labels into `[-1, 1]` (regression); returns the scale used.
    /// Pivot's MPC fixed-point layout requires bounded label magnitudes
    /// ("Scale discipline" in `pivot-core`'s `gain` module docs); the super
    /// client applies this public preprocessing.
    pub fn normalize_labels(&mut self) -> f64 {
        let max_abs = self
            .labels
            .iter()
            .fold(0.0f64, |acc, &y| acc.max(y.abs()))
            .max(f64::MIN_POSITIVE);
        for y in &mut self.labels {
            *y /= max_abs;
        }
        max_abs
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({} samples × {} features, {:?})",
            self.num_samples(),
            self.num_features(),
            self.task
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![
                vec![1.0, 2.0],
                vec![3.0, 4.0],
                vec![5.0, 6.0],
                vec![7.0, 8.0],
            ],
            vec![0.0, 1.0, 0.0, 1.0],
            Task::Classification { classes: 2 },
        )
    }

    #[test]
    fn shape_accessors() {
        let d = toy();
        assert_eq!(d.num_samples(), 4);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.value(1, 0), 3.0);
        assert_eq!(d.class(1), 1);
        assert_eq!(d.feature_column(1), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn empty_split_keeps_width_and_names() {
        let d = toy().with_feature_names(vec!["age".into(), "income".into()]);
        let (train, test) = d.train_test_split(0.0);
        assert_eq!((train.num_samples(), test.num_samples()), (4, 0));
        assert_eq!(test.num_features(), 2);
        assert_eq!(test.feature_names(), d.feature_names());
        assert_eq!(d.subset(&[]).num_features(), 2);
    }

    #[test]
    #[should_panic(expected = "one label per sample")]
    fn mismatched_labels_rejected() {
        Dataset::new(vec![vec![1.0]], vec![], Task::Regression);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_class_label_rejected() {
        Dataset::new(
            vec![vec![1.0], vec![2.0]],
            vec![0.0, 5.0],
            Task::Classification { classes: 2 },
        );
    }

    #[test]
    fn train_test_split_partitions() {
        let d = toy();
        let (train, test) = d.train_test_split(0.25);
        assert_eq!(train.num_samples() + test.num_samples(), 4);
        assert_eq!(test.num_samples(), 1);
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy();
        let s = d.subset(&[0, 2]);
        assert_eq!(s.num_samples(), 2);
        assert_eq!(s.value(1, 0), 5.0);
    }

    #[test]
    fn normalize_labels_bounds() {
        let mut d = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![10.0, -20.0, 5.0],
            Task::Regression,
        );
        let scale = d.normalize_labels();
        assert_eq!(scale, 20.0);
        assert!(d.labels().iter().all(|y| y.abs() <= 1.0));
        assert_eq!(d.label(0), 0.5);
    }
}
