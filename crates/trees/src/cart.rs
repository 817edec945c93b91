//! Plaintext CART training (paper Algorithm 1) over `b`-bucket candidate
//! splits — the reference semantics for the Pivot protocols and the NP-DT
//! baseline of Table 3.

use crate::model::{DecisionTree, Node, NodeId};
use pivot_data::{candidate_splits, Dataset, SplitCandidates, Task};

/// Tree-growing hyper-parameters (paper Table 4 notation).
#[derive(Clone, Debug)]
pub struct TreeParams {
    /// Maximum depth `h` (root at depth 0; `h` edges down).
    pub max_depth: usize,
    /// Prune when a node holds fewer samples than this.
    pub min_samples: usize,
    /// Maximum candidate splits per feature `b`.
    pub max_splits: usize,
    /// Stop splitting pure nodes. The Pivot *basic* protocol mirrors this
    /// with a secure purity check (the released model reveals it anyway);
    /// the *enhanced* protocol disables it to avoid the extra bit of leakage.
    pub stop_when_pure: bool,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 4,
            min_samples: 2,
            max_splits: 8,
            stop_when_pure: true,
        }
    }
}

/// A reusable trainer (precomputes candidate splits once per dataset).
pub struct CartTrainer<'a> {
    data: &'a Dataset,
    params: TreeParams,
    candidates: Vec<SplitCandidates>,
}

/// Train a CART tree with the given parameters.
pub fn train_tree(data: &Dataset, params: &TreeParams) -> DecisionTree {
    CartTrainer::new(data, params.clone()).train()
}

impl<'a> CartTrainer<'a> {
    pub fn new(data: &'a Dataset, params: TreeParams) -> Self {
        assert!(data.num_samples() > 0, "cannot train on an empty dataset");
        let candidates = (0..data.num_features())
            .map(|j| candidate_splits(&data.feature_column(j), params.max_splits))
            .collect();
        CartTrainer {
            data,
            params,
            candidates,
        }
    }

    /// Candidate thresholds per feature (shared with the Pivot protocols).
    pub fn candidates(&self) -> &[SplitCandidates] {
        &self.candidates
    }

    /// Train on all samples.
    pub fn train(&self) -> DecisionTree {
        let mask = vec![true; self.data.num_samples()];
        self.train_masked(&mask)
    }

    /// Train on the samples selected by `mask` (used by bagging).
    pub fn train_masked(&self, mask: &[bool]) -> DecisionTree {
        assert_eq!(mask.len(), self.data.num_samples());
        let mut nodes = Vec::new();
        let root = self.build(mask, 0, &mut nodes);
        DecisionTree::new(nodes, root, self.data.task())
    }

    /// Algorithm 1's pruning conditions: whether the node at `depth`
    /// holding `mask` is a leaf before any split is scored.
    pub fn stops(&self, mask: &[bool], depth: usize) -> bool {
        let n: usize = mask.iter().filter(|&&b| b).count();
        depth >= self.params.max_depth
            || n < self.params.min_samples
            || (self.params.stop_when_pure && self.is_pure(mask))
    }

    fn build(&self, mask: &[bool], depth: usize, nodes: &mut Vec<Node>) -> NodeId {
        if self.stops(mask, depth) {
            let value = self.leaf_value(mask);
            nodes.push(Node::Leaf { value });
            return nodes.len() - 1;
        }

        match self.best_split(mask) {
            None => {
                let value = self.leaf_value(mask);
                nodes.push(Node::Leaf { value });
                nodes.len() - 1
            }
            Some((feature, threshold)) => {
                let mut left_mask = vec![false; mask.len()];
                let mut right_mask = vec![false; mask.len()];
                for i in 0..mask.len() {
                    if mask[i] {
                        if self.data.value(i, feature) <= threshold {
                            left_mask[i] = true;
                        } else {
                            right_mask[i] = true;
                        }
                    }
                }
                let left = self.build(&left_mask, depth + 1, nodes);
                let right = self.build(&right_mask, depth + 1, nodes);
                nodes.push(Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                });
                nodes.len() - 1
            }
        }
    }

    /// The split score used throughout the reproduction — identical (up to
    /// an additive constant shared by all splits of a node, and a positive
    /// factor `1/n`) to the paper's Eqn (5) impurity gain for
    /// classification and Eqn (6) variance gain for regression:
    ///
    /// * classification: `Σ_k g_{l,k}²/n_l + Σ_k g_{r,k}²/n_r`
    /// * regression:     `(Σ_l y)²/n_l + (Σ_r y)²/n_r`
    ///
    /// Splits leaving an empty side score `-1` (the protocols' invalid
    /// marker). The first maximum wins ties, in global
    /// (feature, split-index) order.
    pub fn split_score(&self, mask: &[bool], feature: usize, threshold: f64) -> f64 {
        match self.data.task() {
            Task::Classification { classes } => {
                let mut left_counts = vec![0usize; classes];
                let mut right_counts = vec![0usize; classes];
                for i in 0..mask.len() {
                    if mask[i] {
                        let k = self.data.class(i);
                        if self.data.value(i, feature) <= threshold {
                            left_counts[k] += 1;
                        } else {
                            right_counts[k] += 1;
                        }
                    }
                }
                let n_l: usize = left_counts.iter().sum();
                let n_r: usize = right_counts.iter().sum();
                if n_l == 0 || n_r == 0 {
                    return -1.0;
                }
                let sum_sq = |counts: &[usize], n: usize| -> f64 {
                    counts.iter().map(|&g| (g * g) as f64).sum::<f64>() / n as f64
                };
                sum_sq(&left_counts, n_l) + sum_sq(&right_counts, n_r)
            }
            Task::Regression => {
                let (mut sum_l, mut sum_r) = (0.0f64, 0.0f64);
                let (mut n_l, mut n_r) = (0usize, 0usize);
                for i in 0..mask.len() {
                    if mask[i] {
                        if self.data.value(i, feature) <= threshold {
                            sum_l += self.data.label(i);
                            n_l += 1;
                        } else {
                            sum_r += self.data.label(i);
                            n_r += 1;
                        }
                    }
                }
                if n_l == 0 || n_r == 0 {
                    return -1.0;
                }
                sum_l * sum_l / n_l as f64 + sum_r * sum_r / n_r as f64
            }
        }
    }

    fn best_split(&self, mask: &[bool]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for feature in 0..self.data.num_features() {
            for &threshold in &self.candidates[feature].thresholds {
                let score = self.split_score(mask, feature, threshold);
                if score < 0.0 {
                    continue;
                }
                // Strict > keeps the first maximum.
                if best.map_or(true, |(_, _, s)| score > s) {
                    best = Some((feature, threshold, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    fn is_pure(&self, mask: &[bool]) -> bool {
        let mut first: Option<f64> = None;
        for i in 0..mask.len() {
            if mask[i] {
                match first {
                    None => first = Some(self.data.label(i)),
                    Some(v) if (v - self.data.label(i)).abs() > f64::EPSILON => {
                        return false;
                    }
                    _ => {}
                }
            }
        }
        true
    }

    /// Leaf value: majority class (classification) or mean label
    /// (regression) — Algorithm 1 lines 2–3. First class wins ties.
    pub fn leaf_value(&self, mask: &[bool]) -> f64 {
        match self.data.task() {
            Task::Classification { classes } => {
                let mut counts = vec![0usize; classes];
                for i in 0..mask.len() {
                    if mask[i] {
                        counts[self.data.class(i)] += 1;
                    }
                }
                let mut best = 0usize;
                for (k, &c) in counts.iter().enumerate() {
                    if c > counts[best] {
                        best = k;
                    }
                }
                best as f64
            }
            Task::Regression => {
                let mut sum = 0.0;
                let mut n = 0usize;
                for i in 0..mask.len() {
                    if mask[i] {
                        sum += self.data.label(i);
                        n += 1;
                    }
                }
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_data::synth;

    fn xor_dataset() -> Dataset {
        // XOR of two features: needs depth 2.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for &(a, b) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for _ in 0..5 {
                features.push(vec![a, b]);
                labels.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
            }
        }
        Dataset::new(features, labels, Task::Classification { classes: 2 })
    }

    #[test]
    fn learns_a_simple_threshold() {
        let data = Dataset::new(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0.0, 0.0, 1.0, 1.0],
            Task::Classification { classes: 2 },
        );
        let tree = train_tree(&data, &TreeParams::default());
        assert_eq!(tree.predict(&[1.5]), 0.0);
        assert_eq!(tree.predict(&[10.5]), 1.0);
        assert_eq!(tree.depth(), 1, "one split suffices");
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let tree = train_tree(&xor_dataset(), &TreeParams::default());
        assert_eq!(tree.predict(&[0.0, 0.0]), 0.0);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1.0);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1.0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn respects_max_depth() {
        let ds = synth::make_classification(&synth::ClassificationSpec {
            samples: 300,
            ..Default::default()
        });
        for depth in [1usize, 2, 3] {
            let tree = train_tree(
                &ds,
                &TreeParams {
                    max_depth: depth,
                    ..Default::default()
                },
            );
            assert!(tree.depth() <= depth, "depth {} > {}", tree.depth(), depth);
        }
    }

    #[test]
    fn regression_fits_means() {
        let data = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]],
            vec![0.1, 0.2, 0.9, 1.0],
            Task::Regression,
        );
        let tree = train_tree(
            &data,
            &TreeParams {
                max_depth: 1,
                ..Default::default()
            },
        );
        assert!((tree.predict(&[0.5]) - 0.15).abs() < 1e-9);
        assert!((tree.predict(&[10.5]) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn pure_node_stops_early() {
        let data = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![1.0, 1.0, 1.0, 1.0],
            Task::Classification { classes: 2 },
        );
        let tree = train_tree(&data, &TreeParams::default());
        assert_eq!(tree.depth(), 0, "pure root should be a leaf");
        assert_eq!(tree.predict(&[9.0]), 1.0);
    }

    #[test]
    fn without_purity_stop_grows_to_depth() {
        let data = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![1.0, 1.0, 1.0, 1.0],
            Task::Classification { classes: 2 },
        );
        let tree = train_tree(
            &data,
            &TreeParams {
                stop_when_pure: false,
                max_depth: 2,
                ..Default::default()
            },
        );
        // Splits exist (features vary) even though gain is flat.
        assert!(tree.depth() > 0);
        assert_eq!(tree.predict(&[2.5]), 1.0);
    }

    #[test]
    fn min_samples_prunes() {
        let data = Dataset::new(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0.0, 0.0, 1.0, 1.0],
            Task::Classification { classes: 2 },
        );
        let tree = train_tree(
            &data,
            &TreeParams {
                min_samples: 10,
                ..Default::default()
            },
        );
        assert_eq!(tree.depth(), 0, "root below min_samples must be a leaf");
    }

    #[test]
    fn reasonable_accuracy_on_synthetic() {
        let ds = synth::make_classification(&synth::ClassificationSpec {
            samples: 600,
            classes: 2,
            class_sep: 2.0,
            flip_y: 0.0,
            ..Default::default()
        });
        let (train, test) = ds.train_test_split(0.3);
        let tree = train_tree(
            &train,
            &TreeParams {
                max_depth: 6,
                ..Default::default()
            },
        );
        let preds: Vec<f64> = (0..test.num_samples())
            .map(|i| tree.predict(test.sample(i)))
            .collect();
        let acc = pivot_data::metrics::accuracy(&preds, test.labels());
        assert!(acc > 0.8, "accuracy {acc} too low");
    }

    #[test]
    fn score_marks_empty_sides_invalid() {
        let data = Dataset::new(
            vec![vec![1.0], vec![2.0]],
            vec![0.0, 1.0],
            Task::Classification { classes: 2 },
        );
        let trainer = CartTrainer::new(&data, TreeParams::default());
        // Threshold beyond all values → empty right side.
        assert_eq!(trainer.split_score(&[true, true], 0, 5.0), -1.0);
    }
}
