//! The workload catalog: what each workload runs, the inputs generated
//! for it from the seed, and the plaintext oracle its output is checked
//! against.

use pivot_data::{metrics, read_csv, synth, write_csv, Dataset, Task};
use pivot_trees::{train_tree, Gbdt, GbdtParams, TreeParams};
use std::path::Path;
use std::time::Instant;

pub const PARTIES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Model {
    /// One CART tree.
    Tree,
    /// Boosted regression trees: rounds, learning rate.
    Gbdt { rounds: usize, learning_rate: f64 },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// `pivot train`: three party threads in one process.
    InProcess,
    /// Three `pivot party` processes over TCP loopback, with every send
    /// charged this latency and bandwidth.
    Tcp3 {
        latency_us: u64,
        bandwidth_mbps: u32,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub algorithm: &'static str,
    pub regression: bool,
    pub model: Model,
    pub topology: Topology,
    pub samples: usize,
    pub test_fraction: f64,
    pub features_per_party: usize,
    pub max_splits: usize,
    pub max_depth: usize,
    pub keysize: u32,
    pub crypto_threads: usize,
    /// Whole-run wall clock seen while sizing; a run is killed at five
    /// times this.
    pub probe_s: f64,
}

/// Sized so that one repetition takes 7 to 10 s of wall clock and three of
/// them fit a run of the benchmark driver. The two single-tree workloads
/// run at the paper's keysize (1024) and pay for it with depth 2 and 160
/// samples; the other two keep the issue's shapes at keysize 512, where
/// every Paillier operation is about 7× cheaper. See README.md, "Sizing".
pub const CATALOG: [Workload; 4] = [
    // The paper's main protocol at its keysize, 128 train + 32 test
    // samples. Paillier encrypt / mul_plain / rerandomize / dot products
    // (stats + update + leaf) do ~80% of the work, MPC and transport
    // almost none.
    Workload {
        name: "train_basic",
        algorithm: "pivot-basic-pp",
        regression: false,
        model: Model::Tree,
        topology: Topology::InProcess,
        samples: 160,
        test_fraction: 0.2,
        features_per_party: 4,
        max_splits: 8,
        max_depth: 2,
        keysize: 1024,
        crypto_threads: 2,
        probe_s: 10.0,
    },
    // The same Paillier layer used the other way round: threshold
    // decryption (conversion, Eqn-10 update) dominates, encryption is
    // minor. A change that trades one for the other shows here against
    // `train_basic`.
    Workload {
        name: "train_enhanced",
        algorithm: "pivot-enhanced-pp",
        regression: false,
        model: Model::Tree,
        topology: Topology::InProcess,
        samples: 160,
        test_fraction: 0.5,
        features_per_party: 4,
        max_splits: 8,
        max_depth: 2,
        keysize: 1024,
        crypto_threads: 2,
        probe_s: 10.0,
    },
    // The ensemble extension. Encrypted residual labels make packing
    // fall back, so this is the unpacked conversion path, regression
    // gain, and the residual re-encryption that lands in phase `other`.
    Workload {
        name: "train_gbdt",
        algorithm: "pivot-basic-pp",
        regression: true,
        model: Model::Gbdt {
            rounds: 2,
            learning_rate: 0.5,
        },
        topology: Topology::InProcess,
        samples: 150,
        test_fraction: 0.2,
        features_per_party: 4,
        max_splits: 8,
        max_depth: 2,
        keysize: 512,
        crypto_threads: 2,
        probe_s: 7.0,
    },
    // The deployment shape with the network expensive and crypto cheap:
    // three OS processes, every send charged 10 ms and 100 Mbit/s. MPC
    // rounds, gain-phase bytes, frame coalescing and the TCP session
    // layer do most of the work; predicted no-change for a pure
    // Paillier/bignum speed-up.
    Workload {
        name: "train_wan_tcp3",
        algorithm: "pivot-basic-pp",
        regression: false,
        model: Model::Tree,
        topology: Topology::Tcp3 {
            latency_us: 10_000,
            bandwidth_mbps: 100,
        },
        samples: 320,
        test_fraction: 0.5,
        features_per_party: 4,
        max_splits: 8,
        max_depth: 2,
        keysize: 512,
        crypto_threads: 1,
        probe_s: 7.0,
    },
];

impl Workload {
    /// The plumbing check: same shape, tiny key and dataset.
    pub fn smoke(&self) -> Workload {
        Workload {
            samples: 40,
            keysize: 256,
            probe_s: 4.0,
            ..self.clone()
        }
    }

    fn task(&self) -> Task {
        if self.regression {
            Task::Regression
        } else {
            Task::Classification { classes: 2 }
        }
    }

    /// The dataset for `seed`, as the generators the scenarios use would
    /// make it (half the features informative).
    pub fn synthesize(&self, seed: u64) -> Dataset {
        let features = PARTIES * self.features_per_party;
        let informative = features.div_ceil(2);
        if self.regression {
            synth::make_regression(&synth::RegressionSpec {
                samples: self.samples,
                features,
                informative,
                noise: 0.1,
                seed,
            })
        } else {
            synth::make_classification(&synth::ClassificationSpec {
                samples: self.samples,
                features,
                informative,
                classes: 2,
                class_sep: 1.5,
                flip_y: 0.01,
                seed,
            })
        }
    }

    /// The scenario file handed to the program: every optimisation on,
    /// data from `data.csv` next to it.
    pub fn scenario_toml(&self, seed: u64, traced: bool) -> String {
        let mut s = format!(
            "name = \"{name}\"\n\
             seed = {seed}\n\
             parties = {PARTIES}\n\
             algorithm = \"{algorithm}\"\n\
             \n\
             [data]\n\
             kind = \"csv\"\n\
             path = \"data.csv\"\n\
             task = \"{task}\"\n\
             classes = 2\n\
             test_fraction = {test_fraction}\n\
             \n\
             [params]\n\
             max_depth = {max_depth}\n\
             max_splits = {max_splits}\n\
             keysize = {keysize}\n\
             crypto_threads = {crypto_threads}\n\
             randomness_pool = 1024\n\
             dealer_pool = 512\n\
             packing = \"auto\"\n\
             comparison_bits = \"auto\"\n\
             scheduling = \"pipelined\"\n\
             verification = \"off\"\n\
             trace = \"{trace}\"\n",
            name = self.name,
            algorithm = self.algorithm,
            task = if self.regression {
                "regression"
            } else {
                "classification"
            },
            test_fraction = self.test_fraction,
            max_depth = self.max_depth,
            max_splits = self.max_splits,
            keysize = self.keysize,
            crypto_threads = self.crypto_threads,
            trace = if traced { "phases" } else { "off" },
        );
        if let Model::Gbdt {
            rounds,
            learning_rate,
        } = self.model
        {
            s.push_str(&format!(
                "\n[model]\nkind = \"gbdt\"\nrounds = {rounds}\nlearning_rate = {learning_rate}\n"
            ));
        }
        if let Topology::Tcp3 {
            latency_us,
            bandwidth_mbps,
        } = self.topology
        {
            s.push_str(&format!(
                "\n[network]\nlatency_us = {latency_us}\nbandwidth_mbps = {bandwidth_mbps}\n"
            ));
        }
        s
    }

    /// Write the run's inputs into `dir`.
    pub fn write_inputs(
        &self,
        dir: &Path,
        data: &Dataset,
        seed: u64,
        traced: bool,
    ) -> std::io::Result<()> {
        write_csv(&dir.join("data.csv"), data)?;
        std::fs::write(dir.join("scenario.toml"), self.scenario_toml(seed, traced))
    }

    /// Train the plaintext model on the joined data exactly as the
    /// program will see it (read back from `csv`, labels normalised for
    /// regression, same split, same tree parameters) and score the test
    /// split: accuracy, or RMSE for regression.
    pub fn oracle(&self, csv: &Path) -> std::io::Result<Oracle> {
        let mut data = read_csv(csv, self.task())?;
        if self.regression {
            data.normalize_labels();
        }
        let (train, test) = data.train_test_split(self.test_fraction);
        let tree = TreeParams {
            max_depth: self.max_depth,
            min_samples: 2,
            max_splits: self.max_splits,
            stop_when_pure: false,
        };
        let samples: Vec<Vec<f64>> = (0..test.num_samples())
            .map(|i| test.sample(i).to_vec())
            .collect();
        let start = Instant::now();
        let (train_s, predictions) = match self.model {
            Model::Tree => {
                let model = train_tree(&train, &tree);
                (start.elapsed(), model.predict_batch(&samples))
            }
            Model::Gbdt {
                rounds,
                learning_rate,
            } => {
                let params = GbdtParams {
                    rounds,
                    learning_rate,
                    tree,
                };
                let model = Gbdt::train(&train, &params);
                (start.elapsed(), model.predict_batch(&samples))
            }
        };
        Ok(Oracle {
            metric: self.score(&predictions, test.labels()),
            train_s: train_s.as_secs_f64(),
            test_samples: test.num_samples(),
        })
    }

    fn score(&self, predictions: &[f64], truth: &[f64]) -> f64 {
        if self.regression {
            metrics::mse(predictions, truth).sqrt()
        } else {
            metrics::accuracy(predictions, truth)
        }
    }

    /// The federated run's test metric on the oracle's scale: reports
    /// carry accuracy, or MSE for regression.
    pub fn federated_metric(&self, reported: f64) -> f64 {
        if self.regression {
            reported.sqrt()
        } else {
            reported
        }
    }
}

/// The plaintext single-process run of the same task.
#[derive(Clone, Copy, Debug)]
pub struct Oracle {
    pub metric: f64,
    pub train_s: f64,
    pub test_samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_cli::scenario::Scenario;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pivot-benchmark-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_rendered_scenario_loads_with_all_optimisations_on() {
        for w in &CATALOG {
            for traced in [false, true] {
                let dir = scratch(&format!("scenario-{}-{traced}", w.name));
                let w = w.smoke();
                w.write_inputs(&dir, &w.synthesize(7), 7, traced).unwrap();
                let s = Scenario::load(&dir.join("scenario.toml")).unwrap();
                let echo = s.to_json();
                assert_eq!(s.seed, 7);
                assert_eq!(s.parties, PARTIES);
                for (path, want) in [
                    ("params.packing", "auto"),
                    ("params.comparison_bits", "auto"),
                    ("params.scheduling", "pipelined"),
                    ("params.verification", "off"),
                    ("params.trace", if traced { "phases" } else { "off" }),
                    ("data.kind", "csv"),
                ] {
                    assert_eq!(echo.path(path).unwrap().as_str(), Some(want), "{path}");
                }
                assert_eq!(echo.path("params.keysize").unwrap().as_u64(), Some(256));
                let data = s.build_dataset().unwrap();
                assert_eq!(data.num_samples(), 40);
                assert_eq!(data.num_features(), PARTIES * w.features_per_party);
                assert_eq!(
                    s.network.latency_us.is_some(),
                    matches!(w.topology, Topology::Tcp3 { .. })
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = &CATALOG[0];
        let (a, b, c) = (w.synthesize(1), w.synthesize(1), w.synthesize(2));
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.sample(0), b.sample(0));
        assert_ne!(a.sample(0), c.sample(0));
    }

    #[test]
    fn oracle_scores_the_split_the_program_uses() {
        let dir = scratch("oracle");
        for w in [&CATALOG[0], &CATALOG[2]] {
            let w = w.smoke();
            w.write_inputs(&dir, &w.synthesize(3), 3, false).unwrap();
            let oracle = w.oracle(&dir.join("data.csv")).unwrap();
            // Every fifth of 40 samples.
            assert_eq!(oracle.test_samples, 8);
            assert!(oracle.metric.is_finite() && oracle.metric >= 0.0);
            assert!(w.regression || oracle.metric <= 1.0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
