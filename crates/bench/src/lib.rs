//! Shared harness for the Pivot benchmark suite.
//!
//! Every table and figure of the paper's §8 maps to one binary in
//! `src/bin/` and one Criterion bench in `benches/`, each named after the
//! table or figure it reproduces. This library holds the common
//! machinery: scaled-down default parameters (Table 4 shapes at laptop
//! scale), dataset construction, and timed SPMD protocol runs.

use pivot_core::baselines::{npd_dt, spdz_dt};
use pivot_core::config::{PivotParams, Protocol};
use pivot_core::{party::PartyContext, train_basic, train_enhanced};
use pivot_data::{partition_vertically, synth, Dataset, Task};
use pivot_transport::{run_parties_with, NetConfig};
use pivot_trees::TreeParams;
use std::time::{Duration, Instant};

/// Which training algorithm a run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Pivot basic protocol (§4).
    PivotBasic,
    /// Pivot basic with parallel threshold decryption (`-PP`).
    PivotBasicPp,
    /// Pivot enhanced protocol (§5).
    PivotEnhanced,
    /// Pivot enhanced with parallel threshold decryption (`-PP`).
    PivotEnhancedPp,
    /// Pure-MPC baseline.
    SpdzDt,
    /// Non-private distributed baseline.
    NpdDt,
}

impl Algo {
    pub fn label(&self) -> &'static str {
        match self {
            Algo::PivotBasic => "Pivot-Basic",
            Algo::PivotBasicPp => "Pivot-Basic-PP",
            Algo::PivotEnhanced => "Pivot-Enhanced",
            Algo::PivotEnhancedPp => "Pivot-Enhanced-PP",
            Algo::SpdzDt => "SPDZ-DT",
            Algo::NpdDt => "NPD-DT",
        }
    }

    /// Whether this is a `-PP` variant: §8.3's distinction is only how
    /// many cores run the bulk crypto operations.
    pub fn is_pp(&self) -> bool {
        matches!(self, Algo::PivotBasicPp | Algo::PivotEnhancedPp)
    }
}

/// One evaluation configuration (the paper's Table 4 parameters).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Clients `m`.
    pub m: usize,
    /// Samples `n`.
    pub n: usize,
    /// Features per client `d̄` (total `d = m·d̄`).
    pub d_per_client: usize,
    /// Max splits per feature `b`.
    pub b: usize,
    /// Max tree depth `h`.
    pub h: usize,
    /// Classes `c` (paper default 4).
    pub classes: usize,
    /// Paillier modulus bits.
    pub keysize: u32,
    /// Worker threads for the batched crypto runtime under `-PP`
    /// (paper §8.3: 6 cores).
    pub crypto_threads: usize,
    /// Dataset / dealer seed.
    pub seed: u64,
    /// Per-run network settings (LAN simulation + wedge timeout); no
    /// simulation by default, sweeps override per configuration.
    pub net: NetConfig,
}

impl Default for BenchConfig {
    /// Laptop-scale defaults preserving Table 4's shape
    /// (m=3, d̄ and b smaller, n in the hundreds; `--paper-scale` lifts
    /// them — see EXPERIMENTS.md).
    fn default() -> Self {
        BenchConfig {
            m: 3,
            n: 200,
            d_per_client: 3,
            b: 4,
            h: 3,
            classes: 4,
            keysize: 256,
            crypto_threads: 6,
            seed: 0xBE7C4,
            net: NetConfig::default(),
        }
    }
}

impl BenchConfig {
    /// The paper's actual Table 4 defaults (long-running!).
    pub fn paper_scale() -> Self {
        BenchConfig {
            m: 3,
            n: 50_000,
            d_per_client: 15,
            b: 8,
            h: 4,
            classes: 4,
            keysize: 1024,
            crypto_threads: 6,
            seed: 0xBE7C4,
            net: NetConfig::default(),
        }
    }

    /// Generate the synthetic classification dataset for this config
    /// (sklearn-style, as in §8.1).
    pub fn classification_dataset(&self) -> Dataset {
        synth::make_classification(&synth::ClassificationSpec {
            samples: self.n,
            features: self.m * self.d_per_client,
            informative: (self.m * self.d_per_client).div_ceil(2),
            classes: self.classes,
            class_sep: 1.5,
            flip_y: 0.01,
            seed: self.seed,
        })
    }

    /// Synthetic regression dataset with the same shape.
    pub fn regression_dataset(&self) -> Dataset {
        synth::make_regression(&synth::RegressionSpec {
            samples: self.n,
            features: self.m * self.d_per_client,
            informative: (self.m * self.d_per_client).div_ceil(2),
            noise: 0.1,
            seed: self.seed,
        })
    }

    /// PivotParams for an algorithm under this config.
    pub fn params(&self, algo: Algo) -> PivotParams {
        let tree = TreeParams {
            max_depth: self.h,
            min_samples: 2,
            max_splits: self.b,
            stop_when_pure: false, // full trees, matching the paper's 2^h−1
        };
        let base = PivotParams {
            tree,
            keysize: self.keysize,
            crypto_threads: self.crypto_threads,
            dealer_seed: self.seed,
            ..Default::default()
        };
        algo_params(algo, base)
    }
}

/// The single source of algorithm-to-parameter policy, shared by the bench
/// harness and `pivot-cli`, applied on top of the caller's `base` knobs:
/// enhanced variants run `Protocol::Enhanced` without the purity stop (see
/// `PivotParams::enhanced`) at a keysize floor of 192 bits (the
/// share-conversion mask needs headroom — `pivot_core::gain`, "Scale
/// discipline"), and every non-`-PP` variant runs the same batch API
/// serially: one crypto thread, no background precomputation.
pub fn algo_params(algo: Algo, base: PivotParams) -> PivotParams {
    let mut p = base;
    if matches!(algo, Algo::PivotEnhanced | Algo::PivotEnhancedPp) {
        p.protocol = Protocol::Enhanced;
        p.tree.stop_when_pure = false;
        p.keysize = p.keysize.max(192);
    }
    if !algo.is_pp() {
        p.crypto_threads = 1;
        p.randomness_pool = 0;
        p.dealer_pool = 0;
    }
    p
}

/// Outcome of one timed training run.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    pub wall: Duration,
    /// Threshold decryptions performed by party 0 (`Cd`).
    pub decryptions: u64,
    /// Paillier encryptions by party 0 (`Ce`).
    pub encryptions: u64,
    /// Secure multiplications (`Cs`) by party 0.
    pub mults: u64,
    /// Secure comparisons (`Cc`) by party 0.
    pub comparisons: u64,
    /// Bytes sent by party 0.
    pub bytes_sent: u64,
    /// Internal nodes of the trained tree.
    pub internal_nodes: usize,
}

/// Run one training session and time it (wall clock across all parties).
pub fn run_training(cfg: &BenchConfig, algo: Algo, data: &Dataset) -> TrainOutcome {
    let partition = partition_vertically(data, cfg.m, 0);
    let params = cfg.params(algo);
    let start = Instant::now();
    let results = run_parties_with(cfg.m, cfg.net.clone(), |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view, params.clone());
        let internal = match algo {
            Algo::PivotBasic | Algo::PivotBasicPp => train_basic::train(&mut ctx).internal_count(),
            Algo::PivotEnhanced | Algo::PivotEnhancedPp => {
                train_enhanced::train(&mut ctx).internal_count()
            }
            Algo::SpdzDt => spdz_dt::train(&mut ctx).internal_count(),
            Algo::NpdDt => npd_dt::train(&mut ctx).internal_count(),
        };
        let (_, mults, comparisons, _) = ctx.engine.counters().snapshot();
        (
            internal,
            ctx.metrics.threshold_decryptions(),
            ctx.metrics.encryptions(),
            mults,
            comparisons,
            ctx.ep.stats().bytes_sent(),
        )
    });
    let wall = start.elapsed();
    let (internal, dec, enc, mults, cmps, bytes) = results[0];
    TrainOutcome {
        wall,
        decryptions: dec,
        encryptions: enc,
        mults,
        comparisons: cmps,
        bytes_sent: bytes,
        internal_nodes: internal,
    }
}

/// Time distributed prediction (`per-sample` average over `count` samples).
pub fn run_prediction(cfg: &BenchConfig, algo: Algo, data: &Dataset, count: usize) -> Duration {
    use pivot_core::{predict_basic, predict_enhanced};
    let partition = partition_vertically(data, cfg.m, 0);
    let params = cfg.params(algo);
    let count = count.min(data.num_samples());

    let elapsed: Vec<Duration> = run_parties_with(cfg.m, cfg.net.clone(), |ep| {
        let view = partition.views[ep.id()].clone();
        let mut ctx = PartyContext::setup(&ep, view.clone(), params.clone());
        let samples: Vec<Vec<f64>> = (0..count).map(|i| view.features[i].clone()).collect();
        match algo {
            Algo::PivotEnhanced | Algo::PivotEnhancedPp => {
                let tree = train_enhanced::train(&mut ctx);
                let start = Instant::now();
                let _ = predict_enhanced::predict_batch(&mut ctx, &tree, &samples);
                start.elapsed()
            }
            Algo::NpdDt => {
                let tree = npd_dt::train(&mut ctx);
                // Non-private distributed prediction: clients exchange
                // their plaintext feature values, then walk the tree.
                let start = Instant::now();
                let d_total = ctx.feature_owners.len();
                for local in &samples {
                    let all = ctx.ep.exchange_all(local);
                    let mut full = vec![0.0f64; d_total];
                    for (client, vals) in all.iter().enumerate() {
                        let indices = if client == ctx.id() {
                            ctx.view.feature_indices.clone()
                        } else {
                            // Contiguous-block layout: recover indices
                            // from the ownership map.
                            ctx.feature_owners
                                .iter()
                                .enumerate()
                                .filter(|(_, &o)| o == client)
                                .map(|(j, _)| j)
                                .collect()
                        };
                        for (slot, &j) in indices.iter().enumerate() {
                            full[j] = vals[slot];
                        }
                    }
                    std::hint::black_box(tree.predict(&full));
                }
                start.elapsed()
            }
            _ => {
                let tree = train_basic::train(&mut ctx);
                let start = Instant::now();
                let _ = predict_basic::predict_batch(&mut ctx, &tree, &samples);
                start.elapsed()
            }
        }
    });
    elapsed[0] / count as u32
}

/// Parse `--paper-scale` (full Table 4 parameters) from the process args.
pub fn scale_from_args() -> BenchConfig {
    if std::env::args().any(|a| a == "--paper-scale") {
        BenchConfig::paper_scale()
    } else {
        BenchConfig::default()
    }
}

/// Parse `--sweep <name>` from the process args.
pub fn sweep_from_args(default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--sweep")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Make a regression/classification `Dataset` into evaluation splits and
/// report accuracy or MSE (Table 3 metric).
pub fn table3_metric(task: Task, preds: &[f64], truth: &[f64]) -> f64 {
    match task {
        Task::Classification { .. } => pivot_data::metrics::accuracy(preds, truth),
        Task::Regression => pivot_data::metrics::mse(preds, truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_all_algorithms() {
        let cfg = BenchConfig {
            n: 40,
            d_per_client: 2,
            b: 3,
            h: 2,
            classes: 2,
            keysize: 128,
            ..Default::default()
        };
        let data = cfg.classification_dataset();
        for algo in [Algo::PivotBasic, Algo::SpdzDt, Algo::NpdDt] {
            let out = run_training(&cfg, algo, &data);
            assert!(out.internal_nodes >= 1, "{algo:?} produced a stump");
        }
    }

    #[test]
    fn parallel_variant_runs() {
        let cfg = BenchConfig {
            n: 30,
            d_per_client: 2,
            b: 3,
            h: 2,
            classes: 2,
            keysize: 128,
            ..Default::default()
        };
        let data = cfg.classification_dataset();
        let out = run_training(&cfg, Algo::PivotBasicPp, &data);
        assert!(out.decryptions > 0);
    }

    #[test]
    fn default_config_shapes() {
        let cfg = BenchConfig::default();
        let data = cfg.classification_dataset();
        assert_eq!(data.num_samples(), cfg.n);
        assert_eq!(data.num_features(), cfg.m * cfg.d_per_client);
        let paper = BenchConfig::paper_scale();
        assert_eq!(paper.n, 50_000);
        assert_eq!(paper.keysize, 1024);
    }
}
