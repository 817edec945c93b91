//! Scenario execution: SPMD protocol runs with per-stage timing and
//! per-party traffic accounting.

use crate::algo::Algo;
use crate::checkpoint::CliCheckpointSink;
use crate::scenario::{ModelKind, ModelSpec, Scenario};
use pivot_core::baselines::{npd_dt, spdz_dt};
use pivot_core::checkpoint::CheckpointSink;
use pivot_core::config::PivotParams;
use pivot_core::ensemble::{
    predict_gbdt_batch, predict_rf_batch, train_gbdt, train_rf, GbdtProtocolParams,
    RfProtocolParams,
};
use pivot_core::model::ConcealedTree;
use pivot_core::party::PartyContext;
use pivot_core::{
    predict_basic, predict_enhanced, train_basic, train_enhanced, FixedConfig, Snapshot,
};
use pivot_data::{metrics, partition_vertically, Task, VerticalView};
use pivot_transport::{try_run_parties_on, Endpoint, FaultInjector, Network};
use pivot_trees::DecisionTree;
use std::time::Instant;

/// Everything one party reports back from an SPMD run.
#[derive(Clone, Debug)]
pub struct PartyOutcome {
    pub party: usize,
    /// Wall time of `PartyContext::setup`: key dealing, super-client
    /// discovery and the feature schema.
    pub setup_wall_s: f64,
    pub train_wall_s: f64,
    pub predict_wall_s: f64,
    /// The party's counter registry when training ended, staged frames
    /// settled.
    pub train: Snapshot,
    /// The party's counter registry at the end of the run.
    pub counters: Snapshot,
    /// Trained-model shape.
    pub internal_nodes: usize,
    pub tree_depth: Option<usize>,
    /// Test-set predictions (identical across parties by protocol).
    pub predictions: Vec<f64>,
    /// Span timeline + gauges when `params.trace` is on (`None` when
    /// tracing is off — the default).
    pub trace: Option<pivot_trace::PartyTrace>,
}

impl PartyOutcome {
    /// What the prediction phase counted: the end of the run less the
    /// end of training.
    pub fn predict(&self) -> Snapshot {
        &self.counters - &self.train
    }
}

/// One full scenario execution.
#[derive(Clone, Debug)]
pub struct Execution {
    pub algo: Algo,
    pub wall_s: f64,
    pub train_samples: usize,
    pub test_samples: usize,
    pub features: usize,
    pub task: Task,
    pub parties: Vec<PartyOutcome>,
    /// Test metric: accuracy (classification) or MSE (regression); `None`
    /// when the scenario holds out no test data or prediction is skipped.
    pub metric: Option<f64>,
    pub metric_name: &'static str,
    /// Off-party-thread telemetry (worker-pool gauges, reconnect spans)
    /// drained from the process-global sink after the run.
    pub runtime_trace: Option<pivot_trace::RuntimeTrace>,
}

enum Trained {
    Plain(DecisionTree),
    Concealed(ConcealedTree),
    Gbdt(pivot_core::ensemble::GbdtModel),
    Rf(pivot_core::ensemble::RfModel),
}

impl Trained {
    fn internal_nodes(&self) -> usize {
        match self {
            Trained::Plain(t) => t.internal_count(),
            Trained::Concealed(t) => t.internal_count(),
            Trained::Gbdt(m) => m
                .forests
                .iter()
                .flatten()
                .map(DecisionTree::internal_count)
                .sum(),
            Trained::Rf(m) => m.trees.iter().map(DecisionTree::internal_count).sum(),
        }
    }

    fn depth(&self) -> Option<usize> {
        match self {
            Trained::Plain(t) => Some(t.depth()),
            // Concealed trees do not reveal their realized shape.
            Trained::Concealed(_) => None,
            Trained::Gbdt(m) => m.forests.iter().flatten().map(DecisionTree::depth).max(),
            Trained::Rf(m) => m.trees.iter().map(DecisionTree::depth).max(),
        }
    }
}

/// One party's full protocol run: train, then (unless `skip_prediction`)
/// jointly predict the test split. This is the body every backend shares —
/// `execute` calls it from `m` threads over in-process channels, and
/// `pivot party` calls it once per OS process over a TCP endpoint — so a
/// distributed run is byte-for-byte the run the threaded backend performs.
#[allow(clippy::too_many_arguments)]
pub fn run_party_protocol(
    ep: &Endpoint,
    view: VerticalView,
    test_view: &VerticalView,
    params: &PivotParams,
    model_spec: &ModelSpec,
    algo: Algo,
    skip_prediction: bool,
    checkpoint: Option<CliCheckpointSink>,
) -> PartyOutcome {
    // A no-op at the default `TraceLevel::Off`; otherwise this thread
    // records spans until the matching `finish()` below.
    pivot_trace::install(ep.id(), params.trace, ep.counters());
    let setup_start = Instant::now();
    let mut ctx = PartyContext::setup(ep, view, params.clone());
    let setup_wall_s = setup_start.elapsed().as_secs_f64();
    ctx.checkpoint = checkpoint.map(|sink| Box::new(sink) as Box<dyn CheckpointSink>);

    let train_start = Instant::now();
    let model = match (&model_spec.kind, algo) {
        (ModelKind::Gbdt, _) => Trained::Gbdt(train_gbdt(
            &mut ctx,
            &GbdtProtocolParams {
                rounds: model_spec.rounds,
                learning_rate: model_spec.learning_rate,
            },
        )),
        (ModelKind::RandomForest, _) => Trained::Rf(train_rf(
            &mut ctx,
            &RfProtocolParams {
                trees: model_spec.trees,
                sample_fraction: model_spec.sample_fraction,
                bootstrap_seed: params.dealer_seed,
            },
        )),
        (ModelKind::DecisionTree, Algo::PivotBasic | Algo::PivotBasicPp) => {
            Trained::Plain(train_basic::train(&mut ctx))
        }
        (ModelKind::DecisionTree, Algo::PivotEnhanced | Algo::PivotEnhancedPp) => {
            Trained::Concealed(train_enhanced::train(&mut ctx))
        }
        (ModelKind::DecisionTree, Algo::SpdzDt) => Trained::Plain(spdz_dt::train(&mut ctx)),
        (ModelKind::DecisionTree, Algo::NpdDt) => Trained::Plain(npd_dt::train(&mut ctx)),
    };
    let train_wall_s = train_start.elapsed().as_secs_f64();

    // Settle any staged frames so their framing counts as training
    // traffic (no-op when the staging buffers are empty).
    ctx.ep.flush();
    let train = ctx.counters.snapshot();

    let predict_start = Instant::now();
    let predictions = if skip_prediction || test_view.num_samples() == 0 {
        Vec::new()
    } else {
        let _predict = pivot_trace::phase_span("predict");
        let local: Vec<Vec<f64>> = (0..test_view.num_samples())
            .map(|i| test_view.features[i].clone())
            .collect();
        match &model {
            Trained::Plain(tree) => predict_basic::predict_batch(&mut ctx, tree, &local),
            Trained::Concealed(tree) => predict_enhanced::predict_batch(&mut ctx, tree, &local),
            Trained::Gbdt(gbdt) => predict_gbdt_batch(&mut ctx, gbdt, &local),
            Trained::Rf(rf) => predict_rf_batch(&mut ctx, rf, &local),
        }
    };
    let predict_wall_s = predict_start.elapsed().as_secs_f64();

    let counters = ctx.counters.snapshot();
    let trace = pivot_trace::finish();
    PartyOutcome {
        party: ctx.id(),
        setup_wall_s,
        train_wall_s,
        predict_wall_s,
        train,
        counters,
        internal_nodes: model.internal_nodes(),
        tree_depth: model.depth(),
        predictions,
        trace,
    }
}

/// Pre-flight checks + dataset/parameter construction shared by the
/// threaded runner and `pivot party`.
pub fn prepare(
    scenario: &Scenario,
    algo: Algo,
) -> Result<(pivot_data::Dataset, pivot_data::Dataset, PivotParams), String> {
    scenario.validate()?;
    let dataset = scenario.build_dataset()?;
    let m = scenario.parties;
    if dataset.num_features() < m {
        return Err(format!(
            "dataset has {} features, fewer than {m} parties — every party needs \
             at least one column",
            dataset.num_features()
        ));
    }
    let (train_set, test_set) = dataset.train_test_split(scenario.data.test_fraction);
    let params = scenario.pivot_params(algo);
    // Surface invalid parameter combinations as errors, not thread panics.
    let labels = scenario.label_source(train_set.task());
    params
        .validate(train_set.num_samples(), m, labels)
        .map_err(|e| format!("invalid parameters: {e}"))?;
    if algo == Algo::SpdzDt {
        for feature in 0..train_set.num_features() {
            let column = train_set.feature_column(feature);
            spdz_dt::check_feature_range(feature, &column, &FixedConfig::default())?;
        }
    }
    Ok((train_set, test_set, params))
}

/// Test metric over the jointly computed predictions (all parties hold
/// identical prediction vectors by protocol, and — datasets being
/// derived deterministically from the scenario seed — identical truth).
pub fn compute_metric(task: Task, preds: &[f64], truth: &[f64]) -> Option<f64> {
    if preds.is_empty() {
        return None;
    }
    Some(match task {
        Task::Classification { .. } => metrics::accuracy(preds, truth),
        Task::Regression => metrics::mse(preds, truth),
    })
}

/// Run one scenario end to end: train on every party thread, then (unless
/// `skip_prediction`) jointly predict the held-out test split.
///
/// Transport failures (a wedged or crashed party, an injected
/// `crash_party` fault) do not panic the process: every party's outcome
/// is collected, and the error lists *all* failed parties with their
/// structured failure (kind, peer, phase, elapsed).
pub fn execute(
    scenario: &Scenario,
    algo: Algo,
    skip_prediction: bool,
) -> Result<Execution, String> {
    // Re-check invariants: callers may hand in programmatically built
    // scenarios (e.g. sweep points) that never went through parsing.
    let (train_set, test_set, params) = prepare(scenario, algo)?;
    let m = scenario.parties;
    let train_part = partition_vertically(&train_set, m, 0);
    let test_part = partition_vertically(&test_set, m, 0);
    let model_spec = scenario.model.clone();
    let plan = scenario.fault_plan()?;
    if plan.has_kill() {
        return Err(
            "faults.plan: kill_party needs the process-per-party backend \
             (`pivot party --supervise`) — the in-process runner cannot SIGKILL \
             and relaunch one of its own threads"
                .into(),
        );
    }
    let net = scenario.net_config();
    let endpoints = Network::with_config(m, net).into_endpoints();
    if !plan.is_empty() {
        for ep in &endpoints {
            ep.set_fault_injector(FaultInjector::new(ep.id(), m, &plan));
        }
    }

    let start = Instant::now();
    let results = try_run_parties_on(endpoints, |ep| {
        let view = train_part.views[ep.id()].clone();
        let test_view = &test_part.views[ep.id()];
        let checkpoint = CliCheckpointSink::for_party(scenario, ep.id());
        run_party_protocol(
            &ep,
            view,
            test_view,
            &params,
            &model_spec,
            algo,
            skip_prediction,
            checkpoint,
        )
    });
    let wall_s = start.elapsed().as_secs_f64();

    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .map(|e| e.to_string())
        .collect();
    if !failures.is_empty() {
        return Err(format!(
            "{} of {m} parties failed: {}",
            failures.len(),
            failures.join("; ")
        ));
    }
    let outcomes: Vec<PartyOutcome> = results.into_iter().map(|r| r.unwrap()).collect();

    // Drain the process-global runtime sink (worker gauges, reconnect
    // spans). Empty when tracing is off.
    let runtime = pivot_trace::take_runtime();
    let runtime_trace = (!runtime.is_empty()).then_some(runtime);

    let task = train_set.task();
    let metric = compute_metric(task, &outcomes[0].predictions, test_set.labels());
    let metric_name = metric_name_for(task);

    Ok(Execution {
        algo,
        wall_s,
        train_samples: train_set.num_samples(),
        test_samples: test_set.num_samples(),
        features: train_set.num_features(),
        task,
        parties: outcomes,
        metric,
        metric_name,
        runtime_trace,
    })
}

pub(crate) fn metric_name_for(task: Task) -> &'static str {
    match task {
        Task::Classification { .. } => "accuracy",
        Task::Regression => "mse",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_core::Counter;

    fn tiny_scenario(tag: &str, extra: &str) -> Scenario {
        let text = format!(
            "seed = 11\nparties = 2\n[data]\nkind = \"synthetic-classification\"\n\
             samples = 40\nfeatures_per_party = 2\nclasses = 2\n[params]\n\
             max_depth = 2\nmax_splits = 3\nkeysize = 128\n{extra}"
        );
        let tmp =
            std::env::temp_dir().join(format!("pivot-cli-test-{}-{tag}.toml", std::process::id()));
        std::fs::write(&tmp, text).unwrap();
        let s = Scenario::load(&tmp).unwrap();
        std::fs::remove_file(&tmp).ok();
        s
    }

    #[test]
    fn basic_execution_produces_metric_and_traffic() {
        let s = tiny_scenario("basic", "");
        let exec = execute(&s, Algo::PivotBasic, false).unwrap();
        assert_eq!(exec.parties.len(), 2);
        assert!(exec.test_samples > 0);
        let m = exec.metric.expect("test split exists");
        assert!((0.0..=1.0).contains(&m), "accuracy {m}");
        let p0 = &exec.parties[0];
        assert!(p0.train[Counter::BytesSent] > 0);
        assert!(p0.predict()[Counter::BytesSent] > 0);
        assert!(p0.counters[Counter::ThresholdDecryptions] > 0);
        assert!(p0.internal_nodes >= 1);
        assert_eq!(p0.tree_depth, Some(p0.tree_depth.unwrap().min(2)));
        // All parties agree on the predictions.
        assert_eq!(exec.parties[0].predictions, exec.parties[1].predictions);
    }

    #[test]
    fn spdz_dt_rejects_a_feature_its_comparisons_cannot_hold() {
        // Feature 0 spans 1e8 (> 2^24 at f = 20, k = 45): SPDZ-DT's
        // comparisons would wrap; every other algorithm trains on it.
        let csv = std::env::temp_dir().join(format!("pivot-cli-wide-{}.csv", std::process::id()));
        let rows: String = (0..24)
            .map(|i| {
                format!(
                    "{},{},{}\n",
                    if i < 16 { 1e8 } else { 0.0 },
                    i % 2,
                    i % 3 % 2
                )
            })
            .collect();
        std::fs::write(&csv, rows).unwrap();
        let scenario =
            std::env::temp_dir().join(format!("pivot-cli-wide-{}.toml", std::process::id()));
        let text = format!(
            "parties = 2\n[data]\nkind = \"csv\"\npath = {:?}\n[params]\nkeysize = 128\n",
            csv.display().to_string()
        );
        std::fs::write(&scenario, text).unwrap();
        let s = Scenario::load(&scenario).unwrap();
        let err = prepare(&s, Algo::SpdzDt).unwrap_err();
        assert!(err.contains("spdz-dt: feature 0 spans 100000000"), "{err}");
        assert!(prepare(&s, Algo::PivotBasic).is_ok());
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&scenario).ok();
    }

    #[test]
    fn bench_mode_skips_prediction() {
        let s = tiny_scenario("benchmode", "");
        let exec = execute(&s, Algo::NpdDt, true).unwrap();
        assert!(exec.metric.is_none());
        assert_eq!(exec.parties[0].predict()[Counter::BytesSent], 0);
        assert!(exec.parties[0].train[Counter::BytesSent] > 0);
    }

    #[test]
    fn injected_drop_keeps_results_bit_identical() {
        let clean = execute(&tiny_scenario("dropclean", ""), Algo::PivotBasic, false).unwrap();
        let faulty = execute(
            &tiny_scenario(
                "dropfault",
                "[faults]\nplan = [\"drop_link 0-1 at_bytes=4096\"]\nseed = 5\n",
            ),
            Algo::PivotBasic,
            false,
        )
        .unwrap();
        // A transparently recovered drop changes nothing observable about
        // the protocol: same predictions, same metric, same traffic.
        assert_eq!(clean.parties[0].predictions, faulty.parties[0].predictions);
        assert_eq!(clean.metric, faulty.metric);
        assert_eq!(
            clean.parties[0].train[Counter::BytesSent],
            faulty.parties[0].train[Counter::BytesSent]
        );
        // ...but the session-health counters show the recovery happened.
        let p0 = &faulty.parties[0];
        let p0 = &p0.counters;
        assert!(p0[Counter::FaultsInjected] >= 1, "fault fired");
        assert!(
            p0[Counter::Reconnects] >= 1 && p0[Counter::ReplayedFrames] >= 1,
            "recovered"
        );
        assert_eq!(clean.parties[0].counters[Counter::FaultsInjected], 0);
    }

    #[test]
    fn crash_party_fails_the_run_with_a_structured_error() {
        let s = tiny_scenario(
            "crashfault",
            "[faults]\nplan = [\"crash_party 1 at_round=1\"]\n\
             [network]\nrecv_timeout_s = 0.5\n",
        );
        let err = execute(&s, Algo::PivotBasic, false).unwrap_err();
        assert!(err.contains("parties failed"), "{err}");
        assert!(err.contains("injected_crash"), "{err}");
        assert!(err.contains("crash_party 1"), "{err}");
    }

    #[test]
    fn csv_with_fewer_features_than_parties_rejected() {
        let csv =
            std::env::temp_dir().join(format!("pivot-cli-test-{}-narrow.csv", std::process::id()));
        std::fs::write(&csv, "f0,label\n1.0,0\n2.0,1\n3.0,0\n4.0,1\n").unwrap();
        let mut s = tiny_scenario("narrowcsv", "");
        s.data.kind = crate::scenario::DataKind::Csv;
        s.data.path = Some(csv.to_string_lossy().into_owned());
        let err = execute(&s, Algo::PivotBasic, true).unwrap_err();
        std::fs::remove_file(&csv).ok();
        assert!(err.contains("features"), "{err}");
    }
}
