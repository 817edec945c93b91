//! Scenario execution: SPMD protocol runs with per-stage timing and
//! per-party traffic accounting.

use crate::algo::Algo;
use crate::scenario::{ModelKind, ModelSpec, Scenario};
use pivot_core::baselines::{npd_dt, spdz_dt};
use pivot_core::config::PivotParams;
use pivot_core::ensemble::{
    predict_gbdt_batch, predict_rf_batch, train_gbdt, train_rf, GbdtProtocolParams,
    RfProtocolParams,
};
use pivot_core::metrics::Stage;
use pivot_core::model::ConcealedTree;
use pivot_core::party::PartyContext;
use pivot_core::{predict_basic, predict_enhanced, train_basic, train_enhanced};
use pivot_data::{metrics, partition_vertically, Task, VerticalView};
use pivot_transport::{faulty_network, try_run_parties_on, Endpoint, Network};
use pivot_trees::DecisionTree;
use std::time::Instant;

/// Everything one party reports back from an SPMD run.
#[derive(Clone, Debug)]
pub struct PartyOutcome {
    pub party: usize,
    /// Training-phase traffic.
    pub train_bytes_sent: u64,
    pub train_bytes_received: u64,
    pub train_messages_sent: u64,
    /// Prediction-phase traffic (zero when no test samples).
    pub predict_bytes_sent: u64,
    pub predict_bytes_received: u64,
    /// Stage timers, in seconds: local, MPC, model update, prediction.
    pub stage_s: [f64; 4],
    pub train_wall_s: f64,
    pub predict_wall_s: f64,
    /// Paillier / MPC operation counts (the paper's Ce, Cd, Cs, Cc).
    pub encryptions: u64,
    pub ciphertext_ops: u64,
    pub threshold_decryptions: u64,
    pub mpc_rounds: u64,
    pub secure_mults: u64,
    pub secure_comparisons: u64,
    /// Comparison-pipeline telemetry: rounds, opened field elements,
    /// consumed preprocessing material, per-width histogram.
    pub comparison: pivot_core::ComparisonCounters,
    /// Malicious-model verification plane: proofs generated / verified /
    /// skipped / rejected, proof bytes, and verification wall time. All
    /// zeros when `params.verification = "off"`.
    pub verification: pivot_core::VerificationCounters,
    /// Pooled split-statistics ciphertexts (what packing divides).
    pub split_stat_ciphertexts: u64,
    /// Packed emissions: `(ciphertexts, values carried, slot capacity)`.
    pub packed: (u64, u64, u64),
    /// Bytes this party sent inside the split-statistics pipeline.
    pub stats_bytes_sent: u64,
    /// Offline randomness-pool behavior (timing-dependent, *not* part of
    /// the cross-backend parity contract).
    pub pool: pivot_paillier::NonceStats,
    /// Session-layer health over the whole run (these survive the
    /// between-phase stats reset): dial attempts beyond the first,
    /// sessions resumed after a connection loss, frames retransmitted
    /// from the ring during resumes, peers spliced back in after a full
    /// process restart, and scenario faults fired here.
    pub connect_retries: u64,
    pub reconnects: u64,
    pub replayed_frames: u64,
    pub rejoins: u64,
    pub faults_injected: u64,
    /// Crash-recovery checkpoints durably written by this party and their
    /// total encoded size (zero without a `[checkpoint]` section).
    pub checkpoints_written: u64,
    pub checkpoint_bytes: u64,
    /// Trained-model shape.
    pub internal_nodes: usize,
    pub tree_depth: Option<usize>,
    /// Test-set predictions (identical across parties by protocol).
    pub predictions: Vec<f64>,
    /// Span timeline + gauges when `params.trace` is on (`None` when
    /// tracing is off — the default).
    pub trace: Option<pivot_trace::PartyTrace>,
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

/// A checkpoint sink ready to install on a party, paired with the shared
/// handle the report plumbing reads counters (and the first write error)
/// from after the run.
pub struct CheckpointInstall {
    pub sink: Box<dyn pivot_core::checkpoint::CheckpointSink>,
    pub handle: crate::checkpoint::CheckpointHandle,
}

impl CheckpointInstall {
    /// The production sink for one party of `scenario`.
    pub fn for_party(scenario: &Scenario, party: usize) -> Option<CheckpointInstall> {
        let spec = scenario.checkpoint.as_ref()?;
        let sink = crate::checkpoint::CliCheckpointSink::new(
            std::path::PathBuf::from(&spec.dir),
            spec.every_levels,
            party as u64,
            scenario.parties as u64,
            crate::checkpoint::scenario_fingerprint(scenario),
        );
        let handle = sink.handle();
        Some(CheckpointInstall {
            sink: Box::new(sink),
            handle,
        })
    }
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
    checkpoint: Option<CheckpointInstall>,
) -> PartyOutcome {
    // A no-op at the default `TraceLevel::Off`; otherwise this thread
    // records spans until the matching `finish()` below.
    pivot_trace::install(ep.id(), params.trace);
    // Checkpoints snapshot the *inbound transcript*, so recording must
    // start before the first setup exchange ever touches the endpoint
    // (idempotent when `--resume` already enabled it to preload replay).
    let checkpoint_handle = checkpoint.as_ref().map(|c| c.handle.clone());
    if checkpoint.is_some() {
        ep.enable_transcript();
    }
    let mut ctx = PartyContext::setup(ep, view, params.clone());
    ctx.checkpoint = checkpoint.map(|c| c.sink);

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

    // Settle any staged frames so training traffic is attributed to the
    // training counters before the reset below (no-op when the staging
    // buffers are empty).
    ctx.ep.flush();
    let stats = ctx.ep.stats();
    let train_bytes_sent = stats.bytes_sent();
    let train_bytes_received = stats.bytes_received();
    let train_messages_sent = stats.messages_sent();
    stats.reset();

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

    let (mpc_rounds, secure_mults, secure_comparisons, _openings) =
        ctx.engine.counters().snapshot();
    let comparison = ctx.engine.comparison_snapshot();
    let pool = ctx.nonces.stats();
    let trace = pivot_trace::finish();
    PartyOutcome {
        party: ctx.id(),
        train_bytes_sent,
        train_bytes_received,
        train_messages_sent,
        predict_bytes_sent: stats.bytes_sent(),
        predict_bytes_received: stats.bytes_received(),
        stage_s: [
            ctx.metrics
                .stage_time(Stage::LocalComputation)
                .as_secs_f64(),
            ctx.metrics.stage_time(Stage::MpcComputation).as_secs_f64(),
            ctx.metrics.stage_time(Stage::ModelUpdate).as_secs_f64(),
            ctx.metrics.stage_time(Stage::Prediction).as_secs_f64(),
        ],
        train_wall_s,
        predict_wall_s,
        encryptions: ctx.metrics.encryptions(),
        ciphertext_ops: ctx.metrics.ciphertext_ops(),
        threshold_decryptions: ctx.metrics.threshold_decryptions(),
        mpc_rounds,
        secure_mults,
        secure_comparisons,
        comparison,
        verification: ctx.metrics.verification(),
        split_stat_ciphertexts: ctx.metrics.split_stat_ciphertexts(),
        packed: ctx.metrics.packed(),
        stats_bytes_sent: ctx.metrics.stats_bytes_sent(),
        pool,
        connect_retries: stats.connect_retries(),
        reconnects: stats.reconnects(),
        replayed_frames: stats.replayed_frames(),
        rejoins: stats.rejoins(),
        faults_injected: stats.faults_injected(),
        checkpoints_written: checkpoint_handle.as_ref().map_or(0, |h| h.written()),
        checkpoint_bytes: checkpoint_handle.as_ref().map_or(0, |h| h.bytes()),
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
    let endpoints = if plan.is_empty() {
        Network::with_config(m, net).into_endpoints()
    } else {
        faulty_network(m, net, &plan)
    };

    let start = Instant::now();
    let results = try_run_parties_on(endpoints, |ep| {
        let view = train_part.views[ep.id()].clone();
        let test_view = &test_part.views[ep.id()];
        let checkpoint = CheckpointInstall::for_party(scenario, ep.id());
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

    // Drain the process-global runtime sink (worker gauges, background
    // refill spans). Empty when tracing is off.
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
        assert!(p0.train_bytes_sent > 0);
        assert!(p0.predict_bytes_sent > 0);
        assert!(p0.threshold_decryptions > 0);
        assert!(p0.internal_nodes >= 1);
        assert_eq!(p0.tree_depth, Some(p0.tree_depth.unwrap().min(2)));
        // All parties agree on the predictions.
        assert_eq!(exec.parties[0].predictions, exec.parties[1].predictions);
    }

    #[test]
    fn bench_mode_skips_prediction() {
        let s = tiny_scenario("benchmode", "");
        let exec = execute(&s, Algo::NpdDt, true).unwrap();
        assert!(exec.metric.is_none());
        assert_eq!(exec.parties[0].predict_bytes_sent, 0);
        assert!(exec.parties[0].train_bytes_sent > 0);
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
            clean.parties[0].train_bytes_sent,
            faulty.parties[0].train_bytes_sent
        );
        // ...but the session-health counters show the recovery happened.
        let p0 = &faulty.parties[0];
        assert!(p0.faults_injected >= 1, "fault fired");
        assert!(p0.reconnects >= 1 && p0.replayed_frames >= 1, "recovered");
        assert_eq!(clean.parties[0].faults_injected, 0);
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
