//! `pivot party`: run ONE party of a scenario as its own OS process,
//! talking to the other `m - 1` processes over TCP.
//!
//! This is the paper's actual deployment shape — one process per client
//! on a LAN — where `pivot train` folds all parties into threads of a
//! single process. Every process loads the *same* scenario file, derives
//! the same dataset from the scenario seed, and runs the same
//! [`crate::runner::run_party_protocol`] body the threaded backend runs,
//! so the trained model, test metric, and per-party byte counts match the
//! in-process run bit-for-bit.
//!
//! Rendezvous: `--peers` lists all `m` addresses in party-id order
//! (identical across processes); each process binds `--listen` (default:
//! its own `--peers` entry), dials lower ids, and accepts higher ids.
//!
//! Crash recovery: with a `[checkpoint]` section, `--resume` restarts a
//! killed party: it validates the newest durable checkpoint, re-executes
//! the deterministic protocol from genesis while its peers replay their
//! retransmit rings from seq 1, and cross-checks the checkpoint's state
//! cursors when re-execution reaches that barrier. `--supervise` wraps
//! the party in a small supervisor that drives the `kill_party` chaos
//! fault — really SIGKILLing the child at the configured level and
//! relaunching it with `--resume`.

use crate::checkpoint::{load_latest, scenario_fingerprint, CheckpointError, CliCheckpointSink};
use crate::report;
use crate::runner::{compute_metric, metric_name_for, prepare, run_party_protocol, Execution};
use crate::scenario::Scenario;
use pivot_core::Counter;
use pivot_data::partition_vertically;
use pivot_transport::tcp::{connect_mesh, connect_mesh_restart};
use pivot_transport::{
    catch_failures, FaultInjector, ProtocolError, RunFailure, TransportError, TransportErrorKind,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Exit code for a transport failure (peer dead, wedge, unresumable
/// link) — distinct from `1` so a harness can tell "the run died on the
/// network" from "the invocation was wrong".
pub const EXIT_TRANSPORT_FAILURE: u8 = 10;
/// Exit code when this party's own `crash_party` fault fired.
pub const EXIT_INJECTED_CRASH: u8 = 11;
/// Exit code when the verification plane rejected a zero-knowledge
/// proof: the protocol *content* failed, not the network — the
/// structured error report names the accused cheater.
pub const EXIT_PROOF_REJECTED: u8 = 12;
/// Exit code for a checkpoint failure: unreadable/corrupt/mismatched
/// checkpoint state under `--resume`, or a durable write that failed
/// mid-run. The durability plane failed, not the network or the
/// protocol.
pub const EXIT_CHECKPOINT_ERROR: u8 = 13;

/// How a `pivot party` run failed.
pub enum PartyError {
    /// Bad invocation / scenario / IO — exit code 1.
    Usage(String),
    /// The distributed run died on the network. A structured error
    /// report has already been written; exit code 10 (or 11 when the
    /// failure is this party's own injected crash).
    Transport(Box<TransportError>),
    /// The verification plane rejected a proof. A structured error
    /// report naming the accused party has already been written; exit
    /// code 12.
    Protocol(Box<ProtocolError>),
    /// The crash-recovery plane failed (see [`CheckpointError`]). A
    /// structured error report has already been written; exit code 13.
    Checkpoint(Box<CheckpointError>),
    /// `--supervise` only: the supervised child exited non-zero and the
    /// supervisor mirrors its code.
    Child { code: u8 },
}

impl PartyError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            PartyError::Usage(_) => 1,
            PartyError::Transport(err) if err.kind == TransportErrorKind::InjectedCrash => {
                EXIT_INJECTED_CRASH
            }
            PartyError::Transport(_) => EXIT_TRANSPORT_FAILURE,
            PartyError::Protocol(_) => EXIT_PROOF_REJECTED,
            PartyError::Checkpoint(_) => EXIT_CHECKPOINT_ERROR,
            PartyError::Child { code } => *code,
        }
    }
}

impl std::fmt::Display for PartyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartyError::Usage(e) => write!(f, "{e}"),
            PartyError::Transport(err) => write!(f, "{err}"),
            PartyError::Protocol(err) => write!(f, "{err}"),
            PartyError::Checkpoint(err) => write!(f, "{err}"),
            PartyError::Child { code } => write!(f, "supervised party exited with code {code}"),
        }
    }
}

impl From<String> for PartyError {
    fn from(e: String) -> PartyError {
        PartyError::Usage(e)
    }
}

/// Parsed arguments of the `party` subcommand.
pub struct PartyArgs {
    pub scenario: PathBuf,
    pub id: usize,
    /// Local bind address; defaults to `peers[id]`.
    pub listen: Option<String>,
    /// All party addresses in id order (shared verbatim by every process).
    pub peers: Vec<String>,
    pub out: Option<PathBuf>,
    pub quiet: bool,
    /// Restart from the newest checkpoint in the scenario's
    /// `checkpoint.dir` (fresh start when none exists yet).
    pub resume: bool,
    /// Run as a supervisor: spawn the real party as a child process and
    /// drive the scenario's `kill_party` fault (SIGKILL + relaunch with
    /// `--resume`).
    pub supervise: bool,
}

/// Execute one party end to end and write its JSON report. On a
/// transport failure the report is replaced by a structured *error*
/// report (kind, peer, direction, phase, elapsed) and the returned
/// [`PartyError`] maps to a distinct exit code. With `--supervise` this
/// instead runs the supervisor loop around a child party process.
pub fn run(args: &PartyArgs) -> Result<(), PartyError> {
    if args.supervise {
        return run_supervised(args);
    }
    let scenario = Scenario::load(&args.scenario)?;
    let algo = scenario.sole_algorithm()?;
    let m = scenario.parties;
    if args.resume && scenario.checkpoint.is_none() {
        return Err("--resume needs a [checkpoint] section in the scenario"
            .to_string()
            .into());
    }
    if args.peers.len() != m {
        return Err(format!(
            "--peers lists {} addresses but the scenario has {m} parties",
            args.peers.len()
        )
        .into());
    }
    if args.id >= m {
        return Err(format!("--id {} out of range for {m} parties", args.id).into());
    }

    // Same deterministic pipeline as the threaded runner: every process
    // synthesizes the full dataset from the scenario seed, splits, and
    // keeps only its own vertical view.
    let (train_set, test_set, params) = prepare(&scenario, algo)?;
    let train_part = partition_vertically(&train_set, m, 0);
    let test_part = partition_vertically(&test_set, m, 0);
    let plan = scenario.fault_plan()?;
    let injector = (!plan.is_empty()).then(|| FaultInjector::new(args.id, m, &plan));

    let listen = args
        .listen
        .clone()
        .unwrap_or_else(|| args.peers[args.id].clone());
    if !args.quiet {
        println!(
            "party {}/{m} [{}]: listening on {listen}, rendezvous with {:?}",
            args.id,
            algo.label(),
            args.peers
        );
    }
    let out_path = args.out.clone().unwrap_or_else(|| {
        report::default_report_path(&args.scenario, &format!("-party{}", args.id))
    });
    let start = Instant::now();
    // Write a structured error report in place of the result report and
    // return the typed failure.
    let fail = |err: PartyError| -> Result<(), PartyError> {
        let wall_s = start.elapsed().as_secs_f64();
        let report = report::party_failure_report(&scenario, args.id, &err, wall_s);
        std::fs::write(&out_path, report.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
        if !args.quiet {
            eprintln!("party {} failed: {err}", args.id);
            eprintln!("error report written to {}", out_path.display());
        }
        Err(err)
    };

    // `--resume`: validate the newest durable checkpoint (if any) before
    // dialing. Its cursors are cross-checked when re-execution from
    // genesis reaches its barrier; the frames come from the peers' rings.
    let mut checkpoint = CliCheckpointSink::for_party(&scenario, args.id);
    if args.resume {
        let spec = scenario.checkpoint.as_ref().expect("checked above");
        let fingerprint = scenario_fingerprint(&scenario);
        match load_latest(Path::new(&spec.dir), args.id as u64, m as u64, fingerprint) {
            Ok(Some(file)) => {
                if !args.quiet {
                    println!(
                        "party {} resuming: re-executing from genesis, peers replay from \
                         seq 1; checkpoint ordinal {} (level {}) is cross-checked",
                        args.id, file.ordinal, file.level,
                    );
                }
                checkpoint = checkpoint.map(|c| c.with_resume_verify(file.ordinal, file.cursors));
            }
            // Killed before the first barrier: nothing to cross-check.
            Ok(None) => {
                if !args.quiet {
                    println!(
                        "party {}: no checkpoint in {} yet, resuming from genesis",
                        args.id, spec.dir
                    );
                }
            }
            Err(err) => return fail(PartyError::Checkpoint(Box::new(err))),
        }
    }

    let connect = if args.resume {
        connect_mesh_restart(args.id, &listen, &args.peers, scenario.net_config())
    } else {
        connect_mesh(args.id, &listen, &args.peers, scenario.net_config())
    };
    let checkpoint_handle = checkpoint.as_ref().map(CliCheckpointSink::handle);
    let result = connect
        .map_err(|e| {
            // Rendezvous failures are transport failures too: same
            // structured report, same exit code.
            let kind = if e.kind() == std::io::ErrorKind::TimedOut {
                TransportErrorKind::Timeout
            } else {
                TransportErrorKind::Disconnected
            };
            let mut err = TransportError::new(kind, args.id, e.to_string());
            err.phase = "connect".into();
            RunFailure::Transport(err)
        })
        .and_then(|ep| {
            if let Some(injector) = injector {
                ep.set_fault_injector(injector);
            }
            let outcome = catch_failures(|| {
                run_party_protocol(
                    &ep,
                    train_part.views[args.id].clone(),
                    &test_part.views[args.id],
                    &params,
                    &scenario.model,
                    algo,
                    false,
                    checkpoint,
                )
            })?;
            // Peers still finishing must not take a finished party's
            // exit for a break to redial.
            ep.close();
            Ok(outcome)
        });
    let wall_s = start.elapsed().as_secs_f64();

    // A checkpoint failure wins over the run's own outcome: a resume that
    // diverged from its checkpoint usually desynchronises the protocol
    // too, and a run that could not persist its checkpoints is not a
    // durable run. Either way the exit code is 13.
    if let Some(err) = checkpoint_handle.and_then(|h| h.take_error()) {
        return fail(PartyError::Checkpoint(Box::new(err)));
    }
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(RunFailure::Transport(err)) => return fail(PartyError::Transport(Box::new(err))),
        Err(RunFailure::Protocol(err)) => return fail(PartyError::Protocol(Box::new(err))),
    };

    // This process hosts exactly one party, so the process-global runtime
    // sink holds only this party's background telemetry.
    let runtime = pivot_trace::take_runtime();
    let runtime_trace = (!runtime.is_empty()).then_some(runtime);

    let task = train_set.task();
    let metric = compute_metric(task, &outcome.predictions, test_set.labels());
    let exec = Execution {
        algo,
        wall_s,
        train_samples: train_set.num_samples(),
        test_samples: test_set.num_samples(),
        features: train_set.num_features(),
        task,
        parties: vec![outcome],
        metric,
        metric_name: metric_name_for(task),
        runtime_trace,
    };

    let report = report::party_report(&scenario, args.id, &exec);
    std::fs::write(&out_path, report.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    // Traced runs also get this party's Perfetto/Prometheus side-cars
    // (`<out-stem>-trace.json` / `.prom`) next to the report.
    report::write_trace_exports(&out_path, &exec, args.quiet)?;

    if !args.quiet {
        let p = &exec.parties[0];
        println!(
            "party {} done: trained {} internal nodes in {:.2}s ({} B sent), \
             predicted {} samples in {:.2}s",
            args.id,
            p.internal_nodes,
            p.train_wall_s,
            p.train[Counter::BytesSent],
            exec.test_samples,
            p.predict_wall_s,
        );
        if let Some(metric) = exec.metric {
            println!("test {} = {metric:.4}", exec.metric_name);
        }
        println!("report written to {}", out_path.display());
    }
    Ok(())
}

/// Rebuild the child's `party` argv from the parsed arguments (everything
/// except `--supervise`, plus `--resume` on relaunch).
fn child_argv(args: &PartyArgs, resume: bool) -> Vec<String> {
    let mut argv = vec![
        "party".to_string(),
        "--scenario".to_string(),
        args.scenario.display().to_string(),
        "--id".to_string(),
        args.id.to_string(),
        "--peers".to_string(),
        args.peers.join(","),
    ];
    if let Some(listen) = &args.listen {
        argv.push("--listen".to_string());
        argv.push(listen.clone());
    }
    if let Some(out) = &args.out {
        argv.push("--out".to_string());
        argv.push(out.display().to_string());
    }
    if args.quiet {
        argv.push("--quiet".to_string());
    }
    if resume {
        argv.push("--resume".to_string());
    }
    argv
}

/// The level recorded in a checkpoint filename
/// (`party<p>-<ordinal>-l<level>.ckpt`), when `name` is one of `party`'s.
fn ckpt_file_level(name: &str, party: usize) -> Option<u64> {
    let rest = name
        .strip_prefix(&format!("party{party}-"))?
        .strip_suffix(".ckpt")?;
    rest.rsplit_once("-l")?.1.parse().ok()
}

/// `--supervise`: run the real party as a child process and drive the
/// scenario's `kill_party` fault against it — wait for the child to write
/// a checkpoint at (or past) the configured level, SIGKILL it, sleep
/// `restart_after`, relaunch with `--resume`, and mirror the final exit.
/// Without a `kill_party` entry for this id the supervisor degenerates to
/// a plain wrapper that forwards the child's exit code.
fn run_supervised(args: &PartyArgs) -> Result<(), PartyError> {
    let scenario = Scenario::load(&args.scenario)?;
    let plan = scenario.fault_plan()?;
    let kill = plan.kill_spec(args.id);
    if kill.is_some() && scenario.checkpoint.is_none() {
        // Also caught by scenario validation; keep the supervisor safe
        // against programmatic callers.
        return Err("kill_party needs a [checkpoint] section".to_string().into());
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the pivot binary for the child: {e}"))?;
    let spawn = |resume: bool| {
        std::process::Command::new(&exe)
            .args(child_argv(args, resume))
            .spawn()
            .map_err(|e| PartyError::Usage(format!("cannot spawn child party: {e}")))
    };
    let mirror = |status: std::process::ExitStatus| -> Result<(), PartyError> {
        if status.success() {
            Ok(())
        } else {
            Err(PartyError::Child {
                // A signal death (no code) is reported as a transport
                // failure: the mesh lost this party.
                code: status.code().map_or(EXIT_TRANSPORT_FAILURE, |c| c as u8),
            })
        }
    };

    let mut child = spawn(args.resume)?;
    let Some((at_level, restart_after)) = kill else {
        let status = child
            .wait()
            .map_err(|e| format!("cannot wait for child party: {e}"))?;
        return mirror(status);
    };

    let dir = PathBuf::from(&scenario.checkpoint.as_ref().expect("checked above").dir);
    if !args.quiet {
        println!(
            "supervisor {}: will SIGKILL at checkpoint level >= {at_level}, \
             restart after {restart_after:?}",
            args.id
        );
    }
    // Watch the checkpoint directory until the child has durably reached
    // the kill level (or exits first — then just mirror it).
    loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| PartyError::Usage(format!("cannot poll child party: {e}")))?
        {
            return mirror(status);
        }
        let reached = std::fs::read_dir(&dir)
            .ok()
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok())
            .filter_map(|e| ckpt_file_level(&e.file_name().to_string_lossy(), args.id))
            .any(|level| level >= at_level);
        if reached {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child
        .kill()
        .map_err(|e| PartyError::Usage(format!("cannot kill child party: {e}")))?;
    let _ = child.wait();
    if !args.quiet {
        println!(
            "supervisor {}: child killed at level {at_level}, relaunching with \
             --resume in {restart_after:?}",
            args.id
        );
    }
    std::thread::sleep(restart_after);
    let mut relaunched = spawn(true)?;
    let status = relaunched
        .wait()
        .map_err(|e| format!("cannot wait for resumed child party: {e}"))?;
    mirror(status)
}
