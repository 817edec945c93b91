//! The `pivot` binary: scenario-driven train / predict / bench runs.

use pivot_cli::report;
use pivot_cli::runner::execute;
use pivot_cli::scenario::Scenario;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
pivot — privacy preserving vertical federated learning for tree-based models

USAGE:
    pivot <train|predict|bench> --scenario <FILE> [--out <FILE>] [--quiet]
    pivot party --scenario <FILE> --id <N> --peers <ADDR0,ADDR1,...>
                [--listen <ADDR>] [--out <FILE>] [--quiet]
                [--resume] [--supervise]
    pivot trace <FILE> [--check]
    pivot trace --diff <FILE_A> <FILE_B>
    pivot --help | --version

SUBCOMMANDS:
    train      Train on the scenario's dataset, evaluate the held-out
               split, and write a full JSON report (all parties run as
               threads of this process)
    predict    Same run, reported around prediction latency (per-sample
               time, prediction-phase traffic)
    bench      Run the scenario's [sweep] axis across its algorithms
               (a Figure-4-style sweep) and report every point; network
               axes (latency_us, bandwidth_mbps) sweep within one process
    party      Run ONE party of the scenario over TCP — one process per
               client, the paper's deployment shape. Start m processes
               with ids 0..m-1 and the same --peers list; each writes a
               per-party report matching the in-process run bit-for-bit.
               Lost connections are resumed transparently (replayed from
               a retransmit ring); with a [checkpoint] section each
               party also writes durable checkpoints it can restart
               from. Unrecoverable failures write a structured error
               report and exit 10 (transport failure, incl. a peer lost
               past the rejoin deadline or an unreplayable resume gap),
               11 (this party's own [faults] crash_party fired), 12 (a
               zero-knowledge proof was rejected — the report names the
               accused party), or 13 (checkpoint state unreadable,
               corrupt, mismatched, or unwritable)
    trace      Inspect tracing output: point it at a run report (train /
               predict / bench / party JSON) to print the embedded
               per-phase round/byte/wall tables, or at a
               *-trace.json Chrome-trace export to reconstruct and print
               the phase table plus the top round-serializing spans.
               Traces exist when the scenario sets params.trace =
               \"phases\" or \"full\"

OPTIONS:
    --scenario <FILE>   TOML scenario, or JSON (by extension) read through
                        the same schema: same sections, keys and ranges
                        (see examples/scenarios/; README, Scenario keys)
    --out <FILE>        Report path (default: <scenario-stem>-report.json,
                        or <scenario-stem>-party<N>-report.json for party)
    --quiet             Suppress the human-readable summary on stdout
    --id <N>            party only: this process's party id in 0..m
    --peers <LIST>      party only: comma-separated addresses of all m
                        parties in id order (same list for every process)
    --listen <ADDR>     party only: local bind address (default: the
                        --peers entry for --id)
    --resume            party only: restart from the newest checkpoint in
                        the scenario's checkpoint.dir (fresh start when
                        none exists yet); peers splice the restarted
                        party back in and replay what it missed
    --supervise         party only: wrap the party in a supervisor child
                        process to drive a [faults] kill_party entry —
                        really SIGKILLs the child at the configured
                        level, then relaunches it with --resume
    --check             trace only: validate a Chrome-trace export
                        (balanced B/E per track, monotonic timestamps,
                        known phase names) and exit non-zero on violation
    --diff              trace only: take two report / trace files and
                        print their per-phase rounds, sent bytes, and
                        wait_s side by side with signed deltas (B − A)
                        and the total round ratio — e.g. the same
                        scenario before and after a change
    -h, --help          Show this help
    -V, --version       Show the version
";

struct Args {
    command: String,
    scenario: PathBuf,
    out: Option<PathBuf>,
    quiet: bool,
}

fn parse_party_args(argv: &[String]) -> Result<pivot_cli::party::PartyArgs, String> {
    let mut scenario = None;
    let mut id = None;
    let mut listen = None;
    let mut peers = None;
    let mut out = None;
    let mut quiet = false;
    let mut resume = false;
    let mut supervise = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "party" if scenario.is_none() && id.is_none() => {}
            "--scenario" => {
                let v = it.next().ok_or("--scenario needs a file path")?;
                scenario = Some(PathBuf::from(v));
            }
            "--id" => {
                let v = it.next().ok_or("--id needs a party id")?;
                id = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--id {v:?} is not a party id"))?,
                );
            }
            "--listen" => {
                let v = it.next().ok_or("--listen needs an address")?;
                listen = Some(v.clone());
            }
            "--peers" => {
                let v = it
                    .next()
                    .ok_or("--peers needs a comma-separated address list")?;
                peers = Some(
                    v.split(',')
                        .map(|a| a.trim().to_string())
                        .filter(|a| !a.is_empty())
                        .collect::<Vec<_>>(),
                );
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                out = Some(PathBuf::from(v));
            }
            "--quiet" => quiet = true,
            "--resume" => resume = true,
            "--supervise" => supervise = true,
            other => {
                return Err(format!("unexpected argument {other:?} (see pivot --help)"));
            }
        }
    }
    Ok(pivot_cli::party::PartyArgs {
        scenario: scenario.ok_or("missing --scenario <FILE>")?,
        id: id.ok_or("party needs --id <N>")?,
        listen,
        peers: peers.ok_or("party needs --peers <ADDR0,ADDR1,...>")?,
        out,
        quiet,
        resume,
        supervise,
    })
}

fn parse_trace_args(argv: &[String]) -> Result<pivot_cli::trace_cmd::TraceArgs, String> {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut check = false;
    let mut diff = false;
    for arg in argv.iter().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--diff" => diff = true,
            other if !other.starts_with('-') && inputs.len() < 2 => {
                inputs.push(PathBuf::from(other));
            }
            other => {
                return Err(format!("unexpected argument {other:?} (see pivot --help)"));
            }
        }
    }
    if diff && check {
        return Err("--diff and --check are mutually exclusive".into());
    }
    if diff {
        if inputs.len() != 2 {
            return Err("--diff needs exactly two report or trace files".into());
        }
        let b = inputs.pop().expect("two inputs");
        let a = inputs.pop().expect("two inputs");
        return Ok(pivot_cli::trace_cmd::TraceArgs {
            input: a,
            check: false,
            diff: Some(b),
        });
    }
    if inputs.len() > 1 {
        return Err("trace takes one file (two only with --diff)".into());
    }
    Ok(pivot_cli::trace_cmd::TraceArgs {
        input: inputs
            .pop()
            .ok_or("trace needs a report or trace JSON file")?,
        check,
        diff: None,
    })
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut command = None;
    let mut scenario = None;
    let mut out = None;
    let mut quiet = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "train" | "predict" | "bench" if command.is_none() => {
                command = Some(arg.clone());
            }
            "--scenario" => {
                let v = it.next().ok_or("--scenario needs a file path")?;
                scenario = Some(PathBuf::from(v));
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                out = Some(PathBuf::from(v));
            }
            "--quiet" => quiet = true,
            other => {
                return Err(format!("unexpected argument {other:?} (see pivot --help)"));
            }
        }
    }
    let command = command.ok_or("missing subcommand (train, predict, or bench)")?;
    let scenario = scenario.ok_or("missing --scenario <FILE>")?;
    Ok(Args {
        command,
        scenario,
        out,
        quiet,
    })
}

fn human_bytes(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1} MiB", n as f64 / (1024.0 * 1024.0))
    } else if n >= 10_000 {
        format!("{:.1} KiB", n as f64 / 1024.0)
    } else {
        format!("{n} B")
    }
}

fn run(args: &Args) -> Result<(), String> {
    let scenario = Scenario::load(&args.scenario)?;
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| report::default_report_path(&args.scenario, ""));

    let report = match args.command.as_str() {
        "train" | "predict" => {
            let algo = scenario.sole_algorithm()?;
            let exec = execute(&scenario, algo, false)?;
            if !args.quiet {
                let p0 = &exec.parties[0];
                println!(
                    "{} [{}] m={} n={} d={}: trained {} internal nodes in {:.2}s \
                     ({} sent by party 0), predicted {} samples in {:.2}s",
                    scenario.name,
                    algo.label(),
                    scenario.parties,
                    exec.train_samples,
                    exec.features,
                    p0.internal_nodes,
                    p0.train_wall_s,
                    human_bytes(p0.train_bytes_sent),
                    exec.test_samples,
                    p0.predict_wall_s,
                );
                if let Some(metric) = exec.metric {
                    println!("test {} = {metric:.4}", exec.metric_name);
                }
            }
            // Traced runs also get side-car Perfetto/Prometheus exports
            // next to the report.
            report::write_trace_exports(&out_path, &exec, args.quiet)?;
            if args.command == "train" {
                report::train_report(&scenario, &exec)
            } else {
                report::predict_report(&scenario, &exec)
            }
        }
        "bench" => {
            let sweep = scenario
                .sweep
                .as_ref()
                .ok_or("bench needs a [sweep] section (vary + values)")?;
            let axis = &sweep.vary;
            let mut results = Vec::new();
            for &value in &sweep.values {
                let point = scenario.with_axis(axis, value);
                // A sweep value can make an otherwise-valid scenario
                // invalid (e.g. parties = 0); check per point.
                point
                    .validate()
                    .map_err(|e| format!("sweep point {axis}={value}: {e}"))?;
                for &algo in &point.algorithms {
                    let exec = execute(&point, algo, true)?;
                    if !args.quiet {
                        println!(
                            "{axis}={value} {}: train {:.2}s, {} sent by party 0",
                            algo.label(),
                            exec.parties[0].train_wall_s,
                            human_bytes(exec.parties[0].train_bytes_sent),
                        );
                    }
                    results.push((value, exec));
                }
            }
            report::bench_report(&scenario, axis, &results)
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    };

    std::fs::write(&out_path, report.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    if !args.quiet {
        println!("report written to {}", out_path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--version" || a == "-V") {
        println!("pivot-cli {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("trace") {
        let result = parse_trace_args(&argv).and_then(|args| pivot_cli::trace_cmd::run(&args));
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("party") {
        let args = match parse_party_args(&argv) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match pivot_cli::party::run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            // Failures get distinct exit codes (10 = network, 11 = this
            // party's own injected crash, 12 = rejected proof, 13 =
            // checkpoint failure) so a harness can classify a dead run
            // without parsing stderr; the structured error report has
            // already been written by `party::run`.
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(e.exit_code())
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
