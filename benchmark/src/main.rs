//! The repo's benchmark ladder. One command builds `pivot`, runs the
//! workloads as one-shot subprocesses, checks every output against the
//! plaintext oracle, prints every metric by name and unit, and makes one
//! traced pass for the per-layer numbers. See README.md.

mod measure;
mod micro;
mod run;
mod spans;
mod stats;
mod workload;

use measure::{run_once, Failure, Measured, PHASES};
use micro::{Effort, Micro};
use pivot_cli::json::Json;
use pivot_data::Dataset;
use spans::Recorder;
use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use workload::{Oracle, Workload, CATALOG};

const DEFAULT_SEED: u64 = 0xBE7C4;
const DEFAULT_SECONDS: u64 = 24;
/// Untraced repetitions every workload gets however long they take: the
/// set-up time, too, has to be taken several times.
const MIN_REPETITIONS: usize = 3;
/// Failed runs of one workload after which an invocation stops repeating.
const MAX_FAILURES: usize = 3;

const USAGE: &str = "\
pivot-benchmark [--workload <NAME>] [--seed <N>] [--seconds <N>] [--trace <0|1>] [--smoke]

  --workload <NAME>  train_basic | train_enhanced | train_gbdt | train_wan_tcp3
                     (default: all four, repetitions interleaved)
  --seed <N>         the only source of randomness (default 0xBE7C4)
  --seconds <N>      untraced measuring time per workload (default 24): three
                     repetitions, and more while another one fits
  --trace 0          untraced repetitions only: the end-to-end metrics
  --trace 1          one untraced and one traced run per workload plus the
                     micro-ops: the per-layer metrics
                     (default: both passes)
  --smoke            plumbing check: every workload at keysize 256 and 40
                     samples, micro-ops at 3 calls; writes no results

With --workload the last line of stdout is one JSON object:
{\"correct\": …, \"attempted\": …, \"failed\": …, \"metrics\": {…}}
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !CATALOG.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value()?;
                // Scenario files carry the seed as a JSON-safe integer.
                args.seed = parse_u64(v)
                    .filter(|s| *s < 1 << 53)
                    .ok_or(format!("--seed {v:?} is not an integer below 2^53"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = parse_u64(v).ok_or(format!("--seconds {v:?} is not an integer"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is not 0 or 1")),
                });
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

/// Build the program under test from the sources next to this package and
/// return the binary's path.
fn build_pivot(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "pivot-cli", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        // Cargo reports on stderr; stdout stays this program's.
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pivot-cli failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => root.join("target"),
    };
    let pivot = std::path::absolute(target.join("release").join("pivot"))
        .map_err(|e| format!("cannot resolve the target directory: {e}"))?;
    if !pivot.is_file() {
        return Err(format!("{} was not built", pivot.display()));
    }
    Ok(pivot)
}

/// One workload's state over an invocation.
struct Bench {
    workload: Workload,
    data: Dataset,
    oracle: Oracle,
    /// Completed runs in the order they ran, each with its `traced` flag.
    runs: Vec<(bool, Measured)>,
    failures: Vec<Failure>,
    attempted: usize,
}

impl Bench {
    fn prepare(
        rec: &mut Recorder,
        workload: Workload,
        seed: u64,
        dir: &Path,
    ) -> Result<Bench, String> {
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        std::fs::create_dir_all(dir).map_err(io)?;
        let data = rec.scope("data.synth", |_| workload.synthesize(seed));
        rec.scope("data.write_csv", |_| {
            workload.write_inputs(dir, &data, seed, false)
        })
        .map_err(io)?;
        let oracle = rec
            .scope("trees.oracle", |_| workload.oracle(&dir.join("data.csv")))
            .map_err(io)?;
        Ok(Bench {
            workload,
            data,
            oracle,
            runs: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
        })
    }

    fn run(&mut self, rec: &mut Recorder, pivot: &Path, seed: u64, traced: bool, dir: &Path) {
        self.attempted += 1;
        let kind = if traced { "traced" } else { "untraced" };
        let name = self.workload.name;
        let result = rec.scope(&format!("cli.run.{name}.{kind}"), |_| {
            run_once(
                pivot,
                &self.workload,
                &self.data,
                &self.oracle,
                seed,
                traced,
                dir,
            )
        });
        match result {
            Ok(m) => {
                eprintln!(
                    "{name} {kind}: wall {:.2} s, train {:.2} s, predict {:.2} s",
                    m.wall_s, m.train_s, m.predict_s
                );
                self.runs.push((traced, m));
            }
            Err(f) => {
                eprintln!("{name} {kind}: FAILED: {}", f.reason);
                self.failures.push(*f);
            }
        }
    }

    /// The exact-repeat gate: every run of one invocation must agree with
    /// the first on every deterministic counter, the oracle gap and the
    /// predictions. A run that differs is a failure, not a sample.
    fn apply_repeat_gate(&mut self) {
        let Some(expected) = self.runs.first().map(|(_, m)| m.fingerprint.clone()) else {
            return;
        };
        let (same, differing): (Vec<_>, Vec<_>) = std::mem::take(&mut self.runs)
            .into_iter()
            .partition(|(_, m)| m.fingerprint == expected);
        self.runs = same;
        for (_, m) in differing {
            self.failures.push(Failure::driver(format!(
                "exact-repeat gate: {:?} differs from the first run's {expected:?}",
                m.fingerprint
            )));
        }
    }

    fn untraced(&self) -> impl Iterator<Item = &Measured> {
        self.runs
            .iter()
            .filter(|(traced, _)| !traced)
            .map(|(_, m)| m)
    }

    fn traced(&self) -> Option<&Measured> {
        self.runs.iter().find(|(traced, _)| *traced).map(|(_, m)| m)
    }

    /// A timing over the untraced repetitions: the fastest one.
    fn fastest(&self, name: &str, unit: &'static str, f: fn(&Measured) -> f64) -> Option<Metric> {
        let samples: Vec<f64> = self.untraced().map(f).collect();
        Metric::fastest_of(name, unit, &samples)
    }

    /// Timings are the fastest untraced repetition; memory, whose noise
    /// goes both ways, is the median.
    fn end_to_end(&self) -> Vec<Metric> {
        let rss: Vec<f64> = self.untraced().map(|m| m.peak_rss_mib).collect();
        [
            self.fastest("setup_s", "s", |m| m.setup_s),
            self.fastest("train_s", "s", |m| m.train_s),
            Metric::median_of("peak_rss_mb", "MiB", &rss, 1.0),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// What this workload adds to the per-layer metrics: counters and the
    /// phase table from the traced run's report, timings from the
    /// untraced runs beside it.
    fn per_layer(&self) -> Vec<Metric> {
        let (Some(traced), Some(train_s)) =
            (self.traced(), self.fastest("train_s", "s", |m| m.train_s))
        else {
            return Vec::new();
        };
        let one = Metric::once;
        let p = &traced.party0;
        let mut out = vec![
            one(
                "paillier.nonce_pool_hit_rate",
                "ratio",
                p.nonce_pool_hit_rate,
            ),
            one("mpc.rounds", "count", p.agreed.mpc_rounds as f64),
            one("mpc.secure_mults", "count", p.agreed.secure_mults as f64),
            one(
                "mpc.secure_comparisons",
                "count",
                p.agreed.secure_comparisons as f64,
            ),
            one("mpc.opened_elements", "count", p.opened_elements as f64),
            one("mpc.beaver_triples", "count", p.beaver_triples as f64),
            one("mpc.dealer_pool_hit_rate", "ratio", p.dealer_pool_hit_rate),
            one(
                "transport.train_bytes_sent",
                "B",
                traced.fingerprint.train_bytes_sent as f64,
            ),
            one(
                "transport.train_messages",
                "count",
                traced.fingerprint.train_messages as f64,
            ),
        ];
        // `run_once` refuses a traced run without a phase table.
        for (phase, row) in PHASES.iter().zip(p.phases.iter().flatten()) {
            out.push(one(&format!("core.{phase}.wall_s"), "s", row.wall_s));
            out.push(one(&format!("core.{phase}.wait_s"), "s", row.wait_s));
            out.push(one(
                &format!("core.{phase}.rounds"),
                "count",
                row.rounds as f64,
            ));
            out.push(one(
                &format!("core.{phase}.bytes_sent"),
                "B",
                row.bytes_sent as f64,
            ));
        }
        out.extend([
            one("core.encryptions", "count", p.encryptions as f64),
            one("core.ciphertext_ops", "count", p.ciphertext_ops as f64),
            one(
                "core.threshold_decryptions",
                "count",
                p.agreed.threshold_decryptions as f64,
            ),
            one(
                "core.split_stat_ciphertexts",
                "count",
                p.split_stat_ciphertexts as f64,
            ),
            one("core.packing_occupancy", "ratio", p.packing_occupancy),
            one(
                "core.privacy_overhead_x",
                "x",
                train_s.value / self.oracle.train_s,
            ),
            one("trees.cart_train_s", "s", self.oracle.train_s),
            one(
                "trace.overhead_frac",
                "ratio",
                traced.train_s / train_s.value - 1.0,
            ),
            one("oracle_gap", "abs", traced.oracle_gap),
        ]);
        out.extend(self.fastest("predict_ms_per_sample", "ms", |m| {
            1e3 * m.predict_s / m.party0.test_samples as f64
        }));
        out.extend(self.fastest("cli.process_overhead_s", "s", |m| m.process_overhead_s));
        out.extend(self.fastest("cli.cpu_s", "s", |m| m.cpu_s));
        out
    }

    fn to_json(&self) -> Json {
        let w = &self.workload;
        let run_json = |(traced, m): &(bool, Measured)| {
            Json::obj()
                .with("traced", *traced)
                .with("wall_s", m.wall_s)
                .with("setup_s", m.setup_s)
                .with("train_s", m.train_s)
                .with("predict_s", m.predict_s)
                .with("peak_rss_mb", m.peak_rss_mib)
                .with("cpu_s", m.cpu_s)
                .with("oracle_gap", m.oracle_gap)
        };
        Json::obj()
            .with("name", w.name)
            .with(
                "sizes",
                Json::obj()
                    .with("samples", w.samples)
                    .with("test_fraction", w.test_fraction)
                    .with("features_per_party", w.features_per_party)
                    .with("max_splits", w.max_splits)
                    .with("max_depth", w.max_depth)
                    .with("keysize", w.keysize)
                    .with("crypto_threads", w.crypto_threads)
                    .with("model", format!("{:?}", w.model))
                    .with("topology", format!("{:?}", w.topology)),
            )
            .with("oracle_metric", self.oracle.metric)
            .with("attempted", self.attempted)
            .with("failed", self.failures.len())
            .with("repetitions", self.untraced().count())
            .with("runs", Json::Arr(self.runs.iter().map(run_json).collect()))
            .with(
                "failures",
                Json::Arr(self.failures.iter().map(Failure::to_json).collect()),
            )
            .with("end_to_end", metrics_json(&self.end_to_end()))
            .with("per_layer", metrics_json(&self.per_layer()))
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Arr(
        metrics
            .iter()
            .map(|m| {
                Json::obj()
                    .with("name", m.name.clone())
                    .with("value", m.value)
                    .with("unit", m.unit)
                    .with("n", m.n)
                    .with("p90", m.p90)
            })
            .collect(),
    )
}

fn print_metrics(scope: &str, metrics: &[Metric]) {
    for m in metrics {
        let p90 = m.p90.map_or(String::new(), |p| format!("  p90 {p:.6}"));
        println!(
            "{scope:<15} {:<40} {:>16.6} {:<6} n={}{p90}",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// The contract's result line: one JSON object, one line.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers came from: enough to judge whether two result files
/// are comparable.
fn provenance(root: &Path, args: &Args, driver_wall_s: f64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        });
    let root = root.to_string_lossy();
    Json::obj()
        .with(
            "commit",
            command_line("git", &["-C", &root, "rev-parse", "HEAD"]),
        )
        .with("rustc", command_line("rustc", &["-V"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("cpu_model", cpu_model)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with(
            "unix_time_s",
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        )
        .with("driver_wall_s", driver_wall_s)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv).and_then(|args| drive(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = package
        .parent()
        .ok_or("the benchmark package has no parent directory")?;
    let out = package.join("out");
    let run_id = format!(
        "{}-{}",
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let run_dir = out.join(&run_id);

    let mut rec = Recorder::new();
    let pivot = rec.scope("cli.build", |_| build_pivot(root))?;

    let selected: Vec<Workload> = CATALOG
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .map(|w| if args.smoke { w.smoke() } else { w.clone() })
        .collect();
    let mut benches = Vec::new();
    for w in selected {
        let dir = run_dir.join(format!("{}-inputs", w.name));
        benches.push(Bench::prepare(&mut rec, w, args.seed, &dir)?);
    }

    // Untraced repetitions, interleaved across workloads so that drift of
    // the machine lands on all of them alike: `MIN_REPETITIONS` rounds,
    // and more while another round like the last fits the budget. In a
    // traced-only invocation one repetition per workload is the baseline
    // the traced run is compared with.
    let (budget, min_repetitions) = if args.trace == Some(true) || args.smoke {
        (Duration::ZERO, 1)
    } else {
        let per_workload = Duration::from_secs(args.seconds);
        (per_workload * benches.len() as u32, MIN_REPETITIONS)
    };
    let measuring = Instant::now();
    for rep in 1.. {
        let round = Instant::now();
        for b in &mut benches {
            let dir = run_dir.join(format!("{}-{rep}", b.workload.name));
            b.run(&mut rec, &pivot, args.seed, false, &dir);
        }
        // A workload that keeps failing would otherwise fail fast all the
        // way to the end of the budget.
        let struck_out = benches.iter().any(|b| b.failures.len() >= MAX_FAILURES);
        let next_fits = measuring.elapsed() + round.elapsed() <= budget;
        if struck_out || (rep >= min_repetitions && !next_fits) {
            break;
        }
    }

    let mut micro_metrics = Vec::new();
    let mut micro_wrong = Vec::new();
    if args.trace != Some(false) {
        for b in &mut benches {
            let dir = run_dir.join(format!("{}-traced", b.workload.name));
            b.run(&mut rec, &pivot, args.seed, true, &dir);
        }
        let effort = if args.smoke {
            Effort {
                max_calls: micro::MIN_CALLS,
                budget: Duration::ZERO,
                keysize: 256,
            }
        } else {
            Effort {
                max_calls: 200,
                budget: Duration::from_millis(150),
                keysize: 1024,
            }
        };
        let mut micro = Micro::new(&mut rec, effort, args.seed);
        micro.run_all();
        for name in &micro.wrong {
            eprintln!("micro-op {name}: WRONG RESULT");
        }
        micro_metrics = std::mem::take(&mut micro.metrics);
        micro_wrong = std::mem::take(&mut micro.wrong);
    }

    for b in &mut benches {
        b.apply_repeat_gate();
    }

    for b in &benches {
        print_metrics(b.workload.name, &b.end_to_end());
        print_metrics(b.workload.name, &b.per_layer());
        println!(
            "{:<15} runs_failed {} / {} attempted",
            b.workload.name,
            b.failures.len(),
            b.attempted
        );
    }
    print_metrics("micro", &micro_metrics);

    let attempted: usize = benches.iter().map(|b| b.attempted).sum();
    let failed: usize = benches.iter().map(|b| b.failures.len()).sum();
    let correct = failed == 0 && micro_wrong.is_empty();
    println!(
        "correct {correct}: {failed} of {attempted} runs failed, {} micro-ops returned a wrong result",
        micro_wrong.len()
    );

    let io = |e: std::io::Error| format!("{}: {e}", out.display());
    std::fs::write(out.join("spans.json"), rec.to_json().to_pretty()).map_err(io)?;
    if !args.smoke {
        let results = Json::obj()
            .with(
                "provenance",
                provenance(root, args, started.elapsed().as_secs_f64()),
            )
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with(
                "workloads",
                Json::Arr(benches.iter().map(Bench::to_json).collect()),
            )
            .with("micro", metrics_json(&micro_metrics))
            .with(
                "micro_wrong",
                Json::Arr(micro_wrong.iter().cloned().map(Json::from).collect()),
            );
        let path = run_dir.join("results.json");
        std::fs::write(&path, results.to_pretty()).map_err(io)?;
        println!("results written to {}", path.display());
    }

    // The contract's result line, for a single workload: the end-to-end
    // metrics of an untraced invocation, the per-layer ones of a traced.
    if let [b] = benches.as_slice() {
        let metrics = match args.trace {
            Some(false) => b.end_to_end(),
            Some(true) => [micro_metrics, b.per_layer()].concat(),
            None => [b.end_to_end(), micro_metrics, b.per_layer()].concat(),
        };
        if b.untraced().next().is_none() || (args.trace == Some(true) && b.traced().is_none()) {
            return Err(format!(
                "{}: no run completed, nothing to report",
                b.workload.name
            ));
        }
        println!("{}", result_line(correct, attempted, failed, &metrics));
    }
    if !correct {
        return Err(format!(
            "{failed} of {attempted} runs failed, wrong micro-ops: {micro_wrong:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "train_gbdt",
            "--seed",
            "17",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("train_gbdt"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (17, 20, Some(true), false)
        );
        let a = args(&["--seed", "0xBE7C4", "--smoke"]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace, a.smoke),
            (None, DEFAULT_SEED, None, true)
        );
        assert!(args(&["--workload", "train_everything"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "9007199254740992"]).is_err());
    }

    #[test]
    fn result_line_is_one_line_of_json_with_full_precision() {
        let metrics = [Metric {
            name: "train_s".into(),
            unit: "s",
            value: 6.020_733_281,
            n: 3,
            p90: None,
        }];
        let line = result_line(true, 3, 0, &metrics);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("attempted").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("failed").unwrap().as_u64(), Some(0));
        assert_eq!(
            parsed.path("metrics.train_s.value").unwrap().as_f64(),
            Some(6.020_733_281)
        );
        assert_eq!(
            parsed.path("metrics.train_s.unit").unwrap().as_str(),
            Some("s")
        );
    }
}
