//! `pivot-cli`: the scenario-driven operational layer of the Pivot
//! reproduction.
//!
//! A *scenario file* (TOML, or JSON read through the same schema — see
//! [`scenario`]) declares one run — dataset or synthesis parameters, party
//! count, protocol parameters, algorithm, LAN-simulation knobs — and the
//! `pivot` binary executes it and emits a machine-readable JSON
//! [`report`]: per-stage wall-clock, bytes sent/received per party,
//! operation counts, and the test metric, together with an echo of the
//! scenario and seed so runs recorded months apart stay comparable.
//!
//! Subcommands:
//! - `pivot train --scenario <file>` — train + evaluate, full report
//!   (all parties as threads of this process);
//! - `pivot predict --scenario <file>` — same run, prediction-latency
//!   focus (per-sample time, prediction-phase traffic);
//! - `pivot bench --scenario <file>` — a Figure-4-style sweep over one
//!   axis (`[sweep]` section, including `[network]` latency/bandwidth)
//!   × the listed algorithms;
//! - `pivot party --scenario <file> --id <N> --peers <a0,a1,…>` — run
//!   ONE party of the scenario over TCP, one process per client (the
//!   paper's deployment shape); reports match the threaded run
//!   bit-for-bit;
//! - `pivot trace <report-or-trace.json>` — print the per-phase
//!   round/byte/wall table of a traced run (`params.trace != "off"`), or
//!   validate a Chrome-trace export with `--check`.

pub mod algo;
pub mod checkpoint;
pub mod json;
pub mod party;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod toml;
pub mod trace_cmd;
