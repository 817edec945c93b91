//! Scenario files: the declarative description of one `pivot` run.
//!
//! A scenario is TOML (see [`crate::toml`] for the supported subset) or
//! JSON with the same structure, selected by file extension. Every knob
//! has a default, so a minimal classification scenario is just:
//!
//! ```toml
//! [data]
//! kind = "synthetic-classification"
//! ```
//!
//! Unknown sections or keys are hard errors: a typo like `max_dept = 5`
//! must not silently benchmark the wrong configuration.

use crate::algo::{algo_params, parse_algo, Algo};
use crate::json::Json;
use crate::toml::{TomlDoc, TomlValue};
use pivot_core::config::{Packing, PivotParams};
use pivot_core::{AdversarySpec, CompareBits, TraceLevel, Verification};
use pivot_data::{synth, Dataset, Task};
use pivot_transport::NetConfig;
use pivot_trees::TreeParams;
use std::path::Path;

/// Where the dataset comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum DataKind {
    SyntheticClassification,
    SyntheticRegression,
    /// Named synthetic stand-ins for the paper's Table 3 datasets.
    CreditCardLike,
    BankMarketLike,
    EnergyLike,
    Csv,
}

impl DataKind {
    fn parse(s: &str) -> Result<DataKind, String> {
        match s {
            "synthetic-classification" => Ok(DataKind::SyntheticClassification),
            "synthetic-regression" => Ok(DataKind::SyntheticRegression),
            "credit-card-like" => Ok(DataKind::CreditCardLike),
            "bank-market-like" => Ok(DataKind::BankMarketLike),
            "energy-like" => Ok(DataKind::EnergyLike),
            "csv" => Ok(DataKind::Csv),
            other => Err(format!(
                "unknown data.kind {other:?} (expected synthetic-classification, \
                 synthetic-regression, credit-card-like, bank-market-like, \
                 energy-like, or csv)"
            )),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            DataKind::SyntheticClassification => "synthetic-classification",
            DataKind::SyntheticRegression => "synthetic-regression",
            DataKind::CreditCardLike => "credit-card-like",
            DataKind::BankMarketLike => "bank-market-like",
            DataKind::EnergyLike => "energy-like",
            DataKind::Csv => "csv",
        }
    }
}

/// `[data]` section.
#[derive(Clone, Debug)]
pub struct DataSpec {
    pub kind: DataKind,
    pub samples: usize,
    pub features_per_party: usize,
    pub classes: usize,
    pub class_sep: f64,
    pub flip_y: f64,
    pub noise: f64,
    /// Informative feature count for the synthetic generators
    /// (default: half the total features, rounded up).
    pub informative: Option<usize>,
    pub test_fraction: f64,
    /// CSV only: file path (relative paths resolve against the scenario
    /// file's directory).
    pub path: Option<String>,
    /// CSV only: "classification" (with `classes`) or "regression".
    pub task: Option<String>,
}

impl Default for DataSpec {
    fn default() -> Self {
        DataSpec {
            kind: DataKind::SyntheticClassification,
            samples: 200,
            features_per_party: 3,
            classes: 2,
            class_sep: 1.5,
            flip_y: 0.01,
            noise: 0.1,
            informative: None,
            test_fraction: 0.25,
            path: None,
            task: None,
        }
    }
}

/// `[model]` section: what gets trained on top of the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelKind {
    DecisionTree,
    Gbdt,
    RandomForest,
}

impl ModelKind {
    fn parse(s: &str) -> Result<ModelKind, String> {
        match s {
            "decision-tree" => Ok(ModelKind::DecisionTree),
            "gbdt" => Ok(ModelKind::Gbdt),
            "random-forest" => Ok(ModelKind::RandomForest),
            other => Err(format!(
                "unknown model.kind {other:?} (expected decision-tree, gbdt, or random-forest)"
            )),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            ModelKind::DecisionTree => "decision-tree",
            ModelKind::Gbdt => "gbdt",
            ModelKind::RandomForest => "random-forest",
        }
    }
}

#[derive(Clone, Debug)]
pub struct ModelSpec {
    pub kind: ModelKind,
    /// GBDT boosting rounds `W`.
    pub rounds: usize,
    pub learning_rate: f64,
    /// Random-forest tree count `W`.
    pub trees: usize,
    pub sample_fraction: f64,
}

impl Default for ModelSpec {
    fn default() -> Self {
        ModelSpec {
            kind: ModelKind::DecisionTree,
            rounds: 4,
            learning_rate: 0.5,
            trees: 4,
            sample_fraction: 1.0,
        }
    }
}

/// Echo of `params.packing`: `"off"`, `"auto"`, or the slot count.
fn echo_packing(packing: Packing) -> Json {
    match packing {
        Packing::Off => Json::Str("off".into()),
        Packing::Auto => Json::Str("auto".into()),
        Packing::Slots(n) => Json::Num(n as f64),
    }
}

/// Echo of `params.comparison_bits`: `"auto"` or the width floor.
fn echo_comparison_bits(bits: CompareBits) -> Json {
    match bits {
        CompareBits::Auto => Json::Str("auto".into()),
        CompareBits::Floor(n) => Json::Num(f64::from(n)),
    }
}

/// `params.verification`: `"off"`, `"spot(p)"`, or `"full"`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum VerificationSpec {
    #[default]
    Off,
    Spot(f64),
    Full,
}

impl VerificationSpec {
    fn parse(s: &str) -> Result<VerificationSpec, String> {
        match s {
            "off" => Ok(VerificationSpec::Off),
            "full" => Ok(VerificationSpec::Full),
            other => {
                let p = other
                    .strip_prefix("spot(")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .and_then(|p| p.trim().parse::<f64>().ok())
                    .filter(|p| (0.0..=1.0).contains(p));
                match p {
                    Some(p) => Ok(VerificationSpec::Spot(p)),
                    None => Err(format!(
                        "params.verification: unknown mode {other:?} (expected \
                         \"off\", \"full\", or \"spot(p)\" with p in [0, 1])"
                    )),
                }
            }
        }
    }

    fn to_core(self) -> Verification {
        match self {
            VerificationSpec::Off => Verification::Off,
            VerificationSpec::Spot(p) => Verification::Spot(p),
            VerificationSpec::Full => Verification::Full,
        }
    }

    fn is_on(self) -> bool {
        self != VerificationSpec::Off
    }

    fn echo(self) -> Json {
        match self {
            VerificationSpec::Off => Json::Str("off".into()),
            VerificationSpec::Spot(p) => Json::Str(format!("spot({p})")),
            VerificationSpec::Full => Json::Str("full".into()),
        }
    }
}

/// `params.trace`: `"off"`, `"phases"`, or `"full"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceSpec {
    #[default]
    Off,
    Phases,
    Full,
}

impl TraceSpec {
    fn to_core(self) -> TraceLevel {
        match self {
            TraceSpec::Off => TraceLevel::Off,
            TraceSpec::Phases => TraceLevel::Phases,
            TraceSpec::Full => TraceLevel::Full,
        }
    }

    fn echo(self) -> Json {
        Json::Str(self.to_core().as_str().into())
    }
}

/// `[params]` section → [`PivotParams`].
#[derive(Clone, Debug)]
pub struct ParamSpec {
    pub max_depth: usize,
    pub max_splits: usize,
    pub min_samples: usize,
    pub keysize: u32,
    /// Worker threads for the batched crypto runtime under a `-pp`
    /// algorithm (the others run it on one thread, without the pools).
    pub crypto_threads: usize,
    /// Offline randomness-pool size (precomputed `r^N` nonce powers).
    pub randomness_pool: usize,
    /// Ciphertext packing for the split-statistics pipeline: `"auto"`
    /// (default) packs as many audited slots as the keysize admits and
    /// runs unpacked under `verification`, `"off"` never packs, an
    /// integer forces the slot count.
    pub packing: Packing,
    /// Secure-comparison width policy: `"auto"` (default) pays only for
    /// each call site's proven range, an integer sets a minimum width
    /// under `"auto"` widths.
    pub comparison_bits: CompareBits,
    /// Offline dealer-pool size (precomputed Beaver triples / masked-bit
    /// rows per stream).
    pub dealer_pool: usize,
    /// Protocol tracing: `"off"` (default, bit-identical transcript),
    /// `"phases"` (phase timelines + round/byte attribution), `"full"`
    /// (adds per-round and per-node spans).
    pub trace: TraceSpec,
    /// Malicious-model verification: `"off"` (default, bit-identical
    /// transcript), `"spot(p)"` (proofs on every commit, a seeded
    /// p-fraction verified), `"full"` (every proof verified).
    pub verification: VerificationSpec,
}

impl Default for ParamSpec {
    fn default() -> Self {
        let core = PivotParams::default();
        ParamSpec {
            max_depth: 3,
            max_splits: 4,
            min_samples: 2,
            keysize: 256,
            crypto_threads: 6,
            randomness_pool: 256,
            packing: core.packing,
            comparison_bits: core.comparison_bits,
            dealer_pool: 256,
            trace: TraceSpec::Off,
            verification: VerificationSpec::Off,
        }
    }
}

/// `[network]` section: per-run LAN simulation and liveness, materialized
/// as a [`pivot_transport::NetConfig`] on every endpoint the run builds.
///
/// Unset keys mean "no simulation, 120 s timeout"; because the config is
/// per-endpoint a `[sweep]` can vary these within one process.
#[derive(Clone, Debug, Default)]
pub struct NetworkSpec {
    pub latency_us: Option<u64>,
    /// 0 = unlimited.
    pub bandwidth_mbps: Option<f64>,
    /// Wedge timeout for every blocking receive (default 120 s).
    pub recv_timeout_s: Option<f64>,
    /// Total dial budget: initial rendezvous retries and, after a
    /// connection loss, how long the redial backoff keeps trying before
    /// the link is declared dead (default 60 s).
    pub connect_timeout_s: Option<f64>,
    /// Liveness heartbeat cadence per TCP link (off when unset). A link
    /// silent for 3 heartbeat periods is declared broken.
    pub heartbeat_s: Option<f64>,
    /// After a peer's link breaks, how long survivors park at the current
    /// protocol point waiting for it to rejoin before raising
    /// `TransportError::PeerLost` (off when unset: the connect-timeout
    /// redial budget governs alone).
    pub rejoin_deadline_s: Option<f64>,
}

/// `[checkpoint]` section: durable crash-recovery state (see
/// [`crate::checkpoint`]). At every `every_levels`-th level/tree barrier
/// each party writes a versioned, checksummed `PVCK` file under `dir`;
/// `pivot party --resume` restarts from the newest one bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointSpec {
    /// Barrier cadence: checkpoint every N level/tree barriers (>= 1).
    pub every_levels: u64,
    /// Checkpoint directory (relative paths resolve against the scenario
    /// file's directory, like `data.path`).
    pub dir: String,
}

/// `[faults]` section: a deterministic chaos plan for robustness runs.
///
/// `plan` entries use the [`pivot_transport::FaultSpec`] grammar
/// (`drop_link 0-1 at_round=8`, `delay_spike 0-2 at_bytes=4096 ms=250`,
/// `crash_party 1 at_round=10`,
/// `kill_party 1 at_level=2 restart_after_ms=500`); `seed` derandomizes
/// reconnect backoff jitter so chaos runs are repeatable. `kill_party` is
/// special: it is never armed in-process — `pivot party --supervise`
/// drives it by really SIGKILLing and relaunching the child process, and
/// it requires a `[checkpoint]` section for the relaunch to resume from.
#[derive(Clone, Debug, Default)]
pub struct FaultsSpec {
    pub plan: Vec<String>,
    pub seed: Option<u64>,
}

/// `[adversary]` section: a deterministic malicious-party injection for
/// verification runs, mirroring `[faults]`. `tamper` uses the
/// [`pivot_core::AdversarySpec`] grammar
/// (`party <id> phase=<name> index=<k>`): after generating its proof over
/// the honest value, `party` multiplies the `index`-th ciphertext of its
/// cumulative `phase` commit stream by `1 + N` (adding 1 to the
/// plaintext), so verification must catch and attribute the mismatch.
#[derive(Clone, Debug, Default)]
pub struct AdversaryCliSpec {
    pub tamper: Option<String>,
}

/// `[sweep]` section (the `bench` subcommand).
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Which knob varies: parties | samples | features_per_party |
    /// max_splits | max_depth (the paper's Figure 4 axes), latency_us |
    /// bandwidth_mbps (the `[network]` simulation), or packing.
    pub vary: String,
    pub values: Vec<usize>,
}

/// A fully parsed scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: String,
    pub seed: u64,
    pub parties: usize,
    pub algorithms: Vec<Algo>,
    pub data: DataSpec,
    pub params: ParamSpec,
    pub model: ModelSpec,
    pub network: NetworkSpec,
    pub checkpoint: Option<CheckpointSpec>,
    pub faults: FaultsSpec,
    pub adversary: AdversaryCliSpec,
    pub sweep: Option<SweepSpec>,
}

/// Typed accessor shim so TOML and JSON scenarios share one extraction
/// path.
struct Doc {
    toml: Option<TomlDoc>,
    json: Option<Json>,
}

impl Doc {
    fn get_str(&self, section: &str, key: &str) -> Result<Option<String>, String> {
        match self.raw_kind(section, key)? {
            None => Ok(None),
            Some(RawValue::Str(s)) => Ok(Some(s)),
            Some(_) => Err(format!("{}: expected a string", loc(section, key))),
        }
    }

    /// Integers must stay below 2^53 on both backends: JSON scenario
    /// values at or above that may already have arrived rounded (2^53 + 1
    /// parses to exactly 2^53, indistinguishable from a legitimate 2^53),
    /// and even exact TOML values could not be echoed faithfully in the
    /// JSON report. Rejecting beats silently running or reporting a
    /// different value, so the bound is exclusive.
    const INT_LIMIT: i64 = 1 << 53;

    fn get_u64(&self, section: &str, key: &str) -> Result<Option<u64>, String> {
        match self.raw_kind(section, key)? {
            None => Ok(None),
            Some(RawValue::Int(v)) if (0..Self::INT_LIMIT).contains(&v) => Ok(Some(v as u64)),
            Some(RawValue::Num(v))
                if v >= 0.0 && v.fract() == 0.0 && v < Self::INT_LIMIT as f64 =>
            {
                Ok(Some(v as u64))
            }
            Some(_) => Err(format!(
                "{}: expected a non-negative integer below 2^53 (larger values \
                 cannot round-trip through JSON reports)",
                loc(section, key)
            )),
        }
    }

    fn get_usize(&self, section: &str, key: &str) -> Result<Option<usize>, String> {
        Ok(self.get_u64(section, key)?.map(|v| v as usize))
    }

    fn get_f64(&self, section: &str, key: &str) -> Result<Option<f64>, String> {
        match self.raw_kind(section, key)? {
            None => Ok(None),
            Some(RawValue::Num(v)) => Ok(Some(v)),
            Some(RawValue::Int(v)) => Ok(Some(v as f64)),
            Some(_) => Err(format!("{}: expected a number", loc(section, key))),
        }
    }

    fn get_str_array(&self, section: &str, key: &str) -> Result<Option<Vec<String>>, String> {
        match self.raw_kind(section, key)? {
            None => Ok(None),
            Some(RawValue::StrArr(v)) => Ok(Some(v)),
            Some(_) => Err(format!(
                "{}: expected an array of strings",
                loc(section, key)
            )),
        }
    }

    fn get_usize_array(&self, section: &str, key: &str) -> Result<Option<Vec<usize>>, String> {
        match self.raw_kind(section, key)? {
            None => Ok(None),
            Some(RawValue::NumArr(v)) => v
                .iter()
                .map(|&x| {
                    if x >= 0.0 && x.fract() == 0.0 {
                        Ok(x as usize)
                    } else {
                        Err(format!(
                            "{}: expected non-negative integers",
                            loc(section, key)
                        ))
                    }
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(_) => Err(format!(
                "{}: expected an array of integers",
                loc(section, key)
            )),
        }
    }

    fn raw_kind(&self, section: &str, key: &str) -> Result<Option<RawValue>, String> {
        if let Some(t) = &self.toml {
            return Ok(t.get(section, key).map(RawValue::from_toml));
        }
        let j = self.json.as_ref().expect("doc has one backend");
        let holder = if section.is_empty() {
            Some(j)
        } else {
            j.get(section)
        };
        Ok(holder.and_then(|h| h.get(key)).map(RawValue::from_json))
    }

    fn keys(&self, section: &str) -> Vec<String> {
        if let Some(t) = &self.toml {
            return t
                .section_keys(section)
                .into_iter()
                .map(str::to_string)
                .collect();
        }
        let j = self.json.as_ref().expect("doc has one backend");
        let holder = if section.is_empty() {
            Some(j)
        } else {
            j.get(section)
        };
        holder
            .map(|h| {
                h.keys()
                    .into_iter()
                    // Top-level objects are sections, not root keys.
                    .filter(|k| !(section.is_empty() && matches!(h.get(k), Some(Json::Obj(_)))))
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }

    fn sections(&self) -> Vec<String> {
        if let Some(t) = &self.toml {
            return t.section_names().into_iter().map(str::to_string).collect();
        }
        let j = self.json.as_ref().expect("doc has one backend");
        j.keys()
            .into_iter()
            .filter(|k| matches!(j.get(k), Some(Json::Obj(_))))
            .map(str::to_string)
            .collect()
    }
}

enum RawValue {
    Str(String),
    /// TOML integer, kept exact (f64 would round above 2^53).
    Int(i64),
    Num(f64),
    StrArr(Vec<String>),
    NumArr(Vec<f64>),
    Other,
}

impl RawValue {
    fn from_toml(v: &TomlValue) -> RawValue {
        match v {
            TomlValue::Str(s) => RawValue::Str(s.clone()),
            TomlValue::Int(i) => RawValue::Int(*i),
            TomlValue::Float(f) => RawValue::Num(*f),
            TomlValue::Bool(_) => RawValue::Other,
            TomlValue::Arr(items) => {
                if items.iter().all(|i| i.as_str().is_some()) {
                    RawValue::StrArr(
                        items
                            .iter()
                            .map(|i| i.as_str().unwrap().to_string())
                            .collect(),
                    )
                } else if items.iter().all(|i| i.as_f64().is_some()) {
                    RawValue::NumArr(items.iter().map(|i| i.as_f64().unwrap()).collect())
                } else {
                    RawValue::Other
                }
            }
        }
    }

    fn from_json(v: &Json) -> RawValue {
        match v {
            Json::Str(s) => RawValue::Str(s.clone()),
            Json::Num(n) => RawValue::Num(*n),
            Json::Arr(items) => {
                if items.iter().all(|i| i.as_str().is_some()) {
                    RawValue::StrArr(
                        items
                            .iter()
                            .map(|i| i.as_str().unwrap().to_string())
                            .collect(),
                    )
                } else if items.iter().all(|i| i.as_f64().is_some()) {
                    RawValue::NumArr(items.iter().map(|i| i.as_f64().unwrap()).collect())
                } else {
                    RawValue::Other
                }
            }
            _ => RawValue::Other,
        }
    }
}

fn loc(section: &str, key: &str) -> String {
    if section.is_empty() {
        key.to_string()
    } else {
        format!("{section}.{key}")
    }
}

const ROOT_KEYS: &[&str] = &["name", "seed", "parties", "algorithm", "algorithms"];
const DATA_KEYS: &[&str] = &[
    "kind",
    "samples",
    "features_per_party",
    "classes",
    "class_sep",
    "flip_y",
    "noise",
    "informative",
    "test_fraction",
    "path",
    "task",
];
const PARAM_KEYS: &[&str] = &[
    "max_depth",
    "max_splits",
    "min_samples",
    "keysize",
    "crypto_threads",
    "randomness_pool",
    "packing",
    "comparison_bits",
    "dealer_pool",
    "trace",
    // Accepted with its one remaining value so scenario files written
    // when there was a choice keep loading.
    "scheduling",
    "verification",
];
const MODEL_KEYS: &[&str] = &[
    "kind",
    "rounds",
    "learning_rate",
    "trees",
    "sample_fraction",
];
const NETWORK_KEYS: &[&str] = &[
    "latency_us",
    "bandwidth_mbps",
    "recv_timeout_s",
    "connect_timeout_s",
    "heartbeat_s",
    "rejoin_deadline_s",
];
const CHECKPOINT_KEYS: &[&str] = &["every_levels", "dir"];
const FAULTS_KEYS: &[&str] = &["plan", "seed"];
const ADVERSARY_KEYS: &[&str] = &["tamper"];
const SWEEP_KEYS: &[&str] = &["vary", "values"];
const SECTIONS: &[(&str, &[&str])] = &[
    ("", ROOT_KEYS),
    ("data", DATA_KEYS),
    ("params", PARAM_KEYS),
    ("model", MODEL_KEYS),
    ("network", NETWORK_KEYS),
    ("checkpoint", CHECKPOINT_KEYS),
    ("faults", FAULTS_KEYS),
    ("adversary", ADVERSARY_KEYS),
    ("sweep", SWEEP_KEYS),
];

impl Scenario {
    /// Load a scenario from a `.toml` or `.json` file.
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let is_json = path
            .extension()
            .map(|e| e.eq_ignore_ascii_case("json"))
            .unwrap_or(false);
        let doc = if is_json {
            Doc {
                toml: None,
                json: Some(Json::parse(&text)?),
            }
        } else {
            Doc {
                toml: Some(TomlDoc::parse(&text)?),
                json: None,
            }
        };
        let mut scenario = Scenario::from_doc(&doc)?;
        // Resolve a relative CSV path against the scenario's directory.
        if let Some(csv) = &scenario.data.path {
            let csv_path = Path::new(csv);
            if csv_path.is_relative() {
                if let Some(dir) = path.parent() {
                    scenario.data.path = Some(dir.join(csv_path).to_string_lossy().into_owned());
                }
            }
        }
        // Same for the checkpoint directory: every party of the run must
        // resolve `dir` identically regardless of its own working
        // directory.
        if let Some(ckpt) = &mut scenario.checkpoint {
            let ckpt_dir = Path::new(&ckpt.dir);
            if ckpt_dir.is_relative() {
                if let Some(dir) = path.parent() {
                    ckpt.dir = dir.join(ckpt_dir).to_string_lossy().into_owned();
                }
            }
        }
        Ok(scenario)
    }

    fn from_doc(doc: &Doc) -> Result<Scenario, String> {
        // Reject unknown sections/keys before reading anything.
        let known_sections: Vec<&str> = SECTIONS
            .iter()
            .map(|(s, _)| *s)
            .filter(|s| !s.is_empty())
            .collect();
        for s in doc.sections() {
            if !known_sections.contains(&s.as_str()) {
                return Err(format!(
                    "unknown section [{s}] (expected one of: {})",
                    known_sections.join(", ")
                ));
            }
        }
        for (section, keys) in SECTIONS {
            for k in doc.keys(section) {
                if !keys.contains(&k.as_str()) {
                    return Err(format!(
                        "unknown key {} (known keys: {})",
                        loc(section, &k),
                        keys.join(", ")
                    ));
                }
            }
        }

        let mut algorithms = Vec::new();
        if let Some(one) = doc.get_str("", "algorithm")? {
            algorithms.push(parse_algo(&one)?);
        }
        if let Some(many) = doc.get_str_array("", "algorithms")? {
            if !algorithms.is_empty() {
                return Err("give either `algorithm` or `algorithms`, not both".into());
            }
            for a in many {
                algorithms.push(parse_algo(&a)?);
            }
        }
        if algorithms.is_empty() {
            algorithms.push(Algo::PivotBasic);
        }

        let data_defaults = DataSpec::default();
        let data = DataSpec {
            kind: match doc.get_str("data", "kind")? {
                Some(k) => DataKind::parse(&k)?,
                None => data_defaults.kind,
            },
            samples: doc
                .get_usize("data", "samples")?
                .unwrap_or(data_defaults.samples),
            features_per_party: doc
                .get_usize("data", "features_per_party")?
                .unwrap_or(data_defaults.features_per_party),
            classes: doc
                .get_usize("data", "classes")?
                .unwrap_or(data_defaults.classes),
            class_sep: doc
                .get_f64("data", "class_sep")?
                .unwrap_or(data_defaults.class_sep),
            flip_y: doc
                .get_f64("data", "flip_y")?
                .unwrap_or(data_defaults.flip_y),
            noise: doc.get_f64("data", "noise")?.unwrap_or(data_defaults.noise),
            informative: doc.get_usize("data", "informative")?,
            test_fraction: doc
                .get_f64("data", "test_fraction")?
                .unwrap_or(data_defaults.test_fraction),
            path: doc.get_str("data", "path")?,
            task: doc.get_str("data", "task")?,
        };

        let pd = ParamSpec::default();
        let packing = match doc.raw_kind("params", "packing")? {
            None => pd.packing,
            Some(RawValue::Str(s)) => match s.as_str() {
                "off" => Packing::Off,
                "auto" => Packing::Auto,
                other => {
                    return Err(format!(
                        "params.packing: unknown mode {other:?} (expected \"off\", \
                         \"auto\", or a slot count)"
                    ))
                }
            },
            // A 1-slot layout packs nothing, and the sweep axis uses the
            // literal 1 to mean "auto" — reject the ambiguous value here.
            Some(RawValue::Int(v)) if v >= 2 => Packing::Slots(v as usize),
            Some(RawValue::Num(v)) if v >= 2.0 && v.fract() == 0.0 => Packing::Slots(v as usize),
            Some(_) => {
                return Err(
                    "params.packing: expected \"off\", \"auto\", or a slot count >= 2 \
                     (a 1-slot layout packs nothing)"
                        .into(),
                )
            }
        };
        // Width floors above the fixed-point layout would only ever
        // panic downstream (the CLI always runs the default layout), so
        // reject them here like every other comparison_bits mistake.
        let max_floor = i64::from(PivotParams::default().fixed.int_bits);
        let comparison_bits = match doc.raw_kind("params", "comparison_bits")? {
            None => pd.comparison_bits,
            Some(RawValue::Str(s)) => match s.as_str() {
                "auto" => CompareBits::Auto,
                "full" => {
                    return Err(format!(
                        "params.comparison_bits: the \"full\" mode was removed — \
                         every comparison runs the range-bounded ladder; delete the \
                         key, or set the width floor {max_floor} for full-width \
                         comparisons"
                    ))
                }
                other => {
                    return Err(format!(
                        "params.comparison_bits: unknown mode {other:?} (expected \
                         \"auto\" or a width floor)"
                    ))
                }
            },
            // Width floors below 2 are meaningless.
            Some(RawValue::Int(v)) if (2..=max_floor).contains(&v) => CompareBits::Floor(v as u32),
            Some(RawValue::Num(v)) if v.fract() == 0.0 && (2.0..=max_floor as f64).contains(&v) => {
                CompareBits::Floor(v as u32)
            }
            Some(_) => {
                return Err(format!(
                    "params.comparison_bits: expected \"auto\" or a width floor in \
                     2..={max_floor} (the fixed-point int_bits)"
                ))
            }
        };
        let trace = match doc.get_str("params", "trace")?.as_deref() {
            None => pd.trace,
            Some("off") => TraceSpec::Off,
            Some("phases") => TraceSpec::Phases,
            Some("full") => TraceSpec::Full,
            Some(other) => {
                return Err(format!(
                    "params.trace: unknown level {other:?} (expected \"off\", \
                     \"phases\", or \"full\")"
                ))
            }
        };
        match doc.get_str("params", "scheduling")?.as_deref() {
            None | Some("pipelined") => {}
            Some("sequential") => {
                return Err("params.scheduling: the \"sequential\" mode was removed — \
                     training is always level-wise and pipelined; delete the key"
                    .into())
            }
            Some(other) => {
                return Err(format!(
                    "params.scheduling: unknown mode {other:?} (the only schedule \
                     is \"pipelined\"; the key can be deleted)"
                ))
            }
        }
        let verification = match doc.get_str("params", "verification")? {
            None => pd.verification,
            Some(s) => VerificationSpec::parse(&s)?,
        };
        let params = ParamSpec {
            max_depth: doc
                .get_usize("params", "max_depth")?
                .unwrap_or(pd.max_depth),
            max_splits: doc
                .get_usize("params", "max_splits")?
                .unwrap_or(pd.max_splits),
            min_samples: doc
                .get_usize("params", "min_samples")?
                .unwrap_or(pd.min_samples),
            keysize: doc
                .get_u64("params", "keysize")?
                .map(|v| v as u32)
                .unwrap_or(pd.keysize),
            crypto_threads: doc
                .get_usize("params", "crypto_threads")?
                .unwrap_or(pd.crypto_threads),
            randomness_pool: doc
                .get_usize("params", "randomness_pool")?
                .unwrap_or(pd.randomness_pool),
            packing,
            comparison_bits,
            dealer_pool: doc
                .get_usize("params", "dealer_pool")?
                .unwrap_or(pd.dealer_pool),
            trace,
            verification,
        };

        let md = ModelSpec::default();
        let model = ModelSpec {
            kind: match doc.get_str("model", "kind")? {
                Some(k) => ModelKind::parse(&k)?,
                None => md.kind,
            },
            rounds: doc.get_usize("model", "rounds")?.unwrap_or(md.rounds),
            learning_rate: doc
                .get_f64("model", "learning_rate")?
                .unwrap_or(md.learning_rate),
            trees: doc.get_usize("model", "trees")?.unwrap_or(md.trees),
            sample_fraction: doc
                .get_f64("model", "sample_fraction")?
                .unwrap_or(md.sample_fraction),
        };

        let network = NetworkSpec {
            latency_us: doc.get_u64("network", "latency_us")?,
            bandwidth_mbps: doc.get_f64("network", "bandwidth_mbps")?,
            recv_timeout_s: doc.get_f64("network", "recv_timeout_s")?,
            connect_timeout_s: doc.get_f64("network", "connect_timeout_s")?,
            heartbeat_s: doc.get_f64("network", "heartbeat_s")?,
            rejoin_deadline_s: doc.get_f64("network", "rejoin_deadline_s")?,
        };

        let checkpoint = if doc.sections().iter().any(|s| s == "checkpoint") {
            let dir = doc.get_str("checkpoint", "dir")?.ok_or(
                "checkpoint.dir is required (the directory checkpoint files \
                     are written to and resumed from)",
            )?;
            let every_levels = doc.get_u64("checkpoint", "every_levels")?.unwrap_or(1);
            if every_levels == 0 {
                return Err("checkpoint.every_levels must be >= 1".into());
            }
            Some(CheckpointSpec { every_levels, dir })
        } else {
            None
        };

        let faults = FaultsSpec {
            plan: doc.get_str_array("faults", "plan")?.unwrap_or_default(),
            seed: doc.get_u64("faults", "seed")?,
        };

        let adversary = AdversaryCliSpec {
            tamper: doc.get_str("adversary", "tamper")?,
        };

        let sweep = match doc.get_str("sweep", "vary")? {
            None => {
                if doc.get_usize_array("sweep", "values")?.is_some() {
                    return Err("sweep.values given without sweep.vary".into());
                }
                None
            }
            Some(vary) => {
                const AXES: &[&str] = &[
                    "parties",
                    "samples",
                    "features_per_party",
                    "max_splits",
                    "max_depth",
                    "latency_us",
                    "bandwidth_mbps",
                    "packing",
                ];
                if vary == "comparison_bits" {
                    return Err("sweep.vary = \"comparison_bits\" was removed with the \
                         \"full\" mode it compared against; set params.comparison_bits \
                         per scenario"
                        .into());
                }
                if !AXES.contains(&vary.as_str()) {
                    return Err(format!(
                        "unknown sweep.vary {vary:?} (expected one of: {})",
                        AXES.join(", ")
                    ));
                }
                let values = doc
                    .get_usize_array("sweep", "values")?
                    .ok_or("sweep.vary given without sweep.values")?;
                if values.is_empty() {
                    return Err("sweep.values must not be empty".into());
                }
                Some(SweepSpec { vary, values })
            }
        };

        let scenario = Scenario {
            name: doc
                .get_str("", "name")?
                .unwrap_or_else(|| "unnamed scenario".into()),
            seed: doc.get_u64("", "seed")?.unwrap_or(0xBE7C4),
            parties: doc.get_usize("", "parties")?.unwrap_or(3),
            algorithms,
            data,
            params,
            model,
            network,
            checkpoint,
            faults,
            adversary,
            sweep,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Cross-field checks. Public because sweep points built by
    /// [`Scenario::with_axis`] must be re-validated before execution (a
    /// sweep value like `parties = 0` is only detectable per point).
    pub fn validate(&self) -> Result<(), String> {
        if self.parties < 2 {
            return Err("parties must be >= 2 (vertical FL needs multiple clients)".into());
        }
        if self.data.kind == DataKind::Csv && self.data.path.is_none() {
            return Err("data.kind = \"csv\" requires data.path".into());
        }
        if self.data.kind != DataKind::Csv && self.data.features_per_party == 0 {
            return Err("data.features_per_party must be >= 1".into());
        }
        if let Some(informative) = self.data.informative {
            if !matches!(
                self.data.kind,
                DataKind::SyntheticClassification | DataKind::SyntheticRegression
            ) {
                return Err("data.informative only applies to the synthetic-* generators".into());
            }
            let total_features = self.parties * self.data.features_per_party;
            if informative == 0 || informative > total_features {
                return Err(format!(
                    "data.informative must be in 1..={total_features} \
                     (parties x features_per_party)"
                ));
            }
        }
        if !(0.0..1.0).contains(&self.data.test_fraction) {
            return Err("data.test_fraction must be in [0, 1)".into());
        }
        if self.data.kind != DataKind::Csv && self.data.samples < 10 {
            return Err("data.samples must be >= 10".into());
        }
        if self.model.kind != ModelKind::DecisionTree {
            for algo in &self.algorithms {
                if !matches!(algo, Algo::PivotBasic | Algo::PivotBasicPp) {
                    return Err(format!(
                        "model.kind = \"{}\" trains via the basic protocol (§7's \
                         plaintext-ensemble setting) and does not support baseline or \
                         enhanced algorithm {}",
                        self.model.kind.label(),
                        algo.label()
                    ));
                }
            }
        }
        if self.params.max_depth == 0 || self.params.max_splits == 0 {
            return Err("params.max_depth and params.max_splits must be >= 1".into());
        }
        if let Some(secs) = self.network.recv_timeout_s {
            if !secs.is_finite() || secs <= 0.0 || secs > pivot_transport::MAX_RECV_TIMEOUT_SECS {
                return Err(format!(
                    "network.recv_timeout_s must be a positive number of seconds \
                     (at most {:e})",
                    pivot_transport::MAX_RECV_TIMEOUT_SECS
                ));
            }
        }
        if let Some(mbps) = self.network.bandwidth_mbps {
            if !mbps.is_finite() || mbps < 0.0 {
                return Err("network.bandwidth_mbps must be >= 0 (0 means unlimited)".into());
            }
        }
        if let Some(secs) = self.network.connect_timeout_s {
            if !secs.is_finite() || secs <= 0.0 || secs > pivot_transport::MAX_RECV_TIMEOUT_SECS {
                return Err(format!(
                    "network.connect_timeout_s must be a positive number of seconds \
                     (at most {:e})",
                    pivot_transport::MAX_RECV_TIMEOUT_SECS
                ));
            }
        }
        for (value, key) in [
            (self.network.heartbeat_s, "network.heartbeat_s"),
            (self.network.rejoin_deadline_s, "network.rejoin_deadline_s"),
        ] {
            if let Some(secs) = value {
                if !secs.is_finite() || secs <= 0.0 || secs > pivot_transport::MAX_RECV_TIMEOUT_SECS
                {
                    return Err(format!(
                        "{key} must be a positive number of seconds (at most {:e})",
                        pivot_transport::MAX_RECV_TIMEOUT_SECS
                    ));
                }
            }
        }
        if let Some(ckpt) = &self.checkpoint {
            if ckpt.every_levels == 0 {
                return Err("checkpoint.every_levels must be >= 1".into());
            }
            if ckpt.dir.is_empty() {
                return Err("checkpoint.dir must not be empty".into());
            }
        }
        if self.params.verification.is_on() {
            for algo in &self.algorithms {
                if !matches!(algo, Algo::PivotBasic | Algo::PivotBasicPp) {
                    return Err(format!(
                        "params.verification covers the basic protocol's commit \
                         points (§4 + Algorithm 4); algorithm {} carries no proofs \
                         — run pivot-basic or pivot-basic-pp, or set \
                         verification = \"off\"",
                        algo.label()
                    ));
                }
            }
            if let Packing::Slots(_) = self.params.packing {
                return Err("params.verification cannot run an explicit packing slot \
                     count (the packed statistics pipeline carries no proofs); leave \
                     packing at \"auto\" — it trains unpacked under verification — or \
                     set \"off\""
                    .into());
            }
        }
        if let Some(adv) = self.adversary_spec()? {
            if !self.params.verification.is_on() {
                return Err("an [adversary] injection needs params.verification on \
                     to be observable (the honest-but-curious transcript checks \
                     nothing)"
                    .into());
            }
            if adv.party >= self.parties {
                return Err(format!(
                    "adversary.tamper: party {} out of range (scenario has {} \
                     parties)",
                    adv.party, self.parties
                ));
            }
        }
        let plan = self.fault_plan().map_err(|e| format!("faults.plan: {e}"))?;
        for spec in &plan.specs {
            let parties = match spec.kind {
                pivot_transport::FaultKind::DropLink { a, b }
                | pivot_transport::FaultKind::DelaySpike { a, b, .. } => [a, b],
                pivot_transport::FaultKind::CrashParty { party }
                | pivot_transport::FaultKind::KillParty { party, .. } => [party, party],
            };
            if let Some(p) = parties.iter().find(|&&p| p >= self.parties) {
                return Err(format!(
                    "faults.plan: party {p} out of range (scenario has {} parties)",
                    self.parties
                ));
            }
        }
        if plan.has_kill() && self.checkpoint.is_none() {
            return Err(
                "faults.plan: kill_party needs a [checkpoint] section — the \
                 relaunched party resumes from its newest checkpoint"
                    .into(),
            );
        }
        Ok(())
    }

    /// The parsed `[faults]` plan (empty when the section is absent).
    pub fn fault_plan(&self) -> Result<pivot_transport::FaultPlan, String> {
        pivot_transport::FaultPlan::parse(&self.faults.plan, self.faults.seed.unwrap_or(0))
    }

    /// The parsed `[adversary]` injection (`None` when the section is
    /// absent).
    pub fn adversary_spec(&self) -> Result<Option<AdversarySpec>, String> {
        self.adversary
            .tamper
            .as_deref()
            .map(|t| AdversarySpec::parse(t).map_err(|e| format!("adversary.tamper: {e}")))
            .transpose()
    }

    /// The single algorithm of a train/predict scenario.
    pub fn sole_algorithm(&self) -> Result<Algo, String> {
        match self.algorithms.as_slice() {
            [one] => Ok(*one),
            many => Err(format!(
                "this subcommand needs exactly one algorithm, scenario lists {}",
                many.len()
            )),
        }
    }

    /// Task of the configured dataset.
    pub fn task(&self) -> Result<Task, String> {
        Ok(match self.data.kind {
            DataKind::SyntheticClassification
            | DataKind::CreditCardLike
            | DataKind::BankMarketLike => Task::Classification {
                classes: self.effective_classes(),
            },
            DataKind::SyntheticRegression | DataKind::EnergyLike => Task::Regression,
            DataKind::Csv => match self.data.task.as_deref() {
                Some("classification") | None => Task::Classification {
                    classes: self.effective_classes(),
                },
                Some("regression") => Task::Regression,
                Some(other) => {
                    return Err(format!(
                        "unknown data.task {other:?} (expected classification or regression)"
                    ))
                }
            },
        })
    }

    fn effective_classes(&self) -> usize {
        match self.data.kind {
            // The named Table 3 stand-ins are binary tasks.
            DataKind::CreditCardLike | DataKind::BankMarketLike => 2,
            _ => self.data.classes,
        }
    }

    /// Build (or load) the dataset this scenario describes.
    pub fn build_dataset(&self) -> Result<Dataset, String> {
        let features = self.parties * self.data.features_per_party;
        let informative = self
            .data
            .informative
            .unwrap_or_else(|| features.div_ceil(2));
        Ok(match self.data.kind {
            DataKind::SyntheticClassification => {
                synth::make_classification(&synth::ClassificationSpec {
                    samples: self.data.samples,
                    features,
                    informative,
                    classes: self.data.classes,
                    class_sep: self.data.class_sep,
                    flip_y: self.data.flip_y,
                    seed: self.seed,
                })
            }
            DataKind::SyntheticRegression => synth::make_regression(&synth::RegressionSpec {
                samples: self.data.samples,
                features,
                informative,
                noise: self.data.noise,
                seed: self.seed,
            }),
            DataKind::CreditCardLike => synth::credit_card_like(self.data.samples, self.seed),
            DataKind::BankMarketLike => synth::bank_market_like(self.data.samples, self.seed),
            DataKind::EnergyLike => synth::energy_like(self.data.samples, self.seed),
            DataKind::Csv => {
                let path = self.data.path.as_ref().expect("validated");
                let task = self.task()?;
                let mut ds = pivot_data::read_csv(Path::new(path), task)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                if task == Task::Regression {
                    // Pivot's fixed-point pipeline needs bounded labels.
                    ds.normalize_labels();
                }
                ds
            }
        })
    }

    /// The [`NetConfig`] every endpoint of this run carries: explicit
    /// `[network]` keys over "no simulation".
    pub fn net_config(&self) -> NetConfig {
        let mut net = NetConfig::default();
        if let Some(us) = self.network.latency_us {
            net.latency = std::time::Duration::from_micros(us);
        }
        if let Some(mbps) = self.network.bandwidth_mbps {
            net.bandwidth_mbps = mbps;
        }
        if let Some(secs) = self.network.recv_timeout_s {
            net.recv_timeout = std::time::Duration::from_secs_f64(secs);
        }
        if let Some(secs) = self.network.connect_timeout_s {
            net.connect_timeout = std::time::Duration::from_secs_f64(secs);
        }
        if let Some(secs) = self.network.heartbeat_s {
            net.heartbeat = Some(std::time::Duration::from_secs_f64(secs));
        }
        if let Some(secs) = self.network.rejoin_deadline_s {
            net.rejoin_deadline = Some(std::time::Duration::from_secs_f64(secs));
        }
        // Deterministic retry/backoff schedules: derived per link from the
        // scenario seed and the party ids (timing only — never bytes).
        net.seed = self.seed;
        // Checkpointed runs pin retransmit-ring retention to the barrier
        // cursor instead of the pure LRU caps, so a restarted party can
        // always be replayed forward from its last durable checkpoint.
        net.durable_sessions = self.checkpoint.is_some();
        net
    }

    /// [`PivotParams`] for one algorithm under this scenario: the
    /// scenario's knobs under the algorithm-to-parameter policy (enhanced
    /// keysize floor, serial crypto for non-`-pp` algorithms) of
    /// [`algo_params`].
    pub fn pivot_params(&self, algo: Algo) -> PivotParams {
        let base = PivotParams {
            tree: TreeParams {
                max_depth: self.params.max_depth,
                min_samples: self.params.min_samples,
                max_splits: self.params.max_splits,
                stop_when_pure: false,
            },
            keysize: self.params.keysize,
            crypto_threads: self.params.crypto_threads,
            randomness_pool: self.params.randomness_pool,
            packing: self.params.packing,
            comparison_bits: self.params.comparison_bits,
            dealer_pool: self.params.dealer_pool,
            dealer_seed: self.seed,
            trace: self.params.trace.to_core(),
            verification: self.params.verification.to_core(),
            // The scenario is validated before execution, so a malformed
            // tamper spec never reaches this unwrap.
            adversary: self.adversary_spec().expect("validated adversary spec"),
            ..Default::default()
        };
        algo_params(algo, base)
    }

    /// Echo of the effective configuration, embedded in every report so
    /// runs stay interpretable months later.
    pub fn to_json(&self) -> Json {
        let mut data = Json::obj()
            .with("kind", self.data.kind.label())
            .with("test_fraction", self.data.test_fraction);
        if self.data.kind == DataKind::Csv {
            data.set("path", self.data.path.clone());
            data.set("task", self.data.task.clone());
        } else {
            data.set("samples", self.data.samples);
            data.set("features_per_party", self.data.features_per_party);
        }
        if matches!(self.data.kind, DataKind::SyntheticClassification) {
            data.set("classes", self.data.classes);
            data.set("class_sep", self.data.class_sep);
            data.set("flip_y", self.data.flip_y);
        }
        if matches!(self.data.kind, DataKind::SyntheticRegression) {
            data.set("noise", self.data.noise);
        }
        if matches!(
            self.data.kind,
            DataKind::SyntheticClassification | DataKind::SyntheticRegression
        ) {
            // Echo the *effective* value so reports are self-contained.
            let features = self.parties * self.data.features_per_party;
            data.set(
                "informative",
                self.data
                    .informative
                    .unwrap_or_else(|| features.div_ceil(2)),
            );
        }

        let mut model = Json::obj().with("kind", self.model.kind.label());
        match self.model.kind {
            ModelKind::Gbdt => {
                model.set("rounds", self.model.rounds);
                model.set("learning_rate", self.model.learning_rate);
            }
            ModelKind::RandomForest => {
                model.set("trees", self.model.trees);
                model.set("sample_fraction", self.model.sample_fraction);
            }
            ModelKind::DecisionTree => {}
        }

        let mut root = Json::obj()
            .with("name", self.name.clone())
            .with("seed", self.seed)
            .with("parties", self.parties)
            .with(
                "algorithms",
                self.algorithms
                    .iter()
                    .map(|a| a.label())
                    .collect::<Vec<_>>(),
            )
            .with("data", data)
            .with(
                "params",
                Json::obj()
                    .with("max_depth", self.params.max_depth)
                    .with("max_splits", self.params.max_splits)
                    .with("min_samples", self.params.min_samples)
                    .with("keysize", u64::from(self.params.keysize))
                    .with("crypto_threads", self.params.crypto_threads)
                    .with("randomness_pool", self.params.randomness_pool)
                    .with("packing", echo_packing(self.params.packing))
                    .with(
                        "comparison_bits",
                        echo_comparison_bits(self.params.comparison_bits),
                    )
                    .with("dealer_pool", self.params.dealer_pool)
                    .with("trace", self.params.trace.echo())
                    .with("scheduling", "pipelined")
                    .with("verification", self.params.verification.echo()),
            )
            .with("model", model)
            .with("network", {
                // Echo the *effective* settings (explicit keys merged over
                // the defaults) so reports are self-contained.
                let net = self.net_config();
                let mut echo = Json::obj()
                    .with("latency_us", net.latency.as_micros() as u64)
                    .with(
                        "bandwidth_mbps",
                        if net.secs_per_byte() > 0.0 {
                            Json::Num(net.bandwidth_mbps)
                        } else {
                            Json::Null
                        },
                    )
                    .with("recv_timeout_s", net.recv_timeout.as_secs_f64())
                    .with("connect_timeout_s", net.connect_timeout.as_secs_f64());
                // Liveness knobs are echoed only when armed, so reports
                // from heartbeat-free runs keep their PR-9 shape.
                if let Some(d) = net.heartbeat {
                    echo.set("heartbeat_s", d.as_secs_f64());
                }
                if let Some(d) = net.rejoin_deadline {
                    echo.set("rejoin_deadline_s", d.as_secs_f64());
                }
                echo
            });
        if let Some(ckpt) = &self.checkpoint {
            root.set(
                "checkpoint",
                Json::obj()
                    .with("every_levels", ckpt.every_levels)
                    .with("dir", ckpt.dir.clone()),
            );
        }
        if !self.faults.plan.is_empty() {
            root.set(
                "faults",
                Json::obj()
                    .with("plan", self.faults.plan.clone())
                    .with("seed", self.faults.seed.unwrap_or(0)),
            );
        }
        if let Some(tamper) = &self.adversary.tamper {
            root.set("adversary", Json::obj().with("tamper", tamper.clone()));
        }
        if let Some(sweep) = &self.sweep {
            root.set(
                "sweep",
                Json::obj()
                    .with("vary", sweep.vary.clone())
                    .with("values", sweep.values.clone()),
            );
        }
        root
    }

    /// Clone with one sweep axis set to `value` (the sweep itself is
    /// removed from the clone).
    pub fn with_axis(&self, axis: &str, value: usize) -> Scenario {
        let mut s = self.clone();
        s.sweep = None;
        match axis {
            "parties" => s.parties = value,
            "samples" => s.data.samples = value,
            "features_per_party" => s.data.features_per_party = value,
            "max_splits" => s.params.max_splits = value,
            "max_depth" => s.params.max_depth = value,
            // Network axes: per-endpoint NetConfig makes these sweepable
            // within one process (the old env-var latch could not).
            "latency_us" => s.network.latency_us = Some(value as u64),
            "bandwidth_mbps" => s.network.bandwidth_mbps = Some(value as f64),
            // Packing axis: 0 = off, 1 = auto, n ≥ 2 = exactly n slots —
            // the off-vs-auto A/B the packing baseline records.
            "packing" => {
                s.params.packing = match value {
                    0 => Packing::Off,
                    1 => Packing::Auto,
                    n => Packing::Slots(n),
                }
            }
            other => panic!("unvalidated sweep axis {other:?}"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_core::config::Protocol;

    fn parse_toml(text: &str) -> Result<Scenario, String> {
        let doc = Doc {
            toml: Some(TomlDoc::parse(text).unwrap()),
            json: None,
        };
        Scenario::from_doc(&doc)
    }

    #[test]
    fn minimal_scenario_gets_defaults() {
        let s = parse_toml("[data]\nkind = \"synthetic-classification\"").unwrap();
        assert_eq!(s.parties, 3);
        assert_eq!(s.seed, 0xBE7C4);
        assert_eq!(s.algorithms, vec![Algo::PivotBasic]);
        assert_eq!(s.model.kind, ModelKind::DecisionTree);
        assert!(s.sweep.is_none());
        let ds = s.build_dataset().unwrap();
        assert_eq!(ds.num_samples(), 200);
        assert_eq!(ds.num_features(), 9);
    }

    #[test]
    fn unknown_keys_rejected() {
        let err = parse_toml("[params]\nmax_dept = 5").unwrap_err();
        assert!(err.contains("max_dept"), "{err}");
        let err = parse_toml("[paramz]\nmax_depth = 5").unwrap_err();
        assert!(err.contains("paramz"), "{err}");
        let err = parse_toml("algorithm = \"magic\"").unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn enhanced_keysize_floor_applied() {
        let s = parse_toml("algorithm = \"pivot-enhanced\"\n[params]\nkeysize = 128").unwrap();
        let p = s.pivot_params(Algo::PivotEnhanced);
        assert_eq!(p.keysize, 192);
        assert_eq!(p.protocol, Protocol::Enhanced);
        let basic = parse_toml("[params]\nkeysize = 128").unwrap();
        assert_eq!(basic.pivot_params(Algo::PivotBasic).keysize, 128);
    }

    #[test]
    fn only_pp_variants_get_threads_and_pools() {
        let s = parse_toml("[params]\ncrypto_threads = 4\nrandomness_pool = 64\ndealer_pool = 32")
            .unwrap();
        for algo in [Algo::PivotBasicPp, Algo::PivotEnhancedPp] {
            let p = s.pivot_params(algo);
            assert_eq!(
                (p.crypto_threads, p.randomness_pool, p.dealer_pool),
                (4, 64, 32),
                "{algo:?}"
            );
        }
        // Every other algorithm runs the same batch API serially.
        for algo in [Algo::PivotBasic, Algo::PivotEnhanced, Algo::SpdzDt] {
            let p = s.pivot_params(algo);
            assert_eq!(
                (p.crypto_threads, p.randomness_pool, p.dealer_pool),
                (1, 0, 0),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn crypto_threads_and_deprecated_alias() {
        let s = parse_toml("[params]\ncrypto_threads = 4\nrandomness_pool = 64").unwrap();
        assert_eq!(s.params.crypto_threads, 4);
        assert_eq!(s.params.randomness_pool, 64);
        let p = s.pivot_params(Algo::PivotBasicPp);
        assert_eq!(p.crypto_threads, 4);
        assert_eq!(p.randomness_pool, 64);
        // The PR-2 alias is gone: it is an unknown key like any other.
        let err = parse_toml("[params]\ndecrypt_threads = 8").unwrap_err();
        assert!(err.contains("decrypt_threads"), "{err}");
        // Echo carries the generalized keys.
        let echo = s.to_json();
        assert_eq!(
            echo.path("params.crypto_threads").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(
            echo.path("params.randomness_pool").unwrap().as_u64(),
            Some(64)
        );
    }

    #[test]
    fn packing_knob_parses_and_applies() {
        // Default auto (spelled out or not), "off", explicit slot counts.
        for text in ["[params]", "[params]\npacking = \"auto\""] {
            let s = parse_toml(text).unwrap();
            assert_eq!(s.params.packing, Packing::Auto);
            assert_eq!(s.pivot_params(Algo::PivotEnhancedPp).packing, Packing::Auto);
            assert_eq!(
                s.to_json().path("params.packing").unwrap().as_str(),
                Some("auto")
            );
        }
        let s = parse_toml("[params]\npacking = \"off\"").unwrap();
        assert_eq!(s.params.packing, Packing::Off);
        assert_eq!(s.pivot_params(Algo::PivotBasic).packing, Packing::Off);
        assert_eq!(
            s.to_json().path("params.packing").unwrap().as_str(),
            Some("off")
        );
        let s = parse_toml("[params]\npacking = 4").unwrap();
        assert_eq!(s.params.packing, Packing::Slots(4));
        assert_eq!(
            s.to_json().path("params.packing").unwrap().as_u64(),
            Some(4)
        );
        // Invalid values are hard errors (typos must not silently run),
        // and the integer 1 is rejected as ambiguous: the sweep axis uses
        // 1 to mean "auto" while an explicit 1-slot layout packs nothing.
        assert!(parse_toml("[params]\npacking = \"yes\"").is_err());
        assert!(parse_toml("[params]\npacking = 0").is_err());
        assert!(parse_toml("[params]\npacking = 1").is_err());
    }

    #[test]
    fn comparison_bits_knob_parses_and_applies() {
        // Default auto, spelled out or not.
        for text in [
            "[params]\ndealer_pool = 64",
            "[params]\ncomparison_bits = \"auto\"\ndealer_pool = 64",
        ] {
            let s = parse_toml(text).unwrap();
            assert_eq!(s.params.comparison_bits, CompareBits::Auto);
            assert_eq!(s.params.dealer_pool, 64);
            let p = s.pivot_params(Algo::PivotEnhancedPp);
            assert_eq!(p.comparison_bits, CompareBits::Auto);
            assert_eq!(p.dealer_pool, 64);
            assert_eq!(
                s.to_json().path("params.comparison_bits").unwrap().as_str(),
                Some("auto")
            );
            assert_eq!(
                s.to_json().path("params.dealer_pool").unwrap().as_u64(),
                Some(64)
            );
        }
        let s = parse_toml("[params]\ncomparison_bits = 24").unwrap();
        assert_eq!(s.params.comparison_bits, CompareBits::Floor(24));
        assert_eq!(
            s.pivot_params(Algo::PivotBasic).comparison_bits,
            CompareBits::Floor(24)
        );
        assert_eq!(
            s.to_json().path("params.comparison_bits").unwrap().as_u64(),
            Some(24)
        );
        // Removed spellings name their removal: the "full" mode, and the
        // sweep axis whose value 0 meant "full".
        let err = parse_toml("[params]\ncomparison_bits = \"full\"").unwrap_err();
        assert!(err.contains("was removed"), "{err}");
        let err = parse_toml("[sweep]\nvary = \"comparison_bits\"\nvalues = [0, 1]").unwrap_err();
        assert!(err.contains("was removed"), "{err}");
        // Typos and sub-2 floors are hard errors, and floors beyond the
        // fixed-point int_bits (45) are rejected at parse time rather
        // than panicking downstream.
        assert!(parse_toml("[params]\ncomparison_bits = \"fast\"").is_err());
        assert!(parse_toml("[params]\ncomparison_bits = 0").is_err());
        assert!(parse_toml("[params]\ncomparison_bits = 1").is_err());
        let err = parse_toml("[params]\ncomparison_bits = 46").unwrap_err();
        assert!(err.contains("int_bits"), "{err}");
        assert!(parse_toml("[params]\ncomparison_bits = 45").is_ok());
    }

    #[test]
    fn packing_axis_is_sweepable() {
        let s = parse_toml("[sweep]\nvary = \"packing\"\nvalues = [0, 1, 3]").unwrap();
        assert_eq!(s.with_axis("packing", 0).params.packing, Packing::Off);
        assert_eq!(s.with_axis("packing", 1).params.packing, Packing::Auto);
        assert_eq!(s.with_axis("packing", 3).params.packing, Packing::Slots(3));
    }

    #[test]
    fn sweep_parses_and_applies() {
        let s = parse_toml(
            "algorithms = [\"pivot-basic\", \"npd-dt\"]\n\
             [sweep]\nvary = \"parties\"\nvalues = [2, 3, 4]",
        )
        .unwrap();
        let sweep = s.sweep.clone().unwrap();
        assert_eq!(sweep.values, vec![2, 3, 4]);
        let point = s.with_axis("parties", 4);
        assert_eq!(point.parties, 4);
        assert!(point.sweep.is_none());
    }

    #[test]
    fn informative_is_honoured_and_bounded() {
        let s = parse_toml(
            "parties = 2\n[data]\nkind = \"synthetic-classification\"\n\
             features_per_party = 3\ninformative = 5",
        )
        .unwrap();
        assert_eq!(s.data.informative, Some(5));
        assert_eq!(
            s.to_json().path("data.informative").unwrap().as_u64(),
            Some(5)
        );
        s.build_dataset().unwrap();

        let err = parse_toml(
            "parties = 2\n[data]\nkind = \"synthetic-classification\"\n\
             features_per_party = 2\ninformative = 9",
        )
        .unwrap_err();
        assert!(err.contains("informative"), "{err}");
        let err = parse_toml("[data]\nkind = \"energy-like\"\ninformative = 2").unwrap_err();
        assert!(err.contains("synthetic"), "{err}");
    }

    #[test]
    fn oversized_integers_rejected_exactly_at_2_pow_53() {
        // 2^53 - 1 is the largest integer accepted; 2^53 itself must be
        // rejected on both backends because JSON cannot distinguish it
        // from a rounded 2^53 + 1 (not silently run a different value).
        let s = parse_toml("seed = 9007199254740991").unwrap();
        assert_eq!(s.seed, 9_007_199_254_740_991);
        let err = parse_toml("seed = 9007199254740992").unwrap_err();
        assert!(err.contains("seed"), "{err}");
        for json_text in [
            "{\"seed\": 9007199254740992}",
            "{\"seed\": 9007199254740993}",
        ] {
            let doc = Doc {
                toml: None,
                json: Some(Json::parse(json_text).unwrap()),
            };
            let err = Scenario::from_doc(&doc).unwrap_err();
            assert!(err.contains("seed"), "{err}");
        }
    }

    #[test]
    fn sweep_points_revalidate() {
        let s = parse_toml(
            "[sweep]\nvary = \"parties\"\nvalues = [2]\n\
             [data]\nkind = \"synthetic-classification\"",
        )
        .unwrap();
        let bad = s.with_axis("parties", 0);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("parties"), "{err}");
        assert!(s.with_axis("parties", 2).validate().is_ok());
    }

    #[test]
    fn network_section_builds_per_run_net_config() {
        let s =
            parse_toml("[network]\nlatency_us = 250\nbandwidth_mbps = 1000\nrecv_timeout_s = 5")
                .unwrap();
        let net = s.net_config();
        assert_eq!(net.latency, std::time::Duration::from_micros(250));
        assert_eq!(net.bandwidth_mbps, 1000.0);
        assert_eq!(net.recv_timeout, std::time::Duration::from_secs(5));
        // Unset sections leave the defaults (no simulation, 120 s).
        let plain = parse_toml("[data]\nkind = \"synthetic-classification\"").unwrap();
        assert!(!plain.net_config().simulates());
        // Echo carries the effective values.
        let echo = s.to_json();
        assert_eq!(echo.path("network.latency_us").unwrap().as_u64(), Some(250));
        assert_eq!(
            echo.path("network.recv_timeout_s").unwrap().as_f64(),
            Some(5.0)
        );
    }

    #[test]
    fn scheduling_key_accepts_only_pipelined() {
        let base = "[data]\nkind = \"synthetic-classification\"\n[params]\n";
        for text in [
            base.to_string(),
            format!("{base}scheduling = \"pipelined\"\n"),
        ] {
            let echo = parse_toml(&text).unwrap().to_json();
            assert_eq!(
                echo.path("params.scheduling").unwrap().as_str(),
                Some("pipelined")
            );
        }
        let err = parse_toml(&format!("{base}scheduling = \"sequential\"\n")).unwrap_err();
        assert!(err.contains("removed"), "{err}");
        assert!(parse_toml(&format!("{base}scheduling = \"eager\"\n")).is_err());
        // Checkpointing has no scheduling precondition.
        parse_toml(&format!("{base}[checkpoint]\ndir = \"ckpt\"\n")).unwrap();
    }

    #[test]
    fn trace_levels_parse_and_echo() {
        let d = parse_toml("[data]\nkind = \"synthetic-classification\"").unwrap();
        assert_eq!(d.params.trace, TraceSpec::Off);
        for (text, spec, level) in [
            ("off", TraceSpec::Off, TraceLevel::Off),
            ("phases", TraceSpec::Phases, TraceLevel::Phases),
            ("full", TraceSpec::Full, TraceLevel::Full),
        ] {
            let s = parse_toml(&format!("[params]\ntrace = \"{text}\"")).unwrap();
            assert_eq!(s.params.trace, spec);
            assert_eq!(s.pivot_params(s.algorithms[0]).trace, level);
            assert_eq!(
                s.to_json().path("params.trace").unwrap().as_str(),
                Some(text)
            );
        }
        let err = parse_toml("[params]\ntrace = \"verbose\"").unwrap_err();
        assert!(err.contains("trace"), "{err}");
    }

    #[test]
    fn network_axes_are_sweepable() {
        let s = parse_toml("[sweep]\nvary = \"latency_us\"\nvalues = [0, 200, 1000]").unwrap();
        let point = s.with_axis("latency_us", 1000);
        assert_eq!(
            point.net_config().latency,
            std::time::Duration::from_millis(1)
        );
        let s = parse_toml("[sweep]\nvary = \"bandwidth_mbps\"\nvalues = [100, 1000]").unwrap();
        let point = s.with_axis("bandwidth_mbps", 100);
        assert!(point.net_config().secs_per_byte() > 0.0);
    }

    #[test]
    fn invalid_network_values_rejected() {
        let err = parse_toml("[network]\nrecv_timeout_s = 0").unwrap_err();
        assert!(err.contains("recv_timeout_s"), "{err}");
        // Values beyond Duration's float range must be a clean error, not
        // a panic inside Duration::from_secs_f64.
        let err = parse_toml("[network]\nrecv_timeout_s = 1e30").unwrap_err();
        assert!(err.contains("recv_timeout_s"), "{err}");
        let err = parse_toml("[network]\nbandwidth_mbps = -1").unwrap_err();
        assert!(err.contains("bandwidth_mbps"), "{err}");
        let err = parse_toml("[network]\nlatency = 5").unwrap_err();
        assert!(err.contains("latency"), "{err}");
        let err = parse_toml("[network]\nconnect_timeout_s = 0").unwrap_err();
        assert!(err.contains("connect_timeout_s"), "{err}");
    }

    #[test]
    fn connect_timeout_flows_into_net_config_and_echo() {
        let s = parse_toml("[network]\nconnect_timeout_s = 2.5").unwrap();
        let net = s.net_config();
        assert_eq!(net.connect_timeout, std::time::Duration::from_secs_f64(2.5));
        let echo = s.to_json();
        assert_eq!(
            echo.path("network.connect_timeout_s").unwrap().as_f64(),
            Some(2.5)
        );
        // Unset leaves the transport default.
        let s = parse_toml("").unwrap();
        assert_eq!(
            s.net_config().connect_timeout,
            pivot_transport::DEFAULT_CONNECT_TIMEOUT
        );
    }

    #[test]
    fn faults_section_parses_into_a_plan() {
        let s = parse_toml(
            "[faults]\nplan = [\"drop_link 0-1 at_round=4\", \"crash_party 2 at_bytes=100\"]\nseed = 9",
        )
        .unwrap();
        let plan = s.fault_plan().unwrap();
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.seed, 9);
        let echo = s.to_json();
        assert_eq!(echo.path("faults.seed").unwrap().as_u64(), Some(9));
        // No [faults] section: empty plan, no echo.
        let s = parse_toml("").unwrap();
        assert!(s.fault_plan().unwrap().is_empty());
        assert!(s.to_json().path("faults").is_none());
    }

    #[test]
    fn invalid_faults_rejected() {
        let err = parse_toml("[faults]\nplan = [\"meteor_strike 0-1 at_round=1\"]").unwrap_err();
        assert!(err.contains("meteor_strike"), "{err}");
        // Party ids must fit the scenario's party count (default 3).
        let err = parse_toml("[faults]\nplan = [\"crash_party 7 at_round=1\"]").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse_toml("[faults]\nchaos = true").unwrap_err();
        assert!(err.contains("chaos"), "{err}");
    }

    #[test]
    fn invalid_sweeps_rejected() {
        assert!(parse_toml("[sweep]\nvary = \"keysize\"\nvalues = [1]").is_err());
        assert!(parse_toml("[sweep]\nvary = \"parties\"").is_err());
        assert!(parse_toml("[sweep]\nvalues = [2]").is_err());
    }

    #[test]
    fn baseline_plus_ensemble_rejected() {
        let err = parse_toml("algorithm = \"npd-dt\"\n[model]\nkind = \"gbdt\"").unwrap_err();
        assert!(err.contains("baseline"), "{err}");
    }

    #[test]
    fn regression_scenario_task() {
        let s = parse_toml("[data]\nkind = \"synthetic-regression\"").unwrap();
        assert_eq!(s.task().unwrap(), Task::Regression);
        let ds = s.build_dataset().unwrap();
        assert!(ds.labels().iter().all(|y| y.abs() <= 1.0));
    }

    #[test]
    fn json_echo_round_trips() {
        let s = parse_toml(
            "name = \"echo\"\nseed = 7\n[data]\nkind = \"synthetic-regression\"\n\
             [model]\nkind = \"gbdt\"\nrounds = 2",
        )
        .unwrap();
        let echo = s.to_json();
        assert_eq!(echo.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(echo.path("model.rounds").unwrap().as_u64(), Some(2));
        assert_eq!(
            echo.path("data.kind").unwrap().as_str(),
            Some("synthetic-regression")
        );
        // The echo itself must serialize and re-parse.
        let text = echo.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), echo);
    }

    #[test]
    fn json_scenarios_parse_identically() {
        let doc = Doc {
            toml: None,
            json: Some(
                Json::parse(
                    r#"{
                        "name": "from json",
                        "parties": 2,
                        "algorithm": "pivot-basic",
                        "data": {"kind": "synthetic-classification", "samples": 40},
                        "params": {"max_depth": 2}
                    }"#,
                )
                .unwrap(),
            ),
        };
        let s = Scenario::from_doc(&doc).unwrap();
        assert_eq!(s.name, "from json");
        assert_eq!(s.parties, 2);
        assert_eq!(s.data.samples, 40);
        assert_eq!(s.params.max_depth, 2);
    }

    #[test]
    fn verification_knob_parses_and_applies() {
        // Default off: the honest-but-curious transcript is untouched.
        let s = parse_toml("[data]\nkind = \"synthetic-classification\"").unwrap();
        assert_eq!(s.params.verification, VerificationSpec::Off);
        assert_eq!(
            s.pivot_params(Algo::PivotBasic).verification,
            pivot_core::Verification::Off
        );
        let s = parse_toml("[params]\nverification = \"full\"").unwrap();
        assert_eq!(s.params.verification, VerificationSpec::Full);
        assert_eq!(
            s.pivot_params(Algo::PivotBasic).verification,
            pivot_core::Verification::Full
        );
        assert_eq!(
            s.to_json().path("params.verification").unwrap().as_str(),
            Some("full")
        );
        let s = parse_toml("[params]\nverification = \"spot(0.25)\"").unwrap();
        assert_eq!(s.params.verification, VerificationSpec::Spot(0.25));
        assert_eq!(
            s.to_json().path("params.verification").unwrap().as_str(),
            Some("spot(0.25)")
        );
        // Typos and out-of-range probabilities are hard errors.
        assert!(parse_toml("[params]\nverification = \"on\"").is_err());
        assert!(parse_toml("[params]\nverification = \"spot(1.5)\"").is_err());
        assert!(parse_toml("[params]\nverification = \"spot(-0.1)\"").is_err());
    }

    #[test]
    fn verification_only_covers_proved_paths() {
        // Enhanced algorithms carry no proofs.
        let err = parse_toml("algorithm = \"pivot-enhanced\"\n[params]\nverification = \"full\"")
            .unwrap_err();
        assert!(err.contains("carries no proofs"), "{err}");
        // Neither does the packed statistics pipeline: an explicit slot
        // count is rejected, while auto packing (spelled out or not)
        // validates and trains unpacked.
        let err = parse_toml("[params]\nverification = \"full\"\npacking = 4").unwrap_err();
        assert!(err.contains("packing"), "{err}");
        for text in [
            "[params]\nverification = \"full\"",
            "[params]\nverification = \"full\"\npacking = \"auto\"",
        ] {
            let p = parse_toml(text).unwrap().pivot_params(Algo::PivotBasic);
            p.assert_valid_for(60, 3);
            assert!(p.slot_plan(3, 60, false).is_none());
        }
    }

    #[test]
    fn adversary_section_parses_and_validates() {
        let s = parse_toml(
            "[params]\nverification = \"spot(1.0)\"\n\
             [adversary]\ntamper = \"party 1 phase=stats index=3\"",
        )
        .unwrap();
        let adv = s.adversary_spec().unwrap().unwrap();
        assert_eq!(adv.party, 1);
        assert_eq!(adv.phase, "stats");
        assert_eq!(adv.index, 3);
        let p = s.pivot_params(Algo::PivotBasic);
        assert_eq!(p.adversary.as_ref(), Some(&adv));
        assert_eq!(
            s.to_json().path("adversary.tamper").unwrap().as_str(),
            Some("party 1 phase=stats index=3")
        );
        // Tampering without verification on is unobservable — rejected.
        let err = parse_toml("[adversary]\ntamper = \"party 1 phase=stats\"").unwrap_err();
        assert!(err.contains("verification"), "{err}");
        // Out-of-range party and malformed specs are rejected.
        let err = parse_toml(
            "[params]\nverification = \"full\"\n[adversary]\ntamper = \"party 7 phase=stats\"",
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(parse_toml(
            "[params]\nverification = \"full\"\n[adversary]\ntamper = \"phase=stats\"",
        )
        .is_err());
    }
}
