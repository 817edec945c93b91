//! Scenario files: the declarative description of one `pivot` run.
//!
//! A scenario is TOML (see [`crate::toml`] for the supported subset) or
//! JSON with the same structure, selected by file extension; a JSON file
//! is lowered into the TOML document tree at load, so both formats go
//! through the same schema. Every knob has a default, so a minimal
//! classification scenario is just:
//!
//! ```toml
//! [data]
//! kind = "synthetic-classification"
//! ```
//!
//! Unknown sections or keys are hard errors: a typo like `max_dept = 5`
//! must not silently benchmark the wrong configuration.
//!
//! # One table
//!
//! Every key is declared once, as a row of `SCHEMA`. A row names the key's
//! section, its admissible values (type and range), one line of
//! documentation, the typed [`Scenario`] field it is read back from and
//! stored into, how the report echoes it, and whether `[sweep]` may vary
//! it. One engine walks the rows to reject unknown sections and keys, read
//! a document, re-check ranges in [`Scenario::validate`], write the echo
//! ([`Scenario::to_json`] — row order is echo order), apply a sweep point
//! ([`Scenario::with_axis`]) and render the key reference in README.md.
//! What stays as code is what no single row can state: the structural
//! rules of the reader (`algorithm` xor `algorithms`, `[checkpoint]` needs
//! `dir`, `vary` with `values`) and the cross-field rules of `validate`.
//! The typed structs stay the interface of everything downstream, and
//! their `Default` impls the one source of defaults.
//!
//! Adding a knob is one struct field (with its default) and one row:
//!
//! ```diff
//!  pub struct CheckpointSpec {
//! +    /// Bytes one party's checkpoints may hold (0 = unbounded).
//! +    pub budget_bytes: u64,
//!  ...
//!  static SCHEMA: &[Key] = &[
//! +    key!(checkpoint?.budget_bytes: Int(0, INT_MAX),
//! +        "Bytes one party's checkpoints may hold (0 = unbounded)."),
//! ```
//!
//! after which the `readme_key_reference_matches_schema` test fails with
//! the regenerated README table, ready to paste. A field of a new type —
//! an enumeration, a mode-or-number — also states its scenario syntax
//! once, as a `Load` impl and an `Into<Json>`.

use crate::algo::{algo_params, parse_algo, Algo};
use crate::json::Json;
use crate::toml::{TomlDoc, TomlValue};
use pivot_core::config::{LabelSource, Packing, PivotParams};
use pivot_core::{AdversarySpec, TraceLevel, Verification};
use pivot_data::{synth, Dataset, Task};
use pivot_transport::{NetConfig, MAX_RECV_TIMEOUT_SECS};
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

/// `[params]` section → [`PivotParams`].
#[derive(Clone, Debug)]
pub struct ParamSpec {
    pub max_depth: usize,
    pub max_splits: usize,
    pub min_samples: usize,
    pub keysize: u32,
    /// Worker threads for the batched crypto runtime under a `-pp`
    /// algorithm (the others run it on one thread).
    pub crypto_threads: usize,
    /// Ciphertext packing for the split-statistics pipeline: `"auto"`
    /// (default) packs as many audited slots as the keysize admits and
    /// runs unpacked under `verification`, `"off"` never packs, an
    /// integer forces the slot count (within the audited capacity for the
    /// trees' labels: `Scenario::label_source`).
    pub packing: Packing,
    /// Protocol tracing: `"off"` (default, bit-identical transcript),
    /// `"phases"` (phase timelines + the report's phase tables), `"full"`
    /// (adds per-round and per-node spans).
    pub trace: TraceLevel,
    /// Malicious-model verification: `"off"` (default, bit-identical
    /// transcript), `"spot(p)"` (proofs on every commit, a seeded
    /// p-fraction verified), `"full"` (every proof verified).
    pub verification: Verification,
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
            packing: core.packing,
            trace: core.trace,
            verification: core.verification,
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

impl Default for CheckpointSpec {
    /// What a `[checkpoint]` section starts from; the reader requires
    /// `dir`, so the empty directory is never run.
    fn default() -> Self {
        CheckpointSpec {
            every_levels: 1,
            dir: String::new(),
        }
    }
}

/// `[faults]` section: a deterministic chaos plan for robustness runs.
///
/// `plan` entries use the [`pivot_transport::FaultSpec`] grammar
/// (`drop_link 0-1 at_round=8`, `delay_spike 0-2 at_bytes=4096 ms=250`,
/// `crash_party 1 at_round=10`,
/// `kill_party 1 at_level=2 restart_after_ms=500`). `kill_party` is
/// special: it is never armed in-process — `pivot party --supervise`
/// drives it by really SIGKILLing and relaunching the child process, and
/// it requires a `[checkpoint]` section for the relaunch to resume from.
#[derive(Clone, Debug, Default)]
pub struct FaultsSpec {
    pub plan: Vec<String>,
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
#[derive(Clone, Debug, Default)]
pub struct SweepSpec {
    /// Which knob varies: any key the schema marks sweepable — the
    /// paper's Figure 4 axes, the `[network]` simulation, or packing.
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

impl Default for Scenario {
    /// What an empty scenario file runs; the reader starts from it and
    /// the rows of the keys a document sets overwrite it.
    fn default() -> Self {
        Scenario {
            name: "unnamed scenario".into(),
            seed: 0xBE7C4,
            parties: 3,
            algorithms: vec![Algo::PivotBasic],
            data: DataSpec::default(),
            params: ParamSpec::default(),
            model: ModelSpec::default(),
            network: NetworkSpec::default(),
            checkpoint: None,
            faults: FaultsSpec::default(),
            adversary: AdversaryCliSpec::default(),
            sweep: None,
        }
    }
}

/// A typed scenario field out of a document value: `None` when the value
/// is not one of the type's. (The other direction is `Into<Json>`.) A
/// field type that is not plain — an enumeration, a mode-or-number —
/// carries its scenario syntax here, once, for every key of that type.
trait Load: Sized {
    fn load(v: &TomlValue) -> Option<Self>;
}

macro_rules! load_integers {
    ($($int:ty),*) => {$(
        impl Load for $int {
            fn load(v: &TomlValue) -> Option<$int> {
                <$int>::try_from(v.as_i64()?).ok()
            }
        }
    )*};
}
load_integers!(u64, usize, u32);

impl Load for f64 {
    fn load(v: &TomlValue) -> Option<f64> {
        v.as_f64()
    }
}

impl Load for String {
    fn load(v: &TomlValue) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

impl<T: Load> Load for Option<T> {
    fn load(v: &TomlValue) -> Option<Option<T>> {
        T::load(v).map(Some)
    }
}

impl<T: Load> Load for Vec<T> {
    fn load(v: &TomlValue) -> Option<Vec<T>> {
        v.as_array()?.iter().map(T::load).collect()
    }
}

/// Enumerated values: one `(spelling, variant)` list per type, shared by
/// the reader, the echo and the key reference.
type Spellings<T> = &'static [(&'static str, T)];

const DATA_KINDS: Spellings<DataKind> = &[
    (
        "synthetic-classification",
        DataKind::SyntheticClassification,
    ),
    ("synthetic-regression", DataKind::SyntheticRegression),
    ("credit-card-like", DataKind::CreditCardLike),
    ("bank-market-like", DataKind::BankMarketLike),
    ("energy-like", DataKind::EnergyLike),
    ("csv", DataKind::Csv),
];
const MODEL_KINDS: Spellings<ModelKind> = &[
    ("decision-tree", ModelKind::DecisionTree),
    ("gbdt", ModelKind::Gbdt),
    ("random-forest", ModelKind::RandomForest),
];
const TRACE_LEVELS: Spellings<TraceLevel> = &[
    ("off", TraceLevel::Off),
    ("phases", TraceLevel::Phases),
    ("full", TraceLevel::Full),
];

fn spellings<T>(list: Spellings<T>) -> Vec<&'static str> {
    list.iter().map(|(spelling, _)| *spelling).collect()
}

fn spelling<T: PartialEq>(list: Spellings<T>, variant: &T) -> &'static str {
    let found = list.iter().find(|(_, v)| v == variant);
    found.expect("every variant is listed").0
}

macro_rules! load_spelled {
    ($($kind:ty: $list:ident),*) => {$(
        impl Load for $kind {
            fn load(v: &TomlValue) -> Option<$kind> {
                let found = $list.iter().find(|(s, _)| v.as_str() == Some(*s));
                found.map(|(_, variant)| variant.clone())
            }
        }
        impl From<$kind> for Json {
            fn from(variant: $kind) -> Json {
                spelling($list, &variant).into()
            }
        }
    )*};
}
load_spelled!(DataKind: DATA_KINDS, ModelKind: MODEL_KINDS, TraceLevel: TRACE_LEVELS);

/// `"off"`, `"auto"`, or the slot count.
impl Load for Packing {
    fn load(v: &TomlValue) -> Option<Packing> {
        match v.as_str() {
            Some("off") => Some(Packing::Off),
            Some("auto") => Some(Packing::Auto),
            Some(_) => None,
            // A 1-slot layout packs nothing, and the sweep axis uses the
            // literal 1 to mean "auto" — the ambiguous value is not admitted.
            None => usize::load(v).filter(|n| *n >= 2).map(Packing::Slots),
        }
    }
}

impl From<Packing> for Json {
    fn from(packing: Packing) -> Json {
        match packing {
            Packing::Off => "off".into(),
            Packing::Auto => "auto".into(),
            Packing::Slots(n) => n.into(),
        }
    }
}

/// `"off"`, `"spot(p)"`, or `"full"`.
impl Load for Verification {
    fn load(v: &TomlValue) -> Option<Verification> {
        match v.as_str()? {
            "off" => Some(Verification::Off),
            "full" => Some(Verification::Full),
            spot => {
                let p = spot.strip_prefix("spot(")?.strip_suffix(')')?;
                let p = p.trim().parse::<f64>().ok()?;
                (0.0..=1.0).contains(&p).then_some(Verification::Spot(p))
            }
        }
    }
}

impl From<Verification> for Json {
    fn from(verification: Verification) -> Json {
        match verification {
            Verification::Off => "off".into(),
            Verification::Spot(p) => format!("spot({p})").into(),
            Verification::Full => "full".into(),
        }
    }
}

/// Integers must stay below 2^53 in both formats: JSON scenario values at
/// or above that may already have arrived rounded (2^53 + 1 parses to
/// exactly 2^53, indistinguishable from a legitimate 2^53), and even exact
/// TOML values could not be echoed faithfully in the JSON report.
/// Rejecting beats silently running or reporting a different value.
const INT_MAX: u64 = (1 << 53) - 1;

/// A key's admissible values: what the reader and [`Scenario::validate`]
/// enforce on top of the field's [`Load`], and what errors and the key
/// reference print.
enum Type {
    /// An integer in `min..=max`, `max` being what the typed field holds
    /// (at most [`INT_MAX`]).
    Int(u64, u64),
    /// A number (an integer is one) that passes the test, which the text
    /// words.
    Num(&'static str, fn(f64) -> bool),
    /// One of the listed spellings.
    OneOf(fn() -> Vec<&'static str>),
    /// Whatever the field's [`Load`] (or the row's own `set`) reads,
    /// worded here.
    Syntax(&'static str),
    /// The same, but not the empty string or array.
    NonEmpty(&'static str),
}
use Type::{Int, NonEmpty, Num, OneOf, Syntax};

const TEXT: Type = Syntax("a string");
/// NaN and the infinities included: everything the format can spell.
const ANY_NUMBER: Type = Syntax("a number");
const SECONDS: Type = Num("a number in (0, 1e9]", |x| {
    x > 0.0 && x <= MAX_RECV_TIMEOUT_SECS
});

impl Type {
    fn admits(&self, v: &TomlValue) -> bool {
        match self {
            Int(min, max) => u64::load(v).is_some_and(|i| (*min..=*max).contains(&i)),
            Num(_, admits) => v.as_f64().is_some_and(admits),
            OneOf(names) => v.as_str().is_some_and(|s| names().contains(&s)),
            Syntax(_) => true,
            NonEmpty(_) => v.as_str() != Some("") && v.as_array() != Some(&[]),
        }
    }

    fn describe(&self) -> String {
        match self {
            Int(min, INT_MAX) => format!("an integer in {min}..2^53"),
            Int(min, max) => format!("an integer in {min}..={max}"),
            OneOf(names) => format!("one of {}", names().join(", ")),
            Num(words, _) | Syntax(words) | NonEmpty(words) => (*words).into(),
        }
    }
}

/// One scenario key. See the module docs for what walks these.
struct Key {
    /// `""` for the root table.
    section: &'static str,
    name: &'static str,
    ty: Type,
    /// One line for the key reference, which a test renders.
    #[cfg_attr(not(test), allow(dead_code))]
    doc: &'static str,
    /// The typed field as a document value (`Json::Null` when unset), for
    /// the range re-check of [`Scenario::validate`] and the echo.
    get: fn(&Scenario) -> Json,
    /// Store a value the row's [`Type`] admits into the typed field.
    /// `Ok(false)`: not a value of the field's type (the engine words
    /// that error like a range violation); `Err`: a value with its own
    /// explanation, such as an unknown algorithm.
    set: fn(&mut Scenario, &TomlValue) -> Result<bool, String>,
    /// The report echo where it is not simply what `get` reads: a key
    /// that only some `kind` uses, or one echoed as its effective value.
    /// Returning `None` leaves the key out of the report.
    echo: Option<fn(&Scenario) -> Option<Json>>,
    /// How a `[sweep]` value maps onto the key, for the keys it may vary.
    sweep: Option<fn(&mut Scenario, usize)>,
    /// A spelling that was removed with the mode it selected, and the
    /// error that says what to write instead.
    removed: Option<(&'static str, &'static str)>,
}

impl Key {
    const fn new(
        (section, name): (&'static str, &'static str),
        ty: Type,
        doc: &'static str,
        get: fn(&Scenario) -> Json,
        set: fn(&mut Scenario, &TomlValue) -> Result<bool, String>,
    ) -> Key {
        Key {
            section,
            name,
            ty,
            doc,
            get,
            set,
            echo: None,
            sweep: None,
            removed: None,
        }
    }

    const fn echo(mut self, echo: fn(&Scenario) -> Option<Json>) -> Key {
        self.echo = Some(echo);
        self
    }

    const fn sweep(mut self, apply: fn(&mut Scenario, usize)) -> Key {
        self.sweep = Some(apply);
        self
    }

    const fn removed(mut self, spelling: &'static str, error: &'static str) -> Key {
        self.removed = Some((spelling, error));
        self
    }

    fn check(&self, admitted: bool) -> Result<(), String> {
        if admitted {
            return Ok(());
        }
        let at = loc(self.section, self.name);
        Err(format!("{at}: expected {}", self.ty.describe()))
    }
}

/// The row of a key that is the typed field of the same name:
/// `key!(data.samples: ty, doc)` is key `samples` of section `data`, read
/// from and stored into `scenario.data.samples`. `key!(sweep?.vary: ..)`
/// is the same over a section the scenario holds as an `Option`, which
/// the first of its keys to be set creates from the section's default.
macro_rules! key {
    ($section:ident.$name:ident: $ty:expr, $doc:expr) => {
        key!(stringify!($section), $name, $ty, $doc, $section.$name)
    };
    ($name:ident: $ty:expr, $doc:expr) => {
        key!("", $name, $ty, $doc, $name)
    };
    ($section:ident?.$name:ident: $ty:expr, $doc:expr) => {
        Key::new(
            (stringify!($section), stringify!($name)),
            $ty,
            $doc,
            |s| s.$section.as_ref().map(|section| section.$name.clone()).into(),
            |s, v| put(&mut s.$section.get_or_insert_with(Default::default).$name, v),
        )
    };
    ($section:expr, $name:ident, $ty:expr, $doc:expr, $($field:tt)+) => {
        Key::new(
            ($section, stringify!($name)),
            $ty,
            $doc,
            |s| s.$($field)+.clone().into(),
            |s, v| put(&mut s.$($field)+, v),
        )
    };
}

/// The `set` of a row over a typed field.
fn put<T: Load>(field: &mut T, v: &TomlValue) -> Result<bool, String> {
    Ok(T::load(v).map(|value| *field = value).is_some())
}

fn loc(section: &str, key: &str) -> String {
    let at = format!("{section}.{key}");
    at.trim_start_matches('.').to_string()
}

/// The keys `[sweep]` may vary, named without their section.
fn sweep_axes() -> Vec<&'static str> {
    let sweepable = SCHEMA.iter().filter(|k| k.sweep.is_some());
    sweepable.map(|k| k.name).collect()
}

/// `algorithms = [..]`, and `algorithm = ".."` as its one-element form.
fn set_algorithms(s: &mut Scenario, v: &TomlValue) -> Result<bool, String> {
    let mut algorithms = Vec::new();
    for name in v.as_array().unwrap_or(std::slice::from_ref(v)) {
        match name.as_str() {
            Some(name) => algorithms.push(parse_algo(name)?),
            None => return Ok(false),
        }
    }
    // An empty list keeps the default algorithm.
    if !algorithms.is_empty() {
        s.algorithms = algorithms;
    }
    Ok(true)
}

/// Every scenario key, once. Row order is echo order and the order of the
/// key reference; sections are contiguous, the root table first.
static SCHEMA: &[Key] = &[
    key!(name: TEXT, "Label of the run, echoed in every report."),
    key!(seed: Int(0, INT_MAX), "Seeds data, dealer streams and retry jitter: same seed, same run"),
    key!(parties: Int(2, INT_MAX), "Number of clients m; party 0 holds the labels.")
        .sweep(|s, v| s.parties = v),
    Key::new(
        ("", "algorithm"),
        Syntax("an algorithm name"),
        "pivot-basic (the default), pivot-basic-pp, pivot-enhanced, pivot-enhanced-pp, spdz-dt \
         or npd-dt.",
        |_| Json::Null,
        |s, v| Ok(v.as_str().is_some() && set_algorithms(s, v)?),
    ),
    Key::new(
        ("", "algorithms"),
        Syntax("an array of algorithm names"),
        "In place of `algorithm`: the algorithms `bench` runs at every sweep point.",
        |s| s.algorithms.iter().map(Algo::label).collect::<Vec<_>>().into(),
        |s, v| Ok(v.as_array().is_some() && set_algorithms(s, v)?),
    ),
    key!(data.kind: OneOf(|| spellings(DATA_KINDS)),
        "A generator, a stand-in shaped like one of the paper's Table 3 datasets, or a file."),
    key!(data.test_fraction: Num("a number in [0, 1)", |x| (0.0..1.0).contains(&x)),
        "Share of the samples held out for evaluation."),
    key!(data.path: TEXT, "csv: the file (label in the last column), relative to the scenario.")
        .echo(|s| (s.data.kind == DataKind::Csv).then(|| s.data.path.clone().into())),
    key!(data.task: OneOf(|| vec!["classification", "regression"]),
        "csv: what the label column is (default classification, with `classes`).")
        .echo(|s| (s.data.kind == DataKind::Csv).then(|| s.data.task.clone().into())),
    key!(data.samples: Int(10, INT_MAX), "Generated samples n, before the train/test split.")
        .echo(|s| (s.data.kind != DataKind::Csv).then(|| s.data.samples.into()))
        .sweep(|s, v| s.data.samples = v),
    key!(data.features_per_party: Int(1, INT_MAX),
        "Features per client d̄ of the synthetic-* generators (the stand-ins fix their width).")
        .echo(|s| (s.data.kind != DataKind::Csv).then(|| s.data.features_per_party.into()))
        .sweep(|s, v| s.data.features_per_party = v),
    key!(data.classes: Int(2, INT_MAX),
        "Classes c of synthetic-classification (at most 2^informative) and of a csv task.")
        .echo(|s| s.is_synthetic_classification().then(|| s.data.classes.into())),
    key!(data.class_sep: ANY_NUMBER, "synthetic-classification: distance between class centroids.")
        .echo(|s| s.is_synthetic_classification().then(|| s.data.class_sep.into())),
    key!(data.flip_y: ANY_NUMBER, "synthetic-classification: share of labels reassigned at random.")
        .echo(|s| s.is_synthetic_classification().then(|| s.data.flip_y.into())),
    key!(data.noise: ANY_NUMBER, "synthetic-regression: standard deviation of the label noise.")
        .echo(|s| (s.data.kind == DataKind::SyntheticRegression).then(|| s.data.noise.into())),
    // Echoed as the *effective* value so reports are self-contained.
    key!(data.informative: Int(1, INT_MAX),
        "synthetic-*: features carrying signal (default and echo: half of all, rounded up).")
        .echo(|s| s.is_synthetic().then(|| s.effective_informative().into())),
    key!(params.max_depth: Int(1, INT_MAX), "Maximum tree depth h.")
        .sweep(|s, v| s.params.max_depth = v),
    key!(params.max_splits: Int(1, INT_MAX), "Candidate split thresholds per feature b.")
        .sweep(|s, v| s.params.max_splits = v),
    key!(params.min_samples: Int(0, INT_MAX), "A node with fewer samples becomes a leaf."),
    key!(params.keysize: Int(0, u32::MAX as u64),
        "Paillier modulus bits (the paper: 1024); at least 128, enhanced algorithms run >= 192."),
    key!(params.crypto_threads: Int(0, INT_MAX),
        "`-pp` algorithms: worker threads of the batched crypto runtime (the others use 1)."),
    // Retired with the nonce pool's background fill; still range-checked
    // so that scenario files written when it sized something keep loading.
    Key::new(
        ("params", "randomness_pool"),
        Int(0, INT_MAX),
        "No effect (a nonce power is computed when it is drawn); the key can be deleted.",
        |_| Json::Null,
        |_, _| Ok(true),
    ),
    key!(params.packing: Syntax("\"off\", \"auto\" or a slot count >= 2"),
        "Ciphertext packing of split statistics; as a sweep axis 0 is off, 1 auto, n n slots. A \
            count beyond the audited capacity (gbdt: that of share sums) is rejected.")
        // The off-vs-auto A/B the packing baseline records.
        .sweep(|s, v| {
            s.params.packing = match v {
                0 => Packing::Off,
                1 => Packing::Auto,
                n => Packing::Slots(n),
            }
        }),
    // Accepted with its one remaining value so scenario files written
    // when it was a dial keep loading; reports echo it.
    Key::new(
        ("params", "comparison_bits"),
        Syntax("\"auto\" (the width dial was removed)"),
        "Every secure comparison runs at its call site's proven width; the key can be deleted.",
        |_| "auto".into(),
        |_, v| Ok(v.as_str() == Some("auto")),
    ),
    // Retired with the dealer's precompute service; still range-checked
    // so that scenario files written when it sized something keep loading.
    Key::new(
        ("params", "dealer_pool"),
        Int(0, INT_MAX),
        "No effect (the dealer derives every row at the draw); the key can be deleted.",
        |_| Json::Null,
        |_, _| Ok(true),
    ),
    key!(params.trace: OneOf(|| spellings(TRACE_LEVELS)),
        "Phase timelines, and per-party phase tables in the report; `full` adds per-round and per-node spans."),
    // Accepted with its one remaining value so scenario files written
    // when there was a choice keep loading.
    Key::new(
        ("params", "scheduling"),
        OneOf(|| vec!["pipelined"]),
        "The one training schedule; the key can be deleted.",
        |_| "pipelined".into(),
        |_, _| Ok(true),
    )
    .removed("sequential", "params.scheduling: the \"sequential\" mode was removed — training \
        is always level-wise and pipelined; delete the key"),
    key!(params.verification: Syntax("\"off\", \"full\" or \"spot(p)\" with p in [0, 1]"),
        "Proofs on every commit of the basic protocol; `spot(p)` verifies a seeded p-fraction."),
    key!(model.kind: OneOf(|| spellings(MODEL_KINDS)),
        "What is trained on top of the protocol; the ensembles run the basic protocol (§7)."),
    key!(model.rounds: Int(1, INT_MAX), "gbdt: boosting rounds W.")
        .echo(|s| (s.model.kind == ModelKind::Gbdt).then(|| s.model.rounds.into())),
    key!(model.learning_rate: Num("a finite number", f64::is_finite),
        "gbdt: shrinkage applied to every round's tree.")
        .echo(|s| (s.model.kind == ModelKind::Gbdt).then(|| s.model.learning_rate.into())),
    key!(model.trees: Int(1, INT_MAX), "random-forest: trees W.")
        .echo(|s| (s.model.kind == ModelKind::RandomForest).then(|| s.model.trees.into())),
    key!(model.sample_fraction: ANY_NUMBER,
        "random-forest: bootstrap draws per tree, as a share of the training samples.")
        .echo(|s| {
            (s.model.kind == ModelKind::RandomForest).then(|| s.model.sample_fraction.into())
        }),
    // The network keys echo their *effective* settings (explicit keys
    // merged over the transport defaults) so reports are self-contained.
    key!(network.latency_us: Int(0, INT_MAX), "Simulated latency in µs, charged to every send.")
        .echo(|s| Some((s.net_config().latency.as_micros() as u64).into()))
        .sweep(|s, v| s.network.latency_us = Some(v as u64)),
    key!(network.bandwidth_mbps: Num("a finite number >= 0", |x| x >= 0.0 && x.is_finite()),
        "Simulated link bandwidth in Mbit/s; 0 means unlimited and is echoed as null.")
        .echo(|s| {
            let net = s.net_config();
            let limited = net.secs_per_byte() > 0.0;
            Some(limited.then_some(net.bandwidth_mbps).into())
        })
        .sweep(|s, v| s.network.bandwidth_mbps = Some(v as f64)),
    key!(network.recv_timeout_s: SECONDS,
        "Seconds a blocking receive waits before the peer counts as wedged (default 120); with a heartbeat, counted from the last frame heard.")
        .echo(|s| Some(s.net_config().recv_timeout.as_secs_f64().into())),
    key!(network.connect_timeout_s: SECONDS,
        "Dial budget: rendezvous retries, and redial backoff after a connection loss.")
        .echo(|s| Some(s.net_config().connect_timeout.as_secs_f64().into())),
    // Liveness knobs are echoed only when armed, so reports from
    // heartbeat-free runs keep their PR-9 shape.
    key!(network.heartbeat_s: SECONDS,
        "Heartbeat period per TCP link; a link silent for 3 periods is broken. Off when unset.")
        .echo(|s| s.net_config().heartbeat.map(|d| d.as_secs_f64().into())),
    key!(network.rejoin_deadline_s: SECONDS,
        "How long survivors wait for a lost peer to rejoin before `PeerLost`. Off when unset.")
        .echo(|s| s.net_config().rejoin_deadline.map(|d| d.as_secs_f64().into())),
    key!(checkpoint?.every_levels: Int(1, INT_MAX),
        "Write a checkpoint at every N-th level/tree barrier (default 1)."),
    key!(checkpoint?.dir: NonEmpty("a non-empty string"),
        "Required: where checkpoints are written and resumed from, relative to the scenario."),
    key!(faults.plan: Syntax("an array of fault entries"),
        "`drop_link a-b`, `delay_spike a-b ms=M`, `crash_party p` (each `at_round=N` or \
         `at_bytes=N`) or `kill_party p at_level=L restart_after_ms=M`.")
        .echo(|s| (!s.faults.plan.is_empty()).then(|| s.faults.plan.clone().into())),
    // Retired when the plan stopped seeding backoff jitter (the scenario
    // `seed` does); still range-checked so chaos scenarios keep loading.
    Key::new(
        ("faults", "seed"),
        Int(0, INT_MAX),
        "No effect (the scenario `seed` seeds retry jitter); the key can be deleted.",
        |_| Json::Null,
        |_, _| Ok(true),
    ),
    key!(adversary.tamper: Syntax("`party <id> phase=<name> index=<k>`"),
        "That party corrupts the k-th ciphertext its phase commits; needs `verification` on."),
    key!(sweep?.vary: OneOf(sweep_axes),
        "The key `bench` varies, named without its section; needs `values`.")
        .removed("comparison_bits", "sweep.vary = \"comparison_bits\" was removed with the \
            comparison width dial it varied"),
    key!(sweep?.values: NonEmpty("a non-empty array of non-negative integers"),
        "The values it takes, one sweep point each; needs `vary`."),
];

impl Scenario {
    /// Load a scenario from a `.toml` or `.json` file.
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let is_json = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"));
        let doc = if is_json {
            TomlDoc::from_json(&Json::parse(&text)?)?
        } else {
            TomlDoc::parse(&text)?
        };
        let mut scenario = Scenario::from_doc(&doc)?;
        // Relative paths resolve against the scenario's directory: every
        // party of the run must resolve `data.path` and `checkpoint.dir`
        // identically regardless of its own working directory.
        let resolve = |file: &mut String| {
            if let (true, Some(dir)) = (Path::new(file).is_relative(), path.parent()) {
                *file = dir.join(&file).to_string_lossy().into_owned();
            }
        };
        scenario.data.path.iter_mut().for_each(resolve);
        scenario
            .checkpoint
            .iter_mut()
            .for_each(|c| resolve(&mut c.dir));
        Ok(scenario)
    }

    fn from_doc(doc: &TomlDoc) -> Result<Scenario, String> {
        // Reject unknown sections/keys before reading anything.
        for section in std::iter::once("").chain(doc.section_names()) {
            let rows = SCHEMA.iter().filter(|k| k.section == section);
            let known: Vec<&str> = rows.map(|k| k.name).collect();
            if known.is_empty() {
                let mut sections: Vec<&str> = SCHEMA.iter().map(|k| k.section).collect();
                sections.dedup();
                return Err(format!(
                    "unknown section [{section}] (expected one of: {})",
                    sections[1..].join(", ")
                ));
            }
            let keys = doc.section_keys(section);
            if let Some(k) = keys.iter().find(|k| !known.contains(k)) {
                return Err(format!(
                    "unknown key {} (known keys: {})",
                    loc(section, k),
                    known.join(", ")
                ));
            }
        }
        // The structural rules no single row can state.
        if doc.get("", "algorithm").is_some() && doc.get("", "algorithms").is_some() {
            return Err("give either `algorithm` or `algorithms`, not both".into());
        }
        if doc.has_section("checkpoint") && doc.get("checkpoint", "dir").is_none() {
            return Err(
                "checkpoint.dir is required (the directory checkpoint files \
                 are written to and resumed from)"
                    .into(),
            );
        }
        match (doc.get("sweep", "vary"), doc.get("sweep", "values")) {
            (Some(_), None) => return Err("sweep.vary given without sweep.values".into()),
            (None, Some(_)) => return Err("sweep.values given without sweep.vary".into()),
            _ => {}
        }

        let mut scenario = Scenario::default();
        for key in SCHEMA {
            let Some(v) = doc.get(key.section, key.name) else {
                continue;
            };
            if let Some((_, error)) = key.removed.filter(|(old, _)| v.as_str() == Some(old)) {
                return Err(error.to_string());
            }
            let admitted = key.ty.admits(v) && (key.set)(&mut scenario, v)?;
            key.check(admitted)?;
        }
        scenario.validate()?;
        Ok(scenario)
    }

    /// Range and cross-field checks. Public because sweep points built by
    /// [`Scenario::with_axis`] never pass through the reader and must be
    /// re-validated before execution (a sweep value like `parties = 0` is
    /// only detectable per point): the rows' range checks run again on the
    /// typed values, then the rules that span keys.
    pub fn validate(&self) -> Result<(), String> {
        for key in SCHEMA {
            if let Some(v) = TomlValue::from_json(&(key.get)(self)) {
                key.check(key.ty.admits(&v))?;
            }
        }
        if self.data.kind == DataKind::Csv && self.data.path.is_none() {
            return Err("data.kind = \"csv\" requires data.path".into());
        }
        if let Some(informative) = self.data.informative {
            if !self.is_synthetic() {
                return Err("data.informative only applies to the synthetic-* generators".into());
            }
            let total_features = self.total_features();
            if informative > total_features {
                return Err(format!(
                    "data.informative must be in 1..={total_features} \
                     (parties x features_per_party)"
                ));
            }
        }
        if self.is_synthetic_classification() {
            // One class per vertex of the informative hypercube.
            let informative = self.effective_informative();
            if self.data.classes > 1 << informative.min(20) {
                return Err(format!(
                    "data.classes must be at most 2^min(informative, 20) = {} (the \
                     generator puts one class on each hypercube vertex of the \
                     {informative} informative features)",
                    1usize << informative.min(20)
                ));
            }
        }
        // The ensembles and the proof plane exist for the basic protocol only.
        let basic = |algo: &&Algo| matches!(algo, Algo::PivotBasic | Algo::PivotBasicPp);
        let other = self.algorithms.iter().find(|algo| !basic(algo));
        if let (true, Some(algo)) = (self.model.kind != ModelKind::DecisionTree, other) {
            return Err(format!(
                "model.kind = \"{}\" trains via the basic protocol (§7's \
                 plaintext-ensemble setting) and does not support baseline or \
                 enhanced algorithm {}",
                spelling(MODEL_KINDS, &self.model.kind),
                algo.label()
            ));
        }
        if self.params.verification.is_on() {
            if let Some(algo) = other {
                return Err(format!(
                    "params.verification covers the basic protocol's commit \
                     points (§4 + Algorithm 4); algorithm {} carries no proofs \
                     — run pivot-basic or pivot-basic-pp, or set \
                     verification = \"off\"",
                    algo.label()
                ));
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
        pivot_transport::FaultPlan::parse(&self.faults.plan)
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

    /// The single algorithm of a train or party scenario.
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

    /// What the trees' label vectors are built from, for the packing audit:
    /// GBDT trains every tree on encrypted residuals, everything else on
    /// the super client's labels for `task`.
    pub fn label_source(&self, task: Task) -> LabelSource {
        match self.model.kind {
            ModelKind::Gbdt => LabelSource::ShareSums,
            _ => LabelSource::of_task(task),
        }
    }

    fn effective_classes(&self) -> usize {
        match self.data.kind {
            // The named Table 3 stand-ins are binary tasks.
            DataKind::CreditCardLike | DataKind::BankMarketLike => 2,
            _ => self.data.classes,
        }
    }

    fn is_synthetic_classification(&self) -> bool {
        self.data.kind == DataKind::SyntheticClassification
    }

    /// Whether `data.kind` is one of the two `synthetic-*` generators.
    fn is_synthetic(&self) -> bool {
        self.is_synthetic_classification() || self.data.kind == DataKind::SyntheticRegression
    }

    /// Width of the generated dataset (saturating: an absurd product is
    /// still absurd, and must not wrap into a plausible one).
    fn total_features(&self) -> usize {
        self.parties.saturating_mul(self.data.features_per_party)
    }

    fn effective_informative(&self) -> usize {
        let default = self.total_features().div_ceil(2);
        self.data.informative.unwrap_or(default)
    }

    /// Build (or load) the dataset this scenario describes.
    pub fn build_dataset(&self) -> Result<Dataset, String> {
        let features = self.total_features();
        let informative = self.effective_informative();
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
        // Checkpointed runs keep every frame ringed (no ack pruning, no
        // caps), so a restarted party can be replayed its peers' whole
        // streams from seq 1.
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
            packing: self.params.packing,
            dealer_seed: self.seed,
            trace: self.params.trace,
            verification: self.params.verification,
            // The scenario is validated before execution, so a malformed
            // tamper spec never reaches this unwrap.
            adversary: self.adversary_spec().expect("validated adversary spec"),
            ..Default::default()
        };
        algo_params(algo, base)
    }

    /// Echo of the effective configuration, embedded in every report so
    /// runs stay interpretable months later: every row that echoes, in
    /// table order, grouped under its section.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        for rows in SCHEMA.chunk_by(|a, b| a.section == b.section) {
            let mut echo = Json::obj();
            for key in rows {
                let value = match key.echo {
                    Some(echo) => echo(self),
                    None => Some((key.get)(self)).filter(|v| *v != Json::Null),
                };
                if let Some(value) = value {
                    echo.set(key.name, value);
                }
            }
            let section = rows[0].section;
            if section.is_empty() {
                root = echo;
            } else if !echo.keys().is_empty() {
                root.set(section, echo);
            }
        }
        root
    }

    /// Clone with one sweep axis set to `value` (the sweep itself is
    /// removed from the clone).
    pub fn with_axis(&self, axis: &str, value: usize) -> Scenario {
        let mut s = self.clone();
        s.sweep = None;
        let apply = SCHEMA
            .iter()
            .filter(|k| k.name == axis)
            .find_map(|k| k.sweep)
            .unwrap_or_else(|| panic!("unvalidated sweep axis {axis:?}"));
        apply(&mut s, value);
        s
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use pivot_core::config::Protocol;

    fn parse_toml(text: &str) -> Result<Scenario, String> {
        Scenario::from_doc(&TomlDoc::parse(text).unwrap())
    }

    fn parse_json(text: &str) -> Result<Scenario, String> {
        Scenario::from_doc(&TomlDoc::from_json(&Json::parse(text).unwrap())?)
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
    fn only_pp_variants_get_threads() {
        let s = parse_toml("[params]\ncrypto_threads = 4").unwrap();
        for algo in [Algo::PivotBasicPp, Algo::PivotEnhancedPp] {
            assert_eq!(s.pivot_params(algo).crypto_threads, 4, "{algo:?}");
        }
        // Every other algorithm runs the same batch API serially.
        for algo in [Algo::PivotBasic, Algo::PivotEnhanced, Algo::SpdzDt] {
            assert_eq!(s.pivot_params(algo).crypto_threads, 1, "{algo:?}");
        }
    }

    #[test]
    fn crypto_threads_and_deprecated_alias() {
        let s = parse_toml("[params]\ncrypto_threads = 4").unwrap();
        assert_eq!(s.params.crypto_threads, 4);
        assert_eq!(s.pivot_params(Algo::PivotBasicPp).crypto_threads, 4);
        // The PR-2 alias is gone: it is an unknown key like any other.
        let err = parse_toml("[params]\ndecrypt_threads = 8").unwrap_err();
        assert!(err.contains("decrypt_threads"), "{err}");
        // Echo carries the generalized keys.
        let echo = s.to_json();
        assert_eq!(
            echo.path("params.crypto_threads").unwrap().as_u64(),
            Some(4)
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
            let err = parse_json(json_text).unwrap_err();
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
    fn retired_keys_are_accepted_and_ignored() {
        let plain = format!("{:?}", parse_toml("").unwrap());
        // The comparison width dial keeps its one value, which reports
        // echo (spelled out or not); a floor or the old "full" mode names
        // the removal, as does the sweep axis that varied it.
        let at = loc("params", "comparison_bits");
        for text in ["", "[params]\ncomparison_bits = \"auto\""] {
            let s = parse_toml(text).unwrap();
            assert_eq!(format!("{s:?}"), plain, "{text:?} stored something");
            assert_eq!(s.to_json().path(&at).unwrap().as_str(), Some("auto"));
        }
        for bad in ["24", "45", "\"full\""] {
            let err = parse_toml(&format!("[params]\ncomparison_bits = {bad}")).unwrap_err();
            assert!(err.starts_with(&at), "{err}");
            assert!(err.contains("was removed"), "{err}");
        }
        let err = parse_toml("[sweep]\nvary = \"comparison_bits\"\nvalues = [0, 1]").unwrap_err();
        assert!(err.contains("was removed"), "{err}");
        for (section, key) in [
            ("params", "dealer_pool"),
            ("params", "randomness_pool"),
            ("faults", "seed"),
        ] {
            for size in [0u64, 1024, 1 << 40] {
                let s = parse_toml(&format!("[{section}]\n{key} = {size}")).unwrap();
                assert_eq!(format!("{s:?}"), plain, "{key} = {size} stored something");
                assert!(s.to_json().path(&format!("{section}.{key}")).is_none());
            }
            for bad in ["\"512\"", "-1", "0.5"] {
                let err = parse_toml(&format!("[{section}]\n{key} = {bad}")).unwrap_err();
                assert!(err.contains(&format!("{section}.{key}")), "{err}");
            }
        }
    }

    #[test]
    fn trace_levels_parse_and_echo() {
        let d = parse_toml("[data]\nkind = \"synthetic-classification\"").unwrap();
        assert_eq!(d.params.trace, TraceLevel::Off);
        for (text, level) in [
            ("off", TraceLevel::Off),
            ("phases", TraceLevel::Phases),
            ("full", TraceLevel::Full),
        ] {
            let s = parse_toml(&format!("[params]\ntrace = \"{text}\"")).unwrap();
            assert_eq!(s.params.trace, level);
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
        let echo = s.to_json();
        assert!(echo.path("faults.plan").is_some());
        // The retired seed loads but is not echoed.
        assert!(echo.path("faults.seed").is_none());
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
        let s = parse_json(
            r#"{
                "name": "from json",
                "parties": 2,
                "algorithm": "pivot-basic",
                "data": {"kind": "synthetic-classification", "samples": 40},
                "params": {"max_depth": 2}
            }"#,
        )
        .unwrap();
        assert_eq!(s.name, "from json");
        assert_eq!(s.parties, 2);
        assert_eq!(s.data.samples, 40);
        assert_eq!(s.params.max_depth, 2);
    }

    #[test]
    fn verification_knob_parses_and_applies() {
        // Default off: the honest-but-curious transcript is untouched.
        let s = parse_toml("[data]\nkind = \"synthetic-classification\"").unwrap();
        assert_eq!(s.params.verification, Verification::Off);
        assert_eq!(
            s.pivot_params(Algo::PivotBasic).verification,
            pivot_core::Verification::Off
        );
        let s = parse_toml("[params]\nverification = \"full\"").unwrap();
        assert_eq!(s.params.verification, Verification::Full);
        assert_eq!(
            s.pivot_params(Algo::PivotBasic).verification,
            pivot_core::Verification::Full
        );
        assert_eq!(
            s.to_json().path("params.verification").unwrap().as_str(),
            Some("full")
        );
        let s = parse_toml("[params]\nverification = \"spot(0.25)\"").unwrap();
        assert_eq!(s.params.verification, Verification::Spot(0.25));
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
        // Neither do multi-slot statistics: an explicit slot count is
        // rejected, while auto packing (spelled out or not) validates and
        // trains on the one-slot layout.
        let err = parse_toml("[params]\nverification = \"full\"\npacking = 4").unwrap_err();
        assert!(err.contains("packing"), "{err}");
        for text in [
            "[params]\nverification = \"full\"",
            "[params]\nverification = \"full\"\npacking = \"auto\"",
        ] {
            let p = parse_toml(text).unwrap().pivot_params(Algo::PivotBasic);
            p.assert_valid_for(60, 3, LabelSource::ClassIndicators);
            assert_eq!(p.slot_plan(3, 60, LabelSource::ClassIndicators).slots, 1);
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

    /// One scenario that sets every section, against the echo the parent
    /// of the schema table printed for it: row order is echo order, and
    /// the conditional keys (`samples` but no `path`, `trees` but no
    /// `rounds`, the armed heartbeat) come and go as they did. The echo
    /// feeds `checkpoint::scenario_fingerprint`, so a drift here strands
    /// every checkpoint written before it.
    #[test]
    fn echo_is_pinned() {
        let s = parse_toml(EVERY_SECTION).unwrap();
        assert_eq!(s.to_json().to_pretty(), EVERY_SECTION_ECHO);
    }

    const EVERY_SECTION: &str = r#"name = "every section"
seed = 4242
parties = 3
algorithms = ["pivot-basic", "pivot-basic-pp"]

[data]
kind = "synthetic-classification"
samples = 48
features_per_party = 2
classes = 3
class_sep = 1.25
flip_y = 0.02
informative = 4
test_fraction = 0.25

[params]
max_depth = 3
max_splits = 5
min_samples = 3
keysize = 192
crypto_threads = 2
randomness_pool = 32
packing = "off"
comparison_bits = "auto"
dealer_pool = 16
trace = "phases"
scheduling = "pipelined"
verification = "spot(0.5)"

[model]
kind = "random-forest"
trees = 3
sample_fraction = 0.8

[network]
latency_us = 150
bandwidth_mbps = 250.5
recv_timeout_s = 30
connect_timeout_s = 7.5
heartbeat_s = 0.3
rejoin_deadline_s = 45

[checkpoint]
every_levels = 2
dir = "/tmp/pivot-echo-pin"

[faults]
plan = ["drop_link 0-1 at_round=4", "delay_spike 0-2 at_bytes=4096 ms=25"]
seed = 99

[adversary]
tamper = "party 1 phase=stats index=2"

[sweep]
vary = "max_depth"
values = [2, 3]
"#;

    const EVERY_SECTION_ECHO: &str = r#"{
  "name": "every section",
  "seed": 4242,
  "parties": 3,
  "algorithms": [
    "Pivot-Basic",
    "Pivot-Basic-PP"
  ],
  "data": {
    "kind": "synthetic-classification",
    "test_fraction": 0.25,
    "samples": 48,
    "features_per_party": 2,
    "classes": 3,
    "class_sep": 1.25,
    "flip_y": 0.02,
    "informative": 4
  },
  "params": {
    "max_depth": 3,
    "max_splits": 5,
    "min_samples": 3,
    "keysize": 192,
    "crypto_threads": 2,
    "packing": "off",
    "comparison_bits": "auto",
    "trace": "phases",
    "scheduling": "pipelined",
    "verification": "spot(0.5)"
  },
  "model": {
    "kind": "random-forest",
    "trees": 3,
    "sample_fraction": 0.8
  },
  "network": {
    "latency_us": 150,
    "bandwidth_mbps": 250.5,
    "recv_timeout_s": 30,
    "connect_timeout_s": 7.5,
    "heartbeat_s": 0.3,
    "rejoin_deadline_s": 45
  },
  "checkpoint": {
    "every_levels": 2,
    "dir": "/tmp/pivot-echo-pin"
  },
  "faults": {
    "plan": [
      "drop_link 0-1 at_round=4",
      "delay_spike 0-2 at_bytes=4096 ms=25"
    ]
  },
  "adversary": {
    "tamper": "party 1 phase=stats index=2"
  },
  "sweep": {
    "vary": "max_depth",
    "values": [
      2,
      3
    ]
  }
}
"#;

    #[test]
    fn range_holes_are_closed_at_load() {
        // Each of these used to load and then panic (or train another
        // configuration) further down; the error names the key.
        for (text, key) in [
            ("[data]\nclasses = 1", "data.classes"),
            (
                "[model]\nkind = \"random-forest\"\ntrees = 0",
                "model.trees",
            ),
            ("[model]\nkind = \"gbdt\"\nrounds = 0", "model.rounds"),
            (
                "[model]\nkind = \"gbdt\"\nlearning_rate = nan",
                "model.learning_rate",
            ),
            ("[params]\nkeysize = 4294967552", "params.keysize"),
            (
                "parties = 2\n[data]\nfeatures_per_party = 1\nclasses = 4",
                "data.classes",
            ),
            ("[data]\nclasses = 4\ninformative = 1", "data.classes"),
            ("[data]\nsamples = 40.5", "data.samples"),
        ] {
            let err = parse_toml(text).unwrap_err();
            assert!(err.starts_with(key), "{text:?}: {err}");
        }
        // An integer key takes the field's whole range, and no more.
        let s = parse_toml("[params]\nkeysize = 4294967295").unwrap();
        assert_eq!(s.params.keysize, u32::MAX);
        // A width no machine holds is a (saturated) width, not an overflow
        // (debug builds panicked on the product, release builds wrapped it).
        exercise(
            &parse_toml(
                "parties = 9007199254740991\n[data]\nfeatures_per_party = 9007199254740991",
            )
            .unwrap(),
        );
        // Values that merely train a useless model stay admissible.
        parse_toml("[data]\nclass_sep = inf\nflip_y = nan").unwrap();
        // The wording of the seconds range is the transport's limit.
        assert_eq!(format!("{MAX_RECV_TIMEOUT_SECS:e}"), "1e9");
        assert!(SECONDS.describe().ends_with("1e9]"));
    }

    #[test]
    fn json_and_toml_read_through_the_same_rows() {
        // An echo is itself a scenario: read back as JSON, through the
        // same rows, it echoes the same bytes.
        let json = parse_json(EVERY_SECTION_ECHO).unwrap();
        assert_eq!(json.to_json().to_pretty(), EVERY_SECTION_ECHO);
        // JSON spells whole numbers either way; a fraction is not an
        // integer in either format, and null is no value at all.
        assert_eq!(parse_json(r#"{"parties": 4.0}"#).unwrap().parties, 4);
        let err = parse_json(r#"{"parties": 2.5}"#).unwrap_err();
        assert!(err.starts_with("parties: expected an integer"), "{err}");
        let err = parse_json(r#"{"data": {"samples": null}}"#).unwrap_err();
        assert!(err.contains("samples"), "{err}");
        let err = parse_json(r#"{"paramz": {"max_depth": 2}}"#).unwrap_err();
        assert!(err.contains("unknown section [paramz]"), "{err}");
    }

    /// `value` on one line, as TOML and JSON both spell it.
    fn compact(value: &Json) -> String {
        match value {
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(compact).collect();
                format!("[{}]", items.join(", "))
            }
            scalar => scalar.to_pretty().trim().to_string(),
        }
    }

    /// The key reference README.md carries between its `scenario-keys`
    /// markers: the rows, rendered.
    fn key_reference() -> String {
        let defaults = Scenario::default();
        let mut out = String::from(
            "| section | key | type and range | default | sweep | meaning |\n|---|---|---|---|---|---|\n",
        );
        for key in SCHEMA {
            let default = Some((key.get)(&defaults))
                .filter(|v| *v != Json::Null)
                .or_else(|| key.echo.and_then(|echo| echo(&defaults)))
                .map_or("—".to_string(), |v| format!("`{}`", compact(&v)));
            assert!(
                !key.doc.contains('|') && !key.doc.contains('\n'),
                "{}",
                key.name
            );
            out.push_str(&format!(
                "| {} | `{}` | {} | {default} | {} | {} |\n",
                if key.section.is_empty() {
                    "(root)"
                } else {
                    key.section
                },
                key.name,
                key.ty.describe(),
                if key.sweep.is_some() { "yes" } else { "" },
                key.doc,
            ));
        }
        out
    }

    #[test]
    fn readme_key_reference_matches_schema() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).unwrap();
        let expected = format!(
            "<!-- scenario-keys:begin -->\n{}<!-- scenario-keys:end -->",
            key_reference()
        );
        assert!(
            readme.contains(&expected),
            "README.md is out of date with the scenario schema; replace the block between \
             its scenario-keys markers with:\n\n{expected}\n"
        );
    }

    #[test]
    fn every_key_is_one_row() {
        let mut seen = std::collections::BTreeSet::new();
        for key in SCHEMA {
            assert!(seen.insert((key.section, key.name)), "{} twice", key.name);
        }
        // Sections are contiguous (the echo groups by runs of rows), and
        // a sweep axis, named without its section, is unambiguous.
        let mut sections: Vec<&str> = SCHEMA.iter().map(|k| k.section).collect();
        sections.dedup();
        let distinct: std::collections::BTreeSet<_> = sections.iter().collect();
        assert_eq!(sections.len(), distinct.len());
        assert_eq!(sections[0], "");
        let axes = sweep_axes();
        let distinct: std::collections::BTreeSet<_> = axes.iter().collect();
        assert_eq!(axes.len(), distinct.len());
        // The reference states defaults: every spec default is admissible.
        Scenario::default().validate().unwrap();
    }

    /// Candidate values for the property test below, as `(TOML, JSON)`
    /// spellings: every shape a document can hold, tame and hostile.
    const MIXED: &[(&str, &str)] = &[
        ("\"\"", "\"\""),
        ("\"auto\"", "\"auto\""),
        ("\"off\"", "\"off\""),
        ("\"full\"", "\"full\""),
        ("\"spot(0.5)\"", "\"spot(0.5)\""),
        ("\"spot(7)\"", "\"spot(7)\""),
        ("\"pivot-basic-pp\"", "\"pivot-basic-pp\""),
        ("\"regression\"", "\"regression\""),
        ("\"no such thing\"", "\"no such thing\""),
        (
            "\"party 1 phase=stats index=2\"",
            "\"party 1 phase=stats index=2\"",
        ),
        ("\"party 9 phase=setup\"", "\"party 9 phase=setup\""),
        (
            "\"/tmp/pivot-scenario-proptest\"",
            "\"/tmp/pivot-scenario-proptest\"",
        ),
        ("true", "true"),
        ("[]", "[]"),
        (
            "[\"npd-dt\", \"pivot-enhanced\"]",
            "[\"npd-dt\", \"pivot-enhanced\"]",
        ),
        (
            "[\"crash_party 1 at_round=3\"]",
            "[\"crash_party 1 at_round=3\"]",
        ),
        (
            "[\"kill_party 7 at_level=1 restart_after_ms=5\"]",
            "[\"kill_party 7 at_level=1 restart_after_ms=5\"]",
        ),
        ("[\"meteor_strike\"]", "[\"meteor_strike\"]"),
        ("[0, 1, 3, 1000000]", "[0, 1, 3, 1000000]"),
        ("[2, -1]", "[2, -1]"),
        ("[1.5]", "[[1]]"),
        ("7", "{\"nested\": 1}"),
    ];
    const INTEGERS: &[(&str, &str)] = &[
        ("0", "0"),
        ("1", "1"),
        ("2", "2.0"),
        ("3", "3"),
        ("12", "12"),
        ("40", "40"),
        ("150", "150"),
        ("256", "256"),
        ("100000", "1e5"),
        ("-1", "-1"),
        ("4294967296", "4294967296"),
        ("9007199254740991", "9007199254740991"),
        ("9007199254740992", "9007199254740992"),
        ("9223372036854775807", "9223372036854775807"),
        ("-9223372036854775808", "-1e19"),
    ];
    const NUMBERS: &[(&str, &str)] = &[
        ("0.0", "0.0"),
        ("0.25", "0.25"),
        ("0.999", "0.999"),
        ("1", "1"),
        ("1.5", "1.5"),
        ("60", "60"),
        ("-0.5", "-0.5"),
        ("1e-12", "1e-12"),
        ("1e30", "1e30"),
        ("-1e300", "-1e300"),
        ("nan", "null"),
        ("inf", "1e999"),
        ("-inf", "-1e999"),
    ];

    type Candidates = Vec<(String, String)>;

    /// Per row: the candidates the row reads (first its default, when it
    /// has one) and the candidates it rejects.
    fn candidates() -> &'static Vec<(Candidates, Candidates)> {
        static POOLS: std::sync::OnceLock<Vec<(Candidates, Candidates)>> =
            std::sync::OnceLock::new();
        POOLS.get_or_init(|| {
            let owned = |pool: &[(&str, &str)]| -> Candidates {
                let pairs = pool.iter().map(|(t, j)| (t.to_string(), j.to_string()));
                pairs.collect()
            };
            let rows = SCHEMA.iter().map(|key| {
                let default = compact(&(key.get)(&Scenario::default()));
                let mut typed = match key.ty {
                    Int(..) => owned(INTEGERS),
                    Num(..) => owned(NUMBERS),
                    OneOf(names) => {
                        let names = names().into_iter().map(|n| format!("{n:?}"));
                        names.map(|n| (n.clone(), n)).collect()
                    }
                    Syntax(_) | NonEmpty(_) => owned(&[MIXED, NUMBERS].concat()),
                };
                if default != "null" {
                    typed.insert(0, (default.clone(), default));
                }
                typed.into_iter().partition(|(t, _)| {
                    let doc = TomlDoc::parse(&format!("k = {t}")).unwrap();
                    let v = doc.get("", "k").unwrap();
                    key.ty.admits(v) && (key.set)(&mut Scenario::default(), v) == Ok(true)
                })
            });
            rows.collect()
        })
    }

    /// One generated document. Every row, in table order, is absent (most
    /// of the time, so that a fair share of documents load), set to its
    /// default or to a candidate the row reads, set to a candidate the
    /// row rejects, or set to a candidate of any shape at all.
    fn generated_documents(words: &[u64]) -> (String, String) {
        let all = [MIXED, INTEGERS, NUMBERS].concat();
        // Per section, in table order: its name, TOML lines, JSON members.
        let mut sections: Vec<(&str, Vec<String>, Vec<String>)> = Vec::new();
        for (row, key) in SCHEMA.iter().enumerate() {
            if sections.last().map(|s| s.0) != Some(key.section) {
                sections.push((key.section, Vec::new(), Vec::new()));
            }
            // The keys of these two sections need each other, so they
            // come and go together.
            let together = matches!(key.section, "checkpoint" | "sweep");
            let word = if together {
                words[sections.len()]
            } else {
                words[16 + row]
            } % 128;
            let pick = (words[16 + row] >> 8) as usize;
            let (admitted, rejected) = &candidates()[row];
            let (t, j) = match word {
                0..=7 => &admitted[0],
                8..=15 => &admitted[pick % admitted.len()],
                16..=17 if !rejected.is_empty() => &rejected[pick % rejected.len()],
                18 => &owned_pair(all[pick % all.len()]),
                _ => continue,
            };
            let (_, lines, members) = sections.last_mut().unwrap();
            lines.push(format!("{} = {t}\n", key.name));
            members.push(format!("{:?}: {j}", key.name));
        }
        let (mut toml, mut json) = (String::new(), Vec::new());
        for (at, (section, lines, members)) in sections.into_iter().enumerate() {
            if section.is_empty() {
                toml.extend(lines);
                json.extend(members);
            } else if !lines.is_empty() || words[at] % 64 == 0 {
                toml.push_str(&format!("[{section}]\n{}", lines.concat()));
                json.push(format!("{section:?}: {{{}}}", members.join(", ")));
            }
        }
        (toml, format!("{{{}}}", json.join(", ")))
    }

    fn owned_pair((t, j): (&str, &str)) -> (String, String) {
        (t.to_string(), j.to_string())
    }

    /// Everything a caller does with a loaded scenario before it spawns
    /// a party: none of it may panic, whatever the document said.
    fn exercise(s: &Scenario) {
        s.validate().unwrap();
        s.to_json().to_pretty();
        s.net_config();
        s.fault_plan().unwrap();
        s.adversary_spec().unwrap();
        let _ = s.sole_algorithm();
        let labels = s
            .task()
            .map_or(LabelSource::ClassIndicators, |task| s.label_source(task));
        for &algo in &s.algorithms {
            let _ = s
                .pivot_params(algo)
                .validate(s.data.samples, s.parties, labels);
        }
        for axis in sweep_axes() {
            for value in [0, 1, 2, 3, 100, usize::MAX] {
                let point = s.with_axis(axis, value);
                if point.validate().is_ok() {
                    point.to_json();
                    point.net_config();
                }
            }
        }
        // Datasets small enough to build in a test (size is a cost, not a
        // scenario-layer failure).
        if s.data.kind != DataKind::Csv && s.data.samples <= 200 && s.total_features() <= 64 {
            s.build_dataset().unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1500))]

        /// Documents assembled from the table load to `Ok` or `Err` in
        /// both formats, and what loads can be used.
        #[test]
        fn no_document_panics(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 64..65),
        ) {
            let (toml, json) = generated_documents(&words);
            let doc = TomlDoc::parse(&toml).expect("generated TOML is well-formed");
            if let Ok(s) = Scenario::from_doc(&doc) {
                exercise(&s);
            }
            let doc = Json::parse(&json).expect("generated JSON is well-formed");
            if let Ok(s) = TomlDoc::from_json(&doc).and_then(|doc| Scenario::from_doc(&doc)) {
                exercise(&s);
            }
        }
    }

    /// The generator above must reach past the reader: a property that
    /// only ever sees `Err` proves nothing about what runs after a load.
    #[test]
    fn generated_documents_load_often_enough() {
        let mut rng = proptest::test_runner::TestRng::deterministic("load rate");
        let loads = (0..400)
            .filter(|_| {
                let words: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
                let (toml, _) = generated_documents(&words);
                Scenario::from_doc(&TomlDoc::parse(&toml).unwrap()).is_ok()
            })
            .count();
        assert!(loads >= 60, "only {loads} of 400 generated documents load");
    }
}
