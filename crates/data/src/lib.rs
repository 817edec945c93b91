//! Datasets for the Pivot reproduction: dense numeric tables, CSV I/O,
//! synthetic generators shaped like the paper's evaluation data, vertical
//! partitioning across clients, candidate-split discretization, and metrics.
//!
//! The paper evaluates on three UCI datasets (credit card, bank marketing,
//! appliances energy) and on sklearn-generated synthetic data. The UCI
//! files are not redistributable here, so [`synth`] provides generators
//! that mimic `sklearn.datasets.make_classification` / `make_regression`
//! and presets with the exact shapes of the three real datasets. That
//! preserves Table 3's claim, which is about the *gap* between Pivot and
//! the non-private baselines on the same data, not the absolute accuracy.

mod csv;
mod dataset;
pub mod metrics;
mod partition;
mod splits;
pub mod synth;

pub use csv::{read_csv, write_csv};
pub use dataset::{Dataset, Task};
pub use partition::{partition_vertically, VerticalPartition, VerticalView};
pub use splits::{candidate_splits, SplitCandidates};
