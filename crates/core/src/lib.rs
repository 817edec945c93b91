//! **Pivot**: privacy preserving vertical federated learning for tree-based
//! models (Wu et al., VLDB 2020) — the paper's primary contribution.
//!
//! The crate implements, over the substrates of this workspace
//! (`pivot-paillier` TPHE, `pivot-mpc` SPDZ-style sharing,
//! `pivot-transport` messaging):
//!
//! * the **basic protocol** (§4): classification and regression tree
//!   training (Algorithm 3) where only the final plaintext tree is
//!   revealed, plus distributed prediction (Algorithm 4);
//! * the **enhanced protocol** (§5): split thresholds and leaf labels stay
//!   encrypted/secret-shared — private split selection (Theorem 2),
//!   encrypted-mask updating (Eqn 10), and secret-shared prediction;
//! * **ensemble extensions** (§7): random forests and GBDT (with encrypted
//!   residual labels and secure softmax);
//! * **differentially private training** (§9.2, Algorithms 5–6);
//! * the two evaluation **baselines** (§8): `SPDZ-DT` (training entirely in
//!   MPC) and `NPD-DT` (non-private distributed training).
//!
//! Every protocol is SPMD: each client runs the same entry point on its own
//! thread with its own [`party::PartyContext`]; see the crate examples and
//! the `tests/` directory for end-to-end drivers.

pub mod baselines;
pub mod checkpoint;
pub mod config;
pub mod conversion;
pub mod decrypt;
pub mod dp;
pub mod ensemble;
pub mod gain;
pub mod masks;
pub mod metrics;
pub mod model;
pub mod party;
pub mod predict_basic;
pub mod predict_enhanced;
pub mod stats;
pub mod train_basic;
pub mod train_enhanced;
mod trainer;
pub mod verify;

pub use checkpoint::{BarrierMeta, CheckpointSink, StateCursors};
pub use config::{AdversarySpec, PivotParams, Protocol, Verification};
pub use metrics::{ProtocolMetrics, VerificationCounters};
pub use model::{ConcealedNode, ConcealedTree};
pub use party::PartyContext;
// Re-exported so report-layer consumers (CLI, bench) can name the
// comparison policy and its telemetry without a direct pivot-mpc edge.
pub use pivot_mpc::{CompareBits, ComparisonCounters};
pub use pivot_trace::TraceLevel;
