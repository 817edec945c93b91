//! Protocol cost accounting backing Table 2: counts of ciphertext
//! operations (`Ce`), threshold decryptions (`Cd`) and stage timers.
//! Secure-computation (`Cs`) and comparison (`Cc`) counts live in
//! [`pivot_mpc::OpCounters`].

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The three stages of every training iteration (§4.1) plus prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    LocalComputation,
    MpcComputation,
    ModelUpdate,
    Prediction,
}

/// Per-party protocol metrics. Uses interior mutability so read-heavy
/// protocol code can record without threading `&mut` everywhere.
#[derive(Debug, Default)]
pub struct ProtocolMetrics {
    inner: RefCell<Inner>,
}

/// Verification-plane counters (`counters.verification` in reports): how
/// many Σ-protocol proofs this party generated, checked, spot-skipped and
/// rejected, the proof bytes it put on the wire, and the wall time spent
/// proving + verifying.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerificationCounters {
    pub proofs_generated: u64,
    pub proofs_verified: u64,
    pub proofs_skipped: u64,
    pub proofs_rejected: u64,
    /// Bytes of proof material this party broadcast.
    pub proof_bytes: u64,
    /// Wall time spent generating and verifying proofs.
    pub wall: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    encryptions: u64,
    ciphertext_ops: u64,
    threshold_decryptions: u64,
    stage_time: [Duration; 4],
    split_stat_ciphertexts: u64,
    packed_ciphertexts: u64,
    packed_values: u64,
    packed_slot_capacity: u64,
    stats_bytes_sent: u64,
    verification: VerificationCounters,
}

fn stage_slot(stage: Stage) -> usize {
    match stage {
        Stage::LocalComputation => 0,
        Stage::MpcComputation => 1,
        Stage::ModelUpdate => 2,
        Stage::Prediction => 3,
    }
}

impl ProtocolMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` fresh encryptions (`Ce`).
    pub fn add_encryptions(&self, n: u64) {
        self.inner.borrow_mut().encryptions += n;
    }

    /// Record `n` homomorphic ciphertext operations (`Ce`).
    pub fn add_ciphertext_ops(&self, n: u64) {
        self.inner.borrow_mut().ciphertext_ops += n;
    }

    /// Record `n` threshold decryptions (`Cd`).
    pub fn add_decryptions(&self, n: u64) {
        self.inner.borrow_mut().threshold_decryptions += n;
    }

    /// Record `n` pooled split-statistics ciphertexts for one node (the
    /// quantity ciphertext packing divides by the packing factor).
    pub fn add_split_stat_ciphertexts(&self, n: u64) {
        self.inner.borrow_mut().split_stat_ciphertexts += n;
    }

    /// Record a packed emission: `cts` ciphertexts of `capacity` slots
    /// each, carrying `values` plaintext values (occupancy = values /
    /// (cts·capacity)).
    pub fn add_packed(&self, cts: u64, values: u64, capacity: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.packed_ciphertexts += cts;
        inner.packed_values += values;
        inner.packed_slot_capacity += cts * capacity;
    }

    /// Record bytes this party sent inside the split-statistics pipeline
    /// (pooling + Algorithm-2 conversion) — the traffic packing compresses.
    pub fn add_stats_bytes(&self, n: u64) {
        self.inner.borrow_mut().stats_bytes_sent += n;
    }

    /// Record generated proofs and the bytes they cost on the wire.
    pub fn add_proofs_generated(&self, n: u64, bytes: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.verification.proofs_generated += n;
        inner.verification.proof_bytes += bytes;
    }

    /// Record the outcome of one verification pass: `verified` checked
    /// (of which `rejected` failed), `skipped` spot-skipped.
    pub fn add_proofs_checked(&self, verified: u64, skipped: u64, rejected: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.verification.proofs_verified += verified;
        inner.verification.proofs_skipped += skipped;
        inner.verification.proofs_rejected += rejected;
    }

    /// Add wall time spent in the verification plane.
    pub fn add_verification_time(&self, d: Duration) {
        self.inner.borrow_mut().verification.wall += d;
    }

    /// Snapshot of the verification-plane counters.
    pub fn verification(&self) -> VerificationCounters {
        self.inner.borrow().verification
    }

    /// Time a closure under a stage bucket.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.inner.borrow_mut().stage_time[stage_slot(stage)] += start.elapsed();
        out
    }

    /// Add externally measured time to a stage.
    pub fn add_time(&self, stage: Stage, d: Duration) {
        self.inner.borrow_mut().stage_time[stage_slot(stage)] += d;
    }

    pub fn encryptions(&self) -> u64 {
        self.inner.borrow().encryptions
    }

    pub fn ciphertext_ops(&self) -> u64 {
        self.inner.borrow().ciphertext_ops
    }

    pub fn threshold_decryptions(&self) -> u64 {
        self.inner.borrow().threshold_decryptions
    }

    pub fn split_stat_ciphertexts(&self) -> u64 {
        self.inner.borrow().split_stat_ciphertexts
    }

    /// `(ciphertexts, values, slot_capacity)` of the packed emissions.
    pub fn packed(&self) -> (u64, u64, u64) {
        let i = self.inner.borrow();
        (
            i.packed_ciphertexts,
            i.packed_values,
            i.packed_slot_capacity,
        )
    }

    pub fn stats_bytes_sent(&self) -> u64 {
        self.inner.borrow().stats_bytes_sent
    }

    pub fn stage_time(&self, stage: Stage) -> Duration {
        self.inner.borrow().stage_time[stage_slot(stage)]
    }

    /// One-line summary (printed by `examples/quickstart.rs`).
    pub fn summary(&self) -> String {
        let i = self.inner.borrow();
        format!(
            "Ce(enc)={} Ce(ops)={} Cd={} local={:?} mpc={:?} update={:?} predict={:?}",
            i.encryptions,
            i.ciphertext_ops,
            i.threshold_decryptions,
            i.stage_time[0],
            i.stage_time[1],
            i.stage_time[2],
            i.stage_time[3],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ProtocolMetrics::new();
        m.add_encryptions(3);
        m.add_encryptions(2);
        m.add_ciphertext_ops(10);
        m.add_decryptions(1);
        assert_eq!(m.encryptions(), 5);
        assert_eq!(m.ciphertext_ops(), 10);
        assert_eq!(m.threshold_decryptions(), 1);
    }

    #[test]
    fn stage_timer_records() {
        let m = ProtocolMetrics::new();
        let out = m.time(Stage::LocalComputation, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        assert!(m.stage_time(Stage::LocalComputation) >= Duration::from_millis(4));
        assert_eq!(m.stage_time(Stage::MpcComputation), Duration::ZERO);
    }

    #[test]
    fn summary_mentions_counts() {
        let m = ProtocolMetrics::new();
        m.add_decryptions(7);
        assert!(m.summary().contains("Cd=7"));
    }
}
