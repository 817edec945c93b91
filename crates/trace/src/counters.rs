//! The per-party counter registry: every count a party keeps, declared
//! once in [`ROWS`] and recorded once into [`Counters`].
//!
//! One [`Counters`] lives in each party's endpoint. The transport, the
//! TCP link threads, the MPC engine, the protocol context and the
//! checkpoint sink add to it; reports render it by walking [`ROWS`]. A
//! counter added here needs its row and its increment site, nothing else.
//!
//! The registry also knows the party's current phase: [`crate::phase_span`]
//! sets it and its guard restores the outer one. A row declared
//! `by_phase` (bytes sent and received, receive wait, rounds) keeps its
//! total in its first cell and one more cell per [`PHASES`] entry, and
//! each record also lands in the cell of the innermost phase open when it
//! is recorded (`"other"` outside every phase). So a party's phase table
//! is read off its snapshot, and its columns sum to the totals.

use crate::PHASES;
use std::ops::{Add, Index, Sub};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a row counts, and how reports render it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Events or elements.
    Count,
    /// Bytes.
    Bytes,
    /// Wall time, recorded in nanoseconds and rendered in seconds.
    Nanos,
    /// A histogram over comparison widths: one cell per width
    /// `0..WIDTH_CELLS`, rendered as `{"<width>": count}` over the
    /// non-zero cells.
    Widths,
    /// Wall time per phase: one cell per [`PHASES`] entry, recorded in
    /// nanoseconds and rendered as `{"<phase>": seconds}` over the
    /// non-zero cells.
    PhaseNanos,
}

/// Cells of a [`Unit::Widths`] row: one per comparison width below the
/// 61-bit field's 62.
pub const WIDTH_CELLS: usize = 62;

impl Unit {
    const fn cells(self) -> usize {
        match self {
            Unit::Widths => WIDTH_CELLS,
            Unit::PhaseNanos => PHASES.len(),
            _ => 1,
        }
    }

    /// The unit as the README's counter reference names it.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Bytes => "bytes",
            Unit::Nanos => "s",
            Unit::Widths => "count per width",
            Unit::PhaseNanos => "s per phase",
        }
    }
}

/// One counter's declaration.
#[derive(Debug)]
pub struct Row {
    pub counter: Counter,
    /// Whether each record also lands in the current phase's cell.
    pub by_phase: bool,
    /// Dotted report paths the value renders at. A path under
    /// `network.train` reads the snapshot taken when training ends, one
    /// under `network.predict` the difference from there to the end of
    /// the run, and any other path the end of the run.
    pub paths: &'static [&'static str],
    pub unit: Unit,
    /// What increments the counter.
    pub what: &'static str,
}

impl Row {
    /// The row's cells: its unit's, plus one per [`PHASES`] entry for a
    /// `by_phase` row.
    const fn cells(&self) -> usize {
        self.unit.cells() + if self.by_phase { PHASES.len() } else { 0 }
    }
}

macro_rules! registry {
    (@by_phase) => { false };
    (@by_phase by_phase) => { true };
    ($($name:ident: $unit:ident $($by_phase:ident)?, [$($path:literal),+], $what:literal;)*) => {
        /// Every per-party counter, in [`ROWS`] order.
        #[repr(usize)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $(#[doc = $what] $name,)*
        }

        /// The registry table: one row per [`Counter`], in declaration
        /// order, which is also the order reports list the values in.
        pub const ROWS: &[Row] = &[
            $(Row {
                counter: Counter::$name,
                by_phase: registry!(@by_phase $($by_phase)?),
                paths: &[$($path),+],
                unit: Unit::$unit,
                what: $what,
            },)*
        ];
    };
}

registry! {
    BytesSent: Bytes by_phase, ["network.train.bytes_sent", "network.predict.bytes_sent"],
        "Every message the endpoint stages for a peer, and each envelope's framing when it flushes.";
    BytesReceived: Bytes by_phase, ["network.train.bytes_received", "network.predict.bytes_received"],
        "Every message the endpoint receives, and each envelope's framing.";
    MessagesSent: Count, ["network.train.messages_sent"],
        "One per message staged for a peer (a broadcast counts once per peer).";
    ConnectRetries: Count, ["network.session.connect_retries"],
        "Each failed redial of a broken session (not rendezvous dials, which follow start order).";
    Reconnects: Count, ["network.session.reconnects"],
        "Each session resumed after its socket broke.";
    ReplayedFrames: Count, ["network.session.replayed_frames"],
        "Frames a resume retransmitted from the ring.";
    Rejoins: Count, ["network.session.rejoins"],
        "Each session spliced back across a peer's process restart.";
    FaultsInjected: Count, ["network.session.faults_injected"],
        "Each `[faults]` plan entry that fires on this party.";
    PhaseNs: PhaseNanos, ["timing.phases_s"],
        "Each closed phase span's wall time, under its phase (a span nested in another phase's counts toward both).";
    RecvWaitNs: Nanos by_phase, ["timing.recv_wait_s"],
        "Wall time a receive blocks on its link (messages already demuxed are free).";
    Encryptions: Count, ["counters.encryptions"],
        "Each fresh Paillier encryption (the paper's Ce).";
    CiphertextOps: Count, ["counters.ciphertext_ops"],
        "Each homomorphic ciphertext operation (the paper's Ce). A statistics pass books, per chunk, one addition per sample per feature with candidates and one per split (its bucket sums), plus one slot shift per merged split; a PIR selection one addition per [λ] entry per column.";
    ThresholdDecryptions: Count, ["counters.threshold_decryptions"],
        "Each ciphertext jointly decrypted (the paper's Cd).";
    Rounds: Count by_phase, ["counters.mpc_rounds"],
        "Each MPC communication round: an input sharing or an opening.";
    SecureMults: Count, ["counters.secure_mults"],
        "Each Beaver multiplication, per vector element (the paper's Cs).";
    SecureComparisons: Count,
        ["counters.secure_comparisons", "counters.comparisons.count", "counters.comparisons_all_parties.count"],
        "Each secure comparison, per vector element (the paper's Cc).";
    CmpRounds: Count, ["counters.comparisons.online_rounds", "counters.comparisons_all_parties.online_rounds"],
        "Each round opened inside a comparison protocol.";
    CmpOpened: Count,
        ["counters.comparisons.opened_elements", "counters.comparisons_all_parties.opened_elements"],
        "Each field element opened inside a comparison protocol.";
    CmpTriples: Count, ["counters.comparisons.beaver_triples"],
        "Each Beaver triple a comparison consumes.";
    CmpMaskedRows: Count, ["counters.comparisons.masked_bit_rows"],
        "Each masked-bit row a comparison consumes (one per mod-2^m element).";
    CmpMaskedBits: Count, ["counters.comparisons.masked_bits"],
        "The low bits decomposed in each consumed masked-bit row.";
    CmpWidths: Widths, ["counters.comparisons.widths"],
        "Each secure comparison, under its effective width.";
    SplitStatCiphertexts: Count, ["counters.split_stat_ciphertexts"],
        "Each pooled split-statistics ciphertext (what packing divides).";
    PackedCiphertexts: Count, ["counters.packing.ciphertexts"],
        "Each packed ciphertext emitted.";
    PackedValues: Count, ["counters.packing.values"],
        "Each plaintext value carried in a packed ciphertext.";
    PackedSlotCapacity: Count, ["counters.packing.slot_capacity"],
        "The slots of each packed ciphertext emitted.";
    StatsBytesSent: Bytes, ["counters.packing.stats_bytes_sent"],
        "Bytes sent inside the statistics pipeline (pooling and Algorithm 2).";
    ProofsGenerated: Count, ["counters.verification.proofs_generated"],
        "Each zero-knowledge proof this party generates.";
    ProofsVerified: Count, ["counters.verification.proofs_verified"],
        "Each commit this party checks: a proof, its own or a peer's, or one of party 0's recomputed prediction outputs.";
    ProofsSkipped: Count, ["counters.verification.proofs_skipped"],
        "Each commit (proof or recomputed output) the spot check skips.";
    ProofsRejected: Count, ["counters.verification.proofs_rejected"],
        "Each checked commit that fails, plus one for each bundle whose shape does not match its commits and each ring equivocation.";
    ProofBytes: Bytes, ["counters.verification.proof_bytes"],
        "Bytes of proof material this party broadcasts.";
    VerificationNs: Nanos, ["counters.verification.wall_s"],
        "Wall time spent generating and checking proofs.";
    CheckpointsWritten: Count, ["counters.checkpoint.written"],
        "Each checkpoint durably written.";
    CheckpointBytes: Bytes, ["counters.checkpoint.bytes"],
        "The encoded size of each checkpoint durably written.";
}

/// `OFFSETS[c]`: the first cell of counter `c`.
const OFFSETS: [usize; ROWS.len()] = {
    let mut offsets = [0; ROWS.len()];
    let mut i = 1;
    while i < ROWS.len() {
        offsets[i] = offsets[i - 1] + ROWS[i - 1].cells();
        i += 1;
    }
    offsets
};

/// Cells across every row.
const CELLS: usize = OFFSETS[ROWS.len() - 1] + ROWS[ROWS.len() - 1].cells();

/// The cell of `"other"`, the phase outside every phase span.
const OTHER: usize = PHASES.len() - 1;

impl Counter {
    /// The counter's declaration.
    pub fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    /// The counter's cells in a registry.
    fn cells(self) -> std::ops::Range<usize> {
        let start = OFFSETS[self as usize];
        start..start + self.row().cells()
    }
}

/// One party's live registry. Recording is one relaxed atomic add (a
/// `by_phase` row: a load of the current phase and a second add): the
/// values publish no other data.
#[derive(Debug)]
pub struct Counters {
    cells: [AtomicU64; CELLS],
    /// The [`PHASES`] index of the innermost open phase span.
    phase: AtomicUsize,
}

impl Counters {
    pub fn new() -> Arc<Self> {
        Arc::new(Counters {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            phase: AtomicUsize::new(OTHER),
        })
    }

    /// Add `n` to a counter (to its first cell) and, for a `by_phase`
    /// row, to the current phase's cell.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        let start = counter.cells().start;
        self.cells[start].fetch_add(n, Ordering::Relaxed);
        if counter.row().by_phase {
            let phase = self.phase.load(Ordering::Relaxed);
            self.cells[start + 1 + phase].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The innermost phase open on this party (`"other"` outside every
    /// phase span).
    pub fn phase(&self) -> &'static str {
        PHASES[self.phase.load(Ordering::Relaxed)]
    }

    /// Make `phase` (a [`PHASES`] index) current; returns the phase it
    /// replaces, for the closing span to restore.
    pub(crate) fn enter_phase(&self, phase: usize) -> usize {
        self.phase.swap(phase, Ordering::Relaxed)
    }

    /// Add `n` to cell `cell` of a multi-cell row; a cell beyond the row
    /// is dropped.
    pub fn add_cell(&self, counter: Counter, cell: usize, n: u64) {
        if let Some(slot) = self.cells[counter.cells()].get(cell) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add a duration to a [`Unit::Nanos`] row.
    pub fn add_duration(&self, counter: Counter, d: Duration) {
        self.add(counter, d.as_nanos() as u64);
    }

    /// The current value of a counter (its first cell).
    pub fn get(&self, counter: Counter) -> u64 {
        self.cells[counter.cells().start].load(Ordering::Relaxed)
    }

    /// Every cell's current value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(std::array::from_fn(|i| {
            self.cells[i].load(Ordering::Relaxed)
        }))
    }
}

/// A copy of a registry's cells. Snapshots add and subtract cell by cell,
/// so the counts of a stretch of the run are the difference of the
/// snapshots around it and a cross-party total is the sum of the parties'
/// snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot([u64; CELLS]);

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot([0; CELLS])
    }
}

impl Snapshot {
    /// Every cell of a counter: one for a scalar row, [`WIDTH_CELLS`]
    /// for a histogram, one per [`PHASES`] entry for the phase clock, the
    /// total and then one per phase for a `by_phase` row.
    pub fn cells(&self, counter: Counter) -> &[u64] {
        &self.0[counter.cells()]
    }

    /// A counter's value per [`PHASES`] entry: the phase cells of a
    /// `by_phase` row, or the phase clock's cells.
    pub fn by_phase(&self, counter: Counter) -> &[u64] {
        let cells = self.cells(counter);
        &cells[cells.len() - PHASES.len()..]
    }

    /// The snapshot with every wall-time row zeroed: what two runs of the
    /// same transcript must agree on.
    pub fn counts(&self) -> Snapshot {
        let mut out = self.clone();
        for row in ROWS
            .iter()
            .filter(|r| matches!(r.unit, Unit::Nanos | Unit::PhaseNanos))
        {
            out.0[row.counter.cells()].fill(0);
        }
        out
    }
}

impl Index<Counter> for Snapshot {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter.cells().start]
    }
}

impl Add for &Snapshot {
    type Output = Snapshot;

    fn add(self, other: &Snapshot) -> Snapshot {
        Snapshot(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }
}

/// Cell-wise difference; `self` must be the later snapshot of the same
/// registry.
impl Sub for &Snapshot {
    type Output = Snapshot;

    fn sub(self, earlier: &Snapshot) -> Snapshot {
        Snapshot(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_follow_the_enum_and_paths_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, row) in ROWS.iter().enumerate() {
            assert_eq!(row.counter as usize, i, "{:?} out of order", row.counter);
            for path in row.paths {
                assert!(seen.insert(*path), "{path} declared twice");
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.add(Counter::Encryptions, 3);
        c.add(Counter::Encryptions, 2);
        c.add(Counter::CmpMaskedBits, 1);
        c.add_cell(Counter::CmpWidths, 0, 2);
        c.add_cell(Counter::CmpWidths, WIDTH_CELLS - 1, 3);
        c.add_cell(Counter::CmpWidths, WIDTH_CELLS, 100);
        c.add(Counter::SplitStatCiphertexts, 4);
        assert_eq!(c.get(Counter::Encryptions), 5);
        // A histogram's cells sit between its neighbours' and no cell
        // past the row is written.
        let s = c.snapshot();
        assert_eq!(s[Counter::CmpMaskedBits], 1);
        let widths = s.cells(Counter::CmpWidths);
        assert_eq!(widths.len(), WIDTH_CELLS);
        assert_eq!((widths[0], widths[WIDTH_CELLS - 1]), (2, 3));
        assert_eq!(widths.iter().sum::<u64>(), 5);
        assert_eq!(s[Counter::SplitStatCiphertexts], 4);
    }

    fn sample(scale: u64) -> Snapshot {
        let c = Counters::new();
        c.add(Counter::SecureComparisons, 10 * scale);
        c.add(Counter::CmpRounds, 4 * scale);
        c.add_cell(Counter::CmpWidths, 5, 3 * scale);
        c.add_cell(Counter::CmpWidths, 61, 7 * scale);
        c.snapshot()
    }

    #[test]
    fn snapshot_sum_adds_scalars_and_width_histograms() {
        let sum = &sample(1) + &sample(2);
        assert_eq!(sum[Counter::SecureComparisons], 30);
        assert_eq!(sum[Counter::CmpRounds], 12);
        let widths = sum.cells(Counter::CmpWidths);
        assert_eq!((widths[5], widths[61], widths[4]), (9, 21, 0));
    }

    #[test]
    fn snapshot_sum_with_a_default_side_is_identity() {
        // A party that never compared contributes zeros to a cross-party
        // total, in either order.
        assert_eq!(&sample(1) + &Snapshot::default(), sample(1));
        assert_eq!(&Snapshot::default() + &sample(1), sample(1));
    }

    #[test]
    fn counts_land_in_the_innermost_phase_and_spans_restore_the_outer_one() {
        let c = Counters::new();
        let cell = |phase: &str| PHASES.iter().position(|&p| p == phase).unwrap();
        c.add(Counter::BytesSent, 3);
        {
            let _gain = crate::phase_span(&c, "gain");
            assert_eq!(c.phase(), "gain");
            c.add(Counter::Rounds, 2);
            {
                let _reconnect = crate::phase_span(&c, "reconnect");
                assert_eq!(c.phase(), "reconnect");
                c.add(Counter::BytesSent, 5);
                c.add_duration(Counter::RecvWaitNs, Duration::from_nanos(7));
            }
            assert_eq!(c.phase(), "gain");
            c.add(Counter::BytesReceived, 11);
            c.add(Counter::Rounds, 1);
        }
        assert_eq!(c.phase(), "other");
        c.add(Counter::Rounds, 4);
        c.add(Counter::MessagesSent, 1);
        let s = c.snapshot();
        let at = |counter: Counter, phase: &str| s.by_phase(counter)[cell(phase)];
        assert_eq!(
            (at(Counter::Rounds, "gain"), at(Counter::Rounds, "other")),
            (3, 4)
        );
        assert_eq!(at(Counter::Rounds, "reconnect"), 0);
        assert_eq!(
            (
                at(Counter::BytesSent, "other"),
                at(Counter::BytesSent, "reconnect")
            ),
            (3, 5)
        );
        assert_eq!(at(Counter::RecvWaitNs, "reconnect"), 7);
        assert_eq!(at(Counter::BytesReceived, "gain"), 11);
        // Each per-phase row's total is the sum of its phase cells; other
        // rows keep one cell.
        for row in ROWS.iter().filter(|r| r.by_phase) {
            let cells: u64 = s.by_phase(row.counter).iter().sum();
            assert_eq!(s[row.counter], cells, "{:?}", row.counter);
        }
        assert_eq!(s.cells(Counter::MessagesSent), &[1]);
    }

    #[test]
    fn snapshot_difference_and_counts() {
        let c = Counters::new();
        c.add(Counter::BytesSent, 10);
        c.add_duration(Counter::RecvWaitNs, Duration::from_nanos(7));
        c.add_cell(Counter::PhaseNs, 2, 9);
        let a = c.snapshot();
        c.add(Counter::BytesSent, 5);
        let b = c.snapshot();
        assert_eq!((&b - &a)[Counter::BytesSent], 5);
        assert_eq!(b.counts()[Counter::RecvWaitNs], 0);
        assert_eq!(b.cells(Counter::PhaseNs)[2], 9);
        assert!(b.counts().cells(Counter::PhaseNs).iter().all(|&ns| ns == 0));
        assert_eq!(b.counts()[Counter::BytesSent], 15);
    }
}
