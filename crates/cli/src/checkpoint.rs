//! Durable crash-recovery checkpoints (`PVCK` files) and the barrier sink.
//!
//! At every level/tree barrier the trainer reaches with a sink installed,
//! [`CliCheckpointSink`] writes the barrier's identity (party, mesh size,
//! ordinal, level, scenario fingerprint) and the protocol state cursors
//! into a versioned, checksummed, fixed-size file. No protocol state and
//! no frame is stored: the protocol is a deterministic SPMD program, so a
//! restarted party re-executes from genesis while its peers replay their
//! retransmit rings from seq 1 (see `pivot_transport::tcp`). `--resume`
//! validates the newest file (version, fingerprint, party) and, when
//! re-execution reaches that ordinal, cross-checks the recomputed
//! cursors; a mismatch is [`CheckpointError::ResumeDiverged`].
//!
//! File layout (all little-endian, [`CKPT_FILE_BYTES`] in total):
//!
//! ```text
//! magic    b"PVCK"                        4 bytes
//! version  u32                            4 bytes
//! body     11 × u64 (Wire(CheckpointFile)) 88 bytes
//! checksum FNV-1a-64(magic‖version‖body)  8 bytes
//! ```
//!
//! Writes go to a `.tmp` sibling, are fsynced, then atomically renamed; the
//! last two checkpoints per party are kept so a torn write of the newest
//! file never loses recoverability.

use pivot_core::checkpoint::{BarrierMeta, CheckpointSink, StateCursors};
use pivot_transport::{Wire, WireError};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: [u8; 4] = *b"PVCK";
/// Current checkpoint format version; any other version loads as
/// [`CheckpointError::VersionSkew`].
pub const CKPT_VERSION: u32 = 2;
/// Size of every checkpoint file: header, eleven `u64`s, checksum.
pub const CKPT_FILE_BYTES: u64 = 4 + 4 + 11 * 8 + 8;
/// Checkpoints retained per party (newest-first).
const KEEP_LAST: usize = 2;

/// FNV-1a 64-bit hash (checkpoint checksums and scenario fingerprints).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the fully-resolved scenario, stored in every checkpoint
/// so `--resume` refuses state written by a different configuration.
pub fn scenario_fingerprint(scenario: &crate::scenario::Scenario) -> u64 {
    fnv1a64(scenario.to_json().to_pretty().as_bytes())
}

/// Typed checkpoint failure (exit code 13; see `pivot party --help`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing checkpoint state.
    Io(String),
    /// Bytes that are not a decodable checkpoint (bad magic, truncation,
    /// trailing garbage, body decode failure).
    Malformed(String),
    /// A well-formed header from a different format version.
    VersionSkew { found: u32, expected: u32 },
    /// Checksum over magic‖version‖body does not match the trailer.
    ChecksumMismatch,
    /// The checkpoint was written by a different scenario configuration.
    ScenarioMismatch { found: u64, expected: u64 },
    /// The checkpoint belongs to a different party id or mesh size.
    PartyMismatch { found: u64, expected: u64 },
    /// Under `--resume`, re-execution reached the checkpointed barrier
    /// with different state cursors than the checkpoint recorded.
    ResumeDiverged { ordinal: u64 },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::VersionSkew { found, expected } => write!(
                f,
                "checkpoint version skew: file is v{found}, this binary reads v{expected}"
            ),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::ScenarioMismatch { found, expected } => write!(
                f,
                "checkpoint scenario fingerprint {found:#018x} does not match \
                 this scenario ({expected:#018x})"
            ),
            CheckpointError::PartyMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to party {found}, not party {expected}"
            ),
            CheckpointError::ResumeDiverged { ordinal } => write!(
                f,
                "resumed run diverged from the checkpoint at barrier {ordinal}: \
                 recomputed state cursors differ"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Malformed(e.0.to_string())
    }
}

/// One durable checkpoint: the barrier's identity and state cursors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    /// Writing party's id.
    pub party: u64,
    /// Mesh size `m` the run was configured with.
    pub parties: u64,
    /// Barrier ordinal (1-based) this checkpoint was taken at.
    pub ordinal: u64,
    /// Tree level (or ensemble-member ordinal) at the barrier.
    pub level: u64,
    /// [`scenario_fingerprint`] of the run's configuration.
    pub fingerprint: u64,
    /// Protocol state cursors at the barrier (resume cross-check).
    pub cursors: StateCursors,
}

impl Wire for CheckpointFile {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.party.encode(buf);
        self.parties.encode(buf);
        self.ordinal.encode(buf);
        self.level.encode(buf);
        self.fingerprint.encode(buf);
        self.cursors.mpc_rounds.encode(buf);
        self.cursors.secure_mults.encode(buf);
        self.cursors.secure_comparisons.encode(buf);
        self.cursors.nonces_drawn.encode(buf);
        self.cursors.dealer_rows.encode(buf);
        self.cursors.bytes_sent.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CheckpointFile {
            party: u64::decode(buf)?,
            parties: u64::decode(buf)?,
            ordinal: u64::decode(buf)?,
            level: u64::decode(buf)?,
            fingerprint: u64::decode(buf)?,
            cursors: StateCursors {
                mpc_rounds: u64::decode(buf)?,
                secure_mults: u64::decode(buf)?,
                secure_comparisons: u64::decode(buf)?,
                nonces_drawn: u64::decode(buf)?,
                dealer_rows: u64::decode(buf)?,
                bytes_sent: u64::decode(buf)?,
            },
        })
    }
}

/// Serialize a checkpoint to its on-disk byte layout.
pub fn encode_checkpoint(file: &CheckpointFile) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(CKPT_FILE_BYTES as usize);
    bytes.extend_from_slice(&CKPT_MAGIC);
    bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    file.encode(&mut bytes);
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Decode and fully validate checkpoint bytes. Never panics on arbitrary
/// input — every malformation maps to a typed [`CheckpointError`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointFile, CheckpointError> {
    if bytes.len() < CKPT_MAGIC.len() + 4 + 8 {
        return Err(CheckpointError::Malformed(
            "file shorter than header".into(),
        ));
    }
    if bytes[..4] != CKPT_MAGIC {
        return Err(CheckpointError::Malformed("bad magic".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != CKPT_VERSION {
        return Err(CheckpointError::VersionSkew {
            found: version,
            expected: CKPT_VERSION,
        });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    if fnv1a64(payload) != stored {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(CheckpointFile::from_wire(&payload[8..])?)
}

fn ckpt_name(party: u64, ordinal: u64, level: u64) -> String {
    format!("party{party}-{ordinal:06}-l{level}.ckpt")
}

fn io_err<T>(op: &str, path: &Path, e: std::io::Error) -> Result<T, CheckpointError> {
    Err(CheckpointError::Io(format!("{op} {}: {e}", path.display())))
}

/// Checkpoint files for `party` under `dir`, sorted oldest-first by name
/// (ordinals are zero-padded, so lexicographic order is barrier order).
fn party_files(dir: &Path, party: u64) -> Result<Vec<PathBuf>, CheckpointError> {
    let prefix = format!("party{party}-");
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return io_err("read dir", dir, e),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".ckpt"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Write one checkpoint durably: temp file + fsync + atomic rename, then
/// prune so only the newest [`KEEP_LAST`] files for this party remain.
/// Returns the encoded size in bytes.
pub fn write_checkpoint(dir: &Path, file: &CheckpointFile) -> Result<u64, CheckpointError> {
    if let Err(e) = fs::create_dir_all(dir) {
        return io_err("create dir", dir, e);
    }
    let bytes = encode_checkpoint(file);
    let final_path = dir.join(ckpt_name(file.party, file.ordinal, file.level));
    let tmp_path = dir.join(format!(
        "{}.tmp",
        final_path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("name")
    ));
    {
        let mut f = match fs::File::create(&tmp_path) {
            Ok(f) => f,
            Err(e) => return io_err("create", &tmp_path, e),
        };
        if let Err(e) = f.write_all(&bytes) {
            return io_err("write", &tmp_path, e);
        }
        if let Err(e) = f.sync_all() {
            return io_err("sync", &tmp_path, e);
        }
    }
    if let Err(e) = fs::rename(&tmp_path, &final_path) {
        return io_err("rename", &tmp_path, e);
    }
    // Keep the last two checkpoints: the new file plus its predecessor.
    let files = party_files(dir, file.party)?;
    if files.len() > KEEP_LAST {
        for stale in &files[..files.len() - KEEP_LAST] {
            let _ = fs::remove_file(stale);
        }
    }
    Ok(bytes.len() as u64)
}

/// Load the newest usable checkpoint for `party`, validating it against
/// this run's scenario `fingerprint`, party id, and mesh size.
///
/// A corrupted or torn newest file falls back to its predecessor;
/// systematic mismatches (version skew, wrong scenario, wrong party)
/// propagate immediately — older files would fail the same way. `Ok(None)`
/// means no checkpoint exists and the party starts fresh.
pub fn load_latest(
    dir: &Path,
    party: u64,
    parties: u64,
    fingerprint: u64,
) -> Result<Option<CheckpointFile>, CheckpointError> {
    let files = party_files(dir, party)?;
    let mut last_err = None;
    for path in files.iter().rev() {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                last_err = Some(CheckpointError::Io(format!("read {}: {e}", path.display())));
                continue;
            }
        };
        match decode_checkpoint(&bytes) {
            Ok(file) => {
                if file.fingerprint != fingerprint {
                    return Err(CheckpointError::ScenarioMismatch {
                        found: file.fingerprint,
                        expected: fingerprint,
                    });
                }
                if file.party != party || file.parties != parties {
                    return Err(CheckpointError::PartyMismatch {
                        found: file.party,
                        expected: party,
                    });
                }
                return Ok(Some(file));
            }
            Err(e @ CheckpointError::VersionSkew { .. }) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        // Every file on disk was corrupt: surface it rather than silently
        // restarting from genesis under a `--resume` flag.
        Some(e) => Err(e),
        None => Ok(None),
    }
}

/// Shared handles into a [`CliCheckpointSink`]: counters for the party
/// report plus the first failure (checked after the protocol run and
/// mapped to exit code 13).
#[derive(Clone, Default)]
pub struct CheckpointHandle {
    written: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    error: Arc<Mutex<Option<CheckpointError>>>,
}

impl CheckpointHandle {
    /// Checkpoints durably written so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Total encoded checkpoint bytes written.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// First failure, if any: a failed write or a diverged resume
    /// (checkpointing stops after the first failure).
    pub fn take_error(&self) -> Option<CheckpointError> {
        self.error.lock().expect("checkpoint error slot").take()
    }
}

/// The production [`CheckpointSink`]: applies the `every_levels` cadence
/// and writes `PVCK` files.
pub struct CliCheckpointSink {
    dir: PathBuf,
    every: u64,
    party: u64,
    parties: u64,
    fingerprint: u64,
    handle: CheckpointHandle,
    /// On `--resume`: the loaded checkpoint's (ordinal, cursors). When the
    /// re-executed run reaches the same barrier, the freshly computed
    /// cursors must match exactly — divergence means the run is not the
    /// checkpointed one, which is recorded as
    /// [`CheckpointError::ResumeDiverged`] (exit code 13).
    resume_verify: Option<(u64, StateCursors)>,
    failed: bool,
}

impl CliCheckpointSink {
    fn new(dir: PathBuf, every: u64, party: u64, parties: u64, fingerprint: u64) -> Self {
        assert!(every >= 1, "checkpoint cadence must be >= 1");
        CliCheckpointSink {
            dir,
            every,
            party,
            parties,
            fingerprint,
            handle: CheckpointHandle::default(),
            resume_verify: None,
            failed: false,
        }
    }

    /// The sink for one party of `scenario`; `None` without a
    /// `[checkpoint]` section.
    pub fn for_party(scenario: &crate::scenario::Scenario, party: usize) -> Option<Self> {
        let spec = scenario.checkpoint.as_ref()?;
        Some(CliCheckpointSink::new(
            PathBuf::from(&spec.dir),
            spec.every_levels,
            party as u64,
            scenario.parties as u64,
            scenario_fingerprint(scenario),
        ))
    }

    /// Handles shared with the report/exit plumbing.
    pub fn handle(&self) -> CheckpointHandle {
        self.handle.clone()
    }

    /// Arm the resume cross-check against a loaded checkpoint.
    pub fn with_resume_verify(mut self, ordinal: u64, cursors: StateCursors) -> Self {
        self.resume_verify = Some((ordinal, cursors));
        self
    }

    /// Record the first checkpoint failure and stop checkpointing; the
    /// run finishes, then `pivot party` exits 13.
    fn fail(&mut self, err: CheckpointError) {
        self.failed = true;
        *self.handle.error.lock().expect("checkpoint error slot") = Some(err);
    }
}

impl CheckpointSink for CliCheckpointSink {
    fn at_barrier(&mut self, meta: &BarrierMeta) {
        if self.failed {
            return;
        }
        let verify = self
            .resume_verify
            .take_if(|(ordinal, _)| *ordinal == meta.ordinal);
        if let Some((ordinal, expected)) = verify {
            if meta.cursors != expected {
                return self.fail(CheckpointError::ResumeDiverged { ordinal });
            }
        }
        if meta.ordinal % self.every != 0 {
            return;
        }
        let file = CheckpointFile {
            party: self.party,
            parties: self.parties,
            ordinal: meta.ordinal,
            level: meta.level,
            fingerprint: self.fingerprint,
            cursors: meta.cursors,
        };
        match write_checkpoint(&self.dir, &file) {
            Ok(bytes) => {
                self.handle.written.fetch_add(1, Ordering::Relaxed);
                self.handle.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => self.fail(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ordinal: u64) -> CheckpointFile {
        CheckpointFile {
            party: 1,
            parties: 3,
            ordinal,
            level: ordinal,
            fingerprint: 0xF00D,
            cursors: StateCursors {
                mpc_rounds: 10 * ordinal,
                secure_mults: 7,
                secure_comparisons: 5,
                nonces_drawn: 99,
                dealer_rows: 1234,
                bytes_sent: 1 << 20,
            },
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample(4);
        let bytes = encode_checkpoint(&f);
        assert_eq!(bytes.len() as u64, CKPT_FILE_BYTES);
        assert_eq!(decode_checkpoint(&bytes).expect("decode"), f);
    }

    #[test]
    fn v1_file_is_version_skew_through_load_latest() {
        let dir = std::env::temp_dir().join(format!("pivot-ckpt-v1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("dir");
        let mut bytes = encode_checkpoint(&sample(1));
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(dir.join(ckpt_name(1, 1, 1)), &bytes).expect("write");
        assert_eq!(
            load_latest(&dir, 1, 3, 0xF00D),
            Err(CheckpointError::VersionSkew {
                found: 1,
                expected: 2
            })
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn diverged_resume_is_a_typed_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("pivot-ckpt-diverge-{}", std::process::id()));
        let checkpointed = sample(2).cursors;
        let mut sink = CliCheckpointSink::new(dir.clone(), 1, 1, 3, 0xF00D)
            .with_resume_verify(2, checkpointed);
        let handle = sink.handle();
        let recomputed = StateCursors {
            mpc_rounds: checkpointed.mpc_rounds + 1,
            ..checkpointed
        };
        sink.at_barrier(&BarrierMeta {
            ordinal: 2,
            level: 2,
            cursors: recomputed,
        });
        assert_eq!(
            handle.take_error(),
            Some(CheckpointError::ResumeDiverged { ordinal: 2 })
        );
        assert_eq!(handle.written(), 0, "a diverged barrier is not persisted");
        assert!(!dir.exists());
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_checkpoint(&sample(1));
        for cut in 0..bytes.len() {
            let r = decode_checkpoint(&bytes[..cut]);
            assert!(r.is_err(), "truncated at {cut} must not decode");
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = encode_checkpoint(&sample(1));
        bytes[4] = 0x7F;
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(CheckpointError::VersionSkew { found: 0x7F, .. })
        ));
    }

    #[test]
    fn corruption_is_typed() {
        let mut bytes = encode_checkpoint(&sample(1));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(CheckpointError::ChecksumMismatch)
        ));
    }

    #[test]
    fn write_prune_load() {
        let dir = std::env::temp_dir().join(format!("pivot-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for ordinal in 1..=3 {
            write_checkpoint(&dir, &sample(ordinal)).expect("write");
        }
        let files = party_files(&dir, 1).expect("list");
        assert_eq!(files.len(), 2, "keep last two only");
        let latest = load_latest(&dir, 1, 3, 0xF00D)
            .expect("load")
            .expect("some");
        assert_eq!(latest.ordinal, 3);

        // Corrupt the newest file: loader falls back to its predecessor.
        let newest = files.last().expect("newest");
        let mut bytes = fs::read(newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(newest, &bytes).expect("rewrite");
        let fallback = load_latest(&dir, 1, 3, 0xF00D)
            .expect("load")
            .expect("some");
        assert_eq!(fallback.ordinal, 2);

        // Wrong fingerprint is a hard error, not a silent fresh start.
        assert!(matches!(
            load_latest(&dir, 1, 3, 0xBEEF),
            Err(CheckpointError::ScenarioMismatch { .. })
        ));

        // No files at all: clean fresh start.
        assert!(load_latest(&dir, 7, 3, 0xF00D).expect("load").is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
