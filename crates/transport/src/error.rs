//! Typed transport failures and the unwind boundary that surfaces them.
//!
//! The SPMD protocols call [`crate::Endpoint`] collectives at thousands
//! of sites with infallible signatures — threading `Result` through every
//! share/open/multiply would bury the protocol code in plumbing for a
//! failure that, once it happens, always ends the run. Instead the
//! endpoint raises a [`TransportError`] as a *typed unwind*
//! (`std::panic::panic_any`, never the `panic!` macro with a string) and
//! a party's whole run is wrapped in [`catch_failures`], which turns the
//! unwind back into `Result<T, RunFailure>` at exactly one place.
//! Anything that is neither a `TransportError` nor a `ProtocolError` keeps
//! unwinding — real bugs still abort loudly.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Which half of a link operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Failure while handing bytes to the peer.
    Send,
    /// Failure while waiting for bytes from the peer.
    Recv,
}

impl Direction {
    /// The report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Send => "send",
            Direction::Recv => "recv",
        }
    }
}

/// The failure class, mirroring [`crate::LinkError`] plus injected
/// crashes from a scenario fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// Nothing arrived within the wedge deadline.
    Timeout,
    /// The peer hung up and the session could not be resumed.
    Disconnected,
    /// The peer sent bytes that do not parse (desynced or hostile
    /// stream, or asymmetric coalescing configuration).
    Malformed,
    /// A `crash_party` fault from the scenario `[faults]` plan fired on
    /// this party.
    InjectedCrash,
    /// A peer stayed gone past the `[network] rejoin_deadline_s` budget:
    /// the session parked at the barrier waiting for a restart that
    /// never came. Names the dead party via `peer`.
    PeerLost,
    /// A session resume/restart needed a frame the retransmit ring no
    /// longer holds (eviction outran the peer, or the peer restarted
    /// while rings were ack-pruned, i.e. without durable sessions). The first
    /// missing sequence number is in
    /// [`TransportError::missing_seq`].
    ResumeGap,
}

impl TransportErrorKind {
    /// The report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::Disconnected => "disconnected",
            TransportErrorKind::Malformed => "malformed",
            TransportErrorKind::InjectedCrash => "injected_crash",
            TransportErrorKind::PeerLost => "peer_lost",
            TransportErrorKind::ResumeGap => "resume_gap",
        }
    }
}

/// A structured transport failure: everything a party report needs to say
/// where and how a distributed run died.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportError {
    /// The failure class.
    pub kind: TransportErrorKind,
    /// The party that observed the failure.
    pub party: usize,
    /// The peer involved, when the failure is tied to one link.
    pub peer: Option<usize>,
    /// Whether the send or receive half failed.
    pub direction: Option<Direction>,
    /// The protocol phase open when the failure surfaced: the phase of
    /// the observing endpoint's registry ([`pivot_trace::Counters::phase`],
    /// tracked even with tracing off), or `"connect"` for a rendezvous.
    pub phase: String,
    /// How long the failing operation waited before giving up.
    pub elapsed: Duration,
    /// Backend-specific detail (the underlying [`crate::LinkError`] or
    /// fault-plan text).
    pub detail: String,
    /// For [`TransportErrorKind::ResumeGap`]: the first sequence number
    /// the retransmit ring could not replay.
    pub missing_seq: Option<u64>,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "party {} transport failure ({})",
            self.party,
            self.kind.as_str()
        )?;
        if let Some(peer) = self.peer {
            write!(f, " peer {peer}")?;
        }
        if let Some(dir) = self.direction {
            write!(f, " during {}", dir.as_str())?;
        }
        write!(
            f,
            " in phase {} after {:?}: {}",
            self.phase, self.elapsed, self.detail
        )
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Build an error observed by `party` in protocol phase `phase`.
    pub fn new(
        kind: TransportErrorKind,
        party: usize,
        phase: &str,
        detail: impl Into<String>,
    ) -> TransportError {
        TransportError {
            kind,
            party,
            peer: None,
            direction: None,
            phase: phase.to_string(),
            elapsed: Duration::ZERO,
            detail: detail.into(),
            missing_seq: None,
        }
    }

    /// Attach the first unreplayable sequence number of a resume gap.
    pub fn with_missing_seq(mut self, seq: u64) -> TransportError {
        self.missing_seq = Some(seq);
        self
    }

    /// Attach the peer and direction of the failing link operation.
    pub fn on_link(mut self, peer: usize, direction: Direction) -> TransportError {
        self.peer = Some(peer);
        self.direction = Some(direction);
        self
    }

    /// Attach how long the failing operation waited.
    pub fn after(mut self, elapsed: Duration) -> TransportError {
        self.elapsed = elapsed;
        self
    }

    /// Raise this error as a typed unwind toward the nearest
    /// [`catch_failures`]. Installs the quiet panic hook first so the
    /// controlled unwind does not spray the default "panicked at" report
    /// over stderr.
    pub fn raise(self) -> ! {
        install_quiet_hook();
        std::panic::panic_any(self)
    }
}

/// A typed *protocol-level* failure: the transport delivered the bytes,
/// but what they claim about the computation is wrong. Raised by the
/// verification plane when a Σ-protocol proof fails to verify; unlike a
/// [`TransportError`], it names the party whose *proof* was rejected —
/// the accused cheater — not (only) the party that observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A zero-knowledge proof failed verification: `party` is the prover
    /// being accused, `observer` is the verifying party raising the
    /// error.
    ProofRejected {
        /// The prover whose proof did not verify — the accused cheater.
        party: usize,
        /// The verifying party that observed the rejection.
        observer: usize,
        /// The protocol phase the proof belongs to.
        phase: String,
        /// Which Σ-protocol failed (`popk` / `popcm` / `pohdp`).
        proof_kind: String,
        /// What exactly was rejected (proof index, commit point).
        detail: String,
    },
}

impl ProtocolError {
    /// The accused party.
    pub fn party(&self) -> usize {
        match self {
            ProtocolError::ProofRejected { party, .. } => *party,
        }
    }

    /// The protocol phase the failure belongs to.
    pub fn phase(&self) -> &str {
        match self {
            ProtocolError::ProofRejected { phase, .. } => phase,
        }
    }

    /// Raise as a typed unwind toward the nearest [`catch_failures`].
    pub fn raise(self) -> ! {
        install_quiet_hook();
        std::panic::panic_any(self)
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::ProofRejected {
                party,
                observer,
                phase,
                proof_kind,
                detail,
            } => write!(
                f,
                "party {party} proof rejected ({proof_kind}) in phase {phase}, \
                 observed by party {observer}: {detail}"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Either kind of typed run-ending failure a party can raise: the
/// transport broke, or the protocol content did not verify.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    Transport(TransportError),
    Protocol(ProtocolError),
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFailure::Transport(e) => e.fmt(f),
            RunFailure::Protocol(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunFailure {}

impl From<TransportError> for RunFailure {
    fn from(e: TransportError) -> Self {
        RunFailure::Transport(e)
    }
}

impl From<ProtocolError> for RunFailure {
    fn from(e: ProtocolError) -> Self {
        RunFailure::Protocol(e)
    }
}

/// Run `f`, converting a raised [`TransportError`] *or*
/// [`ProtocolError`] into `Err(RunFailure)`. Any other unwind (assertion
/// failures, index panics — real bugs) keeps unwinding and still aborts
/// loudly.
pub fn catch_failures<T>(f: impl FnOnce() -> T) -> Result<T, RunFailure> {
    install_quiet_hook();
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<TransportError>() {
            Ok(err) => Err(RunFailure::Transport(*err)),
            Err(payload) => match payload.downcast::<ProtocolError>() {
                Ok(err) => Err(RunFailure::Protocol(*err)),
                Err(payload) => resume_unwind(payload),
            },
        },
    }
}

/// Wrap the process panic hook once so `TransportError` unwinds travel
/// silently (they are data, reported by whoever catches them); every
/// other panic goes to the previously installed hook unchanged.
fn install_quiet_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let typed = info.payload().downcast_ref::<TransportError>().is_some()
                || info.payload().downcast_ref::<ProtocolError>().is_some();
            if !typed {
                previous(info);
            }
        }));
    });
}

/// Extract the human-readable message from a caught panic payload
/// (`&str` / `String` from `panic!`, [`TransportError`] from a typed
/// raise, opaque otherwise). This is what lets the SPMD harness
/// re-surface the *original* failure text instead of `party N panicked`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<TransportError>() {
        e.to_string()
    } else if let Some(e) = payload.downcast_ref::<ProtocolError>() {
        e.to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_returns_the_raised_error() {
        let Err(RunFailure::Transport(err)) = catch_failures(|| {
            TransportError::new(
                TransportErrorKind::Timeout,
                1,
                "gain",
                "no message within 5ms",
            )
            .on_link(0, Direction::Recv)
            .after(Duration::from_millis(5))
            .raise();
        }) else {
            panic!("raise must surface as Err");
        };
        assert_eq!(err.kind, TransportErrorKind::Timeout);
        assert_eq!(err.party, 1);
        assert_eq!(err.peer, Some(0));
        assert_eq!(err.direction, Some(Direction::Recv));
        assert_eq!(err.elapsed, Duration::from_millis(5));
        let text = err.to_string();
        assert!(text.contains("party 1"), "{text}");
        assert!(text.contains("timeout"), "{text}");
        assert!(text.contains("peer 0"), "{text}");
        assert!(text.contains("recv"), "{text}");
    }

    #[test]
    fn catch_passes_ok_values_through() {
        assert_eq!(catch_failures(|| 7u32), Ok(7));
    }

    #[test]
    fn error_stamps_current_phase() {
        // An endpoint stamps the phase its registry has open, on the
        // thread that observes the failure.
        let net = crate::NetConfig {
            recv_timeout: Duration::from_millis(50),
            ..crate::NetConfig::default()
        };
        let results = crate::try_run_parties_with(2, net, |ep| {
            if ep.id() == 0 {
                let _gain = pivot_trace::phase_span(ep.counters(), "gain");
                let _: u64 = ep.recv(1);
            }
            assert_eq!(ep.counters().phase(), "other");
        });
        let Err(RunFailure::Transport(err)) = &results[0] else {
            panic!("party 0 must fail: {:?}", results[0]);
        };
        assert_eq!((err.party, err.peer), (0, Some(1)));
        assert_eq!(err.phase, "gain");
        assert!(err.to_string().contains("in phase gain"), "{err}");
    }

    #[test]
    fn catch_failures_surfaces_both_error_kinds() {
        let err = catch_failures(|| {
            ProtocolError::ProofRejected {
                party: 2,
                observer: 0,
                phase: "stats".to_string(),
                proof_kind: "pohdp".to_string(),
                detail: "split 3, proof 1 of 4".to_string(),
            }
            .raise();
        })
        .expect_err("raise must surface as Err");
        let RunFailure::Protocol(p) = &err else {
            panic!("expected protocol failure, got {err:?}");
        };
        assert_eq!(p.party(), 2);
        assert_eq!(p.phase(), "stats");
        let text = err.to_string();
        assert!(text.contains("party 2 proof rejected (pohdp)"), "{text}");
        assert!(text.contains("observed by party 0"), "{text}");

        let err = catch_failures(|| {
            TransportError::new(TransportErrorKind::Timeout, 1, "other", "wedged").raise();
        })
        .expect_err("transport raise must surface too");
        assert!(matches!(&err, RunFailure::Transport(t) if t.party == 1));
    }

    #[test]
    fn catch_failures_lets_real_bugs_unwind() {
        let outer = std::panic::catch_unwind(|| catch_failures(|| panic!("real bug")));
        let payload = outer.expect_err("foreign panic must resume");
        assert_eq!(panic_message(payload.as_ref()), "real bug");
    }

    #[test]
    fn panic_message_extracts_all_payload_shapes() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_message(p.as_ref()), "owned");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u64);
        assert_eq!(panic_message(p.as_ref()), "opaque panic payload");
    }
}
