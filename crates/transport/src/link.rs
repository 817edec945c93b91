//! The byte-level transport seam: one [`Link`] per peer.
//!
//! An [`crate::Endpoint`] owns `m - 1` boxed links and implements every
//! collective (send/recv/broadcast/gather/scatter/exchange) on top of the
//! two primitive operations defined here. Backends only move opaque byte
//! buffers; message framing, traffic accounting, and LAN simulation all
//! live in the endpoint, so every backend reports identical byte counts
//! for identical protocol runs.
//!
//! Shipped backends: [`ChannelLink`] (in-process, crossbeam channels) and
//! [`crate::tcp::TcpLink`] (one socket per peer, length-prefixed frames).

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pivot_trace::Counters;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Why a link operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// No message arrived within the deadline; the protocol is likely
    /// wedged (a peer crashed, deadlocked, or diverged in round order).
    Timeout(Duration),
    /// The peer hung up or the underlying connection broke.
    Disconnected(String),
    /// The peer sent bytes that cannot be a valid frame (implausible
    /// length, bad tag, sequence gap) — a desynced or hostile stream, not
    /// a liveness problem, so reconnecting would not help.
    Malformed(String),
    /// The peer stayed gone past the configured rejoin deadline: the
    /// session parked at the barrier waiting for a restart that never
    /// came.
    PeerLost { peer: usize, waited: Duration },
    /// A resume/restart needed a frame the retransmit ring no longer
    /// holds; `missing_seq` is the first sequence number that cannot be
    /// replayed.
    ResumeGap { peer: usize, missing_seq: u64 },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Timeout(after) => write!(f, "no message within {after:?}"),
            LinkError::Disconnected(why) => write!(f, "peer disconnected ({why})"),
            LinkError::Malformed(why) => write!(f, "malformed frame ({why})"),
            LinkError::PeerLost { peer, waited } => write!(
                f,
                "party {peer} did not rejoin within {waited:?} (rejoin deadline expired)"
            ),
            LinkError::ResumeGap { peer, missing_seq } => write!(
                f,
                "replay gap: party {peer} needs seq {missing_seq} but the retransmit ring starts later"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// A bidirectional, ordered, reliable byte pipe to one peer.
///
/// Implementations must preserve message boundaries and FIFO order per
/// direction — exactly the guarantees of a framed TCP stream or a pair of
/// channels. `send_bytes` should not block on the peer making progress
/// (buffer internally if needed): the SPMD collectives assume every party
/// can finish its sends before starting its receives.
pub trait Link: Send {
    /// The party id on the other end.
    fn peer(&self) -> usize;

    /// Queue one message for delivery to the peer.
    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), LinkError>;

    /// Block until the next message from the peer arrives, up to `timeout`.
    fn recv_bytes(&self, timeout: Duration) -> Result<Vec<u8>, LinkError>;

    /// Send `bytes` as the frame a `[faults]` `drop_link` severs.
    /// Returns `Ok(true)` when the link really severed its connection and
    /// its own reconnect records the recovery. The default has no
    /// connection to sever: it delivers the frame and returns `Ok(false)`,
    /// and the endpoint records the reconnect a real link would have.
    fn send_severed(&self, bytes: Vec<u8>) -> Result<bool, LinkError> {
        self.send_bytes(bytes).map(|()| false)
    }

    /// Mark the session as ended on purpose: the party finished its run.
    /// A backend with a connection then tells the peer when it drops, so
    /// the peer reads the closing socket as the end of the session rather
    /// than a break to redial; dropped without `close`, a link looks
    /// crashed. The default has no peer to tell.
    fn close(&self) {}

    /// Hand the owning endpoint's counter registry to the link, so
    /// backends with internal machinery (reconnect sessions) can record
    /// session-health events (`reconnects`, `replayed_frames`, …) from
    /// their own threads. Called once from `Endpoint::from_links`;
    /// backends with nothing to report keep the default no-op.
    fn attach_stats(&self, _counters: &Arc<Counters>) {}
}

/// In-process backend: a pair of unbounded channels per peer.
pub struct ChannelLink {
    peer: usize,
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl ChannelLink {
    /// Wire both directions of one party pair, returning `(a→b view,
    /// b→a view)` — i.e. the link party `a` holds for peer `b`, and the
    /// link party `b` holds for peer `a`.
    pub fn pair(a: usize, b: usize) -> (ChannelLink, ChannelLink) {
        assert_ne!(a, b, "a link connects two distinct parties");
        let (a_to_b_tx, a_to_b_rx) = unbounded();
        let (b_to_a_tx, b_to_a_rx) = unbounded();
        (
            ChannelLink {
                peer: b,
                tx: a_to_b_tx,
                rx: b_to_a_rx,
            },
            ChannelLink {
                peer: a,
                tx: b_to_a_tx,
                rx: a_to_b_rx,
            },
        )
    }
}

impl Link for ChannelLink {
    fn peer(&self) -> usize {
        self.peer
    }

    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), LinkError> {
        self.tx
            .send(bytes)
            .map_err(|_| LinkError::Disconnected("channel receiver dropped".into()))
    }

    fn recv_bytes(&self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => LinkError::Timeout(timeout),
            RecvTimeoutError::Disconnected => {
                LinkError::Disconnected("channel sender dropped".into())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_is_full_duplex() {
        let (at_a, at_b) = ChannelLink::pair(0, 1);
        assert_eq!(at_a.peer(), 1);
        assert_eq!(at_b.peer(), 0);
        at_a.send_bytes(vec![1, 2, 3]).unwrap();
        at_b.send_bytes(vec![9]).unwrap();
        assert_eq!(
            at_b.recv_bytes(Duration::from_secs(1)).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(at_a.recv_bytes(Duration::from_secs(1)).unwrap(), vec![9]);
    }

    #[test]
    fn recv_times_out_and_reports_duration() {
        let (at_a, _at_b) = ChannelLink::pair(0, 1);
        let err = at_a.recv_bytes(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, LinkError::Timeout(Duration::from_millis(10)));
        assert!(err.to_string().contains("10ms"), "{err}");
    }

    #[test]
    fn dropped_peer_is_disconnected() {
        let (at_a, at_b) = ChannelLink::pair(0, 1);
        drop(at_b);
        assert!(matches!(
            at_a.send_bytes(vec![0]),
            Err(LinkError::Disconnected(_))
        ));
        assert!(matches!(
            at_a.recv_bytes(Duration::from_millis(5)),
            Err(LinkError::Disconnected(_))
        ));
    }
}
