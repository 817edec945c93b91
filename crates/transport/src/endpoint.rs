//! The backend-agnostic endpoint and the in-process network.
//!
//! [`Endpoint`] implements every collective the protocols use — `send`,
//! `recv`, `broadcast`, `exchange_all`, `gather`, `scatter`,
//! `broadcast_from` — plus [`NetStats`] accounting and LAN simulation,
//! over a vector of boxed [`Link`]s. Which backend the links use
//! (in-process channels, TCP sockets) is invisible above this layer, so
//! byte counts and protocol behaviour are identical across deployments.

use crate::config::NetConfig;
use crate::error::{
    catch_failures, panic_message, Direction, RunFailure, TransportError, TransportErrorKind,
};
use crate::fault::FaultInjector;
use crate::link::{ChannelLink, Link, LinkError};
use crate::stats::NetStats;
use crate::wire::{decode_envelope, encode_envelope, Wire};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A fully connected `m`-party in-process network. Construct once, then
/// hand one [`Endpoint`] to each party thread.
pub struct Network {
    endpoints: Vec<Endpoint>,
}

/// One party's connection to all peers: `m - 1` links plus traffic
/// accounting and the per-endpoint [`NetConfig`].
///
/// # Frame coalescing
///
/// With [`Endpoint::set_coalescing`] on, sends are *staged* per peer
/// instead of hitting the link immediately, and every staged batch
/// travels as one envelope frame ([`crate::wire::encode_envelope`]) — so
/// the k independent messages a protocol step queues for the same peer
/// cost one link round-trip (and one simulated-latency charge) instead
/// of k. Three rules keep this transparent to the SPMD protocols:
///
/// 1. **Flush before blocking.** Every receive first flushes all staged
///    frames to all peers. Any cross-party wait chain passes through a
///    receive, so no dependency cycle can form on staged data.
/// 2. **Exact member accounting.** Each staged message is counted in
///    [`NetStats`] (and attributed to the *calling* trace span) at stage
///    time, byte-for-byte as the non-coalesced path would; envelope
///    framing is accounted separately as overhead bytes with no message
///    count.
/// 3. **Symmetry.** Both sides of a link must agree on the mode before
///    protocol bytes flow: the receiver demuxes envelopes, a raw frame
///    would be misparsed. Callers flip the knob at the same protocol
///    point on every party (in practice: from shared run parameters,
///    before the first message).
pub struct Endpoint {
    id: usize,
    m: usize,
    /// `links[j]` reaches party `j`; entry `id` is `None`.
    links: Vec<Option<Box<dyn Link>>>,
    stats: Arc<NetStats>,
    net: NetConfig,
    /// Whether sends are staged and framed as envelopes.
    coalescing: AtomicBool,
    /// Outbound staging buffers, one per peer (unused slot `id`).
    staged: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Inbound demux queues: member messages of already-received
    /// envelopes waiting for their `recv` call, one queue per peer.
    inbox: Vec<Mutex<VecDeque<Vec<u8>>>>,
    /// Scenario fault plan hook ([`Endpoint::set_fault_injector`]);
    /// `note_round` feeds it the deterministic round trigger.
    fault: OnceLock<Arc<FaultInjector>>,
    /// Checkpoint plane ([`Endpoint::enable_transcript`]): per-peer logs
    /// of every raw inbound link frame since genesis, plus replay queues
    /// preloaded from a checkpoint on `--resume`. `None` (the default)
    /// costs nothing and leaves the transcript byte-identical to builds
    /// that predate checkpointing.
    transcript: OnceLock<Vec<Mutex<PeerTranscript>>>,
}

/// One peer's inbound frame history for the checkpoint plane.
#[derive(Default)]
struct PeerTranscript {
    /// Every raw link frame consumed from this peer, in order, since
    /// genesis. Checkpoints serialize this log; its length is the durable
    /// delivery cursor presented in the restart handshake.
    log: Vec<Vec<u8>>,
    /// Frames loaded from a checkpoint, served before the live link so a
    /// restarted party re-executes deterministically up to the barrier.
    replay: VecDeque<Vec<u8>>,
}

impl Network {
    /// Create a fully connected in-process network of `m` parties, every
    /// endpoint carrying a clone of `net`.
    pub fn with_config(m: usize, net: NetConfig) -> Network {
        assert!(m >= 1, "network needs at least one party");
        // links[party][peer]; the diagonal stays None — no self link.
        let mut links: Vec<Vec<Option<Box<dyn Link>>>> =
            (0..m).map(|_| (0..m).map(|_| None).collect()).collect();
        for a in 0..m {
            for b in a + 1..m {
                let (at_a, at_b) = ChannelLink::pair(a, b);
                links[a][b] = Some(Box::new(at_a));
                links[b][a] = Some(Box::new(at_b));
            }
        }
        let endpoints = links
            .into_iter()
            .enumerate()
            .map(|(id, links)| Endpoint::from_links(id, links, net.clone()))
            .collect();
        Network { endpoints }
    }

    /// Take the endpoints (one per party, in id order).
    pub fn into_endpoints(self) -> Vec<Endpoint> {
        self.endpoints
    }
}

impl Endpoint {
    /// Assemble an endpoint from explicit links. `links[j]` must be a link
    /// whose `peer()` is `j` for every `j != id`, and `links[id]` must be
    /// `None` — there is no self link (and no placeholder channel standing
    /// in for one).
    pub fn from_links(id: usize, links: Vec<Option<Box<dyn Link>>>, net: NetConfig) -> Endpoint {
        let m = links.len();
        assert!(id < m, "party id {id} out of range for {m} links");
        for (j, link) in links.iter().enumerate() {
            match link {
                None => assert_eq!(j, id, "missing link to party {j}"),
                Some(l) => {
                    assert_ne!(j, id, "party {id} must not hold a self link");
                    assert_eq!(l.peer(), j, "slot {j} holds a link to party {}", l.peer());
                }
            }
        }
        let stats = NetStats::new();
        for link in links.iter().flatten() {
            link.attach_stats(&stats);
        }
        Endpoint {
            id,
            m,
            links,
            stats,
            net,
            coalescing: AtomicBool::new(false),
            staged: (0..m).map(|_| Mutex::new(Vec::new())).collect(),
            inbox: (0..m).map(|_| Mutex::new(VecDeque::new())).collect(),
            fault: OnceLock::new(),
            transcript: OnceLock::new(),
        }
    }

    /// Switch on the checkpoint plane: from now on every raw inbound
    /// link frame is logged per peer (protocol state is a deterministic
    /// function of the seed and this inbound transcript, which is what
    /// makes checkpoint/restart bit-identical). Must be enabled before
    /// the first receive; idempotent.
    pub fn enable_transcript(&self) {
        let _ = self.transcript.set(
            (0..self.m)
                .map(|_| Mutex::new(PeerTranscript::default()))
                .collect(),
        );
    }

    /// Whether [`Endpoint::enable_transcript`] has been called.
    pub fn transcript_enabled(&self) -> bool {
        self.transcript.get().is_some()
    }

    /// Queue checkpointed frames from `from` to be served before the live
    /// link (restart resume). Requires the transcript plane enabled.
    pub fn preload_replay(&self, from: usize, frames: Vec<Vec<u8>>) {
        let t = self.transcript.get().expect("transcript not enabled");
        t[from]
            .lock()
            .expect("transcript poisoned")
            .replay
            .extend(frames);
    }

    /// Durable delivery cursor for `from`: how many raw link frames of
    /// that peer's stream this endpoint has consumed since genesis.
    /// Zero when the transcript plane is off.
    pub fn transcript_consumed(&self, from: usize) -> u64 {
        self.transcript
            .get()
            .map(|t| t[from].lock().expect("transcript poisoned").log.len() as u64)
            .unwrap_or(0)
    }

    /// Snapshot the full inbound frame log for `from` (checkpoint
    /// serialization). Empty when the transcript plane is off.
    pub fn transcript_frames(&self, from: usize) -> Vec<Vec<u8>> {
        self.transcript
            .get()
            .map(|t| t[from].lock().expect("transcript poisoned").log.clone())
            .unwrap_or_default()
    }

    /// Announce the just-written durable checkpoint to every peer (each
    /// link learns this endpoint's logged-consumed cursor for it), so
    /// barrier-aligned ring retention can roll forward. Best-effort.
    pub fn checkpoint_mark_all(&self) {
        for peer in 0..self.m {
            if peer == self.id {
                continue;
            }
            self.link(peer)
                .checkpoint_mark(self.transcript_consumed(peer));
        }
    }

    /// Pop the next replayed inbound frame for `from`, if any.
    fn replay_frame(&self, from: usize) -> Option<Vec<u8>> {
        let t = self.transcript.get()?;
        t[from]
            .lock()
            .expect("transcript poisoned")
            .replay
            .pop_front()
    }

    /// Append one consumed raw link frame to `from`'s transcript log.
    /// Replayed frames re-enter the log too, so a checkpoint taken after
    /// a resume still covers the stream from genesis.
    fn log_frame(&self, from: usize, bytes: &[u8]) {
        if let Some(t) = self.transcript.get() {
            t[from]
                .lock()
                .expect("transcript poisoned")
                .log
                .push(bytes.to_vec());
        }
    }

    /// Attach a scenario fault injector. Links carrying their own
    /// injector hook (TCP sessions, [`crate::fault::FaultyLink`]) handle
    /// link faults; the endpoint only drives the round trigger and
    /// `crash_party at_round` firings via [`Endpoint::note_round`].
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        let _ = self.fault.set(injector);
    }

    /// Notify the fault plan that one MPC communication round completed.
    /// Called by the MPC engine at its round-counter bumps; a no-op
    /// without an installed injector. Raises a typed
    /// [`TransportErrorKind::InjectedCrash`] when a `crash_party`
    /// fault's round trigger fires on this party.
    pub fn note_round(&self) {
        if let Some(injector) = self.fault.get() {
            if let Some(reason) = injector.note_round() {
                self.stats.record_fault_injected();
                TransportError::new(TransportErrorKind::InjectedCrash, self.id, reason).raise();
            }
        }
    }

    /// Map a failed link operation into a typed raise.
    fn raise_link_error(
        &self,
        peer: usize,
        direction: Direction,
        err: LinkError,
        elapsed: std::time::Duration,
    ) -> ! {
        let kind = match err {
            LinkError::Timeout(_) => TransportErrorKind::Timeout,
            LinkError::Disconnected(_) => TransportErrorKind::Disconnected,
            LinkError::Malformed(_) => TransportErrorKind::Malformed,
            LinkError::PeerLost { .. } => TransportErrorKind::PeerLost,
            LinkError::ResumeGap { .. } => TransportErrorKind::ResumeGap,
        };
        let mut typed = TransportError::new(kind, self.id, err.to_string())
            .on_link(peer, direction)
            .after(elapsed);
        if let LinkError::ResumeGap { missing_seq, .. } = err {
            typed = typed.with_missing_seq(missing_seq);
        }
        typed.raise()
    }

    /// This party's id in `0..m`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.m
    }

    /// Traffic counters for this endpoint.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// The network settings this endpoint operates under.
    pub fn net(&self) -> &NetConfig {
        &self.net
    }

    fn link(&self, to: usize) -> &dyn Link {
        assert!(
            to < self.m,
            "party {} addressing party {to} of {}",
            self.id,
            self.m
        );
        assert_ne!(to, self.id, "party {to} has no link to itself");
        self.links[to].as_deref().expect("validated in from_links")
    }

    /// Whether frame coalescing is active.
    pub fn coalescing(&self) -> bool {
        self.coalescing.load(Ordering::Relaxed)
    }

    /// Switch frame coalescing on or off. Must be flipped at the same
    /// protocol point on every party (see the type-level docs); turning
    /// it off flushes anything still staged.
    pub fn set_coalescing(&self, on: bool) {
        if !on && self.coalescing() {
            self.flush();
        }
        self.coalescing.store(on, Ordering::Relaxed);
    }

    /// Push every staged frame onto its link, one envelope per peer.
    /// Called automatically before any blocking receive (rule 1 of the
    /// coalescing contract) and from `Drop`; call sites may also flush
    /// explicitly at phase boundaries, e.g. before reading [`NetStats`]
    /// snapshots.
    pub fn flush(&self) {
        self.flush_staged(false);
    }

    fn flush_staged(&self, best_effort: bool) {
        if !self.coalescing() {
            return;
        }
        for to in 0..self.m {
            if to == self.id {
                continue;
            }
            let staged = std::mem::take(&mut *self.staged[to].lock().expect("staging poisoned"));
            if staged.is_empty() {
                continue;
            }
            let frame = encode_envelope(&staged);
            let overhead = frame.len() - staged.iter().map(Vec::len).sum::<usize>();
            self.stats.record_send_overhead(overhead);
            pivot_trace::add_sent(overhead as u64);
            // One latency charge for the whole envelope — this is the
            // round-trip the coalescing saves over per-message sends.
            self.net.charge_send(frame.len());
            match self.link(to).send_bytes(frame) {
                Ok(()) => {}
                Err(_) if best_effort => {}
                Err(e) => self.raise_link_error(to, Direction::Send, e, std::time::Duration::ZERO),
            }
        }
    }

    /// Account + simulate + hand one encoded message to a link — or, in
    /// coalescing mode, stage it for the next flush. Stats and trace
    /// bytes are attributed here either way, so the message is charged
    /// to the protocol span that produced it, not to the flush site.
    fn push(&self, to: usize, bytes: Vec<u8>) {
        self.stats.record_send(bytes.len());
        pivot_trace::add_sent(bytes.len() as u64);
        if self.coalescing() {
            self.staged[to]
                .lock()
                .expect("staging poisoned")
                .push(bytes);
            return;
        }
        self.net.charge_send(bytes.len());
        if let Err(e) = self.link(to).send_bytes(bytes) {
            self.raise_link_error(to, Direction::Send, e, std::time::Duration::ZERO);
        }
    }

    /// Send a message to party `to`.
    pub fn send<T: Wire>(&self, to: usize, msg: &T) {
        self.push(to, msg.to_wire());
    }

    /// Receive the next raw payload from `from`, demuxing envelopes in
    /// coalescing mode. The blocking wait (if any) is what trace
    /// `wait_ns` measures — messages already demuxed into the inbox are
    /// free, which is exactly the latency hiding coalescing buys.
    fn recv_raw(&self, from: usize) -> Vec<u8> {
        if self.coalescing() {
            // Never block while holding our own unsent messages: a peer
            // may need them before it can produce what we wait for.
            self.flush_staged(false);
            if let Some(msg) = self.inbox[from].lock().expect("inbox poisoned").pop_front() {
                return msg;
            }
        }
        let start = std::time::Instant::now();
        let bytes = match self.replay_frame(from) {
            Some(bytes) => bytes,
            None => match self.link(from).recv_bytes(self.net.recv_timeout) {
                Ok(bytes) => bytes,
                Err(e) => self.raise_link_error(from, Direction::Recv, e, start.elapsed()),
            },
        };
        self.log_frame(from, &bytes);
        if pivot_trace::enabled() {
            pivot_trace::add_wait_ns(start.elapsed().as_nanos() as u64);
        }
        if !self.coalescing() {
            return bytes;
        }
        let mut msgs = match decode_envelope(&bytes) {
            Ok(msgs) if !msgs.is_empty() => msgs,
            Ok(_) => self.raise_link_error(
                from,
                Direction::Recv,
                LinkError::Malformed("empty envelope".into()),
                start.elapsed(),
            ),
            Err(e) => self.raise_link_error(
                from,
                Direction::Recv,
                LinkError::Malformed(format!(
                    "{e} (coalescing must be enabled symmetrically on all parties)"
                )),
                start.elapsed(),
            ),
        };
        let overhead = bytes.len() - msgs.iter().map(Vec::len).sum::<usize>();
        self.stats.record_recv_overhead(overhead);
        pivot_trace::add_recv(overhead as u64);
        let first = msgs.remove(0);
        self.inbox[from]
            .lock()
            .expect("inbox poisoned")
            .extend(msgs);
        first
    }

    /// Blocking receive of one message from party `from`. If nothing
    /// arrives within the [`NetConfig::recv_timeout`] wedge deadline (or
    /// the bytes do not parse), raises a typed [`TransportError`] naming
    /// the pending peer, direction, and phase — catch it at the protocol
    /// boundary with [`crate::catch_transport`].
    pub fn recv<T: Wire>(&self, from: usize) -> T {
        let bytes = self.recv_raw(from);
        self.stats.record_recv(bytes.len());
        pivot_trace::add_recv(bytes.len() as u64);
        match T::from_wire(&bytes) {
            Ok(v) => v,
            Err(e) => self.raise_link_error(
                from,
                Direction::Recv,
                LinkError::Malformed(e.to_string()),
                std::time::Duration::ZERO,
            ),
        }
    }

    /// Send `msg` to every other party.
    pub fn broadcast<T: Wire>(&self, msg: &T) {
        let bytes = msg.to_wire();
        for to in 0..self.m {
            if to == self.id {
                continue;
            }
            self.push(to, bytes.clone());
        }
    }

    /// All-to-all exchange: every party broadcasts `msg` and receives one
    /// value from each peer. Returns the vector indexed by party id (own
    /// value included at `self.id()`).
    pub fn exchange_all<T: Wire + Clone>(&self, msg: &T) -> Vec<T> {
        self.broadcast(msg);
        (0..self.m)
            .map(|from| {
                if from == self.id {
                    msg.clone()
                } else {
                    self.recv(from)
                }
            })
            .collect()
    }

    /// Gather at party `at`: everyone sends `msg` to `at`; `at` returns the
    /// full vector (indexed by party id), the rest return `None`.
    pub fn gather<T: Wire + Clone>(&self, at: usize, msg: &T) -> Option<Vec<T>> {
        if self.id == at {
            Some(
                (0..self.m)
                    .map(|from| {
                        if from == at {
                            msg.clone()
                        } else {
                            self.recv(from)
                        }
                    })
                    .collect(),
            )
        } else {
            self.send(at, msg);
            None
        }
    }

    /// Scatter from party `root`: the root provides one value per party and
    /// each party receives its own (the root keeps element `root`).
    pub fn scatter<T: Wire + Clone>(&self, root: usize, values: Option<&[T]>) -> T {
        if self.id == root {
            let values = values.expect("root must supply scatter values");
            assert_eq!(values.len(), self.m, "scatter needs one value per party");
            for (to, v) in values.iter().enumerate() {
                if to != root {
                    self.send(to, v);
                }
            }
            values[root].clone()
        } else {
            self.recv(root)
        }
    }

    /// Broadcast from a single designated `root`: root sends, others receive.
    pub fn broadcast_from<T: Wire + Clone>(&self, root: usize, msg: Option<&T>) -> T {
        if self.id == root {
            let msg = msg.expect("root must supply the broadcast value");
            self.broadcast(msg);
            msg.clone()
        } else {
            self.recv(root)
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // End-of-run safety net: a party whose final protocol act is a
        // send (e.g. the last gather contribution) would otherwise strand
        // it in staging. Best-effort — peers may already be gone.
        self.flush_staged(true);
    }
}

/// Run an SPMD closure on `m` threads, one per party, and collect the
/// results in party order, with no LAN simulation. This mirrors the
/// paper's "one process per client" deployment at thread granularity;
/// `pivot party` runs the same closure shape across real processes over
/// TCP.
pub fn run_parties<T, F>(m: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Endpoint) -> T + Send + Sync,
{
    run_parties_with(m, NetConfig::default(), f)
}

/// [`run_parties`] with an explicit per-run [`NetConfig`] — the form bench
/// sweeps use to vary network settings across runs within one process.
pub fn run_parties_with<T, F>(m: usize, net: NetConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Endpoint) -> T + Send + Sync,
{
    run_parties_on(Network::with_config(m, net).into_endpoints(), f)
}

/// Run the SPMD closure over pre-built endpoints (one thread per
/// endpoint), panicking with every failed party's original payload if
/// any thread fails.
pub fn run_parties_on<T, F>(endpoints: Vec<Endpoint>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Endpoint) -> T + Send + Sync,
{
    let slots = endpoint_slots(endpoints);
    join_parties(slots.len(), |i| f(take_endpoint(&slots, i)))
}

/// Fault-tolerant SPMD harness: every party's outcome is collected — a
/// party that dies with a typed [`TransportError`] or
/// [`crate::ProtocolError`] yields `Err` in its slot instead of aborting
/// the whole run, so callers see *all* failures as data. Untyped panics
/// (real bugs) still abort, re-raised with every failing party's
/// original payload.
pub fn try_run_parties_with<T, F>(m: usize, net: NetConfig, f: F) -> Vec<Result<T, RunFailure>>
where
    T: Send,
    F: Fn(Endpoint) -> T + Send + Sync,
{
    try_run_parties_on(Network::with_config(m, net).into_endpoints(), f)
}

/// [`try_run_parties_with`] over pre-built endpoints (e.g. a faulty
/// network from [`crate::fault`]).
pub fn try_run_parties_on<T, F>(endpoints: Vec<Endpoint>, f: F) -> Vec<Result<T, RunFailure>>
where
    T: Send,
    F: Fn(Endpoint) -> T + Send + Sync,
{
    let slots = endpoint_slots(endpoints);
    join_parties(slots.len(), |i| {
        catch_failures(|| f(take_endpoint(&slots, i)))
    })
}

fn endpoint_slots(endpoints: Vec<Endpoint>) -> Vec<Mutex<Option<Endpoint>>> {
    endpoints
        .into_iter()
        .map(|ep| Mutex::new(Some(ep)))
        .collect()
}

fn take_endpoint(slots: &[Mutex<Option<Endpoint>>], i: usize) -> Endpoint {
    slots[i]
        .lock()
        .expect("endpoint slot poisoned")
        .take()
        .expect("each slot taken once")
}

/// Shared SPMD scaffolding: one thread per party running `run(i)`,
/// results collected in party order. A panicking party no longer masks
/// the rest: every thread is joined, and the harness re-panics with the
/// original payload message of *every* failed party, not just the lowest
/// index. Both the in-process backend and the loopback-TCP helper
/// ([`crate::tcp::run_parties_tcp`]) drive their threads through this
/// one definition.
pub(crate) fn join_parties<T, R>(m: usize, run: R) -> Vec<T>
where
    T: Send,
    R: Fn(usize) -> T + Send + Sync,
{
    let mut slots: Vec<Option<T>> = (0..m).map(|_| None).collect();
    let mut failures: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(m);
        for (i, slot) in slots.iter_mut().enumerate() {
            let run = &run;
            handles.push(scope.spawn(move || *slot = Some(run(i))));
        }
        for (i, h) in handles.into_iter().enumerate() {
            if let Err(payload) = h.join() {
                failures.push(format!("party {i} panicked: {}", panic_message(&*payload)));
            }
        }
    });
    if !failures.is_empty() {
        panic!("{}", failures.join("; "));
    }
    slots
        .into_iter()
        .map(|s| s.expect("all parties joined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::catch_transport;
    use std::time::Duration;

    #[test]
    fn point_to_point() {
        let results = run_parties(2, |ep| {
            if ep.id() == 0 {
                ep.send(1, &42u64);
                0u64
            } else {
                ep.recv::<u64>(0)
            }
        });
        assert_eq!(results, vec![0, 42]);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let results = run_parties(4, |ep| {
            if ep.id() == 0 {
                ep.broadcast(&"hello".to_string());
                "root".to_string()
            } else {
                ep.recv::<String>(0)
            }
        });
        assert_eq!(results[1], "hello");
        assert_eq!(results[3], "hello");
    }

    #[test]
    fn exchange_all_collects_in_order() {
        let results = run_parties(3, |ep| ep.exchange_all(&(ep.id() as u64 * 10)));
        for r in results {
            assert_eq!(r, vec![0, 10, 20]);
        }
    }

    #[test]
    fn gather_only_root_sees_values() {
        let results = run_parties(3, |ep| ep.gather(1, &(ep.id() as u64)));
        assert!(results[0].is_none());
        assert_eq!(results[1], Some(vec![0, 1, 2]));
        assert!(results[2].is_none());
    }

    #[test]
    fn scatter_distributes_values() {
        let results = run_parties(3, |ep| {
            let vals = if ep.id() == 0 {
                Some(vec![100u64, 200, 300])
            } else {
                None
            };
            ep.scatter(0, vals.as_deref())
        });
        assert_eq!(results, vec![100, 200, 300]);
    }

    #[test]
    fn broadcast_from_root_round() {
        let results = run_parties(3, |ep| {
            let msg = if ep.id() == 2 { Some(7u64) } else { None };
            ep.broadcast_from(2, msg.as_ref())
        });
        assert_eq!(results, vec![7, 7, 7]);
    }

    #[test]
    fn stats_count_bytes() {
        let results = run_parties(2, |ep| {
            if ep.id() == 0 {
                ep.send(1, &vec![1u64, 2, 3]);
                ep.stats().bytes_sent()
            } else {
                let _: Vec<u64> = ep.recv(0);
                ep.stats().bytes_received()
            }
        });
        // 8 (length) + 3*8 (elements) = 32 bytes.
        assert_eq!(results, vec![32, 32]);
    }

    #[test]
    fn many_messages_in_flight() {
        let results = run_parties(2, |ep| {
            if ep.id() == 0 {
                for i in 0..1000u64 {
                    ep.send(1, &i);
                }
                0
            } else {
                (0..1000).map(|_| ep.recv::<u64>(0)).sum::<u64>()
            }
        });
        assert_eq!(results[1], 499_500);
    }

    #[test]
    fn per_endpoint_latency_is_charged() {
        // 20 sends × 2 ms latency ⇒ at least 40 ms of simulated wire time,
        // configured per run rather than via process-global env vars.
        let net = NetConfig {
            latency: Duration::from_millis(2),
            ..NetConfig::default()
        };
        let start = std::time::Instant::now();
        run_parties_with(2, net, |ep| {
            if ep.id() == 0 {
                for i in 0..20u64 {
                    ep.send(1, &i);
                }
            } else {
                for _ in 0..20 {
                    let _: u64 = ep.recv(0);
                }
            }
        });
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "latency not charged: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn two_configs_coexist_in_one_process() {
        // The old OnceLock latched the first configuration forever; now a
        // sweep can build back-to-back networks with different settings.
        let timed = |net: NetConfig| {
            let start = std::time::Instant::now();
            run_parties_with(2, net, |ep| {
                if ep.id() == 0 {
                    for i in 0..10u64 {
                        ep.send(1, &i);
                    }
                } else {
                    for _ in 0..10 {
                        let _: u64 = ep.recv(0);
                    }
                }
            });
            start.elapsed()
        };
        let slow = timed(NetConfig {
            latency: Duration::from_millis(3),
            ..NetConfig::default()
        });
        let fast = timed(NetConfig::default());
        assert!(slow >= Duration::from_millis(30), "slow run {slow:?}");
        assert!(fast < slow, "fast {fast:?} vs slow {slow:?}");
    }

    #[test]
    fn wedge_raises_typed_error_naming_peer_and_direction() {
        let net = NetConfig {
            recv_timeout: Duration::from_millis(30),
            ..NetConfig::default()
        };
        let mut endpoints = Network::with_config(2, net).into_endpoints();
        let ep1 = endpoints.remove(1);
        let err = catch_transport(|| ep1.recv::<u64>(0)).expect_err("recv must fail on wedge");
        assert_eq!(err.kind, TransportErrorKind::Timeout);
        assert_eq!(err.party, 1);
        assert_eq!(err.peer, Some(0));
        assert_eq!(err.direction, Some(Direction::Recv));
        assert!(
            err.elapsed >= Duration::from_millis(30),
            "{:?}",
            err.elapsed
        );
        assert!(err.detail.contains("30ms"), "{}", err.detail);
    }

    #[test]
    fn dropped_peer_raises_typed_disconnect() {
        let mut endpoints = Network::with_config(2, NetConfig::default()).into_endpoints();
        let ep1 = endpoints.remove(1);
        drop(endpoints); // party 0's endpoint (and its channel halves) gone
        let err = catch_transport(|| ep1.recv::<u64>(0)).expect_err("recv must fail");
        assert_eq!(err.kind, TransportErrorKind::Disconnected);
        let err = catch_transport(|| ep1.send(0, &1u64)).expect_err("send must fail");
        assert_eq!(err.kind, TransportErrorKind::Disconnected);
        assert_eq!(err.direction, Some(Direction::Send));
    }

    #[test]
    fn malformed_payload_raises_typed_error_not_panic() {
        let endpoints = Network::with_config(2, NetConfig::default()).into_endpoints();
        let ep1 = &endpoints[1];
        endpoints[0].send(1, &7u8); // one byte: not a valid u64
        let err = catch_transport(|| ep1.recv::<u64>(0)).expect_err("decode must fail");
        assert_eq!(err.kind, TransportErrorKind::Malformed);
        assert_eq!(err.peer, Some(0));
    }

    #[test]
    fn join_reports_all_failed_parties_with_payloads() {
        let outcome = std::panic::catch_unwind(|| {
            run_parties(3, |ep| match ep.id() {
                0 => panic!("boom zero"),
                2 => panic!("boom two"),
                _ => (),
            })
        });
        let payload = outcome.expect_err("harness must propagate failures");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("party 0 panicked: boom zero"), "{msg}");
        assert!(msg.contains("party 2 panicked: boom two"), "{msg}");
    }

    #[test]
    fn try_run_collects_every_party_outcome() {
        let net = NetConfig {
            recv_timeout: Duration::from_millis(50),
            ..NetConfig::default()
        };
        // Party 0 exits immediately; 1 and 2 wait on it and both fail —
        // and both failures surface, not just the lowest index.
        let results = try_run_parties_with(3, net, |ep| {
            if ep.id() == 0 {
                7u64
            } else {
                ep.recv::<u64>(0)
            }
        });
        assert_eq!(results[0], Ok(7));
        for (i, r) in results.iter().enumerate().skip(1) {
            let err = r.as_ref().expect_err("waiting parties must fail");
            let RunFailure::Transport(err) = err else {
                panic!("expected transport failure, got {err:?}");
            };
            assert_eq!(err.party, i);
            assert_eq!(err.peer, Some(0));
        }
    }

    /// Coalescing mode must be protocol-transparent: same results, same
    /// member byte/message counts, envelope overhead accounted on top.
    #[test]
    fn coalescing_preserves_results_and_member_accounting() {
        let run = |coalesce: bool| {
            run_parties(3, move |ep| {
                ep.set_coalescing(coalesce);
                // Several independent exchanges back-to-back, like the
                // opening bursts a batched protocol step issues.
                let a = ep.exchange_all(&(ep.id() as u64));
                let b = ep.exchange_all(&vec![ep.id() as u64; 4]);
                let sent = ep.stats().messages_sent();
                let recvd = ep.stats().messages_received();
                (a, b, sent, recvd)
            })
        };
        let plain = run(false);
        let coalesced = run(true);
        for (p, c) in plain.iter().zip(&coalesced) {
            assert_eq!(p.0, c.0);
            assert_eq!(p.1, c.1);
            // Member message counts identical across modes.
            assert_eq!(p.2, c.2);
            assert_eq!(p.3, c.3);
        }
    }

    #[test]
    fn coalescing_accounts_envelope_overhead_as_bytes_only() {
        let results = run_parties(2, |ep| {
            ep.set_coalescing(true);
            if ep.id() == 0 {
                ep.send(1, &1u64);
                ep.send(1, &2u64);
                ep.flush();
                (ep.stats().bytes_sent(), ep.stats().messages_sent())
            } else {
                let x: u64 = ep.recv(0);
                let y: u64 = ep.recv(0);
                assert_eq!((x, y), (1, 2));
                (ep.stats().bytes_received(), ep.stats().messages_received())
            }
        });
        // 2 member messages of 8 bytes + envelope header 8 + 2×8 len words.
        let expected_bytes = 16 + crate::wire::envelope_overhead(2) as u64;
        assert_eq!(results[0], (expected_bytes, 2));
        assert_eq!(results[1], (expected_bytes, 2));
    }

    #[test]
    fn coalescing_charges_latency_once_per_envelope() {
        // 10 messages to the same peer at 5 ms latency: per-message
        // charging would sleep ≥50 ms, one envelope sleeps ~5 ms.
        let net = NetConfig {
            latency: Duration::from_millis(5),
            ..NetConfig::default()
        };
        let start = std::time::Instant::now();
        run_parties_with(2, net, |ep| {
            ep.set_coalescing(true);
            if ep.id() == 0 {
                for i in 0..10u64 {
                    ep.send(1, &i);
                }
            } else {
                for want in 0..10u64 {
                    assert_eq!(ep.recv::<u64>(0), want);
                }
            }
        });
        assert!(
            start.elapsed() < Duration::from_millis(30),
            "coalesced burst took {:?}, envelope latency not merged",
            start.elapsed()
        );
    }

    #[test]
    fn coalescing_gather_then_scatter_does_not_deadlock() {
        // Root blocks on contributions that peers have only staged; the
        // flush-before-recv rule must release them.
        let results = run_parties(3, |ep| {
            ep.set_coalescing(true);
            let gathered = ep.gather(0, &(ep.id() as u64 + 1));
            let vals = gathered.map(|v| v.iter().map(|x| x * 10).collect::<Vec<u64>>());
            ep.scatter(0, vals.as_deref())
        });
        assert_eq!(results, vec![10, 20, 30]);
    }

    #[test]
    fn from_links_rejects_misrouted_links() {
        let (at_a, _at_b) = ChannelLink::pair(0, 1);
        // Slot 1 holding a link whose peer is 1 is fine...
        let ep = Endpoint::from_links(0, vec![None, Some(Box::new(at_a))], NetConfig::default());
        assert_eq!(ep.parties(), 2);
        // ...but a link in the wrong slot must be refused.
        let (at_a, _at_b) = ChannelLink::pair(0, 2);
        let misrouted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Endpoint::from_links(0, vec![None, Some(Box::new(at_a))], NetConfig::default())
        }));
        assert!(misrouted.is_err());
    }
}
