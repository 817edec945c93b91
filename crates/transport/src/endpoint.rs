//! The backend-agnostic endpoint and the in-process network.
//!
//! [`Endpoint`] implements every collective the protocols use — `send`,
//! `recv`, `broadcast`, `exchange_all`, `gather`, `scatter`,
//! `broadcast_from` — plus traffic accounting into the party's
//! [`Counters`] registry and LAN simulation,
//! over a vector of boxed [`Link`]s. Which backend the links use
//! (in-process channels, TCP sockets) is invisible above this layer, so
//! byte counts and protocol behaviour are identical across deployments.
//! The endpoint frames every send as an envelope and is the one place a
//! `[faults]` plan fires ([`Endpoint::set_fault_injector`]), so a plan
//! has one outcome on every backend.
//!
//! The endpoint keeps no inbound history: a receive reads its link and
//! nothing else. A party restarted from a checkpoint re-executes from
//! genesis and is fed again by its peers' retransmit rings (the restart
//! splice in [`crate::tcp`]), so no frame is recorded here.

use crate::config::NetConfig;
use crate::error::{
    catch_failures, panic_message, Direction, RunFailure, TransportError, TransportErrorKind,
};
use crate::fault::FaultInjector;
use crate::link::{ChannelLink, Link, LinkError};
use crate::wire::{decode_envelope, encode_envelope, Wire};
use pivot_trace::{Counter, Counters};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// A fully connected `m`-party in-process network. Construct once, then
/// hand one [`Endpoint`] to each party thread.
pub struct Network {
    endpoints: Vec<Endpoint>,
}

/// One party's connection to all peers: `m - 1` links, the party's
/// counter registry and the per-endpoint [`NetConfig`].
///
/// # Envelope framing
///
/// Sends are *staged* per peer instead of hitting the link immediately,
/// and every staged batch travels as one envelope frame
/// ([`crate::wire::encode_envelope`]) — so the k independent messages a
/// protocol step queues for the same peer cost one link round-trip (and
/// one simulated-latency charge) instead of k. Two rules keep this
/// transparent to the SPMD protocols:
///
/// 1. **Flush before blocking.** Every receive first flushes all staged
///    frames to all peers. Any cross-party wait chain passes through a
///    receive, so no dependency cycle can form on staged data.
/// 2. **Exact member accounting.** Each staged message is counted in
///    the registry (and so attributed to the *calling* trace span) at
///    stage time; envelope framing is accounted separately as overhead
///    bytes with no message count.
pub struct Endpoint {
    id: usize,
    m: usize,
    /// `links[j]` reaches party `j`; entry `id` is `None`.
    links: Vec<Option<Box<dyn Link>>>,
    /// The party's counter registry: this endpoint's traffic, its
    /// links' session health, and everything the protocol layers above
    /// record.
    counters: Arc<Counters>,
    net: NetConfig,
    /// Outbound staging buffers, one per peer (unused slot `id`).
    staged: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Inbound demux queues: member messages of already-received
    /// envelopes waiting for their `recv` call, one queue per peer.
    inbox: Vec<Mutex<VecDeque<Vec<u8>>>>,
    /// Scenario fault plan ([`Endpoint::set_fault_injector`]): fired
    /// at every envelope `flush_staged` hands to a link, and fed the
    /// deterministic round trigger by `note_round`.
    fault: OnceLock<Arc<FaultInjector>>,
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
        let counters = Counters::new();
        for link in links.iter().flatten() {
            link.attach_stats(&counters);
        }
        Endpoint {
            id,
            m,
            links,
            counters,
            net,
            staged: (0..m).map(|_| Mutex::new(Vec::new())).collect(),
            inbox: (0..m).map(|_| Mutex::new(VecDeque::new())).collect(),
            fault: OnceLock::new(),
        }
    }

    /// Attach a scenario fault injector. The endpoint applies it on
    /// every backend: link faults and byte-triggered crashes fire where
    /// an envelope goes to its link, round-triggered crashes in
    /// [`Endpoint::note_round`].
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
                self.counters.add(Counter::FaultsInjected, 1);
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

    /// The party's counter registry.
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// Kept for `benchmark/src/micro.rs` (`ep.stats().bytes_sent()`);
    /// deleted by the next `benchmark` PR, which reads the registry.
    pub fn stats(&self) -> &Self {
        self
    }

    /// See [`Endpoint::stats`].
    pub fn bytes_sent(&self) -> u64 {
        self.counters.get(Counter::BytesSent)
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

    /// End the session on purpose once this party's run is complete: the
    /// staged tail goes out (as on every drop), then every peer learns
    /// that no resume follows ([`Link::close`]). Dropping an endpoint
    /// without `close` looks like a crash to its peers.
    pub fn close(self) {
        for link in self.links.iter().flatten() {
            link.close();
        }
    }

    /// Push every staged frame onto its link, one envelope per peer.
    /// Called automatically before any blocking receive (rule 1 of the
    /// framing contract) and from `Drop`; call sites may also flush
    /// explicitly at phase boundaries, e.g. before snapshotting the
    /// registry.
    pub fn flush(&self) {
        self.flush_staged(false);
    }

    fn flush_staged(&self, best_effort: bool) {
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
            self.counters.add(Counter::BytesSent, overhead as u64);
            // One latency charge for the whole envelope — this is the
            // round-trip the framing saves over per-message sends.
            self.net.charge_send(frame.len());
            match self.send_frame(to, frame) {
                Ok(()) => {}
                Err(_) if best_effort => {}
                Err(e) => self.raise_link_error(to, Direction::Send, e, std::time::Duration::ZERO),
            }
        }
    }

    /// Hand one envelope to its link — the only place the endpoint
    /// sends, so the only place a `[faults]` plan fires. The injector
    /// decides on the protocol thread, so a plan fires at the same frame
    /// on every backend and every run.
    fn send_frame(&self, to: usize, frame: Vec<u8>) -> Result<(), LinkError> {
        let link = self.link(to);
        let Some(injector) = self.fault.get() else {
            return link.send_bytes(frame);
        };
        let fault = injector.on_send(to, frame.len());
        if let Some(reason) = fault.crash {
            self.counters.add(Counter::FaultsInjected, 1);
            // A party already unwinding (the flush in `Drop`) is failing
            // with its own error; a second panic would abort the process.
            // The crash withholds the frame instead.
            if std::thread::panicking() {
                return Err(LinkError::Disconnected(reason));
            }
            TransportError::new(TransportErrorKind::InjectedCrash, self.id, reason).raise();
        }
        if let Some(delay) = fault.delay {
            self.counters.add(Counter::FaultsInjected, 1);
            std::thread::sleep(delay);
        }
        if !fault.drop_link {
            return link.send_bytes(frame);
        }
        self.counters.add(Counter::FaultsInjected, 1);
        if !link.send_severed(frame)? {
            // A link with no connection to sever delivered the frame:
            // record the reconnect and replay a real session would, and
            // the outage window it would spend redialing.
            self.counters.add(Counter::Reconnects, 1);
            self.counters.add(Counter::ReplayedFrames, 1);
            let _span = pivot_trace::phase_span("reconnect");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        Ok(())
    }

    /// Account one encoded message and stage it for the next flush. The
    /// bytes are counted here, so the message is charged to the protocol
    /// span that produced it, not to the flush site.
    fn push(&self, to: usize, bytes: Vec<u8>) {
        self.counters.add(Counter::BytesSent, bytes.len() as u64);
        self.counters.add(Counter::MessagesSent, 1);
        self.staged[to]
            .lock()
            .expect("staging poisoned")
            .push(bytes);
    }

    /// Send a message to party `to`.
    pub fn send<T: Wire>(&self, to: usize, msg: &T) {
        self.push(to, msg.to_wire());
    }

    /// Receive the next member payload from `from`, demuxing envelopes.
    /// The blocking wait (if any) is what [`Counter::RecvWaitNs`]
    /// measures — messages already demuxed into the inbox are free, which
    /// is exactly the latency hiding envelopes buy.
    fn recv_raw(&self, from: usize) -> Vec<u8> {
        // Never block while holding our own unsent messages: a peer may
        // need them before it can produce what we wait for.
        self.flush_staged(false);
        if let Some(msg) = self.inbox[from].lock().expect("inbox poisoned").pop_front() {
            return msg;
        }
        let start = std::time::Instant::now();
        let bytes = match self.link(from).recv_bytes(self.net.recv_timeout) {
            Ok(bytes) => bytes,
            Err(e) => self.raise_link_error(from, Direction::Recv, e, start.elapsed()),
        };
        self.counters
            .add_duration(Counter::RecvWaitNs, start.elapsed());
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
                LinkError::Malformed(e.to_string()),
                start.elapsed(),
            ),
        };
        let overhead = bytes.len() - msgs.iter().map(Vec::len).sum::<usize>();
        self.counters.add(Counter::BytesReceived, overhead as u64);
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
    /// boundary with [`crate::catch_failures`].
    pub fn recv<T: Wire>(&self, from: usize) -> T {
        let bytes = self.recv_raw(from);
        self.counters
            .add(Counter::BytesReceived, bytes.len() as u64);
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
        // it in staging. Best-effort — peers may already be gone — and it
        // never raises while the party unwinds (`send_frame`).
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

/// [`try_run_parties_with`] over pre-built endpoints (e.g. ones carrying
/// a [`FaultInjector`]).
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
                ep.counters().get(Counter::BytesSent)
            } else {
                let _: Vec<u64> = ep.recv(0);
                ep.counters().get(Counter::BytesReceived)
            }
        });
        // 8 (length) + 3*8 (elements) = 32 bytes, staged on the send side;
        // the receive side also reads the one-member envelope's framing.
        let framed = 32 + crate::wire::envelope_overhead(1) as u64;
        assert_eq!(results, vec![32, framed]);
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
        // 20 envelopes × 2 ms latency ⇒ at least 40 ms of simulated wire
        // time, configured per run rather than via process-global env vars.
        let net = NetConfig {
            latency: Duration::from_millis(2),
            ..NetConfig::default()
        };
        let start = std::time::Instant::now();
        run_parties_with(2, net, |ep| {
            if ep.id() == 0 {
                for i in 0..20u64 {
                    ep.send(1, &i);
                    ep.flush();
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
                        ep.flush();
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
        let Err(RunFailure::Transport(err)) = catch_failures(|| ep1.recv::<u64>(0)) else {
            panic!("recv must fail on wedge");
        };
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
        let Err(RunFailure::Transport(err)) = catch_failures(|| ep1.recv::<u64>(0)) else {
            panic!("recv must fail");
        };
        assert_eq!(err.kind, TransportErrorKind::Disconnected);
        let Err(RunFailure::Transport(err)) = catch_failures(|| {
            ep1.send(0, &1u64);
            ep1.flush();
        }) else {
            panic!("send must fail");
        };
        assert_eq!(err.kind, TransportErrorKind::Disconnected);
        assert_eq!(err.direction, Some(Direction::Send));
    }

    #[test]
    fn malformed_payload_raises_typed_error_not_panic() {
        let endpoints = Network::with_config(2, NetConfig::default()).into_endpoints();
        let ep1 = &endpoints[1];
        endpoints[0].send(1, &7u8); // one byte: not a valid u64
        endpoints[0].flush();
        let Err(RunFailure::Transport(err)) = catch_failures(|| ep1.recv::<u64>(0)) else {
            panic!("decode must fail");
        };
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

    #[test]
    fn coalescing_accounts_envelope_overhead_as_bytes_only() {
        let results = run_parties(2, |ep| {
            if ep.id() == 0 {
                ep.send(1, &1u64);
                ep.send(1, &2u64);
                ep.flush();
                assert_eq!(ep.counters().get(Counter::MessagesSent), 2);
                ep.counters().get(Counter::BytesSent)
            } else {
                let x: u64 = ep.recv(0);
                let y: u64 = ep.recv(0);
                assert_eq!((x, y), (1, 2));
                ep.counters().get(Counter::BytesReceived)
            }
        });
        // 2 member messages of 8 bytes + envelope header 8 + 2×8 len words.
        let expected_bytes = 16 + crate::wire::envelope_overhead(2) as u64;
        assert_eq!(results, vec![expected_bytes; 2]);
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
