//! TCP backend: one process per party, one session per peer.
//!
//! This mirrors the paper's deployment (each Pivot client is a separate
//! machine on a LAN) while staying protocol-compatible with the
//! in-process backend: the bytes that cross a socket here are exactly the
//! envelope frames the endpoint stages, so byte counts agree bit-for-bit
//! across backends — including across a mid-run reconnect, because
//! replayed frames are transport-internal retransmissions, not new
//! protocol traffic.
//!
//! # Session layer (`PVT2`)
//!
//! Each link is a *session*, not a socket. Frames carry a per-direction
//! monotonic sequence number and are held in a bounded retransmit ring
//! until the peer acknowledges delivery. When a socket breaks mid-run the
//! session survives:
//!
//! - the **lower-id** party redials the peer's rendezvous address with
//!   exponential backoff (bounded by `connect_timeout`), jittered from
//!   the scenario seed ([`NetConfig::seed`]);
//! - the **higher-id** party keeps its rendezvous listener alive in a
//!   background acceptor thread and waits for the resume;
//! - the resume handshake exchanges each side's last-delivered sequence
//!   number, and both sides replay any unacknowledged frames from their
//!   ring — the receiver dedups by sequence number, so the delivered
//!   transcript is bit-identical to the fault-free run.
//!
//! If a peer never comes back, the blocked party surfaces a typed
//! [`LinkError::Disconnected`] (never a panic) once the redial budget or
//! the resume-wait deadline expires. A peer that finished its run and
//! closed its endpoint ([`Endpoint::close`]) sends a goodbye frame after
//! its last data frame: its socket closing is then the end of the
//! session, not a break, and nobody redials it.
//!
//! # Crash recovery (restart splice)
//!
//! A session also survives a full process restart of the peer, and a
//! restart is a socket resume from delivery cursor 0. The restarted
//! process rebuilds its mesh with [`connect_mesh_restart`], the same
//! mesh body as a first join ([`connect_mesh`]) except that it dials
//! *every* peer (its own listen port may still be pinned by the dead
//! incarnation's sockets) with a `HELLO_RESTART` presenting cursor 0.
//! The live side splices the socket in like any resume, but rolls its
//! ack horizon back and replays its ring from seq 1; the restarted side
//! re-executes the protocol from genesis and re-sends its whole outbound
//! stream from seq 1, which the live side silently dedups by sequence
//! number. Durable-session mode ([`NetConfig::durable_sessions`]) never
//! prunes a ring — neither acks nor the frame/byte caps release a frame
//! — so the replay never hits an evicted frame; without it, a restart
//! after the first ack dies loudly with a typed [`LinkError::ResumeGap`].
//! An optional per-link heartbeat ([`NetConfig::heartbeat`]) detects
//! silent peers, and
//! [`NetConfig::rejoin_deadline`] bounds how long survivors park at the
//! barrier before raising [`LinkError::PeerLost`].

use crate::config::NetConfig;
use crate::endpoint::{join_parties, Endpoint};
use crate::link::{Link, LinkError};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pivot_trace::{Counter, Counters};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pivot_runtime::idle::IdleGate;

/// Session protocol magic: "PVT2" (v1 was the pre-reconnect framing).
const MAGIC: [u8; 4] = *b"PVT2";
/// Hello frame: magic(4) + party_id u64 + kind u8 + last_delivered u64.
const HELLO_LEN: usize = 21;
const HELLO_INITIAL: u8 = 0;
const HELLO_RESUME: u8 = 1;
/// Process-restart splice: the dialer presents delivery cursor 0; the
/// live peer rolls its ack horizon back and replays its ring from seq 1,
/// while the dialer's own stream restarts at seq 1 (the peer dedups by
/// sequence number).
const HELLO_RESTART: u8 = 2;
/// Stream frame tags. Tag 2 is unassigned and reads as malformed.
const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;
/// Liveness heartbeat; carries no state, just resets the staleness clock.
const TAG_HEARTBEAT: u8 = 3;
/// Orderly close ([`Link::close`]): the peer finished its run, so the
/// session ends here and the socket closing next is no break to redial.
const TAG_BYE: u8 = 4;
/// Data frame header: tag(1) + seq u64 + len u64.
const DATA_HEADER: usize = 17;
/// Control frame (ack / heartbeat / goodbye): tag(1) + value u64.
const ACK_FRAME: usize = 9;
/// A peer silent for this many heartbeat periods is treated as broken.
const HEARTBEAT_STALE_FACTOR: u32 = 3;
/// Largest plausible single frame; anything bigger is a desynced or
/// hostile stream and surfaces as [`LinkError::Malformed`].
const MAX_FRAME_BYTES: u64 = 1 << 32;
/// How long an inbound (resume) handshake may take before the acceptor
/// gives up on that socket.
const INBOUND_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Writer-side stall guard: a socket write that blocks this long is
/// treated as broken (the session then rides the reconnect path).
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Reader poll quantum: how often the reader re-checks session state
/// (closing / broken / epoch bump) while waiting for bytes.
const READER_POLL: Duration = Duration::from_millis(100);
/// Acceptor poll quantum for the nonblocking rendezvous listener.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Redial backoff: first delay, doubling per attempt up to the max,
/// each jittered to `[0.5d, 1.5d)`.
const BACKOFF_BASE: Duration = Duration::from_millis(25);
const BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Per-attempt cap on a single blocking `connect` during redial, so one
/// black-holed SYN cannot eat the whole budget.
const DIAL_ATTEMPT_CAP: Duration = Duration::from_secs(2);
/// Send a cumulative ACK after this many delivered data frames, or after
/// [`ACK_BYTES`] of delivered payload, whichever comes first: the sender's
/// ring then holds at most about that much unacknowledged data, whether
/// its frames are many and small or few and large.
const ACK_EVERY: u64 = 64;
const ACK_BYTES: usize = 64 << 10;
/// Retransmit ring bounds: oldest unacked frames are evicted first once
/// either cap is exceeded (a later resume that still needs an evicted
/// frame fails loudly with a "replay gap" error).
const RING_MAX_FRAMES: usize = 8192;
const RING_MAX_BYTES: usize = 64 << 20;

/// Minimal deterministic PRNG for backoff jitter; the transport crate
/// deliberately has no RNG dependency and the jitter only needs to
/// decorrelate concurrent redials, not be uniform.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Jitter `d` to a uniform-ish `[0.5d, 1.5d)`.
fn jittered(rng: &mut XorShift, d: Duration) -> Duration {
    let nanos = d.as_nanos() as u64;
    if nanos == 0 {
        return d;
    }
    Duration::from_nanos(nanos / 2 + rng.next() % nanos)
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

struct Hello {
    peer: u64,
    kind: u8,
    delivered: u64,
}

fn send_hello(stream: &mut TcpStream, id: usize, kind: u8, delivered: u64) -> io::Result<()> {
    let mut buf = [0u8; HELLO_LEN];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4..12].copy_from_slice(&(id as u64).to_le_bytes());
    buf[12] = kind;
    buf[13..21].copy_from_slice(&delivered.to_le_bytes());
    stream.write_all(&buf)
}

fn read_hello(stream: &mut TcpStream, max_wait: Duration) -> io::Result<Hello> {
    stream.set_read_timeout(Some(max_wait))?;
    let mut buf = [0u8; HELLO_LEN];
    stream.read_exact(&mut buf)?;
    stream.set_read_timeout(None)?;
    if buf[..4] != MAGIC {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            "bad magic in hello (not a pivot PVT2 peer)",
        ));
    }
    let kind = buf[12];
    if kind != HELLO_INITIAL && kind != HELLO_RESUME && kind != HELLO_RESTART {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("unknown hello kind {kind}"),
        ));
    }
    Ok(Hello {
        peer: u64::from_le_bytes(buf[4..12].try_into().unwrap()),
        kind,
        delivered: u64::from_le_bytes(buf[13..21].try_into().unwrap()),
    })
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

struct SessionState {
    /// Current healthy socket, if any.
    stream: Option<TcpStream>,
    /// Bumped on every successful (re)connect; lets the writer detect a
    /// stale cached stream and lets `mark_broken` ignore stale failures.
    epoch: u64,
    /// True while the socket is known-broken and a resume is pending.
    broken: bool,
    broken_since: Option<Instant>,
    /// Set by `Drop`: threads must exit instead of reconnecting.
    closing: bool,
    /// Set by [`Link::close`]: `Drop` tells the peer the session ends.
    farewell: bool,
    /// Terminal failure; once set the session never recovers.
    dead: Option<LinkError>,
    /// Next outbound sequence number (first frame is 1).
    next_seq: u64,
    /// Highest inbound sequence delivered to the endpoint.
    delivered: u64,
    /// Last `delivered` value we acked to the peer.
    acked_out: u64,
    /// Payload bytes delivered since that ack.
    unacked_bytes: usize,
    /// Highest outbound sequence the peer has acked (outside durable
    /// mode the ring is pruned to it).
    peer_acked: u64,
    /// Unacked outbound frames, for replay on resume — every frame since
    /// seq 1 in durable-session mode, for replay on a peer restart.
    ring: VecDeque<(u64, Arc<Vec<u8>>)>,
    ring_bytes: usize,
    /// Last time any bytes arrived from the peer (heartbeat staleness).
    last_heard: Instant,
}

impl SessionState {
    /// Release every ringed frame with `seq <= through`.
    fn prune_ring(&mut self, through: u64) {
        while self.ring.front().is_some_and(|(seq, _)| *seq <= through) {
            if let Some((_, old)) = self.ring.pop_front() {
                self.ring_bytes -= old.len();
            }
        }
    }
}

struct SessionShared {
    local: usize,
    peer: usize,
    /// `Some(addr)`: this side redials on breakage (lower party id).
    /// `None`: this side waits for the peer to redial (higher party id).
    redial_addr: Option<String>,
    net: NetConfig,
    state: Mutex<SessionState>,
    cond: Condvar,
    /// Serializes all socket writes (writer data frames, reader acks,
    /// resume replay). Lock order where both are held: `write_lock`
    /// before `state` (only `splice_session` takes both).
    write_lock: Mutex<()>,
    /// Interruptible sleep for redial backoff, so `Drop` never waits out
    /// a pending backoff.
    gate: IdleGate,
    /// The owning endpoint's registry ([`Link::attach_stats`]).
    counters: OnceLock<Arc<Counters>>,
}

impl SessionShared {
    fn count(&self, counter: Counter, n: u64) {
        if let Some(counters) = self.counters.get() {
            counters.add(counter, n);
        }
    }

    fn dead_reason(&self) -> Option<LinkError> {
        self.state.lock().unwrap().dead.clone()
    }

    fn set_dead(&self, err: LinkError) {
        let mut st = self.state.lock().unwrap();
        if st.dead.is_none() {
            st.dead = Some(err);
        }
        if let Some(s) = st.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.cond.notify_all();
    }
}

/// Mark the current socket broken (if `epoch_seen` is still current) and
/// wake anyone waiting on session state. Stale failures from an already
/// replaced socket are ignored.
fn mark_broken(shared: &SessionShared, epoch_seen: u64) {
    let mut st = shared.state.lock().unwrap();
    if st.closing || st.dead.is_some() || st.epoch != epoch_seen || st.broken {
        return;
    }
    st.broken = true;
    st.broken_since = Some(Instant::now());
    if let Some(s) = st.stream.take() {
        let _ = s.shutdown(Shutdown::Both);
    }
    shared.cond.notify_all();
}

fn write_data_frame(stream: &mut TcpStream, seq: u64, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; DATA_HEADER];
    header[0] = TAG_DATA;
    header[1..9].copy_from_slice(&seq.to_le_bytes());
    header[9..17].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    stream.write_all(&header)?;
    stream.write_all(payload)
}

/// Write one 9-byte control frame (ack / heartbeat).
fn write_ctrl_frame(stream: &mut TcpStream, tag: u8, value: u64) -> io::Result<()> {
    let mut buf = [0u8; ACK_FRAME];
    buf[0] = tag;
    buf[1..9].copy_from_slice(&value.to_le_bytes());
    stream.write_all(&buf)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Outbound job: the payload plus a fault-injection tag. `sever == true`
/// ([`Link::send_severed`]) means "ring this frame but break the socket
/// instead of writing it" — the frame is then replayed on resume, which
/// is what guarantees `replayed_frames >= 1` for an injected drop.
type OutJob = (Vec<u8>, bool);

fn writer_loop(shared: &Arc<SessionShared>, rx: Receiver<OutJob>) {
    let mut cached: Option<(u64, TcpStream)> = None;
    while let Ok((payload, sever)) = rx.recv() {
        let payload = Arc::new(payload);
        // Assign a sequence number and ring the frame under the state
        // lock; snapshot health so the write itself happens lock-free.
        let (seq, broken, epoch) = {
            let mut st = shared.state.lock().unwrap();
            // `closing` does NOT stop the writer: `Drop` sets it before
            // joining us precisely so we flush the queue's tail (a party's
            // final frames) on the way out. Only a dead session skips.
            if st.dead.is_some() {
                continue;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.ring_bytes += payload.len();
            st.ring.push_back((seq, Arc::clone(&payload)));
            // Durable sessions keep every frame for a peer restarting
            // from genesis: the caps never evict there.
            while !shared.net.durable_sessions
                && st.ring.len() > 1
                && (st.ring.len() > RING_MAX_FRAMES || st.ring_bytes > RING_MAX_BYTES)
            {
                if let Some((_, old)) = st.ring.pop_front() {
                    st.ring_bytes -= old.len();
                }
            }
            if cached.as_ref().map(|(e, _)| *e) != Some(st.epoch) {
                cached = st
                    .stream
                    .as_ref()
                    .and_then(|s| s.try_clone().ok())
                    .map(|s| (st.epoch, s));
            }
            (seq, st.broken, st.epoch)
        };
        if sever {
            // Injected drop: the frame stays ringed and unwritten; break
            // the socket so the reconnect path replays it.
            mark_broken(shared, epoch);
            cached = None;
            continue;
        }
        if broken {
            // Socket already down; `splice_session` will replay the ring.
            continue;
        }
        let Some((cached_epoch, stream)) = cached.as_mut() else {
            continue;
        };
        if *cached_epoch != epoch {
            continue;
        }
        let res = {
            let _w = shared.write_lock.lock().unwrap();
            write_data_frame(stream, seq, &payload)
        };
        if res.is_err() {
            mark_broken(shared, epoch);
            cached = None;
        }
    }
    // Channel closed: link is dropping; every accepted job was either
    // written or left ringed for replay, so nothing to flush here.
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Parse and act on every complete frame in `pending`, removing consumed
/// bytes. Returns `Ok(false)` when the inbound channel is gone (link
/// dropped), `Err` on a malformed stream.
fn drain_frames(
    shared: &Arc<SessionShared>,
    pending: &mut Vec<u8>,
    in_tx: &Sender<Vec<u8>>,
) -> Result<bool, LinkError> {
    let mut consumed = 0usize;
    loop {
        let buf = &pending[consumed..];
        if buf.is_empty() {
            break;
        }
        match buf[0] {
            TAG_DATA => {
                if buf.len() < DATA_HEADER {
                    break;
                }
                let seq = u64::from_le_bytes(buf[1..9].try_into().unwrap());
                let len = u64::from_le_bytes(buf[9..17].try_into().unwrap());
                if len > MAX_FRAME_BYTES {
                    return Err(LinkError::Malformed(format!(
                        "frame length {len} exceeds {MAX_FRAME_BYTES} byte cap"
                    )));
                }
                let len = len as usize;
                if buf.len() < DATA_HEADER + len {
                    break;
                }
                let payload = buf[DATA_HEADER..DATA_HEADER + len].to_vec();
                consumed += DATA_HEADER + len;
                let (deliver, ack_now) = {
                    let mut st = shared.state.lock().unwrap();
                    if seq <= st.delivered {
                        // Stale duplicate from a replaced socket or a
                        // resume replay overlap; already delivered.
                        (false, false)
                    } else if seq == st.delivered + 1 {
                        st.delivered = seq;
                        st.unacked_bytes += len;
                        let ack = st.delivered - st.acked_out >= ACK_EVERY
                            || st.unacked_bytes >= ACK_BYTES;
                        if ack {
                            st.acked_out = st.delivered;
                            st.unacked_bytes = 0;
                        }
                        (true, ack)
                    } else {
                        return Err(LinkError::Malformed(format!(
                            "sequence gap: got frame {seq}, expected {}",
                            st.delivered + 1
                        )));
                    }
                };
                if deliver && in_tx.send(payload).is_err() {
                    return Ok(false);
                }
                if ack_now {
                    send_ack(shared, seq);
                }
            }
            TAG_ACK => {
                if buf.len() < ACK_FRAME {
                    break;
                }
                let delivered = u64::from_le_bytes(buf[1..9].try_into().unwrap());
                consumed += ACK_FRAME;
                let mut st = shared.state.lock().unwrap();
                if delivered > st.peer_acked {
                    st.peer_acked = delivered;
                }
                if !shared.net.durable_sessions {
                    st.prune_ring(delivered);
                }
            }
            TAG_HEARTBEAT => {
                if buf.len() < ACK_FRAME {
                    break;
                }
                // Liveness only; receipt already refreshed `last_heard`.
                consumed += ACK_FRAME;
            }
            TAG_BYE => {
                // Every frame the peer sent precedes its goodbye, so what
                // is delivered stays readable; a later recv fails at once.
                let peer = shared.peer;
                shared.set_dead(LinkError::Disconnected(format!(
                    "party {peer} closed the session"
                )));
                return Ok(false);
            }
            tag => {
                return Err(LinkError::Malformed(format!("unknown frame tag {tag}")));
            }
        }
    }
    pending.drain(..consumed);
    Ok(true)
}

/// Best-effort cumulative ack on the current socket; a failed ack is
/// harmless (the peer keeps the frames ringed a little longer).
fn send_ack(shared: &SessionShared, delivered: u64) {
    let stream = {
        let st = shared.state.lock().unwrap();
        if st.broken {
            return;
        }
        st.stream.as_ref().and_then(|s| s.try_clone().ok())
    };
    if let Some(mut stream) = stream {
        let _w = shared.write_lock.lock().unwrap();
        let _ = write_ctrl_frame(&mut stream, TAG_ACK, delivered);
    }
}

fn reader_loop(shared: &Arc<SessionShared>, in_tx: Sender<Vec<u8>>) {
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    'outer: loop {
        // Get a healthy stream, riding the reconnect path if needed.
        let (mut stream, epoch) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.closing || st.dead.is_some() {
                    return;
                }
                if st.broken {
                    if shared.redial_addr.is_some() {
                        drop(st);
                        redial(shared);
                        continue 'outer;
                    }
                    // Acceptor side: wait for the peer to redial us. A
                    // configured rejoin deadline widens the budget to
                    // cover a full process restart and types the failure.
                    let budget = shared
                        .net
                        .rejoin_deadline
                        .unwrap_or(shared.net.connect_timeout);
                    let deadline = st
                        .broken_since
                        .map(|t| t + budget)
                        .unwrap_or_else(|| Instant::now() + budget);
                    if Instant::now() >= deadline {
                        drop(st);
                        let err = if shared.net.rejoin_deadline.is_some() {
                            LinkError::PeerLost {
                                peer: shared.peer,
                                waited: budget,
                            }
                        } else {
                            LinkError::Disconnected(format!(
                                "party {} did not resume within {budget:?}",
                                shared.peer
                            ))
                        };
                        shared.set_dead(err);
                        return;
                    }
                    let (next, _) = shared.cond.wait_timeout(st, READER_POLL).unwrap();
                    st = next;
                    continue;
                }
                match st.stream.as_ref().and_then(|s| s.try_clone().ok()) {
                    Some(s) => break (s, st.epoch),
                    None => {
                        let (next, _) = shared.cond.wait_timeout(st, READER_POLL).unwrap();
                        st = next;
                    }
                }
            }
        };
        if stream.set_read_timeout(Some(READER_POLL)).is_err() {
            mark_broken(shared, epoch);
            continue;
        }
        // A fresh socket means any partial frame from the old one is
        // stale; unacked frames are replayed whole on resume.
        pending.clear();
        loop {
            {
                let st = shared.state.lock().unwrap();
                if st.closing || st.dead.is_some() {
                    return;
                }
                if st.broken || st.epoch != epoch {
                    continue 'outer;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    mark_broken(shared, epoch);
                    continue 'outer;
                }
                Ok(n) => {
                    if shared.net.heartbeat.is_some() {
                        shared.state.lock().unwrap().last_heard = Instant::now();
                    }
                    pending.extend_from_slice(&chunk[..n]);
                    match drain_frames(shared, &mut pending, &in_tx) {
                        Ok(true) => {}
                        Ok(false) => return, // link dropped
                        Err(err) => {
                            shared.set_dead(err);
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    mark_broken(shared, epoch);
                    continue 'outer;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reconnect
// ---------------------------------------------------------------------------

/// Lower-id side: redial the peer's rendezvous address with jittered
/// exponential backoff until the session resumes, the budget runs out,
/// or the link is closing.
fn redial(shared: &Arc<SessionShared>) {
    let _span = pivot_trace::runtime_span("reconnect");
    let addr = shared.redial_addr.as_ref().expect("redial without addr");
    let seed =
        shared.net.seed ^ 0x9e3779b97f4a7c15 ^ (((shared.local as u64) << 32) | shared.peer as u64);
    let mut rng = XorShift::new(seed);
    // A configured rejoin deadline widens the redial budget to cover a
    // full process restart of the peer (relaunch and restart dial),
    // anchored at the moment the socket broke.
    let budget = shared
        .net
        .rejoin_deadline
        .unwrap_or(shared.net.connect_timeout);
    let deadline = {
        let st = shared.state.lock().unwrap();
        st.broken_since.unwrap_or_else(Instant::now) + budget
    };
    let mut delay = BACKOFF_BASE;
    loop {
        {
            let st = shared.state.lock().unwrap();
            if st.closing || st.dead.is_some() || !st.broken {
                return;
            }
        }
        match try_resume(shared, addr, deadline) {
            Ok(()) => return,
            Err(_) => {
                shared.count(Counter::ConnectRetries, 1);
                if Instant::now() >= deadline {
                    let err = if shared.net.rejoin_deadline.is_some() {
                        LinkError::PeerLost {
                            peer: shared.peer,
                            waited: budget,
                        }
                    } else {
                        LinkError::Disconnected(format!(
                            "could not resume session with party {} within {budget:?}",
                            shared.peer
                        ))
                    };
                    shared.set_dead(err);
                    return;
                }
                // Interruptible backoff: Drop trips the gate.
                if !shared.gate.wait_for(jittered(&mut rng, delay)) {
                    return;
                }
                delay = (delay * 2).min(BACKOFF_MAX);
            }
        }
    }
}

/// One resume attempt: dial, exchange resume hellos, splice the new
/// socket into the session.
fn try_resume(shared: &Arc<SessionShared>, addr: &str, deadline: Instant) -> io::Result<()> {
    let budget = deadline
        .saturating_duration_since(Instant::now())
        .min(DIAL_ATTEMPT_CAP);
    if budget.is_zero() {
        return Err(io::Error::new(ErrorKind::TimedOut, "redial budget spent"));
    }
    let mut stream = dial_once(addr, budget)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT))?;
    let delivered = shared.state.lock().unwrap().delivered;
    send_hello(&mut stream, shared.local, HELLO_RESUME, delivered)?;
    let hello = read_hello(&mut stream, INBOUND_HANDSHAKE_TIMEOUT)?;
    if hello.peer as usize != shared.peer || hello.kind != HELLO_RESUME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("resume answered by unexpected party {}", hello.peer),
        ));
    }
    splice_session(shared, stream, hello.delivered, false)
}

/// Splice a fresh socket into the session (both sides): prune the ring
/// to what the peer can never ask for again, replay everything past the
/// peer's delivery horizon, and flip the session back to healthy. After
/// a peer `restart` the ack horizon rolls *back* to the presented cursor
/// (0), so everything past it is replayed.
fn splice_session(
    shared: &Arc<SessionShared>,
    mut stream: TcpStream,
    peer_delivered: u64,
    restart: bool,
) -> io::Result<()> {
    // Lock order: write_lock before state (the only place both are held)
    // so no data or ack frame interleaves with the replay.
    let _w = shared.write_lock.lock().unwrap();
    let mut st = shared.state.lock().unwrap();
    if st.closing || st.dead.is_some() {
        return Err(io::Error::other("session closed"));
    }
    if let Some(old) = st.stream.take() {
        let _ = old.shutdown(Shutdown::Both);
    }
    // In durable mode the peer may later restart from genesis, so the
    // ring keeps even what this peer has already delivered.
    if !shared.net.durable_sessions {
        st.prune_ring(peer_delivered);
    }
    if restart {
        // The peer restarted from genesis: roll the ack horizon back so
        // its re-sent cumulative acks grow monotonically again.
        st.peer_acked = peer_delivered;
    } else if st.peer_acked < peer_delivered {
        st.peer_acked = peer_delivered;
    }
    // The ring must cover everything past the peer's delivery horizon;
    // if eviction outran the peer the transcript is unrecoverable.
    let sent_up_to = st.next_seq - 1;
    let gap = sent_up_to > peer_delivered
        && st
            .ring
            .front()
            .is_none_or(|(seq, _)| *seq > peer_delivered + 1);
    if gap {
        let err = LinkError::ResumeGap {
            peer: shared.peer,
            missing_seq: peer_delivered + 1,
        };
        st.dead = Some(err);
        shared.cond.notify_all();
        return Err(io::Error::other("replay gap"));
    }
    let mut replayed = 0u64;
    for (seq, payload) in st.ring.iter() {
        if *seq <= peer_delivered {
            continue; // retained only for a later restart
        }
        write_data_frame(&mut stream, *seq, payload)?;
        replayed += 1;
    }
    st.stream = Some(stream);
    st.epoch += 1;
    st.broken = false;
    st.broken_since = None;
    st.last_heard = Instant::now();
    shared.count(Counter::Reconnects, 1);
    if restart {
        shared.count(Counter::Rejoins, 1);
    }
    shared.count(Counter::ReplayedFrames, replayed);
    shared.cond.notify_all();
    Ok(())
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

/// One resumable session to a peer. See the module docs for the
/// reconnect protocol.
pub struct SessionLink {
    shared: Arc<SessionShared>,
    out_tx: Option<Sender<OutJob>>,
    in_rx: Receiver<Vec<u8>>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl SessionLink {
    /// A session on a freshly handshaken socket; both directions start
    /// at seq 1.
    fn new(
        local: usize,
        peer: usize,
        stream: TcpStream,
        redial_addr: Option<String>,
        net: NetConfig,
    ) -> io::Result<SessionLink> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT))?;
        let heartbeat_period = net.heartbeat;
        let shared = Arc::new(SessionShared {
            local,
            peer,
            redial_addr,
            net,
            state: Mutex::new(SessionState {
                stream: Some(stream),
                epoch: 1,
                broken: false,
                broken_since: None,
                closing: false,
                farewell: false,
                dead: None,
                next_seq: 1,
                delivered: 0,
                acked_out: 0,
                unacked_bytes: 0,
                peer_acked: 0,
                ring: VecDeque::new(),
                ring_bytes: 0,
                last_heard: Instant::now(),
            }),
            cond: Condvar::new(),
            write_lock: Mutex::new(()),
            gate: IdleGate::new(),
            counters: OnceLock::new(),
        });
        let (out_tx, out_rx) = unbounded::<OutJob>();
        let (in_tx, in_rx) = unbounded::<Vec<u8>>();
        let w_shared = Arc::clone(&shared);
        let writer = thread::Builder::new()
            .name(format!("pvt-w-{local}-{peer}"))
            .spawn(move || writer_loop(&w_shared, out_rx))?;
        let r_shared = Arc::clone(&shared);
        let reader = thread::Builder::new()
            .name(format!("pvt-r-{local}-{peer}"))
            .spawn(move || reader_loop(&r_shared, in_tx))?;
        let heartbeat = match heartbeat_period {
            Some(period) if !period.is_zero() => {
                let h_shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name(format!("pvt-hb-{local}-{peer}"))
                        .spawn(move || heartbeat_loop(&h_shared, period))?,
                )
            }
            _ => None,
        };
        Ok(SessionLink {
            shared,
            out_tx: Some(out_tx),
            in_rx,
            writer: Some(writer),
            reader: Some(reader),
            heartbeat,
        })
    }

    /// Payload bytes the retransmit ring holds, and the highest outbound
    /// sequence the peer has acked.
    #[cfg(test)]
    fn ring_state(&self) -> (usize, u64) {
        let st = self.shared.state.lock().unwrap();
        (st.ring_bytes, st.peer_acked)
    }

    /// Queue one frame for the writer thread; `sever` rings it without
    /// writing it and breaks the socket.
    fn enqueue(&self, bytes: Vec<u8>, sever: bool) -> Result<(), LinkError> {
        match &self.out_tx {
            Some(tx) => tx.send((bytes, sever)).map_err(|_| {
                self.shared
                    .dead_reason()
                    .unwrap_or_else(|| LinkError::Disconnected("writer thread exited".into()))
            }),
            None => Err(LinkError::Disconnected("link closed".into())),
        }
    }
}

/// Per-link liveness watchdog: send a heartbeat every period and treat a
/// peer silent for [`HEARTBEAT_STALE_FACTOR`] periods as broken, so the
/// session rides the reconnect/rejoin path instead of wedging until the
/// receive timeout.
fn heartbeat_loop(shared: &Arc<SessionShared>, period: Duration) {
    let stale_after = period * HEARTBEAT_STALE_FACTOR;
    while shared.gate.wait_for(period) {
        let (stream, epoch, stale) = {
            let st = shared.state.lock().unwrap();
            if st.closing || st.dead.is_some() {
                return;
            }
            if st.broken {
                continue;
            }
            (
                st.stream.as_ref().and_then(|s| s.try_clone().ok()),
                st.epoch,
                st.last_heard.elapsed() > stale_after,
            )
        };
        if stale {
            mark_broken(shared, epoch);
            continue;
        }
        let Some(mut stream) = stream else {
            continue;
        };
        let res = {
            let _w = shared.write_lock.lock().unwrap();
            write_ctrl_frame(&mut stream, TAG_HEARTBEAT, 0)
        };
        if res.is_err() {
            mark_broken(shared, epoch);
        }
    }
}

impl Link for SessionLink {
    fn peer(&self) -> usize {
        self.shared.peer
    }

    fn send_bytes(&self, bytes: Vec<u8>) -> Result<(), LinkError> {
        self.enqueue(bytes, false)
    }

    fn close(&self) {
        self.shared.state.lock().unwrap().farewell = true;
    }

    /// The frame stays ringed and unwritten while the socket breaks; the
    /// reconnect replays it and `splice_session` records the recovery.
    fn send_severed(&self, bytes: Vec<u8>) -> Result<bool, LinkError> {
        self.enqueue(bytes, true).map(|()| true)
    }

    fn recv_bytes(&self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        // Poll in short chunks instead of one blocking wait: a broken
        // session with a rejoin budget must outlast `recv_timeout` while
        // the peer restarts, and the wait surfaces as a
        // `waiting_for_rejoin` gauge so survivors are observable. A peer
        // whose heartbeats keep arriving is computing, not wedged: with a
        // heartbeat the wedge deadline runs from the later of the call
        // and the last frame heard.
        let called = Instant::now();
        let mut waiting_rejoin = false;
        loop {
            match self.in_rx.recv_timeout(READER_POLL.min(timeout)) {
                Ok(bytes) => {
                    if waiting_rejoin {
                        pivot_trace::runtime_gauge("waiting_for_rejoin", 0.0);
                    }
                    return Ok(bytes);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(err) = self.shared.dead_reason() {
                        return Err(err);
                    }
                    let (rejoin_until, deadline) = {
                        let st = self.shared.state.lock().unwrap();
                        let rejoin_until =
                            match (st.broken, st.broken_since, self.shared.net.rejoin_deadline) {
                                (true, Some(since), Some(budget)) => Some(since + budget),
                                _ => None,
                            };
                        let alive_at = match self.shared.net.heartbeat {
                            Some(_) => called.max(st.last_heard),
                            None => called,
                        };
                        (rejoin_until, alive_at + timeout)
                    };
                    if let Some(until) = rejoin_until {
                        if !waiting_rejoin {
                            waiting_rejoin = true;
                            pivot_trace::runtime_gauge("waiting_for_rejoin", 1.0);
                        }
                        // Park at the barrier until the rejoin budget is
                        // spent (plus a grace period for the session's
                        // own watchdog to raise the typed `PeerLost`).
                        if Instant::now() < until + 2 * READER_POLL {
                            continue;
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(LinkError::Timeout(timeout));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(self
                        .shared
                        .dead_reason()
                        .unwrap_or_else(|| LinkError::Disconnected("session closed".into())))
                }
            }
        }
    }

    fn attach_stats(&self, counters: &Arc<Counters>) {
        let _ = self.shared.counters.set(Arc::clone(counters));
    }
}

impl Drop for SessionLink {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.closing = true;
        }
        self.shared.gate.interrupt();
        self.shared.cond.notify_all();
        // Closing the job channel lets the writer drain and exit.
        drop(self.out_tx.take());
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        {
            let _w = self.shared.write_lock.lock().unwrap();
            let mut st = self.shared.state.lock().unwrap();
            if let Some(mut s) = st.stream.take() {
                // After the queue's tail, so the peer reads every frame.
                if st.farewell {
                    let _ = write_ctrl_frame(&mut s, TAG_BYE, 0);
                }
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Rendezvous
// ---------------------------------------------------------------------------

/// Dial `addr` until it answers or the deadline passes, with jittered
/// exponential backoff between attempts. Used for rendezvous (peers start
/// in arbitrary order, so how often a dial fails measures process start
/// order, not the run: nothing counts it); a session resume redials
/// through the same single attempt, `dial_once`.
pub fn connect_with_retry(addr: &str, deadline: Instant, seed: u64) -> io::Result<TcpStream> {
    let mut rng = XorShift::new(seed);
    let mut delay = BACKOFF_BASE;
    loop {
        let budget = deadline
            .saturating_duration_since(Instant::now())
            .min(DIAL_ATTEMPT_CAP);
        if budget.is_zero() {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("gave up dialing {addr} (connect budget spent)"),
            ));
        }
        let err = match dial_once(addr, budget) {
            Ok(stream) => return Ok(stream),
            // A malformed address never starts answering.
            Err(e) if e.kind() == ErrorKind::InvalidInput => return Err(e),
            Err(e) => e,
        };
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("gave up dialing {addr}: {err}"),
            ));
        }
        thread::sleep(jittered(&mut rng, delay).min(remaining));
        delay = (delay * 2).min(BACKOFF_MAX);
    }
}

/// One dial attempt: try every address `addr` resolves to, each for at
/// most `budget`.
fn dial_once(addr: &str, budget: Duration) -> io::Result<TcpStream> {
    let mut last = None;
    for sock_addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock_addr, budget) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .unwrap_or_else(|| io::Error::new(ErrorKind::AddrNotAvailable, "no resolvable addresses")))
}

/// Registry entry for the background acceptor: sessions it may resume.
type ResumeRegistry = Vec<(usize, Weak<SessionShared>)>;

/// Background acceptor (higher-id side of each link): keeps the
/// rendezvous listener alive and splices resume connections back into
/// their sessions. Exits once every registered session is gone.
fn acceptor_loop(listener: TcpListener, registry: ResumeRegistry) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if !registry.iter().any(|(_, weak)| weak.strong_count() > 0) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                handle_inbound(stream, &registry);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

fn handle_inbound(mut stream: TcpStream, registry: &ResumeRegistry) {
    let Ok(hello) = read_hello(&mut stream, INBOUND_HANDSHAKE_TIMEOUT) else {
        return;
    };
    if hello.kind != HELLO_RESUME && hello.kind != HELLO_RESTART {
        return;
    }
    let Some(shared) = registry
        .iter()
        .find(|(peer, _)| *peer == hello.peer as usize)
        .and_then(|(_, weak)| weak.upgrade())
    else {
        return;
    };
    if stream.set_nodelay(true).is_err()
        || stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT)).is_err()
    {
        return;
    }
    let delivered = shared.state.lock().unwrap().delivered;
    if send_hello(&mut stream, shared.local, hello.kind, delivered).is_err() {
        return;
    }
    let _ = splice_session(
        &shared,
        stream,
        hello.delivered,
        hello.kind == HELLO_RESTART,
    );
}

/// Establish the full mesh for party `id`: bind `listen`, dial every
/// lower id, accept every higher id, and return a ready [`Endpoint`].
///
/// `peers[i]` is party `i`'s address; `peers[id]` should equal `listen`
/// (it is ignored). Parties may start in any order: dialing retries with
/// backoff until `net.connect_timeout` expires.
pub fn connect_mesh(
    id: usize,
    listen: &str,
    peers: &[String],
    net: NetConfig,
) -> io::Result<Endpoint> {
    build_mesh(id, listen, peers, net, false)
}

/// Re-establish the full mesh after a process restart (`pivot party
/// --resume`).
///
/// The restarted process holds no live sockets and its own listen port
/// may still be pinned by the dead incarnation's connections, so it
/// always plays the dialer: every peer's rendezvous address is dialed
/// with a `HELLO_RESTART` presenting delivery cursor 0. Live peers roll
/// their ack horizon back and replay their retransmit rings from seq 1;
/// this side's own outbound stream restarts at seq 1 too (peers dedup
/// re-sent frames by sequence number, so deterministic re-execution from
/// genesis converges on the fault-free transcript). The peers' rings
/// hold every frame only in durable-session mode
/// ([`NetConfig::durable_sessions`]); otherwise the splice fails with a
/// typed [`LinkError::ResumeGap`].
pub fn connect_mesh_restart(
    id: usize,
    listen: &str,
    peers: &[String],
    net: NetConfig,
) -> io::Result<Endpoint> {
    build_mesh(id, listen, peers, net, true)
}

/// The one mesh body behind [`connect_mesh`] and
/// [`connect_mesh_restart`]. They differ in whom they dial (lower ids
/// with `HELLO_INITIAL`, or every peer with `HELLO_RESTART`), in whether
/// they accept (higher ids, on a first join only), and in the listener
/// (bound up front, or rebound in the background once the mesh has
/// healed).
fn build_mesh(
    id: usize,
    listen: &str,
    peers: &[String],
    net: NetConfig,
    restart: bool,
) -> io::Result<Endpoint> {
    let m = peers.len();
    assert!(id < m, "party id {id} out of range for {m} peers");
    let deadline = Instant::now() + net.connect_timeout;
    let listener = if restart {
        None
    } else {
        Some(TcpListener::bind(listen)?)
    };
    let (hello_kind, dialed) = if restart {
        (HELLO_RESTART, m)
    } else {
        (HELLO_INITIAL, id)
    };
    let mut links: Vec<Option<Box<dyn Link>>> = (0..m).map(|_| None).collect();
    // Every session registers with the background acceptor: a lower-id
    // peer redials us on breakage, and a peer restarted after a full
    // process crash dials everyone with a RESTART hello.
    let mut registry: ResumeRegistry = Vec::new();

    // Dial (their listeners are up or will be shortly; retry with backoff
    // either way). On every link the lower id redials on breakage.
    for peer in (0..dialed).filter(|&peer| peer != id) {
        let seed = net.seed ^ 0x5851f42d4c957f2d ^ (((id as u64) << 32) | peer as u64);
        let mut stream = connect_with_retry(&peers[peer], deadline, seed)?;
        send_hello(&mut stream, id, hello_kind, 0)?;
        let hello = read_hello(&mut stream, INBOUND_HANDSHAKE_TIMEOUT)?;
        if hello.peer as usize != peer || hello.kind != hello_kind {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!(
                    "dialed party {peer} but party {} answered the handshake (kind {})",
                    hello.peer, hello.kind
                ),
            ));
        }
        let redial_addr = (peer > id).then(|| peers[peer].clone());
        let link = SessionLink::new(id, peer, stream, redial_addr, net.clone())?;
        registry.push((peer, Arc::downgrade(&link.shared)));
        links[peer] = Some(Box::new(link));
    }

    // A first join accepts every higher id; we redial those on breakage.
    if let Some(listener) = &listener {
        let mut pending = m - 1 - id;
        while pending > 0 {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    format!("party {id}: timed out waiting for {pending} peer(s) to connect"),
                ));
            }
            listener.set_nonblocking(true)?;
            let accepted = match listener.accept() {
                Ok((stream, _)) => Some(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            };
            listener.set_nonblocking(false)?;
            let Some(mut stream) = accepted else {
                thread::sleep(ACCEPT_POLL);
                continue;
            };
            let Ok(hello) = read_hello(&mut stream, INBOUND_HANDSHAKE_TIMEOUT) else {
                continue; // not a peer; ignore the socket
            };
            let peer = hello.peer as usize;
            if hello.kind != HELLO_INITIAL || peer <= id || peer >= m || links[peer].is_some() {
                continue;
            }
            send_hello(&mut stream, id, HELLO_INITIAL, 0)?;
            let link = SessionLink::new(id, peer, stream, Some(peers[peer].clone()), net.clone())?;
            registry.push((peer, Arc::downgrade(&link.shared)));
            links[peer] = Some(Box::new(link));
            pending -= 1;
        }
    }

    // Keep a listener alive for resumes and restarts. A restarted party
    // rebinds best-effort: the mesh is already healed, so the listener
    // only matters if another socket breaks later with this party on the
    // accepting side. The dead incarnation's sockets can pin the port
    // (TIME_WAIT) for a while; retry quietly and give up without failing
    // the resume.
    if !registry.is_empty() {
        let listen = listen.to_string();
        let rebind_deadline = Instant::now() + net.connect_timeout;
        thread::Builder::new()
            .name(format!("pvt-accept-{id}"))
            .spawn(move || {
                let listener = match listener {
                    Some(listener) => listener,
                    None => loop {
                        if !registry.iter().any(|(_, w)| w.strong_count() > 0) {
                            return;
                        }
                        match TcpListener::bind(&listen) {
                            Ok(listener) => break listener,
                            Err(_) if Instant::now() < rebind_deadline => {
                                thread::sleep(ACCEPT_POLL * 4)
                            }
                            Err(_) => return,
                        }
                    },
                };
                acceptor_loop(listener, registry);
            })?;
    }

    let ep = Endpoint::from_links(id, links, net);
    if restart {
        // Each dialed splice is one session re-joined across the restart;
        // survivors count the mirror image in `splice_session`.
        ep.counters().add(Counter::Rejoins, m as u64 - 1);
    }
    Ok(ep)
}

/// Loopback addresses for an `m`-party mesh on freshly reserved ports
/// (concurrent meshes in one process never collide).
pub fn loopback_peers(m: usize) -> Vec<String> {
    loopback_peers_at(m, reserve_ports(m as u16))
}

/// Loopback addresses for an `m`-party mesh starting at `base_port`.
pub fn loopback_peers_at(m: usize, base_port: u16) -> Vec<String> {
    (0..m)
        .map(|i| format!("127.0.0.1:{}", base_port + i as u16))
        .collect()
}

/// Monotonic loopback port allocator so concurrent test meshes in one
/// process never collide.
static NEXT_PORT: std::sync::atomic::AtomicU16 = std::sync::atomic::AtomicU16::new(29500);

/// Reserve `n` consecutive loopback ports.
pub fn reserve_ports(n: u16) -> u16 {
    NEXT_PORT.fetch_add(n, std::sync::atomic::Ordering::Relaxed)
}

/// Run an `m`-party protocol over real TCP sockets on loopback, one OS
/// thread per party (used by tests; production runs use one process per
/// party via `pivot party`).
pub fn run_parties_tcp<T, F>(m: usize, net: NetConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Endpoint) -> T + Send + Sync,
{
    let peers = loopback_peers(m);
    join_parties(m, |id| {
        let ep = connect_mesh(id, &peers[id], &peers, net.clone()).expect("connect_mesh failed");
        f(ep)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{catch_failures, RunFailure};
    use crate::fault::{FaultInjector, FaultPlan};

    fn ports(n: u16) -> u16 {
        reserve_ports(n)
    }

    #[test]
    fn tcp_mesh_carries_coalesced_envelopes() {
        let results = run_parties_tcp(3, NetConfig::default(), |ep| {
            // Each party sends (id * 10 + peer) to every peer and
            // receives the mirror image.
            for peer in 0..3 {
                if peer != ep.id() {
                    ep.send(peer, &((ep.id() * 10 + peer) as u64));
                }
            }
            let mut got = Vec::new();
            for peer in 0..3 {
                if peer != ep.id() {
                    got.push(ep.recv::<u64>(peer));
                }
            }
            got
        });
        assert_eq!(results[0], vec![10, 20]);
        assert_eq!(results[1], vec![1, 21]);
        assert_eq!(results[2], vec![2, 12]);
    }

    #[test]
    fn rendezvous_dials_are_not_counted_as_retries() {
        // Party 2 dials parties 0 and 1 before their listeners are up. Its
        // failed dials measure process start order, not the run, so a
        // fault-free run reads no retries on any party.
        let peers = loopback_peers(3);
        let retries = join_parties(3, |id| {
            if id < 2 {
                thread::sleep(Duration::from_millis(150));
            }
            let ep = connect_mesh(id, &peers[id], &peers, NetConfig::default()).expect("mesh");
            ep.counters().get(Counter::ConnectRetries)
        });
        assert_eq!(retries, vec![0, 0, 0]);
    }

    #[test]
    fn a_closed_session_is_not_redialed() {
        // Party 1 finishes first and closes on purpose; party 0, the side
        // that redials a broken socket, must read the close as the end of
        // the session: no failed redial counted, and a late recv fails at
        // once instead of waiting out the timeout.
        let peers = loopback_peers(2);
        let results = join_parties(2, |id| {
            let ep = connect_mesh(id, &peers[id], &peers, NetConfig::default()).expect("mesh");
            ep.send(1 - id, &(id as u64));
            let got: u64 = ep.recv(1 - id);
            if id == 1 {
                ep.close();
                return (got, 0, None);
            }
            thread::sleep(Duration::from_millis(300));
            let retries = ep.counters().get(Counter::ConnectRetries);
            let start = Instant::now();
            let late = catch_failures(|| ep.recv::<u64>(1)).err();
            (got, retries, late.map(|err| (err, start.elapsed())))
        });
        assert_eq!((results[0].0, results[1].0), (1, 0));
        assert_eq!(results[0].1, 0, "a closed session was redialed");
        let Some((RunFailure::Transport(err), waited)) = &results[0].2 else {
            panic!("a recv from a closed session must fail: {:?}", results[0].2);
        };
        assert_eq!(err.kind, crate::error::TransportErrorKind::Disconnected);
        assert!(err.detail.contains("closed the session"), "{err}");
        assert!(*waited < Duration::from_secs(1), "waited {waited:?}");
    }

    #[test]
    fn injected_drop_recovers_transparently_with_replay() {
        let base = ports(8);
        let peers = loopback_peers_at(2, base);
        let plan = FaultPlan::parse(&["drop_link 0-1 at_bytes=1".into()]).unwrap();
        let peers0 = peers.clone();
        let p0 = thread::spawn(move || {
            let ep =
                connect_mesh(0, &peers0[0], &peers0, NetConfig::default()).expect("party 0 mesh");
            ep.set_fault_injector(FaultInjector::new(0, 2, &plan));
            for i in 0..50u64 {
                ep.send(1, &i);
                ep.flush();
            }
            let sum: u64 = ep.recv(1);
            let c = ep.counters();
            (
                sum,
                c.get(Counter::FaultsInjected),
                c.get(Counter::Reconnects),
                c.get(Counter::ReplayedFrames),
            )
        });
        let p1 = thread::spawn(move || {
            let ep =
                connect_mesh(1, &peers[1], &peers, NetConfig::default()).expect("party 1 mesh");
            let mut sum = 0u64;
            for _ in 0..50 {
                sum += ep.recv::<u64>(0);
            }
            ep.send(0, &sum);
            sum
        });
        let (sum, faults, reconnects, replayed) = p0.join().unwrap();
        let echoed = p1.join().unwrap();
        assert_eq!(sum, 1225);
        assert_eq!(echoed, 1225);
        assert!(faults >= 1, "fault should be recorded (got {faults})");
        assert!(
            reconnects >= 1,
            "session should reconnect (got {reconnects})"
        );
        assert!(
            replayed >= 1,
            "severed frame should replay (got {replayed})"
        );
    }

    #[test]
    fn garbage_frames_surface_as_malformed() {
        let base = ports(2);
        let addr = format!("127.0.0.1:{base}");
        let listener = TcpListener::bind(&addr).unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = read_hello(&mut stream, Duration::from_secs(5)).unwrap();
            assert_eq!(hello.kind, HELLO_INITIAL);
            send_hello(&mut stream, 1, HELLO_INITIAL, 0).unwrap();
            // Oversized length in an otherwise valid data frame header.
            let mut frame = vec![TAG_DATA];
            frame.extend_from_slice(&1u64.to_le_bytes());
            frame.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
            stream.write_all(&frame).unwrap();
            // Keep the socket open so the client parses the frame rather
            // than seeing EOF first.
            thread::sleep(Duration::from_millis(500));
        });
        let mut stream =
            connect_with_retry(&addr, Instant::now() + Duration::from_secs(5), 1).unwrap();
        send_hello(&mut stream, 0, HELLO_INITIAL, 0).unwrap();
        let hello = read_hello(&mut stream, Duration::from_secs(5)).unwrap();
        assert_eq!(hello.peer, 1);
        let link = SessionLink::new(0, 1, stream, None, NetConfig::default()).unwrap();
        let err = link.recv_bytes(Duration::from_secs(5)).unwrap_err();
        assert!(
            matches!(err, LinkError::Malformed(_)),
            "expected Malformed, got {err:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn bad_tag_is_malformed_not_panic() {
        let base = ports(2);
        let addr = format!("127.0.0.1:{base}");
        let listener = TcpListener::bind(&addr).unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_hello(&mut stream, Duration::from_secs(5)).unwrap();
            send_hello(&mut stream, 1, HELLO_INITIAL, 0).unwrap();
            stream.write_all(&[0xFF, 1, 2, 3]).unwrap();
            thread::sleep(Duration::from_millis(500));
        });
        let mut stream =
            connect_with_retry(&addr, Instant::now() + Duration::from_secs(5), 1).unwrap();
        send_hello(&mut stream, 0, HELLO_INITIAL, 0).unwrap();
        read_hello(&mut stream, Duration::from_secs(5)).unwrap();
        let link = SessionLink::new(0, 1, stream, None, NetConfig::default()).unwrap();
        let err = link.recv_bytes(Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, LinkError::Malformed(_)), "{err:?}");
        server.join().unwrap();
    }

    #[test]
    fn connect_with_retry_gives_up_within_budget() {
        // Port 1 on loopback is essentially guaranteed closed; connects
        // fail fast with ECONNREFUSED, so retries accumulate.
        let start = Instant::now();
        let err = connect_with_retry(
            "127.0.0.1:1",
            Instant::now() + Duration::from_millis(300),
            42,
        )
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(
            start.elapsed() >= Duration::from_millis(300),
            "should have kept redialing until the budget ran out"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "gave up too slowly: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn dead_peer_surfaces_typed_disconnect_over_tcp() {
        let base = ports(4);
        let peers = loopback_peers_at(2, base);
        let net = NetConfig {
            recv_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_millis(600),
            ..NetConfig::default()
        };
        let peers0 = peers.clone();
        let net0 = net.clone();
        let p0 = thread::spawn(move || {
            let ep = connect_mesh(0, &peers0[0], &peers0, net0).expect("party 0 mesh");
            // Party 1 exits right after the handshake; our recv must
            // surface a typed error, never a panic.
            catch_failures(|| ep.recv::<u64>(1))
        });
        let p1 = thread::spawn(move || {
            let ep = connect_mesh(1, &peers[1], &peers, net).expect("party 1 mesh");
            drop(ep); // crash-by-exit
        });
        p1.join().unwrap();
        let Err(RunFailure::Transport(err)) = p0.join().unwrap() else {
            panic!("recv from dead peer must fail");
        };
        assert_eq!(err.party, 0);
        assert_eq!(err.peer, Some(1));
    }

    /// What a durable two-party restart run observed: party 0's echoed
    /// sum (or its typed failure), its `replayed_frames` and `rejoins`,
    /// and party 1's second-incarnation sum and `rejoins`.
    struct RestartRun {
        echoed: Result<u64, RunFailure>,
        replayed0: u64,
        rejoins0: u64,
        sum1: u64,
        rejoins1: u64,
    }

    /// Party 0 sends `0..frames` to party 1 in durable-session mode.
    /// Party 1 consumes `consumed` of them, "crashes" (drops its
    /// endpoint), rebuilds the mesh via the restart handshake, consumes
    /// the whole stream again from genesis and echoes its sum.
    fn durable_restart(frames: u64, consumed: u64) -> RestartRun {
        let peers = loopback_peers_at(2, ports(4));
        let net = NetConfig {
            durable_sessions: true,
            recv_timeout: Duration::from_secs(20),
            connect_timeout: Duration::from_secs(10),
            ..NetConfig::default()
        };
        let peers0 = peers.clone();
        let net0 = net.clone();
        // Party 1 crashes only after party 0 has sent every frame, so the
        // ring to replay holds all of them whatever the thread scheduling.
        let (all_sent, sent) = std::sync::mpsc::channel();
        let p0 = thread::spawn(move || {
            let ep = connect_mesh(0, &peers0[0], &peers0, net0).expect("party 0 mesh");
            for i in 0..frames {
                ep.send(1, &i);
                ep.flush();
            }
            all_sent.send(()).expect("party 1 waits for the signal");
            let echoed = catch_failures(|| ep.recv::<u64>(1));
            let c = ep.counters();
            (
                echoed,
                c.get(Counter::ReplayedFrames),
                c.get(Counter::Rejoins),
            )
        });
        let p1 = thread::spawn(move || {
            let ep = connect_mesh(1, &peers[1], &peers, net.clone()).expect("party 1 mesh");
            for _ in 0..consumed {
                ep.recv::<u64>(0);
            }
            sent.recv().expect("party 0 signals after its last send");
            drop(ep); // simulated crash
            let ep = connect_mesh_restart(1, &peers[1], &peers, net).expect("party 1 restart mesh");
            let sum: u64 = (0..frames).map(|_| ep.recv::<u64>(0)).sum();
            ep.send(0, &sum);
            (sum, ep.counters().get(Counter::Rejoins))
        });
        let (echoed, replayed0, rejoins0) = p0.join().unwrap();
        let (sum1, rejoins1) = p1.join().unwrap();
        RestartRun {
            echoed,
            replayed0,
            rejoins0,
            sum1,
            rejoins1,
        }
    }

    #[test]
    fn restart_replays_the_survivors_ring_from_seq_1() {
        // The second incarnation presents cursor 0: party 0 must replay
        // all 100 frames, not just the 70 the first one never consumed.
        let run = durable_restart(100, 30);
        assert_eq!(run.sum1, 4950, "restart must not lose or duplicate frames");
        assert_eq!(run.echoed, Ok(4950));
        assert!(run.replayed0 >= 100, "replayed {}", run.replayed0);
        assert!(run.rejoins0 >= 1, "survivor should count the rejoin");
        assert_eq!(
            run.rejoins1, 1,
            "restarted party counts one spliced session"
        );
    }

    #[test]
    fn durable_ring_outlives_the_caps() {
        // More frames than `RING_MAX_FRAMES`, all consumed and acked
        // before the restart: a durable ring still holds seq 1.
        let frames = 10_000u64;
        assert!(frames as usize > RING_MAX_FRAMES);
        let run = durable_restart(frames, frames);
        let expected = frames * (frames - 1) / 2;
        assert_eq!(run.echoed, Ok(expected), "no resume gap");
        assert_eq!(run.sum1, expected);
        assert!(run.replayed0 >= frames, "replayed {}", run.replayed0);
    }

    #[test]
    fn restart_past_evicted_frames_is_typed_resume_gap() {
        // Without durable sessions the ring is pruned by cumulative acks;
        // a restart presenting cursor 0 then needs seq 1, which is gone.
        let base = ports(4);
        let peers = loopback_peers_at(2, base);
        let net = NetConfig {
            recv_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(5),
            ..NetConfig::default()
        };
        let peers0 = peers.clone();
        let net0 = net.clone();
        let p0 = thread::spawn(move || {
            let ep = connect_mesh(0, &peers0[0], &peers0, net0).expect("party 0 mesh");
            for i in 0..200u64 {
                ep.send(1, &i);
                ep.flush();
            }
            catch_failures(|| ep.recv::<u64>(1))
        });
        let p1 = thread::spawn(move || {
            let ep = connect_mesh(1, &peers[1], &peers, net.clone()).expect("party 1 mesh");
            for _ in 0..200 {
                ep.recv::<u64>(0);
            }
            drop(ep);
            // Cursor 0 despite 200 delivered: the ring was ack-pruned, so
            // the survivor must refuse with a typed gap, not replay junk.
            let ep = connect_mesh_restart(1, &peers[1], &peers, net)
                .expect("restart dial itself succeeds");
            catch_failures(|| ep.recv::<u64>(0))
        });
        let res0 = p0.join().unwrap();
        let _ = p1.join().unwrap(); // restarted side just errors out
        let Err(RunFailure::Transport(err)) = res0 else {
            panic!("survivor must fail on the gap");
        };
        assert_eq!(err.kind, crate::error::TransportErrorKind::ResumeGap);
        assert_eq!(err.missing_seq, Some(1));
        assert_eq!(err.peer, Some(1));
    }

    #[test]
    fn silent_peer_trips_heartbeat_watchdog_into_peer_lost() {
        // A raw fake peer that handshakes and then goes silent forever:
        // the heartbeat watchdog must mark the session broken and the
        // rejoin deadline must surface a typed PeerLost.
        let base = ports(2);
        let addr = format!("127.0.0.1:{base}");
        let listener = TcpListener::bind(&addr).unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_hello(&mut stream, Duration::from_secs(5)).unwrap();
            send_hello(&mut stream, 1, HELLO_INITIAL, 0).unwrap();
            // Silence: no heartbeats, no data. Keep the socket open so
            // the client sees staleness rather than EOF.
            thread::sleep(Duration::from_secs(3));
        });
        let mut stream =
            connect_with_retry(&addr, Instant::now() + Duration::from_secs(5), 1).unwrap();
        send_hello(&mut stream, 0, HELLO_INITIAL, 0).unwrap();
        read_hello(&mut stream, Duration::from_secs(5)).unwrap();
        let net = NetConfig {
            heartbeat: Some(Duration::from_millis(50)),
            rejoin_deadline: Some(Duration::from_millis(300)),
            recv_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(10),
            ..NetConfig::default()
        };
        // Acceptor side (no redial_addr): parks at the barrier, then
        // raises PeerLost once the rejoin budget is spent.
        let link = SessionLink::new(0, 1, stream, None, net).unwrap();
        let start = Instant::now();
        let err = link.recv_bytes(Duration::from_secs(8)).unwrap_err();
        assert!(
            matches!(err, LinkError::PeerLost { peer: 1, .. }),
            "expected PeerLost, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "watchdog too slow: {:?}",
            start.elapsed()
        );
        server.join().unwrap();
    }

    #[test]
    fn heartbeating_peer_outlives_the_receive_timeout() {
        // Party 1 computes for three receive timeouts before it sends;
        // its heartbeats keep arriving, so party 0 is still delivered.
        let net = NetConfig {
            heartbeat: Some(Duration::from_millis(25)),
            recv_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        };
        let results = run_parties_tcp(2, net, |ep| {
            if ep.id() == 0 {
                ep.recv::<u64>(1)
            } else {
                thread::sleep(Duration::from_millis(600));
                ep.send(0, &7u64);
                ep.flush();
                7
            }
        });
        assert_eq!(results, vec![7, 7]);
    }

    #[test]
    fn session_survives_many_frames_with_ack_pruning() {
        // More than ACK_EVERY frames so cumulative acks prune the ring.
        let results = run_parties_tcp(2, NetConfig::default(), |ep| {
            if ep.id() == 0 {
                for i in 0..200u64 {
                    ep.send(1, &i);
                    ep.flush();
                }
                ep.recv::<u64>(1)
            } else {
                let mut sum = 0u64;
                for _ in 0..200 {
                    sum += ep.recv::<u64>(0);
                }
                ep.send(0, &sum);
                sum
            }
        });
        let expected: u64 = (0..200).sum();
        assert_eq!(results, vec![expected, expected]);
    }

    /// Two sessions over one loopback socket: party 0 sends `frames`
    /// frames of `size` bytes that get no reply, party 1 drains them. Party
    /// 0's ring and ack horizon once `settled` holds for them or a
    /// five-second budget runs out.
    fn ring_after_drain(
        durable_sessions: bool,
        frames: usize,
        size: usize,
        settled: impl Fn((usize, u64)) -> bool,
    ) -> (usize, u64) {
        let addr = format!("127.0.0.1:{}", ports(1));
        let listener = TcpListener::bind(&addr).unwrap();
        let accept = thread::spawn(move || listener.accept().unwrap().0);
        let dialed = connect_with_retry(&addr, Instant::now() + Duration::from_secs(5), 1).unwrap();
        let net = NetConfig {
            durable_sessions,
            ..NetConfig::default()
        };
        let sender = SessionLink::new(0, 1, dialed, None, net.clone()).unwrap();
        let receiver = SessionLink::new(1, 0, accept.join().unwrap(), None, net).unwrap();
        for i in 0..frames {
            sender.send_bytes(vec![i as u8; size]).unwrap();
        }
        for i in 0..frames {
            let frame = receiver.recv_bytes(Duration::from_secs(10)).unwrap();
            assert_eq!(frame, vec![i as u8; size], "frame {i}");
        }
        // The last ack may still be on its way back.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !settled(sender.ring_state()) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        sender.ring_state()
    }

    #[test]
    fn large_frames_are_acked_by_bytes() {
        // Fifteen 32 KiB frames are far fewer than `ACK_EVERY`: only the
        // byte rule acks them, every second frame, so one frame stays
        // unacked.
        let size = 32 << 10;
        let bound = ACK_BYTES + size;
        let (held, acked) = ring_after_drain(false, 15, size, |(held, _)| held <= bound);
        assert!(held <= bound, "ring holds {held} bytes, bound {bound}");
        assert_eq!(acked, 14, "acked through the last full 64 KiB");
        // A durable ring is never pruned, acks or not.
        let (held, acked) = ring_after_drain(true, 15, size, |(_, acked)| acked >= 14);
        assert_eq!(acked, 14, "the peer acks by bytes in durable mode too");
        assert_eq!(held, 15 * size, "a durable ring keeps every frame");
    }
}
