//! Per-endpoint network configuration: LAN simulation and liveness.
//!
//! The paper evaluates Pivot on a real 1 Gbps LAN; the in-process backend
//! is orders of magnitude faster than that, so benchmarks that care about
//! wall-clock *shape* (Figure 5's Pivot-vs-SPDZ-DT comparison hinges on
//! communication being expensive) attach a [`NetConfig`] to every
//! endpoint. The config travels with the endpoint — two networks in the
//! same process can simulate different links, which is what lets a single
//! `pivot bench` invocation sweep `[network]` settings.

use std::time::Duration;

/// Per-endpoint network settings.
///
/// `latency`/`bandwidth_mbps` shape the simulated LAN (the sender sleeps
/// for the per-message latency plus the serialization delay of the payload
/// at the configured bandwidth). `recv_timeout` bounds every blocking
/// receive before the endpoint declares the protocol wedged.
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Per-message one-way latency added at the sender.
    pub latency: Duration,
    /// Link bandwidth in Mbit/s; `0.0` (or any non-finite / non-positive
    /// value) means unlimited.
    pub bandwidth_mbps: f64,
    /// How long a blocking receive waits before raising a typed wedge
    /// error naming the pending peer.
    pub recv_timeout: Duration,
    /// Total dial budget: how long rendezvous keeps retrying an
    /// unreachable peer, and how long a broken session's redial backoff
    /// keeps trying before the link is declared dead.
    pub connect_timeout: Duration,
    /// Per-link liveness heartbeat period (`[network] heartbeat_s`).
    /// `None` disables heartbeats entirely — no extra control frames, no
    /// staleness checks — which keeps the transcript byte-identical to
    /// configurations that predate the knob.
    pub heartbeat: Option<Duration>,
    /// How long a broken session waits for the peer to come back —
    /// covering a full process restart, not just a socket redial —
    /// before the link is declared dead with a typed `PeerLost`
    /// (`[network] rejoin_deadline_s`). `None` keeps the pre-checkpoint
    /// behaviour: broken sessions ride `connect_timeout` and die with a
    /// plain disconnect.
    pub rejoin_deadline: Option<Duration>,
    /// Deterministic seed for transport-internal jitter (dial/redial
    /// backoff schedules). Scenario runs set this from the scenario seed
    /// so chaos-run retry schedules are reproducible across hosts; `0`
    /// keeps the legacy fixed-constant seeding.
    pub seed: u64,
    /// Durable-session mode: retransmit rings never prune — neither acks
    /// nor the 8192-frame / 64 MiB caps release a frame — so a restarted
    /// peer, which re-executes from genesis, can be replayed its whole
    /// stream from seq 1. Set when the scenario has a `[checkpoint]`
    /// section; off by default, since the rings then grow with the run.
    pub durable_sessions: bool,
}

/// Default wedge timeout (the old hard-coded `RECV_TIMEOUT`).
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Default dial budget (the old hard-coded `RENDEZVOUS_TIMEOUT`).
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(60);

/// Largest accepted wedge timeout, in seconds (~31 years). Anything
/// bigger is a configuration mistake, and values beyond ~5.8e19 would
/// panic inside `Duration::from_secs_f64`.
pub const MAX_RECV_TIMEOUT_SECS: f64 = 1e9;

impl Default for NetConfig {
    /// No simulation, 120 s wedge timeout.
    fn default() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            bandwidth_mbps: 0.0,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            heartbeat: None,
            rejoin_deadline: None,
            seed: 0,
            durable_sessions: false,
        }
    }
}

impl NetConfig {
    /// Simulated wire seconds per payload byte (`0.0` when unlimited).
    pub fn secs_per_byte(&self) -> f64 {
        if self.bandwidth_mbps.is_finite() && self.bandwidth_mbps > 0.0 {
            8.0 / (self.bandwidth_mbps * 1e6)
        } else {
            0.0
        }
    }

    /// Whether any LAN simulation is active.
    pub fn simulates(&self) -> bool {
        !self.latency.is_zero() || self.secs_per_byte() > 0.0
    }

    /// Charge the sender for one `bytes`-byte message under the simulated
    /// LAN (no-op when simulation is off).
    pub(crate) fn charge_send(&self, bytes: usize) {
        if !self.simulates() {
            return;
        }
        let wire_time = Duration::from_secs_f64(bytes as f64 * self.secs_per_byte());
        std::thread::sleep(self.latency + wire_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_no_simulation() {
        let cfg = NetConfig::default();
        assert!(!cfg.simulates());
        assert_eq!(cfg.secs_per_byte(), 0.0);
        assert_eq!(cfg.recv_timeout, DEFAULT_RECV_TIMEOUT);
        assert_eq!(cfg.connect_timeout, DEFAULT_CONNECT_TIMEOUT);
    }

    #[test]
    fn bandwidth_translates_to_secs_per_byte() {
        let cfg = NetConfig {
            bandwidth_mbps: 8.0, // 1 MB/s
            ..NetConfig::default()
        };
        assert!((cfg.secs_per_byte() - 1e-6).abs() < 1e-12);
        assert!(cfg.simulates());
    }

    #[test]
    fn nonpositive_bandwidth_is_unlimited() {
        for mbps in [0.0, -5.0, f64::INFINITY, f64::NAN] {
            let cfg = NetConfig {
                bandwidth_mbps: mbps,
                ..NetConfig::default()
            };
            assert_eq!(cfg.secs_per_byte(), 0.0, "{mbps}");
        }
    }
}
