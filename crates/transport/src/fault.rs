//! Deterministic fault injection driven by a scenario `[faults]` plan.
//!
//! A plan is a list of [`FaultSpec`]s parsed from strings like
//! `drop_link 0-1 at_round=8` — each names a fault kind, a target (a
//! link pair or a party), and a deterministic trigger (`at_round=N`,
//! counted by MPC engine round bumps, or `at_bytes=N`, counted over
//! envelope bytes sent on the target link). Every spec fires at most
//! once.
//!
//! A party's [`FaultInjector`] is attached to its endpoint
//! (`Endpoint::set_fault_injector`), which applies it on every backend
//! at the one place it sends: where an envelope goes to its link, on
//! the protocol thread, so the decision is a pure function of protocol
//! progress, not of writer-thread timing:
//!
//! - `drop_link`: the lower-id side of the pair sends its next envelope
//!   on that link through `Link::send_severed`. A TCP session rings the
//!   frame *without writing it* and severs the socket — guaranteeing the
//!   resume handshake replays at least that frame. An in-process channel
//!   cannot sever: it delivers the frame, and the endpoint records the
//!   observable outcome of a real reconnect (outage span,
//!   reconnect/replay counters).
//! - `delay_spike`: the lower-id sender sleeps `ms` before the frame.
//! - `crash_party`: the target party raises a typed
//!   [`TransportError`](crate::TransportError) with
//!   [`TransportErrorKind::InjectedCrash`](crate::TransportErrorKind) at
//!   the trigger point; peers observe a dead link and fail with their
//!   own typed errors within the recv-timeout + backoff budget.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a fault does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Sever the `a`–`b` link once; the session layer must recover
    /// transparently (reconnect + replay).
    DropLink { a: usize, b: usize },
    /// Stall the lower-id sender on the `a`–`b` link for `delay` once.
    DelaySpike { a: usize, b: usize, delay: Duration },
    /// Kill party `party` with a typed `InjectedCrash` error.
    CrashParty { party: usize },
    /// SIGKILL party `party`'s *process* once it checkpoints the trigger
    /// level, then relaunch it with `--resume` after `restart_after`.
    /// Never armed in-process: only the `pivot party --supervise` parent
    /// interprets this spec (an OS kill cannot be simulated on threads).
    KillParty {
        party: usize,
        restart_after: Duration,
    },
}

/// When a fault fires (first opportunity at or after the threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// After the party has passed `N` MPC communication rounds.
    AtRound(u64),
    /// After cumulative payload bytes sent on the target link reach `N`.
    AtBytes(u64),
    /// After the party has durably checkpointed tree level `L`
    /// (`kill_party` only; observed by the supervisor via checkpoint
    /// files, so it never fires through the in-process injector).
    AtLevel(u64),
}

/// The `key=value` options a fault spec may carry.
const OPTION_KEYS: [&str; 5] = ["at_round", "at_bytes", "at_level", "ms", "restart_after_ms"];

/// One parsed fault: kind + trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: FaultKind,
    pub trigger: FaultTrigger,
}

impl FaultSpec {
    /// Parse one plan entry. Grammar (whitespace-separated):
    ///
    /// ```text
    /// drop_link   <a>-<b> at_round=<N> | at_bytes=<N>
    /// delay_spike <a>-<b> at_round=<N> | at_bytes=<N> ms=<M>
    /// crash_party <p>     at_round=<N> | at_bytes=<N>
    /// kill_party  <p>     at_level=<L> restart_after_ms=<M>
    /// ```
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut tokens = s.split_whitespace();
        let kind_tok = tokens
            .next()
            .ok_or_else(|| "empty fault spec".to_string())?;
        let target = tokens
            .next()
            .ok_or_else(|| format!("fault `{s}`: missing target"))?;
        // `key=value` options, each at most once; the three `at_*`
        // triggers count as one option.
        let mut options: Vec<(&str, &str, u64)> = Vec::new();
        for tok in tokens {
            let (key, v) = tok
                .split_once('=')
                .filter(|(key, _)| OPTION_KEYS.contains(key))
                .ok_or_else(|| format!("fault `{s}`: unknown token `{tok}`"))?;
            let n = v
                .parse::<u64>()
                .map_err(|_| format!("fault `{s}`: bad {key} value `{v}`"))?;
            let is_trigger = |k: &str| k.starts_with("at_");
            let same = |k: &str| k == key || (is_trigger(k) && is_trigger(key));
            if let Some((_, earlier, _)) = options.iter().find(|(k, ..)| same(k)) {
                return Err(format!("fault `{s}`: `{tok}` repeats `{earlier}`"));
            }
            options.push((key, tok, n));
        }
        let option = |key: &str| options.iter().find(|(k, ..)| *k == key).map(|o| o.2);
        let ms = option("ms").map(Duration::from_millis);
        let restart_after = option("restart_after_ms").map(Duration::from_millis);
        let trigger = options.iter().find_map(|&(key, _, n)| match key {
            "at_round" => Some(FaultTrigger::AtRound(n)),
            "at_bytes" => Some(FaultTrigger::AtBytes(n)),
            "at_level" => Some(FaultTrigger::AtLevel(n)),
            _ => None,
        });
        let parse_pair = |t: &str| -> Result<(usize, usize), String> {
            let (a, b) = t
                .split_once('-')
                .ok_or_else(|| format!("fault `{s}`: link target must be `a-b`, got `{t}`"))?;
            let a = a
                .parse::<usize>()
                .map_err(|_| format!("fault `{s}`: bad party id `{a}`"))?;
            let b = b
                .parse::<usize>()
                .map_err(|_| format!("fault `{s}`: bad party id `{b}`"))?;
            if a == b {
                return Err(format!("fault `{s}`: a link connects two distinct parties"));
            }
            Ok((a.min(b), a.max(b)))
        };
        let kind = match kind_tok {
            "drop_link" => {
                let (a, b) = parse_pair(target)?;
                FaultKind::DropLink { a, b }
            }
            "delay_spike" => {
                let (a, b) = parse_pair(target)?;
                let delay = ms.ok_or_else(|| format!("fault `{s}`: delay_spike needs ms=N"))?;
                FaultKind::DelaySpike { a, b, delay }
            }
            "crash_party" => {
                let party = target
                    .parse::<usize>()
                    .map_err(|_| format!("fault `{s}`: bad party id `{target}`"))?;
                FaultKind::CrashParty { party }
            }
            "kill_party" => {
                let party = target
                    .parse::<usize>()
                    .map_err(|_| format!("fault `{s}`: bad party id `{target}`"))?;
                let restart_after = restart_after
                    .ok_or_else(|| format!("fault `{s}`: kill_party needs restart_after_ms=M"))?;
                FaultKind::KillParty {
                    party,
                    restart_after,
                }
            }
            other => return Err(format!("fault `{s}`: unknown fault kind `{other}`")),
        };
        if ms.is_some() && !matches!(kind, FaultKind::DelaySpike { .. }) {
            return Err(format!("fault `{s}`: ms= only applies to delay_spike"));
        }
        if restart_after.is_some() && !matches!(kind, FaultKind::KillParty { .. }) {
            return Err(format!(
                "fault `{s}`: restart_after_ms= only applies to kill_party"
            ));
        }
        let trigger = match (&kind, trigger) {
            (FaultKind::KillParty { .. }, Some(level @ FaultTrigger::AtLevel(_))) => level,
            (FaultKind::KillParty { .. }, _) => {
                return Err(format!("fault `{s}`: kill_party needs at_level=L"));
            }
            (_, None) => return Err(format!("fault `{s}`: needs at_round=N or at_bytes=N")),
            (_, Some(FaultTrigger::AtLevel(_))) => {
                return Err(format!("fault `{s}`: at_level= only applies to kill_party"));
            }
            (_, Some(trigger)) => trigger,
        };
        Ok(FaultSpec { kind, trigger })
    }
}

/// A parsed `[faults]` section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parse every plan entry.
    pub fn parse(entries: &[String]) -> Result<FaultPlan, String> {
        let specs = entries
            .iter()
            .map(|e| FaultSpec::parse(e))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultPlan { specs })
    }

    /// Whether the plan does anything.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Whether the plan contains any `kill_party` spec. Process kills
    /// require one OS process per party plus a supervisor; in-process
    /// harnesses reject such plans up front.
    pub fn has_kill(&self) -> bool {
        self.specs
            .iter()
            .any(|s| matches!(s.kind, FaultKind::KillParty { .. }))
    }

    /// The supervisor-facing kill spec for `party`, if any:
    /// `(at_level, restart_after)`.
    pub fn kill_spec(&self, party: usize) -> Option<(u64, Duration)> {
        self.specs.iter().find_map(|s| match (&s.kind, s.trigger) {
            (
                FaultKind::KillParty {
                    party: p,
                    restart_after,
                },
                FaultTrigger::AtLevel(level),
            ) if *p == party => Some((level, *restart_after)),
            _ => None,
        })
    }
}

/// What the injector asks the sender to do for one outgoing frame.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SendFault {
    /// Sleep this long before the frame.
    pub delay: Option<Duration>,
    /// Sever the connection instead of writing this frame (the session
    /// layer must recover it via replay).
    pub drop_link: bool,
    /// Raise an `InjectedCrash` carrying this description.
    pub crash: Option<String>,
}

struct Armed {
    spec: FaultSpec,
    fired: AtomicBool,
}

impl Armed {
    /// Fire-once latch.
    fn try_fire(&self) -> bool {
        !self.fired.swap(true, Ordering::Relaxed)
    }
}

/// One party's view of the fault plan: deterministic trigger state
/// (round counter, per-link byte counters) plus the armed specs this
/// party is responsible for injecting. Link faults are injected by the
/// *lower-id* side of the pair — the same side that owns reconnection —
/// so exactly one party acts per fault.
pub struct FaultInjector {
    round: AtomicU64,
    sent_to: Vec<AtomicU64>,
    armed: Vec<Armed>,
}

impl FaultInjector {
    /// Build party `party`'s injector for an `m`-party run. Specs that
    /// this party does not inject are filtered out here.
    pub fn new(party: usize, m: usize, plan: &FaultPlan) -> Arc<FaultInjector> {
        let armed = plan
            .specs
            .iter()
            .filter(|spec| match spec.kind {
                FaultKind::DropLink { a, b } | FaultKind::DelaySpike { a, b, .. } => {
                    party == a.min(b) && a.max(b) < m
                }
                FaultKind::CrashParty { party: p } => p == party,
                // Supervisor-only: the in-process injector never arms it.
                FaultKind::KillParty { .. } => false,
            })
            .map(|spec| Armed {
                spec: spec.clone(),
                fired: AtomicBool::new(false),
            })
            .collect();
        Arc::new(FaultInjector {
            round: AtomicU64::new(0),
            sent_to: (0..m).map(|_| AtomicU64::new(0)).collect(),
            armed,
        })
    }

    /// Called by the MPC engine at every communication-round bump.
    /// Returns the description of a `crash_party` fault that fires at
    /// this round boundary, if any.
    pub fn note_round(&self) -> Option<String> {
        let round = self.round.fetch_add(1, Ordering::Relaxed) + 1;
        for armed in &self.armed {
            if let FaultKind::CrashParty { party } = armed.spec.kind {
                if let FaultTrigger::AtRound(r) = armed.spec.trigger {
                    if round >= r && armed.try_fire() {
                        return Some(format!(
                            "crash_party {party} at_round={r} fired at round {round}"
                        ));
                    }
                }
            }
        }
        None
    }

    /// Called by the endpoint, on the protocol thread, for every envelope
    /// about to go to `peer` (`len` frame bytes). Accumulates the deterministic byte
    /// trigger state and returns the actions of any fault firing now.
    pub fn on_send(&self, peer: usize, len: usize) -> SendFault {
        let total = self.sent_to[peer].fetch_add(len as u64, Ordering::Relaxed) + len as u64;
        let round = self.round.load(Ordering::Relaxed);
        let mut out = SendFault::default();
        for armed in &self.armed {
            let triggered = match armed.spec.trigger {
                FaultTrigger::AtRound(r) => round >= r,
                FaultTrigger::AtBytes(b) => total >= b,
                // Supervisor-only trigger; nothing with it is ever armed.
                FaultTrigger::AtLevel(_) => false,
            };
            if !triggered {
                continue;
            }
            match armed.spec.kind {
                FaultKind::DropLink { a, b } => {
                    if peer == a.max(b) && armed.try_fire() {
                        out.drop_link = true;
                    }
                }
                FaultKind::DelaySpike { a, b, delay } => {
                    if peer == a.max(b) && armed.try_fire() {
                        out.delay = Some(delay);
                    }
                }
                FaultKind::CrashParty { party } => {
                    // Round-triggered crashes fire from `note_round`;
                    // byte-triggered ones fire here on any link.
                    if matches!(armed.spec.trigger, FaultTrigger::AtBytes(_)) && armed.try_fire() {
                        out.crash = Some(format!(
                            "crash_party {party} {:?} fired after {total} bytes to peer {peer}",
                            armed.spec.trigger
                        ));
                    }
                }
                FaultKind::KillParty { .. } => unreachable!("kill_party is never armed in-process"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::try_run_parties_on;
    use crate::{Endpoint, NetConfig, Network, TransportErrorKind};
    use pivot_trace::Counter;

    /// An in-process network whose endpoints carry `plan`.
    fn faulted(m: usize, net: NetConfig, plan: &FaultPlan) -> Vec<Endpoint> {
        let eps = Network::with_config(m, net).into_endpoints();
        for ep in &eps {
            ep.set_fault_injector(FaultInjector::new(ep.id(), m, plan));
        }
        eps
    }

    #[test]
    fn parses_every_fault_kind() {
        assert_eq!(
            FaultSpec::parse("drop_link 0-1 at_round=8").unwrap(),
            FaultSpec {
                kind: FaultKind::DropLink { a: 0, b: 1 },
                trigger: FaultTrigger::AtRound(8),
            }
        );
        assert_eq!(
            FaultSpec::parse("delay_spike 2-1 at_bytes=4096 ms=250").unwrap(),
            FaultSpec {
                kind: FaultKind::DelaySpike {
                    a: 1,
                    b: 2,
                    delay: Duration::from_millis(250),
                },
                trigger: FaultTrigger::AtBytes(4096),
            }
        );
        assert_eq!(
            FaultSpec::parse("crash_party 2 at_round=10").unwrap(),
            FaultSpec {
                kind: FaultKind::CrashParty { party: 2 },
                trigger: FaultTrigger::AtRound(10),
            }
        );
    }

    #[test]
    fn parses_and_gates_kill_party() {
        let spec = FaultSpec::parse("kill_party 1 at_level=2 restart_after_ms=500").unwrap();
        assert_eq!(
            spec,
            FaultSpec {
                kind: FaultKind::KillParty {
                    party: 1,
                    restart_after: Duration::from_millis(500),
                },
                trigger: FaultTrigger::AtLevel(2),
            }
        );
        for bad in [
            "kill_party 1 at_round=2 restart_after_ms=500",
            "kill_party 1 at_level=2",
            "drop_link 0-1 at_level=2",
            "crash_party 1 at_round=1 restart_after_ms=5",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
        let plan =
            FaultPlan::parse(&["kill_party 1 at_level=2 restart_after_ms=500".into()]).unwrap();
        assert!(plan.has_kill());
        assert_eq!(plan.kill_spec(1), Some((2, Duration::from_millis(500))));
        assert_eq!(plan.kill_spec(0), None);
        // Supervisor-only: the in-process injector never arms it.
        assert!(FaultInjector::new(1, 3, &plan).armed.is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "drop_link",
            "drop_link 0-0 at_round=1",
            "drop_link 0-1",
            "drop_link 0-1 at_round=x",
            "drop_link 01 at_round=1",
            "delay_spike 0-1 at_round=1",
            "crash_party 1 at_round=1 ms=5",
            "meteor_strike 0-1 at_round=1",
            "drop_link 0-1 at_round=1 whenever",
            "drop_link 0-1 at_round=1 =5",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
        // A repeated trigger or option is named, not silently overwritten;
        // a missing trigger names the one the kind needs.
        for (bad, named) in [
            (
                "drop_link 0-1 at_round=3 at_bytes=9",
                "`at_bytes=9` repeats `at_round=3`",
            ),
            (
                "drop_link 0-1 at_round=3 at_round=3",
                "`at_round=3` repeats",
            ),
            (
                "delay_spike 0-1 at_round=1 ms=5 ms=50",
                "`ms=50` repeats `ms=5`",
            ),
            (
                "kill_party 1 at_level=2 restart_after_ms=5 restart_after_ms=9",
                "`restart_after_ms=9` repeats",
            ),
            ("kill_party 1 restart_after_ms=5", "needs at_level=L"),
        ] {
            let err = FaultSpec::parse(bad).expect_err(bad);
            assert!(err.contains(named), "`{bad}`: {err}");
        }
    }

    #[test]
    fn link_faults_arm_only_on_the_lower_id_side() {
        let plan = FaultPlan::parse(&["drop_link 1-2 at_round=3".into()]).unwrap();
        let at_0 = FaultInjector::new(0, 3, &plan);
        let at_1 = FaultInjector::new(1, 3, &plan);
        let at_2 = FaultInjector::new(2, 3, &plan);
        assert!(at_0.armed.is_empty());
        assert_eq!(at_1.armed.len(), 1);
        assert!(at_2.armed.is_empty());
    }

    #[test]
    fn round_trigger_fires_once_at_threshold() {
        let plan = FaultPlan::parse(&["drop_link 0-1 at_round=2".into()]).unwrap();
        let inj = FaultInjector::new(0, 2, &plan);
        assert_eq!(inj.on_send(1, 100), SendFault::default());
        assert!(inj.note_round().is_none());
        assert!(inj.note_round().is_none());
        // Round counter reached 2: next send on the link drops it.
        let fault = inj.on_send(1, 100);
        assert!(fault.drop_link);
        // Fire-once.
        assert_eq!(inj.on_send(1, 100), SendFault::default());
    }

    #[test]
    fn byte_trigger_counts_per_link() {
        let plan = FaultPlan::parse(&["delay_spike 0-2 at_bytes=300 ms=1".into()]).unwrap();
        let inj = FaultInjector::new(0, 3, &plan);
        // Traffic to peer 1 never triggers the 0-2 fault.
        assert_eq!(inj.on_send(1, 1000), SendFault::default());
        assert_eq!(inj.on_send(2, 200), SendFault::default());
        let fault = inj.on_send(2, 200);
        assert_eq!(fault.delay, Some(Duration::from_millis(1)));
    }

    #[test]
    fn crash_fires_at_round_boundary() {
        let plan = FaultPlan::parse(&["crash_party 1 at_round=2".into()]).unwrap();
        let inj = FaultInjector::new(1, 2, &plan);
        assert!(inj.note_round().is_none());
        let fired = inj.note_round().expect("crash at round 2");
        assert!(fired.contains("crash_party 1"), "{fired}");
        assert!(inj.note_round().is_none(), "fires once");
    }

    #[test]
    fn in_process_drop_is_transparent_and_counted() {
        let plan = FaultPlan::parse(&["drop_link 0-1 at_bytes=1".into()]).unwrap();
        let eps = faulted(2, NetConfig::default(), &plan);
        let results = try_run_parties_on(eps, |ep| {
            if ep.id() == 0 {
                for i in 0..10u64 {
                    ep.send(1, &i);
                }
                let echoed: u64 = ep.recv(1);
                let c = ep.counters();
                (
                    echoed,
                    c.get(Counter::FaultsInjected),
                    c.get(Counter::Reconnects),
                    c.get(Counter::ReplayedFrames),
                )
            } else {
                let mut sum = 0u64;
                for _ in 0..10 {
                    sum += ep.recv::<u64>(0);
                }
                ep.send(0, &sum);
                (sum, 0, 0, 0)
            }
        });
        let (echoed, faults, reconnects, replayed) =
            *results[0].as_ref().expect("party 0 survives the drop");
        assert_eq!(echoed, 45);
        assert_eq!(results[1].as_ref().unwrap().0, 45);
        assert!(faults >= 1 && reconnects >= 1 && replayed >= 1);
    }

    #[test]
    fn crash_party_surfaces_typed_errors_everywhere() {
        let plan = FaultPlan::parse(&["crash_party 0 at_bytes=1".into()]).unwrap();
        // Short wedge timeout so the surviving party fails fast once the
        // crasher is gone.
        let net = NetConfig {
            recv_timeout: Duration::from_millis(300),
            ..NetConfig::default()
        };
        let eps = faulted(2, net, &plan);
        let results = try_run_parties_on(eps, |ep| {
            if ep.id() == 0 {
                ep.send(1, &1u64); // crashes here
            } else {
                let _: u64 = ep.recv(0);
                let _: u64 = ep.recv(0); // never arrives
            }
            ep.id()
        });
        let crate::RunFailure::Transport(crash) = results[0].as_ref().expect_err("party 0 crashes")
        else {
            panic!("expected transport failure");
        };
        assert_eq!(crash.kind, TransportErrorKind::InjectedCrash);
        assert_eq!(crash.party, 0);
        assert!(crash.detail.contains("crash_party 0"), "{}", crash.detail);
        let crate::RunFailure::Transport(survivor) =
            results[1].as_ref().expect_err("party 1 wedges")
        else {
            panic!("expected transport failure");
        };
        assert_eq!(survivor.party, 1);
        assert_eq!(survivor.peer, Some(0));
    }

    #[test]
    fn crash_on_the_drop_flush_of_an_unwinding_party_is_not_an_abort() {
        // Party 0 stages a frame, then fails with a typed error; the crash
        // fires on the frame its endpoint's `Drop` flushes during that
        // unwind. A second panic there would abort the test process.
        let plan = FaultPlan::parse(&["crash_party 0 at_bytes=1".into()]).unwrap();
        let net = NetConfig {
            recv_timeout: Duration::from_millis(300),
            ..NetConfig::default()
        };
        let eps = faulted(2, net, &plan);
        let results = try_run_parties_on(eps, |ep| {
            if ep.id() == 0 {
                ep.send(1, &1u64);
                crate::TransportError::new(TransportErrorKind::Timeout, 0, "other", "failing")
                    .raise();
            }
            ep.recv::<u64>(0)
        });
        let crate::RunFailure::Transport(first) = results[0].as_ref().expect_err("party 0 fails")
        else {
            panic!("expected transport failure");
        };
        assert_eq!((first.kind, first.party), (TransportErrorKind::Timeout, 0));
        let crate::RunFailure::Transport(survivor) =
            results[1].as_ref().expect_err("party 1 loses its peer")
        else {
            panic!("expected transport failure");
        };
        assert_eq!((survivor.party, survivor.peer), (1, Some(0)));
    }

    #[test]
    fn note_round_crash_raises_on_endpoint() {
        let plan = FaultPlan::parse(&["crash_party 1 at_round=1".into()]).unwrap();
        let eps = faulted(2, NetConfig::default(), &plan);
        let results = try_run_parties_on(eps, |ep| {
            ep.note_round();
            ep.id()
        });
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        let crate::RunFailure::Transport(crash) =
            results[1].as_ref().expect_err("party 1 crashes at round 1")
        else {
            panic!("expected transport failure");
        };
        assert_eq!(crash.kind, TransportErrorKind::InjectedCrash);
        assert_eq!(crash.party, 1);
    }
}
