//! Interruptible idle waits for background threads.
//!
//! Reconnect backoff, acceptor polling, and similar maintenance loops
//! spend most of their life sleeping between attempts. A plain
//! `thread::sleep` makes teardown pay the full remaining sleep: dropping
//! a link mid-backoff would block `Drop` for seconds. An [`IdleGate`]
//! replaces those sleeps with condvar waits that any thread can cut
//! short — `interrupt` wakes every waiter immediately and permanently,
//! so shutdown latency is bounded by lock handoff, not by the longest
//! backoff step in flight.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A shared wake-up gate for idle loops.
///
/// Waiters park with [`IdleGate::wait_for`]; any thread calls
/// [`IdleGate::interrupt`] once to release all current and future waits
/// (the gate latches — it cannot be re-armed, matching its use as a
/// shutdown signal).
#[derive(Default)]
pub struct IdleGate {
    interrupted: Mutex<bool>,
    wake: Condvar,
}

impl IdleGate {
    /// A fresh, armed gate.
    pub fn new() -> IdleGate {
        IdleGate::default()
    }

    /// Park the calling thread for up to `timeout`, returning early if
    /// the gate is (or becomes) interrupted. Returns `true` when the
    /// full wait elapsed, `false` when it was cut short.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut interrupted = self.interrupted.lock().expect("idle gate poisoned");
        loop {
            if *interrupted {
                return false;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return true;
            }
            let (guard, _timeout) = self
                .wake
                .wait_timeout(interrupted, remaining)
                .expect("idle gate poisoned");
            interrupted = guard;
        }
    }

    /// Latch the gate: every current and future [`IdleGate::wait_for`]
    /// returns immediately.
    pub fn interrupt(&self) {
        *self.interrupted.lock().expect("idle gate poisoned") = true;
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_wait_elapses_when_not_interrupted() {
        let gate = IdleGate::new();
        let start = Instant::now();
        assert!(gate.wait_for(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn interrupt_cuts_a_wait_short() {
        let gate = Arc::new(IdleGate::new());
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let start = Instant::now();
                let elapsed_fully = gate.wait_for(Duration::from_secs(30));
                (elapsed_fully, start.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        gate.interrupt();
        let (elapsed_fully, waited) = waiter.join().expect("waiter");
        assert!(!elapsed_fully);
        assert!(waited < Duration::from_secs(5), "wait not cut: {waited:?}");
    }

    #[test]
    fn interrupt_latches_for_future_waits() {
        let gate = IdleGate::new();
        gate.interrupt();
        let start = Instant::now();
        assert!(!gate.wait_for(Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
