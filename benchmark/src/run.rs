//! One-shot runs of the `pivot` binary: spawn, wait with a deadline,
//! collect exit status, wall clock and resource usage of every child.

use std::net::TcpListener;
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How one child process ended.
#[derive(Clone, Debug)]
pub struct ChildExit {
    /// Spawn to exit, as the driver saw it.
    pub wall_s: f64,
    /// `None` when the child was killed by a signal (including the
    /// driver's own kill at the deadline).
    pub exit_code: Option<i32>,
    pub timed_out: bool,
    /// `ru_maxrss` of the child, in MiB.
    pub peak_rss_mib: f64,
    /// User plus system CPU seconds of the child.
    pub cpu_s: f64,
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage` of Linux: two timevals followed by fourteen longs, of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

const WNOHANG: c_int = 1;

/// Reap `child` if it has exited (`block` waits for it). The standard
/// library's `wait` discards the resource usage the kernel hands back,
/// so the driver calls `wait4` itself — and must then never call
/// `Child::wait`/`kill` on a reaped child.
fn reap(child: &Child, block: bool) -> Option<(ExitStatus, Rusage)> {
    let mut status: c_int = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `status` and `usage` are valid for writes of their types for
    // the duration of the call, `Rusage` matches the kernel's layout (see
    // the struct), and the pid is a live, un-reaped child of this process.
    let got = unsafe {
        wait4(
            child.id() as c_int,
            &mut status,
            if block { 0 } else { WNOHANG },
            usage.as_mut_ptr(),
        )
    };
    // SAFETY: zero-initialised above, and all-zero is a valid `Rusage`.
    (got > 0).then(|| (ExitStatus::from_raw(status), unsafe { usage.assume_init() }))
}

/// Spawn every command (stdout and stderr go to `<log_stem><i>.log`) and
/// wait for all of them, killing whatever still runs at `timeout`.
pub fn run_children(
    commands: Vec<Command>,
    log_stem: &Path,
    timeout: Duration,
) -> std::io::Result<Vec<ChildExit>> {
    let mut running: Vec<(Child, Instant, Option<ChildExit>)> = Vec::new();
    let mut spawn_error = None;
    for (i, mut command) in commands.into_iter().enumerate() {
        let log = std::fs::File::create(log_path(log_stem, i))?;
        let spawned = command
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn();
        match spawned {
            Ok(child) => running.push((child, Instant::now(), None)),
            Err(e) => {
                spawn_error = Some(e);
                break;
            }
        }
    }
    // A partly started mesh would only wait for its missing party.
    let deadline = match spawn_error {
        Some(_) => Instant::now(),
        None => Instant::now() + timeout,
    };

    loop {
        let timed_out = Instant::now() >= deadline;
        for (child, started, exit) in running.iter_mut().filter(|r| r.2.is_none()) {
            if timed_out {
                // Not reaped yet, so the pid is still this child's.
                let _ = child.kill();
            }
            if let Some((status, usage)) = reap(child, timed_out) {
                *exit = Some(ChildExit {
                    wall_s: started.elapsed().as_secs_f64(),
                    exit_code: status.code(),
                    timed_out,
                    peak_rss_mib: usage.maxrss_kib as f64 / 1024.0,
                    cpu_s: usage.utime.seconds() + usage.stime.seconds(),
                });
            }
        }
        if running.iter().all(|r| r.2.is_some()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    match spawn_error {
        Some(e) => Err(e),
        None => Ok(running.into_iter().map(|r| r.2.expect("reaped")).collect()),
    }
}

pub fn log_path(log_stem: &Path, child: usize) -> PathBuf {
    PathBuf::from(format!("{}{child}.log", log_stem.display()))
}

/// The last non-empty line a child printed (its `error: …` line when it
/// failed).
pub fn log_tail(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(str::to_string)
}

/// `m` loopback addresses on ports the kernel just reported free. The
/// probe sockets are closed before the addresses are used, so another
/// process could in principle grab one in between; the run then fails
/// and is counted as failed.
pub fn free_loopback_peers(m: usize) -> Vec<String> {
    let probes: Vec<TcpListener> = (0..m)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("loopback has a free port"))
        .collect();
    probes
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().expect("bound").port()))
        .collect()
}

/// A fresh directory for one test, under the package's ignored `out/`.
#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::test_dir as scratch;
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn collects_exit_codes_usage_and_output() {
        let dir = scratch("exit");
        let exits = run_children(
            vec![
                sh("echo ready; exit 0"),
                sh("echo 'error: boom' >&2; exit 10"),
            ],
            &dir.join("child"),
            Duration::from_secs(20),
        )
        .unwrap();
        assert_eq!(exits[0].exit_code, Some(0));
        assert_eq!(exits[1].exit_code, Some(10));
        assert!(exits.iter().all(|e| !e.timed_out && e.peak_rss_mib > 0.0));
        assert_eq!(
            log_tail(&log_path(&dir.join("child"), 1)).as_deref(),
            Some("error: boom")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kills_every_child_at_the_deadline() {
        let dir = scratch("timeout");
        let start = Instant::now();
        let exits = run_children(
            vec![sh("exec sleep 30"), sh("exec sleep 30"), sh("exit 0")],
            &dir.join("child"),
            Duration::from_secs(2),
        )
        .unwrap();
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(exits[0].timed_out && exits[0].exit_code.is_none());
        assert!(exits[1].timed_out && exits[1].exit_code.is_none());
        assert!(!exits[2].timed_out && exits[2].exit_code == Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn free_ports_are_distinct_loopback_addresses() {
        let peers = free_loopback_peers(3);
        let addrs: std::collections::BTreeSet<std::net::SocketAddr> =
            peers.iter().map(|p| p.parse().unwrap()).collect();
        assert_eq!(addrs.len(), 3);
        assert!(addrs.iter().all(|a| a.ip().is_loopback() && a.port() != 0));
    }
}
