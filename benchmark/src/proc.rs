//! One timed child process: wall-clock from spawn to exit, and the child's
//! own CPU time and peak RSS from `wait4`'s rusage (std has no rusage, so
//! the three libc calls are declared here).

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitStatus};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs, of
/// which only the first (`ru_maxrss`, KiB) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

/// Room for a `siginfo_t`, which `waitid` fills and nothing here reads.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

extern "C" {
    fn waitid(idtype: u32, id: u32, infop: *mut SigInfo, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How one child ended and what it cost.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Exit status (code or signal).
    pub status: ExitStatus,
    /// Whether the child was killed for running past the time limit.
    pub timed_out: bool,
    /// Spawn to exit, in milliseconds.
    pub wall_ms: f64,
    /// User plus system CPU time of the child, in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set size of the child, in MiB.
    pub rss_mb: f64,
}

/// Retries a system call interrupted by a signal.
fn retry(mut call: impl FnMut() -> i32) -> io::Result<i32> {
    loop {
        let r = call();
        if r >= 0 {
            return Ok(r);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Spawns `cmd`, waits for it, and kills it once it has run for `limit`.
///
/// The child is reaped here with `wait4`, never through std's `Child`, so
/// the rusage is the child's alone. Waiting first with `WNOWAIT` leaves the
/// exited child unreaped until the watchdog has stood down, so a kill can
/// never reach a recycled pid.
pub fn run(cmd: &mut Command, limit: Duration) -> io::Result<Measured> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id() as i32;
    let exited = Mutex::new(false);
    let wake = Condvar::new();
    let (wall, timed_out) = std::thread::scope(|s| -> io::Result<(Duration, bool)> {
        let watchdog = s.spawn(|| {
            let guard = exited.lock().expect("exit flag holder panicked");
            let (guard, _) = wake
                .wait_timeout_while(guard, limit, |done| !*done)
                .expect("exit flag holder panicked");
            if !*guard {
                // SAFETY: plain syscall on a pid this process spawned and has
                // not reaped (reaping waits for the flag this guard holds).
                unsafe { kill(pid, SIGKILL) };
                return true;
            }
            false
        });
        let mut info = SigInfo([0; 128]);
        // SAFETY: `info` is a writable buffer at least as large as siginfo_t;
        // WNOWAIT leaves the child a zombie, so its pid stays ours.
        let waited = retry(|| unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) });
        let wall = start.elapsed();
        *exited.lock().expect("watchdog panicked") = true;
        wake.notify_one();
        let timed_out = watchdog.join().expect("watchdog panicked");
        waited.map(|_| (wall, timed_out))
    })?;
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: both out-pointers reference live, correctly laid out locals.
    retry(|| unsafe { wait4(pid, &mut status, 0, &mut ru) })?;
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Measured {
        status: ExitStatus::from_raw(status),
        timed_out,
        wall_ms: wall.as_secs_f64() * 1e3,
        cpu_ms: (secs(&ru.utime) + secs(&ru.stime)) * 1e3,
        rss_mb: ru.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_exit_code_and_time() {
        let m = run(
            Command::new("sh").args(["-c", "exit 3"]),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(m.status.code(), Some(3));
        assert!(!m.timed_out);
        assert!(m.wall_ms > 0.0 && m.rss_mb > 0.0);
    }

    #[test]
    fn kills_a_child_past_the_limit() {
        let m = run(Command::new("sleep").arg("30"), Duration::from_millis(100)).unwrap();
        assert!(m.timed_out);
        assert_eq!(m.status.signal(), Some(SIGKILL));
        assert!(m.wall_ms < 10_000.0);
    }
}
