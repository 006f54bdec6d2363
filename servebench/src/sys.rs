//! The few Linux calls the standard library does not offer: waiting on a
//! socket with a sub-millisecond deadline, sending SIGTERM, and reading a
//! process's peak resident set.

use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const SIGTERM: c_int = 15;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

/// Sets the calling thread's timer slack to 1 ns, so its timed waits end
/// at their deadline rather than up to 50 µs (the default slack) later.
pub fn tighten_timer_slack() -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes its value in arg2 and ignores the
    // rest; it reads and writes no memory of ours.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Waits until `fd` is readable or `timeout` passes; returns whether it
/// is readable. Unlike a socket read timeout (rounded to scheduler
/// ticks), `ppoll` sleeps on a high-resolution timer, so an open-loop
/// sender can wait for replies right up to its next due time.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out (`repr(C)`
    // mirrors `struct pollfd` / `struct timespec` on 64-bit Linux) locals
    // for the whole call; nfds is 1, matching the single `pfd`; a null
    // sigmask means "leave the signal mask unchanged".
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
    }
}

/// Sends SIGTERM to `pid`.
pub fn terminate(pid: u32) -> io::Result<()> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    // SAFETY: `kill` takes plain integers and touches no memory of ours.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The peak resident set (`VmHWM`) of a live process, in KiB; `None`
/// once the process has exited.
#[must_use]
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}
