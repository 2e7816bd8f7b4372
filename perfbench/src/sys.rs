//! Process accounting the standard library does not expose: the CPU clock
//! of another process and the resource usage of a reaped child (Linux).
//!
//! Both are read from outside the daemon, so the program under test needs
//! no instrumentation. The process CPU clock counts every thread of the
//! process, including threads that already exited, in nanoseconds; the
//! 10 ms ticks of `/proc/<pid>/stat` are too coarse for short phases.

use std::ffi::{c_int, c_long};
use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
#[derive(Default)]
#[allow(dead_code)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux: two `timeval`s followed by fourteen `long`s.
/// `wait4` fills every field; only a few are read.
#[repr(C)]
#[derive(Default)]
#[allow(dead_code)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

const WNOHANG: c_int = 1;

extern "C" {
    fn clock_getcpuclockid(pid: c_int, clock_id: *mut c_int) -> c_int;
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Resource usage of a reaped child over its whole life.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// Peak resident set size in KiB.
    pub max_rss_kib: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

fn pid_arg(pid: u32) -> io::Result<c_int> {
    c_int::try_from(pid).map_err(|_| io::Error::other(format!("pid {pid} out of range")))
}

/// CPU time consumed so far by every thread of process `pid`.
pub fn process_cpu_ns(pid: u32) -> io::Result<u64> {
    let pid = pid_arg(pid)?;
    let mut clock: c_int = 0;
    // SAFETY: `clock` is a valid, writable `clockid_t` (an `int` on Linux)
    // for the duration of the call.
    let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if rc != 0 {
        return Err(io::Error::from_raw_os_error(rc));
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of `struct timespec` on Linux and is
    // writable for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Peak resident set size of process `pid` so far (`VmHWM` of
/// `/proc/<pid>/status`), in KiB.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
}

/// Reaps child `pid` if it has exited, returning its resource usage;
/// `None` while it still runs. The caller must not also reap the child
/// through `std::process::Child::wait`.
pub fn try_reap(pid: u32) -> io::Result<Option<Usage>> {
    let pid = pid_arg(pid)?;
    let mut status: c_int = 0;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are valid, writable and laid out as the
    // `int` and `struct rusage` that `wait4` fills in on Linux.
    let rc = unsafe { wait4(pid, &mut status, WNOHANG, &mut ru) };
    match rc {
        0 => Ok(None),
        r if r == pid => Ok(Some(Usage {
            max_rss_kib: ru.ru_maxrss as u64,
            ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
        })),
        _ => Err(io::Error::last_os_error()),
    }
}
