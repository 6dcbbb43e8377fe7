//! Waiting for a socket to become readable with a nanosecond timeout.
//!
//! A socket read timeout (`SO_RCVTIMEO`) is rounded up to the kernel's
//! tick, often 4 or 10 ms, which would make an open-loop generator that
//! waits for "a reply or the next send, whichever comes first" miss its
//! send times by that much. `ppoll(2)` sleeps on a high-resolution
//! timer instead. The standard library has no binding for it, so this
//! module declares the one C function it needs.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark calls ppoll(2) with the 64-bit Linux struct layouts");

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` has data (or an error or hang-up) to read, or
/// `timeout` passes. Returns whether it became readable.
pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly aligned `repr(C)` values
    // laid out as the kernel's `struct pollfd` and `struct timespec` on
    // 64-bit Linux; `nfds` is 1, matching the single `pollfd`; a null
    // signal mask leaves the mask unchanged. `ppoll` writes only
    // `fd.revents` and keeps no pointer after it returns.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n < 0 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(fd.revents != 0),
    }
}
