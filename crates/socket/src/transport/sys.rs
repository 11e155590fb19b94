//! The two socket calls the caller-thread I/O paths need beyond `std`:
//! `poll(2)` over several descriptors with a timeout, and a non-blocking
//! `send(2)` on a descriptor that stays blocking for its writer thread.
//!
//! The build environment has no `libc` crate, so both are declared
//! directly against the platform C library (as `ts-shm` does for `mmap`).

use std::io;
use std::os::raw::{c_int, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable (or end of stream / pending connection on a listener).
const POLLIN: c_short = 0x1;

#[cfg(target_os = "linux")]
const SEND_FLAGS: c_int = 0x40 /* MSG_DONTWAIT */ | 0x4000 /* MSG_NOSIGNAL */;
// Elsewhere SIGPIPE is already ignored by the Rust runtime.
#[cfg(not(target_os = "linux"))]
const SEND_FLAGS: c_int = 0x80 /* MSG_DONTWAIT */;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in readability of `fd`.
    pub(crate) fn readable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// True when `poll` reported any event (data, hang-up or error): a
    /// read will not block.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    #[link_name = "send"]
    fn c_send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
}

/// Waits up to `timeout` until one of `fds` is ready; returns how many
/// are. An interrupted wait reports zero ready descriptors.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    // Round up so a sub-millisecond remainder still waits instead of
    // spinning.
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is a valid, exclusively borrowed array of `pollfd`.
    let n = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(0)
        } else {
            Err(e)
        };
    }
    Ok(n as usize)
}

/// One non-blocking `send` of `buf`: returns the bytes the kernel took
/// (possibly fewer than `buf.len()`), or `WouldBlock` when it took none.
pub(crate) fn send_nonblocking(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a valid slice for the duration of the call.
        let n = unsafe { c_send(fd, buf.as_ptr().cast(), buf.len(), SEND_FLAGS) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}
