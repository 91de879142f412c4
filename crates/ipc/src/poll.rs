//! `poll(2)` and `recv(2)`, the one place this crate talks to the
//! kernel past what `std` exposes: `std` has no readiness wait, and with
//! it one thread watches a collector's listener and every connection
//! ([`crate::tcp`]); nor has it a read that does not wait on a blocking
//! socket, and with `recv` that thread takes what a connection holds and
//! no more. The calls are declared directly — the workspace takes no
//! external crates, and the C library is already linked.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(test)]
thread_local! {
    /// How many `poll` and `recv` calls this thread has made: what the
    /// tests that pin rank 0's syscalls per frame read off its I/O
    /// thread.
    pub(crate) static POLLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static RECVS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One `struct pollfd`, watching `fd` for input: bytes, a pending
/// connection, EOF or an error.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn input(fd: RawFd) -> Self {
        const POLLIN: i16 = 0x1;
        Self {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] found it ready: a read or an accept on
    /// it returns without waiting.
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// Waits until one of `fds` is ready or `timeout` (rounded up to a
/// millisecond; `None`: none) has passed. A signal ends the wait early,
/// with nothing ready.
///
/// # Errors
///
/// `poll(2)`'s own failures (`ENOMEM`, `EINVAL`).
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    let timeout_ms = timeout.map_or(-1, |t| {
        i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
    });
    #[cfg(test)]
    POLLS.set(POLLS.get() + 1);
    // SAFETY: `fds` is an exclusively borrowed array of `struct pollfd`
    // of the length passed, alive for the call.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) } >= 0 {
        return Ok(());
    }
    match io::Error::last_os_error() {
        e if e.kind() == io::ErrorKind::Interrupted => Ok(()),
        e => Err(e),
    }
}

/// Reads what the socket `fd` holds into `buf` without waiting:
/// `recv(2)` with `MSG_DONTWAIT`, which answers
/// [`io::ErrorKind::WouldBlock`] when nothing is there. The descriptor
/// itself stays blocking — it shares its file status flags with the
/// connection's write half, whose writes keep their timeout.
///
/// # Errors
///
/// `WouldBlock` for an empty socket, and `recv(2)`'s own failures.
pub(crate) fn recv(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    #[cfg(target_os = "linux")]
    const MSG_DONTWAIT: i32 = 0x40;
    #[cfg(not(target_os = "linux"))]
    const MSG_DONTWAIT: i32 = 0x80;
    extern "C" {
        fn recv(fd: RawFd, buf: *mut std::ffi::c_void, len: usize, flags: i32) -> isize;
    }
    #[cfg(test)]
    RECVS.set(RECVS.get() + 1);
    // SAFETY: `buf` is an exclusively borrowed byte buffer of the length
    // passed, alive for the call.
    let n = unsafe { recv(fd, buf.as_mut_ptr().cast(), buf.len(), MSG_DONTWAIT) };
    usize::try_from(n).map_err(|_| io::Error::last_os_error())
}
