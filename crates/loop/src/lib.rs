//! rzen-loop: zero-dependency reactor primitives.
//!
//! The serve tier's event loop is built from four pieces, all std-only
//! with raw syscalls or `extern "C"` where std has no surface:
//!
//! * [`sys`] — the readiness poller and pipe behind one surface: raw
//!   inline-asm `epoll`/`pipe2` on Linux x86-64/aarch64, `poll(2)` on
//!   every other Unix (no libc crate either way).
//! * [`ring`] — bounded lock-free SPSC rings carrying jobs to shards and
//!   completions back.
//! * [`framing`] — incremental NDJSON line and HTTP/1.1 decoders plus a
//!   bounded outbound [`framing::WriteBuf`], all safe against single-byte
//!   delivery.
//! * [`Doorbell`] — a nonblocking self-pipe shards ring to wake the
//!   reactor when completions land (the eventfd pattern, done with a
//!   pipe so one primitive covers every kernel we target).

#![warn(missing_docs)]

pub mod framing;
pub mod ring;
pub mod sys;

use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};

/// A wakeup channel built on a nonblocking pipe. Any thread may [`ring`]
/// it; the reactor registers [`read_fd`] for EPOLLIN and [`drain`]s on
/// wakeup. Multiple rings before a drain coalesce into one readable event
/// (the pipe simply holds more bytes), and ringing a full pipe is a no-op —
/// the reactor is already guaranteed to wake.
///
/// [`ring`]: Doorbell::ring
/// [`read_fd`]: Doorbell::read_fd
/// [`drain`]: Doorbell::drain
pub struct Doorbell {
    read: OwnedFd,
    write: OwnedFd,
}

impl Doorbell {
    /// Create the pipe pair (both ends nonblocking, CLOEXEC).
    pub fn new() -> io::Result<Doorbell> {
        let (read, write) = sys::pipe2_nonblocking()?;
        Ok(Doorbell { read, write })
    }

    /// The fd to register for EPOLLIN.
    pub fn read_fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Wake the reactor. Never blocks; a full pipe already implies a
    /// pending wakeup, so EAGAIN is ignored.
    pub fn ring(&self) {
        let _ = sys::write(self.write.as_raw_fd(), &[1u8]);
    }

    /// Consume all pending wakeup bytes (call once readable).
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        loop {
            match sys::read(self.read.as_raw_fd(), &mut buf) {
                Ok(n) if n == buf.len() => continue,
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doorbell_rings_coalesce_and_drain() {
        let bell = Doorbell::new().unwrap();
        for _ in 0..10 {
            bell.ring();
        }
        let ep = sys::Epoll::new().unwrap();
        ep.add(bell.read_fd(), sys::EPOLLIN, 1).unwrap();
        let mut events = [sys::EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        bell.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        bell.ring();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
    }
}
