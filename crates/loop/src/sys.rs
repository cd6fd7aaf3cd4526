//! Readiness polling and the doorbell pipe — no libc crate.
//!
//! The repo is zero-external-crates, so the reactor talks to the kernel
//! through one small surface with two backends, selected at build time by
//! target:
//!
//! * [`epoll`] — Linux x86-64/aarch64: a per-architecture `syscall` shim
//!   wraps the `syscall`/`svc 0` instruction and the handful of syscall
//!   numbers we need (`epoll_create1`/`epoll_ctl`/`epoll_wait`, `pipe2`,
//!   `read`, `write`).
//! * [`poll`] — every other Unix: `poll(2)`, `read(2)` and `write(2)`
//!   declared `extern "C"` (std already links the platform C library)
//!   over a small fd → (interest, token) registry.
//!
//! Both expose the same level-triggered contract — `new`, `add`, `modify`,
//! `delete`, `wait`, plus `pipe2_nonblocking`/`read`/`write` — and speak
//! the `EPOLL*` bit vocabulary below. [`Epoll`] and the three free
//! functions re-exported here are whichever backend the target selects;
//! everything above this module (the doorbell, the reactor) is written
//! once against them. The `poll` backend compiles on Linux too, so one
//! conformance suite (this module's tests) holds both to the contract.

/// Readable event (data available / accept ready).
pub const EPOLLIN: u32 = 0x1;
/// Writable event (send buffer has room).
pub const EPOLLOUT: u32 = 0x4;
/// Error condition on the fd.
pub const EPOLLERR: u32 = 0x8;
/// Hangup (peer closed both directions).
pub const EPOLLHUP: u32 = 0x10;
/// Peer closed its write half (half-close detection without a read).
pub const EPOLLRDHUP: u32 = 0x2000;

/// One ready event, laid out as the kernel's `struct epoll_event`. x86_64
/// uses the packed layout (no padding between `events` and `data`); other
/// architectures use natural alignment, which matches the kernel's non-x86
/// definition.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Bitmask of EPOLL* flags.
    pub events: u32,
    /// Caller token, returned verbatim on readiness.
    pub data: u64,
}

impl EpollEvent {
    /// The ready-event bitmask, read by value (the struct may be packed).
    pub fn mask(&self) -> u32 {
        self.events
    }

    /// The registration token, read by value (the struct may be packed).
    pub fn token(&self) -> u64 {
        self.data
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use epoll::{pipe2_nonblocking, read, write, Epoll};
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub use poll::{pipe2_nonblocking, read, write, Poll as Epoll};

/// The raw-syscall epoll backend (Linux x86-64/aarch64).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod epoll {
    use super::EpollEvent;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: u64 = 0x80000;
    const O_NONBLOCK: u64 = 0x800;
    const O_CLOEXEC: u64 = 0x80000;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: u64 = 0;
        pub const WRITE: u64 = 1;
        pub const EPOLL_WAIT: u64 = 232;
        pub const EPOLL_CTL: u64 = 233;
        pub const EPOLL_CREATE1: u64 = 291;
        pub const PIPE2: u64 = 293;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 20;
        pub const EPOLL_CTL: u64 = 21;
        pub const EPOLL_PWAIT: u64 = 22;
        pub const PIPE2: u64 = 59;
        pub const READ: u64 = 63;
        pub const WRITE: u64 = 64;
    }

    /// # Safety
    /// `n` must be a syscall number of this architecture and the
    /// arguments must satisfy that syscall's contract (valid pointers
    /// with the lengths passed beside them).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    unsafe fn syscall6(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as i64 => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// # Safety
    /// As for the x86-64 shim above.
    #[cfg(target_arch = "aarch64")]
    #[inline]
    unsafe fn syscall6(n: u64, a: u64, b: u64, c: u64, d: u64, e: u64, f: u64) -> i64 {
        let ret: i64;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a as i64 => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    fn epoll_ctl(
        epfd: RawFd,
        op: i32,
        fd: RawFd,
        event: Option<&mut EpollEvent>,
    ) -> io::Result<()> {
        let ptr = event.map_or(0u64, |e| e as *mut EpollEvent as u64);
        // SAFETY: `ptr` is null or a live `EpollEvent` in the kernel's layout.
        check(unsafe { syscall6(nr::EPOLL_CTL, epfd as u64, op as u64, fd as u64, ptr, 0, 0) })?;
        Ok(())
    }

    /// Create a nonblocking CLOEXEC pipe pair (read end, write end).
    pub fn pipe2_nonblocking() -> io::Result<(OwnedFd, OwnedFd)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is the two-int array pipe2 writes into.
        check(unsafe {
            syscall6(
                nr::PIPE2,
                fds.as_mut_ptr() as u64,
                O_NONBLOCK | O_CLOEXEC,
                0,
                0,
                0,
                0,
            )
        })?;
        // SAFETY: on success the kernel returned two fresh fds nobody else owns.
        Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
    }

    /// Raw `read(2)`; EAGAIN surfaces as `ErrorKind::WouldBlock`.
    pub fn read(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: the pointer/length pair describes `buf`, writable for its length.
        let ret = check(unsafe {
            syscall6(
                nr::READ,
                fd as u64,
                buf.as_mut_ptr() as u64,
                buf.len() as u64,
                0,
                0,
                0,
            )
        })?;
        Ok(ret as usize)
    }

    /// Raw `write(2)`; EAGAIN surfaces as `ErrorKind::WouldBlock`.
    pub fn write(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: the pointer/length pair describes `buf`, readable for its length.
        let ret = check(unsafe {
            syscall6(
                nr::WRITE,
                fd as u64,
                buf.as_ptr() as u64,
                buf.len() as u64,
                0,
                0,
                0,
            )
        })?;
        Ok(ret as usize)
    }

    /// An epoll instance. Registration is level-triggered; interest is
    /// expressed per-fd with an opaque `u64` token that comes back in ready
    /// events.
    pub struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        /// Create a new epoll instance (CLOEXEC).
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
            // SAFETY: on success the kernel returned a fresh fd nobody else owns.
            Ok(Epoll {
                fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
            })
        }

        /// Register `fd` with the given interest mask and token.
        pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest,
                data: token,
            };
            epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, Some(&mut ev))
        }

        /// Change the interest mask for an already-registered `fd`.
        pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest,
                data: token,
            };
            epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_MOD, fd, Some(&mut ev))
        }

        /// Remove `fd` from the interest set.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, None)
        }

        /// Wait up to `timeout_ms` (-1 = forever) for ready events. EINTR is
        /// reported as zero events so callers just loop.
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            let epfd = self.fd.as_raw_fd();
            // SAFETY: the pointer/length pair describes `events`, writable
            // for its length, in the kernel's `epoll_event` layout.
            let ret = unsafe {
                #[cfg(target_arch = "x86_64")]
                {
                    syscall6(
                        nr::EPOLL_WAIT,
                        epfd as u64,
                        events.as_mut_ptr() as u64,
                        events.len() as u64,
                        timeout_ms as i64 as u64,
                        0,
                        0,
                    )
                }
                #[cfg(target_arch = "aarch64")]
                {
                    // aarch64 has no plain epoll_wait; epoll_pwait with a NULL
                    // sigmask is the same call.
                    syscall6(
                        nr::EPOLL_PWAIT,
                        epfd as u64,
                        events.as_mut_ptr() as u64,
                        events.len() as u64,
                        timeout_ms as i64 as u64,
                        0,
                        8, // sigsetsize, ignored when the mask pointer is NULL
                    )
                }
            };
            if ret < 0 {
                let err = io::Error::from_raw_os_error(-ret as i32);
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(ret as usize)
        }
    }
}

/// The portable `poll(2)` backend: the selected backend wherever the raw
/// epoll one is not, and compiled everywhere so its conformance is tested
/// on Linux as well.
pub mod poll {
    use super::{EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::{OwnedFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Mutex;

    /// `struct pollfd`, identical on every Unix.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::ffi::c_uint;

    mod c {
        use std::ffi::{c_int, c_void};
        extern "C" {
            pub fn poll(fds: *mut super::PollFd, nfds: super::NFds, timeout: c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        }
    }

    // POLLIN/POLLOUT/POLLERR/POLLHUP carry the same values as their EPOLL*
    // namesakes on every Unix, so those four bits translate by identity.
    // POLLRDHUP exists (with EPOLLRDHUP's value) on Linux only; elsewhere
    // a half-close is seen as `EPOLLIN` followed by a zero-length read.
    const POLLNVAL: i16 = 0x20;
    const REQUESTABLE: u32 = EPOLLIN
        | EPOLLOUT
        | if cfg!(any(target_os = "linux", target_os = "android")) {
            EPOLLRDHUP
        } else {
            0
        };
    const REPORTABLE: u32 = REQUESTABLE | EPOLLERR | EPOLLHUP;

    /// A nonblocking CLOEXEC doorbell pair (read end, write end). `pipe2`
    /// is not portable and std has no nonblocking pipe, so this is a Unix
    /// socket pair: same one-byte ring/drain protocol, same EAGAIN when
    /// full.
    pub fn pipe2_nonblocking() -> io::Result<(OwnedFd, OwnedFd)> {
        let (r, w) = UnixStream::pair()?;
        r.set_nonblocking(true)?;
        w.set_nonblocking(true)?;
        Ok((r.into(), w.into()))
    }

    /// `read(2)`; EAGAIN surfaces as `ErrorKind::WouldBlock`.
    pub fn read(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: the pointer/length pair describes `buf`, writable for its length.
        let n = unsafe { c::read(fd, buf.as_mut_ptr().cast(), buf.len()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// `write(2)`; EAGAIN surfaces as `ErrorKind::WouldBlock`.
    pub fn write(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: the pointer/length pair describes `buf`, readable for its length.
        let n = unsafe { c::write(fd, buf.as_ptr().cast(), buf.len()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// The interest set: `fds[i]` is registered under `tokens[i]`. Kept in
    /// `poll(2)`'s own layout so a wait passes it to the kernel as is.
    #[derive(Default)]
    struct Registry {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Registry {
        fn position(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
        }
    }

    /// A `poll(2)` interest set with epoll's level-triggered contract. The
    /// registry lock is held across a wait; the reactor is the only thread
    /// that touches its poller, so nothing ever contends for it.
    pub struct Poll {
        registry: Mutex<Registry>,
    }

    impl Poll {
        /// Create an empty interest set.
        pub fn new() -> io::Result<Poll> {
            Ok(Poll {
                registry: Mutex::new(Registry::default()),
            })
        }

        fn registry(&self) -> std::sync::MutexGuard<'_, Registry> {
            self.registry
                .lock()
                .expect("no registry operation can panic while holding the lock")
        }

        /// Register `fd` with the given interest mask and token.
        pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut reg = self.registry();
            if reg.position(fd).is_ok() {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            reg.fds.push(PollFd {
                fd,
                events: (interest & REQUESTABLE) as i16,
                revents: 0,
            });
            reg.tokens.push(token);
            Ok(())
        }

        /// Change the interest mask for an already-registered `fd`.
        pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
            let mut reg = self.registry();
            let i = reg.position(fd)?;
            reg.fds[i].events = (interest & REQUESTABLE) as i16;
            reg.tokens[i] = token;
            Ok(())
        }

        /// Remove `fd` from the interest set.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut reg = self.registry();
            let i = reg.position(fd)?;
            reg.fds.swap_remove(i);
            reg.tokens.swap_remove(i);
            Ok(())
        }

        /// Wait up to `timeout_ms` (-1 = forever) for ready events. EINTR is
        /// reported as zero events so callers just loop. Readiness that does
        /// not fit in `events` is reported by the next wait (level-triggered).
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            let mut reg = self.registry();
            // SAFETY: the pointer/length pair describes `reg.fds`, a live
            // `Vec` of `struct pollfd`-layout entries held under the lock.
            let ready = unsafe { c::poll(reg.fds.as_mut_ptr(), reg.fds.len() as NFds, timeout_ms) };
            if ready < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            let mut n = 0;
            for (p, &token) in reg.fds.iter().zip(&reg.tokens) {
                if p.revents == 0 {
                    continue;
                }
                if n == events.len() {
                    break;
                }
                let mut mask = p.revents as u16 as u32 & REPORTABLE;
                if p.revents & POLLNVAL != 0 {
                    // Registered but closed: epoll would have dropped it;
                    // here it must surface so the owner deletes it.
                    mask |= EPOLLERR;
                }
                events[n] = EpollEvent {
                    events: mask,
                    data: token,
                };
                n += 1;
            }
            Ok(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::thread::{JoinHandleExt, RawPthread};
    use std::time::{Duration, Instant};

    #[cfg(any(target_os = "linux", target_os = "android"))]
    const SIGUSR1: i32 = 10;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const SIGUSR1: i32 = 30;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn pthread_kill(thread: RawPthread, sig: i32) -> i32;
    }

    extern "C" fn ignore_signal(_sig: i32) {}

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// The poller contract the reactor is written against, checked once
    /// per backend: `$m` is a backend module, `$poller` its poller type.
    macro_rules! conformance {
        ($name:ident, $m:ident, $poller:ident) => {
            mod $name {
                use super::*;
                use $m::{pipe2_nonblocking, read, write, $poller as Poller};

                #[test]
                fn readiness_is_level_triggered_until_drained() {
                    let (mut client, mut server) = tcp_pair();
                    let ep = Poller::new().unwrap();
                    ep.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();
                    let mut events = [EpollEvent::default(); 4];
                    assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "nothing to read yet");

                    client.write_all(b"ping").unwrap();
                    // Unread data is reported by every wait, not once.
                    for _ in 0..2 {
                        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                        assert_eq!(events[0].token(), 7);
                        assert_ne!(events[0].mask() & EPOLLIN, 0);
                    }
                    let mut buf = [0u8; 2];
                    server.read_exact(&mut buf).unwrap();
                    assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1, "half drained");
                    server.read_exact(&mut buf).unwrap();
                    assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
                }

                #[test]
                fn modify_arms_and_disarms_write_interest_and_delete_silences() {
                    let (mut client, server) = tcp_pair();
                    let ep = Poller::new().unwrap();
                    ep.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();
                    let mut events = [EpollEvent::default(); 4];
                    // An empty send buffer is writable, but nobody asked.
                    assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

                    ep.modify(server.as_raw_fd(), EPOLLIN | EPOLLOUT, 9)
                        .unwrap();
                    assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                    assert_eq!(events[0].token(), 9, "modify re-tokens too");
                    assert_ne!(events[0].mask() & EPOLLOUT, 0);
                    assert_eq!(events[0].mask() & EPOLLIN, 0);

                    ep.modify(server.as_raw_fd(), EPOLLIN, 9).unwrap();
                    assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

                    ep.delete(server.as_raw_fd()).unwrap();
                    client.write_all(b"more").unwrap();
                    assert_eq!(ep.wait(&mut events, 50).unwrap(), 0);
                    assert!(ep.modify(server.as_raw_fd(), EPOLLIN, 9).is_err());
                    assert!(ep.delete(server.as_raw_fd()).is_err());
                    ep.add(server.as_raw_fd(), EPOLLIN, 11).unwrap();
                    assert!(ep.add(server.as_raw_fd(), EPOLLIN, 12).is_err());
                    assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                    assert_eq!(events[0].token(), 11);
                }

                #[test]
                fn wait_honours_its_timeout() {
                    let (_client, server) = tcp_pair();
                    let ep = Poller::new().unwrap();
                    ep.add(server.as_raw_fd(), EPOLLIN, 1).unwrap();
                    let mut events = [EpollEvent::default(); 4];
                    let started = Instant::now();
                    assert_eq!(ep.wait(&mut events, 60).unwrap(), 0);
                    let waited = started.elapsed();
                    assert!(waited >= Duration::from_millis(50), "{waited:?}");
                    assert!(waited < Duration::from_secs(5), "{waited:?}");
                }

                #[test]
                fn an_interrupted_wait_reports_zero_events() {
                    // SAFETY: the handler is async-signal-safe (it does nothing).
                    unsafe { signal(SIGUSR1, ignore_signal) };
                    let waiter = std::thread::spawn(|| {
                        let ep = Poller::new().unwrap();
                        let mut events = [EpollEvent::default(); 4];
                        let started = Instant::now();
                        (ep.wait(&mut events, 10_000), started.elapsed())
                    });
                    // Keep signalling: the first one may land before the
                    // thread has entered its wait.
                    while !waiter.is_finished() {
                        // SAFETY: the handle is unjoined, so its pthread id is live.
                        unsafe { pthread_kill(waiter.as_pthread_t(), SIGUSR1) };
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    let (result, waited) = waiter.join().unwrap();
                    assert_eq!(result.unwrap(), 0, "EINTR is zero events, not an error");
                    assert!(waited < Duration::from_secs(8), "cut short: {waited:?}");
                }

                #[test]
                fn peer_close_is_reported_as_eof_or_hangup() {
                    // TCP: the peer's FIN makes the socket readable (EOF).
                    let (client, mut server) = tcp_pair();
                    let ep = Poller::new().unwrap();
                    ep.add(server.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 3).unwrap();
                    drop(client);
                    let mut events = [EpollEvent::default(); 4];
                    assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                    assert_ne!(events[0].mask() & (EPOLLIN | EPOLLRDHUP | EPOLLHUP), 0);
                    assert_eq!(server.read(&mut [0u8; 8]).unwrap(), 0);

                    // Pipe: a vanished writer is a hangup, asked for or not.
                    let (r, w) = pipe2_nonblocking().unwrap();
                    ep.add(r.as_raw_fd(), 0, 4).unwrap();
                    ep.delete(server.as_raw_fd()).unwrap();
                    drop(w);
                    assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                    assert_eq!(events[0].token(), 4);
                    assert_ne!(events[0].mask() & (EPOLLHUP | EPOLLERR), 0);
                }

                #[test]
                fn doorbell_rings_coalesce_into_one_wakeup() {
                    let (r, w) = pipe2_nonblocking().unwrap();
                    let ep = Poller::new().unwrap();
                    ep.add(r.as_raw_fd(), EPOLLIN, 1).unwrap();
                    for _ in 0..10 {
                        assert_eq!(write(w.as_raw_fd(), &[1]).unwrap(), 1);
                    }
                    let mut events = [EpollEvent::default(); 4];
                    assert_eq!(
                        ep.wait(&mut events, 1000).unwrap(),
                        1,
                        "ten rings, one event"
                    );
                    let mut buf = [0u8; 256];
                    assert_eq!(read(r.as_raw_fd(), &mut buf).unwrap(), 10);
                    let err = read(r.as_raw_fd(), &mut buf).unwrap_err();
                    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
                    assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
                    write(w.as_raw_fd(), &[1]).unwrap();
                    assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                }
            }
        };
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    conformance!(epoll_backend, epoll, Epoll);
    conformance!(poll_backend, poll, Poll);
}
