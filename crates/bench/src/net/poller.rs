//! Readiness polling over raw syscalls, no `libc` crate.
//!
//! On Linux the backend is `epoll(7)` (level-triggered) plus an `eventfd(2)`
//! waker registered under a reserved token; on other unix platforms it falls
//! back to `poll(2)` with a bounded wait so wakes are observed within one
//! tick even without an fd-based waker. Both backends present the same API:
//! register an fd with a `u64` token and an [`Interest`], wait, and get back
//! [`Event`]s naming the tokens that turned ready.

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// Which readiness the event loop currently cares about for an fd.
///
/// `None` keeps the registration but reports nothing — used while a request
/// is dispatched to the worker pool and the socket should stay untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interest {
    None,
    Read,
    Write,
}

/// One readiness notification: the registered token plus what fired.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup on the fd; the owner should attempt I/O (which will
    /// surface the real error) or drop the connection.
    pub hangup: bool,
}

/// Returns the raw fd of any socket-like object (portability shim: `-1` on
/// platforms without unix fds, where [`Poller::new`] refuses to start).
#[cfg(unix)]
pub fn raw_fd<T: AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
pub fn raw_fd<T>(_t: &T) -> i32 {
    -1
}

/// Token reserved for the internal waker registration; never surfaced.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// A handle that interrupts a blocked [`Poller::wait`] from another thread.
///
/// Linux: an 8-byte write to a non-blocking eventfd. Fallback backends wake
/// implicitly because `wait` never blocks longer than one tick.
#[derive(Clone)]
pub struct Waker {
    #[cfg(target_os = "linux")]
    inner: std::sync::Arc<linux::EventFd>,
}

impl Waker {
    /// A waker wired to nothing — for unit tests that construct shutdown
    /// handles directly, and for the non-Linux backends.
    pub fn disconnected() -> Self {
        Waker {
            #[cfg(target_os = "linux")]
            inner: std::sync::Arc::new(linux::EventFd { fd: -1 }),
        }
    }

    pub fn wake(&self) {
        #[cfg(target_os = "linux")]
        self.inner.signal();
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest, Waker, WAKER_TOKEN};
    use std::io;

    // `#[repr(packed)]` matches the x86_64 kernel ABI, where `epoll_event`
    // is declared `__attribute__((packed))`; other 64-bit targets use the
    // natural (8-byte aligned) layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // From the platform C library std already links (no libc crate).
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    pub(super) struct EventFd {
        pub(super) fd: i32,
    }

    impl EventFd {
        fn new() -> io::Result<Self> {
            // SAFETY: eventfd takes no pointers; a negative return owns no fd.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        pub(super) fn signal(&self) {
            if self.fd >= 0 {
                let one: u64 = 1;
                // SAFETY: `one` is 8 readable bytes that outlive the call.
                let _ = unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
            }
        }

        fn drain(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: `buf` is 8 writable bytes that outlive the call.
            let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            if self.fd >= 0 {
                // SAFETY: this struct owns `fd`, and drop runs once.
                let _ = unsafe { close(self.fd) };
            }
        }
    }

    pub struct Poller {
        epfd: i32,
        waker: std::sync::Arc<EventFd>,
        buf: Vec<EpollEvent>,
    }

    fn mask(interest: Interest) -> u32 {
        match interest {
            Interest::None => 0,
            Interest::Read => EPOLLIN | EPOLLRDHUP,
            Interest::Write => EPOLLOUT,
        }
    }

    fn ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event that outlives the call.
        if unsafe { epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            let waker = std::sync::Arc::new(EventFd::new()?);
            // SAFETY: epoll_create1 takes no pointers; a negative return owns no fd.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // Owned from here on: an early return drops (and closes) it.
            let buf = vec![EpollEvent { events: 0, data: 0 }; 1024];
            let poller = Poller { epfd, waker, buf };
            ctl(epfd, EPOLL_CTL_ADD, poller.waker.fd, EPOLLIN, WAKER_TOKEN)?;
            Ok(poller)
        }

        pub fn waker(&self) -> Waker {
            Waker {
                inner: self.waker.clone(),
            }
        }

        pub fn add(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        pub fn remove(&mut self, fd: i32) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until readiness, a wake, or `timeout_ms` (`None` = forever).
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: Option<u64>) -> io::Result<()> {
            out.clear();
            let timeout = match timeout_ms {
                None => -1,
                Some(ms) => ms.min(i32::MAX as u64) as i32,
            };
            // SAFETY: `buf` has room for the `buf.len()` events the kernel may
            // write, and outlives the call.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (ev.events, ev.data);
                if token == WAKER_TOKEN {
                    self.waker.drain();
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: this struct owns `epfd`, and drop runs once.
            let _ = unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod fallback {
    use super::{Event, Interest, Waker};
    use std::io;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// `poll(2)` rebuilds its fd set per call, so waits are capped at one
    /// tick: wakes and cross-thread completions are observed within
    /// `MAX_WAIT_MS` even though [`Waker::wake`] is a no-op here.
    const MAX_WAIT_MS: u64 = 10;

    pub struct Poller {
        regs: Vec<(i32, u64, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Poller { regs: Vec::new() })
        }

        pub fn waker(&self) -> Waker {
            Waker::disconnected()
        }

        pub fn add(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.regs.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            for reg in &mut self.regs {
                if reg.0 == fd {
                    *reg = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn remove(&mut self, fd: i32) -> io::Result<()> {
            self.regs.retain(|reg| reg.0 != fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: Option<u64>) -> io::Result<()> {
            out.clear();
            let mut fds: Vec<PollFd> = Vec::with_capacity(self.regs.len());
            let mut tokens: Vec<u64> = Vec::with_capacity(self.regs.len());
            for &(fd, token, interest) in &self.regs {
                let events = match interest {
                    Interest::None => continue,
                    Interest::Read => POLLIN,
                    Interest::Write => POLLOUT,
                };
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                tokens.push(token);
            }
            let timeout = timeout_ms.unwrap_or(MAX_WAIT_MS).min(MAX_WAIT_MS) as i32;
            // SAFETY: `fds` holds `fds.len()` initialised entries that outlive the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &token) in fds.iter().zip(&tokens) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod fallback {
    use super::{Event, Interest, Waker};
    use std::io;

    /// Non-unix platforms have no readiness backend here; the serving tier
    /// refuses to start rather than pretending to poll.
    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "readiness polling requires a unix platform",
            ))
        }

        pub fn waker(&self) -> Waker {
            Waker::disconnected()
        }

        pub fn add(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller::new always fails on this platform")
        }

        pub fn modify(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller::new always fails on this platform")
        }

        pub fn remove(&mut self, _fd: i32) -> io::Result<()> {
            unreachable!("Poller::new always fails on this platform")
        }

        pub fn wait(&mut self, _out: &mut Vec<Event>, _timeout_ms: Option<u64>) -> io::Result<()> {
            unreachable!("Poller::new always fails on this platform")
        }
    }
}

#[cfg(target_os = "linux")]
pub use linux::Poller;

#[cfg(not(target_os = "linux"))]
pub use fallback::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_listener_and_stream_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("poller");
        poller
            .add(raw_fd(&listener), 7, Interest::Read)
            .expect("add");

        let mut events = Vec::new();
        // Nothing pending: a bounded wait comes back empty.
        poller.wait(&mut events, Some(20)).expect("wait");
        assert!(events.is_empty(), "spurious events: {events:?}");

        // A pending connection turns the listener readable.
        let mut client = TcpStream::connect(addr).expect("connect");
        poller.wait(&mut events, Some(2_000)).expect("wait");
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "listener never turned readable: {events:?}"
        );

        // An accepted stream with data pending turns readable too.
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        poller
            .add(raw_fd(&stream), 9, Interest::Read)
            .expect("add stream");
        client.write_all(b"x").expect("write");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            poller.wait(&mut events, Some(100)).expect("wait");
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stream never turned readable"
            );
        }
        poller.remove(raw_fd(&stream)).expect("remove");
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        // One-second cap: the wake must return us well before it.
        poller.wait(&mut events, Some(1_000)).expect("wait");
        assert!(
            start.elapsed() < std::time::Duration::from_millis(900),
            "wait was not interrupted"
        );
        assert!(events.is_empty(), "waker must not surface as an event");
        t.join().expect("join");
    }

    #[test]
    fn interest_none_silences_a_ready_fd() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new().expect("poller");
        poller
            .add(raw_fd(&listener), 3, Interest::Read)
            .expect("add");
        let _client = TcpStream::connect(addr).expect("connect");
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            poller.wait(&mut events, Some(100)).expect("wait");
            if events.iter().any(|e| e.token == 3 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "never readable");
        }
        // Muting the registration stops the (level-triggered) reports.
        poller
            .modify(raw_fd(&listener), 3, Interest::None)
            .expect("modify");
        poller.wait(&mut events, Some(50)).expect("wait");
        assert!(events.is_empty(), "muted fd still reported: {events:?}");
    }
}
