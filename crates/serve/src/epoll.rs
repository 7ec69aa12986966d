//! epoll(7) + eventfd(2) bindings, declared by hand in the style of the
//! [`crate::signal`] module — the workspace is offline and std-only, and
//! libc is linked into every Rust binary on Linux anyway.
//!
//! Only what the event loop needs is bound: create an epoll instance,
//! register/modify/remove interest, wait, and an eventfd the worker pool
//! pokes to wake the loop when a response is ready. Everything here is
//! Linux-only, and so is serving: [`crate::Server::bind`] fails
//! elsewhere.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

pub const EPOLLIN: u32 = 0x1;
pub const EPOLLOUT: u32 = 0x4;
pub const EPOLLERR: u32 = 0x8;
pub const EPOLLHUP: u32 = 0x10;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it
/// (no padding between `events` and `data`); other architectures use
/// natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// Opaque per-registration token (we store connection ids).
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Registers `fd` with interest `events`, tagged with `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Blocks up to `timeout_ms` (−1 = forever) and fills `events` with
    /// ready registrations, returning how many. `Interrupted` (a signal
    /// landed) is reported as zero events rather than an error so the
    /// caller's shutdown-flag check runs.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        match cvt(n) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// A nonblocking eventfd: worker threads [`EventFd::signal`] it when a
/// response is ready and the event loop [`EventFd::drain`]s it once
/// woken. Reads and writes go through std's `File` over the owned fd.
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(EventFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    pub fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Adds 1 to the counter, waking any epoll waiting on it. Safe from
    /// any thread; a full counter (EAGAIN) still leaves a wake pending.
    pub fn signal(&self) {
        use std::io::Write;
        let mut f =
            std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(self.fd.as_raw_fd()) });
        let _ = f.write_all(&1u64.to_ne_bytes());
    }

    /// Resets the counter so the next [`EventFd::signal`] re-arms the
    /// level-triggered readiness.
    pub fn drain(&self) {
        use std::io::Read;
        let mut f =
            std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(self.fd.as_raw_fd()) });
        let mut buf = [0u8; 8];
        let _ = f.read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ef = EventFd::new().unwrap();
        ep.add(ef.as_raw_fd(), 42, EPOLLIN).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];

        // Nothing signaled yet: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ef.signal();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 42);

        // Draining clears readiness; signaling again re-arms it.
        ef.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ef.signal();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        ef.drain();
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd as _;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server_side.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP)
            .unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, evs) = (events[0].data, events[0].events);
        assert_eq!(data, 7);
        assert_ne!(evs & EPOLLIN, 0);

        // A writable socket reports EPOLLOUT once we ask for it.
        ep.modify(server_side.as_raw_fd(), 7, EPOLLOUT).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let evs = events[0].events;
        assert_ne!(evs & EPOLLOUT, 0);

        ep.delete(server_side.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
