//! Offline stand-in for the `polling` crate.
//!
//! Readiness polling with **oneshot** semantics, exactly the subset
//! `xynet`'s reactor uses: register a socket with a `key`, wait for
//! readiness events, and re-arm with [`Poller::modify`] after each
//! delivery (like the real crate, a delivered source stays dormant until
//! re-armed). [`Poller::notify`] wakes a blocked [`Poller::wait`] from any
//! thread.
//!
//! The one backend is Linux epoll (`epoll_create1` + `EPOLLONESHOT`, woken
//! by an `eventfd`), over raw syscalls declared here (the environment has
//! no registry access, so no `libc` crate either).
//!
//! This file is the one place in the workspace allowed to contain `unsafe`
//! (every `crates/*` root keeps `#![forbid(unsafe_code)]`, enforced by
//! xylint L3); each unsafe block is a direct FFI call with its argument
//! validity argued on the spot.

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Duration;

/// Raw syscall declarations: the tiny slice of the platform libc this shim
/// needs. Signatures match the Linux ABI (the only target this workspace
/// builds on).
mod sys {
    use std::os::raw::{c_int, c_uint, c_void};

    /// Linux `struct epoll_event`; packed on x86 so the layout matches the
    /// kernel ABI.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// The key reserved for [`Poller::notify`] wake-ups; sources must not use it.
pub const NOTIFY_KEY: usize = usize::MAX;

/// A readiness interest or delivered readiness event for one source,
/// identified by the caller-chosen `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier registered with [`Poller::add`].
    pub key: usize,
    /// Interested in / ready for reading. Errors and hang-ups are
    /// delivered as readable **and** writable, like the real crate.
    pub readable: bool,
    /// Interested in / ready for writing.
    pub writable: bool,
}

impl Event {
    /// Interest in read readiness only.
    pub fn readable(key: usize) -> Event {
        Event { key, readable: true, writable: false }
    }

    /// Interest in write readiness only.
    pub fn writable(key: usize) -> Event {
        Event { key, readable: false, writable: true }
    }

    /// Interest in both read and write readiness.
    pub fn all(key: usize) -> Event {
        Event { key, readable: true, writable: true }
    }

    /// No interest: keeps the source registered but dormant.
    pub fn none(key: usize) -> Event {
        Event { key, readable: false, writable: false }
    }
}

/// A reusable buffer of delivered [`Event`]s.
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// An empty buffer.
    pub fn new() -> Events {
        Events::default()
    }

    /// Iterate over the events delivered by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter().copied()
    }

    /// Number of delivered events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no events were delivered.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Discard all events (done automatically by [`Poller::wait`]).
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

/// An owned file descriptor closed on drop.
#[derive(Debug)]
struct OwnedFd(RawFd);

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // One close of a descriptor this struct exclusively owns.
        unsafe { sys::close(self.0) };
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            // Round sub-millisecond timeouts up so `Some(tiny)` cannot spin.
            let ms = if ms == 0 && d.as_nanos() > 0 { 1 } else { ms };
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

/// An oneshot readiness poller over sockets (and anything else with a file
/// descriptor). The kernel owns the interest set; `EPOLLONESHOT`
/// implements the disarm-on-delivery contract.
pub struct Poller {
    epfd: OwnedFd,
    event_fd: OwnedFd,
}

impl Poller {
    /// Create an epoll-backed poller.
    pub fn new() -> io::Result<Poller> {
        // Plain FFI calls; no pointers passed.
        let epfd = OwnedFd(cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?);
        let event_fd =
            OwnedFd(cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?);
        // The eventfd is level-triggered and permanently armed so a notify
        // is never lost between waits.
        let mut ev = sys::EpollEvent { events: sys::EPOLLIN, data: NOTIFY_KEY as u64 };
        // `ev` is a live stack value for the duration of the call.
        cvt(unsafe { sys::epoll_ctl(epfd.0, sys::EPOLL_CTL_ADD, event_fd.0, &mut ev) })?;
        Ok(Poller { epfd, event_fd })
    }

    /// Register `source` with the given interest. Delivery disarms the
    /// source: re-arm with [`Poller::modify`]. The key must not be
    /// [`NOTIFY_KEY`].
    pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, source, interest)
    }

    /// Replace the interest set of an already-registered source (the
    /// re-arm operation of the oneshot contract).
    pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, source, interest)
    }

    fn ctl(&self, op: i32, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        if interest.key == NOTIFY_KEY {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "NOTIFY_KEY is reserved"));
        }
        let mut ev = epoll_interest(interest);
        // `ev` is a live stack value for the duration of the call; the
        // caller guarantees the descriptor is open (it borrows the source).
        cvt(unsafe { sys::epoll_ctl(self.epfd.0, op, source.as_raw_fd(), &mut ev) })?;
        Ok(())
    }

    /// Remove a source from the poller. Call before closing the descriptor.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        let fd = source.as_raw_fd();
        // Plain FFI call; a null event pointer is allowed for DEL on every
        // kernel this workspace targets (>= 2.6.9).
        cvt(unsafe { sys::epoll_ctl(self.epfd.0, sys::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) })?;
        Ok(())
    }

    /// Block until at least one source is ready, the timeout elapses, or
    /// [`Poller::notify`] is called. Returns the number of events
    /// delivered into `events` (cleared first). Interrupted waits return
    /// `Ok(0)`.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 256];
        // `raw` is a live buffer of exactly the advertised length.
        let n = unsafe {
            sys::epoll_wait(self.epfd.0, raw.as_mut_ptr(), raw.len() as i32, timeout_ms(timeout))
        };
        let n = match cvt(n) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &raw[..n] {
            let (bits, key) = (ev.events, ev.data as usize);
            if key == NOTIFY_KEY {
                drain_fd(self.event_fd.0);
                continue;
            }
            events.inner.push(Event {
                key,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP)
                    != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(events.inner.len())
    }

    /// Wake the current (or next) [`Poller::wait`] from any thread.
    pub fn notify(&self) -> io::Result<()> {
        let one: u64 = 1;
        // An eventfd takes exactly 8 bytes; a counter at its maximum
        // (EAGAIN) already has a wake-up pending, which is all notify
        // promises.
        let ret = unsafe { sys::write(self.event_fd.0, (&raw const one).cast(), 8) };
        if ret < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(e);
        }
        Ok(())
    }
}

/// Read the non-blocking wake-up eventfd until empty.
fn drain_fd(fd: RawFd) {
    let mut buf = [0u8; 64];
    loop {
        // `buf` is a live buffer of exactly the advertised length.
        let n = unsafe { sys::read(fd, buf.as_mut_ptr().cast(), buf.len()) };
        if n <= 0 {
            return;
        }
    }
}

fn epoll_interest(interest: Event) -> sys::EpollEvent {
    let mut bits = sys::EPOLLONESHOT | sys::EPOLLRDHUP;
    if interest.readable {
        bits |= sys::EPOLLIN;
    }
    if interest.writable {
        bits |= sys::EPOLLOUT;
    }
    sys::EpollEvent { events: bits, data: interest.key as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readable_event_is_oneshot_until_rearmed() {
        let poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.add(&server, Event::readable(7)).unwrap();

        let mut events = Events::new();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0, "no data yet");

        client.write_all(b"x").unwrap();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap(), 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.key, 7);
        assert!(ev.readable);

        // Oneshot: without a re-arm the still-unread byte reports nothing.
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);
        poller.modify(&server, Event::readable(7)).unwrap();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap(), 1);
        poller.delete(&server).unwrap();
    }

    #[test]
    fn writable_and_hangup_are_reported() {
        let poller = Poller::new().unwrap();
        let (client, mut server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.add(&server, Event::writable(3)).unwrap();
        let mut events = Events::new();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap(), 1);
        assert!(events.iter().next().unwrap().writable);

        drop(client);
        poller.modify(&server, Event::readable(3)).unwrap();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap(), 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.readable, "hang-up must deliver readable: {ev:?}");
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "read observes EOF");
        poller.delete(&server).unwrap();
    }

    #[test]
    fn notify_wakes_a_blocked_wait_from_another_thread() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::clone(&poller);
        let t = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.notify().unwrap();
        });
        let mut events = Events::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 0, "notify delivers no source event");
        assert!(t.elapsed() < Duration::from_secs(5), "woke early via notify");
        handle.join().unwrap();

        // A notify with no waiter wakes the next wait immediately.
        poller.notify().unwrap();
        let t = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(t.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn reserved_key_is_rejected() {
        let poller = Poller::new().unwrap();
        let (_client, server) = pair();
        let err = poller.add(&server, Event::readable(NOTIFY_KEY)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
