//! The production [`Driver`]: nonblocking `std::net` sockets polled through
//! the `polling` shim's epoll.
//!
//! Registration keys are the reactor's tokens; the listener lives under
//! [`LISTENER_TOKEN`] and the poller's notify wake-up (an eventfd inside
//! the shim) backs [`Driver::waker`]. All registrations
//! follow the shim's oneshot contract, so this driver is a thin mapping
//! layer with no interest bookkeeping of its own beyond the listener arm.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Event as PollEvent, Events, Poller};

use crate::driver::{Driver, Event, Interest, Token, Transport, Waker, LISTENER_TOKEN};

/// Borrow a raw descriptor as a pollable source.
struct FdSource(RawFd);

impl AsRawFd for FdSource {
    fn as_raw_fd(&self) -> RawFd {
        self.0
    }
}

/// A nonblocking TCP connection.
struct TcpTransport {
    stream: TcpStream,
}

impl Transport for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.stream, buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.stream, buf)
    }

    fn id(&self) -> u64 {
        self.stream.as_raw_fd() as u64
    }
}

/// Real-socket driver: a nonblocking listener plus a [`Poller`].
pub struct SysDriver {
    poller: Arc<Poller>,
    listener: TcpListener,
    local_addr: SocketAddr,
    events: Events,
    listener_registered: bool,
    listener_armed: bool,
}

impl SysDriver {
    /// Bind `addr` (port 0 picks a free port) and create the poller.
    pub fn bind(addr: &str) -> io::Result<SysDriver> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(SysDriver {
            poller: Arc::new(Poller::new()?),
            listener,
            local_addr,
            events: Events::new(),
            listener_registered: false,
            listener_armed: false,
        })
    }
}

fn interest_event(token: Token, interest: Interest) -> PollEvent {
    PollEvent { key: token, readable: interest.readable, writable: interest.writable }
}

impl Driver for SysDriver {
    fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn now(&self) -> Instant {
        Instant::now()
    }

    fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        self.poller.wait(&mut self.events, timeout)?;
        for ev in self.events.iter() {
            if ev.key == LISTENER_TOKEN {
                // Oneshot: the listener is dormant until re-armed.
                self.listener_armed = false;
            }
            out.push(Event { token: ev.key, readable: ev.readable, writable: ev.writable });
        }
        Ok(())
    }

    fn accept(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                Ok(Some(Box::new(TcpTransport { stream })))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn arm_accept(&mut self, enabled: bool) -> io::Result<()> {
        let want = if enabled {
            PollEvent::readable(LISTENER_TOKEN)
        } else {
            PollEvent::none(LISTENER_TOKEN)
        };
        if !self.listener_registered {
            self.poller.add(&self.listener, want)?;
            self.listener_registered = true;
            self.listener_armed = enabled;
            return Ok(());
        }
        if self.listener_armed != enabled {
            self.poller.modify(&self.listener, want)?;
            self.listener_armed = enabled;
        }
        Ok(())
    }

    fn register(
        &mut self,
        token: Token,
        transport: &dyn Transport,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = FdSource(transport.id() as RawFd);
        self.poller.add(&fd, interest_event(token, interest))
    }

    fn rearm(
        &mut self,
        token: Token,
        transport: &dyn Transport,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = FdSource(transport.id() as RawFd);
        self.poller.modify(&fd, interest_event(token, interest))
    }

    fn deregister(&mut self, transport: &dyn Transport) -> io::Result<()> {
        let fd = FdSource(transport.id() as RawFd);
        self.poller.delete(&fd)
    }

    fn waker(&self) -> Waker {
        let poller = Arc::clone(&self.poller);
        Arc::new(move || {
            let _ = poller.notify();
        })
    }
}
