//! The two stream kinds one socket world can run over.
//!
//! The lease protocol in [`crate::tcp`] needs a handful of socket
//! operations — dial, bind, accept, clone, hang up, timeouts, bytes in
//! and out. A closed two-variant enum gives it those over TCP (remote
//! workers) and over a Unix-domain socket (the launcher's children)
//! without a type parameter leaking into every transport type; one
//! `match` per read or write is noise beside the syscall under it.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a world listens, and where its workers dial.
#[derive(Debug, Clone)]
pub(crate) enum Endpoint {
    /// A `host:port` address, resolved at dial time.
    Tcp(String),
    /// The path of a Unix-domain socket.
    Unix(PathBuf),
}

impl Endpoint {
    /// Dials the endpoint; a TCP address is resolved and each candidate
    /// tried once under `timeout`.
    pub(crate) fn dial(&self, timeout: Duration) -> io::Result<Socket> {
        match self {
            Self::Unix(path) => UnixStream::connect(path).map(Socket::Unix),
            Self::Tcp(addr) => {
                let mut last_err = None;
                for candidate in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&candidate, timeout) {
                        Ok(stream) => return Ok(Socket::Tcp(stream)),
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(last_err.unwrap_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::AddrNotAvailable,
                        "collector address resolved to nothing",
                    )
                }))
            }
        }
    }
}

/// A bound, non-blocking listening socket of either kind.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `endpoint`, a TCP address or a Unix socket path. On Unix
    /// `std` sets `SO_REUSEADDR` before a TCP bind, which a restarted
    /// collector needs: it rebinds the address its workers joined
    /// while the dead one's accepted sockets still linger in
    /// `FIN_WAIT`/`TIME_WAIT` (crash–resume, `docs/cluster.md`).
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        Ok(match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                Self::Tcp(listener)
            }
            Endpoint::Unix(path) => {
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Self::Unix(listener)
            }
        })
    }

    /// Where this process dials to reach its own listener: the bound
    /// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by
    /// the loopback address of the same family, or the socket path.
    pub(crate) fn self_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Self::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                Ok(Endpoint::Tcp(addr.to_string()))
            }
            Self::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "unnamed Unix listener")
                })?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }

    /// The bound TCP address. A Unix listener has no socket address and
    /// reports the unspecified one: only the launcher binds it, and the
    /// launcher hands its children the path itself.
    pub(crate) fn local_addr(&self) -> io::Result<SocketAddr> {
        match self {
            Self::Tcp(l) => l.local_addr(),
            Self::Unix(_) => Ok(SocketAddr::from(([0, 0, 0, 0], 0))),
        }
    }

    /// Takes one pending connection (`WouldBlock` if there is none), a
    /// blocking socket, with the peer's printable address (`None` for a
    /// Unix peer: dialing sockets are unnamed).
    pub(crate) fn accept(&self) -> io::Result<(Socket, Option<String>)> {
        let (socket, peer) = match self {
            Self::Tcp(l) => {
                let (stream, peer) = l.accept()?;
                (Socket::Tcp(stream), Some(peer.to_string()))
            }
            Self::Unix(l) => (Socket::Unix(l.accept()?.0), None),
        };
        // BSD hands an accepted socket its listener's `O_NONBLOCK`.
        match &socket {
            Socket::Tcp(s) => s.set_nonblocking(false)?,
            Socket::Unix(s) => s.set_nonblocking(false)?,
        }
        Ok((socket, peer))
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Tcp(l) => l.as_raw_fd(),
            Self::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// One connected stream of either kind.
#[derive(Debug)]
pub(crate) enum Socket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Socket {
    /// A connection's settings: no Nagle delay (TCP only) and
    /// `timeout` on reads and writes.
    pub(crate) fn configure(&self, timeout: Duration) -> io::Result<()> {
        if let Self::Tcp(s) = self {
            s.set_nodelay(true)?;
        }
        self.set_read_timeout(Some(timeout))?;
        match self {
            Self::Tcp(s) => s.set_write_timeout(Some(timeout)),
            Self::Unix(s) => s.set_write_timeout(Some(timeout)),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(timeout),
            Self::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn try_clone(&self) -> io::Result<Self> {
        match self {
            Self::Tcp(s) => s.try_clone().map(Self::Tcp),
            Self::Unix(s) => s.try_clone().map(Self::Unix),
        }
    }

    /// Hangs up both directions; the peer's reader sees EOF.
    pub(crate) fn hang_up(&self) {
        let _ = match self {
            Self::Tcp(s) => s.shutdown(Shutdown::Both),
            Self::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl AsRawFd for Socket {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Tcp(s) => s.as_raw_fd(),
            Self::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for &Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => (&*s).read(buf),
            Socket::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => (&*s).write(buf),
            Socket::Unix(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{poll, PollFd};

    /// The crash–resume regression: a dead collector's accepted socket
    /// still holds the listener's port (the peer has not seen the death
    /// yet), and the restarted listener must bind the same port anyway.
    /// Without `SO_REUSEADDR` this rebind fails with `AddrInUse` until
    /// the old socket drains out of `FIN_WAIT`.
    #[test]
    fn rebinds_port_while_old_connection_lingers() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let endpoint = Endpoint::Tcp(addr.to_string());
        let client = endpoint.dial(Duration::from_secs(5)).unwrap();
        let mut pending = [PollFd::input(listener.as_raw_fd())];
        poll(&mut pending, Some(Duration::from_secs(5))).unwrap();
        let conn = listener.accept().unwrap();
        // The "crash": the collector's sockets close while the worker
        // end stays open, leaving the port in FIN_WAIT.
        drop((conn, listener));
        let relisten = Listener::bind(&endpoint).expect("the port is bound again");
        assert_eq!(relisten.local_addr().unwrap(), addr);
        drop(client);
    }

    #[test]
    fn unresolvable_address_is_an_error() {
        assert!(Listener::bind(&Endpoint::Tcp("definitely-not-a-host:0".into())).is_err());
    }
}
