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

/// A bound, blocking listening socket of either kind.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `endpoint`: a TCP address with `SO_REUSEADDR` (see
    /// [`crate::reuse`]), or a Unix socket path.
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        Ok(match endpoint {
            Endpoint::Tcp(addr) => Self::Tcp(crate::reuse::bind_reuseaddr(addr.as_str())?),
            Endpoint::Unix(path) => Self::Unix(UnixListener::bind(path)?),
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

    /// Blocks until one connection arrives and returns it with the
    /// peer's printable address (`None` for a Unix peer: dialing
    /// sockets are unnamed).
    pub(crate) fn accept(&self) -> io::Result<(Socket, Option<String>)> {
        match self {
            Self::Tcp(l) => {
                let (stream, peer) = l.accept()?;
                Ok((Socket::Tcp(stream), Some(peer.to_string())))
            }
            Self::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok((Socket::Unix(stream), None))
            }
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
    /// The handshake-time settings: no Nagle delay (TCP only) and
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
