//! TCP transport over loopback sockets.
//!
//! The [`crate::socket`] transport over real TCP connections, so data
//! crosses the kernel exactly as it would between cluster hosts (the
//! paper's testbed used TCP over Gigabit Ethernet).

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};

use crate::socket::{Family, SocketTransport};
use crate::{PeerId, WriterConfig};

/// The loopback TCP address family.
pub struct Tcp;

impl Family for Tcp {
    const NAME: &'static str = "tcp";
    type Stream = TcpStream;
    type Listener = TcpListener;
    type Addr = SocketAddr;

    fn bind(&self, _id: PeerId) -> io::Result<(TcpListener, SocketAddr)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        Ok((listener, addr))
    }

    fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn connect(addr: &SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn try_clone(stream: &TcpStream) -> io::Result<TcpStream> {
        stream.try_clone()
    }

    fn shutdown(stream: &TcpStream) {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Transport whose FIFO channels are loopback TCP connections.
pub type TcpTransport = SocketTransport<Tcp>;

impl TcpTransport {
    pub fn new() -> Self {
        Self::with_writer_config(WriterConfig::default())
    }

    /// A transport whose links use the given queue depth and send deadline.
    pub fn with_writer_config(writer_cfg: WriterConfig) -> Self {
        SocketTransport::over(Tcp, writer_cfg)
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    crate::socket::socket_transport_suite!(super::TcpTransport::with_writer_config);
}
