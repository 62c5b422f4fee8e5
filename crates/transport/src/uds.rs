//! Unix domain socket transport.
//!
//! The [`crate::socket`] transport over `AF_UNIX` sockets in a private
//! temporary directory — the substrate a single-host MRNet deployment
//! would use to avoid the TCP stack entirely while keeping real
//! kernel-mediated IPC (distinct address spaces would work unchanged).

#![cfg(unix)]

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::framing::io_err;
use crate::socket::{Family, SocketTransport};
use crate::{PeerId, TransportError, WriterConfig};

/// The Unix-domain address family: one socket file per node in `dir`.
pub struct Uds {
    dir: PathBuf,
    cleanup_dir: bool,
}

impl Family for Uds {
    const NAME: &'static str = "uds";
    type Stream = UnixStream;
    type Listener = UnixListener;
    type Addr = PathBuf;

    fn bind(&self, id: PeerId) -> io::Result<(UnixListener, PathBuf)> {
        let path = self.dir.join(format!("node-{id}.sock"));
        let _ = std::fs::remove_file(&path);
        Ok((UnixListener::bind(&path)?, path))
    }

    fn accept(listener: &UnixListener) -> io::Result<UnixStream> {
        listener.accept().map(|(stream, _)| stream)
    }

    fn connect(path: &PathBuf) -> io::Result<UnixStream> {
        UnixStream::connect(path)
    }

    fn try_clone(stream: &UnixStream) -> io::Result<UnixStream> {
        stream.try_clone()
    }

    fn shutdown(stream: &UnixStream) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    fn unbind(path: &PathBuf) {
        let _ = std::fs::remove_file(path);
    }
}

impl Drop for Uds {
    fn drop(&mut self) {
        if self.cleanup_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Transport whose FIFO channels are Unix domain sockets.
pub type UdsTransport = SocketTransport<Uds>;

static SOCKET_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl UdsTransport {
    /// Sockets live in a fresh process-private directory under the system
    /// temp dir (removed on drop).
    pub fn new() -> Result<UdsTransport, TransportError> {
        Self::with_writer_config(WriterConfig::default())
    }

    /// Like [`UdsTransport::new`], with explicit per-link writer behaviour.
    pub fn with_writer_config(cfg: WriterConfig) -> Result<UdsTransport, TransportError> {
        let dir = std::env::temp_dir().join(format!(
            "tbon-uds-{}-{}",
            std::process::id(),
            SOCKET_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let family = Uds {
            dir,
            cleanup_dir: true,
        };
        Ok(SocketTransport::over(family, cfg))
    }

    /// Sockets in a caller-chosen directory (not removed on drop).
    pub fn in_dir(dir: impl Into<PathBuf>) -> UdsTransport {
        let family = Uds {
            dir: dir.into(),
            cleanup_dir: false,
        };
        SocketTransport::over(family, WriterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::UdsTransport;

    crate::socket::socket_transport_suite!(|cfg| UdsTransport::with_writer_config(cfg).unwrap());

    #[test]
    fn socket_dir_cleaned_on_drop() {
        let dir;
        {
            let t = UdsTransport::new().unwrap();
            dir = t.family.dir.clone();
            let _ = t.add_node(0).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "socket dir should be removed on drop");
    }
}
