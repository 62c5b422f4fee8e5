//! Length-prefixed framing for stream transports.
//!
//! Every frame on a TCP link is `u32` little-endian length followed by that
//! many payload bytes. A hard size limit guards against corrupt prefixes
//! allocating unbounded buffers.

use std::io::{self, Read, Write};

use crate::TransportError;

/// Upper bound on a single frame. Large enough for any experiment payload in
/// this repository (multi-megabyte mean-shift datasets), small enough that a
/// corrupt length prefix fails fast.
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Write one length-prefixed frame and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), TransportError> {
    write_frame_unflushed(w, payload)?;
    w.flush().map_err(io_err)?;
    Ok(())
}

/// Write one length-prefixed frame without flushing, so writer threads can
/// coalesce a burst of frames into one flush when their queue runs dry.
pub fn write_frame_unflushed<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), TransportError> {
    if payload.len() > MAX_FRAME {
        return Err(TransportError::FrameTooLarge {
            size: payload.len(),
            max: MAX_FRAME,
        });
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len).map_err(io_err)?;
    w.write_all(payload).map_err(io_err)?;
    Ok(())
}

/// Read one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, TransportError> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge {
            size: len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(io_err)?;
    Ok(Some(payload))
}

/// Like `read_exact`, but distinguishes "EOF before any byte" (`Ok(false)`)
/// from "EOF mid-buffer" (error).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, TransportError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(TransportError::Io("unexpected EOF mid-frame".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(true)
}

pub(crate) fn io_err(e: io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_small_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn roundtrip_empty_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_many_frames_in_order() {
        let mut buf = Vec::new();
        for i in 0..100u32 {
            write_frame(&mut buf, &i.to_le_bytes()).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for i in 0..100u32 {
            let frame = read_frame(&mut cur).unwrap().unwrap();
            assert_eq!(frame, i.to_le_bytes());
        }
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    /// A sink that counts bytes without storing them, so the oversized
    /// tests never materialize a quarter-gigabyte buffer twice.
    struct NullWriter {
        written: usize,
    }

    impl std::io::Write for NullWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn oversized_write_rejected() {
        // One byte past the limit; the zeroed pages are never touched, so
        // this is cheap despite its nominal size.
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut sink = NullWriter { written: 0 };
        match write_frame(&mut sink, &payload) {
            Err(TransportError::FrameTooLarge { size, max }) => {
                assert_eq!(size, MAX_FRAME + 1);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(sink.written, 0, "nothing may reach the wire");
        // Exactly at the limit the length check must pass.
        assert!(write_frame_unflushed(&mut sink, &payload[..MAX_FRAME]).is_ok());
        assert_eq!(sink.written, 4 + MAX_FRAME);
    }

    #[test]
    fn corrupt_length_prefix_just_over_limit_rejected() {
        // A prefix of MAX_FRAME + 1 must fail *before* allocating a payload
        // buffer; anything at the limit is still admissible.
        let bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        let mut cur = Cursor::new(bad);
        match read_frame(&mut cur) {
            Err(TransportError::FrameTooLarge { size, max }) => {
                assert_eq!(size, MAX_FRAME + 1);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        let worst = (u32::MAX).to_le_bytes().to_vec();
        let mut cur = Cursor::new(worst);
        assert!(matches!(
            read_frame(&mut cur),
            Err(TransportError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        buf.truncate(buf.len() - 3);
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn truncated_length_prefix_is_error() {
        let buf = vec![1u8, 0]; // half a length prefix
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
    }
}
