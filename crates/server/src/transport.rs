//! Length-prefixed frame transport over any byte stream.
//!
//! The wire format of a transported frame is a big-endian `u32` length
//! followed by exactly that many bytes of `copse_core::wire` frame
//! encoding (version byte, tag, body). The length prefix is capped so
//! a corrupt or hostile peer cannot make the receiver allocate
//! unboundedly.

use bytes::Bytes;
use copse_core::wire::{decode_frame, encode_frame, Frame};
use std::io::{self, IoSlice, Read, Write};

/// Upper bound on one frame's payload; generous enough for the widest
/// BGV query (hundreds of KiB) with two orders of magnitude to spare.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream; a frame above
/// [`MAX_FRAME_BYTES`] fails fast with [`io::ErrorKind::InvalidData`]
/// on the sender (the receiver would reject it anyway, with a far
/// more confusing error on the wrong side of the wire).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let payload = encode_frame(frame);
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds cap {MAX_FRAME_BYTES}",
                payload.len()
            ),
        ));
    }
    // Prefix and payload go out in one vectored write. Written apart, a
    // payload wider than a `BufWriter`'s buffer leaves the prefix as a
    // segment of its own, and a socket that keeps Nagle's rule then
    // holds the payload's short tail until the peer's delayed ACK.
    let prefix = (payload.len() as u32).to_be_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(&payload)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; decode failures and oversized lengths
/// surface as [`io::ErrorKind::InvalidData`] (a decode failure wraps
/// its `WireError`, recoverable through [`io::Error::get_ref`]). A
/// clean EOF before the length prefix surfaces as
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_frame(Bytes::from(payload)).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let frames = [
            Frame::ClientHello {
                model: "demo".into(),
            },
            Frame::Bye,
            Frame::Query {
                id: 3,
                deadline_ms: 0,
                trace: Some(0xDEAD_BEEF),
                planes: vec![Bytes::from(vec![1, 2, 3])],
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut cursor = stream.as_slice();
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn a_frame_reaches_the_writer_in_one_vectored_write() {
        // A writer that takes at most `cap` bytes per call and records
        // what each call carried, as a socket's `writev` would.
        struct Writev {
            cap: usize,
            calls: Vec<usize>,
            bytes: Vec<u8>,
        }
        impl Write for Writev {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, parts: &[IoSlice<'_>]) -> io::Result<usize> {
                let taken: Vec<u8> = parts.iter().flat_map(|p| p.iter()).copied().collect();
                let n = taken.len().min(self.cap);
                self.calls.push(n);
                self.bytes.extend_from_slice(&taken[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let frame = Frame::Query {
            id: 1,
            deadline_ms: 0,
            trace: None,
            planes: vec![Bytes::from(vec![7u8; 28 << 10])],
        };
        let len = 4 + encode_frame(&frame).len();
        for cap in [usize::MAX, 1000] {
            let mut w = Writev {
                cap,
                calls: Vec::new(),
                bytes: Vec::new(),
            };
            write_frame(&mut w, &frame).unwrap();
            // The prefix never leaves alone; a short write resumes
            // where it stopped.
            assert_eq!(w.calls[0], len.min(cap));
            assert_eq!(w.calls.iter().sum::<usize>(), len);
            assert_eq!(read_frame(&mut w.bytes.as_slice()).unwrap(), frame);
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_be_bytes());
        stream.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut stream.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_payload_is_invalid_data_not_panic() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&2u32.to_be_bytes());
        stream.extend_from_slice(&[0xEE, 0xEE]);
        let err = read_frame(&mut stream.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The server tells a wrong version byte from line noise by
        // recovering the decode error.
        assert_eq!(
            err.get_ref().and_then(|e| e.downcast_ref()),
            Some(&copse_core::wire::WireError::BadVersion(0xEE))
        );
    }
}
