//! Length-prefixed frame transport over any byte stream.
//!
//! The wire format of a transported frame is a big-endian `u32` length
//! followed by exactly that many bytes of `copse_core::wire` frame
//! encoding (version byte, tag, body). The length prefix is capped so
//! a corrupt or hostile peer cannot make the receiver allocate
//! unboundedly.

use bytes::Bytes;
use copse_core::wire::{decode_frame, encode_frame, Frame};
use std::io::{self, Read, Write};

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
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&payload)?;
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
