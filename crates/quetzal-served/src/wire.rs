//! Length-prefixed framing for the `qzserved` wire protocol.
//!
//! Every frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON. The prefix is bounded by [`MAX_FRAME`] so
//! a hostile or corrupt length can never make the daemon allocate or
//! buffer unboundedly — oversized prefixes are a typed error, and the
//! connection is closed without reading the claimed payload.
//!
//! Framing errors are split by what they poison:
//!
//! * [`WireError::Truncated`] / [`WireError::Oversized`] /
//!   [`WireError::Io`] corrupt the *stream position* — the receiver can
//!   no longer tell where the next frame starts, so the connection must
//!   close ([`WireError::is_fatal`]);
//! * [`WireError::BadPayload`] arrives in a well-delimited frame — the
//!   receiver reports it and keeps serving the connection.

use quetzal_trace::json::Value;
use std::io::{ErrorKind, Read, Write};

/// Hard bound on a frame's payload length (16 MiB). A 30 Kbp long-read
/// batch of a few hundred pairs fits comfortably; a corrupt length
/// prefix does not get to allocate gigabytes.
pub const MAX_FRAME: usize = 16 << 20;

/// A framing or payload error on one connection.
#[derive(Debug)]
pub enum WireError {
    /// The peer disconnected mid-length or mid-payload.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        claimed: usize,
    },
    /// The payload is not UTF-8 JSON.
    BadPayload(String),
    /// Transport error from the socket / pipe.
    Io(std::io::Error),
}

impl WireError {
    /// Whether the error desynchronised the stream (the receiver can no
    /// longer find the next frame boundary and must close).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, WireError::BadPayload(_))
    }

    /// Whether the error is a read-deadline expiry (the socket's
    /// configured read timeout elapsed), as opposed to a broken stream.
    /// Platforms report this as either `TimedOut` or `WouldBlock`.
    pub fn is_timeout(&self) -> bool {
        matches!(self, WireError::Io(e)
            if e.kind() == ErrorKind::TimedOut || e.kind() == ErrorKind::WouldBlock)
    }

    /// Short machine-readable kind, used in typed `error` frames.
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "truncated",
            WireError::Oversized { .. } => "oversized",
            WireError::BadPayload(_) => "bad-payload",
            WireError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} byte(s) missing)")
            }
            WireError::Oversized { claimed } => {
                write!(
                    f,
                    "frame of {claimed} bytes exceeds the {MAX_FRAME}-byte bound"
                )
            }
            WireError::BadPayload(msg) => write!(f, "bad frame payload: {msg}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Reads exactly `buf.len()` bytes, reporting clean EOF at a frame
/// boundary as `Ok(false)` when `at_boundary` is set.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && at_boundary {
                    Ok(false)
                } else {
                    Err(WireError::Truncated {
                        missing: buf.len() - filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame's raw payload. `Ok(None)` is a clean EOF exactly at
/// a frame boundary — the peer finished and hung up.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, an oversized prefix, or
/// transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    if !read_exact_or_eof(r, &mut prefix, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { claimed: len });
    }
    let mut payload = vec![0u8; len];
    read_exact_or_eof(r, &mut payload, false)?;
    Ok(Some(payload))
}

/// Reads one frame and parses its payload as JSON. Payload problems
/// (bad UTF-8, bad JSON) come back as the non-fatal
/// [`WireError::BadPayload`] — the frame boundary itself was sound.
///
/// # Errors
///
/// Returns [`WireError`] on framing or payload failure.
pub fn read_value(r: &mut impl Read) -> Result<Option<Value>, WireError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&payload)
        .map_err(|e| WireError::BadPayload(format!("invalid UTF-8: {e}")))?;
    let value = Value::parse(text).map_err(|e| WireError::BadPayload(e.to_string()))?;
    Ok(Some(value))
}

/// Appends one frame (length prefix, then payload) to `out`, so a
/// sender can put any number of frames on the wire with one write.
///
/// # Errors
///
/// Returns `Oversized` for a payload over [`MAX_FRAME`] (a caller bug),
/// leaving `out` as it was.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized {
            claimed: payload.len(),
        });
    }
    out.reserve(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Writes one frame with a single `write_all`.
///
/// # Errors
///
/// Returns [`WireError::Io`] on transport failure (payloads over
/// [`MAX_FRAME`] are a caller bug and surface as `Oversized`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Serialises and writes one JSON frame.
///
/// # Errors
///
/// Returns [`WireError::Io`] on transport failure.
pub fn write_value(w: &mut impl Write, value: &Value) -> Result<(), WireError> {
    write_frame(w, value.dump().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let v = Value::parse(r#"{"type":"ping"}"#).unwrap();
        write_value(&mut buf, &v).unwrap();
        write_value(&mut buf, &Value::Array(vec![])).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_value(&mut r).unwrap(), Some(v));
        assert_eq!(read_value(&mut r).unwrap(), Some(Value::Array(vec![])));
        assert_eq!(read_value(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn appended_frames_read_back_in_order() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"[1]").unwrap();
        append_frame(&mut buf, b"{}").unwrap();
        let oversized = vec![b' '; MAX_FRAME + 1];
        let err = append_frame(&mut buf, &oversized).unwrap_err();
        assert!(matches!(err, WireError::Oversized { claimed } if claimed == MAX_FRAME + 1));
        assert_eq!(
            buf.len(),
            (4 + 3) + (4 + 2),
            "a refused frame appends nothing"
        );
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"[1]"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"{}"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_length_is_typed() {
        let mut r: &[u8] = &[0, 0, 1];
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, WireError::Truncated { missing: 1 }));
        assert!(err.is_fatal());
    }

    #[test]
    fn truncated_payload_is_typed() {
        let mut buf = 8u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Truncated { missing: 5 }));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut r: &[u8] = &u32::MAX.to_be_bytes();
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
        assert!(err.is_fatal());
    }

    #[test]
    fn garbage_payload_is_nonfatal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not json {{{").unwrap();
        let err = read_value(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadPayload(_)));
        assert!(!err.is_fatal(), "payload errors keep the connection");
    }

    #[test]
    fn non_utf8_payload_is_nonfatal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0xff, 0xfe, 0x80]).unwrap();
        let err = read_value(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadPayload(_)));
    }
}
