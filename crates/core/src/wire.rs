//! The pooled-oracle wire codec: the spawn-time handshake and batched
//! frames.
//!
//! [`PooledProcessOracle`](crate::PooledProcessOracle) and
//! [`serve_oracle_worker`](crate::serve_oracle_worker) speak a
//! length-prefixed verdict protocol over a worker's stdin/stdout. Each
//! connection opens with one handshake frame ([`handshake_frame`]), which
//! the worker acknowledges with [`WIRE_V2_ACK`]; after that every request
//! is a batch frame of N queries and every response is N verdict bytes, so
//! a batch pays two pipe round-trips instead of 2·N. This module holds the
//! pure encode/decode halves of that framing so they can be property-tested
//! in isolation from any process plumbing; the full wire-format
//! specification lives in the [`oracle`](crate::Oracle) module
//! documentation.
//!
//! All decoding fails closed: a malformed, truncated, or oversized frame
//! is an [`FrameError`], never a panic and never a fabricated verdict. The
//! pool turns such errors into counted oracle failures (the worker is
//! treated as crashed).

use std::io::{Read, Write};

/// Payload of the spawn-time handshake: the oracle sends it behind a `u32`
/// little-endian length prefix (see [`handshake_frame`]) right after a
/// worker spawns, before any query.
///
/// A conforming worker recognizes the exact payload and answers
/// [`WIRE_V2_ACK`]. A worker that speaks only the retired single-query
/// protocol takes the handshake for a membership query and answers a
/// verdict byte (`0`/`1`); the oracle refuses such a worker as dead on
/// arrival. The payload starts with two NUL bytes precisely to make a
/// collision with a genuine membership query of some target language
/// implausible.
pub const WIRE_V2_PROBE: &[u8] = b"\x00\x00glade-wire-v2?";

/// Response byte acknowledging the handshake. Deliberately outside the
/// verdict byte range (`0x00`/`0x01`), so a worker that answers the
/// handshake as a query is told apart from one that acknowledges it.
pub const WIRE_V2_ACK: u8 = 0x02;

/// Maximum number of queries a single batch frame may carry.
///
/// The bound exists to fail fast on a corrupted count prefix: a decoder
/// must reject a bigger count *before* allocating for it.
pub const MAX_FRAME_QUERIES: usize = 1 << 16;

/// Maximum total payload bytes (the queries themselves, excluding the
/// length prefixes) a single batch frame may carry. As with
/// [`MAX_FRAME_QUERIES`], the cap turns a corrupted length prefix into an
/// immediate decode error instead of an absurd allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// A batch frame failed to encode or decode. Decoding errors mean the peer
/// (or the pipe) is broken; the pool reacts by reaping the worker and
/// counting the affected queries as oracle failures if retries are also
/// exhausted — malformed frames fail closed, they never produce verdicts.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// The underlying stream failed (including a truncated frame, which
    /// surfaces as an [`std::io::ErrorKind::UnexpectedEof`] read error).
    Io(std::io::Error),
    /// A frame declared zero queries; empty batches are not legal.
    EmptyFrame,
    /// A frame declared more than [`MAX_FRAME_QUERIES`] queries.
    TooManyQueries(usize),
    /// A frame declared more than [`MAX_FRAME_BYTES`] total payload bytes.
    FrameTooLarge(u64),
    /// A query exceeds the protocol's `u32` length prefix (encode-side
    /// only; the decode side cannot observe this).
    QueryTooLong(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::EmptyFrame => write!(f, "batch frame declares zero queries"),
            FrameError::TooManyQueries(n) => {
                write!(f, "batch frame declares {n} queries (max {MAX_FRAME_QUERIES})")
            }
            FrameError::FrameTooLarge(n) => {
                write!(f, "batch frame declares {n} payload bytes (max {MAX_FRAME_BYTES})")
            }
            FrameError::QueryTooLong(n) => {
                write!(f, "query of {n} bytes exceeds the u32 length prefix")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The handshake request the oracle writes to every fresh worker:
/// [`WIRE_V2_PROBE`] behind its `u32` little-endian byte length.
pub fn handshake_frame() -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + WIRE_V2_PROBE.len());
    frame.extend_from_slice(&(WIRE_V2_PROBE.len() as u32).to_le_bytes());
    frame.extend_from_slice(WIRE_V2_PROBE);
    frame
}

/// The worker half of the handshake: reads the first frame of a connection
/// from `input` and, if it is [`handshake_frame`], answers [`WIRE_V2_ACK`]
/// on `output`. Returns `Ok(false)` on a clean EOF before any byte (the
/// oracle closed the connection without using it).
///
/// # Errors
///
/// Any other first frame is an [`std::io::ErrorKind::InvalidData`] error,
/// as are I/O failures on either stream. The declared length is checked
/// before the payload is read, so a garbage prefix allocates nothing.
pub(crate) fn accept_handshake(
    input: &mut impl Read,
    output: &mut impl Write,
) -> std::io::Result<bool> {
    let Some(len) = read_frame_prefix(input)? else { return Ok(false) };
    let mut payload = [0u8; WIRE_V2_PROBE.len()];
    if len as usize != payload.len() {
        return Err(not_a_handshake());
    }
    input.read_exact(&mut payload)?;
    if payload != WIRE_V2_PROBE {
        return Err(not_a_handshake());
    }
    output.write_all(&[WIRE_V2_ACK])?;
    output.flush()?;
    Ok(true)
}

fn not_a_handshake() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "the first frame of a connection must be the pooled-oracle handshake",
    )
}

/// Reads a frame's leading `u32` (the handshake's byte length or a batch
/// frame's query count), mapping a clean EOF *before* the prefix to
/// `None` (the protocol's shutdown signal) and EOF *inside* it to an
/// error.
pub(crate) fn read_frame_prefix(input: &mut impl Read) -> std::io::Result<Option<u32>> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        let n = match input.read(&mut prefix[got..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return if got == 0 {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream truncated inside a frame prefix",
                ))
            };
        }
        got += n;
    }
    Ok(Some(u32::from_le_bytes(prefix)))
}

/// Appends one batch frame to `out`: a `u32` little-endian query count,
/// then each query as a `u32` little-endian length followed by its bytes.
///
/// # Errors
///
/// [`FrameError::EmptyFrame`] for an empty batch,
/// [`FrameError::TooManyQueries`] past [`MAX_FRAME_QUERIES`],
/// [`FrameError::QueryTooLong`] when a query cannot be framed behind a
/// `u32` prefix, and [`FrameError::FrameTooLarge`] when the total payload
/// exceeds [`MAX_FRAME_BYTES`]. On error `out` is left unchanged.
pub fn encode_batch_frame(queries: &[&[u8]], out: &mut Vec<u8>) -> Result<(), FrameError> {
    if queries.is_empty() {
        return Err(FrameError::EmptyFrame);
    }
    if queries.len() > MAX_FRAME_QUERIES {
        return Err(FrameError::TooManyQueries(queries.len()));
    }
    let mut total: u64 = 0;
    for q in queries {
        if u32::try_from(q.len()).is_err() {
            return Err(FrameError::QueryTooLong(q.len()));
        }
        total += q.len() as u64;
    }
    if total > MAX_FRAME_BYTES as u64 {
        return Err(FrameError::FrameTooLarge(total));
    }
    out.reserve(4 + queries.len() * 4 + total as usize);
    out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for q in queries {
        out.extend_from_slice(&(q.len() as u32).to_le_bytes());
        out.extend_from_slice(q);
    }
    Ok(())
}

/// Reads exactly one batch frame from `input`, returning the decoded
/// queries in frame order.
///
/// This is the worker-side decode half: it expects the stream to be
/// positioned at a frame's count prefix and reads nothing past the frame's
/// end. Callers that must distinguish a clean end-of-stream from a
/// truncated frame (a worker seeing EOF *between* frames exits cleanly)
/// should probe the first byte themselves; see
/// [`serve_oracle_worker`](crate::serve_oracle_worker).
///
/// # Errors
///
/// Any [`FrameError`]: truncation surfaces as
/// [`FrameError::Io`] with [`std::io::ErrorKind::UnexpectedEof`]; a count
/// or size prefix beyond the protocol caps is rejected *before* any
/// allocation for it.
pub fn decode_batch_frame(input: &mut impl Read) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    input.read_exact(&mut prefix)?;
    decode_batch_frame_after_count(u32::from_le_bytes(prefix), input)
}

/// [`decode_batch_frame`] for callers that already consumed the `u32`
/// query-count prefix (the worker loop peeks it to detect end-of-stream).
pub fn decode_batch_frame_after_count(
    count: u32,
    input: &mut impl Read,
) -> Result<Vec<Vec<u8>>, FrameError> {
    let count = count as usize;
    if count == 0 {
        return Err(FrameError::EmptyFrame);
    }
    if count > MAX_FRAME_QUERIES {
        return Err(FrameError::TooManyQueries(count));
    }
    let mut queries = Vec::with_capacity(count);
    let mut total: u64 = 0;
    for _ in 0..count {
        let mut prefix = [0u8; 4];
        input.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        total += len as u64;
        if total > MAX_FRAME_BYTES as u64 {
            return Err(FrameError::FrameTooLarge(total));
        }
        let mut query = vec![0u8; len];
        input.read_exact(&mut query)?;
        queries.push(query);
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_frame_roundtrip() {
        let queries: Vec<&[u8]> = vec![b"", b"<a>hi</a>", b"\x00\xff", b"x"];
        let mut buf = Vec::new();
        encode_batch_frame(&queries, &mut buf).expect("encodes");
        let decoded = decode_batch_frame(&mut &buf[..]).expect("decodes");
        assert_eq!(decoded, queries);
    }

    #[test]
    fn empty_batch_is_rejected_on_both_sides() {
        let mut buf = Vec::new();
        assert!(matches!(encode_batch_frame(&[], &mut buf), Err(FrameError::EmptyFrame)));
        assert!(buf.is_empty());
        let zero = 0u32.to_le_bytes();
        assert!(matches!(decode_batch_frame(&mut &zero[..]), Err(FrameError::EmptyFrame)));
    }

    #[test]
    fn truncated_frame_is_an_eof_error_not_a_panic() {
        let queries: Vec<&[u8]> = vec![b"hello", b"world"];
        let mut buf = Vec::new();
        encode_batch_frame(&queries, &mut buf).expect("encodes");
        for cut in 0..buf.len() {
            match decode_batch_frame(&mut &buf[..cut]) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected EOF error, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_counts_fail_before_allocating() {
        // A count prefix claiming u32::MAX queries must be rejected from
        // the 4-byte prefix alone.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(decode_batch_frame(&mut &huge[..]), Err(FrameError::TooManyQueries(_))));
        // A length prefix pushing the payload past the frame cap is
        // rejected at the offending query, not after a giant allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_batch_frame(&mut &buf[..]), Err(FrameError::FrameTooLarge(_))));
    }

    #[test]
    fn v1_frame_layout_is_the_legacy_wire_format() {
        // The handshake keeps the legacy single-query frame layout byte for
        // byte: the u32 LE byte length, then the payload.
        let mut expected = vec![16, 0, 0, 0];
        expected.extend_from_slice(b"\x00\x00glade-wire-v2?");
        assert_eq!(handshake_frame(), expected);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn probe_is_a_legal_v1_query_payload() {
        // A v1-only worker takes the handshake for an ordinary query and
        // answers a verdict byte, which the ack must not look like.
        assert_eq!(&handshake_frame()[4..], WIRE_V2_PROBE);
        assert!(WIRE_V2_ACK > 1, "ack byte must sit outside the verdict range");
    }

    #[test]
    fn worker_acks_the_handshake_and_refuses_anything_else() {
        let mut out = Vec::new();
        assert!(accept_handshake(&mut &handshake_frame()[..], &mut out).expect("handshake"));
        assert_eq!(out, [WIRE_V2_ACK]);
        // A clean EOF before the first byte is a clean shutdown.
        assert!(!accept_handshake(&mut &[][..], &mut Vec::new()).expect("clean EOF"));
        // A batch frame (or any other payload) in first position is refused
        // without answering — even one whose only query is the probe.
        let mut batch = Vec::new();
        encode_batch_frame(&[WIRE_V2_PROBE], &mut batch).expect("encodes");
        let mut wrong_payload = handshake_frame();
        wrong_payload[4] = b'x';
        for first in [batch, wrong_payload, u32::MAX.to_le_bytes().to_vec()] {
            let mut out = Vec::new();
            let err = accept_handshake(&mut &first[..], &mut out).expect_err("refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(out.is_empty());
        }
    }
}
