//! Property-based battery for the batched-frame codec (`glade_core::wire`)
//! and its fail-closed decoding contract: arbitrary query batches
//! round-trip byte-identically, and malformed / truncated / oversized
//! frames are typed errors — never a panic, never a fabricated verdict.
//!
//! The process-level half of the same contract (a worker that receives a
//! malformed frame exits nonzero and the pool counts oracle failures
//! rather than inventing `false` verdicts) is pinned in `parallel.rs`
//! against an independently implemented worker binary.

use glade_core::wire::{
    decode_batch_frame, encode_batch_frame, handshake_frame, FrameError, MAX_FRAME_QUERIES,
    WIRE_V2_ACK, WIRE_V2_PROBE,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// An arbitrary query: arbitrary bytes, length skewed toward the small
/// sizes the engine actually poses but reaching into the kilobytes.
fn arb_query() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        4 => vec(any::<u8>(), 0..32),
        2 => vec(any::<u8>(), 32..256),
        1 => vec(any::<u8>(), 256..4096),
    ]
}

/// An arbitrary nonempty batch (the protocol forbids empty frames).
fn arb_batch() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(arb_query(), 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_frames_roundtrip_byte_identically(batch in arb_batch()) {
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let mut encoded = Vec::new();
        encode_batch_frame(&refs, &mut encoded).expect("legal batch encodes");
        let decoded = decode_batch_frame(&mut &encoded[..]).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &batch);
        // The encoding is canonical: re-encoding the decoded batch
        // reproduces the exact frame bytes.
        let decoded_refs: Vec<&[u8]> = decoded.iter().map(Vec::as_slice).collect();
        let mut reencoded = Vec::new();
        encode_batch_frame(&decoded_refs, &mut reencoded).expect("re-encodes");
        prop_assert_eq!(&reencoded, &encoded);
    }

    #[test]
    fn consecutive_frames_decode_in_order(a in arb_batch(), b in arb_batch()) {
        // The worker loop reads frames back to back off one stream; frame
        // boundaries must self-delimit.
        let refs_a: Vec<&[u8]> = a.iter().map(Vec::as_slice).collect();
        let refs_b: Vec<&[u8]> = b.iter().map(Vec::as_slice).collect();
        let mut stream = Vec::new();
        encode_batch_frame(&refs_a, &mut stream).expect("encodes");
        encode_batch_frame(&refs_b, &mut stream).expect("encodes");
        let mut reader = &stream[..];
        prop_assert_eq!(&decode_batch_frame(&mut reader).expect("first frame"), &a);
        prop_assert_eq!(&decode_batch_frame(&mut reader).expect("second frame"), &b);
        prop_assert!(reader.is_empty(), "no trailing bytes");
    }

    #[test]
    fn truncated_frames_fail_closed_with_eof(batch in arb_batch(), cut_seed in any::<proptest::sample::Index>()) {
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let mut encoded = Vec::new();
        encode_batch_frame(&refs, &mut encoded).expect("encodes");
        // Any strict prefix is a truncated frame: always an error (an
        // UnexpectedEof read failure), never a short parse or a panic.
        let cut = cut_seed.index(encoded.len());
        match decode_batch_frame(&mut &encoded[..cut]) {
            Err(FrameError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut={}", cut)
            }
            Err(other) => prop_assert!(false, "cut={}: unexpected error {other}", cut),
            Ok(q) => prop_assert!(false, "cut={}: decoded {} queries from a truncation", cut, q.len()),
        }
    }

    #[test]
    fn corrupted_count_prefix_never_panics(batch in arb_batch(), corrupt in any::<u32>()) {
        // Overwrite the frame's query count with garbage: decoding must
        // produce a typed error or a (different) successful parse of the
        // remaining bytes — never a panic and never an absurd allocation.
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let mut encoded = Vec::new();
        encode_batch_frame(&refs, &mut encoded).expect("encodes");
        encoded[..4].copy_from_slice(&corrupt.to_le_bytes());
        match decode_batch_frame(&mut &encoded[..]) {
            Err(FrameError::TooManyQueries(n)) => prop_assert!(n > MAX_FRAME_QUERIES),
            Err(FrameError::EmptyFrame) => prop_assert_eq!(corrupt, 0),
            // Smaller/equal counts may still parse (a prefix of the
            // queries) or hit EOF / the size caps — all fail-closed.
            Err(FrameError::Io(_)) | Err(FrameError::FrameTooLarge(_)) => {}
            Ok(qs) => prop_assert_eq!(qs.len() as u32, corrupt),
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn oversized_declared_lengths_are_rejected_before_allocation(count in 1u32..4, declared in (1u64 << 30)+1 .. u32::MAX as u64) {
        // A frame whose length prefixes promise more payload than the
        // protocol cap must be rejected from the prefixes alone.
        let mut frame = Vec::new();
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&(declared as u32).to_le_bytes());
        // Deliberately provide no payload: if the cap check did not fire
        // first, decoding would try to allocate `declared` bytes.
        match decode_batch_frame(&mut &frame[..]) {
            Err(FrameError::FrameTooLarge(n)) => prop_assert_eq!(n, declared),
            other => prop_assert!(false, "expected FrameTooLarge, got {:?}", other.map(|q| q.len())),
        }
    }

    #[test]
    fn probe_never_collides_with_small_engine_queries(query in arb_query()) {
        // The handshake probe must be recognizable unambiguously; the
        // generator's arbitrary bytes stand in for engine-made queries.
        // (Not a proof — the real guarantee is the leading NUL NUL pair,
        // which no text-protocol target accepts — but a cheap tripwire.)
        if query != WIRE_V2_PROBE {
            let refs: Vec<&[u8]> = vec![&query];
            let mut encoded = Vec::new();
            encode_batch_frame(&refs, &mut encoded).expect("encodes");
            prop_assert!(encoded[8..] != WIRE_V2_PROBE[..] || query == WIRE_V2_PROBE);
        }
    }
}

#[test]
fn empty_batches_are_illegal_on_both_sides() {
    let mut out = Vec::new();
    assert!(matches!(encode_batch_frame(&[], &mut out), Err(FrameError::EmptyFrame)));
    assert!(out.is_empty(), "failed encodes leave the buffer untouched");
    let zero = 0u32.to_le_bytes();
    assert!(matches!(decode_batch_frame(&mut &zero[..]), Err(FrameError::EmptyFrame)));
}

#[test]
fn too_many_queries_rejected_at_encode_time() {
    let one: &[u8] = b"q";
    let queries: Vec<&[u8]> = vec![one; MAX_FRAME_QUERIES + 1];
    let mut out = Vec::new();
    match encode_batch_frame(&queries, &mut out) {
        Err(FrameError::TooManyQueries(n)) => assert_eq!(n, MAX_FRAME_QUERIES + 1),
        other => panic!("expected TooManyQueries, got {:?}", other.map(|()| "ok")),
    }
    assert!(out.is_empty());
}

#[test]
#[allow(clippy::assertions_on_constants)]
fn ack_byte_is_outside_the_verdict_range() {
    // The handshake contract: verdicts are 0x00/0x01, so the ack must be
    // distinguishable from both — that is how the pool tells a conforming
    // worker from one that answered the handshake as a query.
    assert!(WIRE_V2_ACK != 0 && WIRE_V2_ACK != 1);
    // And the handshake is the probe behind its u32 length: exactly what
    // a single-query worker takes for a query.
    let framed = handshake_frame();
    assert_eq!(framed[..4], (WIRE_V2_PROBE.len() as u32).to_le_bytes());
    assert_eq!(&framed[4..], WIRE_V2_PROBE);
}
