//! Frame codec and option/stats text formats for `glade-serve v2`.
//!
//! See the [module docs](super) for the wire-format table. Everything here
//! is pure encode/decode — no sockets — so both sides of the protocol and
//! the tests share one implementation.

use crate::synth::SynthesisStats;
use crate::wire::{decode_batch_frame_after_count, encode_batch_frame, FrameError};
use std::io::Read;
use std::time::Duration;

/// The protocol banner exchanged in `HELLO`/`HELLO_ACK`; the server
/// refuses any other.
pub const SERVE_PROTOCOL: &[u8] = b"glade-serve v2";

/// Largest payload (tag byte + body) a peer will accept. Matches the
/// batched worker protocol's frame cap: the bound exists to fail fast on a
/// corrupted length prefix, not to limit real traffic.
pub(crate) const MAX_SERVE_PAYLOAD: usize = crate::wire::MAX_FRAME_BYTES;

// Client → server frame tags.
pub(crate) const TAG_HELLO: u8 = 0x01;
pub(crate) const TAG_OPEN: u8 = 0x02;
pub(crate) const TAG_SEEDS: u8 = 0x03;
pub(crate) const TAG_CANCEL: u8 = 0x04;
pub(crate) const TAG_CLOSE: u8 = 0x05;
pub(crate) const TAG_RESUME: u8 = 0x06; // v2

// Server → client frame tags.
pub(crate) const TAG_HELLO_ACK: u8 = 0x81;
pub(crate) const TAG_OPEN_ACK: u8 = 0x82;
pub(crate) const TAG_EVENT: u8 = 0x83;
pub(crate) const TAG_RESULT: u8 = 0x84;
pub(crate) const TAG_ERROR: u8 = 0x85;

/// A `glade-serve` peer sent something unintelligible.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// A frame, option body, or stats body was malformed.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "serve protocol i/o error: {e}"),
            ProtocolError::Malformed(what) => write!(f, "malformed serve frame: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Malformed(_) => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ProtocolError::Io(io),
            other => ProtocolError::Malformed(other.to_string()),
        }
    }
}

impl From<ProtocolError> for std::io::Error {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Io(io) => io,
            ProtocolError::Malformed(what) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, what)
            }
        }
    }
}

/// Appends one framed message (`u32` LE length, tag byte, body).
pub(crate) fn encode_frame(tag: u8, body: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(1 + body.len()).expect("serve frame body exceeds u32");
    out.reserve(5 + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(body);
}

/// Drains every *complete* frame from the front of an accumulation buffer,
/// leaving any trailing partial frame in place. Used by the server's
/// nonblocking reads.
pub(crate) fn drain_frames(buf: &mut Vec<u8>) -> Result<Vec<(u8, Vec<u8>)>, ProtocolError> {
    let mut frames = Vec::new();
    let mut consumed = 0usize;
    loop {
        let rest = &buf[consumed..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len == 0 || len > MAX_SERVE_PAYLOAD {
            return Err(ProtocolError::Malformed(format!("frame length {len} out of range")));
        }
        if rest.len() < 4 + len {
            break;
        }
        frames.push((rest[4], rest[5..4 + len].to_vec()));
        consumed += 4 + len;
    }
    buf.drain(..consumed);
    Ok(frames)
}

/// Blocking read of one frame (client side).
pub(crate) fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ProtocolError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_SERVE_PAYLOAD {
        return Err(ProtocolError::Malformed(format!("frame length {len} out of range")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let tag = payload[0];
    payload.drain(..1);
    Ok((tag, payload))
}

/// The options a client sends in an `OPEN` frame.
///
/// Only the oracle spec is required; everything else defaults to the
/// engine's local-session defaults (events on, no cache, server-default
/// query budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenRequest {
    /// The oracle the campaign runs against. Interpretation is up to the
    /// server's [`OracleFactory`](super::OracleFactory); the bundled CLI
    /// accepts `target:<name>` (a built-in) and `cmd:<command line>` (a
    /// pooled worker command).
    pub oracle_spec: String,
    /// Per-run distinct-query budget
    /// ([`GladeBuilder::max_queries`](crate::GladeBuilder::max_queries)).
    /// `None` uses the server default.
    pub max_queries: Option<usize>,
    /// Whether the server streams `EVENT` frames for this campaign.
    pub events: bool,
    /// Whether the server loads/saves this campaign's persistent query
    /// cache (requires [`ServeConfig::cache_dir`](super::ServeConfig)).
    pub cache: bool,
}

impl OpenRequest {
    /// An open request for `oracle_spec` with default options.
    pub fn new(oracle_spec: impl Into<String>) -> Self {
        OpenRequest {
            oracle_spec: oracle_spec.into(),
            max_queries: None,
            events: true,
            cache: false,
        }
    }

    pub(crate) fn to_body(&self) -> Vec<u8> {
        let mut body = format!("oracle {}\n", self.oracle_spec);
        if let Some(n) = self.max_queries {
            body.push_str(&format!("max-queries {n}\n"));
        }
        if !self.events {
            body.push_str("events off\n");
        }
        if self.cache {
            body.push_str("cache on\n");
        }
        body.into_bytes()
    }

    pub(crate) fn from_body(body: &[u8]) -> Result<OpenRequest, ProtocolError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ProtocolError::Malformed("OPEN body is not UTF-8".into()))?;
        let mut oracle_spec = None;
        let mut req = OpenRequest::new("");
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "oracle" => {
                    if value.is_empty() {
                        return Err(ProtocolError::Malformed("empty oracle spec".into()));
                    }
                    oracle_spec = Some(value.to_string());
                }
                "max-queries" => {
                    let n = value.parse::<usize>().map_err(|_| {
                        ProtocolError::Malformed(format!("bad max-queries value {value:?}"))
                    })?;
                    req.max_queries = Some(n);
                }
                "events" => req.events = value != "off",
                "cache" => req.cache = value == "on",
                // Unknown option from a newer client, or a retired one
                // (`memo off`, from clients and journals that predate the
                // single planner): skip, don't reject.
                _ => {}
            }
        }
        req.oracle_spec = oracle_spec
            .ok_or_else(|| ProtocolError::Malformed("OPEN without oracle spec".into()))?;
        Ok(req)
    }
}

/// Encodes a `SEEDS` body. A zero-length seed list is legal (an empty
/// re-synthesis batch), which the underlying batch codec rejects, so the
/// empty case writes just the zero count.
pub(crate) fn encode_seeds_body(seeds: &[Vec<u8>]) -> Result<Vec<u8>, ProtocolError> {
    if seeds.is_empty() {
        return Ok(0u32.to_le_bytes().to_vec());
    }
    let refs: Vec<&[u8]> = seeds.iter().map(|s| s.as_slice()).collect();
    let mut body = Vec::new();
    encode_batch_frame(&refs, &mut body)?;
    Ok(body)
}

/// Decodes a `SEEDS` body.
pub(crate) fn decode_seeds_body(body: &[u8]) -> Result<Vec<Vec<u8>>, ProtocolError> {
    if body.len() < 4 {
        return Err(ProtocolError::Malformed("truncated SEEDS body".into()));
    }
    let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    if count == 0 {
        if body.len() != 4 {
            return Err(ProtocolError::Malformed("trailing bytes after empty SEEDS".into()));
        }
        return Ok(Vec::new());
    }
    let mut rest = &body[4..];
    let seeds = decode_batch_frame_after_count(count, &mut rest)?;
    if !rest.is_empty() {
        return Err(ProtocolError::Malformed("trailing bytes after SEEDS batch".into()));
    }
    Ok(seeds)
}

/// Encodes a `RESUME` body: the journaled campaign id to re-attach.
pub(crate) fn encode_resume(campaign: u32) -> Vec<u8> {
    campaign.to_le_bytes().to_vec()
}

/// Decodes a `RESUME` body.
pub(crate) fn decode_resume(body: &[u8]) -> Result<u32, ProtocolError> {
    let bytes: [u8; 4] = body
        .try_into()
        .map_err(|_| ProtocolError::Malformed("RESUME body must be a u32 campaign id".into()))?;
    Ok(u32::from_le_bytes(bytes))
}

/// Encodes an `OPEN_ACK` body: campaign id then fingerprint.
pub(crate) fn encode_open_ack(campaign: u32, fingerprint: &str) -> Vec<u8> {
    let mut body = campaign.to_le_bytes().to_vec();
    body.extend_from_slice(fingerprint.as_bytes());
    body
}

/// Decodes an `OPEN_ACK` body.
pub(crate) fn decode_open_ack(body: &[u8]) -> Result<(u32, String), ProtocolError> {
    if body.len() < 4 {
        return Err(ProtocolError::Malformed("truncated OPEN_ACK".into()));
    }
    let campaign = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    let fingerprint = std::str::from_utf8(&body[4..])
        .map_err(|_| ProtocolError::Malformed("OPEN_ACK fingerprint is not UTF-8".into()))?
        .to_string();
    Ok((campaign, fingerprint))
}

/// Encodes a `RESULT` body: stats length, stats text, grammar text.
pub(crate) fn encode_result(stats: &SynthesisStats, grammar_text: &str) -> Vec<u8> {
    let stats_text = stats_to_text(stats);
    let mut body =
        u32::try_from(stats_text.len()).expect("stats text exceeds u32").to_le_bytes().to_vec();
    body.extend_from_slice(stats_text.as_bytes());
    body.extend_from_slice(grammar_text.as_bytes());
    body
}

/// Decodes a `RESULT` body into (stats, grammar text).
pub(crate) fn decode_result(body: &[u8]) -> Result<(SynthesisStats, String), ProtocolError> {
    if body.len() < 4 {
        return Err(ProtocolError::Malformed("truncated RESULT".into()));
    }
    let stats_len = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    let rest = &body[4..];
    if rest.len() < stats_len {
        return Err(ProtocolError::Malformed("RESULT stats length overruns body".into()));
    }
    let stats_text = std::str::from_utf8(&rest[..stats_len])
        .map_err(|_| ProtocolError::Malformed("RESULT stats are not UTF-8".into()))?;
    let grammar = std::str::from_utf8(&rest[stats_len..])
        .map_err(|_| ProtocolError::Malformed("RESULT grammar is not UTF-8".into()))?
        .to_string();
    Ok((stats_from_text(stats_text)?, grammar))
}

/// Serializes run statistics as `key value` lines. Like event wire lines,
/// the keys are stable and unknown keys are skipped on parse, so the two
/// sides of the protocol can version independently.
pub(crate) fn stats_to_text(stats: &SynthesisStats) -> String {
    let mut out = String::new();
    let mut line = |key: &str, value: String| {
        out.push_str(key);
        out.push(' ');
        out.push_str(&value);
        out.push('\n');
    };
    line("unique-queries", stats.unique_queries.to_string());
    line("new-unique-queries", stats.new_unique_queries.to_string());
    line("total-queries", stats.total_queries.to_string());
    line("seeds-used", stats.seeds_used.to_string());
    line("seeds-skipped", stats.seeds_skipped.to_string());
    line("star-count", stats.star_count.to_string());
    line("tree-nodes", stats.tree_nodes.to_string());
    line("merge-pairs-tried", stats.merge_pairs_tried.to_string());
    line("merges-accepted", stats.merges_accepted.to_string());
    line("chars-generalized", stats.chars_generalized.to_string());
    line("memo-hits", stats.memo_hits.to_string());
    line("probes-elided", stats.probes_elided.to_string());
    line("oracle-failures", stats.oracle_failures.to_string());
    line("timed-out-queries", stats.timed_out_queries.to_string());
    line("tripped-workers", stats.tripped_workers.to_string());
    line("budget-exhausted", usize::from(stats.budget_exhausted).to_string());
    line("cancelled", usize::from(stats.cancelled).to_string());
    line("phase1-ns", stats.phase1_time.as_nanos().to_string());
    line("chargen-ns", stats.chargen_time.as_nanos().to_string());
    line("phase2-ns", stats.phase2_time.as_nanos().to_string());
    out
}

/// Parses the output of [`stats_to_text`]. Unknown keys are skipped;
/// malformed values on known keys are errors.
pub(crate) fn stats_from_text(text: &str) -> Result<SynthesisStats, ProtocolError> {
    let mut stats = SynthesisStats::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once(' ').ok_or_else(|| {
            ProtocolError::Malformed(format!("stats line without value: {line:?}"))
        })?;
        let parse = |value: &str| {
            value
                .parse::<usize>()
                .map_err(|_| ProtocolError::Malformed(format!("bad stats value in {line:?}")))
        };
        let parse_ns = |value: &str| {
            value
                .parse::<u64>()
                .map(Duration::from_nanos)
                .map_err(|_| ProtocolError::Malformed(format!("bad stats value in {line:?}")))
        };
        match key {
            "unique-queries" => stats.unique_queries = parse(value)?,
            "new-unique-queries" => stats.new_unique_queries = parse(value)?,
            "total-queries" => stats.total_queries = parse(value)?,
            "seeds-used" => stats.seeds_used = parse(value)?,
            "seeds-skipped" => stats.seeds_skipped = parse(value)?,
            "star-count" => stats.star_count = parse(value)?,
            "tree-nodes" => stats.tree_nodes = parse(value)?,
            "merge-pairs-tried" => stats.merge_pairs_tried = parse(value)?,
            "merges-accepted" => stats.merges_accepted = parse(value)?,
            "chars-generalized" => stats.chars_generalized = parse(value)?,
            "memo-hits" => stats.memo_hits = parse(value)?,
            "probes-elided" => stats.probes_elided = parse(value)?,
            "oracle-failures" => stats.oracle_failures = parse(value)?,
            "timed-out-queries" => stats.timed_out_queries = parse(value)?,
            "tripped-workers" => stats.tripped_workers = parse(value)?,
            "budget-exhausted" => stats.budget_exhausted = parse(value)? != 0,
            "cancelled" => stats.cancelled = parse(value)? != 0,
            "phase1-ns" => stats.phase1_time = parse_ns(value)?,
            "chargen-ns" => stats.chargen_time = parse_ns(value)?,
            "phase2-ns" => stats.phase2_time = parse_ns(value)?,
            _ => {}
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_drain() {
        let mut buf = Vec::new();
        encode_frame(TAG_HELLO, SERVE_PROTOCOL, &mut buf);
        encode_frame(TAG_CANCEL, b"", &mut buf);
        // A partial third frame stays in the buffer.
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.push(TAG_SEEDS);
        let frames = drain_frames(&mut buf).expect("well-formed frames");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (TAG_HELLO, SERVE_PROTOCOL.to_vec()));
        assert_eq!(frames[1], (TAG_CANCEL, Vec::new()));
        assert_eq!(buf.len(), 5, "partial frame preserved");
    }

    #[test]
    fn frames_round_trip_through_blocking_read() {
        let mut buf = Vec::new();
        encode_frame(TAG_EVENT, b"cancelled", &mut buf);
        let mut cursor = std::io::Cursor::new(buf);
        let (tag, body) = read_frame(&mut cursor).expect("frame parses");
        assert_eq!(tag, TAG_EVENT);
        assert_eq!(body, b"cancelled");
    }

    #[test]
    fn zero_length_frames_are_rejected() {
        let mut buf = 0u32.to_le_bytes().to_vec();
        assert!(drain_frames(&mut buf).is_err());
    }

    #[test]
    fn open_request_round_trips() {
        let mut req = OpenRequest::new("target:xml");
        req.max_queries = Some(5000);
        req.events = false;
        req.cache = true;
        let body = req.to_body();
        assert_eq!(OpenRequest::from_body(&body).expect("parses"), req);
        // Defaults round-trip too (no optional lines emitted).
        let plain = OpenRequest::new("cmd:worker --x");
        assert_eq!(OpenRequest::from_body(&plain.to_body()).expect("parses"), plain);
    }

    #[test]
    fn open_request_spec_with_spaces_survives() {
        let req = OpenRequest::new("cmd:python3 worker.py --strict");
        let parsed = OpenRequest::from_body(&req.to_body()).expect("parses");
        assert_eq!(parsed.oracle_spec, "cmd:python3 worker.py --strict");
    }

    #[test]
    fn open_request_skips_unknown_options_and_requires_oracle() {
        let parsed =
            OpenRequest::from_body(b"oracle target:xml\nshiny-new-option 7\n").expect("parses");
        assert_eq!(parsed.oracle_spec, "target:xml");
        assert!(OpenRequest::from_body(b"max-queries 5\n").is_err(), "oracle line is required");
        assert!(OpenRequest::from_body(b"oracle target:xml\nmax-queries zap\n").is_err());
    }

    #[test]
    fn legacy_memo_off_line_decodes_to_the_default_request() {
        // Clients that predate the single planner could send `memo off` to
        // select the retired one-shot planner; the line is now an unknown
        // option.
        let parsed = OpenRequest::from_body(b"oracle target:xml\nmemo off\n").expect("parses");
        assert_eq!(parsed, OpenRequest::new("target:xml"));
        assert_eq!(parsed.to_body(), b"oracle target:xml\n");
    }

    #[test]
    fn seeds_body_round_trips_including_empty() {
        let seeds = vec![b"<a>hi</a>".to_vec(), Vec::new(), vec![0u8, 255u8]];
        let body = encode_seeds_body(&seeds).expect("encodes");
        assert_eq!(decode_seeds_body(&body).expect("decodes"), seeds);
        let empty = encode_seeds_body(&[]).expect("encodes");
        assert_eq!(decode_seeds_body(&empty).expect("decodes"), Vec::<Vec<u8>>::new());
        assert!(decode_seeds_body(b"\x01\x00").is_err(), "truncated body rejected");
    }

    #[test]
    fn resume_body_round_trips() {
        assert_eq!(decode_resume(&encode_resume(0)).expect("decodes"), 0);
        assert_eq!(decode_resume(&encode_resume(u32::MAX)).expect("decodes"), u32::MAX);
        assert!(decode_resume(b"abc").is_err(), "short body rejected");
        assert!(decode_resume(b"abcde").is_err(), "long body rejected");
    }

    #[test]
    fn banners_are_distinct_and_versioned() {
        // The bytes are the wire contract; the retired v1 banner is refused.
        assert_eq!(SERVE_PROTOCOL, b"glade-serve v2");
        assert_ne!(SERVE_PROTOCOL, b"glade-serve v1");
    }

    #[test]
    fn open_ack_round_trips() {
        let body = encode_open_ack(7, "fn:xml-like");
        assert_eq!(decode_open_ack(&body).expect("decodes"), (7, "fn:xml-like".to_string()));
    }

    #[test]
    fn result_round_trips_stats_and_grammar() {
        let stats = SynthesisStats {
            unique_queries: 965,
            total_queries: 985,
            merges_accepted: 1,
            budget_exhausted: true,
            cancelled: true,
            phase1_time: Duration::from_nanos(123_456_789),
            ..SynthesisStats::default()
        };
        let body = encode_result(&stats, "root: <A>\n<A>: 'x'\n");
        let (back, grammar) = decode_result(&body).expect("decodes");
        assert_eq!(grammar, "root: <A>\n<A>: 'x'\n");
        assert_eq!(back.unique_queries, 965);
        assert_eq!(back.total_queries, 985);
        assert_eq!(back.merges_accepted, 1);
        assert!(back.budget_exhausted);
        assert!(back.cancelled);
        assert_eq!(back.phase1_time, Duration::from_nanos(123_456_789));
    }

    #[test]
    fn stats_text_skips_unknown_keys() {
        let parsed = stats_from_text("unique-queries 5\nfuture-metric 9\n").expect("parses");
        assert_eq!(parsed.unique_queries, 5);
        assert!(stats_from_text("unique-queries five\n").is_err());
    }
}

/// Fuzz battery for every decoder that reads bytes from a socket peer:
/// arbitrary bytes are a typed error or a parse, never a panic; canonical
/// encodings round-trip byte-identically; and a frame stream split at any
/// byte boundary drains the same frames.
#[cfg(test)]
pub(crate) mod fuzz {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A canonical oracle spec: printable ASCII, no leading or trailing
    /// space (`from_body` trims lines, so only trimmed specs round-trip).
    fn arb_spec() -> impl Strategy<Value = String> {
        (0x21u8..0x7f, vec(0x20u8..0x7f, 0..30), 0x21u8..0x7f).prop_map(|(first, mid, last)| {
            let mut spec = vec![first];
            spec.extend(mid);
            spec.push(last);
            String::from_utf8(spec).expect("ASCII")
        })
    }

    /// Arbitrary Unicode text of up to `max` chars.
    fn arb_text(max: usize) -> impl Strategy<Value = String> {
        vec(0u32..0x11_0000, 0..max)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    /// A canonical `OPEN` request (every field round-trips through the
    /// body codec).
    pub(crate) fn arb_open_request() -> impl Strategy<Value = OpenRequest> {
        (arb_spec(), (any::<bool>(), any::<usize>()), any::<bool>(), any::<bool>()).prop_map(
            |(oracle_spec, (limited, n), events, cache)| OpenRequest {
                oracle_spec,
                max_queries: limited.then_some(n),
                events,
                cache,
            },
        )
    }

    fn arb_stats() -> impl Strategy<Value = SynthesisStats> {
        (vec(any::<usize>(), 15), any::<bool>(), any::<bool>(), vec(any::<u64>(), 3)).prop_map(
            |(n, budget_exhausted, cancelled, ns)| SynthesisStats {
                unique_queries: n[0],
                new_unique_queries: n[1],
                total_queries: n[2],
                seeds_used: n[3],
                seeds_skipped: n[4],
                star_count: n[5],
                tree_nodes: n[6],
                merge_pairs_tried: n[7],
                merges_accepted: n[8],
                chars_generalized: n[9],
                memo_hits: n[10],
                probes_elided: n[11],
                oracle_failures: n[12],
                timed_out_queries: n[13],
                tripped_workers: n[14],
                budget_exhausted,
                cancelled,
                phase1_time: Duration::from_nanos(ns[0]),
                chargen_time: Duration::from_nanos(ns[1]),
                phase2_time: Duration::from_nanos(ns[2]),
            },
        )
    }

    /// Keys the `OPEN` and stats decoders know (a sample covering every
    /// value parser), plus the retired `memo` key and one they never knew.
    const KEYS: &[&str] = &[
        "oracle",
        "max-queries",
        "memo",
        "events",
        "cache",
        "unique-queries",
        "total-queries",
        "budget-exhausted",
        "phase1-ns",
        "chargen-ns",
        "tripped-workers",
        "no-such-key",
    ];

    /// Arbitrary bytes, sometimes behind a plausible small length or count
    /// prefix so the decoders get past their first check.
    fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            vec(any::<u8>(), 0..64),
            (0u32..16, vec(any::<u8>(), 0..64)).prop_map(|(n, mut rest)| {
                let mut bytes = n.to_le_bytes().to_vec();
                bytes.append(&mut rest);
                bytes
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(bytes in arb_bytes()) {
            let _ = drain_frames(&mut bytes.clone());
            let _ = read_frame(&mut &bytes[..]);
            let _ = OpenRequest::from_body(&bytes);
            let _ = decode_seeds_body(&bytes);
            let _ = decode_resume(&bytes);
            let _ = decode_open_ack(&bytes);
            let _ = decode_result(&bytes);
            let _ = stats_from_text(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn key_value_lines_never_panic_the_text_decoders(lines in vec((0usize..KEYS.len(), arb_text(6)), 0..8)) {
            // Known keys with arbitrary values reach every parse arm.
            let text: String =
                lines.iter().map(|(k, value)| format!("{} {value}\n", KEYS[*k])).collect();
            let _ = OpenRequest::from_body(text.as_bytes());
            let _ = stats_from_text(&text);
        }

        #[test]
        fn frames_round_trip_byte_identically(tag in any::<u8>(), body in vec(any::<u8>(), 0..128)) {
            let mut encoded = Vec::new();
            encode_frame(tag, &body, &mut encoded);
            let mut buf = encoded.clone();
            let drained = drain_frames(&mut buf).expect("canonical frame drains");
            prop_assert_eq!(&drained, &vec![(tag, body.clone())]);
            prop_assert!(buf.is_empty());
            let (read_tag, read_body) = read_frame(&mut &encoded[..]).expect("canonical frame reads");
            let mut reencoded = Vec::new();
            encode_frame(read_tag, &read_body, &mut reencoded);
            prop_assert_eq!(reencoded, encoded);
        }

        #[test]
        fn open_requests_round_trip_byte_identically(req in arb_open_request()) {
            let body = req.to_body();
            let parsed = OpenRequest::from_body(&body).expect("canonical body parses");
            prop_assert_eq!(&parsed, &req);
            prop_assert_eq!(parsed.to_body(), body);
        }

        #[test]
        fn seeds_bodies_round_trip_byte_identically(seeds in vec(vec(any::<u8>(), 0..32), 0..8)) {
            let body = encode_seeds_body(&seeds).expect("encodes");
            let decoded = decode_seeds_body(&body).expect("canonical body decodes");
            prop_assert_eq!(&decoded, &seeds);
            prop_assert_eq!(encode_seeds_body(&decoded).expect("re-encodes"), body);
        }

        #[test]
        fn resume_and_open_ack_round_trip_byte_identically(campaign in any::<u32>(), fingerprint in arb_text(24)) {
            let resume = encode_resume(campaign);
            prop_assert_eq!(encode_resume(decode_resume(&resume).expect("decodes")), resume);
            let ack = encode_open_ack(campaign, &fingerprint);
            let (id, fp) = decode_open_ack(&ack).expect("decodes");
            prop_assert_eq!(id, campaign);
            prop_assert_eq!(&fp, &fingerprint);
            prop_assert_eq!(encode_open_ack(id, &fp), ack);
        }

        #[test]
        fn results_round_trip_byte_identically(stats in arb_stats(), grammar in arb_text(40)) {
            let body = encode_result(&stats, &grammar);
            let (back, back_grammar) = decode_result(&body).expect("canonical result decodes");
            prop_assert_eq!(stats_to_text(&back), stats_to_text(&stats));
            prop_assert_eq!(&back_grammar, &grammar);
            prop_assert_eq!(encode_result(&back, &back_grammar), body);
        }

        #[test]
        fn a_stream_split_at_any_byte_drains_the_same_frames(
            frames in vec((any::<u8>(), vec(any::<u8>(), 0..12)), 1..4),
        ) {
            let mut stream = Vec::new();
            for (tag, body) in &frames {
                encode_frame(*tag, body, &mut stream);
            }
            for cut in 0..=stream.len() {
                let mut buf = stream[..cut].to_vec();
                let mut drained = drain_frames(&mut buf).expect("prefix drains");
                buf.extend_from_slice(&stream[cut..]);
                drained.extend(drain_frames(&mut buf).expect("rest drains"));
                prop_assert_eq!(&drained, &frames, "cut={}", cut);
                prop_assert!(buf.is_empty(), "cut={}", cut);
            }
        }
    }
}
