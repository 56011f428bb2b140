//! Append-only campaign journal for crash-safe `glade serve`.
//!
//! The engine's determinism pins make a campaign *replayable*: feeding the
//! same seed batches through [`Session::add_seeds`](crate::Session::add_seeds)
//! in the same order produces byte-identical grammars, and the
//! fingerprint-namespaced persistent cache makes the replay re-pay ~zero
//! oracle queries. This module persists exactly the inputs that replay
//! needs — the `OPEN` options and every accepted seed batch — as an
//! append-only text journal under the server's cache directory, so a
//! `glade serve` process killed mid-campaign can restart and resume every
//! open campaign (`RESUME` frame) into the same determinism envelope.
//!
//! # Format (`glade-journal v1`)
//!
//! A header line, then one record per line. Fields are space-separated;
//! byte payloads (the `OPEN` body, `SEEDS` bodies) travel hex-encoded —
//! seeds are arbitrary bytes, so no text escaping scheme is safe (the same
//! argument as the [`persist`](crate::persist) snapshot format):
//!
//! ```text
//! glade-journal v1
//! n <high-water campaign id>
//! o <campaign-id> <hex OPEN body>
//! s <campaign-id> <batch-index> <hex SEEDS body>
//! c <campaign-id> <batch-index> <unique-queries>
//! x <campaign-id>
//! ```
//!
//! `o` opens a campaign, `s` records a seed batch *at receipt* (before the
//! run, so a crash mid-run does not lose the batch), `c` checkpoints a
//! completed batch with the session's cumulative distinct-query count
//! (the budget spent so far), and `x` marks a clean `CLOSE`. Every append
//! is a single `write` followed by `fdatasync`, so a record is either
//! fully on disk or (for the torn final line a crash can leave) ignored by
//! the replay parser.
//!
//! # Replay semantics
//!
//! Parsing never fails: a torn trailing line is skipped, and the first
//! malformed record stops the parse, keeping every record before it — the
//! journal degrades to a shorter history, never to an error that would
//! wedge a restart. Campaigns with an `o` but no `x` are *resumable*; on
//! startup the server compacts the journal (rewriting only live records,
//! durably) and offers each resumable campaign to `RESUME`. Campaign ids
//! are never reused across restarts: the id counter starts past the
//! largest id the journal has ever recorded.

use super::protocol::{decode_seeds_body, encode_seeds_body, OpenRequest};
use crate::persist::write_durable;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal's file name inside [`ServeConfig::cache_dir`](super::ServeConfig).
pub(crate) const JOURNAL_FILE: &str = "serve.journal";
const JOURNAL_HEADER: &str = "glade-journal v1";

/// One resumable campaign reconstructed from the journal.
#[derive(Debug, Clone)]
pub(crate) struct JournaledCampaign {
    /// The campaign's original `OPEN` options.
    pub req: OpenRequest,
    /// Every journaled seed batch, in submission order.
    pub batches: Vec<Vec<Vec<u8>>>,
    /// Batches covered by a checkpoint (the completed prefix length).
    pub checkpointed: usize,
    /// The cumulative distinct-query count the last checkpoint recorded.
    pub last_unique: Option<usize>,
}

/// Everything a restarting server learns from the journal.
#[derive(Debug, Default)]
pub(crate) struct JournalState {
    /// Campaigns opened but never cleanly closed, by id.
    pub campaigns: HashMap<u32, JournaledCampaign>,
    /// The largest campaign id ever journaled (0 if none); persisted
    /// through compaction by the `n` record so closed campaigns' ids are
    /// never reused after a restart.
    pub max_seen_id: u32,
}

/// Appending handle on the journal file, shared by the accept loop and
/// campaign threads. Appends take turns on the file, so records never
/// interleave; every append is fsynced before returning.
#[derive(Debug)]
pub(crate) struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, replays it, and
    /// compacts it down to its live records.
    pub(crate) fn open(dir: &Path) -> std::io::Result<(Journal, JournalState)> {
        let path = dir.join(JOURNAL_FILE);
        let state = match std::fs::read_to_string(&path) {
            Ok(text) => parse_journal(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => JournalState::default(),
            Err(e) => return Err(e),
        };
        let compacted = render_journal(&state);
        let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
        write_durable(&path, &tmp, compacted.as_bytes())?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((Journal { file: Mutex::new(file), path }, state))
    }

    /// The journal's path (for diagnostics).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    fn append_line(&self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut file = self.file.lock().expect("campaign journal poisoned");
        file.write_all(&buf)?;
        file.sync_data()
    }

    /// Records a campaign's `OPEN`.
    pub(crate) fn append_open(&self, id: u32, req: &OpenRequest) -> std::io::Result<()> {
        self.append_line(&format!("o {id} {}", hex_encode(&req.to_body())))
    }

    /// Records a seed batch at receipt, before it runs.
    pub(crate) fn append_seeds(
        &self,
        id: u32,
        index: usize,
        seeds: &[Vec<u8>],
    ) -> std::io::Result<()> {
        let body = encode_seeds_body(seeds).map_err(std::io::Error::from)?;
        self.append_line(&format!("s {id} {index} {}", hex_encode(&body)))
    }

    /// Checkpoints a completed batch with the cumulative unique-query
    /// count (the budget spent so far).
    pub(crate) fn append_checkpoint(
        &self,
        id: u32,
        index: usize,
        unique_queries: usize,
    ) -> std::io::Result<()> {
        self.append_line(&format!("c {id} {index} {unique_queries}"))
    }

    /// Records a clean `CLOSE`: the campaign is no longer resumable.
    pub(crate) fn append_closed(&self, id: u32) -> std::io::Result<()> {
        self.append_line(&format!("x {id}"))
    }
}

/// Parses journal text into the live-campaign state. Never fails: a
/// missing/foreign header yields the empty state, a torn trailing line is
/// skipped, and the first malformed record stops the parse keeping the
/// prefix.
pub(crate) fn parse_journal(text: &str) -> JournalState {
    let mut state = JournalState::default();
    // A crash can tear the final append; a line is only trustworthy if the
    // newline that terminates it reached the file.
    let complete = match text.rfind('\n') {
        Some(end) => &text[..end],
        None => return state,
    };
    let mut lines = complete.lines();
    if lines.next() != Some(JOURNAL_HEADER) {
        return state;
    }
    let closed_or_bumped = |state: &mut JournalState, id: u32| {
        state.max_seen_id = state.max_seen_id.max(id);
    };
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        let (Some(kind), id) = (fields.next(), fields.next().and_then(|f| f.parse::<u32>().ok()))
        else {
            return state;
        };
        let Some(id) = id else { return state };
        match kind {
            "n" => closed_or_bumped(&mut state, id),
            "o" => {
                let Some(req) = fields
                    .next()
                    .and_then(hex_decode)
                    .and_then(|body| OpenRequest::from_body(&body).ok())
                else {
                    return state;
                };
                if state.campaigns.contains_key(&id) {
                    return state;
                }
                closed_or_bumped(&mut state, id);
                state.campaigns.insert(
                    id,
                    JournaledCampaign {
                        req,
                        batches: Vec::new(),
                        checkpointed: 0,
                        last_unique: None,
                    },
                );
            }
            "s" => {
                let index = fields.next().and_then(|f| f.parse::<usize>().ok());
                let seeds = fields
                    .next()
                    .and_then(hex_decode)
                    .and_then(|body| decode_seeds_body(&body).ok());
                let (Some(index), Some(seeds), Some(campaign)) =
                    (index, seeds, state.campaigns.get_mut(&id))
                else {
                    return state;
                };
                if index != campaign.batches.len() {
                    return state;
                }
                campaign.batches.push(seeds);
            }
            "c" => {
                let index = fields.next().and_then(|f| f.parse::<usize>().ok());
                let unique = fields.next().and_then(|f| f.parse::<usize>().ok());
                let (Some(index), Some(unique), Some(campaign)) =
                    (index, unique, state.campaigns.get_mut(&id))
                else {
                    return state;
                };
                if index >= campaign.batches.len() {
                    return state;
                }
                campaign.checkpointed = campaign.checkpointed.max(index + 1);
                campaign.last_unique = Some(unique);
            }
            "x" => {
                if state.campaigns.remove(&id).is_none() {
                    return state;
                }
                closed_or_bumped(&mut state, id);
            }
            _ => return state,
        }
        if fields.next().is_some() {
            return state;
        }
    }
    state
}

/// Renders the live records back to journal text (used by compaction).
pub(crate) fn render_journal(state: &JournalState) -> String {
    let mut out = String::from(JOURNAL_HEADER);
    out.push('\n');
    if state.max_seen_id > 0 {
        out.push_str(&format!("n {}\n", state.max_seen_id));
    }
    let mut ids: Vec<u32> = state.campaigns.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let campaign = &state.campaigns[&id];
        out.push_str(&format!("o {id} {}\n", hex_encode(&campaign.req.to_body())));
        for (index, seeds) in campaign.batches.iter().enumerate() {
            let body = encode_seeds_body(seeds).expect("journaled batch re-encodes");
            out.push_str(&format!("s {id} {index} {}\n", hex_encode(&body)));
        }
        if let (true, Some(unique)) = (campaign.checkpointed > 0, campaign.last_unique) {
            out.push_str(&format!("c {id} {} {unique}\n", campaign.checkpointed - 1));
        }
    }
    out
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |b: u8| -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        }
    };
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("glade-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn request(spec: &str) -> OpenRequest {
        let mut req = OpenRequest::new(spec);
        req.cache = true;
        req
    }

    #[test]
    fn appends_round_trip_through_parse() {
        let dir = scratch_dir("round-trip");
        let (journal, state) = Journal::open(&dir).expect("open");
        assert!(state.campaigns.is_empty());
        journal.append_open(1, &request("target:xml")).unwrap();
        journal.append_seeds(1, 0, &[b"<a>hi</a>".to_vec(), vec![0u8, 255u8]]).unwrap();
        journal.append_checkpoint(1, 0, 965).unwrap();
        journal.append_seeds(1, 1, &[b"<b></b>".to_vec()]).unwrap();
        journal.append_open(2, &request("target:json")).unwrap();
        journal.append_closed(2).unwrap();

        let (_journal2, state) = Journal::open(&dir).expect("reopen");
        assert_eq!(state.max_seen_id, 2, "closed ids still advance the counter");
        assert_eq!(state.campaigns.len(), 1, "closed campaign dropped");
        let campaign = &state.campaigns[&1];
        assert_eq!(campaign.req, request("target:xml"));
        assert_eq!(
            campaign.batches,
            vec![vec![b"<a>hi</a>".to_vec(), vec![0u8, 255u8]], vec![b"<b></b>".to_vec()]]
        );
        assert_eq!(campaign.checkpointed, 1);
        assert_eq!(campaign.last_unique, Some(965));
        // A third open (after compaction dropped campaign 2's records)
        // still refuses to reuse id 2.
        let (_journal3, state) = Journal::open(&dir).expect("re-reopen");
        assert_eq!(state.max_seen_id, 2, "high-water id survives compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_record_is_ignored() {
        let dir = scratch_dir("torn");
        let (journal, _) = Journal::open(&dir).expect("open");
        journal.append_open(1, &request("target:xml")).unwrap();
        journal.append_seeds(1, 0, &[b"seed".to_vec()]).unwrap();
        drop(journal);
        // Simulate a crash mid-append: a second batch with no newline.
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("s 1 1 7365");
        std::fs::write(&path, &text).unwrap();

        let (_journal, state) = Journal::open(&dir).expect("reopen");
        let campaign = &state.campaigns[&1];
        assert_eq!(campaign.batches.len(), 1, "torn record skipped");
        // Compaction dropped the torn tail from the file itself.
        let compacted = std::fs::read_to_string(&path).unwrap();
        assert!(compacted.ends_with('\n'));
        assert!(!compacted.contains("s 1 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_record_keeps_the_prefix() {
        // `010000000400000073656564` = one seed, the 4 bytes `seed`.
        let state = parse_journal(
            "glade-journal v1\no 3 6f7261636c65207461726765743a786d6c0a\
             \ns 3 0 010000000400000073656564\
             \ns 3 nonsense zz\ns 3 1 010000000400000073656564\n",
        );
        assert_eq!(state.campaigns.len(), 1);
        assert_eq!(state.campaigns[&3].batches.len(), 1, "parse stops at the bad record");
        assert_eq!(state.max_seen_id, 3);
    }

    #[test]
    fn foreign_or_missing_header_parses_empty() {
        assert!(parse_journal("").campaigns.is_empty());
        assert!(parse_journal("glade-journal v9\no 1 00\n").campaigns.is_empty());
        assert!(parse_journal("not a journal\n").campaigns.is_empty());
    }

    #[test]
    fn out_of_order_or_unknown_ids_stop_the_parse() {
        // `s` before its `o`.
        let state = parse_journal("glade-journal v1\ns 1 0 04000000\n");
        assert!(state.campaigns.is_empty());
        // Checkpoint past the batches seen so far.
        let state =
            parse_journal("glade-journal v1\no 1 6f7261636c65207461726765743a786d6c0a\nc 1 0 5\n");
        assert_eq!(state.campaigns[&1].checkpointed, 0);
        // Batch index gap.
        let state = parse_journal(
            "glade-journal v1\no 1 6f7261636c65207461726765743a786d6c0a\ns 1 1 04000000\n",
        );
        assert!(state.campaigns[&1].batches.is_empty());
    }

    #[test]
    fn render_compacts_to_equivalent_state() {
        let mut state = JournalState::default();
        state.campaigns.insert(
            7,
            JournaledCampaign {
                req: request("target:xml"),
                batches: vec![vec![b"a".to_vec()], vec![b"b".to_vec(), Vec::new()]],
                checkpointed: 2,
                last_unique: Some(42),
            },
        );
        state.max_seen_id = 7;
        let text = render_journal(&state);
        let back = parse_journal(&text);
        assert_eq!(back.campaigns.len(), 1);
        let campaign = &back.campaigns[&7];
        assert_eq!(campaign.req, request("target:xml"));
        assert_eq!(campaign.batches, state.campaigns[&7].batches);
        assert_eq!(campaign.checkpointed, 2);
        assert_eq!(campaign.last_unique, Some(42));
        assert_eq!(back.max_seen_id, 7);
    }

    #[test]
    fn legacy_memo_off_records_replay_and_compact_without_the_line() {
        // `o` records written before the single planner may carry a
        // `memo off` line; it decodes as an unknown option.
        let seeds = vec![b"<a>hi</a>".to_vec()];
        let legacy = format!(
            "glade-journal v1\no 4 {}\ns 4 0 {}\n",
            hex_encode(b"oracle target:xml\nmemo off\n"),
            hex_encode(&encode_seeds_body(&seeds).unwrap())
        );
        let state = parse_journal(&legacy);
        let campaign = &state.campaigns[&4];
        assert_eq!(campaign.req, OpenRequest::new("target:xml"));
        assert_eq!(campaign.batches, vec![seeds]);
        let compacted = render_journal(&state);
        assert!(compacted.contains(&format!("o 4 {}\n", hex_encode(b"oracle target:xml\n"))));
        assert!(!compacted.contains(&hex_encode(b"memo off")), "{compacted}");
        assert_eq!(render_journal(&parse_journal(&compacted)), compacted, "compaction is stable");
    }
}

/// Fuzz battery for the journal decoder, which reads whatever a crashed
/// server left on disk: arbitrary text never panics the parser, and a
/// canonical journal (as compaction renders it) round-trips byte-identically.
#[cfg(test)]
mod fuzz {
    use super::*;
    use crate::serve::protocol::fuzz::arb_open_request;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn arb_campaign() -> impl Strategy<Value = JournaledCampaign> {
        (arb_open_request(), vec(vec(vec(any::<u8>(), 0..8), 0..3), 0..3), any::<usize>()).prop_map(
            |(req, batches, cut)| {
                let checkpointed = cut % (batches.len() + 1);
                let last_unique = (checkpointed > 0).then_some(cut);
                JournaledCampaign { req, batches, checkpointed, last_unique }
            },
        )
    }

    /// A live-record state compaction can produce: the high-water id is
    /// at least every open campaign's id, and a checkpoint always records
    /// its distinct-query count.
    fn arb_state() -> impl Strategy<Value = JournalState> {
        (vec((0u32..1000, arb_campaign()), 0..4), 0u32..5).prop_map(|(campaigns, extra)| {
            let campaigns: HashMap<u32, JournaledCampaign> = campaigns.into_iter().collect();
            let max_id = campaigns.keys().copied().max().unwrap_or(0);
            JournalState { campaigns, max_seen_id: max_id + extra }
        })
    }

    /// A journal-shaped line: a known (or unknown) record kind followed by
    /// fields drawn from digits, hex, and noise.
    fn arb_line() -> impl Strategy<Value = String> {
        let field = prop_oneof![
            (0u32..6).prop_map(|n| n.to_string()),
            vec(any::<u8>(), 0..12).prop_map(|b| hex_encode(&b)),
            vec(0x20u8..0x7f, 0..8).prop_map(|b| String::from_utf8(b).expect("ASCII")),
        ];
        (
            prop_oneof![Just("n"), Just("o"), Just("s"), Just("c"), Just("x"), Just("?")],
            vec(field, 0..4),
        )
            .prop_map(|(kind, fields)| format!("{kind} {}", fields.join(" ")))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_text_never_panics_the_parser(
            bytes in vec(any::<u8>(), 0..96),
            lines in vec(arb_line(), 0..8),
            torn in any::<bool>(),
        ) {
            let _ = parse_journal(&String::from_utf8_lossy(&bytes));
            let mut text = format!("{JOURNAL_HEADER}\n{}", lines.join("\n"));
            if !torn {
                text.push('\n');
            }
            let state = parse_journal(&text);
            // Whatever parsed is live state that compaction can render.
            let _ = render_journal(&state);
        }

        #[test]
        fn canonical_journals_round_trip_byte_identically(state in arb_state()) {
            let text = render_journal(&state);
            let back = parse_journal(&text);
            prop_assert_eq!(back.max_seen_id, state.max_seen_id);
            prop_assert_eq!(back.campaigns.len(), state.campaigns.len());
            for (id, campaign) in &state.campaigns {
                let parsed = &back.campaigns[id];
                prop_assert_eq!(&parsed.req, &campaign.req);
                prop_assert_eq!(&parsed.batches, &campaign.batches);
                prop_assert_eq!(parsed.checkpointed, campaign.checkpointed);
                prop_assert_eq!(parsed.last_unique, campaign.last_unique);
            }
            prop_assert_eq!(render_journal(&back), text);
        }
    }
}
