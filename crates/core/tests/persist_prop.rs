//! Property-based tests of the cache snapshot codec: the binary format
//! must be lossless, byte-stable across re-serialization, and *clean*
//! under truncation and corruption — a torn or damaged snapshot may only
//! ever produce a [`CacheError`](glade_core::CacheError), never a panic or
//! a silently short load. That holds for every loader: the byte decoder,
//! the file loader, a session's import and its file load; a session whose
//! load fails keeps its cache exactly as it was. The header-only reader
//! ([`BinaryCacheFile`], what `glade cache inspect` prints) must agree
//! with a full load.

use glade_core::{
    snapshot_from_binary, snapshot_to_binary, BinaryCacheFile, CacheError, CacheSnapshot, FnOracle,
    GladeBuilder, MemoEntry, Session,
};
use glade_grammar::CharClass;
use proptest::prelude::*;
use proptest::sample::Index;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Distinct queries with arbitrary bytes (including empty and non-UTF-8),
/// in the sorted order every serializer normalizes to.
fn arb_entries() -> impl Strategy<Value = Vec<(Vec<u8>, bool)>> {
    proptest::collection::vec((proptest::collection::vec(any::<u8>(), 0..24), any::<bool>()), 0..40)
        .prop_map(|raw| {
            // Last verdict wins on duplicate queries, matching cache
            // semantics; BTreeMap yields the canonical sorted order.
            raw.into_iter().collect::<std::collections::BTreeMap<_, _>>().into_iter().collect()
        })
}

/// Memo entries with distinct keys; every byte class has at least one
/// member (the memo layer never records an empty class).
fn arb_memo() -> impl Strategy<Value = Vec<MemoEntry>> {
    let class = proptest::collection::vec(any::<u8>(), 1..6).prop_map(|members| {
        let set: std::collections::BTreeSet<u8> = members.into_iter().collect();
        let bytes: Vec<u8> = set.into_iter().collect();
        CharClass::from_bytes(&bytes)
    });
    let key = proptest::collection::vec(any::<u8>(), 16usize..=16)
        .prop_map(|k| <[u8; 16]>::try_from(k).expect("sixteen bytes"));
    proptest::collection::vec((key, proptest::collection::vec(class, 1..4)), 0..5).prop_map(|raw| {
        raw.into_iter()
            .map(|(key, classes)| (key, MemoEntry { key, classes }))
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_values()
            .collect()
    })
}

/// Optional nonempty fingerprint (an empty fingerprint is not a thing —
/// the format encodes "no fingerprint" as its absence).
fn arb_fingerprint() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), proptest::collection::vec(any::<u8>(), 1..12))
        .prop_map(|(present, bytes)| present.then(|| String::from_utf8_lossy(&bytes).into_owned()))
}

/// The canonical form the decoder must produce: entries sorted by query
/// bytes, memo sorted by key (generator output is already sorted).
fn expected(entries: &[(Vec<u8>, bool)], memo: &[MemoEntry], fp: &Option<String>) -> CacheSnapshot {
    CacheSnapshot { oracle_fingerprint: fp.clone(), entries: entries.to_vec(), memo: memo.to_vec() }
}

fn scratch_file(bytes: &[u8]) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "glade-persist-prop-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write scratch snapshot");
    path
}

/// Runs `load` on a session (tagged with `fp`, when there is one) that
/// already holds verdicts and a memo entry of its own, and returns whether
/// the load failed. A failed load must leave the session's cache as it
/// was: the same number of queries and a byte-identical export.
fn failed_atomically(
    fp: &Option<String>,
    load: impl FnOnce(&mut Session<'_>) -> Result<usize, CacheError>,
) -> Result<bool, TestCaseError> {
    let oracle = FnOracle::new(|_: &[u8]| false);
    let builder = match fp {
        Some(fp) => GladeBuilder::new().oracle_fingerprint(fp.clone()),
        None => GladeBuilder::new(),
    };
    let mut session = builder.session(&oracle);
    // Longer than any generated query, so a partial load would show.
    let prior =
        [(&b"a prior query no generator makes"[..], true), (b"another prior query!!", false)];
    let prior_memo = [MemoEntry { key: [0xa5; 16], classes: vec![CharClass::from_bytes(b"xy")] }];
    session.import_cache(&snapshot_to_binary(&prior, &prior_memo, fp.as_deref())).expect("prior");
    let (queries, export) = (session.unique_queries(), session.export_cache_binary());
    let failed = load(&mut session).is_err();
    if failed {
        prop_assert_eq!(session.unique_queries(), queries, "a failed load changed the cache");
        prop_assert!(session.export_cache_binary() == export, "a failed load changed the export");
    }
    Ok(failed)
}

/// Byte offsets of the header's integer fields: the `u32` fingerprint
/// length after the 18-byte magic, then six `u64`s (entry count, memo
/// count, index, records and memo offsets, total length). Every snapshot
/// holds the whole header.
const HEADER_FIELDS: [usize; 7] = [18, 22, 30, 38, 46, 54, 62];

/// One corruption of a snapshot's bytes.
#[derive(Debug, Clone)]
enum Mutation {
    /// Overwrite one byte.
    Overwrite(Index, u8),
    /// Flip one bit.
    FlipBit(Index, u8),
    /// Write a value over one header field (its low 4 bytes for the `u32`).
    HeaderField(usize, u64),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    // Header values: anything, small values near real offsets and
    // counts, and the extremes that overflow offset arithmetic.
    let value = prop_oneof![any::<u64>(), 0u64..512, Just(u64::MAX), Just(u64::MAX / 5)];
    prop_oneof![
        (any::<Index>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Overwrite(at, byte)),
        (any::<Index>(), 0u8..8).prop_map(|(at, bit)| Mutation::FlipBit(at, bit)),
        (0..HEADER_FIELDS.len(), value).prop_map(|(field, v)| Mutation::HeaderField(field, v)),
    ]
}

impl Mutation {
    fn apply(&self, bytes: &mut [u8]) {
        match *self {
            Mutation::Overwrite(at, byte) => bytes[at.index(bytes.len())] = byte,
            Mutation::FlipBit(at, bit) => bytes[at.index(bytes.len())] ^= 1 << bit,
            Mutation::HeaderField(field, value) => {
                let at = HEADER_FIELDS[field];
                let width = if field == 0 { 4 } else { 8 };
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary roundtrip is lossless, and re-serializing the parse is
    /// byte-identical (the format is canonical: one cache, one encoding).
    #[test]
    fn binary_roundtrip_is_lossless_and_byte_stable(
        entries in arb_entries(), memo in arb_memo(), fp in arb_fingerprint()
    ) {
        let bytes = snapshot_to_binary(&entries, &memo, fp.as_deref());
        prop_assert!(bytes.starts_with(b"glade-cachebin v1\n"));
        let parsed = snapshot_from_binary(&bytes).expect("roundtrip parses");
        prop_assert_eq!(&parsed, &expected(&entries, &memo, &fp));
        let again =
            snapshot_to_binary(&parsed.entries, &parsed.memo, parsed.oracle_fingerprint.as_deref());
        prop_assert_eq!(again, bytes);
    }

    /// Truncating a binary snapshot at *any* byte boundary is a clean
    /// [`CacheError`](glade_core::CacheError) — never a panic, and never
    /// a successful short parse (the header's redundant offsets make
    /// every cut detectable).
    #[test]
    fn binary_truncation_at_any_cut_is_a_clean_error(
        entries in arb_entries(), memo in arb_memo(), fp in arb_fingerprint()
    ) {
        let bytes = snapshot_to_binary(&entries, &memo, fp.as_deref());
        for cut in 0..bytes.len() {
            prop_assert!(
                snapshot_from_binary(&bytes[..cut]).is_err(),
                "truncation to {cut}/{} bytes must not parse",
                bytes.len()
            );
        }
    }

    /// The file loaders fail cleanly on a truncated file too, and a
    /// session's file load and import fail on every cut and on a whole
    /// snapshot of another oracle (its last check); none of these failed
    /// loads changes the session.
    #[test]
    fn failed_session_loads_leave_the_cache_untouched(
        entries in arb_entries(),
        memo in arb_memo(),
        fp in arb_fingerprint(),
        cuts in proptest::collection::vec(any::<Index>(), 1..12),
    ) {
        let bytes = snapshot_to_binary(&entries, &memo, fp.as_deref());
        for cut in cuts {
            let cut = cut.index(bytes.len());
            let path = scratch_file(&bytes[..cut]);
            let file_load = CacheSnapshot::load(&path);
            let session_load = failed_atomically(&fp, |s| s.load_cache(&path));
            let _ = std::fs::remove_file(&path);
            prop_assert!(file_load.is_err(), "a file cut to {}/{} bytes loaded", cut, bytes.len());
            prop_assert!(session_load?, "a session loaded a file cut to {} bytes", cut);
            prop_assert!(
                failed_atomically(&fp, |s| s.import_cache(&bytes[..cut]))?,
                "a session imported a snapshot cut to {} bytes", cut
            );
        }
        if let Some(fp) = &fp {
            let other = Some(format!("not {fp}"));
            let path = scratch_file(&bytes);
            let session_load = failed_atomically(&other, |s| s.load_cache(&path));
            let _ = std::fs::remove_file(&path);
            prop_assert!(session_load?, "a session loaded another oracle's file");
            prop_assert!(
                failed_atomically(&other, |s| s.import_cache(&bytes))?,
                "a session imported another oracle's snapshot"
            );
        }
    }

    /// The header-only reader `glade cache inspect` prints from reports
    /// what a full load of the same file finds: entry count, memo count,
    /// fingerprint and file length.
    #[test]
    fn header_reader_agrees_with_full_load(
        entries in arb_entries(), memo in arb_memo(), fp in arb_fingerprint()
    ) {
        let bytes = snapshot_to_binary(&entries, &memo, fp.as_deref());
        let path = scratch_file(&bytes);
        let file = BinaryCacheFile::open(&path).expect("open snapshot");
        let full = CacheSnapshot::load(&path).expect("full load");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(file.len(), full.entries.len());
        prop_assert_eq!(file.is_empty(), full.entries.is_empty());
        prop_assert_eq!(file.memo_len(), full.memo.len());
        prop_assert_eq!(file.fingerprint(), full.oracle_fingerprint.as_deref());
        prop_assert_eq!(file.file_len(), bytes.len() as u64);
    }

    /// Corrupting a valid snapshot — overwritten bytes, flipped bits,
    /// arbitrary values in header fields — never panics any load path:
    /// the byte decoder, the header-only reader, the file loader, and a
    /// session's import and file load each return `Ok` or a `CacheError`,
    /// and a session whose load failed is unchanged.
    #[test]
    fn corrupted_binary_never_panics_a_load_path(
        entries in arb_entries(),
        memo in arb_memo(),
        fp in arb_fingerprint(),
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let mut bytes = snapshot_to_binary(&entries, &memo, fp.as_deref());
        for mutation in &mutations {
            mutation.apply(&mut bytes);
        }
        let _ = snapshot_from_binary(&bytes);
        let path = scratch_file(&bytes);
        let _ = BinaryCacheFile::open(&path);
        let _ = CacheSnapshot::load(&path);
        let session_load = failed_atomically(&fp, |s| s.load_cache(&path));
        let _ = std::fs::remove_file(&path);
        session_load?;
        failed_atomically(&fp, |s| s.import_cache(&bytes))?;
    }
}
