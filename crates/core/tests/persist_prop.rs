//! Property-based tests of the cache snapshot codecs: the binary format
//! must be lossless, byte-stable across re-serialization, and *clean*
//! under truncation — a torn binary snapshot may only ever produce a
//! [`CacheError`](glade_core::CacheError), never a panic or a silently
//! short load. The header-only reader ([`BinaryCacheFile`], what
//! `glade cache inspect` prints) must agree with a full load. The
//! read-only legacy text importer decodes exactly what the binary codec
//! round-trips, and never panics on arbitrary input.

mod legacy_text;

use glade_core::{
    is_binary_snapshot, snapshot_from_binary, snapshot_from_reader, snapshot_to_binary,
    BinaryCacheFile, CacheSnapshot, MemoEntry,
};
use glade_grammar::CharClass;
use legacy_text::legacy_text;
use proptest::prelude::*;
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
/// both formats encode "no fingerprint" as its absence).
fn arb_fingerprint() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), proptest::collection::vec(any::<u8>(), 1..12))
        .prop_map(|(present, bytes)| present.then(|| String::from_utf8_lossy(&bytes).into_owned()))
}

/// The canonical form both decoders must produce: entries sorted by query
/// bytes, memo sorted by key (generator output is already sorted).
fn expected(entries: &[(Vec<u8>, bool)], memo: &[MemoEntry], fp: &Option<String>) -> CacheSnapshot {
    CacheSnapshot {
        oracle_fingerprint: fp.clone(),
        entries: entries.to_vec().into(),
        memo: memo.to_vec(),
    }
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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Text-snapshot-shaped input: a known (or foreign) header, then lines
/// whose directives the parser knows, with fields drawn from verdicts,
/// hex, comma-separated class lists, and noise.
fn arb_text_snapshot() -> impl Strategy<Value = String> {
    let header = prop_oneof![
        Just("glade-cache v1"),
        Just("glade-cache v2"),
        Just("glade-cache v3"),
        Just("glade-cache v9"),
    ];
    let field = prop_oneof![
        Just("0".to_string()),
        Just("1".to_string()),
        proptest::collection::vec(any::<u8>(), 0..17).prop_map(|b| hex(&b)),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..3), 1..4)
            .prop_map(|classes| classes.iter().map(|c| hex(c)).collect::<Vec<_>>().join(",")),
        proptest::collection::vec(0x20u8..0x7f, 0..6)
            .prop_map(|b| String::from_utf8(b).expect("ASCII")),
    ];
    let directive =
        prop_oneof![Just("q"), Just("m"), Just("oracle"), Just("#"), Just(""), Just("x")];
    let line = (directive, proptest::collection::vec(field, 0..3))
        .prop_map(|(directive, fields)| format!("{directive} {}", fields.join(" ")));
    (header, proptest::collection::vec(line, 0..6), prop_oneof![Just("\n"), Just("\r\n")]).prop_map(
        |(header, lines, eol)| {
            let mut text = format!("{header}{eol}");
            for line in lines {
                text.push_str(&line);
                text.push_str(eol);
            }
            text
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes and snapshot-shaped text never panic the text
    /// importer — the one decoder for whatever text is on disk.
    #[test]
    fn arbitrary_text_never_panics_the_text_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..96), text in arb_text_snapshot()
    ) {
        let _ = snapshot_from_reader(&bytes[..]);
        let _ = snapshot_from_reader(String::from_utf8_lossy(&bytes).as_bytes());
        let _ = snapshot_from_reader(text.as_bytes());
    }

    /// A legacy text snapshot imports losslessly, and its binary rewrite
    /// is byte-identical to encoding the same cache directly.
    #[test]
    fn text_roundtrip_is_lossless_and_byte_stable(
        entries in arb_entries(), memo in arb_memo(), fp in arb_fingerprint()
    ) {
        let want = expected(&entries, &memo, &fp);
        let parsed = snapshot_from_reader(legacy_text(&want).as_bytes()).expect("import parses");
        prop_assert_eq!(&parsed, &want);
        let rewrite = snapshot_to_binary(
            &parsed.entries.to_vec(), &parsed.memo, parsed.oracle_fingerprint.as_deref(),
        );
        prop_assert_eq!(rewrite, snapshot_to_binary(&entries, &memo, fp.as_deref()));
    }

    /// Binary roundtrip is lossless, and re-serializing the parse is
    /// byte-identical (the format is canonical: one cache, one encoding).
    #[test]
    fn binary_roundtrip_is_lossless_and_byte_stable(
        entries in arb_entries(), memo in arb_memo(), fp in arb_fingerprint()
    ) {
        let bytes = snapshot_to_binary(&entries, &memo, fp.as_deref());
        prop_assert!(is_binary_snapshot(&bytes));
        let parsed = snapshot_from_binary(&bytes).expect("roundtrip parses");
        prop_assert_eq!(&parsed, &expected(&entries, &memo, &fp));
        let again =
            snapshot_to_binary(&parsed.entries.to_vec(), &parsed.memo, parsed.oracle_fingerprint.as_deref());
        prop_assert_eq!(again, bytes);
    }

    /// The text importer decodes exactly what the binary codec
    /// round-trips — converting a legacy cache file can never change a
    /// verdict, a memo class, or the fingerprint.
    #[test]
    fn text_and_binary_formats_are_equivalent(
        entries in arb_entries(), memo in arb_memo(), fp in arb_fingerprint()
    ) {
        let want = expected(&entries, &memo, &fp);
        let text = legacy_text(&want);
        prop_assert!(!is_binary_snapshot(text.as_bytes()));
        let from_text = snapshot_from_reader(text.as_bytes()).expect("text parses");
        let bin = snapshot_to_binary(&entries, &memo, fp.as_deref());
        let from_binary = snapshot_from_binary(&bin).expect("binary parses");
        prop_assert_eq!(&from_text, &from_binary);
        prop_assert_eq!(&from_binary, &want);
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
}
