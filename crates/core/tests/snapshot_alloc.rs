//! Heap-allocation pin for snapshot decoding.
//!
//! `SnapshotEntries` promises O(1) allocations per decode: the binary
//! loader adopts the record section as one arena and keeps a span table,
//! rather than allocating each query. This test counts the heap blocks a
//! full load allocates for a memo-free snapshot at 10 and at 10⁵ entries,
//! from bytes and from a file; the counts must not grow with the entry
//! count.
//!
//! The counting allocator is global to this test binary, which therefore
//! holds this single test.

mod counting_alloc;

use counting_alloc::blocks_during;
use glade_core::{snapshot_from_binary, snapshot_to_binary, CacheSnapshot};

/// A memo-free, fingerprinted snapshot of `n` distinct entries.
fn snapshot(n: usize) -> Vec<u8> {
    let entries: Vec<(Vec<u8>, bool)> =
        (0..n).map(|i| (format!("<a id=\"{i:08}\">x</a>").into_bytes(), i % 3 != 0)).collect();
    snapshot_to_binary(&entries, &[], Some("alloc:pin"))
}

#[test]
fn snapshot_decode_allocations_do_not_grow_with_entry_count() {
    let path = std::env::temp_dir().join(format!("glade-snapshot-alloc-{}", std::process::id()));
    let counts: Vec<[usize; 2]> = [10, 100_000]
        .into_iter()
        .map(|n| {
            let bytes = snapshot(n);
            std::fs::write(&path, &bytes).expect("write snapshot");
            let (len, from_bytes) =
                blocks_during(|| snapshot_from_binary(&bytes).expect("decode").entries.len());
            assert_eq!(len, n);
            let (len, from_file) =
                blocks_during(|| CacheSnapshot::load(&path).expect("load").entries.len());
            assert_eq!(len, n);
            eprintln!("{n} entries: {from_bytes} blocks from bytes, {from_file} from a file");
            [from_bytes, from_file]
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    assert_eq!(counts[0], counts[1], "decode allocations grew with the entry count");
}
