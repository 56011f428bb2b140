//! Heap-allocation pin for a warm start.
//!
//! Loading a snapshot into a session should allocate each query once, as
//! the key the session cache keeps, plus a fixed number of blocks for the
//! load itself (entry list, fingerprint, one map reservation, a file
//! buffer). This test counts the heap blocks `Session::import_cache` and
//! `Session::load_cache` allocate for a memo-free snapshot of N distinct,
//! nonempty queries, at N = 10 and N = 10⁵; the blocks beyond N must be the
//! same at both sizes. A decoder that copied queries out of a shared
//! buffer, or a cache map that regrew during the load, would fail it.
//!
//! The counting allocator is global to this test binary, which therefore
//! holds this single test.

mod counting_alloc;

use counting_alloc::blocks_during;
use glade_core::{snapshot_to_binary, FnOracle, GladeBuilder};

/// A memo-free, fingerprinted snapshot of `n` distinct entries.
fn snapshot(n: usize) -> Vec<u8> {
    let entries: Vec<(Vec<u8>, bool)> =
        (0..n).map(|i| (format!("<a id=\"{i:08}\">x</a>").into_bytes(), i % 3 != 0)).collect();
    snapshot_to_binary(&entries, &[], Some("alloc:pin"))
}

#[test]
fn warm_start_allocates_one_block_per_query() {
    let path = std::env::temp_dir().join(format!("glade-snapshot-alloc-{}", std::process::id()));
    let oracle = FnOracle::new(|_: &[u8]| false);
    let builder = GladeBuilder::new().oracle_fingerprint("alloc:pin");
    let overheads: Vec<[usize; 2]> = [10, 100_000]
        .into_iter()
        .map(|n| {
            let bytes = snapshot(n);
            std::fs::write(&path, &bytes).expect("write snapshot");
            let beyond = |blocks: usize| {
                blocks.checked_sub(n).expect("fewer heap blocks than loaded queries")
            };

            let mut session = builder.clone().session(&oracle);
            let (loaded, from_bytes) =
                blocks_during(|| session.import_cache(&bytes).expect("import"));
            assert_eq!((loaded, session.unique_queries()), (n, n));

            let mut session = builder.clone().session(&oracle);
            let (loaded, from_file) = blocks_during(|| session.load_cache(&path).expect("load"));
            assert_eq!((loaded, session.unique_queries()), (n, n));

            eprintln!("{n} queries: {from_bytes} blocks from bytes, {from_file} from a file");
            [beyond(from_bytes), beyond(from_file)]
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    assert_eq!(overheads[0], overheads[1], "blocks beyond one per query grew with the query count");
}
