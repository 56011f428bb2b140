//! Heap-allocation regression test for the query engine.
//!
//! Between planning a membership check and caching its verdict the engine
//! should allocate nothing per check: a distinct query costs one
//! exactly-sized key allocation, which moves into the cache, plus the
//! amortized growth of the engine's vectors and maps. This test counts the
//! heap blocks a cold `add_seeds` allocates on one Section 8.2 language
//! (the oracle's own allocations included) and bounds them per distinct
//! query, so a per-check allocation sneaking back into the planners, the
//! runner or the cache shows up as a failure here. It runs both dispatch
//! paths: the natively batching `GrammarOracle`, and a per-query oracle
//! over the same recognizer at 1 and 2 workers, where a miss posed as a
//! one-element batch (a vector per query) would exceed the bound.
//!
//! The counting allocator is global to this test binary, which therefore
//! holds this single test.

mod counting_alloc;

use counting_alloc::blocks_during;
use glade_core::{FnOracle, GladeBuilder, Oracle};
use glade_eval::sample_seeds;
use glade_grammar::Recognizer;
use glade_targets::languages::url;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bound on heap blocks per distinct query for a cold `add_seeds`.
/// Measured at 1.33 on the url language below through `GrammarOracle`,
/// and at 1.26 and 1.28 through the per-query oracle at 1 and 2 workers
/// (on a 2-vCPU Linux host); the bound leaves headroom
/// for incidental allocations elsewhere in synthesis, and one more
/// allocation per check would exceed it.
const MAX_BLOCKS_PER_QUERY: f64 = 2.0;

/// Heap blocks per distinct query of a cold `add_seeds` of `seeds`.
fn blocks_per_query(oracle: &dyn Oracle, workers: usize, seeds: &[Vec<u8>]) -> f64 {
    let mut session = GladeBuilder::new().worker_threads(workers).session(oracle);
    let (result, blocks) =
        blocks_during(|| session.add_seeds(seeds).expect("sampled seeds are members"));
    let queries = result.stats.unique_queries;
    assert!(queries > 1000, "too few queries to measure: {queries}");
    blocks as f64 / queries as f64
}

#[test]
fn cold_add_seeds_allocates_a_bounded_number_of_blocks_per_query() {
    let language = url();
    let mut rng = StdRng::seed_from_u64(17);
    let seeds = sample_seeds(&language, 4, &mut rng);
    let recognizer = Recognizer::new(language.grammar());
    let per_query = FnOracle::new(|i: &[u8]| recognizer.accepts(i));
    let native = language.oracle();
    let runs: [(&str, &dyn Oracle, usize); 3] =
        [("GrammarOracle", &native, 1), ("per-query", &per_query, 1), ("per-query", &per_query, 2)];
    for (name, oracle, workers) in runs {
        let per_query = blocks_per_query(oracle, workers, &seeds);
        eprintln!("{name} oracle, {workers} worker(s): {per_query:.2} heap blocks per query");
        assert!(
            per_query <= MAX_BLOCKS_PER_QUERY,
            "{name} oracle, {workers} worker(s): {per_query:.2} heap blocks per distinct query \
             exceeds {MAX_BLOCKS_PER_QUERY}"
        );
    }
}
