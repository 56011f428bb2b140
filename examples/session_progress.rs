//! The session API end to end: live progress events, cooperative
//! cancellation, and query-cache persistence across runs.
//!
//! Three acts, all on the paper's running example (Figures 1–3):
//!
//! 1. **Observed run** — a `SynthesisObserver` prints phase boundaries,
//!    per-seed decisions, accepted merges, and a query-batch tally while
//!    the grammar is synthesized.
//! 2. **Cancelled run** — a `CancelToken` is tripped after a fixed number
//!    of oracle calls; the degraded grammar still contains the seed.
//! 3. **Warm restart** — the first run's query cache is saved to disk,
//!    loaded into a brand-new session, and the identical run is replayed:
//!    it reports **zero** new unique queries (no oracle calls at all).
//!
//! Run with: `cargo run --example session_progress`

use glade_repro::core::testing::xml_like;
use glade_repro::core::{CancelToken, FnOracle, GladeBuilder, SynthEvent, SynthesisObserver};
use glade_repro::grammar::Earley;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Prints structural events as they happen and tallies query batches.
struct ConsoleObserver {
    batches: AtomicUsize,
    cached: AtomicUsize,
    posed: AtomicUsize,
}

impl ConsoleObserver {
    fn new() -> Self {
        ConsoleObserver {
            batches: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            posed: AtomicUsize::new(0),
        }
    }
}

impl SynthesisObserver for ConsoleObserver {
    fn on_event(&self, event: &SynthEvent) {
        match event {
            SynthEvent::PhaseStarted { phase } => println!("  [{phase}] started"),
            SynthEvent::PhaseFinished { phase, elapsed, unique_queries } => {
                println!("  [{phase}] finished in {elapsed:?} ({unique_queries} unique queries)")
            }
            SynthEvent::SeedGeneralized { seed_index, new_stars } => {
                println!("  seed #{seed_index}: generalized, {new_stars} repetition(s) found")
            }
            SynthEvent::SeedSkipped { seed_index } => {
                println!("  seed #{seed_index}: skipped (already covered)")
            }
            SynthEvent::MergeAccepted { left_star, right_star } => {
                println!("  merge accepted: star {left_star} ≡ star {right_star}")
            }
            SynthEvent::QueryBatch { cached, posed, .. } => {
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.cached.fetch_add(*cached, Ordering::Relaxed);
                self.posed.fetch_add(*posed, Ordering::Relaxed);
            }
            SynthEvent::BudgetExhausted => println!("  !! budget exhausted"),
            SynthEvent::Cancelled => println!("  !! cancelled"),
            _ => {}
        }
    }
}

fn main() {
    let seed = vec![b"<a>hi</a>".to_vec()];

    // ---- Act 1: an observed run. ----
    println!("== Act 1: observed synthesis ==");
    let observer = std::sync::Arc::new(ConsoleObserver::new());
    let oracle = FnOracle::new(xml_like);
    let mut session = GladeBuilder::new().observer(observer.clone()).session(&oracle);
    let result = session.add_seeds(&seed).expect("seed is valid");
    println!(
        "  -> {} batches ({} checks answered from cache, {} posed to the oracle)",
        observer.batches.load(Ordering::Relaxed),
        observer.cached.load(Ordering::Relaxed),
        observer.posed.load(Ordering::Relaxed),
    );
    println!("  -> grammar has {} nonterminals\n", result.grammar.num_nonterminals());

    // ---- Act 2: a cancelled run. ----
    println!("== Act 2: cancellation after 150 oracle calls ==");
    let token = CancelToken::new();
    let trip = token.clone();
    let calls = AtomicUsize::new(0);
    let slow_oracle = FnOracle::new(move |i: &[u8]| {
        if calls.fetch_add(1, Ordering::Relaxed) + 1 == 150 {
            trip.cancel();
        }
        xml_like(i)
    });
    let mut cancelled_session =
        GladeBuilder::new().worker_threads(1).cancel_token(token).session(&slow_oracle);
    let degraded = cancelled_session.add_seeds(&seed).expect("seed is valid");
    assert!(degraded.stats.cancelled);
    assert!(Earley::new(&degraded.grammar).accepts(b"<a>hi</a>"));
    println!(
        "  -> run stopped after {} unique queries (full run: {}), seed still accepted\n",
        degraded.stats.unique_queries, result.stats.unique_queries,
    );

    // ---- Act 3: cache save / reload across two runs. ----
    println!("== Act 3: persistent query cache ==");
    let cache_path = std::env::temp_dir().join("glade-session-progress.glade-cache");
    session.save_cache(&cache_path).expect("cache saved");
    println!("  saved {} cached verdicts to {}", session.unique_queries(), cache_path.display());

    let oracle2 = FnOracle::new(xml_like);
    let mut warm = GladeBuilder::new().session(&oracle2);
    let loaded = warm.load_cache(&cache_path).expect("cache loads");
    let rerun = warm.add_seeds(&seed).expect("seed is valid");
    let _ = std::fs::remove_file(&cache_path);
    println!(
        "  reloaded {} verdicts; re-run posed {} new unique queries",
        loaded, rerun.stats.new_unique_queries,
    );
    assert_eq!(rerun.stats.new_unique_queries, 0, "warm run must be free");
    println!("  -> second run re-paid zero oracle calls");
}
