//! Integration tests for the parallel membership-query engine and the
//! session API: thread-safety guarantees, worker-count independence of the
//! synthesized grammar (including under heavily skewed oracle latencies,
//! which exercise the work-stealing dispatch), golden query-count pins for
//! the paper's running example, incremental `add_seeds` equivalence,
//! cancellation, cache snapshot round-trips, and the pooled process
//! oracle's wire protocol and crash recovery (against an independently
//! implemented worker compiled on the fly with `rustc`).
//!
//! Every run here goes through the staged query-reduction planner, the
//! only production planner. Its exactness against posing every check —
//! byte-identical grammars, and the unreduced 1324/1442 cost model — is
//! pinned by the test-only one-shot reference in glade-core's unit tests
//! (`reference.rs`); `per_language_query_pins` pins the staged counts per
//! Section 8.2 language.

use glade_core::testing::xml_like;
#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_core::PooledProcessOracle;
use glade_core::{
    snapshot_from_binary, CancelToken, EventLog, FnOracle, GladeBuilder, Oracle, ProcessOracle,
    SynthEvent, SynthesisObserver, SynthesisStats,
};
use glade_eval::sample_seeds;
use glade_grammar::{grammar_to_text, Recognizer};
use glade_targets::languages::{section82_languages, toy_xml};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
#[cfg(any(target_os = "linux", target_os = "macos"))]
use std::{sync::OnceLock, time::Duration};

/// Golden distinct-query count for the single seed `<a>hi</a>`, with
/// byte-class memoization, staged context waves, and merge-check pruning.
/// The grammar is byte-identical to the unreduced one-shot reference's
/// (1324 distinct / 1442 total, pinned in glade-core's `reference.rs`). If
/// a planner change moves one of these, re-assert that grammar equality
/// before re-pinning.
const GOLDEN_UNIQUE: usize = 965;
/// Golden total-query count (including cache hits) for the same run.
const GOLDEN_TOTAL: usize = 985;

#[test]
fn oracle_types_are_send_sync() {
    // Compile-time assertions: the whole oracle surface must be shareable
    // across the query engine's worker threads. (The internal QueryRunner
    // has the same assertion in its unit tests.)
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FnOracle<fn(&[u8]) -> bool>>();
    assert_send_sync::<ProcessOracle>();
    assert_send_sync::<Box<dyn Oracle>>();
    assert_send_sync::<&dyn Oracle>();

    // And `dyn Oracle` itself must be usable from a spawned thread.
    let oracle: Box<dyn Oracle> = Box::new(FnOracle::new(xml_like));
    std::thread::scope(|s| {
        let o = &oracle;
        s.spawn(move || assert!(o.accepts(b"<a>hi</a>")));
    });
}

/// Runs the full pipeline on the running example at a given worker count,
/// through the session API.
fn synthesize_with_workers(workers: usize) -> (String, SynthesisStats, usize) {
    let calls = AtomicUsize::new(0);
    let oracle = FnOracle::new(|i: &[u8]| {
        calls.fetch_add(1, Ordering::Relaxed);
        xml_like(i)
    });
    let mut session = GladeBuilder::new().worker_threads(workers).session(&oracle);
    let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).expect("valid seed");
    (grammar_to_text(&result.grammar), result.stats, calls.load(Ordering::Relaxed))
}

#[test]
fn parallel_and_sequential_paths_agree_exactly() {
    // The phase-2 merge checks and chargen probes fan out across workers;
    // the synthesized grammar (which encodes the union-find classes as its
    // nonterminal structure), the distinct-query count, and every merge
    // counter must be bit-identical to the sequential path.
    let (seq_grammar, seq_stats, seq_calls) = synthesize_with_workers(1);
    for workers in [2, 4, 8] {
        let (par_grammar, par_stats, par_calls) = synthesize_with_workers(workers);
        assert_eq!(par_grammar, seq_grammar, "grammar differs at {workers} workers");
        assert_eq!(
            par_stats.unique_queries, seq_stats.unique_queries,
            "unique queries differ at {workers} workers"
        );
        assert_eq!(par_stats.total_queries, seq_stats.total_queries);
        assert_eq!(par_stats.merge_pairs_tried, seq_stats.merge_pairs_tried);
        assert_eq!(par_stats.merges_accepted, seq_stats.merges_accepted);
        assert_eq!(par_stats.chars_generalized, seq_stats.chars_generalized);
        assert_eq!(par_stats.star_count, seq_stats.star_count);
        // Dedup means the raw oracle is hit exactly once per distinct query
        // regardless of worker count.
        assert_eq!(par_calls, seq_calls, "oracle call count differs at {workers} workers");
    }
}

#[test]
fn golden_query_counts_on_running_example() {
    // Pins the query-engine cost model for `<a>hi</a>` (Figure 2's seed),
    // now posed through the session API. A change here means the cache,
    // dedup, or batch construction changed: bump the numbers only with an
    // explanation in the commit message.
    let (_, stats, calls) = synthesize_with_workers(1);
    assert_eq!(stats.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(stats.new_unique_queries, GOLDEN_UNIQUE, "fresh session: all queries are new");
    assert_eq!(stats.total_queries, GOLDEN_TOTAL);
    assert_eq!(stats.merge_pairs_tried, 1);
    assert_eq!(stats.merges_accepted, 1);
    assert_eq!(stats.chars_generalized, 50);
    assert_eq!(calls, stats.unique_queries, "each distinct query hits the oracle once");
    assert!(stats.probes_elided > 0, "the reduction layer elided nothing");
}

#[test]
fn default_config_uses_available_parallelism_and_stays_correct() {
    // The default (no worker_threads call) resolves to the machine's
    // available parallelism; whatever that is, the result must match the
    // sequential reference, and both pin the goldens.
    let oracle = FnOracle::new(xml_like);
    let auto = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).expect("valid");
    let seq = GladeBuilder::new()
        .worker_threads(1)
        .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
        .expect("valid");
    assert_eq!(grammar_to_text(&auto.grammar), grammar_to_text(&seq.grammar));
    assert_eq!(auto.stats.unique_queries, seq.stats.unique_queries);
    assert_eq!(auto.stats.unique_queries, GOLDEN_UNIQUE);
}

#[test]
fn concurrent_oracle_sees_consistent_snapshot() {
    // One oracle called by 8 engine workers at once: the session cache
    // dedups before dispatch, so the oracle is called exactly once per
    // distinct query, and the verdicts stay deterministic.
    let calls = AtomicUsize::new(0);
    let oracle = FnOracle::new(|i: &[u8]| {
        calls.fetch_add(1, Ordering::Relaxed);
        xml_like(i)
    });
    let result = GladeBuilder::new()
        .worker_threads(8)
        .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
        .expect("valid");
    assert_eq!(result.stats.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(calls.load(Ordering::Relaxed), result.stats.unique_queries);
}

#[test]
fn incremental_add_seeds_matches_fresh_multiseed_run() {
    // Worker-count determinism extended to the incremental path: feeding
    // seeds through two add_seeds calls must produce byte-identical
    // grammar text and the same distinct-query count as one fresh run on
    // the combined seed list — at every worker count.
    let seed1 = b"<a>hi</a>".to_vec();
    let seed2 = b"<a><a>x</a></a>".to_vec(); // not matched by seed1's regex
    for workers in [1, 4] {
        let oracle = FnOracle::new(xml_like);
        let fresh = GladeBuilder::new()
            .worker_threads(workers)
            .synthesize(&[seed1.clone(), seed2.clone()], &oracle)
            .expect("valid seeds");

        let mut session = GladeBuilder::new().worker_threads(workers).session(&oracle);
        let first = session.add_seeds(std::slice::from_ref(&seed1)).expect("valid seed");
        assert_eq!(first.stats.unique_queries, GOLDEN_UNIQUE, "workers={workers}");
        let second = session.add_seeds(std::slice::from_ref(&seed2)).expect("valid seed");

        assert_eq!(
            grammar_to_text(&second.grammar),
            grammar_to_text(&fresh.grammar),
            "incremental grammar drifted at {workers} workers"
        );
        assert_eq!(
            second.stats.unique_queries, fresh.stats.unique_queries,
            "incremental distinct-query count drifted at {workers} workers"
        );
        assert_eq!(second.stats.seeds_used, fresh.stats.seeds_used);
        assert_eq!(second.stats.star_count, fresh.stats.star_count);
        assert_eq!(second.stats.merges_accepted, fresh.stats.merges_accepted);
    }
}

#[test]
fn skewed_latency_does_not_change_grammar_or_query_counts() {
    // Work-stealing dispatch exists for heterogeneous query latencies: one
    // pathological input must not idle the rest of the pool, and — more
    // importantly for correctness — scheduling must never leak into the
    // result. Per-query delay here varies 100× (2 µs to 200 µs, keyed off
    // a hash of the input so it is stable across runs and worker counts);
    // grammar bytes and the distinct-query count must be invariant across
    // 1/2/4/8 workers.
    fn skewed_delay_us(input: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in input {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        2 + h % 199 // 2..=200 µs: a 100× spread
    }
    let oracle = FnOracle::new(|i: &[u8]| {
        std::thread::sleep(std::time::Duration::from_micros(skewed_delay_us(i)));
        xml_like(i)
    });
    let mut reference: Option<(String, usize, usize)> = None;
    for workers in [1usize, 2, 4, 8] {
        let result = GladeBuilder::new()
            .worker_threads(workers)
            .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
            .expect("valid seed");
        let row = (
            grammar_to_text(&result.grammar),
            result.stats.unique_queries,
            result.stats.total_queries,
        );
        match &reference {
            None => {
                assert_eq!(row.1, GOLDEN_UNIQUE);
                assert_eq!(row.2, GOLDEN_TOTAL);
                reference = Some(row);
            }
            Some(expected) => {
                assert_eq!(&row, expected, "skewed-latency drift at {workers} workers");
            }
        }
    }
}

/// Source of a protocol worker implemented *independently* of
/// `glade_core::serve_oracle_worker` — compiling and driving it is a wire-
/// format compatibility test, not a round-trip through our own helper.
/// Language: nonempty strings of `x`.
///
/// Flags exercising the protocol's failure paths:
/// * `--v1-only` — never acknowledge the handshake probe (the probe is
///   answered like any other query, as a worker of the retired
///   single-query protocol would): the pool must refuse such a worker;
/// * `--crash-after N` — exit abruptly after answering N queries; in v2
///   mode a mid-frame hit writes the *partial* verdict run first, so the
///   oracle must recover from a torn batch response;
/// * `--garbage-after N` — answer every verdict after the Nth as an
///   illegal byte (`0x7f`): the oracle must treat it as a crash, never as
///   a verdict;
/// * `--hang-after N` — answer N queries and then go silent *without*
///   exiting (in v2 mode the partial verdicts of the current frame are
///   flushed first, so the hang lands mid-batch): the pipe stays open, so
///   only a query deadline can unwedge the oracle;
/// * `--stall-ms M` — slow-loris: trickle each verdict byte after an M ms
///   pause. Slow but healthy — a per-verdict deadline must tolerate it
///   even when the whole batch takes longer than the deadline;
/// * the input `CRASH!` makes the worker exit *without* answering (in v2
///   mode: after flushing the partial verdicts of the frame so far) — a
///   poison input that defeats every retry.
#[cfg(any(target_os = "linux", target_os = "macos"))]
const TEST_WORKER_SOURCE: &str = r#"
use std::io::{Read, Write};

const PROBE: &[u8] = b"\x00\x00glade-wire-v2?";
const ACK: u8 = 0x02;

fn flag(args: &[String], name: &str) -> Option<usize> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn hang_forever() -> ! {
    // Stay alive without speaking: the pipe never reaches EOF, so only a
    // deadline on the oracle side can detect this state.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let v1_only = args.iter().any(|a| a == "--v1-only");
    let crash_after = flag(&args, "--crash-after");
    let garbage_after = flag(&args, "--garbage-after");
    let hang_after = flag(&args, "--hang-after");
    let stall_ms = flag(&args, "--stall-ms");
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    let mut buf = Vec::new();
    let mut answered = 0usize;
    let mut v2 = false;
    let mut first_frame = true;
    let verdict_byte = |accept: bool, answered: usize| -> u8 {
        if garbage_after.is_some_and(|g| answered > g) { 0x7f } else { u8::from(accept) }
    };
    loop {
        let mut prefix = [0u8; 4];
        if input.read_exact(&mut prefix).is_err() {
            return; // clean EOF between frames
        }
        let head = u32::from_le_bytes(prefix) as usize;
        if !v2 {
            // v1 frame: `head` is the query's byte length.
            buf.clear();
            buf.resize(head, 0);
            if input.read_exact(&mut buf).is_err() {
                return;
            }
            // Per the spec, the probe is special on the first frame only:
            // the oracle negotiates right after spawn, so a later query
            // equal to the probe is just a query.
            if first_frame && !v1_only && buf == PROBE {
                if output.write_all(&[ACK]).is_err() || output.flush().is_err() {
                    return;
                }
                v2 = true;
                continue;
            }
            first_frame = false;
            if buf == b"CRASH!" {
                std::process::exit(3);
            }
            if hang_after.is_some_and(|h| answered >= h) {
                hang_forever();
            }
            let accept = !buf.is_empty() && buf.iter().all(|&b| b == b'x');
            answered += 1;
            if let Some(ms) = stall_ms {
                std::thread::sleep(std::time::Duration::from_millis(ms as u64));
            }
            if output.write_all(&[verdict_byte(accept, answered)]).is_err() {
                return;
            }
            let _ = output.flush();
            if crash_after == Some(answered) {
                std::process::exit(42);
            }
        } else {
            // v2 frame: `head` is the query count.
            if head == 0 || head > 1 << 16 {
                std::process::exit(64); // malformed frame: fail closed
            }
            let mut verdicts: Vec<u8> = Vec::with_capacity(head);
            let mut die = None;
            for _ in 0..head {
                let mut lp = [0u8; 4];
                if input.read_exact(&mut lp).is_err() {
                    std::process::exit(65); // truncated frame
                }
                let len = u32::from_le_bytes(lp) as usize;
                if len > 1 << 30 {
                    std::process::exit(66); // oversized frame
                }
                buf.clear();
                buf.resize(len, 0);
                if input.read_exact(&mut buf).is_err() {
                    std::process::exit(65);
                }
                if buf == b"CRASH!" {
                    die = Some(3);
                    break;
                }
                if hang_after.is_some_and(|h| answered >= h) {
                    // A mid-frame hang still flushes the verdicts so far:
                    // the oracle sees a torn batch that then goes silent.
                    let _ = output.write_all(&verdicts);
                    let _ = output.flush();
                    hang_forever();
                }
                let accept = !buf.is_empty() && buf.iter().all(|&b| b == b'x');
                answered += 1;
                verdicts.push(verdict_byte(accept, answered));
                if crash_after == Some(answered) {
                    die = Some(42);
                    break;
                }
            }
            // A mid-frame death still flushes the verdicts computed so
            // far: the oracle must survive a torn (partial) response.
            if let Some(ms) = stall_ms {
                // Slow-loris: one flushed byte per pause, so every verdict
                // arrives as its own read on the oracle side.
                for &v in &verdicts {
                    std::thread::sleep(std::time::Duration::from_millis(ms as u64));
                    if output.write_all(&[v]).is_err() || output.flush().is_err() {
                        return;
                    }
                }
            } else if output.write_all(&verdicts).is_err() || output.flush().is_err() {
                return;
            }
            if let Some(code) = die {
                std::process::exit(code);
            }
        }
    }
}
"#;

/// Compiles the test worker once per test process. Returns `None` (and the
/// dependent tests skip) when no `rustc` is available on PATH.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn test_worker_bin() -> Option<&'static str> {
    static BIN: OnceLock<Option<String>> = OnceLock::new();
    BIN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("glade-test-worker-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok()?;
        let src = dir.join("worker.rs");
        let bin = dir.join(if cfg!(windows) { "worker.exe" } else { "worker" });
        std::fs::write(&src, TEST_WORKER_SOURCE).ok()?;
        let status = std::process::Command::new("rustc")
            .arg("--edition=2021")
            .arg("-O")
            .arg(&src)
            .arg("-o")
            .arg(&bin)
            .status()
            .ok()?;
        if !status.success() {
            return None;
        }
        Some(bin.to_str()?.to_owned())
    })
    .as_deref()
}

/// Per-test timeout guard: the pooled protocol tests drive nonblocking
/// pipes against real child processes, and a dispatcher bug would wedge
/// them (and the whole CI job) in a `poll(2)` that never wakes. The
/// watchdog turns "hung" into "failed fast": if the owning test has not
/// disarmed it in time, the process exits with a diagnostic.
/// `GLADE_TEST_TIMEOUT_SECS` tunes the limit (default 120 s).
#[cfg(any(target_os = "linux", target_os = "macos"))]
struct Watchdog {
    done: Arc<std::sync::atomic::AtomicBool>,
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl Watchdog {
    fn arm(name: &'static str) -> Self {
        let secs = std::env::var("GLADE_TEST_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120u64);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = done.clone();
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
            while std::time::Instant::now() < deadline {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("watchdog: `{name}` still running after {secs}s — a protocol pipe is hung");
            std::process::exit(99);
        });
        Watchdog { done }
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Pool sizes for the protocol matrix; `GLADE_TEST_POOL_SIZE` pins one
/// (the CI matrix sweeps it).
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn matrix_pool_sizes() -> Vec<usize> {
    match std::env::var("GLADE_TEST_POOL_SIZE").ok().and_then(|v| v.parse().ok()) {
        Some(n) => vec![n],
        None => vec![1, 2, 8],
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn pooled_oracle_protocol_round_trip() {
    let _guard = Watchdog::arm("pooled_oracle_protocol_round_trip");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let pool = PooledProcessOracle::new(bin).pool_size(3);
    // Single-threaded sanity, including the empty input (a zero-length
    // frame) and binary bytes.
    assert!(pool.accepts(b"x"));
    assert!(pool.accepts(b"xxxx"));
    assert!(!pool.accepts(b""));
    assert!(!pool.accepts(b"xyx"));
    assert!(!pool.accepts(b"\x00\xff"));
    // Concurrent queries share the pool without crosstalk.
    std::thread::scope(|s| {
        for t in 0..6 {
            let pool = &pool;
            s.spawn(move || {
                for i in 0..25usize {
                    let input = vec![b'x'; (t + i) % 7];
                    assert_eq!(pool.accepts(&input), !input.is_empty(), "thread {t} iter {i}");
                }
            });
        }
    });
    assert_eq!(pool.failure_count(), 0);
    assert_eq!(pool.respawn_count(), 0, "healthy workers are never respawned");
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn pooled_oracle_recovers_from_worker_crashes() {
    let _guard = Watchdog::arm("pooled_oracle_recovers_from_worker_crashes");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    // The worker dies after every 3 answers; with a single slot the pool
    // must keep reaping, respawning, and retrying without ever returning a
    // wrong verdict or counting a failure.
    let pool = PooledProcessOracle::new(bin).arg("--crash-after").arg("3").pool_size(1);
    for i in 0..20usize {
        let input = vec![b'x'; i % 5];
        assert_eq!(pool.accepts(&input), !input.is_empty(), "iter {i}");
    }
    assert!(pool.respawn_count() >= 5, "respawns: {}", pool.respawn_count());
    assert_eq!(pool.failure_count(), 0, "every crash was recovered");
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn pooled_oracle_poison_input_degrades_and_recovers() {
    let _guard = Watchdog::arm("pooled_oracle_poison_input_degrades_and_recovers");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let pool = PooledProcessOracle::new(bin).pool_size(1);
    assert!(pool.accepts(b"xx"));
    // The poison input kills the worker *and* its respawned replacement
    // before any answer: the query degrades to false and is counted.
    assert!(!pool.accepts(b"CRASH!"));
    assert_eq!(pool.failure_count(), 1);
    // One respawn: the first worker's crash. The replacement dies holding
    // only the already-retried query, so it takes a strike and its slot is
    // released without a second respawn; two strikes stay below the
    // breaker's threshold.
    assert_eq!(pool.respawn_count(), 1);
    assert_eq!(pool.tripped_worker_count(), 0);
    // The pool is still serviceable afterwards.
    assert!(pool.accepts(b"xxx"));
    assert!(!pool.accepts(b"y"));
    assert_eq!(pool.failure_count(), 1, "healthy queries add no failures");
}

/// Reference predicate of the rustc-compiled test worker's language.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn x_language(input: &[u8]) -> bool {
    !input.is_empty() && input.iter().all(|&b| b == b'x')
}

/// A deterministic mixed workload for the batched-dispatch tests.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn x_workload(count: usize, offset: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let n = offset + i;
            match n % 4 {
                0 => vec![b'x'; 1 + n % 7],
                1 => Vec::new(),
                2 => {
                    let mut v = vec![b'x'; 1 + n % 5];
                    v.push(b'y');
                    v
                }
                _ => vec![b'x'; 1 + n % 11],
            }
        })
        .collect()
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn batched_dispatch_agrees_with_per_query_path_across_matrix() {
    // A whole batch through the dispatcher loop (poll-multiplexed pipes,
    // several workers, batched frames) must produce exactly the verdicts
    // of its one-query case — the worker language's — at every pool size
    // and frame batch size the matrix requests.
    let _guard = Watchdog::arm("batched_dispatch_agrees_with_per_query_path_across_matrix");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let inputs = x_workload(300, 0);
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let expected: Vec<Option<bool>> = inputs.iter().map(|i| Some(x_language(i))).collect();
    for pool_size in matrix_pool_sizes() {
        for frame_batch in [1usize, 7, 64] {
            let pool = PooledProcessOracle::new(bin).pool_size(pool_size).frame_batch(frame_batch);
            let verdicts = pool.accepts_batch_checked(&refs);
            assert_eq!(
                verdicts, expected,
                "verdicts drifted at pool={pool_size} frame_batch={frame_batch}"
            );
            assert_eq!(pool.failure_count(), 0, "pool={pool_size} frame_batch={frame_batch}");
            assert_eq!(pool.respawn_count(), 0, "healthy workers were respawned");
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn v1_only_worker_is_refused_at_spawn() {
    // A worker that answers the handshake with a verdict byte speaks only
    // the retired single-query protocol, which would read a batch frame's
    // count as a length and stall. The pool refuses it as dead on arrival:
    // without a fallback its queries are counted failures, with one the
    // fallback answers them — never a fabricated verdict, never a hang.
    let _guard = Watchdog::arm("v1_only_worker_is_refused_at_spawn");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let inputs = x_workload(40, 31);
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();

    let refused = PooledProcessOracle::new(bin).arg("--v1-only").pool_size(2);
    assert_eq!(refused.accepts_checked(b"x"), None);
    assert_eq!(refused.accepts_batch_checked(&refs), vec![None; refs.len()]);
    assert_eq!(refused.failure_count(), 1 + refs.len(), "every query is a counted failure");
    assert!(refused.tripped_worker_count() > 0, "refused spawns walk the breaker");

    let rescued = PooledProcessOracle::new(bin)
        .arg("--v1-only")
        .pool_size(2)
        .fallback(ProcessOracle::new("grep").arg("-Eqx").arg("x+"));
    let expected: Vec<Option<bool>> = inputs.iter().map(|i| Some(x_language(i))).collect();
    assert_eq!(rescued.accepts_checked(b"x"), Some(true));
    assert_eq!(rescued.accepts_batch_checked(&refs), expected);
    assert_eq!(rescued.failure_count(), 0, "the fallback answered every query");
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn crash_mid_batch_under_concurrent_load_recovers_every_query() {
    // Workers die after every 23 answers — with 64-query v2 frames the
    // death lands mid-frame and the worker flushes a *partial* verdict
    // run first (see TEST_WORKER_SOURCE). Four threads hammer batched
    // dispatch concurrently; every query must still get its true verdict
    // (requeue + fresh-worker retry), with zero counted failures.
    let _guard = Watchdog::arm("crash_mid_batch_under_concurrent_load_recovers_every_query");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let pool =
        PooledProcessOracle::new(bin).arg("--crash-after").arg("23").pool_size(2).frame_batch(64);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let pool = &pool;
            s.spawn(move || {
                for round in 0..3usize {
                    let inputs = x_workload(150, 1000 * t + 17 * round);
                    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
                    let expected: Vec<Option<bool>> =
                        inputs.iter().map(|i| Some(x_language(i))).collect();
                    assert_eq!(
                        pool.accepts_batch_checked(&refs),
                        expected,
                        "thread {t} round {round}"
                    );
                }
            });
        }
    });
    assert_eq!(pool.failure_count(), 0, "every crashed query was recovered");
    assert!(pool.respawn_count() >= 10, "respawns: {}", pool.respawn_count());
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn garbage_verdict_bytes_are_crashes_not_verdicts() {
    // After 20 good answers the worker answers 0x7f forever: the oracle
    // must treat the illegal byte as a crash and re-pose the query on a
    // fresh worker — a wrong verdict must never surface, and because a
    // fresh worker always answers its first queries correctly, no
    // failures are counted either.
    let _guard = Watchdog::arm("garbage_verdict_bytes_are_crashes_not_verdicts");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let garbage_pool = || {
        PooledProcessOracle::new(bin).arg("--garbage-after").arg("20").pool_size(2).frame_batch(16)
    };
    let inputs = x_workload(200, 7);
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let expected: Vec<Option<bool>> = inputs.iter().map(|i| Some(x_language(i))).collect();
    let pool = garbage_pool();
    assert_eq!(pool.accepts_batch_checked(&refs), expected, "a garbage byte leaked a verdict");
    assert_eq!(pool.failure_count(), 0);
    assert!(pool.respawn_count() >= 5, "respawns: {}", pool.respawn_count());
    // The same workload one query at a time, on a fresh pool.
    let pool = garbage_pool();
    let single: Vec<Option<bool>> = refs.iter().map(|q| pool.accepts_checked(q)).collect();
    assert_eq!(single, expected, "a garbage byte leaked a single-query verdict");
    assert_eq!(pool.failure_count(), 0);
    assert!(pool.respawn_count() >= 5, "respawns: {}", pool.respawn_count());
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn poison_query_inside_a_batch_degrades_only_itself() {
    // One unanswerable poison query rides along in a batch: it (and only
    // it) degrades to a counted failure after defeating the batch retry
    // and the per-query fallback; every sibling query is answered.
    let _guard = Watchdog::arm("poison_query_inside_a_batch_degrades_only_itself");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let pool = PooledProcessOracle::new(bin).pool_size(2).frame_batch(8);
    let mut inputs = x_workload(60, 3);
    inputs[37] = b"CRASH!".to_vec();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let verdicts = pool.accepts_batch_checked(&refs);
    for (i, input) in inputs.iter().enumerate() {
        if i == 37 {
            assert_eq!(verdicts[i], None, "the poison query has no verdict");
        } else {
            assert_eq!(verdicts[i], Some(x_language(input)), "sibling {i} was dragged down");
        }
    }
    assert_eq!(pool.failure_count(), 1, "exactly the poison query is a failure");
    assert!(pool.respawn_count() >= 2);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn hung_worker_is_killed_at_the_deadline_and_recovered() {
    // `--hang-after 2`: each worker answers two queries and then goes
    // silent without exiting, so the pipe never reaches EOF. Without a
    // deadline a single query would wait in `poll(2)` forever; with one,
    // the hung worker is killed at the deadline, the abandoned query is
    // counted in `timed_out_count`, and the retry lands on a fresh worker
    // that answers it — no verdict is ever lost or wrong.
    let _guard = Watchdog::arm("hung_worker_is_killed_at_the_deadline_and_recovered");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let pool = PooledProcessOracle::new(bin)
        .arg("--hang-after")
        .arg("2")
        .pool_size(1)
        .query_timeout(Duration::from_millis(250));
    for i in 0..8usize {
        let input = vec![b'x'; 1 + i % 3];
        assert!(pool.accepts(&input), "iter {i}");
    }
    assert!(pool.timed_out_count() >= 2, "hangs detected: {}", pool.timed_out_count());
    assert_eq!(pool.failure_count(), 0, "every hung query was recovered on retry");
    assert!(pool.respawn_count() >= 2, "respawns: {}", pool.respawn_count());
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn slow_loris_verdicts_within_the_deadline_stay_healthy() {
    // `--stall-ms 20` trickles each verdict as its own flushed byte ~20 ms
    // apart, so a 16-query frame takes ~320 ms end to end — well past the
    // 150 ms deadline if it were measured per frame. The deadline is per
    // verdict *progress*: as long as each byte lands inside it the worker
    // is slow but healthy, and nothing may be killed, retried, or counted.
    let _guard = Watchdog::arm("slow_loris_verdicts_within_the_deadline_stay_healthy");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let inputs = x_workload(48, 5);
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let expected: Vec<Option<bool>> = inputs.iter().map(|i| Some(x_language(i))).collect();
    let stalling_pool = || {
        PooledProcessOracle::new(bin)
            .arg("--stall-ms")
            .arg("20")
            .pool_size(2)
            .frame_batch(16)
            .query_timeout(Duration::from_millis(150))
    };
    let pool = stalling_pool();
    assert_eq!(pool.accepts_batch_checked(&refs), expected);
    assert_eq!(pool.timed_out_count(), 0, "a slow-but-healthy worker was declared hung");
    assert_eq!(pool.respawn_count(), 0, "a slow-but-healthy worker was killed");
    assert_eq!(pool.failure_count(), 0);
    // The same workload one query at a time, on a fresh pool: each verdict
    // lands ~20 ms after its query, inside the 150 ms deadline.
    let pool = stalling_pool();
    let single: Vec<Option<bool>> = refs.iter().map(|q| pool.accepts_checked(q)).collect();
    assert_eq!(single, expected);
    assert_eq!(pool.timed_out_count(), 0, "a slow-but-healthy worker was declared hung");
    assert_eq!(pool.respawn_count(), 0, "a slow-but-healthy worker was killed");
    assert_eq!(pool.failure_count(), 0);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn hang_mid_v2_frame_under_concurrent_load_recovers_every_query() {
    // Workers answer 13 queries and then hang mid-v2-frame, after flushing
    // a torn partial verdict run (see TEST_WORKER_SOURCE). Concurrent
    // batched dispatch must detect each hang at the deadline, kill the
    // worker, requeue the unanswered tail, and replay it on fresh workers:
    // every query still gets its true verdict and none is a failure.
    let _guard = Watchdog::arm("hang_mid_v2_frame_under_concurrent_load_recovers_every_query");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let pool = PooledProcessOracle::new(bin)
        .arg("--hang-after")
        .arg("13")
        .pool_size(2)
        .frame_batch(16)
        .query_timeout(Duration::from_millis(250));
    std::thread::scope(|s| {
        for t in 0..3usize {
            let pool = &pool;
            s.spawn(move || {
                for round in 0..2usize {
                    let inputs = x_workload(40, 500 * t + 13 * round);
                    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
                    let expected: Vec<Option<bool>> =
                        inputs.iter().map(|i| Some(x_language(i))).collect();
                    assert_eq!(
                        pool.accepts_batch_checked(&refs),
                        expected,
                        "thread {t} round {round}"
                    );
                }
            });
        }
    });
    assert!(pool.timed_out_count() >= 1, "no mid-frame hang was detected");
    assert_eq!(pool.failure_count(), 0, "every hung query was replayed successfully");
    assert!(pool.respawn_count() >= 2, "respawns: {}", pool.respawn_count());
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn full_synthesis_with_hanging_workers_stays_exact_and_reports_hangs() {
    // The tentpole acceptance invariant for deadlines: a pooled synthesis
    // run whose workers keep hanging completes (the watchdog turns a wedge
    // into a fast failure), produces the exact grammar bytes and query
    // counts of the in-process reference, counts every hang in
    // `timed_out_queries`, and surfaces them as WorkerHung events.
    let _guard = Watchdog::arm("full_synthesis_with_hanging_workers_stays_exact_and_reports_hangs");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let seeds = vec![b"xx".to_vec()];
    let reference =
        GladeBuilder::new().synthesize(&seeds, &FnOracle::new(x_language)).expect("valid seed");
    let pool = PooledProcessOracle::new(bin)
        .arg("--hang-after")
        .arg("29")
        .pool_size(2)
        .query_timeout(Duration::from_millis(250));
    let log = Arc::new(EventLog::new());
    let result =
        GladeBuilder::new().observer(log.clone()).synthesize(&seeds, &pool).expect("valid seed");
    assert_eq!(
        grammar_to_text(&result.grammar),
        grammar_to_text(&reference.grammar),
        "hangs leaked into the grammar"
    );
    assert_eq!(result.stats.unique_queries, reference.stats.unique_queries);
    assert_eq!(result.stats.total_queries, reference.stats.total_queries);
    assert_eq!(result.stats.oracle_failures, 0, "every hang was recovered");
    assert!(result.stats.timed_out_queries > 0, "the workload outlives the hang threshold");
    assert_eq!(
        result.stats.timed_out_queries,
        pool.timed_out_count(),
        "session stats drifted from the oracle's own accounting"
    );
    let reported: usize = log
        .events()
        .iter()
        .filter_map(|e| match e {
            SynthEvent::WorkerHung { new_timeouts, .. } => Some(*new_timeouts),
            _ => None,
        })
        .sum();
    assert_eq!(reported, result.stats.timed_out_queries, "events account for every hang");
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn full_synthesis_through_crashing_pool_matches_in_process_run() {
    // The acceptance invariant of the crash-recovery machinery: a full
    // synthesis run over a pool whose workers keep dying produces the
    // exact grammar bytes, unique-query count, and failure accounting of
    // the in-process oracle — at every matrix pool size.
    let _guard = Watchdog::arm("full_synthesis_through_crashing_pool_matches_in_process_run");
    let Some(bin) = test_worker_bin() else {
        eprintln!("skipping: rustc unavailable, cannot build the protocol worker");
        return;
    };
    let seeds = vec![b"xx".to_vec()];
    let reference_oracle = FnOracle::new(x_language);
    let reference = GladeBuilder::new().synthesize(&seeds, &reference_oracle).expect("valid seed");
    for pool_size in matrix_pool_sizes() {
        let pool =
            PooledProcessOracle::new(bin).arg("--crash-after").arg("19").pool_size(pool_size);
        let pooled = GladeBuilder::new().synthesize(&seeds, &pool).expect("valid seed");
        assert_eq!(
            grammar_to_text(&pooled.grammar),
            grammar_to_text(&reference.grammar),
            "grammar drifted through the crashing pool at pool_size={pool_size}"
        );
        assert_eq!(pooled.stats.unique_queries, reference.stats.unique_queries);
        assert_eq!(pooled.stats.total_queries, reference.stats.total_queries);
        assert_eq!(pooled.stats.oracle_failures, 0, "every crash was recovered");
        assert!(pool.respawn_count() > 0, "the workload outlives single workers");
    }
}

#[test]
fn oracle_execution_failures_are_counted_and_surfaced() {
    // An oracle that cannot execute some fraction of its queries: the run
    // completes (fail closed, seed preserved) but reports the failures in
    // the stats and as OracleFailures events — the satellite fix for
    // ProcessOracle's old silent `false` on spawn errors.
    struct FailingOracle {
        failures: AtomicUsize,
        /// Every distinct input this oracle answered with a real verdict.
        answered: Mutex<HashSet<Vec<u8>>>,
    }
    impl Oracle for FailingOracle {
        fn accepts(&self, input: &[u8]) -> bool {
            self.accepts_checked(input).unwrap_or(false)
        }
        fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
            if input.contains(&b'~') {
                // Simulated execution failure: no verdict obtainable.
                self.failures.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            self.answered.lock().expect("answered set").insert(input.to_vec());
            Some(xml_like(input))
        }
        fn failure_count(&self) -> usize {
            self.failures.load(Ordering::Relaxed)
        }
    }
    let oracle = FailingOracle { failures: AtomicUsize::new(0), answered: Mutex::default() };
    let log = Arc::new(EventLog::new());
    let mut session = GladeBuilder::new().observer(log.clone()).session(&oracle);
    let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).expect("valid seed");
    assert!(result.stats.oracle_failures > 0, "chargen probes contain '~'");
    assert!(glade_grammar::Earley::new(&result.grammar).accepts(b"<a>hi</a>"));
    // Exact failure accounting: failed executions are never cached, so
    // the staged planner may re-pose a failed string in a later wave —
    // and each execution counts, in the stats and in the events alike.
    assert_eq!(result.stats.oracle_failures, oracle.failure_count());
    let reported: usize = log
        .events()
        .iter()
        .filter_map(|e| match e {
            SynthEvent::OracleFailures { new_failures, .. } => Some(*new_failures),
            _ => None,
        })
        .sum();
    assert_eq!(reported, result.stats.oracle_failures, "events account for every failure");
    // Degraded answers must never be cached: the cache holds exactly the
    // distinct inputs the oracle really answered. A snapshot of this
    // session would otherwise poison every warm-started run with false
    // rejects.
    let answered = oracle.answered.lock().expect("answered set").len();
    assert_eq!(result.stats.unique_queries, answered, "failed executions leaked into the cache");
    let persisted = snapshot_from_binary(&session.export_cache_binary()).expect("snapshot parses");
    assert_eq!(persisted.entries.len(), answered);
    assert!(
        persisted.entries.iter().all(|(query, _)| !query.contains(&b'~')),
        "a failed '~' query was persisted into the snapshot"
    );
}

#[test]
fn run_health_counts_only_the_runs_own_calls() {
    // A run's oracle health is what its own calls got back, not the shared
    // oracle's lifetime count. An observer stands in for another tenant of
    // the same oracle: at every phase start it poses a query that fails.
    // The run's stats and events must match a solo run's, and only the
    // oracle's own counter shows the other tenant's failures.
    #[derive(Default)]
    struct TildeFails(AtomicUsize);
    impl Oracle for TildeFails {
        fn accepts(&self, input: &[u8]) -> bool {
            self.accepts_checked(input).unwrap_or(false)
        }
        fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
            let fails = input.contains(&b'~');
            self.0.fetch_add(usize::from(fails), Ordering::Relaxed);
            (!fails).then(|| xml_like(input))
        }
        fn failure_count(&self) -> usize {
            self.0.load(Ordering::Relaxed)
        }
    }
    struct OtherTenant {
        oracle: Arc<TildeFails>,
        calls: AtomicUsize,
        log: EventLog,
    }
    impl SynthesisObserver for OtherTenant {
        fn on_event(&self, event: &SynthEvent) {
            if matches!(event, SynthEvent::PhaseStarted { .. }) {
                self.calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(self.oracle.accepts_checked(b"~"), None);
            }
            self.log.on_event(event);
        }
    }
    let reported = |log: &EventLog| -> usize {
        log.events()
            .iter()
            .filter_map(|e| match e {
                SynthEvent::OracleFailures { new_failures, .. } => Some(*new_failures),
                _ => None,
            })
            .sum()
    };

    let seeds = [b"<a>hi</a>".to_vec()];
    let solo_oracle = TildeFails::default();
    let solo_log = Arc::new(EventLog::new());
    let solo = GladeBuilder::new()
        .observer(Arc::clone(&solo_log))
        .synthesize(&seeds, &solo_oracle)
        .expect("valid seed");
    assert!(solo.stats.oracle_failures > 0, "chargen probes contain '~'");
    assert_eq!(solo.stats.oracle_failures, solo_oracle.failure_count());

    let shared = Arc::new(TildeFails::default());
    let tenant = Arc::new(OtherTenant {
        oracle: Arc::clone(&shared),
        calls: AtomicUsize::new(0),
        log: EventLog::new(),
    });
    let shared_run = GladeBuilder::new()
        .observer(Arc::clone(&tenant))
        .synthesize(&seeds, &*shared)
        .expect("valid seed");
    let other_calls = tenant.calls.load(Ordering::Relaxed);
    assert!(other_calls > 0, "the other tenant called during the run");
    assert_eq!(shared_run.stats.oracle_failures, solo.stats.oracle_failures);
    assert_eq!(reported(&tenant.log), reported(&solo_log));
    assert_eq!(reported(&tenant.log), solo.stats.oracle_failures);
    assert_eq!(shared.failure_count(), shared_run.stats.oracle_failures + other_calls);
    assert_eq!(
        grammar_to_text(&shared_run.grammar),
        grammar_to_text(&solo.grammar),
        "another caller's failures changed the grammar"
    );
}

#[test]
fn cancellation_mid_phase_still_yields_seed_accepting_grammar() {
    // Cancel deterministically after a fixed number of oracle calls —
    // deep inside character generalization for this seed — at several
    // trip points. Whatever was in flight, the returned grammar must
    // contain every seed (the fail-closed degradation path).
    for trip_at in [10, 100, 700] {
        let token = CancelToken::new();
        let calls = AtomicUsize::new(0);
        let trip_token = token.clone();
        let oracle = FnOracle::new(move |i: &[u8]| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == trip_at {
                trip_token.cancel();
            }
            xml_like(i)
        });
        let mut session =
            GladeBuilder::new().worker_threads(1).cancel_token(token).session(&oracle);
        let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).expect("valid seed");
        assert!(result.stats.cancelled, "trip_at={trip_at}");
        assert!(
            glade_grammar::Earley::new(&result.grammar).accepts(b"<a>hi</a>"),
            "seed lost after cancelling at {trip_at} calls"
        );
        assert!(
            result.stats.unique_queries < GOLDEN_UNIQUE,
            "cancellation at {trip_at} did not shorten the run"
        );
    }
}

#[test]
fn cache_snapshot_roundtrip_answers_full_run_with_zero_new_queries() {
    // The acceptance invariant for persistent caches: save → load → re-run
    // answers the entire running-example run from the snapshot.
    let oracle = FnOracle::new(xml_like);
    let mut warm = GladeBuilder::new().session(&oracle);
    let first = warm.add_seeds(&[b"<a>hi</a>".to_vec()]).expect("valid seed");
    assert_eq!(first.stats.unique_queries, GOLDEN_UNIQUE);

    let path =
        std::env::temp_dir().join(format!("glade-cache-test-{}.glade-cache", std::process::id()));
    warm.save_cache(&path).expect("snapshot written");
    let on_disk = std::fs::read(&path).expect("snapshot readable");
    assert!(on_disk.starts_with(b"glade-cachebin v1\n"), "snapshots are written in binary");

    // The cold session's oracle counts calls: it must never be consulted.
    let calls = AtomicUsize::new(0);
    let counting = FnOracle::new(|i: &[u8]| {
        calls.fetch_add(1, Ordering::Relaxed);
        xml_like(i)
    });
    let mut cold = GladeBuilder::new().session(&counting);
    let loaded = cold.load_cache(&path).expect("snapshot read");
    assert_eq!(loaded, GOLDEN_UNIQUE);
    let second = cold.add_seeds(&[b"<a>hi</a>".to_vec()]).expect("valid seed");
    let _ = std::fs::remove_file(&path);

    assert_eq!(second.stats.new_unique_queries, 0, "warm re-run paid oracle calls");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "oracle consulted despite warm cache");
    assert_eq!(second.stats.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(grammar_to_text(&second.grammar), grammar_to_text(&first.grammar));
}

#[test]
fn per_language_query_pins() {
    // Pins the staged planner's distinct-query counts on every Section 8.2
    // language (plus the toy running-example language). Seeds are sampled
    // from the handwritten grammars exactly as the bench's pipeline
    // experiment samples them (seed 17), just fewer of them so the
    // debug-mode suite stays fast. The unreduced counts of the same runs,
    // and byte-identical grammars against them, are pinned by glade-core's
    // test-only one-shot reference. A drift here means the planner's cost
    // model changed.
    //
    // `language.oracle()` batches natively (whole miss sets go to one
    // Earley chart). Each language also runs on an `FnOracle` over
    // `Recognizer::accepts`, the per-query path, at 1 and 4 workers: the
    // grammar bytes and both query counts must be identical.
    //
    // Each pin is (language, unique_queries, total_queries, probes_elided):
    // total and elided counts move if the engine starts posing, counting or
    // eliding a check differently, even when the distinct set stays put.
    let pins: &[(&str, usize, usize, usize)] = &[
        ("url", 13_280, 13_367, 7_543),
        ("grep", 4_524, 4_608, 970),
        ("lisp", 2_278, 2_293, 951),
        // xml's distinct strings survive; only re-poses are elided.
        ("xml", 707, 711, 97),
        ("toy-xml", 923, 934, 772),
    ];
    let mut languages = section82_languages();
    languages.push(toy_xml());
    for language in &languages {
        let &(_, expected, expected_total, expected_elided) =
            pins.iter().find(|pin| pin.0 == language.name()).expect("language is pinned");
        let mut rng = StdRng::seed_from_u64(17);
        let seeds = sample_seeds(language, 4, &mut rng);
        let oracle = language.oracle();
        assert!(oracle.native_batching());
        let result = GladeBuilder::new()
            .max_queries(200_000)
            .synthesize(&seeds, &oracle)
            .expect("sampled seeds are members");
        assert!(!result.stats.budget_exhausted, "{} exhausted its budget", language.name());
        assert_eq!(
            result.stats.unique_queries,
            expected,
            "{} distinct queries drifted",
            language.name()
        );
        assert_eq!(
            result.stats.total_queries,
            expected_total,
            "{} total queries drifted",
            language.name()
        );
        assert_eq!(
            result.stats.probes_elided,
            expected_elided,
            "{} elided probes drifted",
            language.name()
        );

        let recognizer = Recognizer::new(language.grammar());
        let per_query = FnOracle::new(|input: &[u8]| recognizer.accepts(input));
        for workers in [1, 4] {
            let single = GladeBuilder::new()
                .max_queries(200_000)
                .worker_threads(workers)
                .synthesize(&seeds, &per_query)
                .expect("sampled seeds are members");
            let name = language.name();
            assert_eq!(
                grammar_to_text(&single.grammar),
                grammar_to_text(&result.grammar),
                "{name}: per-query grammar differs at {workers} workers"
            );
            assert_eq!(single.stats.unique_queries, result.stats.unique_queries, "{name}");
            assert_eq!(single.stats.total_queries, result.stats.total_queries, "{name}");
        }
    }
}
