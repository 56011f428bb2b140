//! End-to-end tests for the `glade-oracle-worker` harness: the pooled
//! worker protocol against real child processes, spawn-per-query `--once`
//! mode, and full-pipeline synthesis over the pool — swept across pool
//! sizes (`GLADE_TEST_POOL_SIZE`) and hardened against workers that crash
//! mid-batch.

use glade_core::{Oracle, ProcessOracle};
use glade_targets::programs::Xml;
use glade_targets::TargetOracle;
#[cfg(any(target_os = "linux", target_os = "macos"))]
use {
    glade_core::serve::{OpenRequest, OracleFactory, ServeClient, ServeConfig, Server},
    glade_core::{GladeBuilder, PooledProcessOracle, SynthesisStats},
    std::sync::atomic::{AtomicBool, Ordering},
    std::sync::Arc,
    std::time::Duration,
};

/// Path of the worker binary, provided by cargo for same-package tests.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_glade-oracle-worker")
}

/// Golden distinct/total query counts for the seed `<a>hi</a>` (pinned in
/// `glade-core`'s `parallel.rs`); the pooled path must reproduce them.
#[cfg(any(target_os = "linux", target_os = "macos"))]
const GOLDEN_UNIQUE: usize = 965;
#[cfg(any(target_os = "linux", target_os = "macos"))]
const GOLDEN_TOTAL: usize = 985;

/// Pool sizes to sweep; `GLADE_TEST_POOL_SIZE` pins one (the CI matrix
/// sweeps it so every cell stays fast).
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn matrix_pool_sizes() -> Vec<usize> {
    match std::env::var("GLADE_TEST_POOL_SIZE").ok().and_then(|v| v.parse().ok()) {
        Some(n) => vec![n],
        None => vec![1, 2, 8],
    }
}

/// Per-test timeout guard: a dispatcher bug over nonblocking pipes would
/// wedge the job in a never-waking `poll(2)`; the watchdog fails fast
/// instead. `GLADE_TEST_TIMEOUT_SECS` tunes the limit (default 120 s).
#[cfg(any(target_os = "linux", target_os = "macos"))]
struct Watchdog {
    done: Arc<AtomicBool>,
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl Watchdog {
    fn arm(name: &'static str) -> Self {
        let secs = std::env::var("GLADE_TEST_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120u64);
        let done = Arc::new(AtomicBool::new(false));
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

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn pooled_worker_agrees_with_in_process_oracle() {
    let xml = Xml;
    let reference = TargetOracle::new(&xml);
    let pooled = PooledProcessOracle::new(worker_bin()).arg("xml").pool_size(2);
    let cases: &[&[u8]] = &[
        b"<a>hi</a>",
        b"<a><b>x</b></a>",
        b"<a>hi</a",
        b"",
        b"plain text",
        b"<",
        b"\x00\xff binary \x01",
    ];
    for &input in cases {
        assert_eq!(
            pooled.accepts(input),
            reference.accepts(input),
            "verdicts diverged for {:?}",
            String::from_utf8_lossy(input)
        );
    }
    assert_eq!(pooled.failure_count(), 0, "healthy workers never fail");
}

#[test]
fn once_mode_supports_spawn_per_query() {
    let xml = Xml;
    let reference = TargetOracle::new(&xml);
    let spawn = ProcessOracle::new(worker_bin()).arg("xml").arg("--once");
    for input in [&b"<a>hi</a>"[..], b"<a>hi</a", b"", b"nested <a></a> text"] {
        assert_eq!(spawn.accepts(input), reference.accepts(input));
    }
    assert_eq!(spawn.failure_count(), 0);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn pooled_worker_serves_languages_too() {
    let pooled = PooledProcessOracle::new(worker_bin()).arg("toy-xml");
    assert!(pooled.accepts(b"<a>hi</a>"));
    assert!(pooled.accepts(b""));
    assert!(!pooled.accepts(b"<a>hi</a"));
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn unknown_subject_exits_nonzero_and_pool_degrades() {
    // The worker exits immediately on an unknown subject; every pooled
    // query degrades to a counted failure (no fallback installed).
    let pooled = PooledProcessOracle::new(worker_bin()).arg("no-such-subject");
    assert!(!pooled.accepts(b"x"));
    assert!(pooled.failure_count() >= 1);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn full_synthesis_over_the_pool_matches_in_process_synthesis() {
    // The running example driven entirely through child processes, swept
    // over the pool-size × frame-batch matrix through the session API:
    // grammar bytes and both query counts must be exactly what the
    // in-process oracle produces — the golden 965/985 pins — in every
    // cell.
    let _guard = Watchdog::arm("full_synthesis_over_the_pool_matches_in_process_synthesis");
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let in_process = {
        let xml = glade_targets::languages::toy_xml();
        let oracle = xml.oracle();
        GladeBuilder::new().synthesize(&seeds, &oracle).expect("valid seed")
    };
    assert_eq!(in_process.stats.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(in_process.stats.total_queries, GOLDEN_TOTAL);
    let reference_grammar = glade_grammar::grammar_to_text(&in_process.grammar);
    for pool_size in matrix_pool_sizes() {
        for frame_batch in [1usize, 7, 32, 64] {
            let pooled_oracle = PooledProcessOracle::new(worker_bin())
                .arg("toy-xml")
                .pool_size(pool_size)
                .frame_batch(frame_batch);
            let mut session = GladeBuilder::new().worker_threads(4).session(&pooled_oracle);
            let pooled = session.add_seeds(&seeds).expect("valid seed");
            let cell = format!("pool={pool_size} frame_batch={frame_batch}");
            assert_eq!(
                glade_grammar::grammar_to_text(&pooled.grammar),
                reference_grammar,
                "pooled execution changed the synthesized grammar ({cell})"
            );
            assert_eq!(pooled.stats.unique_queries, GOLDEN_UNIQUE, "{cell}");
            assert_eq!(pooled.stats.total_queries, GOLDEN_TOTAL, "{cell}");
            assert_eq!(pooled.stats.oracle_failures, 0, "{cell}");
            assert_eq!(pooled_oracle.respawn_count(), 0, "healthy workers respawned ({cell})");
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn synthesis_over_crashing_workers_matches_in_process_synthesis() {
    // Crash-recovery acceptance at the harness level: every worker dies
    // after 100 answers (well inside the 965-query run, so the pool
    // reaps and respawns repeatedly, tearing batches mid-frame), and
    // the result must still be byte- and count-identical to the
    // in-process run, with zero counted failures.
    //
    // A respawn is guaranteed at every pool size up to 8: the run needs
    // 965 distinct answers, and without a respawn they all come from at
    // most 8 first-generation workers, so by pigeonhole one of them
    // answers at least ceil(965 / 8) = 121 > 100 queries — it crashes.
    let _guard = Watchdog::arm("synthesis_over_crashing_workers_matches_in_process_synthesis");
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let in_process = {
        let xml = glade_targets::languages::toy_xml();
        let oracle = xml.oracle();
        GladeBuilder::new().synthesize(&seeds, &oracle).expect("valid seed")
    };
    for pool_size in matrix_pool_sizes() {
        let pooled_oracle = PooledProcessOracle::new(worker_bin())
            .arg("toy-xml")
            .arg("--crash-after")
            .arg("100")
            .pool_size(pool_size);
        let mut session = GladeBuilder::new().worker_threads(4).session(&pooled_oracle);
        let pooled = session.add_seeds(&seeds).expect("valid seed");
        assert_eq!(
            glade_grammar::grammar_to_text(&pooled.grammar),
            glade_grammar::grammar_to_text(&in_process.grammar),
            "crash recovery changed the grammar (pool={pool_size})"
        );
        assert_eq!(pooled.stats.unique_queries, in_process.stats.unique_queries);
        assert_eq!(pooled.stats.total_queries, in_process.stats.total_queries);
        assert_eq!(pooled.stats.oracle_failures, 0, "pool={pool_size}");
        assert!(
            pooled_oracle.respawn_count() > 0,
            "the run must outlive 100-answer workers (pool={pool_size})"
        );
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn synthesis_over_hanging_workers_keeps_golden_pins() {
    // Deadline acceptance at the harness level: every worker answers 150
    // queries and then hangs mid-batch *without exiting* (`--hang-after`
    // routes through the deterministic fault harness). With a per-query
    // deadline set on the pool, the run completes —
    // each hang is detected at the deadline, the worker killed, and the
    // abandoned queries replayed — reproducing the golden pins
    // byte-identically with every hang accounted for: no silent `false`,
    // no stuck engine.
    let _guard = Watchdog::arm("synthesis_over_hanging_workers_keeps_golden_pins");
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let in_process = {
        let xml = glade_targets::languages::toy_xml();
        let oracle = xml.oracle();
        GladeBuilder::new().synthesize(&seeds, &oracle).expect("valid seed")
    };
    let pooled_oracle = PooledProcessOracle::new(worker_bin())
        .arg("toy-xml")
        .arg("--hang-after")
        .arg("150")
        .pool_size(2)
        .query_timeout(Duration::from_millis(250));
    let mut session = GladeBuilder::new().worker_threads(4).session(&pooled_oracle);
    let pooled = session.add_seeds(&seeds).expect("valid seed");
    assert_eq!(
        glade_grammar::grammar_to_text(&pooled.grammar),
        glade_grammar::grammar_to_text(&in_process.grammar),
        "hang recovery changed the grammar"
    );
    assert_eq!(pooled.stats.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(pooled.stats.total_queries, GOLDEN_TOTAL);
    assert_eq!(pooled.stats.oracle_failures, 0, "every hang was recovered");
    assert!(
        pooled.stats.timed_out_queries > 0,
        "a {}-query run must outlive 150-answer workers",
        GOLDEN_UNIQUE
    );
    assert!(pooled_oracle.respawn_count() > 0);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn stalling_worker_is_slow_but_healthy_under_a_deadline() {
    // `--stall-ms 20` makes the worker trickle each verdict as its own
    // flushed byte after a ~20 ms pause, so an 8-query frame takes longer
    // than the 150 ms deadline end to end. The deadline re-arms on every
    // verdict byte: a slow-but-progressing worker must never be declared
    // hung, killed, or respawned.
    let _guard = Watchdog::arm("stalling_worker_is_slow_but_healthy_under_a_deadline");
    let xml = glade_targets::languages::toy_xml();
    let reference = xml.oracle();
    let inputs: Vec<Vec<u8>> = (0..24usize)
        .map(|i| {
            if i % 3 == 2 {
                format!("<a>{i}</a").into_bytes() // truncated: rejected
            } else {
                format!("<a>{i}</a>").into_bytes()
            }
        })
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let expected: Vec<Option<bool>> = inputs.iter().map(|i| Some(reference.accepts(i))).collect();
    let pool = PooledProcessOracle::new(worker_bin())
        .arg("toy-xml")
        .arg("--stall-ms")
        .arg("20")
        .pool_size(1)
        .frame_batch(8)
        .query_timeout(Duration::from_millis(150));
    assert_eq!(pool.accepts_batch_checked(&refs), expected);
    assert_eq!(pool.timed_out_count(), 0, "a slow-but-healthy worker was declared hung");
    assert_eq!(pool.respawn_count(), 0, "a slow-but-healthy worker was killed");
    assert_eq!(pool.failure_count(), 0);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn flaky_spawns_trip_the_breaker_and_recover_via_fallback() {
    // `--flaky-spawn` makes alternate spawns of the worker die instantly
    // (a cross-process counter file carries the parity), and
    // `--crash-after 2` keeps forcing respawns. With `max_respawns(2)` the
    // crash→dead-spawn streak trips the slot's circuit breaker; while the
    // breaker is open, queries degrade to the spawn-per-query fallback
    // (correct verdicts, zero counted failures), and once the cool-down
    // passes a half-open probe spawn recovers the slot.
    let _guard = Watchdog::arm("flaky_spawns_trip_the_breaker_and_recover_via_fallback");
    let counter =
        std::env::temp_dir().join(format!("glade-flaky-worker-{}.ctr", std::process::id()));
    let _ = std::fs::remove_file(&counter);
    let fallback = ProcessOracle::new(worker_bin()).arg("toy-xml").arg("--once");
    let pool = PooledProcessOracle::new(worker_bin())
        .arg("toy-xml")
        .arg("--crash-after")
        .arg("2")
        .arg("--flaky-spawn")
        .arg(counter.to_str().expect("temp path is utf-8"))
        .pool_size(1)
        .max_respawns(2)
        .respawn_backoff(Duration::from_millis(1))
        .fallback(fallback);
    let cases: &[(&[u8], bool)] =
        &[(b"<a>hi</a>", true), (b"<a>hi</a", false), (b"", true), (b"<a>xy</a>", true)];
    for round in 0..10usize {
        for &(input, expect) in cases {
            assert_eq!(pool.accepts(input), expect, "round {round}");
        }
        // Let breaker cool-downs (50 ms at this backoff base) elapse so
        // half-open probes get their chance.
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = std::fs::remove_file(&counter);
    assert!(pool.tripped_worker_count() >= 1, "trips: {}", pool.tripped_worker_count());
    assert!(pool.recovered_worker_count() >= 1, "recoveries: {}", pool.recovered_worker_count());
    assert_eq!(pool.failure_count(), 0, "the fallback answered every breaker-open query");
    assert!(pool.respawn_count() >= 1);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn mid_stream_probe_payload_is_an_ordinary_query() {
    // The probe is special in the spawn-time handshake only: a membership
    // query that happens to equal it, posed after the handshake, is
    // answered like any other input — on the blocking path (a one-query
    // frame) and inside a batch frame alike.
    let _guard = Watchdog::arm("mid_stream_probe_payload_is_an_ordinary_query");
    let probe = glade_core::wire::WIRE_V2_PROBE;
    let pool = PooledProcessOracle::new(worker_bin()).arg("toy-xml");
    assert!(pool.accepts(b"<a>hi</a>"), "complete the handshake first");
    assert_eq!(pool.accepts_checked(probe), Some(false), "probe bytes are not toy-xml");
    let batch: Vec<&[u8]> = vec![b"<a>ok</a>", probe, b"<a>", probe, b"xyz"];
    assert_eq!(
        pool.accepts_batch_checked(&batch),
        vec![Some(true), Some(false), Some(false), Some(false), Some(true)]
    );
    assert!(pool.accepts(b"<a>ok</a>"), "the connection survived");
    assert_eq!(pool.failure_count(), 0);
    assert_eq!(pool.respawn_count(), 0, "the probe as a query is no crash");
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn batched_dispatch_against_real_target_matches_reference() {
    // The batched entry point itself (not just synthesis) against the
    // instrumented XML target: verdicts must equal the in-process
    // reference for a workload mixing valid, invalid, empty, and binary
    // documents.
    let _guard = Watchdog::arm("batched_dispatch_against_real_target_matches_reference");
    let xml = Xml;
    let reference = TargetOracle::new(&xml);
    let inputs: Vec<Vec<u8>> = (0..240usize)
        .map(|i| match i % 5 {
            0 => format!("<a>{}</a>", "x".repeat(i % 11)).into_bytes(),
            1 => format!("<a><b>{}</b></a>", "y".repeat(i % 7)).into_bytes(),
            2 => format!("<a>{}</a", "z".repeat(i % 13)).into_bytes(), // truncated
            3 => Vec::new(),
            _ => vec![0x00, 0xff, b'<', (i % 256) as u8],
        })
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let expected: Vec<Option<bool>> = inputs.iter().map(|i| Some(reference.accepts(i))).collect();
    let pool = PooledProcessOracle::new(worker_bin()).arg("xml").pool_size(3).frame_batch(16);
    assert_eq!(pool.accepts_batch_checked(&refs), expected);
    assert_eq!(pool.failure_count(), 0);
}

/// Two served tenants share one pool of faulty workers: hangs past the
/// deadline, and alternate spawns dying, which trips the breakers. The
/// tenants call the pool at the same time, and each is charged exactly
/// the failures, timeouts and trips its own calls caused, so their counts
/// add up to the pool's.
#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn served_tenants_split_a_faulty_pools_health_counts_exactly() {
    let _guard = Watchdog::arm("served_tenants_split_a_faulty_pools_health_counts_exactly");
    let dir = std::env::temp_dir().join(format!("glade-worker-served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let counter = dir.join("spawns.ctr");
    let pool = PooledProcessOracle::new(worker_bin())
        .arg("toy-xml")
        .arg("--hang-after")
        .arg("40")
        .arg("--flaky-spawn")
        .arg(counter.to_str().expect("temp path is utf-8"))
        .pool_size(2)
        .max_respawns(2)
        .respawn_backoff(Duration::from_millis(1))
        .query_timeout(Duration::from_millis(100));
    let shared = pool.clone();
    let factory: Arc<dyn OracleFactory> =
        Arc::new(move |spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
            match spec {
                "faulty-pool" => Ok((Arc::new(shared.clone()), "test:faulty-pool".into())),
                other => Err(format!("unknown test spec {other:?}")),
            }
        });
    let socket = dir.join("sock");
    let handle = Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn server");

    let health = |o: &PooledProcessOracle| {
        [o.failure_count(), o.timed_out_count(), o.tripped_worker_count()]
    };
    let before = health(&pool);
    let seed_sets = [b"<a>hi</a>".to_vec(), b"<a><a>deep</a></a>".to_vec()];
    let stats: Vec<SynthesisStats> = std::thread::scope(|s| {
        let joins: Vec<_> = seed_sets
            .iter()
            .map(|seed| {
                let socket = &socket;
                s.spawn(move || {
                    let mut client = ServeClient::connect(socket).expect("connect");
                    client.open(&OpenRequest::new("faulty-pool")).expect("open");
                    let outcome =
                        client.synthesize(std::slice::from_ref(seed), |_| {}).expect("synthesize");
                    client.close().expect("close");
                    outcome.stats
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });
    let after = health(&pool);
    handle.shutdown().expect("server shutdown");
    let _ = std::fs::remove_dir_all(&dir);

    let charged = stats.iter().fold([0usize; 3], |sum, s| {
        [sum[0] + s.oracle_failures, sum[1] + s.timed_out_queries, sum[2] + s.tripped_workers]
    });
    let delta = [after[0] - before[0], after[1] - before[1], after[2] - before[2]];
    assert_eq!(charged, delta, "tenants' [failures, timeouts, trips] vs the pool's");
    assert!(delta[0] > 0, "open breakers left queries unanswered");
    assert!(delta[1] > 0, "the workers hung past the deadline");
    assert!(delta[2] > 0, "the flaky spawns tripped a breaker");
}
