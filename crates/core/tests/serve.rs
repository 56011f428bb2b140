//! Integration tests for the `glade serve` subsystem: in-process server,
//! real unix sockets, real [`ServeClient`]s on their own threads.
//!
//! The load-bearing pin throughout is *determinism through the server*:
//! every grammar synthesized via a campaign must be byte-identical to a
//! solo local [`Session`](glade_core::Session) run on the same seeds, with
//! the same query counts — including under concurrent tenants, per-tenant
//! budgets, cancellation, and injected oracle faults, none of which may
//! leak into another tenant's bytes or statistics.

#![cfg(any(target_os = "linux", target_os = "macos"))]

use glade_core::serve::{OpenRequest, OracleFactory, ServeClient, ServeConfig, Server};
use glade_core::testing::{xml_like, xml_like_with_self_closing};
use glade_core::{
    EventLog, FaultPlan, FaultyOracle, FnOracle, GladeBuilder, Oracle, SynthEvent, SynthPhase,
    SynthesisStats,
};
use glade_grammar::grammar_to_text;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Golden counts for the running example (`<a>hi</a>` against
/// [`xml_like`]) — the same pins as `tests/parallel.rs`.
const GOLDEN_UNIQUE: usize = 965;
const GOLDEN_TOTAL: usize = 985;

/// Per-test timeout guard (same rationale as in `tests/parallel.rs`): a
/// wedged accept loop or a lost wake would otherwise hang the whole CI
/// job inside a blocking socket read. `GLADE_TEST_TIMEOUT_SECS` tunes the
/// limit (default 120 s).
struct Watchdog {
    done: Arc<std::sync::atomic::AtomicBool>,
}

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
            eprintln!("watchdog: `{name}` still running after {secs}s — the serve loop is hung");
            std::process::exit(99);
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// A fresh scratch directory (unique per test) for sockets and caches.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glade-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The factory every test server uses. Specs:
/// * `xml` — the running example's [`xml_like`] oracle.
/// * `xml-sc` — the Section 7 self-closing variant (distinct fingerprint,
///   for cache-namespacing assertions).
fn test_factory() -> Arc<dyn OracleFactory> {
    Arc::new(|spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
        match spec {
            "xml" => Ok((Arc::new(FnOracle::new(xml_like)), "test:xml-like".into())),
            "xml-sc" => Ok((
                Arc::new(FnOracle::new(xml_like_with_self_closing)),
                "test:xml-like-self-closing".into(),
            )),
            other => Err(format!("unknown test spec {other:?}")),
        }
    })
}

/// Runs the same seed batches through a solo local session and returns the
/// final grammar text plus stats — the byte-identity baseline.
fn solo_run(oracle: &dyn Oracle, batches: &[Vec<Vec<u8>>]) -> (String, SynthesisStats) {
    solo_run_with(oracle, batches, None)
}

fn solo_run_with(
    oracle: &dyn Oracle,
    batches: &[Vec<Vec<u8>>],
    max_queries: Option<usize>,
) -> (String, SynthesisStats) {
    let mut builder = GladeBuilder::new();
    if let Some(limit) = max_queries {
        builder = builder.max_queries(limit);
    }
    let mut session = builder.session(&oracle);
    let mut last = None;
    for batch in batches {
        last = Some(session.add_seeds(batch).expect("solo run succeeds"));
    }
    let result = last.expect("at least one batch");
    (grammar_to_text(&result.grammar), result.stats)
}

/// The deterministic subset of [`SynthesisStats`] that must be identical
/// between a server campaign and its solo baseline (wall-clock fields are
/// excluded by construction).
fn count_fields(stats: &SynthesisStats) -> [usize; 10] {
    [
        stats.unique_queries,
        stats.new_unique_queries,
        stats.total_queries,
        stats.seeds_used,
        stats.star_count,
        stats.merges_accepted,
        stats.probes_elided,
        stats.oracle_failures,
        stats.timed_out_queries,
        stats.tripped_workers,
    ]
}

/// Opens a campaign on `socket` and synthesizes each batch in turn,
/// returning the last outcome (grammar text + stats) and the streamed
/// events.
fn client_run(
    socket: &std::path::Path,
    request: &OpenRequest,
    batches: &[Vec<Vec<u8>>],
) -> (String, SynthesisStats, Vec<SynthEvent>) {
    let mut client = ServeClient::connect(socket).expect("connect");
    client.open(request).expect("open campaign");
    let mut events = Vec::new();
    let mut last = None;
    for batch in batches {
        last = Some(client.synthesize(batch, |event| events.push(event)).expect("synthesize"));
    }
    client.close().expect("close");
    let outcome = last.expect("at least one batch");
    (outcome.grammar_text, outcome.stats, events)
}

#[test]
fn concurrent_tenants_match_solo_runs_and_golden_pins() {
    let _watchdog = Watchdog::arm("concurrent_tenants_match_solo_runs_and_golden_pins");
    let dir = scratch_dir("concurrent");
    let socket = dir.join("sock");

    // Three tenants with distinct seed sets, all sharing one oracle. The
    // second streams no events, so its campaign writes its RESULT to the
    // socket itself instead of handing it to the accept loop.
    let seed_sets: Vec<Vec<Vec<u8>>> = vec![
        vec![b"<a>hi</a>".to_vec()],
        vec![b"<a><a>deep</a></a>".to_vec()],
        vec![b"xyz".to_vec(), b"<a>ok</a>".to_vec()],
    ];
    let baselines: Vec<(String, SynthesisStats)> = seed_sets
        .iter()
        .map(|seeds| solo_run(&FnOracle::new(xml_like), std::slice::from_ref(seeds)))
        .collect();

    let handle =
        Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn server");

    let outcomes: Vec<(String, SynthesisStats, Vec<SynthEvent>)> = std::thread::scope(|s| {
        let joins: Vec<_> = seed_sets
            .iter()
            .enumerate()
            .map(|(tenant, seeds)| {
                let socket = socket.clone();
                let mut request = OpenRequest::new("xml");
                request.events = tenant != 1;
                s.spawn(move || client_run(&socket, &request, std::slice::from_ref(seeds)))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });

    for (tenant, ((grammar, stats, events), (solo_grammar, solo_stats))) in
        outcomes.iter().zip(&baselines).enumerate()
    {
        assert_eq!(grammar, solo_grammar, "tenant {tenant}: grammar must be byte-identical");
        assert_eq!(
            count_fields(stats),
            count_fields(solo_stats),
            "tenant {tenant}: query counts must match the solo run"
        );
        if tenant == 1 {
            assert!(events.is_empty(), "tenant {tenant} asked for no events");
            continue;
        }
        assert!(!events.is_empty(), "tenant {tenant}: the event stream must be live");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SynthEvent::PhaseFinished { unique_queries, .. } if *unique_queries > 0)),
            "tenant {tenant}: phase boundaries must stream"
        );
    }

    // The running example keeps its golden pins through the server.
    assert_eq!(outcomes[0].1.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(outcomes[0].1.total_queries, GOLDEN_TOTAL);

    handle.shutdown().expect("server shutdown");
}

#[test]
fn incremental_seed_batches_match_combined_local_session() {
    let _watchdog = Watchdog::arm("incremental_seed_batches_match_combined_local_session");
    let dir = scratch_dir("incremental");
    let socket = dir.join("sock");
    let batches =
        vec![vec![b"<a>hi</a>".to_vec()], vec![b"<a><a>deep</a></a>".to_vec(), b"ok".to_vec()]];
    let (solo_grammar, solo_stats) = solo_run(&FnOracle::new(xml_like), &batches);

    let handle =
        Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn server");

    let mut client = ServeClient::connect(&socket).expect("connect");
    client.open(&OpenRequest::new("xml")).expect("open");
    let first = client.synthesize(&batches[0], |_| {}).expect("first batch");
    assert_eq!(first.stats.unique_queries, GOLDEN_UNIQUE);
    let second = client.synthesize(&batches[1], |_| {}).expect("second batch");
    assert_eq!(second.grammar_text, solo_grammar, "incremental batches must compose");
    assert_eq!(count_fields(&second.stats), count_fields(&solo_stats));

    // An empty SEEDS frame re-synthesizes from current state.
    let again = client.synthesize(&[], |_| {}).expect("empty re-synthesis");
    assert_eq!(again.grammar_text, solo_grammar);
    assert_eq!(again.stats.new_unique_queries, 0, "re-synthesis is fully cached");
    client.close().expect("close");

    handle.shutdown().expect("server shutdown");
}

/// An [`xml_like`] oracle that parks exactly once — on its `gate_after`-th
/// query — until the test releases it, so a cancel frame can land while
/// the run is provably mid-flight.
struct GateOracle {
    gate_after: usize,
    seen: AtomicUsize,
    released: Mutex<bool>,
    parked: Mutex<bool>,
    cv: Condvar,
}

impl GateOracle {
    fn new(gate_after: usize) -> Self {
        GateOracle {
            gate_after,
            seen: AtomicUsize::new(0),
            released: Mutex::new(false),
            parked: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait_until_parked(&self) {
        let mut parked = self.parked.lock().unwrap();
        while !*parked {
            parked = self.cv.wait(parked).unwrap();
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl Oracle for GateOracle {
    fn accepts(&self, input: &[u8]) -> bool {
        if self.seen.fetch_add(1, Ordering::SeqCst) == self.gate_after {
            *self.parked.lock().unwrap() = true;
            self.cv.notify_all();
            let mut released = self.released.lock().unwrap();
            while !*released {
                released = self.cv.wait(released).unwrap();
            }
        }
        xml_like(input)
    }
}

/// A factory serving `gated-xml` (through `gate`) and a plain `xml`.
fn gated_factory(gate: &Arc<GateOracle>) -> Arc<dyn OracleFactory> {
    let gate = Arc::clone(gate);
    Arc::new(move |spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
        match spec {
            "gated-xml" => Ok((Arc::clone(&gate) as Arc<dyn Oracle>, "test:gated-xml".into())),
            "xml" => Ok((Arc::new(FnOracle::new(xml_like)), "test:xml-like".into())),
            other => Err(format!("unknown test spec {other:?}")),
        }
    })
}

#[test]
fn mid_run_cancel_degrades_one_tenant_without_disturbing_another() {
    let _watchdog = Watchdog::arm("mid_run_cancel_degrades_one_tenant_without_disturbing_another");
    let dir = scratch_dir("cancel");
    let socket = dir.join("sock");
    let gate = Arc::new(GateOracle::new(50));
    let (clean_solo_grammar, clean_solo_stats) =
        solo_run(&FnOracle::new(xml_like), &[vec![b"<a>hi</a>".to_vec()]]);

    let factory = gated_factory(&gate);
    let handle = Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn server");

    // Tenant A's client is built here so the main thread keeps a cancel
    // handle on its socket while the client itself runs on its own thread.
    let mut client_a = ServeClient::connect(&socket).expect("connect A");
    client_a.open(&OpenRequest::new("gated-xml")).expect("open A");
    let mut cancel = client_a.cancel_handle().expect("cancel handle");

    std::thread::scope(|s| {
        let cancelled = s.spawn(move || {
            let outcome = client_a.synthesize(&[b"<a>hi</a>".to_vec()], |_| {}).expect("run A");
            client_a.close().expect("close A");
            outcome
        });
        // Tenant B runs a clean campaign concurrently on its own oracle;
        // A's cancel and its parked query never touch it.
        let clean = s.spawn(|| {
            client_run(&socket, &OpenRequest::new("xml"), &[vec![b"<a>hi</a>".to_vec()]])
        });

        gate.wait_until_parked();
        // The run is provably mid-flight (parked on query 50). Cancel it
        // over A's socket; the accept loop is idle (campaigns run on their
        // own threads) and drains the frame within one bounded poll cycle
        // (100 ms), which the sleep out-waits before the gate reopens.
        cancel.cancel().expect("send CANCEL");
        std::thread::sleep(std::time::Duration::from_millis(400));
        gate.release();

        let outcome = cancelled.join().expect("cancelled tenant");
        assert!(outcome.stats.cancelled, "tenant A must observe the cancel");
        assert!(!outcome.grammar_text.is_empty(), "degraded grammar still present");

        let (clean_grammar, clean_stats, _) = clean.join().expect("clean tenant");
        assert_eq!(clean_grammar, clean_solo_grammar, "tenant B never saw the cancel");
        assert_eq!(count_fields(&clean_stats), count_fields(&clean_solo_stats));
    });

    handle.shutdown().expect("server shutdown");
}

#[test]
fn per_tenant_budget_degrades_only_that_tenant() {
    let _watchdog = Watchdog::arm("per_tenant_budget_degrades_only_that_tenant");
    let dir = scratch_dir("budget");
    let socket = dir.join("sock");
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let (full_grammar, full_stats) =
        solo_run(&FnOracle::new(xml_like), std::slice::from_ref(&seeds));
    let (capped_grammar, capped_stats) =
        solo_run_with(&FnOracle::new(xml_like), std::slice::from_ref(&seeds), Some(120));
    assert!(capped_stats.budget_exhausted, "the cap must bind for this test to mean anything");

    let handle =
        Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn server");

    let (capped, full) = std::thread::scope(|s| {
        let capped = s.spawn(|| {
            let mut request = OpenRequest::new("xml");
            request.max_queries = Some(120);
            client_run(&socket, &request, std::slice::from_ref(&seeds))
        });
        let full =
            s.spawn(|| client_run(&socket, &OpenRequest::new("xml"), std::slice::from_ref(&seeds)));
        (capped.join().expect("capped tenant"), full.join().expect("full tenant"))
    });

    // Budget degradation is query-count-based, so even the degraded run is
    // deterministic and must match its solo baseline byte for byte.
    assert_eq!(capped.0, capped_grammar, "capped tenant matches its capped solo run");
    assert_eq!(count_fields(&capped.1), count_fields(&capped_stats));
    assert!(capped.1.budget_exhausted);
    assert!(!capped.1.cancelled);

    // ... and never perturbs the unbudgeted tenant next door.
    assert_eq!(full.0, full_grammar);
    assert_eq!(count_fields(&full.1), count_fields(&full_stats));
    assert_eq!(full.1.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(full.1.total_queries, GOLDEN_TOTAL);
    assert!(!full.1.budget_exhausted);

    handle.shutdown().expect("server shutdown");
}

#[test]
fn hung_worker_fault_stays_in_its_tenant() {
    let _watchdog = Watchdog::arm("hung_worker_fault_stays_in_its_tenant");
    let dir = scratch_dir("fault-hang");
    let socket = dir.join("sock");
    let seeds_faulty = vec![b"<a>hi</a>".to_vec()];
    let seeds_clean = vec![b"<a><a>deep</a></a>".to_vec()];

    // Baselines: the faulty tenant against a fresh oracle with the same
    // plan (the counter-based hang is deterministic for a single tenant),
    // the clean tenant against a clean oracle.
    let plan = || FaultPlan::new().hang_after(40);
    let (faulty_solo_grammar, faulty_solo_stats) = solo_run(
        &FaultyOracle::new(FnOracle::new(xml_like), plan()),
        std::slice::from_ref(&seeds_faulty),
    );
    assert!(faulty_solo_stats.oracle_failures > 0, "the plan must actually inject faults");
    let (clean_solo_grammar, clean_solo_stats) =
        solo_run(&FnOracle::new(xml_like), std::slice::from_ref(&seeds_clean));

    let factory = Arc::new(move |spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
        match spec {
            "hung-xml" => Ok((
                Arc::new(FaultyOracle::new(FnOracle::new(xml_like), plan())),
                "test:hung-xml".into(),
            )),
            "xml" => Ok((Arc::new(FnOracle::new(xml_like)), "test:xml-like".into())),
            other => Err(format!("unknown test spec {other:?}")),
        }
    });
    let handle = Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn server");

    let (faulty, clean) = std::thread::scope(|s| {
        let faulty = s.spawn(|| {
            client_run(&socket, &OpenRequest::new("hung-xml"), std::slice::from_ref(&seeds_faulty))
        });
        let clean = s.spawn(|| {
            client_run(&socket, &OpenRequest::new("xml"), std::slice::from_ref(&seeds_clean))
        });
        (faulty.join().expect("faulty tenant"), clean.join().expect("clean tenant"))
    });

    assert_eq!(faulty.0, faulty_solo_grammar, "faults degrade deterministically");
    assert_eq!(count_fields(&faulty.1), count_fields(&faulty_solo_stats));
    assert!(faulty.1.oracle_failures > 0);

    assert_eq!(clean.0, clean_solo_grammar, "the clean tenant never sees the hang");
    assert_eq!(count_fields(&clean.1), count_fields(&clean_solo_stats));
    assert_eq!(clean.1.oracle_failures, 0, "fault attribution is per tenant");

    handle.shutdown().expect("server shutdown");
}

#[test]
fn shared_flaky_oracle_attributes_faults_per_tenant() {
    let _watchdog = Watchdog::arm("shared_flaky_oracle_attributes_faults_per_tenant");
    let dir = scratch_dir("fault-shared");
    let socket = dir.join("sock");
    let seed_sets: Vec<Vec<Vec<u8>>> =
        vec![vec![b"<a>hi</a>".to_vec()], vec![b"<a><a>deep</a></a>".to_vec()]];

    // Content-addressed faults (crash_permille hashes the query bytes, not
    // a call counter), so each tenant's fault set is a pure function of
    // its own deterministic query stream — even on one shared oracle.
    let plan = || FaultPlan::new().crash_permille(10).seed(7);
    let baselines: Vec<(String, SynthesisStats)> = seed_sets
        .iter()
        .map(|seeds| {
            solo_run(
                &FaultyOracle::new(FnOracle::new(xml_like), plan()),
                std::slice::from_ref(seeds),
            )
        })
        .collect();

    let factory = Arc::new(move |spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
        match spec {
            "flaky-xml" => Ok((
                Arc::new(FaultyOracle::new(FnOracle::new(xml_like), plan())),
                "test:flaky-xml".into(),
            )),
            other => Err(format!("unknown test spec {other:?}")),
        }
    });
    let handle = Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn server");

    let outcomes: Vec<(String, SynthesisStats, Vec<SynthEvent>)> = std::thread::scope(|s| {
        let joins: Vec<_> = seed_sets
            .iter()
            .map(|seeds| {
                let socket = socket.clone();
                s.spawn(move || {
                    client_run(&socket, &OpenRequest::new("flaky-xml"), std::slice::from_ref(seeds))
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });

    for (tenant, ((grammar, stats, _), (solo_grammar, solo_stats))) in
        outcomes.iter().zip(&baselines).enumerate()
    {
        assert_eq!(
            grammar, solo_grammar,
            "tenant {tenant}: shared-oracle faults must not change the bytes"
        );
        assert_eq!(
            count_fields(stats),
            count_fields(solo_stats),
            "tenant {tenant}: fault attribution must match the solo run"
        );
    }

    handle.shutdown().expect("server shutdown");
}

#[test]
fn persistent_caches_namespace_by_fingerprint_and_survive_restart() {
    let _watchdog = Watchdog::arm("persistent_caches_namespace_by_fingerprint_and_survive_restart");
    let dir = scratch_dir("cache");
    let socket = dir.join("sock");
    let cache_dir = dir.join("caches");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let config = ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let mut request = OpenRequest::new("xml");
    request.cache = true;

    // Cold run on a fresh server.
    let handle = Server::new(test_factory(), config.clone()).spawn(&socket).expect("first spawn");
    let (cold_grammar, cold_stats, _) = client_run(&socket, &request, std::slice::from_ref(&seeds));
    assert_eq!(cold_stats.new_unique_queries, GOLDEN_UNIQUE, "cold start fills the cache");
    handle.shutdown().expect("first shutdown");

    let cache_files = || {
        let mut files: Vec<_> = std::fs::read_dir(&cache_dir)
            .expect("read cache dir")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            // The campaign journal shares the directory; only cache
            // snapshots count here.
            .filter(|name| name.ends_with(".glade-cache"))
            .collect();
        files.sort();
        files
    };
    let after_cold = cache_files();
    assert_eq!(after_cold.len(), 1, "one fingerprint, one cache file: {after_cold:?}");
    assert!(after_cold[0].ends_with(".glade-cache"));

    // Warm run on a *new* server over the same cache directory: the
    // snapshot must be found by fingerprint and re-pay nothing.
    let handle = Server::new(test_factory(), config.clone()).spawn(&socket).expect("second spawn");
    let (warm_grammar, warm_stats, _) = client_run(&socket, &request, std::slice::from_ref(&seeds));
    assert_eq!(warm_grammar, cold_grammar, "warm start reproduces the bytes");
    assert_eq!(warm_stats.new_unique_queries, 0, "warm start re-pays no queries");

    // A campaign against a different oracle gets its own namespace: it
    // must start cold and leave a second cache file behind.
    let mut sc_request = OpenRequest::new("xml-sc");
    sc_request.cache = true;
    let (_, sc_stats, _) = client_run(&socket, &sc_request, std::slice::from_ref(&seeds));
    assert!(sc_stats.new_unique_queries > 0, "a different fingerprint never warm-starts");
    handle.shutdown().expect("second shutdown");
    assert_eq!(cache_files().len(), 2, "each fingerprint owns one cache file");
}

#[test]
fn rejected_seeds_and_empty_runs_leave_the_campaign_usable() {
    let _watchdog = Watchdog::arm("rejected_seeds_and_empty_runs_leave_the_campaign_usable");
    let dir = scratch_dir("rejected");
    let socket = dir.join("sock");
    let handle =
        Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn server");

    // With events on, answers pass through the accept loop; with events
    // off, the campaign thread writes them to the socket itself.
    let mut grammars = Vec::new();
    for events in [true, false] {
        let mut client = ServeClient::connect(&socket).expect("connect");
        let mut request = OpenRequest::new("xml");
        request.events = events;
        client.open(&request).expect("open");

        // An empty first batch has nothing to synthesize from.
        let empty = client.synthesize(&[], |_| {}).expect_err("no seeds yet");
        assert_eq!(empty.kind(), std::io::ErrorKind::InvalidData);

        // A seed the oracle rejects errors without poisoning the campaign.
        let rejected = client.synthesize(&[b"<a>HI</a>".to_vec()], |_| {}).expect_err("bad seed");
        assert_eq!(rejected.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            rejected.to_string().contains("reject"),
            "the server's message names the rejection: {rejected}"
        );

        // The same campaign then completes a normal run with the golden
        // pins (+1: the rejected seed's admission check stays in the
        // session cache), and a second run re-synthesizes from the cache.
        let outcome = client.synthesize(&[b"<a>hi</a>".to_vec()], |_| {}).expect("recovered run");
        assert_eq!(outcome.stats.unique_queries, GOLDEN_UNIQUE + 1, "events {events}");
        assert_eq!(outcome.stats.total_queries, GOLDEN_TOTAL, "events {events}");
        let again = client.synthesize(&[], |_| {}).expect("re-synthesis");
        assert_eq!(again.grammar_text, outcome.grammar_text, "events {events}");
        client.close().expect("close");
        grammars.push(outcome.grammar_text);
    }
    assert_eq!(grammars[0], grammars[1], "both answer paths carry the same grammar");

    handle.shutdown().expect("server shutdown");
}

#[test]
fn interrupted_campaign_resumes_byte_identical_after_restart() {
    let _watchdog = Watchdog::arm("interrupted_campaign_resumes_byte_identical_after_restart");
    let dir = scratch_dir("resume");
    let socket = dir.join("sock");
    let cache_dir = dir.join("caches");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let config = ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };
    let batches =
        vec![vec![b"<a>hi</a>".to_vec()], vec![b"<a><a>deep</a></a>".to_vec(), b"ok".to_vec()]];
    let (solo_grammar, solo_stats) = solo_run(&FnOracle::new(xml_like), &batches);
    let mut request = OpenRequest::new("xml");
    request.cache = true;

    // Server A: run both batches, then die abruptly — the client never
    // sends CLOSE, so the journal keeps the campaign open.
    let handle = Server::new(test_factory(), config.clone()).spawn(&socket).expect("first spawn");
    let campaign_id = {
        let mut client = ServeClient::connect(&socket).expect("connect");
        let (id, _) = client.open(&request).expect("open");
        let first = client.synthesize(&batches[0], |_| {}).expect("first batch");
        assert_eq!(first.stats.unique_queries, GOLDEN_UNIQUE);
        assert_eq!(first.stats.total_queries, GOLDEN_TOTAL);
        client.synthesize(&batches[1], |_| {}).expect("second batch");
        id
        // `client` drops here without close(), like a killed process.
    };
    handle.shutdown().expect("first shutdown");

    // Server B over the same cache dir offers the campaign for resume.
    let server = Server::new(test_factory(), config.clone());
    assert_eq!(server.resumable_campaigns(), vec![campaign_id], "journal lists the campaign");
    let handle = server.spawn(&socket).expect("second spawn");

    let mut client = ServeClient::connect(&socket).expect("reconnect");
    let (resumed_id, fingerprint) = client.resume(campaign_id).expect("resume");
    assert_eq!(resumed_id, campaign_id);
    assert_eq!(fingerprint, "test:xml-like");
    let replayed = client.resume_result(|_| {}).expect("replay result");
    assert_eq!(replayed.grammar_text, solo_grammar, "resume reproduces the bytes");
    assert_eq!(
        replayed.stats.unique_queries, solo_stats.unique_queries,
        "replay re-runs the same deterministic query stream"
    );
    assert_eq!(
        replayed.stats.new_unique_queries, 0,
        "a checkpointed campaign re-pays no oracle queries on resume"
    );

    // A second claim on the same id must fail (the first client owns it).
    // A rejected RESUME ends that connection, so each probe gets its own.
    let mut second = ServeClient::connect(&socket).expect("second connect");
    let err = second.resume(campaign_id).expect_err("double resume");
    assert!(err.to_string().contains("not resumable"), "claim is exclusive: {err}");
    let mut third = ServeClient::connect(&socket).expect("third connect");
    let err = third.resume(9999).expect_err("unknown id");
    assert!(err.to_string().contains("not resumable"), "unknown ids are rejected: {err}");

    // The resumed campaign keeps serving: an empty batch re-synthesizes.
    let again = client.synthesize(&[], |_| {}).expect("re-synthesis after resume");
    assert_eq!(again.grammar_text, solo_grammar);
    client.close().expect("clean close");
    handle.shutdown().expect("second shutdown");

    // The clean close retired the journal entry: server C offers nothing.
    let server = Server::new(test_factory(), config);
    assert!(server.resumable_campaigns().is_empty(), "closed campaigns are not resumable");
}

#[test]
fn resume_against_a_journalless_server_names_the_missing_journal() {
    let _watchdog = Watchdog::arm("resume_against_a_journalless_server_names_the_missing_journal");
    let dir = scratch_dir("nojournal");
    let socket = dir.join("sock");
    // No cache_dir: the server keeps no journal, so RESUME can never work —
    // the error must say *why* (no journal), not just "unknown campaign".
    let handle =
        Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn server");

    let mut client = ServeClient::connect(&socket).expect("connect");
    let err = client.resume(1).expect_err("resume without a journal");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "clean ERROR frame, not a hangup");
    assert!(
        err.to_string().contains("no journal") && err.to_string().contains("--cache-dir"),
        "the error names the missing journal and its cause: {err}"
    );

    handle.shutdown().expect("server shutdown");
}

/// A cache-dir file the daemon must not replay (another oracle's, or not
/// a `glade-cachebin v1` snapshot at all) costs one cold campaign, never
/// a verdict: the checkpoint replaces it, and warm starts resume.
#[test]
fn serve_cache_format_flip_keeps_warm_starts() {
    let _watchdog = Watchdog::arm("serve_cache_format_flip_keeps_warm_starts");
    let dir = scratch_dir("cachefmt");
    let socket = dir.join("sock");
    let cache_dir = dir.join("caches");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let mut request = OpenRequest::new("xml");
    request.cache = true;
    let config = ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };

    // Cold run: the daemon checkpoints in the binary format.
    let handle = Server::new(test_factory(), config.clone()).spawn(&socket).expect("first spawn");
    let (cold_grammar, cold_stats, _) = client_run(&socket, &request, std::slice::from_ref(&seeds));
    assert_eq!(cold_stats.new_unique_queries, GOLDEN_UNIQUE, "cold start fills the cache");
    handle.shutdown().expect("first shutdown");

    let snapshot_path = std::fs::read_dir(&cache_dir)
        .expect("read cache dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "glade-cache"))
        .expect("one cache snapshot");
    let bytes = std::fs::read(&snapshot_path).expect("read snapshot");
    assert!(bytes.starts_with(b"glade-cachebin v1\n"), "the daemon checkpoints in binary");

    // Replace the checkpoint with a file the daemon must not replay: a
    // binary snapshot tagged for another oracle, then a pre-binary text
    // snapshot. Either way the campaign starts cold, learns the same
    // grammar, and its checkpoint replaces the file with the binary
    // snapshot of this oracle's cache.
    let snapshot = glade_core::snapshot_from_binary(&bytes).expect("binary snapshot parses");
    let foreign =
        glade_core::snapshot_to_binary(&snapshot.entries, &snapshot.memo, Some("test:other"));
    let text = b"glade-cache v1\nq 1 3c613e68693c2f613e\n".to_vec();
    for (name, file) in [("foreign-tagged", foreign), ("text", text)] {
        std::fs::write(&snapshot_path, &file).expect("write snapshot");
        let handle = Server::new(test_factory(), config.clone()).spawn(&socket).expect("respawn");
        let (grammar, stats, _) = client_run(&socket, &request, std::slice::from_ref(&seeds));
        assert_eq!(grammar, cold_grammar, "{name} snapshot changed the grammar");
        assert_eq!(stats.new_unique_queries, GOLDEN_UNIQUE, "{name} snapshot was replayed");
        handle.shutdown().expect("cold shutdown");
        let rewritten = std::fs::read(&snapshot_path).expect("read snapshot");
        assert_eq!(rewritten, bytes, "the checkpoint replaced the {name} snapshot");
    }

    // And the binary rewrite warm-starts the next daemon too.
    let handle = Server::new(test_factory(), config).spawn(&socket).expect("third spawn");
    let (rewarm_grammar, rewarm_stats, _) =
        client_run(&socket, &request, std::slice::from_ref(&seeds));
    assert_eq!(rewarm_grammar, cold_grammar, "binary snapshot reproduces the bytes");
    assert_eq!(rewarm_stats.new_unique_queries, 0, "binary warm start re-pays no queries");
    handle.shutdown().expect("third shutdown");
}

#[test]
fn draining_server_finishes_campaigns_and_rejects_new_ones() {
    let _watchdog = Watchdog::arm("draining_server_finishes_campaigns_and_rejects_new_ones");
    let dir = scratch_dir("drain");
    let socket = dir.join("sock");
    let gate = Arc::new(GateOracle::new(50));
    let (solo_grammar, solo_stats) =
        solo_run(&FnOracle::new(xml_like), &[vec![b"<a>hi</a>".to_vec()]]);

    let factory = gated_factory(&gate);
    let handle = Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn");

    let mut client_a = ServeClient::connect(&socket).expect("connect A");
    client_a.open(&OpenRequest::new("gated-xml")).expect("open A");
    let mut client_b = ServeClient::connect(&socket).expect("connect B");

    let outcome = std::thread::scope(|s| {
        let running = s.spawn(move || {
            let outcome = client_a.synthesize(&[b"<a>hi</a>".to_vec()], |_| {}).expect("run A");
            // A draining server retires the connection the instant the
            // final result is flushed — it must not wait on a client that
            // might never say goodbye — so this CLOSE can lose the race
            // and hit a closed socket. Best-effort by design.
            let _ = client_a.close();
            outcome
        });
        gate.wait_until_parked();
        // The campaign is provably mid-flight. Drain now.
        handle.drain();
        // Give the accept loop a poll cycle to observe the drain flag,
        // then verify new work is refused on an already-open connection.
        std::thread::sleep(std::time::Duration::from_millis(400));
        let err = client_b.open(&OpenRequest::new("xml")).expect_err("open while draining");
        assert!(err.to_string().contains("drain"), "rejection names the drain: {err}");
        gate.release();
        running.join().expect("running campaign thread")
    });

    // The in-flight campaign finished normally under drain — full result,
    // no cancellation, byte-identical grammar.
    assert!(!outcome.stats.cancelled, "draining must not cancel a finishing campaign");
    assert_eq!(outcome.grammar_text, solo_grammar);
    assert_eq!(count_fields(&outcome.stats), count_fields(&solo_stats));

    // With every connection retired the drained loop exits on its own and
    // unlinks the socket.
    handle.wait().expect("drained server exits cleanly");
    assert!(!socket.exists(), "drained server unlinks its socket");
}

#[test]
fn slow_reader_is_demoted_to_result_only() {
    let _watchdog = Watchdog::arm("slow_reader_is_demoted_to_result_only");
    let dir = scratch_dir("demote");
    let socket = dir.join("sock");
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let (solo_grammar, solo_stats) =
        solo_run(&FnOracle::new(xml_like), std::slice::from_ref(&seeds));

    // `max_event_buffer: 0` is the deterministic worst case: every reader
    // is "too slow" immediately, so the whole event stream must collapse
    // into one events-dropped notice without perturbing the campaign.
    let config = ServeConfig { max_event_buffer: Some(0), ..ServeConfig::default() };
    let handle = Server::new(test_factory(), config).spawn(&socket).expect("spawn");

    let (grammar, stats, events) =
        client_run(&socket, &OpenRequest::new("xml"), std::slice::from_ref(&seeds));
    assert_eq!(grammar, solo_grammar, "demotion never changes the grammar bytes");
    assert_eq!(count_fields(&stats), count_fields(&solo_stats));
    assert_eq!(stats.unique_queries, GOLDEN_UNIQUE);
    assert_eq!(
        events.len(),
        1,
        "a demoted connection gets exactly one events-dropped notice: {events:?}"
    );
    let SynthEvent::EventsDropped { dropped } = events[0] else {
        panic!("expected an events-dropped notice, got {:?}", events[0]);
    };
    assert!(dropped > 0, "the notice counts the losses");

    handle.shutdown().expect("shutdown");
}

/// Writes one `glade-serve` frame (length prefix + tag + body) raw.
fn write_raw_frame(stream: &mut std::os::unix::net::UnixStream, tag: u8, body: &[u8]) {
    use std::io::Write as _;
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(tag);
    payload.extend_from_slice(body);
    stream.write_all(&u32::try_from(payload.len()).unwrap().to_le_bytes()).expect("write len");
    stream.write_all(&payload).expect("write payload");
}

/// Reads one raw frame: (tag, body).
fn read_raw_frame(stream: &mut std::os::unix::net::UnixStream) -> (u8, Vec<u8>) {
    use std::io::Read as _;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("read len");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("read payload");
    let body = payload.split_off(1);
    (payload[0], body)
}

#[test]
fn only_the_v2_banner_opens_a_session() {
    let _watchdog = Watchdog::arm("only_the_v2_banner_opens_a_session");
    let dir = scratch_dir("banners");
    let socket = dir.join("sock");
    let handle = Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn");

    // The retired v1 banner and an unknown one are refused with a clean
    // ERROR, and the server hangs up.
    for banner in [&b"glade-serve v1"[..], b"glade-serve v3"] {
        let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
        write_raw_frame(&mut stream, 0x01, banner);
        let (tag, body) = read_raw_frame(&mut stream);
        assert_eq!(tag, 0x85, "ERROR for {:?}", String::from_utf8_lossy(banner));
        assert!(String::from_utf8_lossy(&body).contains("protocol"), "{body:?}");
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut stream, &mut rest).expect("read to hang-up");
        assert!(rest.is_empty(), "nothing follows the refusal");
    }

    // A v2 HELLO on the same server still opens a campaign.
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect v2");
    write_raw_frame(&mut stream, 0x01, b"glade-serve v2");
    let (tag, body) = read_raw_frame(&mut stream);
    assert_eq!(tag, 0x81, "HELLO_ACK");
    assert_eq!(body, b"glade-serve v2", "the server echoes the banner");
    write_raw_frame(&mut stream, 0x02, b"oracle xml\n");
    let (tag, body) = read_raw_frame(&mut stream);
    assert_eq!(tag, 0x82, "OPEN_ACK");
    assert!(body.len() > 4, "OPEN_ACK carries id + fingerprint");
    write_raw_frame(&mut stream, 0x05, b"");

    handle.shutdown().expect("shutdown");
}

/// Connects raw and completes the `HELLO` exchange.
fn raw_greeted(socket: &std::path::Path) -> std::os::unix::net::UnixStream {
    let mut stream = std::os::unix::net::UnixStream::connect(socket).expect("connect");
    write_raw_frame(&mut stream, 0x01, b"glade-serve v2");
    assert_eq!(read_raw_frame(&mut stream).0, 0x81, "HELLO_ACK");
    stream
}

/// Reads the ERROR frame that ends a connection, and the hang-up after it.
fn read_refusal(stream: &mut std::os::unix::net::UnixStream) -> String {
    let (tag, body) = read_raw_frame(stream);
    assert_eq!(tag, 0x85, "ERROR, got {:?}", String::from_utf8_lossy(&body));
    let mut rest = Vec::new();
    std::io::Read::read_to_end(stream, &mut rest).expect("read to hang-up");
    assert!(rest.is_empty(), "nothing follows the refusal");
    String::from_utf8(body).expect("utf-8 message")
}

/// `OPEN` and `RESUME` share their refusals: a connection seats one
/// campaign, whichever frame asks for a second.
#[test]
fn a_second_open_or_resume_on_a_connection_is_refused() {
    let _watchdog = Watchdog::arm("a_second_open_or_resume_on_a_connection_is_refused");
    let dir = scratch_dir("second-seat");
    let socket = dir.join("sock");
    let handle = Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn");

    for (tag, body) in [(0x02, b"oracle xml\n".to_vec()), (0x06, 1u32.to_le_bytes().to_vec())] {
        let mut stream = raw_greeted(&socket);
        write_raw_frame(&mut stream, 0x02, b"oracle xml\n");
        assert_eq!(read_raw_frame(&mut stream).0, 0x82, "OPEN_ACK");
        write_raw_frame(&mut stream, tag, &body);
        assert_eq!(read_refusal(&mut stream), "campaign already open on this connection");
    }

    handle.shutdown().expect("shutdown");
}

#[test]
fn resume_to_a_draining_server_is_refused() {
    let _watchdog = Watchdog::arm("resume_to_a_draining_server_is_refused");
    let dir = scratch_dir("drain-resume");
    let socket = dir.join("sock");
    let gate = Arc::new(GateOracle::new(50));
    let handle =
        Server::new(gated_factory(&gate), ServeConfig::default()).spawn(&socket).expect("spawn");

    // A parked campaign keeps the draining loop alive; the second
    // connection is accepted before the drain stops the listener.
    let mut running = ServeClient::connect(&socket).expect("connect");
    running.open(&OpenRequest::new("gated-xml")).expect("open");
    let mut late = raw_greeted(&socket);
    let refusal = std::thread::scope(|s| {
        let run = s.spawn(move || {
            running.synthesize(&[b"<a>hi</a>".to_vec()], |_| {}).expect("run");
            let _ = running.close();
        });
        gate.wait_until_parked();
        handle.drain();
        std::thread::sleep(std::time::Duration::from_millis(400));
        write_raw_frame(&mut late, 0x06, 1u32.to_le_bytes().as_slice());
        let refusal = read_raw_frame(&mut late);
        gate.release();
        run.join().expect("running campaign thread");
        refusal
    });
    assert_eq!(refusal, (0x85, b"server is draining; no new campaigns".to_vec()), "ERROR");

    handle.wait().expect("drained server exits cleanly");
}

/// A `RESUME` whose oracle fails to build takes nothing: the error names
/// the spec, and the next `RESUME` claims the campaign and replays it.
#[test]
fn resume_whose_oracle_fails_keeps_the_campaign_resumable() {
    let _watchdog = Watchdog::arm("resume_whose_oracle_fails_keeps_the_campaign_resumable");
    let dir = scratch_dir("resume-retry");
    let socket = dir.join("sock");
    let cache_dir = dir.join("caches");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let config = ServeConfig { cache_dir: Some(cache_dir), ..ServeConfig::default() };
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let (solo_grammar, _) = solo_run(&FnOracle::new(xml_like), std::slice::from_ref(&seeds));
    let mut request = OpenRequest::new("xml");
    request.cache = true;

    // Run one batch, then drop the connection without CLOSE.
    let handle = Server::new(test_factory(), config.clone()).spawn(&socket).expect("first spawn");
    let campaign_id = {
        let mut client = ServeClient::connect(&socket).expect("connect");
        let (id, _) = client.open(&request).expect("open");
        client.synthesize(&seeds, |_| {}).expect("batch");
        id
    };
    handle.shutdown().expect("first shutdown");

    // The restarted server's factory fails its first call.
    let failed_once = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let factory: Arc<dyn OracleFactory> = {
        let (inner, failed_once) = (test_factory(), Arc::clone(&failed_once));
        Arc::new(move |spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
            if !failed_once.swap(true, Ordering::SeqCst) {
                return Err("factory unavailable".into());
            }
            inner.create(spec)
        })
    };
    let server = Server::new(factory, config);
    assert_eq!(server.resumable_campaigns(), vec![campaign_id]);
    let handle = server.spawn(&socket).expect("second spawn");

    let mut first = raw_greeted(&socket);
    write_raw_frame(&mut first, 0x06, &campaign_id.to_le_bytes());
    let err = read_refusal(&mut first);
    assert!(err.contains("\"xml\"") && err.contains("factory unavailable"), "{err}");
    assert!(failed_once.load(Ordering::SeqCst), "the factory was asked");

    let mut client = ServeClient::connect(&socket).expect("reconnect");
    let (resumed_id, _) = client.resume(campaign_id).expect("second resume claims it");
    assert_eq!(resumed_id, campaign_id);
    let replayed = client.resume_result(|_| {}).expect("replay result");
    assert_eq!(replayed.grammar_text, solo_grammar, "resume reproduces the bytes");
    assert_eq!(replayed.stats.new_unique_queries, 0, "the replay runs over the warm cache");
    client.close().expect("clean close");
    handle.shutdown().expect("second shutdown");
}

#[test]
fn unknown_oracle_specs_are_rejected_by_name() {
    let _watchdog = Watchdog::arm("unknown_oracle_specs_are_rejected_by_name");
    let dir = scratch_dir("unknown-spec");
    let socket = dir.join("sock");
    let handle =
        Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn server");

    let mut client = ServeClient::connect(&socket).expect("connect");
    let err = client.open(&OpenRequest::new("no-such-spec")).expect_err("unknown spec");
    assert!(err.to_string().contains("no-such-spec"), "the error names the spec: {err}");

    handle.shutdown().expect("server shutdown");
}

/// `ServeClient::connect` only sends the banner; the server's answer is
/// read with the answer to the first request, so a server that refuses the
/// banner (and hangs up) fails `open` with the server's own message.
#[test]
fn refused_banner_surfaces_at_open() {
    use std::io::{Read, Write};
    let _watchdog = Watchdog::arm("refused_banner_surfaces_at_open");
    let dir = scratch_dir("banner");
    let socket = dir.join("sock");
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).expect("HELLO length");
        let mut hello = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut hello).expect("HELLO body");
        let message = b"unsupported protocol version";
        let mut frame = (message.len() as u32 + 1).to_le_bytes().to_vec();
        frame.push(0x85); // ERROR
        frame.extend_from_slice(message);
        stream.write_all(&frame).expect("ERROR frame");
        hello
    });

    let mut client = ServeClient::connect(&socket).expect("connect sends the banner only");
    let err = client.open(&OpenRequest::new("xml")).expect_err("refused banner");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("unsupported protocol"), "server's message: {err}");
    let hello = server.join().expect("fake server");
    assert_eq!(hello[0], 0x01, "the client opened with HELLO");
}

/// A campaign parked inside one oracle holds nothing another campaign
/// needs: a campaign on a different oracle runs to its `RESULT` while the
/// first is still parked.
#[test]
fn parked_campaign_does_not_delay_a_campaign_on_another_oracle() {
    let _watchdog = Watchdog::arm("parked_campaign_does_not_delay_a_campaign_on_another_oracle");
    let dir = scratch_dir("parked");
    let socket = dir.join("sock");
    let gate = Arc::new(GateOracle::new(50));
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let (solo_grammar, solo_stats) =
        solo_run(&FnOracle::new(xml_like), std::slice::from_ref(&seeds));

    let factory = gated_factory(&gate);
    let handle = Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn server");

    std::thread::scope(|s| {
        let parked = s.spawn(|| {
            client_run(&socket, &OpenRequest::new("gated-xml"), std::slice::from_ref(&seeds))
        });
        gate.wait_until_parked();
        // The gate stays shut until B has its result.
        let (grammar, stats, _) =
            client_run(&socket, &OpenRequest::new("xml"), std::slice::from_ref(&seeds));
        assert_eq!(grammar, solo_grammar, "B finished while A was parked");
        assert_eq!(count_fields(&stats), count_fields(&solo_stats));
        gate.release();
        let (grammar, stats, _) = parked.join().expect("parked tenant");
        assert_eq!(grammar, solo_grammar, "A resumes unharmed");
        assert_eq!(count_fields(&stats), count_fields(&solo_stats));
    });

    handle.shutdown().expect("server shutdown");
}

/// An [`xml_like`] oracle whose batch calls meet in pairs: each call blocks
/// until a second call is in flight at the same time. It batches natively,
/// so the engine hands it whole miss sets. Campaign threads
/// call one at a time, so a pair is always one call from each of two
/// tenants. A call that waits longer than the limit records the miss and
/// stops the meeting for good, so a serializing server fails the test
/// instead of hanging it.
struct RendezvousOracle {
    state: Mutex<(usize, u64)>,
    cv: Condvar,
    missed: std::sync::atomic::AtomicBool,
    meetings: AtomicUsize,
}

impl RendezvousOracle {
    const LIMIT: std::time::Duration = std::time::Duration::from_secs(10);

    fn new() -> Self {
        RendezvousOracle {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            missed: std::sync::atomic::AtomicBool::new(false),
            meetings: AtomicUsize::new(0),
        }
    }

    fn meet(&self) {
        if self.missed.load(Ordering::SeqCst) {
            return;
        }
        let mut state = self.state.lock().unwrap();
        let generation = state.1;
        state.0 += 1;
        if state.0 == 2 {
            *state = (0, generation + 1);
            self.meetings.fetch_add(1, Ordering::SeqCst);
            self.cv.notify_all();
            return;
        }
        let deadline = std::time::Instant::now() + Self::LIMIT;
        while state.1 == generation {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                self.missed.store(true, Ordering::SeqCst);
                state.0 -= 1;
                return;
            }
            state = self.cv.wait_timeout(state, left).unwrap().0;
        }
    }
}

impl Oracle for RendezvousOracle {
    fn accepts(&self, input: &[u8]) -> bool {
        xml_like(input)
    }

    fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        self.meet();
        inputs.iter().map(|i| Some(xml_like(i))).collect()
    }

    fn native_batching(&self) -> bool {
        true
    }
}

/// Tenants sharing one oracle call it at the same time: every batch call
/// of two identical campaigns meets a call of the other one.
#[test]
fn tenants_sharing_an_oracle_call_it_concurrently() {
    let _watchdog = Watchdog::arm("tenants_sharing_an_oracle_call_it_concurrently");
    let dir = scratch_dir("rendezvous");
    let socket = dir.join("sock");
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let (solo_grammar, solo_stats) =
        solo_run(&FnOracle::new(xml_like), std::slice::from_ref(&seeds));

    let shared = Arc::new(RendezvousOracle::new());
    let factory_oracle = Arc::clone(&shared);
    let factory = Arc::new(move |spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
        match spec {
            "meet-xml" => {
                Ok((Arc::clone(&factory_oracle) as Arc<dyn Oracle>, "test:meet-xml".into()))
            }
            other => Err(format!("unknown test spec {other:?}")),
        }
    });
    let handle = Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn server");

    let outcomes: Vec<(String, SynthesisStats, Vec<SynthEvent>)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    client_run(&socket, &OpenRequest::new("meet-xml"), std::slice::from_ref(&seeds))
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("client thread")).collect()
    });

    assert!(!shared.missed.load(Ordering::SeqCst), "a call waited alone: tenants were serialized");
    assert!(shared.meetings.load(Ordering::SeqCst) > 0, "the tenants' calls met");
    for (tenant, (grammar, stats, _)) in outcomes.iter().enumerate() {
        assert_eq!(grammar, &solo_grammar, "tenant {tenant}");
        assert_eq!(count_fields(stats), count_fields(&solo_stats), "tenant {tenant}");
    }

    handle.shutdown().expect("server shutdown");
}

/// Summed query tallies lose nothing: per run, the served stream's tally
/// fields add up to the local session's, and its lifecycle events are the
/// local ones in the same order (stage times aside).
#[test]
fn served_event_stream_matches_a_local_event_log() {
    let _watchdog = Watchdog::arm("served_event_stream_matches_a_local_event_log");
    let dir = scratch_dir("event-sums");
    let socket = dir.join("sock");
    let batches =
        vec![vec![b"<a>hi</a>".to_vec()], vec![b"<a><a>deep</a></a>".to_vec(), b"ok".to_vec()]];

    /// Lifecycle events with stage times zeroed, and the tally sums.
    fn split(events: &[SynthEvent]) -> (Vec<SynthEvent>, [usize; 3]) {
        let mut lifecycle = Vec::new();
        let mut sums = [0usize; 3];
        for event in events {
            match event {
                SynthEvent::QueryBatch { checks, cached, posed } => {
                    sums[0] += checks;
                    sums[1] += cached;
                    sums[2] += posed;
                }
                SynthEvent::PhaseFinished { phase, unique_queries, .. } => {
                    lifecycle.push(SynthEvent::PhaseFinished {
                        phase: *phase,
                        elapsed: std::time::Duration::ZERO,
                        unique_queries: *unique_queries,
                    });
                }
                other => lifecycle.push(other.clone()),
            }
        }
        (lifecycle, sums)
    }

    let oracle = FnOracle::new(xml_like);
    let local: Vec<Vec<SynthEvent>> = {
        let log = Arc::new(EventLog::new());
        let mut session = GladeBuilder::new().observer(log.clone()).session(&oracle);
        let mut runs = Vec::new();
        for batch in &batches {
            let before = log.events().len();
            session.add_seeds(batch).expect("local run");
            runs.push(log.events()[before..].to_vec());
        }
        runs
    };

    let handle =
        Server::new(test_factory(), ServeConfig::default()).spawn(&socket).expect("spawn server");
    let mut client = ServeClient::connect(&socket).expect("connect");
    client.open(&OpenRequest::new("xml")).expect("open");
    for (run, batch) in batches.iter().enumerate() {
        let mut served = Vec::new();
        client.synthesize(batch, |event| served.push(event)).expect("synthesize");
        let (served_lifecycle, served_sums) = split(&served);
        let (local_lifecycle, local_sums) = split(&local[run]);
        assert!(local_sums[0] > 0, "run {run} posed checks");
        assert_eq!(served_sums, local_sums, "run {run}: tally totals");
        assert_eq!(served_lifecycle, local_lifecycle, "run {run}: lifecycle events");
        assert!(
            local_lifecycle.iter().any(
                |e| matches!(e, SynthEvent::PhaseStarted { phase } if *phase == SynthPhase::Phase2)
            ),
            "run {run} covers every stage"
        );
    }
    client.close().expect("close");

    handle.shutdown().expect("server shutdown");
}
