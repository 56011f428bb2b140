//! `bench-queries` — the gates perfbench cannot see, emitted as
//! `BENCH_queries.json`.
//!
//! perfbench (`BENCHMARK.json`) times synthesis end to end and layer by
//! layer. This binary keeps only the three properties it does not measure.
//! Each experiment runs [`RUNS`] times; every timing and throughput is
//! written as its median with lower and upper quartiles, and every
//! timing gate reads the median:
//!
//! 1. **`pooled_vs_spawn`** — real process-target oracle throughput. The
//!    bench binary re-executes *itself* as a protocol worker
//!    (`--oracle-worker`, via `glade_core::serve_oracle_worker`) and as a
//!    spawn-per-query target (`--oracle-once`), then measures spawn-per-
//!    query `ProcessOracle` against a fresh `PooledProcessOracle`, cold
//!    (pool spawn included) and warm. Gate: the median warm-pool over
//!    spawn-per-query throughput is ≥ 5×.
//! 2. **`fault_recovery`** — throughput and query accounting under
//!    injected faults, against a clean pool under the same query
//!    deadline. Three cells over the same workload: a clean pool (zero
//!    failures/respawns/timeouts/trips — the deadline machinery is free
//!    when nothing hangs), a crashy pool (`--crashy-worker`, a seeded
//!    `glade_core::FaultPlan` poisons ~10% of query *contents* so they
//!    kill every worker that touches them, defeating replay and forcing
//!    the spawn-per-query fallback), and a hangy pool (`--hangy-worker`
//!    hangs after 64 answers; only the deadline unwedges it). Gate, on
//!    every run: every verdict in every cell matches the in-process
//!    reference, and the counters above hold exactly.
//! 3. **`serve_overhead`** — the multi-tenant `glade serve` path against
//!    a direct in-process session on the running example, timed as
//!    alternating direct/served pairs. The served grammar and query count
//!    must match, and the gate is the median per-pair served/direct
//!    ratio ≤ 1.5.
//!
//! Every experiment runs before any gate is judged, so one missed gate
//! does not discard the other experiments' numbers. The JSON lists the
//! missed gates under `failed_gates` (empty on a passing run), and the
//! bench then exits nonzero naming each of them. A verdict or counter
//! that is wrong on any run is not a gate miss: it stops the bench at
//! once.
//!
//! Usage: `cargo run --release -p glade-bench --bin bench-queries`
//! (writes `BENCH_queries.json` to the current directory, override with
//! `GLADE_BENCH_OUT`). Workload sizes are env-tunable for CI smoke runs:
//! `GLADE_BENCH_SPAWN_QUERIES` (default 48) and `GLADE_BENCH_POOLED_QUERIES`
//! (512). A knob set to something that is not a number stops the bench.

#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_bench::env_usize;
use glade_bench::Json;
use glade_core::{serve_faulty_worker, serve_oracle_worker, FaultPlan, Oracle};
#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_core::{GladeBuilder, PooledProcessOracle, ProcessOracle};
#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_grammar::grammar_to_text;
use glade_targets::languages::toy_xml;
use std::io::Read as _;
#[cfg(any(target_os = "linux", target_os = "macos"))]
use std::path::Path;
#[cfg(any(target_os = "linux", target_os = "macos"))]
use std::{
    sync::atomic::{AtomicUsize, Ordering},
    time::{Duration, Instant},
};

/// A timing gate's verdict: `Err` carries the miss's message.
type Gate = Result<(), String>;

/// `Ok` when `pass` holds, else the message `why` builds.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn gate(pass: bool, why: impl FnOnce() -> String) -> Gate {
    if pass {
        Ok(())
    } else {
        Err(why())
    }
}

/// Runs per experiment (pairs, for `serve_overhead`): enough for a median
/// and quartiles of a ~0.5 ms served run on a noisy 2-vCPU host.
const RUNS: usize = 15;

/// `fault_recovery` workload: queries per cell, and the query deadline
/// that is the only way out of a `--hangy-worker` hang.
#[cfg(any(target_os = "linux", target_os = "macos"))]
const FAULT_QUERIES: usize = 512;
#[cfg(any(target_os = "linux", target_os = "macos"))]
const FAULT_TIMEOUT: Duration = Duration::from_millis(250);

/// Seconds since `start`.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Distinct inputs for the process-oracle experiments: a mix of valid and
/// invalid toy-XML documents, `offset` shifting the set so the warm pooled
/// round sees fresh queries.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn process_workload(count: usize, offset: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let n = offset + i;
            if n.is_multiple_of(3) {
                format!("<a>{}</a", "h".repeat(n % 17)).into_bytes() // truncated: invalid
            } else {
                format!("<a>{}</a>", "hi".repeat(n % 23)).into_bytes()
            }
        })
        .collect()
}

fn main() {
    // Self-exec worker modes: the process-oracle experiments drive this
    // binary as its own real process target, so the benchmark needs no
    // external worker binary to be built or located.
    match std::env::args().nth(1).as_deref() {
        Some("--oracle-worker") => {
            // Persistent protocol worker for PooledProcessOracle.
            let oracle = toy_xml().oracle();
            serve_oracle_worker(|input| oracle.accepts(input)).expect("worker protocol");
            return;
        }
        Some("--crashy-worker") => {
            // Fault-injected worker for the fault_recovery experiment:
            // ~10% of query contents are poisoned by the seeded content
            // hash and kill every worker that touches them — replay on a
            // fresh worker fails too, so exactly those queries must
            // degrade to the spawn-per-query fallback.
            let oracle = toy_xml().oracle();
            let plan = FaultPlan::new().crash_permille(100).seed(0x5eed);
            serve_faulty_worker(&plan, move |input| oracle.accepts(input))
                .expect("worker protocol");
            return;
        }
        Some("--hangy-worker") => {
            // Hangs (without exiting) after 64 answers: only a query
            // deadline can unwedge the pool.
            let oracle = toy_xml().oracle();
            let plan = FaultPlan::new().hang_after(64);
            serve_faulty_worker(&plan, move |input| oracle.accepts(input))
                .expect("worker protocol");
            return;
        }
        Some("--oracle-once") => {
            // Spawn-per-query target for ProcessOracle: verdict = exit 0.
            let oracle = toy_xml().oracle();
            let mut input = Vec::new();
            std::io::stdin().read_to_end(&mut input).expect("read stdin");
            std::process::exit(i32::from(!oracle.accepts(&input)));
        }
        _ => {}
    }

    let out_path = std::env::var("GLADE_BENCH_OUT").unwrap_or_else(|_| "BENCH_queries.json".into());

    let mut j = Json::new();
    j.open_obj(None);
    j.string("bench", "glade-bench gates perfbench cannot see");
    j.int("available_parallelism", std::thread::available_parallelism().map_or(1, |n| n.get()));
    j.int("runs", RUNS);

    // The process pool and the server exist on Linux and macOS only.
    #[cfg(any(target_os = "linux", target_os = "macos"))]
    let gates = {
        let self_exe = std::env::current_exe().expect("current_exe");
        let pooled = pooled_vs_spawn(&mut j, &self_exe);
        fault_recovery(&mut j, &self_exe);
        vec![("pooled_vs_spawn", pooled), ("serve_overhead", serve_overhead(&mut j))]
    };
    #[cfg(not(any(target_os = "linux", target_os = "macos")))]
    let gates: Vec<(&str, Gate)> = Vec::new();

    let failed: Vec<&str> =
        gates.iter().filter(|(_, verdict)| verdict.is_err()).map(|(name, _)| *name).collect();
    j.strings("failed_gates", &failed);
    j.close_obj();
    std::fs::write(&out_path, format!("{}\n", j.finish())).expect("write BENCH_queries.json");
    eprintln!("[bench-queries] wrote {out_path}");
    for (name, verdict) in &gates {
        if let Err(why) = verdict {
            eprintln!("[bench-queries] gate {name} failed: {why}");
        }
    }
    if !failed.is_empty() {
        eprintln!("[bench-queries] failed gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// Spawn-per-query `ProcessOracle` against a fresh `PooledProcessOracle`
/// per run. Spawn-per-query pays a full process start per verdict, the
/// pool pays one start per worker and a pipe round-trip per verdict.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn pooled_vs_spawn(j: &mut Json, self_exe: &Path) -> Gate {
    let spawn_queries = env_usize("GLADE_BENCH_SPAWN_QUERIES", 48);
    let pooled_queries = env_usize("GLADE_BENCH_POOLED_QUERIES", 512);
    let pool_workers = 4usize;
    let reference = toy_xml().oracle();
    let spawn_workload = process_workload(spawn_queries, 0);
    let cold_workload = process_workload(pooled_queries, 10_000);
    let warm_workload = process_workload(pooled_queries, 20_000);

    let [mut spawn_qps, mut cold_qps, mut warm_qps, mut speedup, mut respawns] =
        std::array::from_fn(|_| Vec::with_capacity(RUNS));
    for _ in 0..RUNS {
        let spawn_oracle = ProcessOracle::new(self_exe).arg("--oracle-once");
        let start = Instant::now();
        for input in &spawn_workload {
            assert_eq!(spawn_oracle.accepts(input), reference.accepts(input), "spawn verdict");
        }
        let spawn = spawn_queries as f64 / secs_since(start).max(1e-9);

        let pooled_oracle = PooledProcessOracle::new(self_exe)
            .arg("--oracle-worker")
            .pool_size(pool_workers)
            // A *fresh* fallback oracle: ProcessOracle clones share a
            // failure counter, and any transient spawn failure absorbed by
            // the spawn round above must not bleed into the failure assert.
            .fallback(ProcessOracle::new(self_exe).arg("--oracle-once"));
        // Queries fan out across threads the way the engine's batch
        // dispatch would.
        let pose_all = |inputs: &[Vec<u8>]| {
            let start = Instant::now();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..pool_workers {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(i) else { break };
                        assert_eq!(
                            pooled_oracle.accepts(input),
                            reference.accepts(input),
                            "pooled verdict"
                        );
                    });
                }
            });
            pooled_queries as f64 / secs_since(start).max(1e-9)
        };
        // Cold includes the lazy worker spawns.
        cold_qps.push(pose_all(&cold_workload));
        let warm = pose_all(&warm_workload);
        assert_eq!(pooled_oracle.failure_count(), 0, "pooled path degraded to the fallback");
        spawn_qps.push(spawn);
        warm_qps.push(warm);
        speedup.push(warm / spawn.max(1e-9));
        respawns.push(pooled_oracle.respawn_count() as f64);
    }

    j.open_obj(Some("pooled_vs_spawn"));
    j.string("target", "self (toy-xml verdicts over the worker protocol)");
    j.int("pool_workers", pool_workers);
    j.int("spawn_queries", spawn_queries);
    j.int("pooled_queries", pooled_queries);
    let spawn = j.spread("spawn_queries_per_sec", &mut spawn_qps)[1];
    let cold = j.spread("pooled_cold_queries_per_sec", &mut cold_qps)[1];
    let warm = j.spread("pooled_warm_queries_per_sec", &mut warm_qps)[1];
    let [q1, median, q3] = j.spread("pooled_warm_speedup_vs_spawn", &mut speedup);
    j.spread("pool_respawns", &mut respawns);
    j.close_obj();
    eprintln!(
        "[bench-queries] pooled_vs_spawn: spawn {spawn:.0} q/s, pooled cold {cold:.0} q/s, \
         pooled warm {warm:.0} q/s (median x{median:.1} vs spawn, IQR {q1:.1}..{q3:.1}, \
         {pool_workers} workers)",
    );
    gate(median >= 5.0, || {
        format!(
            "pooled execution must sustain >= 5x spawn-per-query throughput \
             (median x{median:.1} over {RUNS} runs, IQR {q1:.1}..{q3:.1})"
        )
    })
}

/// The same workload and the same query deadline, three worker
/// personalities: clean (the deadline machinery must be free when nothing
/// hangs), crashy (~10% content-poisoned queries that defeat replay and
/// degrade to the fallback), and hangy (silent hangs that only the
/// deadline can unwedge). Faults shift cost, never answers.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn fault_recovery(j: &mut Json, self_exe: &Path) {
    const CELLS: [(&str, &str); 3] =
        [("clean", "--oracle-worker"), ("crashy", "--crashy-worker"), ("hangy", "--hangy-worker")];
    const FIELDS: [&str; 6] = [
        "queries_per_sec",
        "throughput_vs_clean",
        "respawns",
        "timed_out_queries",
        "breaker_trips",
        "breaker_recoveries",
    ];
    let fault_pool = 4usize;
    let workload = process_workload(FAULT_QUERIES, 50_000);
    let refs: Vec<&[u8]> = workload.iter().map(Vec::as_slice).collect();
    let reference = toy_xml().oracle();
    let expected: Vec<Option<bool>> = workload.iter().map(|i| Some(reference.accepts(i))).collect();

    // samples[cell][field][run]
    let mut samples = vec![vec![Vec::with_capacity(RUNS); FIELDS.len()]; CELLS.len()];
    for _ in 0..RUNS {
        let mut clean_qps = f64::NAN;
        for (cell, (mode, worker_flag)) in CELLS.into_iter().enumerate() {
            let mut oracle = PooledProcessOracle::new(self_exe)
                .arg(worker_flag)
                .pool_size(fault_pool)
                .query_timeout(FAULT_TIMEOUT);
            if mode == "crashy" {
                // Content-poisoned queries defeat replay; only a clean
                // spawn-per-query fallback can still answer them truthfully.
                oracle = oracle.fallback(ProcessOracle::new(self_exe).arg("--oracle-once"));
            }
            let start = Instant::now();
            let verdicts = oracle.accepts_batch_checked(&refs);
            let qps = FAULT_QUERIES as f64 / secs_since(start).max(1e-9);
            assert_eq!(verdicts, expected, "{mode} pool changed a verdict");
            assert_eq!(oracle.failure_count(), 0, "{mode} pool left a query unanswered");
            match mode {
                "clean" => {
                    assert_eq!(oracle.respawn_count(), 0, "clean pool respawned workers");
                    assert_eq!(oracle.timed_out_count(), 0, "clean pool hit the deadline");
                    assert_eq!(oracle.tripped_worker_count(), 0, "clean pool tripped a breaker");
                    clean_qps = qps;
                }
                "crashy" => {
                    assert!(oracle.respawn_count() > 0, "poisoned queries must kill workers")
                }
                _ => assert!(
                    oracle.timed_out_count() > 0,
                    "{FAULT_QUERIES} queries across {fault_pool} workers must outlive \
                     64-answer hangs"
                ),
            }
            let row = [
                qps,
                qps / clean_qps,
                oracle.respawn_count() as f64,
                oracle.timed_out_count() as f64,
                oracle.tripped_worker_count() as f64,
                oracle.recovered_worker_count() as f64,
            ];
            for (field, value) in row.into_iter().enumerate() {
                samples[cell][field].push(value);
            }
        }
    }

    j.open_obj(Some("fault_recovery"));
    j.string("target", "self (toy-xml verdicts; seeded FaultPlan injection)");
    j.int("pool_workers", fault_pool);
    j.int("queries", FAULT_QUERIES);
    j.int("query_timeout_ms", FAULT_TIMEOUT.as_millis() as usize);
    for (cell, (mode, _)) in CELLS.into_iter().enumerate() {
        j.open_obj(Some(mode));
        let medians: Vec<f64> =
            FIELDS.iter().zip(&mut samples[cell]).map(|(name, xs)| j.spread(name, xs)[1]).collect();
        j.close_obj();
        eprintln!(
            "[bench-queries] fault_recovery {mode} (medians): {:.0} q/s, {} respawns, \
             {} queries past the {}ms deadline, {} breaker trips",
            medians[0],
            medians[2],
            medians[3],
            FAULT_TIMEOUT.as_millis(),
            medians[4],
        );
    }
    j.close_obj();
}

/// The multi-tenant `glade serve` path (campaign thread, event streaming
/// and result framing over a unix socket) against a direct in-process
/// Session on the running example. One run takes about a millisecond, so a
/// single slow run is noise: the gate is the *median* served/direct ratio
/// over [`RUNS`] alternating pairs (each pair's order flips, so neither
/// side always runs on the warmer caches).
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn serve_overhead(j: &mut Json) -> Gate {
    use glade_core::serve::{OpenRequest, OracleFactory, ServeClient, ServeConfig, Server};
    use std::sync::Arc;

    let seeds = vec![b"<a>hi</a>".to_vec()];
    let direct_oracle = toy_xml().oracle();
    let factory: Arc<dyn OracleFactory> =
        Arc::new(|spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
            match spec {
                "toy-xml" => Ok((Arc::new(toy_xml().oracle()), "bench:toy-xml".into())),
                other => Err(format!("unknown bench spec {other:?}")),
            }
        });
    let socket =
        std::env::temp_dir().join(format!("glade-bench-serve-{}.sock", std::process::id()));
    let server =
        Server::new(factory, ServeConfig::default()).spawn(&socket).expect("spawn bench server");

    let run_direct = || {
        let start = Instant::now();
        let result =
            GladeBuilder::new().synthesize(&seeds, &direct_oracle).expect("running example");
        (secs_since(start), grammar_to_text(&result.grammar), result.stats)
    };
    let run_served = || {
        // A fresh campaign per run (no persistent cache), so every timed
        // window pays the same cold query load as the direct run plus the
        // server machinery under measurement.
        let start = Instant::now();
        let mut client = ServeClient::connect(&socket).expect("connect bench client");
        let mut request = OpenRequest::new("toy-xml");
        request.events = false;
        client.open(&request).expect("open bench campaign");
        let outcome = client.synthesize(&seeds, |_| {}).expect("served run");
        client.close().expect("close bench client");
        (secs_since(start), outcome.grammar_text, outcome.stats)
    };
    let [mut direct_walls, mut served_walls, mut ratios] =
        std::array::from_fn(|_| Vec::with_capacity(RUNS));
    let mut served_stats = None;
    for pair in 0..RUNS {
        let (direct, served) = if pair % 2 == 0 {
            let direct = run_direct();
            (direct, run_served())
        } else {
            let served = run_served();
            (run_direct(), served)
        };
        assert_eq!(served.1, direct.1, "served grammar drifted from direct Session");
        assert_eq!(
            served.2.unique_queries, direct.2.unique_queries,
            "served query count drifted from direct Session"
        );
        ratios.push(served.0 / direct.0.max(1e-9));
        direct_walls.push(direct.0);
        served_walls.push(served.0);
        served_stats = Some(served.2);
    }
    server.shutdown().expect("bench server shutdown");
    let served_stats = served_stats.expect("at least one pair");

    j.open_obj(Some("serve_overhead"));
    j.string("target", "toy-xml running example (in-process server, unix socket)");
    j.int("pairs", RUNS);
    let direct_median = j.spread("direct_secs", &mut direct_walls)[1];
    let served_median = j.spread("served_secs", &mut served_walls)[1];
    let [q1, median, q3] = j.spread("served_over_direct", &mut ratios);
    j.int("unique_queries", served_stats.unique_queries);
    j.int("total_queries", served_stats.total_queries);
    j.close_obj();
    eprintln!(
        "[bench-queries] serve_overhead: direct {direct_median:.4}s, served \
         {served_median:.4}s (median ratio x{median:.2}, IQR {q1:.2}..{q3:.2}, {RUNS} pairs)",
    );
    gate(median <= 1.5, || {
        format!(
            "the serve path must stay within 1.5x of a direct Session \
             (median ratio x{median:.2} over {RUNS} pairs, IQR {q1:.2}..{q3:.2})"
        )
    })
}
