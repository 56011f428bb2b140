//! `bench-queries` — machine-readable benchmark of the membership-query
//! engine, emitted as `BENCH_queries.json`.
//!
//! Nine experiment families, so the perf trajectory of the query layer
//! is recorded in-repo:
//!
//! 1. **`parallel_speedup`** — the full pipeline on the paper's running
//!    example (`<a>hi</a>`, Figure 2) against an artificially slowed oracle
//!    (default 100 µs per distinct query, `GLADE_BENCH_ORACLE_US` to
//!    override), swept over worker counts. Reports per-stage wall times,
//!    the wall-clock speedup of the parallel stages (phase-2 merge +
//!    character generalization) versus the sequential path, and asserts
//!    that the synthesized grammar is byte-identical and the distinct-query
//!    count unchanged at every worker count.
//! 2. **`pipeline`** — the fig4/fig5 synthesis configurations: full GLADE
//!    on each handwritten Section 8.2 language (URL, Grep, Lisp, XML) plus
//!    the toy-XML running-example language, with grammar-membership
//!    oracles and sampled seeds. Reports wall time, unique/total queries,
//!    and merge-pair counts.
//! 3. **`cache_reuse`** — the session API's persistent query cache: one
//!    cold run on the running example, snapshot, then the identical run in
//!    a fresh session warm-started from the snapshot. Records wall times
//!    and asserts the warm run pays zero new unique queries.
//! 4. **`skewed_latency`** — heterogeneous query latencies, the workload
//!    work-stealing dispatch exists for. A clustered 10–100× latency skew
//!    is dispatched under both static `chunks(div_ceil)` partitioning (the
//!    pre-PR-4 engine) and the engine's shared-cursor work stealing, and
//!    the full pipeline is swept over worker counts with a hash-skewed
//!    oracle, asserting grammar bytes and query counts stay invariant.
//!    Asserts work stealing beats static chunking.
//! 5. **`pooled_vs_spawn`** — real process-target oracle throughput. The
//!    bench binary re-executes *itself* as a protocol worker
//!    (`--oracle-worker`, via `glade_core::serve_oracle_worker`) and as a
//!    spawn-per-query target (`--oracle-once`), then measures spawn-per-
//!    query `ProcessOracle` versus `PooledProcessOracle` cold (pool spawn
//!    included) and warm. Asserts pooled execution sustains ≥ 5× the
//!    spawn-per-query queries/sec.
//! 6. **`fault_recovery`** — throughput and query accounting under
//!    injected faults, against a clean pool run under the same query
//!    deadline. Three cells over the same workload: a clean pool (asserts
//!    zero failures/respawns/timeouts — the deadline machinery is free
//!    when nothing hangs), a crashy pool (`--crashy-worker`, a seeded
//!    `glade_core::FaultPlan` poisons ~10% of query *contents* so they
//!    kill every worker that touches them, defeating replay and forcing
//!    the spawn-per-query fallback), and a hangy pool (`--hangy-worker`
//!    hangs after 64 answers; only the deadline unwedges it). Every
//!    verdict in every cell must match the in-process reference.
//! 7. **`serve_overhead`** — the multi-tenant `glade serve` path versus a
//!    direct in-process session on the running example, timed as
//!    `GLADE_BENCH_SERVE_RUNS` (default 15) alternating direct/served
//!    pairs; the served grammar must be byte-identical and the median
//!    per-pair served/direct ratio within 1.5×.
//! 8. **`serve_restart`** — crash-safe campaign resume: cold run through
//!    a journaling server, abrupt restart, `RESUME` replay. Asserts the
//!    replay re-pays zero unique queries and reproduces the bytes.
//! 9. **`cache_scale`** — the binary snapshot codec at production cache
//!    sizes (`GLADE_BENCH_CACHE_N` synthetic entries, default 100 000):
//!    timed full loads of the binary snapshot and of the same cache as a
//!    legacy text snapshot (through the read-only text importer), plus
//!    the indexed partial-load path over a sparse query set. Asserts the
//!    binary full load is ≥ 5× faster than text (at the default size) and
//!    that the sparse partial load touches < 10% of the file.
//!
//! Usage: `cargo run --release -p glade-bench --bin bench-queries`
//! (writes `BENCH_queries.json` to the current directory, override with
//! `GLADE_BENCH_OUT`). Workload sizes are env-tunable for CI smoke runs:
//! `GLADE_BENCH_SKEW_N`, `GLADE_BENCH_SKEW_SLOW_US`,
//! `GLADE_BENCH_SKEW_BASE_US`, `GLADE_BENCH_SPAWN_QUERIES`,
//! `GLADE_BENCH_POOLED_QUERIES`,
//! `GLADE_BENCH_FAULT_QUERIES`, `GLADE_BENCH_FAULT_TIMEOUT_MS`,
//! `GLADE_BENCH_SERVE_RUNS`, `GLADE_BENCH_CACHE_N`.

use glade_core::{
    serve_faulty_worker, serve_oracle_worker, snapshot_from_binary_reader, snapshot_from_reader,
    snapshot_to_binary, BinaryCacheFile, FaultPlan, FnOracle, GladeBuilder, Oracle, SynthesisStats,
};
#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_core::{PooledProcessOracle, ProcessOracle};
use glade_eval::sample_seeds;
use glade_grammar::grammar_to_text;
use glade_targets::languages::{section82_languages, toy_xml};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::Read as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct SpeedupRow {
    workers: usize,
    stats: SynthesisStats,
    grammar: String,
    wall: Duration,
}

fn run_speedup(workers: usize, oracle_delay: Duration) -> SpeedupRow {
    // Membership delegates to the canonical running-example language
    // (`toy_xml`) so the bench can never drift from the language it claims
    // to measure; the configurable delay stands in for target-program cost.
    let inner = toy_xml().oracle();
    let oracle = FnOracle::new(move |i: &[u8]| {
        if !oracle_delay.is_zero() {
            std::thread::sleep(oracle_delay);
        }
        inner.accepts(i)
    });
    let start = Instant::now();
    let result = GladeBuilder::new()
        .worker_threads(workers)
        .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
        .expect("valid seed");
    SpeedupRow {
        workers,
        grammar: grammar_to_text(&result.grammar),
        stats: result.stats,
        wall: start.elapsed(),
    }
}

/// Cache-persistence experiment: one cold session run, snapshot the query
/// cache, then replay the identical run in a fresh session warm-started
/// from the snapshot. Returns (cold, warm) results; the warm run must pay
/// zero new unique queries.
fn run_cache_reuse(oracle_delay: Duration) -> (glade_core::Synthesis, glade_core::Synthesis) {
    let inner = toy_xml().oracle();
    let oracle = FnOracle::new(move |i: &[u8]| {
        if !oracle_delay.is_zero() {
            std::thread::sleep(oracle_delay);
        }
        inner.accepts(i)
    });
    let mut cold_session = GladeBuilder::new().session(&oracle);
    let cold = cold_session.add_seeds(&[b"<a>hi</a>".to_vec()]).expect("valid seed");
    let snapshot = cold_session.export_cache_binary();
    let mut warm_session = GladeBuilder::new().session(&oracle);
    warm_session.import_cache(&snapshot).expect("snapshot parses");
    let warm = warm_session.add_seeds(&[b"<a>hi</a>".to_vec()]).expect("valid seed");
    (cold, warm)
}

/// Encodes sorted entries as a legacy `glade-cache` v1/v2 text snapshot,
/// the format the `cache_scale` text load reads. Nothing writes this
/// format any more; the importer that reads it still ships.
fn legacy_text(sorted: &[(Vec<u8>, bool)], fingerprint: Option<&str>) -> String {
    let hex = |bytes: &[u8]| {
        bytes.iter().fold(String::new(), |mut out, b| {
            let _ = write!(out, "{b:02x}");
            out
        })
    };
    let mut out = match fingerprint {
        Some(fp) => format!("glade-cache v2\noracle {}\n", hex(fp.as_bytes())),
        None => "glade-cache v1\n".to_owned(),
    };
    for (query, verdict) in sorted {
        let _ = writeln!(out, "q {} {}", u8::from(*verdict), hex(query));
    }
    out
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sorts `xs` and returns its lower quartile, median and upper quartile
/// (linear interpolation between closest ranks).
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Simulates dispatching a batch of queries with the given per-query
/// delays across `workers` threads, either by static `chunks(div_ceil)`
/// partitioning (the pre-work-stealing engine) or by the engine's
/// shared-cursor work stealing. Returns the wall time of the whole batch.
fn simulate_dispatch(delays: &[Duration], workers: usize, work_stealing: bool) -> Duration {
    let start = Instant::now();
    if work_stealing {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= delays.len() {
                        break;
                    }
                    std::thread::sleep(delays[i]);
                });
            }
        });
    } else {
        let chunk = delays.len().div_ceil(workers);
        std::thread::scope(|s| {
            for c in delays.chunks(chunk) {
                s.spawn(move || {
                    for d in c {
                        std::thread::sleep(*d);
                    }
                });
            }
        });
    }
    start.elapsed()
}

/// Stable per-input delay with a 10–100× spread, for the engine-level
/// skewed sweep (FNV-1a so it is identical across runs and worker counts).
fn skewed_delay(input: &[u8], base_us: u64) -> Duration {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in input {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    Duration::from_micros(base_us * (1 + h % 100))
}

/// Distinct inputs for the pooled-vs-spawn oracle microbenchmark: a mix of
/// valid and invalid toy-XML documents, `offset` shifting the set so the
/// warm pooled round sees fresh queries.
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

/// Minimal JSON writer (no serde in the dependency set).
struct Json {
    out: String,
    needs_comma: Vec<bool>,
}

impl Json {
    fn new() -> Self {
        Json { out: String::new(), needs_comma: Vec::new() }
    }

    fn sep(&mut self) {
        if let Some(need) = self.needs_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    fn open_obj(&mut self, key: Option<&str>) {
        self.sep();
        if let Some(k) = key {
            write!(self.out, "{:?}:", k).unwrap();
        }
        self.out.push('{');
        self.needs_comma.push(false);
    }

    fn close_obj(&mut self) {
        self.out.push('}');
        self.needs_comma.pop();
    }

    fn open_arr(&mut self, key: &str) {
        self.sep();
        write!(self.out, "{:?}:[", key).unwrap();
        self.needs_comma.push(false);
    }

    fn close_arr(&mut self) {
        self.out.push(']');
        self.needs_comma.pop();
    }

    fn num(&mut self, key: &str, v: f64) {
        self.sep();
        write!(self.out, "{:?}:{:.6}", key, v).unwrap();
    }

    fn int(&mut self, key: &str, v: usize) {
        self.sep();
        write!(self.out, "{:?}:{}", key, v).unwrap();
    }

    fn boolean(&mut self, key: &str, v: bool) {
        self.sep();
        write!(self.out, "{:?}:{}", key, v).unwrap();
    }

    fn string(&mut self, key: &str, v: &str) {
        self.sep();
        write!(self.out, "{:?}:{:?}", key, v).unwrap();
    }
}

fn stats_fields(j: &mut Json, stats: &SynthesisStats) {
    j.int("unique_queries", stats.unique_queries);
    j.int("total_queries", stats.total_queries);
    j.int("merge_pairs_tried", stats.merge_pairs_tried);
    j.int("merges_accepted", stats.merges_accepted);
    j.int("chars_generalized", stats.chars_generalized);
    j.int("probes_elided", stats.probes_elided);
    j.int("memo_hits", stats.memo_hits);
    j.num("phase1_secs", secs(stats.phase1_time));
    j.num("chargen_secs", secs(stats.chargen_time));
    j.num("phase2_secs", secs(stats.phase2_time));
}

fn main() {
    // Self-exec worker modes: the pooled-vs-spawn experiment drives this
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

    let oracle_us: u64 =
        std::env::var("GLADE_BENCH_ORACLE_US").ok().and_then(|v| v.parse().ok()).unwrap_or(100);
    let oracle_delay = Duration::from_micros(oracle_us);
    let out_path = std::env::var("GLADE_BENCH_OUT").unwrap_or_else(|_| "BENCH_queries.json".into());

    let mut j = Json::new();
    j.open_obj(None);
    j.string("bench", "glade membership-query engine");
    j.int("oracle_delay_us", oracle_us as usize);
    j.int("available_parallelism", std::thread::available_parallelism().map_or(1, |n| n.get()));

    // ---- Experiment 1: worker-count sweep on the running example. ----
    eprintln!("[bench-queries] parallel_speedup: oracle delay {oracle_us} µs");
    let worker_counts = [1usize, 2, 4, 8];
    let rows: Vec<SpeedupRow> =
        worker_counts.iter().map(|&w| run_speedup(w, oracle_delay)).collect();
    let baseline = &rows[0];
    // The parallel stages of the pipeline: phase-2 merge + chargen.
    let par_stage = |r: &SpeedupRow| r.stats.chargen_time + r.stats.phase2_time;

    j.open_arr("parallel_speedup");
    for row in &rows {
        let stage_speedup = secs(par_stage(baseline)) / secs(par_stage(row)).max(1e-9);
        let wall_speedup = secs(baseline.wall) / secs(row.wall).max(1e-9);
        eprintln!(
            "[bench-queries]   workers={} wall={:.3}s merge+chargen={:.3}s (x{:.2}) unique={}",
            row.workers,
            secs(row.wall),
            secs(par_stage(row)),
            stage_speedup,
            row.stats.unique_queries,
        );
        j.open_obj(None);
        j.int("workers", row.workers);
        j.num("wall_secs", secs(row.wall));
        j.num("merge_chargen_secs", secs(par_stage(row)));
        j.num("merge_chargen_speedup_vs_sequential", stage_speedup);
        j.num("wall_speedup_vs_sequential", wall_speedup);
        j.boolean("grammar_identical_to_sequential", row.grammar == baseline.grammar);
        j.boolean(
            "unique_queries_equal_to_sequential",
            row.stats.unique_queries == baseline.stats.unique_queries,
        );
        stats_fields(&mut j, &row.stats);
        j.close_obj();
    }
    j.close_arr();

    for row in &rows[1..] {
        assert_eq!(row.grammar, baseline.grammar, "grammar drifted at {} workers", row.workers);
        assert_eq!(
            row.stats.unique_queries, baseline.stats.unique_queries,
            "query count drifted at {} workers",
            row.workers
        );
    }

    // ---- Experiment 2: fig4/fig5 pipeline configs. ----
    j.open_arr("pipeline");
    let mut languages = section82_languages();
    languages.push(toy_xml());
    for language in &languages {
        let mut rng = StdRng::seed_from_u64(17);
        let seeds = sample_seeds(language, 10, &mut rng);
        let oracle = language.oracle();
        let start = Instant::now();
        match GladeBuilder::new().max_queries(200_000).synthesize(&seeds, &oracle) {
            Ok(result) => {
                let wall = start.elapsed();
                eprintln!(
                    "[bench-queries] pipeline {}: wall={:.3}s unique={} merges={}/{}",
                    language.name(),
                    secs(wall),
                    result.stats.unique_queries,
                    result.stats.merges_accepted,
                    result.stats.merge_pairs_tried,
                );
                j.open_obj(None);
                j.string("language", language.name());
                j.int("num_seeds", seeds.len());
                j.num("wall_secs", secs(wall));
                j.boolean("budget_exhausted", result.stats.budget_exhausted);
                stats_fields(&mut j, &result.stats);
                j.close_obj();
            }
            Err(e) => {
                j.open_obj(None);
                j.string("language", language.name());
                j.string("error", &e.to_string());
                j.close_obj();
            }
        }
    }
    j.close_arr();

    // ---- Experiment 3: persistent-cache warm start. ----
    let cold_start = Instant::now();
    let (cold, warm) = run_cache_reuse(oracle_delay);
    let reuse_wall = cold_start.elapsed();
    eprintln!(
        "[bench-queries] cache_reuse: cold unique={} warm new_unique={} (total {:.3}s)",
        cold.stats.unique_queries,
        warm.stats.new_unique_queries,
        secs(reuse_wall),
    );
    assert_eq!(warm.stats.new_unique_queries, 0, "warm re-run re-paid oracle calls");
    j.open_obj(Some("cache_reuse"));
    j.int("cold_unique_queries", cold.stats.unique_queries);
    j.int("warm_new_unique_queries", warm.stats.new_unique_queries);
    j.num("cold_total_secs", secs(cold.stats.total_time()));
    j.num("warm_total_secs", secs(warm.stats.total_time()));
    j.boolean(
        "warm_grammar_identical",
        grammar_to_text(&warm.grammar) == grammar_to_text(&cold.grammar),
    );
    j.close_obj();

    // ---- Experiment 4: skewed latencies — work stealing vs. static. ----
    // Clustered skew (the first eighth of the batch is 10–100× slower —
    // think "all the deeply nested candidates landed together"): static
    // chunking hands the whole slow cluster to one worker while the rest
    // idle; work stealing spreads it. Same total work, same results.
    let skew_n = env_usize("GLADE_BENCH_SKEW_N", 256);
    let slow_us = env_usize("GLADE_BENCH_SKEW_SLOW_US", 2_000) as u64;
    let fast_us = (slow_us / 40).max(1);
    let workers = 8usize;
    let delays: Vec<Duration> = (0..skew_n)
        .map(|i| Duration::from_micros(if i < skew_n / 8 { slow_us } else { fast_us }))
        .collect();
    let static_wall = simulate_dispatch(&delays, workers, false);
    let stealing_wall = simulate_dispatch(&delays, workers, true);
    let dispatch_speedup = secs(static_wall) / secs(stealing_wall).max(1e-9);
    eprintln!(
        "[bench-queries] skewed_latency: static={:.3}s stealing={:.3}s (x{:.2}, {} queries, {} workers)",
        secs(static_wall),
        secs(stealing_wall),
        dispatch_speedup,
        skew_n,
        workers,
    );
    assert!(
        stealing_wall < static_wall,
        "work stealing must beat static chunking on the skewed workload \
         (static {static_wall:?}, stealing {stealing_wall:?})"
    );

    // Engine-level sweep under a hash-skewed oracle (10–100× per-query
    // spread): the dispatch order changes with worker count, the grammar
    // and the query counts must not.
    let skew_base_us = env_usize("GLADE_BENCH_SKEW_BASE_US", 5) as u64;
    let skew_rows: Vec<SpeedupRow> = worker_counts
        .iter()
        .map(|&w| {
            let inner = toy_xml().oracle();
            let oracle = FnOracle::new(move |i: &[u8]| {
                if skew_base_us > 0 {
                    std::thread::sleep(skewed_delay(i, skew_base_us));
                }
                inner.accepts(i)
            });
            let start = Instant::now();
            let result = GladeBuilder::new()
                .worker_threads(w)
                .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
                .expect("valid seed");
            SpeedupRow {
                workers: w,
                grammar: grammar_to_text(&result.grammar),
                stats: result.stats,
                wall: start.elapsed(),
            }
        })
        .collect();
    let skew_baseline = &skew_rows[0];
    j.open_obj(Some("skewed_latency"));
    j.int("queries", skew_n);
    j.int("dispatch_workers", workers);
    j.int("slow_us", slow_us as usize);
    j.int("fast_us", fast_us as usize);
    j.num("static_chunking_secs", secs(static_wall));
    j.num("work_stealing_secs", secs(stealing_wall));
    j.num("work_stealing_speedup_vs_static", dispatch_speedup);
    j.boolean("work_stealing_beats_static", stealing_wall < static_wall);
    j.int("engine_sweep_base_us", skew_base_us as usize);
    j.open_arr("engine_sweep");
    for row in &skew_rows {
        eprintln!(
            "[bench-queries]   skewed engine sweep: workers={} wall={:.3}s unique={}",
            row.workers,
            secs(row.wall),
            row.stats.unique_queries,
        );
        assert_eq!(
            row.grammar, skew_baseline.grammar,
            "skewed-latency grammar drifted at {} workers",
            row.workers
        );
        assert_eq!(row.stats.unique_queries, skew_baseline.stats.unique_queries);
        assert_eq!(row.stats.total_queries, skew_baseline.stats.total_queries);
        j.open_obj(None);
        j.int("workers", row.workers);
        j.num("wall_secs", secs(row.wall));
        j.boolean("grammar_identical_to_sequential", row.grammar == skew_baseline.grammar);
        j.boolean(
            "unique_queries_equal_to_sequential",
            row.stats.unique_queries == skew_baseline.stats.unique_queries,
        );
        j.int("unique_queries", row.stats.unique_queries);
        j.close_obj();
    }
    j.close_arr();
    j.close_obj();

    // Experiments 5 and 6 drive `PooledProcessOracle` (Linux and macOS).
    #[cfg(any(target_os = "linux", target_os = "macos"))]
    pooled_experiments(&mut j);

    // ---- Experiment 7: serve_overhead — the multi-tenant `glade serve`
    // path (campaign thread, event streaming and result framing over a
    // unix socket) versus a direct in-process Session on the running
    // example. One run takes about a millisecond, so a single slow run is
    // noise: the gate is the *median* served/direct ratio over N
    // alternating pairs (each pair's order flips, so neither side always
    // runs on the warmer caches). The served grammar must be byte-identical
    // and the median ratio within 1.5x.
    #[cfg(any(target_os = "linux", target_os = "macos"))]
    {
        use glade_core::serve::{OpenRequest, OracleFactory, ServeClient, ServeConfig, Server};
        use std::sync::Arc;

        let serve_runs = env_usize("GLADE_BENCH_SERVE_RUNS", 15).max(1);
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
        let server = Server::new(factory, ServeConfig::default())
            .spawn(&socket)
            .expect("spawn bench server");

        let run_direct = || {
            let start = Instant::now();
            let result = GladeBuilder::new()
                .synthesize(&seeds, &direct_oracle)
                .expect("running example synthesizes");
            (secs(start.elapsed()), grammar_to_text(&result.grammar), result.stats)
        };
        let run_served = || {
            // A fresh campaign per run (no persistent cache), so every
            // timed window pays the same cold query load as the direct
            // run plus the server machinery under measurement.
            let start = Instant::now();
            let mut client = ServeClient::connect(&socket).expect("connect bench client");
            let mut request = OpenRequest::new("toy-xml");
            request.events = false;
            client.open(&request).expect("open bench campaign");
            let outcome = client.synthesize(&seeds, |_| {}).expect("served run");
            client.close().expect("close bench client");
            (secs(start.elapsed()), outcome.grammar_text, outcome.stats)
        };
        let mut direct_walls = Vec::with_capacity(serve_runs);
        let mut served_walls = Vec::with_capacity(serve_runs);
        let mut ratios = Vec::with_capacity(serve_runs);
        let mut served_stats = SynthesisStats::default();
        for pair in 0..serve_runs {
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
            served_stats = served.2;
        }
        server.shutdown().expect("bench server shutdown");

        let [q1, median, q3] = quartiles(&mut ratios);
        let direct_median = quartiles(&mut direct_walls)[1];
        let served_median = quartiles(&mut served_walls)[1];
        eprintln!(
            "[bench-queries] serve_overhead: direct {direct_median:.4}s, served \
             {served_median:.4}s (median ratio x{median:.2}, IQR {q1:.2}..{q3:.2}, {serve_runs} pairs)",
        );
        assert!(
            median <= 1.5,
            "the serve path must stay within 1.5x of a direct Session \
             (median ratio x{median:.2} over {serve_runs} pairs, IQR {q1:.2}..{q3:.2})"
        );
        j.open_obj(Some("serve_overhead"));
        j.string("target", "toy-xml running example (in-process server, unix socket)");
        j.int("pairs", serve_runs);
        j.num("direct_median_secs", direct_median);
        j.num("served_median_secs", served_median);
        j.num("served_overhead_median", median);
        j.num("served_overhead_q1", q1);
        j.num("served_overhead_q3", q3);
        j.num("served_overhead_iqr", q3 - q1);
        j.boolean("grammar_identical", true);
        j.int("unique_queries", served_stats.unique_queries);
        j.int("total_queries", served_stats.total_queries);
        j.close_obj();

        // ---- Experiment 8: serve_restart — crash-safe campaign resume.
        // A campaign runs cold (filling the journal + persistent cache),
        // the server dies without a clean close, a fresh server over the
        // same cache dir replays the campaign via RESUME. The replay must
        // reproduce the grammar byte-for-byte while re-paying zero unique
        // oracle queries — the whole point of the journal.
        let factory: Arc<dyn OracleFactory> =
            Arc::new(|spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
                match spec {
                    "toy-xml" => Ok((Arc::new(toy_xml().oracle()), "bench:toy-xml".into())),
                    other => Err(format!("unknown bench spec {other:?}")),
                }
            });
        let cache_dir =
            std::env::temp_dir().join(format!("glade-bench-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir).expect("create bench cache dir");
        let config = ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };

        let server = Server::new(Arc::clone(&factory), config.clone())
            .spawn(&socket)
            .expect("spawn restart-bench server");
        let start = Instant::now();
        let mut client = ServeClient::connect(&socket).expect("connect cold client");
        let mut request = OpenRequest::new("toy-xml");
        request.events = false;
        request.cache = true;
        let (campaign, _) = client.open(&request).expect("open cold campaign");
        let cold = client.synthesize(&seeds, |_| {}).expect("cold run");
        let cold_secs = secs(start.elapsed());
        // No close(): the campaign stays open in the journal, like a crash.
        drop(client);
        server.shutdown().expect("restart-bench server shutdown");

        let server =
            Server::new(factory, config).spawn(&socket).expect("respawn restart-bench server");
        let start = Instant::now();
        let mut client = ServeClient::connect(&socket).expect("connect resume client");
        client.resume(campaign).expect("resume campaign");
        let resumed = client.resume_result(|_| {}).expect("replay result");
        let resume_secs = secs(start.elapsed());
        client.close().expect("close resume client");
        server.shutdown().expect("respawned server shutdown");
        let _ = std::fs::remove_dir_all(&cache_dir);

        eprintln!(
            "[bench-queries] serve_restart: cold {:.3}s ({} unique), resume {:.3}s \
             ({} new unique queries re-paid)",
            cold_secs, cold.stats.unique_queries, resume_secs, resumed.stats.new_unique_queries,
        );
        assert_eq!(
            resumed.grammar_text, cold.grammar_text,
            "resumed grammar drifted from the interrupted campaign"
        );
        assert_eq!(
            resumed.stats.new_unique_queries, 0,
            "a checkpointed campaign must re-pay zero unique queries on resume"
        );
        j.open_obj(Some("serve_restart"));
        j.string("target", "toy-xml running example (journal + cache resume across restart)");
        j.num("cold_secs", cold_secs);
        j.num("resume_secs", resume_secs);
        j.int("cold_unique_queries", cold.stats.unique_queries);
        j.int("resume_new_unique_queries", resumed.stats.new_unique_queries);
        j.boolean("grammar_identical", resumed.grammar_text == cold.grammar_text);
        j.close_obj();
    }

    // ---- Experiment 9: cache_scale — the binary snapshot codec at
    // production cache sizes. A synthetic cache of `GLADE_BENCH_CACHE_N`
    // entries (deterministic ~36-byte queries, the scale of a long-lived
    // serve deployment) is written as binary and, by `legacy_text`, as a
    // legacy text snapshot; full loads are timed
    // best-of-3, then the indexed partial-load path answers a sparse query
    // set through `BinaryCacheFile` and reports the fraction of the file
    // it touched. Pins (enforced at the full default size): binary full
    // load ≥5x faster than text, partial load touches <10% of the file.
    {
        let n = env_usize("GLADE_BENCH_CACHE_N", 100_000);
        eprintln!("[bench-queries] cache_scale: {n} synthetic cache entries");
        let mut entries: Vec<(Vec<u8>, bool)> = (0..n)
            .map(|i| {
                // Deterministic, realistic-length queries (~36 bytes, the
                // running example's context-wrapped candidate shape).
                let pad = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
                (format!("<tag id=\"{i:08}\" pad=\"{pad:016x}\"/>").into_bytes(), i % 3 != 0)
            })
            .collect();
        entries.sort();
        let fingerprint = Some("bench:cache-scale");
        let text = legacy_text(&entries, fingerprint);
        let binary = snapshot_to_binary(&entries, &[], fingerprint);
        let dir = std::env::temp_dir();
        let text_path = dir.join(format!("glade-bench-cache-{}.txt", std::process::id()));
        let bin_path = dir.join(format!("glade-bench-cache-{}.bin", std::process::id()));
        std::fs::write(&text_path, &text).expect("write text snapshot");
        std::fs::write(&bin_path, &binary).expect("write binary snapshot");

        let best_of = |load: &dyn Fn() -> usize| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let start = Instant::now();
                let loaded = load();
                let wall = secs(start.elapsed());
                assert_eq!(loaded, n, "full load must decode every entry");
                if wall < best {
                    best = wall;
                }
            }
            best
        };
        let text_secs = best_of(&|| {
            let file = std::fs::File::open(&text_path).expect("open text snapshot");
            snapshot_from_reader(std::io::BufReader::new(file)).expect("text load").entries.len()
        });
        let bin_secs = best_of(&|| {
            let file = std::fs::File::open(&bin_path).expect("open binary snapshot");
            snapshot_from_binary_reader(&mut std::io::BufReader::new(file))
                .expect("binary load")
                .entries
                .len()
        });
        let speedup = text_secs / bin_secs;

        // Sparse warm start: a campaign that re-poses only a handful of
        // its historical queries should fault in a sliver of the file.
        let lookups = (n / 400).clamp(4, 256);
        let mut file = BinaryCacheFile::open(&bin_path).expect("open for partial load");
        let mut agree = true;
        for k in 0..lookups {
            // Half present (spread across the key space), half absent.
            if k % 2 == 0 {
                let (query, verdict) = &entries[(k * entries.len()) / lookups];
                agree &= file.lookup(query).expect("present lookup") == Some(*verdict);
            } else {
                let absent = format!("<absent id=\"{k:08}\"/>").into_bytes();
                agree &= file.lookup(&absent).expect("absent lookup").is_none();
            }
        }
        let fraction = file.bytes_touched() as f64 / file.file_len() as f64;
        let _ = std::fs::remove_file(&text_path);
        let _ = std::fs::remove_file(&bin_path);

        eprintln!(
            "[bench-queries] cache_scale: text load {:.1}ms, binary load {:.1}ms ({speedup:.1}x), \
             {lookups} sparse lookups touched {:.2}% of the file",
            text_secs * 1e3,
            bin_secs * 1e3,
            fraction * 100.0,
        );
        assert!(agree, "partial-load verdicts disagreed with the snapshot contents");
        assert!(
            fraction < 0.10,
            "sparse partial load touched {:.1}% of the file (pin: <10%)",
            fraction * 100.0
        );
        // The speedup pin only binds at production scale — tiny CI smoke
        // sizes are dominated by per-call constants, not decode rate.
        if n >= 100_000 {
            assert!(
                speedup >= 5.0,
                "binary load was only {speedup:.1}x faster than text at {n} entries (pin: >=5x)"
            );
        }
        j.open_obj(Some("cache_scale"));
        j.string("target", "synthetic query cache (binary vs text snapshot codecs)");
        j.int("entries", n);
        j.int("text_bytes", text.len());
        j.int("binary_bytes", binary.len());
        j.num("text_load_secs", text_secs);
        j.num("binary_load_secs", bin_secs);
        j.num("binary_load_speedup", speedup);
        j.int("partial_lookups", lookups);
        j.int("partial_bytes_touched", file.bytes_touched() as usize);
        j.num("partial_file_fraction", fraction);
        j.boolean("partial_verdicts_agree", agree);
        j.close_obj();
    }

    j.close_obj();

    std::fs::write(&out_path, format!("{}\n", j.out)).expect("write BENCH_queries.json");
    eprintln!("[bench-queries] wrote {out_path}");
}

/// Experiments 5 and 6: the pooled process oracle against spawning, and
/// under injected faults.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn pooled_experiments(j: &mut Json) {
    // ---- Experiment 5: pooled vs. spawn-per-query process oracle. ----
    // This binary is its own process target (see the self-exec modes at
    // the top of main): spawn-per-query pays a full process start per
    // verdict, the pool pays one start per worker and a pipe round-trip
    // per verdict.
    let self_exe = std::env::current_exe().expect("current_exe");
    let spawn_queries = env_usize("GLADE_BENCH_SPAWN_QUERIES", 48);
    let pooled_queries = env_usize("GLADE_BENCH_POOLED_QUERIES", 512);
    let pool_workers = 4usize;

    let spawn_oracle = ProcessOracle::new(&self_exe).arg("--oracle-once");
    let reference = toy_xml().oracle();
    let spawn_workload = process_workload(spawn_queries, 0);
    let spawn_start = Instant::now();
    for input in &spawn_workload {
        assert_eq!(spawn_oracle.accepts(input), reference.accepts(input), "spawn verdict");
    }
    let spawn_wall = spawn_start.elapsed();
    let spawn_qps = spawn_queries as f64 / secs(spawn_wall).max(1e-9);

    let pooled_oracle = PooledProcessOracle::new(&self_exe)
        .arg("--oracle-worker")
        .pool_size(pool_workers)
        // A *fresh* fallback oracle: ProcessOracle clones share a failure
        // counter, and any transient spawn failure absorbed by the spawn
        // experiment above must not bleed into the pooled failure assert.
        .fallback(ProcessOracle::new(&self_exe).arg("--oracle-once"));
    // Cold: includes lazy worker spawns. Queries fan out across threads
    // the way the engine's batch dispatch would.
    let pose_all = |inputs: &[Vec<u8>]| {
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
    };
    let cold_workload = process_workload(pooled_queries, 10_000);
    let cold_start = Instant::now();
    pose_all(&cold_workload);
    let pooled_cold_wall = cold_start.elapsed();
    let warm_workload = process_workload(pooled_queries, 20_000);
    let warm_start = Instant::now();
    pose_all(&warm_workload);
    let pooled_warm_wall = warm_start.elapsed();
    let pooled_cold_qps = pooled_queries as f64 / secs(pooled_cold_wall).max(1e-9);
    let pooled_warm_qps = pooled_queries as f64 / secs(pooled_warm_wall).max(1e-9);
    let pooled_speedup = pooled_warm_qps / spawn_qps.max(1e-9);
    eprintln!(
        "[bench-queries] pooled_vs_spawn: spawn {:.0} q/s, pooled cold {:.0} q/s, \
         pooled warm {:.0} q/s (x{:.1} vs spawn, {} workers)",
        spawn_qps, pooled_cold_qps, pooled_warm_qps, pooled_speedup, pool_workers,
    );
    assert!(
        pooled_speedup >= 5.0,
        "pooled execution must sustain >= 5x spawn-per-query throughput \
         (spawn {spawn_qps:.0} q/s, pooled warm {pooled_warm_qps:.0} q/s)"
    );
    assert_eq!(pooled_oracle.failure_count(), 0, "pooled path degraded to the fallback");

    j.open_obj(Some("pooled_vs_spawn"));
    j.string("target", "self (toy-xml verdicts over the worker protocol)");
    j.int("pool_workers", pool_workers);
    j.int("spawn_queries", spawn_queries);
    j.int("pooled_queries", pooled_queries);
    j.num("spawn_secs", secs(spawn_wall));
    j.num("spawn_queries_per_sec", spawn_qps);
    j.num("pooled_cold_secs", secs(pooled_cold_wall));
    j.num("pooled_cold_queries_per_sec", pooled_cold_qps);
    j.num("pooled_warm_secs", secs(pooled_warm_wall));
    j.num("pooled_warm_queries_per_sec", pooled_warm_qps);
    j.num("pooled_warm_speedup_vs_spawn", pooled_speedup);
    j.int("pool_respawns", pooled_oracle.respawn_count());
    j.int("oracle_failures", pooled_oracle.failure_count());
    j.close_obj();

    // ---- Experiment 6: fault recovery — throughput under injected
    // faults. The same workload and the same query deadline, three worker
    // personalities: clean (the deadline machinery must be free when
    // nothing hangs), crashy (~10% content-poisoned queries that defeat
    // replay and degrade to the fallback), and hangy (silent hangs that
    // only the deadline can unwedge). Every verdict in every cell must
    // match the in-process reference — faults shift cost, never answers.
    let fault_queries = env_usize("GLADE_BENCH_FAULT_QUERIES", 512);
    let fault_timeout_ms = env_usize("GLADE_BENCH_FAULT_TIMEOUT_MS", 250) as u64;
    let fault_pool = 4usize;
    let fault_workload = process_workload(fault_queries, 50_000);
    let fault_refs: Vec<&[u8]> = fault_workload.iter().map(Vec::as_slice).collect();
    let fault_expected: Vec<Option<bool>> =
        fault_workload.iter().map(|i| Some(reference.accepts(i))).collect();
    let run_fault_cell = |mode: &str, worker_flag: &str| {
        let mut oracle = PooledProcessOracle::new(&self_exe)
            .arg(worker_flag)
            .pool_size(fault_pool)
            .query_timeout(Duration::from_millis(fault_timeout_ms));
        if mode == "crashy" {
            // Content-poisoned queries defeat replay; only a clean
            // spawn-per-query fallback can still answer them truthfully.
            oracle = oracle.fallback(ProcessOracle::new(&self_exe).arg("--oracle-once"));
        }
        let start = Instant::now();
        let verdicts = oracle.accepts_batch_checked(&fault_refs);
        let wall = start.elapsed();
        assert_eq!(verdicts, fault_expected, "{mode} pool changed a verdict");
        (oracle, wall)
    };
    let (clean_oracle, clean_wall) = run_fault_cell("clean", "--oracle-worker");
    assert_eq!(clean_oracle.failure_count(), 0, "clean pool counted failures");
    assert_eq!(clean_oracle.respawn_count(), 0, "clean pool respawned workers");
    assert_eq!(clean_oracle.timed_out_count(), 0, "clean pool hit the deadline");
    assert_eq!(clean_oracle.tripped_worker_count(), 0, "clean pool tripped a breaker");
    let (crashy_oracle, crashy_wall) = run_fault_cell("crashy", "--crashy-worker");
    assert_eq!(crashy_oracle.failure_count(), 0, "the fallback answers every poisoned query");
    assert!(crashy_oracle.respawn_count() > 0, "poisoned queries must kill workers");
    let (hangy_oracle, hangy_wall) = run_fault_cell("hangy", "--hangy-worker");
    assert_eq!(hangy_oracle.failure_count(), 0, "every hang was replayed successfully");
    assert!(
        hangy_oracle.timed_out_count() > 0,
        "{fault_queries} queries across {fault_pool} workers must outlive 64-answer hangs"
    );
    let clean_qps = fault_queries as f64 / secs(clean_wall).max(1e-9);
    let crashy_qps = fault_queries as f64 / secs(crashy_wall).max(1e-9);
    let hangy_qps = fault_queries as f64 / secs(hangy_wall).max(1e-9);
    eprintln!(
        "[bench-queries] fault_recovery: clean {:.0} q/s, crashy {:.0} q/s ({} respawns, \
         {} trips), hangy {:.0} q/s ({} hung queries killed at the {}ms deadline)",
        clean_qps,
        crashy_qps,
        crashy_oracle.respawn_count(),
        crashy_oracle.tripped_worker_count(),
        hangy_qps,
        hangy_oracle.timed_out_count(),
        fault_timeout_ms,
    );
    j.open_obj(Some("fault_recovery"));
    j.string("target", "self (toy-xml verdicts; seeded FaultPlan injection)");
    j.int("pool_workers", fault_pool);
    j.int("queries", fault_queries);
    j.int("query_timeout_ms", fault_timeout_ms as usize);
    for (mode, oracle, wall, qps) in [
        ("clean", &clean_oracle, clean_wall, clean_qps),
        ("crashy", &crashy_oracle, crashy_wall, crashy_qps),
        ("hangy", &hangy_oracle, hangy_wall, hangy_qps),
    ] {
        j.open_obj(Some(mode));
        j.num("wall_secs", secs(wall));
        j.num("queries_per_sec", qps);
        j.num("throughput_vs_clean", qps / clean_qps.max(1e-9));
        j.int("oracle_failures", oracle.failure_count());
        j.int("respawns", oracle.respawn_count());
        j.int("timed_out_queries", oracle.timed_out_count());
        j.int("breaker_trips", oracle.tripped_worker_count());
        j.int("breaker_recoveries", oracle.recovered_worker_count());
        j.close_obj();
    }
    j.close_obj();
}
