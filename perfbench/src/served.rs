//! `served_pool`: the daemon path. An in-process `Server` with a cache
//! directory serves `cmd:` oracle specs, each backed by a
//! `PooledProcessOracle` of two worker processes (this binary's `worker`
//! mode, which serves the same verdict protocol as `glade-oracle-worker`).
//!
//! Per program, two clients open concurrent campaigns on the same spec:
//! one sends every seed in one batch, the other streams them in two
//! batches (the split point comes from `--seed`) and sends its second
//! batch after the first client's result, so its cache snapshot, a
//! superset of the first client's, is the one left on disk. After this
//! cold pass the server shuts down and restarts over the same directory,
//! and the warm pass repeats the campaigns; it must pay no new query.

use crate::engine::{self, BUDGET};
use crate::report::{prog_subject, Values};
use crate::trace::{self, PhaseObserver, Span, TracedOracle};
use crate::{scratch_dir, Between, Iteration, Workload};
use glade_core::serve::{OpenRequest, OracleFactory, RunOutcome, ServeClient, ServeConfig, Server};
use glade_core::{Oracle, PooledProcessOracle, SynthEvent};
use glade_grammar::grammar_to_text;
use glade_targets::programs::all_targets;
use glade_targets::{Target, TargetOracle};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Instant;

/// Worker processes per pool.
const POOL_WORKERS: usize = 2;

struct Program {
    target: Box<dyn Target>,
    seeds: Vec<Vec<u8>>,
    /// Seeds the streaming client sends in its first batch.
    split: usize,
    spec: String,
    pool: Arc<PooledProcessOracle>,
}

pub struct ServedPool {
    programs: Vec<Program>,
    dir: PathBuf,
    iteration: usize,
    /// Cold single-batch grammar text and unique-query count per program,
    /// from the latest iteration.
    served: Vec<(String, usize)>,
}

/// `perfbench worker NAME`: serves one program's verdicts over the pooled
/// worker protocol until stdin closes.
pub fn worker_main(name: &str) -> Result<(), String> {
    let target = glade_targets::programs::target_by_name(name)
        .ok_or_else(|| format!("unknown program `{name}`"))?;
    glade_core::serve_oracle_worker(|input: &[u8]| target.run(input).valid)
        .map_err(|e| format!("worker protocol error: {e}"))
}

impl Workload for ServedPool {
    fn setup(seed: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut programs = Vec::new();
        for (i, target) in all_targets().into_iter().enumerate() {
            let seeds = target.seeds();
            let split =
                1 + (engine::sub_seed(seed, 500 + i as u64) % (seeds.len() as u64 - 1)) as usize;
            let pool = PooledProcessOracle::new(&exe)
                .arg("worker")
                .arg(target.name())
                .pool_size(POOL_WORKERS);
            // Start both workers now: a batch larger than one worker's
            // in-flight window spreads over the whole pool.
            let warmup: Vec<&[u8]> = seeds.iter().cycle().take(256).map(Vec::as_slice).collect();
            if pool.accepts_batch_checked(&warmup).iter().any(|v| *v != Some(true)) {
                return Err(format!("{}: pool rejected or failed a seed", target.name()));
            }
            programs.push(Program {
                spec: format!("cmd:{} worker {}", exe.display(), target.name()),
                target,
                seeds,
                split,
                pool: Arc::new(pool),
            });
        }
        let dir = scratch_dir().join("served");
        let workload = ServedPool { programs, dir, iteration: 0, served: Vec::new() };
        // One server start and stop belongs to set-up too.
        let setup_dir = workload.dir.join("setup");
        std::fs::create_dir_all(&setup_dir).map_err(|e| format!("create {setup_dir:?}: {e}"))?;
        let server = workload.spawn(&setup_dir, "serve.spawn")?;
        server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
        std::fs::remove_dir_all(&setup_dir).map_err(|e| format!("remove {setup_dir:?}: {e}"))?;
        Ok(workload)
    }

    fn iterate(&mut self, _stage: bool, between: &mut Between) -> Result<Iteration, String> {
        let mut it = Iteration::default();
        let cache_dir = self.dir.join(format!("iter{}", self.iteration));
        self.iteration += 1;
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("create {cache_dir:?}: {e}"))?;
        let counters_before = self.pool_counters();

        let server = self.spawn(&cache_dir, "serve.spawn")?;
        let (cold, synth) = self.pass(&server_socket(&cache_dir), "serve.synthesize", &mut it)?;
        it.synth = synth;
        trace::span("serve.shutdown", "", false, || server.shutdown())
            .map_err(|e| format!("server shutdown: {e}"))?;
        let (snapshot_bytes, journal_bytes) = dir_sizes(&cache_dir)?;
        between(&mut it.synth)?;

        // The warm figure runs from the restart to the last warm result.
        let start = Instant::now();
        let server = self.spawn(&cache_dir, "serve.spawn.restart")?;
        it.warm.push(start.elapsed().as_secs_f64());
        let (warm, pieces) =
            self.pass(&server_socket(&cache_dir), "serve.synthesize.warm", &mut it)?;
        it.warm.extend(pieces);
        trace::span("serve.shutdown", "", false, || server.shutdown())
            .map_err(|e| format!("server shutdown: {e}"))?;
        between(&mut it.warm)?;
        std::fs::remove_dir_all(&cache_dir).map_err(|e| format!("remove {cache_dir:?}: {e}"))?;

        self.served.clear();
        let mut warm_new = 0;
        for ((program, cold), warm) in self.programs.iter().zip(&cold).zip(&warm) {
            let name = program.target.name();
            let single = &cold[0].grammar_text;
            // Outcome 1 is the streaming tenant's first batch, learned from
            // part of the seeds; the others learned from all of them.
            if [&cold[2], &warm[0], &warm[2]].iter().any(|o| o.grammar_text != *single) {
                return Err(format!("{name}: served tenants disagree on the grammar"));
            }
            for outcome in cold.iter() {
                engine::add_runner_counts(&mut it.values, &outcome.stats);
                it.attempted += outcome.stats.new_unique_queries;
            }
            warm_new += warm.iter().map(|o| o.stats.new_unique_queries).sum::<usize>();
            it.unique_queries += cold[0].stats.unique_queries;
            it.outputs.push(single.clone());
            self.served.push((single.clone(), cold[0].stats.unique_queries));
        }
        if warm_new != 0 {
            return Err(format!("warm pass paid {warm_new} new unique queries"));
        }
        engine::finish_runner_counts(&mut it.values);
        let counters = self.pool_counters();
        for (i, name) in ["pool.respawns", "pool.failures", "pool.timeouts"].iter().enumerate() {
            it.values.set(*name, (counters[i] - counters_before[i]) as f64);
        }
        it.failed += counters[1] - counters_before[1] + counters[2] - counters_before[2];
        it.values.set("persist.snapshot_bytes", snapshot_bytes as f64);
        it.values.set("persist.journal_bytes", journal_bytes as f64);
        it.values.set("persist.warm_new_queries", warm_new as f64);
        Ok(it)
    }

    /// Served grammars and query counts must equal a local session's on
    /// the same seeds with the in-process oracle (program_fuzz's run).
    fn verify(&mut self) -> Result<(), String> {
        for (program, (served, unique)) in self.programs.iter().zip(&self.served) {
            let subject = prog_subject(program.target.name());
            let oracle = TargetOracle::new(program.target.as_ref());
            let fingerprint = format!("target:{}", program.target.name());
            let file = scratch_dir().join(format!("{subject}.cache"));
            let local = engine::cold_run(&oracle, &program.seeds, &fingerprint, &subject, file)?;
            if grammar_to_text(&local.result.grammar) != *served {
                return Err(format!("{subject}: served grammar differs from the in-process one"));
            }
            if local.result.stats.unique_queries != *unique {
                return Err(format!(
                    "{subject}: served run posed {unique} unique queries, in-process {}",
                    local.result.stats.unique_queries
                ));
            }
            engine::check_seeds_accepted(&subject, &local.result.grammar, &program.seeds)?;
        }
        Ok(())
    }

    fn layers(&self, spans: &[Span], values: &mut Values) {
        for (metric, span) in [
            ("session.phase1_s", "phase.phase1"),
            ("session.chargen_s", "phase.chargen"),
            ("session.phase2_s", "phase.phase2"),
        ] {
            values.set(metric, trace::named(spans, span).map(Span::secs).sum::<f64>());
        }
        // Client-side campaign time not covered by pool dispatch: serve
        // protocol, scheduler turns, and the engine's own work.
        let sessions: Vec<(u64, u64)> =
            trace::named(spans, "serve.synthesize").map(Span::interval).collect();
        let pool: Vec<&Span> = trace::named(spans, "oracle").collect();
        let pool_iv: Vec<(u64, u64)> = pool.iter().map(|s| s.interval()).collect();
        values.set("session.self_s", crate::stats::self_time(&sessions, &pool_iv) as f64 * 1e-9);
        let (queries, busy) = engine::calls_and_busy(pool.iter().copied());
        values.set("pool.batches", pool.len() as f64);
        if !pool.is_empty() {
            values.set("pool.queries_per_batch", queries as f64 / pool.len() as f64);
            values.set("pool.batch_ms", busy * 1e3 / pool.len() as f64);
        }
        if busy > 0.0 {
            values.set("pool.queries_per_s", queries as f64 / busy);
        }
        values.set("serve.open_ms", engine::mean_us(spans, "serve.open") / 1e3);
        values.set("serve.first_event_ms", engine::mean_us(spans, "serve.first_event") / 1e3);
        values.set("serve.close_ms", engine::mean_us(spans, "serve.close") / 1e3);
        values.set(
            "persist.restart_s",
            trace::named(spans, "serve.spawn.restart").map(Span::secs).sum::<f64>(),
        );
    }
}

fn server_socket(cache_dir: &Path) -> PathBuf {
    cache_dir.join("s.sock")
}

/// Snapshot bytes (every file but the journal) and journal bytes.
fn dir_sizes(dir: &Path) -> Result<(u64, u64), String> {
    let (mut snapshots, mut journal) = (0, 0);
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {dir:?}: {e}"))? {
        let entry = entry.map_err(|e| format!("read {dir:?}: {e}"))?;
        let meta = entry.metadata().map_err(|e| format!("stat {:?}: {e}", entry.path()))?;
        if !meta.is_file() {
            continue;
        }
        if entry.file_name() == "serve.journal" {
            journal += meta.len();
        } else {
            snapshots += meta.len();
        }
    }
    Ok((snapshots, journal))
}

impl ServedPool {
    /// `[respawns, failures, timeouts]` summed over every pool.
    fn pool_counters(&self) -> [usize; 3] {
        self.programs.iter().fold([0; 3], |acc, p| {
            [
                acc[0] + p.pool.respawn_count(),
                acc[1] + p.pool.failure_count(),
                acc[2] + p.pool.timed_out_count(),
            ]
        })
    }

    fn spawn(
        &self,
        cache_dir: &Path,
        span: &'static str,
    ) -> Result<glade_core::serve::ServerHandle, String> {
        let traced = trace::enabled();
        let oracles: Vec<(String, Arc<dyn Oracle>, String)> = self
            .programs
            .iter()
            .map(|p| {
                let oracle: Arc<dyn Oracle> = if traced {
                    let subject = prog_subject(p.target.name());
                    Arc::new(TracedOracle::new(Arc::clone(&p.pool), &subject))
                } else {
                    Arc::clone(&p.pool) as Arc<dyn Oracle>
                };
                (p.spec.clone(), oracle, p.pool.fingerprint())
            })
            .collect();
        let factory: Arc<dyn OracleFactory> =
            Arc::new(move |spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
                oracles
                    .iter()
                    .find(|(s, _, _)| s == spec)
                    .map(|(_, oracle, fingerprint)| (Arc::clone(oracle), fingerprint.clone()))
                    .ok_or_else(|| format!("unknown oracle spec {spec:?}"))
            });
        let config =
            ServeConfig { cache_dir: Some(cache_dir.to_path_buf()), ..ServeConfig::default() };
        let socket = server_socket(cache_dir);
        trace::span(span, "", false, || Server::new(factory, config).spawn(&socket))
            .map_err(|e| format!("spawn server on {socket:?}: {e}"))
    }

    /// One pass over every program: per program, the single-batch
    /// tenant's outcome followed by the streaming tenant's two, and the
    /// seconds from opening both campaigns to the last result.
    fn pass(
        &self,
        socket: &Path,
        span: &'static str,
        it: &mut Iteration,
    ) -> Result<(Vec<Vec<RunOutcome>>, Vec<f64>), String> {
        let mut out = Vec::new();
        let mut secs = Vec::new();
        for program in &self.programs {
            let start = Instant::now();
            let subject = prog_subject(program.target.name());
            let barrier = Barrier::new(2);
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let (barrier, subject) = (&barrier, subject.as_str());
            let (single, streamed) = std::thread::scope(|s| {
                let single = s.spawn(move || {
                    let client = open(socket, &program.spec, subject);
                    barrier.wait();
                    let mut client = client?;
                    let outcome = run(&mut client, &program.seeds, subject, span)?;
                    drop(done_tx);
                    close(client, subject)?;
                    Ok::<_, String>(vec![outcome])
                });
                let streamed = s.spawn(move || {
                    let client = open(socket, &program.spec, subject);
                    barrier.wait();
                    let mut client = client?;
                    let (first, second) = program.seeds.split_at(program.split);
                    let a = run(&mut client, first, subject, span)?;
                    // Blocks until the single-batch client's result.
                    let _ = done_rx.recv();
                    let b = run(&mut client, second, subject, span)?;
                    close(client, subject)?;
                    Ok::<_, String>(vec![a, b])
                });
                (single.join(), streamed.join())
            });
            secs.push(start.elapsed().as_secs_f64());
            let mut outcomes = single.map_err(|_| "single-batch client panicked".to_owned())??;
            let streamed = streamed.map_err(|_| "streaming client panicked".to_owned())??;
            outcomes.extend(streamed);
            for o in &outcomes {
                engine::check_stats(subject, &o.outcome.stats)?;
                it.attempted += 1;
                it.values.set(
                    "serve.events",
                    it.values.get("serve.events").unwrap_or(0.0) + o.events as f64,
                );
                it.values.set(
                    "serve.events_dropped",
                    it.values.get("serve.events_dropped").unwrap_or(0.0) + o.dropped as f64,
                );
            }
            out.push(outcomes.into_iter().map(|o| o.outcome).collect());
        }
        Ok((out, secs))
    }
}

struct Outcome {
    outcome: RunOutcome,
    events: usize,
    dropped: usize,
}

fn open(socket: &Path, spec: &str, subject: &str) -> Result<ServeClient, String> {
    trace::span("serve.open", subject, false, || {
        let mut client = ServeClient::connect(socket)?;
        let mut request = OpenRequest::new(spec);
        request.max_queries = Some(BUDGET);
        request.cache = true;
        client.open(&request)?;
        Ok(client)
    })
    .map_err(|e: std::io::Error| format!("{subject}: open campaign: {e}"))
}

fn run(
    client: &mut ServeClient,
    seeds: &[Vec<u8>],
    subject: &str,
    span: &'static str,
) -> Result<Outcome, String> {
    let phases = PhaseObserver::new(subject);
    let (mut events, mut dropped) = (0usize, 0usize);
    let start = trace::now();
    let outcome = trace::span(span, subject, false, || {
        client.synthesize(seeds, |event| {
            if events == 0 && trace::enabled() {
                trace::record("serve.first_event", subject, start, 1);
            }
            events += 1;
            if let SynthEvent::EventsDropped { dropped: n } = event {
                dropped += n;
            }
            phases.observe(&event);
        })
    })
    .map_err(|e| format!("{subject}: served synthesis: {e}"))?;
    Ok(Outcome { outcome, events, dropped })
}

fn close(client: ServeClient, subject: &str) -> Result<(), String> {
    trace::span("serve.close", subject, false, || client.close())
        .map_err(|e| format!("{subject}: close campaign: {e}"))
}
