//! Engine calls shared by the in-process workloads: one cold synthesis per
//! subject, a warm re-run from the cold run's cache snapshot, and the
//! checks every synthesized grammar must pass.

use crate::report::Values;
use crate::stats;
use crate::trace::{self, PhaseObserver, Span};
use glade_core::{GladeBuilder, Oracle, Synthesis, SynthesisStats};
use glade_grammar::{Earley, Grammar};
use std::path::PathBuf;
use std::time::Instant;

/// Engine worker threads: the 2-core load shape every workload uses.
pub const WORKERS: usize = 2;

/// Distinct-query budget per run. Far above what any subject needs; a run
/// that exhausts it fails the correctness gate.
pub const BUDGET: usize = 2_000_000;

pub fn builder(fingerprint: &str) -> GladeBuilder {
    GladeBuilder::new().worker_threads(WORKERS).max_queries(BUDGET).oracle_fingerprint(fingerprint)
}

/// A cold synthesis: its result, the binary cache snapshot file it
/// leaves, and the seconds `add_seeds` took.
pub struct Cold {
    pub result: Synthesis,
    pub snapshot: PathBuf,
    pub snapshot_bytes: usize,
    pub secs: f64,
}

/// Synthesizes `seeds` in a fresh session and writes the session's cache
/// to `snapshot` in the binary format (the serve daemon's default).
pub fn cold_run<O: Oracle>(
    oracle: &O,
    seeds: &[Vec<u8>],
    fingerprint: &str,
    subject: &str,
    snapshot: PathBuf,
) -> Result<Cold, String> {
    let mut builder = builder(fingerprint);
    if trace::enabled() {
        builder = builder.observer(PhaseObserver::new(subject));
    }
    let mut session = builder.session(oracle);
    let start = Instant::now();
    let result = trace::span("session.add_seeds", subject, true, || session.add_seeds(seeds))
        .map_err(|e| format!("{subject}: synthesis failed: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    check_stats(subject, &result.stats)?;
    let bytes = session.export_cache_binary();
    std::fs::write(&snapshot, &bytes).map_err(|e| format!("write {snapshot:?}: {e}"))?;
    Ok(Cold { result, snapshot, snapshot_bytes: bytes.len(), secs })
}

/// A warm re-run: a fresh session that loads `cold`'s snapshot file and
/// synthesizes the same seeds. Must pay no new query and reproduce the
/// grammar bytes. Returns the seconds from session creation to result.
pub fn warm_run<O: Oracle>(
    oracle: &O,
    seeds: &[Vec<u8>],
    fingerprint: &str,
    subject: &str,
    cold: &Cold,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut session = builder(fingerprint).session(oracle);
    trace::span("persist.load", subject, false, || session.load_cache(&cold.snapshot))
        .map_err(|e| format!("{subject}: snapshot load failed: {e}"))?;
    let result = trace::span("session.warm", subject, true, || session.add_seeds(seeds))
        .map_err(|e| format!("{subject}: warm synthesis failed: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    check_stats(subject, &result.stats)?;
    if result.stats.new_unique_queries != 0 {
        return Err(format!(
            "{subject}: warm run paid {} new unique queries",
            result.stats.new_unique_queries
        ));
    }
    if glade_grammar::grammar_to_text(&result.grammar)
        != glade_grammar::grammar_to_text(&cold.result.grammar)
    {
        return Err(format!("{subject}: warm grammar differs from the cold grammar"));
    }
    Ok(secs)
}

/// Fails a run whose budget ran out or whose oracle failed.
pub fn check_stats(subject: &str, stats: &SynthesisStats) -> Result<(), String> {
    if stats.budget_exhausted || stats.cancelled {
        return Err(format!("{subject}: query budget exhausted"));
    }
    if stats.oracle_failures + stats.timed_out_queries > 0 {
        return Err(format!(
            "{subject}: {} oracle failures, {} timed-out queries",
            stats.oracle_failures, stats.timed_out_queries
        ));
    }
    Ok(())
}

/// Every seed must be a member of the grammar synthesized from it.
pub fn check_seeds_accepted(
    subject: &str,
    grammar: &Grammar,
    seeds: &[Vec<u8>],
) -> Result<(), String> {
    let earley = Earley::new(grammar);
    match seeds.iter().position(|s| !earley.accepts(s)) {
        Some(i) => Err(format!("{subject}: seed {i} is rejected by its synthesized grammar")),
        None => Ok(()),
    }
}

/// Adds the runner counters of cold-run `stats` to `values`.
pub fn add_runner_counts(values: &mut Values, stats: &SynthesisStats) {
    let add = |values: &mut Values, name: &str, v: usize| {
        let old = values.get(name).unwrap_or(0.0);
        values.set(name, old + v as f64);
    };
    add(values, "runner.total_queries", stats.total_queries);
    add(values, "runner.new_queries", stats.new_unique_queries);
    add(values, "runner.probes_elided", stats.probes_elided);
    add(values, "runner.memo_hits", stats.memo_hits);
}

/// Derives `runner.hit_ratio` from the summed counters.
pub fn finish_runner_counts(values: &mut Values) {
    let total = values.get("runner.total_queries").unwrap_or(0.0);
    let new = values.get("runner.new_queries").unwrap_or(0.0);
    if total > 0.0 {
        values.set("runner.hit_ratio", 1.0 - new / total);
    }
}

/// Session and oracle layer metrics from a trace: phase times, session
/// self time (the `add_seeds` spans minus the union of oracle spans), and
/// oracle call counts, busy time, and cost per query, overall and per
/// subject.
pub fn session_oracle_layers(spans: &[Span], values: &mut Values) {
    for (metric, span) in [
        ("session.phase1_s", "phase.phase1"),
        ("session.chargen_s", "phase.chargen"),
        ("session.phase2_s", "phase.phase2"),
    ] {
        values.set(metric, trace::named(spans, span).map(Span::secs).sum::<f64>());
    }
    let sessions: Vec<(u64, u64)> =
        trace::named(spans, "session.add_seeds").map(Span::interval).collect();
    let oracle: Vec<&Span> = trace::named(spans, "oracle").collect();
    let oracle_iv: Vec<(u64, u64)> = oracle.iter().map(|s| s.interval()).collect();
    values.set("session.self_s", stats::self_time(&sessions, &oracle_iv) as f64 * 1e-9);
    let session_union = stats::union(&sessions);
    let wall = stats::total_len(&session_union);
    if wall > 0 {
        let covered = stats::overlap_len(&session_union, &stats::union(&oracle_iv));
        values.set("oracle.wall_share", covered as f64 / wall as f64);
    }
    let (calls, busy) = calls_and_busy(oracle.iter().copied());
    values.set("oracle.calls", calls as f64);
    values.set("oracle.busy_s", busy);
    if calls > 0 {
        values.set("oracle.us_per_query", busy * 1e6 / calls as f64);
    }
    let mut subjects: Vec<&str> = oracle.iter().map(|s| s.subject).collect();
    subjects.sort_unstable();
    subjects.dedup();
    for subject in subjects {
        let (calls, busy) = calls_and_busy(oracle.iter().copied().filter(|s| s.subject == subject));
        if calls > 0 {
            values.set(format!("oracle.us_per_query.{subject}"), busy * 1e6 / calls as f64);
        }
    }
}

/// Queries answered and busy seconds over oracle spans.
pub fn calls_and_busy<'s>(spans: impl Iterator<Item = &'s Span>) -> (usize, f64) {
    spans.fold((0, 0.0), |(calls, busy), s| (calls + s.items, busy + s.secs()))
}

/// Mean span length in microseconds (0 without spans).
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (n, total) =
        trace::named(spans, name).fold((0usize, 0.0), |(n, t), s| (n + 1, t + s.secs()));
    if n == 0 {
        0.0
    } else {
        total * 1e6 / n as f64
    }
}

/// A 64-bit mix of the run seed and a per-input stream id (splitmix64), so
/// every generated input depends on `--seed` and on nothing else.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
