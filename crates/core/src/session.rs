//! The session-based synthesis API: observable, cancellable, incremental
//! runs over one long-lived membership-query cache.
//!
//! A one-shot blocking call ([`GladeBuilder::synthesize`]) is enough for
//! a single run; production use wants more control. A [`Session`] ties one
//! oracle to one persistent query cache and supports:
//!
//! * **Incremental synthesis** — [`Session::add_seeds`] extends the
//!   current grammar with new seeds without re-deriving the trees of
//!   earlier seeds (the paper's Section 6.1 loop, made resumable). The
//!   result is byte-identical to a fresh run on the combined seed set.
//! * **Observation** — a [`SynthesisObserver`] receives structured
//!   [`SynthEvent`]s for phase boundaries, per-seed
//!   decisions, accepted merges, and query batches.
//! * **Cancellation** — a [`CancelToken`] stops a runaway run between
//!   query batches; the degraded result still contains every seed.
//! * **Persistence** — [`Session::save_cache`]/[`Session::load_cache`]
//!   snapshot the query cache (see `persist.rs`), so multi-target
//!   campaigns and repeated eval/bench runs stop re-paying oracle calls.
//!
//! Sessions are configured through the fluent [`GladeBuilder`]:
//!
//! ```
//! use glade_core::{FnOracle, GladeBuilder};
//!
//! let oracle = FnOracle::new(glade_core::testing::xml_like);
//! let mut session = GladeBuilder::new().max_queries(50_000).session(&oracle);
//! let first = session.add_seeds(&[b"<a>hi</a>".to_vec()])?;
//! assert!(first.stats.merges_accepted >= 1);
//!
//! // Later seeds extend the same grammar; prior trees are not re-derived
//! // and prior queries are answered from the session cache.
//! let second = session.add_seeds(&[b"<a><a>x</a></a>".to_vec()])?;
//! assert!(second.stats.unique_queries >= first.stats.unique_queries);
//! # Ok::<(), glade_core::SynthesisError>(())
//! ```

use crate::arena::KeySet;
use crate::cache::{hash_query, QueryCache};
use crate::chargen::{apply_staged_classes, StagedChargen, TEST_BYTES};
use crate::events::{CancelToken, SynthEvent, SynthPhase, SynthesisObserver};
use crate::memo::ByteClassMemo;
use crate::persist::{
    save_durable, snapshot_from_binary, snapshot_to_binary, CacheError, CacheSnapshot, MemoEntry,
};
use crate::phase1::Phase1;
use crate::phase2::StagedMerge;
use crate::runner::{QueryRunner, RunnerOptions};
use crate::synth::{GladeConfig, Synthesis, SynthesisError, SynthesisStats};
use crate::tree::{trees_to_grammar, Node, UnionFind};
use crate::Oracle;
use glade_grammar::Regex;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fluent configuration for the session API.
///
/// Replaces struct-literal [`GladeConfig`] construction: each method sets
/// one knob and returns the builder, and [`GladeBuilder::session`] opens a
/// [`Session`] against an oracle. [`GladeBuilder::synthesize`] is the
/// one-shot convenience for callers that need a single blocking run.
///
/// # Examples
///
/// ```
/// use glade_core::{FnOracle, GladeBuilder};
///
/// let oracle = FnOracle::new(glade_core::testing::xml_like);
/// let result = GladeBuilder::new()
///     .max_queries(100_000)
///     .worker_threads(2)
///     .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)?;
/// assert!(result.stats.unique_queries > 0);
/// # Ok::<(), glade_core::SynthesisError>(())
/// ```
#[derive(Clone, Default)]
pub struct GladeBuilder {
    config: GladeConfig,
    observer: Option<Arc<dyn SynthesisObserver>>,
    /// `None` until [`GladeBuilder::cancel_token`] installs one: each
    /// session then gets its own fresh token, so cancelling one session
    /// built from a cloned builder cannot silently degrade the others.
    cancel: Option<CancelToken>,
    /// Oracle identity written into (and checked against) persisted cache
    /// snapshots; see [`GladeBuilder::oracle_fingerprint`].
    fingerprint: Option<String>,
}

impl std::fmt::Debug for GladeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GladeBuilder")
            .field("config", &self.config)
            .field("observer", &self.observer.as_ref().map(|_| "dyn SynthesisObserver"))
            .field("cancel", &self.cancel)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl GladeBuilder {
    /// Starts from the default configuration (full pipeline, unlimited
    /// budget, automatic worker count).
    pub fn new() -> Self {
        GladeBuilder::default()
    }

    /// Enables or disables the merge phase (Section 5). Disabling yields
    /// the paper's `P1` ablation.
    pub fn phase2(mut self, enabled: bool) -> Self {
        self.config.phase2 = enabled;
        self
    }

    /// Enables or disables character generalization (Section 6.2).
    pub fn character_generalization(mut self, enabled: bool) -> Self {
        self.config.character_generalization = enabled;
        self
    }

    /// Caps the *distinct* oracle queries per run; past the cap the run
    /// degrades gracefully (stops generalizing further).
    pub fn max_queries(mut self, limit: usize) -> Self {
        self.config.max_queries = Some(limit);
        self
    }

    /// Sets a wall-clock limit per run, emulating the paper's 300 s
    /// timeout.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.config.time_limit = Some(limit);
        self
    }

    /// Enables or disables the Section 6.1 redundant-seed skip.
    pub fn skip_redundant_seeds(mut self, enabled: bool) -> Self {
        self.config.skip_redundant_seeds = enabled;
        self
    }

    /// Sets the worker-thread count for batched membership checks
    /// (`1` forces the fully sequential path; the default uses the
    /// machine's available parallelism).
    ///
    /// Oracles that batch natively (see
    /// [`Oracle::native_batching`], e.g.
    /// [`PooledProcessOracle`](crate::PooledProcessOracle)) are handed
    /// whole miss sets from the calling thread instead — their own pool
    /// size, not this knob, governs their parallelism. Either way the
    /// synthesized grammar and the query counts are identical.
    pub fn worker_threads(mut self, workers: usize) -> Self {
        self.config.worker_threads = Some(workers);
        self
    }

    /// Installs a progress observer (see [`SynthEvent`]
    /// for the event vocabulary). Pass an `Arc` to keep a handle for
    /// inspection after the run.
    pub fn observer(mut self, observer: impl SynthesisObserver + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// Installs an external cancellation token; keep a clone and call
    /// [`CancelToken::cancel`] to stop runs early. Without this, every
    /// session built from this builder (or a clone of it) gets its own
    /// fresh token, reachable via [`Session::cancel_token`]; an installed
    /// token, by contrast, is deliberately shared — cancelling it stops
    /// every session it was installed into.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Declares the identity of the oracle this session will query, for
    /// persisted cache snapshots. Cached verdicts are facts about one
    /// target: with a fingerprint installed, [`Session::save_cache`] tags
    /// snapshots with it and [`Session::load_cache`] **rejects** snapshots
    /// tagged with a different fingerprint ([`CacheError::OracleMismatch`])
    /// instead of silently replaying stale verdicts. Untagged snapshots
    /// still load.
    ///
    /// Use [`ProcessOracle::fingerprint`](crate::ProcessOracle::fingerprint)
    /// / [`PooledProcessOracle::fingerprint`](crate::PooledProcessOracle::fingerprint)
    /// for process oracles, or any stable string (e.g. a target name) for
    /// in-process oracles.
    pub fn oracle_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = Some(fingerprint.into());
        self
    }

    /// The configuration assembled so far.
    pub fn config(&self) -> &GladeConfig {
        &self.config
    }

    /// Opens a session against `oracle`. The session owns the query cache;
    /// every run through it shares (and extends) that cache.
    pub fn session<'o>(self, oracle: &'o dyn Oracle) -> Session<'o> {
        Session {
            config: self.config,
            oracle,
            observer: self.observer,
            cancel: self.cancel.unwrap_or_default(),
            fingerprint: self.fingerprint,
            cache: QueryCache::new(),
            memo: ByteClassMemo::new(),
            trees: Vec::new(),
            chargen_done: 0,
            combined: None,
            next_star_id: 0,
            seeds: Vec::new(),
            seeds_used: 0,
            seeds_skipped: 0,
            chars_generalized: 0,
            memo_hits: 0,
            probes_elided: 0,
        }
    }

    /// One-shot convenience: opens a session, runs [`Session::add_seeds`]
    /// once, and returns the result.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::NoSeeds`] for an empty seed set and
    /// [`SynthesisError::SeedRejected`] if the oracle rejects a seed.
    pub fn synthesize(
        self,
        seeds: &[Vec<u8>],
        oracle: &dyn Oracle,
    ) -> Result<Synthesis, SynthesisError> {
        self.session(oracle).add_seeds(seeds)
    }
}

/// A long-lived synthesis session: one oracle, one persistent query cache,
/// and the accumulated per-seed generalization state.
///
/// Created by [`GladeBuilder::session`]. See the crate docs for the
/// capability overview and an example.
///
/// # Determinism
///
/// With a deterministic oracle and no degradation — no time limit, no
/// cancellation, and no `max_queries` exhaustion — the grammar produced
/// after a sequence of [`Session::add_seeds`] calls is byte-identical to a
/// fresh run on the concatenated seed list, and the session's
/// distinct-query count ([`SynthesisStats::unique_queries`]) equals the
/// fresh run's — the cache answers repeated checks, it never changes which
/// checks are posed. Both are also independent of
/// [`GladeBuilder::worker_threads`]. Because the query budget applies per
/// `add_seeds` call, a budget-exhausted incremental sequence can diverge
/// from the equally-budgeted fresh run (it had more total budget, and
/// trees degraded in an early call are frozen rather than re-generalized);
/// the safety guarantees (fail-closed, every seed preserved) still hold.
pub struct Session<'o> {
    config: GladeConfig,
    oracle: &'o dyn Oracle,
    observer: Option<Arc<dyn SynthesisObserver>>,
    cancel: CancelToken,
    /// Declared oracle identity for snapshot tagging/validation.
    fingerprint: Option<String>,
    /// Session-lifetime membership-query cache (snapshot-able).
    cache: QueryCache,
    /// Session-lifetime byte-class memo table (snapshot-able alongside the
    /// cache; see `memo.rs`).
    memo: ByteClassMemo,
    /// Per-seed generalization trees, post character generalization for
    /// indices below `chargen_done`.
    trees: Vec<Node>,
    chargen_done: usize,
    /// Disjunction of the *pre-chargen* per-seed regexes, exactly the
    /// state the Section 6.1 redundancy skip consults in a fresh run.
    combined: Option<Regex>,
    next_star_id: usize,
    seeds: Vec<Vec<u8>>,
    seeds_used: usize,
    seeds_skipped: usize,
    chars_generalized: usize,
    /// Cumulative query-reduction counters (session lifetime, like
    /// `chars_generalized`).
    memo_hits: usize,
    probes_elided: usize,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("seeds", &self.seeds.len())
            .field("unique_queries", &self.unique_queries())
            .field("star_count", &self.next_star_id)
            .finish()
    }
}

impl<'o> Session<'o> {
    /// The session configuration (fixed at build time).
    pub fn config(&self) -> &GladeConfig {
        &self.config
    }

    /// A clonable handle that cancels this session's runs when triggered.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Every seed submitted so far, in submission order (including seeds
    /// skipped as redundant).
    pub fn seeds(&self) -> &[Vec<u8>] {
        &self.seeds
    }

    /// Distinct membership queries known so far: every distinct key in
    /// the cache.
    pub fn unique_queries(&self) -> usize {
        self.cache.len()
    }

    /// Extends the synthesis with `seeds` and returns the full result over
    /// *all* seeds submitted so far.
    ///
    /// New seeds are validated, generalized (phase one), and character
    /// generalized; earlier seeds' trees are reused as-is. Phase two is
    /// re-run over the combined star set — its checks for previously
    /// examined pairs are answered by the session cache, so incremental
    /// runs pay oracle calls only for genuinely new checks. An empty
    /// `seeds` slice re-synthesizes from the current state (useful after
    /// [`Session::load_cache`] only to rebuild the grammar).
    ///
    /// The query/time budget configured on the builder applies per call,
    /// not per session.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::NoSeeds`] if the session has no seeds at
    /// all, and [`SynthesisError::SeedRejected`] if the oracle rejects a
    /// new seed (earlier seeds and session state stay untouched).
    pub fn add_seeds(&mut self, seeds: &[Vec<u8>]) -> Result<Synthesis, SynthesisError> {
        if seeds.is_empty() && self.seeds.is_empty() {
            return Err(SynthesisError::NoSeeds);
        }
        let workers = self
            .config
            .worker_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let observer: Option<&dyn SynthesisObserver> = self.observer.as_deref();
        let mut runner = QueryRunner::new(
            self.oracle,
            &mut self.cache,
            RunnerOptions {
                max_queries: self.config.max_queries,
                time_limit: self.config.time_limit,
                workers,
                observer,
                cancel: Some(&self.cancel),
            },
        );
        let unique_before = runner.unique_queries();
        // Validate all new seeds before touching session state, so a
        // rejected seed leaves the session usable.
        for seed in seeds {
            if !runner.accepts_unbudgeted(seed) {
                return Err(SynthesisError::SeedRejected(seed.clone()));
            }
        }

        let emit = |event: SynthEvent| {
            if let Some(obs) = observer {
                obs.on_event(&event);
            }
        };
        let mut stats = SynthesisStats::default();

        // Phase one, new seeds only, seed by seed (Section 6.1).
        let t0 = Instant::now();
        if !seeds.is_empty() {
            emit(SynthEvent::PhaseStarted { phase: SynthPhase::Phase1 });
        }
        let mut phase1 = Phase1::new(&mut runner, self.next_star_id);
        for seed in seeds {
            let seed_index = self.seeds.len();
            self.seeds.push(seed.clone());
            if self.config.skip_redundant_seeds {
                if let Some(r) = &self.combined {
                    if r.is_match(seed) {
                        self.seeds_skipped += 1;
                        emit(SynthEvent::SeedSkipped { seed_index });
                        continue;
                    }
                }
            }
            let stars_before = phase1.next_star_id();
            let tree = phase1.generalize_seed(seed);
            let tree_regex = tree.to_regex();
            self.combined = Some(match self.combined.take() {
                Some(r) => Regex::alt(vec![r, tree_regex]),
                None => tree_regex,
            });
            self.trees.push(tree);
            self.seeds_used += 1;
            emit(SynthEvent::SeedGeneralized {
                seed_index,
                new_stars: phase1.next_star_id() - stars_before,
            });
        }
        self.next_star_id = phase1.next_star_id();
        stats.phase1_time = t0.elapsed();
        if !seeds.is_empty() {
            emit(SynthEvent::PhaseFinished {
                phase: SynthPhase::Phase1,
                elapsed: stats.phase1_time,
                unique_queries: runner.unique_queries(),
            });
        }

        // Character generalization (Section 6.2, new trees only — earlier
        // trees were already widened, and re-probing them would only replay
        // cache hits) and phase two (Section 5, recomputed over the
        // combined star set; pairs examined by earlier runs are answered by
        // the session cache) share aggregated membership batches, so the
        // worker pool stays saturated across the stage boundary instead of
        // draining between chargen's per-terminal work and the merge sweep.
        //
        // Both stages plan in waves through the query-reduction layer
        // (byte-class memoization, context short-circuiting, in-wave
        // dedup, merge pre-accept — see `chargen.rs`), eliding
        // provably-redundant checks before they reach the runner: each
        // advances one context / one check per probe per wave, resolving
        // as much as possible against the session cache and memo table
        // between waves. Each wave is one aggregated batch; the loop ends
        // when neither stage has anything left to pose (chargen needs at
        // most max-contexts waves, merge at most two, and they overlap).
        // Verdicts are folded sequentially in planning order, keeping the
        // grammar worker-count-independent.
        let do_chargen =
            self.config.character_generalization && self.chargen_done < self.trees.len();
        let t1 = Instant::now();
        let mut staged_cg = if do_chargen {
            emit(SynthEvent::PhaseStarted { phase: SynthPhase::CharGeneralization });
            Some(StagedChargen::new(&self.trees[self.chargen_done..], TEST_BYTES, &self.memo))
        } else {
            None
        };
        // When chargen has no work the waves are phase two's alone and run
        // inside the phase-two window; otherwise phase two's checks ride
        // along in chargen's waves and its window opens after them.
        if self.config.phase2 && staged_cg.is_none() {
            emit(SynthEvent::PhaseStarted { phase: SynthPhase::Phase2 });
        }
        let mut staged_mg =
            self.config.phase2.then(|| StagedMerge::new(&self.trees, self.next_star_id));

        let mut batch_total = Duration::ZERO;
        let mut chargen_batch_share = Duration::ZERO;
        loop {
            // The planners look the wave's checks up in the cache through
            // the runner, which owns it between waves.
            let cg_n = staged_cg.as_mut().map_or(0, |s| s.plan_wave(runner.cache()));
            let mg_n = staged_mg.as_mut().map_or(0, |s| s.plan_wave(runner.cache()));
            if cg_n + mg_n == 0 {
                break;
            }
            let wave_start = Instant::now();
            // Every planned slot is a distinct plan-time miss: the runner
            // poses the planners' keys as they stand, chargen's first.
            let mut sets: Vec<&mut KeySet> = staged_cg
                .iter_mut()
                .map(StagedChargen::keys_mut)
                .chain(staged_mg.iter_mut().map(StagedMerge::keys_mut))
                .collect();
            let verdicts = runner.pose(&mut sets);
            let wave_time = wave_start.elapsed();
            batch_total += wave_time;
            // A shared wave's wall time is not one phase's: attribute it
            // pro rata by check count, so chargen_time / phase2_time keep
            // meaning "time spent on this phase's oracle work".
            chargen_batch_share += wave_time.mul_f64(cg_n as f64 / (cg_n + mg_n) as f64);
            if let Some(s) = staged_cg.as_mut() {
                s.fold_wave(&verdicts[..cg_n]);
            }
            if let Some(s) = staged_mg.as_mut() {
                s.fold_wave(&verdicts[cg_n..]);
            }
        }
        let cg_outcome = staged_cg.map(StagedChargen::finish);
        let mg_outcome = staged_mg.map(StagedMerge::finish);

        let mut run_elided = 0usize;
        let mut run_memo_hits = 0usize;
        if let Some(outcome) = cg_outcome {
            apply_staged_classes(&mut self.trees[self.chargen_done..], &outcome.classes);
            self.chargen_done = self.trees.len();
            self.chars_generalized += outcome.accepted;
            run_elided += outcome.probes_elided;
            run_memo_hits += outcome.memo_hits;
            // A degraded run's classes embed fail-closed verdicts — they
            // are safe for *this* run's grammar but are not facts about the
            // language, so they must never be memoized.
            if !runner.exhausted() {
                for (key, classes) in outcome.memo_inserts {
                    self.memo.insert(key, classes);
                }
            }
            stats.chargen_time = t1.elapsed().saturating_sub(batch_total) + chargen_batch_share;
            emit(SynthEvent::PhaseFinished {
                phase: SynthPhase::CharGeneralization,
                elapsed: stats.chargen_time,
                unique_queries: runner.unique_queries(),
            });
        }

        let t2 = Instant::now();
        let mut merges = if let Some(outcome) = mg_outcome {
            if do_chargen {
                emit(SynthEvent::PhaseStarted { phase: SynthPhase::Phase2 });
            }
            for &(left, right) in &outcome.accepted {
                emit(SynthEvent::MergeAccepted { left_star: left, right_star: right });
            }
            stats.merge_pairs_tried = outcome.stats.pairs_tried;
            stats.merges_accepted = outcome.stats.merges_accepted;
            run_elided += outcome.probes_elided;
            stats.phase2_time = if do_chargen {
                t2.elapsed() + batch_total.saturating_sub(chargen_batch_share)
            } else {
                t1.elapsed()
            };
            emit(SynthEvent::PhaseFinished {
                phase: SynthPhase::Phase2,
                elapsed: stats.phase2_time,
                unique_queries: runner.unique_queries(),
            });
            outcome.uf
        } else {
            UnionFind::new(self.next_star_id)
        };

        self.probes_elided += run_elided;
        self.memo_hits += run_memo_hits;
        if run_elided + run_memo_hits > 0 {
            emit(SynthEvent::ProbesElided { elided: run_elided, memo_hits: run_memo_hits });
        }

        let grammar = trees_to_grammar(&self.trees, &mut merges);
        let regex = Regex::alt(self.trees.iter().map(Node::to_regex).collect());

        stats.seeds_used = self.seeds_used;
        stats.seeds_skipped = self.seeds_skipped;
        stats.star_count = self.next_star_id;
        stats.tree_nodes = self.trees.iter().map(Node::size).sum();
        stats.chars_generalized = self.chars_generalized;
        stats.memo_hits = self.memo_hits;
        stats.probes_elided = self.probes_elided;
        stats.unique_queries = runner.unique_queries();
        stats.new_unique_queries = runner.unique_queries() - unique_before;
        stats.total_queries = runner.total_queries();
        stats.budget_exhausted = runner.exhausted();
        stats.cancelled = runner.was_cancelled();
        let health = runner.oracle_health();
        stats.oracle_failures = health.failures;
        stats.timed_out_queries = health.timeouts;
        stats.tripped_workers = health.trips;

        Ok(Synthesis { grammar, regex, stats })
    }

    /// Serializes the session's query cache, byte-class memo table and
    /// oracle fingerprint (see [`GladeBuilder::oracle_fingerprint`]) to a
    /// `glade-cachebin v1` snapshot (see `persist.rs`). Entries are sorted,
    /// so equal sessions produce byte-identical snapshots.
    pub fn export_cache_binary(&self) -> Vec<u8> {
        snapshot_to_binary(
            &self.cache.snapshot(),
            &self.memo_entries(),
            self.fingerprint.as_deref(),
        )
    }

    fn memo_entries(&self) -> Vec<MemoEntry> {
        self.memo
            .entries_sorted()
            .into_iter()
            .map(|(key, classes)| MemoEntry { key: key.to_be_bytes(), classes })
            .collect()
    }

    /// Loads `glade-cachebin v1` snapshot bytes (a
    /// [`Session::export_cache_binary`] export) into the session cache,
    /// returning the number of *query* entries read. Memo entries load into the byte-class memo table
    /// (they are not counted), warm-starting character generalization past
    /// whole terminals. Existing entries keep their verdict (a snapshot
    /// from the same deterministic oracle always agrees).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadHeader`] for bytes that are not a
    /// `glade-cachebin v1` snapshot, [`CacheError::Corrupt`] naming the
    /// first inconsistent byte of one, or [`CacheError::OracleMismatch`] — without touching the
    /// cache — when both the session and the snapshot declare oracle
    /// fingerprints and they differ (the verdicts are facts about a
    /// *different* target; replaying them would silently corrupt
    /// synthesis). Untagged snapshots always load.
    pub fn import_cache(&mut self, bytes: &[u8]) -> Result<usize, CacheError> {
        self.import_snapshot(snapshot_from_binary(bytes)?)
    }

    /// Validates a parsed snapshot's fingerprint against the session's
    /// and folds its entries and memo classes in — the shared tail of
    /// every load path.
    fn import_snapshot(&mut self, snapshot: CacheSnapshot) -> Result<usize, CacheError> {
        if let (Some(expected), Some(found)) =
            (self.fingerprint.as_deref(), snapshot.oracle_fingerprint.as_deref())
        {
            if expected != found {
                return Err(CacheError::OracleMismatch {
                    snapshot: found.to_owned(),
                    expected: expected.to_owned(),
                });
            }
        }
        let count = snapshot.entries.len();
        for (query, verdict) in snapshot.entries {
            self.cache.insert_hashed(hash_query(&query), query.into_boxed_slice(), verdict);
        }
        for entry in snapshot.memo {
            self.memo.insert(u128::from_be_bytes(entry.key), entry.classes);
        }
        Ok(count)
    }

    /// Writes the cache snapshot ([`Session::export_cache_binary`]) to
    /// `path`, atomically and durably: the snapshot is written to a
    /// sibling temporary file, fsynced, renamed over `path`, and the
    /// directory entry is fsynced — a crash or power loss mid-save leaves
    /// either the old snapshot or the new one, never a truncated hybrid.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] if the file cannot be written.
    pub fn save_cache(&self, path: impl AsRef<Path>) -> Result<(), CacheError> {
        save_durable(path.as_ref(), &self.export_cache_binary())
    }

    /// Reads a `glade-cachebin v1` snapshot from `path` into the session
    /// cache, returning the number of entries read; the file is streamed,
    /// not slurped ([`CacheSnapshot::load`]).
    ///
    /// # Errors
    ///
    /// As [`Session::import_cache`], plus [`CacheError::Io`] if the file
    /// cannot be read.
    pub fn load_cache(&mut self, path: impl AsRef<Path>) -> Result<usize, CacheError> {
        self.import_snapshot(CacheSnapshot::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;
    use crate::testing::xml_like;
    use crate::FnOracle;
    use glade_grammar::Earley;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builder_configures_every_knob() {
        let b = GladeBuilder::new()
            .phase2(false)
            .character_generalization(false)
            .max_queries(7)
            .time_limit(Duration::from_secs(3))
            .skip_redundant_seeds(false)
            .worker_threads(2);
        let c = b.config();
        assert!(!c.phase2);
        assert!(!c.character_generalization);
        assert_eq!(c.max_queries, Some(7));
        assert_eq!(c.time_limit, Some(Duration::from_secs(3)));
        assert!(!c.skip_redundant_seeds);
        assert_eq!(c.worker_threads, Some(2));
    }

    #[test]
    fn one_shot_synthesize_matches_session_run() {
        let oracle = FnOracle::new(xml_like);
        let one_shot = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).unwrap();
        let mut session = GladeBuilder::new().session(&oracle);
        let run = session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert_eq!(
            glade_grammar::grammar_to_text(&one_shot.grammar),
            glade_grammar::grammar_to_text(&run.grammar)
        );
        assert_eq!(one_shot.stats.unique_queries, run.stats.unique_queries);
        assert_eq!(run.stats.new_unique_queries, run.stats.unique_queries);
    }

    #[test]
    fn empty_first_call_errors_but_session_survives() {
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().session(&oracle);
        assert!(matches!(session.add_seeds(&[]), Err(SynthesisError::NoSeeds)));
        let ok = session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert!(Earley::new(&ok.grammar).accepts(b"<a>hi</a>"));
        // Empty follow-up re-synthesizes from existing state.
        let again = session.add_seeds(&[]).unwrap();
        assert_eq!(
            glade_grammar::grammar_to_text(&ok.grammar),
            glade_grammar::grammar_to_text(&again.grammar)
        );
        assert_eq!(again.stats.new_unique_queries, 0, "re-run is fully cached");
    }

    #[test]
    fn rejected_seed_leaves_session_usable() {
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().session(&oracle);
        session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let err = session.add_seeds(&[b"<bad".to_vec()]).unwrap_err();
        assert_eq!(err, SynthesisError::SeedRejected(b"<bad".to_vec()));
        assert_eq!(session.seeds().len(), 1, "rejected batch not recorded");
        let ok = session.add_seeds(&[b"xy".to_vec()]).unwrap();
        assert!(Earley::new(&ok.grammar).accepts(b"xy"));
    }

    #[test]
    fn incremental_skips_redundant_later_seed() {
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().session(&oracle);
        session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        // Covered by the first seed's pre-chargen regex (<a>[hi]*</a>)*.
        let r = session.add_seeds(&[b"<a>hi</a><a>hi</a>".to_vec()]).unwrap();
        assert_eq!(r.stats.seeds_used, 1);
        assert_eq!(r.stats.seeds_skipped, 1);
    }

    #[test]
    fn observer_sees_phases_seeds_and_merges() {
        let log = Arc::new(EventLog::new());
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().observer(log.clone()).session(&oracle);
        session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let events = log.events();
        let started: Vec<SynthPhase> = events
            .iter()
            .filter_map(|e| match e {
                SynthEvent::PhaseStarted { phase } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(
            started,
            vec![SynthPhase::Phase1, SynthPhase::CharGeneralization, SynthPhase::Phase2]
        );
        let finished =
            events.iter().filter(|e| matches!(e, SynthEvent::PhaseFinished { .. })).count();
        assert_eq!(finished, 3);
        assert!(events
            .iter()
            .any(|e| matches!(e, SynthEvent::SeedGeneralized { seed_index: 0, new_stars: 2 })));
        assert!(events
            .iter()
            .any(|e| matches!(e, SynthEvent::MergeAccepted { left_star: 0, right_star: 1 })));
        assert!(events.iter().any(|e| matches!(e, SynthEvent::QueryBatch { .. })));
    }

    #[test]
    fn budget_exhaustion_event_and_stat() {
        let log = Arc::new(EventLog::new());
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().max_queries(5).observer(log.clone()).session(&oracle);
        let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert!(result.stats.budget_exhausted);
        assert!(!result.stats.cancelled);
        assert!(log.events().contains(&SynthEvent::BudgetExhausted));
        assert!(Earley::new(&result.grammar).accepts(b"<a>hi</a>"), "seed survives");
    }

    #[test]
    fn cancellation_mid_run_yields_seed_preserving_grammar() {
        // Cancel from inside the oracle after a fixed number of calls —
        // deterministic "mid-phase" cancellation.
        let token = CancelToken::new();
        let calls = AtomicUsize::new(0);
        let token_in_oracle = token.clone();
        let oracle = FnOracle::new(move |i: &[u8]| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 40 {
                token_in_oracle.cancel();
            }
            xml_like(i)
        });
        let log = Arc::new(EventLog::new());
        let mut session = GladeBuilder::new()
            .worker_threads(1)
            .cancel_token(token)
            .observer(log.clone())
            .session(&oracle);
        let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert!(result.stats.cancelled);
        assert!(result.stats.budget_exhausted, "cancel shares the fail-closed path");
        assert!(log.events().contains(&SynthEvent::Cancelled));
        assert!(Earley::new(&result.grammar).accepts(b"<a>hi</a>"), "seed survives");
        // Far fewer queries than the full run's 965.
        assert!(result.stats.unique_queries < 300, "{}", result.stats.unique_queries);
    }

    #[test]
    fn cancel_token_accessor_cancels_future_runs() {
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().session(&oracle);
        session.cancel_token().cancel();
        let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert!(result.stats.cancelled);
        assert!(Earley::new(&result.grammar).accepts(b"<a>hi</a>"));
    }

    #[test]
    fn cloned_builders_do_not_share_an_implicit_cancel_token() {
        // Regression: CancelToken is sticky and shared by clone, so a
        // derived Clone on the builder must not hand the same implicit
        // token to every session built from clones — cancelling one
        // session would silently degrade the others.
        let oracle = FnOracle::new(xml_like);
        let builder = GladeBuilder::new();
        let mut s1 = builder.clone().session(&oracle);
        let mut s2 = builder.session(&oracle);
        s1.cancel_token().cancel();
        let r1 = s1.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let r2 = s2.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert!(r1.stats.cancelled);
        assert!(!r2.stats.cancelled, "sibling session inherited the cancel");
        // An explicitly installed token IS shared — that is its purpose.
        let token = CancelToken::new();
        let shared = GladeBuilder::new().cancel_token(token.clone());
        let mut s3 = shared.clone().session(&oracle);
        token.cancel();
        assert!(s3.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap().stats.cancelled);
    }

    #[test]
    fn cache_export_import_roundtrip_is_cold_start_free() {
        let oracle = FnOracle::new(xml_like);
        let mut warm = GladeBuilder::new().session(&oracle);
        let first = warm.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let snapshot = warm.export_cache_binary();

        let counted = AtomicUsize::new(0);
        let counting_oracle = FnOracle::new(|i: &[u8]| {
            counted.fetch_add(1, Ordering::Relaxed);
            xml_like(i)
        });
        let mut cold = GladeBuilder::new().session(&counting_oracle);
        let loaded = cold.import_cache(&snapshot).unwrap();
        assert_eq!(loaded, first.stats.unique_queries);
        let second = cold.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert_eq!(second.stats.new_unique_queries, 0, "every check was answered");
        assert_eq!(counted.load(Ordering::Relaxed), 0, "oracle never consulted");
        assert_eq!(
            glade_grammar::grammar_to_text(&first.grammar),
            glade_grammar::grammar_to_text(&second.grammar)
        );
    }

    #[test]
    fn import_rejects_malformed_snapshots() {
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().session(&oracle);
        assert!(matches!(session.import_cache(b"nope"), Err(CacheError::BadHeader)));
        // A pre-binary text snapshot is not imported.
        assert!(matches!(
            session.import_cache(b"glade-cache v1\nq 1 61\n"),
            Err(CacheError::BadHeader)
        ));
        let mut torn = session.export_cache_binary();
        torn.pop();
        assert!(matches!(session.import_cache(&torn), Err(CacheError::Corrupt { .. })));
    }

    /// This session's verdicts as a binary snapshot, without memo entries,
    /// tagged with `fingerprint`.
    fn verdicts_only(session: &Session<'_>, fingerprint: Option<&str>) -> Vec<u8> {
        snapshot_to_binary(&session.cache.snapshot(), &[], fingerprint)
    }

    #[test]
    fn fingerprinted_sessions_tag_and_validate_snapshots() {
        let oracle = FnOracle::new(xml_like);
        let mut tagged = GladeBuilder::new()
            .character_generalization(false)
            .oracle_fingerprint("target:toy-xml")
            .session(&oracle);
        tagged.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let snapshot = tagged.export_cache_binary();

        // Same fingerprint: loads.
        let mut same = GladeBuilder::new().oracle_fingerprint("target:toy-xml").session(&oracle);
        assert!(same.import_cache(&snapshot).unwrap() > 0);

        // Different fingerprint: rejected without touching the cache.
        let mut other = GladeBuilder::new().oracle_fingerprint("target:lisp").session(&oracle);
        let err = other.import_cache(&snapshot).unwrap_err();
        assert!(
            matches!(&err, CacheError::OracleMismatch { snapshot, expected }
                if snapshot == "target:toy-xml" && expected == "target:lisp"),
            "{err}"
        );
        assert_eq!(other.unique_queries(), 0, "rejected snapshot left no verdicts behind");

        // A session without a declared fingerprint loads anything.
        let mut unfingerprinted = GladeBuilder::new().session(&oracle);
        assert!(unfingerprinted.import_cache(&snapshot).unwrap() > 0);

        // A tagged session accepts an untagged snapshot.
        let untagged = verdicts_only(&tagged, None);
        let mut tagged2 = GladeBuilder::new().oracle_fingerprint("target:toy-xml").session(&oracle);
        assert_eq!(tagged2.import_cache(&untagged).unwrap(), tagged.unique_queries());

        // `save_cache` writes the tag, and `load_cache` checks it.
        let path = temp_path("fp.glade-cache");
        tagged.save_cache(&path).unwrap();
        let mut other = GladeBuilder::new().oracle_fingerprint("target:lisp").session(&oracle);
        let err = other.load_cache(&path).unwrap_err();
        assert!(matches!(err, CacheError::OracleMismatch { .. }), "{err}");
        assert_eq!(other.unique_queries(), 0);
        let mut same = GladeBuilder::new().oracle_fingerprint("target:toy-xml").session(&oracle);
        assert!(same.load_cache(&path).unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memoized_run_matches_legacy_grammar_and_reports_elisions() {
        let seeds = [b"<a>hi</a>".to_vec(), b"<a><a>x</a></a>".to_vec()];
        let oracle = FnOracle::new(xml_like);
        let on = GladeBuilder::new().synthesize(&seeds, &oracle).unwrap();
        let off = crate::reference::synthesize(&GladeConfig::default(), &seeds, &oracle).unwrap();
        assert_eq!(
            glade_grammar::grammar_to_text(&on.grammar),
            glade_grammar::grammar_to_text(&off.grammar),
            "elision must never change the grammar"
        );
        assert_eq!(on.regex.to_string(), off.regex.to_string());
        assert_eq!(on.stats.chars_generalized, off.stats.chars_generalized);
        assert_eq!(on.stats.merges_accepted, off.stats.merges_accepted);
        assert_eq!(on.stats.merge_pairs_tried, off.stats.merge_pairs_tried);
        assert!(on.stats.probes_elided > 0, "staged run elided nothing");
        assert!(on.stats.unique_queries < off.stats.unique_queries);
        assert!(on.stats.total_queries < off.stats.total_queries);
    }

    #[test]
    fn probes_elided_event_reports_run_savings() {
        let log = Arc::new(EventLog::new());
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().observer(log.clone()).session(&oracle);
        let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let reported = log.events().iter().find_map(|e| match e {
            SynthEvent::ProbesElided { elided, memo_hits } => Some((*elided, *memo_hits)),
            _ => None,
        });
        let (elided, memo_hits) = reported.expect("staged run must report its elisions");
        assert_eq!(elided, result.stats.probes_elided);
        assert_eq!(memo_hits, result.stats.memo_hits);
        assert!(elided > 0);
    }

    #[test]
    fn memo_snapshot_warm_starts_a_second_session() {
        let oracle = FnOracle::new(xml_like);
        let mut warm = GladeBuilder::new().session(&oracle);
        let first = warm.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let binary = warm.export_cache_binary();
        assert!(!warm.memo_entries().is_empty(), "memoizing sessions have memo entries");

        // A memo-laden snapshot warm-starts chargen wholesale: the second
        // session adopts every terminal's classes (memo hits) and poses
        // strictly fewer probes than the first session did.
        let mut cold = GladeBuilder::new().session(&oracle);
        cold.import_cache(&binary).unwrap();
        let second = cold.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert!(second.stats.memo_hits > 0, "imported memo entries unused");
        assert!(second.stats.probes_elided > first.stats.probes_elided);
        assert_eq!(second.stats.new_unique_queries, 0);
        assert_eq!(
            glade_grammar::grammar_to_text(&first.grammar),
            glade_grammar::grammar_to_text(&second.grammar)
        );

        // And a memo-free snapshot of the same cache still warm-starts
        // cleanly: every verdict answered, just no memo adoption beyond the
        // run's own in-plan siblings.
        let mut verdicts = GladeBuilder::new().session(&oracle);
        assert_eq!(
            verdicts.import_cache(&verdicts_only(&warm, None)).unwrap(),
            first.stats.unique_queries
        );
        let replay = verdicts.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert_eq!(replay.stats.new_unique_queries, 0);
        assert_eq!(replay.stats.memo_hits, first.stats.memo_hits);
        assert_eq!(
            glade_grammar::grammar_to_text(&first.grammar),
            glade_grammar::grammar_to_text(&replay.grammar)
        );
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("glade-session-{}-{name}", std::process::id()))
    }

    #[test]
    fn binary_save_load_warm_starts_with_zero_new_queries() {
        let oracle = FnOracle::new(xml_like);
        let mut warm = GladeBuilder::new().session(&oracle);
        let first = warm.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let path = temp_path("binary-roundtrip.glade-cache");
        warm.save_cache(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), warm.export_cache_binary());

        let counted = AtomicUsize::new(0);
        let counting_oracle = FnOracle::new(|i: &[u8]| {
            counted.fetch_add(1, Ordering::Relaxed);
            xml_like(i)
        });
        let mut cold = GladeBuilder::new().session(&counting_oracle);
        let loaded = cold.load_cache(&path).unwrap();
        assert_eq!(loaded, first.stats.unique_queries);
        let second = cold.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        assert_eq!(second.stats.new_unique_queries, 0, "binary warm start re-paid queries");
        assert_eq!(counted.load(Ordering::Relaxed), 0, "oracle never consulted");
        assert_eq!(second.stats.unique_queries, first.stats.unique_queries);
        assert_eq!(
            glade_grammar::grammar_to_text(&first.grammar),
            glade_grammar::grammar_to_text(&second.grammar)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_all_succeed() {
        // Two saves racing to one path each write their own temporary
        // file: both succeed, and the snapshot left behind is whole.
        let oracle = FnOracle::new(xml_like);
        let mut session = GladeBuilder::new().session(&oracle);
        session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
        let path = temp_path("racing-saves.glade-cache");
        let barrier = std::sync::Barrier::new(2);
        let failed = AtomicUsize::new(0);
        let session = &session;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..20 {
                        barrier.wait();
                        if session.save_cache(&path).is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(failed.load(Ordering::Relaxed), 0, "racing saves failed");
        assert_eq!(std::fs::read(&path).unwrap(), session.export_cache_binary());
        std::fs::remove_file(&path).ok();
    }
}
