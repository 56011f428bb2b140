//! Budgeted, cached, batch-parallel oracle access shared by all synthesis
//! phases.
//!
//! The paper measures synthesis cost purely in membership queries, and the
//! query layer dominates wall-clock time for any real target (each query
//! runs the program under test). The session thread owns this layer: one
//! [`QueryRunner`] per run borrows the session's [`QueryCache`] mutably,
//! and every method takes `&mut self`, so nothing on the query path needs
//! a lock or an atomic counter. Worker threads only call the oracle.
//!
//! * the query cache outlives any single run, so incremental `add_seeds`
//!   calls and warm-started runs (see `persist.rs`) answer repeated checks
//!   without re-paying oracle calls;
//! * **each check is admitted once, one hash and one allocation per
//!   distinct query:** a check is hashed exactly once, where its bytes are
//!   first assembled in a [`KeyArena`] (see `arena.rs`), looked up in the
//!   cache once, and interned once. The chargen and merge wave planners do
//!   this at plan time, reading the cache through [`QueryRunner::cache`]
//!   between waves, and hand their arenas' keys ([`KeySet`]s) to
//!   [`QueryRunner::pose`] as they stand: every slot is a distinct
//!   plan-time miss. Phase one's [`QueryRunner::accepts_batch`] does the
//!   same into an arena the runner reuses across calls, then poses it the
//!   same way. The hash is reused for the in-arena dedup and the cache
//!   insert; cache hits and duplicates allocate nothing, and a posed key
//!   moves into the cache;
//! * [`QueryRunner::pose`] charges budget per slot in slot order, poses
//!   each key once even when two planners' arenas hold it (the later slot
//!   is its earlier twin's co-owner), inserts the verdicts, and answers
//!   every slot;
//! * misses are dispatched by one loop over a shared cursor (see
//!   [`QueryRunner::dispatch`]): a natively batching oracle
//!   ([`Oracle::native_batching`]) gets bounded sub-batches on the session
//!   thread, any other oracle single misses across a scoped worker pool
//!   (`std::thread::scope`), where an idle worker takes the next miss, so
//!   one slow query delays only the worker running it.
//!
//! The runner is also the engine's observation and cancellation point:
//! every batch emits a [`SynthEvent::QueryBatch`] to the installed
//! observer, budget exhaustion and cancellation emit their events exactly
//! once, all from the session thread, and a [`CancelToken`] is checked both
//! at budget-reservation time and between the queries of an in-flight
//! batch — cancellation takes the same fail-closed path as the deadline.
//! It is also where a run's oracle health is counted, from its own calls
//! only (see `OracleHealth` in `oracle.rs`), so runs sharing one oracle
//! never count each other's faults.
//!
//! Determinism: with no time limit and no cancellation, batch results
//! depend only on the oracle (which must be deterministic, see
//! [`Oracle`]) and the batch contents — never on worker count or
//! scheduling. Phase two and character generalization exploit this by
//! batching their embarrassingly parallel check sets and applying the
//! verdicts sequentially. A `time_limit` (or a cancel) is the exception:
//! which queries beat the cutoff is inherently a function of wall-clock
//! speed, so degraded runs are reproducible only in their guarantees
//! (fail-closed, seeds preserved), not byte-for-byte.

use crate::arena::{KeyArena, KeySet};
use crate::cache::{hash_query, QueryCache};
use crate::events::{CancelToken, SynthEvent, SynthesisObserver};
use crate::oracle::OracleHealth;
use crate::tree::Context;
use crate::Oracle;
use crate::SynthesisError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Maximum number of byte-slice segments in a [`CheckSpec`].
///
/// The widest check the synthesizer builds is phase one's two-repetition
/// residual `γ·α1·α2·α2·α3·δ` — six segments.
pub(crate) const MAX_SEGMENTS: usize = 6;

/// Smallest number of distinct cache misses worth spawning worker threads
/// for; below this a batch runs inline on the calling thread.
const MIN_PARALLEL_MISSES: usize = 4;

/// Misses handed to a natively batching oracle per
/// [`Oracle::accepts_batch_checked`] call. The bound is the granularity at
/// which the deadline and the cancel token are re-checked during a huge
/// batch; within one sub-batch the oracle runs uninterrupted. Large enough
/// that frame batching amortizes fully, small enough that cancellation
/// latency stays in the tens-of-milliseconds range for real targets.
const NATIVE_DISPATCH_SUB_BATCH: usize = 1024;

/// A membership check described as a concatenation of byte slices, built
/// without allocating.
///
/// No check string is allocated per candidate: the segments are borrowed
/// from the seed string and the context, and are materialized into a
/// reusable scratch buffer only at lookup time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckSpec<'a> {
    segments: [&'a [u8]; MAX_SEGMENTS],
    used: usize,
}

impl<'a> CheckSpec<'a> {
    /// Builds a spec from raw segments (at most [`MAX_SEGMENTS`]).
    pub fn new(segments: &[&'a [u8]]) -> Self {
        assert!(segments.len() <= MAX_SEGMENTS, "check has too many segments");
        let mut s: [&'a [u8]; MAX_SEGMENTS] = [b""; MAX_SEGMENTS];
        s[..segments.len()].copy_from_slice(segments);
        CheckSpec { segments: s, used: segments.len() }
    }

    /// Builds the check `γ·parts·δ` for a residual in context `ctx`.
    pub fn wrapped(ctx: &'a Context, parts: &[&'a [u8]]) -> Self {
        assert!(parts.len() + 2 <= MAX_SEGMENTS, "residual has too many segments");
        let mut s: [&'a [u8]; MAX_SEGMENTS] = [b""; MAX_SEGMENTS];
        s[0] = &ctx.before;
        s[1..=parts.len()].copy_from_slice(parts);
        s[parts.len() + 1] = &ctx.after;
        CheckSpec { segments: s, used: parts.len() + 2 }
    }

    /// Appends the concatenated check string to `out` (callers clear first).
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.segments[..self.used].iter().map(|s| s.len()).sum());
        for seg in &self.segments[..self.used] {
            out.extend_from_slice(seg);
        }
    }
}

/// Construction-time knobs for a [`QueryRunner`], separate from the
/// borrowed oracle and cache so call sites stay readable.
pub(crate) struct RunnerOptions<'s> {
    /// Distinct-query budget for this run (`None` = unlimited).
    pub max_queries: Option<usize>,
    /// Wall-clock limit for this run.
    pub time_limit: Option<Duration>,
    /// Worker threads a batch of misses fans out to (1 = fully sequential).
    pub workers: usize,
    /// Progress observer; receives `QueryBatch`/`BudgetExhausted`/
    /// `Cancelled` events.
    pub observer: Option<&'s dyn SynthesisObserver>,
    /// Cooperative cancellation flag checked between and inside batches.
    pub cancel: Option<&'s CancelToken>,
}

impl Default for RunnerOptions<'_> {
    fn default() -> Self {
        RunnerOptions {
            max_queries: None,
            time_limit: None,
            workers: 1,
            observer: None,
            cancel: None,
        }
    }
}

/// Internal oracle front-end enforcing the query/time budget and the
/// cancel token.
///
/// Once the budget is exhausted (or the run is cancelled) every further
/// query answers `false`; since checks gate *generalization*, this
/// gracefully degrades synthesis (pending substrings collapse to
/// constants, pending merges are skipped) instead of aborting, mirroring
/// the paper's timeout handling of "use the last language successfully
/// learned".
///
/// The budget counts **budgeted distinct queries only**: seed validation
/// through [`QueryRunner::validate_seed`] shares the cache but not the
/// budget (the seed implementation compared the budget against the cache
/// size, silently charging seed validation to the synthesis budget).
pub(crate) struct QueryRunner<'s> {
    oracle: &'s dyn Oracle,
    /// Session-owned cache; this run has it to itself.
    cache: &'s mut QueryCache,
    observer: Option<&'s dyn SynthesisObserver>,
    cancel: Option<&'s CancelToken>,
    /// All queries, including cache hits.
    total: usize,
    /// Distinct budgeted queries actually charged against `max_queries`.
    budget_used: usize,
    max_queries: usize,
    deadline: Option<Instant>,
    exhausted: bool,
    /// Whether this run observed a cancel (and emitted `Cancelled`).
    cancelled: bool,
    /// Whether `BudgetExhausted` was emitted (it is, at most once).
    budget_event_sent: bool,
    /// Worker threads a batch of misses fans out to (1 = fully sequential).
    workers: usize,
    /// This run's oracle health, and the part already reported as events.
    health: OracleHealth,
    reported: OracleHealth,
    /// Phase one's arena, reused across [`QueryRunner::accepts_batch`]
    /// calls; its owners are check positions.
    keys: KeyArena<usize>,
    /// The buffers of [`QueryRunner::pose`], reused across calls.
    pose: PoseScratch,
}

/// The buffers of one [`QueryRunner::pose`] call.
#[derive(Debug, Default)]
struct PoseScratch {
    /// One verdict per slot of every posed set, sets in order. `None`
    /// answers `false` and is never cached: a slot over budget, skipped by
    /// a deadline or a cancel, or failed by the oracle.
    verdicts: Vec<Option<bool>>,
    /// The slots that won budget, in slot order.
    misses: Vec<Miss>,
    /// `(slot, earlier slot)`: a key an earlier set already holds. Both
    /// are indices into `verdicts`.
    twins: Vec<(usize, usize)>,
}

/// A slot that won budget: its set, its slot there, and its index into
/// [`PoseScratch::verdicts`].
#[derive(Debug, Clone, Copy)]
struct Miss {
    set: usize,
    slot: usize,
    at: usize,
}

/// Whether a cancel or a passed deadline must stop a batch from posing.
fn stop_due(cancel: Option<&CancelToken>, deadline: Option<Instant>) -> bool {
    cancel.is_some_and(CancelToken::is_cancelled) || deadline.is_some_and(|d| Instant::now() >= d)
}

impl<'s> QueryRunner<'s> {
    pub fn new(oracle: &'s dyn Oracle, cache: &'s mut QueryCache, opts: RunnerOptions<'s>) -> Self {
        QueryRunner {
            oracle,
            cache,
            observer: opts.observer,
            cancel: opts.cancel,
            total: 0,
            budget_used: 0,
            max_queries: opts.max_queries.unwrap_or(usize::MAX),
            deadline: opts.time_limit.map(|d| Instant::now() + d),
            exhausted: false,
            cancelled: false,
            budget_event_sent: false,
            workers: opts.workers.max(1),
            health: OracleHealth::default(),
            reported: OracleHealth::default(),
            keys: KeyArena::default(),
            pose: PoseScratch::default(),
        }
    }

    /// The session cache, for the wave planners' plan-time lookups.
    pub fn cache(&self) -> &QueryCache {
        self.cache
    }

    fn emit(&self, event: SynthEvent) {
        if let Some(obs) = self.observer {
            obs.on_event(&event);
        }
    }

    /// Trips the fail-closed flag; emits the matching event exactly once.
    fn trip_exhausted(&mut self, by_cancel: bool) {
        self.exhausted = true;
        if by_cancel {
            if !self.cancelled {
                self.cancelled = true;
                self.emit(SynthEvent::Cancelled);
            }
        } else if !self.budget_event_sent {
            self.budget_event_sent = true;
            self.emit(SynthEvent::BudgetExhausted);
        }
    }

    /// Whether the cancel token has been flipped.
    fn cancel_requested(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Emits one event per health count that grew since the last report
    /// ([`SynthEvent::OracleFailures`], [`SynthEvent::WorkerHung`],
    /// [`SynthEvent::BreakerTripped`], [`SynthEvent::BreakerRecovered`]).
    fn report_health(&mut self) {
        let (run, new) = (self.health, self.health - self.reported);
        self.reported = run;
        if new.failures > 0 {
            self.emit(SynthEvent::OracleFailures {
                new_failures: new.failures,
                run_failures: run.failures,
            });
        }
        if new.timeouts > 0 {
            self.emit(SynthEvent::WorkerHung {
                new_timeouts: new.timeouts,
                run_timeouts: run.timeouts,
            });
        }
        if new.trips > 0 {
            self.emit(SynthEvent::BreakerTripped { new_trips: new.trips, run_trips: run.trips });
        }
        if new.recoveries > 0 {
            self.emit(SynthEvent::BreakerRecovered {
                new_recoveries: new.recoveries,
                run_recoveries: run.recoveries,
            });
        }
    }

    /// This run's oracle health so far (its own calls only).
    pub fn oracle_health(&self) -> OracleHealth {
        self.health
    }

    /// Reserves one budget slot, or trips the exhausted flag and fails.
    fn reserve_budget(&mut self) -> bool {
        if self.cancel_requested() {
            self.trip_exhausted(true);
            return false;
        }
        if self.exhausted {
            return false;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.budget_used >= self.max_queries
        {
            self.trip_exhausted(false);
            return false;
        }
        self.budget_used += 1;
        true
    }

    /// Budget-aware batched membership query.
    ///
    /// Answers what it can from the cache, interns the remaining checks
    /// into the runner's arena (deduplicating on the bytes — equal
    /// hashes alone never merge two checks), and poses that arena through
    /// [`QueryRunner::pose`]: misses beyond the budget answer `false`.
    /// Results are returned in input order and are identical for every
    /// worker count.
    ///
    /// Budget note: a batch charges every distinct miss it poses. Callers
    /// that previously short-circuited (stop at the first failing check of
    /// a candidate) now pay for the whole batch — that is the price of
    /// posing the checks concurrently, and it is the same in sequential
    /// mode so query counts stay worker-count-independent.
    pub fn accepts_batch(&mut self, checks: &[CheckSpec<'_>]) -> Vec<bool> {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        let mut results = vec![false; checks.len()];
        let mut cached = 0;
        for (i, spec) in checks.iter().enumerate() {
            let h = keys.stage(|buf| spec.write_into(buf));
            match self.cache.get_hashed(h, keys.staged()) {
                Some(v) => {
                    results[i] = v;
                    cached += 1;
                }
                None => {
                    keys.intern_staged(h, i);
                }
            }
        }
        self.pose_into(&mut [keys.keys_mut()], checks.len(), cached);
        for (slot, verdict) in self.pose.verdicts.iter().enumerate() {
            for &i in keys.owners(slot) {
                results[i] = verdict.unwrap_or(false);
            }
        }
        self.keys = keys;
        results
    }

    /// Poses the distinct misses of a wave: `sets` are the planners' key
    /// sets, each slot a distinct check that missed the cache at plan time
    /// (see `arena.rs`). Returns one verdict per slot, sets in order.
    ///
    /// Budget is reserved per slot in slot order; a slot over budget
    /// answers `false`. A key that an earlier set already holds is posed
    /// and charged once, through that earlier slot, and both slots get its
    /// verdict. Every slot still counts as one query in
    /// [`QueryRunner::total_queries`]. The posed keys move into the cache.
    pub fn pose(&mut self, sets: &mut [&mut KeySet]) -> Vec<bool> {
        let checks = sets.iter().map(|set| set.len()).sum();
        self.pose_into(sets, checks, 0);
        self.pose.verdicts.iter().map(|v| v.unwrap_or(false)).collect()
    }

    /// Whether any slot of `sets` is already cached — a planner that
    /// interned a key without looking it up first.
    fn any_slot_cached(&self, sets: &[&mut KeySet]) -> bool {
        sets.iter().any(|set| {
            (0..set.len()).any(|s| self.cache.get_hashed(set.hash(s), set.key(s)).is_some())
        })
    }

    /// [`QueryRunner::pose`] into `self.pose.verdicts`. `checks` is the
    /// number of checks the batch was planned from, `cached` how many of
    /// them the cache answered before interning: both go to
    /// [`QueryRunner::total_queries`] and the [`SynthEvent::QueryBatch`]
    /// event.
    ///
    /// The time budget and the cancel token are enforced during execution
    /// too: once the deadline passes or the token flips, remaining misses
    /// are skipped (answering `false`, *not* cached — only real oracle
    /// verdicts enter the cache) and the runner is marked exhausted.
    fn pose_into(&mut self, sets: &mut [&mut KeySet], checks: usize, cached: usize) {
        debug_assert!(!self.any_slot_cached(sets), "a planner interned a key the cache answers");
        self.total += checks;
        let mut buf = std::mem::take(&mut self.pose);
        buf.verdicts.clear();
        buf.misses.clear();
        buf.twins.clear();
        // Admission: budget per distinct miss, in slot order. A key an
        // earlier set holds is that slot's twin and is neither charged nor
        // posed again.
        let mut at = 0;
        for (set_index, set) in sets.iter().enumerate() {
            for slot in 0..set.len() {
                let (h, key) = (set.hash(slot), set.key(slot));
                let mut start = 0;
                let earlier = sets[..set_index].iter().find_map(|other| {
                    let found = other.find(h, key).map(|s| start + s);
                    start += other.len();
                    found
                });
                match earlier {
                    Some(twin) => buf.twins.push((at, twin)),
                    None if self.reserve_budget() => {
                        buf.misses.push(Miss { set: set_index, slot, at })
                    }
                    None => {}
                }
                at += 1;
            }
        }
        buf.verdicts.resize(at, None);
        self.dispatch(sets, &buf.misses, &mut buf.verdicts);
        self.report_health();

        if self.observer.is_some() {
            // `posed` counts misses that actually reached the oracle —
            // slots left `None` were skipped by the deadline or a cancel.
            let posed = buf.misses.iter().filter(|m| buf.verdicts[m.at].is_some()).count();
            self.emit(SynthEvent::QueryBatch { checks, cached, posed });
        }

        for m in &buf.misses {
            if let Some(verdict) = buf.verdicts[m.at] {
                let set = &mut sets[m.set];
                self.cache.insert_hashed(set.hash(m.slot), set.take_key(m.slot), verdict);
            }
        }
        for &(at, twin) in &buf.twins {
            buf.verdicts[at] = buf.verdicts[twin];
        }
        self.pose = buf;
    }

    /// Poses `misses`, writing each real verdict to its `verdicts` index.
    ///
    /// One loop serves every oracle: dispatching threads take the next
    /// misses from a shared cursor until it runs out or a cancel or the
    /// deadline stops them.
    ///
    /// * An oracle that batches natively ([`Oracle::native_batching`]: the
    ///   pooled process oracle's `poll(2)` dispatcher, the in-process
    ///   Earley `GrammarOracle`) takes up to [`NATIVE_DISPATCH_SUB_BATCH`]
    ///   misses per call on this thread, whatever `workers` says. No
    ///   engine thread is parked per in-flight query; the oracle keeps its
    ///   own workers saturated or reuses work across the sub-batch. The
    ///   bound exists so the deadline and the cancel token are still
    ///   honored *during* a large batch.
    /// * Any other oracle takes one miss per [`Oracle::accepts_checked`]
    ///   call, across `min(workers, misses)` threads, so one slow query
    ///   (heterogeneous latencies are the norm for real targets) stalls
    ///   one thread instead of a static chunk scheduled behind it. Spawning
    ///   threads costs tens of microseconds, so a single worker, or fewer
    ///   than [`MIN_PARALLEL_MISSES`] misses (phase one's residual pairs),
    ///   runs inline.
    ///
    /// Spawned threads only call the oracle: they hand back their answers
    /// by miss index, the health of their calls and whether they saw a
    /// stop, and this thread writes the verdicts, trips the
    /// fail-closed flag and emits every event. Every miss is posed at most
    /// once and the oracle is deterministic, so results — and the set of
    /// cached queries — are identical for every worker count. A verdict
    /// left `None` marks a miss skipped because the deadline expired (or
    /// the run was cancelled) mid-batch, or an oracle execution failure:
    /// it answers `false` but is not cached (only real oracle verdicts may
    /// enter the cache, or a persisted snapshot would poison every warm
    /// start). The health charged is the `None` answers the calls got
    /// back; a skipped miss is no failure.
    fn dispatch(&mut self, sets: &[&mut KeySet], misses: &[Miss], verdicts: &mut [Option<bool>]) {
        let (oracle, cancel, deadline) = (self.oracle, self.cancel, self.deadline);
        let key = |m: &Miss| sets[m.set].key(m.slot);
        let n = misses.len();
        let native = oracle.native_batching();
        let step = if native { NATIVE_DISPATCH_SUB_BATCH } else { 1 };
        let threads = if native || n < MIN_PARALLEL_MISSES { 1 } else { self.workers.min(n) };
        let cursor = AtomicUsize::new(0);
        // The loop each dispatching thread runs: `record` gets every
        // answer by miss index. Returns the health of the thread's calls
        // and whether a stop ended it.
        let drain = |record: &mut dyn FnMut(usize, Option<bool>)| {
            let mut stopped = false;
            // A sub-batch's keys are listed on the stack when they fit
            // (phase one's pairs), else in one buffer per call.
            let mut inline: [&[u8]; 2] = [&[]; 2];
            let mut heap: Vec<&[u8]> = Vec::new();
            let health = OracleHealth::of(|| {
                let mut failures = 0;
                loop {
                    let start = cursor.fetch_add(step, Ordering::Relaxed);
                    if start >= n {
                        break failures;
                    }
                    if stop_due(cancel, deadline) {
                        stopped = true;
                        break failures;
                    }
                    let chunk = &misses[start..(start + step).min(n)];
                    if !native {
                        let answer = oracle.accepts_checked(key(&chunk[0]));
                        failures += usize::from(answer.is_none());
                        record(start, answer);
                        continue;
                    }
                    let refs: &[&[u8]] = if chunk.len() <= inline.len() {
                        for (r, m) in inline.iter_mut().zip(chunk) {
                            *r = key(m);
                        }
                        &inline[..chunk.len()]
                    } else {
                        heap.clear();
                        heap.extend(chunk.iter().map(key));
                        &heap
                    };
                    let answers = oracle.accepts_batch_checked(refs);
                    debug_assert_eq!(answers.len(), refs.len());
                    for (i, answer) in (start..).zip(answers) {
                        failures += usize::from(answer.is_none());
                        record(i, answer);
                    }
                }
            });
            (health, stopped)
        };
        let (health, stopped) = if threads == 1 {
            drain(&mut |i, answer| verdicts[misses[i].at] = answer)
        } else {
            let drain = &drain;
            std::thread::scope(|scope| {
                // Each thread answers into its own vector, allocated here so
                // that worker threads allocate nothing of the engine's.
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let mut answers = vec![None; n];
                        scope.spawn(move || {
                            let (health, stopped) = drain(&mut |i, a| answers[i] = a);
                            (answers, health, stopped)
                        })
                    })
                    .collect();
                let mut total = (OracleHealth::default(), false);
                for handle in handles {
                    let (answers, health, stopped) =
                        handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    for (m, answer) in misses.iter().zip(answers) {
                        if answer.is_some() {
                            verdicts[m.at] = answer;
                        }
                    }
                    total = (total.0 + health, total.1 || stopped);
                }
                total
            })
        };
        self.health = self.health + health;
        if stopped {
            self.trip_exhausted(self.cancel_requested());
        }
    }

    /// Validates a seed with an unbudgeted query (seeds must be consulted
    /// even if the budget is already gone). Shares the cache but is not
    /// charged against `max_queries`, and ignores cancellation — a
    /// returned `Synthesis` must always have validated its seeds.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::SeedRejected`] for a seed the oracle rejects, and
    /// [`SynthesisError::SeedUnanswered`] for one whose execution failed:
    /// the premise `E_in ⊆ L*` cannot be confirmed, the non-verdict is not
    /// cached, and it counts as one of the run's failures.
    pub fn validate_seed(&mut self, input: &[u8]) -> Result<(), SynthesisError> {
        let h = hash_query(input);
        let verdict = match self.cache.get_hashed(h, input) {
            Some(v) => v,
            None => {
                let mut answer = None;
                let health = OracleHealth::of(|| {
                    answer = self.oracle.accepts_checked(input);
                    usize::from(answer.is_none())
                });
                self.health = self.health + health;
                let v = answer.ok_or_else(|| SynthesisError::SeedUnanswered(input.to_vec()))?;
                self.cache.insert_hashed(h, input.into(), v);
                v
            }
        };
        if verdict {
            Ok(())
        } else {
            Err(SynthesisError::SeedRejected(input.to_vec()))
        }
    }

    /// Distinct inputs known so far (cumulative across the session): the
    /// cache's distinct-ever count.
    pub fn unique_queries(&self) -> usize {
        self.cache.len()
    }

    /// Total queries posed through this runner, including cache hits.
    pub fn total_queries(&self) -> usize {
        self.total
    }

    /// Whether the budget ran out (or the run was cancelled) at some point.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Whether cancellation was observed by this run.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;
    use crate::FnOracle;
    use std::sync::Mutex;

    fn spec<'a>(bytes: &'a [u8]) -> CheckSpec<'a> {
        CheckSpec::new(&[bytes])
    }

    /// Poses `input` as a one-check batch.
    fn accepts(r: &mut QueryRunner<'_>, input: &[u8]) -> bool {
        r.accepts_batch(&[spec(input)])[0]
    }

    fn runner<'s>(
        oracle: &'s dyn Oracle,
        cache: &'s mut QueryCache,
        max_queries: Option<usize>,
        time_limit: Option<Duration>,
        workers: usize,
    ) -> QueryRunner<'s> {
        QueryRunner::new(
            oracle,
            cache,
            RunnerOptions { max_queries, time_limit, workers, ..RunnerOptions::default() },
        )
    }

    #[test]
    fn caches_and_counts() {
        let o = FnOracle::new(|i: &[u8]| i.len() < 2);
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, None, None, 1);
        assert!(accepts(&mut r, b"a"));
        assert!(accepts(&mut r, b"a"));
        assert!(!accepts(&mut r, b"ab"));
        assert_eq!(r.unique_queries(), 2);
        assert_eq!(r.total_queries(), 3);
        assert!(!r.exhausted());
    }

    #[test]
    fn budget_exhaustion_fails_closed() {
        let o = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, Some(2), None, 1);
        assert!(accepts(&mut r, b"1"));
        assert!(accepts(&mut r, b"2"));
        // Third distinct query exceeds the budget: rejected.
        assert!(!accepts(&mut r, b"3"));
        assert!(r.exhausted());
        // Cached answers stay available.
        assert!(accepts(&mut r, b"1"));
        // Unbudgeted path still works.
        r.validate_seed(b"4").unwrap();
    }

    #[test]
    fn unbudgeted_queries_do_not_consume_budget() {
        // Regression: the seed implementation compared the budget against
        // the *cache size*, so seed validation (unbudgeted) silently ate
        // distinct-query budget.
        let o = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, Some(2), None, 1);
        r.validate_seed(b"seed-1").unwrap();
        r.validate_seed(b"seed-2").unwrap();
        r.validate_seed(b"seed-3").unwrap();
        // The full budget of 2 distinct budgeted queries remains.
        assert!(accepts(&mut r, b"q1"));
        assert!(accepts(&mut r, b"q2"));
        assert!(!accepts(&mut r, b"q3"));
        assert!(r.exhausted());
        assert_eq!(r.unique_queries(), 5, "cache still holds seeds + budgeted");
    }

    #[test]
    fn time_limit_expires() {
        let o = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, None, Some(Duration::from_nanos(1)), 1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!accepts(&mut r, b"x"));
        assert!(r.exhausted());
        assert!(!r.was_cancelled());
    }

    #[test]
    fn cancellation_fails_closed_and_reports() {
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|_: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        });
        let mut cache = QueryCache::new();
        let token = CancelToken::new();
        let log = EventLog::new();
        let mut r = QueryRunner::new(
            &o,
            &mut cache,
            RunnerOptions {
                cancel: Some(&token),
                observer: Some(&log),
                ..RunnerOptions::default()
            },
        );
        assert!(accepts(&mut r, b"before"));
        token.cancel();
        assert!(!accepts(&mut r, b"after"), "cancelled runs answer false");
        assert!(!accepts(&mut r, b"again"));
        assert!(r.exhausted(), "cancellation shares the fail-closed path");
        assert!(r.was_cancelled());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no oracle calls after cancel");
        // Cached answers stay available, unbudgeted validation still works.
        assert!(accepts(&mut r, b"before"));
        r.validate_seed(b"seed").unwrap();
        let cancels = log.events().iter().filter(|e| matches!(e, SynthEvent::Cancelled)).count();
        assert_eq!(cancels, 1, "Cancelled is emitted exactly once");
    }

    #[test]
    fn cancellation_mid_batch_stops_querying() {
        let calls = AtomicUsize::new(0);
        let token = CancelToken::new();
        let token_in_oracle = token.clone();
        let o = FnOracle::new(move |_: &[u8]| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                token_in_oracle.cancel();
            }
            true
        });
        let mut cache = QueryCache::new();
        let mut r = QueryRunner::new(
            &o,
            &mut cache,
            RunnerOptions { cancel: Some(&token), ..RunnerOptions::default() },
        );
        let inputs: Vec<Vec<u8>> = (0..10u8).map(|b| vec![b]).collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let verdicts = r.accepts_batch(&specs);
        assert!(r.was_cancelled());
        assert!(verdicts.iter().any(|&v| !v), "skipped misses answer false");
        assert!(r.unique_queries() < 10, "skipped misses are not cached");
    }

    #[test]
    fn events_come_from_the_calling_thread() {
        // A per-query oracle at 4 workers flips the cancel token on its
        // third call, mid-batch. Worker threads only call the oracle:
        // every event reaches the observer on this thread, and `Cancelled`
        // arrives once, before the batch's `QueryBatch`.
        struct ThreadLog(Mutex<Vec<(std::thread::ThreadId, SynthEvent)>>);
        impl SynthesisObserver for ThreadLog {
            fn on_event(&self, event: &SynthEvent) {
                let mut log = self.0.lock().unwrap();
                log.push((std::thread::current().id(), event.clone()));
            }
        }
        let calls = AtomicUsize::new(0);
        let token = CancelToken::new();
        let token_in_oracle = token.clone();
        let o = FnOracle::new(move |_: &[u8]| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                token_in_oracle.cancel();
            }
            true
        });
        let log = ThreadLog(Mutex::default());
        let mut cache = QueryCache::new();
        let mut r = QueryRunner::new(
            &o,
            &mut cache,
            RunnerOptions {
                workers: 4,
                observer: Some(&log),
                cancel: Some(&token),
                ..RunnerOptions::default()
            },
        );
        let inputs: Vec<Vec<u8>> = (0..64u8).map(|b| vec![b]).collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        r.accepts_batch(&specs);
        assert!(r.was_cancelled());
        let events = log.0.lock().unwrap().clone();
        let here = std::thread::current().id();
        assert!(events.iter().all(|(thread, _)| *thread == here), "{events:?}");
        let kinds: Vec<&SynthEvent> = events.iter().map(|(_, e)| e).collect();
        let cancels: Vec<usize> =
            (0..kinds.len()).filter(|&i| matches!(kinds[i], SynthEvent::Cancelled)).collect();
        let batch = kinds.iter().position(|e| matches!(e, SynthEvent::QueryBatch { .. }));
        assert_eq!(cancels.len(), 1, "{kinds:?}");
        assert!(batch.is_some_and(|b| cancels[0] < b), "{kinds:?}");
    }

    #[test]
    fn batch_results_preserve_order_and_dedup() {
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|i: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            i.len().is_multiple_of(2)
        });
        for workers in [1, 4] {
            calls.store(0, Ordering::Relaxed);
            let mut cache = QueryCache::new();
            let mut r = runner(&o, &mut cache, None, None, workers);
            let checks =
                [spec(b"aa"), spec(b"b"), spec(b"aa"), spec(b"cccc"), spec(b"b"), spec(b"")];
            let verdicts = r.accepts_batch(&checks);
            assert_eq!(verdicts, vec![true, false, true, true, false, true]);
            assert_eq!(r.unique_queries(), 4, "workers={workers}");
            assert_eq!(calls.load(Ordering::Relaxed), 4, "duplicates reach oracle once");
            assert_eq!(r.total_queries(), 6);
        }
    }

    #[test]
    fn batch_emits_query_batch_event() {
        let o = FnOracle::new(|i: &[u8]| i.len().is_multiple_of(2));
        let mut cache = QueryCache::new();
        cache.insert(b"hit".to_vec(), false);
        let log = EventLog::new();
        let mut r = QueryRunner::new(
            &o,
            &mut cache,
            RunnerOptions { observer: Some(&log), ..RunnerOptions::default() },
        );
        let checks = [spec(b"hit"), spec(b"miss"), spec(b"miss"), spec(b"other")];
        r.accepts_batch(&checks);
        assert_eq!(log.events(), vec![SynthEvent::QueryBatch { checks: 4, cached: 1, posed: 2 }]);
    }

    #[test]
    fn batch_mixed_segments_concatenate() {
        let o = FnOracle::new(|i: &[u8]| i == b"<a>hi</a>");
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, None, None, 2);
        let (pre, mid, post) = (&b"<a>"[..], &b"hi"[..], &b"</a>"[..]);
        let checks = [CheckSpec::new(&[pre, mid, post]), CheckSpec::new(&[pre, post])];
        assert_eq!(r.accepts_batch(&checks), vec![true, false]);
        // The same strings by another segmentation hit the cache.
        let checks2 = [spec(b"<a>hi</a>"), spec(b"<a></a>")];
        assert_eq!(r.accepts_batch(&checks2), vec![true, false]);
        assert_eq!(r.unique_queries(), 2);
    }

    #[test]
    fn batch_budget_answers_false_beyond_limit() {
        let o = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let log = EventLog::new();
        let mut r = QueryRunner::new(
            &o,
            &mut cache,
            RunnerOptions {
                max_queries: Some(2),
                workers: 4,
                observer: Some(&log),
                ..RunnerOptions::default()
            },
        );
        let checks = [spec(b"1"), spec(b"2"), spec(b"3"), spec(b"1")];
        let verdicts = r.accepts_batch(&checks);
        // First two distinct checks fit the budget; the third fails closed;
        // the duplicate of "1" is answered from the batch's dedup set.
        assert_eq!(verdicts, vec![true, true, false, true]);
        assert!(r.exhausted());
        assert_eq!(r.unique_queries(), 2);
        let exhaustions =
            log.events().iter().filter(|e| matches!(e, SynthEvent::BudgetExhausted)).count();
        assert_eq!(exhaustions, 1, "BudgetExhausted is emitted exactly once");
    }

    #[test]
    fn deadline_expiring_mid_batch_stops_querying() {
        // Regression: the deadline must be honored between queries *inside*
        // a batch, not just at reservation time — a slow oracle must not
        // run an hour-long batch past a 30 ms limit.
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|_: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
            true
        });
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, None, Some(Duration::from_millis(30)), 1);
        let inputs: Vec<Vec<u8>> = (0..10u8).map(|b| vec![b]).collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let verdicts = r.accepts_batch(&specs);
        assert!(r.exhausted());
        assert!(calls.load(Ordering::Relaxed) < 10, "deadline did not stop the batch");
        // Skipped misses answer false and are not poisoned into the cache.
        assert!(verdicts.iter().any(|&v| !v));
        assert!(r.unique_queries() < 10);
    }

    #[test]
    fn batch_agrees_with_sequential_accepts() {
        let o = FnOracle::new(|i: &[u8]| i.iter().all(|&b| b == b'x'));
        let mut seq_cache = QueryCache::new();
        let mut par_cache = QueryCache::new();
        let mut seq = runner(&o, &mut seq_cache, None, None, 1);
        let mut par = runner(&o, &mut par_cache, None, None, 8);
        let inputs: Vec<Vec<u8>> =
            (0..64).map(|n| std::iter::repeat_n(b'x', n % 7).collect()).collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let par_verdicts = par.accepts_batch(&specs);
        let seq_verdicts: Vec<bool> = inputs.iter().map(|i| accepts(&mut seq, i)).collect();
        assert_eq!(par_verdicts, seq_verdicts);
        assert_eq!(par.unique_queries(), seq.unique_queries());
    }

    #[test]
    fn warm_cache_answers_whole_batch_without_oracle() {
        // The session-persistence property at the runner level: a cache
        // pre-populated with every check answers the batch with zero
        // oracle calls and zero new unique queries.
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|_: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        });
        let mut cache = QueryCache::new();
        cache.insert(b"p".to_vec(), true);
        cache.insert(b"q".to_vec(), false);
        let mut r = runner(&o, &mut cache, Some(0), None, 2);
        // Budget of zero: any miss would fail, proving these are all hits.
        assert_eq!(r.accepts_batch(&[spec(b"p"), spec(b"q"), spec(b"p")]), vec![true, false, true]);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert!(!r.exhausted());
        assert_eq!(r.unique_queries(), 2);
    }

    /// An arena holding `keys` (owner = position), as a planner fills
    /// one: each key looked up in `cache` first, hits left out.
    fn planned(cache: &QueryCache, keys: &[&[u8]]) -> KeyArena<usize> {
        let mut arena = KeyArena::default();
        for (i, key) in keys.iter().enumerate() {
            let h = arena.stage(|buf| buf.extend_from_slice(key));
            if cache.get_hashed(h, key).is_none() {
                arena.intern_staged(h, i);
            }
        }
        arena
    }

    #[test]
    fn keyed_batches_dedup_on_bytes_not_hashes() {
        // Different strings forced onto one hash are each posed once,
        // answered with their own verdicts, and cached as separate entries.
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|i: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            i == b"yes"
        });
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, None, None, 1);
        let mut arena = KeyArena::default();
        for (owner, key) in [&b"yes"[..], b"no", b"yes", b"no"].into_iter().enumerate() {
            arena.stage(|buf| buf.extend_from_slice(key));
            arena.intern_staged(7, owner);
        }
        assert_eq!(arena.len(), 2, "equal bytes share a slot, equal hashes do not");
        assert_eq!(r.pose(&mut [arena.keys_mut()]), vec![true, false]);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "each string posed once");
        assert_eq!((r.unique_queries(), r.total_queries()), (2, 2));
        assert_eq!(cache.get_hashed(7, b"yes"), Some(true));
        assert_eq!(cache.get_hashed(7, b"no"), Some(false));
    }

    #[test]
    fn pose_shares_a_key_across_sets() {
        // Two planners' arenas both hold "both": it is posed and charged
        // once, both slots get its verdict, and each slot counts as a query.
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|i: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            i.len() > 2
        });
        for workers in [1, 4] {
            calls.store(0, Ordering::Relaxed);
            let mut cache = QueryCache::new();
            let log = EventLog::new();
            let mut r = QueryRunner::new(
                &o,
                &mut cache,
                RunnerOptions {
                    max_queries: Some(3),
                    workers,
                    observer: Some(&log),
                    ..RunnerOptions::default()
                },
            );
            let mut first = planned(r.cache(), &[b"both", b"a"]);
            let mut second = planned(r.cache(), &[b"bb", b"both"]);
            let verdicts = r.pose(&mut [first.keys_mut(), second.keys_mut()]);
            assert_eq!(verdicts, vec![true, false, false, true], "workers={workers}");
            assert_eq!(calls.load(Ordering::Relaxed), 3, "the shared key is posed once");
            assert!(!r.exhausted(), "the shared key is charged once");
            assert_eq!((r.unique_queries(), r.total_queries()), (3, 4));
            assert_eq!(
                log.events(),
                vec![SynthEvent::QueryBatch { checks: 4, cached: 0, posed: 3 }]
            );
        }
    }

    #[test]
    fn pose_over_budget_slots_and_their_twins_stay_uncached() {
        let o = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, Some(2), None, 1);
        let mut first = planned(r.cache(), &[b"1", b"2", b"3"]);
        let mut second = planned(r.cache(), &[b"3", b"1", b"4"]);
        let verdicts = r.pose(&mut [first.keys_mut(), second.keys_mut()]);
        // Budget goes in slot order: "1" and "2" fit, "3" runs it out, and
        // its twin answers false with it; "1"'s twin shares its verdict.
        assert_eq!(verdicts, vec![true, true, false, false, true, false]);
        assert!(r.exhausted());
        assert_eq!((r.unique_queries(), r.total_queries()), (2, 6));
        assert_eq!((cache.get(b"3"), cache.get(b"4")), (None, None), "over budget is not cached");
    }

    /// A natively batching oracle that accepts everything and flips
    /// `token` on its first batch.
    struct CancellingOracle {
        token: CancelToken,
    }

    impl Oracle for CancellingOracle {
        fn accepts(&self, _input: &[u8]) -> bool {
            true
        }

        fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
            self.token.cancel();
            inputs.iter().map(|_| Some(true)).collect()
        }

        fn native_batching(&self) -> bool {
            true
        }
    }

    #[test]
    fn pose_cancelled_between_sub_batches_skips_the_rest() {
        // The first native sub-batch flips the cancel token: the second is
        // never posed, and its slots, and a twin of one of them, answer
        // false and stay uncached.
        let token = CancelToken::new();
        let o = CancellingOracle { token: token.clone() };
        let mut cache = QueryCache::new();
        let mut r = QueryRunner::new(
            &o,
            &mut cache,
            RunnerOptions { cancel: Some(&token), ..RunnerOptions::default() },
        );
        let n = super::NATIVE_DISPATCH_SUB_BATCH + 10;
        let inputs: Vec<Vec<u8>> = (0..n as u32).map(|b| b.to_le_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let mut first = planned(r.cache(), &refs);
        let mut second = planned(r.cache(), &[&inputs[n - 1], b"fresh"]);
        let verdicts = r.pose(&mut [first.keys_mut(), second.keys_mut()]);
        assert!(r.was_cancelled());
        let answered = super::NATIVE_DISPATCH_SUB_BATCH;
        assert!(verdicts[..answered].iter().all(|&v| v), "the first sub-batch is answered");
        assert!(verdicts[answered..].iter().all(|&v| !v), "the rest answers false");
        assert_eq!(r.unique_queries(), answered, "skipped misses are not cached");
        assert_eq!(cache.get(&inputs[n - 1]), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a planner interned a key the cache answers")]
    fn pose_rejects_a_cached_slot() {
        let o = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let mut r = runner(&o, &mut cache, None, None, 1);
        let mut arena = planned(r.cache(), &[b"seen"]);
        r.validate_seed(b"seen").unwrap();
        r.pose(&mut [arena.keys_mut()]);
    }

    #[test]
    fn health_counts_the_none_answers_of_posed_misses_only() {
        // Inputs with a '~' fail to execute. Another caller's failures on
        // the same oracle, and slots the budget skipped, are not the run's.
        struct TildeFails(AtomicUsize);
        impl Oracle for TildeFails {
            fn accepts(&self, input: &[u8]) -> bool {
                self.accepts_checked(input).unwrap_or(false)
            }
            fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
                let fails = input.contains(&b'~');
                self.0.fetch_add(usize::from(fails), Ordering::Relaxed);
                (!fails).then_some(true)
            }
        }
        let o = TildeFails(AtomicUsize::new(0));
        for workers in [1, 4] {
            let mut cache = QueryCache::new();
            let log = EventLog::new();
            let mut r = QueryRunner::new(
                &o,
                &mut cache,
                RunnerOptions {
                    max_queries: Some(6),
                    workers,
                    observer: Some(&log),
                    ..RunnerOptions::default()
                },
            );
            o.accepts_checked(b"~other");
            assert_eq!(
                r.validate_seed(b"~seed"),
                Err(SynthesisError::SeedUnanswered(b"~seed".to_vec()))
            );
            let inputs: Vec<Vec<u8>> = (0..8u8).map(|b| vec![b'~', b]).collect();
            let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
            assert!(r.accepts_batch(&specs).iter().all(|&v| !v));
            assert!(r.exhausted(), "two misses were over budget");
            assert_eq!(r.oracle_health().failures, 7, "workers={workers}");
            assert_eq!(r.unique_queries(), 0, "failures are not cached");
            let failures = SynthEvent::OracleFailures { new_failures: 7, run_failures: 7 };
            assert!(log.events().contains(&failures), "workers={workers}");
        }
        assert_eq!(o.0.load(Ordering::Relaxed), 16);
    }

    /// In-process stand-in for a natively batching oracle (the pooled
    /// process oracle without the processes): records how misses arrive.
    struct BatchingOracle {
        batch_calls: AtomicUsize,
        single_calls: AtomicUsize,
        largest_batch: AtomicUsize,
    }

    impl BatchingOracle {
        fn new() -> Self {
            BatchingOracle {
                batch_calls: AtomicUsize::new(0),
                single_calls: AtomicUsize::new(0),
                largest_batch: AtomicUsize::new(0),
            }
        }
    }

    impl Oracle for BatchingOracle {
        fn accepts(&self, input: &[u8]) -> bool {
            self.single_calls.fetch_add(1, Ordering::Relaxed);
            input.len().is_multiple_of(2)
        }

        fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            self.largest_batch.fetch_max(inputs.len(), Ordering::Relaxed);
            inputs.iter().map(|i| Some(i.len().is_multiple_of(2))).collect()
        }

        fn native_batching(&self) -> bool {
            true
        }
    }

    #[test]
    fn native_batching_oracle_receives_whole_miss_sets() {
        let o = BatchingOracle::new();
        let mut cache = QueryCache::new();
        cache.insert(b"zz".to_vec(), true); // a hit that must not be posed
        let mut r = runner(&o, &mut cache, None, None, 8);
        let inputs: Vec<Vec<u8>> = (0..40u8).map(|b| vec![b'x'; b as usize % 5]).collect();
        let mut checks: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        checks.push(spec(b"zz"));
        let verdicts = r.accepts_batch(&checks);
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(verdicts[i], input.len() % 2 == 0, "index {i}");
        }
        assert!(*verdicts.last().unwrap(), "cache hit answered");
        // The distinct misses (lengths 0..5 → 5 distinct strings) arrived
        // as ONE batch call, not per-query or per-thread.
        assert_eq!(o.batch_calls.load(Ordering::Relaxed), 1);
        assert_eq!(o.largest_batch.load(Ordering::Relaxed), 5);
        assert_eq!(o.single_calls.load(Ordering::Relaxed), 0);
        assert_eq!(r.unique_queries(), 6);
    }

    #[test]
    fn native_batching_matches_steal_dispatch_results() {
        // The same miss set through both strategies must produce the same
        // verdicts and the same cached set.
        let native = BatchingOracle::new();
        let plain = FnOracle::new(|i: &[u8]| i.len().is_multiple_of(2));
        let mut native_cache = QueryCache::new();
        let mut plain_cache = QueryCache::new();
        let mut rn = runner(&native, &mut native_cache, None, None, 4);
        let mut rp = runner(&plain, &mut plain_cache, None, None, 4);
        let inputs: Vec<Vec<u8>> = (0..64u16).map(|b| vec![b'y'; (b % 9) as usize]).collect();
        let checks: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        assert_eq!(rn.accepts_batch(&checks), rp.accepts_batch(&checks));
        assert_eq!(rn.unique_queries(), rp.unique_queries());
        assert_eq!(rn.total_queries(), rp.total_queries());
    }

    #[test]
    fn cancellation_skips_remaining_native_sub_batches() {
        // A cancel flipped during the batch is honored at the next
        // sub-batch boundary: remaining misses answer false and are not
        // cached.
        let token = CancelToken::new();
        let o = CancellingOracle { token: token.clone() };
        let mut cache = QueryCache::new();
        let mut r = QueryRunner::new(
            &o,
            &mut cache,
            RunnerOptions { cancel: Some(&token), ..RunnerOptions::default() },
        );
        // More misses than one sub-batch so at least one boundary exists.
        let inputs: Vec<Vec<u8>> = (0..(super::NATIVE_DISPATCH_SUB_BATCH + 10) as u32)
            .map(|b| b.to_le_bytes().to_vec())
            .collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let verdicts = r.accepts_batch(&specs);
        assert!(r.was_cancelled());
        assert_eq!(
            verdicts.iter().filter(|&&v| v).count(),
            super::NATIVE_DISPATCH_SUB_BATCH,
            "exactly the first sub-batch was answered"
        );
        assert_eq!(
            r.unique_queries(),
            super::NATIVE_DISPATCH_SUB_BATCH,
            "skipped misses not cached"
        );
    }

    #[test]
    fn check_spec_write_into_reuses_buffer() {
        let ctx = Context { before: b"<a>".to_vec(), after: b"</a>".to_vec() };
        let s = CheckSpec::wrapped(&ctx, &[b"h", b"i"]);
        let mut buf = Vec::new();
        s.write_into(&mut buf);
        assert_eq!(buf, b"<a>hi</a>");
        let cap = buf.capacity();
        buf.clear();
        s.write_into(&mut buf);
        assert_eq!(buf, b"<a>hi</a>");
        assert_eq!(buf.capacity(), cap, "no reallocation on reuse");
    }
}
