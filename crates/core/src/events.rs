//! Synthesis progress events, observers, and cooperative cancellation.
//!
//! A [`Session`](crate::Session) run is observable: the engine emits
//! [`SynthEvent`]s at phase boundaries, per-seed decisions, accepted merges,
//! and every membership-query batch. Callers install a
//! [`SynthesisObserver`] through [`GladeBuilder::observer`]
//! (crate::GladeBuilder::observer) to drive progress bars, structured logs,
//! or live dashboards; [`EventLog`] is a ready-made collecting observer for
//! tests and small tools.
//!
//! Runs are also cancellable: a [`CancelToken`] is a cheap clonable handle
//! whose [`CancelToken::cancel`] flips an atomic flag the query engine
//! checks between membership-query batches. Cancellation takes the same
//! fail-closed degradation path as the query/time budget (pending checks
//! answer `false`, so pending generalizations collapse and pending merges
//! are skipped) — the run still returns a [`Synthesis`](crate::Synthesis)
//! whose grammar contains every seed.
//!
//! # Observer threading contract
//!
//! [`SynthesisObserver`] requires `Send + Sync`, and that requirement is
//! load-bearing: the engine emits every event from the thread driving
//! [`Session::add_seeds`](crate::Session::add_seeds) (query worker threads
//! only call the oracle), but a session can run on any thread, and server
//! deployments (see [`serve`](crate::serve)) hold one observer per tenant in an `Arc` that is invoked from the
//! campaign thread while the serving dispatcher concurrently drains what
//! the observer produced. Implementations therefore must tolerate
//! concurrent `on_event` calls through `&self` — interior state belongs
//! behind a `Mutex` or atomics ([`EventLog`] is the reference
//! implementation), never in `Cell`/`RefCell`. Observers installed through
//! [`GladeBuilder::observer`](crate::GladeBuilder::observer) are wrapped in
//! an `Arc` automatically. A caller that wants to inspect the observer
//! while the session runs passes a clone of its own `Arc`: `Arc<O>` is
//! itself an observer, so the session and the caller share one instance.
//!
//! # Wire lines
//!
//! Events cross process boundaries as **wire lines** — a compact,
//! line-oriented text serialization with one stable lowercase tag per
//! variant ([`SynthEvent::to_wire_line`] /
//! [`SynthEvent::from_wire_line`]). The `glade serve` event stream and
//! `glade synth --events` both speak it. Because [`SynthEvent`] is
//! `#[non_exhaustive]`, both directions are future-proof: a serializer
//! built against an older library emits `unknown` for variants it does not
//! know, and a parser returns `Ok(None)` for tags it does not recognize —
//! readers skip unknown events instead of failing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The pipeline stage an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthPhase {
    /// Phase one: per-seed regular-expression generalization (Section 4).
    Phase1,
    /// Character generalization (Section 6.2).
    CharGeneralization,
    /// Phase two: repetition merging (Section 5).
    Phase2,
}

impl std::fmt::Display for SynthPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthPhase::Phase1 => write!(f, "phase 1"),
            SynthPhase::CharGeneralization => write!(f, "character generalization"),
            SynthPhase::Phase2 => write!(f, "phase 2"),
        }
    }
}

/// A structured progress event emitted during synthesis.
///
/// The enum is `#[non_exhaustive]`: observers must carry a wildcard arm, so
/// future engine work can add event kinds without breaking downstream code.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthEvent {
    /// A pipeline stage began.
    PhaseStarted {
        /// The stage.
        phase: SynthPhase,
    },
    /// A pipeline stage completed (including degraded completion after the
    /// budget ran out or the run was cancelled).
    PhaseFinished {
        /// The stage.
        phase: SynthPhase,
        /// Wall-clock time spent in the stage during this run.
        elapsed: Duration,
        /// Distinct membership queries cached so far (cumulative across the
        /// session).
        unique_queries: usize,
    },
    /// Phase one generalized a seed into a tree.
    SeedGeneralized {
        /// Index of the seed across the whole session, in submission order.
        seed_index: usize,
        /// Repetition subexpressions the seed contributed.
        new_stars: usize,
    },
    /// A seed was skipped by the Section 6.1 redundancy optimization (it
    /// was already matched by the disjunction of the regular expressions
    /// synthesized so far).
    SeedSkipped {
        /// Index of the seed across the whole session, in submission order.
        seed_index: usize,
    },
    /// Phase two accepted a merge: the two repetition subexpressions now
    /// share a nonterminal in the output grammar.
    MergeAccepted {
        /// Star id of the first (lower-id) repetition.
        left_star: usize,
        /// Star id of the second repetition.
        right_star: usize,
    },
    /// The query-reduction layer (see the `chargen.rs` module docs)
    /// eliminated provably-redundant membership checks this run: they were
    /// never handed to the query engine. Emitted once per
    /// [`add_seeds`](crate::Session::add_seeds) run, after both stages
    /// complete, when anything was elided.
    ProbesElided {
        /// Checks that posing every Section 5 / 6.2 check would have cost
        /// but that were elided (this run; see
        /// [`SynthesisStats::probes_elided`](crate::SynthesisStats::probes_elided)).
        elided: usize,
        /// Terminals whose byte classes were adopted from the memo table
        /// or an identical in-run sibling (this run; see
        /// [`SynthesisStats::memo_hits`](crate::SynthesisStats::memo_hits)).
        memo_hits: usize,
    },
    /// A membership-query batch completed.
    QueryBatch {
        /// Checks posed in the batch (before deduplication).
        checks: usize,
        /// Checks answered from the session cache.
        cached: usize,
        /// Distinct cache misses that obtained a real verdict from the
        /// oracle (misses skipped by the deadline/cancel, or whose
        /// execution failed, are excluded).
        posed: usize,
    },
    /// The oracle failed to *execute* one or more queries since the last
    /// batch (e.g. a [`ProcessOracle`](crate::ProcessOracle) could not be
    /// spawned, or a [`PooledProcessOracle`](crate::PooledProcessOracle)
    /// worker crashed beyond recovery). The affected checks answered a
    /// degraded `false`; the run continues but may under-generalize — see
    /// [`SynthesisStats::oracle_failures`](crate::SynthesisStats::oracle_failures).
    OracleFailures {
        /// Failures newly observed since the previous report.
        new_failures: usize,
        /// Cumulative failures observed during this run.
        run_failures: usize,
    },
    /// One or more oracle workers hung — accepted queries but never
    /// answered within the configured
    /// [`oracle_timeout`](crate::GladeBuilder::oracle_timeout) — and were
    /// killed. The abandoned queries took the ordinary crash-recovery path
    /// (retry, fallback, counted failure); see
    /// [`SynthesisStats::timed_out_queries`](crate::SynthesisStats::timed_out_queries).
    WorkerHung {
        /// Queries newly abandoned to the deadline since the previous
        /// report.
        new_timeouts: usize,
        /// Cumulative deadline-abandoned queries during this run.
        run_timeouts: usize,
    },
    /// A worker slot's circuit breaker tripped open after repeated
    /// spawn-or-crash failures: the pool stops respawning into that slot
    /// until a cool-down elapses, and queries route to the remaining
    /// workers or the fallback; see
    /// [`SynthesisStats::tripped_workers`](crate::SynthesisStats::tripped_workers).
    BreakerTripped {
        /// Breaker trips newly observed since the previous report.
        new_trips: usize,
        /// Cumulative breaker trips during this run.
        run_trips: usize,
    },
    /// A tripped worker slot's half-open probe succeeded after its
    /// cool-down: the breaker closed and the slot serves queries again.
    BreakerRecovered {
        /// Recoveries newly observed since the previous report.
        new_recoveries: usize,
        /// Cumulative breaker recoveries during this run.
        run_recoveries: usize,
    },
    /// The distinct-query or wall-clock budget ran out; every further check
    /// in this run answers `false` (fail closed).
    BudgetExhausted,
    /// The run's [`CancelToken`] was observed mid-run; remaining checks
    /// answer `false` (fail closed), like budget exhaustion.
    Cancelled,
    /// A `glade serve` connection fell so far behind reading its event
    /// stream that the server's bounded per-connection event queue
    /// overflowed: the queued events were discarded and the connection was
    /// demoted to result-only delivery (see the serve module's
    /// backpressure docs). Emitted by the server, never by the local
    /// engine; it precedes the run's `RESULT` so the reader learns how
    /// much of the stream it missed.
    EventsDropped {
        /// Events discarded since the stream was last healthy.
        dropped: usize,
    },
}

impl SynthPhase {
    /// The stable wire token for this phase (`phase1`, `chargen`, `phase2`).
    ///
    /// Unlike [`Display`](std::fmt::Display) (a human-facing label that may
    /// change), wire tokens are frozen: parsers on either side of a version
    /// skew can rely on them.
    pub fn wire_token(&self) -> &'static str {
        match self {
            SynthPhase::Phase1 => "phase1",
            SynthPhase::CharGeneralization => "chargen",
            SynthPhase::Phase2 => "phase2",
        }
    }

    fn from_wire_token(token: &str) -> Option<SynthPhase> {
        match token {
            "phase1" => Some(SynthPhase::Phase1),
            "chargen" => Some(SynthPhase::CharGeneralization),
            "phase2" => Some(SynthPhase::Phase2),
            _ => None,
        }
    }
}

/// A wire line failed to parse as a known [`SynthEvent`].
///
/// Only *malformed* lines error — a well-formed line whose leading tag is
/// simply unknown parses to `Ok(None)` (see
/// [`SynthEvent::from_wire_line`]), so newer peers can emit event kinds an
/// older reader skips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLineError {
    line: String,
    reason: &'static str,
}

impl EventLineError {
    fn new(line: &str, reason: &'static str) -> Self {
        EventLineError { line: line.to_string(), reason }
    }

    /// The offending line, verbatim.
    pub fn line(&self) -> &str {
        &self.line
    }
}

impl std::fmt::Display for EventLineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed event line ({}): {:?}", self.reason, self.line)
    }
}

impl std::error::Error for EventLineError {}

impl SynthEvent {
    /// Serializes the event as a single compact wire line (no trailing
    /// newline).
    ///
    /// The format is one stable lowercase tag followed by space-separated
    /// decimal fields; durations travel as nanoseconds so a round trip is
    /// exact. Because the enum is `#[non_exhaustive]`, variants this build
    /// does not know how to serialize come out as the literal line
    /// `unknown` — parseable by every peer, skipped by
    /// [`from_wire_line`](SynthEvent::from_wire_line).
    pub fn to_wire_line(&self) -> String {
        match self {
            SynthEvent::PhaseStarted { phase } => {
                format!("phase-started {}", phase.wire_token())
            }
            SynthEvent::PhaseFinished { phase, elapsed, unique_queries } => format!(
                "phase-finished {} {} {}",
                phase.wire_token(),
                elapsed.as_nanos(),
                unique_queries
            ),
            SynthEvent::SeedGeneralized { seed_index, new_stars } => {
                format!("seed-generalized {seed_index} {new_stars}")
            }
            SynthEvent::SeedSkipped { seed_index } => format!("seed-skipped {seed_index}"),
            SynthEvent::MergeAccepted { left_star, right_star } => {
                format!("merge-accepted {left_star} {right_star}")
            }
            SynthEvent::ProbesElided { elided, memo_hits } => {
                format!("probes-elided {elided} {memo_hits}")
            }
            SynthEvent::QueryBatch { checks, cached, posed } => {
                format!("query-batch {checks} {cached} {posed}")
            }
            SynthEvent::OracleFailures { new_failures, run_failures } => {
                format!("oracle-failures {new_failures} {run_failures}")
            }
            SynthEvent::WorkerHung { new_timeouts, run_timeouts } => {
                format!("worker-hung {new_timeouts} {run_timeouts}")
            }
            SynthEvent::BreakerTripped { new_trips, run_trips } => {
                format!("breaker-tripped {new_trips} {run_trips}")
            }
            SynthEvent::BreakerRecovered { new_recoveries, run_recoveries } => {
                format!("breaker-recovered {new_recoveries} {run_recoveries}")
            }
            SynthEvent::BudgetExhausted => "budget-exhausted".to_string(),
            SynthEvent::Cancelled => "cancelled".to_string(),
            SynthEvent::EventsDropped { dropped } => format!("events-dropped {dropped}"),
            // `#[non_exhaustive]` forward arm: a newer engine variant this
            // serializer predates still produces a valid, skippable line.
            #[allow(unreachable_patterns)]
            _ => "unknown".to_string(),
        }
    }

    /// Parses a wire line produced by
    /// [`to_wire_line`](SynthEvent::to_wire_line).
    ///
    /// Returns `Ok(Some(event))` for a recognized line, `Ok(None)` for a
    /// well-formed line with an unrecognized tag (forward compatibility:
    /// skip it), and `Err` only for lines whose *known* tag carries
    /// malformed fields. Leading/trailing ASCII whitespace is ignored; an
    /// empty line is malformed.
    pub fn from_wire_line(line: &str) -> Result<Option<SynthEvent>, EventLineError> {
        let mut fields = line.split_ascii_whitespace();
        let tag = fields.next().ok_or_else(|| EventLineError::new(line, "empty line"))?;

        // Helpers keep each arm to "grab N fields, demand exhaustion".
        macro_rules! field {
            ($what:expr) => {
                fields.next().ok_or_else(|| EventLineError::new(line, $what))?
            };
        }
        macro_rules! num {
            ($what:expr) => {
                field!($what).parse::<usize>().map_err(|_| EventLineError::new(line, $what))?
            };
        }
        macro_rules! phase {
            () => {{
                let token = field!("missing phase token");
                SynthPhase::from_wire_token(token)
                    .ok_or_else(|| EventLineError::new(line, "unknown phase token"))?
            }};
        }

        let event = match tag {
            "phase-started" => SynthEvent::PhaseStarted { phase: phase!() },
            "phase-finished" => {
                let phase = phase!();
                let nanos = field!("missing elapsed nanoseconds")
                    .parse::<u64>()
                    .map_err(|_| EventLineError::new(line, "bad elapsed nanoseconds"))?;
                SynthEvent::PhaseFinished {
                    phase,
                    elapsed: Duration::from_nanos(nanos),
                    unique_queries: num!("bad unique-query count"),
                }
            }
            "seed-generalized" => SynthEvent::SeedGeneralized {
                seed_index: num!("bad seed index"),
                new_stars: num!("bad star count"),
            },
            "seed-skipped" => SynthEvent::SeedSkipped { seed_index: num!("bad seed index") },
            "merge-accepted" => SynthEvent::MergeAccepted {
                left_star: num!("bad left star id"),
                right_star: num!("bad right star id"),
            },
            "probes-elided" => SynthEvent::ProbesElided {
                elided: num!("bad elided count"),
                memo_hits: num!("bad memo-hit count"),
            },
            "query-batch" => SynthEvent::QueryBatch {
                checks: num!("bad check count"),
                cached: num!("bad cached count"),
                posed: num!("bad posed count"),
            },
            "oracle-failures" => SynthEvent::OracleFailures {
                new_failures: num!("bad new-failure count"),
                run_failures: num!("bad run-failure count"),
            },
            "worker-hung" => SynthEvent::WorkerHung {
                new_timeouts: num!("bad new-timeout count"),
                run_timeouts: num!("bad run-timeout count"),
            },
            "breaker-tripped" => SynthEvent::BreakerTripped {
                new_trips: num!("bad new-trip count"),
                run_trips: num!("bad run-trip count"),
            },
            "breaker-recovered" => SynthEvent::BreakerRecovered {
                new_recoveries: num!("bad new-recovery count"),
                run_recoveries: num!("bad run-recovery count"),
            },
            "budget-exhausted" => SynthEvent::BudgetExhausted,
            "cancelled" => SynthEvent::Cancelled,
            "events-dropped" => SynthEvent::EventsDropped { dropped: num!("bad dropped count") },
            // Unknown tag from a newer peer: well-formed, skip it.
            _ => return Ok(None),
        };
        if fields.next().is_some() {
            return Err(EventLineError::new(line, "trailing fields"));
        }
        Ok(Some(event))
    }

    /// Whether this event is a *query tally* — a high-frequency progress
    /// ticker counting one batch's checks. Tallies are not running totals:
    /// consecutive ones add up, so `glade serve` sums them (a campaign
    /// sends them summed at most every 50 ms between lifecycle events, and
    /// a slow connection's bounded event queue merges consecutive queued
    /// ones) without changing the totals a reader sees. Every other kind
    /// is a lifecycle event and is never merged.
    pub fn is_query_tally(&self) -> bool {
        matches!(self, SynthEvent::QueryBatch { .. })
    }

    /// Adds `other`'s counts into this event when both are query tallies
    /// (see [`SynthEvent::is_query_tally`]) and reports whether it did.
    /// Counts saturate rather than wrap.
    #[cfg_attr(not(any(target_os = "linux", target_os = "macos")), allow(dead_code))]
    pub(crate) fn absorb_tally(&mut self, other: &SynthEvent) -> bool {
        match (self, other) {
            (
                SynthEvent::QueryBatch { checks, cached, posed },
                SynthEvent::QueryBatch {
                    checks: more_checks,
                    cached: more_cached,
                    posed: more_posed,
                },
            ) => {
                *checks = checks.saturating_add(*more_checks);
                *cached = cached.saturating_add(*more_cached);
                *posed = posed.saturating_add(*more_posed);
                true
            }
            _ => false,
        }
    }
}

/// Receives [`SynthEvent`]s during a synthesis run.
///
/// Observers must be `Send + Sync`: every event is emitted from the thread
/// driving the session, but the observer may be shared with other threads
/// (see the module docs). Implementations should return quickly — the
/// engine calls them inline on the query path.
pub trait SynthesisObserver: Send + Sync {
    /// Called once per event, in emission order.
    fn on_event(&self, event: &SynthEvent);
}

impl<O: SynthesisObserver + ?Sized> SynthesisObserver for &O {
    fn on_event(&self, event: &SynthEvent) {
        (**self).on_event(event)
    }
}

impl<O: SynthesisObserver + ?Sized> SynthesisObserver for Arc<O> {
    fn on_event(&self, event: &SynthEvent) {
        (**self).on_event(event)
    }
}

impl<O: SynthesisObserver + ?Sized> SynthesisObserver for Box<O> {
    fn on_event(&self, event: &SynthEvent) {
        (**self).on_event(event)
    }
}

/// A [`SynthesisObserver`] that records every event in order.
///
/// # Examples
///
/// ```
/// use glade_core::{EventLog, GladeBuilder, FnOracle, SynthEvent};
/// use std::sync::Arc;
///
/// let log = Arc::new(EventLog::new());
/// let oracle = FnOracle::new(glade_core::testing::xml_like);
/// let mut session = GladeBuilder::new().observer(log.clone()).session(&oracle);
/// session.add_seeds(&[b"<a>hi</a>".to_vec()])?;
/// assert!(log.events().iter().any(|e| matches!(e, SynthEvent::MergeAccepted { .. })));
/// # Ok::<(), glade_core::SynthesisError>(())
/// ```
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<SynthEvent>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<SynthEvent> {
        self.events.lock().expect("event log poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("event log poisoned").len()
    }

    /// Whether no events were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("event log poisoned").clear();
    }
}

impl SynthesisObserver for EventLog {
    fn on_event(&self, event: &SynthEvent) {
        self.events.lock().expect("event log poisoned").push(event.clone());
    }
}

/// Cooperative cancellation handle for a synthesis run.
///
/// Clones share one flag. The query engine checks the token between
/// membership-query batches and between the queries of an in-flight batch;
/// once cancelled, remaining checks answer `false` without reaching the
/// oracle — the same fail-closed path as the deadline — so the run winds
/// down quickly and still returns a grammar containing every seed.
/// Cancellation is sticky: a cancelled token stays cancelled.
///
/// # Examples
///
/// ```
/// use glade_core::CancelToken;
///
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent and thread-safe.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled(), "cancellation is idempotent");
    }

    #[test]
    fn cancel_token_crosses_threads() {
        let t = CancelToken::new();
        std::thread::scope(|s| {
            let h = t.clone();
            s.spawn(move || h.cancel());
        });
        assert!(t.is_cancelled());
    }

    #[test]
    fn event_log_records_in_order() {
        let log = EventLog::new();
        assert!(log.is_empty());
        log.on_event(&SynthEvent::PhaseStarted { phase: SynthPhase::Phase1 });
        log.on_event(&SynthEvent::BudgetExhausted);
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0], SynthEvent::PhaseStarted { phase: SynthPhase::Phase1 });
        assert_eq!(log.events()[1], SynthEvent::BudgetExhausted);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn observer_blanket_impls_compose() {
        fn takes_observer(o: &dyn SynthesisObserver) {
            o.on_event(&SynthEvent::Cancelled);
        }
        let log = EventLog::new();
        takes_observer(&log);
        let arc: Arc<dyn SynthesisObserver> = Arc::new(EventLog::new());
        takes_observer(&arc);
        let boxed: Box<dyn SynthesisObserver> = Box::new(EventLog::new());
        takes_observer(&boxed);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn phase_display_names() {
        assert_eq!(SynthPhase::Phase1.to_string(), "phase 1");
        assert_eq!(SynthPhase::CharGeneralization.to_string(), "character generalization");
        assert_eq!(SynthPhase::Phase2.to_string(), "phase 2");
    }

    fn every_event() -> Vec<SynthEvent> {
        vec![
            SynthEvent::PhaseStarted { phase: SynthPhase::Phase1 },
            SynthEvent::PhaseFinished {
                phase: SynthPhase::CharGeneralization,
                elapsed: Duration::from_nanos(1_234_567_891),
                unique_queries: 965,
            },
            SynthEvent::SeedGeneralized { seed_index: 3, new_stars: 2 },
            SynthEvent::SeedSkipped { seed_index: 7 },
            SynthEvent::MergeAccepted { left_star: 0, right_star: 5 },
            SynthEvent::ProbesElided { elided: 41, memo_hits: 12 },
            SynthEvent::QueryBatch { checks: 100, cached: 30, posed: 70 },
            SynthEvent::OracleFailures { new_failures: 1, run_failures: 4 },
            SynthEvent::WorkerHung { new_timeouts: 2, run_timeouts: 2 },
            SynthEvent::BreakerTripped { new_trips: 1, run_trips: 3 },
            SynthEvent::BreakerRecovered { new_recoveries: 1, run_recoveries: 1 },
            SynthEvent::BudgetExhausted,
            SynthEvent::Cancelled,
            SynthEvent::EventsDropped { dropped: 512 },
        ]
    }

    #[test]
    fn query_tally_classification_is_stable() {
        for event in every_event() {
            let expect = matches!(event, SynthEvent::QueryBatch { .. });
            assert_eq!(event.is_query_tally(), expect, "classification for {event:?}");
        }
    }

    #[test]
    fn wire_line_round_trips_every_variant() {
        for event in every_event() {
            let line = event.to_wire_line();
            assert!(!line.contains('\n'), "wire lines are single lines: {line:?}");
            let back = SynthEvent::from_wire_line(&line)
                .unwrap_or_else(|e| panic!("parse failed: {e}"))
                .unwrap_or_else(|| panic!("known line parsed as unknown: {line:?}"));
            assert_eq!(back, event, "round trip changed the event for {line:?}");
        }
    }

    #[test]
    fn wire_line_phase_tokens_are_stable() {
        assert_eq!(
            SynthEvent::PhaseStarted { phase: SynthPhase::Phase1 }.to_wire_line(),
            "phase-started phase1"
        );
        assert_eq!(
            SynthEvent::PhaseStarted { phase: SynthPhase::CharGeneralization }.to_wire_line(),
            "phase-started chargen"
        );
        assert_eq!(
            SynthEvent::PhaseStarted { phase: SynthPhase::Phase2 }.to_wire_line(),
            "phase-started phase2"
        );
    }

    #[test]
    fn wire_line_unknown_tags_are_skipped_not_errors() {
        assert_eq!(SynthEvent::from_wire_line("unknown"), Ok(None));
        assert_eq!(SynthEvent::from_wire_line("grammar-minimized 3 4 5"), Ok(None));
        assert_eq!(SynthEvent::from_wire_line("  some-future-event with words  "), Ok(None));
    }

    #[test]
    fn wire_line_malformed_known_tags_error() {
        for bad in [
            "",
            "   ",
            "phase-started",
            "phase-started phase9",
            "phase-finished phase1 notanumber 5",
            "phase-finished phase1 5",
            "seed-skipped",
            "seed-skipped -1",
            "query-batch 1 2",
            "query-batch 1 2 3 4",
            "cancelled extra",
        ] {
            assert!(
                SynthEvent::from_wire_line(bad).is_err(),
                "expected malformed-line error for {bad:?}"
            );
        }
    }

    #[test]
    fn wire_line_tolerates_surrounding_whitespace() {
        let parsed = SynthEvent::from_wire_line("  seed-skipped 7 \t").unwrap();
        assert_eq!(parsed, Some(SynthEvent::SeedSkipped { seed_index: 7 }));
    }

    /// Fuzz battery for the event-line decoder, which reads `EVENT` frames
    /// from a serve peer: arbitrary text is a typed error or a parse,
    /// never a panic, and every canonical line round-trips byte-identically.
    mod fuzz {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn arb_event() -> impl Strategy<Value = SynthEvent> {
            let phase = prop_oneof![
                Just(SynthPhase::Phase1),
                Just(SynthPhase::CharGeneralization),
                Just(SynthPhase::Phase2),
            ];
            (0usize..every_event().len(), phase, any::<u64>(), vec(any::<usize>(), 3)).prop_map(
                |(variant, phase, nanos, n)| match every_event().swap_remove(variant) {
                    SynthEvent::PhaseStarted { .. } => SynthEvent::PhaseStarted { phase },
                    SynthEvent::PhaseFinished { .. } => SynthEvent::PhaseFinished {
                        phase,
                        elapsed: Duration::from_nanos(nanos),
                        unique_queries: n[0],
                    },
                    SynthEvent::SeedGeneralized { .. } => {
                        SynthEvent::SeedGeneralized { seed_index: n[0], new_stars: n[1] }
                    }
                    SynthEvent::SeedSkipped { .. } => SynthEvent::SeedSkipped { seed_index: n[0] },
                    SynthEvent::MergeAccepted { .. } => {
                        SynthEvent::MergeAccepted { left_star: n[0], right_star: n[1] }
                    }
                    SynthEvent::ProbesElided { .. } => {
                        SynthEvent::ProbesElided { elided: n[0], memo_hits: n[1] }
                    }
                    SynthEvent::QueryBatch { .. } => {
                        SynthEvent::QueryBatch { checks: n[0], cached: n[1], posed: n[2] }
                    }
                    SynthEvent::OracleFailures { .. } => {
                        SynthEvent::OracleFailures { new_failures: n[0], run_failures: n[1] }
                    }
                    SynthEvent::WorkerHung { .. } => {
                        SynthEvent::WorkerHung { new_timeouts: n[0], run_timeouts: n[1] }
                    }
                    SynthEvent::BreakerTripped { .. } => {
                        SynthEvent::BreakerTripped { new_trips: n[0], run_trips: n[1] }
                    }
                    SynthEvent::BreakerRecovered { .. } => {
                        SynthEvent::BreakerRecovered { new_recoveries: n[0], run_recoveries: n[1] }
                    }
                    SynthEvent::EventsDropped { .. } => SynthEvent::EventsDropped { dropped: n[0] },
                    other => other,
                },
            )
        }

        /// A line with a known tag (or a stranger's) and fields drawn from
        /// numbers, phase tokens, and noise, joined by assorted whitespace.
        fn arb_line() -> impl Strategy<Value = String> {
            let tag = (0usize..every_event().len() + 1).prop_map(|i| {
                every_event()
                    .get(i)
                    .map_or("no-such-event".to_string(), |e| e.to_wire_line())
                    .split(' ')
                    .next()
                    .expect("a tag")
                    .to_string()
            });
            let field = prop_oneof![
                any::<u64>().prop_map(|n| n.to_string()),
                Just("phase1".to_string()),
                Just("chargen".to_string()),
                Just("-1".to_string()),
                vec(0x21u8..0x7f, 0..6).prop_map(|b| String::from_utf8(b).expect("ASCII")),
            ];
            let sep = prop_oneof![Just(" "), Just("  "), Just("\t")];
            (tag, vec((sep, field), 0..5)).prop_map(|(tag, fields)| {
                fields.into_iter().fold(tag, |line, (sep, field)| line + sep + &field)
            })
        }

        /// Arbitrary Unicode text: ASCII half the time (so tags and
        /// whitespace turn up), any scalar value otherwise.
        fn arb_text() -> impl Strategy<Value = String> {
            vec((any::<bool>(), 0u32..0x11_0000), 0..40).prop_map(|codes| {
                codes
                    .into_iter()
                    .map(|(ascii, code)| {
                        char::from_u32(if ascii { code % 0x80 } else { code }).unwrap_or('\u{fffd}')
                    })
                    .collect()
            })
        }

        /// Tally counts of every size: each right-shifted by a random
        /// amount, so sums run from small through huge to saturated.
        fn arb_tally() -> impl Strategy<Value = SynthEvent> {
            (vec(any::<usize>(), 3), 0u32..64).prop_map(|(n, shift)| SynthEvent::QueryBatch {
                checks: n[0] >> shift,
                cached: n[1] >> shift,
                posed: n[2] >> shift,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arbitrary_strings_never_panic_the_decoder(text in arb_text()) {
                if let Ok(Some(event)) = SynthEvent::from_wire_line(&text) {
                    let again = SynthEvent::from_wire_line(&event.to_wire_line());
                    prop_assert_eq!(again, Ok(Some(event)));
                }
            }

            #[test]
            fn summed_tallies_round_trip_byte_identically(
                tallies in vec(arb_tally(), 1..6)
            ) {
                let mut sum = tallies[0].clone();
                for tally in &tallies[1..] {
                    prop_assert!(sum.absorb_tally(tally));
                }
                let line = sum.to_wire_line();
                let back = SynthEvent::from_wire_line(&line)
                    .expect("canonical line parses")
                    .expect("known tag");
                prop_assert_eq!(&back, &sum);
                prop_assert_eq!(back.to_wire_line(), line);
            }

            #[test]
            fn arbitrary_lines_never_panic_the_decoder(
                bytes in vec(any::<u8>(), 0..48), line in arb_line()
            ) {
                let _ = SynthEvent::from_wire_line(&String::from_utf8_lossy(&bytes));
                if let Ok(Some(event)) = SynthEvent::from_wire_line(&line) {
                    // Whatever parses re-encodes to a line that parses back.
                    let again = SynthEvent::from_wire_line(&event.to_wire_line());
                    prop_assert_eq!(again, Ok(Some(event)));
                }
            }

            #[test]
            fn canonical_lines_round_trip_byte_identically(event in arb_event()) {
                let line = event.to_wire_line();
                let back = SynthEvent::from_wire_line(&line)
                    .expect("canonical line parses")
                    .expect("known tag");
                prop_assert_eq!(&back, &event);
                prop_assert_eq!(back.to_wire_line(), line);
            }
        }
    }

    #[test]
    fn event_line_error_reports_the_line() {
        let err = SynthEvent::from_wire_line("query-batch x y z").unwrap_err();
        assert_eq!(err.line(), "query-batch x y z");
        assert!(err.to_string().contains("query-batch"));
    }
}
