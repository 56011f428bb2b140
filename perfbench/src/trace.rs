//! In-memory span tracing around calls into the engine's public API.
//!
//! Spans are recorded only while tracing is switched on (the `--trace 1`
//! run); untraced runs never construct the wrappers below, so end-to-end
//! numbers carry no tracing cost. Each span has a name, a subject (the
//! language or target it belongs to), start and end in nanoseconds since
//! the trace epoch, the parent span that caused it, and an item count
//! (queries in an oracle batch, for instance).
//!
//! Parents come from a per-thread stack of open spans. Engine worker
//! threads (which call the oracle wrapper) have no open span of their own;
//! their spans take the *ambient* parent, the span the benchmark opened
//! around the engine call that spawned them.

use glade_core::{Oracle, SynthEvent, SynthPhase, SynthesisObserver};
use glade_fuzz::Fuzzer;
use glade_targets::{RunOutcome, Target};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub subject: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub items: usize,
}

impl Span {
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// No open span.
const NONE: usize = usize::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static AMBIENT: AtomicUsize = AtomicUsize::new(NONE);
static LOG: Mutex<Log> = Mutex::new(Log { spans: Vec::new(), subjects: Vec::new() });

/// Recorded spans, and the subject names they point into (each distinct
/// name is leaked once, so a span carries no allocation of its own).
struct Log {
    spans: Vec<Span>,
    subjects: Vec<&'static str>,
}

impl Log {
    fn push(&mut self, mut span: Span, subject: &str) -> usize {
        span.subject = match self.subjects.iter().find(|s| **s == subject) {
            Some(s) => s,
            None => {
                let leaked: &'static str = Box::leak(subject.to_owned().into_boxed_str());
                self.subjects.push(leaked);
                leaked
            }
        };
        self.spans.push(span);
        self.spans.len() - 1
    }
}

fn log() -> std::sync::MutexGuard<'static, Log> {
    LOG.lock().expect("span log poisoned")
}
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Drops every recorded span (between traced iterations, so a run keeps
/// only its last iteration's trace in memory).
pub fn clear() {
    log().spans.clear();
}

/// Takes every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut log().spans)
}

fn current_parent() -> Option<usize> {
    let top = OPEN.with(|open| open.borrow().last().copied());
    let parent = top.unwrap_or_else(|| AMBIENT.load(Ordering::Relaxed));
    (parent != NONE).then_some(parent)
}

/// Records a finished span that started at `start` (from [`now`]).
pub fn record(name: &'static str, subject: &str, start: u64, items: usize) {
    let end = now();
    let parent = current_parent();
    log().push(Span { name, subject: "", start, end, parent, items }, subject);
}

/// Runs `f` inside a span (a plain call when tracing is off). Spans
/// opened by `f` on this thread, and spans on other threads while `f`
/// runs with `ambient` set, become its children.
pub fn span<R>(name: &'static str, subject: &str, ambient: bool, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = now();
    let parent = current_parent();
    let index =
        log().push(Span { name, subject: "", start, end: start, parent, items: 1 }, subject);
    OPEN.with(|open| open.borrow_mut().push(index));
    let previous = ambient.then(|| AMBIENT.swap(index, Ordering::Relaxed));
    let result = f();
    if let Some(previous) = previous {
        AMBIENT.store(previous, Ordering::Relaxed);
    }
    OPEN.with(|open| open.borrow_mut().pop());
    let end = now();
    log().spans[index].end = end;
    result
}

/// Forwards every [`Oracle`] method to the wrapped oracle, recording one
/// `oracle` span per query or per native batch. Dispatch is unchanged:
/// `native_batching` and the batched entry point pass straight through,
/// and so do the timeout and failure/breaker counters.
pub struct TracedOracle<O> {
    inner: O,
    subject: String,
}

impl<O> TracedOracle<O> {
    pub fn new(inner: O, subject: &str) -> Self {
        TracedOracle { inner, subject: subject.to_owned() }
    }
}

impl<O: Oracle> Oracle for TracedOracle<O> {
    fn accepts(&self, input: &[u8]) -> bool {
        let start = now();
        let verdict = self.inner.accepts(input);
        record("oracle", &self.subject, start, 1);
        verdict
    }

    fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
        let start = now();
        let verdict = self.inner.accepts_checked(input);
        record("oracle", &self.subject, start, 1);
        verdict
    }

    fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        let start = now();
        let verdicts = self.inner.accepts_batch_checked(inputs);
        record("oracle", &self.subject, start, inputs.len());
        verdicts
    }

    fn native_batching(&self) -> bool {
        self.inner.native_batching()
    }

    fn failure_count(&self) -> usize {
        self.inner.failure_count()
    }

    fn configure_timeout(&self, timeout: Option<Duration>) {
        self.inner.configure_timeout(timeout)
    }

    fn timed_out_count(&self) -> usize {
        self.inner.timed_out_count()
    }

    fn tripped_worker_count(&self) -> usize {
        self.inner.tripped_worker_count()
    }

    fn recovered_worker_count(&self) -> usize {
        self.inner.recovered_worker_count()
    }
}

/// A [`Target`] whose `run` calls are recorded as `target.run` spans.
pub struct TracedTarget<'t> {
    pub inner: &'t dyn Target,
}

impl Target for TracedTarget<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let start = now();
        let outcome = self.inner.run(input);
        record("target.run", self.inner.name(), start, usize::from(outcome.valid));
        outcome
    }

    fn coverable_lines(&self) -> usize {
        self.inner.coverable_lines()
    }

    fn source_lines(&self) -> usize {
        self.inner.source_lines()
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        self.inner.seeds()
    }

    fn corpus(&self) -> Vec<Vec<u8>> {
        self.inner.corpus()
    }
}

/// A [`Fuzzer`] whose `next_input` calls are recorded as `fuzz.next_input`
/// spans (items = bytes produced).
pub struct TracedFuzzer<'f> {
    pub inner: &'f mut dyn Fuzzer,
    pub subject: String,
}

impl Fuzzer for TracedFuzzer<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_input(&mut self, rng: &mut StdRng) -> Vec<u8> {
        let start = now();
        let input = self.inner.next_input(rng);
        record("fuzz.next_input", &self.subject, start, input.len());
        input
    }

    fn observe(&mut self, input: &[u8], outcome: &RunOutcome) {
        self.inner.observe(input, outcome)
    }
}

/// Turns `PhaseStarted`/`PhaseFinished` events into `phase.*` spans, timed
/// when the observer sees them.
pub struct PhaseObserver {
    subject: String,
    open: Mutex<Vec<(SynthPhase, u64)>>,
}

impl PhaseObserver {
    pub fn new(subject: &str) -> Self {
        PhaseObserver { subject: subject.to_owned(), open: Mutex::new(Vec::new()) }
    }

    /// Feeds one event (also usable for events streamed by a server).
    pub fn observe(&self, event: &SynthEvent) {
        match event {
            SynthEvent::PhaseStarted { phase } => {
                self.open.lock().expect("phase log poisoned").push((*phase, now()));
            }
            SynthEvent::PhaseFinished { phase, .. } => {
                let mut open = self.open.lock().expect("phase log poisoned");
                if let Some(i) = open.iter().rposition(|(p, _)| p == phase) {
                    let (_, start) = open.remove(i);
                    record(phase_span(*phase), &self.subject, start, 1);
                }
            }
            _ => {}
        }
    }
}

impl SynthesisObserver for PhaseObserver {
    fn on_event(&self, event: &SynthEvent) {
        self.observe(event);
    }
}

fn phase_span(phase: SynthPhase) -> &'static str {
    match phase {
        SynthPhase::Phase1 => "phase.phase1",
        SynthPhase::CharGeneralization => "phase.chargen",
        SynthPhase::Phase2 => "phase.phase2",
        _ => "phase.other",
    }
}

/// Spans of one name.
pub fn named<'s>(spans: &'s [Span], name: &str) -> impl Iterator<Item = &'s Span> + 's {
    let name = name.to_owned();
    spans.iter().filter(move |s| s.name == name)
}

/// Writes a per-name summary of `spans` (count, items, total and self
/// seconds) to stderr, the trace's end-of-run dump.
pub fn dump(spans: &[Span]) {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    eprintln!("[perfbench] trace: {} spans", spans.len());
    eprintln!(
        "[perfbench] {:<22} {:>9} {:>11} {:>10} {:>10}",
        "span", "count", "items", "total_s", "self_s"
    );
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s.interval());
        }
    }
    for name in names {
        let (mut count, mut items, mut total, mut own) = (0usize, 0usize, 0u64, 0u64);
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            count += 1;
            items += s.items;
            total += s.end - s.start;
            own += crate::stats::self_time(&[s.interval()], &children[i]);
        }
        eprintln!(
            "[perfbench] {:<22} {:>9} {:>11} {:>10.4} {:>10.4}",
            name,
            count,
            items,
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_worker_threads_take_the_ambient_parent() {
        set_enabled(true);
        clear();
        span("outer", "a", true, || {
            span("inner", "a", false, || {});
            std::thread::scope(|s| {
                s.spawn(|| record("worker", "b", now(), 3));
            });
        });
        set_enabled(false);
        span("untraced", "a", false, || {});
        let spans = take();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "worker"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0), "other threads inherit the ambient span");
        assert_eq!((spans[2].subject, spans[2].items), ("b", 3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
