//! Deterministic fault injection for the oracle stack.
//!
//! The hang-proofing in [`crate::oracle`] — query deadlines, respawn
//! backoff, the per-slot circuit breaker — is only trustworthy if it can
//! be *demonstrated* against every misbehavior class a real parser binary
//! exhibits. This module is that demonstration harness: a seeded, fully
//! deterministic [`FaultPlan`] that injects hangs, stalls (slow-loris
//! verdict trickles and partial frame writes), instant-crash loops, and
//! garbage verdicts into any worker loop or in-process oracle, so the
//! recovery paths can be pinned by tests instead of trusted on faith.
//!
//! Three integration points:
//!
//! - [`serve_faulty_worker`] — a drop-in replacement for
//!   [`crate::serve_oracle_worker`] that a worker binary routes through
//!   when fault flags are set (`glade-oracle-worker --hang-after N
//!   --stall-ms M …`). A no-op plan delegates to the clean serve loop, so
//!   the fast path stays byte-identical.
//! - [`FaultyOracle`] — wraps any in-process [`Oracle`] with the same
//!   plan semantics (injected failures answer `None` and are counted), for
//!   tests that need faults without spawning processes.
//! - [`flaky_spawn_should_die`] — a spawn-counter protocol for
//!   `--flaky-spawn PATH`: alternate spawns die instantly, which is how
//!   the respawn-backoff and breaker tests manufacture spawn-or-crash
//!   streaks deterministically across independent worker processes.
//!
//! Every decision is a pure function of the plan and the query stream
//! (counts and content hashes — never wall-clock time or PIDs), so a
//! faulty run is exactly reproducible: same seed, same queries, same
//! injected faults, same recovery sequence.

use crate::oracle::Oracle;
use crate::wire;
use std::io::{BufReader, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A deterministic schedule of injected worker misbehavior.
///
/// The default plan is a no-op (every fault disabled); builders switch the
/// individual fault modes on. Counters are in *answered queries*: e.g.
/// `hang_after(3)` answers three queries correctly and hangs on the
/// fourth — mid-frame if the fourth arrives inside a batch, which is
/// exactly the torn-frame case the dispatcher's hang scan must recover.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    hang_after: Option<usize>,
    stall_ms: u64,
    crash_after: Option<usize>,
    garbage_after: Option<usize>,
    crash_permille: u16,
    seed: u64,
}

impl FaultPlan {
    /// A plan with every fault disabled (same as `FaultPlan::default()`).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Answer `n` queries, then hang forever (never answer, never exit) —
    /// the misbehavior class that motivates query deadlines. In
    /// [`FaultyOracle`] the "hang" is bounded: affected queries stall one
    /// [`FaultPlan::stall_ms`] quantum and fail with `None` instead of
    /// blocking the test forever.
    #[must_use]
    pub fn hang_after(mut self, n: usize) -> Self {
        self.hang_after = Some(n);
        self
    }

    /// Sleep `ms` milliseconds before every verdict byte, and write
    /// verdict runs one byte at a time (slow-loris). A stalling worker
    /// that keeps answering within the deadline is healthy — the
    /// dispatcher re-arms per verdict byte — so this mode separates
    /// "slow" from "hung" in tests.
    #[must_use]
    pub fn stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    /// Answer `n` queries, then exit abruptly (status 42) instead of
    /// answering the next — `n = 0` is the instant-crash loop that the
    /// respawn backoff and circuit breaker exist to contain.
    #[must_use]
    pub fn crash_after(mut self, n: usize) -> Self {
        self.crash_after = Some(n);
        self
    }

    /// Answer `n` queries, then emit the illegal verdict byte `0x7f` for
    /// every later query (protocol deviation without process death).
    #[must_use]
    pub fn garbage_after(mut self, n: usize) -> Self {
        self.garbage_after = Some(n);
        self
    }

    /// Crash on roughly `p`/1000 of queries, chosen by a seeded content
    /// hash of the query bytes — stable across dispatch order, pool size,
    /// and frame batching, so "~10% of this workload crashes" is the same
    /// set of queries on every run.
    #[must_use]
    pub fn crash_permille(mut self, p: u16) -> Self {
        assert!(p <= 1000, "crash_permille is out of 1000");
        self.crash_permille = p;
        self
    }

    /// Seeds the content hash behind [`FaultPlan::crash_permille`].
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `true` when every fault is disabled and the plan's serve loops are
    /// byte-identical to the clean ones.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Whether the seeded content hash elects `input` for a crash.
    #[must_use]
    pub fn should_crash(&self, input: &[u8]) -> bool {
        if self.crash_permille == 0 {
            return false;
        }
        // FNV-1a over the bytes, folded through a splitmix64 finisher so
        // short inputs still spread across the permille buckets.
        let mut h = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for &b in input {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % 1000) < u64::from(self.crash_permille)
    }

    /// The action the plan prescribes for the `answered`-th answer
    /// (0-based) to `input`.
    fn action(&self, answered: usize, input: &[u8]) -> FaultAction {
        if self.crash_after.is_some_and(|n| answered >= n) || self.should_crash(input) {
            FaultAction::Crash
        } else if self.hang_after.is_some_and(|n| answered >= n) {
            FaultAction::Hang
        } else if self.garbage_after.is_some_and(|n| answered >= n) {
            FaultAction::Garbage
        } else {
            FaultAction::Answer
        }
    }

    fn stall(&self) {
        if self.stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.stall_ms));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    Answer,
    Garbage,
    Crash,
    Hang,
}

/// The worker-process faces of [`FaultAction`]: crash and hang actually
/// crash and hang.
fn execute_worker_fault(action: FaultAction) {
    match action {
        FaultAction::Crash => std::process::exit(42),
        FaultAction::Hang => loop {
            // Hang, don't exit: the whole point is a worker that stays
            // alive and silent until the oracle's deadline kills it.
            std::thread::sleep(Duration::from_secs(60));
        },
        FaultAction::Answer | FaultAction::Garbage => {}
    }
}

/// Like [`crate::serve_oracle_worker`], but routed through `plan`: the
/// handshake is untouched (faults target queries, not the hello), verdict
/// bytes are stalled/garbled/withheld per the plan, and a no-op plan
/// delegates to the clean loop so the fast path stays byte-identical.
///
/// When any fault is enabled, verdict runs are written one byte at a time
/// with a flush each — the slow-loris framing the dispatcher must tolerate
/// (and, with a hang, the mid-frame tear it must recover from).
///
/// # Errors
///
/// As [`crate::serve_oracle_worker`].
pub fn serve_faulty_worker<F: FnMut(&[u8]) -> bool>(
    plan: &FaultPlan,
    mut f: F,
) -> std::io::Result<()> {
    if plan.is_noop() {
        return crate::serve_oracle_worker(f);
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = BufReader::new(stdin.lock());
    let mut output = stdout.lock();
    if !wire::accept_handshake(&mut input, &mut output)? {
        return Ok(());
    }
    // A fault fires exactly at its query's position, tearing the frame
    // there.
    let mut answered = 0usize;
    loop {
        let Some(count) = wire::read_frame_prefix(&mut input)? else { return Ok(()) };
        let queries = wire::decode_batch_frame_after_count(count, &mut input)?;
        for q in &queries {
            let action = plan.action(answered, q);
            execute_worker_fault(action);
            let verdict = if action == FaultAction::Garbage { 0x7f } else { u8::from(f(q)) };
            answered += 1;
            plan.stall();
            output.write_all(&[verdict])?;
            output.flush()?;
        }
    }
}

/// The spawn-counter protocol behind `--flaky-spawn PATH`: appends one
/// byte to the file at `path` and reports whether this spawn should die
/// instantly (odd append positions die, so spawn attempts alternate
/// healthy/dead). The file is the cross-process spawn counter; tests
/// create a fresh temp file per scenario.
///
/// An unusable path counts as "don't die" — a broken counter must not
/// turn into a permanent crash loop.
#[must_use]
pub fn flaky_spawn_should_die(path: &std::path::Path) -> bool {
    let appended =
        std::fs::OpenOptions::new().create(true).append(true).open(path).and_then(|mut file| {
            file.write_all(b"s")?;
            file.flush()?;
            file.metadata()
        });
    match appended {
        Ok(meta) => meta.len().is_multiple_of(2),
        Err(_) => false,
    }
}

/// Wraps any in-process [`Oracle`] with a [`FaultPlan`], for fault tests
/// that should not spawn processes. Injected faults answer `None` from
/// [`Oracle::accepts_checked`] (a counted failure, like a worker that
/// died before answering); hangs are bounded to one stall quantum so a
/// test using this wrapper cannot itself hang.
#[derive(Debug)]
pub struct FaultyOracle<O> {
    inner: O,
    plan: FaultPlan,
    answered: AtomicUsize,
    injected: AtomicUsize,
}

impl<O: Oracle> FaultyOracle<O> {
    /// Wraps `oracle` so each query consults `plan` first.
    pub fn new(oracle: O, plan: FaultPlan) -> Self {
        FaultyOracle {
            inner: oracle,
            plan,
            answered: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// Queries for which a fault was injected instead of a real verdict.
    pub fn injected_faults(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<O: Oracle> Oracle for FaultyOracle<O> {
    fn accepts(&self, input: &[u8]) -> bool {
        self.accepts_checked(input).unwrap_or(false)
    }

    fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
        let answered = self.answered.fetch_add(1, Ordering::Relaxed);
        match self.plan.action(answered, input) {
            FaultAction::Answer => {
                self.plan.stall();
                self.inner.accepts_checked(input)
            }
            FaultAction::Crash | FaultAction::Garbage | FaultAction::Hang => {
                self.plan.stall();
                self.injected.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn failure_count(&self) -> usize {
        self.inner.failure_count() + self.injected_faults()
    }

    fn configure_timeout(&self, timeout: Option<Duration>) {
        self.inner.configure_timeout(timeout);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnOracle;

    #[test]
    fn default_plan_is_noop() {
        assert!(FaultPlan::new().is_noop());
        assert!(!FaultPlan::new().hang_after(3).is_noop());
        assert!(!FaultPlan::new().stall_ms(1).is_noop());
        assert!(!FaultPlan::new().crash_permille(100).is_noop());
    }

    #[test]
    fn content_hash_crashes_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new().crash_permille(100).seed(7);
        let inputs: Vec<Vec<u8>> = (0..2000u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let first: Vec<bool> = inputs.iter().map(|i| plan.should_crash(i)).collect();
        let second: Vec<bool> = inputs.iter().map(|i| plan.should_crash(i)).collect();
        assert_eq!(first, second, "the crash set must be a pure function of the bytes");
        let hits = first.iter().filter(|&&c| c).count();
        // ~10% of 2000 with generous slack: the hash must actually spread.
        assert!((100..300).contains(&hits), "got {hits} crash elections out of 2000");
        // A different seed elects a different set.
        let reseeded = FaultPlan::new().crash_permille(100).seed(8);
        assert!(first.iter().zip(&inputs).any(|(&c, i)| c != reseeded.should_crash(i)));
    }

    #[test]
    fn faulty_oracle_counts_injected_faults_and_degrades_to_none() {
        let plan = FaultPlan::new().crash_after(2);
        let o = FaultyOracle::new(FnOracle::new(|i: &[u8]| i.len() == 1), plan);
        assert_eq!(o.accepts_checked(b"a"), Some(true));
        assert_eq!(o.accepts_checked(b"bb"), Some(false));
        assert_eq!(o.accepts_checked(b"c"), None, "third query hits the injected crash");
        assert_eq!(o.accepts_checked(b"d"), None, "crash-after faults are permanent");
        assert_eq!(o.injected_faults(), 2);
        assert_eq!(o.failure_count(), 2);
    }

    #[test]
    fn flaky_spawn_alternates() {
        let path = std::env::temp_dir().join(format!("glade-flaky-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let first = flaky_spawn_should_die(&path);
        let second = flaky_spawn_should_die(&path);
        let third = flaky_spawn_should_die(&path);
        let fourth = flaky_spawn_should_die(&path);
        assert!(!first, "the first spawn must survive so tests can make progress");
        assert!(second);
        assert!(!third);
        assert!(fourth);
        let _ = std::fs::remove_file(&path);
    }
}
