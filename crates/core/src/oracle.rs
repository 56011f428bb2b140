//! Membership oracles: blackbox access to the program under learning.
//!
//! GLADE's only interface to the target program is the oracle
//! `O(α) = 1[α ∈ L*]` (Section 2): run the program on an input and observe
//! whether it is accepted. This module defines the [`Oracle`] trait plus the
//! adapters used throughout the reproduction:
//!
//! * [`FnOracle`] — wrap any predicate closure (used for handwritten
//!   grammars and the instrumented target parsers).
//! * [`ProcessOracle`] — spawn an external executable per query, concluding
//!   validity from its exit status, exactly like the paper's setup where "we
//!   run the program on input α … and conclude that α is a valid input if
//!   the program does not print an error message".
//! * [`PooledProcessOracle`] — keep a pool of long-lived worker processes
//!   and pose each query over a pipe instead of paying a process spawn per
//!   query (the forkserver trick; see the protocol below).
//!
//! # The query-reduction layer in front of the runner
//!
//! Everything in this module makes a query *cheaper*; the synthesis
//! engine also works to pose *fewer* of them. A query-reduction layer
//! sits between the planners and the query runner: character
//! generalization and phase-2 merging plan their membership checks in
//! waves, byte-identical check strings from distinct plan sites collapse
//! to one probe whose verdict fans back out to every owner, and a
//! byte-class memo table keyed by `(terminal bytes, context fingerprint,
//! candidate set)` replays already-learned character classes without
//! re-probing (persisted alongside the query cache, see
//! [`Session`](crate::Session)). Only provably-redundant checks are
//! elided — the synthesized grammar is byte-identical to posing every
//! check — and the savings are surfaced as
//! [`SynthesisStats::probes_elided`](crate::SynthesisStats) and
//! `memo_hits` before a single byte reaches any oracle here.
//!
//! # The pooled worker protocol
//!
//! Spawning a process per membership query costs milliseconds; the paper's
//! cost model ("each query to O takes constant time") assumes queries are
//! cheap. [`PooledProcessOracle`] amortizes the spawn by keeping N
//! long-lived workers speaking a length-prefixed verdict protocol over
//! stdin/stdout: one handshake when a worker spawns, then batched frames.
//!
//! **Handshake.** The oracle opens every freshly spawned worker with one
//! frame: the `u32` little-endian byte length 16, then the fixed payload
//! [`wire::WIRE_V2_PROBE`]. A conforming worker
//! answers the single byte [`wire::WIRE_V2_ACK`]
//! (`0x02`). The handshake is the pool's dead-on-arrival check: a worker
//! that cannot complete it counts as a spawn failure (fallback, circuit
//! breaker, failure counting). A worker that answers a verdict byte
//! (`0x00`/`0x01`) speaks only the retired single-query protocol, which
//! took the handshake for a query; it is refused the same way, so it can
//! never misread a batch frame's count as a length and stall the pool.
//! Any other byte is a protocol error.
//!
//! **Batched frames.** After the handshake, one request frame carries N
//! queries and one response carries N verdict bytes, so a batch pays two
//! pipe round-trips instead of 2·N:
//!
//! ```text
//! request  (oracle → worker):  u32 LE query count N (1 ≤ N ≤ 2^16), then
//!                              N × { u32 LE byte length, input bytes }
//!                              with ≤ 2^30 total payload bytes
//! response (worker → oracle):  N bytes, one verdict (0x00/0x01) per query
//!                              in frame order
//! ```
//!
//! The frame codec lives in [`wire`] (encode/decode are pure
//! functions, property-tested in isolation). A frame whose count or length
//! prefixes exceed the caps is malformed; conforming workers treat it as a
//! protocol error and exit nonzero, and the oracle treats the resulting
//! crash like any other (see *Failure semantics*). The oracle may keep
//! several frames in flight per worker (a bounded window); responses
//! arrive strictly in request order. Workers treat the probe payload as
//! special in the handshake only: a later membership query that happens
//! to equal it is answered like any other input.
//!
//! **One dispatcher.** The pool (Linux and macOS only) talks to its
//! workers through one event-driven loop. Worker pipes are made
//! nonblocking once, at spawn, and stay so. The calling thread
//! multiplexes every checked-out worker's pipes with `poll(2)` readiness,
//! keeping each worker saturated with a bounded in-flight window of whole
//! batch frames — no helper threads, no async runtime, no engine thread
//! parked per in-flight query. [`Oracle::accepts_batch_checked`] runs the
//! loop over a whole batch (the engine routes whole miss sets here, see
//! [`Oracle::native_batching`]); [`Oracle::accepts_checked`] is the
//! loop's one-query case.
//!
//! **Failure semantics.** A clean EOF on the worker's stdin (between
//! frames) tells it to exit. Any other deviation — the worker dying, a
//! short read, a malformed frame, a verdict byte other than the legal
//! responses — is treated as a worker crash: the loop reaps the worker,
//! spawns a replacement into its slot, and retries each query the worker
//! held once, on the replacement. A query whose retry also fails is
//! settled query by query: in a batch it gets one isolated one-query run
//! of its own (a crashing worker tears whole frames, so a query can use
//! up its retry without being at fault); a single query that still has
//! no verdict makes the oracle give up on the pooled path — falling back
//! to a spawn-per-query [`ProcessOracle`] when one is configured, and
//! otherwise counting an oracle failure and answering `false`. A worker
//! that answers a malformed or oversized frame with garbage can
//! therefore never produce a silent wrong verdict: illegal bytes are
//! crashes, and degraded queries are always visible in
//! [`Oracle::failure_count`].
//!
//! **Deadlines.** Every oracle interaction can be time-bounded: whoever
//! builds the pool installs a per-query deadline with
//! [`PooledProcessOracle::query_timeout`] (the engine never sets one). The
//! dispatcher then polls with a finite timeout and tracks one deadline per
//! worker, re-armed by every verdict byte — a slow-but-steady worker (or
//! a slow-loris writer dribbling one verdict byte at a time) never trips
//! it, while a worker that stops answering for a whole window is *hung*:
//! it is killed, reaped, counted in [`Oracle::timed_out_count`], and its
//! in-flight queries take the ordinary crash path. The spawn-time handshake is
//! bounded by the same deadline, and [`ProcessOracle::timeout`] bounds
//! spawn-per-query children with a kill-on-expiry wait. A timed-out query
//! is never a silent `false`: it either recovers on a fresh
//! worker/fallback or surfaces as a counted failure.
//!
//! **Respawn backoff and the per-slot circuit breaker.** Each worker slot
//! tracks consecutive *strikes*: spawn failures, and crashes of a worker
//! that never produced a verdict (a worker that answered something resets
//! its slot to one strike when it crashes, and a clean checkin resets the
//! slot to zero). The slot's state machine:
//!
//! ```text
//!           spawn-or-crash failure           strikes reach K
//! CLOSED ─────────────────────────▶ BACKOFF ─────────────────▶ OPEN
//!   ▲     (strike 2+ waits base·2^(s−2)      (tripped: spawns    │
//!   │      plus deterministic jitter)         blocked)           │ cool-down
//!   │                                                            ▼
//!   └──────────── probe spawn succeeds ◀───────────────── HALF-OPEN
//!                 (recovery counted)        (one probe spawn allowed;
//!                                            failure re-opens with a
//!                                            doubled cool-down)
//! ```
//!
//! The first respawn after a crash is immediate, so ordinary crash
//! recovery stays fast; only *consecutive* failures back off, which keeps
//! an instant-crash loop or a vanished binary from tight-looping
//! `fork/exec`. After `K` consecutive strikes
//! ([`PooledProcessOracle::max_respawns`]) the slot trips open: queries
//! route to the remaining workers — or degrade through the
//! fallback/failure path when every slot is open — until the cool-down
//! elapses and a single half-open probe spawn is allowed. Timeouts, trips
//! and recoveries are counted on the thread that ran the call, so each run
//! sees its own as [`SynthEvent`](crate::SynthEvent)s and in its
//! [`SynthesisStats`](crate::SynthesisStats). Backoff jitter is
//! deterministic (hashed from the slot index and strike count, never
//! entropy), and none of these knobs affects verdicts: with no timeout
//! configured and healthy workers, grammar bytes and query counts are
//! byte-identical to a pool without the machinery.
//!
//! Any `fn(&[u8]) -> bool` target becomes a protocol-speaking worker with
//! [`serve_oracle_worker`] — call it from a binary's `main` (the
//! `glade-oracle-worker` binary in `glade-targets` does exactly this for
//! the built-in evaluation targets).
//!
//! # Oracle execution failures
//!
//! A blackbox oracle can fail to *execute* (binary missing, fork limit,
//! pipe torn down mid-query) — which is different from the program
//! rejecting the input. Failed executions answer `false` (fail closed, the
//! same degradation contract as the query budget), are **never cached**
//! (the engine queries through [`Oracle::accepts_checked`], whose `None`
//! keeps degraded answers out of the session cache and out of persisted
//! snapshots), and are **counted**: a run's `None` answers are its
//! [`SynthesisStats::oracle_failures`](crate::SynthesisStats::oracle_failures)
//! and [`SynthEvent::OracleFailures`](crate::SynthEvent::OracleFailures),
//! so a degraded run is diagnosable instead of silently under-generalizing.
//!
//! # Thread safety
//!
//! `Oracle` requires `Send + Sync`: the query engine fans batched checks out
//! across a scoped worker pool, so one oracle value is shared by several
//! threads and queried concurrently. See the crate-level documentation for
//! the full contract (determinism + thread safety).

use crate::wire;
use std::io::{BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
// The pool and the timed child wait need poll(2) and nonblocking pipes.
#[cfg(any(target_os = "linux", target_os = "macos"))]
use std::{
    collections::VecDeque,
    io::Read as _,
    os::unix::io::{AsFd as _, AsRawFd as _},
    process::{Child, ChildStdin, ChildStdout},
    time::Instant,
};

/// Default queries per batch frame (see
/// [`PooledProcessOracle::frame_batch`]).
#[cfg(any(target_os = "linux", target_os = "macos"))]
const DEFAULT_FRAME_BATCH: usize = 32;

/// Default strike count that trips a worker slot's circuit breaker (see
/// [`PooledProcessOracle::max_respawns`]).
#[cfg(any(target_os = "linux", target_os = "macos"))]
const DEFAULT_MAX_RESPAWNS: u32 = 4;

/// Default base delay of the exponential respawn backoff (see
/// [`PooledProcessOracle::respawn_backoff`]).
#[cfg(any(target_os = "linux", target_os = "macos"))]
const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Raw `poll(2)`/`fcntl(2)` bindings for the pool's dispatcher and the
/// serve accept loop. The workspace builds offline (no `libc` crate), so
/// the handful of constants and prototypes they need are declared here;
/// the symbols come from the C library every Unix Rust binary already
/// links.
#[cfg(any(target_os = "linux", target_os = "macos"))]
pub(crate) mod sys {
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::{AsRawFd as _, BorrowedFd, RawFd};
    use std::time::{Duration, Instant};

    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    // POLLERR (0x008) and POLLHUP (0x010) are reported whether or not
    // they are requested; the dispatcher needs no constants for them — a
    // ready-looking fd whose read/write then fails takes the crash path.
    pub const POLLNVAL: c_short = 0x020;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(target_os = "macos")]
    const O_NONBLOCK: c_int = 0x0004;

    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(target_os = "macos")]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    }

    /// Blocks until at least one registered fd is ready, or `timeout`
    /// expires (`Ok(0)`). `None` waits forever. EINTR is retried with the
    /// *remaining* time recomputed from a deadline captured up front, so a
    /// signal landing mid-dispatch can neither fail the whole batch nor
    /// silently extend the deadline.
    pub fn poll_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let ms: c_int = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(0);
                    }
                    // Round up: a sub-millisecond remainder must still
                    // wait one tick, not busy-spin on a zero timeout.
                    c_int::try_from(left.as_millis().saturating_add(1)).unwrap_or(c_int::MAX)
                }
            };
            // SAFETY: `fds` is exclusively borrowed for the call, so the
            // kernel may write every `revents` field and nothing else
            // reads or moves the slice meanwhile. `PollFd` is
            // `#[repr(C)]` with the field order and types of `struct
            // pollfd`, and `nfds` is the slice's own length.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
            if rc > 0 {
                return Ok(rc as usize);
            }
            if rc == 0 {
                // Kernel timeout fired; loop so the rounded-up tick cannot
                // report expiry ahead of the real deadline.
                continue;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Switches `O_NONBLOCK` on for `fd`, once, right after the child
    /// that owns the pipe is spawned; it stays on for the pipe's life.
    pub fn set_nonblocking(fd: BorrowedFd<'_>) -> std::io::Result<()> {
        let fd = fd.as_raw_fd();
        // SAFETY: `fd` comes from a `BorrowedFd`, so the `ChildStdin`,
        // `ChildStdout` or `ChildStderr` that owns it is alive and keeps
        // it open for the whole call. F_GETFL and F_SETFL only read and
        // write that descriptor's status flags, and the variadic third
        // argument is the `c_int` F_SETFL expects.
        unsafe {
            let flags = fcntl(fd, F_GETFL);
            if flags < 0 {
                return Err(std::io::Error::last_os_error());
            }
            if flags & O_NONBLOCK == 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                return Err(std::io::Error::last_os_error());
            }
        }
        Ok(())
    }
}

/// Shared exponential-backoff schedule with deterministic jitter: `None`
/// for `strikes < 2` (the first retry is immediate), then
/// `base · 2^(strikes−2)` (shift capped at 6) plus a per-(salt, strike)
/// jitter ≤ `base/4`, so independent retriers sharing a schedule do not
/// fire in lockstep yet stay reproducible. Used by the pooled oracle's
/// respawn path and by the serve client's connect retry.
#[cfg(any(target_os = "linux", target_os = "macos"))]
pub(crate) fn retry_backoff_delay(base: Duration, salt: u64, strikes: u32) -> Option<Duration> {
    if strikes < 2 {
        return None;
    }
    let exp = (strikes - 2).min(6);
    let mut h = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(strikes).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 31;
    let jitter = Duration::from_nanos((base.as_nanos() as u64 / 1024).saturating_mul(h % 256));
    Some(base.saturating_mul(1 << exp).saturating_add(jitter))
}

/// Oracle health counts: queries that failed to execute, queries
/// abandoned to a deadline, breaker trips and breaker recoveries. The
/// query engine sums one per run from its own oracle calls (see
/// [`OracleHealth::of`]); an oracle counts the last three on the thread
/// that runs the call, beside its shared counter (see [`count_health`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OracleHealth {
    pub(crate) failures: usize,
    pub(crate) timeouts: usize,
    pub(crate) trips: usize,
    pub(crate) recoveries: usize,
}

thread_local! {
    static THREAD_HEALTH: std::cell::Cell<OracleHealth> = const {
        std::cell::Cell::new(OracleHealth { failures: 0, timeouts: 0, trips: 0, recoveries: 0 })
    };
}

impl OracleHealth {
    /// Runs `calls`, oracle calls on this thread that return how many
    /// `None` answers they got back, and returns their health: those
    /// failures, plus what the thread's tally counted meanwhile. Other
    /// threads' calls to the same oracle never show in it.
    pub(crate) fn of(calls: impl FnOnce() -> usize) -> Self {
        let before = THREAD_HEALTH.with(std::cell::Cell::get);
        let failures = calls();
        OracleHealth { failures, ..THREAD_HEALTH.with(std::cell::Cell::get) - before }
    }
}

impl std::ops::Add for OracleHealth {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        OracleHealth {
            failures: self.failures.wrapping_add(other.failures),
            timeouts: self.timeouts.wrapping_add(other.timeouts),
            trips: self.trips.wrapping_add(other.trips),
            recoveries: self.recoveries.wrapping_add(other.recoveries),
        }
    }
}

impl std::ops::Sub for OracleHealth {
    type Output = Self;

    fn sub(self, earlier: Self) -> Self {
        OracleHealth {
            failures: self.failures.wrapping_sub(earlier.failures),
            timeouts: self.timeouts.wrapping_sub(earlier.timeouts),
            trips: self.trips.wrapping_sub(earlier.trips),
            recoveries: self.recoveries.wrapping_sub(earlier.recoveries),
        }
    }
}

/// Adds `n` to one of an oracle's shared health counters and to the same
/// field of the calling thread's [`OracleHealth`] tally.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn count_health(counter: &AtomicUsize, n: usize, field: fn(&mut OracleHealth) -> &mut usize) {
    counter.fetch_add(n, Ordering::Relaxed);
    THREAD_HEALTH.with(|cell| {
        let mut tally = cell.get();
        *field(&mut tally) = field(&mut tally).wrapping_add(n);
        cell.set(tally);
    });
}

/// Blackbox membership access to a target language.
///
/// # Contract
///
/// Implementations must be **deterministic**: repeated queries for the same
/// input must agree, across threads and across time. GLADE's monotonicity
/// argument assumes this, and so do the query caches — runs sharing an
/// oracle may each pose the same input, and a cache keeps the first
/// verdict it records for an input (a snapshot's included).
///
/// Implementations must be **thread-safe** (`Send + Sync`): membership
/// checks are batched and dispatched concurrently from a scoped worker
/// pool, all sharing `&self`.
///
/// A run's [`SynthesisStats`](crate::SynthesisStats) count only its own
/// calls: the `None` answers they got back, and the timeouts, breaker
/// trips and recoveries the oracle counted on the calling thread during
/// them. The four counting methods below (`failure_count` and the rest)
/// are lifetime totals over every caller; the engine does not read them.
pub trait Oracle: Send + Sync {
    /// Returns whether `input` is a valid program input (`input ∈ L*`).
    fn accepts(&self, input: &[u8]) -> bool;

    /// Like [`Oracle::accepts`], but distinguishes an oracle *execution
    /// failure* (`None` — the verdict could not be obtained at all) from a
    /// real reject (`Some(false)`). The query engine uses this form so
    /// degraded answers are never mistaken for verdicts: a `None` answers
    /// `false` for the in-flight check but is **not cached** and never
    /// reaches a persisted snapshot.
    ///
    /// The default wraps `accepts` (in-process oracles cannot fail to
    /// execute); implementations whose `failure_count` can grow should
    /// override it and return `None` exactly when they record a failure.
    fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
        Some(self.accepts(input))
    }

    /// Batched form of [`Oracle::accepts_checked`]: one verdict (or
    /// execution failure) per input, in input order.
    ///
    /// The default implementation simply loops over `accepts_checked`, so
    /// ordinary oracles need not override it. Oracles that can answer a
    /// whole batch more efficiently than query-at-a-time — the pooled
    /// process oracle multiplexes all its worker pipes from the calling
    /// thread, and an in-process Earley oracle (`GrammarOracle` in
    /// `glade-targets`) shares one chart across queries with common
    /// prefixes — override this *and* [`Oracle::native_batching`], which is
    /// how the query engine decides to hand them whole miss sets instead
    /// of fanning single queries out across engine threads.
    ///
    /// Implementations must uphold the determinism contract per input and
    /// must return exactly `inputs.len()` answers.
    fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        inputs.iter().map(|i| self.accepts_checked(i)).collect()
    }

    /// Whether [`Oracle::accepts_batch_checked`] has a native batched
    /// implementation that the query engine should route whole miss sets
    /// to (from one calling thread), instead of dispatching queries
    /// one-at-a-time across its own worker threads.
    ///
    /// A native batcher runs on the session's thread, in sub-batches of up
    /// to 1024 misses, and
    /// [`GladeBuilder::worker_threads`](crate::GladeBuilder::worker_threads)
    /// does not apply to it: the batch is only worth having whole (a pool
    /// keeps every worker process busy from one thread; an in-process
    /// batcher reuses work between neighbouring queries, which splitting
    /// the batch across threads would lose, along with the thread spawns
    /// and cold per-thread state that would cost more than it saves).
    ///
    /// Defaults to `false`. Wrappers forward the inner oracle's answer.
    fn native_batching(&self) -> bool {
        false
    }

    /// Number of queries (so far, across the oracle's lifetime and every
    /// caller) that failed to *execute* — the verdict could not be obtained
    /// and `accepts` answered a degraded `false`. In-process oracles never
    /// fail; process oracles count spawn and I/O errors here. A run's own
    /// share is the `None` answers it got back
    /// ([`SynthesisStats::oracle_failures`](crate::SynthesisStats::oracle_failures)).
    fn failure_count(&self) -> usize {
        0
    }

    /// Installs (`Some`) or clears (`None`) a per-query deadline on oracles
    /// that support one. No engine code calls it: whoever builds an oracle
    /// sets its deadline ([`ProcessOracle::timeout`],
    /// [`PooledProcessOracle::query_timeout`]). [`ProcessOracle`] and
    /// [`PooledProcessOracle`] honor it (see the module docs), in-process
    /// oracles ignore it (the default is a no-op — a predicate cannot hang
    /// the engine the way a wedged child process can). Wrappers forward to
    /// the inner oracle.
    fn configure_timeout(&self, _timeout: Option<Duration>) {}

    /// Number of queries (across the oracle's lifetime and every caller)
    /// whose deadline expired — a hung worker or child was killed before
    /// answering. Every timed-out query is also retried/degraded through
    /// the ordinary failure machinery; timeouts are counted so hangs are
    /// distinguishable from crashes in run statistics
    /// ([`SynthesisStats::timed_out_queries`](crate::SynthesisStats::timed_out_queries)).
    fn timed_out_count(&self) -> usize {
        0
    }

    /// Number of times (across the oracle's lifetime) a worker slot's
    /// circuit breaker tripped open after consecutive spawn-or-crash
    /// failures (see the module docs of `oracle` for the state machine).
    fn tripped_worker_count(&self) -> usize {
        0
    }

    /// Number of times a tripped worker slot recovered: its half-open
    /// probe spawn succeeded and the slot closed again.
    fn recovered_worker_count(&self) -> usize {
        0
    }
}

macro_rules! forward_oracle_impl {
    ($ty:ty) => {
        impl<O: Oracle + ?Sized> Oracle for $ty {
            fn accepts(&self, input: &[u8]) -> bool {
                (**self).accepts(input)
            }

            fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
                (**self).accepts_checked(input)
            }

            fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
                (**self).accepts_batch_checked(inputs)
            }

            fn native_batching(&self) -> bool {
                (**self).native_batching()
            }

            fn failure_count(&self) -> usize {
                (**self).failure_count()
            }

            fn configure_timeout(&self, timeout: Option<Duration>) {
                (**self).configure_timeout(timeout)
            }

            fn timed_out_count(&self) -> usize {
                (**self).timed_out_count()
            }

            fn tripped_worker_count(&self) -> usize {
                (**self).tripped_worker_count()
            }

            fn recovered_worker_count(&self) -> usize {
                (**self).recovered_worker_count()
            }
        }
    };
}

forward_oracle_impl!(&O);
forward_oracle_impl!(Box<O>);
forward_oracle_impl!(Arc<O>);

/// An oracle backed by a predicate function.
///
/// The predicate must be `Sync` (shared by query worker threads); any pure
/// function qualifies. Use atomics rather than `Cell`/`RefCell` for
/// instrumentation state inside test predicates.
///
/// # Examples
///
/// ```
/// use glade_core::{FnOracle, Oracle};
///
/// let oracle = FnOracle::new(|input: &[u8]| input.iter().all(u8::is_ascii_lowercase));
/// assert!(oracle.accepts(b"abc"));
/// assert!(!oracle.accepts(b"aBc"));
/// ```
#[derive(Debug, Clone)]
pub struct FnOracle<F> {
    f: F,
}

impl<F: Fn(&[u8]) -> bool + Send + Sync> FnOracle<F> {
    /// Wraps predicate `f`.
    pub fn new(f: F) -> Self {
        FnOracle { f }
    }
}

impl<F: Fn(&[u8]) -> bool + Send + Sync> Oracle for FnOracle<F> {
    fn accepts(&self, input: &[u8]) -> bool {
        (self.f)(input)
    }
}

/// How a [`ProcessOracle`] delivers the candidate input to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputMode {
    /// Write the input to the child's stdin.
    Stdin,
    /// Write the input to a temporary file and substitute its path for the
    /// `{}` placeholder in the argument list.
    TempFile,
}

/// Process-wide counter distinguishing concurrent temp files. The previous
/// scheme (`input.as_ptr() ^ input.len()`) collided for identical-length
/// inputs whose buffers reused an address — guaranteed corruption once
/// queries run in parallel.
static TEMP_FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Spawns an external program per membership query.
///
/// The input is judged valid when the process exits with status zero —
/// mirroring the paper's blackbox setup. Use [`ProcessOracle::require_empty_stderr`]
/// for programs that signal parse errors on stderr but still exit 0.
///
/// Execution failures (the program cannot be spawned, the temp file cannot
/// be written, waiting on the child fails) answer `false` and increment
/// [`Oracle::failure_count`]; a nonzero exit status is a *verdict*, not a
/// failure. For hot loops against a real target, prefer
/// [`PooledProcessOracle`], which pays the spawn once per worker instead of
/// once per query.
///
/// # Concurrency
///
/// `ProcessOracle` is `Sync` and may be queried from many worker threads at
/// once. Because validity is read from the *exit status*, each query
/// inherently needs its own child process; a persistent in-process worker
/// would change the oracle's semantics (that is what the explicit worker
/// protocol of [`PooledProcessOracle`] is for). The engine bounds how many
/// queries run at once: it calls the oracle from at most `worker_threads`
/// threads. Clones share the same failure and timeout counters.
///
/// # Examples
///
/// ```no_run
/// use glade_core::{InputMode, Oracle, ProcessOracle};
///
/// // Validate XML by exit status of `xmllint --noout <file>`.
/// let oracle = ProcessOracle::new("xmllint")
///     .arg("--noout")
///     .arg("{}")
///     .input_mode(InputMode::TempFile);
/// let _ = oracle.accepts(b"<a>hi</a>");
/// ```
#[derive(Debug, Clone)]
pub struct ProcessOracle {
    program: PathBuf,
    args: Vec<String>,
    input_mode: InputMode,
    require_empty_stderr: bool,
    /// Shared by clones so a fanned-out run reports one total.
    failures: Arc<AtomicUsize>,
    /// Per-query deadline in nanoseconds (`0` = wait forever). Shared by
    /// clones so [`Oracle::configure_timeout`] reaches every handle.
    timeout_nanos: Arc<AtomicU64>,
    /// Children killed on deadline expiry (shared by clones).
    timeouts: Arc<AtomicUsize>,
}

impl ProcessOracle {
    /// Creates an oracle that runs `program`, feeding inputs on stdin.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        ProcessOracle {
            program: program.into(),
            args: Vec::new(),
            input_mode: InputMode::Stdin,
            require_empty_stderr: false,
            failures: Arc::new(AtomicUsize::new(0)),
            timeout_nanos: Arc::new(AtomicU64::new(0)),
            timeouts: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Appends a command-line argument. The placeholder `{}` is replaced by
    /// the temporary input file path when [`InputMode::TempFile`] is used.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Selects how the input reaches the program.
    pub fn input_mode(mut self, mode: InputMode) -> Self {
        self.input_mode = mode;
        self
    }

    /// Additionally requires stderr to be empty for an input to count as
    /// valid (the paper's "does not print an error message" criterion).
    pub fn require_empty_stderr(mut self, yes: bool) -> Self {
        self.require_empty_stderr = yes;
        self
    }

    /// Sets a per-query deadline: a child still running after `limit` is
    /// killed, reaped, and counted as a timeout
    /// ([`Oracle::timed_out_count`]) plus an execution failure (no verdict
    /// was obtained — never a silent `false`). Unix only; on other hosts
    /// the deadline is recorded but the wait stays unbounded. Shared by
    /// clones; equivalent to [`Oracle::configure_timeout`].
    pub fn timeout(self, limit: Duration) -> Self {
        self.configure_timeout(Some(limit));
        self
    }

    /// A stable fingerprint of the oracle's identity — the program path,
    /// arguments, input mode, and stderr policy — for tagging persisted
    /// query-cache snapshots (see
    /// [`GladeBuilder::oracle_fingerprint`](crate::GladeBuilder::oracle_fingerprint)
    /// and `persist.rs`). Verdicts are facts
    /// about one target: replaying a snapshot against a different program
    /// silently corrupts synthesis, and the fingerprint lets `load_cache`
    /// reject that.
    pub fn fingerprint(&self) -> String {
        let mode = match self.input_mode {
            InputMode::Stdin => "stdin",
            InputMode::TempFile => "tempfile",
        };
        format!(
            "process:{}:{}:{}:{}",
            self.program.display(),
            self.args.join("\u{1f}"),
            mode,
            if self.require_empty_stderr { "empty-stderr" } else { "any-stderr" },
        )
    }

    fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(any(target_os = "linux", target_os = "macos"))]
    fn timeout_duration(&self) -> Option<Duration> {
        let nanos = self.timeout_nanos.load(Ordering::Relaxed);
        (nanos > 0).then(|| Duration::from_nanos(nanos))
    }

    /// Timed replacement for `Child::wait_with_output`: polls `try_wait`
    /// while draining stderr nonblockingly (a chatty child must not
    /// deadlock against a full pipe while we only watch its exit), and
    /// kills the child when `limit` expires — counting the timeout and
    /// returning `None` so the caller records an execution failure rather
    /// than inventing a verdict.
    #[cfg(any(target_os = "linux", target_os = "macos"))]
    fn wait_with_deadline(&self, mut child: Child, limit: Duration) -> Option<(bool, Vec<u8>)> {
        fn drain(err: &mut Option<std::process::ChildStderr>, buf: &mut Vec<u8>) {
            let mut chunk = [0u8; 4096];
            if let Some(e) = err {
                loop {
                    match e.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        Err(ioe) if ioe.kind() == std::io::ErrorKind::Interrupted => continue,
                        // WouldBlock (nothing buffered yet) or a torn pipe.
                        Err(_) => break,
                    }
                }
            }
        }

        let deadline = Instant::now() + limit;
        let mut stderr = child.stderr.take();
        if let Some(err) = &stderr {
            if sys::set_nonblocking(err.as_fd()).is_err() {
                // Unreadable stderr: judge by exit status alone.
                stderr = None;
            }
        }
        let mut err_buf = Vec::new();
        loop {
            drain(&mut stderr, &mut err_buf);
            match child.try_wait() {
                Ok(Some(status)) => {
                    // Catch bytes written between the drain and the exit.
                    drain(&mut stderr, &mut err_buf);
                    return Some((status.success(), err_buf));
                }
                Ok(None) => {}
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return None;
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                count_health(&self.timeouts, 1, |h| &mut h.timeouts);
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
            std::thread::sleep(left.min(Duration::from_millis(2)));
        }
    }
}

impl Oracle for ProcessOracle {
    fn accepts(&self, input: &[u8]) -> bool {
        self.accepts_checked(input).unwrap_or(false)
    }

    fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
        let run = |cmd: &mut Command, stdin_payload: Option<&[u8]>| -> Option<(bool, Vec<u8>)> {
            cmd.stdout(Stdio::null()).stderr(Stdio::piped());
            cmd.stdin(if stdin_payload.is_some() { Stdio::piped() } else { Stdio::null() });
            let mut child = cmd.spawn().ok()?;
            if let Some(payload) = stdin_payload {
                // Ignore broken pipes: the program may legitimately stop
                // reading after detecting an error.
                let _ = child.stdin.take().expect("piped stdin").write_all(payload);
            }
            #[cfg(any(target_os = "linux", target_os = "macos"))]
            if let Some(limit) = self.timeout_duration() {
                return self.wait_with_deadline(child, limit);
            }
            let out = child.wait_with_output().ok()?;
            Some((out.status.success(), out.stderr))
        };

        let result = match self.input_mode {
            InputMode::Stdin => {
                let mut cmd = Command::new(&self.program);
                cmd.args(&self.args);
                run(&mut cmd, Some(input))
            }
            InputMode::TempFile => {
                let path = std::env::temp_dir().join(format!(
                    "glade-oracle-{}-{}.in",
                    std::process::id(),
                    TEMP_FILE_COUNTER.fetch_add(1, Ordering::Relaxed),
                ));
                if std::fs::write(&path, input).is_err() {
                    self.record_failure();
                    return None;
                }
                let mut cmd = Command::new(&self.program);
                for a in &self.args {
                    if a == "{}" {
                        cmd.arg(&path);
                    } else {
                        cmd.arg(a);
                    }
                }
                let r = run(&mut cmd, None);
                let _ = std::fs::remove_file(&path);
                r
            }
        };
        match result {
            Some((ok, stderr)) => Some(ok && (!self.require_empty_stderr || stderr.is_empty())),
            None => {
                // Spawn or wait failed: no verdict was obtained.
                self.record_failure();
                None
            }
        }
    }

    fn failure_count(&self) -> usize {
        self.failures.load(Ordering::Relaxed)
    }

    fn configure_timeout(&self, timeout: Option<Duration>) {
        let nanos = timeout.map_or(0, |t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX));
        self.timeout_nanos.store(nanos, Ordering::Relaxed);
    }

    fn timed_out_count(&self) -> usize {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// Serves the pooled worker protocol on this process's stdin/stdout,
/// answering each request with `f`.
///
/// This is the reusable wrapper that turns any `fn(&[u8]) -> bool` target
/// into a [`PooledProcessOracle`] worker: call it from a binary's `main`
/// and point the oracle at that binary. The loop acknowledges the oracle's
/// spawn-time handshake, then answers batch frames (see the module docs
/// for the wire format), and returns `Ok(())` on a clean EOF between
/// frames — which is how the pool shuts workers down.
///
/// Anything the target prints to stdout would corrupt the protocol, so
/// route target diagnostics to stderr.
///
/// # Errors
///
/// Returns the first I/O error encountered on the protocol streams (a
/// missing handshake, a truncated request, a malformed batch frame, a
/// closed pipe mid-response). Binaries typically exit nonzero on `Err`,
/// which the pool observes as a worker crash — this is the fail-closed
/// half of the protocol's failure semantics.
pub fn serve_oracle_worker<F: FnMut(&[u8]) -> bool>(mut f: F) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = BufReader::new(stdin.lock());
    let mut output = stdout.lock();
    if !wire::accept_handshake(&mut input, &mut output)? {
        return Ok(());
    }
    // One batch frame in, one run of verdict bytes out. Verdicts are
    // buffered and written once per frame — that is the whole point of
    // batching (two syscalls per frame, not per query).
    let mut verdicts = Vec::new();
    loop {
        let Some(count) = wire::read_frame_prefix(&mut input)? else { return Ok(()) };
        let queries = wire::decode_batch_frame_after_count(count, &mut input)?;
        verdicts.clear();
        verdicts.extend(queries.iter().map(|q| u8::from(f(q))));
        output.write_all(&verdicts)?;
        output.flush()?;
    }
}

/// A read or write on a nonblocking pipe that must wait for `poll(2)`
/// readiness and be retried, as opposed to a real failure.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn must_wait(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted)
}

/// One long-lived protocol-speaking child process. Both pipes are
/// nonblocking from spawn to drop: every exchange waits in `poll(2)`.
#[cfg(any(target_os = "linux", target_os = "macos"))]
#[derive(Debug)]
struct PooledWorker {
    child: Child,
    /// `Some` for the worker's whole life; taken (closed) only on drop,
    /// which is the protocol's clean-shutdown signal.
    stdin: Option<ChildStdin>,
    stdout: ChildStdout,
    /// Pool slot this worker occupies (indexes `PoolState::slots`).
    slot: usize,
    /// Whether this worker ever answered a query. A crash *after* an
    /// answer restarts the breaker's strike streak at 1 instead of
    /// extending it — only consecutive unanswered failures walk a slot
    /// toward tripping.
    answered: bool,
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl PooledWorker {
    /// Runs the spawn-time handshake and classifies the one response byte,
    /// waiting in `poll(2)` for at most `timeout` in all (`None` waits
    /// forever). Any I/O failure, an expired deadline, or another byte
    /// than [`wire::WIRE_V2_ACK`] is an error — the caller treats the
    /// worker as dead on arrival.
    fn handshake(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let frame = wire::handshake_frame();
        let stdin = self.stdin.as_mut().expect("stdin open until drop");
        let mut written = 0;
        let mut ack = [0u8; 1];
        loop {
            let (fd, events) = if written < frame.len() {
                match stdin.write(&frame[written..]) {
                    Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                    Ok(k) => {
                        written += k;
                        continue;
                    }
                    Err(e) if must_wait(&e) => (stdin.as_raw_fd(), sys::POLLOUT),
                    Err(e) => return Err(e),
                }
            } else {
                match self.stdout.read(&mut ack) {
                    Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                    Ok(_) => break,
                    Err(e) if must_wait(&e) => (self.stdout.as_raw_fd(), sys::POLLIN),
                    Err(e) => return Err(e),
                }
            };
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "worker blew the handshake deadline",
                ));
            }
            sys::poll_ready(&mut [sys::PollFd { fd, events, revents: 0 }], left)?;
        }
        match ack[0] {
            wire::WIRE_V2_ACK => Ok(()),
            0 | 1 => Err(std::io::Error::other(
                "worker answered the handshake with a verdict byte: it speaks only the \
                 retired v1 single-query protocol",
            )),
            b => Err(std::io::Error::other(format!("bad handshake response byte {b:#04x}"))),
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl Drop for PooledWorker {
    fn drop(&mut self) {
        // Closing stdin is the protocol's clean-exit signal: a conforming
        // worker sees EOF between requests and returns, running whatever
        // cleanup its target needs. Give it a short grace period before
        // the hard kill + wait that guarantees no zombie survives a crash
        // path (or a worker that ignores EOF).
        drop(self.stdin.take());
        for _ in 0..10 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Respawn-backoff and circuit-breaker bookkeeping for one worker slot
/// (see the module-level state machine).
#[cfg(any(target_os = "linux", target_os = "macos"))]
#[derive(Debug, Clone, Default)]
struct SlotHealth {
    /// Consecutive spawn-or-crash failures without an answered query.
    strikes: u32,
    /// Earliest instant a spawn may be attempted in this slot again:
    /// backoff expiry while closed, cool-down expiry while open. `None`
    /// means spawning is allowed now.
    open_after: Option<Instant>,
    /// Breaker state: `true` = open (spawns blocked until `open_after`,
    /// after which one checkout becomes the half-open probe).
    tripped: bool,
    /// How many times this slot's breaker has tripped (drives the
    /// cool-down growth across re-trips).
    trips: u32,
    /// A live worker (idle or checked out) currently occupies this slot.
    occupied: bool,
}

/// Idle workers plus the count of live (idle or checked-out) workers.
#[cfg(any(target_os = "linux", target_os = "macos"))]
#[derive(Debug, Default)]
struct PoolState {
    idle: Vec<PooledWorker>,
    live: usize,
    /// Per-slot breaker state, indexed by `PooledWorker::slot`; grown
    /// lazily to the pool size.
    slots: Vec<SlotHealth>,
    /// Tickets of the blocked [`PooledProcessOracle::checkout`] calls, in
    /// arrival order. Only the front ticket may take a worker, and
    /// [`PooledProcessOracle::try_checkout`] takes none while any wait.
    waiters: VecDeque<u64>,
    next_ticket: u64,
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl PoolState {
    fn health(&mut self, slot: usize) -> &mut SlotHealth {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, SlotHealth::default());
        }
        &mut self.slots[slot]
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[derive(Debug)]
struct PoolInner {
    program: PathBuf,
    args: Vec<String>,
    size: usize,
    /// Queries per batch frame in the dispatcher.
    frame_batch: usize,
    state: Mutex<PoolState>,
    available: Condvar,
    /// Queries for which no real verdict could be obtained (degraded
    /// `false` answers). Excludes queries rescued by the fallback oracle.
    failures: AtomicUsize,
    /// Workers replaced after a crash (diagnostic, not a failure count).
    respawns: AtomicUsize,
    /// Per-query deadline in nanoseconds (`0` = wait forever); see
    /// [`PooledProcessOracle::query_timeout`].
    timeout_nanos: AtomicU64,
    /// Consecutive unanswered spawn-or-crash failures that trip a slot's
    /// circuit breaker.
    max_respawns: u32,
    /// Base delay of the exponential respawn backoff.
    backoff_base: Duration,
    /// Queries abandoned because a worker blew the deadline (the worker
    /// was killed; each query then took the ordinary crash path).
    timeouts: AtomicUsize,
    /// Breaker trips across the pool's lifetime (monotone).
    trips: AtomicUsize,
    /// Half-open probes that revived a tripped slot (monotone).
    recoveries: AtomicUsize,
    fallback: Option<ProcessOracle>,
}

/// A membership oracle backed by a pool of persistent worker processes.
///
/// Where [`ProcessOracle`] pays `spawn + wait` per query, this oracle keeps
/// up to `pool_size` long-lived children of `program` and poses each query
/// over a pipe using the length-prefixed protocol documented at the module
/// level — the same amortization persistent test executors and AFL's
/// forkserver use. The target program must speak the protocol; wrap any
/// in-process predicate with [`serve_oracle_worker`] to get a conforming
/// worker binary.
///
/// Workers are spawned lazily and checked out exclusively per call, so
/// the pool bounds process concurrency at its size. Every call — a single query or
/// a batch — runs one `poll(2)` dispatcher loop over the checked-out
/// workers' nonblocking pipes; a single query is its one-query case. A
/// crashed or hung worker is reaped and replaced, and each query it held
/// is retried once on the replacement. A query still without a verdict
/// is settled query by query: in a batch it gets one isolated one-query
/// run of its own (fresh worker, one more retry); a single query falls
/// back to a spawn-per-query [`ProcessOracle`] when one was configured
/// with [`PooledProcessOracle::fallback`], and otherwise answers `false`
/// and increments [`Oracle::failure_count`].
///
/// Unix only (Linux and macOS), like the serve daemon: the dispatcher
/// needs `poll(2)` and nonblocking pipes to enforce its deadlines.
/// [`ProcessOracle`] and [`serve_oracle_worker`] stay portable.
///
/// Clones share the pool, its workers, and its counters.
///
/// # Examples
///
/// ```no_run
/// use glade_core::{Oracle, PooledProcessOracle};
///
/// // `my-worker` loops over glade_core::serve_oracle_worker(my_predicate).
/// let oracle = PooledProcessOracle::new("my-worker").pool_size(8);
/// assert!(oracle.accepts(b"<a>hi</a>") || true);
/// ```
#[cfg(any(target_os = "linux", target_os = "macos"))]
#[derive(Debug, Clone)]
pub struct PooledProcessOracle {
    inner: Arc<PoolInner>,
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl PooledProcessOracle {
    /// Creates a pool that runs `program` as its worker command, with a
    /// single worker. Use [`PooledProcessOracle::pool_size`] to widen.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        PooledProcessOracle {
            inner: Arc::new(PoolInner {
                program: program.into(),
                args: Vec::new(),
                size: 1,
                frame_batch: DEFAULT_FRAME_BATCH,
                state: Mutex::new(PoolState::default()),
                available: Condvar::new(),
                failures: AtomicUsize::new(0),
                respawns: AtomicUsize::new(0),
                timeout_nanos: AtomicU64::new(0),
                max_respawns: DEFAULT_MAX_RESPAWNS,
                backoff_base: DEFAULT_BACKOFF_BASE,
                timeouts: AtomicUsize::new(0),
                trips: AtomicUsize::new(0),
                recoveries: AtomicUsize::new(0),
                fallback: None,
            }),
        }
    }

    fn inner_mut(&mut self) -> &mut PoolInner {
        Arc::get_mut(&mut self.inner)
            .expect("PooledProcessOracle builders must run before the pool is cloned or used")
    }

    /// Appends a command-line argument passed to every worker process.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.inner_mut().args.push(arg.into());
        self
    }

    /// Sets the maximum number of concurrent worker processes (must be
    /// nonzero). Workers are spawned lazily up to this bound.
    pub fn pool_size(mut self, n: usize) -> Self {
        assert!(n > 0, "pool_size requires at least one worker");
        self.inner_mut().size = n;
        self
    }

    /// Sets the number of queries packed into one batch frame by the
    /// dispatcher (must be in `1..=`[`wire::MAX_FRAME_QUERIES`]).
    /// Larger frames amortize more syscall round-trips but delay the first
    /// verdicts of a batch; the default of 32 is a good trade for
    /// millisecond-or-faster targets. Affects throughput only, never
    /// verdicts — grammar bytes and query counts are invariant across
    /// frame batch sizes.
    pub fn frame_batch(mut self, n: usize) -> Self {
        assert!(
            (1..=wire::MAX_FRAME_QUERIES).contains(&n),
            "frame_batch must be in 1..={}",
            wire::MAX_FRAME_QUERIES
        );
        self.inner_mut().frame_batch = n;
        self
    }

    /// Installs a spawn-per-query fallback used when the pooled path cannot
    /// produce a verdict (worker respawn keeps failing — e.g. the binary
    /// disappeared or the system is out of pids). Queries answered by the
    /// fallback are real verdicts and are not counted as failures.
    pub fn fallback(mut self, oracle: ProcessOracle) -> Self {
        self.inner_mut().fallback = Some(oracle);
        self
    }

    /// Bounds every pooled query with a per-query deadline. A worker that
    /// has not produced its next verdict byte within `limit` (measured
    /// from its first owed query being posed, then from its previous
    /// verdict byte) is hung: it is killed and reaped, the timeout is
    /// counted in [`Oracle::timed_out_count`], and its in-flight queries
    /// take the ordinary crash path (retry once, then fallback rescue or
    /// a counted failure — never a silent `false`). The spawn handshake
    /// gets the same limit. Unset
    /// (the default) waits forever. Runtime-configurable on a live pool
    /// via [`Oracle::configure_timeout`]. Affects liveness only, never
    /// verdicts.
    pub fn query_timeout(self, limit: Duration) -> Self {
        self.configure_timeout(Some(limit));
        self
    }

    /// Sets how many consecutive unanswered spawn-or-crash failures trip
    /// a worker slot's circuit breaker (must be nonzero; default 4). See
    /// the module docs for the full backoff/breaker state machine.
    pub fn max_respawns(mut self, k: u32) -> Self {
        assert!(k > 0, "max_respawns requires at least one attempt");
        self.inner_mut().max_respawns = k;
        self
    }

    /// Sets the base delay of the exponential respawn backoff (default
    /// 10ms). The breaker cool-down scales from the same base. Mostly for
    /// tests that need fast breaker transitions.
    pub fn respawn_backoff(mut self, base: Duration) -> Self {
        self.inner_mut().backoff_base = base;
        self
    }

    fn query_timeout_duration(&self) -> Option<Duration> {
        let nanos = self.inner.timeout_nanos.load(Ordering::Relaxed);
        (nanos > 0).then(|| Duration::from_nanos(nanos))
    }

    /// Number of respawns across the pool's lifetime. A respawn is a
    /// reaped worker (crashed, hung past its deadline, or broken off the
    /// protocol) that still had work to replace it for: a query not yet
    /// retried, or nothing in flight at all (it died between queries).
    /// Counted once per reaped worker, whether or not its replacement
    /// spawns. A worker reaped holding only queries that had already
    /// used their retry is not a respawn: it takes a breaker strike and
    /// its slot is released.
    pub fn respawn_count(&self) -> usize {
        self.inner.respawns.load(Ordering::Relaxed)
    }

    /// A stable fingerprint of the worker command (program + arguments) for
    /// tagging persisted cache snapshots; see [`ProcessOracle::fingerprint`].
    /// The pool size is deliberately excluded — it affects throughput, not
    /// verdicts.
    pub fn fingerprint(&self) -> String {
        format!("pooled:{}:{}", self.inner.program.display(), self.inner.args.join("\u{1f}"))
    }

    fn spawn_worker(&self, slot: usize) -> std::io::Result<PooledWorker> {
        let mut child = Command::new(&self.inner.program)
            .args(&self.inner.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        // Built before the pipes go nonblocking, so a failing `fcntl`
        // drops (and so reaps) the child. The pipes stay nonblocking for
        // the worker's whole life.
        let mut worker = PooledWorker { child, stdin: Some(stdin), stdout, slot, answered: false };
        sys::set_nonblocking(worker.stdin.as_ref().expect("stdin open until drop").as_fd())?;
        sys::set_nonblocking(worker.stdout.as_fd())?;
        // A worker that cannot complete the handshake is dead on arrival:
        // report it as a spawn failure so the callers' degradation paths
        // (fallback oracle, breaker, failure counting) apply. The handshake
        // honors the query deadline too — a worker hung at hello is as dead
        // as one hung mid-query.
        worker.handshake(self.query_timeout_duration())?;
        Ok(worker)
    }

    /// Exponential respawn backoff for strike `strikes` in `slot`: nothing
    /// for the first strike, then `base · 2^(strikes−2)` (shift capped)
    /// plus a deterministic per-(slot, strike) jitter ≤ `base/4` so the
    /// slots of a crashing pool do not respawn in lockstep.
    fn backoff_delay(&self, slot: usize, strikes: u32) -> Option<Duration> {
        retry_backoff_delay(self.inner.backoff_base, slot as u64, strikes)
    }

    /// Breaker cool-down before the `trips`-th open slot half-opens:
    /// `base · 50 · 2^(trips−1)` (growth capped), at most one minute.
    fn trip_cooldown(&self, trips: u32) -> Duration {
        let exp = trips.saturating_sub(1).min(5);
        self.inner.backoff_base.saturating_mul(50 << exp).min(Duration::from_secs(60))
    }

    /// Records one spawn-or-crash strike against `slot` (pool lock held by
    /// the caller): advances the strike streak, schedules the backoff, and
    /// trips (or re-trips) the breaker at `max_respawns` strikes.
    fn record_strike(&self, state: &mut PoolState, slot: usize, answered: bool) {
        let k = self.inner.max_respawns;
        let h = state.health(slot);
        h.strikes = if answered { 1 } else { h.strikes.saturating_add(1) };
        if h.tripped || h.strikes >= k {
            // Fresh trip, or a failed half-open probe re-tripping with a
            // longer cool-down.
            h.tripped = true;
            h.trips = h.trips.saturating_add(1);
            let trips = h.trips;
            state.health(slot).open_after = Some(Instant::now() + self.trip_cooldown(trips));
            count_health(&self.inner.trips, 1, |h| &mut h.trips);
        } else {
            let delay = self.backoff_delay(slot, h.strikes);
            state.health(slot).open_after = delay.map(|d| Instant::now() + d);
        }
    }

    /// Records a strike against `slot` while keeping it occupied (the
    /// caller is about to retry in place). Returns `true` when the slot
    /// may not spawn right now — breaker open or backoff pending — in
    /// which case the caller must release the slot and degrade instead of
    /// retrying.
    fn strike_in_place(&self, slot: usize, answered: bool) -> bool {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        self.record_strike(&mut state, slot, answered);
        let h = state.health(slot);
        h.tripped || h.open_after.is_some_and(|t| t > Instant::now())
    }

    /// Records a strike against `slot` and gives the live slot up (the
    /// worker died and is not being replaced here, or a spawn failed).
    fn strike_and_release(&self, slot: usize, answered: bool) {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        state.live -= 1;
        self.record_strike(&mut state, slot, answered);
        state.health(slot).occupied = false;
        drop(state);
        self.inner.available.notify_all();
    }

    /// A half-open probe spawned successfully: close the slot's breaker
    /// and count the recovery. The strike streak is deliberately *not*
    /// reset — only an answered query ([`PooledProcessOracle::checkin`])
    /// does that, so a spawn-then-crash-before-answering loop still trips.
    fn note_recovery(&self, slot: usize) {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        let h = state.health(slot);
        h.tripped = false;
        h.open_after = None;
        drop(state);
        count_health(&self.inner.recoveries, 1, |h| &mut h.recoveries);
    }

    /// Checks a worker out of the pool, spawning one lazily into a
    /// spawnable slot (backoff elapsed, breaker closed — or open past its
    /// cool-down, which makes this checkout the half-open probe). `block`
    /// waits out a fully-busy pool and pending backoffs; nonblocking
    /// callers get `None` instead. Returns `None` when no worker can be
    /// produced — needed spawns failed, or every idle slot's breaker is
    /// open (queries then degrade to the fallback rather than sleeping
    /// out a cool-down).
    ///
    /// Blocking callers are served first in, first out: each takes a
    /// ticket and only the oldest waiting ticket may take a worker, while
    /// a nonblocking caller takes none as long as anyone waits. So callers
    /// sharing one pool alternate at worker hand-offs: a caller that
    /// checks a worker in and at once asks for one again queues behind
    /// those already waiting.
    fn checkout_inner(&self, block: bool) -> Option<PooledWorker> {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        if !block && !state.waiters.is_empty() {
            return None;
        }
        let ticket = state.next_ticket;
        if block {
            state.next_ticket += 1;
            state.waiters.push_back(ticket);
        }
        // Leaves the queue: the next ticket becomes the front.
        let leave = |state: &mut PoolState| {
            if block {
                state.waiters.pop_front();
                self.inner.available.notify_all();
            }
        };
        loop {
            if block && state.waiters.front() != Some(&ticket) {
                state = self.inner.available.wait(state).expect("pool poisoned");
                continue;
            }
            if let Some(w) = state.idle.pop() {
                leave(&mut state);
                return Some(w);
            }
            if state.live >= self.inner.size {
                if !block {
                    return None;
                }
                state = self.inner.available.wait(state).expect("pool poisoned");
                continue;
            }
            let now = Instant::now();
            let candidate = (0..self.inner.size).find(|&s| {
                let h = state.health(s);
                !h.occupied && h.open_after.is_none_or(|t| t <= now)
            });
            if let Some(slot) = candidate {
                state.live += 1;
                let h = state.health(slot);
                h.occupied = true;
                let half_open = h.tripped;
                leave(&mut state);
                drop(state);
                match self.spawn_worker(slot) {
                    Ok(w) => {
                        if half_open {
                            self.note_recovery(slot);
                        }
                        return Some(w);
                    }
                    Err(_) => {
                        self.strike_and_release(slot, false);
                        if !block {
                            return None;
                        }
                        // Back to the front: the failed spawn keeps this
                        // caller's place in the queue.
                        state = self.inner.state.lock().expect("pool poisoned");
                        state.waiters.push_front(ticket);
                        continue;
                    }
                }
            }
            // No slot is spawnable right now. Distinguish "worth waiting"
            // (live workers will check back in, or a backoff will elapse)
            // from "degrade now" (no live workers and every idle slot's
            // breaker is open).
            let waitable = (0..self.inner.size).any(|s| {
                let h = state.health(s);
                !h.occupied && !h.tripped
            });
            if state.live == 0 && !waitable {
                leave(&mut state);
                return None;
            }
            if !block {
                return None;
            }
            let earliest = (0..self.inner.size)
                .filter_map(|s| {
                    let h = state.health(s);
                    if h.occupied || h.tripped {
                        None
                    } else {
                        h.open_after
                    }
                })
                .min();
            state = match earliest {
                Some(t) => {
                    let wait =
                        t.saturating_duration_since(Instant::now()).max(Duration::from_millis(1));
                    self.inner.available.wait_timeout(state, wait).expect("pool poisoned").0
                }
                None => self.inner.available.wait(state).expect("pool poisoned"),
            };
        }
    }

    /// Blocking checkout; see [`PooledProcessOracle::checkout_inner`].
    fn checkout(&self) -> Option<PooledWorker> {
        self.checkout_inner(true)
    }

    /// Like [`PooledProcessOracle::checkout`], but never blocks: returns
    /// `None` when every worker is busy, when a blocking checkout is
    /// waiting (it has the first claim), or when a needed spawn fails or
    /// the breakers forbid spawning. The dispatcher uses this to widen its
    /// worker set opportunistically without stalling on, or starving,
    /// other callers of a shared pool.
    fn try_checkout(&self) -> Option<PooledWorker> {
        self.checkout_inner(false)
    }

    /// Returns a healthy worker to the idle set. An answered query is the
    /// breaker's proof of slot health: the strike streak resets here.
    fn checkin(&self, worker: PooledWorker) {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        if worker.answered {
            let h = state.health(worker.slot);
            h.strikes = 0;
            h.open_after = None;
            h.tripped = false;
        }
        state.idle.push(worker);
        drop(state);
        self.inner.available.notify_all();
    }

    /// Gives up a live slot (worker died and was not replaced, or a spawn
    /// failed), waking a waiter so it can try spawning afresh.
    fn release_slot(&self, slot: usize) {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        state.live -= 1;
        state.health(slot).occupied = false;
        drop(state);
        self.inner.available.notify_all();
    }

    /// The pooled path produced no verdict: consult the fallback oracle or
    /// record a failure (`None` — the caller must not cache the answer).
    fn degraded(&self, input: &[u8]) -> Option<bool> {
        match &self.inner.fallback {
            Some(fallback) => fallback.accepts_checked(input),
            None => {
                self.inner.failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The pool's one dispatcher loop (see the module docs): multiplexes
    /// every checked-out worker pipe with `poll(2)` readiness from the
    /// calling thread, keeping each worker saturated with a bounded
    /// in-flight window of batch frames, and reaps, replaces and retries
    /// around crashed and hung workers. Returns one verdict per input, in
    /// input order; `None` marks a query the loop could not answer, which
    /// the caller settles (the loop itself never records a failure).
    fn dispatch(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        let frame_batch = self.inner.frame_batch;
        let timeout = self.query_timeout_duration();
        let mut results: Vec<Option<bool>> = vec![None; inputs.len()];
        let mut retried = vec![false; inputs.len()];
        // An input beyond the frame payload cap cannot be posed over this
        // channel at all: it stays unanswered, before any I/O, rather than
        // punishing (and reaping) a healthy worker.
        let mut pending: VecDeque<usize> =
            (0..inputs.len()).filter(|&i| inputs[i].len() <= wire::MAX_FRAME_BYTES).collect();
        // Queries neither answered nor given up on.
        let mut remaining = pending.len();

        let mut slots: Vec<DispatchSlot> = Vec::new();
        let mut read_buf = [0u8; 8192];
        let mut fds: Vec<sys::PollFd> = Vec::new();
        // Which (slot, direction) each pollfd belongs to; true = write.
        let mut fd_map: Vec<(usize, bool)> = Vec::new();

        while remaining > 0 {
            // Worker acquisition: block for the first worker (an empty
            // worker set cannot make progress), then widen
            // opportunistically while there is more queued work than the
            // current slots' windows can hold.
            if slots.is_empty() {
                // No worker obtainable at all: everything left is the
                // caller's to settle.
                let Some(worker) = self.checkout() else { break };
                slots.push(DispatchSlot::new(worker));
            }
            while !pending.is_empty()
                && slots.len() < self.inner.size
                && slots.len() < pending.len().div_ceil(frame_batch)
            {
                match self.try_checkout() {
                    Some(worker) => slots.push(DispatchSlot::new(worker)),
                    None => break,
                }
            }

            // Fill: top every live slot's in-flight window up from the
            // pending queue with whole batch frames (up to two frames
            // outstanding so the pipe never drains between frames), and
            // write them at once; only a full pipe waits for `POLLOUT`.
            for slot in &mut slots {
                if !slot.wants_write() && !slot.outbuf.is_empty() {
                    slot.outbuf.clear();
                    slot.written = 0;
                }
                while !pending.is_empty() && slot.inflight.len() < frame_batch.saturating_mul(2) {
                    // Assemble one frame's worth of queries, respecting
                    // the frame caps so encoding cannot fail (oversized
                    // single queries were set aside above).
                    let mut frame_queries: Vec<usize> = Vec::new();
                    let mut frame_bytes = 0u64;
                    while frame_queries.len() < frame_batch {
                        let Some(&i) = pending.front() else { break };
                        let len = inputs[i].len() as u64;
                        if !frame_queries.is_empty()
                            && frame_bytes + len > wire::MAX_FRAME_BYTES as u64
                        {
                            break;
                        }
                        pending.pop_front();
                        frame_queries.push(i);
                        frame_bytes += len;
                    }
                    let refs: Vec<&[u8]> = frame_queries.iter().map(|&i| inputs[i]).collect();
                    wire::encode_batch_frame(&refs, &mut slot.outbuf)
                        .expect("frame pre-validated against the protocol caps");
                    slot.inflight.extend(frame_queries);
                }
                if let Some(t) = timeout {
                    if slot.deadline.is_none() && !slot.inflight.is_empty() {
                        // The deadline covers frame delivery too: a worker
                        // hung enough to stop reading stalls the write
                        // side just as hard as one that stops answering.
                        slot.deadline = Some(Instant::now() + t);
                    }
                }
                slot.write_out();
            }

            // Readiness: one pollfd per direction per live slot with work.
            fds.clear();
            fd_map.clear();
            for (si, slot) in slots.iter().enumerate().filter(|(_, s)| !s.dead) {
                if slot.wants_write() {
                    fds.push(sys::PollFd {
                        fd: slot.worker.stdin.as_ref().expect("stdin open until drop").as_raw_fd(),
                        events: sys::POLLOUT,
                        revents: 0,
                    });
                    fd_map.push((si, true));
                }
                if !slot.inflight.is_empty() {
                    fds.push(sys::PollFd {
                        fd: slot.worker.stdout.as_raw_fd(),
                        events: sys::POLLIN,
                        revents: 0,
                    });
                    fd_map.push((si, false));
                }
            }
            // Block until a pipe is ready or the earliest slot deadline
            // passes (`Ok(0)`); a slot that already died goes straight to
            // the crash pass instead. `poll_ready` retries EINTR internally
            // with the remaining time recomputed, so a stray signal never
            // degrades the batch.
            let poll_timeout = if fds.is_empty() || slots.iter().any(|s| s.dead) {
                Some(Duration::ZERO)
            } else {
                slots
                    .iter()
                    .filter_map(|s| s.deadline)
                    .min()
                    .map(|d| d.saturating_duration_since(Instant::now()))
            };
            if sys::poll_ready(&mut fds, poll_timeout).is_err() {
                // poll(2) itself failed (resource exhaustion): no channel
                // is trustworthy; leave whatever is unanswered to the
                // caller.
                for slot in &mut slots {
                    slot.dead = true;
                }
                break;
            }

            // Service ready pipes. Errors and protocol deviations mark
            // the slot dead; the crash pass below deals with them.
            for (fd, &(si, is_write)) in fds.iter().zip(&fd_map) {
                let slot = &mut slots[si];
                if fd.revents == 0 || slot.dead {
                    continue;
                }
                if fd.revents & sys::POLLNVAL != 0 {
                    slot.dead = true;
                } else if is_write {
                    slot.write_out();
                } else if slot.read_verdicts(&mut read_buf, &mut results, &mut remaining) {
                    // Progress is per verdict byte: a slow worker that
                    // keeps answering within the deadline is healthy,
                    // however long the whole frame takes.
                    slot.deadline = if slot.inflight.is_empty() {
                        None
                    } else {
                        timeout.map(|t| Instant::now() + t)
                    };
                }
            }

            // Hang scan: a slot still owing verdicts past its deadline is
            // hung — count its in-flight queries as timeouts, kill the
            // worker, and let the crash pass recover them.
            if timeout.is_some() {
                let now = Instant::now();
                for slot in &mut slots {
                    if !slot.dead
                        && !slot.inflight.is_empty()
                        && slot.deadline.is_some_and(|d| d <= now)
                    {
                        count_health(&self.inner.timeouts, slot.inflight.len(), |h| {
                            &mut h.timeouts
                        });
                        let _ = slot.worker.child.kill();
                        slot.dead = true;
                    }
                }
            }

            // Crash pass: reap dead workers. Each query a dead worker held
            // is retried once, on a replacement spawned into the same pool
            // slot; a query whose retry is used up, or whose slot cannot
            // respawn now, is left to the caller.
            let mut si = 0;
            while si < slots.len() {
                if !slots[si].dead {
                    si += 1;
                    continue;
                }
                let DispatchSlot { worker, inflight, .. } = slots.swap_remove(si);
                let (pool_slot, answered) = (worker.slot, worker.answered);
                drop(worker); // reap
                let held = inflight.len();
                let retry: Vec<usize> = inflight.into_iter().filter(|&i| !retried[i]).collect();
                remaining -= held - retry.len();
                if held > 0 && retry.is_empty() {
                    // Every query it held already had its retry: nothing
                    // is left to replace it for.
                    self.strike_and_release(pool_slot, answered);
                    continue;
                }
                // A worker that died holding nothing (say, it exited right
                // after its last verdict) is still a respawn: the next
                // query would have found it dead.
                self.inner.respawns.fetch_add(1, Ordering::Relaxed);
                if self.strike_in_place(pool_slot, answered) {
                    // Breaker open or backoff pending: give the slot up
                    // rather than spawning into it; its queries are the
                    // caller's to settle.
                    self.release_slot(pool_slot);
                    remaining -= retry.len();
                    continue;
                }
                if retry.is_empty() && pending.is_empty() {
                    self.release_slot(pool_slot);
                    continue;
                }
                match self.spawn_worker(pool_slot) {
                    Ok(fresh) => {
                        for &i in &retry {
                            retried[i] = true;
                        }
                        pending.extend(retry);
                        slots.push(DispatchSlot::new(fresh));
                    }
                    Err(_) => {
                        self.strike_and_release(pool_slot, false);
                        remaining -= retry.len();
                    }
                }
            }
        }

        for slot in slots {
            if slot.dead || !slot.inflight.is_empty() {
                // Only reachable on the poll-failure bailout: reap.
                let pool_slot = slot.worker.slot;
                drop(slot.worker);
                self.release_slot(pool_slot);
            } else {
                self.checkin(slot.worker);
            }
        }
        results
    }
}

/// A checked-out worker inside the dispatcher loop.
#[cfg(any(target_os = "linux", target_os = "macos"))]
struct DispatchSlot {
    worker: PooledWorker,
    /// Encoded-but-not-fully-written frame bytes.
    outbuf: Vec<u8>,
    written: usize,
    /// Query indices whose verdict bytes are still owed, in frame order
    /// (this includes queries whose frame is still in `outbuf`).
    inflight: VecDeque<usize>,
    /// Set when the worker deviates from the protocol; the crash pass
    /// reaps it and retries its in-flight queries.
    dead: bool,
    /// When the worker's next verdict byte is due: armed as queries enter
    /// an empty in-flight window, re-armed on every verdict byte, cleared
    /// when the window drains. `None` while nothing is owed or no
    /// [`PooledProcessOracle::query_timeout`] is configured.
    deadline: Option<Instant>,
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl DispatchSlot {
    fn new(worker: PooledWorker) -> Self {
        DispatchSlot {
            worker,
            outbuf: Vec::new(),
            written: 0,
            inflight: VecDeque::new(),
            dead: false,
            deadline: None,
        }
    }

    fn wants_write(&self) -> bool {
        self.written < self.outbuf.len()
    }

    /// Writes as much of the encoded frames as the pipe takes now. A full
    /// pipe leaves the rest for `POLLOUT`; any other failure marks the
    /// slot dead.
    fn write_out(&mut self) {
        while self.wants_write() {
            let stdin = self.worker.stdin.as_mut().expect("stdin open until drop");
            match stdin.write(&self.outbuf[self.written..]) {
                Ok(k) if k > 0 => self.written += k,
                Err(e) if must_wait(&e) => return,
                _ => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads every verdict byte the worker has written so far — until the
    /// pipe would block, or to EOF, which marks the slot dead even with
    /// nothing in flight — and settles the owed queries in frame order.
    /// An illegal verdict byte, or a byte nobody asked for, marks the slot
    /// dead with the query still owed. Returns whether a verdict landed.
    fn read_verdicts(
        &mut self,
        buf: &mut [u8],
        results: &mut [Option<bool>],
        remaining: &mut usize,
    ) -> bool {
        let mut advanced = false;
        while !self.dead {
            match self.worker.stdout.read(buf) {
                Ok(0) => self.dead = true,
                Ok(got) => {
                    for &b in &buf[..got] {
                        match (self.inflight.front(), b) {
                            (Some(&i), 0 | 1) => {
                                self.inflight.pop_front();
                                results[i] = Some(b == 1);
                                *remaining -= 1;
                                advanced = true;
                            }
                            _ => {
                                self.dead = true;
                                break;
                            }
                        }
                    }
                }
                Err(e) if must_wait(&e) => break,
                Err(_) => self.dead = true,
            }
        }
        self.worker.answered |= advanced;
        advanced
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl Oracle for PooledProcessOracle {
    fn accepts(&self, input: &[u8]) -> bool {
        self.accepts_checked(input).unwrap_or(false)
    }

    /// The dispatcher loop's one-query case; a query it cannot answer
    /// degrades to the fallback or a counted failure.
    fn accepts_checked(&self, input: &[u8]) -> Option<bool> {
        self.dispatch(&[input])[0].or_else(|| self.degraded(input))
    }

    /// The dispatcher loop over the whole batch. Each query it could not
    /// answer is then settled through [`Oracle::accepts_checked`] on its
    /// own: a crashing worker tears whole frames, so a query can use up
    /// its one retry without being at fault, and the isolated one-query
    /// run (with its own fresh-worker retry) keeps it from degrading.
    fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        if let [input] = inputs {
            return vec![self.accepts_checked(input)];
        }
        let mut results = self.dispatch(inputs);
        for (result, input) in results.iter_mut().zip(inputs) {
            if result.is_none() {
                *result = self.accepts_checked(input);
            }
        }
        results
    }

    fn native_batching(&self) -> bool {
        true
    }

    fn failure_count(&self) -> usize {
        self.inner.failures.load(Ordering::Relaxed)
            + self.inner.fallback.as_ref().map_or(0, Oracle::failure_count)
    }

    fn configure_timeout(&self, timeout: Option<Duration>) {
        let nanos = timeout.map_or(0, |t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX));
        self.inner.timeout_nanos.store(nanos, Ordering::Relaxed);
        // The fallback rescues queries the pooled path abandoned; it needs
        // the same hang protection or a hung target would stall the rescue.
        if let Some(fallback) = &self.inner.fallback {
            fallback.configure_timeout(timeout);
        }
    }

    fn timed_out_count(&self) -> usize {
        self.inner.timeouts.load(Ordering::Relaxed)
            + self.inner.fallback.as_ref().map_or(0, Oracle::timed_out_count)
    }

    fn tripped_worker_count(&self) -> usize {
        self.inner.trips.load(Ordering::Relaxed)
    }

    fn recovered_worker_count(&self) -> usize {
        self.inner.recoveries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_oracle_delegates() {
        let o = FnOracle::new(|i: &[u8]| i.starts_with(b"ok"));
        assert!(o.accepts(b"okay"));
        assert!(!o.accepts(b"nope"));
        assert_eq!(o.failure_count(), 0, "in-process oracles never fail");
    }

    #[test]
    fn oracle_by_reference_works() {
        fn takes_oracle(o: &dyn Oracle) -> bool {
            o.accepts(b"y")
        }
        let o = FnOracle::new(|i: &[u8]| i == b"y");
        assert!(takes_oracle(&o));
        // The blanket &O impl also composes.
        let r = &o;
        assert!(r.accepts(b"y"));
    }

    #[test]
    fn oracle_impls_are_send_sync() {
        fn assert_oracle<T: Oracle + Send + Sync>() {}
        assert_oracle::<FnOracle<fn(&[u8]) -> bool>>();
        assert_oracle::<ProcessOracle>();
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        assert_oracle::<PooledProcessOracle>();
        assert_oracle::<Box<dyn Oracle>>();
        assert_oracle::<Arc<dyn Oracle>>();
        assert_oracle::<&dyn Oracle>();
    }

    #[cfg(unix)]
    #[test]
    fn process_oracle_stdin_true_false() {
        // `grep -q x` exits 0 iff stdin contains an "x".
        let o = ProcessOracle::new("grep").arg("-q").arg("x");
        assert!(o.accepts(b"axb"));
        assert!(!o.accepts(b"abc"));
        assert_eq!(o.failure_count(), 0, "nonzero exit is a verdict, not a failure");
    }

    #[cfg(unix)]
    #[test]
    fn process_oracle_tempfile_mode() {
        // `grep -q pat FILE` with the file substituted for {}.
        let o = ProcessOracle::new("grep")
            .arg("-q")
            .arg("needle")
            .arg("{}")
            .input_mode(InputMode::TempFile);
        assert!(o.accepts(b"hay needle stack"));
        assert!(!o.accepts(b"just hay"));
    }

    #[cfg(unix)]
    #[test]
    fn process_oracle_tempfile_concurrent_queries_do_not_collide() {
        // Identical-length inputs hammered from many threads: under the old
        // pointer-based temp naming these raced on the same file.
        let o = ProcessOracle::new("grep")
            .arg("-q")
            .arg("needle")
            .arg("{}")
            .input_mode(InputMode::TempFile);
        std::thread::scope(|s| {
            for t in 0..8 {
                let o = &o;
                s.spawn(move || {
                    for _ in 0..5 {
                        if t % 2 == 0 {
                            assert!(o.accepts(b"needle--"), "thread {t}");
                        } else {
                            assert!(!o.accepts(b"haystack"), "thread {t}");
                        }
                    }
                });
            }
        });
    }

    #[cfg(unix)]
    #[test]
    fn process_oracle_missing_program_rejects_and_counts_failure() {
        let o = ProcessOracle::new("/nonexistent/program/glade");
        assert!(!o.accepts(b"anything"));
        assert_eq!(o.failure_count(), 1);
        // Clones share the counter.
        let clone = o.clone();
        assert!(!clone.accepts(b"again"));
        assert_eq!(o.failure_count(), 2);
    }

    #[cfg(any(target_os = "linux", target_os = "macos"))]
    #[test]
    fn pooled_oracle_missing_program_degrades_and_counts() {
        let o = PooledProcessOracle::new("/nonexistent/program/glade-worker");
        assert!(!o.accepts(b"anything"));
        assert!(!o.accepts(b"more"));
        assert_eq!(o.failure_count(), 2, "no verdict could be obtained");
        assert_eq!(o.respawn_count(), 0, "nothing ever lived to crash");
    }

    #[cfg(any(target_os = "linux", target_os = "macos"))]
    #[test]
    fn pooled_oracle_missing_program_uses_fallback() {
        // Pooled spawn always fails; the spawn-per-query fallback (grep on
        // stdin) still produces real verdicts and no failure is recorded.
        let o = PooledProcessOracle::new("/nonexistent/program/glade-worker")
            .fallback(ProcessOracle::new("grep").arg("-q").arg("x"));
        assert!(o.accepts(b"axb"));
        assert!(!o.accepts(b"abc"));
        assert_eq!(o.failure_count(), 0, "fallback verdicts are real");
    }

    #[cfg(any(target_os = "linux", target_os = "macos"))]
    #[test]
    fn handshake_refuses_a_v1_only_worker_by_name() {
        // The shell worker reads the 20 handshake bytes and answers a
        // verdict byte, as a single-query worker would: dead on arrival.
        let o = PooledProcessOracle::new("sh")
            .arg("-c")
            .arg("head -c 20 >/dev/null; printf '\\001'; cat >/dev/null");
        let err = o.spawn_worker(0).expect_err("refused at spawn");
        assert!(err.to_string().contains("v1 single-query protocol"), "{err}");
    }

    /// A blocked `checkout` gets the next released worker: before a
    /// `try_checkout`, before the releasing caller's own next `checkout`,
    /// and in arrival order among waiters.
    #[cfg(any(target_os = "linux", target_os = "macos"))]
    #[test]
    fn blocked_checkouts_take_released_workers_first_in_first_out() {
        // Answers the handshake, then idles until stdin closes.
        let pool = PooledProcessOracle::new("sh")
            .arg("-c")
            .arg("head -c 20 >/dev/null; printf '\\002'; cat >/dev/null");
        let waiting = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while pool.inner.state.lock().unwrap().waiters.len() < n {
                assert!(Instant::now() < deadline, "checkout never queued");
                std::thread::yield_now();
            }
        };
        let order = Mutex::new(Vec::new());
        let held = pool.checkout().expect("spawn the only worker");
        std::thread::scope(|s| {
            for (queued, name) in ["first waiter", "second waiter"].into_iter().enumerate() {
                let (pool, order) = (&pool, &order);
                s.spawn(move || {
                    let worker = pool.checkout().expect("handed over");
                    order.lock().unwrap().push(name);
                    pool.checkin(worker);
                });
                waiting(queued + 1);
            }
            pool.checkin(held);
            let worker = pool.checkout().expect("worker comes back");
            order.lock().unwrap().push("releaser");
            pool.checkin(worker);
        });
        assert_eq!(*order.lock().unwrap(), ["first waiter", "second waiter", "releaser"]);

        // An idle worker stays put for a queued checkout that has not woken
        // up yet.
        pool.inner.state.lock().unwrap().waiters.push_back(u64::MAX);
        assert!(pool.try_checkout().is_none(), "a waiting checkout comes first");
        pool.inner.state.lock().unwrap().waiters.clear();
        assert!(pool.try_checkout().is_some(), "nobody waits any more");
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_configuration() {
        let a = ProcessOracle::new("prog").arg("-x").arg("{}").input_mode(InputMode::TempFile);
        let b = ProcessOracle::new("prog").arg("-x").arg("{}").input_mode(InputMode::TempFile);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), ProcessOracle::new("prog").arg("-y").fingerprint());
        assert_ne!(a.fingerprint(), ProcessOracle::new("other").fingerprint());
    }

    #[cfg(any(target_os = "linux", target_os = "macos"))]
    #[test]
    fn pooled_fingerprints_are_stable_and_distinguish_configuration() {
        let a = ProcessOracle::new("prog").arg("-x").arg("{}").input_mode(InputMode::TempFile);
        let p = PooledProcessOracle::new("prog").arg("-x");
        assert_eq!(p.fingerprint(), PooledProcessOracle::new("prog").arg("-x").fingerprint());
        assert_ne!(p.fingerprint(), a.fingerprint(), "pooled and spawn modes are distinct");
        // Pool size affects throughput only, never verdicts.
        assert_eq!(
            p.fingerprint(),
            PooledProcessOracle::new("prog").arg("-x").pool_size(7).fingerprint()
        );
    }
}
