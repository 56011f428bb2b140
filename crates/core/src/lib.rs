//! GLADE: synthesizing program input grammars from examples and blackbox
//! membership queries.
//!
//! This crate is a from-scratch reproduction of the synthesis algorithm of
//! *Bastani, Sharma, Aiken, Liang. "Synthesizing Program Input Grammars",
//! PLDI 2017*. Given a handful of seed inputs and an [`Oracle`] answering
//! "is this input valid?", the engine produces a context-free grammar
//! approximating the program's input language:
//!
//! 1. **Phase one** (Section 4) generalizes each seed into a regular
//!    expression by greedily proposing repetition and alternation
//!    decompositions, validated by context-wrapped membership checks.
//! 2. **Character generalization** (Section 6.2) widens literal bytes into
//!    byte classes.
//! 3. **Phase two** (Section 5) merges repetition subexpressions whose
//!    cross-substitution checks pass, introducing the recursive productions
//!    (matching-parentheses structure) that regular expressions cannot
//!    express.
//!
//! The output [`Synthesis`] carries the final [`glade_grammar::Grammar`],
//! the intermediate regular expression, and detailed [`SynthesisStats`].
//!
//! # The session API
//!
//! Synthesis is driven through a [`Session`], configured by the fluent
//! [`GladeBuilder`]. A session ties one oracle to one long-lived
//! membership-query cache and makes runs:
//!
//! * **Incremental** — [`Session::add_seeds`] extends the grammar with new
//!   seeds without re-deriving earlier seeds' trees, and produces exactly
//!   the grammar a fresh run on the combined seed set would.
//! * **Observable** — a [`SynthesisObserver`] receives [`SynthEvent`]s for
//!   phase boundaries, per-seed decisions, accepted merges, and every
//!   query batch ([`EventLog`] is a ready-made collector).
//! * **Cancellable** — a [`CancelToken`] stops a runaway run between query
//!   batches; like budget exhaustion, cancellation fails closed and the
//!   degraded grammar still contains every seed.
//! * **Warm-startable** — [`Session::save_cache`]/[`Session::load_cache`]
//!   snapshot the query cache in the indexed `glade-cachebin v1` format
//!   (see [`CacheSnapshot`]), so repeated runs against the same target
//!   stop re-paying oracle calls.
//! * **Query-frugal** — character generalization and phase two plan their
//!   checks through a query-reduction layer that memoizes learned byte
//!   classes across identical terminals, short-circuits per-context
//!   probes, dedups byte-identical checks within a batch, and prunes
//!   provably-redundant merge checks — every elision is exact, so the
//!   grammar is byte-identical to posing every check
//!   ([`SynthesisStats::probes_elided`] counts the savings). The memo
//!   table rides along in cache snapshots.
//!
//! # Quick start
//!
//! ```
//! use glade_core::{FnOracle, GladeBuilder};
//! use glade_grammar::{Earley, Sampler};
//!
//! // A toy target language: balanced square brackets.
//! fn balanced(input: &[u8]) -> bool {
//!     let mut depth = 0i64;
//!     for &b in input {
//!         match b {
//!             b'[' => depth += 1,
//!             b']' => depth -= 1,
//!             _ => return false,
//!         }
//!         if depth < 0 {
//!             return false;
//!         }
//!     }
//!     depth == 0
//! }
//!
//! // A seed with one level of nesting lets phase two discover recursion.
//! let oracle = FnOracle::new(balanced);
//! let mut session = GladeBuilder::new().session(&oracle);
//! let result = session.add_seeds(&[b"[[]]".to_vec()])?;
//! assert!(Earley::new(&result.grammar).accepts(b"[[]][]"));
//! assert!(Earley::new(&result.grammar).accepts(b"[[[[]]]]"));
//!
//! // More seeds later extend the same grammar (and reuse every cached
//! // membership verdict); the grammar immediately drives a fuzzer:
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let input = Sampler::new(&result.grammar).sample(&mut rng).unwrap();
//! assert!(balanced(&input));
//! # Ok::<(), glade_core::SynthesisError>(())
//! ```
//!
//! # Oracle thread-safety contract
//!
//! Membership queries dominate GLADE's cost, so the query layer is built
//! for concurrency: phase two's pairwise merge checks and character
//! generalization's byte probes are aggregated into one batch and fanned
//! out across a scoped worker pool, where an idle worker takes the next
//! query. The session thread owns the query cache and every counter, and
//! worker threads only call the oracle, so the query path takes no lock.
//! For real process targets,
//! [`PooledProcessOracle`] amortizes the per-query process spawn across a
//! pool of persistent protocol-speaking workers (see
//! [`serve_oracle_worker`]) — and oracles that multiplex whole batches
//! natively ([`Oracle::native_batching`], which the pool implements with
//! an event-driven `poll(2)` dispatcher over batched [`wire`] frames) are
//! handed entire miss sets at once instead of a query per engine thread.
//! All of this places two obligations on every [`Oracle`] implementation:
//!
//! 1. **`Send + Sync`** — the trait requires it. One oracle value is
//!    shared by reference across worker threads and queried concurrently.
//!    Wrap mutable instrumentation state in atomics or locks, never in
//!    `Cell`/`RefCell`.
//! 2. **Determinism** — repeated queries for the same input must return
//!    the same verdict, across threads and across time. The synthesis
//!    algorithm's monotonicity argument depends on it, a cache keeps the
//!    first verdict it records for an input (harmless only when verdicts
//!    agree), and cache snapshots replay old verdicts into later runs.
//!
//! Given a deterministic oracle, no `time_limit`, and no cancellation,
//! synthesis is deterministic and *independent of the worker count*
//! ([`GladeBuilder::worker_threads`]): batches are constructed identically
//! in every mode, only the verdicts are computed concurrently, and all
//! merge/widening decisions are applied sequentially in a fixed order.
//! The query-reduction layer preserves this: staged waves are planned from
//! the (deterministically evolving) cache and memo state alone, so which
//! checks are elided — and the resulting grammar — is identical across
//! worker counts, pool sizes, and frame batch sizes.
//! With a `time_limit` (or a [`CancelToken`] trip), which queries beat the
//! cutoff depends on wall-clock speed — and therefore on the machine and
//! the worker count — so degraded runs keep the safety guarantees
//! (fail-closed, seeds preserved) but not byte-for-byte reproducibility.

#![warn(missing_docs)]

mod arena;
mod cache;
mod chargen;
mod events;
mod fault;
mod memo;
mod oracle;
mod persist;
mod phase1;
mod phase2;
#[cfg(test)]
mod reference;
mod runner;
#[cfg(any(target_os = "linux", target_os = "macos"))]
pub mod serve;
mod session;
mod synth;
pub mod testing;
mod tree;
pub mod wire;

pub use events::{CancelToken, EventLog, SynthEvent, SynthPhase, SynthesisObserver};
pub use fault::{flaky_spawn_should_die, serve_faulty_worker, FaultPlan, FaultyOracle};
#[cfg(any(target_os = "linux", target_os = "macos"))]
pub use oracle::PooledProcessOracle;
pub use oracle::{serve_oracle_worker, FnOracle, InputMode, Oracle, ProcessOracle};
pub use persist::{
    snapshot_from_binary, snapshot_from_binary_reader, snapshot_to_binary, BinaryCacheFile,
    CacheError, CacheSnapshot, MemoEntry,
};
pub use session::{GladeBuilder, Session};
pub use synth::{GladeConfig, Synthesis, SynthesisError, SynthesisStats};
