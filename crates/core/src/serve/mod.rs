//! `glade serve` — a multi-tenant synthesis service over the session API.
//!
//! The engine of this crate serves exactly one caller per process; this
//! module turns it into a long-running daemon that multiplexes many
//! concurrent synthesis campaigns over one (or a few) shared oracles. A
//! [`Server`] listens on a unix socket, each connected client opens a
//! *campaign* naming an oracle, streams seed batches (incremental
//! [`Session::add_seeds`](crate::Session::add_seeds)), receives live
//! [`SynthEvent`](crate::SynthEvent) frames plus the final grammar, and can
//! cancel mid-run. [`ServeClient`] is the matching in-process client.
//!
//! # Architecture
//!
//! One **accept loop** thread owns every socket (nonblocking fds driven by
//! the same `poll(2)` discipline as the pooled oracle's batched
//! dispatcher); it never blocks on a client or a campaign. Each open
//! campaign runs on its own **campaign thread** driving a private
//! [`Session`](crate::Session); commands flow accept-loop → campaign over
//! an mpsc channel, and events/results flow back over a shared outbound
//! channel plus a wake pipe that interrupts the poll sleep. A campaign
//! starts after its `OPEN_ACK` is flushed, on a campaign thread left
//! waiting by an earlier campaign when there is one (at most two wait),
//! else on a new thread. The client sends `HELLO` without waiting for its
//! answer, which it reads with the answer to `OPEN`: a campaign opens in
//! one round trip. Campaigns
//! named by the same oracle spec share one oracle instance (e.g. one
//! [`PooledProcessOracle`](crate::PooledProcessOracle) worker pool) and
//! call it concurrently, each from its own thread (see **sharing an
//! oracle** below).
//!
//! # Wire format (`glade-serve v2`)
//!
//! Every frame, both directions, is a `u32` little-endian payload length
//! followed by the payload; the payload's first byte is the frame tag and
//! the rest is the tag-specific body (the same length-prefix discipline as
//! the [`wire`](crate::wire) worker protocol). Client tags:
//!
//! | tag | name | body |
//! |---|---|---|
//! | `0x01` | `HELLO` | the literal bytes `glade-serve v2` (see versioning below) |
//! | `0x02` | `OPEN` | UTF-8 option lines, see below |
//! | `0x03` | `SEEDS` | `u32` LE seed count, then per seed a `u32` LE length and the seed bytes (the [`wire`](crate::wire) batch body; a zero count is a legal empty re-synthesis batch) |
//! | `0x04` | `CANCEL` | empty |
//! | `0x05` | `CLOSE` | empty |
//! | `0x06` | `RESUME` | `u32` LE campaign id of an interrupted campaign (v2) |
//!
//! Server tags:
//!
//! | tag | name | body |
//! |---|---|---|
//! | `0x81` | `HELLO_ACK` | echo of the client's `HELLO` banner |
//! | `0x82` | `OPEN_ACK` | `u32` LE campaign id, then the oracle fingerprint (UTF-8) |
//! | `0x83` | `EVENT` | one [`SynthEvent`](crate::SynthEvent) wire line (UTF-8, no newline) |
//! | `0x84` | `RESULT` | `u32` LE stats length, then the stats text, then the grammar text (UTF-8) |
//! | `0x85` | `ERROR` | UTF-8 message |
//!
//! A session is: `HELLO`/`HELLO_ACK`, one `OPEN`/`OPEN_ACK` (or one
//! `RESUME`/`OPEN_ACK`), then any number of `SEEDS` requests, each
//! answered by zero or more `EVENT` frames followed by exactly one
//! `RESULT` (or one `ERROR` for a rejected request, e.g. a seed the oracle
//! rejects — the campaign stays usable). `OPEN` bodies are
//! newline-separated `key value` lines: `oracle <spec>` (required; the
//! spec's meaning is up to the server's [`OracleFactory`]), and optional
//! `max-queries <n>`, `events off`, `cache on`. Unknown option lines
//! (including the retired `memo off`) and unknown event tags are skipped,
//! and unknown *frame*
//! tags are answered with `ERROR` — a peer never wedges on a newer peer's
//! traffic.
//!
//! **Versioning.** The banner names the one protocol version the server
//! speaks, `glade-serve v2` (v1 had no `RESUME` frame). A `HELLO` with
//! any other banner, the retired `glade-serve v1` included, is answered
//! with an `unsupported protocol version` `ERROR` and the connection is
//! closed.
//!
//! # Campaign journal and restart resume
//!
//! When [`ServeConfig::cache_dir`] is set the server keeps an append-only
//! **campaign journal** (`serve.journal` in the cache dir, format
//! `glade-journal v1`) recording, per campaign: the `OPEN` request (`o`
//! record, written before the campaign thread exists), every accepted
//! seed batch (`s` record, written at `SEEDS` *receipt*, before the batch
//! runs), each completed batch (`c` checkpoint record with the
//! unique-query count, written by the campaign thread after the cache
//! snapshot is durably saved), and clean closure (`x` record). Every
//! append is a single `write(2)` followed by `fdatasync`; a torn trailing
//! record (crash mid-append) is ignored on replay, and a malformed record
//! stops the parse keeping the valid prefix — journal recovery never
//! fails startup. An `n` record persists the campaign-id high-water mark
//! so ids are never reused across restarts, and startup compacts the
//! journal (rewrites live state durably) so it does not grow without
//! bound.
//!
//! On startup the server replays the journal: campaigns with an `o` but
//! no `x` become **resumable**. A v2 client claims one with
//! `RESUME <id>`; the server re-resolves the oracle, replays the
//! journaled seed batches in order through
//! [`Session::add_seeds`](crate::Session::add_seeds) over the warm
//! per-fingerprint persistent cache, and answers with the final `RESULT`.
//! Because batch construction is cache-state-driven, the resumed grammar
//! is **byte-identical** to an uninterrupted run, and every check already
//! answered before the crash is a cache hit — a fully-checkpointed
//! campaign re-pays zero unique oracle queries. A claim removes the
//! campaign from the resumable set (a second `RESUME` gets an `ERROR`);
//! if the oracle fails to resolve, the claim is returned.
//!
//! # Graceful drain
//!
//! The accept loop runs a three-state machine: **serving** → **draining**
//! → **stopped**. Cancelling the drain token ([`ServerHandle::drain`], or
//! the first `SIGTERM`/`SIGINT` in the CLI via [`install_drain_signals`])
//! moves serving → draining: the listener stops accepting, new
//! `OPEN`/`RESUME` frames get `ERROR "server is draining"`, and running
//! campaigns continue. The loop exits when every connection is idle
//! (nothing buffered, nothing pending) or after
//! [`ServeConfig::drain_timeout`]; campaigns still running at the
//! deadline are preempted along the engine's fail-closed
//! [`CancelToken`](crate::CancelToken) path (their journal entries stay
//! open, so they are resumable after restart). Cancelling the shutdown
//! token (second signal in the CLI) hard-stops from either state. On the
//! way out the server cancels and joins every campaign thread and unlinks
//! its socket file.
//!
//! # Slow readers and backpressure
//!
//! Events for each connection pass through a bounded queue
//! ([`ServeConfig::max_event_buffer`]) before serialization, and move into
//! the socket buffer only while the reader keeps up. Query tallies
//! ([`SynthEvent::QueryBatch`](crate::SynthEvent::QueryBatch)) each count
//! one batch, so they add up: a campaign sends them summed, at most every
//! 50 ms between lifecycle events and always before the next lifecycle
//! event and before the batch's `RESULT`/`ERROR`, and consecutive tallies
//! still queued for a slow reader merge into their sum. The totals a
//! reader sees stay exact; lifecycle events are never coalesced, and keep
//! their order and latency. A reader stuck past the bound is
//! *demoted* to result-only: queued events drop, the campaign thread is
//! never blocked, and an `events-dropped <n>` event is delivered before
//! the next `RESULT` so the client knows its stream has a gap. `RESULT`
//! and `ERROR` frames are never dropped.
//!
//! # Sharing an oracle
//!
//! Each campaign's session calls the shared oracle directly, from the
//! campaign's own thread only (it runs with one worker thread): a natively
//! batching oracle gets whole miss sets in bounded sub-batches of up to
//! 1024 queries, any other oracle one query at a time. Campaigns call the
//! oracle at the same time, and nothing in the server serializes them. An
//! in-process oracle answers each campaign on that campaign's thread. A
//! [`PooledProcessOracle`](crate::PooledProcessOracle) shares its workers:
//! a call that finds every worker busy waits for one, waiting calls get
//! released workers first in, first out, and a call only widens onto extra
//! idle workers while no other call waits. So a tenant streaming large
//! sub-batches cannot starve another one, and a lone tenant still keeps
//! every worker busy.
//!
//! Like any run, a campaign counts only its own calls' oracle health (see
//! [`Oracle`](crate::Oracle)): one tenant's faults never show in another's
//! statistics, and the tenants' counts add up to the shared oracle's.
//!
//! # Budgets, preemption, and determinism
//!
//! Per-tenant query budgets (`max-queries`, or the server-wide default in
//! [`ServeConfig`]) and cancellation ride the engine's existing fail-closed
//! paths: once a campaign's budget is exhausted or its `CANCEL` frame (or
//! disconnect) flips the run's
//! [`CancelToken`](crate::CancelToken), its remaining checks answer
//! `false` without reaching the shared oracle, the degraded grammar still
//! contains every seed, and *other* tenants are untouched — their query
//! streams, counters, and grammar bytes are identical to running alone.
//! With no time limit and no cancellation the service is deterministic: a
//! grammar synthesized through the server is byte-identical to the same
//! seeds run through a local [`Session`](crate::Session), including under
//! concurrent tenants, because batch construction is cache-state-driven
//! and sharing an oracle only decides *when* a sub-batch runs, never
//! *what* is in it.
//!
//! Per-campaign caches persist across server restarts when
//! [`ServeConfig::cache_dir`] is set and the client opts in (`cache on`):
//! snapshots are namespaced by oracle fingerprint (hashed into the file
//! name, and validated again on load by the snapshot header), so a cache
//! can never replay verdicts from a different oracle. Snapshot saves are
//! crash-safe: bytes are written to a temp file, fsync'd, renamed over
//! the live snapshot, and the directory entry fsync'd.
//!
//! # Ops runbook
//!
//! * **Start:** `glade serve --socket PATH --cache-dir DIR`. The cache
//!   dir holds per-fingerprint cache snapshots (`<hash>.glade-cache`) and
//!   the campaign journal (`serve.journal`). Without `--cache-dir` there
//!   is no journal and nothing is resumable.
//! * **Stop (graceful):** send one `SIGTERM` (or `SIGINT`/ctrl-C). The
//!   server drains: running campaigns finish or checkpoint within
//!   `--drain-timeout` (default 10s), caches save, the socket unlinks.
//! * **Stop (hard):** send a second signal. In-flight campaigns are
//!   preempted fail-closed; their journal entries stay open.
//! * **Crash recovery:** restart with the same `--cache-dir`. The log
//!   line `N resumable campaign(s)` lists interrupted ids; clients
//!   re-attach with `glade client --resume <id>` and receive the same
//!   grammar bytes the uninterrupted run would have produced, re-paying
//!   ~zero unique oracle queries.
//! * **Stuck clients** cannot wedge the server: slow readers are demoted
//!   to result-only, and a disconnected client's campaign is preempted
//!   (and resumable after restart, if journaled).

mod client;
mod journal;
mod protocol;
mod server;

pub use client::{CancelHandle, RunOutcome, ServeClient};
pub use protocol::{OpenRequest, ProtocolError, SERVE_PROTOCOL};
pub use server::{
    drain_signal_count, install_drain_signals, OracleFactory, ServeConfig, Server, ServerHandle,
};
