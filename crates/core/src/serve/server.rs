//! The `glade serve` daemon: accept loop, tenant state, campaign threads.
//!
//! See the [module docs](super) for the architecture and wire format. The
//! accept loop here is the only code that touches client sockets; it is
//! single-threaded and never blocks on a peer (nonblocking fds multiplexed
//! with `poll(2)`, the same discipline as the pooled oracle's batched
//! dispatcher). Campaigns run on their own threads and communicate with
//! the loop through channels plus a wake pipe.

use super::fnv1a64;
use super::journal::{Journal, JournaledCampaign};
use super::protocol::{
    decode_resume, decode_seeds_body, drain_frames, encode_frame, encode_open_ack, encode_result,
    OpenRequest, SERVE_PROTOCOL, TAG_CANCEL, TAG_CLOSE, TAG_ERROR, TAG_EVENT, TAG_HELLO,
    TAG_HELLO_ACK, TAG_OPEN, TAG_OPEN_ACK, TAG_RESULT, TAG_RESUME, TAG_SEEDS,
};
use crate::events::{CancelToken, SynthEvent, SynthesisObserver};
use crate::oracle::{sys, Oracle};
use crate::session::{GladeBuilder, Session};
use crate::synth::SynthesisStats;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Creates the oracle behind a campaign's `oracle <spec>` line.
///
/// The factory decides what specs mean; the bundled CLI accepts
/// `target:<name>` (an in-process built-in) and `cmd:<command line>` (a
/// [`PooledProcessOracle`](crate::PooledProcessOracle) worker command).
/// On success it returns the shared oracle plus its *fingerprint* — the
/// stable identity string used to namespace persistent caches and to
/// validate cache snapshots (see
/// [`GladeBuilder::oracle_fingerprint`](crate::GladeBuilder::oracle_fingerprint)).
///
/// Campaigns naming the same spec share one oracle instance (and its
/// worker pool) and call it concurrently, each from its own campaign
/// thread, so the oracle must honour the ordinary [`Oracle`]
/// thread-safety contract; the server adds no locking of its own. A
/// [`PooledProcessOracle`](crate::PooledProcessOracle) hands its workers
/// to waiting campaigns first in, first out.
pub trait OracleFactory: Send + Sync {
    /// Creates (or fails to create) the oracle for `spec`.
    fn create(&self, spec: &str) -> Result<(Arc<dyn Oracle>, String), String>;
}

impl<F> OracleFactory for F
where
    F: Fn(&str) -> Result<(Arc<dyn Oracle>, String), String> + Send + Sync,
{
    fn create(&self, spec: &str) -> Result<(Arc<dyn Oracle>, String), String> {
        self(spec)
    }
}

/// How long a draining server waits for running campaigns before giving
/// up and cancelling them (overridable via [`ServeConfig::drain_timeout`]).
pub(crate) const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Default bound on a connection's queued outbound events (overridable
/// via [`ServeConfig::max_event_buffer`]).
pub(crate) const DEFAULT_MAX_EVENT_BUFFER: usize = 4096;

/// Soft cap on a connection's serialized output buffer: queued events move
/// from the bounded event queue into the byte buffer only while it is
/// below this, so a stalled reader backs events up into the (bounded,
/// coalescing) queue instead of an unbounded byte buffer.
const OUTBUF_SOFT_CAP: usize = 1 << 16;

/// Server-wide policy knobs.
///
/// None of them configures or schedules an oracle: the [`OracleFactory`]
/// builds each shared oracle with its settings (a per-query deadline
/// included), campaigns sharing an oracle call it concurrently, and a
/// shared pool hands its workers to waiting campaigns first in, first out
/// (see the [module docs](super)).
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Directory for per-campaign persistent query caches, namespaced by
    /// oracle fingerprint, and for the campaign journal that makes open
    /// campaigns survive a restart. `None` disables persistence (and
    /// journaling) even for campaigns that request `cache on`.
    pub cache_dir: Option<PathBuf>,
    /// Default per-run distinct-query budget for campaigns that do not set
    /// `max-queries` themselves.
    pub default_max_queries: Option<usize>,
    /// How long a drain (first SIGTERM/SIGINT, or
    /// [`ServerHandle::drain`]) waits for running campaigns to finish and
    /// checkpoint before cancelling them. `None` means
    /// 10 seconds.
    pub drain_timeout: Option<Duration>,
    /// Bound on a connection's queued outbound events. A reader that falls
    /// further behind than this is demoted to result-only delivery (see
    /// the [module docs](super) on backpressure). `None` means 4096;
    /// `Some(0)` demotes every connection immediately (result-only
    /// service).
    pub max_event_buffer: Option<usize>,
}

/// What a campaign thread sends back to the accept loop.
enum Outbound {
    Event(SynthEvent),
    Result { stats: SynthesisStats, grammar: String },
    Error(String),
}

/// Bounded, coalescing queue of outbound events for one connection.
///
/// Consecutive query tallies (see [`SynthEvent::is_query_tally`]) merge:
/// a newly arriving tally is added into a queued one, so a slow reader
/// sees fewer tallies with the same totals. Lifecycle events are never
/// coalesced. If the queue still overflows `cap`, the connection is
/// *demoted*: everything queued is discarded, future events are dropped on
/// arrival, and the reader only receives `RESULT`/`ERROR` frames plus one
/// [`SynthEvent::EventsDropped`] notice before each result. Demotion is
/// sticky for the connection — a reader that stalled once has proven it
/// cannot keep up, and flapping between live and demoted would make the
/// stream's gaps unpredictable.
struct EventQueue {
    queue: VecDeque<SynthEvent>,
    cap: usize,
    demoted: bool,
    dropped: usize,
}

impl EventQueue {
    fn new(cap: usize) -> Self {
        EventQueue { queue: VecDeque::new(), cap, demoted: false, dropped: 0 }
    }

    fn push(&mut self, event: SynthEvent) {
        if self.demoted {
            self.dropped += 1;
            return;
        }
        if self.queue.back_mut().is_some_and(|back| back.absorb_tally(&event)) {
            return;
        }
        if self.queue.len() >= self.cap {
            self.dropped += self.queue.len() + 1;
            self.queue.clear();
            self.demoted = true;
            return;
        }
        self.queue.push_back(event);
    }

    fn pop(&mut self) -> Option<SynthEvent> {
        self.queue.pop_front()
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Takes (and resets) the count of events lost to demotion.
    fn take_dropped(&mut self) -> usize {
        std::mem::take(&mut self.dropped)
    }
}

/// Where a campaign's events and answers go: its connection's slot on the
/// accept loop's outbound channel, plus the wake pipe that ends the loop's
/// poll sleep.
#[derive(Clone)]
struct Outlet {
    conn: u64,
    tx: mpsc::Sender<(u64, Outbound)>,
    wake: Arc<UnixStream>,
}

impl Outlet {
    /// Queues `outbound` without waking the loop, for a message the
    /// caller's next [`send`](Outlet::send) follows at once.
    fn post(&self, outbound: Outbound) -> bool {
        self.tx.send((self.conn, outbound)).is_ok()
    }

    /// Queues `outbound` and wakes the loop; `false` once the loop is
    /// gone. The wake never blocks (the pipe is nonblocking); a full pipe
    /// already guarantees a pending wake.
    fn send(&self, outbound: Outbound) -> bool {
        let sent = self.post(outbound);
        let _ = (&*self.wake).write(&[1u8]);
        sent
    }
}

/// Longest a campaign holds back summed query tallies while more arrive.
const TALLY_INTERVAL: Duration = Duration::from_millis(50);

/// Streams a campaign's events to its connection.
///
/// Lifecycle events go out at once, one send and one wake each. Query
/// tallies are summed into one pending tally instead, which goes out just
/// before the next lifecycle event, before the batch's `RESULT`/`ERROR`
/// ([`StreamObserver::flush`]), or with the first tally that arrives
/// [`TALLY_INTERVAL`] after the last one sent. A phase-one wave poses one
/// small batch per candidate, so sending every tally would wake the accept
/// loop and the client once per oracle round trip.
struct StreamObserver {
    outlet: Outlet,
    tally: Mutex<PendingTally>,
}

/// The tallies a [`StreamObserver`] has summed but not sent yet.
struct PendingTally {
    sum: Option<SynthEvent>,
    last_sent: Instant,
}

impl PendingTally {
    /// Takes the summed tally, if any, as the event to send now.
    fn take(&mut self) -> Option<Outbound> {
        let sum = self.sum.take()?;
        self.last_sent = Instant::now();
        Some(Outbound::Event(sum))
    }
}

impl StreamObserver {
    fn new(outlet: Outlet) -> Self {
        let tally = Mutex::new(PendingTally { sum: None, last_sent: Instant::now() });
        StreamObserver { outlet, tally }
    }

    /// Posts the pending tally ahead of a `RESULT`/`ERROR`, which the
    /// caller sends next.
    fn flush(&self) {
        if let Some(sum) = self.tally.lock().expect("pending tally poisoned").take() {
            self.outlet.post(sum);
        }
    }
}

impl SynthesisObserver for StreamObserver {
    fn on_event(&self, event: &SynthEvent) {
        // Sends happen under the lock, so events keep their order.
        let mut pending = self.tally.lock().expect("pending tally poisoned");
        if event.is_query_tally() {
            if !pending.sum.as_mut().is_some_and(|sum| sum.absorb_tally(event)) {
                pending.sum = Some(event.clone());
            }
            if pending.last_sent.elapsed() < TALLY_INTERVAL {
                return;
            }
            if let Some(sum) = pending.take() {
                self.outlet.send(sum);
            }
        } else {
            if let Some(sum) = pending.take() {
                self.outlet.post(sum);
            }
            self.outlet.send(Outbound::Event(event.clone()));
        }
    }
}

/// Accept-loop-side handle to one campaign thread.
struct CampaignSeat {
    cmd_tx: mpsc::Sender<Vec<Vec<u8>>>,
    cancel: CancelToken,
    /// The campaign's stable (journal-visible) id.
    id: u32,
    /// Index the next journaled seed batch gets (counts replayed batches).
    next_batch: usize,
    /// Seed batches forwarded minus results/errors delivered.
    pending: usize,
}

/// One client connection's state in the accept loop.
struct Conn {
    stream: UnixStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Bounded, coalescing buffer between campaign events and `outbuf`.
    events: EventQueue,
    greeted: bool,
    /// `CLOSE` received: stop reading, finish pending runs, flush, drop.
    closing: bool,
    /// Fatal error or EOF: flush what is queued, then drop.
    dead: bool,
    campaign: Option<CampaignSeat>,
    /// Where this connection's campaign sends its events and answers.
    outlet: Outlet,
}

impl Conn {
    fn new(stream: UnixStream, max_event_buffer: usize, outlet: Outlet) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            events: EventQueue::new(max_event_buffer),
            greeted: false,
            closing: false,
            dead: false,
            campaign: None,
            outlet,
        }
    }

    fn queue(&mut self, tag: u8, body: &[u8]) {
        encode_frame(tag, body, &mut self.outbuf);
    }

    /// Moves queued events into `outbuf` while it stays below the soft
    /// cap, so a healthy reader streams live while a stalled one backs
    /// events up into the bounded queue.
    fn pump_events(&mut self) {
        while self.outbuf.len() < OUTBUF_SOFT_CAP {
            let Some(event) = self.events.pop() else { break };
            self.queue(TAG_EVENT, event.to_wire_line().as_bytes());
        }
    }

    /// Flushes *all* queued events ahead of a `RESULT`/`ERROR` frame (the
    /// queue is bounded, so this cannot balloon `outbuf`), and reports a
    /// demoted connection's losses with one `events-dropped` notice.
    fn drain_events_before_result(&mut self) {
        while let Some(event) = self.events.pop() {
            self.queue(TAG_EVENT, event.to_wire_line().as_bytes());
        }
        let dropped = self.events.take_dropped();
        if dropped > 0 {
            let notice = SynthEvent::EventsDropped { dropped };
            self.queue(TAG_EVENT, notice.to_wire_line().as_bytes());
        }
    }

    /// Whether nothing is pending on this connection (drain-mode exit
    /// test): no running batch, nothing buffered, nothing queued.
    fn is_idle(&self) -> bool {
        self.outbuf.is_empty()
            && self.events.is_empty()
            && self.campaign.as_ref().is_none_or(|seat| seat.pending == 0)
    }

    fn fail(&mut self, message: &str) {
        self.queue(TAG_ERROR, message.as_bytes());
        self.dead = true;
    }

    /// Appends newly readable bytes to `inbuf`; `false` means EOF/error.
    fn fill(&mut self) -> bool {
        let mut buf = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Writes as much of `outbuf` as the socket accepts; `false` means the
    /// peer is gone.
    fn flush(&mut self) -> bool {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

/// Everything a campaign thread needs; owned, so the thread outlives the
/// connection that spawned it without borrowing the accept loop.
struct CampaignCtx {
    campaign_id: u32,
    oracle: Arc<dyn Oracle>,
    fingerprint: String,
    req: OpenRequest,
    default_max_queries: Option<usize>,
    cache_path: Option<PathBuf>,
    cancel: CancelToken,
    outlet: Outlet,
    journal: Option<Arc<Journal>>,
    /// The journaled campaign a `RESUME` re-attaches; `None` for a fresh
    /// `OPEN`.
    replay: Option<Replay>,
}

/// What a resumed campaign re-runs before it serves new seed batches.
struct Replay {
    /// Every journaled seed batch, in submission order.
    batches: Vec<Vec<Vec<u8>>>,
    /// The cumulative unique-query count the journal's last checkpoint
    /// recorded, when the checkpoint covered every journaled batch — used
    /// purely as a post-replay consistency check.
    expect_unique: Option<usize>,
}

impl From<JournaledCampaign> for Replay {
    fn from(campaign: JournaledCampaign) -> Self {
        let complete = campaign.checkpointed == campaign.batches.len();
        Replay {
            expect_unique: campaign.last_unique.filter(|_| complete),
            batches: campaign.batches,
        }
    }
}

/// Appends one journal record, downgrading failures to a warning: a
/// campaign must keep serving even when its crash insurance lapses.
fn journal_append(
    journal: Option<&Journal>,
    campaign: u32,
    append: impl FnOnce(&Journal) -> std::io::Result<()>,
) {
    let Some(journal) = journal else { return };
    if let Err(e) = append(journal) {
        eprintln!(
            "glade serve: campaign {campaign}: journal append failed ({}): {e}",
            journal.path().display()
        );
    }
}

/// A seated campaign whose thread is not started yet: its context and the
/// channel its seed batches arrive on.
type CampaignStart = (CampaignCtx, mpsc::Receiver<Vec<Vec<u8>>>);

/// Most campaign threads kept waiting for a next campaign; a thread whose
/// campaign ends while this many wait exits instead.
const MAX_IDLE_CAMPAIGN_THREADS: usize = 2;

/// The threads campaigns run on.
///
/// A thread whose campaign ends waits for the next one (up to
/// [`MAX_IDLE_CAMPAIGN_THREADS`] of them; any more exit). Starting a
/// campaign hands it to a waiting thread when there is one, so a new
/// campaign neither pays a thread spawn nor starts on a cold thread: its
/// per-thread state, such as an in-process oracle's Earley chart and the
/// allocator's thread cache, is already warm.
struct CampaignThreads {
    /// One sender per waiting thread; `None` once the server shuts down,
    /// when finishing threads exit instead of waiting.
    idle: Arc<Mutex<Option<Vec<mpsc::Sender<CampaignStart>>>>>,
    joins: Vec<JoinHandle<()>>,
}

impl CampaignThreads {
    fn new() -> Self {
        CampaignThreads { idle: Arc::new(Mutex::new(Some(Vec::new()))), joins: Vec::new() }
    }

    /// Runs `campaign` on a waiting thread, or on a new one.
    fn start(&mut self, mut campaign: CampaignStart) {
        loop {
            let waiting = self
                .idle
                .lock()
                .expect("idle campaign threads poisoned")
                .as_mut()
                .and_then(Vec::pop);
            let Some(thread) = waiting else { break };
            match thread.send(campaign) {
                Ok(()) => return,
                Err(mpsc::SendError(back)) => campaign = back,
            }
        }
        self.joins.retain(|join| !join.is_finished());
        let idle = Arc::clone(&self.idle);
        let join = std::thread::Builder::new()
            .name("glade-serve-campaign".into())
            .spawn(move || {
                let mut campaign = campaign;
                loop {
                    let (ctx, seeds_rx) = campaign;
                    run_campaign(ctx, seeds_rx);
                    let (tx, rx) = mpsc::channel();
                    match idle.lock().expect("idle campaign threads poisoned").as_mut() {
                        Some(waiting) if waiting.len() < MAX_IDLE_CAMPAIGN_THREADS => {
                            waiting.push(tx);
                        }
                        _ => return,
                    }
                    let Ok(next) = rx.recv() else { return };
                    campaign = next;
                }
            })
            .expect("spawn campaign thread");
        self.joins.push(join);
    }

    /// Releases the waiting threads, then waits for every thread to end.
    fn join(self) {
        self.idle.lock().expect("idle campaign threads poisoned").take();
        for join in self.joins {
            let _ = join.join();
        }
    }
}

/// Body of one campaign thread: a private [`Session`] over the shared
/// oracle, posing from this thread only, fed seed batches until
/// the accept loop drops the channel. A resumed campaign first re-runs its
/// journaled batches (over the warm persistent cache, so completed work
/// re-pays no oracle queries) and answers with a single `RESULT` for the
/// replayed state.
fn run_campaign(ctx: CampaignCtx, seeds_rx: mpsc::Receiver<Vec<Vec<u8>>>) {
    let oracle = ctx.oracle;
    let mut builder = GladeBuilder::new()
        .worker_threads(1)
        .oracle_fingerprint(ctx.fingerprint.clone())
        .cancel_token(ctx.cancel.clone());
    if let Some(limit) = ctx.req.max_queries.or(ctx.default_max_queries) {
        builder = builder.max_queries(limit);
    }
    let observer = ctx.req.events.then(|| Arc::new(StreamObserver::new(ctx.outlet.clone())));
    if let Some(observer) = &observer {
        builder = builder.observer(Arc::clone(observer));
    }
    // Sends a batch's answer after the tallies still pending for it.
    let answer = |outcome: Outbound| {
        if let Some(observer) = &observer {
            observer.flush();
        }
        ctx.outlet.send(outcome)
    };
    let mut session = builder.session(&*oracle);
    if let Some(path) = &ctx.cache_path {
        if path.exists() {
            // A stale or foreign snapshot is not fatal — the fingerprint
            // check inside `load_cache` rejects mismatches and the
            // campaign simply starts cold.
            let _ = session.load_cache(path);
        }
    }

    // One completed batch = one add_seeds call = one journal index; the
    // counter spans replayed and fresh batches so checkpoint records line
    // up with the `s` records the accept loop wrote at receipt.
    let mut batch_index = 0usize;
    let mut run_batch = |session: &mut Session<'_>, seeds: &[Vec<u8>]| {
        let outcome = match session.add_seeds(seeds) {
            Ok(result) => {
                // A failed save costs warm starts, not the campaign.
                if let Some(Err(e)) = ctx.cache_path.as_ref().map(|path| session.save_cache(path)) {
                    eprintln!("glade serve: campaign {}: cache save failed: {e}", ctx.campaign_id);
                }
                journal_append(ctx.journal.as_deref(), ctx.campaign_id, |j| {
                    j.append_checkpoint(ctx.campaign_id, batch_index, result.stats.unique_queries)
                });
                Outbound::Result {
                    stats: result.stats,
                    grammar: glade_grammar::grammar_to_text(&result.grammar),
                }
            }
            // A rejected batch (e.g. a seed the oracle refuses) leaves the
            // session state untouched; on replay it re-rejects identically.
            Err(e) => Outbound::Error(e.to_string()),
        };
        batch_index += 1;
        outcome
    };

    if let Some(replay) = &ctx.replay {
        // Restart resume: replay every journaled batch in order, then
        // answer with exactly one frame describing the replayed state —
        // the latest successful result, or the first error if nothing
        // succeeded.
        let mut last: Option<Outbound> = None;
        let mut last_unique: Option<usize> = None;
        for seeds in &replay.batches {
            match run_batch(&mut session, seeds) {
                Outbound::Result { stats, grammar } => {
                    last_unique = Some(stats.unique_queries);
                    last = Some(Outbound::Result { stats, grammar });
                }
                error => {
                    if last.is_none() {
                        last = Some(error);
                    }
                }
            }
        }
        if let (Some(expect), Some(got)) = (replay.expect_unique, last_unique) {
            if expect != got {
                eprintln!(
                    "glade serve: campaign {}: replay disagreed with the journal checkpoint \
                     ({got} unique queries, checkpoint said {expect}) — the oracle or cache \
                     may have changed since the campaign was journaled",
                    ctx.campaign_id
                );
            }
        }
        let outcome = last.unwrap_or_else(|| {
            Outbound::Error("campaign has no journaled seed batches to replay".into())
        });
        if !answer(outcome) {
            return;
        }
    }

    while let Ok(seeds) = seeds_rx.recv() {
        let outcome = run_batch(&mut session, &seeds);
        if !answer(outcome) {
            break;
        }
    }
}

/// A resolved oracle spec: the shared oracle plus its fingerprint.
type OracleEntry = (Arc<dyn Oracle>, String);

/// A multi-tenant synthesis server.
///
/// Construct with an [`OracleFactory`] and a [`ServeConfig`], then either
/// [`run_with`](Server::run_with) the accept loop on the current thread or
/// [`spawn`](Server::spawn) it onto a background thread with a
/// [`ServerHandle`] for shutdown. The accept loop owns the server: only it
/// reads or changes the oracle registry, the resumable campaigns and the
/// campaign ids. Every campaign runs on its own thread and calls its
/// shared oracle directly; the server holds no lock across an oracle
/// call. See the [module docs](super) for the protocol, oracle sharing,
/// and determinism guarantees.
pub struct Server {
    factory: Arc<dyn OracleFactory>,
    config: ServeConfig,
    registry: HashMap<String, OracleEntry>,
    /// The campaign journal (present when `cache_dir` is set and usable),
    /// appended by the accept loop and by campaign threads.
    journal: Option<Arc<Journal>>,
    /// Journaled campaigns awaiting a `RESUME` claim, loaded at startup.
    resumable: HashMap<u32, JournaledCampaign>,
    /// Next fresh campaign id; starts past everything the journal has
    /// ever recorded so ids stay stable across restarts.
    next_campaign: u32,
}

impl Server {
    /// Creates a server (no socket yet). When
    /// [`cache_dir`](ServeConfig::cache_dir) is set, the campaign journal
    /// in that directory is replayed: campaigns that were open when the
    /// previous server died become claimable via `RESUME`. A journal that
    /// cannot be opened disables journaling (with a warning) rather than
    /// failing the server.
    pub fn new(factory: Arc<dyn OracleFactory>, config: ServeConfig) -> Self {
        let (journal, resumable, max_seen_id) = match &config.cache_dir {
            Some(dir) => match Journal::open(dir) {
                Ok((journal, state)) => {
                    (Some(Arc::new(journal)), state.campaigns, state.max_seen_id)
                }
                Err(e) => {
                    eprintln!("glade serve: campaign journal disabled ({}): {e}", dir.display());
                    (None, HashMap::new(), 0)
                }
            },
            None => (None, HashMap::new(), 0),
        };
        Server {
            factory,
            config,
            registry: HashMap::new(),
            journal,
            resumable,
            next_campaign: max_seen_id.saturating_add(1),
        }
    }

    /// Ids of journaled campaigns currently claimable via `RESUME`.
    pub fn resumable_campaigns(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.resumable.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Resolves `spec` to a shared oracle, creating it on first use. The
    /// factory configures what it builds; the server only shares it.
    fn resolve_oracle(&mut self, spec: &str) -> Result<OracleEntry, String> {
        if let Some(entry) = self.registry.get(spec) {
            return Ok(entry.clone());
        }
        let entry = self.factory.create(spec).map_err(|e| format!("oracle {spec:?}: {e}"))?;
        self.registry.insert(spec.to_string(), entry.clone());
        Ok(entry)
    }

    fn cache_path_for(&self, fingerprint: &str, requested: bool) -> Option<PathBuf> {
        if !requested {
            return None;
        }
        let dir = self.config.cache_dir.as_ref()?;
        Some(dir.join(format!("{:016x}.glade-cache", fnv1a64(fingerprint.as_bytes()))))
    }

    /// The request of the journaled campaign a `RESUME` body names. The
    /// campaign stays resumable: [`seat_campaign`](Server::seat_campaign)
    /// claims it once its oracle resolves.
    fn resumable_request(&self, body: &[u8]) -> Result<(u32, OpenRequest), String> {
        let id = decode_resume(body).map_err(|e| e.to_string())?;
        // A server started without `--cache-dir` keeps no journal, so
        // *nothing* is resumable — tell the client that, not a generic
        // "unknown campaign": the fix is restarting the server with
        // persistence, not retrying another id.
        if self.journal.is_none() {
            return Err(format!(
                "server has no journal (started without --cache-dir): \
                 campaign {id} is not resumable"
            ));
        }
        match self.resumable.get(&id) {
            Some(campaign) => Ok((id, campaign.req.clone())),
            None => Err(format!("campaign {id} is not resumable on this server")),
        }
    }

    /// Seats a campaign on `conn` — a fresh `OPEN` of `req`, or the
    /// journaled campaign `resumed` — and answers with `OPEN_ACK`. Returns
    /// what the campaign's thread needs; the accept loop starts that
    /// thread once the `OPEN_ACK` is flushed. Nothing is claimed, numbered
    /// or journaled until the oracle resolves, so a failed resolve leaves
    /// a journaled campaign resumable.
    fn seat_campaign(
        &mut self,
        conn: &mut Conn,
        req: OpenRequest,
        resumed: Option<u32>,
    ) -> Result<CampaignStart, String> {
        let (oracle, fingerprint) = self.resolve_oracle(&req.oracle_spec)?;
        let (id, replay) = match resumed {
            Some(id) => (id, self.resumable.remove(&id).map(Replay::from)),
            None => {
                let id = self.next_campaign;
                self.next_campaign = id.wrapping_add(1);
                // Journal the open before the campaign exists, so no `s`
                // or `c` record can ever precede its `o`.
                journal_append(self.journal.as_deref(), id, |j| j.append_open(id, &req));
                (id, None)
            }
        };
        let cancel = CancelToken::new();
        let (cmd_tx, cmd_rx) = mpsc::channel();
        conn.campaign = Some(CampaignSeat {
            cmd_tx,
            cancel: cancel.clone(),
            id,
            next_batch: replay.as_ref().map_or(0, |replay| replay.batches.len()),
            // A resume owes the client one RESULT (or ERROR) for the replay.
            pending: usize::from(replay.is_some()),
        });
        conn.queue(TAG_OPEN_ACK, &encode_open_ack(id, &fingerprint));
        let ctx = CampaignCtx {
            campaign_id: id,
            oracle,
            cache_path: self.cache_path_for(&fingerprint, req.cache),
            fingerprint,
            req,
            default_max_queries: self.config.default_max_queries,
            cancel,
            outlet: conn.outlet.clone(),
            journal: self.journal.clone(),
            replay,
        };
        Ok((ctx, cmd_rx))
    }

    /// Handles one parsed frame for `conn`. Returns the campaign to start
    /// when the frame opened (or resumed) one.
    fn handle_frame(
        &mut self,
        conn: &mut Conn,
        tag: u8,
        body: Vec<u8>,
        draining: bool,
    ) -> Option<CampaignStart> {
        match tag {
            TAG_HELLO => {
                if body != SERVE_PROTOCOL {
                    conn.fail("unsupported protocol version");
                } else if conn.greeted {
                    conn.fail("duplicate HELLO");
                } else {
                    conn.greeted = true;
                    conn.queue(TAG_HELLO_ACK, &body);
                }
                None
            }
            _ if !conn.greeted => {
                conn.fail("expected HELLO first");
                None
            }
            TAG_OPEN | TAG_RESUME => {
                let seated = if conn.campaign.is_some() {
                    Err("campaign already open on this connection".to_owned())
                } else if draining {
                    Err("server is draining; no new campaigns".to_owned())
                } else if tag == TAG_OPEN {
                    OpenRequest::from_body(&body)
                        .map_err(|e| e.to_string())
                        .and_then(|req| self.seat_campaign(conn, req, None))
                } else {
                    self.resumable_request(&body)
                        .and_then(|(id, req)| self.seat_campaign(conn, req, Some(id)))
                };
                seated.map_err(|message| conn.fail(&message)).ok()
            }
            TAG_SEEDS => {
                let Some(seat) = conn.campaign.as_mut() else {
                    conn.fail("SEEDS before OPEN");
                    return None;
                };
                match decode_seeds_body(&body) {
                    Ok(seeds) => {
                        // Journal at receipt, before the run: a crash
                        // mid-run must not lose the batch.
                        journal_append(self.journal.as_deref(), seat.id, |j| {
                            j.append_seeds(seat.id, seat.next_batch, &seeds)
                        });
                        seat.next_batch += 1;
                        if seat.cmd_tx.send(seeds).is_ok() {
                            seat.pending += 1;
                        } else {
                            conn.fail("campaign worker exited");
                        }
                    }
                    Err(e) => conn.fail(&e.to_string()),
                }
                None
            }
            TAG_CANCEL => {
                if let Some(seat) = &conn.campaign {
                    // Sticky, like a local CancelToken: the in-flight run
                    // (and any later run of this campaign) degrades along
                    // the fail-closed path and still produces a RESULT.
                    seat.cancel.cancel();
                } else {
                    conn.fail("CANCEL before OPEN");
                }
                None
            }
            TAG_CLOSE => {
                conn.closing = true;
                None
            }
            other => {
                // Unknown frame from a newer client: answer, don't wedge.
                conn.queue(TAG_ERROR, format!("unknown frame tag {other:#04x}").as_bytes());
                None
            }
        }
    }

    /// Runs the accept loop until `shutdown` is cancelled or the listener
    /// fails; cancelling `drain` stops accepting connections and rejects
    /// new `OPEN`/`RESUME` frames, but lets running campaigns finish
    /// (bounded by [`ServeConfig::drain_timeout`]) before the loop exits,
    /// caches are saved, and `socket_path` (when given) is unlinked.
    /// Cancelling `shutdown` still hard-stops immediately via the
    /// fail-closed path. Campaign threads are cancelled and joined before
    /// returning. The loop takes the server: it is the only owner of the
    /// server's state.
    pub fn run_with(
        self,
        listener: UnixListener,
        shutdown: CancelToken,
        drain: CancelToken,
        socket_path: Option<&Path>,
    ) -> std::io::Result<()> {
        let result = self.run_inner(listener, shutdown, drain);
        if let Some(path) = socket_path {
            let _ = std::fs::remove_file(path);
        }
        result
    }

    fn run_inner(
        mut self,
        listener: UnixListener,
        shutdown: CancelToken,
        drain: CancelToken,
    ) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let wake = Arc::new(wake_tx);
        let (out_tx, out_rx) = mpsc::channel::<(u64, Outbound)>();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut threads = CampaignThreads::new();
        let mut opened: Vec<CampaignStart> = Vec::new();
        let mut next_conn: u64 = 1;
        let drain_timeout = self.config.drain_timeout.unwrap_or(DEFAULT_DRAIN_TIMEOUT);
        let max_event_buffer = self.config.max_event_buffer.unwrap_or(DEFAULT_MAX_EVENT_BUFFER);
        let mut drain_deadline: Option<Instant> = None;

        while !shutdown.is_cancelled() {
            // Entering drain mode: stop accepting, start the clock.
            let draining = drain.is_cancelled();
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + drain_timeout);
            }
            if let Some(deadline) = drain_deadline {
                let all_idle = conns.values().all(Conn::is_idle);
                if all_idle || Instant::now() >= deadline {
                    // Campaigns checkpointed (every finished batch is in
                    // the journal + cache); anything still running rides
                    // the fail-closed cancel path below.
                    break;
                }
            }

            // Poll: listener, wake pipe, then every connection (write
            // interest only while output is queued). While draining the
            // listener stays in the set with no interest bits so the
            // index math (`fds[2 + slot]`) is unchanged.
            let mut fds = vec![
                sys::PollFd {
                    fd: listener.as_raw_fd(),
                    events: if draining { 0 } else { sys::POLLIN },
                    revents: 0,
                },
                sys::PollFd { fd: wake_rx.as_raw_fd(), events: sys::POLLIN, revents: 0 },
            ];
            let mut order: Vec<u64> = Vec::with_capacity(conns.len());
            for (&id, conn) in &conns {
                let mut events = sys::POLLIN;
                if !conn.outbuf.is_empty() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd { fd: conn.stream.as_raw_fd(), events, revents: 0 });
                order.push(id);
            }
            // Bounded sleep so a shutdown or drain request is noticed
            // promptly even with no traffic.
            sys::poll_ready(&mut fds, Some(Duration::from_millis(100)))?;

            // Drain wake bytes (their only job was ending the sleep).
            if fds[1].revents & sys::POLLIN != 0 {
                let mut sink = [0u8; 256];
                while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }

            // Drain campaign output into per-connection buffers.
            while let Ok((conn_id, outbound)) = out_rx.try_recv() {
                let Some(conn) = conns.get_mut(&conn_id) else { continue };
                match outbound {
                    // Events land in the bounded per-connection queue, not
                    // the outbuf: a stuck reader fills the queue (which
                    // coalesces and eventually demotes) instead of growing
                    // server memory without bound.
                    Outbound::Event(event) => conn.events.push(event),
                    Outbound::Result { stats, grammar } => {
                        if let Some(seat) = conn.campaign.as_mut() {
                            seat.pending = seat.pending.saturating_sub(1);
                        }
                        conn.drain_events_before_result();
                        conn.queue(TAG_RESULT, &encode_result(&stats, &grammar));
                    }
                    Outbound::Error(message) => {
                        if let Some(seat) = conn.campaign.as_mut() {
                            seat.pending = seat.pending.saturating_sub(1);
                        }
                        conn.drain_events_before_result();
                        conn.queue(TAG_ERROR, message.as_bytes());
                    }
                }
            }

            // New connections.
            if !draining && fds[0].revents & sys::POLLIN != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            stream.set_nonblocking(true)?;
                            let outlet = Outlet {
                                conn: next_conn,
                                tx: out_tx.clone(),
                                wake: Arc::clone(&wake),
                            };
                            conns.insert(next_conn, Conn::new(stream, max_event_buffer, outlet));
                            next_conn += 1;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                }
            }

            // Per-connection I/O.
            let mut doomed: Vec<u64> = Vec::new();
            for (slot, &conn_id) in order.iter().enumerate() {
                let revents = fds[2 + slot].revents;
                let conn = conns.get_mut(&conn_id).expect("conn vanished mid-loop");
                if revents & sys::POLLNVAL != 0 {
                    doomed.push(conn_id);
                    continue;
                }
                if revents & sys::POLLIN != 0 && !conn.closing && !conn.dead && !conn.fill() {
                    // EOF or read error: a vanished client preempts its
                    // campaign through the ordinary cancel path.
                    conn.dead = true;
                }
                if !conn.dead {
                    match drain_frames(&mut conn.inbuf) {
                        Ok(frames) => {
                            for (tag, frame_body) in frames {
                                if conn.dead || conn.closing {
                                    break;
                                }
                                opened.extend(self.handle_frame(conn, tag, frame_body, draining));
                            }
                        }
                        Err(e) => conn.fail(&e.to_string()),
                    }
                }
                // Move queued events into the outbuf only while the reader
                // is keeping up (soft cap on outbuf size).
                conn.pump_events();
                if !conn.outbuf.is_empty() && !conn.flush() {
                    conn.outbuf.clear();
                    conn.dead = true;
                }
                let finished_close = conn.closing
                    && conn.outbuf.is_empty()
                    && conn.campaign.as_ref().is_none_or(|seat| seat.pending == 0);
                let finished_dead = conn.dead && conn.outbuf.is_empty();
                if finished_close || finished_dead {
                    doomed.push(conn_id);
                }
            }
            // Campaigns start only now, after this iteration's `OPEN_ACK`s
            // are flushed: a thread spawn, or a woken campaign thread
            // preempting this one, then overlaps the client's next request
            // instead of delaying its answer.
            for campaign in opened.drain(..) {
                threads.start(campaign);
            }
            for conn_id in doomed {
                if let Some(conn) = conns.remove(&conn_id) {
                    if let Some(seat) = conn.campaign {
                        if conn.dead {
                            // Disconnect/error preemption; a graceful CLOSE
                            // already drained every pending run. The journal
                            // entry stays open, so the campaign is resumable
                            // after a server restart.
                            seat.cancel.cancel();
                        } else {
                            // Clean close: retire the campaign from the
                            // journal so a restart won't offer it.
                            journal_append(self.journal.as_deref(), seat.id, |j| {
                                j.append_closed(seat.id)
                            });
                        }
                        drop(seat.cmd_tx);
                    }
                }
            }
        }

        // Shutdown: preempt every campaign, close every connection (which
        // drops the seed senders), then join the workers.
        for conn in conns.into_values() {
            if let Some(seat) = conn.campaign {
                seat.cancel.cancel();
            }
        }
        threads.join();
        Ok(())
    }

    /// Binds `socket` (replacing a stale socket file) and runs the accept
    /// loop on a background thread.
    pub fn spawn(self, socket: impl AsRef<Path>) -> std::io::Result<ServerHandle> {
        let path = socket.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let shutdown = CancelToken::new();
        let drain = CancelToken::new();
        let token = shutdown.clone();
        let drain_token = drain.clone();
        let run_path = path.clone();
        let join = std::thread::Builder::new()
            .name("glade-serve".into())
            .spawn(move || self.run_with(listener, token, drain_token, Some(&run_path)))?;
        Ok(ServerHandle { shutdown, drain, join: Some(join), path })
    }
}

/// Handle to a [spawned](Server::spawn) server; shuts the server down on
/// [`shutdown`](ServerHandle::shutdown) or drop.
#[derive(Debug)]
pub struct ServerHandle {
    shutdown: CancelToken,
    drain: CancelToken,
    join: Option<JoinHandle<std::io::Result<()>>>,
    path: PathBuf,
}

impl ServerHandle {
    /// Asks the server to drain: stop accepting work, finish (or
    /// checkpoint) running campaigns, then exit. Non-blocking; pair with
    /// [`wait`](ServerHandle::wait).
    pub fn drain(&self) {
        self.drain.cancel();
    }

    /// Waits for the accept loop to exit without forcing a shutdown.
    pub fn wait(mut self) -> std::io::Result<()> {
        self.join_loop()
    }

    /// Stops the server and waits for the accept loop (and every campaign
    /// thread) to exit.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.shutdown.cancel();
        self.join_loop()
    }

    /// Waits for the accept loop, then removes the socket file.
    fn join_loop(&mut self) -> std::io::Result<()> {
        let result = match self.join.take() {
            Some(join) => join
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("serve accept loop panicked"))),
            None => Ok(()),
        };
        let _ = std::fs::remove_file(&self.path);
        result
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.shutdown.cancel();
            let _ = self.join_loop();
        }
    }
}

/// Signals received since [`install_drain_signals`]; written from the
/// handler, so reads must tolerate any count.
static DRAIN_SIGNALS: AtomicUsize = AtomicUsize::new(0);

extern "C" fn count_drain_signal(_signum: std::os::raw::c_int) {
    // Lock-free atomic increment: async-signal-safe.
    DRAIN_SIGNALS.fetch_add(1, Ordering::SeqCst);
}

/// Installs `SIGTERM`/`SIGINT` handlers that only count deliveries; the
/// caller polls [`drain_signal_count`] and applies its policy (the CLI
/// drains on the first signal and hard-stops on the second). Counting in
/// the handler keeps the handler trivially async-signal-safe and leaves
/// all real work on an ordinary thread.
pub fn install_drain_signals() {
    const SIGINT: std::os::raw::c_int = 2;
    const SIGTERM: std::os::raw::c_int = 15;
    extern "C" {
        // C: `sighandler_t signal(int signum, sighandler_t handler)`, with
        // `typedef void (*sighandler_t)(int)`. The previous handler comes
        // back as a pointer-sized integer because it may be `SIG_ERR`,
        // `SIG_DFL` or `SIG_IGN`, which are not Rust function pointers.
        fn signal(
            signum: std::os::raw::c_int,
            handler: extern "C" fn(std::os::raw::c_int),
        ) -> usize;
    }
    // SAFETY: the prototype above matches C's `signal`: an `extern "C"
    // fn(c_int)` is a `sighandler_t`, and the returned handler is only
    // ever an integer, never called. The installed handler touches only
    // the static atomic `DRAIN_SIGNALS` with a lock-free `fetch_add`, which
    // is async-signal-safe, so it may interrupt any thread at any point.
    unsafe {
        signal(SIGTERM, count_drain_signal);
        signal(SIGINT, count_drain_signal);
    }
}

/// How many `SIGTERM`/`SIGINT` deliveries have been counted since
/// [`install_drain_signals`].
pub fn drain_signal_count() -> usize {
    DRAIN_SIGNALS.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outlet for connection `conn`, with the loop's ends of its
    /// channel and wake pipe.
    fn outlet(conn: u64) -> (Outlet, mpsc::Receiver<(u64, Outbound)>, UnixStream) {
        let (wake_rx, wake_tx) = UnixStream::pair().expect("wake pipe");
        wake_tx.set_nonblocking(true).expect("nonblocking wake pipe");
        let (tx, rx) = mpsc::channel();
        (Outlet { conn, tx, wake: Arc::new(wake_tx) }, rx, wake_rx)
    }

    /// A campaign that ends at once: its seed channel is already closed.
    fn ended_campaign(campaign_id: u32) -> CampaignStart {
        let (_, seeds_rx) = mpsc::channel();
        let oracle: Arc<dyn Oracle> = Arc::new(crate::FnOracle::new(|_: &[u8]| true));
        let ctx = CampaignCtx {
            campaign_id,
            oracle,
            fingerprint: "test".into(),
            req: OpenRequest::new("test"),
            default_max_queries: None,
            cache_path: None,
            cancel: CancelToken::new(),
            outlet: outlet(0).0,
            journal: None,
            replay: None,
        };
        (ctx, seeds_rx)
    }

    #[test]
    fn campaign_threads_keep_a_bounded_number_waiting() {
        let waiting =
            |threads: &CampaignThreads| threads.idle.lock().unwrap().as_ref().map_or(0, Vec::len);
        let settle = |threads: &CampaignThreads, waiting_now: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while waiting(threads) != waiting_now
                || threads.joins.iter().filter(|join| !join.is_finished()).count() != waiting_now
            {
                assert!(Instant::now() < deadline, "campaign threads never settled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        let mut threads = CampaignThreads::new();
        for id in 0..5 {
            threads.start(ended_campaign(id));
        }
        settle(&threads, MAX_IDLE_CAMPAIGN_THREADS);
        // A waiting thread runs the next campaign and waits again.
        let spawned = threads.joins.len();
        threads.start(ended_campaign(5));
        settle(&threads, MAX_IDLE_CAMPAIGN_THREADS);
        assert_eq!(threads.joins.len(), spawned, "a waiting thread took the campaign");
        threads.join();
    }

    fn tally(n: usize) -> SynthEvent {
        SynthEvent::QueryBatch { checks: n, cached: 0, posed: n }
    }

    fn lifecycle(seed_index: usize) -> SynthEvent {
        SynthEvent::SeedSkipped { seed_index }
    }

    #[test]
    fn stream_observer_sends_summed_tallies_ahead_of_lifecycle_events() {
        let (outlet, rx, _wake_rx) = outlet(7);
        let observer = StreamObserver::new(outlet);
        let sent = || -> Vec<SynthEvent> {
            rx.try_iter()
                .map(|(conn, outbound)| match outbound {
                    Outbound::Event(event) if conn == 7 => event,
                    _ => panic!("unexpected outbound"),
                })
                .collect()
        };
        let last_sent = |at: Instant| observer.tally.lock().unwrap().last_sent = at;

        // Inside the interval, tallies wait; a lifecycle event sends their
        // sum first.
        last_sent(Instant::now() + Duration::from_secs(3600));
        observer.on_event(&tally(10));
        observer.on_event(&tally(20));
        assert_eq!(sent(), vec![]);
        observer.on_event(&lifecycle(1));
        assert_eq!(sent(), vec![tally(30), lifecycle(1)]);

        // A flush (ahead of a RESULT) sends what is pending, once.
        observer.on_event(&tally(5));
        observer.flush();
        observer.flush();
        assert_eq!(sent(), vec![tally(5)]);

        // Past the interval, the next tally goes out with what it joins.
        last_sent(Instant::now() + Duration::from_secs(3600));
        observer.on_event(&tally(1));
        last_sent(Instant::now() - TALLY_INTERVAL);
        observer.on_event(&tally(2));
        assert_eq!(sent(), vec![tally(3)]);
    }

    #[test]
    fn event_queue_coalesces_consecutive_tallies() {
        let mut q = EventQueue::new(8);
        q.push(lifecycle(1));
        q.push(tally(10));
        q.push(tally(20));
        q.push(tally(30));
        q.push(lifecycle(2));
        let drained: Vec<SynthEvent> = std::iter::from_fn(|| q.pop()).collect();
        // Each tally counts its own batch, so the three merge into their
        // sum; lifecycle events all survive.
        assert_eq!(drained, vec![lifecycle(1), tally(60), lifecycle(2)]);
        assert_eq!(q.take_dropped(), 0);
    }

    #[test]
    fn event_queue_does_not_coalesce_across_lifecycle_events() {
        let mut q = EventQueue::new(8);
        q.push(tally(10));
        q.push(lifecycle(1));
        q.push(tally(20));
        let drained: Vec<SynthEvent> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![tally(10), lifecycle(1), tally(20)]);
    }

    #[test]
    fn event_queue_overflow_demotes_and_counts_drops() {
        let mut q = EventQueue::new(2);
        q.push(lifecycle(1));
        q.push(lifecycle(2));
        // Third push overflows: the queue empties, and every later push is
        // dropped too (demotion is sticky).
        q.push(lifecycle(3));
        assert!(q.pop().is_none());
        q.push(lifecycle(4));
        assert!(q.pop().is_none());
        assert_eq!(q.take_dropped(), 4);
        // The counter resets once reported, but demotion persists.
        q.push(lifecycle(5));
        assert_eq!(q.take_dropped(), 1);
    }

    #[test]
    fn event_queue_cap_zero_is_result_only() {
        let mut q = EventQueue::new(0);
        q.push(lifecycle(1));
        assert!(q.pop().is_none());
        assert_eq!(q.take_dropped(), 1);
    }
}
