//! A blocking `glade-serve v2` client.
//!
//! [`ServeClient`] drives one campaign over a unix socket: connect, open
//! (or [`resume`](ServeClient::resume) a journaled campaign after a
//! server restart), then any number of
//! [`synthesize`](ServeClient::synthesize) calls, each streaming live
//! [`SynthEvent`]s into a callback and returning the
//! final grammar text plus run statistics. A [`CancelHandle`] (a second
//! handle on the same socket) can cancel the campaign from another thread
//! while `synthesize` is blocked reading the event stream.

use super::protocol::{
    decode_open_ack, decode_result, encode_frame, encode_resume, encode_seeds_body, read_frame,
    OpenRequest, ProtocolError, SERVE_PROTOCOL, TAG_CANCEL, TAG_CLOSE, TAG_ERROR, TAG_EVENT,
    TAG_HELLO, TAG_HELLO_ACK, TAG_OPEN, TAG_OPEN_ACK, TAG_RESULT, TAG_RESUME, TAG_SEEDS,
};
use crate::events::SynthEvent;
use crate::synth::SynthesisStats;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// The outcome of one server-side synthesis run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The grammar over all seeds submitted so far, in the canonical text
    /// form of [`glade_grammar::grammar_to_text`] — byte-identical to a
    /// local run on the same seeds.
    pub grammar_text: String,
    /// The run's statistics, as measured server-side.
    pub stats: SynthesisStats,
}

/// Cancels a campaign mid-run from another thread.
///
/// Obtained from [`ServeClient::cancel_handle`]; holds its own handle on
/// the campaign's socket, so it can write a `CANCEL` frame while the
/// client thread is blocked reading the event stream. Like a local
/// [`CancelToken`](crate::CancelToken), cancellation is sticky for the
/// campaign: the in-flight run still returns a degraded `RESULT` whose
/// grammar contains every seed.
#[derive(Debug)]
pub struct CancelHandle {
    stream: UnixStream,
}

impl CancelHandle {
    /// Sends the `CANCEL` frame. Idempotent.
    pub fn cancel(&mut self) -> std::io::Result<()> {
        let mut frame = Vec::new();
        encode_frame(TAG_CANCEL, b"", &mut frame);
        self.stream.write_all(&frame)
    }
}

/// A connected `glade-serve v2` client driving one campaign.
#[derive(Debug)]
pub struct ServeClient {
    stream: UnixStream,
    campaign: Option<(u32, String)>,
    /// Whether the server's answer to `HELLO` is still unread.
    greeting: bool,
}

impl ServeClient {
    /// Connects to a server socket and sends the protocol banner.
    ///
    /// The server's answer to the banner is read together with the answer
    /// to the first request ([`open`](ServeClient::open) or
    /// [`resume`](ServeClient::resume)), so opening a campaign costs one
    /// round trip instead of two. A server that refuses the banner fails
    /// that first request with its message.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut stream = UnixStream::connect(socket)?;
        let mut frame = Vec::new();
        encode_frame(TAG_HELLO, SERVE_PROTOCOL, &mut frame);
        stream.write_all(&frame)?;
        Ok(ServeClient { stream, campaign: None, greeting: true })
    }

    /// Sends one request frame and reads the first frame of its answer,
    /// first reading the answer to `HELLO` if it is still unread. A refused
    /// banner is reported ahead of a failed write: the server closes the
    /// connection after refusing it.
    fn request(&mut self, tag: u8, body: &[u8]) -> std::io::Result<(u8, Vec<u8>)> {
        let mut frame = Vec::new();
        encode_frame(tag, body, &mut frame);
        let sent = self.stream.write_all(&frame);
        if std::mem::take(&mut self.greeting) {
            let (tag, body) = read_frame(&mut self.stream).map_err(std::io::Error::from)?;
            match tag {
                TAG_HELLO_ACK if body == SERVE_PROTOCOL => {}
                TAG_ERROR => return Err(server_error(&body)),
                _ => {
                    return Err(ProtocolError::Malformed(format!(
                        "unexpected frame {tag:#04x} to HELLO"
                    ))
                    .into())
                }
            }
        }
        sent?;
        read_frame(&mut self.stream).map_err(std::io::Error::from)
    }

    /// Connects like [`connect`](ServeClient::connect), retrying while the
    /// socket does not exist or refuses connections (a restarting server).
    ///
    /// Up to `retries` re-attempts after the first failure, spaced by the
    /// engine's standard backoff curve seeded from `backoff_base`
    /// (deterministic exponential growth with bounded jitter — the same
    /// schedule the pooled oracle uses for worker respawns). Other errors
    /// fail immediately (a refused banner surfaces at the first request,
    /// as with [`connect`](ServeClient::connect)); exhaustion returns the
    /// last connect error annotated with the attempt count.
    pub fn connect_with_retry(
        socket: impl AsRef<Path>,
        retries: u32,
        backoff_base: Duration,
    ) -> std::io::Result<Self> {
        let socket = socket.as_ref();
        // Stable per-path salt so concurrent clients de-synchronize.
        let salt = super::fnv1a64(socket.as_os_str().as_encoded_bytes());
        let mut attempt: u32 = 0;
        loop {
            match Self::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e)
                    if attempt < retries
                        && matches!(
                            e.kind(),
                            std::io::ErrorKind::NotFound | std::io::ErrorKind::ConnectionRefused
                        ) =>
                {
                    attempt += 1;
                    // strikes starts at 2 so the very first retry already
                    // waits one base period.
                    if let Some(delay) =
                        crate::oracle::retry_backoff_delay(backoff_base, salt, attempt + 1)
                    {
                        std::thread::sleep(delay);
                    }
                }
                Err(e) if attempt > 0 => {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("{e} (after {} connect attempts)", attempt + 1),
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Resumes a journaled campaign interrupted by a server crash or
    /// restart (`glade-serve v2`); returns the campaign id and oracle
    /// fingerprint, exactly like [`open`](ServeClient::open).
    ///
    /// The server replays the campaign's journaled seed batches over its
    /// warm persistent cache; call
    /// [`synthesize`](ServeClient::synthesize)`(&[], ..)` (an empty
    /// batch... or any new batch) afterwards, or read the replay's result
    /// first via [`resume_result`](ServeClient::resume_result).
    pub fn resume(&mut self, campaign: u32) -> std::io::Result<(u32, String)> {
        self.start_campaign(TAG_RESUME, &encode_resume(campaign), "RESUME")
    }

    /// Reads the replay outcome a [`resume`](ServeClient::resume) leaves
    /// in flight: blocks until the server's replay `RESULT`, feeding
    /// streamed events to `on_event`. The grammar is byte-identical to an
    /// uninterrupted run over the campaign's journaled seed batches.
    pub fn resume_result(
        &mut self,
        on_event: impl FnMut(SynthEvent),
    ) -> std::io::Result<RunOutcome> {
        if self.campaign.is_none() {
            return Err(std::io::Error::other("no campaign open"));
        }
        self.read_run_outcome(on_event)
    }

    /// Opens the connection's campaign; returns the campaign id and the
    /// oracle fingerprint.
    pub fn open(&mut self, request: &OpenRequest) -> std::io::Result<(u32, String)> {
        self.start_campaign(TAG_OPEN, &request.to_body(), "OPEN")
    }

    /// Sends the `OPEN` or `RESUME` frame `(tag, body)` (`name` for error
    /// messages) and records the campaign its `OPEN_ACK` names.
    fn start_campaign(
        &mut self,
        tag: u8,
        body: &[u8],
        name: &str,
    ) -> std::io::Result<(u32, String)> {
        if self.campaign.is_some() {
            return Err(std::io::Error::other("campaign already open"));
        }
        let (tag, body) = self.request(tag, body)?;
        match tag {
            TAG_OPEN_ACK => {
                let (id, fingerprint) = decode_open_ack(&body).map_err(std::io::Error::from)?;
                self.campaign = Some((id, fingerprint.clone()));
                Ok((id, fingerprint))
            }
            TAG_ERROR => Err(server_error(&body)),
            _ => {
                Err(ProtocolError::Malformed(format!("unexpected frame {tag:#04x} to {name}"))
                    .into())
            }
        }
    }

    /// The open campaign's id and oracle fingerprint.
    pub fn campaign(&self) -> Option<(u32, &str)> {
        self.campaign.as_ref().map(|(id, fp)| (*id, fp.as_str()))
    }

    /// A handle that can cancel this campaign from another thread.
    pub fn cancel_handle(&self) -> std::io::Result<CancelHandle> {
        Ok(CancelHandle { stream: self.stream.try_clone()? })
    }

    /// Submits a seed batch (empty = re-synthesize from current state) and
    /// blocks until the run's `RESULT`, feeding each streamed event to
    /// `on_event` as it arrives. Unknown event tags from a newer server
    /// are skipped.
    ///
    /// A run the server rejects (e.g. a seed its oracle rejects) returns
    /// an [`InvalidData`](std::io::ErrorKind::InvalidData) error carrying
    /// the server's message; the campaign stays usable.
    pub fn synthesize(
        &mut self,
        seeds: &[Vec<u8>],
        on_event: impl FnMut(SynthEvent),
    ) -> std::io::Result<RunOutcome> {
        if self.campaign.is_none() {
            return Err(std::io::Error::other("no campaign open"));
        }
        let body = encode_seeds_body(seeds).map_err(std::io::Error::from)?;
        let mut frame = Vec::new();
        encode_frame(TAG_SEEDS, &body, &mut frame);
        self.stream.write_all(&frame)?;
        self.read_run_outcome(on_event)
    }

    /// Reads event frames until the in-flight run's `RESULT` (or `ERROR`).
    fn read_run_outcome(
        &mut self,
        mut on_event: impl FnMut(SynthEvent),
    ) -> std::io::Result<RunOutcome> {
        loop {
            let (tag, payload) = read_frame(&mut self.stream).map_err(std::io::Error::from)?;
            match tag {
                TAG_EVENT => {
                    let line = std::str::from_utf8(&payload).map_err(|_| {
                        std::io::Error::from(ProtocolError::Malformed(
                            "EVENT line is not UTF-8".into(),
                        ))
                    })?;
                    match SynthEvent::from_wire_line(line) {
                        Ok(Some(event)) => on_event(event),
                        Ok(None) => {} // newer server's event kind: skip
                        Err(e) => {
                            return Err(ProtocolError::Malformed(e.to_string()).into());
                        }
                    }
                }
                TAG_RESULT => {
                    let (stats, grammar_text) =
                        decode_result(&payload).map_err(std::io::Error::from)?;
                    return Ok(RunOutcome { grammar_text, stats });
                }
                TAG_ERROR => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        String::from_utf8_lossy(&payload).into_owned(),
                    ));
                }
                other => {
                    return Err(ProtocolError::Malformed(format!(
                        "unexpected frame {other:#04x} during run"
                    ))
                    .into());
                }
            }
        }
    }

    /// Gracefully ends the session: the server finishes flushing and
    /// closes the socket.
    pub fn close(mut self) -> std::io::Result<()> {
        let mut frame = Vec::new();
        encode_frame(TAG_CLOSE, b"", &mut frame);
        self.stream.write_all(&frame)?;
        // Wait for the server's close so queued output is never lost to a
        // racing disconnect.
        let mut sink = [0u8; 256];
        use std::io::Read;
        while matches!(self.stream.read(&mut sink), Ok(n) if n > 0) {}
        Ok(())
    }
}

fn server_error(body: &[u8]) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, String::from_utf8_lossy(body).into_owned())
}
