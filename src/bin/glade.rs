//! `glade` — command-line grammar synthesis and grammar-based fuzzing.
//!
//! ```text
//! glade synth  --seed FILE...  (--cmd 'PROG ARGS…' | --target NAME)  [-o grammar.txt]
//!              [--cache FILE]
//!              [--stdin|--tempfile|--pool N] [--frame-batch N]
//!              [--oracle-timeout SECS] [--max-respawns N]
//!              [--max-queries N] [--no-chargen] [--no-phase2]
//! glade sample --grammar grammar.txt [--count N] [--max-depth D] [--seed-rng S]
//! glade check  --grammar grammar.txt [FILE]       # membership test (stdin default)
//! glade fuzz   --grammar grammar.txt --seed FILE... [--count N]    # splice fuzzing
//! glade cache  inspect FILE                        # snapshot format + counts
//! glade worker NAME                                # serve a built-in subject
//! glade targets                                    # list built-in subjects
//! glade serve  --socket PATH [--pool N] [--oracle-timeout S] [--cache-dir DIR]
//!              [--max-queries N] [--drain-timeout S] [--max-event-buffer N]
//!                                                  # multi-tenant synthesis daemon
//! glade client --socket PATH (--oracle SPEC | --resume ID) [--seed FILE...]
//!              [-o OUT] [--max-queries N] [--no-events] [--cache]
//!              [--connect-retries N] [--connect-backoff SECS]
//! ```
//!
//! The oracle is either an external command (exit status 0 = valid input,
//! input delivered on stdin or via a `{}` temp-file placeholder) or one of
//! the built-in instrumented targets from `glade-targets`. `--pool N`
//! (Linux and macOS, like `serve`) switches the external command to
//! pooled execution: N long-lived worker
//! processes answering queries over the length-prefixed verdict protocol
//! (see `glade_core::serve_oracle_worker` and the `glade-oracle-worker`
//! harness) instead of one process spawn per query — the throughput
//! difference on real targets is an order of magnitude. Pooled workers
//! answer *batched frames* (many queries per pipe round-trip, dispatched
//! from one event loop over nonblocking pipes) after a one-frame handshake
//! at spawn; `--frame-batch N` tunes the batch size. `--oracle-timeout SECS`
//! bounds every oracle interaction with a per-query deadline (a worker or
//! process that hangs is killed and the query retried or counted as a
//! failure — a hung parser can cost queries, never the run), and
//! `--max-respawns N` tunes how many consecutive unanswered worker
//! failures trip a pool slot's circuit breaker. `glade worker NAME`
//! serves any built-in target or Section 8.2 language over the protocol,
//! so a pooled run needs no separate harness binary:
//! `glade synth --seed s.xml --cmd 'glade worker xml' --pool 8`.
//!
//! `--cache FILE` persists the membership-query cache across invocations:
//! repeated synth runs against the same oracle warm-start from the snapshot
//! and re-pay only genuinely new oracle calls. Snapshots are fingerprinted
//! with the oracle's identity (command line or target name); loading a
//! snapshot produced by a *different* oracle is refused rather than
//! silently replaying stale verdicts. Snapshots are in the indexed binary
//! format (`glade-cachebin v1`, see `glade_core::CacheSnapshot`); a file
//! in any other format is refused with an error naming it and left as it
//! is. `glade cache inspect` prints a snapshot's header offline.
//!
//! `glade serve` runs the multi-tenant synthesis daemon (`glade-serve v2`
//! over a unix socket; see `glade_core::serve`): concurrent clients open
//! campaigns against `target:NAME` (in-process built-ins, same names as
//! `glade worker`) or `cmd:CMDLINE` (a pooled worker command) oracles,
//! stream seed batches, and receive live synthesis events plus grammars
//! that are byte-identical to local runs. `glade client` drives one
//! campaign from the command line, printing event wire lines to stderr
//! and the grammar to stdout. `glade synth --events` prints the same
//! event wire lines for purely local runs.
//!
//! With `--cache-dir` the server keeps a crash-safe campaign journal:
//! campaigns interrupted by a crash or restart are listed at startup and
//! re-attachable with `glade client --resume ID`, which replays the
//! journaled seed batches over the warm persistent cache and returns the
//! identical grammar while re-paying ~zero unique oracle queries. The
//! first `SIGTERM`/`SIGINT` drains the server (no new campaigns, running
//! ones finish or checkpoint within `--drain-timeout`); a second signal
//! hard-stops it. `--max-event-buffer` bounds each client's queued event
//! stream — a stalled reader is demoted to result-only instead of ever
//! blocking a campaign.

#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_repro::core::serve::{
    drain_signal_count, install_drain_signals, OpenRequest, OracleFactory, ServeClient,
    ServeConfig, Server,
};
use glade_repro::core::{
    serve_oracle_worker, BinaryCacheFile, GladeBuilder, InputMode, Oracle, ProcessOracle,
    SynthEvent, SynthesisObserver,
};
#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_repro::core::{CancelToken, PooledProcessOracle};
use glade_repro::fuzz::{Fuzzer, GrammarFuzzer};
use glade_repro::grammar::{grammar_from_text, grammar_to_text, Earley, Grammar, Sampler};
use glade_repro::targets::programs::all_targets;
use glade_repro::targets::{subject_names, subject_oracle};
use rand::SeedableRng;
use std::io::{Read as _, Write as _};
use std::process::ExitCode;

/// `println!` to stdout, treating a closed stdout as a clean exit.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. Once the reader has gone away (`glade targets | head
/// -1`), nobody is left to read the rest, so a broken pipe ends the process
/// with status 0 instead of a panic; any other write error exits 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("glade: cannot write to stdout: {e}");
            std::process::exit(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("synth") => cmd_synth(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("worker") => return cmd_worker(&args[1..]),
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        Some("serve") => cmd_serve(&args[1..]),
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        Some("client") => cmd_client(&args[1..]),
        Some("targets") => {
            let programs = all_targets();
            for name in subject_names() {
                match programs.iter().find(|t| t.name() == name) {
                    Some(t) => outln!(
                        "{name:<12} {:>5} source lines, {:>4} coverage points, {} seeds",
                        t.source_lines(),
                        t.coverable_lines(),
                        t.seeds().len()
                    ),
                    None => outln!("{name:<12} in-process grammar oracle"),
                }
            }
            Ok(())
        }
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("glade: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
glade — grammar synthesis from examples and blackbox membership queries

USAGE:
  glade synth  --seed FILE... (--cmd 'PROG ARGS…' | --target NAME) [-o OUT]
               [--cache FILE]
               [--stdin|--tempfile|--pool N] [--frame-batch N]
               [--oracle-timeout SECS] [--max-respawns N]
               [--max-queries N] [--no-chargen] [--no-phase2]
               [--events]
  glade sample --grammar FILE [--count N] [--max-depth D] [--seed-rng S]
  glade check  --grammar FILE [INPUT-FILE]
  glade fuzz   --grammar FILE --seed FILE... [--count N] [--seed-rng S]
  glade cache  inspect FILE        # print a snapshot's format and counts
  glade worker NAME                # serve a built-in subject over the
                                   # pooled-oracle protocol (for --pool)
  glade targets                    # list the built-in subjects
  glade serve  --socket PATH [--pool N] [--oracle-timeout SECS]
               [--cache-dir DIR] [--max-queries N] [--drain-timeout SECS]
               [--max-event-buffer N]
               # SIGTERM/SIGINT drains (campaigns finish or checkpoint);
               # a second signal hard-stops
  glade client --socket PATH (--oracle SPEC | --resume ID) [--seed FILE...]
               [-o OUT] [--max-queries N] [--no-events] [--cache]
               [--connect-retries N] [--connect-backoff SECS]
               # SPEC: target:NAME (built-in) or cmd:CMDLINE (pooled worker)
               # --resume re-attaches a journaled campaign after a restart
";

/// Minimal argument cursor.
struct Args<'a> {
    argv: &'a [String],
    i: usize,
}

impl<'a> Args<'a> {
    fn new(argv: &'a [String]) -> Self {
        Args { argv, i: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let v = self.argv.get(self.i).map(String::as_str);
        if v.is_some() {
            self.i += 1;
        }
        v
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_grammar(path: &str) -> Result<Grammar, String> {
    let text = String::from_utf8(read_file(path)?).map_err(|_| format!("{path} is not UTF-8"))?;
    grammar_from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_synth(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut seeds: Vec<Vec<u8>> = Vec::new();
    let mut cmdline: Option<String> = None;
    let mut target_name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut cache_path: Option<String> = None;
    let mut input_mode = InputMode::Stdin;
    let mut pool: Option<usize> = None;
    let mut frame_batch: Option<usize> = None;
    let mut max_respawns: Option<u32> = None;
    let mut events = false;
    let mut builder = GladeBuilder::new();

    while let Some(flag) = args.next() {
        match flag {
            "--seed" => seeds.push(read_file(args.value("--seed")?)?),
            "--cmd" => cmdline = Some(args.value("--cmd")?.to_owned()),
            "--target" => target_name = Some(args.value("--target")?.to_owned()),
            "-o" | "--out" => out = Some(args.value("-o")?.to_owned()),
            "--cache" => cache_path = Some(args.value("--cache")?.to_owned()),
            "--stdin" => input_mode = InputMode::Stdin,
            "--tempfile" => input_mode = InputMode::TempFile,
            "--pool" => {
                let n: usize = args
                    .value("--pool")?
                    .parse()
                    .map_err(|_| "--pool needs a worker count".to_owned())?;
                if n == 0 {
                    return Err("--pool needs at least one worker".into());
                }
                pool = Some(n);
            }
            "--frame-batch" => {
                let n: usize = args
                    .value("--frame-batch")?
                    .parse()
                    .map_err(|_| "--frame-batch needs a query count".to_owned())?;
                if !(1..=glade_repro::core::wire::MAX_FRAME_QUERIES).contains(&n) {
                    return Err(format!(
                        "--frame-batch must be in 1..={}",
                        glade_repro::core::wire::MAX_FRAME_QUERIES
                    ));
                }
                frame_batch = Some(n);
            }
            "--oracle-timeout" => {
                let secs: f64 = args
                    .value("--oracle-timeout")?
                    .parse()
                    .map_err(|_| "--oracle-timeout needs seconds".to_owned())?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--oracle-timeout needs a positive number of seconds".into());
                }
                builder = builder.oracle_timeout(std::time::Duration::from_secs_f64(secs));
            }
            "--max-respawns" => {
                let n: u32 = args
                    .value("--max-respawns")?
                    .parse()
                    .map_err(|_| "--max-respawns needs a count".to_owned())?;
                if n == 0 {
                    return Err("--max-respawns needs at least one attempt".into());
                }
                max_respawns = Some(n);
            }
            "--max-queries" => {
                builder = builder.max_queries(
                    args.value("--max-queries")?
                        .parse()
                        .map_err(|_| "--max-queries needs an integer".to_owned())?,
                )
            }
            "--no-chargen" => builder = builder.character_generalization(false),
            "--no-phase2" => builder = builder.phase2(false),
            "--events" => events = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if seeds.is_empty() {
        return Err("at least one --seed FILE is required".into());
    }
    if pool.is_none() && frame_batch.is_some() {
        return Err("--frame-batch tunes pooled oracles; add --pool N".into());
    }
    if pool.is_none() && max_respawns.is_some() {
        return Err("--max-respawns tunes pooled oracles; add --pool N".into());
    }

    // Build the oracle plus its identity fingerprint (used to tag the
    // persisted cache snapshot and refuse mismatched warm starts).
    let (oracle, fingerprint): (Box<dyn Oracle>, String) = match (cmdline, target_name) {
        (Some(cmd), None) => {
            let mut parts = cmd.split_whitespace();
            let prog = parts.next().ok_or("--cmd is empty")?;
            let cmd_args: Vec<&str> = parts.collect();
            match pool {
                #[cfg(not(any(target_os = "linux", target_os = "macos")))]
                Some(_) => return Err("--pool needs poll(2): Linux and macOS only".into()),
                #[cfg(any(target_os = "linux", target_os = "macos"))]
                Some(n) => {
                    // Pooled mode: the command must speak the worker
                    // protocol (wrap predicates with serve_oracle_worker /
                    // glade-oracle-worker). Input always travels over the
                    // protocol's stdin frames.
                    if input_mode == InputMode::TempFile {
                        return Err("--pool uses the worker protocol; drop --tempfile".into());
                    }
                    let mut o = PooledProcessOracle::new(prog).pool_size(n);
                    for a in &cmd_args {
                        o = o.arg(*a);
                    }
                    if let Some(fb) = frame_batch {
                        o = o.frame_batch(fb);
                    }
                    if let Some(k) = max_respawns {
                        o = o.max_respawns(k);
                    }
                    let fp = o.fingerprint();
                    (Box::new(o), fp)
                }
                None => {
                    let mut o = ProcessOracle::new(prog).input_mode(input_mode);
                    for a in &cmd_args {
                        o = o.arg(*a);
                    }
                    let fp = o.fingerprint();
                    (Box::new(o), fp)
                }
            }
        }
        (None, Some(name)) => {
            if pool.is_some() {
                return Err("--pool applies to --cmd oracles (targets run in-process)".into());
            }
            // Same names as `glade worker` and serve's `target:` specs.
            let oracle = subject_oracle(&name)
                .ok_or_else(|| format!("unknown target `{name}` (see `glade targets`)"))?;
            (oracle, format!("target:{name}"))
        }
        (Some(_), Some(_)) => return Err("--cmd and --target are mutually exclusive".into()),
        (None, None) => return Err("one of --cmd or --target is required".into()),
    };

    let start = std::time::Instant::now();
    let mut builder = builder.oracle_fingerprint(fingerprint);
    if events {
        builder = builder.observer(StderrEvents);
    }
    let mut session = builder.session(&*oracle);
    if let Some(path) = &cache_path {
        if std::path::Path::new(path).exists() {
            let loaded = session.load_cache(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("warm start: loaded {loaded} cached oracle verdicts from {path}");
        }
    }
    let result = session.add_seeds(&seeds).map_err(|e| e.to_string())?;
    eprintln!(
        "synthesized {} nonterminals / {} productions with {} oracle queries \
         ({} new this run) in {:?}",
        result.grammar.num_nonterminals(),
        result.grammar.num_productions(),
        result.stats.unique_queries,
        result.stats.new_unique_queries,
        start.elapsed()
    );
    if result.stats.probes_elided > 0 || result.stats.memo_hits > 0 {
        eprintln!(
            "query reduction: {} probe(s) elided, {} byte-class memo hit(s)",
            result.stats.probes_elided, result.stats.memo_hits
        );
    }
    if result.stats.budget_exhausted {
        eprintln!("warning: query budget exhausted; the grammar is under-generalized");
    }
    if result.stats.oracle_failures > 0 {
        eprintln!(
            "warning: {} oracle execution failure(s) — the affected checks answered \
             `false`, so the grammar may be under-generalized",
            result.stats.oracle_failures
        );
    }
    if result.stats.timed_out_queries > 0 {
        eprintln!(
            "warning: {} quer{} abandoned to the --oracle-timeout deadline \
             (hung workers were killed and the queries retried or degraded)",
            result.stats.timed_out_queries,
            if result.stats.timed_out_queries == 1 { "y" } else { "ies" }
        );
    }
    if result.stats.tripped_workers > 0 {
        eprintln!(
            "warning: {} worker-slot circuit breaker trip(s) — worker spawns kept \
             failing; the pool ran below --pool capacity for a cool-down",
            result.stats.tripped_workers
        );
    }
    if let Some(path) = &cache_path {
        session.save_cache(path).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("query cache saved to {path}");
    }

    let text = grammar_to_text(&result.grammar);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("grammar written to {path}");
        }
        None => write_stdout(format_args!("{text}")),
    }
    Ok(())
}

/// `glade cache inspect FILE` — prints a snapshot's format, entry counts,
/// fingerprint, and size. The snapshot is inspected from its header alone
/// (no full load), so this stays fast on multi-gigabyte caches.
fn cmd_cache(argv: &[String]) -> Result<(), String> {
    let path = match argv {
        [cmd, path] if cmd == "inspect" => path,
        _ => return Err("usage: glade cache inspect FILE".into()),
    };
    let snapshot = BinaryCacheFile::open(path).map_err(|e| format!("{path}: {e}"))?;
    outln!("format:       binary (glade-cachebin v1)");
    outln!("entries:      {}", snapshot.len());
    outln!("memo entries: {}", snapshot.memo_len());
    outln!("oracle:       {}", snapshot.fingerprint().unwrap_or("(untagged)"));
    outln!("file size:    {} bytes", snapshot.file_len());
    Ok(())
}

/// `glade worker NAME` — serve a built-in instrumented target
/// or Section 8.2 language over the pooled-oracle wire protocol, so
/// `glade synth --cmd 'glade worker NAME' --pool N` (and the test suites)
/// need no separate harness binary. Names resolve through
/// `glade_targets::subject_oracle`, as in `glade-oracle-worker`.
fn cmd_worker(argv: &[String]) -> ExitCode {
    let [name] = argv else {
        eprintln!("usage: glade worker NAME");
        return ExitCode::FAILURE;
    };
    let oracle: Box<dyn Oracle> = match subject_oracle(name) {
        Some(oracle) => oracle,
        None => {
            eprintln!("glade worker: unknown subject `{name}` (see `glade targets`)");
            return ExitCode::FAILURE;
        }
    };
    match serve_oracle_worker(|input| oracle.accepts(input)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("glade worker: protocol error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints every synthesis event as a wire line on stderr (`--events`).
struct StderrEvents;

impl SynthesisObserver for StderrEvents {
    fn on_event(&self, event: &SynthEvent) {
        eprintln!("{}", event.to_wire_line());
    }
}

/// The `glade serve` oracle factory: `target:NAME` resolves a built-in
/// subject in-process, `cmd:CMDLINE` spawns a pooled worker command.
#[cfg(any(target_os = "linux", target_os = "macos"))]
struct CliOracleFactory {
    pool: Option<usize>,
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
impl OracleFactory for CliOracleFactory {
    fn create(&self, spec: &str) -> Result<(std::sync::Arc<dyn Oracle>, String), String> {
        if let Some(name) = spec.strip_prefix("target:") {
            let oracle = subject_oracle(name)
                .ok_or_else(|| format!("unknown subject `{name}` (see `glade targets`)"))?;
            Ok((std::sync::Arc::from(oracle), format!("target:{name}")))
        } else if let Some(cmd) = spec.strip_prefix("cmd:") {
            let mut parts = cmd.split_whitespace();
            let prog = parts.next().ok_or_else(|| "empty worker command".to_owned())?;
            let mut oracle = PooledProcessOracle::new(prog);
            for arg in parts {
                oracle = oracle.arg(arg);
            }
            if let Some(n) = self.pool {
                oracle = oracle.pool_size(n);
            }
            let fingerprint = oracle.fingerprint();
            Ok((std::sync::Arc::new(oracle), fingerprint))
        } else {
            Err("oracle spec must be target:NAME or cmd:CMDLINE".into())
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut socket: Option<String> = None;
    let mut pool: Option<usize> = None;
    let mut config = ServeConfig::default();
    while let Some(flag) = args.next() {
        match flag {
            "--socket" => socket = Some(args.value("--socket")?.to_owned()),
            "--pool" => {
                let n: usize = args
                    .value("--pool")?
                    .parse()
                    .map_err(|_| "--pool needs a worker count".to_owned())?;
                if n == 0 {
                    return Err("--pool needs at least one worker".into());
                }
                pool = Some(n);
            }
            "--oracle-timeout" => {
                let secs: f64 = args
                    .value("--oracle-timeout")?
                    .parse()
                    .map_err(|_| "--oracle-timeout needs seconds".to_owned())?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--oracle-timeout needs a positive number of seconds".into());
                }
                config.oracle_timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--cache-dir" => {
                config.cache_dir = Some(args.value("--cache-dir")?.into());
            }
            "--max-queries" => {
                config.default_max_queries = Some(
                    args.value("--max-queries")?
                        .parse()
                        .map_err(|_| "--max-queries needs an integer".to_owned())?,
                )
            }
            "--drain-timeout" => {
                let secs: f64 = args
                    .value("--drain-timeout")?
                    .parse()
                    .map_err(|_| "--drain-timeout needs seconds".to_owned())?;
                if !(secs >= 0.0 && secs.is_finite()) {
                    return Err("--drain-timeout needs a non-negative number of seconds".into());
                }
                config.drain_timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--max-event-buffer" => {
                config.max_event_buffer = Some(
                    args.value("--max-event-buffer")?
                        .parse()
                        .map_err(|_| "--max-event-buffer needs an integer".to_owned())?,
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let socket = socket.ok_or("--socket PATH is required")?;
    if let Some(dir) = &config.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let server = Server::new(std::sync::Arc::new(CliOracleFactory { pool }), config);
    let resumable = server.resumable_campaigns();
    let _ = std::fs::remove_file(&socket);
    let listener = std::os::unix::net::UnixListener::bind(&socket)
        .map_err(|e| format!("cannot bind {socket}: {e}"))?;
    eprintln!("glade serve: listening on {socket} (glade-serve v2)");
    if !resumable.is_empty() {
        let ids: Vec<String> = resumable.iter().map(u32::to_string).collect();
        eprintln!(
            "glade serve: {} resumable campaign(s) from the journal: {} \
             (re-attach with `glade client --resume ID`)",
            ids.len(),
            ids.join(" ")
        );
    }
    // First SIGTERM/SIGINT drains (campaigns finish or checkpoint, caches
    // save, socket unlinks); a second signal hard-stops fail-closed.
    let shutdown = CancelToken::new();
    let drain = CancelToken::new();
    install_drain_signals();
    {
        let shutdown = shutdown.clone();
        let drain = drain.clone();
        std::thread::Builder::new()
            .name("glade-serve-signals".into())
            .spawn(move || {
                let mut announced = false;
                loop {
                    let signals = drain_signal_count();
                    if signals >= 2 {
                        eprintln!("glade serve: second signal; stopping now");
                        shutdown.cancel();
                        return;
                    }
                    if signals >= 1 && !announced {
                        eprintln!(
                            "glade serve: drain requested; finishing campaigns \
                             (signal again to force-stop)"
                        );
                        drain.cancel();
                        announced = true;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            })
            .map_err(|e| format!("cannot spawn signal watcher: {e}"))?;
    }
    server
        .run_with(listener, shutdown, drain, Some(std::path::Path::new(&socket)))
        .map_err(|e| format!("serve: {e}"))
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
fn cmd_client(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut socket: Option<String> = None;
    let mut seeds: Vec<Vec<u8>> = Vec::new();
    let mut out: Option<String> = None;
    let mut request: Option<OpenRequest> = None;
    let mut resume: Option<u32> = None;
    let mut max_queries: Option<usize> = None;
    let mut events = true;
    let mut cache = false;
    let mut connect_retries: u32 = 0;
    let mut connect_backoff = std::time::Duration::from_millis(500);
    while let Some(flag) = args.next() {
        match flag {
            "--socket" => socket = Some(args.value("--socket")?.to_owned()),
            "--oracle" => request = Some(OpenRequest::new(args.value("--oracle")?)),
            "--resume" => {
                resume = Some(
                    args.value("--resume")?
                        .parse()
                        .map_err(|_| "--resume needs a campaign id".to_owned())?,
                )
            }
            "--seed" => seeds.push(read_file(args.value("--seed")?)?),
            "-o" | "--out" => out = Some(args.value("-o")?.to_owned()),
            "--max-queries" => {
                max_queries = Some(
                    args.value("--max-queries")?
                        .parse()
                        .map_err(|_| "--max-queries needs an integer".to_owned())?,
                )
            }
            "--no-events" => events = false,
            "--cache" => cache = true,
            "--connect-retries" => {
                connect_retries = args
                    .value("--connect-retries")?
                    .parse()
                    .map_err(|_| "--connect-retries needs an integer".to_owned())?
            }
            "--connect-backoff" => {
                let secs: f64 = args
                    .value("--connect-backoff")?
                    .parse()
                    .map_err(|_| "--connect-backoff needs seconds".to_owned())?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--connect-backoff needs a positive number of seconds".into());
                }
                connect_backoff = std::time::Duration::from_secs_f64(secs);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let socket = socket.ok_or("--socket PATH is required")?;
    if request.is_some() && resume.is_some() {
        return Err("--oracle and --resume are mutually exclusive".into());
    }
    if request.is_none() && resume.is_none() {
        return Err("--oracle SPEC or --resume ID is required".into());
    }
    if resume.is_none() && seeds.is_empty() {
        return Err("at least one --seed FILE is required".into());
    }

    let mut client = ServeClient::connect_with_retry(&socket, connect_retries, connect_backoff)
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let on_event = |event: SynthEvent| eprintln!("{}", event.to_wire_line());
    let outcome = if let Some(id) = resume {
        let (campaign, fingerprint) = client.resume(id).map_err(|e| e.to_string())?;
        eprintln!("campaign {campaign} resumed against {fingerprint}");
        let replayed = client.resume_result(on_event).map_err(|e| e.to_string())?;
        if seeds.is_empty() {
            replayed
        } else {
            // New seeds after the replay extend the resumed campaign.
            client.synthesize(&seeds, on_event).map_err(|e| e.to_string())?
        }
    } else {
        let mut request = request.expect("checked above");
        request.max_queries = max_queries;
        request.events = events;
        request.cache = cache;
        let (campaign, fingerprint) = client.open(&request).map_err(|e| e.to_string())?;
        eprintln!("campaign {campaign} open against {fingerprint}");
        client.synthesize(&seeds, on_event).map_err(|e| e.to_string())?
    };
    eprintln!(
        "synthesized with {} oracle queries ({} new this run)",
        outcome.stats.unique_queries, outcome.stats.new_unique_queries
    );
    if outcome.stats.cancelled {
        eprintln!("warning: run was cancelled server-side; the grammar is degraded");
    }
    if outcome.stats.budget_exhausted {
        eprintln!("warning: query budget exhausted; the grammar is under-generalized");
    }
    client.close().map_err(|e| e.to_string())?;
    match out {
        Some(path) => {
            std::fs::write(&path, &outcome.grammar_text)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("grammar written to {path}");
        }
        None => write_stdout(format_args!("{}", outcome.grammar_text)),
    }
    Ok(())
}

fn cmd_sample(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut grammar_path = None;
    let mut count = 10usize;
    let mut max_depth = 32usize;
    let mut rng_seed = 0u64;
    while let Some(flag) = args.next() {
        match flag {
            "--grammar" => grammar_path = Some(args.value("--grammar")?.to_owned()),
            "--count" => count = args.value("--count")?.parse().map_err(|_| "bad --count")?,
            "--max-depth" => {
                max_depth = args.value("--max-depth")?.parse().map_err(|_| "bad --max-depth")?
            }
            "--seed-rng" => {
                rng_seed = args.value("--seed-rng")?.parse().map_err(|_| "bad --seed-rng")?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let grammar = load_grammar(&grammar_path.ok_or("--grammar is required")?)?;
    let sampler = Sampler::with_max_depth(&grammar, max_depth);
    let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
    for _ in 0..count {
        match sampler.sample(&mut rng) {
            Some(s) => outln!("{}", String::from_utf8_lossy(&s)),
            None => return Err("grammar is non-productive".into()),
        }
    }
    Ok(())
}

fn cmd_check(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut grammar_path = None;
    let mut input_path = None;
    while let Some(flag) = args.next() {
        match flag {
            "--grammar" => grammar_path = Some(args.value("--grammar")?.to_owned()),
            other if !other.starts_with('-') => input_path = Some(other.to_owned()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let grammar = load_grammar(&grammar_path.ok_or("--grammar is required")?)?;
    let input = match input_path {
        Some(p) => read_file(&p)?,
        None => {
            let mut buf = Vec::new();
            std::io::stdin().read_to_end(&mut buf).map_err(|e| format!("stdin: {e}"))?;
            buf
        }
    };
    let member = Earley::new(&grammar).accepts(&input);
    // The exit status carries the verdict, so a closed stdout is ignored.
    let _ = writeln!(std::io::stdout(), "{}", if member { "member" } else { "NOT a member" });
    if member {
        Ok(())
    } else {
        Err("input rejected".into())
    }
}

fn cmd_fuzz(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut grammar_path = None;
    let mut seeds: Vec<Vec<u8>> = Vec::new();
    let mut count = 10usize;
    let mut rng_seed = 0u64;
    while let Some(flag) = args.next() {
        match flag {
            "--grammar" => grammar_path = Some(args.value("--grammar")?.to_owned()),
            "--seed" => seeds.push(read_file(args.value("--seed")?)?),
            "--count" => count = args.value("--count")?.parse().map_err(|_| "bad --count")?,
            "--seed-rng" => {
                rng_seed = args.value("--seed-rng")?.parse().map_err(|_| "bad --seed-rng")?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let grammar = load_grammar(&grammar_path.ok_or("--grammar is required")?)?;
    let mut fuzzer = GrammarFuzzer::new(grammar, &seeds);
    if !seeds.is_empty() && fuzzer.parsed_seeds() == 0 {
        eprintln!("warning: no seed parses under the grammar; falling back to pure sampling");
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
    for _ in 0..count {
        let input = fuzzer.next_input(&mut rng);
        outln!("{}", String::from_utf8_lossy(&input));
    }
    Ok(())
}
