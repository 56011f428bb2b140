//! `glade-oracle-worker` — a pooled-oracle worker harness for the built-in
//! evaluation subjects.
//!
//! Wraps any built-in instrumented target (`glade targets`) or handwritten
//! Section 8.2 language in the length-prefixed stdin/stdout verdict
//! protocol of `glade_core::PooledProcessOracle` (see the protocol spec in
//! `glade_core::oracle`), so real-process oracle throughput can be
//! exercised — and benchmarked — without writing a bespoke worker per
//! target:
//!
//! ```text
//! glade-oracle-worker <NAME>                 # serve the protocol until EOF
//! glade-oracle-worker <NAME> --once          # read all of stdin, exit 0/1
//! glade-oracle-worker <NAME> --crash-after N # die after N answers (tests)
//! glade-oracle-worker <NAME> --hang-after N  # answer N, then hang forever
//! glade-oracle-worker <NAME> --stall-ms M    # slow-loris: M ms per verdict
//! glade-oracle-worker <NAME> --garbage-after N # emit 0x7f verdicts past N
//! glade-oracle-worker <NAME> --flaky-spawn P # alternate spawns die (file P)
//! glade-oracle-worker --list                 # names this worker can serve
//! ```
//!
//! `--once` makes the same subject drivable by a spawn-per-query
//! `ProcessOracle` (validity = exit status), which is exactly what the
//! pooled oracle's fallback path and the pooled-vs-spawn benchmark need.
//! The protocol mode acknowledges the pool's spawn-time handshake and then
//! answers batched frames.
//!
//! The fault flags feed a deterministic `glade_core::FaultPlan` and route
//! serving through `glade_core::serve_faulty_worker`: `--crash-after N`
//! exits abruptly after answering N queries (the crash-recovery battery
//! kills workers mid-batch this way), `--hang-after N` answers N queries
//! and then goes silent without exiting (the query-deadline battery's
//! hung-worker mode — mid-frame when query N+1 arrives inside a batch), `--stall-ms M` trickles verdicts one byte every M milliseconds
//! (slow-loris — slow but healthy, which a per-verdict deadline must
//! tolerate), `--garbage-after N` deviates from the protocol without
//! dying, and `--flaky-spawn PATH` makes alternate spawns of this command
//! die instantly (the respawn-backoff/breaker battery's spawn-streak
//! mode; PATH is the cross-process spawn counter). With none of these
//! flags the serve path is byte-identical to the clean worker.
//!
//! `NAME` is any of `glade_targets::subject_names`: an instrumented target
//! (`xml`, `grep`, `sed`, …) or a handwritten language (`url-lang`,
//! `lisp-lang`, `toy-xml`, … — suffixed to avoid clashing with the
//! same-named targets).

use glade_core::{flaky_spawn_should_die, serve_faulty_worker, FaultPlan};
use glade_targets::{subject_names, subject_oracle};
use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--list") {
        for name in subject_names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let Some((name, rest)) = args.split_first() else {
        eprintln!(
            "usage: glade-oracle-worker <NAME> [--once] [--crash-after N] \
             [--hang-after N] [--stall-ms M] [--garbage-after N] [--flaky-spawn PATH] | --list"
        );
        return ExitCode::FAILURE;
    };
    let mut once = false;
    let mut plan = FaultPlan::new();
    let mut flaky_spawn: Option<std::path::PathBuf> = None;
    let mut i = 0;
    // The counted fault flags share one parsing shape: `--flag N`.
    let counted = |rest: &[String], i: &mut usize, flag: &str| -> Option<usize> {
        *i += 1;
        let n = rest.get(*i).and_then(|v| v.parse().ok());
        if n.is_none() {
            eprintln!("glade-oracle-worker: {flag} needs a count");
        }
        n
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--once" => once = true,
            "--crash-after" => match counted(rest, &mut i, "--crash-after") {
                Some(n) => plan = plan.crash_after(n),
                None => return ExitCode::FAILURE,
            },
            "--hang-after" => match counted(rest, &mut i, "--hang-after") {
                Some(n) => plan = plan.hang_after(n),
                None => return ExitCode::FAILURE,
            },
            "--stall-ms" => match counted(rest, &mut i, "--stall-ms") {
                Some(ms) => plan = plan.stall_ms(ms as u64),
                None => return ExitCode::FAILURE,
            },
            "--garbage-after" => match counted(rest, &mut i, "--garbage-after") {
                Some(n) => plan = plan.garbage_after(n),
                None => return ExitCode::FAILURE,
            },
            "--flaky-spawn" => {
                i += 1;
                match rest.get(i) {
                    Some(p) => flaky_spawn = Some(std::path::PathBuf::from(p)),
                    None => {
                        eprintln!("glade-oracle-worker: --flaky-spawn needs a counter path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("glade-oracle-worker: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if let Some(path) = &flaky_spawn {
        // The spawn-streak fault: alternate spawns of this command die
        // before speaking a byte of protocol, which the pool observes as
        // a spawn-or-crash failure streak.
        if flaky_spawn_should_die(path) {
            return ExitCode::from(43);
        }
    }
    let Some(oracle) = subject_oracle(name) else {
        eprintln!("glade-oracle-worker: unknown subject `{name}` (try --list)");
        return ExitCode::FAILURE;
    };
    if once {
        // Spawn-per-query mode: one verdict from the exit status.
        let mut input = Vec::new();
        if std::io::stdin().read_to_end(&mut input).is_err() {
            return ExitCode::FAILURE;
        }
        return if oracle.accepts(&input) { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }
    // A no-op plan serves the clean loop byte-identically; any fault flag
    // routes through the deterministic fault harness (see
    // `glade_core::FaultPlan`).
    match serve_faulty_worker(&plan, |input: &[u8]| oracle.accepts(input)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("glade-oracle-worker: protocol error: {e}");
            ExitCode::FAILURE
        }
    }
}
