//! Learning an input grammar for an external binary via process spawning —
//! and via the persistent worker-pool protocol.
//!
//! GLADE is blackbox: the oracle only needs to run the program and observe
//! acceptance (Section 2). Part one drives the system `grep` binary —
//! each membership query spawns `grep -E <candidate> /dev/null` and checks
//! the exit status (grep exits 2 on a malformed pattern), then synthesizes
//! a grammar for the accepted pattern syntax from a tiny seed.
//!
//! Part two shows the pooled alternative: this example re-executes itself
//! as a protocol worker (`glade_core::serve_oracle_worker`) and a
//! `PooledProcessOracle` poses every membership query of the paper's
//! running example over pipes to long-lived workers — a real-process
//! oracle without a process spawn per query (typically well over an order
//! of magnitude more queries/sec than spawning).
//!
//! Run with: `cargo run --release --example process_oracle`
//! (Requires a Unix-like system with `grep` on PATH for part one, and
//! Linux or macOS, where the pool is available, for part two; each part
//! skips gracefully when its prerequisites are missing.)

#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_repro::core::PooledProcessOracle;
use glade_repro::core::{testing::xml_like, GladeBuilder, Oracle};
use glade_repro::grammar::Sampler;
use rand::SeedableRng;
use std::process::Command;

fn grep_available() -> bool {
    Command::new("grep").arg("--version").output().map(|o| o.status.success()).unwrap_or(false)
}

fn main() {
    // Self-exec worker mode for part two: serve the running example's
    // language over the pooled-oracle wire protocol until stdin closes.
    if std::env::args().nth(1).as_deref() == Some("--oracle-worker") {
        glade_repro::core::serve_oracle_worker(xml_like).expect("protocol I/O");
        return;
    }

    #[cfg(any(target_os = "linux", target_os = "macos"))]
    pooled_demo();

    if !grep_available() {
        eprintln!("`grep` is not available on this system; skipping the spawn demo.");
        return;
    }

    // grep -E PATTERN /dev/null: exit 1 = valid pattern, no match;
    // exit 2 = bad pattern. Wrap so "valid" means exit status 0 or 1.
    #[derive(Debug)]
    struct GrepPattern;
    impl Oracle for GrepPattern {
        fn accepts(&self, input: &[u8]) -> bool {
            // Reject patterns with NUL/newline (argv cannot carry them).
            if input.iter().any(|&b| b == 0 || b == b'\n') {
                return false;
            }
            let Ok(pattern) = std::str::from_utf8(input) else { return false };
            Command::new("grep")
                .arg("-E")
                .arg("--")
                .arg(pattern)
                .arg("/dev/null")
                .output()
                .map(|o| matches!(o.status.code(), Some(0) | Some(1)))
                .unwrap_or(false)
        }
    }

    let oracle = GrepPattern;
    let seeds = vec![b"(ab|c)*x".to_vec()];

    println!("Learning grep -E pattern syntax by spawning grep per query…");
    // Each query costs a process spawn: keep the budget small, skip the
    // expensive character-generalization sweep, and let the batched query
    // engine overlap spawns across worker threads (grep runs are
    // independent).
    let builder =
        GladeBuilder::new().character_generalization(false).max_queries(400).worker_threads(4);
    let start = std::time::Instant::now();
    match builder.synthesize(&seeds, &oracle) {
        Ok(result) => {
            // The session cache answers repeated checks, so each distinct
            // query costs exactly one spawn.
            println!(
                "Done in {:?} after {} process spawns.",
                start.elapsed(),
                result.stats.unique_queries
            );
            println!("\nSynthesized grammar:");
            for line in result.grammar.to_string().lines() {
                println!("    {line}");
            }
            println!("\nSample patterns generated from it (all accepted by grep):");
            let sampler = Sampler::new(&result.grammar);
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut shown = 0;
            while shown < 5 {
                let Some(s) = sampler.sample(&mut rng) else { break };
                if oracle.accepts(&s) {
                    println!("    {:?}", String::from_utf8_lossy(&s));
                    shown += 1;
                }
            }
        }
        Err(e) => println!("Synthesis failed: {e}"),
    }
}

/// Part two: the full running example (Figures 1–3) posed to a pool of
/// persistent worker processes instead of an in-process closure.
#[cfg(any(target_os = "linux", target_os = "macos"))]
fn pooled_demo() {
    let Ok(me) = std::env::current_exe() else {
        eprintln!("cannot locate the example binary; skipping the pooled demo.");
        return;
    };
    println!("Learning the running example over a pool of 4 persistent workers…");
    let oracle = PooledProcessOracle::new(me).arg("--oracle-worker").pool_size(4);
    let start = std::time::Instant::now();
    match GladeBuilder::new()
        .worker_threads(4)
        .oracle_fingerprint(oracle.fingerprint())
        .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
    {
        Ok(result) => {
            let elapsed = start.elapsed();
            println!(
                "Done in {:?}: {} distinct real-process queries ({:.0} queries/sec), \
                 {} worker respawns, {} failures.",
                elapsed,
                result.stats.unique_queries,
                result.stats.unique_queries as f64 / elapsed.as_secs_f64().max(1e-9),
                oracle.respawn_count(),
                result.stats.oracle_failures,
            );
            println!("Synthesized grammar:");
            for line in result.grammar.to_string().lines() {
                println!("    {line}");
            }
            println!();
        }
        Err(e) => println!("Pooled synthesis failed: {e}\n"),
    }
}
