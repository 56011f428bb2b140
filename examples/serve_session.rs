//! The `glade serve` subsystem end to end, all in one process: a
//! multi-tenant synthesis server on a unix socket, two concurrent
//! campaigns with live event streams, a mid-run cancel, and a persistent
//! per-fingerprint query cache surviving a server restart.
//!
//! Four acts, on the paper's running example (Figures 1–3):
//!
//! 1. **Serve** — an in-process [`Server`] is spawned on a temp socket
//!    with an [`OracleFactory`] mapping `toy-xml` to the running-example
//!    oracle, and a cache directory for persistent campaign caches.
//! 2. **Two tenants** — two [`ServeClient`] campaigns run concurrently
//!    over the shared oracle (calling it at the same time), each
//!    printing its live event stream; both grammars are byte-identical to
//!    solo local runs.
//! 3. **Cancel** — a third campaign is cancelled mid-run through a
//!    [`CancelHandle`]; the degraded result still arrives, flagged
//!    `cancelled`, with the seed preserved.
//! 4. **Warm restart** — the server is shut down and a new one started on
//!    the same cache directory; the repeated campaign pays **zero** new
//!    unique queries.
//!
//! Run with: `cargo run --example serve_session`
//! (unix only: the server multiplexes unix-domain sockets with `poll(2)`).

#[cfg(any(target_os = "linux", target_os = "macos"))]
fn main() -> std::io::Result<()> {
    use glade_repro::core::serve::{
        CancelHandle, OpenRequest, OracleFactory, ServeClient, ServeConfig, Server,
    };
    use glade_repro::core::testing::xml_like;
    use glade_repro::core::{FnOracle, GladeBuilder, Oracle, SynthEvent};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("glade-serve-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let socket = dir.join("serve.sock");
    let cache_dir = dir.join("caches");
    std::fs::create_dir_all(&cache_dir)?;

    // Act 1: the server. The factory decides what oracle specs mean; here
    // one spec, the running example. Campaigns naming the same spec share
    // one oracle and call it concurrently.
    let factory: Arc<dyn OracleFactory> =
        Arc::new(|spec: &str| -> Result<(Arc<dyn Oracle>, String), String> {
            match spec {
                "toy-xml" => Ok((Arc::new(FnOracle::new(xml_like)), "example:toy-xml".into())),
                // A deliberately slow variant so act 3's cancel reliably
                // lands while the run is still in flight.
                "slow-toy-xml" => Ok((
                    Arc::new(FnOracle::new(|input: &[u8]| {
                        std::thread::sleep(std::time::Duration::from_micros(500));
                        xml_like(input)
                    })),
                    "example:slow-toy-xml".into(),
                )),
                other => Err(format!("unknown spec {other:?}")),
            }
        });
    let config = ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };
    let server = Server::new(Arc::clone(&factory), config.clone()).spawn(&socket)?;
    println!("server listening on {}", socket.display());

    // Act 2: two concurrent campaigns with live events, each checked
    // against its solo local baseline.
    let seed_sets: [&[u8]; 2] = [b"<a>hi</a>", b"<a><a>deep</a></a>"];
    let outcomes = std::thread::scope(|s| -> std::io::Result<Vec<(String, usize)>> {
        let handles: Vec<_> = seed_sets
            .iter()
            .enumerate()
            .map(|(tenant, seed)| {
                let socket = socket.clone();
                s.spawn(move || -> std::io::Result<(String, usize)> {
                    let mut client = ServeClient::connect(&socket)?;
                    let mut request = OpenRequest::new("toy-xml");
                    // Only tenant 0 persists its cache: both campaigns
                    // share one oracle fingerprint, so they would share
                    // one cache file — and act 4 replays tenant 0's run.
                    request.cache = tenant == 0;
                    let (id, fingerprint) = client.open(&request)?;
                    println!("tenant {tenant}: campaign #{id} against {fingerprint}");
                    let outcome = client.synthesize(&[seed.to_vec()], |event| {
                        if let SynthEvent::PhaseFinished { phase, unique_queries, .. } = event {
                            println!("tenant {tenant}:   [{phase}] done ({unique_queries} unique)");
                        }
                    })?;
                    client.close()?;
                    Ok((outcome.grammar_text, outcome.stats.unique_queries))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    })?;
    for (tenant, ((grammar, unique), seed)) in outcomes.iter().zip(&seed_sets).enumerate() {
        let oracle = FnOracle::new(xml_like);
        let solo =
            GladeBuilder::new().synthesize(&[seed.to_vec()], &oracle).expect("solo run succeeds");
        let identical = *grammar == glade_repro::grammar::grammar_to_text(&solo.grammar);
        println!(
            "tenant {tenant}: {unique} unique queries, byte-identical to solo run: {identical}"
        );
        assert!(identical, "the server must reproduce the local grammar exactly");
    }

    // Act 3: cancel a campaign mid-run from another thread. The cancel is
    // sticky and fail-closed: a degraded RESULT still arrives and the
    // grammar still contains the seed.
    let mut client = ServeClient::connect(&socket)?;
    client.open(&OpenRequest::new("slow-toy-xml"))?;
    let mut cancel: CancelHandle = client.cancel_handle()?;
    let canceller = std::thread::spawn(move || {
        // Let the run get going, then pull the plug.
        std::thread::sleep(std::time::Duration::from_millis(100));
        cancel.cancel()
    });
    let outcome = client.synthesize(&[b"<a>hi</a>".to_vec()], |_| {})?;
    canceller.join().expect("canceller thread")?;
    client.close()?;
    println!(
        "cancelled campaign: cancelled={} (grammar still has {} bytes)",
        outcome.stats.cancelled,
        outcome.grammar_text.len()
    );

    // Act 4: restart the server over the same cache directory. The first
    // tenant's campaign cache is found by oracle fingerprint, so the
    // repeated run pays zero new unique queries.
    server.shutdown()?;
    let server = Server::new(factory, config).spawn(&socket)?;
    let mut client = ServeClient::connect(&socket)?;
    let mut request = OpenRequest::new("toy-xml");
    request.cache = true;
    client.open(&request)?;
    let warm = client.synthesize(&[b"<a>hi</a>".to_vec()], |_| {})?;
    client.close()?;
    println!(
        "warm restart: {} new unique queries (cache reloaded from {})",
        warm.stats.new_unique_queries,
        cache_dir.display()
    );
    assert_eq!(warm.stats.new_unique_queries, 0, "the warm campaign must re-pay nothing");

    server.shutdown()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

#[cfg(not(any(target_os = "linux", target_os = "macos")))]
fn main() {
    eprintln!("the glade serve subsystem is unix-only");
}
