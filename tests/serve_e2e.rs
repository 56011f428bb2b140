//! End-to-end test for the `glade serve` daemon: a real server process and
//! real `glade client` processes talking over a unix socket, with the
//! grammars pinned byte-identical to local `glade synth` runs on the same
//! seeds — the CLI-level version of the determinism pin that
//! `crates/core/tests/serve.rs` checks in-process.

#![cfg(any(target_os = "linux", target_os = "macos"))]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-test timeout guard, as in the core protocol suites: a wedged accept
/// loop must fail the job fast instead of hanging it.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(name: &'static str) -> Self {
        let secs = std::env::var("GLADE_TEST_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(120u64);
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(secs);
            while Instant::now() < deadline {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            eprintln!("watchdog: `{name}` still running after {secs}s — the serve loop is hung");
            std::process::exit(99);
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Kills the server process on every exit path.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn glade() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glade"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glade-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wait_for_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(Instant::now() < deadline, "server never bound {}", path.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `glade synth` on a built-in target: the local baseline.
fn synth_local(target: &str, seed: &Path, out: &Path) {
    let status = glade()
        .args(["synth", "--target", target, "--max-queries", "20000", "--seed"])
        .arg(seed)
        .arg("-o")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run glade synth");
    assert!(status.success(), "glade synth --target {target} failed");
}

/// Spawns `glade client` against the server for the same target and seed.
fn spawn_client(socket: &Path, target: &str, seed: &Path, out: &Path, events: bool) -> Child {
    let mut cmd = glade();
    cmd.args(["client", "--socket"])
        .arg(socket)
        .args(["--oracle", &format!("target:{target}"), "--max-queries", "20000", "--seed"])
        .arg(seed)
        .arg("-o")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if !events {
        cmd.arg("--no-events");
    }
    cmd.spawn().expect("spawn glade client")
}

#[test]
fn concurrent_clients_match_local_synth_byte_for_byte() {
    let _watchdog = Watchdog::arm("concurrent_clients_match_local_synth_byte_for_byte");
    let dir = scratch_dir("determinism");
    let socket = dir.join("serve.sock");
    let seed = dir.join("seed.xml");
    std::fs::write(&seed, b"<a>hi</a>").expect("write seed");

    // Two real targets, as in the acceptance criteria; both accept the
    // same seed, which keeps the runs short and the comparison sharp.
    let targets = ["toy-xml", "xml"];
    for target in targets {
        synth_local(target, &seed, &dir.join(format!("local-{target}.txt")));
    }

    let server = ServerGuard(
        glade()
            .args(["serve", "--socket"])
            .arg(&socket)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn glade serve"),
    );
    wait_for_socket(&socket);

    // Both clients run concurrently against the one server; one keeps the
    // event stream on so the EVENT path is exercised end to end.
    let clients: Vec<(&str, Child)> = targets
        .iter()
        .enumerate()
        .map(|(i, target)| {
            let out = dir.join(format!("served-{target}.txt"));
            (*target, spawn_client(&socket, target, &seed, &out, i == 0))
        })
        .collect();
    for (target, mut client) in clients {
        let status = client.wait().expect("wait for client");
        assert!(status.success(), "glade client for {target} failed");
    }

    for target in targets {
        let local = std::fs::read(dir.join(format!("local-{target}.txt"))).expect("local grammar");
        let served =
            std::fs::read(dir.join(format!("served-{target}.txt"))).expect("served grammar");
        assert!(!local.is_empty(), "{target}: local grammar must be non-trivial");
        assert_eq!(
            local, served,
            "{target}: the served grammar must be byte-identical to local synth"
        );
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_campaign_resumes_byte_identical_on_restart() {
    let _watchdog = Watchdog::arm("sigkilled_campaign_resumes_byte_identical_on_restart");
    let dir = scratch_dir("crash-resume");
    let socket = dir.join("serve.sock");
    let cache_dir = dir.join("caches");
    let seed = dir.join("seed.xml");
    std::fs::write(&seed, b"<a>hi</a>").expect("write seed");

    // The uninterrupted local baseline the resumed grammar must match.
    synth_local("toy-xml", &seed, &dir.join("local.txt"));

    let mut server = glade()
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--cache-dir")
        .arg(&cache_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn glade serve");
    wait_for_socket(&socket);

    // Drive the campaign with the in-process client so the server can be
    // SIGKILLed while the campaign is still open (no CLOSE ever sent —
    // exactly what a crashed deployment looks like).
    use glade_repro::core::serve::{OpenRequest, ServeClient};
    let mut request = OpenRequest::new("target:toy-xml");
    request.cache = true;
    let mut client = ServeClient::connect(&socket).expect("connect");
    let (campaign, _fingerprint) = client.open(&request).expect("open");
    let first = client.synthesize(&[b"<a>hi</a>".to_vec()], |_| {}).expect("first batch");
    assert_eq!(first.stats.unique_queries, 965, "golden unique pin");
    assert_eq!(first.stats.total_queries, 985, "golden total pin");

    // SIGKILL mid-campaign: no drain, no flush, no goodbye.
    server.kill().expect("SIGKILL glade serve");
    let _ = server.wait();
    drop(client);

    // Restart over the same cache dir. The resume client starts before
    // waiting for the socket, exercising --connect-retries for real.
    let server = ServerGuard(
        glade()
            .args(["serve", "--socket"])
            .arg(&socket)
            .arg("--cache-dir")
            .arg(&cache_dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("respawn glade serve"),
    );
    let resumed_out = dir.join("resumed.txt");
    let output = glade()
        .args(["client", "--socket"])
        .arg(&socket)
        .args([
            "--resume",
            &campaign.to_string(),
            "--connect-retries",
            "40",
            "--connect-backoff",
            "0.05",
            "--no-events",
            "-o",
        ])
        .arg(&resumed_out)
        .output()
        .expect("run glade client --resume");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "resume client failed: {stderr}");
    assert!(
        stderr.contains(&format!("campaign {campaign} resumed")),
        "the client reports the resumed campaign: {stderr}"
    );
    assert!(
        stderr.contains("synthesized with 965 oracle queries (0 new this run)"),
        "the replay keeps the golden pin and re-pays no queries: {stderr}"
    );

    let local = std::fs::read(dir.join("local.txt")).expect("local grammar");
    let resumed = std::fs::read(&resumed_out).expect("resumed grammar");
    assert!(!local.is_empty(), "the baseline grammar must be non-trivial");
    assert_eq!(local, resumed, "the resumed grammar is byte-identical to an uninterrupted run");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_cleanly_and_unlinks_the_socket() {
    let _watchdog = Watchdog::arm("sigterm_drains_cleanly_and_unlinks_the_socket");
    let dir = scratch_dir("drain");
    let socket = dir.join("serve.sock");
    let seed = dir.join("seed.xml");
    std::fs::write(&seed, b"<a>hi</a>").expect("write seed");

    let server = ServerGuard(
        glade()
            .args(["serve", "--socket"])
            .arg(&socket)
            .args(["--drain-timeout", "30"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn glade serve"),
    );
    wait_for_socket(&socket);

    // Warm the server with one complete campaign first, so the drain runs
    // on a server that has actually served.
    let out = dir.join("served.txt");
    let mut client = spawn_client(&socket, "toy-xml", &seed, &out, false);
    assert!(client.wait().expect("wait for client").success(), "warm-up campaign failed");

    // One SIGTERM must be enough: drain, then exit 0 on its own.
    let mut server = server;
    let pid = server.0.id().to_string();
    let sent = Command::new("kill").args(["-TERM", &pid]).status().expect("send SIGTERM");
    assert!(sent.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "server did not exit after SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "a drained server exits cleanly, got {status}");
    assert!(!socket.exists(), "the drained server unlinks its socket");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_reports_server_side_seed_rejection() {
    let _watchdog = Watchdog::arm("client_reports_server_side_seed_rejection");
    let dir = scratch_dir("rejection");
    let socket = dir.join("serve.sock");
    let seed = dir.join("seed.bad");
    std::fs::write(&seed, b"<a>HI</a>").expect("write seed");

    let server = ServerGuard(
        glade()
            .args(["serve", "--socket"])
            .arg(&socket)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn glade serve"),
    );
    wait_for_socket(&socket);

    let output = glade()
        .args(["client", "--socket"])
        .arg(&socket)
        .args(["--oracle", "target:toy-xml", "--no-events", "--seed"])
        .arg(&seed)
        .output()
        .expect("run glade client");
    assert!(!output.status.success(), "a rejected seed must fail the client");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("reject"), "stderr names the rejection: {stderr}");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
