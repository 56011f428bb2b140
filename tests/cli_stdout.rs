//! The `glade` CLI treats a closed stdout as a clean exit: piping its
//! output into a reader that stops early (`glade targets | head -1`) must
//! neither panic nor fail.

use glade_repro::grammar::grammar_to_text;
use glade_repro::targets::languages::toy_xml;
use glade_repro::targets::subject_names;
use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn assert_clean_exit(what: &str, output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{what}: {:?}, stderr:\n{stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
}

/// The reader is gone before the first byte is written.
#[test]
fn targets_into_a_closed_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_glade"))
        .arg("targets")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run glade targets");
    assert_clean_exit("glade targets", &output);
}

/// `glade targets` lists every name the subject registry resolves, so the
/// unknown-name errors that point at it name a complete list.
#[test]
fn targets_lists_every_subject_name() {
    let output = Command::new(env!("CARGO_BIN_EXE_glade"))
        .arg("targets")
        .stderr(Stdio::piped())
        .output()
        .expect("run glade targets");
    assert_clean_exit("glade targets", &output);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 listing");
    for name in subject_names() {
        assert!(
            stdout.lines().any(|line| line.split_whitespace().next() == Some(name.as_str())),
            "`{name}` starts no line of:\n{stdout}"
        );
    }
}

/// The reader takes one line of a long stream, then closes.
#[test]
fn sample_into_an_early_closing_reader_exits_cleanly() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_stdout_toy.grammar");
    std::fs::write(&path, grammar_to_text(toy_xml().grammar())).expect("write grammar");
    let mut child = Command::new(env!("CARGO_BIN_EXE_glade"))
        .args(["sample", "--count", "200000", "--grammar"])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn glade sample");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout")).read_line(&mut first).expect("one line");
    // The reader (and with it the pipe's only read end) is dropped here,
    // long before 200 000 samples could have been written.
    let output = child.wait_with_output().expect("wait for glade sample");
    assert_clean_exit("glade sample", &output);
}

/// `--oracle-timeout` sets the deadline on the `--cmd` oracle the CLI
/// builds. A `--target` subject runs in-process, so the flag is refused
/// there (like `--pool`) instead of being silently ignored.
#[test]
fn synth_takes_an_oracle_timeout_only_for_cmd_oracles() {
    let seed = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_timeout_seed.xml");
    std::fs::write(&seed, b"<a>hi</a>").expect("write seed");
    let synth = |oracle: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_glade"))
            .arg("synth")
            .arg("--seed")
            .arg(&seed)
            .args(oracle)
            .args(["--oracle-timeout", "5"])
            .output()
            .expect("run glade synth")
    };

    let refused = synth(&["--target", "toy-xml"]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "--target accepted --oracle-timeout:\n{stderr}");
    assert!(stderr.contains("--oracle-timeout applies to --cmd oracles"), "{stderr}");
    assert!(refused.stdout.is_empty(), "a refused run prints no grammar");

    // `--pool` needs poll(2), like the pooled oracle itself.
    if cfg!(any(target_os = "linux", target_os = "macos")) {
        let worker = format!("{} worker toy-xml", env!("CARGO_BIN_EXE_glade"));
        let pooled = synth(&["--cmd", &worker, "--pool", "1"]);
        assert_clean_exit("glade synth --cmd --oracle-timeout", &pooled);
        let grammar = String::from_utf8(pooled.stdout).expect("utf-8 grammar");
        assert_eq!(
            grammar,
            grammar_to_text(
                &glade_repro::core::GladeBuilder::new()
                    .synthesize(&[b"<a>hi</a>".to_vec()], &toy_xml().oracle())
                    .expect("valid seed")
                    .grammar
            )
        );
    }
}
