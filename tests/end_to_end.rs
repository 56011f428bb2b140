//! Cross-crate integration tests: the full GLADE pipeline against the
//! instrumented target programs — including the same synthesis driven
//! through the pooled process-oracle path (`glade worker` over batched
//! protocol frames) at several pool sizes, which must be byte-identical.

#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_repro::core::PooledProcessOracle;
use glade_repro::core::{snapshot_from_binary, GladeBuilder, Oracle};
use glade_repro::fuzz::{run_campaign, GrammarFuzzer, NaiveFuzzer};
#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_repro::grammar::grammar_to_text;
use glade_repro::grammar::{Earley, Sampler};
use glade_repro::targets::programs::{target_by_name, Grep, Sed, Xml};
use glade_repro::targets::{Target, TargetOracle};
use rand::SeedableRng;

fn capped_builder() -> GladeBuilder {
    GladeBuilder::new().max_queries(120_000)
}

/// Synthesize a grammar for a target from its seeds; the grammar must parse
/// every seed (monotonicity) and achieve decent sample precision.
fn synthesize_and_check(target: &dyn Target, min_precision: f64) {
    let oracle = TargetOracle::new(target);
    let seeds = target.seeds();
    let result =
        capped_builder().synthesize(&seeds, &oracle).expect("target accepts its own seeds");

    let parser = Earley::new(&result.grammar);
    for seed in &seeds {
        assert!(
            parser.accepts(seed),
            "{}: seed {:?} lost from the synthesized language",
            target.name(),
            String::from_utf8_lossy(seed)
        );
    }

    let sampler = Sampler::new(&result.grammar);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let n = 300;
    let mut valid = 0usize;
    for _ in 0..n {
        let s = sampler.sample(&mut rng).expect("productive grammar");
        if oracle.accepts(&s) {
            valid += 1;
        }
    }
    let precision = valid as f64 / n as f64;
    assert!(
        precision >= min_precision,
        "{}: sample precision {precision:.2} below {min_precision}",
        target.name()
    );
}

#[test]
fn synthesis_on_sed() {
    synthesize_and_check(&Sed, 0.7);
}

#[test]
fn synthesis_on_grep() {
    synthesize_and_check(&Grep, 0.7);
}

#[test]
fn synthesis_on_xml() {
    // XML's tag matching and attribute uniqueness are not context-free, so
    // free sampling from the synthesized CFG hits more invalid combinations
    // than for sed/grep (cf. the paper's <a a="" a=""> discussion, §8.3).
    synthesize_and_check(&Xml, 0.5);
}

#[test]
fn synthesis_on_every_target_keeps_seeds() {
    // Lighter-weight check across all eight targets: seeds always parse.
    for name in ["sed", "flex", "grep", "bison", "xml", "ruby", "python", "javascript"] {
        let target = target_by_name(name).expect("known target");
        let oracle = TargetOracle::new(target.as_ref());
        let seeds = target.seeds();
        let result = GladeBuilder::new()
            .max_queries(30_000)
            .character_generalization(false)
            .synthesize(&seeds, &oracle)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let parser = Earley::new(&result.grammar);
        for seed in &seeds {
            assert!(
                parser.accepts(seed),
                "{name}: seed {:?} not in synthesized language",
                String::from_utf8_lossy(seed)
            );
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn xml_synthesis_through_pooled_async_path_is_byte_identical() {
    // The instrumented XML target's own seeds, synthesized once in
    // process and once over pools of 1, 2, and 8 `glade worker xml`
    // processes via the session API. The pooled async path (submission
    // queue, poll-multiplexed pipes, batched v2 frames) must change
    // nothing: grammar bytes, distinct queries, and failure accounting
    // all match.
    let xml = Xml;
    let seeds = xml.seeds();
    let config = || {
        GladeBuilder::new().max_queries(30_000).character_generalization(false).worker_threads(4)
    };
    let in_process_oracle = TargetOracle::new(&xml);
    let reference = config().synthesize(&seeds, &in_process_oracle).expect("valid seeds");
    for pool_size in [1usize, 2, 8] {
        let pooled_oracle = PooledProcessOracle::new(env!("CARGO_BIN_EXE_glade"))
            .arg("worker")
            .arg("xml")
            .pool_size(pool_size);
        let mut session = config().session(&pooled_oracle);
        let pooled = session.add_seeds(&seeds).expect("valid seeds");
        assert_eq!(
            grammar_to_text(&pooled.grammar),
            grammar_to_text(&reference.grammar),
            "pooled grammar drifted at pool_size={pool_size}"
        );
        assert_eq!(
            pooled.stats.unique_queries, reference.stats.unique_queries,
            "pool_size={pool_size}"
        );
        assert_eq!(pooled.stats.oracle_failures, 0, "pool_size={pool_size}");
    }
}

#[test]
fn grammar_fuzzer_beats_naive_on_xml_validity() {
    let xml = Xml;
    let oracle = TargetOracle::new(&xml);
    let seeds = xml.seeds();
    let synthesis = capped_builder().synthesize(&seeds, &oracle).expect("valid seeds");

    let samples = 800;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut naive = NaiveFuzzer::new(seeds.clone());
    let naive_result = run_campaign(&xml, &mut naive, samples, &mut rng);

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut glade = GrammarFuzzer::new(synthesis.grammar, &seeds);
    let glade_result = run_campaign(&xml, &mut glade, samples, &mut rng);

    assert!(
        glade_result.valid_rate() > naive_result.valid_rate(),
        "glade {:.2} vs naive {:.2}",
        glade_result.valid_rate(),
        naive_result.valid_rate()
    );
    assert!(
        glade_result.valid_incremental_coverage() >= naive_result.valid_incremental_coverage(),
        "glade {:.3} vs naive {:.3}",
        glade_result.valid_incremental_coverage(),
        naive_result.valid_incremental_coverage()
    );
}

#[test]
fn synthesized_xml_grammar_has_figure5_shape() {
    // From a nested seed, greedy phase one learns the "misaligned"
    // repetition the paper shows in Figure 5 — the `>` of the outer tag
    // migrates into the repeated block (`<(a><a>…</)*a>…</a>`), which
    // generates the same strings for repeated blocks even though the
    // structure differs from the natural grammar.
    let xml = Xml;
    let oracle = TargetOracle::new(&xml);
    let result =
        capped_builder().synthesize(&[b"<a><a>x</a>y</a>".to_vec()], &oracle).expect("valid seed");
    let parser = Earley::new(&result.grammar);
    // Zero repetitions of the inner block.
    assert!(parser.accepts(b"<a>y</a>"));
    // Two repetitions of the inner block (sibling elements).
    assert!(parser.accepts(b"<a><a>x</a><a>x</a>y</a>"));
    // Invalid structures stay out.
    assert!(!parser.accepts(b"<a><a>x</a>y"));
    assert!(!parser.accepts(b"<a></b>"));
}

#[test]
fn p1_ablation_never_invents_recursion() {
    let xml = Xml;
    let oracle = TargetOracle::new(&xml);
    let result = GladeBuilder::new()
        .phase2(false)
        .max_queries(60_000)
        .synthesize(&[b"<a><a>x</a>y</a>".to_vec()], &oracle)
        .expect("valid seed");
    // The phase-1 language is regular: its regex view equals the grammar.
    let parser = Earley::new(&result.grammar);
    let samples = Sampler::new(&result.grammar);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for _ in 0..100 {
        let s = samples.sample(&mut rng).expect("productive");
        assert!(result.regex.is_match(&s), "grammar/regex mismatch on {s:?}");
        assert!(parser.accepts(&s));
    }
}

/// Runs the `glade` binary.
fn run_glade(args: &[&std::ffi::OsStr]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_glade")).args(args).output().expect("run glade")
}

/// Runs the `glade` binary, asserting success; returns its stdout and stderr.
fn glade(args: &[&std::ffi::OsStr]) -> (String, String) {
    let out = run_glade(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "glade {args:?} failed: {stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// A scratch directory and the `glade synth --target toy-xml` arguments
/// that learn from `<a>hi</a>` with `--cache DIR/c`.
fn synth_with_cache(name: &str) -> (std::path::PathBuf, [std::ffi::OsString; 9]) {
    let dir = std::env::temp_dir().join(format!("glade-e2e-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let seed = dir.join("seed.xml");
    std::fs::write(&seed, b"<a>hi</a>").expect("write seed");
    let args = [
        "synth".into(),
        "--target".into(),
        "toy-xml".into(),
        "--seed".into(),
        seed.into_os_string(),
        "--cache".into(),
        dir.join("c").into_os_string(),
        "-o".into(),
        dir.join("g.txt").into_os_string(),
    ];
    (dir, args)
}

#[test]
fn cli_cache_is_written_binary_and_warm_starts() {
    // `glade synth --cache` writes a binary snapshot, a second run loads
    // every verdict from it and re-pays nothing, and `glade cache inspect`
    // reads its header.
    let (dir, args) = synth_with_cache("cache");
    let synth: Vec<&std::ffi::OsStr> = args.iter().map(|a| a.as_os_str()).collect();
    let cache = dir.join("c");

    glade(&synth);
    let binary = std::fs::read(&cache).expect("cache written");
    assert!(binary.starts_with(b"glade-cachebin v1\n"), "a fresh --cache is written binary");
    let snapshot = snapshot_from_binary(&binary).expect("binary snapshot parses");
    assert_eq!(snapshot.entries.len(), 965);

    let (_, stderr) = glade(&synth);
    assert!(stderr.contains("loaded 965 cached oracle verdicts"), "{stderr}");
    assert!(stderr.contains("(0 new this run)"), "{stderr}");
    assert_eq!(std::fs::read(&cache).expect("cache re-saved"), binary, "same cache, same bytes");

    let (stdout, _) = glade(&["cache".as_ref(), "inspect".as_ref(), cache.as_os_str()]);
    for line in [
        "format:       binary (glade-cachebin v1)".to_owned(),
        "entries:      965".to_owned(),
        "oracle:       target:toy-xml".to_owned(),
        format!("file size:    {} bytes", binary.len()),
    ] {
        assert!(stdout.lines().any(|l| l == line), "missing {line:?} in:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_refuses_a_text_snapshot_and_leaves_it_untouched() {
    // A pre-binary text snapshot is not a cache `glade` reads: `synth
    // --cache` and `cache inspect` both fail naming the file, and neither
    // rewrites it.
    let (dir, args) = synth_with_cache("text-cache");
    let synth: Vec<&std::ffi::OsStr> = args.iter().map(|a| a.as_os_str()).collect();
    let cache = dir.join("c");
    let text = b"glade-cache v1\nq 1 3c613e68693c2f613e\n";
    std::fs::write(&cache, text).expect("write text snapshot");

    let inspect = ["cache".as_ref(), "inspect".as_ref(), cache.as_os_str()];
    for argv in [&synth[..], &inspect[..]] {
        let out = run_glade(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "glade {argv:?} accepted a text snapshot");
        assert!(stderr.contains(&*cache.to_string_lossy()), "error names the file: {stderr}");
        assert!(stderr.contains("not a glade-cachebin v1 snapshot"), "{stderr}");
        assert_eq!(std::fs::read(&cache).expect("read cache"), text, "file left untouched");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
