//! The paper's running example (Figures 1–3), checked step by step against
//! the published derivation — and re-pinned through the pooled
//! process-oracle path (the `glade worker` protocol harness) to prove
//! real-process execution changes nothing.

use glade_repro::core::GladeBuilder;
#[cfg(any(target_os = "linux", target_os = "macos"))]
use glade_repro::core::PooledProcessOracle;
use glade_repro::eval::evaluate_grammar;
use glade_repro::grammar::Earley;
use glade_repro::targets::languages::toy_xml;
use rand::SeedableRng;

#[test]
fn figure2_phase1_regex() {
    // Steps R1–R9: seed <a>hi</a> → (<a>(h+i)*</a>)*.
    let lang = toy_xml();
    let oracle = lang.oracle();
    let result = GladeBuilder::new()
        .character_generalization(false)
        .phase2(false)
        .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
        .unwrap();
    // (h+i) prints as the merged class [hi].
    assert_eq!(result.regex.to_string(), "(<a>[hi]*</a>)*");
}

#[test]
fn figure2_phase2_checks_and_merge() {
    // Steps C1–C2: the two repetition subexpressions merge after checks
    // "hihi" and "<a><a>hi</a><a>hi</a></a>" pass, yielding
    // A → (<a>A</a>)* , A → (h+i)*.
    let lang = toy_xml();
    let oracle = lang.oracle();
    let result = GladeBuilder::new()
        .character_generalization(false)
        .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
        .unwrap();
    assert_eq!(result.stats.star_count, 2);
    assert_eq!(result.stats.merge_pairs_tried, 1);
    assert_eq!(result.stats.merges_accepted, 1);

    let parser = Earley::new(&result.grammar);
    // The two phase-2 checks themselves are members of the merged language.
    assert!(parser.accepts(b"hihi"));
    assert!(parser.accepts(b"<a><a>hi</a><a>hi</a></a>"));
    // Recursion to arbitrary depth.
    assert!(parser.accepts(b"<a><a><a><a>h</a></a></a></a>"));
    // No overgeneralization.
    assert!(!parser.accepts(b"<a><a>hi</a>"));
    assert!(!parser.accepts(b"h<a>"));
}

#[test]
fn section62_character_generalization() {
    // Section 6.2: h generalizes to a..z (checks <a>ai</a>, <a>a</a> pass);
    // < does not generalize to a (check aa>hi</a> fails). The final
    // language equals L(C_XML) exactly.
    let lang = toy_xml();
    let oracle = lang.oracle();
    let result = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).unwrap();

    let parser = Earley::new(&result.grammar);
    for member in
        [&b""[..], b"zz", b"<a>qrstuv</a>", b"<a><a>any</a>letters</a>", b"<a></a><a></a>"]
    {
        assert!(parser.accepts(member), "should accept {:?}", String::from_utf8_lossy(member));
    }
    for nonmember in [&b"aa>hi</a>"[..], b"<a>HI</a>", b"<a>h i</a>", b"<b></b>", b"<a>1</a>"] {
        assert!(
            !parser.accepts(nonmember),
            "should reject {:?}",
            String::from_utf8_lossy(nonmember)
        );
    }

    // Quantitatively: F1 = 1.0 against the target (the paper's
    // L(Ĉ'_XML) = L(C_XML) claim).
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let q = evaluate_grammar(&result.grammar, lang.grammar(), &oracle, 400, &mut rng);
    assert_eq!(q.precision, 1.0, "{q:?}");
    assert_eq!(q.recall, 1.0, "{q:?}");
}

#[test]
fn oracle_query_counts_are_modest() {
    // Sanity on the complexity claims (Sections 4.4, 5.5): the running
    // example needs on the order of hundreds of queries, not millions.
    let lang = toy_xml();
    let oracle = lang.oracle();
    let result = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).unwrap();
    assert!(result.stats.unique_queries < 5_000, "{}", result.stats.unique_queries);
    assert!(result.stats.total_queries >= result.stats.unique_queries);
    assert!(result.stats.unique_queries > 0);
}

#[cfg(any(target_os = "linux", target_os = "macos"))]
#[test]
fn running_example_through_pooled_async_path_is_byte_identical() {
    // The full Figures 1–3 run posed over pipes to pools of 1, 2, and 8
    // `glade worker` processes (batched v2 frames, event-driven dispatch)
    // via the session API: grammar bytes, distinct queries, and failure
    // accounting must exactly match the in-process oracle.
    let lang = toy_xml();
    let in_process_oracle = lang.oracle();
    let seeds = vec![b"<a>hi</a>".to_vec()];
    let reference = GladeBuilder::new().synthesize(&seeds, &in_process_oracle).unwrap();
    for pool_size in [1usize, 2, 8] {
        let pooled_oracle = PooledProcessOracle::new(env!("CARGO_BIN_EXE_glade"))
            .arg("worker")
            .arg("toy-xml")
            .pool_size(pool_size);
        let mut session = GladeBuilder::new()
            .oracle_fingerprint(pooled_oracle.fingerprint())
            .session(&pooled_oracle);
        let pooled = session.add_seeds(&seeds).unwrap();
        assert_eq!(
            glade_repro::grammar::grammar_to_text(&pooled.grammar),
            glade_repro::grammar::grammar_to_text(&reference.grammar),
            "pooled grammar drifted at pool_size={pool_size}"
        );
        assert_eq!(
            pooled.stats.unique_queries, reference.stats.unique_queries,
            "pool_size={pool_size}"
        );
        assert_eq!(pooled.stats.total_queries, reference.stats.total_queries);
        assert_eq!(pooled.stats.oracle_failures, 0, "pool_size={pool_size}");
    }
}

#[test]
fn multiple_seeds_reproduce_section7_recovery() {
    // Section 7: the <a/> extension is learned from two seeds — fed
    // incrementally through one session, as an active-learning loop would.
    let oracle =
        glade_repro::core::FnOracle::new(glade_repro::core::testing::xml_like_with_self_closing);
    let mut session = GladeBuilder::new().session(&oracle);
    session.add_seeds(&[b"<a/>".to_vec()]).unwrap();
    let result = session.add_seeds(&[b"<a>hi</a>".to_vec()]).unwrap();
    let parser = Earley::new(&result.grammar);
    assert!(parser.accepts(b"<a><a/></a>"));
    assert!(parser.accepts(b"<a><a><a/>hi</a></a>"));
    assert!(!parser.accepts(b"<a/"));
}
