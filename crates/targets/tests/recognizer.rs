//! The compiled Earley recognizer on the real target-language grammars.
//!
//! Samples of url, grep, lisp, xml, and toy-xml, with random byte
//! insertions, deletions, and substitutions, are checked against the
//! hash-set chart reference recognizer of the grammar crate's tests; the
//! parse tree exists exactly when the input is accepted and yields the
//! input. A shared `GrammarOracle` posed from several threads at once must
//! answer exactly as a sequential pass does.

#[path = "../../grammar/tests/common/mod.rs"]
mod common;
#[path = "../../grammar/tests/reference/mod.rs"]
mod reference;

use common::mutate;
use glade_core::Oracle;
use glade_grammar::{Earley, Sampler};
use glade_targets::languages::{section82_languages, toy_xml, url};
use glade_targets::{GrammarOracle, Language};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Barrier;

fn languages() -> Vec<Language> {
    let mut all = section82_languages();
    all.push(toy_xml());
    all
}

/// Mostly printable ASCII, where the grammars' terminals live.
fn edit_byte() -> impl Strategy<Value = u8> {
    prop_oneof![4 => 0x20u8..0x7f, 1 => any::<u8>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every language, on a mutated sample: same verdict as the reference,
    /// a parse tree exactly for members, and the tree yields the input.
    #[test]
    fn mutated_samples_agree_with_reference(
        seed in any::<u64>(),
        edits in vec((0u8..3, any::<usize>(), edit_byte()), 0..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for language in languages() {
            let g = language.grammar();
            let compiled = Earley::new(g);
            let reference = reference::Earley::new(g);
            let sample = Sampler::new(g).sample(&mut rng).expect("productive grammar");
            for input in [mutate(sample.clone(), &edits), sample] {
                let accepted = reference.accepts(&input);
                prop_assert_eq!(compiled.accepts(&input), accepted,
                    "{} on {:?}", language.name(), String::from_utf8_lossy(&input));
                prop_assert_eq!(language.oracle().accepts(&input), accepted);
                let tree = compiled.parse(&input);
                prop_assert_eq!(tree.is_some(), accepted,
                    "{}: parse vs accepts on {:?}", language.name(), String::from_utf8_lossy(&input));
                if let Some(t) = tree {
                    prop_assert_eq!(t.to_bytes(), input);
                }
            }
        }
    }
}

#[test]
fn grammar_oracle_is_send_sync() {
    fn assert_send_sync<T: Oracle + Send + Sync>() {}
    assert_send_sync::<GrammarOracle>();
}

/// One shared oracle, several threads, lock-step rounds: every thread's
/// verdicts equal the sequential pass, so the per-thread scratch charts
/// never leak state from one query (or one thread) into another.
#[test]
fn shared_oracle_answers_like_a_sequential_pass() {
    const THREADS: usize = 4;
    let language = url();
    let oracle = language.oracle();
    let mut rng = StdRng::seed_from_u64(7);
    let sampler = Sampler::new(language.grammar());
    let mut inputs = Vec::new();
    for i in 0..200usize {
        let s = sampler.sample(&mut rng).expect("productive grammar");
        // Every other input is damaged, so both verdicts are common.
        let edits = [(i as u8 % 3, i * 7, b"/.?:x"[i % 5])];
        inputs.push(if i % 2 == 0 { s } else { mutate(s, &edits) });
    }
    let sequential: Vec<bool> = inputs.iter().map(|s| oracle.accepts(s)).collect();
    assert!(sequential.iter().any(|&v| v) && sequential.iter().any(|&v| !v));

    let barrier = Barrier::new(THREADS);
    let per_thread: Vec<Vec<bool>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (oracle, inputs, barrier) = (&oracle, &inputs, &barrier);
                scope.spawn(move || {
                    // Each thread walks the inputs from its own offset and
                    // re-synchronizes every 10 queries, so different
                    // inputs (long and short) run at the same time.
                    let mut verdicts = vec![false; inputs.len()];
                    for step in 0..inputs.len() {
                        if step % 10 == 0 {
                            barrier.wait();
                        }
                        let i = (step + t * inputs.len() / THREADS) % inputs.len();
                        verdicts[i] = oracle.accepts(&inputs[i]);
                    }
                    verdicts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    for (t, verdicts) in per_thread.iter().enumerate() {
        assert_eq!(verdicts, &sequential, "thread {t} disagrees with the sequential pass");
    }
}
