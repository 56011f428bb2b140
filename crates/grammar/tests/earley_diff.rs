//! Differential battery: the compiled Earley recognizer against the
//! hash-set chart reference it replaced (`tests/reference`).
//!
//! On every grammar and input both must give the same verdict and the same
//! parse tree; the tree exists exactly when the input is accepted, and its
//! yield is the input. Grammars come from two generators: random CFGs (with
//! ε-productions, unary cycles, and left and right recursion all likely)
//! and the regex→CFG translation of `tests/common`.
//!
//! Batches get the same treatment: every verdict of
//! `Recognizer::accepts_batch` must equal the single-input verdict and the
//! reference's, whatever the batch's order, on batches shaped like the ones
//! a synthesis run poses (families of one-byte substitutions, inputs that
//! are prefixes of one another, duplicates, the empty input).

mod common;
mod reference;

use common::{arb_input, arb_regex, mutate, regex_to_cfg, small_byte};
use glade_grammar::cfg::{cls, lit, nt, GrammarBuilder};
use glade_grammar::{CharClass, Earley, Grammar, Recognizer, Regex, Sampler};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks the compiled recognizer against the reference on one input.
fn agree(g: &Grammar, input: &[u8]) -> Result<(), TestCaseError> {
    let compiled = Earley::new(g);
    let reference = reference::Earley::new(g);
    let accepted = reference.accepts(input);
    prop_assert_eq!(compiled.accepts(input), accepted, "input {:?} grammar\n{}", input, g);
    let tree = compiled.parse(input);
    prop_assert_eq!(tree.is_some(), accepted, "parse vs accepts on {:?} grammar\n{}", input, g);
    if let Some(t) = &tree {
        prop_assert_eq!(t.to_bytes(), input.to_vec());
        prop_assert_eq!(t.span(), (0, input.len()));
    }
    Ok(())
}

/// Checks `Recognizer::accepts_batch` on `batch` against single-input
/// recognition and the reference, input by input.
fn batch_agrees(g: &Grammar, batch: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let recognizer = Recognizer::new(g);
    let reference = reference::Earley::new(g);
    let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
    let verdicts = recognizer.accepts_batch(&refs);
    prop_assert_eq!(verdicts.len(), batch.len());
    for (input, verdict) in batch.iter().zip(verdicts) {
        prop_assert_eq!(verdict, recognizer.accepts(input), "input {:?} grammar\n{}", input, g);
        prop_assert_eq!(verdict, reference.accepts(input), "input {:?} grammar\n{}", input, g);
    }
    Ok(())
}

/// A batch in the shapes synthesis poses, built from `bases`: for each
/// base, every one-byte substitution family (all of `a`–`d` at one
/// position, positions in order, as character generalization plans them),
/// then its prefixes from longest to shortest, then the base itself. The
/// empty input and a few duplicates are mixed in, and a shuffled copy of
/// the whole batch follows it.
fn synthesis_shaped_batch(bases: &[Vec<u8>], rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut batch = vec![Vec::new()];
    for base in bases {
        for i in 0..base.len() {
            for byte in *b"abcd" {
                let mut sibling = base.clone();
                sibling[i] = byte;
                batch.push(sibling);
            }
        }
        batch.extend((0..base.len()).rev().map(|j| base[..j].to_vec()));
        batch.push(base.clone());
    }
    for _ in 0..3 {
        let copy = batch[rng.gen_range(0..batch.len())].clone();
        batch.insert(rng.gen_range(0..batch.len() + 1), copy);
    }
    let mut shuffled = batch.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    batch.extend(shuffled);
    batch
}

/// One right-hand-side symbol of a generated grammar.
#[derive(Debug, Clone)]
enum SymSpec {
    Nt(usize),
    Class(Vec<u8>),
}

/// Random CFGs over `{a, b, c}` with 1–4 nonterminals (start = the first).
/// Empty right-hand sides (ε), single-nonterminal ones (unary, often
/// cyclic), and self references at either end (left and right recursion)
/// all come up often. Some grammars are non-productive; both recognizers
/// must then reject everything.
fn arb_cfg() -> impl Strategy<Value = Grammar> {
    (1usize..5)
        .prop_flat_map(|n| {
            let sym = prop_oneof![
                2 => (0..n).prop_map(SymSpec::Nt),
                3 => vec(small_byte(), 1..3).prop_map(SymSpec::Class),
            ];
            let rhs = prop_oneof![1 => Just(Vec::new()), 4 => vec(sym, 1..4)];
            vec(vec(rhs, 1..4), n..=n)
        })
        .prop_map(|spec| {
            let mut b = GrammarBuilder::new();
            let ids: Vec<_> = (0..spec.len()).map(|i| b.nt(&format!("N{i}"))).collect();
            for (lhs, prods) in ids.iter().zip(&spec) {
                for rhs in prods {
                    let syms = rhs
                        .iter()
                        .flat_map(|s| match s {
                            SymSpec::Nt(j) => nt(ids[*j]),
                            SymSpec::Class(bytes) => cls(CharClass::from_bytes(bytes)),
                        })
                        .collect();
                    b.prod(*lhs, syms);
                }
            }
            b.build(ids[0]).expect("generated grammar is valid")
        })
}

fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    vec((0u8..3, any::<usize>(), small_byte()), 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random CFGs on random inputs.
    #[test]
    fn random_cfgs_agree_with_reference(g in arb_cfg(), input in arb_input()) {
        agree(&g, &input)?;
    }

    /// Random CFGs on their own (mutated) members, so accepted inputs and
    /// near misses are common.
    #[test]
    fn random_cfg_members_agree_with_reference(
        g in arb_cfg(),
        seed in any::<u64>(),
        edits in arb_edits(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Some(s) = Sampler::with_max_depth(&g, 10).sample(&mut rng) {
            agree(&g, &s)?;
            agree(&g, &mutate(s, &edits))?;
        }
    }

    /// Regex→CFG translations (left-recursive stars, ε alternatives).
    #[test]
    fn regex_cfgs_agree_with_reference(r in arb_regex(), input in arb_input()) {
        agree(&regex_to_cfg(&r), &input)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random CFGs on synthesis-shaped batches around a sampled member and
    /// an arbitrary input.
    #[test]
    fn random_cfg_batches_agree_with_single_queries(
        g in arb_cfg(),
        seed in any::<u64>(),
        input in arb_input(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bases = vec![input];
        bases.extend(Sampler::with_max_depth(&g, 10).sample(&mut rng));
        batch_agrees(&g, &synthesis_shaped_batch(&bases, &mut rng))?;
    }

    /// Regex→CFG translations on synthesis-shaped batches.
    #[test]
    fn regex_cfg_batches_agree_with_single_queries(
        r in arb_regex(),
        seed in any::<u64>(),
        input in arb_input(),
    ) {
        let g = regex_to_cfg(&r);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bases = vec![input];
        bases.extend(Sampler::with_max_depth(&g, 10).sample(&mut rng));
        batch_agrees(&g, &synthesis_shaped_batch(&bases, &mut rng))?;
    }

    /// Arbitrary batches of arbitrary inputs, in arbitrary order.
    #[test]
    fn random_cfg_arbitrary_batches_agree(g in arb_cfg(), batch in vec(arb_input(), 0..24)) {
        batch_agrees(&g, &batch)?;
    }
}

/// Hand-picked shapes, each on every input over `{a, b}` up to length 6.
#[test]
fn hand_grammars_agree_on_all_short_inputs() {
    let mut grammars = Vec::new();
    // Left recursion with ε: S → S a | ε.
    let mut b = GrammarBuilder::new();
    let s = b.nt("S");
    b.prod(s, [nt(s), lit(b"a")].concat());
    b.prod(s, vec![]);
    grammars.push(b.build(s).unwrap());
    // Right recursion: S → a S | b.
    let mut b = GrammarBuilder::new();
    let s = b.nt("S");
    b.prod(s, [lit(b"a"), nt(s)].concat());
    b.prod(s, lit(b"b"));
    grammars.push(b.build(s).unwrap());
    // Unary cycle through a nullable nonterminal: S → T | a S b ; T → S | ε.
    let mut b = GrammarBuilder::new();
    let s = b.nt("S");
    let t = b.nt("T");
    b.prod(s, nt(t));
    b.prod(s, [lit(b"a"), nt(s), lit(b"b")].concat());
    b.prod(t, nt(s));
    b.prod(t, vec![]);
    grammars.push(b.build(s).unwrap());
    // Highly ambiguous with nullable chains: S → S S | A ; A → B | a ; B → ε | b.
    let mut b = GrammarBuilder::new();
    let s = b.nt("S");
    let a = b.nt("A");
    let bb = b.nt("B");
    b.prod(s, [nt(s), nt(s)].concat());
    b.prod(s, nt(a));
    b.prod(a, nt(bb));
    b.prod(a, lit(b"a"));
    b.prod(bb, vec![]);
    b.prod(bb, lit(b"b"));
    grammars.push(b.build(s).unwrap());

    for g in &grammars {
        let mut inputs = vec![Vec::new()];
        for len in 1..=6 {
            for code in 0..1u32 << len {
                inputs
                    .push((0..len).map(|i| if code >> i & 1 == 0 { b'a' } else { b'b' }).collect());
            }
        }
        for input in &inputs {
            if let Err(e) = agree(g, input) {
                panic!("{e}");
            }
        }
    }
}

/// One recognizer alternating between grammars on one thread: the shared
/// scratch chart must not carry state from one grammar's query into the
/// other's, whether a call is a single query, a parse or a batch.
#[test]
fn interleaved_grammars_share_scratch_safely() {
    // (ab)*, a*b, and [ab]*aa.
    let regexes = [
        Regex::star(Regex::lit(b"ab")),
        Regex::concat(vec![Regex::star(Regex::lit(b"a")), Regex::lit(b"b")]),
        Regex::concat(vec![
            Regex::star(Regex::class(CharClass::from_bytes(b"ab"))),
            Regex::lit(b"aa"),
        ]),
    ];
    let grammars: Vec<Grammar> = regexes.iter().map(regex_to_cfg).collect();
    let parsers: Vec<Earley<'_>> = grammars.iter().map(Earley::new).collect();
    let references: Vec<_> = grammars.iter().map(reference::Earley::new).collect();
    let inputs: [&[u8]; 6] = [b"", b"ab", b"abab", b"aab", b"baa", b"abaa"];
    for round in 0..3 {
        for input in inputs {
            for (p, r) in parsers.iter().zip(&references) {
                assert_eq!(p.accepts(input), r.accepts(input), "round {round} input {input:?}");
            }
        }
    }

    // Batches on two grammars, each followed by a single query and a parse
    // on the other one, on one thread.
    let recognizers: Vec<Recognizer> = grammars.iter().map(Recognizer::new).collect();
    let batch: Vec<&[u8]> = vec![b"abab", b"abaa", b"abab", b"ab", b"aab", b"aaab", b"", b"baa"];
    for round in 0..3 {
        for (i, recognizer) in recognizers.iter().enumerate().take(2) {
            let other = 1 - i;
            let verdicts = recognizer.accepts_batch(&batch);
            for (input, verdict) in batch.iter().zip(verdicts) {
                assert_eq!(verdict, references[i].accepts(input), "round {round} batch {input:?}");
            }
            for input in inputs {
                let expected = references[other].accepts(input);
                assert_eq!(parsers[other].accepts(input), expected, "round {round} {input:?}");
                assert_eq!(parsers[other].parse(input).is_some(), expected, "parse {input:?}");
            }
        }
    }
}
