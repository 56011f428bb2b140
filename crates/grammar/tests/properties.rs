//! Property-based tests for the grammar substrate.
//!
//! These cross-validate the three independent language implementations in
//! this crate — the derivative-based regex matcher, the Earley parser, and
//! the samplers — against each other and against a naive reference matcher.

mod common;

use common::{arb_input, arb_regex, regex_to_cfg, small_byte};
use glade_grammar::cfg::{lit, GrammarBuilder};
use glade_grammar::{CharClass, Earley, Regex, Sampler};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference matcher: naive recursive backtracking over the regex AST.
// ---------------------------------------------------------------------------

/// Returns the set of suffix offsets reachable after matching a prefix of
/// `input[at..]` against `r`.
fn naive_match_ends(r: &Regex, input: &[u8], at: usize, fuel: &mut usize) -> Vec<usize> {
    if *fuel == 0 {
        return Vec::new();
    }
    *fuel -= 1;
    match r {
        Regex::Empty => Vec::new(),
        Regex::Epsilon => vec![at],
        Regex::Class(c) => {
            if at < input.len() && c.contains(input[at]) {
                vec![at + 1]
            } else {
                Vec::new()
            }
        }
        Regex::Concat(parts) => {
            let mut fronts = vec![at];
            for p in parts {
                let mut next = Vec::new();
                for f in fronts {
                    next.extend(naive_match_ends(p, input, f, fuel));
                }
                next.sort_unstable();
                next.dedup();
                fronts = next;
                if fronts.is_empty() {
                    break;
                }
            }
            fronts
        }
        Regex::Alt(parts) => {
            let mut out = Vec::new();
            for p in parts {
                out.extend(naive_match_ends(p, input, at, fuel));
            }
            out.sort_unstable();
            out.dedup();
            out
        }
        Regex::Star(inner) => {
            let mut seen = vec![at];
            let mut frontier = vec![at];
            while let Some(f) = frontier.pop() {
                for e in naive_match_ends(inner, input, f, fuel) {
                    if e > f && !seen.contains(&e) {
                        seen.push(e);
                        frontier.push(e);
                    }
                }
            }
            seen
        }
    }
}

fn naive_is_match(r: &Regex, input: &[u8]) -> bool {
    let mut fuel = 200_000;
    naive_match_ends(r, input, 0, &mut fuel).contains(&input.len())
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The derivative matcher agrees with a naive backtracking matcher.
    #[test]
    fn derivative_matches_reference(r in arb_regex(), input in arb_input()) {
        prop_assert_eq!(r.is_match(&input), naive_is_match(&r, &input));
    }

    /// Strings sampled from a regex are members of that regex's language.
    #[test]
    fn regex_samples_are_members(r in arb_regex(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Some(s) = r.sample(&mut rng, 3) {
            prop_assert!(r.is_match(&s), "sample {:?} of {} rejected", s, r);
        }
    }

    /// Earley on the CFG translation of a regex agrees with the derivative
    /// matcher on that regex.
    #[test]
    fn earley_agrees_with_derivatives(r in arb_regex(), input in arb_input()) {
        let g = regex_to_cfg(&r);
        let earley = Earley::new(&g);
        prop_assert_eq!(earley.accepts(&input), r.is_match(&input),
            "regex {} grammar\n{}", r, g);
    }

    /// Earley parse trees reproduce the exact input as their yield.
    #[test]
    fn parse_tree_yield_roundtrips(r in arb_regex(), input in arb_input()) {
        let g = regex_to_cfg(&r);
        let earley = Earley::new(&g);
        if let Some(tree) = earley.parse(&input) {
            prop_assert_eq!(tree.to_bytes(), input);
        }
    }

    /// CFG samples are accepted by Earley on the same grammar.
    #[test]
    fn cfg_samples_are_members(r in arb_regex(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let g = regex_to_cfg(&r);
        let sampler = Sampler::with_max_depth(&g, 12);
        let earley = Earley::new(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Some(s) = sampler.sample(&mut rng) {
            prop_assert!(earley.accepts(&s));
        }
    }

    /// CharClass set algebra matches per-byte boolean logic.
    #[test]
    fn charclass_algebra(xs in proptest::collection::vec(any::<u8>(), 0..16),
                         ys in proptest::collection::vec(any::<u8>(), 0..16),
                         probe in any::<u8>()) {
        let a = CharClass::from_bytes(&xs);
        let b = CharClass::from_bytes(&ys);
        prop_assert_eq!(a.union(&b).contains(probe), a.contains(probe) || b.contains(probe));
        prop_assert_eq!(a.intersect(&b).contains(probe), a.contains(probe) && b.contains(probe));
        prop_assert_eq!(a.complement().contains(probe), !a.contains(probe));
    }

    /// Smart constructors preserve language membership (idempotent rebuild).
    #[test]
    fn smart_constructor_rebuild_preserves_language(r in arb_regex(), input in arb_input()) {
        fn rebuild(r: &Regex) -> Regex {
            match r {
                Regex::Empty => Regex::Empty,
                Regex::Epsilon => Regex::Epsilon,
                Regex::Class(c) => Regex::class(*c),
                Regex::Concat(ps) => Regex::concat(ps.iter().map(rebuild).collect()),
                Regex::Alt(ps) => Regex::alt(ps.iter().map(rebuild).collect()),
                Regex::Star(i) => Regex::star(rebuild(i)),
            }
        }
        let r2 = rebuild(&r);
        prop_assert_eq!(r.is_match(&input), r2.is_match(&input));
    }

    /// `lit` literals match exactly themselves.
    #[test]
    fn lit_matches_only_itself(s in proptest::collection::vec(small_byte(), 0..8),
                               t in proptest::collection::vec(small_byte(), 0..8)) {
        let r = Regex::lit(&s);
        prop_assert_eq!(r.is_match(&t), s == t);
    }
}

#[test]
fn regex_to_cfg_translation_sanity() {
    let r = Regex::star(Regex::alt(vec![Regex::lit(b"ab"), Regex::lit(b"c")]));
    let g = regex_to_cfg(&r);
    let e = Earley::new(&g);
    assert!(e.accepts(b""));
    assert!(e.accepts(b"abcab"));
    assert!(!e.accepts(b"ba"));
}

#[test]
fn lit_grammar_helper_matches() {
    let mut b = GrammarBuilder::new();
    let s = b.nt("S");
    b.prod(s, lit(b"abc"));
    let g = b.build(s).unwrap();
    assert!(Earley::new(&g).accepts(b"abc"));
    assert!(!Earley::new(&g).accepts(b"ab"));
}
