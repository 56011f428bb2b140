//! Phase one: regular-expression synthesis (Section 4 of the paper).
//!
//! Starting from the seed input annotated as `[α_in]rep`, each
//! generalization step selects a bracketed substring and proposes candidate
//! decompositions in a fixed preference order; carefully constructed
//! membership checks (context-wrapped residuals) reject candidates that
//! overgeneralize. The first candidate whose checks all pass is taken
//! (greedy search), and its sub-substrings are generalized recursively.
//!
//! Candidate rules and ordering (Sections 4.1–4.2):
//!
//! * **Repetitions** `[α]rep → α1 ([α2]alt)* [α3]rep` for every decomposition
//!   `α = α1 α2 α3`, `α2 ≠ ε`, ordered by `|α1|` ascending then `|α2|`
//!   descending; the constant `α` is the last candidate. Residuals:
//!   `α1 α3` (zero repetitions) and `α1 α2 α2 α3` (two repetitions).
//! * **Alternations** `[α]alt → ([α1]rep + [α2]alt)` for every split
//!   `α = α1 α2` with both parts nonempty, ordered by `|α1|` ascending;
//!   the last candidate re-brackets the whole string as `[α]rep`.
//!   Residuals: `α1` and `α2`.
//!
//! Checks are `γ·ρ·δ` where `(γ, δ)` is the context of the selected
//! bracketed substring (Section 4.3); contexts for newly created bracketed
//! substrings follow the paper's construction exactly.
//!
//! Termination note: a repetition node reached through the alternation
//! fallback (`Talt ::= Trep`) must not re-propose the identity decomposition
//! `(ε, α, ε)` — otherwise `[α]alt → [α]rep → ([α]alt)* → …` recurses
//! forever on the same string. This matches Figure 2 (step R3 proposes no
//! full-star candidate) and the meta-grammar's unambiguity requirement.
//!
//! # Why this phase does not aggregate batches
//!
//! Character generalization and phase two pose their whole check sets as
//! one aggregated batch (see `session.rs`), but phase one cannot: the
//! greedy search is *data-dependent*. Which candidate is tried next — and
//! which substrings are recursed into — is decided by the verdicts of the
//! previous candidate, and posing later candidates' checks speculatively
//! would charge the query budget for checks the sequential algorithm never
//! poses (breaking the paper's cost model and the repo's golden query-
//! count pins). The exploitable parallelism here is *within* a candidate:
//! its two residual checks are independent and go to the oracle as one
//! [`QueryRunner::accepts_batch`] pair.

use crate::runner::{CheckSpec, QueryRunner};
use crate::tree::{AltNode, ConstNode, Context, Node, RepNode, StarNode};

/// Phase-one synthesizer state.
pub(crate) struct Phase1<'a, 'o> {
    runner: &'a mut QueryRunner<'o>,
    next_star_id: usize,
}

impl<'a, 'o> Phase1<'a, 'o> {
    pub fn new(runner: &'a mut QueryRunner<'o>, first_star_id: usize) -> Self {
        Phase1 { runner, next_star_id: first_star_id }
    }

    /// The next unassigned star id (star ids are globally unique across
    /// seeds so phase two can merge across trees, Section 6.1).
    pub fn next_star_id(&self) -> usize {
        self.next_star_id
    }

    /// Generalizes one seed input into a tree.
    pub fn generalize_seed(&mut self, seed: &[u8]) -> Node {
        self.generalize_rep(seed, Context::root(), true)
    }

    fn fresh_star_id(&mut self) -> usize {
        let id = self.next_star_id;
        self.next_star_id += 1;
        id
    }

    /// Poses the two residual checks of one candidate as a single batch:
    /// the pair is built from borrowed segments (no per-candidate
    /// concatenation), and a natively batching oracle answers it in one
    /// call (a per-query oracle answers it inline: two misses are too few
    /// to spawn threads for). The greedy
    /// candidate loop itself stays sequential — each decision feeds the
    /// next — but its two checks per candidate are independent.
    fn check_pair(&mut self, ctx: &Context, first: &[&[u8]], second: &[&[u8]]) -> bool {
        let checks = [CheckSpec::wrapped(ctx, first), CheckSpec::wrapped(ctx, second)];
        let verdicts = self.runner.accepts_batch(&checks);
        verdicts[0] && verdicts[1]
    }

    /// Generalizes `[α]rep` in context `(γ, δ)`.
    ///
    /// `allow_full_star` gates the identity decomposition `(ε, α, ε)`; it is
    /// true for the seed root and for `[α3]rep` rests, false for nodes
    /// reached via alternation (fallback or branch), per the module notes.
    fn generalize_rep(&mut self, alpha: &[u8], ctx: Context, allow_full_star: bool) -> Node {
        let n = alpha.len();
        for a1_len in 0..n {
            // Prefer longer α2 (Section 4.2: a shorter repeated part loses
            // generality, e.g. (<a>h*i*</a>)* instead of (<a>(h+i)*</a>)*).
            for a2_len in (1..=n - a1_len).rev() {
                if !allow_full_star && a1_len == 0 && a2_len == n {
                    continue;
                }
                let (a1, a2, a3) =
                    (&alpha[..a1_len], &alpha[a1_len..a1_len + a2_len], &alpha[a1_len + a2_len..]);
                // Residuals: zero and two repetitions of α2.
                if !self.check_pair(&ctx, &[a1, a3], &[a1, a2, a2, a3]) {
                    continue;
                }
                // Candidate accepted: build contexts per Section 4.3.
                let star_ctx = ctx.narrowed(a1, a3); // for [α2]alt
                let rest_ctx = ctx.narrowed(&[a1, a2].concat(), b""); // for [α3]rep

                // Character-generalization contexts for the literal α1: the
                // zero-repetition form (γ, α3 δ) from Section 6.2's formula,
                // plus the one-repetition form (γ, α2 α3 δ) matching the
                // paper's `aa>hi</a>` example check.
                let pre_contexts =
                    vec![ctx.narrowed(b"", a3), ctx.narrowed(b"", &[a2, a3].concat())];
                let inner = self.generalize_alt(a2, star_ctx.clone());
                let rest = self.generalize_rep(a3, rest_ctx, true);
                return Node::Rep(Box::new(RepNode {
                    pre: ConstNode::new(a1, pre_contexts),
                    star: StarNode {
                        id: self.fresh_star_id(),
                        inner,
                        ctx: star_ctx,
                        original: a2.to_vec(),
                    },
                    rest,
                }));
            }
        }
        // Last candidate: the constant α (production Trep ::= β).
        Node::Const(ConstNode::new(alpha, vec![ctx]))
    }

    /// Generalizes `[α]alt` in context `(γ, δ)`.
    fn generalize_alt(&mut self, alpha: &[u8], ctx: Context) -> Node {
        let n = alpha.len();
        // Prefer shorter α1 (Section 4.2).
        for a1_len in 1..n {
            let (a1, a2) = (&alpha[..a1_len], &alpha[a1_len..]);
            // Residuals: each branch alone (the alternation always sits
            // inside a repetition, so a single branch is a valid residual).
            if !self.check_pair(&ctx, &[a1], &[a2]) {
                continue;
            }
            let left_ctx = ctx.narrowed(b"", a2);
            let right_ctx = ctx.narrowed(a1, b"");
            let mut left = self.generalize_rep(a1, left_ctx, false);
            let mut right = self.generalize_alt(a2, right_ctx);
            // The parent context (γ, δ) is also valid for either branch
            // standing alone (exactly what the checks above verified); give
            // it to directly-constant branches for stronger character
            // generalization (Section 6.2's `<a>a</a>` example check).
            if let Node::Const(c) = &mut left {
                c.contexts.push(ctx.clone());
            }
            if let Node::Const(c) = &mut right {
                c.contexts.push(ctx.clone());
            }
            return Node::Alt(Box::new(AltNode { left, right }));
        }
        // Last candidate: re-bracket as a repetition (Talt ::= Trep), with
        // the identity star disabled to guarantee termination.
        self.generalize_rep(alpha, ctx, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::QueryCache;
    use crate::runner::RunnerOptions;
    use crate::testing::xml_like;
    use crate::{FnOracle, Oracle};
    use glade_grammar::Regex;

    fn test_runner<'s>(oracle: &'s dyn Oracle, cache: &'s mut QueryCache) -> QueryRunner<'s> {
        QueryRunner::new(oracle, cache, RunnerOptions { workers: 2, ..RunnerOptions::default() })
    }

    fn synthesize_regex(seed: &[u8]) -> Regex {
        let oracle = FnOracle::new(xml_like);
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        p1.generalize_seed(seed).to_regex()
    }

    #[test]
    fn oracle_sanity() {
        let o = FnOracle::new(xml_like);
        assert!(o.accepts(b""));
        assert!(o.accepts(b"<a>hi</a>"));
        assert!(o.accepts(b"hihi"));
        assert!(o.accepts(b"<a><a>x</a></a>"));
        assert!(!o.accepts(b"<a>hi</a"));
        assert!(!o.accepts(b">"));
    }

    #[test]
    fn running_example_synthesizes_figure_r9_regex() {
        // Figure 2 steps R1–R9: seed <a>hi</a> generalizes to
        // (<a>(h+i)*</a>)*.
        let r = synthesize_regex(b"<a>hi</a>");
        assert_eq!(r.to_string(), "(<a>[hi]*</a>)*");
        assert!(r.is_match(b""));
        assert!(r.is_match(b"<a>hihi</a><a></a>"));
        assert!(!r.is_match(b"<a>hi</a"));
        // Phase one alone cannot nest (that is phase two's job).
        assert!(!r.is_match(b"<a><a>hi</a></a>"));
    }

    #[test]
    fn running_example_star_metadata() {
        let oracle = FnOracle::new(xml_like);
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let tree = p1.generalize_seed(b"<a>hi</a>");
        let mut stars = Vec::new();
        tree.collect_stars(&mut stars);
        assert_eq!(stars.len(), 2, "outer tag star and inner (h+i) star");
        // Outer star: the whole seed repeats in the empty context.
        assert_eq!(stars[0].original, b"<a>hi</a>".to_vec());
        let wrap = |ctx: &Context| {
            let mut check = Vec::new();
            CheckSpec::wrapped(ctx, &[b"X"]).write_into(&mut check);
            check
        };
        assert_eq!(wrap(&stars[0].ctx), b"X".to_vec());
        // Inner star: "hi" repeats between the tags (Figure 2, step R3).
        assert_eq!(stars[1].original, b"hi".to_vec());
        assert_eq!(wrap(&stars[1].ctx), b"<a>X</a>".to_vec());
    }

    #[test]
    fn seed_with_single_letter() {
        let r = synthesize_regex(b"x");
        // "x" generalizes to (x)* at the root (zero and two copies valid).
        assert!(r.is_match(b""));
        assert!(r.is_match(b"xxx"));
        assert!(!r.is_match(b"<a>"));
    }

    #[test]
    fn empty_seed_yields_epsilon() {
        let r = synthesize_regex(b"");
        assert_eq!(r, Regex::Epsilon);
    }

    #[test]
    fn fixed_format_stays_constant() {
        // Language: exactly "ab". Nothing can generalize.
        let oracle = FnOracle::new(|i: &[u8]| i == b"ab");
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let r = p1.generalize_seed(b"ab").to_regex();
        assert!(r.is_match(b"ab"));
        assert!(!r.is_match(b""));
        assert!(!r.is_match(b"abab"));
        assert_eq!(r.to_string(), "ab");
    }

    #[test]
    fn budget_exhaustion_degrades_to_seed() {
        let oracle = FnOracle::new(xml_like);
        let mut cache = QueryCache::new();
        let mut runner = QueryRunner::new(
            &oracle,
            &mut cache,
            RunnerOptions { max_queries: Some(0), workers: 2, ..RunnerOptions::default() },
        );
        let mut p1 = Phase1::new(&mut runner, 0);
        let r = p1.generalize_seed(b"<a>hi</a>").to_regex();
        // With no query budget every candidate is rejected: the language
        // collapses to exactly the seed (never *less* than the seed).
        assert!(r.is_match(b"<a>hi</a>"));
        assert!(!r.is_match(b""));
        assert!(runner.exhausted());
    }

    #[test]
    fn monotonicity_seed_always_matched() {
        // Proposition 4.1: every generalization step is monotone, so the
        // seed remains a member at every step; check the final result for a
        // few different languages.
        type BoxedPredicate = Box<dyn Fn(&[u8]) -> bool + Send + Sync>;
        let oracles: Vec<(&[u8], BoxedPredicate)> = vec![
            (b"<a>hi</a>", Box::new(xml_like)),
            (b"aaa", Box::new(|i: &[u8]| i.iter().all(|&b| b == b'a'))),
            (
                b"[]",
                Box::new(|i: &[u8]| {
                    // Balanced brackets.
                    let mut depth = 0i32;
                    for &b in i {
                        match b {
                            b'[' => depth += 1,
                            b']' => depth -= 1,
                            _ => return false,
                        }
                        if depth < 0 {
                            return false;
                        }
                    }
                    depth == 0
                }),
            ),
        ];
        for (seed, f) in oracles {
            let oracle = FnOracle::new(f);
            let mut cache = QueryCache::new();
            let mut runner = test_runner(&oracle, &mut cache);
            let mut p1 = Phase1::new(&mut runner, 0);
            let r = p1.generalize_seed(seed).to_regex();
            assert!(r.is_match(seed), "seed {:?} lost", String::from_utf8_lossy(seed));
        }
    }

    #[test]
    fn terminates_on_permissive_oracle() {
        // Σ* accepts everything: the greedy search must still terminate.
        let oracle = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let r = p1.generalize_seed(b"abcd").to_regex();
        assert!(r.is_match(b"abcd"));
        assert!(r.is_match(b""));
    }
}
