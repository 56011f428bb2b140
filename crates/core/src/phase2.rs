//! Phase two: learning recursive properties by merging repetition
//! subexpressions (Section 5 of the paper).
//!
//! After phase one, every starred subexpression `R = (…)*` of the regular
//! expression corresponds to a nonterminal `A'_i` of the translated
//! context-free grammar. Phase two considers every unordered pair
//! `(A'_i, A'_j)` once, in ascending index order, and equates the pair if
//! two membership checks pass (Section 5.3): substituting `R_j`'s residual
//! into `R_i`'s context and vice versa:
//!
//! ```text
//! γi · ρj · δi      where ρj = α'2 α'2 is R_j's recorded residual
//! γj · ρi · δj
//! ```
//!
//! Accepted pairs accumulate in a union-find; the quotiented grammar pools
//! the star bodies of each class (see `tree::trees_to_grammar`), which by
//! Proposition 5.1 realizes exactly the language effect of equating the
//! nonterminals. Merging is what lets GLADE express matching-parentheses
//! style recursion (Definition 5.2, Proposition 5.3) that no regular
//! expression captures.
//!
//! # Planning in waves
//!
//! [`StagedMerge`] plans the pair checks in waves that share one
//! aggregated membership batch with character generalization's probes
//! (see `chargen.rs` and `session.rs`). Posing both checks of every pair
//! unconditionally — the *unreduced plan*, kept as the test-only
//! `reference` module — pays for checks whose verdict is already
//! determined; the planner prunes them exactly (see [`StagedMerge`]), and
//! the unions are applied in ascending pair order, so the grammar is the
//! unreduced plan's, byte for byte, at every worker count.

use crate::arena::{KeyArena, KeySet};
use crate::cache::QueryCache;
use crate::runner::CheckSpec;
use crate::tree::{Node, StarNode, UnionFind};

/// Outcome counters for phase two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MergeStats {
    pub pairs_tried: usize,
    pub merges_accepted: usize,
}

/// Which of a pair's two cross-substitution checks a posed slot resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    A,
    B,
}

/// Resolution state of one unordered star pair in a staged merge run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    /// Equal originals: both cross-checks are literally the two stars'
    /// phase-one creation checks (`γ·α2α2·δ`), which were accepted — the
    /// pair merges without posing anything.
    PreAccepted,
    /// Waiting to resolve check A (`γi · ρj · δi`).
    NeedA,
    /// A passed; waiting to resolve check B (`γj · ρi · δj`).
    NeedB,
    /// Both checks resolved: merge iff `true`.
    Done(bool),
}

#[derive(Debug)]
struct StagedPair<'t> {
    left: &'t StarNode,
    right: &'t StarNode,
    state: PairState,
}

/// The owned result of a staged merge run.
#[derive(Debug)]
pub(crate) struct MergeOutcome {
    pub uf: UnionFind,
    pub stats: MergeStats,
    /// Checks the unreduced plan would have posed that never reached the
    /// query engine (pre-accepted pairs, B-checks short-circuited by a
    /// failed A, in-wave duplicates, and plan-time cache folds).
    pub probes_elided: usize,
    /// Accepted `(left id, right id)` pairs in ascending pair order — the
    /// order the unions were applied in, for MergeAccepted events.
    pub accepted: Vec<(usize, usize)>,
}

/// Wave-driven merge planner (see `chargen.rs`' query-reduction section).
///
/// The planner exploits the conjunction of a pair's two checks: check B
/// is only posed once check A has passed, pairs of stars with
/// byte-identical originals are accepted structurally (their checks are
/// their phase-one creation checks), and checks whose assembled string is
/// already cached — or already posed this wave — resolve without a new
/// query. The accept set is provably identical to the unreduced plan's.
///
/// Drive as: loop { [`StagedMerge::plan_wave`] → pose →
/// [`StagedMerge::fold_wave`] } until `plan_wave` appends no checks, then
/// [`StagedMerge::finish`]. A pair resolves in at most two waves, so with
/// chargen sharing the batch the loop adds no extra round trips.
#[derive(Debug)]
pub(crate) struct StagedMerge<'t> {
    pairs: Vec<StagedPair<'t>>,
    num_stars: usize,
    /// This wave's distinct checks in planning order (= the wave's verdict
    /// order), each owned by the `(pair index, which check)` it resolves.
    keys: KeyArena<(usize, Which)>,
    probes_elided: usize,
}

impl<'t> StagedMerge<'t> {
    /// Plans the staged run over all star pairs of `trees`, pre-accepting
    /// pairs whose residual checks are already-accepted creation checks.
    pub fn new(trees: &'t [Node], num_stars: usize) -> Self {
        let mut stars: Vec<&'t StarNode> = Vec::new();
        for t in trees {
            t.collect_stars(&mut stars);
        }
        stars.sort_by_key(|s| s.id);
        let mut pairs: Vec<StagedPair<'t>> = Vec::with_capacity(stars.len() * stars.len() / 2);
        let mut probes_elided = 0usize;
        for i in 0..stars.len() {
            for j in i + 1..stars.len() {
                let (si, sj) = (stars[i], stars[j]);
                let state = if si.original == sj.original {
                    // A = γi·αj αj·δi = γi·αi αi·δi: star i's accepted
                    // creation check (and B star j's). Elide both.
                    probes_elided += 2;
                    PairState::PreAccepted
                } else {
                    PairState::NeedA
                };
                pairs.push(StagedPair { left: si, right: sj, state });
            }
        }
        StagedMerge { pairs, num_stars, keys: KeyArena::default(), probes_elided }
    }

    /// Plans the next wave: every unresolved pair resolves against the
    /// session cache as far as possible, then poses at most one check.
    /// Returns the number of distinct checks planned (pose them through
    /// [`StagedMerge::keys_mut`]); zero means every pair is resolved.
    pub fn plan_wave(&mut self, cache: &QueryCache) -> usize {
        debug_assert!(self.keys.len() == 0, "previous wave not folded");
        for idx in 0..self.pairs.len() {
            loop {
                let which = match self.pairs[idx].state {
                    PairState::NeedA => Which::A,
                    PairState::NeedB => Which::B,
                    PairState::PreAccepted | PairState::Done(_) => break,
                };
                let pair = &self.pairs[idx];
                let spec = match which {
                    Which::A => CheckSpec::wrapped(&pair.left.ctx, &pair.right.residual_parts()),
                    Which::B => CheckSpec::wrapped(&pair.right.ctx, &pair.left.residual_parts()),
                };
                let h = self.keys.stage(|buf| spec.write_into(buf));
                match (cache.get_hashed(h, self.keys.staged()), which) {
                    (Some(true), Which::A) => {
                        // Cache fold: A passes for free; try B this wave.
                        self.probes_elided += 1;
                        self.pairs[idx].state = PairState::NeedB;
                    }
                    (Some(false), Which::A) => {
                        // A fails: B is never posed either.
                        self.probes_elided += 2;
                        self.pairs[idx].state = PairState::Done(false);
                        break;
                    }
                    (Some(v), Which::B) => {
                        self.probes_elided += 1;
                        self.pairs[idx].state = PairState::Done(v);
                        break;
                    }
                    (None, which) => {
                        if !self.keys.intern_staged(h, (idx, which)) {
                            self.probes_elided += 1;
                        }
                        break;
                    }
                }
            }
        }
        self.keys.len()
    }

    /// The wave's planned checks, in verdict order, for
    /// [`QueryRunner::pose`](crate::runner::QueryRunner::pose). Every slot
    /// missed the cache when it was planned.
    pub fn keys_mut(&mut self) -> &mut KeySet {
        self.keys.keys_mut()
    }

    /// Folds the wave's verdicts (one per planned check, in order) back
    /// into the pairs: a passed A advances to B (posed next wave), a
    /// failed A resolves the pair and elides its B check.
    pub fn fold_wave(&mut self, verdicts: &[bool]) {
        debug_assert_eq!(verdicts.len(), self.keys.len());
        for (slot, &verdict) in verdicts.iter().enumerate() {
            for &(idx, which) in self.keys.owners(slot) {
                match which {
                    Which::A => {
                        if verdict {
                            self.pairs[idx].state = PairState::NeedB;
                        } else {
                            self.probes_elided += 1;
                            self.pairs[idx].state = PairState::Done(false);
                        }
                    }
                    Which::B => self.pairs[idx].state = PairState::Done(verdict),
                }
            }
        }
        self.keys.clear();
    }

    /// Applies the unions in ascending pair order (identical to the
    /// unreduced plan's order) and returns the owned outcome. Call only
    /// after `plan_wave` returned zero.
    pub fn finish(self) -> MergeOutcome {
        debug_assert!(self.keys.len() == 0, "staged run incomplete");
        let mut uf = UnionFind::new(self.num_stars);
        let mut stats = MergeStats::default();
        let mut accepted: Vec<(usize, usize)> = Vec::new();
        for pair in &self.pairs {
            debug_assert!(
                !matches!(pair.state, PairState::NeedA | PairState::NeedB),
                "unresolved pair at finish"
            );
            stats.pairs_tried += 1;
            if matches!(pair.state, PairState::PreAccepted | PairState::Done(true)) {
                uf.union(pair.left.id, pair.right.id);
                stats.merges_accepted += 1;
                accepted.push((pair.left.id, pair.right.id));
            }
        }
        MergeOutcome { uf, stats, probes_elided: self.probes_elided, accepted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::QueryCache;
    use crate::phase1::Phase1;
    use crate::reference;
    use crate::runner::{QueryRunner, RunnerOptions};
    use crate::testing::{xml_like, xml_like_with_self_closing};
    use crate::tree::trees_to_grammar;
    use crate::FnOracle;
    use glade_grammar::Earley;

    fn runner<'s>(oracle: &'s dyn crate::Oracle, cache: &'s mut QueryCache) -> QueryRunner<'s> {
        QueryRunner::new(oracle, cache, RunnerOptions { workers: 2, ..RunnerOptions::default() })
    }

    #[test]
    fn running_example_merges_and_nests() {
        // Figure 2 steps C1–C2: the two stars of (<a>(h+i)*</a>)* merge,
        // yielding the recursive grammar A → (<a>A</a>)* , A → (h+i)*.
        let oracle = FnOracle::new(xml_like);
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let tree = p1.generalize_seed(b"<a>hi</a>");
        let num_stars = p1.next_star_id();
        assert_eq!(num_stars, 2);

        let trees = vec![tree];
        let (mut uf, stats) = merge(&trees, num_stars, &mut runner);
        assert_eq!(stats.pairs_tried, 1);
        assert_eq!(stats.merges_accepted, 1);

        let g = trees_to_grammar(&trees, &mut uf);
        let e = Earley::new(&g);
        // Recursion now expressible…
        assert!(e.accepts(b"<a><a>hi</a><a>hi</a></a>"));
        assert!(e.accepts(b"<a><a><a>h</a></a></a>"));
        // …and top-level letters.
        assert!(e.accepts(b"hihi"));
        // No overgeneralization.
        assert!(!e.accepts(b"<a><a>hi</a>"));
        assert!(!e.accepts(b"</a><a>"));
    }

    #[test]
    fn compatible_blocks_do_merge() {
        // Language x*y*: the cross-substitution checks (yyy and xxx) are
        // both valid, so the paper's heuristic merges the two stars —
        // a deliberate (if overgeneral) acceptance.
        let oracle = FnOracle::new(|i: &[u8]| {
            let split = i.iter().position(|&b| b == b'y').unwrap_or(i.len());
            i[..split].iter().all(|&b| b == b'x') && i[split..].iter().all(|&b| b == b'y')
        });
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let tree = p1.generalize_seed(b"xy");
        let num_stars = p1.next_star_id();
        let trees = vec![tree];
        let (_, stats) = merge(&trees, num_stars, &mut runner);
        assert_eq!(stats.merges_accepted, 1);
    }

    #[test]
    fn incompatible_stars_do_not_merge() {
        // Language a* x b*: substituting the b-star's residual into the
        // a-star's context yields "bbxb" (invalid) and vice versa, so the
        // merge checks reject the pair (the second candidate — keeping the
        // grammar unchanged — wins).
        let oracle = FnOracle::new(|i: &[u8]| {
            let Some(x) = i.iter().position(|&b| b == b'x') else { return false };
            i[..x].iter().all(|&b| b == b'a') && i[x + 1..].iter().all(|&b| b == b'b')
        });
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let tree = p1.generalize_seed(b"axb");
        let num_stars = p1.next_star_id();
        let trees = vec![tree];
        let (mut uf, stats) = merge(&trees, num_stars, &mut runner);
        assert_eq!(stats.merges_accepted, 0);
        let g = trees_to_grammar(&trees, &mut uf);
        let e = Earley::new(&g);
        assert!(e.accepts(b"aaxbb"));
        assert!(e.accepts(b"x"));
        assert!(!e.accepts(b"bxa"));
        assert!(!e.accepts(b"abx"));
    }

    #[test]
    fn section7_greedy_limitation_single_seed() {
        // Section 7: with L* = XML-like extended by <a/>, the single seed
        // <a><a/></a> yields a suboptimal (but still valid) grammar whose
        // stars cannot merge, because the check ><a/ is invalid.
        let oracle = FnOracle::new(xml_like_with_self_closing);
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let tree = p1.generalize_seed(b"<a><a/></a>");
        let num_stars = p1.next_star_id();
        let trees = vec![tree];
        let (mut uf, _) = merge(&trees, num_stars, &mut runner);
        let g = trees_to_grammar(&trees, &mut uf);
        let e = Earley::new(&g);
        // The synthesized language is a valid subset…
        assert!(e.accepts(b"<a><a/></a>"));
        // …but greedy phase one misses the deep nesting of self-closing
        // tags inside doubly-nested elements.
        assert!(!e.accepts(b"<a><a><a/></a></a>"));
    }

    #[test]
    fn section7_recovery_with_two_seeds() {
        // Section 7 continued: seeds {<a/>, <a>hi</a>} recover the target.
        let oracle = FnOracle::new(xml_like_with_self_closing);
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let t1 = p1.generalize_seed(b"<a/>");
        let t2 = p1.generalize_seed(b"<a>hi</a>");
        let num_stars = p1.next_star_id();
        let trees = vec![t1, t2];
        let (mut uf, stats) = merge(&trees, num_stars, &mut runner);
        assert!(stats.merges_accepted > 0);
        let g = trees_to_grammar(&trees, &mut uf);
        let e = Earley::new(&g);
        assert!(e.accepts(b"<a><a/></a>"));
        assert!(e.accepts(b"<a><a><a/>hi</a></a>"));
        assert!(!e.accepts(b"<a/></a>"));
    }

    /// Drives a staged merge run to completion against `runner`.
    fn run_staged(trees: &[Node], num_stars: usize, runner: &mut QueryRunner<'_>) -> MergeOutcome {
        let mut staged = StagedMerge::new(trees, num_stars);
        while staged.plan_wave(runner.cache()) > 0 {
            let verdicts = runner.pose(&mut [staged.keys_mut()]);
            staged.fold_wave(&verdicts);
        }
        staged.finish()
    }

    /// Runs the merge phase through the staged planner; returns the
    /// union-find and the counters.
    fn merge(
        trees: &[Node],
        num_stars: usize,
        runner: &mut QueryRunner<'_>,
    ) -> (UnionFind, MergeStats) {
        let outcome = run_staged(trees, num_stars, runner);
        (outcome.uf, outcome.stats)
    }

    #[test]
    fn staged_merge_matches_one_shot_plan() {
        // The staged planner must reproduce the one-shot reference's accept set
        // (and union order) exactly on the running example.
        let oracle = FnOracle::new(xml_like);
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let trees = vec![p1.generalize_seed(b"<a>hi</a>")];
        let num_stars = p1.next_star_id();

        let (legacy_uf, legacy_stats) =
            reference::merge_stars(&trees, num_stars, &mut runner, None);
        let outcome = run_staged(&trees, num_stars, &mut runner);
        assert_eq!(outcome.stats, legacy_stats);
        let (mut uf_a, mut uf_b) = (legacy_uf, outcome.uf);
        for s in 0..num_stars {
            assert_eq!(uf_a.find(s), uf_b.find(s), "star {s} lands in a different class");
        }
        assert_eq!(outcome.accepted.len(), outcome.stats.merges_accepted);
    }

    #[test]
    fn staged_merge_pre_accepts_equal_originals_without_queries() {
        // Two phase-one passes over the same seed yield star pairs with
        // byte-identical originals; their cross-checks are the accepted
        // creation checks, so the staged run unions them structurally.
        let oracle = FnOracle::new(xml_like);
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let t1 = p1.generalize_seed(b"<a>hi</a>");
        let t2 = p1.generalize_seed(b"<a>hi</a>");
        let num_stars = p1.next_star_id();
        let trees = vec![t1, t2];

        let before = runner.unique_queries();
        let outcome = run_staged(&trees, num_stars, &mut runner);
        // Stars: 0=outer₁, 1=inner₁, 2=outer₂, 3=inner₂. The equal-original
        // pairs (0,2) and (1,3) pre-accept without a query; the four mixed
        // pairs all assemble the same two check strings a single tree's
        // (outer, inner) pair would, so dedup + cache folding collapse them
        // to exactly those two novel queries.
        assert_eq!(runner.unique_queries(), before + 2, "duplicate pairs posed duplicate queries");
        assert!(outcome.probes_elided >= 2 * 2 + 3, "pre-accepts + folded duplicates");

        // And the accept set still matches the one-shot reference's.
        let (mut legacy_uf, legacy_stats) =
            reference::merge_stars(&trees, num_stars, &mut runner, None);
        assert_eq!(outcome.stats, legacy_stats);
        let mut uf = outcome.uf;
        for s in 0..num_stars {
            assert_eq!(uf.find(s), legacy_uf.find(s));
        }
    }

    #[test]
    fn staged_merge_elides_b_check_after_failed_a() {
        // a* x b*: check A fails for the only pair, so the staged run never
        // poses check B — one of the unreduced plan's two checks is elided.
        let oracle = FnOracle::new(|i: &[u8]| {
            let Some(x) = i.iter().position(|&b| b == b'x') else { return false };
            i[..x].iter().all(|&b| b == b'a') && i[x + 1..].iter().all(|&b| b == b'b')
        });
        let mut cache = QueryCache::new();
        let mut runner = runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let trees = vec![p1.generalize_seed(b"axb")];
        let num_stars = p1.next_star_id();

        let outcome = run_staged(&trees, num_stars, &mut runner);
        assert_eq!(outcome.stats.merges_accepted, 0);
        assert!(outcome.probes_elided >= 1, "failed A must elide B");
    }
}
