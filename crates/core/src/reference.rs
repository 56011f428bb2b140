//! Test-only reference planners: the historical one-shot character
//! generalization and merge planners, kept to prove the staged planners
//! exact.
//!
//! The one-shot planners pose *every* check Sections 5 and 6.2 of the
//! paper define — each `(terminal, position, candidate byte, context)`
//! widening probe and both cross-substitution checks of every star pair —
//! as one aggregated [`QueryRunner::accepts_batch`], then fold the
//! verdicts in planning order. No check is elided, so their query counts
//! are the paper's raw cost model (1324 distinct / 1442 total on the
//! running example `<a>hi</a>`).
//!
//! Production synthesis runs the staged wave planners instead
//! ([`StagedChargen`](crate::chargen::StagedChargen),
//! [`StagedMerge`](crate::phase2::StagedMerge)), which elide checks whose
//! verdicts are already determined. The tests below pin that every such
//! elision is exact: the staged session synthesizes byte-identical
//! grammars to [`synthesize`] here, on the running example at several
//! worker counts, through incremental `add_seeds`, and on every Section
//! 8.2 language. This module plays the role for the planners that
//! `crates/grammar/tests/reference` plays for the old Earley chart.

use crate::cache::QueryCache;
use crate::chargen::TEST_BYTES;
use crate::events::{SynthEvent, SynthesisObserver};
use crate::phase1::Phase1;
use crate::phase2::MergeStats;
use crate::runner::{CheckSpec, QueryRunner, RunnerOptions};
use crate::synth::{GladeConfig, Synthesis, SynthesisError, SynthesisStats};
use crate::tree::{trees_to_grammar, Node, StarNode, UnionFind};
use crate::Oracle;
use glade_grammar::Regex;

/// One planned `(position, candidate byte)` widening probe of one terminal.
///
/// Deliberately owns no borrowed data: the plan must outlive the check
/// list (which borrows the trees immutably) so the verdicts can be applied
/// through a *mutable* walk of the same trees.
#[derive(Debug, Clone, Copy)]
struct CharProbe {
    /// Index of the tree within the planned slice.
    tree: usize,
    /// Ordinal of the const within the tree, in visit order.
    const_ordinal: usize,
    /// Byte position within the terminal.
    position: usize,
    /// Candidate byte.
    byte: u8,
    /// Number of consecutive verdicts (one per context) this probe owns.
    contexts: usize,
}

/// The bookkeeping side of an aggregated character-generalization batch:
/// maps a contiguous slice of batch verdicts back onto tree terminals.
#[derive(Debug, Default)]
pub(crate) struct CharGenPlan {
    probes: Vec<CharProbe>,
    /// Number of checks this plan appended to the shared check list.
    pub checks_len: usize,
}

/// Plans every widening probe for every terminal of `trees` against
/// `test_bytes`, appending the checks to `checks` (one per context per
/// candidate) and returning the bookkeeping needed to apply the verdicts.
pub(crate) fn plan_char_probes<'t>(
    trees: &'t [Node],
    test_bytes: &'t [u8],
    checks: &mut Vec<CheckSpec<'t>>,
) -> CharGenPlan {
    let mut plan = CharGenPlan::default();
    let start = checks.len();
    for (t, tree) in trees.iter().enumerate() {
        let mut ordinal = 0usize;
        tree.visit_consts(&mut |c| {
            for i in 0..c.original.len() {
                for (k, &sigma) in test_bytes.iter().enumerate() {
                    if sigma == c.original[i] || c.classes[i].contains(sigma) {
                        continue;
                    }
                    for ctx in &c.contexts {
                        checks.push(CheckSpec::new(&[
                            &ctx.before,
                            &c.original[..i],
                            &test_bytes[k..k + 1],
                            &c.original[i + 1..],
                            &ctx.after,
                        ]));
                    }
                    plan.probes.push(CharProbe {
                        tree: t,
                        const_ordinal: ordinal,
                        position: i,
                        byte: sigma,
                        contexts: c.contexts.len(),
                    });
                }
            }
            ordinal += 1;
        });
    }
    plan.checks_len = checks.len() - start;
    plan
}

/// Folds the verdict slice of an aggregated batch back into the byte
/// classes of `trees` (the same slice that was planned). A byte joins the
/// class at a position only if its probe was accepted in *every* context.
///
/// Returns the number of (position, byte) pairs accepted.
pub(crate) fn apply_char_probes(
    trees: &mut [Node],
    plan: &CharGenPlan,
    verdicts: &[bool],
) -> usize {
    debug_assert_eq!(verdicts.len(), plan.checks_len);
    let mut accepted = 0usize;
    let mut next_probe = 0usize;
    let mut verdict_cursor = 0usize;
    for (t, tree) in trees.iter_mut().enumerate() {
        let mut ordinal = 0usize;
        tree.visit_consts_mut(&mut |c| {
            while let Some(p) = plan.probes.get(next_probe) {
                if p.tree != t || p.const_ordinal != ordinal {
                    break;
                }
                let vs = &verdicts[verdict_cursor..verdict_cursor + p.contexts];
                verdict_cursor += p.contexts;
                next_probe += 1;
                if vs.iter().all(|&v| v) {
                    c.classes[p.position].insert(p.byte);
                    accepted += 1;
                }
            }
            ordinal += 1;
        });
    }
    debug_assert_eq!(next_probe, plan.probes.len(), "every planned probe applied");
    accepted
}

/// Widens every terminal position of `trees` against `test_bytes` as one
/// self-contained batch (plan → pose → apply). Returns the number of
/// (position, byte) pairs accepted.
pub(crate) fn generalize_chars(
    trees: &mut [Node],
    runner: &mut QueryRunner<'_>,
    test_bytes: &[u8],
) -> usize {
    let mut checks: Vec<CheckSpec<'_>> = Vec::new();
    let plan = plan_char_probes(trees, test_bytes, &mut checks);
    let verdicts = runner.accepts_batch(&checks);
    drop(checks);
    apply_char_probes(trees, &plan, &verdicts)
}

/// The bookkeeping side of an aggregated merge batch: the unordered star
/// pairs, in ascending (id, id) order, whose 2-check verdict pairs occupy
/// a contiguous slice of the batch. Owns no borrowed data (star *ids*, not
/// star references), so the check list — and its immutable borrow of the
/// trees — can be dropped before folding.
#[derive(Debug, Default)]
pub(crate) struct MergePlan {
    /// Star-id pairs, two consecutive batch verdicts each.
    pairs: Vec<(usize, usize)>,
    num_stars: usize,
    /// Number of checks this plan appended to the shared check list.
    pub checks_len: usize,
}

/// Plans the merge phase over all star nodes of all seed trees, appending
/// both cross-substitution checks of every unordered pair (Section 5.3) to
/// `checks`: `R_j`'s residual in `R_i`'s context and vice versa.
pub(crate) fn plan_merge_checks<'t>(
    trees: &'t [Node],
    num_stars: usize,
    checks: &mut Vec<CheckSpec<'t>>,
) -> MergePlan {
    let mut stars: Vec<&StarNode> = Vec::new();
    for t in trees {
        t.collect_stars(&mut stars);
    }
    stars.sort_by_key(|s| s.id);
    let start = checks.len();
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(stars.len() * stars.len() / 2);
    for i in 0..stars.len() {
        for j in i + 1..stars.len() {
            let (si, sj) = (stars[i], stars[j]);
            checks.push(CheckSpec::wrapped(&si.ctx, &sj.residual_parts()));
            checks.push(CheckSpec::wrapped(&sj.ctx, &si.residual_parts()));
            pairs.push((si.id, sj.id));
        }
    }
    MergePlan { pairs, num_stars, checks_len: checks.len() - start }
}

/// Folds the verdict slice of an aggregated batch into the union-find,
/// applying the unions in ascending pair order. Accepted merges are
/// reported to `observer` as [`SynthEvent::MergeAccepted`] events.
pub(crate) fn apply_merge_verdicts(
    plan: &MergePlan,
    verdicts: &[bool],
    observer: Option<&dyn SynthesisObserver>,
) -> (UnionFind, MergeStats) {
    debug_assert_eq!(verdicts.len(), plan.checks_len);
    let mut uf = UnionFind::new(plan.num_stars);
    let mut stats = MergeStats::default();
    for (p, &(left, right)) in plan.pairs.iter().enumerate() {
        stats.pairs_tried += 1;
        // The two candidates per pair (Section 5.2): merge, or keep the
        // current grammar. Merge wins iff both checks pass.
        if verdicts[2 * p] && verdicts[2 * p + 1] {
            uf.union(left, right);
            stats.merges_accepted += 1;
            if let Some(obs) = observer {
                obs.on_event(&SynthEvent::MergeAccepted { left_star: left, right_star: right });
            }
        }
    }
    (uf, stats)
}

/// Runs the merge phase as one self-contained batch (plan → pose → apply).
pub(crate) fn merge_stars(
    trees: &[Node],
    num_stars: usize,
    runner: &mut QueryRunner<'_>,
    observer: Option<&dyn SynthesisObserver>,
) -> (UnionFind, MergeStats) {
    let mut checks: Vec<CheckSpec<'_>> = Vec::new();
    let plan = plan_merge_checks(trees, num_stars, &mut checks);
    let verdicts = runner.accepts_batch(&checks);
    apply_merge_verdicts(&plan, &verdicts, observer)
}

/// A fresh one-shot synthesis of `seeds` under `config`: seed validation,
/// phase one with the Section 6.1 redundant-seed skip, then every
/// character-generalization probe and every merge check posed as one
/// aggregated batch. Honors `phase2`, `character_generalization`,
/// `skip_redundant_seeds`, `max_queries` and `worker_threads` (default
/// 1); ignores the time limit and the oracle timeout. Its stats carry the
/// query counts, the budget flag, and the character and merge counters.
pub(crate) fn synthesize(
    config: &GladeConfig,
    seeds: &[Vec<u8>],
    oracle: &dyn Oracle,
) -> Result<Synthesis, SynthesisError> {
    let mut cache = QueryCache::new();
    let mut runner = QueryRunner::new(
        oracle,
        &mut cache,
        RunnerOptions {
            max_queries: config.max_queries,
            workers: config.worker_threads.unwrap_or(1),
            ..RunnerOptions::default()
        },
    );
    for seed in seeds {
        runner.validate_seed(seed)?;
    }
    let mut stats = SynthesisStats::default();
    let mut phase1 = Phase1::new(&mut runner, 0);
    let mut trees: Vec<Node> = Vec::new();
    let mut combined: Option<Regex> = None;
    for seed in seeds {
        if config.skip_redundant_seeds && combined.as_ref().is_some_and(|r| r.is_match(seed)) {
            continue;
        }
        let tree = phase1.generalize_seed(seed);
        let tree_regex = tree.to_regex();
        combined = Some(match combined.take() {
            Some(r) => Regex::alt(vec![r, tree_regex]),
            None => tree_regex,
        });
        trees.push(tree);
    }
    let num_stars = phase1.next_star_id();

    let mut checks = Vec::new();
    let chargen =
        config.character_generalization.then(|| plan_char_probes(&trees, TEST_BYTES, &mut checks));
    let merge = config.phase2.then(|| plan_merge_checks(&trees, num_stars, &mut checks));
    let verdicts = if checks.is_empty() { Vec::new() } else { runner.accepts_batch(&checks) };
    drop(checks);
    let merge_offset = chargen.as_ref().map_or(0, |p| p.checks_len);
    if let Some(plan) = &chargen {
        stats.chars_generalized = apply_char_probes(&mut trees, plan, &verdicts[..merge_offset]);
    }
    let mut uf = match &merge {
        Some(plan) => {
            let (uf, mstats) = apply_merge_verdicts(plan, &verdicts[merge_offset..], None);
            stats.merge_pairs_tried = mstats.pairs_tried;
            stats.merges_accepted = mstats.merges_accepted;
            uf
        }
        None => UnionFind::new(num_stars),
    };

    let grammar = trees_to_grammar(&trees, &mut uf);
    let regex = Regex::alt(trees.iter().map(Node::to_regex).collect());
    stats.unique_queries = runner.unique_queries();
    stats.total_queries = runner.total_queries();
    stats.budget_exhausted = runner.exhausted();
    Ok(Synthesis { grammar, regex, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::xml_like;
    use crate::{FnOracle, GladeBuilder};
    use glade_grammar::grammar_to_text;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Golden distinct- and total-query counts of the one-shot planners on
    /// the running example `<a>hi</a>`: the raw cost model, with no check
    /// elided.
    const GOLDEN_UNIQUE: usize = 1324;
    const GOLDEN_TOTAL: usize = 1442;

    #[test]
    fn reference_pins_the_running_example_cost_model() {
        let oracle = FnOracle::new(xml_like);
        for workers in [1, 4] {
            let config = GladeConfig { worker_threads: Some(workers), ..GladeConfig::default() };
            let run = synthesize(&config, &[b"<a>hi</a>".to_vec()], &oracle).unwrap();
            assert_eq!(run.stats.unique_queries, GOLDEN_UNIQUE, "workers={workers}");
            assert_eq!(run.stats.total_queries, GOLDEN_TOTAL, "workers={workers}");
            assert_eq!(run.stats.merge_pairs_tried, 1);
            assert_eq!(run.stats.merges_accepted, 1);
            assert_eq!(run.stats.chars_generalized, 50);
        }
    }

    #[test]
    fn staged_session_matches_reference_grammar_across_worker_counts_and_increments() {
        // The exactness invariant of every staged elision, end to end:
        // byte-identical grammars to the one-shot reference at every worker
        // count and through incremental add_seeds, with strictly fewer
        // distinct and total queries.
        let seed1 = b"<a>hi</a>".to_vec();
        let seed2 = b"<a><a>x</a></a>".to_vec();
        let seeds = vec![seed1.clone(), seed2.clone()];
        let oracle = FnOracle::new(xml_like);
        let single = synthesize(&GladeConfig::default(), &seeds[..1], &oracle).unwrap();
        let both = synthesize(&GladeConfig::default(), &seeds, &oracle).unwrap();
        for workers in [1usize, 4] {
            let staged = GladeBuilder::new()
                .worker_threads(workers)
                .synthesize(&seeds[..1], &oracle)
                .unwrap();
            assert_eq!(
                grammar_to_text(&staged.grammar),
                grammar_to_text(&single.grammar),
                "running example drifted at {workers} workers"
            );
            let fresh =
                GladeBuilder::new().worker_threads(workers).synthesize(&seeds, &oracle).unwrap();
            let mut session = GladeBuilder::new().worker_threads(workers).session(&oracle);
            session.add_seeds(std::slice::from_ref(&seed1)).unwrap();
            let incremental = session.add_seeds(std::slice::from_ref(&seed2)).unwrap();
            for (what, run) in [("fresh", &fresh), ("incremental", &incremental)] {
                assert_eq!(
                    grammar_to_text(&run.grammar),
                    grammar_to_text(&both.grammar),
                    "{what} staged grammar drifted at {workers} workers"
                );
                assert_eq!(run.regex.to_string(), both.regex.to_string());
                assert_eq!(run.stats.chars_generalized, both.stats.chars_generalized);
                assert_eq!(run.stats.merge_pairs_tried, both.stats.merge_pairs_tried);
                assert_eq!(run.stats.merges_accepted, both.stats.merges_accepted);
            }
            assert!(fresh.stats.unique_queries < both.stats.unique_queries);
            assert!(fresh.stats.total_queries < both.stats.total_queries);
            assert!(fresh.stats.probes_elided > 0);
        }
    }

    #[test]
    fn per_language_reference_pins_and_staged_grammar_equality() {
        // The one-shot cost model on every Section 8.2 language plus the
        // toy running-example language, with seeds sampled exactly as
        // tests/parallel.rs samples them (seed 17, four seeds). The staged
        // session must synthesize byte-identical grammars, and url — the
        // memo-heaviest language — must pose >= 1.3x fewer distinct
        // queries through it.
        let pins: &[(&str, usize)] =
            &[("url", 19_842), ("grep", 5_483), ("lisp", 3_028), ("xml", 707), ("toy-xml", 1_594)];
        let mut languages = glade_targets::languages::section82_languages();
        languages.push(glade_targets::languages::toy_xml());
        let config = GladeConfig { max_queries: Some(200_000), ..GladeConfig::default() };
        for language in &languages {
            let &(_, pinned) =
                pins.iter().find(|(n, _)| *n == language.name()).expect("language is pinned");
            let mut rng = StdRng::seed_from_u64(17);
            let seeds = glade_eval::sample_seeds(language, 4, &mut rng);
            // Not `language.oracle()`: through this crate's dev-dependency
            // cycle, glade-targets implements a second copy of `Oracle`.
            let recognizer = glade_grammar::Recognizer::new(language.grammar());
            let oracle = FnOracle::new(move |i: &[u8]| recognizer.accepts(i));
            let reference = synthesize(&config, &seeds, &oracle).expect("sampled seeds");
            let staged = GladeBuilder::new()
                .max_queries(200_000)
                .synthesize(&seeds, &oracle)
                .expect("sampled seeds");
            assert!(!reference.stats.budget_exhausted, "{} exhausted", language.name());
            assert_eq!(reference.stats.unique_queries, pinned, "{} drifted", language.name());
            assert_eq!(
                grammar_to_text(&staged.grammar),
                grammar_to_text(&reference.grammar),
                "{}: a staged elision changed the grammar",
                language.name()
            );
            if language.name() == "url" {
                let reduction =
                    reference.stats.unique_queries as f64 / staged.stats.unique_queries as f64;
                assert!(reduction >= 1.3, "url sheds only x{reduction:.2} of its queries");
            }
        }
    }
}
