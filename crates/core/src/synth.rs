//! Synthesis configuration, statistics, and results.
//!
//! The pipeline itself (Algorithm 1 plus the Section 6 extensions) is
//! driven by [`Session::add_seeds`](crate::Session::add_seeds) in
//! `session.rs`; this module holds the shared value types —
//! [`GladeConfig`], [`SynthesisStats`], [`Synthesis`], [`SynthesisError`].

use glade_grammar::{Grammar, Regex};
use std::fmt;
use std::time::Duration;

/// Configuration of a synthesis run.
///
/// Set through [`GladeBuilder`](crate::GladeBuilder)'s fluent setters (one
/// per field) and read back with
/// [`GladeBuilder::config`](crate::GladeBuilder::config). The defaults
/// reproduce the full GLADE pipeline; the `phase2` and
/// `character_generalization` switches provide the paper's ablations
/// (Section 8.2 evaluates "GLADE omitting phase two" as `P1`, and a
/// variant without character generalization).
#[derive(Debug, Clone)]
pub struct GladeConfig {
    /// Run the merge phase (Section 5). Disabling restricts GLADE to
    /// regular languages — the paper's `P1` ablation.
    pub phase2: bool,
    /// Run character generalization (Section 6.2).
    pub character_generalization: bool,
    /// Maximum number of *distinct* oracle queries per run before it
    /// degrades gracefully (stops generalizing further). `None` =
    /// unlimited. A [`Session`](crate::Session) applies the budget per
    /// [`add_seeds`](crate::Session::add_seeds) call.
    pub max_queries: Option<usize>,
    /// Wall-clock limit per run, emulating the paper's 300 s timeout.
    pub time_limit: Option<Duration>,
    /// Section 6.1 optimization: skip a seed if it is already matched by
    /// the disjunction of the regular expressions synthesized so far.
    pub skip_redundant_seeds: bool,
    /// Worker threads for batched membership checks (phase two's pairwise
    /// merge checks and character generalization's byte probes fan out
    /// across this pool; phase one batches each candidate's residual pair).
    /// `None` uses the machine's available parallelism; `Some(1)` forces
    /// the fully sequential path. With no `time_limit`, the synthesized
    /// grammar and the distinct query count are identical for every
    /// setting; with a deadline, *where* synthesis degrades depends on how
    /// many queries complete in time — inherently machine- and
    /// worker-count-dependent (more workers finish more queries before the
    /// cutoff), just as the deadline made the sequential seed
    /// implementation timing-dependent.
    pub worker_threads: Option<usize>,
}

impl Default for GladeConfig {
    fn default() -> Self {
        GladeConfig {
            phase2: true,
            character_generalization: true,
            max_queries: None,
            time_limit: None,
            skip_redundant_seeds: true,
            worker_threads: None,
        }
    }
}

/// Counters and timings recorded by a synthesis run.
///
/// In a [`Session`](crate::Session), the seed/star/merge/character counters
/// and `unique_queries` describe the *whole session so far* (so the final
/// `add_seeds` call reports exactly what a fresh run on all seeds would);
/// `new_unique_queries`, `total_queries`, the phase timings, and the
/// budget/cancel flags describe the individual run.
#[derive(Debug, Clone, Default)]
pub struct SynthesisStats {
    /// Distinct membership queries cached across the session.
    pub unique_queries: usize,
    /// Distinct membership queries this run added to the cache (zero when
    /// a warm cache — an earlier run or a loaded snapshot — already held
    /// every answer).
    pub new_unique_queries: usize,
    /// Queries posed by this run, including cache hits.
    pub total_queries: usize,
    /// Seeds actually generalized.
    pub seeds_used: usize,
    /// Seeds skipped by the Section 6.1 redundancy optimization.
    pub seeds_skipped: usize,
    /// Repetition subexpressions discovered by phase one.
    pub star_count: usize,
    /// Total nodes in the per-seed generalization trees.
    pub tree_nodes: usize,
    /// Merge pairs examined by phase two.
    pub merge_pairs_tried: usize,
    /// Merge pairs accepted by phase two.
    pub merges_accepted: usize,
    /// (position, byte) pairs accepted by character generalization.
    pub chars_generalized: usize,
    /// Terminals whose byte classes were adopted from the query-reduction
    /// layer's memo table (or from an identical in-run sibling) instead of
    /// being re-probed. Cumulative across the session, like
    /// `chars_generalized`.
    pub memo_hits: usize,
    /// Membership checks that posing every Section 5 / 6.2 check would
    /// have cost but the query-reduction layer elided before they reached
    /// the query engine (memo adoptions, context short-circuits, in-wave
    /// duplicates, plan-time cache folds, and pruned merge checks).
    /// Cumulative across the session.
    pub probes_elided: usize,
    /// Oracle *execution* failures of this run's own oracle calls: queries
    /// for which no real verdict could be obtained (process spawn failed,
    /// pooled worker crashed beyond recovery) and which therefore answered
    /// a degraded `false`. Nonzero means the grammar may be
    /// under-generalized for environmental reasons rather than language
    /// reasons — exactly the situation that used to be silent. Other
    /// callers of a shared oracle do not count here (see the
    /// [`Oracle`](crate::Oracle) docs and
    /// [`SynthEvent::OracleFailures`](crate::SynthEvent::OracleFailures)).
    pub oracle_failures: usize,
    /// Queries abandoned because an oracle worker hung past its per-query
    /// deadline (set where the oracle is built, e.g.
    /// [`PooledProcessOracle::query_timeout`](crate::PooledProcessOracle::query_timeout))
    /// and was killed. Each
    /// such query was retried on a fresh worker or degraded (and is then
    /// also visible in
    /// [`oracle_failures`](SynthesisStats::oracle_failures)); see
    /// [`SynthEvent::WorkerHung`](crate::SynthEvent::WorkerHung).
    pub timed_out_queries: usize,
    /// Worker-slot circuit-breaker trips during this run: a slot whose
    /// spawns or workers kept failing was taken out of rotation for a
    /// cool-down; see
    /// [`SynthEvent::BreakerTripped`](crate::SynthEvent::BreakerTripped).
    pub tripped_workers: usize,
    /// Whether the query/time budget ran out (or the run was cancelled)
    /// mid-run.
    pub budget_exhausted: bool,
    /// Whether this run observed a [`CancelToken`](crate::CancelToken)
    /// cancellation. Cancelled runs degrade exactly like budget-exhausted
    /// ones: the grammar still contains every seed.
    pub cancelled: bool,
    /// Wall-clock time spent in phase one.
    pub phase1_time: Duration,
    /// Wall-clock time spent on character generalization. Chargen and
    /// phase two pose one shared aggregated membership batch; its wall
    /// time is attributed pro rata by check count, so this remains "time
    /// spent on this phase's oracle work".
    pub chargen_time: Duration,
    /// Wall-clock time spent on phase two (same pro-rata attribution of
    /// the shared batch as `chargen_time`).
    pub phase2_time: Duration,
}

impl SynthesisStats {
    /// Total synthesis time.
    pub fn total_time(&self) -> Duration {
        self.phase1_time + self.chargen_time + self.phase2_time
    }
}

/// The result of a synthesis run.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The synthesized context-free grammar `Ĉ` approximating `L*`.
    pub grammar: Grammar,
    /// The phase-one view: the disjunction of the per-seed regular
    /// expressions (after character generalization). Equal in language to
    /// `grammar` when phase two is disabled or accepts no merge.
    pub regex: Regex,
    /// Run statistics.
    pub stats: SynthesisStats,
}

/// Errors reported by [`Session::add_seeds`](crate::Session::add_seeds).
///
/// `#[non_exhaustive]`: the session API may add error variants (match with
/// a wildcard arm).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// No seed inputs were provided; GLADE needs at least one example.
    NoSeeds,
    /// A seed input is rejected by the oracle, violating the premise
    /// `E_in ⊆ L*` (Section 2).
    SeedRejected(Vec<u8>),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoSeeds => write!(f, "no seed inputs provided"),
            SynthesisError::SeedRejected(s) => {
                write!(f, "seed input {:?} is rejected by the oracle", String::from_utf8_lossy(s))
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::xml_like;
    use crate::{FnOracle, GladeBuilder};
    use glade_grammar::{Earley, Sampler};
    use rand::SeedableRng;

    #[test]
    fn full_pipeline_on_running_example() {
        let oracle = FnOracle::new(xml_like);
        let result = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).unwrap();
        let e = Earley::new(&result.grammar);
        // Section 6.2's conclusion: L(Ĉ'_XML) = L(C_XML) — the synthesized
        // grammar is exactly the target on this example.
        for member in [
            &b""[..],
            b"<a>hi</a>",
            b"xyz",
            b"<a><a>deep</a></a>",
            b"<a></a><a>q</a>",
            b"<a><a>a</a><a>b</a>cc</a>",
        ] {
            assert!(e.accepts(member), "should accept {:?}", String::from_utf8_lossy(member));
        }
        for nonmember in
            [&b"<a>"[..], b"</a>", b"<a>hi</a", b"<b>x</b>", b"<a>HI</a>", b"1", b"<a><a></a>"]
        {
            assert!(
                !e.accepts(nonmember),
                "should reject {:?}",
                String::from_utf8_lossy(nonmember)
            );
        }
        assert_eq!(result.stats.star_count, 2);
        assert_eq!(result.stats.merges_accepted, 1);
        assert!(result.stats.unique_queries > 0);
    }

    #[test]
    fn precision_of_samples_is_perfect_on_running_example() {
        let oracle = FnOracle::new(xml_like);
        let result = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).unwrap();
        let sampler = Sampler::new(&result.grammar);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..300 {
            let s = sampler.sample(&mut rng).expect("productive");
            assert!(xml_like(&s), "invalid sample {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn phase1_only_ablation_is_regular() {
        let oracle = FnOracle::new(xml_like);
        let result = GladeBuilder::new()
            .phase2(false)
            .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
            .unwrap();
        let e = Earley::new(&result.grammar);
        assert!(e.accepts(b"<a>hi</a>"));
        assert!(e.accepts(b"<a>xy</a>")); // chargen widened letters inside tags
        assert!(!e.accepts(b"xy"), "top-level letters require the phase-2 merge");
        assert!(!e.accepts(b"<a><a>x</a></a>"), "P1 cannot nest");
        assert_eq!(result.stats.merge_pairs_tried, 0);
    }

    #[test]
    fn no_chargen_ablation_keeps_seed_letters_only() {
        let oracle = FnOracle::new(xml_like);
        let result = GladeBuilder::new()
            .character_generalization(false)
            .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
            .unwrap();
        let e = Earley::new(&result.grammar);
        assert!(e.accepts(b"<a>hihi</a>"));
        assert!(!e.accepts(b"<a>z</a>"), "z was never generalized");
        assert_eq!(result.stats.chars_generalized, 0);
    }

    #[test]
    fn errors_on_empty_and_rejected_seeds() {
        let oracle = FnOracle::new(xml_like);
        assert_eq!(
            GladeBuilder::new().synthesize(&[], &oracle).unwrap_err(),
            SynthesisError::NoSeeds
        );
        let err = GladeBuilder::new().synthesize(&[b"<bad".to_vec()], &oracle).unwrap_err();
        assert_eq!(err, SynthesisError::SeedRejected(b"<bad".to_vec()));
    }

    #[test]
    fn redundant_seed_is_skipped() {
        let oracle = FnOracle::new(xml_like);
        // The second seed is already covered by the first seed's regex
        // (<a>(letter)*</a>)* after phase 1.
        let seeds = vec![b"<a>hi</a>".to_vec(), b"<a>hi</a><a>hi</a>".to_vec()];
        let result = GladeBuilder::new().synthesize(&seeds, &oracle).unwrap();
        assert_eq!(result.stats.seeds_used, 1);
        assert_eq!(result.stats.seeds_skipped, 1);
    }

    #[test]
    fn multiple_seeds_union_at_start() {
        // L = {start,stop} ∪ digit strings: two structurally different seeds.
        let oracle = FnOracle::new(|i: &[u8]| {
            i == b"start" || i == b"stop" || (!i.is_empty() && i.iter().all(u8::is_ascii_digit))
        });
        let result = GladeBuilder::new()
            .character_generalization(false)
            .synthesize(&[b"start".to_vec(), b"42".to_vec()], &oracle)
            .unwrap();
        let e = Earley::new(&result.grammar);
        assert!(e.accepts(b"start"));
        assert!(e.accepts(b"42"));
        assert_eq!(result.stats.seeds_used, 2);
    }

    #[test]
    fn budget_limits_are_reported() {
        let oracle = FnOracle::new(xml_like);
        let result = GladeBuilder::new()
            .max_queries(5)
            .synthesize(&[b"<a>hi</a>".to_vec()], &oracle)
            .unwrap();
        assert!(result.stats.budget_exhausted);
        // The seed is still in the synthesized language (monotonicity).
        let e = Earley::new(&result.grammar);
        assert!(e.accepts(b"<a>hi</a>"));
    }

    #[test]
    fn stats_time_accounting() {
        let oracle = FnOracle::new(xml_like);
        let result = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).unwrap();
        assert!(result.stats.total_time() >= result.stats.phase1_time);
        assert!(result.stats.total_queries >= result.stats.unique_queries);
        assert_eq!(result.stats.new_unique_queries, result.stats.unique_queries);
    }

    #[test]
    fn regex_field_matches_phase1_language() {
        let oracle = FnOracle::new(xml_like);
        let result = GladeBuilder::new().synthesize(&[b"<a>hi</a>".to_vec()], &oracle).unwrap();
        assert!(result.regex.is_match(b"<a>qq</a>"));
        assert!(!result.regex.is_match(b"<a><a>q</a></a>"), "regex view is pre-merge");
    }
}
