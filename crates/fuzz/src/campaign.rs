//! Fuzzing campaigns and the paper's coverage metrics (Section 8.3).
//!
//! For each (program, fuzzer) pair the paper generates 50 000 samples and
//! reports the **valid normalized incremental coverage**:
//!
//! ```text
//! valid coverage             = |lines covered by valid inputs| / |coverable|
//! valid incremental coverage = |covered by valid ∖ covered by seeds|
//!                              / |coverable ∖ covered by seeds|
//! normalized                 = incremental(fuzzer) / incremental(naive)
//! ```

use crate::fuzzer::Fuzzer;
use glade_core::{GladeBuilder, Synthesis, SynthesisError};
use glade_targets::{Coverage, Target, TargetOracle};
use rand::rngs::StdRng;
use std::path::Path;

/// Coverage results of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Fuzzer display name.
    pub fuzzer: String,
    /// Target program name.
    pub target: String,
    /// Number of generated samples.
    pub samples: usize,
    /// Number of samples the target accepted.
    pub valid: usize,
    /// Lines covered by the seed inputs alone.
    pub seed_coverage: Coverage,
    /// Lines covered by *valid* generated inputs.
    pub valid_coverage: Coverage,
    /// The target's coverable-line denominator.
    pub coverable: usize,
}

impl CampaignResult {
    /// Fraction of generated inputs the target accepted.
    pub fn valid_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.valid as f64 / self.samples as f64
        }
    }

    /// The paper's valid coverage: lines covered by valid inputs over all
    /// coverable lines.
    pub fn valid_coverage_ratio(&self) -> f64 {
        if self.coverable == 0 {
            0.0
        } else {
            self.valid_coverage.len() as f64 / self.coverable as f64
        }
    }

    /// The paper's valid incremental coverage: new lines (beyond the
    /// seeds') covered by valid inputs, over coverable lines not already
    /// covered by the seeds.
    pub fn valid_incremental_coverage(&self) -> f64 {
        let denom = self.coverable.saturating_sub(self.seed_coverage.len());
        if denom == 0 {
            return 0.0;
        }
        let num = self.valid_coverage.difference(&self.seed_coverage).len();
        num as f64 / denom as f64
    }
}

/// Learns an input grammar for `target` from its bundled seeds through the
/// session API — the synthesis step of a grammar-fuzzing campaign.
///
/// When `cache_path` is given, the session warm-starts from that
/// membership-query snapshot (if present and well-formed) and refreshes it
/// after the run, so repeated campaigns against the same target stop
/// re-paying oracle calls; a second run typically reports
/// `stats.new_unique_queries == 0`. Campaign snapshots are fingerprinted
/// with `target:<name>` (verdicts are facts about one target — a snapshot
/// recorded for a *different* target is refused rather than silently
/// replayed, overriding any fingerprint set on `builder`). Snapshot I/O is
/// best-effort: a missing, stale, mismatched, or unwritable snapshot only
/// costs the warm start, never the campaign — the mismatched file is then
/// overwritten with this target's snapshot after the run. Configure
/// budgets/observers/cancellation on `builder`.
///
/// # Errors
///
/// Returns a [`SynthesisError`] if the target rejects one of its own seeds
/// (or provides none).
pub fn learn_target_grammar(
    target: &dyn Target,
    builder: GladeBuilder,
    cache_path: Option<&Path>,
) -> Result<Synthesis, SynthesisError> {
    let oracle = TargetOracle::new(target);
    let mut session =
        builder.oracle_fingerprint(format!("target:{}", target.name())).session(&oracle);
    if let Some(path) = cache_path {
        if path.exists() {
            let _ = session.load_cache(path);
        }
    }
    let result = session.add_seeds(&target.seeds())?;
    if let Some(path) = cache_path {
        let _ = session.save_cache(path);
    }
    Ok(result)
}

/// Runs `fuzzer` against `target` for `samples` inputs.
pub fn run_campaign(
    target: &dyn Target,
    fuzzer: &mut dyn Fuzzer,
    samples: usize,
    rng: &mut StdRng,
) -> CampaignResult {
    let mut result = new_result(target, fuzzer.name());
    for _ in 0..samples {
        let input = fuzzer.next_input(rng);
        let outcome = target.run(&input);
        if outcome.valid {
            result.valid += 1;
            result.valid_coverage.merge(&outcome.coverage);
        }
        fuzzer.observe(&input, &outcome);
        result.samples += 1;
    }
    result
}

/// Replays a fixed corpus (the Figure 7b upper-bound proxy: handwritten
/// grammars' samples or a bundled test suite).
pub fn replay_corpus(target: &dyn Target, name: &str, corpus: &[Vec<u8>]) -> CampaignResult {
    let mut result = new_result(target, name);
    for input in corpus {
        let outcome = target.run(input);
        if outcome.valid {
            result.valid += 1;
            result.valid_coverage.merge(&outcome.coverage);
        }
        result.samples += 1;
    }
    result
}

/// Runs a campaign, recording the valid incremental coverage after each
/// checkpoint (the Figure 7c curve).
pub fn coverage_curve(
    target: &dyn Target,
    fuzzer: &mut dyn Fuzzer,
    checkpoints: &[usize],
    rng: &mut StdRng,
) -> Vec<(usize, f64)> {
    let mut result = new_result(target, fuzzer.name());
    let mut out = Vec::with_capacity(checkpoints.len());
    let total = checkpoints.iter().copied().max().unwrap_or(0);
    let mut next_cp = 0usize;
    for produced in 1..=total {
        let input = fuzzer.next_input(rng);
        let outcome = target.run(&input);
        if outcome.valid {
            result.valid += 1;
            result.valid_coverage.merge(&outcome.coverage);
        }
        fuzzer.observe(&input, &outcome);
        result.samples = produced;
        while next_cp < checkpoints.len() && checkpoints[next_cp] == produced {
            out.push((produced, result.valid_incremental_coverage()));
            next_cp += 1;
        }
    }
    out
}

fn new_result(target: &dyn Target, fuzzer_name: &str) -> CampaignResult {
    let mut seed_coverage = Coverage::new();
    for seed in target.seeds() {
        seed_coverage.merge(&target.run(&seed).coverage);
    }
    CampaignResult {
        fuzzer: fuzzer_name.to_owned(),
        target: target.name().to_owned(),
        samples: 0,
        valid: 0,
        seed_coverage,
        valid_coverage: Coverage::new(),
        coverable: target.coverable_lines(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveFuzzer;
    use glade_targets::programs::{Grep, Xml};
    use rand::SeedableRng;

    #[test]
    fn campaign_counts_and_metrics_are_consistent() {
        let xml = Xml;
        let mut f = NaiveFuzzer::new(xml.seeds());
        let mut rng = StdRng::seed_from_u64(11);
        let r = run_campaign(&xml, &mut f, 300, &mut rng);
        assert_eq!(r.samples, 300);
        assert!(r.valid <= r.samples);
        assert!(r.valid_rate() <= 1.0);
        assert!(r.valid_coverage_ratio() <= 1.0);
        assert!(r.valid_incremental_coverage() <= 1.0);
        assert_eq!(r.target, "xml");
        assert_eq!(r.fuzzer, "naive");
    }

    #[test]
    fn replay_covers_at_least_seed_lines() {
        let grep = Grep;
        let r = replay_corpus(&grep, "corpus", &grep.seeds());
        assert_eq!(r.valid, grep.seeds().len());
        // Replaying exactly the seeds adds nothing beyond the seeds.
        assert_eq!(r.valid_incremental_coverage(), 0.0);
        assert!(r.valid_coverage_ratio() > 0.0);
    }

    #[test]
    fn learn_target_grammar_warm_starts_from_cache() {
        let xml = Xml;
        let builder = || GladeBuilder::new().max_queries(60_000).character_generalization(false);
        let path = std::env::temp_dir()
            .join(format!("glade-fuzz-campaign-cache-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let cold = learn_target_grammar(&xml, builder(), Some(&path)).expect("seeds valid");
        assert!(cold.stats.new_unique_queries > 0);
        assert!(path.exists(), "snapshot refreshed after the run");

        let warm = learn_target_grammar(&xml, builder(), Some(&path)).expect("seeds valid");
        let _ = std::fs::remove_file(&path);
        assert_eq!(warm.stats.new_unique_queries, 0, "second campaign re-paid oracle calls");
        assert_eq!(warm.stats.unique_queries, cold.stats.unique_queries);
    }

    #[test]
    fn learn_target_grammar_rejects_mismatched_cache() {
        // A snapshot recorded for one target must not warm-start a
        // campaign against another: verdicts are facts about one language.
        let path = std::env::temp_dir()
            .join(format!("glade-fuzz-campaign-mismatch-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let builder =
            || GladeBuilder::new().max_queries(2_000).character_generalization(false).phase2(false);
        learn_target_grammar(&Xml, builder(), Some(&path)).expect("seeds valid");
        let fingerprint = |path: &std::path::Path| {
            let file = glade_core::BinaryCacheFile::open(path).expect("binary snapshot written");
            file.fingerprint().map(str::to_owned)
        };
        assert_eq!(fingerprint(&path).as_deref(), Some("target:xml"), "snapshots are tagged");

        let grep = learn_target_grammar(&Grep, builder(), Some(&path)).expect("seeds valid");
        assert_eq!(
            grep.stats.unique_queries, grep.stats.new_unique_queries,
            "the xml-tagged snapshot must not seed the grep session"
        );
        // The refreshed snapshot is now grep's.
        let retagged = fingerprint(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(retagged.as_deref(), Some("target:grep"), "snapshot re-tagged for grep");
    }

    #[test]
    fn curve_is_monotone() {
        let xml = Xml;
        let mut f = NaiveFuzzer::new(xml.seeds());
        let mut rng = StdRng::seed_from_u64(12);
        let curve = coverage_curve(&xml, &mut f, &[50, 100, 200], &mut rng);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1), "{curve:?}");
        assert_eq!(curve[0].0, 50);
        assert_eq!(curve[2].0, 200);
    }
}
