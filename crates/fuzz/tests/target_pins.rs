//! Exact pins on the target-execution layer: what GLADE learns from each
//! program through `TargetOracle`, and what fixed-rng fuzzing campaigns
//! observe of each program's validity and line coverage.
//!
//! How a run records its coverage may change what a run costs, never a
//! verdict or a covered line, so these figures must not move.

use glade_core::{GladeBuilder, Synthesis};
use glade_fuzz::{learn_target_grammar, run_campaign, AflFuzzer, GrammarFuzzer, NaiveFuzzer};
use glade_grammar::grammar_to_text;
use glade_targets::programs::all_targets;
use glade_targets::Target;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Per program in `all_targets()` order: `unique_queries`,
/// `total_queries` and the byte length of the learned grammar's text.
const LEARNED: [(&str, usize, usize, usize); 8] = [
    ("sed", 6061, 6127, 1392),
    ("flex", 22769, 23044, 2218),
    ("grep", 6364, 6436, 970),
    ("bison", 11297, 11372, 1064),
    ("xml", 15243, 15503, 1355),
    ("ruby", 30188, 31055, 5607),
    ("python", 34336, 35226, 4536),
    ("javascript", 29352, 29941, 4862),
];

/// Generated inputs per campaign.
const SAMPLES: usize = 400;

/// Per program and fuzzer (naive, afl, grammar): `samples`, `valid`,
/// `valid_coverage.len()` and `seed_coverage.len()`.
const CAMPAIGNS: [(&str, [[usize; 4]; 3]); 8] = [
    ("sed", [[400, 53, 32, 23], [400, 177, 32, 23], [400, 337, 35, 23]]),
    ("flex", [[400, 38, 32, 30], [400, 251, 30, 30], [400, 99, 35, 30]]),
    ("grep", [[400, 205, 22, 21], [400, 251, 21, 21], [400, 350, 23, 21]]),
    ("bison", [[400, 20, 22, 22], [400, 137, 21, 22], [400, 146, 22, 22]]),
    ("xml", [[400, 18, 29, 26], [400, 97, 18, 26], [400, 253, 30, 26]]),
    ("ruby", [[400, 28, 52, 53], [400, 126, 39, 53], [400, 344, 53, 53]]),
    ("python", [[400, 12, 48, 46], [400, 100, 34, 46], [400, 268, 55, 46]]),
    ("javascript", [[400, 9, 52, 52], [400, 87, 33, 52], [400, 181, 55, 52]]),
];

/// Every program's grammar, learned once for the whole file with the
/// configuration perfbench's `program_fuzz` workload uses.
fn learned() -> &'static [Synthesis] {
    static LEARNED: OnceLock<Vec<Synthesis>> = OnceLock::new();
    LEARNED.get_or_init(|| {
        all_targets()
            .iter()
            .map(|t| {
                let builder = GladeBuilder::new().worker_threads(2).max_queries(2_000_000);
                learn_target_grammar(t.as_ref(), builder, None).expect("seeds are valid")
            })
            .collect()
    })
}

#[test]
fn learned_query_counts_and_grammar_sizes_per_program() {
    let got: Vec<(&str, usize, usize, usize)> = all_targets()
        .iter()
        .zip(learned())
        .map(|(t, s)| {
            let text = grammar_to_text(&s.grammar);
            (t.name(), s.stats.unique_queries, s.stats.total_queries, text.len())
        })
        .collect();
    assert_eq!(got, LEARNED);
    // perfbench's `program_fuzz` reports this sum as `unique_queries`.
    assert_eq!(LEARNED.iter().map(|p| p.1).sum::<usize>(), 155_610);
}

#[test]
fn fixed_rng_campaigns_per_program_and_fuzzer() {
    let mut got = Vec::new();
    for (i, (target, synthesis)) in all_targets().iter().zip(learned()).enumerate() {
        let target: &dyn Target = target.as_ref();
        let seeds = target.seeds();
        let mut rows = [[0; 4]; 3];
        let fuzzers: [Box<dyn glade_fuzz::Fuzzer>; 3] = [
            Box::new(NaiveFuzzer::new(seeds.clone())),
            Box::new(AflFuzzer::new(seeds.clone())),
            Box::new(GrammarFuzzer::new(synthesis.grammar.clone(), &seeds)),
        ];
        for (row, mut fuzzer) in rows.iter_mut().zip(fuzzers) {
            let mut rng = StdRng::seed_from_u64(1000 + i as u64);
            let r = run_campaign(target, fuzzer.as_mut(), SAMPLES, &mut rng);
            *row = [r.samples, r.valid, r.valid_coverage.len(), r.seed_coverage.len()];
        }
        got.push((target.name(), rows));
    }
    assert_eq!(got, CAMPAIGNS);
}
