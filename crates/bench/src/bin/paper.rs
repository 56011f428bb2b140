//! `paper` — regenerates the paper's evaluation (Section 8) at one fixed
//! scale and writes it to `BENCH_paper.json` in the current directory.
//!
//! Usage: `cargo run --release -p glade-bench --bin paper` (about 130 s
//! on a 2-vCPU host). It takes no arguments and reads no
//! environment: every setting is a constant below, so two runs write the
//! same bytes apart from the wall-time fields, which all end in `_s`.
//!
//! Every measured number is written as `{"median", "min", "max"}` over rng
//! seeds 1–3; structural counts that no rng reaches (source sizes, a
//! program's learned query count) are plain integers. Sections:
//!
//! - `figure4`: precision, recall, F1, wall time and queries of L-Star,
//!   RPNI, GLADE-P1 and GLADE on the four Section 8.2 languages at
//!   [`EvalConfig::default`] (50 seeds, 1000 samples). L-Star stops on a
//!   deterministic budget of [`LSTAR_MAX_QUERIES`] membership queries; the
//!   300 s time limit stays only as a tripwire. The binary writes the JSON
//!   and then exits 1 if any L-Star or RPNI row reaches the time limit
//!   (`rows_at_time_limit`: the row would then depend on the host's
//!   speed) or any L-Star row spent more queries than its budget
//!   (`rows_over_query_budget`).
//! - `figure4c`: GLADE on xml at 10–50 seeds.
//! - `figure5`: the grammar GLADE synthesizes per language from a few
//!   handpicked seeds, beside the language's own grammar.
//! - `ablations`: GLADE with phase two, character generalization ("cg")
//!   and the Section 6.1 redundant-seed skip toggled, on the same runs as
//!   Figure 4.
//! - `figure6`: the eight target programs, their seeds and learning cost.
//! - `figure7`: valid incremental coverage, valid rate and the raw count
//!   of new coverage points (over `new_points_of`, the points the seeds
//!   leave uncovered) of the naive, afl and GLADE fuzzers at
//!   [`FUZZ_SAMPLES`] inputs per program, plus the Figure 7b upper-bound
//!   proxies: a handwritten grammar's fuzzer for grep and xml, the bundled
//!   test suite for ruby, python and javascript.
//! - `figure7c`: python's valid incremental coverage every
//!   [`CURVE_STEP`] inputs.
//! - `figure8`: five valid samples of the grammar learned for the xml
//!   program.

use glade_bench::Json;
use glade_core::{GladeBuilder, Oracle, Synthesis};
use glade_eval::{
    evaluate_grammar, run_learner, sample_seeds, seed_sweep, EvalConfig, LearnRow, Learner,
};
use glade_fuzz::{
    coverage_curve, learn_target_grammar, replay_corpus, run_campaign, AflFuzzer, CampaignResult,
    Fuzzer, GrammarFuzzer, NaiveFuzzer,
};
use glade_grammar::{Grammar, Sampler};
use glade_targets::languages::{self, section82_languages, Language};
use glade_targets::programs::all_targets;
use glade_targets::{corpora, Target, TargetOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Rng seeds every measured number is taken over.
const RNG_SEEDS: [u64; 3] = [1, 2, 3];
/// L-Star's membership-query budget in Figure 4.
const LSTAR_MAX_QUERIES: usize = 50_000;
/// Unique-query cap when learning a program's or a Figure 5 grammar.
const PROGRAM_MAX_QUERIES: usize = 300_000;
/// Seed counts of the Figure 4c sweep.
const SWEEP_COUNTS: [usize; 5] = [10, 20, 30, 40, 50];
/// Inputs per fuzzing campaign (the paper's 50 000).
const FUZZ_SAMPLES: usize = 50_000;
/// Inputs between two Figure 7c checkpoints.
const CURVE_STEP: usize = 5_000;
/// Ablation variants: name, phase two, character generalization, seed skip.
const ABLATIONS: [(&str, bool, bool, bool); 5] = [
    ("P1 no-cg", false, false, true),
    ("P1", false, true, true),
    ("GLADE no-cg", true, false, true),
    ("GLADE", true, true, true),
    ("GLADE no-skip", true, true, false),
];
const FUZZERS: [&str; 3] = ["naive", "afl", "glade"];
const OUT: &str = "BENCH_paper.json";

fn main() {
    let start = Instant::now();
    let mut j = Json::new();
    j.open_obj(None);
    j.string("bench", "GLADE paper evaluation (Section 8), median/min/max over rng seeds 1-3");
    let (capped, over_budget) = figure4(&mut j);
    figure4c(&mut j);
    figure5(&mut j);
    ablations(&mut j);
    let programs = figure6(&mut j);
    figure7(&mut j, &programs);
    figure7c(&mut j, &programs);
    figure8(&mut j, &programs);
    j.strings("rows_at_time_limit", &capped);
    j.strings("rows_over_query_budget", &over_budget);
    j.num("wall_s", start.elapsed().as_secs_f64());
    j.close_obj();
    std::fs::write(OUT, format!("{}\n", j.finish())).expect("write BENCH_paper.json");
    eprintln!("[paper] wrote {OUT} in {:.1} s", start.elapsed().as_secs_f64());
    if !capped.is_empty() {
        eprintln!("[paper] rows stopped by the time limit: {}", capped.join(", "));
    }
    if !over_budget.is_empty() {
        eprintln!(
            "[paper] L-Star rows over the {LSTAR_MAX_QUERIES}-query budget: {}",
            over_budget.join(", ")
        );
    }
    if !capped.is_empty() || !over_budget.is_empty() {
        std::process::exit(1);
    }
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Figure 4a/b. Returns the baseline rows that reached the time limit,
/// and the L-Star rows that spent more queries than their budget.
fn figure4(j: &mut Json) -> (Vec<String>, Vec<String>) {
    let (mut capped, mut over_budget) = (Vec::new(), Vec::new());
    j.open_obj(Some("figure4"));
    j.int("lstar_max_queries", LSTAR_MAX_QUERIES);
    for language in section82_languages() {
        j.open_obj(Some(language.name()));
        for learner in Learner::all() {
            let config = match learner {
                Learner::LStar => {
                    EvalConfig { max_queries: LSTAR_MAX_QUERIES, ..EvalConfig::default() }
                }
                _ => EvalConfig::default(),
            };
            let rows: Vec<LearnRow> = RNG_SEEDS
                .iter()
                .map(|&seed| run_learner(&language, learner, &config, &mut rng(seed)))
                .collect();
            let baseline = matches!(learner, Learner::LStar | Learner::Rpni);
            for (row, seed) in rows.iter().zip(RNG_SEEDS) {
                let name = || format!("{} {} rng seed {seed}", language.name(), learner.name());
                if baseline && row.time >= config.time_limit {
                    capped.push(name());
                }
                if learner == Learner::LStar && row.queries > LSTAR_MAX_QUERIES {
                    over_budget.push(name());
                }
            }
            j.open_obj(Some(learner.name()));
            j.range("precision", rows.iter().map(|r| r.quality.precision));
            j.range("recall", rows.iter().map(|r| r.quality.recall));
            j.range("f1", rows.iter().map(LearnRow::f1));
            j.range("queries", rows.iter().map(|r| r.queries as f64));
            j.range("seeds_used", rows.iter().map(|r| r.seeds_used as f64));
            j.int("budget_stops", rows.iter().filter(|r| r.timed_out).count());
            j.range("time_s", rows.iter().map(|r| r.time.as_secs_f64()));
            j.close_obj();
        }
        j.close_obj();
    }
    j.close_obj();
    (capped, over_budget)
}

/// Figure 4c: nested seed sets drawn from one master sample per rng seed.
fn figure4c(j: &mut Json) {
    let xml = languages::xml();
    let sweeps: Vec<_> = RNG_SEEDS
        .iter()
        .map(|&seed| seed_sweep(&xml, &SWEEP_COUNTS, &EvalConfig::default(), &mut rng(seed)))
        .collect();
    j.open_obj(Some("figure4c"));
    for (i, count) in SWEEP_COUNTS.iter().enumerate() {
        j.open_obj(Some(&count.to_string()));
        j.range("precision", sweeps.iter().map(|s| s[i].precision));
        j.range("recall", sweeps.iter().map(|s| s[i].recall));
        j.range("time_s", sweeps.iter().map(|s| s[i].time.as_secs_f64()));
        j.close_obj();
    }
    j.close_obj();
}

/// Representative seed inputs per language (as in Figure 5, a small
/// handpicked set rather than random samples).
fn representative_seeds(language: &Language) -> Vec<Vec<u8>> {
    match language.name() {
        "url" => vec![b"http://foo.com".to_vec(), b"https://www.ab.org/p?k=v".to_vec()],
        "grep" => vec![b"a*b".to_vec(), b"\\(x\\|y\\)".to_vec(), b"[a-f]*".to_vec()],
        "lisp" => vec![b"(+ 1 2)".to_vec(), b"(f (g x))".to_vec()],
        "xml" => vec![b"<a x=\"1\">t</a>".to_vec(), b"<a><b>u</b>v</a>".to_vec()],
        other => panic!("unknown language {other}"),
    }
}

/// Figure 5, with the precision of 200 samples of each grammar.
fn figure5(j: &mut Json) {
    j.open_obj(Some("figure5"));
    for language in section82_languages() {
        let oracle = language.oracle();
        let result = GladeBuilder::new()
            .max_queries(PROGRAM_MAX_QUERIES)
            .synthesize(&representative_seeds(&language), &oracle)
            .expect("representative seeds are in the language");
        let sampler = Sampler::new(&result.grammar);
        let precision = |seed| {
            let mut rng = rng(seed);
            let valid = (0..200)
                .filter(|_| sampler.sample(&mut rng).is_some_and(|s| oracle.accepts(&s)))
                .count();
            valid as f64 / 200.0
        };
        j.open_obj(Some(language.name()));
        j.int("unique_queries", result.stats.unique_queries);
        j.range("sample_precision", RNG_SEEDS.map(precision));
        j.string("grammar", &result.grammar.to_string());
        j.string("target_grammar", &language.grammar().to_string());
        j.close_obj();
    }
    j.close_obj();
}

/// The ablation matrix, drawing seeds and samples as `run_learner` does,
/// so the `P1` and `GLADE` cells repeat Figure 4's GLADE-P1 and GLADE rows.
fn ablations(j: &mut Json) {
    let config = EvalConfig::default();
    j.open_obj(Some("ablations"));
    for language in section82_languages() {
        let oracle = language.oracle();
        j.open_obj(Some(language.name()));
        for (name, phase2, chargen, skip) in ABLATIONS {
            let runs: Vec<_> = RNG_SEEDS
                .iter()
                .map(|&seed| {
                    let mut rng = rng(seed);
                    let seeds = sample_seeds(&language, config.num_seeds, &mut rng);
                    let result = GladeBuilder::new()
                        .phase2(phase2)
                        .character_generalization(chargen)
                        .skip_redundant_seeds(skip)
                        .max_queries(config.max_queries)
                        .synthesize(&seeds, &oracle)
                        .expect("sampled seeds are in the language");
                    let quality = evaluate_grammar(
                        &result.grammar,
                        language.grammar(),
                        &oracle,
                        config.eval_samples,
                        &mut rng,
                    );
                    (quality, result.stats.unique_queries as f64)
                })
                .collect();
            j.open_obj(Some(name));
            j.range("precision", runs.iter().map(|r| r.0.precision));
            j.range("recall", runs.iter().map(|r| r.0.recall));
            j.range("f1", runs.iter().map(|r| r.0.f1()));
            j.range("queries", runs.iter().map(|r| r.1));
            j.close_obj();
        }
        j.close_obj();
    }
    j.close_obj();
}

/// Figure 6. Learns every program once per rng seed (learning draws no
/// random numbers; the repeats give the time a spread) and returns the
/// programs with their learned grammars.
fn figure6(j: &mut Json) -> Vec<(Box<dyn Target>, Synthesis)> {
    let mut programs = Vec::new();
    j.open_obj(Some("figure6"));
    for target in all_targets() {
        let mut times = Vec::new();
        let mut learned = None;
        for _ in RNG_SEEDS {
            let start = Instant::now();
            let builder = GladeBuilder::new().max_queries(PROGRAM_MAX_QUERIES);
            learned = Some(
                learn_target_grammar(target.as_ref(), builder, None)
                    .expect("targets accept their seeds"),
            );
            times.push(start.elapsed().as_secs_f64());
        }
        let synthesis = learned.expect("at least one rng seed");
        let seed_lines: usize = target
            .seeds()
            .iter()
            .map(|s| s.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count())
            .sum();
        j.open_obj(Some(target.name()));
        j.int("source_lines", target.source_lines());
        j.int("seed_lines", seed_lines);
        j.int("coverable_points", target.coverable_lines());
        j.int("unique_queries", synthesis.stats.unique_queries);
        j.range("time_s", times);
        j.close_obj();
        programs.push((target, synthesis));
    }
    j.close_obj();
    programs
}

fn fuzzer(name: &str, seeds: &[Vec<u8>], grammar: &Grammar) -> Box<dyn Fuzzer> {
    match name {
        "naive" => Box::new(NaiveFuzzer::new(seeds.to_vec())),
        "afl" => Box::new(AflFuzzer::new(seeds.to_vec())),
        _ => Box::new(GrammarFuzzer::new(grammar.clone(), seeds)),
    }
}

/// Figure 7b's upper-bound proxy for `target`, if it has one.
fn upper_bound(target: &dyn Target, seed: u64) -> Option<CampaignResult> {
    let grammar_fuzz = |language: Language| {
        // The splice fuzzer driven by a handwritten grammar, seeded with the
        // target's seeds plus 32 samples of that grammar.
        let mut rng = rng(seed);
        let sampler = Sampler::new(language.grammar());
        let mut seeds = target.seeds();
        seeds.extend((0..32).filter_map(|_| sampler.sample(&mut rng)));
        let mut fuzzer = GrammarFuzzer::new(language.grammar().clone(), &seeds);
        run_campaign(target, &mut fuzzer, FUZZ_SAMPLES, &mut rng)
    };
    match target.name() {
        "grep" => Some(grammar_fuzz(languages::grep())),
        "xml" => Some(grammar_fuzz(languages::xml())),
        "ruby" => Some(replay_corpus(target, "suite", &corpora::ruby())),
        "python" => Some(replay_corpus(target, "suite", &corpora::python())),
        "javascript" => Some(replay_corpus(target, "suite", &corpora::javascript())),
        _ => None,
    }
}

fn write_campaigns(j: &mut Json, name: &str, runs: &[CampaignResult]) {
    let new_points = |r: &CampaignResult| r.valid_coverage.difference(&r.seed_coverage).len();
    j.open_obj(Some(name));
    j.range("valid_incremental_coverage", runs.iter().map(|r| r.valid_incremental_coverage()));
    j.range("valid_rate", runs.iter().map(|r| r.valid_rate()));
    j.range("new_points", runs.iter().map(|r| new_points(r) as f64));
    j.int("new_points_of", runs[0].coverable - runs[0].seed_coverage.len());
    j.close_obj();
}

/// Figure 7a/b.
fn figure7(j: &mut Json, programs: &[(Box<dyn Target>, Synthesis)]) {
    j.open_obj(Some("figure7"));
    j.int("samples", FUZZ_SAMPLES);
    for (target, synthesis) in programs {
        let target = target.as_ref();
        let seeds = target.seeds();
        j.open_obj(Some(target.name()));
        for name in FUZZERS {
            let runs: Vec<_> = RNG_SEEDS
                .iter()
                .map(|&seed| {
                    let mut fuzzer = fuzzer(name, &seeds, &synthesis.grammar);
                    run_campaign(target, fuzzer.as_mut(), FUZZ_SAMPLES, &mut rng(seed))
                })
                .collect();
            write_campaigns(j, name, &runs);
        }
        let upper: Option<Vec<_>> = RNG_SEEDS.iter().map(|&s| upper_bound(target, s)).collect();
        if let Some(runs) = upper {
            write_campaigns(j, "upper_bound", &runs);
        }
        j.close_obj();
    }
    j.close_obj();
}

/// Figure 7c on python.
fn figure7c(j: &mut Json, programs: &[(Box<dyn Target>, Synthesis)]) {
    let (python, synthesis) =
        programs.iter().find(|(t, _)| t.name() == "python").expect("python is a target");
    let python = python.as_ref();
    let seeds = python.seeds();
    let checkpoints: Vec<usize> = (1..=FUZZ_SAMPLES / CURVE_STEP).map(|k| k * CURVE_STEP).collect();
    j.open_obj(Some("figure7c"));
    for name in FUZZERS {
        let curves: Vec<_> = RNG_SEEDS
            .iter()
            .map(|&seed| {
                let mut fuzzer = fuzzer(name, &seeds, &synthesis.grammar);
                coverage_curve(python, fuzzer.as_mut(), &checkpoints, &mut rng(seed))
            })
            .collect();
        j.open_obj(Some(name));
        for (i, samples) in checkpoints.iter().enumerate() {
            j.range(&samples.to_string(), curves.iter().map(|c| c[i].1));
        }
        j.close_obj();
    }
    j.close_obj();
}

/// Figure 8: the first five valid samples of at least 12 bytes.
fn figure8(j: &mut Json, programs: &[(Box<dyn Target>, Synthesis)]) {
    let (xml, synthesis) =
        programs.iter().find(|(t, _)| t.name() == "xml").expect("xml is a target");
    let oracle = TargetOracle::new(xml.as_ref());
    let sampler = Sampler::with_max_depth(&synthesis.grammar, 40);
    let mut rng = rng(0xF18);
    let samples: Vec<String> = (0..10_000)
        .filter_map(|_| sampler.sample(&mut rng))
        .filter(|s| s.len() >= 12 && oracle.accepts(s))
        .take(5)
        .map(|s| String::from_utf8_lossy(&s).into_owned())
        .collect();
    j.strings("figure8", &samples);
}
