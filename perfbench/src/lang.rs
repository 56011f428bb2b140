//! `lang_infer`: the Figure 4 experiment. Full GLADE learns url, grep,
//! lisp, and xml from seeds sampled from the handwritten grammars, asking
//! the in-process `GrammarOracle` (an Earley recognizer per query); each
//! grammar's precision and recall are then estimated by sampling.

use crate::engine::{self, cold_run, warm_run};
use crate::report::{lang_subject, Values};
use crate::trace::{self, Span, TracedOracle};
use crate::{scratch_dir, Between, Iteration, Workload};
use glade_core::Oracle;
use glade_eval::{evaluate_grammar, sample_seeds, Quality};
use glade_grammar::{grammar_to_text, Earley, Grammar, Sampler};
use glade_targets::languages::section82_languages;
use glade_targets::{GrammarOracle, Language};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Independent seed sets per language. Summing over several sets keeps
/// the amount of work steady from one `--seed` to the next.
const SETS: usize = 4;
/// Seeds per set.
const SEEDS: usize = 20;
/// Warm re-runs per grammar; the iteration keeps their median.
const WARM_REPS: usize = 5;
/// Candidate seeds drawn per kept seed (see [`systematic_seeds`]).
const OVERSAMPLE: usize = 16;
/// Samples per precision and per recall estimate.
const EVAL_SAMPLES: usize = 200;

struct Subject {
    language: Language,
    oracle: GrammarOracle,
    subject: String,
    fingerprint: String,
    sets: Vec<Vec<Vec<u8>>>,
}

pub struct LangInfer {
    seed: u64,
    subjects: Vec<Subject>,
    grammars: Vec<Grammar>,
}

impl Workload for LangInfer {
    fn setup(seed: u64) -> Result<Self, String> {
        let subjects = section82_languages()
            .into_iter()
            .enumerate()
            .map(|(i, language)| {
                let sets = (0..SETS)
                    .map(|k| {
                        let stream = (i * SETS + k) as u64;
                        let mut rng = StdRng::seed_from_u64(engine::sub_seed(seed, stream));
                        systematic_seeds(&language, &mut rng)
                    })
                    .collect();
                Subject {
                    oracle: language.oracle(),
                    subject: lang_subject(language.name()),
                    fingerprint: format!("lang:{}", language.name()),
                    language,
                    sets,
                }
            })
            .collect();
        Ok(LangInfer { seed, subjects, grammars: Vec::new() })
    }

    fn iterate(&mut self, stage: bool, between: &mut Between) -> Result<Iteration, String> {
        let traced = trace::enabled();
        let mut it = Iteration::default();
        let mut colds = Vec::new();
        // Each set's warm re-runs follow its cold run: an iteration takes
        // seconds, so this spreads the warm samples over all of it.
        for s in &self.subjects {
            for (k, seeds) in s.sets.iter().enumerate() {
                let file = scratch_dir().join(format!("{}-{k}.cache", s.subject));
                let cold = if traced {
                    let oracle = TracedOracle::new(&s.oracle, &s.subject);
                    cold_run(&oracle, seeds, &s.fingerprint, &s.subject, file)?
                } else {
                    cold_run(&s.oracle, seeds, &s.fingerprint, &s.subject, file)?
                };
                it.unique_queries += cold.result.stats.unique_queries;
                it.outputs.push(grammar_to_text(&cold.result.grammar));
                engine::add_runner_counts(&mut it.values, &cold.result.stats);
                it.attempted += 1 + cold.result.stats.new_unique_queries;
                let mut secs = [cold.secs];
                between(&mut secs)?;
                it.synth.push(secs[0]);

                let mut reps = Vec::with_capacity(WARM_REPS);
                // Like the cold run, each warm run is scaled by the probes
                // right around it.
                for _ in 0..WARM_REPS {
                    let mut secs = [warm_run(&s.oracle, seeds, &s.fingerprint, &s.subject, &cold)?];
                    between(&mut secs)?;
                    reps.push(secs[0]);
                }
                it.warm.push(crate::stats::median(&reps).unwrap_or(0.0));
                it.attempted += WARM_REPS;
                colds.push(cold);
            }
        }
        engine::finish_runner_counts(&mut it.values);
        it.values.set(
            "persist.snapshot_bytes",
            colds.iter().map(|c| c.snapshot_bytes).sum::<usize>() as f64,
        );

        self.grammars = colds.into_iter().map(|c| c.result.grammar).collect();
        if !stage {
            return Ok(it);
        }

        // Precision and recall of every grammar, with a fixed sample stream.
        let mut f1_sum = 0.0;
        let mut grammars = self.grammars.iter();
        for (i, s) in self.subjects.iter().enumerate() {
            let (mut precision, mut recall, mut f1) = (0.0, 0.0, 0.0);
            for k in 0..s.sets.len() {
                let grammar = grammars.next().expect("one grammar per seed set");
                let start = Instant::now();
                let stream = 1_000 + (i * SETS + k) as u64;
                let mut rng = StdRng::seed_from_u64(engine::sub_seed(self.seed, stream));
                let q = if traced {
                    traced_evaluate(grammar, &s.language, &s.oracle, &s.subject, &mut rng)
                } else {
                    evaluate_grammar(
                        grammar,
                        s.language.grammar(),
                        &s.oracle,
                        EVAL_SAMPLES,
                        &mut rng,
                    )
                };
                let mut secs = [start.elapsed().as_secs_f64()];
                between(&mut secs)?;
                it.stage.push(secs[0]);
                precision += q.precision;
                recall += q.recall;
                f1 += q.f1();
                it.attempted += 2 * EVAL_SAMPLES;
            }
            let n = s.sets.len() as f64;
            let name = s.language.name();
            it.values.set(format!("eval.precision.{name}"), precision / n);
            it.values.set(format!("eval.recall.{name}"), recall / n);
            it.stage_outputs.push(format!("eval {name} {precision:?} {recall:?}"));
            f1_sum += f1 / n;
        }
        it.values.set("eval.f1", f1_sum / self.subjects.len() as f64);
        Ok(it)
    }

    fn verify(&mut self) -> Result<(), String> {
        let mut grammars = self.grammars.iter();
        for s in &self.subjects {
            for seeds in &s.sets {
                let grammar = grammars.next().ok_or("missing grammar")?;
                engine::check_seeds_accepted(&s.subject, grammar, seeds)?;
            }
        }
        Ok(())
    }

    fn stage_values(&self, stage_s: f64, values: &mut Values) {
        values.set("eval.s", stage_s);
    }

    fn layers(&self, spans: &[Span], values: &mut Values) {
        engine::session_oracle_layers(spans, values);
        values.set(
            "persist.restart_s",
            trace::named(spans, "persist.load").map(Span::secs).sum::<f64>(),
        );
        values.set("earley.build_us", engine::mean_us(spans, "earley.new"));
        values.set("earley.recall_us_per_check", engine::mean_us(spans, "earley.accepts"));
        values.set("sample.us_per_sample", engine::mean_us(spans, "sample"));
        let (tries, hits) =
            trace::named(spans, "sample").fold((0usize, 0usize), |(t, h), s| (t + 1, h + s.items));
        if tries > 0 {
            values.set("sample.none_share", 1.0 - hits as f64 / tries as f64);
        }
    }
}

/// Draws `SEEDS × OVERSAMPLE` seeds with `sample_seeds`, orders them by
/// length, and keeps every `OVERSAMPLE`-th (systematic sampling), in the
/// order they were drawn. Each set then spans the language's seed-length
/// distribution evenly, which keeps phase one's cost (cubic in seed
/// length) from swinging with the luck of one draw.
fn systematic_seeds(language: &Language, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let drawn = sample_seeds(language, SEEDS * OVERSAMPLE, rng);
    let mut by_length: Vec<usize> = (0..drawn.len()).collect();
    by_length.sort_by_key(|&i| (drawn[i].len(), i));
    let mut kept: Vec<usize> =
        by_length.into_iter().skip(OVERSAMPLE / 2).step_by(OVERSAMPLE).collect();
    kept.sort_unstable();
    kept.into_iter().map(|i| drawn[i].clone()).collect()
}

/// `evaluate_grammar` with a span around each call into the grammar
/// layers. It draws from `rng` in the same order, so its estimate equals
/// the untraced one exactly (the run checks this).
fn traced_evaluate(
    hypothesis: &Grammar,
    language: &Language,
    oracle: &GrammarOracle,
    subject: &str,
    rng: &mut StdRng,
) -> Quality {
    trace::span("eval", subject, false, || {
        let hyp_sampler = Sampler::new(hypothesis);
        let hyp_parser = trace::span("earley.new", subject, false, || Earley::new(hypothesis));
        let target_sampler = Sampler::new(language.grammar());
        let sample = |sampler: &Sampler<'_>, rng: &mut StdRng| {
            let start = trace::now();
            let s = sampler.sample(rng);
            trace::record("sample", subject, start, usize::from(s.is_some()));
            s
        };
        let (mut prec_hits, mut prec_total, mut rec_hits, mut rec_total) = (0, 0, 0, 0);
        for _ in 0..EVAL_SAMPLES {
            if let Some(s) = sample(&hyp_sampler, rng) {
                prec_total += 1;
                let start = trace::now();
                let ok = oracle.accepts(&s);
                trace::record("eval.oracle", subject, start, 1);
                prec_hits += usize::from(ok);
            }
        }
        for _ in 0..EVAL_SAMPLES {
            if let Some(s) = sample(&target_sampler, rng) {
                rec_total += 1;
                let start = trace::now();
                let ok = hyp_parser.accepts(&s);
                trace::record("earley.accepts", subject, start, 1);
                rec_hits += usize::from(ok);
            }
        }
        let ratio = |h: usize, t: usize| if t == 0 { 0.0 } else { h as f64 / t as f64 };
        Quality { precision: ratio(prec_hits, prec_total), recall: ratio(rec_hits, rec_total) }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn metric_subjects_follow_the_paper_languages() {
        let names: Vec<&str> =
            glade_targets::languages::section82_languages().iter().map(|l| l.name()).collect();
        assert_eq!(names, crate::report::LANGUAGES);
    }
}
