//! `program_fuzz`: Figures 6 and 7. GLADE learns a grammar for each of the
//! eight instrumented programs from its bundled seeds, asking the
//! in-process `TargetOracle`; a fixed-length `GrammarFuzzer` campaign per
//! program then measures valid incremental coverage.

use crate::engine::{self, cold_run, warm_run};
use crate::report::{prog_subject, Values};
use crate::trace::{self, Span, TracedFuzzer, TracedOracle, TracedTarget};
use crate::{scratch_dir, Between, Iteration, Workload};
use glade_fuzz::{run_campaign, CampaignResult, GrammarFuzzer};
use glade_grammar::{grammar_to_text, Earley, Grammar};
use glade_targets::programs::all_targets;
use glade_targets::{Coverage, Target, TargetOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Warm re-runs per program; the iteration keeps their median.
const WARM_REPS: usize = 5;
/// Fuzzer inputs per program and campaign.
const CAMPAIGN_INPUTS: usize = 600;

pub struct ProgramFuzz {
    seed: u64,
    targets: Vec<Box<dyn Target>>,
    seeds: Vec<Vec<Vec<u8>>>,
    /// Per program, the coverage baseline of Figure 7: coverable lines and
    /// lines the seeds cover.
    baselines: Vec<(usize, Coverage)>,
    grammars: Vec<Grammar>,
}

impl Workload for ProgramFuzz {
    fn setup(seed: u64) -> Result<Self, String> {
        let targets = all_targets();
        let seeds: Vec<Vec<Vec<u8>>> = targets.iter().map(|t| t.seeds()).collect();
        let baselines = targets
            .iter()
            .zip(&seeds)
            .map(|(t, seeds)| {
                let mut covered = Coverage::new();
                for s in seeds {
                    covered.merge(&t.run(s).coverage);
                }
                (t.coverable_lines(), covered)
            })
            .collect();
        Ok(ProgramFuzz { seed, targets, seeds, baselines, grammars: Vec::new() })
    }

    fn iterate(&mut self, stage: bool, between: &mut Between) -> Result<Iteration, String> {
        let traced = trace::enabled();
        let mut it = Iteration::default();
        let mut colds = Vec::new();
        for (target, seeds) in self.targets.iter().zip(&self.seeds) {
            let subject = prog_subject(target.name());
            let fingerprint = format!("target:{}", target.name());
            let oracle = TargetOracle::new(target.as_ref());
            let file = scratch_dir().join(format!("{subject}.cache"));
            let cold = if traced {
                cold_run(&TracedOracle::new(oracle, &subject), seeds, &fingerprint, &subject, file)?
            } else {
                cold_run(&oracle, seeds, &fingerprint, &subject, file)?
            };
            it.unique_queries += cold.result.stats.unique_queries;
            it.outputs.push(grammar_to_text(&cold.result.grammar));
            engine::add_runner_counts(&mut it.values, &cold.result.stats);
            it.attempted += 1 + cold.result.stats.new_unique_queries;
            let mut secs = [cold.secs];
            between(&mut secs)?;
            it.synth.push(secs[0]);
            colds.push(cold);
        }
        engine::finish_runner_counts(&mut it.values);
        for ((target, seeds), cold) in self.targets.iter().zip(&self.seeds).zip(&colds) {
            let subject = prog_subject(target.name());
            let fingerprint = format!("target:{}", target.name());
            let oracle = TargetOracle::new(target.as_ref());
            let mut reps = Vec::with_capacity(WARM_REPS);
            // A warm run takes ~10 ms: each is scaled by the probes right
            // around it, not by probes a whole group of runs apart.
            for _ in 0..WARM_REPS {
                let mut secs = [warm_run(&oracle, seeds, &fingerprint, &subject, cold)?];
                between(&mut secs)?;
                reps.push(secs[0]);
            }
            it.warm.push(crate::stats::median(&reps).unwrap_or(0.0));
            it.attempted += WARM_REPS;
        }
        it.values.set(
            "persist.snapshot_bytes",
            colds.iter().map(|c| c.snapshot_bytes).sum::<usize>() as f64,
        );

        self.grammars = colds.into_iter().map(|c| c.result.grammar).collect();
        if !stage {
            return Ok(it);
        }

        // One campaign per program, each with its own fixed input stream.
        let (mut inputs, mut valid, mut covered, mut incremental) = (0, 0, 0, 0.0);
        for (i, (((target, seeds), grammar), (coverable, seed_coverage))) in self
            .targets
            .iter()
            .zip(&self.seeds)
            .zip(&self.grammars)
            .zip(&self.baselines)
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(engine::sub_seed(self.seed, i as u64));
            let grammar = grammar.clone();
            let start = Instant::now();
            let result = if traced {
                campaign_traced(target.as_ref(), grammar, seeds, &mut rng)
            } else {
                let mut fuzzer = GrammarFuzzer::new(grammar, seeds);
                run_campaign(target.as_ref(), &mut fuzzer, CAMPAIGN_INPUTS, &mut rng)
            };
            let mut secs = [start.elapsed().as_secs_f64()];
            between(&mut secs)?;
            it.stage.push(secs[0]);
            if result.coverable != *coverable || result.seed_coverage != *seed_coverage {
                return Err(format!("{}: campaign coverage baseline drifted", target.name()));
            }
            inputs += result.samples;
            valid += result.valid;
            covered += result.valid_coverage.len();
            incremental += result.valid_incremental_coverage();
            it.stage_outputs.push(format!(
                "campaign {} {} {} {}",
                target.name(),
                result.samples,
                result.valid,
                result.valid_coverage.len()
            ));
        }
        it.attempted += inputs;
        it.values.set("fuzz.inputs", inputs as f64);
        it.values.set("fuzz.valid_rate", valid as f64 / inputs as f64);
        it.values.set("fuzz.incremental_coverage", incremental / self.targets.len() as f64);
        it.values.set("target.covered_lines", covered as f64);
        Ok(it)
    }

    fn verify(&mut self) -> Result<(), String> {
        for ((target, seeds), grammar) in self.targets.iter().zip(&self.seeds).zip(&self.grammars) {
            engine::check_seeds_accepted(&prog_subject(target.name()), grammar, seeds)?;
        }
        Ok(())
    }

    fn stage_values(&self, stage_s: f64, values: &mut Values) {
        let inputs = values.get("fuzz.inputs").unwrap_or(0.0);
        values.set("fuzz.inputs_per_s", inputs / stage_s);
    }

    fn layers(&self, spans: &[Span], values: &mut Values) {
        engine::session_oracle_layers(spans, values);
        values.set(
            "persist.restart_s",
            trace::named(spans, "persist.load").map(Span::secs).sum::<f64>(),
        );
        values.set("earley.build_us", engine::mean_us(spans, "earley.new"));
        values.set(
            "earley.seed_parse_s",
            trace::named(spans, "fuzz.grammar_fuzzer_new").map(Span::secs).sum::<f64>(),
        );
        values.set("fuzz.us_per_input", engine::mean_us(spans, "fuzz.next_input"));
        let (n, bytes) = trace::named(spans, "fuzz.next_input")
            .fold((0usize, 0usize), |(n, b), s| (n + 1, b + s.items));
        if n > 0 {
            values.set("fuzz.bytes_per_input", bytes as f64 / n as f64);
        }
        values.set("target.us_per_run", engine::mean_us(spans, "target.run"));
    }
}

/// `run_campaign` over a traced target and fuzzer, after timing the
/// fuzzer's seed parsing (`GrammarFuzzer::new`) and one standalone
/// `Earley::new` on the grammar.
fn campaign_traced(
    target: &dyn Target,
    grammar: Grammar,
    seeds: &[Vec<u8>],
    rng: &mut StdRng,
) -> CampaignResult {
    let subject = prog_subject(target.name());
    trace::span("earley.new", &subject, false, || drop(Earley::new(&grammar)));
    let mut fuzzer = trace::span("fuzz.grammar_fuzzer_new", &subject, false, || {
        GrammarFuzzer::new(grammar, seeds)
    });
    let traced_target = TracedTarget { inner: target };
    let mut traced_fuzzer = TracedFuzzer { inner: &mut fuzzer, subject: subject.clone() };
    trace::span("fuzz.campaign", &subject, false, || {
        run_campaign(&traced_target, &mut traced_fuzzer, CAMPAIGN_INPUTS, rng)
    })
}
