//! `perfbench`: the GLADE benchmark described by `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench worker PROGRAM      # pooled-oracle worker (served_pool)
//! ```
//!
//! A run builds its inputs from `--seed` (set-up, repeated through the
//! run; see `SETUP_REPS`), then repeats one iteration
//! of the workload — cold synthesis of every subject, a warm re-synthesis
//! from the cold run's cache, and the workload's own use of the grammars — until
//! `--seconds` have passed, and reports medians over the iterations. Times
//! are scaled to a reference host speed measured between the timed pieces
//! (see `speed`). Every
//! iteration must reproduce the first one's grammar bytes, query counts,
//! and quality numbers; any failed check exits non-zero.
//!
//! With `--trace 1` the first half of the time runs untraced and the
//! second half traced; the result line carries the per-layer metrics
//! (from the last traced iteration's spans) and the tracing overhead (the
//! traced minus the untraced times).

mod engine;
mod lang;
mod program;
mod report;
mod served;
mod speed;
mod stats;
mod trace;

use report::{Values, END_TO_END};
use speed::{at_reference, HostSpeed};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up runs `SETUP_REPS` times before the first iteration, and again
/// between the timed pieces of an untraced iteration, for `1 / SETUP_SHARE`
/// of their time (those instances are dropped). Set-up time owed by short
/// pieces carries over, so a piece shorter than one set-up does not pay a
/// whole one. Each window of repetitions reports its median, scaled to the
/// reference speed by the host-speed probe that follows the window, and
/// `setup_s` is the mean of the window medians, so it covers the whole run.
const SETUP_REPS: usize = 5;
const SETUP_SHARE: f64 = 10.0;
/// Fewest iterations per phase of a run (repeats are compared).
const MIN_ITERATIONS: usize = 2;

/// What one iteration of a workload measured. Times are in seconds at the
/// reference host speed.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Seconds of cold synthesis, one entry per subject.
    pub synth: Vec<f64>,
    /// Seconds of warm re-synthesis from the cold runs' cache snapshots,
    /// one entry per subject (or per server restart and program).
    pub warm: Vec<f64>,
    /// Seconds of the workload's own stage (quality estimation or fuzz
    /// campaigns), one entry per subject.
    pub stage: Vec<f64>,
    pub unique_queries: usize,
    /// Peak resident set of the iteration (`VmHWM`), in MB.
    pub peak_rss_mb: f64,
    /// Grammar texts; must repeat exactly.
    pub outputs: Vec<String>,
    /// Quality or coverage numbers of the stage, when it ran; must repeat
    /// exactly.
    pub stage_outputs: Vec<String>,
    /// Workload results and layer counters.
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
}

/// Called after each timed piece, or group of pieces, with their wall
/// seconds: runs set-up repetitions, probes the host speed, and rescales
/// the seconds in place to the reference speed.
pub type Between<'a> = dyn FnMut(&mut [f64]) -> Result<(), String> + 'a;

pub trait Workload: Sized {
    /// Builds subjects and inputs from the seed (timed as set-up).
    fn setup(seed: u64) -> Result<Self, String>;
    /// One iteration, with the workload's stage when `stage` is set;
    /// traced when tracing is on. `between` is called after each timed
    /// piece, outside the piece's timing.
    fn iterate(&mut self, stage: bool, between: &mut Between) -> Result<Iteration, String>;
    /// Checks on the latest iteration's grammars, run once after timing.
    fn verify(&mut self) -> Result<(), String>;
    /// Per-layer values from a traced iteration's spans.
    fn layers(&self, spans: &[trace::Span], values: &mut Values);
    /// Values derived from the stage time (median seconds per run).
    fn stage_values(&self, _stage_s: f64, _values: &mut Values) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: gives free heap pages in every arena back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the memory earlier iterations freed to the kernel and resets
/// the kernel's peak resident set (`VmHWM`) to the current one, so every
/// iteration's peak starts from the same floor instead of from whatever
/// the allocator kept or an earlier iteration reached.
fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory; it takes no pointers.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak resident set (/proc/self/clear_refs): {e}"))
}

fn total(pieces: &[f64]) -> f64 {
    pieces.iter().fold(0.0, |sum, p| sum + p)
}

/// The sum over pieces of each piece's median across iterations: one slow
/// burst spoils one piece of one iteration, not the whole figure.
fn robust_total(its: &[Iteration], pieces: impl Fn(&Iteration) -> &[f64]) -> f64 {
    let n = pieces(&its[0]).len();
    (0..n)
        .map(|k| {
            let column: Vec<f64> = its.iter().filter_map(|i| pieces(i).get(k).copied()).collect();
            stats::median(&column).unwrap_or(0.0)
        })
        .fold(0.0, |sum, m| sum + m)
}

/// Runs iterations until `budget` has passed (at least `MIN_ITERATIONS`).
/// The stage runs in the first `MIN_ITERATIONS` and in traced ones; its
/// time is a per-layer figure, so the rest of the run samples the
/// end-to-end times more often.
///
/// Each iteration's peak resident set is the kernel's, reset before the
/// iteration; the set-up repetitions after each piece of an untraced
/// iteration form one window of `setups`.
fn iterate_for<W: Workload>(
    w: &mut W,
    seed: u64,
    budget: Duration,
    traced: bool,
    speed: &mut HostSpeed,
    setups: &mut Vec<Vec<f64>>,
) -> Result<Vec<Iteration>, String> {
    let start = Instant::now();
    let mut its = Vec::new();
    let mut setup_debt = 0.0;
    while its.len() < MIN_ITERATIONS || start.elapsed() < budget {
        trace::clear();
        trace::set_enabled(traced);
        reset_peak_rss()?;
        let mut before = speed.probe();
        let mut wall = 0.0;
        let mut between = |pieces: &mut [f64]| {
            let piece_secs = total(pieces);
            wall += piece_secs;
            let mut reps = Vec::new();
            if !traced {
                setup_debt += piece_secs / SETUP_SHARE;
            }
            while setup_debt > 0.0 {
                let start = Instant::now();
                timed_setup::<W>(seed, &mut reps)?;
                setup_debt -= start.elapsed().as_secs_f64();
            }
            let after = speed.probe();
            if !reps.is_empty() {
                setups.push(reps.iter().map(|&r| at_reference(r, after, after)).collect());
            }
            for piece in pieces.iter_mut() {
                *piece = at_reference(*piece, before, after);
            }
            before = after;
            Ok(())
        };
        let it = w.iterate(traced || its.len() < MIN_ITERATIONS, &mut between);
        trace::set_enabled(false);
        let it = Iteration { peak_rss_mb: status_mb("VmHWM:")?, ..it? };
        eprintln!(
            "[perfbench] iteration {}{}: synth {:.4}s, warm {:.4}s, stage {:.4}s \
             (wall {wall:.4}s), peak {:.1} MB",
            its.len(),
            if traced { " (traced)" } else { "" },
            total(&it.synth),
            total(&it.warm),
            total(&it.stage),
            it.peak_rss_mb,
        );
        its.push(it);
    }
    Ok(its)
}

/// Every iteration must repeat the first one's outputs and query count.
fn check_repeats(reference: &Iteration, its: &[Iteration]) -> Result<(), String> {
    for (i, it) in its.iter().enumerate() {
        if it.unique_queries != reference.unique_queries {
            return Err(format!(
                "iteration {i}: {} unique queries, first iteration {}",
                it.unique_queries, reference.unique_queries
            ));
        }
        if let Some(k) = (0..reference.outputs.len().max(it.outputs.len()))
            .find(|&k| it.outputs.get(k) != reference.outputs.get(k))
        {
            return Err(format!("iteration {i}: grammar {k} differs from the first iteration"));
        }
        if !it.stage_outputs.is_empty() && it.stage_outputs != reference.stage_outputs {
            return Err(format!("iteration {i}: stage results differ from the first iteration"));
        }
    }
    Ok(())
}

struct Outcome {
    values: Values,
    attempted: usize,
    failed: usize,
}

/// One timed set-up; its time goes to `reps`.
fn timed_setup<W: Workload>(seed: u64, reps: &mut Vec<f64>) -> Result<W, String> {
    let start = Instant::now();
    let w = W::setup(seed)?;
    reps.push(start.elapsed().as_secs_f64());
    Ok(w)
}

fn drive<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut speed = HostSpeed::new();
    let mut reps = Vec::new();
    let mut w = timed_setup::<W>(args.seed, &mut reps)?;
    while reps.len() < SETUP_REPS {
        drop(w);
        w = timed_setup::<W>(args.seed, &mut reps)?;
    }
    let after = speed.probe();
    let mut setups = vec![reps.iter().map(|&r| at_reference(r, after, after)).collect()];
    let seconds = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { seconds / 2 } else { seconds };
    let its = iterate_for(&mut w, args.seed, untraced_budget, false, &mut speed, &mut setups)?;
    let kernel = stats::median(&speed.take_probes()).unwrap_or(0.0);
    check_repeats(&its[0], &its)?;
    w.verify()?;

    let mut values = Values::default();
    let window_medians: Vec<f64> = setups.iter().filter_map(|reps| stats::median(reps)).collect();
    values.set("setup_s", total(&window_medians) / window_medians.len() as f64);
    values.set("synth_s", robust_total(&its, |i| &i.synth));
    values.set("warm_synth_s", robust_total(&its, |i| &i.warm));
    values.set("unique_queries", its[0].unique_queries as f64);
    // The host-speed probe's table is resident throughout and not the
    // workload's.
    let probe_mb = speed::TABLE_BYTES as f64 / (1024.0 * 1024.0);
    let peaks: Vec<f64> = its.iter().map(|i| i.peak_rss_mb - probe_mb).collect();
    values.set("peak_rss_mb", stats::median(&peaks).unwrap_or(0.0));
    values.set("host.kernel_ms", kernel * 1e3);
    // Workload results: medians over iterations (counts repeat exactly).
    for (name, _) in its[0].values.iter() {
        let all: Vec<f64> = its.iter().filter_map(|i| i.values.get(name)).collect();
        values.set(name.clone(), stats::median(&all).unwrap_or(0.0));
    }
    w.stage_values(robust_total(&its, |i| &i.stage), &mut values);
    let mut attempted: usize = its.iter().map(|i| i.attempted).sum();
    let mut failed: usize = its.iter().map(|i| i.failed).sum();

    if args.trace {
        let traced = iterate_for(
            &mut w,
            args.seed,
            seconds - untraced_budget,
            true,
            &mut speed,
            &mut Vec::new(),
        )?;
        check_repeats(&its[0], &traced)?;
        let spans = trace::take();
        trace::dump(&spans);
        w.layers(&spans, &mut values);
        for (metric, pieces) in [
            ("trace.overhead.synth_s", (|i: &Iteration| &i.synth[..]) as fn(&Iteration) -> &[f64]),
            ("trace.overhead.warm_synth_s", |i| &i.warm[..]),
            ("trace.overhead.stage_s", |i| &i.stage[..]),
        ] {
            values.set(metric, robust_total(&traced, pieces) - robust_total(&its, pieces));
        }
        let extra_queries = traced[0].unique_queries as f64 - its[0].unique_queries as f64;
        values.set("trace.overhead.unique_queries", extra_queries);
        attempted += traced.iter().map(|i| i.attempted).sum::<usize>();
        failed += traced.iter().map(|i| i.failed).sum::<usize>();
    }
    values.set("run.failed_share", failed as f64 / attempted.max(1) as f64);
    eprintln!(
        "[perfbench] {} seed {}: {} untraced iterations, engine threads {}, parallelism {:?}",
        args.workload,
        args.seed,
        its.len(),
        engine::WORKERS,
        std::thread::available_parallelism().map(|n| n.get()).ok(),
    );
    for (name, pieces) in [
        ("synth_s", (|i: &Iteration| &i.synth[..]) as fn(&Iteration) -> &[f64]),
        ("warm_synth_s", |i| &i.warm[..]),
        ("stage_s", |i| &i.stage[..]),
    ] {
        let totals: Vec<f64> = its.iter().map(|i| total(pieces(i))).collect();
        if let Some((q1, q3)) = stats::quartiles(&totals) {
            eprintln!("[perfbench] {name} per iteration: quartiles {q1:.4}..{q3:.4} s");
        }
    }
    Ok(Outcome { values, attempted, failed })
}

/// This process's scratch directory for cache snapshots and the served
/// workload's cache dirs and socket (relative, inside the working
/// directory, so socket paths stay short).
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench-tmp").join(std::process::id().to_string())
}

/// Creates the scratch directory, and removes it when the run ends.
struct Scratch;

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(Scratch)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let dir = scratch_dir();
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(parent) = dir.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return match argv.get(1).map(|name| served::worker_main(name)) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("usage: perfbench worker PROGRAM");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload lang_infer|program_fuzz|served_pool \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let _scratch = match Scratch::create() {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "lang_infer" => drive::<lang::LangInfer>(&args),
        "program_fuzz" => drive::<program::ProgramFuzz>(&args),
        "served_pool" => drive::<served::ServedPool>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let catalogue: Vec<(String, &'static str)> = if args.trace {
        report::per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
    };
    match outcome {
        Ok(o) => {
            // Every metric by name and unit, for people; the last stdout
            // line is the machine-readable result.
            let mut all: Vec<(String, &'static str)> =
                END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
            all.extend(report::per_layer());
            for (name, unit) in &all {
                if let Some(v) = o.values.get(name) {
                    eprintln!("[perfbench] {name:<34} {v:>16.6} {unit}");
                }
            }
            println!("{}", report::result_line(true, o.attempted, o.failed, &catalogue, &o.values));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", args.workload);
            println!("{}", report::result_line(false, 1, 1, &catalogue, &Values::default()));
            ExitCode::FAILURE
        }
    }
}
