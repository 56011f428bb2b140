//! Shared scaffolding for the figure-regeneration benches.
//!
//! Every bench target in this crate regenerates one table or figure of the
//! paper's evaluation (the `[[bench]]` list in `crates/bench/Cargo.toml`
//! names them; ROADMAP direction 2 tracks which figures they reproduce).
//! Scale knobs are read from the environment so `cargo bench` finishes in
//! minutes by default while `GLADE_SCALE=paper` reproduces the paper's
//! sample sizes:
//!
//! | Variable | Meaning | default | `paper` |
//! |---|---|---|---|
//! | `GLADE_SEEDS` | seeds per language (Fig 4) | 20 | 50 |
//! | `GLADE_EVAL_SAMPLES` | precision/recall samples | 300 | 1000 |
//! | `GLADE_FUZZ_SAMPLES` | inputs per fuzzer (Fig 7) | 2000 | 50000 |
//! | `GLADE_RUNS` | repetitions to average | 1 | 5 |
//! | `GLADE_TIME_LIMIT_SECS` | per-learner budget | 20 | 300 |

use glade_eval::EvalConfig;
use std::time::Duration;

/// Scale parameters for the benches.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Seeds per language in the Fig 4 experiment.
    pub seeds: usize,
    /// Samples per precision/recall estimate.
    pub eval_samples: usize,
    /// Inputs per fuzzer per target in the Fig 7 experiment.
    pub fuzz_samples: usize,
    /// Repetitions to average over (paper: 5).
    pub runs: usize,
    /// Per-learner time budget.
    pub time_limit: Duration,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        let paper = std::env::var("GLADE_SCALE").is_ok_and(|v| v == "paper");
        let get = |name: &str, dflt: usize, paper_v: usize| {
            env_usize(name, if paper { paper_v } else { dflt })
        };
        Scale {
            seeds: get("GLADE_SEEDS", 20, 50),
            eval_samples: get("GLADE_EVAL_SAMPLES", 300, 1000),
            fuzz_samples: get("GLADE_FUZZ_SAMPLES", 2000, 50_000),
            runs: get("GLADE_RUNS", 1, 5),
            time_limit: Duration::from_secs(get("GLADE_TIME_LIMIT_SECS", 20, 300) as u64),
        }
    }

    /// The matching learner-evaluation config.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            num_seeds: self.seeds,
            eval_samples: self.eval_samples,
            time_limit: self.time_limit,
            equivalence_samples: 50,
            num_negatives: 50,
            max_queries: 300_000,
        }
    }
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Reads the numeric knob `name`, or `default` when it is unset.
///
/// # Panics
///
/// When `name` is set to something that is not a `usize`, naming the
/// variable and its value: a typo must not silently run the default size.
pub fn env_usize(name: &str, default: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, value.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

fn parse_knob(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}={v:?} is not a non-negative integer")),
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sorts `xs` and returns its lower quartile, median and upper quartile
/// (linear interpolation between closest ranks).
///
/// # Panics
///
/// When `xs` is empty.
pub fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_small() {
        // Only check the defaults when the env leaves them alone.
        if std::env::var("GLADE_SCALE").is_err() && std::env::var("GLADE_SEEDS").is_err() {
            let s = Scale::from_env();
            assert_eq!(s.seeds, 20);
            assert!(s.fuzz_samples <= 50_000);
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn knob_parses_unset_valid_and_rejects_garbage() {
        assert_eq!(parse_knob("GLADE_BENCH_POOLED_QUERIES", None, 512), Ok(512));
        assert_eq!(parse_knob("GLADE_BENCH_POOLED_QUERIES", Some("128"), 512), Ok(128));
        for bad in ["2k", "", "-1", " 7"] {
            let err = parse_knob("GLADE_BENCH_POOLED_QUERIES", Some(bad), 512).unwrap_err();
            assert!(err.contains("GLADE_BENCH_POOLED_QUERIES"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        // Odd length, unsorted: the middle rank is the median.
        let mut odd = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quartiles(&mut odd), [2.0, 3.0, 4.0]);
        assert_eq!(odd, [1.0, 2.0, 3.0, 4.0, 5.0]);
        // Even length: every quartile falls between two ranks.
        assert_eq!(quartiles(&mut [4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&mut [7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "quartiles of an empty sample")]
    fn quartiles_of_empty_sample_panics() {
        quartiles(&mut []);
    }
}
