//! Shared pieces of this crate's two benchmark binaries: `paper`
//! regenerates the paper's evaluation figures into `BENCH_paper.json`, and
//! `bench-queries` records the query-engine gates perfbench cannot see in
//! `BENCH_queries.json`. Both write their results through [`Json`].

use std::fmt::Write as _;

/// Minimal streaming JSON writer (no serde in the dependency set). Every
/// key and string goes through RFC 8259 escaping, so any text (grammar
/// text, lossily decoded sample bytes) yields valid JSON.
#[derive(Debug, Default)]
pub struct Json {
    out: String,
    needs_comma: Vec<bool>,
}

impl Json {
    /// An empty document.
    pub fn new() -> Self {
        Json::default()
    }

    /// Writes the separator and, inside an object, the quoted `key`.
    fn key(&mut self, key: Option<&str>) {
        if let Some(need) = self.needs_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
        if let Some(k) = key {
            quote(&mut self.out, k);
            self.out.push(':');
        }
    }

    /// Opens an object: the top-level one (`key` `None`) or a member.
    pub fn open_obj(&mut self, key: Option<&str>) {
        self.key(key);
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Closes the innermost open object.
    pub fn close_obj(&mut self) {
        self.out.push('}');
        self.needs_comma.pop();
    }

    /// A number with six decimals.
    pub fn num(&mut self, key: &str, v: f64) {
        self.key(Some(key));
        write!(self.out, "{v:.6}").expect("writing to a String cannot fail");
    }

    /// An integer.
    pub fn int(&mut self, key: &str, v: usize) {
        self.key(Some(key));
        write!(self.out, "{v}").expect("writing to a String cannot fail");
    }

    /// A string.
    pub fn string(&mut self, key: &str, v: &str) {
        self.key(Some(key));
        quote(&mut self.out, v);
    }

    /// An array of strings.
    pub fn strings(&mut self, key: &str, vs: &[impl AsRef<str>]) {
        self.key(Some(key));
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            quote(&mut self.out, v.as_ref());
        }
        self.out.push(']');
    }

    /// Writes one sample per run as `{"median", "q1", "q3"}` and returns
    /// `[q1, median, q3]` for the caller's gate.
    pub fn spread(&mut self, key: &str, samples: &mut [f64]) -> [f64; 3] {
        let q = quartiles(samples);
        self.open_obj(Some(key));
        self.num("median", q[1]);
        self.num("q1", q[0]);
        self.num("q3", q[2]);
        self.close_obj();
        q
    }

    /// Writes one sample per rng seed as `{"median", "min", "max"}`, each in
    /// the shortest form that reads back as the same `f64`.
    ///
    /// # Panics
    ///
    /// When `samples` is empty.
    pub fn range(&mut self, key: &str, samples: impl IntoIterator<Item = f64>) {
        let mut xs: Vec<f64> = samples.into_iter().collect();
        let median = quartiles(&mut xs)[1];
        self.key(Some(key));
        write!(self.out, r#"{{"median":{median},"min":{},"max":{}}}"#, xs[0], xs[xs.len() - 1])
            .expect("writing to a String cannot fail");
    }

    /// The document text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Appends `s` as a JSON string: quotes and backslashes escaped, control
/// characters as `\uXXXX` (Rust's `{:?}` would write `\u{1}`, which JSON
/// does not allow).
fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
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
    fn json_escapes_every_string_per_rfc_8259() {
        let sample = String::from_utf8_lossy(b"<a x='\xff'>\x01\x1f\x7f</a>");
        let mut j = Json::new();
        j.open_obj(None);
        j.string("k\"\\", "S ::= \"\\\"\t\n\r ⟨S⟩");
        j.strings("samples", &[sample.as_ref(), ""]);
        j.open_obj(Some("f1"));
        j.range("url", [0.5, 0.25, 1.0]);
        j.int("n", 3);
        j.close_obj();
        j.close_obj();
        assert_eq!(
            j.finish(),
            concat!(
                r#"{"k\"\\":"S ::= \"\\\"\u0009\u000a\u000d ⟨S⟩","#,
                r#""samples":["<a x='"#,
                "\u{fffd}",
                r#"'>\u0001\u001f"#,
                "\u{7f}",
                r#"</a>",""],"f1":{"url":{"median":0.5,"min":0.25,"max":1},"n":3}}"#
            )
        );
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
