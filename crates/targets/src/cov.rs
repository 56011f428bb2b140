//! Line-coverage instrumentation for the target programs.
//!
//! The paper measures fuzzer quality by gcov line coverage of the real
//! programs (Section 8.3). Our stand-in parsers reproduce that measurement:
//! every instrumentation point records its own source line (via the `cov!`
//! macro, which expands to `line!()`), and the denominator — the number of
//! coverable lines — is counted statically from the target's own source
//! text, exactly like gcov's per-line accounting.

use std::collections::HashSet;

/// The set of instrumented source lines executed by one or more runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    lines: HashSet<u32>,
}

impl Coverage {
    /// Creates an empty coverage set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a hit at source line `line`.
    pub fn hit(&mut self, line: u32) {
        self.lines.insert(line);
    }

    /// Number of distinct lines covered.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing has been covered.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Whether `line` was covered.
    pub fn contains(&self, line: u32) -> bool {
        self.lines.contains(&line)
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Coverage) {
        self.lines.extend(other.lines.iter().copied());
    }

    /// Lines in `self` that are not in `other` (the "incremental" part of
    /// the paper's valid incremental coverage).
    pub fn difference(&self, other: &Coverage) -> Coverage {
        Coverage { lines: self.lines.difference(&other.lines).copied().collect() }
    }

    /// Whether `other` covers a line that `self` does not (the afl-style
    /// "new coverage" trigger).
    pub fn would_grow(&self, other: &Coverage) -> bool {
        other.lines.iter().any(|l| !self.lines.contains(l))
    }

    /// Iterates over covered lines in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.lines.iter().copied()
    }
}

impl FromIterator<u32> for Coverage {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Coverage { lines: iter.into_iter().collect() }
    }
}

/// Records a coverage hit at the current source line.
///
/// Usage inside a parser: `cov!(self.cov);`. The target's coverable-line
/// denominator is derived by counting textual occurrences of this macro in
/// the target's source file (see [`count_points`]).
#[macro_export]
macro_rules! cov {
    ($cov:expr) => {
        $cov.hit(line!())
    };
}

/// Counts the instrumentation points in a source file (the coverable-line
/// denominator). `src` is the file's text, captured with `include_str!`.
/// A `const fn`, so a target counts its own source once, at compile time.
pub const fn count_points(src: &str) -> usize {
    // Exclude the macro definition/doc mentions by requiring the call form
    // at a use site: "cov!(".
    const CALL: &[u8] = b"cov!(";
    let src = src.as_bytes();
    let (mut count, mut i) = (0, 0);
    while i + CALL.len() <= src.len() {
        let mut j = 0;
        while j < CALL.len() && src[i + j] == CALL[j] {
            j += 1;
        }
        if j == CALL.len() {
            count += 1;
        }
        i += 1;
    }
    count
}

/// The outcome of running a target program on one input.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Whether the input was accepted (parsed without error) — the paper's
    /// membership-oracle answer.
    pub valid: bool,
    /// Instrumented lines executed during the run.
    pub coverage: Coverage,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_accumulate_distinctly() {
        let mut c = Coverage::new();
        assert!(c.is_empty());
        c.hit(10);
        c.hit(10);
        c.hit(20);
        assert_eq!(c.len(), 2);
        assert!(c.contains(10));
        assert!(!c.contains(11));
    }

    #[test]
    fn merge_and_difference() {
        let a: Coverage = [1u32, 2, 3].into_iter().collect();
        let b: Coverage = [3u32, 4].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.len(), 4);
        let d = b.difference(&a);
        assert_eq!(d.len(), 1);
        assert!(d.contains(4));
    }

    #[test]
    fn would_grow_detects_new_lines() {
        let a: Coverage = [1u32, 2].into_iter().collect();
        let same: Coverage = [2u32].into_iter().collect();
        let new: Coverage = [2u32, 9].into_iter().collect();
        assert!(!a.would_grow(&same));
        assert!(a.would_grow(&new));
    }

    #[test]
    fn macro_records_this_line() {
        let mut c = Coverage::new();
        cov!(c);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn count_points_counts_call_sites() {
        let src = "fn f(c: &mut Coverage) { cov!(c); if x { cov!(c); } }";
        assert_eq!(count_points(src), 2);
        for src in ["", "cov!", "cov!(", "xcov!(cov!(cov!", "cov!(cov!(", "c o v!("] {
            assert_eq!(count_points(src), src.matches("cov!(").count(), "{src:?}");
        }
    }
}
