//! Line-coverage instrumentation for the target programs.
//!
//! The paper measures fuzzer quality by gcov line coverage of the real
//! programs (Section 8.3). Our stand-in parsers reproduce that measurement:
//! every instrumentation point records its own source line (via the `cov!`
//! macro, which expands to `line!()`), and the denominator — the number of
//! coverable lines — is counted statically from the target's own source
//! text, exactly like gcov's per-line accounting.
//!
//! A [`Coverage`] is a bitmap over source line numbers, one bit per line.
//! Each program sizes it once per run from its source line count
//! ([`Coverage::with_lines`]), so a `cov!` hit costs a bounds check and an
//! OR: no hashing and no allocation. Membership queries run a program once
//! per distinct input and read only its verdict, so this cost is paid on
//! every query GLADE poses to a [`crate::TargetOracle`].

use std::fmt;

/// The set of instrumented source lines executed by one or more runs.
///
/// Stored as a bitmap over line numbers (`u64` words, bit `l % 64` of word
/// `l / 64` for line `l`), so its size follows the largest line recorded,
/// not the number of lines. Recording a line past the bitmap's end grows
/// it. Set operations work a word at a time, [`Coverage::iter`] yields
/// lines in ascending order, and equality ignores how many trailing words
/// are allocated.
#[derive(Clone, Default)]
pub struct Coverage {
    words: Vec<u64>,
}

impl Coverage {
    /// Creates an empty coverage set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty coverage set with room for every line of a
    /// `lines`-line source file (line numbers `1..=lines`), so recording
    /// those lines never reallocates.
    pub fn with_lines(lines: usize) -> Self {
        Coverage { words: vec![0; lines / 64 + 1] }
    }

    /// Records a hit at source line `line`.
    #[inline]
    pub fn hit(&mut self, line: u32) {
        let (word, bit) = (line as usize / 64, 1u64 << (line % 64));
        match self.words.get_mut(word) {
            Some(w) => *w |= bit,
            None => self.grow_and_set(word, bit),
        }
    }

    #[cold]
    fn grow_and_set(&mut self, word: usize, bit: u64) {
        self.words.resize(word + 1, 0);
        self.words[word] |= bit;
    }

    /// Number of distinct lines covered.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether nothing has been covered.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether `line` was covered.
    pub fn contains(&self, line: u32) -> bool {
        self.word(line as usize / 64) & (1u64 << (line % 64)) != 0
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Coverage) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Lines in `self` that are not in `other` (the "incremental" part of
    /// the paper's valid incremental coverage).
    pub fn difference(&self, other: &Coverage) -> Coverage {
        let words = self.words.iter().enumerate().map(|(i, &w)| w & !other.word(i)).collect();
        Coverage { words }
    }

    /// Whether `other` covers a line that `self` does not (the afl-style
    /// "new coverage" trigger).
    pub fn would_grow(&self, other: &Coverage) -> bool {
        other.words.iter().enumerate().any(|(i, &o)| o & !self.word(i) != 0)
    }

    /// Iterates over covered lines in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = i as u32 * 64;
            let mut rest = w;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                (rest != 0).then(|| {
                    rest &= rest - 1;
                    base + bit
                })
            })
        })
    }

    /// Word `i` of the bitmap, zero past its end.
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }
}

impl PartialEq for Coverage {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| self.word(i) == other.word(i))
    }
}

impl Eq for Coverage {}

impl fmt::Debug for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for Coverage {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut cov = Coverage::new();
        for line in iter {
            cov.hit(line);
        }
        cov
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

/// Counts a source file's lines the way `str::lines` does (a final line
/// without a newline counts, a trailing newline adds none). A `const fn`,
/// so a target counts its own source once, at compile time, for both its
/// `source_lines` figure and its coverage bitmap's size.
pub(crate) const fn count_lines(src: &str) -> usize {
    let src = src.as_bytes();
    let (mut lines, mut i) = (0, 0);
    while i < src.len() {
        if src[i] == b'\n' {
            lines += 1;
        }
        i += 1;
    }
    if !src.is_empty() && src[src.len() - 1] != b'\n' {
        lines += 1;
    }
    lines
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
    fn iter_is_ascending_across_words() {
        let c: Coverage = [700u32, 64, 3, 63, 0, 128].into_iter().collect();
        assert_eq!(c.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 128, 700]);
    }

    #[test]
    fn count_lines_matches_str_lines() {
        for src in ["", "a", "a\n", "\n", "\n\n", "a\nb", "a\r\nb\r\n", include_str!("cov.rs")] {
            assert_eq!(count_lines(src), src.lines().count(), "{src:?}");
        }
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
