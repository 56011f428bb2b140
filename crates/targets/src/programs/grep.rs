//! Instrumented stand-in for GNU grep's pattern compiler (basic regular
//! expressions).
//!
//! Accepts POSIX BRE syntax with the common GNU extensions: ordinary
//! characters, `.`, anchors, bracket expressions (including `[:classes:]`
//! and ranges), `*` repetition, `\{m,n\}` interval bounds, groups
//! `\( … \)`, alternation `\|`, back-references `\1`–`\9` (validated
//! against the number of opened groups), and `\+ \? \< \> \b \w \s`
//! escapes. An input is *valid* iff the whole pattern compiles.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("grep.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The grep target program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Grep;

impl Target for Grep {
    fn name(&self) -> &'static str {
        "grep"
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let mut p = Parser {
            s: input,
            i: 0,
            cov: Coverage::with_lines(LINES),
            groups_open: 0,
            groups_done: 0,
        };
        let valid = p.pattern(true) && p.i == p.s.len() && p.groups_open == 0;
        RunOutcome { valid, coverage: p.cov }
    }

    fn coverable_lines(&self) -> usize {
        const { count_points(SRC) }
    }

    fn source_lines(&self) -> usize {
        LINES
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        [&b"^ab*c$"[..], b"\\(x\\|y\\)z\\{2,4\\}", b"[a-f0-9]*\\.[[:alpha:]]"]
            .iter()
            .map(|s| s.to_vec())
            .collect()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    cov: Coverage,
    groups_open: u32,
    groups_done: u32,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.s.get(self.i + 1).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// pattern := branch ( \| branch )*
    fn pattern(&mut self, _top: bool) -> bool {
        cov!(self.cov);
        if !self.branch() {
            return false;
        }
        while self.peek() == Some(b'\\') && self.peek2() == Some(b'|') {
            cov!(self.cov);
            self.i += 2;
            if !self.branch() {
                return false;
            }
        }
        true
    }

    /// branch := piece*  (stops at \| or \) or end)
    fn branch(&mut self) -> bool {
        cov!(self.cov);
        // An anchor ^ is ordinary unless leading; accept either way (GNU).
        loop {
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return true;
                }
                Some(b'\\') => match self.peek2() {
                    Some(b'|') | Some(b')') => {
                        cov!(self.cov);
                        return true;
                    }
                    _ => {
                        if !self.piece() {
                            return false;
                        }
                    }
                },
                Some(b'*') if self.at_branch_start() => {
                    // A leading * is a literal in BRE.
                    cov!(self.cov);
                    self.i += 1;
                }
                _ => {
                    if !self.piece() {
                        return false;
                    }
                }
            }
        }
    }

    fn at_branch_start(&self) -> bool {
        self.i == 0
    }

    /// piece := atom ( '*' | \{m,n\} )*
    fn piece(&mut self) -> bool {
        cov!(self.cov);
        if !self.atom() {
            return false;
        }
        loop {
            if self.eat(b'*') {
                cov!(self.cov);
            } else if self.peek() == Some(b'\\') && self.peek2() == Some(b'{') {
                cov!(self.cov);
                self.i += 2;
                if !self.interval() {
                    return false;
                }
            } else if self.peek() == Some(b'\\') && matches!(self.peek2(), Some(b'+') | Some(b'?'))
            {
                cov!(self.cov);
                self.i += 2;
            } else {
                break;
            }
        }
        true
    }

    /// interval := m \[ ',' \[n\] \] '\}' with m ≤ n ≤ 255.
    fn interval(&mut self) -> bool {
        cov!(self.cov);
        let m = self.number();
        let Some(m) = m else {
            cov!(self.cov);
            return false;
        };
        let mut n = m;
        let mut unbounded = false;
        if self.eat(b',') {
            cov!(self.cov);
            match self.number() {
                Some(v) => n = v,
                None => {
                    cov!(self.cov);
                    unbounded = true;
                }
            }
        }
        if !(self.eat(b'\\') && self.eat(b'}')) {
            cov!(self.cov);
            return false;
        }
        if m > 255 || (!unbounded && (n > 255 || m > n)) {
            cov!(self.cov);
            return false;
        }
        true
    }

    fn number(&mut self) -> Option<u32> {
        let start = self.i;
        let mut v: u32 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v.saturating_mul(10).saturating_add(u32::from(b - b'0'));
            self.i += 1;
        }
        (self.i > start).then_some(v)
    }

    fn atom(&mut self) -> bool {
        match self.peek() {
            None => false,
            Some(b'[') => {
                cov!(self.cov);
                self.i += 1;
                self.bracket()
            }
            Some(b'\\') => {
                cov!(self.cov);
                self.i += 1;
                match self.peek() {
                    Some(b'(') => {
                        cov!(self.cov);
                        self.i += 1;
                        self.groups_open += 1;
                        if !self.pattern(false) {
                            return false;
                        }
                        if self.peek() == Some(b'\\') && self.peek2() == Some(b')') {
                            cov!(self.cov);
                            self.i += 2;
                            self.groups_open -= 1;
                            self.groups_done += 1;
                            true
                        } else {
                            cov!(self.cov);
                            false
                        }
                    }
                    Some(d @ b'1'..=b'9') => {
                        cov!(self.cov);
                        self.i += 1;
                        // Back-reference must name a completed group.
                        u32::from(d - b'0') <= self.groups_done
                    }
                    Some(
                        b'.' | b'*' | b'[' | b']' | b'^' | b'$' | b'\\' | b'w' | b'W' | b's' | b'S'
                        | b'<' | b'>' | b'b' | b'B' | b'`' | b'\'',
                    ) => {
                        cov!(self.cov);
                        self.i += 1;
                        true
                    }
                    _ => {
                        cov!(self.cov);
                        false
                    }
                }
            }
            // `)` `|` `{` are ordinary in BRE when not escaped.
            Some(_) => {
                cov!(self.cov);
                self.i += 1;
                true
            }
        }
    }

    fn bracket(&mut self) -> bool {
        cov!(self.cov);
        if self.eat(b'^') {
            cov!(self.cov);
        }
        if self.eat(b']') {
            cov!(self.cov);
        }
        loop {
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return false;
                }
                Some(b']') => {
                    cov!(self.cov);
                    self.i += 1;
                    return true;
                }
                Some(b'[') if matches!(self.peek2(), Some(b':') | Some(b'.') | Some(b'=')) => {
                    cov!(self.cov);
                    let kind = self.peek2().expect("peeked");
                    self.i += 2;
                    while self.peek().is_some_and(|b| b != kind) {
                        self.i += 1;
                    }
                    if !(self.eat(kind) && self.eat(b']')) {
                        cov!(self.cov);
                        return false;
                    }
                }
                Some(lo) => {
                    cov!(self.cov);
                    self.i += 1;
                    // Range?
                    if self.peek() == Some(b'-') && self.peek2().is_some_and(|b| b != b']') {
                        cov!(self.cov);
                        self.i += 1;
                        let Some(hi) = self.peek() else {
                            return false;
                        };
                        self.i += 1;
                        if lo > hi {
                            cov!(self.cov);
                            return false;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &[u8]) -> bool {
        Grep.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in Grep.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn literals_and_dot() {
        assert!(valid(b"hello"));
        assert!(valid(b"h.llo"));
        assert!(valid(b""));
        assert!(valid(b"^start"));
        assert!(valid(b"end$"));
    }

    #[test]
    fn repetition() {
        assert!(valid(b"ab*"));
        assert!(valid(b"a**")); // BRE allows stacked stars
        assert!(valid(b"*a")); // leading * is literal
        assert!(valid(b"a\\{3\\}"));
        assert!(valid(b"a\\{3,\\}"));
        assert!(valid(b"a\\{3,5\\}"));
        assert!(!valid(b"a\\{5,3\\}"));
        assert!(!valid(b"a\\{999\\}"));
        assert!(!valid(b"a\\{3"));
        assert!(!valid(b"a\\{\\}"));
    }

    #[test]
    fn groups_and_alternation() {
        assert!(valid(b"\\(ab\\)"));
        assert!(valid(b"\\(a\\|b\\)c"));
        assert!(valid(b"\\(\\(a\\)b\\)"));
        assert!(!valid(b"\\(ab"));
        assert!(!valid(b"ab\\)"));
    }

    #[test]
    fn backreferences_check_group_count() {
        assert!(valid(b"\\(a\\)\\1"));
        assert!(valid(b"\\(a\\)\\(b\\)\\2"));
        assert!(!valid(b"\\1"));
        assert!(!valid(b"\\(a\\)\\2"));
    }

    #[test]
    fn bracket_expressions() {
        assert!(valid(b"[abc]"));
        assert!(valid(b"[^abc]"));
        assert!(valid(b"[]a]"));
        assert!(valid(b"[a-z]"));
        assert!(valid(b"[[:digit:]]"));
        assert!(valid(b"[[:alpha:]x]"));
        assert!(valid(b"[a-]")); // trailing - is literal
        assert!(!valid(b"[z-a]"));
        assert!(!valid(b"[abc"));
        assert!(!valid(b"[[:digit]"));
    }

    #[test]
    fn escapes() {
        assert!(valid(b"\\."));
        assert!(valid(b"\\\\"));
        assert!(valid(b"\\<word\\>"));
        assert!(valid(b"\\bx\\B"));
        assert!(valid(b"a\\+b\\?"));
        assert!(!valid(b"\\"));
        assert!(!valid(b"\\q"));
    }

    #[test]
    fn coverage_accounting() {
        let c = Grep.run(b"\\(a[0-9]\\)\\1\\{2,3\\}").coverage;
        assert!(c.len() > 10);
        assert!(Grep.coverable_lines() >= c.len());
    }
}
