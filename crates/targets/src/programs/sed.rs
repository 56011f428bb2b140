//! Instrumented stand-in for GNU sed's script parser.
//!
//! Accepts the classic sed script language: optional addresses (line
//! numbers, `$`, `/regex/`), one-letter commands (`d p q = l h H g G x n N
//! D P`), substitution `s/RE/replacement/flags`, transliteration
//! `y/abc/xyz/`, text commands `a\ i\ c\`, labels and branches
//! (`: label`, `b`, `t`), and `{ … }` groups. An input is *valid* iff the
//! whole script parses.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("sed.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The sed target program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sed;

impl Target for Sed {
    fn name(&self) -> &'static str {
        "sed"
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let mut p = Parser { s: input, i: 0, cov: Coverage::with_lines(LINES), depth: 0 };
        let valid = p.script();
        RunOutcome { valid, coverage: p.cov }
    }

    fn coverable_lines(&self) -> usize {
        const { count_points(SRC) }
    }

    fn source_lines(&self) -> usize {
        LINES
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        [&b"s/cat/dog/g"[..], b"1,5d\n/err/p\nq", b"y/abc/xyz/\n$=\n3{p\nd\n}"]
            .iter()
            .map(|s| s.to_vec())
            .collect()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    cov: Coverage,
    depth: u32,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_blanks(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.i += 1;
        }
    }

    fn script(&mut self) -> bool {
        cov!(self.cov);
        loop {
            self.skip_blanks();
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return self.depth == 0;
                }
                Some(b'\n') | Some(b';') => {
                    cov!(self.cov);
                    self.i += 1;
                }
                Some(b'#') => {
                    cov!(self.cov);
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.i += 1;
                    }
                }
                Some(b'}') => {
                    cov!(self.cov);
                    if self.depth == 0 {
                        return false;
                    }
                    self.depth -= 1;
                    self.i += 1;
                }
                _ => {
                    cov!(self.cov);
                    if !self.command() {
                        return false;
                    }
                }
            }
        }
    }

    fn command(&mut self) -> bool {
        cov!(self.cov);
        if self.address() {
            cov!(self.cov);
            self.skip_blanks();
            if self.eat(b',') {
                cov!(self.cov);
                self.skip_blanks();
                if !self.address() {
                    return false;
                }
                self.skip_blanks();
            }
            // An address may be negated with '!'.
            if self.eat(b'!') {
                cov!(self.cov);
                self.skip_blanks();
            }
        }
        match self.bump() {
            Some(b'{') => {
                cov!(self.cov);
                self.depth += 1;
                true
            }
            Some(
                b'd' | b'p' | b'q' | b'=' | b'l' | b'h' | b'H' | b'g' | b'G' | b'x' | b'n' | b'N'
                | b'D' | b'P' | b'F' | b'z',
            ) => {
                cov!(self.cov);
                self.end_of_command()
            }
            Some(b's') => {
                cov!(self.cov);
                self.substitute()
            }
            Some(b'y') => {
                cov!(self.cov);
                self.transliterate()
            }
            Some(b'a' | b'i' | b'c') => {
                cov!(self.cov);
                self.text_command()
            }
            Some(b':') => {
                cov!(self.cov);
                self.label(true)
            }
            Some(b'b' | b't' | b'T') => {
                cov!(self.cov);
                self.label(false)
            }
            Some(b'r' | b'w' | b'R' | b'W') => {
                cov!(self.cov);
                self.filename()
            }
            _ => {
                cov!(self.cov);
                false
            }
        }
    }

    fn address(&mut self) -> bool {
        match self.peek() {
            Some(b'0'..=b'9') => {
                cov!(self.cov);
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.i += 1;
                }
                // GNU step addresses: first~step.
                if self.eat(b'~') {
                    cov!(self.cov);
                    if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                        // Leave the parse position; command() will fail.
                        return true;
                    }
                    while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                        self.i += 1;
                    }
                }
                true
            }
            Some(b'$') => {
                cov!(self.cov);
                self.i += 1;
                true
            }
            Some(b'/') => {
                cov!(self.cov);
                self.i += 1;
                self.regex_until(b'/')
            }
            _ => false,
        }
    }

    /// Scans a regular expression body up to an unescaped `delim`,
    /// validating bracket expressions. Consumes the delimiter.
    fn regex_until(&mut self, delim: u8) -> bool {
        cov!(self.cov);
        loop {
            match self.bump() {
                None | Some(b'\n') => {
                    cov!(self.cov);
                    return false;
                }
                Some(b'\\') => {
                    cov!(self.cov);
                    if self.bump().is_none() {
                        return false;
                    }
                }
                Some(b'[') => {
                    cov!(self.cov);
                    if !self.bracket_expression() {
                        return false;
                    }
                }
                Some(b) if b == delim => {
                    cov!(self.cov);
                    return true;
                }
                Some(_) => {}
            }
        }
    }

    fn bracket_expression(&mut self) -> bool {
        cov!(self.cov);
        if self.eat(b'^') {
            cov!(self.cov);
        }
        // A leading ']' is a literal member.
        if self.eat(b']') {
            cov!(self.cov);
        }
        loop {
            match self.bump() {
                None | Some(b'\n') => {
                    cov!(self.cov);
                    return false;
                }
                Some(b']') => {
                    cov!(self.cov);
                    return true;
                }
                Some(b'[') => {
                    // Possible [:class:] element.
                    if self.eat(b':') {
                        cov!(self.cov);
                        while self.peek().is_some_and(|b| b.is_ascii_lowercase()) {
                            self.i += 1;
                        }
                        if !(self.eat(b':') && self.eat(b']')) {
                            return false;
                        }
                    }
                }
                Some(_) => {}
            }
        }
    }

    fn substitute(&mut self) -> bool {
        cov!(self.cov);
        let Some(delim) = self.bump() else { return false };
        if delim == b'\n' || delim == b'\\' {
            cov!(self.cov);
            return false;
        }
        if !self.regex_until(delim) {
            return false;
        }
        // Replacement: up to unescaped delimiter.
        cov!(self.cov);
        loop {
            match self.bump() {
                None | Some(b'\n') => {
                    cov!(self.cov);
                    return false;
                }
                Some(b'\\') => {
                    cov!(self.cov);
                    if self.bump().is_none() {
                        return false;
                    }
                }
                Some(b) if b == delim => {
                    cov!(self.cov);
                    break;
                }
                Some(_) => {}
            }
        }
        // Flags.
        loop {
            match self.peek() {
                Some(b'g' | b'p' | b'i' | b'I' | b'm' | b'M' | b'e') => {
                    cov!(self.cov);
                    self.i += 1;
                }
                Some(b'0'..=b'9') => {
                    cov!(self.cov);
                    while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                        self.i += 1;
                    }
                }
                Some(b'w') => {
                    cov!(self.cov);
                    self.i += 1;
                    return self.filename();
                }
                _ => break,
            }
        }
        self.end_of_command()
    }

    fn transliterate(&mut self) -> bool {
        cov!(self.cov);
        let Some(delim) = self.bump() else { return false };
        if delim == b'\n' || delim == b'\\' {
            return false;
        }
        let src = self.translit_part(delim);
        let Some(src_len) = src else { return false };
        let dst = self.translit_part(delim);
        let Some(dst_len) = dst else { return false };
        // POSIX: both strings must have the same length.
        if src_len != dst_len {
            cov!(self.cov);
            return false;
        }
        self.end_of_command()
    }

    /// Scans one `y` segment up to the delimiter, returning its length.
    fn translit_part(&mut self, delim: u8) -> Option<usize> {
        cov!(self.cov);
        let mut len = 0usize;
        loop {
            match self.bump() {
                None | Some(b'\n') => return None,
                Some(b'\\') => {
                    cov!(self.cov);
                    self.bump()?;
                    len += 1;
                }
                Some(b) if b == delim => return Some(len),
                Some(_) => len += 1,
            }
        }
    }

    fn text_command(&mut self) -> bool {
        cov!(self.cov);
        self.skip_blanks();
        // Either `a\` + newline + text, or GNU one-liner `a text`.
        if self.eat(b'\\') {
            cov!(self.cov);
            if !self.eat(b'\n') {
                return false;
            }
        }
        // Text runs to end of line; backslash-newline continues it.
        loop {
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return true;
                }
                Some(b'\n') => {
                    cov!(self.cov);
                    return true;
                }
                Some(b'\\') => {
                    cov!(self.cov);
                    self.i += 1;
                    if self.peek().is_some() {
                        self.i += 1;
                    }
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn label(&mut self, required: bool) -> bool {
        cov!(self.cov);
        self.skip_blanks();
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_') {
            self.i += 1;
        }
        if required && self.i == start {
            cov!(self.cov);
            return false;
        }
        self.end_of_command()
    }

    fn filename(&mut self) -> bool {
        cov!(self.cov);
        self.skip_blanks();
        let start = self.i;
        while self.peek().is_some_and(|b| b != b'\n') {
            self.i += 1;
        }
        self.i > start
    }

    fn end_of_command(&mut self) -> bool {
        self.skip_blanks();
        matches!(self.peek(), None | Some(b'\n') | Some(b';') | Some(b'}'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &[u8]) -> bool {
        Sed.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in Sed.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn simple_commands() {
        assert!(valid(b"d"));
        assert!(valid(b"p"));
        assert!(valid(b"q"));
        assert!(valid(b"="));
        assert!(valid(b"d;p;q"));
        assert!(valid(b""));
        assert!(valid(b"# just a comment"));
    }

    #[test]
    fn addresses() {
        assert!(valid(b"5d"));
        assert!(valid(b"1,10p"));
        assert!(valid(b"$d"));
        assert!(valid(b"/foo/d"));
        assert!(valid(b"/foo/,/bar/p"));
        assert!(valid(b"2~4d"));
        assert!(valid(b"1!d"));
        assert!(!valid(b"1,"));
        assert!(!valid(b"/unterminated"));
    }

    #[test]
    fn substitution() {
        assert!(valid(b"s/a/b/"));
        assert!(valid(b"s/a/b/g"));
        assert!(valid(b"s|x|y|gp"));
        assert!(valid(b"s/[0-9]*/N/3"));
        assert!(valid(b"s/\\(x\\)/\\1\\1/"));
        assert!(valid(b"s/a/b/w out.txt"));
        assert!(!valid(b"s/a/b"));
        assert!(!valid(b"s/a"));
        assert!(!valid(b"s"));
        assert!(!valid(b"s/a/b/Z"));
    }

    #[test]
    fn transliteration_requires_equal_lengths() {
        assert!(valid(b"y/abc/xyz/"));
        assert!(valid(b"y/a\\/b/cde/".as_slice()));
        assert!(!valid(b"y/ab/xyz/"));
        assert!(!valid(b"y/abc/xy/"));
        assert!(!valid(b"y/abc/xyz"));
    }

    #[test]
    fn groups_must_balance() {
        assert!(valid(b"{p}"));
        assert!(valid(b"1,5{p\nd\n}"));
        assert!(valid(b"{{p}}"));
        assert!(!valid(b"{p"));
        assert!(!valid(b"p}"));
    }

    #[test]
    fn labels_and_branches() {
        assert!(valid(b": loop"));
        assert!(valid(b"b loop"));
        assert!(valid(b"b"));
        assert!(valid(b"t end"));
        assert!(!valid(b":"));
    }

    #[test]
    fn text_commands() {
        assert!(valid(b"a hello"));
        assert!(valid(b"a\\\nhello"));
        assert!(valid(b"i insert this"));
        assert!(valid(b"c change"));
    }

    #[test]
    fn bracket_expressions_in_regex() {
        assert!(valid(b"/[abc]/d"));
        assert!(valid(b"/[^abc]/d"));
        assert!(valid(b"/[]x]/d"));
        assert!(valid(b"/[[:digit:]]/d"));
        assert!(!valid(b"/[abc/d"));
    }

    #[test]
    fn junk_rejected() {
        assert!(!valid(b"Z"));
        assert!(!valid(b"dx"));
        assert!(!valid(b"s//"));
        assert!(!valid(b"@@@"));
    }

    #[test]
    fn coverage_grows_with_features() {
        let small = Sed.run(b"d").coverage;
        let big = Sed.run(b"1,5{s/a[0-9]/b/g\np\n}\ny/ab/cd/").coverage;
        assert!(big.len() > small.len());
        assert!(Sed.coverable_lines() > 30);
        assert!(big.len() <= Sed.coverable_lines());
    }
}
