//! Instrumented stand-in for flex's scanner-specification parser.
//!
//! Accepts the classic three-section `.l` layout:
//!
//! ```text
//! definitions        name  regex | %option … | %s/%x STATES | %{ code %}
//! %%
//! rules              pattern  action      (action: `{…}` block, `|`, or code to EOL)
//! [%%
//! user code]         copied verbatim — anything goes
//! ```
//!
//! Patterns are validated as flex-style extended regexes with `"quoted"`
//! literals, `{name}` definition references, bracket expressions, and
//! `<STATE>` prefixes. An input is *valid* iff the whole specification
//! parses.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("flex.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The flex target program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flex;

impl Target for Flex {
    fn name(&self) -> &'static str {
        "flex"
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let mut p = Parser { s: input, i: 0, cov: Coverage::with_lines(LINES) };
        let valid = p.spec();
        RunOutcome { valid, coverage: p.cov }
    }

    fn coverable_lines(&self) -> usize {
        const { count_points(SRC) }
    }

    fn source_lines(&self) -> usize {
        LINES
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        [
            &b"DIGIT [0-9]\n%%\n{DIGIT}+ { count(); }\n"[..],
            b"%option noyywrap\n%%\n\"if\" return IF;\n[a-z]+ |\n. ;\n%%\nint main() {}\n",
            b"%x STR\n%%\n<STR>[^\"]* { grab(); }\n",
        ]
        .iter()
        .map(|s| s.to_vec())
        .collect()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    cov: Coverage,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn starts_with(&self, p: &[u8]) -> bool {
        // `i` may run one past the end after a trailing backslash escape.
        self.s.get(self.i..).is_some_and(|rest| rest.starts_with(p))
    }

    fn eat_str(&mut self, p: &[u8]) -> bool {
        if self.starts_with(p) {
            self.i += p.len();
            true
        } else {
            false
        }
    }

    fn skip_to_eol(&mut self) {
        while self.peek().is_some_and(|b| b != b'\n') {
            self.i += 1;
        }
        self.eat(b'\n');
    }

    fn skip_blanks(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn at_line_start_marker(&self) -> bool {
        self.starts_with(b"%%") && (self.i == 0 || self.s.get(self.i - 1) == Some(&b'\n'))
    }

    fn spec(&mut self) -> bool {
        cov!(self.cov);
        if !self.definitions() {
            return false;
        }
        if !self.rules() {
            return false;
        }
        cov!(self.cov);
        self.i == self.s.len()
    }

    fn definitions(&mut self) -> bool {
        cov!(self.cov);
        loop {
            if self.at_line_start_marker() {
                cov!(self.cov);
                self.i += 2;
                self.skip_blanks();
                return matches!(self.peek(), Some(b'\n') | None) && {
                    self.eat(b'\n');
                    true
                };
            }
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return false; // missing %% separator
                }
                Some(b'\n') => {
                    cov!(self.cov);
                    self.i += 1;
                }
                Some(b'%') => {
                    cov!(self.cov);
                    if !self.percent_line() {
                        return false;
                    }
                }
                Some(b'/') if self.starts_with(b"/*") => {
                    cov!(self.cov);
                    if !self.c_comment() {
                        return false;
                    }
                }
                Some(b' ' | b'\t') => {
                    // Indented lines in the definitions section are copied
                    // C code — accepted verbatim.
                    cov!(self.cov);
                    self.skip_to_eol();
                }
                _ => {
                    cov!(self.cov);
                    if !self.definition_line() {
                        return false;
                    }
                }
            }
        }
    }

    fn percent_line(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'%'));
        if self.eat_str(b"%{") {
            cov!(self.cov);
            // Literal code block until %} at line start.
            loop {
                if self.s.get(self.i - 1) == Some(&b'\n') && self.eat_str(b"%}") {
                    cov!(self.cov);
                    self.skip_to_eol();
                    return true;
                }
                if self.peek().is_none() {
                    cov!(self.cov);
                    return false;
                }
                self.i += 1;
            }
        }
        self.i += 1; // consume '%'
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_alphabetic()) {
            self.i += 1;
        }
        let word = &self.s[start..self.i];
        match word {
            b"option" | b"s" | b"x" | b"array" | b"pointer" => {
                cov!(self.cov);
                self.skip_to_eol();
                true
            }
            _ => {
                cov!(self.cov);
                false
            }
        }
    }

    fn c_comment(&mut self) -> bool {
        cov!(self.cov);
        self.i += 2;
        loop {
            if self.eat_str(b"*/") {
                cov!(self.cov);
                return true;
            }
            if self.peek().is_none() {
                cov!(self.cov);
                return false;
            }
            self.i += 1;
        }
    }

    fn definition_line(&mut self) -> bool {
        cov!(self.cov);
        // name  regex
        if !self.name() {
            cov!(self.cov);
            return false;
        }
        self.skip_blanks();
        if matches!(self.peek(), Some(b'\n') | None) {
            cov!(self.cov);
            return false; // definition without a body
        }
        if !self.regex(b'\n') {
            return false;
        }
        self.eat(b'\n');
        true
    }

    fn name(&mut self) -> bool {
        cov!(self.cov);
        let first = self.peek();
        if !first.is_some_and(|b| b.is_ascii_alphabetic() || b == b'_') {
            return false;
        }
        while self.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-') {
            self.i += 1;
        }
        true
    }

    fn rules(&mut self) -> bool {
        cov!(self.cov);
        loop {
            if self.at_line_start_marker() {
                cov!(self.cov);
                // Everything after the second %% is verbatim user code.
                self.i = self.s.len();
                return true;
            }
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return true; // user-code section optional
                }
                Some(b'\n') => {
                    cov!(self.cov);
                    self.i += 1;
                }
                Some(b' ' | b'\t') => {
                    // Indented code lines are copied verbatim.
                    cov!(self.cov);
                    self.skip_to_eol();
                }
                _ => {
                    cov!(self.cov);
                    if !self.rule_line() {
                        return false;
                    }
                }
            }
        }
    }

    fn rule_line(&mut self) -> bool {
        cov!(self.cov);
        // Optional <STATE,STATE2> prefix.
        if self.eat(b'<') {
            cov!(self.cov);
            loop {
                if !self.name() && !self.eat(b'*') {
                    cov!(self.cov);
                    return false;
                }
                if self.eat(b'>') {
                    break;
                }
                if !self.eat(b',') {
                    cov!(self.cov);
                    return false;
                }
            }
        }
        if !self.regex_pattern_until_blank() {
            return false;
        }
        self.skip_blanks();
        self.action()
    }

    /// Flex patterns end at the first unquoted, unbracketed blank.
    fn regex_pattern_until_blank(&mut self) -> bool {
        cov!(self.cov);
        let start = self.i;
        loop {
            match self.peek() {
                None | Some(b'\n') | Some(b' ') | Some(b'\t') => break,
                Some(b'"') => {
                    cov!(self.cov);
                    self.i += 1;
                    loop {
                        match self.peek() {
                            None | Some(b'\n') => {
                                cov!(self.cov);
                                return false;
                            }
                            Some(b'\\') => {
                                self.i += 2;
                            }
                            Some(b'"') => {
                                self.i += 1;
                                break;
                            }
                            Some(_) => self.i += 1,
                        }
                    }
                }
                Some(b'[') => {
                    cov!(self.cov);
                    self.i += 1;
                    if self.eat(b'^') {
                        cov!(self.cov);
                    }
                    if self.eat(b']') {
                        cov!(self.cov);
                    }
                    loop {
                        match self.peek() {
                            None | Some(b'\n') => {
                                cov!(self.cov);
                                return false;
                            }
                            Some(b']') => {
                                self.i += 1;
                                break;
                            }
                            Some(b'\\') => self.i += 2,
                            Some(_) => self.i += 1,
                        }
                    }
                }
                Some(b'{') => {
                    cov!(self.cov);
                    self.i += 1;
                    // {name} reference or {m,n} bound.
                    let mut saw = false;
                    while self
                        .peek()
                        .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b','))
                    {
                        self.i += 1;
                        saw = true;
                    }
                    if !(saw && self.eat(b'}')) {
                        cov!(self.cov);
                        return false;
                    }
                }
                Some(b'\\') => {
                    cov!(self.cov);
                    self.i += 1;
                    if matches!(self.peek(), None | Some(b'\n')) {
                        return false;
                    }
                    self.i += 1;
                }
                Some(b'(') | Some(b')') | Some(b'*') | Some(b'+') | Some(b'?') | Some(b'|')
                | Some(b'.') | Some(b'^') | Some(b'$') | Some(b'/') => {
                    cov!(self.cov);
                    self.i += 1;
                }
                Some(_) => {
                    self.i += 1;
                }
            }
        }
        cov!(self.cov);
        self.i > start
    }

    fn action(&mut self) -> bool {
        cov!(self.cov);
        match self.peek() {
            Some(b'{') => {
                cov!(self.cov);
                let mut depth = 0u32;
                loop {
                    match self.peek() {
                        None => {
                            cov!(self.cov);
                            return false;
                        }
                        Some(b'{') => {
                            depth += 1;
                            self.i += 1;
                        }
                        Some(b'}') => {
                            depth -= 1;
                            self.i += 1;
                            if depth == 0 {
                                cov!(self.cov);
                                self.skip_to_eol();
                                return true;
                            }
                        }
                        Some(_) => self.i += 1,
                    }
                }
            }
            Some(b'|') => {
                cov!(self.cov);
                self.i += 1;
                self.skip_blanks();
                matches!(self.peek(), Some(b'\n') | None) && {
                    self.eat(b'\n');
                    true
                }
            }
            None | Some(b'\n') => {
                cov!(self.cov);
                // Empty action: discard the match.
                self.eat(b'\n');
                true
            }
            Some(_) => {
                cov!(self.cov);
                // Plain C code to end of line.
                self.skip_to_eol();
                true
            }
        }
    }

    /// Validates a definition regex to `stop` (exclusive).
    fn regex(&mut self, stop: u8) -> bool {
        cov!(self.cov);
        while self.peek().is_some_and(|b| b != stop) {
            match self.peek() {
                Some(b'[') => {
                    cov!(self.cov);
                    self.i += 1;
                    loop {
                        match self.peek() {
                            None | Some(b'\n') => {
                                cov!(self.cov);
                                return false;
                            }
                            Some(b']') => {
                                self.i += 1;
                                break;
                            }
                            Some(b'\\') => self.i += 2,
                            Some(_) => self.i += 1,
                        }
                    }
                }
                Some(b'\\') => {
                    cov!(self.cov);
                    self.i += 1;
                    if matches!(self.peek(), None | Some(b'\n')) {
                        return false;
                    }
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &[u8]) -> bool {
        Flex.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in Flex.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn minimal_specs() {
        assert!(valid(b"%%\n"));
        assert!(valid(b"%%\n. ;\n"));
        assert!(valid(b"%%"));
        assert!(!valid(b""));
        assert!(!valid(b"no separator\n"));
    }

    #[test]
    fn definitions_section() {
        assert!(valid(b"DIGIT [0-9]\nID [a-z][a-z0-9]*\n%%\n"));
        assert!(valid(b"%option yylineno\n%%\n"));
        assert!(valid(b"%x COMMENT STR\n%%\n"));
        assert!(valid(b"%{\n#include <stdio.h>\n%}\n%%\n"));
        assert!(valid(b"/* c comment */\n%%\n"));
        assert!(!valid(b"DIGIT\n%%\n")); // definition without body
        assert!(!valid(b"%bogus\n%%\n"));
        assert!(!valid(b"%{\nunclosed\n"));
    }

    #[test]
    fn rule_patterns() {
        assert!(valid(b"%%\n[0-9]+ { num(); }\n"));
        assert!(valid(b"%%\n\"quoted string\" return STR;\n"));
        assert!(valid(b"%%\n{NAME} |\n. ;\n"));
        assert!(valid(b"%%\na|b action();\n"));
        assert!(valid(b"%%\n<STR>[^\"]* more();\n"));
        assert!(valid(b"%%\n<A,B>x ;\n"));
        assert!(!valid(b"%%\n[unclosed action();\n"));
        assert!(!valid(b"%%\n\"unclosed lit\n"));
        assert!(!valid(b"%%\n{} ;\n"));
        assert!(!valid(b"%%\n<STR[^\"]* more();\n"));
    }

    #[test]
    fn actions() {
        assert!(valid(b"%%\nx { f(); { nested(); } }\n"));
        assert!(valid(b"%%\nx\n"));
        assert!(!valid(b"%%\nx { unbalanced(;\n"));
    }

    #[test]
    fn user_code_section_is_freeform() {
        assert!(valid(b"%%\nx ;\n%%\nany C code at all {{{ \n"));
    }

    #[test]
    fn coverage_accounting() {
        let c = Flex.run(b"D [0-9]\n%%\n{D}+ { n(); }\n\"s\" |\n. ;\n%%\ncode\n").coverage;
        assert!(c.len() > 12);
        assert!(Flex.coverable_lines() >= c.len());
    }
}
