//! Instrumented stand-in for bison's grammar-file parser.
//!
//! Accepts the classic three-section `.y` layout:
//!
//! ```text
//! declarations       %token NAME…, %left/%right/%nonassoc, %start NAME,
//!                    %type <tag> NAME…, %union { … }, %{ code %}, %define …
//! %%
//! grammar rules      name : symbols | symbols { action } ;  ('char' and
//!                    "string" literal tokens allowed; %prec NAME; empty
//!                    alternatives allowed)
//! [%%
//! epilogue]          copied verbatim
//! ```
//!
//! An input is *valid* iff the whole grammar file parses.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("bison.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The bison target program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bison;

impl Target for Bison {
    fn name(&self) -> &'static str {
        "bison"
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let mut p = Parser { s: input, i: 0, cov: Coverage::with_lines(LINES) };
        let valid = p.file();
        RunOutcome { valid, coverage: p.cov }
    }

    fn coverable_lines(&self) -> usize {
        const { count_points(SRC) }
    }

    fn source_lines(&self) -> usize {
        LINES
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        // Deliberately basic (as in the paper, seeds are small documentation
        // examples): declarations like %left/%union/%prec, literal strings,
        // actions, and the epilogue are left for the fuzzers to discover.
        [
            &b"%token NUM\n%%\nexpr : expr '+' expr | NUM ;\n"[..],
            b"%start unit\n%%\nunit : unit stmt | ;\n",
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

    fn skip_ws_and_comments(&mut self) -> bool {
        cov!(self.cov);
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.i += 1,
                Some(b'/') if self.starts_with(b"/*") => {
                    cov!(self.cov);
                    self.i += 2;
                    loop {
                        if self.eat_str(b"*/") {
                            break;
                        }
                        if self.peek().is_none() {
                            cov!(self.cov);
                            return false;
                        }
                        self.i += 1;
                    }
                }
                Some(b'/') if self.starts_with(b"//") => {
                    cov!(self.cov);
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.i += 1;
                    }
                }
                _ => return true,
            }
        }
    }

    fn ident(&mut self) -> bool {
        cov!(self.cov);
        if !self.peek().is_some_and(|b| b.is_ascii_alphabetic() || b == b'_') {
            return false;
        }
        while self.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.') {
            self.i += 1;
        }
        true
    }

    fn char_literal(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.i += 1;
        if self.eat(b'\\') {
            cov!(self.cov);
            if self.peek().is_none() {
                return false;
            }
            self.i += 1;
        } else {
            if matches!(self.peek(), None | Some(b'\'') | Some(b'\n')) {
                cov!(self.cov);
                return false;
            }
            self.i += 1;
        }
        self.eat(b'\'')
    }

    fn string_literal(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.i += 1;
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    cov!(self.cov);
                    return false;
                }
                Some(b'"') => {
                    self.i += 1;
                    return true;
                }
                Some(b'\\') => {
                    self.i += 2;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn balanced_braces(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'{'));
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
                        return true;
                    }
                }
                Some(b'\'') => {
                    cov!(self.cov);
                    if !self.char_literal() {
                        return false;
                    }
                }
                Some(b'"') => {
                    cov!(self.cov);
                    if !self.string_literal() {
                        return false;
                    }
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn file(&mut self) -> bool {
        cov!(self.cov);
        if !self.declarations() {
            return false;
        }
        if !self.rules() {
            return false;
        }
        // Optional epilogue after a second %%: verbatim.
        cov!(self.cov);
        true
    }

    fn declarations(&mut self) -> bool {
        cov!(self.cov);
        loop {
            if !self.skip_ws_and_comments() {
                return false;
            }
            if self.eat_str(b"%%") {
                cov!(self.cov);
                return true;
            }
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return false; // missing %%
                }
                Some(b'%') => {
                    cov!(self.cov);
                    if !self.declaration() {
                        return false;
                    }
                }
                _ => {
                    cov!(self.cov);
                    return false; // stray tokens before %%
                }
            }
        }
    }

    fn declaration(&mut self) -> bool {
        cov!(self.cov);
        if self.eat_str(b"%{") {
            cov!(self.cov);
            loop {
                if self.eat_str(b"%}") {
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
        self.i += 1; // '%'
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_alphabetic() || b == b'-') {
            self.i += 1;
        }
        let word = self.s[start..self.i].to_vec();
        match word.as_slice() {
            b"token" | b"left" | b"right" | b"nonassoc" => {
                cov!(self.cov);
                self.optional_tag() && self.symbol_list()
            }
            b"type" => {
                cov!(self.cov);
                if !self.optional_tag() {
                    return false;
                }
                self.symbol_list()
            }
            b"start" => {
                cov!(self.cov);
                if !self.skip_ws_and_comments() {
                    return false;
                }
                self.ident()
            }
            b"union" => {
                cov!(self.cov);
                if !self.skip_ws_and_comments() {
                    return false;
                }
                if self.peek() == Some(b'{') {
                    self.balanced_braces()
                } else {
                    cov!(self.cov);
                    false
                }
            }
            b"define" | b"expect" | b"verbose" | b"debug" | b"defines" | b"locations"
            | b"pure-parser" | b"error-verbose" => {
                cov!(self.cov);
                // Rest of line is free-form.
                while self.peek().is_some_and(|b| b != b'\n') {
                    self.i += 1;
                }
                true
            }
            _ => {
                cov!(self.cov);
                false
            }
        }
    }

    fn optional_tag(&mut self) -> bool {
        cov!(self.cov);
        if !self.skip_ws_and_comments() {
            return false;
        }
        if self.eat(b'<') {
            cov!(self.cov);
            if !self.ident() {
                return false;
            }
            return self.eat(b'>');
        }
        true
    }

    fn symbol_list(&mut self) -> bool {
        cov!(self.cov);
        let mut count = 0usize;
        loop {
            if !self.skip_ws_and_comments() {
                return false;
            }
            match self.peek() {
                Some(b'\'') => {
                    cov!(self.cov);
                    if !self.char_literal() {
                        return false;
                    }
                    count += 1;
                }
                Some(b'"') => {
                    cov!(self.cov);
                    if !self.string_literal() {
                        return false;
                    }
                    count += 1;
                }
                Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                    cov!(self.cov);
                    if !self.ident() {
                        return false;
                    }
                    count += 1;
                }
                _ => break,
            }
        }
        cov!(self.cov);
        count > 0
    }

    fn rules(&mut self) -> bool {
        cov!(self.cov);
        let mut rule_count = 0usize;
        loop {
            if !self.skip_ws_and_comments() {
                return false;
            }
            if self.eat_str(b"%%") {
                cov!(self.cov);
                // Epilogue: anything goes.
                self.i = self.s.len();
                return rule_count > 0;
            }
            if self.peek().is_none() {
                cov!(self.cov);
                return rule_count > 0;
            }
            if !self.rule() {
                return false;
            }
            rule_count += 1;
        }
    }

    fn rule(&mut self) -> bool {
        cov!(self.cov);
        if !self.ident() {
            cov!(self.cov);
            return false;
        }
        if !self.skip_ws_and_comments() {
            return false;
        }
        if !self.eat(b':') {
            cov!(self.cov);
            return false;
        }
        loop {
            // One alternative: a sequence of symbols/actions (may be empty).
            loop {
                if !self.skip_ws_and_comments() {
                    return false;
                }
                match self.peek() {
                    Some(b'\'') => {
                        cov!(self.cov);
                        if !self.char_literal() {
                            return false;
                        }
                    }
                    Some(b'"') => {
                        cov!(self.cov);
                        if !self.string_literal() {
                            return false;
                        }
                    }
                    Some(b'{') => {
                        cov!(self.cov);
                        if !self.balanced_braces() {
                            return false;
                        }
                    }
                    Some(b'%') => {
                        cov!(self.cov);
                        if !self.eat_str(b"%prec") {
                            return false;
                        }
                        if !self.skip_ws_and_comments() {
                            return false;
                        }
                        if !self.ident() {
                            return false;
                        }
                    }
                    Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                        cov!(self.cov);
                        if !self.ident() {
                            return false;
                        }
                    }
                    _ => break,
                }
            }
            match self.peek() {
                Some(b'|') => {
                    cov!(self.cov);
                    self.i += 1;
                }
                Some(b';') => {
                    cov!(self.cov);
                    self.i += 1;
                    return true;
                }
                _ => {
                    cov!(self.cov);
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &[u8]) -> bool {
        Bison.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in Bison.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn minimal_grammar() {
        assert!(valid(b"%%\nr : ;\n"));
        assert!(valid(b"%% r : 'x' ;"));
        assert!(!valid(b"%%\n")); // no rules
        assert!(!valid(b""));
        assert!(!valid(b"r : ;")); // missing %%
    }

    #[test]
    fn declarations() {
        assert!(valid(b"%token A B C\n%%\nr : A ;\n"));
        assert!(valid(b"%left '+' '-'\n%right '^'\n%%\nr : ;\n"));
        assert!(valid(b"%start r\n%%\nr : ;\n"));
        assert!(valid(b"%union { int i; char *s; }\n%%\nr : ;\n"));
        assert!(valid(b"%type <i> expr\n%%\nexpr : ;\n"));
        assert!(valid(b"%define api.pure\n%%\nr : ;\n"));
        assert!(!valid(b"%token\n%%\nr : ;\n")); // empty symbol list
        assert!(!valid(b"%bogus x\n%%\nr : ;\n"));
        assert!(!valid(b"%union missing\n%%\nr : ;\n"));
    }

    #[test]
    fn rules_section() {
        assert!(valid(b"%%\nexpr : expr '+' term | term ;\nterm : NUM ;\n"));
        assert!(valid(b"%%\nr : a b c { act($1, $2); } ;\n"));
        assert!(valid(b"%%\nr : | x ;\n")); // empty first alternative
        assert!(valid(b"%%\nr : x %prec HIGH ;\n"));
        assert!(valid(b"%%\nr : \"str\" ;\n"));
        assert!(!valid(b"%%\nr : x\n")); // missing ;
        assert!(!valid(b"%%\n: x ;\n")); // missing name
        assert!(!valid(b"%%\nr x ;\n")); // missing colon
        assert!(!valid(b"%%\nr : { unbalanced ;\n"));
        assert!(!valid(b"%%\nr : 'ab' ;\n")); // bad char literal
    }

    #[test]
    fn comments_allowed() {
        assert!(valid(b"/* c */\n%token A // line\n%%\nr : A ;\n"));
        assert!(!valid(b"/* unterminated\n%%\nr : ;\n"));
    }

    #[test]
    fn epilogue_is_freeform() {
        assert!(valid(b"%%\nr : ;\n%%\nint main() { return 0; }\n"));
        assert!(valid(b"%%\nr : ;\n%%\n{{{ not balanced, still fine"));
    }

    #[test]
    fn coverage_accounting() {
        let c = Bison.run(b"%token A\n%left '+'\n%%\nr : A '+' A { go(); } | ;\n").coverage;
        assert!(c.len() > 12);
        assert!(Bison.coverable_lines() >= c.len());
    }
}
