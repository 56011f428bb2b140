//! Instrumented stand-in for the Ruby parser front-end.
//!
//! Accepts a representative core of Ruby's statement syntax: `def … end`
//! with parameter lists, `if/elsif/else/end`, `unless`, `while … end`,
//! assignments (including `+=` style), method calls with and without
//! parentheses on `puts`-style commands, expressions with the usual binary
//! operator precedence, string/symbol/number/array/hash literals, instance
//! variables, method chains, and `do |x| … end` blocks. Statements separate
//! by newline or `;`. An input is *valid* iff the whole program parses.
//!
//! As in the paper (Section 8.3), only the parser is modelled — inputs are
//! never executed, so name resolution and runtime errors are out of scope.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("ruby.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The Ruby front-end target.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ruby;

impl Target for Ruby {
    fn name(&self) -> &'static str {
        "ruby"
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let mut p = Parser { s: input, i: 0, cov: Coverage::with_lines(LINES), depth: 0 };
        let valid = p.program();
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
            &b"def add(a, b)\n  a + b\nend\nputs add(1, 2)\n"[..],
            b"x = [1, 2, 3]\nx.each do |v|\n  puts v * 2\nend\n",
            b"if x > 0\n  y = {:a => 1, :b => 2}\nelsif x < 0\n  y = @ivar\nelse\n  y = \"s\"\nend\n",
            b"i = 0\nwhile i < 10\n  i += 1\nend\n",
        ]
        .iter()
        .map(|s| s.to_vec())
        .collect()
    }
}

const MAX_DEPTH: u32 = 120;

const KEYWORDS: &[&[u8]] = &[
    b"def", b"end", b"if", b"elsif", b"else", b"unless", b"while", b"until", b"do", b"then",
    b"return", b"nil", b"true", b"false", b"not", b"and", b"or", b"break", b"next",
];

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

    fn skip_spaces(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r') => self.i += 1,
                Some(b'#') => {
                    cov!(self.cov);
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.i += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn skip_separators(&mut self) {
        loop {
            self.skip_spaces();
            if matches!(self.peek(), Some(b'\n' | b';')) {
                self.i += 1;
            } else {
                return;
            }
        }
    }

    /// Peeks the next identifier-like word without consuming it.
    fn peek_word(&self) -> Option<&[u8]> {
        let b = self.peek()?;
        if !(b.is_ascii_alphabetic() || b == b'_') {
            return None;
        }
        let mut j = self.i;
        while self.s.get(j).is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_') {
            j += 1;
        }
        // Trailing ? or ! are part of Ruby method names.
        if matches!(self.s.get(j), Some(b'?' | b'!')) {
            j += 1;
        }
        Some(&self.s[self.i..j])
    }

    fn eat_word(&mut self, w: &[u8]) -> bool {
        if self.peek_word() == Some(w) {
            self.i += w.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> bool {
        cov!(self.cov);
        let len = match self.peek_word() {
            Some(w) if !KEYWORDS.contains(&w) => w.len(),
            _ => return false,
        };
        self.i += len;
        true
    }

    fn program(&mut self) -> bool {
        cov!(self.cov);
        if !self.statements(&[]) {
            return false;
        }
        self.skip_separators();
        cov!(self.cov);
        self.i == self.s.len()
    }

    /// Parses statements until EOF or one of the `stop` keywords (not
    /// consumed).
    fn statements(&mut self, stop: &[&[u8]]) -> bool {
        cov!(self.cov);
        loop {
            self.skip_separators();
            match self.peek_word() {
                None if self.peek().is_none() => {
                    cov!(self.cov);
                    return true;
                }
                Some(w) if stop.contains(&w) => {
                    cov!(self.cov);
                    return true;
                }
                _ => {
                    if !self.statement() {
                        return false;
                    }
                }
            }
        }
    }

    fn statement(&mut self) -> bool {
        cov!(self.cov);
        if self.depth >= MAX_DEPTH {
            cov!(self.cov);
            return false;
        }
        self.depth += 1;
        let ok = self.statement_inner();
        self.depth -= 1;
        ok
    }

    fn statement_inner(&mut self) -> bool {
        cov!(self.cov);
        if self.eat_word(b"def") {
            cov!(self.cov);
            return self.def_statement();
        }
        if self.eat_word(b"if") || self.eat_word(b"unless") {
            cov!(self.cov);
            return self.if_statement();
        }
        if self.eat_word(b"while") || self.eat_word(b"until") {
            cov!(self.cov);
            return self.while_statement();
        }
        if self.eat_word(b"return") {
            cov!(self.cov);
            self.skip_spaces();
            if matches!(self.peek(), Some(b'\n' | b';') | None) {
                return true;
            }
            return self.expr();
        }
        if self.eat_word(b"break") || self.eat_word(b"next") {
            cov!(self.cov);
            return true;
        }
        // Expression statement (covers assignment via expr()).
        self.expr()
    }

    fn def_statement(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if !self.ident() {
            cov!(self.cov);
            return false;
        }
        self.skip_spaces();
        if self.eat(b'(') {
            cov!(self.cov);
            self.skip_spaces();
            if !self.eat(b')') {
                loop {
                    self.skip_spaces();
                    if !self.ident() {
                        cov!(self.cov);
                        return false;
                    }
                    self.skip_spaces();
                    if self.eat(b')') {
                        break;
                    }
                    if !self.eat(b',') {
                        cov!(self.cov);
                        return false;
                    }
                }
            }
        }
        if !self.statements(&[b"end"]) {
            return false;
        }
        cov!(self.cov);
        self.eat_word(b"end")
    }

    fn if_statement(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if !self.expr() {
            return false;
        }
        self.skip_spaces();
        let _ = self.eat_word(b"then");
        loop {
            if !self.statements(&[b"elsif", b"else", b"end"]) {
                return false;
            }
            if self.eat_word(b"elsif") {
                cov!(self.cov);
                self.skip_spaces();
                if !self.expr() {
                    return false;
                }
                let _ = self.eat_word(b"then");
            } else {
                break;
            }
        }
        if self.eat_word(b"else") {
            cov!(self.cov);
            if !self.statements(&[b"end"]) {
                return false;
            }
        }
        cov!(self.cov);
        self.eat_word(b"end")
    }

    fn while_statement(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if !self.expr() {
            return false;
        }
        let _ = self.eat_word(b"do");
        if !self.statements(&[b"end"]) {
            return false;
        }
        cov!(self.cov);
        self.eat_word(b"end")
    }

    /// expr := ternary-free assignment / binary chain.
    fn expr(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        // Possible assignment target: ident/@ivar followed by (op)=.
        let save = self.i;
        if self.assign_target() {
            self.skip_spaces();
            for op in [&b"="[..], b"+=", b"-=", b"*=", b"/=", b"||=", b"&&="] {
                // Careful: `==` is comparison, not assignment.
                if self.starts_with(op) && !self.starts_with(b"==") {
                    cov!(self.cov);
                    self.i += op.len();
                    self.skip_spaces();
                    return self.expr();
                }
            }
        }
        self.i = save;
        self.binary(0)
    }

    fn assign_target(&mut self) -> bool {
        cov!(self.cov);
        if self.eat(b'@') {
            cov!(self.cov);
            if !self.ident() {
                return false;
            }
        } else if !self.ident() {
            return false;
        }
        // Indexed and attribute targets: h[:k] = v, obj.field = v.
        loop {
            if self.eat(b'.') {
                cov!(self.cov);
                if !self.ident() {
                    return false;
                }
            } else if self.peek() == Some(b'[') {
                cov!(self.cov);
                self.i += 1;
                if !self.expr() {
                    return false;
                }
                self.skip_spaces();
                if !self.eat(b']') {
                    return false;
                }
            } else {
                return true;
            }
        }
    }

    fn binary(&mut self, min_level: u8) -> bool {
        cov!(self.cov);
        if !self.unary() {
            return false;
        }
        loop {
            self.skip_spaces();
            let Some((op_len, level)) = self.peek_binop() else {
                cov!(self.cov);
                return true;
            };
            if level < min_level {
                return true;
            }
            self.i += op_len;
            self.skip_spaces();
            if !self.binary(level + 1) {
                return false;
            }
        }
    }

    /// Returns (byte length, precedence level) of the operator at the
    /// cursor.
    fn peek_binop(&self) -> Option<(usize, u8)> {
        const OPS: &[(&[u8], u8)] = &[
            (b"||", 1),
            (b"&&", 2),
            (b"==", 3),
            (b"!=", 3),
            (b"<=>", 3),
            (b"<=", 4),
            (b">=", 4),
            (b"<<", 5),
            (b">>", 5),
            (b"<", 4),
            (b">", 4),
            (b"+", 6),
            (b"-", 6),
            (b"**", 8),
            (b"*", 7),
            (b"/", 7),
            (b"%", 7),
        ];
        for (op, level) in OPS {
            if self.starts_with(op) {
                // Reject `=` tail: `==` handled above, `<<=` etc. unsupported.
                return Some((op.len(), *level));
            }
        }
        if self.peek_word() == Some(b"and") || self.peek_word() == Some(b"or") {
            return Some((self.peek_word().expect("peeked").len(), 1));
        }
        None
    }

    fn unary(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if self.eat(b'!') || self.eat_word(b"not") {
            cov!(self.cov);
            return self.unary();
        }
        if self.eat(b'-') {
            cov!(self.cov);
            return self.unary();
        }
        self.postfix()
    }

    fn postfix(&mut self) -> bool {
        cov!(self.cov);
        if !self.primary() {
            return false;
        }
        loop {
            self.skip_spaces();
            if self.eat(b'.') {
                cov!(self.cov);
                if !self.ident() {
                    cov!(self.cov);
                    return false;
                }
                self.skip_spaces();
                if self.peek() == Some(b'(') {
                    cov!(self.cov);
                    if !self.call_args() {
                        return false;
                    }
                }
                self.skip_spaces();
                if self.peek_word() == Some(b"do") {
                    cov!(self.cov);
                    if !self.block() {
                        return false;
                    }
                }
            } else if self.peek() == Some(b'[') {
                cov!(self.cov);
                self.i += 1;
                if !self.expr() {
                    return false;
                }
                self.skip_spaces();
                if !self.eat(b']') {
                    cov!(self.cov);
                    return false;
                }
            } else {
                cov!(self.cov);
                return true;
            }
        }
    }

    fn primary(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        match self.peek() {
            Some(b'0'..=b'9') => {
                cov!(self.cov);
                self.number()
            }
            Some(b'"') => {
                cov!(self.cov);
                self.string(b'"')
            }
            Some(b'\'') => {
                cov!(self.cov);
                self.string(b'\'')
            }
            Some(b':') => {
                cov!(self.cov);
                self.i += 1;
                self.ident()
            }
            Some(b'@') => {
                cov!(self.cov);
                self.i += 1;
                self.ident()
            }
            Some(b'[') => {
                cov!(self.cov);
                self.i += 1;
                self.list_until(b']')
            }
            Some(b'{') => {
                cov!(self.cov);
                self.i += 1;
                self.hash_body()
            }
            Some(b'(') => {
                cov!(self.cov);
                self.i += 1;
                if !self.expr() {
                    return false;
                }
                self.skip_spaces();
                self.eat(b')')
            }
            _ => {
                if self.eat_word(b"nil") || self.eat_word(b"true") || self.eat_word(b"false") {
                    cov!(self.cov);
                    return true;
                }
                cov!(self.cov);
                if !self.ident() {
                    cov!(self.cov);
                    return false;
                }
                self.skip_spaces();
                // Call with parens, or a command call like `puts x, y`.
                if self.peek() == Some(b'(') {
                    cov!(self.cov);
                    if !self.call_args() {
                        return false;
                    }
                } else if self
                    .peek()
                    .is_some_and(|b| b == b'"' || b == b'\'' || b == b':' || b == b'@')
                    || self.peek_word().is_some_and(|w| !KEYWORDS.contains(&w))
                    || self.peek().is_some_and(|b| b.is_ascii_digit())
                {
                    // Paren-less command argument list: puts x, "s", 1.
                    cov!(self.cov);
                    loop {
                        if !self.expr() {
                            return false;
                        }
                        self.skip_spaces();
                        if !self.eat(b',') {
                            break;
                        }
                        self.skip_spaces();
                    }
                }
                self.skip_spaces();
                if self.peek_word() == Some(b"do") {
                    cov!(self.cov);
                    return self.block();
                }
                true
            }
        }
    }

    fn number(&mut self) -> bool {
        cov!(self.cov);
        while self.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            self.i += 1;
        }
        // Ruby floats require a digit after the dot; `10.times` is a method
        // call on the integer, so only consume the dot with a digit after.
        if self.peek() == Some(b'.') && self.s.get(self.i + 1).is_some_and(u8::is_ascii_digit) {
            cov!(self.cov);
            self.i += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.i += 1;
            }
        }
        true
    }

    fn string(&mut self, quote: u8) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(quote));
        self.i += 1;
        loop {
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return false;
                }
                Some(b'\\') => {
                    cov!(self.cov);
                    self.i += 2;
                }
                Some(b'#') if quote == b'"' && self.starts_with(b"#{") => {
                    cov!(self.cov);
                    self.i += 2;
                    if !self.expr() {
                        return false;
                    }
                    if !self.eat(b'}') {
                        cov!(self.cov);
                        return false;
                    }
                }
                Some(b) if b == quote => {
                    self.i += 1;
                    return true;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn list_until(&mut self, close: u8) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if self.eat(close) {
            cov!(self.cov);
            return true;
        }
        loop {
            if !self.expr() {
                return false;
            }
            self.skip_spaces();
            if self.eat(close) {
                cov!(self.cov);
                return true;
            }
            if !self.eat(b',') {
                cov!(self.cov);
                return false;
            }
        }
    }

    fn hash_body(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if self.eat(b'}') {
            cov!(self.cov);
            return true;
        }
        loop {
            if !self.expr() {
                return false;
            }
            self.skip_spaces();
            if !self.starts_with(b"=>") {
                cov!(self.cov);
                return false;
            }
            self.i += 2;
            if !self.expr() {
                return false;
            }
            self.skip_spaces();
            if self.eat(b'}') {
                cov!(self.cov);
                return true;
            }
            if !self.eat(b',') {
                cov!(self.cov);
                return false;
            }
        }
    }

    /// Parenthesized call arguments: `( expr, … )`.
    fn call_args(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'('));
        self.i += 1;
        self.skip_spaces();
        if self.eat(b')') {
            cov!(self.cov);
            return true;
        }
        loop {
            if !self.expr() {
                return false;
            }
            self.skip_spaces();
            if self.eat(b')') {
                cov!(self.cov);
                return true;
            }
            if !self.eat(b',') {
                cov!(self.cov);
                return false;
            }
        }
    }

    fn block(&mut self) -> bool {
        cov!(self.cov);
        if !self.eat_word(b"do") {
            return false;
        }
        self.skip_spaces();
        if self.eat(b'|') {
            cov!(self.cov);
            loop {
                self.skip_spaces();
                if !self.ident() {
                    cov!(self.cov);
                    return false;
                }
                self.skip_spaces();
                if self.eat(b'|') {
                    break;
                }
                if !self.eat(b',') {
                    cov!(self.cov);
                    return false;
                }
            }
        }
        if !self.statements(&[b"end"]) {
            return false;
        }
        cov!(self.cov);
        self.eat_word(b"end")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &[u8]) -> bool {
        Ruby.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in Ruby.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn simple_expressions() {
        assert!(valid(b"1 + 2 * 3"));
        assert!(valid(b"x = 5"));
        assert!(valid(b"y = x * (2 + z)"));
        assert!(valid(b"a == b && c != d"));
        assert!(valid(b"x<<2"));
        assert!(valid(b""));
        assert!(!valid(b"1 +"));
        assert!(!valid(b"= 5"));
    }

    #[test]
    fn literals() {
        assert!(valid(b"\"hello\""));
        assert!(valid(b"'single'"));
        assert!(valid(b"\"interp #{x + 1} ok\""));
        assert!(valid(b":symbol"));
        assert!(valid(b"[1, 2, 3]"));
        assert!(valid(b"[]"));
        assert!(valid(b"{:a => 1}"));
        assert!(valid(b"{}"));
        assert!(valid(b"3.25"));
        assert!(valid(b"1_000"));
        assert!(!valid(b"\"unterminated"));
        assert!(!valid(b"[1, 2"));
        assert!(!valid(b"{:a 1}"));
        assert!(!valid(b"3."));
    }

    #[test]
    fn def_and_calls() {
        assert!(valid(b"def f\nend"));
        assert!(valid(b"def f(a)\n  a\nend"));
        assert!(valid(b"def f(a, b)\n  a + b\nend"));
        assert!(valid(b"f(1, 2)"));
        assert!(valid(b"puts x"));
        assert!(valid(b"puts x, y"));
        assert!(valid(b"obj.method(1).chain"));
        assert!(!valid(b"def\nend"));
        assert!(!valid(b"def f(a,)\nend"));
        assert!(!valid(b"def f(a)\n")); // missing end
    }

    #[test]
    fn control_flow() {
        assert!(valid(b"if x\n  y\nend"));
        assert!(valid(b"if x then y end"));
        assert!(valid(b"if a\nb\nelsif c\nd\nelse\ne\nend"));
        assert!(valid(b"unless x\n y\nend"));
        assert!(valid(b"while i < 3\n i += 1\nend"));
        assert!(!valid(b"if x\n y"));
        assert!(!valid(b"else\nend"));
    }

    #[test]
    fn blocks_and_ivars() {
        assert!(valid(b"list.each do |v|\n puts v\nend"));
        assert!(valid(b"f do |a, b|\n a\nend"));
        assert!(valid(b"@count = 3"));
        assert!(valid(b"@a + @b"));
        assert!(!valid(b"f do |a\nend"));
        assert!(!valid(b"@ = 3"));
    }

    #[test]
    fn indexing() {
        assert!(valid(b"a[0]"));
        assert!(valid(b"h[:key] = 1 + a[i]"));
        assert!(!valid(b"a[0"));
    }

    #[test]
    fn comments() {
        assert!(valid(b"# full line\nx = 1 # trailing\n"));
    }

    #[test]
    fn coverage_accounting() {
        let c = Ruby.run(b"def f(a)\n if a > 0\n  [a, \"s\"]\n end\nend\n").coverage;
        assert!(c.len() > 20);
        assert!(Ruby.coverable_lines() >= c.len());
    }
}
