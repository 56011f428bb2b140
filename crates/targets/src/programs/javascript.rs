//! Instrumented stand-in for a JavaScript parser front-end (the paper's
//! SpiderMonkey subject).
//!
//! Accepts a representative core of ECMAScript statement syntax: function
//! declarations and expressions, `var/let/const` declarations, `if/else`,
//! `while`, `do…while`, `for` (classic three-clause), `return`, blocks,
//! expression statements, and an expression grammar with assignment,
//! ternaries, the usual binary precedence levels, unary and postfix
//! operators, calls, member access, indexing, and object/array/string/
//! number literals. An input is *valid* iff the whole program parses.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("javascript.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The JavaScript front-end target.
#[derive(Debug, Clone, Copy, Default)]
pub struct JavaScript;

impl Target for JavaScript {
    fn name(&self) -> &'static str {
        "javascript"
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
            &b"function add(a, b) { return a + b; }\nvar x = add(1, 2);\n"[..],
            b"var obj = {k: 1, s: \"two\"};\nfor (var i = 0; i < 10; i = i + 1) { f(obj.k); }\n",
            b"if (x > 0) { y = x ? 1 : -1; } else { while (y < 3) { y = y + 1; } }\n",
        ]
        .iter()
        .map(|s| s.to_vec())
        .collect()
    }
}

const MAX_DEPTH: u32 = 150;

const KEYWORDS: &[&[u8]] = &[
    b"function",
    b"var",
    b"let",
    b"const",
    b"if",
    b"else",
    b"while",
    b"do",
    b"for",
    b"return",
    b"true",
    b"false",
    b"null",
    b"undefined",
    b"this",
    b"new",
    b"typeof",
    b"break",
    b"continue",
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

    fn skip_ws(&mut self) -> bool {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.i += 1,
                Some(b'/') if self.starts_with(b"//") => {
                    cov!(self.cov);
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.i += 1;
                    }
                }
                Some(b'/') if self.starts_with(b"/*") => {
                    cov!(self.cov);
                    self.i += 2;
                    loop {
                        if self.starts_with(b"*/") {
                            self.i += 2;
                            break;
                        }
                        if self.peek().is_none() {
                            cov!(self.cov);
                            return false;
                        }
                        self.i += 1;
                    }
                }
                _ => return true,
            }
        }
    }

    fn peek_word(&self) -> Option<&[u8]> {
        let b = self.peek()?;
        if !(b.is_ascii_alphabetic() || b == b'_' || b == b'$') {
            return None;
        }
        let mut j = self.i;
        while self.s.get(j).is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$') {
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
        loop {
            if !self.skip_ws() {
                return false;
            }
            if self.peek().is_none() {
                cov!(self.cov);
                return true;
            }
            if !self.statement() {
                return false;
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
        if !self.skip_ws() {
            return false;
        }
        match self.peek_word() {
            Some(b"function") => {
                cov!(self.cov);
                self.i += 8;
                self.function_rest(true)
            }
            Some(w @ (b"var" | b"let" | b"const")) => {
                let n = w.len();
                cov!(self.cov);
                self.i += n;
                self.var_declaration()
            }
            Some(b"if") => {
                cov!(self.cov);
                self.i += 2;
                self.if_statement()
            }
            Some(b"while") => {
                cov!(self.cov);
                self.i += 5;
                if !self.paren_expr() {
                    return false;
                }
                self.statement()
            }
            Some(b"do") => {
                cov!(self.cov);
                self.i += 2;
                if !self.statement() {
                    return false;
                }
                if !self.skip_ws() {
                    return false;
                }
                if !self.eat_word(b"while") {
                    cov!(self.cov);
                    return false;
                }
                if !self.paren_expr() {
                    return false;
                }
                self.semicolon()
            }
            Some(b"for") => {
                cov!(self.cov);
                self.i += 3;
                self.for_statement()
            }
            Some(b"return") => {
                cov!(self.cov);
                self.i += 6;
                if !self.skip_ws() {
                    return false;
                }
                if matches!(self.peek(), Some(b';') | Some(b'}') | None) {
                    return self.semicolon();
                }
                if !self.expr() {
                    return false;
                }
                self.semicolon()
            }
            Some(w @ (b"break" | b"continue")) => {
                let n = w.len();
                cov!(self.cov);
                self.i += n;
                self.semicolon()
            }
            _ => match self.peek() {
                Some(b'{') => {
                    cov!(self.cov);
                    self.block()
                }
                Some(b';') => {
                    cov!(self.cov);
                    self.i += 1;
                    true
                }
                None => {
                    cov!(self.cov);
                    false
                }
                _ => {
                    cov!(self.cov);
                    if !self.expr() {
                        return false;
                    }
                    self.semicolon()
                }
            },
        }
    }

    /// Automatic-semicolon-insertion-lite: an explicit `;`, or a `}` /
    /// newline / EOF boundary.
    fn semicolon(&mut self) -> bool {
        cov!(self.cov);
        let before_ws = self.i;
        if !self.skip_ws() {
            return false;
        }
        if self.eat(b';') {
            cov!(self.cov);
            return true;
        }
        if matches!(self.peek(), Some(b'}') | None) {
            cov!(self.cov);
            return true;
        }
        // Newline between the statement end and the next token inserts a
        // semicolon.
        if self.s[before_ws..self.i].contains(&b'\n') {
            cov!(self.cov);
            return true;
        }
        cov!(self.cov);
        false
    }

    fn block(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.i += 1;
        loop {
            if !self.skip_ws() {
                return false;
            }
            if self.eat(b'}') {
                cov!(self.cov);
                return true;
            }
            if self.peek().is_none() {
                cov!(self.cov);
                return false;
            }
            if !self.statement() {
                return false;
            }
        }
    }

    fn function_rest(&mut self, need_name: bool) -> bool {
        cov!(self.cov);
        if !self.skip_ws() {
            return false;
        }
        let has_name = self.ident();
        if need_name && !has_name {
            cov!(self.cov);
            return false;
        }
        if !self.skip_ws() {
            return false;
        }
        if !self.eat(b'(') {
            cov!(self.cov);
            return false;
        }
        if !self.skip_ws() {
            return false;
        }
        if !self.eat(b')') {
            loop {
                if !self.skip_ws() {
                    return false;
                }
                if !self.ident() {
                    cov!(self.cov);
                    return false;
                }
                if !self.skip_ws() {
                    return false;
                }
                if self.eat(b')') {
                    break;
                }
                if !self.eat(b',') {
                    cov!(self.cov);
                    return false;
                }
            }
        }
        if !self.skip_ws() {
            return false;
        }
        if self.peek() != Some(b'{') {
            cov!(self.cov);
            return false;
        }
        self.block()
    }

    fn var_declaration(&mut self) -> bool {
        cov!(self.cov);
        loop {
            if !self.skip_ws() {
                return false;
            }
            if !self.ident() {
                cov!(self.cov);
                return false;
            }
            if !self.skip_ws() {
                return false;
            }
            if self.eat(b'=') {
                cov!(self.cov);
                if !self.assignment_expr() {
                    return false;
                }
                if !self.skip_ws() {
                    return false;
                }
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.semicolon()
    }

    fn paren_expr(&mut self) -> bool {
        cov!(self.cov);
        if !self.skip_ws() {
            return false;
        }
        if !self.eat(b'(') {
            cov!(self.cov);
            return false;
        }
        if !self.expr() {
            return false;
        }
        if !self.skip_ws() {
            return false;
        }
        self.eat(b')')
    }

    fn if_statement(&mut self) -> bool {
        cov!(self.cov);
        if !self.paren_expr() {
            return false;
        }
        if !self.statement() {
            return false;
        }
        let save = self.i;
        if !self.skip_ws() {
            return false;
        }
        if self.eat_word(b"else") {
            cov!(self.cov);
            return self.statement();
        }
        self.i = save;
        true
    }

    fn for_statement(&mut self) -> bool {
        cov!(self.cov);
        if !self.skip_ws() {
            return false;
        }
        if !self.eat(b'(') {
            cov!(self.cov);
            return false;
        }
        // init clause: var decl | expr | empty.
        if !self.skip_ws() {
            return false;
        }
        if !self.eat(b';') {
            if let Some(w @ (b"var" | b"let" | b"const")) = self.peek_word() {
                let n = w.len();
                cov!(self.cov);
                self.i += n;
                // Like var_declaration but terminated by ';' explicitly.
                loop {
                    if !self.skip_ws() {
                        return false;
                    }
                    if !self.ident() {
                        cov!(self.cov);
                        return false;
                    }
                    if !self.skip_ws() {
                        return false;
                    }
                    if self.eat(b'=') {
                        cov!(self.cov);
                        if !self.assignment_expr() {
                            return false;
                        }
                        if !self.skip_ws() {
                            return false;
                        }
                    }
                    if !self.eat(b',') {
                        break;
                    }
                }
            } else {
                cov!(self.cov);
                if !self.expr() {
                    return false;
                }
                if !self.skip_ws() {
                    return false;
                }
            }
            if !self.eat(b';') {
                cov!(self.cov);
                return false;
            }
        }
        // condition clause.
        if !self.skip_ws() {
            return false;
        }
        if !self.eat(b';') {
            cov!(self.cov);
            if !self.expr() {
                return false;
            }
            if !self.skip_ws() {
                return false;
            }
            if !self.eat(b';') {
                cov!(self.cov);
                return false;
            }
        }
        // step clause.
        if !self.skip_ws() {
            return false;
        }
        if !self.eat(b')') {
            cov!(self.cov);
            if !self.expr() {
                return false;
            }
            if !self.skip_ws() {
                return false;
            }
            if !self.eat(b')') {
                cov!(self.cov);
                return false;
            }
        }
        self.statement()
    }

    // ------------------------------------------------------------------
    // Expressions.
    // ------------------------------------------------------------------

    fn expr(&mut self) -> bool {
        cov!(self.cov);
        if !self.assignment_expr() {
            return false;
        }
        // Comma operator.
        loop {
            let save = self.i;
            if !self.skip_ws() {
                return false;
            }
            if self.eat(b',') {
                cov!(self.cov);
                if !self.assignment_expr() {
                    return false;
                }
            } else {
                self.i = save;
                return true;
            }
        }
    }

    fn assignment_expr(&mut self) -> bool {
        cov!(self.cov);
        if !self.skip_ws() {
            return false;
        }
        // Try: target assign-op expr.
        let save = self.i;
        if self.assign_target() {
            if !self.skip_ws() {
                return false;
            }
            for op in
                [&b"="[..], b"+=", b"-=", b"*=", b"/=", b"%=", b"<<=", b">>=", b"&=", b"|=", b"^="]
            {
                if self.starts_with(op)
                    && !self.starts_with(b"==")
                    && !(op == b"=" && self.starts_with(b"=>"))
                {
                    cov!(self.cov);
                    self.i += op.len();
                    return self.assignment_expr();
                }
            }
        }
        self.i = save;
        self.ternary()
    }

    fn assign_target(&mut self) -> bool {
        cov!(self.cov);
        if !self.ident() {
            return false;
        }
        loop {
            match self.peek() {
                Some(b'.') => {
                    cov!(self.cov);
                    self.i += 1;
                    if !self.ident() {
                        return false;
                    }
                }
                Some(b'[') => {
                    cov!(self.cov);
                    self.i += 1;
                    if !self.expr() {
                        return false;
                    }
                    if !self.skip_ws() {
                        return false;
                    }
                    if !self.eat(b']') {
                        return false;
                    }
                }
                _ => return true,
            }
        }
    }

    fn ternary(&mut self) -> bool {
        cov!(self.cov);
        if !self.binary(0) {
            return false;
        }
        let save = self.i;
        if !self.skip_ws() {
            return false;
        }
        if self.eat(b'?') {
            cov!(self.cov);
            if !self.assignment_expr() {
                return false;
            }
            if !self.skip_ws() {
                return false;
            }
            if !self.eat(b':') {
                cov!(self.cov);
                return false;
            }
            return self.assignment_expr();
        }
        self.i = save;
        true
    }

    fn binary(&mut self, min_level: u8) -> bool {
        cov!(self.cov);
        if !self.unary() {
            return false;
        }
        loop {
            let save = self.i;
            if !self.skip_ws() {
                return false;
            }
            const OPS: &[(&[u8], u8)] = &[
                (b"||", 1),
                (b"&&", 2),
                (b"===", 5),
                (b"!==", 5),
                (b"==", 5),
                (b"!=", 5),
                (b"<<", 7),
                (b">>>", 7),
                (b">>", 7),
                (b"<=", 6),
                (b">=", 6),
                (b"<", 6),
                (b">", 6),
                (b"|", 3),
                (b"^", 3),
                (b"&", 4),
                (b"+", 8),
                (b"-", 8),
                (b"*", 9),
                (b"/", 9),
                (b"%", 9),
            ];
            let mut found = None;
            for (op, level) in OPS {
                if self.starts_with(op) {
                    // Exclude assignment forms like += and lone = .
                    let next = self.s.get(self.i + op.len()).copied();
                    if op.len() == 1
                        && next == Some(b'=')
                        && matches!(op[0], b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^')
                    {
                        break;
                    }
                    found = Some((op.len(), *level));
                    break;
                }
            }
            let Some((len, level)) = found else {
                self.i = save;
                cov!(self.cov);
                return true;
            };
            if level < min_level {
                self.i = save;
                return true;
            }
            self.i += len;
            if !self.binary(level + 1) {
                return false;
            }
        }
    }

    fn unary(&mut self) -> bool {
        cov!(self.cov);
        if !self.skip_ws() {
            return false;
        }
        if self.eat_word(b"typeof") || self.eat_word(b"new") {
            cov!(self.cov);
            return self.unary();
        }
        if self.starts_with(b"++") || self.starts_with(b"--") {
            cov!(self.cov);
            self.i += 2;
            return self.unary();
        }
        if self.eat(b'!') || self.eat(b'-') || self.eat(b'+') || self.eat(b'~') {
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
            match self.peek() {
                Some(b'(') => {
                    cov!(self.cov);
                    self.i += 1;
                    if !self.skip_ws() {
                        return false;
                    }
                    if self.eat(b')') {
                        continue;
                    }
                    loop {
                        if !self.assignment_expr() {
                            return false;
                        }
                        if !self.skip_ws() {
                            return false;
                        }
                        if self.eat(b')') {
                            break;
                        }
                        if !self.eat(b',') {
                            cov!(self.cov);
                            return false;
                        }
                    }
                }
                Some(b'[') => {
                    cov!(self.cov);
                    self.i += 1;
                    if !self.expr() {
                        return false;
                    }
                    if !self.skip_ws() {
                        return false;
                    }
                    if !self.eat(b']') {
                        cov!(self.cov);
                        return false;
                    }
                }
                Some(b'.') => {
                    cov!(self.cov);
                    self.i += 1;
                    if !self.ident() {
                        cov!(self.cov);
                        return false;
                    }
                }
                Some(b'+') if self.starts_with(b"++") => {
                    cov!(self.cov);
                    self.i += 2;
                }
                Some(b'-') if self.starts_with(b"--") => {
                    cov!(self.cov);
                    self.i += 2;
                }
                _ => {
                    cov!(self.cov);
                    return true;
                }
            }
        }
    }

    fn primary(&mut self) -> bool {
        cov!(self.cov);
        if !self.skip_ws() {
            return false;
        }
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
            Some(b'[') => {
                cov!(self.cov);
                self.i += 1;
                if !self.skip_ws() {
                    return false;
                }
                if self.eat(b']') {
                    cov!(self.cov);
                    return true;
                }
                loop {
                    if !self.assignment_expr() {
                        return false;
                    }
                    if !self.skip_ws() {
                        return false;
                    }
                    if self.eat(b']') {
                        return true;
                    }
                    if !self.eat(b',') {
                        cov!(self.cov);
                        return false;
                    }
                }
            }
            Some(b'{') => {
                cov!(self.cov);
                self.object_literal()
            }
            Some(b'(') => {
                cov!(self.cov);
                self.i += 1;
                if !self.expr() {
                    return false;
                }
                if !self.skip_ws() {
                    return false;
                }
                self.eat(b')')
            }
            _ => match self.peek_word() {
                Some(b"function") => {
                    cov!(self.cov);
                    self.i += 8;
                    self.function_rest(false)
                }
                Some(b"true") | Some(b"false") | Some(b"null") | Some(b"undefined")
                | Some(b"this") => {
                    cov!(self.cov);
                    let w = self.peek_word().expect("peeked").len();
                    self.i += w;
                    true
                }
                _ => {
                    cov!(self.cov);
                    self.ident()
                }
            },
        }
    }

    fn number(&mut self) -> bool {
        cov!(self.cov);
        if self.starts_with(b"0x") || self.starts_with(b"0X") {
            cov!(self.cov);
            self.i += 2;
            let start = self.i;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.i += 1;
            }
            return self.i > start;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        if self.eat(b'.') {
            cov!(self.cov);
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            cov!(self.cov);
            let _ = self.eat(b'-') || self.eat(b'+');
            let start = self.i;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == start {
                return false;
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
                None | Some(b'\n') => {
                    cov!(self.cov);
                    return false;
                }
                Some(b'\\') => {
                    cov!(self.cov);
                    self.i += 2;
                }
                Some(b) if b == quote => {
                    self.i += 1;
                    return true;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn object_literal(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.i += 1;
        if !self.skip_ws() {
            return false;
        }
        if self.eat(b'}') {
            cov!(self.cov);
            return true;
        }
        loop {
            if !self.skip_ws() {
                return false;
            }
            // Key: identifier, string, or number.
            let key_ok = match self.peek() {
                Some(b'"') => self.string(b'"'),
                Some(b'\'') => self.string(b'\''),
                Some(b'0'..=b'9') => self.number(),
                _ => self.ident(),
            };
            if !key_ok {
                cov!(self.cov);
                return false;
            }
            if !self.skip_ws() {
                return false;
            }
            if !self.eat(b':') {
                cov!(self.cov);
                return false;
            }
            if !self.assignment_expr() {
                return false;
            }
            if !self.skip_ws() {
                return false;
            }
            if self.eat(b'}') {
                cov!(self.cov);
                return true;
            }
            if !self.eat(b',') {
                cov!(self.cov);
                return false;
            }
            if !self.skip_ws() {
                return false;
            }
            // Trailing comma.
            if self.eat(b'}') {
                cov!(self.cov);
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &[u8]) -> bool {
        JavaScript.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in JavaScript.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn statements() {
        assert!(valid(b"var x = 1;"));
        assert!(valid(b"let y = 2, z = 3;"));
        assert!(valid(b"const k = \"s\";"));
        assert!(valid(b"x = 1\ny = 2\n")); // ASI via newline
        assert!(valid(b"{ x = 1; y = 2; }"));
        assert!(valid(b";"));
        assert!(valid(b""));
        assert!(!valid(b"var = 1;"));
        assert!(!valid(b"var x = ;"));
        assert!(!valid(b"x = 1 y = 2;")); // no separator
    }

    #[test]
    fn functions() {
        assert!(valid(b"function f() { return; }"));
        assert!(valid(b"function f(a, b) { return a + b; }"));
        assert!(valid(b"var f = function (a) { return a; };"));
        assert!(valid(b"f(1, 2);"));
        assert!(valid(b"obj.method(x)[0](y);"));
        assert!(!valid(b"function () { }")); // declaration needs a name
        assert!(!valid(b"function f( { }"));
        assert!(!valid(b"function f() return;"));
    }

    #[test]
    fn control_flow() {
        assert!(valid(b"if (x) y = 1;"));
        assert!(valid(b"if (x) { a(); } else { b(); }"));
        assert!(valid(b"if (x) a(); else if (y) b();"));
        assert!(valid(b"while (i < 10) i = i + 1;"));
        assert!(valid(b"do { i++; } while (i < 3);"));
        assert!(valid(b"for (var i = 0; i < 5; i++) f(i);"));
        assert!(valid(b"for (;;) break;"));
        assert!(!valid(b"if x { }"));
        assert!(!valid(b"while () { }"));
        assert!(!valid(b"do { } while x;"));
    }

    #[test]
    fn expressions() {
        assert!(valid(b"x = a || b && c;"));
        assert!(valid(b"y = a === b ? 1 : 2;"));
        assert!(valid(b"z = (a + b) * -c;"));
        assert!(valid(b"w = typeof x;"));
        assert!(valid(b"v = new Thing(1);"));
        assert!(valid(b"u = a << 2 | b & 7;"));
        assert!(valid(b"t = ++i + j--;"));
        assert!(valid(b"s = [1, 'two', x];"));
        assert!(valid(b"r = {a: 1, 'b': 2, 3: x};"));
        assert!(valid(b"q = 0xFF + 1.5e3;"));
        assert!(!valid(b"x = ;"));
        assert!(!valid(b"y = a ? 1;"));
        assert!(!valid(b"z = [1, ;"));
        assert!(!valid(b"w = {a 1};"));
        assert!(!valid(b"v = 'open\n';"));
    }

    #[test]
    fn comments() {
        assert!(valid(b"// line\nx = 1;"));
        assert!(valid(b"/* block */ x = 1;"));
        assert!(!valid(b"/* unterminated\nx = 1;"));
    }

    #[test]
    fn coverage_accounting() {
        let c = JavaScript
            .run(b"function f(a) { if (a > 0) { return {k: [1, 'x']}; } return null; }")
            .coverage;
        assert!(c.len() > 25);
        assert!(JavaScript.coverable_lines() >= c.len());
    }
}
