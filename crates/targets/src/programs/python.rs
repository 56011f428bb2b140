//! Instrumented stand-in for the Python parser front-end.
//!
//! Accepts a representative core of Python's statement syntax with real
//! indentation sensitivity: `def`, `class`, `if/elif/else`, `while`/`for`
//! (with `else` omitted), `return/pass/break/continue/import`, assignments
//! (including augmented), expression statements, and an expression grammar
//! with `lambda`, boolean operators, comparisons, arithmetic, calls,
//! attribute access, indexing, and list/dict/tuple/string/number literals.
//! Suites are either inline (`if x: y = 1`) or indented blocks; dedents
//! must return to an enclosing indentation level, exactly as in CPython's
//! tokenizer. Indentation must use spaces (tabs are rejected).
//!
//! As in the paper (Section 8.3), inputs are parsed, never executed — the
//! paper wraps inputs in `if False:` to the same effect.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("python.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The Python front-end target.
#[derive(Debug, Clone, Copy, Default)]
pub struct Python;

impl Target for Python {
    fn name(&self) -> &'static str {
        "python"
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
            &b"def add(a, b):\n    return a + b\n\nprint(add(1, 2))\n"[..],
            b"x = [1, 2, 3]\nfor v in x:\n    if v > 1:\n        print(v)\n    else:\n        pass\n",
            b"class Point:\n    def norm(self):\n        return self.x * self.x\n",
            b"f = lambda a: a * 2\nwhile f(1) < 4:\n    break\n",
        ]
        .iter()
        .map(|s| s.to_vec())
        .collect()
    }
}

const MAX_DEPTH: u32 = 120;

const KEYWORDS: &[&[u8]] = &[
    b"def",
    b"class",
    b"if",
    b"elif",
    b"else",
    b"while",
    b"for",
    b"in",
    b"return",
    b"pass",
    b"break",
    b"continue",
    b"import",
    b"from",
    b"and",
    b"or",
    b"not",
    b"lambda",
    b"None",
    b"True",
    b"False",
    b"is",
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

    /// Skips spaces and comments within a logical line (never newlines).
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

    fn peek_word(&self) -> Option<&[u8]> {
        let b = self.peek()?;
        if !(b.is_ascii_alphabetic() || b == b'_') {
            return None;
        }
        let mut j = self.i;
        while self.s.get(j).is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_') {
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

    /// At a line start: measures indentation. Returns `None` for
    /// tab-indented lines (rejected).
    fn measure_indent(&self) -> Option<usize> {
        let mut j = self.i;
        let mut n = 0usize;
        while let Some(&b) = self.s.get(j) {
            match b {
                b' ' => {
                    n += 1;
                    j += 1;
                }
                b'\t' => return None,
                _ => break,
            }
        }
        Some(n)
    }

    /// Skips blank and comment-only lines; afterwards the cursor is at a
    /// line start of a code line or at EOF.
    fn skip_blank_lines(&mut self) {
        loop {
            let save = self.i;
            let mut j = self.i;
            while matches!(self.s.get(j), Some(b' ' | b'\t' | b'\r')) {
                j += 1;
            }
            match self.s.get(j) {
                Some(b'\n') => {
                    self.i = j + 1;
                }
                Some(b'#') => {
                    cov!(self.cov);
                    while self.s.get(j).is_some_and(|&b| b != b'\n') {
                        j += 1;
                    }
                    self.i = j + usize::from(self.s.get(j).is_some());
                }
                None => {
                    self.i = j;
                    return;
                }
                _ => {
                    self.i = save;
                    return;
                }
            }
        }
    }

    fn program(&mut self) -> bool {
        cov!(self.cov);
        loop {
            self.skip_blank_lines();
            if self.peek().is_none() {
                cov!(self.cov);
                return true;
            }
            match self.measure_indent() {
                Some(0) => {}
                _ => {
                    cov!(self.cov);
                    return false; // top-level code must not be indented
                }
            }
            if !self.statement_line(0) {
                return false;
            }
        }
    }

    /// Parses one logical line (compound or simple) whose indentation is
    /// `indent` (cursor at line start).
    fn statement_line(&mut self, indent: usize) -> bool {
        cov!(self.cov);
        if self.depth >= MAX_DEPTH {
            cov!(self.cov);
            return false;
        }
        self.i += indent; // consume the measured indentation
        self.depth += 1;
        let ok = self.statement_body(indent);
        self.depth -= 1;
        ok
    }

    fn statement_body(&mut self, indent: usize) -> bool {
        cov!(self.cov);
        match self.peek_word() {
            Some(b"def") => {
                cov!(self.cov);
                self.i += 3;
                self.def_statement(indent)
            }
            Some(b"class") => {
                cov!(self.cov);
                self.i += 5;
                self.class_statement(indent)
            }
            Some(b"if") => {
                cov!(self.cov);
                self.i += 2;
                self.if_statement(indent)
            }
            Some(b"while") => {
                cov!(self.cov);
                self.i += 5;
                self.skip_spaces();
                if !self.expr() {
                    return false;
                }
                self.suite(indent)
            }
            Some(b"for") => {
                cov!(self.cov);
                self.i += 3;
                self.skip_spaces();
                if !self.ident() {
                    cov!(self.cov);
                    return false;
                }
                self.skip_spaces();
                if !self.eat_word(b"in") {
                    cov!(self.cov);
                    return false;
                }
                self.skip_spaces();
                if !self.expr() {
                    return false;
                }
                self.suite(indent)
            }
            _ => {
                // Simple statement(s), ';'-separated, to end of line.
                if !self.simple_statements() {
                    return false;
                }
                self.end_of_line()
            }
        }
    }

    fn end_of_line(&mut self) -> bool {
        self.skip_spaces();
        cov!(self.cov);
        match self.peek() {
            None => true,
            Some(b'\n') => {
                self.i += 1;
                true
            }
            _ => false,
        }
    }

    fn simple_statements(&mut self) -> bool {
        cov!(self.cov);
        loop {
            if !self.simple_statement() {
                return false;
            }
            self.skip_spaces();
            if !self.eat(b';') {
                cov!(self.cov);
                return true;
            }
            self.skip_spaces();
            // Trailing ';' allowed.
            if matches!(self.peek(), None | Some(b'\n')) {
                cov!(self.cov);
                return true;
            }
        }
    }

    fn simple_statement(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if self.eat_word(b"pass") || self.eat_word(b"break") || self.eat_word(b"continue") {
            cov!(self.cov);
            return true;
        }
        if self.eat_word(b"return") {
            cov!(self.cov);
            self.skip_spaces();
            if matches!(self.peek(), None | Some(b'\n') | Some(b';')) {
                return true;
            }
            return self.expr();
        }
        if self.eat_word(b"import") {
            cov!(self.cov);
            self.skip_spaces();
            return self.dotted_name();
        }
        if self.eat_word(b"from") {
            cov!(self.cov);
            self.skip_spaces();
            if !self.dotted_name() {
                return false;
            }
            self.skip_spaces();
            if !self.eat_word(b"import") {
                cov!(self.cov);
                return false;
            }
            self.skip_spaces();
            return self.ident() || self.eat(b'*');
        }
        // Assignment or expression.
        let save = self.i;
        if self.assign_target() {
            self.skip_spaces();
            for op in [&b"="[..], b"+=", b"-=", b"*=", b"/=", b"//=", b"%=", b"**="] {
                if self.starts_with(op) && !self.starts_with(b"==") {
                    cov!(self.cov);
                    self.i += op.len();
                    self.skip_spaces();
                    return self.expr();
                }
            }
        }
        self.i = save;
        self.expr()
    }

    fn dotted_name(&mut self) -> bool {
        cov!(self.cov);
        if !self.ident() {
            return false;
        }
        while self.eat(b'.') {
            cov!(self.cov);
            if !self.ident() {
                return false;
            }
        }
        true
    }

    /// Assignment target: name with optional trailing `.attr` / `[index]`.
    fn assign_target(&mut self) -> bool {
        cov!(self.cov);
        if !self.ident() {
            return false;
        }
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

    fn def_statement(&mut self, indent: usize) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if !self.ident() {
            cov!(self.cov);
            return false;
        }
        self.skip_spaces();
        if !self.eat(b'(') {
            cov!(self.cov);
            return false;
        }
        self.skip_spaces();
        if !self.eat(b')') {
            loop {
                self.skip_spaces();
                if !self.ident() {
                    cov!(self.cov);
                    return false;
                }
                self.skip_spaces();
                // Default value.
                if self.eat(b'=') {
                    cov!(self.cov);
                    self.skip_spaces();
                    if !self.expr() {
                        return false;
                    }
                    self.skip_spaces();
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
        self.suite(indent)
    }

    fn class_statement(&mut self, indent: usize) -> bool {
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
                    if !self.dotted_name() {
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
        self.suite(indent)
    }

    fn if_statement(&mut self, indent: usize) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if !self.expr() {
            return false;
        }
        if !self.suite(indent) {
            return false;
        }
        loop {
            // elif / else must sit at the same indentation.
            let save = self.i;
            self.skip_blank_lines();
            if self.measure_indent() != Some(indent) {
                self.i = save;
                cov!(self.cov);
                return true;
            }
            let line_start = self.i;
            self.i += indent;
            if self.eat_word(b"elif") {
                cov!(self.cov);
                self.skip_spaces();
                if !self.expr() {
                    return false;
                }
                if !self.suite(indent) {
                    return false;
                }
            } else if self.eat_word(b"else") {
                cov!(self.cov);
                self.skip_spaces();
                return self.suite(indent);
            } else {
                self.i = save;
                let _ = line_start;
                cov!(self.cov);
                return true;
            }
        }
    }

    /// `: suite` — either inline simple statements or an indented block.
    fn suite(&mut self, indent: usize) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if !self.eat(b':') {
            cov!(self.cov);
            return false;
        }
        self.skip_spaces();
        if !matches!(self.peek(), None | Some(b'\n')) {
            // Inline suite.
            cov!(self.cov);
            if !self.simple_statements() {
                return false;
            }
            return self.end_of_line();
        }
        self.eat(b'\n');
        // Indented block: first line fixes the child indentation.
        self.skip_blank_lines();
        let Some(child) = self.measure_indent() else {
            cov!(self.cov);
            return false;
        };
        if child <= indent {
            cov!(self.cov);
            return false; // expected an indented block
        }
        loop {
            if !self.statement_line(child) {
                return false;
            }
            self.skip_blank_lines();
            if self.peek().is_none() {
                cov!(self.cov);
                return true;
            }
            match self.measure_indent() {
                Some(n) if n == child => {
                    cov!(self.cov);
                }
                Some(n) if n <= indent => {
                    // Dedent to an enclosing level: end of this block. The
                    // caller validates the exact level.
                    cov!(self.cov);
                    return true;
                }
                _ => {
                    cov!(self.cov);
                    return false; // inconsistent dedent or stray indent
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions.
    // ------------------------------------------------------------------

    fn expr(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if self.eat_word(b"lambda") {
            cov!(self.cov);
            self.skip_spaces();
            if !self.eat(b':') {
                loop {
                    self.skip_spaces();
                    if !self.ident() {
                        cov!(self.cov);
                        return false;
                    }
                    self.skip_spaces();
                    if self.eat(b':') {
                        break;
                    }
                    if !self.eat(b',') {
                        cov!(self.cov);
                        return false;
                    }
                }
            }
            return self.expr();
        }
        self.or_expr()
    }

    fn or_expr(&mut self) -> bool {
        cov!(self.cov);
        if !self.and_expr() {
            return false;
        }
        loop {
            self.skip_spaces();
            if self.eat_word(b"or") {
                cov!(self.cov);
                if !self.and_expr() {
                    return false;
                }
            } else {
                return true;
            }
        }
    }

    fn and_expr(&mut self) -> bool {
        cov!(self.cov);
        if !self.not_expr() {
            return false;
        }
        loop {
            self.skip_spaces();
            if self.eat_word(b"and") {
                cov!(self.cov);
                if !self.not_expr() {
                    return false;
                }
            } else {
                return true;
            }
        }
    }

    fn not_expr(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if self.eat_word(b"not") {
            cov!(self.cov);
            return self.not_expr();
        }
        self.comparison()
    }

    fn comparison(&mut self) -> bool {
        cov!(self.cov);
        if !self.arith(0) {
            return false;
        }
        loop {
            self.skip_spaces();
            let mut matched = false;
            for op in [&b"=="[..], b"!=", b"<=", b">=", b"<", b">"] {
                if self.starts_with(op) {
                    cov!(self.cov);
                    self.i += op.len();
                    matched = true;
                    break;
                }
            }
            if !matched {
                if self.eat_word(b"in") {
                    cov!(self.cov);
                    matched = true;
                } else if self.eat_word(b"is") {
                    cov!(self.cov);
                    self.skip_spaces();
                    let _ = self.eat_word(b"not");
                    matched = true;
                } else if self.peek_word() == Some(b"not") {
                    // `not in`
                    let save = self.i;
                    self.i += 3;
                    self.skip_spaces();
                    if self.eat_word(b"in") {
                        cov!(self.cov);
                        matched = true;
                    } else {
                        self.i = save;
                    }
                }
            }
            if !matched {
                return true;
            }
            if !self.arith(0) {
                return false;
            }
        }
    }

    fn arith(&mut self, min_level: u8) -> bool {
        cov!(self.cov);
        if !self.unary() {
            return false;
        }
        loop {
            self.skip_spaces();
            const OPS: &[(&[u8], u8)] =
                &[(b"+", 1), (b"-", 1), (b"**", 3), (b"//", 2), (b"*", 2), (b"/", 2), (b"%", 2)];
            let mut found = None;
            for (op, level) in OPS {
                if self.starts_with(op) && !self.starts_with(b"+=") && !self.starts_with(b"-=") {
                    found = Some((op.len(), *level));
                    break;
                }
            }
            let Some((len, level)) = found else {
                cov!(self.cov);
                return true;
            };
            if level < min_level {
                return true;
            }
            self.i += len;
            self.skip_spaces();
            if !self.arith(level + 1) {
                return false;
            }
        }
    }

    fn unary(&mut self) -> bool {
        cov!(self.cov);
        self.skip_spaces();
        if self.eat(b'-') || self.eat(b'+') {
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
                    self.skip_spaces();
                    if self.eat(b')') {
                        continue;
                    }
                    loop {
                        if !self.expr() {
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
                Some(b'[') => {
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
                }
                Some(b'.') => {
                    cov!(self.cov);
                    self.i += 1;
                    if !self.ident() {
                        cov!(self.cov);
                        return false;
                    }
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
            Some(b'[') => {
                cov!(self.cov);
                self.i += 1;
                self.expr_list_until(b']')
            }
            Some(b'{') => {
                cov!(self.cov);
                self.i += 1;
                self.dict_body()
            }
            Some(b'(') => {
                cov!(self.cov);
                self.i += 1;
                self.skip_spaces();
                if self.eat(b')') {
                    cov!(self.cov);
                    return true; // empty tuple
                }
                if !self.expr() {
                    return false;
                }
                self.skip_spaces();
                // Tuple.
                while self.eat(b',') {
                    cov!(self.cov);
                    self.skip_spaces();
                    if self.peek() == Some(b')') {
                        break;
                    }
                    if !self.expr() {
                        return false;
                    }
                    self.skip_spaces();
                }
                self.eat(b')')
            }
            _ => {
                if self.eat_word(b"None") || self.eat_word(b"True") || self.eat_word(b"False") {
                    cov!(self.cov);
                    return true;
                }
                cov!(self.cov);
                self.ident()
            }
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

    fn expr_list_until(&mut self, close: u8) -> bool {
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
            self.skip_spaces();
            // Trailing comma.
            if self.eat(close) {
                cov!(self.cov);
                return true;
            }
        }
    }

    fn dict_body(&mut self) -> bool {
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
            if !self.eat(b':') {
                cov!(self.cov);
                return false;
            }
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
            self.skip_spaces();
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
        Python.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in Python.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn simple_statements() {
        assert!(valid(b"x = 1\n"));
        assert!(valid(b"x = 1; y = 2\n"));
        assert!(valid(b"pass\n"));
        assert!(valid(b"x += 2 * y\n"));
        assert!(valid(b"print(1, 2)\n"));
        assert!(valid(b"import os\n"));
        assert!(valid(b"import os.path\n"));
        assert!(valid(b"from os import path\n"));
        assert!(valid(b""));
        assert!(!valid(b"x =\n"));
        assert!(!valid(b"import\n"));
    }

    #[test]
    fn indentation_rules() {
        assert!(valid(b"if x:\n    y = 1\n"));
        assert!(valid(b"if x:\n  y = 1\n  z = 2\n"));
        assert!(valid(b"if x:\n    if y:\n        z = 1\n    w = 2\n"));
        // Top-level code must not be indented.
        assert!(!valid(b"  x = 1\n"));
        // Block must be indented.
        assert!(!valid(b"if x:\ny = 1\n"));
        // Inconsistent dedent (to a level that matches no enclosing block).
        assert!(!valid(b"if x:\n    if y:\n        z = 1\n   w = 2\n"));
        // Unexpected deeper indent mid-block.
        assert!(!valid(b"if x:\n  y = 1\n    z = 2\n"));
        // Tabs rejected in indentation.
        assert!(!valid(b"if x:\n\ty = 1\n"));
    }

    #[test]
    fn compound_statements() {
        assert!(valid(b"def f():\n    pass\n"));
        assert!(valid(b"def f(a, b=2):\n    return a + b\n"));
        assert!(valid(b"if a:\n    pass\nelif b:\n    pass\nelse:\n    pass\n"));
        assert!(valid(b"while True:\n    break\n"));
        assert!(valid(b"for i in [1, 2]:\n    continue\n"));
        assert!(valid(b"class C(Base):\n    pass\n"));
        assert!(valid(b"if x: y = 1\n")); // inline suite
        assert!(!valid(b"def f:\n    pass\n"));
        assert!(!valid(b"for i in:\n    pass\n"));
        assert!(!valid(b"else:\n    pass\n"));
    }

    #[test]
    fn expressions() {
        assert!(valid(b"x = a or b and not c\n"));
        assert!(valid(b"y = 1 < 2 <= 3\n"));
        assert!(valid(b"z = a is not b\n"));
        assert!(valid(b"w = a not in s\n"));
        assert!(valid(b"v = -2 ** 3 // 4\n"));
        assert!(valid(b"u = f(1)[0].attr\n"));
        assert!(valid(b"t = lambda a, b: a + b\n"));
        assert!(valid(b"s = (1, 2, 3)\n"));
        assert!(valid(b"r = {1: 'a', 2: 'b'}\n"));
        assert!(valid(b"q = [x, y,]\n"));
        assert!(valid(b"p = 0x1F + 2.5e-3\n"));
        assert!(!valid(b"x = 1 +\n"));
        assert!(!valid(b"y = [1, 2\n"));
        assert!(!valid(b"z = {1: }\n"));
        assert!(!valid(b"w = 'open\n"));
    }

    #[test]
    fn nested_functions() {
        let prog = b"def outer(a):\n    def inner(b):\n        return b * 2\n    return inner(a)\n";
        assert!(valid(prog));
    }

    #[test]
    fn coverage_accounting() {
        let c = Python
            .run(b"def f(a):\n    if a > 0:\n        return [a, {1: 'x'}]\n    return None\n")
            .coverage;
        assert!(c.len() > 25);
        assert!(Python.coverable_lines() >= c.len());
    }
}
