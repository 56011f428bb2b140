//! Instrumented stand-in for an XML parser (the paper's `xml` subject).
//!
//! Accepts well-formed XML documents: optional XML declaration, misc
//! (comments / processing instructions), one root element with properly
//! nested and *name-matched* tags, attributes with quoted values and
//! per-element unique names, self-closing tags, character data with entity
//! references (`&lt; &gt; &amp; &apos; &quot; &#ddd; &#xhh;`), CDATA
//! sections, and comments (no `--` inside). Tag-name matching and attribute
//! uniqueness make the accepted language non-context-free, exactly the
//! situation discussed at the end of Section 8.3.

use crate::cov;
use crate::cov::{count_lines, count_points, Coverage, RunOutcome};
use crate::target::Target;

const SRC: &str = include_str!("xml.rs");
/// Source lines: the `source_lines` figure and the coverage bitmap's size.
const LINES: usize = count_lines(SRC);

/// The XML parser target.
#[derive(Debug, Clone, Copy, Default)]
pub struct Xml;

impl Target for Xml {
    fn name(&self) -> &'static str {
        "xml"
    }

    fn run(&self, input: &[u8]) -> RunOutcome {
        let mut p = Parser { s: input, i: 0, cov: Coverage::with_lines(LINES), depth: 0 };
        let valid = p.document();
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
            &b"<a>hi</a>"[..],
            b"<root a=\"1\"><b/>text<c x='y'>&lt;</c></root>",
            b"<?xml version=\"1.0\"?><!-- doc --><r><![CDATA[raw <>]]></r>",
        ]
        .iter()
        .map(|s| s.to_vec())
        .collect()
    }
}

const MAX_DEPTH: u32 = 200;

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

    fn starts_with(&self, p: &[u8]) -> bool {
        self.s[self.i..].starts_with(p)
    }

    fn eat_str(&mut self, p: &[u8]) -> bool {
        if self.starts_with(p) {
            self.i += p.len();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn document(&mut self) -> bool {
        cov!(self.cov);
        if self.starts_with(b"<?xml") {
            cov!(self.cov);
            if !self.xml_decl() {
                return false;
            }
        }
        if !self.misc_star() {
            return false;
        }
        if !self.element() {
            cov!(self.cov);
            return false;
        }
        if !self.misc_star() {
            return false;
        }
        cov!(self.cov);
        self.i == self.s.len()
    }

    fn xml_decl(&mut self) -> bool {
        cov!(self.cov);
        debug_assert!(self.starts_with(b"<?xml"));
        self.i += 5;
        // Attribute-like version/encoding/standalone pseudo-attributes.
        loop {
            self.skip_ws();
            if self.eat_str(b"?>") {
                cov!(self.cov);
                return true;
            }
            if self.peek().is_none() {
                cov!(self.cov);
                return false;
            }
            if !self.attribute(&mut Vec::new()) {
                cov!(self.cov);
                return false;
            }
        }
    }

    fn misc_star(&mut self) -> bool {
        cov!(self.cov);
        loop {
            self.skip_ws();
            if self.starts_with(b"<!--") {
                cov!(self.cov);
                if !self.comment() {
                    return false;
                }
            } else if self.starts_with(b"<?") {
                cov!(self.cov);
                if !self.processing_instruction() {
                    return false;
                }
            } else {
                return true;
            }
        }
    }

    fn name(&mut self) -> Option<Vec<u8>> {
        cov!(self.cov);
        let start = self.i;
        let first = self.peek()?;
        if !(first.is_ascii_alphabetic() || first == b'_' || first == b':') {
            cov!(self.cov);
            return None;
        }
        self.i += 1;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.'))
        {
            self.i += 1;
        }
        Some(self.s[start..self.i].to_vec())
    }

    fn element(&mut self) -> bool {
        cov!(self.cov);
        if self.depth >= MAX_DEPTH {
            cov!(self.cov);
            return false;
        }
        if !self.eat(b'<') {
            cov!(self.cov);
            return false;
        }
        let Some(open_name) = self.name() else {
            cov!(self.cov);
            return false;
        };
        let mut seen_attrs: Vec<Vec<u8>> = Vec::new();
        loop {
            let before = self.i;
            self.skip_ws();
            if self.eat_str(b"/>") {
                cov!(self.cov);
                return true;
            }
            if self.eat(b'>') {
                cov!(self.cov);
                break;
            }
            // Attributes require at least one whitespace separator.
            if self.i == before {
                cov!(self.cov);
                return false;
            }
            if self.eat_str(b"/>") {
                cov!(self.cov);
                return true;
            }
            if self.eat(b'>') {
                cov!(self.cov);
                break;
            }
            if !self.attribute(&mut seen_attrs) {
                cov!(self.cov);
                return false;
            }
        }
        self.depth += 1;
        if !self.content() {
            return false;
        }
        self.depth -= 1;
        // Closing tag, name must match.
        if !self.eat_str(b"</") {
            cov!(self.cov);
            return false;
        }
        let Some(close_name) = self.name() else {
            cov!(self.cov);
            return false;
        };
        if close_name != open_name {
            cov!(self.cov);
            return false;
        }
        self.skip_ws();
        cov!(self.cov);
        self.eat(b'>')
    }

    fn attribute(&mut self, seen: &mut Vec<Vec<u8>>) -> bool {
        cov!(self.cov);
        let Some(name) = self.name() else {
            cov!(self.cov);
            return false;
        };
        // XML well-formedness: attribute names unique per element.
        if seen.contains(&name) {
            cov!(self.cov);
            return false;
        }
        seen.push(name);
        self.skip_ws();
        if !self.eat(b'=') {
            cov!(self.cov);
            return false;
        }
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                cov!(self.cov);
                self.i += 1;
                q
            }
            _ => {
                cov!(self.cov);
                return false;
            }
        };
        loop {
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return false;
                }
                Some(b) if b == quote => {
                    cov!(self.cov);
                    self.i += 1;
                    return true;
                }
                Some(b'<') => {
                    cov!(self.cov);
                    return false;
                }
                Some(b'&') => {
                    cov!(self.cov);
                    if !self.entity_ref() {
                        return false;
                    }
                }
                Some(_) => self.i += 1,
            }
        }
    }

    fn content(&mut self) -> bool {
        cov!(self.cov);
        loop {
            match self.peek() {
                None => {
                    cov!(self.cov);
                    return false; // missing close tag
                }
                Some(b'<') => {
                    if self.starts_with(b"</") {
                        cov!(self.cov);
                        return true;
                    } else if self.starts_with(b"<!--") {
                        cov!(self.cov);
                        if !self.comment() {
                            return false;
                        }
                    } else if self.starts_with(b"<![CDATA[") {
                        cov!(self.cov);
                        if !self.cdata() {
                            return false;
                        }
                    } else if self.starts_with(b"<?") {
                        cov!(self.cov);
                        if !self.processing_instruction() {
                            return false;
                        }
                    } else {
                        cov!(self.cov);
                        if !self.element() {
                            return false;
                        }
                    }
                }
                Some(b'&') => {
                    cov!(self.cov);
                    if !self.entity_ref() {
                        return false;
                    }
                }
                Some(b'>') => {
                    // Bare > is tolerated in character data by real parsers.
                    cov!(self.cov);
                    self.i += 1;
                }
                Some(_) => {
                    self.i += 1;
                }
            }
        }
    }

    fn entity_ref(&mut self) -> bool {
        cov!(self.cov);
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.i += 1;
        if self.eat(b'#') {
            cov!(self.cov);
            if self.eat(b'x') {
                cov!(self.cov);
                let start = self.i;
                while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                    self.i += 1;
                }
                if self.i == start {
                    return false;
                }
            } else {
                let start = self.i;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.i += 1;
                }
                if self.i == start {
                    cov!(self.cov);
                    return false;
                }
            }
            return self.eat(b';');
        }
        // Named entities.
        for name in [&b"lt;"[..], b"gt;", b"amp;", b"apos;", b"quot;"] {
            if self.eat_str(name) {
                cov!(self.cov);
                return true;
            }
        }
        cov!(self.cov);
        false
    }

    fn comment(&mut self) -> bool {
        cov!(self.cov);
        debug_assert!(self.starts_with(b"<!--"));
        self.i += 4;
        loop {
            if self.eat_str(b"-->") {
                cov!(self.cov);
                return true;
            }
            if self.starts_with(b"--") {
                cov!(self.cov);
                return false; // "--" forbidden inside comments
            }
            if self.peek().is_none() {
                cov!(self.cov);
                return false;
            }
            self.i += 1;
        }
    }

    fn cdata(&mut self) -> bool {
        cov!(self.cov);
        debug_assert!(self.starts_with(b"<![CDATA["));
        self.i += 9;
        loop {
            if self.eat_str(b"]]>") {
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

    fn processing_instruction(&mut self) -> bool {
        cov!(self.cov);
        debug_assert!(self.starts_with(b"<?"));
        self.i += 2;
        if self.name().is_none() {
            cov!(self.cov);
            return false;
        }
        loop {
            if self.eat_str(b"?>") {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &[u8]) -> bool {
        Xml.run(s).valid
    }

    #[test]
    fn seeds_are_valid() {
        for s in Xml.seeds() {
            assert!(valid(&s), "seed {:?}", String::from_utf8_lossy(&s));
        }
    }

    #[test]
    fn basic_elements() {
        assert!(valid(b"<a></a>"));
        assert!(valid(b"<a>text</a>"));
        assert!(valid(b"<a><b></b></a>"));
        assert!(valid(b"<a/>"));
        assert!(valid(b"<a:b-c.d_e/>"));
        assert!(!valid(b""));
        assert!(!valid(b"text only"));
        assert!(!valid(b"<a>"));
        assert!(!valid(b"</a>"));
    }

    #[test]
    fn tag_names_must_match() {
        assert!(valid(b"<a><a></a></a>"));
        assert!(!valid(b"<a></b>"));
        assert!(!valid(b"<a><b></a></b>"));
    }

    #[test]
    fn attributes() {
        assert!(valid(b"<a x=\"1\"></a>"));
        assert!(valid(b"<a x='1' y=\"2\"/>"));
        assert!(valid(b"<a x=\"a &lt; b\"/>"));
        // Duplicate attribute names are rejected (Section 8.3's example).
        assert!(!valid(b"<a a=\"\" a=\"\"></a>"));
        assert!(!valid(b"<a x=1/>"));
        assert!(!valid(b"<a x=\"1/>"));
        assert!(!valid(b"<a x=\"<\"/>"));
        assert!(!valid(b"<ax=\"1\"/>")); // missing space: parsed as name
    }

    #[test]
    fn entities() {
        assert!(valid(b"<a>&lt;&gt;&amp;&apos;&quot;</a>"));
        assert!(valid(b"<a>&#60;&#x3C;</a>"));
        assert!(!valid(b"<a>&unknown;</a>"));
        assert!(!valid(b"<a>&#;</a>"));
        assert!(!valid(b"<a>&#x;</a>"));
        assert!(!valid(b"<a>& </a>"));
    }

    #[test]
    fn comments_and_cdata() {
        assert!(valid(b"<a><!-- ok --></a>"));
        assert!(valid(b"<!-- before --><a/>"));
        assert!(valid(b"<a><![CDATA[<raw>&]]></a>"));
        assert!(!valid(b"<a><!-- double -- dash --></a>"));
        assert!(!valid(b"<a><!-- unterminated</a>"));
        assert!(!valid(b"<a><![CDATA[open</a>"));
    }

    #[test]
    fn processing_instructions_and_decl() {
        assert!(valid(b"<?xml version=\"1.0\"?><a/>"));
        assert!(valid(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>"));
        assert!(valid(b"<a><?php echo ?></a>"));
        assert!(!valid(b"<?xml version=\"1.0\"?>"));
        assert!(!valid(b"<??></a>"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(!valid(b"<a/>junk"));
        assert!(!valid(b"<a/><b/>"));
        assert!(valid(b"<a/> <!-- trailing comment ok -->"));
    }

    #[test]
    fn depth_limit_guards_recursion() {
        let deep_open: Vec<u8> = b"<a>".repeat(300);
        let deep_close: Vec<u8> = b"</a>".repeat(300);
        let mut doc = deep_open;
        doc.extend_from_slice(&deep_close);
        assert!(!valid(&doc));
        let ok: Vec<u8> = [b"<a>".repeat(50), b"</a>".repeat(50)].concat();
        assert!(valid(&ok));
    }

    #[test]
    fn coverage_accounting() {
        let c = Xml.run(b"<?xml version=\"1.0\"?><a x='1'><!--c--><b/>&lt;</a>").coverage;
        assert!(c.len() > 15);
        assert!(Xml.coverable_lines() >= c.len());
    }
}
