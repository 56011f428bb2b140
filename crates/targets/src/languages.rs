//! The four handwritten target-language grammars of Section 8.2 (URL, Grep,
//! Lisp, XML), plus the paper's XML-like running example (Figure 1).
//!
//! In the language-inference experiment the target language `L*` is defined
//! by a handwritten grammar; seed inputs are sampled from it (Section 8.1)
//! and the membership oracle is grammar membership. The grammars below
//! mirror the paper's four subjects: a URL regular expression, GNU grep's
//! basic-regular-expression input syntax, a small Lisp with strings, and an
//! XML fragment with attributes/comments/CDATA over a fixed tag set (fixed
//! so the language stays context-free).

use glade_core::Oracle;
use glade_grammar::cfg::{cls, lit, nt, GrammarBuilder};
use glade_grammar::{CharClass, Grammar, Recognizer};

/// A named target language backed by a handwritten grammar.
#[derive(Debug, Clone)]
pub struct Language {
    name: &'static str,
    grammar: Grammar,
}

impl Language {
    /// Short name ("url", "grep", "lisp", "xml", "toy-xml").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The defining grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// A membership oracle for the language (Earley recognition).
    pub fn oracle(&self) -> GrammarOracle {
        GrammarOracle::new(self.grammar.clone())
    }
}

/// Membership oracle backed by a [`Grammar`].
///
/// The grammar is compiled into a [`Recognizer`] once, here. A single
/// query runs one Earley chart on the calling thread's scratch. The oracle
/// batches natively ([`Oracle::native_batching`] is `true`): the query
/// engine hands it whole miss sets, which [`Recognizer::accepts_batch`]
/// answers on one chart, so a query that shares a prefix with the one
/// before it, or differs from a sibling in one byte that scans the same
/// items, costs far less than a chart of its own. Verdicts are exactly the
/// per-query ones; only the time to reach them changes.
#[derive(Debug, Clone)]
pub struct GrammarOracle {
    grammar: Grammar,
    recognizer: Recognizer,
}

impl GrammarOracle {
    /// Creates an oracle for `grammar`.
    pub fn new(grammar: Grammar) -> Self {
        GrammarOracle { recognizer: Recognizer::new(&grammar), grammar }
    }

    /// The underlying grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }
}

impl Oracle for GrammarOracle {
    fn accepts(&self, input: &[u8]) -> bool {
        self.recognizer.accepts(input)
    }

    fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
        self.recognizer.accepts_batch(inputs).into_iter().map(Some).collect()
    }

    fn native_batching(&self) -> bool {
        true
    }
}

fn lower() -> CharClass {
    CharClass::range(b'a', b'z')
}

fn digit() -> CharClass {
    CharClass::range(b'0', b'9')
}

/// The URL language, matching the paper's Figure 5 target semantics:
/// `http(+s)://(+www.)[...]*.[...]*` extended with paths and query pairs.
/// As in the paper's simplified target, the host parts are Kleene-starred
/// (possibly empty) around the mandatory dot.
pub fn url() -> Language {
    let mut b = GrammarBuilder::new();
    let a = b.nt("Url");
    let scheme = b.nt("Scheme");
    let host = b.nt("Host");
    let part = b.nt("HostPart");
    let part_more = b.nt("HostPartMore");
    let path = b.nt("Path");
    let seg = b.nt("Segment");
    let segchars = b.nt("SegChars");
    let query = b.nt("Query");
    let pairs = b.nt("Pairs");
    let pair = b.nt("Pair");
    let word = b.nt("Word");

    b.prod(scheme, lit(b"http"));
    b.prod(scheme, lit(b"https"));
    b.prod(scheme, lit(b"ftp"));

    // Url → scheme "://" ("www.")? host path query?
    b.prod(a, [nt(scheme), lit(b"://"), nt(host), nt(path), nt(query)].concat());
    b.prod(a, [nt(scheme), lit(b"://www."), nt(host), nt(path), nt(query)].concat());

    // host → [...]* "." [...]* ("." [...]*)*   (Figure 5: parts may be ε)
    b.prod(host, [nt(part), lit(b"."), nt(part), nt(part_more)].concat());
    b.prod(part_more, vec![]);
    b.prod(part_more, [lit(b"."), nt(part), nt(part_more)].concat());

    let hostchar = lower().union(&digit()).union(&CharClass::single(b'-'));
    b.prod(part, vec![]);
    b.prod(part, [cls(hostchar), nt(part)].concat());

    // path → ("/" segment)*
    b.prod(path, vec![]);
    b.prod(path, [lit(b"/"), nt(seg), nt(path)].concat());
    b.prod(seg, vec![]);
    b.prod(seg, [nt(segchars)].concat());
    b.prod(segchars, cls(lower().union(&digit()).union(&CharClass::from_bytes(b"._-"))));
    b.prod(
        segchars,
        [cls(lower().union(&digit()).union(&CharClass::from_bytes(b"._-"))), nt(segchars)].concat(),
    );

    // query → ("?" pair ("&" pair)*)?  with possibly-empty words, in the
    // same starred spirit as the Figure 5 target.
    b.prod(query, vec![]);
    b.prod(query, [lit(b"?"), nt(pair), nt(pairs)].concat());
    b.prod(pairs, vec![]);
    b.prod(pairs, [lit(b"&"), nt(pair), nt(pairs)].concat());
    b.prod(pair, [nt(word), lit(b"="), nt(word)].concat());
    b.prod(word, vec![]);
    b.prod(word, [cls(lower().union(&digit())), nt(word)].concat());

    Language { name: "url", grammar: b.build(a).expect("url grammar is valid") }
}

/// The Grep language: GNU grep's basic-regular-expression pattern syntax
/// (literals, `.`, classes, `\( \)` groups, `\|` alternation, `*`,
/// `\{m,n\}` bounds, anchors).
pub fn grep() -> Language {
    let mut b = GrammarBuilder::new();
    let pattern = b.nt("Pattern");
    let branch = b.nt("Branch");
    let piece = b.nt("Piece");
    let atom = b.nt("Atom");
    let class = b.nt("Class");
    let items = b.nt("ClassItems");
    let item = b.nt("ClassItem");
    let digits = b.nt("Digits");

    let ordinary = CharClass::from_bytes(b"abcdefghijklmnopqrstuvwxyz0123456789 ,;:=@_-");
    let classch = CharClass::from_bytes(b"abcdefghijklmnopqrstuvwxyz0123456789");

    // pattern → branch (\| branch)*
    b.prod(pattern, nt(branch));
    b.prod(pattern, [nt(branch), lit(b"\\|"), nt(pattern)].concat());
    // branch → piece*  (allow empty)
    b.prod(branch, vec![]);
    b.prod(branch, [nt(piece), nt(branch)].concat());
    // piece → atom ('*' | \{m,n\})?
    b.prod(piece, nt(atom));
    b.prod(piece, [nt(atom), lit(b"*")].concat());
    b.prod(piece, [nt(atom), lit(b"\\{"), nt(digits), lit(b"\\}")].concat());
    b.prod(piece, [nt(atom), lit(b"\\{"), nt(digits), lit(b","), nt(digits), lit(b"\\}")].concat());
    // atom
    b.prod(atom, cls(ordinary));
    b.prod(atom, lit(b"."));
    b.prod(atom, lit(b"^"));
    b.prod(atom, lit(b"$"));
    b.prod(atom, [lit(b"\\("), nt(pattern), lit(b"\\)")].concat());
    b.prod(atom, nt(class));
    b.prod(atom, [lit(b"\\"), cls(CharClass::from_bytes(b".*[]\\^$"))].concat());
    // class → '[' '^'? item+ ']'
    b.prod(class, [lit(b"["), nt(item), nt(items)].concat());
    b.prod(class, [lit(b"[^"), nt(item), nt(items)].concat());
    b.prod(items, lit(b"]"));
    b.prod(items, [nt(item), nt(items)].concat());
    b.prod(item, cls(classch));
    b.prod(item, [cls(classch), lit(b"-"), cls(classch)].concat());
    // digits: 1-2 digits keeps bounds small.
    b.prod(digits, cls(digit()));
    b.prod(digits, [cls(digit()), cls(digit())].concat());

    Language { name: "grep", grammar: b.build(pattern).expect("grep grammar is valid") }
}

/// The Lisp language: s-expressions with atoms, quoted forms, strings, and
/// space-separated lists (after Norvig's `lispy`).
pub fn lisp() -> Language {
    let mut b = GrammarBuilder::new();
    let sexp = b.nt("SExp");
    let list = b.nt("List");
    let inner = b.nt("ListInner");
    let more = b.nt("ListMore");
    let atom = b.nt("Atom");
    let atomch = b.nt("AtomChars");
    let string = b.nt("String");
    let strch = b.nt("StringChars");
    let ws = b.nt("Ws");

    let symch = CharClass::from_bytes(b"abcdefghijklmnopqrstuvwxyz0123456789+-*/<>=!?_");
    let strbody = CharClass::printable_ascii()
        .intersect(&CharClass::single(b'"').complement())
        .intersect(&CharClass::single(b'\\').complement());

    b.prod(sexp, nt(atom));
    b.prod(sexp, nt(string));
    b.prod(sexp, nt(list));
    b.prod(sexp, [lit(b"'"), nt(sexp)].concat());

    b.prod(list, [lit(b"("), nt(inner), lit(b")")].concat());
    b.prod(inner, vec![]);
    b.prod(inner, [nt(sexp), nt(more)].concat());
    b.prod(more, vec![]);
    b.prod(more, [nt(ws), nt(sexp), nt(more)].concat());

    b.prod(ws, lit(b" "));
    b.prod(ws, [lit(b" "), nt(ws)].concat());

    b.prod(atom, [cls(symch), nt(atomch)].concat());
    b.prod(atomch, vec![]);
    b.prod(atomch, [cls(symch), nt(atomch)].concat());

    b.prod(string, [lit(b"\""), nt(strch), lit(b"\"")].concat());
    b.prod(strch, vec![]);
    b.prod(strch, [cls(strbody), nt(strch)].concat());

    Language { name: "lisp", grammar: b.build(sexp).expect("lisp grammar is valid") }
}

/// The XML language: elements over the fixed tag set `{a, b}` (fixed tags
/// keep the language context-free, as in the paper), with attributes,
/// self-closing tags, text, comments, and CDATA sections.
pub fn xml() -> Language {
    let mut b = GrammarBuilder::new();
    let doc = b.nt("Doc");
    let elem = b.nt("Elem");
    let attrs = b.nt("Attrs");
    let attr = b.nt("Attr");
    let name = b.nt("Name");
    let value = b.nt("Value");
    let content = b.nt("Content");
    let text = b.nt("TextChar");
    let comment = b.nt("Comment");
    let ctext = b.nt("CommentText");
    let cdata = b.nt("CData");
    let dtext = b.nt("CDataText");

    let textch = CharClass::from_bytes(b"abcdefghijklmnopqrstuvwxyz0123456789 .,;:!?_-");
    let namech = lower();
    let valch = CharClass::from_bytes(b"abcdefghijklmnopqrstuvwxyz0123456789 _-");

    b.prod(doc, nt(elem));

    for tag in [&b"a"[..], b"b"] {
        // <tag attrs>content</tag>
        b.prod(
            elem,
            [
                lit(b"<"),
                lit(tag),
                nt(attrs),
                lit(b">"),
                nt(content),
                lit(b"</"),
                lit(tag),
                lit(b">"),
            ]
            .concat(),
        );
        // <tag attrs/>
        b.prod(elem, [lit(b"<"), lit(tag), nt(attrs), lit(b"/>")].concat());
    }

    b.prod(attrs, vec![]);
    b.prod(attrs, [lit(b" "), nt(attr), nt(attrs)].concat());
    b.prod(attr, [nt(name), lit(b"=\""), nt(value), lit(b"\"")].concat());
    b.prod(name, cls(namech));
    b.prod(name, [cls(namech), nt(name)].concat());
    b.prod(value, vec![]);
    b.prod(value, [cls(valch), nt(value)].concat());

    b.prod(content, vec![]);
    b.prod(content, [nt(elem), nt(content)].concat());
    b.prod(content, [nt(text), nt(content)].concat());
    b.prod(content, [nt(comment), nt(content)].concat());
    b.prod(content, [nt(cdata), nt(content)].concat());
    b.prod(text, cls(textch));

    b.prod(comment, [lit(b"<!--"), nt(ctext), lit(b"-->")].concat());
    b.prod(ctext, vec![]);
    b.prod(ctext, [cls(textch), nt(ctext)].concat());

    b.prod(cdata, [lit(b"<![CDATA["), nt(dtext), lit(b"]]>")].concat());
    b.prod(dtext, vec![]);
    b.prod(dtext, [cls(textch.union(&CharClass::from_bytes(b"<>&"))), nt(dtext)].concat());

    Language { name: "xml", grammar: b.build(doc).expect("xml grammar is valid") }
}

/// The paper's running-example language `C_XML` (Figure 1):
/// `A → (a..z | <a>A</a>)*`.
pub fn toy_xml() -> Language {
    let mut b = GrammarBuilder::new();
    let a = b.nt("A");
    let item = b.nt("Item");
    b.prod(a, vec![]);
    b.prod(a, [nt(a), nt(item)].concat());
    b.prod(item, cls(lower()));
    b.prod(item, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
    Language { name: "toy-xml", grammar: b.build(a).expect("toy grammar is valid") }
}

/// The four Section 8.2 target languages, in the paper's order.
pub fn section82_languages() -> Vec<Language> {
    vec![url(), grep(), lisp(), xml()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use glade_grammar::Sampler;
    use rand::SeedableRng;

    fn accepts(l: &Language, s: &[u8]) -> bool {
        l.oracle().accepts(s)
    }

    #[test]
    fn url_membership() {
        let l = url();
        assert!(accepts(&l, b"http://foo.com"));
        assert!(accepts(&l, b"https://www.a-b.example.org/path/to?x=1&y=2"));
        assert!(accepts(&l, b"ftp://files.net/"));
        // Figure 5 semantics: starred host parts may be empty.
        assert!(accepts(&l, b"http://."));
        assert!(accepts(&l, b"http://a.b?=x"));
        assert!(!accepts(&l, b"http://"));
        assert!(!accepts(&l, b"foo.com"));
        assert!(!accepts(&l, b"http://nodot"));
        assert!(!accepts(&l, b"http:/a.b"));
    }

    #[test]
    fn grep_membership() {
        let l = grep();
        assert!(accepts(&l, b"abc"));
        assert!(accepts(&l, b"a*b"));
        assert!(accepts(&l, b"^x$"));
        assert!(accepts(&l, b"\\(ab\\|cd\\)*"));
        assert!(accepts(&l, b"[a-z0-9]*x"));
        assert!(accepts(&l, b"a\\{2,3\\}"));
        assert!(accepts(&l, b"\\."));
        assert!(!accepts(&l, b"\\(ab"));
        assert!(!accepts(&l, b"[abc"));
        assert!(!accepts(&l, b"a\\{,3\\}"));
    }

    #[test]
    fn lisp_membership() {
        let l = lisp();
        assert!(accepts(&l, b"atom"));
        assert!(accepts(&l, b"()"));
        assert!(accepts(&l, b"(+ 1 2)"));
        assert!(accepts(&l, b"(define (sq x) (* x x))"));
        assert!(accepts(&l, b"'(quoted list)"));
        assert!(accepts(&l, b"\"a string\""));
        assert!(!accepts(&l, b"(unclosed"));
        assert!(!accepts(&l, b")("));
        assert!(!accepts(&l, b"( leading space)")); // space before first element
    }

    #[test]
    fn xml_membership() {
        let l = xml();
        assert!(accepts(&l, b"<a></a>"));
        assert!(accepts(&l, b"<a x=\"1\"><b>text</b></a>"));
        assert!(accepts(&l, b"<b/>"));
        assert!(accepts(&l, b"<a><!--note--><![CDATA[<&>]]></a>"));
        assert!(!accepts(&l, b"<a></b>"));
        assert!(!accepts(&l, b"<c></c>")); // only tags a and b exist
        assert!(!accepts(&l, b"<a>"));
    }

    #[test]
    fn toy_xml_matches_running_example() {
        let l = toy_xml();
        assert!(accepts(&l, b""));
        assert!(accepts(&l, b"<a>hi</a>"));
        assert!(accepts(&l, b"hi<a><a>x</a></a>"));
        assert!(!accepts(&l, b"<a>"));
        assert!(!accepts(&l, b"HI"));
    }

    #[test]
    fn all_grammars_are_productive_and_sampleable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for l in section82_languages().iter().chain([toy_xml()].iter()) {
            assert!(l.grammar().is_productive(), "{} not productive", l.name());
            let sampler = Sampler::new(l.grammar());
            for _ in 0..50 {
                let s = sampler.sample(&mut rng).expect("productive");
                assert!(
                    accepts(l, &s),
                    "{}: sample {:?} rejected by own grammar",
                    l.name(),
                    String::from_utf8_lossy(&s)
                );
            }
        }
    }
}
