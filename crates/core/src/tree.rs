//! The internal representation of GLADE's current language.
//!
//! Phase one (Section 4) maintains an annotated regular expression; we
//! represent it as a tree mirroring the meta-grammar `C_regex`:
//!
//! ```text
//! Node ::= Const(byte-classes, contexts)                 Trep ::= β
//!        | Rep { pre, star: (inner, ctx, original), rest }
//!                                                        Trep ::= β T_alt* T_rep
//!        | Alt { left, right }                           Talt ::= Trep + Talt
//! ```
//!
//! Every `Const` carries the contexts `(γ, δ)` needed for character
//! generalization (Section 6.2); every star carries the context and
//! representative substring needed to build phase-two merge checks
//! (Section 5.3). The tree converts losslessly to a [`Regex`] (the phase-one
//! result) and — given a star equivalence relation from phase two — to a
//! [`Grammar`].

use glade_grammar::cfg::{GrammarBuilder, NtId, Sym};
use glade_grammar::{CharClass, Grammar, Regex};

/// A check context `(γ, δ)`: strings wrapped around a residual to form a
/// complete membership query (Section 4.3, property (1)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Context {
    pub before: Vec<u8>,
    pub after: Vec<u8>,
}

impl Context {
    /// The root context `(ε, ε)` of the seed input.
    pub fn root() -> Self {
        Context { before: Vec::new(), after: Vec::new() }
    }

    /// Derives `(γ·x, y·δ)`.
    pub fn narrowed(&self, x: &[u8], y: &[u8]) -> Context {
        let mut before = self.before.clone();
        before.extend_from_slice(x);
        let mut after = Vec::with_capacity(y.len() + self.after.len());
        after.extend_from_slice(y);
        after.extend_from_slice(&self.after);
        Context { before, after }
    }
}

/// A terminal run: one byte class per original byte position.
#[derive(Debug, Clone)]
pub(crate) struct ConstNode {
    /// Post-character-generalization classes (singletons before that phase).
    pub classes: Vec<CharClass>,
    /// The original bytes from the seed input.
    pub original: Vec<u8>,
    /// Contexts for character-generalization checks; a candidate byte must
    /// pass the check in every context.
    pub contexts: Vec<Context>,
}

impl ConstNode {
    pub fn new(original: &[u8], contexts: Vec<Context>) -> Self {
        ConstNode {
            classes: original.iter().map(|&b| CharClass::single(b)).collect(),
            original: original.to_vec(),
            contexts,
        }
    }
}

/// A starred subexpression `( inner )*` created by a repetition
/// generalization step, with the metadata phase two needs.
#[derive(Debug, Clone)]
pub(crate) struct StarNode {
    /// Stable id used as the merge-pair key in phase two.
    pub id: usize,
    /// Generalization of the repeated substring `α2`.
    pub inner: Node,
    /// Context `(γ·α1, α3·δ)` of the starred subexpression.
    pub ctx: Context,
    /// The original substring `α2`; its doubling `α2 α2` is the phase-two
    /// residual (Section 5.3).
    pub original: Vec<u8>,
}

impl StarNode {
    /// The residual as borrowed segments (`[α2, α2]`), for building merge
    /// checks without materializing the doubled string.
    pub fn residual_parts(&self) -> [&[u8]; 2] {
        [&self.original, &self.original]
    }
}

/// A repetition generalization `α1 (inner)* rest`.
#[derive(Debug, Clone)]
pub(crate) struct RepNode {
    /// The literal prefix `α1` (possibly empty), character-generalizable.
    pub pre: ConstNode,
    pub star: StarNode,
    /// Generalization of `α3`.
    pub rest: Node,
}

/// An alternation generalization `left + right`.
#[derive(Debug, Clone)]
pub(crate) struct AltNode {
    pub left: Node,
    pub right: Node,
}

/// One node of the annotated-language tree.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Const(ConstNode),
    Rep(Box<RepNode>),
    Alt(Box<AltNode>),
}

impl Node {
    /// Converts to the equivalent regular expression (the phase-one view).
    pub fn to_regex(&self) -> Regex {
        match self {
            Node::Const(c) => {
                Regex::concat(c.classes.iter().map(|cls| Regex::class(*cls)).collect())
            }
            Node::Rep(r) => Regex::concat(vec![
                Regex::concat(r.pre.classes.iter().map(|cls| Regex::class(*cls)).collect()),
                Regex::star(r.star.inner.to_regex()),
                r.rest.to_regex(),
            ]),
            Node::Alt(a) => Regex::alt(vec![a.left.to_regex(), a.right.to_regex()]),
        }
    }

    /// Visits every `ConstNode` immutably, in the same order as
    /// [`Node::visit_consts_mut`] — character generalization plans its
    /// probes with this visit and applies the verdicts with the mutable
    /// one, pairing consts by ordinal.
    pub fn visit_consts<'a>(&'a self, f: &mut impl FnMut(&'a ConstNode)) {
        match self {
            Node::Const(c) => f(c),
            Node::Rep(r) => {
                f(&r.pre);
                r.star.inner.visit_consts(f);
                r.rest.visit_consts(f);
            }
            Node::Alt(a) => {
                a.left.visit_consts(f);
                a.right.visit_consts(f);
            }
        }
    }

    /// Visits every `ConstNode` mutably (including `Rep` prefixes).
    pub fn visit_consts_mut(&mut self, f: &mut impl FnMut(&mut ConstNode)) {
        match self {
            Node::Const(c) => f(c),
            Node::Rep(r) => {
                f(&mut r.pre);
                r.star.inner.visit_consts_mut(f);
                r.rest.visit_consts_mut(f);
            }
            Node::Alt(a) => {
                a.left.visit_consts_mut(f);
                a.right.visit_consts_mut(f);
            }
        }
    }

    /// Collects references to every star node, in id order of discovery.
    pub fn collect_stars<'a>(&'a self, out: &mut Vec<&'a StarNode>) {
        match self {
            Node::Const(_) => {}
            Node::Rep(r) => {
                out.push(&r.star);
                r.star.inner.collect_stars(out);
                r.rest.collect_stars(out);
            }
            Node::Alt(a) => {
                a.left.collect_stars(out);
                a.right.collect_stars(out);
            }
        }
    }

    /// Number of nodes (a size measure for statistics).
    pub fn size(&self) -> usize {
        match self {
            Node::Const(_) => 1,
            Node::Rep(r) => 2 + r.star.inner.size() + r.rest.size(),
            Node::Alt(a) => 1 + a.left.size() + a.right.size(),
        }
    }
}

/// Simple union-find used for phase-two star merging.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }

    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    pub fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        let (keep, drop) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[drop] = keep;
    }
}

/// Builds the final context-free grammar from the per-seed trees and the
/// star equivalence relation computed by phase two (Section 5.1–5.2).
///
/// Each star class `c` becomes a nonterminal with the left-recursive
/// expansion `S_c → ε | S_c Body_i` for every class member `i`; equating
/// nonterminals is thus realized by pooling the member bodies, exactly as in
/// the paper's "replace all occurrences of A'_i and A'_j with A".
pub(crate) fn trees_to_grammar(trees: &[Node], merges: &mut UnionFind) -> Grammar {
    let mut b = GrammarBuilder::new();
    let start = b.nt("S");

    // Pass 1: one nonterminal per star class.
    let mut stars: Vec<&StarNode> = Vec::new();
    for t in trees {
        t.collect_stars(&mut stars);
    }
    let mut class_nt: std::collections::HashMap<usize, NtId> = std::collections::HashMap::new();
    for s in &stars {
        let class = merges.find(s.id);
        class_nt.entry(class).or_insert_with(|| b.nt(&format!("R{class}")));
    }

    // Pass 2: productions.
    fn syms(
        node: &Node,
        b: &mut GrammarBuilder,
        merges: &mut UnionFind,
        class_nt: &std::collections::HashMap<usize, NtId>,
        alt_counter: &mut usize,
    ) -> Vec<Sym> {
        match node {
            Node::Const(c) => c.classes.iter().map(|cls| Sym::Class(*cls)).collect(),
            Node::Rep(r) => {
                let mut out: Vec<Sym> = r.pre.classes.iter().map(|cls| Sym::Class(*cls)).collect();
                let class = merges.find(r.star.id);
                out.push(Sym::Nt(class_nt[&class]));
                out.extend(syms(&r.rest, b, merges, class_nt, alt_counter));
                out
            }
            Node::Alt(_) => {
                // Collect the right-spine branches into one nonterminal.
                let mut branches: Vec<&Node> = Vec::new();
                let mut cur = node;
                while let Node::Alt(a) = cur {
                    branches.push(&a.left);
                    cur = &a.right;
                }
                branches.push(cur);
                *alt_counter += 1;
                let nt = b.nt(&format!("A{alt_counter}"));
                let mut bodies: Vec<Vec<Sym>> =
                    branches.iter().map(|br| syms(br, b, merges, class_nt, alt_counter)).collect();
                // Character generalization can widen distinct branches to
                // identical byte classes; dedup to keep sampling uniform.
                let mut kept = Vec::new();
                bodies.retain(|body| {
                    let fresh = !kept.contains(body);
                    if fresh {
                        kept.push(body.clone());
                    }
                    fresh
                });
                for body in bodies {
                    b.prod(nt, body);
                }
                vec![Sym::Nt(nt)]
            }
        }
    }

    let mut alt_counter = 0usize;

    // Star-class productions. Each class nonterminal keeps the paper's
    // two-production star shape `S → ε | S Body` (Section 5.1's A'_i
    // expansion), with the pooled member bodies behind a single body
    // nonterminal when the class has several members. This matters for
    // sampling (Section 8.1): a uniform production choice then continues a
    // repetition with probability 1/2 regardless of how many merges landed
    // in the class. Identical bodies (e.g. two alternation branches that
    // character generalization widened to the same classes) are deduped.
    let mut class_bodies: std::collections::HashMap<NtId, Vec<Vec<Sym>>> =
        std::collections::HashMap::new();
    for s in &stars {
        let class = merges.find(s.id);
        let nt = class_nt[&class];
        let body = syms(&s.inner, &mut b, &mut *merges, &class_nt, &mut alt_counter);
        let bodies = class_bodies.entry(nt).or_default();
        if !bodies.contains(&body) {
            bodies.push(body);
        }
    }
    // Emit classes in nonterminal order: HashMap iteration order is
    // per-instance random, and it would otherwise decide which class gets
    // its `B` body nonterminal allocated first — making the grammar's
    // byte serialization differ between identical runs.
    let mut class_list: Vec<(NtId, Vec<Vec<Sym>>)> = class_bodies.into_iter().collect();
    class_list.sort_by_key(|&(nt, _)| nt.index());
    for (nt, mut bodies) in class_list {
        b.prod(nt, vec![]); // ε
        if bodies.len() == 1 {
            let mut rhs = vec![Sym::Nt(nt)];
            rhs.extend(bodies.pop().expect("len 1"));
            b.prod(nt, rhs);
        } else {
            let body_nt = b.nt(&format!("B{}", nt.index()));
            b.prod(nt, vec![Sym::Nt(nt), Sym::Nt(body_nt)]);
            for body in bodies.drain(..) {
                b.prod(body_nt, body);
            }
        }
    }
    // A class may end up with no members only if `stars` was empty for it;
    // class_nt entries always originate from stars, so every class got its
    // ε production above.

    // Start productions: one per seed tree. Distinct seeds can collapse to
    // the same production once their stars merge into shared classes;
    // dedup those too.
    let mut start_bodies: Vec<Vec<Sym>> = Vec::new();
    for t in trees {
        let body = syms(t, &mut b, merges, &class_nt, &mut alt_counter);
        if !start_bodies.contains(&body) {
            start_bodies.push(body);
        }
    }
    for body in start_bodies {
        b.prod(start, body);
    }

    b.build(start).expect("internally constructed grammar is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CheckSpec;
    use glade_grammar::Earley;

    fn const_node(s: &[u8]) -> Node {
        Node::Const(ConstNode::new(s, vec![Context::root()]))
    }

    /// Hand-builds the paper's running-example tree:
    /// ( "<a>" (h + i)* "</a>" )*.
    fn running_example_tree() -> Node {
        let hi = Node::Alt(Box::new(AltNode { left: const_node(b"h"), right: const_node(b"i") }));
        let inner_rep = Node::Rep(Box::new(RepNode {
            pre: ConstNode::new(b"<a>", vec![Context::root()]),
            star: StarNode {
                id: 1,
                inner: hi,
                ctx: Context { before: b"<a>".to_vec(), after: b"</a>".to_vec() },
                original: b"hi".to_vec(),
            },
            rest: const_node(b"</a>"),
        }));
        Node::Rep(Box::new(RepNode {
            pre: ConstNode::new(b"", vec![Context::root()]),
            star: StarNode {
                id: 0,
                inner: inner_rep,
                ctx: Context::root(),
                original: b"<a>hi</a>".to_vec(),
            },
            rest: const_node(b""),
        }))
    }

    #[test]
    fn to_regex_matches_expected_language() {
        let t = running_example_tree();
        let r = t.to_regex();
        assert!(r.is_match(b""));
        assert!(r.is_match(b"<a>hi</a>"));
        assert!(r.is_match(b"<a>ih</a><a></a>"));
        assert!(!r.is_match(b"<a><a></a></a>")); // no recursion without merging
    }

    #[test]
    fn grammar_without_merges_equals_regex_language() {
        let t = running_example_tree();
        let mut uf = UnionFind::new(2);
        let g = trees_to_grammar(std::slice::from_ref(&t), &mut uf);
        let e = Earley::new(&g);
        let r = t.to_regex();
        for s in [
            &b""[..],
            b"<a>hi</a>",
            b"<a></a>",
            b"<a>hhii</a><a>i</a>",
            b"<a><a></a></a>",
            b"<a>hi</a",
            b"x",
        ] {
            assert_eq!(e.accepts(s), r.is_match(s), "disagree on {:?}", s);
        }
    }

    #[test]
    fn grammar_with_merges_adds_recursion() {
        let t = running_example_tree();
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        let g = trees_to_grammar(std::slice::from_ref(&t), &mut uf);
        let e = Earley::new(&g);
        // Regular members still accepted.
        assert!(e.accepts(b""));
        assert!(e.accepts(b"<a>hi</a>"));
        // Merging allows nesting (matching-parentheses behavior, Prop 5.1)…
        assert!(e.accepts(b"<a><a>hi</a><a>hi</a></a>"));
        // …and top-level letters (R_hi substituted at the root).
        assert!(e.accepts(b"hihi"));
        // Still no overgeneralization to unbalanced strings.
        assert!(!e.accepts(b"<a>hi"));
    }

    #[test]
    fn star_residual_doubles_original() {
        let t = running_example_tree();
        let mut stars = Vec::new();
        t.collect_stars(&mut stars);
        assert_eq!(stars.len(), 2);
        assert_eq!(stars[0].residual_parts().concat(), b"<a>hi</a><a>hi</a>".to_vec());
        assert_eq!(stars[1].residual_parts().concat(), b"hihi".to_vec());
    }

    #[test]
    fn context_wrap_and_narrow() {
        let ctx = Context { before: b"<a>".to_vec(), after: b"</a>".to_vec() };
        let mut check = Vec::new();
        CheckSpec::wrapped(&ctx, &[b"hi"]).write_into(&mut check);
        assert_eq!(check, b"<a>hi</a>".to_vec());
        let n = ctx.narrowed(b"h", b"x");
        assert_eq!(n.before, b"<a>h".to_vec());
        assert_eq!(n.after, b"x</a>".to_vec());
    }

    #[test]
    fn multiple_trees_alternate_at_start() {
        let t1 = const_node(b"one");
        let t2 = const_node(b"two");
        let mut uf = UnionFind::new(0);
        let g = trees_to_grammar(&[t1, t2], &mut uf);
        let e = Earley::new(&g);
        assert!(e.accepts(b"one"));
        assert!(e.accepts(b"two"));
        assert!(!e.accepts(b"onetwo"));
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(0, 3);
        uf.union(3, 2);
        assert_eq!(uf.find(2), uf.find(0));
        assert_ne!(uf.find(1), uf.find(0));
    }

    #[test]
    fn visit_consts_covers_rep_prefix() {
        let mut t = running_example_tree();
        let mut count = 0;
        t.visit_consts_mut(&mut |_| count += 1);
        // pre "<a>", pre "", rest "</a>", rest "", "h", "i".
        assert_eq!(count, 6);
    }
}
