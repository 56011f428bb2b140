//! The grammar-based fuzzer driven by a synthesized grammar (Section 8.3).
//!
//! "To generate a single random input, our grammar-based fuzzer first
//! uniformly selects a seed input α ∈ E_in and constructs the parse tree
//! for α according to Ĉ. Second, it performs a series of n modifications to
//! α, where n is chosen uniformly between 0 and 50. A single modification
//! … randomly choose\[s\] a node N of the parse tree … and \[replaces the
//! subtree's substring\] with a random sample α' ~ P_{L(C,A)}."
//!
//! Implementation note: each modification replaces a subtree with a freshly
//! sampled derivation. The replacement is kept as an opaque span labelled
//! with its nonterminal; later modifications in the same input may replace
//! it again wholesale but do not descend into its internal structure (the
//! original subtrees remain selectable). This matches the paper's
//! description of node replacement while avoiding a re-parse per
//! modification.

use crate::fuzzer::Fuzzer;
use glade_grammar::{Earley, Grammar, NtId, ParseTree, Sampler};
use rand::rngs::StdRng;
use rand::Rng;

/// A mutable derivation tree: parse-tree nodes plus opaque resampled spans.
#[derive(Debug, Clone)]
enum MutTree {
    /// Raw bytes (terminals, or an already-resampled region).
    Bytes(Vec<u8>),
    /// A nonterminal node that can still be resampled.
    Node { nt: NtId, children: Vec<MutTree> },
}

impl MutTree {
    fn from_parse_tree(t: &ParseTree) -> MutTree {
        match t {
            ParseTree::Leaf { byte, .. } => MutTree::Bytes(vec![*byte]),
            ParseTree::Node { nt, children, .. } => MutTree::Node {
                nt: *nt,
                children: children.iter().map(MutTree::from_parse_tree).collect(),
            },
        }
    }

    fn write_bytes(&self, out: &mut Vec<u8>) {
        match self {
            MutTree::Bytes(b) => out.extend_from_slice(b),
            MutTree::Node { children, .. } => {
                for c in children {
                    c.write_bytes(out);
                }
            }
        }
    }

    /// Collects the paths of all `Node`s (preorder; the root path is empty).
    fn node_paths(&self, prefix: &mut Vec<u32>, out: &mut Vec<(Vec<u32>, NtId)>) {
        if let MutTree::Node { nt, children } = self {
            out.push((prefix.clone(), *nt));
            for (k, c) in children.iter().enumerate() {
                prefix.push(k as u32);
                c.node_paths(prefix, out);
                prefix.pop();
            }
        }
    }

    fn replace_at(&mut self, path: &[u32], replacement: MutTree) {
        match path.split_first() {
            None => *self = replacement,
            Some((&k, rest)) => {
                if let MutTree::Node { children, .. } = self {
                    children[k as usize].replace_at(rest, replacement);
                }
            }
        }
    }
}

/// The GLADE fuzzer: seed parse trees mutated by subtree resampling.
pub struct GrammarFuzzer {
    grammar: Grammar,
    seed_trees: Vec<MutTree>,
    max_mods: usize,
    max_sample_depth: usize,
    name: String,
}

impl GrammarFuzzer {
    /// Creates a fuzzer from a (synthesized) grammar and seed inputs.
    ///
    /// Seeds that the grammar cannot parse are dropped; if none parse, the
    /// fuzzer falls back to pure sampling from the grammar's start symbol.
    pub fn new(grammar: Grammar, seeds: &[Vec<u8>]) -> Self {
        let seed_trees: Vec<MutTree> = {
            let earley = Earley::new(&grammar);
            seeds
                .iter()
                .filter_map(|s| earley.parse(s))
                .map(|t| MutTree::from_parse_tree(&t))
                .collect()
        };
        GrammarFuzzer {
            grammar,
            seed_trees,
            max_mods: 50,
            max_sample_depth: 24,
            name: "glade".to_owned(),
        }
    }

    /// Overrides the maximum number of modifications per input (paper: 50).
    pub fn with_max_mods(mut self, max_mods: usize) -> Self {
        self.max_mods = max_mods;
        self
    }

    /// Overrides the sampling depth budget for replacement subtrees.
    pub fn with_sample_depth(mut self, depth: usize) -> Self {
        self.max_sample_depth = depth;
        self
    }

    /// Overrides the display name (used to distinguish grammar sources,
    /// e.g. "glade" vs "handwritten").
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of seeds the grammar could parse.
    pub fn parsed_seeds(&self) -> usize {
        self.seed_trees.len()
    }
}

impl Fuzzer for GrammarFuzzer {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_input(&mut self, rng: &mut StdRng) -> Vec<u8> {
        let sampler = Sampler::with_max_depth(&self.grammar, self.max_sample_depth);
        if self.seed_trees.is_empty() {
            return sampler.sample(rng).unwrap_or_default();
        }
        let mut tree = self.seed_trees[rng.gen_range(0..self.seed_trees.len())].clone();
        let n = rng.gen_range(0..=self.max_mods);
        for _ in 0..n {
            let mut paths = Vec::new();
            tree.node_paths(&mut Vec::new(), &mut paths);
            if paths.is_empty() {
                break;
            }
            let (path, nt) = paths[rng.gen_range(0..paths.len())].clone();
            let Some(replacement) = sampler.sample_nt(nt, rng) else {
                continue;
            };
            tree.replace_at(&path, MutTree::Bytes(replacement));
        }
        let mut out = Vec::new();
        tree.write_bytes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glade_grammar::cfg::{cls, lit, nt, GrammarBuilder};
    use glade_grammar::CharClass;
    use rand::SeedableRng;

    /// The running-example grammar: A → ε | A B ; B → <a>A</a> | letter.
    fn xml_grammar() -> Grammar {
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        let item = b.nt("B");
        b.prod(a, vec![]);
        b.prod(a, [nt(a), nt(item)].concat());
        b.prod(item, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
        b.prod(item, cls(CharClass::range(b'a', b'z')));
        b.build(a).unwrap()
    }

    #[test]
    fn outputs_are_members_of_the_grammar() {
        let g = xml_grammar();
        let seeds = vec![b"<a>hi</a>".to_vec()];
        let mut f = GrammarFuzzer::new(g.clone(), &seeds);
        assert_eq!(f.parsed_seeds(), 1);
        let e = Earley::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let input = f.next_input(&mut rng);
            assert!(
                e.accepts(&input),
                "fuzzer output {:?} not in grammar",
                String::from_utf8_lossy(&input)
            );
        }
    }

    #[test]
    fn produces_diverse_outputs() {
        let g = xml_grammar();
        let seeds = vec![b"<a>hi</a>".to_vec()];
        let mut f = GrammarFuzzer::new(g, &seeds);
        let mut rng = StdRng::seed_from_u64(6);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..200 {
            distinct.insert(f.next_input(&mut rng));
        }
        assert!(distinct.len() > 20, "only {} distinct outputs", distinct.len());
    }

    #[test]
    fn unparseable_seeds_are_dropped() {
        let g = xml_grammar();
        let seeds = vec![b"NOT IN LANGUAGE 123".to_vec(), b"ok".to_vec()];
        let f = GrammarFuzzer::new(g, &seeds);
        assert_eq!(f.parsed_seeds(), 1);
    }

    #[test]
    fn falls_back_to_sampling_without_seeds() {
        let g = xml_grammar();
        let mut f = GrammarFuzzer::new(g.clone(), &[]);
        assert_eq!(f.parsed_seeds(), 0);
        let e = Earley::new(&g);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert!(e.accepts(&f.next_input(&mut rng)));
        }
    }

    #[test]
    fn custom_name_is_reported() {
        let g = xml_grammar();
        let f = GrammarFuzzer::new(g, &[]).with_name("handwritten");
        assert_eq!(f.name(), "handwritten");
    }
}
