//! Test-only reference: the hash-set chart Earley recognizer that
//! `glade_grammar::Earley` replaced, kept to check the compiled recognizer
//! against. One `HashSet<Item>` per input position; every completion scans
//! the whole origin set. It is the straightforward textbook algorithm (with
//! the Aycock–Horspool nullable fix), so agreement with it is what vouches
//! for the compiled tables, waiting lists, and stamp dedup.
//!
//! The only edits from the original are the ones an outside crate needs:
//! nonterminal ids come from `Grammar::nonterminals` instead of the
//! crate-private `NtId` constructor.

#![allow(dead_code)]

use glade_grammar::{Grammar, NtId, ParseTree, Sym};
use std::collections::{HashMap, HashSet};

/// Earley item: `lhs → rhs[..dot] · rhs[dot..]`, started at input position
/// `origin`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Item {
    nt: u32,
    prod: u32,
    dot: u32,
    origin: u32,
}

/// An Earley recognizer/parser for a borrowed [`Grammar`].
///
/// Construction precomputes the nullable set; each call to
/// [`Earley::accepts`] or [`Earley::parse`] runs the chart algorithm on one
/// input.
#[derive(Debug)]
pub struct Earley<'g> {
    grammar: &'g Grammar,
    nullable: Vec<bool>,
    nts: Vec<NtId>,
}

impl<'g> Earley<'g> {
    /// Creates a parser for `grammar`.
    pub fn new(grammar: &'g Grammar) -> Self {
        let nullable = grammar.nullable_set();
        Earley { grammar, nullable, nts: grammar.nonterminals().collect() }
    }

    /// The underlying grammar.
    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    fn rhs(&self, item: &Item) -> &'g [Sym] {
        &self.grammar.productions(self.nts[item.nt as usize])[item.prod as usize]
    }

    /// Runs the chart algorithm, returning one item set per input position
    /// (`n + 1` sets).
    fn chart(&self, input: &[u8]) -> Vec<Vec<Item>> {
        let n = input.len();
        let mut sets: Vec<Vec<Item>> = vec![Vec::new(); n + 1];
        let mut seen: Vec<HashSet<Item>> = vec![HashSet::new(); n + 1];

        let start = self.grammar.start();
        for prod in 0..self.grammar.productions(start).len() as u32 {
            let it = Item { nt: start.index() as u32, prod, dot: 0, origin: 0 };
            if seen[0].insert(it) {
                sets[0].push(it);
            }
        }

        for k in 0..=n {
            let mut idx = 0;
            while idx < sets[k].len() {
                let item = sets[k][idx];
                idx += 1;
                let rhs = self.rhs(&item);
                if (item.dot as usize) < rhs.len() {
                    match rhs[item.dot as usize] {
                        Sym::Nt(b) => {
                            // Predict.
                            for prod in 0..self.grammar.productions(b).len() as u32 {
                                let it =
                                    Item { nt: b.index() as u32, prod, dot: 0, origin: k as u32 };
                                if seen[k].insert(it) {
                                    sets[k].push(it);
                                }
                            }
                            // Aycock–Horspool: if B is nullable, also advance
                            // over it immediately.
                            if self.nullable[b.index()] {
                                let it = Item { dot: item.dot + 1, ..item };
                                if seen[k].insert(it) {
                                    sets[k].push(it);
                                }
                            }
                        }
                        Sym::Class(c) => {
                            // Scan.
                            if k < n && c.contains(input[k]) {
                                let it = Item { dot: item.dot + 1, ..item };
                                if seen[k + 1].insert(it) {
                                    sets[k + 1].push(it);
                                }
                            }
                        }
                    }
                } else {
                    // Complete: item.nt spans item.origin..k.
                    let origin = item.origin as usize;
                    // Note: when origin == k this loops over the growing set;
                    // index-based iteration handles that safely.
                    let mut j = 0;
                    while j < sets[origin].len() {
                        let parent = sets[origin][j];
                        j += 1;
                        let prhs = self.rhs(&parent);
                        if (parent.dot as usize) < prhs.len()
                            && prhs[parent.dot as usize] == Sym::Nt(self.nts[item.nt as usize])
                        {
                            let it = Item { dot: parent.dot + 1, ..parent };
                            if seen[k].insert(it) {
                                sets[k].push(it);
                            }
                        }
                        if origin != k {
                            // sets[origin] is frozen once k > origin; a plain
                            // loop suffices but we keep the same structure.
                        }
                    }
                }
            }
        }
        sets
    }

    /// Decides membership of `input` in the grammar's language.
    pub fn accepts(&self, input: &[u8]) -> bool {
        let sets = self.chart(input);
        let n = input.len();
        let start = self.grammar.start();
        sets[n].iter().any(|it| {
            it.nt == start.index() as u32 && it.origin == 0 && it.dot as usize == self.rhs(it).len()
        })
    }

    /// Parses `input`, returning one (arbitrary but deterministic) parse
    /// tree, or `None` if the input is not in the language.
    pub fn parse(&self, input: &[u8]) -> Option<ParseTree> {
        let sets = self.chart(input);
        let n = input.len();
        let start = self.grammar.start();
        let accepted = sets[n].iter().any(|it| {
            it.nt == start.index() as u32 && it.origin == 0 && it.dot as usize == self.rhs(it).len()
        });
        if !accepted {
            return None;
        }

        // completed[(nt, start)] = ascending list of end positions.
        let mut completed: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        for (k, set) in sets.iter().enumerate() {
            for it in set {
                if it.dot as usize == self.rhs(it).len() {
                    completed.entry((it.nt, it.origin)).or_default().push(k as u32);
                }
            }
        }
        for ends in completed.values_mut() {
            ends.sort_unstable();
            ends.dedup();
        }

        let mut builder = TreeBuilder {
            earley: self,
            input,
            completed,
            fail: HashSet::new(),
            in_progress: HashSet::new(),
        };
        builder.build(start.index() as u32, 0, n as u32)
    }
}

struct TreeBuilder<'a, 'g> {
    earley: &'a Earley<'g>,
    input: &'a [u8],
    completed: HashMap<(u32, u32), Vec<u32>>,
    fail: HashSet<(u32, u32, u32)>,
    in_progress: HashSet<(u32, u32, u32)>,
}

impl TreeBuilder<'_, '_> {
    fn spans(&self, nt: u32, start: u32) -> &[u32] {
        self.completed.get(&(nt, start)).map(Vec::as_slice).unwrap_or(&[])
    }

    fn build(&mut self, nt: u32, start: u32, end: u32) -> Option<ParseTree> {
        let key = (nt, start, end);
        if self.fail.contains(&key) || !self.spans(nt, start).contains(&end) {
            return None;
        }
        // A minimal derivation never revisits the same (nt, span); blocking
        // re-entry keeps unary/ε cycles from looping forever.
        if !self.in_progress.insert(key) {
            return None;
        }
        let prods = self.earley.grammar.productions(self.earley.nts[nt as usize]);
        let mut result = None;
        for (pi, rhs) in prods.iter().enumerate() {
            if let Some(children) = self.match_seq(rhs, 0, start, end) {
                result = Some(ParseTree::Node {
                    nt: self.earley.nts[nt as usize],
                    prod: pi,
                    children,
                    start: start as usize,
                    end: end as usize,
                });
                break;
            }
        }
        self.in_progress.remove(&key);
        if result.is_none() {
            self.fail.insert(key);
        }
        result
    }

    fn match_seq(&mut self, rhs: &[Sym], k: usize, pos: u32, end: u32) -> Option<Vec<ParseTree>> {
        if k == rhs.len() {
            return (pos == end).then(Vec::new);
        }
        match rhs[k] {
            Sym::Class(c) => {
                if pos < end && c.contains(self.input[pos as usize]) {
                    let mut rest = self.match_seq(rhs, k + 1, pos + 1, end)?;
                    rest.insert(
                        0,
                        ParseTree::Leaf { byte: self.input[pos as usize], pos: pos as usize },
                    );
                    Some(rest)
                } else {
                    None
                }
            }
            Sym::Nt(n) => {
                let mids: Vec<u32> = self
                    .spans(n.index() as u32, pos)
                    .iter()
                    .copied()
                    .filter(|&m| m <= end)
                    .collect();
                for mid in mids {
                    if let Some(rest) = self.match_seq(rhs, k + 1, mid, end) {
                        if let Some(sub) = self.build(n.index() as u32, pos, mid) {
                            let mut children = Vec::with_capacity(rest.len() + 1);
                            children.push(sub);
                            children.extend(rest);
                            return Some(children);
                        }
                    }
                }
                None
            }
        }
    }
}
