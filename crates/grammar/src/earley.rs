//! Earley recognition and parsing for [`Grammar`]s.
//!
//! GLADE needs general context-free parsing in three places:
//!
//! * **Membership oracles for the target languages** (Section 8.2): the
//!   language-inference experiment answers every query by recognizing it
//!   against a handwritten grammar, so this recognizer answers every oracle
//!   query (a whole batch of them per chart, see *Batches* below).
//! * **Recall measurement** (Section 8.2): deciding whether a string sampled
//!   from the target language belongs to the synthesized grammar.
//! * **The grammar-based fuzzer** (Section 8.3): constructing the parse tree
//!   of a seed input under the synthesized grammar so subtrees can be
//!   replaced by freshly sampled derivations.
//!
//! Synthesized grammars are arbitrary CFGs (left-recursive star expansions,
//! ε-productions, unary cycles, ambiguity), so we use an Earley chart
//! parser with the Aycock–Horspool nullable fix, plus a memoized top-down
//! walk of the completed chart to extract a single parse tree.
//!
//! # How recognition is laid out
//!
//! * **Compiled tables.** [`Recognizer::new`] flattens the grammar once
//!   into dotted rules: one table gives the symbol after the dot of every
//!   `(production, dot)`, another the dot-0 rules of each nonterminal, and
//!   the nullable set is precomputed. The tables are owned, so an oracle
//!   keeps them for its whole life; [`Earley`] pairs them with the borrowed
//!   grammar for parse-tree extraction.
//! * **Completion index.** Each chart position keeps, per nonterminal, a
//!   list of its items whose dot sits before that nonterminal. Completing
//!   `B` from origin `j` walks only set `j`'s list for `B` instead of
//!   scanning all of set `j`. Completions with an empty span need no walk:
//!   the Aycock–Horspool rule already advanced over every nullable `B` at
//!   prediction time.
//! * **Dedup stamps.** Only completion can produce an item twice in one set,
//!   and only items whose dot directly follows a nonterminal. Each such
//!   `(origin, dotted rule)` pair has a slot in a dense table holding the
//!   stamp of the last set that added it, so a duplicate is one compare,
//!   with no hashing. Predictions are deduplicated per nonterminal the same
//!   way, and scans cannot produce duplicates at all.
//! * **Per-set stamps.** Every time a set is closed it takes a fresh stamp
//!   from a monotone per-thread counter, and every table entry it writes
//!   carries that stamp (the waiting lists too, which completion reads
//!   against the stamp of the origin set). An entry therefore counts only
//!   for the closing of the set that wrote it: entries left by an earlier
//!   input, an earlier grammar or an earlier closing of the same position
//!   never equal a live stamp, so a set can be re-closed in place without
//!   clearing anything. The tables are cleared only when the counter would
//!   overflow.
//! * **Per-thread scratch.** The chart and its tables live in a
//!   thread-local scratch that is reused across queries and grammars and
//!   not cleared between them (see the stamps above). Queries from many
//!   threads on one shared recognizer therefore never contend, and
//!   steady-state recognition does not allocate.
//! * **Batches.** [`Recognizer::accepts_batch`] runs a whole batch on one
//!   chart and lets each input reuse what the previous one decided. Set
//!   `k` depends only on `input[..k]`, so the sets of the common prefix
//!   with the previous input are kept and only the sets after it are
//!   re-closed (prefix reuse). If the previous input's scan at position
//!   `d` came out empty, an input sharing its first `d + 1` bytes is
//!   rejected at once (dead prefix). Inputs that differ from their
//!   predecessor only in the byte at one position form a group (character
//!   generalization poses exactly such families); within it, two bytes
//!   whose scan of that position's set yields the same items lead to the
//!   same next set and share the suffix, so they share the verdict (scan
//!   classes). All three shortcuts are exact, so a batch's verdicts equal
//!   the one-input ones in any order; [`Recognizer::accepts`] is the
//!   one-input case of the same set loop.

use crate::cfg::{Grammar, NtId, Sym};
use crate::CharClass;
use std::cell::RefCell;
use std::fmt;

/// One node of a parse tree produced by [`Earley::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTree {
    /// A matched terminal byte at input position `pos`.
    Leaf {
        /// The matched byte.
        byte: u8,
        /// Its position in the input.
        pos: usize,
    },
    /// A nonterminal expansion.
    Node {
        /// The expanded nonterminal.
        nt: NtId,
        /// Index of the chosen production within `grammar.productions(nt)`.
        prod: usize,
        /// Child subtrees, one per right-hand-side symbol.
        children: Vec<ParseTree>,
        /// Start offset (inclusive) of the derived substring.
        start: usize,
        /// End offset (exclusive) of the derived substring.
        end: usize,
    },
}

impl ParseTree {
    /// The `(start, end)` byte span this subtree derives.
    pub fn span(&self) -> (usize, usize) {
        match self {
            ParseTree::Leaf { pos, .. } => (*pos, *pos + 1),
            ParseTree::Node { start, end, .. } => (*start, *end),
        }
    }

    /// Appends the derived bytes (the subtree's yield) to `out`.
    pub fn write_yield(&self, out: &mut Vec<u8>) {
        match self {
            ParseTree::Leaf { byte, .. } => out.push(*byte),
            ParseTree::Node { children, .. } => {
                for c in children {
                    c.write_yield(out);
                }
            }
        }
    }

    /// The derived bytes as a fresh vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_yield(&mut out);
        out
    }

    /// Collects references to every `Node` in the tree (preorder, including
    /// the root). Used by the grammar-based fuzzer to pick a random
    /// nonterminal occurrence.
    pub fn nodes(&self) -> Vec<&ParseTree> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            if let ParseTree::Node { children, .. } = t {
                out.push(t);
                for c in children {
                    stack.push(c);
                }
            }
        }
        out
    }
}

impl fmt::Display for ParseTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(t: &ParseTree, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for _ in 0..depth {
                write!(f, "  ")?;
            }
            match t {
                ParseTree::Leaf { byte, pos } => {
                    writeln!(f, "'{}' @{pos}", (*byte as char).escape_default())
                }
                ParseTree::Node { nt, prod, children, start, end } => {
                    writeln!(f, "{nt}/{prod} [{start}..{end}]")?;
                    for c in children {
                        go(c, depth + 1, f)?;
                    }
                    Ok(())
                }
            }
        }
        go(self, 0, f)
    }
}

/// What follows the dot of one dotted rule.
#[derive(Clone, Copy, Debug)]
enum Next {
    /// A terminal: index into `Recognizer::classes`.
    Class(u32),
    /// A nonterminal; `slot` is the dedup column of the dotted rule that
    /// advancing over it yields.
    Nt { nt: u32, slot: u32 },
    /// The dot is at the end: `lhs` completes.
    Done { lhs: u32 },
}

/// The compiled, owned form of a [`Grammar`] that Earley charts run on.
///
/// Compiling flattens every production into dotted rules, so the symbol
/// after the dot is one table lookup, and precomputes the dot-0 rules of
/// each nonterminal and the nullable set. A `Recognizer` owns its tables
/// (it does not borrow the grammar), so long-lived holders such as a
/// membership oracle compile once and answer many queries. Compiling costs
/// time linear in the grammar's size; recognition allocates nothing once
/// the calling thread's scratch chart has grown to the input's size.
///
/// # Examples
///
/// ```
/// use glade_grammar::cfg::{GrammarBuilder, lit, nt};
/// use glade_grammar::Recognizer;
///
/// let mut b = GrammarBuilder::new();
/// let a = b.nt("A");
/// b.prod(a, [lit(b"("), nt(a), lit(b")")].concat());
/// b.prod(a, vec![]);
/// let recognizer = Recognizer::new(&b.build(a).unwrap());
/// assert!(recognizer.accepts(b"(())"));
/// assert!(!recognizer.accepts(b"(()"));
/// ```
#[derive(Debug, Clone)]
pub struct Recognizer {
    start: u32,
    /// The symbol after the dot, per dotted rule. Rule `r`'s dotted rules
    /// are `rules[r]..=rules[r] + len(r)`.
    next: Vec<Next>,
    /// The dot-0 dotted rule of every production, nonterminal-major.
    rules: Vec<u32>,
    /// Nonterminal `b`'s productions are `rules[nt_rules[b]..nt_rules[b + 1]]`.
    nt_rules: Vec<u32>,
    nullable: Vec<bool>,
    classes: Vec<CharClass>,
    /// Number of dotted rules that directly follow a nonterminal (the
    /// only ones that completion can produce twice in one set).
    slots: u32,
}

fn index(n: usize) -> u32 {
    u32::try_from(n).expect("grammar or input too large for the Earley recognizer")
}

impl Recognizer {
    /// Compiles `grammar`.
    pub fn new(grammar: &Grammar) -> Self {
        let rhs = || grammar.nonterminals().flat_map(|n| grammar.productions(n));
        let symbols: usize = rhs().map(Vec::len).sum();
        let mut next = Vec::with_capacity(symbols + grammar.num_productions());
        let mut rules = Vec::with_capacity(grammar.num_productions());
        let mut nt_rules = Vec::with_capacity(grammar.num_nonterminals() + 1);
        nt_rules.push(0);
        let mut classes = Vec::with_capacity(symbols);
        let mut slots = 0;
        for lhs in grammar.nonterminals() {
            for rhs in grammar.productions(lhs) {
                rules.push(index(next.len()));
                for sym in rhs {
                    next.push(match *sym {
                        Sym::Class(c) => {
                            classes.push(c);
                            Next::Class(index(classes.len() - 1))
                        }
                        Sym::Nt(b) => {
                            slots += 1;
                            Next::Nt { nt: b.0, slot: slots - 1 }
                        }
                    });
                }
                next.push(Next::Done { lhs: lhs.0 });
            }
            nt_rules.push(index(rules.len()));
        }
        Recognizer {
            start: grammar.start().0,
            next,
            rules,
            nt_rules,
            nullable: grammar.nullable_set(),
            classes,
            slots,
        }
    }

    /// Decides membership of `input` in the grammar's language.
    pub fn accepts(&self, input: &[u8]) -> bool {
        with_chart(|chart| self.recognize(chart, None, input))
    }

    /// Decides membership of every input of a batch, in order.
    ///
    /// The verdicts are exactly those of [`Recognizer::accepts`] on each
    /// input, for any batch order. One chart serves the whole batch, and
    /// each input reuses what the previous one already decided (see the
    /// module docs): the sets of their common prefix, a rejection that
    /// prefix already implies, and the verdict of an earlier input that
    /// differs from it in one byte which scans the same items. Batches
    /// whose neighbours share long prefixes, such as character
    /// generalization's one-byte substitutions, therefore cost far less
    /// than one chart per input.
    pub fn accepts_batch(&self, inputs: &[&[u8]]) -> Vec<bool> {
        with_chart(|chart| {
            let mut prev = None;
            inputs
                .iter()
                .map(|&input| {
                    let verdict = self.recognize(chart, prev, input);
                    prev = Some((input, verdict));
                    verdict
                })
                .collect()
        })
    }

    /// The dot-0 dotted rules of nonterminal `nt`.
    fn dot0(&self, nt: u32) -> &[u32] {
        &self.rules[self.nt_rules[nt as usize] as usize..self.nt_rules[nt as usize + 1] as usize]
    }

    fn nonterminals(&self) -> usize {
        self.nt_rules.len() - 1
    }

    /// Whether set `n` holds a completed start rule from origin 0.
    fn accepted(&self, chart: &Chart, n: usize) -> bool {
        chart.set(n).iter().any(|it| {
            it.origin == 0
                && matches!(self.next[it.dot as usize], Next::Done { lhs } if lhs == self.start)
        })
    }

    /// The verdict on `input`. `prev` is the previous input of the same
    /// batch with its verdict; `chart` then still holds that input's sets,
    /// and only what they do not already decide is run. Without `prev`,
    /// an accepted input leaves every one of its sets in `chart`.
    fn recognize(&self, chart: &mut Chart, prev: Option<(&[u8], bool)>, input: &[u8]) -> bool {
        let n = input.len();
        let cleared = chart.prepare(n, self.slots as usize, self.nonterminals());
        let Some((prev, prev_verdict)) = prev.filter(|_| !cleared) else {
            chart.reset();
            return self.run_from(input, chart, 0) && self.accepted(chart, n);
        };
        let l = input.iter().zip(prev).take_while(|(a, b)| a == b).count();
        if l == n && l == prev.len() {
            return prev_verdict;
        }
        // Whether `input` differs from `prev` in exactly the byte at `l`.
        let sibling = l < n && prev.len() == n && input[l + 1..] == prev[l + 1..];
        if !(sibling && chart.group == Some(l)) {
            chart.forget_group();
        }
        // Dead prefix: `prev` left set `d + 1` empty, and `input` shares
        // the bytes that emptied it.
        if chart.dead.is_some_and(|d| l > d) {
            return false;
        }
        // Prefix reuse: sets `0..=k` are also `input`'s.
        let k = l.min(chart.closed() - 1);
        chart.truncate(k);
        if k == n {
            return self.accepted(chart, n);
        }
        // Scan-class reuse: the siblings at `k` whose scan of set `k`
        // yields the same items share the rest of the chart and the verdict.
        let grouped = sibling && k == l;
        if grouped && chart.group.is_none() {
            self.scan(chart, k, prev[k]);
            chart.push_class(prev_verdict);
            chart.group = Some(k);
        }
        if !self.scan(chart, k, input[k]) {
            chart.dead = Some(k);
            return false;
        }
        if grouped {
            if let Some(verdict) = chart.class_verdict() {
                return verdict;
            }
            chart.push_class(false);
        }
        let verdict = self.run_from(input, chart, k + 1) && self.accepted(chart, n);
        if grouped {
            chart.set_last_class_verdict(verdict);
        }
        verdict
    }

    /// Scans set `k` of `chart` over `byte`, leaving the kernel of set
    /// `k + 1` in `chart.scanned`. Returns whether that kernel is nonempty.
    fn scan(&self, chart: &mut Chart, k: usize, byte: u8) -> bool {
        let Chart { terms, term_start, scanned, .. } = chart;
        scanned.clear();
        for t in &terms[term_start[k] as usize..term_start[k + 1] as usize] {
            if self.classes[t.class as usize].contains(byte) {
                scanned.push(Item { origin: t.origin, dot: t.dot + 1, link: 0 });
            }
        }
        !scanned.is_empty()
    }

    /// Closes the sets `from..=input.len()` of `chart`, which holds the
    /// closed sets before `from` and, unless `from` is 0, the kernel of
    /// set `from` in `chart.scanned`. Returns `false` as soon as a scan
    /// comes out empty, since no later set can then be reached (the chart
    /// then holds only the sets up to the one that died, and records it in
    /// `chart.dead`).
    fn run_from(&self, input: &[u8], chart: &mut Chart, from: usize) -> bool {
        let n = input.len();
        let slots = self.slots as usize;
        let nts = self.nonterminals();
        for k in from..=n {
            let Chart {
                items,
                set_start,
                set_stamp,
                terms,
                term_start,
                scanned,
                stamps,
                predicted,
                waiting,
                clock,
                ..
            } = &mut *chart;
            let kk = k as u32;
            *clock += 1;
            let cur = *clock;
            set_stamp.push(cur);
            if k == 0 {
                predicted[self.start as usize] = cur;
                for &dot in self.dot0(self.start) {
                    items.push(Item { origin: 0, dot, link: 0 });
                }
            } else {
                // Scans from distinct items give distinct items: no dedup.
                items.append(scanned);
            }
            let mut i = set_start[k] as usize;
            while i < items.len() {
                let Item { origin, dot, .. } = items[i];
                i += 1;
                match self.next[dot as usize] {
                    Next::Class(class) => terms.push(Term { class, origin, dot }),
                    Next::Nt { nt, slot } => {
                        // Join the waiting list of (k, nt).
                        let w = &mut waiting[k * nts + nt as usize];
                        items[i - 1].link = if w.0 == cur { w.1 } else { 0 };
                        *w = (cur, index(i));
                        // Predict.
                        if predicted[nt as usize] != cur {
                            predicted[nt as usize] = cur;
                            for &dot in self.dot0(nt) {
                                items.push(Item { origin: kk, dot, link: 0 });
                            }
                        }
                        // Aycock–Horspool: a nullable nonterminal is also
                        // advanced over at once. This covers every
                        // completion whose origin is the current set.
                        if self.nullable[nt as usize] {
                            let s = &mut stamps[origin as usize * slots + slot as usize];
                            if *s != cur {
                                *s = cur;
                                items.push(Item { origin, dot: dot + 1, link: 0 });
                            }
                        }
                    }
                    Next::Done { lhs } if origin < kk => {
                        // Complete: advance exactly the items of set
                        // `origin` that wait on `lhs`.
                        let w = waiting[origin as usize * nts + lhs as usize];
                        let mut p = if w.0 == set_stamp[origin as usize] { w.1 } else { 0 };
                        while p != 0 {
                            let parent = items[p as usize - 1];
                            p = parent.link;
                            let Next::Nt { slot, .. } = self.next[parent.dot as usize] else {
                                unreachable!("waiting items sit before a nonterminal")
                            };
                            let s = &mut stamps[parent.origin as usize * slots + slot as usize];
                            if *s != cur {
                                *s = cur;
                                items.push(Item {
                                    origin: parent.origin,
                                    dot: parent.dot + 1,
                                    link: 0,
                                });
                            }
                        }
                    }
                    Next::Done { .. } => {}
                }
            }
            set_start.push(index(items.len()));
            term_start.push(index(terms.len()));
            if k == n {
                break;
            }
            if !self.scan(chart, k, input[k]) {
                chart.dead = Some(k);
                return false;
            }
        }
        true
    }
}

/// One Earley item: the dotted rule `dot` started at input position
/// `origin`. `link` chains the items of one set that wait on the same
/// nonterminal (1-based index of the previous one, 0 ends the list).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Item {
    origin: u32,
    dot: u32,
    link: u32,
}

/// An item of a closed set whose dot sits before a terminal, with the
/// index of that terminal's class: what scanning the set's byte tests.
#[derive(Clone, Copy, Debug)]
struct Term {
    class: u32,
    origin: u32,
    dot: u32,
}

/// Per-thread scratch for the chart loop: the chart plus its dense dedup
/// tables, reused across inputs and across grammars.
///
/// The tables are never cleared between inputs. Every entry records the
/// *stamp* of the set that wrote it, and each set takes a fresh stamp from
/// `clock` each time it is closed, so an entry left by an earlier input,
/// an earlier grammar or an earlier closing of the same set never equals a
/// live stamp. That is what lets a batch keep the sets of a common prefix
/// and re-close only the sets after it, in place.
#[derive(Debug, Default)]
struct Chart {
    /// Every set's items, concatenated; set `k` is
    /// `items[set_start[k]..set_start[k + 1]]`.
    items: Vec<Item>,
    set_start: Vec<u32>,
    /// Stamp of each closed set.
    set_stamp: Vec<u32>,
    /// Each closed set's items before a terminal; set `k`'s are
    /// `terms[term_start[k]..term_start[k + 1]]`.
    terms: Vec<Term>,
    term_start: Vec<u32>,
    /// The kernel of the next set, scanned from the last closed one.
    scanned: Vec<Item>,
    /// `(origin, slot)` → stamp of the set that holds that item.
    stamps: Vec<u32>,
    /// Nonterminal → stamp of the set that predicted it.
    predicted: Vec<u32>,
    /// `(set, nonterminal)` → (stamp, head of that set's waiting list).
    waiting: Vec<(u32, u32)>,
    /// The last stamp handed out.
    clock: u32,
    /// Set when the scan of the last closed set, `d`, came out empty.
    dead: Option<usize>,
    /// The position at which the batch's current run of siblings (inputs
    /// equal to the previous one except in the byte at this position)
    /// differ, and the scan classes seen among them: each class is a
    /// scanned kernel in `signatures`, ending at its offset, with the
    /// verdict it led to.
    group: Option<usize>,
    signatures: Vec<Item>,
    classes: Vec<(u32, bool)>,
}

/// A scratch chart whose tables outgrow this many entries is dropped after
/// its query instead of being kept for the thread's next one.
const RETAINED_ENTRIES: usize = 1 << 16;

impl Chart {
    /// Readies the tables for an input of length `n`. Returns whether the
    /// stamps ran out and were cleared, which also drops every set.
    fn prepare(&mut self, n: usize, slots: usize, nts: usize) -> bool {
        assert!(n < (u32::MAX / 2) as usize, "input too large for the Earley recognizer");
        let sets = n + 1;
        let cells = |width: usize| sets.checked_mul(width).expect("chart size overflows usize");
        for (table, len) in [(&mut self.stamps, cells(slots)), (&mut self.predicted, nts)] {
            if table.len() < len {
                table.resize(len, 0);
            }
        }
        if self.waiting.len() < cells(nts) {
            self.waiting.resize(cells(nts), (0, 0));
        }
        if u32::MAX - self.clock > index(sets) {
            return false;
        }
        self.stamps.fill(0);
        self.predicted.fill(0);
        self.waiting.fill((0, 0));
        self.clock = 0;
        self.reset();
        true
    }

    /// Drops every set and the batch state that rests on them.
    fn reset(&mut self) {
        self.items.clear();
        self.scanned.clear();
        self.set_start.clear();
        self.set_start.push(0);
        self.set_stamp.clear();
        self.terms.clear();
        self.term_start.clear();
        self.term_start.push(0);
        self.dead = None;
        self.forget_group();
    }

    /// Keeps the closed sets `0..=k` only.
    fn truncate(&mut self, k: usize) {
        self.items.truncate(self.set_start[k + 1] as usize);
        self.set_start.truncate(k + 2);
        self.set_stamp.truncate(k + 1);
        self.terms.truncate(self.term_start[k + 1] as usize);
        self.term_start.truncate(k + 2);
        self.dead = None;
    }

    /// Number of closed sets.
    fn closed(&self) -> usize {
        self.set_stamp.len()
    }

    fn forget_group(&mut self) {
        self.group = None;
        self.signatures.clear();
        self.classes.clear();
    }

    /// Records the kernel in `scanned` as a scan class of the group.
    fn push_class(&mut self, verdict: bool) {
        self.signatures.extend_from_slice(&self.scanned);
        self.classes.push((index(self.signatures.len()), verdict));
    }

    fn set_last_class_verdict(&mut self, verdict: bool) {
        self.classes.last_mut().expect("a class was pushed").1 = verdict;
    }

    /// The verdict of the group's scan class equal to the kernel in
    /// `scanned`, if it has one.
    fn class_verdict(&self) -> Option<bool> {
        let mut start = 0;
        for &(end, verdict) in &self.classes {
            if self.signatures[start..end as usize] == self.scanned[..] {
                return Some(verdict);
            }
            start = end as usize;
        }
        None
    }

    fn set(&self, k: usize) -> &[Item] {
        &self.items[self.set_start[k] as usize..self.set_start[k + 1] as usize]
    }

    fn entries(&self) -> usize {
        self.items.capacity()
            + self.terms.capacity()
            + self.stamps.len()
            + self.predicted.len()
            + self.waiting.len()
    }
}

thread_local! {
    static CHART: RefCell<Chart> = RefCell::default();
}

/// Runs `f` on this thread's scratch chart.
fn with_chart<R>(f: impl FnOnce(&mut Chart) -> R) -> R {
    CHART.with(|cell| {
        let mut chart = cell.borrow_mut();
        let r = f(&mut chart);
        if chart.entries() > RETAINED_ENTRIES {
            *chart = Chart::default();
        }
        r
    })
}

/// An Earley recognizer/parser for a borrowed [`Grammar`].
///
/// Construction compiles the grammar into a [`Recognizer`] (flat
/// dotted-rule tables, dot-0 rules per nonterminal, the nullable set);
/// each call to [`Earley::accepts`] or [`Earley::parse`] then runs the
/// chart algorithm on one input, on the calling thread's reusable scratch
/// chart. Completions visit only the items waiting on the completed
/// nonterminal, and duplicate items are caught by dense stamp tables, so
/// no item set is hashed. Build one `Earley` per grammar and reuse it.
///
/// # Examples
///
/// ```
/// use glade_grammar::cfg::{GrammarBuilder, lit, nt};
/// use glade_grammar::Earley;
///
/// let mut b = GrammarBuilder::new();
/// let a = b.nt("A");
/// b.prod(a, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
/// b.prod(a, vec![]);
/// let g = b.build(a).unwrap();
///
/// let parser = Earley::new(&g);
/// assert!(parser.accepts(b"<a><a></a></a>"));
/// assert!(!parser.accepts(b"<a></a></a>"));
/// ```
#[derive(Debug)]
pub struct Earley<'g> {
    grammar: &'g Grammar,
    recognizer: Recognizer,
}

impl<'g> Earley<'g> {
    /// Creates a parser for `grammar`, compiling it into a [`Recognizer`].
    pub fn new(grammar: &'g Grammar) -> Self {
        Earley { grammar, recognizer: Recognizer::new(grammar) }
    }

    /// The underlying grammar.
    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    /// Decides membership of `input` in the grammar's language.
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.recognizer.accepts(input)
    }

    /// Parses `input`, returning one (arbitrary but deterministic) parse
    /// tree, or `None` if the input is not in the language. The tree is
    /// read off the same chart [`Earley::accepts`] builds.
    pub fn parse(&self, input: &[u8]) -> Option<ParseTree> {
        let rec = &self.recognizer;
        // Every completed `(nonterminal, start, end)`, sorted.
        let completed = with_chart(|chart| {
            if !rec.recognize(chart, None, input) {
                return None;
            }
            let mut completed = Vec::new();
            for k in 0..=input.len() {
                for it in chart.set(k) {
                    if let Next::Done { lhs } = rec.next[it.dot as usize] {
                        completed.push((lhs, it.origin, k as u32));
                    }
                }
            }
            completed.sort_unstable();
            completed.dedup();
            Some(completed)
        })?;
        let mut builder = TreeBuilder {
            grammar: self.grammar,
            input,
            state: vec![Span::Open; completed.len()],
            completed: &completed,
            depth: 0,
            low: u32::MAX,
        };
        builder.build(rec.start, 0, index(input.len()))
    }
}

/// What [`TreeBuilder`] knows about one completed span.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Span {
    Open,
    /// On the walk's stack, at this depth.
    InProgress(u32),
    /// Has no derivation, whatever the stack.
    Failed,
}

/// Extracts one parse tree from the completed spans of a chart by a
/// memoized top-down walk.
///
/// A minimal derivation never revisits the same `(nt, span)` below itself,
/// so the walk blocks re-entry into a span that is on its stack; that keeps
/// unary and ε cycles finite. A failure is memoized only if it did not rest
/// on blocking a span *above* the failing one: such a failure holds only
/// for the current stack, and caching it could hide the sole derivation
/// from a later, different path.
struct TreeBuilder<'a> {
    grammar: &'a Grammar,
    input: &'a [u8],
    completed: &'a [(u32, u32, u32)],
    /// Per entry of `completed`.
    state: Vec<Span>,
    /// Stack depth of the walk.
    depth: u32,
    /// Lowest stack depth whose blocking the current failure rests on.
    low: u32,
}

impl<'a> TreeBuilder<'a> {
    /// The completed spans of `nt` from `start`, by ascending end.
    fn spans(&self, nt: u32, start: u32) -> &'a [(u32, u32, u32)] {
        let c = self.completed;
        let lo = c.partition_point(|&(n, s, _)| (n, s) < (nt, start));
        let hi = lo + c[lo..].partition_point(|&(n, s, _)| (n, s) == (nt, start));
        &c[lo..hi]
    }

    fn build(&mut self, nt: u32, start: u32, end: u32) -> Option<ParseTree> {
        let key = self.completed.binary_search(&(nt, start, end)).ok()?;
        match self.state[key] {
            Span::Open => {}
            Span::InProgress(depth) => {
                self.low = self.low.min(depth);
                return None;
            }
            Span::Failed => return None,
        }
        let depth = self.depth;
        self.depth += 1;
        self.state[key] = Span::InProgress(depth);
        let outer_low = std::mem::replace(&mut self.low, u32::MAX);
        let prods = self.grammar.productions(NtId(nt));
        let mut result = None;
        let mut children = Vec::new();
        for (pi, rhs) in prods.iter().enumerate() {
            if self.match_seq(rhs, 0, start, end, &mut children) {
                children.reverse();
                result = Some(ParseTree::Node {
                    nt: NtId(nt),
                    prod: pi,
                    children,
                    start: start as usize,
                    end: end as usize,
                });
                break;
            }
        }
        self.depth -= 1;
        if result.is_some() {
            self.state[key] = Span::Open;
            self.low = outer_low;
        } else {
            self.state[key] = if self.low >= depth { Span::Failed } else { Span::Open };
            self.low = self.low.min(outer_low);
        }
        result
    }

    /// Matches `rhs[k..]` against `input[pos..end]`. On success pushes the
    /// children for `rhs[k..]` onto `out` last-first (so the caller
    /// reverses once); on failure leaves `out` as it was.
    fn match_seq(
        &mut self,
        rhs: &'a [Sym],
        k: usize,
        pos: u32,
        end: u32,
        out: &mut Vec<ParseTree>,
    ) -> bool {
        if k == rhs.len() {
            return pos == end;
        }
        match rhs[k] {
            Sym::Class(c) => {
                let matched = pos < end
                    && c.contains(self.input[pos as usize])
                    && self.match_seq(rhs, k + 1, pos + 1, end, out);
                if matched {
                    out.push(ParseTree::Leaf { byte: self.input[pos as usize], pos: pos as usize });
                }
                matched
            }
            Sym::Nt(n) => {
                for &(_, _, mid) in self.spans(n.0, pos).iter().take_while(|s| s.2 <= end) {
                    let mark = out.len();
                    if self.match_seq(rhs, k + 1, mid, end, out) {
                        if let Some(sub) = self.build(n.0, pos, mid) {
                            out.push(sub);
                            return true;
                        }
                        out.truncate(mark);
                    }
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{cls, lit, nt, GrammarBuilder};
    use crate::CharClass;

    fn nested_tags() -> Grammar {
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        b.prod(a, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
        b.prod(a, vec![]);
        b.build(a).unwrap()
    }

    /// The paper's synthesized running-example grammar:
    /// A → ε | A B ;  B → <a> A </a> | h | i   (equivalent to (<a>A</a> + h + i)*)
    fn running_example() -> Grammar {
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        let t = b.nt("B");
        b.prod(a, vec![]);
        b.prod(a, [nt(a), nt(t)].concat());
        b.prod(t, [lit(b"<a>"), nt(a), lit(b"</a>")].concat());
        b.prod(t, lit(b"h"));
        b.prod(t, lit(b"i"));
        b.build(a).unwrap()
    }

    #[test]
    fn accepts_nested_tags() {
        let g = nested_tags();
        let p = Earley::new(&g);
        assert!(p.accepts(b""));
        assert!(p.accepts(b"<a></a>"));
        assert!(p.accepts(b"<a><a><a></a></a></a>"));
        assert!(!p.accepts(b"<a>"));
        assert!(!p.accepts(b"<a></a><a></a>")); // not a single nest
    }

    #[test]
    fn accepts_left_recursive_star_expansion() {
        let g = running_example();
        let p = Earley::new(&g);
        assert!(p.accepts(b""));
        assert!(p.accepts(b"hi"));
        assert!(p.accepts(b"<a>hi</a>"));
        assert!(p.accepts(b"<a><a>h</a>i</a>hh"));
        assert!(!p.accepts(b"<a>hi</a"));
        assert!(!p.accepts(b"x"));
    }

    #[test]
    fn rejects_byte_outside_class() {
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        b.prod(a, cls(CharClass::range(b'0', b'9')));
        let g = b.build(a).unwrap();
        let p = Earley::new(&g);
        assert!(p.accepts(b"7"));
        assert!(!p.accepts(b"a"));
        assert!(!p.accepts(b""));
        assert!(!p.accepts(b"77"));
    }

    #[test]
    fn parse_tree_yield_equals_input() {
        let g = running_example();
        let p = Earley::new(&g);
        let input = b"<a><a>h</a>i</a>hh";
        let tree = p.parse(input).expect("member");
        assert_eq!(tree.to_bytes(), input.to_vec());
        let (s, e) = tree.span();
        assert_eq!((s, e), (0, input.len()));
    }

    #[test]
    fn parse_rejects_nonmember() {
        let g = running_example();
        let p = Earley::new(&g);
        assert!(p.parse(b"<a>").is_none());
        assert!(p.parse(b"z").is_none());
    }

    #[test]
    fn parse_of_empty_input_with_nullable_start() {
        let g = running_example();
        let p = Earley::new(&g);
        let tree = p.parse(b"").expect("ε is a member");
        assert_eq!(tree.to_bytes(), Vec::<u8>::new());
    }

    #[test]
    fn parse_tree_nodes_enumerates_nonterminals() {
        let g = running_example();
        let p = Earley::new(&g);
        let tree = p.parse(b"<a>h</a>").expect("member");
        let nodes = tree.nodes();
        // At least: root A, inner A (for "h"), B (tag), B (h), plus the
        // left-recursion spine nodes.
        assert!(nodes.len() >= 4, "got {} nodes", nodes.len());
        for n in nodes {
            let (s, e) = n.span();
            assert!(s <= e && e <= 8);
        }
    }

    #[test]
    fn handles_unary_cycles() {
        // A → B | x ; B → A. Unary cycle must not hang.
        let mut b = GrammarBuilder::new();
        let a = b.nt("A");
        let bb = b.nt("B");
        b.prod(a, nt(bb));
        b.prod(a, lit(b"x"));
        b.prod(bb, nt(a));
        let g = b.build(a).unwrap();
        let p = Earley::new(&g);
        assert!(p.accepts(b"x"));
        assert!(!p.accepts(b"y"));
        let tree = p.parse(b"x").expect("member");
        assert_eq!(tree.to_bytes(), b"x".to_vec());
    }

    #[test]
    fn handles_ambiguity() {
        // S → S S | 'a' | ε : highly ambiguous.
        let mut b = GrammarBuilder::new();
        let s = b.nt("S");
        b.prod(s, [nt(s), nt(s)].concat());
        b.prod(s, lit(b"a"));
        b.prod(s, vec![]);
        let g = b.build(s).unwrap();
        let p = Earley::new(&g);
        for n in 0..8 {
            let input = b"a".repeat(n);
            assert!(p.accepts(&input), "n={n}");
            let t = p.parse(&input).expect("member");
            assert_eq!(t.to_bytes(), input);
        }
        assert!(!p.accepts(b"b"));
    }

    #[test]
    fn scratch_survives_stamp_wraparound_and_trimming() {
        let g = running_example();
        let p = Earley::new(&g);
        // Ten sets per query: the second query runs out of stamps and
        // clears the tables.
        CHART.with(|c| c.borrow_mut().clock = u32::MAX - 20);
        for _ in 0..5 {
            assert!(p.accepts(b"<a>hi</a>"));
            assert!(!p.accepts(b"<a>hi</a"));
        }
        // A long input grows the scratch past what a thread keeps.
        assert!(p.accepts(&b"h".repeat(RETAINED_ENTRIES)));
        assert!(CHART.with(|c| c.borrow().entries()) <= RETAINED_ENTRIES);
        assert!(p.accepts(b"<a>hi</a>"));
        assert!(!p.accepts(b"<a>hi</a"));

        let r = &p.recognizer;
        let batch: [&[u8]; 6] =
            [b"<a>hi</a>", b"<a>hi</a", b"<a>hx</a>", b"<a>ih</a>", b"", b"<a>"];
        let expected = [true, false, false, true, true, false];
        // The stamps run out at the second input of a batch, which then goes
        // on from a cleared chart.
        CHART.with(|c| c.borrow_mut().clock = u32::MAX - 12);
        assert_eq!(r.accepts_batch(&batch), expected);
        assert!(CHART.with(|c| c.borrow().clock) < 100, "the batch crossed the wraparound");
        assert_eq!(r.accepts_batch(&batch), expected);
        // One input of a batch grows the scratch past what a thread keeps.
        let long = b"h".repeat(RETAINED_ENTRIES);
        let mut long_bad = long.clone();
        long_bad[RETAINED_ENTRIES / 2] = b'x';
        let grown: [&[u8]; 4] = [b"<a>hi</a>", &long, &long_bad, b"<a>hi</a"];
        assert_eq!(r.accepts_batch(&grown), [true, true, false, false]);
        assert!(CHART.with(|c| c.borrow().entries()) <= RETAINED_ENTRIES);
        assert_eq!(r.accepts_batch(&batch), expected);
    }

    #[test]
    fn matching_parentheses_with_regular_decoration() {
        // Generalized matching parentheses (Definition 5.2):
        // S → ( R (S)* R' )* with R = "(", R' = ")".
        let mut b = GrammarBuilder::new();
        let s = b.nt("S");
        let item = b.nt("I");
        b.prod(s, vec![]);
        b.prod(s, [nt(s), nt(item)].concat());
        b.prod(item, [lit(b"("), nt(s), lit(b")")].concat());
        let g = b.build(s).unwrap();
        let p = Earley::new(&g);
        assert!(p.accepts(b"()(())"));
        assert!(p.accepts(b"((()))()"));
        assert!(!p.accepts(b"(()"));
        assert!(!p.accepts(b")("));
    }
}
