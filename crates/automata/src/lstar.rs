//! Angluin's L-Star algorithm (the first baseline of Section 8.2).
//!
//! L-Star learns a regular language from a membership oracle and an
//! equivalence oracle. In the grammar-synthesis setting no true equivalence
//! oracle exists, so — following the paper — the equivalence oracle is
//! approximated by random sampling ([`SamplingEquivalence`]): the hypothesis
//! is accepted if no disagreement with the membership oracle is found within
//! a fixed number of samples. A perfect product-automaton oracle
//! ([`PerfectEquivalence`]) is provided for unit tests, where L-Star's exact
//! learning guarantee must hold.

use crate::{Alphabet, Dfa};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Decides whether a hypothesis DFA matches the target language, returning a
/// counterexample string on which they disagree.
pub trait EquivalenceOracle {
    /// Returns `Some(w)` with `hypothesis.accepts(w) != target(w)`, or
    /// `None` to accept the hypothesis.
    fn counterexample(&mut self, hypothesis: &Dfa) -> Option<Vec<u8>>;
}

/// Perfect equivalence oracle backed by a known target DFA (tests only).
#[derive(Debug, Clone)]
pub struct PerfectEquivalence {
    target: Dfa,
}

impl PerfectEquivalence {
    /// Creates an oracle for `target`.
    pub fn new(target: Dfa) -> Self {
        PerfectEquivalence { target }
    }
}

impl EquivalenceOracle for PerfectEquivalence {
    fn counterexample(&mut self, hypothesis: &Dfa) -> Option<Vec<u8>> {
        self.target.difference_witness(hypothesis)
    }
}

/// The paper's sampling approximation of an equivalence oracle: draw up to
/// `samples` strings from a generator and report the first disagreement with
/// the membership predicate.
pub struct SamplingEquivalence<G, M> {
    generator: G,
    membership: M,
    samples: usize,
}

impl<G, M> SamplingEquivalence<G, M>
where
    G: FnMut() -> Vec<u8>,
    M: FnMut(&[u8]) -> bool,
{
    /// Creates an oracle drawing at most `samples` strings per equivalence
    /// query (the paper uses 50).
    pub fn new(generator: G, membership: M, samples: usize) -> Self {
        SamplingEquivalence { generator, membership, samples }
    }
}

impl<G, M> EquivalenceOracle for SamplingEquivalence<G, M>
where
    G: FnMut() -> Vec<u8>,
    M: FnMut(&[u8]) -> bool,
{
    fn counterexample(&mut self, hypothesis: &Dfa) -> Option<Vec<u8>> {
        for _ in 0..self.samples {
            let w = (self.generator)();
            if hypothesis.accepts(&w) != (self.membership)(&w) {
                return Some(w);
            }
        }
        None
    }
}

/// Resource limits for a learning run, emulating the paper's 300-second
/// timeout.
#[derive(Debug, Clone, Copy)]
pub struct LearnBudget {
    /// Maximum number of membership queries.
    pub max_queries: usize,
    /// Wall-clock limit.
    pub time_limit: Duration,
}

impl Default for LearnBudget {
    fn default() -> Self {
        LearnBudget { max_queries: 2_000_000, time_limit: Duration::from_secs(300) }
    }
}

/// Result of a learning run.
#[derive(Debug, Clone)]
pub struct LearnResult {
    /// The final (or best-effort, on budget exhaustion) hypothesis.
    pub dfa: Dfa,
    /// Number of membership queries issued.
    pub membership_queries: usize,
    /// Number of equivalence queries issued.
    pub equivalence_queries: usize,
    /// Whether the run finished (equivalence oracle accepted) rather than
    /// exhausting its budget.
    pub completed: bool,
}

/// Angluin's L-Star learner over a fixed alphabet.
///
/// # Examples
///
/// ```
/// use glade_automata::{dfa_from_regex, Alphabet, LStar, PerfectEquivalence};
/// use glade_grammar::Regex;
///
/// let sigma = Alphabet::from_bytes(b"ab");
/// let target = dfa_from_regex(&Regex::star(Regex::lit(b"ab")), sigma.clone());
/// let t = target.clone();
/// let mut membership = |w: &[u8]| t.accepts(w);
/// let mut equiv = PerfectEquivalence::new(target.clone());
/// let result = LStar::new(sigma).learn(&mut membership, &mut equiv);
/// assert!(result.completed);
/// assert!(result.dfa.equivalent(&target));
/// ```
#[derive(Debug, Clone)]
pub struct LStar {
    alphabet: Alphabet,
    budget: LearnBudget,
}

impl LStar {
    /// Creates a learner with the default budget.
    pub fn new(alphabet: Alphabet) -> Self {
        LStar { alphabet, budget: LearnBudget::default() }
    }

    /// Sets the resource budget.
    pub fn with_budget(mut self, budget: LearnBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs the learner.
    pub fn learn(
        &self,
        membership: &mut dyn FnMut(&[u8]) -> bool,
        equivalence: &mut dyn EquivalenceOracle,
    ) -> LearnResult {
        let start_time = Instant::now();
        let mut table = ObservationTable::new(self.alphabet.clone());
        let mut queries = 0usize;
        let mut eq_queries = 0usize;
        let mut last_hypothesis: Option<Dfa> = None;

        let over_budget = |queries: usize, start_time: Instant, budget: &LearnBudget| {
            queries >= budget.max_queries || start_time.elapsed() >= budget.time_limit
        };

        loop {
            // Close and make consistent, querying as needed.
            loop {
                if over_budget(queries, start_time, &self.budget)
                    || !table.fill(membership, &mut queries, self.budget.max_queries)
                {
                    return self.bail(table, queries, eq_queries, last_hypothesis);
                }
                if let Some(unclosed) = table.find_unclosed() {
                    table.add_prefix(unclosed);
                    continue;
                }
                if let Some(new_suffix) = table.find_inconsistent() {
                    table.add_suffix(new_suffix);
                    continue;
                }
                break;
            }
            let hyp = table.to_dfa();
            last_hypothesis = Some(hyp.clone());
            eq_queries += 1;
            match equivalence.counterexample(&hyp) {
                None => {
                    return LearnResult {
                        dfa: hyp,
                        membership_queries: queries,
                        equivalence_queries: eq_queries,
                        completed: true,
                    };
                }
                Some(cex) => {
                    // Filter counterexamples containing out-of-alphabet
                    // bytes: the hypothesis space cannot express them.
                    if cex.iter().all(|&b| self.alphabet.index_of(b).is_some()) {
                        for plen in 1..=cex.len() {
                            table.add_prefix(cex[..plen].to_vec());
                        }
                    }
                    if over_budget(queries, start_time, &self.budget) {
                        return self.bail(table, queries, eq_queries, last_hypothesis);
                    }
                }
            }
        }
    }

    /// Ends a run that hit its budget with the last hypothesis built.
    fn bail(
        &self,
        table: ObservationTable,
        queries: usize,
        eq_queries: usize,
        last_hypothesis: Option<Dfa>,
    ) -> LearnResult {
        let dfa = last_hypothesis.unwrap_or_else(|| {
            // No hypothesis was ever built; return the trie of known-positive
            // prefixes so the result is at least consistent with the cache.
            let positives: Vec<Vec<u8>> =
                table.cache.iter().filter(|(_, &v)| v).map(|(k, _)| k.clone()).collect();
            Dfa::from_strings(self.alphabet.clone(), positives)
        });
        LearnResult {
            dfa,
            membership_queries: queries,
            equivalence_queries: eq_queries,
            completed: false,
        }
    }
}

/// The classic L-Star observation table `(S, E, T)`.
struct ObservationTable {
    alphabet: Alphabet,
    /// Access prefixes `S` (deduplicated, insertion order).
    prefixes: Vec<Vec<u8>>,
    /// Distinguishing suffixes `E`.
    suffixes: Vec<Vec<u8>>,
    /// Membership cache `T`.
    cache: HashMap<Vec<u8>, bool>,
}

impl ObservationTable {
    fn new(alphabet: Alphabet) -> Self {
        ObservationTable {
            alphabet,
            prefixes: vec![Vec::new()],
            suffixes: vec![Vec::new()],
            cache: HashMap::new(),
        }
    }

    fn add_prefix(&mut self, p: Vec<u8>) {
        if !self.prefixes.contains(&p) {
            self.prefixes.push(p);
        }
    }

    fn add_suffix(&mut self, s: Vec<u8>) {
        if !self.suffixes.contains(&s) {
            self.suffixes.push(s);
        }
    }

    /// Ensures every needed cell is cached, posing queries only while
    /// `queries` is below `max_queries`; returns whether every cell is.
    fn fill(
        &mut self,
        membership: &mut dyn FnMut(&[u8]) -> bool,
        queries: &mut usize,
        max_queries: usize,
    ) -> bool {
        let mut words: Vec<Vec<u8>> = Vec::new();
        for p in &self.prefixes {
            for ext in self.one_extensions(p) {
                for s in &self.suffixes {
                    let mut w = ext.clone();
                    w.extend_from_slice(s);
                    words.push(w);
                }
            }
        }
        for w in words {
            if let std::collections::hash_map::Entry::Vacant(e) = self.cache.entry(w) {
                if *queries >= max_queries {
                    return false;
                }
                *queries += 1;
                let v = membership(e.key());
                e.insert(v);
            }
        }
        true
    }

    /// `p` itself plus `p·a` for every symbol `a`.
    fn one_extensions(&self, p: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(self.alphabet.len() + 1);
        out.push(p.to_vec());
        for a in self.alphabet.iter() {
            let mut e = p.to_vec();
            e.push(a);
            out.push(e);
        }
        out
    }

    fn row(&self, p: &[u8]) -> Vec<bool> {
        self.suffixes
            .iter()
            .map(|s| {
                let mut w = p.to_vec();
                w.extend_from_slice(s);
                *self.cache.get(&w).unwrap_or(&false)
            })
            .collect()
    }

    /// Finds `p·a` whose row matches no prefix row (table not closed).
    fn find_unclosed(&self) -> Option<Vec<u8>> {
        let rows: Vec<Vec<bool>> = self.prefixes.iter().map(|p| self.row(p)).collect();
        for p in &self.prefixes {
            for a in self.alphabet.iter() {
                let mut ext = p.clone();
                ext.push(a);
                if !rows.contains(&self.row(&ext)) {
                    return Some(ext);
                }
            }
        }
        None
    }

    /// Finds a new suffix witnessing an inconsistency (two equal prefix rows
    /// whose one-symbol extensions differ).
    fn find_inconsistent(&self) -> Option<Vec<u8>> {
        for (i, p1) in self.prefixes.iter().enumerate() {
            for p2 in self.prefixes.iter().skip(i + 1) {
                if self.row(p1) != self.row(p2) {
                    continue;
                }
                for a in self.alphabet.iter() {
                    let mut e1 = p1.clone();
                    e1.push(a);
                    let mut e2 = p2.clone();
                    e2.push(a);
                    for (k, s) in self.suffixes.iter().enumerate() {
                        let r1 = self.row(&e1);
                        let r2 = self.row(&e2);
                        if r1[k] != r2[k] {
                            let mut new_suffix = vec![a];
                            new_suffix.extend_from_slice(s);
                            return Some(new_suffix);
                        }
                    }
                }
            }
        }
        None
    }

    /// Builds the hypothesis DFA from a closed, consistent table.
    fn to_dfa(&self) -> Dfa {
        let mut row_ids: HashMap<Vec<bool>, u32> = HashMap::new();
        let mut reps: Vec<Vec<u8>> = Vec::new();
        for p in &self.prefixes {
            let r = self.row(p);
            row_ids.entry(r).or_insert_with(|| {
                reps.push(p.clone());
                (reps.len() - 1) as u32
            });
        }
        let k = self.alphabet.len();
        let n = reps.len();
        let mut trans = vec![vec![0u32; k]; n];
        let mut accepting = vec![false; n];
        for (i, rep) in reps.iter().enumerate() {
            let row = self.row(rep);
            // ε ∈ E is always the first suffix, so acceptance is row[0].
            accepting[i] = row[0];
            for (a, b) in self.alphabet.iter().enumerate() {
                let mut ext = rep.clone();
                ext.push(b);
                let ext_row = self.row(&ext);
                // Closedness guarantees the row exists.
                trans[i][a] = *row_ids.get(&ext_row).expect("table closed");
            }
        }
        let start = *row_ids.get(&self.row(&[])).expect("ε row present");
        Dfa::new(self.alphabet.clone(), trans, accepting, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa_from_regex;
    use glade_grammar::Regex;
    use rand::Rng;
    use rand::SeedableRng;

    fn exact_learn(target: &Dfa) -> LearnResult {
        let t1 = target.clone();
        let mut membership = move |w: &[u8]| t1.accepts(w);
        let mut equiv = PerfectEquivalence::new(target.clone());
        LStar::new(target.alphabet().clone()).learn(&mut membership, &mut equiv)
    }

    #[test]
    fn learns_ab_star_exactly() {
        let sigma = Alphabet::from_bytes(b"ab");
        let target = dfa_from_regex(&Regex::star(Regex::lit(b"ab")), sigma);
        let r = exact_learn(&target);
        assert!(r.completed);
        assert!(r.dfa.equivalent(&target));
        assert_eq!(r.dfa.minimize().num_states(), target.num_states());
    }

    #[test]
    fn learns_language_with_modular_structure() {
        // Strings over {a,b} with an even number of a's and ending in b.
        let sigma = Alphabet::from_bytes(b"ab");
        // states: (parity of a) x (last byte == b) + initial
        // Build via regex: (b|ab*a)* b  ... simpler to hand-code target:
        let target = Dfa::new(
            sigma,
            vec![
                // (even, last-not-b)=q0, (even,last-b)=q1, (odd,*)=q2,q3
                vec![2, 1], // q0: a->odd, b->even+b
                vec![2, 1], // q1
                vec![0, 3], // q2: a->even(last a), b->odd+b
                vec![0, 3], // q3
            ],
            vec![false, true, false, false],
            0,
        );
        let r = exact_learn(&target);
        assert!(r.completed);
        assert!(r.dfa.equivalent(&target));
    }

    #[test]
    fn learns_finite_language() {
        let sigma = Alphabet::from_bytes(b"xy");
        let target = Dfa::from_strings(sigma, [b"x".as_slice(), b"xy".as_slice()]).minimize();
        let r = exact_learn(&target);
        assert!(r.completed);
        assert!(r.dfa.equivalent(&target));
    }

    #[test]
    fn query_budget_is_respected() {
        let sigma = Alphabet::from_bytes(b"ab");
        let target = dfa_from_regex(&Regex::star(Regex::lit(b"ab")), sigma.clone());
        let t1 = target.clone();
        let mut membership = move |w: &[u8]| t1.accepts(w);
        let mut equiv = PerfectEquivalence::new(target);
        let budget = LearnBudget { max_queries: 3, time_limit: Duration::from_secs(300) };
        let r = LStar::new(sigma).with_budget(budget).learn(&mut membership, &mut equiv);
        assert!(!r.completed);
        // A best-effort DFA is still produced.
        assert!(r.dfa.num_states() >= 1);
    }

    #[test]
    fn query_cap_bounds_the_queries_posed() {
        // Learning this language needs more queries than any cap below
        // (the first table fill alone needs |Σ| + 1 = 6): each capped run
        // stops at its cap, even in the middle of a fill.
        let sigma = Alphabet::from_bytes(b"abcde");
        let target = dfa_from_regex(&Regex::star(Regex::lit(b"abc")), sigma.clone());
        let needed = exact_learn(&target).membership_queries;
        for cap in [4, 20, 50, needed - 1] {
            let t1 = target.clone();
            let mut membership = move |w: &[u8]| t1.accepts(w);
            let mut equiv = PerfectEquivalence::new(target.clone());
            let budget = LearnBudget { max_queries: cap, time_limit: Duration::from_secs(300) };
            let r =
                LStar::new(sigma.clone()).with_budget(budget).learn(&mut membership, &mut equiv);
            assert!(
                r.membership_queries <= cap,
                "{} queries over a cap of {cap}",
                r.membership_queries
            );
            assert!(!r.completed, "cap {cap} of {needed}");
        }
    }

    #[test]
    fn sampling_equivalence_finds_counterexamples() {
        let sigma = Alphabet::from_bytes(b"ab");
        let target = dfa_from_regex(&Regex::star(Regex::lit(b"ab")), sigma.clone());
        let t1 = target.clone();
        let t2 = target.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let gen = move || {
            let len = rng.gen_range(0..8);
            (0..len).map(|_| if rng.gen_bool(0.5) { b'a' } else { b'b' }).collect::<Vec<u8>>()
        };
        let membership = move |w: &[u8]| t1.accepts(w);
        let mut equiv = SamplingEquivalence::new(gen, membership, 200);
        // Hypothesis = everything: must be refuted quickly.
        let all = Dfa::new(sigma, vec![vec![0, 0]], vec![true], 0);
        let cex = equiv.counterexample(&all).expect("must find counterexample");
        assert_ne!(all.accepts(&cex), t2.accepts(&cex));
    }

    #[test]
    fn learn_with_sampling_equivalence_approximates() {
        let sigma = Alphabet::from_bytes(b"ab");
        let target = dfa_from_regex(&Regex::star(Regex::lit(b"ab")), sigma.clone());
        let t1 = target.clone();
        let t2 = target.clone();
        let mut membership = move |w: &[u8]| t1.accepts(w);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let gen = move || {
            let len = rng.gen_range(0..10);
            (0..len).map(|_| if rng.gen_bool(0.5) { b'a' } else { b'b' }).collect::<Vec<u8>>()
        };
        let t3 = target.clone();
        let mem2 = move |w: &[u8]| t3.accepts(w);
        let mut equiv = SamplingEquivalence::new(gen, mem2, 100);
        let r = LStar::new(sigma).learn(&mut membership, &mut equiv);
        assert!(r.completed);
        // With 100 samples over a tiny language this should be exact.
        assert!(r.dfa.equivalent(&t2));
    }
}
