//! Character generalization (Section 6.2 of the paper).
//!
//! After phase one, every terminal byte in the synthesized regular
//! expression is a literal from the seed input. This phase widens each
//! terminal position into a byte class: for terminal string `α = σ1…σk`
//! with context `(γ, δ)` and candidate byte `σ ≠ σi`, the check
//! `γ·σ1…σi−1·σ·σi+1…σk·δ` is posed to the oracle; accepted bytes join the
//! class at position `i`. Each candidate is considered exactly once.
//!
//! A `Const` node may carry several contexts (e.g. an alternation branch is
//! valid both with and without its sibling); a byte is accepted only if the
//! check passes in *every* context, which matches the two example checks
//! the paper gives for generalizing `h` (`<a>ai</a>` and `<a>a</a>`).
//!
//! # Planning in waves
//!
//! Every widening probe — each `(terminal, position, candidate byte)`
//! triple, across *all* terminals of *all* newly generalized trees — is
//! independent of every other, so [`StagedChargen`] plans them together
//! in waves. Each wave poses at most one check (one context) per live
//! probe as part of one aggregated membership batch, which the session
//! shares with phase two's merge checks (see `session.rs`) so the worker
//! pool stays saturated across the stage boundary. Verdicts are folded
//! back in planning order, so the result is independent of worker count
//! and of how a batch was scheduled.
//!
//! # The query-reduction layer
//!
//! The *unreduced plan* poses every `(position, byte, context)` check
//! unconditionally — including checks whose verdict is already
//! determined. The planner elides three kinds of provably-redundant
//! probes before they reach the query engine:
//!
//! * **Byte-class memoization.** A terminal's final classes are a pure
//!   function of its *memo key* — the 128-bit FNV-1a fingerprint of the
//!   length-prefixed `(original bytes, every context's (γ, δ), candidate
//!   alphabet)` tuple; see `memo::memo_key`. Terminals whose key matches a
//!   session [`ByteClassMemo`](crate::memo::ByteClassMemo) entry (learned
//!   by an earlier run or loaded from a cache snapshot) adopt
//!   the stored classes without posing a single probe; terminals sharing a
//!   key *within* one plan are generalized once, with the siblings copying
//!   the representative's result.
//! * **Context short-circuiting.** A byte joins a class only if accepted
//!   in *every* context, and conjunction short-circuits: probes are posed
//!   one context per wave, and a candidate rejected in context `k` never
//!   poses its checks for contexts `k+1..` — strings the unreduced plan
//!   would have paid distinct queries for.
//! * **Check canonicalization + dedup.** Distinct `(terminal, position,
//!   byte, context)` quadruples can assemble byte-identical query strings;
//!   within a wave these collapse to one posed check whose verdict fans
//!   back out to every owner, and checks already answered by the session
//!   cache are folded at plan time without reaching the engine at all.
//!
//! All three elisions are *exact*: the accepted byte set — and therefore
//! the synthesized grammar — is byte-identical to the unreduced plan's for
//! a deterministic oracle. The test-only `reference` module keeps the
//! unreduced one-shot planner and pins this equality. The count of avoided
//! checks is surfaced as
//! [`SynthesisStats::probes_elided`](crate::SynthesisStats::probes_elided)
//! and the [`SynthEvent::ProbesElided`](crate::SynthEvent::ProbesElided)
//! event.

use crate::arena::{KeyArena, KeySet};
use crate::cache::QueryCache;
use crate::memo::{memo_key, ByteClassMemo};
use crate::runner::CheckSpec;
use crate::tree::{ConstNode, Node};
use glade_grammar::CharClass;
use std::collections::HashMap;

/// The bytes character generalization tries at each terminal position:
/// printable ASCII (0x20..=0x7e) plus tab and newline.
pub(crate) const TEST_BYTES: &[u8] =
    b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\t\n";

/// How one planned terminal obtains its byte classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConstSource {
    /// Generalized by live probes (the terminal is its key's representative).
    Probed,
    /// Adopted wholesale from the session memo table.
    FromMemo,
    /// Copies the final classes of the representative const at this index.
    Sibling(usize),
}

/// Per-terminal planning state of a staged run.
#[derive(Debug)]
struct StagedConst<'t> {
    node: &'t ConstNode,
    /// Memo fingerprint; `None` for empty terminals (nothing to probe or
    /// memoize).
    key: Option<u128>,
    /// Working copy of the byte classes, mutated as probes accept.
    classes: Vec<CharClass>,
    source: ConstSource,
}

/// One `(terminal, position, candidate byte)` widening probe advancing
/// through its contexts one wave at a time.
#[derive(Debug, Clone, Copy)]
struct StagedProbe {
    const_idx: usize,
    position: usize,
    /// Index into the candidate alphabet (so the posed check can borrow
    /// the byte from the test-byte slice).
    byte_idx: usize,
    /// Contexts already accepted; the probe's next check uses this context.
    next_ctx: usize,
}

/// The owned result of a staged character-generalization run: everything
/// the session needs after the tree borrow is released.
#[derive(Debug)]
pub(crate) struct ChargenOutcome {
    /// Final per-terminal classes, in const visit order over the planned
    /// tree slice.
    pub classes: Vec<Vec<CharClass>>,
    /// `(position, byte)` pairs accepted — the unreduced plan's count, so
    /// `chars_generalized` is the same however the classes were obtained.
    pub accepted: usize,
    /// Terminals whose classes were adopted (memo table or in-plan
    /// sibling) instead of probed.
    pub memo_hits: usize,
    /// Checks the unreduced plan would have posed that never reached the
    /// query engine (adopted terminals, short-circuited contexts, in-wave
    /// duplicates, and plan-time cache folds).
    pub probes_elided: usize,
    /// Freshly learned `(key, classes)` pairs for the session memo table.
    /// The session must discard these if the run degraded (budget/cancel):
    /// fail-closed verdicts are not facts about the language.
    pub memo_inserts: Vec<(u128, Vec<CharClass>)>,
}

/// Wave-driven character-generalization planner (see the module docs'
/// query-reduction section).
///
/// Drive it as: loop { [`StagedChargen::plan_wave`] → pose the returned
/// checks → [`StagedChargen::fold_wave`] } until `plan_wave` appends no
/// checks, then [`StagedChargen::finish`]. Each wave poses at most one
/// check (one context) per live probe, so the loop runs at most
/// `max contexts per terminal` waves.
#[derive(Debug)]
pub(crate) struct StagedChargen<'t> {
    test_bytes: &'t [u8],
    consts: Vec<StagedConst<'t>>,
    /// Probes ready to plan their next context.
    active: Vec<StagedProbe>,
    /// This wave's distinct checks in planning order (= the wave's verdict
    /// order), each owned by the probes parked on it.
    keys: KeyArena<StagedProbe>,
    accepted: usize,
    memo_hits: usize,
    probes_elided: usize,
}

impl<'t> StagedChargen<'t> {
    /// Plans the staged run over `trees`, consulting (but not updating)
    /// the session memo table for wholesale class adoption.
    pub fn new(trees: &'t [Node], test_bytes: &'t [u8], memo: &ByteClassMemo) -> Self {
        let mut consts: Vec<StagedConst<'t>> = Vec::new();
        for tree in trees {
            tree.visit_consts(&mut |c| {
                consts.push(StagedConst {
                    node: c,
                    key: None,
                    classes: c.classes.clone(),
                    source: ConstSource::Probed,
                });
            });
        }
        let mut staged = StagedChargen {
            test_bytes,
            consts,
            active: Vec::new(),
            keys: KeyArena::default(),
            accepted: 0,
            memo_hits: 0,
            probes_elided: 0,
        };
        let mut key_to_rep: HashMap<u128, usize> = HashMap::new();
        for idx in 0..staged.consts.len() {
            let c = staged.consts[idx].node;
            if c.original.is_empty() {
                continue;
            }
            let key = memo_key(&c.original, &c.contexts, test_bytes);
            staged.consts[idx].key = Some(key);
            // The number of checks the unreduced plan would pose for this
            // terminal — the elision value of adopting its classes.
            let full_cost = staged.probe_cost(idx);
            if let Some(stored) = memo.get(key) {
                // Guard against a corrupted snapshot (or an astronomically
                // unlikely fingerprint collision): a stored entry that does
                // not even match the terminal's shape is ignored.
                if stored.len() == c.original.len() {
                    staged.consts[idx].classes = stored.clone();
                    staged.consts[idx].source = ConstSource::FromMemo;
                    staged.memo_hits += 1;
                    staged.probes_elided += full_cost;
                    continue;
                }
            }
            if let Some(&rep) = key_to_rep.get(&key) {
                staged.consts[idx].source = ConstSource::Sibling(rep);
                staged.memo_hits += 1;
                staged.probes_elided += full_cost;
                continue;
            }
            key_to_rep.insert(key, idx);
            for position in 0..c.original.len() {
                for (byte_idx, &sigma) in test_bytes.iter().enumerate() {
                    if sigma == c.original[position] || c.classes[position].contains(sigma) {
                        continue;
                    }
                    staged.active.push(StagedProbe {
                        const_idx: idx,
                        position,
                        byte_idx,
                        next_ctx: 0,
                    });
                }
            }
        }
        staged
    }

    /// Checks the unreduced plan would pose for const `idx` (probe count ×
    /// context count).
    fn probe_cost(&self, idx: usize) -> usize {
        let c = self.consts[idx].node;
        let mut probes = 0usize;
        for position in 0..c.original.len() {
            probes += self
                .test_bytes
                .iter()
                .filter(|&&sigma| {
                    sigma != c.original[position] && !c.classes[position].contains(sigma)
                })
                .count();
        }
        probes * c.contexts.len()
    }

    /// Appends the check `γ·α[..i]·σ·α[i+1..]·δ` for `probe`'s next context.
    fn check_spec(&self, probe: &StagedProbe) -> CheckSpec<'t> {
        let c = self.consts[probe.const_idx].node;
        let ctx = &c.contexts[probe.next_ctx];
        CheckSpec::new(&[
            &ctx.before,
            &c.original[..probe.position],
            &self.test_bytes[probe.byte_idx..probe.byte_idx + 1],
            &c.original[probe.position + 1..],
            &ctx.after,
        ])
    }

    /// Plans the next wave: every live probe either resolves against the
    /// session cache (possibly through several contexts), accepts, dies,
    /// or poses exactly one check. Returns the number of distinct checks
    /// planned (pose them through [`StagedChargen::keys_mut`]); zero means
    /// the staged run is complete (every probe resolved).
    pub fn plan_wave(&mut self, cache: &QueryCache) -> usize {
        debug_assert!(self.keys.len() == 0, "previous wave not folded");
        for mut probe in std::mem::take(&mut self.active) {
            loop {
                let num_contexts = self.consts[probe.const_idx].node.contexts.len();
                if probe.next_ctx == num_contexts {
                    // Accepted in every context: the byte joins the class.
                    self.consts[probe.const_idx].classes[probe.position]
                        .insert(self.test_bytes[probe.byte_idx]);
                    self.accepted += 1;
                    break;
                }
                let spec = self.check_spec(&probe);
                let h = self.keys.stage(|buf| spec.write_into(buf));
                match cache.get_hashed(h, self.keys.staged()) {
                    Some(true) => {
                        // Cache fold: the unreduced plan would have posed
                        // this (as a cache hit); the probe advances free.
                        self.probes_elided += 1;
                        probe.next_ctx += 1;
                    }
                    Some(false) => {
                        // Rejected: this check and every later context's
                        // are elided; the probe dies.
                        self.probes_elided += num_contexts - probe.next_ctx;
                        break;
                    }
                    None => {
                        // A genuine miss: pose it — unless an identical
                        // string is already posed this wave, in which case
                        // the probe co-owns that slot's verdict.
                        if !self.keys.intern_staged(h, probe) {
                            self.probes_elided += 1;
                        }
                        break;
                    }
                }
            }
        }
        self.keys.len()
    }

    /// The wave's planned checks, in verdict order, for
    /// [`QueryRunner::pose`](crate::runner::QueryRunner::pose). Every slot
    /// missed the cache when it was planned.
    pub fn keys_mut(&mut self) -> &mut KeySet {
        self.keys.keys_mut()
    }

    /// Folds the wave's verdicts (one per planned check, in order) back
    /// into the probes: accepted probes advance to their next context,
    /// rejected probes die and elide their remaining contexts.
    pub fn fold_wave(&mut self, verdicts: &[bool]) {
        debug_assert_eq!(verdicts.len(), self.keys.len());
        for (slot, &verdict) in verdicts.iter().enumerate() {
            for &probe in self.keys.owners(slot) {
                if verdict {
                    self.active.push(StagedProbe { next_ctx: probe.next_ctx + 1, ..probe });
                } else {
                    let num_contexts = self.consts[probe.const_idx].node.contexts.len();
                    self.probes_elided += num_contexts - probe.next_ctx - 1;
                }
            }
        }
        self.keys.clear();
    }

    /// Resolves adopted terminals and returns the owned outcome. Call only
    /// after `plan_wave` returned zero.
    pub fn finish(self) -> ChargenOutcome {
        debug_assert!(self.active.is_empty() && self.keys.len() == 0, "staged run incomplete");
        let StagedChargen { test_bytes, consts, accepted, memo_hits, probes_elided, .. } = self;
        let mut accepted = accepted;
        // Snapshot the representatives' classes first, so sibling
        // resolution is order-independent.
        let rep_classes: Vec<Vec<CharClass>> = consts.iter().map(|c| c.classes.clone()).collect();
        let mut classes: Vec<Vec<CharClass>> = Vec::with_capacity(consts.len());
        let mut memo_inserts: Vec<(u128, Vec<CharClass>)> = Vec::new();
        for c in &consts {
            let finals = match c.source {
                ConstSource::Sibling(rep) => rep_classes[rep].clone(),
                _ => c.classes.clone(),
            };
            if !matches!(c.source, ConstSource::Probed) {
                // Adopted terminals still count the (position, byte) pairs
                // the unreduced plan would have accepted: exactly the
                // probe-generating candidates that ended up in the class.
                for (position, &orig) in c.node.original.iter().enumerate() {
                    accepted += test_bytes
                        .iter()
                        .filter(|&&sigma| {
                            sigma != orig
                                && !c.node.classes[position].contains(sigma)
                                && finals[position].contains(sigma)
                        })
                        .count();
                }
            }
            if matches!(c.source, ConstSource::Probed) {
                if let Some(key) = c.key {
                    memo_inserts.push((key, finals.clone()));
                }
            }
            classes.push(finals);
        }
        ChargenOutcome { classes, accepted, memo_hits, probes_elided, memo_inserts }
    }
}

/// Writes a [`ChargenOutcome`]'s final classes back into `trees` (the same
/// slice the staged run planned), pairing terminals by visit order.
pub(crate) fn apply_staged_classes(trees: &mut [Node], classes: &[Vec<CharClass>]) {
    let mut cursor = 0usize;
    for tree in trees {
        tree.visit_consts_mut(&mut |c| {
            c.classes = classes[cursor].clone();
            cursor += 1;
        });
    }
    debug_assert_eq!(cursor, classes.len(), "every planned terminal applied");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::QueryCache;
    use crate::phase1::Phase1;
    use crate::runner::{QueryRunner, RunnerOptions};
    use crate::testing::xml_like;
    use crate::{FnOracle, Oracle};

    fn test_runner<'s>(oracle: &'s dyn Oracle, cache: &'s mut QueryCache) -> QueryRunner<'s> {
        QueryRunner::new(oracle, cache, RunnerOptions { workers: 2, ..RunnerOptions::default() })
    }

    #[test]
    fn running_example_generalizes_letters_not_structure() {
        // Section 6.2: h and i generalize to a..z; the tag bytes < a > /
        // do not generalize.
        let oracle = FnOracle::new(xml_like);
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"<a>hi</a>")];
        widen(&mut trees, &mut runner);
        let r = trees[0].to_regex();
        // Letters widened.
        assert!(r.is_match(b"<a>zz</a>"));
        assert!(r.is_match(b"<a>qrs</a>"));
        // Structure intact.
        assert!(!r.is_match(b"<b>hh</b>"));
        assert!(!r.is_match(b"aa>hh</a>"));
        assert!(!r.is_match(b"<a>h h</a>")); // space not in a..z
    }

    #[test]
    fn digits_generalize_in_digit_language() {
        // L = nonempty digit strings.
        let oracle = FnOracle::new(|i: &[u8]| !i.is_empty() && i.iter().all(u8::is_ascii_digit));
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"7")];
        widen(&mut trees, &mut runner);
        let r = trees[0].to_regex();
        for d in b'0'..=b'9' {
            assert!(r.is_match(&[d]), "digit {}", d as char);
        }
        assert!(!r.is_match(b"a"));
    }

    #[test]
    fn counts_accepted_pairs() {
        let oracle = FnOracle::new(|i: &[u8]| i.len() == 1 && i[0].is_ascii_lowercase());
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"m")];
        let n = widen(&mut trees, &mut runner);
        // 25 other lowercase letters accepted... unless phase 1 starred the
        // single letter; in this language "mm" is invalid so no star forms.
        assert_eq!(n, 25);
    }

    #[test]
    fn aggregates_across_trees_in_one_batch() {
        // Two single-letter seeds in one plan: the aggregated batch answers
        // both trees' probes, and applying distributes verdicts per tree.
        let oracle = FnOracle::new(|i: &[u8]| i.len() == 1 && i[0].is_ascii_lowercase());
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"m"), p1.generalize_seed(b"q")];
        let n = widen(&mut trees, &mut runner);
        // Each tree widens to the full lowercase class (25 accepted each).
        assert_eq!(n, 50);
        for tree in &trees {
            let r = tree.to_regex();
            assert!(r.is_match(b"a"));
            assert!(!r.is_match(b"A"));
        }
    }

    #[test]
    fn respects_budget() {
        let oracle = FnOracle::new(|_: &[u8]| true);
        let mut cache = QueryCache::new();
        let mut runner = QueryRunner::new(
            &oracle,
            &mut cache,
            RunnerOptions { max_queries: Some(0), workers: 2, ..RunnerOptions::default() },
        );
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"q")];
        let n = widen(&mut trees, &mut runner);
        assert_eq!(n, 0, "no budget, no generalization");
    }

    /// Drives a staged chargen run to completion, applies its classes, and
    /// records its fresh memo entries; returns (accepted, memo_hits,
    /// probes_elided).
    fn run_staged(
        trees: &mut [Node],
        runner: &mut QueryRunner<'_>,
        memo: &mut ByteClassMemo,
        test_bytes: &[u8],
    ) -> (usize, usize, usize) {
        let outcome = {
            let mut staged = StagedChargen::new(trees, test_bytes, memo);
            while staged.plan_wave(runner.cache()) > 0 {
                let verdicts = runner.pose(&mut [staged.keys_mut()]);
                staged.fold_wave(&verdicts);
            }
            staged.finish()
        };
        apply_staged_classes(trees, &outcome.classes);
        for (key, classes) in outcome.memo_inserts {
            memo.insert(key, classes);
        }
        (outcome.accepted, outcome.memo_hits, outcome.probes_elided)
    }

    /// Widens `trees` through a staged run with a fresh memo table over
    /// the default alphabet; returns the accepted (position, byte) pairs.
    fn widen(trees: &mut [Node], runner: &mut QueryRunner<'_>) -> usize {
        run_staged(trees, runner, &mut ByteClassMemo::new(), TEST_BYTES).0
    }

    #[test]
    fn staged_run_matches_one_shot_classes_and_counts() {
        let oracle = FnOracle::new(xml_like);

        let mut legacy_cache = QueryCache::new();
        let mut legacy_runner = test_runner(&oracle, &mut legacy_cache);
        let mut p1 = Phase1::new(&mut legacy_runner, 0);
        let mut legacy_trees = vec![p1.generalize_seed(b"<a>hi</a>")];
        let legacy_n =
            crate::reference::generalize_chars(&mut legacy_trees, &mut legacy_runner, TEST_BYTES);

        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"<a>hi</a>")];
        let mut memo = ByteClassMemo::new();
        let (accepted, _, elided) = run_staged(&mut trees, &mut runner, &mut memo, TEST_BYTES);

        assert_eq!(accepted, legacy_n, "accepted-pair parity");
        assert_eq!(
            trees[0].to_regex().to_string(),
            legacy_trees[0].to_regex().to_string(),
            "staged classes must equal the one-shot plan's"
        );
        assert!(elided > 0, "context short-circuiting elided nothing");
        assert!(
            runner.unique_queries() < legacy_runner.unique_queries(),
            "staged run posed no fewer distinct queries"
        );
    }

    #[test]
    fn identical_terminals_share_probes_within_a_run() {
        // Two identical seeds yield byte-identical terminals in identical
        // contexts: one representative is probed, siblings adopt.
        let oracle = FnOracle::new(|i: &[u8]| i.len() == 1 && i[0].is_ascii_lowercase());
        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"m"), p1.generalize_seed(b"m")];
        let mut memo = ByteClassMemo::new();
        let (accepted, memo_hits, elided) =
            run_staged(&mut trees, &mut runner, &mut memo, TEST_BYTES);
        assert_eq!(accepted, 50, "both trees widen to the 25 other lowercase letters");
        assert!(memo_hits >= 1, "duplicate terminal not shared");
        assert!(elided > 0);
        for tree in &trees {
            let r = tree.to_regex();
            assert!(r.is_match(b"a"));
            assert!(!r.is_match(b"A"));
        }
    }

    #[test]
    fn memo_adoption_poses_no_probes_and_reproduces_classes() {
        let oracle = FnOracle::new(xml_like);
        let mut memo = ByteClassMemo::new();

        let mut cache = QueryCache::new();
        let mut runner = test_runner(&oracle, &mut cache);
        let mut p1 = Phase1::new(&mut runner, 0);
        let mut trees = vec![p1.generalize_seed(b"<a>hi</a>")];
        let (first_accepted, ..) = run_staged(&mut trees, &mut runner, &mut memo, TEST_BYTES);
        assert!(
            !memo.entries_sorted().is_empty(),
            "completed run must memoize its representatives"
        );

        // Fresh cache, fresh trees, warm memo: every terminal adopts, the
        // runner sees zero chargen checks, and the classes are identical.
        let mut cache2 = QueryCache::new();
        let mut runner2 = test_runner(&oracle, &mut cache2);
        let mut p1 = Phase1::new(&mut runner2, 0);
        let mut trees2 = vec![p1.generalize_seed(b"<a>hi</a>")];
        let after_phase1 = runner2.unique_queries();
        let (accepted2, memo_hits2, _) =
            run_staged(&mut trees2, &mut runner2, &mut memo, TEST_BYTES);
        assert_eq!(runner2.unique_queries(), after_phase1, "memo adoption posed a query");
        assert!(memo_hits2 > 0);
        assert_eq!(accepted2, first_accepted, "chars_generalized parity under adoption");
        assert_eq!(trees2[0].to_regex().to_string(), trees[0].to_regex().to_string());
    }
}
