//! Byte-class memo table: the cross-run half of the query-reduction layer.
//!
//! Character generalization (Section 6.2) answers, for one terminal `α`
//! with contexts `{(γ, δ)}` and a candidate alphabet `Σ_test`, the question
//! "which byte classes do `α`'s positions widen to?" The answer is a pure
//! function of `(α, contexts, Σ_test)` and the (deterministic) oracle —
//! so identical terminals in identical contexts, which are rampant in
//! structured formats (every `"` delimiter of a url, every tag byte of an
//! xml seed), re-derive the same classes from the same probe verdicts.
//!
//! [`ByteClassMemo`] memoizes that function: the key is a 128-bit FNV-1a
//! fingerprint over the length-prefixed serialization of the terminal
//! bytes, every context's `(γ, δ)` byte strings, and the candidate
//! alphabet; the value is the learned per-position byte classes. The table
//! lives in the [`Session`](crate::Session) beside the query cache, is
//! consulted by the staged chargen planner (see `chargen.rs`) before any
//! probe is posed, and persists through cache snapshots (see
//! `persist.rs`) so later sessions warm-start past whole terminals.
//!
//! Entries are only recorded by runs that finished without degradation
//! (no budget exhaustion, no cancellation): a fail-closed `false` is not a
//! fact about the language, and memoizing classes derived from one would
//! replay the degradation into healthy runs.

use crate::tree::Context;
use glade_grammar::CharClass;
use std::collections::HashMap;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Feeds one length-prefixed byte string into the running hash, so
/// adjacent fields cannot alias (`"ab" + "c"` vs `"a" + "bc"`).
fn feed(mut h: u128, bytes: &[u8]) -> u128 {
    for b in (bytes.len() as u64).to_be_bytes().into_iter().chain(bytes.iter().copied()) {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprints one character-generalization problem instance: the
/// terminal's original bytes, every check context's `(γ, δ)`, and the
/// candidate alphabet. Two terminals with equal keys widen to equal
/// classes under a deterministic oracle.
pub(crate) fn memo_key(original: &[u8], contexts: &[Context], test_bytes: &[u8]) -> u128 {
    let mut h = feed(FNV_OFFSET, original);
    h = feed(h, &(contexts.len() as u64).to_be_bytes());
    for ctx in contexts {
        h = feed(h, &ctx.before);
        h = feed(h, &ctx.after);
    }
    feed(h, test_bytes)
}

/// Session-lifetime map from [`memo_key`] fingerprints to learned
/// per-position byte classes.
#[derive(Debug, Default)]
pub(crate) struct ByteClassMemo {
    entries: HashMap<u128, Vec<CharClass>>,
}

impl ByteClassMemo {
    pub fn new() -> Self {
        ByteClassMemo::default()
    }

    /// Looks up the learned classes for a fingerprint.
    pub fn get(&self, key: u128) -> Option<&Vec<CharClass>> {
        self.entries.get(&key)
    }

    /// Records learned classes. An existing entry keeps its value (the
    /// oracle is deterministic, so both computations agree).
    pub fn insert(&mut self, key: u128, classes: Vec<CharClass>) {
        self.entries.entry(key).or_insert(classes);
    }

    /// Copies every entry out, sorted by key, for stable serialization.
    pub fn entries_sorted(&self) -> Vec<(u128, Vec<CharClass>)> {
        let mut out: Vec<(u128, Vec<CharClass>)> =
            self.entries.iter().map(|(&k, v)| (k, v.clone())).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(before: &[u8], after: &[u8]) -> Context {
        Context { before: before.to_vec(), after: after.to_vec() }
    }

    #[test]
    fn key_is_deterministic_and_field_sensitive() {
        let base = memo_key(b"hi", &[ctx(b"<a>", b"</a>")], b"abc");
        assert_eq!(base, memo_key(b"hi", &[ctx(b"<a>", b"</a>")], b"abc"));
        assert_ne!(base, memo_key(b"ho", &[ctx(b"<a>", b"</a>")], b"abc"));
        assert_ne!(base, memo_key(b"hi", &[ctx(b"<a>", b"</b>")], b"abc"));
        assert_ne!(base, memo_key(b"hi", &[ctx(b"<a>", b"</a>")], b"abd"));
        assert_ne!(base, memo_key(b"hi", &[], b"abc"));
    }

    #[test]
    fn key_length_prefixing_prevents_field_aliasing() {
        // Moving a byte across the γ/residual boundary must change the key.
        assert_ne!(
            memo_key(b"xy", &[ctx(b"a", b"")], b""),
            memo_key(b"y", &[ctx(b"ax", b"")], b"")
        );
        // Moving a byte between γ and δ must change the key.
        assert_ne!(memo_key(b"", &[ctx(b"ab", b"")], b""), memo_key(b"", &[ctx(b"a", b"b")], b""));
        // Splitting one context into two must change the key.
        assert_ne!(
            memo_key(b"q", &[ctx(b"a", b"b")], b""),
            memo_key(b"q", &[ctx(b"a", b""), ctx(b"", b"b")], b"")
        );
    }

    #[test]
    fn table_first_insert_wins_and_sorts_stably() {
        let mut memo = ByteClassMemo::new();
        assert!(memo.get(7).is_none());
        memo.insert(7, vec![CharClass::single(b'a')]);
        memo.insert(7, vec![CharClass::single(b'z')]);
        assert_eq!(memo.get(7), Some(&vec![CharClass::single(b'a')]), "first verdict wins");
        memo.insert(3, vec![CharClass::single(b'b')]);
        let sorted = memo.entries_sorted();
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted[0].0, 3);
        assert_eq!(sorted[1].0, 7);
    }
}
