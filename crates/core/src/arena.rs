//! The keyed arena: one batch's distinct membership checks, hashed once.
//!
//! Every layer between planning a check and caching its verdict needs the
//! same bookkeeping: assemble the check's bytes, hash them, collapse
//! byte-identical checks into one posed query, and remember which owners
//! (chargen probes, merge pairs, batch positions) share that query's
//! verdict. The wave planners (`chargen.rs`, `phase2.rs`) and the runner's
//! phase-one path (`runner.rs`) all do it through [`KeyArena`]:
//!
//! * a check is assembled in one reusable staging buffer and hashed once
//!   ([`hash_query`]); the hash then travels with the key through the
//!   runner into the map of [`QueryCache`](crate::cache::QueryCache),
//!   which never rehashes;
//! * byte-identical keys collapse through a hash → slot index; each hash
//!   heads a chain of the slots sharing it, and a match is confirmed on
//!   the bytes, so different strings with equal hashes never share a slot;
//! * a distinct key is committed as one exactly-sized allocation that
//!   later *moves* into the cache as the cache's own key — cache hits and
//!   duplicates allocate nothing, and no arena-sized buffer of key bytes
//!   outlives the batch next to the cache's copies;
//! * owners are stored flat, chained per slot; [`KeyArena::owners`] walks
//!   a slot's owners in push order, so folding slot by slot replays the
//!   planning order exactly.
//!
//! **Admitted once.** Whoever fills an arena looks each staged key up in
//! the session cache *before* interning it (the wave planners through
//! `QueryRunner::cache`, between waves), so every slot is a distinct
//! check that missed the cache. The runner poses an arena's key half
//! ([`KeySet`]) as it stands — `QueryRunner::pose` charges budget per
//! slot, dispatches, and moves the posed keys into the cache — and hands
//! back one verdict per slot, which the owner chains fan out.
//!
//! Arenas are cleared, not dropped, between waves and batches: their
//! index and vectors are allocated once per run.

use crate::cache::{hash_query, PassThroughState};
use std::collections::HashMap;

/// End of a slot chain or an owner chain.
const NONE: u32 = u32::MAX;

/// The distinct keys of a [`KeyArena`], each with its hash: what the
/// runner poses. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct KeySet {
    /// The key being assembled (see [`KeySet::stage`]).
    staged: Vec<u8>,
    /// Per slot: the key bytes (empty once taken) and their hash.
    keys: Vec<Box<[u8]>>,
    hashes: Vec<u64>,
    /// Newest slot per hash; `older` chains each slot to the previous slot
    /// with the same hash.
    heads: HashMap<u64, u32, PassThroughState>,
    older: Vec<u32>,
}

impl KeySet {
    fn clear(&mut self) {
        self.staged.clear();
        self.keys.clear();
        self.hashes.clear();
        self.heads.clear();
        self.older.clear();
    }

    /// Number of distinct keys (slots).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Assembles a key in the staging buffer (replacing the previous
    /// staged key) and returns its hash — the only time a key is hashed.
    pub fn stage(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> u64 {
        self.staged.clear();
        write(&mut self.staged);
        hash_query(&self.staged)
    }

    /// The key assembled by the last [`KeySet::stage`].
    pub fn staged(&self) -> &[u8] {
        &self.staged
    }

    /// The slot already holding `key`, whose hash is `h`.
    pub fn find(&self, h: u64, key: &[u8]) -> Option<usize> {
        let mut slot = *self.heads.get(&h)?;
        while slot != NONE {
            if *self.keys[slot as usize] == *key {
                return Some(slot as usize);
            }
            slot = self.older[slot as usize];
        }
        None
    }

    /// Adds the staged key (hash `h`, not yet in the set) as a new slot,
    /// copied into its own exactly-sized allocation; returns the slot.
    fn commit_staged(&mut self, h: u64) -> u32 {
        let slot = u32::try_from(self.keys.len()).expect("arena slot overflow");
        self.keys.push(Box::from(&self.staged[..]));
        self.hashes.push(h);
        self.older.push(self.heads.insert(h, slot).unwrap_or(NONE));
        slot
    }

    /// `slot`'s key bytes (empty once taken).
    pub fn key(&self, slot: usize) -> &[u8] {
        &self.keys[slot]
    }

    /// `slot`'s hash.
    pub fn hash(&self, slot: usize) -> u64 {
        self.hashes[slot]
    }

    /// Moves `slot`'s key out, leaving it empty.
    pub fn take_key(&mut self, slot: usize) -> Box<[u8]> {
        std::mem::take(&mut self.keys[slot])
    }
}

/// One batch's distinct keys, each with its hash and its owners. See the
/// module docs.
#[derive(Debug)]
pub(crate) struct KeyArena<O> {
    keys: KeySet,
    /// Per slot: first and last owner index.
    first_owner: Vec<u32>,
    last_owner: Vec<u32>,
    /// Owners in push order, each chained to the next owner of its slot.
    owners: Vec<O>,
    next_owner: Vec<u32>,
}

impl<O> Default for KeyArena<O> {
    fn default() -> Self {
        KeyArena {
            keys: KeySet::default(),
            first_owner: Vec::new(),
            last_owner: Vec::new(),
            owners: Vec::new(),
            next_owner: Vec::new(),
        }
    }
}

impl<O> KeyArena<O> {
    /// Empties the arena, keeping its allocations for the next batch.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.first_owner.clear();
        self.last_owner.clear();
        self.owners.clear();
        self.next_owner.clear();
    }

    /// Number of distinct keys (slots).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// [`KeySet::stage`].
    pub fn stage(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> u64 {
        self.keys.stage(write)
    }

    /// The key assembled by the last [`KeyArena::stage`].
    pub fn staged(&self) -> &[u8] {
        self.keys.staged()
    }

    /// The arena's keys, for the runner to pose.
    pub fn keys_mut(&mut self) -> &mut KeySet {
        &mut self.keys
    }

    /// Adds `owner` to the slot already holding the staged key (hash `h`),
    /// or commits the staged key as a new slot; returns whether it was new.
    /// Callers look the staged key up in the cache first: a slot must be a
    /// cache miss.
    pub fn intern_staged(&mut self, h: u64, owner: O) -> bool {
        if let Some(slot) = self.keys.find(h, &self.keys.staged) {
            self.push_owner(slot, owner);
            return false;
        }
        let slot = self.keys.commit_staged(h) as usize;
        self.first_owner.push(NONE);
        self.last_owner.push(NONE);
        self.push_owner(slot, owner);
        true
    }

    /// Adds another owner to `slot`'s verdict.
    fn push_owner(&mut self, slot: usize, owner: O) {
        let index = u32::try_from(self.owners.len()).expect("arena owner overflow");
        self.owners.push(owner);
        self.next_owner.push(NONE);
        match self.last_owner[slot] {
            NONE => self.first_owner[slot] = index,
            last => self.next_owner[last as usize] = index,
        }
        self.last_owner[slot] = index;
    }

    /// `slot`'s owners, in push order.
    pub fn owners(&self, slot: usize) -> impl Iterator<Item = &O> + '_ {
        let mut next = self.first_owner[slot];
        std::iter::from_fn(move || {
            let owner = self.owners.get(next as usize)?;
            next = self.next_owner[next as usize];
            Some(owner)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages and interns `key`; returns (slot, new).
    fn intern(arena: &mut KeyArena<char>, key: &[u8], owner: char) -> (usize, bool) {
        let h = arena.stage(|buf| buf.extend_from_slice(key));
        let new = arena.intern_staged(h, owner);
        (arena.keys_mut().find(h, key).expect("interned"), new)
    }

    fn owners(arena: &KeyArena<char>, slot: usize) -> String {
        arena.owners(slot).collect()
    }

    #[test]
    fn dedups_and_keeps_owner_order_per_slot() {
        let mut arena = KeyArena::default();
        assert_eq!(intern(&mut arena, b"x", 'a'), (0, true));
        assert_eq!(intern(&mut arena, b"y", 'b'), (1, true));
        assert_eq!(intern(&mut arena, b"x", 'c'), (0, false));
        assert_eq!(intern(&mut arena, b"x", 'd'), (0, false));
        assert_eq!(intern(&mut arena, b"", 'e'), (2, true));
        assert_eq!(arena.len(), 3);
        assert_eq!(owners(&arena, 0), "acd");
        assert_eq!(owners(&arena, 1), "b");
        assert_eq!(owners(&arena, 2), "e");
        let keys = arena.keys_mut();
        assert_eq!((keys.key(1), keys.hash(1)), (&b"y"[..], hash_query(b"y")));
        assert_eq!(keys.take_key(0), b"x"[..].into());
        assert_eq!(keys.key(0), b"", "a taken key leaves its slot empty");
        assert_eq!(owners(&arena, 0), "acd", "owners survive taking the keys");

        arena.clear();
        assert_eq!(arena.len(), 0);
        assert_eq!(intern(&mut arena, b"y", 'f'), (0, true), "cleared arenas start over");
    }

    #[test]
    fn colliding_hashes_never_share_a_slot() {
        // Different bytes forced onto one hash: each gets its own slot,
        // and a repeat of either finds its own slot through the chain.
        let mut arena = KeyArena::default();
        let h = 42;
        for (key, owner, expected) in [
            (&b"<a>hi</I>"[..], 'a', (0, true)),
            (b"<a>hi</a9", 'b', (1, true)),
            (b"<a>hi</a>", 'c', (2, true)),
            (b"<a>hi</I>", 'd', (0, false)),
            (b"<a>hi</a9", 'e', (1, false)),
        ] {
            arena.stage(|buf| buf.extend_from_slice(key));
            let new = arena.intern_staged(h, owner);
            assert_eq!(
                (arena.keys_mut().find(h, key).expect("interned"), new),
                expected,
                "{key:?}"
            );
        }
        assert_eq!(
            (owners(&arena, 0), owners(&arena, 1), owners(&arena, 2)),
            ("ad".into(), "be".into(), "c".into())
        );
        let keys = arena.keys_mut();
        assert_eq!(keys.find(h, b"other"), None);
        assert_eq!(keys.find(h + 1, b"<a>hi</I>"), None, "the hash is part of the key");
    }
}
