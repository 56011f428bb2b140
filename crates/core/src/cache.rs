//! The session's query cache: one mutex around one map keyed by a
//! precomputed hash, with an optional residency cap.
//!
//! Both [`CachingOracle`](crate::CachingOracle) and the internal
//! `QueryRunner` memoize membership queries. **One lock suffices**: a
//! session's cache is touched only by the session thread. Engine workers
//! call the oracle, never the cache, and verdicts are inserted after
//! dispatch. So the wave planners take the lock once for a whole wave's
//! plan-time lookups ([`QueryCache::lock`]), and the runner once for a
//! wave's insert pass. The one concurrent user left is `CachingOracle`,
//! which several engine workers may call at once; it takes the lock once
//! per lookup and once per insert, which serializes its map accesses, not
//! its inner oracle's calls.
//!
//! **One hash per query.** A key is the pair `(hash, bytes)`, where the
//! hash is [`hash_query`] — computed once, where a check's bytes are first
//! assembled (see `arena.rs`), and carried from there into
//! [`CacheEntries::get_hashed`] and [`CacheEntries::insert_hashed`]. The
//! map uses a pass-through hasher, so neither a lookup, an insert, nor the
//! map's growth ever hashes the key bytes again; equal hashes are always
//! confirmed on the bytes, so colliding keys never share an entry. Keys are
//! stored as exactly-sized boxes that the caller moves in: an insert
//! allocates nothing beyond the map's own amortized growth.
//!
//! **Residency cap.** [`QueryCache::with_max_entries`] bounds the number
//! of resident entries for long-lived campaigns, evicting with a
//! second-chance (clock) sweep over the map's deterministic iteration
//! order. Eviction can only cause a later re-query (same verdict — oracles
//! are deterministic), never a changed answer, so grammars are unaffected.
//! [`QueryCache::len`] counts *distinct keys ever inserted* — an 8-byte
//! per-key ledger of hashes survives eviction so `unique_queries`
//! accounting stays exact. That ledger identifies a key by its 64-bit hash
//! alone, which is one reason the hash must stay a strong one (SipHash): a
//! weak hash would make two different queries count as one.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// Hashes a query string. This is the snapshot index hash
/// ([`index_hash`](crate::persist::index_hash)): deterministic across
/// runs and toolchains, so eviction order is reproducible.
pub(crate) fn hash_query(key: &[u8]) -> u64 {
    crate::persist::index_hash(key)
}

/// A [`Hasher`] for maps whose keys already are a [`hash_query`] value:
/// the hash passes through unchanged.
#[derive(Debug, Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PassThrough only hashes precomputed u64 hashes");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Builds [`PassThrough`] hashers.
pub(crate) type PassThroughState = BuildHasherDefault<PassThrough>;

/// An owned cache key: the query bytes and their [`hash_query`] value.
#[derive(Debug, Clone)]
struct Key {
    hash: u64,
    bytes: Box<[u8]>,
}

/// A key as a map lookup compares it, owned ([`Key`]) or borrowed
/// (`(hash, &bytes)`), so lookups need no owned key.
trait KeyView {
    fn key_hash(&self) -> u64;
    fn key_bytes(&self) -> &[u8];
}

impl KeyView for Key {
    fn key_hash(&self) -> u64 {
        self.hash
    }

    fn key_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl KeyView for (u64, &[u8]) {
    fn key_hash(&self) -> u64 {
        self.0
    }

    fn key_bytes(&self) -> &[u8] {
        self.1
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key_hash());
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_hash() == other.key_hash() && self.key_bytes() == other.key_bytes()
    }
}

impl Eq for dyn KeyView + '_ {}

// `Key`'s own `Hash`/`Eq` must agree with the `dyn KeyView` ones above.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView) == (other as &dyn KeyView)
    }
}

impl Eq for Key {}

/// One cached verdict plus its second-chance reference bit.
#[derive(Debug)]
struct Slot {
    verdict: bool,
    referenced: bool,
}

/// The cache's contents, reached through [`QueryCache::lock`].
#[derive(Debug)]
pub(crate) struct CacheEntries {
    map: HashMap<Key, Slot, PassThroughState>,
    /// Hashes of every key ever inserted. Maintained only when a residency
    /// cap is set: it is what keeps distinct-key counting (and therefore
    /// `unique_queries`) exact after evictions, at 8 bytes per distinct key
    /// instead of the key bytes themselves.
    seen: HashSet<u64, PassThroughState>,
    /// Distinct keys ever inserted (never decremented by eviction).
    len: usize,
    /// Resident-entry cap (`usize::MAX` = uncapped).
    cap: usize,
    evictions: usize,
}

impl CacheEntries {
    /// Looks up the cached verdict of `key`, whose [`hash_query`] value is
    /// `h`.
    pub fn get_hashed(&mut self, h: u64, key: &[u8]) -> Option<bool> {
        let slot = self.map.get_mut(&(h, key) as &dyn KeyView)?;
        slot.referenced = true;
        Some(slot.verdict)
    }

    /// Whether `key` (hash `h`) is resident, without marking it referenced.
    pub fn contains_hashed(&self, h: u64, key: &[u8]) -> bool {
        self.map.contains_key(&(h, key) as &dyn KeyView)
    }

    /// Records a verdict for `key` (hash `h`; the key moves into the
    /// cache); returns `true` if the key was never cached before (an
    /// evicted-and-reinserted key is *not* fresh — it was already
    /// counted). An already-resident key keeps its original verdict
    /// (oracles are deterministic, so both verdicts agree).
    pub fn insert_hashed(&mut self, h: u64, key: Box<[u8]>, verdict: bool) -> bool {
        let slot = Slot { verdict, referenced: false };
        let fresh = if self.cap == usize::MAX {
            match self.map.entry(Key { hash: h, bytes: key }) {
                Entry::Occupied(_) => false,
                Entry::Vacant(vacant) => {
                    vacant.insert(slot);
                    true
                }
            }
        } else {
            if self.contains_hashed(h, &key) {
                return false;
            }
            if self.map.len() >= self.cap {
                self.evict_one();
            }
            self.map.insert(Key { hash: h, bytes: key }, slot);
            self.seen.insert(h)
        };
        self.len += usize::from(fresh);
        fresh
    }

    /// Evicts one entry from a full map: a second-chance sweep in the
    /// map's iteration order (deterministic — the hash is fixed) clears
    /// reference bits until it finds an unreferenced entry; if every
    /// entry had its second chance pending, the first entry goes (its bit
    /// was just cleared, making the next sweep a plain clock pass).
    fn evict_one(&mut self) {
        let mut victim: Option<Key> = None;
        for (key, slot) in self.map.iter_mut() {
            if slot.referenced {
                slot.referenced = false;
            } else {
                victim = Some(key.clone());
                break;
            }
        }
        let Some(victim) = victim.or_else(|| self.map.keys().next().cloned()) else { return };
        self.map.remove(&victim);
        self.evictions += 1;
    }
}

/// A `Sync` map from query strings to oracle verdicts. See the module docs.
#[derive(Debug)]
pub(crate) struct QueryCache {
    entries: Mutex<CacheEntries>,
}

impl QueryCache {
    pub fn new() -> Self {
        QueryCache::with_max_entries(None)
    }

    /// A cache whose resident entries are capped at `max_entries` (at
    /// least one; `None` = unbounded). See the module docs for the
    /// eviction policy and its guarantees.
    pub fn with_max_entries(max_entries: Option<usize>) -> Self {
        QueryCache {
            entries: Mutex::new(CacheEntries {
                map: HashMap::default(),
                seen: HashSet::default(),
                len: 0,
                cap: max_entries.map_or(usize::MAX, |n| n.max(1)),
                evictions: 0,
            }),
        }
    }

    /// Locks the cache for a run of lookups and inserts — a wave's
    /// plan-time lookups, or its insert pass.
    pub fn lock(&self) -> MutexGuard<'_, CacheEntries> {
        self.entries.lock().expect("query cache poisoned")
    }

    /// Looks up a cached verdict.
    pub fn get(&self, key: &[u8]) -> Option<bool> {
        self.get_hashed(hash_query(key), key)
    }

    /// [`CacheEntries::get_hashed`] under its own lock.
    pub fn get_hashed(&self, h: u64, key: &[u8]) -> Option<bool> {
        self.lock().get_hashed(h, key)
    }

    /// Records a verdict; returns whether the key is fresh (see
    /// [`CacheEntries::insert_hashed`]).
    pub fn insert(&self, key: Vec<u8>, verdict: bool) -> bool {
        self.insert_hashed(hash_query(&key), key.into_boxed_slice(), verdict)
    }

    /// [`CacheEntries::insert_hashed`] under its own lock.
    pub fn insert_hashed(&self, h: u64, key: Box<[u8]>, verdict: bool) -> bool {
        self.lock().insert_hashed(h, key, verdict)
    }

    /// Number of distinct cached queries ever inserted. Not decremented
    /// by eviction: this is the session's `unique_queries` ledger, and an
    /// evicted entry was still a distinct query.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Number of entries currently resident (equals [`QueryCache::len`]
    /// for uncapped caches; at most the configured cap otherwise).
    pub fn resident(&self) -> usize {
        self.lock().map.len()
    }

    /// Entries evicted by the residency cap so far.
    pub fn evictions(&self) -> usize {
        self.lock().evictions
    }

    /// Copies every resident `(query, verdict)` entry out, in unspecified
    /// order (serialization via `persist::cache_to_text` sorts; sorting
    /// here too would be a redundant O(n log n) pass on every snapshot).
    /// The copy is taken under the lock, so it is consistent: sized from
    /// the map's actual length, with every key in exactly one state.
    pub fn snapshot(&self) -> Vec<(Vec<u8>, bool)> {
        let entries = self.lock();
        entries.map.iter().map(|(k, slot)| (k.bytes.to_vec(), slot.verdict)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_len() {
        let c = QueryCache::new();
        assert_eq!(c.get(b"x"), None);
        assert!(c.insert(b"x".to_vec(), true));
        assert!(!c.insert(b"x".to_vec(), false), "duplicate insert is not fresh");
        assert_eq!(c.get(b"x"), Some(true), "first verdict wins");
        assert!(c.insert(b"y".to_vec(), false));
        assert_eq!(c.len(), 2);
        assert_eq!(c.resident(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn concurrent_inserts_count_once_per_key() {
        let c = QueryCache::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..100u32 {
                        c.insert(i.to_le_bytes().to_vec(), t % 2 == 0);
                    }
                });
            }
        });
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn snapshot_is_complete() {
        let c = QueryCache::new();
        c.insert(b"zz".to_vec(), true);
        c.insert(b"a".to_vec(), false);
        c.insert(b"mm".to_vec(), true);
        let mut snap = c.snapshot();
        snap.sort();
        assert_eq!(
            snap,
            vec![(b"a".to_vec(), false), (b"mm".to_vec(), true), (b"zz".to_vec(), true)]
        );
    }

    #[test]
    fn snapshot_under_concurrent_inserts_is_well_formed() {
        // Regression for the stale-capacity/inconsistent-pass bug: snapshot
        // while writers insert; every snapshotted key must appear exactly
        // once with a valid verdict, and the size must equal its contents.
        let c = QueryCache::new();
        std::thread::scope(|s| {
            let c = &c;
            s.spawn(move || {
                for i in 0..2000u32 {
                    c.insert(i.to_le_bytes().to_vec(), i % 2 == 0);
                }
            });
            for _ in 0..50 {
                let snap = c.snapshot();
                let mut keys: Vec<&Vec<u8>> = snap.iter().map(|(k, _)| k).collect();
                keys.sort();
                keys.dedup();
                assert_eq!(keys.len(), snap.len(), "a key appeared in two states");
            }
        });
        assert_eq!(c.snapshot().len(), 2000);
    }

    #[test]
    fn residency_cap_evicts_but_len_counts_distinct_ever() {
        let cap = 64;
        let c = QueryCache::with_max_entries(Some(cap));
        let n = 1000u32;
        for i in 0..n {
            c.insert(format!("key-{i:04}").into_bytes(), i % 2 == 0);
        }
        assert_eq!(c.len(), n as usize, "distinct-ever ledger ignores eviction");
        assert!(c.resident() <= cap, "resident {} exceeds cap {cap}", c.resident());
        assert!(c.evictions() >= (n as usize) - cap);
        // Evicted keys read as absent; re-inserting one is not fresh and
        // does not grow the distinct count.
        let resident_before = c.resident();
        assert!(!c.insert(b"key-0000".to_vec(), true), "reinsert of an evicted key is not fresh");
        assert_eq!(c.len(), n as usize);
        assert!(c.resident() <= resident_before.max(cap));
        assert_eq!(c.get(b"key-0000"), Some(true), "reinserted key is resident again");
    }

    #[test]
    fn second_chance_prefers_unreferenced_victims() {
        // Keys that were `get`-referenced survive the next eviction sweep;
        // an untouched key goes first.
        let c = QueryCache::with_max_entries(Some(2));
        let keys: Vec<Vec<u8>> = (0..3).map(|i| format!("probe-{i}").into_bytes()).collect();
        c.insert(keys[0].clone(), true);
        c.insert(keys[1].clone(), false);
        // Reference key[0] so it has a second chance; key[1] does not.
        assert_eq!(c.get(&keys[0]), Some(true));
        c.insert(keys[2].clone(), true);
        assert_eq!(c.get(&keys[0]), Some(true), "referenced key survived");
        assert_eq!(c.get(&keys[1]), None, "unreferenced key was evicted");
        assert_eq!(c.get(&keys[2]), Some(true));
    }

    #[test]
    fn colliding_hashes_never_alias() {
        // Two different keys forced onto one hash keep separate entries.
        let h = 0x5eed_c0de_0000_0000;
        let c = QueryCache::new();
        assert!(c.insert_hashed(h, b"<a>hi</I>"[..].into(), true));
        assert!(c.insert_hashed(h, b"<a>hi</a9"[..].into(), false), "a colliding key is fresh");
        assert!(!c.insert_hashed(h, b"<a>hi</I>"[..].into(), false), "a repeat is not");
        assert_eq!(c.get_hashed(h, b"<a>hi</I>"), Some(true));
        assert_eq!(c.get_hashed(h, b"<a>hi</a9"), Some(false));
        assert_eq!(c.get_hashed(h, b"<a>hi</a>"), None, "equal hash, unknown bytes");
        assert_eq!((c.len(), c.resident()), (2, 2));

        // Eviction removes exactly the victim; the colliding survivor
        // keeps its own verdict. (The capped ledger counts by hash alone,
        // so `len` is not asserted here; see the module docs.)
        let capped = QueryCache::with_max_entries(Some(1));
        capped.insert_hashed(h, b"first"[..].into(), true);
        capped.insert_hashed(h, b"second"[..].into(), false);
        assert_eq!(capped.evictions(), 1);
        assert_eq!(capped.get_hashed(h, b"first"), None, "the victim is gone");
        assert_eq!(capped.get_hashed(h, b"second"), Some(false), "the survivor is intact");
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_query(b"abc"), hash_query(b"abc"));
        assert_ne!(hash_query(b"abc"), hash_query(b"abd"));
    }

    #[test]
    fn cache_is_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<QueryCache>();
    }
}
