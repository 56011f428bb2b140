//! Mutex-striped concurrent query cache keyed by a precomputed hash, with
//! optional residency caps.
//!
//! Both [`CachingOracle`](crate::CachingOracle) and the internal
//! `QueryRunner` memoize membership queries. To let checks fan out across
//! worker threads the cache is sharded: keys are distributed over N
//! independently locked `HashMap` shards by hash, so concurrent lookups and
//! inserts of different keys almost never contend on the same mutex.
//!
//! **One hash per query.** A key is the pair `(hash, bytes)`, where the
//! hash is [`hash_query`] — computed once, where a check's bytes are first
//! assembled (see `arena.rs`), and carried from there through the runner
//! into [`ShardedCache::get_hashed`] and [`ShardedCache::insert_hashed`].
//! The shard maps use a pass-through hasher, so neither a lookup, an
//! insert, nor a shard's growth ever hashes the key bytes again; equal
//! hashes are always confirmed on the bytes, so colliding keys never share
//! an entry. Keys are stored as exactly-sized boxes that the caller moves
//! in: an insert allocates nothing beyond the map's own amortized growth.
//!
//! **Residency cap.** [`ShardedCache::with_max_entries`] bounds the
//! number of resident entries per cache for long-lived campaigns, evicting
//! with a second-chance (clock) sweep over each shard's deterministic
//! iteration order. Eviction can only cause a later re-query (same verdict
//! — oracles are deterministic), never a changed answer, so grammars are
//! unaffected. [`ShardedCache::len`] counts *distinct keys ever inserted*
//! — an 8-byte per-key ledger of hashes survives eviction so
//! `unique_queries` accounting stays exact. That ledger identifies a key
//! by its 64-bit hash alone, which is one reason the hash must stay a
//! strong one (SipHash): a weak hash would make two different queries
//! count as one.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of mutex stripes. 16 keeps contention negligible for the worker
/// counts this crate spawns (bounded by available cores) at trivial memory
/// cost.
const SHARD_COUNT: usize = 16;

/// Hashes a query string. This is the snapshot index hash
/// ([`index_hash`](crate::persist::index_hash)): deterministic across
/// runs and toolchains, so shard choice and eviction order are
/// reproducible, and a lookup in an attached binary snapshot reuses it.
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

/// A key as a shard lookup compares it, owned ([`Key`]) or borrowed
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

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Key, Slot, PassThroughState>,
    /// Hashes of every key ever inserted into this shard. Maintained only
    /// when a residency cap is set: it is what keeps distinct-key counting
    /// (and therefore `unique_queries`) exact after evictions, at 8 bytes
    /// per distinct key instead of the key bytes themselves.
    seen: HashSet<u64, PassThroughState>,
}

/// A `Sync` map from query strings to oracle verdicts.
#[derive(Debug)]
pub(crate) struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    /// Distinct keys ever inserted (never decremented by eviction).
    len: AtomicUsize,
    /// Resident-entry cap per shard (`usize::MAX` = uncapped).
    shard_cap: usize,
    evictions: AtomicUsize,
}

impl ShardedCache {
    pub fn new() -> Self {
        ShardedCache::with_max_entries(None)
    }

    /// A cache whose resident entries are capped at roughly
    /// `max_entries` (rounded up to a per-shard cap; `None` = unbounded).
    /// See the module docs for the eviction policy and its guarantees.
    pub fn with_max_entries(max_entries: Option<usize>) -> Self {
        ShardedCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::default())).collect(),
            len: AtomicUsize::new(0),
            shard_cap: max_entries.map_or(usize::MAX, |n| n.div_ceil(SHARD_COUNT).max(1)),
            evictions: AtomicUsize::new(0),
        }
    }

    /// The shard of a key hash. Middle bits: the shard maps place entries
    /// by the low bits and tag them with the top seven.
    fn shard_index(h: u64) -> usize {
        (h >> 32) as usize % SHARD_COUNT
    }

    fn shard(&self, h: u64) -> MutexGuard<'_, Shard> {
        self.shards[Self::shard_index(h)].lock().expect("cache shard poisoned")
    }

    /// Looks up a cached verdict.
    pub fn get(&self, key: &[u8]) -> Option<bool> {
        self.get_hashed(hash_query(key), key)
    }

    /// Looks up the cached verdict of `key`, whose [`hash_query`] value is
    /// `h`.
    pub fn get_hashed(&self, h: u64, key: &[u8]) -> Option<bool> {
        let mut shard = self.shard(h);
        let slot = shard.map.get_mut(&(h, key) as &dyn KeyView)?;
        slot.referenced = true;
        Some(slot.verdict)
    }

    /// Records a verdict; returns `true` if the key was never cached
    /// before (an evicted-and-reinserted key is *not* fresh — it was
    /// already counted). An already-resident key keeps its original
    /// verdict (oracles are deterministic, so both verdicts agree).
    pub fn insert(&self, key: Vec<u8>, verdict: bool) -> bool {
        self.insert_hashed(hash_query(&key), key.into_boxed_slice(), verdict)
    }

    /// [`ShardedCache::insert`] for a key whose [`hash_query`] value is
    /// `h`; the key moves into the cache.
    pub fn insert_hashed(&self, h: u64, key: Box<[u8]>, verdict: bool) -> bool {
        let mut guard = self.shard(h);
        let shard = &mut *guard;
        let slot = Slot { verdict, referenced: false };
        let fresh = if self.shard_cap == usize::MAX {
            match shard.map.entry(Key { hash: h, bytes: key }) {
                Entry::Occupied(_) => false,
                Entry::Vacant(vacant) => {
                    vacant.insert(slot);
                    true
                }
            }
        } else {
            if shard.map.contains_key(&(h, &key[..]) as &dyn KeyView) {
                return false;
            }
            if shard.map.len() >= self.shard_cap {
                Self::evict_one(shard, &self.evictions);
            }
            shard.map.insert(Key { hash: h, bytes: key }, slot);
            shard.seen.insert(h)
        };
        drop(guard);
        if fresh {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Evicts one entry from a full shard: a second-chance sweep in the
    /// map's iteration order (deterministic — the hash is fixed) clears
    /// reference bits until it finds an unreferenced entry; if every
    /// entry had its second chance pending, the first entry goes (its bit
    /// was just cleared, making the next sweep a plain clock pass).
    fn evict_one(shard: &mut Shard, evictions: &AtomicUsize) {
        let mut victim: Option<Key> = None;
        for (key, slot) in shard.map.iter_mut() {
            if slot.referenced {
                slot.referenced = false;
            } else {
                victim = Some(key.clone());
                break;
            }
        }
        let victim = match victim.or_else(|| shard.map.keys().next().cloned()) {
            Some(v) => v,
            None => return,
        };
        shard.map.remove(&victim);
        evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of distinct cached queries ever inserted. Not decremented
    /// by eviction: this is the session's `unique_queries` ledger, and an
    /// evicted entry was still a distinct query.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Number of entries currently resident (equals [`ShardedCache::len`]
    /// for uncapped caches; at most the configured cap otherwise).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Entries evicted by the residency cap so far.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Copies every resident `(query, verdict)` entry out, in unspecified
    /// order (serialization via `persist::cache_to_text` sorts; sorting
    /// here too would be a redundant O(n log n) pass on every snapshot).
    ///
    /// The pass is consistent: **all** shard locks are acquired — in
    /// ascending shard-index order, the crate's only multi-shard lock
    /// site — before any entry is copied, and the output is sized from
    /// the locked shards' actual lengths. (The previous implementation
    /// sized from the lock-free `len()` hint and locked shards one at a
    /// time, so a concurrent insert could both stale the size hint and
    /// let the copy observe a key in two states across shards.)
    pub fn snapshot(&self) -> Vec<(Vec<u8>, bool)> {
        let guards: Vec<MutexGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.lock().expect("cache shard poisoned")).collect();
        let mut out = Vec::with_capacity(guards.iter().map(|g| g.map.len()).sum());
        for guard in &guards {
            out.extend(guard.map.iter().map(|(k, slot)| (k.bytes.to_vec(), slot.verdict)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_len() {
        let c = ShardedCache::new();
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
        let c = ShardedCache::new();
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
        let c = ShardedCache::new();
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
        let c = ShardedCache::new();
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
        let c = ShardedCache::with_max_entries(Some(cap));
        let n = 1000u32;
        for i in 0..n {
            c.insert(format!("key-{i:04}").into_bytes(), i % 2 == 0);
        }
        assert_eq!(c.len(), n as usize, "distinct-ever ledger ignores eviction");
        // Per-shard cap is ceil(64/16) = 4, so at most 64 stay resident.
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
        // One shard's worth of traffic: keys that were `get`-referenced
        // survive the next eviction sweep; an untouched key goes first.
        let c = ShardedCache::with_max_entries(Some(SHARD_COUNT * 2)); // 2 per shard
        let mut keys: Vec<Vec<u8>> = Vec::new();
        // Find three keys landing in the same shard.
        let mut i = 0u32;
        while keys.len() < 3 {
            let k = format!("probe-{i}").into_bytes();
            if ShardedCache::shard_index(hash_query(&k)) == 0 {
                keys.push(k);
            }
            i += 1;
        }
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
        let c = ShardedCache::new();
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
        let capped = ShardedCache::with_max_entries(Some(SHARD_COUNT)); // 1 per shard
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
        assert_sync::<ShardedCache>();
    }
}
