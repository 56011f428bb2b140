//! The session's query cache: one map keyed by a precomputed hash.
//!
//! The internal `QueryRunner` memoizes membership queries here, and the
//! owning [`Session`](crate::Session) is its only user: a session's cache
//! is touched only by the session thread. A run's runner borrows it
//! mutably for the run's length, and the wave planners read it through the
//! runner between waves. Engine workers call the oracle, never the cache,
//! and verdicts are inserted after dispatch. So the cache is a plain map,
//! with no lock and no `RefCell`.
//!
//! **One hash per query.** A key is the pair `(hash, bytes)`, where the
//! hash is [`hash_query`] — computed once, where a check's bytes are first
//! assembled (see `arena.rs`), and carried from there into
//! [`QueryCache::get_hashed`] and [`QueryCache::insert_hashed`]. The
//! map uses a pass-through hasher, so neither a lookup, an insert, nor the
//! map's growth ever hashes the key bytes again; equal hashes are always
//! confirmed on the bytes, so colliding keys never share an entry. Keys are
//! stored as exactly-sized boxes that the caller moves in: an insert
//! allocates nothing beyond the map's own amortized growth.
//!
//! Every distinct query stays cached for the session's lifetime, so
//! [`QueryCache::len`] is the session's `unique_queries`.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Hashes a query string. This is the snapshot index hash
/// ([`index_hash`](crate::persist::index_hash)): deterministic across
/// runs and toolchains.
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

/// A map from query strings to oracle verdicts. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct QueryCache {
    map: HashMap<Key, bool, PassThroughState>,
}

impl QueryCache {
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// Looks up the cached verdict of `key`, whose [`hash_query`] value is
    /// `h`.
    pub fn get_hashed(&self, h: u64, key: &[u8]) -> Option<bool> {
        self.map.get(&(h, key) as &dyn KeyView).copied()
    }

    /// Records a verdict for `key` (hash `h`; the key moves into the
    /// cache); returns `true` if the key was not cached before. An
    /// already-cached key keeps its original verdict (oracles are
    /// deterministic, so both verdicts agree).
    pub fn insert_hashed(&mut self, h: u64, key: Box<[u8]>, verdict: bool) -> bool {
        match self.map.entry(Key { hash: h, bytes: key }) {
            Entry::Occupied(_) => false,
            Entry::Vacant(vacant) => {
                vacant.insert(verdict);
                true
            }
        }
    }

    /// Number of distinct cached queries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Reserves room for `additional` more keys, so a bulk load grows the
    /// map once.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// Every `(query, verdict)` entry, borrowed, in unspecified order
    /// (`persist::snapshot_to_binary` sorts).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], bool)> {
        self.map.iter().map(|(k, &verdict)| (&*k.bytes, verdict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Unhashed conveniences for tests across the crate.
    impl QueryCache {
        pub(crate) fn get(&self, key: &[u8]) -> Option<bool> {
            self.get_hashed(hash_query(key), key)
        }

        pub(crate) fn insert(&mut self, key: Vec<u8>, verdict: bool) -> bool {
            self.insert_hashed(hash_query(&key), key.into_boxed_slice(), verdict)
        }
    }

    #[test]
    fn get_insert_len() {
        let mut c = QueryCache::new();
        assert_eq!(c.get(b"x"), None);
        assert!(c.insert(b"x".to_vec(), true));
        assert!(!c.insert(b"x".to_vec(), false), "duplicate insert is not fresh");
        assert_eq!(c.get(b"x"), Some(true), "first verdict wins");
        assert!(c.insert(b"y".to_vec(), false));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn concurrent_inserts_count_once_per_key() {
        // The cache has no lock of its own; an owner that shares one
        // across threads (as a server could) wraps it, which needs `Send`.
        let c = Mutex::new(QueryCache::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..100u32 {
                        c.lock().unwrap().insert(i.to_le_bytes().to_vec(), t % 2 == 0);
                    }
                });
            }
        });
        assert_eq!(c.lock().unwrap().len(), 100);
    }

    #[test]
    fn snapshot_is_complete() {
        let mut c = QueryCache::new();
        c.insert(b"zz".to_vec(), true);
        c.insert(b"a".to_vec(), false);
        c.insert(b"mm".to_vec(), true);
        let mut snap: Vec<(&[u8], bool)> = c.iter().collect();
        snap.sort();
        assert_eq!(snap, [(&b"a"[..], false), (b"mm", true), (b"zz", true)]);
    }

    #[test]
    fn colliding_hashes_never_alias() {
        // Two different keys forced onto one hash keep separate entries.
        let h = 0x5eed_c0de_0000_0000;
        let mut c = QueryCache::new();
        assert!(c.insert_hashed(h, b"<a>hi</I>"[..].into(), true));
        assert!(c.insert_hashed(h, b"<a>hi</a9"[..].into(), false), "a colliding key is fresh");
        assert!(!c.insert_hashed(h, b"<a>hi</I>"[..].into(), false), "a repeat is not");
        assert_eq!(c.get_hashed(h, b"<a>hi</I>"), Some(true));
        assert_eq!(c.get_hashed(h, b"<a>hi</a9"), Some(false));
        assert_eq!(c.get_hashed(h, b"<a>hi</a>"), None, "equal hash, unknown bytes");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_query(b"abc"), hash_query(b"abc"));
        assert_ne!(hash_query(b"abc"), hash_query(b"abd"));
    }
}
