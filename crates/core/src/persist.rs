//! Persistent membership-query cache snapshots.
//!
//! The paper measures synthesis cost purely in oracle calls, and for real
//! targets each distinct call runs the program under test. A multi-target
//! campaign or a repeated `eval`/`bench` run re-pays that cost from zero on
//! every process start — unless the query cache survives the process.
//! [`Session::save_cache`](crate::Session::save_cache) and
//! [`Session::load_cache`](crate::Session::load_cache) persist it.
//!
//! A [`CacheSnapshot`] holds the cached verdicts, the byte-class memo table
//! of the query-reduction layer (see `memo.rs`; a loaded memo entry lets a
//! later session skip *every* probe of a terminal it has already
//! generalized), and an optional oracle fingerprint. A snapshot is only
//! meaningful for the oracle that produced it: verdicts are facts about one
//! target language, and replaying them against a different target silently
//! corrupts synthesis. The fingerprint is a caller-supplied string (e.g.
//! [`ProcessOracle::fingerprint`](crate::ProcessOracle::fingerprint) for
//! process oracles, a target name for in-process ones). A session
//! configured with
//! [`GladeBuilder::oracle_fingerprint`](crate::GladeBuilder::oracle_fingerprint)
//! writes it into its snapshots and **rejects** loading a snapshot whose
//! fingerprint differs ([`CacheError::OracleMismatch`]). Untagged snapshots
//! load everywhere; fingerprint-less sessions load anything.
//!
//! # The format: `glade-cachebin v1`
//!
//! Every snapshot this crate writes — sessions, the CLI, the serve daemon
//! — is one indexed, length-prefixed binary layout. All integers are
//! little-endian; sections are laid out back to back:
//!
//! | section | offset | layout |
//! |---|---|---|
//! | magic | 0 | the 18 bytes `glade-cachebin v1\n` |
//! | header | 18 | `u32` fingerprint length, `u64` entry count, `u64` memo count, `u64` index offset, `u64` records offset, `u64` memo offset, `u64` total length |
//! | fingerprint | 70 | UTF-8 fingerprint bytes (absent when length is 0) |
//! | index | header's index offset | entry count × (`u64` query hash, `u64` absolute record offset), sorted by (hash, offset); the hash is [`index_hash`] |
//! | records | header's records offset | entry count × (`u8` verdict, `u32` query length, query bytes), sorted by query bytes |
//! | memo | header's memo offset | memo count × (16-byte key, `u32` class count, classes), keys sorted; each class is a `u32` member count followed by its member bytes |
//!
//! Entries and the index are sorted, so equal caches serialize to
//! byte-identical snapshots regardless of insertion order. The header's
//! total length and per-section offsets make every truncation detectable
//! up front ([`CacheError::Corrupt`]). The index is written so the format
//! stays byte for byte what earlier builds wrote; nothing in this crate
//! reads it. A load reads the records one at a time, each query straight
//! into the buffer its session cache will keep as the key (one allocation
//! per query, no copy of the record section), and [`BinaryCacheFile`]
//! (`glade cache inspect`) reads only the header. The index hash is part of
//! the format: [`index_hash`] pins it as SipHash-1-3 with zero keys over
//! the query's little-endian `u64` length followed by its bytes. Every save
//! goes through one durable write (temporary file, `fsync`, rename,
//! directory `fsync`), so a crash never leaves a torn snapshot.

use glade_grammar::CharClass;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from loading a cache snapshot.
///
/// `#[non_exhaustive]`: future format revisions may add variants.
#[derive(Debug)]
#[non_exhaustive]
pub enum CacheError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The file does not begin with the `glade-cachebin v1` magic.
    BadHeader,
    /// A binary snapshot is truncated or structurally inconsistent.
    Corrupt {
        /// Byte offset of the first inconsistency.
        offset: u64,
        /// What was wrong there.
        what: &'static str,
    },
    /// The snapshot was produced by a different oracle than the session is
    /// using: replaying its verdicts would silently corrupt synthesis.
    OracleMismatch {
        /// The fingerprint recorded in the snapshot.
        snapshot: String,
        /// The fingerprint the session expects.
        expected: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache snapshot i/o error: {e}"),
            CacheError::BadHeader => write!(f, "not a glade-cachebin v1 snapshot"),
            CacheError::Corrupt { offset, what } => {
                write!(f, "corrupt binary cache snapshot at byte {offset}: {what}")
            }
            CacheError::OracleMismatch { snapshot, expected } => write!(
                f,
                "cache snapshot was produced by a different oracle \
                 (snapshot fingerprint {snapshot:?}, expected {expected:?})"
            ),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// A parsed cache snapshot: the cached verdicts plus the optional oracle
/// fingerprint the snapshot was tagged with and the byte-class memo
/// entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Identity of the oracle the verdicts are facts about, when recorded.
    pub oracle_fingerprint: Option<String>,
    /// The cached `(query, verdict)` entries, each query in its own
    /// exactly sized buffer (a session moves it into its cache as is).
    pub entries: Vec<(Vec<u8>, bool)>,
    /// Persisted byte-class memo entries.
    pub memo: Vec<MemoEntry>,
}

/// One persisted byte-class memo entry: a memoized character-generalization
/// result keyed by the 128-bit fingerprint of its problem instance
/// (terminal bytes, contexts, candidate alphabet — computed internally by
/// the query-reduction layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoEntry {
    /// The fingerprint, big-endian.
    pub key: [u8; 16],
    /// The learned byte class of each terminal position.
    pub classes: Vec<CharClass>,
}

impl CacheSnapshot {
    /// Reads the `glade-cachebin v1` snapshot file at `path` (see
    /// [`snapshot_from_binary_reader`]). The file is streamed through a
    /// buffered reader, not slurped: records are read one at a time, so
    /// peak memory is the decoded entries, not entries plus the raw file.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if the file cannot be read,
    /// [`CacheError::BadHeader`] if it is not a `glade-cachebin v1`
    /// snapshot, or [`CacheError::Corrupt`] for a malformed one.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        snapshot_from_binary_reader(&mut std::io::BufReader::new(std::fs::File::open(path)?))
    }
}

/// Magic prefix of a `glade-cachebin v1` snapshot.
const BINARY_MAGIC: &[u8; 18] = b"glade-cachebin v1\n";
/// Fixed header bytes after the magic: `u32` fingerprint length plus six
/// `u64` fields (entry count, memo count, index/records/memo offsets,
/// total length).
const BIN_HEADER_LEN: usize = 4 + 6 * 8;
/// One index slot: `u64` query hash, `u64` absolute record offset.
const BIN_INDEX_SLOT: usize = 16;

/// The `glade-cachebin v1` index hash of a query: SipHash-1-3 with keys
/// `(0, 0)` over the query's length as a little-endian `u64` followed by
/// the query bytes.
///
/// This is the value `std::hash::DefaultHasher` produced for a `&[u8]` on
/// 64-bit little-endian targets when the format was defined. The standard
/// library leaves that hasher's algorithm unspecified across releases, so
/// the format spells the function out here instead, so every toolchain
/// writes the same index bytes for the same snapshot. The in-memory query
/// cache keys its map by the same value (see `cache.rs`).
pub(crate) fn index_hash(query: &[u8]) -> u64 {
    const C_ROUNDS: usize = 1;
    const D_ROUNDS: usize = 3;
    let mut v = [
        0x736f_6d65_7073_6575u64,
        0x646f_7261_6e64_6f6du64,
        0x6c79_6765_6e65_7261u64,
        0x7465_6462_7974_6573u64,
    ];
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }
    let mut compress = |m: u64| {
        v[3] ^= m;
        for _ in 0..C_ROUNDS {
            round(&mut v);
        }
        v[0] ^= m;
    };
    // The length prefix is exactly one message word, so the query's own
    // words start word-aligned.
    compress(query.len() as u64);
    let mut words = query.chunks_exact(8);
    for word in &mut words {
        compress(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    let mut last = ((query.len() as u64 + 8) & 0xff) << 56;
    for (i, &b) in words.remainder().iter().enumerate() {
        last |= u64::from(b) << (8 * i);
    }
    compress(last);
    v[2] ^= 0xff;
    for _ in 0..D_ROUNDS {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// Serializes entries, memo entries, and an optional oracle fingerprint
/// to a `glade-cachebin v1` snapshot (layout table in the module docs).
///
/// Entries are sorted by query bytes and the index by (hash, offset), so
/// equal caches serialize to byte-identical snapshots regardless of
/// insertion order. The queries may be borrowed (`&[u8]`, as a session
/// passes its cache keys) or owned; each is copied once, straight into
/// the returned buffer.
pub fn snapshot_to_binary<Q: AsRef<[u8]>>(
    entries: &[(Q, bool)],
    memo: &[MemoEntry],
    oracle_fingerprint: Option<&str>,
) -> Vec<u8> {
    let mut sorted: Vec<(&[u8], bool)> = entries.iter().map(|(q, v)| (q.as_ref(), *v)).collect();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut memo_sorted: Vec<&MemoEntry> = memo.iter().collect();
    memo_sorted.sort_by_key(|m| m.key);
    let fp = oracle_fingerprint.map_or(&b""[..], str::as_bytes);

    // Every section's length is known before a byte is written, so the
    // header comes first and each section goes straight into `out`.
    let index_off = (BINARY_MAGIC.len() + BIN_HEADER_LEN + fp.len()) as u64;
    let records_off = index_off + (sorted.len() * BIN_INDEX_SLOT) as u64;
    let mut index: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    let mut record_off = records_off;
    for (query, _) in &sorted {
        index.push((index_hash(query), record_off));
        record_off += 5 + query.len() as u64;
    }
    index.sort_unstable();
    let memo_off = record_off;
    let memo_len: usize =
        memo_sorted.iter().map(|m| 20 + m.classes.iter().map(|c| 4 + c.len()).sum::<usize>()).sum();
    let total_len = memo_off + memo_len as u64;

    let mut out = Vec::with_capacity(total_len as usize);
    out.extend_from_slice(BINARY_MAGIC);
    out.extend_from_slice(&(fp.len() as u32).to_le_bytes());
    out.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
    out.extend_from_slice(&(memo.len() as u64).to_le_bytes());
    out.extend_from_slice(&index_off.to_le_bytes());
    out.extend_from_slice(&records_off.to_le_bytes());
    out.extend_from_slice(&memo_off.to_le_bytes());
    out.extend_from_slice(&total_len.to_le_bytes());
    out.extend_from_slice(fp);
    for (hash, offset) in index {
        out.extend_from_slice(&hash.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
    }
    for (query, verdict) in &sorted {
        out.push(u8::from(*verdict));
        out.extend_from_slice(&u32::try_from(query.len()).expect("query > 4 GiB").to_le_bytes());
        out.extend_from_slice(query);
    }
    for entry in memo_sorted {
        out.extend_from_slice(&entry.key);
        out.extend_from_slice(&(entry.classes.len() as u32).to_le_bytes());
        for class in &entry.classes {
            out.extend_from_slice(&(class.len() as u32).to_le_bytes());
            out.extend(class.iter());
        }
    }
    debug_assert_eq!(out.len() as u64, total_len);
    out
}

/// Parsed and validated `glade-cachebin v1` header.
#[derive(Debug)]
struct BinHeader {
    fingerprint: Option<String>,
    entry_count: u64,
    memo_count: u64,
    index_off: u64,
    records_off: u64,
    memo_off: u64,
    total_len: u64,
}

fn corrupt(offset: u64, what: &'static str) -> CacheError {
    CacheError::Corrupt { offset, what }
}

/// Reads `buf.len()` bytes at the reader's current position (`pos` is the
/// position, for error attribution only); a short read is a truncation.
fn read_bin<R: Read>(r: &mut R, pos: u64, buf: &mut [u8]) -> Result<(), CacheError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => corrupt(pos, "unexpected end of snapshot"),
        _ => CacheError::Io(e),
    })
}

/// Reads and cross-validates the magic, header, and fingerprint. A stream
/// that does not begin with the magic (as far as it goes) is
/// [`CacheError::BadHeader`]. Every section offset is checked against the
/// neighbors and the real stream length, so truncation — at any cut — and
/// header corruption surface here as [`CacheError::Corrupt`], never as a
/// panic or a huge allocation downstream.
fn read_binary_header<R: Read + Seek>(r: &mut R) -> Result<BinHeader, CacheError> {
    let stream_len = r.seek(SeekFrom::End(0))?;
    r.seek(SeekFrom::Start(0))?;
    let mut magic = [0u8; BINARY_MAGIC.len()];
    let present = magic.len().min(stream_len as usize);
    read_bin(r, 0, &mut magic[..present])?;
    if magic[..present] != BINARY_MAGIC[..present] {
        return Err(CacheError::BadHeader);
    }
    if present < magic.len() {
        return Err(corrupt(stream_len, "unexpected end of snapshot"));
    }
    let mut header = [0u8; BIN_HEADER_LEN];
    read_bin(r, BINARY_MAGIC.len() as u64, &mut header)?;
    let u32_at = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
    let fp_len = u32_at(0) as u64;
    let h = BinHeader {
        fingerprint: None,
        entry_count: u64_at(4),
        memo_count: u64_at(12),
        index_off: u64_at(20),
        records_off: u64_at(28),
        memo_off: u64_at(36),
        total_len: u64_at(44),
    };
    let header_end = (BINARY_MAGIC.len() + BIN_HEADER_LEN) as u64;
    if h.total_len != stream_len {
        return Err(corrupt(stream_len, "snapshot length does not match header"));
    }
    if h.index_off != header_end + fp_len {
        return Err(corrupt(h.index_off, "index offset disagrees with fingerprint length"));
    }
    if h.entry_count.checked_mul(BIN_INDEX_SLOT as u64).and_then(|len| h.index_off.checked_add(len))
        != Some(h.records_off)
    {
        return Err(corrupt(h.records_off, "records offset disagrees with entry count"));
    }
    // Each record is at least 5 bytes, each memo entry at least 20: a
    // count that cannot fit its section is corruption (and would
    // otherwise drive a huge `with_capacity`).
    if !(h.records_off <= h.memo_off && h.memo_off <= h.total_len) {
        return Err(corrupt(h.memo_off, "memo offset outside snapshot"));
    }
    if h.entry_count.checked_mul(5).is_none_or(|min| min > h.memo_off - h.records_off) {
        return Err(corrupt(h.records_off, "entry count cannot fit the record section"));
    }
    if h.memo_count.checked_mul(20).is_none_or(|min| min > h.total_len - h.memo_off) {
        return Err(corrupt(h.memo_off, "memo count cannot fit the memo section"));
    }
    let fingerprint = if fp_len == 0 {
        None
    } else {
        let mut fp = vec![0u8; fp_len as usize];
        read_bin(r, header_end, &mut fp)?;
        Some(String::from_utf8(fp).map_err(|_| corrupt(header_end, "fingerprint is not UTF-8"))?)
    };
    Ok(BinHeader { fingerprint, ..h })
}

/// Parses one memo entry at `pos`, bounded by `limit` (the snapshot end).
fn read_bin_memo<R: Read>(r: &mut R, pos: &mut u64, limit: u64) -> Result<MemoEntry, CacheError> {
    let mut head = [0u8; 20];
    read_bin(r, *pos, &mut head)?;
    let key: [u8; 16] = head[..16].try_into().unwrap();
    let class_count = u64::from(u32::from_le_bytes(head[16..20].try_into().unwrap()));
    *pos += 20;
    // Each class is at least 5 bytes (length plus one member).
    if class_count.checked_mul(5).is_none_or(|min| *pos + min > limit) {
        return Err(corrupt(*pos, "memo class count cannot fit the memo section"));
    }
    let mut classes = Vec::with_capacity(class_count as usize);
    for _ in 0..class_count {
        let mut len_buf = [0u8; 4];
        read_bin(r, *pos, &mut len_buf)?;
        let members_len = u64::from(u32::from_le_bytes(len_buf));
        if members_len == 0 {
            // A learned class always contains at least the original
            // byte: an empty member set marks a corrupted snapshot.
            return Err(corrupt(*pos, "empty byte-class member set"));
        }
        if pos.checked_add(4 + members_len).is_none_or(|end| end > limit) {
            return Err(corrupt(*pos, "byte class overruns the memo section"));
        }
        let mut members = vec![0u8; members_len as usize];
        read_bin(r, *pos + 4, &mut members)?;
        *pos += 4 + members_len;
        classes.push(CharClass::from_bytes(&members));
    }
    Ok(MemoEntry { key, classes })
}

/// Fully loads a `glade-cachebin v1` snapshot from a seekable reader into
/// a [`CacheSnapshot`]. The load is sequential: the index section is
/// skipped (it is derived data), and each record is read as it comes,
/// straight into its query's exactly sized buffer, so the record section
/// is never held beside the decoded entries.
///
/// # Errors
///
/// [`CacheError::BadHeader`] when the magic is absent,
/// [`CacheError::Corrupt`] for any truncation or structural
/// inconsistency, [`CacheError::Io`] for read failures.
pub fn snapshot_from_binary_reader<R: Read + Seek>(r: &mut R) -> Result<CacheSnapshot, CacheError> {
    let h = read_binary_header(r)?;
    r.seek(SeekFrom::Start(h.records_off))?;
    let mut pos = h.records_off;
    let mut entries = Vec::with_capacity(h.entry_count as usize);
    for _ in 0..h.entry_count {
        let mut head = [0u8; 5];
        read_bin(r, pos, &mut head)?;
        let verdict = match head[0] {
            0 => false,
            1 => true,
            _ => return Err(corrupt(pos, "record verdict byte is neither 0 nor 1")),
        };
        let qlen = u64::from(u32::from_le_bytes(head[1..5].try_into().unwrap()));
        if pos.checked_add(5 + qlen).is_none_or(|end| end > h.memo_off) {
            return Err(corrupt(pos, "record overruns its section"));
        }
        let mut query = vec![0u8; qlen as usize];
        read_bin(r, pos + 5, &mut query)?;
        entries.push((query, verdict));
        pos += 5 + qlen;
    }
    if pos != h.memo_off {
        return Err(corrupt(pos, "record section size mismatch"));
    }
    let mut memo = Vec::with_capacity(h.memo_count as usize);
    for _ in 0..h.memo_count {
        memo.push(read_bin_memo(r, &mut pos, h.total_len)?);
    }
    if pos != h.total_len {
        return Err(corrupt(pos, "memo section size mismatch"));
    }
    Ok(CacheSnapshot { oracle_fingerprint: h.fingerprint, entries, memo })
}

/// Fully loads a `glade-cachebin v1` snapshot from a byte slice. See
/// [`snapshot_from_binary_reader`].
///
/// # Errors
///
/// As [`snapshot_from_binary_reader`].
pub fn snapshot_from_binary(bytes: &[u8]) -> Result<CacheSnapshot, CacheError> {
    snapshot_from_binary_reader(&mut std::io::Cursor::new(bytes))
}

/// The header of a `glade-cachebin v1` snapshot, read without loading
/// the file: what `glade cache inspect` prints.
///
/// [`open`](BinaryCacheFile::open) reads and validates only the magic,
/// header, and fingerprint (~100 bytes), so it costs the same for any
/// snapshot size.
#[derive(Debug)]
pub struct BinaryCacheFile {
    header: BinHeader,
}

impl BinaryCacheFile {
    /// Opens a binary snapshot, reading only its header.
    ///
    /// # Errors
    ///
    /// As [`snapshot_from_binary_reader`] (the header carries enough
    /// redundancy that truncation anywhere is detected here).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        let header = read_binary_header(&mut std::fs::File::open(path)?)?;
        Ok(BinaryCacheFile { header })
    }

    /// Number of cached query entries in the snapshot.
    pub fn len(&self) -> usize {
        self.header.entry_count as usize
    }

    /// Whether the snapshot holds no query entries.
    pub fn is_empty(&self) -> bool {
        self.header.entry_count == 0
    }

    /// Number of byte-class memo entries in the snapshot.
    pub fn memo_len(&self) -> usize {
        self.header.memo_count as usize
    }

    /// The oracle fingerprint the snapshot was tagged with, if any.
    pub fn fingerprint(&self) -> Option<&str> {
        self.header.fingerprint.as_deref()
    }

    /// Total snapshot size in bytes (as recorded in the header).
    pub fn file_len(&self) -> u64 {
        self.header.total_len
    }
}

/// Durably replaces `path` with `bytes` via `tmp`: write the temporary
/// file, `fsync` it, rename it over `path`, then `fsync` the containing
/// directory so the rename itself survives power loss. Without the first
/// sync an atomic rename can still publish a *truncated* snapshot (the
/// rename's metadata can reach disk before the tmp file's data); without
/// the second the rename may simply vanish on crash, which is safe but
/// loses the save. Used by every cache/journal save path that must never
/// leave a torn file behind.
pub(crate) fn write_durable(path: &Path, tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let result = (|| {
        let mut file = std::fs::File::create(tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
        std::fs::rename(tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(tmp);
        return result;
    }
    fsync_dir_of(path)
}

/// Durably replaces the snapshot at `path` with `bytes` (see
/// [`write_durable`]) — the one write path of every snapshot save. The
/// temporary sibling is unique to this process and call, so concurrent
/// saves to one path (two CLI runs, two daemon campaigns of one oracle)
/// never write into one shared temporary file: the last rename wins whole.
pub(crate) fn save_durable(path: &Path, bytes: &[u8]) -> Result<(), CacheError> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}-{}.tmp", std::process::id(), SAVES.fetch_add(1, Ordering::Relaxed)));
    Ok(write_durable(path, Path::new(&tmp), bytes)?)
}

/// Fsyncs the directory containing `path` (best effort on platforms or
/// filesystems where directories cannot be opened for sync).
pub(crate) fn fsync_dir_of(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    match std::fs::File::open(dir) {
        Ok(handle) => handle.sync_all(),
        // A directory that cannot be opened (exotic fs) degrades to the
        // pre-durability behavior rather than failing the save.
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_hash_golden_vectors() {
        // The `glade-cachebin v1` index hash is part of the on-disk
        // format: these values are what every existing snapshot stores
        // (`std`'s `DefaultHasher` over a `&[u8]` on x86_64 when the
        // format was defined). A change here orphans old snapshots.
        // The inputs cover an empty query, a partial word, exactly one
        // word, one word plus a byte, and non-ASCII bytes.
        let vectors: &[(&[u8], u64)] = &[
            (b"", 0xbd60_acb6_58c7_9e45),
            (b"a", 0xbeb9_a6bb_f61b_58b4),
            (b"<a>hi</a>", 0x8da8_323a_287c_f40c),
            (b"0123456", 0xd193_f509_3593_6a68),
            (b"01234567", 0x919a_0a9c_421e_9086),
            (b"012345678", 0x3ba1_8f46_97c8_fa57),
            (b"glade-cachebin v1 index hash pin", 0xea8d_709e_952b_0da4),
            (&[0, 255, 10, 13], 0x9581_01dd_9c27_6c1a),
        ];
        for &(query, expected) in vectors {
            assert_eq!(index_hash(query), expected, "{:?}", String::from_utf8_lossy(query));
        }
    }

    #[test]
    fn binary_index_stores_the_pinned_hash() {
        // The first index slot of a one-entry snapshot is the entry's
        // `index_hash`, byte for byte.
        let bytes = snapshot_to_binary(&[(b"<a>hi</a>".to_vec(), true)], &[], None);
        let index_off = BINARY_MAGIC.len() + BIN_HEADER_LEN;
        let stored = u64::from_le_bytes(bytes[index_off..index_off + 8].try_into().unwrap());
        assert_eq!(stored, 0x8da8_323a_287c_f40c);
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let entries = vec![
            (b"<a>hi</a>".to_vec(), true),
            (b"".to_vec(), true),
            (b"<a>".to_vec(), false),
            (vec![0x00, 0xff, 0x0a], false),
        ];
        let mut expected = entries.clone();
        expected.sort();
        let bin = snapshot_from_binary(&snapshot_to_binary(&entries, &[], None)).unwrap();
        assert_eq!(bin.entries, expected);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let a = vec![(b"bb".to_vec(), true), (b"aa".to_vec(), false)];
        let b = vec![(b"aa".to_vec(), false), (b"bb".to_vec(), true)];
        let bin = snapshot_to_binary(&a, &[], None);
        assert_eq!(bin, snapshot_to_binary(&b, &[], None), "insertion order must not matter");
        // Idempotent through a second roundtrip.
        let reparsed = snapshot_from_binary(&bin).unwrap();
        assert_eq!(reparsed.entries, b);
        assert_eq!(snapshot_to_binary(&reparsed.entries, &[], None), bin);
    }

    #[test]
    fn empty_query_roundtrips() {
        let entries = vec![(Vec::new(), true)];
        let bin = snapshot_to_binary(&entries, &[], None);
        assert_eq!(snapshot_from_binary(&bin).unwrap().entries, entries);
    }

    #[test]
    fn rejects_bad_header() {
        // Anything that does not begin with the magic is `BadHeader`,
        // however short: a pre-binary text snapshot (its empty form is
        // shorter than the magic), another version, arbitrary bytes.
        for bytes in [
            &b"glade-cache v1\n"[..],
            b"glade-cache v3\noracle 74\nq 1 61\n",
            b"glade-cachebin v2\n0123456789012345678901234567890123456789012345678901",
            b"nope",
        ] {
            let err = snapshot_from_binary(bytes).unwrap_err();
            assert!(matches!(err, CacheError::BadHeader), "{bytes:?}: {err}");
        }
        // A cut inside the magic itself is a truncated snapshot.
        for bytes in [&b""[..], b"glade-cachebin"] {
            let err = snapshot_from_binary(bytes).unwrap_err();
            assert!(matches!(err, CacheError::Corrupt { .. }), "{bytes:?}: {err}");
        }
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let io = CacheError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(io.source().is_some());
        assert!(CacheError::BadHeader.source().is_none());
        assert!(CacheError::BadHeader.to_string().contains("not a glade-cachebin v1 snapshot"));
        let mismatch = CacheError::OracleMismatch { snapshot: "a".into(), expected: "b".into() };
        assert!(mismatch.to_string().contains("different oracle"));
        assert!(mismatch.source().is_none());
        let corrupt = CacheError::Corrupt { offset: 42, what: "testing" };
        assert!(corrupt.to_string().contains("byte 42"));
        assert!(corrupt.to_string().contains("testing"));
        assert!(corrupt.source().is_none());
    }

    fn sample_memo() -> Vec<MemoEntry> {
        vec![
            MemoEntry {
                key: *b"0123456789abcdef",
                classes: vec![CharClass::from_bytes(b"ab"), CharClass::from_bytes(b"c")],
            },
            MemoEntry { key: [0u8; 16], classes: vec![CharClass::from_bytes(b"\x00\xff")] },
        ]
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let entries = vec![
            (b"<a>hi</a>".to_vec(), true),
            (b"".to_vec(), true),
            (vec![0x00, 0xff, 0x0a], false),
        ];
        let memo = sample_memo();
        let bin = snapshot_to_binary(&entries, &memo, Some("process:xmllint"));
        assert!(bin.starts_with(BINARY_MAGIC));
        let snap = snapshot_from_binary(&bin).unwrap();
        assert_eq!(snap.oracle_fingerprint.as_deref(), Some("process:xmllint"));
        let mut expected = entries.clone();
        expected.sort();
        assert_eq!(snap.entries, expected, "entries come back sorted by query bytes");
        let mut memo_expected = memo.clone();
        memo_expected.sort_by_key(|m| m.key);
        assert_eq!(snap.memo, memo_expected, "memo comes back sorted by key");
        // Byte-stable: re-serializing the parse reproduces the snapshot,
        // and insertion order never matters.
        assert_eq!(snapshot_to_binary(&snap.entries, &snap.memo, Some("process:xmllint")), bin);
        let mut shuffled = entries;
        shuffled.reverse();
        assert_eq!(snapshot_to_binary(&shuffled, &memo, Some("process:xmllint")), bin);
    }
    #[test]
    fn binary_snapshot_without_fingerprint_or_memo() {
        let bin = snapshot_to_binary(&[(b"a".to_vec(), true)], &[], None);
        let snap = snapshot_from_binary(&bin).unwrap();
        assert_eq!(snap.oracle_fingerprint, None);
        assert_eq!(snap.entries, vec![(b"a".to_vec(), true)]);
        assert!(snap.memo.is_empty());
        // Empty snapshot is valid too.
        let empty = snapshot_to_binary::<&[u8]>(&[], &[], None);
        assert_eq!(snapshot_from_binary(&empty).unwrap().entries, vec![]);
    }

    #[test]
    fn binary_truncation_at_every_cut_is_a_clean_error() {
        let entries = vec![(b"hello".to_vec(), true), (b"world!".to_vec(), false)];
        let bin = snapshot_to_binary(&entries, &sample_memo(), Some("fp"));
        for cut in 0..bin.len() {
            let err = snapshot_from_binary(&bin[..cut])
                .expect_err(&format!("truncation at {cut} of {} parsed", bin.len()));
            assert!(
                matches!(err, CacheError::Corrupt { .. } | CacheError::BadHeader),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn binary_rejects_structural_corruption() {
        let bin = snapshot_to_binary(&[(b"abc".to_vec(), true)], &[], None);
        // Flip the verdict byte to garbage.
        let records_off = BINARY_MAGIC.len() + BIN_HEADER_LEN + BIN_INDEX_SLOT;
        let mut bad = bin.clone();
        bad[records_off] = 7;
        assert!(matches!(
            snapshot_from_binary(&bad).unwrap_err(),
            CacheError::Corrupt { what: "record verdict byte is neither 0 nor 1", .. }
        ));
        // Grow the declared entry count without the bytes to back it.
        let mut bad = bin.clone();
        bad[BINARY_MAGIC.len() + 4] = 0xff;
        assert!(snapshot_from_binary(&bad).is_err());
        // Appending junk breaks the total-length cross-check.
        let mut bad = bin;
        bad.push(0);
        assert!(matches!(snapshot_from_binary(&bad).unwrap_err(), CacheError::Corrupt { .. }));
    }

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("glade-persist-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn save_writes_binary_that_load_reads_back() {
        let snap = CacheSnapshot {
            oracle_fingerprint: Some("fp".into()),
            entries: vec![(b"x".to_vec(), true), (b"y".to_vec(), false)],
            memo: sample_memo(),
        };
        let path = write_temp("save.glade-cache", b"stale");
        let bytes = snapshot_to_binary(&snap.entries, &snap.memo, Some("fp"));
        save_durable(&path, &bytes).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(BINARY_MAGIC));
        let mut memo = snap.memo.clone();
        memo.sort_by_key(|m| m.key);
        assert_eq!(CacheSnapshot::load(&path).unwrap(), CacheSnapshot { memo, ..snap });
        std::fs::remove_file(&path).ok();
    }
}
