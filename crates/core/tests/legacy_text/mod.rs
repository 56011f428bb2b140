//! A legacy `glade-cache` text snapshot encoder for tests. Nothing writes
//! this format any more, but the read-only importer must keep loading what
//! earlier builds wrote.

use glade_core::CacheSnapshot;
use std::fmt::Write as _;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut out, b| {
        let _ = write!(out, "{b:02x}");
        out
    })
}

/// Encodes `snapshot` exactly as earlier builds wrote it: `glade-cache v3`
/// when it has memo entries, else `v2` when it has a fingerprint, else
/// `v1`; memo lines sorted by key, then query lines sorted by query bytes.
pub fn legacy_text(snapshot: &CacheSnapshot) -> String {
    let fingerprint = snapshot.oracle_fingerprint.as_deref();
    let version = match (snapshot.memo.is_empty(), fingerprint) {
        (false, _) => 3,
        (true, Some(_)) => 2,
        (true, None) => 1,
    };
    let mut out = format!("glade-cache v{version}\n");
    if let Some(fp) = fingerprint {
        let _ = writeln!(out, "oracle {}", hex(fp.as_bytes()));
    }
    let mut memo: Vec<_> = snapshot.memo.iter().collect();
    memo.sort_by_key(|m| m.key);
    for entry in memo {
        let classes: Vec<String> =
            entry.classes.iter().map(|c| hex(&c.iter().collect::<Vec<u8>>())).collect();
        let _ = writeln!(out, "m {} {}", hex(&entry.key), classes.join(","));
    }
    let mut entries: Vec<(&[u8], bool)> = snapshot.entries.iter().collect();
    entries.sort();
    for (query, verdict) in entries {
        let _ = writeln!(out, "q {} {}", u8::from(verdict), hex(query));
    }
    out
}
