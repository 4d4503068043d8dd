//! Content-addressed result cache, backed by the fleet's crash-safe
//! manifest format.
//!
//! Every completed cell is stored under a key derived purely from its
//! *content*: protocol, scenario JSON, seed, and the trace/profile
//! flags, all folded through FNV-1a together with the wire-protocol
//! version. Because the engine is bit-deterministic, replaying a cached
//! cell is byte-identical to recomputing it — the cache is a pure
//! memoization layer, never an approximation.
//!
//! On disk the cache is a manifest (`header` + one digest-checked JSONL
//! entry per cell), so it inherits PR 4's crash-safety: appends are
//! flushed per line, a torn tail is dropped on load, and the header
//! carries both the serve options hash and the scenario *schema*
//! fingerprint. A cache written by a build with a different scenario
//! layout or wire protocol is discarded (with a warning) rather than
//! replayed — unlike a sweep resume, a stale cache is never an error,
//! just a cold start.
//!
//! In memory each entry holds one form of its cell. A cell stored by
//! this process is held as its serialized pieces ([`CellBytes`]), which
//! a hit splices into response lines without serializing anything.
//! Entries loaded from disk stay as the raw manifest JSON until their
//! first hit, which parses them into pieces once; parsing every entry
//! at open would make a restart pay for cells nobody asks for.

use crate::proto::{CellBytes, ServeCell, PROTO_VERSION};
use rmm_fleet::{hex, Fnv1a, JobId, Manifest, ManifestError, ManifestHeader, MANIFEST_VERSION};
use rmm_mac::ProtocolKind;
use rmm_workload::Scenario;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Computes the content address of one cell. Everything that can change
/// the response bytes is hashed; nothing else is.
pub fn cache_key(
    protocol: ProtocolKind,
    scenario: &Scenario,
    seed: u64,
    trace: bool,
    profile: bool,
) -> String {
    let mut h = Fnv1a::new();
    h.write_str("serve");
    h.write_u64(u64::from(PROTO_VERSION));
    h.write_str(protocol.name());
    h.write_str(&serde_json::to_string(scenario).expect("scenario serializes"));
    h.write_u64(seed);
    h.write_u64(u64::from(trace) << 1 | u64::from(profile));
    format!("{}/{}", protocol.name(), hex(h.finish()))
}

/// The serve-side result cache: an in-memory index over an optional
/// on-disk manifest. All methods take `&self`; the store is shared
/// across connection threads behind an `Arc`.
pub struct CacheStore {
    manifest: Option<Manifest>,
    index: Mutex<HashMap<String, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One cached cell, in exactly one form.
#[derive(Clone)]
enum Entry {
    /// The manifest JSON of a cell loaded from disk and not hit yet.
    Raw(Arc<String>),
    /// The serialized pieces of a cell.
    Pieces(Arc<CellBytes>),
}

fn cache_header(schema: u32) -> ManifestHeader {
    let mut h = Fnv1a::new();
    h.write_str("serve");
    h.write_u64(u64::from(PROTO_VERSION));
    ManifestHeader {
        sweep: "serve-cache".into(),
        options_hash: hex(h.finish()),
        jobs: 0,
        version: MANIFEST_VERSION,
        schema,
    }
}

impl CacheStore {
    /// Opens the cache. With `path: None` the cache is memory-only (it
    /// dies with the server). With a path, compatible entries from a
    /// previous server are loaded back in; a missing file starts empty,
    /// and a stale or corrupt file (other schema, other wire protocol,
    /// unreadable header) is *discarded* with a warning and rebuilt
    /// from scratch.
    pub fn open(path: Option<&Path>, schema: u32) -> std::io::Result<CacheStore> {
        let header = cache_header(schema);
        let Some(path) = path else {
            return Ok(CacheStore {
                manifest: None,
                index: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            });
        };
        let preserved = match Manifest::load(path, &header) {
            Ok(entries) => entries,
            Err(ManifestError::Missing) => Vec::new(),
            Err(e @ (ManifestError::Stale { .. } | ManifestError::Corrupt(_))) => {
                eprintln!(
                    "rmm-serve: discarding incompatible cache at {}: {e}",
                    path.display()
                );
                Vec::new()
            }
            Err(ManifestError::Io(e)) => return Err(e),
        };
        let manifest = Manifest::create(path, &header, &preserved)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut index = HashMap::with_capacity(preserved.len());
        for (id, json) in preserved {
            index.insert(id.point, Entry::Raw(Arc::new(json)));
        }
        Ok(CacheStore {
            manifest: Some(manifest),
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks a cell up by content key, counting a hit or a miss. An
    /// unparseable stored cell (which a digest-checked manifest should
    /// never produce) degrades to a miss.
    pub fn get(&self, key: &str) -> Option<ServeCell> {
        let cell = match self.entry(key) {
            Some(Entry::Raw(json)) => serde_json::from_str(&json).ok(),
            Some(Entry::Pieces(bytes)) => bytes.to_cell().ok(),
            None => None,
        };
        self.count(cell.is_some());
        cell
    }

    /// Looks a cell up by content key as its serialized pieces, the
    /// server's hit path, counting a hit or a miss as [`CacheStore::get`]
    /// does. An entry loaded from disk is parsed on its first hit and
    /// kept as pieces from then on.
    pub fn get_bytes(&self, key: &str) -> Option<Arc<CellBytes>> {
        let bytes = match self.entry(key) {
            Some(Entry::Pieces(bytes)) => Some(bytes),
            Some(Entry::Raw(json)) => CellBytes::parse(&json).ok().map(|bytes| {
                let bytes = Arc::new(bytes);
                // A `put` or another first hit racing this parse stored
                // the same bytes, so whichever lands last is harmless.
                let mut index = self.index.lock().expect("cache index poisoned");
                if let Some(entry) = index.get_mut(key) {
                    *entry = Entry::Pieces(Arc::clone(&bytes));
                }
                bytes
            }),
            None => None,
        };
        self.count(bytes.is_some());
        bytes
    }

    fn entry(&self, key: &str) -> Option<Entry> {
        self.index
            .lock()
            .expect("cache index poisoned")
            .get(key)
            .cloned()
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores one completed cell under its content key and appends it
    /// to the on-disk manifest. Concurrent identical misses may race
    /// here; both compute the same bytes, so last-write-wins is
    /// harmless and the on-load index dedups the duplicate line.
    pub fn put(&self, key: &str, seed: u64, cell: &ServeCell) {
        self.put_bytes(key, seed, Arc::new(CellBytes::of(cell)));
    }

    /// [`CacheStore::put`] for a cell already serialized into pieces:
    /// the manifest line is spliced from them, byte-identical to the
    /// line `put` writes.
    pub fn put_bytes(&self, key: &str, seed: u64, bytes: Arc<CellBytes>) {
        if let Some(manifest) = &self.manifest {
            manifest.append(&JobId::new("serve", key, seed), &bytes.cell_json());
        }
        self.index
            .lock()
            .expect("cache index poisoned")
            .insert(key.to_string(), Entry::Pieces(bytes));
    }

    /// Number of distinct cached cells.
    pub fn len(&self) -> usize {
        self.index.lock().expect("cache index poisoned").len()
    }

    /// Whether the cache holds no cells yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache since this store opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the engine since this store opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::compute_cell;

    fn tiny() -> Scenario {
        Scenario {
            n_nodes: 8,
            sim_slots: 200,
            n_runs: 1,
            ..Scenario::default()
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rmm-serve-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.jsonl")
    }

    #[test]
    fn key_depends_on_every_input() {
        let s = tiny();
        let base = cache_key(ProtocolKind::Bmmm, &s, 1, false, false);
        assert_ne!(base, cache_key(ProtocolKind::Bmw, &s, 1, false, false));
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &s, 2, false, false));
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &s, 1, true, false));
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &s, 1, false, true));
        let mut other = s.clone();
        other.n_nodes += 1;
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &other, 1, false, false));
        assert_eq!(base, cache_key(ProtocolKind::Bmmm, &s, 1, false, false));
    }

    #[test]
    fn memory_cache_round_trips_and_counts() {
        let cache = CacheStore::open(None, 7).unwrap();
        let s = tiny();
        let key = cache_key(ProtocolKind::Lamm, &s, 3, true, false);
        assert!(cache.get(&key).is_none());
        let cell = compute_cell(&s, ProtocolKind::Lamm, 3, true, false);
        cache.put(&key, 3, &cell);
        let back = cache.get(&key).expect("cached");
        assert_eq!(
            serde_json::to_string(&back.result).unwrap(),
            serde_json::to_string(&cell.result).unwrap()
        );
        assert_eq!(back.trace.as_deref(), cell.trace.as_deref());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    /// Lines of `run_response_lines`, each with its newline, as
    /// `CellBytes::render` writes them.
    fn serde_lines(id: u64, cell: &ServeCell, cached: bool) -> String {
        crate::proto::run_response_lines(id, cell, cached)
            .iter()
            .map(|line| format!("{line}\n"))
            .collect()
    }

    /// Cells of every kind the cache stores, with their keys and seeds.
    fn cells(s: &Scenario) -> Vec<(String, u64, ServeCell)> {
        let kinds = [
            (ProtocolKind::Bmmm, false, false),
            (ProtocolKind::Lamm, true, false),
            (ProtocolKind::Bmw, false, true),
            (ProtocolKind::Ieee80211, true, true),
        ];
        kinds
            .iter()
            .enumerate()
            .map(|(seed, &(protocol, trace, profile))| {
                let seed = seed as u64;
                let key = cache_key(protocol, s, seed, trace, profile);
                (key, seed, compute_cell(s, protocol, seed, trace, profile))
            })
            .collect()
    }

    #[test]
    fn hits_and_misses_count_on_both_paths() {
        let cache = CacheStore::open(None, 7).unwrap();
        let s = tiny();
        let key = cache_key(ProtocolKind::Bmw, &s, 1, false, false);
        assert!(cache.get_bytes(&key).is_none());
        assert!(cache.get(&key).is_none());
        cache.put(
            &key,
            1,
            &compute_cell(&s, ProtocolKind::Bmw, 1, false, false),
        );
        assert!(cache.get_bytes(&key).is_some());
        assert!(cache.get(&key).is_some());
        assert!(cache.get_bytes(&key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
    }

    #[test]
    fn a_parent_format_manifest_hits_byte_identically() {
        let path = tmp("parent-format");
        let s = tiny();
        let cells = cells(&s);
        // What a cache without the spliced hit path wrote: each cell's
        // `serde_json::to_string`, appended under its key.
        let entries: Vec<(JobId, String)> = cells
            .iter()
            .map(|(key, seed, cell)| {
                let json = serde_json::to_string(cell).unwrap();
                (JobId::new("serve", key.as_str(), *seed), json)
            })
            .collect();
        Manifest::create(&path, &cache_header(7), &entries).unwrap();
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert_eq!(cache.len(), cells.len());
        for (id, (key, _, cell)) in cells.iter().enumerate() {
            for hit in ["first (raw)", "later (pieces)"] {
                let got = cache.get_bytes(key).expect("hit").render(id as u64, true);
                assert_eq!(got, serde_lines(id as u64, cell, true), "{key}: {hit} hit");
            }
            let back = cache.get(key).expect("hit");
            assert_eq!(serde_json::to_string(&back).unwrap(), entries[id].1);
        }
        assert_eq!((cache.hits(), cache.misses()), (3 * cells.len() as u64, 0));
    }

    #[test]
    fn put_writes_the_parent_format_manifest_lines() {
        let (path, want) = (tmp("put-format"), tmp("put-format-want"));
        let s = tiny();
        let cells = cells(&s);
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            let expected = Manifest::create(&want, &cache_header(7), &[]).unwrap();
            for (key, seed, cell) in &cells {
                cache.put(key, *seed, cell);
                let json = serde_json::to_string(cell).unwrap();
                expected.append(&JobId::new("serve", key.as_str(), *seed), &json);
            }
        }
        let want = std::fs::read(&want).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want, "appended lines");
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want, "rewritten on reopen");
        for (id, (key, _, cell)) in cells.iter().enumerate() {
            let got = cache.get_bytes(key).expect("hit").render(id as u64, true);
            assert_eq!(got, serde_lines(id as u64, cell, true), "{key}");
        }
    }

    #[test]
    fn an_unparseable_stored_cell_misses_on_both_paths() {
        let path = tmp("unparseable");
        let entries = [(JobId::new("serve", "k", 0), "{\"result\":".to_string())];
        Manifest::create(&path, &cache_header(7), &entries).unwrap();
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert_eq!(cache.len(), 1, "the digest holds, so the entry loads");
        assert!(cache.get_bytes("k").is_none());
        assert!(cache.get_bytes("k").is_none());
        assert!(cache.get("k").is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
    }

    #[test]
    fn disk_cache_survives_reopen() {
        let path = tmp("reopen");
        let s = tiny();
        let key = cache_key(ProtocolKind::TangGerla, &s, 5, false, false);
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            cache.put(
                &key,
                5,
                &compute_cell(&s, ProtocolKind::TangGerla, 5, false, false),
            );
            assert_eq!(cache.len(), 1);
        }
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn schema_drift_discards_disk_cache() {
        let path = tmp("schema");
        let s = tiny();
        let key = cache_key(ProtocolKind::Bsma, &s, 1, false, false);
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            cache.put(
                &key,
                1,
                &compute_cell(&s, ProtocolKind::Bsma, 1, false, false),
            );
        }
        let cache = CacheStore::open(Some(&path), 8).unwrap();
        assert!(cache.is_empty(), "other schema must start cold");
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn");
        let s = tiny();
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            for seed in 0..3 {
                let key = cache_key(ProtocolKind::Ieee80211, &s, seed, false, false);
                cache.put(
                    &key,
                    seed,
                    &compute_cell(&s, ProtocolKind::Ieee80211, seed, false, false),
                );
            }
        }
        // Simulate a kill mid-append: truncate the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - text.lines().last().unwrap().len() / 2;
        std::fs::write(&path, &text.as_bytes()[..keep]).unwrap();
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert_eq!(
            cache.len(),
            2,
            "intact prefix survives, torn tail is dropped"
        );
    }
}
