//! Process-wide warm cache of built libraries.
//!
//! Building a [`Library`] materializes every gate's pattern-graph
//! decompositions — the expensive, perfectly reusable part of serving
//! a request. The cache keys entries by a fingerprint of the *built*
//! library (not the request string), so two names that resolve to the
//! same gates share one entry, and the fingerprint doubles as a
//! client-visible cache identity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lily_cells::Library;
use lily_netlist::hash::Fnv1a;

/// FNV-1a over the observable shape of a built library: name, then
/// per gate its name, fanin, function bits, area bits, and pattern
/// count. Stable across processes for identical libraries.
#[must_use]
pub fn library_fingerprint(lib: &Library) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(lib.name().as_bytes());
    for g in lib.gates() {
        h.bytes(b"\x00");
        h.bytes(g.name().as_bytes());
        h.bytes(&(g.fanin() as u64).to_le_bytes());
        h.bytes(&g.function().bits().to_le_bytes());
        h.bytes(&g.area().to_bits().to_le_bytes());
        h.bytes(&(g.patterns().len() as u64).to_le_bytes());
    }
    // The cut mapper matches through the NPN index, so its identity is
    // part of the library's observable shape: fold it in.
    h.bytes(&lib.npn().fingerprint().to_le_bytes());
    h.finish()
}

/// One cached library.
#[derive(Debug)]
pub struct CacheEntry {
    /// The built library, shared by every concurrent job using it.
    pub library: Arc<Library>,
    /// The entry's cache key.
    pub fingerprint: u64,
}

impl CacheEntry {
    fn new(library: Library) -> Self {
        let fingerprint = library_fingerprint(&library);
        Self { library: Arc::new(library), fingerprint }
    }
}

/// Hit/miss counters, snapshot by the `stats` RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a warm entry.
    pub hits: u64,
    /// Requests that had to build the library.
    pub misses: u64,
}

/// The unknown-library error: the only way [`LibraryCache::get`]
/// fails (everything cacheable about a known name succeeds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownLibrary {
    /// The name the request asked for.
    pub name: String,
}

impl std::fmt::Display for UnknownLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown library `{}` (expected tiny, big, big-sized, or big-1u)", self.name)
    }
}

impl std::error::Error for UnknownLibrary {}

/// Process-wide library cache. One instance lives in the server and
/// is shared (behind `Arc`) by every worker.
#[derive(Debug, Default)]
pub struct LibraryCache {
    by_name: Mutex<BTreeMap<String, Arc<CacheEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LibraryCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves a library name, building and caching it on first use.
    /// The boolean is `true` on a warm hit.
    ///
    /// # Errors
    ///
    /// [`UnknownLibrary`] when the name is not a known builder.
    pub fn get(&self, name: &str) -> Result<(Arc<CacheEntry>, bool), UnknownLibrary> {
        {
            let map = self.by_name.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(entry) = map.get(name) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(entry), true));
            }
        }
        // Build outside the lock: a miss on `big-sized` must not
        // stall a concurrent hit on `tiny`.
        let built = match name {
            "tiny" => Library::tiny(),
            "big" => Library::big(),
            "big-sized" => Library::big_sized(),
            "big-1u" => Library::big_1u(),
            other => return Err(UnknownLibrary { name: other.to_string() }),
        };
        let entry = Arc::new(CacheEntry::new(built));
        let mut map = self.by_name.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = map.entry(name.to_string()).or_insert(entry);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::clone(entry), false))
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_use_misses_then_hits_warm() {
        let cache = LibraryCache::new();
        let (a, hit_a) = cache.get("tiny").unwrap();
        assert!(!hit_a);
        let (b, hit_b) = cache.get("tiny").unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a.library, &b.library), "one build, shared by both");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert!(cache.get("nonesuch").is_err());
    }

    #[test]
    fn fingerprints_separate_different_libraries_and_agree_on_same() {
        assert_eq!(library_fingerprint(&Library::big()), library_fingerprint(&Library::big()));
        assert_ne!(library_fingerprint(&Library::big()), library_fingerprint(&Library::tiny()));
        assert_ne!(
            library_fingerprint(&Library::big()),
            library_fingerprint(&Library::big_sized()),
            "sizing variants must not share cache entries"
        );
    }
}
