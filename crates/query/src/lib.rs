//! Content-addressed memo store.
//!
//! A [`QueryDb`] maps `(kind, 128-bit content key)` to a computed value.
//! Callers derive the key from a collision-resistant hash of *every* input
//! the computation can observe, so the key IS the input: a stored value can
//! never go stale, and there is nothing to validate or invalidate.
//! [`QueryDb::memo_once`] is the whole engine — look the key up, or compute
//! the value once and store it.
//!
//! Kinds ([`QueryDb::register_kind`]) partition the key space and label the
//! `query_hits{kind}` / `query_recomputes{kind}` telemetry counters.
//!
//! The store is concurrency-safe: memo tables are sharded behind mutexes,
//! no lock is held across a compute function, and compute functions are
//! required to be pure, so a racing duplicate computation is wasted work but
//! never an error.

use metamut_lang::fxhash::FxHashMap;
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of memo-table shards (power of two).
const SHARDS: usize = 16;

/// A dynamically typed, shareable memo value.
pub type DynValue = Arc<dyn Any + Send + Sync>;

/// Identifies a registered memo kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KindId(u32);

type Shard = Mutex<FxHashMap<(KindId, u128), DynValue>>;

/// The memo database: registered kind names, sharded memo tables, and
/// typed extension storage.
pub struct QueryDb {
    kinds: RwLock<Vec<&'static str>>,
    shards: [Shard; SHARDS],
    /// Per-db typed extension storage, for layering domain state (e.g. a
    /// client's registered kind ids) onto a shared database.
    extensions: Mutex<FxHashMap<std::any::TypeId, DynValue>>,
    hits: AtomicU64,
    recomputes: AtomicU64,
}

impl Default for QueryDb {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for QueryDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryDb")
            .field("memos", &self.len())
            .finish()
    }
}

impl QueryDb {
    /// An empty database with no registered kinds.
    pub fn new() -> Self {
        QueryDb {
            kinds: RwLock::new(Vec::new()),
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            extensions: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
        }
    }

    /// Total number of live memos across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no memos are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a stored memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compute-function executions.
    pub fn recomputes(&self) -> u64 {
        self.recomputes.load(Ordering::Relaxed)
    }

    /// Registers a memo kind. `name` labels its telemetry counters
    /// (`query_hits{name}` / `query_recomputes{name}`).
    pub fn register_kind(&self, name: &'static str) -> KindId {
        let mut kinds = self.kinds.write();
        let id = u32::try_from(kinds.len()).expect("kind overflow");
        kinds.push(name);
        KindId(id)
    }

    fn shard(&self, kind: KindId, key: u128) -> &Shard {
        // Keys are content hashes, so their low bits are already uniform.
        &self.shards[((key as usize) ^ kind.0 as usize) % SHARDS]
    }

    fn count(&self, counter: &AtomicU64, family: &str, kind: KindId) {
        counter.fetch_add(1, Ordering::Relaxed);
        let tele = metamut_telemetry::handle();
        if tele.enabled() {
            let name = self.kinds.read()[kind.0 as usize];
            tele.counter_add(&metamut_telemetry::labeled(family, name), 1);
        }
    }

    /// Returns the stored value for `(kind, key)` or computes and stores
    /// it, reporting whether the call was a hit. `key` must be a content
    /// hash of every input `compute` observes, so the stored value can
    /// never change.
    pub fn memo_once(
        &self,
        kind: KindId,
        key: u128,
        compute: impl FnOnce() -> DynValue,
    ) -> (DynValue, bool) {
        let stored = self.shard(kind, key).lock().get(&(kind, key)).cloned();
        if let Some(value) = stored {
            self.count(&self.hits, "query_hits", kind);
            return (value, true);
        }
        let value = compute();
        self.count(&self.recomputes, "query_recomputes", kind);
        // A racing thread may have stored its own copy between our probe
        // and this insert; keep the first one so every caller observes a
        // single canonical artifact.
        let mut shard = self.shard(kind, key).lock();
        (shard.entry((kind, key)).or_insert(value).clone(), false)
    }

    /// Typed per-db extension storage: returns the existing `T` or installs
    /// the one produced by `init`. Lets several handles layered over one
    /// shared database agree on domain state (kind ids, registries).
    pub fn extension<T: Send + Sync + 'static>(&self, init: impl FnOnce() -> T) -> Arc<T> {
        let mut map = self.extensions.lock();
        let entry = map
            .entry(std::any::TypeId::of::<T>())
            .or_insert_with(|| Arc::new(init()) as DynValue);
        entry.clone().downcast::<T>().expect("extension type clash")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: i64) -> DynValue {
        Arc::new(n)
    }

    fn as_i64(v: &DynValue) -> i64 {
        *v.downcast_ref::<i64>().unwrap()
    }

    #[test]
    fn memo_once_hits_and_keeps_the_first_value() {
        let db = QueryDb::new();
        let kind = db.register_kind("content");
        let (v, hit) = db.memo_once(kind, 1, || val(41));
        assert_eq!((as_i64(&v), hit), (41, false));
        // The stored value wins over any later compute closure.
        let (v, hit) = db.memo_once(kind, 1, || val(999));
        assert_eq!((as_i64(&v), hit), (41, true));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn independent_keys_do_not_invalidate_each_other() {
        // Kinds partition the key space: one content key under two kinds
        // names two memos, and storing one never disturbs another.
        let db = QueryDb::new();
        let a = db.register_kind("a");
        let b = db.register_kind("b");
        let key = u128::MAX - 7;
        db.memo_once(a, key, || val(1));
        db.memo_once(b, key, || val(2));
        db.memo_once(a, key + 1, || val(3));
        assert_eq!(db.len(), 3);
        assert_eq!(as_i64(&db.memo_once(a, key, || val(0)).0), 1);
        assert_eq!(as_i64(&db.memo_once(b, key, || val(0)).0), 2);
        assert_eq!(as_i64(&db.memo_once(a, key + 1, || val(0)).0), 3);
        assert_eq!((db.hits(), db.recomputes()), (3, 3));
    }

    #[test]
    fn cross_thread_sharing_sees_one_memo_table() {
        let db = Arc::new(QueryDb::new());
        let kind = db.register_kind("shared");
        // Prime on the main thread.
        db.memo_once(kind, 100, || val(100));
        let recomputes = db.recomputes();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || as_i64(&db.memo_once(kind, 100, || val(-1)).0))
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 100);
        }
        // All four workers hit the shared memo.
        assert_eq!(db.recomputes(), recomputes);
        assert!(db.hits() >= 4);
    }

    #[test]
    fn extensions_are_shared_across_handles() {
        let db = Arc::new(QueryDb::new());
        let a = db.extension(|| Mutex::new(1i64));
        *a.lock() = 5;
        let b = db.extension(|| Mutex::new(0i64));
        assert_eq!(*b.lock(), 5);
    }
}
