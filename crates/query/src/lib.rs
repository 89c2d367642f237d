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
//! Memory is bounded by [`QueryDb::enforce_cap`], which evicts the
//! least-recently-used memos down to a cap; an evicted memo is simply
//! recomputed on its next use.
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

/// Indices of positions where `current` differs from `baseline`.
///
/// Returns `None` when the slices have different lengths — the caller cannot
/// map positions one-to-one and must fall back to a full recomputation.
pub fn dirty_set<T: PartialEq>(baseline: &[T], current: &[T]) -> Option<Vec<usize>> {
    if baseline.len() != current.len() {
        return None;
    }
    Some(
        baseline
            .iter()
            .zip(current)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect(),
    )
}

/// One stored value plus its LRU stamp from the db-wide use clock.
struct Memo {
    value: DynValue,
    last_used: u64,
}

type Shard = Mutex<FxHashMap<(KindId, u128), Memo>>;

/// The memo database: registered kind names, sharded memo tables, and
/// typed extension storage.
pub struct QueryDb {
    use_clock: AtomicU64,
    kinds: RwLock<Vec<&'static str>>,
    shards: [Shard; SHARDS],
    /// Per-db typed extension storage, for layering domain state (e.g. a
    /// compiler's slot registry) onto a shared database.
    extensions: Mutex<FxHashMap<std::any::TypeId, DynValue>>,
    hits: AtomicU64,
    recomputes: AtomicU64,
    evictions: AtomicU64,
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
            use_clock: AtomicU64::new(0),
            kinds: RwLock::new(Vec::new()),
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            extensions: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
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

    /// Memos dropped by [`Self::enforce_cap`].
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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

    fn stamp(&self) -> u64 {
        self.use_clock.fetch_add(1, Ordering::Relaxed) + 1
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
        {
            let stamp = self.stamp();
            let mut shard = self.shard(kind, key).lock();
            if let Some(memo) = shard.get_mut(&(kind, key)) {
                memo.last_used = stamp;
                let value = memo.value.clone();
                drop(shard);
                self.count(&self.hits, "query_hits", kind);
                return (value, true);
            }
        }
        let value = compute();
        self.count(&self.recomputes, "query_recomputes", kind);
        let stamp = self.stamp();
        let mut shard = self.shard(kind, key).lock();
        // A racing thread may have stored its own copy between our probe
        // and this insert; keep the first one so every caller observes a
        // single canonical artifact.
        let memo = shard.entry((kind, key)).or_insert(Memo {
            value,
            last_used: stamp,
        });
        (memo.value.clone(), false)
    }

    /// Evicts least-recently-used memos until at most `cap` remain. A
    /// `cap` of 0 clears the store.
    pub fn enforce_cap(&self, cap: usize) {
        let mut all: Vec<(u64, usize, (KindId, u128))> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            all.extend(shard.iter().map(|(k, memo)| (memo.last_used, i, *k)));
        }
        if all.len() <= cap {
            return;
        }
        all.sort_unstable_by_key(|&(used, _, _)| used);
        let excess = all.len() - cap;
        let mut dropped = 0u64;
        for &(_, shard_idx, key) in &all[..excess] {
            if self.shards[shard_idx].lock().remove(&key).is_some() {
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
            let tele = metamut_telemetry::handle();
            if tele.enabled() {
                tele.counter_add("query_evictions", dropped);
            }
        }
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
    fn memo_once_hits_and_is_reclaimable_by_the_lru_cap() {
        let db = QueryDb::new();
        let kind = db.register_kind("content");
        let (v, hit) = db.memo_once(kind, 1, || val(41));
        assert_eq!((as_i64(&v), hit), (41, false));
        // The stored value wins over any later compute closure.
        let (v, hit) = db.memo_once(kind, 1, || val(999));
        assert_eq!((as_i64(&v), hit), (41, true));
        // A content-addressed table must not grow without bound.
        db.memo_once(kind, 2, || val(42));
        db.enforce_cap(1);
        assert_eq!(db.len(), 1);
        let (_, hit) = db.memo_once(kind, 2, || val(42));
        assert!(hit, "the most recently used memo survives the sweep");
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
    fn lru_eviction_drops_oldest_derived_memos_first() {
        let db = QueryDb::new();
        let kind = db.register_kind("half");
        for k in 0..4u128 {
            db.memo_once(kind, k, || val(k as i64 * 10));
        }
        // Touch key 0 so key 1 is now the least recently used.
        db.memo_once(kind, 0, || val(0));
        db.enforce_cap(3);
        assert_eq!(db.evictions(), 1);
        let recomputes = db.recomputes();
        // Keys 0, 2, 3 survived...
        for k in [0, 2, 3] {
            assert!(db.memo_once(kind, k, || val(-1)).1, "key {k} evicted");
        }
        assert_eq!(db.recomputes(), recomputes);
        // ...while key 1 was evicted and must recompute.
        assert!(!db.memo_once(kind, 1, || val(10)).1);
        assert_eq!(db.recomputes(), recomputes + 1);
        db.enforce_cap(0);
        assert!(db.is_empty());
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
    fn dirty_set_finds_changed_positions() {
        assert_eq!(dirty_set(&[1, 2, 3], &[1, 9, 3]), Some(vec![1]));
        assert_eq!(dirty_set(&[1, 2], &[3, 4]), Some(vec![0, 1]));
        assert_eq!(dirty_set(&[1, 2], &[1, 2]), Some(vec![]));
        assert_eq!(dirty_set(&[1], &[1, 2]), None);
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
