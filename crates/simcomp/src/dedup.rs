//! Mutant deduplication in front of [`crate::Compiler::compile`].
//!
//! Mutation-based fuzzers regularly regenerate byte-identical programs — a
//! dud re-emits its parent, popular mutators collapse different parents
//! onto the same mutant — and the compiler is a pure function of
//! `(profile, options, source)`, so recompiling a duplicate can only
//! reproduce an outcome the campaign has already accounted for. A
//! [`DedupCache`] remembers each compiled source's [`Verdict`] so the
//! campaign engine skips the whole pipeline on a repeat.
//!
//! The cache keys entries by a collision-resistant 128-bit content hash
//! ([`metamut_lang::chash::hash128`]), computed once per mutant. Keying
//! by hash instead of the full text drops the per-entry footprint from a
//! whole source to 16 bytes; at a 2^64 birthday bound a false hit is
//! beyond campaign scale. Entries are sharded across several locks so
//! parallel workers rarely contend. One cache serves one
//! `(profile, options)` configuration — campaigns create their own, which
//! makes that invariant structural.

use crate::{CompileResult, Outcome};
use metamut_lang::fxhash::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// What the campaign needs to remember about a compiled mutant: enough to
/// keep `MutantStats` and feedback accounting bit-for-bit identical when
/// the recompilation is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the front end accepted the program (the Table 5 numerator).
    pub compiled: bool,
}

impl Verdict {
    /// Derives the verdict recorded for a fresh compile result.
    pub fn of(result: &CompileResult) -> Self {
        Verdict {
            compiled: result.outcome.front_end_accepted(),
        }
    }
}

const SHARD_BITS: usize = 5;
const SHARDS: usize = 1 << SHARD_BITS;

/// A cache slot: either a published verdict or a reservation by the one
/// worker currently compiling this source.
#[derive(Debug, Clone, Copy)]
enum Slot {
    InFlight,
    Done(Verdict),
}

/// What [`DedupCache::claim_hashed`] resolved a source to.
#[derive(Debug, Clone, Copy)]
pub enum Claim {
    /// The program was compiled before (or by a concurrent worker whose
    /// publish we waited for); counted as a hit.
    Hit(Verdict),
    /// First sighting — the caller owns this source and must end the
    /// reservation with [`DedupCache::insert_hashed`] (after a compile) or
    /// [`DedupCache::abandon_hashed`] (if no verdict may be cached).
    Owner,
}

/// A sharded content-hash → [`Verdict`] cache with hit/miss accounting.
#[derive(Debug)]
pub struct DedupCache {
    shards: Vec<Mutex<FxHashMap<u128, Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for DedupCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DedupCache {
    /// An empty cache.
    pub fn new() -> Self {
        DedupCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u128) -> &Mutex<FxHashMap<u128, Slot>> {
        &self.shards[(hash >> (128 - SHARD_BITS as u32)) as usize]
    }

    /// Resolves a source, by a precomputed `hash128` of its bytes, to a
    /// hit or exclusive ownership, so exactly one worker ever compiles a
    /// given source. A `None` entry becomes an in-flight reservation owned
    /// by the caller; a concurrent claim of the same source waits
    /// (yielding) for the owner to [`insert_hashed`] its verdict — then
    /// counts an ordinary hit — or to [`abandon_hashed`] the reservation —
    /// then retries and may become the next owner. This makes the
    /// accounting exact under contention: every claim is exactly one hit
    /// or one miss, and every miss is exactly one compile or one
    /// abandonment.
    ///
    /// [`insert_hashed`]: DedupCache::insert_hashed
    /// [`abandon_hashed`]: DedupCache::abandon_hashed
    pub fn claim_hashed(&self, hash: u128) -> Claim {
        loop {
            {
                let mut shard = self.shard(hash).lock();
                match shard.get(&hash) {
                    Some(Slot::Done(v)) => {
                        let v = *v;
                        drop(shard);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Claim::Hit(v);
                    }
                    Some(Slot::InFlight) => {} // wait for the owner below
                    None => {
                        shard.insert(hash, Slot::InFlight);
                        drop(shard);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return Claim::Owner;
                    }
                }
            }
            std::thread::yield_now();
        }
    }

    /// Records a fresh compile's verdict, resolving the caller's
    /// [`DedupCache::claim_hashed`] reservation (if any).
    ///
    /// The campaign engine calls this only *after* merging the result's
    /// coverage and crash into the shared campaign state, so a concurrent
    /// worker that observes the cache entry can safely skip both.
    pub fn insert_hashed(&self, hash: u128, verdict: Verdict) {
        self.shard(hash).lock().insert(hash, Slot::Done(verdict));
    }

    /// Releases a [`DedupCache::claim_hashed`] reservation without
    /// publishing a verdict — for sources the campaign's UB gate filtered,
    /// so each occurrence is re-gated and accounted.
    pub fn abandon_hashed(&self, hash: u128) {
        let mut shard = self.shard(hash).lock();
        if matches!(shard.get(&hash), Some(Slot::InFlight)) {
            shard.remove(&hash);
        }
    }

    /// Number of distinct sources with published verdicts (in-flight
    /// reservations are transient and not counted).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .filter(|v| matches!(v, Slot::Done(_)))
                    .count()
            })
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits as a fraction of all lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

impl Outcome {
    /// Whether the front end accepted the program: a success, or a crash
    /// beyond the front end (which implies the front end let it through).
    pub fn front_end_accepted(&self) -> bool {
        match self {
            Outcome::Success { .. } => true,
            Outcome::Crash(c) => c.stage != crate::Stage::FrontEnd,
            Outcome::Rejected { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, Compiler, Profile};
    use metamut_lang::chash::hash128;

    fn h(src: &str) -> u128 {
        hash128(src.as_bytes())
    }

    #[test]
    fn lookup_miss_then_hit() {
        let cache = DedupCache::new();
        assert!(matches!(cache.claim_hashed(h("int x;")), Claim::Owner));
        cache.insert_hashed(h("int x;"), Verdict { compiled: true });
        assert!(matches!(
            cache.claim_hashed(h("int x;")),
            Claim::Hit(Verdict { compiled: true })
        ));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn verdict_tracks_front_end_acceptance() {
        let c = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let ok = c.compile("int main(void) { return 0; }");
        assert!(Verdict::of(&ok).compiled);
        let bad = c.compile("int main(void) { return undeclared; }");
        assert!(!Verdict::of(&bad).compiled);
        // A mid-pipeline crash still counts as front-end accepted (Table 5):
        // the GCC vectorizer-hang bug fires in the optimizer at -O3.
        let opts = CompileOptions {
            opt_level: 3,
            flags: crate::OptFlags {
                no_tree_vrp: true,
                ..Default::default()
            },
        };
        let crash = Compiler::new(Profile::Gcc, opts).compile(
            "int r; int r_0;\n\
             void f(void) { int n = 0; while (--n) { r_0 += r; r += r; r += r; r += r; r += r; } }",
        );
        assert!(crash.outcome.crash().is_some());
        assert!(Verdict::of(&crash).compiled);
    }

    #[test]
    fn claim_gives_exclusive_ownership_and_exact_accounting() {
        let cache = DedupCache::new();
        // One owner per distinct source, everyone else a hit — even when
        // many threads claim the same sources at once.
        let owners: u64 = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let cache = &cache;
                    scope.spawn(move || {
                        let mut owned = 0u64;
                        for i in 0..100 {
                            let hash = h(&format!("int x{};", i % 10));
                            match cache.claim_hashed(hash) {
                                Claim::Owner => {
                                    owned += 1;
                                    cache.insert_hashed(hash, Verdict { compiled: true });
                                }
                                Claim::Hit(v) => assert!(v.compiled),
                            }
                        }
                        owned
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(owners, 10, "exactly one owner per distinct source");
        assert_eq!(cache.misses(), 10);
        assert_eq!(cache.hits(), 790);
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn abandoned_claim_reopens_the_source() {
        let cache = DedupCache::new();
        let x = h("int x;");
        assert!(matches!(cache.claim_hashed(x), Claim::Owner));
        cache.abandon_hashed(x);
        // The reservation is gone: the next claim owns it again, and the
        // abandoned slot never counted as a published verdict.
        assert_eq!(cache.len(), 0);
        assert!(matches!(cache.claim_hashed(x), Claim::Owner));
        cache.insert_hashed(x, Verdict { compiled: false });
        assert!(matches!(cache.claim_hashed(x), Claim::Hit(_)));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let cache = DedupCache::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200 {
                        let hash = h(&format!("int x{};", i % 50));
                        if let Claim::Owner = cache.claim_hashed(hash) {
                            cache.insert_hashed(
                                hash,
                                Verdict {
                                    compiled: t % 2 == 0,
                                },
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.hits() + cache.misses(), 800);
    }
}
