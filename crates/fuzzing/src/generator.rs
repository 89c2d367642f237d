//! The common interface every evaluated fuzzer implements, so one campaign
//! runner (§5.1's "coverage and crashes" experiment) can drive μCFuzz,
//! AFL++, GrayC, Csmith and YARPGen identically.

use metamut_muast::{MutRng, ParsedProgram};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn program_hash(program: &str) -> u64 {
    let mut h = DefaultHasher::new();
    program.hash(&mut h);
    h.finish()
}

/// One produced test program plus bookkeeping for feedback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The program text handed to the compiler.
    pub program: String,
    /// Index of the pool entry it was derived from (mutation-based fuzzers).
    pub parent: Option<usize>,
}

/// A test-program source: either generation-based (Csmith, YARPGen) or
/// mutation-based (μCFuzz, AFL++, GrayC).
///
/// Generators are `Send` so the parallel campaign engine can move one into
/// each worker thread.
pub trait TestGenerator: Send {
    /// Short display name (`"uCFuzz.s"`, `"AFL++"`, ...).
    fn name(&self) -> &'static str;

    /// Produces the next candidate program.
    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate;

    /// Feedback after compiling the candidate: whether it covered a new
    /// branch and whether the front end accepted it. Mutation-based fuzzers
    /// grow their pool here (Algorithm 1, line 9).
    fn feedback(&mut self, candidate: &Candidate, new_coverage: bool, compiled: bool);

    /// Current pool size (1 for pure generators).
    fn pool_len(&self) -> usize {
        1
    }

    /// The source text of pool entry `index` — the program a candidate's
    /// [`Candidate::parent`] refers to. The campaign's UB gate judges a
    /// mutant against it, so only UB the parent lacks filters the mutant.
    /// Generation-based fuzzers (no pool, no parents) return `None`.
    fn seed_source(&self, index: usize) -> Option<&str> {
        let _ = index;
        None
    }

    /// Seeds this generator discovered since the last drain, for cross-shard
    /// exchange. Pure generators have nothing to share.
    fn drain_new_seeds(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Adopts seeds discovered by other campaign shards. Adopted seeds are
    /// never re-exported by [`TestGenerator::drain_new_seeds`], so exchange
    /// rounds cannot echo programs back and forth. Pure generators ignore
    /// them.
    fn adopt_seeds(&mut self, seeds: Vec<String>) {
        let _ = seeds;
    }

    /// A serializable snapshot of the generator's pool state, for campaign
    /// checkpoints. `None` means the generator cannot be checkpointed
    /// (pure generators whose state lives entirely in the RNG return a
    /// snapshot of the trivial pool instead; fuzzers with hidden mutable
    /// state must return `None` so resume fails loudly rather than
    /// silently diverging).
    fn pool_snapshot(&self) -> Option<PoolSnapshot> {
        None
    }

    /// [`TestGenerator::pool_snapshot`] restricted to the entries from
    /// index `from` on, with the export mark still absolute: what a
    /// checkpoint delta appends to the image's pool. The default slices
    /// the full snapshot; pools that can copy only the tail override it.
    fn pool_snapshot_from(&self, from: usize) -> Option<PoolSnapshot> {
        let mut snapshot = self.pool_snapshot()?;
        snapshot.programs.drain(..from.min(snapshot.programs.len()));
        snapshot.foreign.drain(..from.min(snapshot.foreign.len()));
        Some(snapshot)
    }

    /// Restores pool state captured by [`TestGenerator::pool_snapshot`].
    /// Returns `false` when this generator does not support restoration.
    fn restore_pool(&mut self, snapshot: PoolSnapshot) -> bool {
        let _ = snapshot;
        false
    }
}

/// A serializable image of a [`SeedPool`]: enough to rebuild the pool so a
/// resumed campaign draws the exact parent sequence the interrupted one
/// would have. Parse caches and counters are deliberately omitted — they
/// are throughput state, invisible in the candidate stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolSnapshot {
    /// Pooled programs in insertion order (order matters: picks index it).
    pub programs: Vec<String>,
    /// Per-entry foreign flag (adopted from another shard, never
    /// re-exported). Same length as `programs`.
    pub foreign: Vec<bool>,
    /// Entries below this index were already exported for exchange.
    pub export_mark: usize,
}

/// A pooled program plus its lazily parsed AST.
#[derive(Debug)]
struct PoolEntry {
    program: String,
    /// `None` inside the lock means the program does not parse; the outer
    /// `OnceLock` makes the (attempted) parse happen at most once.
    parsed: OnceLock<Option<Arc<ParsedProgram>>>,
    /// Whether static analysis reports any finding on this program,
    /// classified at most once (on the first weighted pick).
    linty: OnceLock<bool>,
    /// Adopted from another shard — excluded from future exports.
    foreign: bool,
}

impl PoolEntry {
    fn local(program: String) -> Self {
        PoolEntry {
            program,
            parsed: OnceLock::new(),
            linty: OnceLock::new(),
            foreign: false,
        }
    }
}

impl Clone for PoolEntry {
    fn clone(&self) -> Self {
        let parsed = OnceLock::new();
        if let Some(v) = self.parsed.get() {
            let _ = parsed.set(v.clone());
        }
        let linty = OnceLock::new();
        if let Some(&v) = self.linty.get() {
            let _ = linty.set(v);
        }
        PoolEntry {
            program: self.program.clone(),
            parsed,
            linty,
            foreign: self.foreign,
        }
    }
}

/// A shared pool implementation for the mutation-based fuzzers.
///
/// Each entry caches its parsed AST the first time [`SeedPool::parsed`]
/// asks for it, so mutation-based fuzzers parse a parent at most once per
/// pool lifetime instead of once per mutation attempt.
#[derive(Debug)]
pub struct SeedPool {
    items: Vec<PoolEntry>,
    /// Hashes of every pooled program, so [`SeedPool::adopt`] can reject
    /// duplicates in O(1) instead of scanning the pool per adoption.
    hashes: HashSet<u64>,
    /// Entries below this index have already been exported via
    /// [`SeedPool::take_new_seeds`] (or were initial seeds).
    export_mark: usize,
    /// Number of parses actually performed (cache misses).
    parses: AtomicU64,
}

impl Default for SeedPool {
    fn default() -> Self {
        SeedPool::new([])
    }
}

impl Clone for SeedPool {
    fn clone(&self) -> Self {
        SeedPool {
            items: self.items.clone(),
            hashes: self.hashes.clone(),
            export_mark: self.export_mark,
            parses: AtomicU64::new(self.parses.load(Ordering::Relaxed)),
        }
    }
}

impl SeedPool {
    /// Builds a pool from initial seeds.
    pub fn new(seeds: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<PoolEntry> = seeds.into_iter().map(PoolEntry::local).collect();
        let hashes = items.iter().map(|e| program_hash(&e.program)).collect();
        let export_mark = items.len();
        SeedPool {
            items,
            hashes,
            export_mark,
            parses: AtomicU64::new(0),
        }
    }

    /// Number of pooled programs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// A uniformly random pool entry (Algorithm 1, line 4).
    pub fn pick<'a>(&'a self, rng: &mut MutRng) -> (usize, &'a str) {
        assert!(!self.items.is_empty(), "seed pool must not be empty");
        let i = rng.index(self.items.len());
        (i, &self.items[i].program)
    }

    /// Whether entry `i` carries any static-analysis finding — a lint or
    /// latent UB the gate's parent baseline already tolerates. Classified
    /// once per entry (the verdict is cached); the first linty
    /// classification bumps the `analyze_lint_penalty` telemetry counter.
    /// Unparseable programs count as clean here: the parse cache, not the
    /// scheduler, is where they are handled.
    fn is_linty(&self, i: usize) -> bool {
        let entry = &self.items[i];
        *entry.linty.get_or_init(|| {
            let linty = metamut_analyze::analyze_source(&entry.program)
                .map(|findings| !findings.is_empty())
                .unwrap_or(false);
            if linty {
                metamut_telemetry::handle().counter_add("analyze_lint_penalty", 1);
            }
            linty
        })
    }

    /// Finding-aware random pick: analysis-clean entries draw with weight
    /// 2, entries carrying findings with weight 1 — mutating an already
    /// smelly seed mostly yields mutants the UB gate pays to re-judge.
    /// With `penalize` off, or while every pooled entry is clean, the
    /// draw consumes the RNG exactly like [`SeedPool::pick`], so the
    /// candidate stream is bit-identical.
    pub fn pick_weighted<'a>(&'a self, rng: &mut MutRng, penalize: bool) -> (usize, &'a str) {
        if !penalize {
            return self.pick(rng);
        }
        assert!(!self.items.is_empty(), "seed pool must not be empty");
        // Classifies every entry, in index order, on the first weighted
        // draw after it joins; later walks read the cached verdicts.
        let weight = |i: usize| if self.is_linty(i) { 1 } else { 2 };
        let total: u64 = (0..self.items.len()).map(weight).sum();
        if total == 2 * self.items.len() as u64 {
            // All clean: same draw, same RNG consumption, as `pick`.
            let i = rng.index(self.items.len());
            return (i, &self.items[i].program);
        }
        let mut r = rng.index(total as usize) as u64;
        for i in 0..self.items.len() {
            let w = weight(i);
            if r < w {
                return (i, &self.items[i].program);
            }
            r -= w;
        }
        unreachable!("weights sum to the drawn total")
    }

    /// Entry by index.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.items.get(i).map(|e| e.program.as_str())
    }

    /// The cached parse of entry `i`: parses on first call (recorded in
    /// [`SeedPool::parse_count`] and the `muast_parses` telemetry counter),
    /// then reuses the result. `None` means the program does not parse —
    /// that answer is cached too, so a bad seed costs one parse attempt
    /// total rather than one per mutation attempt.
    pub fn parsed(&self, i: usize) -> Option<Arc<ParsedProgram>> {
        let entry = &self.items[i];
        entry
            .parsed
            .get_or_init(|| {
                self.parses.fetch_add(1, Ordering::Relaxed);
                ParsedProgram::parse(&entry.program).ok().map(Arc::new)
            })
            .clone()
    }

    /// How many parses this pool actually ran (== distinct entries whose
    /// AST was requested; every repeat pick is a cache hit).
    pub fn parse_count(&self) -> u64 {
        self.parses.load(Ordering::Relaxed)
    }

    /// Adds a program that covered new branches (Algorithm 1, line 9).
    pub fn push(&mut self, program: String) {
        self.hashes.insert(program_hash(&program));
        self.items.push(PoolEntry::local(program));
    }

    /// Locally discovered programs added since the last call (foreign
    /// adoptions excluded), for publication to other shards.
    pub fn take_new_seeds(&mut self) -> Vec<String> {
        let new = self.items[self.export_mark..]
            .iter()
            .filter(|e| !e.foreign)
            .map(|e| e.program.clone())
            .collect();
        self.export_mark = self.items.len();
        new
    }

    /// A serializable image of the pool (programs, foreign flags, export
    /// mark) for campaign checkpoints.
    pub fn snapshot(&self) -> PoolSnapshot {
        self.snapshot_from(0)
    }

    /// [`SeedPool::snapshot`] of the entries from index `from` on (none
    /// past the end); the export mark stays absolute.
    pub fn snapshot_from(&self, from: usize) -> PoolSnapshot {
        let tail = self.items.get(from..).unwrap_or_default();
        PoolSnapshot {
            programs: tail.iter().map(|e| e.program.clone()).collect(),
            foreign: tail.iter().map(|e| e.foreign).collect(),
            export_mark: self.export_mark,
        }
    }

    /// Rebuilds a pool from a [`SeedPool::snapshot`] image. Parse caches
    /// start cold (they refill lazily and never influence the candidate
    /// stream); a short or missing foreign vector defaults to local.
    pub fn from_snapshot(snapshot: PoolSnapshot) -> Self {
        let PoolSnapshot {
            programs,
            foreign,
            export_mark,
        } = snapshot;
        let items: Vec<PoolEntry> = programs
            .into_iter()
            .enumerate()
            .map(|(i, program)| PoolEntry {
                program,
                parsed: OnceLock::new(),
                linty: OnceLock::new(),
                foreign: foreign.get(i).copied().unwrap_or(false),
            })
            .collect();
        let hashes = items.iter().map(|e| program_hash(&e.program)).collect();
        let export_mark = export_mark.min(items.len());
        SeedPool {
            items,
            hashes,
            export_mark,
            parses: AtomicU64::new(0),
        }
    }

    /// Adopts programs discovered by other shards, skipping exact
    /// duplicates of entries already pooled. Adopted entries are flagged
    /// foreign and never re-exported.
    pub fn adopt(&mut self, programs: impl IntoIterator<Item = String>) {
        for p in programs {
            let h = program_hash(&p);
            // Hash-set fast path; on a hash hit, confirm with an exact scan
            // so a collision can never drop a genuinely new seed.
            if self.hashes.contains(&h) && self.items.iter().any(|e| e.program == p) {
                continue;
            }
            self.hashes.insert(h);
            self.items.push(PoolEntry {
                program: p,
                parsed: OnceLock::new(),
                linty: OnceLock::new(),
                foreign: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_grows_on_push() {
        let mut pool = SeedPool::new(["int x;".to_string()]);
        assert_eq!(pool.len(), 1);
        pool.push("int y;".into());
        assert_eq!(pool.len(), 2);
        let mut rng = MutRng::new(1);
        let (i, s) = pool.pick(&mut rng);
        assert_eq!(pool.get(i), Some(s));
    }

    #[test]
    #[should_panic(expected = "seed pool must not be empty")]
    fn empty_pool_panics() {
        let pool = SeedPool::default();
        let mut rng = MutRng::new(1);
        let _ = pool.pick(&mut rng);
    }

    #[test]
    fn parse_cache_parses_each_entry_once() {
        let pool = SeedPool::new(["int x;".to_string(), "int f( {".to_string()]);
        assert_eq!(pool.parse_count(), 0);
        for _ in 0..5 {
            assert!(pool.parsed(0).is_some());
        }
        assert_eq!(pool.parse_count(), 1, "repeat picks must hit the cache");
        // A bad seed's failed parse is cached as None, not retried.
        for _ in 0..5 {
            assert!(pool.parsed(1).is_none());
        }
        assert_eq!(pool.parse_count(), 2);
        // The cached AST reproduces the entry's source.
        assert_eq!(pool.parsed(0).unwrap().source(), "int x;");
    }

    #[test]
    fn snapshot_round_trip_preserves_pool_semantics() {
        let mut pool = SeedPool::new(["int a;".to_string(), "int b;".to_string()]);
        pool.push("int c;".into());
        pool.adopt(["int d;".to_string()]);
        let snap = pool.snapshot();
        let mut restored = SeedPool::from_snapshot(snap.clone());
        assert_eq!(restored.len(), pool.len());
        // Picks draw the same entries for the same RNG stream.
        let mut ra = MutRng::new(5);
        let mut rb = MutRng::new(5);
        for _ in 0..20 {
            assert_eq!(pool.pick(&mut ra), restored.pick(&mut rb));
        }
        // Export state survives: only the un-exported local entry goes out.
        assert_eq!(restored.take_new_seeds(), pool.take_new_seeds());
        // Adoption dedup still works (hashes were rebuilt).
        restored.adopt(["int d;".to_string()]);
        assert_eq!(restored.len(), 4);
        // JSON round trip of the snapshot itself.
        let json = serde_json::to_string(&snap).unwrap();
        let back: PoolSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn weighted_pick_downweights_linty_seeds() {
        // Clean seed vs a seed with a maybe-uninit lint: clean draws with
        // weight 2, linty with weight 1, so roughly two thirds of picks
        // should land on the clean entry.
        let clean = "int f(void) { return 1; }".to_string();
        let linty = "int g(int c) { int x; if (c) { x = 1; } return x; }".to_string();
        let pool = SeedPool::new([clean, linty]);
        let mut rng = MutRng::new(9);
        let mut counts = [0usize; 2];
        for _ in 0..3000 {
            counts[pool.pick_weighted(&mut rng, true).0] += 1;
        }
        assert!(
            counts[0] > counts[1] * 3 / 2,
            "clean seed must dominate 2:1, got {counts:?}"
        );
        assert!(counts[1] > 0, "linty seeds stay reachable, got {counts:?}");
    }

    #[test]
    fn weighted_pick_is_transparent_when_off_or_all_clean() {
        let linty_pool = SeedPool::new([
            "int f(void) { return 1; }".to_string(),
            "int g(int c) { int x; if (c) { x = 1; } return x; }".to_string(),
        ]);
        // Penalty off: identical stream regardless of pool contents.
        let mut ra = MutRng::new(4);
        let mut rb = MutRng::new(4);
        for _ in 0..50 {
            assert_eq!(
                linty_pool.pick_weighted(&mut ra, false),
                linty_pool.pick(&mut rb)
            );
        }
        // Penalty on over an all-clean pool: still the identical stream.
        let clean_pool = SeedPool::new([
            "int f(void) { return 1; }".to_string(),
            "int h(int a) { return a + 2; }".to_string(),
            "int k(void) { int y = 3; return y; }".to_string(),
        ]);
        let mut rc = MutRng::new(11);
        let mut rd = MutRng::new(11);
        for _ in 0..50 {
            assert_eq!(
                clean_pool.pick_weighted(&mut rc, true),
                clean_pool.pick(&mut rd)
            );
        }
    }

    #[test]
    fn exchange_exports_local_discoveries_only() {
        let mut pool = SeedPool::new(["int a;".to_string()]);
        // Initial seeds are never exported.
        assert!(pool.take_new_seeds().is_empty());
        pool.push("int b;".into());
        pool.adopt(["int c;".to_string()]);
        pool.push("int d;".into());
        let exported = pool.take_new_seeds();
        assert_eq!(exported, vec!["int b;".to_string(), "int d;".to_string()]);
        // Drained once: nothing new until the next push.
        assert!(pool.take_new_seeds().is_empty());
        // Adoption dedups against pooled entries (no echo amplification).
        assert_eq!(pool.len(), 4);
        pool.adopt(["int c;".to_string(), "int e;".to_string()]);
        assert_eq!(pool.len(), 5);
    }
}
