//! The common interface every evaluated fuzzer implements, so one campaign
//! runner (§5.1's "coverage and crashes" experiment) can drive μCFuzz,
//! AFL++, GrayC, Csmith and YARPGen identically.

use metamut_muast::{MutRng, ParsedProgram};
use metamut_simcomp::CompileOptions;
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
///
/// Two candidates are equal when their program, parent and options are:
/// the other fields only carry work already done on them.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The program text handed to the compiler.
    pub program: String,
    /// Index of the pool entry it was derived from (mutation-based fuzzers).
    pub parent: Option<usize>,
    /// The parent's parse, when the generator holds one (μCFuzz's pool).
    /// The UB gate builds the parent's baseline from it instead of
    /// parsing the parent's text again.
    pub(crate) parent_parse: Option<Arc<ParsedProgram>>,
    /// The program's own parse, which the campaign engine hands back
    /// before [`TestGenerator::feedback`] when the candidate set new
    /// coverage bits: `Some(Some(_))` when its compile got through
    /// semantic analysis, `Some(None)` when the front end rejected it (so
    /// it does not parse either). A pool adopts it instead of parsing the
    /// program again.
    pub(crate) parse: Option<Option<Arc<ParsedProgram>>>,
    /// Whether the program has any static-analysis finding, as the UB
    /// gate found while judging it; set by the engine alongside
    /// [`Candidate::parse`], and `None` when the gate did not judge it.
    pub(crate) any_finding: Option<bool>,
    /// The command line to compile this candidate with, in place of the
    /// campaign compiler's (the macro fuzzer's flag sampling).
    pub(crate) options: Option<CompileOptions>,
}

impl Candidate {
    /// A candidate that carries no work done on it yet.
    pub fn new(program: String, parent: Option<usize>) -> Self {
        Candidate {
            program,
            parent,
            parent_parse: None,
            parse: None,
            any_finding: None,
            options: None,
        }
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program
            && self.parent == other.parent
            && self.options == other.options
    }
}

impl Eq for Candidate {}

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

    /// The seed pool of a mutation-based fuzzer, which the pool methods
    /// below read by default. Generation-based fuzzers have none.
    fn seed_pool(&self) -> Option<&SeedPool> {
        None
    }

    /// [`TestGenerator::seed_pool`], mutably.
    fn seed_pool_mut(&mut self) -> Option<&mut SeedPool> {
        None
    }

    /// Current pool size (1 for pure generators).
    fn pool_len(&self) -> usize {
        self.seed_pool().map_or(1, SeedPool::len)
    }

    /// The source text of pool entry `index` — the program a candidate's
    /// [`Candidate::parent`] refers to. The campaign's UB gate judges a
    /// mutant against it, so only UB the parent lacks filters the mutant.
    /// Generation-based fuzzers (no pool, no parents) return `None`.
    fn seed_source(&self, index: usize) -> Option<&str> {
        self.seed_pool()?.get(index)
    }

    /// Seeds this generator discovered since the last drain, for cross-shard
    /// exchange. Pure generators have nothing to share.
    fn drain_new_seeds(&mut self) -> Vec<String> {
        self.seed_pool_mut()
            .map(SeedPool::take_new_seeds)
            .unwrap_or_default()
    }

    /// Adopts seeds discovered by other campaign shards. Adopted seeds are
    /// never re-exported by [`TestGenerator::drain_new_seeds`], so exchange
    /// rounds cannot echo programs back and forth. Pure generators ignore
    /// them.
    fn adopt_seeds(&mut self, seeds: Vec<String>) {
        if let Some(pool) = self.seed_pool_mut() {
            pool.adopt(seeds);
        }
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

/// A pooled program plus its parse and lint verdict. Each is filled at
/// most once, from one of two sources: what the campaign already learned
/// when the program joined ([`SeedPool::push_judged`]), or the pool's own
/// lazy parse and analysis on first use.
#[derive(Debug)]
struct PoolEntry {
    program: String,
    /// `None` inside the lock means the program does not parse; the outer
    /// `OnceLock` makes the (attempted) parse happen at most once.
    parsed: OnceLock<Option<Arc<ParsedProgram>>>,
    /// Whether static analysis reports any finding on this program.
    linty: OnceLock<bool>,
    /// Adopted from another shard — excluded from future exports.
    foreign: bool,
}

impl PoolEntry {
    fn new(program: String, foreign: bool) -> Self {
        PoolEntry {
            program,
            parsed: OnceLock::new(),
            linty: OnceLock::new(),
            foreign,
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
    /// Entries below this index have had their lint verdict read by a
    /// weighted draw.
    classified: usize,
    /// Where each linty entry among the classified ones starts on the
    /// draw's weight line, ascending: clean entries weigh 2 and linty ones
    /// 1, so the `k`-th linty entry, at index `i`, starts at `2i - k`.
    linty_starts: Vec<usize>,
}

impl Default for SeedPool {
    fn default() -> Self {
        SeedPool::new([])
    }
}

impl SeedPool {
    /// Builds a pool from initial seeds.
    pub fn new(seeds: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<PoolEntry> = seeds
            .into_iter()
            .map(|p| PoolEntry::new(p, false))
            .collect();
        let export_mark = items.len();
        SeedPool::with_items(items, export_mark)
    }

    fn with_items(items: Vec<PoolEntry>, export_mark: usize) -> Self {
        let hashes = items.iter().map(|e| program_hash(&e.program)).collect();
        SeedPool {
            items,
            hashes,
            export_mark,
            parses: AtomicU64::new(0),
            classified: 0,
            linty_starts: Vec::new(),
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

    /// Reads the lint verdict of every entry that joined since the last
    /// weighted draw, in index order: whether it carries any
    /// static-analysis finding (a lint, or latent UB the gate's parent
    /// baseline already tolerates). An entry the campaign pooled with
    /// its verdict already has one; any other is analyzed here, once.
    /// Each linty entry bumps the `analyze_lint_penalty` telemetry
    /// counter once. Unparseable programs count as clean here: the parse
    /// cache, not the scheduler, is where they are handled.
    fn classify(&mut self) {
        for i in self.classified..self.items.len() {
            let entry = &self.items[i];
            let linty = *entry.linty.get_or_init(|| {
                metamut_analyze::analyze_source(&entry.program)
                    .is_ok_and(|findings| !findings.is_empty())
            });
            if linty {
                metamut_telemetry::handle().counter_add("analyze_lint_penalty", 1);
                self.linty_starts.push(2 * i - self.linty_starts.len());
            }
        }
        self.classified = self.items.len();
    }

    /// Finding-aware random pick: analysis-clean entries draw with weight
    /// 2, entries carrying findings with weight 1 — mutating an already
    /// smelly seed mostly yields mutants the UB gate pays to re-judge.
    /// With `penalize` off, or while every pooled entry is clean, the
    /// draw consumes the RNG exactly like [`SeedPool::pick`], so the
    /// candidate stream is bit-identical. Returns the entry's index.
    pub fn pick_weighted(&mut self, rng: &mut MutRng, penalize: bool) -> usize {
        if !penalize {
            return self.pick(rng).0;
        }
        assert!(!self.items.is_empty(), "seed pool must not be empty");
        self.classify();
        let n = self.items.len();
        if self.linty_starts.is_empty() {
            // All clean: same draw, same RNG consumption, as `pick`.
            return rng.index(n);
        }
        let r = rng.index(2 * n - self.linty_starts.len());
        // The linty entries that start before `r` are exactly those
        // before the pick; with `k` of them, the pick `i` starts at
        // `2i - k`, and spans `r`.
        let k = self.linty_starts.partition_point(|&start| start < r);
        (r + k) / 2
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
        self.items.push(PoolEntry::new(program, false));
    }

    /// [`SeedPool::push`] of a candidate's program with what the campaign
    /// already knows about it: its parse (or that it does not parse), and
    /// whether it has any static-analysis finding. The entry keeps them,
    /// so neither [`SeedPool::parsed`] nor a weighted draw front-ends or
    /// analyzes the program again; what the candidate does not carry is
    /// left to them, as for a plain push.
    pub fn push_judged(&mut self, candidate: &Candidate) {
        self.push(candidate.program.clone());
        let entry = self.items.last().expect("just pushed");
        if let Some(parse) = &candidate.parse {
            debug_assert!(parse
                .as_ref()
                .is_none_or(|p| p.source() == candidate.program));
            let _ = entry.parsed.set(parse.clone());
        }
        if let Some(linty) = candidate.any_finding {
            let _ = entry.linty.set(linty);
        }
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
            .map(|(i, program)| PoolEntry::new(program, foreign.get(i).copied().unwrap_or(false)))
            .collect();
        let export_mark = export_mark.min(items.len());
        SeedPool::with_items(items, export_mark)
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
            self.items.push(PoolEntry::new(p, true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

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
        let mut pool = SeedPool::new([clean, linty]);
        let mut rng = MutRng::new(9);
        let mut counts = [0usize; 2];
        for _ in 0..3000 {
            counts[pool.pick_weighted(&mut rng, true)] += 1;
        }
        assert!(
            counts[0] > counts[1] * 3 / 2,
            "clean seed must dominate 2:1, got {counts:?}"
        );
        assert!(counts[1] > 0, "linty seeds stay reachable, got {counts:?}");
    }

    #[test]
    fn weighted_pick_is_transparent_when_off_or_all_clean() {
        let mut linty_pool = SeedPool::new([
            "int f(void) { return 1; }".to_string(),
            "int g(int c) { int x; if (c) { x = 1; } return x; }".to_string(),
        ]);
        // Penalty off: identical stream regardless of pool contents.
        let mut ra = MutRng::new(4);
        let mut rb = MutRng::new(4);
        for _ in 0..50 {
            assert_eq!(
                linty_pool.pick_weighted(&mut ra, false),
                linty_pool.pick(&mut rb).0
            );
        }
        // Penalty on over an all-clean pool: still the identical stream.
        let mut clean_pool = SeedPool::new([
            "int f(void) { return 1; }".to_string(),
            "int h(int a) { return a + 2; }".to_string(),
            "int k(void) { int y = 3; return y; }".to_string(),
        ]);
        let mut rc = MutRng::new(11);
        let mut rd = MutRng::new(11);
        for _ in 0..50 {
            assert_eq!(
                clean_pool.pick_weighted(&mut rc, true),
                clean_pool.pick(&mut rd).0
            );
        }
    }

    /// The draw as a walk over every entry's weight, which
    /// [`SeedPool::pick_weighted`] must match index for index.
    fn linear_weighted_pick(linty: &[bool], rng: &mut MutRng) -> usize {
        let weight = |i: usize| if linty[i] { 1 } else { 2 };
        let total: usize = (0..linty.len()).map(weight).sum();
        if total == 2 * linty.len() {
            return rng.index(linty.len());
        }
        let mut r = rng.index(total);
        for i in 0..linty.len() {
            if r < weight(i) {
                return i;
            }
            r -= weight(i);
        }
        unreachable!("weights sum to the drawn total")
    }

    proptest! {
        #[test]
        fn weighted_pick_matches_the_linear_walk(
            batches in vec(vec(any::<bool>(), 1..40), 1..6),
            seed in any::<u64>(),
        ) {
            // Entries join in batches between draws, as a campaign's pool
            // grows; verdicts are pre-filled, so nothing is analyzed.
            let mut pool = SeedPool::default();
            let mut linty = Vec::new();
            let mut fast = MutRng::new(seed);
            let mut slow = MutRng::new(seed);
            for batch in &batches {
                for &l in batch {
                    let mut c = Candidate::new(format!("int v{};", linty.len()), None);
                    c.any_finding = Some(l);
                    pool.push_judged(&c);
                    linty.push(l);
                }
                for _ in 0..25 {
                    prop_assert_eq!(
                        pool.pick_weighted(&mut fast, true),
                        linear_weighted_pick(&linty, &mut slow)
                    );
                }
            }
        }
    }

    #[test]
    fn a_judged_entry_keeps_what_the_campaign_found() {
        // The verdict and parse handed in are the ones used: a clean
        // program pooled as linty draws as linty, and its parse is the
        // one given, so the pool neither analyzes nor parses it.
        let clean = "int f(void) { return 1; }".to_string();
        let parse = Arc::new(ParsedProgram::parse(&clean).unwrap());
        let mut pool = SeedPool::new([clean.clone()]);
        let mut c = Candidate::new(clean.clone(), None);
        c.parse = Some(Some(Arc::clone(&parse)));
        c.any_finding = Some(true);
        pool.push_judged(&c);
        let mut rng = MutRng::new(3);
        let mut counts = [0usize; 2];
        for _ in 0..3000 {
            counts[pool.pick_weighted(&mut rng, true)] += 1;
        }
        assert!(
            counts[0] > counts[1] * 3 / 2,
            "the pre-filled verdict must weigh, got {counts:?}"
        );
        assert!(Arc::ptr_eq(&pool.parsed(1).unwrap(), &parse));
        // A program handed in as not parsing is not parsed either.
        let mut bad = Candidate::new("int f( {".to_string(), None);
        bad.parse = Some(None);
        pool.push_judged(&bad);
        assert!(pool.parsed(2).is_none());
        assert_eq!(pool.parse_count(), 0);
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
