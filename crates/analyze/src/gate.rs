//! The campaign UB gate: decides whether a mutant introduces undefined
//! behavior its parent seed did not already have.
//!
//! Every fresh verdict analyzes the whole mutant and compares its `Ub`
//! finding keys against the parent's baseline (the empty set when the
//! candidate has no parent). Editing one function can change findings in
//! *unedited* callers — a callee that now returns 0 creates a division by
//! zero at an old call site — so the analysis always covers the whole
//! unit. What keeps it cheap is memoization: both the per-function
//! summary and the per-function UB-key set live in a [`QueryDb`] under a
//! **content-addressed summary key**, the hash of (global fingerprint,
//! function text, resolved callee summary keys) computed bottom-up over
//! the call-graph SCCs. A single-declaration mutant therefore
//! re-summarizes only the edited function and its SCC ancestors
//! (transitive callers); every other function is a memo hit — observable
//! via [`UbGate::summary_hits`] / [`UbGate::summary_recomputes`] and the
//! `query_hits{fn-summary}` / `query_recomputes{fn-summary}` telemetry
//! counters.
//!
//! The gate takes the caller's parse. The campaign and the reduction
//! oracle hand it the `Ast` their compile's front end already built
//! ([`UbGate::judge_parsed`]), and the campaign also hands it the
//! parent's pooled parse, so neither the mutant nor its parent is parsed
//! again here. Text-only callers use [`UbGate::introduces_new_ub`], which
//! parses only on a verdict-cache miss. Both feed the same decision.
//!
//! Besides the decision, a verdict records whether the mutant has any
//! finding at all, lint or UB ([`UbVerdict::any_finding`]). The per-function
//! memo keeps that bit next to the UB keys, so it costs nothing extra; the
//! campaign's seed pool schedules a pooled mutant by it instead of
//! analyzing the program a second time.
//!
//! A mutant that does not parse is **never** gated: the compiler must see
//! it and reject it so compilable-ratio accounting stays truthful.
//! Verdicts are cached per `(parent, mutant)` content hash.

use crate::analyses::{analyze_function_with, collect_globals, summarize_function, GlobalInfo};
use crate::callgraph::CallGraph;
use crate::findings::{ub_keys, Finding, FindingKey};
use crate::summary::{summarize_functions, FnSummary};
use metamut_lang::ast::{ExternalDecl, FunctionDef, TranslationUnit};
use metamut_lang::chash::{hash128, Sip128};
use metamut_lang::fxhash::{FxHashMap, FxHashSet};
use metamut_lang::{parse, Ast, Name};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bumps the `analyze_findings{analysis}` counter family for one freshly
/// analyzed mutant.
fn count_findings(findings: &[Finding]) {
    let telemetry = metamut_telemetry::handle();
    if !telemetry.enabled() {
        return;
    }
    for f in findings {
        telemetry.counter_add(
            &metamut_telemetry::labeled("analyze_findings", f.analysis),
            1,
        );
    }
}

/// Content fingerprint of the analysis-visible file scope: sorted
/// volatile names, sorted `(array, size)` pairs, sorted typedef names.
/// Two units with equal fingerprints analyze any byte-identical function
/// identically, which is what licenses sharing summary memos between the
/// parent and its function-only mutants.
fn globals_fingerprint(globals: &GlobalInfo, unit: &TranslationUnit) -> u128 {
    let mut h = Sip128::default();
    let mut vol: Vec<&str> = globals.volatile.iter().map(Name::as_str).collect();
    vol.sort_unstable();
    h.write_u64(vol.len() as u64);
    for v in vol {
        h.write_str(v);
    }
    let mut arrays: Vec<(&str, i128)> = globals
        .array_sizes
        .iter()
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    arrays.sort_unstable();
    h.write_u64(arrays.len() as u64);
    for (name, size) in arrays {
        h.write_str(name);
        h.write_u128(size as u128);
    }
    let mut tds: Vec<&str> = unit
        .decls
        .iter()
        .filter_map(|d| match d {
            ExternalDecl::Typedef(t) => Some(t.name.as_str()),
            _ => None,
        })
        .collect();
    tds.sort_unstable();
    tds.dedup();
    h.write_u64(tds.len() as u64);
    for t in tds {
        h.write_str(t);
    }
    h.finish128()
}

/// Content-addressed summary keys, bottom-up over the call graph: a
/// function's key hashes the global fingerprint, its own declaration
/// text, and its resolved callees' keys — so an edit invalidates exactly
/// the edited function and its transitive callers. Members of a cyclic
/// SCC share a mix of the whole component (their summaries are computed
/// jointly) and are distinguished by their own text hash.
fn summary_keys(
    cg: &CallGraph,
    funcs: &[&FunctionDef],
    fn_hashes: &[u128],
    globals_hash: u128,
) -> Vec<u128> {
    let mut skeys = vec![0u128; funcs.len()];
    for scc in &cg.sccs {
        if scc.len() == 1 && !cg.in_cycle(scc[0], scc) {
            let i = scc[0];
            let mut h = Sip128::default();
            h.write_u128(globals_hash);
            h.write_u128(fn_hashes[i]);
            let mut deps: Vec<(&str, u128)> = cg.callees[i]
                .iter()
                .map(|&j| (funcs[j].name.as_str(), skeys[j]))
                .collect();
            deps.sort_unstable();
            deps.dedup();
            for (name, k) in deps {
                h.write_str(name);
                h.write_u128(k);
            }
            skeys[i] = h.finish128();
        } else {
            let mut mix = Sip128::default();
            mix.write_u128(globals_hash);
            let mut members: Vec<u128> = scc.iter().map(|&i| fn_hashes[i]).collect();
            members.sort_unstable();
            for m in members {
                mix.write_u128(m);
            }
            let in_scc: FxHashSet<usize> = scc.iter().copied().collect();
            let mut ext: Vec<(&str, u128)> = scc
                .iter()
                .flat_map(|&i| cg.callees[i].iter().copied())
                .filter(|j| !in_scc.contains(j))
                .map(|j| (funcs[j].name.as_str(), skeys[j]))
                .collect();
            ext.sort_unstable();
            ext.dedup();
            for (name, k) in ext {
                mix.write_str(name);
                mix.write_u128(k);
            }
            let mix = mix.finish128();
            for &i in scc {
                let mut h = Sip128::default();
                h.write_u128(mix);
                h.write_u128(fn_hashes[i]);
                skeys[i] = h.finish128();
            }
        }
    }
    skeys
}

/// Number of shards per memo table (power of two).
const SHARDS: usize = 16;

/// One memo table from a 128-bit content key to a shared value, sharded
/// behind mutexes. `kind` labels its `query_hits{kind}` /
/// `query_recomputes{kind}` telemetry counters.
struct MemoTable<V> {
    kind: &'static str,
    shards: [Mutex<FxHashMap<u128, Arc<V>>>; SHARDS],
}

impl<V> MemoTable<V> {
    fn new(kind: &'static str) -> Self {
        MemoTable {
            kind,
            shards: std::array::from_fn(|_| Mutex::default()),
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// One function's memoized findings against its complete summary
/// environment: the sorted `Ub` keys, and whether the function has any
/// finding at all. A boxed slice keeps the entry no larger than a
/// `BTreeSet` of the keys alone.
#[derive(Debug, Default, PartialEq, Eq)]
struct FnFindings {
    ub: Box<[FindingKey]>,
    any: bool,
}

impl FnFindings {
    fn of(findings: &[Finding]) -> Self {
        FnFindings {
            ub: ub_keys(findings).into_iter().collect(),
            any: !findings.is_empty(),
        }
    }
}

/// The UB gate's memo store: per-function [`FnSummary`]s (`fn-summary`)
/// and per-function findings (`fn-ub`), both keyed by the
/// content-addressed summary key. The key hashes every input the
/// computation observes, so a stored value never goes stale and needs
/// no validation. Share one database between gates (campaign workers,
/// the reduction oracle, daemon tenants) to share their memos; every
/// count below sums both tables.
pub struct QueryDb {
    summaries: MemoTable<FnSummary>,
    fn_ub: MemoTable<FnFindings>,
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
    /// An empty database.
    pub fn new() -> Self {
        QueryDb {
            summaries: MemoTable::new("fn-summary"),
            fn_ub: MemoTable::new("fn-ub"),
            hits: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
        }
    }

    /// Memos stored.
    pub fn len(&self) -> usize {
        self.summaries.len() + self.fn_ub.len()
    }

    /// True when no memos are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a stored memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo values computed (lookups that missed).
    pub fn recomputes(&self) -> u64 {
        self.recomputes.load(Ordering::Relaxed)
    }

    /// Returns the value `table` stores under `key`, or computes and
    /// stores it, reporting whether the call was a hit. No lock is held
    /// while `compute` runs; if a racing caller stored its own value
    /// meanwhile, that first value is kept and returned, so every caller
    /// observes one canonical value.
    fn memo<V>(
        &self,
        table: &MemoTable<V>,
        key: u128,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        // Keys are content hashes, so their low bits are already uniform.
        let shard = &table.shards[key as usize % SHARDS];
        let stored = shard.lock().get(&key).cloned();
        let hit = stored.is_some();
        let (counter, family) = if hit {
            (&self.hits, "query_hits")
        } else {
            (&self.recomputes, "query_recomputes")
        };
        let value = stored.unwrap_or_else(|| {
            let value = Arc::new(compute());
            Arc::clone(shard.lock().entry(key).or_insert(value))
        });
        counter.fetch_add(1, Ordering::Relaxed);
        let telemetry = metamut_telemetry::handle();
        if telemetry.enabled() {
            telemetry.counter_add(&metamut_telemetry::labeled(family, table.kind), 1);
        }
        (value, hit)
    }
}

/// What the gate concluded about one mutant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UbVerdict {
    /// The mutant has a `Ub` finding its parent does not: keep it out.
    pub new_ub: bool,
    /// The mutant has any finding at all, lint or UB, exactly when
    /// [`crate::analyze_unit`] on its parse is non-empty. `false` for a
    /// mutant that does not parse.
    pub any_finding: bool,
}

/// Shared, thread-safe UB gate for a fuzzing campaign.
pub struct UbGate {
    /// Span-insensitive `Ub` finding keys of each parent seed, keyed by
    /// its content hash. A mutant finding matching one of these is not
    /// *new*.
    baselines: Mutex<FxHashMap<u128, Arc<BTreeSet<FindingKey>>>>,
    /// Keyed by (parent content hash, or 0 without a parent; mutant
    /// content hash).
    verdicts: Mutex<FxHashMap<(u128, u128), UbVerdict>>,
    checked: AtomicU64,
    filtered: AtomicU64,
    summary_hits: AtomicU64,
    summary_recomputes: AtomicU64,
    /// The query database memoizing per-function summaries and
    /// per-function UB keys.
    db: Arc<QueryDb>,
}

impl Default for UbGate {
    fn default() -> Self {
        Self::new()
    }
}

impl UbGate {
    /// Creates an empty gate memoizing into a private query database.
    pub fn new() -> Self {
        Self::with_db(Arc::new(QueryDb::new()))
    }

    /// Creates a gate that memoizes analyses on `db` — pass the
    /// campaign's shared query database so repeated mutations of the same
    /// function body analyze once.
    pub fn with_db(db: Arc<QueryDb>) -> Self {
        UbGate {
            baselines: Mutex::default(),
            verdicts: Mutex::default(),
            checked: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            summary_hits: AtomicU64::new(0),
            summary_recomputes: AtomicU64::new(0),
            db,
        }
    }

    /// Gate queries so far (including verdict-cache hits).
    pub fn checked(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    /// Queries that answered "introduces new UB".
    pub fn filtered(&self) -> u64 {
        self.filtered.load(Ordering::Relaxed)
    }

    /// Always 0: the gate has a single decision path. Kept only because
    /// the frozen `exp_perf` benchmark still reads it.
    pub fn fast_path(&self) -> u64 {
        0
    }

    /// Function-summary memo hits.
    pub fn summary_hits(&self) -> u64 {
        self.summary_hits.load(Ordering::Relaxed)
    }

    /// Function summaries actually computed (memo misses).
    pub fn summary_recomputes(&self) -> u64 {
        self.summary_recomputes.load(Ordering::Relaxed)
    }

    /// Whether `mutant` has a `Ub` finding its parent does not.
    ///
    /// `parent = None` means the candidate has no seed lineage (e.g. a
    /// generative fuzzer); the baseline is then the empty set, so *any*
    /// UB finding gates. Unparseable mutants always return `false`.
    ///
    /// Parses `mutant` only on a verdict-cache miss. A caller that has
    /// already parsed it hands its parse to [`UbGate::judge_parsed`]
    /// instead.
    pub fn introduces_new_ub(&self, parent: Option<&str>, mutant: &str) -> bool {
        self.verdict(parent, mutant, || {
            self.decide(parent, None, parse("<ub-gate>", mutant).ok().as_ref())
        })
        .new_ub
    }

    /// [`UbGate::introduces_new_ub`] on the caller's parse of `mutant`,
    /// with the whole verdict: `ast` is `mutant` parsed, or `None` when it
    /// does not parse (and is therefore never gated). `parent_ast` is the
    /// caller's parse of `parent`, when it holds one: the parent's
    /// baseline then reads it instead of parsing the parent's text.
    pub fn judge_parsed(
        &self,
        parent: Option<&str>,
        parent_ast: Option<&Ast>,
        mutant: &str,
        ast: Option<&Ast>,
    ) -> UbVerdict {
        debug_assert!(ast.is_none_or(|a| a.source() == mutant));
        debug_assert!(parent_ast.is_none_or(|a| Some(a.source()) == parent));
        self.verdict(parent, mutant, || self.decide(parent, parent_ast, ast))
    }

    /// Answers from the verdict cache, or runs `decide` and caches it.
    fn verdict(
        &self,
        parent: Option<&str>,
        mutant: &str,
        decide: impl FnOnce() -> UbVerdict,
    ) -> UbVerdict {
        self.checked.fetch_add(1, Ordering::Relaxed);
        let key = (
            parent.map_or(0, |p| hash128(p.as_bytes())),
            hash128(mutant.as_bytes()),
        );
        let cached = self.verdicts.lock().get(&key).copied();
        let verdict = cached.unwrap_or_else(|| {
            let telemetry = metamut_telemetry::handle();
            let started = std::time::Instant::now();
            let verdict = decide();
            if telemetry.enabled() {
                telemetry.observe("analyze_ms", started.elapsed().as_secs_f64() * 1e3);
            }
            self.verdicts.lock().insert(key, verdict);
            verdict
        });
        if verdict.new_ub {
            self.filtered.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// The one decision path: the parent's baseline first (it pre-warms
    /// the summary memos), then the mutant's own findings.
    fn decide(
        &self,
        parent: Option<&str>,
        parent_ast: Option<&Ast>,
        ast: Option<&Ast>,
    ) -> UbVerdict {
        let baseline = parent.map(|p| self.baseline(p, parent_ast));
        let Some(ast) = ast else {
            return UbVerdict::default();
        };
        let (keys, any_finding) = self.unit_findings(ast);
        UbVerdict {
            new_ub: baseline.map_or(!keys.is_empty(), |b| !keys.is_subset(&b)),
            any_finding,
        }
    }

    /// Summary-driven findings of a parsed unit: its `Ub` keys, and
    /// whether it has any finding at all. A bottom-up
    /// summarize-and-analyze over its function definitions, memoizing
    /// per-function summaries and findings under content-addressed
    /// summary keys. Each key hashes the function's exact declaration
    /// text, so byte-identical functions share memos across mutants and
    /// seeds.
    fn unit_findings(&self, ast: &Ast) -> (BTreeSet<FindingKey>, bool) {
        let src = ast.source();
        let globals = collect_globals(ast);
        let globals_hash = globals_fingerprint(&globals, &ast.unit);
        let mut funcs: Vec<&FunctionDef> = Vec::new();
        let mut fn_hashes: Vec<u128> = Vec::new();
        for decl in &ast.unit.decls {
            if let ExternalDecl::Function(f) = decl {
                if f.body.is_some() {
                    funcs.push(f);
                    fn_hashes.push(hash128(
                        &src.as_bytes()[f.span.lo as usize..f.span.hi as usize],
                    ));
                }
            }
        }
        let db = &self.db;
        let cg = CallGraph::build(ast, &funcs);
        let skeys = summary_keys(&cg, &funcs, &fn_hashes, globals_hash);

        let env = summarize_functions(&funcs, &cg, |i, env| {
            let (summary, hit) = db.memo(&db.summaries, skeys[i], || {
                summarize_function(ast, funcs[i], &globals, env)
            });
            let counter = if hit {
                &self.summary_hits
            } else {
                &self.summary_recomputes
            };
            counter.fetch_add(1, Ordering::Relaxed);
            summary
        });

        // Per-function findings against the complete environment. The
        // summary key already covers the whole callee cone, so it is a
        // sound memo key for the findings too.
        let mut all = BTreeSet::new();
        let mut any = false;
        for (i, f) in funcs.iter().enumerate() {
            let (found, _) = db.memo(&db.fn_ub, skeys[i], || {
                let findings = analyze_function_with(ast, f, &globals, &env);
                count_findings(&findings);
                FnFindings::of(&findings)
            });
            all.extend(found.ub.iter().copied());
            any |= found.any;
        }
        (all, any)
    }

    // ------------------------------------------------------------------
    // Parent baselines
    // ------------------------------------------------------------------

    /// The parent's baseline key set, analyzed once per parent, on
    /// `parent_ast` when the caller holds the parent's parse and on a
    /// fresh parse of `parent` otherwise. The analysis runs through the
    /// summary memos, so it pre-warms them and the first mutant only pays
    /// for its own edit. An unparseable parent has an empty baseline.
    fn baseline(&self, parent: &str, parent_ast: Option<&Ast>) -> Arc<BTreeSet<FindingKey>> {
        let key = hash128(parent.as_bytes());
        if let Some(ub) = self.baselines.lock().get(&key) {
            return Arc::clone(ub);
        }
        let keys = match parent_ast {
            Some(ast) => self.unit_findings(ast).0,
            None => parse("<ub-gate-parent>", parent)
                .map(|ast| self.unit_findings(&ast).0)
                .unwrap_or_default(),
        };
        let ub = Arc::new(keys);
        self.baselines.lock().insert(key, Arc::clone(&ub));
        ub
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(ks: &[u64]) -> FnFindings {
        FnFindings {
            ub: ks.iter().copied().map(FindingKey).collect(),
            any: !ks.is_empty(),
        }
    }

    #[test]
    fn a_racing_store_keeps_the_first_value() {
        let db = QueryDb::new();
        // Another caller stores its value while this compute runs (no
        // lock is held across it): the first value stored wins.
        let (value, hit) = db.memo(&db.fn_ub, 1, || {
            db.memo(&db.fn_ub, 1, || keys(&[41]));
            keys(&[999])
        });
        assert_eq!((&*value, hit), (&keys(&[41]), false));
        let (value, hit) = db.memo(&db.fn_ub, 1, || unreachable!("stored"));
        assert_eq!((&*value, hit), (&keys(&[41]), true));
        assert_eq!((db.len(), db.hits(), db.recomputes()), (1, 1, 2));
    }

    #[test]
    fn one_key_in_the_two_tables_names_two_memos() {
        let db = QueryDb::new();
        let key = u128::MAX - 7;
        let summary = FnSummary {
            returns_const: Some(1),
            ..FnSummary::default()
        };
        db.memo(&db.summaries, key, || summary);
        db.memo(&db.fn_ub, key, || keys(&[2]));
        db.memo(&db.fn_ub, key + 1, || keys(&[3]));
        assert_eq!(db.len(), 3);
        let (summary, _) = db.memo(&db.summaries, key, FnSummary::default);
        assert_eq!(summary.returns_const, Some(1));
        assert_eq!(*db.memo(&db.fn_ub, key, FnFindings::default).0, keys(&[2]));
        assert_eq!(
            *db.memo(&db.fn_ub, key + 1, FnFindings::default).0,
            keys(&[3])
        );
        assert_eq!((db.hits(), db.recomputes()), (3, 3));
    }

    #[test]
    fn cross_thread_sharing_sees_one_memo_table() {
        let db = Arc::new(QueryDb::new());
        db.memo(&db.fn_ub, 100, || keys(&[100]));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || db.memo(&db.fn_ub, 100, FnFindings::default).0)
            })
            .collect();
        for t in threads {
            assert_eq!(*t.join().unwrap(), keys(&[100]));
        }
        // All four threads hit the memo stored on the main thread.
        assert_eq!((db.hits(), db.recomputes()), (4, 1));
    }
}
