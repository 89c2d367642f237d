//! The campaign UB gate: decides — cheaply — whether a mutant introduces
//! undefined behavior its parent seed did not already have.
//!
//! Cost is the whole game here. A campaign compiles mutants through the
//! content-addressed memo engine (one mini-parse of the edited
//! declaration), so a gate that fully re-parses and re-analyzes every
//! mutant would dominate the iteration. The gate therefore mirrors the
//! memoized compiler's structure.
//!
//! Editing one function can change findings in *unedited* callers — a
//! callee that now returns 0 creates a division by zero at an old call
//! site — so per-chunk verdicts would be unsound. Instead the gate
//! splices each edited chunk's mini-parsed function into the parent's
//! declaration list and re-runs the whole-unit summary analysis, with
//! both the per-function summary and the per-function UB-key set
//! memoized in a [`QueryDb`] under a **content-addressed summary key**:
//! the hash of (global fingerprint, function text, resolved callee
//! summary keys), computed bottom-up over the call-graph SCCs. A
//! single-declaration mutant therefore re-summarizes only the edited
//! function and its SCC ancestors (transitive callers); every other
//! function is a memo hit — observable via [`UbGate::summary_hits`] /
//! [`UbGate::summary_recomputes`] and the `analyze_summary_hits` /
//! `analyze_summary_recomputes` telemetry counters.
//!
//! Anything the splice path cannot handle — non-function edits,
//! chunk-count changes, parse failures — falls back to a full parse +
//! analyze, which still reuses the summary memos. A mutant that does
//! not parse is **never** gated: the
//! compiler must see it and reject it so compilable-ratio accounting
//! stays truthful. Verdicts are cached per `(parent, mutant)` content
//! hash.

use crate::analyses::{analyze_function_with, collect_globals, summarize_function, GlobalInfo};
use crate::callgraph::CallGraph;
use crate::findings::{ub_keys, Finding, FindingKey};
use crate::summary::{summarize_functions, FnSummary};
use metamut_lang::ast::{ExternalDecl, FunctionDef, TranslationUnit};
use metamut_lang::chash::{hash128, Sip128};
use metamut_lang::fxhash::{FxHashMap, FxHashSet};
use metamut_lang::{parse, parse_with_typedefs, split_source, Ast, DeclChunk};
use metamut_query::{dirty_set, KindId, QueryDb};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cached full analysis of one parent seed.
struct ParentInfo {
    /// Per-chunk content hashes from `split_source`, or `None` when the
    /// parent does not lex (every mutant then takes the full path).
    chunk_hashes: Option<Vec<u128>>,
    /// Span-insensitive keys of every `Ub` finding in the parent. A
    /// mutant finding matching any of these is not *new*.
    ub: BTreeSet<FindingKey>,
    /// Typedef names, so single-declaration mutants mini-parse correctly.
    typedefs: FxHashSet<String>,
    /// File-scope facts for analyzing a lone edited function.
    globals: GlobalInfo,
    /// The parent source, for slicing declaration texts (summary keys
    /// hash the exact decl text).
    src: String,
    /// The parsed parent, kept for the interprocedural splice path.
    ast: Option<Ast>,
    /// Chunk index → declaration index, when the chunk holds exactly
    /// that one declaration (the splice path's alignment).
    chunk_decl: Vec<Option<usize>>,
    /// Fingerprint of everything outside function bodies that the
    /// analyses can observe: volatile names, global array sizes, typedef
    /// names. Function-only edits preserve it.
    globals_hash: u128,
}

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

/// Typedef names of a unit (they change how a lone chunk parses).
fn typedef_names(unit: &TranslationUnit) -> FxHashSet<String> {
    let mut typedefs = FxHashSet::default();
    for d in &unit.decls {
        if let ExternalDecl::Typedef(t) = d {
            typedefs.insert(t.name.clone());
        }
    }
    typedefs
}

/// Content fingerprint of the analysis-visible file scope: sorted
/// volatile names, sorted `(array, size)` pairs, sorted typedef names.
/// Two units with equal fingerprints analyze any byte-identical function
/// identically, which is what licenses sharing summary memos between the
/// parent and its function-only mutants.
fn globals_fingerprint(globals: &GlobalInfo, typedefs: &FxHashSet<String>) -> u128 {
    let mut h = Sip128::default();
    let mut vol: Vec<&str> = globals.volatile.iter().map(String::as_str).collect();
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
    let mut tds: Vec<&str> = typedefs.iter().map(String::as_str).collect();
    tds.sort_unstable();
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

/// The gate's registered analysis kinds on a [`QueryDb`] (installed once
/// per database via the extension store).
struct GateKinds {
    /// Per-function [`FnSummary`], keyed by content-addressed summary key.
    summary: KindId,
    /// Per-function UB finding-key set, same key as `summary`.
    fn_ub: KindId,
}

/// Shared, thread-safe UB gate for a fuzzing campaign.
pub struct UbGate {
    parents: Mutex<FxHashMap<u128, Arc<ParentInfo>>>,
    /// Keyed by (parent content hash, or 0 without a parent; mutant
    /// content hash).
    verdicts: Mutex<FxHashMap<(u128, u128), bool>>,
    checked: AtomicU64,
    filtered: AtomicU64,
    fast_path: AtomicU64,
    summary_hits: AtomicU64,
    summary_recomputes: AtomicU64,
    /// The query database memoizing per-function summaries and
    /// per-function UB keys.
    db: Arc<QueryDb>,
    kinds: Arc<GateKinds>,
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
        let kinds = db.extension(|| GateKinds {
            summary: db.register_kind("fn-summary"),
            fn_ub: db.register_kind("fn-ub"),
        });
        UbGate {
            parents: Mutex::default(),
            verdicts: Mutex::default(),
            checked: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            fast_path: AtomicU64::new(0),
            summary_hits: AtomicU64::new(0),
            summary_recomputes: AtomicU64::new(0),
            db,
            kinds,
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

    /// Fresh verdicts that took the incremental fast path.
    pub fn fast_path(&self) -> u64 {
        self.fast_path.load(Ordering::Relaxed)
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
    pub fn introduces_new_ub(&self, parent: Option<&str>, mutant: &str) -> bool {
        self.checked.fetch_add(1, Ordering::Relaxed);
        let key = (
            parent.map_or(0, |p| hash128(p.as_bytes())),
            hash128(mutant.as_bytes()),
        );
        let cached = self.verdicts.lock().get(&key).copied();
        let verdict = cached.unwrap_or_else(|| {
            let telemetry = metamut_telemetry::handle();
            let started = std::time::Instant::now();
            let verdict = self.decide(parent, mutant);
            if telemetry.enabled() {
                telemetry.observe("analyze_ms", started.elapsed().as_secs_f64() * 1e3);
            }
            self.verdicts.lock().insert(key, verdict);
            verdict
        });
        if verdict {
            self.filtered.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    fn decide(&self, parent: Option<&str>, mutant: &str) -> bool {
        let info = parent.map(|p| self.parent_info(p));
        let baseline: &BTreeSet<FindingKey> = match &info {
            Some(i) => &i.ub,
            None => {
                static EMPTY: std::sync::OnceLock<BTreeSet<FindingKey>> =
                    std::sync::OnceLock::new();
                EMPTY.get_or_init(BTreeSet::new)
            }
        };
        if let Some(i) = &info {
            if let Some(verdict) = self.spliced_verdict(i, mutant, baseline) {
                return verdict;
            }
        }
        let Ok(ast) = parse("<ub-gate>", mutant) else {
            return false;
        };
        let keys = self.unit_ub_keys(&ast, mutant);
        !keys.is_subset(baseline)
    }

    /// The splice fast path: every dirty chunk mini-parses to a single
    /// function definition aligned with one parent declaration, so the
    /// mutant's unit is the parent's declaration list with those
    /// functions swapped in — no full re-parse, parent globals reused
    /// (function-only edits cannot change them). The whole spliced unit
    /// is then analyzed through the summary memos: unchanged functions
    /// whose callee cone is also unchanged are cache hits.
    fn spliced_verdict(
        &self,
        parent: &ParentInfo,
        mutant: &str,
        baseline: &BTreeSet<FindingKey>,
    ) -> Option<bool> {
        let parent_hashes = parent.chunk_hashes.as_ref()?;
        let ast = parent.ast.as_ref()?;
        let (_, chunks) = split_source(mutant)?;
        if chunks.len() != parent_hashes.len() {
            return None;
        }
        let hashes: Vec<u128> = chunks.iter().map(|c| c.hash).collect();
        let edited = dirty_set(parent_hashes, &hashes)?;
        if edited.is_empty() {
            // Byte-shuffled but chunk-identical: nothing new.
            return Some(false);
        }

        // Mini-parse each edited chunk; all-or-nothing.
        let mut repl: FxHashMap<usize, (Ast, &str)> = FxHashMap::default();
        for &c in &edited {
            let d = parent.chunk_decl.get(c).copied().flatten()?;
            let ExternalDecl::Function(pf) = &ast.unit.decls[d] else {
                return None;
            };
            pf.body.as_ref()?;
            let chunk_src = chunks[c].text(mutant);
            let cast = parse_with_typedefs("<ub-gate-chunk>", chunk_src, &parent.typedefs).ok()?;
            let [ExternalDecl::Function(f)] = &cast.unit.decls[..] else {
                return None;
            };
            f.body.as_ref()?;
            repl.insert(d, (cast, chunk_src));
        }

        let mut funcs: Vec<&FunctionDef> = Vec::new();
        let mut texts: Vec<&str> = Vec::new();
        for (d, decl) in ast.unit.decls.iter().enumerate() {
            if let Some((cast, csrc)) = repl.get(&d) {
                let [ExternalDecl::Function(f)] = &cast.unit.decls[..] else {
                    unreachable!("validated above");
                };
                funcs.push(f);
                texts.push(&csrc[f.span.lo as usize..f.span.hi as usize]);
            } else if let ExternalDecl::Function(f) = decl {
                if f.body.is_some() {
                    funcs.push(f);
                    texts.push(&parent.src[f.span.lo as usize..f.span.hi as usize]);
                }
            }
        }
        let keys =
            self.analyze_functions_memo(&funcs, &texts, &parent.globals, parent.globals_hash);
        self.fast_path.fetch_add(1, Ordering::Relaxed);
        Some(!keys.is_subset(baseline))
    }

    /// Summary-driven UB keys of a fully parsed unit, routed through the
    /// memo engine so the splice path and the full path share artifacts.
    fn unit_ub_keys(&self, ast: &Ast, src: &str) -> BTreeSet<FindingKey> {
        let globals = collect_globals(&ast.unit);
        let typedefs = typedef_names(&ast.unit);
        let globals_hash = globals_fingerprint(&globals, &typedefs);
        let mut funcs: Vec<&FunctionDef> = Vec::new();
        let mut texts: Vec<&str> = Vec::new();
        for decl in &ast.unit.decls {
            if let ExternalDecl::Function(f) = decl {
                if f.body.is_some() {
                    funcs.push(f);
                    texts.push(&src[f.span.lo as usize..f.span.hi as usize]);
                }
            }
        }
        self.analyze_functions_memo(&funcs, &texts, &globals, globals_hash)
    }

    /// Bottom-up summarize-and-analyze over a function list, memoizing
    /// per-function summaries and UB-key sets under content-addressed
    /// summary keys. `texts[i]` must be the exact declaration text of
    /// `funcs[i]` — byte-identical declarations hash identically whether
    /// they came from a full parse or a spliced chunk, which is what
    /// makes the memos shareable across paths and across seeds.
    fn analyze_functions_memo(
        &self,
        funcs: &[&FunctionDef],
        texts: &[&str],
        globals: &GlobalInfo,
        globals_hash: u128,
    ) -> BTreeSet<FindingKey> {
        let (db, kinds) = (&self.db, &self.kinds);
        let telemetry = metamut_telemetry::handle();
        let cg = CallGraph::build(funcs);
        let fn_hashes: Vec<u128> = texts.iter().map(|t| hash128(t.as_bytes())).collect();
        let skeys = summary_keys(&cg, funcs, &fn_hashes, globals_hash);

        let env = summarize_functions(funcs, &cg, |i, env| {
            let (value, hit) = db.memo_once(kinds.summary, skeys[i], || {
                Arc::new(summarize_function(funcs[i], globals, env))
            });
            if hit {
                self.summary_hits.fetch_add(1, Ordering::Relaxed);
                telemetry.counter_add("analyze_summary_hits", 1);
            } else {
                self.summary_recomputes.fetch_add(1, Ordering::Relaxed);
                telemetry.counter_add("analyze_summary_recomputes", 1);
            }
            value
                .downcast::<FnSummary>()
                .expect("fn-summary memo holds a FnSummary")
        });

        // Per-function UB keys against the complete environment. The
        // summary key already covers the whole callee cone, so it is a
        // sound memo key for the findings too.
        let mut all = BTreeSet::new();
        for (i, f) in funcs.iter().enumerate() {
            let (value, _) = db.memo_once(kinds.fn_ub, skeys[i], || {
                let findings = analyze_function_with(f, globals, &env);
                count_findings(&findings);
                Arc::new(ub_keys(&findings))
            });
            let keys = value
                .downcast::<BTreeSet<FindingKey>>()
                .expect("fn-ub memo holds a key set");
            all.extend(keys.iter().copied());
        }
        all
    }

    // ------------------------------------------------------------------
    // Parent baselines
    // ------------------------------------------------------------------

    fn parent_info(&self, parent: &str) -> Arc<ParentInfo> {
        let key = hash128(parent.as_bytes());
        if let Some(info) = self.parents.lock().get(&key) {
            return Arc::clone(info);
        }
        let split = split_source(parent);
        let chunk_hashes: Option<Vec<u128>> = split
            .as_ref()
            .map(|(_, chunks)| chunks.iter().map(|c| c.hash).collect());
        let info = match parse("<ub-gate-parent>", parent) {
            Ok(ast) => {
                let typedefs = typedef_names(&ast.unit);
                let globals = collect_globals(&ast.unit);
                let globals_hash = globals_fingerprint(&globals, &typedefs);
                let chunk_decl = split
                    .as_ref()
                    .map(|(_, chunks)| align_chunks(chunks, &ast.unit.decls))
                    .unwrap_or_default();
                // Parent baselines run through the memo engine:
                // analyzing the parent pre-warms the summary store, so
                // the first mutant only pays for its own edit.
                let ub = self.unit_ub_keys(&ast, parent);
                Arc::new(ParentInfo {
                    chunk_hashes,
                    ub,
                    typedefs,
                    globals,
                    src: parent.to_owned(),
                    ast: Some(ast),
                    chunk_decl,
                    globals_hash,
                })
            }
            Err(_) => Arc::new(ParentInfo {
                chunk_hashes,
                ub: BTreeSet::new(),
                typedefs: FxHashSet::default(),
                globals: GlobalInfo::default(),
                src: parent.to_owned(),
                ast: None,
                chunk_decl: Vec::new(),
                globals_hash: 0,
            }),
        };
        self.parents.lock().insert(key, Arc::clone(&info));
        info
    }
}

/// Maps each chunk to the unique declaration it contains (`None` when a
/// chunk holds zero or several declarations, or a declaration straddles
/// a chunk boundary). Both lists are in source order, so one forward
/// pass aligns them.
fn align_chunks(chunks: &[DeclChunk], decls: &[ExternalDecl]) -> Vec<Option<usize>> {
    let mut map = vec![None; chunks.len()];
    let mut d = 0;
    for (c, chunk) in chunks.iter().enumerate() {
        let mut inside = 0;
        let mut only = None;
        while d < decls.len() && decls[d].span().hi <= chunk.span.hi {
            if decls[d].span().lo >= chunk.span.lo {
                inside += 1;
                only = Some(d);
            }
            d += 1;
        }
        if inside == 1 {
            map[c] = only;
        }
    }
    map
}
