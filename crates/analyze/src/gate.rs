//! The campaign UB gate: decides whether a mutant introduces undefined
//! behavior its parent seed did not already have.
//!
//! Every fresh verdict parses the whole mutant and compares its `Ub`
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
//! `analyze_summary_hits` / `analyze_summary_recomputes` telemetry
//! counters.
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
use metamut_lang::{parse, Ast};
use metamut_query::{KindId, QueryDb};
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
    /// Span-insensitive `Ub` finding keys of each parent seed, keyed by
    /// its content hash. A mutant finding matching one of these is not
    /// *new*.
    baselines: Mutex<FxHashMap<u128, Arc<BTreeSet<FindingKey>>>>,
    /// Keyed by (parent content hash, or 0 without a parent; mutant
    /// content hash).
    verdicts: Mutex<FxHashMap<(u128, u128), bool>>,
    checked: AtomicU64,
    filtered: AtomicU64,
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
            baselines: Mutex::default(),
            verdicts: Mutex::default(),
            checked: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
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
        let baseline = parent.map(|p| self.baseline(p));
        let Ok(ast) = parse("<ub-gate>", mutant) else {
            return false;
        };
        let keys = self.unit_ub_keys(&ast, mutant);
        baseline.map_or(!keys.is_empty(), |b| !keys.is_subset(&b))
    }

    /// Summary-driven UB keys of a parsed unit: a bottom-up
    /// summarize-and-analyze over its function definitions, memoizing
    /// per-function summaries and UB-key sets under content-addressed
    /// summary keys. Each key hashes the function's exact declaration
    /// text, so byte-identical functions share memos across mutants and
    /// seeds.
    fn unit_ub_keys(&self, ast: &Ast, src: &str) -> BTreeSet<FindingKey> {
        let globals = collect_globals(&ast.unit);
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
        let (db, kinds) = (&self.db, &self.kinds);
        let telemetry = metamut_telemetry::handle();
        let cg = CallGraph::build(&funcs);
        let skeys = summary_keys(&cg, &funcs, &fn_hashes, globals_hash);

        let env = summarize_functions(&funcs, &cg, |i, env| {
            let (value, hit) = db.memo_once(kinds.summary, skeys[i], || {
                Arc::new(summarize_function(funcs[i], &globals, env))
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
                let findings = analyze_function_with(f, &globals, &env);
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

    /// The parent's baseline key set, analyzed once per parent. The
    /// analysis runs through the summary memos, so it pre-warms them and
    /// the first mutant only pays for its own edit. An unparseable parent
    /// has an empty baseline.
    fn baseline(&self, parent: &str) -> Arc<BTreeSet<FindingKey>> {
        let key = hash128(parent.as_bytes());
        if let Some(ub) = self.baselines.lock().get(&key) {
            return Arc::clone(ub);
        }
        let ub = Arc::new(
            parse("<ub-gate-parent>", parent)
                .map(|ast| self.unit_ub_keys(&ast, parent))
                .unwrap_or_default(),
        );
        self.baselines.lock().insert(key, Arc::clone(&ub));
        ub
    }
}
