//! Per-function interprocedural summaries.
//!
//! A [`FnSummary`] condenses one function definition into the facts a
//! *caller's* intraprocedural analysis can consume at a call site without
//! ever looking at the callee's body again:
//!
//! - **parameter demand** — which by-value parameters the callee reads
//!   (so passing an uninitialized local gains a call chain), and which
//!   pointee targets of non-escaping pointer parameters it definitely
//!   reads before writing (so `g(&x)` on uninitialized `x` is caught),
//! - **write/escape effects** — whether a pointer parameter's pointee is
//!   definitely written (so `init(&x); use(x);` stays clean) and whether
//!   the pointer escapes (stored, reassigned, leaked to an unknown
//!   callee), which disables all pointee facts,
//! - **conditional-UB probes** — "dividing by parameter N executes
//!   unconditionally", "parameter N is dereferenced", "parameter N
//!   indexes array `a` of size `s`": harmless per se, UB when a caller
//!   pins the argument to a bad constant,
//! - **return lattice** — the callee always returns the constant `c`, or
//!   always returns parameter `i` unchanged,
//! - **side effects** — whether the callee is observable (volatile
//!   access or a call to anything unknown) and whether it can return at
//!   all, which fixes the infinite-loop and unreachable-code analyses
//!   across calls.
//!
//! Summaries are computed bottom-up over [`crate::callgraph::CallGraph`]
//! SCCs; members of a cycle summarize against an environment that
//! excludes their own SCC (their mutual calls degrade to "unknown",
//! which every consumer treats maximally conservatively). Every fact
//! here errs toward *absence*: a missing fact can only suppress a
//! finding, never invent one, preserving the crate's zero-false-positive
//! discipline.

use crate::analyses::{summarize_function, GlobalInfo};
use crate::callgraph::CallGraph;
use crate::findings::ChainLink;
use metamut_lang::ast::{ExternalDecl, FunctionDef};
use metamut_lang::fxhash::FxHashMap;
use metamut_lang::Ast;
use std::sync::Arc;

/// An interprocedural defect path: outermost hop first, each link's span
/// inside that link's function (see [`ChainLink`]).
pub type Chain = Vec<ChainLink>;

/// Condensed analysis facts of one function definition; see the module
/// docs for what each field licenses at a call site. All `Vec`s are
/// indexed by parameter position.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Parameter names (`None` when unnamed).
    pub params: Vec<Option<String>>,
    /// By-value parameter whose value is definitely read (chain to the
    /// first read). Used only to enrich caller findings with a chain —
    /// evaluating an uninitialized argument is already the caller's
    /// defect, summary or not.
    pub demands: Vec<Option<Chain>>,
    /// Non-escaping pointer parameter whose pointee is definitely read
    /// before any write of it (chain to the read).
    pub ptr_reads: Vec<Option<Chain>>,
    /// Non-escaping pointer parameter whose pointee is definitely
    /// written on every path that returns.
    pub ptr_writes: Vec<bool>,
    /// Whether the pointer parameter escapes the summary's view: `true`
    /// disables `ptr_reads`/`ptr_writes` for that position and forbids
    /// callers from keeping `&x` arguments tracked. Non-pointer and
    /// unnamed parameters are always `true`.
    pub ptr_escapes: Vec<bool>,
    /// The callee unconditionally divides/mods by this parameter's value.
    pub div_params: Vec<Option<Chain>>,
    /// The callee unconditionally dereferences this pointer parameter.
    pub deref_params: Vec<Option<Chain>>,
    /// The callee unconditionally indexes a fixed-size array with this
    /// parameter: `(array name, element count, chain)`.
    pub idx_params: Vec<Option<(String, i128, Chain)>>,
    /// Every return returns this constant (and the function cannot fall
    /// off the end).
    pub returns_const: Option<i128>,
    /// Every return returns this parameter's unmodified value.
    pub returns_param: Option<usize>,
    /// Whether the declared return type is a pointer (so a constant-zero
    /// return feeds the null-deref check at `*f()`).
    pub ret_is_pointer: bool,
    /// Whether executing the callee is observable: it touches something
    /// volatile or calls anything unknown (directly or transitively).
    pub observable: bool,
    /// Whether any path through the callee reaches its exit. `false`
    /// means calls to it never return (all paths loop forever or reach
    /// another no-return call).
    pub may_return: bool,
}

/// A name → summary environment for one translation unit. The empty
/// environment (`Summaries::default()`) makes every analysis exactly the
/// intraprocedural one: all callees are unknown.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    map: FxHashMap<String, Arc<FnSummary>>,
}

impl Summaries {
    /// Looks up the summary of a *uniquely defined* function.
    pub fn get(&self, name: &str) -> Option<&Arc<FnSummary>> {
        self.map.get(name)
    }

    /// Inserts (or replaces) a summary.
    pub fn insert(&mut self, name: String, summary: Arc<FnSummary>) {
        self.map.insert(name, summary);
    }

    /// Whether no function is summarized (the intraprocedural mode).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of summarized functions.
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

/// Summarizes every function definition of `ast`, bottom-up over the
/// call graph.
pub fn summarize_unit(ast: &Ast, globals: &GlobalInfo) -> Summaries {
    let funcs: Vec<&FunctionDef> = ast
        .unit
        .decls
        .iter()
        .filter_map(|d| match d {
            ExternalDecl::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
        .collect();
    summarize_functions(&funcs, &CallGraph::build(ast, &funcs), |i, env| {
        Arc::new(summarize_function(ast, funcs[i], globals, env))
    })
}

/// The bottom-up summarization loop over `cg` (built from `funcs`):
/// `summarize(i, env)` yields the summary of `funcs[i]` against `env`.
/// Fresh callers compute it with `summarize_function`; the UB gate looks
/// it up in its memo, so a memoized run and a fresh run build the same
/// environment.
pub fn summarize_functions(
    funcs: &[&FunctionDef],
    cg: &CallGraph,
    mut summarize: impl FnMut(usize, &Summaries) -> Arc<FnSummary>,
) -> Summaries {
    let mut env = Summaries::default();
    for scc in &cg.sccs {
        // Every member summarizes against the environment *excluding*
        // the SCC itself (mutual calls stay unknown), and insertion is
        // deferred until the whole SCC is done — the result must not
        // depend on member iteration order.
        let computed: Vec<(usize, Arc<FnSummary>)> =
            scc.iter().map(|&i| (i, summarize(i, &env))).collect();
        for (i, s) in computed {
            // Duplicate-named definitions stay out: a call to such a
            // name must resolve to "unknown".
            if cg.by_name.get(funcs[i].name.as_str()) == Some(&i) {
                env.insert(funcs[i].name.to_string(), s);
            }
        }
    }
    env
}
