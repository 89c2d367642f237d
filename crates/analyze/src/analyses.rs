//! The analysis suite: uninitialized reads, constant-lattice UB checks
//! (division by zero, out-of-bounds constant indexing, null-pointer
//! dereference), unreachable code, and infinite loops without side
//! effects.
//!
//! Everything here is parse-only — no sema required — and deliberately
//! conservative: a finding must survive reformatting (keys are
//! span-insensitive) and the clean-corpus gate (`exp_analyze` enforces
//! zero findings on known-good programs). Precision tricks that trade
//! false positives for recall are out of bounds; see the per-analysis
//! notes for the deliberate imprecision.
//!
//! Every pass is parameterized by a [`Summaries`] environment. With the
//! empty environment (the default) all callees are unknown and the
//! analyses are exactly intraprocedural; with an environment produced by
//! [`crate::summary::summarize_unit`], call sites consume callee facts —
//! parameter demands, pointee read/write effects, conditional-UB probes,
//! return constants, observability and termination — making all six
//! checks interprocedural without any inlining. The same walkers also
//! *produce* summaries: run with a `Probe` attached and parameters
//! seeded symbolic, they record which parameters are demanded, divided
//! by, dereferenced, or used as array indices.

use crate::cfg::{syntactic_const, Action, Cfg};
use crate::dataflow::{forward, Lattice};
use crate::findings::{ChainLink, Finding, Severity};
use crate::summary::{Chain, FnSummary, Summaries};
use metamut_lang::ast::{
    BinaryOp, BlockItem, Expr, ExprKind, ExprRef, ExternalDecl, ForInit, FunctionDef, Initializer,
    Stmt, StmtKind, Storage, TySyn, UnaryOp, VarDecl,
};
use metamut_lang::fxhash::{FxHashMap, FxHashSet};
use metamut_lang::Ast;
use metamut_lang::{Name, Span};
use std::collections::BTreeMap;

/// File-scope facts every function analysis needs: which globals are
/// volatile (observable side-effect channel for the infinite-loop check)
/// and the constant sizes of global arrays (for the indexing check).
#[derive(Debug, Clone, Default)]
pub struct GlobalInfo {
    /// Names of file-scope variables declared `volatile`.
    pub volatile: FxHashSet<Name>,
    /// First-dimension sizes of file-scope arrays with constant extents.
    pub array_sizes: FxHashMap<Name, i128>,
}

/// Collects [`GlobalInfo`] from a parsed unit's file-scope decls.
pub fn collect_globals(ast: &Ast) -> GlobalInfo {
    let mut info = GlobalInfo::default();
    for decl in &ast.unit.decls {
        if let ExternalDecl::Vars(group) = decl {
            for v in &group.vars {
                if ty_is_volatile(&v.ty) {
                    info.volatile.insert(v.name.clone());
                }
                if let TySyn::Array {
                    size: Some(size), ..
                } = &v.ty
                {
                    if let Some(n) = syntactic_const(ast, &ast[*size]) {
                        info.array_sizes.insert(v.name.clone(), n);
                    }
                }
            }
        }
    }
    info
}

fn ty_is_volatile(ty: &TySyn) -> bool {
    match ty {
        TySyn::Base { quals, .. } => quals.is_volatile,
        TySyn::Pointer { pointee, quals } => quals.is_volatile || ty_is_volatile(pointee),
        TySyn::Array { elem, .. } => ty_is_volatile(elem),
        TySyn::Function { .. } => false,
    }
}

/// Analyzes every function definition of `ast` **interprocedurally**:
/// summarizes the unit bottom-up over its call graph, then analyzes each
/// function against that environment. Findings in source order.
pub fn analyze_unit(ast: &Ast) -> Vec<Finding> {
    let globals = collect_globals(ast);
    let summaries = crate::summary::summarize_unit(ast, &globals);
    analyze_unit_inner(ast, &globals, &summaries)
}

/// Analyzes every function definition of `ast` against a caller-chosen
/// summary environment. Pass `&Summaries::default()` for the strictly
/// intraprocedural behavior (every callee unknown).
pub fn analyze_unit_with(ast: &Ast, summaries: &Summaries) -> Vec<Finding> {
    let globals = collect_globals(ast);
    analyze_unit_inner(ast, &globals, summaries)
}

fn analyze_unit_inner(ast: &Ast, globals: &GlobalInfo, summaries: &Summaries) -> Vec<Finding> {
    let mut findings = Vec::new();
    for decl in &ast.unit.decls {
        if let ExternalDecl::Function(f) = decl {
            if f.body.is_some() {
                findings.extend(analyze_function_with(ast, f, globals, summaries));
            }
        }
    }
    findings
}

/// How a local is classified for tracking purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VarKind {
    Scalar,
    Pointer,
    Array(Option<i128>),
    Other,
}

fn var_kind(ast: &Ast, ty: &TySyn) -> VarKind {
    match ty {
        // Only arithmetic types are "scalars" for tracking: aggregates
        // are written member-wise (which the flat map can't see), and
        // typedef names may alias aggregates.
        TySyn::Base { spec, .. } if spec.is_arithmetic() => VarKind::Scalar,
        TySyn::Base { .. } => VarKind::Other,
        TySyn::Pointer { .. } => VarKind::Pointer,
        TySyn::Array { size, .. } => {
            VarKind::Array(size.and_then(|e| syntactic_const(ast, &ast[e])))
        }
        TySyn::Function { .. } => VarKind::Other,
    }
}

/// Per-function facts shared by all passes.
struct FnInfo<'a> {
    /// The unit being analyzed: its arena holds every expression.
    ast: &'a Ast,
    func: &'a str,
    /// Flat name → kind map over locals and parameters. Names declared
    /// more than once (shadowing) are excluded from *all* tracking — the
    /// flow-insensitive map can't tell the scopes apart, and a missed
    /// finding is always preferred over a false one.
    kinds: FxHashMap<Name, VarKind>,
    /// Locals whose address is taken anywhere in the body: writable
    /// through pointers, so never tracked. `&x` arguments to a known
    /// callee whose matching pointer parameter does not escape are
    /// exempt — their pointee effects are modeled at the call site.
    address_taken: FxHashSet<Name>,
    /// Volatile names visible in the body (locals and globals).
    volatile: FxHashSet<Name>,
    /// Array sizes: globals overlaid with locals.
    array_sizes: FxHashMap<Name, i128>,
    /// Callee summary environment (empty = intraprocedural).
    summaries: &'a Summaries,
}

impl<'a> FnInfo<'a> {
    fn trackable(&self, name: &str) -> Option<VarKind> {
        if self.address_taken.contains(name) || self.volatile.contains(name) {
            return None;
        }
        match self.kinds.get(name) {
            Some(k @ (VarKind::Scalar | VarKind::Pointer)) => Some(*k),
            _ => None,
        }
    }

    /// Resolves a call's callee expression to a summarized function: a
    /// plain identifier, not shadowed by any local or parameter, with a
    /// summary in the environment. Anything else is unknown.
    fn callee<'s>(&'s self, callee: impl ExprRef<'a>) -> Option<(&'a str, &'s FnSummary)> {
        let callee = callee.resolve(self.ast);
        if let ExprKind::Ident(name) = &callee.unparenthesized(self.ast).kind {
            if !self.kinds.contains_key(name.as_str()) {
                if let Some(s) = self.summaries.get(name) {
                    return Some((name.as_str(), s.as_ref()));
                }
            }
        }
        None
    }

    fn finding(
        &self,
        analysis: &'static str,
        severity: Severity,
        span: Span,
        msg: String,
    ) -> Finding {
        Finding {
            analysis,
            severity,
            function: self.func.to_owned(),
            span,
            message: msg,
            chain: Vec::new(),
        }
    }
}

/// Builds the CFG and shared per-function facts (name kinds, sanctioned
/// address-taking, volatiles, array sizes). Returns `None` for
/// prototypes.
fn fn_context<'a>(
    ast: &'a Ast,
    fun: &'a FunctionDef,
    globals: &GlobalInfo,
    summaries: &'a Summaries,
) -> Option<(Cfg<'a>, FnInfo<'a>)> {
    let cfg = Cfg::build(ast, fun)?;
    let body = fun.body.as_ref().expect("CFG implies a body");

    // -- prepass: classify every name the body can mention ---------------
    let mut kinds: FxHashMap<Name, VarKind> = FxHashMap::default();
    let mut dupes: FxHashSet<Name> = FxHashSet::default();
    let mut volatile = globals.volatile.clone();
    let mut array_sizes = globals.array_sizes.clone();
    let mut note_decl = |name: &str, ty: &TySyn, vol_extra: bool| {
        if kinds.insert(Name::new(name), var_kind(ast, ty)).is_some() {
            dupes.insert(Name::new(name));
        }
        if vol_extra || ty_is_volatile(ty) {
            volatile.insert(Name::new(name));
        }
        if let VarKind::Array(Some(n)) = var_kind(ast, ty) {
            array_sizes.insert(Name::new(name), n);
        }
    };
    for p in &fun.params {
        if let Some(name) = &p.name {
            note_decl(name, &p.ty, false);
        }
    }
    for_each_decl(body, &mut |v| note_decl(&v.name, &v.ty, false));
    for name in &dupes {
        kinds.remove(name);
    }

    // `&x` passed straight to a known callee whose pointer parameter does
    // not escape is *sanctioned*: the callee's pointee effects are fully
    // modeled at the call site, so taking the address there must not
    // untrack `x`.
    let sanctioned = collect_sanctioned(ast, body, &kinds, summaries);
    let mut address_taken = FxHashSet::default();
    for_each_expr(ast, body, &mut |e| {
        collect_address_taken(ast, e, &sanctioned, &mut address_taken);
    });

    let info = FnInfo {
        ast,
        func: &fun.name,
        kinds,
        address_taken,
        volatile,
        array_sizes,
        summaries,
    };
    Some((cfg, info))
}

/// Spans of `&ident` expressions appearing directly as an argument to a
/// known callee whose matching pointer parameter does not escape.
fn collect_sanctioned(
    ast: &Ast,
    body: &Stmt,
    kinds: &FxHashMap<Name, VarKind>,
    summaries: &Summaries,
) -> Vec<Span> {
    let mut out = Vec::new();
    if summaries.is_empty() {
        return out;
    }
    for_each_expr(ast, body, &mut |e| {
        walk_exprs(ast, e, &mut |sub| {
            let ExprKind::Call { callee, args } = &sub.kind else {
                return;
            };
            let ExprKind::Ident(gname) = &ast[*callee].unparenthesized(ast).kind else {
                return;
            };
            if kinds.contains_key(gname.as_str()) {
                return;
            }
            let Some(g) = summaries.get(gname) else {
                return;
            };
            for (j, a) in args.iter().enumerate() {
                if j >= g.ptr_escapes.len() || g.ptr_escapes[j] {
                    continue;
                }
                let inner = ast[*a].unparenthesized(ast);
                if let ExprKind::Unary {
                    op: UnaryOp::AddrOf,
                    operand,
                } = &inner.kind
                {
                    if matches!(ast[*operand].unparenthesized(ast).kind, ExprKind::Ident(_)) {
                        out.push(inner.span);
                    }
                }
            }
        });
    });
    out
}

/// Runs the full per-function suite against a summary environment.
pub fn analyze_function_with(
    ast: &Ast,
    fun: &FunctionDef,
    globals: &GlobalInfo,
    summaries: &Summaries,
) -> Vec<Finding> {
    let Some((cfg, info)) = fn_context(ast, fun, globals, summaries) else {
        return Vec::new();
    };
    let body = fun.body.as_ref().expect("CFG implies a body");
    let live = compute_live(&cfg, &info);

    let mut findings = Vec::new();
    uninit_flow(
        &cfg,
        &info,
        &live,
        BTreeMap::new(),
        Some(&mut findings),
        None,
    );
    const_flow(&cfg, fun, &info, &live, Some(&mut findings), None);
    unreachable_pass(&cfg, &info, &live, &mut findings);
    infinite_loop_pass(body, &info, &mut findings);
    findings.sort_by_key(|f| (f.span.lo, f.span.hi, f.analysis));
    findings.dedup();
    findings
}

// ======================================================================
// Liveness under no-return calls
// ======================================================================

/// Nodes reachable from entry when nodes that *definitely* evaluate a
/// call to a known no-return callee keep none of their successors. With
/// an empty summary environment this is exactly [`Cfg::reachable`].
fn compute_live(cfg: &Cfg<'_>, info: &FnInfo<'_>) -> Vec<bool> {
    let cut: Vec<bool> = cfg
        .nodes
        .iter()
        .map(|n| match n.action {
            Action::Decl(v) => v
                .init
                .as_ref()
                .is_some_and(|init| init_calls_noreturn(init, info)),
            Action::Eval(e) | Action::Branch(e) => calls_noreturn(e, info),
            Action::Return(Some(e)) => calls_noreturn(e, info),
            _ => false,
        })
        .collect();
    let mut live = vec![false; cfg.nodes.len()];
    let mut stack = vec![cfg.entry];
    live[cfg.entry] = true;
    while let Some(n) = stack.pop() {
        if cut[n] {
            continue;
        }
        for &s in &cfg.nodes[n].succs {
            if !live[s] {
                live[s] = true;
                stack.push(s);
            }
        }
    }
    live
}

/// Whether evaluating `e` *unconditionally* calls a known callee that
/// cannot return. Conditional positions (`?:` arms, short-circuit right
/// sides, `sizeof` operands) are skipped.
fn calls_noreturn<'a>(e: impl ExprRef<'a>, info: &FnInfo<'a>) -> bool {
    let e = e.resolve(info.ast);
    match &e.kind {
        ExprKind::IntLit { .. }
        | ExprKind::FloatLit { .. }
        | ExprKind::CharLit { .. }
        | ExprKind::StrLit { .. }
        | ExprKind::Ident(_)
        | ExprKind::SizeofExpr(_)
        | ExprKind::SizeofType(_) => false,
        ExprKind::Paren(inner) => calls_noreturn(inner, info),
        ExprKind::Unary { op, operand } => match op {
            UnaryOp::AddrOf
                if matches!(
                    info.ast[*operand].unparenthesized(info.ast).kind,
                    ExprKind::Ident(_)
                ) =>
            {
                false
            }
            _ => calls_noreturn(operand, info),
        },
        ExprKind::Binary { op, lhs, rhs } => {
            calls_noreturn(lhs, info) || (!op.is_logical() && calls_noreturn(rhs, info))
        }
        ExprKind::Assign { lhs, rhs, .. } => calls_noreturn(rhs, info) || calls_noreturn(lhs, info),
        ExprKind::Cond { cond, .. } => calls_noreturn(cond, info),
        ExprKind::Call { callee, args } => {
            let callee_eval = match &info.ast[*callee].unparenthesized(info.ast).kind {
                ExprKind::Ident(_) => false,
                _ => calls_noreturn(callee, info),
            };
            callee_eval
                || args.iter().any(|a| calls_noreturn(a, info))
                || info.callee(callee).is_some_and(|(_, g)| !g.may_return)
        }
        ExprKind::Index { base, index } => {
            calls_noreturn(base, info) || calls_noreturn(index, info)
        }
        ExprKind::Member { base, .. } => calls_noreturn(base, info),
        ExprKind::Cast { expr, .. } => calls_noreturn(expr, info),
        ExprKind::CompoundLit { init, .. } => init_calls_noreturn(init, info),
        ExprKind::Comma { lhs, rhs } => calls_noreturn(lhs, info) || calls_noreturn(rhs, info),
    }
}

fn init_calls_noreturn<'a>(init: &Initializer, info: &FnInfo<'a>) -> bool {
    match init {
        Initializer::Expr(e) => calls_noreturn(e, info),
        Initializer::List { items, .. } => items.iter().any(|i| init_calls_noreturn(i, info)),
    }
}

// ======================================================================
// Summary probes
// ======================================================================

/// Facts recorded about a function's *own parameters* while its body is
/// walked with parameters seeded symbolic. Chains are in "this function"
/// coordinates: the first link's span lies in the summarized function.
struct Probe {
    func: String,
    /// Trackable parameter name → position (value demand).
    param_of: FxHashMap<Name, usize>,
    /// Pseudo pointee key (`"*name"`) → position, for non-escaping
    /// pointer parameters.
    pseudo_of: FxHashMap<Name, usize>,
    /// Tracked kind per position (type-guards the UB probes).
    param_kinds: Vec<Option<VarKind>>,
    demands: Vec<Option<Chain>>,
    ptr_reads: Vec<Option<Chain>>,
    div_params: Vec<Option<Chain>>,
    deref_params: Vec<Option<Chain>>,
    idx_params: Vec<Option<(String, i128, Chain)>>,
}

impl Probe {
    fn new<'a>(fun: &FunctionDef, info: &FnInfo<'a>, ptr_escapes: &[bool]) -> Probe {
        let n = fun.params.len();
        let mut p = Probe {
            func: fun.name.to_string(),
            param_of: FxHashMap::default(),
            pseudo_of: FxHashMap::default(),
            param_kinds: vec![None; n],
            demands: vec![None; n],
            ptr_reads: vec![None; n],
            div_params: vec![None; n],
            deref_params: vec![None; n],
            idx_params: vec![None; n],
        };
        for (j, param) in fun.params.iter().enumerate() {
            let Some(name) = &param.name else { continue };
            let Some(kind) = info.trackable(name) else {
                continue;
            };
            p.param_kinds[j] = Some(kind);
            p.param_of.insert(name.clone(), j);
            if kind == VarKind::Pointer && !ptr_escapes[j] {
                p.pseudo_of.insert(format!("*{name}").into(), j);
            }
        }
        p
    }

    fn compose(&self, span: Span, deeper: Option<&Chain>) -> Chain {
        let mut c = vec![ChainLink {
            function: self.func.clone(),
            span,
        }];
        if let Some(d) = deeper {
            c.extend(d.iter().cloned());
        }
        c
    }

    /// Records a definite uninitialized read of a seeded name — a value
    /// demand for parameter names, a pointee read for pseudo keys.
    fn record_read(&mut self, name: &str, span: Span, deeper: Option<&Chain>) {
        if let Some(&j) = self.param_of.get(name) {
            if self.demands[j].is_none() {
                self.demands[j] = Some(self.compose(span, deeper));
            }
        } else if let Some(&j) = self.pseudo_of.get(name) {
            if self.ptr_reads[j].is_none() {
                self.ptr_reads[j] = Some(self.compose(span, deeper));
            }
        }
    }

    fn record_div(&mut self, k: usize, span: Span, deeper: Option<&Chain>) {
        if self.param_kinds.get(k).copied().flatten() == Some(VarKind::Scalar)
            && self.div_params[k].is_none()
        {
            self.div_params[k] = Some(self.compose(span, deeper));
        }
    }

    fn record_deref(&mut self, k: usize, span: Span, deeper: Option<&Chain>) {
        if self.param_kinds.get(k).copied().flatten() == Some(VarKind::Pointer)
            && self.deref_params[k].is_none()
        {
            self.deref_params[k] = Some(self.compose(span, deeper));
        }
    }

    fn record_idx(&mut self, k: usize, arr: &str, size: i128, span: Span, deeper: Option<&Chain>) {
        if self.param_kinds.get(k).copied().flatten() == Some(VarKind::Scalar)
            && self.idx_params[k].is_none()
        {
            self.idx_params[k] = Some((arr.to_owned(), size, self.compose(span, deeper)));
        }
    }
}

// ======================================================================
// Uninitialized-read analysis
// ======================================================================

/// Three-point initialization lattice per variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Uninit,
    Maybe,
    Init,
}

impl Tri {
    fn join(self, other: Tri) -> Tri {
        if self == other {
            self
        } else {
            Tri::Maybe
        }
    }
}

/// Variable → initialization state. `BTreeMap` keeps joins and equality
/// deterministic; a missing key means "untracked" and joins as `Init`.
/// Pseudo keys `"*name"` track the pointee of a non-escaping pointer
/// parameter during summarization.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InitMap(BTreeMap<Name, Tri>);

impl Lattice for InitMap {
    fn join_with(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in &other.0 {
            let joined = match self.0.get(k) {
                Some(cur) => cur.join(*v),
                None => Tri::Init.join(*v),
            };
            if self.0.get(k) != Some(&joined) {
                self.0.insert(k.clone(), joined);
                changed = true;
            }
        }
        let other_map = &other.0;
        for (k, v) in self.0.iter_mut() {
            if !other_map.contains_key(k) {
                let joined = v.join(Tri::Init);
                if *v != joined {
                    *v = joined;
                    changed = true;
                }
            }
        }
        changed
    }
}

struct UninitWalk<'i, 'f> {
    info: &'i FnInfo<'i>,
    st: BTreeMap<Name, Tri>,
    sink: Option<&'f mut Vec<Finding>>,
    probe: Option<&'f mut Probe>,
}

impl<'i> UninitWalk<'i, '_> {
    fn read(&mut self, name: &str, span: Span, guarded: bool) {
        let Some(&tri) = self.st.get(name) else {
            return;
        };
        if tri != Tri::Init {
            if tri == Tri::Uninit && !guarded {
                if let Some(probe) = self.probe.as_deref_mut() {
                    probe.record_read(name, span, None);
                }
            }
            if self.sink.is_some() {
                let f = if tri == Tri::Uninit && !guarded {
                    self.info.finding(
                        "uninit-read",
                        Severity::Ub,
                        span,
                        format!("read of uninitialized variable `{name}`"),
                    )
                } else {
                    self.info.finding(
                        "possible-uninit-read",
                        Severity::Lint,
                        span,
                        format!("variable `{name}` may be read before it is initialized"),
                    )
                };
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.push(f);
                }
            }
            // One report per defect: promote after the first read so a
            // cascade of uses yields a single finding (and the transfer
            // stays monotone — the promoted value is constant `Init`).
            self.st.insert(Name::new(name), Tri::Init);
        }
    }

    fn write(&mut self, name: &str) {
        if self.info.trackable(name).is_some() {
            self.st.insert(Name::new(name), Tri::Init);
        }
    }

    fn decl(&mut self, v: &VarDecl, guarded: bool) {
        if let Some(init) = &v.init {
            self.init_reads(init, guarded);
        }
        if self.info.trackable(&v.name).is_none() {
            self.st.remove(&v.name);
            return;
        }
        let state = if v.init.is_some() || v.storage == Storage::Static {
            Tri::Init
        } else {
            Tri::Uninit
        };
        self.st.insert(v.name.clone(), state);
    }

    fn init_reads(&mut self, init: &Initializer, guarded: bool) {
        match init {
            Initializer::Expr(e) => self.expr(e, guarded),
            Initializer::List { items, .. } => {
                for item in items {
                    self.init_reads(item, guarded);
                }
            }
        }
    }

    /// Reads and writes of one expression, in evaluation order.
    fn expr(&mut self, e: impl ExprRef<'i>, guarded: bool) {
        let e = e.resolve(self.info.ast);
        match &e.kind {
            ExprKind::IntLit { .. }
            | ExprKind::FloatLit { .. }
            | ExprKind::CharLit { .. }
            | ExprKind::StrLit { .. }
            | ExprKind::SizeofExpr(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Ident(name) => self.read(name, e.span, guarded),
            ExprKind::Paren(inner) => self.expr(inner, guarded),
            ExprKind::Unary { op, operand } => match op {
                UnaryOp::AddrOf => {
                    // `&x` doesn't read `x`'s value (and address-taken
                    // names are untracked anyway); `&a[i]` still reads `i`.
                    if !matches!(
                        self.info.ast[*operand].unparenthesized(self.info.ast).kind,
                        ExprKind::Ident(_)
                    ) {
                        self.expr(operand, guarded);
                    }
                }
                UnaryOp::Deref => {
                    self.expr(operand, guarded);
                    self.pointee_read_site(operand, e.span, guarded);
                }
                _ if op.is_inc_dec() => {
                    if let ExprKind::Ident(name) =
                        &self.info.ast[*operand].unparenthesized(self.info.ast).kind
                    {
                        self.read(name, self.info.ast[*operand].span, guarded);
                        self.write(&name.clone());
                    } else {
                        self.expr(operand, guarded);
                    }
                }
                _ => self.expr(operand, guarded),
            },
            ExprKind::Binary { op, lhs, rhs } => {
                self.expr(lhs, guarded);
                // The RHS of `&&`/`||` may never execute: an uninit read
                // there is only *possible*.
                self.expr(rhs, guarded || op.is_logical());
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.expr(rhs, guarded);
                if let ExprKind::Ident(name) =
                    &self.info.ast[*lhs].unparenthesized(self.info.ast).kind
                {
                    let name = name.clone();
                    if op.is_some() {
                        self.read(&name, self.info.ast[*lhs].span, guarded);
                    }
                    self.write(&name);
                } else {
                    self.write_target(lhs, guarded, op.is_some());
                }
            }
            ExprKind::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond, guarded);
                self.expr(then_expr, true);
                self.expr(else_expr, true);
            }
            ExprKind::Call { callee, args } => {
                // A plain-identifier callee is a function designator, not
                // a variable read — unless it names a tracked local
                // (a function pointer).
                match &self.info.ast[*callee].unparenthesized(self.info.ast).kind {
                    ExprKind::Ident(name) if !self.info.kinds.contains_key(name) => {}
                    _ => self.expr(callee, guarded),
                }
                let info = self.info;
                let known = info.callee(callee);
                for (j, a) in args.iter().enumerate() {
                    if let Some((gname, g)) = known {
                        if j < g.params.len() && self.call_arg(gname, g, j, a, guarded) {
                            continue;
                        }
                    }
                    self.expr(a, guarded);
                }
            }
            ExprKind::Index { base, index } => {
                self.expr(index, guarded);
                self.base_read(base, guarded);
                self.pointee_read_site(base, e.span, guarded);
            }
            ExprKind::Member { base, arrow, .. } => {
                if *arrow {
                    self.expr(base, guarded);
                } else {
                    self.base_read(base, guarded);
                }
            }
            ExprKind::Cast { expr, .. } => self.expr(expr, guarded),
            ExprKind::CompoundLit { init, .. } => self.init_reads(init, guarded),
            ExprKind::Comma { lhs, rhs } => {
                self.expr(lhs, guarded);
                self.expr(rhs, guarded);
            }
        }
    }

    /// Call-site transfer for one argument of a known callee, consuming
    /// the callee's summary. Returns `true` when the argument is fully
    /// handled (the default evaluation walk must not run).
    fn call_arg(
        &mut self,
        gname: &str,
        g: &FnSummary,
        j: usize,
        a: impl ExprRef<'i>,
        guarded: bool,
    ) -> bool {
        let a = a.resolve(self.info.ast);
        let inner = a.unparenthesized(self.info.ast);
        match &inner.kind {
            // `&x` out-argument to a non-escaping pointer parameter:
            // model the callee's pointee read/write against `x` itself.
            ExprKind::Unary {
                op: UnaryOp::AddrOf,
                operand,
            } => {
                if let ExprKind::Ident(x) =
                    &self.info.ast[*operand].unparenthesized(self.info.ast).kind
                {
                    if !g.ptr_escapes[j] && self.info.trackable(x).is_some() {
                        let x = x.clone();
                        if let Some(chain) = &g.ptr_reads[j] {
                            self.pointee_read_via(gname, &x, inner.span, chain, guarded);
                        }
                        if g.ptr_writes[j] {
                            self.st.insert(x, Tri::Init);
                        } else if let Some(&t) = self.st.get(&x) {
                            // Maybe-written by the callee.
                            self.st.insert(x, t.join(Tri::Init));
                        }
                        return true;
                    }
                }
                false
            }
            ExprKind::Ident(x) => {
                // By-value demand: the read happens here (argument
                // evaluation), but a known callee read lets the finding
                // carry a chain to where the value is actually used.
                if !guarded && self.st.get(x.as_str()) == Some(&Tri::Uninit) {
                    if let Some(chain) = &g.demands[j] {
                        let x = x.clone();
                        if let Some(probe) = self.probe.as_deref_mut() {
                            probe.record_read(&x, inner.span, Some(chain));
                        }
                        if self.sink.is_some() {
                            let mut f = self.info.finding(
                                "uninit-read",
                                Severity::Ub,
                                inner.span,
                                format!("read of uninitialized variable `{x}`"),
                            );
                            f.chain = chain.clone();
                            if let Some(sink) = self.sink.as_deref_mut() {
                                sink.push(f);
                            }
                        }
                        self.st.insert(x, Tri::Init);
                    }
                }
                // Straight-through pointer parameter (summarization
                // only: pseudo keys exist only with a seeded entry).
                let pseudo = format!("*{x}");
                if self.st.contains_key(pseudo.as_str()) && !g.ptr_escapes[j] {
                    if let Some(chain) = &g.ptr_reads[j] {
                        if self.st.get(pseudo.as_str()) == Some(&Tri::Uninit) && !guarded {
                            if let Some(probe) = self.probe.as_deref_mut() {
                                probe.record_read(&pseudo, inner.span, Some(chain));
                            }
                        }
                        self.st.insert(pseudo.as_str().into(), Tri::Init);
                    }
                    if g.ptr_writes[j] {
                        self.st.insert(pseudo.into(), Tri::Init);
                    } else if let Some(&t) = self.st.get(pseudo.as_str()) {
                        self.st.insert(pseudo.into(), t.join(Tri::Init));
                    }
                }
                // The default walk still evaluates (reads) `x` itself.
                false
            }
            _ => false,
        }
    }

    /// A read of `x`'s storage performed *inside* callee `gname` through
    /// a sanctioned `&x` argument. Mirrors [`Self::read`], with a
    /// chain-carrying message naming the callee.
    fn pointee_read_via(&mut self, gname: &str, x: &str, span: Span, chain: &Chain, guarded: bool) {
        let Some(&tri) = self.st.get(x) else {
            return;
        };
        if tri == Tri::Init {
            return;
        }
        if tri == Tri::Uninit && !guarded {
            if let Some(probe) = self.probe.as_deref_mut() {
                probe.record_read(x, span, Some(chain));
            }
        }
        if self.sink.is_some() {
            let mut f = if tri == Tri::Uninit && !guarded {
                self.info.finding(
                    "uninit-read",
                    Severity::Ub,
                    span,
                    format!("`{x}` is read by `{gname}` before it is initialized"),
                )
            } else {
                self.info.finding(
                    "possible-uninit-read",
                    Severity::Lint,
                    span,
                    format!("`{x}` may be read by `{gname}` before it is initialized"),
                )
            };
            f.chain = chain.clone();
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.push(f);
            }
        }
        self.st.insert(Name::new(x), Tri::Init);
    }

    /// A read through `*p` / `p[i]` of the pseudo pointee key, active
    /// only while summarizing (pseudo keys never enter a caller's map).
    fn pointee_read_site(&mut self, ptr: impl ExprRef<'i>, span: Span, guarded: bool) {
        let ptr = ptr.resolve(self.info.ast);
        if let ExprKind::Ident(p) = &ptr.unparenthesized(self.info.ast).kind {
            let pseudo = format!("*{p}");
            if self.st.contains_key(pseudo.as_str()) {
                self.read(&pseudo, span, guarded);
            }
        }
    }

    /// A write through `*p` / `p[i]` of the pseudo pointee key; compound
    /// assignments read first.
    fn pointee_write_site(
        &mut self,
        ptr: impl ExprRef<'i>,
        span: Span,
        guarded: bool,
        compound: bool,
    ) {
        let ptr = ptr.resolve(self.info.ast);
        if let ExprKind::Ident(p) = &ptr.unparenthesized(self.info.ast).kind {
            let pseudo = format!("*{p}");
            if self.st.contains_key(pseudo.as_str()) {
                if compound {
                    self.read(&pseudo, span, guarded);
                }
                self.st.insert(pseudo.into(), Tri::Init);
            }
        }
    }

    /// A base expression in a place where an *array* designator would not
    /// be a value read (`a[i]`, `s.f`) but a pointer or anything more
    /// complex still is.
    fn base_read(&mut self, base: impl ExprRef<'i>, guarded: bool) {
        let base = base.resolve(self.info.ast);
        match &base.unparenthesized(self.info.ast).kind {
            ExprKind::Ident(name) => {
                if matches!(self.info.kinds.get(name), Some(VarKind::Pointer)) {
                    self.read(&name.clone(), base.span, guarded);
                }
            }
            _ => self.expr(base, guarded),
        }
    }

    /// Evaluation effects of a non-identifier assignment target: the
    /// stored-to location isn't read, but every address computation is.
    fn write_target(&mut self, lhs: impl ExprRef<'i>, guarded: bool, compound: bool) {
        let lhs = lhs.resolve(self.info.ast);
        match &lhs.unparenthesized(self.info.ast).kind {
            ExprKind::Ident(_) => {}
            ExprKind::Index { base, index } => {
                self.expr(index, guarded);
                self.base_read(base, guarded);
                self.pointee_write_site(base, lhs.span, guarded, compound);
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
            } => {
                self.expr(operand, guarded);
                self.pointee_write_site(operand, lhs.span, guarded, compound);
            }
            ExprKind::Member { base, arrow, .. } => {
                if *arrow {
                    self.expr(base, guarded);
                } else {
                    self.write_target(base, guarded, compound);
                }
            }
            _ => self.expr(lhs, guarded),
        }
    }
}

/// Runs the uninitialized-read dataflow with a chosen entry state.
/// Returns the exit node's in-state (the summarization caller inspects
/// pseudo keys to derive definite-write facts); `None` when the exit is
/// unreachable.
fn uninit_flow(
    cfg: &Cfg<'_>,
    info: &FnInfo<'_>,
    live: &[bool],
    entry: BTreeMap<Name, Tri>,
    mut findings: Option<&mut Vec<Finding>>,
    mut probe: Option<&mut Probe>,
) -> Option<BTreeMap<Name, Tri>> {
    let apply = |node: usize,
                 st: &InitMap,
                 sink: Option<&mut Vec<Finding>>,
                 probe: Option<&mut Probe>|
     -> InitMap {
        let mut w = UninitWalk {
            info,
            st: st.0.clone(),
            sink,
            probe,
        };
        match cfg.nodes[node].action {
            Action::Decl(v) => w.decl(v, false),
            Action::Eval(e) | Action::Branch(e) => w.expr(e, false),
            Action::Return(Some(e)) => w.expr(e, false),
            _ => {}
        }
        InitMap(w.st)
    };
    let in_states = forward(cfg, InitMap(entry), |node, st| apply(node, st, None, None));
    for (node, st) in in_states.iter().enumerate() {
        if !live[node] {
            continue;
        }
        if let Some(st) = st {
            apply(node, st, findings.as_deref_mut(), probe.as_deref_mut());
        }
    }
    in_states.into_iter().nth(cfg.exit).flatten().map(|m| m.0)
}

// ======================================================================
// Constant-propagation checks: div/mod by zero, OOB indexing, null deref
// ======================================================================

/// A tracked value: a known constant (pointers use `0` for null) or the
/// still-unmodified value of the enclosing function's parameter `k`.
/// Symbolic parameter values never fire findings — they fire *probes*,
/// which become findings in callers that pin the argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CVal {
    Const(i128),
    Param(usize),
}

/// Variable → known value. Join is set intersection with value
/// agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ConstMap(BTreeMap<Name, CVal>);

impl Lattice for ConstMap {
    fn join_with(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.retain(|k, v| other.0.get(k) == Some(v));
        before != self.0.len()
    }
}

struct ConstWalk<'i, 'f> {
    info: &'i FnInfo<'i>,
    st: BTreeMap<Name, CVal>,
    sink: Option<&'f mut Vec<Finding>>,
    probe: Option<&'f mut Probe>,
}

impl<'i> ConstWalk<'i, '_> {
    fn eval(&self, e: impl ExprRef<'i>) -> Option<CVal> {
        let e = e.resolve(self.info.ast);
        match &e.kind {
            ExprKind::IntLit { value, .. } => Some(CVal::Const(*value)),
            ExprKind::CharLit { value } => Some(CVal::Const(*value as i128)),
            ExprKind::Ident(name) => self.st.get(name).copied(),
            ExprKind::Paren(inner) => self.eval(inner),
            ExprKind::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match (op, v) {
                    (UnaryOp::Plus, v) => Some(v),
                    (UnaryOp::Minus, CVal::Const(v)) => v.checked_neg().map(CVal::Const),
                    (UnaryOp::Not, CVal::Const(v)) => Some(CVal::Const((v == 0) as i128)),
                    (UnaryOp::BitNot, CVal::Const(v)) => Some(CVal::Const(!v)),
                    _ => None,
                }
            }
            ExprKind::Binary { op, lhs, rhs } => match (self.eval(lhs)?, self.eval(rhs)?) {
                (CVal::Const(l), CVal::Const(r)) => {
                    crate::cfg::eval_binary(*op, l, r).map(CVal::Const)
                }
                _ => None,
            },
            ExprKind::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                let CVal::Const(c) = self.eval(cond)? else {
                    return None;
                };
                if c != 0 {
                    self.eval(then_expr)
                } else {
                    self.eval(else_expr)
                }
            }
            // A known callee's constant or pass-through return folds.
            // Safe to evaluate without walking: tracked variables cannot
            // be mutated by a call (sanctioned `&x` out-args are killed
            // by the call's own transfer before later facts are used).
            ExprKind::Call { callee, args } => {
                let (_, g) = self.info.callee(callee)?;
                if let Some(c) = g.returns_const {
                    Some(CVal::Const(c))
                } else if let Some(i) = g.returns_param {
                    args.get(i).and_then(|a| self.eval(a))
                } else {
                    None
                }
            }
            // Casts may narrow and sizeof is platform-shaped: modeling
            // either risks a false positive, so neither folds.
            _ => None,
        }
    }

    fn emit(&mut self, analysis: &'static str, span: Span, msg: String, chain: Chain) {
        if self.sink.is_some() {
            let mut f = self.info.finding(analysis, Severity::Ub, span, msg);
            f.chain = chain;
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.push(f);
            }
        }
    }

    fn set(&mut self, name: &str, val: Option<CVal>) {
        if self.info.trackable(name).is_none() {
            return;
        }
        match val {
            Some(v) => {
                self.st.insert(Name::new(name), v);
            }
            None => {
                self.st.remove(name);
            }
        }
    }

    fn decl(&mut self, v: &VarDecl) {
        match &v.init {
            Some(Initializer::Expr(e)) => {
                self.expr(e, false);
                let val = self.eval(e);
                self.set(&v.name, val);
            }
            Some(Initializer::List { items, .. }) => {
                for item in items {
                    self.init_effects(item);
                }
                self.set(&v.name, None);
            }
            None => {
                // Statics are zero-initialized; automatics are unknown.
                let val = (v.storage == Storage::Static).then_some(CVal::Const(0));
                self.set(&v.name, val);
            }
        }
    }

    fn init_effects(&mut self, init: &Initializer) {
        match init {
            Initializer::Expr(e) => self.expr(e, false),
            Initializer::List { items, .. } => {
                for i in items {
                    self.init_effects(i);
                }
            }
        }
    }

    fn div_check(&mut self, op: BinaryOp, rhs: impl ExprRef<'i>, span: Span, guarded: bool) {
        let rhs = rhs.resolve(self.info.ast);
        if guarded {
            return;
        }
        match self.eval(rhs) {
            Some(CVal::Const(0)) => {
                let what = if op == BinaryOp::Div {
                    "division"
                } else {
                    "modulo"
                };
                self.emit(
                    "div-by-zero",
                    span,
                    format!("{what} by zero: the divisor is always 0"),
                    Vec::new(),
                );
            }
            Some(CVal::Param(k)) => {
                if let Some(probe) = self.probe.as_deref_mut() {
                    probe.record_div(k, span, None);
                }
            }
            _ => {}
        }
    }

    /// Checks and effects of one expression, in evaluation order. In
    /// `guarded` position (a `?:` arm, a short-circuit RHS) the walk
    /// still applies writes but reports nothing: whether the arm executes
    /// is exactly what the guard decides, and the lattice carries no
    /// relational facts to decide it with.
    fn expr(&mut self, e: impl ExprRef<'i>, guarded: bool) {
        let e = e.resolve(self.info.ast);
        match &e.kind {
            ExprKind::IntLit { .. }
            | ExprKind::FloatLit { .. }
            | ExprKind::CharLit { .. }
            | ExprKind::StrLit { .. }
            | ExprKind::SizeofExpr(_)
            | ExprKind::SizeofType(_)
            | ExprKind::Ident(_) => {}
            ExprKind::Paren(inner) => self.expr(inner, guarded),
            ExprKind::Unary { op, operand } => match op {
                UnaryOp::Deref => {
                    self.expr(operand, guarded);
                    self.null_check(operand, e.span, guarded);
                }
                UnaryOp::AddrOf => {
                    if !matches!(
                        self.info.ast[*operand].unparenthesized(self.info.ast).kind,
                        ExprKind::Ident(_)
                    ) {
                        self.expr(operand, guarded);
                    }
                }
                _ if op.is_inc_dec() => {
                    if let ExprKind::Ident(name) =
                        &self.info.ast[*operand].unparenthesized(self.info.ast).kind
                    {
                        let name = name.clone();
                        let delta = if matches!(op, UnaryOp::PreInc | UnaryOp::PostInc) {
                            1
                        } else {
                            -1
                        };
                        let val = match self.st.get(&name) {
                            Some(CVal::Const(v)) => v.checked_add(delta).map(CVal::Const),
                            _ => None,
                        };
                        self.set(&name, val);
                    } else {
                        self.expr(operand, guarded);
                    }
                }
                _ => self.expr(operand, guarded),
            },
            ExprKind::Binary { op, lhs, rhs } => {
                self.expr(lhs, guarded);
                if op.is_logical() {
                    // Vars tested by the LHS may be refined inside the
                    // RHS (`p && *p`): drop them before walking it.
                    let saved = self.kill_mentioned(lhs);
                    self.expr(rhs, true);
                    self.restore(saved);
                } else {
                    self.expr(rhs, guarded);
                    if matches!(op, BinaryOp::Div | BinaryOp::Rem) {
                        self.div_check(*op, rhs, e.span, guarded);
                    }
                }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.expr(rhs, guarded);
                if let ExprKind::Ident(name) =
                    &self.info.ast[*lhs].unparenthesized(self.info.ast).kind
                {
                    let name = name.clone();
                    let val = match op {
                        None => self.eval(rhs),
                        Some(bop) => {
                            if matches!(bop, BinaryOp::Div | BinaryOp::Rem) {
                                self.div_check(*bop, rhs, e.span, guarded);
                            }
                            match (self.st.get(&name).copied(), self.eval(rhs)) {
                                (Some(CVal::Const(l)), Some(CVal::Const(r))) => {
                                    crate::cfg::eval_binary(*bop, l, r).map(CVal::Const)
                                }
                                _ => None,
                            }
                        }
                    };
                    self.set(&name, val);
                } else {
                    self.write_target(lhs, guarded);
                }
            }
            ExprKind::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond, guarded);
                let saved = self.kill_mentioned(cond);
                self.expr(then_expr, true);
                self.expr(else_expr, true);
                self.restore(saved);
            }
            ExprKind::Call { callee, args } => {
                match &self.info.ast[*callee].unparenthesized(self.info.ast).kind {
                    ExprKind::Ident(_) => {}
                    _ => self.expr(callee, guarded),
                }
                let info = self.info;
                let known = info.callee(callee);
                for (j, a) in args.iter().enumerate() {
                    self.expr(a, guarded);
                    if let Some((gname, g)) = known {
                        if j < g.params.len() {
                            self.call_arg_checks(gname, g, j, a, e.span, guarded);
                        }
                    }
                }
                if let Some((_, g)) = known {
                    // A non-escaping `&x` out-arg may be written through:
                    // the callee can change `x`, so constant facts die.
                    for (j, a) in args.iter().enumerate() {
                        if j >= g.ptr_escapes.len() || g.ptr_escapes[j] {
                            continue;
                        }
                        if let ExprKind::Unary {
                            op: UnaryOp::AddrOf,
                            operand,
                        } = &self.info.ast[*a].unparenthesized(self.info.ast).kind
                        {
                            if let ExprKind::Ident(x) =
                                &self.info.ast[*operand].unparenthesized(self.info.ast).kind
                            {
                                self.st.remove(x.as_str());
                            }
                        }
                    }
                }
            }
            ExprKind::Index { base, index } => {
                self.expr(index, guarded);
                self.expr_base(base, guarded);
                self.index_check(base, index, e.span, guarded);
            }
            ExprKind::Member { base, arrow, .. } => {
                if *arrow {
                    self.expr(base, guarded);
                    self.null_check(base, e.span, guarded);
                } else {
                    self.expr_base(base, guarded);
                }
            }
            ExprKind::Cast { expr, .. } => self.expr(expr, guarded),
            ExprKind::CompoundLit { init, .. } => self.init_effects(init),
            ExprKind::Comma { lhs, rhs } => {
                self.expr(lhs, guarded);
                self.expr(rhs, guarded);
            }
        }
    }

    /// Consumes a known callee's conditional-UB probes against one
    /// argument: a pinned bad constant fires a finding at the call site
    /// (with the callee's chain); a still-symbolic own parameter
    /// propagates the probe outward with this call prepended.
    fn call_arg_checks(
        &mut self,
        gname: &str,
        g: &FnSummary,
        j: usize,
        a: impl ExprRef<'i>,
        call_span: Span,
        guarded: bool,
    ) {
        let a = a.resolve(self.info.ast);
        if guarded {
            return;
        }
        let v = self.eval(a);
        let n = j + 1;
        if let Some(chain) = &g.div_params[j] {
            match v {
                Some(CVal::Const(0)) => {
                    self.emit(
                        "div-by-zero",
                        call_span,
                        format!("call to `{gname}` divides by argument {n}, which is always 0"),
                        chain.clone(),
                    );
                }
                Some(CVal::Param(k)) => {
                    if let Some(probe) = self.probe.as_deref_mut() {
                        probe.record_div(k, call_span, Some(chain));
                    }
                }
                _ => {}
            }
        }
        if let Some(chain) = &g.deref_params[j] {
            match v {
                Some(CVal::Const(0)) => {
                    self.emit(
                        "null-deref",
                        call_span,
                        format!(
                            "call to `{gname}` dereferences argument {n}, which is always null"
                        ),
                        chain.clone(),
                    );
                }
                Some(CVal::Param(k)) => {
                    if let Some(probe) = self.probe.as_deref_mut() {
                        probe.record_deref(k, call_span, Some(chain));
                    }
                }
                _ => {}
            }
        }
        if let Some((arr, size, chain)) = &g.idx_params[j] {
            match v {
                Some(CVal::Const(i)) if i < 0 || i >= *size => {
                    self.emit(
                        "oob-index",
                        call_span,
                        format!(
                            "call to `{gname}` indexes array `{arr}` of {size} elements with \
                             {i} (argument {n})"
                        ),
                        chain.clone(),
                    );
                }
                Some(CVal::Param(k)) => {
                    if let Some(probe) = self.probe.as_deref_mut() {
                        probe.record_idx(k, arr, *size, call_span, Some(chain));
                    }
                }
                _ => {}
            }
        }
    }

    fn expr_base(&mut self, base: impl ExprRef<'i>, guarded: bool) {
        let base = base.resolve(self.info.ast);
        if !matches!(base.unparenthesized(self.info.ast).kind, ExprKind::Ident(_)) {
            self.expr(base, guarded);
        }
    }

    fn null_check(&mut self, pointer: impl ExprRef<'i>, span: Span, guarded: bool) {
        let pointer = pointer.resolve(self.info.ast);
        if guarded {
            return;
        }
        let inner = pointer.unparenthesized(self.info.ast);
        match &inner.kind {
            ExprKind::Ident(name) => {
                if matches!(self.info.kinds.get(name), Some(VarKind::Pointer)) {
                    match self.st.get(name) {
                        Some(CVal::Const(0)) => {
                            let name = name.clone();
                            self.emit(
                                "null-deref",
                                span,
                                format!("dereference of null pointer `{name}`"),
                                Vec::new(),
                            );
                        }
                        Some(&CVal::Param(k)) => {
                            if let Some(probe) = self.probe.as_deref_mut() {
                                probe.record_deref(k, span, None);
                            }
                        }
                        _ => {}
                    }
                }
            }
            // `*f()` where the callee provably returns a null pointer.
            ExprKind::Call { callee, .. } => {
                let info = self.info;
                let Some((gname, g)) = info.callee(callee) else {
                    return;
                };
                if !g.ret_is_pointer {
                    return;
                }
                match self.eval(inner) {
                    Some(CVal::Const(0)) => {
                        let gname = gname.to_owned();
                        self.emit(
                            "null-deref",
                            span,
                            format!("dereference of null pointer returned by `{gname}`"),
                            Vec::new(),
                        );
                    }
                    Some(CVal::Param(k)) => {
                        if let Some(probe) = self.probe.as_deref_mut() {
                            probe.record_deref(k, span, None);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn index_check(
        &mut self,
        base: impl ExprRef<'i>,
        index: impl ExprRef<'i>,
        span: Span,
        guarded: bool,
    ) {
        let base = base.resolve(self.info.ast);

        let index = index.resolve(self.info.ast);
        if guarded {
            return;
        }
        let ExprKind::Ident(name) = &base.unparenthesized(self.info.ast).kind else {
            return;
        };
        if matches!(self.info.kinds.get(name), Some(VarKind::Pointer)) {
            self.null_check(base, span, guarded);
            return;
        }
        let Some(&size) = self.info.array_sizes.get(name) else {
            return;
        };
        match self.eval(index) {
            Some(CVal::Const(i)) if i < 0 || i >= size => {
                let name = name.clone();
                self.emit(
                    "oob-index",
                    span,
                    format!("index {i} is out of bounds for array `{name}` of {size} elements"),
                    Vec::new(),
                );
            }
            Some(CVal::Param(k)) => {
                let name = name.clone();
                if let Some(probe) = self.probe.as_deref_mut() {
                    probe.record_idx(k, &name, size, span, None);
                }
            }
            _ => {}
        }
    }

    fn write_target(&mut self, lhs: impl ExprRef<'i>, guarded: bool) {
        let lhs = lhs.resolve(self.info.ast);
        match &lhs.unparenthesized(self.info.ast).kind {
            ExprKind::Ident(_) => {}
            ExprKind::Index { base, index } => {
                self.expr(index, guarded);
                self.expr_base(base, guarded);
                self.index_check(base, index, lhs.span, guarded);
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
            } => {
                self.expr(operand, guarded);
                self.null_check(operand, lhs.span, guarded);
            }
            ExprKind::Member { base, arrow, .. } => {
                if *arrow {
                    self.expr(base, guarded);
                    self.null_check(base, lhs.span, guarded);
                } else {
                    self.write_target(base, guarded);
                }
            }
            _ => self.expr(lhs, guarded),
        }
    }

    /// Drops every tracked variable mentioned in `e` from the state,
    /// returning the removed entries for [`Self::restore`].
    fn kill_mentioned(&mut self, e: impl ExprRef<'i>) -> Vec<(Name, CVal)> {
        let e = e.resolve(self.info.ast);
        let mut names = FxHashSet::default();
        collect_idents(self.info.ast, e, &mut names);
        let mut saved = Vec::new();
        for n in names {
            if let Some(v) = self.st.remove(&n) {
                saved.push((n, v));
            }
        }
        saved
    }

    fn restore(&mut self, saved: Vec<(Name, CVal)>) {
        for (n, v) in saved {
            // Writes inside the guarded region win over the saved value.
            self.st.entry(n).or_insert(v);
        }
    }
}

/// Entry state for the constant pass: every trackable parameter starts
/// as its own symbolic [`CVal::Param`]. Symbolic values never fire
/// findings directly, so the seeding is invisible intraprocedurally —
/// it exists to detect parameter flow into UB sites (probes) and
/// pass-through returns.
fn const_entry<'a>(fun: &FunctionDef, info: &FnInfo<'a>) -> BTreeMap<Name, CVal> {
    let mut entry = BTreeMap::new();
    for (j, p) in fun.params.iter().enumerate() {
        if let Some(name) = &p.name {
            if info.trackable(name).is_some() {
                entry.insert(name.clone(), CVal::Param(j));
            }
        }
    }
    entry
}

/// Runs the constant dataflow; returns the per-node in-states (the
/// summarization caller evaluates live `return` expressions against
/// them).
fn const_flow<'a>(
    cfg: &Cfg<'_>,
    fun: &FunctionDef,
    info: &FnInfo<'a>,
    live: &[bool],
    mut findings: Option<&mut Vec<Finding>>,
    mut probe: Option<&mut Probe>,
) -> Vec<Option<ConstMap>> {
    let apply = |node: usize,
                 st: &ConstMap,
                 sink: Option<&mut Vec<Finding>>,
                 probe: Option<&mut Probe>|
     -> ConstMap {
        let mut w = ConstWalk {
            info,
            st: st.0.clone(),
            sink,
            probe,
        };
        match cfg.nodes[node].action {
            Action::Decl(v) => w.decl(v),
            Action::Eval(e) => w.expr(e, false),
            Action::Branch(e) => {
                w.expr(e, false);
                // Path-insensitive refinement: a branch *distinguishes*
                // the values it tests, so constancy of any mentioned
                // variable no longer holds uniformly on the out-edges.
                // Dropping them trades recall for zero guarded false
                // positives (`if (x != 0) y = 5 / x;`).
                let _ = w.kill_mentioned(e);
            }
            Action::Return(Some(e)) => w.expr(e, false),
            _ => {}
        }
        ConstMap(w.st)
    };
    let in_states = forward(cfg, ConstMap(const_entry(fun, info)), |node, st| {
        apply(node, st, None, None)
    });
    for (node, st) in in_states.iter().enumerate() {
        if !live[node] {
            continue;
        }
        if let Some(st) = st {
            apply(node, st, findings.as_deref_mut(), probe.as_deref_mut());
        }
    }
    in_states
}

// ======================================================================
// Unreachable code
// ======================================================================

fn unreachable_pass(cfg: &Cfg<'_>, info: &FnInfo<'_>, live: &[bool], findings: &mut Vec<Finding>) {
    let mut dead: Vec<Span> = cfg
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, n)| !live[*i] && n.action.is_source())
        .map(|(_, n)| n.span)
        .collect();
    if dead.is_empty() {
        return;
    }
    dead.sort_by_key(|s| (s.lo, s.hi));
    let count = dead.len();
    let plural = if count == 1 { "" } else { "s" };
    findings.push(info.finding(
        "unreachable-code",
        Severity::Lint,
        dead[0],
        format!("unreachable code: {count} statement{plural} can never execute"),
    ));
}

// ======================================================================
// Infinite loops without side effects
// ======================================================================

fn infinite_loop_pass<'a>(body: &Stmt, info: &FnInfo<'a>, findings: &mut Vec<Finding>) {
    walk_stmts(body, &mut |s| {
        let (cond, loop_body) = match &s.kind {
            StmtKind::While { cond, body } => (Some(cond), body),
            StmtKind::DoWhile { body, cond } => (Some(cond), body),
            StmtKind::For { cond, body, .. } => (cond.as_ref(), body),
            _ => return,
        };
        let const_true = match cond {
            None => true,
            Some(c) => matches!(syntactic_const(info.ast, &info.ast[*c]), Some(v) if v != 0),
        };
        if const_true && !makes_progress(loop_body, info, true) {
            findings.push(
                info.finding(
                    "infinite-loop",
                    Severity::Ub,
                    s.span,
                    "infinite loop with a constant-true condition and no observable side effects"
                        .to_owned(),
                ),
            );
        }
    });
}

/// Whether executing `s` could let a constant-true loop terminate or be
/// observed: a call (to an unknown, observable, or no-return callee — a
/// summarized pure callee that returns is **not** progress), a volatile
/// access, a `return`, a `goto`, or — when `breakable` (not inside a
/// nested loop or switch) — a `break`.
fn makes_progress<'a>(s: &Stmt, info: &FnInfo<'a>, breakable: bool) -> bool {
    let expr_has_progress = |e: &Expr| -> bool {
        let mut found = false;
        walk_exprs(info.ast, e, &mut |sub| match &sub.kind {
            ExprKind::Call { callee, .. } => match info.callee(callee) {
                Some((_, g)) => {
                    if g.observable || !g.may_return {
                        found = true;
                    }
                }
                None => found = true,
            },
            ExprKind::Ident(name) if info.volatile.contains(name) => found = true,
            _ => {}
        });
        found
    };
    let init_has_progress = |init: &Initializer| -> bool {
        let mut stack = vec![init];
        while let Some(i) = stack.pop() {
            match i {
                Initializer::Expr(e) => {
                    if expr_has_progress(&info.ast[*e]) {
                        return true;
                    }
                }
                Initializer::List { items, .. } => stack.extend(items.iter()),
            }
        }
        false
    };
    match &s.kind {
        StmtKind::Compound(items) => items.iter().any(|item| match item {
            BlockItem::Decl(group) => group
                .vars
                .iter()
                .any(|v| v.init.as_ref().is_some_and(init_has_progress)),
            BlockItem::Stmt(st) => makes_progress(st, info, breakable),
        }),
        StmtKind::Expr(e) => expr_has_progress(&info.ast[*e]),
        StmtKind::Null => false,
        StmtKind::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            expr_has_progress(&info.ast[*cond])
                || makes_progress(then_stmt, info, breakable)
                || else_stmt
                    .as_ref()
                    .is_some_and(|e| makes_progress(e, info, breakable))
        }
        StmtKind::While { cond, body } => {
            expr_has_progress(&info.ast[*cond]) || makes_progress(body, info, false)
        }
        StmtKind::DoWhile { body, cond } => {
            expr_has_progress(&info.ast[*cond]) || makes_progress(body, info, false)
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            init.as_ref().is_some_and(|i| match i.as_ref() {
                ForInit::Decl(group) => group
                    .vars
                    .iter()
                    .any(|v| v.init.as_ref().is_some_and(init_has_progress)),
                ForInit::Expr(e) => expr_has_progress(&info.ast[*e]),
            }) || cond
                .as_ref()
                .is_some_and(|&c| expr_has_progress(&info.ast[c]))
                || step
                    .as_ref()
                    .is_some_and(|&c| expr_has_progress(&info.ast[c]))
                || makes_progress(body, info, false)
        }
        StmtKind::Switch { cond, body } => {
            expr_has_progress(&info.ast[*cond]) || makes_progress(body, info, false)
        }
        StmtKind::Case { stmt, .. } | StmtKind::Default { stmt } | StmtKind::Label { stmt, .. } => {
            makes_progress(stmt, info, breakable)
        }
        // A goto can leave the loop; resolving whether its target is
        // inside would need label analysis, so assume it escapes.
        StmtKind::Goto { .. } => true,
        StmtKind::Break => breakable,
        StmtKind::Continue => false,
        StmtKind::Return(_) => true,
    }
}

// ======================================================================
// Summarization
// ======================================================================

/// Summarizes one function definition against an environment of
/// already-summarized callees. Functions without a body (or that fail
/// CFG construction) get the fully conservative summary.
pub(crate) fn summarize_function(
    ast: &Ast,
    fun: &FunctionDef,
    globals: &GlobalInfo,
    env: &Summaries,
) -> FnSummary {
    let n = fun.params.len();
    let mut s = FnSummary {
        params: fun
            .params
            .iter()
            .map(|p| p.name.as_deref().map(String::from))
            .collect(),
        demands: vec![None; n],
        ptr_reads: vec![None; n],
        ptr_writes: vec![false; n],
        ptr_escapes: vec![true; n],
        div_params: vec![None; n],
        deref_params: vec![None; n],
        idx_params: vec![None; n],
        returns_const: None,
        returns_param: None,
        ret_is_pointer: fun.ret_ty.is_pointer(),
        observable: true,
        may_return: true,
    };
    let Some((cfg, info)) = fn_context(ast, fun, globals, env) else {
        return s;
    };
    let body = fun.body.as_ref().expect("CFG implies a body");

    // Escape analysis: a pointer parameter keeps pointee facts only when
    // every occurrence of its name is a sanctioned pointee access.
    for (j, p) in fun.params.iter().enumerate() {
        if let Some(name) = &p.name {
            if info.trackable(name) == Some(VarKind::Pointer) {
                s.ptr_escapes[j] = param_escapes(body, name, &info);
            }
        }
    }

    let live = compute_live(&cfg, &info);
    s.may_return = live[cfg.exit];
    s.observable = is_observable(body, &info);

    let mut probe = Probe::new(fun, &info, &s.ptr_escapes);

    // Demand pass: parameters (and pointee pseudo keys) seeded Uninit.
    let mut entry = BTreeMap::new();
    for name in probe.param_of.keys().chain(probe.pseudo_of.keys()) {
        entry.insert(name.clone(), Tri::Uninit);
    }
    let exit_state = uninit_flow(&cfg, &info, &live, entry, None, Some(&mut probe));
    if let Some(exit_state) = exit_state {
        for (pseudo, &j) in &probe.pseudo_of {
            // `Init` at exit means every path that *returns* initialized
            // (or already consumed) the pointee — sound to suppress
            // caller-side reads after the call, exactly as the
            // intraprocedural promote-after-first-read rule would.
            if exit_state.get(pseudo.as_str()) == Some(&Tri::Init) {
                s.ptr_writes[j] = true;
            }
        }
    }

    // Probe pass: parameters seeded symbolic; also yields return facts.
    let in_states = const_flow(&cfg, fun, &info, &live, None, Some(&mut probe));
    collect_returns(&cfg, &info, &live, &in_states, &mut s);

    s.demands = probe.demands;
    s.ptr_reads = probe.ptr_reads;
    s.div_params = probe.div_params;
    s.deref_params = probe.deref_params;
    s.idx_params = probe.idx_params;
    s
}

/// Whether pointer parameter `name` escapes the summary's view: any
/// occurrence outside a direct dereference, index base, or non-escaping
/// argument position of a known callee.
fn param_escapes<'a>(body: &Stmt, name: &str, info: &FnInfo<'a>) -> bool {
    let mut sanctioned: Vec<Span> = Vec::new();
    for_each_expr(info.ast, body, &mut |e| {
        walk_exprs(info.ast, e, &mut |sub| match &sub.kind {
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
            } => {
                let inner = info.ast[*operand].unparenthesized(info.ast);
                if matches!(&inner.kind, ExprKind::Ident(n) if n == name) {
                    sanctioned.push(inner.span);
                }
            }
            ExprKind::Index { base, .. } => {
                let inner = info.ast[*base].unparenthesized(info.ast);
                if matches!(&inner.kind, ExprKind::Ident(n) if n == name) {
                    sanctioned.push(inner.span);
                }
            }
            ExprKind::Call { callee, args } => {
                let Some((_, h)) = info.callee(callee) else {
                    return;
                };
                for (j, a) in args.iter().enumerate() {
                    if j >= h.ptr_escapes.len() || h.ptr_escapes[j] {
                        continue;
                    }
                    let inner = info.ast[*a].unparenthesized(info.ast);
                    if matches!(&inner.kind, ExprKind::Ident(n) if n == name) {
                        sanctioned.push(inner.span);
                    }
                }
            }
            _ => {}
        });
    });
    let mut escapes = false;
    for_each_expr(info.ast, body, &mut |e| {
        walk_exprs(info.ast, e, &mut |sub| {
            if let ExprKind::Ident(n) = &sub.kind {
                if n == name && !sanctioned.contains(&sub.span) {
                    escapes = true;
                }
            }
        });
    });
    escapes
}

/// Whether executing the body can be observed: a volatile access or a
/// call to anything unknown or itself observable, anywhere in the body
/// (reachability is deliberately ignored — conservative).
fn is_observable<'a>(body: &Stmt, info: &FnInfo<'a>) -> bool {
    let mut obs = false;
    for_each_expr(info.ast, body, &mut |e| {
        walk_exprs(info.ast, e, &mut |sub| match &sub.kind {
            ExprKind::Ident(name) if info.volatile.contains(name) => obs = true,
            ExprKind::Call { callee, .. } => match info.callee(callee) {
                Some((_, g)) => {
                    if g.observable {
                        obs = true;
                    }
                }
                None => obs = true,
            },
            _ => {}
        });
    });
    obs
}

/// Derives the return lattice from the constant pass's in-states: every
/// live `return e;` must evaluate to the same constant (or the same
/// unmodified parameter), with no `return;` and no live fall-off-the-end.
fn collect_returns(
    cfg: &Cfg<'_>,
    info: &FnInfo<'_>,
    live: &[bool],
    in_states: &[Option<ConstMap>],
    s: &mut FnSummary,
) {
    let mut vals: Vec<CVal> = Vec::new();
    for (idx, node) in cfg.nodes.iter().enumerate() {
        if !live[idx] {
            continue;
        }
        match node.action {
            Action::Return(Some(e)) => {
                let Some(st) = &in_states[idx] else { return };
                let w = ConstWalk {
                    info,
                    st: st.0.clone(),
                    sink: None,
                    probe: None,
                };
                match w.eval(e) {
                    Some(v) => vals.push(v),
                    None => return,
                }
            }
            Action::Return(None) => return,
            Action::Exit => {}
            // A live non-return edge into the exit is a fall-off.
            _ => {
                if node.succs.contains(&cfg.exit) {
                    return;
                }
            }
        }
    }
    let Some((&first, rest)) = vals.split_first() else {
        return;
    };
    if rest.iter().any(|&v| v != first) {
        return;
    }
    match first {
        CVal::Const(c) => s.returns_const = Some(c),
        CVal::Param(k) => s.returns_param = Some(k),
    }
}

// ======================================================================
// AST walking helpers
// ======================================================================

fn collect_address_taken<'a>(
    ast: &'a Ast,
    e: impl ExprRef<'a>,
    sanctioned: &[Span],
    out: &mut FxHashSet<Name>,
) {
    let e = e.resolve(ast);
    walk_exprs(ast, e, &mut |sub| {
        if let ExprKind::Unary {
            op: UnaryOp::AddrOf,
            operand,
        } = &sub.kind
        {
            if sanctioned.contains(&sub.span) {
                return;
            }
            if let ExprKind::Ident(name) = &ast[*operand].unparenthesized(ast).kind {
                out.insert(name.clone());
            }
        }
    });
}

fn collect_idents<'a>(ast: &'a Ast, e: impl ExprRef<'a>, out: &mut FxHashSet<Name>) {
    let e = e.resolve(ast);
    walk_exprs(ast, e, &mut |sub| {
        if let ExprKind::Ident(name) = &sub.kind {
            out.insert(name.clone());
        }
    });
}

/// Calls `f` on `e` and every sub-expression (including unevaluated
/// `sizeof` operands — callers that care filter themselves).
pub(crate) fn walk_exprs<'a>(ast: &'a Ast, e: impl ExprRef<'a>, f: &mut impl FnMut(&Expr)) {
    let e = e.resolve(ast);
    f(e);
    match &e.kind {
        ExprKind::IntLit { .. }
        | ExprKind::FloatLit { .. }
        | ExprKind::CharLit { .. }
        | ExprKind::StrLit { .. }
        | ExprKind::Ident(_)
        | ExprKind::SizeofType(_) => {}
        ExprKind::Unary { operand, .. } => walk_exprs(ast, operand, f),
        ExprKind::Binary { lhs, rhs, .. }
        | ExprKind::Assign { lhs, rhs, .. }
        | ExprKind::Comma { lhs, rhs } => {
            walk_exprs(ast, lhs, f);
            walk_exprs(ast, rhs, f);
        }
        ExprKind::Cond {
            cond,
            then_expr,
            else_expr,
        } => {
            walk_exprs(ast, cond, f);
            walk_exprs(ast, then_expr, f);
            walk_exprs(ast, else_expr, f);
        }
        ExprKind::Call { callee, args } => {
            walk_exprs(ast, callee, f);
            for a in args {
                walk_exprs(ast, a, f);
            }
        }
        ExprKind::Index { base, index } => {
            walk_exprs(ast, base, f);
            walk_exprs(ast, index, f);
        }
        ExprKind::Member { base, .. } => walk_exprs(ast, base, f),
        ExprKind::Cast { expr, .. } => walk_exprs(ast, expr, f),
        ExprKind::CompoundLit { init, .. } => walk_init_exprs(ast, init, f),
        ExprKind::SizeofExpr(inner) => walk_exprs(ast, inner, f),
        ExprKind::Paren(inner) => walk_exprs(ast, inner, f),
    }
}

fn walk_init_exprs(ast: &Ast, init: &Initializer, f: &mut impl FnMut(&Expr)) {
    match init {
        Initializer::Expr(e) => walk_exprs(ast, e, f),
        Initializer::List { items, .. } => {
            for i in items {
                walk_init_exprs(ast, i, f);
            }
        }
    }
}

/// Calls `f` on `s` and every nested statement.
fn walk_stmts(s: &Stmt, f: &mut impl FnMut(&Stmt)) {
    f(s);
    match &s.kind {
        StmtKind::Compound(items) => {
            for item in items {
                if let BlockItem::Stmt(st) = item {
                    walk_stmts(st, f);
                }
            }
        }
        StmtKind::If {
            then_stmt,
            else_stmt,
            ..
        } => {
            walk_stmts(then_stmt, f);
            if let Some(e) = else_stmt {
                walk_stmts(e, f);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::For { body, .. }
        | StmtKind::Switch { body, .. } => walk_stmts(body, f),
        StmtKind::Case { stmt, .. } | StmtKind::Default { stmt } | StmtKind::Label { stmt, .. } => {
            walk_stmts(stmt, f)
        }
        _ => {}
    }
}

/// Calls `f` on every [`VarDecl`] in `s` (block decls and `for` inits).
fn for_each_decl(s: &Stmt, f: &mut impl FnMut(&VarDecl)) {
    walk_stmts(s, &mut |st| match &st.kind {
        StmtKind::Compound(items) => {
            for item in items {
                if let BlockItem::Decl(group) = item {
                    for v in &group.vars {
                        f(v);
                    }
                }
            }
        }
        StmtKind::For {
            init: Some(init), ..
        } => {
            if let ForInit::Decl(group) = init.as_ref() {
                for v in &group.vars {
                    f(v);
                }
            }
        }
        _ => {}
    });
}

/// Calls `f` on every top-level expression in `s`, including declaration
/// initializers.
pub(crate) fn for_each_expr(ast: &Ast, s: &Stmt, f: &mut impl FnMut(&Expr)) {
    fn on_decl(ast: &Ast, v: &VarDecl, f: &mut impl FnMut(&Expr)) {
        if let Some(init) = &v.init {
            walk_init_exprs(ast, init, f);
        }
    }
    walk_stmts(s, &mut |st| match &st.kind {
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => f(&ast[*e]),
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::DoWhile { cond, .. }
        | StmtKind::Switch { cond, .. }
        | StmtKind::Case { expr: cond, .. } => f(&ast[*cond]),
        StmtKind::For {
            init, cond, step, ..
        } => {
            if let Some(init) = init {
                match init.as_ref() {
                    ForInit::Decl(group) => {
                        for v in &group.vars {
                            on_decl(ast, v, f);
                        }
                    }
                    ForInit::Expr(e) => f(&ast[*e]),
                }
            }
            if let Some(c) = cond {
                f(&ast[*c]);
            }
            if let Some(st) = step {
                f(&ast[*st]);
            }
        }
        StmtKind::Compound(items) => {
            for item in items {
                if let BlockItem::Decl(group) = item {
                    for v in &group.vars {
                        on_decl(ast, v, f);
                    }
                }
            }
        }
        _ => {}
    });
}
