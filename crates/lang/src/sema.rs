//! Semantic analysis: name resolution, type checking, and the side tables
//! that the μAST layer's semantic-query APIs are built on.
//!
//! The checker is deliberately calibrated like a production C compiler run
//! in its default mode: constraint violations (assigning a struct to an int,
//! calling a non-function, returning a value from `void`) are hard errors,
//! while the murkier corners C programmers rely on (int ↔ pointer
//! conversions, mismatched pointer types) are accepted with warnings. The
//! MetaMut validation loop (goal #6: "the mutant compiles") uses exactly
//! this notion of compilability.

use crate::ast::*;
use crate::error::{Diagnostic, Diagnostics, Phase};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::source::Span;
use crate::types::{assign_compat, usual_arithmetic, Compat, FloatWidth, IntWidth, QType, Type};
use std::sync::OnceLock;

/// Identifies a lexical scope; `ScopeId(0)` is file scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScopeId(pub u32);

/// A function signature, as recorded for calls and for μAST queries.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSig {
    /// Function name.
    pub name: Name,
    /// Return type.
    pub ret: QType,
    /// Parameter types (after decay).
    pub params: Vec<QType>,
    /// Parameter names (when written).
    pub param_names: Vec<Option<Name>>,
    /// Whether the signature is variadic.
    pub variadic: bool,
    /// Declared without a prototype — calls are unchecked.
    pub unprototyped: bool,
    /// Whether a body was seen.
    pub defined: bool,
    /// The AST node of the (first) declaration, when it exists in the tree.
    pub node: Option<NodeId>,
}

/// A resolved struct/union.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordInfo {
    /// The (possibly synthesized) tag.
    pub tag: Name,
    /// `true` for unions.
    pub is_union: bool,
    /// Field names and types, or `None` while only forward-declared.
    pub fields: Option<Vec<(Name, QType)>>,
}

impl RecordInfo {
    /// Looks up a field type by name.
    pub fn field(&self, name: &str) -> Option<&QType> {
        self.fields
            .as_ref()
            .and_then(|fs| fs.iter().find(|(n, _)| n == name).map(|(_, t)| t))
    }

    /// Byte size of the record on the modelled target (fields summed for
    /// structs, max for unions; no padding model).
    pub fn size(&self) -> u64 {
        match &self.fields {
            None => 0,
            Some(fs) => {
                let sizes = fs.iter().map(|(_, t)| t.ty.size());
                if self.is_union {
                    sizes.max().unwrap_or(0)
                } else {
                    sizes.sum()
                }
            }
        }
    }
}

/// A dense table from the node ids of one parse to `T`: one slot per id,
/// so a lookup is an index and filling it allocates once.
#[derive(Debug, Clone)]
pub struct NodeTable<T>(Vec<Option<T>>);

impl<T> Default for NodeTable<T> {
    fn default() -> Self {
        NodeTable(Vec::new())
    }
}

impl<T> NodeTable<T> {
    /// A table with an empty slot for each of `node_count` ids.
    pub fn with_nodes(node_count: u32) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(node_count as usize, || None);
        NodeTable(slots)
    }

    /// The value recorded for `id`.
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.0.get(id.0 as usize)?.as_ref()
    }

    /// Records `value` for `id`, growing the table if `id` is past its end.
    pub fn insert(&mut self, id: NodeId, value: T) {
        let i = id.0 as usize;
        if i >= self.0.len() {
            self.0.resize_with(i + 1, || None);
        }
        self.0[i] = Some(value);
    }

    /// The recorded values in node-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    /// Whether no value is recorded.
    pub fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }
}

/// Everything semantic analysis learned about a program.
#[derive(Debug, Clone, Default)]
pub struct SemaResult {
    /// Checked type of every expression node.
    pub expr_types: NodeTable<QType>,
    /// Checked type of every variable/parameter declaration node.
    pub decl_types: FxHashMap<NodeId, QType>,
    /// Variable declaration nodes per scope, in declaration order.
    pub scope_vars: FxHashMap<ScopeId, Vec<NodeId>>,
    /// All function signatures by name (including builtins that were used).
    pub functions: FxHashMap<Name, FuncSig>,
    /// All resolved records by tag.
    pub records: FxHashMap<Name, RecordInfo>,
    /// Enumeration constants and their values.
    pub enum_consts: FxHashMap<Name, i64>,
    /// Non-fatal diagnostics.
    pub warnings: Diagnostics,
}

impl SemaResult {
    /// The checked type of expression `id`, if it was type-checked.
    pub fn expr_type(&self, id: NodeId) -> Option<&QType> {
        self.expr_types.get(id)
    }

    /// The checked type of declaration `id`.
    pub fn decl_type(&self, id: NodeId) -> Option<&QType> {
        self.decl_types.get(&id)
    }

    /// The record info behind a record type, if resolved.
    pub fn record_of(&self, ty: &Type) -> Option<&RecordInfo> {
        match ty {
            Type::Record { tag, .. } => self.records.get(tag),
            _ => None,
        }
    }
}

/// Runs semantic analysis over a parsed AST.
///
/// # Errors
///
/// Returns all diagnostics (errors and warnings) if any error-severity
/// diagnostic was produced; the program "does not compile".
pub fn analyze(ast: &Ast) -> Result<SemaResult, Diagnostics> {
    let mut cx = Checker::new(ast);
    cx.run();
    if cx.diags.has_errors() {
        let mut all = cx.diags;
        all.extend(cx.result.warnings.clone());
        Err(all)
    } else {
        cx.result.warnings.extend(cx.diags);
        Ok(cx.result)
    }
}

#[derive(Debug, Clone)]
enum SymbolKind {
    Var,
    Func,
    EnumConst(i64),
    Typedef,
}

#[derive(Debug, Clone)]
struct Symbol {
    qty: QType,
    kind: SymbolKind,
    /// Declaration node, retained for debugging dumps.
    #[allow(dead_code)]
    node: Option<NodeId>,
}

struct Scope<'a> {
    id: ScopeId,
    symbols: FxHashMap<&'a str, Symbol>,
}

struct Checker<'a> {
    ast: &'a Ast,
    scopes: Vec<Scope<'a>>,
    /// Symbol maps of popped scopes, cleared but keeping their capacity,
    /// for the next scopes to reuse.
    spare_maps: Vec<FxHashMap<&'a str, Symbol>>,
    next_scope: u32,
    anon_tags: u32,
    diags: Diagnostics,
    result: SemaResult,
    // Per-function state.
    ret_ty: QType,
    loop_depth: u32,
    switch_depth: u32,
    labels: FxHashSet<&'a str>,
    gotos: Vec<(&'a str, Span)>,
    case_values: Vec<FxHashSet<i64>>,
}

/// The builtin library, constructed once per process: name → (the symbol's
/// function type, the signature recorded on first use). Keeping this out of
/// `Checker::new` means analyzing a program costs nothing for builtins it
/// never mentions — fuzzing campaigns analyze thousands of tiny programs.
fn builtin_library() -> &'static FxHashMap<&'static str, (QType, FuncSig)> {
    static LIB: OnceLock<FxHashMap<&'static str, (QType, FuncSig)>> = OnceLock::new();
    LIB.get_or_init(|| {
        let ulong = QType::new(Type::Int {
            width: IntWidth::Long,
            signed: false,
        });
        let vptr = QType::void().pointer_to();
        let cstr = QType::const_(Type::char_()).pointer_to();
        let mstr = QType::char_ptr();
        let builtins: Vec<(&str, QType, Vec<QType>, bool)> = vec![
            ("printf", QType::int(), vec![cstr.clone()], true),
            (
                "sprintf",
                QType::int(),
                vec![mstr.clone(), cstr.clone()],
                true,
            ),
            (
                "snprintf",
                QType::int(),
                vec![mstr.clone(), ulong.clone(), cstr.clone()],
                true,
            ),
            ("puts", QType::int(), vec![cstr.clone()], false),
            ("putchar", QType::int(), vec![QType::int()], false),
            ("scanf", QType::int(), vec![cstr.clone()], true),
            (
                "memset",
                vptr.clone(),
                vec![vptr.clone(), QType::int(), ulong.clone()],
                false,
            ),
            (
                "memcpy",
                vptr.clone(),
                vec![vptr.clone(), vptr.clone(), ulong.clone()],
                false,
            ),
            (
                "memcmp",
                QType::int(),
                vec![vptr.clone(), vptr.clone(), ulong.clone()],
                false,
            ),
            ("strlen", ulong.clone(), vec![cstr.clone()], false),
            (
                "strcpy",
                mstr.clone(),
                vec![mstr.clone(), cstr.clone()],
                false,
            ),
            (
                "strcmp",
                QType::int(),
                vec![cstr.clone(), cstr.clone()],
                false,
            ),
            (
                "strcat",
                mstr.clone(),
                vec![mstr.clone(), cstr.clone()],
                false,
            ),
            ("abort", QType::void(), vec![], false),
            ("exit", QType::void(), vec![QType::int()], false),
            ("malloc", vptr.clone(), vec![ulong.clone()], false),
            (
                "calloc",
                vptr.clone(),
                vec![ulong.clone(), ulong.clone()],
                false,
            ),
            (
                "realloc",
                vptr.clone(),
                vec![vptr.clone(), ulong.clone()],
                false,
            ),
            ("free", QType::void(), vec![vptr.clone()], false),
            ("abs", QType::int(), vec![QType::int()], false),
            (
                "labs",
                QType::new(Type::Int {
                    width: IntWidth::Long,
                    signed: true,
                }),
                vec![QType::new(Type::Int {
                    width: IntWidth::Long,
                    signed: true,
                })],
                false,
            ),
            ("rand", QType::int(), vec![], false),
            (
                "srand",
                QType::void(),
                vec![QType::new(Type::uint())],
                false,
            ),
            ("fabs", QType::double(), vec![QType::double()], false),
            ("sqrt", QType::double(), vec![QType::double()], false),
        ];
        builtins
            .into_iter()
            .map(|(name, ret, params, variadic)| {
                let sig = FuncSig {
                    name: Name::new(name),
                    ret: ret.clone(),
                    params: params.clone(),
                    param_names: vec![None; params.len()],
                    variadic,
                    unprototyped: false,
                    defined: false,
                    node: None,
                };
                let fty = Type::Function {
                    ret: Box::new(ret),
                    params,
                    variadic,
                    unprototyped: false,
                };
                (name, (QType::new(fty), sig))
            })
            .collect()
    })
}

impl<'a> Checker<'a> {
    fn new(ast: &'a Ast) -> Self {
        Checker {
            ast,
            scopes: vec![Scope {
                id: ScopeId(0),
                symbols: FxHashMap::default(),
            }],
            spare_maps: Vec::new(),
            next_scope: 1,
            anon_tags: 0,
            diags: Diagnostics::new(),
            result: SemaResult {
                expr_types: NodeTable::with_nodes(ast.node_count),
                ..SemaResult::default()
            },
            ret_ty: QType::void(),
            loop_depth: 0,
            switch_depth: 0,
            labels: FxHashSet::default(),
            gotos: Vec::new(),
            case_values: Vec::new(),
        }
    }

    /// Resolves `name` against the builtin library when the scope stack has
    /// no binding. The signature is materialized into `result.functions` on
    /// first use, so downstream consumers (IR lowering, μAST queries) see
    /// exactly the builtins the program touched.
    fn use_builtin(&mut self, name: &str) -> Option<QType> {
        let (qty, sig) = builtin_library().get(name)?;
        self.result
            .functions
            .entry(Name::new(name))
            .or_insert_with(|| sig.clone());
        Some(qty.clone())
    }

    // ------------------------------------------------------------------
    // Infrastructure
    // ------------------------------------------------------------------

    fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::error(Phase::Sema, span, msg));
    }

    fn warn(&mut self, span: Span, msg: impl Into<String>) {
        self.result
            .warnings
            .push(Diagnostic::warning(Phase::Sema, span, msg));
    }

    fn push_scope(&mut self) -> ScopeId {
        let id = ScopeId(self.next_scope);
        self.next_scope += 1;
        let symbols = self.spare_maps.pop().unwrap_or_default();
        self.scopes.push(Scope { id, symbols });
        id
    }

    fn pop_scope(&mut self) {
        if let Some(mut scope) = self.scopes.pop() {
            scope.symbols.clear();
            self.spare_maps.push(scope.symbols);
        }
    }

    fn current_scope_id(&self) -> ScopeId {
        self.scopes.last().expect("scope stack nonempty").id
    }

    fn lookup(&self, name: &str) -> Option<&Symbol> {
        self.scopes.iter().rev().find_map(|s| s.symbols.get(name))
    }

    fn declare(&mut self, name: &'a str, sym: Symbol, span: Span) {
        let scope = self.scopes.last_mut().expect("scope stack nonempty");
        if scope.symbols.contains_key(name) {
            let is_file_scope = scope.id == ScopeId(0);
            let existing_is_func = matches!(scope.symbols[name].kind, SymbolKind::Func);
            // Tolerate repeated file-scope declarations (tentative
            // definitions, redeclared prototypes); reject block-scope ones.
            if !is_file_scope && !existing_is_func {
                self.diags.push(Diagnostic::error(
                    Phase::Sema,
                    span,
                    format!("redefinition of '{name}'"),
                ));
                return;
            }
        }
        scope.symbols.insert(name, sym);
    }

    fn fresh_tag(&mut self) -> Name {
        let t = format!("__anon{}", self.anon_tags);
        self.anon_tags += 1;
        Name::new(&t)
    }

    // ------------------------------------------------------------------
    // Type lowering
    // ------------------------------------------------------------------

    fn lower_ty(&mut self, ty: &'a TySyn, span: Span) -> QType {
        match ty {
            TySyn::Base { spec, quals } => {
                let mut q = self.lower_spec(spec, span);
                q.quals = q.quals.union(*quals);
                q
            }
            TySyn::Pointer { pointee, quals } => {
                let inner = self.lower_ty(pointee, span);
                QType {
                    ty: Type::Pointer(Box::new(inner)),
                    quals: *quals,
                }
            }
            TySyn::Array { elem, size } => {
                let inner = self.lower_ty(elem, span);
                if inner.ty.is_void() {
                    self.error(span, "array of void is not allowed");
                }
                if inner.ty.is_function() {
                    self.error(span, "array of functions is not allowed");
                }
                let n = match size {
                    Some(e) => match self.eval_const_int(e) {
                        Some(v) if v < 0 => {
                            self.error(self.ast[*e].span, "array size is negative");
                            Some(0)
                        }
                        Some(v) => Some(v as u64),
                        None => None, // VLA or erroneous; both tolerated
                    },
                    None => None,
                };
                QType::new(Type::Array(Box::new(inner), n))
            }
            TySyn::Function {
                ret,
                params,
                variadic,
            } => {
                let ret_q = self.lower_ty(ret, span);
                if ret_q.ty.is_array() {
                    self.error(span, "function returning an array is not allowed");
                }
                let mut ps = Vec::new();
                for p in params {
                    let mut pt = self.lower_ty(&p.ty, p.span);
                    pt = pt.decayed();
                    if pt.ty.is_void() {
                        self.error(p.span, "parameter has void type");
                    }
                    ps.push(pt);
                }
                let unprototyped = params.is_empty() && !variadic;
                QType::new(Type::Function {
                    ret: Box::new(ret_q),
                    params: ps,
                    variadic: *variadic,
                    unprototyped,
                })
            }
        }
    }

    fn lower_spec(&mut self, spec: &'a TypeSpecifier, span: Span) -> QType {
        use TypeSpecifier as TS;
        let ty = match spec {
            TS::Void => Type::Void,
            TS::Char => Type::char_(),
            TS::SChar => Type::Int {
                width: IntWidth::Char,
                signed: true,
            },
            TS::UChar => Type::Int {
                width: IntWidth::Char,
                signed: false,
            },
            TS::Short => Type::Int {
                width: IntWidth::Short,
                signed: true,
            },
            TS::UShort => Type::Int {
                width: IntWidth::Short,
                signed: false,
            },
            TS::Int => Type::int(),
            TS::UInt => Type::uint(),
            TS::Long => Type::Int {
                width: IntWidth::Long,
                signed: true,
            },
            TS::ULong => Type::Int {
                width: IntWidth::Long,
                signed: false,
            },
            TS::LongLong => Type::Int {
                width: IntWidth::LongLong,
                signed: true,
            },
            TS::ULongLong => Type::Int {
                width: IntWidth::LongLong,
                signed: false,
            },
            TS::Float => Type::Float(FloatWidth::F32),
            TS::Double => Type::Float(FloatWidth::F64),
            TS::LongDouble => Type::Float(FloatWidth::F80),
            TS::Bool => Type::Bool,
            TS::ComplexFloat => Type::Complex(FloatWidth::F32),
            TS::ComplexDouble => Type::Complex(FloatWidth::F64),
            TS::Struct(n) | TS::Union(n) => {
                let is_union = matches!(spec, TS::Union(_));
                self.result
                    .records
                    .entry(n.clone())
                    .or_insert_with(|| RecordInfo {
                        tag: n.clone(),
                        is_union,
                        fields: None,
                    });
                Type::Record {
                    tag: n.clone(),
                    is_union,
                }
            }
            TS::Enum(n) => Type::Enum { tag: n.clone() },
            TS::Typedef(n) => match self.lookup(n) {
                Some(Symbol {
                    qty,
                    kind: SymbolKind::Typedef,
                    ..
                }) => return qty.clone(),
                _ => {
                    self.error(span, format!("unknown type name '{n}'"));
                    Type::int()
                }
            },
            TS::RecordDef(r) => return QType::new(self.define_record(r)),
            TS::EnumDef(e) => return QType::new(self.define_enum(e)),
        };
        QType::new(ty)
    }

    fn define_record(&mut self, r: &'a RecordDecl) -> Type {
        let tag = r.name.clone().unwrap_or_else(|| self.fresh_tag());
        let mut fields = Vec::new();
        if let Some(fs) = &r.fields {
            let mut seen = FxHashSet::default();
            for f in fs {
                let qt = self.lower_ty(&f.ty, f.span);
                if qt.ty.is_void() {
                    self.error(f.span, format!("field '{}' has void type", f.name));
                }
                if qt.ty.is_function() {
                    self.error(f.span, format!("field '{}' has function type", f.name));
                }
                if let Some(w) = &f.bit_width {
                    if !qt.ty.is_integer() {
                        self.error(f.span, "bit-field has non-integer type");
                    }
                    match self.eval_const_int(w) {
                        Some(v) if v >= 0 && (v as u64) <= qt.ty.size() * 8 => {}
                        Some(_) => self.error(self.ast[*w].span, "bit-field width out of range"),
                        None => self.error(self.ast[*w].span, "bit-field width is not a constant"),
                    }
                }
                if !seen.insert(f.name.clone()) {
                    self.error(f.span, format!("duplicate member '{}'", f.name));
                }
                fields.push((f.name.clone(), qt));
            }
            self.result.records.insert(
                tag.clone(),
                RecordInfo {
                    tag: tag.clone(),
                    is_union: r.is_union,
                    fields: Some(fields),
                },
            );
        } else {
            self.result
                .records
                .entry(tag.clone())
                .or_insert_with(|| RecordInfo {
                    tag: tag.clone(),
                    is_union: r.is_union,
                    fields: None,
                });
        }
        Type::Record {
            tag,
            is_union: r.is_union,
        }
    }

    fn define_enum(&mut self, e: &'a EnumDecl) -> Type {
        let tag = e.name.clone().unwrap_or_else(|| self.fresh_tag());
        if let Some(es) = &e.enumerators {
            let mut next = 0i64;
            for en in es {
                if let Some(v) = &en.value {
                    match self.eval_const_int(v) {
                        Some(val) => next = val as i64,
                        None => self.error(self.ast[*v].span, "enumerator value is not a constant"),
                    }
                }
                self.result.enum_consts.insert(en.name.clone(), next);
                self.declare(
                    &en.name,
                    Symbol {
                        qty: QType::int(),
                        kind: SymbolKind::EnumConst(next),
                        node: Some(en.id),
                    },
                    en.span,
                );
                next = next.wrapping_add(1);
            }
        }
        Type::Enum { tag }
    }

    // ------------------------------------------------------------------
    // Constant evaluation
    // ------------------------------------------------------------------

    fn eval_const_int(&self, e: impl ExprRef<'a>) -> Option<i128> {
        let e = e.resolve(self.ast);
        match &e.kind {
            ExprKind::IntLit { value, .. } => Some(*value),
            ExprKind::CharLit { value } => Some(*value as i128),
            ExprKind::Ident(n) => match self.lookup(n)?.kind {
                SymbolKind::EnumConst(v) => Some(v as i128),
                _ => None,
            },
            ExprKind::Paren(inner) => self.eval_const_int(inner),
            ExprKind::Unary { op, operand } => {
                let v = self.eval_const_int(operand)?;
                Some(match op {
                    UnaryOp::Plus => v,
                    UnaryOp::Minus => v.wrapping_neg(),
                    UnaryOp::BitNot => !v,
                    UnaryOp::Not => i128::from(v == 0),
                    _ => return None,
                })
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let a = self.eval_const_int(lhs)?;
                let b = self.eval_const_int(rhs)?;
                use BinaryOp::*;
                Some(match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            return None;
                        }
                        a.wrapping_div(b)
                    }
                    Rem => {
                        if b == 0 {
                            return None;
                        }
                        a.wrapping_rem(b)
                    }
                    Shl => a.wrapping_shl(b.rem_euclid(64) as u32),
                    Shr => a.wrapping_shr(b.rem_euclid(64) as u32),
                    BitAnd => a & b,
                    BitXor => a ^ b,
                    BitOr => a | b,
                    Lt => i128::from(a < b),
                    Gt => i128::from(a > b),
                    Le => i128::from(a <= b),
                    Ge => i128::from(a >= b),
                    Eq => i128::from(a == b),
                    Ne => i128::from(a != b),
                    LogAnd => i128::from(a != 0 && b != 0),
                    LogOr => i128::from(a != 0 || b != 0),
                })
            }
            ExprKind::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.eval_const_int(cond)?;
                if c != 0 {
                    self.eval_const_int(then_expr)
                } else {
                    self.eval_const_int(else_expr)
                }
            }
            ExprKind::Cast { expr, .. } => self.eval_const_int(expr),
            ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => {
                // Evaluated lazily as 8 only when the operand is obviously a
                // type; keep conservative and bail out.
                None
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn run(&mut self) {
        // `self.ast` outlives the checker, so the declaration list can be
        // walked in place — no deep clone of every function body.
        let ast = self.ast;
        for d in &ast.unit.decls {
            self.run_decl(d);
        }
    }

    fn run_decl(&mut self, d: &'a ExternalDecl) {
        match d {
            ExternalDecl::Function(f) => self.check_function(f),
            ExternalDecl::Vars(g) => self.check_var_group(g, true),
            ExternalDecl::Record(r) => {
                self.define_record(r);
            }
            ExternalDecl::Enum(e) => {
                self.define_enum(e);
            }
            ExternalDecl::Typedef(t) => {
                let qt = self.lower_ty(&t.ty, t.span);
                self.declare(
                    &t.name,
                    Symbol {
                        qty: qt,
                        kind: SymbolKind::Typedef,
                        node: Some(t.id),
                    },
                    t.span,
                );
            }
        }
    }

    fn check_function(&mut self, f: &'a FunctionDef) {
        let ret = self.lower_ty(&f.ret_ty, f.span);
        let mut params = Vec::with_capacity(f.params.len());
        let mut param_names = Vec::with_capacity(f.params.len());
        for p in &f.params {
            let qt = self.lower_ty(&p.ty, p.span).decayed();
            if qt.ty.is_void() {
                self.error(p.span, "parameter has void type");
            }
            self.result.decl_types.insert(p.id, qt.clone());
            params.push(qt);
            param_names.push(p.name.clone());
        }

        // What the previous declaration says, read in place.
        let (prev_defined, conflicting) = match self.result.functions.get(&f.name) {
            Some(prev) => (
                prev.defined,
                !prev.unprototyped
                    && !prev.params.is_empty()
                    && prev.params.len() == params.len()
                    && prev
                        .params
                        .iter()
                        .zip(&params)
                        .any(|(a, b)| assign_compat(&a.ty, &b.ty) == Compat::Error),
            ),
            None => (false, false),
        };
        if prev_defined && f.is_definition() {
            self.error(f.name_span, format!("redefinition of '{}'", f.name));
        }
        if conflicting {
            self.warn(f.name_span, format!("conflicting types for '{}'", f.name));
        }

        let unprototyped = f.params.is_empty() && !f.variadic;
        let fty = Type::Function {
            ret: Box::new(ret.clone()),
            params: params.clone(),
            variadic: f.variadic,
            unprototyped,
        };
        // The signature owns the only other copy of the parameter types;
        // a body's parameter symbols are declared from it below.
        let sig = FuncSig {
            name: f.name.clone(),
            ret: ret.clone(),
            params,
            param_names,
            variadic: f.variadic,
            unprototyped,
            defined: f.is_definition() || prev_defined,
            node: Some(f.id),
        };
        self.result.functions.insert(f.name.clone(), sig);
        // File-scope symbol (allow redeclaration).
        self.scopes[0].symbols.insert(
            &f.name,
            Symbol {
                qty: QType::new(fty),
                kind: SymbolKind::Func,
                node: Some(f.id),
            },
        );

        let Some(body) = &f.body else { return };

        self.ret_ty = ret;
        self.labels.clear();
        self.gotos.clear();
        self.loop_depth = 0;
        self.switch_depth = 0;

        let scope = self.push_scope();
        for (i, p) in f.params.iter().enumerate() {
            if let Some(name) = &p.name {
                let qty = self.result.functions[&f.name].params[i].clone();
                self.declare(
                    name,
                    Symbol {
                        qty,
                        kind: SymbolKind::Var,
                        node: Some(p.id),
                    },
                    p.span,
                );
                self.result.scope_vars.entry(scope).or_default().push(p.id);
            } else {
                self.warn(p.span, "unnamed parameter in function definition");
            }
        }
        // The body's compound statement shares the parameter scope, like C.
        if let StmtKind::Compound(items) = &body.kind {
            for item in items {
                self.check_block_item(item);
            }
        } else {
            self.check_stmt(body);
        }
        self.pop_scope();

        let gotos = std::mem::take(&mut self.gotos);
        for (name, span) in gotos {
            if !self.labels.contains(&name) {
                self.error(span, format!("use of undeclared label '{name}'"));
            }
        }
    }

    fn check_var_group(&mut self, g: &'a DeclGroup, file_scope: bool) {
        for v in &g.vars {
            let qt = self.lower_ty(&v.ty, v.span);
            if qt.ty.is_void() {
                self.error(v.span, format!("variable '{}' has void type", v.name));
            }
            if let Type::Record { tag, .. } = &qt.ty {
                let complete = self
                    .result
                    .records
                    .get(tag)
                    .map(|r| r.fields.is_some())
                    .unwrap_or(false);
                if !complete {
                    self.error(v.span, format!("variable '{}' has incomplete type", v.name));
                }
            }
            if qt.ty.is_function() {
                // `int f(void);` parsed within a group — record as function.
                if let Type::Function {
                    ret,
                    params,
                    variadic,
                    unprototyped,
                } = &qt.ty
                {
                    self.result.functions.insert(
                        v.name.clone(),
                        FuncSig {
                            name: v.name.clone(),
                            ret: (**ret).clone(),
                            params: params.clone(),
                            param_names: vec![None; params.len()],
                            variadic: *variadic,
                            unprototyped: *unprototyped,
                            defined: false,
                            node: Some(v.id),
                        },
                    );
                }
                self.scopes[0].symbols.insert(
                    &v.name,
                    Symbol {
                        qty: qt.clone(),
                        kind: SymbolKind::Func,
                        node: Some(v.id),
                    },
                );
                continue;
            }
            self.result.decl_types.insert(v.id, qt.clone());
            let scope = self.current_scope_id();
            self.result.scope_vars.entry(scope).or_default().push(v.id);
            self.declare(
                &v.name,
                Symbol {
                    qty: qt.clone(),
                    kind: SymbolKind::Var,
                    node: Some(v.id),
                },
                v.name_span,
            );
            if let Some(init) = &v.init {
                if file_scope || v.storage == Storage::Static {
                    // Static initializers must be constant-ish; accept
                    // literals, const arithmetic and address-of, warn on the
                    // rest (compilers reject, but seeds rarely hit this).
                    self.check_initializer(&qt, init, true);
                } else {
                    self.check_initializer(&qt, init, false);
                }
            }
        }
    }

    fn check_initializer(&mut self, target: &QType, init: &'a Initializer, _static_ctx: bool) {
        match init {
            Initializer::Expr(e) => {
                let et = self.check_expr(e);
                // char arr[] = "str" special case.
                if let Type::Array(elem, _) = &target.ty {
                    if elem.ty == Type::char_()
                        && matches!(self.ast[*e].kind, ExprKind::StrLit { .. })
                    {
                        return;
                    }
                }
                match assign_compat(&target.ty, &et.ty) {
                    Compat::Ok => {}
                    Compat::Warn => self.warn(
                        self.ast[*e].span,
                        format!("initializing '{}' from '{}'", target, et),
                    ),
                    Compat::Error => self.error(
                        self.ast[*e].span,
                        format!(
                            "cannot initialize '{}' with a value of type '{}'",
                            target, et
                        ),
                    ),
                }
            }
            Initializer::List { items, span, .. } => match &target.ty {
                Type::Array(elem, len) => {
                    if let Some(n) = len {
                        if items.len() as u64 > *n {
                            self.warn(*span, "excess elements in array initializer");
                        }
                    }
                    for item in items {
                        self.check_initializer(elem, item, _static_ctx);
                    }
                }
                Type::Record { tag, .. } => {
                    // Clone only the field types the initializer actually
                    // pairs with, not the whole record definition.
                    let paired: Option<(usize, Vec<QType>)> = self
                        .result
                        .records
                        .get(tag)
                        .and_then(|r| r.fields.as_ref())
                        .map(|fields| {
                            (
                                fields.len(),
                                fields
                                    .iter()
                                    .take(items.len())
                                    .map(|(_, t)| t.clone())
                                    .collect(),
                            )
                        });
                    match paired {
                        Some((n_fields, field_tys)) => {
                            if items.len() > n_fields {
                                self.warn(*span, "excess elements in struct initializer");
                            }
                            for (item, fty) in items.iter().zip(field_tys.iter()) {
                                self.check_initializer(fty, item, _static_ctx);
                            }
                        }
                        None => self.error(*span, "initializing incomplete struct type"),
                    }
                }
                _scalar => {
                    match items.first() {
                        None => self.error(*span, "empty scalar initializer"),
                        Some(Initializer::Expr(e)) => {
                            let et = self.check_expr(e);
                            if assign_compat(&target.ty, &et.ty) == Compat::Error {
                                self.error(
                                    self.ast[*e].span,
                                    format!(
                                        "cannot initialize '{}' with a value of type '{}'",
                                        target, et
                                    ),
                                );
                            }
                        }
                        Some(Initializer::List { span, .. }) => {
                            self.error(*span, "braces around scalar initializer");
                        }
                    }
                    if items.len() > 1 {
                        self.warn(*span, "excess elements in scalar initializer");
                    }
                }
            },
        }
    }

    fn check_block_item(&mut self, item: &'a BlockItem) {
        match item {
            BlockItem::Decl(g) => self.check_var_group(g, false),
            BlockItem::Stmt(s) => self.check_stmt(s),
        }
    }

    fn check_stmt(&mut self, s: &'a Stmt) {
        match &s.kind {
            StmtKind::Compound(items) => {
                self.push_scope();
                for item in items {
                    self.check_block_item(item);
                }
                self.pop_scope();
            }
            StmtKind::Expr(e) => {
                self.check_expr(e);
            }
            StmtKind::Null => {}
            StmtKind::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                self.check_condition(cond);
                self.check_stmt(then_stmt);
                if let Some(e) = else_stmt {
                    self.check_stmt(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.check_condition(cond);
                self.loop_depth += 1;
                self.check_stmt(body);
                self.loop_depth -= 1;
            }
            StmtKind::DoWhile { body, cond } => {
                self.loop_depth += 1;
                self.check_stmt(body);
                self.loop_depth -= 1;
                self.check_condition(cond);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                if let Some(init) = init {
                    match init.as_ref() {
                        ForInit::Decl(g) => self.check_var_group(g, false),
                        ForInit::Expr(e) => {
                            self.check_expr(e);
                        }
                    }
                }
                if let Some(c) = cond {
                    self.check_condition(c);
                }
                if let Some(st) = step {
                    self.check_expr(st);
                }
                self.loop_depth += 1;
                self.check_stmt(body);
                self.loop_depth -= 1;
                self.pop_scope();
            }
            StmtKind::Switch { cond, body } => {
                let ct = self.check_expr(cond);
                if !ct.ty.decayed().is_integer() {
                    self.error(self.ast[*cond].span, "switch condition is not an integer");
                }
                self.switch_depth += 1;
                self.case_values.push(FxHashSet::default());
                self.check_stmt(body);
                self.case_values.pop();
                self.switch_depth -= 1;
            }
            StmtKind::Case { expr, stmt } => {
                if self.switch_depth == 0 {
                    self.error(s.span, "'case' label outside of switch");
                }
                match self.eval_const_int(expr) {
                    Some(v) => {
                        if let Some(set) = self.case_values.last_mut() {
                            if !set.insert(v as i64) {
                                self.error(
                                    self.ast[*expr].span,
                                    format!("duplicate case value {v}"),
                                );
                            }
                        }
                    }
                    None => self.error(
                        self.ast[*expr].span,
                        "case label is not an integer constant",
                    ),
                }
                self.check_stmt(stmt);
            }
            StmtKind::Default { stmt } => {
                if self.switch_depth == 0 {
                    self.error(s.span, "'default' label outside of switch");
                }
                self.check_stmt(stmt);
            }
            StmtKind::Label { name, stmt, .. } => {
                if !self.labels.insert(name) {
                    self.error(s.span, format!("redefinition of label '{name}'"));
                }
                self.check_stmt(stmt);
            }
            StmtKind::Goto { name, name_span } => {
                self.gotos.push((name, *name_span));
            }
            StmtKind::Break => {
                if self.loop_depth == 0 && self.switch_depth == 0 {
                    self.error(s.span, "'break' outside of loop or switch");
                }
            }
            StmtKind::Continue => {
                if self.loop_depth == 0 {
                    self.error(s.span, "'continue' outside of loop");
                }
            }
            StmtKind::Return(value) => {
                let ret_is_void = self.ret_ty.ty.is_void();
                match value {
                    Some(e) => {
                        let et = self.check_expr(e);
                        if ret_is_void {
                            if !et.ty.is_void() {
                                self.error(
                                    self.ast[*e].span,
                                    "return with a value in a function returning void",
                                );
                            }
                        } else {
                            let ret_ty = self.ret_ty.clone();
                            match assign_compat(&ret_ty.ty, &et.ty) {
                                Compat::Ok => {}
                                Compat::Warn => self.warn(
                                    self.ast[*e].span,
                                    format!(
                                        "returning '{}' from a function returning '{}'",
                                        et, ret_ty
                                    ),
                                ),
                                Compat::Error => self.error(
                                    self.ast[*e].span,
                                    format!(
                                        "returning '{}' from a function returning '{}'",
                                        et, ret_ty
                                    ),
                                ),
                            }
                        }
                    }
                    None => {
                        if !ret_is_void {
                            self.warn(s.span, "non-void function returns without a value");
                        }
                    }
                }
            }
        }
    }

    fn check_condition(&mut self, e: impl ExprRef<'a>) {
        let e = e.resolve(self.ast);
        let t = self.check_expr(e);
        if !t.ty.decayed().is_scalar() {
            self.error(e.span, format!("condition has non-scalar type '{t}'"));
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn remember(&mut self, id: NodeId, qt: QType) -> QType {
        self.result.expr_types.insert(id, qt.clone());
        qt
    }

    fn check_expr(&mut self, e: impl ExprRef<'a>) -> QType {
        let e = e.resolve(self.ast);
        let qt = self.check_expr_inner(e);
        self.remember(e.id, qt)
    }

    fn check_expr_inner(&mut self, e: impl ExprRef<'a>) -> QType {
        let e = e.resolve(self.ast);
        match &e.kind {
            ExprKind::IntLit {
                value,
                unsigned,
                longs,
            } => {
                let out_of_int = *value > i32::MAX as i128 || *value < i32::MIN as i128;
                let width = if *longs >= 2 {
                    IntWidth::LongLong
                } else if *longs == 1 || out_of_int {
                    IntWidth::Long
                } else {
                    IntWidth::Int
                };
                QType::new(Type::Int {
                    width,
                    signed: !*unsigned,
                })
            }
            ExprKind::FloatLit { single, .. } => QType::new(Type::Float(if *single {
                FloatWidth::F32
            } else {
                FloatWidth::F64
            })),
            ExprKind::CharLit { .. } => QType::int(),
            ExprKind::StrLit { value } => QType::new(Type::Array(
                Box::new(QType::new(Type::char_())),
                Some(value.len() as u64 + 1),
            )),
            ExprKind::Ident(n) => match self.lookup(n) {
                Some(sym) => sym.qty.clone(),
                None => match self.use_builtin(n) {
                    Some(qt) => qt,
                    None => {
                        self.error(e.span, format!("use of undeclared identifier '{n}'"));
                        QType::int()
                    }
                },
            },
            ExprKind::Unary { op, operand } => self.check_unary(e, *op, operand),
            ExprKind::Binary { op, lhs, rhs } => self.check_binary(e, *op, lhs, rhs),
            ExprKind::Assign { op, lhs, rhs } => self.check_assign(e, *op, lhs, rhs),
            ExprKind::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                self.check_condition(cond);
                let t = self.check_expr(then_expr).decayed();
                let f = self.check_expr(else_expr).decayed();
                if t.ty.is_arithmetic() && f.ty.is_arithmetic() {
                    QType::new(usual_arithmetic(&t.ty, &f.ty))
                } else if t.ty == f.ty {
                    t
                } else if t.ty.is_pointer() && f.ty.is_pointer() {
                    self.warn(e.span, "pointer type mismatch in conditional expression");
                    t
                } else if t.ty.is_pointer() && f.ty.is_integer() {
                    self.warn(e.span, "pointer/integer type mismatch in conditional");
                    t
                } else if f.ty.is_pointer() && t.ty.is_integer() {
                    self.warn(e.span, "pointer/integer type mismatch in conditional");
                    f
                } else if t.ty.is_void() || f.ty.is_void() {
                    QType::void()
                } else {
                    self.error(e.span, "incompatible operand types in conditional");
                    t
                }
            }
            ExprKind::Call { callee, args } => self.check_call(e, callee, args),
            ExprKind::Index { base, index } => {
                let bt = self.check_expr(base).decayed();
                let it = self.check_expr(index).decayed();
                // C permits idx[ptr]; normalize.
                let (pt, ix) = if bt.ty.is_pointer() {
                    (bt, it)
                } else {
                    (it, bt)
                };
                if !ix.ty.is_integer() {
                    self.error(self.ast[*index].span, "array subscript is not an integer");
                }
                match pt.ty.pointee() {
                    Some(inner) => {
                        if inner.ty.is_void() {
                            self.error(e.span, "subscript of pointer to void");
                        }
                        inner.clone()
                    }
                    None => {
                        self.error(e.span, "subscripted value is not an array or pointer");
                        QType::int()
                    }
                }
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                let member_span = e.member_span().unwrap_or(e.span);
                let bt = self.check_expr(base);
                let rec_ty = if *arrow {
                    match bt.ty.decayed().pointee() {
                        Some(p) => p.ty.clone(),
                        None => {
                            self.error(
                                self.ast[*base].span,
                                "member reference '->' on non-pointer",
                            );
                            return QType::int();
                        }
                    }
                } else {
                    bt.ty.clone()
                };
                match &rec_ty {
                    Type::Record { tag, .. } => {
                        let info = self.result.records.get(tag);
                        let incomplete = info.map(|r| r.fields.is_none()).unwrap_or(true);
                        match info.and_then(|r| r.field(member).cloned()) {
                            Some(ft) => ft,
                            None => {
                                if incomplete {
                                    self.error(
                                        member_span,
                                        format!(
                                            "member access into incomplete type 'struct {tag}'"
                                        ),
                                    );
                                } else {
                                    self.error(
                                        member_span,
                                        format!("no member named '{member}' in 'struct {tag}'"),
                                    );
                                }
                                QType::int()
                            }
                        }
                    }
                    _ => {
                        self.error(
                            self.ast[*base].span,
                            format!("member reference base type '{rec_ty}' is not a structure"),
                        );
                        QType::int()
                    }
                }
            }
            ExprKind::Cast { ty, expr } => {
                let target = self.lower_ty(&ty.ty, ty.span);
                let src = self.check_expr(expr).decayed();
                if target.ty.is_record() || src.ty.is_record() {
                    if target.ty != src.ty {
                        self.error(e.span, "cast to/from structure type");
                    }
                } else if target.ty.is_array() {
                    self.error(e.span, "cast to array type");
                } else if target.ty.is_void() {
                    // (void)x — fine.
                } else if !target.ty.is_scalar() && !target.ty.is_void() {
                    self.error(e.span, format!("cast to non-scalar type '{target}'"));
                } else if src.ty.is_void() {
                    self.error(
                        self.ast[*expr].span,
                        "cast of void expression to non-void type",
                    );
                } else if (target.ty.is_pointer() && (src.ty.is_floating() || src.ty.is_complex()))
                    || (src.ty.is_pointer() && (target.ty.is_floating() || target.ty.is_complex()))
                {
                    self.error(e.span, "cast between pointer and floating type");
                }
                target
            }
            ExprKind::CompoundLit { ty, init } => {
                let target = self.lower_ty(&ty.ty, ty.span);
                self.check_initializer(&target, init, false);
                target
            }
            ExprKind::SizeofExpr(inner) => {
                self.check_expr(inner);
                QType::new(Type::Int {
                    width: IntWidth::Long,
                    signed: false,
                })
            }
            ExprKind::SizeofType(ty) => {
                self.lower_ty(&ty.ty, ty.span);
                QType::new(Type::Int {
                    width: IntWidth::Long,
                    signed: false,
                })
            }
            ExprKind::Comma { lhs, rhs } => {
                self.check_expr(lhs);
                self.check_expr(rhs)
            }
            ExprKind::Paren(inner) => self.check_expr(inner),
        }
    }

    fn check_unary(
        &mut self,
        e: impl ExprRef<'a>,
        op: UnaryOp,
        operand: impl ExprRef<'a>,
    ) -> QType {
        let e = e.resolve(self.ast);
        let operand = operand.resolve(self.ast);
        let ot = self.check_expr(operand);
        match op {
            UnaryOp::Plus | UnaryOp::Minus => {
                let d = ot.decayed();
                if !d.ty.is_arithmetic() {
                    self.error(
                        operand.span,
                        format!("invalid operand type '{d}' to unary {}", op.spelling()),
                    );
                    return QType::int();
                }
                QType::new(d.ty.promoted())
            }
            UnaryOp::Not => {
                let d = ot.decayed();
                if !d.ty.is_scalar() {
                    self.error(operand.span, "invalid operand to logical not");
                }
                QType::int()
            }
            UnaryOp::BitNot => {
                let d = ot.decayed();
                if !d.ty.is_integer() {
                    self.error(operand.span, "invalid operand to bitwise not");
                    return QType::int();
                }
                QType::new(d.ty.promoted())
            }
            UnaryOp::Deref => {
                let d = ot.decayed();
                match d.ty.pointee() {
                    Some(p) if p.ty.is_void() => {
                        self.error(e.span, "dereferencing 'void *' pointer");
                        QType::int()
                    }
                    Some(p) => p.clone(),
                    None => {
                        self.error(
                            operand.span,
                            format!("indirection requires pointer operand ('{d}' invalid)"),
                        );
                        QType::int()
                    }
                }
            }
            UnaryOp::AddrOf => {
                let inner = operand.unparenthesized(self.ast);
                let takes_fn = matches!(&ot.ty, Type::Function { .. });
                if !inner.is_lvalue_shaped(self.ast)
                    && !takes_fn
                    && !matches!(
                        inner.kind,
                        ExprKind::CompoundLit { .. }
                            | ExprKind::Unary {
                                op: UnaryOp::Real | UnaryOp::Imag,
                                ..
                            }
                    )
                {
                    self.error(e.span, "cannot take the address of an rvalue");
                }
                ot.pointer_to()
            }
            UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec => {
                if !operand.is_lvalue_shaped(self.ast) {
                    self.error(e.span, "expression is not assignable");
                }
                if self.lvalue_is_const(operand) {
                    self.error(e.span, "cannot modify a const-qualified value");
                }
                let d = ot.decayed();
                if !d.ty.is_scalar() {
                    self.error(operand.span, "invalid operand to increment/decrement");
                }
                ot.unqualified()
            }
            UnaryOp::Real | UnaryOp::Imag => {
                let d = ot.decayed();
                match &d.ty {
                    Type::Complex(w) => QType::new(Type::Float(*w)),
                    t if t.is_arithmetic() => QType::new(if t.is_floating() {
                        t.clone()
                    } else {
                        Type::double()
                    }),
                    _ => {
                        self.error(operand.span, "invalid operand to __real__/__imag__");
                        QType::double()
                    }
                }
            }
        }
    }

    fn check_binary(
        &mut self,
        e: impl ExprRef<'a>,
        op: BinaryOp,
        lhs: impl ExprRef<'a>,
        rhs: impl ExprRef<'a>,
    ) -> QType {
        let e = e.resolve(self.ast);
        let lhs = lhs.resolve(self.ast);
        let rhs = rhs.resolve(self.ast);
        let lt = self.check_expr(lhs).decayed();
        let rt = self.check_expr(rhs).decayed();
        self.binary_result(e.span, op, &lt, &rt)
    }

    /// Shared binop constraint logic for plain and compound operators.
    fn binary_result(&mut self, span: Span, op: BinaryOp, lt: &QType, rt: &QType) -> QType {
        use BinaryOp::*;
        if op.requires_integers() {
            if !lt.ty.is_integer() || !rt.ty.is_integer() {
                self.error(
                    span,
                    format!(
                        "invalid operands to binary {} ('{}' and '{}')",
                        op.spelling(),
                        lt,
                        rt
                    ),
                );
                return QType::int();
            }
            return QType::new(usual_arithmetic(&lt.ty, &rt.ty));
        }
        match op {
            Add => {
                if lt.ty.is_arithmetic() && rt.ty.is_arithmetic() {
                    QType::new(usual_arithmetic(&lt.ty, &rt.ty))
                } else if lt.ty.is_pointer() && rt.ty.is_integer() {
                    lt.clone()
                } else if rt.ty.is_pointer() && lt.ty.is_integer() {
                    rt.clone()
                } else {
                    self.error(
                        span,
                        format!("invalid operands to binary + ('{lt}' and '{rt}')"),
                    );
                    QType::int()
                }
            }
            Sub => {
                if lt.ty.is_arithmetic() && rt.ty.is_arithmetic() {
                    QType::new(usual_arithmetic(&lt.ty, &rt.ty))
                } else if lt.ty.is_pointer() && rt.ty.is_integer() {
                    lt.clone()
                } else if lt.ty.is_pointer() && rt.ty.is_pointer() {
                    QType::new(Type::Int {
                        width: IntWidth::Long,
                        signed: true,
                    })
                } else {
                    self.error(
                        span,
                        format!("invalid operands to binary - ('{lt}' and '{rt}')"),
                    );
                    QType::int()
                }
            }
            Mul | Div => {
                if lt.ty.is_arithmetic() && rt.ty.is_arithmetic() {
                    QType::new(usual_arithmetic(&lt.ty, &rt.ty))
                } else {
                    self.error(
                        span,
                        format!(
                            "invalid operands to binary {} ('{}' and '{}')",
                            op.spelling(),
                            lt,
                            rt
                        ),
                    );
                    QType::int()
                }
            }
            Lt | Gt | Le | Ge | Eq | Ne => {
                let both_arith = lt.ty.is_arithmetic() && rt.ty.is_arithmetic();
                let both_ptr = lt.ty.is_pointer() && rt.ty.is_pointer();
                let ptr_int = (lt.ty.is_pointer() && rt.ty.is_integer())
                    || (rt.ty.is_pointer() && lt.ty.is_integer());
                if both_arith || both_ptr {
                    // fine (possibly warn on distinct pointees — skip)
                } else if ptr_int {
                    self.warn(span, "comparison between pointer and integer");
                } else {
                    self.error(
                        span,
                        format!(
                            "invalid operands to binary {} ('{}' and '{}')",
                            op.spelling(),
                            lt,
                            rt
                        ),
                    );
                }
                QType::int()
            }
            LogAnd | LogOr => {
                if !lt.ty.is_scalar() || !rt.ty.is_scalar() {
                    self.error(span, "invalid operands to logical operator");
                }
                QType::int()
            }
            _ => unreachable!("integer-only ops handled above"),
        }
    }

    fn check_assign(
        &mut self,
        e: impl ExprRef<'a>,
        op: Option<BinaryOp>,
        lhs: impl ExprRef<'a>,
        rhs: impl ExprRef<'a>,
    ) -> QType {
        let (e, lhs, rhs) = (
            e.resolve(self.ast),
            lhs.resolve(self.ast),
            rhs.resolve(self.ast),
        );
        let lt = self.check_expr(lhs);
        let rt = self.check_expr(rhs).decayed();
        if !lhs.is_lvalue_shaped(self.ast) {
            self.error(e.span, "expression is not assignable");
            return lt.unqualified();
        }
        if self.lvalue_is_const(lhs) {
            self.error(
                e.span,
                "cannot assign to a variable with const-qualified type",
            );
        }
        if lt.ty.is_array() {
            self.error(e.span, "array type is not assignable");
            return lt.unqualified();
        }
        let value_ty = match op {
            None => rt,
            Some(op) => {
                let ld = lt.decayed();
                self.binary_result(e.span, op, &ld, &rt)
            }
        };
        match assign_compat(&lt.ty, &value_ty.ty) {
            Compat::Ok => {}
            Compat::Warn => self.warn(e.span, format!("assigning '{value_ty}' to '{lt}'")),
            Compat::Error => self.error(
                e.span,
                format!("assigning '{value_ty}' to incompatible type '{lt}'"),
            ),
        }
        lt.unqualified()
    }

    fn check_call(
        &mut self,
        e: impl ExprRef<'a>,
        callee: impl ExprRef<'a>,
        args: &'a [ExprId],
    ) -> QType {
        let e = e.resolve(self.ast);
        let callee = callee.resolve(self.ast);
        // Implicit function declaration for unknown identifiers (C89-style).
        let callee_ty = if let ExprKind::Ident(name) = &callee.unparenthesized(self.ast).kind {
            let scoped = self
                .lookup(name)
                .map(|sym| sym.qty.clone())
                .or_else(|| self.use_builtin(name));
            match scoped {
                Some(qt) => {
                    self.remember(callee.id, qt.clone());
                    qt
                }
                None => {
                    self.warn(
                        callee.span,
                        format!("implicit declaration of function '{name}'"),
                    );
                    let fty = Type::Function {
                        ret: Box::new(QType::int()),
                        params: vec![],
                        variadic: false,
                        unprototyped: true,
                    };
                    let qt = QType::new(fty);
                    self.result.functions.insert(
                        name.clone(),
                        FuncSig {
                            name: name.clone(),
                            ret: QType::int(),
                            params: vec![],
                            param_names: vec![],
                            variadic: false,
                            unprototyped: true,
                            defined: false,
                            node: None,
                        },
                    );
                    self.scopes[0].symbols.insert(
                        name,
                        Symbol {
                            qty: qt.clone(),
                            kind: SymbolKind::Func,
                            node: None,
                        },
                    );
                    self.remember(callee.id, qt.clone());
                    qt
                }
            }
        } else {
            self.check_expr(callee)
        };

        // Unwrap function or pointer-to-function.
        let fty = match &callee_ty.ty {
            Type::Function { .. } => callee_ty.ty.clone(),
            Type::Pointer(p) if p.ty.is_function() => p.ty.clone(),
            other => {
                self.error(
                    callee.span,
                    format!("called object type '{other}' is not a function"),
                );
                for a in args {
                    self.check_expr(a);
                }
                return QType::int();
            }
        };
        let Type::Function {
            ret,
            params,
            variadic,
            unprototyped,
        } = fty
        else {
            unreachable!()
        };

        let arg_types: Vec<QType> = args.iter().map(|a| self.check_expr(a).decayed()).collect();
        if !unprototyped {
            if variadic {
                if arg_types.len() < params.len() {
                    self.error(e.span, "too few arguments to function call");
                }
            } else if arg_types.len() != params.len() {
                self.error(
                    e.span,
                    format!(
                        "expected {} argument(s), got {}",
                        params.len(),
                        arg_types.len()
                    ),
                );
            }
            for (i, (p, a)) in params.iter().zip(&arg_types).enumerate() {
                match assign_compat(&p.ty, &a.ty) {
                    Compat::Ok => {}
                    Compat::Warn => self.warn(
                        self.ast[args[i]].span,
                        format!("passing '{a}' to parameter of type '{p}'"),
                    ),
                    Compat::Error => self.error(
                        self.ast[args[i]].span,
                        format!("passing '{a}' to incompatible parameter of type '{p}'"),
                    ),
                }
            }
        }
        (*ret).clone()
    }

    /// Whether assigning through this l-value hits a const object.
    fn lvalue_is_const(&self, e: impl ExprRef<'a>) -> bool {
        let e = e.resolve(self.ast);
        match &e.kind {
            ExprKind::Ident(n) => self
                .lookup(n)
                .map(|s| s.qty.quals.is_const)
                .unwrap_or(false),
            ExprKind::Paren(inner) => self.lvalue_is_const(inner),
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
            } => {
                let ot = self.result.expr_types.get(self.ast[*operand].id);
                ot.and_then(|t| t.ty.decayed().pointee().cloned())
                    .map(|p| p.quals.is_const)
                    .unwrap_or(false)
            }
            ExprKind::Index { base, .. } => {
                let bt = self.result.expr_types.get(self.ast[*base].id);
                bt.and_then(|t| t.ty.decayed().pointee().cloned())
                    .map(|p| p.quals.is_const)
                    .unwrap_or(false)
            }
            ExprKind::Member {
                base,
                member,
                arrow,
                ..
            } => {
                let base_const = if *arrow {
                    self.result
                        .expr_types
                        .get(self.ast[*base].id)
                        .and_then(|t| t.ty.decayed().pointee().cloned())
                        .map(|p| p.quals.is_const)
                        .unwrap_or(false)
                } else {
                    self.lvalue_is_const(base)
                };
                let field_const = self
                    .result
                    .expr_types
                    .get(self.ast[*base].id)
                    .and_then(|t| {
                        let rec = if *arrow {
                            t.ty.decayed().pointee().map(|p| p.ty.clone())
                        } else {
                            Some(t.ty.clone())
                        }?;
                        self.result
                            .record_of(&rec)
                            .and_then(|r| r.field(member))
                            .map(|f| f.quals.is_const)
                    })
                    .unwrap_or(false);
                base_const || field_const
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Result<SemaResult, Diagnostics> {
        let ast = parse("t.c", src)?;
        analyze(&ast)
    }

    fn ok(src: &str) -> SemaResult {
        match check(src) {
            Ok(r) => r,
            Err(e) => panic!("sema failed for {src:?}:\n{e}"),
        }
    }

    fn errs(src: &str, needle: &str) {
        match check(src) {
            Ok(_) => panic!("expected sema error for {src:?}"),
            Err(ds) => {
                let joined = ds.to_string();
                assert!(
                    joined.contains(needle),
                    "expected error containing {needle:?}, got:\n{joined}"
                );
            }
        }
    }

    #[test]
    fn accepts_valid_program() {
        ok("int add(int a, int b) { return a + b; } int main(void) { return add(1, 2); }");
    }

    #[test]
    fn undeclared_identifier() {
        errs("int f(void) { return x; }", "undeclared identifier");
    }

    #[test]
    fn implicit_function_is_warning() {
        let r = ok("int f(void) { return g(); }");
        assert!(r
            .warnings
            .iter()
            .any(|d| d.message.contains("implicit declaration")));
    }

    #[test]
    fn void_value_not_ignored() {
        errs(
            "void v(void) {} int f(void) { int x = v(); return x; }",
            "cannot initialize",
        );
    }

    #[test]
    fn return_value_in_void_function() {
        errs("void f(void) { return 1; }", "return with a value");
    }

    #[test]
    fn assign_to_const() {
        errs(
            "int f(void) { const int x = 1; x = 2; return x; }",
            "const-qualified",
        );
    }

    #[test]
    fn assign_through_const_pointer() {
        errs("void f(const char *p) { *p = 'a'; }", "const-qualified");
    }

    #[test]
    fn struct_members() {
        ok("struct P { int x; int y; }; int f(struct P *p) { return p->x + p->y; }");
        errs(
            "struct P { int x; }; int f(struct P p) { return p.z; }",
            "no member named 'z'",
        );
        errs(
            "struct Q; int f(struct Q *p) { return p->x; }",
            "incomplete type",
        );
    }

    #[test]
    fn call_arity_checked() {
        errs(
            "int add(int a, int b) { return a + b; } int f(void) { return add(1); }",
            "argument",
        );
    }

    #[test]
    fn call_non_function() {
        errs("int x; int f(void) { return x(); }", "not a function");
    }

    #[test]
    fn integer_only_ops() {
        errs("int f(double d) { return d % 2; }", "invalid operands");
        ok("int f(int a) { return a % 2 ^ (a << 1); }");
    }

    #[test]
    fn pointer_arithmetic() {
        ok("int f(int *p, int n) { return *(p + n); }");
        errs(
            "int f(int *p, int *q) { return *(p * q); }",
            "invalid operands",
        );
        ok("long f(int *p, int *q) { return p - q; }");
    }

    #[test]
    fn switch_rules() {
        ok("int f(int n) { switch (n) { case 1: return 1; default: return 0; } }");
        errs(
            "int f(int n) { switch (n) { case 1: case 1: return 1; } return 0; }",
            "duplicate case",
        );
        errs(
            "int f(double d) { switch (d) { case 1: return 1; } return 0; }",
            "not an integer",
        );
        errs("int f(int n) { case 1: return n; }", "outside of switch");
    }

    #[test]
    fn break_continue_placement() {
        errs("void f(void) { break; }", "outside of loop");
        errs("void f(void) { continue; }", "outside of loop");
        ok("void f(void) { while (1) { break; } for (;;) continue; }");
    }

    #[test]
    fn labels_and_gotos() {
        ok("void f(void) { goto end; end: ; }");
        errs("void f(void) { goto nowhere; }", "undeclared label");
        errs("void f(void) { x: ; x: ; }", "redefinition of label");
    }

    #[test]
    fn typedef_resolution() {
        let r = ok("typedef unsigned long size_t; size_t n = 1; int f(void) { return (int)n; }");
        assert!(!r.decl_types.is_empty());
        errs("unknown_t x;", "expected");
    }

    #[test]
    fn enums() {
        let r = ok("enum E { A, B = 5, C }; int f(void) { return A + B + C; }");
        assert_eq!(r.enum_consts["A"], 0);
        assert_eq!(r.enum_consts["B"], 5);
        assert_eq!(r.enum_consts["C"], 6);
    }

    #[test]
    fn incomplete_var() {
        errs("struct S; struct S s;", "incomplete type");
        ok("struct S; struct S *p;");
    }

    #[test]
    fn scope_siblings_tracked() {
        let src = "void f(void) { int a = 1; int b = 2; { int c = 3; } a = b; }";
        let ast = parse("t.c", src).unwrap();
        let r = analyze(&ast).unwrap();
        // a and b share a scope; c is alone in the inner scope.
        let mut sizes: Vec<usize> = r.scope_vars.values().map(|v| v.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2]);
    }

    #[test]
    fn expr_types_recorded() {
        let src = "int f(int a) { return a + 1; }";
        let ast = parse("t.c", src).unwrap();
        let r = analyze(&ast).unwrap();
        assert!(!r.expr_types.is_empty());
        assert!(r.expr_types.values().any(|t| t.ty == Type::int()));
    }

    #[test]
    fn redefinition_checks() {
        errs("void f(void) { int x; int x; }", "redefinition");
        errs(
            "int f(void) { return 0; } int f(void) { return 1; }",
            "redefinition",
        );
        ok("int f(void); int f(void); int f(void) { return 0; }");
    }

    #[test]
    fn string_initializers() {
        ok("char buf[32] = \"hello\"; char *p = \"world\";");
    }

    #[test]
    fn scalar_brace_initializers() {
        errs("int x = {};", "empty scalar initializer");
        errs("void f(int *p) { *p = (int){{}, 0}; }", "");
        ok("int x = {3};");
    }

    #[test]
    fn complex_and_imag() {
        ok("_Complex double x; double f(void) { return __imag__ x; }");
        ok("_Complex double x; int *bar(void) { return (int *)&__imag__ x; }");
    }

    #[test]
    fn sprintf_case_study_shape() {
        // The GCC strlen-optimization case study mutant must compile with a
        // warning at most (const array passed where char* expected is the
        // interesting part — our model flags assigning to const instead).
        ok("static char buffer[32]; int test4(void) { return sprintf(buffer, \"%s\", \"bar\"); }");
    }

    #[test]
    fn builtin_sigs_present() {
        let r = ok("int main(void) { printf(\"%d\", 1); return 0; }");
        assert!(r.functions.contains_key("printf"));
        assert!(r.functions["printf"].variadic);
    }

    #[test]
    fn variadic_call_arity() {
        errs("int main(void) { return printf(); }", "too few arguments");
    }

    #[test]
    fn const_eval() {
        ok("int a[3 * 2 + 1]; enum { N = 4 }; int b[N];");
        errs("int a[-1];", "negative");
    }
}
