//! Structural program features consumed by the bug oracle and by the
//! front-end coverage instrumentation.
//!
//! Raw-text features are computed even for inputs that fail to lex or parse
//! (byte-level fuzzers live there); AST features require a successful parse.

use metamut_lang::ast as c;
use metamut_lang::ast::ExprRef;
use metamut_lang::fxhash::FxHashSet;
use metamut_lang::visit::{self, Visitor};

/// Features computable from the raw bytes, before any parsing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawFeatures {
    /// Source length in bytes.
    pub source_len: usize,
    /// Maximum nesting depth of round parentheses.
    pub max_paren_depth: usize,
    /// Maximum nesting depth of braces.
    pub max_brace_depth: usize,
    /// Longest identifier-like run.
    pub max_ident_len: usize,
    /// Longest double-quoted run (approximate string-literal length).
    pub max_string_len: usize,
    /// Longest digit run (approximate literal magnitude).
    pub max_digit_run: usize,
}

/// Scans raw program text.
pub fn raw_features(src: &str) -> RawFeatures {
    let mut f = RawFeatures {
        source_len: src.len(),
        ..Default::default()
    };
    let bytes = src.as_bytes();
    let mut paren = 0usize;
    let mut brace = 0usize;
    let mut ident = 0usize;
    let mut digits = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'(' => {
                paren += 1;
                f.max_paren_depth = f.max_paren_depth.max(paren);
            }
            b')' => paren = paren.saturating_sub(1),
            b'{' => {
                brace += 1;
                f.max_brace_depth = f.max_brace_depth.max(brace);
            }
            b'}' => brace = brace.saturating_sub(1),
            b'"' => {
                // Scan to the closing quote.
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' && bytes[j] != b'\n' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                f.max_string_len = f.max_string_len.max(j.saturating_sub(start));
                i = j;
            }
            _ => {}
        }
        if b.is_ascii_alphanumeric() || b == b'_' {
            if b.is_ascii_digit() {
                digits += 1;
                f.max_digit_run = f.max_digit_run.max(digits);
            } else {
                digits = 0;
            }
            ident += 1;
            f.max_ident_len = f.max_ident_len.max(ident);
        } else {
            ident = 0;
            digits = 0;
        }
        i += 1;
    }
    f
}

/// Per-function structural features.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnFeatures {
    /// Function name.
    pub name: String,
    /// Whether the return type is written `void`.
    pub void_ret: bool,
    /// Number of parameters.
    pub params: usize,
    /// Number of `return` statements in the body.
    pub returns: usize,
    /// Number of user labels.
    pub labels: usize,
    /// Number of `goto`s.
    pub gotos: usize,
    /// Number of call expressions.
    pub calls: usize,
    /// Number of local declarators.
    pub locals: usize,
}

/// Features computed over a parsed AST (no sema needed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AstFeatures {
    /// Top-level declarations.
    pub decl_count: usize,
    /// Function definitions.
    pub fn_count: usize,
    /// Maximum `case`/`default` labels in one switch.
    pub switch_max_cases: usize,
    /// Maximum conditional-operator nesting depth.
    pub ternary_depth: usize,
    /// Maximum initializer-list nesting depth.
    pub init_list_depth: usize,
    /// Maximum call argument count.
    pub call_max_args: usize,
    /// Maximum parameter count over all functions.
    pub param_max: usize,
    /// Whether a compound literal contains an empty brace list
    /// (the Clang #69213 shape).
    pub compound_lit_empty_brace: bool,
    /// Whether `&` is applied to a `__real__`/`__imag__` of a cast
    /// (the GCC #111819 shape).
    pub addr_of_imag_cast: bool,
    /// Count of `__real__`/`__imag__` uses.
    pub imag_real_uses: usize,
    /// Whether a comma expression appears inside a call argument.
    pub comma_in_call_arg: bool,
    /// Whether a constant division by zero is written.
    pub const_div_by_zero: bool,
    /// Count of volatile-qualified declarators.
    pub volatile_decls: usize,
    /// Whether a compound assignment targets a volatile-qualified
    /// declarator name.
    pub volatile_compound_assign: bool,
    /// Maximum bit-field width literal.
    pub max_bitfield_width: i64,
    /// Maximum expression-tree depth.
    pub max_expr_depth: usize,
    /// Longest chain of stacked unary `-`/`~`/`!` operators.
    pub max_unary_chain: usize,
    /// Occurrences of arithmetic identities `(e + 0)` / `(e * 1)` /
    /// `(e - 0)` / `(0 + e)` with a literal operand.
    pub identity_arith_count: usize,
    /// Comma expressions in the program.
    pub comma_expr_count: usize,
    /// `if (0)`-guarded branches (dead code injected for the optimizer).
    pub dead_if0_count: usize,
    /// Maximum loop-nesting depth.
    pub max_loop_depth: usize,
    /// File-scope typedef declarations.
    pub typedef_count: usize,
    /// Declarations carrying the `static` storage class.
    pub static_count: usize,
    /// Per-function features.
    pub functions: Vec<FnFeatures>,
}

impl AstFeatures {
    /// The features of the named function, if present.
    pub fn function(&self, name: &str) -> Option<&FnFeatures> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Computes AST features.
pub fn ast_features(ast: &c::Ast) -> AstFeatures {
    let mut typedef_count = 0;
    let mut static_count = 0;
    for d in &ast.unit.decls {
        match d {
            c::ExternalDecl::Typedef(_) => typedef_count += 1,
            c::ExternalDecl::Function(f) if f.storage == c::Storage::Static => static_count += 1,
            c::ExternalDecl::Vars(g) => {
                static_count += g
                    .vars
                    .iter()
                    .filter(|v| v.storage == c::Storage::Static)
                    .count();
            }
            _ => {}
        }
    }
    let mut v = FeatureVisitor {
        ast,
        out: AstFeatures {
            decl_count: ast.unit.decls.len(),
            typedef_count,
            static_count,
            ..Default::default()
        },
        ternary: 0,
        init_depth: 0,
        expr_depth: 0,
        unary_chain: 0,
        loop_depth: 0,
        cur_fn: None,
        volatile_names: Default::default(),
    };
    v.visit_unit(&ast.unit);
    v.out
}

struct FeatureVisitor<'a> {
    ast: &'a c::Ast,
    out: AstFeatures,
    ternary: usize,
    init_depth: usize,
    expr_depth: usize,
    unary_chain: usize,
    loop_depth: usize,
    cur_fn: Option<FnFeatures>,
    volatile_names: FxHashSet<c::Name>,
}

impl<'a> Visitor<'a> for FeatureVisitor<'a> {
    fn ast(&self) -> &'a c::Ast {
        self.ast
    }

    fn visit_function(&mut self, f: &'a c::FunctionDef) {
        self.out.param_max = self.out.param_max.max(f.params.len());
        if f.is_definition() {
            self.out.fn_count += 1;
            let prev = self.cur_fn.replace(FnFeatures {
                name: f.name.to_string(),
                void_ret: f.ret_ty.is_void(),
                params: f.params.len(),
                ..Default::default()
            });
            visit::walk_function(self, f);
            if let Some(cur) = self.cur_fn.take() {
                self.out.functions.push(cur);
            }
            self.cur_fn = prev;
        } else {
            visit::walk_function(self, f);
        }
    }

    fn visit_var_decl(&mut self, v: &'a c::VarDecl) {
        if let Some(cur) = &mut self.cur_fn {
            cur.locals += 1;
        }
        if let c::TySyn::Base { quals, .. } | c::TySyn::Pointer { quals, .. } = &v.ty {
            if quals.is_volatile {
                self.out.volatile_decls += 1;
                self.volatile_names.insert(v.name.clone());
            }
        }
        visit::walk_var_decl(self, v);
    }

    fn visit_field(&mut self, f: &'a c::FieldDecl) {
        if let Some(w) = &f.bit_width {
            if let c::ExprKind::IntLit { value, .. } = self.ast[*w].kind {
                self.out.max_bitfield_width = self.out.max_bitfield_width.max(value as i64);
            }
        }
        visit::walk_field(self, f);
    }

    fn visit_stmt(&mut self, s: &'a c::Stmt) {
        if matches!(
            s.kind,
            c::StmtKind::For { .. } | c::StmtKind::While { .. } | c::StmtKind::DoWhile { .. }
        ) {
            self.loop_depth += 1;
            self.out.max_loop_depth = self.out.max_loop_depth.max(self.loop_depth);
            visit::walk_stmt(self, s);
            self.loop_depth -= 1;
            return;
        }
        match &s.kind {
            c::StmtKind::If { cond, .. } => {
                if matches!(
                    self.ast[*cond].unparenthesized(self.ast).kind,
                    c::ExprKind::IntLit { value: 0, .. }
                ) {
                    self.out.dead_if0_count += 1;
                }
            }
            c::StmtKind::Switch { body, .. } => {
                let labels = count_switch_labels(self.ast, body);
                self.out.switch_max_cases = self.out.switch_max_cases.max(labels);
            }
            c::StmtKind::Return(_) => {
                if let Some(cur) = &mut self.cur_fn {
                    cur.returns += 1;
                }
            }
            c::StmtKind::Label { .. } => {
                if let Some(cur) = &mut self.cur_fn {
                    cur.labels += 1;
                }
            }
            c::StmtKind::Goto { .. } => {
                if let Some(cur) = &mut self.cur_fn {
                    cur.gotos += 1;
                }
            }
            _ => {}
        }
        visit::walk_stmt(self, s);
    }

    fn visit_expr(&mut self, e: &'a c::Expr) {
        self.expr_depth += 1;
        self.out.max_expr_depth = self.out.max_expr_depth.max(self.expr_depth);
        let in_unary = matches!(
            &e.kind,
            c::ExprKind::Unary {
                op: c::UnaryOp::Minus | c::UnaryOp::Not | c::UnaryOp::BitNot,
                ..
            }
        );
        if in_unary {
            self.unary_chain += 1;
            self.out.max_unary_chain = self.out.max_unary_chain.max(self.unary_chain);
        } else if !matches!(e.kind, c::ExprKind::Paren(_)) {
            self.unary_chain = 0;
        }
        self.visit_expr_inner(e);
        self.expr_depth -= 1;
        if in_unary {
            self.unary_chain = self.unary_chain.saturating_sub(1);
        }
    }

    fn visit_initializer(&mut self, i: &'a c::Initializer) {
        if let c::Initializer::List { .. } = i {
            self.init_depth += 1;
            self.out.init_list_depth = self.out.init_list_depth.max(self.init_depth);
            visit::walk_initializer(self, i);
            self.init_depth -= 1;
            return;
        }
        visit::walk_initializer(self, i);
    }
}

impl<'a> FeatureVisitor<'a> {
    fn visit_expr_inner(&mut self, e: impl ExprRef<'a>) {
        let e = e.resolve(self.ast);
        match &e.kind {
            c::ExprKind::Comma { .. } => {
                self.out.comma_expr_count += 1;
            }
            c::ExprKind::Binary { op, lhs, rhs } => {
                let lit_zero = |x: &c::Expr| {
                    matches!(
                        x.unparenthesized(self.ast).kind,
                        c::ExprKind::IntLit { value: 0, .. }
                    )
                };
                let lit_one = |x: &c::Expr| {
                    matches!(
                        x.unparenthesized(self.ast).kind,
                        c::ExprKind::IntLit { value: 1, .. }
                    )
                };
                let identity = match op {
                    c::BinaryOp::Add => lit_zero(&self.ast[*lhs]) || lit_zero(&self.ast[*rhs]),
                    c::BinaryOp::Sub => lit_zero(&self.ast[*rhs]),
                    c::BinaryOp::Mul => lit_one(&self.ast[*lhs]) || lit_one(&self.ast[*rhs]),
                    _ => false,
                };
                if identity {
                    self.out.identity_arith_count += 1;
                }
            }
            _ => {}
        }
        match &e.kind {
            c::ExprKind::Cond { .. } => {
                self.ternary += 1;
                self.out.ternary_depth = self.out.ternary_depth.max(self.ternary);
                visit::walk_expr(self, e);
                self.ternary -= 1;
                return;
            }
            c::ExprKind::Call { args, .. } => {
                if let Some(cur) = &mut self.cur_fn {
                    cur.calls += 1;
                }
                self.out.call_max_args = self.out.call_max_args.max(args.len());
                if args.iter().any(|a| {
                    matches!(
                        self.ast[*a].unparenthesized(self.ast).kind,
                        c::ExprKind::Comma { .. }
                    )
                }) {
                    self.out.comma_in_call_arg = true;
                }
            }
            c::ExprKind::CompoundLit { init, .. } => {
                if let c::Initializer::List { items, .. } = init.as_ref() {
                    if items.iter().any(
                        |i| matches!(i, c::Initializer::List { items, .. } if items.is_empty()),
                    ) {
                        self.out.compound_lit_empty_brace = true;
                    }
                }
            }
            c::ExprKind::Unary { op, operand } => {
                if matches!(op, c::UnaryOp::Real | c::UnaryOp::Imag) {
                    self.out.imag_real_uses += 1;
                }
                if *op == c::UnaryOp::AddrOf {
                    if let c::ExprKind::Unary {
                        op: c::UnaryOp::Real | c::UnaryOp::Imag,
                        operand: inner,
                    } = &self.ast[*operand].unparenthesized(self.ast).kind
                    {
                        if contains_cast(self.ast, inner) {
                            self.out.addr_of_imag_cast = true;
                        }
                    }
                }
            }
            c::ExprKind::Binary {
                op: c::BinaryOp::Div | c::BinaryOp::Rem,
                rhs,
                ..
            } => {
                if matches!(
                    self.ast[*rhs].unparenthesized(self.ast).kind,
                    c::ExprKind::IntLit { value: 0, .. }
                ) {
                    self.out.const_div_by_zero = true;
                }
            }
            c::ExprKind::Assign {
                op: Some(_), lhs, ..
            } => {
                if let c::ExprKind::Ident(n) = &self.ast[*lhs].unparenthesized(self.ast).kind {
                    if self.volatile_names.contains(n) {
                        self.out.volatile_compound_assign = true;
                    }
                }
            }
            _ => {}
        }
        visit::walk_expr(self, e);
    }
}

fn contains_cast<'a>(ast: &'a c::Ast, e: impl ExprRef<'a>) -> bool {
    let e = e.resolve(ast);
    match &e.kind {
        c::ExprKind::Cast { .. } => true,
        c::ExprKind::Paren(inner) => contains_cast(ast, inner),
        c::ExprKind::Unary { operand, .. } => contains_cast(ast, operand),
        c::ExprKind::Binary { lhs, rhs, .. } => contains_cast(ast, lhs) || contains_cast(ast, rhs),
        _ => false,
    }
}

fn count_switch_labels(ast: &c::Ast, s: &c::Stmt) -> usize {
    struct C<'a>(&'a c::Ast, usize);
    impl<'a> Visitor<'a> for C<'a> {
        fn ast(&self) -> &'a c::Ast {
            self.0
        }

        fn visit_stmt(&mut self, s: &'a c::Stmt) {
            if matches!(
                s.kind,
                c::StmtKind::Case { .. } | c::StmtKind::Default { .. }
            ) {
                self.1 += 1;
            }
            visit::walk_stmt(self, s);
        }
    }
    let mut c = C(ast, 0);
    c.visit_stmt(s);
    c.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::parse;

    #[test]
    fn raw_depths() {
        let f = raw_features("((((x)))) { { } } \"hello world\" abcdefghijklmnop 123456");
        assert_eq!(f.max_paren_depth, 4);
        assert_eq!(f.max_brace_depth, 2);
        assert_eq!(f.max_string_len, 11);
        assert_eq!(f.max_ident_len, 16);
        assert_eq!(f.max_digit_run, 6);
    }

    #[test]
    fn raw_handles_garbage() {
        // Must never panic on arbitrary bytes.
        let f = raw_features(")))}}}\"unterminated");
        assert_eq!(f.max_paren_depth, 0);
        assert!(f.max_string_len >= 12);
    }

    #[test]
    fn per_function_features() {
        let src = r#"
void walker(int x[4], int y[4]) {
    helper(x, y);
gt:
    ;
lt:
    ;
}
int normal(int a) { if (a) goto out; return a; out: return 0; }
"#;
        let ast = parse("t.c", src).unwrap();
        let f = ast_features(&ast);
        let walker = f.function("walker").unwrap();
        assert!(walker.void_ret);
        assert_eq!(walker.labels, 2);
        assert_eq!(walker.returns, 0);
        assert_eq!(walker.calls, 1);
        let normal = f.function("normal").unwrap();
        assert_eq!(normal.returns, 2);
        assert_eq!(normal.gotos, 1);
        assert_eq!(normal.labels, 1);
    }

    #[test]
    fn bug_shape_features() {
        let ast = parse(
            "t.c",
            "_Complex double x; long long c; int *bar(void) { return (int *)&__imag__ ((_Complex double *)((char *)&c + 16)); }",
        )
        .unwrap();
        let f = ast_features(&ast);
        assert!(f.addr_of_imag_cast, "{f:?}");
        assert!(f.imag_real_uses >= 1);

        let ast2 = parse("t.c", "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }").unwrap();
        let f2 = ast_features(&ast2);
        assert!(f2.compound_lit_empty_brace, "{f2:?}");
    }

    #[test]
    fn misc_features() {
        let src = r#"
volatile int v;
struct B { unsigned w : 30; };
int f(int a) {
    v += 2;
    int x = a / 0;
    g(1, (2, 3));
    switch (a) { case 1: case 2: case 3: default: break; }
    return a ? (a ? 1 : 2) : 3;
}
"#;
        let ast = parse("t.c", src).unwrap();
        let f = ast_features(&ast);
        assert!(f.volatile_compound_assign, "{f:?}");
        assert!(f.const_div_by_zero);
        assert!(f.comma_in_call_arg);
        assert_eq!(f.switch_max_cases, 4);
        assert_eq!(f.ternary_depth, 2);
        assert_eq!(f.max_bitfield_width, 30);
        assert_eq!(f.volatile_decls, 1);
    }
}
