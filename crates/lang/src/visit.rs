//! Immutable AST visitors.
//!
//! The [`Visitor`] trait mirrors Clang's `RecursiveASTVisitor` shape used by
//! the paper's mutator template (Figure 2): a mutator overrides the hooks
//! for the node kinds it cares about and calls the `walk_*` helpers (or
//! relies on the default methods) to recurse. Like syn's `Visit<'ast>`, the
//! trait carries the lifetime of the tree it walks, so a visitor may keep
//! the `&'ast` references it is handed after the walk ends. The walk
//! reaches sub-expressions through the arena of the [`Ast`] the visitor
//! names in [`Visitor::ast`].

use crate::ast::*;

/// A read-only traversal over an AST that lives for `'ast`.
///
/// All methods default to recursing via the corresponding `walk_*` function;
/// override only what you need. Collection-style mutators typically override
/// `visit_expr`/`visit_stmt` and record `&'ast` borrows of the matching
/// nodes for later rewriting. A visitor that keeps nothing can implement
/// `Visitor<'_>` with elided-lifetime method signatures.
pub trait Visitor<'ast> {
    /// The tree being walked: its arena holds every expression the walk
    /// reaches.
    fn ast(&self) -> &'ast Ast;

    /// Visits a whole translation unit.
    fn visit_unit(&mut self, unit: &'ast TranslationUnit) {
        walk_unit(self, unit);
    }

    /// Visits one external declaration.
    fn visit_external_decl(&mut self, decl: &'ast ExternalDecl) {
        walk_external_decl(self, decl);
    }

    /// Visits a function definition or prototype.
    fn visit_function(&mut self, f: &'ast FunctionDef) {
        walk_function(self, f);
    }

    /// Visits a parameter declaration.
    fn visit_param(&mut self, p: &'ast ParamDecl) {
        walk_param(self, p);
    }

    /// Visits a variable declarator.
    fn visit_var_decl(&mut self, v: &'ast VarDecl) {
        walk_var_decl(self, v);
    }

    /// Visits a declaration group (local or global).
    fn visit_decl_group(&mut self, g: &'ast DeclGroup) {
        walk_decl_group(self, g);
    }

    /// Visits a struct/union declaration.
    fn visit_record(&mut self, r: &'ast RecordDecl) {
        walk_record(self, r);
    }

    /// Visits a field declaration.
    fn visit_field(&mut self, f: &'ast FieldDecl) {
        walk_field(self, f);
    }

    /// Visits an enum declaration.
    fn visit_enum(&mut self, e: &'ast EnumDecl) {
        walk_enum(self, e);
    }

    /// Visits a typedef declaration.
    fn visit_typedef(&mut self, t: &'ast TypedefDecl) {
        walk_typedef(self, t);
    }

    /// Visits a statement.
    fn visit_stmt(&mut self, s: &'ast Stmt) {
        walk_stmt(self, s);
    }

    /// Visits an expression.
    fn visit_expr(&mut self, e: &'ast Expr) {
        walk_expr(self, e);
    }

    /// Visits an initializer.
    fn visit_initializer(&mut self, i: &'ast Initializer) {
        walk_initializer(self, i);
    }

    /// Visits a syntactic type (e.g. inline record definitions).
    fn visit_ty(&mut self, ty: &'ast TySyn) {
        walk_ty(self, ty);
    }
}

/// Recurses into every declaration of `unit`.
pub fn walk_unit<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, unit: &'ast TranslationUnit) {
    for d in &unit.decls {
        v.visit_external_decl(d);
    }
}

/// Recurses into one external declaration.
pub fn walk_external_decl<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, decl: &'ast ExternalDecl) {
    match decl {
        ExternalDecl::Function(f) => v.visit_function(f),
        ExternalDecl::Vars(g) => v.visit_decl_group(g),
        ExternalDecl::Record(r) => v.visit_record(r),
        ExternalDecl::Enum(e) => v.visit_enum(e),
        ExternalDecl::Typedef(t) => v.visit_typedef(t),
    }
}

/// Recurses into a function's parameters and body.
pub fn walk_function<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, f: &'ast FunctionDef) {
    v.visit_ty(&f.ret_ty);
    for p in &f.params {
        v.visit_param(p);
    }
    if let Some(body) = &f.body {
        v.visit_stmt(body);
    }
}

/// Recurses into a parameter's type.
pub fn walk_param<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, p: &'ast ParamDecl) {
    v.visit_ty(&p.ty);
}

/// Recurses into a variable declarator's type and initializer.
pub fn walk_var_decl<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, var: &'ast VarDecl) {
    v.visit_ty(&var.ty);
    if let Some(init) = &var.init {
        v.visit_initializer(init);
    }
}

/// Recurses into each declarator of a group.
pub fn walk_decl_group<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, g: &'ast DeclGroup) {
    for var in &g.vars {
        v.visit_var_decl(var);
    }
}

/// Recurses into a record's fields.
pub fn walk_record<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, r: &'ast RecordDecl) {
    if let Some(fields) = &r.fields {
        for f in fields {
            v.visit_field(f);
        }
    }
}

/// Recurses into a field's type and bit width.
pub fn walk_field<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, f: &'ast FieldDecl) {
    v.visit_ty(&f.ty);
    if let Some(w) = f.bit_width {
        visit_id(v, w);
    }
}

/// Recurses into enumerator value expressions.
pub fn walk_enum<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, e: &'ast EnumDecl) {
    if let Some(es) = &e.enumerators {
        for en in es {
            if let Some(val) = en.value {
                visit_id(v, val);
            }
        }
    }
}

/// Recurses into a typedef's aliased type.
pub fn walk_typedef<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, t: &'ast TypedefDecl) {
    v.visit_ty(&t.ty);
}

/// Visits the expression `id` names in `v`'s tree.
fn visit_id<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, id: ExprId) {
    let ast = v.ast();
    v.visit_expr(&ast[id]);
}

/// Recurses into a statement's children.
pub fn walk_stmt<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, s: &'ast Stmt) {
    match &s.kind {
        StmtKind::Compound(items) => {
            for item in items {
                match item {
                    BlockItem::Decl(g) => v.visit_decl_group(g),
                    BlockItem::Stmt(st) => v.visit_stmt(st),
                }
            }
        }
        StmtKind::Expr(e) => visit_id(v, *e),
        StmtKind::Null | StmtKind::Break | StmtKind::Continue | StmtKind::Goto { .. } => {}
        StmtKind::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            visit_id(v, *cond);
            v.visit_stmt(then_stmt);
            if let Some(e) = else_stmt {
                v.visit_stmt(e);
            }
        }
        StmtKind::While { cond, body } => {
            visit_id(v, *cond);
            v.visit_stmt(body);
        }
        StmtKind::DoWhile { body, cond } => {
            v.visit_stmt(body);
            visit_id(v, *cond);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(init) = init {
                match init.as_ref() {
                    ForInit::Decl(g) => v.visit_decl_group(g),
                    ForInit::Expr(e) => visit_id(v, *e),
                }
            }
            if let Some(c) = cond {
                visit_id(v, *c);
            }
            if let Some(st) = step {
                visit_id(v, *st);
            }
            v.visit_stmt(body);
        }
        StmtKind::Switch { cond, body } => {
            visit_id(v, *cond);
            v.visit_stmt(body);
        }
        StmtKind::Case { expr, stmt } => {
            visit_id(v, *expr);
            v.visit_stmt(stmt);
        }
        StmtKind::Default { stmt } | StmtKind::Label { stmt, .. } => v.visit_stmt(stmt),
        StmtKind::Return(value) => {
            if let Some(e) = value {
                visit_id(v, *e);
            }
        }
    }
}

/// Recurses into an expression's children.
pub fn walk_expr<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, e: &'ast Expr) {
    match &e.kind {
        ExprKind::IntLit { .. }
        | ExprKind::FloatLit { .. }
        | ExprKind::CharLit { .. }
        | ExprKind::StrLit { .. }
        | ExprKind::Ident(_) => {}
        ExprKind::Unary { operand, .. } => visit_id(v, *operand),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            visit_id(v, *lhs);
            visit_id(v, *rhs);
        }
        ExprKind::Cond {
            cond,
            then_expr,
            else_expr,
        } => {
            visit_id(v, *cond);
            visit_id(v, *then_expr);
            visit_id(v, *else_expr);
        }
        ExprKind::Call { callee, args } => {
            visit_id(v, *callee);
            for &a in args {
                visit_id(v, a);
            }
        }
        ExprKind::Index { base, index } => {
            visit_id(v, *base);
            visit_id(v, *index);
        }
        ExprKind::Member { base, .. } => visit_id(v, *base),
        ExprKind::Cast { ty, expr } => {
            v.visit_ty(&ty.ty);
            visit_id(v, *expr);
        }
        ExprKind::CompoundLit { ty, init } => {
            v.visit_ty(&ty.ty);
            v.visit_initializer(init);
        }
        ExprKind::SizeofExpr(inner) => visit_id(v, *inner),
        ExprKind::SizeofType(ty) => v.visit_ty(&ty.ty),
        ExprKind::Comma { lhs, rhs } => {
            visit_id(v, *lhs);
            visit_id(v, *rhs);
        }
        ExprKind::Paren(inner) => visit_id(v, *inner),
    }
}

/// Recurses into an initializer.
pub fn walk_initializer<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, i: &'ast Initializer) {
    match i {
        Initializer::Expr(e) => visit_id(v, *e),
        Initializer::List { items, .. } => {
            for item in items {
                v.visit_initializer(item);
            }
        }
    }
}

/// Recurses into a syntactic type (array sizes, inline definitions,
/// function parameter types).
pub fn walk_ty<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, ty: &'ast TySyn) {
    match ty {
        TySyn::Base { spec, .. } => match spec {
            TypeSpecifier::RecordDef(r) => v.visit_record(r),
            TypeSpecifier::EnumDef(e) => v.visit_enum(e),
            _ => {}
        },
        TySyn::Pointer { pointee, .. } => v.visit_ty(pointee),
        TySyn::Array { elem, size } => {
            v.visit_ty(elem);
            if let Some(sz) = size {
                visit_id(v, *sz);
            }
        }
        TySyn::Function { ret, params, .. } => {
            v.visit_ty(ret);
            for p in params {
                v.visit_param(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    struct Counter<'a> {
        ast: &'a Ast,
        exprs: usize,
        stmts: usize,
        vars: usize,
        calls: usize,
    }

    impl<'a> Counter<'a> {
        fn new(ast: &'a Ast) -> Self {
            Counter {
                ast,
                exprs: 0,
                stmts: 0,
                vars: 0,
                calls: 0,
            }
        }
    }

    impl<'a> Visitor<'a> for Counter<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_expr(&mut self, e: &'a Expr) {
            self.exprs += 1;
            if matches!(e.kind, ExprKind::Call { .. }) {
                self.calls += 1;
            }
            walk_expr(self, e);
        }

        fn visit_stmt(&mut self, s: &'a Stmt) {
            self.stmts += 1;
            walk_stmt(self, s);
        }

        fn visit_var_decl(&mut self, v: &'a VarDecl) {
            self.vars += 1;
            walk_var_decl(self, v);
        }
    }

    #[test]
    fn counts_nodes() {
        let ast = parse(
            "t.c",
            "int f(int a) { int x = a + 1; if (x) { f(x - 1); } return x; }",
        )
        .unwrap();
        let mut c = Counter::new(&ast);
        c.visit_unit(&ast.unit);
        assert_eq!(c.vars, 1);
        assert_eq!(c.calls, 1);
        assert!(c.stmts >= 5, "stmts = {}", c.stmts);
        assert!(c.exprs >= 8, "exprs = {}", c.exprs);
    }

    #[test]
    fn visits_inline_records() {
        let ast = parse(
            "t.c",
            "struct S { int a; } s; void f(void) { s.a = sizeof(struct S); }",
        )
        .unwrap();
        struct Records<'a>(&'a Ast, usize);
        impl<'a> Visitor<'a> for Records<'a> {
            fn ast(&self) -> &'a Ast {
                self.0
            }

            fn visit_record(&mut self, r: &'a RecordDecl) {
                self.1 += 1;
                walk_record(self, r);
            }
        }
        let mut r = Records(&ast, 0);
        r.visit_unit(&ast.unit);
        assert_eq!(r.1, 1);
    }

    #[test]
    fn visits_for_loops_fully() {
        let ast = parse("t.c", "void f(void) { for (int i = 0; i < 4; i++) f(); }").unwrap();
        let mut c = Counter::new(&ast);
        c.visit_unit(&ast.unit);
        assert_eq!(c.vars, 1); // loop variable
        assert_eq!(c.calls, 1);
    }
}
