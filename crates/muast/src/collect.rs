//! Node collectors: the traversal half of the μAST API.
//!
//! The paper's mutator template (Figure 2) has mutators first traverse the
//! AST collecting "mutation instances" and then pick one at random. These
//! helpers implement that collection step generically so each mutator stays
//! a few dozen lines. Like the pointers Clang's visitors collect, every
//! instance is a borrow of the parent's AST, which a [`crate::MutCtx`]
//! holds for its whole lifetime: collecting copies no node.

use metamut_lang::ast::*;
use metamut_lang::visit::{self, Visitor};

/// Where a collector starts: the whole program or one function's body.
pub trait Root<'a> {
    /// Walks `v` over every node under this root, in source order.
    fn walk<V: Visitor<'a>>(self, v: &mut V);
}

impl<'a> Root<'a> for &'a Ast {
    fn walk<V: Visitor<'a>>(self, v: &mut V) {
        v.visit_unit(&self.unit);
    }
}

/// Only the body: a prototype has nothing to collect.
impl<'a> Root<'a> for &'a FunctionDef {
    fn walk<V: Visitor<'a>>(self, v: &mut V) {
        if let Some(body) = &self.body {
            v.visit_stmt(body);
        }
    }
}

/// Collects every expression under `root` satisfying `pred`, in source
/// order.
pub fn exprs_matching<'a, F>(root: impl Root<'a>, pred: F) -> Vec<&'a Expr>
where
    F: Fn(&Expr) -> bool,
{
    struct C<'a, F> {
        pred: F,
        out: Vec<&'a Expr>,
    }
    impl<'a, F: Fn(&Expr) -> bool> Visitor<'a> for C<'a, F> {
        fn visit_expr(&mut self, e: &'a Expr) {
            if (self.pred)(e) {
                self.out.push(e);
            }
            visit::walk_expr(self, e);
        }
    }
    let mut c = C {
        pred,
        out: Vec::new(),
    };
    root.walk(&mut c);
    c.out
}

/// Collects every statement under `root` satisfying `pred`, in source
/// order.
pub fn stmts_matching<'a, F>(root: impl Root<'a>, pred: F) -> Vec<&'a Stmt>
where
    F: Fn(&Stmt) -> bool,
{
    struct C<'a, F> {
        pred: F,
        out: Vec<&'a Stmt>,
    }
    impl<'a, F: Fn(&Stmt) -> bool> Visitor<'a> for C<'a, F> {
        fn visit_stmt(&mut self, s: &'a Stmt) {
            if (self.pred)(s) {
                self.out.push(s);
            }
            visit::walk_stmt(self, s);
        }
    }
    let mut c = C {
        pred,
        out: Vec::new(),
    };
    root.walk(&mut c);
    c.out
}

/// Collects every variable declarator (globals, locals, for-init).
pub fn all_var_decls(ast: &Ast) -> Vec<&VarDecl> {
    struct C<'a> {
        out: Vec<&'a VarDecl>,
    }
    impl<'a> Visitor<'a> for C<'a> {
        fn visit_var_decl(&mut self, v: &'a VarDecl) {
            self.out.push(v);
            visit::walk_var_decl(self, v);
        }
    }
    let mut c = C { out: Vec::new() };
    ast.walk(&mut c);
    c.out
}

/// Collects every call whose callee is the plain identifier `name`.
pub fn calls_to<'a>(ast: &'a Ast, name: &str) -> Vec<&'a Expr> {
    exprs_matching(ast, |e| match &e.kind {
        ExprKind::Call { callee, .. } => {
            matches!(&callee.unparenthesized().kind, ExprKind::Ident(n) if n == name)
        }
        _ => false,
    })
}

/// Collects every identifier expression naming `name`.
pub fn uses_of<'a>(ast: &'a Ast, name: &str) -> Vec<&'a Expr> {
    exprs_matching(ast, |e| matches!(&e.kind, ExprKind::Ident(n) if n == name))
}

/// Collects all `if` statements.
pub fn if_stmts(ast: &Ast) -> Vec<&Stmt> {
    stmts_matching(ast, |s| matches!(s.kind, StmtKind::If { .. }))
}

/// Collects all loops (`for`, `while`, `do`).
pub fn loops(ast: &Ast) -> Vec<&Stmt> {
    stmts_matching(ast, |s| {
        matches!(
            s.kind,
            StmtKind::For { .. } | StmtKind::While { .. } | StmtKind::DoWhile { .. }
        )
    })
}

/// Collects all binary expressions.
pub fn binary_exprs(ast: &Ast) -> Vec<&Expr> {
    exprs_matching(ast, |e| matches!(e.kind, ExprKind::Binary { .. }))
}

/// Collects all compound statements (blocks).
pub fn blocks(ast: &Ast) -> Vec<&Stmt> {
    stmts_matching(ast, |s| matches!(s.kind, StmtKind::Compound(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::parse;

    const SRC: &str = r#"
int g = 1;
int helper(int x) { return x * 2; }
int main(void) {
    int a = helper(g);
    if (a > 2) { a = helper(a); } else { a--; }
    for (int i = 0; i < 3; i++) a += i;
    while (a > 100) a /= 2;
    return a;
}
"#;

    #[test]
    fn collects_calls_and_uses() {
        let ast = parse("t.c", SRC).unwrap();
        assert_eq!(calls_to(&ast, "helper").len(), 2);
        assert_eq!(uses_of(&ast, "a").len(), 8);
        assert_eq!(uses_of(&ast, "nonexistent").len(), 0);
    }

    #[test]
    fn collects_structures() {
        let ast = parse("t.c", SRC).unwrap();
        assert_eq!(if_stmts(&ast).len(), 1);
        assert_eq!(loops(&ast).len(), 2);
        assert_eq!(all_var_decls(&ast).len(), 3); // g, a, i
        assert!(binary_exprs(&ast).len() >= 4);
        assert!(blocks(&ast).len() >= 3);
    }

    #[test]
    fn returns_in_function() {
        let ast = parse("t.c", SRC).unwrap();
        let is_return = |s: &Stmt| matches!(s.kind, StmtKind::Return(_));
        let main = ast.find_function("main").unwrap();
        assert_eq!(stmts_matching(main, is_return).len(), 1);
        let helper = ast.find_function("helper").unwrap();
        assert_eq!(stmts_matching(helper, is_return).len(), 1);
        assert_eq!(stmts_matching(&ast, is_return).len(), 2);
        let calls = exprs_matching(main, |e| matches!(e.kind, ExprKind::Call { .. }));
        assert_eq!(calls.len(), 2);
    }

    #[test]
    fn collected_nodes_borrow_the_tree() {
        let ast = parse("t.c", SRC).unwrap();
        let uses = uses_of(&ast, "g");
        assert_eq!(uses.len(), 1);
        // The same node the parser built, not a copy of it.
        let main = ast.find_function("main").unwrap();
        let in_main = exprs_matching(main, |e| matches!(&e.kind, ExprKind::Ident(n) if n == "g"));
        assert!(std::ptr::eq(uses[0], in_main[0]));
    }
}
