//! Shared helpers for the mutator library.

use metamut_lang::ast::*;
use metamut_lang::visit::{self, Visitor};
use metamut_muast::collect::Root;
use std::collections::HashSet;

/// Names of all file-scope variables.
pub fn global_var_names(ast: &Ast) -> HashSet<&str> {
    let mut out = HashSet::new();
    for d in &ast.unit.decls {
        if let ExternalDecl::Vars(g) = d {
            for v in &g.vars {
                out.insert(v.name.as_str());
            }
        }
    }
    out
}

/// Names of all declared functions (definitions, prototypes and builtins
/// commonly present in seeds).
pub fn function_names(ast: &Ast) -> HashSet<&str> {
    let mut out: HashSet<&str> = [
        "printf", "sprintf", "snprintf", "puts", "putchar", "scanf", "memset", "memcpy", "memcmp",
        "strlen", "strcpy", "strcmp", "strcat", "abort", "exit", "malloc", "calloc", "realloc",
        "free", "abs", "labs", "rand", "srand", "fabs", "sqrt",
    ]
    .into_iter()
    .collect();
    for d in &ast.unit.decls {
        if let ExternalDecl::Function(f) = d {
            out.insert(f.name.as_str());
        }
    }
    out
}

/// All identifier names referenced inside a statement.
pub fn idents_in_stmt<'a>(ast: &'a Ast, s: &'a Stmt) -> HashSet<&'a str> {
    struct C<'a> {
        ast: &'a Ast,
        out: HashSet<&'a str>,
    }
    impl<'a> Visitor<'a> for C<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_expr(&mut self, e: &'a Expr) {
            if let ExprKind::Ident(n) = &e.kind {
                self.out.insert(n.as_str());
            }
            visit::walk_expr(self, e);
        }
    }
    let mut c = C {
        ast,
        out: HashSet::new(),
    };
    c.visit_stmt(s);
    c.out
}

/// Whether a statement contains any of: `return`, `break`, `continue`,
/// `goto`, labels, or local declarations — the things that make it unsafe
/// to move or duplicate across control-flow boundaries.
pub fn stmt_is_relocatable(ast: &Ast, s: &Stmt) -> bool {
    struct C<'a> {
        ast: &'a Ast,
        ok: bool,
    }
    impl<'a> Visitor<'a> for C<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_stmt(&mut self, s: &'a Stmt) {
            match &s.kind {
                StmtKind::Return(_)
                | StmtKind::Break
                | StmtKind::Continue
                | StmtKind::Goto { .. }
                | StmtKind::Label { .. }
                | StmtKind::Case { .. }
                | StmtKind::Default { .. } => self.ok = false,
                // Duplicating a local decl creates a redefinition.
                StmtKind::Compound(items)
                    if items.iter().any(|i| matches!(i, BlockItem::Decl(_))) =>
                {
                    self.ok = false;
                }
                _ => {}
            }
            visit::walk_stmt(self, s);
        }
    }
    let mut c = C { ast, ok: true };
    c.visit_stmt(s);
    c.ok
}

/// The byte offset just inside the opening brace of a function body.
pub fn body_entry_offset(ast: &Ast, f: &FunctionDef) -> Option<u32> {
    let body = f.body.as_ref()?;
    let text = ast.snippet(body.span);
    if text.starts_with('{') {
        Some(body.span.lo + 1)
    } else {
        None
    }
}

/// Whether the expression is an integer literal with the given value.
pub fn is_int_literal(e: &Expr, v: i128) -> bool {
    matches!(e.kind, ExprKind::IntLit { value, .. } if value == v)
}

/// Collects declaration groups that appear inside function bodies (block
/// scope), in source order.
pub fn local_decl_groups(ast: &Ast) -> Vec<&DeclGroup> {
    struct C<'a> {
        ast: &'a Ast,
        out: Vec<&'a DeclGroup>,
    }
    impl<'a> Visitor<'a> for C<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_decl_group(&mut self, g: &'a DeclGroup) {
            self.out.push(g);
            visit::walk_decl_group(self, g);
        }
    }
    let mut c = C {
        ast,
        out: Vec::new(),
    };
    for f in ast.function_defs() {
        (ast, f).walk(&mut c);
    }
    c.out
}

/// Spans inside which an identifier must not be replaced by a literal:
/// assignment targets, increment/decrement and address-of operands, array
/// bases and member bases.
pub fn non_rvalue_spans(ast: &Ast, f: &FunctionDef) -> Vec<metamut_lang::source::Span> {
    struct C<'a> {
        ast: &'a Ast,
        out: Vec<metamut_lang::source::Span>,
    }
    impl<'a> Visitor<'a> for C<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_expr(&mut self, e: &'a Expr) {
            match &e.kind {
                ExprKind::Assign { lhs, .. } => self.out.push(self.ast[*lhs].span),
                ExprKind::Unary { op, operand } if op.is_inc_dec() || *op == UnaryOp::AddrOf => {
                    self.out.push(self.ast[*operand].span)
                }
                ExprKind::Index { base, .. } => self.out.push(self.ast[*base].span),
                ExprKind::Member { base, .. } => self.out.push(self.ast[*base].span),
                ExprKind::Call { callee, .. } => self.out.push(self.ast[*callee].span),
                _ => {}
            }
            visit::walk_expr(self, e);
        }
    }
    let mut c = C {
        ast,
        out: Vec::new(),
    };
    (ast, f).walk(&mut c);
    c.out
}

/// Whether `span` lies inside any of the `excluded` spans.
pub fn span_excluded(
    span: metamut_lang::source::Span,
    excluded: &[metamut_lang::source::Span],
) -> bool {
    excluded.iter().any(|ex| ex.contains_span(span))
}

/// Declares a `mutator!` unit struct wired into the [`metamut_muast::Mutator`]
/// trait; the struct must provide `fn run(&self, ctx: &mut MutCtx<'_>) -> bool`.
macro_rules! mutator {
    ($ty:ident, $name:literal, $desc:literal, $cat:ident) => {
        #[doc = $desc]
        #[derive(Debug, Default, Clone, Copy)]
        pub struct $ty;

        impl metamut_muast::Mutator for $ty {
            fn name(&self) -> &str {
                $name
            }
            fn description(&self) -> &str {
                $desc
            }
            fn category(&self) -> metamut_muast::Category {
                metamut_muast::Category::$cat
            }
            fn mutate(&self, ctx: &mut metamut_muast::MutCtx<'_>) -> bool {
                self.run(ctx)
            }
        }
    };
}
pub(crate) use mutator;

/// Whether a loop body contains no `continue` that would bind to it.
/// Conservative: any `continue` anywhere in the body (even in nested loops)
/// disqualifies the body.
pub fn stmts_in_span_free_of_continue(ast: &Ast, body: &Stmt) -> bool {
    struct C<'a> {
        ast: &'a Ast,
        ok: bool,
    }
    impl<'a> Visitor<'a> for C<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_stmt(&mut self, s: &'a Stmt) {
            if matches!(s.kind, StmtKind::Continue) {
                self.ok = false;
            }
            visit::walk_stmt(self, s);
        }
    }
    let mut c = C { ast, ok: true };
    c.visit_stmt(body);
    c.ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::parse;

    #[test]
    fn global_and_function_names() {
        let ast = parse("t.c", "int g; double h; void f(void) {}").unwrap();
        let globals = global_var_names(&ast);
        assert!(globals.contains("g") && globals.contains("h"));
        let fns = function_names(&ast);
        assert!(fns.contains("f"));
        assert!(fns.contains("printf")); // builtin
    }

    #[test]
    fn relocatable_checks() {
        let ast = parse(
            "t.c",
            "int f(int x) { x++; if (x) return x; while (x) { break; } { int y = 1; x = y; } return 0; }",
        )
        .unwrap();
        let f = ast.find_function("f").unwrap();
        let StmtKind::Compound(items) = &f.body.as_ref().unwrap().kind else {
            panic!()
        };
        let stmt = |i: usize| match &items[i] {
            BlockItem::Stmt(s) => s,
            _ => panic!(),
        };
        assert!(stmt_is_relocatable(&ast, stmt(0))); // x++;
        assert!(!stmt_is_relocatable(&ast, stmt(1))); // contains return
        assert!(!stmt_is_relocatable(&ast, stmt(2))); // contains break
        assert!(!stmt_is_relocatable(&ast, stmt(3))); // contains local decl
    }

    #[test]
    fn idents_collected() {
        let ast = parse("t.c", "void f(int a, int b) { a = b + g(); }").unwrap();
        let f = ast.find_function("f").unwrap();
        let ids = idents_in_stmt(&ast, f.body.as_ref().unwrap());
        assert!(ids.contains("a") && ids.contains("b") && ids.contains("g"));
    }

    #[test]
    fn body_entry() {
        let ast = parse("t.c", "void f(void) { ; }").unwrap();
        let f = ast.find_function("f").unwrap();
        let off = body_entry_offset(&ast, f).unwrap();
        assert_eq!(&ast.source()[off as usize - 1..off as usize], "{");
    }
}
