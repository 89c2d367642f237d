//! The mutation context: the μAST API surface of Figure 6.
//!
//! A [`MutCtx`] bundles the parsed AST, the semantic tables, a source
//! [`Rewriter`] and a seeded RNG, and exposes the query / rewriting /
//! semantic-checking / helper APIs that mutators program against — the Rust
//! analogue of the paper's `Mutator` base class wrapping Clang.

use crate::rng::MutRng;
use metamut_lang::ast::*;
use metamut_lang::printer;
use metamut_lang::rewrite::Rewriter;
use metamut_lang::sema::SemaResult;
use metamut_lang::source::Span;
use metamut_lang::types::{assign_compat, Compat, QType};

/// Mutation context handed to [`crate::Mutator::mutate`].
#[derive(Debug)]
pub struct MutCtx<'a> {
    ast: &'a Ast,
    sema: &'a SemaResult,
    rewriter: Rewriter<'a>,
    rng: MutRng,
    name_counter: u32,
}

impl<'a> MutCtx<'a> {
    /// Creates a context over a checked program.
    pub fn new(ast: &'a Ast, sema: &'a SemaResult, seed: u64) -> Self {
        MutCtx {
            ast,
            sema,
            rewriter: Rewriter::new(ast.source()),
            rng: MutRng::new(seed),
            name_counter: 0,
        }
    }

    /// The program under mutation.
    pub fn ast(&self) -> &'a Ast {
        self.ast
    }

    /// The semantic tables of the program under mutation.
    pub fn sema(&self) -> &'a SemaResult {
        self.sema
    }

    /// The random source.
    pub fn rng(&mut self) -> &mut MutRng {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Query APIs
    // ------------------------------------------------------------------

    /// Extracts the source text of a node span (μAST `getSourceText`).
    pub fn source_text(&self, span: Span) -> &'a str {
        self.ast.snippet(span)
    }

    /// Locates `target` in the source at or after `from` (μAST
    /// `findStrLocFrom`). Returns the byte offset of the match start.
    pub fn find_str_from(&self, from: u32, target: &str) -> Option<u32> {
        let src = self.ast.source();
        let start = (from as usize).min(src.len());
        src[start..].find(target).map(|i| (start + i) as u32)
    }

    /// Identifies the span of the brace pair opening at or after `from`
    /// (μAST `findBracesRange`). The returned span includes both braces.
    pub fn find_braces_range(&self, from: u32) -> Option<Span> {
        let src = self.ast.source().as_bytes();
        let mut i = (from as usize).min(src.len());
        while i < src.len() && src[i] != b'{' {
            i += 1;
        }
        if i >= src.len() {
            return None;
        }
        let open = i;
        let mut depth = 0usize;
        while i < src.len() {
            match src[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(Span::new(open as u32, i as u32 + 1));
                    }
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// The checked type of an expression, if sema recorded one.
    pub fn type_of(&self, e: &Expr) -> Option<&'a QType> {
        self.sema.expr_type(e.id)
    }

    /// The checked type of a declaration node (variable/parameter).
    pub fn decl_type(&self, id: NodeId) -> Option<&'a QType> {
        self.sema.decl_type(id)
    }

    // ------------------------------------------------------------------
    // Rewriting APIs
    // ------------------------------------------------------------------

    /// Replaces the text at `span` (Clang `Rewriter::ReplaceText`).
    pub fn replace(&mut self, span: Span, text: impl Into<String>) {
        self.rewriter.replace(span, text);
    }

    /// Removes the text at `span`.
    pub fn remove(&mut self, span: Span) {
        self.rewriter.remove(span);
    }

    /// Inserts `text` before byte `offset`.
    pub fn insert_before(&mut self, offset: u32, text: impl Into<String>) {
        self.rewriter.insert_before(offset, text);
    }

    /// Inserts `text` after byte `offset`.
    pub fn insert_after(&mut self, offset: u32, text: impl Into<String>) {
        self.rewriter.insert_after(offset, text);
    }

    /// Whether any rewrite has been queued so far.
    pub fn changed(&self) -> bool {
        self.rewriter.has_edits()
    }

    /// Removes parameter `index` from a function's declaration, including
    /// the separating comma (μAST `removeParmFromFuncDecl`).
    ///
    /// Returns `false` (and queues nothing) when the index is out of range.
    pub fn remove_param_from_func_decl(&mut self, f: &FunctionDef, index: usize) -> bool {
        let Some(span) = list_item_span_with_comma(
            f.params
                .iter()
                .map(|p| p.span)
                .collect::<Vec<_>>()
                .as_slice(),
            index,
        ) else {
            return false;
        };
        // A single parameter becomes `(void)`.
        if f.params.len() == 1 {
            self.rewriter.replace(f.params[0].span, "void");
        } else {
            self.rewriter.remove(span);
        }
        true
    }

    /// Removes argument `index` from a call expression, including the
    /// separating comma (μAST `removeArgFromExpr`).
    pub fn remove_arg_from_call(&mut self, call: &Expr, index: usize) -> bool {
        let ExprKind::Call { args, .. } = &call.kind else {
            return false;
        };
        let spans: Vec<Span> = args.iter().map(|a| a.span).collect();
        let Some(span) = list_item_span_with_comma(&spans, index) else {
            return false;
        };
        self.rewriter.remove(span);
        true
    }

    // ------------------------------------------------------------------
    // Semantic checking APIs
    // ------------------------------------------------------------------

    /// Checks whether `op` can be applied to the given operands (μAST
    /// `checkBinop`): integer-only operators demand integer operands, the
    /// rest demand arithmetic or pointer shapes that C accepts.
    pub fn check_binop(&self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> bool {
        let (Some(lt), Some(rt)) = (self.type_of(lhs), self.type_of(rhs)) else {
            return false;
        };
        let l = lt.ty.decayed();
        let r = rt.ty.decayed();
        if op.requires_integers() {
            return l.is_integer() && r.is_integer();
        }
        match op {
            BinaryOp::Add => {
                (l.is_arithmetic() && r.is_arithmetic())
                    || (l.is_pointer() && r.is_integer())
                    || (r.is_pointer() && l.is_integer())
            }
            BinaryOp::Sub => {
                (l.is_arithmetic() && r.is_arithmetic())
                    || (l.is_pointer() && r.is_integer())
                    || (l.is_pointer() && r.is_pointer())
            }
            BinaryOp::Mul | BinaryOp::Div => l.is_arithmetic() && r.is_arithmetic(),
            _ => l.is_scalar() && r.is_scalar(),
        }
    }

    /// Checks whether a value of type `src` can replace an expression of
    /// type `dst` without a constraint violation (μAST `checkAssignment`).
    pub fn check_assignment(&self, dst: &QType, src: &QType) -> bool {
        assign_compat(&dst.ty, &src.ty) != Compat::Error
    }

    /// Whether two expressions have interchangeable types (both directions
    /// assignable). Used by swap-style mutators.
    pub fn types_interchangeable(&self, a: &Expr, b: &Expr) -> bool {
        match (self.type_of(a), self.type_of(b)) {
            (Some(ta), Some(tb)) => self.check_assignment(ta, tb) && self.check_assignment(tb, ta),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Generates an identifier not occurring anywhere in the source (μAST
    /// `generateUniqueName`).
    pub fn generate_unique_name(&mut self, base: &str) -> String {
        loop {
            let candidate = format!("{base}_{}", self.name_counter);
            self.name_counter += 1;
            if !self.ast.source().contains(&candidate) {
                return candidate;
            }
        }
    }

    /// Formats a type plus identifier as a declaration (μAST
    /// `formatAsDecl`).
    pub fn format_as_decl(&self, ty: &TySyn, name: &str) -> String {
        printer::format_as_decl(ty, name)
    }

    /// A default-value literal for the given checked type (`0`, `0.0`,
    /// or a null pointer cast), matching the constant GPT-4's fixed Ret2V
    /// uses to replace calls.
    pub fn default_value_for(&self, qt: &QType) -> String {
        if qt.ty.is_floating() || qt.ty.is_complex() {
            "0.0".to_string()
        } else {
            // Integers and pointers alike: the literal 0 converts.
            "0".to_string()
        }
    }

    /// Consumes the context, applying the queued rewrites.
    ///
    /// # Errors
    ///
    /// Returns the conflict if two queued rewrites overlap.
    pub fn finish(self) -> Result<String, metamut_lang::rewrite::RewriteConflict> {
        self.rewriter.apply()
    }
}

/// The span of list item `index` extended over one adjacent comma, so that
/// removing it leaves a syntactically valid list.
fn list_item_span_with_comma(spans: &[Span], index: usize) -> Option<Span> {
    let item = *spans.get(index)?;
    if spans.len() == 1 {
        return Some(item);
    }
    if index + 1 < spans.len() {
        // Remove up to the start of the next item (covers the comma).
        Some(Span::new(item.lo, spans[index + 1].lo))
    } else {
        // Last item: remove from the end of the previous one.
        Some(Span::new(spans[index - 1].hi, item.hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::compile;

    fn ctx_for(src: &str) -> (Ast, SemaResult) {
        compile(src).expect("test program must compile")
    }

    #[test]
    fn query_apis() {
        let (ast, sema) = ctx_for("int f(void) { return 42; }");
        let cx = MutCtx::new(&ast, &sema, 0);
        assert_eq!(cx.source_text(Span::new(0, 3)), "int");
        assert_eq!(cx.find_str_from(0, "return"), Some(14));
        assert_eq!(cx.find_str_from(20, "return"), None);
        let braces = cx.find_braces_range(0).unwrap();
        assert!(cx.source_text(braces).starts_with('{'));
        assert!(cx.source_text(braces).ends_with('}'));
    }

    #[test]
    fn nested_braces() {
        let (ast, sema) = ctx_for("void f(int x) { if (x) { x = 1; } }");
        let cx = MutCtx::new(&ast, &sema, 0);
        let outer = cx.find_braces_range(0).unwrap();
        assert_eq!(outer.hi as usize, ast.source().len());
    }

    #[test]
    fn rewrites_produce_mutants() {
        let (ast, sema) = ctx_for("int f(void) { return 42; }");
        let mut cx = MutCtx::new(&ast, &sema, 0);
        let pos = cx.find_str_from(0, "42").unwrap();
        cx.replace(Span::new(pos, pos + 2), "43");
        assert!(cx.changed());
        assert_eq!(cx.finish().unwrap(), "int f(void) { return 43; }");
    }

    #[test]
    fn remove_param_variants() {
        let (ast, sema) = ctx_for("int f(int a, int b, int c) { return a + b + c; }");
        let f = ast.find_function("f").unwrap();
        // Middle parameter.
        let mut cx = MutCtx::new(&ast, &sema, 0);
        assert!(cx.remove_param_from_func_decl(f, 1));
        let out = cx.finish().unwrap();
        assert!(out.contains("f(int a, int c)"), "got {out}");
        // Last parameter.
        let mut cx = MutCtx::new(&ast, &sema, 0);
        assert!(cx.remove_param_from_func_decl(f, 2));
        let out = cx.finish().unwrap();
        assert!(out.contains("f(int a, int b)"), "got {out}");
        // Out of range.
        let mut cx = MutCtx::new(&ast, &sema, 0);
        assert!(!cx.remove_param_from_func_decl(f, 3));
    }

    #[test]
    fn remove_only_param_becomes_void() {
        let (ast, sema) = ctx_for("int f(int a) { return 1; }");
        let f = ast.find_function("f").unwrap();
        let mut cx = MutCtx::new(&ast, &sema, 0);
        assert!(cx.remove_param_from_func_decl(f, 0));
        let out = cx.finish().unwrap();
        assert!(out.contains("f(void)"), "got {out}");
    }

    #[test]
    fn remove_arg() {
        let (ast, sema) =
            ctx_for("int g(int a, int b) { return a; } int f(void) { return g(1, 2); }");
        let call = crate::collect::calls_to(&ast, "g").pop().unwrap();
        let mut cx = MutCtx::new(&ast, &sema, 0);
        assert!(cx.remove_arg_from_call(call, 0));
        let out = cx.finish().unwrap();
        assert!(out.contains("g(2)"), "got {out}");
    }

    #[test]
    fn semantic_checks() {
        let (ast, sema) = ctx_for("int f(int a, double d) { return a + (int)d; }");
        let cx = MutCtx::new(&ast, &sema, 0);
        let uses_a = crate::collect::uses_of(&ast, "a");
        let uses_d = crate::collect::uses_of(&ast, "d");
        let a = &uses_a[0];
        let d = &uses_d[0];
        assert!(cx.check_binop(BinaryOp::Add, a, d));
        assert!(cx.check_binop(BinaryOp::Mul, a, d));
        assert!(!cx.check_binop(BinaryOp::Rem, a, d));
        assert!(!cx.check_binop(BinaryOp::Shl, d, a));
        assert!(cx.types_interchangeable(a, d)); // int <-> double both fine
    }

    #[test]
    fn unique_names_avoid_collisions() {
        let (ast, sema) = ctx_for("int tmp_0 = 1; int f(void) { return tmp_0; }");
        let mut cx = MutCtx::new(&ast, &sema, 0);
        let n = cx.generate_unique_name("tmp");
        assert_ne!(n, "tmp_0");
        assert!(!ast.source().contains(&n));
    }

    #[test]
    fn default_values() {
        let (ast, sema) = ctx_for("double d; int *p; int i;");
        let cx = MutCtx::new(&ast, &sema, 0);
        let d = sema
            .decl_types
            .values()
            .find(|t| t.ty.is_floating())
            .unwrap();
        assert_eq!(cx.default_value_for(d), "0.0");
        let p = sema
            .decl_types
            .values()
            .find(|t| t.ty.is_pointer())
            .unwrap();
        assert_eq!(cx.default_value_for(p), "0");
    }
}
