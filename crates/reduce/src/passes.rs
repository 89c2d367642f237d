//! Span-collection helpers behind the reducer's passes.
//!
//! Every pass works the same way: parse the current witness with
//! `metamut-lang`, walk the real AST to collect candidate edits as
//! `(Span, replacement)` pairs (deletion is the empty replacement), and let
//! the oracle accept or reject each textual candidate. Spans always refer
//! to the source that was parsed, so callers apply edits back-to-front and
//! re-parse after structural acceptance.

use metamut_lang::ast::{
    Ast, BlockItem, Expr, ExprKind, ExternalDecl, FunctionDef, Initializer, Stmt, StmtKind, TySyn,
};
use metamut_lang::visit::{self, Visitor};
use metamut_lang::Span;
use std::collections::{HashMap, HashSet};

/// Deletes each of `spans` (disjoint, any order) from `src`.
pub fn delete_spans(src: &str, spans: &[Span]) -> String {
    let mut sorted: Vec<Span> = spans.to_vec();
    sorted.sort_by_key(|s| s.lo);
    let mut out = String::with_capacity(src.len());
    let mut cursor = 0usize;
    for s in sorted {
        let (lo, hi) = (s.lo as usize, s.hi as usize);
        if lo < cursor || hi > src.len() {
            continue; // overlapping or stale span: skip defensively
        }
        out.push_str(&src[cursor..lo]);
        cursor = hi;
    }
    out.push_str(&src[cursor..]);
    out
}

/// Replaces one span of `src` with `text`.
pub fn replace_span(src: &str, span: Span, text: &str) -> String {
    let mut out = String::with_capacity(src.len());
    out.push_str(&src[..span.lo as usize]);
    out.push_str(text);
    out.push_str(&src[span.hi as usize..]);
    out
}

/// Spans of all top-level declarations, in source order.
pub fn decl_spans(ast: &Ast) -> Vec<Span> {
    ast.unit.decls.iter().map(|d| d.span()).collect()
}

/// Block-item spans grouped by statement-nesting depth: index 0 holds the
/// items of every function body's outermost compound, index 1 the items one
/// compound deeper, and so on. Items at one depth are pairwise disjoint, so
/// any subset can be deleted textually in one candidate.
pub fn block_item_spans_by_depth(ast: &Ast) -> Vec<Vec<Span>> {
    struct Collector<'a> {
        ast: &'a Ast,
        depth: usize,
        levels: Vec<Vec<Span>>,
    }
    impl<'a> Visitor<'a> for Collector<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_stmt(&mut self, s: &'a Stmt) {
            if let StmtKind::Compound(items) = &s.kind {
                if self.levels.len() <= self.depth {
                    self.levels.resize(self.depth + 1, Vec::new());
                }
                for item in items {
                    self.levels[self.depth].push(item.span());
                }
                self.depth += 1;
                visit::walk_stmt(self, s);
                self.depth -= 1;
            } else {
                visit::walk_stmt(self, s);
            }
        }
    }
    let mut c = Collector {
        ast,
        depth: 0,
        levels: Vec::new(),
    };
    c.visit_unit(&ast.unit);
    c.levels
}

/// Every name the program *uses*: identifier references in expressions,
/// `goto` targets, and named type references (`struct S`, typedef names).
fn used_names(ast: &Ast) -> HashMap<String, Vec<Span>> {
    struct Uses<'a>(&'a Ast, HashMap<String, Vec<Span>>);
    impl Uses<'_> {
        fn add(&mut self, name: &str, span: Span) {
            self.1.entry(name.to_string()).or_default().push(span);
        }
    }
    impl<'a> Visitor<'a> for Uses<'a> {
        fn ast(&self) -> &'a Ast {
            self.0
        }

        fn visit_expr(&mut self, e: &'a Expr) {
            if let ExprKind::Ident(n) = &e.kind {
                self.add(n, e.span);
            }
            visit::walk_expr(self, e);
        }
        fn visit_stmt(&mut self, s: &'a Stmt) {
            if let StmtKind::Goto { name, name_span } = &s.kind {
                self.add(name, *name_span);
            }
            visit::walk_stmt(self, s);
        }
        fn visit_ty(&mut self, ty: &'a TySyn) {
            if let TySyn::Base { spec, .. } = ty {
                use metamut_lang::ast::TypeSpecifier as T;
                match spec {
                    T::Struct(n) | T::Union(n) | T::Enum(n) | T::Typedef(n) => {
                        self.add(n, Span::dummy())
                    }
                    _ => {}
                }
            }
            visit::walk_ty(self, ty);
        }
    }
    let mut u = Uses(ast, HashMap::new());
    u.visit_unit(&ast.unit);
    u.1
}

/// Spans of top-level declarations none of whose declared names is
/// referenced outside the declaration itself (`main` is left alone — the
/// decl-level ddmin still gets to try it individually).
pub fn unused_decl_spans(ast: &Ast) -> Vec<Span> {
    let uses = used_names(ast);
    let used_outside = |name: &str, own: Span| -> bool {
        uses.get(name)
            .is_some_and(|spans| spans.iter().any(|s| !own.contains_span(*s)))
    };
    let mut out = Vec::new();
    for d in &ast.unit.decls {
        let span = d.span();
        let droppable = match d {
            ExternalDecl::Function(f) => f.name != "main" && !used_outside(&f.name, span),
            ExternalDecl::Vars(g) => g.vars.iter().all(|v| !used_outside(&v.name, span)),
            ExternalDecl::Record(r) => r.name.as_deref().is_none_or(|n| !used_outside(n, span)),
            ExternalDecl::Enum(e) => {
                e.name.as_deref().is_none_or(|n| !used_outside(n, span))
                    && e.enumerators
                        .iter()
                        .flatten()
                        .all(|en| !used_outside(&en.name, span))
            }
            ExternalDecl::Typedef(t) => !used_outside(&t.name, span),
        };
        if droppable {
            out.push(span);
        }
    }
    out
}

/// Single-edit candidates that shrink array dimensions to `[1]` and
/// brace initializer lists to their first element.
pub fn array_shrink_edits(ast: &Ast) -> Vec<(Span, String)> {
    struct Shrinks<'a> {
        ast: &'a Ast,
        edits: Vec<(Span, String)>,
    }
    impl Shrinks<'_> {
        fn shrink_ty(&mut self, ty: &TySyn) {
            if let TySyn::Array {
                size: Some(size), ..
            } = ty
            {
                let text = self.ast.snippet(self.ast[*size].span);
                if text.trim() != "1" {
                    self.edits.push((self.ast[*size].span, "1".to_string()));
                }
            }
        }
    }
    impl<'a> Visitor<'a> for Shrinks<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_ty(&mut self, ty: &'a TySyn) {
            self.shrink_ty(ty);
            visit::walk_ty(self, ty);
        }
        fn visit_initializer(&mut self, i: &'a Initializer) {
            if let Initializer::List { span, items, .. } = i {
                if items.len() > 1 {
                    let first = self.ast.snippet(items[0].span(self.ast));
                    self.edits.push((*span, format!("{{{first}}}")));
                }
            }
            visit::walk_initializer(self, i);
        }
    }
    let mut s = Shrinks {
        ast,
        edits: Vec::new(),
    };
    s.visit_unit(&ast.unit);
    s.edits
}

/// Whether `f` is trivial enough to inline at its call sites: a body that
/// is empty or a single `return` of a literal (or nothing).
fn trivial_body_value(ast: &Ast, f: &FunctionDef) -> Option<Option<String>> {
    let body = f.body.as_ref()?;
    let StmtKind::Compound(items) = &body.kind else {
        return None;
    };
    match items.as_slice() {
        [] => Some(None),
        [BlockItem::Stmt(s)] => match &s.kind {
            StmtKind::Return(None) | StmtKind::Null => Some(None),
            StmtKind::Return(Some(e)) if ast[*e].is_literal() => {
                Some(Some(metamut_lang::printer::print_expr(ast, &ast[*e])))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Multi-edit candidates that inline trivial functions: each entry rewrites
/// every call of one trivial function to its constant (or `0` for void
/// helpers in expression position) and deletes the definition.
pub fn trivial_call_edits(ast: &Ast) -> Vec<Vec<(Span, String)>> {
    let mut trivial: HashMap<&str, Option<String>> = HashMap::new();
    let mut def_spans: HashMap<&str, Span> = HashMap::new();
    for d in &ast.unit.decls {
        if let ExternalDecl::Function(f) = d {
            if f.name == "main" || !f.is_definition() {
                continue;
            }
            if let Some(value) = trivial_body_value(ast, f) {
                trivial.insert(&f.name, value);
                def_spans.insert(&f.name, f.span);
            }
        }
    }
    if trivial.is_empty() {
        return Vec::new();
    }

    struct Calls<'a> {
        ast: &'a Ast,
        trivial: &'a HashMap<&'a str, Option<String>>,
        sites: HashMap<&'a str, Vec<Span>>,
    }
    impl<'a> Visitor<'a> for Calls<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_expr(&mut self, e: &'a Expr) {
            if let ExprKind::Call { callee, .. } = &e.kind {
                if let ExprKind::Ident(n) = &self.ast[*callee].unparenthesized(self.ast).kind {
                    if self.trivial.contains_key(n.as_str()) {
                        self.sites.entry(n).or_default().push(e.span);
                    }
                }
            }
            visit::walk_expr(self, e);
        }
    }
    let mut c = Calls {
        ast,
        trivial: &trivial,
        sites: HashMap::new(),
    };
    c.visit_unit(&ast.unit);

    let mut out = Vec::new();
    for (name, value) in &trivial {
        let mut edits: Vec<(Span, String)> = Vec::new();
        let replacement = value.clone().unwrap_or_else(|| "0".to_string());
        for site in c.sites.get(name).into_iter().flatten() {
            edits.push((*site, replacement.clone()));
        }
        edits.push((def_spans[name], String::new()));
        out.push(edits);
    }
    // Deterministic order: by definition position.
    out.sort_by_key(|edits| edits.last().map(|(s, _)| s.lo).unwrap_or(0));
    out
}

/// Spans of composite expressions worth collapsing to a constant, largest
/// first. Nested candidates are pruned against their accepted ancestors by
/// the caller (edits are applied back-to-front and overlaps skipped).
pub fn expr_simplify_spans(ast: &Ast, min_len: usize, limit: usize) -> Vec<Span> {
    struct Exprs<'a> {
        ast: &'a Ast,
        spans: Vec<Span>,
        min_len: usize,
    }
    impl<'a> Visitor<'a> for Exprs<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_expr(&mut self, e: &'a Expr) {
            let interesting = !e.is_literal()
                && !matches!(e.kind, ExprKind::Ident(_))
                && e.span.len() >= self.min_len;
            if interesting {
                self.spans.push(e.span);
            }
            visit::walk_expr(self, e);
        }
    }
    let mut x = Exprs {
        ast,
        spans: Vec::new(),
        min_len,
    };
    x.visit_unit(&ast.unit);
    // Largest first: collapsing an outer expression subsumes its children.
    x.spans.sort_by_key(|s| std::cmp::Reverse(s.len()));
    x.spans.truncate(limit);
    x.spans
}

/// Drops candidate edits that overlap an already-accepted region, keeping
/// span sets safely disjoint. `accepted` holds the spans applied so far.
pub fn disjoint_from(span: Span, accepted: &[Span]) -> bool {
    accepted.iter().all(|a| !a.overlaps(span))
}

/// Line spans of `src` (used by the textual fallback for witnesses the
/// `metamut-lang` parser cannot digest — raw byte crashers).
pub fn line_spans(src: &str) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut lo = 0u32;
    for line in src.split_inclusive('\n') {
        let hi = lo + line.len() as u32;
        spans.push(Span::new(lo, hi));
        lo = hi;
    }
    spans
}

/// Set of distinct strings, used to avoid proposing duplicate candidates.
pub type SeenSet = HashSet<u64>;

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::parse;

    #[test]
    fn deletes_disjoint_spans() {
        let src = "abcdef";
        let out = delete_spans(src, &[Span::new(1, 2), Span::new(4, 5)]);
        assert_eq!(out, "acdf");
    }

    #[test]
    fn collects_levels() {
        let ast = parse(
            "t.c",
            "int f(void) { int a = 1; if (a) { a = 2; a = 3; } return a; }",
        )
        .unwrap();
        let levels = block_item_spans_by_depth(&ast);
        assert_eq!(levels[0].len(), 3, "decl, if, return");
        assert_eq!(levels[1].len(), 2, "the two assignments");
    }

    #[test]
    fn finds_unused_decls() {
        let ast = parse(
            "t.c",
            "int used(void) { return 1; }\n\
             int unused(void) { return 2; }\n\
             int dead_global;\n\
             int main(void) { return used(); }",
        )
        .unwrap();
        let spans = unused_decl_spans(&ast);
        let texts: Vec<&str> = spans.iter().map(|s| ast.snippet(*s)).collect();
        assert_eq!(texts.len(), 2, "{texts:?}");
        assert!(texts[0].contains("unused"));
        assert!(texts[1].contains("dead_global"));
    }

    #[test]
    fn shrinks_arrays_and_inits() {
        let ast = parse("t.c", "int a[64] = {1, 2, 3};").unwrap();
        let edits = array_shrink_edits(&ast);
        assert_eq!(edits.len(), 2);
        let rendered: Vec<(String, &str)> = edits
            .iter()
            .map(|(s, r)| (ast.snippet(*s).to_string(), r.as_str()))
            .collect();
        assert!(rendered.contains(&("64".to_string(), "1")));
        assert!(rendered.contains(&("{1, 2, 3}".to_string(), "{1}")));
    }

    #[test]
    fn inlines_trivial_calls() {
        let ast = parse(
            "t.c",
            "int seven(void) { return 7; }\n\
             int main(void) { return seven() + seven(); }",
        )
        .unwrap();
        let groups = trivial_call_edits(&ast);
        assert_eq!(groups.len(), 1);
        // Two call sites plus the definition deletion.
        assert_eq!(groups[0].len(), 3);
        assert!(groups[0][..2].iter().all(|(_, r)| r == "7"));
        assert!(groups[0][2].1.is_empty());
    }

    #[test]
    fn expr_spans_largest_first() {
        let ast = parse("t.c", "int x = (1 + 2) * (3 + 4 + 5);").unwrap();
        let spans = expr_simplify_spans(&ast, 3, 32);
        assert!(!spans.is_empty());
        for w in spans.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn line_spans_cover_source() {
        let src = "a\nbb\nccc";
        let spans = line_spans(src);
        assert_eq!(spans.len(), 3);
        let total: usize = spans.iter().map(|s| s.len()).sum();
        assert_eq!(total, src.len());
    }
}
