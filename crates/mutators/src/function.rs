//! Function mutators (§4.1: 19 of the paper's 118 target functions),
//! including the paper's running example `ModifyFunctionReturnTypeToVoid`
//! (Ret2V, Figures 3–5) and `ChangeParamScope` (GCC #111820).

use crate::common::{self, mutator};
use metamut_lang::ast::*;
use metamut_lang::printer;
use metamut_lang::source::Span;
use metamut_muast::{collect, MutCtx};

/// Function definitions eligible for signature surgery: defined, named
/// something other than `main`, non-variadic, and declared exactly once
/// (no separate prototypes to keep in sync).
fn surgery_candidates(ast: &Ast) -> Vec<&FunctionDef> {
    let mut decl_count = std::collections::HashMap::new();
    for d in &ast.unit.decls {
        if let ExternalDecl::Function(f) = d {
            *decl_count.entry(f.name.as_str()).or_insert(0usize) += 1;
        }
    }
    ast.function_defs()
        .filter(|f| f.name != "main" && !f.variadic && decl_count[f.name.as_str()] == 1)
        .collect()
}

mutator!(
    ModifyFunctionReturnTypeToVoid,
    "ModifyFunctionReturnTypeToVoid",
    "Change a function's return type to void, remove all return statements, and replace all uses of the function's result with a default value.",
    Function
);

impl ModifyFunctionReturnTypeToVoid {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let candidates: Vec<&FunctionDef> = surgery_candidates(ctx.ast())
            .into_iter()
            .filter(|f| {
                // Plain (non-void, non-derived) return type written without
                // storage specifiers, so the specifier span is exactly the
                // type words.
                matches!(
                    &f.ret_ty,
                    TySyn::Base { spec, .. } if !matches!(spec, TypeSpecifier::Void)
                ) && f.storage == Storage::None
                    && !f.is_inline
            })
            .collect();
        let Some(func) = ctx.rng().pick(&candidates).copied() else {
            return false;
        };

        // Step 1: change the return type to void.
        ctx.replace(func.ret_ty_span, "void");

        // Step 2: remove all return statements (GPT-4's fixed version keeps
        // them per-function, Figure 4 line 24).
        for ret in
            collect::stmts_matching((ctx.ast(), func), |s| matches!(s.kind, StmtKind::Return(_)))
        {
            ctx.replace(ret.span, ";");
        }

        // Step 3: replace all calls with a default value of the former
        // return type (Figure 4 lines 29–36).
        let is_floating = matches!(
            func.ret_ty.base_spec(),
            Some(
                TypeSpecifier::Float
                    | TypeSpecifier::Double
                    | TypeSpecifier::LongDouble
                    | TypeSpecifier::ComplexFloat
                    | TypeSpecifier::ComplexDouble
            )
        );
        let replacement = if is_floating { "0.0" } else { "0" };
        for call in collect::calls_to(ctx.ast(), &func.name) {
            // Skip recursive calls inside the mutated function itself: their
            // results are gone anyway and the call site text may overlap a
            // removed return statement.
            if func.span.contains_span(call.span) {
                continue;
            }
            ctx.replace(call.span, replacement);
        }
        true
    }
}

mutator!(
    ChangeParamScope,
    "ChangeParamScope",
    "Moves a function parameter from the parameter scope into the local scope of the function, initializing it with 0 and dropping the corresponding argument from every call.",
    Function
);

impl ChangeParamScope {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in surgery_candidates(ctx.ast()) {
            for (i, p) in f.params.iter().enumerate() {
                let Some(_name) = &p.name else { continue };
                // `= 0` must initialize the local: scalars only.
                let scalar = matches!(&p.ty, TySyn::Base { spec, .. } if spec.is_arithmetic())
                    || p.ty.is_pointer();
                if !scalar {
                    continue;
                }
                // All calls must pass exactly params.len() arguments.
                let calls = collect::calls_to(ctx.ast(), &f.name);
                let all_exact = calls.iter().all(|c| {
                    matches!(&c.kind, ExprKind::Call { args, .. } if args.len() == f.params.len())
                });
                if all_exact {
                    spots.push((f, i));
                }
            }
        }
        let Some(&(f, i)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let p = &f.params[i];
        let name = p.name.as_deref().expect("named param");
        if !ctx.remove_param_from_func_decl(f, i) {
            return false;
        }
        let Some(entry) = common::body_entry_offset(ctx.ast(), f) else {
            return false;
        };
        let decl = ctx.format_as_decl(&p.ty, name);
        ctx.insert_after(entry, format!(" {decl} = 0;"));
        for call in collect::calls_to(ctx.ast(), &f.name) {
            ctx.remove_arg_from_call(call, i);
        }
        true
    }
}

mutator!(
    SimpleUninliner,
    "SimpleUninliner",
    "Turn a block of code into a function call.",
    Function
);

impl SimpleUninliner {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let globals = common::global_var_names(ctx.ast());
        let funcs = common::function_names(ctx.ast());
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            for s in
                collect::stmts_matching((ctx.ast(), f), |s| matches!(s.kind, StmtKind::Expr(_)))
            {
                if !common::stmt_is_relocatable(ctx.ast(), s) {
                    continue;
                }
                let idents = common::idents_in_stmt(ctx.ast(), s);
                if idents
                    .iter()
                    .all(|n| globals.contains(n) || funcs.contains(n))
                {
                    spots.push((f.span, s.span));
                }
            }
        }
        let Some(&(fn_span, stmt_span)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let fresh = ctx.generate_unique_name("extracted");
        let body = ctx.source_text(stmt_span);
        ctx.insert_before(
            fn_span.lo,
            format!("static void {fresh}(void) {{ {body} }}\n"),
        );
        ctx.replace(stmt_span, format!("{fresh}();"));
        true
    }
}

mutator!(
    InlineFunctionCall,
    "InlineFunctionCall",
    "Replaces a call to a trivial zero-parameter function (a single return of a global-only expression) with its body expression.",
    Function
);

impl InlineFunctionCall {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let globals = common::global_var_names(ctx.ast());
        let funcs = common::function_names(ctx.ast());
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            if !f.params.is_empty() || f.variadic {
                continue;
            }
            let Some(body) = &f.body else { continue };
            let StmtKind::Compound(items) = &body.kind else {
                continue;
            };
            let [BlockItem::Stmt(only)] = items.as_slice() else {
                continue;
            };
            let StmtKind::Return(Some(expr)) = &only.kind else {
                continue;
            };
            let idents = common::idents_in_stmt(ctx.ast(), only);
            if !idents
                .iter()
                .all(|n| globals.contains(n) || funcs.contains(n))
            {
                continue;
            }
            for call in collect::calls_to(ctx.ast(), &f.name) {
                let ExprKind::Call { args, .. } = &call.kind else {
                    continue;
                };
                if args.is_empty() && !f.span.contains_span(call.span) {
                    spots.push((call.span, ctx.ast()[*expr].span));
                }
            }
        }
        let Some(&(call, expr)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = format!("({})", ctx.source_text(expr));
        ctx.replace(call, text);
        true
    }
}

mutator!(
    AddFunctionParameter,
    "AddFunctionParameter",
    "Appends a fresh int parameter to a function's signature and passes 0 for it at every call site.",
    Function
);

impl AddFunctionParameter {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let candidates = surgery_candidates(ctx.ast());
        let Some(f) = ctx.rng().pick(&candidates).copied() else {
            return false;
        };
        let fresh = ctx.generate_unique_name("extra");
        if let Some(last) = f.params.last() {
            ctx.insert_after(last.span.hi, format!(", int {fresh}"));
        } else {
            let Some(lp) = ctx.find_str_from(f.name_span.hi, "(") else {
                return false;
            };
            let Some(rp) = ctx.find_str_from(lp, ")") else {
                return false;
            };
            // `(void)` or `()` — replace the interior entirely.
            ctx.replace(Span::new(lp + 1, rp), format!("int {fresh}"));
        }
        for call in collect::calls_to(ctx.ast(), &f.name) {
            let ExprKind::Call { args, .. } = &call.kind else {
                continue;
            };
            let insertion = if args.is_empty() { "0" } else { ", 0" };
            ctx.insert_before(call.span.hi - 1, insertion);
        }
        true
    }
}

mutator!(
    RemoveUnusedParameter,
    "RemoveUnusedParameter",
    "Removes a parameter that is never referenced in the function body, dropping the corresponding argument from every call.",
    Function
);

impl RemoveUnusedParameter {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in surgery_candidates(ctx.ast()) {
            let Some(body) = &f.body else { continue };
            let body_span = body.span;
            for (i, p) in f.params.iter().enumerate() {
                let Some(name) = &p.name else { continue };
                let used = collect::uses_of(ctx.ast(), name)
                    .iter()
                    .any(|u| body_span.contains_span(u.span));
                if used {
                    continue;
                }
                let calls = collect::calls_to(ctx.ast(), &f.name);
                let all_exact = calls.iter().all(|c| {
                    matches!(&c.kind, ExprKind::Call { args, .. } if args.len() == f.params.len())
                });
                if all_exact {
                    spots.push((f, i));
                }
            }
        }
        let Some(&(f, i)) = ctx.rng().pick(&spots) else {
            return false;
        };
        if !ctx.remove_param_from_func_decl(f, i) {
            return false;
        }
        for call in collect::calls_to(ctx.ast(), &f.name) {
            ctx.remove_arg_from_call(call, i);
        }
        true
    }
}

mutator!(
    DuplicateFunction,
    "DuplicateFunction",
    "Duplicates an entire function definition under a fresh name, doubling the amount of code the compiler must process.",
    Function
);

impl DuplicateFunction {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let defs: Vec<&FunctionDef> = ctx.ast().function_defs().collect();
        let Some(f) = ctx.rng().pick(&defs).copied() else {
            return false;
        };
        let fresh = ctx.generate_unique_name(&f.name);
        let text = ctx.source_text(f.span);
        let rel_lo = (f.name_span.lo - f.span.lo) as usize;
        let rel_hi = (f.name_span.hi - f.span.lo) as usize;
        let mut copy = String::with_capacity(text.len() + 8);
        copy.push_str(&text[..rel_lo]);
        copy.push_str(&fresh);
        copy.push_str(&text[rel_hi..]);
        ctx.insert_after(f.span.hi, format!("\n{copy}"));
        true
    }
}

mutator!(
    InsertGuardedEarlyReturn,
    "InsertGuardedEarlyReturn",
    "Inserts a never-taken early return at the top of a function body, adding an extra exit edge to its control-flow graph.",
    Function
);

impl InsertGuardedEarlyReturn {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let ret_stmt = match &f.ret_ty {
                TySyn::Base {
                    spec: TypeSpecifier::Void,
                    ..
                } => "return;",
                TySyn::Base { spec, .. } if spec.is_arithmetic() => "return 0;",
                TySyn::Pointer { .. } => "return 0;",
                _ => continue,
            };
            if let Some(entry) = common::body_entry_offset(ctx.ast(), f) {
                spots.push((entry, ret_stmt));
            }
        }
        let Some(&(entry, ret_stmt)) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.insert_after(entry, format!(" if (0) {ret_stmt}"));
        true
    }
}

mutator!(
    MakeFunctionStatic,
    "MakeFunctionStatic",
    "Gives internal linkage to a function definition by adding the static storage class.",
    Function
);

impl MakeFunctionStatic {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots: Vec<u32> = ctx
            .ast()
            .function_defs()
            .filter(|f| f.storage == Storage::None && f.name != "main")
            .map(|f| f.span.lo)
            .collect();
        let Some(&lo) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.insert_before(lo, "static ");
        true
    }
}

mutator!(
    ToggleInlineSpecifier,
    "ToggleInlineSpecifier",
    "Adds the inline specifier to a function definition, or removes it when already present.",
    Function
);

impl ToggleInlineSpecifier {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let defs: Vec<&FunctionDef> = ctx
            .ast()
            .function_defs()
            .filter(|f| f.name != "main")
            .collect();
        let Some(f) = ctx.rng().pick(&defs).copied() else {
            return false;
        };
        if f.is_inline {
            let head = Span::new(f.span.lo, f.name_span.lo);
            let text = ctx.source_text(head);
            if let Some(pos) = text.find("inline") {
                let lo = f.span.lo + pos as u32;
                let mut hi = lo + 6;
                if ctx.ast().source().as_bytes().get(hi as usize) == Some(&b' ') {
                    hi += 1;
                }
                ctx.remove(Span::new(lo, hi));
                return true;
            }
            false
        } else if f.storage == Storage::None {
            // `static inline` keeps the definition self-contained.
            ctx.insert_before(f.span.lo, "static inline ");
            true
        } else {
            false
        }
    }
}

mutator!(
    ReorderFunctionParameters,
    "ReorderFunctionParameters",
    "Swaps two type-interchangeable parameters in a function's signature while leaving every call site unchanged, permuting the data flow.",
    Function
);

impl ReorderFunctionParameters {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in surgery_candidates(ctx.ast()) {
            for i in 0..f.params.len() {
                for j in i + 1..f.params.len() {
                    let (a, b) = (&f.params[i], &f.params[j]);
                    let (Some(ta), Some(tb)) = (ctx.decl_type(a.id), ctx.decl_type(b.id)) else {
                        continue;
                    };
                    if ctx.check_assignment(ta, tb) && ctx.check_assignment(tb, ta) {
                        spots.push((a.span, b.span));
                    }
                }
            }
        }
        let Some(&(sa, sb)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let ta = ctx.source_text(sa);
        let tb = ctx.source_text(sb);
        ctx.replace(sa, tb);
        ctx.replace(sb, ta);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
int base = 5;
int magic(void) { return base * 3; }
unsigned foo(int x, int y) {
    if (x > y) return x;
    return y;
}
double scale(double f) {
    return f * 2.0;
}
int main(void) {
    int a = foo(1, 2);
    base = a;
    base = base + 1;
    double d = scale(1.5) + magic();
    return a + (int)d;
}
"#;

    fn exercise_compiling(m: &dyn Mutator) -> Vec<String> {
        let mut outs = Vec::new();
        for seed in 0..16 {
            match mutate_source(m, SEED, seed).expect("driver ok") {
                MutationOutcome::Mutated(s) => {
                    assert_ne!(s, SEED, "{} identity mutant", m.name());
                    compile_check(&s)
                        .unwrap_or_else(|e| panic!("{} mutant fails: {e}\n{s}", m.name()));
                    outs.push(s);
                }
                MutationOutcome::NotApplicable => {}
            }
        }
        assert!(!outs.is_empty(), "{} never applied", m.name());
        outs
    }

    #[test]
    fn ret2v_full_pipeline() {
        let outs = exercise_compiling(&ModifyFunctionReturnTypeToVoid);
        // At least one mutant turned foo or scale or magic void.
        let foo_void = outs.iter().find(|s| s.contains("void foo"));
        if let Some(s) = foo_void {
            assert!(!s.contains("foo(1, 2)"), "calls must be replaced: {s}");
            assert!(s.contains("int a = 0"), "{s}");
            // Returns are removed from foo's body.
            let foo_start = s.find("void foo").unwrap();
            let foo_end = s[foo_start..].find("double").unwrap() + foo_start;
            assert!(!s[foo_start..foo_end].contains("return"), "{s}");
        }
        let scale_void = outs.iter().find(|s| s.contains("void scale"));
        if let Some(s) = scale_void {
            assert!(s.contains("0.0 + magic()"), "float default: {s}");
        }
        assert!(
            foo_void.is_some()
                || scale_void.is_some()
                || outs.iter().any(|s| s.contains("void magic")),
            "no function voided across seeds: {outs:?}"
        );
    }

    #[test]
    fn change_param_scope() {
        let outs = exercise_compiling(&ChangeParamScope);
        assert!(
            outs.iter().any(|s| {
                (s.contains("int x = 0;") && s.contains("foo(2)"))
                    || (s.contains("int y = 0;") && s.contains("foo(1)"))
                    || (s.contains("double f = 0;") && s.contains("scale()"))
            }),
            "{outs:?}"
        );
    }

    #[test]
    fn uninline_statement() {
        let outs = exercise_compiling(&SimpleUninliner);
        assert!(
            outs.iter().any(
                |s| s.contains("static void extracted_0(void) { base = base + 1; }")
                    && s.contains("extracted_0();")
            ),
            "{outs:?}"
        );
    }

    #[test]
    fn inline_trivial_call() {
        let outs = exercise_compiling(&InlineFunctionCall);
        assert!(outs.iter().any(|s| s.contains("(base * 3)")), "{outs:?}");
    }

    #[test]
    fn add_parameter() {
        let outs = exercise_compiling(&AddFunctionParameter);
        assert!(outs
            .iter()
            .any(|s| s.contains(", int extra_0") || s.contains("(int extra_0)")));
        // Whenever foo was the target, its call site gained the extra 0.
        for s in outs.iter().filter(|s| s.contains("int y, int extra_0")) {
            assert!(s.contains("foo(1, 2, 0)"), "{s}");
        }
    }

    #[test]
    fn remove_unused_parameter() {
        let src = "int f(int used, int unused) { return used; } int main(void) { return f(1, 2); }";
        let mut applied = false;
        for seed in 0..8 {
            if let MutationOutcome::Mutated(s) =
                mutate_source(&RemoveUnusedParameter, src, seed).unwrap()
            {
                compile_check(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
                assert!(s.contains("f(int used)"), "{s}");
                assert!(s.contains("f(1)"), "{s}");
                applied = true;
            }
        }
        assert!(applied);
    }

    #[test]
    fn duplicate_function() {
        for s in exercise_compiling(&DuplicateFunction) {
            assert!(s.len() > SEED.len());
        }
    }

    #[test]
    fn guarded_early_return() {
        let outs = exercise_compiling(&InsertGuardedEarlyReturn);
        assert!(outs
            .iter()
            .any(|s| s.contains("if (0) return 0;") || s.contains("if (0) return;")));
    }

    #[test]
    fn function_made_static() {
        let outs = exercise_compiling(&MakeFunctionStatic);
        assert!(outs.iter().all(|s| s.contains("static ")));
    }

    #[test]
    fn inline_toggled() {
        let outs = exercise_compiling(&ToggleInlineSpecifier);
        assert!(outs.iter().any(|s| s.contains("static inline ")));
        // Removal direction.
        let src = "inline int f(void) { return 1; } int main(void) { return f(); }";
        let mut removed = false;
        for seed in 0..8 {
            if let MutationOutcome::Mutated(s) =
                mutate_source(&ToggleInlineSpecifier, src, seed).unwrap()
            {
                compile_check(&s).unwrap();
                if !s.contains("inline") {
                    removed = true;
                }
            }
        }
        assert!(removed);
    }

    #[test]
    fn reorder_parameters() {
        let outs = exercise_compiling(&ReorderFunctionParameters);
        assert!(
            outs.iter().any(|s| s.contains("foo(int y, int x)")),
            "{outs:?}"
        );
    }
}

mutator!(
    ReturnViaTemporary,
    "ReturnViaTemporary",
    "Rewrites return e; into a block that stores e into a fresh temporary of its checked type and returns the temporary.",
    Function
);

impl ReturnViaTemporary {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for s in collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Return(Some(_))))
        {
            let StmtKind::Return(Some(e)) = &s.kind else {
                continue;
            };
            let Some(t) = ctx.type_of(&ctx.ast()[*e]) else {
                continue;
            };
            let d = t.ty.decayed();
            // Only spell types whose Display form is a valid C specifier.
            let simple = d.is_integer() && !matches!(d, metamut_lang::types::Type::Enum { .. })
                || d.is_floating();
            if simple {
                spots.push((s.span, ctx.ast()[*e].span, d.to_string()));
            }
        }
        let Some((span, expr, ty)) = ctx.rng().take(&mut spots) else {
            return false;
        };
        let tmp = ctx.generate_unique_name("ret_tmp");
        let new = format!(
            "{{ {ty} {tmp} = {}; return {tmp}; }}",
            ctx.source_text(expr)
        );
        ctx.replace(span, new);
        true
    }
}

mutator!(
    AddFunctionPrototype,
    "AddFunctionPrototype",
    "Inserts an explicit prototype for a defined function at the top of the file, making its signature visible earlier.",
    Function
);

impl AddFunctionPrototype {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut decl_count = std::collections::HashMap::new();
        for d in &ctx.ast().unit.decls {
            if let ExternalDecl::Function(f) = d {
                *decl_count.entry(f.name.as_str()).or_insert(0usize) += 1;
            }
        }
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            if f.name == "main" || decl_count[f.name.as_str()] != 1 || f.storage != Storage::None {
                continue;
            }
            // Only prototype signatures whose types print cleanly (base
            // specifiers and pointers; inline record defs would duplicate).
            let clean = |t: &TySyn| {
                !matches!(
                    t.base_spec(),
                    Some(TypeSpecifier::RecordDef(_)) | Some(TypeSpecifier::EnumDef(_))
                )
            };
            if !clean(&f.ret_ty) || !f.params.iter().all(|p| clean(&p.ty)) {
                continue;
            }
            spots.push(f);
        }
        let Some(f) = ctx.rng().pick(&spots).copied() else {
            return false;
        };
        ctx.insert_before(
            0,
            format!("{};\n", printer::format_function_decl(ctx.ast(), f)),
        );
        true
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
double half(double x) { return x / 2.0; }
int bump(int v) { return v + 1; }
int main(void) { return bump((int)half(8.0)); }
"#;

    fn exercise(m: &dyn Mutator) -> Vec<String> {
        let mut outs = Vec::new();
        for seed in 0..12 {
            if let MutationOutcome::Mutated(s) = mutate_source(m, SEED, seed).expect("driver ok") {
                compile_check(&s).unwrap_or_else(|e| panic!("{}: {e}\n{s}", m.name()));
                outs.push(s);
            }
        }
        assert!(!outs.is_empty(), "{} never applied", m.name());
        outs
    }

    #[test]
    fn return_via_temp() {
        let outs = exercise(&ReturnViaTemporary);
        assert!(
            outs.iter()
                .any(|s| s.contains("ret_tmp_0 = v + 1; return ret_tmp_0;")
                    || s.contains("double ret_tmp_0 = x / 2.0;")),
            "{outs:?}"
        );
    }

    #[test]
    fn prototype_added() {
        let outs = exercise(&AddFunctionPrototype);
        assert!(
            outs.iter()
                .any(|s| s.starts_with("double half(double x);")
                    || s.starts_with("int bump(int v);")),
            "{outs:?}"
        );
    }
}
