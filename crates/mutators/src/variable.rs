//! Variable mutators (§4.1: 16 of the paper's 118 target variables).

use crate::common::{self, mutator};
use metamut_lang::ast::*;
use metamut_lang::source::Span;
use metamut_muast::{collect, MutCtx};
use std::collections::HashMap;

fn init_expr_span(v: &VarDecl) -> Option<Span> {
    match &v.init {
        Some(Initializer::Expr(e)) => Some(e.span),
        Some(Initializer::List { span, .. }) => Some(*span),
        None => None,
    }
}

mutator!(
    SwitchInitExpr,
    "SwitchInitExpr",
    "Randomly selects a VarDecl and swaps its init expression with the init expression of another randomly selected VarDecl in the same scope, while ensuring the types of the variables are compatible.",
    Variable
);

impl SwitchInitExpr {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let decls: HashMap<NodeId, &VarDecl> = collect::all_var_decls(ctx.ast())
            .into_iter()
            .map(|v| (v.id, v))
            .collect();
        let mut pairs = Vec::new();
        for ids in ctx.sema().scope_vars.values() {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    let (Some(va), Some(vb)) = (decls.get(&a), decls.get(&b)) else {
                        continue;
                    };
                    let (Some(sa), Some(sb)) = (init_expr_span(va), init_expr_span(vb)) else {
                        continue;
                    };
                    let (Some(ta), Some(tb)) = (ctx.decl_type(a), ctx.decl_type(b)) else {
                        continue;
                    };
                    // Initializer of b must fit a and vice versa; literal
                    // swaps between arithmetic types always do.
                    if ctx.check_assignment(ta, tb) && ctx.check_assignment(tb, ta) {
                        // Swapping initializers is only safe when neither
                        // init refers to the other variable (use-before-decl)
                        // — approximate by rejecting inits that mention any
                        // identifier declared in the same scope.
                        pairs.push((sa, sb));
                    }
                }
            }
        }
        let Some(&(sa, sb)) = ctx.rng().pick(&pairs) else {
            return false;
        };
        let ta = ctx.source_text(sa);
        let tb = ctx.source_text(sb);
        ctx.replace(sa, tb);
        ctx.replace(sb, ta);
        true
    }
}

mutator!(
    ChangeVarDeclQualifier,
    "ChangeVarDeclQualifier",
    "Toggles the const qualifier on a randomly selected variable declaration, adding it when absent and removing it when present.",
    Variable
);

impl ChangeVarDeclQualifier {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let candidates: Vec<&VarDecl> = vars
            .into_iter()
            .filter(|v| !v.specs_span.is_empty())
            .collect();
        let Some(v) = ctx.rng().pick(&candidates).copied() else {
            return false;
        };
        let specs = ctx.source_text(v.specs_span);
        if let Some(pos) = specs.find("const") {
            let lo = v.specs_span.lo + pos as u32;
            let mut hi = lo + 5;
            // Also consume one following space.
            if ctx.ast().source().as_bytes().get(hi as usize) == Some(&b' ') {
                hi += 1;
            }
            ctx.remove(Span::new(lo, hi));
        } else {
            ctx.insert_before(v.specs_span.lo, "const ");
        }
        true
    }
}

mutator!(
    ModifyVarInitialValue,
    "ModifyVarInitialValue",
    "Replaces the integer initializer of a randomly selected variable declaration with a boundary value such as 0, 1, -1, INT_MAX or INT_MIN.",
    Variable
);

impl ModifyVarInitialValue {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let mut spots = Vec::new();
        for v in &vars {
            if let Some(Initializer::Expr(e)) = &v.init {
                if matches!(e.kind, ExprKind::IntLit { .. }) {
                    spots.push(e.span);
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let current = ctx.source_text(span);
        let boundary: Vec<&str> = [
            "0",
            "1",
            "-1",
            "2147483647",
            "(-2147483647 - 1)",
            "255",
            "65536",
        ]
        .into_iter()
        .filter(|b| *b != current)
        .collect();
        let pick = *ctx.rng().pick(&boundary).expect("nonempty");
        ctx.replace(span, pick);
        true
    }
}

mutator!(
    RemoveVarInit,
    "RemoveVarInit",
    "Deletes the initializer from a randomly selected local variable declaration, leaving the variable uninitialized.",
    Variable
);

impl RemoveVarInit {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for g in common::local_decl_groups(ctx.ast()) {
            for v in &g.vars {
                // Unsized arrays need their initializer to be complete.
                let unsized_array = matches!(&v.ty, TySyn::Array { size: None, .. });
                if unsized_array || v.init.is_none() {
                    continue;
                }
                let init_span = init_expr_span(v).expect("init present");
                if let Some(eq) = ctx.find_str_from(v.name_span.hi, "=") {
                    if eq < init_span.lo {
                        spots.push(Span::new(eq, init_span.hi));
                    }
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        // Also trim the space before '='.
        let lo = if ctx.ast().source().as_bytes().get(span.lo as usize - 1) == Some(&b' ') {
            span.lo - 1
        } else {
            span.lo
        };
        ctx.remove(Span::new(lo, span.hi));
        true
    }
}

mutator!(
    PromoteLocalToGlobal,
    "PromoteLocalToGlobal",
    "Moves a randomly selected simple local variable declaration to file scope, widening its lifetime and storage.",
    Variable
);

impl PromoteLocalToGlobal {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let globals = common::global_var_names(ctx.ast());
        let funcs = common::function_names(ctx.ast());
        let mut spots = Vec::new();
        for g in common::local_decl_groups(ctx.ast()) {
            if g.vars.len() != 1 {
                continue;
            }
            let v = &g.vars[0];
            let simple_init = match &v.init {
                None => true,
                Some(Initializer::Expr(e)) => e.is_literal(),
                Some(Initializer::List { .. }) => false,
            };
            let simple_ty = matches!(
                &v.ty,
                TySyn::Base {
                    spec: TypeSpecifier::Char
                        | TypeSpecifier::Int
                        | TypeSpecifier::UInt
                        | TypeSpecifier::Long
                        | TypeSpecifier::ULong
                        | TypeSpecifier::Short
                        | TypeSpecifier::Float
                        | TypeSpecifier::Double,
                    ..
                }
            );
            if simple_init
                && simple_ty
                && v.storage == Storage::None
                && !globals.contains(v.name.as_str())
                && !funcs.contains(v.name.as_str())
            {
                spots.push(g);
            }
        }
        let Some(g) = ctx.rng().pick(&spots).copied() else {
            return false;
        };
        let text = ctx.source_text(g.span);
        ctx.remove(g.span);
        ctx.insert_before(0, format!("{text}\n"));
        true
    }
}

mutator!(
    DuplicateVarDecl,
    "DuplicateVarDecl",
    "Duplicates a randomly selected local variable declaration under a fresh name, inserting the copy immediately after the original.",
    Variable
);

impl DuplicateVarDecl {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for g in common::local_decl_groups(ctx.ast()) {
            if g.vars.len() != 1 {
                continue;
            }
            let v = &g.vars[0];
            let inline_def = matches!(
                v.ty.base_spec(),
                Some(TypeSpecifier::RecordDef(_)) | Some(TypeSpecifier::EnumDef(_))
            );
            if !inline_def {
                spots.push(g);
            }
        }
        let Some(g) = ctx.rng().pick(&spots).copied() else {
            return false;
        };
        let v = &g.vars[0];
        let fresh = ctx.generate_unique_name(&v.name);
        let decl = ctx.format_as_decl(&v.ty, &fresh);
        let init = if matches!(v.ty, TySyn::Base { .. }) {
            " = 0"
        } else {
            ""
        };
        ctx.insert_after(g.span.hi, format!(" {decl}{init};"));
        true
    }
}

mutator!(
    InlineVarInit,
    "InlineVarInit",
    "Replaces one rvalue use of a variable with its literal initializer value, propagating the constant forward.",
    Variable
);

impl InlineVarInit {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(f);
            for g in common::local_decl_groups(ctx.ast()) {
                for v in &g.vars {
                    if !f.span.contains_span(v.span) {
                        continue;
                    }
                    let Some(Initializer::Expr(init)) = &v.init else {
                        continue;
                    };
                    if !matches!(
                        init.kind,
                        ExprKind::IntLit { .. }
                            | ExprKind::FloatLit { .. }
                            | ExprKind::CharLit { .. }
                    ) {
                        continue;
                    }
                    for u in collect::exprs_matching(
                        f,
                        |e| matches!(&e.kind, ExprKind::Ident(n) if *n == v.name),
                    ) {
                        if u.span.lo >= v.span.hi && !common::span_excluded(u.span, &excluded) {
                            spots.push((u.span, init.span));
                        }
                    }
                }
            }
        }
        let Some(&(use_span, init_span)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = format!("({})", ctx.source_text(init_span));
        ctx.replace(use_span, text);
        true
    }
}

mutator!(
    SwapVarUses,
    "SwapVarUses",
    "Selects two type-compatible variables in the same function and swaps one rvalue use of each, perturbing the data flow.",
    Variable
);

impl SwapVarUses {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots: Vec<(Span, Span)> = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(f);
            let uses = collect::exprs_matching(f, |e| matches!(e.kind, ExprKind::Ident(_)));
            let usable: Vec<&Expr> = uses
                .into_iter()
                .filter(|u| !common::span_excluded(u.span, &excluded))
                .collect();
            for (i, a) in usable.iter().enumerate() {
                for b in &usable[i + 1..] {
                    let (ExprKind::Ident(na), ExprKind::Ident(nb)) = (&a.kind, &b.kind) else {
                        continue;
                    };
                    if na == nb || a.span.overlaps(b.span) {
                        continue;
                    }
                    if ctx.types_interchangeable(a, b) {
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

mutator!(
    AggregateMemberToScalarVariable,
    "AggregateMemberToScalarVariable",
    "Transforms a constant-index array subscript expression into a fresh scalar variable, adding a declaration for it and rewriting every matching subscript.",
    Variable
);

impl AggregateMemberToScalarVariable {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Find `name[K]` with integer literal K on an array variable whose
        // element type is a plain base type.
        let vars: HashMap<&str, &VarDecl> = collect::all_var_decls(ctx.ast())
            .into_iter()
            .map(|v| (v.name.as_str(), v))
            .collect();
        let subs = collect::exprs_matching(ctx.ast(), |e| {
            let ExprKind::Index { base, index } = &e.kind else {
                return false;
            };
            matches!(base.unparenthesized().kind, ExprKind::Ident(_))
                && matches!(index.unparenthesized().kind, ExprKind::IntLit { .. })
        });
        let mut candidates = Vec::new();
        for s in &subs {
            let ExprKind::Index { base, index } = &s.kind else {
                continue;
            };
            let ExprKind::Ident(name) = &base.unparenthesized().kind else {
                continue;
            };
            let ExprKind::IntLit { value, .. } = &index.unparenthesized().kind else {
                continue;
            };
            let Some(v) = vars.get(name.as_str()) else {
                continue;
            };
            let TySyn::Array { elem, .. } = &v.ty else {
                continue;
            };
            if matches!(**elem, TySyn::Base { .. }) {
                candidates.push((name.as_str(), *value, &**elem));
            }
        }
        candidates.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        candidates.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let Some(&(name, value, elem)) = ctx.rng().pick(&candidates) else {
            return false;
        };
        let fresh = ctx.generate_unique_name(&format!("{name}_{value}"));
        // Rewrite every subscript of this variable with this constant.
        for s in &subs {
            let ExprKind::Index { base, index } = &s.kind else {
                continue;
            };
            let matches_target = matches!(&base.unparenthesized().kind, ExprKind::Ident(n) if n == name)
                && matches!(index.unparenthesized().kind, ExprKind::IntLit { value: v2, .. } if v2 == value);
            if matches_target {
                ctx.replace(s.span, fresh.clone());
            }
        }
        let decl = ctx.format_as_decl(elem, &fresh);
        ctx.insert_before(0, format!("{decl};\n"));
        true
    }
}

mutator!(
    RenameVariable,
    "RenameVariable",
    "Renames a uniquely declared variable and all of its uses to a fresh identifier.",
    Variable
);

impl RenameVariable {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Names declared exactly once in the whole program are safe to
        // rename without scope analysis.
        let all = collect::all_var_decls(ctx.ast());
        let mut count: HashMap<&str, usize> = HashMap::new();
        for v in &all {
            *count.entry(v.name.as_str()).or_default() += 1;
        }
        for f in ctx.ast().function_defs() {
            for p in &f.params {
                if let Some(n) = &p.name {
                    *count.entry(n.as_str()).or_default() += 1;
                }
            }
        }
        let funcs = common::function_names(ctx.ast());
        let candidates: Vec<&VarDecl> = all
            .into_iter()
            .filter(|v| count[v.name.as_str()] == 1 && !funcs.contains(v.name.as_str()))
            .collect();
        let Some(v) = ctx.rng().pick(&candidates).copied() else {
            return false;
        };
        let fresh = ctx.generate_unique_name(&v.name);
        ctx.replace(v.name_span, fresh.clone());
        for u in collect::uses_of(ctx.ast(), &v.name) {
            ctx.replace(u.span, fresh.clone());
        }
        true
    }
}

mutator!(
    AddVolatileQualifier,
    "AddVolatileQualifier",
    "Adds the volatile qualifier to a randomly selected variable declaration, forcing the compiler to preserve its accesses.",
    Variable
);

impl AddVolatileQualifier {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let vars = collect::all_var_decls(ctx.ast());
        let spots: Vec<&VarDecl> = vars
            .into_iter()
            .filter(|v| !ctx.source_text(v.specs_span).contains("volatile"))
            .collect();
        let Some(v) = ctx.rng().pick(&spots).copied() else {
            return false;
        };
        ctx.insert_before(v.specs_span.lo, "volatile ");
        true
    }
}

mutator!(
    MakeGlobalStatic,
    "MakeGlobalStatic",
    "Gives internal linkage to a randomly selected file-scope variable by adding the static storage class.",
    Variable
);

impl MakeGlobalStatic {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for d in &ctx.ast().unit.decls {
            if let ExternalDecl::Vars(g) = d {
                if g.vars.iter().all(|v| v.storage == Storage::None) {
                    if let Some(v) = g.vars.first() {
                        spots.push(v.specs_span.lo.min(g.span.lo));
                    }
                }
            }
        }
        let Some(&lo) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.insert_before(lo, "static ");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
int g_counter = 10;
int r[6];
int compute(int a, int b) {
    int x = 1;
    int y = 2;
    r[0] = a + x;
    r[1] = b + y;
    return r[0] * r[1] + g_counter;
}
int main(void) {
    return compute(3, 4);
}
"#;

    fn run_ok(m: &dyn Mutator, seed: u64) -> Option<String> {
        match mutate_source(m, SEED, seed).expect("driver must not fail") {
            MutationOutcome::Mutated(s) => Some(s),
            MutationOutcome::NotApplicable => None,
        }
    }

    /// Runs a mutator over several seeds; asserts it applies at least once
    /// and that every produced mutant differs from the input.
    fn exercise(m: &dyn Mutator) -> Vec<String> {
        let mut outs = Vec::new();
        for seed in 0..12 {
            if let Some(s) = run_ok(m, seed) {
                assert_ne!(s, SEED, "{} produced identity mutant", m.name());
                outs.push(s);
            }
        }
        assert!(!outs.is_empty(), "{} never applied", m.name());
        outs
    }

    #[test]
    fn switch_init_expr_swaps() {
        let outs = exercise(&SwitchInitExpr);
        assert!(outs
            .iter()
            .any(|s| s.contains("int x = 2") && s.contains("int y = 1")));
        for s in &outs {
            compile_check(s).expect("mutant must compile");
        }
    }

    #[test]
    fn qualifier_toggles() {
        let outs = exercise(&ChangeVarDeclQualifier);
        assert!(outs.iter().any(|s| s.contains("const ")));
    }

    #[test]
    fn initial_value_modified() {
        for s in exercise(&ModifyVarInitialValue) {
            compile_check(&s).expect("mutant must compile");
        }
    }

    #[test]
    fn init_removed() {
        let outs = exercise(&RemoveVarInit);
        assert!(outs
            .iter()
            .any(|s| s.contains("int x;") || s.contains("int y;")));
        for s in &outs {
            compile_check(s).expect("mutant must compile");
        }
    }

    #[test]
    fn local_promoted() {
        for s in exercise(&PromoteLocalToGlobal) {
            compile_check(&s).unwrap_or_else(|e| panic!("mutant must compile: {e}\n{s}"));
            assert!(s.starts_with("int x = 1;") || s.starts_with("int y = 2;"));
        }
    }

    #[test]
    fn decl_duplicated() {
        for s in exercise(&DuplicateVarDecl) {
            compile_check(&s).unwrap_or_else(|e| panic!("mutant must compile: {e}\n{s}"));
        }
    }

    #[test]
    fn init_inlined() {
        for s in exercise(&InlineVarInit) {
            compile_check(&s).unwrap_or_else(|e| panic!("mutant must compile: {e}\n{s}"));
            assert!(s.contains("(1)") || s.contains("(2)"), "{s}");
        }
    }

    #[test]
    fn uses_swapped() {
        for s in exercise(&SwapVarUses) {
            compile_check(&s).unwrap_or_else(|e| panic!("mutant must compile: {e}\n{s}"));
        }
    }

    #[test]
    fn aggregate_to_scalar() {
        let outs = exercise(&AggregateMemberToScalarVariable);
        for s in &outs {
            compile_check(s).unwrap_or_else(|e| panic!("mutant must compile: {e}\n{s}"));
        }
        assert!(outs.iter().any(|s| s.contains("r_0") || s.contains("r_1")));
    }

    #[test]
    fn variable_renamed() {
        for s in exercise(&RenameVariable) {
            compile_check(&s).unwrap_or_else(|e| panic!("mutant must compile: {e}\n{s}"));
        }
    }

    #[test]
    fn volatile_added() {
        let outs = exercise(&AddVolatileQualifier);
        assert!(outs.iter().all(|s| s.contains("volatile ")));
        for s in &outs {
            compile_check(s).expect("mutant must compile");
        }
    }

    #[test]
    fn global_made_static() {
        let outs = exercise(&MakeGlobalStatic);
        assert!(outs.iter().all(|s| s.contains("static ")));
        for s in &outs {
            compile_check(s).expect("mutant must compile");
        }
    }
}

mutator!(
    ZeroInitializeVariable,
    "ZeroInitializeVariable",
    "Adds an explicit zero initializer to an uninitialized scalar local variable, removing an indeterminate-value read.",
    Variable
);

impl ZeroInitializeVariable {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for g in common::local_decl_groups(ctx.ast()) {
            for v in &g.vars {
                let scalar = matches!(&v.ty, TySyn::Base { spec, .. } if spec.is_arithmetic())
                    || v.ty.is_pointer();
                if v.init.is_none() && scalar && v.storage == Storage::None {
                    // The declarator ends right after the name for scalars.
                    spots.push(v.name_span.hi);
                }
            }
        }
        let Some(&off) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.insert_after(off, " = 0");
        true
    }
}

mutator!(
    RenameParameter,
    "RenameParameter",
    "Renames a uniquely named function parameter and all of its uses to a fresh identifier.",
    Variable
);

impl RenameParameter {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Same uniqueness discipline as RenameVariable: the name must be
        // declared exactly once program-wide.
        let mut count: HashMap<&str, usize> = HashMap::new();
        for v in collect::all_var_decls(ctx.ast()) {
            *count.entry(v.name.as_str()).or_default() += 1;
        }
        let mut params = Vec::new();
        for f in ctx.ast().function_defs() {
            for p in &f.params {
                if let Some(n) = &p.name {
                    *count.entry(n.as_str()).or_default() += 1;
                    params.push((n.as_str(), p.name_span));
                }
            }
        }
        let funcs = common::function_names(ctx.ast());
        let candidates: Vec<(&str, Span)> = params
            .into_iter()
            .filter(|(n, _)| count[n] == 1 && !funcs.contains(n))
            .collect();
        let Some(&(name, name_span)) = ctx.rng().pick(&candidates) else {
            return false;
        };
        let fresh = ctx.generate_unique_name(name);
        ctx.replace(name_span, fresh.clone());
        for u in collect::uses_of(ctx.ast(), name) {
            ctx.replace(u.span, fresh.clone());
        }
        true
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome};

    const SEED: &str = r#"
int accumulate(int seed_val) {
    int total;
    total = seed_val;
    for (int i = 0; i < 3; i++) total += i;
    return total;
}
int main(void) { return accumulate(5); }
"#;

    #[test]
    fn zero_initialized() {
        let mut hit = false;
        for seed in 0..8 {
            if let MutationOutcome::Mutated(s) =
                mutate_source(&ZeroInitializeVariable, SEED, seed).unwrap()
            {
                compile_check(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
                assert!(s.contains("int total = 0;"), "{s}");
                hit = true;
            }
        }
        assert!(hit);
    }

    #[test]
    fn parameter_renamed() {
        let mut hit = false;
        for seed in 0..8 {
            if let MutationOutcome::Mutated(s) =
                mutate_source(&RenameParameter, SEED, seed).unwrap()
            {
                compile_check(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
                assert!(!s.contains("seed_val") || s.contains("seed_val_0"), "{s}");
                hit = true;
            }
        }
        assert!(hit);
    }
}
