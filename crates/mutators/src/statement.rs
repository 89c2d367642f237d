//! Statement mutators (§4.1: 27 of the paper's 118 target statements).

use crate::common::{self, mutator};
use metamut_lang::ast::*;
use metamut_lang::source::Span;
use metamut_muast::{collect, MutCtx};

mutator!(
    DuplicateBranch,
    "DuplicateBranch",
    "Finds an IfStmt, duplicates one of its branches (then or else), and replaces the other branch with the duplicated one.",
    Statement
);

impl DuplicateBranch {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let ifs = collect::if_stmts(ctx.ast());
        let mut spots = Vec::new();
        for s in &ifs {
            let StmtKind::If {
                then_stmt,
                else_stmt: Some(else_stmt),
                ..
            } = &s.kind
            else {
                continue;
            };
            spots.push((then_stmt.span, else_stmt.span));
        }
        let Some(&(then_span, else_span)) = ctx.rng().pick(&spots) else {
            return false;
        };
        if ctx.rng().chance(0.5) {
            let text = ctx.source_text(then_span);
            ctx.replace(else_span, text);
        } else {
            let text = ctx.source_text(else_span);
            ctx.replace(then_span, text);
        }
        true
    }
}

mutator!(
    TransformSwitchToIfElse,
    "TransformSwitchToIfElse",
    "Identifies a 'switch' statement in the code and transforms it into an equivalent series of 'if-else' statements, effectively altering the control flow structure.",
    Statement
);

impl TransformSwitchToIfElse {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let switches =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Switch { .. }));
        let mut spots = Vec::new();
        for s in &switches {
            if let Some(plan) = self.plan(ctx, s) {
                spots.push((s.span, plan));
            }
        }
        let Some((span, plan)) = ctx.rng().take(&mut spots) else {
            return false;
        };
        ctx.replace(span, plan);
        true
    }

    /// Builds the if-else chain for "flat" switches: a compound body whose
    /// items are case/default labels over break-terminated runs.
    fn plan(&self, ctx: &MutCtx<'_>, s: &Stmt) -> Option<String> {
        let StmtKind::Switch { cond, body } = &s.kind else {
            return None;
        };
        let StmtKind::Compound(items) = &body.kind else {
            return None;
        };
        // Each arm: (Some(label-expr) | None for default, statements).
        let mut arms: Vec<(Option<Span>, Vec<Span>)> = Vec::new();
        for item in items {
            let BlockItem::Stmt(st) = item else {
                return None; // declarations inside switch body: bail out
            };
            let mut cur = st;
            // Unwrap stacked labels: `case 1: case 2: stmt`.
            let mut labels_here = Vec::new();
            loop {
                match &cur.kind {
                    StmtKind::Case { expr, stmt } => {
                        labels_here.push(Some(expr.span));
                        cur = stmt;
                    }
                    StmtKind::Default { stmt } => {
                        labels_here.push(None);
                        cur = stmt;
                    }
                    _ => break,
                }
            }
            if labels_here.is_empty() {
                // Continuation of the previous arm.
                match arms.last_mut() {
                    Some((_, stmts)) => stmts.push(cur.span),
                    None => return None,
                }
            } else {
                // Fallthrough chains (multiple labels on one arm) are out of
                // scope for this mutator; accept only one label per arm.
                if labels_here.len() > 1 {
                    return None;
                }
                arms.push((labels_here[0], vec![cur.span]));
            }
            // Any goto/label/continue inside makes textual lifting unsafe.
            if !switch_arm_liftable(cur) {
                return None;
            }
        }
        if arms.is_empty() {
            return None;
        }
        // Every arm must end with a break for if-else equivalence.
        let cond_text = ctx.source_text(cond.span);
        let mut out = String::new();
        let mut first = true;
        let mut default_body: Option<String> = None;
        for (label, stmts) in &arms {
            let mut body_text = String::new();
            for &sp in stmts {
                let t = ctx.source_text(sp);
                if t == "break;" {
                    continue;
                }
                body_text.push_str(t);
                body_text.push(' ');
            }
            match label {
                Some(lsp) => {
                    let l = ctx.source_text(*lsp);
                    if !first {
                        out.push_str("else ");
                    }
                    out.push_str(&format!("if (({cond_text}) == ({l})) {{ {body_text}}} "));
                    first = false;
                }
                None => default_body = Some(body_text),
            }
        }
        if let Some(d) = default_body {
            if first {
                out.push_str(&format!("{{ {d}}}"));
            } else {
                out.push_str(&format!("else {{ {d}}}"));
            }
        }
        Some(format!("{{ {out} }}"))
    }
}

/// Whether a switch arm's statement can be lifted into an if-else chain:
/// no stray break/continue/goto/labels below the top level.
fn switch_arm_liftable(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::Break => true, // the arm-terminating break is dropped
        StmtKind::Expr(_) | StmtKind::Null | StmtKind::Return(_) => true,
        StmtKind::Compound(items) => items.iter().all(|i| match i {
            BlockItem::Stmt(st) => switch_arm_liftable(st),
            BlockItem::Decl(_) => true,
        }),
        _ => false,
    }
}

mutator!(
    UnrollLoopOnce,
    "UnrollLoopOnce",
    "Peels one guarded iteration of a while loop, prepending if (cond) body before the loop.",
    Statement
);

impl UnrollLoopOnce {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let loops =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::While { .. }));
        let mut spots = Vec::new();
        for s in &loops {
            let StmtKind::While { cond, body } = &s.kind else {
                continue;
            };
            if common::stmt_is_relocatable(body) {
                spots.push((s.span, cond.span, body.span));
            }
        }
        let Some(&(loop_span, cond_span, body_span)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let cond = ctx.source_text(cond_span);
        let body = ctx.source_text(body_span);
        ctx.insert_before(loop_span.lo, format!("if ({cond}) {body} "));
        true
    }
}

mutator!(
    DuplicateStatement,
    "DuplicateStatement",
    "Duplicates a randomly selected expression statement immediately after itself.",
    Statement
);

impl DuplicateStatement {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let stmts = block_expr_stmts(ctx.ast());
        let Some(s) = ctx.rng().pick(&stmts) else {
            return false;
        };
        let text = ctx.source_text(s.span);
        ctx.insert_after(s.span.hi, format!(" {text}"));
        true
    }
}

/// Expression statements that appear directly as block items, so inserting
/// a sibling right after them stays inside the same scope (duplicating the
/// lone body of a `for (int i = ...)` would escape `i`'s scope).
fn block_expr_stmts(ast: &Ast) -> Vec<&Stmt> {
    let mut out = Vec::new();
    for b in collect::blocks(ast) {
        let StmtKind::Compound(items) = &b.kind else {
            continue;
        };
        for item in items {
            if let BlockItem::Stmt(s) = item {
                if matches!(s.kind, StmtKind::Expr(_)) {
                    out.push(s);
                }
            }
        }
    }
    out
}

mutator!(
    DeleteStatement,
    "DeleteStatement",
    "Deletes a randomly selected expression statement, removing a computation from the program.",
    Statement
);

impl DeleteStatement {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Deleting the lone statement of an if/while body is still valid C
        // only if we leave a `;` — do that unconditionally.
        let stmts = collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Expr(_)));
        let Some(s) = ctx.rng().pick(&stmts) else {
            return false;
        };
        ctx.replace(s.span, ";");
        true
    }
}

mutator!(
    WrapStatementInIf,
    "WrapStatementInIf",
    "Wraps a randomly selected statement into an always-taken if (1) { ... } block.",
    Statement
);

impl WrapStatementInIf {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let stmts = collect::stmts_matching(ctx.ast(), |s| {
            matches!(s.kind, StmtKind::Expr(_) | StmtKind::Return(_))
        });
        let Some(s) = ctx.rng().pick(&stmts) else {
            return false;
        };
        let text = ctx.source_text(s.span);
        ctx.replace(s.span, format!("if (1) {{ {text} }}"));
        true
    }
}

mutator!(
    WrapStatementInDoWhile,
    "WrapStatementInDoWhile",
    "Wraps a randomly selected expression statement into a do { ... } while (0) loop.",
    Statement
);

impl WrapStatementInDoWhile {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let stmts = collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Expr(_)));
        let eligible: Vec<&Stmt> = stmts
            .into_iter()
            .filter(|s| common::stmt_is_relocatable(s))
            .collect();
        let Some(s) = ctx.rng().pick(&eligible).copied() else {
            return false;
        };
        let text = ctx.source_text(s.span);
        ctx.replace(s.span, format!("do {{ {text} }} while (0);"));
        true
    }
}

mutator!(
    InverseIfBranches,
    "InverseIfBranches",
    "Negates the condition of an if-else statement and swaps its branches, preserving behavior while restructuring control flow.",
    Statement
);

impl InverseIfBranches {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let ifs = collect::if_stmts(ctx.ast());
        let mut spots = Vec::new();
        for s in &ifs {
            if let StmtKind::If {
                cond,
                then_stmt,
                else_stmt: Some(else_stmt),
            } = &s.kind
            {
                // `else if` chains would need re-bracing; only swap when the
                // else branch is not itself an if.
                if !matches!(else_stmt.kind, StmtKind::If { .. }) {
                    spots.push((cond.span, then_stmt.span, else_stmt.span));
                }
            }
        }
        let Some(&(cond, then_s, else_s)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let c = ctx.source_text(cond);
        let t = ctx.source_text(then_s);
        let e = ctx.source_text(else_s);
        ctx.replace(cond, format!("!({c})"));
        ctx.replace(then_s, e);
        ctx.replace(else_s, t);
        true
    }
}

mutator!(
    ConvertWhileToFor,
    "ConvertWhileToFor",
    "Rewrites a while loop into the equivalent for (; cond; ) loop.",
    Statement
);

impl ConvertWhileToFor {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let loops =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::While { .. }));
        let Some(s) = ctx.rng().pick(&loops) else {
            return false;
        };
        let StmtKind::While { cond, .. } = &s.kind else {
            unreachable!()
        };
        // Rewrite only the head: `while (c)` → `for (; c; )`.
        let head = Span::new(s.span.lo, cond.span.lo);
        let head_text = ctx.source_text(head);
        let Some(paren) = head_text.find('(') else {
            return false;
        };
        ctx.replace(
            Span::new(s.span.lo, s.span.lo + paren as u32 + 1),
            "for (; ",
        );
        ctx.insert_after(cond.span.hi, "; ");
        true
    }
}

mutator!(
    ConvertForToWhile,
    "ConvertForToWhile",
    "Rewrites a for loop with a compound body into an equivalent block containing a while loop, moving init before and step into the body.",
    Statement
);

impl ConvertForToWhile {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let loops = collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::For { .. }));
        let mut spots = Vec::new();
        for s in &loops {
            let StmtKind::For {
                init,
                cond,
                step,
                body,
            } = &s.kind
            else {
                continue;
            };
            // Body must be a compound with no `continue` (it would skip the
            // relocated step).
            if !matches!(body.kind, StmtKind::Compound(_)) {
                continue;
            }
            if !common::stmts_in_span_free_of_continue(body) {
                continue;
            }
            let init_text = match init.as_deref() {
                None => String::new(),
                Some(ForInit::Decl(g)) => ctx.source_text(g.span).to_string(),
                Some(ForInit::Expr(e)) => format!("{};", ctx.source_text(e.span)),
            };
            let cond_text = cond
                .as_ref()
                .map(|c| ctx.source_text(c.span).to_string())
                .unwrap_or_else(|| "1".to_string());
            let step_text = step
                .as_ref()
                .map(|st| format!("{};", ctx.source_text(st.span)))
                .unwrap_or_default();
            let body_text = ctx.source_text(body.span);
            // Inject the step before the body's closing brace.
            let inner = &body_text[1..body_text.len() - 1];
            let new = format!("{{ {init_text} while ({cond_text}) {{ {inner} {step_text} }} }}");
            spots.push((s.span, new));
        }
        let Some((span, new)) = ctx.rng().take(&mut spots) else {
            return false;
        };
        ctx.replace(span, new);
        true
    }
}

mutator!(
    InsertDeadBranch,
    "InsertDeadBranch",
    "Inserts a never-taken if (0) branch duplicating an existing statement, adding dead code for the optimizer to discard.",
    Statement
);

impl InsertDeadBranch {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let stmts = block_expr_stmts(ctx.ast());
        let eligible: Vec<&Stmt> = stmts
            .into_iter()
            .filter(|s| common::stmt_is_relocatable(s))
            .collect();
        let Some(s) = ctx.rng().pick(&eligible).copied() else {
            return false;
        };
        let text = ctx.source_text(s.span);
        ctx.insert_after(s.span.hi, format!(" if (0) {{ {text} }}"));
        true
    }
}

mutator!(
    InsertGuardedBreak,
    "InsertGuardedBreak",
    "Inserts a never-taken if (0) break; at the start of a loop body, adding an extra loop exit edge.",
    Statement
);

impl InsertGuardedBreak {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let loops = collect::loops(ctx.ast());
        let mut spots = Vec::new();
        for s in &loops {
            let body = match &s.kind {
                StmtKind::While { body, .. }
                | StmtKind::DoWhile { body, .. }
                | StmtKind::For { body, .. } => body,
                _ => continue,
            };
            if matches!(body.kind, StmtKind::Compound(_)) {
                spots.push(body.span.lo + 1);
            }
        }
        let Some(&off) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.insert_after(off, " if (0) break;");
        true
    }
}

mutator!(
    SwapAdjacentStatements,
    "SwapAdjacentStatements",
    "Swaps two adjacent expression statements in a block, reordering side effects.",
    Statement
);

impl SwapAdjacentStatements {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let blocks = collect::blocks(ctx.ast());
        let mut spots = Vec::new();
        for b in &blocks {
            let StmtKind::Compound(items) = &b.kind else {
                continue;
            };
            for w in items.windows(2) {
                let (BlockItem::Stmt(a), BlockItem::Stmt(c)) = (&w[0], &w[1]) else {
                    continue;
                };
                if matches!(a.kind, StmtKind::Expr(_)) && matches!(c.kind, StmtKind::Expr(_)) {
                    spots.push((a.span, c.span));
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
    RemoveElseBranch,
    "RemoveElseBranch",
    "Deletes the else branch of a randomly selected if-else statement.",
    Statement
);

impl RemoveElseBranch {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let ifs = collect::if_stmts(ctx.ast());
        let mut spots = Vec::new();
        for s in &ifs {
            if let StmtKind::If {
                then_stmt,
                else_stmt: Some(else_stmt),
                ..
            } = &s.kind
            {
                // The else keyword sits between then.hi and else.lo.
                spots.push(Span::new(then_stmt.span.hi, else_stmt.span.hi));
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.remove(span);
        true
    }
}

mutator!(
    AddCaseToSwitch,
    "AddCaseToSwitch",
    "Adds a fresh, non-conflicting case label with an empty body to a randomly selected switch statement.",
    Statement
);

impl AddCaseToSwitch {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let switches =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Switch { .. }));
        let mut spots = Vec::new();
        for s in &switches {
            let StmtKind::Switch { body, .. } = &s.kind else {
                continue;
            };
            if !matches!(body.kind, StmtKind::Compound(_)) {
                continue;
            }
            // Existing literal case values.
            let mut taken = Vec::new();
            for cs in collect::stmts_matching(ctx.ast(), |x| {
                matches!(x.kind, StmtKind::Case { .. }) && body.span.contains_span(x.span)
            }) {
                if let StmtKind::Case { expr, .. } = &cs.kind {
                    if let ExprKind::IntLit { value, .. } = expr.unparenthesized().kind {
                        taken.push(value);
                    } else {
                        // Non-literal labels: can't guarantee freshness.
                        taken.push(i128::MIN);
                    }
                }
            }
            if taken.contains(&i128::MIN) {
                continue;
            }
            let mut v = 7777;
            while taken.contains(&v) {
                v += 1;
            }
            spots.push((body.span.hi - 1, v));
        }
        let Some(&(off, v)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let count = ctx.rng().int_in(1, 4);
        let mut text = String::new();
        for i in 0..count {
            text.push_str(&format!(" case {}: ;", v + i128::from(i)));
        }
        text.push(' ');
        ctx.insert_before(off, text);
        true
    }
}

mutator!(
    EmptyLoopBody,
    "EmptyLoopBody",
    "Replaces the body of a randomly selected loop with an empty statement, keeping the loop head's side effects.",
    Statement
);

impl EmptyLoopBody {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let loops = collect::stmts_matching(ctx.ast(), |s| {
            matches!(s.kind, StmtKind::For { .. } | StmtKind::While { .. })
        });
        let mut spots = Vec::new();
        for s in &loops {
            let body = match &s.kind {
                StmtKind::For { body, .. } | StmtKind::While { body, .. } => body,
                _ => continue,
            };
            if !matches!(body.kind, StmtKind::Null) {
                spots.push(body.span);
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.replace(span, ";");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
int total;
int work(int n) {
    int acc = 0;
    if (n > 0) { acc = n; } else { acc = -n; }
    for (int i = 0; i < n; i++) {
        acc += i;
        total += 1;
    }
    while (acc > 50) { acc /= 2; }
    switch (n) {
        case 0:
            acc = 1;
            break;
        case 1:
            acc = 2;
            break;
        default:
            acc = 3;
            break;
    }
    acc = acc + 1;
    acc = acc * 2;
    return acc;
}
int main(void) { return work(9); }
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
    fn duplicate_branch() {
        let outs = exercise_compiling(&DuplicateBranch);
        assert!(outs
            .iter()
            .any(|s| s.matches("{ acc = n; }").count() == 2
                || s.matches("{ acc = -n; }").count() == 2));
    }

    #[test]
    fn switch_to_if_else() {
        let outs = exercise_compiling(&TransformSwitchToIfElse);
        for s in &outs {
            assert!(!s.contains("switch"), "{s}");
            assert!(s.contains("if ((n) == (0))"), "{s}");
            assert!(s.contains("else {"), "{s}");
        }
    }

    #[test]
    fn unroll_once() {
        let outs = exercise_compiling(&UnrollLoopOnce);
        assert!(outs
            .iter()
            .any(|s| s.contains("if (acc > 50) { acc /= 2; } while (acc > 50)")));
    }

    #[test]
    fn duplicate_statement() {
        exercise_compiling(&DuplicateStatement);
    }

    #[test]
    fn delete_statement() {
        exercise_compiling(&DeleteStatement);
    }

    #[test]
    fn wrap_in_if() {
        exercise_compiling(&WrapStatementInIf);
    }

    #[test]
    fn wrap_in_do_while() {
        let outs = exercise_compiling(&WrapStatementInDoWhile);
        assert!(outs
            .iter()
            .any(|s| s.contains("do {") && s.contains("} while (0);")));
    }

    #[test]
    fn inverse_if() {
        let outs = exercise_compiling(&InverseIfBranches);
        assert!(outs
            .iter()
            .any(|s| s.contains("if (!(n > 0)) { acc = -n; } else { acc = n; }")));
    }

    #[test]
    fn while_to_for() {
        let outs = exercise_compiling(&ConvertWhileToFor);
        assert!(
            outs.iter().any(|s| s.contains("for (; acc > 50; )")),
            "{outs:?}"
        );
    }

    #[test]
    fn for_to_while() {
        let outs = exercise_compiling(&ConvertForToWhile);
        assert!(
            outs.iter()
                .any(|s| s.contains("while (i < n)") && s.contains("i++;")),
            "{outs:?}"
        );
    }

    #[test]
    fn dead_branch() {
        let outs = exercise_compiling(&InsertDeadBranch);
        assert!(outs.iter().any(|s| s.contains("if (0) {")));
    }

    #[test]
    fn guarded_break() {
        let outs = exercise_compiling(&InsertGuardedBreak);
        assert!(outs.iter().any(|s| s.contains("if (0) break;")));
    }

    #[test]
    fn swap_adjacent() {
        let outs = exercise_compiling(&SwapAdjacentStatements);
        assert!(outs
            .iter()
            .any(|s| s.find("acc = acc * 2;").unwrap() < s.find("acc = acc + 1;").unwrap()));
    }

    #[test]
    fn remove_else() {
        let outs = exercise_compiling(&RemoveElseBranch);
        assert!(outs.iter().any(|s| !s.contains("else")));
    }

    #[test]
    fn add_case() {
        let outs = exercise_compiling(&AddCaseToSwitch);
        assert!(outs.iter().any(|s| s.contains("case 7777: ;")));
    }

    #[test]
    fn empty_loop_body() {
        exercise_compiling(&EmptyLoopBody);
    }
}

mutator!(
    RemoveBreakFromSwitch,
    "RemoveBreakFromSwitch",
    "Deletes a break statement from a switch body, introducing a fallthrough between arms.",
    Statement
);

impl RemoveBreakFromSwitch {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let switches =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Switch { .. }));
        let mut spots = Vec::new();
        for sw in &switches {
            let StmtKind::Switch { body, .. } = &sw.kind else {
                continue;
            };
            let StmtKind::Compound(items) = &body.kind else {
                continue;
            };
            for item in items {
                if let BlockItem::Stmt(st) = item {
                    if matches!(st.kind, StmtKind::Break) {
                        spots.push(st.span);
                    }
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.replace(span, ";");
        true
    }
}

mutator!(
    AddDefaultToSwitch,
    "AddDefaultToSwitch",
    "Adds an empty default arm to a switch statement that lacks one, completing its dispatch table.",
    Statement
);

impl AddDefaultToSwitch {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let switches =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Switch { .. }));
        let mut spots = Vec::new();
        for sw in &switches {
            let StmtKind::Switch { body, .. } = &sw.kind else {
                continue;
            };
            if !matches!(body.kind, StmtKind::Compound(_)) {
                continue;
            }
            let has_default = !collect::stmts_matching(ctx.ast(), |x| {
                matches!(x.kind, StmtKind::Default { .. }) && body.span.contains_span(x.span)
            })
            .is_empty();
            if !has_default {
                spots.push(body.span.hi - 1);
            }
        }
        let Some(&off) = ctx.rng().pick(&spots) else {
            return false;
        };
        ctx.insert_before(off, " default: ; ");
        true
    }
}

mutator!(
    ShiftCaseValues,
    "ShiftCaseValues",
    "Shifts every literal case label of one switch statement by a constant offset, relocating its dispatch range.",
    Statement
);

impl ShiftCaseValues {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let switches =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Switch { .. }));
        let mut spots = Vec::new();
        for sw in &switches {
            let StmtKind::Switch { body, .. } = &sw.kind else {
                continue;
            };
            let mut labels = Vec::new();
            let mut all_literal = true;
            for cs in collect::stmts_matching(ctx.ast(), |x| {
                matches!(x.kind, StmtKind::Case { .. }) && body.span.contains_span(x.span)
            }) {
                let StmtKind::Case { expr, .. } = &cs.kind else {
                    continue;
                };
                match expr.unparenthesized().kind {
                    ExprKind::IntLit { value, .. } => labels.push((expr.span, value)),
                    _ => all_literal = false,
                }
            }
            if all_literal && !labels.is_empty() {
                spots.push(labels);
            }
        }
        let Some(labels) = ctx.rng().pick(&spots) else {
            return false;
        };
        let offset = 1000;
        for &(span, value) in labels {
            ctx.replace(span, (value + offset).to_string());
        }
        true
    }
}

mutator!(
    ConvertWhileToGotoLoop,
    "ConvertWhileToGotoLoop",
    "Rewrites a while loop as an explicit label-and-goto loop, replacing structured control flow with a jump web.",
    Statement
);

impl ConvertWhileToGotoLoop {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let loops =
            collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::While { .. }));
        let mut spots = Vec::new();
        for s in &loops {
            let StmtKind::While { cond, body } = &s.kind else {
                continue;
            };
            // break/continue would bind to a loop that no longer exists.
            if common::stmt_is_relocatable(body) && matches!(body.kind, StmtKind::Compound(_)) {
                spots.push((s.span, cond.span, body.span));
            }
        }
        let Some(&(span, cond, body)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let label = ctx.generate_unique_name("loop_head");
        let cond_text = ctx.source_text(cond);
        let body_text = ctx.source_text(body);
        let inner = &body_text[1..body_text.len() - 1];
        ctx.replace(
            span,
            format!("{label}: if ({cond_text}) {{ {inner} goto {label}; }}"),
        );
        true
    }
}

mutator!(
    SplitDeclGroup,
    "SplitDeclGroup",
    "Splits a multi-declarator local declaration like int a, b; into separate single declarations.",
    Statement
);

impl SplitDeclGroup {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for g in common::local_decl_groups(ctx.ast()) {
            if g.vars.len() < 2 {
                continue;
            }
            // Inline record/enum definitions cannot be duplicated.
            if g.vars.iter().any(|v| {
                matches!(
                    v.ty.base_spec(),
                    Some(TypeSpecifier::RecordDef(_)) | Some(TypeSpecifier::EnumDef(_))
                ) || v.storage != Storage::None
            }) {
                continue;
            }
            spots.push(g);
        }
        let Some(g) = ctx.rng().pick(&spots).copied() else {
            return false;
        };
        let mut out = String::new();
        for v in &g.vars {
            out.push_str(&ctx.format_as_decl(&v.ty, &v.name));
            if let Some(init) = &v.init {
                out.push_str(" = ");
                out.push_str(ctx.source_text(init.span()));
            }
            out.push_str("; ");
        }
        ctx.replace(g.span, out.trim_end().to_string());
        true
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
int route(int m) {
    int a = 1, b = 2;
    switch (m) {
        case 1:
            a = 10;
            break;
        case 2:
            a = 20;
            break;
    }
    while (a < b) { a += 3; }
    return a + b;
}
int main(void) { return route(2); }
"#;

    fn exercise(m: &dyn Mutator) -> Vec<String> {
        let mut outs = Vec::new();
        for seed in 0..16 {
            if let MutationOutcome::Mutated(s) = mutate_source(m, SEED, seed).expect("driver ok") {
                assert_ne!(s, SEED, "{} identity", m.name());
                compile_check(&s).unwrap_or_else(|e| panic!("{}: {e}\n{s}", m.name()));
                outs.push(s);
            }
        }
        assert!(!outs.is_empty(), "{} never applied", m.name());
        outs
    }

    #[test]
    fn break_removed() {
        let outs = exercise(&RemoveBreakFromSwitch);
        assert!(outs.iter().any(|s| s.matches("break;").count() == 1));
    }

    #[test]
    fn default_added() {
        let outs = exercise(&AddDefaultToSwitch);
        assert!(outs.iter().all(|s| s.contains("default: ;")));
    }

    #[test]
    fn cases_shifted() {
        let outs = exercise(&ShiftCaseValues);
        assert!(outs
            .iter()
            .any(|s| s.contains("case 1001:") && s.contains("case 1002:")));
    }

    #[test]
    fn while_to_goto() {
        let outs = exercise(&ConvertWhileToGotoLoop);
        assert!(
            outs.iter()
                .any(|s| s.contains("loop_head_0: if (a < b)") && s.contains("goto loop_head_0;")),
            "{outs:?}"
        );
    }

    #[test]
    fn group_split() {
        let outs = exercise(&SplitDeclGroup);
        assert!(
            outs.iter().any(|s| s.contains("int a = 1; int b = 2;")),
            "{outs:?}"
        );
    }
}
