//! Expression mutators (§4.1: the paper's largest category, 50 of 118).

use crate::common::{self, mutator};
use metamut_lang::ast::*;
use metamut_lang::source::Span;
use metamut_lang::types::QType;
use metamut_muast::collect::{self, Root};
use metamut_muast::ctx::binop_operands_fit;
use metamut_muast::MutCtx;

mutator!(
    InverseUnaryOperator,
    "InverseUnaryOperator",
    "Selects a unary operation (like unary minus or logical not) and inverses it; for instance -a becomes -(-a) and !a becomes !!a.",
    Expression
);

impl InverseUnaryOperator {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots = collect::exprs_matching(ctx.ast(), |e| {
            matches!(
                e.kind,
                ExprKind::Unary {
                    op: UnaryOp::Minus | UnaryOp::Not | UnaryOp::BitNot,
                    ..
                }
            )
        });
        let Some(e) = ctx.rng().pick(&spots) else {
            return false;
        };
        let ExprKind::Unary { op, .. } = &e.kind else {
            unreachable!()
        };
        let text = ctx.source_text(e.span);
        let new = format!("{}({})", op.spelling(), text);
        ctx.replace(e.span, new);
        true
    }
}

mutator!(
    SwapBinaryOperands,
    "SwapBinaryOperands",
    "Swaps the operands of a binary operation, mirroring comparisons (a < b becomes b > a) and reordering commutative arithmetic.",
    Expression
);

impl SwapBinaryOperands {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots = collect::binary_exprs(ctx.ast());
        let swappable: Vec<&Expr> = spots
            .into_iter()
            .filter(|e| {
                let ExprKind::Binary { op, lhs, rhs } = &e.kind else {
                    return false;
                };
                // Swapping is compile-safe when the swapped operand types
                // still satisfy the operator.
                let target = op.swapped_comparison().unwrap_or(*op);
                ctx.check_binop(target, rhs, lhs)
            })
            .collect();
        let Some(e) = ctx.rng().pick(&swappable).copied() else {
            return false;
        };
        let ExprKind::Binary { op, lhs, rhs } = &e.kind else {
            unreachable!()
        };
        let new_op = op.swapped_comparison().unwrap_or(*op);
        let new = format!(
            "{} {} {}",
            ctx.source_text(ctx.ast()[*rhs].span),
            new_op.spelling(),
            ctx.source_text(ctx.ast()[*lhs].span)
        );
        ctx.replace(e.span, new);
        true
    }
}

mutator!(
    ReplaceBinaryOperator,
    "ReplaceBinaryOperator",
    "Replaces a binary operator with a different operator that is valid for the same operand types, e.g. + becomes * or < becomes <=.",
    Expression
);

impl ReplaceBinaryOperator {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        use BinaryOp::*;
        let all = [
            Mul, Div, Rem, Add, Sub, Shl, Shr, Lt, Gt, Le, Ge, Eq, Ne, BitAnd, BitXor, BitOr,
            LogAnd, LogOr,
        ];
        let exprs = collect::binary_exprs(ctx.ast());
        let mut spots = Vec::new();
        for e in exprs {
            let ExprKind::Binary { op, lhs, rhs } = &e.kind else {
                continue;
            };
            // `check_binop` per candidate, with the operand types looked
            // up and decayed once per expression.
            let (Some(lt), Some(rt)) =
                (ctx.type_of(&ctx.ast()[*lhs]), ctx.type_of(&ctx.ast()[*rhs]))
            else {
                continue;
            };
            let (l, r) = (lt.ty.decayed(), rt.ty.decayed());
            for cand in all {
                if cand != *op && binop_operands_fit(cand, &l, &r) {
                    spots.push((e, cand));
                }
            }
        }
        let Some(&(e, cand)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let ExprKind::Binary { lhs, rhs, .. } = &e.kind else {
            unreachable!()
        };
        // Re-parenthesize both operands: the replacement operator may bind
        // differently than the original.
        let new = format!(
            "(({}) {} ({}))",
            ctx.source_text(ctx.ast()[*lhs].span),
            cand.spelling(),
            ctx.source_text(ctx.ast()[*rhs].span)
        );
        ctx.replace(e.span, new);
        true
    }
}

mutator!(
    NegateCondition,
    "NegateCondition",
    "Wraps the controlling condition of an if, while or for statement in a logical negation, flipping the branch taken.",
    Expression
);

impl NegateCondition {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let stmts = collect::stmts_matching(ctx.ast(), |s| {
            matches!(
                s.kind,
                StmtKind::If { .. } | StmtKind::While { .. } | StmtKind::DoWhile { .. }
            )
        });
        let mut conds = Vec::new();
        for s in &stmts {
            match &s.kind {
                StmtKind::If { cond, .. }
                | StmtKind::While { cond, .. }
                | StmtKind::DoWhile { cond, .. } => conds.push(ctx.ast()[*cond].span),
                _ => {}
            }
        }
        for s in collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::For { .. })) {
            if let StmtKind::For {
                cond: Some(cond), ..
            } = &s.kind
            {
                conds.push(ctx.ast()[*cond].span);
            }
        }
        let Some(&span) = ctx.rng().pick(&conds) else {
            return false;
        };
        let text = ctx.source_text(span);
        ctx.replace(span, format!("!({text})"));
        true
    }
}

mutator!(
    ModifyIntegerLiteral,
    "ModifyIntegerLiteral",
    "Replaces an integer literal with a nearby or boundary value (off-by-one, zero, signed extremes) to probe constant handling.",
    Expression
);

impl ModifyIntegerLiteral {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Skip literals inside case labels (duplicates) and array sizes
        // (negative sizes) by staying within expression statements.
        let spots = self.eligible_literals(ctx);
        let Some(&(span, value)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let choice = ctx.rng().index(5);
        let mut new = match choice {
            0 => (value.wrapping_add(1)).to_string(),
            1 => (value.wrapping_sub(1)).to_string(),
            2 => "0".to_string(),
            3 => "2147483647".to_string(),
            _ => (-value).to_string(),
        };
        if new == ctx.source_text(span) {
            new = (value.wrapping_add(1)).to_string();
        }
        ctx.replace(span, new);
        true
    }

    fn eligible_literals(&self, ctx: &MutCtx<'_>) -> Vec<(Span, i128)> {
        let mut out = Vec::new();
        for f in ctx.ast().function_defs() {
            let forbidden = literal_forbidden_spans(ctx.ast(), f);
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(e.kind, ExprKind::IntLit { .. })
            }) {
                let ExprKind::IntLit { value, .. } = e.kind else {
                    continue;
                };
                if !common::span_excluded(e.span, &forbidden) {
                    out.push((e.span, value));
                }
            }
        }
        out
    }
}

/// Spans whose literals must stay put: case labels, array sizes in local
/// declarations, bit-field widths.
fn literal_forbidden_spans(ast: &Ast, f: &FunctionDef) -> Vec<Span> {
    let mut out = Vec::new();
    for s in collect::stmts_matching((ast, f), |s| matches!(s.kind, StmtKind::Case { .. })) {
        if let StmtKind::Case { expr, .. } = &s.kind {
            out.push(ast[*expr].span);
        }
    }
    // Array sizes inside local declarators: approximate via the declarator
    // span minus the initializer.
    struct C<'a> {
        ast: &'a Ast,
        out: Vec<Span>,
    }
    impl<'a> metamut_lang::visit::Visitor<'a> for C<'a> {
        fn ast(&self) -> &'a Ast {
            self.ast
        }

        fn visit_var_decl(&mut self, v: &'a VarDecl) {
            if let TySyn::Array { .. } = &v.ty {
                let end = match &v.init {
                    Some(i) => i.span(self.ast).lo,
                    None => v.span.hi,
                };
                if v.name_span.hi <= end {
                    self.out.push(Span::new(v.name_span.hi, end));
                }
            }
            metamut_lang::visit::walk_var_decl(self, v);
        }
    }
    let mut c = C {
        ast,
        out: Vec::new(),
    };
    (ast, f).walk(&mut c);
    out.extend(c.out);
    out
}

mutator!(
    ReplaceLiteralWithRandomValue,
    "ReplaceLiteralWithRandomValue",
    "Replaces a randomly selected integer literal with a uniformly random 16-bit value.",
    Expression
);

impl ReplaceLiteralWithRandomValue {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots = ModifyIntegerLiteral.eligible_literals(ctx);
        let Some(&(span, _)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let v = ctx.rng().int_in(-32768, 32767);
        ctx.replace(span, v.to_string());
        true
    }
}

mutator!(
    CopyExpr,
    "CopyExpr",
    "Replaces an expression with a copy of another type-compatible expression from the same function, rewiring the data flow.",
    Expression
);

/// One candidate leaf of [`CopyExpr`]: an identifier or literal, its
/// decayed type, its text, and whether it may be overwritten.
struct Leaf<'a> {
    span: Span,
    ty: Option<QType>,
    text: &'a str,
    writable: bool,
}

impl CopyExpr {
    /// The sources that may replace destination `i`, among the leaves of
    /// its function (`range`): assignable, and not the same text. Leaves
    /// never contain one another, so distinct ones never overlap.
    fn sources<'l>(
        ctx: &'l MutCtx<'_>,
        leaves: &'l [Leaf<'_>],
        i: usize,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = usize> + 'l {
        let dst = &leaves[i];
        let dst_ty = dst.ty.as_ref().filter(|_| dst.writable);
        range.filter(move |&j| {
            let src = &leaves[j];
            match (dst_ty, &src.ty) {
                (Some(td), Some(ts)) => {
                    i != j && ctx.check_assignment(td, ts) && dst.text != src.text
                }
                _ => false,
            }
        })
    }

    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Every function's leaves, back to back; `ends[f]` is where
        // function `f`'s leaves end.
        let mut leaves = Vec::new();
        let mut ends = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            let exprs = collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(
                    e.kind,
                    ExprKind::Ident(_)
                        | ExprKind::IntLit { .. }
                        | ExprKind::StrLit { .. }
                        | ExprKind::FloatLit { .. }
                )
            });
            leaves.extend(exprs.iter().map(|e| Leaf {
                span: e.span,
                ty: ctx.type_of(*e).map(QType::decayed),
                text: ctx.source_text(e.span),
                writable: !common::span_excluded(e.span, &excluded),
            }));
            ends.push(leaves.len());
        }
        // Count each destination's sources instead of listing every
        // (destination, source) pair, draw the index the list would have
        // been drawn with, then find that pair.
        let mut counts = Vec::with_capacity(leaves.len());
        let mut start = 0;
        for &end in &ends {
            counts.extend((start..end).map(|i| Self::sources(ctx, &leaves, i, start..end).count()));
            start = end;
        }
        let total: usize = counts.iter().sum();
        if total == 0 {
            return false;
        }
        let mut k = ctx.rng().index(total);
        let mut start = 0;
        for &end in &ends {
            for i in start..end {
                if k < counts[i] {
                    let j = Self::sources(ctx, &leaves, i, start..end)
                        .nth(k)
                        .expect("counted");
                    let text = leaves[j].text;
                    ctx.replace(leaves[i].span, text);
                    return true;
                }
                k -= counts[i];
            }
            start = end;
        }
        unreachable!("the pair counts sum to the drawn total")
    }
}

mutator!(
    ExpandCompoundAssignment,
    "ExpandCompoundAssignment",
    "Rewrites a compound assignment a op= b into its expanded form a = a op (b).",
    Expression
);

impl ExpandCompoundAssignment {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots = collect::exprs_matching(ctx.ast(), |e| {
            matches!(e.kind, ExprKind::Assign { op: Some(_), .. })
        });
        let Some(e) = ctx.rng().pick(&spots) else {
            return false;
        };
        let ExprKind::Assign {
            op: Some(op),
            lhs,
            rhs,
        } = &e.kind
        else {
            unreachable!()
        };
        let l = ctx.source_text(ctx.ast()[*lhs].span);
        let r = ctx.source_text(ctx.ast()[*rhs].span);
        ctx.replace(e.span, format!("{l} = {l} {} ({r})", op.spelling()));
        true
    }
}

mutator!(
    ContractToCompoundAssignment,
    "ContractToCompoundAssignment",
    "Rewrites an assignment of the shape a = a op b into the compound form a op= b.",
    Expression
);

impl ContractToCompoundAssignment {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let assigns = collect::exprs_matching(ctx.ast(), |e| {
            matches!(e.kind, ExprKind::Assign { op: None, .. })
        });
        let mut spots = Vec::new();
        for a in &assigns {
            let ExprKind::Assign { lhs, rhs, .. } = &a.kind else {
                continue;
            };
            let ExprKind::Binary {
                op,
                lhs: blhs,
                rhs: brhs,
            } = &ctx.ast()[*rhs].unparenthesized(ctx.ast()).kind
            else {
                continue;
            };
            if op.is_comparison() || op.is_logical() {
                continue;
            }
            if ctx.source_text(ctx.ast()[*lhs].span) == ctx.source_text(ctx.ast()[*blhs].span) {
                spots.push((a.span, ctx.ast()[*lhs].span, *op, ctx.ast()[*brhs].span));
            }
        }
        let Some(&(span, lhs, op, rhs)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let new = format!(
            "{} {}= {}",
            ctx.source_text(lhs),
            op.spelling(),
            ctx.source_text(rhs)
        );
        ctx.replace(span, new);
        true
    }
}

mutator!(
    WrapExprInTernary,
    "WrapExprInTernary",
    "Wraps an expression e into the conditional (1 ? e : e), preserving the value while altering the expression tree.",
    Expression
);

impl WrapExprInTernary {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(e.kind, ExprKind::Ident(_) | ExprKind::IntLit { .. })
            }) {
                if let Some(t) = ctx.type_of(e) {
                    if t.ty.decayed().is_arithmetic() && !common::span_excluded(e.span, &excluded) {
                        spots.push(e.span);
                    }
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = ctx.source_text(span);
        ctx.replace(span, format!("(1 ? {text} : {text})"));
        true
    }
}

mutator!(
    AddParenthesesLayers,
    "AddParenthesesLayers",
    "Adds redundant layers of parentheses around a randomly selected expression.",
    Expression
);

impl AddParenthesesLayers {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots = collect::exprs_matching(ctx.ast(), |e| {
            matches!(e.kind, ExprKind::Binary { .. } | ExprKind::Call { .. })
        });
        let Some(e) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = ctx.source_text(e.span);
        let depth = ctx.rng().int_in(2, 5);
        let open = "(".repeat(depth as usize);
        let close = ")".repeat(depth as usize);
        ctx.replace(e.span, format!("{open}{text}{close}"));
        true
    }
}

mutator!(
    ApplyBitwiseNotTwice,
    "ApplyBitwiseNotTwice",
    "Applies the bitwise complement operator twice to an integer expression, an identity that stresses constant folding.",
    Expression
);

impl ApplyBitwiseNotTwice {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(e.kind, ExprKind::Ident(_) | ExprKind::IntLit { .. })
            }) {
                if let Some(t) = ctx.type_of(e) {
                    if t.ty.decayed().is_integer() && !common::span_excluded(e.span, &excluded) {
                        spots.push(e.span);
                    }
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = ctx.source_text(span);
        ctx.replace(span, format!("~~({text})"));
        true
    }
}

mutator!(
    ReplaceExprWithDefaultValue,
    "ReplaceExprWithDefaultValue",
    "Replaces a randomly selected rvalue expression with the default value of its type (0 or 0.0).",
    Expression
);

impl ReplaceExprWithDefaultValue {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            let forbidden = literal_forbidden_spans(ctx.ast(), f);
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(e.kind, ExprKind::Ident(_) | ExprKind::Binary { .. })
            }) {
                let Some(t) = ctx.type_of(e) else { continue };
                if t.ty.decayed().is_arithmetic()
                    && !common::span_excluded(e.span, &excluded)
                    && !common::span_excluded(e.span, &forbidden)
                {
                    spots.push((e.span, t));
                }
            }
        }
        let Some(&(span, t)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let val = ctx.default_value_for(t);
        ctx.replace(span, val);
        true
    }
}

mutator!(
    MutateRelationalBoundary,
    "MutateRelationalBoundary",
    "Shifts a relational operator across its boundary: < becomes <=, > becomes >=, and vice versa.",
    Expression
);

impl MutateRelationalBoundary {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        use BinaryOp::*;
        let exprs = collect::binary_exprs(ctx.ast());
        let mut spots = Vec::new();
        for e in &exprs {
            let ExprKind::Binary { op, lhs, rhs } = &e.kind else {
                continue;
            };
            let flipped = match op {
                Lt => Le,
                Le => Lt,
                Gt => Ge,
                Ge => Gt,
                _ => continue,
            };
            spots.push((e.span, ctx.ast()[*lhs].span, flipped, ctx.ast()[*rhs].span));
        }
        let Some(&(span, lhs, op, rhs)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let new = format!(
            "{} {} {}",
            ctx.source_text(lhs),
            op.spelling(),
            ctx.source_text(rhs)
        );
        ctx.replace(span, new);
        true
    }
}

mutator!(
    InsertArithmeticIdentity,
    "InsertArithmeticIdentity",
    "Rewrites an arithmetic expression e into an identity form such as (e + 0) or (e * 1).",
    Expression
);

impl InsertArithmeticIdentity {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            let forbidden = literal_forbidden_spans(ctx.ast(), f);
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(
                    e.kind,
                    ExprKind::Ident(_) | ExprKind::IntLit { .. } | ExprKind::Binary { .. }
                )
            }) {
                let Some(t) = ctx.type_of(e) else { continue };
                if t.ty.decayed().is_arithmetic()
                    && !common::span_excluded(e.span, &excluded)
                    && !common::span_excluded(e.span, &forbidden)
                {
                    spots.push(e.span);
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = ctx.source_text(span);
        let form = ctx.rng().index(4);
        let new = match form {
            0 => format!("(({text}) + 0)"),
            1 => format!("(({text}) * 1)"),
            2 => format!("(({text}) - 0)"),
            _ => format!("(0 + ({text}))"),
        };
        ctx.replace(span, new);
        true
    }
}

mutator!(
    DistributeMultiplication,
    "DistributeMultiplication",
    "Rewrites a product over a sum a * (b + c) into the distributed form a * b + a * c.",
    Expression
);

impl DistributeMultiplication {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let exprs = collect::binary_exprs(ctx.ast());
        let mut spots = Vec::new();
        for e in &exprs {
            let ExprKind::Binary {
                op: BinaryOp::Mul,
                lhs,
                rhs,
            } = &e.kind
            else {
                continue;
            };
            if let ExprKind::Binary {
                op: BinaryOp::Add | BinaryOp::Sub,
                lhs: inner_l,
                rhs: inner_r,
            } = &ctx.ast()[*rhs].unparenthesized(ctx.ast()).kind
            {
                let inner_op = match ctx.ast()[*rhs].unparenthesized(ctx.ast()).kind {
                    ExprKind::Binary { op, .. } => op,
                    _ => unreachable!(),
                };
                spots.push((
                    e.span,
                    ctx.ast()[*lhs].span,
                    ctx.ast()[*inner_l].span,
                    ctx.ast()[*inner_r].span,
                    inner_op,
                ));
            }
        }
        let Some(&(span, a, b, c, op)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let (ta, tb, tc) = (ctx.source_text(a), ctx.source_text(b), ctx.source_text(c));
        ctx.replace(
            span,
            format!("(({ta}) * ({tb}) {} ({ta}) * ({tc}))", op.spelling()),
        );
        true
    }
}

mutator!(
    SwapTernaryBranches,
    "SwapTernaryBranches",
    "Swaps the two branches of a conditional operator and negates its condition, preserving the selected value.",
    Expression
);

impl SwapTernaryBranches {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots = collect::exprs_matching(ctx.ast(), |e| matches!(e.kind, ExprKind::Cond { .. }));
        let Some(e) = ctx.rng().pick(&spots) else {
            return false;
        };
        let ExprKind::Cond {
            cond,
            then_expr,
            else_expr,
        } = &e.kind
        else {
            unreachable!()
        };
        let new = format!(
            "!({}) ? {} : {}",
            ctx.source_text(ctx.ast()[*cond].span),
            ctx.source_text(ctx.ast()[*else_expr].span),
            ctx.source_text(ctx.ast()[*then_expr].span)
        );
        ctx.replace(e.span, new);
        true
    }
}

mutator!(
    ReplaceCallWithArgument,
    "ReplaceCallWithArgument",
    "Replaces a single-argument function call with its argument when the types are compatible, bypassing the callee.",
    Expression
);

impl ReplaceCallWithArgument {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let calls = collect::exprs_matching(
            ctx.ast(),
            |e| matches!(&e.kind, ExprKind::Call { args, .. } if args.len() == 1),
        );
        let mut spots = Vec::new();
        for call in &calls {
            let ExprKind::Call { args, .. } = &call.kind else {
                continue;
            };
            let (Some(ct), Some(at)) = (ctx.type_of(*call), ctx.type_of(args[0])) else {
                continue;
            };
            if ct.ty.is_void() {
                // Any expression can replace a void-valued call statement.
                spots.push((call.span, ctx.ast()[args[0]].span));
            } else if ctx.check_assignment(&ct.decayed(), &at.decayed()) {
                spots.push((call.span, ctx.ast()[args[0]].span));
            }
        }
        let Some(&(span, arg)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = format!("({})", ctx.source_text(arg));
        ctx.replace(span, text);
        true
    }
}

mutator!(
    CastExprToOwnType,
    "CastExprToOwnType",
    "Inserts an explicit cast of an arithmetic expression to its own checked type, a no-op cast that exercises type lowering.",
    Expression
);

impl CastExprToOwnType {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            let forbidden = literal_forbidden_spans(ctx.ast(), f);
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(e.kind, ExprKind::Ident(_) | ExprKind::IntLit { .. })
            }) {
                let Some(t) = ctx.type_of(e) else { continue };
                let d = t.ty.decayed();
                if (d.is_integer() || d.is_floating())
                    && !d.is_complex()
                    && !matches!(d, metamut_lang::types::Type::Enum { .. })
                    && !common::span_excluded(e.span, &excluded)
                    && !common::span_excluded(e.span, &forbidden)
                {
                    spots.push((e.span, d));
                }
            }
        }
        let Some((span, ty)) = ctx.rng().take(&mut spots) else {
            return false;
        };
        let text = ctx.source_text(span);
        ctx.replace(span, format!("(({ty})({text}))"));
        true
    }
}

mutator!(
    ReplaceIndexWithZero,
    "ReplaceIndexWithZero",
    "Replaces the index of an array subscript expression with 0, collapsing accesses onto the first element.",
    Expression
);

impl ReplaceIndexWithZero {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let subs = collect::exprs_matching(ctx.ast(), |e| {
            matches!(&e.kind, ExprKind::Index { index, .. }
                if !common::is_int_literal(ctx.ast()[*index].unparenthesized(ctx.ast()), 0))
        });
        let Some(e) = ctx.rng().pick(&subs) else {
            return false;
        };
        let ExprKind::Index { index, .. } = &e.kind else {
            unreachable!()
        };
        ctx.replace(ctx.ast()[*index].span, "0");
        true
    }
}

mutator!(
    IntroduceCommaExpr,
    "IntroduceCommaExpr",
    "Rewrites an expression e into the comma expression (0, e), adding a discarded evaluation step.",
    Expression
);

impl IntroduceCommaExpr {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            let forbidden = literal_forbidden_spans(ctx.ast(), f);
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(e.kind, ExprKind::Ident(_) | ExprKind::IntLit { .. })
            }) {
                let Some(t) = ctx.type_of(e) else { continue };
                if t.ty.decayed().is_scalar()
                    && !common::span_excluded(e.span, &excluded)
                    && !common::span_excluded(e.span, &forbidden)
                {
                    spots.push(e.span);
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = ctx.source_text(span);
        ctx.replace(span, format!("(0, {text})"));
        true
    }
}

mutator!(
    SizeofToLiteral,
    "SizeofToLiteral",
    "Replaces a sizeof expression with the concrete byte size of its operand on the modelled LP64 target.",
    Expression
);

impl SizeofToLiteral {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots = collect::exprs_matching(ctx.ast(), |e| {
            matches!(e.kind, ExprKind::SizeofExpr(_) | ExprKind::SizeofType(_))
        });
        let mut resolved = Vec::new();
        for e in &spots {
            let size = match &e.kind {
                ExprKind::SizeofExpr(inner) => ctx.type_of(&ctx.ast()[*inner]).map(|t| t.ty.size()),
                // Sema does not retain the operand type of `sizeof(T)`;
                // fall back to the pointer-width default.
                ExprKind::SizeofType(_) => ctx.type_of(*e).map(|_| 8),
                _ => None,
            };
            if let Some(sz) = size {
                if sz > 0 {
                    resolved.push((e.span, sz));
                }
            }
        }
        let Some(&(span, sz)) = ctx.rng().pick(&resolved) else {
            return false;
        };
        ctx.replace(span, format!("{sz}ul"));
        true
    }
}

mutator!(
    OrExprWithSelf,
    "OrExprWithSelf",
    "Rewrites an integer expression e into (e | e), a bitwise identity that duplicates the evaluation site.",
    Expression
);

impl OrExprWithSelf {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            let excluded = common::non_rvalue_spans(ctx.ast(), f);
            let forbidden = literal_forbidden_spans(ctx.ast(), f);
            for e in
                collect::exprs_matching((ctx.ast(), f), |e| matches!(e.kind, ExprKind::Ident(_)))
            {
                let Some(t) = ctx.type_of(e) else { continue };
                if t.ty.decayed().is_integer()
                    && !common::span_excluded(e.span, &excluded)
                    && !common::span_excluded(e.span, &forbidden)
                {
                    spots.push(e.span);
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = ctx.source_text(span);
        ctx.replace(span, format!("({text} | {text})"));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
int buf[8];
int classify(int v, double scale) {
    int result = 0;
    if (v < 10) result = -v;
    result += v * (v + 1);
    result = result > 100 ? 100 : result;
    buf[2] = result;
    if (!result) result = abs(v) + (int)(scale * 2.0);
    result -= (int)sizeof(int);
    return result;
}
int main(void) {
    return classify(7, 1.5);
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
    fn inverse_unary() {
        let outs = exercise_compiling(&InverseUnaryOperator);
        assert!(outs
            .iter()
            .any(|s| s.contains("-(-v)") || s.contains("!(!result)")));
    }

    #[test]
    fn swap_operands() {
        exercise_compiling(&SwapBinaryOperands);
    }

    #[test]
    fn replace_binop() {
        exercise_compiling(&ReplaceBinaryOperator);
    }

    #[test]
    fn negate_condition() {
        let outs = exercise_compiling(&NegateCondition);
        assert!(outs
            .iter()
            .any(|s| s.contains("!(v < 10)") || s.contains("!(!result)")));
    }

    #[test]
    fn modify_int_literal() {
        exercise_compiling(&ModifyIntegerLiteral);
    }

    #[test]
    fn random_literal() {
        exercise_compiling(&ReplaceLiteralWithRandomValue);
    }

    #[test]
    fn copy_expr() {
        exercise_compiling(&CopyExpr);
    }

    #[test]
    fn expand_compound() {
        let outs = exercise_compiling(&ExpandCompoundAssignment);
        assert!(outs
            .iter()
            .any(|s| s.contains("result = result + (v * (v + 1))")
                || s.contains("result = result - ((int)sizeof(int))")));
    }

    #[test]
    fn contract_compound() {
        // Needs an `a = a op b` shape; build a dedicated seed.
        let src = "int f(int a) { a = a + 3; return a; }";
        let out = mutate_source(&ContractToCompoundAssignment, src, 0).unwrap();
        let s = out.mutant().expect("applies");
        assert!(s.contains("a += 3"), "{s}");
        compile_check(s).unwrap();
    }

    #[test]
    fn ternary_wrap() {
        exercise_compiling(&WrapExprInTernary);
    }

    #[test]
    fn paren_layers() {
        exercise_compiling(&AddParenthesesLayers);
    }

    #[test]
    fn double_bitnot() {
        exercise_compiling(&ApplyBitwiseNotTwice);
    }

    #[test]
    fn default_value() {
        exercise_compiling(&ReplaceExprWithDefaultValue);
    }

    #[test]
    fn relational_boundary() {
        let outs = exercise_compiling(&MutateRelationalBoundary);
        assert!(outs
            .iter()
            .any(|s| s.contains("v <= 10") || s.contains("result >= 100")));
    }

    #[test]
    fn arithmetic_identity() {
        exercise_compiling(&InsertArithmeticIdentity);
    }

    #[test]
    fn distribute_mul() {
        let outs = exercise_compiling(&DistributeMultiplication);
        assert!(outs.iter().any(|s| s.contains("(v) * (v) + (v) * (1)")));
    }

    #[test]
    fn swap_ternary() {
        let outs = exercise_compiling(&SwapTernaryBranches);
        assert!(outs.iter().any(|s| s.contains("!(result > 100)")));
    }

    #[test]
    fn call_to_argument() {
        let outs = exercise_compiling(&ReplaceCallWithArgument);
        assert!(outs
            .iter()
            .any(|s| s.contains("(v)") && !s.contains("abs(v)")));
    }

    #[test]
    fn cast_own_type() {
        exercise_compiling(&CastExprToOwnType);
    }

    #[test]
    fn index_zero() {
        let outs = exercise_compiling(&ReplaceIndexWithZero);
        assert!(outs.iter().any(|s| s.contains("buf[0]")));
    }

    #[test]
    fn comma_expr() {
        exercise_compiling(&IntroduceCommaExpr);
    }

    #[test]
    fn sizeof_literal() {
        let outs = exercise_compiling(&SizeofToLiteral);
        assert!(outs.iter().any(|s| s.contains("4ul") || s.contains("8ul")));
    }

    #[test]
    fn or_with_self() {
        exercise_compiling(&OrExprWithSelf);
    }
}

mutator!(
    ReplaceConditionWithConstant,
    "ReplaceConditionWithConstant",
    "Replaces the controlling condition of an if or while statement with the constant 0 or 1, pinning the branch and creating dead or hot paths.",
    Expression
);

impl ReplaceConditionWithConstant {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let stmts = collect::stmts_matching(ctx.ast(), |s| {
            matches!(s.kind, StmtKind::If { .. } | StmtKind::While { .. })
        });
        let mut conds = Vec::new();
        for s in &stmts {
            match &s.kind {
                StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
                    conds.push(ctx.ast()[*cond].span)
                }
                _ => {}
            }
        }
        let Some(&span) = ctx.rng().pick(&conds) else {
            return false;
        };
        let c = if ctx.rng().chance(0.5) { "0" } else { "1" };
        ctx.replace(span, c);
        true
    }
}

mutator!(
    ConvertIfToTernary,
    "ConvertIfToTernary",
    "Rewrites an if-else that assigns the same variable in both branches into a single conditional-operator assignment.",
    Expression
);

impl ConvertIfToTernary {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let ifs = collect::if_stmts(ctx.ast());
        let mut spots = Vec::new();
        for s in &ifs {
            let StmtKind::If {
                cond,
                then_stmt,
                else_stmt: Some(else_stmt),
            } = &s.kind
            else {
                continue;
            };
            let assign_of = |st: &Stmt| -> Option<(Span, Span)> {
                let inner = match &st.kind {
                    StmtKind::Expr(e) => e,
                    StmtKind::Compound(items) => match items.as_slice() {
                        [BlockItem::Stmt(Stmt {
                            kind: StmtKind::Expr(e),
                            ..
                        })] => e,
                        _ => return None,
                    },
                    _ => return None,
                };
                match &ctx.ast()[*inner].kind {
                    ExprKind::Assign { op: None, lhs, rhs } => {
                        Some((ctx.ast()[*lhs].span, ctx.ast()[*rhs].span))
                    }
                    _ => None,
                }
            };
            let (Some((lt, rt)), Some((le, re))) = (assign_of(then_stmt), assign_of(else_stmt))
            else {
                continue;
            };
            if ctx.source_text(lt) == ctx.source_text(le) {
                spots.push((s.span, ctx.ast()[*cond].span, lt, rt, re));
            }
        }
        let Some(&(span, cond, lhs, then_rhs, else_rhs)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let new = format!(
            "{} = ({}) ? ({}) : ({});",
            ctx.source_text(lhs),
            ctx.source_text(cond),
            ctx.source_text(then_rhs),
            ctx.source_text(else_rhs)
        );
        ctx.replace(span, new);
        true
    }
}

mutator!(
    IntToCharLiteral,
    "IntToCharLiteral",
    "Rewrites an integer literal in the printable ASCII range as the equivalent character literal.",
    Expression
);

impl IntToCharLiteral {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let spots: Vec<(Span, i128)> = ModifyIntegerLiteral
            .eligible_literals(ctx)
            .into_iter()
            .filter(|(_, v)| (33..=126).contains(v) && *v != 39 && *v != 92)
            .collect();
        let Some(&(span, v)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let c = u8::try_from(v).expect("printable range") as char;
        ctx.replace(span, format!("'{c}'"));
        true
    }
}

mutator!(
    NegateReturnValue,
    "NegateReturnValue",
    "Negates the value of a randomly selected return statement with an arithmetic result.",
    Expression
);

impl NegateReturnValue {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let mut spots = Vec::new();
        for s in collect::stmts_matching(ctx.ast(), |s| matches!(s.kind, StmtKind::Return(Some(_))))
        {
            let StmtKind::Return(Some(e)) = &s.kind else {
                continue;
            };
            if let Some(t) = ctx.type_of(&ctx.ast()[*e]) {
                if t.ty.decayed().is_arithmetic() && !t.ty.decayed().is_complex() {
                    spots.push(ctx.ast()[*e].span);
                }
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let text = ctx.source_text(span);
        ctx.replace(span, format!("-({text})"));
        true
    }
}

mutator!(
    SwapCallArguments,
    "SwapCallArguments",
    "Swaps two type-interchangeable arguments of a randomly selected function call, permuting the data flow into the callee.",
    Expression
);

impl SwapCallArguments {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let calls = collect::exprs_matching(
            ctx.ast(),
            |e| matches!(&e.kind, ExprKind::Call { args, .. } if args.len() >= 2),
        );
        let mut spots = Vec::new();
        for call in &calls {
            let ExprKind::Call { args, .. } = &call.kind else {
                continue;
            };
            for i in 0..args.len() {
                for j in i + 1..args.len() {
                    let (a, b) = (&ctx.ast()[args[i]], &ctx.ast()[args[j]]);
                    if ctx.types_interchangeable(a, b)
                        && ctx.source_text(a.span) != ctx.source_text(b.span)
                    {
                        spots.push((a.span, b.span));
                    }
                }
            }
        }
        let Some(&(a, b)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let ta = ctx.source_text(a);
        let tb = ctx.source_text(b);
        ctx.replace(a, tb);
        ctx.replace(b, ta);
        true
    }
}

mutator!(
    ExtendStringLiteral,
    "ExtendStringLiteral",
    "Appends extra characters to a randomly selected string literal, growing the constant data the compiler must place.",
    Expression
);

impl ExtendStringLiteral {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        // Skip string literals used as array initializers of sized arrays
        // (growth could overflow the declared size) by only touching ones
        // inside function bodies.
        let mut spots = Vec::new();
        for f in ctx.ast().function_defs() {
            for e in collect::exprs_matching((ctx.ast(), f), |e| {
                matches!(e.kind, ExprKind::StrLit { .. })
            }) {
                spots.push(e.span);
            }
        }
        let Some(&span) = ctx.rng().pick(&spots) else {
            return false;
        };
        let n = ctx.rng().int_in(1, 12);
        let suffix = "x".repeat(n as usize);
        // Insert before the closing quote.
        ctx.insert_before(span.hi - 1, suffix);
        true
    }
}

mutator!(
    StrengthReduceModToAnd,
    "StrengthReduceModToAnd",
    "Rewrites a remainder by a power of two into the equivalent bitwise mask, the strength reduction optimizers perform themselves.",
    Expression
);

impl StrengthReduceModToAnd {
    fn run(&self, ctx: &mut MutCtx<'_>) -> bool {
        let exprs = collect::binary_exprs(ctx.ast());
        let mut spots = Vec::new();
        for e in &exprs {
            let ExprKind::Binary {
                op: BinaryOp::Rem,
                lhs,
                rhs,
            } = &e.kind
            else {
                continue;
            };
            let ExprKind::IntLit { value, .. } = ctx.ast()[*rhs].unparenthesized(ctx.ast()).kind
            else {
                continue;
            };
            if value > 1 && (value & (value - 1)) == 0 {
                spots.push((e.span, ctx.ast()[*lhs].span, value - 1));
            }
        }
        let Some(&(span, lhs, mask)) = ctx.rng().pick(&spots) else {
            return false;
        };
        let new = format!("(({}) & {mask})", ctx.source_text(lhs));
        ctx.replace(span, new);
        true
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use metamut_lang::compile_check;
    use metamut_muast::{mutate_source, MutationOutcome, Mutator};

    const SEED: &str = r#"
int pick(int a, int b) {
    int out = 0;
    if (a > b) { out = a; } else { out = b; }
    while (out > 100) out -= 7;
    puts("picking");
    return out % 8 + 65;
}
int main(void) { return pick(3, 4); }
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
    fn condition_pinned() {
        let outs = exercise(&ReplaceConditionWithConstant);
        assert!(outs.iter().any(|s| s.contains("if (0)")
            || s.contains("if (1)")
            || s.contains("while (0)")
            || s.contains("while (1)")));
    }

    #[test]
    fn if_to_ternary() {
        let outs = exercise(&ConvertIfToTernary);
        assert!(
            outs.iter()
                .any(|s| s.contains("out = (a > b) ? (a) : (b);")),
            "{outs:?}"
        );
    }

    #[test]
    fn int_to_char() {
        let outs = exercise(&IntToCharLiteral);
        assert!(
            outs.iter().any(|s| s.contains("'A'") || s.contains("'e'")),
            "{outs:?}"
        );
    }

    #[test]
    fn return_negated() {
        let outs = exercise(&NegateReturnValue);
        assert!(outs.iter().any(|s| s.contains("return -(")));
    }

    #[test]
    fn call_args_swapped() {
        let outs = exercise(&SwapCallArguments);
        assert!(outs.iter().any(|s| s.contains("pick(4, 3)")), "{outs:?}");
    }

    #[test]
    fn string_extended() {
        let outs = exercise(&ExtendStringLiteral);
        assert!(outs.iter().any(|s| s.contains("pickingx")));
    }

    #[test]
    fn mod_to_and() {
        let outs = exercise(&StrengthReduceModToAnd);
        assert!(outs.iter().any(|s| s.contains("((out) & 7)")), "{outs:?}");
    }
}
