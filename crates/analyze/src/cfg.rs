//! Control-flow graph construction over `metamut-lang` function bodies.
//!
//! The CFG is built per [`FunctionDef`] directly from the statement AST —
//! no sema required — and is the substrate for the worklist dataflow
//! engine in [`crate::dataflow`]. Nodes are individual actions (one
//! declarator, one evaluated expression, one branch condition, one
//! return); compound statements contribute no nodes of their own.
//!
//! Branches on *syntactically constant* conditions are pruned at build
//! time: `if (0) { ... }` produces the then-block's nodes with no
//! incoming edge from the branch, so reachability analysis sees dead code
//! without any dataflow.

use metamut_lang::ast::{
    BinaryOp, BlockItem, Expr, ExprKind, ExprRef, ForInit, FunctionDef, Stmt, StmtKind, UnaryOp,
    VarDecl,
};
use metamut_lang::{Ast, Name, Span};
use std::collections::HashMap;

/// What a CFG node does when control reaches it.
#[derive(Debug, Clone, Copy)]
pub enum Action<'a> {
    /// Function entry: parameters become initialized here.
    Entry,
    /// Function exit (explicit or implicit return).
    Exit,
    /// One declarator of a declaration statement.
    Decl(&'a VarDecl),
    /// An evaluated expression (expression statement, `for` init/step,
    /// `switch` scrutinee).
    Eval(&'a Expr),
    /// A branch condition (`if`/`while`/`do`/`for`); successors are the
    /// surviving arms.
    Branch(&'a Expr),
    /// `return`, with its optional value; always flows to [`Action::Exit`].
    Return(Option<&'a Expr>),
    /// An unconditional transfer: `goto`, `break`, or `continue`.
    Jump,
    /// A structural merge point (label, case arm, loop entry).
    Join,
}

impl Action<'_> {
    /// Whether this node corresponds to source the programmer wrote (and
    /// is therefore worth reporting as unreachable).
    pub fn is_source(&self) -> bool {
        matches!(
            self,
            Action::Decl(_) | Action::Eval(_) | Action::Branch(_) | Action::Return(_)
        )
    }
}

/// One node of the CFG.
#[derive(Debug)]
pub struct Node<'a> {
    /// The node's action.
    pub action: Action<'a>,
    /// Source span the action covers (empty for synthetic nodes).
    pub span: Span,
    /// Successor node indices.
    pub succs: Vec<usize>,
}

/// A per-function control-flow graph.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// All nodes; `entry` and `exit` are always present.
    pub nodes: Vec<Node<'a>>,
    /// Index of the [`Action::Entry`] node.
    pub entry: usize,
    /// Index of the [`Action::Exit`] node.
    pub exit: usize,
}

impl<'a> Cfg<'a> {
    /// Builds the CFG of `fun`'s body. Returns `None` for prototypes.
    pub fn build(ast: &'a Ast, fun: &'a FunctionDef) -> Option<Cfg<'a>> {
        let body = fun.body.as_ref()?;
        let mut b = Builder {
            ast,
            nodes: vec![
                Node {
                    action: Action::Entry,
                    span: fun.name_span,
                    succs: Vec::new(),
                },
                Node {
                    action: Action::Exit,
                    span: Span::new(fun.span.hi, fun.span.hi),
                    succs: Vec::new(),
                },
            ],
            continues: Vec::new(),
            breakables: Vec::new(),
            switches: Vec::new(),
            labels: HashMap::new(),
            gotos: Vec::new(),
        };
        let open = b.stmt(body, vec![0]);
        // Falling off the end of the function is an implicit return.
        b.connect(&open, 1);
        for (name, from) in std::mem::take(&mut b.gotos) {
            if let Some(&target) = b.labels.get(&name) {
                b.nodes[from].succs.push(target);
            }
        }
        Some(Cfg {
            nodes: b.nodes,
            entry: 0,
            exit: 1,
        })
    }

    /// The set of nodes reachable from `entry`, as a bitmap.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// Evaluates an expression that contains no variable references to a
/// constant, if possible. Used to prune constant branches at CFG build
/// time and to recognize `while (1)`-style loop conditions; the
/// environment-aware evaluator lives in [`crate::analyses`].
pub fn syntactic_const<'a>(ast: &'a Ast, e: impl ExprRef<'a>) -> Option<i128> {
    let e = e.resolve(ast);
    match &e.kind {
        ExprKind::IntLit { value, .. } => Some(*value),
        ExprKind::CharLit { value } => Some(*value as i128),
        ExprKind::Paren(inner) => syntactic_const(ast, inner),
        ExprKind::Unary { op, operand } => {
            let v = syntactic_const(ast, operand)?;
            match op {
                UnaryOp::Plus => Some(v),
                UnaryOp::Minus => v.checked_neg(),
                UnaryOp::Not => Some((v == 0) as i128),
                UnaryOp::BitNot => Some(!v),
                _ => None,
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let l = syntactic_const(ast, lhs)?;
            let r = syntactic_const(ast, rhs)?;
            eval_binary(*op, l, r)
        }
        ExprKind::Cond {
            cond,
            then_expr,
            else_expr,
        } => {
            let c = syntactic_const(ast, cond)?;
            if c != 0 {
                syntactic_const(ast, then_expr)
            } else {
                syntactic_const(ast, else_expr)
            }
        }
        _ => None,
    }
}

/// Constant-folds one binary operation, refusing anything that would
/// itself be UB (division by zero, shift overflow).
pub fn eval_binary(op: BinaryOp, l: i128, r: i128) -> Option<i128> {
    match op {
        BinaryOp::Add => l.checked_add(r),
        BinaryOp::Sub => l.checked_sub(r),
        BinaryOp::Mul => l.checked_mul(r),
        BinaryOp::Div => l.checked_div(r),
        BinaryOp::Rem => l.checked_rem(r),
        BinaryOp::Shl => u32::try_from(r).ok().and_then(|s| l.checked_shl(s)),
        BinaryOp::Shr => u32::try_from(r).ok().and_then(|s| l.checked_shr(s)),
        BinaryOp::BitAnd => Some(l & r),
        BinaryOp::BitOr => Some(l | r),
        BinaryOp::BitXor => Some(l ^ r),
        BinaryOp::Lt => Some((l < r) as i128),
        BinaryOp::Gt => Some((l > r) as i128),
        BinaryOp::Le => Some((l <= r) as i128),
        BinaryOp::Ge => Some((l >= r) as i128),
        BinaryOp::Eq => Some((l == r) as i128),
        BinaryOp::Ne => Some((l != r) as i128),
        BinaryOp::LogAnd => Some((l != 0 && r != 0) as i128),
        BinaryOp::LogOr => Some((l != 0 || r != 0) as i128),
    }
}

/// What the innermost `break` escapes from. Loops and switches push onto
/// one shared stack so their interleaving is tracked for free; the popped
/// entry's collected `break` nodes join the construct's exit frontier.
enum Breakable {
    Loop(Vec<usize>),
    Switch(Vec<usize>),
}

impl Breakable {
    fn ends(&mut self) -> &mut Vec<usize> {
        match self {
            Breakable::Loop(v) | Breakable::Switch(v) => v,
        }
    }
}

/// Dispatch targets of an open `switch` body.
struct SwitchCtx {
    cases: Vec<usize>,
    default: Option<usize>,
}

struct Builder<'a> {
    ast: &'a Ast,
    nodes: Vec<Node<'a>>,
    /// `continue` targets, innermost last (loops only).
    continues: Vec<usize>,
    /// `break` scopes, innermost last (loops and switches interleaved).
    breakables: Vec<Breakable>,
    /// Open `switch` contexts, innermost last.
    switches: Vec<SwitchCtx>,
    labels: HashMap<Name, usize>,
    gotos: Vec<(Name, usize)>,
}

impl<'a> Builder<'a> {
    fn node(&mut self, action: Action<'a>, span: Span) -> usize {
        self.nodes.push(Node {
            action,
            span,
            succs: Vec::new(),
        });
        self.nodes.len() - 1
    }

    fn connect(&mut self, preds: &[usize], to: usize) {
        for &p in preds {
            self.nodes[p].succs.push(to);
        }
    }

    /// Appends a node fed by `frontier`, returning the new frontier.
    fn chain(&mut self, frontier: Vec<usize>, action: Action<'a>, span: Span) -> Vec<usize> {
        let n = self.node(action, span);
        self.connect(&frontier, n);
        vec![n]
    }

    fn decl_group(&mut self, vars: &'a [VarDecl], mut frontier: Vec<usize>) -> Vec<usize> {
        for v in vars {
            frontier = self.chain(frontier, Action::Decl(v), v.span);
        }
        frontier
    }

    fn pop_breakable(&mut self) -> Vec<usize> {
        match self.breakables.pop() {
            Some(mut b) => std::mem::take(b.ends()),
            None => Vec::new(),
        }
    }

    fn stmt(&mut self, s: &'a Stmt, frontier: Vec<usize>) -> Vec<usize> {
        match &s.kind {
            StmtKind::Compound(items) => {
                let mut f = frontier;
                for item in items {
                    f = match item {
                        BlockItem::Decl(group) => self.decl_group(&group.vars, f),
                        BlockItem::Stmt(st) => self.stmt(st, f),
                    };
                }
                f
            }
            StmtKind::Expr(e) => self.chain(frontier, Action::Eval(&self.ast[*e]), s.span),
            StmtKind::Null => frontier,
            StmtKind::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                let branch = self.node(Action::Branch(&self.ast[*cond]), self.ast[*cond].span);
                self.connect(&frontier, branch);
                match syntactic_const(self.ast, cond) {
                    Some(0) => {
                        // Dead arm: build it unconnected so reachability
                        // flags it, discard its ends.
                        self.stmt(then_stmt, Vec::new());
                        match else_stmt {
                            Some(e) => self.stmt(e, vec![branch]),
                            None => vec![branch],
                        }
                    }
                    Some(_) => {
                        if let Some(e) = else_stmt {
                            self.stmt(e, Vec::new());
                        }
                        self.stmt(then_stmt, vec![branch])
                    }
                    None => {
                        let mut out = self.stmt(then_stmt, vec![branch]);
                        match else_stmt {
                            Some(e) => out.extend(self.stmt(e, vec![branch])),
                            None => out.push(branch),
                        }
                        out
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let head = self.node(Action::Branch(&self.ast[*cond]), self.ast[*cond].span);
                self.connect(&frontier, head);
                self.continues.push(head);
                self.breakables.push(Breakable::Loop(Vec::new()));
                let konst = syntactic_const(self.ast, cond);
                let body_in = if konst == Some(0) {
                    Vec::new()
                } else {
                    vec![head]
                };
                let body_out = self.stmt(body, body_in);
                self.connect(&body_out, head);
                self.continues.pop();
                let mut out = self.pop_breakable();
                if !matches!(konst, Some(v) if v != 0) {
                    out.push(head);
                }
                out
            }
            StmtKind::DoWhile { body, cond } => {
                let entry = self.node(Action::Join, s.span);
                self.connect(&frontier, entry);
                let tail = self.node(Action::Branch(&self.ast[*cond]), self.ast[*cond].span);
                self.continues.push(tail);
                self.breakables.push(Breakable::Loop(Vec::new()));
                let body_out = self.stmt(body, vec![entry]);
                self.connect(&body_out, tail);
                let konst = syntactic_const(self.ast, cond);
                if konst != Some(0) {
                    self.nodes[tail].succs.push(entry);
                }
                self.continues.pop();
                let mut out = self.pop_breakable();
                if !matches!(konst, Some(v) if v != 0) {
                    out.push(tail);
                }
                out
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut f = frontier;
                if let Some(init) = init {
                    f = match init.as_ref() {
                        ForInit::Decl(group) => self.decl_group(&group.vars, f),
                        ForInit::Expr(e) => {
                            self.chain(f, Action::Eval(&self.ast[*e]), self.ast[*e].span)
                        }
                    };
                }
                let konst = cond.map_or(Some(1), |c| syntactic_const(self.ast, &self.ast[c]));
                let head = match cond {
                    Some(c) => self.node(Action::Branch(&self.ast[*c]), self.ast[*c].span),
                    None => self.node(Action::Join, s.span),
                };
                self.connect(&f, head);
                let back = match step {
                    Some(e) => {
                        let n = self.node(Action::Eval(&self.ast[*e]), self.ast[*e].span);
                        self.nodes[n].succs.push(head);
                        n
                    }
                    None => head,
                };
                self.continues.push(back);
                self.breakables.push(Breakable::Loop(Vec::new()));
                let body_in = if konst == Some(0) {
                    Vec::new()
                } else {
                    vec![head]
                };
                let body_out = self.stmt(body, body_in);
                self.connect(&body_out, back);
                self.continues.pop();
                let mut out = self.pop_breakable();
                if !matches!(konst, Some(v) if v != 0) && cond.is_some() {
                    out.push(head);
                }
                out
            }
            StmtKind::Switch { cond, body } => {
                let head = self.node(Action::Eval(&self.ast[*cond]), self.ast[*cond].span);
                self.connect(&frontier, head);
                self.switches.push(SwitchCtx {
                    cases: Vec::new(),
                    default: None,
                });
                self.breakables.push(Breakable::Switch(Vec::new()));
                // Statements before the first `case` are unreachable per C.
                let body_out = self.stmt(body, Vec::new());
                let breaks = self.pop_breakable();
                let ctx = self.switches.pop().expect("switch context");
                for &c in &ctx.cases {
                    self.nodes[head].succs.push(c);
                }
                let mut out = body_out;
                match ctx.default {
                    Some(d) => self.nodes[head].succs.push(d),
                    None => out.push(head),
                }
                out.extend(breaks);
                out
            }
            StmtKind::Case { stmt, .. } => {
                let arm = self.node(Action::Join, s.span);
                self.connect(&frontier, arm);
                if let Some(ctx) = self.switches.last_mut() {
                    ctx.cases.push(arm);
                }
                self.stmt(stmt, vec![arm])
            }
            StmtKind::Default { stmt } => {
                let arm = self.node(Action::Join, s.span);
                self.connect(&frontier, arm);
                if let Some(ctx) = self.switches.last_mut() {
                    ctx.default = Some(arm);
                }
                self.stmt(stmt, vec![arm])
            }
            StmtKind::Label { name, stmt, .. } => {
                let target = self.node(Action::Join, s.span);
                self.connect(&frontier, target);
                self.labels.insert(name.clone(), target);
                self.stmt(stmt, vec![target])
            }
            StmtKind::Goto { name, .. } => {
                let n = self.chain(frontier, Action::Jump, s.span);
                self.gotos.push((name.clone(), n[0]));
                Vec::new()
            }
            StmtKind::Break => {
                let n = self.chain(frontier, Action::Jump, s.span);
                if let Some(b) = self.breakables.last_mut() {
                    b.ends().push(n[0]);
                }
                Vec::new()
            }
            StmtKind::Continue => {
                let n = self.chain(frontier, Action::Jump, s.span);
                if let Some(&target) = self.continues.last() {
                    self.nodes[n[0]].succs.push(target);
                }
                Vec::new()
            }
            StmtKind::Return(e) => {
                let n = self.chain(frontier, Action::Return(e.map(|e| &self.ast[e])), s.span);
                self.nodes[n[0]].succs.push(1);
                Vec::new()
            }
        }
    }
}
