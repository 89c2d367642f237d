//! Lowering from the checked AST to the three-address [`crate::ir`].
//!
//! The lowering is semantics-preserving for the common C core (arithmetic,
//! control flow, arrays, scalars, calls) and *shape-preserving* for the long
//! tail (aggregates through pointers, complex values): unhandled constructs
//! lower to `Undef` reads while still contributing structure — which is what
//! the coverage map and the bug oracle consume.

use crate::coverage::feature_hash;
use crate::ir::*;
use metamut_lang::ast as c;
use metamut_lang::ast::ExprRef;
use metamut_lang::fxhash::{FxHashMap, FxHashSet};
use metamut_lang::sema::SemaResult;
use std::fmt::Write;

/// Result of lowering a translation unit.
#[derive(Debug)]
pub struct Lowered {
    /// The IR module.
    pub module: Module,
    /// Structural features observed while lowering (IR-generation stage
    /// coverage).
    pub features: Vec<u64>,
}

/// Lowers a checked AST to IR, one declaration after another in source
/// order.
pub fn lower(ast: &c::Ast, sema: &SemaResult) -> Lowered {
    let mut lw = Lowering {
        ast,
        sema,
        module: Module::default(),
        features: Vec::new(),
    };
    for d in &ast.unit.decls {
        match d {
            c::ExternalDecl::Vars(g) => {
                for v in &g.vars {
                    let init = match &v.init {
                        Some(c::Initializer::Expr(e)) => const_int_of(ast, e),
                        _ => None,
                    };
                    lw.module.globals.push((v.name.to_string(), init));
                    lw.feature(&[1, v.name.len() as u64]);
                }
            }
            c::ExternalDecl::Function(f) if f.is_definition() => {
                let func = lw.lower_function(f);
                lw.module.functions.push(func);
            }
            _ => {}
        }
    }
    Lowered {
        module: lw.module,
        features: lw.features,
    }
}

fn const_int_of<'a>(ast: &'a c::Ast, e: impl ExprRef<'a>) -> Option<i64> {
    let e = e.resolve(ast);
    match &e.kind {
        c::ExprKind::IntLit { value, .. } => Some(*value as i64),
        c::ExprKind::CharLit { value } => Some(*value),
        c::ExprKind::Unary {
            op: c::UnaryOp::Minus,
            operand,
        } => const_int_of(ast, operand).map(|v| -v),
        c::ExprKind::Paren(inner) => const_int_of(ast, inner),
        _ => None,
    }
}

struct Lowering<'a> {
    ast: &'a c::Ast,
    sema: &'a SemaResult,
    module: Module,
    features: Vec<u64>,
}

impl<'a> Lowering<'a> {
    fn feature(&mut self, parts: &[u64]) {
        self.features.push(feature_hash(parts));
    }

    fn lower_function(&mut self, f: &'a c::FunctionDef) -> IrFunction {
        let mut fx = FnLowering {
            ast: self.ast,
            sema: self.sema,
            func: IrFunction {
                name: f.name.to_string(),
                params: f
                    .params
                    .iter()
                    .map(|p| p.name.as_deref().unwrap_or("_").to_string())
                    .collect(),
                returns_value: !f.ret_ty.is_void(),
                blocks: Vec::new(),
                temp_count: 0,
            },
            // Function features append straight onto the module's.
            features: std::mem::take(&mut self.features),
            cur: BlockId(0),
            scopes: vec![FxHashMap::default()],
            names: FxHashSet::default(),
            buf: String::new(),
            volatile_slots: Default::default(),
            loop_stack: Vec::new(),
            label_blocks: FxHashMap::default(),
            next_slot: 0,
        };
        fx.new_block(); // entry
        for p in &f.params {
            if let Some(name) = &p.name {
                let slot = fx.intern(name);
                fx.scopes
                    .last_mut()
                    .expect("scope")
                    .insert(slot.clone(), slot);
            }
        }
        if let Some(body) = &f.body {
            fx.pre_scan_labels(body);
            fx.lower_stmt(body);
        }
        // Fall-through return.
        let ret = if fx.func.returns_value {
            Terminator::Return(Some(Value::Int(0)))
        } else {
            Terminator::Return(None)
        };
        fx.terminate(ret);
        // CFG-edge features.
        for b in &fx.func.blocks {
            for s in b.term.successors() {
                fx.features.push(feature_hash(&[
                    2,
                    b.insts.len() as u64,
                    (s.0 as i64 - b.id.0 as i64).unsigned_abs(),
                ]));
            }
        }
        self.features = fx.features;
        fx.func
    }
}

struct FnLowering<'a> {
    ast: &'a c::Ast,
    sema: &'a SemaResult,
    func: IrFunction,
    features: Vec<u64>,
    cur: BlockId,
    /// name → slot mapping per lexical scope.
    scopes: Vec<FxHashMap<Name, Name>>,
    /// Every name interned so far: globals, callees, parameters, member
    /// paths. Each spelling is allocated once per function.
    names: FxHashSet<Name>,
    /// Scratch buffer for building fresh slot names.
    buf: String,
    volatile_slots: FxHashSet<Name>,
    /// (continue target, break target)
    loop_stack: Vec<(BlockId, BlockId)>,
    label_blocks: FxHashMap<c::Name, BlockId>,
    next_slot: u32,
}

impl<'a> FnLowering<'a> {
    fn feature(&mut self, parts: &[u64]) {
        self.features.push(feature_hash(parts));
    }

    fn new_temp(&mut self) -> Temp {
        let t = Temp(self.func.temp_count);
        self.func.temp_count += 1;
        t
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block {
            id,
            insts: Vec::new(),
            term: Terminator::Unreachable,
        });
        id
    }

    fn emit(&mut self, inst: Inst) {
        let code = match &inst {
            Inst::Bin { op, a, b, .. } => [10, op.code(), operand_code(a), operand_code(b)],
            Inst::Un { op, a, .. } => [11, *op as u64, operand_code(a), 0],
            Inst::Load { volatile, .. } => [12, u64::from(*volatile), 0, 0],
            Inst::Store {
                volatile, value, ..
            } => [13, u64::from(*volatile), operand_code(value), 0],
            Inst::LoadIdx { index, .. } => [14, operand_code(index), 0, 0],
            Inst::StoreIdx { index, value, .. } => {
                [15, operand_code(index), operand_code(value), 0]
            }
            Inst::AddrOf { .. } => [16, 0, 0, 0],
            Inst::LoadPtr { .. } => [17, 0, 0, 0],
            Inst::StorePtr { .. } => [18, 0, 0, 0],
            Inst::Call { dst, args, .. } => [19, u64::from(dst.is_some()), args.len() as u64, 0],
        };
        self.feature(&code);
        let cur = self.cur;
        self.func.blocks[cur.0 as usize].insts.push(inst);
    }

    /// Sets the current block's terminator if it is still open, then leaves
    /// the block finished.
    fn terminate(&mut self, term: Terminator) {
        let cur = self.cur;
        let b = &mut self.func.blocks[cur.0 as usize];
        if matches!(b.term, Terminator::Unreachable) {
            b.term = term;
        }
    }

    /// Starts a new block and makes it current (the caller has arranged for
    /// control to reach it).
    fn switch_to(&mut self, id: BlockId) {
        self.cur = id;
    }

    fn fresh_slot(&mut self, name: &str) -> Name {
        self.buf.clear();
        let _ = write!(self.buf, "{name}.{}", self.next_slot);
        self.next_slot += 1;
        Name::from(self.buf.as_str())
    }

    /// The shared allocation for `name`.
    fn intern(&mut self, name: &str) -> Name {
        if let Some(n) = self.names.get(name) {
            return n.clone();
        }
        let n = Name::from(name);
        self.names.insert(n.clone());
        n
    }

    fn resolve(&self, name: &str) -> Option<Name> {
        for scope in self.scopes.iter().rev() {
            if let Some(slot) = scope.get(name) {
                return Some(slot.clone());
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Labels / goto
    // ------------------------------------------------------------------

    fn pre_scan_labels(&mut self, body: &'a c::Stmt) {
        struct V<'a, 'b> {
            fx: &'a mut FnLowering<'b>,
        }
        impl<'b> metamut_lang::visit::Visitor<'b> for V<'_, 'b> {
            fn ast(&self) -> &'b c::Ast {
                self.fx.ast
            }

            fn visit_stmt(&mut self, s: &'b c::Stmt) {
                if let c::StmtKind::Label { name, .. } = &s.kind {
                    let bb = self.fx.new_block();
                    self.fx.label_blocks.insert(name.clone(), bb);
                }
                metamut_lang::visit::walk_stmt(self, s);
            }
        }
        let mut v = V { fx: self };
        metamut_lang::visit::Visitor::visit_stmt(&mut v, body);
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn lower_stmt(&mut self, s: &c::Stmt) {
        match &s.kind {
            c::StmtKind::Compound(items) => {
                self.scopes.push(FxHashMap::default());
                for item in items {
                    match item {
                        c::BlockItem::Decl(g) => self.lower_decl_group(g),
                        c::BlockItem::Stmt(st) => self.lower_stmt(st),
                    }
                }
                self.scopes.pop();
            }
            c::StmtKind::Expr(e) => {
                self.lower_expr(e);
            }
            c::StmtKind::Null => {}
            c::StmtKind::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                let cv = self.lower_expr(cond);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.terminate(Terminator::Branch {
                    cond: cv,
                    then_bb,
                    else_bb,
                });
                self.switch_to(then_bb);
                self.lower_stmt(then_stmt);
                self.terminate(Terminator::Jump(join));
                self.switch_to(else_bb);
                if let Some(es) = else_stmt {
                    self.lower_stmt(es);
                }
                self.terminate(Terminator::Jump(join));
                self.switch_to(join);
                self.feature(&[30, u64::from(else_stmt.is_some())]);
            }
            c::StmtKind::While { cond, body } => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(header));
                self.switch_to(header);
                let cv = self.lower_expr(cond);
                self.terminate(Terminator::Branch {
                    cond: cv,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.loop_stack.push((header, exit));
                self.switch_to(body_bb);
                self.lower_stmt(body);
                self.terminate(Terminator::Jump(header));
                self.loop_stack.pop();
                self.switch_to(exit);
                self.feature(&[31]);
            }
            c::StmtKind::DoWhile { body, cond } => {
                let body_bb = self.new_block();
                let latch = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(body_bb));
                self.loop_stack.push((latch, exit));
                self.switch_to(body_bb);
                self.lower_stmt(body);
                self.terminate(Terminator::Jump(latch));
                self.loop_stack.pop();
                self.switch_to(latch);
                let cv = self.lower_expr(cond);
                self.terminate(Terminator::Branch {
                    cond: cv,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.switch_to(exit);
                self.feature(&[32]);
            }
            c::StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(FxHashMap::default());
                if let Some(init) = init {
                    match init.as_ref() {
                        c::ForInit::Decl(g) => self.lower_decl_group(g),
                        c::ForInit::Expr(e) => {
                            self.lower_expr(e);
                        }
                    }
                }
                let header = self.new_block();
                let body_bb = self.new_block();
                let latch = self.new_block();
                let exit = self.new_block();
                self.terminate(Terminator::Jump(header));
                self.switch_to(header);
                let cv = match cond {
                    Some(c) => self.lower_expr(c),
                    None => Value::Int(1),
                };
                self.terminate(Terminator::Branch {
                    cond: cv,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.loop_stack.push((latch, exit));
                self.switch_to(body_bb);
                self.lower_stmt(body);
                self.terminate(Terminator::Jump(latch));
                self.loop_stack.pop();
                self.switch_to(latch);
                if let Some(st) = step {
                    self.lower_expr(st);
                }
                self.terminate(Terminator::Jump(header));
                self.switch_to(exit);
                self.feature(&[33, u64::from(cond.is_some()), u64::from(step.is_some())]);
            }
            c::StmtKind::Switch { cond, body } => {
                let scrut = self.lower_expr(cond);
                // Collect immediate case/default labels in the body.
                let mut plan = SwitchPlan::default();
                collect_switch_labels(self.ast, body, &mut plan);
                let exit = self.new_block();
                let mut case_blocks = Vec::new();
                for v in &plan.cases {
                    case_blocks.push((*v, self.new_block()));
                }
                let default_bb = if plan.has_default {
                    self.new_block()
                } else {
                    exit
                };
                self.terminate(Terminator::Switch {
                    value: scrut,
                    cases: case_blocks.clone(),
                    default: default_bb,
                });
                self.loop_stack.push((exit, exit)); // break targets exit
                let mut ctx = SwitchLowerCtx {
                    case_blocks: case_blocks.into_iter().collect(),
                    default_bb: if plan.has_default {
                        Some(default_bb)
                    } else {
                        None
                    },
                };
                // Lower the body linearly; labels switch blocks.
                let dead = self.new_block(); // body head unreachable unless labeled
                self.switch_to(dead);
                self.lower_switch_body(body, &mut ctx);
                self.terminate(Terminator::Jump(exit));
                self.loop_stack.pop();
                self.switch_to(exit);
                self.feature(&[34, plan.cases.len() as u64, u64::from(plan.has_default)]);
            }
            c::StmtKind::Case { .. } | c::StmtKind::Default { .. } => {
                // Handled by lower_switch_body; stray labels lower their
                // sub-statement in place.
                if let c::StmtKind::Case { stmt, .. } | c::StmtKind::Default { stmt } = &s.kind {
                    self.lower_stmt(stmt);
                }
            }
            c::StmtKind::Label { name, stmt, .. } => {
                let bb = self.label_blocks[name];
                self.terminate(Terminator::Jump(bb));
                self.switch_to(bb);
                self.lower_stmt(stmt);
                self.feature(&[35]);
            }
            c::StmtKind::Goto { name, .. } => {
                if let Some(&bb) = self.label_blocks.get(name) {
                    self.terminate(Terminator::Jump(bb));
                    let dead = self.new_block();
                    self.switch_to(dead);
                }
                self.feature(&[36]);
            }
            c::StmtKind::Break => {
                if let Some(&(_, exit)) = self.loop_stack.last() {
                    self.terminate(Terminator::Jump(exit));
                    let dead = self.new_block();
                    self.switch_to(dead);
                }
            }
            c::StmtKind::Continue => {
                if let Some(&(cont, _)) = self.loop_stack.last() {
                    self.terminate(Terminator::Jump(cont));
                    let dead = self.new_block();
                    self.switch_to(dead);
                }
            }
            c::StmtKind::Return(value) => {
                let v = value.as_ref().map(|e| self.lower_expr(e));
                self.terminate(Terminator::Return(v));
                let dead = self.new_block();
                self.switch_to(dead);
                self.feature(&[37, u64::from(value.is_some())]);
            }
        }
    }

    fn lower_switch_body(&mut self, s: &c::Stmt, ctx: &mut SwitchLowerCtx) {
        match &s.kind {
            c::StmtKind::Compound(items) => {
                self.scopes.push(FxHashMap::default());
                for item in items {
                    match item {
                        c::BlockItem::Decl(g) => self.lower_decl_group(g),
                        c::BlockItem::Stmt(st) => self.lower_switch_body(st, ctx),
                    }
                }
                self.scopes.pop();
            }
            c::StmtKind::Case { expr, stmt } => {
                let key = const_int_of(self.ast, expr)
                    .or_else(|| eval_via_sema(self.ast, expr))
                    .unwrap_or(0);
                if let Some(&bb) = ctx.case_blocks.get(&key) {
                    // Fallthrough from the previous arm.
                    self.terminate(Terminator::Jump(bb));
                    self.switch_to(bb);
                }
                self.lower_switch_body(stmt, ctx);
            }
            c::StmtKind::Default { stmt } => {
                if let Some(bb) = ctx.default_bb {
                    self.terminate(Terminator::Jump(bb));
                    self.switch_to(bb);
                }
                self.lower_switch_body(stmt, ctx);
            }
            _ => self.lower_stmt(s),
        }
    }

    fn lower_decl_group(&mut self, g: &c::DeclGroup) {
        for v in &g.vars {
            let slot = self.fresh_slot(&v.name);
            let key = self.intern(&v.name);
            self.scopes
                .last_mut()
                .expect("scope")
                .insert(key, slot.clone());
            let is_volatile = self
                .sema
                .decl_type(v.id)
                .map(|t| t.quals.is_volatile)
                .unwrap_or(false);
            if is_volatile {
                self.volatile_slots.insert(slot.clone());
            }
            match &v.init {
                Some(c::Initializer::Expr(e)) => {
                    let val = self.lower_expr(e);
                    self.emit(Inst::Store {
                        slot,
                        value: val,
                        volatile: is_volatile,
                    });
                }
                Some(c::Initializer::List { items, .. }) => {
                    for (i, item) in items.iter().enumerate() {
                        if let c::Initializer::Expr(e) = item {
                            let val = self.lower_expr(e);
                            self.emit(Inst::StoreIdx {
                                base: slot.clone(),
                                index: Value::Int(i as i64),
                                value: val,
                            });
                        }
                    }
                }
                None => {}
            }
            self.feature(&[40, u64::from(v.init.is_some())]);
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn lower_expr(&mut self, e: impl ExprRef<'a>) -> Value {
        let e = e.resolve(self.ast);
        use c::ExprKind as K;
        match &e.kind {
            K::IntLit { value, .. } => Value::Int(*value as i64),
            K::CharLit { value } => Value::Int(*value),
            K::FloatLit { value, .. } => Value::Float(*value),
            K::StrLit { value } => Value::Str(value.clone()),
            K::Ident(name) => {
                if let Some(v) = self.sema.enum_consts.get(name) {
                    return Value::Int(*v);
                }
                match self.resolve_or_global(name) {
                    Some(slot) => {
                        // Arrays decay to their address: keep the slot as the
                        // value so passes can reason about aliasing.
                        let is_array = self
                            .sema
                            .expr_type(e.id)
                            .map(|t| t.ty.is_array())
                            .unwrap_or(false);
                        if is_array {
                            return Value::Slot(slot);
                        }
                        let dst = self.new_temp();
                        let volatile = self.volatile_slots.contains(&slot);
                        self.emit(Inst::Load {
                            dst,
                            slot,
                            volatile,
                        });
                        Value::Temp(dst)
                    }
                    None => Value::Slot(self.intern(name)), // function name etc.
                }
            }
            K::Paren(inner) => self.lower_expr(inner),
            K::Unary { op, operand } => self.lower_unary(*op, operand),
            K::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs),
            K::Assign { op, lhs, rhs } => self.lower_assign(*op, lhs, rhs),
            K::Cond {
                cond,
                then_expr,
                else_expr,
            } => {
                let cv = self.lower_expr(cond);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                let result_slot = self.fresh_slot("ternary");
                self.terminate(Terminator::Branch {
                    cond: cv,
                    then_bb,
                    else_bb,
                });
                self.switch_to(then_bb);
                let tv = self.lower_expr(then_expr);
                self.emit(Inst::Store {
                    slot: result_slot.clone(),
                    value: tv,
                    volatile: false,
                });
                self.terminate(Terminator::Jump(join));
                self.switch_to(else_bb);
                let ev = self.lower_expr(else_expr);
                self.emit(Inst::Store {
                    slot: result_slot.clone(),
                    value: ev,
                    volatile: false,
                });
                self.terminate(Terminator::Jump(join));
                self.switch_to(join);
                let dst = self.new_temp();
                self.emit(Inst::Load {
                    dst,
                    slot: result_slot,
                    volatile: false,
                });
                Value::Temp(dst)
            }
            K::Call { callee, args } => {
                let name = match &self.ast[*callee].unparenthesized(self.ast).kind {
                    K::Ident(n) => self.intern(n),
                    _ => {
                        self.lower_expr(callee);
                        self.intern("indirect")
                    }
                };
                let arg_vals: Vec<Value> = args.iter().map(|a| self.lower_expr(a)).collect();
                let returns_value = self
                    .sema
                    .functions
                    .get(&*name)
                    .map(|f| !f.ret.ty.is_void())
                    .unwrap_or(true);
                let dst = if returns_value {
                    Some(self.new_temp())
                } else {
                    None
                };
                self.emit(Inst::Call {
                    dst,
                    callee: name,
                    args: arg_vals,
                });
                dst.map(Value::Temp).unwrap_or(Value::Undef)
            }
            K::Index { base, index } => {
                let idx = self.lower_expr(index);
                match self.slot_of(base) {
                    Some(slot) => {
                        let dst = self.new_temp();
                        self.emit(Inst::LoadIdx {
                            dst,
                            base: slot,
                            index: idx,
                        });
                        Value::Temp(dst)
                    }
                    None => {
                        let ptr = self.lower_expr(base);
                        let dst = self.new_temp();
                        self.emit(Inst::LoadPtr { dst, ptr });
                        Value::Temp(dst)
                    }
                }
            }
            K::Member { base, member, .. } => {
                let slot = match self.slot_of(base) {
                    Some(s) => self.member_slot(&s, member),
                    None => self.member_slot("anon", member),
                };
                let dst = self.new_temp();
                self.emit(Inst::Load {
                    dst,
                    slot,
                    volatile: false,
                });
                Value::Temp(dst)
            }
            K::Cast { expr, ty } => {
                let v = self.lower_expr(expr);
                let dst = self.new_temp();
                let float = matches!(
                    ty.ty.base_spec(),
                    Some(
                        c::TypeSpecifier::Float
                            | c::TypeSpecifier::Double
                            | c::TypeSpecifier::LongDouble
                    )
                );
                self.emit(Inst::Un {
                    dst,
                    op: if float {
                        UnOp::FloatCast
                    } else {
                        UnOp::IntCast
                    },
                    a: v,
                });
                Value::Temp(dst)
            }
            K::CompoundLit { init, .. } => {
                let slot = self.fresh_slot("complit");
                if let c::Initializer::List { items, .. } = init.as_ref() {
                    for (i, item) in items.iter().enumerate() {
                        if let c::Initializer::Expr(e) = item {
                            let v = self.lower_expr(e);
                            self.emit(Inst::StoreIdx {
                                base: slot.clone(),
                                index: Value::Int(i as i64),
                                value: v,
                            });
                        }
                    }
                }
                let dst = self.new_temp();
                self.emit(Inst::Load {
                    dst,
                    slot,
                    volatile: false,
                });
                Value::Temp(dst)
            }
            K::SizeofExpr(inner) => {
                let sz = self
                    .sema
                    .expr_type(self.ast[*inner].id)
                    .map(|t| t.ty.size())
                    .unwrap_or(8);
                Value::Int(sz as i64)
            }
            K::SizeofType(_) => Value::Int(8),
            K::Comma { lhs, rhs } => {
                self.lower_expr(lhs);
                self.lower_expr(rhs)
            }
        }
    }

    fn lower_unary(&mut self, op: c::UnaryOp, operand: impl ExprRef<'a>) -> Value {
        let operand = operand.resolve(self.ast);
        use c::UnaryOp as U;
        match op {
            U::Plus => self.lower_expr(operand),
            U::Minus => {
                let v = self.lower_expr(operand);
                let dst = self.new_temp();
                self.emit(Inst::Un {
                    dst,
                    op: UnOp::Neg,
                    a: v,
                });
                Value::Temp(dst)
            }
            U::BitNot => {
                let v = self.lower_expr(operand);
                let dst = self.new_temp();
                self.emit(Inst::Un {
                    dst,
                    op: UnOp::Not,
                    a: v,
                });
                Value::Temp(dst)
            }
            U::Not => {
                let v = self.lower_expr(operand);
                let dst = self.new_temp();
                self.emit(Inst::Un {
                    dst,
                    op: UnOp::LogNot,
                    a: v,
                });
                Value::Temp(dst)
            }
            U::Deref => {
                let ptr = self.lower_expr(operand);
                let dst = self.new_temp();
                self.emit(Inst::LoadPtr { dst, ptr });
                Value::Temp(dst)
            }
            U::AddrOf => {
                let slot = self
                    .slot_of(operand)
                    .unwrap_or_else(|| self.intern("anon.addr"));
                let dst = self.new_temp();
                self.emit(Inst::AddrOf { dst, slot });
                Value::Temp(dst)
            }
            U::PreInc | U::PreDec | U::PostInc | U::PostDec => {
                let is_inc = matches!(op, U::PreInc | U::PostInc);
                match self.slot_of(operand) {
                    Some(slot) => {
                        let volatile = self.volatile_slots.contains(&slot);
                        let old = self.new_temp();
                        self.emit(Inst::Load {
                            dst: old,
                            slot: slot.clone(),
                            volatile,
                        });
                        let new = self.new_temp();
                        self.emit(Inst::Bin {
                            dst: new,
                            op: if is_inc { BinOp::Add } else { BinOp::Sub },
                            a: Value::Temp(old),
                            b: Value::Int(1),
                        });
                        self.emit(Inst::Store {
                            slot,
                            value: Value::Temp(new),
                            volatile,
                        });
                        if op.is_postfix() {
                            Value::Temp(old)
                        } else {
                            Value::Temp(new)
                        }
                    }
                    None => {
                        self.lower_expr(operand);
                        Value::Undef
                    }
                }
            }
            U::Real | U::Imag => {
                let v = self.lower_expr(operand);
                let dst = self.new_temp();
                self.emit(Inst::Un {
                    dst,
                    op: UnOp::FloatCast,
                    a: v,
                });
                self.feature(&[50, matches!(op, U::Imag) as u64]);
                Value::Temp(dst)
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: c::BinaryOp,
        lhs: impl ExprRef<'a>,
        rhs: impl ExprRef<'a>,
    ) -> Value {
        let lhs = lhs.resolve(self.ast);

        let rhs = rhs.resolve(self.ast);
        use c::BinaryOp as B;
        // Short-circuit operators get control flow.
        if matches!(op, B::LogAnd | B::LogOr) {
            let result = self.fresh_slot("sc");
            let lv = self.lower_expr(lhs);
            let rhs_bb = self.new_block();
            let short_bb = self.new_block();
            let join = self.new_block();
            let (then_bb, else_bb) = if op == B::LogAnd {
                (rhs_bb, short_bb)
            } else {
                (short_bb, rhs_bb)
            };
            self.terminate(Terminator::Branch {
                cond: lv,
                then_bb,
                else_bb,
            });
            self.switch_to(short_bb);
            self.emit(Inst::Store {
                slot: result.clone(),
                value: Value::Int(i64::from(op == B::LogOr)),
                volatile: false,
            });
            self.terminate(Terminator::Jump(join));
            self.switch_to(rhs_bb);
            let rv = self.lower_expr(rhs);
            let norm = self.new_temp();
            self.emit(Inst::Bin {
                dst: norm,
                op: BinOp::CmpNe,
                a: rv,
                b: Value::Int(0),
            });
            self.emit(Inst::Store {
                slot: result.clone(),
                value: Value::Temp(norm),
                volatile: false,
            });
            self.terminate(Terminator::Jump(join));
            self.switch_to(join);
            let dst = self.new_temp();
            self.emit(Inst::Load {
                dst,
                slot: result,
                volatile: false,
            });
            return Value::Temp(dst);
        }
        let a = self.lower_expr(lhs);
        let b = self.lower_expr(rhs);
        let dst = self.new_temp();
        self.emit(Inst::Bin {
            dst,
            op: ir_binop(op),
            a,
            b,
        });
        Value::Temp(dst)
    }

    fn lower_assign(
        &mut self,
        op: Option<c::BinaryOp>,
        lhs: impl ExprRef<'a>,
        rhs: impl ExprRef<'a>,
    ) -> Value {
        let lhs = lhs.resolve(self.ast);

        let rhs = rhs.resolve(self.ast);
        let rv = self.lower_expr(rhs);
        // Compute the stored value (compound ops read the target first).
        let lhs_plain = lhs.unparenthesized(self.ast);
        match &lhs_plain.kind {
            c::ExprKind::Ident(_) | c::ExprKind::Member { .. } => {
                let slot = self
                    .slot_of(lhs_plain)
                    .unwrap_or_else(|| self.intern("anon.lhs"));
                let volatile = self.volatile_slots.contains(&slot);
                let value = match op {
                    None => rv,
                    Some(bop) => {
                        let old = self.new_temp();
                        self.emit(Inst::Load {
                            dst: old,
                            slot: slot.clone(),
                            volatile,
                        });
                        let dst = self.new_temp();
                        self.emit(Inst::Bin {
                            dst,
                            op: ir_binop(bop),
                            a: Value::Temp(old),
                            b: rv,
                        });
                        Value::Temp(dst)
                    }
                };
                self.emit(Inst::Store {
                    slot,
                    value: value.clone(),
                    volatile,
                });
                value
            }
            c::ExprKind::Index { base, index } => {
                let idx = self.lower_expr(index);
                let slot = self
                    .slot_of(base)
                    .unwrap_or_else(|| self.intern("anon.arr"));
                let value = match op {
                    None => rv,
                    Some(bop) => {
                        let old = self.new_temp();
                        self.emit(Inst::LoadIdx {
                            dst: old,
                            base: slot.clone(),
                            index: idx.clone(),
                        });
                        let dst = self.new_temp();
                        self.emit(Inst::Bin {
                            dst,
                            op: ir_binop(bop),
                            a: Value::Temp(old),
                            b: rv,
                        });
                        Value::Temp(dst)
                    }
                };
                self.emit(Inst::StoreIdx {
                    base: slot,
                    index: idx,
                    value: value.clone(),
                });
                value
            }
            c::ExprKind::Unary {
                op: c::UnaryOp::Deref,
                operand,
            } => {
                let ptr = self.lower_expr(operand);
                let value = match op {
                    None => rv,
                    Some(bop) => {
                        let old = self.new_temp();
                        self.emit(Inst::LoadPtr {
                            dst: old,
                            ptr: ptr.clone(),
                        });
                        let dst = self.new_temp();
                        self.emit(Inst::Bin {
                            dst,
                            op: ir_binop(bop),
                            a: Value::Temp(old),
                            b: rv,
                        });
                        Value::Temp(dst)
                    }
                };
                self.emit(Inst::StorePtr {
                    ptr,
                    value: value.clone(),
                });
                value
            }
            _ => {
                // Exotic l-values (casts of derefs, __imag targets, ...):
                // evaluate for effect.
                self.lower_expr(lhs_plain);
                self.feature(&[51]);
                rv
            }
        }
    }

    /// The memory slot named by an l-value expression, when it is directly
    /// nameable (identifier, member of identifier).
    fn slot_of(&mut self, e: impl ExprRef<'a>) -> Option<Name> {
        let e = e.resolve(self.ast);
        match &e.unparenthesized(self.ast).kind {
            c::ExprKind::Ident(n) => self.resolve_or_global(n),
            c::ExprKind::Member { base, member, .. } => {
                let b = self.slot_of(base)?;
                Some(self.member_slot(&b, member))
            }
            c::ExprKind::Index { base, index } => {
                // Nested arrays: fold constant indices into the slot name.
                let b = self.slot_of(base)?;
                let i = const_int_of(self.ast, index)?;
                Some(self.composite_slot(format_args!("{b}[{i}]")))
            }
            _ => None,
        }
    }

    /// The slot `base.member`.
    fn member_slot(&mut self, base: &str, member: &str) -> Name {
        self.composite_slot(format_args!("{base}.{member}"))
    }

    /// Interns a slot name spelled from parts.
    fn composite_slot(&mut self, parts: std::fmt::Arguments<'_>) -> Name {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let _ = buf.write_fmt(parts);
        let slot = self.intern(&buf);
        self.buf = buf;
        slot
    }

    fn resolve_or_global(&mut self, name: &str) -> Option<Name> {
        if let Some(slot) = self.resolve(name) {
            return Some(slot);
        }
        // File-scope object?
        if self.sema.functions.contains_key(name) {
            None
        } else {
            Some(self.intern(name))
        }
    }
}

#[derive(Default)]
struct SwitchPlan {
    cases: Vec<i64>,
    has_default: bool,
}

struct SwitchLowerCtx {
    case_blocks: FxHashMap<i64, BlockId>,
    default_bb: Option<BlockId>,
}

fn collect_switch_labels(ast: &c::Ast, s: &c::Stmt, plan: &mut SwitchPlan) {
    match &s.kind {
        c::StmtKind::Compound(items) => {
            for item in items {
                if let c::BlockItem::Stmt(st) = item {
                    collect_switch_labels(ast, st, plan);
                }
            }
        }
        c::StmtKind::Case { expr, stmt } => {
            plan.cases.push(
                const_int_of(ast, expr)
                    .or_else(|| eval_via_sema(ast, expr))
                    .unwrap_or(0),
            );
            collect_switch_labels(ast, stmt, plan);
        }
        c::StmtKind::Default { stmt } => {
            plan.has_default = true;
            collect_switch_labels(ast, stmt, plan);
        }
        // Nested switches own their labels; other statements cannot carry
        // this switch's labels in our subset.
        _ => {}
    }
}

/// Best-effort constant evaluation for case labels that are not literals
/// (enum constants are resolved during lowering via the sema tables; this
/// fallback handles simple arithmetic).
fn eval_via_sema<'a>(ast: &'a c::Ast, e: impl ExprRef<'a>) -> Option<i64> {
    let e = e.resolve(ast);
    match &e.kind {
        c::ExprKind::Binary { op, lhs, rhs } => {
            let a = eval_via_sema(ast, lhs).or_else(|| const_int_of(ast, lhs))?;
            let b = eval_via_sema(ast, rhs).or_else(|| const_int_of(ast, rhs))?;
            Some(match op {
                c::BinaryOp::Add => a.wrapping_add(b),
                c::BinaryOp::Sub => a.wrapping_sub(b),
                c::BinaryOp::Mul => a.wrapping_mul(b),
                _ => return None,
            })
        }
        _ => const_int_of(ast, e),
    }
}

fn ir_binop(op: c::BinaryOp) -> BinOp {
    use c::BinaryOp as B;
    match op {
        B::Add => BinOp::Add,
        B::Sub => BinOp::Sub,
        B::Mul => BinOp::Mul,
        B::Div => BinOp::Div,
        B::Rem => BinOp::Rem,
        B::Shl => BinOp::Shl,
        B::Shr => BinOp::Shr,
        B::BitAnd => BinOp::And,
        B::BitXor => BinOp::Xor,
        B::BitOr => BinOp::Or,
        B::Lt => BinOp::CmpLt,
        B::Le => BinOp::CmpLe,
        B::Gt => BinOp::CmpGt,
        B::Ge => BinOp::CmpGe,
        B::Eq => BinOp::CmpEq,
        B::Ne => BinOp::CmpNe,
        B::LogAnd | B::LogOr => BinOp::And, // handled before via control flow
    }
}

fn operand_code(v: &Value) -> u64 {
    match v {
        Value::Temp(_) => 1,
        Value::Int(x) => 2 + ((*x == 0) as u64),
        Value::Float(_) => 4,
        Value::Slot(_) => 5,
        Value::Str(_) => 6,
        Value::Undef => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::compile;

    fn lower_src(src: &str) -> Lowered {
        let (ast, sema) = compile(src).expect("test source compiles");
        lower(&ast, &sema)
    }

    #[test]
    fn lowers_arithmetic() {
        let l = lower_src("int f(int a, int b) { return a * b + 1; }");
        let f = l.module.function("f").unwrap();
        assert!(f.inst_count() >= 3);
        assert!(f.returns_value);
        assert!(!l.features.is_empty());
    }

    #[test]
    fn lowers_control_flow() {
        let l = lower_src(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i % 2) s += i; } return s; }",
        );
        let f = l.module.function("f").unwrap();
        // Entry + for header/body/latch/exit + if blocks + dead after return.
        assert!(f.blocks.len() >= 7, "blocks: {}", f.blocks.len());
        let reach = f.reachable();
        assert!(reach.iter().filter(|r| **r).count() >= 6);
    }

    #[test]
    fn lowers_switch() {
        let l = lower_src(
            "int f(int n) { switch (n) { case 1: return 10; case 2: return 20; default: return 0; } }",
        );
        let f = l.module.function("f").unwrap();
        let has_switch = f
            .blocks
            .iter()
            .any(|b| matches!(&b.term, Terminator::Switch { cases, .. } if cases.len() == 2));
        assert!(has_switch, "{}", l.module);
    }

    #[test]
    fn lowers_short_circuit() {
        let l = lower_src("int f(int a, int b) { return a && b; }");
        let f = l.module.function("f").unwrap();
        assert!(f.blocks.len() >= 4, "{}", l.module);
    }

    #[test]
    fn lowers_goto() {
        let l = lower_src("int f(int n) { if (n) goto out; n = 1; out: return n; }");
        let f = l.module.function("f").unwrap();
        assert!(f.blocks.len() >= 4);
        // The label block must be reachable.
        let reach = f.reachable();
        assert!(reach.iter().filter(|r| **r).count() >= 4);
    }

    #[test]
    fn lowers_globals_and_arrays() {
        let l = lower_src("int g = 7; int a[4]; int f(int i) { a[i] = g; return a[0]; }");
        assert_eq!(l.module.globals.len(), 2);
        assert_eq!(l.module.globals[0], ("g".to_string(), Some(7)));
        let f = l.module.function("f").unwrap();
        let has_storeidx = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::StoreIdx { base, .. } if &**base == "a"));
        assert!(has_storeidx, "{}", l.module);
    }

    #[test]
    fn lowers_calls_and_void() {
        let l = lower_src("void log_it(int x) { } int f(int a) { log_it(a); return abs(a); }");
        let f = l.module.function("f").unwrap();
        let calls: Vec<&Inst> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 2);
        assert!(matches!(calls[0], Inst::Call { dst: None, .. }));
        assert!(matches!(calls[1], Inst::Call { dst: Some(_), .. }));
    }

    #[test]
    fn volatile_tracked() {
        let l = lower_src("int f(void) { volatile int v = 1; return v; }");
        let f = l.module.function("f").unwrap();
        let vol_load = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Load { volatile: true, .. }));
        assert!(vol_load, "{}", l.module);
    }

    #[test]
    fn shadowing_gets_distinct_slots() {
        let l = lower_src("int f(void) { int x = 1; { int x = 2; x = 3; } return x; }");
        let f = l.module.function("f").unwrap();
        let stores: Vec<Name> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Store { slot, .. } => Some(slot.clone()),
                _ => None,
            })
            .collect();
        let unique: std::collections::HashSet<&Name> = stores.iter().collect();
        assert_eq!(stores.len(), 3);
        assert_eq!(unique.len(), 2, "{stores:?}");
    }

    #[test]
    fn ternary_and_member() {
        let l = lower_src(
            "struct P { int x; }; int f(struct P p, int c) { p.x = c ? 1 : 2; return p.x; }",
        );
        let f = l.module.function("f").unwrap();
        assert!(f.inst_count() >= 5);
    }
}
