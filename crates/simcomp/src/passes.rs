//! The optimization pipeline: constant folding, dead-code elimination,
//! CFG simplification, inlining, a sprintf→strlen strength reduction, and
//! loop analysis with a model "vectorizer" — the passes whose real-world
//! counterparts the paper's bugs live in (GCC #111820's loop vectorizer,
//! the strlen optimization of §5.2's crash case, …).

use crate::coverage::feature_hash;
use crate::ir::*;
use metamut_lang::fxhash::{FxHashMap, FxHashSet};

/// Optimization flags beyond the level (macro-fuzzer enhancement #1 samples
/// these).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptFlags {
    /// `-fno-tree-vrp`: disables value-range pruning in loop analysis.
    pub no_tree_vrp: bool,
    /// `-funroll-loops`: more aggressive unrolling decisions.
    pub unroll_loops: bool,
    /// `-fstrict-aliasing` (default at O2 in real compilers).
    pub strict_aliasing: bool,
}

/// A loop discovered by loop analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// Function containing the loop.
    pub function: String,
    /// Header block.
    pub header: BlockId,
    /// Blocks in the loop body (approximate natural-loop membership).
    pub body_blocks: usize,
    /// Estimated trip count class.
    pub trip: TripCount,
    /// Number of store instructions in the body.
    pub stores: usize,
    /// Whether the model vectorizer chose to vectorize it.
    pub vectorized: bool,
    /// Whether the induction variable steps downward.
    pub descending: bool,
    /// Whether the induction variable starts at zero.
    pub starts_at_zero: bool,
}

/// Trip-count estimate classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripCount {
    /// Statically known and small.
    Constant(i64),
    /// Bounded but unknown.
    Unknown,
    /// The analysis concluded the loop never terminates normally.
    Infinite,
}

/// Report of one optimization run.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Coverage features observed by the passes.
    pub features: Vec<u64>,
    /// (pass name, number of changes) in execution order.
    pub pass_stats: Vec<(&'static str, usize)>,
    /// Loops discovered by loop analysis.
    pub loops: Vec<LoopInfo>,
    /// Calls strength-reduced by the sprintf→strlen pass, as
    /// (function, self_referential, const_buffer-ish) observations.
    pub strlen_reductions: Vec<(String, bool)>,
    /// Functions inlined away.
    pub inlined: usize,
}

impl OptReport {
    fn feat(&mut self, parts: &[u64]) {
        self.features.push(feature_hash(parts));
    }
}

/// Runs `f`, recording its wall time into the `pass_ms{<name>}` histogram
/// when telemetry is on (no `Instant::now` otherwise).
fn timed_pass<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = metamut_telemetry::handle()
        .enabled()
        .then(std::time::Instant::now);
    let out = f();
    if let Some(s) = start {
        metamut_telemetry::handle().observe(
            &metamut_telemetry::labeled("pass_ms", name),
            s.elapsed().as_secs_f64() * 1e3,
        );
    }
    out
}

/// Runs the pipeline at the given `-O` level.
///
/// With telemetry enabled, each pass's wall time is recorded into a
/// `pass_ms{<pass>}` histogram keyed by the same names as `pass_stats`.
pub fn optimize(module: &mut Module, opt_level: u8, flags: &OptFlags) -> OptReport {
    let mut report = OptReport::default();
    if opt_level == 0 {
        return report;
    }
    let folded = timed_pass("const-fold", || const_fold(module, &mut report));
    report.pass_stats.push(("const-fold", folded));
    let dce_removed = timed_pass("dce", || dead_code_elim(module, &mut report));
    report.pass_stats.push(("dce", dce_removed));
    if opt_level >= 2 {
        let merged = timed_pass("simplify-cfg", || simplify_cfg(module, &mut report));
        report.pass_stats.push(("simplify-cfg", merged));
        let inlined = timed_pass("inline", || inline_trivial(module, &mut report));
        report.pass_stats.push(("inline", inlined));
        report.inlined = inlined;
        let reduced = timed_pass("strlen-opt", || strlen_reduce(module, &mut report));
        report.pass_stats.push(("strlen-opt", reduced));
        // Fold and clean again after inlining.
        let folded2 = timed_pass("const-fold-2", || const_fold(module, &mut report));
        report.pass_stats.push(("const-fold-2", folded2));
        let dce2 = timed_pass("dce-2", || dead_code_elim(module, &mut report));
        report.pass_stats.push(("dce-2", dce2));
    }
    // Loop analysis runs at O2+; the vectorizer only at O3 (matching the
    // GCC bug's -O3 trigger).
    if opt_level >= 2 {
        timed_pass("loop-analysis", || {
            loop_analysis(module, opt_level, flags, &mut report)
        });
        report
            .pass_stats
            .push(("loop-analysis", report.loops.len()));
    }
    report
}

// ----------------------------------------------------------------------
// Constant folding
// ----------------------------------------------------------------------

fn fold_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    use BinOp::*;
    Some(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        Shl => a.wrapping_shl((b & 63) as u32),
        Shr => a.wrapping_shr((b & 63) as u32),
        And => a & b,
        Xor => a ^ b,
        Or => a | b,
        CmpLt => i64::from(a < b),
        CmpLe => i64::from(a <= b),
        CmpGt => i64::from(a > b),
        CmpGe => i64::from(a >= b),
        CmpEq => i64::from(a == b),
        CmpNe => i64::from(a != b),
    })
}

/// Folds constant expressions and propagates known temps; returns the number
/// of instructions folded.
pub fn const_fold(module: &mut Module, report: &mut OptReport) -> usize {
    let mut folded = 0;
    for f in &mut module.functions {
        folded += const_fold_fn(f, report);
    }
    folded
}

/// Per-function constant folding.
fn const_fold_fn(f: &mut IrFunction, report: &mut OptReport) -> usize {
    let mut folded = 0;
    {
        let mut known: FxHashMap<Temp, Value> = FxHashMap::default();
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                // Substitute known temps into operands first.
                for v in inst.uses_mut() {
                    if let Value::Temp(t) = v {
                        if let Some(k) = known.get(t) {
                            *v = k.clone();
                        }
                    }
                }
                match inst {
                    Inst::Bin { dst, op, a, b } => {
                        if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
                            if let Some(r) = fold_bin(*op, x, y) {
                                known.insert(*dst, Value::Int(r));
                                folded += 1;
                                report.feat(&[100, op.code(), (r == 0) as u64]);
                            }
                        }
                    }
                    Inst::Un { dst, op, a } => {
                        if let Some(x) = a.as_int() {
                            let r = match op {
                                UnOp::Neg => Some(x.wrapping_neg()),
                                UnOp::Not => Some(!x),
                                UnOp::LogNot => Some(i64::from(x == 0)),
                                UnOp::IntCast => Some(x),
                                UnOp::FloatCast => None,
                            };
                            if let Some(r) = r {
                                known.insert(*dst, Value::Int(r));
                                folded += 1;
                                report.feat(&[101, *op as u64]);
                            }
                        }
                    }
                    _ => {}
                }
            }
            // Fold branch conditions.
            if let Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } = &mut b.term
            {
                if let Value::Temp(t) = cond {
                    if let Some(k) = known.get(t) {
                        *cond = k.clone();
                    }
                }
                if let Some(c) = cond.as_int() {
                    let target = if c != 0 { *then_bb } else { *else_bb };
                    b.term = Terminator::Jump(target);
                    folded += 1;
                    report.feat(&[102, (c != 0) as u64]);
                }
            }
            if let Terminator::Return(Some(v)) = &mut b.term {
                if let Value::Temp(t) = v {
                    if let Some(k) = known.get(t) {
                        *v = k.clone();
                    }
                }
            }
            if let Terminator::Switch { value, .. } = &mut b.term {
                if let Value::Temp(t) = value {
                    if let Some(k) = known.get(t) {
                        *value = k.clone();
                    }
                }
            }
            // Constant switch dispatch.
            if let Terminator::Switch {
                value,
                cases,
                default,
            } = &b.term
            {
                if let Some(v) = value.as_int() {
                    let target = cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    b.term = Terminator::Jump(target);
                    folded += 1;
                    report.feat(&[103]);
                }
            }
        }
    }
    folded
}

// ----------------------------------------------------------------------
// Dead code elimination
// ----------------------------------------------------------------------

/// Removes unused pure instructions and unreachable blocks; returns the
/// number of instructions removed.
pub fn dead_code_elim(module: &mut Module, report: &mut OptReport) -> usize {
    let mut removed = 0;
    for f in &mut module.functions {
        removed += dead_code_elim_fn(f, report);
    }
    removed
}

/// Per-function DCE. The `[111]` feature carries the per-function removal
/// count.
fn dead_code_elim_fn(f: &mut IrFunction, report: &mut OptReport) -> usize {
    let mut removed = 0;
    {
        // Unreachable blocks become empty shells (keeping ids stable).
        let reach = f.reachable();
        for (idx, r) in reach.iter().enumerate() {
            let already_cleared = f.blocks[idx].insts.is_empty()
                && matches!(f.blocks[idx].term, Terminator::Unreachable);
            if !r && !already_cleared {
                removed += f.blocks[idx].insts.len();
                f.blocks[idx].insts.clear();
                f.blocks[idx].term = Terminator::Unreachable;
                report.feat(&[110]);
            }
        }
        // Fixpoint removal of unused pure defs.
        loop {
            let mut used: FxHashSet<Temp> = FxHashSet::default();
            for b in &f.blocks {
                for i in &b.insts {
                    for v in i.uses() {
                        if let Value::Temp(t) = v {
                            used.insert(*t);
                        }
                    }
                }
                match &b.term {
                    Terminator::Branch {
                        cond: Value::Temp(t),
                        ..
                    } => {
                        used.insert(*t);
                    }
                    Terminator::Return(Some(Value::Temp(t))) => {
                        used.insert(*t);
                    }
                    Terminator::Switch {
                        value: Value::Temp(t),
                        ..
                    } => {
                        used.insert(*t);
                    }
                    _ => {}
                }
            }
            let mut changed = false;
            for b in &mut f.blocks {
                let before = b.insts.len();
                b.insts.retain(|i| {
                    i.has_side_effects() || i.def().map(|d| used.contains(&d)).unwrap_or(true)
                });
                let delta = before - b.insts.len();
                if delta > 0 {
                    removed += delta;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if removed > 0 {
            report.feat(&[111, removed.min(16) as u64]);
        }
    }
    removed
}

// ----------------------------------------------------------------------
// CFG simplification
// ----------------------------------------------------------------------

/// Threads jumps through empty forwarding blocks and collapses
/// same-target branches; returns the number of rewrites.
pub fn simplify_cfg(module: &mut Module, report: &mut OptReport) -> usize {
    let mut changes = 0;
    for f in &mut module.functions {
        changes += simplify_cfg_fn(f, report);
    }
    changes
}

/// Per-function CFG simplification with a per-function `[121]` change count.
fn simplify_cfg_fn(f: &mut IrFunction, report: &mut OptReport) -> usize {
    let mut changes = 0;
    {
        // Forwarding map: empty block with a Jump terminator.
        let mut forward: FxHashMap<BlockId, BlockId> = FxHashMap::default();
        for b in &f.blocks {
            if b.insts.is_empty() {
                if let Terminator::Jump(t) = b.term {
                    if t != b.id {
                        forward.insert(b.id, t);
                    }
                }
            }
        }
        let resolve = |mut b: BlockId| {
            let mut hops = 0;
            while let Some(&n) = forward.get(&b) {
                b = n;
                hops += 1;
                if hops > 64 {
                    break; // cycle of empty blocks (infinite loop shell)
                }
            }
            b
        };
        for b in &mut f.blocks {
            match &mut b.term {
                Terminator::Jump(t) => {
                    let r = resolve(*t);
                    if r != *t {
                        *t = r;
                        changes += 1;
                    }
                }
                Terminator::Branch {
                    then_bb,
                    else_bb,
                    cond,
                } => {
                    let rt = resolve(*then_bb);
                    let re = resolve(*else_bb);
                    if rt != *then_bb || re != *else_bb {
                        changes += 1;
                    }
                    *then_bb = rt;
                    *else_bb = re;
                    if then_bb == else_bb {
                        let target = *then_bb;
                        let _ = cond;
                        b.term = Terminator::Jump(target);
                        changes += 1;
                        report.feat(&[120]);
                    }
                }
                Terminator::Switch { cases, default, .. } => {
                    for (_, t) in cases.iter_mut() {
                        let r = resolve(*t);
                        if r != *t {
                            *t = r;
                            changes += 1;
                        }
                    }
                    let r = resolve(*default);
                    if r != *default {
                        *default = r;
                        changes += 1;
                    }
                }
                _ => {}
            }
        }
        if changes > 0 {
            report.feat(&[121, changes.min(16) as u64]);
        }
    }
    changes
}

// ----------------------------------------------------------------------
// Trivial inlining
// ----------------------------------------------------------------------

/// Inlines calls to single-block, parameterless, non-recursive functions by
/// splicing their instructions; returns the number of inlined call sites.
pub fn inline_trivial(module: &mut Module, report: &mut OptReport) -> usize {
    // Identify trivial callees first.
    let trivial = trivial_bodies(module);
    let mut inlined = 0;
    for f in &mut module.functions {
        inlined += inline_trivial_fn(f, &trivial, report);
    }
    inlined
}

/// The trivial-callee map the inliner consults: every function whose body
/// qualifies under [`trivial_body_of`], keyed by name.
fn trivial_bodies(module: &Module) -> FxHashMap<String, (Vec<Inst>, Option<Value>)> {
    let mut trivial: FxHashMap<String, (Vec<Inst>, Option<Value>)> = FxHashMap::default();
    for f in &module.functions {
        if let Some(body) = trivial_body_of(f) {
            trivial.insert(f.name.clone(), body);
        }
    }
    trivial
}

/// Whether `f` is a trivial inline candidate: parameterless, exactly one
/// reachable block of at most four instructions, non-recursive, ending in a
/// plain return. Returns the spliceable body and return value when it is.
fn trivial_body_of(f: &IrFunction) -> Option<(Vec<Inst>, Option<Value>)> {
    if !f.params.is_empty() {
        return None;
    }
    // Exactly one *reachable* block (lowering appends dead shells).
    let reach = f.reachable();
    let reachable_count = reach.iter().filter(|r| **r).count();
    if reachable_count != 1 {
        return None;
    }
    let b = &f.blocks[0];
    if b.insts.len() > 4 {
        return None;
    }
    let recursive = b
        .insts
        .iter()
        .any(|i| matches!(i, Inst::Call { callee, .. } if *callee == f.name));
    if recursive {
        return None;
    }
    let ret = match &b.term {
        Terminator::Return(v) => v.clone(),
        _ => return None,
    };
    Some((b.insts.clone(), ret))
}

/// Splices trivial callee bodies into one function's call sites.
fn inline_trivial_fn(
    f: &mut IrFunction,
    trivial: &FxHashMap<String, (Vec<Inst>, Option<Value>)>,
    report: &mut OptReport,
) -> usize {
    let mut inlined = 0;
    {
        let base_temp = f.temp_count;
        let mut extra_temps = 0u32;
        for b in &mut f.blocks {
            let mut new_insts = Vec::with_capacity(b.insts.len());
            for inst in b.insts.drain(..) {
                match &inst {
                    Inst::Call { dst, callee, args }
                        if args.is_empty() && trivial.contains_key(callee) =>
                    {
                        let (body, ret) = &trivial[callee];
                        // Renumber callee temps into a fresh range.
                        let mut map: FxHashMap<Temp, Temp> = FxHashMap::default();
                        for bi in body {
                            let mut ni = bi.clone();
                            if let Some(d) = bi.def() {
                                let nt = Temp(base_temp + extra_temps);
                                extra_temps += 1;
                                map.insert(d, nt);
                                match &mut ni {
                                    Inst::Bin { dst, .. }
                                    | Inst::Un { dst, .. }
                                    | Inst::Load { dst, .. }
                                    | Inst::LoadIdx { dst, .. }
                                    | Inst::AddrOf { dst, .. }
                                    | Inst::LoadPtr { dst, .. } => *dst = nt,
                                    Inst::Call { dst, .. } => *dst = Some(nt),
                                    _ => {}
                                }
                            }
                            for u in ni.uses_mut() {
                                if let Value::Temp(t) = u {
                                    if let Some(nt) = map.get(t) {
                                        *u = Value::Temp(*nt);
                                    }
                                }
                            }
                            new_insts.push(ni);
                        }
                        // Bind the call result.
                        if let Some(d) = dst {
                            let rv = match ret {
                                Some(Value::Temp(t)) => map
                                    .get(t)
                                    .map(|nt| Value::Temp(*nt))
                                    .unwrap_or(Value::Undef),
                                Some(v) => v.clone(),
                                None => Value::Undef,
                            };
                            new_insts.push(Inst::Un {
                                dst: *d,
                                op: UnOp::IntCast,
                                a: rv,
                            });
                        }
                        inlined += 1;
                        report.feat(&[130, body.len() as u64]);
                    }
                    _ => new_insts.push(inst),
                }
            }
            b.insts = new_insts;
        }
        f.temp_count = base_temp + extra_temps;
    }
    inlined
}

// ----------------------------------------------------------------------
// sprintf → strlen strength reduction (the §5.2 crash-case pass)
// ----------------------------------------------------------------------

/// Models GCC's sprintf return-value optimization: `sprintf(dst, "%s", s)`
/// has its result replaced by `strlen(s)`. Records whether the copy is
/// self-referential (the shape that crashed GCC's verify_range).
pub fn strlen_reduce(module: &mut Module, report: &mut OptReport) -> usize {
    let mut reduced = 0;
    for f in &mut module.functions {
        reduced += strlen_reduce_fn(f, report);
    }
    reduced
}

/// Per-function sprintf→strlen strength reduction; observations land in
/// `report.strlen_reductions` in call-site order within the function.
fn strlen_reduce_fn(f: &mut IrFunction, report: &mut OptReport) -> usize {
    let mut reduced = 0;
    let mut observations = Vec::new();
    {
        for b in &mut f.blocks {
            for inst in &mut b.insts {
                let Inst::Call { dst, callee, args } = inst else {
                    continue;
                };
                if callee != "sprintf" || args.len() != 3 || dst.is_none() {
                    continue;
                }
                let Value::Str(fmt) = &args[1] else { continue };
                if fmt != "%s" {
                    continue;
                }
                let self_ref = args[0] == args[2];
                observations.push((f.name.clone(), self_ref));
                let src = args[2].clone();
                *inst = Inst::Call {
                    dst: *dst,
                    callee: "strlen".to_string(),
                    args: vec![src],
                };
                reduced += 1;
            }
        }
    }
    for (func, self_ref) in observations {
        report.feat(&[140, u64::from(self_ref)]);
        report.strlen_reductions.push((func, self_ref));
    }
    reduced
}

// ----------------------------------------------------------------------
// Loop analysis and the model vectorizer
// ----------------------------------------------------------------------

/// Discovers loops via back edges, estimates trip counts from the induction
/// pattern, and decides vectorization (at O3). Mirrors the pass where GCC
/// bug #111820 lives: a loop counting down from zero has its iteration count
/// miscomputed unless value-range pruning (`tree-vrp`) intervenes.
pub fn loop_analysis(module: &Module, opt_level: u8, flags: &OptFlags, report: &mut OptReport) {
    for f in &module.functions {
        loop_analysis_fn(f, opt_level, flags, report);
    }
}

/// Loop discovery and the model vectorizer for a single function.
fn loop_analysis_fn(f: &IrFunction, opt_level: u8, flags: &OptFlags, report: &mut OptReport) {
    {
        let preds = f.predecessors();
        for b in &f.blocks {
            // Back edge heuristic: successor with a smaller id that can reach
            // us (structured lowering gives headers smaller ids than latches).
            for s in b.term.successors() {
                if s.0 >= b.id.0 {
                    continue;
                }
                let header = s;
                if !preds.get(&b.id).map(|p| !p.is_empty()).unwrap_or(false) {
                    continue;
                }
                let body_blocks = (b.id.0 - header.0) as usize + 1;
                let mut stores = 0;
                let mut descending = false;
                let mut starts_at_zero = false;
                let mut bounded = false;
                for blk in &f.blocks[header.0 as usize..=b.id.0 as usize] {
                    for i in &blk.insts {
                        match i {
                            Inst::Store { .. } | Inst::StoreIdx { .. } | Inst::StorePtr { .. } => {
                                stores += 1
                            }
                            Inst::Bin {
                                op: BinOp::Sub,
                                b: Value::Int(1),
                                ..
                            } => descending = true,
                            Inst::Bin {
                                op,
                                b: Value::Int(_),
                                ..
                            } if op.is_comparison() => bounded = true,
                            _ => {}
                        }
                    }
                }
                // Induction start: a store of constant 0 to some slot right
                // before the header, approximated by scanning header preds.
                for p in preds.get(&header).into_iter().flatten() {
                    if p.0 > header.0 {
                        continue; // the latch
                    }
                    for i in &f.blocks[p.0 as usize].insts {
                        if let Inst::Store {
                            value: Value::Int(0),
                            ..
                        } = i
                        {
                            starts_at_zero = true;
                        }
                    }
                }
                // Counting down from zero: 0, -1, -2, ... — "infinite"
                // unless range analysis proves otherwise.
                let trip = if descending && starts_at_zero && !bounded {
                    TripCount::Infinite
                } else {
                    TripCount::Unknown
                };
                let vectorized = opt_level >= 3
                    && stores >= 4
                    && (flags.unroll_loops || !matches!(trip, TripCount::Constant(_)));
                report.feat(&[
                    150,
                    body_blocks.min(8) as u64,
                    stores.min(16) as u64,
                    u64::from(descending),
                    u64::from(vectorized),
                ]);
                report.loops.push(LoopInfo {
                    function: f.name.clone(),
                    header,
                    body_blocks,
                    trip,
                    stores,
                    vectorized,
                    descending,
                    starts_at_zero,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use metamut_lang::compile;

    fn build(src: &str) -> Module {
        let (ast, sema) = compile(src).expect("source compiles");
        lower(&ast, &sema).module
    }

    #[test]
    fn const_fold_folds_arith_and_branches() {
        let mut m = build("int f(void) { int x = 2 * 3 + 1; if (1) return x; return 0; }");
        let mut r = OptReport::default();
        let folded = const_fold(&mut m, &mut r);
        assert!(folded >= 2, "folded {folded}");
        // The branch on constant 1 became a jump.
        let f = m.function("f").unwrap();
        let const_branches = f
            .blocks
            .iter()
            .filter(|b| matches!(&b.term, Terminator::Branch { cond, .. } if cond.is_const()))
            .count();
        assert_eq!(const_branches, 0);
    }

    #[test]
    fn dce_removes_dead_math() {
        let mut m = build("int f(int a) { int unused = a * 42; return a; }");
        let mut r = OptReport::default();
        let f0 = m.function("f").unwrap().inst_count();
        // The store to `unused` has side effects in our model, but the dead
        // multiply feeding nothing after const-prop is removable once the
        // store is the only use. Fold first, then check DCE runs cleanly.
        const_fold(&mut m, &mut r);
        let removed = dead_code_elim(&mut m, &mut r);
        let f1 = m.function("f").unwrap().inst_count();
        assert!(f1 <= f0);
        let _ = removed;
    }

    #[test]
    fn dce_clears_unreachable_blocks() {
        let mut m = build("int f(void) { return 1; if (2) return 3; return 4; }");
        let mut r = OptReport::default();
        const_fold(&mut m, &mut r);
        dead_code_elim(&mut m, &mut r);
        let f = m.function("f").unwrap();
        let reach = f.reachable();
        for (i, blk) in f.blocks.iter().enumerate() {
            if !reach[i] {
                assert!(blk.insts.is_empty(), "unreachable block not cleared");
            }
        }
    }

    #[test]
    fn simplify_threads_jumps() {
        let mut m = build("int f(int a) { if (a) { } else { } return a; }");
        let mut r = OptReport::default();
        let changes = simplify_cfg(&mut m, &mut r);
        assert!(changes > 0);
        // The empty-branch if now jumps straight to the join.
        let f = m.function("f").unwrap();
        let same_target_branches = f
            .blocks
            .iter()
            .filter(|b| matches!(&b.term, Terminator::Branch { then_bb, else_bb, .. } if then_bb == else_bb))
            .count();
        assert_eq!(same_target_branches, 0);
    }

    #[test]
    fn inline_splices_trivial_callee() {
        let mut m = build(
            "int g_val = 3; int get(void) { return g_val; } int f(void) { return get() + get(); }",
        );
        let mut r = OptReport::default();
        let inlined = inline_trivial(&mut m, &mut r);
        assert_eq!(inlined, 2);
        let f = m.function("f").unwrap();
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { .. }))
            .count();
        assert_eq!(calls, 0, "calls remain after inlining");
    }

    #[test]
    fn strlen_reduction_detects_self_sprintf() {
        let mut m =
            build("char buffer[32]; int t(void) { return sprintf(buffer, \"%s\", buffer); }");
        let mut r = OptReport::default();
        let n = strlen_reduce(&mut m, &mut r);
        assert_eq!(n, 1);
        assert_eq!(r.strlen_reductions.len(), 1);
        assert!(r.strlen_reductions[0].1, "self-reference not detected");
        let f = m.function("t").unwrap();
        let strlen_calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Call { callee, .. } if callee == "strlen"))
            .count();
        assert_eq!(strlen_calls, 1);
    }

    #[test]
    fn loop_analysis_finds_descending_zero_loop() {
        // The GCC #111820 shape: n starts at 0, while (--n) with self-adds.
        let src = r#"
int r; int r_0;
void f(void) {
    int n = 0;
    while (--n) {
        r_0 += r;
        r += r; r += r; r += r; r += r; r += r;
    }
}
"#;
        let mut m = build(src);
        let mut r = OptReport::default();
        loop_analysis(
            &m,
            3,
            &OptFlags {
                no_tree_vrp: true,
                ..Default::default()
            },
            &mut r,
        );
        let l = r
            .loops
            .iter()
            .find(|l| l.function == "f")
            .expect("loop found");
        assert!(l.descending, "{l:?}");
        assert!(l.starts_at_zero, "{l:?}");
        assert_eq!(l.trip, TripCount::Infinite, "{l:?}");
        assert!(l.stores >= 4, "{l:?}");
        assert!(l.vectorized, "{l:?}");
        let _ = &mut m;
    }

    #[test]
    fn full_pipeline_runs_per_level() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }";
        for level in 0..=3u8 {
            let mut m = build(src);
            let report = optimize(&mut m, level, &OptFlags::default());
            if level == 0 {
                assert!(report.pass_stats.is_empty());
            } else {
                assert!(!report.pass_stats.is_empty());
            }
            if level >= 2 {
                assert!(!report.loops.is_empty(), "level {level} found no loops");
            }
        }
    }
}
