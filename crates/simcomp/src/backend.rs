//! The back end: instruction selection over a small virtual ISA and a
//! linear-scan register allocator with spilling — deep-pipeline code that
//! only well-formed, optimizer-surviving programs reach (which is why the
//! paper's back-end crashes are the rarest and most prized, Table 4).

use crate::coverage::{feature_hash, feature_hash_str};
use crate::ir::*;
use metamut_lang::fxhash::FxHashMap;

/// A virtual machine instruction produced by instruction selection.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmInst {
    /// Load an immediate into a register.
    LoadImm(u8, i64),
    /// Move between registers.
    Mov(u8, u8),
    /// Arithmetic/logic: `dst = a <op> b`.
    Alu(BinOp, u8, u8, u8),
    /// Memory read from a named slot.
    Ld(u8, String),
    /// Memory write to a named slot.
    St(String, u8),
    /// Indexed memory read.
    LdIdx(u8, String, u8),
    /// Indexed memory write.
    StIdx(String, u8, u8),
    /// Spill a register to a stack slot.
    Spill(u8, u32),
    /// Reload a register from a stack slot.
    Reload(u8, u32),
    /// Call a function.
    CallSym(String, u8),
    /// Conditional jump (register, target label).
    Jnz(u8, u32),
    /// Unconditional jump.
    Jmp(u32),
    /// Return.
    Ret,
    /// Block label marker.
    Label(u32),
}

/// The assembled output of one compilation.
#[derive(Debug, Clone, Default)]
pub struct AsmOutput {
    /// Emitted instructions in order.
    pub insts: Vec<AsmInst>,
    /// Number of spill/reload pairs inserted by register allocation.
    pub spills: usize,
    /// Peak live temporaries across all functions.
    pub peak_pressure: usize,
    /// Coverage features observed during code generation.
    pub features: Vec<u64>,
}

/// Number of allocatable registers in the virtual ISA.
pub const NUM_REGS: usize = 8;

/// Runs instruction selection and register allocation over a module.
pub fn codegen(module: &Module) -> AsmOutput {
    let mut out = AsmOutput::default();
    for f in &module.functions {
        merge_asm(&mut out, codegen_one(f));
    }
    out
}

/// Code generation for a single function into a fresh output. Codegen
/// state (registers, spill slots, liveness) is entirely function-local, so
/// whole-module [`codegen`] is the in-order merge of these partials.
fn codegen_one(f: &IrFunction) -> AsmOutput {
    let mut out = AsmOutput::default();
    out.features.push(feature_hash_str(&f.name));
    codegen_function(f, &mut out);
    out
}

/// Appends one function's partial output onto an accumulating module output.
fn merge_asm(out: &mut AsmOutput, part: AsmOutput) {
    out.insts.extend(part.insts);
    out.spills += part.spills;
    out.peak_pressure = out.peak_pressure.max(part.peak_pressure);
    out.features.extend(part.features);
}

fn codegen_function(f: &IrFunction, out: &mut AsmOutput) {
    // Liveness approximation: last use index of each temp across the linear
    // instruction order (blocks concatenated).
    let mut order: Vec<(&Inst, BlockId)> = Vec::new();
    for b in &f.blocks {
        for i in &b.insts {
            order.push((i, b.id));
        }
    }
    let mut last_use: FxHashMap<Temp, usize> = FxHashMap::default();
    for (idx, (inst, _)) in order.iter().enumerate() {
        for v in inst.uses() {
            if let Value::Temp(t) = v {
                last_use.insert(*t, idx);
            }
        }
        if let Some(d) = inst.def() {
            last_use.entry(d).or_insert(idx);
        }
    }
    for b in &f.blocks {
        let term_uses: Vec<Temp> = match &b.term {
            Terminator::Branch {
                cond: Value::Temp(t),
                ..
            } => vec![*t],
            Terminator::Return(Some(Value::Temp(t))) => vec![*t],
            Terminator::Switch {
                value: Value::Temp(t),
                ..
            } => vec![*t],
            _ => vec![],
        };
        for t in term_uses {
            last_use.insert(t, usize::MAX);
        }
    }

    // Linear scan with NUM_REGS registers.
    let mut reg_of: FxHashMap<Temp, u8> = FxHashMap::default();
    let mut spill_slot: FxHashMap<Temp, u32> = FxHashMap::default();
    let mut free: Vec<u8> = (0..NUM_REGS as u8).rev().collect();
    let mut live: Vec<(Temp, usize)> = Vec::new(); // (temp, last use)
    let mut next_spill = 0u32;
    let mut pressure_peak = 0usize;

    let mut alloc = |t: Temp,
                     idx: usize,
                     free: &mut Vec<u8>,
                     live: &mut Vec<(Temp, usize)>,
                     reg_of: &mut FxHashMap<Temp, u8>,
                     spill_slot: &mut FxHashMap<Temp, u32>,
                     out: &mut AsmOutput|
     -> u8 {
        // Expire dead intervals.
        live.retain(|(lt, end)| {
            if *end < idx {
                if let Some(r) = reg_of.remove(lt) {
                    free.push(r);
                }
                false
            } else {
                true
            }
        });
        if let Some(r) = reg_of.get(&t) {
            return *r;
        }
        let end = last_use.get(&t).copied().unwrap_or(idx);
        let r = match free.pop() {
            Some(r) => r,
            None => {
                // Spill the interval that ends furthest away.
                let (victim_pos, _) = live
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (_, e))| *e)
                    .expect("live nonempty when out of registers");
                let (victim, _) = live.swap_remove(victim_pos);
                let r = reg_of.remove(&victim).expect("victim has register");
                let slot = next_spill;
                next_spill += 1;
                spill_slot.insert(victim, slot);
                out.insts.push(AsmInst::Spill(r, slot));
                out.spills += 1;
                out.features.push(feature_hash(&[200, slot.min(16) as u64]));
                r
            }
        };
        reg_of.insert(t, r);
        live.push((t, end));
        pressure_peak = pressure_peak.max(live.len());
        r
    };

    let mut idx = 0usize;
    for b in &f.blocks {
        out.insts.push(AsmInst::Label(b.id.0));
        for inst in &b.insts {
            // Materialize operands.
            let mut operand = |v: &Value,
                               free: &mut Vec<u8>,
                               live: &mut Vec<(Temp, usize)>,
                               reg_of: &mut FxHashMap<Temp, u8>,
                               spill_slot: &mut FxHashMap<Temp, u32>,
                               out: &mut AsmOutput|
             -> u8 {
                match v {
                    Value::Temp(t) => {
                        if let Some(slot) = spill_slot.get(t).copied() {
                            let r = alloc(*t, idx, free, live, reg_of, spill_slot, out);
                            out.insts.push(AsmInst::Reload(r, slot));
                            spill_slot.remove(t);
                            r
                        } else {
                            alloc(*t, idx, free, live, reg_of, spill_slot, out)
                        }
                    }
                    Value::Int(c) => {
                        let t = Temp(u32::MAX - (idx as u32 % 1024));
                        let r = alloc(t, idx, free, live, reg_of, spill_slot, out);
                        out.insts.push(AsmInst::LoadImm(r, *c));
                        r
                    }
                    Value::Float(fl) => {
                        let t = Temp(u32::MAX - 2048 - (idx as u32 % 1024));
                        let r = alloc(t, idx, free, live, reg_of, spill_slot, out);
                        out.insts.push(AsmInst::LoadImm(r, fl.to_bits() as i64));
                        r
                    }
                    Value::Slot(s) | Value::Str(s) => {
                        let t = Temp(u32::MAX - 4096 - (idx as u32 % 1024));
                        let r = alloc(t, idx, free, live, reg_of, spill_slot, out);
                        out.insts.push(AsmInst::Ld(r, s.clone()));
                        r
                    }
                    Value::Undef => {
                        let t = Temp(u32::MAX - 8192 - (idx as u32 % 1024));
                        let r = alloc(t, idx, free, live, reg_of, spill_slot, out);
                        out.insts.push(AsmInst::LoadImm(r, 0));
                        r
                    }
                }
            };
            match inst {
                Inst::Bin { dst, op, a, b: rhs } => {
                    let ra = operand(a, &mut free, &mut live, &mut reg_of, &mut spill_slot, out);
                    let rb = operand(rhs, &mut free, &mut live, &mut reg_of, &mut spill_slot, out);
                    let rd = alloc(
                        *dst,
                        idx,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::Alu(*op, rd, ra, rb));
                    out.features.push(feature_hash(&[201, op.code()]));
                }
                Inst::Un { dst, op, a } => {
                    let ra = operand(a, &mut free, &mut live, &mut reg_of, &mut spill_slot, out);
                    let rd = alloc(
                        *dst,
                        idx,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    // Unary ops select to ALU forms against an immediate.
                    let selected = match op {
                        UnOp::Neg => AsmInst::Alu(BinOp::Sub, rd, 0, ra),
                        UnOp::Not => AsmInst::Alu(BinOp::Xor, rd, ra, ra),
                        UnOp::LogNot => AsmInst::Alu(BinOp::CmpEq, rd, ra, ra),
                        UnOp::IntCast | UnOp::FloatCast => AsmInst::Mov(rd, ra),
                    };
                    out.insts.push(selected);
                    out.features.push(feature_hash(&[202, *op as u64]));
                }
                Inst::Load { dst, slot, .. } => {
                    let rd = alloc(
                        *dst,
                        idx,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::Ld(rd, slot.clone()));
                }
                Inst::Store { slot, value, .. } => {
                    let rv = operand(
                        value,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::St(slot.clone(), rv));
                }
                Inst::LoadIdx { dst, base, index } => {
                    let ri = operand(
                        index,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    let rd = alloc(
                        *dst,
                        idx,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::LdIdx(rd, base.clone(), ri));
                    out.features.push(feature_hash(&[203]));
                }
                Inst::StoreIdx { base, index, value } => {
                    let ri = operand(
                        index,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    let rv = operand(
                        value,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::StIdx(base.clone(), ri, rv));
                }
                Inst::AddrOf { dst, slot } => {
                    let rd = alloc(
                        *dst,
                        idx,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::Ld(rd, format!("&{slot}")));
                    out.features.push(feature_hash(&[204]));
                }
                Inst::LoadPtr { dst, ptr } => {
                    let rp = operand(ptr, &mut free, &mut live, &mut reg_of, &mut spill_slot, out);
                    let rd = alloc(
                        *dst,
                        idx,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::LdIdx(rd, "*".into(), rp));
                }
                Inst::StorePtr { ptr, value } => {
                    let rp = operand(ptr, &mut free, &mut live, &mut reg_of, &mut spill_slot, out);
                    let rv = operand(
                        value,
                        &mut free,
                        &mut live,
                        &mut reg_of,
                        &mut spill_slot,
                        out,
                    );
                    out.insts.push(AsmInst::StIdx("*".into(), rp, rv));
                }
                Inst::Call { dst, callee, args } => {
                    for a in args {
                        let _ = operand(a, &mut free, &mut live, &mut reg_of, &mut spill_slot, out);
                    }
                    let rd = match dst {
                        Some(d) => alloc(
                            *d,
                            idx,
                            &mut free,
                            &mut live,
                            &mut reg_of,
                            &mut spill_slot,
                            out,
                        ),
                        None => 0,
                    };
                    out.insts.push(AsmInst::CallSym(callee.clone(), rd));
                    out.features.push(feature_hash(&[
                        205,
                        args.len() as u64,
                        u64::from(dst.is_some()),
                    ]));
                }
            }
            idx += 1;
        }
        match &b.term {
            Terminator::Jump(t) => out.insts.push(AsmInst::Jmp(t.0)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let rc = match cond {
                    Value::Temp(t) => reg_of.get(t).copied().unwrap_or(0),
                    _ => 0,
                };
                out.insts.push(AsmInst::Jnz(rc, then_bb.0));
                out.insts.push(AsmInst::Jmp(else_bb.0));
                out.features.push(feature_hash(&[206]));
            }
            Terminator::Switch { cases, default, .. } => {
                // Dense switches select a jump table, sparse ones a chain.
                let dense = cases.len() >= 4;
                out.features.push(feature_hash(&[
                    207,
                    u64::from(dense),
                    cases.len().min(32) as u64,
                ]));
                for (_, t) in cases {
                    out.insts.push(AsmInst::Jnz(0, t.0));
                }
                out.insts.push(AsmInst::Jmp(default.0));
            }
            Terminator::Return(_) => out.insts.push(AsmInst::Ret),
            Terminator::Unreachable => {}
        }
    }
    out.peak_pressure = out.peak_pressure.max(pressure_peak);
    out.features.push(feature_hash(&[
        208,
        f.blocks.len().min(64) as u64,
        (f.temp_count / 8).min(32) as u64,
    ]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use metamut_lang::compile;

    fn gen(src: &str) -> AsmOutput {
        let (ast, sema) = compile(src).expect("source compiles");
        let m = lower(&ast, &sema).module;
        codegen(&m)
    }

    #[test]
    fn emits_code_for_simple_fn() {
        let out = gen("int f(int a, int b) { return a + b * 2; }");
        assert!(out.insts.len() > 5);
        assert!(out.insts.iter().any(|i| matches!(i, AsmInst::Ret)));
        assert!(out
            .insts
            .iter()
            .any(|i| matches!(i, AsmInst::Alu(BinOp::Mul, ..))));
        assert!(!out.features.is_empty());
    }

    #[test]
    fn branches_lower_to_jumps() {
        let out = gen("int f(int a) { if (a) return 1; return 0; }");
        assert!(out.insts.iter().any(|i| matches!(i, AsmInst::Jnz(..))));
        assert!(out.insts.iter().any(|i| matches!(i, AsmInst::Jmp(_))));
        assert!(out.insts.iter().any(|i| matches!(i, AsmInst::Label(_))));
    }

    #[test]
    fn register_pressure_triggers_spills() {
        // A right-nested expression keeps every left operand live while the
        // right subtree evaluates.
        let mut body = String::from("int f(int a) { int s = 0; ");
        for i in 0..14 {
            body.push_str(&format!("int v{i} = a + {i}; "));
        }
        body.push_str("s = ");
        for i in 0..14 {
            body.push_str(&format!("(v{i} + "));
        }
        body.push('a');
        for _ in 0..14 {
            body.push(')');
        }
        body.push_str("; return s; }");
        let out = gen(&body);
        assert!(
            out.spills > 0 || out.peak_pressure >= NUM_REGS,
            "spills={} pressure={}",
            out.spills,
            out.peak_pressure
        );
    }

    #[test]
    fn calls_select_call_instructions() {
        let out = gen("int f(void) { return abs(-3) + abs(4); }");
        let calls = out
            .insts
            .iter()
            .filter(|i| matches!(i, AsmInst::CallSym(name, _) if name == "abs"))
            .count();
        assert_eq!(calls, 2);
    }

    #[test]
    fn deterministic_output() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }";
        let a = gen(src);
        let b = gen(src);
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.spills, b.spills);
    }
}
