//! The back end: instruction selection over a small virtual ISA and a
//! linear-scan register allocator with spilling — deep-pipeline code that
//! only well-formed, optimizer-surviving programs reach (which is why the
//! paper's back-end crashes are the rarest and most prized, Table 4).

use crate::coverage::{feature_hash, feature_hash_str};
use crate::ir::*;

/// A virtual machine instruction produced by instruction selection. Slot
/// and callee names borrow from the compiled [`Module`].
#[derive(Debug, Clone, PartialEq)]
pub enum AsmInst<'m> {
    /// Load an immediate into a register.
    LoadImm(u8, i64),
    /// Move between registers.
    Mov(u8, u8),
    /// Arithmetic/logic: `dst = a <op> b`.
    Alu(BinOp, u8, u8, u8),
    /// Memory read from a named slot.
    Ld(u8, &'m str),
    /// Memory write to a named slot.
    St(&'m str, u8),
    /// Indexed memory read (`"*"` for a pointer dereference).
    LdIdx(u8, &'m str, u8),
    /// Indexed memory write (`"*"` for a pointer dereference).
    StIdx(&'m str, u8, u8),
    /// The address of a named slot.
    AddrOf(u8, &'m str),
    /// Spill a register to a stack slot.
    Spill(u8, u32),
    /// Reload a register from a stack slot.
    Reload(u8, u32),
    /// Call a function.
    CallSym(&'m str, u8),
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
pub struct AsmOutput<'m> {
    /// Emitted instructions in order.
    pub insts: Vec<AsmInst<'m>>,
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
/// Codegen state (registers, spill slots, liveness) is function-local; one
/// [`RegAlloc`] is reset per function so its tables are allocated once.
pub fn codegen(module: &Module) -> AsmOutput<'_> {
    let mut out = AsmOutput::default();
    let mut regs = RegAlloc::default();
    for f in &module.functions {
        out.features.push(feature_hash_str(&f.name));
        codegen_function(f, &mut regs, &mut out);
    }
    out
}

/// Materialized operands that are not temps (an integer, a float, a slot
/// or string address, undef) each take a scratch register key, one per
/// class and instruction position modulo this span.
const SCRATCH_SPAN: usize = 1024;

/// Linear-scan register allocation over one function with [`NUM_REGS`]
/// registers. Keys are dense: temp `t` is key `t.0`; the scratch value of
/// class `c` at instruction `idx` is key `temps + c * span + idx % SCRATCH_SPAN`.
#[derive(Default)]
struct RegAlloc {
    /// Number of temp keys (largest temp id seen, plus one).
    temps: usize,
    /// Scratch keys per class: the function's instruction count, capped at
    /// [`SCRATCH_SPAN`].
    span: usize,
    /// Linear index of each temp's last read (`usize::MAX` when a
    /// terminator reads it); temps only.
    last_use: Vec<Option<usize>>,
    /// The register holding each key.
    reg_of: Vec<Option<u8>>,
    /// The stack slot a spilled temp waits in; temps only.
    spill_slot: Vec<Option<u32>>,
    free: Vec<u8>,
    /// (key, last use) of every key holding a register.
    live: Vec<(usize, usize)>,
    next_spill: u32,
    pressure_peak: usize,
}

impl RegAlloc {
    /// Resets the tables for `f` and computes its liveness approximation:
    /// the last use index of each temp across the linear instruction order
    /// (blocks concatenated).
    fn reset(&mut self, f: &IrFunction) {
        let insts = || f.blocks.iter().flat_map(|b| &b.insts);
        let term_temps = || f.blocks.iter().filter_map(|b| b.term.used_temp());
        let temps = insts()
            .flat_map(|i| i.used_temps().chain(i.def()))
            .chain(term_temps())
            .map(|t| t.0 as usize + 1)
            .max()
            .unwrap_or(0);
        self.temps = temps;
        self.span = insts().count().min(SCRATCH_SPAN);
        self.last_use.clear();
        self.last_use.resize(temps, None);
        self.reg_of.clear();
        self.reg_of.resize(temps + 4 * self.span, None);
        self.spill_slot.clear();
        self.spill_slot.resize(temps, None);
        self.free.clear();
        self.free.extend((0..NUM_REGS as u8).rev());
        self.live.clear();
        self.next_spill = 0;
        self.pressure_peak = 0;
        for (idx, inst) in insts().enumerate() {
            for t in inst.used_temps() {
                self.last_use[t.0 as usize] = Some(idx);
            }
            if let Some(d) = inst.def() {
                self.last_use[d.0 as usize].get_or_insert(idx);
            }
        }
        for t in term_temps() {
            self.last_use[t.0 as usize] = Some(usize::MAX);
        }
    }

    /// The register of `t`, if it holds one.
    fn reg(&self, t: Temp) -> Option<u8> {
        self.reg_of[t.0 as usize]
    }

    /// Gives `key` a register at instruction `idx`, first expiring every
    /// interval that ended before `idx` and, when no register is free,
    /// spilling the live interval that ends furthest away.
    fn alloc(&mut self, key: usize, idx: usize, out: &mut AsmOutput<'_>) -> u8 {
        let (reg_of, free) = (&mut self.reg_of, &mut self.free);
        self.live.retain(|&(k, end)| {
            if end < idx {
                if let Some(r) = reg_of[k].take() {
                    free.push(r);
                }
                false
            } else {
                true
            }
        });
        if let Some(r) = self.reg_of[key] {
            return r;
        }
        let end = self.last_use.get(key).copied().flatten().unwrap_or(idx);
        let r = match self.free.pop() {
            Some(r) => r,
            None => {
                let (victim_pos, _) = self
                    .live
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (_, e))| *e)
                    .expect("live nonempty when out of registers");
                let (victim, _) = self.live.swap_remove(victim_pos);
                let r = self.reg_of[victim].take().expect("victim has register");
                let slot = self.next_spill;
                self.next_spill += 1;
                // Scratch values are rematerialized, never reloaded.
                if victim < self.temps {
                    self.spill_slot[victim] = Some(slot);
                }
                out.insts.push(AsmInst::Spill(r, slot));
                out.spills += 1;
                out.features.push(feature_hash(&[200, slot.min(16) as u64]));
                r
            }
        };
        self.reg_of[key] = Some(r);
        self.live.push((key, end));
        self.pressure_peak = self.pressure_peak.max(self.live.len());
        r
    }

    /// Allocates `t`'s register at `idx`.
    fn def(&mut self, t: Temp, idx: usize, out: &mut AsmOutput<'_>) -> u8 {
        self.alloc(t.0 as usize, idx, out)
    }

    /// Gives the scratch value of `class` materialized at `idx` a register.
    fn scratch(&mut self, class: usize, idx: usize, out: &mut AsmOutput<'_>) -> u8 {
        let key = self.temps + class * self.span + idx % SCRATCH_SPAN;
        self.alloc(key, idx, out)
    }

    /// Puts operand `v` in a register at `idx`: reloads a spilled temp,
    /// loads a constant, slot address or undef into a scratch register.
    fn operand<'m>(&mut self, v: &'m Value, idx: usize, out: &mut AsmOutput<'m>) -> u8 {
        match v {
            Value::Temp(t) => {
                let key = t.0 as usize;
                let r = self.alloc(key, idx, out);
                if let Some(slot) = self.spill_slot[key].take() {
                    out.insts.push(AsmInst::Reload(r, slot));
                }
                r
            }
            Value::Int(c) => {
                let r = self.scratch(0, idx, out);
                out.insts.push(AsmInst::LoadImm(r, *c));
                r
            }
            Value::Float(fl) => {
                let r = self.scratch(1, idx, out);
                out.insts.push(AsmInst::LoadImm(r, fl.to_bits() as i64));
                r
            }
            Value::Slot(s) => {
                let r = self.scratch(2, idx, out);
                out.insts.push(AsmInst::Ld(r, s));
                r
            }
            Value::Str(s) => {
                let r = self.scratch(2, idx, out);
                out.insts.push(AsmInst::Ld(r, s));
                r
            }
            Value::Undef => {
                let r = self.scratch(3, idx, out);
                out.insts.push(AsmInst::LoadImm(r, 0));
                r
            }
        }
    }
}

fn codegen_function<'m>(f: &'m IrFunction, regs: &mut RegAlloc, out: &mut AsmOutput<'m>) {
    regs.reset(f);
    let mut idx = 0usize;
    for b in &f.blocks {
        out.insts.push(AsmInst::Label(b.id.0));
        for inst in &b.insts {
            match inst {
                Inst::Bin { dst, op, a, b: rhs } => {
                    let ra = regs.operand(a, idx, out);
                    let rb = regs.operand(rhs, idx, out);
                    let rd = regs.def(*dst, idx, out);
                    out.insts.push(AsmInst::Alu(*op, rd, ra, rb));
                    out.features.push(feature_hash(&[201, op.code()]));
                }
                Inst::Un { dst, op, a } => {
                    let ra = regs.operand(a, idx, out);
                    let rd = regs.def(*dst, idx, out);
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
                    let rd = regs.def(*dst, idx, out);
                    out.insts.push(AsmInst::Ld(rd, slot));
                }
                Inst::Store { slot, value, .. } => {
                    let rv = regs.operand(value, idx, out);
                    out.insts.push(AsmInst::St(slot, rv));
                }
                Inst::LoadIdx { dst, base, index } => {
                    let ri = regs.operand(index, idx, out);
                    let rd = regs.def(*dst, idx, out);
                    out.insts.push(AsmInst::LdIdx(rd, base, ri));
                    out.features.push(feature_hash(&[203]));
                }
                Inst::StoreIdx { base, index, value } => {
                    let ri = regs.operand(index, idx, out);
                    let rv = regs.operand(value, idx, out);
                    out.insts.push(AsmInst::StIdx(base, ri, rv));
                }
                Inst::AddrOf { dst, slot } => {
                    let rd = regs.def(*dst, idx, out);
                    out.insts.push(AsmInst::AddrOf(rd, slot));
                    out.features.push(feature_hash(&[204]));
                }
                Inst::LoadPtr { dst, ptr } => {
                    let rp = regs.operand(ptr, idx, out);
                    let rd = regs.def(*dst, idx, out);
                    out.insts.push(AsmInst::LdIdx(rd, "*", rp));
                }
                Inst::StorePtr { ptr, value } => {
                    let rp = regs.operand(ptr, idx, out);
                    let rv = regs.operand(value, idx, out);
                    out.insts.push(AsmInst::StIdx("*", rp, rv));
                }
                Inst::Call { dst, callee, args } => {
                    for a in args {
                        regs.operand(a, idx, out);
                    }
                    let rd = match dst {
                        Some(d) => regs.def(*d, idx, out),
                        None => 0,
                    };
                    out.insts.push(AsmInst::CallSym(callee, rd));
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
                let rc = cond.as_temp().and_then(|t| regs.reg(t)).unwrap_or(0);
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
    out.peak_pressure = out.peak_pressure.max(regs.pressure_peak);
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

    fn module(src: &str) -> Module {
        let (ast, sema) = compile(src).expect("source compiles");
        lower(&ast, &sema).module
    }

    #[test]
    fn emits_code_for_simple_fn() {
        let m = module("int f(int a, int b) { return a + b * 2; }");
        let out = codegen(&m);
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
        let m = module("int f(int a) { if (a) return 1; return 0; }");
        let out = codegen(&m);
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
        let m = module(&body);
        let out = codegen(&m);
        assert!(
            out.spills > 0 || out.peak_pressure >= NUM_REGS,
            "spills={} pressure={}",
            out.spills,
            out.peak_pressure
        );
    }

    #[test]
    fn calls_select_call_instructions() {
        let m = module("int f(void) { return abs(-3) + abs(4); }");
        let out = codegen(&m);
        let calls = out
            .insts
            .iter()
            .filter(|i| matches!(i, AsmInst::CallSym("abs", _)))
            .count();
        assert_eq!(calls, 2);
    }

    #[test]
    fn deterministic_output() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }";
        let (ma, mb) = (module(src), module(src));
        let (a, b) = (codegen(&ma), codegen(&mb));
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.spills, b.spills);
    }
}
