//! Three-address intermediate representation with explicit basic blocks.
//!
//! The IR is deliberately conventional — temporaries, loads/stores against
//! named slots, block terminators — so the optimization passes and the back
//! end exercise the same kinds of invariants real middle ends do.

use std::fmt;
use std::sync::Arc;

/// A slot or callee name. Lowering interns names, so every instruction
/// naming one slot shares one allocation.
pub type Name = Arc<str>;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Temp(pub u32);

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%t{}", self.0)
    }
}

/// A basic-block id within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Operand values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A temporary produced by an earlier instruction.
    Temp(Temp),
    /// An integer constant.
    Int(i64),
    /// A floating constant.
    Float(f64),
    /// The address of (or value in) a named memory slot.
    Slot(Name),
    /// The address of a string constant.
    Str(String),
    /// An undefined value (e.g. reading an uninitialized object).
    Undef,
}

impl Value {
    /// Whether this is a compile-time constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// The temp, if this is one.
    pub fn as_temp(&self) -> Option<Temp> {
        match self {
            Value::Temp(t) => Some(*t),
            _ => None,
        }
    }

    /// The integer constant value, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Temp(t) => write!(f, "{t}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Slot(s) => write!(f, "@{s}"),
            Value::Str(s) => write!(f, "str{:?}", s),
            Value::Undef => write!(f, "undef"),
        }
    }
}

/// IR binary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    And,
    /// `^`
    Xor,
    /// `|`
    Or,
    /// `<`
    CmpLt,
    /// `<=`
    CmpLe,
    /// `>`
    CmpGt,
    /// `>=`
    CmpGe,
    /// `==`
    CmpEq,
    /// `!=`
    CmpNe,
}

impl BinOp {
    /// Whether the op yields 0/1.
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(self, CmpLt | CmpLe | CmpGt | CmpGe | CmpEq | CmpNe)
    }

    /// A small stable opcode number for feature hashing.
    pub fn code(self) -> u64 {
        self as u64
    }
}

/// IR unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Logical not (`== 0`).
    LogNot,
    /// Truncate/extend between integer widths (modelled coarsely).
    IntCast,
    /// Int ↔ float conversion.
    FloatCast,
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = a <op> b`
    Bin {
        /// Result temp.
        dst: Temp,
        /// Opcode.
        op: BinOp,
        /// Left operand.
        a: Value,
        /// Right operand.
        b: Value,
    },
    /// `dst = <op> a`
    Un {
        /// Result temp.
        dst: Temp,
        /// Opcode.
        op: UnOp,
        /// Operand.
        a: Value,
    },
    /// `dst = load slot`
    Load {
        /// Result temp.
        dst: Temp,
        /// Loaded slot name.
        slot: Name,
        /// Whether the slot is volatile-qualified.
        volatile: bool,
    },
    /// `store slot, v`
    Store {
        /// Target slot name.
        slot: Name,
        /// Stored value.
        value: Value,
        /// Whether the slot is volatile-qualified.
        volatile: bool,
    },
    /// `dst = load_idx base[idx]`
    LoadIdx {
        /// Result temp.
        dst: Temp,
        /// Base slot.
        base: Name,
        /// Element index.
        index: Value,
    },
    /// `store_idx base[idx], v`
    StoreIdx {
        /// Base slot.
        base: Name,
        /// Element index.
        index: Value,
        /// Stored value.
        value: Value,
    },
    /// `dst = addr_of slot`
    AddrOf {
        /// Result temp.
        dst: Temp,
        /// Slot whose address is taken.
        slot: Name,
    },
    /// `dst = load_ptr p`
    LoadPtr {
        /// Result temp.
        dst: Temp,
        /// Pointer value.
        ptr: Value,
    },
    /// `store_ptr p, v`
    StorePtr {
        /// Pointer value.
        ptr: Value,
        /// Stored value.
        value: Value,
    },
    /// `dst = call f(args...)` (dst unused for void calls)
    Call {
        /// Result temp, when the callee returns a value.
        dst: Option<Temp>,
        /// Callee name.
        callee: Name,
        /// Arguments.
        args: Vec<Value>,
    },
}

impl Inst {
    /// The temp this instruction defines, if any.
    pub fn def(&self) -> Option<Temp> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::LoadIdx { dst, .. }
            | Inst::AddrOf { dst, .. }
            | Inst::LoadPtr { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::StoreIdx { .. } | Inst::StorePtr { .. } => None,
        }
    }

    /// Whether removing this instruction could change observable behavior.
    pub fn has_side_effects(&self) -> bool {
        match self {
            Inst::Store { .. }
            | Inst::StoreIdx { .. }
            | Inst::StorePtr { .. }
            | Inst::Call { .. } => true,
            Inst::Load { volatile, .. } => *volatile,
            _ => false,
        }
    }

    /// Values read by this instruction, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = &Value> {
        let (fixed, args): ([Option<&Value>; 2], &[Value]) = match self {
            Inst::Bin { a, b, .. } => ([Some(a), Some(b)], &[]),
            Inst::Un { a, .. } => ([Some(a), None], &[]),
            Inst::Load { .. } | Inst::AddrOf { .. } => ([None, None], &[]),
            Inst::Store { value, .. } => ([Some(value), None], &[]),
            Inst::LoadIdx { index, .. } => ([Some(index), None], &[]),
            Inst::StoreIdx { index, value, .. } => ([Some(index), Some(value)], &[]),
            Inst::LoadPtr { ptr, .. } => ([Some(ptr), None], &[]),
            Inst::StorePtr { ptr, value } => ([Some(ptr), Some(value)], &[]),
            Inst::Call { args, .. } => ([None, None], args),
        };
        fixed.into_iter().flatten().chain(args)
    }

    /// Mutable access to the values read by this instruction, in operand
    /// order.
    pub fn uses_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        let (fixed, args): ([Option<&mut Value>; 2], &mut [Value]) = match self {
            Inst::Bin { a, b, .. } => ([Some(a), Some(b)], &mut []),
            Inst::Un { a, .. } => ([Some(a), None], &mut []),
            Inst::Load { .. } | Inst::AddrOf { .. } => ([None, None], &mut []),
            Inst::Store { value, .. } => ([Some(value), None], &mut []),
            Inst::LoadIdx { index, .. } => ([Some(index), None], &mut []),
            Inst::StoreIdx { index, value, .. } => ([Some(index), Some(value)], &mut []),
            Inst::LoadPtr { ptr, .. } => ([Some(ptr), None], &mut []),
            Inst::StorePtr { ptr, value } => ([Some(ptr), Some(value)], &mut []),
            Inst::Call { args, .. } => ([None, None], args),
        };
        fixed.into_iter().flatten().chain(args)
    }

    /// Temps read by this instruction, in operand order.
    pub fn used_temps(&self) -> impl Iterator<Item = Temp> + '_ {
        self.uses().filter_map(Value::as_temp)
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a value being nonzero.
    Branch {
        /// Condition value.
        cond: Value,
        /// Taken when nonzero.
        then_bb: BlockId,
        /// Taken when zero.
        else_bb: BlockId,
    },
    /// Multiway dispatch.
    Switch {
        /// Scrutinee.
        value: Value,
        /// (case value, target) pairs.
        cases: Vec<(i64, BlockId)>,
        /// Default target.
        default: BlockId,
    },
    /// Function return.
    Return(Option<Value>),
    /// Placeholder during construction; never valid in finished IR.
    Unreachable,
}

impl Terminator {
    /// All successor blocks: a switch's cases in order, then its default.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (cases, fixed): (&[(i64, BlockId)], [Option<BlockId>; 2]) = match self {
            Terminator::Jump(b) => (&[], [Some(*b), None]),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (&[], [Some(*then_bb), Some(*else_bb)]),
            Terminator::Switch { cases, default, .. } => (cases, [Some(*default), None]),
            Terminator::Return(_) | Terminator::Unreachable => (&[], [None, None]),
        };
        cases
            .iter()
            .map(|&(_, b)| b)
            .chain(fixed.into_iter().flatten())
    }

    /// The value this terminator reads: a branch condition, a switch
    /// scrutinee or a returned value.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Terminator::Branch { cond, .. } => Some(cond),
            Terminator::Switch { value, .. } => Some(value),
            Terminator::Return(v) => v.as_ref(),
            Terminator::Jump(_) | Terminator::Unreachable => None,
        }
    }

    /// Mutable access to the value this terminator reads.
    pub fn value_mut(&mut self) -> Option<&mut Value> {
        match self {
            Terminator::Branch { cond, .. } => Some(cond),
            Terminator::Switch { value, .. } => Some(value),
            Terminator::Return(v) => v.as_mut(),
            Terminator::Jump(_) | Terminator::Unreachable => None,
        }
    }

    /// The temp this terminator reads, if it reads one.
    pub fn used_temp(&self) -> Option<Temp> {
        self.value().and_then(Value::as_temp)
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block id.
    pub id: BlockId,
    /// Instructions in order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Source-level name.
    pub name: String,
    /// Parameter slot names in order.
    pub params: Vec<String>,
    /// Whether the function returns a value.
    pub returns_value: bool,
    /// All blocks; entry is `blocks[0]`.
    pub blocks: Vec<Block>,
    /// Number of temps allocated.
    pub temp_count: u32,
}

impl IrFunction {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Looks up a block by id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block lookup.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Total instruction count across blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// The blocks with an edge to `id`, in block order, once per edge.
    pub fn predecessors(&self, id: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.iter().flat_map(move |b| {
            b.term
                .successors()
                .filter(move |&s| s == id)
                .map(move |_| b.id)
        })
    }

    /// Blocks reachable from entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry()];
        while let Some(b) = stack.pop() {
            let idx = b.0 as usize;
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            stack.extend(self.blocks[idx].term.successors());
        }
        seen
    }
}

/// A lowered module: globals plus functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Global slot names with optional constant initializers.
    pub globals: Vec<(String, Option<i64>)>,
    /// Functions in source order.
    pub functions: Vec<IrFunction>,
}

impl Module {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&IrFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total instructions in the module.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (g, init) in &self.globals {
            match init {
                Some(v) => writeln!(f, "global @{g} = {v}")?,
                None => writeln!(f, "global @{g}")?,
            }
        }
        for func in &self.functions {
            writeln!(f, "fn {}({}):", func.name, func.params.join(", "))?;
            for b in &func.blocks {
                writeln!(f, "  {}:", b.id)?;
                for i in &b.insts {
                    writeln!(f, "    {i:?}")?;
                }
                writeln!(f, "    term {:?}", b.term)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fn() -> IrFunction {
        IrFunction {
            name: "f".into(),
            params: vec!["a".into()],
            returns_value: true,
            blocks: vec![
                Block {
                    id: BlockId(0),
                    insts: vec![
                        Inst::Load {
                            dst: Temp(0),
                            slot: "a".into(),
                            volatile: false,
                        },
                        Inst::Bin {
                            dst: Temp(1),
                            op: BinOp::Add,
                            a: Value::Temp(Temp(0)),
                            b: Value::Int(1),
                        },
                    ],
                    term: Terminator::Branch {
                        cond: Value::Temp(Temp(1)),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                Block {
                    id: BlockId(1),
                    insts: vec![],
                    term: Terminator::Return(Some(Value::Temp(Temp(1)))),
                },
                Block {
                    id: BlockId(2),
                    insts: vec![],
                    term: Terminator::Return(Some(Value::Int(0))),
                },
            ],
            temp_count: 2,
        }
    }

    #[test]
    fn successors_and_preds() {
        let f = tiny_fn();
        assert_eq!(
            f.block(BlockId(0)).term.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
        let preds = |b| f.predecessors(b).collect::<Vec<_>>();
        assert_eq!(preds(BlockId(1)), vec![BlockId(0)]);
        assert_eq!(preds(BlockId(2)), vec![BlockId(0)]);
        assert!(preds(BlockId(0)).is_empty());
    }

    #[test]
    fn operands_and_successors_come_in_order() {
        let call = Inst::Call {
            dst: None,
            callee: "g".into(),
            args: vec![Value::Temp(Temp(2)), Value::Int(1), Value::Temp(Temp(0))],
        };
        assert_eq!(call.used_temps().collect::<Vec<_>>(), [Temp(2), Temp(0)]);
        let store = Inst::StoreIdx {
            base: "a".into(),
            index: Value::Temp(Temp(1)),
            value: Value::Temp(Temp(3)),
        };
        assert_eq!(store.used_temps().collect::<Vec<_>>(), [Temp(1), Temp(3)]);
        let switch = Terminator::Switch {
            value: Value::Temp(Temp(5)),
            cases: vec![(1, BlockId(3)), (2, BlockId(1))],
            default: BlockId(2),
        };
        assert_eq!(
            switch.successors().collect::<Vec<_>>(),
            [BlockId(3), BlockId(1), BlockId(2)]
        );
        assert_eq!(switch.used_temp(), Some(Temp(5)));
        assert_eq!(Terminator::Return(None).successors().count(), 0);
    }

    #[test]
    fn reachability() {
        let mut f = tiny_fn();
        assert_eq!(f.reachable(), vec![true, true, true]);
        f.block_mut(BlockId(0)).term = Terminator::Jump(BlockId(1));
        assert_eq!(f.reachable(), vec![true, true, false]);
    }

    #[test]
    fn side_effects_and_defs() {
        let store = Inst::Store {
            slot: "g".into(),
            value: Value::Int(1),
            volatile: false,
        };
        assert!(store.has_side_effects());
        assert_eq!(store.def(), None);
        let add = Inst::Bin {
            dst: Temp(3),
            op: BinOp::Add,
            a: Value::Int(1),
            b: Value::Int(2),
        };
        assert!(!add.has_side_effects());
        assert_eq!(add.def(), Some(Temp(3)));
        let vload = Inst::Load {
            dst: Temp(4),
            slot: "v".into(),
            volatile: true,
        };
        assert!(vload.has_side_effects());
    }

    #[test]
    fn module_queries() {
        let m = Module {
            globals: vec![("g".into(), Some(3))],
            functions: vec![tiny_fn()],
        };
        assert!(m.function("f").is_some());
        assert!(m.function("nope").is_none());
        assert_eq!(m.inst_count(), 2);
        assert!(!m.to_string().is_empty());
    }
}
