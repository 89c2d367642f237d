//! Abstract syntax tree for the C subset.
//!
//! Every node carries a [`NodeId`] (unique within one parse) and a [`Span`]
//! into the original source, so mutators can both reason about structure and
//! perform precise textual rewrites. The tree is deliberately close to
//! Clang's C AST shape (the system the paper's μAST layer wraps): compound
//! statements own block items, `case`/`default`/labels own their sub-
//! statement, and declarations preserve declarator grouping.

pub use crate::name::Name;
use crate::source::{SourceFile, Span};
use std::fmt;

/// A unique identifier for an AST node within one parsed translation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An expression's index in its unit's [`Ast::exprs`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

/// An expression given by reference or by arena id, so a recursive walker
/// can take whichever its caller holds.
pub trait ExprRef<'a> {
    /// The expression itself, looked up in `ast` if need be.
    fn resolve(self, ast: &'a Ast) -> &'a Expr;
}

impl<'a> ExprRef<'a> for &'a Expr {
    fn resolve(self, _: &'a Ast) -> &'a Expr {
        self
    }
}

impl<'a> ExprRef<'a> for &&'a Expr {
    fn resolve(self, _: &'a Ast) -> &'a Expr {
        self
    }
}

impl<'a> ExprRef<'a> for ExprId {
    fn resolve(self, ast: &'a Ast) -> &'a Expr {
        &ast[self]
    }
}

impl<'a> ExprRef<'a> for &ExprId {
    fn resolve(self, ast: &'a Ast) -> &'a Expr {
        &ast[*self]
    }
}

/// Storage-class specifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Storage {
    /// No explicit storage class.
    #[default]
    None,
    /// `static`
    Static,
    /// `extern`
    Extern,
    /// `register`
    Register,
    /// `auto`
    Auto,
}

impl Storage {
    /// The C spelling, or `""` for [`Storage::None`].
    pub fn spelling(self) -> &'static str {
        match self {
            Storage::None => "",
            Storage::Static => "static",
            Storage::Extern => "extern",
            Storage::Register => "register",
            Storage::Auto => "auto",
        }
    }
}

/// `const`/`volatile` qualifier set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Quals {
    /// `const`
    pub is_const: bool,
    /// `volatile`
    pub is_volatile: bool,
    /// `restrict` (pointers only)
    pub is_restrict: bool,
}

impl Quals {
    /// The empty qualifier set.
    pub const NONE: Quals = Quals {
        is_const: false,
        is_volatile: false,
        is_restrict: false,
    };

    /// Whether no qualifier is set.
    pub fn is_empty(self) -> bool {
        !self.is_const && !self.is_volatile && !self.is_restrict
    }

    /// Union of two qualifier sets.
    pub fn union(self, other: Quals) -> Quals {
        Quals {
            is_const: self.is_const || other.is_const,
            is_volatile: self.is_volatile || other.is_volatile,
            is_restrict: self.is_restrict || other.is_restrict,
        }
    }
}

impl fmt::Display for Quals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            f.write_str(s)
        };
        if self.is_const {
            put(f, "const")?;
        }
        if self.is_volatile {
            put(f, "volatile")?;
        }
        if self.is_restrict {
            put(f, "restrict")?;
        }
        Ok(())
    }
}

/// Base type specifiers as written in the source.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeSpecifier {
    /// `void`
    Void,
    /// plain `char`
    Char,
    /// `signed char`
    SChar,
    /// `unsigned char`
    UChar,
    /// `short` / `signed short`
    Short,
    /// `unsigned short`
    UShort,
    /// `int` / `signed`
    Int,
    /// `unsigned` / `unsigned int`
    UInt,
    /// `long`
    Long,
    /// `unsigned long`
    ULong,
    /// `long long`
    LongLong,
    /// `unsigned long long`
    ULongLong,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `long double`
    LongDouble,
    /// `_Bool`
    Bool,
    /// `float _Complex`
    ComplexFloat,
    /// `double _Complex`
    ComplexDouble,
    /// Reference to a struct tag: `struct S`
    Struct(Name),
    /// Reference to a union tag: `union U`
    Union(Name),
    /// Reference to an enum tag: `enum E`
    Enum(Name),
    /// A typedef name.
    Typedef(Name),
    /// Inline struct/union definition: `struct S { ... }`.
    RecordDef(Box<RecordDecl>),
    /// Inline enum definition: `enum E { ... }`.
    EnumDef(Box<EnumDecl>),
}

impl TypeSpecifier {
    /// Whether this is an arithmetic (integer or floating) specifier.
    pub fn is_arithmetic(&self) -> bool {
        use TypeSpecifier::*;
        matches!(
            self,
            Char | SChar
                | UChar
                | Short
                | UShort
                | Int
                | UInt
                | Long
                | ULong
                | LongLong
                | ULongLong
                | Float
                | Double
                | LongDouble
                | Bool
                | ComplexFloat
                | ComplexDouble
        )
    }
}

/// A syntactic type: specifier plus derived parts (pointers, arrays,
/// functions), mirroring the structure a C declarator denotes.
#[derive(Debug, Clone, PartialEq)]
pub enum TySyn {
    /// A base specifier with qualifiers.
    Base {
        /// The type specifier.
        spec: TypeSpecifier,
        /// Qualifiers applied at this level.
        quals: Quals,
    },
    /// A pointer to another type.
    Pointer {
        /// The pointee type.
        pointee: Box<TySyn>,
        /// Qualifiers on the pointer itself (`int * const p`).
        quals: Quals,
    },
    /// An array of another type.
    Array {
        /// Element type.
        elem: Box<TySyn>,
        /// The written size expression, if any (`int a[]` has none).
        size: Option<ExprId>,
    },
    /// A function type.
    Function {
        /// The return type.
        ret: Box<TySyn>,
        /// Parameter declarations.
        params: Vec<ParamDecl>,
        /// Whether the parameter list ends with `...`.
        variadic: bool,
    },
}

impl TySyn {
    /// Shorthand for a plain `int`.
    pub fn int() -> TySyn {
        TySyn::Base {
            spec: TypeSpecifier::Int,
            quals: Quals::NONE,
        }
    }

    /// Shorthand for `void`.
    pub fn void() -> TySyn {
        TySyn::Base {
            spec: TypeSpecifier::Void,
            quals: Quals::NONE,
        }
    }

    /// Whether the outermost constructor is a pointer.
    pub fn is_pointer(&self) -> bool {
        matches!(self, TySyn::Pointer { .. })
    }

    /// Whether the outermost constructor is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, TySyn::Array { .. })
    }

    /// Whether the outermost constructor is a function type.
    pub fn is_function(&self) -> bool {
        matches!(self, TySyn::Function { .. })
    }

    /// Whether this is syntactically `void` at the top level.
    pub fn is_void(&self) -> bool {
        matches!(
            self,
            TySyn::Base {
                spec: TypeSpecifier::Void,
                ..
            }
        )
    }

    /// Strips array/pointer derivations and returns the base specifier, if
    /// the innermost component is a base type.
    pub fn base_spec(&self) -> Option<&TypeSpecifier> {
        match self {
            TySyn::Base { spec, .. } => Some(spec),
            TySyn::Pointer { pointee, .. } => pointee.base_spec(),
            TySyn::Array { elem, .. } => elem.base_spec(),
            TySyn::Function { ret, .. } => ret.base_spec(),
        }
    }

    /// Counts top-level array dimensions (`int a[2][3]` has 2).
    pub fn array_rank(&self) -> usize {
        match self {
            TySyn::Array { elem, .. } => 1 + elem.array_rank(),
            _ => 0,
        }
    }
}

/// A named syntactic type as used in casts and `sizeof`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeName {
    /// Node id.
    pub id: NodeId,
    /// Span of the whole type name.
    pub span: Span,
    /// The denoted type.
    pub ty: TySyn,
}

/// Unary operators, including prefix/postfix increment and GNU `__real__`/
/// `__imag__`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `+x`
    Plus,
    /// `-x`
    Minus,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*x`
    Deref,
    /// `&x`
    AddrOf,
    /// `++x`
    PreInc,
    /// `--x`
    PreDec,
    /// `x++`
    PostInc,
    /// `x--`
    PostDec,
    /// `__real__ x`
    Real,
    /// `__imag__ x`
    Imag,
}

impl UnaryOp {
    /// Whether the operator is written after its operand.
    pub fn is_postfix(self) -> bool {
        matches!(self, UnaryOp::PostInc | UnaryOp::PostDec)
    }

    /// Whether the operator mutates its operand.
    pub fn is_inc_dec(self) -> bool {
        matches!(
            self,
            UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec
        )
    }

    /// The C spelling of the operator.
    pub fn spelling(self) -> &'static str {
        match self {
            UnaryOp::Plus => "+",
            UnaryOp::Minus => "-",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::Deref => "*",
            UnaryOp::AddrOf => "&",
            UnaryOp::PreInc | UnaryOp::PostInc => "++",
            UnaryOp::PreDec | UnaryOp::PostDec => "--",
            UnaryOp::Real => "__real__ ",
            UnaryOp::Imag => "__imag__ ",
        }
    }
}

/// Binary (non-assignment) operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinaryOp {
    /// The C spelling.
    pub fn spelling(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Mul => "*",
            Div => "/",
            Rem => "%",
            Add => "+",
            Sub => "-",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitXor => "^",
            BitOr => "|",
            LogAnd => "&&",
            LogOr => "||",
        }
    }

    /// Binding strength; larger binds tighter. Matches C's precedence table.
    pub fn precedence(self) -> u8 {
        use BinaryOp::*;
        match self {
            Mul | Div | Rem => 10,
            Add | Sub => 9,
            Shl | Shr => 8,
            Lt | Gt | Le | Ge => 7,
            Eq | Ne => 6,
            BitAnd => 5,
            BitXor => 4,
            BitOr => 3,
            LogAnd => 2,
            LogOr => 1,
        }
    }

    /// Whether this is a comparison producing `int` 0/1.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Lt | Gt | Le | Ge | Eq | Ne)
    }

    /// Whether this is `&&` or `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::LogAnd | BinaryOp::LogOr)
    }

    /// Whether this is an integer-only operator (`%`, shifts, bitwise).
    pub fn requires_integers(self) -> bool {
        use BinaryOp::*;
        matches!(self, Rem | Shl | Shr | BitAnd | BitXor | BitOr)
    }

    /// The comparison with swapped operand order (`<` ↔ `>`), if any.
    pub fn swapped_comparison(self) -> Option<BinaryOp> {
        use BinaryOp::*;
        Some(match self {
            Lt => Gt,
            Gt => Lt,
            Le => Ge,
            Ge => Le,
            Eq => Eq,
            Ne => Ne,
            _ => return None,
        })
    }

    /// The negated comparison (`<` ↔ `>=`), if any.
    pub fn negated_comparison(self) -> Option<BinaryOp> {
        use BinaryOp::*;
        Some(match self {
            Lt => Ge,
            Gt => Le,
            Le => Gt,
            Ge => Lt,
            Eq => Ne,
            Ne => Eq,
            _ => return None,
        })
    }
}

/// Expression nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Node id.
    pub id: NodeId,
    /// Source span of the whole expression.
    pub span: Span,
    /// The expression variant.
    pub kind: ExprKind,
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal with its decoded value.
    IntLit {
        /// Decoded value (sign-extended container).
        value: i128,
        /// Whether a `u`/`U` suffix was present.
        unsigned: bool,
        /// Number of `l`/`L` suffix characters (0, 1, or 2).
        longs: u8,
    },
    /// Floating literal with its decoded value.
    FloatLit {
        /// Decoded value.
        value: f64,
        /// Whether an `f`/`F` suffix was present.
        single: bool,
    },
    /// Character literal with its decoded value.
    CharLit {
        /// Decoded value.
        value: i64,
    },
    /// String literal with its decoded contents (no quotes).
    StrLit {
        /// Decoded contents.
        value: String,
    },
    /// A name reference.
    Ident(Name),
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        operand: ExprId,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Simple or compound assignment.
    Assign {
        /// `None` for `=`, otherwise the compound operator (`+` for `+=`).
        op: Option<BinaryOp>,
        /// Assignee.
        lhs: ExprId,
        /// Value.
        rhs: ExprId,
    },
    /// Conditional operator `c ? t : e`.
    Cond {
        /// Condition.
        cond: ExprId,
        /// Then-value.
        then_expr: ExprId,
        /// Else-value.
        else_expr: ExprId,
    },
    /// Function call.
    Call {
        /// Callee expression (usually an identifier).
        callee: ExprId,
        /// Arguments in order.
        args: Vec<ExprId>,
    },
    /// Array subscript `base[index]`.
    Index {
        /// The indexed expression.
        base: ExprId,
        /// The index.
        index: ExprId,
    },
    /// Member access `base.member` or `base->member`.
    Member {
        /// The aggregate expression.
        base: ExprId,
        /// Member name (its token ends the expression's span).
        member: Name,
        /// `true` for `->`.
        arrow: bool,
    },
    /// Explicit cast `(T)expr`.
    Cast {
        /// The target type.
        ty: Box<TypeName>,
        /// The casted expression.
        expr: ExprId,
    },
    /// Compound literal `(T){...}`.
    CompoundLit {
        /// The literal's type.
        ty: Box<TypeName>,
        /// Its initializer list.
        init: Box<Initializer>,
    },
    /// `sizeof expr`
    SizeofExpr(ExprId),
    /// `sizeof(T)`
    SizeofType(Box<TypeName>),
    /// The comma operator.
    Comma {
        /// First (discarded) operand.
        lhs: ExprId,
        /// Second operand, the value.
        rhs: ExprId,
    },
    /// Parenthesized expression.
    Paren(ExprId),
}

impl Expr {
    /// Strips any number of wrapping [`ExprKind::Paren`] layers.
    pub fn unparenthesized<'a>(&'a self, ast: &'a Ast) -> &'a Expr {
        match self.kind {
            ExprKind::Paren(inner) => ast[inner].unparenthesized(ast),
            _ => self,
        }
    }

    /// A conservative syntactic l-value check (identifier, deref, index,
    /// member). Used by mutators to avoid generating non-assignable targets.
    pub fn is_lvalue_shaped(&self, ast: &Ast) -> bool {
        match self.kind {
            ExprKind::Ident(_) => true,
            ExprKind::Index { .. } | ExprKind::Member { .. } => true,
            ExprKind::Unary {
                op: UnaryOp::Deref, ..
            } => true,
            ExprKind::Paren(inner) => ast[inner].is_lvalue_shaped(ast),
            _ => false,
        }
    }

    /// Whether the expression is a literal constant.
    pub fn is_literal(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::IntLit { .. }
                | ExprKind::FloatLit { .. }
                | ExprKind::CharLit { .. }
                | ExprKind::StrLit { .. }
        )
    }

    /// The span of a member access's member name, which ends the
    /// expression.
    pub fn member_span(&self) -> Option<Span> {
        match &self.kind {
            ExprKind::Member { member, .. } => {
                Some(Span::new(self.span.hi - member.len() as u32, self.span.hi))
            }
            _ => None,
        }
    }
}

/// An initializer: a single expression or a brace-enclosed list.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`
    Expr(ExprId),
    /// `= { a, b, ... }` (possibly nested)
    List {
        /// Node id.
        id: NodeId,
        /// Span including braces.
        span: Span,
        /// The items.
        items: Vec<Initializer>,
    },
}

impl Initializer {
    /// The source span of the initializer.
    pub fn span(&self, ast: &Ast) -> Span {
        match self {
            Initializer::Expr(e) => ast[*e].span,
            Initializer::List { span, .. } => *span,
        }
    }
}

/// A single declared variable (one declarator of a declaration).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Node id.
    pub id: NodeId,
    /// Span of this declarator (name through initializer).
    pub span: Span,
    /// Declared name.
    pub name: Name,
    /// Span of the name token.
    pub name_span: Span,
    /// The declared type (specifier + declarator derivations).
    pub ty: TySyn,
    /// Span of the declaration-specifier part shared by the group.
    pub specs_span: Span,
    /// Storage class.
    pub storage: Storage,
    /// Initializer, if present.
    pub init: Option<Initializer>,
}

/// A declaration statement or external variable declaration: one specifier
/// group with one or more declarators.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclGroup {
    /// Node id.
    pub id: NodeId,
    /// Span of the whole declaration including the trailing `;`.
    pub span: Span,
    /// The declared variables in source order.
    pub vars: Vec<VarDecl>,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Node id.
    pub id: NodeId,
    /// Span of the whole parameter.
    pub span: Span,
    /// Name, if the parameter is named.
    pub name: Option<Name>,
    /// Span of the name token (dummy when unnamed).
    pub name_span: Span,
    /// Parameter type.
    pub ty: TySyn,
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Node id.
    pub id: NodeId,
    /// Span of the full definition (or prototype incl. `;`).
    pub span: Span,
    /// Function name.
    pub name: Name,
    /// Span of the name token.
    pub name_span: Span,
    /// Return type.
    pub ret_ty: TySyn,
    /// Span of the return-type specifier tokens (used by e.g. `Ret2V`).
    pub ret_ty_span: Span,
    /// Parameters.
    pub params: Vec<ParamDecl>,
    /// Whether the parameter list is variadic.
    pub variadic: bool,
    /// Body, or `None` for a prototype.
    pub body: Option<Stmt>,
    /// Storage class.
    pub storage: Storage,
    /// Whether `inline` was written.
    pub is_inline: bool,
}

impl FunctionDef {
    /// Whether this is a definition (has a body).
    pub fn is_definition(&self) -> bool {
        self.body.is_some()
    }
}

/// A struct or union declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordDecl {
    /// Node id.
    pub id: NodeId,
    /// Span of the declaration.
    pub span: Span,
    /// Tag name, if any.
    pub name: Option<Name>,
    /// `true` for `union`.
    pub is_union: bool,
    /// Fields, or `None` for a forward tag reference/declaration.
    pub fields: Option<Vec<FieldDecl>>,
}

/// A struct/union field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Node id.
    pub id: NodeId,
    /// Span of the field declarator.
    pub span: Span,
    /// Field name (anonymous bitfields are not supported).
    pub name: Name,
    /// Field type.
    pub ty: TySyn,
    /// Bit-field width expression, if any.
    pub bit_width: Option<ExprId>,
}

/// An enum declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDecl {
    /// Node id.
    pub id: NodeId,
    /// Span of the declaration.
    pub span: Span,
    /// Tag name, if any.
    pub name: Option<Name>,
    /// Enumerators, or `None` for a forward reference.
    pub enumerators: Option<Vec<Enumerator>>,
}

/// A single enumerator.
#[derive(Debug, Clone, PartialEq)]
pub struct Enumerator {
    /// Node id.
    pub id: NodeId,
    /// Span of the enumerator.
    pub span: Span,
    /// Name.
    pub name: Name,
    /// Explicit value expression, if any.
    pub value: Option<ExprId>,
}

/// A typedef declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedefDecl {
    /// Node id.
    pub id: NodeId,
    /// Span including `;`.
    pub span: Span,
    /// The introduced name.
    pub name: Name,
    /// Span of the name token.
    pub name_span: Span,
    /// The aliased type.
    pub ty: TySyn,
}

/// Top-level declarations.
///
/// Variants intentionally hold their declarations inline (rather than boxed)
/// so pattern matching stays ergonomic; translation units are small.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum ExternalDecl {
    /// Function definition or prototype.
    Function(FunctionDef),
    /// Variable declaration group (may carry an inline record/enum def).
    Vars(DeclGroup),
    /// A lone struct/union tag declaration.
    Record(RecordDecl),
    /// A lone enum declaration.
    Enum(EnumDecl),
    /// A typedef.
    Typedef(TypedefDecl),
}

impl ExternalDecl {
    /// The span of the declaration.
    pub fn span(&self) -> Span {
        match self {
            ExternalDecl::Function(f) => f.span,
            ExternalDecl::Vars(g) => g.span,
            ExternalDecl::Record(r) => r.span,
            ExternalDecl::Enum(e) => e.span,
            ExternalDecl::Typedef(t) => t.span,
        }
    }
}

/// Items inside a compound statement.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockItem {
    /// A local declaration.
    Decl(DeclGroup),
    /// A statement.
    Stmt(Stmt),
}

impl BlockItem {
    /// The span of the item.
    pub fn span(&self) -> Span {
        match self {
            BlockItem::Decl(d) => d.span,
            BlockItem::Stmt(s) => s.span,
        }
    }
}

/// The first clause of a `for` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ForInit {
    /// `for (int i = 0; ...)`
    Decl(DeclGroup),
    /// `for (i = 0; ...)`
    Expr(ExprId),
}

/// Statement nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The statement variant.
    pub kind: StmtKind,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `{ ... }`
    Compound(Vec<BlockItem>),
    /// An expression statement.
    Expr(ExprId),
    /// A lone `;`.
    Null,
    /// `if (cond) then [else els]`
    If {
        /// Condition.
        cond: ExprId,
        /// Then-branch.
        then_stmt: Box<Stmt>,
        /// Else-branch, if present.
        else_stmt: Option<Box<Stmt>>,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Body.
        body: Box<Stmt>,
        /// Condition.
        cond: ExprId,
    },
    /// `for (init; cond; step) body`
    For {
        /// Init clause.
        init: Option<Box<ForInit>>,
        /// Condition clause.
        cond: Option<ExprId>,
        /// Step clause.
        step: Option<ExprId>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `switch (cond) body`
    Switch {
        /// Controlling expression.
        cond: ExprId,
        /// Body (usually a compound with case labels).
        body: Box<Stmt>,
    },
    /// `case expr: stmt`
    Case {
        /// Label value.
        expr: ExprId,
        /// Labeled statement.
        stmt: Box<Stmt>,
    },
    /// `default: stmt`
    Default {
        /// Labeled statement.
        stmt: Box<Stmt>,
    },
    /// `name: stmt`
    Label {
        /// Label name.
        name: Name,
        /// Span of the label token.
        name_span: Span,
        /// Labeled statement.
        stmt: Box<Stmt>,
    },
    /// `goto name;`
    Goto {
        /// Target label.
        name: Name,
        /// Span of the label token.
        name_span: Span,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return [expr];`
    Return(Option<ExprId>),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationUnit {
    /// Top-level declarations in source order.
    pub decls: Vec<ExternalDecl>,
    /// Span of the whole unit.
    pub span: Span,
}

/// A parsed program: source plus tree plus node-count metadata.
///
/// Every expression of the unit lives in one arena, [`Ast::exprs`], in the
/// order the parser finished them (children before parents); nodes refer
/// to their sub-expressions by [`ExprId`] and reach them through
/// [`Ast::expr`] or indexing (`ast[id]`).
#[derive(Debug, Clone)]
pub struct Ast {
    /// The original source file.
    pub file: SourceFile,
    /// The parse tree.
    pub unit: TranslationUnit,
    /// Every expression of the unit, indexed by [`ExprId`].
    pub exprs: Vec<Expr>,
    /// Number of node ids handed out (ids are `0..node_count`).
    pub node_count: u32,
}

impl std::ops::Index<ExprId> for Ast {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }
}

impl Ast {
    /// The expression `id` names.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self[id]
    }

    /// The text covered by `span` in the underlying source.
    pub fn snippet(&self, span: Span) -> &str {
        self.file.snippet(span)
    }

    /// The full source text.
    pub fn source(&self) -> &str {
        self.file.text()
    }

    /// All function definitions (with bodies), in source order.
    pub fn function_defs(&self) -> impl Iterator<Item = &FunctionDef> {
        self.unit.decls.iter().filter_map(|d| match d {
            ExternalDecl::Function(f) if f.is_definition() => Some(f),
            _ => None,
        })
    }

    /// Looks up a function definition or prototype by name.
    pub fn find_function(&self, name: &str) -> Option<&FunctionDef> {
        self.unit.decls.iter().find_map(|d| match d {
            ExternalDecl::Function(f) if f.name == name => Some(f),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The initializer expression of the first declared variable.
    fn init_of(ast: &Ast) -> &Expr {
        let ExternalDecl::Vars(g) = &ast.unit.decls[0] else {
            panic!("expected a variable declaration");
        };
        let Some(Initializer::Expr(e)) = g.vars[0].init else {
            panic!("expected an initializer");
        };
        &ast[e]
    }

    #[test]
    fn unparen_strips_nesting() {
        let ast = crate::parse("t.c", "int x = ((7));").unwrap();
        let inner = init_of(&ast).unparenthesized(&ast);
        assert!(matches!(inner.kind, ExprKind::IntLit { value: 7, .. }));
        // Children precede their parents in the arena.
        assert_eq!(inner as *const Expr, &ast.exprs[0] as *const Expr);
    }

    #[test]
    fn lvalue_shapes() {
        for (src, lvalue) in [
            ("int y; int x = y;", true),
            ("int *p; int x = *p;", true),
            ("int *p; int x = (*p);", true),
            ("int x = 3;", false),
        ] {
            let ast = crate::parse("t.c", src).unwrap();
            let decl = ast.unit.decls.len() - 1;
            let ExternalDecl::Vars(g) = &ast.unit.decls[decl] else {
                panic!()
            };
            let Some(Initializer::Expr(e)) = g.vars[0].init else {
                panic!()
            };
            assert_eq!(ast[e].is_lvalue_shaped(&ast), lvalue, "{src}");
        }
        let ast = crate::parse("t.c", "struct S { int m; } s; int x = s.m;").unwrap();
        let ExternalDecl::Vars(g) = &ast.unit.decls[1] else {
            panic!()
        };
        let Some(Initializer::Expr(e)) = g.vars[0].init else {
            panic!()
        };
        assert_eq!(ast.snippet(ast[e].member_span().unwrap()), "m");
    }

    #[test]
    fn binop_tables_are_consistent() {
        use BinaryOp::*;
        for op in [
            Mul, Div, Rem, Add, Sub, Shl, Shr, Lt, Gt, Le, Ge, Eq, Ne, BitAnd, BitXor, BitOr,
            LogAnd, LogOr,
        ] {
            assert!(!op.spelling().is_empty());
            assert!(op.precedence() >= 1 && op.precedence() <= 10);
            if let Some(neg) = op.negated_comparison() {
                assert_eq!(neg.negated_comparison(), Some(op));
            }
            if let Some(sw) = op.swapped_comparison() {
                assert_eq!(sw.swapped_comparison(), Some(op));
            }
        }
    }

    #[test]
    fn ty_syn_helpers() {
        let t = TySyn::Array {
            elem: Box::new(TySyn::Array {
                elem: Box::new(TySyn::int()),
                size: None,
            }),
            size: None,
        };
        assert_eq!(t.array_rank(), 2);
        assert_eq!(t.base_spec(), Some(&TypeSpecifier::Int));
        assert!(TySyn::void().is_void());
        assert!(!TySyn::int().is_pointer());
    }

    /// The node sizes every parse pays per expression and statement.
    #[test]
    fn node_sizes() {
        assert_eq!(std::mem::size_of::<Expr>(), 48);
        assert_eq!(std::mem::size_of::<Stmt>(), 56);
    }

    #[test]
    fn quals_display() {
        let q = Quals {
            is_const: true,
            is_volatile: true,
            is_restrict: false,
        };
        assert_eq!(q.to_string(), "const volatile");
        assert!(Quals::NONE.is_empty());
        assert!(q.union(Quals::NONE).is_const);
    }
}
