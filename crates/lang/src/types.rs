//! Semantic (checked) types, as opposed to the syntactic [`crate::ast::TySyn`].

use crate::ast::Quals;
use crate::name::Name;
use std::borrow::Cow;
use std::fmt;

/// Width of an integer type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntWidth {
    /// `char` family (1 byte).
    Char,
    /// `short` (2 bytes).
    Short,
    /// `int` (4 bytes).
    Int,
    /// `long` (8 bytes, LP64).
    Long,
    /// `long long` (8 bytes).
    LongLong,
}

impl IntWidth {
    /// Size in bytes on the modelled LP64 target.
    pub fn size(self) -> u64 {
        match self {
            IntWidth::Char => 1,
            IntWidth::Short => 2,
            IntWidth::Int => 4,
            IntWidth::Long | IntWidth::LongLong => 8,
        }
    }

    /// Conversion rank (C11 6.3.1.1).
    pub fn rank(self) -> u8 {
        match self {
            IntWidth::Char => 1,
            IntWidth::Short => 2,
            IntWidth::Int => 3,
            IntWidth::Long => 4,
            IntWidth::LongLong => 5,
        }
    }
}

/// Width of a floating type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FloatWidth {
    /// `float`
    F32,
    /// `double`
    F64,
    /// `long double`
    F80,
}

impl FloatWidth {
    /// Size in bytes (long double modelled as 16 for alignment simplicity).
    pub fn size(self) -> u64 {
        match self {
            FloatWidth::F32 => 4,
            FloatWidth::F64 => 8,
            FloatWidth::F80 => 16,
        }
    }
}

/// A checked C type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void`
    Void,
    /// `_Bool`
    Bool,
    /// Integer types (including the `char` family).
    Int {
        /// Width class.
        width: IntWidth,
        /// Signedness.
        signed: bool,
    },
    /// Floating types.
    Float(FloatWidth),
    /// `_Complex` floating types.
    Complex(FloatWidth),
    /// Pointer to a (qualified) type.
    Pointer(Box<QType>),
    /// Array of element type with optional constant length.
    Array(Box<QType>, Option<u64>),
    /// Function type.
    Function {
        /// Return type.
        ret: Box<QType>,
        /// Parameter types after decay.
        params: Vec<QType>,
        /// `...`
        variadic: bool,
        /// Declared without a prototype (`int f()` / K&R).
        unprototyped: bool,
    },
    /// Struct or union named by resolved tag.
    Record {
        /// Resolved tag (anonymous records get synthesized tags).
        tag: Name,
        /// `true` for unions.
        is_union: bool,
    },
    /// Enum named by resolved tag; represented as `int`.
    Enum {
        /// Resolved tag.
        tag: Name,
    },
}

impl Type {
    /// The `int` type.
    pub fn int() -> Type {
        Type::Int {
            width: IntWidth::Int,
            signed: true,
        }
    }

    /// The `unsigned int` type.
    pub fn uint() -> Type {
        Type::Int {
            width: IntWidth::Int,
            signed: false,
        }
    }

    /// The `char` type (signed on the modelled target).
    pub fn char_() -> Type {
        Type::Int {
            width: IntWidth::Char,
            signed: true,
        }
    }

    /// The `double` type.
    pub fn double() -> Type {
        Type::Float(FloatWidth::F64)
    }

    /// Whether this is any integer type (incl. `_Bool` and enums).
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Int { .. } | Type::Bool | Type::Enum { .. })
    }

    /// Whether this is a real floating type.
    pub fn is_floating(&self) -> bool {
        matches!(self, Type::Float(_))
    }

    /// Whether this is a complex floating type.
    pub fn is_complex(&self) -> bool {
        matches!(self, Type::Complex(_))
    }

    /// Integer, floating or complex.
    pub fn is_arithmetic(&self) -> bool {
        self.is_integer() || self.is_floating() || self.is_complex()
    }

    /// Arithmetic or pointer.
    pub fn is_scalar(&self) -> bool {
        self.is_arithmetic() || matches!(self, Type::Pointer(_))
    }

    /// Whether this is a pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer(_))
    }

    /// Whether this is an array type.
    pub fn is_array(&self) -> bool {
        matches!(self, Type::Array(..))
    }

    /// Whether this is a function type.
    pub fn is_function(&self) -> bool {
        matches!(self, Type::Function { .. })
    }

    /// Whether this is a struct/union type.
    pub fn is_record(&self) -> bool {
        matches!(self, Type::Record { .. })
    }

    /// Whether this is `void`.
    pub fn is_void(&self) -> bool {
        matches!(self, Type::Void)
    }

    /// The pointee type for pointers, the element type for arrays.
    pub fn pointee(&self) -> Option<&QType> {
        match self {
            Type::Pointer(p) => Some(p),
            Type::Array(e, _) => Some(e),
            _ => None,
        }
    }

    /// Size in bytes on the modelled LP64 target. Records report a
    /// placeholder size unless measured through a
    /// [`crate::sema::SemaResult`]'s record table.
    pub fn size(&self) -> u64 {
        match self {
            Type::Void => 1,
            Type::Bool => 1,
            Type::Int { width, .. } => width.size(),
            Type::Float(w) => w.size(),
            Type::Complex(w) => w.size() * 2,
            Type::Pointer(_) => 8,
            Type::Array(e, n) => e.ty.size() * n.unwrap_or(0),
            Type::Function { .. } => 8,
            Type::Record { .. } => 8,
            Type::Enum { .. } => 4,
        }
    }

    /// After l-value conversion: arrays decay to element pointers, functions
    /// to function pointers.
    pub fn decayed(&self) -> Type {
        match self {
            Type::Array(e, _) => Type::Pointer(e.clone()),
            Type::Function { .. } => Type::Pointer(Box::new(QType::new(self.clone()))),
            other => other.clone(),
        }
    }

    /// [`Type::decayed`], borrowing every type that decay leaves as it
    /// is (all but arrays and functions) instead of copying it.
    pub fn decay(&self) -> Cow<'_, Type> {
        match self {
            Type::Array(..) | Type::Function { .. } => Cow::Owned(self.decayed()),
            other => Cow::Borrowed(other),
        }
    }

    /// Integer promotion (C11 6.3.1.1p2): small integers become `int`.
    pub fn promoted(&self) -> Type {
        match self {
            Type::Bool | Type::Enum { .. } => Type::int(),
            Type::Int { width, signed } if width.rank() < IntWidth::Int.rank() => {
                // char/short always fit in int.
                let _ = signed;
                Type::int()
            }
            other => other.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::Bool => f.write_str("_Bool"),
            Type::Int { width, signed } => {
                if !signed {
                    f.write_str("unsigned ")?;
                }
                match width {
                    IntWidth::Char => f.write_str("char"),
                    IntWidth::Short => f.write_str("short"),
                    IntWidth::Int => f.write_str("int"),
                    IntWidth::Long => f.write_str("long"),
                    IntWidth::LongLong => f.write_str("long long"),
                }
            }
            Type::Float(FloatWidth::F32) => f.write_str("float"),
            Type::Float(FloatWidth::F64) => f.write_str("double"),
            Type::Float(FloatWidth::F80) => f.write_str("long double"),
            Type::Complex(FloatWidth::F32) => f.write_str("float _Complex"),
            Type::Complex(_) => f.write_str("double _Complex"),
            Type::Pointer(p) => write!(f, "{} *", p),
            Type::Array(e, Some(n)) => write!(f, "{}[{}]", e, n),
            Type::Array(e, None) => write!(f, "{}[]", e),
            Type::Function { ret, params, .. } => {
                write!(f, "{}(", ret)?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Type::Record { tag, is_union } => {
                write!(f, "{} {}", if *is_union { "union" } else { "struct" }, tag)
            }
            Type::Enum { tag } => write!(f, "enum {tag}"),
        }
    }
}

/// A qualified type: a [`Type`] plus `const`/`volatile` flags.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QType {
    /// The unqualified type.
    pub ty: Type,
    /// Its qualifiers.
    pub quals: Quals,
}

impl QType {
    /// An unqualified type.
    pub fn new(ty: Type) -> Self {
        QType {
            ty,
            quals: Quals::NONE,
        }
    }

    /// A `const`-qualified type.
    pub fn const_(ty: Type) -> Self {
        QType {
            ty,
            quals: Quals {
                is_const: true,
                is_volatile: false,
                is_restrict: false,
            },
        }
    }

    /// `void`
    pub fn void() -> Self {
        QType::new(Type::Void)
    }

    /// `int`
    pub fn int() -> Self {
        QType::new(Type::int())
    }

    /// `double`
    pub fn double() -> Self {
        QType::new(Type::double())
    }

    /// `char *`
    pub fn char_ptr() -> Self {
        QType::new(Type::Pointer(Box::new(QType::new(Type::char_()))))
    }

    /// A pointer to `self`.
    pub fn pointer_to(self) -> QType {
        QType::new(Type::Pointer(Box::new(self)))
    }

    /// The same type without qualifiers.
    pub fn unqualified(&self) -> QType {
        QType::new(self.ty.clone())
    }

    /// After l-value conversion (decay + qualifier stripping).
    pub fn decayed(&self) -> QType {
        QType::new(self.ty.decayed())
    }
}

impl fmt::Display for QType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.quals.is_empty() {
            write!(f, "{} ", self.quals)?;
        }
        write!(f, "{}", self.ty)
    }
}

impl From<Type> for QType {
    fn from(ty: Type) -> Self {
        QType::new(ty)
    }
}

/// Result of the usual arithmetic conversions on two arithmetic types.
pub fn usual_arithmetic(a: &Type, b: &Type) -> Type {
    use Type::*;
    // Complex dominates, then long double > double > float.
    match (a, b) {
        (Complex(x), Complex(y)) => Complex(*x.max(y)),
        (Complex(x), _) | (_, Complex(x)) => Complex(*x),
        (Float(x), Float(y)) => Float(*x.max(y)),
        (Float(x), _) | (_, Float(x)) => Float(*x),
        _ => {
            let pa = a.promoted();
            let pb = b.promoted();
            match (&pa, &pb) {
                (
                    Int {
                        width: wa,
                        signed: sa,
                    },
                    Int {
                        width: wb,
                        signed: sb,
                    },
                ) => {
                    let width = if wa.rank() >= wb.rank() { *wa } else { *wb };
                    let signed = if wa == wb {
                        *sa && *sb
                    } else if wa.rank() > wb.rank() {
                        *sa
                    } else {
                        *sb
                    };
                    Int { width, signed }
                }
                _ => Type::int(),
            }
        }
    }
}

/// A loose structural compatibility check used for assignment-like contexts.
///
/// Returns the verdict of assigning a value of type `src` to an object of
/// type `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compat {
    /// Fine without remark.
    Ok,
    /// Allowed by C compilers with a warning (e.g. int ↔ pointer).
    Warn,
    /// A constraint violation: does not compile.
    Error,
}

/// Checks assignment compatibility `dst = src` after decay of `src`.
pub fn assign_compat(dst: &Type, src: &Type) -> Compat {
    use Type::*;
    let src = src.decay();
    match (dst, src.as_ref()) {
        (a, b) if a == b => Compat::Ok,
        (a, b) if a.is_arithmetic() && b.is_arithmetic() => Compat::Ok,
        (Pointer(_), Pointer(_)) => {
            // Different pointee: accepted with a warning, like C compilers.
            Compat::Warn
        }
        (Pointer(_), b) if b.is_integer() => Compat::Warn,
        (a, Pointer(_)) if a.is_integer() => Compat::Warn,
        (Record { tag: ta, .. }, Record { tag: tb, .. }) => {
            if ta == tb {
                Compat::Ok
            } else {
                Compat::Error
            }
        }
        (Void, _) | (_, Void) => Compat::Error,
        (Pointer(_), b) if b.is_floating() || b.is_complex() => Compat::Error,
        (a, Pointer(_)) if a.is_floating() || a.is_complex() => Compat::Error,
        _ => Compat::Error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(Type::int().is_integer());
        assert!(Type::int().is_scalar());
        assert!(Type::double().is_floating());
        assert!(!Type::double().is_integer());
        let p = Type::Pointer(Box::new(QType::int()));
        assert!(p.is_pointer() && p.is_scalar() && !p.is_arithmetic());
        assert!(Type::Void.is_void());
    }

    #[test]
    fn sizes() {
        assert_eq!(Type::int().size(), 4);
        assert_eq!(Type::char_().size(), 1);
        assert_eq!(Type::Pointer(Box::new(QType::void())).size(), 8);
        let arr = Type::Array(Box::new(QType::int()), Some(6));
        assert_eq!(arr.size(), 24);
        assert_eq!(Type::Complex(FloatWidth::F64).size(), 16);
    }

    #[test]
    fn decay() {
        let arr = Type::Array(Box::new(QType::int()), Some(4));
        assert!(arr.decayed().is_pointer());
        let f = Type::Function {
            ret: Box::new(QType::int()),
            params: vec![],
            variadic: false,
            unprototyped: false,
        };
        assert!(f.decayed().is_pointer());
        assert_eq!(Type::int().decayed(), Type::int());
    }

    #[test]
    fn promotions() {
        assert_eq!(Type::char_().promoted(), Type::int());
        assert_eq!(Type::Bool.promoted(), Type::int());
        let l = Type::Int {
            width: IntWidth::Long,
            signed: true,
        };
        assert_eq!(l.promoted(), l);
    }

    #[test]
    fn arithmetic_conversions() {
        assert_eq!(
            usual_arithmetic(&Type::int(), &Type::double()),
            Type::double()
        );
        assert_eq!(
            usual_arithmetic(&Type::char_(), &Type::char_()),
            Type::int()
        );
        assert_eq!(usual_arithmetic(&Type::uint(), &Type::int()), Type::uint());
        assert_eq!(
            usual_arithmetic(&Type::Complex(FloatWidth::F64), &Type::int()),
            Type::Complex(FloatWidth::F64)
        );
    }

    #[test]
    fn assignment_compat() {
        assert_eq!(assign_compat(&Type::int(), &Type::double()), Compat::Ok);
        let ip = Type::Pointer(Box::new(QType::int()));
        let cp = Type::Pointer(Box::new(QType::new(Type::char_())));
        assert_eq!(assign_compat(&ip, &ip), Compat::Ok);
        assert_eq!(assign_compat(&ip, &cp), Compat::Warn);
        assert_eq!(assign_compat(&ip, &Type::int()), Compat::Warn);
        assert_eq!(assign_compat(&ip, &Type::double()), Compat::Error);
        let s1 = Type::Record {
            tag: "a".into(),
            is_union: false,
        };
        let s2 = Type::Record {
            tag: "b".into(),
            is_union: false,
        };
        assert_eq!(assign_compat(&s1, &s1), Compat::Ok);
        assert_eq!(assign_compat(&s1, &s2), Compat::Error);
        assert_eq!(assign_compat(&s1, &Type::int()), Compat::Error);
    }

    #[test]
    fn display() {
        assert_eq!(Type::int().to_string(), "int");
        assert_eq!(QType::char_ptr().to_string(), "char *");
        assert_eq!(
            Type::Record {
                tag: "s2".into(),
                is_union: false
            }
            .to_string(),
            "struct s2"
        );
    }
}
