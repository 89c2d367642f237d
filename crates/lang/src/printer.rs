//! Pretty-printing: expressions, statements, declarations and — most
//! importantly for mutators — C declarator formatting (`format_as_decl`,
//! the analogue of the paper's μAST `formatAsDecl`).

use crate::ast::*;

/// Spells a base type specifier.
pub fn spec_spelling(spec: &TypeSpecifier) -> String {
    use TypeSpecifier::*;
    match spec {
        Void => "void".into(),
        Char => "char".into(),
        SChar => "signed char".into(),
        UChar => "unsigned char".into(),
        Short => "short".into(),
        UShort => "unsigned short".into(),
        Int => "int".into(),
        UInt => "unsigned int".into(),
        Long => "long".into(),
        ULong => "unsigned long".into(),
        LongLong => "long long".into(),
        ULongLong => "unsigned long long".into(),
        Float => "float".into(),
        Double => "double".into(),
        LongDouble => "long double".into(),
        Bool => "_Bool".into(),
        ComplexFloat => "float _Complex".into(),
        ComplexDouble => "double _Complex".into(),
        Struct(n) => format!("struct {n}"),
        Union(n) => format!("union {n}"),
        Enum(n) => format!("enum {n}"),
        Typedef(n) => n.clone(),
        RecordDef(r) => print_record(r),
        EnumDef(e) => print_enum(e),
    }
}

/// Formats `ty` with declared name `name` as a C declaration fragment
/// (no storage class, no trailing `;`).
///
/// Passing an empty `name` yields an abstract type suitable for casts.
///
/// # Examples
///
/// ```
/// use metamut_lang::ast::TySyn;
/// use metamut_lang::printer::format_as_decl;
/// let ty = TySyn::Pointer { pointee: Box::new(TySyn::int()), quals: Default::default() };
/// assert_eq!(format_as_decl(&ty, "p"), "int *p");
/// ```
pub fn format_as_decl(ty: &TySyn, name: &str) -> String {
    let (base_str, declarator) = build_declarator(ty, name.to_string());
    if declarator.is_empty() {
        base_str
    } else {
        format!("{base_str} {declarator}")
    }
}

fn build_declarator(ty: &TySyn, inner: String) -> (String, String) {
    match ty {
        TySyn::Base { spec, quals } => {
            let mut s = String::new();
            if !quals.is_empty() {
                s.push_str(&quals.to_string());
                s.push(' ');
            }
            s.push_str(&spec_spelling(spec));
            (s, inner)
        }
        TySyn::Pointer { pointee, quals } => {
            let mut d = String::from("*");
            if !quals.is_empty() {
                d.push_str(&quals.to_string());
                d.push(' ');
            }
            d.push_str(&inner);
            let d = if matches!(**pointee, TySyn::Array { .. } | TySyn::Function { .. }) {
                format!("({d})")
            } else {
                d
            };
            build_declarator(pointee, d)
        }
        TySyn::Array { elem, size } => {
            let sz = size.as_ref().map(|e| print_expr(e)).unwrap_or_default();
            build_declarator(elem, format!("{inner}[{sz}]"))
        }
        TySyn::Function {
            ret,
            params,
            variadic,
        } => function_declarator(ret, params, *variadic, inner),
    }
}

fn function_declarator(
    ret: &TySyn,
    params: &[ParamDecl],
    variadic: bool,
    inner: String,
) -> (String, String) {
    let mut ps: Vec<String> = params
        .iter()
        .map(|p| format_as_decl(&p.ty, p.name.as_deref().unwrap_or("")))
        .collect();
    if variadic {
        ps.push("...".into());
    }
    let plist = if ps.is_empty() {
        "void".to_string()
    } else {
        ps.join(", ")
    };
    build_declarator(ret, format!("{inner}({plist})"))
}

/// Formats a function's signature as a prototype declarator, without
/// storage class, `inline` or the trailing `;`: `int f(int a, char *b)`.
pub fn format_function_decl(f: &FunctionDef) -> String {
    let name = f.name.clone();
    let (base_str, declarator) = function_declarator(&f.ret_ty, &f.params, f.variadic, name);
    format!("{base_str} {declarator}")
}

/// Prints a struct/union declaration (without trailing `;`).
pub fn print_record(r: &RecordDecl) -> String {
    let kw = if r.is_union { "union" } else { "struct" };
    let mut s = String::from(kw);
    if let Some(n) = &r.name {
        s.push(' ');
        s.push_str(n);
    }
    if let Some(fields) = &r.fields {
        s.push_str(" { ");
        for f in fields {
            s.push_str(&format_as_decl(&f.ty, &f.name));
            if let Some(w) = &f.bit_width {
                s.push_str(" : ");
                s.push_str(&print_expr(w));
            }
            s.push_str("; ");
        }
        s.push('}');
    }
    s
}

/// Prints an enum declaration (without trailing `;`).
pub fn print_enum(e: &EnumDecl) -> String {
    let mut s = String::from("enum");
    if let Some(n) = &e.name {
        s.push(' ');
        s.push_str(n);
    }
    if let Some(es) = &e.enumerators {
        s.push_str(" { ");
        for (i, en) in es.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&en.name);
            if let Some(v) = &en.value {
                s.push_str(" = ");
                s.push_str(&print_expr(v));
            }
        }
        s.push_str(" }");
    }
    s
}

/// Precedence level of an expression for printing (higher binds tighter).
fn expr_prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Comma { .. } => 0,
        ExprKind::Assign { .. } => 1,
        ExprKind::Cond { .. } => 2,
        // Binary: map 1..10 onto 3..12.
        ExprKind::Binary { op, .. } => 2 + op.precedence(),
        ExprKind::Cast { .. } | ExprKind::SizeofExpr(_) | ExprKind::SizeofType(_) => 13,
        ExprKind::Unary { op, .. } if !op.is_postfix() => 13,
        _ => 14, // postfix and primary
    }
}

fn print_sub(e: &Expr, min_prec: u8) -> String {
    let s = print_expr(e);
    if expr_prec(e) < min_prec {
        format!("({s})")
    } else {
        s
    }
}

/// Prints an expression from its structure (not from source spans), adding
/// parentheses where precedence requires.
pub fn print_expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::IntLit {
            value,
            unsigned,
            longs,
        } => {
            let mut s = value.to_string();
            if *unsigned {
                s.push('u');
            }
            for _ in 0..*longs {
                s.push('l');
            }
            s
        }
        ExprKind::FloatLit { value, single } => {
            let mut s = if value.fract() == 0.0 && value.is_finite() {
                format!("{value:.1}")
            } else {
                format!("{value}")
            };
            if *single {
                s.push('f');
            }
            s
        }
        ExprKind::CharLit { value } => {
            let c = u8::try_from(*value).ok().map(char::from).unwrap_or('?');
            match c {
                '\n' => "'\\n'".into(),
                '\t' => "'\\t'".into(),
                '\0' => "'\\0'".into(),
                '\'' => "'\\''".into(),
                '\\' => "'\\\\'".into(),
                c if c.is_ascii_graphic() || c == ' ' => format!("'{c}'"),
                _ => format!("{value}"),
            }
        }
        ExprKind::StrLit { value } => {
            let mut s = String::from('"');
            for c in value.chars() {
                match c {
                    '\n' => s.push_str("\\n"),
                    '\t' => s.push_str("\\t"),
                    '\0' => s.push_str("\\0"),
                    '"' => s.push_str("\\\""),
                    '\\' => s.push_str("\\\\"),
                    c => s.push(c),
                }
            }
            s.push('"');
            s
        }
        ExprKind::Ident(n) => n.clone(),
        ExprKind::Unary { op, operand } => {
            if op.is_postfix() {
                format!("{}{}", print_sub(operand, 14), op.spelling())
            } else {
                // Guard `- -x` and `+ +x` against token pasting.
                let inner = print_sub(operand, 13);
                let sp = op.spelling();
                if (sp == "-" && inner.starts_with('-')) || (sp == "+" && inner.starts_with('+')) {
                    format!("{sp}({inner})")
                } else {
                    format!("{sp}{inner}")
                }
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let p = 2 + op.precedence();
            format!(
                "{} {} {}",
                print_sub(lhs, p),
                op.spelling(),
                print_sub(rhs, p + 1)
            )
        }
        ExprKind::Assign { op, lhs, rhs } => {
            let opstr = match op {
                None => "=".to_string(),
                Some(o) => format!("{}=", o.spelling()),
            };
            format!("{} {} {}", print_sub(lhs, 2), opstr, print_sub(rhs, 1))
        }
        ExprKind::Cond {
            cond,
            then_expr,
            else_expr,
        } => format!(
            "{} ? {} : {}",
            print_sub(cond, 3),
            print_expr(then_expr),
            print_sub(else_expr, 2)
        ),
        ExprKind::Call { callee, args } => {
            let a: Vec<String> = args.iter().map(print_expr).collect();
            format!("{}({})", print_sub(callee, 14), a.join(", "))
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", print_sub(base, 14), print_expr(index))
        }
        ExprKind::Member {
            base,
            member,
            arrow,
            ..
        } => format!(
            "{}{}{}",
            print_sub(base, 14),
            if *arrow { "->" } else { "." },
            member
        ),
        ExprKind::Cast { ty, expr } => {
            format!("({}){}", format_as_decl(&ty.ty, ""), print_sub(expr, 13))
        }
        ExprKind::CompoundLit { ty, init } => {
            format!(
                "({}){}",
                format_as_decl(&ty.ty, ""),
                print_initializer(init)
            )
        }
        ExprKind::SizeofExpr(inner) => format!("sizeof {}", print_sub(inner, 13)),
        ExprKind::SizeofType(ty) => format!("sizeof({})", format_as_decl(&ty.ty, "")),
        ExprKind::Comma { lhs, rhs } => {
            format!("{}, {}", print_sub(lhs, 1), print_sub(rhs, 1))
        }
        ExprKind::Paren(inner) => format!("({})", print_expr(inner)),
    }
}

/// Prints an initializer.
pub fn print_initializer(i: &Initializer) -> String {
    match i {
        Initializer::Expr(e) => print_expr(e),
        Initializer::List { items, .. } => {
            let inner: Vec<String> = items.iter().map(print_initializer).collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// Prints a statement with `indent` leading levels (4 spaces each).
pub fn print_stmt(s: &Stmt, indent: usize) -> String {
    let pad = "    ".repeat(indent);
    match &s.kind {
        StmtKind::Compound(items) => {
            let mut out = format!("{pad}{{\n");
            for item in items {
                match item {
                    BlockItem::Decl(g) => out.push_str(&print_decl_group(g, indent + 1)),
                    BlockItem::Stmt(st) => out.push_str(&print_stmt(st, indent + 1)),
                }
            }
            out.push_str(&format!("{pad}}}\n"));
            out
        }
        StmtKind::Expr(e) => format!("{pad}{};\n", print_expr(e)),
        StmtKind::Null => format!("{pad};\n"),
        StmtKind::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            let mut out = format!("{pad}if ({})\n", print_expr(cond));
            out.push_str(&print_stmt(then_stmt, indent + 1));
            if let Some(e) = else_stmt {
                out.push_str(&format!("{pad}else\n"));
                out.push_str(&print_stmt(e, indent + 1));
            }
            out
        }
        StmtKind::While { cond, body } => {
            let mut out = format!("{pad}while ({})\n", print_expr(cond));
            out.push_str(&print_stmt(body, indent + 1));
            out
        }
        StmtKind::DoWhile { body, cond } => {
            let mut out = format!("{pad}do\n");
            out.push_str(&print_stmt(body, indent + 1));
            out.push_str(&format!("{pad}while ({});\n", print_expr(cond)));
            out
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            let init_str = match init.as_deref() {
                Some(ForInit::Decl(g)) => {
                    let s = print_decl_group(g, 0);
                    s.trim().trim_end_matches(';').to_string() + ";"
                }
                Some(ForInit::Expr(e)) => format!("{};", print_expr(e)),
                None => ";".into(),
            };
            let cond_str = cond.as_ref().map(print_expr).unwrap_or_default();
            let step_str = step.as_ref().map(print_expr).unwrap_or_default();
            let mut out = format!("{pad}for ({init_str} {cond_str}; {step_str})\n");
            out.push_str(&print_stmt(body, indent + 1));
            out
        }
        StmtKind::Switch { cond, body } => {
            let mut out = format!("{pad}switch ({})\n", print_expr(cond));
            out.push_str(&print_stmt(body, indent + 1));
            out
        }
        StmtKind::Case { expr, stmt } => {
            let mut out = format!("{pad}case {}:\n", print_expr(expr));
            out.push_str(&print_stmt(stmt, indent + 1));
            out
        }
        StmtKind::Default { stmt } => {
            let mut out = format!("{pad}default:\n");
            out.push_str(&print_stmt(stmt, indent + 1));
            out
        }
        StmtKind::Label { name, stmt, .. } => {
            let mut out = format!("{pad}{name}:\n");
            out.push_str(&print_stmt(stmt, indent));
            out
        }
        StmtKind::Goto { name, .. } => format!("{pad}goto {name};\n"),
        StmtKind::Break => format!("{pad}break;\n"),
        StmtKind::Continue => format!("{pad}continue;\n"),
        StmtKind::Return(value) => match value {
            Some(e) => format!("{pad}return {};\n", print_expr(e)),
            None => format!("{pad}return;\n"),
        },
    }
}

/// Prints a declaration group as one statement (`int a = 1, *b;`).
pub fn print_decl_group(g: &DeclGroup, indent: usize) -> String {
    let pad = "    ".repeat(indent);
    if g.vars.is_empty() {
        return format!("{pad};\n");
    }
    let storage = g.vars[0].storage;
    let mut head = String::new();
    if storage != Storage::None {
        head.push_str(storage.spelling());
        head.push(' ');
    }
    let mut base = String::new();
    let mut declrs = Vec::new();
    for v in &g.vars {
        let (b, d) = build_declarator(&v.ty, v.name.clone());
        if base.is_empty() {
            base = b;
        }
        let mut part = d;
        if let Some(init) = &v.init {
            part.push_str(" = ");
            part.push_str(&print_initializer(init));
        }
        declrs.push(part);
    }
    format!("{pad}{head}{base} {};\n", declrs.join(", "))
}

/// Prints a function definition or prototype.
pub fn print_function(f: &FunctionDef) -> String {
    let mut head = String::new();
    if f.storage != Storage::None {
        head.push_str(f.storage.spelling());
        head.push(' ');
    }
    if f.is_inline {
        head.push_str("inline ");
    }
    head.push_str(&format_function_decl(f));
    match &f.body {
        Some(body) => format!("{head}\n{}", print_stmt(body, 0)),
        None => format!("{head};\n"),
    }
}

/// Prints a whole translation unit.
pub fn print_unit(unit: &TranslationUnit) -> String {
    let mut out = String::new();
    for d in &unit.decls {
        match d {
            ExternalDecl::Function(f) => out.push_str(&print_function(f)),
            ExternalDecl::Vars(g) => out.push_str(&print_decl_group(g, 0)),
            ExternalDecl::Record(r) => {
                out.push_str(&print_record(r));
                out.push_str(";\n");
            }
            ExternalDecl::Enum(e) => {
                out.push_str(&print_enum(e));
                out.push_str(";\n");
            }
            ExternalDecl::Typedef(t) => {
                out.push_str("typedef ");
                out.push_str(&format_as_decl(&t.ty, &t.name));
                out.push_str(";\n");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let ast = parse("t.c", src).unwrap_or_else(|e| panic!("parse 1 failed: {e}\n{src}"));
        let printed = print_unit(&ast.unit);
        let ast2 = parse("t2.c", &printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed:\n{printed}"));
        let printed2 = print_unit(&ast2.unit);
        assert_eq!(printed, printed2, "printing is not a fixpoint for {src}");
    }

    #[test]
    fn declarators() {
        let ty = TySyn::Array {
            elem: Box::new(TySyn::Pointer {
                pointee: Box::new(TySyn::int()),
                quals: Quals::NONE,
            }),
            size: None,
        };
        assert_eq!(format_as_decl(&ty, "a"), "int *a[]");

        let ty2 = TySyn::Pointer {
            pointee: Box::new(TySyn::Array {
                elem: Box::new(TySyn::int()),
                size: None,
            }),
            quals: Quals::NONE,
        };
        assert_eq!(format_as_decl(&ty2, "a"), "int (*a)[]");

        let f = TySyn::Function {
            ret: Box::new(TySyn::int()),
            params: vec![],
            variadic: false,
        };
        let pf = TySyn::Pointer {
            pointee: Box::new(f),
            quals: Quals::NONE,
        };
        assert_eq!(format_as_decl(&pf, "fp"), "int (*fp)(void)");
    }

    #[test]
    fn roundtrips() {
        roundtrip("int main(void) { return 0; }");
        roundtrip("int a = 1, b; char *s = \"x\\n\";");
        roundtrip("struct P { int x; int y; }; struct P p;");
        roundtrip("int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }");
        roundtrip("void g(void) { switch (1) { case 0: break; default: ; } }");
        roundtrip("enum E { A, B = 3 }; enum E e = B;");
        roundtrip("typedef unsigned u32; u32 v = 7;");
        roundtrip("int h(void) { int x = 1; return x > 0 ? -x : x * 2 + 1; }");
        roundtrip("void k(int *p) { *p = (int)1.5; p[0] = sizeof(int); }");
        roundtrip("void m(void) { lbl: goto lbl; }");
        roundtrip("void n(void) { do { continue; } while (0); }");
    }

    #[test]
    fn precedence_parens() {
        let ast = parse("t.c", "int x = (1 + 2) * 3;").unwrap();
        let printed = print_unit(&ast.unit);
        assert!(printed.contains("(1 + 2) * 3"), "got: {printed}");
    }

    #[test]
    fn negative_literal_paste_guard() {
        // -(-x) must not print as --x.
        let ast = parse("t.c", "int f(int a) { return -(-a); }").unwrap();
        let printed = print_unit(&ast.unit);
        assert!(!printed.contains("--"), "got: {printed}");
    }

    #[test]
    fn prints_records_and_bitfields() {
        let ast = parse("t.c", "struct S { unsigned f : 3; int *p; };").unwrap();
        let printed = print_unit(&ast.unit);
        assert!(printed.contains("unsigned int f : 3"), "got {printed}");
        assert!(printed.contains("int *p"), "got {printed}");
    }
}
