//! Integration tests for the C-subset front end: tricky syntax, the
//! calibration of error vs. warning, and totality over hostile inputs.

use metamut_lang::{analyze, compile, compile_check, parse};
use proptest::prelude::*;

#[test]
fn all_compound_assignment_operators() {
    let src = r#"
int f(int a, int b) {
    a += b; a -= b; a *= b; a /= b; a %= b;
    a <<= b; a >>= b; a &= b; a |= b; a ^= b;
    return a;
}
"#;
    compile_check(src).unwrap();
}

#[test]
fn declarator_zoo() {
    compile_check(
        r#"
int scalar;
int *ptr;
int **ptr_ptr;
int arr[4];
int mat[2][3];
int *ptr_arr[4];
int (*arr_ptr)[4];
int (*fn_ptr)(int, char);
int (*fn_ptr_arr[3])(void);
const int *ptr_to_const;
int *const const_ptr = &scalar;
unsigned long long big;
int use_all(void) { return scalar + arr[0] + mat[1][2]; }
"#,
    )
    .unwrap();
}

#[test]
fn comments_everywhere() {
    compile_check("int /*a*/ f(/*b*/ int x /*c*/) { // line\n return /* mid */ x; /* tail */ }")
        .unwrap();
}

#[test]
fn operator_precedence_full_ladder() {
    let (ast, _) = compile(
        "int f(int a, int b, int c) { return a || b && c | a ^ b & c == a < b << c + a * b; }",
    )
    .unwrap();
    // Re-print and re-check: the tree must encode the standard precedence.
    let printed = metamut_lang::printer::print_unit(&ast);
    compile_check(&printed).unwrap();
}

#[test]
fn adjacent_string_literal_concatenation() {
    let (ast, _) = compile(r#"char *s = "a" "b" "c";"#).unwrap();
    let src = metamut_lang::printer::print_unit(&ast);
    assert!(src.contains("\"abc\""), "{src}");
}

#[test]
fn warning_vs_error_calibration() {
    // Warnings (compiles).
    for src in [
        "int f(void) { int *p = 0; return p == 1; }", // ptr/int comparison
        "int *g(void) { return 5; }",                 // int → pointer return
        "void h(int *p) { char *q = p; q = q; }",     // pointer mismatch
        "int k(void) { return undeclared_fn(); }",    // implicit declaration
    ] {
        let (ast, _) = (parse("w.c", src).unwrap(), ());
        let sema = analyze(&ast).unwrap_or_else(|e| panic!("{src} should warn, got {e}"));
        assert!(!sema.warnings.is_empty(), "{src} produced no warning");
    }
    // Errors (does not compile).
    for src in [
        "struct s; struct t; void f(struct s *a, struct t *b) { *a = *b; }",
        "int f(void) { return \"str\" * 2; }",
        "void f(void) { 5 = 6; }",
        "void f(void) { int x[3]; x = 0; }",
        "int f(void) { void *v = 0; return *v; }",
        "double d; int f(void) { return d << 1; }",
    ] {
        assert!(compile_check(src).is_err(), "{src} should not compile");
    }
}

#[test]
fn scope_shadowing_resolution() {
    let (_, sema) = compile(
        r#"
int x = 1;
int f(int x) {
    {
        double x = 2.0;
        x = x + 1.0;
    }
    return x;
}
"#,
    )
    .unwrap();
    // Three distinct declarations named x.
    let n = sema.decl_types.len();
    assert!(n >= 3, "expected >=3 typed decls, got {n}");
}

#[test]
fn function_pointer_signatures_checked() {
    assert!(compile_check(
        "int id(int x) { return x; } int (*fp)(int) = id; int main(void) { return fp(3); }"
    )
    .is_ok());
    // Calling through a non-function errors.
    assert!(compile_check("int x; int main(void) { return x(1); }").is_err());
}

#[test]
fn switch_nested_in_loop_with_breaks() {
    compile_check(
        r#"
int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        switch (i & 3) {
            case 0: acc += 1; break;
            case 1: continue;
            default: acc -= 1; break;
        }
        acc *= 2;
    }
    return acc;
}
"#,
    )
    .unwrap();
}

#[test]
fn goto_across_blocks() {
    compile_check(
        r#"
int f(int n) {
    if (n > 0) goto body;
    return 0;
body:
    {
        int acc = n;
        if (acc > 10) goto out;
        acc++;
    }
out:
    return 1;
}
"#,
    )
    .unwrap();
}

#[test]
fn rejects_garbage_gracefully() {
    for src in [
        "",
        ";;;;",
        "}{",
        "int",
        "int f(",
        "\"never closed",
        "int \u{1F980} = 1;",
        "int a[",
        "struct { } ;",
    ] {
        // Either parses (empty / stray semicolons) or errors — never panics.
        let _ = compile_check(src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lexing is total over arbitrary (possibly non-UTF8-boundary-weird)
    /// printable soup.
    #[test]
    fn lexer_total(src in proptest::string::string_regex(".{0,200}").unwrap()) {
        let _ = metamut_lang::lexer::lex(&src);
    }

    /// Every successfully parsed program assigns node ids densely and spans
    /// inside the file.
    #[test]
    fn spans_in_bounds(body in "[a-z][a-z0-9]{0,6}") {
        let src = format!("int {body}(int a) {{ return a + 1; }}");
        let ast = parse("p.c", &src).unwrap();
        let len = src.len() as u32;
        for f in ast.function_defs() {
            prop_assert!(f.span.hi <= len);
            prop_assert!(f.name_span.hi <= len);
        }
    }
}
