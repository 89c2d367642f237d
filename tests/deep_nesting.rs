//! Programs nested exactly to the parser's limit go through every
//! recursive layer — parse, sema, the simulated compiler and the UB
//! analyzer — on a 2 MiB thread stack, the size of a daemon worker's.
//! Debug builds have the largest frames, so this is where it bites.

use metamut_analyze::analyze_source;
use metamut_lang::parser::MAX_NESTING;
use metamut_simcomp::{CompileOptions, Compiler, Profile};

fn in_return(expr: &str) -> String {
    format!("int p(void); int f(int x) {{ return {expr}; }}")
}

/// A named nesting shape: `n` levels deep at argument `n`.
type Shape = (&'static str, fn(usize) -> String);

fn shapes() -> Vec<Shape> {
    vec![
        ("parens", |n| {
            in_return(&format!("{}1{}", "(".repeat(n), ")".repeat(n)))
        }),
        ("paren sums", |n| {
            in_return(&format!("{}1{}", "(1+".repeat(n), ")".repeat(n)))
        }),
        ("unary", |n| in_return(&format!("{}x", "- ".repeat(n)))),
        ("casts", |n| in_return(&format!("{}x", "(int)".repeat(n)))),
        ("ternaries", |n| {
            in_return(&format!("{}1{}", "x ? ".repeat(n), " : 1".repeat(n)))
        }),
        ("calls", |n| {
            in_return(&format!("{}x{}", "p(".repeat(n), ")".repeat(n)))
        }),
        ("binary fold", |n| in_return(&vec!["1"; n].join("+"))),
        ("postfix fold", |n| {
            in_return(&format!("p{}", "()".repeat(n)))
        }),
        ("comma fold", |n| {
            format!("void f(int x) {{ {}; }}", vec!["x"; n].join(","))
        }),
        ("ifs", |n| {
            format!("void f(int x) {{ {}x = 1; }}", "if (x) ".repeat(n))
        }),
        ("blocks", |n| {
            format!("void f(void) {{ {}{} }}", "{".repeat(n), "}".repeat(n))
        }),
        ("initializers", |n| {
            format!("int x = {}1{};", "{".repeat(n), "}".repeat(n))
        }),
        ("pointers", |n| format!("int {}p;", "*".repeat(n))),
    ]
}

/// Whether `src` fails to parse on the nesting limit.
fn too_deep(src: &str) -> bool {
    metamut_lang::parse("deep.c", src).is_err_and(|e| {
        e.first_error()
            .is_some_and(|d| d.message.starts_with("nesting deeper than"))
    })
}

/// `shape` at the deepest `n` the parser accepts: one level more is
/// rejected by the nesting limit.
fn at_limit(name: &str, shape: fn(usize) -> String) -> String {
    let n = (0..=MAX_NESTING as usize)
        .rev()
        .find(|&n| metamut_lang::parse("deep.c", &shape(n)).is_ok())
        .expect("shallow programs parse");
    assert!(too_deep(&shape(n + 1)), "{name}: {n} + 1 levels");
    shape(n)
}

#[test]
fn programs_at_the_nesting_limit_fit_a_2mib_stack() {
    let programs: Vec<(&str, String)> = shapes()
        .into_iter()
        .map(|(name, shape)| (name, at_limit(name, shape)))
        .collect();
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for (name, src) in programs {
                // Some shapes are ill-typed (`p()()`); sema still walks them.
                let _ = metamut_lang::compile(&src);
                for compiler in [
                    Compiler::new(Profile::Gcc, CompileOptions::o2()),
                    Compiler::new(Profile::Clang, CompileOptions::o3()),
                ] {
                    compiler.compile(&src);
                }
                analyze_source(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        })
        .expect("spawn")
        .join()
        .expect("no panic");
}
