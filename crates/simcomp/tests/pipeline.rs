//! Integration tests over the compiler-under-test pipeline: pass
//! correctness on lowered programs, back-end structural integrity, and the
//! component-depth behavior the evaluation relies on.

use metamut_simcomp::backend::{codegen, AsmInst};
use metamut_simcomp::ir::{Terminator, Value};
use metamut_simcomp::lower::lower;
use metamut_simcomp::passes::{optimize, OptFlags};
use metamut_simcomp::{CompileOptions, Compiler, CoverageMap, Outcome, Profile, Stage};

fn module_for(src: &str) -> metamut_simcomp::ir::Module {
    let (ast, sema) = metamut_lang::compile(src).expect("test program compiles");
    lower(&ast, &sema).module
}

#[test]
fn constant_switch_is_folded_away() {
    let mut m = module_for(
        "int f(void) { switch (2) { case 1: return 10; case 2: return 20; default: return 0; } }",
    );
    let report = optimize(&mut m, 2, &OptFlags::default());
    assert!(report
        .pass_stats
        .iter()
        .any(|(n, c)| *n == "const-fold" && *c > 0));
    let f = m.function("f").unwrap();
    // No Switch terminator survives constant dispatch.
    assert!(f
        .blocks
        .iter()
        .all(|b| !matches!(b.term, Terminator::Switch { .. })));
}

#[test]
fn optimization_shrinks_code() {
    let src = r#"
int f(int a) {
    int dead = 3 * 7 + 2;
    int x = 1 + 2 + 3;
    if (0) { a = a * dead; }
    return a + x;
}
"#;
    let mut o0 = module_for(src);
    let mut o2 = module_for(src);
    optimize(&mut o0, 0, &OptFlags::default());
    optimize(&mut o2, 2, &OptFlags::default());
    assert!(
        o2.inst_count() < o0.inst_count(),
        "O2 {} !< O0 {}",
        o2.inst_count(),
        o0.inst_count()
    );
}

#[test]
fn inliner_preserves_temp_ssa_discipline() {
    let mut m = module_for(
        "int g_v = 2; int get(void) { return g_v + 1; } int f(void) { return get() * get(); }",
    );
    let mut report = metamut_simcomp::passes::OptReport::default();
    let inlined = metamut_simcomp::passes::inline_trivial(&mut m, &mut report);
    assert_eq!(inlined, 2);
    // Every temp is defined at most once across the function.
    let f = m.function("f").unwrap();
    let mut defs = std::collections::HashSet::new();
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.def() {
                assert!(defs.insert(d), "temp {d:?} defined twice after inlining");
            }
        }
    }
    // And every used temp is defined.
    for b in &f.blocks {
        for i in &b.insts {
            for u in i.uses() {
                if let Value::Temp(t) = u {
                    assert!(defs.contains(t), "use of undefined {t:?}");
                }
            }
        }
    }
}

#[test]
fn backend_emits_label_for_every_jump_target() {
    let module = module_for(
        "int f(int n) { int s = 0; while (n > 0) { s += n; n--; } switch (s & 3) { case 0: s++; break; default: s--; } return s; }",
    );
    let out = codegen(&module);
    let labels: std::collections::HashSet<u32> = out
        .insts
        .iter()
        .filter_map(|i| match i {
            AsmInst::Label(l) => Some(*l),
            _ => None,
        })
        .collect();
    for i in &out.insts {
        match i {
            AsmInst::Jmp(t) | AsmInst::Jnz(_, t) => {
                assert!(labels.contains(t), "jump to unemitted label {t}");
            }
            _ => {}
        }
    }
}

#[test]
fn deeper_stages_need_valid_programs() {
    let gcc = Compiler::new(Profile::Gcc, CompileOptions::o2());
    // Invalid input: coverage confined to the front end.
    let bad = gcc.compile("int f( { return }");
    assert!(matches!(bad.outcome, Outcome::Rejected { .. }));
    assert_eq!(bad.coverage.count_stage(Stage::Opt), 0);
    assert_eq!(bad.coverage.count_stage(Stage::BackEnd), 0);
    // Valid input: every stage contributes.
    let good = gcc.compile("int f(int a) { return a * 2; } int main(void) { return f(1); }");
    for stage in Stage::ALL {
        assert!(good.coverage.count_stage(stage) > 0, "{stage} empty");
    }
}

#[test]
fn profiles_share_coverage_geometry_but_not_bugs() {
    // The same valid program covers similar amounts on both profiles…
    let src = "int f(int a) { return a + 1; } int main(void) { return f(2); }";
    let g = Compiler::new(Profile::Gcc, CompileOptions::o2()).compile(src);
    let c = Compiler::new(Profile::Clang, CompileOptions::o2()).compile(src);
    assert_eq!(g.coverage.count(), c.coverage.count());
    // …but the planted-bug sets are disjoint by id.
    let gcc_ids: std::collections::HashSet<&str> = metamut_simcomp::bugs::catalog()
        .iter()
        .filter(|b| b.profile == Profile::Gcc)
        .map(|b| b.id)
        .collect();
    let clang_ids: std::collections::HashSet<&str> = metamut_simcomp::bugs::catalog()
        .iter()
        .filter(|b| b.profile == Profile::Clang)
        .map(|b| b.id)
        .collect();
    assert!(gcc_ids.is_disjoint(&clang_ids));
    assert!(gcc_ids.len() >= 15 && clang_ids.len() >= 15);
}

#[test]
fn lowering_handles_do_while_and_comma() {
    let m = module_for(
        "int f(int n) { int s = 0; do { s = (s + 1, s + 2); } while (s < n); return s; }",
    );
    let f = m.function("f").unwrap();
    assert!(f.blocks.len() >= 4);
    assert!(f.inst_count() >= 4);
}

#[test]
fn shared_coverage_across_compilers_accumulates() {
    let mut acc = CoverageMap::new();
    let gcc = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let mut last = 0;
    for src in [
        "int a(void) { return 1; }",
        "double b(double x) { return x * 2.0; }",
        "int c(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
    ] {
        acc.merge(&gcc.compile(src).coverage);
        assert!(acc.count() > last);
        last = acc.count();
    }
}

#[test]
fn hang_bugs_report_instead_of_looping() {
    // The vectorizer-hang predicate fires and returns promptly — the
    // simulation reports Hang without spinning.
    let src = r#"
int r; int r_0;
void f(void) {
    int n = 0;
    while (--n) { r_0 += r; r += r; r += r; r += r; r += r; }
}
"#;
    let opts = CompileOptions {
        opt_level: 3,
        flags: OptFlags {
            no_tree_vrp: true,
            ..Default::default()
        },
    };
    let start = std::time::Instant::now();
    let result = Compiler::new(Profile::Gcc, opts).compile(src);
    assert!(result.outcome.crash().is_some());
    assert!(start.elapsed().as_secs() < 5);
}

#[test]
fn front_end_rejections_report_the_real_diagnostic() {
    let gcc = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let rejection = |src: &str| match gcc.compile(src).outcome {
        Outcome::Rejected {
            diagnostics,
            first_error,
        } => (diagnostics, first_error),
        other => panic!("{src:?} must be rejected, got {other:?}"),
    };
    let deep_sum = format!("int f(void) {{ return {}; }}", vec!["1"; 20_000].join("+"));
    for (src, message) in [
        (deep_sum.as_str(), "nesting deeper than 64 levels"),
        ("int x = 1 @ 2;", "stray byte 0x40 in program"),
        ("int x; /* never closed", "unterminated block comment"),
    ] {
        let (diagnostics, first_error) = rejection(src);
        assert_eq!(first_error, message);
        let expected = metamut_lang::parse("<t>", src).expect_err("input does not parse");
        assert_eq!(diagnostics, expected.len());
    }
}
