//! Contracts of the interprocedural summary layer: recall on the seeded
//! cross-call fixture corpus, silence on its clean controls, chain
//! payloads on propagated findings, and agreement between the
//! summary-driven verdict and analyzing the callee-inlined program.

use metamut_analyze::fixtures::{CLEAN_FIXTURES, INTERPROC_CLEAN_FIXTURES, INTERPROC_UB_FIXTURES};
use metamut_analyze::{analyze_source, analyze_unit_with, Finding, Severity, Summaries};
use metamut_lang::parse;
use proptest::strategy::any;
use proptest::test_runner::ProptestConfig;
use proptest::{prop_assert_eq, proptest};

/// The strictly intraprocedural analysis (the PR 5 behavior): every
/// callee unknown.
fn analyze_intraproc(src: &str) -> Vec<Finding> {
    let ast = parse("<intra>", src).expect("fixture parses");
    analyze_unit_with(&ast, &Summaries::default())
}

#[test]
fn interproc_corpus_is_large_enough() {
    assert!(
        INTERPROC_UB_FIXTURES.len() >= 16,
        "need >= 16 seeded interprocedural-UB fixtures"
    );
    assert!(
        INTERPROC_CLEAN_FIXTURES.len() >= 12,
        "need >= 12 interprocedural clean fixtures"
    );
}

#[test]
fn every_interproc_ub_fixture_is_flagged() {
    for (name, analysis, src) in INTERPROC_UB_FIXTURES {
        let findings =
            analyze_source(src).unwrap_or_else(|e| panic!("fixture {name} failed to parse: {e:?}"));
        assert!(
            findings
                .iter()
                .any(|f| f.analysis == *analysis && f.severity == Severity::Ub),
            "fixture {name}: expected a Ub `{analysis}` finding, got {findings:#?}"
        );
    }
}

#[test]
fn interproc_fixtures_need_summaries() {
    // Every seeded defect crosses a call boundary: the intraprocedural
    // analyzer must see *no UB at all* in each fixture — otherwise the
    // fixture does not actually exercise the summary layer.
    for (name, _, src) in INTERPROC_UB_FIXTURES {
        let findings = analyze_intraproc(src);
        assert!(
            findings.iter().all(|f| !f.is_ub()),
            "fixture {name}: intraprocedural analysis already flags it: {findings:#?}"
        );
    }
}

#[test]
fn interproc_clean_corpus_has_zero_findings() {
    for (name, src) in INTERPROC_CLEAN_FIXTURES {
        let findings =
            analyze_source(src).unwrap_or_else(|e| panic!("fixture {name} failed to parse: {e:?}"));
        assert!(
            findings.is_empty(),
            "fixture {name}: expected no findings, got {findings:#?}"
        );
    }
}

#[test]
fn summaries_do_not_disturb_the_intraproc_clean_corpus() {
    // The original clean corpus must stay clean under the summary-driven
    // default analysis too.
    for (name, src) in CLEAN_FIXTURES {
        let findings = analyze_source(src).unwrap();
        assert!(
            findings.is_empty(),
            "fixture {name}: interproc analysis broke a clean fixture: {findings:#?}"
        );
    }
}

#[test]
fn propagated_findings_carry_call_chains() {
    let src = "int inner(int d) { return 10 / d; }\n\
               int mid(int d) { return inner(d); }\n\
               int f(void) { return mid(0); }\n";
    let findings = analyze_source(src).unwrap();
    let f = findings
        .iter()
        .find(|f| f.analysis == "div-by-zero" && f.function == "f")
        .expect("chained div-by-zero in f");
    assert_eq!(
        f.chain
            .iter()
            .map(|l| l.function.as_str())
            .collect::<Vec<_>>(),
        ["mid", "inner"],
        "chain walks outermost-first through the call path: {f:#?}"
    );
    // Each link's span must be non-empty and lie inside the source.
    for link in &f.chain {
        assert!(link.span.hi > link.span.lo && (link.span.hi as usize) <= src.len());
    }
}

#[test]
fn by_value_uninit_arg_gains_a_chain() {
    // Passing an uninitialized local by value is already caught
    // intraprocedurally (evaluating the argument is the read); the
    // summary's job is to attach the chain to where the callee uses it —
    // without duplicating the finding.
    let src = "int use2(int v) { return v + 1; }\n\
               int f(void) { int x; return use2(x); }\n";
    let interproc = analyze_source(src).unwrap();
    let uninit: Vec<&Finding> = interproc
        .iter()
        .filter(|f| f.analysis == "uninit-read")
        .collect();
    assert_eq!(uninit.len(), 1, "exactly one finding: {interproc:#?}");
    assert_eq!(
        uninit[0]
            .chain
            .iter()
            .map(|l| l.function.as_str())
            .collect::<Vec<_>>(),
        ["use2"]
    );
    // Identity is preserved: the enriched finding has the same key the
    // intraprocedural one would, so gate baselines stay comparable.
    let intra = analyze_intraproc(src);
    let intra_uninit = intra.iter().find(|f| f.analysis == "uninit-read").unwrap();
    assert_eq!(uninit[0].key(), intra_uninit.key());
}

#[test]
fn intraproc_mode_flags_no_chains() {
    for (name, _, src) in INTERPROC_UB_FIXTURES {
        for f in analyze_intraproc(src) {
            assert!(
                f.chain.is_empty(),
                "fixture {name}: intraprocedural finding with a chain: {f:#?}"
            );
        }
    }
}

// ======================================================================
// Inline agreement: the summary verdict matches analyzing the program
// with the callee hand-inlined.
// ======================================================================

/// Generated caller/callee pairs where the callee's body can be inlined
/// textually. Each case is `(summary_src, inlined_src)`; both must agree
/// on whether any UB is present (the finding keys differ — spans and
/// functions move — so only the verdict is compared).
fn agreement_cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    // Div-by-param with a pinned constant argument. The callee reads its
    // parameter, so by-value demand matches the inlined read.
    for divisor in [0i64, 1, 7] {
        cases.push((
            format!(
                "int cal(int a, int b) {{ return a / b; }}\n\
                 int f(int a) {{ return cal(a, {divisor}); }}\n"
            ),
            format!("int f(int a) {{ int b = {divisor}; return a / b; }}\n"),
        ));
    }
    // Deref-param with a pinned null / valid pointer.
    cases.push((
        "int load(int *p) { return *p; }\n\
         int f(void) { return load(0); }\n"
            .to_owned(),
        "int f(void) { int *p = 0; return *p; }\n".to_owned(),
    ));
    cases.push((
        "int load(int *p) { return *p; }\n\
         int f(void) { int x = 4; return load(&x); }\n"
            .to_owned(),
        "int f(void) { int x = 4; int *p = &x; return *p; }\n".to_owned(),
    ));
    // Out-arg write-then-read vs read-before-write.
    cases.push((
        "void init(int *p) { *p = 3; }\n\
         int f(void) { int x; init(&x); return x; }\n"
            .to_owned(),
        "int f(void) { int x; x = 3; return x; }\n".to_owned(),
    ));
    cases.push((
        "int peek(int *p) { return *p; }\n\
         int f(void) { int x; return peek(&x); }\n"
            .to_owned(),
        "int f(void) { int x; return x; }\n".to_owned(),
    ));
    // Return-constant flow into a divisor.
    for ret in [0i64, 5] {
        cases.push((
            format!(
                "int c(void) {{ return {ret}; }}\n\
                 int f(int a) {{ return a / c(); }}\n"
            ),
            format!("int f(int a) {{ int r = {ret}; return a / r; }}\n"),
        ));
    }
    // Silent vs observable callee inside a constant-true loop.
    cases.push((
        "void nop(void) { }\n\
         void f(void) { while (1) { nop(); } }\n"
            .to_owned(),
        "void f(void) { while (1) { } }\n".to_owned(),
    ));
    cases.push((
        "volatile int tick;\n\
         void beep(void) { tick = tick + 1; }\n\
         void f(void) { while (1) { beep(); } }\n"
            .to_owned(),
        "volatile int tick;\n\
         void f(void) { while (1) { tick = tick + 1; } }\n"
            .to_owned(),
    ));
    // Array index flowing through a parameter.
    for idx in [2i64, 11] {
        cases.push((
            format!(
                "int t[8];\n\
                 int get(int i) {{ return t[i]; }}\n\
                 int f(void) {{ return get({idx}); }}\n"
            ),
            format!("int t[8];\nint f(void) {{ int i = {idx}; return t[i]; }}\n"),
        ));
    }
    cases
}

#[test]
fn summary_verdicts_agree_with_inlined_analysis() {
    for (summary_src, inlined_src) in agreement_cases() {
        let via_summary = analyze_source(&summary_src)
            .unwrap_or_else(|e| panic!("summary side failed to parse: {e:?}\n{summary_src}"));
        let via_inline = analyze_source(&inlined_src)
            .unwrap_or_else(|e| panic!("inlined side failed to parse: {e:?}\n{inlined_src}"));
        assert_eq!(
            via_summary.iter().any(Finding::is_ub),
            via_inline.iter().any(Finding::is_ub),
            "summary and inlined verdicts disagree:\n--- summary program\n{summary_src}\
             findings: {via_summary:#?}\n--- inlined program\n{inlined_src}\
             findings: {via_inline:#?}"
        );
    }
}

/// Instantiate one randomized agreement pair. `kind` picks the template
/// family; `x`/`y`/`flag` fill in divisors, indices, array sizes, wrapper
/// depth, and pointer/effect shape. Both programs are built from the same
/// parameters, so the inlined side is the ground truth for the summary
/// side's verdict.
fn random_agreement_pair(kind: usize, x: i64, y: i64, flag: bool) -> (String, String) {
    match kind {
        // A constant divisor flowing through a wrapper chain of random
        // depth, exercising transitive summary propagation.
        0 => {
            let depth = y.rem_euclid(3) as usize + 1;
            let mut src = String::from("int w0(int a, int b) { return a / b; }\n");
            for d in 1..depth {
                let prev = d - 1;
                src.push_str(&format!(
                    "int w{d}(int a, int b) {{ return w{prev}(a, b); }}\n"
                ));
            }
            let top = depth - 1;
            src.push_str(&format!("int f(int a) {{ return w{top}(a, {x}); }}\n"));
            (
                src,
                format!("int f(int a) {{ int b = {x}; return a / b; }}\n"),
            )
        }
        // A constant return value flowing into the caller's divisor.
        1 => (
            format!("int c(void) {{ return {x}; }}\nint f(int a) {{ return a / c(); }}\n"),
            format!("int f(int a) {{ int r = {x}; return a / r; }}\n"),
        ),
        // An index parameter against a random-sized global array; the
        // bound crossing depends on how `x` and `y` land.
        2 => {
            let size = y.rem_euclid(8) + 1;
            let idx = x.rem_euclid(16);
            (
                format!(
                    "int t[{size}];\nint get(int i) {{ return t[i]; }}\n\
                     int f(void) {{ return get({idx}); }}\n"
                ),
                format!("int t[{size}];\nint f(void) {{ int i = {idx}; return t[i]; }}\n"),
            )
        }
        // A deref-ing callee handed a null or a valid pointer.
        3 => {
            if flag {
                (
                    "int load(int *p) { return *p; }\nint f(void) { return load(0); }\n".to_owned(),
                    "int f(void) { int *p = 0; return *p; }\n".to_owned(),
                )
            } else {
                (
                    format!(
                        "int load(int *p) {{ return *p; }}\n\
                         int f(void) {{ int v = {x}; return load(&v); }}\n"
                    ),
                    format!("int f(void) {{ int v = {x}; int *p = &v; return *p; }}\n"),
                )
            }
        }
        // An out-pointer callee that either writes or reads the caller's
        // uninitialized local.
        4 => {
            if flag {
                (
                    format!(
                        "void init(int *p) {{ *p = {x}; }}\n\
                         int f(void) {{ int v; init(&v); return v; }}\n"
                    ),
                    format!("int f(void) {{ int v; v = {x}; return v; }}\n"),
                )
            } else {
                (
                    "int peek(int *p) { return *p; }\nint f(void) { int v; return peek(&v); }\n"
                        .to_owned(),
                    "int f(void) { int v; return v; }\n".to_owned(),
                )
            }
        }
        // A silent or observable callee inside a constant-true loop.
        _ => {
            if flag {
                (
                    "void nop(void) { }\nvoid f(void) { while (1) { nop(); } }\n".to_owned(),
                    "void f(void) { while (1) { } }\n".to_owned(),
                )
            } else {
                (
                    "volatile int g;\nvoid obs(void) { g = g + 1; }\n\
                     void f(void) { while (1) { obs(); } }\n"
                        .to_owned(),
                    "volatile int g;\nvoid f(void) { while (1) { g = g + 1; } }\n".to_owned(),
                )
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Randomized version of the agreement contract above: across
    /// generated caller/callee programs, the summary-based verdict must
    /// match analyzing the program with the callee textually inlined
    /// into its caller.
    #[test]
    fn random_summary_verdicts_agree_with_inlined_analysis(
        kind in 0usize..6,
        x in -4i64..10,
        y in 0i64..16,
        flag in any::<bool>(),
    ) {
        let (summary_src, inlined_src) = random_agreement_pair(kind, x, y, flag);
        let via_summary = analyze_source(&summary_src)
            .unwrap_or_else(|e| panic!("summary side failed to parse: {e:?}\n{summary_src}"));
        let via_inline = analyze_source(&inlined_src)
            .unwrap_or_else(|e| panic!("inlined side failed to parse: {e:?}\n{inlined_src}"));
        prop_assert_eq!(
            via_summary.iter().any(Finding::is_ub),
            via_inline.iter().any(Finding::is_ub),
            "summary and inlined verdicts disagree:\n--- summary program\n{}findings: {:#?}\n\
             --- inlined program\n{}findings: {:#?}",
            summary_src, via_summary, inlined_src, via_inline
        );
    }
}
