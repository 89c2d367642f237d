//! Pins the observable outcome of the canonical campaign and of the
//! case-study reductions as constants: a seed-7, 2,000-iteration μCFuzz
//! campaign on gcc-sim -O2 with one worker, and the four
//! `reduce::fixtures::case_studies()` witnesses reduced with the default
//! configuration. Any change to how programs are compiled, gated, deduped
//! or reduced that moves one of these figures is a behaviour change.

use metamut_fuzzing::campaign::{MutantStats, UbStats};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig, DedupStats};
use metamut_reduce::fixtures::case_studies;
use metamut_reduce::{reduce, ReduceConfig, ReductionOracle};
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use std::sync::Arc;

const FINAL_COVERAGE: usize = 1_017;
const STAGE_COVERAGE: [usize; 4] = [448, 267, 168, 134];
/// `(signature, first_iteration)` in discovery order.
const CRASHES: [(u64, usize); 4] = [
    (1_657_464_727_990_574_051, 192),
    (17_519_588_139_193_135_950, 231),
    (8_901_230_623_459_901_082, 393),
    (12_543_289_975_968_073_915, 1_641),
];
const MUTANTS: MutantStats = MutantStats {
    total: 2_000,
    compilable: 1_829,
};
const DEDUP: DedupStats = DedupStats {
    hits: 320,
    misses: 1_680,
    unique: 1_657,
};
const UB: UbStats = UbStats {
    checked: 1_680,
    filtered: 23,
    fast_path: 0,
    summary_hits: 2_026,
    summary_recomputes: 2_626,
};

#[test]
fn canonical_campaign_outcome_is_pinned() {
    let mut fuzzer = MuCFuzz::new(
        "uCFuzz",
        Arc::new(metamut_mutators::full_registry()),
        seed_corpus().iter().map(|s| s.to_string()),
    );
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 2_000,
        seed: 7,
        workers: 1,
        ..Default::default()
    };
    let report = run_campaign(&mut fuzzer, &compiler, &config);
    let crashes: Vec<(u64, usize)> = report
        .crashes
        .iter()
        .map(|c| (c.signature, c.first_iteration))
        .collect();
    let dedup = report.dedup.expect("dedup is on by default");
    let ub = report.ub.expect("the UB filter is on by default");
    assert_eq!(report.final_coverage, FINAL_COVERAGE);
    assert_eq!(report.stage_coverage, STAGE_COVERAGE);
    assert_eq!(crashes, CRASHES);
    assert_eq!(report.mutants, MUTANTS);
    assert_eq!(dedup, DEDUP);
    assert_eq!(ub, UB);
}

/// `(bug id, reduced witness, oracle calls)` per case study.
const REDUCED: [(&str, &str, u64); 4] = [
    (
        "gcc-111820-vectorizer-hang",
        "int r;\n\nvoid f(void)\n{\n    int n = 0;\n    while (--n)\n        {\n            \
         r += r;\n            r += r;\n            r += r;\n        }\n}\n\n",
        73,
    ),
    (
        "gcc-111819-fold-offsetof",
        "int *bar(void)\n{\n    return (int *)&__imag__ (*(double _Complex *)0);\n}\n\n",
        45,
    ),
    (
        "clang-63762-label-codegen",
        "void foo(int x[1], int y[1])\n{\n    helper(x, y);\n    gt:\n    ;\n    lt:\n    ;\n}\n\n",
        28,
    ),
    (
        "clang-69213-scalar-brace",
        "int foo(int *ptr)\n{\n    0 = (int){{}};\n}\n\n",
        18,
    ),
];

#[test]
fn case_study_reductions_are_pinned() {
    let reduced: Vec<(&str, String, u64)> = case_studies()
        .iter()
        .map(|cs| {
            let oracle = ReductionOracle::for_witness(cs.profile, cs.options.clone(), cs.source)
                .expect("fixture crashes");
            let result = reduce(&oracle, cs.source, &ReduceConfig::default());
            (cs.bug_id, result.reduced, result.oracle_calls)
        })
        .collect();
    let pinned: Vec<(&str, String, u64)> = REDUCED
        .iter()
        .map(|&(id, text, calls)| (id, text.to_string(), calls))
        .collect();
    assert_eq!(reduced, pinned);
}
