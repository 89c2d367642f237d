//! Pins two runs whose shared state rests on concurrency and buffer
//! primitives: a 1-worker macro-fuzzer field experiment (gcc-sim, full
//! registry, seed corpus, seed 31, 500 iterations) and a seed-7,
//! 500-iteration AFL++ campaign on gcc-sim -O2. Swapping the coverage map,
//! the worker scope or the byte buffer underneath either run must leave
//! every figure here unchanged.

use metamut_fuzzing::aflpp::AflPlusPlus;
use metamut_fuzzing::campaign::MutantStats;
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::{run_campaign, run_field_experiment, CampaignConfig, MacroConfig};
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use std::sync::Arc;

const FIELD_COMPILES: usize = 500;
const FIELD_COVERAGE: usize = 752;
/// `(bug_id, flags)` in discovery order.
const FIELD_BUGS: [(&str, &str); 1] = [("gcc-opt-dead-branch", "-O2")];

const AFL_COVERAGE: usize = 498;
const AFL_STAGE_COVERAGE: [usize; 4] = [434, 32, 12, 20];
/// `(signature, first_iteration)` in discovery order.
const AFL_CRASHES: [(u64, usize); 3] = [
    (17_089_872_742_994_662_198, 138),
    (1_242_899_027_813_195_415, 218),
    (8_481_077_099_688_745_879, 280),
];
const AFL_MUTANTS: MutantStats = MutantStats {
    total: 500,
    compilable: 3,
};

fn seeds() -> Vec<String> {
    seed_corpus().iter().map(|s| s.to_string()).collect()
}

#[test]
fn single_worker_field_experiment_is_pinned() {
    let report = run_field_experiment(
        Profile::Gcc,
        Arc::new(metamut_mutators::full_registry()),
        seeds(),
        &MacroConfig {
            iterations_per_worker: 500,
            workers: 1,
            seed: 31,
            ..Default::default()
        },
    );
    let bugs: Vec<(&str, &str)> = report
        .bugs
        .iter()
        .map(|b| (b.bug_id.as_str(), b.flags.as_str()))
        .collect();
    assert_eq!(report.total_compiles, FIELD_COMPILES);
    assert_eq!(report.final_coverage, FIELD_COVERAGE);
    assert_eq!(bugs, FIELD_BUGS);
}

#[test]
fn aflpp_campaign_is_pinned() {
    let mut fuzzer = AflPlusPlus::new(seeds());
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 500,
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
    assert_eq!(report.final_coverage, AFL_COVERAGE);
    assert_eq!(report.stage_coverage, AFL_STAGE_COVERAGE);
    assert_eq!(crashes, AFL_CRASHES);
    assert_eq!(report.mutants, AFL_MUTANTS);
}
