//! A pooled program is front-ended and analyzed once: the campaign hands
//! the seed pool the compile's parse and the UB gate's finding bit, so
//! the pool neither parses the program again nor analyzes it to schedule
//! it. Two things make that sound and one shows it happens:
//!
//! - the gate's finding bit, read from its per-function memos, is
//!   exactly "a whole-unit analysis finds something", which is the lint
//!   verdict the pool would otherwise compute itself;
//! - pool parses per campaign are bounded by the programs the pool holds
//!   without a parse the campaign made: initial seeds, and pooled mutants
//!   that crashed the front end. A pooled mutant the front end rejected
//!   is handed over as not parsing, which is sound because the front end
//!   rejects exactly what `ParsedProgram::parse` fails on.

use metamut_analyze::{analyze_unit, UbGate};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::csmith::CsmithLike;
use metamut_fuzzing::generator::TestGenerator;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig};
use metamut_muast::{MutRng, ParsedProgram};
use metamut_simcomp::{CompileOptions, Compiler, Outcome, Profile};
use std::sync::Arc;

fn gcc_o2() -> Compiler {
    Compiler::new(Profile::Gcc, CompileOptions::o2())
}

/// The canonical campaign: μCFuzz, full registry, seed corpus, gcc-sim
/// -O2, one worker.
fn campaign(iterations: usize) -> MuCFuzz {
    let mut fuzzer = MuCFuzz::new(
        "uCFuzz",
        Arc::new(metamut_mutators::full_registry()),
        seed_corpus().iter().map(|s| s.to_string()),
    );
    let config = CampaignConfig {
        iterations,
        seed: 7,
        workers: 1,
        ..Default::default()
    };
    run_campaign(&mut fuzzer, &gcc_o2(), &config);
    fuzzer
}

#[test]
fn the_gate_finding_bit_is_a_whole_unit_analysis() {
    let mut rng = MutRng::new(7);
    let csmith = CsmithLike::new();
    let pooled = campaign(2_000)
        .pool_snapshot()
        .expect("μCFuzz snapshots its pool")
        .programs;
    let sets: [(&str, Vec<String>); 3] = [
        (
            "seed corpus",
            seed_corpus().iter().map(|s| s.to_string()).collect(),
        ),
        (
            "Csmith-like",
            (0..50).map(|_| csmith.generate(&mut rng)).collect(),
        ),
        ("pooled", pooled),
    ];
    // One gate across all sets, so later programs read memos earlier
    // ones stored, as in a campaign.
    let gate = UbGate::new();
    let mut linty = 0;
    for (set, programs) in &sets {
        for program in programs {
            let ast = metamut_lang::parse("<test>", program).ok();
            let verdict = gate.judge_parsed(None, None, program, ast.as_ref());
            let expected = ast.as_ref().is_some_and(|a| !analyze_unit(a).is_empty());
            assert_eq!(
                verdict.any_finding, expected,
                "{set} program disagrees:\n{program}"
            );
            linty += usize::from(expected);
        }
    }
    // The check is not vacuous: some programs carry findings.
    println!("programs with findings: {linty}");
    assert!(linty > 0);
}

#[test]
fn a_campaign_pool_parses_few_programs_itself() {
    let fuzzer = campaign(5_000);
    let parses = fuzzer.parse_count();
    println!("pool parses: {parses} of {} programs", fuzzer.pool_len());
    assert!(
        parses <= 31,
        "the pool parsed {parses} of {} programs itself",
        fuzzer.pool_len()
    );
    // Every mutant pooled as rejected, hence as not parsing, indeed does
    // not parse.
    let seeds = seed_corpus().len();
    let pooled = fuzzer.pool_snapshot().expect("μCFuzz snapshots its pool");
    let mut rejected = 0;
    for program in &pooled.programs[seeds..] {
        if matches!(gcc_o2().compile(program).outcome, Outcome::Rejected { .. }) {
            assert!(ParsedProgram::parse(program).is_err(), "parses:\n{program}");
            rejected += 1;
        }
    }
    println!("pooled as not parsing: {rejected}");
    assert!(rejected > 0);
}
