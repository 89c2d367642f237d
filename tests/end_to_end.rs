//! Cross-crate integration tests: the full MetaMut story — generate
//! mutators with the framework, fuzz the instrumented compilers with them,
//! and reproduce the evaluation's qualitative claims at miniature scale.

use metamut::prelude::*;
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use std::sync::Arc;

/// Generated (unsupervised) mutators are usable end to end: each valid
/// blueprint compiles into an executable mutator that produces compilable
/// mutants of corpus seeds.
#[test]
fn generated_mutators_fuzz_real_seeds() {
    std::panic::set_hook(Box::new(|_| {}));
    let mut mm = metamut::core::default_framework(77);
    let records = mm.run_many(30, 5);
    let _ = std::panic::take_hook();
    let mutators = mm.compiled_valid_mutators(&records);
    assert!(!mutators.is_empty(), "no valid mutators generated");

    let mut produced = 0;
    let mut compiled = 0;
    for (i, m) in mutators.iter().enumerate() {
        for (j, seed) in seed_corpus().iter().enumerate().take(6) {
            if let Ok(MutationOutcome::Mutated(s)) = mutate_source(m, seed, (i * 31 + j) as u64) {
                produced += 1;
                if compile_check(&s).is_ok() {
                    compiled += 1;
                }
            }
        }
    }
    assert!(produced > 10, "only {produced} mutants produced");
    // Validated mutators mostly produce compilable mutants (Table 5's 72%+).
    assert!(
        compiled * 3 >= produced * 2,
        "compilable {compiled}/{produced}"
    );
}

/// The headline RQ1 ordering at miniature scale: μCFuzz.s covers at least
/// as much as μCFuzz.u, and both beat every baseline.
#[test]
fn rq1_coverage_ordering_holds() {
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let cfg = CampaignConfig {
        iterations: 220,
        seed: 9,
        sample_every: 55,
        ..Default::default()
    };
    let mut finals = std::collections::HashMap::new();
    for mut f in metamut_fuzzing::all_fuzzers(&seeds) {
        let report = run_campaign(f.as_mut(), &compiler, &cfg);
        finals.insert(report.fuzzer.clone(), report.final_coverage);
    }
    let s = finals["uCFuzz.s"];
    let u = finals["uCFuzz.u"];
    for baseline in ["AFL++", "GrayC", "Csmith", "YARPGen"] {
        assert!(
            u > finals[baseline],
            "uCFuzz.u ({u}) vs {baseline} ({})",
            finals[baseline]
        );
        assert!(s > finals[baseline]);
    }
}

/// μCFuzz with the full library finds crashes the generators never do, and
/// its crashes reach beyond the front end (Table 4's key claim).
#[test]
fn mucfuzz_reaches_deep_crashes() {
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let mut fuzzer = MuCFuzz::new(
        "uCFuzz.s",
        Arc::new(metamut::mutators::full_registry()),
        seeds.iter().cloned(),
    );
    let cfg = CampaignConfig {
        iterations: 900,
        seed: 4,
        sample_every: 300,
        ..Default::default()
    };
    let report = run_campaign(&mut fuzzer, &compiler, &cfg);
    assert!(
        !report.crashes.is_empty(),
        "no crashes found in 900 iterations"
    );
    assert!(
        report
            .crashes
            .iter()
            .any(|c| c.info.stage != metamut_simcomp::Stage::FrontEnd),
        "all crashes stuck in the front end: {:?}",
        report.crashes
    );
}

/// Campaigns are bit-for-bit reproducible from their seed.
#[test]
fn campaigns_are_deterministic() {
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Clang, CompileOptions::o2());
    let run = |seed| {
        let mut f = MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut::mutators::supervised_registry()),
            seeds.iter().cloned(),
        );
        let cfg = CampaignConfig {
            iterations: 120,
            seed,
            sample_every: 30,
            ..Default::default()
        };
        run_campaign(&mut f, &compiler, &cfg)
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a.final_coverage, b.final_coverage);
    assert_eq!(a.signatures(), b.signatures());
    assert_eq!(a.mutants.compilable, b.mutants.compilable);
    let c = run(124);
    assert!(
        a.final_coverage != c.final_coverage || a.mutants.compilable != c.mutants.compilable,
        "different seeds produced identical campaigns"
    );
}

/// The macro fuzzer's flag sampling unlocks bugs the fixed -O2 campaign
/// cannot reach (the -O3 -fno-tree-vrp vectorizer hang).
#[test]
fn macro_fuzzer_flag_sampling_matters() {
    let report = metamut_fuzzing::run_field_experiment(
        Profile::Gcc,
        Arc::new(metamut::mutators::full_registry()),
        seed_corpus().iter().map(|s| s.to_string()).collect(),
        &metamut_fuzzing::MacroConfig {
            // One worker: the shared-pool interleaving (and therefore the
            // result) is deterministic regardless of machine load.
            iterations_per_worker: 1400,
            workers: 1,
            seed: 31,
            ..Default::default()
        },
    );
    assert!(report.bugs.len() >= 2, "bugs: {:?}", report.bugs.len());
    // Some found bug requires a non -O2 configuration.
    assert!(
        report.bugs.iter().any(|b| !b.flags.starts_with("-O2")),
        "{:?}",
        report
            .bugs
            .iter()
            .map(|b| b.flags.clone())
            .collect::<Vec<_>>()
    );
}

/// The six-fuzzer matrix drives every stage of both compiler profiles.
#[test]
fn both_profiles_reach_all_stages() {
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    for profile in [Profile::Gcc, Profile::Clang] {
        let compiler = Compiler::new(profile, CompileOptions::o2());
        let mut f = MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut::mutators::supervised_registry()),
            seeds.iter().cloned(),
        );
        let report = run_campaign(
            &mut f,
            &compiler,
            &CampaignConfig {
                iterations: 80,
                seed: 6,
                sample_every: 40,
                ..Default::default()
            },
        );
        for (i, covered) in report.stage_coverage.iter().enumerate() {
            assert!(*covered > 0, "{profile:?} stage {i} uncovered");
        }
    }
}
