//! Property-based tests over the core invariants, using proptest:
//!
//! - the front end never panics on arbitrary byte soup;
//! - the pretty printer is a parser fixpoint;
//! - the rewriter applies non-overlapping edits faithfully;
//! - generator programs always compile; mutants of them parse or fail
//!   cleanly (never panic);
//! - the coverage map behaves like the monotone set it claims to be;
//! - the campaign's memoized UB gate agrees with the reference analysis.

use metamut::prelude::*;
use metamut_muast::MutRng;
use metamut_simcomp::{AtomicCoverage, CoverageMap, Stage};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary input must produce Ok or Err — never a panic — from the
    /// whole front end (the fuzzers feed it byte soup all day).
    #[test]
    fn frontend_total_on_arbitrary_bytes(src in "[ -~\\n]{0,300}") {
        let _ = compile_check(&src);
    }

    /// Token-soup inputs built from C fragments exercise deeper parser
    /// paths; still no panics allowed.
    #[test]
    fn frontend_total_on_c_fragments(parts in proptest::collection::vec(
        prop_oneof![
            Just("int"), Just("x"), Just("("), Just(")"), Just("{"), Just("}"),
            Just(";"), Just("="), Just("1"), Just("+"), Just("if"), Just("else"),
            Just("while"), Just("return"), Just("*"), Just(","), Just("struct"),
            Just("[3]"), Just("\"s\""), Just("'c'"), Just("goto l;"), Just("l:")
        ],
        0..40,
    )) {
        let src = parts.join(" ");
        let _ = compile_check(&src);
    }

    /// The Csmith-like generator only emits valid programs, and printing a
    /// parsed program then reparsing it is a fixpoint.
    #[test]
    fn generated_programs_roundtrip(seed in any::<u64>()) {
        let gen = metamut_fuzzing::csmith::CsmithLike::new();
        let mut rng = MutRng::new(seed);
        let src = gen.generate(&mut rng);
        let (ast, _) = compile(&src).expect("generator output compiles");
        let printed = metamut_lang::printer::print_unit(&ast.unit);
        let reparsed = parse("p.c", &printed).expect("printed output parses");
        let printed2 = metamut_lang::printer::print_unit(&reparsed.unit);
        prop_assert_eq!(printed, printed2);
    }

    /// The YARPGen-like generator only emits valid programs.
    #[test]
    fn yarpgen_programs_compile(seed in any::<u64>()) {
        let gen = metamut_fuzzing::yarpgen::YarpGenLike::new();
        let mut rng = MutRng::new(seed);
        let src = gen.generate(&mut rng);
        prop_assert!(compile_check(&src).is_ok());
    }

    /// Every library mutator, on every generated program: the driver
    /// returns cleanly, and whatever mutant it yields parses or is rejected
    /// without panicking. Additionally the mutant differs from its input.
    #[test]
    fn mutants_never_break_the_driver(seed in any::<u64>(), pick in any::<u16>()) {
        let gen = metamut_fuzzing::csmith::CsmithLike::new();
        let mut rng = MutRng::new(seed);
        let src = gen.generate(&mut rng);
        let reg = metamut::mutators::full_registry();
        let entry = reg.iter().nth(pick as usize % reg.len()).unwrap();
        match mutate_source(entry.mutator.as_ref(), &src, seed ^ 0xABCD) {
            Ok(MutationOutcome::Mutated(m)) => {
                prop_assert_ne!(&m, &src, "{} produced identity", entry.mutator.name());
                let _ = compile_check(&m);
            }
            Ok(MutationOutcome::NotApplicable) => {}
            Err(e) => return Err(TestCaseError::fail(format!(
                "{} errored: {e}", entry.mutator.name()
            ))),
        }
    }

    /// Rewriter: applying a set of non-overlapping replacements yields
    /// exactly the expected splice.
    #[test]
    fn rewriter_splices_correctly(
        src in "[a-z]{20,60}",
        cuts in proptest::collection::btree_set(0usize..10, 1..4),
    ) {
        // Build disjoint spans [2i, 2i+1) over the first 20 chars.
        let mut rw = metamut_lang::Rewriter::new(&src);
        let mut expected: Vec<u8> = src.clone().into_bytes();
        for &i in cuts.iter().rev() {
            let lo = (2 * i) as u32;
            rw.replace(metamut_lang::Span::new(lo, lo + 1), "Z");
            expected[2 * i] = b'Z';
        }
        prop_assert_eq!(rw.apply().unwrap(), String::from_utf8(expected).unwrap());
    }

    /// Coverage maps are monotone sets: recording is idempotent, merge is a
    /// union, counts never decrease.
    #[test]
    fn coverage_map_is_monotone(features in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut a = CoverageMap::new();
        let mut last = 0;
        for &f in &features {
            a.record(Stage::Opt, f);
            let now = a.count();
            prop_assert!(now >= last);
            prop_assert!(a.contains(Stage::Opt, f));
            last = now;
        }
        // Idempotence.
        let before = a.count();
        for &f in &features {
            prop_assert!(!a.record(Stage::Opt, f));
        }
        prop_assert_eq!(a.count(), before);
        // Merge = union.
        let mut b = CoverageMap::new();
        b.record(Stage::Opt, features[0]);
        let mut merged = b.clone();
        merged.merge(&a);
        prop_assert_eq!(merged.count(), a.count().max(merged.count()));
        // Probing predicts merging: on a shared map holding the first half
        // of the features, `would_add` on the first and last feature holds
        // iff merging them credits at least one new bit, and never after
        // that merge.
        let shared = AtomicCoverage::new();
        let mut half = CoverageMap::new();
        for &f in &features[..features.len() / 2] {
            half.record(Stage::Opt, f);
        }
        shared.merge(&half);
        let mut ends = CoverageMap::new();
        ends.record(Stage::Opt, features[0]);
        ends.record(Stage::Opt, features[features.len() - 1]);
        let would_add = shared.would_add(&ends);
        prop_assert_eq!(would_add, shared.merge(&ends) > 0);
        prop_assert!(!shared.would_add(&ends));
    }

    /// Compiling is a pure function of (source, profile, options): same
    /// input, same outcome, same coverage count.
    #[test]
    fn compiler_is_deterministic(seed in any::<u64>()) {
        let gen = metamut_fuzzing::csmith::CsmithLike::new();
        let mut rng = MutRng::new(seed);
        let src = gen.generate(&mut rng);
        let c = Compiler::new(Profile::Clang, CompileOptions::o2());
        let r1 = c.compile(&src);
        let r2 = c.compile(&src);
        prop_assert_eq!(r1.outcome, r2.outcome);
        prop_assert_eq!(r1.coverage.count(), r2.coverage.count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutation is deterministic: the same (mutator, source, seed) triple
    /// always yields the same outcome — the property campaign resumability
    /// and the experiment harness depend on.
    #[test]
    fn mutation_is_deterministic(seed in any::<u64>(), pick in any::<u16>()) {
        let reg = metamut::mutators::full_registry();
        let entry = reg.iter().nth(pick as usize % reg.len()).unwrap();
        let src = metamut_fuzzing::corpus::SEEDS[seed as usize % metamut_fuzzing::corpus::SEEDS.len()];
        let a = mutate_source(entry.mutator.as_ref(), src, seed);
        let b = mutate_source(entry.mutator.as_ref(), src, seed);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => return Err(TestCaseError::fail("nondeterministic outcome class")),
        }
    }

    /// Campaign crash records always carry catalogued bugs with consistent
    /// stage/kind metadata.
    #[test]
    fn crashes_are_catalogued(seed in any::<u64>()) {
        use metamut_fuzzing::mucfuzz::MuCFuzz;
        use std::sync::Arc;
        let seeds: Vec<String> = metamut_fuzzing::corpus::seed_corpus()
            .iter().map(|s| s.to_string()).collect();
        let mut f = MuCFuzz::new(
            "uCFuzz",
            Arc::new(metamut::mutators::full_registry()),
            seeds.iter().cloned(),
        );
        let compiler = Compiler::new(Profile::Clang, CompileOptions::o2());
        let report = run_campaign(&mut f, &compiler, &CampaignConfig {
            iterations: 40,
            seed,
            sample_every: 40,
            ..Default::default()
        });
        for c in &report.crashes {
            let bug = metamut_simcomp::bugs::catalog()
                .iter()
                .find(|b| b.id == c.info.bug_id)
                .expect("crash references a catalogued bug");
            prop_assert_eq!(bug.stage, c.info.stage);
            prop_assert_eq!(bug.kind, c.info.kind);
            prop_assert_eq!(bug.profile, Profile::Clang);
        }
    }
}

/// One gate for every case, so later cases run against warm summary
/// memos and cached parent baselines, as in a campaign.
fn shared_gate() -> &'static metamut_analyze::UbGate {
    static GATE: std::sync::OnceLock<metamut_analyze::UbGate> = std::sync::OnceLock::new();
    GATE.get_or_init(metamut_analyze::UbGate::new)
}

/// A second shared gate that only ever sees the compiler's parse, so its
/// verdicts never come from the text wrapper's cache.
fn shared_parsed_gate() -> &'static metamut_analyze::UbGate {
    static GATE: std::sync::OnceLock<metamut_analyze::UbGate> = std::sync::OnceLock::new();
    GATE.get_or_init(metamut_analyze::UbGate::new)
}

proptest! {
    // Cases are cheap, and only about one stacked mutant in a hundred
    // introduces UB, so many cases are needed to reach the gate's `true`
    // verdicts.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The UB gate (summary memos, parent baselines, verdict cache) is a
    /// faster route to the reference verdicts: with a parent it agrees
    /// with `first_new_ub`, without one with "the mutant has a UB
    /// finding". Its text entry point and its entry point on the
    /// compiler's parse return the same verdict. The mutant stacks one to
    /// four library mutators on a corpus seed, like a campaign's havoc
    /// step.
    #[test]
    fn ub_gate_agrees_with_reference_analysis(
        pick_seed in any::<u16>(),
        picks in proptest::collection::vec(any::<u16>(), 1..5),
        seed in any::<u64>(),
    ) {
        let seeds = metamut_fuzzing::corpus::seed_corpus();
        let parent = seeds[pick_seed as usize % seeds.len()];
        let reg = metamut::mutators::full_registry();
        let mut mutant = parent.to_string();
        for (k, pick) in picks.iter().enumerate() {
            let entry = reg.iter().nth(*pick as usize % reg.len()).unwrap();
            let step_seed = seed.wrapping_add(k as u64);
            if let Ok(MutationOutcome::Mutated(m)) =
                mutate_source(entry.mutator.as_ref(), &mutant, step_seed)
            {
                mutant = m;
            }
        }
        let gate = shared_gate();
        let with_parent = gate.introduces_new_ub(Some(parent), &mutant);
        prop_assert_eq!(
            with_parent,
            metamut_analyze::first_new_ub(parent, &mutant).is_some(),
            "mutant:\n{}", mutant
        );
        let has_ub = metamut_analyze::analyze_source(&mutant)
            .is_ok_and(|findings| findings.iter().any(|f| f.is_ub()));
        let without_parent = gate.introduces_new_ub(None, &mutant);
        prop_assert_eq!(without_parent, has_ub, "mutant:\n{}", mutant);

        let ast = metamut_simcomp::Compiler::new(
            metamut_simcomp::Profile::Gcc,
            metamut_simcomp::CompileOptions::o2(),
        )
        .compile(&mutant)
        .ast;
        let parsed_gate = shared_parsed_gate();
        for (parent, text_verdict) in [(Some(parent), with_parent), (None, without_parent)] {
            prop_assert_eq!(
                parsed_gate.introduces_new_ub_parsed(parent, &mutant, ast.as_ref()),
                text_verdict,
                "mutant:\n{}", mutant
            );
        }
    }
}
