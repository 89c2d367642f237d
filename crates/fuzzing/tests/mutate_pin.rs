//! Pins what every mutator in `full_registry()` does to two program sets:
//! the seed corpus and the first 50 seed-7 Csmith-like programs. Each
//! program is parsed once with `ParsedProgram::parse`; every mutator then
//! runs against it with attempt seeds 0..4. The test pins the tally of
//! `Mutated` / `NotApplicable` / `Conflict` outcomes plus a 128-bit digest
//! over every outcome and mutant text, so a change to how mutators collect
//! their instances, draw from the RNG or queue rewrites that moves a single
//! mutant byte fails here.

use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::csmith::CsmithLike;
use metamut_lang::chash::Sip128;
use metamut_muast::{mutate_parsed, MutRng, MutateError, MutationOutcome, ParsedProgram};

/// Attempt seeds per (program, mutator) pair.
const SEEDS: u64 = 4;
/// The first this many seed-7 Csmith-like programs.
const CSMITH_PROGRAMS: usize = 50;

/// `(mutated, not_applicable, conflict)` attempts, and the digest.
type Pin = ((usize, usize, usize), u128);

const SEED_CORPUS: Pin = ((3_992, 4_360, 0), 0xe7d77c9fe545c40e27c59273059ea336);
const CSMITH_LIKE: Pin = ((11_328, 6_072, 0), 0x11db96ac76c9f683d68cbf9d7fec73f7);

fn pin(programs: &[String]) -> Pin {
    let registry = metamut_mutators::full_registry();
    let mut tally = (0, 0, 0);
    let mut digest = Sip128::default();
    for src in programs {
        let parsed = ParsedProgram::parse(src).expect("every pinned program compiles");
        for reg in registry.iter() {
            let m = &*reg.mutator;
            for seed in 0..SEEDS {
                digest.write_str(m.name());
                digest.write_u64(seed);
                match mutate_parsed(m, &parsed, seed) {
                    Ok(MutationOutcome::Mutated(text)) => {
                        tally.0 += 1;
                        digest.write(b"M");
                        digest.write_str(&text);
                    }
                    Ok(MutationOutcome::NotApplicable) => {
                        tally.1 += 1;
                        digest.write(b"N");
                    }
                    Err(MutateError::Conflict(c)) => {
                        tally.2 += 1;
                        digest.write(b"C");
                        digest.write_str(&c.to_string());
                    }
                    Err(MutateError::BadInput(d)) => panic!("parsed input rejected: {d}"),
                }
            }
        }
    }
    (tally, digest.finish128())
}

#[test]
fn seed_corpus_mutants_are_pinned() {
    let programs: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    assert_eq!(pin(&programs), SEED_CORPUS);
}

#[test]
fn csmith_like_mutants_are_pinned() {
    let mut rng = MutRng::new(7);
    let gen = CsmithLike::new();
    let programs: Vec<String> = (0..CSMITH_PROGRAMS)
        .map(|_| gen.generate(&mut rng))
        .collect();
    assert_eq!(pin(&programs), CSMITH_LIKE);
}
