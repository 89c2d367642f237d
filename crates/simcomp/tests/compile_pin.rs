//! Pins what `Compiler::compile` reports, outcome and coverage bits, on
//! the cold path every fuzzing candidate takes: the first 200 seed-7
//! Csmith-like programs under clang-sim -O3 and gcc-sim -O2, and the seed
//! corpus under both profiles at every `-O` level. Each row pins the
//! outcome tally and a 128-bit digest over every program's outcome and
//! `to_sparse_words()`. A change to the IR, the passes or the back end
//! that moves one of these changed what the compiler observes.

use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::csmith::CsmithLike;
use metamut_lang::chash::Sip128;
use metamut_muast::MutRng;
use metamut_simcomp::{CompileOptions, Compiler, Outcome, Profile};

/// `(case, outcome tally, digest)`.
type Pin = (&'static str, &'static str, u128);

const PINS: [Pin; 10] = [
    (
        "csmith clang-sim -O3",
        "success 200",
        0x5537_d331_924e_bdab_6f27_ee68_6e44_b0f9,
    ),
    (
        "csmith gcc-sim -O2",
        "success 200",
        0x5537_d331_924e_bdab_6f27_ee68_6e44_b0f9,
    ),
    (
        "seeds gcc-sim -O0",
        "success 24",
        0x2888_3d1c_e569_75eb_d281_9c85_b826_d1f8,
    ),
    (
        "seeds gcc-sim -O1",
        "success 24",
        0x9fef_9c62_45e7_b570_89df_d9d4_6335_6a6c,
    ),
    (
        "seeds gcc-sim -O2",
        "success 24",
        0x30fd_20cd_bfed_f464_ff33_487d_ef0d_07ed,
    ),
    (
        "seeds gcc-sim -O3",
        "success 24",
        0xdadc_8ebf_d852_c534_9c3b_47ee_9f24_d9a2,
    ),
    (
        "seeds clang-sim -O0",
        "success 24",
        0x2888_3d1c_e569_75eb_d281_9c85_b826_d1f8,
    ),
    (
        "seeds clang-sim -O1",
        "success 24",
        0x9fef_9c62_45e7_b570_89df_d9d4_6335_6a6c,
    ),
    (
        "seeds clang-sim -O2",
        "success 24",
        0x30fd_20cd_bfed_f464_ff33_487d_ef0d_07ed,
    ),
    (
        "seeds clang-sim -O3",
        "success 24",
        0xdadc_8ebf_d852_c534_9c3b_47ee_9f24_d9a2,
    ),
];

const CSMITH_PROGRAMS: usize = 200;

fn csmith_programs() -> Vec<String> {
    let mut rng = MutRng::new(7);
    let gen = CsmithLike::new();
    (0..CSMITH_PROGRAMS)
        .map(|_| gen.generate(&mut rng))
        .collect()
}

/// `-O<level>` with the flags [`CompileOptions::o2`] and `o3` carry.
fn options(level: u8) -> CompileOptions {
    match level {
        0 => CompileOptions::o0(),
        2 => CompileOptions::o2(),
        3 => CompileOptions::o3(),
        _ => CompileOptions {
            opt_level: level,
            ..CompileOptions::o2()
        },
    }
}

fn profile_name(p: Profile) -> &'static str {
    match p {
        Profile::Gcc => "gcc-sim",
        Profile::Clang => "clang-sim",
    }
}

fn class(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Success { .. } => "success",
        Outcome::Rejected { .. } => "rejected",
        Outcome::Crash(c) => c.bug_id,
    }
}

/// Compiles every program and folds each outcome (class, and the emitted
/// length and spills of a success) and covered bit into one digest; the
/// tally lists the classes in first-seen order with their counts.
fn observe(compiler: &Compiler, programs: &[&str]) -> (String, u128) {
    let mut tally: Vec<(&'static str, usize)> = Vec::new();
    let mut h = Sip128::default();
    for src in programs {
        let r = compiler.compile(src);
        let c = class(&r.outcome);
        match tally.iter_mut().find(|(name, _)| *name == c) {
            Some((_, n)) => *n += 1,
            None => tally.push((c, 1)),
        }
        h.write_str(c);
        if let Outcome::Success { asm_len, spills } = r.outcome {
            h.write_u64(asm_len as u64);
            h.write_u64(spills as u64);
        }
        let words = r.coverage.to_sparse_words();
        h.write_u64(words.len() as u64);
        for (word, bits) in words {
            h.write_u64(u64::from(word));
            h.write_u64(bits);
        }
    }
    let tally = tally
        .iter()
        .map(|(c, n)| format!("{c} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    (tally, h.finish128())
}

#[test]
fn cold_compiles_are_pinned() {
    let csmith = csmith_programs();
    let csmith: Vec<&str> = csmith.iter().map(String::as_str).collect();
    let seeds = seed_corpus();
    let mut cases: Vec<(String, Compiler, &[&str])> = vec![
        (
            "csmith clang-sim -O3".into(),
            Compiler::new(Profile::Clang, CompileOptions::o3()),
            &csmith,
        ),
        (
            "csmith gcc-sim -O2".into(),
            Compiler::new(Profile::Gcc, CompileOptions::o2()),
            &csmith,
        ),
    ];
    for profile in [Profile::Gcc, Profile::Clang] {
        for level in 0..=3 {
            cases.push((
                format!("seeds {} -O{level}", profile_name(profile)),
                Compiler::new(profile, options(level)),
                &seeds,
            ));
        }
    }
    let observed: Vec<(String, String, u128)> = cases
        .iter()
        .map(|(name, compiler, programs)| {
            let (tally, digest) = observe(compiler, programs);
            (name.clone(), tally, digest)
        })
        .collect();
    let pinned: Vec<(String, String, u128)> = PINS
        .iter()
        .map(|(name, tally, digest)| (name.to_string(), tally.to_string(), *digest))
        .collect();
    assert_eq!(observed, pinned);
}
