//! Pins what the UB gate may not change: at one worker, the campaign's
//! coverage, crash records and seed pool depend only on which candidates
//! the gate keeps out of the campaign's state, never on which candidates
//! it is asked about. μCFuzz (full registry, seed corpus) on gcc-sim -O2,
//! 2,000 iterations, over several RNG seeds; the canonical seed 7 is
//! pinned in `outcome_pin.rs`.

use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::generator::TestGenerator;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig};
use metamut_lang::chash::hash128;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use std::sync::Arc;

/// The observable campaign state of one run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    coverage: usize,
    stage_coverage: Vec<usize>,
    /// `(signature, first_iteration)` in discovery order.
    crashes: Vec<(u64, usize)>,
    pool_len: usize,
    /// `hash128` of the pooled programs joined with `\0`.
    pool_hash: u128,
}

fn run(seed: u64) -> Outcome {
    let mut fuzzer = MuCFuzz::new(
        "uCFuzz",
        Arc::new(metamut_mutators::full_registry()),
        seed_corpus().iter().map(|s| s.to_string()),
    );
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 2_000,
        seed,
        workers: 1,
        ..Default::default()
    };
    let report = run_campaign(&mut fuzzer, &compiler, &config);
    let pool = fuzzer.pool_snapshot().expect("μCFuzz snapshots its pool");
    Outcome {
        coverage: report.final_coverage,
        stage_coverage: report.stage_coverage,
        crashes: report
            .crashes
            .iter()
            .map(|c| (c.signature, c.first_iteration))
            .collect(),
        pool_len: fuzzer.pool_len(),
        pool_hash: hash128(pool.programs.join("\0").as_bytes()),
    }
}

fn pinned(
    coverage: usize,
    stage_coverage: [usize; 4],
    crashes: &[(u64, usize)],
    pool_len: usize,
    pool_hash: u128,
) -> Outcome {
    Outcome {
        coverage,
        stage_coverage: stage_coverage.to_vec(),
        crashes: crashes.to_vec(),
        pool_len,
        pool_hash,
    }
}

#[test]
fn seed_1_outcome_is_pinned() {
    let expected = pinned(
        1_008,
        [441, 260, 166, 141],
        &[
            (11_386_002_860_661_090_206, 9),
            (1_657_464_727_990_574_051, 456),
            (9_387_067_230_058_470_606, 846),
            (17_519_588_139_193_135_950, 1_232),
        ],
        362,
        245_627_095_823_845_920_454_760_519_608_861_325_813,
    );
    assert_eq!(run(1), expected);
}

#[test]
fn seed_2_outcome_is_pinned() {
    let expected = pinned(
        1_039,
        [440, 281, 175, 143],
        &[
            (17_519_588_139_193_135_950, 115),
            (1_657_464_727_990_574_051, 288),
            (6_366_869_506_037_295_678, 299),
            (12_543_289_975_968_073_915, 1_085),
        ],
        369,
        331_147_938_629_013_276_984_597_732_888_243_492_041,
    );
    assert_eq!(run(2), expected);
}

#[test]
fn seed_3_outcome_is_pinned() {
    let expected = pinned(
        985,
        [446, 267, 147, 125],
        &[
            (17_519_588_139_193_135_950, 2),
            (6_366_869_506_037_295_678, 353),
            (1_657_464_727_990_574_051, 486),
            (8_901_230_623_459_901_082, 585),
            (12_543_289_975_968_073_915, 1_159),
        ],
        350,
        273_334_335_523_146_385_968_931_751_889_944_111_040,
    );
    assert_eq!(run(3), expected);
}

#[test]
fn seed_11_outcome_is_pinned() {
    let expected = pinned(
        1_017,
        [458, 262, 160, 137],
        &[
            (8_901_230_623_459_901_082, 1),
            (1_657_464_727_990_574_051, 191),
            (17_519_588_139_193_135_950, 575),
            (12_543_289_975_968_073_915, 614),
            (6_366_869_506_037_295_678, 1_624),
        ],
        367,
        228_414_320_319_947_346_554_287_729_974_613_877_701,
    );
    assert_eq!(run(11), expected);
}
