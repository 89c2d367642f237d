//! Experiment: crash-witness reduction over the §5 case studies.
//!
//! Runs the signature-preserving reducer on the four reconstructed
//! case-study crashers (GCC #111820/#111819, Clang #63762/#69213) and
//! records per-crash reduction ratio, oracle-call count, and per-pass byte
//! accounting in `BENCH_reduction.json` at the repository root.
//!
//! The enforced gate: every witness must reduce to at most 25% of its
//! original byte size with the top-two-frame crash signature preserved
//! exactly under the same profile and flags.
//!
//! Usage: `exp_reduction [--smoke]`. The reduction is deterministic and
//! has no timing check, so `--smoke` runs the same workload and only
//! parks the report under `target/experiments/`, so CI never dirties the
//! tree.

use metamut_bench::{render_table, write_bench, Check, ExpOptions};
use metamut_reduce::fixtures::case_studies;
use metamut_reduce::{reduce, ReduceConfig, ReductionOracle};
use metamut_simcomp::Compiler;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct ReductionRow {
    bug_id: String,
    compiler: String,
    flags: String,
    original_bytes: usize,
    reduced_bytes: usize,
    ratio: f64,
    oracle_calls: u64,
    rounds: usize,
    signature_preserved: bool,
    pass_bytes: BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct ReductionResults {
    median_ratio: f64,
    worst_ratio: f64,
    median_oracle_calls: u64,
    rows: Vec<ReductionRow>,
    note: String,
}

fn median<T: Copy + PartialOrd>(values: &mut [T]) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in medians"));
    values[values.len() / 2]
}

fn main() {
    let opts = ExpOptions::from_args();
    println!("== Case-study witness reduction ==\n");

    let mut rows = Vec::new();
    for cs in case_studies() {
        let compiler = Compiler::new(cs.profile, cs.options.clone());
        let crash = compiler
            .compile(cs.source)
            .outcome
            .crash()
            .unwrap_or_else(|| panic!("{}: fixture does not crash", cs.bug_id))
            .clone();
        let oracle = ReductionOracle::new(cs.profile, cs.options.clone(), crash.signature());
        let result = reduce(&oracle, cs.source, &ReduceConfig::default());
        let preserved = compiler
            .compile(&result.reduced)
            .outcome
            .crash()
            .is_some_and(|c| c.signature() == crash.signature());
        rows.push(ReductionRow {
            bug_id: cs.bug_id.to_string(),
            compiler: cs.profile.name().to_string(),
            flags: cs.options.render(),
            original_bytes: result.original_bytes,
            reduced_bytes: result.reduced_bytes,
            ratio: result.ratio(),
            oracle_calls: result.oracle_calls,
            rounds: result.rounds,
            signature_preserved: preserved,
            pass_bytes: result.pass_bytes,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bug_id.clone(),
                format!("{} {}", r.compiler, r.flags),
                format!("{} → {}", r.original_bytes, r.reduced_bytes),
                format!("{:.0}%", r.ratio * 100.0),
                r.oracle_calls.to_string(),
                if r.signature_preserved { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Bug",
                "Compiler",
                "Bytes",
                "Ratio",
                "Oracle calls",
                "Sig kept"
            ],
            &table
        )
    );

    let mut ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
    let mut calls: Vec<u64> = rows.iter().map(|r| r.oracle_calls).collect();
    let worst = ratios.iter().copied().fold(0.0f64, f64::max);
    let checks = vec![
        Check::holds(
            "signatures_preserved",
            rows.iter().all(|r| r.signature_preserved),
        ),
        Check::at_most("worst_ratio", worst, 0.25),
    ];
    let results = ReductionResults {
        median_ratio: median(&mut ratios),
        worst_ratio: worst,
        median_oracle_calls: median(&mut calls),
        rows,
        note: "hierarchical ddmin (decls, statement lists) + semantic shrink passes \
               (drop-unused, inline-calls, shrink-arrays, simplify-exprs) over the \
               reconstructed §5 case-study crashers; oracle = same top-two-frame \
               signature under the same profile and flags"
            .into(),
    };

    write_bench("reduction", &opts, &results, checks);
}
