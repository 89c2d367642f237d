//! Experiment: the RQ2 field campaign (Table 6) — the macro fuzzer with all
//! mutators, flag sampling and parallel workers against both compilers.

use metamut_bench::{render_table, write_json, ExpOptions};
use metamut_fuzzing::corpus;
use metamut_fuzzing::macro_fuzzer::{run_field_experiment, FieldReport, MacroConfig};
use metamut_simcomp::{Profile, Stage};
use std::sync::Arc;

fn main() {
    let opts = ExpOptions::from_args();
    println!(
        "== Table 6: field experiment with the macro fuzzer (seed {}) ==\n",
        opts.seed
    );

    let mutators = Arc::new(metamut_mutators::full_registry());
    let seeds: Vec<String> = corpus::seed_corpus()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let config = MacroConfig {
        iterations_per_worker: opts.iterations.max(200),
        workers: 4,
        seed: opts.seed,
        ..Default::default()
    };

    let mut reports: Vec<(Profile, FieldReport)> = Vec::new();
    for profile in [Profile::Clang, Profile::Gcc] {
        let report = run_field_experiment(profile, Arc::clone(&mutators), seeds.clone(), &config);
        println!(
            "{}: {} compiles, {} branches covered, {} unique bugs",
            profile.name(),
            report.total_compiles,
            report.final_coverage,
            report.bugs.len()
        );
        reports.push((profile, report));
    }
    println!();

    let clang_bugs = &reports[0].1;
    let gcc_bugs = &reports[1].1;
    let total = clang_bugs.bugs.len() + gcc_bugs.bugs.len();

    println!("-- Table 6: overview of found compiler bugs --");
    println!(
        "{}",
        render_table(
            &["", "Clang", "GCC", "Total", "Paper"],
            &[vec![
                "Found bugs".into(),
                clang_bugs.bugs.len().to_string(),
                gcc_bugs.bugs.len().to_string(),
                total.to_string(),
                "81 / 50 / 131".into(),
            ]],
        )
    );

    println!("-- by affected compiler module (paper: FE 48, IR 45, Opt 22, BE 16) --");
    let mut rows = Vec::new();
    for stage in Stage::ALL {
        let c = clang_bugs.by_stage().get(&stage).copied().unwrap_or(0);
        let g = gcc_bugs.by_stage().get(&stage).copied().unwrap_or(0);
        rows.push(vec![
            stage.label().to_string(),
            c.to_string(),
            g.to_string(),
            (c + g).to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["Module", "Clang", "GCC", "Total"], &rows)
    );

    println!("-- by consequence (paper: 111 assertion, 9 segfault, 11 hang) --");
    let mut rows = Vec::new();
    for kind in ["Assertion Failure", "Segmentation Fault", "Hang"] {
        let c = clang_bugs.by_consequence().get(kind).copied().unwrap_or(0);
        let g = gcc_bugs.by_consequence().get(kind).copied().unwrap_or(0);
        rows.push(vec![
            kind.to_string(),
            c.to_string(),
            g.to_string(),
            (c + g).to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["Consequence", "Clang", "GCC", "Total"], &rows)
    );

    println!("-- bug inventory --");
    let mut rows = Vec::new();
    for (_, report) in &reports {
        for b in &report.bugs {
            rows.push(vec![
                b.bug_id.clone(),
                b.compiler.clone(),
                b.stage.label().to_string(),
                b.consequence.clone(),
                b.flags.clone(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["Bug", "Compiler", "Module", "Consequence", "Flags"],
            &rows
        )
    );

    let payload: Vec<&FieldReport> = reports.iter().map(|(_, r)| r).collect();
    let path = write_json("bughunt", &payload);
    println!("report written to {}", path.display());
    metamut_bench::finish();
}
