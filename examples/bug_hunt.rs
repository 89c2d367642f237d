//! A miniature RQ2 field experiment: the macro fuzzer (havoc rounds, flag
//! sampling, shared coverage, parallel workers) hunting bugs in both
//! simulated compilers.
//!
//! Run with: `cargo run --release --example bug_hunt [iterations_per_worker]`

use metamut_fuzzing::corpus;
use metamut_fuzzing::macro_fuzzer::{run_field_experiment, MacroConfig};
use metamut_simcomp::Profile;
use std::sync::Arc;

fn main() {
    let iterations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);

    let mutators = Arc::new(metamut_mutators::full_registry());
    let seeds: Vec<String> = corpus::seed_corpus()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let config = MacroConfig {
        iterations_per_worker: iterations,
        workers: 4,
        seed: 0xF00D,
        ..Default::default()
    };

    for profile in [Profile::Gcc, Profile::Clang] {
        println!(
            "hunting in {} with {} mutators, {} workers x {} iterations ...",
            profile.name(),
            mutators.len(),
            config.workers,
            config.iterations_per_worker
        );
        let report = run_field_experiment(profile, Arc::clone(&mutators), seeds.clone(), &config);
        println!(
            "  {} compiles, {} covered branches, {} unique bugs:",
            report.total_compiles,
            report.final_coverage,
            report.bugs.len()
        );
        for bug in &report.bugs {
            println!(
                "  - {} [{} / {}] with {}",
                bug.bug_id, bug.stage, bug.consequence, bug.flags
            );
        }
        println!();
    }
    println!("(increase the iteration budget to surface the rarer back-end bugs,");
    println!(" exactly like extending the paper's eight-month campaign)");
}
