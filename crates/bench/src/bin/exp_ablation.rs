//! Ablation experiments over the design choices DESIGN.md calls out:
//!
//! A1. Coverage guidance: μCFuzz with the Algorithm 1 feedback loop versus
//!     the same mutators applied blindly to the fixed seed pool.
//! A2. Mutator provenance: supervised (M_s) vs unsupervised (M_u) vs both.
//! A3. Macro-fuzzer havoc depth: 1 mutation round vs stacked rounds.
//!
//! Flag sampling has no run here: the A1 and A2 campaigns fix -O2, and
//! `tests/end_to_end.rs::macro_fuzzer_flag_sampling_matters` asserts that
//! the macro fuzzer's sampled command lines find a bug -O2 alone cannot.

use metamut_bench::{render_table, write_json, ExpOptions};
use metamut_fuzzing::campaign::{run_campaign, CampaignConfig};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::generator::{Candidate, TestGenerator};
use metamut_fuzzing::macro_fuzzer::{run_field_experiment, MacroConfig};
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_muast::MutRng;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use serde::Serialize;
use std::sync::Arc;

/// μCFuzz with the coverage feedback severed: candidates are only ever
/// derived from the original seeds.
struct BlindMuCFuzz(MuCFuzz);

impl TestGenerator for BlindMuCFuzz {
    fn name(&self) -> &'static str {
        "uCFuzz-blind"
    }
    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        self.0.next_candidate(rng)
    }
    fn feedback(&mut self, _c: &Candidate, _new: bool, _ok: bool) {}
    fn pool_len(&self) -> usize {
        self.0.pool_len()
    }
}

#[derive(Serialize)]
struct AblationRow {
    config: String,
    coverage: usize,
    crashes: usize,
}

fn main() {
    let opts = ExpOptions::from_args();
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let cfg = CampaignConfig {
        sample_every: opts.iterations,
        ..opts.campaign_config()
    };
    let mut rows: Vec<AblationRow> = Vec::new();
    let push = |rows: &mut Vec<AblationRow>, config: &str, g: &mut dyn TestGenerator| {
        let r = run_campaign(g, &compiler, &cfg);
        rows.push(AblationRow {
            config: config.to_string(),
            coverage: r.final_coverage,
            crashes: r.crashes.len(),
        });
    };

    println!(
        "== Ablations ({} iterations each, seed {}) ==\n",
        opts.iterations, opts.seed
    );

    // A1: coverage guidance.
    let full = Arc::new(metamut_mutators::full_registry());
    let mut guided = MuCFuzz::new("uCFuzz", Arc::clone(&full), seeds.iter().cloned());
    push(&mut rows, "A1 guided (Algorithm 1)", &mut guided);
    let mut blind = BlindMuCFuzz(MuCFuzz::new(
        "uCFuzz",
        Arc::clone(&full),
        seeds.iter().cloned(),
    ));
    push(&mut rows, "A1 blind (no feedback)", &mut blind);

    // A2: provenance sets.
    let mut sup = MuCFuzz::new(
        "uCFuzz.s",
        Arc::new(metamut_mutators::supervised_registry()),
        seeds.iter().cloned(),
    );
    push(&mut rows, "A2 supervised only (M_s)", &mut sup);
    let mut unsup = MuCFuzz::new(
        "uCFuzz.u",
        Arc::new(metamut_mutators::unsupervised_registry()),
        seeds.iter().cloned(),
    );
    push(&mut rows, "A2 unsupervised only (M_u)", &mut unsup);
    let mut both = MuCFuzz::new("uCFuzz", Arc::clone(&full), seeds.iter().cloned());
    push(&mut rows, "A2 both (M_s ∪ M_u)", &mut both);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.coverage.to_string(),
                r.crashes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["Config", "Coverage", "Crashes"], &table)
    );

    // A3: macro-fuzzer havoc depth (bug counts over a short field run).
    println!("-- macro fuzzer knobs --");
    let mut macro_rows = Vec::new();
    for (label, havoc) in [("A3 havoc=1", 1usize), ("A3 havoc=4", 4)] {
        let report = run_field_experiment(
            Profile::Gcc,
            Arc::clone(&full),
            seeds.clone(),
            &MacroConfig {
                iterations_per_worker: opts.iterations,
                workers: 2,
                seed: opts.seed,
                max_havoc_rounds: havoc,
            },
        );
        macro_rows.push(vec![
            label.to_string(),
            report.final_coverage.to_string(),
            report.bugs.len().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["Config", "Coverage", "Unique bugs"], &macro_rows)
    );
    println!(
        "(flag sampling itself is ablated by the RQ1 campaigns above, which pin -O2:\n\
         the -O3/-fno-tree-vrp bugs in exp_bughunt never appear there)"
    );

    let path = write_json("ablation", &rows);
    println!("report written to {}", path.display());

    // Sanity: guidance and the full set must not hurt.
    let cov = |name: &str| {
        rows.iter()
            .find(|r| r.config.starts_with(name))
            .map(|r| r.coverage)
            .unwrap_or(0)
    };
    assert!(
        cov("A1 guided") > cov("A1 blind"),
        "coverage guidance should help"
    );
    metamut_bench::finish();
}
