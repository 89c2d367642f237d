//! Ablation: cross-shard seed exchange cadence in the parallel engine.
//!
//! PR 2 left an open question: how often should workers broadcast fresh
//! discoveries through the `ExchangeHub`? Every exchange spreads coverage
//! across shards, but publishing and draining inboxes costs lock traffic
//! and duplicates work when shards converge. This bin sweeps
//! `exchange_every` (0 disables the hub entirely) at a fixed worker count
//! and iteration budget and records final coverage, unique crashes, and
//! wall time per setting, so the trade is settled by data instead of the
//! PR 2 default's guess.
//!
//! Usage: `exp_exchange [--iterations N] [--seed N] [--workers N]
//! [--smoke]`. Results go to `target/experiments/exchange.json`.

use metamut_bench::{render_table, write_json, ExpOptions};
use metamut_fuzzing::campaign::CampaignConfig;
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::parallel::run_parallel_campaign;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct ExchangeRow {
    exchange_every: usize,
    coverage: usize,
    crashes: usize,
    elapsed_s: f64,
    execs_per_sec: f64,
}

#[derive(Serialize)]
struct ExchangeReport {
    iterations: usize,
    seed: u64,
    workers: usize,
    rows: Vec<ExchangeRow>,
    note: String,
}

fn main() {
    let opts = ExpOptions::from_args_with(|smoke| ExpOptions {
        iterations: if smoke { 240 } else { 1500 },
        ..ExpOptions::default()
    });
    let workers = if opts.workers <= 1 { 4 } else { opts.workers };
    println!(
        "== Seed-exchange cadence ({} iterations, {} workers, seed {}) ==\n",
        opts.iterations, workers, opts.seed
    );

    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let reg = Arc::new(metamut_mutators::full_registry());

    let mut rows = Vec::new();
    for exchange_every in [0usize, 16, 32, 64, 128, 256] {
        let cfg = CampaignConfig {
            iterations: opts.iterations,
            seed: opts.seed,
            sample_every: opts.iterations,
            workers,
            exchange_every,
            dedup: opts.dedup,
            ..Default::default()
        };
        let started = Instant::now();
        let report = run_parallel_campaign(
            &seeds,
            |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
            &compiler,
            &cfg,
        );
        let elapsed = started.elapsed().as_secs_f64();
        rows.push(ExchangeRow {
            exchange_every,
            coverage: report.final_coverage,
            crashes: report.crashes.len(),
            elapsed_s: elapsed,
            execs_per_sec: opts.iterations as f64 / elapsed,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                if r.exchange_every == 0 {
                    "off".to_string()
                } else {
                    r.exchange_every.to_string()
                },
                r.coverage.to_string(),
                r.crashes.to_string(),
                format!("{:.0}", r.execs_per_sec),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Exchange every", "Coverage", "Crashes", "Execs/s"],
            &table
        )
    );

    let best_cov = rows.iter().map(|r| r.coverage).max().unwrap_or(0);
    let off_cov = rows
        .iter()
        .find(|r| r.exchange_every == 0)
        .map(|r| r.coverage)
        .unwrap_or(0);
    println!(
        "coverage: {} with exchange off, {} at the best cadence ({:+})",
        off_cov,
        best_cov,
        best_cov as i64 - off_cov as i64
    );

    let report = ExchangeReport {
        iterations: opts.iterations,
        seed: opts.seed,
        workers,
        rows,
        note: "MuCFuzz.s (full registry) vs GCC -O2 through run_parallel_campaign; \
               exchange_every = iterations between a worker's ExchangeHub broadcasts \
               (0 = hub disabled)"
            .into(),
    };
    let path = write_json("exchange", &report);
    println!("report written to {}", path.display());
    metamut_bench::finish();
}
