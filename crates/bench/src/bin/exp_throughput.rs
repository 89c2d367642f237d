//! Experiment: campaign engine throughput (execs/second).
//!
//! Measures the legacy serial engine — per-attempt parent re-parsing, no
//! mutant dedup — against the current engine (parsed-AST seed cache +
//! dedup cache) at several worker counts, and records the speedups in
//! `BENCH_throughput.json` at the repository root.
//!
//! The enforced gate scales with the hardware, because the two speedup
//! sources are different claims: on a host with ≥ 4 cores the parallel
//! engine must clear 2× the legacy execs/second by 4 workers (cache +
//! dedup + real parallelism); on fewer cores threads mostly timeslice, so
//! the gate is the serial-efficiency floor of 1.25× that cache + dedup
//! deliver per core. The check's name and the envelope's `host_cores` say
//! which gate the committed JSON cleared.
//!
//! Usage: `exp_throughput [--iterations N] [--seed N] [--repeats N]
//! [--smoke]`. `--smoke` shrinks the budget and skips the timing check so
//! CI can exercise the binary in seconds.

use metamut_bench::{best_of, render_table, write_bench, Check, ExpOptions};
use metamut_fuzzing::campaign::{run_campaign, CampaignConfig};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::parallel::run_parallel_campaign;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use serde::Serialize;
use std::cell::Cell;
use std::sync::Arc;

/// Worker counts of the current engine's rows.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct EngineRow {
    engine: String,
    workers: usize,
    execs: usize,
    elapsed_s: f64,
    execs_per_sec: f64,
    speedup_vs_legacy: f64,
    dedup_hit_rate_pct: Option<f64>,
}

#[derive(Serialize)]
struct ThroughputResults {
    iterations: usize,
    seed: u64,
    best_speedup_at_4_workers: f64,
    best_speedup_any_workers: f64,
    rows: Vec<EngineRow>,
    note: String,
}

fn main() {
    let opts = ExpOptions::from_args_with(|smoke| ExpOptions {
        iterations: if smoke { 200 } else { 1500 },
        repeats: 3,
        ..ExpOptions::default()
    });
    let (iterations, repeats) = (opts.iterations, opts.repeats);
    println!(
        "== Engine throughput ({iterations} iterations, best of {repeats} interleaved runs, seed {}) ==\n",
        opts.seed
    );

    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let reg = Arc::new(metamut_mutators::full_registry());

    // Legacy baseline: re-parse the parent on every mutation attempt,
    // recompile every duplicate mutant.
    let mut legacy = || {
        let mut fuzzer =
            MuCFuzz::new("uCFuzz.s", reg.clone(), seeds.iter().cloned()).parse_cache(false);
        let cfg = CampaignConfig {
            iterations,
            seed: opts.seed,
            sample_every: iterations,
            dedup: false,
            ..Default::default()
        };
        run_campaign(&mut fuzzer, &compiler, &cfg);
    };
    let hit_rates: [Cell<Option<f64>>; 4] = Default::default();
    let cached = |i: usize| {
        let cfg = CampaignConfig {
            iterations,
            seed: opts.seed,
            sample_every: iterations,
            workers: WORKERS[i],
            dedup: true,
            ..Default::default()
        };
        let report = run_parallel_campaign(
            &seeds,
            |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
            &compiler,
            &cfg,
        );
        hit_rates[i].set(report.dedup.map(|d| 100.0 * d.hit_rate()));
    };
    let [legacy_s, elapsed @ ..] = best_of(
        repeats,
        [
            &mut legacy,
            &mut || cached(0),
            &mut || cached(1),
            &mut || cached(2),
            &mut || cached(3),
        ],
    );

    let legacy_rate = iterations as f64 / legacy_s;
    let mut rows = vec![EngineRow {
        engine: "legacy (no AST cache, no dedup)".into(),
        workers: 1,
        execs: iterations,
        elapsed_s: legacy_s,
        execs_per_sec: legacy_rate,
        speedup_vs_legacy: 1.0,
        dedup_hit_rate_pct: None,
    }];
    for (i, workers) in WORKERS.into_iter().enumerate() {
        let rate = iterations as f64 / elapsed[i];
        rows.push(EngineRow {
            engine: "cached+dedup".into(),
            workers,
            execs: iterations,
            elapsed_s: elapsed[i],
            execs_per_sec: rate,
            speedup_vs_legacy: rate / legacy_rate,
            dedup_hit_rate_pct: hit_rates[i].get(),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.engine.clone(),
                r.workers.to_string(),
                format!("{:.0}", r.execs_per_sec),
                format!("{:.2}x", r.speedup_vs_legacy),
                r.dedup_hit_rate_pct
                    .map(|h| format!("{h:.1}%"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Engine", "Workers", "Execs/s", "Speedup", "Dedup hits"],
            &table
        )
    );

    let cached_rows = || rows.iter().skip(1);
    let at_4 = cached_rows()
        .filter(|r| r.workers >= 4)
        .map(|r| r.speedup_vs_legacy)
        .fold(0.0f64, f64::max);
    let best = cached_rows()
        .map(|r| r.speedup_vs_legacy)
        .fold(0.0f64, f64::max);
    // On >=4 cores, workers compile in parallel and the full 2x claim is
    // testable at 4 workers. A host with fewer cores can only demonstrate
    // the per-exec efficiency of the cache + dedup path, which is measured
    // cleanly at 1 worker — extra threads just timeslice and pay exchange
    // costs there, and those rows are recorded but not gated on.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let check = if cores >= 4 {
        Check::at_least("speedup_at_4_workers", at_4, 2.0)
    } else {
        Check::at_least("serial_efficiency_speedup", best, 1.25)
    };
    let results = ThroughputResults {
        iterations,
        seed: opts.seed,
        best_speedup_at_4_workers: at_4,
        best_speedup_any_workers: best,
        rows,
        note: "execs/s over a MuCFuzz.s campaign (full registry) vs GCC -O2; legacy = \
               per-attempt re-parse + no dedup; best-of-N wall time over interleaved rounds \
               of all five engine rows"
            .into(),
    };
    write_bench("throughput", &opts, &results, vec![check.timing()]);
}
