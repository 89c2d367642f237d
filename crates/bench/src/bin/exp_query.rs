//! Experiment: the content-addressed query engine vs cold compilation.
//!
//! The query engine (`metamut_simcomp::query`) memoizes the
//! per-declaration pipeline under content keys in a shared database, so a
//! k-declaration mutant recomputes k pipelines and hits the memos for the
//! rest. This bin measures it against cold compilation on campaign-shaped
//! workloads — single-declaration and 3-declaration mutants —
//! cross-checking every query result against its cold compile and
//! recording everything in `BENCH_query.json` at the repository root.
//!
//! Enforced gates: the query engine clears **3×** cold throughput on
//! 1-declaration mutants and **2×** on 3-declaration mutants, with
//! **zero** cross-check mismatches and a 100% fast-path rate everywhere.
//! Query timings include the one-time seed-slot build, exactly as a
//! campaign pays it.
//!
//! Usage: `exp_query [--mutants N] [--repeats N] [--smoke]`. `--smoke`
//! shrinks the workload, skips the throughput gates (the cross-check
//! still must be clean), and parks its report under `target/experiments/`
//! so CI never dirties the tree.

use metamut_bench::render_table;
use metamut_simcomp::{coverage_equal, CompileOptions, Compiler, Profile, QueryCache};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct QueryRow {
    functions: usize,
    edited_decls: usize,
    seed_bytes: usize,
    mutants: usize,
    cold_s: f64,
    query_s: f64,
    cold_per_sec: f64,
    query_per_sec: f64,
    query_speedup_vs_cold: f64,
    fast_path_rate_pct: f64,
    cross_check_mismatches: usize,
}

#[derive(Serialize)]
struct QueryReport {
    mutants_per_row: usize,
    repeats: usize,
    gate: String,
    speedup_one_decl: f64,
    speedup_three_decl: f64,
    rows: Vec<QueryRow>,
    note: String,
}

/// One function of the synthetic seed. `tweak != 0` models a campaign
/// mutant's body edit, leaving every other chunk byte-identical.
fn func_src(i: usize, tweak: usize) -> String {
    format!(
        "int fn_{i}(int n) {{\n    \
         int acc = {init};\n    \
         int lim = n + {pad};\n    \
         for (int j = 0; j < lim; j = j + 1) {{ acc = acc + j * 3 + g; }}\n    \
         vg = acc;\n    \
         return acc;\n}}\n",
        init = i + tweak * 13,
        pad = (i * 7) % 5,
    )
}

/// A campaign-shaped program: globals plus `funcs` loop-carrying
/// functions plus a `main` that calls them all. `tweaks[i] != 0` rewrites
/// function `i`'s body.
fn make_program(funcs: usize, tweaks: &[usize]) -> String {
    let mut s = String::from("int g = 3;\nvolatile int vg;\n");
    for i in 0..funcs {
        s.push_str(&func_src(i, tweaks.get(i).copied().unwrap_or(0)));
    }
    s.push_str("int main(void) {\n    int t = 0;\n");
    for i in 0..funcs {
        s.push_str(&format!("    t = t + fn_{i}({});\n", 2 + i % 5));
    }
    s.push_str("    return t;\n}\n");
    s
}

/// Round-robin k-declaration mutants: each rewrites `k` distinct function
/// bodies of the `funcs`-function seed.
fn make_mutants(funcs: usize, count: usize, k: usize) -> Vec<String> {
    (0..count)
        .map(|m| {
            let mut tweaks = vec![0usize; funcs];
            for j in 0..k {
                tweaks[(m * k + j) % funcs] = 1 + m / funcs + j;
            }
            make_program(funcs, &tweaks)
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
    };
    let mutants_per_row = arg("--mutants").unwrap_or(if smoke { 40 } else { 240 });
    let repeats = arg("--repeats").unwrap_or(if smoke { 1 } else { 3 });
    let funcs: usize = if smoke { 16 } else { 32 };

    println!("== Query engine vs cold ({mutants_per_row} mutants per row, best of {repeats}) ==\n");

    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let seed = make_program(funcs, &[]);
    assert!(
        compiler.compile(&seed).outcome.is_success(),
        "the {funcs}-function seed must compile cleanly"
    );

    let mut rows = Vec::new();
    for &k in &[1usize, 3] {
        let mutants = make_mutants(funcs, mutants_per_row, k);

        // Correctness first: every mutant's query result must be
        // bit-identical to cold, and k-declaration campaign mutants must
        // take the fast path (a fallback-heavy run would make the timing
        // a lie).
        let cache = QueryCache::default();
        let mut mismatches = 0usize;
        for m in &mutants {
            let cold = compiler.compile(m);
            let q = cache.compile(&compiler, &seed, m);
            if q.outcome != cold.outcome || !coverage_equal(&q.coverage, &cold.coverage) {
                mismatches += 1;
            }
        }
        let fast_rate = 100.0 * cache.hit_rate();

        // Best-of-N wall time. The query run pays the one-time seed-slot
        // build inside the clock, as a campaign worker would.
        let mut cold_s = f64::INFINITY;
        let mut query_s = f64::INFINITY;
        for _ in 0..repeats {
            let started = Instant::now();
            for m in &mutants {
                std::hint::black_box(compiler.compile(m));
            }
            cold_s = cold_s.min(started.elapsed().as_secs_f64());

            let started = Instant::now();
            let fresh = QueryCache::default();
            for m in &mutants {
                std::hint::black_box(fresh.compile(&compiler, &seed, m));
            }
            query_s = query_s.min(started.elapsed().as_secs_f64());
        }

        rows.push(QueryRow {
            functions: funcs,
            edited_decls: k,
            seed_bytes: seed.len(),
            mutants: mutants.len(),
            cold_s,
            query_s,
            cold_per_sec: mutants.len() as f64 / cold_s,
            query_per_sec: mutants.len() as f64 / query_s,
            query_speedup_vs_cold: cold_s / query_s,
            fast_path_rate_pct: fast_rate,
            cross_check_mismatches: mismatches,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.edited_decls.to_string(),
                format!("{:.0}", r.cold_per_sec),
                format!("{:.0}", r.query_per_sec),
                format!("{:.2}x", r.query_speedup_vs_cold),
                format!("{:.0}%", r.fast_path_rate_pct),
                r.cross_check_mismatches.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Edited decls",
                "Cold/s",
                "Query/s",
                "Query speedup",
                "Fast path",
                "Mismatches"
            ],
            &table
        )
    );

    let speedup_one = rows
        .iter()
        .find(|r| r.edited_decls == 1)
        .map(|r| r.query_speedup_vs_cold)
        .unwrap_or(0.0);
    let speedup_three = rows
        .iter()
        .find(|r| r.edited_decls == 3)
        .map(|r| r.query_speedup_vs_cold)
        .unwrap_or(0.0);
    let gate = "query engine >= 3.0x cold throughput on 1-decl mutants and >= 2.0x on 3-decl \
                mutants, 0 cross-check mismatches, 100% fast-path rate"
        .to_string();
    let report = QueryReport {
        mutants_per_row,
        repeats,
        gate: gate.clone(),
        speedup_one_decl: speedup_one,
        speedup_three_decl: speedup_three,
        rows,
        note: "k-declaration mutants of a synthetic many-function seed vs gcc-sim -O2; query \
               timing includes the one-time seed-slot build; cross-check = outcome equality + \
               coverage-set equality against a cold compile per mutant"
            .into(),
    };

    // The committed evidence lives at the repository root, next to the
    // README that cites it; smoke runs park their miniature report in
    // `target/` so CI never dirties the tree.
    let path = if smoke {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
        std::fs::create_dir_all(&dir).expect("create target/experiments");
        dir.join("BENCH_query_smoke.json")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_query.json")
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize query report");
    std::fs::write(&path, json + "\n").expect("write BENCH_query.json");
    println!("report written to {}", path.display());

    // The correctness gates hold even in smoke mode: a wrong result is
    // wrong at any scale.
    for r in &report.rows {
        assert_eq!(
            r.cross_check_mismatches, 0,
            "query engine diverged from cold on {}-decl mutants",
            r.edited_decls
        );
        assert_eq!(
            r.fast_path_rate_pct, 100.0,
            "campaign-shaped {}-decl mutants fell off the fast path",
            r.edited_decls
        );
    }
    if smoke {
        println!("(smoke run: throughput gates skipped, cross-check enforced)");
    } else {
        assert!(
            speedup_one >= 3.0,
            "query engine reached only {speedup_one:.2}x on 1-decl mutants (gate: {gate})"
        );
        assert!(
            speedup_three >= 2.0,
            "query engine reached only {speedup_three:.2}x on 3-decl mutants (gate: {gate})"
        );
        println!("gate ok: {speedup_one:.2}x on 1-decl, {speedup_three:.2}x on 3-decl — {gate}");
    }
    metamut_bench::finish();
}
