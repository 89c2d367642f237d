//! Experiment: the content-addressed query engine vs cold compilation,
//! and cross-seed memo sharing.
//!
//! The query engine (`metamut_simcomp::query`) memoizes the
//! per-declaration pipeline under content keys in a shared database, so a
//! k-declaration mutant recomputes k pipelines and hits the memos for the
//! rest — and, because keys name content rather than seeds, a family of
//! seeds sharing most of their declarations compiles the shared part
//! once. This bin measures both edges on synthetic seeds from one program
//! generator and records the evidence in `BENCH_query.json` at the
//! repository root.
//!
//! Legs:
//! - **single-seed rows**: 1- and 3-declaration mutants of a
//!   many-function seed, query engine vs cold — checks: **>= 3x** cold
//!   on 1-declaration and **>= 2x** on 3-declaration mutants, a 100%
//!   fast-path rate. Query timings include the one-time seed-slot build,
//!   exactly as a campaign pays it.
//! - **family**: a 5-member seed family sharing a heavy prelude, the same
//!   2-declaration edits applied to every member; one shared `QueryDb` vs
//!   one isolated `QueryDb` per seed (what slot-private keying degenerates
//!   to) — checks: **> 50%** of stage-memo hits served cross-seed,
//!   shared **>= 1.4x** isolated.
//! - **correctness**: every mutant of every leg is compiled through a
//!   cache that cross-checks each result against cold, and compared with
//!   a cold compile here too — check: **0 mismatches**.
//! - **slotless**: the `metamut compile` path (same program compiled
//!   twice through one cache) and the macro-fuzzer path (variant stream
//!   over pooled parents) — check: both hit warm memos (**nonzero**
//!   query hits) with no campaign slot involved.
//!
//! Usage: `exp_query [--mutants N] [--repeats N] [--smoke]`. `--mutants`
//! sets the mutants per single-seed row; the family splits as many
//! across its members. `--smoke` shrinks the workload, skips the timing
//! checks (every other check still holds), and parks its report under
//! `target/experiments/` so CI never dirties the tree.

use metamut_bench::{best_of, render_table, write_bench, Check, ExpOptions};
use metamut_simcomp::{coverage_equal, CompileOptions, Compiler, Profile, QueryCache, QueryDb};
use serde::Serialize;
use std::sync::Arc;

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
struct FamilyRow {
    seeds: usize,
    shared_decls: usize,
    decls_per_seed: usize,
    shared_fraction_pct: f64,
    mutants_per_seed: usize,
    cross_check_mismatches: usize,
    stage_hits: u64,
    cross_seed_hits: u64,
    cross_seed_rate_pct: f64,
    isolated_s: f64,
    shared_s: f64,
    isolated_per_sec: f64,
    shared_per_sec: f64,
    shared_speedup: f64,
    compile_style_hits: u64,
    macro_style_hits: u64,
}

#[derive(Serialize)]
struct QueryResults {
    mutants_per_row: usize,
    rows: Vec<QueryRow>,
    family: FamilyRow,
    note: String,
}

/// The shape of a synthetic seed family: `shared` functions
/// byte-identical across members, `tails` member-private ones, and a
/// member-private `main` calling them all.
#[derive(Clone, Copy)]
struct Shape {
    shared: usize,
    tails: usize,
    /// Heavy shared bodies (nested loops, many statements) model the
    /// mature, expensive-to-compile prelude of a corpus ancestor — where
    /// cross-seed sharing pays. Light bodies model campaign seeds.
    heavy: bool,
}

/// Shared function `fn_{i}`. `tweak != 0` models a campaign mutant's body
/// edit, leaving every other chunk byte-identical; the same `(i, tweak)`
/// pair produces the same bytes in every family member.
fn shared_fn(i: usize, tweak: usize, heavy: bool) -> String {
    if !heavy {
        return format!(
            "int fn_{i}(int n) {{\n    \
             int acc = {init};\n    \
             int lim = n + {pad};\n    \
             for (int j = 0; j < lim; j = j + 1) {{ acc = acc + j * 3 + g; }}\n    \
             vg = acc;\n    \
             return acc;\n}}\n",
            init = i + tweak * 13,
            pad = (i * 7) % 5,
        );
    }
    format!(
        "int fn_{i}(int n) {{\n    \
         int acc = {init};\n    \
         int top = n + {pad};\n    \
         for (int j = 0; j < top; j = j + 1) {{\n        \
         int row = j * 3 + g;\n        \
         for (int q = 0; q < 4; q = q + 1) {{ row = row + q * j - {i}; acc = acc + row; }}\n        \
         if (row > acc) {{ acc = acc - row / 2; }} else {{ acc = acc + 1; }}\n        \
         vg = acc;\n    \
         }}\n    \
         int tail = acc;\n    \
         while (tail > 100) {{ tail = tail - 77; vg = tail; }}\n    \
         return acc + tail;\n}}\n",
        init = i * 5 + tweak * 13,
        pad = (i * 7) % 5,
    )
}

/// Member-private function: small, and named after its member so no two
/// members share it.
fn tail_fn(member: usize, i: usize) -> String {
    format!(
        "int t{member}_{i}(int n) {{ int s = n + {member}; \
         for (int j = 0; j < {lim}; j = j + 1) {{ s = s + j * {i}; }} return s; }}\n",
        lim = 3 + i,
    )
}

/// Family member `member`: two globals, the shared functions, the tails,
/// and `main`. `tweaks[i] != 0` rewrites shared function `i`'s body.
fn program(shape: Shape, member: usize, tweaks: &[usize]) -> String {
    let mut s = String::from("int g = 3;\nvolatile int vg;\n");
    for i in 0..shape.shared {
        s.push_str(&shared_fn(
            i,
            tweaks.get(i).copied().unwrap_or(0),
            shape.heavy,
        ));
    }
    for i in 0..shape.tails {
        s.push_str(&tail_fn(member, i));
    }
    s.push_str("int main(void) {\n    int t = 0;\n");
    for i in 0..shape.shared {
        s.push_str(&format!("    t = t + fn_{i}({});\n", 2 + i % 5));
    }
    for i in 0..shape.tails {
        s.push_str(&format!("    t = t + t{member}_{i}({});\n", 1 + i));
    }
    s.push_str("    return t;\n}\n");
    s
}

/// One seed and its mutant stream.
struct Workload {
    seed: String,
    mutants: Vec<String>,
}

/// `count` round-robin k-declaration mutants of `member`: mutant `m`
/// rewrites `k` distinct shared functions, and the same `m` applies the
/// same edits in every member (the corpus-descendant shape: the
/// interesting edit travels, the private tail stays).
fn workload(shape: Shape, member: usize, count: usize, k: usize) -> Workload {
    let mutants = (0..count)
        .map(|m| {
            let mut tweaks = vec![0usize; shape.shared];
            for j in 0..k {
                let edit = m * k + j;
                tweaks[edit % shape.shared] = 1 + m * k / shape.shared + j;
            }
            program(shape, member, &tweaks)
        })
        .collect();
    Workload {
        seed: program(shape, member, &[]),
        mutants,
    }
}

/// Compiles every mutant of `work` through `cache`, or cold when `None`.
fn compile_all(compiler: &Compiler, cache: Option<&QueryCache>, work: &[Workload]) {
    for w in work {
        for m in &w.mutants {
            std::hint::black_box(match cache {
                Some(cache) => cache.compile(compiler, &w.seed, m),
                None => compiler.compile(m),
            });
        }
    }
}

/// The correctness leg: every mutant through one fresh database whose
/// cache re-checks each result against cold, and compared with a cold
/// compile here too. Returns the cache (its counters describe only the
/// query engine's own traffic: cold compiles never touch the database)
/// and the disagreements seen either way.
fn cross_check(compiler: &Compiler, work: &[Workload]) -> (QueryCache, usize) {
    let cache = QueryCache::new(Arc::new(QueryDb::new())).with_cross_check(1);
    let mut mismatches = 0usize;
    for w in work {
        assert!(
            compiler.compile(&w.seed).outcome.is_success(),
            "every synthetic seed must compile cleanly"
        );
        for m in &w.mutants {
            let cold = compiler.compile(m);
            let q = cache.compile(compiler, &w.seed, m);
            if q.outcome != cold.outcome || !coverage_equal(&q.coverage, &cold.coverage) {
                mismatches += 1;
            }
        }
    }
    let mismatches = mismatches + cache.mismatches() as usize;
    (cache, mismatches)
}

fn main() {
    let opts = ExpOptions::from_args_with(|smoke| ExpOptions {
        mutants: if smoke { 40 } else { 240 },
        repeats: if smoke { 1 } else { 3 },
        ..ExpOptions::default()
    });
    let single = Shape {
        shared: if opts.smoke { 16 } else { 32 },
        tails: 0,
        heavy: false,
    };
    let family = Shape {
        shared: if opts.smoke { 10 } else { 12 },
        tails: 4,
        heavy: true,
    };
    let members = if opts.smoke { 4 } else { 5 };
    let per_member = opts.mutants / members;
    let repeats = opts.repeats;

    println!(
        "== Query engine vs cold ({} mutants per row, best of {repeats}) ==\n",
        opts.mutants
    );
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());

    let mut rows = Vec::new();
    for k in [1usize, 3] {
        let work = [workload(single, 0, opts.mutants, k)];
        // Correctness first: k-declaration campaign mutants must match
        // cold and take the fast path (a fallback-heavy run would make
        // the timing a lie).
        let (cache, mismatches) = cross_check(&compiler, &work);
        let [cold_s, query_s] = best_of(
            repeats,
            [&mut || compile_all(&compiler, None, &work), &mut || {
                compile_all(&compiler, Some(&QueryCache::default()), &work)
            }],
        );
        let mutants = work[0].mutants.len();
        rows.push(QueryRow {
            functions: single.shared,
            edited_decls: k,
            seed_bytes: work[0].seed.len(),
            mutants,
            cold_s,
            query_s,
            cold_per_sec: mutants as f64 / cold_s,
            query_per_sec: mutants as f64 / query_s,
            query_speedup_vs_cold: cold_s / query_s,
            fast_path_rate_pct: 100.0 * cache.hit_rate(),
            cross_check_mismatches: mismatches,
        });
    }

    // The family: 2 globals + the shared prelude are common to every
    // member; tails and `main` are private.
    let decls_per_seed = 2 + family.shared + family.tails + 1;
    let shared_decls = 2 + family.shared;
    let shared_fraction = shared_decls as f64 / decls_per_seed as f64;
    assert!(
        shared_fraction > 0.5,
        "the family must share over half its declarations"
    );
    let work: Vec<Workload> = (0..members)
        .map(|s| workload(family, s, per_member, 2))
        .collect();
    let (cache, family_mismatches) = cross_check(&compiler, &work);
    let stage_hits = cache.db().hits();
    let cross_seed_hits = cache.cross_seed_hits();
    let cross_seed_rate = 100.0 * cross_seed_hits as f64 / stage_hits.max(1) as f64;
    // Both timing legs pay their slot builds inside the clock.
    let [isolated_s, shared_s] = best_of(
        repeats,
        [
            &mut || {
                for w in &work {
                    compile_all(
                        &compiler,
                        Some(&QueryCache::default()),
                        std::slice::from_ref(w),
                    );
                }
            },
            &mut || compile_all(&compiler, Some(&QueryCache::default()), &work),
        ],
    );

    // Slotless riders. `metamut compile` shape: the same program through
    // one cache twice — the second pass must be all warm.
    let cli_cache = QueryCache::default();
    std::hint::black_box(cli_cache.compile_program(&compiler, &work[0].seed));
    let cold_pass_hits = cli_cache.db().hits();
    std::hint::black_box(cli_cache.compile_program(&compiler, &work[0].seed));
    let compile_style_hits = cli_cache.db().hits() - cold_pass_hits;
    // Macro-fuzzer shape: a variant stream over pooled parents, no seed
    // slots at all — each variant shares its unedited declarations with
    // the parent already compiled.
    let macro_cache = QueryCache::default();
    for w in work.iter().take(2) {
        std::hint::black_box(macro_cache.compile_program(&compiler, &w.seed));
        for m in w.mutants.iter().take(4) {
            std::hint::black_box(macro_cache.compile_program(&compiler, m));
        }
    }
    let macro_style_hits = macro_cache.db().hits();

    let total = (members * per_member) as f64;
    let family = FamilyRow {
        seeds: members,
        shared_decls,
        decls_per_seed,
        shared_fraction_pct: 100.0 * shared_fraction,
        mutants_per_seed: per_member,
        cross_check_mismatches: family_mismatches,
        stage_hits,
        cross_seed_hits,
        cross_seed_rate_pct: cross_seed_rate,
        isolated_s,
        shared_s,
        isolated_per_sec: total / isolated_s,
        shared_per_sec: total / shared_s,
        shared_speedup: isolated_s / shared_s,
        compile_style_hits,
        macro_style_hits,
    };

    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}-decl mutants", r.edited_decls),
                format!("{:.0}", r.cold_per_sec),
                format!("{:.0}", r.query_per_sec),
                format!("{:.2}x", r.query_speedup_vs_cold),
                format!("{:.0}%", r.fast_path_rate_pct),
                r.cross_check_mismatches.to_string(),
            ]
        })
        .collect();
    table.push(vec![
        format!("{members}-seed family"),
        format!("{:.0} isolated", family.isolated_per_sec),
        format!("{:.0} shared", family.shared_per_sec),
        format!("{:.2}x", family.shared_speedup),
        format!("{cross_seed_rate:.0}% cross-seed"),
        family_mismatches.to_string(),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "Workload",
                "Baseline/s",
                "Query/s",
                "Speedup",
                "Fast path / sharing",
                "Mismatches"
            ],
            &table
        )
    );
    println!(
        "slotless warm hits: compile-twice {compile_style_hits}, macro stream {macro_style_hits}\n"
    );

    let speedup = |k: usize| {
        rows.iter()
            .find(|r| r.edited_decls == k)
            .map_or(0.0, |r| r.query_speedup_vs_cold)
    };
    let mismatches = rows.iter().map(|r| r.cross_check_mismatches).sum::<usize>()
        + family.cross_check_mismatches;
    let fast_path = rows
        .iter()
        .map(|r| r.fast_path_rate_pct)
        .fold(100.0, f64::min);
    let checks = vec![
        Check::at_least("speedup_one_decl", speedup(1), 3.0).timing(),
        Check::at_least("speedup_three_decl", speedup(3), 2.0).timing(),
        Check::equals("cross_check_mismatches", mismatches as f64, 0.0),
        Check::equals("fast_path_rate_pct", fast_path, 100.0),
        Check::above("cross_seed_rate_pct", cross_seed_rate, 50.0),
        Check::at_least("shared_speedup", family.shared_speedup, 1.4).timing(),
        Check::above("compile_style_hits", compile_style_hits as f64, 0.0),
        Check::above("macro_style_hits", macro_style_hits as f64, 0.0),
    ];
    let results = QueryResults {
        mutants_per_row: opts.mutants,
        rows,
        family,
        note: "synthetic seeds vs gcc-sim -O2. Rows: k-declaration mutants of a many-function \
               seed, query timing includes the one-time seed-slot build. Family: shared heavy \
               prelude + member-private tails, the same 2-declaration edit schedule applied to \
               every member; the isolated leg gives each seed its own QueryDb, which is what \
               slot-keyed private memos amounted to; both legs pay slot builds inside the \
               clock. Cross-check = the cache's every-compile cold re-check plus outcome and \
               coverage-set equality against a cold compile per mutant; the family's \
               cross-check run is also the counter source for the cross-seed rate"
            .into(),
    };
    write_bench("query", &opts, &results, checks);
}
