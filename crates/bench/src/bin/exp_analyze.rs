//! Experiment: the dataflow UB analyzer and its interprocedural summary
//! layer — precision, recall, and what the campaign UB gate costs.
//!
//! The analyzer (`metamut-analyze`) earns its place in the pipeline on two
//! conditions. It must be *right*, on five fixture sweeps:
//!
//! 1. every seeded-UB fixture flagged with its expected analysis;
//! 2. every lint fixture flagged, none of them as UB;
//! 3. zero findings of any severity on the clean corpus;
//! 4. every cross-call UB fixture (a defect that only exists *across* a
//!    call) flagged — and, as a meta-check, none of them visible to the
//!    analysis run without function summaries;
//! 5. zero findings on the cross-call clean controls.
//!
//! And it must be *cheap*: with the UB gate armed, campaign mutant
//! throughput may drop by at most **10%** versus the same serial μCFuzz
//! campaign with `--no-ub-filter`. The gated and ungated campaigns run as
//! one interleaved best-of-N pair; the gated leg's stats also report the
//! gate's summary memo hits and recomputes (per-function summaries are
//! memoized under content keys, so a single-declaration mutant
//! re-summarizes only the edited function and its transitive callers).
//! The campaign asks the gate only about compiled mutants that would add
//! coverage or a new crash signature, so the gated leg also reports gate
//! queries per dedup miss: a deterministic count, bounded at any scale.
//!
//! Every fixture check holds at any scale — a wrong verdict is wrong in
//! smoke mode too; the timing check is skipped in smoke.
//! The report lands in `BENCH_analysis.json` at the repository root.
//!
//! Usage: `exp_analyze [--iterations N] [--repeats N] [--smoke]`.
//! `--smoke` shrinks the campaign and parks its report under
//! `target/experiments/` so CI never dirties the tree.

use metamut_analyze::fixtures::{
    CLEAN_FIXTURES, INTERPROC_CLEAN_FIXTURES, INTERPROC_UB_FIXTURES, LINT_FIXTURES, UB_FIXTURES,
};
use metamut_analyze::{analyze_source, analyze_unit_with, Finding, Severity, Summaries};
use metamut_bench::{best_of, render_table, write_bench, Check, ExpOptions};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig, CampaignReport};
use metamut_lang::parse;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use serde::Serialize;
use std::sync::Arc;

/// One fixture sweep: how many programs, how many met the expectation,
/// and the names of those that did not.
#[derive(Serialize)]
struct Sweep {
    fixtures: usize,
    passed: usize,
    failures: Vec<String>,
}

#[derive(Serialize)]
struct CorpusStats {
    /// Seeded UB, flagged with the expected analysis.
    ub: Sweep,
    /// Lint-only defects, flagged and never as UB.
    lint: Sweep,
    /// Clean programs, zero findings.
    clean: Sweep,
    /// Cross-call UB, flagged with the expected analysis.
    interproc_ub: Sweep,
    /// Cross-call UB fixtures the summary-free analysis already flags
    /// (each one would not test the summary layer).
    intraproc_leaks: Vec<String>,
    /// Cross-call clean controls, zero findings.
    interproc_clean: Sweep,
    analyses_per_sec: f64,
}

#[derive(Serialize)]
struct GateStats {
    iterations: usize,
    unfiltered_s: f64,
    gated_s: f64,
    unfiltered_per_sec: f64,
    gated_per_sec: f64,
    overhead_pct: f64,
    dedup_misses: u64,
    mutants_checked: u64,
    mutants_filtered: u64,
    summary_hits: u64,
    summary_recomputes: u64,
    summary_hit_rate_pct: f64,
    queries_per_miss: f64,
}

#[derive(Serialize)]
struct AnalyzeResults {
    corpus: CorpusStats,
    campaign: GateStats,
    note: String,
}

/// Runs `ok(findings, expected_analysis)` over every
/// `(name, expected_analysis, source)` fixture.
fn sweep<'a>(
    fixtures: impl Iterator<Item = (&'a str, &'a str, &'a str)>,
    ok: impl Fn(&[Finding], &str) -> bool,
) -> Sweep {
    let mut sweep = Sweep {
        fixtures: 0,
        passed: 0,
        failures: Vec::new(),
    };
    for (name, analysis, src) in fixtures {
        let findings = analyze_source(src).expect("fixtures parse");
        sweep.fixtures += 1;
        if ok(&findings, analysis) {
            sweep.passed += 1;
        } else {
            sweep.failures.push(name.to_string());
        }
    }
    sweep
}

/// Whether `findings` hold a UB finding from `analysis`.
fn flags_ub(findings: &[Finding], analysis: &str) -> bool {
    findings
        .iter()
        .any(|f| f.severity == Severity::Ub && f.analysis == analysis)
}

/// Clean fixtures as sweep items: no analysis is expected.
fn unseeded<'a>(
    fixtures: &'a [(&'a str, &'a str)],
) -> impl Iterator<Item = (&'a str, &'a str, &'a str)> {
    fixtures.iter().map(|(name, src)| (*name, "", *src))
}

/// One serial campaign over the seed corpus; `ub_filter` toggles the gate.
fn campaign(iterations: usize, ub_filter: bool) -> CampaignReport {
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations,
        seed: 0xA11A,
        sample_every: (iterations / 10).max(1),
        ub_filter,
        ..Default::default()
    };
    let mut fuzzer = MuCFuzz::new(
        "uCFuzz",
        Arc::new(metamut_mutators::full_registry()),
        seeds.iter().cloned(),
    );
    run_campaign(&mut fuzzer, &compiler, &config)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn main() {
    let opts = ExpOptions::from_args_with(|smoke| ExpOptions {
        iterations: if smoke { 300 } else { 3000 },
        repeats: if smoke { 1 } else { 3 },
        ..ExpOptions::default()
    });
    let (iterations, repeats) = (opts.iterations, opts.repeats);
    println!("== UB analyzer precision/recall + campaign gate cost (best of {repeats}) ==\n");

    let ub = sweep(UB_FIXTURES.iter().copied(), flags_ub);
    let lint = sweep(LINT_FIXTURES.iter().copied(), |findings, analysis| {
        findings.iter().all(|f| f.severity != Severity::Ub)
            && findings.iter().any(|f| f.analysis == analysis)
    });
    let clean = sweep(unseeded(CLEAN_FIXTURES), |f, _| f.is_empty());
    let interproc_ub = sweep(INTERPROC_UB_FIXTURES.iter().copied(), flags_ub);
    let intraproc_leaks: Vec<String> = INTERPROC_UB_FIXTURES
        .iter()
        .filter(|(_, _, src)| {
            let ast = parse("<intra>", src).expect("fixture parses");
            analyze_unit_with(&ast, &Summaries::default())
                .iter()
                .any(|f| f.is_ub())
        })
        .map(|(name, _, _)| name.to_string())
        .collect();
    let interproc_clean = sweep(unseeded(INTERPROC_CLEAN_FIXTURES), |f, _| f.is_empty());

    // Raw analyzer throughput over every fixture.
    let corpus_srcs: Vec<&str> = [UB_FIXTURES, LINT_FIXTURES, INTERPROC_UB_FIXTURES]
        .into_iter()
        .flat_map(|set| set.iter().copied())
        .chain(unseeded(CLEAN_FIXTURES))
        .chain(unseeded(INTERPROC_CLEAN_FIXTURES))
        .map(|(_, _, src)| src)
        .collect();
    let [sweep_s] = best_of(
        repeats,
        [&mut || {
            for src in &corpus_srcs {
                std::hint::black_box(analyze_source(src).expect("corpus parses"));
            }
        }],
    );
    let corpus = CorpusStats {
        ub,
        lint,
        clean,
        interproc_ub,
        intraproc_leaks,
        interproc_clean,
        analyses_per_sec: corpus_srcs.len() as f64 / sweep_s.max(1e-9),
    };

    // -- Campaign gate cost: one interleaved gated/ungated pair --
    let mut gated = None;
    let [unfiltered_s, gated_s] = best_of(
        repeats,
        [
            &mut || {
                std::hint::black_box(campaign(iterations, false));
            },
            &mut || gated = Some(campaign(iterations, true)),
        ],
    );
    let gated = gated.expect("the gated leg ran");
    let ub = gated.ub.expect("gated campaign must carry UB stats");
    let misses = gated.dedup.expect("dedup is on by default").misses;
    let campaign_stats = GateStats {
        iterations,
        unfiltered_s,
        gated_s,
        unfiltered_per_sec: iterations as f64 / unfiltered_s,
        gated_per_sec: iterations as f64 / gated_s,
        overhead_pct: 100.0 * (gated_s - unfiltered_s) / unfiltered_s,
        dedup_misses: misses,
        mutants_checked: ub.checked,
        mutants_filtered: ub.filtered,
        summary_hits: ub.summary_hits,
        summary_recomputes: ub.summary_recomputes,
        summary_hit_rate_pct: pct(ub.summary_hits, ub.summary_hits + ub.summary_recomputes),
        queries_per_miss: ub.checked as f64 / misses.max(1) as f64,
    };

    let row = |label: &str, s: &Sweep| {
        vec![
            label.to_string(),
            s.fixtures.to_string(),
            s.passed.to_string(),
            s.failures.join(", "),
        ]
    };
    println!(
        "{}",
        render_table(
            &["Corpus", "Programs", "As expected", "Failures"],
            &[
                row("seeded UB", &corpus.ub),
                row("lint-only", &corpus.lint),
                row("clean", &corpus.clean),
                row("cross-call UB", &corpus.interproc_ub),
                row("cross-call clean", &corpus.interproc_clean),
            ],
        )
    );
    let c = &campaign_stats;
    println!(
        "{}",
        render_table(
            &[
                "Campaign",
                "Mutants/s",
                "Checked",
                "Filtered",
                "Memo hits",
                "Overhead"
            ],
            &[
                vec![
                    "no gate".into(),
                    format!("{:.0}", c.unfiltered_per_sec),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ],
                vec![
                    "UB gate".into(),
                    format!("{:.0}", c.gated_per_sec),
                    c.mutants_checked.to_string(),
                    c.mutants_filtered.to_string(),
                    format!("{:.0}%", c.summary_hit_rate_pct),
                    format!("{:+.1}%", c.overhead_pct),
                ],
            ],
        )
    );

    let all = |name: &str, s: &Sweep| Check::equals(name, s.passed as f64, s.fixtures as f64);
    let checks = vec![
        all("ub_fixtures_flagged", &corpus.ub),
        all("lint_fixtures_flagged", &corpus.lint),
        all("clean_fixtures_silent", &corpus.clean),
        all("interproc_ub_fixtures_flagged", &corpus.interproc_ub),
        Check::equals("intraproc_leaks", corpus.intraproc_leaks.len() as f64, 0.0),
        all("interproc_clean_fixtures_silent", &corpus.interproc_clean),
        Check::at_most("ub_gate_overhead_pct", c.overhead_pct, 10.0).timing(),
        // 0.18 at 3,000 iterations, 0.45 at the smoke's 300 (more of a
        // young campaign's coverage is new); gating every miss reads 1.
        Check::at_most("ub_gate_queries_per_miss", c.queries_per_miss, 0.5),
    ];
    let results = AnalyzeResults {
        corpus,
        campaign: campaign_stats,
        note: "recall/precision over the committed fixture corpus in \
               metamut_analyze::fixtures (leaks = cross-call fixtures the analysis flags \
               without summaries); gate cost = serial uCFuzz campaign over the seed corpus \
               vs gcc-sim -O2, ub_filter on vs off, best-of-N wall time over interleaved \
               rounds; summary memo hits/recomputes and gate queries per dedup miss from \
               the gated leg"
            .into(),
    };
    write_bench("analysis", &opts, &results, checks);
}
