//! Experiment: the interprocedural summary layer — cross-call recall,
//! precision, and memo locality in the campaign gate.
//!
//! PR 5's analyses stopped at function boundaries: a callee that divides
//! by its parameter, returns null, or silently loops was invisible at
//! the call site. The summary layer closes that hole, and this bin holds
//! it to the same discipline as the intraprocedural analyzer:
//!
//! 1. **Recall**: every seeded interprocedural-UB fixture (defects that
//!    only exist *across* a call) is flagged — and, as a meta-check,
//!    none of them is visible to the intraprocedural analysis alone.
//! 2. **Precision**: zero findings of any severity on the
//!    interprocedural clean controls *and* the original clean corpus.
//! 3. **Memo locality**: a gated campaign reports its summary memo hit
//!    rate. Per-function summaries and finding sets are memoized under
//!    content-addressed keys, so a single-declaration mutant
//!    re-summarizes only the edited function and its transitive callers.
//!
//! Usage: `exp_interproc [--iterations N] [--repeats N] [--smoke]`.
//! `--smoke` shrinks the campaign and parks its report under
//! `target/experiments/` so CI never dirties the tree.

use metamut_analyze::fixtures::{CLEAN_FIXTURES, INTERPROC_CLEAN_FIXTURES, INTERPROC_UB_FIXTURES};
use metamut_analyze::{analyze_source, analyze_unit_with, Severity, Summaries};
use metamut_bench::render_table;
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig, CampaignReport};
use metamut_lang::parse;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct CorpusStats {
    interproc_ub_fixtures: usize,
    interproc_ub_flagged: usize,
    intraproc_leaks: usize,
    interproc_clean_fixtures: usize,
    interproc_clean_false_positives: usize,
    intraproc_clean_fixtures: usize,
    intraproc_clean_false_positives: usize,
    analyses_per_sec: f64,
}

#[derive(Serialize)]
struct GateStats {
    iterations: usize,
    campaign_s: f64,
    mutants_checked: u64,
    mutants_filtered: u64,
    fast_path_rate_pct: f64,
    summary_hits: u64,
    summary_recomputes: u64,
    summary_hit_rate_pct: f64,
}

#[derive(Serialize)]
struct InterprocReport {
    repeats: usize,
    gate: String,
    corpus: CorpusStats,
    campaign: GateStats,
    note: String,
}

/// One serial campaign over the seed corpus with the UB gate armed.
fn campaign(iterations: usize) -> CampaignReport {
    let seeds: Vec<String> = seed_corpus().iter().map(|s| s.to_string()).collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations,
        seed: 0xA11B,
        sample_every: (iterations / 10).max(1),
        ub_filter: true,
        ..Default::default()
    };
    let mut fuzzer = MuCFuzz::new(
        "uCFuzz",
        Arc::new(metamut_mutators::full_registry()),
        seeds.iter().cloned(),
    );
    run_campaign(&mut fuzzer, &compiler, &config)
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
    let iterations = arg("--iterations").unwrap_or(if smoke { 300 } else { 3000 });
    let repeats = arg("--repeats").unwrap_or(if smoke { 1 } else { 3 });

    println!(
        "== Interprocedural summaries: recall, precision, gate memos (best of {repeats}) ==\n"
    );

    // -- Recall: every cross-call defect flagged, none visible intraproc --
    let mut flagged = 0usize;
    let mut missed = Vec::new();
    let mut leaks = Vec::new();
    for (name, expected_analysis, src) in INTERPROC_UB_FIXTURES {
        let findings = analyze_source(src).expect("interproc fixtures must parse");
        if findings
            .iter()
            .any(|f| f.severity == Severity::Ub && f.analysis == *expected_analysis)
        {
            flagged += 1;
        } else {
            missed.push(*name);
        }
        // Meta-check: the fixture really needs summaries.
        let ast = parse("<intra>", src).expect("fixture parses");
        let intra = analyze_unit_with(&ast.unit, &Summaries::default());
        if intra.iter().any(|f| f.is_ub()) {
            leaks.push(*name);
        }
    }

    // -- Precision: zero findings on both clean corpora --
    let mut interproc_fp = Vec::new();
    for (name, src) in INTERPROC_CLEAN_FIXTURES {
        let findings = analyze_source(src).expect("clean fixtures must parse");
        if !findings.is_empty() {
            interproc_fp.push((*name, findings));
        }
    }
    let mut intraproc_fp = Vec::new();
    for (name, src) in CLEAN_FIXTURES {
        let findings = analyze_source(src).expect("clean fixtures must parse");
        if !findings.is_empty() {
            intraproc_fp.push((*name, findings));
        }
    }

    // Raw analyzer throughput over the interprocedural corpus.
    let corpus_srcs: Vec<&str> = INTERPROC_UB_FIXTURES
        .iter()
        .map(|(_, _, s)| *s)
        .chain(INTERPROC_CLEAN_FIXTURES.iter().map(|(_, s)| *s))
        .collect();
    let mut sweep_s = f64::INFINITY;
    for _ in 0..repeats {
        let started = Instant::now();
        for src in &corpus_srcs {
            std::hint::black_box(analyze_source(src).expect("corpus parses"));
        }
        sweep_s = sweep_s.min(started.elapsed().as_secs_f64());
    }
    let corpus = CorpusStats {
        interproc_ub_fixtures: INTERPROC_UB_FIXTURES.len(),
        interproc_ub_flagged: flagged,
        intraproc_leaks: leaks.len(),
        interproc_clean_fixtures: INTERPROC_CLEAN_FIXTURES.len(),
        interproc_clean_false_positives: interproc_fp.len(),
        intraproc_clean_fixtures: CLEAN_FIXTURES.len(),
        intraproc_clean_false_positives: intraproc_fp.len(),
        analyses_per_sec: corpus_srcs.len() as f64 / sweep_s.max(1e-9),
    };

    // -- Gate memos: a gated campaign, best-of-N wall time --
    let mut campaign_s = f64::INFINITY;
    let mut last_report = None;
    for _ in 0..repeats {
        let started = Instant::now();
        last_report = Some(campaign(iterations));
        campaign_s = campaign_s.min(started.elapsed().as_secs_f64());
    }
    let ub = last_report
        .as_ref()
        .and_then(|r| r.ub)
        .expect("gated campaign carries UB stats");
    let summarized = ub.summary_hits + ub.summary_recomputes;
    let campaign_stats = GateStats {
        iterations,
        campaign_s,
        mutants_checked: ub.checked,
        mutants_filtered: ub.filtered,
        fast_path_rate_pct: if ub.checked > 0 {
            100.0 * ub.fast_path as f64 / ub.checked as f64
        } else {
            0.0
        },
        summary_hits: ub.summary_hits,
        summary_recomputes: ub.summary_recomputes,
        summary_hit_rate_pct: if summarized > 0 {
            100.0 * ub.summary_hits as f64 / summarized as f64
        } else {
            0.0
        },
    };

    println!(
        "{}",
        render_table(
            &["Corpus", "Programs", "Flagged", "False positives"],
            &[
                vec![
                    "cross-call UB".into(),
                    corpus.interproc_ub_fixtures.to_string(),
                    corpus.interproc_ub_flagged.to_string(),
                    "-".into(),
                ],
                vec![
                    "cross-call clean".into(),
                    corpus.interproc_clean_fixtures.to_string(),
                    "-".into(),
                    corpus.interproc_clean_false_positives.to_string(),
                ],
                vec![
                    "intraproc clean".into(),
                    corpus.intraproc_clean_fixtures.to_string(),
                    "-".into(),
                    corpus.intraproc_clean_false_positives.to_string(),
                ],
            ],
        )
    );
    println!(
        "{}",
        render_table(
            &["Wall s", "Checked", "Filtered", "Fast path", "Memo hits"],
            &[vec![
                format!("{:.2}", campaign_stats.campaign_s),
                campaign_stats.mutants_checked.to_string(),
                campaign_stats.mutants_filtered.to_string(),
                format!("{:.0}%", campaign_stats.fast_path_rate_pct),
                format!("{:.0}%", campaign_stats.summary_hit_rate_pct),
            ]],
        )
    );

    let gate = "100% of cross-call UB fixtures flagged (all invisible intraprocedurally), \
                0 findings on both clean corpora"
        .to_string();
    let report = InterprocReport {
        repeats,
        gate: gate.clone(),
        corpus,
        campaign: campaign_stats,
        note: "recall/precision over metamut_analyze::fixtures::INTERPROC_*; campaign = \
               serial uCFuzz campaign over the seed corpus vs gcc-sim -O2 with the UB gate \
               on, best-of-N wall time; memo hit rate from the gate's content-addressed \
               summary store"
            .into(),
    };

    let path = if smoke {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
        std::fs::create_dir_all(&dir).expect("create target/experiments");
        dir.join("BENCH_interproc_smoke.json")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interproc.json")
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize interproc report");
    std::fs::write(&path, json + "\n").expect("write BENCH_interproc.json");
    println!("report written to {}", path.display());

    // Correctness gates hold even in smoke mode: a wrong verdict is wrong
    // at any scale.
    assert!(
        missed.is_empty(),
        "cross-call UB fixtures escaped the summary layer: {missed:?}"
    );
    assert!(
        leaks.is_empty(),
        "fixtures flagged without summaries do not test the layer: {leaks:?}"
    );
    assert!(
        interproc_fp.is_empty(),
        "interproc clean corpus produced findings: {interproc_fp:?}"
    );
    assert!(
        intraproc_fp.is_empty(),
        "summaries broke the intraproc clean corpus: {intraproc_fp:?}"
    );
    println!(
        "gate ok: recall {}/{}, 0 false positives, summary memo hit rate {:.0}% — {gate}",
        report.corpus.interproc_ub_flagged,
        report.corpus.interproc_ub_fixtures,
        report.campaign.summary_hit_rate_pct
    );
    metamut_bench::finish();
}
