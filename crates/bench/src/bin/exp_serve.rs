//! Experiment: the multi-tenant fuzzing daemon vs sequential in-process
//! campaigns, plus checkpoint/resume determinism under interruption.
//!
//! PR 8 turns the fuzzer into a service: `metamut serve` accepts jobs
//! over a JSON-line protocol, timeslices a worker pool fairly across
//! tenants, shares one query database between every campaign, and
//! persists jobs/corpus/checkpoints so a SIGTERM'd daemon resumes where
//! it left off. This bin measures both claims end to end over the real
//! TCP protocol and records everything in `BENCH_serve.json` at the
//! repository root.
//!
//! Leg A (multi-tenant throughput): two identical campaigns submitted to
//! a 2-worker daemon vs the same two campaigns run back-to-back
//! in-process, each with its own cold query database. Gates: both jobs
//! finish `done` with bit-identical outcomes, the analyze tenant finds
//! its uninitialized read, the shared database records cross-tenant
//! hits, the HTTP `/jobs` and `/metrics` views serve live state, and
//! (a timing check, skipped in smoke) the daemon clears **1.2×** the
//! sequential wall time.
//!
//! Leg B (resume determinism): an uninterrupted in-process campaign is
//! the baseline; the daemon runs the same spec, is stopped mid-campaign
//! (the graceful path SIGTERM takes), restarted, and resumed from its
//! checkpoint. Gates: the interruption provably lands mid-run and the
//! resumed outcome plus the persisted corpus match the baseline
//! **bit for bit** — enforced even in smoke; determinism has no scale.
//!
//! Usage: `exp_serve [--iterations N] [--smoke]`. `--smoke` shrinks the
//! workloads, skips the throughput check, and parks its report under
//! `target/experiments/` so CI never dirties the tree.

use metamut_bench::{render_table, write_bench, Check, ExpOptions};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{CampaignConfig, CampaignReport, CorpusEntry, SteppedCampaign};
use metamut_serve::daemon::{Daemon, DaemonConfig};
use metamut_serve::store::Store;
use metamut_serve::Client;
use metamut_simcomp::{CompileOptions, Compiler, OptFlags, Profile, QueryDb};
use metamut_telemetry::{fetch, Telemetry};
use serde::{Serialize, Value};
use serde_json::json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct TenancyRow {
    tenants: usize,
    iterations_each: usize,
    sequential_s: f64,
    daemon_s: f64,
    speedup: f64,
    query_hits: u64,
    outcomes_identical: bool,
    analyze_ub: u64,
    http_jobs: usize,
}

#[derive(Serialize)]
struct ResumeRow {
    iterations: usize,
    consumed_at_interrupt: usize,
    outcome_identical: bool,
    corpus_entries: usize,
    corpus_identical: bool,
}

#[derive(Serialize)]
struct ServeResults {
    tenancy: TenancyRow,
    resume: ResumeRow,
    note: String,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metamut-exp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same campaign the daemon runs for a fuzz job, executed in-process
/// without interruption and with a cold private query database.
fn in_process_campaign(iterations: usize, seed: u64) -> (CampaignReport, Vec<CorpusEntry>) {
    let generator = Box::new(MuCFuzz::new(
        "uCFuzz",
        Arc::new(metamut_mutators::full_registry()),
        seed_corpus().iter().map(|s| s.to_string()),
    ));
    let compiler = Compiler::new(
        Profile::Gcc,
        CompileOptions {
            opt_level: 2,
            flags: OptFlags {
                strict_aliasing: true,
                ..Default::default()
            },
        },
    );
    let config = CampaignConfig {
        iterations,
        seed,
        sample_every: (iterations / 10).max(1),
        workers: 1,
        query_db: Some(Arc::new(QueryDb::new())),
        log_corpus: true,
        ..Default::default()
    };
    let mut campaign = SteppedCampaign::new(generator, &compiler, &config, Telemetry::new());
    while !campaign.is_done() {
        campaign.step(64);
    }
    campaign.finish()
}

/// The deterministic slice of a fuzz-job report: everything
/// `CampaignReport::outcome_eq` compares.
fn outcome_fields(report: &Value) -> Vec<(String, Value)> {
    [
        "fuzzer",
        "compiler",
        "series",
        "crashes",
        "mutants",
        "final_coverage",
        "stage_coverage",
    ]
    .iter()
    .map(|k| (k.to_string(), report.get(k).cloned().unwrap_or(Value::Null)))
    .collect()
}

fn report_of(job: &Value) -> &Value {
    job.get("result")
        .and_then(|r| r.get("report"))
        .expect("fuzz job result carries the campaign report")
}

/// Leg A: two identical tenants plus an analyze one-shot on a 2-worker
/// daemon with the HTTP observatory mounted, vs the same two campaigns
/// sequential in-process.
fn run_tenancy(iterations: usize) -> TenancyRow {
    let seed = 11u64;

    let started = Instant::now();
    let (seq_a, _) = in_process_campaign(iterations, seed);
    let (seq_b, _) = in_process_campaign(iterations, seed);
    let sequential_s = started.elapsed().as_secs_f64();
    assert!(
        seq_a.outcome_eq(&seq_b),
        "identical in-process campaigns must agree before the daemon is measured"
    );

    let dir = scratch_dir("tenancy");
    let daemon = Daemon::start(DaemonConfig {
        store: dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        http_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        slice: 64,
        checkpoint_every: 0,
    })
    .expect("start daemon");
    let http = daemon
        .http_addr()
        .expect("daemon bound its HTTP observatory")
        .to_string();
    let mut client = Client::connect(&daemon.local_addr().to_string()).expect("connect");

    let started = Instant::now();
    let a = client
        .submit(&json!({"cmd": "fuzz", "iterations": (iterations), "seed": (seed)}))
        .expect("submit a");
    let b = client
        .submit(&json!({"cmd": "fuzz", "iterations": (iterations), "seed": (seed)}))
        .expect("submit b");
    let c = client
        .submit(&json!({"cmd": "analyze", "program": "int main() { int x; return x; }"}))
        .expect("submit analyze");

    // The observatory serves live job state on the same listener as the
    // telemetry routes while the campaigns run.
    let jobs_view = fetch(&http, "/jobs").expect("/jobs over HTTP");
    let http_jobs = serde_json::from_str(&jobs_view)
        .ok()
        .and_then(|v: Value| v.as_array().map(|a| a.len()))
        .expect("/jobs is a JSON array");

    let job_a = client.wait(a).expect("wait a");
    let job_b = client.wait(b).expect("wait b");
    let job_c = client.wait(c).expect("wait c");
    let daemon_s = started.elapsed().as_secs_f64();

    for job in [&job_a, &job_b, &job_c] {
        assert_eq!(
            job.get("status").and_then(|v| v.as_str()),
            Some("done"),
            "job record: {job:?}"
        );
    }
    let outcomes_identical = outcome_fields(report_of(&job_a)) == outcome_fields(report_of(&job_b));
    let analyze_ub = job_c
        .get("result")
        .and_then(|r| r.get("ub"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let query_hits = client
        .status()
        .expect("status")
        .get("query_db")
        .and_then(|q| q.get("hits"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let metrics = fetch(&http, "/metrics").expect("/metrics over HTTP");
    assert!(
        metrics.contains("metamut_serve_jobs_done"),
        "daemon counters missing from /metrics"
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);

    TenancyRow {
        tenants: 2,
        iterations_each: iterations,
        sequential_s,
        daemon_s,
        speedup: sequential_s / daemon_s,
        query_hits,
        outcomes_identical,
        analyze_ub,
        http_jobs,
    }
}

/// Leg B: stop the daemon mid-campaign, restart it, and compare the
/// resumed run against an uninterrupted in-process baseline.
fn run_resume(iterations: usize) -> ResumeRow {
    let seed = 5u64;
    let (base_report, base_corpus) = in_process_campaign(iterations, seed);
    let base_value = serde::to_value(&base_report);

    let dir = scratch_dir("resume");
    let config = || DaemonConfig {
        store: dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        http_addr: None,
        workers: 1,
        slice: 8,
        checkpoint_every: 1,
    };
    let daemon = Daemon::start(config()).expect("start daemon");
    let mut client = Client::connect(&daemon.local_addr().to_string()).expect("connect");
    let id = client
        .submit(&json!({"cmd": "fuzz", "iterations": (iterations), "seed": (seed)}))
        .expect("submit");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let job = client.job(id).expect("job");
        let consumed = job.get("consumed").and_then(|v| v.as_u64()).unwrap_or(0) as usize;
        if consumed > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "job never progressed: {job:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon.stop();

    let store = Store::open(&dir).expect("reopen store");
    let parked = store
        .load_jobs()
        .into_iter()
        .find(|r| r.id == id)
        .expect("parked record");
    let consumed_at_interrupt = parked.consumed;
    assert!(
        consumed_at_interrupt > 0 && consumed_at_interrupt < iterations,
        "expected a mid-run interruption, consumed {consumed_at_interrupt}"
    );
    assert!(store.load_checkpoint(id).is_some(), "checkpoint missing");
    drop(store);

    let daemon = Daemon::start(config()).expect("restart daemon");
    let mut client = Client::connect(&daemon.local_addr().to_string()).expect("reconnect");
    let job = client.wait(id).expect("wait resumed");
    assert_eq!(job.get("status").and_then(|v| v.as_str()), Some("done"));
    let outcome_identical = outcome_fields(report_of(&job)) == outcome_fields(&base_value);
    daemon.stop();

    let store = Store::open(&dir).expect("reopen store");
    let corpus: Vec<_> = store
        .load_corpus()
        .into_iter()
        .filter(|e| e.job == id)
        .collect();
    let corpus_identical = corpus.len() == base_corpus.len()
        && corpus.iter().zip(base_corpus.iter()).all(|(stored, base)| {
            stored.program == base.program
                && stored.iteration == base.iteration
                && stored.new_bits == base.new_bits
        });
    let _ = std::fs::remove_dir_all(&dir);

    ResumeRow {
        iterations,
        consumed_at_interrupt,
        outcome_identical,
        corpus_entries: corpus.len(),
        corpus_identical,
    }
}

fn main() {
    let opts = ExpOptions::from_args_with(|smoke| ExpOptions {
        iterations: if smoke { 80 } else { 2400 },
        ..ExpOptions::default()
    });
    let tenancy_iters = opts.iterations;
    let resume_iters = if opts.smoke { 600 } else { 2000 };

    println!("== Fuzzing daemon: multi-tenant throughput and resume determinism ==\n");

    let tenancy = run_tenancy(tenancy_iters);
    let resume = run_resume(resume_iters);

    println!(
        "{}",
        render_table(
            &[
                "Leg",
                "Iterations",
                "Sequential",
                "Daemon",
                "Speedup",
                "Query hits",
                "Identical",
            ],
            &[
                vec![
                    "2 tenants + analyze".to_string(),
                    format!("{}x2", tenancy.iterations_each),
                    format!("{:.2}s", tenancy.sequential_s),
                    format!("{:.2}s", tenancy.daemon_s),
                    format!("{:.2}x", tenancy.speedup),
                    tenancy.query_hits.to_string(),
                    tenancy.outcomes_identical.to_string(),
                ],
                vec![
                    "interrupt + resume".to_string(),
                    format!(
                        "{} (stopped at {})",
                        resume.iterations, resume.consumed_at_interrupt
                    ),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    (resume.outcome_identical && resume.corpus_identical).to_string(),
                ],
            ],
        )
    );

    let checks = vec![
        Check::holds("tenant_outcomes_identical", tenancy.outcomes_identical),
        Check::above("cross_tenant_query_hits", tenancy.query_hits as f64, 0.0),
        Check::above("analyze_ub_findings", tenancy.analyze_ub as f64, 0.0),
        Check::equals("http_jobs_listed", tenancy.http_jobs as f64, 3.0),
        Check::holds("resume_outcome_identical", resume.outcome_identical),
        Check::holds("resume_corpus_identical", resume.corpus_identical),
        Check::at_least("daemon_speedup", tenancy.speedup, 1.2).timing(),
    ];
    let results = ServeResults {
        tenancy,
        resume,
        note: "leg A: two identical 2-worker-daemon campaigns sharing one query database vs \
               the same campaigns sequential in-process with cold private databases, measured \
               over the TCP JSON-line protocol; leg B: daemon stopped mid-campaign via the \
               graceful SIGTERM path, restarted, resumed from its on-disk checkpoint, and \
               compared field-for-field and corpus-entry-for-entry against an uninterrupted \
               baseline"
            .into(),
    };
    write_bench("serve", &opts, &results, checks);
}
