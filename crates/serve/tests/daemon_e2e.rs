//! End-to-end daemon tests over the JSON-line protocol: multi-tenant
//! scheduling with a shared query database, persistent store round-trips
//! across a restart, and SIGTERM-style checkpoint/resume determinism.

use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{CampaignConfig, CampaignReport, CorpusEntry, SteppedCampaign};
use metamut_serve::daemon::{Daemon, DaemonConfig};
use metamut_serve::store::Store;
use metamut_serve::Client;
use metamut_simcomp::{CompileOptions, Compiler, OptFlags, Profile, QueryDb};
use metamut_telemetry::Telemetry;
use serde::Value;
use serde_json::json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "metamut-serve-e2e-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn daemon_config(store: &Path, workers: usize, slice: usize) -> DaemonConfig {
    DaemonConfig {
        store: store.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        http_addr: None,
        workers,
        slice,
        checkpoint_every: 1,
    }
}

fn connect(daemon: &Daemon) -> Client {
    Client::connect(&daemon.local_addr().to_string()).expect("connect")
}

/// The same campaign the daemon runs for a fuzz job, executed in-process
/// without interruption: the determinism baseline.
fn baseline_campaign(iterations: usize, seed: u64) -> (CampaignReport, Vec<CorpusEntry>) {
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
/// `CampaignReport::outcome_eq` compares (cache-temperature fields like
/// dedup/ub counters are excluded).
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

#[test]
fn concurrent_tenants_share_query_db_and_complete() {
    let dir = scratch_dir("tenants");
    let daemon = Daemon::start(daemon_config(&dir, 2, 16)).expect("start");
    let mut client = connect(&daemon);

    // Two tenants fuzz the same workload; a third runs a one-shot analyze.
    let a = client
        .submit(&json!({"cmd": "fuzz", "iterations": 80, "seed": 11}))
        .expect("submit a");
    let b = client
        .submit(&json!({"cmd": "fuzz", "iterations": 80, "seed": 11}))
        .expect("submit b");
    let c = client
        .submit(&json!({
            "cmd": "analyze",
            "program": "int main() { int x; return x; }"
        }))
        .expect("submit c");
    // A fourth tenant fuzzes the same corpus at -O3.
    let d = client
        .submit(&json!({"cmd": "fuzz", "iterations": 40, "seed": 11, "opt_level": 3}))
        .expect("submit d");
    assert!(a < b && b < c && c < d);

    let job_a = client.wait(a).expect("wait a");
    let job_b = client.wait(b).expect("wait b");
    let job_c = client.wait(c).expect("wait c");
    let job_d = client.wait(d).expect("wait d");
    for job in [&job_a, &job_b, &job_c, &job_d] {
        assert_eq!(
            job.get("status").and_then(|v| v.as_str()),
            Some("done"),
            "job record: {job:?}"
        );
    }

    // Identical campaigns produce identical outcomes and each keeps its
    // own result document.
    let report_a = job_a.get("result").and_then(|r| r.get("report")).unwrap();
    let report_b = job_b.get("result").and_then(|r| r.get("report")).unwrap();
    assert_eq!(outcome_fields(report_a), outcome_fields(report_b));

    // The analyze job found the uninitialized read.
    let ub = job_c
        .get("result")
        .and_then(|r| r.get("ub"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    assert!(ub > 0, "analyze result: {job_c:?}");

    // Cross-tenant sharing: the second campaign's UB gate re-asked
    // function summaries the first had already memoized in the shared
    // database.
    let status = client.status().expect("status");
    let hits = status
        .get("query_db")
        .and_then(|q| q.get("hits"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    assert!(hits > 0, "expected cross-tenant query hits, got {status:?}");

    // The store kept terminal records and the campaigns' corpus entries.
    daemon.stop();
    let store = Store::open(&dir).expect("reopen store");
    let records = store.load_jobs();
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.status == "done"));
    let corpus = store.load_corpus();
    assert!(
        corpus.iter().any(|e| e.job == a) && corpus.iter().any(|e| e.job == b),
        "corpus entries per job: {}",
        corpus.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_campaign_resumes_bit_identical_to_uninterrupted_run() {
    let iterations = 2000usize;
    let seed = 5u64;
    let (base_report, base_corpus) = baseline_campaign(iterations, seed);
    let base_value = serde::to_value(&base_report);

    let dir = scratch_dir("resume");
    // workers = 1, tiny slices, checkpoint every slice: the stop lands
    // mid-campaign with a fresh checkpoint.
    let daemon = Daemon::start(daemon_config(&dir, 1, 8)).expect("start");
    let mut client = connect(&daemon);
    let id = client
        .submit(&json!({"cmd": "fuzz", "iterations": 2000, "seed": 5}))
        .expect("submit");

    // Let it make some progress, then pull the plug (the graceful-shutdown
    // path SIGTERM takes through run_until_shutdown). The budget is large
    // enough that the stop lands well before the campaign completes.
    let deadline = Instant::now() + Duration::from_secs(30);
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

    // The store holds a mid-run snapshot: still running, partial progress,
    // and a checkpoint to resume from.
    let store = Store::open(&dir).expect("reopen store");
    let parked = store
        .load_jobs()
        .into_iter()
        .find(|r| r.id == id)
        .expect("record");
    assert_eq!(parked.status, "running");
    assert!(
        parked.consumed > 0 && parked.consumed < iterations,
        "expected a mid-run interruption, consumed {}",
        parked.consumed
    );
    assert!(store.load_checkpoint(id).is_some());
    drop(store);

    // Restart: the daemon resumes the campaign from the checkpoint and
    // runs it to completion.
    let daemon = Daemon::start(daemon_config(&dir, 1, 8)).expect("restart");
    let mut client = connect(&daemon);
    let job = client.wait(id).expect("wait");
    assert_eq!(job.get("status").and_then(|v| v.as_str()), Some("done"));
    let resumed_report = job
        .get("result")
        .and_then(|r| r.get("report"))
        .expect("report");
    assert_eq!(
        outcome_fields(resumed_report),
        outcome_fields(&base_value),
        "resumed outcome diverged from the uninterrupted baseline"
    );
    daemon.stop();

    // The persisted corpus matches the baseline's, entry for entry.
    let store = Store::open(&dir).expect("reopen store");
    let corpus: Vec<_> = store
        .load_corpus()
        .into_iter()
        .filter(|e| e.job == id)
        .collect();
    assert_eq!(corpus.len(), base_corpus.len());
    for (stored, base) in corpus.iter().zip(base_corpus.iter()) {
        assert_eq!(stored.program, base.program);
        assert_eq!(stored.iteration, base.iteration);
        assert_eq!(stored.new_bits, base.new_bits);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn events_stream_cancel_and_protocol_errors() {
    let dir = scratch_dir("proto");
    let daemon = Daemon::start(daemon_config(&dir, 1, 16)).expect("start");
    let mut client = connect(&daemon);

    // Unknown commands and malformed ids are errors, not hangups.
    assert!(client.request(&json!({"cmd": "explode"})).is_err());
    assert!(client.request(&json!({"cmd": "job", "id": 999})).is_err());
    assert!(client
        .request(&json!({"cmd": "triage", "programs": []}))
        .is_err());

    // A fuzz job streams progress events and ends with a done event.
    let id = client
        .submit(&json!({"cmd": "fuzz", "iterations": 60, "seed": 3}))
        .expect("submit");
    let mut kinds = Vec::new();
    let mut events_client = connect(&daemon);
    let total = events_client
        .events(id, |event| {
            if let Some(kind) = event.get("event").and_then(|v| v.as_str()) {
                kinds.push(kind.to_string());
            }
        })
        .expect("events");
    assert!(total > 0);
    assert!(kinds.iter().any(|k| k == "progress"), "events: {kinds:?}");
    assert_eq!(kinds.last().map(|s| s.as_str()), Some("done"));

    // Cancellation: a leased campaign stops at its next slice boundary; a
    // still-queued job cancels immediately.
    let first = client
        .submit(&json!({"cmd": "fuzz", "iterations": 100_000, "seed": 1}))
        .expect("submit big");
    let second = client
        .submit(&json!({"cmd": "fuzz", "iterations": 100_000, "seed": 2}))
        .expect("submit second");
    client.cancel(second).expect("cancel queued");
    client.cancel(first).expect("cancel running");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let a = client.job(first).expect("job");
        let b = client.job(second).expect("job");
        let done = [&a, &b]
            .iter()
            .all(|j| j.get("status").and_then(|v| v.as_str()) == Some("cancelled"));
        if done {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cancellation did not settle: {a:?} {b:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
