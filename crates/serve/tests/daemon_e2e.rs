//! End-to-end daemon tests over the JSON-line protocol: multi-tenant
//! scheduling with a shared query database, persistent store round-trips
//! across a restart, SIGTERM-style checkpoint/resume determinism, a
//! checkpoint that cannot resume failing its job and being deleted, the
//! job log's durability at acknowledgement and replay after a crash, a
//! worker surviving a deeply nested program, and the request-line cap.

use metamut_analyze::QueryDb;
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{CampaignConfig, CampaignReport, CorpusEntry, SteppedCampaign};
use metamut_serve::daemon::{Daemon, DaemonConfig, MAX_REQUEST_LINE};
use metamut_serve::store::Store;
use metamut_serve::{Client, FuzzSpec, JobRecord, JobSpec};
use metamut_simcomp::{CompileOptions, Compiler, OptFlags, Profile};
use metamut_telemetry::{fetch, Telemetry};
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

/// The same campaign the daemon runs for a fuzz job, built in-process.
fn daemon_campaign(iterations: usize, seed: u64) -> SteppedCampaign {
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
        ..Default::default()
    };
    SteppedCampaign::new(generator, &compiler, &config, Telemetry::new())
}

/// The daemon's campaign executed in-process without interruption: the
/// determinism baseline.
fn baseline_campaign(iterations: usize, seed: u64) -> (CampaignReport, Vec<CorpusEntry>) {
    let mut campaign = daemon_campaign(iterations, seed);
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
fn a_checkpoint_that_fails_to_resume_fails_its_job_and_is_deleted() {
    let dir = scratch_dir("badresume");
    {
        // A crashed run left job 1 mid-campaign, with a base its build
        // cannot read (a future checkpoint version) and a delta log.
        let store = Store::open(&dir).expect("open");
        let mut record = JobRecord::new(
            1,
            JobSpec::fuzz(FuzzSpec {
                iterations: 400,
                seed: 3,
                ..Default::default()
            }),
        );
        record.status = "running".to_string();
        store.append_job(&record);
        let mut campaign = daemon_campaign(400, 3);
        campaign.step(32);
        let mut base = campaign.checkpoint().expect("checkpoint");
        base.version += 1;
        assert!(store.save_checkpoint(1, &base) > 0);
        campaign.step(32);
        let (bytes, base) = store.checkpoint_campaign(1, &mut campaign).expect("delta");
        assert!(bytes > 0 && !base, "a delta follows the base");
    }
    let checkpoints = || {
        std::fs::read_dir(dir.join("checkpoints"))
            .expect("ls")
            .count()
    };
    assert_eq!(checkpoints(), 2);

    let daemon = Daemon::start(daemon_config(&dir, 1, 16)).expect("restart");
    let job = connect(&daemon).job(1).expect("job");
    assert_eq!(job.get("status").and_then(|v| v.as_str()), Some("failed"));
    let error = job
        .get("error")
        .and_then(|v| v.as_str())
        .unwrap_or_default();
    assert!(error.contains("resume failed"), "{error}");
    assert_eq!(checkpoints(), 0, "the unusable checkpoint was left behind");
    daemon.stop();
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

#[test]
fn deeply_nested_analyze_job_fails_and_the_daemon_keeps_serving() {
    let dir = scratch_dir("deep");
    let daemon = Daemon::start(daemon_config(&dir, 1, 16)).expect("start");
    let mut client = connect(&daemon);

    // Without the parser's nesting limit, 1,000 nested parens overflow a
    // worker's 2 MiB stack and abort the whole daemon.
    let deep = format!(
        "int f(void) {{ return {}1{}; }}",
        "(".repeat(1_000),
        ")".repeat(1_000)
    );
    let id = client
        .submit(&json!({"cmd": "analyze", "program": deep}))
        .expect("submit deep");
    let job = client.wait(id).expect("wait deep");
    assert_eq!(job.get("status").and_then(|v| v.as_str()), Some("failed"));
    let error = job.get("error").and_then(|v| v.as_str()).unwrap_or("");
    assert!(error.contains("does not parse"), "error: {error:?}");

    let next = client
        .submit(&json!({"cmd": "analyze", "program": "int main(void) { return 0; }"}))
        .expect("submit next");
    let job = client.wait(next).expect("wait next");
    assert_eq!(job.get("status").and_then(|v| v.as_str()), Some("done"));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Read, Write};
    let dir = scratch_dir("overlong");
    let daemon = Daemon::start(daemon_config(&dir, 1, 16)).expect("start");

    let mut stream = std::net::TcpStream::connect(daemon.local_addr()).expect("connect raw");
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        serde_json::from_str::<Value>(&line).expect("reply is JSON")
    };

    // A line that is not UTF-8 is a bad request; the connection stays.
    stream.write_all(b"\xff\n").expect("send non-UTF-8 line");
    let error = "bad request: not UTF-8";
    assert_eq!(reply(), json!({"ok": false, "error": error}));

    // One byte past the cap and no newline: the daemon must stop
    // buffering, answer with an error and close the connection.
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("send overlong line");
    let error = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
    assert_eq!(reply(), json!({"ok": false, "error": error}));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("connection closes");
    assert!(rest.is_empty());

    let status = connect(&daemon).status().expect("a fresh client is served");
    assert_eq!(status.get("ok").and_then(|v| v.as_bool()), Some(true));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `jobs.log` is gone or empty: everything lives in the snapshot.
fn log_is_compacted(dir: &Path) -> bool {
    std::fs::metadata(dir.join("jobs.log")).map_or(true, |m| m.len() == 0)
}

/// The `jobs.json` snapshot alone, as CI and external tools read it.
fn snapshot_records(dir: &Path) -> Vec<JobRecord> {
    let text = std::fs::read_to_string(dir.join("jobs.json")).expect("jobs.json");
    serde_json::from_str(&text).expect("jobs.json is a JSON array of job records")
}

/// A counter's value in a Prometheus text page (0 when absent).
fn prometheus_counter(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse::<f64>().ok())
        .map_or(0, |value| value as u64)
}

fn store_field(status: &Value, key: &str) -> u64 {
    status
        .get("store")
        .and_then(|s| s.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("status.store.{key} missing: {status:?}"))
}

#[test]
fn acknowledged_submits_are_stored_and_the_job_log_is_observable() {
    let dir = scratch_dir("ack");
    let mut config = daemon_config(&dir, 2, 16);
    config.http_addr = Some("127.0.0.1:0".to_string());
    let daemon = Daemon::start(config).expect("start");
    let http = daemon.http_addr().expect("http").to_string();
    let mut client = connect(&daemon);

    // Every acknowledged submit is already in the store, as a fresh
    // handle (a restarted daemon) reads it.
    let mut ids = Vec::new();
    for i in 0..12 {
        let program = format!("int main() {{ int x; return x + {i}; }}");
        let id = client
            .submit(&json!({"cmd": "analyze", "program": program}))
            .expect("submit");
        let stored = Store::open(&dir).expect("open").load_jobs();
        assert!(
            stored.iter().any(|r| r.id == id),
            "job {id} was acknowledged before it was stored"
        );
        ids.push(id);
    }
    for &id in &ids {
        let job = client.wait(id).expect("wait");
        assert_eq!(job.get("status").and_then(|v| v.as_str()), Some("done"));
    }

    // One append per submit and per completion; once the workers go quiet
    // they compact, which empties the log into the snapshot.
    let deadline = Instant::now() + Duration::from_secs(30);
    let (metrics, status) = loop {
        let metrics = fetch(&http, "/metrics").expect("/metrics");
        let status = client.status().expect("status");
        if prometheus_counter(&metrics, "metamut_serve_store_compactions") > 0
            && store_field(&status, "log_bytes") == 0
        {
            break (metrics, status);
        }
        assert!(
            Instant::now() < deadline,
            "idle workers never compacted: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        prometheus_counter(&metrics, "metamut_serve_store_appends"),
        2 * ids.len() as u64
    );
    let snapshot_bytes = store_field(&status, "snapshot_bytes");
    assert_eq!(
        snapshot_bytes,
        std::fs::metadata(dir.join("jobs.json"))
            .expect("jobs.json")
            .len()
    );
    assert!(log_is_compacted(&dir));
    let snapshot = snapshot_records(&dir);
    assert_eq!(snapshot.len(), ids.len());
    assert!(snapshot.iter().all(|r| r.status == "done"));

    daemon.stop();
    assert!(log_is_compacted(&dir));
    assert_eq!(snapshot_records(&dir).len(), ids.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_replays_an_uncompacted_log_and_compacts_it() {
    let dir = scratch_dir("crash");
    let analyze = |id: u64| JobRecord::new(id, JobSpec::analyze("int main() { return 0; }"));
    let ended = |id: u64, status: &str| {
        let mut record = analyze(id);
        record.status = status.to_string();
        record.consumed = 1;
        record
    };
    // A run that crashed between compactions: its snapshot holds two
    // queued jobs, and its log says one finished, one failed, and a third
    // was submitted and cancelled after the snapshot.
    let mut done = ended(1, "done");
    done.result = Some(json!({"kind": "analyze", "findings": [], "ub": 0}));
    let mut failed = ended(2, "failed");
    failed.error = Some("boom".to_string());
    let cancelled = ended(3, "cancelled");
    {
        let store = Store::open(&dir).expect("open");
        store.compact_jobs(&[analyze(1), analyze(2)]);
        for record in [&done, &failed, &cancelled] {
            store.append_job(record);
        }
    }
    assert!(!log_is_compacted(&dir));

    let daemon = Daemon::start(daemon_config(&dir, 1, 16)).expect("restart");
    // Start-up compaction folded the log into the snapshot: the logged
    // states, not the snapshot's, are what the daemon restored.
    assert!(log_is_compacted(&dir), "start-up compaction left the log");
    let as_json = |records: &[&JobRecord]| serde_json::to_string(&records).expect("json");
    let snapshot = snapshot_records(&dir);
    assert_eq!(
        as_json(&snapshot.iter().collect::<Vec<_>>()),
        as_json(&[&done, &failed, &cancelled])
    );
    let mut client = connect(&daemon);
    for (id, status) in [(1, "done"), (2, "failed"), (3, "cancelled")] {
        let job = client.job(id).expect("job");
        assert_eq!(job.get("status").and_then(|v| v.as_str()), Some(status));
    }
    assert_eq!(
        client
            .job(1)
            .expect("job")
            .get("result")
            .and_then(|r| r.get("kind"))
            .and_then(|v| v.as_str()),
        Some("analyze")
    );
    // Ids continue after the logged ones.
    let next = client
        .submit(&json!({"cmd": "analyze", "program": "int main() { return 0; }"}))
        .expect("submit");
    assert_eq!(next, 4);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
