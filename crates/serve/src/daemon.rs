//! The metamut daemon: a long-lived process that timeslices a worker pool
//! across concurrent tenant jobs.
//!
//! Tenants submit jobs over a newline-delimited JSON protocol on TCP (see
//! [`crate::client`]); the same job views are mounted on the observatory
//! HTTP listener as `GET /jobs` and `GET /jobs/<id>`. Fuzzing campaigns run
//! on the stepped serial engine ([`SteppedCampaign`]) so the scheduler can
//! preempt them between slices: each worker lease runs at most
//! [`DaemonConfig::slice`] iterations, then the campaign goes back in the
//! table and the *least-served* runnable job (smallest `consumed`) is
//! leased next. That min-consumed rule is the whole fairness policy — a
//! 10k-iteration campaign cannot starve a 200-iteration one, and one-shot
//! jobs (budget 1) jump the queue.
//!
//! All jobs share one [`QueryDb`], so tenants fuzzing overlapping seed
//! programs reuse each other's UB-gate function summaries; `status`
//! reports the hit counters that make the sharing visible.
//!
//! Every submit, completion, failure and cancel appends that one job's
//! record to the store's job log before the request is answered; the
//! whole table is only written by compaction (see [`crate::store`]), so a
//! change costs one record however many jobs the daemon remembers.
//!
//! Campaigns checkpoint to the store every [`DaemonConfig::checkpoint_every`]
//! slices and again on graceful shutdown (SIGTERM/SIGINT or the `shutdown`
//! command). A checkpoint appends only what changed since the previous
//! one to the job's delta log; a full image is written only as the job's
//! first base and when the log outgrows it. A restarted daemon resumes
//! campaigns from base plus deltas bit-identically; interrupted one-shot
//! jobs are simply re-queued.

use crate::job::{
    compile_options, parse_profile, FuzzSpec, JobRecord, JobSpec, STATUS_CANCELLED, STATUS_DONE,
    STATUS_FAILED, STATUS_QUEUED, STATUS_RUNNING,
};
use crate::store::{DaemonInfo, Store};
use metamut_analyze::QueryDb;
use metamut_fuzzing::campaign::CrashRecord;
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{CampaignConfig, StepProgress, SteppedCampaign, TestGenerator};
use metamut_muast::MutatorRegistry;
use metamut_reduce::{reduce, triage_crashes, ReductionOracle, TriageConfig};
use metamut_simcomp::Compiler;
use metamut_telemetry::{ExtraRoutes, StatusServer, Telemetry};
use serde::Value;
use serde_json::json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`Daemon`] is sized and where it keeps its state.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Persistent store directory (created on start).
    pub store: PathBuf,
    /// TCP address for the JSON-line protocol (`:0` picks a free port).
    pub addr: String,
    /// Optional observatory HTTP address (`/metrics`, `/jobs`, ...).
    pub http_addr: Option<String>,
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Iterations per campaign lease — the scheduler's timeslice.
    pub slice: usize,
    /// Checkpoint a campaign every this many of its slices (`0` disables
    /// periodic checkpoints; shutdown still checkpoints).
    pub checkpoint_every: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            store: PathBuf::from("metamut-store"),
            addr: "127.0.0.1:0".to_string(),
            http_addr: None,
            workers: 2,
            slice: 32,
            checkpoint_every: 4,
        }
    }
}

impl DaemonConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// One live job: the persisted record plus the in-memory machinery that
/// does not survive a restart (and does not need to — the checkpoint does).
struct Job {
    record: JobRecord,
    cancel: Arc<AtomicBool>,
    /// The parked campaign between leases. `None` while a worker holds it
    /// (the job is also `leased` then) or before the first lease.
    campaign: Option<SteppedCampaign>,
    /// Per-job telemetry registry; merged into the store's snapshot when
    /// the segment ends (completion or shutdown checkpoint).
    telemetry: Telemetry,
    leased: bool,
    /// Slices executed this daemon lifetime (periodic-checkpoint clock).
    slices: usize,
    /// Progress/terminal events for the `events` streaming command.
    events: Vec<Value>,
}

impl Job {
    fn new(record: JobRecord) -> Job {
        Job {
            record,
            cancel: Arc::new(AtomicBool::new(false)),
            campaign: None,
            telemetry: Telemetry::new(),
            leased: false,
            slices: 0,
            events: Vec::new(),
        }
    }

    fn push_event(&mut self, event: Value) {
        // Bound the buffer; terminal events always fit because campaigns
        // emit at most one event per slice.
        if self.events.len() < 8192 {
            self.events.push(event);
        }
    }
}

struct Table {
    jobs: Vec<Job>,
    next_id: u64,
}

impl Table {
    fn find(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|j| j.record.id == id)
    }

    /// Every record, cloned: compaction's input, and nothing else's.
    fn records(&self) -> Vec<JobRecord> {
        self.jobs.iter().map(|j| j.record.clone()).collect()
    }
}

struct Inner {
    config: DaemonConfig,
    store: Store,
    query_db: Arc<QueryDb>,
    registry: Arc<MutatorRegistry>,
    state: Mutex<Table>,
    /// Held across every read of table state that goes to the store (one
    /// job's log record, or compaction's whole table) and its write, and
    /// always taken before `state`: the store sees each job's states in
    /// table order, and no append slips between a compaction's read and
    /// its deletion of the log.
    save_lock: Mutex<()>,
    cv: Condvar,
    shutdown: AtomicBool,
    telemetry: Telemetry,
}

impl Inner {
    fn table(&self) -> MutexGuard<'_, Table> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn save_lock(&self) -> MutexGuard<'_, ()> {
        self.save_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends job `id`'s current record to the store's log, compacting
    /// when the log has outgrown the snapshot.
    fn save_job(&self, id: u64) {
        let save = self.save_lock();
        let Some(record) = self.table().find(id).map(|j| j.record.clone()) else {
            return;
        };
        self.store.append_job(&record);
        self.telemetry.counter_add("serve_store_appends", 1);
        if self.store.compaction_due() {
            self.compact(&save);
        }
    }

    /// Compaction: the whole table becomes the store's snapshot and the
    /// log is emptied. Takes the `save_lock` guard to prove it is held.
    fn compact(&self, _save: &MutexGuard<'_, ()>) {
        let records = self.table().records();
        self.store.compact_jobs(&records);
        self.telemetry.counter_add("serve_store_compactions", 1);
    }
}

/// A running daemon. Dropping it (or calling [`Daemon::stop`]) performs a
/// graceful shutdown: workers finish their current slice, every in-flight
/// campaign is checkpointed, and the job table is persisted.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: SocketAddr,
    http: Option<StatusServer>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Opens the store, restores persisted jobs (resuming checkpointed
    /// campaigns), binds the protocol listener, and starts the worker pool.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let store = Store::open(&config.store)?;
        let inner = Arc::new(Inner {
            store,
            query_db: Arc::new(QueryDb::new()),
            registry: Arc::new(metamut_mutators::full_registry()),
            state: Mutex::new(Table {
                jobs: Vec::new(),
                next_id: 1,
            }),
            save_lock: Mutex::new(()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            telemetry: Telemetry::new(),
            config,
        });
        restore_jobs(&inner);

        let listener = TcpListener::bind(&inner.config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let accept = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("metamut-serve-accept".to_string())
                .spawn(move || accept_loop(inner, listener))?
        };
        let workers = (0..inner.config.resolved_workers())
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("metamut-serve-worker-{i}"))
                    .spawn(move || worker_loop(inner))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let http = match inner.config.http_addr.clone() {
            Some(http_addr) => Some(StatusServer::bind_with_routes(
                &http_addr,
                inner.telemetry.clone(),
                Some(job_routes(inner.clone())),
            )?),
            None => None,
        };
        inner.store.write_daemon_info(&DaemonInfo {
            addr: addr.to_string(),
            http_addr: http.as_ref().map(|s| s.local_addr().to_string()),
            pid: std::process::id(),
        });
        Ok(Daemon {
            inner,
            addr,
            http,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound protocol address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound observatory HTTP address, when one was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(|s| s.local_addr())
    }

    /// The store directory.
    pub fn store_root(&self) -> PathBuf {
        self.inner.store.root().to_path_buf()
    }

    /// Submits a job directly (the in-process equivalent of the protocol's
    /// submit commands), returning its id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        submit_spec(&self.inner, spec)
    }

    /// Whether shutdown was requested (by a client command or a signal
    /// relayed through [`Daemon::trigger_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutting_down()
    }

    /// Asks the daemon to shut down without blocking; [`Daemon::stop`] or
    /// drop completes it.
    pub fn trigger_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.cv.notify_all();
    }

    /// Graceful shutdown: joins the pool, checkpoints running campaigns,
    /// persists the job table.
    pub fn stop(mut self) {
        self.shutdown_impl();
    }

    /// Blocks until a termination signal or a client `shutdown` command
    /// arrives, then stops gracefully. Installs SIGTERM/SIGINT handlers.
    pub fn run_until_shutdown(self) {
        signals::install();
        while !signals::terminated() && !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.stop();
    }

    fn shutdown_impl(&mut self) {
        self.trigger_shutdown();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Workers are gone: every parked campaign is in the table. Snapshot
        // them so a restart resumes instead of restarting.
        let save = self.inner.save_lock();
        {
            let mut table = self.inner.table();
            for job in table.jobs.iter_mut() {
                if job.record.is_terminal() {
                    continue;
                }
                if let Some(campaign) = &mut job.campaign {
                    checkpoint_job(&self.inner, job.record.id, campaign);
                    job.record.consumed = campaign.completed();
                    // Close this segment's telemetry so counters sum
                    // correctly across resume segments.
                    self.inner.store.merge_telemetry(job.telemetry.snapshot());
                }
            }
        }
        self.inner.compact(&save);
        self.http = None;
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// SIGTERM/SIGINT latch for the daemon process. Std-only: `signal` comes
/// from libc, which is always linked on the unix targets we support.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs handlers for SIGTERM (15) and SIGINT (2). No-op elsewhere.
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            signal(15, on_signal as *const () as usize);
            signal(2, on_signal as *const () as usize);
        }
    }

    /// Whether a termination signal has arrived since [`install`].
    pub fn terminated() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Startup restore
// ---------------------------------------------------------------------------

fn restore_jobs(inner: &Arc<Inner>) {
    // An empty store (no snapshot records, no log) has nothing to restore
    // and nothing to compact.
    let records = inner.store.load_jobs();
    if records.is_empty() && inner.store.log_bytes() == 0 {
        return;
    }
    {
        let mut table = inner.table();
        for mut record in records {
            table.next_id = table.next_id.max(record.id + 1);
            let mut job = Job::new(JobRecord::new(0, JobSpec::analyze("")));
            if !record.is_terminal() {
                if record.spec.kind == "fuzz" {
                    match inner.store.load_checkpoint(record.id) {
                        Some(checkpoint) => {
                            let spec = record.spec.fuzz.clone().unwrap_or_default();
                            match resume_campaign(inner, &spec, checkpoint, &job) {
                                Ok(campaign) => {
                                    record.status = STATUS_RUNNING.to_string();
                                    record.consumed = campaign.completed();
                                    job.campaign = Some(campaign);
                                    inner.telemetry.counter_add("serve_resumes", 1);
                                }
                                Err(e) => {
                                    record.status = STATUS_FAILED.to_string();
                                    record.error = Some(format!("resume failed: {e}"));
                                    inner.store.remove_checkpoint(record.id);
                                }
                            }
                        }
                        // Interrupted before the first checkpoint: the
                        // campaign is deterministic from its seed, so
                        // restarting from zero reproduces the same run.
                        None => {
                            record.status = STATUS_QUEUED.to_string();
                            record.consumed = 0;
                        }
                    }
                } else {
                    // One-shot jobs are cheap and idempotent: re-queue.
                    record.status = STATUS_QUEUED.to_string();
                    record.consumed = 0;
                }
            }
            job.record = record;
            table.jobs.push(job);
        }
    }
    // Normalize the statuses we just rewrote back to disk, folding the
    // previous run's log into the snapshot.
    inner.compact(&inner.save_lock());
    inner.cv.notify_all();
}

fn generator(inner: &Inner) -> Box<dyn TestGenerator> {
    Box::new(MuCFuzz::new(
        "uCFuzz",
        inner.registry.clone(),
        seed_corpus().iter().map(|s| s.to_string()),
    ))
}

fn campaign_config(
    inner: &Inner,
    spec: &FuzzSpec,
    cancel: &Arc<AtomicBool>,
) -> Result<(Compiler, CampaignConfig), String> {
    let profile = parse_profile(&spec.profile)
        .ok_or_else(|| format!("unknown profile {:?}", spec.profile))?;
    let compiler = Compiler::new(profile, compile_options(spec.opt_level));
    let config = CampaignConfig {
        iterations: spec.iterations,
        seed: spec.seed,
        sample_every: spec.resolved_sample_every(),
        workers: 1,
        query_db: Some(inner.query_db.clone()),
        stop: Some(cancel.clone()),
        ..Default::default()
    };
    Ok((compiler, config))
}

fn build_campaign(
    inner: &Inner,
    spec: &FuzzSpec,
    cancel: &Arc<AtomicBool>,
    telemetry: Telemetry,
) -> Result<SteppedCampaign, String> {
    let (compiler, config) = campaign_config(inner, spec, cancel)?;
    Ok(SteppedCampaign::new(
        generator(inner),
        &compiler,
        &config,
        telemetry,
    ))
}

fn resume_campaign(
    inner: &Inner,
    spec: &FuzzSpec,
    checkpoint: metamut_fuzzing::CampaignCheckpoint,
    job: &Job,
) -> Result<SteppedCampaign, String> {
    let (compiler, config) = campaign_config(inner, spec, &job.cancel)?;
    SteppedCampaign::resume(
        checkpoint,
        generator(inner),
        &compiler,
        &config,
        job.telemetry.clone(),
    )
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

fn validate_spec(spec: &JobSpec) -> Result<(), String> {
    let (profile, opt_level) = match spec.kind.as_str() {
        "fuzz" => {
            let fuzz = spec.fuzz.as_ref().ok_or("fuzz job without parameters")?;
            if fuzz.iterations == 0 {
                return Err("fuzz: iterations must be positive".to_string());
            }
            (&fuzz.profile, fuzz.opt_level)
        }
        "analyze" => {
            spec.program.as_ref().ok_or("analyze: missing program")?;
            return Ok(());
        }
        "reduce" => {
            spec.program.as_ref().ok_or("reduce: missing program")?;
            (&spec.profile, spec.opt_level)
        }
        "triage" => {
            if spec.programs.is_empty() {
                return Err("triage: no programs".to_string());
            }
            (&spec.profile, spec.opt_level)
        }
        other => return Err(format!("unknown job kind {other:?}")),
    };
    parse_profile(profile).ok_or_else(|| format!("unknown profile {profile:?}"))?;
    if opt_level > 3 {
        return Err(format!("opt_level must be 0-3, got {opt_level}"));
    }
    Ok(())
}

fn submit_spec(inner: &Arc<Inner>, spec: JobSpec) -> Result<u64, String> {
    if inner.shutting_down() {
        return Err("daemon is shutting down".to_string());
    }
    validate_spec(&spec)?;
    let id = {
        let mut table = inner.table();
        let id = table.next_id;
        table.next_id += 1;
        table.jobs.push(Job::new(JobRecord::new(id, spec)));
        id
    };
    inner.telemetry.counter_add("serve_jobs_submitted", 1);
    inner.save_job(id);
    inner.cv.notify_all();
    Ok(id)
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

/// The fairness policy, in one function: among jobs that could run right
/// now, pick the one that has consumed the least budget (ties to the
/// oldest id).
fn pick_runnable(table: &Table) -> Option<usize> {
    table
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| !j.leased && !j.record.is_terminal())
        .filter(|(_, j)| j.record.status == STATUS_QUEUED || j.campaign.is_some())
        .min_by_key(|(_, j)| (j.record.consumed, j.record.id))
        .map(|(i, _)| i)
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        let (id, kind) = {
            let mut table = inner.table();
            let mut quiet = false;
            loop {
                if inner.shutting_down() {
                    return;
                }
                if let Some(i) = pick_runnable(&table) {
                    let job = &mut table.jobs[i];
                    job.leased = true;
                    if job.record.status == STATUS_QUEUED {
                        job.record.status = STATUS_RUNNING.to_string();
                    }
                    break (job.record.id, job.record.spec.kind.clone());
                }
                // A whole tick without work or wake-ups: the daemon is
                // quiet, so fold the log into the snapshot to keep
                // `jobs.json` current. (Compacting as soon as a job ends
                // would stall the next submit behind a table rewrite.)
                // One attempt per quiet tick, so a failing write cannot spin.
                if std::mem::take(&mut quiet) && inner.store.log_bytes() > 0 {
                    drop(table);
                    let save = inner.save_lock();
                    // Another worker may have compacted meanwhile.
                    if inner.store.log_bytes() > 0 {
                        inner.compact(&save);
                    }
                    drop(save);
                    table = inner.table();
                    continue;
                }
                let (guard, timeout) = inner
                    .cv
                    .wait_timeout(table, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                table = guard;
                quiet = timeout.timed_out();
            }
        };
        if kind == "fuzz" {
            run_fuzz_slice(&inner, id);
        } else {
            run_short_job(&inner, id);
        }
        inner.cv.notify_all();
    }
}

fn fail_job(inner: &Arc<Inner>, id: u64, error: String) {
    {
        let mut table = inner.table();
        if let Some(job) = table.find(id) {
            job.record.status = STATUS_FAILED.to_string();
            job.record.error = Some(error.clone());
            job.leased = false;
            job.push_event(json!({"event": "failed", "job": id, "error": error}));
        }
    }
    inner.telemetry.counter_add("serve_jobs_failed", 1);
    inner.save_job(id);
}

fn progress_event(id: u64, p: &StepProgress, telemetry: &Telemetry) -> Value {
    let snapshot = telemetry.snapshot();
    let execs = snapshot.counters.get("fuzz_execs").copied().unwrap_or(0);
    json!({
        "event": "progress",
        "job": id,
        "completed": (p.completed),
        "iterations": (p.iterations),
        "covered": (p.covered),
        "crashes": (p.crashes),
        "corpus": (p.corpus),
        "execs": execs,
    })
}

/// One campaign timeslice: take the campaign out of the table, run up to
/// `slice` iterations outside the lock, park it again (or finish it).
fn run_fuzz_slice(inner: &Arc<Inner>, id: u64) {
    let (campaign, cancel, telemetry, spec, slices) = {
        let mut table = inner.table();
        let Some(job) = table.find(id) else { return };
        (
            job.campaign.take(),
            job.cancel.clone(),
            job.telemetry.clone(),
            job.record.spec.fuzz.clone().unwrap_or_default(),
            job.slices,
        )
    };
    let mut campaign = match campaign {
        Some(c) => c,
        // First lease: build the campaign from its spec (outside the lock),
        // dropping checkpoint files a previous run may have left: its first
        // checkpoint is a fresh base.
        None => match build_campaign(inner, &spec, &cancel, telemetry.clone()) {
            Ok(c) => {
                inner.store.remove_checkpoint(id);
                c
            }
            Err(e) => {
                fail_job(inner, id, e);
                return;
            }
        },
    };

    campaign.step(inner.config.slice);
    inner.telemetry.counter_add("serve_slices", 1);
    let progress = campaign.progress();

    if campaign.is_done() {
        finish_fuzz(inner, id, campaign, &spec, &telemetry);
        return;
    }

    if cancel.load(Ordering::Relaxed) {
        {
            let mut table = inner.table();
            if let Some(job) = table.find(id) {
                job.record.status = STATUS_CANCELLED.to_string();
                job.record.consumed = progress.completed;
                job.leased = false;
                job.push_event(json!({"event": "cancelled", "job": id}));
            }
        }
        inner.store.remove_checkpoint(id);
        inner.save_job(id);
        return;
    }

    // Periodic checkpoint, taken outside the table lock.
    if inner.config.checkpoint_every > 0 && (slices + 1) % inner.config.checkpoint_every == 0 {
        checkpoint_job(inner, id, &mut campaign);
    }

    let mut table = inner.table();
    if let Some(job) = table.find(id) {
        job.slices = slices + 1;
        job.record.consumed = progress.completed;
        let event = progress_event(id, &progress, &telemetry);
        job.push_event(event);
        job.campaign = Some(campaign);
        job.leased = false;
    }
}

/// Checkpoints job `id`'s campaign to the store (a delta, or a full base
/// when one is due) and counts what it wrote.
fn checkpoint_job(inner: &Inner, id: u64, campaign: &mut SteppedCampaign) {
    match inner.store.checkpoint_campaign(id, campaign) {
        Ok((bytes, base)) => {
            inner.telemetry.counter_add("serve_checkpoints", 1);
            inner.telemetry.counter_add("serve_checkpoint_bytes", bytes);
            if base && bytes > 0 {
                inner
                    .telemetry
                    .counter_add("serve_checkpoint_compactions", 1);
            }
        }
        Err(e) => eprintln!("metamut-serve: checkpoint of job {id} failed: {e}"),
    }
}

fn finish_fuzz(
    inner: &Arc<Inner>,
    id: u64,
    campaign: SteppedCampaign,
    spec: &FuzzSpec,
    telemetry: &Telemetry,
) {
    let (report, corpus) = campaign.finish();
    let completed = report.mutants.total;

    // Per-job triage: reduce the campaign's crash witnesses through the
    // shared query database, then merge into the store-wide report.
    let triage_value = if spec.reduce && !report.crashes.is_empty() {
        match job_triage(inner, &report.crashes, &spec.profile, spec.opt_level) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("metamut-serve: triage for job {id} failed: {e}");
                Value::Null
            }
        }
    } else {
        Value::Null
    };

    let result = json!({
        "kind": "fuzz",
        "report": (::serde::to_value(&report)),
        "corpus": (corpus.len()),
        "triage": triage_value,
    });

    inner.store.append_corpus(id, &corpus);
    inner.store.merge_telemetry(telemetry.snapshot());
    inner.store.remove_checkpoint(id);
    {
        let mut table = inner.table();
        if let Some(job) = table.find(id) {
            job.record.status = STATUS_DONE.to_string();
            job.record.consumed = completed;
            job.record.result = Some(result);
            job.leased = false;
            job.push_event(json!({
                "event": "done",
                "job": id,
                "crashes": (report.crashes.len()),
                "coverage": (report.final_coverage),
            }));
        }
    }
    inner.telemetry.counter_add("serve_jobs_done", 1);
    inner.save_job(id);
}

fn job_triage(
    inner: &Arc<Inner>,
    crashes: &[CrashRecord],
    profile_name: &str,
    opt_level: u8,
) -> Result<Value, String> {
    let profile = parse_profile(profile_name).ok_or("unknown profile")?;
    let options = compile_options(opt_level);
    let config = TriageConfig {
        workers: 1,
        query_db: Some(inner.query_db.clone()),
        ..Default::default()
    };
    let report = triage_crashes(crashes, profile, &options, &config);
    if let Err(e) = inner.store.merge_triage(report.clone()) {
        eprintln!("metamut-serve: store triage merge skipped: {e}");
    }
    Ok(::serde::to_value(&report))
}

fn run_short_job(inner: &Arc<Inner>, id: u64) {
    let spec = {
        let mut table = inner.table();
        let Some(job) = table.find(id) else { return };
        job.record.spec.clone()
    };
    let outcome = match spec.kind.as_str() {
        "analyze" => run_analyze(&spec),
        "reduce" => run_reduce(&spec),
        "triage" => run_triage(inner, &spec),
        other => Err(format!("unknown job kind {other:?}")),
    };
    {
        let mut table = inner.table();
        if let Some(job) = table.find(id) {
            job.record.consumed = job.record.total;
            match outcome {
                Ok(result) => {
                    job.record.status = STATUS_DONE.to_string();
                    job.record.result = Some(result);
                    job.push_event(json!({"event": "done", "job": id}));
                    inner.telemetry.counter_add("serve_jobs_done", 1);
                }
                Err(e) => {
                    job.record.status = STATUS_FAILED.to_string();
                    job.record.error = Some(e.clone());
                    job.push_event(json!({"event": "failed", "job": id, "error": e}));
                    inner.telemetry.counter_add("serve_jobs_failed", 1);
                }
            }
            job.leased = false;
        }
    }
    inner.save_job(id);
}

fn run_analyze(spec: &JobSpec) -> Result<Value, String> {
    let program = spec.program.as_deref().ok_or("analyze: missing program")?;
    match metamut_analyze::analyze_source(program) {
        Ok(findings) => {
            let ub = findings.iter().filter(|f| f.is_ub()).count();
            Ok(json!({
                "kind": "analyze",
                "findings": (::serde::to_value(&findings)),
                "ub": ub,
            }))
        }
        Err(diags) => Err(format!(
            "analyze: program does not parse ({} diagnostic(s))",
            diags.iter().count()
        )),
    }
}

fn run_reduce(spec: &JobSpec) -> Result<Value, String> {
    let program = spec.program.as_deref().ok_or("reduce: missing program")?;
    let profile = parse_profile(&spec.profile).ok_or("unknown profile")?;
    let options = compile_options(spec.opt_level);
    let oracle = ReductionOracle::for_witness(profile, options, program)
        .ok_or("reduce: program does not crash the compiler")?;
    let result = reduce(&oracle, program, &Default::default());
    Ok(json!({
        "kind": "reduce",
        "reduced": (result.reduced),
        "original_bytes": (result.original_bytes),
        "reduced_bytes": (result.reduced_bytes),
        "oracle_calls": (result.oracle_calls),
    }))
}

fn run_triage(inner: &Arc<Inner>, spec: &JobSpec) -> Result<Value, String> {
    let profile = parse_profile(&spec.profile).ok_or("unknown profile")?;
    let options = compile_options(spec.opt_level);
    let compiler = Compiler::new(profile, options);
    let mut records = Vec::new();
    for (i, program) in spec.programs.iter().enumerate() {
        if let Some(info) = compiler.compile(program).outcome.crash() {
            records.push(CrashRecord {
                signature: info.signature(),
                info: info.clone(),
                first_iteration: i,
                witness: program.clone(),
                options: compiler.options().clone(),
            });
        }
    }
    if records.is_empty() {
        return Err("triage: none of the programs crash the compiler".to_string());
    }
    job_triage(inner, &records, &spec.profile, spec.opt_level).map(|triage| {
        json!({
            "kind": "triage",
            "crashing": (records.len()),
            "submitted": (spec.programs.len()),
            "triage": triage,
        })
    })
}

// ---------------------------------------------------------------------------
// The JSON-line protocol
// ---------------------------------------------------------------------------

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        if inner.shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = inner.clone();
                let _ = std::thread::Builder::new()
                    .name("metamut-serve-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(inner, stream);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn write_line(writer: &mut TcpStream, value: &Value) -> io::Result<()> {
    let mut line = serde_json::to_string(value).map_err(io::Error::other)?;
    line.push('\n');
    writer.write_all(line.as_bytes())
}

fn error_value(message: impl std::fmt::Display) -> Value {
    json!({"ok": false, "error": (message.to_string())})
}

/// The longest request line the daemon reads, newline excluded. Partial
/// input buffered across read timeouts counts towards it; a longer line
/// gets an error reply and its connection is closed.
pub const MAX_REQUEST_LINE: usize = 8 << 20;

fn handle_connection(inner: Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // Room for one byte past the cap, so an overlong line shows.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') => {
                let error = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                write_line(&mut writer, &error_value(error))?;
                break;
            }
            Ok(_) => {
                match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => {}
                    Ok(request) => process_request(&inner, request, &mut writer)?,
                    Err(_) => write_line(&mut writer, &error_value("bad request: not UTF-8"))?,
                }
                line.clear();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Partial input (if any) stays buffered in `line`.
                if inner.shutting_down() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Ok(())
}

fn process_request(inner: &Arc<Inner>, line: &str, writer: &mut TcpStream) -> io::Result<()> {
    let request: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return write_line(writer, &error_value(format!("bad request: {e}"))),
    };
    let cmd = request
        .get("cmd")
        .and_then(|v| v.as_str())
        .unwrap_or_default()
        .to_string();
    match cmd.as_str() {
        "fuzz" | "analyze" | "reduce" | "triage" => {
            let response =
                match spec_from_request(&cmd, &request).and_then(|spec| submit_spec(inner, spec)) {
                    Ok(id) => json!({"ok": true, "id": id}),
                    Err(e) => error_value(e),
                };
            write_line(writer, &response)
        }
        "status" => write_line(writer, &status_value(inner)),
        "jobs" => {
            let rows: Vec<Value> = inner
                .table()
                .jobs
                .iter()
                .map(|j| j.record.summary_value())
                .collect();
            write_line(writer, &json!({"ok": true, "jobs": (Value::Array(rows))}))
        }
        "job" => {
            let response = match request_id(&request).and_then(|id| {
                let mut table = inner.table();
                table
                    .find(id)
                    .map(|j| ::serde::to_value(&j.record))
                    .ok_or_else(|| format!("no such job {id}"))
            }) {
                Ok(v) => json!({"ok": true, "job": v}),
                Err(e) => error_value(e),
            };
            write_line(writer, &response)
        }
        "wait" => wait_command(inner, &request, writer),
        "events" => events_command(inner, &request, writer),
        "cancel" => {
            let response = match request_id(&request).and_then(|id| cancel_job(inner, id)) {
                Ok(status) => json!({"ok": true, "status": status}),
                Err(e) => error_value(e),
            };
            write_line(writer, &response)
        }
        "shutdown" => {
            write_line(writer, &json!({"ok": true}))?;
            inner.shutdown.store(true, Ordering::Relaxed);
            inner.cv.notify_all();
            Ok(())
        }
        other => write_line(writer, &error_value(format!("unknown command {other:?}"))),
    }
}

fn request_id(request: &Value) -> Result<u64, String> {
    request
        .get("id")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| "missing job id".to_string())
}

fn spec_from_request(cmd: &str, request: &Value) -> Result<JobSpec, String> {
    let str_field = |key: &str, default: &str| -> String {
        request
            .get(key)
            .and_then(|v| v.as_str())
            .unwrap_or(default)
            .to_string()
    };
    let usize_field = |key: &str, default: usize| -> usize {
        request
            .get(key)
            .and_then(|v| v.as_u64())
            .map(|n| n as usize)
            .unwrap_or(default)
    };
    let profile = str_field("profile", "gcc");
    // Saturate rather than wrap (`300 as u8` is 44), so `validate_spec`
    // sees an out-of-range level and rejects it.
    let opt_level = u8::try_from(usize_field("opt_level", 2)).unwrap_or(u8::MAX);
    match cmd {
        "fuzz" => {
            let d = FuzzSpec::default();
            Ok(JobSpec::fuzz(FuzzSpec {
                iterations: usize_field("iterations", d.iterations),
                seed: request
                    .get("seed")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(d.seed),
                profile,
                opt_level,
                sample_every: usize_field("sample_every", 0),
                reduce: request
                    .get("reduce")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false),
            }))
        }
        "analyze" => {
            let program = request
                .get("program")
                .and_then(|v| v.as_str())
                .ok_or("analyze: missing program")?;
            Ok(JobSpec::analyze(program))
        }
        "reduce" => {
            let program = request
                .get("program")
                .and_then(|v| v.as_str())
                .ok_or("reduce: missing program")?;
            Ok(JobSpec::reduce(program, profile, opt_level))
        }
        "triage" => {
            let programs = request
                .get("programs")
                .and_then(|v| v.as_array())
                .ok_or("triage: missing programs")?
                .iter()
                .filter_map(|v| v.as_str().map(|s| s.to_string()))
                .collect::<Vec<_>>();
            Ok(JobSpec::triage(programs, profile, opt_level))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn status_value(inner: &Arc<Inner>) -> Value {
    let table = inner.table();
    let count = |status: &str| {
        table
            .jobs
            .iter()
            .filter(|j| j.record.status == status)
            .count()
    };
    json!({
        "ok": true,
        "queued": (count(STATUS_QUEUED)),
        "running": (count(STATUS_RUNNING)),
        "done": (count(STATUS_DONE)),
        "failed": (count(STATUS_FAILED)),
        "cancelled": (count(STATUS_CANCELLED)),
        "workers": (inner.config.resolved_workers()),
        "query_db": {
            "memos": (inner.query_db.len()),
            "hits": (inner.query_db.hits()),
            "recomputes": (inner.query_db.recomputes()),
        },
        "store": {
            "root": (inner.store.root().display().to_string()),
            "log_bytes": (inner.store.log_bytes()),
            "snapshot_bytes": (inner.store.snapshot_bytes()),
        },
    })
}

fn cancel_job(inner: &Arc<Inner>, id: u64) -> Result<String, String> {
    let mut save = false;
    let status = {
        let mut table = inner.table();
        let job = table.find(id).ok_or_else(|| format!("no such job {id}"))?;
        if job.record.is_terminal() {
            job.record.status.clone()
        } else if job.record.status == STATUS_QUEUED && !job.leased {
            // Never started: cancel immediately.
            job.record.status = STATUS_CANCELLED.to_string();
            job.push_event(json!({"event": "cancelled", "job": id}));
            save = true;
            STATUS_CANCELLED.to_string()
        } else {
            // Running: the flag stops the campaign at its next iteration
            // boundary; the worker records the cancellation.
            job.cancel.store(true, Ordering::Relaxed);
            job.record.status.clone()
        }
    };
    if save {
        inner.save_job(id);
    }
    inner.cv.notify_all();
    Ok(status)
}

fn wait_command(inner: &Arc<Inner>, request: &Value, writer: &mut TcpStream) -> io::Result<()> {
    let id = match request_id(request) {
        Ok(id) => id,
        Err(e) => return write_line(writer, &error_value(e)),
    };
    let mut table = inner.table();
    loop {
        let Some(job) = table.find(id) else {
            drop(table);
            return write_line(writer, &error_value(format!("no such job {id}")));
        };
        if job.record.is_terminal() {
            let value = ::serde::to_value(&job.record);
            drop(table);
            return write_line(writer, &json!({"ok": true, "job": value}));
        }
        if inner.shutting_down() {
            drop(table);
            return write_line(writer, &error_value("daemon is shutting down"));
        }
        table = inner
            .cv
            .wait_timeout(table, Duration::from_millis(200))
            .map(|(t, _)| t)
            .unwrap_or_else(|e| e.into_inner().0);
    }
}

/// Streams a job's buffered events as one JSON line each, following the
/// job live until it reaches a terminal state, then closes with an
/// `{"ok": true}` summary line.
fn events_command(inner: &Arc<Inner>, request: &Value, writer: &mut TcpStream) -> io::Result<()> {
    let id = match request_id(request) {
        Ok(id) => id,
        Err(e) => return write_line(writer, &error_value(e)),
    };
    let mut next = 0usize;
    loop {
        let (batch, terminal) = {
            let mut table = inner.table();
            let Some(job) = table.find(id) else {
                drop(table);
                return write_line(writer, &error_value(format!("no such job {id}")));
            };
            let batch: Vec<Value> = job.events.get(next..).unwrap_or_default().to_vec();
            (batch, job.record.is_terminal())
        };
        for event in &batch {
            write_line(writer, event)?;
        }
        next += batch.len();
        if terminal {
            return write_line(writer, &json!({"ok": true, "id": id, "events": next}));
        }
        if inner.shutting_down() {
            return write_line(writer, &error_value("daemon is shutting down"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------------
// HTTP mount
// ---------------------------------------------------------------------------

/// The observatory routes: `GET /jobs` lists summaries, `GET /jobs/<id>`
/// returns one full record.
fn job_routes(inner: Arc<Inner>) -> ExtraRoutes {
    Arc::new(move |path: &str| {
        if path == "/jobs" {
            let rows: Vec<Value> = inner
                .table()
                .jobs
                .iter()
                .map(|j| j.record.summary_value())
                .collect();
            let body = serde_json::to_string(&Value::Array(rows)).ok()?;
            Some(("application/json".to_string(), body))
        } else if let Some(rest) = path.strip_prefix("/jobs/") {
            let id = rest.parse::<u64>().ok()?;
            let mut table = inner.table();
            let job = table.find(id)?;
            let body = serde_json::to_string(&::serde::to_value(&job.record)).ok()?;
            Some(("application/json".to_string(), body))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_applies_defaults_and_validates() {
        let request: Value =
            serde_json::from_str(r#"{"cmd":"fuzz","iterations":50,"seed":9}"#).expect("parse");
        let spec = spec_from_request("fuzz", &request).expect("spec");
        let fuzz = spec.fuzz.expect("fuzz");
        assert_eq!(fuzz.iterations, 50);
        assert_eq!(fuzz.seed, 9);
        assert_eq!(fuzz.profile, "gcc");
        assert!(!fuzz.reduce);
        validate_spec(&JobSpec::fuzz(fuzz)).expect("valid");

        let request: Value = serde_json::from_str(r#"{"cmd":"analyze"}"#).expect("parse");
        assert!(spec_from_request("analyze", &request).is_err());

        let bad = JobSpec::fuzz(FuzzSpec {
            profile: "tcc".to_string(),
            ..Default::default()
        });
        assert!(validate_spec(&bad).is_err());
        let empty = JobSpec::triage(Vec::new(), "gcc", 2);
        assert!(validate_spec(&empty).is_err());

        // `-O` levels outside 0–3 are rejected for every compiling job
        // kind, and a request's 300 must not wrap around to 44.
        for cmd in ["fuzz", "reduce", "triage"] {
            let request: Value = serde_json::from_str(&format!(
                r#"{{"cmd":"{cmd}","program":"int x;","programs":["int x;"],"opt_level":300}}"#
            ))
            .expect("parse");
            let spec = spec_from_request(cmd, &request).expect("spec");
            let err = validate_spec(&spec).expect_err("opt_level 300 must be rejected");
            assert!(err.contains("opt_level"), "{cmd}: {err}");
            for level in [0u8, 3] {
                let mut spec = spec.clone();
                spec.opt_level = level;
                if let Some(fuzz) = spec.fuzz.as_mut() {
                    fuzz.opt_level = level;
                }
                validate_spec(&spec).expect("levels 0-3 are valid");
            }
        }
        let four = JobSpec::reduce("int x;", "gcc", 4);
        assert!(validate_spec(&four).is_err());
    }

    #[test]
    fn fairness_picks_least_served_runnable_job() {
        let mut table = Table {
            jobs: Vec::new(),
            next_id: 1,
        };
        let mut big = Job::new(JobRecord::new(
            1,
            JobSpec::fuzz(FuzzSpec {
                iterations: 10_000,
                ..Default::default()
            }),
        ));
        big.record.status = STATUS_RUNNING.to_string();
        big.record.consumed = 640;
        // Parked campaigns count as runnable; fake it with status queued on
        // the others instead of building real campaigns here.
        let small = Job::new(JobRecord::new(
            2,
            JobSpec::fuzz(FuzzSpec {
                iterations: 200,
                ..Default::default()
            }),
        ));
        let oneshot = Job::new(JobRecord::new(3, JobSpec::analyze("int main;")));
        table.jobs.push(big);
        table.jobs.push(small);
        table.jobs.push(oneshot);

        // Job 1 is running but has no parked campaign (worker holds it) —
        // not runnable. Jobs 2 and 3 tie at consumed 0; oldest id wins.
        assert_eq!(pick_runnable(&table), Some(1));
        table.jobs[1].leased = true;
        assert_eq!(pick_runnable(&table), Some(2));
        table.jobs[2].leased = true;
        assert_eq!(pick_runnable(&table), None);

        // A terminal job never runs again.
        table.jobs[1].leased = false;
        table.jobs[1].record.status = STATUS_DONE.to_string();
        assert_eq!(pick_runnable(&table), None);
        table.jobs[2].leased = false;
        assert_eq!(pick_runnable(&table), Some(2));
    }

    #[test]
    fn status_counts_and_error_values_are_well_formed() {
        let v = error_value("boom");
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
        assert_eq!(v.get("error").and_then(|e| e.as_str()), Some("boom"));
        assert!(request_id(&json!({"id": 4})).is_ok());
        assert!(request_id(&json!({"id": "four"})).is_err());
    }
}
