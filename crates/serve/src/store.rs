//! The daemon's versioned on-disk store: everything a restart needs to
//! continue where the previous process stopped.
//!
//! Layout under the store root:
//!
//! - `store.json` — `{ "version": N }`; a newer version than this build
//!   reads refuses to open (old daemons must not clobber new data), and an
//!   older one is rewritten as this build's version on open.
//! - `jobs.json` — the job table's snapshot: a compact JSON array of every
//!   [`JobRecord`] the daemon had accepted when it last compacted.
//! - `jobs.log` — the job table's changes since that snapshot: one compact
//!   JSON [`JobRecord`] per line, appended on every submit, completion,
//!   failure and cancel. [`Store::load_jobs`] replays it over the snapshot
//!   (the last line per id wins). Compaction writes a fresh snapshot and
//!   deletes the log; the daemon compacts when the log outgrows the
//!   snapshot (with a [`LOG_COMPACT_FLOOR`] floor), when a worker goes
//!   quiet, at start-up and at graceful shutdown.
//! - `corpus.json` — pool-growing programs with coverage metadata, tagged
//!   by the job that found them.
//! - `triage.json` / `triage.md` — the merged [`TriageReport`] across all
//!   jobs ([`TriageReport::merge`] dedups bugs by signature).
//! - `telemetry.json` — the merged metrics [`Snapshot`] across all jobs.
//! - `checkpoints/job-N.json` — one [`CampaignCheckpoint`] per in-flight
//!   campaign, written on interval and at shutdown.
//! - `daemon.json` — the live daemon's bound addresses and pid, so
//!   clients and CI scripts can find an ephemeral-port daemon.
//!
//! Every read of a corrupted or truncated file degrades to a warning plus
//! the empty default — a damaged store never panics the daemon; a torn or
//! corrupt `jobs.log` line is skipped. Whole-file writes go through a temp
//! file + rename so a crash mid-write leaves the previous version intact;
//! every write gets its own temp name, so concurrent writers of one file
//! never share (and tear or lose) a temp file. A log append is one
//! `write_all` of one line, so a crash can tear at most the last line.

use crate::job::JobRecord;
use metamut_fuzzing::{CampaignCheckpoint, CorpusEntry};
use metamut_reduce::TriageReport;
use metamut_telemetry::Snapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// On-disk format version; bump on any incompatible layout change.
/// Version 2 added `jobs.log`, which a version-1 build would ignore.
pub const STORE_VERSION: u32 = 2;

/// The job log counts as outgrowing the snapshot only past this many
/// bytes, so a small table is not rewritten on every other change.
pub const LOG_COMPACT_FLOOR: u64 = 64 * 1024;

const JOBS_SNAPSHOT: &str = "jobs.json";
const JOBS_LOG: &str = "jobs.log";

#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreMeta {
    version: u32,
}

/// One persisted corpus entry: a [`CorpusEntry`] plus the job that found it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCorpusEntry {
    /// The job whose campaign pooled this program.
    pub job: u64,
    /// The interesting program itself.
    pub program: String,
    /// Iteration at which it entered the pool.
    pub iteration: usize,
    /// Branches it newly covered when first compiled.
    pub new_bits: usize,
}

/// The live daemon's coordinates, for clients discovering ephemeral ports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DaemonInfo {
    /// The JSON-line protocol listener address.
    pub addr: String,
    /// The HTTP status listener address, when one was bound.
    pub http_addr: Option<String>,
    /// The daemon's process id.
    pub pid: u32,
}

/// The job table's write side: the append handle on `jobs.log` and the
/// byte sizes that decide when to compact.
#[derive(Default)]
struct JobFiles {
    /// Opened on the first append, dropped when compaction deletes the log.
    log: Option<File>,
    /// A failed append may have left a partial line; the next one starts
    /// on a fresh line so only the torn record is lost.
    torn: bool,
    log_bytes: u64,
    snapshot_bytes: u64,
}

/// Parses UTF-8 JSON bytes, reporting either failure as a message.
fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// A handle on one store directory.
pub struct Store {
    root: PathBuf,
    /// Serializes read-modify-write sequences (corpus/triage/telemetry
    /// merges) against concurrent workers finishing jobs simultaneously.
    merge_lock: Mutex<()>,
    /// Serializes log appends against compaction, so no append lands
    /// between a compaction's snapshot rename and its log deletion.
    jobs: Mutex<JobFiles>,
    /// Sequence number that makes every write's temp file name unique.
    tmp_seq: AtomicU64,
    /// Writes that failed (each is also reported on stderr).
    write_errors: AtomicU64,
}

impl Store {
    /// Opens (creating if absent) the store at `root`. Fails only on I/O
    /// errors and on a store written by a *newer* format version; a
    /// corrupted `store.json` is rewritten with a warning, and an older
    /// version's is rewritten as this one (every older layout reads as is).
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("checkpoints"))?;
        let file_len = |name: &str| std::fs::metadata(root.join(name)).map_or(0, |m| m.len());
        let jobs = JobFiles {
            log_bytes: file_len(JOBS_LOG),
            snapshot_bytes: file_len(JOBS_SNAPSHOT),
            ..JobFiles::default()
        };
        let store = Store {
            root,
            merge_lock: Mutex::new(()),
            jobs: Mutex::new(jobs),
            tmp_seq: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        };
        let meta_path = store.root.join("store.json");
        let current = match std::fs::read_to_string(&meta_path) {
            Ok(text) => match serde_json::from_str::<StoreMeta>(&text) {
                Ok(meta) if meta.version > STORE_VERSION => {
                    return Err(io::Error::other(format!(
                        "store {} is version {} but this build reads {STORE_VERSION}",
                        store.root.display(),
                        meta.version
                    )));
                }
                Ok(meta) => meta.version == STORE_VERSION,
                Err(e) => {
                    eprintln!(
                        "serve: corrupt {} ({e}); rewriting as version {STORE_VERSION}",
                        meta_path.display()
                    );
                    false
                }
            },
            Err(_) => false,
        };
        if !current {
            store.write_json(
                "store.json",
                &StoreMeta {
                    version: STORE_VERSION,
                },
            );
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads `name`, degrading to `None` — with a warning on anything but
    /// a missing file.
    fn read_bytes(&self, name: &str) -> Option<Vec<u8>> {
        let path = self.root.join(name);
        match std::fs::read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => {
                eprintln!(
                    "serve: cannot read {} ({e}); treating as empty",
                    path.display()
                );
                None
            }
        }
    }

    /// Parses `bytes` as `name`'s contents, degrading to `None` with a
    /// warning so corruption never panics.
    fn parse_json<T: Deserialize>(&self, name: &str, bytes: &[u8]) -> Option<T> {
        match decode(bytes) {
            Ok(value) => Some(value),
            Err(e) => {
                eprintln!(
                    "serve: corrupt {} ({e}); treating as empty",
                    self.root.join(name).display()
                );
                None
            }
        }
    }

    /// Reads and parses `name`, degrading to `None` so corruption never
    /// panics.
    fn read_json<T: Deserialize>(&self, name: &str) -> Option<T> {
        self.parse_json(name, &self.read_bytes(name)?)
    }

    /// Serializes `value` to `name` atomically (temp file + rename).
    fn write_json<T: Serialize + ?Sized>(&self, name: &str, value: &T) {
        let text = match serde_json::to_string_pretty(value) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("serve: cannot serialize {name}: {e}");
                return;
            }
        };
        self.write_text(name, &(text + "\n"));
    }

    /// Replaces `name` with `text` atomically; `false` (after a warning)
    /// when the write failed and the previous version is still in place.
    fn write_text(&self, name: &str, text: &str) -> bool {
        let path = self.root.join(name);
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join(format!("{name}.{}-{seq}.tmp", std::process::id()));
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            self.write_error(&path, e);
            return false;
        }
        true
    }

    fn write_error(&self, path: &Path, e: io::Error) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        eprintln!("serve: cannot write {}: {e}", path.display());
    }

    fn job_files(&self) -> MutexGuard<'_, JobFiles> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The persisted job table: the snapshot with the log replayed over it
    /// (empty when both are missing or corrupt).
    ///
    /// Safe against a live daemon compacting meanwhile: the snapshot is
    /// read again after the log, and a changed snapshot means the log read
    /// may have missed records the new snapshot holds, so the read repeats.
    pub fn load_jobs(&self) -> Vec<JobRecord> {
        let mut snapshot = self.read_bytes(JOBS_SNAPSHOT);
        let mut log = self.read_bytes(JOBS_LOG);
        for _ in 0..8 {
            let again = self.read_bytes(JOBS_SNAPSHOT);
            if again == snapshot {
                break;
            }
            (snapshot, log) = (again, self.read_bytes(JOBS_LOG));
        }
        let mut jobs: Vec<JobRecord> = snapshot
            .and_then(|bytes| self.parse_json(JOBS_SNAPSHOT, &bytes))
            .unwrap_or_default();
        if let Some(log) = log {
            self.replay_log(&mut jobs, &log);
        }
        jobs
    }

    /// Applies every complete `jobs.log` line to `jobs` in order: a known
    /// id's record is replaced, a new id is appended. A corrupt line, or a
    /// last line without its newline (a torn append), is skipped.
    fn replay_log(&self, jobs: &mut Vec<JobRecord>, log: &[u8]) {
        let mut index: HashMap<u64, usize> =
            jobs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        let mut lines = log.split(|&b| b == b'\n').enumerate().peekable();
        while let Some((n, line)) = lines.next() {
            if lines.peek().is_none() {
                if !line.is_empty() {
                    eprintln!(
                        "serve: torn last line {} of {} ({} bytes); skipped",
                        n + 1,
                        self.root.join(JOBS_LOG).display(),
                        line.len()
                    );
                }
                break;
            }
            if line.is_empty() {
                continue;
            }
            match decode::<JobRecord>(line) {
                Ok(record) => match index.get(&record.id) {
                    Some(&i) => jobs[i] = record,
                    None => {
                        index.insert(record.id, jobs.len());
                        jobs.push(record);
                    }
                },
                Err(e) => eprintln!(
                    "serve: corrupt line {} of {} ({e}); skipped",
                    n + 1,
                    self.root.join(JOBS_LOG).display()
                ),
            }
        }
    }

    /// Appends `record`'s current state to `jobs.log` as one line, written
    /// with one `write_all` so it reaches the OS before this returns.
    /// Callers append a job's states in the order they happened.
    pub fn append_job(&self, record: &JobRecord) {
        let mut line = match serde_json::to_string(record) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("serve: cannot serialize job {}: {e}", record.id);
                return;
            }
        };
        line.push('\n');
        let path = self.root.join(JOBS_LOG);
        let mut files = self.job_files();
        if std::mem::take(&mut files.torn) {
            line.insert(0, '\n');
        }
        let result = match files.log.as_mut() {
            Some(log) => log.write_all(line.as_bytes()),
            None => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut log| {
                    log.write_all(line.as_bytes())?;
                    files.log = Some(log);
                    Ok(())
                }),
        };
        match result {
            Ok(()) => files.log_bytes += line.len() as u64,
            Err(e) => {
                files.torn = true;
                files.log = None;
                self.write_error(&path, e);
            }
        }
    }

    /// Whether `jobs.log` has outgrown the snapshot (and
    /// [`LOG_COMPACT_FLOOR`]), so compacting now keeps the total rewrite
    /// cost amortized O(1) per change.
    pub fn compaction_due(&self) -> bool {
        let files = self.job_files();
        files.log_bytes > files.snapshot_bytes.max(LOG_COMPACT_FLOOR)
    }

    /// Bytes in `jobs.log` (changes since the last compaction).
    pub fn log_bytes(&self) -> u64 {
        self.job_files().log_bytes
    }

    /// Bytes in the `jobs.json` snapshot.
    pub fn snapshot_bytes(&self) -> u64 {
        self.job_files().snapshot_bytes
    }

    /// Compaction: writes `jobs` — the whole table, which must include
    /// every appended state — as the new compact `jobs.json` snapshot, then
    /// deletes the log. A failed snapshot write keeps the log. A crash
    /// between the rename and the deletion leaves a log the snapshot already
    /// covers: replaying it yields each job's last logged state, which for
    /// a finished job is its final one (a restart recomputes an unfinished
    /// job's progress from its checkpoint anyway).
    pub fn compact_jobs(&self, jobs: &[JobRecord]) {
        let text = match serde_json::to_string(jobs) {
            Ok(text) => text + "\n",
            Err(e) => {
                eprintln!("serve: cannot serialize {JOBS_SNAPSHOT}: {e}");
                return;
            }
        };
        let mut files = self.job_files();
        if !self.write_text(JOBS_SNAPSHOT, &text) {
            return;
        }
        files.snapshot_bytes = text.len() as u64;
        files.log = None;
        let path = self.root.join(JOBS_LOG);
        match std::fs::remove_file(&path) {
            Ok(()) => files.log_bytes = 0,
            Err(e) if e.kind() == io::ErrorKind::NotFound => files.log_bytes = 0,
            Err(e) => self.write_error(&path, e),
        }
        files.torn = false;
    }

    /// The persisted corpus (empty when missing or corrupt).
    pub fn load_corpus(&self) -> Vec<StoredCorpusEntry> {
        self.read_json("corpus.json").unwrap_or_default()
    }

    /// Appends `job`'s pool-growing entries to the persistent corpus and
    /// returns the new total.
    pub fn append_corpus(&self, job: u64, entries: &[CorpusEntry]) -> usize {
        let _guard = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut corpus = self.load_corpus();
        corpus.extend(entries.iter().map(|e| StoredCorpusEntry {
            job,
            program: e.program.clone(),
            iteration: e.iteration,
            new_bits: e.new_bits,
        }));
        self.write_json("corpus.json", &corpus);
        corpus.len()
    }

    /// The merged triage report (`None` when missing or corrupt).
    pub fn load_triage(&self) -> Option<TriageReport> {
        let path = self.root.join("triage.json");
        let text = std::fs::read_to_string(&path).ok()?;
        match TriageReport::from_json(&text) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("serve: corrupt {} ({e}); treating as empty", path.display());
                None
            }
        }
    }

    /// Folds `report` into the store's merged triage report (bugs dedup by
    /// signature across restarts) and returns the merged result. Errs when
    /// the store holds a report from a different compiler configuration.
    pub fn merge_triage(&self, report: TriageReport) -> Result<TriageReport, String> {
        let _guard = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        let merged = match self.load_triage() {
            Some(mut base) => {
                base.merge(report)?;
                base
            }
            None => report,
        };
        self.write_text("triage.json", &(merged.to_json() + "\n"));
        self.write_text("triage.md", &merged.to_markdown());
        Ok(merged)
    }

    /// The merged telemetry snapshot (`None` when missing or corrupt).
    pub fn load_telemetry(&self) -> Option<Snapshot> {
        self.read_json("telemetry.json")
    }

    /// Folds a job's metrics snapshot into the store's merged snapshot
    /// (counters sum, gauges keep high-water marks).
    pub fn merge_telemetry(&self, mut snapshot: Snapshot) {
        let _guard = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(previous) = self.load_telemetry() {
            snapshot.merge(&previous);
        }
        self.write_json("telemetry.json", &snapshot);
    }

    /// Persists job `id`'s campaign checkpoint.
    pub fn save_checkpoint(&self, id: u64, checkpoint: &CampaignCheckpoint) {
        self.write_json(&format!("checkpoints/job-{id}.json"), checkpoint);
    }

    /// Reads job `id`'s campaign checkpoint (`None` when missing or corrupt).
    pub fn load_checkpoint(&self, id: u64) -> Option<CampaignCheckpoint> {
        self.read_json(&format!("checkpoints/job-{id}.json"))
    }

    /// Deletes job `id`'s checkpoint (a completed campaign needs none).
    pub fn remove_checkpoint(&self, id: u64) {
        let _ = std::fs::remove_file(self.root.join(format!("checkpoints/job-{id}.json")));
    }

    /// Publishes the live daemon's coordinates.
    pub fn write_daemon_info(&self, info: &DaemonInfo) {
        self.write_json("daemon.json", info);
    }

    /// Reads a daemon's published coordinates from a store directory
    /// without opening the store (clients only need the address).
    pub fn read_daemon_info(root: &Path) -> Option<DaemonInfo> {
        let text = std::fs::read_to_string(root.join("daemon.json")).ok()?;
        serde_json::from_str(&text).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FuzzSpec, JobSpec, STATUS_DONE, STATUS_QUEUED, STATUS_RUNNING};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU32;

    static DIRS: AtomicU32 = AtomicU32::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "metamut-store-{tag}-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn jobs_and_corpus_round_trip_across_reopen() {
        let root = scratch("roundtrip");
        let store = Store::open(&root).expect("open");
        let mut record = JobRecord::new(1, JobSpec::fuzz(FuzzSpec::default()));
        record.status = STATUS_DONE.to_string();
        record.result = Some(serde_json::json!({"final_coverage": 12}));
        store.append_job(&record);
        let total = store.append_corpus(
            1,
            &[CorpusEntry {
                program: "int main(void) { return 0; }".to_string(),
                iteration: 4,
                new_bits: 9,
            }],
        );
        assert_eq!(total, 1);

        // A fresh handle (the restarted daemon) sees identical state.
        let reopened = Store::open(&root).expect("reopen");
        let jobs = reopened.load_jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, 1);
        assert_eq!(jobs[0].status, STATUS_DONE);
        assert_eq!(
            jobs[0]
                .result
                .as_ref()
                .and_then(|r| r.get("final_coverage"))
                .and_then(|v| v.as_u64()),
            Some(12)
        );
        let corpus = reopened.load_corpus();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus[0].job, 1);
        assert_eq!(corpus[0].new_bits, 9);

        // Appends accumulate instead of overwriting.
        reopened.append_corpus(
            2,
            &[CorpusEntry {
                program: "int g;".to_string(),
                iteration: 0,
                new_bits: 1,
            }],
        );
        assert_eq!(Store::open(&root).expect("open").load_corpus().len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A job record in a given state, for table-shape assertions.
    fn job(id: u64, status: &str, consumed: usize) -> JobRecord {
        let mut record = JobRecord::new(id, JobSpec::fuzz(FuzzSpec::default()));
        record.status = status.to_string();
        record.consumed = consumed;
        record
    }

    /// Records compare by their JSON (the on-disk identity).
    fn as_json(jobs: &[JobRecord]) -> String {
        serde_json::to_string(jobs).expect("serialize")
    }

    fn log_line(record: &JobRecord) -> String {
        serde_json::to_string(record).expect("serialize") + "\n"
    }

    #[test]
    fn concurrent_job_saves_never_tear_or_fail() {
        let root = scratch("concurrent");
        let store = Store::open(&root).expect("open");
        const WRITERS: u64 = 4;
        const STEPS: usize = 60;
        // The daemon's table and `save_lock` in one: appenders and the
        // compactor read the table under it, as the daemon does, while the
        // store's own lock orders the file operations underneath.
        let table: Mutex<Vec<JobRecord>> = Mutex::new(Vec::new());
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (store, start, table) = (&store, &start, &table);
                    scope.spawn(move || {
                        start.wait();
                        for step in 0..STEPS {
                            let id = w * 100 + (step % 3) as u64;
                            let mut table = table.lock().expect("table");
                            let record = job(id, STATUS_QUEUED, step);
                            match table.iter_mut().find(|r| r.id == id) {
                                Some(slot) => *slot = record.clone(),
                                None => table.push(record.clone()),
                            }
                            store.append_job(&record);
                        }
                    })
                })
                .collect();
            let compactor = scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    let table = table.lock().expect("table");
                    store.compact_jobs(&table);
                    drop(table);
                    std::thread::yield_now();
                }
            });
            // A reader racing both only ever sees a whole snapshot.
            let reader = scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    if let Ok(text) = std::fs::read_to_string(root.join(JOBS_SNAPSHOT)) {
                        let jobs: Vec<JobRecord> =
                            serde_json::from_str(&text).expect("jobs.json always parses");
                        assert!(jobs.iter().all(|r| r.id % 100 < 3), "torn job table");
                    }
                }
            });
            for w in writers {
                w.join().expect("writer");
            }
            done.store(true, Ordering::Relaxed);
            compactor.join().expect("compactor");
            reader.join().expect("reader");
        });
        // Every id's last appended state survives, whether it landed in the
        // snapshot or still sits in the log.
        let last = table.into_inner().expect("table");
        let mut loaded = Store::open(&root).expect("reopen").load_jobs();
        loaded.sort_by_key(|r| r.id);
        let mut want = last.clone();
        want.sort_by_key(|r| r.id);
        assert_eq!(
            as_json(&loaded),
            as_json(&want),
            "the last state of every id"
        );
        assert_eq!(store.write_errors.load(Ordering::Relaxed), 0);
        let leftovers = std::fs::read_dir(&root)
            .expect("list store")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "temp files are renamed away");

        // A final compaction folds everything into the snapshot.
        store.compact_jobs(&last);
        assert!(!root.join(JOBS_LOG).exists());
        assert_eq!(store.log_bytes(), 0);
        assert_eq!(
            store.snapshot_bytes(),
            std::fs::metadata(root.join(JOBS_SNAPSHOT)).unwrap().len()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The last record per id wins; ids the snapshot lacks follow it in
    /// log order.
    #[test]
    fn log_replays_over_the_snapshot_last_record_wins() {
        let root = scratch("replay");
        let store = Store::open(&root).expect("open");
        store.compact_jobs(&[job(1, STATUS_QUEUED, 0), job(2, STATUS_QUEUED, 0)]);
        store.append_job(&job(2, STATUS_RUNNING, 5));
        store.append_job(&job(9, STATUS_QUEUED, 0));
        store.append_job(&job(3, STATUS_QUEUED, 0));
        store.append_job(&job(2, STATUS_DONE, 9));
        assert_eq!(
            as_json(&store.load_jobs()),
            as_json(&[
                job(1, STATUS_QUEUED, 0),
                job(2, STATUS_DONE, 9),
                job(9, STATUS_QUEUED, 0),
                job(3, STATUS_QUEUED, 0)
            ])
        );
        assert_eq!(
            store.log_bytes(),
            std::fs::metadata(root.join(JOBS_LOG)).unwrap().len()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_last_log_line_is_skipped() {
        let root = scratch("torn");
        let store = Store::open(&root).expect("open");
        store.compact_jobs(&[job(1, STATUS_QUEUED, 0)]);
        let whole = log_line(&job(1, STATUS_RUNNING, 4));
        let torn = log_line(&job(1, STATUS_DONE, 8));
        std::fs::write(
            root.join(JOBS_LOG),
            format!("{whole}{}", &torn[..torn.len() - 1]),
        )
        .expect("write");
        assert_eq!(
            as_json(&store.load_jobs()),
            as_json(&[job(1, STATUS_RUNNING, 4)])
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_log_lines_are_skipped() {
        let root = scratch("garbage");
        let store = Store::open(&root).expect("open");
        store.compact_jobs(&[job(1, STATUS_QUEUED, 0)]);
        let mut log = b"{\"id\": 1, \"status\"\n".to_vec();
        log.extend_from_slice(b"\xff\xfe not utf-8\n\n[]\n");
        log.extend_from_slice(log_line(&job(1, STATUS_DONE, 3)).as_bytes());
        log.extend_from_slice(b"null\n");
        std::fs::write(root.join(JOBS_LOG), log).expect("write");
        assert_eq!(
            as_json(&store.load_jobs()),
            as_json(&[job(1, STATUS_DONE, 3)])
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn log_without_snapshot_loads_alone() {
        let root = scratch("nosnapshot");
        let store = Store::open(&root).expect("open");
        store.append_job(&job(1, STATUS_QUEUED, 0));
        store.append_job(&job(2, STATUS_QUEUED, 0));
        store.append_job(&job(1, STATUS_DONE, 7));
        assert!(!root.join(JOBS_SNAPSHOT).exists());
        assert_eq!(store.snapshot_bytes(), 0);
        assert_eq!(
            as_json(&Store::open(&root).expect("reopen").load_jobs()),
            as_json(&[job(1, STATUS_DONE, 7), job(2, STATUS_QUEUED, 0)])
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_is_due_once_the_log_outgrows_snapshot_and_floor() {
        let root = scratch("due");
        let store = Store::open(&root).expect("open");
        let mut record = job(1, STATUS_QUEUED, 0);
        record.result = Some(serde::Value::String("x".repeat(1024)));
        store.compact_jobs(std::slice::from_ref(&record));
        let mut appends = 0;
        while !store.compaction_due() {
            store.append_job(&record);
            appends += 1;
        }
        assert!(store.log_bytes() > LOG_COMPACT_FLOOR);
        assert!(
            store.log_bytes() <= LOG_COMPACT_FLOOR + log_line(&record).len() as u64,
            "due as soon as the floor is passed, after {appends} appends"
        );
        store.compact_jobs(std::slice::from_ref(&record));
        assert!(!store.compaction_due());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn version_one_store_loads_unchanged_and_is_rewritten_as_current() {
        let root = scratch("v1");
        std::fs::create_dir_all(&root).expect("mkdir");
        std::fs::write(root.join("store.json"), "{\n  \"version\": 1\n}\n").expect("meta");
        let jobs = [job(1, STATUS_DONE, 200), job(2, STATUS_QUEUED, 0)];
        let pretty = serde_json::to_string_pretty(&jobs[..]).expect("pretty") + "\n";
        std::fs::write(root.join(JOBS_SNAPSHOT), &pretty).expect("jobs");
        let store = Store::open(&root).expect("open v1");
        assert_eq!(as_json(&store.load_jobs()), as_json(&jobs));
        assert_eq!(store.snapshot_bytes(), pretty.len() as u64);
        assert_eq!(store.log_bytes(), 0);
        let meta: StoreMeta =
            serde_json::from_str(&std::fs::read_to_string(root.join("store.json")).unwrap())
                .expect("meta");
        assert_eq!(meta.version, STORE_VERSION);
        assert_eq!(
            std::fs::read_to_string(root.join(JOBS_SNAPSHOT)).unwrap(),
            pretty,
            "opening does not rewrite the job table"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_files_degrade_to_empty_not_panic() {
        let root = scratch("corrupt");
        let store = Store::open(&root).expect("open");
        std::fs::write(root.join("jobs.json"), "{not json").expect("write");
        std::fs::write(root.join("corpus.json"), "[{\"job\": 1,").expect("truncated");
        std::fs::write(root.join("telemetry.json"), "\u{0}\u{0}").expect("binary");
        std::fs::write(root.join("triage.json"), "]").expect("garbage");
        std::fs::write(root.join("checkpoints/job-7.json"), "{\"version\":").expect("half");
        assert!(store.load_jobs().is_empty());
        assert!(store.load_corpus().is_empty());
        assert!(store.load_telemetry().is_none());
        assert!(store.load_triage().is_none());
        assert!(store.load_checkpoint(7).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_store_meta_is_rewritten_but_newer_versions_refuse() {
        let root = scratch("meta");
        drop(Store::open(&root).expect("open"));
        std::fs::write(root.join("store.json"), "oops").expect("write");
        drop(Store::open(&root).expect("reopen rewrites corrupt meta"));
        let meta: StoreMeta =
            serde_json::from_str(&std::fs::read_to_string(root.join("store.json")).unwrap())
                .expect("valid meta again");
        assert_eq!(meta.version, STORE_VERSION);

        std::fs::write(
            root.join("store.json"),
            format!("{{\"version\": {}}}", STORE_VERSION + 1),
        )
        .expect("write");
        assert!(Store::open(&root).is_err(), "future versions must refuse");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn telemetry_snapshots_merge_across_jobs() {
        let root = scratch("telemetry");
        let store = Store::open(&root).expect("open");
        let mut first = Snapshot::default();
        first.counters.insert("fuzz_execs".to_string(), 10);
        first.gauges.insert("fuzz_coverage".to_string(), 5.0);
        store.merge_telemetry(first);
        let mut second = Snapshot::default();
        second.counters.insert("fuzz_execs".to_string(), 32);
        second.gauges.insert("fuzz_coverage".to_string(), 3.0);
        store.merge_telemetry(second);
        let merged = store.load_telemetry().expect("snapshot");
        assert_eq!(merged.counters.get("fuzz_execs"), Some(&42));
        assert_eq!(merged.gauges.get("fuzz_coverage"), Some(&5.0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn daemon_info_round_trips() {
        let root = scratch("info");
        let store = Store::open(&root).expect("open");
        store.write_daemon_info(&DaemonInfo {
            addr: "127.0.0.1:4100".to_string(),
            http_addr: None,
            pid: 99,
        });
        let info = Store::read_daemon_info(&root).expect("info");
        assert_eq!(info.addr, "127.0.0.1:4100");
        assert_eq!(info.http_addr, None);
        assert_eq!(info.pid, 99);
        let _ = std::fs::remove_dir_all(&root);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A log cut at any byte loads as the snapshot plus exactly the
        /// complete lines before the cut, and never panics.
        #[test]
        fn log_cut_at_every_byte_keeps_exactly_the_complete_lines(
            changes in proptest::collection::vec(0u64..64, 1..6)
        ) {
            let root = scratch("cut");
            let store = Store::open(&root).expect("open");
            let snapshot = vec![job(1, STATUS_QUEUED, 0), job(2, STATUS_RUNNING, 3)];
            store.compact_jobs(&snapshot);
            // Each change picks an id (old or new) and a state; a program
            // with a multi-byte character puts cuts inside UTF-8 sequences.
            let records: Vec<JobRecord> = changes
                .iter()
                .map(|&c| {
                    let status = [STATUS_RUNNING, STATUS_DONE][(c / 4 % 2) as usize];
                    let mut record = JobRecord::new(1 + c % 4, JobSpec::analyze("int π;"));
                    record.status = status.to_string();
                    record.consumed = c as usize;
                    record
                })
                .collect();
            let log: String = records.iter().map(log_line).collect();
            for cut in 0..=log.len() {
                std::fs::write(root.join(JOBS_LOG), &log.as_bytes()[..cut]).expect("write");
                let mut want = snapshot.clone();
                let mut end = 0;
                for record in &records {
                    end += log_line(record).len();
                    if end > cut {
                        break;
                    }
                    match want.iter_mut().find(|r| r.id == record.id) {
                        Some(slot) => *slot = record.clone(),
                        None => want.push(record.clone()),
                    }
                }
                prop_assert_eq!(as_json(&store.load_jobs()), as_json(&want), "cut at {}", cut);
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
