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
//! - `corpus.json` — the corpus snapshot: a JSON array of every
//!   pool-growing program, with its coverage metadata and the job that
//!   found it, as of the last compaction.
//! - `corpus.log` — the corpus entries since that snapshot, one compact
//!   JSON line each; a finished fuzz job appends all of its entries with
//!   one write. [`Store::load_corpus`] reads them after the snapshot, and
//!   the store compacts the corpus when the log outgrows the snapshot
//!   (with the same floor).
//! - `triage.json` / `triage.md` — the merged [`TriageReport`] across all
//!   jobs ([`TriageReport::merge`] dedups bugs by signature).
//! - `telemetry.json` — the merged metrics [`Snapshot`] across all jobs.
//! - `checkpoints/job-N.json` — the base of an in-flight campaign's
//!   checkpoint: one compact [`CampaignCheckpoint`], written by the job's
//!   first checkpoint and by every compaction.
//! - `checkpoints/job-N.log` — the campaign's progress since that base: one
//!   compact JSON [`CheckpointDelta`] per line, appended by every later
//!   checkpoint. [`Store::load_checkpoint`] replays the deltas over the
//!   base, skipping a line that does not continue the image before it.
//!   The daemon compacts a job's checkpoint when its log outgrows its base
//!   (with the same floor), and deletes both files when the job ends.
//! - `daemon.json` — the live daemon's bound addresses and pid, so
//!   clients and CI scripts can find an ephemeral-port daemon.
//!
//! The job table, the corpus and every checkpoint are one journal each: a
//! snapshot plus an append-only log. Every read of a corrupted or
//! truncated file degrades to a warning plus the empty default — a damaged
//! store never panics the daemon; a torn or corrupt log line is skipped.
//! Whole-file writes go through a temp file + rename so a crash mid-write
//! leaves the previous version intact; every write gets its own temp name,
//! so concurrent writers of one file never share (and tear or lose) a temp
//! file. A log append is one `write_all`, so a crash can tear at most the
//! last line.

use crate::job::JobRecord;
use metamut_fuzzing::{CampaignCheckpoint, CheckpointDelta, CorpusEntry, SteppedCampaign};
use metamut_reduce::TriageReport;
use metamut_telemetry::Snapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// On-disk format version; bump on any incompatible layout change.
/// Version 2 added `jobs.log`, which a version-1 build would ignore;
/// version 3 added the checkpoint logs, which a version-2 build would
/// ignore, resuming from a stale base; version 4 added `corpus.log`, which
/// a version-3 build would ignore.
pub const STORE_VERSION: u32 = 4;

/// A log counts as outgrowing its snapshot only past this many bytes, so
/// a small snapshot is not rewritten on every other change.
pub const LOG_COMPACT_FLOOR: u64 = 64 * 1024;

const JOBS_SNAPSHOT: &str = "jobs.json";
const JOBS_LOG: &str = "jobs.log";
const CORPUS_SNAPSHOT: &str = "corpus.json";
const CORPUS_LOG: &str = "corpus.log";

/// Job `id`'s checkpoint base and delta log.
fn checkpoint_files(id: u64) -> (String, String) {
    (
        format!("checkpoints/job-{id}.json"),
        format!("checkpoints/job-{id}.log"),
    )
}

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

/// The write side of a snapshot-plus-log pair: a snapshot of the whole
/// state, rewritten only by compaction, and a log with one compact JSON
/// line per change since. Holds the append handle and the byte sizes that
/// decide when to compact.
struct Journal {
    snapshot: String,
    log_name: String,
    /// Opened on the first append, dropped when compaction deletes the log.
    log: Option<File>,
    /// A write failed, or the log ends in a partial line. Until the next
    /// compaction, which alone restores what was lost, compaction is due
    /// and every append starts on a fresh line, so only the torn record
    /// is lost.
    stale: bool,
    log_bytes: u64,
    snapshot_bytes: u64,
}

impl Journal {
    /// The journal of the files `snapshot` and `log` under `root`, as they
    /// are on disk.
    fn open(root: &Path, snapshot: String, log: String) -> Journal {
        let len = |name: &str| std::fs::metadata(root.join(name)).map_or(0, |m| m.len());
        let log_bytes = len(&log);
        let torn = log_bytes > 0 && {
            let mut last = [0u8];
            File::open(root.join(&log))
                .and_then(|mut f| {
                    f.seek(SeekFrom::End(-1))?;
                    f.read_exact(&mut last)
                })
                .map_or(true, |()| last[0] != b'\n')
        };
        Journal {
            snapshot_bytes: len(&snapshot),
            snapshot,
            log_name: log,
            log: None,
            stale: torn,
            log_bytes,
        }
    }

    /// Whether the log has outgrown the snapshot (and
    /// [`LOG_COMPACT_FLOOR`]), so compacting now keeps the total rewrite
    /// cost amortized O(1) per change, or a failed write left the files
    /// short of a change.
    fn compaction_due(&self) -> bool {
        self.stale || self.log_bytes > self.snapshot_bytes.max(LOG_COMPACT_FLOOR)
    }

    /// Appends `line` (newline-terminated; it may hold several lines) to
    /// the log with one `write_all`, so it reaches the OS before this
    /// returns. Returns the bytes written, 0 when the append failed.
    fn append(&mut self, store: &Store, mut line: String) -> u64 {
        if self.stale {
            line.insert(0, '\n');
        }
        let path = store.root.join(&self.log_name);
        let result = match self.log.as_mut() {
            Some(log) => log.write_all(line.as_bytes()),
            None => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut log| {
                    log.write_all(line.as_bytes())?;
                    self.log = Some(log);
                    Ok(())
                }),
        };
        match result {
            Ok(()) => {
                self.log_bytes += line.len() as u64;
                line.len() as u64
            }
            Err(e) => {
                self.stale = true;
                self.log = None;
                store.write_error(&path, e);
                0
            }
        }
    }

    /// Compaction: `text` — the whole state, which must include every
    /// appended change — becomes the new snapshot, then the log is
    /// deleted. Returns the bytes written, 0 when the snapshot write
    /// failed (the log is kept then). A crash between the rename and the
    /// deletion leaves a log the snapshot already covers.
    fn compact(&mut self, store: &Store, text: &str) -> u64 {
        if !store.write_text(&self.snapshot, text) {
            self.stale = true;
            return 0;
        }
        self.snapshot_bytes = text.len() as u64;
        self.stale = false;
        self.log = None;
        let path = store.root.join(&self.log_name);
        match std::fs::remove_file(&path) {
            Ok(()) => self.log_bytes = 0,
            Err(e) if e.kind() == io::ErrorKind::NotFound => self.log_bytes = 0,
            Err(e) => store.write_error(&path, e),
        }
        text.len() as u64
    }
}

/// Parses UTF-8 JSON bytes, reporting either failure as a message.
fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// One compact JSON line, newline included.
fn json_line<T: Serialize + ?Sized>(value: &T) -> Result<String, String> {
    serde_json::to_string(value)
        .map(|line| line + "\n")
        .map_err(|e| e.to_string())
}

/// A handle on one store directory.
pub struct Store {
    root: PathBuf,
    /// Serializes read-modify-write sequences (triage and telemetry
    /// merges) against concurrent workers finishing jobs simultaneously.
    merge_lock: Mutex<()>,
    /// The job table's journal. Its lock serializes log appends against
    /// compaction, so no append lands between a compaction's snapshot
    /// rename and its log deletion.
    jobs: Mutex<Journal>,
    /// The corpus's journal, locked the same way.
    corpus: Mutex<Journal>,
    /// Each checkpointed job's journal, opened on first use, under one
    /// lock for the same reason.
    checkpoints: Mutex<HashMap<u64, Journal>>,
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
        let jobs = Journal::open(&root, JOBS_SNAPSHOT.to_string(), JOBS_LOG.to_string());
        let corpus = Journal::open(&root, CORPUS_SNAPSHOT.to_string(), CORPUS_LOG.to_string());
        let store = Store {
            root,
            merge_lock: Mutex::new(()),
            jobs: Mutex::new(jobs),
            corpus: Mutex::new(corpus),
            checkpoints: Mutex::new(HashMap::new()),
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

    /// A journal's snapshot and log contents (`None` for a missing file).
    ///
    /// Safe against a live daemon compacting meanwhile: the snapshot is
    /// read again after the log, and a changed snapshot means the log read
    /// may have missed changes the new snapshot holds, so the read repeats.
    fn read_journal(&self, snapshot: &str, log: &str) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        let mut base = self.read_bytes(snapshot);
        let mut changes = self.read_bytes(log);
        for _ in 0..8 {
            let again = self.read_bytes(snapshot);
            if again == base {
                break;
            }
            (base, changes) = (again, self.read_bytes(log));
        }
        (base, changes)
    }

    /// Decodes each complete, non-empty line of the log `name` holding `log`
    /// and hands it to `apply`, in order. A line that does not decode, or
    /// that `apply` refuses, is reported and skipped; so is a last line
    /// without its newline (a torn append).
    fn replay<T: Deserialize>(
        &self,
        name: &str,
        log: &[u8],
        mut apply: impl FnMut(T) -> Result<(), String>,
    ) {
        let complete = log
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(&log[..0], |end| &log[..=end]);
        let torn = log.len() - complete.len();
        if torn > 0 {
            eprintln!(
                "serve: torn last line {} of {} ({torn} bytes); skipped",
                complete.iter().filter(|&&b| b == b'\n').count() + 1,
                self.root.join(name).display(),
            );
        }
        let lines = complete.split(|&b| b == b'\n').enumerate();
        for (n, line) in lines.filter(|(_, line)| !line.is_empty()) {
            if let Err(e) = decode(line).and_then(&mut apply) {
                eprintln!(
                    "serve: line {} of {} ({e}); skipped",
                    n + 1,
                    self.root.join(name).display()
                );
            }
        }
    }

    fn job_journal(&self) -> MutexGuard<'_, Journal> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The persisted job table: the snapshot with the log replayed over it
    /// (empty when both are missing or corrupt).
    pub fn load_jobs(&self) -> Vec<JobRecord> {
        let (snapshot, log) = self.read_journal(JOBS_SNAPSHOT, JOBS_LOG);
        let mut jobs: Vec<JobRecord> = snapshot
            .and_then(|bytes| self.parse_json(JOBS_SNAPSHOT, &bytes))
            .unwrap_or_default();
        if let Some(log) = log {
            self.replay_jobs(&mut jobs, &log);
        }
        jobs
    }

    /// Applies every complete `jobs.log` line to `jobs` in order: a known
    /// id's record is replaced, a new id is appended. A corrupt line, or a
    /// last line without its newline (a torn append), is skipped.
    fn replay_jobs(&self, jobs: &mut Vec<JobRecord>, log: &[u8]) {
        let mut index: HashMap<u64, usize> =
            jobs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        self.replay(JOBS_LOG, log, |record: JobRecord| {
            match index.get(&record.id) {
                Some(&i) => jobs[i] = record,
                None => {
                    index.insert(record.id, jobs.len());
                    jobs.push(record);
                }
            }
            Ok(())
        });
    }

    /// Appends `record`'s current state to `jobs.log` as one line.
    /// Callers append a job's states in the order they happened.
    pub fn append_job(&self, record: &JobRecord) {
        match json_line(record) {
            Ok(line) => {
                self.job_journal().append(self, line);
            }
            Err(e) => eprintln!("serve: cannot serialize job {}: {e}", record.id),
        }
    }

    /// Whether `jobs.log` has outgrown the snapshot (and
    /// [`LOG_COMPACT_FLOOR`]), so compacting now keeps the total rewrite
    /// cost amortized O(1) per change, or an append failed.
    pub fn compaction_due(&self) -> bool {
        self.job_journal().compaction_due()
    }

    /// Bytes in `jobs.log` (changes since the last compaction).
    pub fn log_bytes(&self) -> u64 {
        self.job_journal().log_bytes
    }

    /// Bytes in the `jobs.json` snapshot.
    pub fn snapshot_bytes(&self) -> u64 {
        self.job_journal().snapshot_bytes
    }

    /// Compaction: writes `jobs` — the whole table, which must include
    /// every appended state — as the new compact `jobs.json` snapshot, then
    /// deletes the log. A failed snapshot write keeps the log. A crash
    /// between the rename and the deletion leaves a log the snapshot already
    /// covers: replaying it yields each job's last logged state, which for
    /// a finished job is its final one (a restart recomputes an unfinished
    /// job's progress from its checkpoint anyway).
    pub fn compact_jobs(&self, jobs: &[JobRecord]) {
        match json_line(jobs) {
            Ok(text) => {
                self.job_journal().compact(self, &text);
            }
            Err(e) => eprintln!("serve: cannot serialize {JOBS_SNAPSHOT}: {e}"),
        }
    }

    fn corpus_journal(&self) -> MutexGuard<'_, Journal> {
        self.corpus.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The persisted corpus: the snapshot, then every complete log line in
    /// order (empty when both are missing or corrupt). A corrupt line, or a
    /// last line without its newline (a torn append), is skipped.
    pub fn load_corpus(&self) -> Vec<StoredCorpusEntry> {
        let (snapshot, log) = self.read_journal(CORPUS_SNAPSHOT, CORPUS_LOG);
        let mut corpus: Vec<StoredCorpusEntry> = snapshot
            .and_then(|bytes| self.parse_json(CORPUS_SNAPSHOT, &bytes))
            .unwrap_or_default();
        self.replay(CORPUS_LOG, log.as_deref().unwrap_or_default(), |entry| {
            corpus.push(entry);
            Ok(())
        });
        corpus
    }

    /// Appends `job`'s pool-growing entries to `corpus.log` with one write,
    /// then compacts the corpus into `corpus.json` when the log has
    /// outgrown it (and [`LOG_COMPACT_FLOOR`]) or an append failed.
    pub fn append_corpus(&self, job: u64, entries: &[CorpusEntry]) {
        let lines = entries.iter().map(|e| {
            json_line(&StoredCorpusEntry {
                job,
                program: e.program.clone(),
                iteration: e.iteration,
                new_bits: e.new_bits,
            })
        });
        let lines = match lines.collect::<Result<String, String>>() {
            Ok(lines) if lines.is_empty() => return,
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("serve: cannot serialize job {job}'s corpus: {e}");
                return;
            }
        };
        let mut journal = self.corpus_journal();
        journal.append(self, lines);
        // The journal's lock is held, so no append lands between reading
        // the corpus and deleting the log it was read from.
        if journal.compaction_due() {
            match json_line(&self.load_corpus()) {
                Ok(text) => {
                    journal.compact(self, &text);
                }
                Err(e) => eprintln!("serve: cannot serialize {CORPUS_SNAPSHOT}: {e}"),
            }
        }
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

    /// Runs `f` on job `id`'s checkpoint journal, opening it on first use.
    fn with_checkpoint<R>(&self, id: u64, f: impl FnOnce(&mut Journal) -> R) -> R {
        let mut journals = self.checkpoints.lock().unwrap_or_else(|e| e.into_inner());
        let journal = journals.entry(id).or_insert_with(|| {
            let (base, log) = checkpoint_files(id);
            Journal::open(&self.root, base, log)
        });
        f(journal)
    }

    /// Checkpoints job `id`'s campaign: appends what changed since its last
    /// checkpoint to the job's log as one delta line or, when the job has no
    /// base yet, its log has outgrown the base (and [`LOG_COMPACT_FLOOR`])
    /// or a write failed, writes a fresh full base and deletes the log.
    /// Returns the bytes written (0 when the write failed) and whether they
    /// were a base.
    pub fn checkpoint_campaign(
        &self,
        id: u64,
        campaign: &mut SteppedCampaign,
    ) -> Result<(u64, bool), String> {
        if self.with_checkpoint(id, |j| j.snapshot_bytes == 0 || j.compaction_due()) {
            let image = campaign.checkpoint()?;
            Ok((self.save_checkpoint(id, &image), true))
        } else {
            let delta = campaign.checkpoint_delta()?;
            Ok((self.append_checkpoint(id, &delta), false))
        }
    }

    /// Writes `checkpoint` as job `id`'s compact base and deletes its delta
    /// log. Returns the bytes written, 0 on failure.
    pub fn save_checkpoint(&self, id: u64, checkpoint: &CampaignCheckpoint) -> u64 {
        match json_line(checkpoint) {
            Ok(text) => self.with_checkpoint(id, |j| j.compact(self, &text)),
            Err(e) => {
                eprintln!("serve: cannot serialize job {id}'s checkpoint: {e}");
                0
            }
        }
    }

    /// Appends `delta` to job `id`'s checkpoint log as one line. Returns
    /// the bytes written, 0 on failure (the next checkpoint is then due to
    /// be a full image).
    fn append_checkpoint(&self, id: u64, delta: &CheckpointDelta) -> u64 {
        match json_line(delta) {
            Ok(line) => self.with_checkpoint(id, |j| j.append(self, line)),
            Err(e) => {
                eprintln!("serve: cannot serialize job {id}'s checkpoint delta: {e}");
                0
            }
        }
    }

    /// Job `id`'s campaign checkpoint: the base with every delta replayed
    /// over it (`None` when the base is missing or corrupt). A delta line
    /// that is torn, corrupt or does not continue the image so far is
    /// skipped, so the result is always some checkpoint the campaign
    /// really took.
    pub fn load_checkpoint(&self, id: u64) -> Option<CampaignCheckpoint> {
        let (base_name, log_name) = checkpoint_files(id);
        let (base, log) = self.read_journal(&base_name, &log_name);
        let mut image: CampaignCheckpoint = self.parse_json(&base_name, &base?)?;
        self.replay(
            &log_name,
            log.as_deref().unwrap_or_default(),
            |d: CheckpointDelta| d.apply(&mut image),
        );
        Some(image)
    }

    /// Deletes job `id`'s checkpoint base and log (an ended campaign needs
    /// neither).
    pub fn remove_checkpoint(&self, id: u64) {
        let mut journals = self.checkpoints.lock().unwrap_or_else(|e| e.into_inner());
        journals.remove(&id);
        let (base, log) = checkpoint_files(id);
        for name in [base, log] {
            let _ = std::fs::remove_file(self.root.join(name));
        }
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
    use crate::job::{
        compile_options, FuzzSpec, JobSpec, STATUS_DONE, STATUS_QUEUED, STATUS_RUNNING,
    };
    use metamut_fuzzing::corpus::seed_corpus;
    use metamut_fuzzing::mucfuzz::MuCFuzz;
    use metamut_fuzzing::resume::CrashSeed;
    use metamut_fuzzing::CampaignConfig;
    use metamut_simcomp::{Compiler, Profile};
    use metamut_telemetry::Telemetry;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

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
        store.append_corpus(
            1,
            &[CorpusEntry {
                program: "int main(void) { return 0; }".to_string(),
                iteration: 4,
                new_bits: 9,
            }],
        );

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

    /// Corpus entry `i` of a job, with a multi-byte character in its
    /// program so torn lines can end inside a UTF-8 sequence.
    fn corpus_entry(i: usize, program_bytes: usize) -> CorpusEntry {
        CorpusEntry {
            program: format!("int π{i}; /* {} */", "x".repeat(program_bytes)),
            iteration: i,
            new_bits: i + 1,
        }
    }

    fn stored(job: u64, e: &CorpusEntry) -> StoredCorpusEntry {
        StoredCorpusEntry {
            job,
            program: e.program.clone(),
            iteration: e.iteration,
            new_bits: e.new_bits,
        }
    }

    /// A version-3 store's pretty `corpus.json` loads unchanged and stays
    /// byte-identical while appends below the floor go to `corpus.log`;
    /// a reopened store reads the snapshot and then the log.
    #[test]
    fn corpus_appends_go_to_the_log_and_survive_reopen() {
        let root = scratch("corpuslog");
        std::fs::create_dir_all(&root).expect("mkdir");
        std::fs::write(root.join("store.json"), "{\n  \"version\": 3\n}\n").expect("meta");
        let old = vec![stored(1, &corpus_entry(0, 8))];
        let pretty = serde_json::to_string_pretty(&old).expect("pretty") + "\n";
        std::fs::write(root.join(CORPUS_SNAPSHOT), &pretty).expect("corpus");
        let store = Store::open(&root).expect("open v3");
        assert_eq!(store.load_corpus(), old);

        let job2 = [corpus_entry(3, 8), corpus_entry(9, 8)];
        store.append_corpus(2, &job2);
        store.append_corpus(3, &[]);
        store.append_corpus(4, &[corpus_entry(5, 8)]);
        assert_eq!(
            std::fs::read_to_string(root.join(CORPUS_SNAPSHOT)).unwrap(),
            pretty,
            "an append below the floor does not rewrite the snapshot"
        );
        let log = std::fs::read_to_string(root.join(CORPUS_LOG)).expect("log");
        assert_eq!(log.lines().count(), 3, "one line per entry");

        let mut want = old;
        want.extend(job2.iter().map(|e| stored(2, e)));
        want.push(stored(4, &corpus_entry(5, 8)));
        assert_eq!(Store::open(&root).expect("reopen").load_corpus(), want);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A torn last corpus line is skipped; the reopened store starts its
    /// next append on a fresh line and compacts the torn log away.
    #[test]
    fn torn_last_corpus_line_is_skipped_and_compacted_away() {
        let root = scratch("corpustorn");
        let store = Store::open(&root).expect("open");
        let entries = [corpus_entry(1, 8), corpus_entry(2, 8)];
        store.append_corpus(7, &entries);
        let log = std::fs::read(root.join(CORPUS_LOG)).expect("log");
        std::fs::write(root.join(CORPUS_LOG), &log[..log.len() - 12]).expect("tear");
        let kept = vec![stored(7, &entries[0])];
        assert_eq!(store.load_corpus(), kept);

        let store = Store::open(&root).expect("reopen");
        store.append_corpus(8, &[corpus_entry(3, 8)]);
        assert!(!root.join(CORPUS_LOG).exists(), "a torn log is compacted");
        let mut want = kept;
        want.push(stored(8, &corpus_entry(3, 8)));
        assert_eq!(store.load_corpus(), want);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Once the log outgrows the snapshot and the floor, the append that
    /// crossed it folds the whole corpus into a compact `corpus.json`.
    #[test]
    fn corpus_log_is_compacted_once_it_outgrows_the_floor() {
        let root = scratch("corpuscompact");
        let store = Store::open(&root).expect("open");
        let mut want = Vec::new();
        for job in 1.. {
            let entries: Vec<_> = (0..4).map(|i| corpus_entry(i, 4096)).collect();
            want.extend(entries.iter().map(|e| stored(job, e)));
            let before = store.corpus_journal().log_bytes;
            store.append_corpus(job, &entries);
            if !root.join(CORPUS_LOG).exists() {
                assert!(before > 0, "the first append compacted");
                break;
            }
            assert!(store.corpus_journal().log_bytes <= LOG_COMPACT_FLOOR);
        }
        let journal = store.corpus_journal();
        assert_eq!(journal.log_bytes, 0);
        assert_eq!(
            journal.snapshot_bytes,
            std::fs::metadata(root.join(CORPUS_SNAPSHOT)).unwrap().len()
        );
        drop(journal);
        let snapshot = std::fs::read_to_string(root.join(CORPUS_SNAPSHOT)).expect("snapshot");
        assert!(!snapshot.contains("\n "), "the snapshot is compact JSON");
        assert_eq!(store.load_corpus(), want);
        assert_eq!(Store::open(&root).expect("reopen").load_corpus(), want);
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

    /// A daemon-shaped campaign: μCFuzz over the full registry on gcc-sim
    /// -O2; resumed from `image` when one is given.
    fn campaign_from(
        iterations: usize,
        seed: u64,
        image: Option<CampaignCheckpoint>,
    ) -> SteppedCampaign {
        let generator = Box::new(MuCFuzz::new(
            "uCFuzz",
            Arc::new(metamut_mutators::full_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        ));
        let config = CampaignConfig {
            iterations,
            seed,
            sample_every: (iterations / 10).max(1),
            workers: 1,
            ..Default::default()
        };
        let compiler = Compiler::new(Profile::Gcc, compile_options(2));
        match image {
            Some(image) => {
                SteppedCampaign::resume(image, generator, &compiler, &config, Telemetry::disabled())
                    .expect("resume")
            }
            None => SteppedCampaign::new(generator, &compiler, &config, Telemetry::disabled()),
        }
    }

    fn campaign(iterations: usize, seed: u64) -> SteppedCampaign {
        campaign_from(iterations, seed, None)
    }

    #[test]
    fn checkpoint_deltas_replay_over_the_base_skipping_bad_lines() {
        let root = scratch("deltas");
        let store = Store::open(&root).expect("open");
        let mut c = campaign(400, 3);
        // `images[k]` is the full checkpoint at the k-th store checkpoint.
        let mut images = Vec::new();
        for k in 0..4 {
            c.step(64);
            let (bytes, base) = store.checkpoint_campaign(5, &mut c).expect("checkpoint");
            assert!(bytes > 0);
            assert_eq!(base, k == 0, "only the first checkpoint is a base");
            images.push(c.checkpoint().expect("image"));
            assert_eq!(store.load_checkpoint(5).as_ref(), images.last());
        }
        let log_path = root.join("checkpoints/job-5.log");
        let log = std::fs::read(&log_path).expect("log");
        let lines: Vec<&[u8]> = log.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), 3);

        // A torn last delta: the image is the one before it.
        std::fs::write(&log_path, &log[..log.len() - 10]).expect("tear");
        assert_eq!(store.load_checkpoint(5).as_ref(), Some(&images[2]));
        // A corrupt line and a delta that does not continue the image (a
        // repeat) are skipped; the deltas around them still apply.
        let mut bad = lines[0].to_vec();
        bad.extend_from_slice(b"{\"since\": \n");
        bad.extend_from_slice(lines[0]);
        bad.extend_from_slice(lines[1]);
        std::fs::write(&log_path, &bad).expect("write");
        assert_eq!(store.load_checkpoint(5).as_ref(), Some(&images[2]));
        // A log without its base is no checkpoint.
        std::fs::remove_file(root.join("checkpoints/job-5.json")).expect("rm base");
        assert_eq!(store.load_checkpoint(5), None);

        // A restarted store finds a torn log and writes a fresh base next.
        std::fs::write(
            root.join("checkpoints/job-5.json"),
            json_line(&images[0]).expect("base"),
        )
        .expect("base");
        std::fs::write(&log_path, &log[..log.len() - 10]).expect("tear");
        let store = Store::open(&root).expect("reopen");
        let image = store.load_checkpoint(5).expect("image");
        assert_eq!(image, images[2]);
        let mut resumed = campaign_from(400, 3, Some(image));
        resumed.step(64);
        let (_, base) = store
            .checkpoint_campaign(5, &mut resumed)
            .expect("checkpoint");
        assert!(base, "a torn log is compacted away");
        assert!(!log_path.exists());
        assert_eq!(
            store.load_checkpoint(5),
            Some(resumed.checkpoint().expect("image"))
        );

        store.remove_checkpoint(5);
        assert_eq!(
            std::fs::read_dir(root.join("checkpoints")).unwrap().count(),
            0
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The `serve_mixed` tenant's shape: 6,000 iterations, a checkpoint
    /// every 128. The log is compacted once it outgrows its base, and all
    /// checkpoints together write less than three final images.
    /// A checkpoint writes each pooled program once: in the base's pool,
    /// or in the pool tail of the delta line that adds it. Only another
    /// pool entry or a crash witness with the same text may repeat it.
    #[test]
    fn checkpoints_write_each_pooled_program_once() {
        let root = scratch("once");
        let store = Store::open(&root).expect("open");
        let mut c = campaign(1024, 7);
        c.step(768);
        for _ in 0..2 {
            store.checkpoint_campaign(1, &mut c).expect("checkpoint");
            c.step(128);
        }
        store.checkpoint_campaign(1, &mut c).expect("checkpoint");
        let once = |text: &str, pool: &[String], crashes: &[CrashSeed]| {
            for program in pool {
                let copies = pool.iter().filter(|p| *p == program).count()
                    + crashes.iter().filter(|c| &c.witness == program).count();
                let quoted = serde_json::to_string(program).expect("json");
                assert_eq!(text.matches(quoted.as_str()).count(), copies, "{program}");
            }
        };
        let base = std::fs::read_to_string(root.join("checkpoints/job-1.json")).expect("base");
        let image: CampaignCheckpoint = serde_json::from_str(&base).expect("base parses");
        assert!(
            image.pool.programs.len() > seed_corpus().len(),
            "the pool grew"
        );
        once(&base, &image.pool.programs, &image.crashes);
        let log = std::fs::read_to_string(root.join("checkpoints/job-1.log")).expect("log");
        assert_eq!(log.lines().count(), 2);
        let mut added = 0;
        for line in log.lines() {
            let delta: CheckpointDelta = serde_json::from_str(line).expect("delta parses");
            added += delta.pool.programs.len();
            once(line, &delta.pool.programs, &delta.crashes);
        }
        assert!(added > 0, "no delta pooled a program");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_checkpoints_compact_and_write_under_three_images() {
        let root = scratch("bound");
        let store = Store::open(&root).expect("open");
        let mut c = campaign(6000, 7);
        let (mut written, mut bases, mut full_images) = (0u64, 0, 0u64);
        while !c.is_done() {
            c.step(128);
            let (log_bytes, base_bytes) =
                store.with_checkpoint(1, |j| (j.log_bytes, j.snapshot_bytes));
            let (bytes, base) = store.checkpoint_campaign(1, &mut c).expect("checkpoint");
            assert!(bytes > 0);
            written += bytes;
            if base {
                bases += 1;
                assert!(
                    bases == 1 || log_bytes > base_bytes.max(LOG_COMPACT_FLOOR),
                    "compacted a {log_bytes}-byte log over a {base_bytes}-byte base"
                );
                assert!(!root.join("checkpoints/job-1.log").exists());
            }
            // What writing the whole image every time would cost.
            full_images += json_line(&c.checkpoint().expect("image"))
                .expect("json")
                .len() as u64;
        }
        assert!(bases >= 2, "the log never outgrew its base");
        let image = c.checkpoint().expect("image");
        assert_eq!(store.load_checkpoint(1).as_ref(), Some(&image));
        let base = std::fs::read_to_string(root.join("checkpoints/job-1.json")).expect("base");
        assert!(!base.contains("\n "), "the base is compact JSON");
        let image_bytes = json_line(&image).expect("json").len() as u64;
        assert!(
            written < 3 * image_bytes,
            "checkpoints wrote {written} bytes for a {image_bytes}-byte image \
             (full images would have written {full_images})"
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
