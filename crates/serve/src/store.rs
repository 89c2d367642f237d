//! The daemon's versioned on-disk store: everything a restart needs to
//! continue where the previous process stopped.
//!
//! Layout under the store root:
//!
//! - `store.json` — `{ "version": N }`; a newer version than this build
//!   reads refuses to open (old daemons must not clobber new data).
//! - `jobs.json` — every [`JobRecord`] the daemon has accepted.
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
//! the empty default — a damaged store never panics the daemon. Writes go
//! through a temp file + rename so a crash mid-write leaves the previous
//! version intact; every write gets its own temp name, so concurrent
//! writers of one file never share (and tear or lose) a temp file.

use crate::job::JobRecord;
use metamut_fuzzing::{CampaignCheckpoint, CorpusEntry};
use metamut_reduce::TriageReport;
use metamut_telemetry::Snapshot;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version; bump on any incompatible layout change.
pub const STORE_VERSION: u32 = 1;

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

/// A handle on one store directory.
pub struct Store {
    root: PathBuf,
    /// Serializes read-modify-write sequences (corpus/triage/telemetry
    /// merges) against concurrent workers finishing jobs simultaneously.
    merge_lock: std::sync::Mutex<()>,
    /// Sequence number that makes every write's temp file name unique.
    tmp_seq: AtomicU64,
    /// Writes that failed (each is also reported on stderr).
    write_errors: AtomicU64,
}

impl Store {
    /// Opens (creating if absent) the store at `root`. Fails only on I/O
    /// errors and on a store written by a *newer* format version; a
    /// corrupted `store.json` is rewritten with a warning.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("checkpoints"))?;
        let store = Store {
            root,
            merge_lock: std::sync::Mutex::new(()),
            tmp_seq: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        };
        let meta_path = store.root.join("store.json");
        match std::fs::read_to_string(&meta_path) {
            Ok(text) => match serde_json::from_str::<StoreMeta>(&text) {
                Ok(meta) if meta.version > STORE_VERSION => {
                    return Err(io::Error::other(format!(
                        "store {} is version {} but this build reads {STORE_VERSION}",
                        store.root.display(),
                        meta.version
                    )));
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!(
                        "serve: corrupt {} ({e}); rewriting as version {STORE_VERSION}",
                        meta_path.display()
                    );
                    store.write_json(
                        "store.json",
                        &StoreMeta {
                            version: STORE_VERSION,
                        },
                    );
                }
            },
            Err(_) => {
                store.write_json(
                    "store.json",
                    &StoreMeta {
                        version: STORE_VERSION,
                    },
                );
            }
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads and parses `name`, degrading to `None` — with a warning on
    /// anything but a missing file — so corruption never panics.
    fn read_json<T: Deserialize>(&self, name: &str) -> Option<T> {
        let path = self.root.join(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "serve: cannot read {} ({e}); treating as empty",
                    path.display()
                );
                return None;
            }
        };
        match serde_json::from_str(&text) {
            Ok(value) => Some(value),
            Err(e) => {
                eprintln!("serve: corrupt {} ({e}); treating as empty", path.display());
                None
            }
        }
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

    fn write_text(&self, name: &str, text: &str) {
        let path = self.root.join(name);
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join(format!("{name}.{}-{seq}.tmp", std::process::id()));
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = result {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::remove_file(&tmp);
            eprintln!("serve: cannot write {}: {e}", path.display());
        }
    }

    /// The persisted job table (empty when missing or corrupt).
    pub fn load_jobs(&self) -> Vec<JobRecord> {
        self.read_json("jobs.json").unwrap_or_default()
    }

    /// Persists the whole job table. Concurrent callers each replace the
    /// file atomically; ordering them is the caller's job.
    pub fn save_jobs(&self, jobs: &[JobRecord]) {
        self.write_json("jobs.json", jobs);
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
    use crate::job::{FuzzSpec, JobSpec, STATUS_DONE};
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
        store.save_jobs(&[record.clone()]);
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

    #[test]
    fn concurrent_job_saves_never_tear_or_fail() {
        let root = scratch("concurrent");
        let store = Store::open(&root).expect("open");
        let table = |writer: u64| -> Vec<JobRecord> {
            (0..=writer)
                .map(|i| JobRecord::new(writer * 100 + i, JobSpec::fuzz(FuzzSpec::default())))
                .collect()
        };
        let ids = |jobs: &[JobRecord]| jobs.iter().map(|r| r.id).collect::<Vec<_>>();
        let tables: Vec<Vec<u64>> = (0..4).map(|w| ids(&table(w))).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4u64)
                .map(|w| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        let jobs = table(w);
                        start.wait();
                        for _ in 0..50 {
                            store.save_jobs(&jobs);
                        }
                    })
                })
                .collect();
            // A reader racing the writers only ever sees a whole table.
            let reader = scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    if let Ok(text) = std::fs::read_to_string(root.join("jobs.json")) {
                        let jobs: Vec<JobRecord> =
                            serde_json::from_str(&text).expect("jobs.json always parses");
                        assert!(tables.contains(&ids(&jobs)), "torn job table");
                    }
                }
            });
            for w in writers {
                w.join().expect("writer");
            }
            done.store(true, Ordering::Relaxed);
            reader.join().expect("reader");
        });
        assert!(tables.contains(&ids(&store.load_jobs())));
        let last = table(7);
        store.save_jobs(&last);
        assert_eq!(ids(&store.load_jobs()), ids(&last), "the last save wins");
        assert_eq!(store.write_errors.load(Ordering::Relaxed), 0);
        let leftovers = std::fs::read_dir(&root)
            .expect("list store")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "temp files are renamed away");
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
}
