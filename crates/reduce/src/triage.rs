//! Campaign triage: bucket crash records by signature, reduce the smallest
//! witness of each bucket in parallel, and emit a per-bug report.
//!
//! The fan-out mirrors `run_parallel_campaign`: scoped std threads pulling
//! bucket indices from a shared atomic counter. Reduction is embarrassingly
//! parallel (each bucket owns its oracle), so the speedup is linear until
//! the bucket count runs out.

use crate::oracle::ReductionOracle;
use crate::reducer::{reduce, ReduceConfig, ReduceResult};
use metamut_fuzzing::campaign::CrashRecord;
use metamut_simcomp::{CompileOptions, Profile};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Triage parameters.
#[derive(Debug, Clone, Default)]
pub struct TriageConfig {
    /// Reduction workers; `0` means one per available CPU (capped at the
    /// bucket count).
    pub workers: usize,
    /// Per-witness reduction knobs.
    pub reduce: ReduceConfig,
    /// Query database the oracles' UB guards memoize into. Pass the
    /// campaign's shared database so reduction starts from the function
    /// summaries fuzzing already built; `None` gives every oracle a
    /// private one.
    pub query_db: Option<Arc<metamut_analyze::QueryDb>>,
}

/// One triaged bug: the reduced witness plus its bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BugReport {
    /// Planted-bug id (stable across runs).
    pub bug_id: String,
    /// Crash-consequence class label.
    pub kind: String,
    /// Pipeline stage label.
    pub stage: String,
    /// Top-two stack frames (the signature's preimage).
    pub frames: Vec<String>,
    /// The numeric top-two-frame signature.
    pub signature: u64,
    /// Compiler profile name.
    pub compiler: String,
    /// Flag string that triggers the crash.
    pub flags: String,
    /// Iteration the bucket's first record was discovered at.
    pub first_iteration: usize,
    /// How many crash records fell into this bucket.
    pub records: usize,
    /// Whether the chosen witness reproduced the signature under the
    /// triage compiler configuration (reduction is skipped otherwise).
    pub reproduced: bool,
    /// The reduced witness program.
    pub reduced: String,
    /// Witness bytes before reduction.
    pub original_bytes: usize,
    /// Witness bytes after reduction.
    pub reduced_bytes: usize,
    /// `reduced_bytes / original_bytes`.
    pub reduction_ratio: f64,
    /// Oracle compiler invocations spent on this bucket.
    pub oracle_calls: u64,
    /// Bytes removed per reduction pass.
    pub pass_bytes: BTreeMap<String, u64>,
}

/// The whole campaign's triage outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageReport {
    /// Compiler profile name.
    pub compiler: String,
    /// Flag string the campaign (and every oracle) ran under.
    pub flags: String,
    /// Per-bug reports, ordered by discovery iteration.
    pub bugs: Vec<BugReport>,
    /// Oracle calls across all buckets.
    pub total_oracle_calls: u64,
    /// Total witness bytes before reduction.
    pub total_bytes_before: usize,
    /// Total witness bytes after reduction.
    pub total_bytes_after: usize,
}

impl TriageReport {
    /// Pretty-printed JSON rendering of the report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Parses a report previously written by [`TriageReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("malformed triage report: {e}"))
    }

    /// Folds `other` (a later run's report) into this one — the
    /// `triage --append` merge. Bugs are deduplicated by crash signature:
    /// a bug seen in both runs keeps the smaller reduced witness (a
    /// reproduced row always beats a non-reproduced one), the earliest
    /// discovery iteration, and the combined record count. Totals are
    /// recomputed from the merged rows. Errs when the two reports ran
    /// different compiler configurations — their signatures are not
    /// comparable.
    pub fn merge(&mut self, other: TriageReport) -> Result<(), String> {
        if self.compiler != other.compiler || self.flags != other.flags {
            return Err(format!(
                "cannot merge triage reports from different configurations: \
                 {} ({}) vs {} ({})",
                self.compiler, self.flags, other.compiler, other.flags
            ));
        }
        let mut by_sig: BTreeMap<u64, BugReport> = BTreeMap::new();
        for bug in self.bugs.drain(..).chain(other.bugs) {
            match by_sig.get_mut(&bug.signature) {
                None => {
                    by_sig.insert(bug.signature, bug);
                }
                Some(kept) => {
                    let better = (bug.reproduced && !kept.reproduced)
                        || (bug.reproduced == kept.reproduced
                            && bug.reduced_bytes < kept.reduced_bytes);
                    let records = kept.records + bug.records;
                    let first = kept.first_iteration.min(bug.first_iteration);
                    if better {
                        *kept = bug;
                    }
                    kept.records = records;
                    kept.first_iteration = first;
                }
            }
        }
        self.bugs = by_sig.into_values().collect();
        self.bugs.sort_by_key(|b| b.first_iteration);
        self.total_oracle_calls = self.bugs.iter().map(|b| b.oracle_calls).sum();
        self.total_bytes_before = self.bugs.iter().map(|b| b.original_bytes).sum();
        self.total_bytes_after = self.bugs.iter().map(|b| b.reduced_bytes).sum();
        Ok(())
    }

    /// Renders the report as a markdown bug-list document.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# Triage report — {} ({})\n\n{} unique bug(s); {} → {} bytes across all witnesses; {} oracle calls.\n\n",
            self.compiler,
            self.flags,
            self.bugs.len(),
            self.total_bytes_before,
            self.total_bytes_after,
            self.total_oracle_calls,
        ));
        out.push_str("| bug | stage | kind | bytes | ratio | oracle calls |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for b in &self.bugs {
            out.push_str(&format!(
                "| {} | {} | {} | {} → {} | {:.0}% | {} |\n",
                b.bug_id,
                b.stage,
                b.kind,
                b.original_bytes,
                b.reduced_bytes,
                b.reduction_ratio * 100.0,
                b.oracle_calls,
            ));
        }
        for b in &self.bugs {
            out.push_str(&format!(
                "\n## {}\n\n- crash: `{}` / `{}`\n- trigger flags: `{}`\n- first seen: iteration {}\n- records in bucket: {}\n\n```c\n{}\n```\n",
                b.bug_id, b.frames[0], b.frames[1], b.flags, b.first_iteration, b.records, b.reduced,
            ));
        }
        out
    }
}

/// A signature bucket awaiting reduction.
struct Bucket {
    smallest: CrashRecord,
    records: usize,
    first_iteration: usize,
}

/// Groups records by signature, keeping the smallest witness per bucket and
/// ordering buckets by first discovery.
fn bucket_records(records: &[CrashRecord]) -> Vec<Bucket> {
    let mut by_sig: BTreeMap<u64, Bucket> = BTreeMap::new();
    for r in records {
        match by_sig.get_mut(&r.signature) {
            None => {
                by_sig.insert(
                    r.signature,
                    Bucket {
                        smallest: r.clone(),
                        records: 1,
                        first_iteration: r.first_iteration,
                    },
                );
            }
            Some(b) => {
                b.records += 1;
                b.first_iteration = b.first_iteration.min(r.first_iteration);
                if r.witness.len() < b.smallest.witness.len() {
                    b.smallest = r.clone();
                }
            }
        }
    }
    let mut buckets: Vec<Bucket> = by_sig.into_values().collect();
    buckets.sort_by_key(|b| b.first_iteration);
    buckets
}

/// Reduces one bucket's smallest witness and writes its report row. A
/// witness that no longer crashes with its bucket's signature under this
/// configuration is not reproduced and comes back unreduced.
fn triage_bucket(
    bucket: &Bucket,
    profile: Profile,
    options: &CompileOptions,
    config: &TriageConfig,
) -> BugReport {
    let record = &bucket.smallest;
    let oracle = ReductionOracle::for_witness(profile, options.clone(), &record.witness)
        .filter(|oracle| oracle.target_signature() == record.signature)
        .map(|oracle| match &config.query_db {
            Some(db) => oracle.with_query_db(Arc::clone(db)),
            None => oracle,
        });
    let reproduced = oracle.is_some();
    let result = match &oracle {
        Some(oracle) => reduce(oracle, &record.witness, &config.reduce),
        None => ReduceResult {
            reduced: record.witness.clone(),
            original_bytes: record.witness.len(),
            reduced_bytes: record.witness.len(),
            oracle_calls: 0,
            rounds: 0,
            pass_bytes: BTreeMap::new(),
            elapsed_ms: 0.0,
        },
    };
    BugReport {
        bug_id: record.info.bug_id.to_string(),
        kind: record.info.kind.label().to_string(),
        stage: record.info.stage.label().to_string(),
        frames: record.info.frames.iter().map(|f| f.to_string()).collect(),
        signature: record.signature,
        compiler: profile.name().to_string(),
        flags: options.render(),
        first_iteration: bucket.first_iteration,
        records: bucket.records,
        reproduced,
        reduction_ratio: result.ratio(),
        reduced: result.reduced,
        original_bytes: result.original_bytes,
        reduced_bytes: result.reduced_bytes,
        oracle_calls: result.oracle_calls,
        pass_bytes: result.pass_bytes,
    }
}

/// Triages `records` from a campaign that ran `profile` under `options`:
/// buckets by signature, reduces every bucket's smallest witness across
/// `config.workers` threads, and assembles the [`TriageReport`].
pub fn triage_crashes(
    records: &[CrashRecord],
    profile: Profile,
    options: &CompileOptions,
    config: &TriageConfig,
) -> TriageReport {
    let telemetry = metamut_telemetry::handle();
    let _span = telemetry.span("triage");
    let buckets = bucket_records(records);
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.workers
    }
    .min(buckets.len())
    .max(1);

    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, BugReport)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= buckets.len() {
                    break;
                }
                let report = triage_bucket(&buckets[i], profile, options, config);
                done.lock().push((i, report));
            });
        }
    });
    let mut rows = done.into_inner();
    rows.sort_by_key(|(i, _)| *i);
    let bugs: Vec<BugReport> = rows.into_iter().map(|(_, b)| b).collect();

    TriageReport {
        compiler: profile.name().to_string(),
        flags: options.render(),
        total_oracle_calls: bugs.iter().map(|b| b.oracle_calls).sum(),
        total_bytes_before: bugs.iter().map(|b| b.original_bytes).sum(),
        total_bytes_after: bugs.iter().map(|b| b.reduced_bytes).sum(),
        bugs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_simcomp::Compiler;

    fn record_for(witness: &str, profile: Profile, options: &CompileOptions) -> CrashRecord {
        let info = Compiler::new(profile, options.clone())
            .compile(witness)
            .outcome
            .crash()
            .expect("witness must crash")
            .clone();
        CrashRecord {
            signature: info.signature(),
            info,
            first_iteration: 0,
            witness: witness.to_string(),
            options: options.clone(),
        }
    }

    #[test]
    fn buckets_keep_smallest_witness() {
        let options = CompileOptions::o0();
        let small = record_for(
            "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }",
            Profile::Clang,
            &options,
        );
        let mut big = record_for(
            "int pad(void) { return 7; }\nfoo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }",
            Profile::Clang,
            &options,
        );
        big.first_iteration = 5;
        let buckets = bucket_records(&[big.clone(), small.clone()]);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].records, 2);
        assert_eq!(buckets[0].smallest.witness, small.witness);
        assert_eq!(buckets[0].first_iteration, 0);
    }

    #[test]
    fn triage_reduces_and_reports() {
        let options = CompileOptions::o0();
        let witness = "\
int filler_one(void) { return 11; }\n\
int filler_two(void) { return filler_one() + 1; }\n\
foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }\n";
        let records = vec![record_for(witness, Profile::Clang, &options)];
        let report = triage_crashes(&records, Profile::Clang, &options, &TriageConfig::default());
        assert_eq!(report.bugs.len(), 1);
        let bug = &report.bugs[0];
        assert!(bug.reproduced);
        assert_eq!(bug.bug_id, "clang-69213-scalar-brace");
        assert!(bug.reduced_bytes < bug.original_bytes);
        assert!(report.total_oracle_calls > 0);
        let md = report.to_markdown();
        assert!(md.contains("clang-69213-scalar-brace"));
        assert!(md.contains("```c"));
        // The reduced witness still crashes with the same signature.
        let oracle = ReductionOracle::for_witness(Profile::Clang, options.clone(), &bug.reduced)
            .expect("reduced witness still crashes");
        assert_eq!(oracle.target_signature(), bug.signature);
    }

    fn toy_bug(signature: u64, reduced: &str, first_iteration: usize) -> BugReport {
        BugReport {
            bug_id: format!("bug-{signature}"),
            kind: "segfault".to_string(),
            stage: "MiddleEnd".to_string(),
            frames: vec!["a".to_string(), "b".to_string()],
            signature,
            compiler: "gcc-sim".to_string(),
            flags: "-O2".to_string(),
            first_iteration,
            records: 1,
            reproduced: true,
            reduced: reduced.to_string(),
            original_bytes: 100,
            reduced_bytes: reduced.len(),
            reduction_ratio: reduced.len() as f64 / 100.0,
            oracle_calls: 10,
            pass_bytes: BTreeMap::from([("ddmin".to_string(), 40u64)]),
        }
    }

    fn toy_report(bugs: Vec<BugReport>) -> TriageReport {
        TriageReport {
            compiler: "gcc-sim".to_string(),
            flags: "-O2".to_string(),
            total_oracle_calls: bugs.iter().map(|b| b.oracle_calls).sum(),
            total_bytes_before: bugs.iter().map(|b| b.original_bytes).sum(),
            total_bytes_after: bugs.iter().map(|b| b.reduced_bytes).sum(),
            bugs,
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = toy_report(vec![toy_bug(1, "int x;", 3), toy_bug(2, "int y;", 7)]);
        let back = TriageReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back.compiler, report.compiler);
        assert_eq!(back.flags, report.flags);
        assert_eq!(back.bugs.len(), 2);
        assert_eq!(back.bugs[0].signature, 1);
        assert_eq!(back.bugs[0].reduced, "int x;");
        assert_eq!(back.bugs[0].pass_bytes, report.bugs[0].pass_bytes);
        assert_eq!(back.total_oracle_calls, report.total_oracle_calls);
        assert!(TriageReport::from_json("not json").is_err());
    }

    #[test]
    fn merge_dedups_by_signature_keeping_smallest_witness() {
        let mut first = toy_report(vec![toy_bug(1, "int xxxx;", 9), toy_bug(2, "int y;", 4)]);
        let second = toy_report(vec![toy_bug(1, "int x;", 2), toy_bug(3, "int z;", 6)]);
        first.merge(second).expect("same configuration");
        assert_eq!(first.bugs.len(), 3);
        let b1 = first.bugs.iter().find(|b| b.signature == 1).unwrap();
        assert_eq!(b1.reduced, "int x;", "smaller witness wins");
        assert_eq!(b1.first_iteration, 2, "earliest discovery wins");
        assert_eq!(b1.records, 2, "record counts accumulate");
        // Rows re-sorted by first_iteration; totals recomputed.
        let iters: Vec<usize> = first.bugs.iter().map(|b| b.first_iteration).collect();
        assert_eq!(iters, vec![2, 4, 6]);
        assert_eq!(
            first.total_bytes_after,
            first.bugs.iter().map(|b| b.reduced_bytes).sum::<usize>()
        );
    }

    #[test]
    fn merge_prefers_reproduced_rows_over_smaller_ones() {
        let mut stale = toy_bug(1, "int q;", 1);
        stale.reproduced = false;
        let mut first = toy_report(vec![stale]);
        let fresh = toy_report(vec![toy_bug(1, "int quux_long;", 5)]);
        first.merge(fresh).expect("same configuration");
        assert!(first.bugs[0].reproduced);
        assert_eq!(first.bugs[0].reduced, "int quux_long;");
    }

    #[test]
    fn merge_rejects_mismatched_configurations() {
        let mut first = toy_report(vec![toy_bug(1, "int x;", 1)]);
        let mut other = toy_report(vec![toy_bug(2, "int y;", 2)]);
        other.flags = "-O0".to_string();
        assert!(first.merge(other).is_err());
        let mut clang = toy_report(vec![]);
        clang.compiler = "clang-sim".to_string();
        assert!(first.merge(clang).is_err());
    }

    /// A witness that no longer crashes, or now crashes with another
    /// bucket's signature, is not reproduced: it comes back unreduced,
    /// without a single oracle call.
    #[test]
    fn non_reproducing_record_is_flagged() {
        let options = CompileOptions::o0();
        let rec = record_for(
            "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }",
            Profile::Clang,
            &options,
        );
        let clean = "int main(void) { return 0; }".to_string();
        let foreign_crash = format!("int x = {}1;", "(".repeat(50));
        for witness in [clean, foreign_crash] {
            let mut rec = rec.clone();
            rec.witness = witness;
            let report = triage_crashes(&[rec], Profile::Clang, &options, &TriageConfig::default());
            assert_eq!(report.bugs.len(), 1);
            assert!(!report.bugs[0].reproduced);
            assert_eq!(report.bugs[0].reduction_ratio, 1.0);
            assert_eq!(report.bugs[0].oracle_calls, 0);
        }
    }

    /// Triage reductions keep the witness valid: ddmin on this loop
    /// condition used to shrink it to `while ((0 % 0))`, a division by
    /// zero the original witness does not have.
    #[test]
    fn triage_reductions_introduce_no_new_ub() {
        let options = CompileOptions::o2();
        let witness = "\
int collatz_steps(int n, int extra_0) {
    int steps = 0;
    do {
        if (n % 2 == 0) n /= 2;
        steps++;
    } while (((n != 1) % (steps < 100)));
    return steps;
}
int main(void) { return collatz_steps(27, 0) & 0xff; }
";
        let records = vec![record_for(witness, Profile::Clang, &options)];
        let report = triage_crashes(&records, Profile::Clang, &options, &TriageConfig::default());
        let bug = &report.bugs[0];
        assert!(bug.reproduced);
        assert!(bug.reduced_bytes < bug.original_bytes);
        assert!(
            metamut_analyze::first_new_ub(witness, &bug.reduced).is_none(),
            "reduced witness has new UB:\n{}",
            bug.reduced
        );
    }
}
