//! Checkpointable campaigns: the stepped serial engine behind the
//! daemon's snapshot/resume and multi-tenant timeslicing.
//!
//! [`SteppedCampaign`] owns everything one `workers = 1` campaign needs —
//! the shared state block, the generator, the worker RNG — and advances it
//! in bounded slices via [`SteppedCampaign::step`]. Each slice runs the
//! *exact* iteration body of [`crate::campaign::run_campaign`]
//! (`fuzz_iteration` is shared verbatim), so an uninterrupted stepped
//! campaign is bit-for-bit the serial campaign, whatever the slice sizes.
//!
//! [`SteppedCampaign::checkpoint`] captures the full deterministic state —
//! RNG stream position, seed pool, coverage map, crash witnesses, sample
//! series, corpus, iteration budget — as one serializable value;
//! [`SteppedCampaign::resume`] rebuilds a campaign from it that continues
//! as if never interrupted. Crash records are persisted as witnesses and
//! recompiled on resume (the compiler is a pure function of its input),
//! which both avoids serializing `&'static` bug metadata and self-checks
//! the checkpoint: a witness that no longer reproduces its signature is a
//! corrupt or stale checkpoint and fails the restore loudly. The corpus is
//! kept as [`PoolGrowth`] indices, so each pooled program is held once.
//!
//! [`SteppedCampaign::checkpoint_delta`] captures only what changed since
//! the last checkpoint (full or delta), so a periodic checkpoint costs the
//! work since the previous one; replaying the deltas over the full image
//! with [`CheckpointDelta::apply`] yields exactly the full checkpoint taken
//! at the same point.
//!
//! Dedup caches, UB-gate summary memos, and UB-gate verdicts are
//! deliberately *not* checkpointed: they are pure throughput state, proven
//! elsewhere not to change reports, so a resumed campaign merely starts
//! with cold caches (its `dedup`/`ub` *statistics* differ; every
//! deterministic field is identical — see [`CampaignReport::outcome_eq`]).

use crate::campaign::{
    fuzz_iteration, CampaignConfig, CampaignReport, CampaignShared, CorpusEntry, CrashRecord,
    MutantStats, SamplePoint,
};
use crate::generator::{PoolSnapshot, TestGenerator};
use metamut_muast::MutRng;
use metamut_simcomp::{Compiler, CoverageMap};
use metamut_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;

/// Checkpoint format version; bump on any incompatible layout change.
/// Version 2 records the corpus as [`PoolGrowth`] indices.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A crash persisted as its witness: enough to regrow the full
/// [`CrashRecord`] by recompiling on resume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSeed {
    /// The mutant that first triggered the crash.
    pub witness: String,
    /// Top-two-frame signature the witness must still reproduce.
    pub signature: u64,
    /// Iteration of first discovery.
    pub first_iteration: usize,
}

/// A candidate that grew the seed pool, recorded by position: its program
/// is the pool entry at `index`, so a checkpoint holds the text once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolGrowth {
    /// The pool entry the candidate became.
    pub index: usize,
    /// Iteration at which it entered the pool.
    pub iteration: usize,
    /// Branches it newly covered when first compiled.
    pub new_bits: usize,
}

/// A complete, serializable image of an in-flight `workers = 1` campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// [`CHECKPOINT_VERSION`] at write time.
    pub version: u32,
    /// The generator's display name (cross-checked on resume).
    pub fuzzer: String,
    /// Total iteration budget.
    pub iterations: usize,
    /// First iteration the resumed campaign will run.
    pub next_iteration: usize,
    /// The campaign RNG seed (cross-checked on resume).
    pub seed: u64,
    /// Sampling cadence (cross-checked on resume).
    pub sample_every: usize,
    /// Raw worker-RNG state (xoshiro256**, 4 words) at checkpoint time.
    pub rng: Vec<u64>,
    /// The generator's seed pool.
    pub pool: PoolSnapshot,
    /// Sparse global coverage words.
    pub coverage: Vec<(u32, u64)>,
    /// Unique crashes found so far, as recompilable witnesses.
    pub crashes: Vec<CrashSeed>,
    /// The sample series recorded so far.
    pub series: Vec<SamplePoint>,
    /// Mutant production counters.
    pub mutants: MutantStats,
    /// The pool growths recorded so far, in discovery order.
    pub corpus: Vec<PoolGrowth>,
}

/// What a campaign changed between two checkpoints: the new pool, corpus,
/// series and crash entries, the coverage words that changed, and the
/// replaced scalars. Every list a checkpoint holds only ever grows (the
/// pool, corpus, series and crash list are appended to; coverage bits
/// are only ever set), so the entries past the previous checkpoint's
/// lengths are the whole difference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointDelta {
    /// `next_iteration` of the image this delta applies to; replay refuses
    /// a delta that does not continue its image.
    pub since: usize,
    /// First iteration the resumed campaign will run.
    pub next_iteration: usize,
    /// Raw worker-RNG state at checkpoint time.
    pub rng: Vec<u64>,
    /// Mutant production counters.
    pub mutants: MutantStats,
    /// The pool entries appended since the last checkpoint (programs and
    /// foreign flags) and the pool's current export mark.
    pub pool: PoolSnapshot,
    /// Pool growths recorded since the last checkpoint.
    pub corpus: Vec<PoolGrowth>,
    /// Sample points appended since the last checkpoint.
    pub series: Vec<SamplePoint>,
    /// Crashes found since the last checkpoint.
    pub crashes: Vec<CrashSeed>,
    /// Coverage words whose bits changed, with their new value, in word
    /// order.
    pub coverage: Vec<(u32, u64)>,
}

impl CheckpointDelta {
    /// Replays this delta over `image`, the full checkpoint as of the
    /// previous checkpoint; afterwards `image` equals the full checkpoint
    /// taken together with this delta. Errs, leaving `image` untouched,
    /// when the delta does not continue `image`.
    pub fn apply(self, image: &mut CampaignCheckpoint) -> Result<(), String> {
        if self.since != image.next_iteration {
            return Err(format!(
                "delta continues iteration {} but the image is at {}",
                self.since, image.next_iteration
            ));
        }
        image.next_iteration = self.next_iteration;
        image.rng = self.rng;
        image.mutants = self.mutants;
        image.pool.programs.extend(self.pool.programs);
        image.pool.foreign.extend(self.pool.foreign);
        image.pool.export_mark = self.pool.export_mark;
        image.corpus.extend(self.corpus);
        image.series.extend(self.series);
        image.crashes.extend(self.crashes);
        // Both lists are in word order: merge, the delta's value winning.
        let mut old = std::mem::take(&mut image.coverage).into_iter().peekable();
        let mut merged = Vec::with_capacity(old.len() + self.coverage.len());
        for (word, bits) in self.coverage {
            while let Some(&(w, _)) = old.peek() {
                if w > word {
                    break;
                }
                let entry = old.next().expect("peeked");
                if w < word {
                    merged.push(entry);
                }
            }
            merged.push((word, bits));
        }
        merged.extend(old);
        image.coverage = merged;
        Ok(())
    }
}

/// How much of a campaign's state its last checkpoint already holds.
#[derive(Debug, Default)]
struct Persisted {
    next_iteration: usize,
    pool: usize,
    corpus: usize,
    series: usize,
    crashes: usize,
    /// The sparse coverage words as last written, in word order.
    coverage: Vec<(u32, u64)>,
}

impl Persisted {
    /// Everything `image` holds.
    fn of(image: &CampaignCheckpoint) -> Persisted {
        Persisted {
            next_iteration: image.next_iteration,
            pool: image.pool.programs.len(),
            corpus: image.corpus.len(),
            series: image.series.len(),
            crashes: image.crashes.len(),
            coverage: image.coverage.clone(),
        }
    }
}

/// The entries of an append-only list past `mark`, or an error when the
/// list shrank below it (an image already holds entries that are gone).
fn appended<'a, T>(what: &str, list: &'a [T], mark: usize) -> Result<&'a [T], String> {
    list.get(mark..)
        .ok_or_else(|| format!("{what} shrank from {mark} to {} entries", list.len()))
}

/// Crash records as the witnesses a checkpoint persists.
fn crash_seeds(records: &[CrashRecord]) -> Vec<CrashSeed> {
    records
        .iter()
        .map(|c| CrashSeed {
            witness: c.witness.clone(),
            signature: c.signature,
            first_iteration: c.first_iteration,
        })
        .collect()
}

/// The words of `now` that differ from `before` (both sparse, in word
/// order). Errs when a bit of `before` is missing from `now`: coverage
/// only grows, so a cleared bit means the image no longer describes it.
fn changed_words(before: &[(u32, u64)], now: &[(u32, u64)]) -> Result<Vec<(u32, u64)>, String> {
    let mut changed = Vec::new();
    let mut old = before.iter().peekable();
    for &(word, bits) in now {
        let mut prev = 0;
        while let Some(&&(w, b)) = old.peek() {
            if w > word {
                break;
            }
            old.next();
            if w < word {
                return Err(format!("coverage word {w} was cleared"));
            }
            prev = b;
        }
        if prev & !bits != 0 {
            return Err(format!("coverage word {word} lost bits"));
        }
        if prev != bits {
            changed.push((word, bits));
        }
    }
    match old.next() {
        Some(&(w, _)) => Err(format!("coverage word {w} was cleared")),
        None => Ok(changed),
    }
}

/// Point-in-time progress of a stepped campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StepProgress {
    /// Iterations completed.
    pub completed: usize,
    /// Total iteration budget.
    pub iterations: usize,
    /// Branches covered so far.
    pub covered: usize,
    /// Unique crashes so far.
    pub crashes: usize,
    /// Current seed-pool size.
    pub corpus: usize,
}

/// A serial campaign that runs in bounded slices and can snapshot itself.
pub struct SteppedCampaign {
    shared: CampaignShared,
    generator: Box<dyn TestGenerator>,
    rng: MutRng,
    mutants: MutantStats,
    corpus: Vec<PoolGrowth>,
    /// What the last checkpoint (full or delta) covered: the next delta
    /// starts here.
    persisted: Persisted,
}

impl SteppedCampaign {
    /// Starts a fresh stepped campaign. `config.workers` is ignored — the
    /// stepped engine is the serial (`workers = 1`) engine by
    /// construction, which is what makes its checkpoints deterministic.
    pub fn new(
        generator: Box<dyn TestGenerator>,
        compiler: &Compiler,
        config: &CampaignConfig,
        telemetry: Telemetry,
    ) -> SteppedCampaign {
        // Worker 0's stream: seed ^ (0 * φ) == seed, matching `run_worker`.
        let rng = MutRng::new(config.seed);
        SteppedCampaign {
            shared: CampaignShared::new_with(compiler, config, telemetry),
            generator,
            rng,
            mutants: MutantStats::default(),
            corpus: Vec::new(),
            persisted: Persisted::default(),
        }
    }

    /// Runs up to `max_iters` iterations; returns how many actually ran
    /// (less than `max_iters` only when the budget ran out or the config's
    /// stop flag was raised).
    pub fn step(&mut self, max_iters: usize) -> usize {
        for done in 0..max_iters {
            let Some(iter) = self.shared.claim_iteration() else {
                return done;
            };
            let pooled = self.generator.pool_len();
            let new_bits = fuzz_iteration(
                iter,
                self.generator.as_mut(),
                &self.shared,
                &mut self.rng,
                &mut self.mutants,
            );
            if self.generator.pool_len() > pooled {
                self.corpus.push(PoolGrowth {
                    index: pooled,
                    iteration: iter,
                    new_bits,
                });
            }
        }
        max_iters
    }

    /// Whether the iteration budget is exhausted.
    pub fn is_done(&self) -> bool {
        self.completed() >= self.shared.config.iterations
    }

    /// Iterations completed so far.
    pub fn completed(&self) -> usize {
        self.shared
            .next_iter
            .load(Ordering::Relaxed)
            .min(self.shared.config.iterations)
    }

    /// Live progress counters, for job status streaming.
    pub fn progress(&self) -> StepProgress {
        StepProgress {
            completed: self.completed(),
            iterations: self.shared.config.iterations,
            covered: self.shared.coverage.count(),
            crashes: self.shared.crashes.lock().1.len(),
            corpus: self.generator.pool_len(),
        }
    }

    /// Snapshots the campaign's full deterministic state and counts it as
    /// persisted: the next [`SteppedCampaign::checkpoint_delta`] starts
    /// from it. Fails when the generator cannot expose its pool (hidden
    /// mutable state would make the resumed run diverge silently).
    pub fn checkpoint(&mut self) -> Result<CampaignCheckpoint, String> {
        let pool = self
            .generator
            .pool_snapshot()
            .ok_or_else(|| self.no_pool())?;
        let checkpoint = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            fuzzer: self.generator.name().to_string(),
            iterations: self.shared.config.iterations,
            next_iteration: self.completed(),
            seed: self.shared.config.seed,
            sample_every: self.shared.config.sample_every,
            rng: self.rng.state().to_vec(),
            pool,
            coverage: self.shared.coverage.snapshot().to_sparse_words(),
            crashes: crash_seeds(&self.shared.crashes.lock().1),
            series: self.shared.series.lock().clone(),
            mutants: self.mutants,
            corpus: self.corpus.clone(),
        };
        self.persisted = Persisted::of(&checkpoint);
        Ok(checkpoint)
    }

    /// What changed since the last checkpoint (full or delta), counted as
    /// persisted in turn. Its size follows the work done since then, not
    /// the campaign's. Fails like [`SteppedCampaign::checkpoint`], and
    /// when state the last checkpoint holds has disappeared (a list shrank
    /// or a coverage bit was cleared), which no delta can express.
    pub fn checkpoint_delta(&mut self) -> Result<CheckpointDelta, String> {
        let from = &self.persisted;
        if self.generator.pool_len() < from.pool {
            return Err(format!(
                "pool shrank from {} to {} entries",
                from.pool,
                self.generator.pool_len()
            ));
        }
        let pool = self
            .generator
            .pool_snapshot_from(from.pool)
            .ok_or_else(|| self.no_pool())?;
        let coverage = self.shared.coverage.snapshot().to_sparse_words();
        let delta = CheckpointDelta {
            since: from.next_iteration,
            next_iteration: self.completed(),
            rng: self.rng.state().to_vec(),
            mutants: self.mutants,
            pool,
            corpus: appended("corpus", &self.corpus, from.corpus)?.to_vec(),
            series: appended("series", &self.shared.series.lock(), from.series)?.to_vec(),
            crashes: crash_seeds(appended(
                "crash list",
                &self.shared.crashes.lock().1,
                from.crashes,
            )?),
            coverage: changed_words(&from.coverage, &coverage)?,
        };
        self.persisted = Persisted {
            next_iteration: delta.next_iteration,
            pool: from.pool + delta.pool.programs.len(),
            corpus: from.corpus + delta.corpus.len(),
            series: from.series + delta.series.len(),
            crashes: from.crashes + delta.crashes.len(),
            coverage,
        };
        Ok(delta)
    }

    fn no_pool(&self) -> String {
        format!("{} does not support checkpointing", self.generator.name())
    }

    /// Rebuilds a campaign from a checkpoint so it continues bit-for-bit
    /// as if never interrupted. `generator` must be a fresh instance of
    /// the checkpointed fuzzer (same name, same mutator registry); its
    /// pool is replaced by the checkpointed one. The `config` must agree
    /// with the checkpoint on every determinism-relevant knob.
    pub fn resume(
        checkpoint: CampaignCheckpoint,
        mut generator: Box<dyn TestGenerator>,
        compiler: &Compiler,
        config: &CampaignConfig,
        telemetry: Telemetry,
    ) -> Result<SteppedCampaign, String> {
        if checkpoint.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} (this build reads {CHECKPOINT_VERSION})",
                checkpoint.version
            ));
        }
        if generator.name() != checkpoint.fuzzer {
            return Err(format!(
                "checkpoint was taken by {:?}, not {:?}",
                checkpoint.fuzzer,
                generator.name()
            ));
        }
        for (knob, got, want) in [
            (
                "iterations",
                config.iterations as u64,
                checkpoint.iterations as u64,
            ),
            ("seed", config.seed, checkpoint.seed),
            (
                "sample_every",
                config.sample_every as u64,
                checkpoint.sample_every as u64,
            ),
        ] {
            if got != want {
                return Err(format!("config {knob} = {got} but checkpoint has {want}"));
            }
        }
        let rng_state: [u64; 4] = checkpoint
            .rng
            .as_slice()
            .try_into()
            .map_err(|_| format!("rng state has {} words, expected 4", checkpoint.rng.len()))?;
        if !generator.restore_pool(checkpoint.pool) {
            return Err(format!(
                "{} cannot restore a checkpointed pool",
                checkpoint.fuzzer
            ));
        }
        // `finish` reads each corpus program out of the pool.
        let pooled = generator.pool_len();
        if let Some(g) = checkpoint.corpus.iter().find(|g| g.index >= pooled) {
            return Err(format!("corpus names pool entry {} of {pooled}", g.index));
        }
        let shared = CampaignShared::new_with(compiler, config, telemetry);
        shared
            .next_iter
            .store(checkpoint.next_iteration, Ordering::Relaxed);
        shared
            .coverage
            .merge(&CoverageMap::from_sparse_words(&checkpoint.coverage));
        {
            let mut crashes = shared.crashes.lock();
            for seed in checkpoint.crashes {
                // Regrow the record by recompiling the witness — and verify
                // it still reproduces, so a corrupt/stale checkpoint fails
                // here instead of silently dropping bugs.
                let info = compiler
                    .compile(&seed.witness)
                    .outcome
                    .crash()
                    .cloned()
                    .ok_or_else(|| {
                        format!(
                            "checkpointed witness for {:#x} no longer crashes",
                            seed.signature
                        )
                    })?;
                if info.signature() != seed.signature {
                    return Err(format!(
                        "checkpointed witness reproduces {:#x}, expected {:#x}",
                        info.signature(),
                        seed.signature
                    ));
                }
                crashes.0.insert(seed.signature);
                crashes.1.push(CrashRecord {
                    info,
                    signature: seed.signature,
                    first_iteration: seed.first_iteration,
                    witness: seed.witness,
                    options: compiler.options().clone(),
                });
            }
        }
        // The restored state is what the store holds: the next delta
        // starts from it.
        let persisted = Persisted {
            next_iteration: checkpoint.next_iteration,
            pool: generator.pool_len(),
            corpus: checkpoint.corpus.len(),
            series: checkpoint.series.len(),
            crashes: shared.crashes.lock().1.len(),
            coverage: shared.coverage.snapshot().to_sparse_words(),
        };
        *shared.series.lock() = checkpoint.series;
        Ok(SteppedCampaign {
            shared,
            generator,
            rng: MutRng::from_state(rng_state),
            mutants: checkpoint.mutants,
            corpus: checkpoint.corpus,
            persisted,
        })
    }

    /// Assembles the final report plus the corpus: every program that grew
    /// the pool, in discovery order. Callable at any point; normally used
    /// once [`SteppedCampaign::is_done`].
    pub fn finish(self) -> (CampaignReport, Vec<CorpusEntry>) {
        let name = self.generator.name();
        let program = |i| self.generator.seed_source(i).expect("the pool only grows");
        let corpus = self.corpus.iter().map(|g| CorpusEntry {
            program: program(g.index).to_string(),
            iteration: g.iteration,
            new_bits: g.new_bits,
        });
        let corpus = corpus.collect();
        (self.shared.into_report(name, self.mutants, 1), corpus)
    }
}

impl CampaignReport {
    /// Whether two reports agree on every deterministic field — fuzzer,
    /// compiler, series, crashes, mutant stats, and coverage. The cache
    /// *statistics* (`dedup`, `ub`) are excluded: they reflect cache
    /// temperature (a resumed campaign restarts them cold), never campaign
    /// behavior, as the `dedup_does_not_change_the_report` family of tests
    /// pins.
    pub fn outcome_eq(&self, other: &CampaignReport) -> bool {
        self.fuzzer == other.fuzzer
            && self.compiler == other.compiler
            && self.series == other.series
            && self.crashes == other.crashes
            && self.mutants == other.mutants
            && self.final_coverage == other.final_coverage
            && self.stage_coverage == other.stage_coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::corpus::seed_corpus;
    use crate::mucfuzz::MuCFuzz;
    use metamut_simcomp::{CompileOptions, Profile};
    use std::sync::Arc;

    fn fuzzer() -> Box<dyn TestGenerator> {
        Box::new(MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        ))
    }

    fn config(iterations: usize) -> CampaignConfig {
        CampaignConfig {
            iterations,
            seed: 11,
            sample_every: 10,
            ..Default::default()
        }
    }

    #[test]
    fn stepping_is_bit_identical_to_serial() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cfg = config(90);
        let mut serial_gen = MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        );
        let serial = run_campaign(&mut serial_gen, &compiler, &cfg);

        let mut stepped = SteppedCampaign::new(fuzzer(), &compiler, &cfg, Telemetry::disabled());
        // Ragged slice sizes: the loop must be insensitive to slicing.
        for slice in [1usize, 7, 13, 2, 31, 100, 100] {
            stepped.step(slice);
        }
        assert!(stepped.is_done());
        assert_eq!(stepped.step(5), 0, "stepping past the budget is a no-op");
        let (report, corpus) = stepped.finish();
        // The dedup/ub caches live for the whole stepped run too, so even
        // the statistics fields must match the serial engine exactly.
        assert_eq!(report, serial);
        assert!(!corpus.is_empty(), "90 iterations grew no corpus");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let compiler = Compiler::new(Profile::Clang, CompileOptions::o2());
        let cfg = config(120);

        let mut uninterrupted =
            SteppedCampaign::new(fuzzer(), &compiler, &cfg, Telemetry::disabled());
        while !uninterrupted.is_done() {
            uninterrupted.step(17);
        }
        let (want, want_corpus) = uninterrupted.finish();

        let mut first = SteppedCampaign::new(fuzzer(), &compiler, &cfg, Telemetry::disabled());
        first.step(55);
        let checkpoint = first.checkpoint().expect("checkpoint");
        drop(first); // the "crash": in-memory state is gone

        // Round-trip through JSON, as the daemon's store does.
        let json = serde_json::to_string(&checkpoint).expect("serialize");
        let restored: CampaignCheckpoint = serde_json::from_str(&json).expect("parse");
        assert_eq!(restored, checkpoint);

        let mut resumed =
            SteppedCampaign::resume(restored, fuzzer(), &compiler, &cfg, Telemetry::disabled())
                .expect("resume");
        assert_eq!(resumed.completed(), 55);
        while !resumed.is_done() {
            resumed.step(23);
        }
        let (got, got_corpus) = resumed.finish();
        assert!(
            got.outcome_eq(&want),
            "resumed campaign diverged from uninterrupted:\n{got:?}\nvs\n{want:?}"
        );
        assert_eq!(got_corpus, want_corpus, "corpus logs diverged");
    }

    #[test]
    fn resume_rejects_bad_checkpoints() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cfg = config(40);
        let mut c = SteppedCampaign::new(fuzzer(), &compiler, &cfg, Telemetry::disabled());
        c.step(20);
        let good = c.checkpoint().expect("checkpoint");

        let mut bad = good.clone();
        bad.version += 1;
        assert!(
            SteppedCampaign::resume(bad, fuzzer(), &compiler, &cfg, Telemetry::disabled()).is_err()
        );

        let mut bad = good.clone();
        bad.rng.pop();
        assert!(
            SteppedCampaign::resume(bad, fuzzer(), &compiler, &cfg, Telemetry::disabled()).is_err()
        );

        // A determinism knob that disagrees with the checkpoint.
        let other_cfg = CampaignConfig {
            seed: 999,
            ..cfg.clone()
        };
        assert!(SteppedCampaign::resume(
            good.clone(),
            fuzzer(),
            &compiler,
            &other_cfg,
            Telemetry::disabled()
        )
        .is_err());

        // A corpus record naming an entry past the restored pool: `finish`
        // would have no program to report for it.
        let mut bad = good.clone();
        bad.corpus.push(PoolGrowth {
            index: bad.pool.programs.len(),
            iteration: 19,
            new_bits: 1,
        });
        let err = SteppedCampaign::resume(bad, fuzzer(), &compiler, &cfg, Telemetry::disabled())
            .err()
            .expect("a growth past the pool is refused");
        assert!(err.contains("pool entry"), "{err}");

        // A tampered witness that does not reproduce its signature.
        let mut bad = good;
        bad.crashes.push(CrashSeed {
            witness: "int main(void) { return 0; }".to_string(),
            signature: 0xDEAD_BEEF,
            first_iteration: 1,
        });
        assert!(
            SteppedCampaign::resume(bad, fuzzer(), &compiler, &cfg, Telemetry::disabled()).is_err()
        );
    }

    /// A base plus every delta since equals the full checkpoint at every
    /// slice, and a campaign resumed from the replayed image finishes
    /// exactly like the uninterrupted one.
    #[test]
    fn replayed_deltas_equal_the_full_checkpoint_at_every_slice() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cfg = config(2000);
        // `full` takes only full checkpoints, `delta` only deltas after its
        // first: the two run in lockstep on the same deterministic stream.
        let mut full = SteppedCampaign::new(fuzzer(), &compiler, &cfg, Telemetry::disabled());
        let mut delta = SteppedCampaign::new(fuzzer(), &compiler, &cfg, Telemetry::disabled());
        full.step(32);
        delta.step(32);
        let mut image = delta.checkpoint().expect("base");
        let (mut deltas, mut resume_from) = (0, None);
        while !full.is_done() {
            full.step(32);
            delta.step(32);
            let step = delta.checkpoint_delta().expect("delta");
            // Through JSON, as the store's log line.
            let line = serde_json::to_string(&step).expect("serialize");
            let step: CheckpointDelta = serde_json::from_str(&line).expect("parse");
            step.apply(&mut image).expect("apply");
            deltas += 1;
            let want = full.checkpoint().expect("checkpoint");
            assert_eq!(image, want, "replay diverged after {deltas} deltas");
            if image.next_iteration >= 1000 && resume_from.is_none() {
                resume_from = Some(image.clone());
            }
        }
        assert!(!image.crashes.is_empty() && !image.corpus.is_empty());
        let (want, want_corpus) = full.finish();

        let mut resumed = SteppedCampaign::resume(
            resume_from.expect("a mid-run image"),
            fuzzer(),
            &compiler,
            &cfg,
            Telemetry::disabled(),
        )
        .expect("resume");
        while !resumed.is_done() {
            resumed.step(32);
        }
        let (got, got_corpus) = resumed.finish();
        assert!(got.outcome_eq(&want), "resumed campaign diverged");
        assert_eq!(got_corpus, want_corpus, "corpus logs diverged");
    }

    #[test]
    fn deltas_chain_only_onto_their_own_image() {
        let compiler = Compiler::new(Profile::Clang, CompileOptions::o2());
        let cfg = config(60);
        let mut c = SteppedCampaign::new(fuzzer(), &compiler, &cfg, Telemetry::disabled());
        c.step(20);
        let mut image = c.checkpoint().expect("base");
        c.step(20);
        let step = c.checkpoint_delta().expect("delta");
        let before = image.clone();
        step.clone().apply(&mut image).expect("applies once");
        assert!(
            step.apply(&mut image).is_err(),
            "a replayed delta is refused"
        );

        // A delta taken with nothing new carries only the scalars.
        let idle = c.checkpoint_delta().expect("idle delta");
        assert_eq!(idle.since, idle.next_iteration);
        assert!(idle.pool.programs.is_empty() && idle.coverage.is_empty());
        assert!(idle.series.is_empty() && idle.corpus.is_empty());
        assert_ne!(before, image);
    }

    #[test]
    fn changed_words_reports_new_words_and_refuses_cleared_bits() {
        let before = [(1, 0b01), (5, 0b10)];
        assert_eq!(
            changed_words(&before, &[(0, 4), (1, 0b01), (5, 0b11), (9, 1)]),
            Ok(vec![(0, 4), (5, 0b11), (9, 1)])
        );
        assert!(changed_words(&before, &[(1, 0b01)]).is_err(), "word 5 gone");
        assert!(changed_words(&before, &[(1, 0b10), (5, 0b10)]).is_err());
        assert!(changed_words(&before, &[(5, 0b10)]).is_err(), "word 1 gone");
    }
}
