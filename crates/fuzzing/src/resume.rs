//! Checkpointable campaigns: the stepped serial engine behind the
//! daemon's snapshot/resume and multi-tenant timeslicing.
//!
//! [`SteppedCampaign`] owns everything one `workers = 1` campaign needs —
//! the shared state block, the generator, the worker RNG — and advances it
//! in bounded slices via [`SteppedCampaign::step`]. Each slice runs the
//! *exact* iteration body of [`crate::campaign::run_campaign`]
//! ([`fuzz_iteration`] is shared verbatim), so an uninterrupted stepped
//! campaign is bit-for-bit the serial campaign, whatever the slice sizes.
//!
//! [`SteppedCampaign::checkpoint`] captures the full deterministic state —
//! RNG stream position, seed pool, coverage map, crash witnesses, sample
//! series, iteration budget — as one serializable value;
//! [`SteppedCampaign::resume`] rebuilds a campaign from it that continues
//! as if never interrupted. Crash records are persisted as witnesses and
//! recompiled on resume (the compiler is a pure function of its input),
//! which both avoids serializing `&'static` bug metadata and self-checks
//! the checkpoint: a witness that no longer reproduces its signature is a
//! corrupt or stale checkpoint and fails the restore loudly.
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
pub const CHECKPOINT_VERSION: u32 = 1;

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
    /// Corpus log (pool-growing candidates) recorded so far.
    pub corpus_log: Vec<CorpusEntry>,
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
        }
    }

    /// Runs up to `max_iters` iterations; returns how many actually ran
    /// (less than `max_iters` only when the budget ran out or the config's
    /// stop flag was raised).
    pub fn step(&mut self, max_iters: usize) -> usize {
        let mut done = 0;
        while done < max_iters {
            if let Some(stop) = &self.shared.config.stop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            let iter = self.shared.next_iter.fetch_add(1, Ordering::Relaxed);
            if iter >= self.shared.config.iterations {
                break;
            }
            fuzz_iteration(
                iter,
                self.generator.as_mut(),
                &self.shared,
                &mut self.rng,
                &mut self.mutants,
            );
            done += 1;
        }
        done
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

    /// The corpus log recorded so far (pool-growing candidates, in
    /// discovery order; empty unless the config set `log_corpus`).
    pub fn corpus_log(&self) -> Vec<CorpusEntry> {
        self.shared.corpus_log.lock().clone()
    }

    /// Crashes found so far, in discovery order.
    pub fn crashes(&self) -> Vec<CrashRecord> {
        self.shared.crashes.lock().1.clone()
    }

    /// Snapshots the campaign's full deterministic state. Fails when the
    /// generator cannot expose its pool (hidden mutable state would make
    /// the resumed run diverge silently).
    pub fn checkpoint(&self) -> Result<CampaignCheckpoint, String> {
        let pool = self
            .generator
            .pool_snapshot()
            .ok_or_else(|| format!("{} does not support checkpointing", self.generator.name()))?;
        let crashes = self
            .shared
            .crashes
            .lock()
            .1
            .iter()
            .map(|c| CrashSeed {
                witness: c.witness.clone(),
                signature: c.signature,
                first_iteration: c.first_iteration,
            })
            .collect();
        Ok(CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            fuzzer: self.generator.name().to_string(),
            iterations: self.shared.config.iterations,
            next_iteration: self.completed(),
            seed: self.shared.config.seed,
            sample_every: self.shared.config.sample_every,
            rng: self.rng.state().to_vec(),
            pool,
            coverage: self.shared.coverage.snapshot().to_sparse_words(),
            crashes,
            series: self.shared.series.lock().clone(),
            mutants: self.mutants,
            corpus_log: self.shared.corpus_log.lock().clone(),
        })
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
                });
            }
        }
        *shared.series.lock() = checkpoint.series;
        *shared.corpus_log.lock() = checkpoint.corpus_log;
        Ok(SteppedCampaign {
            shared,
            generator,
            rng: MutRng::from_state(rng_state),
            mutants: checkpoint.mutants,
        })
    }

    /// Assembles the final report plus the corpus log. Callable at any
    /// point; normally used once [`SteppedCampaign::is_done`].
    pub fn finish(self) -> (CampaignReport, Vec<CorpusEntry>) {
        let name = self.generator.name();
        let corpus = self.shared.corpus_log.lock().clone();
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
            log_corpus: true,
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
}
