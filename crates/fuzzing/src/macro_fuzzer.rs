//! The macro fuzzer of §3.4: μCFuzz plus the long-term bug-hunting
//! engineering — Havoc-style multi-round mutation, random compiler-flag
//! sampling, a shared coverage map across parallel workers, and resource
//! limits. This is the harness behind the paper's eight-month field
//! experiment (RQ2, Table 6). It is a [`TestGenerator`] like every other
//! fuzzer: the campaign engine supplies the workers and the shared
//! coverage map, and compiles each candidate under its sampled command
//! line.

use crate::campaign::CampaignConfig;
use crate::generator::{Candidate, SeedPool, TestGenerator};
use crate::parallel::run_parallel_campaign;
use metamut_muast::{mutate_parsed, mutate_source, MutRng, MutationOutcome, MutatorRegistry};
use metamut_simcomp::{CompileOptions, Compiler, OptFlags, Profile, Stage};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Configuration for a field experiment.
#[derive(Debug, Clone)]
pub struct MacroConfig {
    /// Iteration budget per worker: the workers claim
    /// `iterations_per_worker * workers` iterations from one shared
    /// counter, so a faster worker may run more of them.
    pub iterations_per_worker: usize,
    /// Parallel workers (the paper used 60 CPUs; scale down locally). Each
    /// fuzzes its own shard of the seeds and they exchange discoveries.
    pub workers: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Havoc: maximum mutation rounds stacked per candidate (§3.4 #2).
    pub max_havoc_rounds: usize,
}

/// Resource limit: maximum mutant size in bytes (§3.4 #4).
const MAX_PROGRAM_LEN: usize = 1 << 15;

impl Default for MacroConfig {
    fn default() -> Self {
        MacroConfig {
            iterations_per_worker: 400,
            workers: 2,
            seed: 0xF1E1D,
            max_havoc_rounds: 4,
        }
    }
}

/// One bug found during the field experiment (a Table 6 row contributor).
#[derive(Debug, Clone, Serialize)]
pub struct FoundBug {
    /// Stable planted-bug id.
    pub bug_id: String,
    /// Compiler it was found in.
    pub compiler: String,
    /// Affected component.
    pub stage: Stage,
    /// Consequence label.
    pub consequence: String,
    /// Command-line flags active when it fired.
    pub flags: String,
    /// The triggering program (minimized only by luck, like real reports).
    pub program: String,
}

/// Field-experiment results.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FieldReport {
    /// Unique bugs by id, in discovery order.
    pub bugs: Vec<FoundBug>,
    /// Total compile invocations.
    pub total_compiles: usize,
    /// Final shared coverage.
    pub final_coverage: usize,
}

impl FieldReport {
    /// Bug counts per component (Table 6's module section).
    pub fn by_stage(&self) -> HashMap<Stage, usize> {
        let mut m = HashMap::new();
        for b in &self.bugs {
            *m.entry(b.stage).or_insert(0) += 1;
        }
        m
    }

    /// Bug counts per consequence (Table 6's consequence section).
    pub fn by_consequence(&self) -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for b in &self.bugs {
            *m.entry(b.consequence.clone()).or_insert(0) += 1;
        }
        m
    }
}

/// Samples a random command line (§3.4 enhancement #1).
fn sample_options(rng: &mut MutRng) -> CompileOptions {
    CompileOptions {
        opt_level: rng.int_in(0, 3) as u8,
        flags: OptFlags {
            no_tree_vrp: rng.chance(0.25),
            unroll_loops: rng.chance(0.25),
            strict_aliasing: rng.chance(0.5),
        },
    }
}

/// The §3.4 generator: picks a parent uniformly, stacks 1 to
/// `max_havoc_rounds` mutations on it (#2), stopping at the first round
/// that fails or outgrows [`MAX_PROGRAM_LEN`] (#4), and samples the command
/// line it is compiled under (#1). Every candidate that credits new bits
/// joins the pool.
struct MacroFuzzer {
    mutators: Arc<MutatorRegistry>,
    pool: SeedPool,
    max_havoc_rounds: usize,
}

impl TestGenerator for MacroFuzzer {
    fn name(&self) -> &'static str {
        "macro"
    }

    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        let (parent, parent_text) = self.pool.pick(rng);
        let rounds = rng.index(self.max_havoc_rounds) + 1;
        // `None` while the program is still the parent, whose parse the
        // pool caches.
        let mut program: Option<String> = None;
        for _ in 0..rounds {
            let mi = rng.index(self.mutators.len());
            let m = self.mutators.iter().nth(mi).expect("index in range");
            let seed = rng.next_u64();
            let outcome = match &program {
                Some(text) => mutate_source(m.mutator.as_ref(), text, seed),
                None => match self.pool.parsed(parent) {
                    Some(parsed) => mutate_parsed(m.mutator.as_ref(), &parsed, seed),
                    None => break,
                },
            };
            match outcome {
                Ok(MutationOutcome::Mutated(p)) if p.len() <= MAX_PROGRAM_LEN => program = Some(p),
                _ => break,
            }
        }
        let program = program.unwrap_or_else(|| parent_text.to_string());
        let mut candidate = Candidate::new(program, Some(parent));
        candidate.options = Some(sample_options(rng));
        candidate
    }

    fn feedback(&mut self, candidate: &Candidate, new_coverage: bool, _compiled: bool) {
        if new_coverage {
            self.pool.push_judged(candidate);
        }
    }

    fn seed_pool(&self) -> Option<&SeedPool> {
        Some(&self.pool)
    }

    fn seed_pool_mut(&mut self) -> Option<&mut SeedPool> {
        Some(&mut self.pool)
    }
}

/// Runs the macro fuzzer against one compiler profile on the parallel
/// campaign engine, without mutant dedup or the UB gate. Each unique
/// planted bug is reported once, with the command line of its first
/// witness.
pub fn run_field_experiment(
    profile: Profile,
    mutators: Arc<MutatorRegistry>,
    seeds: Vec<String>,
    config: &MacroConfig,
) -> FieldReport {
    let _field_span = metamut_telemetry::handle().span("macro_fuzz");
    let report = run_parallel_campaign(
        &seeds,
        |_w, shard| MacroFuzzer {
            mutators: Arc::clone(&mutators),
            pool: SeedPool::new(shard),
            max_havoc_rounds: config.max_havoc_rounds,
        },
        &Compiler::new(profile, CompileOptions::o2()),
        &CampaignConfig {
            iterations: config.iterations_per_worker * config.workers,
            seed: config.seed,
            workers: config.workers,
            dedup: false,
            ub_filter: false,
            ..Default::default()
        },
    );
    let mut seen = HashSet::new();
    let bugs = report
        .crashes
        .into_iter()
        .filter(|c| seen.insert(c.info.bug_id))
        .map(|c| FoundBug {
            bug_id: c.info.bug_id.to_string(),
            compiler: profile.name().to_string(),
            stage: c.info.stage,
            consequence: c.info.kind.label().to_string(),
            flags: c.options.render(),
            program: c.witness,
        })
        .collect();
    FieldReport {
        bugs,
        total_compiles: report.mutants.total,
        final_coverage: report.final_coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::seed_corpus;

    #[test]
    fn field_experiment_finds_bugs_in_parallel() {
        let report = run_field_experiment(
            Profile::Gcc,
            Arc::new(metamut_mutators::full_registry()),
            seed_corpus().iter().map(|s| s.to_string()).collect(),
            &MacroConfig {
                iterations_per_worker: 150,
                workers: 2,
                seed: 99,
                ..Default::default()
            },
        );
        assert_eq!(report.total_compiles, 300);
        assert!(report.final_coverage > 0);
        // Unique-by-id invariant.
        let ids: std::collections::HashSet<&String> =
            report.bugs.iter().map(|b| &b.bug_id).collect();
        assert_eq!(ids.len(), report.bugs.len());
    }

    /// A resumed run would rebuild every crash's command line from the
    /// campaign compiler, so the macro generator must keep refusing to
    /// checkpoint until `CrashSeed` persists each crash's options.
    #[test]
    fn macro_generator_refuses_to_checkpoint() {
        use crate::resume::SteppedCampaign;
        let generator = MacroFuzzer {
            mutators: Arc::new(metamut_mutators::full_registry()),
            pool: SeedPool::new(seed_corpus().iter().map(|s| s.to_string())),
            max_havoc_rounds: 4,
        };
        let mut campaign = SteppedCampaign::new(
            Box::new(generator),
            &Compiler::new(Profile::Gcc, CompileOptions::o2()),
            &CampaignConfig {
                iterations: 20,
                seed: 5,
                dedup: false,
                ub_filter: false,
                ..Default::default()
            },
            metamut_telemetry::Telemetry::disabled(),
        );
        campaign.step(10);
        assert!(campaign.checkpoint().is_err());
        assert!(campaign.checkpoint_delta().is_err());
    }

    #[test]
    fn sampled_options_vary() {
        let mut rng = MutRng::new(4);
        let opts: Vec<String> = (0..20).map(|_| sample_options(&mut rng).render()).collect();
        let unique: std::collections::HashSet<&String> = opts.iter().collect();
        assert!(unique.len() > 3, "{opts:?}");
    }
}
