//! The macro fuzzer of §3.4: μCFuzz plus the long-term bug-hunting
//! engineering — Havoc-style multi-round mutation, random compiler-flag
//! sampling, a shared coverage map across parallel workers, and resource
//! limits. This is the harness behind the paper's eight-month field
//! experiment (RQ2, Table 6).

use crate::generator::SeedPool;
use metamut_muast::{mutate_source, MutRng, MutationOutcome, MutatorRegistry};
use metamut_simcomp::{
    CompileOptions, Compiler, OptFlags, Outcome, Profile, SharedCoverage, Stage,
};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration for a field experiment.
#[derive(Debug, Clone)]
pub struct MacroConfig {
    /// Iterations per worker.
    pub iterations_per_worker: usize,
    /// Parallel workers (the paper used 60 CPUs; scale down locally).
    pub workers: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Havoc: maximum mutation rounds stacked per candidate (§3.4 #2).
    pub max_havoc_rounds: usize,
    /// Resource limit: maximum mutant size in bytes (§3.4 #4).
    pub max_program_len: usize,
}

impl Default for MacroConfig {
    fn default() -> Self {
        MacroConfig {
            iterations_per_worker: 400,
            workers: 2,
            seed: 0xF1E1D,
            max_havoc_rounds: 4,
            max_program_len: 1 << 15,
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

    /// Bug counts per compiler.
    pub fn by_compiler(&self) -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for b in &self.bugs {
            *m.entry(b.compiler.clone()).or_insert(0) += 1;
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

/// Runs the macro fuzzer against one compiler profile.
pub fn run_field_experiment(
    profile: Profile,
    mutators: Arc<MutatorRegistry>,
    seeds: Vec<String>,
    config: &MacroConfig,
) -> FieldReport {
    let telemetry = metamut_telemetry::handle();
    let _field_span = telemetry.span("macro_fuzz");
    let shared_cov = SharedCoverage::new();
    let shared_pool = Arc::new(Mutex::new(SeedPool::new(seeds)));
    let found: Arc<Mutex<Vec<FoundBug>>> = Arc::new(Mutex::new(Vec::new()));
    let compiles = Arc::new(Mutex::new(0usize));

    crossbeam::scope(|scope| {
        for w in 0..config.workers {
            let shared_cov = shared_cov.clone();
            let shared_pool = Arc::clone(&shared_pool);
            let found = Arc::clone(&found);
            let compiles = Arc::clone(&compiles);
            let mutators = Arc::clone(&mutators);
            scope.spawn(move |_| {
                let mut rng = MutRng::new(config.seed ^ (w as u64).wrapping_mul(0x9E37_79B9));
                let base = Compiler::new(profile, CompileOptions::o2());
                for _ in 0..config.iterations_per_worker {
                    // Pick a parent from the shared pool.
                    let parent = {
                        let pool = shared_pool.lock();
                        let (_, p) = pool.pick(&mut rng);
                        p.to_string()
                    };
                    // Havoc: stack several mutation rounds (§3.4 #2).
                    let rounds = rng.index(config.max_havoc_rounds) + 1;
                    let mut program = parent;
                    for _ in 0..rounds {
                        let mi = rng.index(mutators.len());
                        let m = mutators
                            .iter()
                            .nth(mi)
                            .expect("index in range")
                            .mutator
                            .as_ref();
                        match mutate_source(m, &program, rng.next_u64()) {
                            Ok(MutationOutcome::Mutated(p)) => program = p,
                            _ => break,
                        }
                        if program.len() > config.max_program_len {
                            break; // resource limit (§3.4 #4)
                        }
                    }
                    if program.len() > config.max_program_len {
                        continue;
                    }
                    // Random command line (§3.4 #1).
                    let compiler = base.with_options(sample_options(&mut rng));
                    let result = compiler.compile(&program);
                    *compiles.lock() += 1;
                    telemetry.counter_add("fuzz_execs", 1);
                    if let Outcome::Crash(info) = &result.outcome {
                        let mut found = found.lock();
                        if !found.iter().any(|b| b.bug_id == info.bug_id) {
                            telemetry.counter_add(
                                &metamut_telemetry::labeled("crashes_unique", info.stage.label()),
                                1,
                            );
                            found.push(FoundBug {
                                bug_id: info.bug_id.to_string(),
                                compiler: profile.name().to_string(),
                                stage: info.stage,
                                consequence: info.kind.label().to_string(),
                                flags: compiler.options().render(),
                                program: program.clone(),
                            });
                        }
                    }
                    // Shared coverage map (§3.4 #3).
                    if shared_cov.would_grow(&result.coverage) {
                        shared_cov.merge(&result.coverage);
                        shared_pool.lock().push(program);
                        if telemetry.enabled() {
                            telemetry.gauge_set("fuzz_coverage", shared_cov.count() as f64);
                            telemetry.gauge_set("fuzz_corpus", shared_pool.lock().len() as f64);
                        }
                    }
                }
            });
        }
    })
    .expect("worker panicked");

    let total_compiles = *compiles.lock();
    FieldReport {
        bugs: Arc::try_unwrap(found)
            .map(|m| m.into_inner())
            .unwrap_or_default(),
        total_compiles,
        final_coverage: shared_cov.count(),
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

    #[test]
    fn sampled_options_vary() {
        let mut rng = MutRng::new(4);
        let opts: Vec<String> = (0..20).map(|_| sample_options(&mut rng).render()).collect();
        let unique: std::collections::HashSet<&String> = opts.iter().collect();
        assert!(unique.len() > 3, "{opts:?}");
    }
}
