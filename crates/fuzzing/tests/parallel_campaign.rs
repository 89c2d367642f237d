//! Integration tests for the parallel campaign engine: the workers=1
//! determinism contract, cross-shard seed exchange, and dedup accounting.
//! (The telemetry-counter assertions live in `telemetry_counters.rs`,
//! which owns its process-global handle.)

use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::parallel::{run_parallel_campaign, run_parallel_campaign_with};
use metamut_fuzzing::{run_campaign, CampaignConfig};
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use metamut_telemetry::Telemetry;
use std::sync::Arc;

fn corpus() -> Vec<String> {
    seed_corpus().iter().map(|s| s.to_string()).collect()
}

fn registry() -> Arc<metamut_muast::MutatorRegistry> {
    Arc::new(metamut_mutators::supervised_registry())
}

/// The headline contract: one parallel worker reproduces the serial
/// engine bit-for-bit — identical series, crashes, mutant stats, dedup
/// stats, and coverage.
#[test]
fn one_worker_matches_serial_exactly() {
    let seeds = corpus();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 150,
        seed: 0xD15C0,
        sample_every: 25,
        workers: 1,
        ..Default::default()
    };
    let reg = registry();
    let mut serial_fuzzer = MuCFuzz::new("uCFuzz.s", reg.clone(), seeds.iter().cloned());
    let serial = run_campaign(&mut serial_fuzzer, &compiler, &config);
    let parallel = run_parallel_campaign(
        &seeds,
        |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
        &compiler,
        &config,
    );
    assert_eq!(serial, parallel);
}

/// The observatory must not perturb the engine: one parallel worker with
/// the status sampler and span tracing on (a private telemetry instance,
/// so the process-global handle stays untouched) still reproduces the
/// plain serial run bit-for-bit.
#[test]
fn one_worker_with_sampling_matches_serial_exactly() {
    let seeds = corpus();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 150,
        seed: 0xD15C0,
        sample_every: 25,
        workers: 1,
        ..Default::default()
    };
    let reg = registry();
    let mut serial_fuzzer = MuCFuzz::new("uCFuzz.s", reg.clone(), seeds.iter().cloned());
    let serial = run_campaign(&mut serial_fuzzer, &compiler, &config);

    let telemetry = Telemetry::new();
    telemetry.series().set_enabled(true);
    telemetry.spans().set_recording(true);
    let observed = run_parallel_campaign_with(
        &seeds,
        |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
        &compiler,
        &config,
        telemetry.clone(),
    );
    assert_eq!(serial, observed, "sampling perturbed the campaign");
    assert!(
        !telemetry.series().points().is_empty(),
        "sampler recorded nothing"
    );
}

/// The parallel status sampler: samples from racing workers come out of
/// the ring strictly ordered by iteration, with sane rate fields, and the
/// span tree holds one shard span per worker.
#[test]
fn parallel_sampler_series_is_monotone_in_iterations() {
    let seeds = corpus();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 200,
        seed: 77,
        sample_every: 10,
        workers: 3,
        ..Default::default()
    };
    let reg = registry();
    let telemetry = Telemetry::new();
    telemetry.series().set_enabled(true);
    telemetry.spans().set_recording(true);
    let report = run_parallel_campaign_with(
        &seeds,
        |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
        &compiler,
        &config,
        telemetry.clone(),
    );
    assert_eq!(report.mutants.total, 200);

    let points = telemetry.series().points();
    assert!(points.len() >= 3, "expected several samples");
    for w in points.windows(2) {
        assert!(
            w[1].iteration >= w[0].iteration,
            "series not monotone in iterations"
        );
    }
    for p in &points {
        assert!(p.iteration < 200);
        assert!(p.execs <= 200);
        assert!(p.execs_per_sec >= 0.0);
        for rate in [p.dedup_hit_rate, p.ub_filter_rate] {
            assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
        }
    }

    let done = telemetry.spans().completed();
    let shards: Vec<_> = done.iter().filter(|s| s.name == "shard").collect();
    assert_eq!(shards.len(), 3, "one shard span per worker");
    // Iteration spans nest inside their shard's interval on the same
    // thread.
    for it in done.iter().filter(|s| s.name == "iteration") {
        let shard = shards
            .iter()
            .find(|sh| sh.id == it.parent)
            .expect("iteration span parented to a shard");
        assert_eq!(shard.tid, it.tid);
        assert!(shard.start_us <= it.start_us);
        assert!(it.start_us + it.dur_us <= shard.start_us + shard.dur_us);
    }
}

/// The `--no-ub-filter` escape hatch: with the filter off the campaign
/// engine carries no gate at all, and one parallel worker still
/// reproduces the serial engine bit-for-bit — i.e. exactly the pre-filter
/// engine's report, with no UB stats attached.
#[test]
fn no_ub_filter_matches_serial_exactly() {
    let seeds = corpus();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 150,
        seed: 0xD15C0,
        sample_every: 25,
        workers: 1,
        ub_filter: false,
        ..Default::default()
    };
    let reg = registry();
    let mut serial_fuzzer = MuCFuzz::new("uCFuzz.s", reg.clone(), seeds.iter().cloned());
    let serial = run_campaign(&mut serial_fuzzer, &compiler, &config);
    let parallel = run_parallel_campaign(
        &seeds,
        |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
        &compiler,
        &config,
    );
    assert_eq!(serial, parallel);
    assert!(serial.ub.is_none(), "no gate exists with the filter off");
    // Unfiltered dedup accounting: every miss compiled into the cache.
    let dedup = serial.dedup.expect("dedup on by default");
    assert_eq!(dedup.unique, dedup.misses as usize);
}

/// Multi-worker campaigns use the full iteration budget, merge coverage
/// without losing bits, and report sane, monotone series.
#[test]
fn multi_worker_campaign_accounts_exactly() {
    let seeds = corpus();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 200,
        seed: 77,
        sample_every: 40,
        workers: 4,
        exchange_every: 16,
        ..Default::default()
    };
    let reg = registry();
    let report = run_parallel_campaign(
        &seeds,
        |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
        &compiler,
        &config,
    );
    assert_eq!(report.workers, 4);
    assert_eq!(report.mutants.total, 200, "budget must be exact");
    assert!(report.final_coverage > 0);
    for w in report.series.windows(2) {
        assert!(w[1].iteration > w[0].iteration);
        assert!(w[1].covered >= w[0].covered);
        assert!(w[1].crashes >= w[0].crashes);
    }
    assert_eq!(report.series.last().unwrap().covered, report.final_coverage);
    // Every iteration is either a dedup hit or a fresh lookup miss, and
    // every miss was either UB-filtered or cached as a distinct verdict.
    // Only the misses that would change the campaign are gated.
    let dedup = report.dedup.expect("dedup on by default");
    let ub = report.ub.expect("ub filter on by default");
    assert_eq!(dedup.hits + dedup.misses, 200);
    assert_eq!(dedup.unique as u64 + ub.filtered, dedup.misses);
    assert!(ub.checked <= dedup.misses, "only misses are gated");
}

/// Worker counts only redistribute the budget — coverage stays in the
/// same ballpark and crash signatures remain a subset of what the seed
/// space offers. (Different worker counts legitimately produce different
/// mutants; this pins the accounting, not the RNG stream.)
#[test]
fn worker_count_preserves_budget_accounting() {
    let seeds = corpus();
    let compiler = Compiler::new(Profile::Clang, CompileOptions::o2());
    for workers in [2, 3, 8] {
        let config = CampaignConfig {
            iterations: 90,
            seed: 5,
            sample_every: 30,
            workers,
            ..Default::default()
        };
        let reg = registry();
        let report = run_parallel_campaign(
            &seeds,
            |_w, shard| MuCFuzz::new("uCFuzz.s", reg.clone(), shard),
            &compiler,
            &config,
        );
        assert_eq!(report.mutants.total, 90, "workers={workers}");
        assert!(report.workers <= workers.max(1));
        assert!(report.final_coverage > 0, "workers={workers}");
    }
}

/// Cross-shard exchange: a generator that only discovers interesting
/// seeds in shard 0 still grows shard 1's pool via the hub.
#[test]
fn exchange_propagates_seeds_across_shards() {
    use metamut_fuzzing::generator::{Candidate, SeedPool, TestGenerator};
    use metamut_muast::MutRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Worker 0 "discovers" fresh programs (every candidate covers new
    // ground); worker 1 never does. After exchange, worker 1's pool must
    // contain worker 0's discoveries.
    static ADOPTIONS: AtomicUsize = AtomicUsize::new(0);

    struct Discoverer {
        worker: usize,
        pool: SeedPool,
        counter: usize,
    }
    impl TestGenerator for Discoverer {
        fn name(&self) -> &'static str {
            "discoverer"
        }
        fn next_candidate(&mut self, _rng: &mut MutRng) -> Candidate {
            // Pace the loop so neither worker can drain the whole budget
            // before the other is scheduled (single-core CI boxes).
            std::thread::sleep(std::time::Duration::from_micros(100));
            self.counter += 1;
            let program = if self.worker == 0 {
                // Distinct small returns: tiny, valid, and fresh feature
                // bits as the constants churn.
                format!("int f(void) {{ return {}; }}", self.counter % 100)
            } else {
                "int g(void) { return 0; }".to_string()
            };
            Candidate::new(program, None)
        }
        fn feedback(&mut self, candidate: &Candidate, new_coverage: bool, _compiled: bool) {
            if new_coverage {
                self.pool.push(candidate.program.clone());
            }
        }
        fn pool_len(&self) -> usize {
            self.pool.len()
        }
        fn drain_new_seeds(&mut self) -> Vec<String> {
            self.pool.take_new_seeds()
        }
        fn adopt_seeds(&mut self, seeds: Vec<String>) {
            // Only worker 0 discovers anything worth exporting, so every
            // adoption seen here crossed from shard 0 into shard 1.
            if self.worker == 1 {
                assert!(
                    seeds.iter().all(|s| s.starts_with("int f")),
                    "unexpected exchange payload: {seeds:?}"
                );
                ADOPTIONS.fetch_add(seeds.len(), Ordering::Relaxed);
            }
            self.pool.adopt(seeds);
        }
    }

    let seeds = vec!["int a;".to_string(), "int b;".to_string()];
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    let config = CampaignConfig {
        iterations: 240,
        seed: 1,
        sample_every: 60,
        workers: 2,
        exchange_every: 8,
        ..Default::default()
    };
    let report = run_parallel_campaign(
        &seeds,
        |w, shard| Discoverer {
            worker: w,
            pool: SeedPool::new(shard),
            counter: 0,
        },
        &compiler,
        &config,
    );
    assert_eq!(report.mutants.total, 240);
    assert!(
        ADOPTIONS.load(Ordering::Relaxed) > 0,
        "worker 1 never adopted worker 0's discoveries"
    );
}
