//! The two campaign workloads, `mucfuzz_gcc_o2` and `csmith_clang_o3`.
//!
//! A round is a fixed set of serial campaigns whose RNG seeds derive from
//! `--seed`; rounds repeat over the same set. Averaging several campaigns
//! per round keeps the seed-to-seed spread of the rates small, because one
//! campaign's cost depends on the random path its pool takes.
//!
//! Untraced passes run the engine itself (`run_campaign`). The only
//! instrument is a generator wrapper that timestamps every
//! `next_candidate` call, which gives per-iteration latency and the time
//! to the first iteration (set-up) without touching the engine.
//!
//! Traced passes run [`mirror_campaign`], a re-implementation of the
//! engine's iteration from the public layer APIs with a span around each
//! call. Each traced campaign's outcome is compared with the engine's for
//! the same seed (`bench.mirror_fidelity`).

use crate::probe::Probe;
use crate::query::QueryTally;
use crate::stats::ratio;
use crate::trace::{Layer, Tracer};
use crate::{end_to_end, Metric, Opts, RunReport, Tally};
use metamut_analyze::UbGate;
use metamut_fuzzing::campaign::{MutantStats, UbStats};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::csmith::CsmithLike;
use metamut_fuzzing::generator::{Candidate, PoolSnapshot};
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig, DedupStats, TestGenerator};
use metamut_lang::chash::hash128;
use metamut_muast::MutRng;
use metamut_simcomp::{
    AtomicCoverage, Claim, CompileOptions, Compiler, DedupCache, Outcome, Profile, QueryCache,
    QueryDb, Stage, Verdict,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// μCFuzz over the full mutator registry and the seed corpus, against
    /// gcc-sim -O2: mutants share almost every declaration with their
    /// parent, so mutate, the UB gate's splice fast path, dedup and the
    /// memo hit path do most of the work.
    MuCFuzzGccO2,
    /// The Csmith-like generator against clang-sim -O3: candidates have no
    /// parent, so memo and dedup are bypassed and the cold pipeline plus
    /// the full-program UB gate dominate.
    CsmithClangO3,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::MuCFuzzGccO2 => "mucfuzz_gcc_o2",
            Kind::CsmithClangO3 => "csmith_clang_o3",
        }
    }

    /// `(campaigns per round, iterations per campaign)`.
    fn budget(self, smoke: bool) -> (usize, usize) {
        match (self, smoke) {
            (Kind::MuCFuzzGccO2, false) => (4, 5_000),
            (Kind::CsmithClangO3, false) => (3, 3_000),
            (Kind::MuCFuzzGccO2, true) => (1, 300),
            (Kind::CsmithClangO3, true) => (1, 100),
        }
    }

    fn compiler(self) -> Compiler {
        match self {
            Kind::MuCFuzzGccO2 => Compiler::new(Profile::Gcc, CompileOptions::o2()),
            Kind::CsmithClangO3 => Compiler::new(Profile::Clang, CompileOptions::o3()),
        }
    }

    fn generator(self) -> Box<dyn TestGenerator> {
        match self {
            Kind::MuCFuzzGccO2 => Box::new(MuCFuzz::new(
                "uCFuzz",
                Arc::new(metamut_mutators::full_registry()),
                seed_corpus().iter().map(|s| s.to_string()),
            )),
            Kind::CsmithClangO3 => Box::new(CsmithLike::new()),
        }
    }

    /// The layer `next_candidate` belongs to.
    fn candidate_layer(self) -> Layer {
        match self {
            Kind::MuCFuzzGccO2 => Layer::Mutate,
            Kind::CsmithClangO3 => Layer::Generate,
        }
    }
}

/// The RNG seed of campaign `j` in every round; campaign 0 runs `--seed`
/// itself.
fn campaign_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn config(seed: u64, iterations: usize) -> CampaignConfig {
    CampaignConfig {
        iterations,
        seed,
        sample_every: (iterations / 24).max(1),
        ..Default::default()
    }
}

/// Everything a campaign reports that must repeat exactly for its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    pub final_coverage: usize,
    pub stage_coverage: Vec<usize>,
    /// `(signature, first iteration)` in discovery order.
    pub crashes: Vec<(u64, usize)>,
    pub mutants: MutantStats,
    pub dedup: Option<DedupStats>,
    pub ub: Option<UbStats>,
}

/// A campaign's outcome plus the witnesses its output check replays.
struct Finished {
    outcome: CampaignOutcome,
    witnesses: Vec<(u64, String)>,
}

/// Forwards every call to the wrapped generator, timestamping each
/// `next_candidate`: consecutive stamps bound one engine iteration.
struct Stamped {
    inner: Box<dyn TestGenerator>,
    stamps: Vec<Instant>,
}

impl TestGenerator for Stamped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        self.stamps.push(Instant::now());
        self.inner.next_candidate(rng)
    }
    fn feedback(&mut self, candidate: &Candidate, new_coverage: bool, compiled: bool) {
        self.inner.feedback(candidate, new_coverage, compiled)
    }
    fn pool_len(&self) -> usize {
        self.inner.pool_len()
    }
    fn seed_source(&self, index: usize) -> Option<&str> {
        self.inner.seed_source(index)
    }
    fn drain_new_seeds(&mut self) -> Vec<String> {
        self.inner.drain_new_seeds()
    }
    fn adopt_seeds(&mut self, seeds: Vec<String>) {
        self.inner.adopt_seeds(seeds)
    }
    fn pool_snapshot(&self) -> Option<PoolSnapshot> {
        self.inner.pool_snapshot()
    }
    fn restore_pool(&mut self, snapshot: PoolSnapshot) -> bool {
        self.inner.restore_pool(snapshot)
    }
}

/// One engine campaign's timings.
struct EngineTiming {
    /// From constructing the generator to the engine's first
    /// `next_candidate`.
    setup_s: f64,
    /// From the first iteration to the report.
    busy_s: f64,
    latencies_ms: Vec<f64>,
}

/// Runs one campaign on the engine (`run_campaign`).
fn engine_campaign(kind: Kind, seed: u64, iterations: usize) -> (Finished, EngineTiming) {
    let t0 = Instant::now();
    let mut generator = Stamped {
        inner: kind.generator(),
        stamps: Vec::with_capacity(iterations + 1),
    };
    let compiler = kind.compiler();
    let report = run_campaign(&mut generator, &compiler, &config(seed, iterations));
    let end = Instant::now();
    let mut stamps = generator.stamps;
    let first = *stamps.first().unwrap_or(&end);
    stamps.push(end);
    let timing = EngineTiming {
        setup_s: (first - t0).as_secs_f64(),
        busy_s: (end - first).as_secs_f64(),
        latencies_ms: stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect(),
    };
    let finished = Finished {
        outcome: CampaignOutcome {
            final_coverage: report.final_coverage,
            stage_coverage: report.stage_coverage.clone(),
            crashes: report
                .crashes
                .iter()
                .map(|c| (c.signature, c.first_iteration))
                .collect(),
            mutants: report.mutants,
            dedup: report.dedup,
            ub: report.ub,
        },
        witnesses: report
            .crashes
            .iter()
            .map(|c| (c.signature, c.witness.clone()))
            .collect(),
    };
    (finished, timing)
}

/// Layer counters of traced campaigns, summed over campaigns.
#[derive(Default)]
struct Counters {
    iterations: u64,
    duds: u64,
    dedup_hits: u64,
    dedup_lookups: u64,
    gate_checked: u64,
    gate_filtered: u64,
    gate_fast_path: u64,
    summary_hits: u64,
    summary_lookups: u64,
    query: QueryTally,
}

/// One campaign through the mirror: the engine's iteration
/// (`fuzz_iteration` under the default `CampaignConfig`, one worker)
/// rebuilt from public calls, each timed as a span. Returns the outcome
/// and the wall time from the first iteration to the end of teardown.
fn mirror_campaign(
    kind: Kind,
    seed: u64,
    iterations: usize,
    tracer: &mut Tracer,
    counters: &mut Counters,
    sample_every: usize,
    sample: &mut Vec<String>,
) -> (Finished, f64) {
    let mut generator = kind.generator();
    let compiler = kind.compiler();
    let db = Arc::new(QueryDb::new());
    let dedup = DedupCache::new();
    let cache = QueryCache::new(Arc::clone(&db));
    let gate = UbGate::with_db(Arc::clone(&db));
    let coverage = AtomicCoverage::new();
    let mut seen = HashSet::new();
    let mut witnesses = Vec::new();
    let mut crashes = Vec::new();
    let mut mutants = MutantStats::default();
    // Worker 0's stream: the engine seeds worker `w` with `seed ^ (w * k)`.
    let mut rng = MutRng::new(seed);
    let start = Instant::now();
    for iter in 0..iterations {
        let id = tracer.next_root();
        let root = tracer.now();
        let candidate = tracer.time(kind.candidate_layer(), id, || {
            generator.next_candidate(&mut rng)
        });
        let (hash, claim) = tracer.time(Layer::Dedup, id, || {
            let hash = hash128(candidate.program.as_bytes());
            (hash, dedup.claim_hashed(hash))
        });
        if candidate.parent.and_then(|i| generator.seed_source(i))
            == Some(candidate.program.as_str())
        {
            counters.duds += 1;
        }
        let (compiled, new_bits) = match claim {
            Claim::Hit(verdict) => (verdict.compiled, 0),
            Claim::Owner => {
                let parent = candidate
                    .parent
                    .and_then(|i| generator.seed_source(i))
                    .map(str::to_owned);
                let gated = tracer.time(Layer::UbGate, id, || {
                    gate.introduces_new_ub(parent.as_deref(), &candidate.program)
                });
                if gated {
                    tracer.time(Layer::Dedup, id, || dedup.abandon_hashed(hash));
                    (false, 0)
                } else {
                    let result = match &parent {
                        Some(p) => tracer.time(Layer::CompileMemo, id, || {
                            cache.compile_hashed(&compiler, p, &candidate.program, hash)
                        }),
                        None => tracer.time(Layer::CompileCold, id, || {
                            compiler.compile(&candidate.program)
                        }),
                    };
                    let compiled = result.outcome.front_end_accepted();
                    if let Outcome::Crash(info) = &result.outcome {
                        let sig = info.signature();
                        if seen.insert(sig) {
                            crashes.push((sig, iter));
                            witnesses.push((sig, candidate.program.clone()));
                        }
                    }
                    let new_bits = tracer.time(Layer::CoverageMerge, id, || {
                        coverage.merge(&result.coverage)
                    });
                    tracer.time(Layer::Dedup, id, || {
                        dedup.insert_hashed(hash, Verdict::of(&result))
                    });
                    (compiled, new_bits)
                }
            }
        };
        mutants.record(compiled);
        tracer.time(Layer::Feedback, id, || {
            generator.feedback(&candidate, new_bits > 0, compiled)
        });
        tracer.close(Layer::Other, id, root);
        if iter % sample_every == 0 {
            sample.push(candidate.program);
        }
    }
    let c = counters;
    c.iterations += iterations as u64;
    c.dedup_hits += dedup.hits();
    c.dedup_lookups += dedup.hits() + dedup.misses();
    c.gate_checked += gate.checked();
    c.gate_filtered += gate.filtered();
    c.gate_fast_path += gate.fast_path();
    c.summary_hits += gate.summary_hits();
    c.summary_lookups += gate.summary_hits() + gate.summary_recomputes();
    c.query.add(&db);
    let finished = Finished {
        outcome: CampaignOutcome {
            final_coverage: coverage.count(),
            stage_coverage: Stage::ALL
                .iter()
                .map(|s| coverage.count_stage(*s))
                .collect(),
            crashes,
            mutants,
            dedup: Some(DedupStats {
                hits: dedup.hits(),
                misses: dedup.misses(),
                unique: dedup.len(),
            }),
            ub: Some(UbStats {
                checked: gate.checked(),
                filtered: gate.filtered(),
                fast_path: gate.fast_path(),
                summary_hits: gate.summary_hits(),
                summary_recomputes: gate.summary_recomputes(),
            }),
        },
        witnesses,
    };
    // `run_campaign` frees its memo store before it returns, and freeing a
    // campaign's memos takes a noticeable share of its wall time; the
    // mirror's wall time includes the same teardown.
    drop((generator, cache, gate, dedup, coverage, db));
    (finished, start.elapsed().as_secs_f64())
}

/// The output check of one campaign: it ran its whole budget, and every
/// crash witness reproduces its signature under a cold compile.
fn check(kind: Kind, finished: &Finished, iterations: usize) -> bool {
    let compiler = kind.compiler();
    finished.outcome.mutants.total == iterations
        && finished.outcome.mutants.compilable <= iterations
        && finished.witnesses.iter().all(|(sig, witness)| {
            compiler
                .compile(witness)
                .outcome
                .crash()
                .is_some_and(|c| c.signature() == *sig)
        })
}

/// Runs a campaign workload for `opts.seconds`.
pub fn run(kind: Kind, opts: &Opts) -> RunReport {
    let (campaigns, iterations) = kind.budget(opts.smoke);
    let seeds: Vec<u64> = (0..campaigns)
        .map(|j| campaign_seed(opts.seed, j))
        .collect();
    // Reference outcome per seed: the engine's first run of it. Later runs
    // of the same seed must repeat it exactly.
    let mut reference: Vec<Option<CampaignOutcome>> = vec![None; campaigns];
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    let mut setups = Vec::new();
    let mut engine_walls = Vec::new();
    let mut mirror_walls = Vec::new();
    let mut tracer = Tracer::new(opts.trace, "iteration");
    let mut counters = Counters::default();
    let mut sample = Vec::new();
    let sample_every = (campaigns * iterations / 200).max(1);
    let mut fidelity = true;

    let peak_rss_mb = opts.rounds(|round| {
        for &traced in opts.passes(round) {
            if traced {
                let mut wall = 0.0;
                for (j, &seed) in seeds.iter().enumerate() {
                    let (finished, w) = mirror_campaign(
                        kind,
                        seed,
                        iterations,
                        &mut tracer,
                        &mut counters,
                        sample_every,
                        &mut sample,
                    );
                    wall += w;
                    // A mirror that diverges from the engine is reported by
                    // `bench.mirror_fidelity`, not counted as a failed output.
                    fidelity &= reference[j].as_ref() == Some(&finished.outcome);
                    tally.add(iterations as u64, check(kind, &finished, iterations));
                }
                mirror_walls.push(wall);
                tracer.end_round();
                continue;
            }
            let mut busy = 0.0;
            let mut round_latencies = Vec::with_capacity(campaigns * iterations);
            for (j, &seed) in seeds.iter().enumerate() {
                let (finished, timing) = engine_campaign(kind, seed, iterations);
                let repeats = reference[j].get_or_insert_with(|| finished.outcome.clone())
                    == &finished.outcome;
                tally.add(
                    iterations as u64,
                    repeats && check(kind, &finished, iterations),
                );
                busy += timing.busy_s;
                setups.push(timing.setup_s);
                round_latencies.extend(timing.latencies_ms);
            }
            rates.push((campaigns * iterations) as f64 / busy);
            latencies.push(round_latencies);
            engine_walls.push(busy);
        }
    });

    let outcomes: Vec<&CampaignOutcome> = reference.iter().flatten().collect();
    let n = outcomes.len().max(1) as f64;
    let total: usize = outcomes.iter().map(|o| o.mutants.total).sum();
    let compilable: usize = outcomes.iter().map(|o| o.mutants.compilable).sum();
    let notes = vec![
        Metric::new(
            "outcome.coverage_branches",
            outcomes.iter().map(|o| o.final_coverage).sum::<usize>() as f64 / n,
            "branches",
        ),
        Metric::new(
            "outcome.unique_crashes",
            outcomes.iter().map(|o| o.crashes.len()).sum::<usize>() as f64 / n,
            "signatures",
        ),
        Metric::new(
            "outcome.compilable_pct",
            100.0 * ratio(compilable as f64, total as f64),
            "%",
        ),
    ];

    if !opts.trace {
        return RunReport {
            tally,
            metrics: end_to_end(&rates, &latencies, peak_rss_mb, &setups),
            notes,
        };
    }

    let mut probe = Probe::default();
    let compiler = kind.compiler();
    for program in &sample {
        probe.run(&compiler, program);
    }
    let c = &counters;
    let mut metrics = tracer.layer_metrics();
    metrics.extend(notes);
    metrics.extend(probe.metrics());
    metrics.extend(c.query.metrics());
    metrics.extend([
        Metric::new(
            "mutate.dud_ratio",
            ratio(c.duds as f64, c.iterations as f64),
            "ratio",
        ),
        Metric::new(
            "dedup.hit_ratio",
            ratio(c.dedup_hits as f64, c.dedup_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "ub_gate.filtered_ratio",
            ratio(c.gate_filtered as f64, c.gate_checked as f64),
            "ratio",
        ),
        Metric::new(
            "ub_gate.fast_path_ratio",
            ratio(c.gate_fast_path as f64, c.gate_checked as f64),
            "ratio",
        ),
        Metric::new(
            "ub_gate.summary_hit_ratio",
            ratio(c.summary_hits as f64, c.summary_lookups as f64),
            "ratio",
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            crate::stats::overhead_pct(&mirror_walls, &engine_walls),
            "%",
        ),
        Metric::new(
            "bench.mirror_fidelity",
            f64::from(u8::from(fidelity)),
            "bool",
        ),
    ]);
    tracer.finish(kind.name());
    RunReport {
        tally,
        metrics: crate::trace::complete(metrics),
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's own report for one campaign, as the fidelity test's
    /// reference (no wrapper in between).
    fn engine_outcome(kind: Kind, seed: u64, iterations: usize) -> CampaignOutcome {
        let report = run_campaign(
            kind.generator().as_mut(),
            &kind.compiler(),
            &config(seed, iterations),
        );
        CampaignOutcome {
            final_coverage: report.final_coverage,
            stage_coverage: report.stage_coverage,
            crashes: report
                .crashes
                .iter()
                .map(|c| (c.signature, c.first_iteration))
                .collect(),
            mutants: report.mutants,
            dedup: report.dedup,
            ub: report.ub,
        }
    }

    #[test]
    fn traced_mirror_reproduces_the_engine_on_both_campaign_workloads() {
        for (kind, iterations) in [(Kind::MuCFuzzGccO2, 600), (Kind::CsmithClangO3, 150)] {
            let reference = engine_outcome(kind, 7, iterations);
            let mut tracer = Tracer::new(true, "iteration");
            let (mirrored, _) = mirror_campaign(
                kind,
                7,
                iterations,
                &mut tracer,
                &mut Counters::default(),
                usize::MAX,
                &mut Vec::new(),
            );
            assert_eq!(mirrored.outcome, reference, "{kind:?}");
            assert!(reference.final_coverage > 0);
            // The wrapper the untraced passes measure through is invisible
            // to the engine.
            let (stamped, timing) = engine_campaign(kind, 7, iterations);
            assert_eq!(stamped.outcome, reference, "{kind:?}");
            assert_eq!(timing.latencies_ms.len(), iterations);
            assert!(check(kind, &stamped, iterations));
        }
    }

    #[test]
    fn untraced_runs_repeat_exactly() {
        let opts = Opts {
            seed: 11,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let a = engine_campaign(Kind::MuCFuzzGccO2, campaign_seed(opts.seed, 1), 300).0;
        let b = engine_campaign(Kind::MuCFuzzGccO2, campaign_seed(opts.seed, 1), 300).0;
        assert_eq!(a.outcome, b.outcome);
        let report = run(Kind::CsmithClangO3, &opts);
        assert_eq!(report.tally.failed, 0);
        assert!(report.tally.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ops_per_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "peak_rss_mb",
                "setup_s"
            ]
        );
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            report.metrics
        );
    }
}
