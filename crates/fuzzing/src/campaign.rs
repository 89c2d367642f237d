//! The campaign runner: drives any [`TestGenerator`] against an
//! instrumented compiler for a fixed iteration budget, recording the three
//! quantities the paper's RQ1 evaluation reports — branch coverage over
//! time (Figure 7), unique crashes over time (Figures 8/9, Table 4), and
//! the compilable-mutant ratio (Table 5).
//!
//! Serial and parallel campaigns share one worker loop over a
//! `CampaignShared` state block: [`run_campaign`] runs a single inline
//! worker, [`crate::parallel::run_parallel_campaign`] spawns one thread
//! per shard. With one worker the two are bit-for-bit identical.

use crate::generator::TestGenerator;
use crate::parallel::ExchangeHub;
use metamut_analyze::{QueryDb, UbGate};
use metamut_muast::{MutRng, ParsedProgram};
use metamut_simcomp::{AtomicCoverage, Claim, Compiler, CrashInfo, DedupCache, Stage, Verdict};
use metamut_telemetry::{SeriesPoint, Telemetry};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of fuzzing iterations (scaled stand-in for the paper's 24 h).
    pub iterations: usize,
    /// RNG seed. Worker `w` derives its stream from
    /// `seed ^ (w * 0x9E37_79B9)`, so worker 0 fuzzes exactly the serial
    /// stream.
    pub seed: u64,
    /// Record a coverage sample every this many iterations.
    pub sample_every: usize,
    /// Worker threads for the parallel engine; `0` means one per available
    /// CPU. [`run_campaign`] ignores this (always one inline worker).
    pub workers: usize,
    /// Skip recompilation of byte-identical mutants via a shared
    /// [`DedupCache`]. Reports are unaffected either way — the compiler is
    /// a pure function of its input — so this is purely a throughput knob.
    pub dedup: bool,
    /// Exchange newly discovered seeds across shards every this many
    /// iterations per worker (`0` disables exchange).
    pub exchange_every: usize,
    /// Keep mutants that introduce undefined behavior their parent seed
    /// did not have (see `metamut_analyze::UbGate`) out of the campaign.
    /// The gate judges a compiled mutant only if it would add coverage or
    /// a new crash signature; a filtered mutant counts as generated but
    /// not compilable and changes nothing. `--no-ub-filter` turns it off,
    /// reproducing the unfiltered engine bit-for-bit.
    pub ub_filter: bool,
    /// The query database holding the UB gate's function-summary memos.
    /// `None` gives the campaign a private database; pass a shared one to
    /// let triage (the reduction oracle's UB guard) reuse the campaign's
    /// summaries.
    pub query_db: Option<std::sync::Arc<QueryDb>>,
    /// Cooperative cancellation: workers stop claiming iterations once
    /// this flag is raised. The report then covers the iterations actually
    /// run. `None` (the default) means the campaign always runs to budget.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            iterations: 500,
            seed: 0x4d45_5441,
            sample_every: 25,
            workers: 0,
            dedup: true,
            exchange_every: 64,
            ub_filter: true,
            query_db: None,
            stop: None,
        }
    }
}

impl CampaignConfig {
    /// The worker count with `0` resolved to the machine's available
    /// parallelism.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// One point of the coverage/crash time series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplePoint {
    /// Iteration index.
    pub iteration: usize,
    /// Covered branches so far (Figure 7's y-axis).
    pub covered: usize,
    /// Unique crashes so far (Figure 9's y-axis).
    pub crashes: usize,
}

/// A deduplicated crash with its discovery time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CrashRecord {
    /// The crash signature's bug.
    pub info: CrashInfo,
    /// Top-two-frame signature value.
    pub signature: u64,
    /// Iteration of first discovery (Figure 9).
    pub first_iteration: usize,
    /// The mutant that first triggered this crash (the reduction input).
    pub witness: String,
    /// The command line the witness crashed under.
    pub options: metamut_simcomp::CompileOptions,
}

/// One corpus entry: a candidate that grew the seed pool, with the
/// coverage metadata the daemon's persistent store keeps alongside it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The interesting program itself.
    pub program: String,
    /// Iteration at which it entered the pool.
    pub iteration: usize,
    /// Branches it newly covered when first compiled.
    pub new_bits: usize,
}

/// Mutant production statistics (Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutantStats {
    /// Total generated test programs.
    pub total: usize,
    /// How many the front end accepted.
    pub compilable: usize,
}

impl MutantStats {
    /// Records one generated mutant, bumping the matching telemetry
    /// counters (`mutants_generated`, `mutants_compilable`). Every update
    /// site goes through here so the stats and the telemetry stream
    /// cannot drift apart.
    pub fn record(&mut self, compilable: bool) {
        self.total += 1;
        let telemetry = metamut_telemetry::handle();
        telemetry.counter_add("mutants_generated", 1);
        if compilable {
            self.compilable += 1;
            telemetry.counter_add("mutants_compilable", 1);
        }
    }

    /// Adds another worker's stats (telemetry counters were already bumped
    /// by each `record` call).
    pub fn absorb(&mut self, other: MutantStats) {
        self.total += other.total;
        self.compilable += other.compilable;
    }

    /// The compilable ratio in percent.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.compilable as f64 / self.total as f64
        }
    }
}

/// UB-gate statistics for one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UbStats {
    /// Mutants put to the gate: dedup misses that would have added
    /// coverage or a new crash signature.
    pub checked: u64,
    /// Mutants skipped for introducing new undefined behavior.
    pub filtered: u64,
    /// Always 0: the gate has a single decision path. Kept only because
    /// the frozen `exp_perf` benchmark still builds this struct; never
    /// serialized.
    pub fast_path: u64,
    /// Interprocedural function-summary memo hits across the campaign.
    pub summary_hits: u64,
    /// Function summaries actually computed (memo misses). With one seed
    /// family this stays near the function count of the corpus: each
    /// single-declaration mutant re-summarizes only the edited function
    /// and its transitive callers.
    pub summary_recomputes: u64,
}

// Hand-written so the always-0 `fast_path` field is never serialized.
impl Serialize for UbStats {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let n = |v: u64| serde::Value::Number(serde::Number::U64(v));
        s.serialize_value(serde::Value::Object(vec![
            ("checked".into(), n(self.checked)),
            ("filtered".into(), n(self.filtered)),
            ("summary_hits".into(), n(self.summary_hits)),
            ("summary_recomputes".into(), n(self.summary_recomputes)),
        ]))
    }
}

/// Mutant-dedup cache statistics for one campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DedupStats {
    /// Iterations that skipped recompilation of a byte-identical mutant.
    pub hits: u64,
    /// Iterations that compiled a first-seen source.
    pub misses: u64,
    /// Distinct sources compiled.
    pub unique: usize,
}

impl DedupStats {
    /// Hits as a fraction of all lookups (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = (self.hits + self.misses) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.hits as f64 / total
        }
    }
}

/// The full result of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignReport {
    /// Fuzzer display name.
    pub fuzzer: String,
    /// Compiler profile name.
    pub compiler: String,
    /// Coverage/crash series.
    pub series: Vec<SamplePoint>,
    /// Unique crashes in discovery order.
    pub crashes: Vec<CrashRecord>,
    /// Mutant statistics.
    pub mutants: MutantStats,
    /// Final covered-branch count.
    pub final_coverage: usize,
    /// Final coverage per stage, in [`Stage::ALL`] order.
    pub stage_coverage: Vec<usize>,
    /// Worker threads that ran the campaign.
    pub workers: usize,
    /// Dedup-cache statistics (`None` when dedup was disabled).
    pub dedup: Option<DedupStats>,
    /// UB-gate statistics (`None` when the filter was disabled).
    pub ub: Option<UbStats>,
}

impl CampaignReport {
    /// Signatures of all unique crashes (for Figure 8's Venn overlap).
    pub fn signatures(&self) -> Vec<u64> {
        self.crashes.iter().map(|c| c.signature).collect()
    }
}

/// State shared by every worker of one campaign: the atomic coverage
/// bitmap, crash dedup, the sample series, the global iteration counter,
/// and the optional mutant-dedup cache.
pub(crate) struct CampaignShared {
    pub(crate) compiler: Compiler,
    pub(crate) config: CampaignConfig,
    pub(crate) coverage: AtomicCoverage,
    pub(crate) crashes: Mutex<(HashSet<u64>, Vec<CrashRecord>)>,
    pub(crate) series: Mutex<Vec<SamplePoint>>,
    pub(crate) next_iter: AtomicUsize,
    dedup: Option<DedupCache>,
    /// The UB gate, shared so parent analyses and verdicts are
    /// computed once per campaign. `None` when the filter is off — the
    /// worker loop is then structurally identical to the unfiltered engine.
    ub_gate: Option<UbGate>,
    /// The telemetry pipeline every worker reports into. Defaults to the
    /// process-global handle; tests inject private instances so sampler
    /// assertions never enable the global one.
    pub(crate) telemetry: Telemetry,
}

impl CampaignShared {
    pub(crate) fn new_with(
        compiler: &Compiler,
        config: &CampaignConfig,
        telemetry: Telemetry,
    ) -> Self {
        CampaignShared {
            compiler: compiler.clone(),
            config: config.clone(),
            coverage: AtomicCoverage::new(),
            crashes: Mutex::new((HashSet::new(), Vec::new())),
            series: Mutex::new(Vec::new()),
            next_iter: AtomicUsize::new(0),
            dedup: config.dedup.then(DedupCache::new),
            ub_gate: config
                .ub_filter
                .then(|| UbGate::with_db(config.query_db.clone().unwrap_or_default())),
            telemetry,
        }
    }

    /// Claims the next iteration to run; `None` once the budget is spent
    /// or the stop flag is raised.
    pub(crate) fn claim_iteration(&self) -> Option<usize> {
        if (self.config.stop.as_ref()).is_some_and(|stop| stop.load(Ordering::Relaxed)) {
            return None;
        }
        let iter = self.next_iter.fetch_add(1, Ordering::Relaxed);
        (iter < self.config.iterations).then_some(iter)
    }

    /// Assembles the final report once all workers have joined. Series and
    /// crash lists are canonicalized by iteration so the outcome does not
    /// depend on worker finishing order; for a single worker every fix-up
    /// below is the identity.
    pub(crate) fn into_report(
        self,
        fuzzer: &str,
        mutants: MutantStats,
        workers: usize,
    ) -> CampaignReport {
        let (_, mut crashes) = self.crashes.into_inner();
        crashes.sort_by_key(|c| c.first_iteration);
        let mut series = self.series.into_inner();
        series.sort_by_key(|s| s.iteration);
        // Samples are snapshots of racy global state: enforce monotonicity
        // and pin the last sample to the final totals, as a serial run
        // observes by construction.
        let mut max_cov = 0;
        let mut max_crashes = 0;
        for p in &mut series {
            max_cov = max_cov.max(p.covered);
            max_crashes = max_crashes.max(p.crashes);
            p.covered = max_cov;
            p.crashes = max_crashes;
        }
        let final_coverage = self.coverage.count();
        if let Some(last) = series.last_mut() {
            last.covered = final_coverage;
            last.crashes = crashes.len();
        }
        let dedup = self.dedup.as_ref().map(|d| DedupStats {
            hits: d.hits(),
            misses: d.misses(),
            unique: d.len(),
        });
        let ub = self.ub_gate.as_ref().map(|g| UbStats {
            checked: g.checked(),
            filtered: g.filtered(),
            fast_path: 0,
            summary_hits: g.summary_hits(),
            summary_recomputes: g.summary_recomputes(),
        });
        CampaignReport {
            fuzzer: fuzzer.to_string(),
            compiler: self.compiler.profile().name().to_string(),
            final_coverage,
            stage_coverage: Stage::ALL
                .iter()
                .map(|s| self.coverage.count_stage(*s))
                .collect(),
            series,
            crashes,
            mutants,
            workers,
            dedup,
            ub,
        }
    }
}

/// One worker's fuzzing loop. Workers pull iteration indices from a shared
/// counter until the budget is exhausted, so a single worker consumes
/// exactly the serial sequence `0..iterations`.
pub(crate) fn run_worker(
    worker: usize,
    generator: &mut dyn TestGenerator,
    shared: &CampaignShared,
    hub: Option<&ExchangeHub>,
    campaign_span: u64,
) -> MutantStats {
    let telemetry = &shared.telemetry;
    let config = &shared.config;
    let mut rng = MutRng::new(config.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9));
    let mut mutants = MutantStats::default();
    let mut local_done = 0usize;

    // Parent explicitly: on the parallel engine this thread is fresh, so
    // the thread-local stack would otherwise make the shard a root.
    let mut shard_span = telemetry.span_fast_under("shard", campaign_span);
    shard_span.attr("worker", worker.to_string());

    while let Some(iter) = shared.claim_iteration() {
        fuzz_iteration(iter, generator, shared, &mut rng, &mut mutants);

        local_done += 1;
        if let Some(hub) = hub {
            if config.exchange_every > 0 && local_done.is_multiple_of(config.exchange_every) {
                hub.publish(worker, generator.drain_new_seeds());
                let adopted = hub.collect(worker);
                if !adopted.is_empty() {
                    telemetry.counter_add("exchange_adopted", adopted.len() as u64);
                    generator.adopt_seeds(adopted);
                }
            }
        }
    }
    mutants
}

/// The body of one fuzzing iteration — generate, compile, gate, account —
/// shared verbatim by the serial loop, the parallel workers, and the
/// daemon's stepped (checkpointable) engine, so all three produce the
/// identical per-iteration state evolution. Returns the new branch count.
pub(crate) fn fuzz_iteration(
    iter: usize,
    generator: &mut dyn TestGenerator,
    shared: &CampaignShared,
    rng: &mut MutRng,
    mutants: &mut MutantStats,
) -> usize {
    let telemetry = &shared.telemetry;
    let config = &shared.config;
    let _iteration_span = telemetry.span_fast("iteration");
    let mut candidate = {
        let _mutate_span = telemetry.span_fast("mutate");
        generator.next_candidate(rng)
    };

    // A candidate with its own command line compiles under it. One content
    // hash per mutant, of that command line and the text, is the dedup key.
    let sampled = (candidate.options.as_ref()).map(|o| shared.compiler.with_options(o.clone()));
    let compiler = sampled.as_ref().unwrap_or(&shared.compiler);
    let mut key = metamut_lang::chash::Sip128::default();
    if let Some(options) = &candidate.options {
        key.write_str(&options.render());
    }
    key.write(candidate.program.as_bytes());
    let mutant_hash = key.finish128();

    // A byte-identical mutant was already compiled, its coverage merged
    // and its crash (if any) registered — the stored verdict is all that
    // is left to account for. `claim` gives this worker exclusive
    // ownership of a first sighting (a concurrent duplicate waits for
    // our published verdict and counts a hit), which keeps the
    // hit/miss/unique/filtered accounting exact under contention.
    let claimed = shared.dedup.as_ref().map(|c| c.claim_hashed(mutant_hash));
    let (compiled, new_bits) = match claimed {
        Some(Claim::Hit(verdict)) => {
            telemetry.counter_add("dedup_hits", 1);
            (verdict.compiled, 0)
        }
        Some(Claim::Owner) | None => {
            if claimed.is_some() {
                telemetry.counter_add("dedup_misses", 1);
            }
            let result = {
                let _compile_span = telemetry.span_fast("compile");
                compiler.compile(&candidate.program)
            };
            let crash = result.outcome.crash().map(|info| (info, info.signature()));
            // One read-only probe: whether the candidate sets a coverage
            // bit nobody has yet. Covered bits and registered signatures
            // only ever grow, so a candidate that adds nothing now can
            // never credit a bit or register a signature later, on this
            // worker or any other, and needs neither a merge nor the gate.
            let adds_bits = shared.coverage.would_add(&result.coverage);
            // UB gate, asked only about a candidate that would change the
            // campaign: one that adds bits or registers a crash signature
            // nobody has yet. Every credited bit and every registered
            // crash (hence every pooled seed and every witness) has
            // therefore passed the gate, for any worker count.
            let judged = shared.ub_gate.as_ref().and_then(|g| {
                let changes_campaign = adds_bits
                    || crash.is_some_and(|(_, sig)| !shared.crashes.lock().0.contains(&sig));
                if !changes_campaign {
                    return None;
                }
                let _ub_span = telemetry.span_fast("ub_filter");
                telemetry.counter_add("ub_checked", 1);
                let seed = candidate.parent.and_then(|i| generator.seed_source(i));
                let seed_ast = candidate.parent_parse.as_deref().map(ParsedProgram::ast);
                let verdict =
                    g.judge_parsed(seed, seed_ast, &candidate.program, result.ast.as_ref());
                if verdict.new_ub {
                    telemetry.counter_add("ub_filtered", 1);
                }
                Some(verdict)
            });
            if judged.is_some_and(|v| v.new_ub) {
                // A mutant with new undefined behavior changes nothing:
                // no coverage, no crash and no verdict. Release the claim
                // so the next occurrence is gated and accounted the same
                // way.
                if let Some(cache) = shared.dedup.as_ref() {
                    cache.abandon_hashed(mutant_hash);
                }
                (false, 0)
            } else {
                if let Some((info, sig)) = crash {
                    let mut crashes = shared.crashes.lock();
                    if crashes.0.insert(sig) {
                        telemetry.counter_add(
                            &metamut_telemetry::labeled("crashes_unique", info.stage.label()),
                            1,
                        );
                        crashes.1.push(CrashRecord {
                            info: info.clone(),
                            signature: sig,
                            first_iteration: iter,
                            witness: candidate.program.clone(),
                            options: compiler.options().clone(),
                        });
                    }
                }
                let new_bits = if adds_bits {
                    shared.coverage.merge(&result.coverage)
                } else {
                    0
                };
                // Publish the verdict only now: a concurrent worker that
                // sees the cache entry may skip merging entirely.
                let verdict = Verdict::of(&result);
                if let Some(cache) = shared.dedup.as_ref() {
                    cache.insert_hashed(mutant_hash, verdict);
                }
                if new_bits > 0 {
                    // The candidate may join the pool: hand over the
                    // front end's work and the gate's finding bit, so
                    // the pool neither parses nor analyzes it again. With
                    // no sema and no crash the front end rejected it, and
                    // it rejects exactly what does not parse; a front-end
                    // crash may still parse.
                    candidate.parse = match (result.ast, result.sema) {
                        (Some(ast), Some(sema)) => {
                            Some(Some(Arc::new(ParsedProgram::from_parts(ast, sema))))
                        }
                        _ => crash.is_none().then_some(None),
                    };
                    candidate.any_finding = judged.map(|v| v.any_finding);
                }
                (verdict.compiled, new_bits)
            }
        }
    };
    mutants.record(compiled);
    telemetry.counter_add("fuzz_execs", 1);
    generator.feedback(&candidate, new_bits > 0, compiled);

    if iter.is_multiple_of(config.sample_every) || iter + 1 == config.iterations {
        let covered = shared.coverage.count();
        let crashes = shared.crashes.lock().1.len();
        shared.series.lock().push(SamplePoint {
            iteration: iter,
            covered,
            crashes,
        });
        if telemetry.enabled() {
            telemetry.gauge_set("fuzz_corpus", generator.pool_len() as f64);
            telemetry.gauge_set("fuzz_coverage", covered as f64);
            if telemetry.series().enabled() {
                telemetry.series().record(&sample_series_point(
                    telemetry,
                    shared,
                    iter,
                    covered,
                    crashes,
                    generator.pool_len(),
                ));
            }
        }
    }
    new_bits
}

/// Builds one observatory time-series sample from the campaign's own
/// shared state (not the metrics registry, so a private [`Telemetry`]
/// instance samples correctly too).
fn sample_series_point(
    telemetry: &Telemetry,
    shared: &CampaignShared,
    iter: usize,
    covered: usize,
    crashes: usize,
    corpus: usize,
) -> SeriesPoint {
    let t_us = telemetry.elapsed_us().max(1);
    // Iterations claimed so far — the closest lock-free proxy for "execs"
    // that stays exact in the serial engine.
    let execs = shared
        .next_iter
        .load(Ordering::Relaxed)
        .min(shared.config.iterations) as u64;
    let rate = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    SeriesPoint {
        t_us,
        iteration: iter as u64,
        execs,
        covered: covered as u64,
        corpus: corpus as u64,
        crashes: crashes as u64,
        execs_per_sec: execs as f64 / (t_us as f64 / 1e6),
        dedup_hit_rate: shared
            .dedup
            .as_ref()
            .map(|d| rate(d.hits(), d.hits() + d.misses()))
            .unwrap_or(0.0),
        ub_filter_rate: shared
            .ub_gate
            .as_ref()
            .map(|g| rate(g.filtered(), g.checked()))
            .unwrap_or(0.0),
    }
}

/// Runs one fuzzing campaign serially (a single inline worker).
pub fn run_campaign(
    generator: &mut dyn TestGenerator,
    compiler: &Compiler,
    config: &CampaignConfig,
) -> CampaignReport {
    run_campaign_with(
        generator,
        compiler,
        config,
        metamut_telemetry::handle().clone(),
    )
}

/// [`run_campaign`] reporting into an explicit telemetry pipeline instead
/// of the process-global handle (tests, embedded observers).
pub fn run_campaign_with(
    generator: &mut dyn TestGenerator,
    compiler: &Compiler,
    config: &CampaignConfig,
    telemetry: Telemetry,
) -> CampaignReport {
    let campaign_span = telemetry.span("campaign");
    let shared = CampaignShared::new_with(compiler, config, telemetry);
    let mutants = run_worker(0, generator, &shared, None, campaign_span.id());
    shared.into_report(generator.name(), mutants, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::seed_corpus;
    use crate::mucfuzz::MuCFuzz;
    use metamut_simcomp::{CompileOptions, Profile};
    use std::sync::Arc;

    #[test]
    fn campaign_produces_monotone_series() {
        let mut f = MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        );
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cfg = CampaignConfig {
            iterations: 60,
            seed: 1,
            sample_every: 10,
            ..Default::default()
        };
        let report = run_campaign(&mut f, &compiler, &cfg);
        assert_eq!(report.mutants.total, 60);
        assert!(report.final_coverage > 0);
        for w in report.series.windows(2) {
            assert!(w[1].covered >= w[0].covered, "coverage dropped");
            assert!(w[1].crashes >= w[0].crashes);
        }
        assert_eq!(report.series.last().unwrap().covered, report.final_coverage);
        assert_eq!(report.workers, 1);
        // Dedup is on by default; hits + misses account for every iteration,
        // and every miss was either UB-filtered or cached as a verdict.
        let dedup = report.dedup.expect("dedup on by default");
        let ub = report.ub.expect("ub filter on by default");
        assert_eq!(dedup.hits + dedup.misses, 60);
        assert_eq!(dedup.unique as u64 + ub.filtered, dedup.misses);
    }

    #[test]
    fn dedup_does_not_change_the_report() {
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let run = |dedup: bool| {
            let mut f = MuCFuzz::new(
                "uCFuzz.s",
                Arc::new(metamut_mutators::supervised_registry()),
                seed_corpus().iter().map(|s| s.to_string()),
            );
            let cfg = CampaignConfig {
                iterations: 80,
                seed: 9,
                sample_every: 16,
                dedup,
                ..Default::default()
            };
            run_campaign(&mut f, &compiler, &cfg)
        };
        let with = run(true);
        let without = run(false);
        assert!(without.dedup.is_none());
        assert_eq!(with.series, without.series);
        assert_eq!(with.crashes, without.crashes);
        assert_eq!(with.mutants, without.mutants);
        assert_eq!(with.final_coverage, without.final_coverage);
        assert_eq!(with.stage_coverage, without.stage_coverage);
        let stats = with.dedup.unwrap();
        assert!(stats.hits > 0, "80 iterations produced no duplicate mutant");
    }

    #[test]
    fn ub_filter_off_reproduces_unfiltered_engine() {
        // `--no-ub-filter` must be a true escape hatch: with the filter
        // off no gate even exists (`CampaignShared.ub_gate` is `None`),
        // so the worker loop is structurally the pre-filter engine; this
        // pins the observable side — the report says nothing about UB and
        // dedup accounting returns to `unique == misses`.
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let mut f = MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        );
        let cfg = CampaignConfig {
            iterations: 80,
            seed: 9,
            sample_every: 16,
            ub_filter: false,
            ..Default::default()
        };
        let report = run_campaign(&mut f, &compiler, &cfg);
        assert!(report.ub.is_none());
        let dedup = report.dedup.unwrap();
        assert_eq!(dedup.unique, dedup.misses as usize);
        assert_eq!(report.mutants.total, 80);
    }

    /// A generator that always emits a division by zero.
    struct UbEmitter;
    impl TestGenerator for UbEmitter {
        fn name(&self) -> &'static str {
            "ub-emitter"
        }
        fn next_candidate(&mut self, _rng: &mut MutRng) -> crate::generator::Candidate {
            crate::generator::Candidate::new("int f(void) { return 1 / 0; }".to_string(), None)
        }
        fn feedback(&mut self, _c: &crate::generator::Candidate, _n: bool, _k: bool) {}
    }

    #[test]
    fn ub_filter_keeps_new_ub_out_of_the_campaign() {
        // Its coverage is new every time (nothing is ever merged), so
        // every iteration is gated and filtered, and the campaign state
        // never changes.
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cfg = CampaignConfig {
            iterations: 20,
            seed: 3,
            sample_every: 5,
            ..Default::default()
        };
        let report = run_campaign(&mut UbEmitter, &compiler, &cfg);
        let ub = report.ub.expect("filter on by default");
        assert_eq!(ub.checked, 20, "every iteration would add coverage");
        assert_eq!(ub.filtered, 20, "every emission introduces UB");
        assert_eq!(report.mutants.total, 20);
        assert_eq!(report.mutants.compilable, 0);
        assert_eq!(report.final_coverage, 0, "nothing was merged");
        assert_eq!(report.dedup.unwrap().unique, 0, "no verdict was cached");

        // Four workers race on the same candidate: each gated owner
        // abandons its claim, so the next one is gated too. (One seed per
        // worker: the engine runs at most one worker per seed.)
        let report = crate::parallel::run_parallel_campaign(
            &vec![String::new(); 4],
            |_w, _shard| UbEmitter,
            &compiler,
            &CampaignConfig {
                iterations: 40,
                workers: 4,
                ..cfg.clone()
            },
        );
        assert_eq!(report.workers, 4);
        let ub = report.ub.unwrap();
        assert!(ub.checked > 0);
        assert_eq!(ub.filtered, ub.checked);
        assert_eq!(report.final_coverage, 0);
        assert!(report.crashes.is_empty());

        // Same generator with the filter off: everything compiles.
        let report = run_campaign(
            &mut UbEmitter,
            &compiler,
            &CampaignConfig {
                ub_filter: false,
                ..cfg
            },
        );
        assert_eq!(report.mutants.compilable, 20);
        assert!(report.final_coverage > 0);
    }

    #[test]
    fn ub_filter_lets_parent_ub_through() {
        // A mutant that merely inherits its parent's UB is not "new" and
        // must reach the compiler like any other mutant.
        struct Inheritor {
            seed: String,
        }
        impl TestGenerator for Inheritor {
            fn name(&self) -> &'static str {
                "inheritor"
            }
            fn next_candidate(&mut self, _rng: &mut MutRng) -> crate::generator::Candidate {
                // The parent's uninit read, plus a harmless edit.
                crate::generator::Candidate::new(
                    self.seed.replace("return x;", "return x + 1;"),
                    Some(0),
                )
            }
            fn feedback(&mut self, _c: &crate::generator::Candidate, _n: bool, _k: bool) {}
            fn seed_source(&self, i: usize) -> Option<&str> {
                (i == 0).then_some(self.seed.as_str())
            }
        }
        let seed = "int f(void) { int x; return x; }\nint main(void) { return f(); }".to_string();
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let report = run_campaign(
            &mut Inheritor { seed },
            &compiler,
            &CampaignConfig {
                iterations: 10,
                seed: 3,
                sample_every: 5,
                ..Default::default()
            },
        );
        let ub = report.ub.unwrap();
        assert_eq!(ub.filtered, 0, "inherited UB is not new UB");
        assert_eq!(report.mutants.compilable, 10);
    }

    #[test]
    fn serial_sampler_records_series_without_changing_the_report() {
        // A private telemetry instance with sampling + tracing on must
        // leave the campaign result bit-for-bit identical to the plain
        // run, while filling the time-series ring and the span tree.
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
        let cfg = CampaignConfig {
            iterations: 60,
            seed: 1,
            sample_every: 10,
            ..Default::default()
        };
        let fuzzer = || {
            MuCFuzz::new(
                "uCFuzz.s",
                Arc::new(metamut_mutators::supervised_registry()),
                seed_corpus().iter().map(|s| s.to_string()),
            )
        };
        let plain = run_campaign(&mut fuzzer(), &compiler, &cfg);

        let telemetry = Telemetry::new();
        telemetry.series().set_enabled(true);
        telemetry.spans().set_recording(true);
        let observed = run_campaign_with(&mut fuzzer(), &compiler, &cfg, telemetry.clone());
        assert_eq!(observed, plain, "observability changed the campaign");

        let points = telemetry.series().points();
        assert!(!points.is_empty(), "sampler recorded nothing");
        for w in points.windows(2) {
            assert!(w[1].iteration > w[0].iteration, "series not monotone");
        }
        for p in &points {
            assert!(p.execs <= cfg.iterations as u64);
            assert!((0.0..=1.0).contains(&p.dedup_hit_rate));
            assert!((0.0..=1.0).contains(&p.ub_filter_rate));
        }
        // The span tree saw the whole hierarchy.
        let done = telemetry.spans().completed();
        let names: std::collections::HashSet<&str> = done.iter().map(|s| s.name).collect();
        for expected in ["campaign", "shard", "iteration", "mutate"] {
            assert!(names.contains(expected), "missing span {expected}");
        }
        let campaign = done.iter().find(|s| s.name == "campaign").unwrap();
        let shard = done.iter().find(|s| s.name == "shard").unwrap();
        assert_eq!(shard.parent, campaign.id);
        assert!(done
            .iter()
            .filter(|s| s.name == "iteration")
            .all(|s| s.parent == shard.id));
    }

    #[test]
    fn crash_dedup_by_signature() {
        // A generator that always emits the same crashing input.
        struct Fixed(String);
        impl TestGenerator for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn next_candidate(&mut self, _rng: &mut MutRng) -> crate::generator::Candidate {
                crate::generator::Candidate::new(self.0.clone(), None)
            }
            fn feedback(&mut self, _c: &crate::generator::Candidate, _n: bool, _k: bool) {}
        }
        let crasher = "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }".to_string();
        let mut g = Fixed(crasher);
        let compiler = Compiler::new(Profile::Clang, CompileOptions::o0());
        let report = run_campaign(
            &mut g,
            &compiler,
            &CampaignConfig {
                iterations: 10,
                seed: 3,
                sample_every: 5,
                ..Default::default()
            },
        );
        assert_eq!(report.crashes.len(), 1);
        assert_eq!(report.crashes[0].info.bug_id, "clang-69213-scalar-brace");
        assert_eq!(report.crashes[0].first_iteration, 0);
        // Every repeat of the same crasher is a dedup hit.
        assert_eq!(report.dedup.unwrap().hits, 9);
    }

    #[test]
    fn a_candidate_compiles_under_its_own_options() {
        // The §5.2 strlen case crashes gcc-sim at -O2 but not at -O0. The
        // generator alternates the two command lines on the same text,
        // under a campaign compiler at -O0.
        struct Alternating(usize);
        impl TestGenerator for Alternating {
            fn name(&self) -> &'static str {
                "alternating"
            }
            fn next_candidate(&mut self, _rng: &mut MutRng) -> crate::generator::Candidate {
                let strlen = "char buffer[32];\n\
                    int test4(void) { return sprintf(buffer, \"%s\", buffer); }\n\
                    int main(void) { memset(buffer, 'A', 32); \
                    if (test4() != 3) abort(); return 0; }";
                let mut c = crate::generator::Candidate::new(strlen.to_string(), None);
                self.0 += 1;
                c.options = Some(if self.0.is_multiple_of(2) {
                    CompileOptions::o0()
                } else {
                    CompileOptions::o2()
                });
                c
            }
            fn feedback(&mut self, _c: &crate::generator::Candidate, _n: bool, _k: bool) {}
        }
        let compiler = Compiler::new(Profile::Gcc, CompileOptions::o0());
        let report = run_campaign(
            &mut Alternating(0),
            &compiler,
            &CampaignConfig {
                iterations: 10,
                seed: 3,
                sample_every: 5,
                ..Default::default()
            },
        );
        assert_eq!(report.crashes.len(), 1);
        assert_eq!(report.crashes[0].info.bug_id, "gcc-strlen-verify-range");
        assert_eq!(report.crashes[0].options, CompileOptions::o2());
        // One compile per command line; every repeat is a dedup hit.
        let dedup = report.dedup.unwrap();
        assert_eq!((dedup.misses, dedup.hits), (2, 8));
    }

    #[test]
    fn compilable_ratio_counts_front_end_acceptance() {
        let stats = MutantStats {
            total: 200,
            compilable: 144,
        };
        assert!((stats.ratio() - 72.0).abs() < 1e-9);
    }
}
