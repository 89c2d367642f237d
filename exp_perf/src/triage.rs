//! The `triage_reduce` workload: reduce a fixed corpus of crash witnesses,
//! each with its own oracle on a fresh `QueryDb`, over and over.
//!
//! The corpus is the four `reduce::fixtures::case_studies()` plus every
//! crash witness of a few short gcc-sim -O2 μCFuzz campaigns (the harvest,
//! which is this workload's set-up). The harvest seeds are fixed rather
//! than drawn from `--seed`: per-witness latency percentiles over a dozen
//! or two witnesses move by a fifth from one harvest to the next, more than
//! any useful regression bound. `--seed` orders the witnesses in each pass.
//!
//! Why this workload: the oracle's candidates keep changing the
//! declaration count, so the query layer runs its slotless walk and mostly
//! *writes* memos, where `mucfuzz_gcc_o2` mostly *reads* them.

use crate::probe::Probe;
use crate::query::QueryTally;
use crate::stats::ratio;
use crate::trace::{Layer, Tracer};
use crate::{end_to_end, Metric, Opts, RunReport, Tally};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_fuzzing::mucfuzz::MuCFuzz;
use metamut_fuzzing::{run_campaign, CampaignConfig};
use metamut_muast::MutRng;
use metamut_reduce::fixtures::case_studies;
use metamut_reduce::{reduce, ReduceConfig, ReductionOracle};
use metamut_simcomp::{CompileOptions, Compiler, Profile, QueryDb};
use std::sync::Arc;
use std::time::Instant;

/// One crashing program and the compiler configuration it crashes.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    pub profile: Profile,
    pub options: CompileOptions,
    pub source: String,
}

/// `(harvest campaigns, iterations each, set-ups per run, passes per round)`.
fn budget(smoke: bool) -> (u64, usize, usize, usize) {
    if smoke {
        (1, 300, 1, 1)
    } else {
        (4, 600, 3, 60)
    }
}

/// The witness corpus: the case studies, then each harvest campaign's
/// crash witnesses in discovery order.
pub fn harvest(campaigns: u64, iterations: usize) -> Vec<Witness> {
    let mut witnesses: Vec<Witness> = case_studies()
        .into_iter()
        .map(|c| Witness {
            profile: c.profile,
            options: c.options,
            source: c.source.to_string(),
        })
        .collect();
    let compiler = Compiler::new(Profile::Gcc, CompileOptions::o2());
    for seed in 1..=campaigns {
        let mut fuzzer = MuCFuzz::new(
            "uCFuzz",
            Arc::new(metamut_mutators::full_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        );
        let config = CampaignConfig {
            iterations,
            seed,
            sample_every: iterations,
            ..Default::default()
        };
        let report = run_campaign(&mut fuzzer, &compiler, &config);
        witnesses.extend(report.crashes.into_iter().map(|c| Witness {
            profile: Profile::Gcc,
            options: CompileOptions::o2(),
            source: c.witness,
        }));
    }
    witnesses
}

/// What one reduction produced, for the output checks.
#[derive(Debug, Clone, PartialEq)]
struct Reduced {
    text: String,
    oracle_calls: u64,
}

#[derive(Default)]
struct Counters {
    reductions: u64,
    oracle_calls: u64,
    prefilter_skips: u64,
    ub_rejects: u64,
    query: QueryTally,
}

/// Reduces `w` as one traced root: oracle set-up, then the reduction.
/// Returns the result (`None` when the witness no longer crashes) and the
/// latency in milliseconds.
fn reduce_one(w: &Witness, tracer: &mut Tracer, counters: &mut Counters) -> (Option<Reduced>, f64) {
    let id = tracer.next_root();
    let root = tracer.now();
    let start = Instant::now();
    let db = Arc::new(QueryDb::new());
    let oracle = tracer.time(Layer::ReduceSetup, id, || {
        ReductionOracle::for_witness(w.profile, w.options.clone(), &w.source)
            .map(|o| o.with_query_db(Arc::clone(&db)))
    });
    let result = oracle.as_ref().map(|oracle| {
        tracer.time(Layer::ReduceRun, id, || {
            reduce(oracle, &w.source, &ReduceConfig::default())
        })
    });
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.close(Layer::Other, id, root);

    let (Some(oracle), Some(result)) = (oracle, result) else {
        return (None, latency_ms);
    };
    let c = counters;
    c.reductions += 1;
    c.oracle_calls += oracle.calls();
    c.prefilter_skips += oracle.prefilter_skips();
    c.ub_rejects += oracle.ub_rejects();
    c.query.add(&db);
    // The output check: a cold compile of the reduced witness still
    // crashes with the signature the oracle locked onto.
    let reproduces = Compiler::new(w.profile, w.options.clone())
        .compile(&result.reduced)
        .outcome
        .crash()
        .is_some_and(|c| c.signature() == oracle.target_signature());
    let reduced = Reduced {
        text: result.reduced,
        oracle_calls: result.oracle_calls,
    };
    (reproduces.then_some(reduced), latency_ms)
}

/// Runs `triage_reduce` for `opts.seconds`.
pub fn run(opts: &Opts) -> RunReport {
    let (campaigns, iterations, setups_per_run, passes) = budget(opts.smoke);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut witnesses = Vec::new();
    for i in 0..setups_per_run {
        let start = Instant::now();
        let harvested = harvest(campaigns, iterations);
        setups.push(start.elapsed().as_secs_f64());
        // Repeated set-ups must harvest the same corpus.
        if i > 0 {
            tally.add(1, harvested == witnesses);
        }
        witnesses = harvested;
    }

    // The first reduction of each witness is the reference every later
    // reduction of it must repeat.
    let mut reference: Vec<Option<Reduced>> = vec![None; witnesses.len()];
    let mut rng = MutRng::new(opts.seed);
    let mut order: Vec<usize> = (0..witnesses.len()).collect();
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut walls = [Vec::new(), Vec::new()];
    let mut tracers = [Tracer::new(false, "witness"), Tracer::new(true, "witness")];
    let mut counters = Counters::default();
    let mut fidelity = true;

    let peak_rss_mb = opts.rounds(|round| {
        for &traced in opts.passes(round) {
            let tracer = &mut tracers[usize::from(traced)];
            let mut round_latencies = Vec::new();
            let mut round_ms = 0.0;
            let mut count = 0usize;
            for _ in 0..passes {
                rng.shuffle(&mut order);
                for &i in &order {
                    let (reduced, ms) = reduce_one(&witnesses[i], tracer, &mut counters);
                    let ok = match (reduced, &mut reference[i]) {
                        (Some(r), Some(want)) => r == *want,
                        (Some(r), slot) => {
                            *slot = Some(r);
                            true
                        }
                        (None, _) => false,
                    };
                    // Traced reductions must repeat the untraced ones.
                    fidelity &= ok || !traced;
                    tally.add(1, ok);
                    round_ms += ms;
                    count += 1;
                    round_latencies.push(ms);
                }
            }
            walls[usize::from(traced)].push(round_ms);
            if traced {
                tracer.end_round();
            } else {
                rates.push(count as f64 / (round_ms / 1e3));
                latencies.push(round_latencies);
            }
        }
    });

    let reduced_bytes: usize = reference.iter().flatten().map(|r| r.text.len()).sum();
    let notes = vec![Metric::new(
        "outcome.reduced_bytes",
        reduced_bytes as f64,
        "bytes",
    )];
    if !opts.trace {
        return RunReport {
            tally,
            metrics: end_to_end(&rates, &latencies, peak_rss_mb, &setups),
            notes,
        };
    }

    // Counters cover traced and untraced passes alike.
    let c = &counters;
    let passes_done = ratio(c.reductions as f64, witnesses.len() as f64);
    let mut probe = Probe::default();
    for w in &witnesses {
        probe.run(&Compiler::new(w.profile, w.options.clone()), &w.source);
    }
    let traced = &tracers[1];
    let mut metrics = traced.layer_metrics();
    metrics.extend(notes);
    metrics.extend(probe.metrics());
    metrics.extend(c.query.metrics());
    metrics.extend([
        Metric::new(
            "reduce.oracle_calls",
            ratio(c.oracle_calls as f64, passes_done),
            "count",
        ),
        Metric::new(
            "reduce.prefilter_skip_ratio",
            ratio(
                c.prefilter_skips as f64,
                (c.prefilter_skips + c.oracle_calls) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "reduce.ub_reject_ratio",
            ratio(c.ub_rejects as f64, c.oracle_calls as f64),
            "ratio",
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            crate::stats::overhead_pct(&walls[1], &walls[0]),
            "%",
        ),
        Metric::new(
            "bench.mirror_fidelity",
            f64::from(u8::from(fidelity)),
            "bool",
        ),
    ]);
    traced.finish("triage_reduce");
    RunReport {
        tally,
        metrics: crate::trace::complete(metrics),
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvest_is_deterministic_and_every_witness_crashes() {
        let a = harvest(1, 300);
        assert_eq!(a, harvest(1, 300));
        assert!(a.len() > case_studies().len(), "the harvest found no crash");
        for w in &a {
            let outcome = Compiler::new(w.profile, w.options.clone()).compile(&w.source);
            assert!(outcome.outcome.crash().is_some(), "{}", w.source);
        }
    }

    #[test]
    fn reductions_reproduce_and_repeat() {
        let witnesses = harvest(1, 300);
        let mut tracer = Tracer::new(true, "witness");
        let mut counters = Counters::default();
        for w in &witnesses {
            let (first, _) = reduce_one(w, &mut tracer, &mut counters);
            let first = first.expect("reduced witness reproduces its crash");
            assert!(first.text.len() <= w.source.len());
            let (again, _) = reduce_one(w, &mut Tracer::new(false, "witness"), &mut counters);
            assert_eq!(again, Some(first));
        }
        tracer.end_round();
        let m = tracer.layer_metrics();
        let share = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert!(share("reduce.run.share_pct") > 50.0);
    }
}
