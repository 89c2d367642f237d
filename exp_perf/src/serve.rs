//! The `serve_mixed` workload: an in-process daemon with two fuzz tenants
//! and one closed-loop client of short jobs.
//!
//! Each round starts a fresh `Daemon` (2 workers, 32-iteration slices, a
//! checkpoint every 4 slices) on its own store directory, submits a gcc-sim
//! -O2 tenant with seed `S` and a clang-sim -O2 tenant with seed `S+1`, and
//! then submits short jobs one at a time, each after the previous one is
//! done. Short jobs alternate between `analyze` of a seed-corpus program and
//! `reduce` of a case study, drawn from `--seed`.
//!
//! Why this workload: it is the only one that uses the scheduler, the
//! protocol and the store. Both tenants share one `QueryDb`, and every
//! submit and completion rewrites the store's job table.

use crate::probe::Probe;
use crate::stats::{median, percentile, ratio};
use crate::trace::{Layer, Tracer};
use crate::{end_to_end, experiments_dir, Metric, Opts, RunReport, Tally};
use metamut_fuzzing::corpus::seed_corpus;
use metamut_muast::MutRng;
use metamut_reduce::fixtures::case_studies;
use metamut_reduce::{reduce, ReduceConfig, ReductionOracle};
use metamut_serve::job::compile_options;
use metamut_serve::{Client, Daemon, DaemonConfig};
use metamut_simcomp::{Compiler, Profile};
use serde::Value;
use serde_json::json;
use std::path::Path;
use std::time::{Duration, Instant};

/// `(iterations per tenant, short jobs per round)`.
fn budget(smoke: bool) -> (usize, usize) {
    if smoke {
        (150, 6)
    } else {
        (6_000, 200)
    }
}

/// A short job: its protocol request and the result it must produce.
struct ShortJob {
    request: Value,
    /// Index into the distinct programs' in-process results.
    program: usize,
}

/// The in-process result of one distinct short-job program.
#[derive(Debug)]
enum Expected {
    Analyze { findings: Value, ub: u64 },
    Reduce { reduced: String },
}

/// A distinct short-job program and how to run it in-process.
enum Program {
    Analyze(String),
    Reduce {
        source: String,
        profile: Profile,
        opt_level: u8,
    },
}

fn profile_name(profile: Profile) -> &'static str {
    match profile {
        Profile::Gcc => "gcc",
        Profile::Clang => "clang",
    }
}

impl Program {
    fn request(&self) -> Value {
        match self {
            Program::Analyze(source) => json!({"cmd": "analyze", "program": (source.as_str())}),
            Program::Reduce {
                source,
                profile,
                opt_level,
            } => json!({
                "cmd": "reduce",
                "program": (source.as_str()),
                "profile": (profile_name(*profile)),
                "opt_level": (*opt_level),
            }),
        }
    }

    /// The result the daemon must report, computed in this process.
    fn expected(&self) -> Option<Expected> {
        match self {
            Program::Analyze(source) => {
                let findings = metamut_analyze::analyze_source(source).ok()?;
                Some(Expected::Analyze {
                    ub: findings.iter().filter(|f| f.is_ub()).count() as u64,
                    findings: serde::to_value(&findings),
                })
            }
            Program::Reduce {
                source,
                profile,
                opt_level,
            } => {
                let oracle =
                    ReductionOracle::for_witness(*profile, compile_options(*opt_level), source)?;
                let result = reduce(&oracle, source, &ReduceConfig::default());
                Some(Expected::Reduce {
                    reduced: result.reduced,
                })
            }
        }
    }

    fn compiler(&self) -> Compiler {
        match self {
            Program::Analyze(_) => Compiler::new(Profile::Gcc, compile_options(2)),
            Program::Reduce {
                profile, opt_level, ..
            } => Compiler::new(*profile, compile_options(*opt_level)),
        }
    }

    fn source(&self) -> &str {
        match self {
            Program::Analyze(source) | Program::Reduce { source, .. } => source,
        }
    }
}

/// The distinct programs — every seed-corpus program, then every case
/// study that crashes under the protocol's plain `-O` options — and the
/// job sequence over them. Even jobs analyze, odd jobs reduce; each kind
/// walks its programs in seeded shuffles, one full shuffle after another,
/// so every seed runs the same mix of jobs and only their order changes.
fn plan(seed: u64, jobs: usize) -> (Vec<Program>, Vec<ShortJob>) {
    let mut programs: Vec<Program> = seed_corpus()
        .iter()
        .map(|s| Program::Analyze(s.to_string()))
        .collect();
    let analyzable = programs.len();
    programs.extend(
        case_studies()
            .into_iter()
            .map(|c| Program::Reduce {
                source: c.source.to_string(),
                profile: c.profile,
                opt_level: c.options.opt_level,
            })
            .filter(|p| p.compiler().compile(p.source()).outcome.crash().is_some()),
    );
    let mut rng = MutRng::new(seed);
    let mut shuffled = |range: std::ops::Range<usize>, count: usize| -> Vec<usize> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let mut round: Vec<usize> = range.clone().collect();
            rng.shuffle(&mut round);
            out.extend(round);
        }
        out.truncate(count);
        out
    };
    let analyze = shuffled(0..analyzable, jobs.div_ceil(2));
    let reduce = shuffled(analyzable..programs.len(), jobs / 2);
    let sequence = (0..jobs)
        .map(|k| {
            let program = if k % 2 == 0 {
                analyze[k / 2]
            } else {
                reduce[k / 2]
            };
            ShortJob {
                request: programs[program].request(),
                program,
            }
        })
        .collect();
    (programs, sequence)
}

/// Whether a finished job record carries the expected result.
fn matches(record: &Value, expected: &Expected) -> bool {
    let result = record.get("result");
    let field = |k: &str| result.and_then(|r| r.get(k));
    match expected {
        Expected::Analyze { findings, ub } => {
            field("findings") == Some(findings) && field("ub").and_then(Value::as_u64) == Some(*ub)
        }
        Expected::Reduce { reduced } => field("reduced").and_then(Value::as_str) == Some(reduced),
    }
}

fn is_done(record: &Value) -> bool {
    record.get("status").and_then(Value::as_str) == Some("done")
}

/// The deterministic part of a finished tenant's campaign report.
#[derive(Debug, Clone, PartialEq)]
struct TenantOutcome {
    coverage: u64,
    crashes: Vec<u64>,
}

/// A tenant's outcome, when it finished its whole budget.
fn tenant_outcome(record: &Value, iterations: usize) -> Option<TenantOutcome> {
    let report = record.get("result")?.get("report")?;
    let total = report.get("mutants")?.get("total")?.as_u64()?;
    if !is_done(record) || total != iterations as u64 {
        return None;
    }
    let coverage = report.get("final_coverage")?.as_u64()?;
    let crashes: Vec<u64> = report
        .get("crashes")?
        .as_array()?
        .iter()
        .filter_map(|c| c.get("signature")?.as_u64())
        .collect();
    Some(TenantOutcome { coverage, crashes })
}

/// Job ids whose persisted status is not `done`, polled for a moment so
/// table writes still in flight can land. The job table is the store's
/// `jobs.json`; a stale table is the race this counts.
fn persisted_mismatch(store: &Path, ids: &[u64]) -> (u64, u64) {
    let path = store.join("jobs.json");
    let deadline = Instant::now() + Duration::from_millis(250);
    loop {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let table: Value = serde_json::from_str(&text).unwrap_or_default();
        let done: Vec<u64> = table
            .as_array()
            .map(|rows| {
                rows.iter()
                    .filter(|r| is_done(r))
                    .filter_map(|r| r.get("id")?.as_u64())
                    .collect()
            })
            .unwrap_or_default();
        let missing = ids.iter().filter(|id| !done.contains(id)).count() as u64;
        if missing == 0 || Instant::now() >= deadline {
            return (missing, text.len() as u64);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// What one daemon run measured.
struct Round {
    setup_s: f64,
    latencies_ms: Vec<f64>,
    makespan_s: f64,
    service_ms: Vec<f64>,
    /// Both tenants' outcomes; `None` when either did not finish.
    tenants: Option<Vec<TenantOutcome>>,
    ok_jobs: usize,
    mismatch: u64,
    jobs_json_bytes: u64,
    query: Option<Value>,
}

fn run_round(
    index: usize,
    opts: &Opts,
    programs: &[Program],
    jobs: &[ShortJob],
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let (iterations, _) = budget(opts.smoke);
    let start_setup = Instant::now();
    let store = experiments_dir()
        .join("exp_perf")
        .join(format!("serve-store-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let daemon = Daemon::start(DaemonConfig {
        store: store.clone(),
        addr: "127.0.0.1:0".to_string(),
        http_addr: None,
        workers: 2,
        slice: 32,
        checkpoint_every: 4,
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    // The reference results, computed in this process: the service time a
    // short job costs without the daemon around it.
    let mut expected = Vec::with_capacity(programs.len());
    let mut service = Vec::with_capacity(programs.len());
    for p in programs {
        let t = Instant::now();
        expected.push(p.expected());
        service.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let setup_s = start_setup.elapsed().as_secs_f64();

    let addr = daemon.local_addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let start = Instant::now();
    let tenant = |seed: u64, profile: &str| json!({"cmd": "fuzz", "iterations": iterations, "seed": seed, "profile": profile, "opt_level": 2});
    let a = client.submit(&tenant(opts.seed, "gcc"))?;
    let b = client.submit(&tenant(opts.seed.wrapping_add(1), "clang"))?;

    let (tenants, makespan_s, latencies_ms, ok_jobs, ids) = std::thread::scope(|s| {
        // A second connection blocks on the tenants so their completion
        // time is seen as it happens; it is idle until then.
        let waiter = s.spawn(|| -> Result<(Value, Value, f64), String> {
            let mut c = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            let ra = c.wait(a)?;
            let rb = c.wait(b)?;
            Ok((ra, rb, start.elapsed().as_secs_f64()))
        });
        let mut latencies = Vec::with_capacity(jobs.len());
        let mut ok = 0usize;
        let mut ids = vec![a, b];
        for job in jobs {
            let id = tracer.next_root();
            let root = tracer.now();
            let t = Instant::now();
            let record = tracer
                .time(Layer::SubmitRpc, id, || client.submit(&job.request))
                .and_then(|job_id| {
                    ids.push(job_id);
                    tracer.time(Layer::Wait, id, || client.wait(job_id))
                });
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.close(Layer::Other, id, root);
            let good = record.is_ok_and(|r| {
                is_done(&r)
                    && expected[job.program]
                        .as_ref()
                        .is_some_and(|want| matches(&r, want))
            });
            ok += usize::from(good);
        }
        let (tenants, makespan) = match waiter.join().expect("tenant waiter panicked") {
            Ok((ra, rb, t)) => (
                tenant_outcome(&ra, iterations)
                    .zip(tenant_outcome(&rb, iterations))
                    .map(|(a, b)| vec![a, b]),
                t,
            ),
            Err(e) => {
                eprintln!("exp_perf: serve tenants: {e}");
                (None, start.elapsed().as_secs_f64())
            }
        };
        (tenants, makespan, latencies, ok, ids)
    });
    let query = client
        .status()
        .ok()
        .and_then(|s| s.get("query_db").cloned());
    let (mismatch, jobs_json_bytes) = persisted_mismatch(&store, &ids);
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&store);

    Ok(Round {
        setup_s,
        latencies_ms,
        makespan_s,
        service_ms: jobs.iter().map(|j| service[j.program]).collect(),
        tenants,
        ok_jobs,
        mismatch,
        jobs_json_bytes,
        query,
    })
}

/// p50 of the last quarter of a round's short jobs over the p50 of the
/// first quarter.
fn latency_growth(latencies: &[f64]) -> f64 {
    let q = (latencies.len() / 4).max(1);
    ratio(
        percentile(&latencies[latencies.len().saturating_sub(q)..], 0.5),
        percentile(&latencies[..q.min(latencies.len())], 0.5),
    )
}

/// Runs `serve_mixed` for `opts.seconds`.
pub fn run(opts: &Opts) -> RunReport {
    let (iterations, jobs_per_round) = budget(opts.smoke);
    let (programs, jobs) = plan(opts.seed, jobs_per_round);
    let mut tally = Tally::default();
    let mut reference_tenants: Option<Vec<TenantOutcome>> = None;
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut tracers = [Tracer::new(false, "job"), Tracer::new(true, "job")];
    let mut index = 0;

    let peak_rss_mb = opts.rounds(|round| {
        for &trace in opts.passes(round) {
            let tracer = &mut tracers[usize::from(trace)];
            index += 1;
            match run_round(index, opts, &programs, &jobs, tracer) {
                Ok(round) => {
                    tally.add(jobs.len() as u64, round.ok_jobs == jobs.len());
                    let tenants_ok = round
                        .tenants
                        .as_ref()
                        .is_some_and(|t| reference_tenants.get_or_insert_with(|| t.clone()) == t);
                    tally.add(2, tenants_ok);
                    if trace {
                        tracer.end_round();
                        traced.push(round);
                    } else {
                        untraced.push(round);
                    }
                }
                Err(e) => {
                    eprintln!("exp_perf: serve round: {e}");
                    tally.add(jobs.len() as u64 + 2, false);
                }
            }
        }
    });

    let tenant_execs = 2.0 * iterations as f64;
    let makespans: Vec<f64> = untraced.iter().map(|r| r.makespan_s).collect();
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.latencies_ms.clone())
        .collect();
    let first = reference_tenants.unwrap_or_default();
    let notes = vec![
        Metric::new(
            "outcome.coverage_branches",
            first.iter().map(|t| t.coverage).sum::<u64>() as f64,
            "branches",
        ),
        Metric::new(
            "outcome.unique_crashes",
            first.iter().map(|t| t.crashes.len()).sum::<usize>() as f64,
            "signatures",
        ),
        Metric::new("serve.tenant_makespan_s", median(&makespans), "s"),
    ];
    if !opts.trace {
        let rates: Vec<f64> = makespans.iter().map(|m| tenant_execs / m).collect();
        let setups: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
        // A round holds too few short jobs for a p99 of its own: the
        // latency percentiles pool every round.
        return RunReport {
            tally,
            metrics: end_to_end(&rates, &[latencies], peak_rss_mb, &setups),
            notes,
        };
    }

    let service: Vec<f64> = untraced.iter().flat_map(|r| r.service_ms.clone()).collect();
    let growth: Vec<f64> = untraced
        .iter()
        .map(|r| latency_growth(&r.latencies_ms))
        .collect();
    let loop_ms = |rounds: &[Round]| -> Vec<f64> {
        rounds.iter().map(|r| r.latencies_ms.iter().sum()).collect()
    };
    let query_field = |key: &str| -> f64 {
        let values: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.query.as_ref()?.get(key)?.as_f64())
            .collect();
        median(&values)
    };
    let (hits, recomputes) = (query_field("hits"), query_field("recomputes"));
    let mut probe = Probe::default();
    for p in &programs {
        probe.run(&p.compiler(), p.source());
    }
    let traced_ok = traced.iter().all(|r| r.ok_jobs == jobs.len());
    let mut metrics = tracers[1].layer_metrics();
    metrics.extend(notes);
    metrics.extend(probe.metrics());
    metrics.extend([
        Metric::new("serve.service_ms", median(&service), "ms"),
        Metric::new(
            "serve.overhead_ms",
            percentile(&latencies, 0.5) - median(&service),
            "ms",
        ),
        Metric::new("serve.latency_growth", median(&growth), "ratio"),
        Metric::new(
            "serve.jobs_json_bytes",
            median(
                &untraced
                    .iter()
                    .map(|r| r.jobs_json_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
        ),
        Metric::new(
            "serve.persisted_mismatch",
            untraced
                .iter()
                .chain(&traced)
                .map(|r| r.mismatch)
                .sum::<u64>() as f64,
            "count",
        ),
        Metric::new("query.memo_entries", query_field("memos"), "count"),
        Metric::new(
            "query.memo_hit_ratio",
            ratio(hits, hits + recomputes),
            "ratio",
        ),
        Metric::new("query.cross_seed_hits", query_field("cross_seed"), "count"),
        Metric::new(
            "bench.trace_overhead_pct",
            crate::stats::overhead_pct(&loop_ms(&traced), &loop_ms(&untraced)),
            "%",
        ),
        Metric::new(
            "bench.mirror_fidelity",
            f64::from(u8::from(traced_ok)),
            "bool",
        ),
    ]);
    tracers[1].finish("serve_mixed");
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
    fn plan_alternates_kinds_and_every_program_has_a_result() {
        let (programs, jobs) = plan(7, 8);
        for (k, job) in jobs.iter().enumerate() {
            let cmd = job.request.get("cmd").and_then(Value::as_str);
            assert_eq!(cmd, Some(if k % 2 == 0 { "analyze" } else { "reduce" }));
        }
        assert!(programs.iter().all(|p| p.expected().is_some()));
        let (_, again) = plan(7, 8);
        let requests = |js: &[ShortJob]| js.iter().map(|j| j.request.clone()).collect::<Vec<_>>();
        assert_eq!(requests(&jobs), requests(&again));
    }

    #[test]
    fn smoke_round_serves_every_job_correctly() {
        let opts = Opts {
            seed: 5,
            seconds: 1.0,
            trace: true,
            smoke: true,
        };
        let report = run(&opts);
        assert_eq!(report.tally.failed, 0, "{:?}", report.tally);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(value("bench.mirror_fidelity"), 1.0);
        assert!(value("serve.submit_rpc.calls") > 0.0);
        let shares: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".share_pct"))
            .map(|m| m.value)
            .sum();
        assert!((shares - 100.0).abs() < 1.0, "shares sum to {shares}");
    }
}
