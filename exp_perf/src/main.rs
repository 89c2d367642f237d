//! `exp_perf`: the repository benchmark — four workloads, their end-to-end
//! metrics, and a traced per-layer breakdown. See `README.md` beside this
//! package for the metric and workload definitions.
//!
//! ```text
//! cargo run --release --manifest-path exp_perf/Cargo.toml -- \
//!     [--seed N] [--workload NAME]... [--seconds S] [--repeats N] [--trace [0|1]] [--smoke]
//! ```
//!
//! With exactly one `--workload` and no `--repeats`, the workload runs in
//! this process: it prints one `workload metric value unit` line per metric
//! and, as the last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Otherwise the bin re-executes itself once per workload
//! and repeat, interleaved, so each run has a fresh heap and its own peak
//! RSS, and prints the median of every metric (quartiles go to
//! `target/experiments/exp_perf.json`).

mod campaign;
mod probe;
mod query;
mod serve;
mod stats;
mod trace;
mod triage;

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Workload names, in the order an unfiltered run executes them.
const WORKLOADS: [&str; 4] = [
    "mucfuzz_gcc_o2",
    "csmith_clang_o3",
    "triage_reduce",
    "serve_mixed",
];

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations a run attempted, and how many of them failed their output
/// check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }
}

/// What one workload run hands back: its operation tally, the metrics of
/// the JSON result line, and informational lines (outcomes) printed before
/// it.
pub struct RunReport {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<Metric>,
}

/// Settings every workload receives.
#[derive(Debug)]
pub struct Opts {
    pub seed: u64,
    /// Measurement budget: rounds repeat until another would overrun it.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Tiny budgets, one round: a quick check that everything runs.
    pub smoke: bool,
}

impl Opts {
    /// Runs `round` (with its index) at least once, then again while one
    /// more round is expected to finish inside the measurement budget.
    /// Returns this process's peak RSS after the first round: later rounds
    /// repeat the same work, but allocator fragmentation can still raise
    /// the peak a little each time, which would tie the figure to the
    /// round count.
    pub fn rounds(&self, mut round: impl FnMut(usize)) -> f64 {
        let start = std::time::Instant::now();
        let mut first_round_rss_mb = 0.0;
        let mut n = 0;
        loop {
            round(n);
            n += 1;
            if n == 1 {
                first_round_rss_mb = peak_rss_mb();
            }
            let elapsed = start.elapsed().as_secs_f64();
            if self.smoke || elapsed + elapsed / n as f64 > self.seconds {
                return first_round_rss_mb;
            }
        }
    }

    /// The passes of round `n`, `true` meaning traced. Untraced runs make
    /// one untraced pass. Traced runs add a traced pass of the same work,
    /// alternating which goes first so neither always meets the cold heap
    /// of a round's first pass; round 0 starts untraced, so every traced
    /// pass has an untraced reference to repeat.
    pub fn passes(&self, n: usize) -> &'static [bool] {
        match (self.trace, n % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        }
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. Throughput and latency take the best round: rounds repeat the
/// same work, and on a shared host other tenants only ever slow one down,
/// so the best round is the steadiest estimate of the program's own cost.
/// Latency
/// percentiles come from each latency group — one per round, or all rounds
/// pooled when a round holds too few samples for its p99 — and the best
/// group wins. Set-up time is the median of several set-ups.
pub fn end_to_end(
    rates: &[f64],
    latency_groups_ms: &[Vec<f64>],
    peak_rss_mb: f64,
    setups_s: &[f64],
) -> Vec<Metric> {
    let best_latency = |p: f64| {
        latency_groups_ms
            .iter()
            .map(|g| stats::percentile(g, p))
            .fold(f64::INFINITY, f64::min)
    };
    vec![
        Metric::new(
            "ops_per_s",
            rates.iter().copied().fold(0.0, f64::max),
            "1/s",
        ),
        Metric::new("latency_p50_ms", best_latency(0.5), "ms"),
        Metric::new("latency_p99_ms", best_latency(0.99), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("setup_s", stats::median(setups_s), "s"),
    ]
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where reports and traces go: `target/experiments/` of the repository.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/experiments")
}

struct Args {
    seed: u64,
    workloads: Vec<String>,
    repeats: Option<usize>,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: exp_perf [--seed N] [--workload NAME]... [--seconds S] \
                     [--repeats N] [--trace [0|1]] [--smoke]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 7,
        workloads: Vec::new(),
        repeats: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| -> Result<&String, String> {
        args.get(i + 1).ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--seed" => {
                parsed.seed = value(i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--workload" => {
                let name = value(i, flag)?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                parsed.workloads.push(name.clone());
                i += 1;
            }
            "--repeats" => {
                let n: usize = value(i, flag)?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if n == 0 {
                    return Err("--repeats must be positive".into());
                }
                parsed.repeats = Some(n);
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = s;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(parsed)
}

fn run_workload(name: &str, opts: &Opts) -> RunReport {
    match name {
        "mucfuzz_gcc_o2" => campaign::run(campaign::Kind::MuCFuzzGccO2, opts),
        "csmith_clang_o3" => campaign::run(campaign::Kind::CsmithClangO3, opts),
        "triage_reduce" => triage::run(opts),
        "serve_mixed" => serve::run(opts),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

fn result_json(report: &RunReport) -> Value {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                serde_json::json!({"value": (m.value), "unit": (m.unit)}),
            )
        })
        .collect();
    serde_json::json!({
        "correct": (report.tally.failed == 0),
        "attempted": (report.tally.attempted),
        "failed": (report.tally.failed),
        "metrics": (Value::Object(metrics)),
    })
}

/// One workload in this process: metric lines, then the JSON result line.
fn run_single(name: &str, opts: &Opts) {
    let report = run_workload(name, opts);
    for m in report.metrics.iter().chain(&report.notes) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let line = serde_json::to_string(&result_json(&report)).expect("result serializes");
    println!("{line}");
}

/// Runs one child process for `workload` and returns its JSON result line.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// Every workload and repeat as its own process, interleaved; prints the
/// median of each metric and writes all runs with quartiles to
/// `target/experiments/exp_perf.json`.
fn run_all(args: &Args) -> ExitCode {
    let workloads: Vec<String> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        args.workloads.clone()
    };
    let repeats = args.repeats.unwrap_or(if args.smoke { 1 } else { 3 });
    // Smoke also runs the traced pass, so the fidelity checks run too.
    let passes: Vec<bool> = if args.smoke {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut runs: Vec<(String, bool, Value)> = Vec::new();
    let mut ok = true;
    for _ in 0..repeats {
        for w in &workloads {
            for &trace in &passes {
                match run_child(w, args, trace) {
                    Ok(v) => {
                        ok &= v.get("correct").and_then(Value::as_bool) == Some(true);
                        runs.push((w.clone(), trace, v));
                    }
                    Err(e) => {
                        eprintln!("exp_perf: {e}");
                        ok = false;
                    }
                }
            }
        }
    }

    let mut summary = Vec::new();
    for w in &workloads {
        for &trace in &passes {
            let these: Vec<&Value> = runs
                .iter()
                .filter(|(rw, rt, _)| rw == w && *rt == trace)
                .map(|(_, _, v)| v)
                .collect();
            let Some(first) = these.first() else { continue };
            let names: Vec<(String, String)> = first
                .get("metrics")
                .and_then(Value::as_object)
                .map(|m| {
                    m.iter()
                        .map(|(k, v)| {
                            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
                            (k.clone(), unit.to_string())
                        })
                        .collect()
                })
                .unwrap_or_default();
            let mut rows = Vec::new();
            for (name, unit) in names {
                let values: Vec<f64> = these
                    .iter()
                    .filter_map(|v| v.get("metrics")?.get(&name)?.get("value")?.as_f64())
                    .collect();
                let med = stats::median(&values);
                let (q1, q3) = stats::quartiles(&values);
                println!("{w} {name} {med} {unit}");
                rows.push((
                    name,
                    serde_json::json!({"median": med, "q1": q1, "q3": q3, "unit": unit, "values": values}),
                ));
            }
            summary.push(serde_json::json!({
                "workload": (w.as_str()),
                "trace": trace,
                "runs": (these.len()),
                "metrics": (Value::Object(rows)),
            }));
        }
    }

    let report = serde_json::json!({
        "host_cores": (std::thread::available_parallelism().map_or(1, |n| n.get())),
        "seed": (args.seed),
        "seconds": (args.seconds),
        "repeats": repeats,
        "smoke": (args.smoke),
        "correct": ok,
        "summary": (Value::Array(summary)),
    });
    let dir = experiments_dir();
    let path = dir.join("exp_perf.json");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&report).expect("report serializes") + "\n",
        )
    });
    match written {
        Ok(()) => eprintln!("exp_perf: report written to {}", path.display()),
        Err(e) => eprintln!("exp_perf: cannot write {}: {e}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.len() == 1 && args.repeats.is_none() {
        let opts = Opts {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
        };
        run_single(&args.workloads[0], &opts);
        ExitCode::SUCCESS
    } else {
        run_all(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "triage_reduce",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workloads, ["triage_reduce"]);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 12.0, false));
        let a = parse_args(&strings(&["--trace", "--smoke"])).unwrap();
        assert!(a.trace && a.smoke && a.workloads.is_empty());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            tally: Tally {
                attempted: 5,
                failed: 0,
            },
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            notes: vec![Metric::new("outcome.x", 1.0, "count")],
        };
        let v = result_json(&report);
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 1, "notes stay out of the result line");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
    }
}
