//! # metamut-bench
//!
//! The experiment harness: binaries under `src/bin/` regenerate every table
//! and figure of the paper's evaluation (see DESIGN.md's per-experiment
//! index); `exp_perf` at the repository root measures the hot paths behind
//! them layer by layer. This library holds the shared plumbing: one
//! command-line parser ([`ExpOptions`]), scaled campaign matrices,
//! fixed-width table rendering, ASCII series plots, JSON report output
//! under `target/experiments/`, and the gate harness — an interleaved
//! best-of-N timer ([`best_of`]) and the one `BENCH_*.json` writer
//! ([`write_bench`]) that every gated bin reports its [`Check`]s through.

#![warn(missing_docs)]

use metamut_fuzzing::campaign::{CampaignConfig, CampaignReport};
use metamut_fuzzing::{all_fuzzers, corpus, run_campaign};
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Common experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Iteration scale (stands in for the paper's 24-hour budget).
    pub iterations: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for `exp_exchange`'s parallel campaigns (`--workers`;
    /// it runs 4 when this is 0 or 1). No other bin reads it: their
    /// campaigns run on the serial engine.
    pub workers: usize,
    /// Telemetry JSONL path, when `--telemetry` (or `METAMUT_TELEMETRY`)
    /// enabled the global pipeline.
    pub telemetry: Option<PathBuf>,
    /// Chrome trace-event JSON output path (`--trace-out`); written at
    /// process exit by [`finish`].
    pub trace_out: Option<PathBuf>,
    /// Sampled time-series JSONL output path (`--timeseries-out`);
    /// written at process exit by [`finish`].
    pub timeseries_out: Option<PathBuf>,
    /// `--smoke`: a shrunken workload whose report lands under
    /// `target/experiments/` and whose timing checks are skipped.
    pub smoke: bool,
    /// Rounds of the interleaved best-of-N timer (`--repeats`).
    pub repeats: usize,
    /// Mutants per workload row (`--mutants`), for bins that take one.
    pub mutants: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            iterations: 1500,
            seed: 20240427, // ASPLOS'24 opening day
            workers: 1,
            telemetry: None,
            trace_out: None,
            timeseries_out: None,
            smoke: false,
            repeats: 1,
            mutants: 0,
        }
    }
}

impl ExpOptions {
    /// Parses `--iterations N`, `--seed N`, `--workers N`, `--smoke`,
    /// `--repeats N`, `--mutants N`, `--status-every SECS`, `--telemetry
    /// PATH`, `--trace-out PATH`, and `--timeseries-out PATH` from
    /// `std::env::args`, enabling the global telemetry pipeline when
    /// any output path is given (or `METAMUT_TELEMETRY` is set).
    pub fn from_args() -> Self {
        Self::from_args_with(|_| ExpOptions::default())
    }

    /// [`ExpOptions::from_args`] over per-bin defaults: `defaults(smoke)`
    /// supplies every value the command line leaves unset, so a bin
    /// states its full-run and smoke-run scales in one place.
    pub fn from_args_with(defaults: impl FnOnce(bool) -> ExpOptions) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let mut opts = ExpOptions {
            smoke,
            ..defaults(smoke)
        };
        let mut telemetry_arg: Option<String> = None;
        let mut status_every: Option<f64> = None;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--iterations" | "--scale" if i + 1 < args.len() => {
                    opts.iterations = args[i + 1].parse().unwrap_or(opts.iterations);
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    opts.seed = args[i + 1].parse().unwrap_or(opts.seed);
                    i += 1;
                }
                "--workers" | "-w" if i + 1 < args.len() => {
                    opts.workers = args[i + 1].parse().unwrap_or(opts.workers);
                    i += 1;
                }
                "--repeats" if i + 1 < args.len() => {
                    opts.repeats = args[i + 1].parse().unwrap_or(opts.repeats);
                    i += 1;
                }
                "--mutants" if i + 1 < args.len() => {
                    opts.mutants = args[i + 1].parse().unwrap_or(opts.mutants);
                    i += 1;
                }
                "--status-every" if i + 1 < args.len() => {
                    status_every = args[i + 1].parse().ok();
                    i += 1;
                }
                "--telemetry" if i + 1 < args.len() => {
                    telemetry_arg = Some(args[i + 1].clone());
                    i += 1;
                }
                "--trace-out" if i + 1 < args.len() => {
                    opts.trace_out = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                "--timeseries-out" if i + 1 < args.len() => {
                    opts.timeseries_out = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        opts.telemetry = metamut_telemetry::init_from_args(telemetry_arg.as_deref(), status_every);
        metamut_telemetry::init_outputs(
            opts.trace_out.as_ref().and_then(|p| p.to_str()),
            opts.timeseries_out.as_ref().and_then(|p| p.to_str()),
        );
        opts
    }

    /// A campaign configuration seeded from these options.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            iterations: self.iterations,
            seed: self.seed,
            sample_every: (self.iterations / 24).max(1),
            ..Default::default()
        }
    }
}

/// Flushes telemetry sinks and writes any `--trace-out` /
/// `--timeseries-out` files configured by [`ExpOptions::from_args`].
/// Every experiment binary calls this once before exiting.
pub fn finish() {
    metamut_telemetry::global_finalize();
}

/// Runs the full RQ1 matrix: all six fuzzers against both compiler
/// profiles at `-O2` (§5.1's configuration).
pub fn run_matrix(opts: &ExpOptions) -> Vec<CampaignReport> {
    let seeds: Vec<String> = corpus::seed_corpus()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut reports = Vec::new();
    for profile in [Profile::Gcc, Profile::Clang] {
        let compiler = Compiler::new(profile, CompileOptions::o2());
        for (fi, mut fuzzer) in all_fuzzers(&seeds).into_iter().enumerate() {
            let cfg = CampaignConfig {
                seed: opts.seed ^ ((fi as u64 + 1) * 0x0100_0000_01b3),
                ..opts.campaign_config()
            };
            reports.push(run_campaign(fuzzer.as_mut(), &compiler, &cfg));
        }
    }
    reports
}

/// The repository root, where committed `BENCH_*.json` evidence lives.
fn repo_root() -> PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// `target/experiments/`, created on first use: home of every report,
/// smoke-run `BENCH_*_smoke.json` and run artifact.
///
/// # Panics
///
/// Panics when the directory cannot be created — the experiment binaries
/// treat an unwritable workspace as fatal.
pub fn experiments_dir() -> PathBuf {
    let dir = repo_root().join("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes a JSON report to `target/experiments/<name>.json`.
///
/// # Panics
///
/// Panics when the target directory cannot be created or written — the
/// experiment binaries treat an unwritable workspace as fatal.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = experiments_dir();
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(&path, json).expect("write report");
    // When telemetry is live, drop a metrics snapshot next to the report so
    // every experiment run leaves its counters/gauges/histograms behind.
    if let Some(snapshot) = metamut_telemetry::global_snapshot_json() {
        std::fs::write(dir.join(format!("{name}.telemetry.json")), snapshot)
            .expect("write telemetry snapshot");
    }
    path
}

/// Best-of-`repeats` wall time of each leg, in seconds. Every round runs
/// the legs once each in order, so machine-speed drift (thermal, noisy
/// neighbours) hits every leg alike instead of biasing whichever block
/// ran last; the minimum is the least-noisy estimator for a
/// deterministic workload on a shared machine. A leg that needs its
/// result afterwards stores it in a captured variable.
pub fn best_of<const N: usize>(repeats: usize, mut legs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..repeats.max(1) {
        for (leg, best) in legs.iter_mut().zip(best.iter_mut()) {
            let started = Instant::now();
            leg();
            *best = best.min(started.elapsed().as_secs_f64());
        }
    }
    best
}

/// The median of `values` (the upper one for an even count), sorting
/// them in place.
pub fn median<T: Copy + PartialOrd>(values: &mut [T]) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in medians"));
    values[values.len() / 2]
}

/// One enforced gate of a `BENCH_*.json` file: a measured `value`, the
/// `bound` it must meet (rendered as `">= 3"`, `"== 0"`, ...), and the
/// verdict. `passed` is `None` when the check was skipped — timing
/// checks are, in smoke runs, whose workloads are too small to time.
#[derive(Debug, Clone, Serialize)]
pub struct Check {
    /// What is checked, e.g. `speedup_one_decl`.
    name: String,
    /// The measured value.
    value: f64,
    /// The comparison the value must satisfy.
    bound: String,
    /// Whether the value is a wall-time measurement.
    timing: bool,
    /// The verdict; `None` when skipped.
    passed: Option<bool>,
}

impl Check {
    fn new(name: &str, value: f64, op: &str, bound: f64, passed: bool) -> Check {
        Check {
            name: name.to_string(),
            value,
            bound: format!("{op} {bound}"),
            timing: false,
            passed: Some(passed && value.is_finite()),
        }
    }

    /// `value >= bound`.
    pub fn at_least(name: &str, value: f64, bound: f64) -> Check {
        Check::new(name, value, ">=", bound, value >= bound)
    }

    /// `value > bound`.
    pub fn above(name: &str, value: f64, bound: f64) -> Check {
        Check::new(name, value, ">", bound, value > bound)
    }

    /// `value <= bound`.
    pub fn at_most(name: &str, value: f64, bound: f64) -> Check {
        Check::new(name, value, "<=", bound, value <= bound)
    }

    /// `value == bound`, for counts.
    pub fn equals(name: &str, value: f64, bound: f64) -> Check {
        Check::new(name, value, "==", bound, value == bound)
    }

    /// A yes/no property, recorded as `value == 1`.
    pub fn holds(name: &str, ok: bool) -> Check {
        Check::equals(name, if ok { 1.0 } else { 0.0 }, 1.0)
    }

    /// Marks this check as a wall-time measurement, skipped in smoke runs.
    pub fn timing(mut self) -> Check {
        self.timing = true;
        self
    }
}

/// The shared `BENCH_*.json` envelope: `bench`, `host_cores`, `repeats`,
/// `smoke`, `checks`, `passed` (the AND of every check not skipped) and
/// the bin's own payload under `results`. In smoke runs, timing checks
/// are marked skipped first.
fn bench_envelope(
    bench: &str,
    opts: &ExpOptions,
    results: &impl Serialize,
    checks: &mut [Check],
) -> Value {
    for check in checks.iter_mut().filter(|c| opts.smoke && c.timing) {
        check.passed = None;
    }
    let passed = checks.iter().all(|c| c.passed != Some(false));
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    serde_json::json!({
        "bench": bench,
        "host_cores": host_cores,
        "repeats": (opts.repeats),
        "smoke": (opts.smoke),
        "checks": (serde::to_value(&*checks)),
        "passed": passed,
        "results": (serde::to_value(results))
    })
}

/// Writes `BENCH_<bench>.json` at the repository root — or, in smoke
/// runs, `target/experiments/BENCH_<bench>_smoke.json`, so CI never
/// dirties the tree — prints the check table, flushes telemetry
/// ([`finish`]), and then exits non-zero if any check failed. A failed
/// check is still written: the file records the failure.
pub fn write_bench(
    bench: &str,
    opts: &ExpOptions,
    results: &impl Serialize,
    mut checks: Vec<Check>,
) {
    let envelope = bench_envelope(bench, opts, results, &mut checks);
    let path = if opts.smoke {
        experiments_dir().join(format!("BENCH_{bench}_smoke.json"))
    } else {
        repo_root().join(format!("BENCH_{bench}.json"))
    };
    let json = serde_json::to_string_pretty(&envelope).expect("serialize bench report");
    std::fs::write(&path, json + "\n").expect("write bench report");

    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            let verdict = match c.passed {
                Some(true) => "ok",
                Some(false) => "FAILED",
                None => "skipped",
            };
            vec![
                c.name.clone(),
                format!("{:.4}", c.value),
                c.bound.clone(),
                verdict.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["Check", "Value", "Bound", "Verdict"], &rows)
    );
    println!("report written to {}", path.display());
    finish();
    if envelope.get("passed").and_then(|p| p.as_bool()) != Some(true) {
        eprintln!("{bench}: a gate check failed (see the table above)");
        std::process::exit(1);
    }
}

/// Renders a fixed-width table: a header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(c.len());
            line.push_str(&format!(" {c:<w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&"-".repeat(w + 2));
        out.push('|');
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders an ASCII line chart of several (label, series) pairs, where each
/// series is (x, y) points — the terminal stand-in for Figures 7 and 9.
pub fn render_series(title: &str, series: &[(String, Vec<(usize, usize)>)]) -> String {
    let mut out = format!("--- {title} ---\n");
    let y_max = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(_, y)| y))
        .max()
        .unwrap_or(1)
        .max(1);
    const WIDTH: usize = 60;
    for (label, pts) in series {
        let Some(&(_, last)) = pts.last() else {
            continue;
        };
        let bar = (last * WIDTH + y_max / 2) / y_max;
        out.push_str(&format!(
            "{label:>10} |{}{} {last}\n",
            "#".repeat(bar),
            " ".repeat(WIDTH.saturating_sub(bar))
        ));
    }
    out.push_str(&format!("{:>10}  (final values; y-max {y_max})\n", ""));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_aligned() {
        let t = render_table(
            &["Tool", "Crashes"],
            &[
                vec!["uCFuzz.s".into(), "90".into()],
                vec!["Csmith".into(), "0".into()],
            ],
        );
        assert!(t.contains("| Tool     | Crashes |"), "{t}");
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn series_render() {
        let s = render_series(
            "coverage",
            &[
                ("a".into(), vec![(0, 1), (10, 100)]),
                ("b".into(), vec![(0, 1), (10, 50)]),
            ],
        );
        assert!(s.contains("a |"));
        assert!(s.contains("100"));
    }

    #[test]
    fn tiny_matrix_runs() {
        let opts = ExpOptions {
            iterations: 8,
            seed: 1,
            ..Default::default()
        };
        let reports = run_matrix(&opts);
        assert_eq!(reports.len(), 12);
        let names: std::collections::HashSet<&str> =
            reports.iter().map(|r| r.fuzzer.as_str()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn envelope_skips_timing_checks_in_smoke() {
        let checks = || {
            vec![
                Check::at_least("speedup", 1.5, 3.0).timing(),
                Check::equals("mismatches", 0.0, 0.0),
            ]
        };
        let full = ExpOptions::default();
        let env = bench_envelope("t", &full, &serde_json::json!({}), &mut checks());
        assert_eq!(env.get("passed").and_then(|v| v.as_bool()), Some(false));

        let smoke = ExpOptions {
            smoke: true,
            ..Default::default()
        };
        let mut smoke_checks = checks();
        let env = bench_envelope("t", &smoke, &serde_json::json!({}), &mut smoke_checks);
        assert_eq!(smoke_checks[0].passed, None, "timing check skipped");
        assert_eq!(smoke_checks[1].passed, Some(true));
        assert_eq!(env.get("passed").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(env.get("bench").and_then(|v| v.as_str()), Some("t"));

        let mut failing = vec![Check::holds("correct", false)];
        let env = bench_envelope("t", &smoke, &serde_json::json!({}), &mut failing);
        assert_eq!(env.get("passed").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn best_of_times_every_leg() {
        let (mut a, mut b) = (0, 0);
        let [ta, tb] = best_of(3, [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b), (3, 3));
        assert!(ta.is_finite() && tb.is_finite());
    }

    #[test]
    fn json_written() {
        let p = write_json("selftest", &serde_json::json!({"ok": true}));
        assert!(p.exists());
        std::fs::remove_file(p).ok();
    }
}
