//! # metamut-bench
//!
//! The experiment harness: binaries under `src/bin/` regenerate every table
//! and figure of the paper's evaluation (see DESIGN.md's per-experiment
//! index); `exp_perf` at the repository root measures the hot paths behind
//! them layer by layer. This library holds the shared plumbing: scaled campaign
//! matrices, fixed-width table rendering, ASCII series plots, and JSON
//! report output under `target/experiments/`.

#![warn(missing_docs)]

use metamut_fuzzing::campaign::{CampaignConfig, CampaignReport};
use metamut_fuzzing::{all_fuzzers, corpus, run_campaign};
use metamut_simcomp::{CompileOptions, Compiler, Profile};
use serde::Serialize;
use std::path::PathBuf;

/// Common experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Iteration scale (stands in for the paper's 24-hour budget).
    pub iterations: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Campaign worker threads (`0` = one per CPU; campaigns run through
    /// the serial engine when 1).
    pub workers: usize,
    /// Mutant-dedup cache in front of the compiler (on unless
    /// `--no-dedup`).
    pub dedup: bool,
    /// Telemetry JSONL path, when `--telemetry` (or `METAMUT_TELEMETRY`)
    /// enabled the global pipeline.
    pub telemetry: Option<PathBuf>,
    /// Chrome trace-event JSON output path (`--trace-out`); written at
    /// process exit by [`finish`].
    pub trace_out: Option<PathBuf>,
    /// Sampled time-series JSONL output path (`--timeseries-out`);
    /// written at process exit by [`finish`].
    pub timeseries_out: Option<PathBuf>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            iterations: 1500,
            seed: 20240427, // ASPLOS'24 opening day
            workers: 1,
            dedup: true,
            telemetry: None,
            trace_out: None,
            timeseries_out: None,
        }
    }
}

impl ExpOptions {
    /// Parses `--iterations N`, `--seed N`, `--workers N`, `--no-dedup`,
    /// `--status-every SECS`, `--telemetry PATH`, `--trace-out PATH`, and
    /// `--timeseries-out PATH` from `std::env::args`, enabling the global
    /// telemetry pipeline when any output path is given (or
    /// `METAMUT_TELEMETRY` is set).
    pub fn from_args() -> Self {
        let mut opts = ExpOptions::default();
        let mut telemetry_arg: Option<String> = None;
        let mut status_every: Option<f64> = None;
        let args: Vec<String> = std::env::args().collect();
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
                "--no-dedup" => {
                    opts.dedup = false;
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
            workers: self.workers,
            dedup: self.dedup,
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

/// Writes a JSON report to `target/experiments/<name>.json`.
///
/// # Panics
///
/// Panics when the target directory cannot be created or written — the
/// experiment binaries treat an unwritable workspace as fatal.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
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
    fn json_written() {
        let p = write_json("selftest", &serde_json::json!({"ok": true}));
        assert!(p.exists());
        std::fs::remove_file(p).ok();
    }
}
