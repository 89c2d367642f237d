//! Post-campaign reporting: joins the telemetry snapshot, the sampled
//! time-series, and (optionally) the triage output into one markdown
//! document with a wall-time attribution table and a coverage sparkline.
//!
//! Attribution works off the `<span>_ms` histograms the span guards
//! record: the campaign's accounted wall-time is the per-worker `shard`
//! span total plus post-campaign `triage` time, split across the
//! per-iteration stage spans with an explicit `other` remainder row so
//! the percentages always sum to 100 (modulo rounding).

use metamut_reduce::TriageReport;
use metamut_telemetry::{SeriesPoint, Snapshot};

/// One row of the wall-time attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Stage / pass / mutator label.
    pub name: String,
    /// Accounted milliseconds.
    pub ms: f64,
    /// Share of the table's denominator, in percent.
    pub percent: f64,
}

/// The per-iteration stage spans that partition a shard's loop body.
/// (`iteration` wraps them all, so it is excluded to avoid double
/// counting; `triage` runs after the campaign and is added separately.)
const STAGE_SPANS: [&str; 3] = ["mutate", "ub_filter", "compile"];

fn hist_sum(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.histograms.get(name).map(|h| h.sum).unwrap_or(0.0)
}

/// Collects every counter named `family{label}` into `(label, value)`
/// rows in registry (sorted-name) order.
fn labeled_counter_values(snapshot: &Snapshot, family: &str) -> Vec<(String, u64)> {
    let open = format!("{family}{{");
    snapshot
        .counters
        .iter()
        .filter_map(|(name, v)| {
            let label = name.strip_prefix(&open)?.strip_suffix('}')?;
            Some((label.to_string(), *v))
        })
        .collect()
}

/// Sums every histogram named `prefix{...}` and returns `(label, sum)`
/// rows in registry (sorted-name) order.
fn labeled_hist_sums(snapshot: &Snapshot, prefix: &str) -> Vec<(String, f64)> {
    let open = format!("{prefix}{{");
    snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let label = name.strip_prefix(&open)?.strip_suffix('}')?;
            Some((label.to_string(), h.sum))
        })
        .collect()
}

/// The top-level wall-time attribution: one row per pipeline stage plus
/// an `other` remainder, in percent of the campaign's accounted
/// wall-time (worker `shard` span totals plus post-campaign `triage`
/// time). The percentages sum to 100 by construction.
pub fn attribution(snapshot: &Snapshot) -> Vec<AttributionRow> {
    let triage_ms = hist_sum(snapshot, "triage_ms");
    let worker_ms = {
        let shards = hist_sum(snapshot, "shard_ms");
        if shards > 0.0 {
            shards
        } else {
            hist_sum(snapshot, "campaign_ms")
        }
    };
    let stages: Vec<(String, f64)> = STAGE_SPANS
        .iter()
        .map(|s| (s.to_string(), hist_sum(snapshot, &format!("{s}_ms"))))
        .collect();
    let busy: f64 = stages.iter().map(|(_, ms)| ms).sum::<f64>() + triage_ms;
    // The engine's own loop overhead (scheduling, sampling, coverage
    // merging) is whatever the stage spans did not cover. Clock skew can
    // make `busy` marginally exceed the shard total; clamp so the table
    // still sums to 100.
    let total = (worker_ms + triage_ms).max(busy);
    let pct = |ms: f64| if total > 0.0 { 100.0 * ms / total } else { 0.0 };
    let mut rows: Vec<AttributionRow> = stages
        .into_iter()
        .chain([("triage".to_string(), triage_ms)])
        .map(|(name, ms)| AttributionRow {
            percent: pct(ms),
            name,
            ms,
        })
        .collect();
    let other = (total - busy).max(0.0);
    rows.push(AttributionRow {
        name: "other".to_string(),
        ms: other,
        percent: pct(other),
    });
    rows
}

/// Renders `values` as a unicode sparkline (▁▂▃▄▅▆▇█), scaled to the
/// series' own min..max; a flat series renders as all-▁.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (min, max) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    values
        .iter()
        .map(|v| {
            if max <= min {
                BARS[0]
            } else {
                let t = (v - min) / (max - min);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}

fn push_labeled_table(
    out: &mut String,
    heading: &str,
    columns: &str,
    rows: &[(String, f64)],
    extra: impl Fn(&str) -> String,
) {
    if rows.is_empty() {
        return;
    }
    let total: f64 = rows.iter().map(|(_, ms)| ms).sum();
    let mut sorted: Vec<&(String, f64)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out.push_str(heading);
    out.push_str(columns);
    for (label, ms) in sorted {
        let percent = if total > 0.0 { 100.0 * ms / total } else { 0.0 };
        out.push_str(&format!(
            "| {label} | {} | {percent:.1}% |{}\n",
            fmt_ms(*ms),
            extra(label)
        ));
    }
}

/// Assembles the full markdown campaign report.
///
/// `snapshot` drives the attribution tables; `series` (the
/// `timeseries.jsonl` samples) drives the coverage sparkline and the
/// campaign summary line; `triage`, when present, contributes the bug
/// table. Any input may be empty — the report degrades section by
/// section rather than failing.
pub fn campaign_report(
    snapshot: &Snapshot,
    series: &[SeriesPoint],
    triage: Option<&TriageReport>,
) -> String {
    let mut out = String::from("# Campaign report\n\n");

    // ---- Summary line from the last sample ----
    if let Some(last) = series.last() {
        out.push_str(&format!(
            "{} execs, {} branches covered, {} corpus seeds, {} crash(es); \
             {:.0} execs/sec, {:.0}% dedup hits, {:.0}% of campaign-changing mutants \
             UB-filtered.\n\n",
            last.execs,
            last.covered,
            last.corpus,
            last.crashes,
            last.execs_per_sec,
            100.0 * last.dedup_hit_rate,
            100.0 * last.ub_filter_rate,
        ));
    }

    // ---- Coverage sparkline ----
    if !series.is_empty() {
        let covered: Vec<f64> = series.iter().map(|p| p.covered as f64).collect();
        out.push_str(&format!(
            "Coverage over time: `{}` ({} → {} branches, {} samples)\n\n",
            sparkline(&covered),
            series.first().map(|p| p.covered).unwrap_or(0),
            series.last().map(|p| p.covered).unwrap_or(0),
            series.len(),
        ));
    }

    // ---- Wall-time attribution ----
    let rows = attribution(snapshot);
    let accounted: f64 = rows.iter().map(|r| r.ms).sum();
    if accounted > 0.0 {
        out.push_str("## Wall-time attribution\n\n");
        out.push_str("| stage | time | share |\n|---|---|---|\n");
        for r in &rows {
            out.push_str(&format!(
                "| {} | {} | {:.1}% |\n",
                r.name,
                fmt_ms(r.ms),
                r.percent
            ));
        }
        out.push_str(&format!(
            "\nAccounted wall-time: {}.\n\n",
            fmt_ms(accounted)
        ));
    }

    // ---- Per-reduction-pass attribution ----
    push_labeled_table(
        &mut out,
        "## Reduction passes\n\n",
        "| pass | time | share | bytes removed |\n|---|---|---|---|\n",
        &labeled_hist_sums(snapshot, "reduce_pass_ms"),
        |label| {
            let bytes = snapshot
                .counters
                .get(&metamut_telemetry::labeled("reduce_bytes_removed", label))
                .copied()
                .unwrap_or(0);
            format!(" {bytes} |")
        },
    );
    if out.ends_with("|\n") {
        out.push('\n');
    }

    // ---- Per-mutator attribution ----
    push_labeled_table(
        &mut out,
        "## Mutators\n\n",
        "| mutator | time | share | attempts | applied |\n|---|---|---|---|---|\n",
        &labeled_hist_sums(snapshot, "mutator_ms"),
        |label| {
            let get = |family: &str| {
                snapshot
                    .counters
                    .get(&metamut_telemetry::labeled(family, label))
                    .copied()
                    .unwrap_or(0)
            };
            format!(
                " {} | {} |",
                get("mutator_attempts"),
                get("mutator_applied")
            )
        },
    );
    if out.ends_with("|\n") {
        out.push('\n');
    }

    // ---- Query-engine attribution ----
    let hits = labeled_counter_values(snapshot, "query_hits");
    let recomputes = labeled_counter_values(snapshot, "query_recomputes");
    if !hits.is_empty() || !recomputes.is_empty() {
        let mut stages: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for (label, n) in hits {
            stages.entry(label).or_default().0 = n;
        }
        for (label, n) in recomputes {
            stages.entry(label).or_default().1 = n;
        }
        out.push_str(
            "## Query engine

",
        );
        out.push_str(
            "| query | hits | recomputes | hit rate |
|---|---|---|---|
",
        );
        let (mut total_h, mut total_r) = (0u64, 0u64);
        for (label, (h, r)) in &stages {
            total_h += h;
            total_r += r;
            let rate = if h + r > 0 {
                100.0 * *h as f64 / (h + r) as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "| {label} | {h} | {r} | {rate:.1}% |
"
            ));
        }
        let total_rate = if total_h + total_r > 0 {
            100.0 * total_h as f64 / (total_h + total_r) as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "| **total** | {total_h} | {total_r} | {total_rate:.1}% |

"
        ));
    }

    // ---- Histogram latency summary ----
    let with_samples: Vec<(&String, &metamut_telemetry::HistogramSnapshot)> = snapshot
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .collect();
    if !with_samples.is_empty() {
        out.push_str("## Latency percentiles\n\n");
        out.push_str("| histogram | samples | p50 | p90 | p99 |\n|---|---|---|---|---|\n");
        for (name, h) in with_samples {
            out.push_str(&format!(
                "| {name} | {} | {:.3} | {:.3} | {:.3} |\n",
                h.count, h.p50, h.p90, h.p99
            ));
        }
        out.push('\n');
    }

    // ---- Triage ----
    if let Some(t) = triage {
        out.push_str(&format!(
            "## Bugs\n\n{} unique bug(s), {} → {} witness bytes, {} oracle calls.\n\n",
            t.bugs.len(),
            t.total_bytes_before,
            t.total_bytes_after,
            t.total_oracle_calls
        ));
        out.push_str("| bug | stage | kind | bytes | first seen |\n|---|---|---|---|---|\n");
        for b in &t.bugs {
            out.push_str(&format!(
                "| {} | {} | {} | {} → {} | iter {} |\n",
                b.bug_id, b.stage, b.kind, b.original_bytes, b.reduced_bytes, b.first_iteration
            ));
        }
        out.push('\n');
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_telemetry::Telemetry;

    fn synthetic_snapshot() -> Snapshot {
        let t = Telemetry::new();
        t.set_enabled(true);
        // 1000ms of shard time split: 300 mutate, 200 ub_filter,
        // 400 compile → 100 other; plus 500ms triage.
        t.observe_hot("shard_ms", 1000.0);
        t.observe_hot("mutate_ms", 300.0);
        t.observe_hot("ub_filter_ms", 200.0);
        t.observe_hot("compile_ms", 400.0);
        t.observe_hot("triage_ms", 500.0);
        t.observe_hot("reduce_pass_ms{ddmin-decls}", 120.0);
        t.observe_hot("reduce_pass_ms{reprint}", 30.0);
        t.counter_add("reduce_bytes_removed{ddmin-decls}", 400);
        t.observe_hot("mutator_ms{ZeroLiteral}", 12.0);
        t.counter_add("mutator_attempts{ZeroLiteral}", 9);
        t.counter_add("mutator_applied{ZeroLiteral}", 4);
        t.counter_add("query_hits{fn-summary}", 90);
        t.counter_add("query_recomputes{fn-summary}", 10);
        t.counter_add("query_hits{fn-ub}", 75);
        t.counter_add("query_recomputes{fn-ub}", 25);
        t.snapshot()
    }

    #[test]
    fn attribution_percentages_sum_to_one_hundred() {
        let rows = attribution(&synthetic_snapshot());
        let total: f64 = rows.iter().map(|r| r.percent).sum();
        assert!(
            (total - 100.0).abs() < 1.0,
            "percentages sum to {total}, want 100±1"
        );
        let other = rows.iter().find(|r| r.name == "other").unwrap();
        assert!((other.ms - 100.0).abs() < 1e-6, "other = {}", other.ms);
        let mutate = rows.iter().find(|r| r.name == "mutate").unwrap();
        assert!((mutate.percent - 20.0).abs() < 1e-6); // 300 of 1500
    }

    #[test]
    fn attribution_clamps_when_stages_exceed_shard_total() {
        let t = Telemetry::new();
        t.set_enabled(true);
        t.observe_hot("shard_ms", 100.0);
        t.observe_hot("mutate_ms", 80.0);
        t.observe_hot("compile_ms", 40.0); // busy 120 > shard 100
        let rows = attribution(&t.snapshot());
        let total: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1.0, "sum {total}");
        assert_eq!(rows.last().unwrap().ms, 0.0, "no negative remainder");
    }

    #[test]
    fn attribution_of_empty_snapshot_is_all_zero() {
        let rows = attribution(&Snapshot::default());
        assert!(rows.iter().all(|r| r.ms == 0.0));
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[0.0, 7.0]), "▁█");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▁▁▁");
        assert_eq!(sparkline(&[]), "");
        let line = sparkline(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(line.chars().count(), 8);
        assert!(line.starts_with('▁') && line.ends_with('█'));
    }

    #[test]
    fn report_joins_all_sections() {
        let series = vec![
            SeriesPoint {
                t_us: 1,
                iteration: 10,
                execs: 10,
                covered: 40,
                corpus: 5,
                crashes: 0,
                execs_per_sec: 100.0,
                dedup_hit_rate: 0.0,
                ub_filter_rate: 0.0,
            },
            SeriesPoint {
                t_us: 2,
                iteration: 90,
                execs: 90,
                covered: 90,
                corpus: 9,
                crashes: 1,
                execs_per_sec: 120.0,
                dedup_hit_rate: 0.25,
                ub_filter_rate: 0.1,
            },
        ];
        let md = campaign_report(&synthetic_snapshot(), &series, None);
        assert!(md.contains("# Campaign report"));
        assert!(md.contains("Coverage over time"));
        assert!(md.contains("## Wall-time attribution"));
        assert!(md.contains("| mutate |"));
        assert!(md.contains("| other |"));
        assert!(md.contains("## Reduction passes"));
        assert!(md.contains("| ddmin-decls |"));
        assert!(md.contains("400 |"));
        assert!(md.contains("## Mutators"));
        assert!(md.contains("| ZeroLiteral |"));
        assert!(md.contains("## Query engine"));
        assert!(md.contains("| fn-summary | 90 | 10 | 90.0% |"));
        assert!(md.contains("| fn-ub | 75 | 25 | 75.0% |"));
        assert!(md.contains("| **total** | 165 | 35 | 82.5% |"));
        assert!(md.contains("## Latency percentiles"));
        assert!(!md.contains("## Bugs"), "no triage given");
    }

    #[test]
    fn report_degrades_without_inputs() {
        let md = campaign_report(&Snapshot::default(), &[], None);
        assert!(md.contains("# Campaign report"));
        assert!(!md.contains("## Wall-time attribution"));
    }
}
