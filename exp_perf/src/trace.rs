//! Bench-side spans: nanosecond timestamps taken around calls into each
//! layer's public API, kept in memory and written out as a Chrome
//! trace-event file when the run ends.
//!
//! Every span belongs to one root — an iteration, a witness or a short
//! job — and carries the root's id. A root's self time (its duration minus
//! its children's) is reported as the `other` layer, so the layer shares of
//! a workload sum to 100%.

use crate::stats::{percentile, ratio};
use crate::Metric;
use std::collections::HashMap;
use std::time::Instant;

/// The layers a span can time, in report order. `Other` is the root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Mutate,
    Generate,
    Dedup,
    UbGate,
    CompileMemo,
    CompileCold,
    CoverageMerge,
    Feedback,
    ReduceSetup,
    ReduceRun,
    SubmitRpc,
    Wait,
    Other,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Mutate,
        Layer::Generate,
        Layer::Dedup,
        Layer::UbGate,
        Layer::CompileMemo,
        Layer::CompileCold,
        Layer::CoverageMerge,
        Layer::Feedback,
        Layer::ReduceSetup,
        Layer::ReduceRun,
        Layer::SubmitRpc,
        Layer::Wait,
        Layer::Other,
    ];

    /// The metric-name prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mutate => "mutate",
            Layer::Generate => "generate",
            Layer::Dedup => "dedup",
            Layer::UbGate => "ub_gate",
            Layer::CompileMemo => "compile_memo",
            Layer::CompileCold => "compile_cold",
            Layer::CoverageMerge => "coverage_merge",
            Layer::Feedback => "feedback",
            Layer::ReduceSetup => "reduce.setup",
            Layer::ReduceRun => "reduce.run",
            Layer::SubmitRpc => "serve.submit_rpc",
            Layer::Wait => "serve.wait",
            Layer::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The statistics reported for every layer, with their units.
const LAYER_STATS: [(&str, &str); 5] = [
    ("self_s", "s"),
    ("share_pct", "%"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("calls", "count"),
];

/// The per-layer metrics besides the layer statistics, in report order.
/// Together with [`LAYER_STATS`] for every [`Layer`] this is the whole
/// `per_layer` list of `BENCHMARK.json`; a workload reports zero for what
/// it never exercises.
pub const EXTRA: [(&str, &str); 35] = [
    ("mutate.dud_ratio", "ratio"),
    ("dedup.hit_ratio", "ratio"),
    ("ub_gate.filtered_ratio", "ratio"),
    ("ub_gate.fast_path_ratio", "ratio"),
    ("ub_gate.summary_hit_ratio", "ratio"),
    ("query.hit_ratio", "ratio"),
    ("query.memo_hit_ratio", "ratio"),
    ("query.memo_entries", "count"),
    ("query.cross_seed_hits", "count"),
    ("query.retained_text_bytes", "bytes"),
    ("stage.lex_us", "us"),
    ("stage.parse_us", "us"),
    ("stage.sema_us", "us"),
    ("stage.features_us", "us"),
    ("stage.lower_us", "us"),
    ("stage.opt_us", "us"),
    ("stage.codegen_us", "us"),
    ("ir.insts_lowered", "count"),
    ("ir.insts_optimized", "count"),
    ("asm.insts", "count"),
    ("reduce.oracle_calls", "count"),
    ("reduce.prefilter_skip_ratio", "ratio"),
    ("reduce.ub_reject_ratio", "ratio"),
    ("serve.service_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.latency_growth", "ratio"),
    ("serve.jobs_json_bytes", "bytes"),
    ("serve.persisted_mismatch", "count"),
    ("serve.tenant_makespan_s", "s"),
    ("outcome.coverage_branches", "branches"),
    ("outcome.unique_crashes", "signatures"),
    ("outcome.compilable_pct", "%"),
    ("outcome.reduced_bytes", "bytes"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.mirror_fidelity", "bool"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let layers = Layer::ALL.iter().flat_map(|l| {
        LAYER_STATS
            .iter()
            .map(move |(stat, unit)| (format!("{}.{stat}", l.name()), *unit))
    });
    layers
        .chain(EXTRA.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}

/// Orders `found` as the per-layer list and fills in zero for every
/// metric this workload did not produce.
pub fn complete(found: Vec<Metric>) -> Vec<Metric> {
    let mut by_name: HashMap<String, f64> = found.into_iter().map(|m| (m.name, m.value)).collect();
    let out = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = by_name.remove(&name).unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect();
    debug_assert!(
        by_name.is_empty(),
        "unlisted per-layer metrics: {by_name:?}"
    );
    out
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    id: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans exported to the Chrome trace file. Statistics use every span;
/// the file keeps the first ones so it stays a few megabytes.
const EXPORT_CAP: usize = 60_000;

/// The in-memory span recorder of one run. A disabled tracer runs the
/// timed closures and records nothing, so untraced passes share code with
/// traced ones at the cost of a branch.
pub struct Tracer {
    enabled: bool,
    /// Trace-file name of the root spans (`iteration`, `witness`, `job`).
    root: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
    /// Traced rounds, so per-round totals can be reported.
    rounds: usize,
}

impl Tracer {
    pub fn new(enabled: bool, root: &'static str) -> Tracer {
        Tracer {
            enabled,
            root,
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
            rounds: 0,
        }
    }

    /// A fresh root id.
    pub fn next_root(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Nanoseconds since the tracer was created (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn close(&mut self, layer: Layer, id: u32, start_ns: u64) {
        if self.enabled {
            let end = self.now();
            self.spans.push(Span {
                layer,
                id,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
            });
        }
    }

    /// Times `f` as one `layer` span under root `id`.
    pub fn time<T>(&mut self, layer: Layer, id: u32, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let value = f();
        self.close(layer, id, start);
        value
    }

    /// Marks the end of one traced round.
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Per-layer `.self_s` (per round), `.share_pct`, `.p50_us`, `.p99_us`
    /// and `.calls` (per round) for every layer, zero for layers this
    /// workload never entered.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let mut durations: Vec<Vec<f64>> = vec![Vec::new(); Layer::ALL.len()];
        let mut self_ns = vec![0u64; Layer::ALL.len()];
        // Child time per root id, subtracted from the root to get its self
        // time. Roots close after their children, so one pass suffices.
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            let own = if s.layer == Layer::Other {
                s.dur_ns.saturating_sub(child_ns.remove(&s.id).unwrap_or(0))
            } else {
                *child_ns.entry(s.id).or_default() += s.dur_ns;
                s.dur_ns
            };
            durations[s.layer.index()].push(own as f64 / 1e3);
            self_ns[s.layer.index()] += own;
        }
        let total: u64 = self_ns.iter().sum();
        let rounds = self.rounds.max(1) as f64;
        let mut out = Vec::new();
        for layer in Layer::ALL {
            let i = layer.index();
            let d = &durations[i];
            let values = [
                self_ns[i] as f64 / 1e9 / rounds,
                100.0 * ratio(self_ns[i] as f64, total as f64),
                percentile(d, 0.5),
                percentile(d, 0.99),
                d.len() as f64 / rounds,
            ];
            for ((stat, unit), value) in LAYER_STATS.iter().zip(values) {
                out.push(Metric::new(format!("{}.{stat}", layer.name()), value, unit));
            }
        }
        out
    }

    /// Writes the first spans to `target/experiments/exp_perf/<workload>.trace.json`
    /// as Chrome trace events (`chrome://tracing`, Perfetto). Nesting
    /// follows from time containment on one thread; `args.id` groups the
    /// spans of one iteration, witness or job. A write failure is reported
    /// and does not fail the run.
    pub fn finish(&self, workload: &str) {
        use std::fmt::Write as _;
        if !self.enabled {
            return;
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().take(EXPORT_CAP).enumerate() {
            let name = match s.layer {
                Layer::Other => self.root,
                layer => layer.name(),
            };
            let _ = write!(
                out,
                "{}{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id
            );
        }
        out.push_str("\n]}\n");
        let dir = crate::experiments_dir().join("exp_perf");
        let path = dir.join(format!("{workload}.trace.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
            eprintln!("exp_perf: cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .value
    }

    #[test]
    fn root_self_time_excludes_children_and_shares_sum_to_100() {
        let mut t = Tracer::new(true, "iteration");
        for id in 0..3 {
            for (layer, start_ns, dur_ns) in [
                (Layer::Mutate, 0, 300),
                (Layer::UbGate, 300, 500),
                (Layer::Other, 0, 1_000),
            ] {
                t.spans.push(Span {
                    layer,
                    id,
                    start_ns,
                    dur_ns,
                });
            }
        }
        t.end_round();
        let m = t.layer_metrics();
        assert_eq!(value(&m, "mutate.share_pct"), 30.0);
        assert_eq!(value(&m, "ub_gate.share_pct"), 50.0);
        assert_eq!(value(&m, "other.share_pct"), 20.0);
        assert_eq!(value(&m, "other.p50_us"), 0.2);
        assert_eq!(value(&m, "mutate.calls"), 3.0);
        assert_eq!(value(&m, "serve.wait.calls"), 0.0);
        let shares: f64 = m
            .iter()
            .filter(|x| x.name.ends_with(".share_pct"))
            .map(|x| x.value)
            .sum();
        assert!((shares - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "job");
        assert_eq!(t.time(Layer::Wait, 1, || 5), 5);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn complete_fills_every_listed_metric_in_order() {
        let out = complete(vec![Metric::new("dedup.hit_ratio", 0.25, "ratio")]);
        let names = per_layer_names();
        assert_eq!(out.len(), names.len());
        assert_eq!(
            out.len(),
            Layer::ALL.len() * LAYER_STATS.len() + EXTRA.len()
        );
        assert!(out.len() <= 128);
        assert_eq!(value(&out, "dedup.hit_ratio"), 0.25);
        assert_eq!(value(&out, "other.calls"), 0.0);
        let unique: std::collections::HashSet<&String> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len(), "per-layer names repeat");
    }
}
