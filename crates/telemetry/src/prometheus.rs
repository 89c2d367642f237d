//! Prometheus text exposition of a metrics [`Snapshot`] — the `/metrics`
//! payload of the status endpoint.
//!
//! Naming scheme: every metric is prefixed `metamut_`, and the registry's
//! `name{label}` convention (e.g. `crashes_unique{Opt}`,
//! `stage_ms{Parse}`) maps to a Prometheus label pair
//! `metamut_crashes_unique{label="Opt"}`. Characters outside
//! `[a-zA-Z0-9_:]` in metric names are replaced with `_`; histogram
//! buckets are rendered cumulatively with the standard
//! `_bucket{le="…"}`/`_sum`/`_count` triplet plus the implicit
//! `le="+Inf"` bucket. Family members (same base name, different label)
//! share one `# TYPE` header, as the exposition format requires.

use crate::metrics::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Splits the registry's `name{label}` convention into
/// `(sanitized base name, optional label value)`.
fn split_name(raw: &str) -> (String, Option<String>) {
    let (base, label) = match raw.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}').to_string())),
        None => (raw, None),
    };
    let mut name = String::with_capacity(base.len() + 8);
    name.push_str("metamut_");
    for c in base.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            name.push(c);
        } else {
            name.push('_');
        }
    }
    (name, label)
}

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_sample(out: &mut String, name: &str, label: &Option<String>, value: &str) {
    match label {
        Some(l) => {
            let _ = writeln!(out, "{name}{{label=\"{}\"}} {value}", escape_label(l));
        }
        None => {
            let _ = writeln!(out, "{name} {value}");
        }
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, name: &str, label: &Option<String>, h: &HistogramSnapshot) {
    let label_prefix = match label {
        Some(l) => format!("label=\"{}\",", escape_label(l)),
        None => String::new(),
    };
    let mut cumulative = 0u64;
    for (i, count) in h.counts.iter().enumerate() {
        cumulative += count;
        let le = match h.bounds.get(i) {
            Some(b) => fmt_f64(*b),
            None => "+Inf".to_string(),
        };
        let _ = writeln!(
            out,
            "{name}_bucket{{{label_prefix}le=\"{le}\"}} {cumulative}"
        );
    }
    render_sample(out, &format!("{name}_sum"), label, &fmt_f64(h.sum));
    render_sample(out, &format!("{name}_count"), label, &h.count.to_string());
}

/// Renders the snapshot in Prometheus text exposition format.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();

    // Group `name{label}` families so each base name gets one TYPE header.
    let mut counters: BTreeMap<String, Vec<(Option<String>, u64)>> = BTreeMap::new();
    for (raw, value) in &snapshot.counters {
        let (name, label) = split_name(raw);
        counters.entry(name).or_default().push((label, *value));
    }
    for (name, samples) in &counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (label, value) in samples {
            render_sample(&mut out, name, label, &value.to_string());
        }
    }

    let mut gauges: BTreeMap<String, Vec<(Option<String>, f64)>> = BTreeMap::new();
    for (raw, value) in &snapshot.gauges {
        let (name, label) = split_name(raw);
        gauges.entry(name).or_default().push((label, *value));
    }
    for (name, samples) in &gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (label, value) in samples {
            render_sample(&mut out, name, label, &fmt_f64(*value));
        }
    }

    let mut histograms: BTreeMap<String, Vec<(Option<String>, &HistogramSnapshot)>> =
        BTreeMap::new();
    for (raw, h) in &snapshot.histograms {
        let (name, label) = split_name(raw);
        histograms.entry(name).or_default().push((label, h));
    }
    for (name, samples) in &histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (label, h) in samples {
            render_histogram(&mut out, name, label, h);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use std::sync::atomic::Ordering;

    /// A minimal validity check of the exposition text: every non-comment
    /// line is `name{labels} value`, TYPE headers precede their samples,
    /// and histogram buckets are cumulative and end with `+Inf`.
    fn assert_valid_exposition(text: &str) {
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                typed.push(parts.next().expect("metric name").to_string());
                assert!(matches!(
                    parts.next(),
                    Some("counter" | "gauge" | "histogram")
                ));
                continue;
            }
            assert!(!line.trim().is_empty(), "no blank lines expected");
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "invalid metric name {name:?}"
            );
            assert!(
                typed.iter().any(|t| name.starts_with(t.as_str())),
                "sample {name} before its TYPE header"
            );
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value {value:?}"
            );
        }
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let m = Metrics::new();
        m.counter("fuzz_execs").fetch_add(42, Ordering::Relaxed);
        m.counter("crashes_unique{Opt}")
            .fetch_add(2, Ordering::Relaxed);
        m.counter("crashes_unique{Parse}")
            .fetch_add(1, Ordering::Relaxed);
        m.gauge_set("fuzz_coverage", 128.0);
        let h = m.histogram_with_bounds("compile_ms", &[1.0, 5.0]);
        h.observe(0.5);
        h.observe(3.0);
        h.observe(100.0);
        let text = render(&m.snapshot());
        assert_valid_exposition(&text);
        assert!(text.contains("# TYPE metamut_fuzz_execs counter"));
        assert!(text.contains("metamut_fuzz_execs 42"));
        assert!(text.contains("metamut_crashes_unique{label=\"Opt\"} 2"));
        assert!(text.contains("metamut_crashes_unique{label=\"Parse\"} 1"));
        // One TYPE header for the whole family.
        assert_eq!(text.matches("# TYPE metamut_crashes_unique").count(), 1);
        assert!(text.contains("metamut_fuzz_coverage 128.0"));
        // Cumulative buckets with +Inf terminator.
        assert!(text.contains("metamut_compile_ms_bucket{le=\"1.0\"} 1"));
        assert!(text.contains("metamut_compile_ms_bucket{le=\"5.0\"} 2"));
        assert!(text.contains("metamut_compile_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("metamut_compile_ms_count 3"));
    }

    #[test]
    fn renders_labeled_counter_family() {
        // The query store's per-kind hit counters ride the generic
        // `name{label}` convention onto /metrics.
        let m = Metrics::new();
        m.counter("query_hits{fn-summary}")
            .fetch_add(4, Ordering::Relaxed);
        m.counter("query_hits{fn-ub}")
            .fetch_add(2, Ordering::Relaxed);
        let text = render(&m.snapshot());
        assert_valid_exposition(&text);
        assert!(text.contains("# TYPE metamut_query_hits counter"));
        assert!(text.contains("metamut_query_hits{label=\"fn-summary\"} 4"));
        assert!(text.contains("metamut_query_hits{label=\"fn-ub\"} 2"));
    }

    #[test]
    fn sanitizes_hostile_names() {
        let m = Metrics::new();
        m.counter("weird-name.x{l\"v\"}")
            .fetch_add(1, Ordering::Relaxed);
        let text = render(&m.snapshot());
        assert!(text.contains("metamut_weird_name_x{label=\"l\\\"v\\\"\"} 1"));
        assert_valid_exposition(&text);
    }
}
