//! Pluggable event sinks: the JSONL event log and the AFL-style periodic
//! status line.

use crate::event::Event;
use crate::metrics::Metrics;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

/// Registry access handed to sinks alongside each event, so status-style
/// sinks can render aggregates without owning the metrics.
pub struct SinkContext<'a> {
    /// The live registry.
    pub metrics: &'a Metrics,
    /// Time since the pipeline was created.
    pub elapsed: Duration,
}

/// Receives every telemetry event. Called under the pipeline's sink lock,
/// in emission order.
pub trait Sink: Send {
    /// Handles one event.
    fn record(&mut self, event: &Event, ctx: &SinkContext<'_>);

    /// Flushes buffered output.
    fn flush(&mut self) {}
}

/// Writes one serde-serialized [`Event`] per line.
pub struct JsonlSink<W: Write + Send = BufWriter<File>> {
    writer: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) the log file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer (tests use an in-memory buffer).
    pub fn from_writer(writer: W) -> Self {
        JsonlSink { writer }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event, _ctx: &SinkContext<'_>) {
        if let Ok(line) = serde_json::to_string(event) {
            let _ = writeln!(self.writer, "{line}");
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Renders an AFL-style one-line campaign status at most once per
/// `interval`:
///
/// ```text
/// [metamut]   12.3s | execs 40960 (3330.1/s) | corpus 57 | cov 1234 | crashes 3 | dedup 18%
/// ```
///
/// The fields read well-known metric names: the `fuzz_execs` counter, the
/// `fuzz_corpus` and `fuzz_coverage` gauges, and the sum of the
/// `crashes_unique` counter family. The `dedup` field is the mutant-dedup
/// cache hit rate (`dedup_hits` over `dedup_hits + dedup_misses`); it is
/// omitted while neither counter has fired (dedup disabled, or no lookups
/// yet). The `ub` field is the UB-gate filter rate (`ub_filtered` over
/// `ub_checked`), likewise omitted until the gate has fired. The gate
/// checks only mutants that would have changed the campaign (new coverage
/// or a new crash signature), so the rate is a share of those.
pub struct StatusSink<W: Write + Send = std::io::Stderr> {
    writer: W,
    interval: Duration,
    last_emit: Option<Duration>,
}

impl StatusSink<std::io::Stderr> {
    /// Status to stderr, at most once per second.
    pub fn stderr() -> Self {
        Self::stderr_every(Duration::from_secs(1))
    }

    /// Status to stderr at a caller-chosen interval (the CLI's
    /// `--status-every <secs>` knob).
    pub fn stderr_every(interval: Duration) -> Self {
        StatusSink::new(std::io::stderr(), interval)
    }
}

impl<W: Write + Send> StatusSink<W> {
    /// Status to an arbitrary writer at the given interval (tests use a
    /// zero interval and an in-memory buffer).
    pub fn new(writer: W, interval: Duration) -> Self {
        StatusSink {
            writer,
            interval,
            last_emit: None,
        }
    }

    fn render(metrics: &Metrics, elapsed: Duration) -> String {
        let execs = metrics.counter_value("fuzz_execs");
        let secs = elapsed.as_secs_f64().max(1e-9);
        let corpus = metrics.gauge_value("fuzz_corpus").unwrap_or(0.0);
        let coverage = metrics.gauge_value("fuzz_coverage").unwrap_or(0.0);
        let crashes = metrics.counter_family_sum("crashes_unique");
        let dedup_hits = metrics.counter_value("dedup_hits");
        let dedup_lookups = dedup_hits + metrics.counter_value("dedup_misses");
        let dedup = if dedup_lookups > 0 {
            format!(
                " | dedup {:.0}%",
                100.0 * dedup_hits as f64 / dedup_lookups as f64
            )
        } else {
            String::new()
        };
        let ub_checked = metrics.counter_value("ub_checked");
        let ub = if ub_checked > 0 {
            format!(
                " | ub {:.0}%",
                100.0 * metrics.counter_value("ub_filtered") as f64 / ub_checked as f64
            )
        } else {
            String::new()
        };
        // Memo hit rate over every query kind (stored values served over
        // all lookups).
        let q_hits = metrics.counter_family_sum("query_hits");
        let q_fetches = q_hits + metrics.counter_family_sum("query_recomputes");
        let q = if q_fetches > 0 {
            format!(" | q {:.0}%", 100.0 * q_hits as f64 / q_fetches as f64)
        } else {
            String::new()
        };
        format!(
            "[metamut] {:>7.1}s | execs {execs} ({:.1}/s) | corpus {corpus:.0} | cov {coverage:.0} | crashes {crashes}{dedup}{ub}{q}",
            elapsed.as_secs_f64(),
            execs as f64 / secs,
        )
    }
}

impl<W: Write + Send> Sink for StatusSink<W> {
    fn record(&mut self, _event: &Event, ctx: &SinkContext<'_>) {
        let due = match self.last_emit {
            None => true,
            Some(last) => ctx.elapsed.saturating_sub(last) >= self.interval,
        };
        if !due {
            return;
        }
        self.last_emit = Some(ctx.elapsed);
        let line = Self::render(ctx.metrics, ctx.elapsed);
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::atomic::Ordering;

    fn dummy_event(seq: u64) -> Event {
        Event {
            seq,
            t_us: seq,
            kind: EventKind::CounterAdd,
            name: "fuzz_execs".into(),
            value: 1.0,
        }
    }

    #[test]
    fn status_line_renders_all_fields() {
        let metrics = Metrics::new();
        metrics
            .counter("fuzz_execs")
            .fetch_add(500, Ordering::Relaxed);
        metrics.gauge_set("fuzz_corpus", 57.0);
        metrics.gauge_set("fuzz_coverage", 1234.0);
        metrics
            .counter("crashes_unique{Opt}")
            .fetch_add(3, Ordering::Relaxed);
        let line = StatusSink::<Vec<u8>>::render(&metrics, Duration::from_secs(2));
        assert!(line.contains("execs 500 (250.0/s)"), "{line}");
        assert!(line.contains("corpus 57"), "{line}");
        assert!(line.contains("cov 1234"), "{line}");
        assert!(line.contains("crashes 3"), "{line}");
        assert!(line.contains("2.0s"), "{line}");
        // No dedup lookups, UB-gate checks, or query fetches yet: all
        // three fields stay off the line.
        assert!(!line.contains("dedup"), "{line}");
        assert!(!line.contains("ub"), "{line}");
        assert!(!line.contains("| q "), "{line}");
    }

    #[test]
    fn status_line_shows_dedup_hit_rate() {
        let metrics = Metrics::new();
        metrics
            .counter("dedup_hits")
            .fetch_add(30, Ordering::Relaxed);
        metrics
            .counter("dedup_misses")
            .fetch_add(70, Ordering::Relaxed);
        let line = StatusSink::<Vec<u8>>::render(&metrics, Duration::from_secs(1));
        assert!(line.contains("dedup 30%"), "{line}");
    }

    #[test]
    fn status_line_shows_ub_filter_rate() {
        let metrics = Metrics::new();
        metrics
            .counter("ub_checked")
            .fetch_add(200, Ordering::Relaxed);
        metrics
            .counter("ub_filtered")
            .fetch_add(14, Ordering::Relaxed);
        let line = StatusSink::<Vec<u8>>::render(&metrics, Duration::from_secs(1));
        assert!(line.contains("ub 7%"), "{line}");
    }

    #[test]
    fn status_line_shows_query_hit_rate() {
        let metrics = Metrics::new();
        metrics
            .counter("query_hits{fn-summary}")
            .fetch_add(60, Ordering::Relaxed);
        metrics
            .counter("query_hits{fn-ub}")
            .fetch_add(20, Ordering::Relaxed);
        metrics
            .counter("query_recomputes{fn-ub}")
            .fetch_add(20, Ordering::Relaxed);
        let line = StatusSink::<Vec<u8>>::render(&metrics, Duration::from_secs(1));
        assert!(line.contains("q 80%"), "{line}");
    }

    #[test]
    fn status_sink_rate_limits() {
        let metrics = Metrics::new();
        let mut sink = StatusSink::new(Vec::new(), Duration::from_secs(3600));
        for i in 0..100 {
            let ctx = SinkContext {
                metrics: &metrics,
                elapsed: Duration::from_millis(i),
            };
            sink.record(&dummy_event(i), &ctx);
        }
        let text = String::from_utf8(sink.writer).unwrap();
        assert_eq!(text.lines().count(), 1, "only the first event emits");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let metrics = Metrics::new();
        let mut sink = JsonlSink::from_writer(Vec::new());
        for i in 0..3 {
            let ctx = SinkContext {
                metrics: &metrics,
                elapsed: Duration::from_millis(i),
            };
            sink.record(&dummy_event(i), &ctx);
        }
        sink.flush();
        let text = String::from_utf8(sink.writer.clone()).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let e: Event = serde_json::from_str(line).unwrap();
            assert_eq!(e.kind, EventKind::CounterAdd);
        }
    }
}
