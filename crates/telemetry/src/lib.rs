//! Structured tracing, metrics, and live campaign status for the whole
//! MetaMut pipeline.
//!
//! Three layers, all cheap enough to leave compiled into release builds:
//!
//! - **Spans** ([`Telemetry::span`]) time hierarchical pipeline phases
//!   (invent → synthesize → validate → fix-loop → fuzz). A span emits a
//!   start event, and on drop an end event plus a `<name>_ms` histogram
//!   observation.
//! - **Metrics** ([`Metrics`]) are a registry of named atomic counters,
//!   gauges, and fixed-bucket histograms (`mutants_generated`,
//!   `llm_tokens{invent}`, `validate_ms`, …). Labels use the
//!   `name{label}` convention; see [`labeled`].
//! - **Sinks** ([`Sink`]) receive every event. [`JsonlSink`] writes one
//!   serde-serialized event per line; [`StatusSink`] renders an AFL-style
//!   periodic status line (execs/sec, corpus size, coverage, unique
//!   crashes, elapsed).
//!
//! The observatory layer builds on those three:
//!
//! - **Span tree** ([`SpanTree`], via [`Telemetry::spans`]): spans carry
//!   parent/child IDs and attributes, exported as Chrome trace-event JSON
//!   (`--trace-out`, loadable in `chrome://tracing`/Perfetto).
//!   [`Telemetry::span_fast`] is the sink-event-free variant for
//!   per-iteration spans.
//! - **Time-series** ([`SeriesRecorder`], via [`Telemetry::series`]): a
//!   lock-free ring of fixed-cadence [`SeriesPoint`] campaign samples,
//!   flushed to `timeseries.jsonl`.
//! - **HTTP status** ([`StatusServer`]): a std-only endpoint serving
//!   `/metrics` (Prometheus text, see [`prometheus`]), `/timeseries`,
//!   and `/spans` from a live campaign.
//!
//! A process-global handle ([`handle`]) starts disabled: every
//! instrumentation call first checks one relaxed atomic load, so the
//! instrumented hot loops pay almost nothing until `--telemetry` (or
//! `METAMUT_TELEMETRY`) turns the pipeline on. [`Telemetry`] is cloneable
//! and thread-safe; tests can build private instances with
//! [`Telemetry::new`].

mod event;
mod http;
mod metrics;
pub mod prometheus;
mod series;
mod sink;
mod span;

pub use event::{Event, EventKind};
pub use http::{fetch, fetch_with, ExtraRoutes, FetchOptions, StatusServer};
pub use metrics::{Histogram, HistogramSnapshot, Metrics, Snapshot, DEFAULT_MS_BOUNDS};
pub use series::{parse_jsonl, SeriesPoint, SeriesRecorder, DEFAULT_SERIES_CAPACITY};
pub use sink::{JsonlSink, Sink, SinkContext, StatusSink};
pub use span::{OpenSpan, SpanRecord, SpanTree, DEFAULT_TRACE_CAPACITY};

use parking_lot::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Environment variable consulted by [`init_from_arg`] when no
/// `--telemetry` flag is given.
pub const ENV_VAR: &str = "METAMUT_TELEMETRY";

/// Environment variable consulted by [`init_from_args`] when no
/// `--status-every` flag is given (seconds between status lines).
pub const STATUS_ENV_VAR: &str = "METAMUT_STATUS_EVERY";

struct Inner {
    enabled: AtomicBool,
    seq: AtomicU64,
    start: Instant,
    metrics: Metrics,
    /// Mirrors `sinks.len()` so the hot path can skip building an
    /// [`Event`] (an allocation plus a lock) when nothing is listening.
    sink_count: AtomicUsize,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
    /// `<name>_ms` histogram handles keyed by the span name's address:
    /// span names are `&'static str` literals, so the pointer identifies
    /// the histogram without formatting a lookup key on every drop.
    span_hist: RwLock<Vec<(usize, Arc<metrics::Histogram>)>>,
    spans: SpanTree,
    series: SeriesRecorder,
    trace_out: Mutex<Option<PathBuf>>,
    series_out: Mutex<Option<PathBuf>>,
}

/// A cloneable, thread-safe telemetry pipeline handle.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh, enabled pipeline (for tests and embedded use).
    pub fn new() -> Self {
        let t = Self::disabled();
        t.set_enabled(true);
        t
    }

    /// A fresh pipeline that drops everything until [`set_enabled`].
    ///
    /// [`set_enabled`]: Telemetry::set_enabled
    pub fn disabled() -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                seq: AtomicU64::new(0),
                start: Instant::now(),
                metrics: Metrics::new(),
                sink_count: AtomicUsize::new(0),
                sinks: Mutex::new(Vec::new()),
                span_hist: RwLock::new(Vec::new()),
                spans: SpanTree::new(),
                series: SeriesRecorder::default(),
                trace_out: Mutex::new(None),
                series_out: Mutex::new(None),
            }),
        }
    }

    /// Whether events are currently recorded. One relaxed atomic load —
    /// this is the hot-path guard.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The hierarchical span tree (off until `set_recording(true)` — the
    /// `--trace-out` / `--status-addr` wiring does this).
    pub fn spans(&self) -> &SpanTree {
        &self.inner.spans
    }

    /// The campaign time-series ring (off until `set_enabled(true)`).
    pub fn series(&self) -> &SeriesRecorder {
        &self.inner.series
    }

    /// Microseconds since this pipeline was created.
    pub fn elapsed_us(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    /// Microseconds since this pipeline was created.
    fn now_us(&self) -> u64 {
        self.elapsed_us()
    }

    /// Attaches a sink; it receives every subsequent event.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        let mut sinks = self.inner.sinks.lock();
        sinks.push(sink);
        self.inner.sink_count.store(sinks.len(), Ordering::Release);
    }

    /// Attaches a [`JsonlSink`] writing to `path`.
    pub fn add_jsonl_sink(&self, path: &Path) -> std::io::Result<()> {
        self.add_sink(Box::new(JsonlSink::create(path)?));
        Ok(())
    }

    /// Flushes all attached sinks.
    pub fn flush(&self) {
        for sink in self.inner.sinks.lock().iter_mut() {
            sink.flush();
        }
    }

    fn emit(&self, kind: EventKind, name: &str, value: f64) {
        if !self.enabled() || self.inner.sink_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let event = Event {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            t_us: self.now_us(),
            kind,
            name: name.to_string(),
            value,
        };
        let ctx = SinkContext {
            metrics: &self.inner.metrics,
            elapsed: self.inner.start.elapsed(),
        };
        for sink in self.inner.sinks.lock().iter_mut() {
            sink.record(&event, &ctx);
        }
    }

    /// Increments the named counter, emitting a `CounterAdd` event.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.enabled() {
            return;
        }
        self.inner
            .metrics
            .counter(name)
            .fetch_add(delta, Ordering::Relaxed);
        self.emit(EventKind::CounterAdd, name, delta as f64);
    }

    /// Sets the named gauge, emitting a `GaugeSet` event.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        self.inner.metrics.gauge_set(name, value);
        self.emit(EventKind::GaugeSet, name, value);
    }

    /// Records `value` into the named histogram (default millisecond
    /// buckets), emitting a `HistObserve` event.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        self.inner.metrics.histogram(name).observe(value);
        self.emit(EventKind::HistObserve, name, value);
    }

    /// Like [`Telemetry::observe`] but without the per-sample sink event —
    /// the metrics-only variant for per-iteration hot paths, where pushing
    /// an event line through the sinks would dominate the measured work.
    pub fn observe_hot(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        self.inner.metrics.histogram(name).observe(value);
    }

    /// Opens a timed span; the returned guard ends it on drop, recording
    /// the elapsed time into the `<name>_ms` histogram, closing its node
    /// in the span tree (when recording), and emitting start/end events.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_impl(name, true, None)
    }

    /// Like [`Telemetry::span`] but without start/end sink events — the
    /// hot-path variant for per-iteration spans (`mutate`, `compile_*`,
    /// …). Histogram and span-tree recording are unchanged.
    pub fn span_fast(&self, name: &'static str) -> SpanGuard {
        self.span_impl(name, false, None)
    }

    /// Like [`Telemetry::span_fast`] with an explicit span-tree parent ID
    /// (from [`SpanGuard::id`]) instead of the thread-local innermost
    /// span. This is how a span opened on one thread (a campaign)
    /// parents spans opened on others (per-worker shards); a `parent` of
    /// `0` makes the span a root, exactly like a fresh thread would.
    pub fn span_fast_under(&self, name: &'static str, parent: u64) -> SpanGuard {
        self.span_impl(name, false, Some(parent))
    }

    fn span_impl(&self, name: &'static str, emit_events: bool, parent: Option<u64>) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard {
                telemetry: None,
                name,
                start: Instant::now(),
                id: 0,
                parent: 0,
                start_us: 0,
                light: false,
                emit_events: false,
                attrs: Vec::new(),
            };
        }
        if emit_events {
            self.emit(EventKind::SpanStart, name, 0.0);
        }
        let (id, parent_id, light, start_us) = if self.inner.spans.recording() {
            let start_us = self.now_us();
            match parent {
                Some(p) => {
                    let (id, p) = self.inner.spans.open_under(name, start_us, p);
                    (id, p, false, start_us)
                }
                // Eventful spans are the coarse pipeline phases; keep them
                // in the open table so `/spans` shows them live. Fast
                // spans are per-iteration leaves: stack-parented only,
                // straight to the completed buffer on drop.
                None if emit_events => {
                    let (id, p) = self.inner.spans.open(name, start_us);
                    (id, p, false, start_us)
                }
                None => {
                    let (id, p) = self.inner.spans.open_light(None);
                    (id, p, true, start_us)
                }
            }
        } else {
            (0, 0, false, 0)
        };
        SpanGuard {
            telemetry: Some(self.clone()),
            name,
            start: Instant::now(),
            id,
            parent: parent_id,
            start_us,
            light,
            emit_events,
            attrs: Vec::new(),
        }
    }

    /// Configures the Chrome trace output path ([`Telemetry::finalize`]
    /// writes it) and turns span-tree recording on.
    pub fn set_trace_out(&self, path: &Path) {
        *self.inner.trace_out.lock() = Some(path.to_path_buf());
        self.inner.spans.set_recording(true);
    }

    /// Configures the time-series JSONL output path
    /// ([`Telemetry::finalize`] writes it) and turns sampling on.
    pub fn set_timeseries_out(&self, path: &Path) {
        *self.inner.series_out.lock() = Some(path.to_path_buf());
        self.inner.series.set_enabled(true);
    }

    /// Flushes sinks and writes any configured trace/time-series outputs.
    /// Call once at process exit; write failures go to stderr rather than
    /// aborting what is usually a successful campaign.
    pub fn finalize(&self) {
        self.flush();
        if let Some(path) = self.inner.trace_out.lock().clone() {
            if let Err(e) = std::fs::write(&path, self.inner.spans.chrome_trace_json()) {
                eprintln!("telemetry: cannot write {}: {e}", path.display());
            }
        }
        if let Some(path) = self.inner.series_out.lock().clone() {
            if let Err(e) = std::fs::write(&path, self.inner.series.to_jsonl()) {
                eprintln!("telemetry: cannot write {}: {e}", path.display());
            }
        }
    }

    /// Records into the `<name>_ms` histogram through the pointer-keyed
    /// cache (see [`Inner::span_hist`]); first use of a name formats the
    /// key and registers the handle.
    fn observe_span_ms(&self, name: &'static str, ms: f64) {
        let key = name.as_ptr() as usize;
        for (k, h) in self.inner.span_hist.read().iter() {
            if *k == key {
                h.observe(ms);
                return;
            }
        }
        let h = self.inner.metrics.histogram(&format!("{name}_ms"));
        h.observe(ms);
        self.inner.span_hist.write().push((key, h));
    }

    /// A point-in-time export of every counter, gauge, and histogram.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.metrics.snapshot()
    }
}

/// Ends its span on drop (see [`Telemetry::span`]).
#[must_use = "dropping the guard immediately ends the span"]
pub struct SpanGuard {
    telemetry: Option<Telemetry>,
    name: &'static str,
    start: Instant,
    /// Span-tree node ID; 0 when the tree was not recording at open.
    id: u64,
    /// Parent span ID resolved at open (only meaningful when `id != 0`).
    parent: u64,
    /// Open time on the pipeline clock (only meaningful when `id != 0`).
    start_us: u64,
    /// Light spans bypassed the open table; close via `close_light`.
    light: bool,
    emit_events: bool,
    attrs: Vec<(String, String)>,
}

impl SpanGuard {
    /// Attaches a `key=value` attribute, shown in the Chrome trace's
    /// `args`. No-op when the span is not in the tree.
    pub fn attr(&mut self, key: &str, value: impl Into<String>) {
        if self.id != 0 {
            self.attrs.push((key.to_string(), value.into()));
        }
    }

    /// This span's node ID in the tree — `0` when the tree was not
    /// recording at open. Hand it to [`Telemetry::span_fast_under`] to
    /// parent spans opened on other threads under this one.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t) = self.telemetry.take() {
            // Close on the pipeline clock (not this guard's Instant) so
            // parent/child intervals nest exactly in the trace.
            let ms = if self.id != 0 && self.light {
                let end_us = t.now_us();
                t.inner.spans.close_light(
                    self.id,
                    self.parent,
                    self.name,
                    self.start_us,
                    end_us,
                    std::mem::take(&mut self.attrs),
                );
                end_us.saturating_sub(self.start_us) as f64 / 1e3
            } else {
                if self.id != 0 {
                    t.inner
                        .spans
                        .close(self.id, t.now_us(), std::mem::take(&mut self.attrs));
                }
                self.start.elapsed().as_secs_f64() * 1e3
            };
            t.observe_span_ms(self.name, ms);
            if self.emit_events {
                t.emit(EventKind::SpanEnd, self.name, ms);
            }
        }
    }
}

/// Renders the `name{label}` metric-naming convention.
pub fn labeled(name: &str, label: &str) -> String {
    format!("{name}{{{label}}}")
}

// ---- Process-global handle ----

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-global pipeline. Disabled until [`init_from_arg`] (or an
/// explicit `set_enabled`) turns it on.
pub fn handle() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::disabled)
}

/// Wires the global pipeline from a `--telemetry <path>` argument,
/// falling back to the `METAMUT_TELEMETRY` environment variable. On
/// success the global handle is enabled with a JSONL sink at the path
/// and a once-per-second status line on stderr; returns the path.
pub fn init_from_arg(arg: Option<&str>) -> Option<PathBuf> {
    init_from_args(arg, None)
}

/// Like [`init_from_arg`], with a `--status-every <secs>` override for
/// the stderr status-line interval. `status_every` falls back to the
/// `METAMUT_STATUS_EVERY` environment variable, then to one second; a
/// value of `0` suppresses the status sink entirely (the JSONL sink is
/// unaffected).
pub fn init_from_args(arg: Option<&str>, status_every: Option<f64>) -> Option<PathBuf> {
    let path = arg.map(PathBuf::from).or_else(|| {
        std::env::var(ENV_VAR)
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })?;
    let status_secs = status_every
        .or_else(|| {
            std::env::var(STATUS_ENV_VAR)
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1.0);
    let t = handle();
    match t.add_jsonl_sink(&path) {
        Ok(()) => {
            if status_secs > 0.0 {
                t.add_sink(Box::new(StatusSink::stderr_every(
                    std::time::Duration::from_secs_f64(status_secs),
                )));
            }
            t.set_enabled(true);
            Some(path)
        }
        Err(e) => {
            eprintln!("telemetry: cannot open {}: {e}", path.display());
            None
        }
    }
}

/// Wires `--trace-out` / `--timeseries-out` paths on the global handle,
/// enabling it (with no extra sink) when either is given, so trace and
/// time-series capture work with or without `--telemetry`.
pub fn init_outputs(trace_out: Option<&str>, timeseries_out: Option<&str>) {
    let t = handle();
    if let Some(path) = trace_out {
        t.set_trace_out(Path::new(path));
        t.set_enabled(true);
    }
    if let Some(path) = timeseries_out {
        t.set_timeseries_out(Path::new(path));
        t.set_enabled(true);
    }
}

/// Finalizes the global handle when enabled: flushes sinks and writes any
/// configured trace/time-series outputs. Call once at process exit.
pub fn global_finalize() {
    let t = handle();
    if t.enabled() {
        t.finalize();
    }
}

/// Serializes the global snapshot as pretty JSON (for writing next to
/// experiment reports). `None` when telemetry is disabled.
pub fn global_snapshot_json() -> Option<String> {
    let t = handle();
    if !t.enabled() {
        return None;
    }
    t.flush();
    serde_json::to_string_pretty(&t.snapshot()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "metamut-telemetry-{tag}-{}.jsonl",
            std::process::id()
        ));
        p
    }

    #[test]
    fn disabled_pipeline_records_nothing() {
        let t = Telemetry::disabled();
        t.counter_add("mutants_generated", 3);
        t.gauge_set("fuzz_corpus", 7.0);
        t.observe("validate_ms", 1.0);
        drop(t.span("invent"));
        let snap = t.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_gauges_and_spans_land_in_snapshot() {
        let t = Telemetry::new();
        t.counter_add("mutants_generated", 2);
        t.counter_add("mutants_generated", 3);
        t.gauge_set("fuzz_corpus", 11.0);
        {
            let _span = t.span("validate");
        }
        let snap = t.snapshot();
        assert_eq!(snap.counters.get("mutants_generated"), Some(&5));
        assert_eq!(snap.gauges.get("fuzz_corpus"), Some(&11.0));
        let hist = snap.histograms.get("validate_ms").expect("span histogram");
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let t = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        t.counter_add("fuzz_execs", 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counters.get("fuzz_execs"), Some(&8000));
    }

    #[test]
    fn jsonl_sink_round_trips_events_in_order() {
        let path = temp_path("roundtrip");
        let t = Telemetry::new();
        t.add_jsonl_sink(&path).unwrap();
        {
            let _span = t.span("invent");
            t.counter_add("llm_tokens{invent}", 420);
        }
        t.gauge_set("fuzz_coverage", 99.0);
        t.observe("validate_ms", 0.25);
        t.flush();

        let mut text = String::new();
        std::fs::File::open(&path)
            .unwrap()
            .read_to_string(&mut text)
            .unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|line| serde_json::from_str(line).expect("every line parses"))
            .collect();
        std::fs::remove_file(&path).ok();

        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SpanStart,
                EventKind::CounterAdd,
                EventKind::SpanEnd,
                EventKind::GaugeSet,
                EventKind::HistObserve,
            ]
        );
        assert_eq!(events[1].name, "llm_tokens{invent}");
        assert_eq!(events[1].value, 420.0);
        assert_eq!(events[2].name, "invent");
        // Sequence numbers are consecutive from zero and timestamps are
        // monotone.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        for pair in events.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us);
        }
    }

    #[test]
    fn span_fast_skips_events_but_feeds_histogram_and_tree() {
        let path = temp_path("spanfast");
        let t = Telemetry::new();
        t.spans().set_recording(true);
        t.add_jsonl_sink(&path).unwrap();
        {
            let _outer = t.span("campaign");
            let mut inner = t.span_fast("mutate");
            inner.attr("mutator", "SwapOperands");
        }
        t.flush();

        let mut text = String::new();
        std::fs::File::open(&path)
            .unwrap()
            .read_to_string(&mut text)
            .unwrap();
        std::fs::remove_file(&path).ok();
        let events: Vec<Event> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        // Only the emitting span produced events.
        assert!(events.iter().all(|e| e.name != "mutate"));
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![EventKind::SpanStart, EventKind::SpanEnd]
        );

        let snap = t.snapshot();
        assert_eq!(snap.histograms["mutate_ms"].count, 1);
        let done = t.spans().completed();
        assert_eq!(done.len(), 2);
        let mutate = done.iter().find(|s| s.name == "mutate").unwrap();
        let campaign = done.iter().find(|s| s.name == "campaign").unwrap();
        assert_eq!(mutate.parent, campaign.id);
        assert_eq!(
            mutate.attrs,
            vec![("mutator".to_string(), "SwapOperands".to_string())]
        );
    }

    #[test]
    fn finalize_writes_trace_and_timeseries() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("metamut-trace-{}.json", std::process::id()));
        let series = dir.join(format!("metamut-series-{}.jsonl", std::process::id()));
        let t = Telemetry::new();
        t.set_trace_out(&trace);
        t.set_timeseries_out(&series);
        drop(t.span_fast("campaign"));
        t.series().record(&SeriesPoint {
            t_us: 5,
            iteration: 1,
            execs: 1,
            covered: 2,
            corpus: 3,
            crashes: 0,
            execs_per_sec: 1.0,
            dedup_hit_rate: 0.0,
            ub_filter_rate: 0.0,
        });
        t.finalize();

        let trace_text = std::fs::read_to_string(&trace).unwrap();
        std::fs::remove_file(&trace).ok();
        let doc: serde_json::Value = serde_json::from_str(&trace_text).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|v| v.as_array())
                .map(Vec::len),
            Some(1)
        );
        let series_text = std::fs::read_to_string(&series).unwrap();
        std::fs::remove_file(&series).ok();
        assert_eq!(parse_jsonl(&series_text).len(), 1);
    }

    #[test]
    fn labeled_renders_convention() {
        assert_eq!(labeled("llm_tokens", "invent"), "llm_tokens{invent}");
        assert_eq!(labeled("crashes_unique", "Opt"), "crashes_unique{Opt}");
    }

    #[test]
    fn global_handle_starts_disabled() {
        // Other tests must not enable the global handle; this pins the
        // default.
        assert!(!handle().enabled() || GLOBAL.get().is_some());
    }
}
