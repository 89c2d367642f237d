//! Campaign time-series: fixed-cadence samples of coverage, throughput,
//! corpus size, and cache hit rates, taken from the fuzzing loop into a
//! bounded buffer and flushed to `timeseries.jsonl` (one JSON object per
//! line) at campaign end.
//!
//! A campaign samples once every `sample_every` iterations, right after a
//! coverage count that walks the whole map, so one short lock per sample
//! is cheap next to the sample itself: the buffer is a mutex-guarded
//! `VecDeque`. A writer pushes one whole sample under the lock and
//! readers — the `/timeseries` HTTP endpoint and the final flush — copy
//! whole samples under it, so no reader sees a torn sample. At capacity
//! the oldest sample is dropped; the default capacity holds hours of
//! sampling at any sane cadence.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Default capacity (samples).
pub const DEFAULT_SERIES_CAPACITY: usize = 8192;

/// One time-series sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Microseconds since the telemetry pipeline was created.
    pub t_us: u64,
    /// Campaign iteration the sample was taken at.
    pub iteration: u64,
    /// Total mutant executions so far.
    pub execs: u64,
    /// Distinct coverage features hit so far.
    pub covered: u64,
    /// Live corpus (seed pool) size.
    pub corpus: u64,
    /// Unique deduplicated crashes so far.
    pub crashes: u64,
    /// Executions per second over the campaign so far.
    pub execs_per_sec: f64,
    /// Mutant dedup cache hit rate in [0, 1] (0 when dedup is off).
    pub dedup_hit_rate: f64,
    /// Fraction of UB-gate-checked mutants filtered, in [0, 1]. The gate
    /// checks only mutants that would have changed the campaign (new
    /// coverage or a new crash signature).
    pub ub_filter_rate: f64,
}

/// The bounded sample buffer: the newest `capacity` samples in arrival
/// order, plus how many were ever recorded.
pub struct SeriesRecorder {
    on: AtomicBool,
    capacity: usize,
    recorded: AtomicU64,
    ring: Mutex<VecDeque<SeriesPoint>>,
}

impl Default for SeriesRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl SeriesRecorder {
    /// A recorder holding at most `capacity` samples, initially off.
    /// Storage grows with the samples actually recorded.
    pub fn new(capacity: usize) -> Self {
        SeriesRecorder {
            on: AtomicBool::new(false),
            capacity: capacity.max(1),
            recorded: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether [`SeriesRecorder::record`] stores samples.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns sample recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Total samples ever recorded (monotone; exceeds capacity on wrap).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Stores one sample, dropping the oldest one at capacity.
    pub fn record(&self, point: &SeriesPoint) {
        if !self.enabled() {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(point.clone());
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the buffered samples, sorted by iteration (parallel
    /// workers publish out of order).
    pub fn points(&self) -> Vec<SeriesPoint> {
        let mut out: Vec<SeriesPoint> = self.ring.lock().iter().cloned().collect();
        out.sort_by_key(|p| (p.iteration, p.t_us));
        out
    }

    /// Renders the samples as JSONL (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for p in self.points() {
            if let Ok(line) = serde_json::to_string(&p) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Renders the samples as one JSON array (the `/timeseries` payload).
    pub fn to_json_array(&self) -> String {
        serde_json::to_string(&self.points()).unwrap_or_else(|_| "[]".into())
    }
}

/// Parses `timeseries.jsonl` text back into samples (used by
/// `metamut report`). Malformed lines are skipped.
pub fn parse_jsonl(text: &str) -> Vec<SeriesPoint> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(iteration: u64) -> SeriesPoint {
        SeriesPoint {
            t_us: iteration * 1000,
            iteration,
            execs: iteration,
            covered: 10 + iteration,
            corpus: 4,
            crashes: 0,
            execs_per_sec: 123.5,
            dedup_hit_rate: 0.25,
            ub_filter_rate: 0.125,
        }
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let r = SeriesRecorder::new(8);
        r.record(&point(1));
        assert!(r.points().is_empty());
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn samples_round_trip_in_iteration_order() {
        let r = SeriesRecorder::new(8);
        r.set_enabled(true);
        for i in [3u64, 1, 2] {
            r.record(&point(i));
        }
        let pts = r.points();
        assert_eq!(
            pts.iter().map(|p| p.iteration).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(pts[0], point(1));
        let parsed = parse_jsonl(&r.to_jsonl());
        assert_eq!(parsed, pts);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let r = SeriesRecorder::new(4);
        r.set_enabled(true);
        for i in 0..10u64 {
            r.record(&point(i));
        }
        let pts = r.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(
            pts.iter().map(|p| p.iteration).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn concurrent_writers_never_tear_samples() {
        use std::sync::Arc;
        let r = Arc::new(SeriesRecorder::new(64));
        r.set_enabled(true);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let it = t * 1000 + i;
                        // All fields derive from `iteration`, so a torn
                        // read shows up as an inconsistent sample below.
                        r.record(&point(it));
                    }
                });
            }
            for _ in 0..50 {
                for p in r.points() {
                    assert_eq!(p.t_us, p.iteration * 1000);
                    assert_eq!(p.execs, p.iteration);
                    assert_eq!(p.covered, 10 + p.iteration);
                }
            }
        });
        assert_eq!(r.recorded(), 2000);
    }
}
