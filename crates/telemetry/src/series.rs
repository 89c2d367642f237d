//! Lock-free campaign time-series: fixed-cadence samples of coverage,
//! throughput, corpus size, and cache hit rates, written from the fuzzing
//! hot loop into a seqlock-style ring buffer and flushed to
//! `timeseries.jsonl` (one JSON object per line) at campaign end.
//!
//! Writers never block: a sample claims its slot with one `fetch_add` on
//! the cursor and publishes through a per-slot sequence word (odd while a
//! write is in flight, even when stable). Readers — the `/timeseries`
//! HTTP endpoint and the final flush — retry slots whose sequence moved
//! underneath them, so a concurrent snapshot is always built from whole
//! samples. When the ring wraps, the oldest samples are overwritten; the
//! default capacity holds hours of sampling at any sane cadence.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Default ring capacity (samples).
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

const FIELDS: usize = 9;

impl SeriesPoint {
    fn to_words(&self) -> [u64; FIELDS] {
        [
            self.t_us,
            self.iteration,
            self.execs,
            self.covered,
            self.corpus,
            self.crashes,
            self.execs_per_sec.to_bits(),
            self.dedup_hit_rate.to_bits(),
            self.ub_filter_rate.to_bits(),
        ]
    }

    fn from_words(w: &[u64; FIELDS]) -> Self {
        SeriesPoint {
            t_us: w[0],
            iteration: w[1],
            execs: w[2],
            covered: w[3],
            corpus: w[4],
            crashes: w[5],
            execs_per_sec: f64::from_bits(w[6]),
            dedup_hit_rate: f64::from_bits(w[7]),
            ub_filter_rate: f64::from_bits(w[8]),
        }
    }
}

/// One ring slot: a seqlock sequence word plus the sample fields.
struct Slot {
    /// 0 = never written; odd = write in flight; even > 0 = stable.
    seq: AtomicU64,
    words: [AtomicU64; FIELDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The lock-free sample ring.
pub struct SeriesRecorder {
    on: AtomicBool,
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl Default for SeriesRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl SeriesRecorder {
    /// A recorder with the given ring capacity, initially off.
    pub fn new(capacity: usize) -> Self {
        SeriesRecorder {
            on: AtomicBool::new(false),
            cursor: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
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
        self.cursor.load(Ordering::Relaxed)
    }

    /// Stores one sample. Lock-free: one atomic claim plus plain stores
    /// bracketed by the slot's sequence word.
    pub fn record(&self, point: &SeriesPoint) {
        if !self.enabled() {
            return;
        }
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[idx];
        // Odd sequence marks the write in flight. Acquire the slot by CAS
        // so two writers that wrapped onto it cannot interleave; Release on
        // the closing store publishes the field writes to readers.
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq & 1 == 0 {
                match slot.seq.compare_exchange_weak(
                    seq,
                    seq + 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(cur) => seq = cur,
                }
            } else {
                std::hint::spin_loop();
                seq = slot.seq.load(Ordering::Relaxed);
            }
        }
        for (w, v) in slot.words.iter().zip(point.to_words()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Snapshot of the buffered samples, sorted by iteration (parallel
    /// workers publish out of order). Slots caught mid-write are skipped —
    /// the writer will finish and the next snapshot sees them.
    pub fn points(&self) -> Vec<SeriesPoint> {
        let mut out = Vec::new();
        for slot in &self.slots {
            for _attempt in 0..4 {
                let before = slot.seq.load(Ordering::Acquire);
                if before == 0 || before & 1 == 1 {
                    break;
                }
                let words: [u64; FIELDS] =
                    std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
                if slot.seq.load(Ordering::Acquire) == before {
                    out.push(SeriesPoint::from_words(&words));
                    break;
                }
            }
        }
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
