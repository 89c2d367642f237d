//! Query-layer counters, read from outside through `QueryCache` and
//! `QueryDb` after the work is done.

use crate::stats::ratio;
use crate::Metric;
use metamut_simcomp::{QueryCache, QueryDb};
use std::sync::Arc;

/// Counters summed over several query databases (one per campaign or per
/// reduction).
#[derive(Debug, Default)]
pub struct QueryTally {
    dbs: u64,
    hits: u64,
    compiles: u64,
    memo_hits: u64,
    memo_lookups: u64,
    memo_entries: u64,
    cross_seed_hits: u64,
    retained_text_bytes: u64,
}

impl QueryTally {
    /// Adds one database's counters. The compiler's query state lives on
    /// the database, so a fresh `QueryCache` over it reads the counters of
    /// every cache that compiled through it.
    pub fn add(&mut self, db: &Arc<QueryDb>) {
        let cache = QueryCache::new(Arc::clone(db));
        self.dbs += 1;
        self.hits += cache.hits();
        self.compiles += cache.hits() + cache.misses();
        self.memo_hits += db.hits();
        self.memo_lookups += db.hits() + db.recomputes();
        self.memo_entries += db.len() as u64;
        self.cross_seed_hits += cache.cross_seed_hits();
        self.retained_text_bytes += cache.retained_text_bytes() as u64;
    }

    /// `query.hit_ratio` (fast-path compiles / compiles),
    /// `query.memo_hit_ratio` (memo hits / lookups), and per-database
    /// `query.memo_entries`, `query.cross_seed_hits` and
    /// `query.retained_text_bytes`.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_db = |n: u64| ratio(n as f64, self.dbs as f64);
        vec![
            Metric::new(
                "query.hit_ratio",
                ratio(self.hits as f64, self.compiles as f64),
                "ratio",
            ),
            Metric::new(
                "query.memo_hit_ratio",
                ratio(self.memo_hits as f64, self.memo_lookups as f64),
                "ratio",
            ),
            Metric::new("query.memo_entries", per_db(self.memo_entries), "count"),
            Metric::new(
                "query.cross_seed_hits",
                per_db(self.cross_seed_hits),
                "count",
            ),
            Metric::new(
                "query.retained_text_bytes",
                per_db(self.retained_text_bytes),
                "bytes",
            ),
        ]
    }
}
