//! Branch-coverage instrumentation for the compiler under test.
//!
//! Every pipeline stage reports *features* (hashed structural observations);
//! each feature maps to one bit in a fixed-size map, exactly like the edge
//! bitmap of AFL-style fuzzers. The evaluation's "covered branches" metric
//! (Figure 7) is the population count of this map.

use std::sync::atomic::{AtomicU64, Ordering};

/// Compilation stages, which double as the compiler components that crashes
/// are attributed to (Table 4 / Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Lexing, parsing, semantic analysis.
    FrontEnd,
    /// Lowering the AST to three-address IR.
    IrGen,
    /// The optimization pipeline.
    Opt,
    /// Instruction selection and register allocation.
    BackEnd,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::FrontEnd, Stage::IrGen, Stage::Opt, Stage::BackEnd];

    /// Table-style label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::FrontEnd => "Front-End",
            Stage::IrGen => "IR",
            Stage::Opt => "Opt",
            Stage::BackEnd => "Back-End",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Size of the per-stage bitmap in bits (64K, like AFL's edge map).
pub const MAP_BITS: usize = 1 << 16;

/// A branch-coverage bitmap over all stages.
#[derive(Clone)]
pub struct CoverageMap {
    words: Vec<u64>,
    /// Indices of non-zero words, in first-touch order. One compile sets a
    /// few hundred bits in a 4096-word map, so merges walk this list
    /// instead of scanning the whole map.
    touched: Vec<u32>,
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoverageMap")
            .field("covered", &self.count())
            .finish()
    }
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap {
            words: vec![0u64; MAP_BITS * Stage::ALL.len() / 64],
            touched: Vec::new(),
        }
    }

    fn slot(stage: Stage, feature: u64) -> (usize, u64) {
        let stage_idx = match stage {
            Stage::FrontEnd => 0usize,
            Stage::IrGen => 1,
            Stage::Opt => 2,
            Stage::BackEnd => 3,
        };
        let bit = (feature % MAP_BITS as u64) as usize + stage_idx * MAP_BITS;
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Records one feature observation. Returns `true` if the bit was new.
    pub fn record(&mut self, stage: Stage, feature: u64) -> bool {
        let (word, mask) = Self::slot(stage, feature);
        let w = self.words[word];
        if w == 0 {
            self.touched.push(word as u32);
        }
        self.words[word] = w | mask;
        w & mask == 0
    }

    /// Whether the feature's bit is already set.
    pub fn contains(&self, stage: Stage, feature: u64) -> bool {
        let (word, mask) = Self::slot(stage, feature);
        self.words[word] & mask != 0
    }

    /// Number of covered branches across all stages.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of covered branches attributed to one stage.
    pub fn count_stage(&self, stage: Stage) -> usize {
        let stage_idx = match stage {
            Stage::FrontEnd => 0usize,
            Stage::IrGen => 1,
            Stage::Opt => 2,
            Stage::BackEnd => 3,
        };
        let lo = stage_idx * MAP_BITS / 64;
        let hi = lo + MAP_BITS / 64;
        self.words[lo..hi]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Merges `other` into `self`; returns the number of newly set bits.
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        let mut new = 0;
        for &wi in &other.touched {
            let wi = wi as usize;
            let b = other.words[wi];
            let a = self.words[wi];
            new += (b & !a).count_ones() as usize;
            if a == 0 {
                self.touched.push(wi as u32);
            }
            self.words[wi] = a | b;
        }
        new
    }

    /// The non-zero words as `(word_index, bits)` pairs in index order — a
    /// compact, serialization-friendly form (one compile touches a few
    /// hundred of the map's 4096 words, a campaign a few thousand).
    pub fn to_sparse_words(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .touched
            .iter()
            .map(|&wi| (wi, self.words[wi as usize]))
            .filter(|(_, w)| *w != 0)
            .collect();
        out.sort_unstable_by_key(|(wi, _)| *wi);
        out
    }

    /// Rebuilds a map from [`CoverageMap::to_sparse_words`] output.
    /// Out-of-range indices are ignored so a corrupt checkpoint cannot
    /// panic the restore path.
    pub fn from_sparse_words(sparse: &[(u32, u64)]) -> CoverageMap {
        let mut map = CoverageMap::new();
        for &(wi, bits) in sparse {
            let wi = wi as usize;
            if wi < map.words.len() && bits != 0 {
                if map.words[wi] == 0 {
                    map.touched.push(wi as u32);
                }
                map.words[wi] |= bits;
            }
        }
        map
    }
}

/// A lock-free coverage bitmap shared across parallel workers: the
/// campaign engine's and the macro fuzzer's (§3.4 enhancement #3).
///
/// Each word is an [`AtomicU64`]; merging a worker's local map is a series
/// of `fetch_or` operations, so concurrent merges never block and — because
/// `fetch_or` returns the previous word — every newly set bit is credited
/// to *exactly one* merge call. Summing the returned `new_bits` over all
/// workers therefore always equals [`AtomicCoverage::count`], which keeps
/// `new_bits`-driven pool growth race-free.
#[derive(Debug, Default)]
pub struct AtomicCoverage {
    words: Vec<AtomicU64>,
}

impl AtomicCoverage {
    /// An empty shared map.
    pub fn new() -> Self {
        AtomicCoverage {
            words: (0..MAP_BITS * Stage::ALL.len() / 64)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Merges a worker's local observations; returns the number of bits
    /// this call newly set (each global bit is credited exactly once
    /// across all concurrent merges).
    pub fn merge(&self, local: &CoverageMap) -> usize {
        let mut new = 0;
        for &wi in &local.touched {
            let b = local.words[wi as usize];
            let prev = self.words[wi as usize].fetch_or(b, Ordering::Relaxed);
            new += (b & !prev).count_ones() as usize;
        }
        new
    }

    /// Whether [`AtomicCoverage::merge`] would set any bit of `local`
    /// right now: relaxed loads only, so probing never writes. Bits are
    /// never cleared, so a `false` stays `false` for the same `local`.
    pub fn would_add(&self, local: &CoverageMap) -> bool {
        local.touched.iter().any(|&wi| {
            local.words[wi as usize] & !self.words[wi as usize].load(Ordering::Relaxed) != 0
        })
    }

    /// Total covered branches across all stages.
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Covered branches attributed to one stage.
    pub fn count_stage(&self, stage: Stage) -> usize {
        let stage_idx = match stage {
            Stage::FrontEnd => 0usize,
            Stage::IrGen => 1,
            Stage::Opt => 2,
            Stage::BackEnd => 3,
        };
        let lo = stage_idx * MAP_BITS / 64;
        let hi = lo + MAP_BITS / 64;
        self.words[lo..hi]
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// A point-in-time copy as a plain [`CoverageMap`].
    pub fn snapshot(&self) -> CoverageMap {
        let words: Vec<u64> = self
            .words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        let touched = words
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != 0)
            .map(|(i, _)| i as u32)
            .collect();
        CoverageMap { words, touched }
    }
}

/// FNV-1a hash used to turn structural observations into feature ids.
pub fn feature_hash(parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Hashes a string into a feature id.
pub fn feature_hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Hashes anything `Display` into a feature id by streaming the formatted
/// bytes straight through FNV-1a — byte-identical to
/// `feature_hash_str(&format!(...))` without the intermediate `String`.
pub fn feature_hash_display(args: std::fmt::Arguments<'_>) -> u64 {
    use std::fmt::Write;
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
            Ok(())
        }
    }
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = fnv.write_fmt(args);
    fnv.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut m = CoverageMap::new();
        assert_eq!(m.count(), 0);
        assert!(m.record(Stage::FrontEnd, 1));
        assert!(!m.record(Stage::FrontEnd, 1));
        assert!(m.record(Stage::Opt, 1)); // same feature, different stage
        assert_eq!(m.count(), 2);
        assert_eq!(m.count_stage(Stage::FrontEnd), 1);
        assert_eq!(m.count_stage(Stage::Opt), 1);
        assert_eq!(m.count_stage(Stage::BackEnd), 0);
    }

    #[test]
    fn merge_reports_new_bits() {
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        a.record(Stage::IrGen, 10);
        b.record(Stage::IrGen, 10);
        b.record(Stage::IrGen, 11);
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.merge(&b), 0);
    }

    #[test]
    fn sparse_words_round_trip() {
        let mut m = CoverageMap::new();
        for i in 0..300u64 {
            m.record(Stage::FrontEnd, i * 37);
            m.record(Stage::BackEnd, i * 91);
        }
        let sparse = m.to_sparse_words();
        let back = CoverageMap::from_sparse_words(&sparse);
        assert_eq!(back.count(), m.count());
        assert_eq!(back.to_sparse_words(), sparse);
        assert_eq!(m.clone().merge(&back), 0);
        assert_eq!(back.clone().merge(&m), 0);
        // Corrupt input degrades instead of panicking.
        let garbage = [(u32::MAX, 0xFFu64), (3, 0)];
        assert_eq!(CoverageMap::from_sparse_words(&garbage).count(), 0);
    }

    #[test]
    fn atomic_coverage_matches_serial_merge() {
        let atomic = AtomicCoverage::new();
        let mut serial = CoverageMap::new();
        let mut local = CoverageMap::new();
        local.record(Stage::Opt, 3);
        local.record(Stage::BackEnd, 9);
        assert_eq!(atomic.merge(&local), serial.merge(&local));
        assert_eq!(atomic.merge(&local), 0);
        assert_eq!(atomic.count(), serial.count());
        assert_eq!(
            atomic.count_stage(Stage::Opt),
            serial.count_stage(Stage::Opt)
        );
        assert_eq!(atomic.snapshot().count(), serial.count());
    }

    #[test]
    fn would_add_probes_without_writing() {
        let atomic = AtomicCoverage::new();
        let mut local = CoverageMap::new();
        local.record(Stage::FrontEnd, 5);
        local.record(Stage::BackEnd, 700);
        assert!(atomic.would_add(&local), "unseen bits");
        assert!(atomic.would_add(&local), "probing set nothing");
        assert_eq!(atomic.count(), 0);
        assert_eq!(atomic.merge(&local), 2);
        assert!(!atomic.would_add(&local), "every bit already merged");
        assert_eq!(atomic.count(), 2);
        local.record(Stage::BackEnd, 701);
        assert!(atomic.would_add(&local), "one unseen bit is enough");
        assert_eq!(atomic.count(), 2);
    }

    #[test]
    fn atomic_merge_credits_each_bit_once_under_contention() {
        // Eight threads merge heavily overlapping maps; every global bit
        // must be credited to exactly one merge call, so the sum of
        // returned new-bit counts equals the final population count.
        let shared = AtomicCoverage::new();
        let total_new: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let shared = &shared;
                    scope.spawn(move || {
                        let mut new = 0;
                        for round in 0..50u64 {
                            let mut local = CoverageMap::new();
                            // Overlapping range: threads race on most bits.
                            for i in 0..64 {
                                local.record(Stage::IrGen, (t % 4) * 32 + round + i);
                            }
                            new += shared.merge(&local);
                        }
                        new
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total_new, shared.count());
        assert!(shared.count() > 0);
    }

    #[test]
    fn hashes_are_stable_and_distinct() {
        assert_eq!(feature_hash(&[1, 2, 3]), feature_hash(&[1, 2, 3]));
        assert_ne!(feature_hash(&[1, 2, 3]), feature_hash(&[3, 2, 1]));
        assert_ne!(feature_hash_str("a"), feature_hash_str("b"));
    }
}
