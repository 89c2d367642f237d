use crate::{CompileResult, Compiler, QueryDb};

/// A stateless stand-in for the removed incremental compile cache. It
/// exists only for the standalone `exp_perf` benchmark, which still calls
/// this API, and goes with the next change that edits `exp_perf`. Every
/// compile is a plain [`Compiler::compile`] and every counter reads 0.
#[derive(Debug, Default, Clone)]
pub struct QueryCache;

impl QueryCache {
    /// A cache that ignores `db`.
    pub fn new(_db: std::sync::Arc<QueryDb>) -> QueryCache {
        QueryCache
    }

    /// [`Compiler::compile`] of `mutant`; the parent and hash are ignored.
    pub fn compile_hashed(&self, c: &Compiler, _: &str, mutant: &str, _: u128) -> CompileResult {
        c.compile(mutant)
    }

    /// Always 0.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Always 0.
    pub fn misses(&self) -> u64 {
        0
    }

    /// Always 0.
    pub fn cross_seed_hits(&self) -> u64 {
        0
    }

    /// Always 0.
    pub fn retained_text_bytes(&self) -> usize {
        0
    }
}
