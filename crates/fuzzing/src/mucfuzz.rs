//! μCFuzz (Algorithm 1): the micro coverage-guided fuzzer that plugs the
//! MetaMut-generated mutators into a minimal seed-pool loop.

use crate::generator::{Candidate, PoolSnapshot, SeedPool, TestGenerator};
use metamut_muast::{
    mutate_parsed, mutate_source, MutRng, MutationOutcome, MutatorRegistry, ParsedProgram,
};
use std::sync::Arc;

/// The micro fuzzer of §3.4, parameterized by a mutator registry (M_s,
/// M_u, or both).
pub struct MuCFuzz {
    name: &'static str,
    mutators: Arc<MutatorRegistry>,
    pool: SeedPool,
    /// How many mutators to try (in shuffled order) before giving up on a
    /// candidate (Algorithm 1's inner loop).
    attempts_per_step: usize,
    /// Reuse each parent's cached AST across attempts (identical output,
    /// one parse per pool entry instead of one per attempt). Off only for
    /// the throughput baseline.
    cache_parses: bool,
    /// Down-weight parents that carry static-analysis findings when
    /// drawing from the pool (see [`SeedPool::pick_weighted`]).
    /// `--no-lint-penalty` turns it off, reproducing the uniform draw
    /// bit-for-bit.
    lint_penalty: bool,
    /// Scratch buffer for the per-candidate mutator shuffle, reused so the
    /// hot loop does not allocate.
    order: Vec<usize>,
}

impl std::fmt::Debug for MuCFuzz {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuCFuzz")
            .field("name", &self.name)
            .field("mutators", &self.mutators.len())
            .field("pool", &self.pool.len())
            .field("cache_parses", &self.cache_parses)
            .field("lint_penalty", &self.lint_penalty)
            .finish()
    }
}

/// The parent's AST as seen by one `next_candidate` call.
enum ParentAst {
    /// Parse caching disabled: each attempt re-parses the parent.
    Uncached,
    /// Cached AST, shared with the pool.
    Cached(Arc<ParsedProgram>),
    /// The parent does not parse (cached answer; every attempt fails).
    Unparseable,
}

impl MuCFuzz {
    /// Creates a μCFuzz instance over the given mutators and seeds.
    pub fn new(
        name: &'static str,
        mutators: Arc<MutatorRegistry>,
        seeds: impl IntoIterator<Item = String>,
    ) -> Self {
        MuCFuzz {
            name,
            mutators,
            pool: SeedPool::new(seeds),
            attempts_per_step: 4,
            cache_parses: true,
            lint_penalty: true,
            order: Vec::new(),
        }
    }

    /// Enables or disables the parent-AST cache (on by default). The
    /// output stream is bit-for-bit identical either way — mutation is a
    /// pure function of the parsed parent and the per-attempt seed — so
    /// turning it off only serves as a perf baseline.
    pub fn parse_cache(mut self, enabled: bool) -> Self {
        self.cache_parses = enabled;
        self
    }

    /// Enables or disables the lint penalty on parent selection (on by
    /// default). Off restores the uniform draw of Algorithm 1 line 4
    /// exactly; on spends two thirds of the energy on analysis-clean
    /// parents once any pooled seed carries a finding.
    pub fn lint_penalty(mut self, enabled: bool) -> Self {
        self.lint_penalty = enabled;
        self
    }

    /// The mutator registry in use.
    pub fn mutators(&self) -> &MutatorRegistry {
        &self.mutators
    }

    /// Parses the pool actually ran (cache misses; see
    /// [`SeedPool::parse_count`]).
    pub fn parse_count(&self) -> u64 {
        self.pool.parse_count()
    }
}

impl TestGenerator for MuCFuzz {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        let telemetry = metamut_telemetry::handle();
        // Algorithm 1 line 4: P ← random_choice(pool), down-weighting
        // parents with static-analysis findings unless disabled.
        let parent_idx = self.pool.pick_weighted(rng, self.lint_penalty);
        let parent = self.pool.get(parent_idx).expect("picked index in range");
        let parent_ast = if self.cache_parses {
            match self.pool.parsed(parent_idx) {
                Some(p) => ParentAst::Cached(p),
                None => ParentAst::Unparseable,
            }
        } else {
            ParentAst::Uncached
        };
        // Line 5: M' ← random_shuffle(M); then try mutators in order.
        self.order.clear();
        self.order.extend(0..self.mutators.len());
        rng.shuffle(&mut self.order);
        for &mi in self.order.iter().take(self.attempts_per_step.max(1)) {
            let m = self
                .mutators
                .iter()
                .nth(mi)
                .expect("index in range")
                .mutator
                .as_ref();
            telemetry.counter_add("mutate_attempts", 1);
            // Draw the attempt seed unconditionally so the RNG stream (and
            // hence every later decision) is independent of cache state.
            let attempt_seed = rng.next_u64();
            let outcome = match &parent_ast {
                ParentAst::Uncached => mutate_source(m, parent, attempt_seed),
                ParentAst::Cached(p) => mutate_parsed(m, p, attempt_seed),
                ParentAst::Unparseable => {
                    telemetry.counter_add("mutate_errors", 1);
                    continue;
                }
            };
            match outcome {
                Ok(MutationOutcome::Mutated(p)) => {
                    telemetry.counter_add("mutate_applied", 1);
                    let mut candidate = Candidate::new(p, Some(parent_idx));
                    if let ParentAst::Cached(parse) = parent_ast {
                        candidate.parent_parse = Some(parse);
                    }
                    return candidate;
                }
                Ok(MutationOutcome::NotApplicable) => continue,
                Err(_) => {
                    telemetry.counter_add("mutate_errors", 1);
                    continue;
                }
            }
        }
        // Nothing applied: re-emit the parent (counts as a dud).
        telemetry.counter_add("mutate_duds", 1);
        Candidate::new(parent.to_string(), Some(parent_idx))
    }

    fn feedback(&mut self, candidate: &Candidate, new_coverage: bool, _compiled: bool) {
        // Algorithm 1 lines 8–9: pool ← pool ∪ {P'} on new branches. The
        // entry adopts the parse and lint verdict the campaign already
        // made for the candidate, when it carries them.
        if new_coverage
            && candidate
                .parent
                .and_then(|i| self.pool.get(i))
                .map(|p| p != candidate.program)
                .unwrap_or(true)
        {
            self.pool.push_judged(candidate);
        }
    }

    fn seed_pool(&self) -> Option<&SeedPool> {
        Some(&self.pool)
    }

    fn seed_pool_mut(&mut self) -> Option<&mut SeedPool> {
        Some(&mut self.pool)
    }

    fn pool_snapshot(&self) -> Option<PoolSnapshot> {
        Some(self.pool.snapshot())
    }

    fn pool_snapshot_from(&self, from: usize) -> Option<PoolSnapshot> {
        Some(self.pool.snapshot_from(from))
    }

    fn restore_pool(&mut self, snapshot: PoolSnapshot) -> bool {
        self.pool = SeedPool::from_snapshot(snapshot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::seed_corpus;

    fn fuzzer() -> MuCFuzz {
        MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            seed_corpus().iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn produces_mutants() {
        let mut f = fuzzer();
        let mut rng = MutRng::new(42);
        let mut mutated = 0;
        for _ in 0..20 {
            let c = f.next_candidate(&mut rng);
            if c.parent
                .map(|i| f.pool.get(i) != Some(c.program.as_str()))
                .unwrap_or(true)
            {
                mutated += 1;
            }
        }
        assert!(mutated >= 15, "only {mutated}/20 attempts mutated");
    }

    #[test]
    fn pool_grows_on_interesting() {
        let mut f = fuzzer();
        let mut rng = MutRng::new(1);
        let before = f.pool_len();
        // Draw candidates until one actually mutated its parent (a dud
        // re-emits the parent and is never pooled).
        let c = loop {
            let c = f.next_candidate(&mut rng);
            let parent = c.parent.and_then(|i| f.pool.get(i));
            if parent != Some(c.program.as_str()) {
                break c;
            }
        };
        f.feedback(&c, true, true);
        assert_eq!(f.pool_len(), before + 1);
        let c2 = f.next_candidate(&mut rng);
        f.feedback(&c2, false, true);
        assert_eq!(f.pool_len(), before + 1);
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = fuzzer();
        let mut b = fuzzer();
        let mut ra = MutRng::new(7);
        let mut rb = MutRng::new(7);
        for _ in 0..5 {
            assert_eq!(a.next_candidate(&mut ra), b.next_candidate(&mut rb));
        }
    }

    #[test]
    fn parse_cache_is_transparent() {
        // Cached and uncached runs emit the identical candidate stream.
        let mut cached = fuzzer();
        let mut legacy = fuzzer().parse_cache(false);
        let mut rc = MutRng::new(0xCAFE);
        let mut rl = MutRng::new(0xCAFE);
        for _ in 0..30 {
            let a = cached.next_candidate(&mut rc);
            let b = legacy.next_candidate(&mut rl);
            assert_eq!(a, b);
            // Keep the pools in lockstep too.
            cached.feedback(&a, false, true);
            legacy.feedback(&b, false, true);
        }
        // The cached run parsed each picked parent at most once; with 30
        // candidates × up to 4 attempts the uncached path would have parsed
        // far more often.
        assert!(cached.parse_count() <= 30);
        assert!(cached.parse_count() < 30 * 2, "cache not effective");
        assert_eq!(legacy.parse_count(), 0, "legacy path must bypass cache");
    }

    #[test]
    fn lint_penalty_downweights_linty_parents() {
        // One clean parent, one with a maybe-uninit lint: the penalized
        // fuzzer must derive most candidates from the clean parent, and
        // disabling the penalty must restore the uniform draw exactly.
        let clean = "int f(void) { return 1; }".to_string();
        let linty = "int g(int c) { int x; if (c) { x = 1; } return x; }".to_string();
        let seeds = [clean, linty];
        let mk = || {
            MuCFuzz::new(
                "uCFuzz.s",
                Arc::new(metamut_mutators::supervised_registry()),
                seeds.clone(),
            )
        };
        let mut on = mk();
        let mut rng = MutRng::new(21);
        let mut from = [0usize; 2];
        for _ in 0..400 {
            let c = on.next_candidate(&mut rng);
            from[c.parent.unwrap()] += 1;
        }
        assert!(
            from[0] > from[1] * 3 / 2,
            "clean parent must dominate, got {from:?}"
        );
        // Off restores the uniform draw (`pick_weighted(_, false)` is
        // `pick`; the bit-identity itself is proven at the pool level).
        let mut off = mk().lint_penalty(false);
        let mut rng = MutRng::new(33);
        let mut from = [0usize; 2];
        for _ in 0..400 {
            let c = off.next_candidate(&mut rng);
            from[c.parent.unwrap()] += 1;
        }
        let spread = from[0].abs_diff(from[1]);
        assert!(
            spread < 100,
            "uniform draw must not skew far from 50/50, got {from:?}"
        );
    }

    #[test]
    fn unparseable_parent_degrades_to_dud() {
        // A pool holding only an invalid program must still terminate and
        // re-emit the parent, identically with and without the cache.
        let bad = "int f( {".to_string();
        let mut cached = MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            [bad.clone()],
        );
        let mut legacy = MuCFuzz::new(
            "uCFuzz.s",
            Arc::new(metamut_mutators::supervised_registry()),
            [bad.clone()],
        )
        .parse_cache(false);
        let mut rc = MutRng::new(5);
        let mut rl = MutRng::new(5);
        for _ in 0..3 {
            let a = cached.next_candidate(&mut rc);
            let b = legacy.next_candidate(&mut rl);
            assert_eq!(a, b);
            assert_eq!(a.program, bad);
        }
        // One failed parse cached, not one per attempt.
        assert_eq!(cached.parse_count(), 1);
    }
}
