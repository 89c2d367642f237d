//! GrayC analogue: a greybox fuzzer with exactly five hand-written,
//! conservative semantic mutators (the paper queried the real tool:
//! `./grayc --list-mutations` reports five). Its mutants almost always
//! compile (Table 5: 98.99%) but explore a narrower space than MetaMut's
//! generated library.

use crate::generator::{Candidate, SeedPool, TestGenerator};
use metamut_muast::{mutate_parsed, MutRng, MutationOutcome, Mutator};
use metamut_mutators::{expression, statement};
use std::sync::Arc;

/// The five-mutator greybox fuzzer.
pub struct GrayCLike {
    pool: SeedPool,
    mutators: Vec<Arc<dyn Mutator>>,
}

impl std::fmt::Debug for GrayCLike {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrayCLike")
            .field("pool", &self.pool.len())
            .field("mutators", &self.mutators.len())
            .finish()
    }
}

impl GrayCLike {
    /// Creates the fuzzer with its five fixed mutators.
    pub fn new(seeds: impl IntoIterator<Item = String>) -> Self {
        GrayCLike {
            pool: SeedPool::new(seeds),
            mutators: vec![
                Arc::new(statement::DeleteStatement),
                Arc::new(statement::DuplicateStatement),
                Arc::new(expression::ModifyIntegerLiteral),
                Arc::new(statement::SwapAdjacentStatements),
                Arc::new(expression::ContractToCompoundAssignment),
            ],
        }
    }

    /// The number of mutators (always five, like the real GrayC).
    pub fn mutation_count(&self) -> usize {
        self.mutators.len()
    }
}

impl TestGenerator for GrayCLike {
    fn name(&self) -> &'static str {
        "GrayC"
    }

    fn next_candidate(&mut self, rng: &mut MutRng) -> Candidate {
        let (parent_idx, parent) = self.pool.pick(rng);
        let parent = parent.to_string();
        // Parse once per pool entry; every attempt reuses the cached AST.
        let parsed = self.pool.parsed(parent_idx);
        let mut order: Vec<usize> = (0..self.mutators.len()).collect();
        rng.shuffle(&mut order);
        for &mi in &order {
            // Consume the attempt seed even when the parent never parsed,
            // matching the per-attempt RNG stream of the re-parsing path.
            let attempt_seed = rng.next_u64();
            let Some(parsed) = parsed.as_ref() else {
                continue;
            };
            match mutate_parsed(self.mutators[mi].as_ref(), parsed, attempt_seed) {
                Ok(MutationOutcome::Mutated(p)) => {
                    let mut candidate = Candidate::new(p, Some(parent_idx));
                    candidate.parent_parse = Some(Arc::clone(parsed));
                    return candidate;
                }
                _ => continue,
            }
        }
        Candidate::new(parent, Some(parent_idx))
    }

    fn feedback(&mut self, candidate: &Candidate, new_coverage: bool, _compiled: bool) {
        if new_coverage {
            self.pool.push_judged(candidate);
        }
    }

    fn seed_pool(&self) -> Option<&SeedPool> {
        Some(&self.pool)
    }

    fn seed_pool_mut(&mut self) -> Option<&mut SeedPool> {
        Some(&mut self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::seed_corpus;

    #[test]
    fn has_exactly_five_mutations() {
        let g = GrayCLike::new(seed_corpus().iter().map(|s| s.to_string()));
        assert_eq!(g.mutation_count(), 5);
    }

    #[test]
    fn mutants_almost_always_compile() {
        let mut g = GrayCLike::new(seed_corpus().iter().map(|s| s.to_string()));
        let mut rng = MutRng::new(11);
        let mut total = 0;
        let mut ok = 0;
        for _ in 0..60 {
            let c = g.next_candidate(&mut rng);
            total += 1;
            if metamut_lang::compile_check(&c.program).is_ok() {
                ok += 1;
            }
        }
        assert!(ok * 10 >= total * 9, "GrayC compilable {ok}/{total}");
    }
}
