//! A perf gate that needs no timer: heap allocations per mutation attempt.
//! Every mutator in `full_registry()` runs with attempt seeds 0..4 against
//! each of the first 50 seed-7 Csmith-like programs, parsed once up front
//! as a campaign's seed-pool cache does. Allocation counts are
//! deterministic and host-independent, so this test catches a collector
//! that goes back to cloning the nodes it collects on any machine.
//!
//! A counting global allocator keeps its counts per thread, so tests that
//! the harness runs in parallel do not pollute each other. It lives in its
//! own test binary because it replaces the global allocator.

use metamut_fuzzing::csmith::CsmithLike;
use metamut_muast::{mutate_parsed, MutRng, ParsedProgram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also serves thread teardown, after the
    // slot is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The first 50 seed-7 Csmith-like programs.
const PROGRAMS: usize = 50;
/// Attempt seeds per (program, mutator) pair.
const SEEDS: u64 = 4;

/// Mean allocations (and reallocations) per attempt, measured with
/// unoptimized test builds: 234 when the collectors deep-cloned every
/// instance they matched, mutators cloned whole function definitions and
/// declaration groups, the name sets owned a `String` per name and every
/// attempt copied the parent's source; 13.6 once all of them borrow the
/// parent's AST and source. The budget leaves ~15% headroom over 13.6.
const BUDGET: u64 = 16;

#[test]
fn mutation_attempts_stay_within_their_allocation_budget() {
    let mut rng = MutRng::new(7);
    let gen = CsmithLike::new();
    let parsed: Vec<ParsedProgram> = (0..PROGRAMS)
        .map(|_| ParsedProgram::parse(&gen.generate(&mut rng)).expect("Csmith-like compiles"))
        .collect();
    let registry = metamut_mutators::full_registry();
    let mut attempts = 0;
    let before = allocs();
    for p in &parsed {
        for reg in registry.iter() {
            for seed in 0..SEEDS {
                mutate_parsed(&*reg.mutator, p, seed).expect("no rewrite conflict");
                attempts += 1;
            }
        }
    }
    let per_attempt = (allocs() - before) / attempts;
    assert!(
        per_attempt <= BUDGET,
        "{per_attempt} allocations per mutation attempt, budget {BUDGET}"
    );
}
