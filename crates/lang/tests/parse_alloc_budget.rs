//! A perf gate that needs no timer: heap allocations per parse of
//! Csmith-like programs. Allocation counts are deterministic and
//! host-independent, so this test catches a reintroduced per-node `Box`, a
//! per-name `String` or a token stream that grows instead of being sized
//! once.
//!
//! A counting global allocator keeps its counts per thread, so tests that
//! the harness runs in parallel do not pollute each other.

use metamut_fuzzing::csmith::CsmithLike;
use metamut_muast::MutRng;
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

/// Mean allocations (and reallocations) per `parse` (lex included),
/// measured with unoptimized test builds: 455 when every name was its own
/// `String`, each int literal was lowercased into a temporary, the token
/// `Vec` grew by doubling and every sub-expression was a `Box<Expr>`; 293
/// once names became inline `Name`s, the literal decode stopped allocating
/// and the token `Vec` was sized from the source; 56 once the unit's
/// expressions moved into one arena. The budget leaves ~15% headroom over
/// 56.
const BUDGET: u64 = 64;

#[test]
fn csmith_like_parse_stays_within_its_allocation_budget() {
    let mut rng = MutRng::new(7);
    let gen = CsmithLike::new();
    let programs: Vec<String> = (0..PROGRAMS).map(|_| gen.generate(&mut rng)).collect();
    let before = allocs();
    for src in &programs {
        let ast = metamut_lang::parse("<csmith>", src).expect("generated programs parse");
        drop(ast);
    }
    let per_parse = (allocs() - before) / PROGRAMS as u64;
    assert!(
        per_parse <= BUDGET,
        "{per_parse} allocations per Csmith-like parse, budget {BUDGET}"
    );
}
