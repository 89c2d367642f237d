//! A perf gate that needs no timer: heap allocations per cold compile of
//! Csmith-like programs at clang-sim -O3. Allocation counts are
//! deterministic and host-independent, so this test catches a reintroduced
//! per-instruction `Vec` or `String` on any machine.
//!
//! A counting global allocator keeps its counts per thread, so tests that
//! the harness runs in parallel do not pollute each other.

use metamut_fuzzing::csmith::CsmithLike;
use metamut_muast::MutRng;
use metamut_simcomp::{CompileOptions, Compiler, Profile};
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

/// Mean allocations (and reallocations) per compile, measured with
/// unoptimized test builds: 1,881 when the optimizer and back end built a
/// fresh `Vec` per instruction and cloned a `String` per memory access,
/// 927 after they stopped, 812 once lowering shared one allocation per
/// slot name, 607 once the front end held names inline, decoded literals
/// without temporaries, sized its token `Vec` and recorded expression types
/// in a dense table, 369 once every expression of a unit lived in one
/// arena, 362 once semantic analysis stopped copying function signatures
/// it only compares and reused its block-scope symbol maps. The budget
/// leaves ~15% headroom over 362.
const BUDGET: u64 = 416;

#[test]
fn csmith_like_compile_stays_within_its_allocation_budget() {
    let mut rng = MutRng::new(7);
    let gen = CsmithLike::new();
    let programs: Vec<String> = (0..PROGRAMS).map(|_| gen.generate(&mut rng)).collect();
    let clang = Compiler::new(Profile::Clang, CompileOptions::o3());
    let before = allocs();
    for src in &programs {
        let r = clang.compile(src);
        assert!(r.outcome.is_success(), "{:?}", r.outcome);
    }
    let per_compile = (allocs() - before) / PROGRAMS as u64;
    assert!(
        per_compile <= BUDGET,
        "{per_compile} allocations per Csmith-like compile, budget {BUDGET}"
    );
}
