//! The reduction oracle: "does this candidate still reproduce the *same*
//! crash?"
//!
//! A candidate is accepted only if the instrumented compiler — same
//! [`Profile`], same [`CompileOptions`] — still dies with the identical
//! [`CrashInfo::signature`](metamut_simcomp::CrashInfo::signature) (the
//! paper's top-two-stack-frames unique-crash rule from
//! `metamut-simcomp::bugs`). Everything else (clean compiles, rejections,
//! *different* crashes) is a failed candidate, so reduction can never
//! silently slide from one bug onto another.
//!
//! Three layers keep the oracle cheap, checked in order. A candidate past
//! the cache costs exactly one [`Compiler::compile`], whose front end
//! lexes and parses it once for the pre-filter, the crash check and the
//! UB guard:
//!
//! 1. **Verdict cache** — byte-identical retries (ddmin revisits subsets
//!    across granularity levels) are answered without recompiling.
//! 2. **Pre-filter** — the compile's own front end. When the target crash
//!    fires *past* the front end, a candidate the parser rejects can never
//!    reach it: the pipeline stops at the front end, so any crash it
//!    produces has a front-end signature, never the target's. Such a
//!    candidate counts in [`ReductionOracle::prefilter_skips`], not in
//!    [`ReductionOracle::calls`]. Front-end targets skip this filter
//!    entirely — raw-byte bugs (paren storms, identifier overflows) fire
//!    on unparseable input.
//! 3. **Crash check** — every other candidate is judged on its compile's
//!    outcome and counts as one oracle call.
//!
//! On top of the crash check, a **UB guard** keeps reduced witnesses
//! *valid*: a candidate that reproduces the signature but that the
//! campaign's [`UbGate`] judges to introduce undefined behavior absent
//! from the original witness is rejected anyway. ddmin loves deleting
//! initializations; without the guard the minimized reproducer routinely
//! reads uninitialized variables, and a bug report built on a UB program
//! gets bounced by compiler maintainers. The gate runs on the oracle's
//! [`QueryDb`] with the original witness as parent, so it reuses the
//! function-summary memos it shares with the campaign, and it takes the
//! compile's parse rather than parsing again. It never judges a candidate
//! that does not parse — raw-byte crashers reduce exactly as without it.

use metamut_analyze::{QueryDb, UbGate};
use metamut_lang::chash::hash128;
use metamut_lang::fxhash::FxHashMap;
use metamut_simcomp::{CompileOptions, Compiler, Profile, Stage};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A signature-preserving crash oracle over one compiler configuration.
pub struct ReductionOracle {
    compiler: Compiler,
    target: u64,
    /// Pipeline stage of the target crash; anything past the front end
    /// enables the pre-filter.
    target_stage: Stage,
    /// The witness the oracle was built from: the UB guard's parent.
    original: String,
    calls: AtomicU64,
    prefilter_skips: AtomicU64,
    ub_rejects: AtomicU64,
    verdicts: Mutex<FxHashMap<u128, bool>>,
    /// The UB guard, memoizing function summaries on a query database.
    ub_gate: UbGate,
}

impl ReductionOracle {
    /// Builds the oracle *from* a crashing witness: compiles `witness`,
    /// locks onto the signature it produces, arms the pre-filter
    /// with the crash's stage, and makes the witness the UB guard's
    /// baseline. Returns `None` when the witness does not crash this
    /// compiler configuration at all.
    pub fn for_witness(profile: Profile, options: CompileOptions, witness: &str) -> Option<Self> {
        let compiler = Compiler::new(profile, options);
        let (target, target_stage) = {
            let result = compiler.compile(witness);
            let crash = result.outcome.crash()?;
            (crash.signature(), crash.stage)
        };
        Some(ReductionOracle {
            compiler,
            target,
            target_stage,
            original: witness.to_string(),
            calls: AtomicU64::new(0),
            prefilter_skips: AtomicU64::new(0),
            ub_rejects: AtomicU64::new(0),
            verdicts: Mutex::new(FxHashMap::default()),
            ub_gate: UbGate::new(),
        })
    }

    /// Re-homes the oracle's UB guard onto `db` (e.g. the campaign's
    /// shared query database), so reduction reuses every function-summary
    /// memo the campaign already built. Call before the first
    /// [`ReductionOracle::reproduces`].
    #[must_use]
    pub fn with_query_db(mut self, db: Arc<QueryDb>) -> Self {
        self.ub_gate = UbGate::with_db(db);
        self
    }

    /// The crash signature this oracle preserves.
    pub fn target_signature(&self) -> u64 {
        self.target
    }

    /// The pipeline stage of the target crash.
    pub fn target_stage(&self) -> Stage {
        self.target_stage
    }

    /// The compiler configuration under reduction.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Oracle calls so far: every uncached candidate the pre-filter did
    /// not settle (cache hits and pre-filter skips are free).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Candidates the pre-filter settled: their compile stopped at a
    /// front end that could not parse them, against a post-front-end
    /// target.
    pub fn prefilter_skips(&self) -> u64 {
        self.prefilter_skips.load(Ordering::Relaxed)
    }

    /// Candidates that reproduced the crash but were rejected for
    /// introducing undefined behavior absent from the original witness.
    pub fn ub_rejects(&self) -> u64 {
        self.ub_rejects.load(Ordering::Relaxed)
    }

    /// Whether `src` still reproduces the target crash signature.
    pub fn reproduces(&self, src: &str) -> bool {
        let key = hash128(src.as_bytes());
        if let Some(&v) = self.verdicts.lock().get(&key) {
            return v;
        }
        let result = self.compiler.compile(src);
        // Pre-filter on the compile's own front end: a post-front-end
        // crash needs a candidate the front end accepts, so a failed parse
        // settles the verdict. Unsound for front-end targets (raw-byte
        // bugs crash on unparseable input), hence the stage gate.
        let verdict = if self.target_stage != Stage::FrontEnd && result.ast.is_none() {
            self.prefilter_skips.fetch_add(1, Ordering::Relaxed);
            metamut_telemetry::handle().counter_add("reduce_prefilter_skips", 1);
            false
        } else {
            self.calls.fetch_add(1, Ordering::Relaxed);
            metamut_telemetry::handle().counter_add("reduce_oracle_calls", 1);
            let same_crash = result
                .outcome
                .crash()
                .is_some_and(|c| c.signature() == self.target);
            // UB guard: the right crash on an *invalid* program is still a
            // failed candidate.
            if same_crash
                && self
                    .ub_gate
                    .judge_parsed(Some(&self.original), None, src, result.ast.as_ref())
                    .new_ub
            {
                self.ub_rejects.fetch_add(1, Ordering::Relaxed);
                metamut_telemetry::handle().counter_add("reduce_ub_rejects", 1);
                false
            } else {
                same_crash
            }
        };
        self.verdicts.lock().insert(key, verdict);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WITNESS: &str = "foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }";

    /// The Clang #63762 shape (back-end stage): a void function whose body
    /// is a call followed only by labels, with every return removed.
    const BACKEND_WITNESS: &str = "\
void helper(int *x, int *y) { }\n\
void foo(int x[64], int y[64]) {\n\
    helper(x, y);\n\
gt:\n\
    ;\n\
lt:\n\
    ;\n\
}\n";

    #[test]
    fn locks_onto_witness_signature() {
        let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), WITNESS)
            .expect("witness crashes clang-sim");
        assert!(oracle.reproduces(WITNESS));
        // A clean program is not the same crash.
        assert!(!oracle.reproduces("int main(void) { return 0; }"));
        // Neither is a parse error.
        assert!(!oracle.reproduces("int main( {"));
    }

    #[test]
    fn non_crashing_witness_yields_no_oracle() {
        assert!(ReductionOracle::for_witness(
            Profile::Gcc,
            CompileOptions::o0(),
            "int main(void) { return 0; }"
        )
        .is_none());
    }

    #[test]
    fn verdict_cache_avoids_recompiles() {
        let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), WITNESS)
            .expect("witness crashes");
        assert!(oracle.reproduces(WITNESS));
        let after_first = oracle.calls();
        for _ in 0..5 {
            assert!(oracle.reproduces(WITNESS));
        }
        assert_eq!(oracle.calls(), after_first, "repeats must hit the cache");
    }

    #[test]
    fn different_crash_is_rejected() {
        // Lock onto the scalar-brace signature, then offer a paren-stack
        // segfault: a crash, but the wrong one.
        let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), WITNESS)
            .expect("witness crashes");
        let other = format!("int x = {}1;", "(".repeat(50));
        assert!(oracle.compiler().compile(&other).outcome.crash().is_some());
        assert!(!oracle.reproduces(&other));
    }

    #[test]
    fn prefilter_skips_unparseable_candidates_for_backend_target() {
        let oracle =
            ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), BACKEND_WITNESS)
                .expect("witness crashes clang-sim in the back end");
        assert_eq!(oracle.target_stage(), Stage::BackEnd);
        let calls_before = oracle.calls();
        assert!(!oracle.reproduces("void foo( {"));
        assert!(!oracle.reproduces("@@@ garbage @@@"));
        assert_eq!(oracle.prefilter_skips(), 2);
        assert_eq!(
            oracle.calls(),
            calls_before,
            "pre-filtered candidates are not oracle calls"
        );
        // Skipped verdicts are cached like any other.
        assert!(!oracle.reproduces("void foo( {"));
        assert_eq!(oracle.prefilter_skips(), 2);
        // Parseable candidates still go through the compiler.
        assert!(oracle.reproduces(BACKEND_WITNESS));
        assert!(oracle.calls() > calls_before);
    }

    #[test]
    fn prefilter_settles_only_what_does_not_parse() {
        // The pre-filter is the parse, not the type check: a candidate
        // that parses but fails sema is a full oracle call.
        let oracle =
            ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), BACKEND_WITNESS)
                .expect("witness crashes clang-sim in the back end");
        let calls_before = oracle.calls();
        assert!(!oracle.reproduces("int f(void) { return undeclared; }"));
        assert_eq!(oracle.prefilter_skips(), 0);
        assert_eq!(oracle.calls(), calls_before + 1);
        assert!(!oracle.reproduces("int f(void) { return 0 }"));
        assert_eq!(oracle.prefilter_skips(), 1);
        assert_eq!(oracle.calls(), calls_before + 1);
    }

    #[test]
    fn front_end_target_disables_prefilter() {
        // A raw-byte paren storm crashes the front end *without* parsing;
        // pre-filtering would wrongly reject the witness itself.
        let storm = format!("int x = {}1;", "(".repeat(50));
        let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), &storm)
            .expect("paren storm crashes clang-sim");
        assert_eq!(oracle.target_stage(), Stage::FrontEnd);
        let shorter = format!("int x = {}1;", "(".repeat(30));
        assert!(oracle.reproduces(&shorter));
        assert_eq!(oracle.prefilter_skips(), 0);
    }

    #[test]
    fn oracle_verdicts_agree_with_cold_compiles() {
        // Every verdict matches a direct compile's signature, on UB-free
        // candidates that edit one declaration of the witness, change the
        // declaration count, or share nothing at all.
        let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o2(), WITNESS)
            .expect("witness crashes at -O2 too");
        let candidates = [
            WITNESS.to_string(),
            // Single-declaration edit of the witness.
            "foo(int *ptr) { *ptr = (int) {{}, 0}; }".to_string(),
            // Crash expression removed: clean compile, verdict false.
            "foo(int *ptr) { *ptr = 0; return 0; }".to_string(),
            // Declaration count changed.
            format!("int pad(void) {{ return 3; }}\n{WITNESS}"),
            // Different shape entirely.
            "int main(void) { return 1; }".to_string(),
        ];
        for c in &candidates {
            let cold = oracle
                .compiler()
                .compile(c)
                .outcome
                .crash()
                .is_some_and(|crash| crash.signature() == oracle.target_signature());
            assert_eq!(oracle.reproduces(c), cold, "candidate {c:?}");
        }
    }

    #[test]
    fn ub_guard_rejects_candidates_with_new_ub() {
        let oracle =
            ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), BACKEND_WITNESS)
                .expect("witness crashes");
        // Prepend an unrelated uninitialized read: same crash signature
        // (compiled below to prove it), but the program is now invalid.
        let candidate = format!("static int mm_ub(void) {{ int z; return z; }}\n{BACKEND_WITNESS}");
        assert_eq!(
            oracle
                .compiler()
                .compile(&candidate)
                .outcome
                .crash()
                .map(|c| c.signature()),
            Some(oracle.target_signature()),
            "candidate must still reproduce the crash for this test to bite"
        );
        assert!(!oracle.reproduces(&candidate), "new UB must be rejected");
        assert_eq!(oracle.ub_rejects(), 1);
        // The clean witness itself still passes.
        assert!(oracle.reproduces(BACKEND_WITNESS));
        assert_eq!(oracle.ub_rejects(), 1);
    }

    #[test]
    fn ub_guard_lets_witness_own_ub_through() {
        // A witness that *already* reads an uninitialized variable: its UB
        // keys form the baseline, so candidates preserving exactly that UB
        // are fine — the guard only fires on *new* UB.
        let witness = format!("static int mm_ub(void) {{ int z; return z; }}\n{BACKEND_WITNESS}");
        let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), &witness)
            .expect("witness still crashes");
        assert!(oracle.reproduces(&witness), "inherited UB is not new UB");
        assert_eq!(oracle.ub_rejects(), 0);
        // A *different* fresh UB (division by zero) is still rejected.
        let other = format!(
            "static int mm_ub(void) {{ int z; return z; }}\nstatic int mm_dz(int a) {{ return a / 0; }}\n{BACKEND_WITNESS}"
        );
        if oracle
            .compiler()
            .compile(&other)
            .outcome
            .crash()
            .is_some_and(|c| c.signature() == oracle.target_signature())
        {
            assert!(!oracle.reproduces(&other));
            assert_eq!(oracle.ub_rejects(), 1);
        }
    }

    #[test]
    fn unanalyzable_witness_disarms_ub_guard() {
        // Raw-byte front-end crashers never parse, and the guard never
        // judges what it cannot parse — reduction behaves exactly as
        // without it.
        let storm = format!("int x = {}1;", "(".repeat(50));
        let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), &storm)
            .expect("paren storm crashes clang-sim");
        let shorter = format!("int x = {}1;", "(".repeat(30));
        assert!(oracle.reproduces(&shorter));
        assert_eq!(oracle.ub_rejects(), 0);
    }
}
