//! # metamut-reduce
//!
//! Crash triage and signature-preserving test-case reduction: the step that
//! turns a campaign's raw crash list into the paper's §5 case-study shape —
//! one *minimal witness program* plus trigger flags per unique bug.
//!
//! The pipeline has three layers:
//!
//! - [`oracle::ReductionOracle`] — re-runs `metamut-simcomp` under the
//!   original `Profile`/flags and accepts a candidate only if it crashes
//!   with the identical top-two-frame signature and introduces no UB the
//!   original witness lacks (verdict-cached).
//! - [`reducer::reduce`] — hierarchical delta debugging over the real
//!   `metamut-lang` AST (top-level declarations, then statement lists level
//!   by level) followed by semantic shrink passes: drop unused declarations,
//!   inline trivial calls, simplify expressions to constants, shrink array
//!   dimensions and initializers, and reprint normalization. Unparseable
//!   witnesses (raw byte crashers) fall back to line- and character-level
//!   ddmin. The reducer has no knobs: every witness is reduced under one
//!   fixed round cap, oracle-call budget and adaptive pass order
//!   ([`ReduceConfig`] is a fieldless stand-in kept for one caller).
//! - [`triage::triage_crashes`] — buckets `CrashRecord`s by signature,
//!   reduces the smallest witness per bucket across N worker threads, and
//!   emits a [`triage::TriageReport`] (JSON + markdown).
//!
//! ```
//! use metamut_reduce::{ReductionOracle, reduce, ReduceConfig};
//! use metamut_simcomp::{CompileOptions, Profile};
//!
//! let witness = "int dead(void) { return 1; }\n\
//!                foo(int *ptr) { *ptr = (int) {{}, 0}; return 0; }";
//! let oracle = ReductionOracle::for_witness(Profile::Clang, CompileOptions::o0(), witness)
//!     .expect("witness crashes clang-sim");
//! let result = reduce(&oracle, witness, &ReduceConfig::default());
//! assert!(result.reduced_bytes < witness.len());
//! assert!(oracle.reproduces(&result.reduced));
//! ```

#![warn(missing_docs)]

pub mod ddmin;
pub mod fixtures;
pub mod oracle;
pub mod passes;
pub mod reducer;
pub mod triage;

pub use ddmin::ddmin;
pub use oracle::ReductionOracle;
pub use reducer::{reduce, ReduceConfig, ReduceResult};
pub use triage::{triage_crashes, BugReport, TriageConfig, TriageReport};
