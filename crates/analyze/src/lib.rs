//! # metamut-analyze
//!
//! Dataflow-based UB and validity analysis over `metamut-lang` programs.
//!
//! The paper's validator asks only "does the mutant compile?"; this crate
//! adds the next question — "is the mutant a *meaningful* program?" — and
//! answers it cheaply enough to sit in the campaign hot path:
//!
//! - [`mod@cfg`] builds a statement-level control-flow graph per function,
//!   pruning edges behind syntactically-constant conditions.
//! - [`dataflow`] is a forward worklist engine over join semilattices.
//! - [`analyses`] implements the individual checks: definite and possible
//!   uninitialized reads, division/modulo by a known zero, constant
//!   out-of-bounds indexing, null-pointer dereference of locals,
//!   unreachable code, and infinite loops without observable effects.
//! - [`callgraph`] builds the translation unit's call graph with Tarjan
//!   SCC condensation, ordering summarization bottom-up.
//! - [`summary`] condenses each function into a [`FnSummary`] — parameter
//!   demand, pointee read/write/escape effects, conditional-UB probes,
//!   return lattice, observability and termination — which call sites
//!   consume to make every check interprocedural.
//! - [`alpha`] detects no-op mutants via α-equivalence of reprints.
//! - [`gate`] packages it all as a thread-safe campaign filter: a full
//!   parse of each mutant, checked against its parent's UB baseline, with
//!   content-addressed summary memoization on a shared query database.
//! - [`fixtures`] is the seeded-UB / known-clean corpus the tests and the
//!   `exp_analyze` bench gates run against.
//!
//! Findings carry a source [`Span`](metamut_lang::Span), a [`Severity`]
//! ([`Ub`](Severity::Ub) gates mutants; [`Lint`](Severity::Lint) only
//! informs), and the name of the analysis that produced them.

#![warn(missing_docs)]

pub mod alpha;
pub mod analyses;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod findings;
pub mod fixtures;
pub mod gate;
pub mod summary;

pub use alpha::{alpha_equivalent, check_noop_mutant};
pub use analyses::{
    analyze_function, analyze_function_with, analyze_unit, analyze_unit_with, collect_globals,
    GlobalInfo,
};
pub use callgraph::CallGraph;
pub use findings::{ub_keys, ChainLink, Finding, FindingKey, Severity};
pub use gate::{QueryDb, UbGate};
pub use summary::{summarize_unit, Chain, FnSummary, Summaries};

use metamut_lang::{parse, Diagnostics};

/// Parses and analyzes a whole source file, returning every finding in
/// source order. `Err` carries the parser diagnostics when the program
/// does not parse (analysis is then meaningless).
pub fn analyze_source(src: &str) -> Result<Vec<Finding>, Diagnostics> {
    let ast = parse("<analyze>", src)?;
    Ok(analyze_unit(&ast.unit))
}

/// The first `Ub` finding in `mutant` that its `parent` does not share
/// (validation goal #7). Returns `None` when the mutant parses clean,
/// only repeats UB already present in the parent, or does not parse at
/// all (goal #6 owns that case). An unparseable parent contributes an
/// empty baseline, so any mutant UB counts as new.
pub fn first_new_ub(parent: &str, mutant: &str) -> Option<Finding> {
    let findings = analyze_source(mutant).ok()?;
    let baseline = analyze_source(parent)
        .map(|f| ub_keys(&f))
        .unwrap_or_default();
    findings
        .into_iter()
        .find(|f| f.is_ub() && !baseline.contains(&f.key()))
}
