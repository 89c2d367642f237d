//! The [`Mutator`] trait and the driver that applies one to a source
//! program, mirroring the paper's `bool mutate()` contract.

use crate::ctx::MutCtx;
use metamut_lang::error::Diagnostics;
use metamut_lang::rewrite::RewriteConflict;
use metamut_lang::{analyze, parse};
use std::fmt;

/// Mutator categories from §4.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Mutates variable declarations and uses.
    Variable,
    /// Mutates expressions.
    Expression,
    /// Mutates statements and control flow.
    Statement,
    /// Mutates function signatures/bodies.
    Function,
    /// Mutates types.
    Type,
}

impl Category {
    /// All categories in the paper's presentation order.
    pub const ALL: [Category; 5] = [
        Category::Variable,
        Category::Expression,
        Category::Statement,
        Category::Function,
        Category::Type,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Variable => "Variable",
            Category::Expression => "Expression",
            Category::Statement => "Statement",
            Category::Function => "Function",
            Category::Type => "Type",
        };
        f.write_str(s)
    }
}

/// How a mutator came to exist (§4: supervised vs unsupervised generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// From the supervised set M_s (human-in-the-loop refinement).
    Supervised,
    /// From the unsupervised set M_u (fully automatic runs).
    Unsupervised,
}

/// A semantic-aware mutation operator.
///
/// Implementations follow the template of Figure 2: traverse, collect
/// mutation instances, pick one at random, check validity, queue rewrites,
/// and report whether anything changed.
pub trait Mutator: Send + Sync {
    /// The mutator's CamelCase name (e.g. `"ModifyFunctionReturnTypeToVoid"`).
    fn name(&self) -> &str;

    /// The one-sentence natural-language description the name stands for.
    fn description(&self) -> &str;

    /// Which program-structure category the mutator targets.
    fn category(&self) -> Category;

    /// Applies the mutator, queuing rewrites on `ctx`.
    ///
    /// Returns `true` if a mutation instance was found and rewritten.
    fn mutate(&self, ctx: &mut MutCtx<'_>) -> bool;
}

/// Outcome of running a mutator over a source program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The mutator rewrote the program; here is the mutant source.
    Mutated(String),
    /// The targeted program structure does not occur; nothing changed.
    NotApplicable,
}

impl MutationOutcome {
    /// The mutant source, if one was produced.
    pub fn mutant(&self) -> Option<&str> {
        match self {
            MutationOutcome::Mutated(s) => Some(s),
            MutationOutcome::NotApplicable => None,
        }
    }
}

/// Why a mutation attempt failed.
#[derive(Debug, Clone)]
pub enum MutateError {
    /// The input program itself does not compile.
    BadInput(Diagnostics),
    /// The mutator queued overlapping rewrites.
    Conflict(RewriteConflict),
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::BadInput(d) => write!(f, "input does not compile: {d}"),
            MutateError::Conflict(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for MutateError {}

/// A parsed-and-checked program, ready for repeated mutation.
///
/// Parsing and semantic analysis dominate a mutation attempt's cost, yet
/// μCFuzz's inner loop (Algorithm 1) tries several mutators against the
/// *same* parent. A `ParsedProgram` front-loads that work once so every
/// attempt reuses the AST and semantic tables — the seed-pool AST cache
/// hands out shared `Arc<ParsedProgram>`s built through here.
///
/// Every construction bumps the `muast_parses` telemetry counter, which is
/// how campaigns prove the re-parse count per candidate dropped to ≤ 1.
#[derive(Debug)]
pub struct ParsedProgram {
    ast: metamut_lang::ast::Ast,
    sema: metamut_lang::sema::SemaResult,
}

impl ParsedProgram {
    /// Parses and semantically checks `src`.
    ///
    /// # Errors
    ///
    /// [`MutateError::BadInput`] if `src` does not compile.
    pub fn parse(src: &str) -> Result<Self, MutateError> {
        metamut_telemetry::handle().counter_add("muast_parses", 1);
        let ast = parse("<seed>", src).map_err(MutateError::BadInput)?;
        let sema = analyze(&ast).map_err(MutateError::BadInput)?;
        Ok(ParsedProgram { ast, sema })
    }

    /// A program some other pass already front-ended: `ast` and the
    /// `sema` analysis of it, as a compile hands them back. Parses
    /// nothing, so it bumps no counter.
    pub fn from_parts(ast: metamut_lang::ast::Ast, sema: metamut_lang::sema::SemaResult) -> Self {
        ParsedProgram { ast, sema }
    }

    /// The parsed AST.
    pub fn ast(&self) -> &metamut_lang::ast::Ast {
        &self.ast
    }

    /// The semantic tables.
    pub fn sema(&self) -> &metamut_lang::sema::SemaResult {
        &self.sema
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        self.ast.source()
    }
}

/// Applies `m` to an already-parsed program, returning the mutant text.
///
/// This is the cached fast path behind [`mutate_source`]: the outcome for a
/// given `(mutator, program, seed)` triple is bit-for-bit identical whether
/// the program was parsed freshly or fetched from a seed-pool cache,
/// because the mutation RNG is seeded solely by `seed`.
///
/// Records the per-mutator `mutator_attempts{Name}` /
/// `mutator_applied{Name}` telemetry counters.
///
/// # Errors
///
/// [`MutateError::Conflict`] if the mutator queued overlapping edits.
pub fn mutate_parsed(
    m: &dyn Mutator,
    parsed: &ParsedProgram,
    seed: u64,
) -> Result<MutationOutcome, MutateError> {
    let telemetry = metamut_telemetry::handle();
    let timed = telemetry.enabled();
    let start = timed.then(std::time::Instant::now);
    if timed {
        telemetry.counter_add(&metamut_telemetry::labeled("mutator_attempts", m.name()), 1);
    }
    let observe_time = |applied: bool| {
        if let Some(start) = start {
            // Per-mutator wall time feeds the report's attribution table;
            // hot-path variant so no sink event is emitted per attempt.
            telemetry.observe_hot(
                &metamut_telemetry::labeled("mutator_ms", m.name()),
                start.elapsed().as_secs_f64() * 1e3,
            );
            if applied {
                telemetry.counter_add(&metamut_telemetry::labeled("mutator_applied", m.name()), 1);
            }
        }
    };
    let mut ctx = MutCtx::new(&parsed.ast, &parsed.sema, seed);
    let changed = m.mutate(&mut ctx);
    if !changed || !ctx.changed() {
        observe_time(false);
        return Ok(MutationOutcome::NotApplicable);
    }
    let out = ctx.finish().map_err(MutateError::Conflict)?;
    observe_time(true);
    Ok(MutationOutcome::Mutated(out))
}

/// Parses, checks and mutates `src` with `m`, returning the mutant text.
///
/// This is the single-step driver used by the validation harness and the
/// CLI. Hot loops that retry several mutators against one parent should
/// parse once with [`ParsedProgram::parse`] and call [`mutate_parsed`] per
/// attempt instead.
///
/// # Errors
///
/// [`MutateError::BadInput`] if `src` does not compile;
/// [`MutateError::Conflict`] if the mutator queued overlapping edits.
pub fn mutate_source(
    m: &dyn Mutator,
    src: &str,
    seed: u64,
) -> Result<MutationOutcome, MutateError> {
    let parsed = ParsedProgram::parse(src)?;
    mutate_parsed(m, &parsed, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamut_lang::source::Span;

    /// A toy mutator that rewrites the first integer literal to 0.
    struct ZeroLiteral;

    impl Mutator for ZeroLiteral {
        fn name(&self) -> &str {
            "ZeroLiteral"
        }
        fn description(&self) -> &str {
            "replace an integer literal with 0"
        }
        fn category(&self) -> Category {
            Category::Expression
        }
        fn mutate(&self, ctx: &mut MutCtx<'_>) -> bool {
            let lits = crate::collect::exprs_matching(ctx.ast(), |e| {
                matches!(e.kind, metamut_lang::ast::ExprKind::IntLit { .. })
            });
            let Some(lit) = lits.first() else {
                return false;
            };
            ctx.replace(lit.span, "0");
            true
        }
    }

    #[test]
    fn driver_produces_mutant() {
        let out = mutate_source(&ZeroLiteral, "int f(void) { return 7; }", 1).unwrap();
        assert_eq!(out.mutant().unwrap(), "int f(void) { return 0; }");
    }

    #[test]
    fn parsed_program_reuse_matches_fresh_parse() {
        // One parse, many attempts: every (mutator, seed) outcome must be
        // bit-for-bit identical to the parse-per-attempt driver.
        let src = "int f(void) { return 7; } int g(int a) { return a + 7; }";
        let parsed = ParsedProgram::parse(src).unwrap();
        assert_eq!(parsed.source(), src);
        for seed in 0..16u64 {
            let cached = mutate_parsed(&ZeroLiteral, &parsed, seed).unwrap();
            let fresh = mutate_source(&ZeroLiteral, src, seed).unwrap();
            assert_eq!(cached, fresh, "seed {seed}");
        }
    }

    #[test]
    fn parsed_program_rejects_bad_input() {
        assert!(matches!(
            ParsedProgram::parse("int f( {"),
            Err(MutateError::BadInput(_))
        ));
    }

    #[test]
    fn driver_not_applicable() {
        let out = mutate_source(&ZeroLiteral, "void f(void) { }", 1).unwrap();
        assert_eq!(out, MutationOutcome::NotApplicable);
    }

    #[test]
    fn driver_rejects_bad_input() {
        assert!(matches!(
            mutate_source(&ZeroLiteral, "int f( {", 1),
            Err(MutateError::BadInput(_))
        ));
    }

    #[test]
    fn conflict_detected() {
        struct Conflicting;
        impl Mutator for Conflicting {
            fn name(&self) -> &str {
                "Conflicting"
            }
            fn description(&self) -> &str {
                "queue overlapping edits"
            }
            fn category(&self) -> Category {
                Category::Expression
            }
            fn mutate(&self, ctx: &mut MutCtx<'_>) -> bool {
                ctx.replace(Span::new(0, 5), "x");
                ctx.replace(Span::new(3, 8), "y");
                true
            }
        }
        assert!(matches!(
            mutate_source(&Conflicting, "int f(void) { return 7; }", 1),
            Err(MutateError::Conflict(_))
        ));
    }

    #[test]
    fn categories_display() {
        for c in Category::ALL {
            assert!(!c.to_string().is_empty());
        }
    }
}
