//! # metamut-muast
//!
//! The μAST API layer (Figure 6 of the MetaMut paper): a simplified,
//! readability-first facade over the `metamut-lang` front end, the
//! [`Mutator`] trait mutators implement, a seeded [`rng::MutRng`], node
//! [`collect`]ors that borrow the mutated program's AST, and the
//! [`registry::MutatorRegistry`].
//!
//! In the paper this layer wraps Clang's AST APIs so an LLM can write
//! mutators against something tractable; here it wraps our own front end so
//! sixty-plus mutators stay small and uniform.
//!
//! ```
//! use metamut_lang::ast::{Expr, ExprKind};
//! use metamut_muast::{Category, MutCtx, Mutator, mutate_source};
//!
//! struct FlipTrue;
//! impl Mutator for FlipTrue {
//!     fn name(&self) -> &str { "FlipTrue" }
//!     fn description(&self) -> &str { "replace literal 1 with 0" }
//!     fn category(&self) -> Category { Category::Expression }
//!     fn mutate(&self, ctx: &mut MutCtx<'_>) -> bool {
//!         // Borrows of the program's literals, not copies. They borrow the
//!         // program rather than `ctx`, so `ctx` stays free to rewrite.
//!         let ones: Vec<&Expr> = metamut_muast::collect::exprs_matching(ctx.ast(), |e| {
//!             matches!(e.kind, ExprKind::IntLit { value: 1, .. })
//!         });
//!         match ones.first() {
//!             Some(one) => { ctx.replace(one.span, "0"); true }
//!             None => false,
//!         }
//!     }
//! }
//!
//! let out = mutate_source(&FlipTrue, "int x = 1;", 7)?;
//! assert_eq!(out.mutant(), Some("int x = 0;"));
//! # Ok::<(), metamut_muast::MutateError>(())
//! ```

#![warn(missing_docs)]

pub mod collect;
pub mod ctx;
pub mod mutator;
pub mod registry;
pub mod rng;

pub use ctx::MutCtx;
pub use mutator::{
    mutate_parsed, mutate_source, Category, MutateError, MutationOutcome, Mutator, ParsedProgram,
    Provenance,
};
pub use registry::{MutatorRegistry, RegisteredMutator};
pub use rng::MutRng;
