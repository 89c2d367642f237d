//! # metamut-lang
//!
//! A self-contained C-subset front end: lexer, recursive-descent parser,
//! typed AST with byte-exact source spans, semantic analysis, a span-based
//! source [`rewrite::Rewriter`], and pretty printers.
//!
//! This crate is the substrate under the whole MetaMut reproduction: it
//! plays the role Clang's AST/Rewriter played for the paper. Mutators (in
//! `metamut-mutators`) traverse [`ast::Ast`]s and queue textual rewrites;
//! validation re-parses and re-checks the mutant with [`compile_check`]; the
//! simulated compiler (`metamut-simcomp`) lowers the same ASTs to IR.
//!
//! ## Quick start
//!
//! ```
//! use metamut_lang::{parse, compile_check};
//!
//! let ast = parse("demo.c", "int twice(int x) { return 2 * x; }")?;
//! assert_eq!(ast.function_defs().count(), 1);
//! assert!(compile_check("int main(void) { return 0; }").is_ok());
//! assert!(compile_check("int main(void) { return undeclared; }").is_err());
//! # Ok::<(), metamut_lang::error::Diagnostics>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod chash;
pub mod error;
pub mod fxhash;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod rewrite;
pub mod sema;
pub mod source;
pub mod token;
pub mod types;
pub mod visit;

pub use ast::Ast;
pub use error::{Diagnostic, Diagnostics};
pub use parser::parse;
pub use rewrite::Rewriter;
pub use sema::{analyze, SemaResult};
pub use source::{SourceFile, Span};

/// Parses and type-checks `src`, returning the AST and semantic tables.
///
/// This is the "does it compile" oracle used throughout the workspace: the
/// MetaMut validation loop (goal #6), the fuzzers' compilable-mutant
/// statistics (Table 5), and the simulated compiler's front end all call it.
///
/// # Errors
///
/// Returns lexical, syntactic or semantic diagnostics on failure.
pub fn compile(src: &str) -> Result<(Ast, SemaResult), Diagnostics> {
    let ast = parse("<input>", src)?;
    let sema = analyze(&ast)?;
    Ok((ast, sema))
}

/// Like [`compile`] but discards the artifacts: a pure compile check.
///
/// # Errors
///
/// Returns the diagnostics that make the program invalid.
pub fn compile_check(src: &str) -> Result<(), Diagnostics> {
    compile(src).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile() {
        let (ast, sema) = compile(
            "struct P { int x; };\n\
             int get(struct P *p) { return p->x; }\n\
             int main(void) { struct P p; p.x = 3; return get(&p); }",
        )
        .unwrap();
        assert_eq!(ast.function_defs().count(), 2);
        assert!(sema.records.contains_key("P"));
    }

    #[test]
    fn compile_check_rejects() {
        assert!(compile_check("int f() { return \"str\" % 3; }").is_err());
        assert!(compile_check("int f( {").is_err());
        assert!(compile_check("int f(void) { return 0 }").is_err());
    }
}
