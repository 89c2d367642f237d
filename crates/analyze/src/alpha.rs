//! α-equivalence of programs: the no-op-mutant lint.
//!
//! Two programs are α-equivalent when their *reprinted* ASTs differ at
//! most by a consistent renaming of identifiers. The check canonicalizes
//! each program — parse, pretty-print (which normalizes whitespace,
//! comments, literal spellings, and redundant parentheses dropped by the
//! printer), re-lex, and replace every identifier with `vN` in order of
//! first occurrence — and compares the canonical token streams.
//! Canonical-form equality holds exactly when a consistent identifier
//! bijection exists, so this is α-equivalence on the token level (more
//! conservative than scope-aware renaming: a mutant that renames a
//! variable into collision with an unrelated member name is *not*
//! reported as a no-op).

use metamut_lang::fxhash::FxHashMap;
use metamut_lang::lexer::lex;
use metamut_lang::printer::print_unit;
use metamut_lang::token::TokenKind;
use metamut_lang::{parse, Span};

use crate::findings::{Finding, Severity};

/// One canonical token: its kind plus its canonicalized spelling.
type CanonTok = (TokenKind, String);

fn canonical_tokens(src: &str) -> Option<Vec<CanonTok>> {
    let ast = parse("<alpha>", src).ok()?;
    let printed = print_unit(&ast);
    let tokens = lex(&printed).ok()?;
    let mut rename: FxHashMap<String, String> = FxHashMap::default();
    let mut out = Vec::with_capacity(tokens.len());
    for t in tokens {
        if t.kind == TokenKind::Eof {
            break;
        }
        let text = &printed[t.span.lo as usize..t.span.hi as usize];
        let spelling = if t.kind == TokenKind::Ident {
            let next = rename.len();
            rename
                .entry(text.to_owned())
                .or_insert_with(|| format!("v{next}"))
                .clone()
        } else {
            text.to_owned()
        };
        out.push((t.kind, spelling));
    }
    Some(out)
}

/// Whether `a` and `b` are α-equivalent after reprinting. Returns `None`
/// when either side fails to parse (the question is then meaningless).
pub fn alpha_equivalent(a: &str, b: &str) -> Option<bool> {
    Some(canonical_tokens(a)? == canonical_tokens(b)?)
}

/// The no-op-mutant lint: a [`Severity::Lint`] finding when `mutant` is
/// α-equivalent to `parent` — the mutation spent a compile on a program
/// the compiler has effectively already seen.
pub fn check_noop_mutant(parent: &str, mutant: &str) -> Option<Finding> {
    if alpha_equivalent(parent, mutant)? {
        Some(Finding {
            analysis: "noop-mutant",
            severity: Severity::Lint,
            function: "<unit>".to_owned(),
            span: Span::new(0, 0),
            message: "mutant is alpha-equivalent to its parent: the rewrite is a no-op".to_owned(),
            chain: Vec::new(),
        })
    } else {
        None
    }
}
