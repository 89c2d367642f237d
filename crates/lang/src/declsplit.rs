//! Token-level splitting of a translation unit into top-level declaration
//! chunks, each with a position-independent content hash.
//!
//! The UB gate in `metamut-analyze` uses it to find the edited
//! declaration: a mutant is its parent plus one span-sized rewrite, so
//! comparing per-declaration chunk hashes against the parent's identifies
//! the edited declaration without parsing anything.
//!
//! The split is a *heuristic* over bracket depth (it does not parse), and a
//! misjudged boundary is harmless by construction: it changes the chunk
//! hashes, the mutant no longer matches the parent, and the caller falls
//! back to a whole-program analysis. Correctness never depends on the
//! heuristic; only the fast-path rate does.

use crate::chash::Sip128;
use crate::lexer::lex;
use crate::source::Span;
use crate::token::{Token, TokenKind};

/// One top-level declaration chunk of a token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeclChunk {
    /// Index of the chunk's first token in the token stream.
    pub start: usize,
    /// One past the chunk's last token.
    pub end: usize,
    /// Source span from the first token's start to the last token's end.
    pub span: Span,
    /// Position-independent, collision-resistant 128-bit content hash
    /// over the chunk's `(kind, spelling)` token pairs (SipHash-2-4-128,
    /// see [`crate::chash`]).
    pub hash: u128,
}

impl DeclChunk {
    /// The chunk's source text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.span.lo as usize..self.span.hi as usize]
    }
}

/// Lexes `src` and splits it into declaration chunks.
///
/// Returns `None` when the source does not lex.
pub fn split_source(src: &str) -> Option<(Vec<Token>, Vec<DeclChunk>)> {
    let tokens = lex(src).ok()?;
    let chunks = split_decls(src, &tokens);
    Some((tokens, chunks))
}

/// Splits an already-lexed token stream into top-level declaration chunks.
///
/// A chunk ends at a depth-zero `;`, or at a depth-zero `}` that closes a
/// function definition (recognized by an earlier depth-zero `)` — the
/// parameter list). A depth-zero `}` *without* a preceding parameter list
/// (struct/union/enum bodies) only ends the chunk when the next token
/// cannot continue a declarator list.
pub fn split_decls(src: &str, tokens: &[Token]) -> Vec<DeclChunk> {
    let toks: &[Token] = match tokens.last() {
        Some(t) if t.kind == TokenKind::Eof => &tokens[..tokens.len() - 1],
        _ => tokens,
    };
    let mut chunks = Vec::new();
    let mut depth = 0usize;
    let mut start: Option<usize> = None;
    let mut saw_param_list = false;
    for (i, t) in toks.iter().enumerate() {
        if start.is_none() {
            start = Some(i);
            saw_param_list = false;
        }
        match t.kind {
            TokenKind::LParen | TokenKind::LBrace | TokenKind::LBracket => depth += 1,
            TokenKind::RParen => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    saw_param_list = true;
                }
            }
            TokenKind::RBracket => depth = depth.saturating_sub(1),
            TokenKind::RBrace => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    // A function body always ends the declaration; a
                    // struct/union/enum body may be followed by declarators
                    // (`struct S { ... } x, *p;`) or an initializer comma.
                    let continues = !saw_param_list
                        && matches!(
                            toks.get(i + 1).map(|n| n.kind),
                            Some(
                                TokenKind::Semi
                                    | TokenKind::Comma
                                    | TokenKind::Star
                                    | TokenKind::Ident
                                    | TokenKind::LBracket
                                    | TokenKind::Eq
                            )
                        );
                    if !continues {
                        chunks.push(make_chunk(src, toks, start.take().expect("open chunk"), i));
                    }
                }
            }
            TokenKind::Semi if depth == 0 => {
                chunks.push(make_chunk(src, toks, start.take().expect("open chunk"), i));
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        // Trailing tokens that never closed (unterminated declaration):
        // keep them as a final chunk so hashing still covers every byte.
        chunks.push(make_chunk(src, toks, s, toks.len() - 1));
    }
    chunks
}

fn make_chunk(src: &str, toks: &[Token], start: usize, last: usize) -> DeclChunk {
    DeclChunk {
        start,
        end: last + 1,
        span: Span::new(toks[start].span.lo, toks[last].span.hi),
        hash: chunk_hash(src, &toks[start..=last]),
    }
}

/// Position-independent 128-bit content hash of a token slice:
/// SipHash-2-4-128 over the length-framed `(kind, spelling)` pairs.
/// Whitespace and comments do not contribute; identical declarations at
/// different file offsets hash identically. The content-addressed query
/// engine uses this value directly as the shared memo address for a
/// declaration's parse stage, so collision resistance is load-bearing.
pub fn chunk_hash(src: &str, tokens: &[Token]) -> u128 {
    let mut h = Sip128::default();
    for t in tokens {
        if t.kind == TokenKind::Eof {
            continue;
        }
        h.write_u64(t.kind as u64);
        h.write_str(&src[t.span.lo as usize..t.span.hi as usize]);
    }
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(src: &str) -> Vec<DeclChunk> {
        let (_, chunks) = split_source(src).expect("lexes");
        chunks
    }

    #[test]
    fn splits_functions_and_globals() {
        let src = "int g = 1; int f(int a) { return a + g; } void h(void) { }";
        let chunks = split(src);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].text(src), "int g = 1;");
        assert_eq!(chunks[1].text(src), "int f(int a) { return a + g; }");
        assert_eq!(chunks[2].text(src), "void h(void) { }");
    }

    #[test]
    fn struct_with_declarators_stays_one_chunk() {
        let src = "struct S { int x; } s1, *s2; enum E { A, B }; int f(void) { return A; }";
        let chunks = split(src);
        assert_eq!(chunks.len(), 3, "{chunks:?}");
        assert_eq!(chunks[0].text(src), "struct S { int x; } s1, *s2;");
        assert_eq!(chunks[1].text(src), "enum E { A, B };");
    }

    #[test]
    fn hash_is_position_independent() {
        let a = split("int f(void) { return 1; }");
        let padded = "int g;\n\n   int f(void) { return 1; }";
        let b = split(padded);
        assert_eq!(b.len(), 2);
        assert_eq!(a[0].hash, b[1].hash);
        // Whitespace inside the decl does not matter either.
        let c = split("int  f( void )  { return 1; }");
        assert_eq!(a[0].hash, c[0].hash);
        // But content does.
        let d = split("int f(void) { return 2; }");
        assert_ne!(a[0].hash, d[0].hash);
    }

    #[test]
    fn chunk_spans_match_parsed_decl_spans() {
        let src = "typedef int T;\nT g = 3;\nstruct P { T x; };\nint f(T a) { struct P p; p.x = a; return p.x + g; }\n";
        let chunks = split(src);
        let ast = crate::parse("t.c", src).expect("parses");
        assert_eq!(chunks.len(), ast.unit.decls.len());
        for (c, d) in chunks.iter().zip(&ast.unit.decls) {
            let ds = d.span();
            assert!(
                c.span.lo <= ds.lo && ds.hi <= c.span.hi,
                "chunk {c:?} does not cover decl span {ds}"
            );
        }
    }

    #[test]
    fn lex_error_yields_none() {
        assert!(split_source("int x = '\\q").is_none() || !split("int x;").is_empty());
        // Unterminated string is a lex error in this subset.
        let bad = "char *s = \"abc";
        if lex(bad).is_err() {
            assert!(split_source(bad).is_none());
        }
    }

    #[test]
    fn function_pointer_typedef_is_one_chunk() {
        let src = "typedef int (*F)(int); int apply(F f) { return f(1); }";
        let chunks = split(src);
        assert_eq!(chunks.len(), 2, "{chunks:?}");
        assert_eq!(chunks[0].text(src), "typedef int (*F)(int);");
    }
}
