//! Hand-written lexer for the C subset.
//!
//! Preprocessor directives are skipped line-wise (seed programs in this
//! repository are already preprocessed / directive-free), and both `//` and
//! `/* */` comments are treated as whitespace.

use crate::error::{Diagnostic, Diagnostics, Phase};
use crate::source::Span;
use crate::token::{keyword_from_str, Token, TokenKind};

/// Tokenizes `src` into a token stream terminated by an [`TokenKind::Eof`]
/// token.
///
/// # Errors
///
/// Returns lexical diagnostics (unterminated literals, stray bytes). On error
/// the partially lexed prefix is discarded.
///
/// # Examples
///
/// ```
/// use metamut_lang::lexer::lex;
/// use metamut_lang::token::TokenKind;
/// let toks = lex("int x = 42;").unwrap();
/// assert_eq!(toks[0].kind, TokenKind::KwInt);
/// assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, Diagnostics> {
    let mut lexer = Lexer::new(src);
    lexer.run();
    if lexer.diags.has_errors() {
        Err(lexer.diags)
    } else {
        Ok(lexer.tokens)
    }
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    tokens: Vec<Token>,
    diags: Diagnostics,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            // C averages one token per 2.5 bytes or more, so this one
            // allocation holds the whole stream.
            tokens: Vec::with_capacity(src.len() / 2 + 1),
            diags: Diagnostics::new(),
        }
    }

    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    fn peek2(&self) -> u8 {
        self.src.get(self.pos + 1).copied().unwrap_or(0)
    }

    fn peek3(&self) -> u8 {
        self.src.get(self.pos + 2).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn emit(&mut self, kind: TokenKind, lo: usize) {
        self.tokens
            .push(Token::new(kind, Span::new(lo as u32, self.pos as u32)));
    }

    fn error(&mut self, lo: usize, msg: impl Into<String>) {
        self.diags.push(Diagnostic::error(
            Phase::Lex,
            Span::new(
                lo as u32,
                self.pos.max(lo + 1).min(self.src.len().max(lo + 1)) as u32,
            ),
            msg,
        ));
    }

    fn run(&mut self) {
        loop {
            self.skip_trivia();
            let lo = self.pos;
            if self.pos >= self.src.len() {
                self.emit(TokenKind::Eof, lo);
                return;
            }
            let b = self.peek();
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => self.lex_ident(),
                b'0'..=b'9' => self.lex_number(),
                b'.' => {
                    if self.peek2().is_ascii_digit() {
                        self.lex_number();
                    } else if self.peek2() == b'.' && self.peek3() == b'.' {
                        self.pos += 3;
                        self.emit(TokenKind::Ellipsis, lo);
                    } else {
                        self.pos += 1;
                        self.emit(TokenKind::Dot, lo);
                    }
                }
                b'\'' => self.lex_char(),
                b'"' => self.lex_string(),
                _ => self.lex_punct(),
            }
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let lo = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.src.len() {
                            self.error(lo, "unterminated block comment");
                            return;
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                b'#' => {
                    // Skip a preprocessor directive to end of (logical) line.
                    while self.pos < self.src.len() {
                        if self.peek() == b'\\' && self.peek2() == b'\n' {
                            self.pos += 2;
                            continue;
                        }
                        if self.peek() == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return,
            }
            if self.pos >= self.src.len() {
                return;
            }
        }
    }

    fn lex_ident(&mut self) {
        let lo = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$') {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[lo..self.pos]).unwrap_or("");
        let kind = keyword_from_str(text).unwrap_or(TokenKind::Ident);
        self.emit(kind, lo);
    }

    fn lex_number(&mut self) {
        let lo = self.pos;
        let mut is_float = false;
        if self.peek() == b'0' && matches!(self.peek2(), b'x' | b'X') {
            self.pos += 2;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
        } else {
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
            if self.peek() == b'.' {
                is_float = true;
                self.pos += 1;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), b'e' | b'E') {
                let mut look = self.pos + 1;
                if matches!(self.src.get(look).copied().unwrap_or(0), b'+' | b'-') {
                    look += 1;
                }
                if self.src.get(look).copied().unwrap_or(0).is_ascii_digit() {
                    is_float = true;
                    self.pos = look;
                    while self.peek().is_ascii_digit() {
                        self.pos += 1;
                    }
                }
            }
        }
        // Suffixes: u/U/l/L/ll/LL/f/F in any reasonable combination.
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L') {
            self.pos += 1;
        }
        let float_suffix_ok = is_float || self.src[lo..self.pos].contains(&b'.');
        if float_suffix_ok && matches!(self.peek(), b'f' | b'F') {
            self.pos += 1;
        }
        self.emit(
            if is_float {
                TokenKind::FloatLit
            } else {
                TokenKind::IntLit
            },
            lo,
        );
    }

    fn lex_char(&mut self) {
        let lo = self.pos;
        self.pos += 1; // opening quote
        let mut saw_char = false;
        loop {
            match self.peek() {
                0 | b'\n' => {
                    self.error(lo, "unterminated character literal");
                    return;
                }
                b'\\' => {
                    self.pos += 2;
                    saw_char = true;
                }
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    self.pos += 1;
                    saw_char = true;
                }
            }
        }
        if !saw_char {
            self.error(lo, "empty character literal");
            return;
        }
        self.emit(TokenKind::CharLit, lo);
    }

    fn lex_string(&mut self) {
        let lo = self.pos;
        self.pos += 1; // opening quote
        loop {
            match self.peek() {
                0 | b'\n' => {
                    self.error(lo, "unterminated string literal");
                    return;
                }
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.emit(TokenKind::StrLit, lo);
    }

    fn lex_punct(&mut self) {
        use TokenKind::*;
        let lo = self.pos;
        let b = self.bump();
        let kind = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b':' => Colon,
            b'~' => Tilde,
            b'!' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    Ne
                } else {
                    Bang
                }
            }
            b'+' => match self.peek() {
                b'+' => {
                    self.pos += 1;
                    PlusPlus
                }
                b'=' => {
                    self.pos += 1;
                    PlusEq
                }
                _ => Plus,
            },
            b'-' => match self.peek() {
                b'-' => {
                    self.pos += 1;
                    MinusMinus
                }
                b'=' => {
                    self.pos += 1;
                    MinusEq
                }
                b'>' => {
                    self.pos += 1;
                    Arrow
                }
                _ => Minus,
            },
            b'*' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    StarEq
                } else {
                    Star
                }
            }
            b'/' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    SlashEq
                } else {
                    Slash
                }
            }
            b'%' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    PercentEq
                } else {
                    Percent
                }
            }
            b'&' => match self.peek() {
                b'&' => {
                    self.pos += 1;
                    AmpAmp
                }
                b'=' => {
                    self.pos += 1;
                    AmpEq
                }
                _ => Amp,
            },
            b'|' => match self.peek() {
                b'|' => {
                    self.pos += 1;
                    PipePipe
                }
                b'=' => {
                    self.pos += 1;
                    PipeEq
                }
                _ => Pipe,
            },
            b'^' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    CaretEq
                } else {
                    Caret
                }
            }
            b'<' => match self.peek() {
                b'<' => {
                    self.pos += 1;
                    if self.peek() == b'=' {
                        self.pos += 1;
                        ShlEq
                    } else {
                        Shl
                    }
                }
                b'=' => {
                    self.pos += 1;
                    Le
                }
                _ => Lt,
            },
            b'>' => match self.peek() {
                b'>' => {
                    self.pos += 1;
                    if self.peek() == b'=' {
                        self.pos += 1;
                        ShrEq
                    } else {
                        Shr
                    }
                }
                b'=' => {
                    self.pos += 1;
                    Ge
                }
                _ => Gt,
            },
            b'=' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    EqEq
                } else {
                    Eq
                }
            }
            other => {
                self.error(lo, format!("stray byte 0x{other:02x} in program"));
                return;
            }
        };
        self.emit(kind, lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_decl() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![KwInt, Ident, Eq, IntLit, Semi, Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a <<= b >> c != d->e ... ++f"),
            vec![
                Ident, ShlEq, Ident, Shr, Ident, Ne, Ident, Arrow, Ident, Ellipsis, PlusPlus,
                Ident, Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("0x1f 07 1.5 1e9 .5f 42u 42ull 3.0f"),
            vec![IntLit, IntLit, FloatLit, FloatLit, FloatLit, IntLit, IntLit, FloatLit, Eof]
        );
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            kinds(r#"'a' '\n' "hi \"there\"" "%s""#),
            vec![CharLit, CharLit, StrLit, StrLit, Eof]
        );
    }

    #[test]
    fn comments_and_directives() {
        let src = "#include <stdio.h>\nint /* c */ x; // tail\nint y;";
        assert_eq!(
            kinds(src),
            vec![KwInt, Ident, Semi, KwInt, Ident, Semi, Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("'a").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn stray_byte_errors() {
        assert!(lex("int @ x;").is_err());
    }

    #[test]
    fn spans_are_exact() {
        let toks = lex("ab + cd").unwrap();
        assert_eq!(toks[0].span.lo, 0);
        assert_eq!(toks[0].span.hi, 2);
        assert_eq!(toks[1].span.lo, 3);
        assert_eq!(toks[2].span.lo, 5);
        assert_eq!(toks[2].span.hi, 7);
    }

    #[test]
    fn keywords_vs_idents() {
        assert_eq!(kinds("interior if ifx"), vec![Ident, KwIf, Ident, Eof]);
    }
}
