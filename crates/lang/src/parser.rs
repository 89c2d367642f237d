//! Recursive-descent parser for the C subset.
//!
//! The parser implements the classic "lexer hack": typedef names introduced
//! by earlier declarations are tracked so that `T *p;` parses as a
//! declaration when `T` is a typedef and as a multiplication otherwise.
//! It fails fast on the first syntax error — mutant validation (goal #6 of
//! the MetaMut refinement loop) only needs a compile/no-compile verdict plus
//! a message.

use crate::ast::*;
use crate::error::{Diagnostic, Diagnostics, Phase};
use crate::fxhash::FxHashSet;
use crate::lexer::lex;
use crate::source::{SourceFile, Span};
use crate::token::{Token, TokenKind};

/// Parses `src` into an [`Ast`].
///
/// # Errors
///
/// Returns the accumulated diagnostics if lexing or parsing fails.
///
/// # Examples
///
/// ```
/// let ast = metamut_lang::parser::parse("t.c", "int main(void) { return 0; }")?;
/// assert!(ast.find_function("main").is_some());
/// # Ok::<(), metamut_lang::error::Diagnostics>(())
/// ```
pub fn parse(name: &str, src: &str) -> Result<Ast, Diagnostics> {
    parse_tokens(name, src, lex(src)?)
}

/// Parses the tokens [`lex`] produced from `src` into an [`Ast`]: the
/// second half of [`parse`], for callers that already lexed `src` and
/// use the tokens for something else too.
///
/// # Errors
///
/// Returns the parse diagnostics if parsing fails.
///
/// # Examples
///
/// ```
/// use metamut_lang::{lexer::lex, parser::parse_tokens};
/// let src = "int main(void) { return 0; }";
/// let ast = parse_tokens("t.c", src, lex(src)?)?;
/// assert!(ast.find_function("main").is_some());
/// # Ok::<(), metamut_lang::error::Diagnostics>(())
/// ```
pub fn parse_tokens(name: &str, src: &str, tokens: Vec<Token>) -> Result<Ast, Diagnostics> {
    let file = SourceFile::new(name, src);
    let mut p = Parser::new(&file, tokens);
    match p.parse_translation_unit() {
        Ok(unit) => {
            let node_count = p.next_id;
            let mut exprs = std::mem::take(&mut p.exprs);
            drop(p);
            // Pooled programs keep their AST: give back the slack.
            exprs.shrink_to_fit();
            Ok(Ast {
                file,
                unit,
                exprs,
                node_count,
            })
        }
        Err(()) => Err(p.diags),
    }
}

/// How deep the tree [`parse`] builds may nest. Each nested paren,
/// operand, statement, block, initializer list and declarator level
/// counts one, and so does each step of a left-deep fold (`a+b+c`,
/// `f()()`, `a,b,c`). Deeper input is a parse error instead of a stack
/// overflow.
///
/// The bound is set by debug builds, where the parser's recursive
/// descent takes up to ~25 KiB of stack per level (nested blocks): 64
/// levels parse, type-check, analyze and compile within a 2 MiB thread
/// stack with room to spare. Generated programs and campaign mutants
/// reach about 15.
pub const MAX_NESTING: u32 = 64;

/// Internal abort marker; the real error lives in `Parser::diags`.
type PResult<T> = Result<T, ()>;

struct Parser<'f> {
    file: &'f SourceFile,
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// The unit's expression arena, in completion order.
    exprs: Vec<Expr>,
    typedefs: FxHashSet<Name>,
    diags: Diagnostics,
    /// Nesting level of the node being parsed (see [`MAX_NESTING`]).
    depth: u32,
    /// Deepest level the tree reaches so far; [`Parser::measure`]
    /// scopes it to one subtree.
    high: u32,
}

/// Parsed declaration specifiers.
#[derive(Debug, Clone)]
struct DeclSpecs {
    storage: Storage,
    quals: Quals,
    spec: TypeSpecifier,
    is_typedef: bool,
    is_inline: bool,
    span: Span,
}

#[derive(Debug)]
enum DeclrCore {
    Name(Name, Span),
    Anon,
    Paren(Box<Declarator>),
}

#[derive(Debug)]
enum Suffix {
    Array(Option<ExprId>),
    Func(Vec<ParamDecl>, bool),
}

#[derive(Debug)]
struct Declarator {
    ptrs: Vec<Quals>,
    core: DeclrCore,
    suffixes: Vec<Suffix>,
}

impl Declarator {
    fn apply(self, base: TySyn) -> (TySyn, Option<(Name, Span)>) {
        let mut ty = base;
        for q in self.ptrs {
            ty = TySyn::Pointer {
                pointee: Box::new(ty),
                quals: q,
            };
        }
        for s in self.suffixes.into_iter().rev() {
            ty = match s {
                Suffix::Array(size) => TySyn::Array {
                    elem: Box::new(ty),
                    size,
                },
                Suffix::Func(params, variadic) => TySyn::Function {
                    ret: Box::new(ty),
                    params,
                    variadic,
                },
            };
        }
        match self.core {
            DeclrCore::Name(n, sp) => (ty, Some((n, sp))),
            DeclrCore::Anon => (ty, None),
            DeclrCore::Paren(inner) => inner.apply(ty),
        }
    }
}

impl<'f> Parser<'f> {
    fn new(file: &'f SourceFile, tokens: Vec<Token>) -> Self {
        // About one expression per two tokens in typical C.
        let exprs = Vec::with_capacity(tokens.len() / 2);
        Parser {
            file,
            tokens,
            pos: 0,
            next_id: 0,
            exprs,
            typedefs: FxHashSet::default(),
            diags: Diagnostics::new(),
            depth: 0,
            high: 0,
        }
    }

    // ------------------------------------------------------------------
    // Nesting limit
    // ------------------------------------------------------------------

    /// Records that the tree reaches `h` levels below the current one.
    fn reach(&mut self, h: u32) -> PResult<()> {
        if self.depth + h > MAX_NESTING {
            return self.error(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.high = self.high.max(self.depth + h);
        Ok(())
    }

    /// Moves one level down; the caller restores `depth`.
    fn descend(&mut self) -> PResult<()> {
        self.depth += 1;
        self.reach(0)
    }

    /// Parses a child one level below the current node.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.descend()?;
        let v = f(self);
        self.depth -= 1;
        v
    }

    /// Starts measuring what is parsed next at the current level, for
    /// folds: wrapping an operand pushes all of it one level down, so a
    /// fold needs its operand's [`Parser::height`]. Returns the outer
    /// watermark, which [`Parser::unmeasure`] merges back.
    fn measure(&mut self) -> u32 {
        std::mem::replace(&mut self.high, self.depth)
    }

    /// How many levels below the current one the measured part reaches.
    fn height(&self) -> u32 {
        self.high - self.depth
    }

    fn unmeasure(&mut self, outer: u32) {
        self.high = self.high.max(outer);
    }

    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    /// Moves `e` into the arena.
    fn push(&mut self, e: Expr) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    fn id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn tok(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn kind(&self) -> TokenKind {
        self.tok().kind
    }

    fn peek_kind(&self, n: usize) -> TokenKind {
        self.tokens
            .get(self.pos + n)
            .map(|t| t.kind)
            .unwrap_or(TokenKind::Eof)
    }

    fn text(&self) -> &str {
        self.file.snippet(self.tok().span)
    }

    fn text_at(&self, n: usize) -> &str {
        self.tokens
            .get(self.pos + n)
            .map(|t| self.file.snippet(t.span))
            .unwrap_or("")
    }

    fn bump(&mut self) -> Token {
        let t = self.tok();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.kind() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            self.error(format!("expected {}, found {}", kind, self.kind()))
        }
    }

    fn error<T>(&mut self, msg: impl Into<String>) -> PResult<T> {
        self.diags
            .push(Diagnostic::error(Phase::Parse, self.tok().span, msg));
        Err(())
    }

    fn prev_end(&self) -> u32 {
        if self.pos == 0 {
            0
        } else {
            self.tokens[self.pos - 1].span.hi
        }
    }

    fn is_typedef_name(&self, s: &str) -> bool {
        self.typedefs.contains(s)
    }

    /// Whether the current token starts declaration specifiers.
    fn starts_decl(&self) -> bool {
        let k = self.kind();
        if k.is_decl_specifier_keyword() {
            return true;
        }
        if k == TokenKind::Ident && self.is_typedef_name(self.text()) {
            // `T x`, `T *x`, `T x[..]` — but not `T(...)` which may be a call.
            return matches!(self.peek_kind(1), TokenKind::Ident | TokenKind::Star);
        }
        false
    }

    /// Whether the current token starts a type name (for casts / sizeof).
    fn starts_type_name(&self) -> bool {
        let k = self.kind();
        k.is_type_specifier_keyword()
            || matches!(
                k,
                TokenKind::KwConst | TokenKind::KwVolatile | TokenKind::KwRestrict
            )
            || (k == TokenKind::Ident && self.is_typedef_name(self.text()))
    }

    // ------------------------------------------------------------------
    // Translation unit and external declarations
    // ------------------------------------------------------------------

    fn parse_translation_unit(&mut self) -> PResult<TranslationUnit> {
        let lo = self.tok().span.lo;
        let mut decls = Vec::new();
        while !self.at(TokenKind::Eof) {
            if self.eat(TokenKind::Semi) {
                continue; // stray top-level semicolon
            }
            decls.push(self.parse_external_decl()?);
        }
        let hi = self.prev_end().max(lo);
        Ok(TranslationUnit {
            decls,
            span: Span::new(lo, hi),
        })
    }

    fn parse_external_decl(&mut self) -> PResult<ExternalDecl> {
        let lo = self.tok().span.lo;

        // Implicit-int function definition/declaration: `foo(...)`.
        let implicit_fn = self.kind() == TokenKind::Ident
            && !self.is_typedef_name(self.text())
            && self.peek_kind(1) == TokenKind::LParen;

        let specs = if implicit_fn {
            DeclSpecs {
                storage: Storage::None,
                quals: Quals::NONE,
                spec: TypeSpecifier::Int,
                is_typedef: false,
                is_inline: false,
                span: Span::new(lo, lo),
            }
        } else {
            self.parse_decl_specs(true)?
        };

        if specs.is_typedef {
            let d = self.parse_declarator(false)?;
            let (ty, name) = d.apply(TySyn::Base {
                spec: specs.spec.clone(),
                quals: specs.quals,
            });
            let Some((name, name_span)) = name else {
                return self.error("typedef requires a name");
            };
            self.typedefs.insert(name.clone());
            if self.at(TokenKind::Comma) {
                return self.error("multiple declarators in one typedef are not supported");
            }
            self.expect(TokenKind::Semi)?;
            let id = self.id();
            return Ok(ExternalDecl::Typedef(TypedefDecl {
                id,
                span: Span::new(lo, self.prev_end()),
                name,
                name_span,
                ty,
            }));
        }

        // Tag-only declarations: `struct S { ... };` / `enum E { ... };`
        if self.at(TokenKind::Semi) {
            self.bump();
            let span = Span::new(lo, self.prev_end());
            return match specs.spec {
                TypeSpecifier::RecordDef(mut r) => {
                    r.span = span;
                    Ok(ExternalDecl::Record(*r))
                }
                TypeSpecifier::EnumDef(mut e) => {
                    e.span = span;
                    Ok(ExternalDecl::Enum(*e))
                }
                TypeSpecifier::Struct(name) => Ok(ExternalDecl::Record(RecordDecl {
                    id: self.id(),
                    span,
                    name: Some(name),
                    is_union: false,
                    fields: None,
                })),
                TypeSpecifier::Union(name) => Ok(ExternalDecl::Record(RecordDecl {
                    id: self.id(),
                    span,
                    name: Some(name),
                    is_union: true,
                    fields: None,
                })),
                TypeSpecifier::Enum(name) => Ok(ExternalDecl::Enum(EnumDecl {
                    id: self.id(),
                    span,
                    name: Some(name),
                    enumerators: None,
                })),
                _ => self.error("declaration declares nothing"),
            };
        }

        let specs_end = self.prev_end().max(specs.span.hi);
        let specs_span = Span::new(specs.span.lo, specs_end);

        // First declarator decides function vs variables.
        let d = self.parse_declarator(false)?;
        let (ty, name) = d.apply(TySyn::Base {
            spec: specs.spec.clone(),
            quals: specs.quals,
        });
        let Some((name, name_span)) = name else {
            return self.error("expected a declared name");
        };

        if let TySyn::Function {
            ret,
            params,
            variadic,
        } = ty
        {
            if self.at(TokenKind::LBrace) {
                let body = self.parse_compound_stmt()?;
                let span = Span::new(lo, self.prev_end());
                return Ok(ExternalDecl::Function(FunctionDef {
                    id: self.id(),
                    span,
                    name,
                    name_span,
                    ret_ty: *ret,
                    ret_ty_span: specs_span,
                    params,
                    variadic,
                    body: Some(body),
                    storage: specs.storage,
                    is_inline: specs.is_inline,
                }));
            }
            if self.at(TokenKind::Semi) || self.at(TokenKind::Comma) {
                // Prototype (possibly in a comma group; we split prototypes
                // out as their own external decls for simplicity).
                let is_semi = self.eat(TokenKind::Semi);
                if !is_semi {
                    return self.error("multiple declarators mixing functions are not supported");
                }
                let span = Span::new(lo, self.prev_end());
                return Ok(ExternalDecl::Function(FunctionDef {
                    id: self.id(),
                    span,
                    name,
                    name_span,
                    ret_ty: *ret,
                    ret_ty_span: specs_span,
                    params,
                    variadic,
                    body: None,
                    storage: specs.storage,
                    is_inline: specs.is_inline,
                }));
            }
            return self.error("expected ';' or function body");
        }

        // Variable declaration group.
        let mut vars = Vec::new();
        let mut cur_ty = ty;
        let mut cur_name = name;
        let mut cur_name_span = name_span;
        let mut declr_lo = lo;
        loop {
            let init = if self.eat(TokenKind::Eq) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            let declr_span = Span::new(declr_lo.max(specs_span.lo), self.prev_end());
            vars.push(VarDecl {
                id: self.id(),
                span: declr_span,
                name: cur_name,
                name_span: cur_name_span,
                ty: cur_ty,
                specs_span,
                storage: specs.storage,
                init,
            });
            if !self.eat(TokenKind::Comma) {
                break;
            }
            declr_lo = self.tok().span.lo;
            let d = self.parse_declarator(false)?;
            let (t, n) = d.apply(TySyn::Base {
                spec: specs.spec.clone(),
                quals: specs.quals,
            });
            let Some((n, nsp)) = n else {
                return self.error("expected a declared name");
            };
            cur_ty = t;
            cur_name = n;
            cur_name_span = nsp;
        }
        self.expect(TokenKind::Semi)?;
        Ok(ExternalDecl::Vars(DeclGroup {
            id: self.id(),
            span: Span::new(lo, self.prev_end()),
            vars,
        }))
    }

    // ------------------------------------------------------------------
    // Declaration specifiers and declarators
    // ------------------------------------------------------------------

    fn parse_decl_specs(&mut self, allow_storage: bool) -> PResult<DeclSpecs> {
        use TokenKind::*;
        let lo = self.tok().span.lo;
        let mut storage = Storage::None;
        let mut quals = Quals::NONE;
        let mut is_typedef = false;
        let mut is_inline = false;
        // Accumulated base-type words.
        let mut signedness: Option<bool> = None; // Some(true) = signed
        let mut longs = 0u8;
        let mut short = false;
        let mut complex = false;
        let mut base: Option<TypeSpecifier> = None;
        let mut any = false;

        loop {
            match self.kind() {
                KwTypedef => {
                    is_typedef = true;
                    self.bump();
                }
                KwStatic | KwExtern | KwRegister | KwAuto => {
                    if !allow_storage {
                        return self.error("storage class not allowed here");
                    }
                    storage = match self.kind() {
                        KwStatic => Storage::Static,
                        KwExtern => Storage::Extern,
                        KwRegister => Storage::Register,
                        _ => Storage::Auto,
                    };
                    self.bump();
                }
                KwInline => {
                    is_inline = true;
                    self.bump();
                }
                KwConst => {
                    quals.is_const = true;
                    self.bump();
                }
                KwVolatile => {
                    quals.is_volatile = true;
                    self.bump();
                }
                KwRestrict => {
                    quals.is_restrict = true;
                    self.bump();
                }
                KwVoid => {
                    base = Some(TypeSpecifier::Void);
                    any = true;
                    self.bump();
                }
                KwChar => {
                    base = Some(TypeSpecifier::Char);
                    any = true;
                    self.bump();
                }
                KwShort => {
                    short = true;
                    any = true;
                    self.bump();
                }
                KwInt => {
                    if base.is_none() {
                        base = Some(TypeSpecifier::Int);
                    }
                    any = true;
                    self.bump();
                }
                KwLong => {
                    longs = longs.saturating_add(1);
                    any = true;
                    self.bump();
                }
                KwFloat => {
                    base = Some(TypeSpecifier::Float);
                    any = true;
                    self.bump();
                }
                KwDouble => {
                    base = Some(TypeSpecifier::Double);
                    any = true;
                    self.bump();
                }
                KwSigned => {
                    signedness = Some(true);
                    any = true;
                    self.bump();
                }
                KwUnsigned => {
                    signedness = Some(false);
                    any = true;
                    self.bump();
                }
                KwBool => {
                    base = Some(TypeSpecifier::Bool);
                    any = true;
                    self.bump();
                }
                KwComplex => {
                    complex = true;
                    any = true;
                    self.bump();
                }
                KwStruct | KwUnion => {
                    let r = self.parse_record_spec()?;
                    base = Some(r);
                    any = true;
                }
                KwEnum => {
                    let e = self.parse_enum_spec()?;
                    base = Some(e);
                    any = true;
                }
                Ident if !any && base.is_none() && self.is_typedef_name(self.text()) => {
                    let name = Name::new(self.text());
                    base = Some(TypeSpecifier::Typedef(name));
                    any = true;
                    self.bump();
                }
                _ => break,
            }
        }

        let spec = resolve_spec(base, signedness, longs, short, complex);
        let Some(spec) = spec else {
            return self.error("expected a type specifier");
        };
        Ok(DeclSpecs {
            storage,
            quals,
            spec,
            is_typedef,
            is_inline,
            span: Span::new(lo, self.prev_end().max(lo)),
        })
    }

    fn parse_record_spec(&mut self) -> PResult<TypeSpecifier> {
        let lo = self.tok().span.lo;
        let is_union = self.kind() == TokenKind::KwUnion;
        self.bump();
        let name = if self.at(TokenKind::Ident) {
            let n = Name::new(self.text());
            self.bump();
            Some(n)
        } else {
            None
        };
        if self.eat(TokenKind::LBrace) {
            let mut fields = Vec::new();
            while !self.at(TokenKind::RBrace) {
                self.nested(|p| p.parse_field_decl(&mut fields))?;
            }
            self.expect(TokenKind::RBrace)?;
            let span = Span::new(lo, self.prev_end());
            let id = self.id();
            Ok(TypeSpecifier::RecordDef(Box::new(RecordDecl {
                id,
                span,
                name,
                is_union,
                fields: Some(fields),
            })))
        } else {
            match name {
                Some(n) if is_union => Ok(TypeSpecifier::Union(n)),
                Some(n) => Ok(TypeSpecifier::Struct(n)),
                None => self.error("anonymous struct/union requires a body"),
            }
        }
    }

    fn parse_field_decl(&mut self, out: &mut Vec<FieldDecl>) -> PResult<()> {
        let specs = self.parse_decl_specs(false)?;
        loop {
            let lo = self.tok().span.lo;
            let d = self.parse_declarator(false)?;
            let (ty, name) = d.apply(TySyn::Base {
                spec: specs.spec.clone(),
                quals: specs.quals,
            });
            let Some((name, _)) = name else {
                return self.error("expected a field name");
            };
            let bit_width = if self.eat(TokenKind::Colon) {
                Some(self.parse_conditional_expr()?)
            } else {
                None
            };
            let id = self.id();
            out.push(FieldDecl {
                id,
                span: Span::new(lo.min(specs.span.lo), self.prev_end()),
                name,
                ty,
                bit_width,
            });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Semi)?;
        Ok(())
    }

    fn parse_enum_spec(&mut self) -> PResult<TypeSpecifier> {
        let lo = self.tok().span.lo;
        self.bump(); // enum
        let name = if self.at(TokenKind::Ident) {
            let n = Name::new(self.text());
            self.bump();
            Some(n)
        } else {
            None
        };
        if self.eat(TokenKind::LBrace) {
            let mut enumerators = Vec::new();
            while !self.at(TokenKind::RBrace) {
                let e_lo = self.tok().span.lo;
                let tok = self.expect(TokenKind::Ident)?;
                let e_name = Name::new(self.file.snippet(tok.span));
                let value = if self.eat(TokenKind::Eq) {
                    Some(self.parse_conditional_expr()?)
                } else {
                    None
                };
                let id = self.id();
                enumerators.push(Enumerator {
                    id,
                    span: Span::new(e_lo, self.prev_end()),
                    name: e_name,
                    value,
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBrace)?;
            let span = Span::new(lo, self.prev_end());
            let id = self.id();
            Ok(TypeSpecifier::EnumDef(Box::new(EnumDecl {
                id,
                span,
                name,
                enumerators: Some(enumerators),
            })))
        } else {
            match name {
                Some(n) => Ok(TypeSpecifier::Enum(n)),
                None => self.error("anonymous enum requires a body"),
            }
        }
    }

    /// Parses a (possibly abstract) declarator.
    fn parse_declarator(&mut self, abstract_ok: bool) -> PResult<Declarator> {
        // Each pointer and suffix wraps the type one level deeper.
        let outer = self.depth;
        let mut ptrs = Vec::new();
        while self.eat(TokenKind::Star) {
            self.descend()?;
            let mut q = Quals::NONE;
            loop {
                match self.kind() {
                    TokenKind::KwConst => {
                        q.is_const = true;
                        self.bump();
                    }
                    TokenKind::KwVolatile => {
                        q.is_volatile = true;
                        self.bump();
                    }
                    TokenKind::KwRestrict => {
                        q.is_restrict = true;
                        self.bump();
                    }
                    _ => break,
                }
            }
            ptrs.push(q);
        }

        let core = if self.at(TokenKind::Ident) {
            let tok = self.bump();
            DeclrCore::Name(Name::new(self.file.snippet(tok.span)), tok.span)
        } else if self.at(TokenKind::LParen) && self.is_paren_declarator() {
            self.bump();
            let inner = self.nested(|p| p.parse_declarator(abstract_ok))?;
            self.expect(TokenKind::RParen)?;
            DeclrCore::Paren(Box::new(inner))
        } else if abstract_ok {
            DeclrCore::Anon
        } else {
            return self.error(format!("expected a declarator, found {}", self.kind()));
        };

        let mut suffixes = Vec::new();
        loop {
            if self.eat(TokenKind::LBracket) {
                self.descend()?;
                let size = if self.at(TokenKind::RBracket) {
                    None
                } else {
                    Some(self.parse_assignment_expr()?)
                };
                self.expect(TokenKind::RBracket)?;
                suffixes.push(Suffix::Array(size));
            } else if self.eat(TokenKind::LParen) {
                self.descend()?;
                let (params, variadic) = self.parse_param_list()?;
                self.expect(TokenKind::RParen)?;
                suffixes.push(Suffix::Func(params, variadic));
            } else {
                break;
            }
        }
        self.depth = outer;

        Ok(Declarator {
            ptrs,
            core,
            suffixes,
        })
    }

    /// Distinguishes `(declarator)` from a parameter list at a declarator
    /// position: `(` followed by `*`, `(` or an identifier that is not a
    /// typedef name begins a parenthesized declarator.
    fn is_paren_declarator(&self) -> bool {
        match self.peek_kind(1) {
            TokenKind::Star | TokenKind::LParen | TokenKind::LBracket => true,
            TokenKind::Ident => !self.is_typedef_name(self.text_at(1)),
            _ => false,
        }
    }

    fn parse_param_list(&mut self) -> PResult<(Vec<ParamDecl>, bool)> {
        let mut params = Vec::new();
        let mut variadic = false;
        if self.at(TokenKind::RParen) {
            return Ok((params, variadic));
        }
        // `(void)`
        if self.at(TokenKind::KwVoid) && self.peek_kind(1) == TokenKind::RParen {
            self.bump();
            return Ok((params, variadic));
        }
        // K&R identifier list: `(a, b)` — treated as untyped ints.
        if self.at(TokenKind::Ident)
            && !self.is_typedef_name(self.text())
            && matches!(self.peek_kind(1), TokenKind::Comma | TokenKind::RParen)
        {
            loop {
                let tok = self.expect(TokenKind::Ident)?;
                let name = Name::new(self.file.snippet(tok.span));
                let id = self.id();
                params.push(ParamDecl {
                    id,
                    span: tok.span,
                    name: Some(name),
                    name_span: tok.span,
                    ty: TySyn::int(),
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            return Ok((params, variadic));
        }
        loop {
            if self.eat(TokenKind::Ellipsis) {
                variadic = true;
                break;
            }
            let lo = self.tok().span.lo;
            let specs = self.parse_decl_specs(false)?;
            let d = self.parse_declarator(true)?;
            let (ty, name) = d.apply(TySyn::Base {
                spec: specs.spec.clone(),
                quals: specs.quals,
            });
            let id = self.id();
            let (name, name_span) = match name {
                Some((n, sp)) => (Some(n), sp),
                None => (None, Span::new(lo, lo)),
            };
            params.push(ParamDecl {
                id,
                span: Span::new(lo, self.prev_end()),
                name,
                name_span,
                ty,
            });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok((params, variadic))
    }

    fn parse_type_name(&mut self) -> PResult<TypeName> {
        let lo = self.tok().span.lo;
        let specs = self.parse_decl_specs(false)?;
        let d = self.parse_declarator(true)?;
        let (ty, name) = d.apply(TySyn::Base {
            spec: specs.spec,
            quals: specs.quals,
        });
        if name.is_some() {
            return self.error("type name must not declare an identifier");
        }
        let id = self.id();
        Ok(TypeName {
            id,
            span: Span::new(lo, self.prev_end()),
            ty,
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn parse_compound_stmt(&mut self) -> PResult<Stmt> {
        let lo = self.tok().span.lo;
        self.expect(TokenKind::LBrace)?;
        let mut items = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.at(TokenKind::Eof) {
                return self.error("unexpected end of input in block");
            }
            let item = if self.starts_decl() {
                BlockItem::Decl(self.nested(Self::parse_local_decl)?)
            } else {
                BlockItem::Stmt(self.nested(Self::parse_stmt)?)
            };
            items.push(item);
        }
        self.expect(TokenKind::RBrace)?;
        let id = self.id();
        Ok(Stmt {
            id,
            span: Span::new(lo, self.prev_end()),
            kind: StmtKind::Compound(items),
        })
    }

    fn parse_local_decl(&mut self) -> PResult<DeclGroup> {
        let lo = self.tok().span.lo;
        let specs = self.parse_decl_specs(true)?;
        if specs.is_typedef {
            return self.error("local typedefs are not supported");
        }
        let specs_span = specs.span;
        // Tag-only local declaration.
        if self.at(TokenKind::Semi)
            && matches!(
                specs.spec,
                TypeSpecifier::RecordDef(_) | TypeSpecifier::EnumDef(_)
            )
        {
            self.bump();
            let id = self.id();
            return Ok(DeclGroup {
                id,
                span: Span::new(lo, self.prev_end()),
                vars: Vec::new(),
            });
        }
        let mut vars = Vec::new();
        loop {
            let declr_lo = self.tok().span.lo;
            let d = self.parse_declarator(false)?;
            let (ty, name) = d.apply(TySyn::Base {
                spec: specs.spec.clone(),
                quals: specs.quals,
            });
            let Some((name, name_span)) = name else {
                return self.error("expected a declared name");
            };
            let init = if self.eat(TokenKind::Eq) {
                Some(self.parse_initializer()?)
            } else {
                None
            };
            let id = self.id();
            vars.push(VarDecl {
                id,
                span: Span::new(declr_lo.min(specs_span.lo), self.prev_end()),
                name,
                name_span,
                ty,
                specs_span,
                storage: specs.storage,
                init,
            });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Semi)?;
        let id = self.id();
        Ok(DeclGroup {
            id,
            span: Span::new(lo, self.prev_end()),
            vars,
        })
    }

    fn parse_initializer(&mut self) -> PResult<Initializer> {
        if self.at(TokenKind::LBrace) {
            let lo = self.tok().span.lo;
            self.bump();
            let mut items = Vec::new();
            while !self.at(TokenKind::RBrace) {
                items.push(self.nested(Self::parse_initializer)?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBrace)?;
            let id = self.id();
            Ok(Initializer::List {
                id,
                span: Span::new(lo, self.prev_end()),
                items,
            })
        } else {
            Ok(Initializer::Expr(self.parse_assignment_expr()?))
        }
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        use TokenKind::*;
        let lo = self.tok().span.lo;
        match self.kind() {
            LBrace => self.parse_compound_stmt(),
            Semi => {
                self.bump();
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Null,
                })
            }
            KwIf => {
                self.bump();
                self.expect(LParen)?;
                let cond = self.parse_expr()?;
                self.expect(RParen)?;
                let then_stmt = Box::new(self.nested(Self::parse_stmt)?);
                let else_stmt = if self.eat(KwElse) {
                    Some(Box::new(self.nested(Self::parse_stmt)?))
                } else {
                    None
                };
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::If {
                        cond,
                        then_stmt,
                        else_stmt,
                    },
                })
            }
            KwWhile => {
                self.bump();
                self.expect(LParen)?;
                let cond = self.parse_expr()?;
                self.expect(RParen)?;
                let body = Box::new(self.nested(Self::parse_stmt)?);
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::While { cond, body },
                })
            }
            KwDo => {
                self.bump();
                let body = Box::new(self.nested(Self::parse_stmt)?);
                self.expect(KwWhile)?;
                self.expect(LParen)?;
                let cond = self.parse_expr()?;
                self.expect(RParen)?;
                self.expect(Semi)?;
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::DoWhile { body, cond },
                })
            }
            KwFor => {
                self.bump();
                self.expect(LParen)?;
                let init = if self.eat(Semi) {
                    None
                } else if self.starts_decl() {
                    let g = self.parse_local_decl()?; // consumes ';'
                    Some(Box::new(ForInit::Decl(g)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(Semi)?;
                    Some(Box::new(ForInit::Expr(e)))
                };
                let cond = if self.at(Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Semi)?;
                let step = if self.at(RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(RParen)?;
                let body = Box::new(self.nested(Self::parse_stmt)?);
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                })
            }
            KwSwitch => {
                self.bump();
                self.expect(LParen)?;
                let cond = self.parse_expr()?;
                self.expect(RParen)?;
                let body = Box::new(self.nested(Self::parse_stmt)?);
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Switch { cond, body },
                })
            }
            KwCase => {
                self.bump();
                let expr = self.parse_conditional_expr()?;
                self.expect(Colon)?;
                let stmt = Box::new(self.nested(Self::parse_stmt)?);
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Case { expr, stmt },
                })
            }
            KwDefault => {
                self.bump();
                self.expect(Colon)?;
                let stmt = Box::new(self.nested(Self::parse_stmt)?);
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Default { stmt },
                })
            }
            KwBreak => {
                self.bump();
                self.expect(Semi)?;
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Break,
                })
            }
            KwContinue => {
                self.bump();
                self.expect(Semi)?;
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Continue,
                })
            }
            KwReturn => {
                self.bump();
                let value = if self.at(Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Semi)?;
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Return(value),
                })
            }
            KwGoto => {
                self.bump();
                let tok = self.expect(Ident)?;
                let name = Name::new(self.file.snippet(tok.span));
                self.expect(Semi)?;
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Goto {
                        name,
                        name_span: tok.span,
                    },
                })
            }
            Ident if self.peek_kind(1) == Colon => {
                let tok = self.bump();
                let name = Name::new(self.file.snippet(tok.span));
                self.bump(); // ':'
                let stmt = Box::new(self.nested(Self::parse_stmt)?);
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Label {
                        name,
                        name_span: tok.span,
                        stmt,
                    },
                })
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect(Semi)?;
                let id = self.id();
                Ok(Stmt {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: StmtKind::Expr(e),
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> PResult<ExprId> {
        let lo = self.tok().span.lo;
        let outer = self.measure();
        let mut e = self.parse_assignment_expr()?;
        let mut h = self.height();
        while self.eat(TokenKind::Comma) {
            let rhs = self.nested(Self::parse_assignment_expr)?;
            h = self.height().max(h + 1);
            self.reach(h)?;
            let id = self.id();
            e = self.push(Expr {
                id,
                span: Span::new(lo, self.prev_end()),
                kind: ExprKind::Comma { lhs: e, rhs },
            });
        }
        self.unmeasure(outer);
        Ok(e)
    }

    fn parse_assignment_expr(&mut self) -> PResult<ExprId> {
        use TokenKind::*;
        let lo = self.tok().span.lo;
        let outer = self.measure();
        let lhs = self.parse_conditional_expr()?;
        let h = self.height();
        self.unmeasure(outer);
        let op = match self.kind() {
            Eq => None,
            PlusEq => Some(BinaryOp::Add),
            MinusEq => Some(BinaryOp::Sub),
            StarEq => Some(BinaryOp::Mul),
            SlashEq => Some(BinaryOp::Div),
            PercentEq => Some(BinaryOp::Rem),
            AmpEq => Some(BinaryOp::BitAnd),
            PipeEq => Some(BinaryOp::BitOr),
            CaretEq => Some(BinaryOp::BitXor),
            ShlEq => Some(BinaryOp::Shl),
            ShrEq => Some(BinaryOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        self.reach(h + 1)?;
        let rhs = self.nested(Self::parse_assignment_expr)?;
        let id = self.id();
        Ok(self.push(Expr {
            id,
            span: Span::new(lo, self.prev_end()),
            kind: ExprKind::Assign { op, lhs, rhs },
        }))
    }

    fn parse_conditional_expr(&mut self) -> PResult<ExprId> {
        let lo = self.tok().span.lo;
        let outer = self.measure();
        let cond = self.parse_binary_expr(1)?;
        let h = self.height();
        self.unmeasure(outer);
        if !self.eat(TokenKind::Question) {
            return Ok(cond);
        }
        self.reach(h + 1)?;
        let then_expr = self.nested(Self::parse_expr)?;
        self.expect(TokenKind::Colon)?;
        let else_expr = self.nested(Self::parse_assignment_expr)?;
        let id = self.id();
        Ok(self.push(Expr {
            id,
            span: Span::new(lo, self.prev_end()),
            kind: ExprKind::Cond {
                cond,
                then_expr,
                else_expr,
            },
        }))
    }

    fn binop_of(kind: TokenKind) -> Option<BinaryOp> {
        use TokenKind::*;
        Some(match kind {
            Star => BinaryOp::Mul,
            Slash => BinaryOp::Div,
            Percent => BinaryOp::Rem,
            Plus => BinaryOp::Add,
            Minus => BinaryOp::Sub,
            Shl => BinaryOp::Shl,
            Shr => BinaryOp::Shr,
            Lt => BinaryOp::Lt,
            Gt => BinaryOp::Gt,
            Le => BinaryOp::Le,
            Ge => BinaryOp::Ge,
            EqEq => BinaryOp::Eq,
            Ne => BinaryOp::Ne,
            Amp => BinaryOp::BitAnd,
            Caret => BinaryOp::BitXor,
            Pipe => BinaryOp::BitOr,
            AmpAmp => BinaryOp::LogAnd,
            PipePipe => BinaryOp::LogOr,
            _ => return None,
        })
    }

    fn parse_binary_expr(&mut self, min_prec: u8) -> PResult<ExprId> {
        let lo = self.tok().span.lo;
        let outer = self.measure();
        let mut lhs = self.parse_cast_expr()?;
        let mut h = self.height();
        while let Some(op) = Self::binop_of(self.kind()) {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.nested(|p| p.parse_binary_expr(prec + 1))?;
            h = self.height().max(h + 1);
            self.reach(h)?;
            let id = self.id();
            lhs = self.push(Expr {
                id,
                span: Span::new(lo, self.prev_end()),
                kind: ExprKind::Binary { op, lhs, rhs },
            });
        }
        self.unmeasure(outer);
        Ok(lhs)
    }

    fn parse_cast_expr(&mut self) -> PResult<ExprId> {
        let lo = self.tok().span.lo;
        if self.at(TokenKind::LParen) {
            // Look ahead: `(` type-start → cast or compound literal.
            let save = self.pos;
            self.bump();
            if self.starts_type_name() {
                let ty = self.nested(Self::parse_type_name)?;
                self.expect(TokenKind::RParen)?;
                if self.at(TokenKind::LBrace) {
                    let init = self.nested(Self::parse_initializer)?;
                    let id = self.id();
                    return Ok(self.push(Expr {
                        id,
                        span: Span::new(lo, self.prev_end()),
                        kind: ExprKind::CompoundLit {
                            ty: Box::new(ty),
                            init: Box::new(init),
                        },
                    }));
                }
                let inner = self.nested(Self::parse_cast_expr)?;
                let id = self.id();
                return Ok(self.push(Expr {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: ExprKind::Cast {
                        ty: Box::new(ty),
                        expr: inner,
                    },
                }));
            }
            self.pos = save;
        }
        self.parse_unary_expr()
    }

    fn parse_unary_expr(&mut self) -> PResult<ExprId> {
        use TokenKind::*;
        let lo = self.tok().span.lo;
        let op = match self.kind() {
            Plus => Some(UnaryOp::Plus),
            Minus => Some(UnaryOp::Minus),
            Bang => Some(UnaryOp::Not),
            Tilde => Some(UnaryOp::BitNot),
            Star => Some(UnaryOp::Deref),
            Amp => Some(UnaryOp::AddrOf),
            PlusPlus => Some(UnaryOp::PreInc),
            MinusMinus => Some(UnaryOp::PreDec),
            Ident => match self.text() {
                "__real__" | "__real" => Some(UnaryOp::Real),
                "__imag__" | "__imag" => Some(UnaryOp::Imag),
                _ => None,
            },
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = if op.is_inc_dec() {
                self.nested(Self::parse_unary_expr)?
            } else {
                self.nested(Self::parse_cast_expr)?
            };
            let id = self.id();
            return Ok(self.push(Expr {
                id,
                span: Span::new(lo, self.prev_end()),
                kind: ExprKind::Unary { op, operand },
            }));
        }
        if self.at(KwSizeof) {
            self.bump();
            if self.at(LParen) {
                let save = self.pos;
                self.bump();
                if self.starts_type_name() {
                    let ty = self.nested(Self::parse_type_name)?;
                    self.expect(RParen)?;
                    let id = self.id();
                    return Ok(self.push(Expr {
                        id,
                        span: Span::new(lo, self.prev_end()),
                        kind: ExprKind::SizeofType(Box::new(ty)),
                    }));
                }
                self.pos = save;
            }
            let operand = self.nested(Self::parse_unary_expr)?;
            let id = self.id();
            return Ok(self.push(Expr {
                id,
                span: Span::new(lo, self.prev_end()),
                kind: ExprKind::SizeofExpr(operand),
            }));
        }
        self.parse_postfix_expr()
    }

    fn parse_postfix_expr(&mut self) -> PResult<ExprId> {
        use TokenKind::*;
        let lo = self.tok().span.lo;
        let outer = self.measure();
        let mut e = self.parse_primary_expr()?;
        let mut h = self.height();
        loop {
            match self.kind() {
                LBracket => {
                    self.bump();
                    let index = self.nested(Self::parse_expr)?;
                    self.expect(RBracket)?;
                    let id = self.id();
                    e = self.push(Expr {
                        id,
                        span: Span::new(lo, self.prev_end()),
                        kind: ExprKind::Index { base: e, index },
                    });
                }
                LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(RParen) {
                        loop {
                            args.push(self.nested(Self::parse_assignment_expr)?);
                            if !self.eat(Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(RParen)?;
                    let id = self.id();
                    e = self.push(Expr {
                        id,
                        span: Span::new(lo, self.prev_end()),
                        kind: ExprKind::Call { callee: e, args },
                    });
                }
                Dot | Arrow => {
                    let arrow = self.kind() == Arrow;
                    self.bump();
                    let tok = self.expect(Ident)?;
                    let member = Name::new(self.file.snippet(tok.span));
                    let id = self.id();
                    e = self.push(Expr {
                        id,
                        span: Span::new(lo, self.prev_end()),
                        kind: ExprKind::Member {
                            base: e,
                            member,
                            arrow,
                        },
                    });
                }
                PlusPlus | MinusMinus => {
                    let op = if self.kind() == PlusPlus {
                        UnaryOp::PostInc
                    } else {
                        UnaryOp::PostDec
                    };
                    self.bump();
                    let id = self.id();
                    e = self.push(Expr {
                        id,
                        span: Span::new(lo, self.prev_end()),
                        kind: ExprKind::Unary { op, operand: e },
                    });
                }
                _ => break,
            }
            // Every suffix wraps `e`, pushing it one level down.
            h = self.height().max(h + 1);
            self.reach(h)?;
        }
        self.unmeasure(outer);
        Ok(e)
    }

    fn parse_primary_expr(&mut self) -> PResult<ExprId> {
        use TokenKind::*;
        let tok = self.tok();
        match tok.kind {
            IntLit => {
                self.bump();
                let text = self.file.snippet(tok.span);
                let (value, unsigned, longs) = decode_int_literal(text);
                let id = self.id();
                Ok(self.push(Expr {
                    id,
                    span: tok.span,
                    kind: ExprKind::IntLit {
                        value,
                        unsigned,
                        longs,
                    },
                }))
            }
            FloatLit => {
                self.bump();
                let text = self.file.snippet(tok.span);
                let trimmed = text.trim_end_matches(|c: char| "fFlL".contains(c));
                let value = trimmed.parse::<f64>().unwrap_or(0.0);
                let single = text.ends_with('f') || text.ends_with('F');
                let id = self.id();
                Ok(self.push(Expr {
                    id,
                    span: tok.span,
                    kind: ExprKind::FloatLit { value, single },
                }))
            }
            CharLit => {
                self.bump();
                let text = self.file.snippet(tok.span);
                let value = decode_char_literal(text);
                let id = self.id();
                Ok(self.push(Expr {
                    id,
                    span: tok.span,
                    kind: ExprKind::CharLit { value },
                }))
            }
            StrLit => {
                // Adjacent string literals concatenate.
                let mut value = String::new();
                let lo = tok.span.lo;
                while self.at(StrLit) {
                    let t = self.bump();
                    push_string_literal(&mut value, self.file.snippet(t.span));
                }
                let id = self.id();
                Ok(self.push(Expr {
                    id,
                    span: Span::new(lo, self.prev_end()),
                    kind: ExprKind::StrLit { value },
                }))
            }
            Ident => {
                self.bump();
                let name = Name::new(self.file.snippet(tok.span));
                let id = self.id();
                Ok(self.push(Expr {
                    id,
                    span: tok.span,
                    kind: ExprKind::Ident(name),
                }))
            }
            LParen => {
                self.bump();
                let inner = self.nested(Self::parse_expr)?;
                self.expect(RParen)?;
                let id = self.id();
                Ok(self.push(Expr {
                    id,
                    span: Span::new(tok.span.lo, self.prev_end()),
                    kind: ExprKind::Paren(inner),
                }))
            }
            _ => self.error(format!("expected an expression, found {}", tok.kind)),
        }
    }
}

fn resolve_spec(
    base: Option<TypeSpecifier>,
    signedness: Option<bool>,
    longs: u8,
    short: bool,
    complex: bool,
) -> Option<TypeSpecifier> {
    use TypeSpecifier::*;
    let unsigned = signedness == Some(false);
    if complex {
        return Some(match base {
            Some(Float) => ComplexFloat,
            _ => ComplexDouble,
        });
    }
    match base {
        Some(Char) => Some(match signedness {
            Some(true) => SChar,
            Some(false) => UChar,
            None => Char,
        }),
        Some(Double) => Some(if longs > 0 { LongDouble } else { Double }),
        Some(Float) => Some(Float),
        Some(Void) => Some(Void),
        Some(Bool) => Some(Bool),
        Some(Int) | None => {
            if short {
                Some(if unsigned { UShort } else { Short })
            } else if longs >= 2 {
                Some(if unsigned { ULongLong } else { LongLong })
            } else if longs == 1 {
                Some(if unsigned { ULong } else { Long })
            } else if base.is_none() && signedness.is_none() && !short && longs == 0 {
                None
            } else {
                Some(if unsigned { UInt } else { Int })
            }
        }
        other => other,
    }
}

/// Decodes a C integer literal (decimal, hex, octal, with suffixes).
pub fn decode_int_literal(text: &str) -> (i128, bool, u8) {
    let digits = text.trim_end_matches(['u', 'U', 'l', 'L']);
    let suffix = &text[digits.len()..];
    let unsigned = suffix.contains(['u', 'U']);
    let longs = suffix.matches(['l', 'L']).count().min(2) as u8;
    let value = if let Some(hex) = digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        i128::from_str_radix(hex, 16).unwrap_or(0)
    } else if digits.len() > 1 && digits.starts_with('0') {
        i128::from_str_radix(&digits[1..], 8).unwrap_or(0)
    } else {
        digits.parse::<i128>().unwrap_or(0)
    };
    (value, unsigned, longs)
}

/// Decodes a character literal including its escape, if any.
pub fn decode_char_literal(text: &str) -> i64 {
    let inner = text
        .strip_prefix('\'')
        .map(|t| t.strip_suffix('\'').unwrap_or(t))
        .unwrap_or(text);
    match inner.strip_prefix('\\') {
        Some(rest) => decode_escape(rest).map_or(0, |(value, _)| i64::from(value)),
        None => inner.chars().next().map_or(0, |c| i64::from(u32::from(c))),
    }
}

/// Decodes a string literal's contents (strips quotes, resolves escapes).
pub fn decode_string_literal(text: &str) -> String {
    let mut out = String::new();
    push_string_literal(&mut out, text);
    out
}

/// Appends the decoded contents of string literal `text` to `out`.
fn push_string_literal(out: &mut String, text: &str) {
    let mut rest = &text[1..text.len().saturating_sub(1)];
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        rest = &rest[i + 1..];
        if let Some((value, len)) = decode_escape(rest) {
            out.push(char::from_u32(value).unwrap_or(char::REPLACEMENT_CHARACTER));
            rest = &rest[len..];
        }
    }
    out.push_str(rest);
}

/// Decodes the escape sequence that follows a backslash at the start of
/// `rest` (C11 6.4.4.4): a simple escape, one to three octal digits, or
/// `x` and hex digits. Returns the value and the bytes consumed, or `None`
/// when `rest` is empty. An unknown escape stands for its character.
fn decode_escape(rest: &str) -> Option<(u32, usize)> {
    let c = rest.chars().next()?;
    Some(match c {
        'n' => (10, 1),
        't' => (9, 1),
        'r' => (13, 1),
        'a' => (7, 1),
        'b' => (8, 1),
        'f' => (12, 1),
        'v' => (11, 1),
        '0'..='7' => {
            let len = rest
                .bytes()
                .take(3)
                .take_while(|b| (b'0'..=b'7').contains(b))
                .count();
            let value = rest
                .bytes()
                .take(len)
                .fold(0, |v, d| v * 8 + u32::from(d - b'0'));
            (value, len)
        }
        'x' => {
            let digits = rest[1..].bytes().take_while(u8::is_ascii_hexdigit);
            let (value, len) = digits.fold((0u32, 1), |(v, n), d| {
                let d = char::from(d).to_digit(16).unwrap_or(0);
                (v.wrapping_mul(16).wrapping_add(d), n + 1)
            });
            (value, len)
        }
        other => (u32::from(other), other.len_utf8()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Ast {
        match parse("test.c", src) {
            Ok(a) => a,
            Err(e) => panic!("parse failed for {src:?}: {e}"),
        }
    }

    fn fails(src: &str) {
        assert!(parse("test.c", src).is_err(), "expected failure: {src:?}");
    }

    #[test]
    fn simple_function() {
        let ast = ok("int main(void) { return 0; }");
        let f = ast.find_function("main").unwrap();
        assert!(f.is_definition());
        assert!(f.params.is_empty());
        assert_eq!(ast.snippet(f.ret_ty_span), "int");
    }

    #[test]
    fn globals_and_groups() {
        let ast = ok("int a, b = 2, *c; static const double d = 1.5;");
        match &ast.unit.decls[0] {
            ExternalDecl::Vars(g) => {
                assert_eq!(g.vars.len(), 3);
                assert_eq!(g.vars[1].name, "b");
                assert!(g.vars[1].init.is_some());
                assert!(g.vars[2].ty.is_pointer());
            }
            other => panic!("expected vars, got {other:?}"),
        }
        match &ast.unit.decls[1] {
            ExternalDecl::Vars(g) => {
                assert_eq!(g.vars[0].storage, Storage::Static);
                assert!(matches!(
                    g.vars[0].ty,
                    TySyn::Base {
                        quals: Quals { is_const: true, .. },
                        ..
                    }
                ));
            }
            other => panic!("expected vars, got {other:?}"),
        }
    }

    #[test]
    fn declarator_shapes() {
        let ast = ok("int *a[3]; int (*b)[3]; int (*f)(int, char); int *g(void);");
        let decls = &ast.unit.decls;
        match &decls[0] {
            ExternalDecl::Vars(g) => {
                // array of pointer
                assert!(matches!(&g.vars[0].ty, TySyn::Array { elem, .. } if elem.is_pointer()));
            }
            _ => panic!(),
        }
        match &decls[1] {
            ExternalDecl::Vars(g) => {
                assert!(
                    matches!(&g.vars[0].ty, TySyn::Pointer { pointee, .. } if pointee.is_array())
                );
            }
            _ => panic!(),
        }
        match &decls[2] {
            ExternalDecl::Vars(g) => {
                assert!(
                    matches!(&g.vars[0].ty, TySyn::Pointer { pointee, .. } if pointee.is_function())
                );
            }
            _ => panic!(),
        }
        match &decls[3] {
            ExternalDecl::Function(f) => {
                assert!(f.body.is_none());
                assert!(f.ret_ty.is_pointer());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn typedef_lexer_hack() {
        let ast = ok("typedef unsigned long size_t; size_t n = 3; int f(size_t x) { return x; }");
        assert_eq!(ast.unit.decls.len(), 3);
        match &ast.unit.decls[1] {
            ExternalDecl::Vars(g) => {
                assert!(matches!(
                    &g.vars[0].ty,
                    TySyn::Base {
                        spec: TypeSpecifier::Typedef(n),
                        ..
                    } if n == "size_t"
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn struct_union_enum() {
        let ast = ok("struct P { int x, y; unsigned f : 3; }; union U { int i; float f; }; enum E { A, B = 5, C };");
        assert!(
            matches!(&ast.unit.decls[0], ExternalDecl::Record(r) if !r.is_union && r.fields.as_ref().unwrap().len() == 3)
        );
        assert!(matches!(&ast.unit.decls[1], ExternalDecl::Record(r) if r.is_union));
        match &ast.unit.decls[2] {
            ExternalDecl::Enum(e) => {
                let es = e.enumerators.as_ref().unwrap();
                assert_eq!(es.len(), 3);
                assert!(es[1].value.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn inline_struct_var() {
        let ast = ok("struct S { int a; } s1, s2;");
        match &ast.unit.decls[0] {
            ExternalDecl::Vars(g) => {
                assert_eq!(g.vars.len(), 2);
                assert!(matches!(
                    g.vars[0].ty,
                    TySyn::Base {
                        spec: TypeSpecifier::RecordDef(_),
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn statements_roundtrip() {
        let src = r#"
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i; }
    while (s > 100) s -= 10;
    do { s++; } while (s < 0);
    switch (n) {
        case 0: s = 1; break;
        case 1:
        case 2: s = 2; break;
        default: s = 3;
    }
    if (s) return s; else return -s;
}
"#;
        let ast = ok(src);
        let f = ast.find_function("f").unwrap();
        let StmtKind::Compound(items) = &f.body.as_ref().unwrap().kind else {
            panic!()
        };
        assert_eq!(items.len(), 6);
    }

    #[test]
    fn goto_and_labels() {
        let ast = ok("void f(void) { goto end; end: ; }");
        let f = ast.find_function("f").unwrap();
        let StmtKind::Compound(items) = &f.body.as_ref().unwrap().kind else {
            panic!()
        };
        assert!(matches!(
            &items[0],
            BlockItem::Stmt(Stmt {
                kind: StmtKind::Goto { name, .. },
                ..
            }) if name == "end"
        ));
    }

    #[test]
    fn expressions() {
        let ast =
            ok("int g(int a, int b) { return a * b + (a ? b : 3) - sizeof(int) + sizeof a; }");
        assert!(ast.find_function("g").is_some());
    }

    #[test]
    fn casts_and_compound_literals() {
        let ast = ok("struct s2 { int a; }; void f(int *p) { *p = (int) {0}; (void)(char)*p; }");
        assert!(ast.find_function("f").is_some());
    }

    #[test]
    fn imag_real_extension() {
        let ast = ok("_Complex double x; double *bar(void) { return (double*)&__imag__ x; }");
        assert!(ast.find_function("bar").is_some());
    }

    #[test]
    fn implicit_int_function() {
        let ast = ok("foo(int *ptr) { return 0; }");
        let f = ast.find_function("foo").unwrap();
        assert!(matches!(
            f.ret_ty,
            TySyn::Base {
                spec: TypeSpecifier::Int,
                ..
            }
        ));
    }

    #[test]
    fn string_concat_and_escapes() {
        let ast = ok(r#"char *s = "a\n" "b";"#);
        match &ast.unit.decls[0] {
            ExternalDecl::Vars(g) => match &g.vars[0].init {
                Some(Initializer::Expr(e)) => {
                    assert!(matches!(&ast[*e].kind, ExprKind::StrLit { value } if value == "a\nb"));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn int_literal_decode() {
        assert_eq!(decode_int_literal("42"), (42, false, 0));
        assert_eq!(decode_int_literal("0x1F"), (31, false, 0));
        assert_eq!(decode_int_literal("010"), (8, false, 0));
        assert_eq!(decode_int_literal("7ull"), (7, true, 2));
        assert_eq!(decode_int_literal("0x01234567"), (0x01234567, false, 0));
        assert_eq!(decode_int_literal("0XffUL"), (255, true, 1));
        assert_eq!(decode_int_literal("0"), (0, false, 0));
        assert_eq!(decode_int_literal("5Ll"), (5, false, 2));
    }

    #[test]
    fn char_literal_decode() {
        assert_eq!(decode_char_literal("'a'"), 97);
        assert_eq!(decode_char_literal("'\\n'"), 10);
        assert_eq!(decode_char_literal("'\\0'"), 0);
        assert_eq!(decode_char_literal("'\\x41'"), 0x41);
    }

    #[test]
    fn char_literal_simple_escapes() {
        for (text, value) in [
            ("'\\a'", 7),
            ("'\\b'", 8),
            ("'\\f'", 12),
            ("'\\v'", 11),
            ("'\\r'", 13),
            ("'\\t'", 9),
            ("'\\\\'", 92),
            ("'\\''", 39),
            ("'\\\"'", 34),
            ("'\\?'", 63),
        ] {
            assert_eq!(decode_char_literal(text), value, "{text}");
        }
    }

    #[test]
    fn char_literal_octal_escapes() {
        assert_eq!(decode_char_literal("'\\101'"), 65);
        assert_eq!(decode_char_literal("'\\7'"), 7);
        assert_eq!(decode_char_literal("'\\12'"), 10);
        assert_eq!(decode_char_literal("'\\012'"), 10);
        assert_eq!(decode_char_literal("'\\377'"), 255);
    }

    #[test]
    fn char_literal_hex_escapes() {
        assert_eq!(decode_char_literal("'\\xff'"), 255);
        assert_eq!(decode_char_literal("'\\x7F'"), 127);
        assert_eq!(decode_char_literal("'\\x0'"), 0);
    }

    #[test]
    fn string_literal_simple_escapes() {
        assert_eq!(
            decode_string_literal(r#""\a\b\f\v\n\t\r\\\"\'\?""#),
            "\u{7}\u{8}\u{c}\u{b}\n\t\r\\\"'?"
        );
    }

    #[test]
    fn string_literal_octal_escapes() {
        assert_eq!(decode_string_literal(r#""\012""#), "\n");
        assert_eq!(decode_string_literal(r#""\0""#), "\0");
        assert_eq!(decode_string_literal(r#""\1011""#), "A1");
        assert_eq!(decode_string_literal(r#""a\7b""#), "a\u{7}b");
    }

    #[test]
    fn string_literal_hex_escapes() {
        assert_eq!(decode_string_literal(r#""\x41""#), "A");
        assert_eq!(decode_string_literal(r#""\x41g""#), "Ag");
        assert_eq!(decode_string_literal(r#""x\x7e""#), "x~");
    }

    #[test]
    fn syntax_errors() {
        fails("int x");
        fails("int f( { }");
        fails("void f(void) { if (x) }");
        fails("int 3x;");
        fails("void f(void) { return };");
    }

    #[test]
    fn spans_cover_source() {
        let src = "int add(int a, int b) { return a + b; }";
        let ast = ok(src);
        let f = ast.find_function("add").unwrap();
        assert_eq!(ast.snippet(f.span), src);
        assert_eq!(ast.snippet(f.name_span), "add");
        assert_eq!(ast.snippet(f.params[0].span), "int a");
    }

    #[test]
    fn node_ids_unique() {
        let ast = ok("int f(void) { int x = 1; return x + 2; }");
        assert!(ast.node_count > 5);
    }

    #[test]
    fn variadic_params() {
        let ast = ok("int printf(const char *fmt, ...); void f(void) { printf(\"%d\", 3); }");
        let p = ast.find_function("printf").unwrap();
        assert!(p.variadic);
        assert_eq!(p.params.len(), 1);
    }

    #[test]
    fn array_dims_multi() {
        let ast = ok("int r[6]; int m[2][3];");
        match &ast.unit.decls[1] {
            ExternalDecl::Vars(g) => assert_eq!(g.vars[0].ty.array_rank(), 2),
            _ => panic!(),
        }
    }

    /// `shape(n)` nests `n` levels: it parses a little below the limit and
    /// fails with the nesting diagnostic just above it and far above it
    /// (where an unbounded parser would overflow the stack).
    fn assert_nesting_limited(shape: impl Fn(usize) -> String) {
        let limit = MAX_NESTING as usize;
        ok(&shape(limit - 4));
        for n in [limit + 1, 20_000] {
            let Err(err) = parse("deep.c", &shape(n)) else {
                panic!("{n} levels parsed past the limit");
            };
            let msg = &err.first_error().expect("an error").message;
            assert!(msg.starts_with("nesting deeper than"), "{n}: {msg}");
        }
    }

    fn in_return(expr: &str) -> String {
        format!("int p(void); int f(int x) {{ return {expr}; }}")
    }

    #[test]
    fn nested_parens_are_limited() {
        assert_nesting_limited(|n| in_return(&format!("{}1{}", "(".repeat(n), ")".repeat(n))));
    }

    #[test]
    fn nested_unary_and_casts_are_limited() {
        assert_nesting_limited(|n| in_return(&format!("{}x", "- ".repeat(n))));
        assert_nesting_limited(|n| in_return(&format!("{}x", "(int)".repeat(n))));
    }

    #[test]
    fn nested_statements_are_limited() {
        assert_nesting_limited(|n| format!("void f(void) {{ {}; }}", "if (1) ".repeat(n)));
    }

    #[test]
    fn nested_blocks_are_limited() {
        assert_nesting_limited(|n| {
            format!("void f(void) {{ {}{} }}", "{".repeat(n), "}".repeat(n))
        });
    }

    #[test]
    fn nested_initializers_are_limited() {
        assert_nesting_limited(|n| format!("int x = {}1{};", "{".repeat(n), "}".repeat(n)));
    }

    #[test]
    fn nested_declarators_are_limited() {
        assert_nesting_limited(|n| format!("int {}p;", "*".repeat(n)));
        assert_nesting_limited(|n| format!("int {}p{};", "(".repeat(n), ")".repeat(n)));
        assert_nesting_limited(|n| format!("int p{};", "[1]".repeat(n)));
    }

    #[test]
    fn binary_folds_are_limited() {
        assert_nesting_limited(|n| in_return(&vec!["1"; n].join("+")));
        // A fold whose first operand is itself deep.
        assert_nesting_limited(|n| {
            let half = n / 2;
            let first = format!("{}1{}", "(".repeat(half), ")".repeat(half));
            in_return(&format!("{first}{}", "*2".repeat(n - half)))
        });
    }

    #[test]
    fn postfix_folds_are_limited() {
        assert_nesting_limited(|n| in_return(&format!("p{}", "()".repeat(n))));
    }

    #[test]
    fn comma_folds_are_limited() {
        assert_nesting_limited(|n| format!("void f(int x) {{ {}; }}", vec!["x"; n].join(",")));
    }
}
