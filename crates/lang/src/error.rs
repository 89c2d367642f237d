//! Diagnostics shared by the lexer, parser and semantic analyzer.

use crate::source::{SourceFile, Span};
use std::error::Error;
use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Non-fatal observation; compilation still succeeds.
    Warning,
    /// Fatal problem; the program does not compile.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Which front-end phase produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Syntax analysis.
    Parse,
    /// Type checking and name resolution.
    Sema,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Lex => f.write_str("lex"),
            Phase::Parse => f.write_str("parse"),
            Phase::Sema => f.write_str("sema"),
        }
    }
}

/// A single diagnostic message anchored at a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which phase raised it.
    pub phase: Phase,
    /// Where it points.
    pub span: Span,
    /// Human-readable message, lowercase, no trailing punctuation.
    pub message: String,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(phase: Phase, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            phase,
            span,
            message: message.into(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(phase: Phase, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            phase,
            span,
            message: message.into(),
        }
    }

    /// Renders the diagnostic with a line/column position from `file`.
    pub fn render(&self, file: &SourceFile) -> String {
        let pos = file.line_col(self.span.lo);
        format!(
            "{}:{}: {} ({}): {}",
            file.name(),
            pos,
            self.severity,
            self.phase,
            self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) at {}: {}",
            self.severity, self.phase, self.span, self.message
        )
    }
}

/// An ordered collection of diagnostics with convenience queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// All diagnostics in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Whether any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics of any severity.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The first error, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.severity == Severity::Error)
    }

    /// Merges another collection into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl Error for Diagnostics {}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Diagnostics {
            items: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_queries() {
        let mut ds = Diagnostics::new();
        assert!(ds.is_empty());
        ds.push(Diagnostic::warning(Phase::Parse, Span::new(0, 1), "odd"));
        assert!(!ds.has_errors());
        ds.push(Diagnostic::error(Phase::Sema, Span::new(2, 3), "bad type"));
        assert!(ds.has_errors());
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.first_error().unwrap().message, "bad type");
    }

    #[test]
    fn renders_with_position() {
        let f = SourceFile::new("a.c", "int x\nbad");
        let d = Diagnostic::error(Phase::Parse, Span::new(6, 9), "expected ';'");
        let msg = d.render(&f);
        assert!(msg.contains("a.c:2:1"), "got {msg}");
        assert!(msg.contains("expected ';'"));
    }

    #[test]
    fn display_nonempty() {
        let d = Diagnostic::error(Phase::Lex, Span::new(0, 1), "stray byte");
        assert!(!format!("{d}").is_empty());
    }
}
