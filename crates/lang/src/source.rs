//! Source text management: byte spans, line/column lookup, and snippets.
//!
//! Every AST node produced by the [`crate::parser`] carries a [`Span`]
//! pointing back into the original source text. The span machinery is what
//! lets mutators perform *textual* rewrites (like Clang's `Rewriter`) instead
//! of re-printing whole trees, which preserves the surrounding program
//! verbatim — a property the MetaMut paper relies on when mutating large
//! seed programs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A half-open byte range `[lo, hi)` into a source file.
///
/// # Examples
///
/// ```
/// use metamut_lang::source::Span;
/// let s = Span::new(2, 5);
/// assert_eq!(s.len(), 3);
/// assert!(s.contains(4));
/// assert!(!s.contains(5));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Span {
    /// Inclusive start offset in bytes.
    pub lo: u32,
    /// Exclusive end offset in bytes.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "span lo {lo} must not exceed hi {hi}");
        Span { lo, hi }
    }

    /// An empty span at offset zero, used for synthesized nodes.
    pub fn dummy() -> Self {
        Span { lo: 0, hi: 0 }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `offset` falls inside the span.
    pub fn contains(&self, offset: u32) -> bool {
        self.lo <= offset && offset < self.hi
    }

    /// Whether `other` is entirely inside `self`.
    pub fn contains_span(&self, other: Span) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether the two spans share at least one byte.
    pub fn overlaps(&self, other: Span) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(&self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// A line/column pair, both 1-based, as presented in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (byte based).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An owned source file with a line-start index for position lookup.
///
/// The index is built on the first line/column lookup: only diagnostics
/// ask for one, and most parses never do.
#[derive(Debug, Clone)]
pub struct SourceFile {
    name: String,
    text: String,
    line_starts: OnceLock<Vec<u32>>,
}

/// Compares name and text; the line index is a function of the text.
impl PartialEq for SourceFile {
    fn eq(&self, other: &SourceFile) -> bool {
        self.name == other.name && self.text == other.text
    }
}

impl Eq for SourceFile {}

impl SourceFile {
    /// Wraps `text` under the given display `name`.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            name: name.into(),
            text: text.into(),
            line_starts: OnceLock::new(),
        }
    }

    /// Byte offsets at which each line starts.
    fn line_starts(&self) -> &[u32] {
        self.line_starts.get_or_init(|| {
            let newlines = self.text.bytes().enumerate().filter(|&(_, b)| b == b'\n');
            std::iter::once(0)
                .chain(newlines.map(|(i, _)| i as u32 + 1))
                .collect()
        })
    }

    /// The display name of the file (not necessarily a filesystem path).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Length of the source in bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The text covered by `span`.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds or splits a UTF-8 character.
    pub fn snippet(&self, span: Span) -> &str {
        &self.text[span.lo as usize..span.hi as usize]
    }

    /// Converts a byte offset to a 1-based line/column pair.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let line_starts = self.line_starts();
        let line_idx = match line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - line_starts[line_idx] + 1,
        }
    }

    /// The full span of line `line` (1-based), excluding the newline.
    pub fn line_span(&self, line: u32) -> Option<Span> {
        let idx = line.checked_sub(1)? as usize;
        let line_starts = self.line_starts();
        let lo = *line_starts.get(idx)?;
        let hi = line_starts
            .get(idx + 1)
            .map(|next| next.saturating_sub(1))
            .unwrap_or(self.text.len() as u32);
        Some(Span::new(lo, hi))
    }

    /// Number of lines in the file (at least 1).
    pub fn line_count(&self) -> usize {
        self.line_starts().len()
    }
}

impl Default for SourceFile {
    fn default() -> Self {
        SourceFile::new("<anon>", "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(3, 7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.contains(3));
        assert!(s.contains(6));
        assert!(!s.contains(7));
        assert_eq!(s.merge(Span::new(10, 12)), Span::new(3, 12));
    }

    #[test]
    fn span_overlap() {
        assert!(Span::new(0, 5).overlaps(Span::new(4, 8)));
        assert!(!Span::new(0, 5).overlaps(Span::new(5, 8)));
        assert!(Span::new(2, 9).contains_span(Span::new(3, 9)));
        assert!(!Span::new(2, 9).contains_span(Span::new(3, 10)));
    }

    #[test]
    #[should_panic(expected = "span lo")]
    fn span_invalid() {
        let _ = Span::new(5, 2);
    }

    #[test]
    fn line_col_lookup() {
        let f = SourceFile::new("t.c", "int x;\nint y;\n  int z;");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(5), LineCol { line: 1, col: 6 });
        assert_eq!(f.line_col(7), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_col(16), LineCol { line: 3, col: 3 });
        assert_eq!(f.line_count(), 3);
    }

    #[test]
    fn equality_ignores_whether_the_index_was_built() {
        let a = SourceFile::new("t.c", "int x;\nint y;");
        let b = a.clone();
        assert_eq!(a.line_count(), 2);
        assert_eq!(a, b);
        assert_eq!(b.clone(), a);
        assert_ne!(a, SourceFile::new("t.c", "int x;"));
    }

    #[test]
    fn snippets_and_lines() {
        let f = SourceFile::new("t.c", "int x;\nint y;");
        assert_eq!(f.snippet(Span::new(0, 3)), "int");
        assert_eq!(f.line_span(1), Some(Span::new(0, 6)));
        assert_eq!(f.snippet(f.line_span(2).unwrap()), "int y;");
        assert_eq!(f.line_span(3), None);
    }
}
