//! Span-based source rewriting, modelled after Clang's `Rewriter`.
//!
//! Mutators queue textual edits against the original source; [`Rewriter::apply`]
//! materializes the mutant. Edits are kept independent of each other so a
//! mutator can freely mix removals, replacements and insertions, as the
//! LLM-synthesized mutators in the paper do (`getRewriter().ReplaceText(...)`).

use crate::source::Span;
use std::fmt;

/// The kind of a single edit.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EditKind {
    /// Replace the text covered by the span.
    Replace(String),
    /// Insert before the span start (span is empty).
    Insert(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Edit {
    span: Span,
    seq: usize,
    kind: EditKind,
}

/// Error returned when queued edits overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteConflict {
    /// The two conflicting spans.
    pub first: Span,
    /// The second conflicting span.
    pub second: Span,
}

impl fmt::Display for RewriteConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflicting rewrites: spans {} and {} overlap",
            self.first, self.second
        )
    }
}

impl std::error::Error for RewriteConflict {}

/// Accumulates edits against one borrowed source string and applies them in
/// one pass.
///
/// # Examples
///
/// ```
/// use metamut_lang::rewrite::Rewriter;
/// use metamut_lang::source::Span;
/// let mut rw = Rewriter::new("int x = 1;");
/// rw.replace(Span::new(4, 5), "y");
/// rw.insert_after(10, " int z;");
/// assert_eq!(rw.apply().unwrap(), "int y = 1; int z;");
/// ```
#[derive(Debug, Clone)]
pub struct Rewriter<'a> {
    src: &'a str,
    edits: Vec<Edit>,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter over `src`.
    pub fn new(src: &'a str) -> Self {
        Rewriter {
            src,
            edits: Vec::new(),
        }
    }

    /// Number of queued edits.
    pub fn edit_count(&self) -> usize {
        self.edits.len()
    }

    /// Whether any edit has been queued.
    pub fn has_edits(&self) -> bool {
        !self.edits.is_empty()
    }

    /// Queues a replacement of the text at `span` with `text`.
    pub fn replace(&mut self, span: Span, text: impl Into<String>) {
        let seq = self.edits.len();
        self.edits.push(Edit {
            span,
            seq,
            kind: EditKind::Replace(text.into()),
        });
    }

    /// Queues a removal of the text at `span`.
    pub fn remove(&mut self, span: Span) {
        self.replace(span, "");
    }

    /// Queues an insertion of `text` immediately before byte `offset`.
    pub fn insert_before(&mut self, offset: u32, text: impl Into<String>) {
        let seq = self.edits.len();
        self.edits.push(Edit {
            span: Span::new(offset, offset),
            seq,
            kind: EditKind::Insert(text.into()),
        });
    }

    /// Queues an insertion of `text` immediately after byte `offset`.
    pub fn insert_after(&mut self, offset: u32, text: impl Into<String>) {
        self.insert_before(offset, text);
    }

    /// Applies all queued edits, producing the rewritten text.
    ///
    /// Insertions at the same offset are applied in queue order. Replacements
    /// must not overlap each other; insertions may touch replacement
    /// boundaries but not fall strictly inside a replaced span.
    ///
    /// # Errors
    ///
    /// Returns [`RewriteConflict`] when two edits overlap.
    pub fn apply(&self) -> Result<String, RewriteConflict> {
        let mut edits: Vec<&Edit> = self.edits.iter().collect();
        // Sort by position; at equal positions, insertions first in queue
        // order, then replacements (which consume text).
        edits.sort_by(|a, b| {
            a.span
                .lo
                .cmp(&b.span.lo)
                .then_with(|| a.span.hi.cmp(&b.span.hi))
                .then_with(|| a.seq.cmp(&b.seq))
        });

        // Overlap check among non-empty (replacement) spans, and insertions
        // strictly inside a replacement.
        let mut prev: Option<Span> = None;
        for e in &edits {
            if e.span.is_empty() {
                continue;
            }
            if let Some(p) = prev {
                if e.span.lo < p.hi {
                    return Err(RewriteConflict {
                        first: p,
                        second: e.span,
                    });
                }
            }
            prev = Some(e.span);
        }
        for e in &edits {
            if !e.span.is_empty() {
                continue;
            }
            for r in &edits {
                if r.span.is_empty() {
                    continue;
                }
                if e.span.lo > r.span.lo && e.span.lo < r.span.hi {
                    return Err(RewriteConflict {
                        first: r.span,
                        second: e.span,
                    });
                }
            }
        }

        let src = self.src.as_bytes();
        let mut out = String::with_capacity(self.src.len() + 64);
        let mut cursor = 0usize;
        for e in &edits {
            let lo = e.span.lo as usize;
            if lo > cursor {
                out.push_str(std::str::from_utf8(&src[cursor..lo]).expect("utf8 source"));
                cursor = lo;
            }
            match &e.kind {
                EditKind::Replace(t) | EditKind::Insert(t) => out.push_str(t),
            }
            cursor = cursor.max(e.span.hi as usize);
        }
        if cursor < src.len() {
            out.push_str(std::str::from_utf8(&src[cursor..]).expect("utf8 source"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_and_remove() {
        let mut rw = Rewriter::new("aaa bbb ccc");
        rw.replace(Span::new(4, 7), "XYZ");
        rw.remove(Span::new(0, 4));
        assert_eq!(rw.apply().unwrap(), "XYZ ccc");
    }

    #[test]
    fn insertions_keep_order() {
        let mut rw = Rewriter::new("ab");
        rw.insert_before(1, "1");
        rw.insert_before(1, "2");
        assert_eq!(rw.apply().unwrap(), "a12b");
    }

    #[test]
    fn insert_at_replacement_boundary_ok() {
        let mut rw = Rewriter::new("hello world");
        rw.replace(Span::new(0, 5), "bye");
        rw.insert_before(5, "!");
        // Insertion at the *end* boundary of the replaced span lands after
        // the replacement text.
        assert_eq!(rw.apply().unwrap(), "bye! world");
    }

    #[test]
    fn overlapping_replacements_conflict() {
        let mut rw = Rewriter::new("abcdef");
        rw.replace(Span::new(0, 4), "x");
        rw.replace(Span::new(2, 6), "y");
        assert!(rw.apply().is_err());
    }

    #[test]
    fn insertion_inside_replacement_conflicts() {
        let mut rw = Rewriter::new("abcdef");
        rw.replace(Span::new(1, 5), "x");
        rw.insert_before(3, "!");
        assert!(rw.apply().is_err());
    }

    #[test]
    fn no_edits_is_identity() {
        let rw = Rewriter::new("unchanged");
        assert!(!rw.has_edits());
        assert_eq!(rw.apply().unwrap(), "unchanged");
    }

    #[test]
    fn adjacent_replacements_ok() {
        let mut rw = Rewriter::new("abcd");
        rw.replace(Span::new(0, 2), "X");
        rw.replace(Span::new(2, 4), "Y");
        assert_eq!(rw.apply().unwrap(), "XY");
    }

    #[test]
    fn edit_count_tracks() {
        let mut rw = Rewriter::new("abc");
        assert_eq!(rw.edit_count(), 0);
        rw.remove(Span::new(0, 1));
        rw.insert_after(3, "z");
        assert_eq!(rw.edit_count(), 2);
        assert_eq!(rw.apply().unwrap(), "bcz");
    }
}
