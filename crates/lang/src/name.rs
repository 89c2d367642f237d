//! [`Name`]: the string type of identifiers in the AST.
//!
//! A parse used to hold every identifier, member, label and declared name
//! as its own heap `String`, one allocation per occurrence. C names are
//! short, so a [`Name`] keeps up to [`Name::INLINE`] bytes inside itself
//! and only longer ones on the heap. It derefs to `str` and hashes,
//! compares and orders exactly like one, so maps keyed by `Name` answer
//! `&str` lookups.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A string of at most [`Name::INLINE`] bytes held inline, or a longer one
/// on the heap; 24 bytes either way.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is valid UTF-8: it is only ever copied from a `&str`.
    Inline {
        len: u8,
        buf: [u8; Name::INLINE],
    },
    Heap(Box<str>),
}

impl Name {
    /// The longest name stored without a heap allocation.
    pub const INLINE: usize = 22;

    /// Copies `s`, inline when it fits.
    pub fn new(s: &str) -> Name {
        if s.len() <= Name::INLINE {
            let mut buf = [0; Name::INLINE];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Name(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            Name(Repr::Heap(s.into()))
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // SAFETY: `buf[..len]` was copied whole from a `&str` in
            // `Name::new` and is never written afterwards.
            Repr::Inline { len, buf } => unsafe {
                std::str::from_utf8_unchecked(&buf[..*len as usize])
            },
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// Hashes like the `str` it holds, as [`Borrow<str>`] requires.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn short_names_stay_inline_and_long_ones_round_trip() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        for s in [
            "",
            "x",
            "g_1234",
            "exactly_twenty_two_byt",
            "a_name_longer_than_22_bytes",
        ] {
            let n = Name::new(s);
            assert_eq!(n.as_str(), s);
            assert_eq!(n.len(), s.len());
            assert_eq!(matches!(n.0, Repr::Inline { .. }), s.len() <= Name::INLINE);
        }
    }

    #[test]
    fn behaves_like_str() {
        let n = Name::from("foo");
        assert_eq!(n, "foo");
        assert_eq!("foo", n);
        assert_eq!(n, String::from("foo"));
        assert_eq!(format!("{n} {n:?}"), "foo \"foo\"");
        let (a, b) = (Name::from("a"), Name::from("b"));
        assert!(a < b);
        let mut m = HashMap::new();
        m.insert(Name::from("key"), 1);
        assert_eq!(m.get("key"), Some(&1));
    }
}
