//! Sets of bytes, represented as 256-bit bitmaps.
//!
//! flap's lexers and fused parsers branch on individual input *bytes*
//! (the paper's "characters"; flap's OCaml implementation also works on
//! 8-bit chars). [`ByteSet`] is the alphabet-set type used by regex
//! character classes, derivative classes and transition tables.

use std::fmt;

/// A set of bytes (`u8` values), stored as a 256-bit bitmap.
///
/// `ByteSet` is `Copy` and all operations are branch-light word-wise
/// bit manipulation, so it is cheap enough to use pervasively during
/// grammar compilation.
///
/// # Examples
///
/// ```
/// use flap_regex::ByteSet;
///
/// let lower = ByteSet::range(b'a', b'z');
/// assert!(lower.contains(b'q'));
/// assert!(!lower.contains(b'A'));
/// assert_eq!(lower.len(), 26);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteSet {
    words: [u64; 4],
}

impl ByteSet {
    /// The empty set.
    pub const EMPTY: ByteSet = ByteSet { words: [0; 4] };

    /// The full alphabet: every byte value.
    pub const ALL: ByteSet = ByteSet {
        words: [u64::MAX; 4],
    };

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set containing a single byte.
    ///
    /// ```
    /// # use flap_regex::ByteSet;
    /// assert_eq!(ByteSet::single(b'x').len(), 1);
    /// ```
    pub fn single(b: u8) -> Self {
        let mut s = Self::EMPTY;
        s.insert(b);
        s
    }

    /// Creates a set containing the inclusive range `lo..=hi`.
    ///
    /// An inverted range (`lo > hi`) yields the empty set.
    pub fn range(lo: u8, hi: u8) -> Self {
        let mut s = Self::EMPTY;
        if lo <= hi {
            for b in lo..=hi {
                s.insert(b);
            }
        }
        s
    }

    /// Creates a set from an explicit list of bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut s = Self::EMPTY;
        for &b in bytes {
            s.insert(b);
        }
        s
    }

    /// Adds `b` to the set.
    pub fn insert(&mut self, b: u8) {
        self.words[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Removes `b` from the set.
    pub fn remove(&mut self, b: u8) {
        self.words[(b >> 6) as usize] &= !(1u64 << (b & 63));
    }

    /// Tests whether `b` is in the set.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.words[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Number of bytes in the set.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Tests whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words == [0; 4]
    }

    /// Tests whether the set contains every byte.
    pub fn is_all(&self) -> bool {
        self.words == [u64::MAX; 4]
    }

    /// The membership bitmap: bit `b % 64` of word `b / 64` is set
    /// iff byte `b` is in the set.
    pub fn words(&self) -> [u64; 4] {
        self.words
    }

    /// Set union.
    pub fn union(&self, other: &ByteSet) -> ByteSet {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(&other.words) {
            *a |= b;
        }
        ByteSet { words: w }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &ByteSet) -> ByteSet {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(&other.words) {
            *a &= b;
        }
        ByteSet { words: w }
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: &ByteSet) -> ByteSet {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        ByteSet { words: w }
    }

    /// Set complement with respect to the full byte alphabet.
    pub fn complement(&self) -> ByteSet {
        let mut w = self.words;
        for word in &mut w {
            *word = !*word;
        }
        ByteSet { words: w }
    }

    /// Tests whether the two sets are disjoint.
    pub fn is_disjoint(&self, other: &ByteSet) -> bool {
        self.intersect(other).is_empty()
    }

    /// Tests whether `self ⊆ other`.
    pub fn is_subset(&self, other: &ByteSet) -> bool {
        self.difference(other).is_empty()
    }

    /// The smallest byte in the set, if any.
    ///
    /// Used to pick a representative when computing per-class
    /// derivatives (§5.5 of the paper: characters with equivalent
    /// behaviour are grouped into classes).
    pub fn min_byte(self) -> Option<u8> {
        for (i, w) in self.words.iter().enumerate() {
            if *w != 0 {
                return Some((i * 64) as u8 + w.trailing_zeros() as u8);
            }
        }
        None
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            next: 0,
            done: false,
        }
    }
}

impl Default for ByteSet {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl FromIterator<u8> for ByteSet {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut s = Self::EMPTY;
        for b in iter {
            s.insert(b);
        }
        s
    }
}

impl Extend<u8> for ByteSet {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

/// Iterator over the members of a [`ByteSet`], produced by
/// [`ByteSet::iter`].
pub struct Iter<'a> {
    set: &'a ByteSet,
    next: u8,
    done: bool,
}

impl Iterator for Iter<'_> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        while !self.done {
            let b = self.next;
            if self.next == u8::MAX {
                self.done = true;
            } else {
                self.next += 1;
            }
            if self.set.contains(b) {
                return Some(b);
            }
        }
        None
    }
}

impl fmt::Debug for ByteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSet{{{}}}", self)
    }
}

impl fmt::Display for ByteSet {
    /// Renders the set in character-class style, e.g. `[a-z0]` or
    /// `[^a-z]` when the complement is smaller.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_all() {
            return write!(f, ".");
        }
        let (set, negated) = if self.len() > 128 {
            (self.complement(), true)
        } else {
            (*self, false)
        };
        write!(f, "[{}", if negated { "^" } else { "" })?;
        let mut bytes: Vec<u8> = set.iter().collect();
        bytes.sort_unstable();
        let mut i = 0;
        while i < bytes.len() {
            let start = bytes[i];
            let mut end = start;
            while i + 1 < bytes.len() && bytes[i + 1] == end + 1 {
                end = bytes[i + 1];
                i += 1;
            }
            if end > start + 1 {
                write!(f, "{}-{}", display_byte(start), display_byte(end))?;
            } else if end == start + 1 {
                write!(f, "{}{}", display_byte(start), display_byte(end))?;
            } else {
                write!(f, "{}", display_byte(start))?;
            }
            i += 1;
        }
        write!(f, "]")
    }
}

fn display_byte(b: u8) -> String {
    match b {
        b' ' => "␣".to_string(),
        b'\n' => "\\n".to_string(),
        b'\t' => "\\t".to_string(),
        b'\r' => "\\r".to_string(),
        0x21..=0x7e => (b as char).to_string(),
        _ => format!("\\x{:02x}", b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_all() {
        assert!(ByteSet::EMPTY.is_empty());
        assert!(!ByteSet::EMPTY.is_all());
        assert!(ByteSet::ALL.is_all());
        assert_eq!(ByteSet::ALL.len(), 256);
        assert_eq!(ByteSet::EMPTY.len(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ByteSet::new();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(255));
        assert!(!s.contains(1));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn range_endpoints() {
        let s = ByteSet::range(b'a', b'z');
        assert!(s.contains(b'a'));
        assert!(s.contains(b'z'));
        assert!(!s.contains(b'a' - 1));
        assert!(!s.contains(b'z' + 1));
        assert!(ByteSet::range(5, 4).is_empty());
        assert_eq!(ByteSet::range(7, 7), ByteSet::single(7));
    }

    #[test]
    fn algebra() {
        let a = ByteSet::range(0, 100);
        let b = ByteSet::range(50, 150);
        assert_eq!(a.union(&b), ByteSet::range(0, 150));
        assert_eq!(a.intersect(&b), ByteSet::range(50, 100));
        assert_eq!(a.difference(&b), ByteSet::range(0, 49));
        assert_eq!(a.complement().complement(), a);
        assert!(a.intersect(&a.complement()).is_empty());
        assert!(a.union(&a.complement()).is_all());
    }

    #[test]
    fn subset_disjoint() {
        let a = ByteSet::range(10, 20);
        let b = ByteSet::range(0, 30);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&ByteSet::range(21, 30)));
        assert!(!a.is_disjoint(&ByteSet::range(20, 30)));
    }

    #[test]
    fn iter_order_and_min() {
        let s = ByteSet::from_bytes(&[9, 3, 200, 255, 0]);
        let v: Vec<u8> = s.iter().collect();
        assert_eq!(v, vec![0, 3, 9, 200, 255]);
        assert_eq!(s.min_byte(), Some(0));
        assert_eq!(ByteSet::EMPTY.min_byte(), None);
    }

    #[test]
    fn from_iterator_and_extend() {
        let s: ByteSet = (b'a'..=b'c').collect();
        assert_eq!(s.len(), 3);
        let mut t = s;
        t.extend([b'z']);
        assert!(t.contains(b'z'));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ByteSet::range(b'a', b'z').to_string(), "[a-z]");
        assert_eq!(ByteSet::single(b'(').to_string(), "[(]");
        assert_eq!(ByteSet::ALL.to_string(), ".");
        assert!(ByteSet::single(b'x')
            .complement()
            .to_string()
            .starts_with("[^"));
    }
}
