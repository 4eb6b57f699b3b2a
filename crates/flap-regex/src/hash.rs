//! The hasher of the regex layer's memo tables.
//!
//! Their keys are regex ids, `(id, byte)` pairs and interned nodes:
//! small integers and short runs of them. Building a lexer is mostly
//! interning nodes and looking up derivatives, so the hash is on the
//! boot path of every process that builds one. The standard
//! library's SipHash resists keys crafted to collide, at several
//! times the cost per word. These keys come from grammar
//! definitions, never from the documents a parser reads, and a
//! hostile grammar has cheaper ways to exhaust the compiler (its
//! DFAs can grow exponentially), so a multiply-rotate hash is
//! enough.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by regex ids or nodes.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A set of regex ids.
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Folds each word in with one rotate, xor and multiply (the FxHash
/// step).
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
