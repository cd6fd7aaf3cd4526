//! A small, fast, non-cryptographic hasher for the unique table, the
//! computed cache's slot index and the interning tables.
//!
//! The BDD unique table is the hottest data structure in the whole framework:
//! every `mk` call hashes a `(var, lo, hi)` triple. The default SipHash is
//! needlessly slow for that, and pulling in an external hasher crate would
//! violate the dependency budget, so we implement a multiply-xor hasher in
//! the spirit of FxHash here. It is not DoS-resistant; all keys are
//! internally generated node ids, so that is fine.

use std::hash::{BuildHasher, Hasher};

/// 64-bit multiply-xor hasher (FxHash-style).
#[derive(Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` producing the fast multiply-xor hasher.
#[derive(Clone, Copy, Default)]
pub struct FastHasherBuilder;

impl BuildHasher for FastHasherBuilder {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// A `HashMap` keyed with the fast hasher.
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastHasherBuilder>;
/// A `HashSet` keyed with the fast hasher.
pub type FastHashSet<K> = std::collections::HashSet<K, FastHasherBuilder>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes_mostly() {
        // Sanity: hashing sequential keys should not collapse to few buckets.
        let mut seen = FastHashSet::default();
        for i in 0u64..10_000 {
            let mut h = FastHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert!(seen.len() > 9_990);
    }

    #[test]
    fn triple_hashing_disperses() {
        let mut seen = FastHashSet::default();
        for v in 0u32..20 {
            for lo in 0u32..20 {
                for hi in 0u32..20 {
                    let mut h = FastHasher::default();
                    h.write_u32(v);
                    h.write_u32(lo);
                    h.write_u32(hi);
                    seen.insert(h.finish());
                }
            }
        }
        assert_eq!(seen.len(), 20 * 20 * 20);
    }

    #[test]
    fn write_bytes_matches_incremental_padding() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }
}
