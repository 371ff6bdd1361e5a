//! Small internal utilities.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Pads (and aligns) a value to a 64-byte cache line to avoid false sharing
/// between per-thread slots in hot arrays.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Pad<T>(pub T);

impl<T> std::ops::Deref for Pad<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// An Fx-style hasher (the rustc/Firefox one): one rotate, xor and
/// multiply per word. The tracked-access maps are keyed by a line or cell
/// id, where SipHash's per-lookup cost would dominate the access they
/// bookkeep. Unseeded, so iteration order is the same in every process.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Stateless 64-bit finalizer (splitmix64's): hashes a counter into
/// well-distributed bits. Used by the schedule-shake hook, which has no
/// per-thread state to keep a PRNG in.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny xorshift64* PRNG used for interrupt injection; deliberately not
/// cryptographic, deterministic per seed.
#[derive(Debug, Clone)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            state: seed | 1, // never zero
        }
    }

    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns `true` with (approximately) probability `p`.
    #[inline]
    pub(crate) fn hit(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Use the high 53 bits for a uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64));
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_is_cache_line_aligned() {
        assert!(std::mem::align_of::<Pad<u64>>() >= 64);
        assert!(std::mem::size_of::<Pad<u64>>() >= 64);
    }

    #[test]
    fn fx_hash_is_unseeded_and_spreads_sequential_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        let hash = |id: u32| build.hash_one(id);
        assert_eq!(hash(42), hash(42));
        // hashbrown takes its control byte from the top 7 bits: sequential
        // line ids must not collapse onto a few of them.
        let tops: std::collections::HashSet<u64> = (0..1024).map(|i| hash(i) >> 57).collect();
        assert!(
            tops.len() > 100,
            "only {} distinct top-7 values",
            tops.len()
        );
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_differs_across_seeds() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn hit_extremes() {
        let mut r = XorShift64::new(7);
        assert!(!r.hit(0.0));
        assert!(r.hit(1.0));
        assert!(!r.hit(-1.0));
    }

    #[test]
    fn hit_rate_roughly_matches_probability() {
        let mut r = XorShift64::new(12345);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.hit(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate was {rate}");
    }
}
