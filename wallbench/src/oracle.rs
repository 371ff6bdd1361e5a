//! Correctness oracles for the KV workloads.
//!
//! Values are op counters (a SET is a fetch-add-1 returning the old value),
//! so two checks need no model of the interleaving:
//!
//! * **Per-client monotonicity.** Counters only grow, so a client's GET or
//!   SET old-value for a key must never be lower than the value that client
//!   last saw for that key (a SET it committed saw `old` and left `old + 1`).
//! * **Per-shard conservation.** After every client joined, a shard's
//!   counters must sum to its preload plus the increments clients committed
//!   there.

/// One client's last-seen value per key.
#[derive(Debug, Clone)]
pub struct Monotonic {
    last: Vec<u32>,
}

impl Monotonic {
    /// Tracks keys `0..keyspace`, all last seen as 0.
    pub fn new(keyspace: u64) -> Self {
        Self {
            last: vec![0; usize::try_from(keyspace).expect("keyspace fits in memory")],
        }
    }

    /// A GET of `key` returned `v`; false when it went backwards.
    #[inline]
    pub fn read(&mut self, key: u64, v: u64) -> bool {
        self.see(key, v, v)
    }

    /// A committed SET of `key` saw `old`; false when it went backwards.
    #[inline]
    pub fn bumped(&mut self, key: u64, old: u64) -> bool {
        self.see(key, old, old + 1)
    }

    fn see(&mut self, key: u64, observed: u64, now: u64) -> bool {
        let slot = &mut self.last[key as usize];
        let ok = observed >= u64::from(*slot);
        let now = u32::try_from(now).unwrap_or(u32::MAX);
        *slot = (*slot).max(now);
        ok
    }
}

/// Per-shard conservation: `stored[s] == preload[s] + committed[s]`. Returns
/// one message per shard that does not balance.
pub fn conservation(stored: &[u64], preload: &[u64], committed: &[u64]) -> Vec<String> {
    stored
        .iter()
        .zip(preload)
        .zip(committed)
        .enumerate()
        .filter(|&(_, ((&s, &p), &c))| s != p + c)
        .map(|(i, ((&s, &p), &c))| {
            format!("shard {i}: store holds {s}, expected preload {p} + committed {c}")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_accepts_growth_and_flags_a_decreasing_read() {
        let mut m = Monotonic::new(4);
        assert!(m.read(1, 1));
        assert!(m.bumped(1, 1), "old value equal to last read");
        assert!(m.read(1, 5), "others' increments only raise it");
        assert!(!m.read(1, 4), "a decreasing read must fail");
        assert!(!m.bumped(1, 4), "an old value below a seen one must fail");
        assert!(m.read(2, 0), "keys are independent");
    }

    #[test]
    fn own_set_raises_the_floor() {
        let mut m = Monotonic::new(2);
        assert!(m.bumped(0, 7));
        assert!(
            !m.read(0, 7),
            "after our SET saw 7 the key holds at least 8"
        );
        assert!(m.read(0, 8));
    }

    #[test]
    fn conservation_flags_a_doctored_dump() {
        assert!(conservation(&[10, 20], &[4, 5], &[6, 15]).is_empty());
        let bad = conservation(&[10, 21], &[4, 5], &[6, 15]);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("shard 1:"), "{bad:?}");
    }
}
