//! # snzi — Scalable NonZero Indicator
//!
//! An implementation of the SNZI object of Ellen, Lev, Luchangco and Moir
//! (PODC ’07), used by SpRWL’s optional reader-tracking optimization
//! (§3.4 of the paper): readers `arrive`/`depart`, and writers ask a single
//! question — *is the count non-zero?* — by reading **one** memory word.
//!
//! The trade-off reproduced here is exactly the paper’s: queries are O(1)
//! (one cache line in the writer’s transactional read-set instead of one
//! line per thread), while arrivals and departures cost O(log n) in the
//! worst case because 0↔non-zero transitions propagate towards the root.
//! In steady state with many concurrent readers, most arrivals stop at
//! their leaf.
//!
//! ## Structure
//!
//! A binary tree with one leaf per thread. Interior nodes hold a
//! `(version, count)` word updated by CAS, with the paper’s ½-trick: an
//! arriving thread first parks the node at ½, arrives at the parent, then
//! promotes ½ → 1; a thread that finds a parked node helps promote it
//! (arriving at the parent on the parker's behalf) before adding its own
//! unit; whoever loses the promotion race undoes its surplus parent
//! arrival. This keeps the invariant that a node’s count is non-zero
//! whenever any descendant’s is, without locking.
//!
//! The **root** count lives in a [`htm_sim::SimMemory`] cell so that
//! hardware transactions can subscribe to it: a writer that queried the
//! indicator inside a transaction is doomed the moment the indicator
//! changes — the very conflict SpRWL’s correctness needs.
//!
//! ## Root tag bits
//!
//! Only the low [`ROOT_COUNT_MASK`] bits of the root word hold the count;
//! the bits at and above [`ROOT_TAG_SHIFT`] are reserved for a **client
//! tag** (BRAVO parks its three-state bias word there, so a writer's
//! "bias off *and* no backstop readers?" check is a single subscribed
//! line and a single compare against zero). The indicator's own updates
//! preserve the tag for free: the root only ever moves by balanced
//! `±1` steps, so the count can neither borrow from nor carry into the
//! tag bits. Clients mutate the tag with full-word CAS ([`with_root_tag`])
//! and must leave the count bits untouched.
//!
//! ```
//! use htm_sim::{Htm, HtmConfig};
//! use snzi::Snzi;
//!
//! let htm = Htm::new(HtmConfig::default(), 256);
//! let snzi = Snzi::new(htm.memory(), 4);
//! let d = htm.direct(0);
//! assert!(!snzi.query_untracked(&d));
//! snzi.arrive(&d, 0);
//! assert!(snzi.query_untracked(&d));
//! snzi.depart(&d, 0);
//! assert!(!snzi.query_untracked(&d));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};

use htm_sim::{CellId, Direct, MemAccess, SimMemory, TxResult};

/// Interior-node encoding: count in half-units (½ ⇒ 1, 1 ⇒ 2, …) in the
/// low 32 bits, ABA-protection version in the high 32 bits.
const HALF: u64 = 1;
const ONE: u64 = 2;
const COUNT_MASK: u64 = 0xFFFF_FFFF;

#[inline]
fn count_of(word: u64) -> u64 {
    word & COUNT_MASK
}

#[inline]
fn version_of(word: u64) -> u64 {
    word >> 32
}

#[inline]
fn node_pack(version: u64, count: u64) -> u64 {
    (version << 32) | (count & COUNT_MASK)
}

/// One tree node on its own 64-byte line. Every arrival and departure
/// CASes its thread's leaf, so unpadded neighbouring leaves would bounce
/// one host cache line between the threads that own them.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Node(AtomicU64);

/// First bit of the root word's client-tag field (see the crate docs).
pub const ROOT_TAG_SHIFT: u32 = 32;

/// Mask of the root word's count bits; everything above is client tag.
pub const ROOT_COUNT_MASK: u64 = 0xFFFF_FFFF;

/// The reader count encoded in a root word.
#[inline]
pub fn root_count(word: u64) -> u64 {
    word & ROOT_COUNT_MASK
}

/// The client tag encoded in a root word.
#[inline]
pub fn root_tag(word: u64) -> u64 {
    word >> ROOT_TAG_SHIFT
}

/// `word` with its client tag replaced by `tag` (count bits preserved).
#[inline]
pub fn with_root_tag(word: u64, tag: u64) -> u64 {
    (tag << ROOT_TAG_SHIFT) | (word & ROOT_COUNT_MASK)
}

/// A scalable non-zero indicator for up to `n_threads` participants.
///
/// `arrive`/`depart` must be balanced per logical presence (a thread may
/// arrive multiple times; the indicator stays set until every arrival has
/// departed). Queries may run untracked or inside hardware transactions.
#[derive(Debug)]
pub struct Snzi {
    /// Interior nodes in heap layout. Nodes 0 and 1 are the children of the
    /// (external) root cell; the parent of node `i ≥ 2` is `(i - 2) / 2`.
    nodes: Box<[Node]>,
    /// Index of the first leaf within `nodes`.
    first_leaf: usize,
    n_threads: usize,
    /// Root count, in simulated memory so transactions can subscribe to it.
    root: CellId,
}

impl Snzi {
    /// Creates an indicator with one leaf per thread; the root counter is
    /// allocated (on its own cache line) from `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is zero or the simulated memory is exhausted.
    pub fn new(mem: &SimMemory, n_threads: usize) -> Self {
        assert!(n_threads > 0, "snzi needs at least one thread");
        let n_leaves = n_threads.next_power_of_two().max(2);
        // A complete binary tree with `n_leaves` leaves, minus the external
        // root: 2 * n_leaves - 2 nodes, leaves occupying the tail.
        let total = 2 * n_leaves - 2;
        let mut nodes = Vec::with_capacity(total);
        nodes.resize_with(total, Node::default);
        Self {
            nodes: nodes.into_boxed_slice(),
            first_leaf: n_leaves - 2,
            n_threads,
            root: mem.alloc_line_aligned(1).cell(0),
        }
    }

    /// The number of threads this indicator was sized for.
    pub fn threads(&self) -> usize {
        self.n_threads
    }

    /// The simulated-memory cell holding the root count. Exposed so tests
    /// and footprint accounting can reason about the single-line query.
    pub fn root_cell(&self) -> CellId {
        self.root
    }

    #[inline]
    fn leaf_of(&self, tid: usize) -> usize {
        self.first_leaf + (tid % (self.nodes.len() - self.first_leaf))
    }

    #[inline]
    fn parent(i: usize) -> Option<usize> {
        if i < 2 {
            None // children of the root cell
        } else {
            Some((i - 2) / 2)
        }
    }

    /// Registers one presence for `tid`. O(1) when the thread's subtree is
    /// already active; O(log n) when activating empty subtrees.
    pub fn arrive(&self, d: &Direct<'_>, tid: usize) {
        self.arrive_node(d, self.leaf_of(tid));
    }

    /// Removes one presence for `tid`. Must balance a previous
    /// [`Snzi::arrive`] by the same logical presence.
    pub fn depart(&self, d: &Direct<'_>, tid: usize) {
        self.depart_node(d, self.leaf_of(tid));
    }

    /// One-word query, untracked (for readers and diagnostics). Ignores
    /// the root's client-tag bits.
    pub fn query_untracked(&self, d: &Direct<'_>) -> bool {
        root_count(d.load(self.root)) > 0
    }

    /// Diagnostic for quiescent-state oracles: verifies every counter in
    /// the indicator — the root cell and all interior/leaf nodes — is zero,
    /// i.e. every [`Snzi::arrive`] has been balanced by a
    /// [`Snzi::depart`]. Only meaningful while no thread is mid-operation.
    ///
    /// # Errors
    ///
    /// Names the first unbalanced counter found.
    pub fn check_balanced(&self, mem: &SimMemory) -> Result<(), String> {
        let root = root_count(mem.peek(self.root));
        if root != 0 {
            return Err(format!("snzi root count is {root}, expected 0"));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let c = count_of(node.0.load(Ordering::SeqCst));
            if c != 0 {
                return Err(format!("snzi node {i} count is {c}, expected 0"));
            }
        }
        Ok(())
    }

    /// One-word query through any accessor — inside a hardware transaction
    /// this subscribes the root line, so a subsequent reader arrival dooms
    /// the querying transaction (strong isolation), which is exactly the
    /// behaviour SpRWL's SNZI variant relies on.
    ///
    /// # Errors
    ///
    /// Propagates the accessor's abort, if transactional.
    pub fn query<A: MemAccess + ?Sized>(&self, a: &mut A) -> TxResult<bool> {
        Ok(root_count(a.read(self.root)?) > 0)
    }

    /// The raw root word — count *and* client tag — through any accessor,
    /// subscribing the root line when transactional. Lets a client whose
    /// tag encodes extra admission state (BRAVO's bias word) fold its
    /// whole commit-time check into one read: `word == 0` ⇔ the count is
    /// zero and the tag is clear.
    ///
    /// # Errors
    ///
    /// Propagates the accessor's abort, if transactional.
    pub fn query_word<A: MemAccess + ?Sized>(&self, a: &mut A) -> TxResult<u64> {
        a.read(self.root)
    }

    /// Ellen et al., Figure 2 (hierarchical node `Arrive`).
    fn arrive_node(&self, d: &Direct<'_>, i: usize) {
        let node = &self.nodes[i].0;
        let mut succ = false;
        let mut undo = 0u32;
        while !succ {
            let mut x = node.load(Ordering::SeqCst);
            if count_of(x) >= ONE {
                if node
                    .compare_exchange(
                        x,
                        node_pack(version_of(x), count_of(x) + ONE),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    succ = true;
                }
                continue;
            }
            if count_of(x) == 0 {
                let parked = node_pack(version_of(x) + 1, HALF);
                if node
                    .compare_exchange(x, parked, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Our arrival is parked; it will be completed below (or
                    // by a helper, in which case our promotion CAS fails
                    // and we undo the surplus parent arrival).
                    succ = true;
                    x = parked;
                } else {
                    continue;
                }
            }
            if count_of(x) == HALF {
                self.arrive_parent(d, i);
                if node
                    .compare_exchange(
                        x,
                        node_pack(version_of(x), ONE),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_err()
                {
                    undo += 1;
                }
            }
        }
        while undo > 0 {
            self.depart_parent(d, i);
            undo -= 1;
        }
    }

    /// Ellen et al., Figure 2 (hierarchical node `Depart`).
    fn depart_node(&self, d: &Direct<'_>, i: usize) {
        let node = &self.nodes[i].0;
        loop {
            let x = node.load(Ordering::SeqCst);
            debug_assert!(count_of(x) >= ONE, "depart without matching arrive");
            if node
                .compare_exchange(
                    x,
                    node_pack(version_of(x), count_of(x) - ONE),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                if count_of(x) == ONE {
                    self.depart_parent(d, i);
                }
                return;
            }
        }
    }

    fn arrive_parent(&self, d: &Direct<'_>, i: usize) {
        match Self::parent(i) {
            Some(p) => self.arrive_node(d, p),
            None => {
                // Root: a plain fetch-add on the simulated-memory cell.
                // This is the only point where reader traffic can doom
                // transactions subscribed to the indicator.
                d.fetch_add(self.root, 1);
            }
        }
    }

    fn depart_parent(&self, d: &Direct<'_>, i: usize) {
        match Self::parent(i) {
            Some(p) => self.depart_node(d, p),
            None => {
                let prev = d.fetch_add(self.root, u64::MAX); // wrapping -1
                debug_assert!(prev > 0, "root depart without arrive");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{Htm, HtmConfig};

    fn setup(n: usize) -> (Htm, Snzi) {
        let htm = Htm::new(
            HtmConfig {
                max_threads: n.max(2),
                ..HtmConfig::default()
            },
            256,
        );
        let snzi = Snzi::new(htm.memory(), n);
        (htm, snzi)
    }

    #[test]
    fn empty_indicator_is_zero() {
        let (htm, snzi) = setup(4);
        assert!(!snzi.query_untracked(&htm.direct(0)));
    }

    #[test]
    fn single_arrive_depart_toggles() {
        let (htm, snzi) = setup(4);
        let d = htm.direct(0);
        snzi.arrive(&d, 0);
        assert!(snzi.query_untracked(&d));
        snzi.depart(&d, 0);
        assert!(!snzi.query_untracked(&d));
    }

    #[test]
    fn multiple_arrivals_require_matching_departures() {
        let (htm, snzi) = setup(8);
        let d = htm.direct(0);
        for tid in 0..8 {
            snzi.arrive(&d, tid);
        }
        for tid in 0..7 {
            snzi.depart(&d, tid);
            assert!(snzi.query_untracked(&d), "still {} present", 7 - tid);
        }
        snzi.depart(&d, 7);
        assert!(!snzi.query_untracked(&d));
    }

    #[test]
    fn reentrant_arrivals_by_one_thread() {
        let (htm, snzi) = setup(2);
        let d = htm.direct(0);
        snzi.arrive(&d, 0);
        snzi.arrive(&d, 0);
        snzi.depart(&d, 0);
        assert!(snzi.query_untracked(&d));
        snzi.depart(&d, 0);
        assert!(!snzi.query_untracked(&d));
    }

    #[test]
    fn every_node_sits_on_its_own_cache_line() {
        let (_htm, snzi) = setup(8);
        assert_eq!(std::mem::size_of::<Node>(), 64);
        let addrs: Vec<usize> = snzi
            .nodes
            .iter()
            .map(|n| n as *const Node as usize)
            .collect();
        for pair in addrs.windows(2) {
            assert!(pair[1] - pair[0] >= 64, "nodes {pair:x?} share a line");
        }
        assert!(addrs.iter().all(|a| a % 64 == 0), "nodes are line-aligned");
    }

    #[test]
    fn threads_map_to_disjoint_leaves_for_small_n() {
        let (_htm, snzi) = setup(4);
        assert_eq!(snzi.threads(), 4);
        let leaves: std::collections::HashSet<_> = (0..4).map(|t| snzi.leaf_of(t)).collect();
        assert_eq!(leaves.len(), 4);
    }

    #[test]
    fn query_footprint_is_a_single_line() {
        let (htm, snzi) = setup(16);
        let d = htm.direct(0);
        for t in 0..16 {
            snzi.arrive(&d, t);
        }
        let mut ctx = htm.thread(0);
        ctx.txn(htm_sim::TxKind::Htm, |tx| {
            let set = snzi.query(tx)?;
            assert!(set);
            assert_eq!(tx.read_footprint(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn arrival_dooms_transaction_subscribed_to_indicator() {
        let (htm, snzi) = setup(4);
        let mut ctx = htm.thread(0);
        let err = ctx
            .txn(htm_sim::TxKind::Htm, |tx| {
                let set = snzi.query(tx)?;
                assert!(!set);
                // Reader arrives concurrently (untracked).
                snzi.arrive(&htm.direct(1), 1);
                // Transaction must now be doomed.
                tx.read(snzi.root_cell())?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, htm_sim::Abort::Conflict);
    }

    #[test]
    fn root_tag_survives_arrive_depart_traffic_and_is_masked_from_queries() {
        let (htm, snzi) = setup(8);
        let d = htm.direct(0);
        // Plant a client tag, then run balanced traffic through the root.
        let w = d.load(snzi.root_cell());
        d.store(snzi.root_cell(), with_root_tag(w, 0b10));
        for tid in 0..8 {
            snzi.arrive(&d, tid);
        }
        assert!(snzi.query_untracked(&d), "count visible despite tag");
        for tid in 0..8 {
            snzi.depart(&d, tid);
        }
        assert!(!snzi.query_untracked(&d), "tag must not read as presence");
        let w = d.load(snzi.root_cell());
        assert_eq!(root_tag(w), 0b10, "±1 traffic must preserve the tag");
        assert_eq!(root_count(w), 0);
        // The tagged-but-empty indicator still passes the balance check.
        snzi.check_balanced(htm.memory()).unwrap();
        // And the raw word is exactly tag | count.
        let mut ctx = htm.thread(0);
        ctx.txn(htm_sim::TxKind::Htm, |tx| {
            assert_eq!(snzi.query_word(tx)?, 0b10 << ROOT_TAG_SHIFT);
            assert_eq!(tx.read_footprint(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn steady_state_arrivals_do_not_touch_root() {
        let (htm, snzi) = setup(2);
        let d = htm.direct(0);
        snzi.arrive(&d, 0); // activates the path to the root
        let root_before = d.load(snzi.root_cell());
        // Re-arrivals on an active leaf must stay leaf-local.
        for _ in 0..100 {
            snzi.arrive(&d, 0);
        }
        assert_eq!(d.load(snzi.root_cell()), root_before);
        for _ in 0..101 {
            snzi.depart(&d, 0);
        }
        assert!(!snzi.query_untracked(&d));
    }
}
