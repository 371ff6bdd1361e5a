//! The conflict directory: a sharded map from cache line to the set of
//! transactions currently holding it.
//!
//! This plays the role of the cache-coherence protocol extensions real HTMs
//! use for conflict detection. Each line entry records at most one
//! transactional *writer* and any number of transactional *readers*.
//! Accesses resolve conflicts eagerly:
//!
//! * transactional accesses under [`ConflictPolicy::RequesterWins`] doom the
//!   current holder(s) (coherence requests always win in hardware);
//! * **untracked** stores doom every transaction holding the line — this is
//!   the strong-isolation property SpRWL's uninstrumented readers depend on;
//! * untracked accesses that find the holder mid-commit spin until the
//!   write-buffer flush finishes, which makes single-cell untracked accesses
//!   atomic with respect to commits.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::config::ConflictPolicy;
use crate::memory::LineId;
use crate::slots::{DoomOutcome, Owner, TxTable};
use crate::tx::Abort;
use crate::util::{FxHashMap, Pad};

/// "No owner". Epochs start at 1, so no transaction ever has epoch 0.
const NO_OWNER: Owner = Owner { tid: 0, epoch: 0 };

/// Reader slots kept inside a line entry. A line shared by more readers at
/// once spills its reader list to the heap.
const INLINE_READERS: usize = 2;

/// The transactional readers of one line. Behaves exactly like a `Vec`
/// (`push` appends, `swap_remove` moves the last reader into the hole,
/// `retain` keeps order), because reader order decides which peer a
/// `ResponderWins` self-abort is attributed to.
#[derive(Debug)]
enum Readers {
    Inline {
        len: u8,
        slots: [Owner; INLINE_READERS],
    },
    Spilled(Vec<Owner>),
}

impl Readers {
    const EMPTY: Self = Readers::Inline {
        len: 0,
        slots: [NO_OWNER; INLINE_READERS],
    };

    #[inline]
    fn as_slice(&self) -> &[Owner] {
        match self {
            Readers::Inline { len, slots } => &slots[..*len as usize],
            Readers::Spilled(v) => v,
        }
    }

    #[inline]
    fn push(&mut self, r: Owner) {
        match self {
            Readers::Inline { len, slots } if (*len as usize) < INLINE_READERS => {
                slots[*len as usize] = r;
                *len += 1;
            }
            Readers::Inline { slots, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_READERS);
                v.extend_from_slice(slots);
                v.push(r);
                *self = Readers::Spilled(v);
            }
            Readers::Spilled(v) => v.push(r),
        }
    }

    fn swap_remove(&mut self, i: usize) {
        match self {
            Readers::Inline { len, slots } => {
                assert!(i < *len as usize, "reader index {i} out of range");
                *len -= 1;
                slots[i] = slots[*len as usize];
            }
            Readers::Spilled(v) => {
                v.swap_remove(i);
            }
        }
    }

    #[inline]
    fn retain(&mut self, mut keep: impl FnMut(&Owner) -> bool) {
        match self {
            Readers::Inline { len, slots } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&slots[i]) {
                        slots[kept] = slots[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Readers::Spilled(v) => v.retain(keep),
        }
    }
}

#[derive(Debug)]
struct LineEntry {
    /// The transactional writer, or [`NO_OWNER`].
    writer: Owner,
    readers: Readers,
}

impl Default for LineEntry {
    fn default() -> Self {
        Self {
            writer: NO_OWNER,
            readers: Readers::EMPTY,
        }
    }
}

impl LineEntry {
    #[inline]
    fn writer(&self) -> Option<Owner> {
        (self.writer.epoch != 0).then_some(self.writer)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.writer.epoch == 0 && self.readers.as_slice().is_empty()
    }
}

const SHARD_COUNT: usize = 64;

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<FxHashMap<u32, LineEntry>>,
    /// Number of live entries, maintained under the mutex. Lets untracked
    /// *reads* skip the lock entirely when no transaction holds any line
    /// of the shard — mirroring real hardware, where uninstrumented loads
    /// are free while transactional tracking costs.
    occupancy: AtomicUsize,
}

#[derive(Debug)]
pub(crate) struct Directory {
    /// Each shard on its own cache line, so a thread working one shard does
    /// not invalidate its neighbours' mutex and occupancy words.
    shards: Box<[Pad<Shard>]>,
}

struct ShardGuard<'a> {
    map: MutexGuard<'a, FxHashMap<u32, LineEntry>>,
    occupancy: &'a AtomicUsize,
    /// `map.len()` when the lock was taken, which is what `occupancy`
    /// holds: the word is rewritten only when the count changed.
    len_at_lock: usize,
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        let len = self.map.len();
        if len != self.len_at_lock {
            self.occupancy.store(len, Ordering::SeqCst);
        }
    }
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = FxHashMap<u32, LineEntry>;

    fn deref(&self) -> &Self::Target {
        &self.map
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.map
    }
}

/// How an untracked (non-transactional) access behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UntrackedKind {
    Read,
    Write,
}

impl Directory {
    pub(crate) fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        shards.resize_with(SHARD_COUNT, Pad::<Shard>::default);
        Self {
            shards: shards.into_boxed_slice(),
        }
    }

    #[inline]
    fn shard(&self, line: LineId) -> &Shard {
        // Lines are allocated sequentially; a multiplicative hash spreads
        // neighbouring lines across shards.
        let h = (line.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 58) as usize % SHARD_COUNT]
    }

    /// Locks a shard; the guard refreshes the occupancy counter on drop.
    #[inline]
    fn lock_shard(&self, line: LineId) -> ShardGuard<'_> {
        let shard = self.shard(line);
        let map = shard.map.lock();
        ShardGuard {
            len_at_lock: map.len(),
            map,
            occupancy: &shard.occupancy,
        }
    }

    /// Resolves a conflict between `me` and the holder `other`, per policy.
    /// Returns `Ok(())` once the holder is out of the way (doomed, stale or
    /// drained), `Err` if `me` must self-abort. Whichever side loses gets a
    /// conflict-attribution note (line + winning peer) in its slot.
    fn resolve_tx_conflict(
        table: &TxTable,
        policy: ConflictPolicy,
        other: Owner,
        line: LineId,
        me: Owner,
    ) -> Result<(), Abort> {
        match table.doom_or_classify(other, policy, line, me.tid) {
            Ok(DoomOutcome::Dead) | Ok(DoomOutcome::Stale) => Ok(()),
            Ok(DoomOutcome::Committing) => {
                table.wait_while_committing(other);
                Ok(())
            }
            Ok(DoomOutcome::Live) => unreachable!("resolved conflicts never stay live"),
            Err(()) => {
                // ResponderWins: `me` self-aborts; attribute to the holder.
                table.note_doom(me, line, other.tid);
                Err(Abort::Conflict)
            }
        }
    }

    /// Registers `me` as a transactional reader of `line`.
    ///
    /// # Errors
    ///
    /// Fails with [`Abort::Conflict`] under `ResponderWins` when a live
    /// writer holds the line.
    pub(crate) fn acquire_read(
        &self,
        line: LineId,
        me: Owner,
        table: &TxTable,
        policy: ConflictPolicy,
    ) -> Result<(), Abort> {
        let mut shard = self.lock_shard(line);
        let entry = shard.entry(line.0).or_default();
        if let Some(other) = entry.writer() {
            if other != me {
                Self::resolve_tx_conflict(table, policy, other, line, me)?;
                entry.writer = NO_OWNER;
            }
        }
        debug_assert!(!entry.readers.as_slice().contains(&me));
        entry.readers.push(me);
        Ok(())
    }

    /// Registers `me` as the transactional writer of `line`, dooming (or
    /// deferring to, per policy) any other holder.
    ///
    /// # Errors
    ///
    /// Fails with [`Abort::Conflict`] under `ResponderWins` when another
    /// live transaction holds the line.
    pub(crate) fn acquire_write(
        &self,
        line: LineId,
        me: Owner,
        table: &TxTable,
        policy: ConflictPolicy,
    ) -> Result<(), Abort> {
        let mut shard = self.lock_shard(line);
        let entry = shard.entry(line.0).or_default();
        if let Some(other) = entry.writer() {
            if other != me {
                Self::resolve_tx_conflict(table, policy, other, line, me)?;
                entry.writer = NO_OWNER;
            }
        }
        // Doom / defer to readers other than me.
        let mut i = 0;
        while let Some(&r) = entry.readers.as_slice().get(i) {
            if r == me {
                i += 1;
                continue;
            }
            Self::resolve_tx_conflict(table, policy, r, line, me)?;
            entry.readers.swap_remove(i);
        }
        entry.writer = me;
        Ok(())
    }

    /// Performs an untracked access to `line`: resolves conflicts with
    /// transactional holders, then runs `op` (the raw memory operation)
    /// **while still holding the line's shard lock**, so the operation is
    /// linearized against transactional acquisitions of the same line.
    ///
    /// Untracked writes doom every holder; untracked reads doom a live
    /// transactional writer iff `reads_doom` (strong isolation); both wait
    /// out an in-flight commit so the raw operation happens after the flush.
    /// `doomer` names the accessing thread for conflict attribution.
    pub(crate) fn untracked_op<R>(
        &self,
        line: LineId,
        kind: UntrackedKind,
        reads_doom: bool,
        doomer: u32,
        table: &TxTable,
        op: impl FnOnce() -> R,
    ) -> R {
        // Fast path: an untracked READ of a line in a shard with no live
        // entries cannot conflict with anything — it linearizes before any
        // in-flight registration — so it skips the lock entirely. Stores
        // must always take the slow path: their doom of registered holders
        // has to be serialized with registration.
        if kind == UntrackedKind::Read && self.shard(line).occupancy.load(Ordering::SeqCst) == 0 {
            return op();
        }
        let mut shard = self.lock_shard(line);
        if let Some(entry) = shard.get_mut(&line.0) {
            if let Some(other) = entry.writer() {
                let doom_it = kind == UntrackedKind::Write || reads_doom;
                match if doom_it {
                    table.note_doom(other, line, doomer);
                    table.doom(other)
                } else {
                    table.classify(other)
                } {
                    DoomOutcome::Dead | DoomOutcome::Stale => {
                        if doom_it {
                            entry.writer = NO_OWNER;
                        }
                    }
                    DoomOutcome::Committing => {
                        table.wait_while_committing(other);
                        entry.writer = NO_OWNER;
                    }
                    // reads_doom disabled: the writer stays speculative and
                    // the untracked read observes the pre-transaction value,
                    // which is exactly what buffered writes imply.
                    DoomOutcome::Live => {}
                }
            }
            if kind == UntrackedKind::Write {
                for &r in entry.readers.as_slice() {
                    table.note_doom(r, line, doomer);
                    let _ = table.doom(r);
                }
                entry.readers = Readers::EMPTY;
            }
            if entry.is_empty() {
                shard.remove(&line.0);
            }
        }
        op()
    }

    /// Conflict-resolution-only variant of [`Self::untracked_op`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn untracked_access(
        &self,
        line: LineId,
        kind: UntrackedKind,
        reads_doom: bool,
        doomer: u32,
        table: &TxTable,
    ) {
        self.untracked_op(line, kind, reads_doom, doomer, table, || ());
    }

    /// Removes `me`'s registrations on `line` (commit or abort cleanup):
    /// its reader slot if `read`, its writer slot if `write`. Idempotent:
    /// registrations already cleared by conflicting accesses are skipped.
    pub(crate) fn release(&self, me: Owner, line: LineId, read: bool, write: bool) {
        let mut shard = self.lock_shard(line);
        if let Some(entry) = shard.get_mut(&line.0) {
            if read {
                entry.readers.retain(|&r| r != me);
            }
            if write && entry.writer == me {
                entry.writer = NO_OWNER;
            }
            if entry.is_empty() {
                shard.remove(&line.0);
            }
        }
    }

    /// Number of lines with live entries (test/debug aid).
    #[cfg(test)]
    pub(crate) fn live_lines(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }
}

impl TxTable {
    /// Policy-dispatching doom: under `RequesterWins` dooms the holder
    /// (noting `line`/`requester` for attribution first); under
    /// `ResponderWins` reports `Err(())` if the holder is live (the
    /// requester must abort itself), and classifies otherwise.
    fn doom_or_classify(
        &self,
        other: Owner,
        policy: ConflictPolicy,
        line: LineId,
        requester: u32,
    ) -> Result<DoomOutcome, ()> {
        match policy {
            ConflictPolicy::RequesterWins => {
                self.note_doom(other, line, requester);
                Ok(self.doom(other))
            }
            ConflictPolicy::ResponderWins => match self.classify(other) {
                DoomOutcome::Live => Err(()),
                other_state => Ok(other_state),
            },
        }
    }

    /// Non-destructive classification of `other`'s state.
    pub(crate) fn classify(&self, other: Owner) -> DoomOutcome {
        use crate::slots::{epoch_of, state_of, ST_ACTIVE, ST_COMMITTING, ST_DOOMED, ST_SUSPENDED};
        let w = self.load(other.tid);
        if epoch_of(w) != other.epoch {
            return DoomOutcome::Stale;
        }
        match state_of(w) {
            ST_COMMITTING => DoomOutcome::Committing,
            ST_DOOMED => DoomOutcome::Dead,
            ST_ACTIVE | ST_SUSPENDED => DoomOutcome::Live,
            _ => DoomOutcome::Stale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(tid: u32, epoch: u64) -> Owner {
        Owner { tid, epoch }
    }

    #[test]
    fn read_read_sharing_is_conflict_free() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(7);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_read(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(!table.is_doomed(owner(0, 1)));
        assert!(!table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn write_dooms_readers_under_requester_wins() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(3);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(table.is_doomed(owner(0, 1)));
        assert!(!table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn write_dooms_every_inline_reader() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(3);
        for tid in 0..INLINE_READERS as u32 {
            table.begin(tid, 1);
            dir.acquire_read(line, owner(tid, 1), &table, ConflictPolicy::RequesterWins)
                .unwrap();
        }
        let writer = owner(INLINE_READERS as u32, 1);
        table.begin(writer.tid, 1);
        dir.acquire_write(line, writer, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        for tid in 0..INLINE_READERS as u32 {
            assert!(table.is_doomed(owner(tid, 1)), "reader {tid} survived");
        }
        dir.release(writer, line, false, true);
        assert_eq!(dir.live_lines(), 0, "doomed readers were dropped");
    }

    #[test]
    fn write_self_aborts_under_responder_wins() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(3);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::ResponderWins)
            .unwrap();
        let res = dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::ResponderWins);
        assert_eq!(res, Err(Abort::Conflict));
        assert!(!table.is_doomed(owner(0, 1)), "holder survives");
    }

    #[test]
    fn untracked_write_dooms_readers_and_writer() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(9);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Write, true, 3, &table);
        assert!(table.is_doomed(owner(0, 1)));
        assert!(table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn untracked_read_dooms_writer_only_when_enabled() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(2);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Read, false, 3, &table);
        assert!(!table.is_doomed(owner(0, 1)), "reads_doom disabled");
        dir.untracked_access(line, UntrackedKind::Read, true, 3, &table);
        assert!(table.is_doomed(owner(0, 1)), "strong isolation dooms");
    }

    #[test]
    fn untracked_read_never_dooms_plain_readers() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(4);
        table.begin(0, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Read, true, 3, &table);
        assert!(!table.is_doomed(owner(0, 1)));
    }

    #[test]
    fn requester_wins_attributes_doom_to_requester() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(11);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(table.is_doomed(owner(0, 1)));
        assert_eq!(table.take_conflict(owner(0, 1)), Some((11, 1)));
    }

    #[test]
    fn responder_wins_attributes_self_abort_to_holder() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(3);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::ResponderWins)
            .unwrap();
        let res = dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::ResponderWins);
        assert_eq!(res, Err(Abort::Conflict));
        assert_eq!(table.take_conflict(owner(1, 1)), Some((3, 0)));
    }

    #[test]
    fn untracked_write_attributes_dooms() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(9);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Write, true, 2, &table);
        assert!(table.is_doomed(owner(0, 1)));
        assert_eq!(table.take_conflict(owner(0, 1)), Some((9, 2)));
    }

    #[test]
    fn release_clears_entries() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let r_line = LineId(1);
        let w_line = LineId(2);
        table.begin(0, 1);
        dir.acquire_read(r_line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(w_line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert_eq!(dir.live_lines(), 2);
        dir.release(owner(0, 1), r_line, true, false);
        dir.release(owner(0, 1), w_line, false, true);
        assert_eq!(dir.live_lines(), 0);
    }

    #[test]
    fn stale_epoch_entries_are_ignored() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(5);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        // Thread 0 moves on to epoch 2 without cleanup (simulating a lost
        // race: cleanup happens later).
        table.begin(0, 2);
        table.begin(1, 1);
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(!table.is_doomed(owner(0, 2)), "new epoch untouched");
    }

    #[test]
    fn reacquiring_own_write_line_is_idempotent() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(6);
        table.begin(0, 1);
        let me = owner(0, 1);
        dir.acquire_write(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(!table.is_doomed(me));
        assert_eq!(dir.live_lines(), 1);
    }

    #[test]
    fn line_entries_stay_compact() {
        // A writer and two inline readers; the old `Option<Owner>` +
        // `Vec<Owner>` layout was 48 bytes plus a heap block per entry.
        assert!(std::mem::size_of::<LineEntry>() <= 56);
    }

    /// Four readers of one line: more than the inline slots hold, so the
    /// spilled list must keep every reader and release them all.
    const SHARED: u32 = 4;
    const _: () = assert!(SHARED as usize > INLINE_READERS);

    fn shared_line(dir: &Directory, table: &TxTable, line: LineId, policy: ConflictPolicy) {
        for tid in 0..SHARED {
            table.begin(tid, 1);
            dir.acquire_read(line, owner(tid, 1), table, policy)
                .unwrap();
        }
    }

    #[test]
    fn spilled_readers_are_all_doomed_by_a_requester_wins_write() {
        let dir = Directory::new();
        let table = TxTable::new(8);
        let line = LineId(21);
        shared_line(&dir, &table, line, ConflictPolicy::RequesterWins);
        // The writer is one of the readers, upgrading its own line.
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        for tid in 0..SHARED {
            if tid == 1 {
                assert!(!table.is_doomed(owner(tid, 1)), "the writer survives");
                assert_eq!(table.take_conflict(owner(tid, 1)), None);
            } else {
                assert!(table.is_doomed(owner(tid, 1)), "reader {tid} survived");
                assert_eq!(table.take_conflict(owner(tid, 1)), Some((21, 1)));
            }
        }
        dir.release(owner(1, 1), line, true, true);
        assert_eq!(dir.live_lines(), 0);
    }

    #[test]
    fn spilled_readers_survive_a_responder_wins_write() {
        let dir = Directory::new();
        let table = TxTable::new(8);
        let line = LineId(22);
        shared_line(&dir, &table, line, ConflictPolicy::ResponderWins);
        table.begin(7, 1);
        let res = dir.acquire_write(line, owner(7, 1), &table, ConflictPolicy::ResponderWins);
        assert_eq!(res, Err(Abort::Conflict));
        for tid in 0..SHARED {
            assert!(!table.is_doomed(owner(tid, 1)), "reader {tid} was doomed");
        }
        // Attributed to the first live reader, in registration order.
        assert_eq!(table.take_conflict(owner(7, 1)), Some((22, 0)));
        // Every reader is still registered: an untracked store finds them.
        dir.untracked_access(line, UntrackedKind::Write, true, 6, &table);
        for tid in 0..SHARED {
            assert!(table.is_doomed(owner(tid, 1)), "reader {tid} was lost");
        }
    }

    #[test]
    fn untracked_store_dooms_every_spilled_reader() {
        let dir = Directory::new();
        let table = TxTable::new(8);
        let line = LineId(23);
        shared_line(&dir, &table, line, ConflictPolicy::RequesterWins);
        dir.untracked_access(line, UntrackedKind::Write, true, 6, &table);
        for tid in 0..SHARED {
            assert!(table.is_doomed(owner(tid, 1)), "reader {tid} survived");
            assert_eq!(table.take_conflict(owner(tid, 1)), Some((23, 6)));
        }
        assert_eq!(dir.live_lines(), 0, "the store cleared the entry");
    }

    #[test]
    fn releasing_every_spilled_reader_empties_the_directory() {
        let dir = Directory::new();
        let table = TxTable::new(8);
        let line = LineId(24);
        shared_line(&dir, &table, line, ConflictPolicy::RequesterWins);
        // Out of registration order, so removal from the middle is covered.
        for tid in [2, 0, 3, 1] {
            assert_eq!(dir.live_lines(), 1);
            dir.release(owner(tid, 1), line, true, false);
        }
        assert_eq!(dir.live_lines(), 0);
        // Releasing again (or a stale owner) is a no-op.
        dir.release(owner(0, 1), line, true, true);
        assert_eq!(dir.live_lines(), 0);
    }

    #[test]
    fn occupancy_tracks_live_entries() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(25);
        let occupancy = |d: &Directory| d.shard(line).occupancy.load(Ordering::SeqCst);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert_eq!(occupancy(&dir), 1);
        // A second reader on the same line leaves the count (and word) alone.
        dir.acquire_read(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert_eq!(occupancy(&dir), 1);
        dir.release(owner(0, 1), line, true, false);
        assert_eq!(occupancy(&dir), 1);
        dir.release(owner(1, 1), line, true, false);
        assert_eq!(occupancy(&dir), 0);
    }

    #[test]
    fn reader_then_writer_upgrade_by_same_tx() {
        let dir = Directory::new();
        let table = TxTable::new(4);
        let line = LineId(8);
        table.begin(0, 1);
        let me = owner(0, 1);
        dir.acquire_read(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(
            !table.is_doomed(me),
            "upgrading own line never self-conflicts"
        );
    }
}
