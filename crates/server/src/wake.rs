//! A wake-list: where pending `read()`/`write()` futures park their wakers
//! instead of spinning on the lock word.
//!
//! One list per shard. Writers notify it after every completed write
//! section (the only event that can unblock a parked acquirer). The
//! critical sections below touch no simulated memory, so holding the
//! `std` mutex never waits on a deterministic-scheduler turn — a parked
//! OS thread can always be unblocked by the holder finishing its push.
//!
//! # Idle lists skip the lock
//!
//! Nearly every write section finishes with nobody parked, so
//! [`WakeList::notify_all`] first loads a `parked` count and returns when
//! it is 0. The count is written only under the mutex, by
//! [`WakeList::register`] and by the drain, so it always equals the list's
//! length. No wake-up is lost, by a store-then-load (Dekker) argument in
//! which all four operations are `SeqCst`:
//!
//! * the writer's last simulated store (the fallback release that reopens
//!   admission; simulated cells are `SeqCst` atomics) precedes its load of
//!   `parked` in `notify_all`;
//! * the parking future's store to `parked` in `register` precedes its
//!   re-check of admission (a `SeqCst` load of the same simulated word).
//!
//! In the single total order of those four operations, either the
//! writer's load comes after the future's store, so `notify_all` sees a
//! non-zero count and drains the list, or the future's re-check comes
//! after the writer's store, so it sees admission open and never pends.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::task::Waker;

/// A set of wakers waiting for a shard's admission state to change.
#[derive(Debug, Default)]
pub struct WakeList {
    wakers: Mutex<Vec<Waker>>,
    /// `wakers.len()`, stored under the mutex; read without it by
    /// [`WakeList::notify_all`] (see the module docs).
    parked: AtomicUsize,
}

impl WakeList {
    /// An empty wake-list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks `waker` until the next [`WakeList::notify_all`].
    ///
    /// Callers must re-check their admission condition *after* registering
    /// (the state may have changed between the failed attempt and the
    /// registration); spurious wakes are therefore harmless.
    pub fn register(&self, waker: &Waker) {
        let mut wakers = self.wakers.lock().expect("wake-list poisoned");
        wakers.push(waker.clone());
        self.parked.store(wakers.len(), Ordering::SeqCst);
    }

    /// Wakes every parked future. Called after each completed write
    /// section; with nobody parked it returns without taking the lock.
    pub fn notify_all(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let drained = {
            let mut wakers = self.wakers.lock().expect("wake-list poisoned");
            self.parked.store(0, Ordering::SeqCst);
            std::mem::take(&mut *wakers)
        };
        // Wake outside the lock so a waker that polls inline cannot
        // re-enter the list while we hold it.
        for w in drained {
            w.wake();
        }
    }

    /// Number of currently parked wakers (tests and introspection).
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::task::Wake;
    use std::time::{Duration, Instant};

    /// A waker that raises a flag.
    struct Flag(AtomicBool);

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn notify_all_with_nothing_parked_is_a_no_op() {
        let list = WakeList::new();
        list.notify_all();
        assert_eq!(list.parked(), 0);
        let flag = Arc::new(Flag(AtomicBool::new(false)));
        list.register(&Waker::from(Arc::clone(&flag)));
        list.register(&Waker::from(Arc::clone(&flag)));
        assert_eq!(list.parked(), 2);
        list.notify_all();
        assert_eq!(list.parked(), 0);
        assert!(flag.0.load(Ordering::SeqCst), "a parked waker fires");
    }

    fn spin(iters: usize) {
        for _ in 0..iters {
            std::hint::spin_loop();
        }
    }

    /// `go` value that ends the writer early.
    const STOP: usize = usize::MAX;

    /// Waits until `cell` reads `want`: spins briefly, then yields, so
    /// the two threads start each round within a few cache misses of each
    /// other without starving a loaded host. False if it reads [`STOP`].
    fn wait_for(cell: &AtomicUsize, want: usize) -> bool {
        let mut tries = 0u32;
        loop {
            match cell.load(Ordering::SeqCst) {
                v if v == want => return true,
                STOP => return false,
                _ => {}
            }
            tries += 1;
            if tries < 1000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// The guards' protocol against the writer's, with admission modelled
    /// by one `SeqCst` flag: the parker fails, registers, re-checks, and
    /// pends only if the re-check fails too; the writer opens admission and
    /// then notifies. Every round, a parker that pended must be woken.
    #[test]
    fn register_then_recheck_never_loses_a_wake_up() {
        const ROUNDS: usize = 20_000;
        let list = WakeList::new();
        let open = AtomicBool::new(false);
        // Round `r` starts when `go` reads `r + 1` and its writer is done
        // when `done` does.
        let go = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let mut pended = 0;
        let mut lost = None;
        let mut left_parked = 0;
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    if !wait_for(&go, round + 1) {
                        return;
                    }
                    spin(round * 7 % 61);
                    open.store(true, Ordering::SeqCst);
                    list.notify_all();
                    done.store(round + 1, Ordering::SeqCst);
                }
            });
            for round in 0..ROUNDS {
                go.store(round + 1, Ordering::SeqCst);
                spin(round * 13 % 53);
                if !open.load(Ordering::SeqCst) {
                    let flag = Arc::new(Flag(AtomicBool::new(false)));
                    list.register(&Waker::from(Arc::clone(&flag)));
                    if !open.load(Ordering::SeqCst) {
                        pended += 1;
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while !flag.0.load(Ordering::SeqCst) && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        if !flag.0.load(Ordering::SeqCst) {
                            lost = Some(round);
                            go.store(STOP, Ordering::SeqCst);
                            return;
                        }
                    }
                }
                wait_for(&done, round + 1);
                // Reset between rounds: drop a waker the writer's notify
                // skipped because admission was already open.
                open.store(false, Ordering::SeqCst);
                list.notify_all();
                left_parked = left_parked.max(list.parked());
            }
        });
        assert_eq!(lost, None, "a pended parker was never woken");
        assert_eq!(left_parked, 0, "a drained list still counted parked wakers");
        // Not asserted (the OS decides the interleaving), but a run where
        // the parker never pended would not have tested the race.
        eprintln!("parker pended in {pended} of {ROUNDS} rounds");
    }
}
