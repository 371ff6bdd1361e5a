//! Pins "an uncontended guard costs no heap allocation" as a count: once a
//! thread has acquired a guard, `block_on` over an idle shard's `read()`
//! or `write_ready()` future allocates nothing. Also pins the executor's reuse rule: a waker an
//! earlier call left behind never wakes a later call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use htm_sim::{Htm, HtmConfig};
use sprwl::{SpRwl, SprwlConfig};
use sprwl_server::{block_on, ShardLock};

/// Counts allocations made by the current thread while counting is on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter touches only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

fn htm() -> Htm {
    Htm::new(
        HtmConfig {
            max_threads: 2,
            ..HtmConfig::default()
        },
        8192,
    )
}

/// The KV service's shard configuration: BRAVO readers, versioned SGL.
fn shard(htm: &Htm) -> ShardLock {
    ShardLock::new(SpRwl::new(
        htm,
        SprwlConfig {
            versioned_sgl: true,
            ..SprwlConfig::with_bravo()
        },
    ))
}

#[test]
fn ready_guards_do_not_allocate() {
    let htm = htm();
    let shard = shard(&htm);
    let d = htm.direct(0);
    let cycle = || {
        drop(block_on(shard.read(d, 0)));
        block_on(shard.write_ready(d));
    };
    for _ in 0..16 {
        cycle();
    }
    let allocs = allocations_in(|| {
        for _ in 0..1000 {
            cycle();
        }
    });
    assert_eq!(
        allocs, 0,
        "1000 warm read + write_ready guards made {allocs} allocations"
    );
    assert_eq!(shard.wake().parked(), 0, "no guard pended");
}

/// Pends on its first poll, keeping a clone of the waker it was given;
/// ready on the next.
struct PendOnce<'a> {
    kept: &'a mut Option<Waker>,
}

impl Future for PendOnce<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.kept.is_some() {
            return Poll::Ready(());
        }
        *self.kept = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Reports whether its waker would wake the same task as `other`.
struct SameTask<'a>(&'a Waker);

impl Future for SameTask<'_> {
    type Output = bool;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        Poll::Ready(cx.waker().will_wake(self.0))
    }
}

#[test]
fn a_waker_left_behind_never_wakes_a_later_call() {
    let mut stale = None;
    block_on(PendOnce { kept: &mut stale });
    let stale = stale.expect("the first poll kept its waker");
    // The stale waker still holds the first call's flag, so later calls
    // must park on a different one, however many of them run.
    for _ in 0..3 {
        assert!(
            !block_on(SameTask(&stale)),
            "a later call reused a live flag"
        );
    }
    stale.wake_by_ref();
    assert!(!block_on(SameTask(&stale)));
    drop(stale);
    // With the stale waker gone, the flag is reused again: no allocation.
    block_on(async {});
    assert_eq!(allocations_in(|| block_on(async {})), 0);
}
