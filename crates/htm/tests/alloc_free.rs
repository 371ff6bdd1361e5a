//! Pins "tracked accesses are allocation-free" as a count: once a thread
//! context has run one transaction of a given footprint, further
//! transactions of that footprint make no heap allocation, whether they
//! commit or abort.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use htm_sim::{Abort, CapacityProfile, Htm, HtmConfig, TxKind};

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

#[test]
fn steady_state_transactions_do_not_allocate() {
    const READS: usize = 64;
    const WRITES: usize = 8;
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::BROADWELL_SIM,
            max_threads: 2,
            ..HtmConfig::default()
        },
        64 * 1024,
    );
    let cpl = htm.config().cells_per_line as usize;
    // One cell per line, so the footprint is 64 read lines + 8 write lines.
    let reads = htm.memory().alloc_line_aligned(READS * cpl);
    let writes = htm.memory().alloc_line_aligned(WRITES * cpl);
    let mut ctx = htm.thread(0);
    let mut run = |i: u64| {
        let res = ctx.txn(TxKind::Htm, |tx| {
            let mut sum = 0u64;
            for r in 0..READS {
                sum = sum.wrapping_add(tx.read(reads.cell(r * cpl))?);
            }
            for w in 0..WRITES {
                tx.write(writes.cell(w * cpl), sum.wrapping_add(i))?;
            }
            if i % 2 == 1 {
                return tx.abort(1);
            }
            Ok(())
        });
        let want = if i % 2 == 1 {
            Err(Abort::Explicit(1))
        } else {
            Ok(())
        };
        assert_eq!(res, want);
    };
    // Warm-up: grows the per-thread scratch and the directory's shard maps.
    for i in 0..16 {
        run(i);
    }
    let allocs = allocations_in(|| {
        for i in 0..1000 {
            run(i);
        }
    });
    assert_eq!(
        allocs, 0,
        "1000 warm transactions made {allocs} allocations"
    );
    assert_eq!(ctx.stats.commits(), 508);
    assert_eq!(ctx.stats.aborts_explicit, 508);
}
