//! A minimal future driver — the crate's whole "executor".
//!
//! Each service worker is an OS thread that drives one future at a time,
//! so all we need is [`block_on`]: poll, and when pending, park until the
//! waker fires. Parking uses [`htm_sim::clock::SpinWait`], whose every
//! `snooze` is a full yield point under the deterministic scheduler — a
//! parked worker keeps handing its turns to peers, so a whole service run
//! stays schedulable and byte-reproducible. No tokio, consistent with the
//! repo's offline-shims approach.
//!
//! A call whose future is ready on its first poll allocates nothing: each
//! thread keeps one park flag and reuses it while no waker from an earlier
//! call still holds it (see [`park_flag`]).

use std::cell::RefCell;
use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use htm_sim::clock::SpinWait;

/// Re-poll even without a wake after this many snoozes. Wake-lists are
/// notified after every write section, but a notification can race a
/// registration; the bounded re-poll turns a lost wake into extra latency
/// instead of a hang, and under the deterministic scheduler it keeps the
/// schedule finite.
const REPOLL_EVERY: u32 = 64;

/// The waker payload: a flag the parked thread spins on.
#[derive(Default)]
struct ParkFlag {
    woken: AtomicBool,
}

thread_local! {
    /// This thread's reusable park flag; see [`park_flag`].
    static PARK_FLAG: RefCell<Arc<ParkFlag>> = RefCell::new(Arc::default());
}

/// A cleared park flag for one [`block_on`] call.
///
/// The thread's cached flag is reused only when this thread holds the sole
/// reference (`Arc::get_mut` succeeds). A call that pended may have left a
/// clone of its waker in a wake-list; while that clone lives, the cached
/// flag is replaced by a fresh one, so a stale waker can never wake a later
/// call.
fn park_flag() -> Arc<ParkFlag> {
    PARK_FLAG.with(|cached| {
        let mut cached = cached.borrow_mut();
        match Arc::get_mut(&mut cached) {
            Some(flag) => *flag.woken.get_mut() = false,
            None => *cached = Arc::default(),
        }
        Arc::clone(&cached)
    })
}

impl Wake for ParkFlag {
    fn wake(self: Arc<Self>) {
        self.woken.store(true, Ordering::Release);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Release);
    }
}

/// Drives `fut` to completion on the calling thread.
///
/// Deterministic-scheduler safe: the park loop only spins through
/// [`SpinWait::snooze`] (never an OS block), so a bound thread keeps
/// yielding schedule turns while parked.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let flag = park_flag();
    let waker = Waker::from(Arc::clone(&flag));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    let mut spin = SpinWait::new();
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => {
                let mut budget = REPOLL_EVERY;
                while !flag.woken.swap(false, Ordering::Acquire) && budget > 0 {
                    spin.snooze();
                    budget -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_future_returns_immediately() {
        assert_eq!(block_on(std::future::ready(7)), 7);
    }

    #[test]
    fn pending_future_is_repolled_until_ready() {
        struct CountDown(u32);
        impl Future for CountDown {
            type Output = u32;
            fn poll(mut self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.0 == 0 {
                    Poll::Ready(42)
                } else {
                    self.0 -= 1;
                    // Never call the waker: only the bounded re-poll can
                    // finish this future.
                    let _ = cx;
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(CountDown(3)), 42);
    }

    #[test]
    fn wake_from_another_thread_unparks() {
        struct Gate(Arc<AtomicBool>);
        impl Future for Gate {
            type Output = ();
            fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0.load(Ordering::Acquire) {
                    Poll::Ready(())
                } else {
                    cx.waker().wake_by_ref();
                    // Waking ourselves forces a re-poll loop; flip the gate
                    // from a peer to finish.
                    Poll::Pending
                }
            }
        }
        let open = Arc::new(AtomicBool::new(false));
        let gate = Gate(Arc::clone(&open));
        let t = std::thread::spawn({
            let open = Arc::clone(&open);
            move || open.store(true, Ordering::Release)
        });
        block_on(gate);
        t.join().unwrap();
    }
}
