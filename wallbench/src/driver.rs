//! The closed-loop driver: `CLIENTS` client threads, each sending its next
//! op when the previous one returns.
//!
//! A wall run warms up, then cuts the measured window into fixed slices.
//! Each op counts toward the slice it started in, so throughput is a
//! median over slices, which a burst of load from a neighbour moves less
//! than a whole-window mean. In a traced wall run every second slice is
//! traced and the others are not, so tracing overhead is measured on the
//! same store at the same time. A deterministic run executes a fixed op
//! quota per client under the serialized scheduler, traced throughout,
//! for the exact counts.
//!
//! A watchdog ends a wedged run: when no client completes an op for
//! [`STALL`], the driver calls the caller's stall handler, which reports
//! the run as failed and exits the process.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sprwl_locks::{LockThread, Role, SessionStats};

use crate::sample::Reservoir;
use crate::spans::{Name, Tracer};
use crate::world::World;
use crate::CLIENTS;

/// Unmeasured warm-up before the first slice: lazy set-up, caches and the
/// adaptive controllers settle here.
pub const WARMUP: Duration = Duration::from_millis(1000);
/// Length of one measured slice.
pub const SLICE: Duration = Duration::from_millis(250);
/// No op completed for this long: the run is wedged.
pub const STALL: Duration = Duration::from_secs(20);
/// Latency samples kept per client and role: thousands beyond the p99,
/// and few enough that a faster program does not show up as more
/// resident memory.
const LAT_SAMPLES: usize = 1 << 17;
/// Raw spans kept per client for the dump.
const RAW_SPANS: usize = 1 << 16;
const STOP: usize = usize::MAX;

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Free-running threads for a measured `window` of wall time;
    /// `traced` traces every second slice.
    Wall {
        /// Measured wall time.
        window: Duration,
        /// Trace alternate slices.
        traced: bool,
    },
    /// `ops` ops per client under a deterministic scheduler, all traced.
    Det {
        /// Ops per client.
        ops: u64,
    },
}

/// What one client hands back.
#[derive(Debug)]
pub struct ClientOut<C> {
    /// The client's state (stream position and checks).
    pub client: C,
    /// The client's spans and counts.
    pub tracer: Tracer,
    /// The lock's commit and abort counts for this client's sections.
    pub stats: SessionStats,
    /// Latencies of untraced measured read ops, ns.
    pub reads: Reservoir,
    /// Latencies of untraced measured write ops, ns.
    pub writes: Reservoir,
    /// Ops started in each slice (index 0 is warm-up).
    pub slice_ops: Vec<u64>,
    /// Ops run, warm-up included.
    pub attempted: u64,
    /// Ops whose results failed the client's checks.
    pub failed: u64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOut<C> {
    /// Per client, in client order.
    pub clients: Vec<ClientOut<C>>,
    /// Measured length of slices `1..`, ns (empty for deterministic runs).
    pub slice_ns: Vec<u64>,
}

impl<C> RunOut<C> {
    /// Ops per second of each measured slice, with whether it was traced.
    pub fn slice_rates(&self, mode: Mode) -> Vec<(f64, bool)> {
        self.slice_ns
            .iter()
            .enumerate()
            .map(|(i, &ns)| {
                let s = i + 1;
                let ops: u64 = self.clients.iter().map(|c| c.slice_ops[s]).sum();
                (ops as f64 * 1e9 / ns as f64, slice_traced(mode, s))
            })
            .collect()
    }

    /// Ops run and ops failed, summed over clients.
    pub fn totals(&self) -> (u64, u64) {
        self.clients
            .iter()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }
}

fn slices(window: Duration) -> usize {
    ((window.as_nanos() / SLICE.as_nanos()) as usize).max(1)
}

fn slice_traced(mode: Mode, s: usize) -> bool {
    match mode {
        Mode::Wall { traced, .. } => traced && s > 0 && s.is_multiple_of(2),
        Mode::Det { .. } => true,
    }
}

#[repr(align(64))]
struct Padded(AtomicU64);

struct Ctl {
    slice: AtomicUsize,
    progress: Vec<Padded>,
    done: AtomicUsize,
}

impl Ctl {
    fn progress(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Tracks the last time any client made progress.
struct Watch<'a> {
    ctl: &'a Ctl,
    last: u64,
    since: Instant,
    on_stall: &'a (dyn Fn(u64) + Sync),
}

impl Watch<'_> {
    /// Sleeps for `d`, checking for a stall every few milliseconds.
    fn sleep(&mut self, d: Duration) {
        let end = Instant::now() + d;
        loop {
            let now = Instant::now();
            if now >= end {
                return;
            }
            std::thread::sleep((end - now).min(Duration::from_millis(20)));
            self.check();
        }
    }

    fn check(&mut self) {
        let p = self.ctl.progress();
        if p != self.last {
            self.last = p;
            self.since = Instant::now();
        } else if self.since.elapsed() >= STALL {
            (self.on_stall)(p);
        }
    }
}

/// Runs `clients` against `w`. `on_stall` receives the ops completed so far
/// when the watchdog fires; it must not return.
///
/// # Panics
///
/// Panics if a client thread panics.
pub fn run<W: World>(
    w: &W,
    clients: Vec<W::Client>,
    mode: Mode,
    on_stall: &(dyn Fn(u64) + Sync),
) -> RunOut<W::Client> {
    assert_eq!(clients.len(), CLIENTS);
    let n_slices = match mode {
        Mode::Wall { window, .. } => slices(window),
        Mode::Det { .. } => 0,
    };
    let ctl = Ctl {
        slice: AtomicUsize::new(0),
        progress: (0..CLIENTS).map(|_| Padded(AtomicU64::new(0))).collect(),
        done: AtomicUsize::new(0),
    };
    // Claiming a simulated thread is a start barrier under the
    // deterministic scheduler, so every client meets here first.
    let barrier = Barrier::new(CLIENTS + 1);
    let epoch = Instant::now();
    let mut slice_ns = Vec::with_capacity(n_slices);
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(idx, c)| {
                let (ctl, barrier) = (&ctl, &barrier);
                scope.spawn(move || client(w, c, idx, mode, n_slices, epoch, ctl, barrier))
            })
            .collect();
        barrier.wait();
        let mut watch = Watch {
            ctl: &ctl,
            last: 0,
            since: Instant::now(),
            on_stall,
        };
        if n_slices > 0 {
            watch.sleep(WARMUP);
            let mut mark = Instant::now();
            for s in 1..=n_slices {
                ctl.slice.store(s, Ordering::Release);
                watch.sleep(SLICE);
                let now = Instant::now();
                slice_ns.push((now - mark).as_nanos() as u64);
                mark = now;
            }
            ctl.slice.store(STOP, Ordering::Release);
        }
        while ctl.done.load(Ordering::Acquire) < CLIENTS {
            watch.sleep(Duration::from_millis(5));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    RunOut {
        clients: outs,
        slice_ns,
    }
}

#[allow(clippy::too_many_arguments)]
fn client<W: World>(
    w: &W,
    mut c: W::Client,
    idx: usize,
    mode: Mode,
    n_slices: usize,
    epoch: Instant,
    ctl: &Ctl,
    barrier: &Barrier,
) -> ClientOut<W::Client> {
    barrier.wait();
    let mut t = LockThread::new(w.htm().thread(idx));
    let mut tr = Tracer::new(epoch, RAW_SPANS);
    let mut reads = Reservoir::new(LAT_SAMPLES);
    let mut writes = Reservoir::new(LAT_SAMPLES);
    let mut slice_ops = vec![0u64; n_slices + 1];
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let s = match mode {
            Mode::Wall { .. } => match ctl.slice.load(Ordering::Acquire) {
                STOP => break,
                s => s,
            },
            Mode::Det { ops } if attempted == ops => break,
            Mode::Det { .. } => 0,
        };
        let traced = slice_traced(mode, s);
        tr.set_on(traced);
        let op = w.next(&mut c);
        let t0 = tr.now();
        let root = tr.begin_at(Name::Op, t0);
        let (role, ok) = w.run(&mut c, op, &mut t, &mut tr);
        let t1 = tr.now();
        tr.end_at(root, t1);
        tr.finish_op();
        attempted += 1;
        failed += u64::from(!ok);
        slice_ops[s] += 1;
        if s > 0 && !traced {
            match role {
                Role::Reader => reads.record(t1 - t0),
                Role::Writer => writes.record(t1 - t0),
            }
        }
        ctl.progress[idx].0.store(attempted, Ordering::Relaxed);
    }
    let stats = std::mem::take(&mut t.stats);
    // Release the simulated thread before reporting done, so post-run
    // checks see every slot free.
    drop(t);
    ctl.done.fetch_add(1, Ordering::Release);
    ClientOut {
        client: c,
        tracer: tr,
        stats,
        reads,
        writes,
        slice_ops,
        attempted,
        failed,
    }
}
