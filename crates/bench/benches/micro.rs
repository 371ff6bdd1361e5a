//! Criterion micro-benchmarks of the primitives: uncontended section
//! overhead per scheme, raw HTM transaction cost, SNZI operations, the KV
//! service's read guard, and the duration estimator.

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use htm_sim::{CapacityProfile, Htm, HtmConfig, TxKind};
use snzi::Snzi;
use sprwl::{SpRwl, SprwlConfig};
use sprwl_locks::{
    BrLock, LockThread, PassiveRwLock, PhaseFairRwLock, PthreadRwLock, RwSync, SectionId, Tle,
};
use sprwl_server::{block_on, ShardLock};

fn htm() -> Htm {
    Htm::new(
        HtmConfig {
            capacity: CapacityProfile::BROADWELL_SIM,
            max_threads: 8,
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

fn bench_raw_htm(c: &mut Criterion) {
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    let mut ctx = h.thread(0);
    c.bench_function("htm/txn-1r1w", |b| {
        b.iter(|| {
            ctx.txn(TxKind::Htm, |tx| {
                let v = tx.read(cell)?;
                tx.write(cell, v + 1)
            })
            .unwrap()
        })
    });
    // Stock-Level-sized: one TPC-C read section commits 363 tracked reads
    // in HTM on broadwell-sim. One cell per line, so every read is a new
    // line for the footprint and the directory.
    let cpl = h.config().cells_per_line as usize;
    let lines = h.memory().alloc_line_aligned(363 * cpl);
    c.bench_function("htm/txn-read-363", |b| {
        b.iter(|| {
            ctx.txn(TxKind::Htm, |tx| {
                let mut sum = 0u64;
                for i in 0..363 {
                    sum = sum.wrapping_add(tx.read(lines.cell(i * cpl))?);
                }
                Ok(sum)
            })
            .unwrap()
        })
    });
    // A small write section: 5 reads then 5 writes, each on its own line.
    c.bench_function("htm/txn-10rw", |b| {
        b.iter(|| {
            ctx.txn(TxKind::Htm, |tx| {
                let mut sum = 0u64;
                for i in 0..5 {
                    sum = sum.wrapping_add(tx.read(lines.cell(i * cpl))?);
                }
                for i in 5..10 {
                    tx.write(lines.cell(i * cpl), sum)?;
                }
                Ok(())
            })
            .unwrap()
        })
    });
    let d = h.direct(1);
    c.bench_function("htm/untracked-load", |b| b.iter(|| d.load(cell)));
    c.bench_function("htm/untracked-store", |b| b.iter(|| d.store(cell, 1)));
    c.bench_function("htm/peek", |b| b.iter(|| h.memory().peek(cell)));
}

fn bench_sections(c: &mut Criterion) {
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    let mut group = c.benchmark_group("uncontended-write-section");
    let locks: Vec<(&str, Box<dyn RwSync>)> = vec![
        ("SpRWL", Box::new(SpRwl::with_defaults(&h))),
        ("TLE", Box::new(Tle::new(&h))),
        ("RWL", Box::new(PthreadRwLock::new())),
        ("BRLock", Box::new(BrLock::new(8))),
        ("PF-RWL", Box::new(PhaseFairRwLock::new())),
        ("PRWL", Box::new(PassiveRwLock::new(8))),
    ];
    for (name, lock) in &locks {
        let mut t = LockThread::new(h.thread(0));
        group.bench_function(name, |b| {
            b.iter(|| {
                lock.write_section(&mut t, SectionId(0), &mut |a| {
                    let v = a.read(cell)?;
                    a.write(cell, v + 1)?;
                    Ok(v)
                })
            })
        });
        drop(t);
    }
    group.finish();

    let mut group = c.benchmark_group("uncontended-read-section");
    for (name, lock) in &locks {
        let mut t = LockThread::new(h.thread(0));
        group.bench_function(name, |b| {
            b.iter(|| lock.read_section(&mut t, SectionId(1), &mut |a| a.read(cell)))
        });
        drop(t);
    }
    group.finish();
}

fn bench_snzi(c: &mut Criterion) {
    let h = htm();
    let snzi = Snzi::new(h.memory(), 8);
    let d = h.direct(0);
    c.bench_function("snzi/arrive-depart", |b| {
        b.iter(|| {
            snzi.arrive(&d, 3);
            snzi.depart(&d, 3);
        })
    });
    snzi.arrive(&d, 1); // keep the tree warm: re-arrivals stay leaf-local
    c.bench_function("snzi/arrive-depart-warm", |b| {
        b.iter(|| {
            snzi.arrive(&d, 1);
            snzi.depart(&d, 1);
        })
    });
    c.bench_function("snzi/query", |b| b.iter(|| snzi.query_untracked(&d)));

    // Two threads on the two leaves of one indicator, both arriving and
    // departing back to zero: the KV service's two-client shape. A peer
    // thread churns leaf 1 while leaf 0's round trip is timed.
    let pair = Snzi::new(h.memory(), 2);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let d1 = h.direct(1);
            while !stop.load(Ordering::Relaxed) {
                pair.arrive(&d1, 1);
                pair.depart(&d1, 1);
            }
        });
        c.bench_function("snzi/arrive-depart-2t", |b| {
            b.iter(|| {
                pair.arrive(&d, 0);
                pair.depart(&d, 0);
            })
        });
        stop.store(true, Ordering::Relaxed);
    });
}

/// A GET's admission in the KV service: `block_on` over an idle shard's
/// `read()` future, then dropping the guard. The shard is configured as
/// the service builds it (BRAVO readers, versioned SGL).
fn bench_server_guard(c: &mut Criterion) {
    let h = htm();
    let shard = ShardLock::new(SpRwl::new(
        &h,
        SprwlConfig {
            versioned_sgl: true,
            ..SprwlConfig::with_bravo()
        },
    ));
    let d = h.direct(0);
    c.bench_function("server/read-guard", |b| {
        b.iter(|| drop(block_on(shard.read(d, 0))))
    });
}

/// The zero-cost-when-off claim, measured: the same uncontended SpRWL
/// sections with tracing disabled (`LockThread::new`), with a live ring
/// (`with_trace`), and the raw push cost. The "off" and plain-`new`
/// numbers must stay within noise of each other.
fn bench_trace_overhead(c: &mut Criterion) {
    use sprwl_trace::{EventKind, TraceBuffer, TraceConfig};
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    let lock = SpRwl::with_defaults(&h);
    let mut group = c.benchmark_group("trace-overhead/read-section");
    {
        let mut t = LockThread::new(h.thread(0));
        group.bench_function("off", |b| {
            b.iter(|| lock.read_section(&mut t, SectionId(1), &mut |a| a.read(cell)))
        });
    }
    {
        let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(4096));
        group.bench_function("ring-4096", |b| {
            b.iter(|| lock.read_section(&mut t, SectionId(1), &mut |a| a.read(cell)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("trace-overhead/push");
    let mut off = TraceBuffer::disabled(0);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            off.push(EventKind::ReaderArrive);
        })
    });
    let mut on = TraceBuffer::new(0, TraceConfig::ring(4096));
    group.bench_function("ring", |b| {
        b.iter(|| {
            on.push(EventKind::ReaderArrive);
        })
    });
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let est = sprwl::DurationEstimator::new(8, false);
    c.bench_function("estimator/record", |b| {
        b.iter(|| est.record(0, SectionId(2), 1234))
    });
    c.bench_function("estimator/end-time", |b| {
        b.iter(|| est.end_time(SectionId(2)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(400)).warm_up_time(std::time::Duration::from_millis(150));
    targets = bench_raw_htm, bench_sections, bench_snzi, bench_server_guard, bench_trace_overhead, bench_estimator
}
criterion_main!(benches);
