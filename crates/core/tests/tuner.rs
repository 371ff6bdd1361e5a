//! Deterministic end-to-end check of the runtime self-tuner: under a
//! hot-key workload whose writers keep losing the commit-time reader
//! check, the tuner must raise the hot section's δ-start boost, and the
//! decision must be visible as a `tune-decision` trace event. Runs on the
//! deterministic scheduler, so the flip happens at the same virtual-time
//! point on every host.

use std::sync::Barrier;

use htm_sim::{CapacityProfile, Htm, HtmConfig, SchedulerKind};
use sprwl::{DeltaPolicy, ReaderTracking, SpRwl, SprwlConfig, StretchPolicy};
use sprwl_locks::{CommitMode, LockThread, RwSync, SectionId};
use sprwl_trace::{EventKind, ThreadTrace, TraceConfig};

const SEC_W: SectionId = SectionId(0);
const SEC_R: SectionId = SectionId(1);
const THREADS: usize = 4;
const OPS: usize = 600;

fn det_htm(schedule_seed: u64) -> Htm {
    Htm::new(
        HtmConfig {
            capacity: CapacityProfile::BROADWELL_SIM,
            max_threads: THREADS,
            scheduler: SchedulerKind::Deterministic { schedule_seed },
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

/// Hot-key run: even threads write the shared cell, odd threads read it
/// uninstrumented (no reader HTM, so every read raises the state flag the
/// writers' commit check trips over). δ starts at `Zero` to maximize
/// reader/writer overlap — the pathology the tuner is meant to correct.
/// Returns the hot write section's δ boost and all harvested traces.
fn run(schedule_seed: u64) -> (u64, Vec<ThreadTrace>) {
    let h = det_htm(schedule_seed);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            delta: DeltaPolicy::Zero,
            ..SprwlConfig::self_tuning()
        },
    );
    let cells = h.memory().alloc_line_aligned(64);
    h.memory().init_store(cells.cell(0), 0);
    let barrier = Barrier::new(THREADS);
    let traces = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (h, lock, cells, barrier) = (&h, &lock, &cells, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut t = LockThread::with_trace(h.thread(tid), TraceConfig::ring(8192));
                    for _ in 0..OPS {
                        if tid % 2 == 0 {
                            lock.write_section(&mut t, SEC_W, &mut |a| {
                                let v = a.read(cells.cell(0))?;
                                a.write(cells.cell(0), v + 1)?;
                                Ok(v + 1)
                            });
                        } else {
                            lock.read_section(&mut t, SEC_R, &mut |a| {
                                // A few extra reads keep the reader's state
                                // flag up long enough to doom writers.
                                let mut acc = 0;
                                for i in 0..8 {
                                    acc += a.read(cells.cell(i * 8))?;
                                }
                                Ok(acc)
                            });
                        }
                    }
                    t.trace.snapshot()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    (lock.debug_delta_boost(SEC_W), traces)
}

fn delta_boost_decisions(traces: &[ThreadTrace]) -> Vec<(u32, u64)> {
    traces
        .iter()
        .flat_map(|t| t.events.iter())
        .filter_map(|e| match e.kind {
            EventKind::TuneDecision {
                knob: "delta-boost",
                sec,
                value,
            } => Some((sec, value)),
            _ => None,
        })
        .collect()
}

#[test]
fn tuner_raises_delta_boost_under_hot_key_reader_pressure() {
    let (boost, traces) = run(7);
    assert!(
        boost > 0,
        "the hot write section's δ boost must have been raised (got {boost})"
    );
    let decisions = delta_boost_decisions(&traces);
    assert!(
        !decisions.is_empty(),
        "every knob flip must be visible as a tune-decision trace event"
    );
    assert!(
        decisions.iter().all(|&(sec, _)| sec == SEC_W.0),
        "δ boosts must target the pressured write section: {decisions:?}"
    );
    // The boost trajectory starts at the step and only ever doubles or
    // halves, capped — i.e. the knob moved through the documented ladder.
    for &(_, v) in &decisions {
        assert!(
            v == 0 || (v % sprwl::tuner::DELTA_BOOST_STEP_NS == 0),
            "unexpected boost value {v}"
        );
        assert!(v <= sprwl::tuner::DELTA_BOOST_MAX_NS);
    }
}

#[test]
fn tuner_flip_is_deterministic() {
    let (boost_a, traces_a) = run(11);
    let (boost_b, traces_b) = run(11);
    assert_eq!(boost_a, boost_b, "same schedule seed, same final boost");
    assert_eq!(
        delta_boost_decisions(&traces_a),
        delta_boost_decisions(&traces_b),
        "same schedule seed, same decision sequence"
    );
}

#[test]
fn tuner_off_by_default_leaves_knobs_alone() {
    // Free-running scheduler: under the deterministic one registration is
    // a start barrier over `max_threads`, and this test claims one thread.
    let h = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::BROADWELL_SIM,
            max_threads: 4,
            ..HtmConfig::default()
        },
        64 * 1024,
    );
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            delta: DeltaPolicy::Zero,
            ..SprwlConfig::default()
        },
    );
    assert_eq!(lock.debug_delta_boost(SEC_W), 0);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    for _ in 0..100 {
        lock.write_section(&mut t, SEC_W, &mut |a| {
            let v = a.read(cell)?;
            a.write(cell, v + 1)?;
            Ok(v)
        });
    }
    assert_eq!(
        lock.debug_delta_boost(SEC_W),
        0,
        "default config must never self-tune"
    );
}

/// Harvests `tune-decision` events for one knob as `(sec, value)` pairs.
fn decisions_for(traces: &[ThreadTrace], wanted: &str) -> Vec<(u32, u64)> {
    traces
        .iter()
        .flat_map(|t| t.events.iter())
        .filter_map(|e| match e.kind {
            EventKind::TuneDecision { knob, sec, value } if knob == wanted => Some((sec, value)),
            _ => None,
        })
        .collect()
}

/// The tuner's window is 32 section completions, and 8 revocations in one
/// window count as pressure (`TUNE_WINDOW` and `PRESSURE_THRESHOLD` in
/// `crates/core/src/tuner.rs`).
const WINDOW: usize = 32;
const PRESSURE: usize = WINDOW / 4;

/// Runs one write section on `SEC_W`, first arming the bias when `arm`,
/// so the section's writer pays exactly one revocation.
fn write_once(lock: &SpRwl, t: &mut LockThread<'_>, cell: htm_sim::CellId, arm: bool) {
    if arm {
        lock.debug_arm_bias(&t.ctx.direct());
    }
    lock.write_section(t, SEC_W, &mut |a| {
        let v = a.read(cell)?;
        a.write(cell, v + 1)?;
        Ok(v)
    });
}

fn bravo_tuned(h: &Htm) -> SpRwl {
    SpRwl::new(
        h,
        SprwlConfig {
            reader_tracking: ReaderTracking::Bravo,
            readers_try_htm: false,
            delta: DeltaPolicy::Zero,
            ..SprwlConfig::self_tuning()
        },
    )
}

/// The bias knob must see BRAVO revocations, which writers pay *before*
/// the transaction: a writer that drains the visible table every execution
/// and then commits clean produces no reader-check abort at all. The
/// revocation feed (`tuner_note_revoke`) is counted exactly: one fewer
/// revocation than the threshold in a window flips nothing, the threshold
/// flips the bias off at the window's last completion and not before, and
/// a window without revocations flips it back. Single-threaded, so no
/// reader abort can feed the same knob.
#[test]
fn tuner_flips_bias_off_under_pure_revocation_pressure() {
    let h = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::BROADWELL_SIM,
            max_threads: 2,
            ..HtmConfig::default()
        },
        64 * 1024,
    );
    let lock = bravo_tuned(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(8192));
    assert!(lock.debug_bias_enabled());

    // Window 1: one revocation short of pressure.
    for i in 0..WINDOW {
        write_once(&lock, &mut t, cell, i < PRESSURE - 1);
    }
    assert!(lock.debug_bias_enabled(), "below the threshold: no flip");

    // Window 2: exactly the threshold, all early in the window.
    for i in 0..WINDOW - 1 {
        write_once(&lock, &mut t, cell, i < PRESSURE);
    }
    assert!(
        lock.debug_bias_enabled(),
        "the window is judged only at its last completion"
    );
    write_once(&lock, &mut t, cell, false);
    assert!(
        !lock.debug_bias_enabled(),
        "threshold revocations flip bias off"
    );

    // Window 3: quiet.
    for _ in 0..WINDOW {
        write_once(&lock, &mut t, cell, false);
    }
    assert!(lock.debug_bias_enabled(), "a quiet window flips it back");

    let trace = t.trace.snapshot();
    let revokes = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BiasRevoke { .. }))
        .count();
    assert_eq!(
        revokes,
        2 * PRESSURE - 1,
        "one revocation per armed section"
    );
    assert_eq!(
        decisions_for(&[trace], "bravo-bias"),
        vec![(SEC_W.0, 0), (SEC_W.0, 1)]
    );
}

/// Two writers under the deterministic scheduler, each arming the bias
/// before every section: the revocation feed must flip the bias off, and
/// the same schedule seed must give the same revocations and the same
/// decisions at the same points.
#[test]
fn revocation_flips_replay_identically_under_the_det_scheduler() {
    const WRITERS: usize = 2;
    const SECTIONS: usize = 2 * WINDOW;
    let run = |schedule_seed: u64| {
        let h = Htm::new(
            HtmConfig {
                capacity: CapacityProfile::BROADWELL_SIM,
                max_threads: WRITERS,
                scheduler: SchedulerKind::Deterministic { schedule_seed },
                ..HtmConfig::default()
            },
            64 * 1024,
        );
        let lock = bravo_tuned(&h);
        let cell = h.memory().alloc(1).cell(0);
        let traces = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|tid| {
                    let (h, lock) = (&h, &lock);
                    s.spawn(move || {
                        let mut t = LockThread::with_trace(h.thread(tid), TraceConfig::ring(8192));
                        for _ in 0..SECTIONS {
                            write_once(lock, &mut t, cell, true);
                        }
                        t.trace.snapshot()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer panicked"))
                .collect::<Vec<_>>()
        });
        assert_eq!(h.memory().peek(cell), (WRITERS * SECTIONS) as u64);
        let revokes: Vec<usize> = traces
            .iter()
            .map(|t| {
                t.events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::BiasRevoke { .. }))
                    .count()
            })
            .collect();
        let flips: Vec<Vec<(u32, u64)>> = traces
            .iter()
            .map(|t| decisions_for(std::slice::from_ref(t), "bravo-bias"))
            .collect();
        (revokes, flips, lock.debug_bias_enabled())
    };
    let (revokes, flips, enabled) = run(13);
    assert!(
        revokes.iter().sum::<usize>() >= PRESSURE,
        "the writers paid revocations: {revokes:?}"
    );
    assert_eq!(
        flips.iter().flatten().next(),
        Some(&(SEC_W.0, 0)),
        "the first bias decision is the pressure flip: {flips:?}"
    );
    assert!(!enabled, "sustained revocations keep the bias off");
    assert_eq!(
        run(13),
        (revokes, flips, enabled),
        "same schedule seed, same revocations and decisions"
    );
}

/// The stretch-level knob: under chronic capacity pressure on TINY the
/// tuner must walk the section up the ladder (direct → ROT → split), one
/// rung per pressured window, each step visible as a `tune-decision`.
#[test]
fn tuner_escalates_stretch_level_under_capacity_pressure() {
    let h = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::TINY,
            max_threads: 4,
            ..HtmConfig::default()
        },
        64 * 1024,
    );
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            stretch: StretchPolicy::ON,
            readers_try_htm: false,
            delta: DeltaPolicy::Zero,
            ..SprwlConfig::self_tuning()
        },
    );
    // Six distinct lines: overflows TINY's HTM write budget (2) and its
    // ROT budget (2), so every rung below the split keeps capacity-aborting.
    let cells = h.memory().alloc_line_aligned(64);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(8192));
    for round in 0..64u64 {
        lock.write_section(&mut t, SEC_W, &mut |a| {
            for i in 0..6 {
                a.write(cells.cell(i * 8), round + 1)?;
            }
            Ok(round)
        });
    }
    assert_eq!(
        lock.debug_stretch_level(SEC_W),
        2,
        "two pressured windows must escalate the sticky rung to the split"
    );
    let steps = decisions_for(&[t.trace.snapshot()], "stretch-level");
    assert_eq!(
        steps,
        vec![(SEC_W.0, 1), (SEC_W.0, 2)],
        "escalation must climb one rung per window, each step traced"
    );
    // Every execution overflowed both speculative rungs, so all commits
    // landed on the (split) fallback — and the writes actually landed.
    assert_eq!(t.stats.commits_in(CommitMode::Gl), 64);
    let seen = lock.read_section(&mut t, SEC_R, &mut |a| a.read(cells.cell(0)));
    assert_eq!(seen, 64);
}
