//! Concurrency and property tests for the SNZI.

use htm_sim::{Htm, HtmConfig};
use proptest::prelude::*;
use snzi::Snzi;

#[test]
fn concurrent_arrive_depart_round_trips() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 300;
    let htm = Htm::new(
        HtmConfig {
            max_threads: THREADS,
            ..HtmConfig::default()
        },
        256,
    );
    let snzi = Snzi::new(htm.memory(), THREADS);
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let htm = &htm;
            let snzi = &snzi;
            s.spawn(move || {
                let d = htm.direct(tid);
                for _ in 0..ROUNDS {
                    snzi.arrive(&d, tid);
                    // While present, the indicator must be set.
                    assert!(snzi.query_untracked(&d));
                    snzi.depart(&d, tid);
                }
            });
        }
    });
    assert!(!snzi.query_untracked(&htm.direct(0)), "all departed");
}

/// Two threads on distinct leaves of a two-leaf tree: the layout the KV
/// service's two clients produce, where every arrival and departure CASes
/// a neighbouring node.
#[test]
fn two_leaves_stay_balanced_over_many_round_trips() {
    const PAIRS: usize = 100_000;
    let htm = Htm::new(
        HtmConfig {
            max_threads: 2,
            ..HtmConfig::default()
        },
        256,
    );
    let snzi = Snzi::new(htm.memory(), 2);
    std::thread::scope(|s| {
        for tid in 0..2 {
            let (htm, snzi) = (&htm, &snzi);
            s.spawn(move || {
                let d = htm.direct(tid);
                for _ in 0..PAIRS {
                    snzi.arrive(&d, tid);
                    snzi.depart(&d, tid);
                }
            });
        }
    });
    snzi.check_balanced(htm.memory())
        .expect("every arrival departed");
}

#[test]
fn concurrent_nested_presences_drain_to_zero() {
    const THREADS: usize = 6;
    let htm = Htm::new(
        HtmConfig {
            max_threads: THREADS,
            ..HtmConfig::default()
        },
        256,
    );
    let snzi = Snzi::new(htm.memory(), THREADS);
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let htm = &htm;
            let snzi = &snzi;
            s.spawn(move || {
                let d = htm.direct(tid);
                for depth in 1..=4usize {
                    for _ in 0..depth {
                        snzi.arrive(&d, tid);
                    }
                    assert!(snzi.query_untracked(&d));
                    for _ in 0..depth {
                        snzi.depart(&d, tid);
                    }
                }
            });
        }
    });
    assert!(!snzi.query_untracked(&htm.direct(0)));
}

#[test]
fn indicator_never_false_while_any_thread_is_inside() {
    // One thread holds a long presence while others churn; the indicator
    // must never flicker to zero.
    const CHURNERS: usize = 4;
    let htm = Htm::new(
        HtmConfig {
            max_threads: CHURNERS + 1,
            ..HtmConfig::default()
        },
        256,
    );
    let snzi = Snzi::new(htm.memory(), CHURNERS + 1);
    let holder = htm.direct(CHURNERS);
    snzi.arrive(&holder, CHURNERS);
    std::thread::scope(|s| {
        for tid in 0..CHURNERS {
            let htm = &htm;
            let snzi = &snzi;
            s.spawn(move || {
                let d = htm.direct(tid);
                for _ in 0..500 {
                    snzi.arrive(&d, tid);
                    snzi.depart(&d, tid);
                }
            });
        }
        let snzi = &snzi;
        let htm = &htm;
        s.spawn(move || {
            let d = htm.direct(CHURNERS);
            for _ in 0..2_000 {
                assert!(snzi.query_untracked(&d), "indicator flickered to 0");
            }
        });
    });
    snzi.depart(&holder, CHURNERS);
    assert!(!snzi.query_untracked(&holder));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sequential linearizable reference: the indicator equals
    /// (number of arrives − departs) > 0 at every step.
    #[test]
    fn matches_reference_counter(ops in proptest::collection::vec((0usize..8, any::<bool>()), 1..200)) {
        let htm = Htm::new(HtmConfig { max_threads: 8, ..HtmConfig::default() }, 256);
        let snzi = Snzi::new(htm.memory(), 8);
        let d = htm.direct(0);
        let mut per_thread = [0i64; 8];
        for (tid, is_arrive) in ops {
            if is_arrive {
                snzi.arrive(&d, tid);
                per_thread[tid] += 1;
            } else if per_thread[tid] > 0 {
                snzi.depart(&d, tid);
                per_thread[tid] -= 1;
            }
            let total: i64 = per_thread.iter().sum();
            prop_assert_eq!(snzi.query_untracked(&d), total > 0);
        }
    }
}
