//! Single- and two-thread semantics tests for the simulated HTM engine.

use htm_sim::{Abort, CapacityProfile, Htm, HtmConfig, MemAccess, TxKind};

fn htm_with(profile: CapacityProfile) -> Htm {
    Htm::new(
        HtmConfig {
            capacity: profile,
            max_threads: 8,
            ..HtmConfig::default()
        },
        4096,
    )
}

#[test]
fn committed_writes_become_visible() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(4);
    let mut ctx = htm.thread(0);
    ctx.txn(TxKind::Htm, |tx| {
        tx.write(r.cell(0), 11)?;
        tx.write(r.cell(3), 44)?;
        Ok(())
    })
    .unwrap();
    let d = htm.direct(0);
    assert_eq!(d.load(r.cell(0)), 11);
    assert_eq!(d.load(r.cell(1)), 0);
    assert_eq!(d.load(r.cell(3)), 44);
}

#[test]
fn aborted_writes_are_discarded() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Htm, |tx| {
            tx.write(r.cell(0), 99)?;
            tx.abort::<()>(7)
        })
        .unwrap_err();
    assert_eq!(err, Abort::Explicit(7));
    assert_eq!(htm.direct(0).load(r.cell(0)), 0);
}

#[test]
fn reads_own_writes() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    let v = ctx
        .txn(TxKind::Htm, |tx| {
            tx.write(r.cell(0), 5)?;
            tx.read(r.cell(0))
        })
        .unwrap();
    assert_eq!(v, 5);
    // Uncommitted value must have been invisible... it is now committed.
    assert_eq!(htm.direct(0).load(r.cell(0)), 5);
}

#[test]
fn buffered_writes_invisible_before_commit() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let cfg_off = htm.config().reads_doom_writers;
    assert!(cfg_off, "default config dooms on reads");
    // Use a second runtime with reads_doom disabled so the observer read
    // does not kill the writer.
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            reads_doom_writers: false,
            max_threads: 8,
            ..HtmConfig::default()
        },
        1024,
    );
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    let observed = ctx
        .txn(TxKind::Htm, |tx| {
            tx.write(r.cell(0), 123)?;
            // Observe from "another thread" (untracked) mid-transaction.
            Ok(htm.direct(1).load(r.cell(0)))
        })
        .unwrap();
    assert_eq!(observed, 0, "speculative store leaked before commit");
    assert_eq!(htm.direct(1).load(r.cell(0)), 123);
}

#[test]
fn untracked_store_dooms_reader_transaction() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Htm, |tx| {
            let _ = tx.read(r.cell(0))?;
            // Strong isolation: this untracked store (from thread 1) must
            // doom the transaction that has the line in its read-set.
            htm.direct(1).store(r.cell(0), 9);
            // The doom is detected at the next access or at commit.
            let _ = tx.read(r.cell(0))?;
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::Conflict);
    assert_eq!(htm.direct(0).load(r.cell(0)), 9, "untracked store persists");
}

#[test]
fn doom_is_detected_at_commit_even_without_further_accesses() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Htm, |tx| {
            let _ = tx.read(r.cell(0))?;
            htm.direct(1).store(r.cell(0), 9);
            Ok(()) // no further accesses: commit must still fail
        })
        .unwrap_err();
    assert_eq!(err, Abort::Conflict);
}

#[test]
fn untracked_read_dooms_speculative_writer() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Htm, |tx| {
            tx.write(r.cell(0), 5)?;
            let seen = htm.direct(1).load(r.cell(0));
            assert_eq!(seen, 0, "buffered write must stay invisible");
            tx.read(r.cell(0))?; // detect doom
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::Conflict);
}

#[test]
fn capacity_read_aborts() {
    let htm = htm_with(CapacityProfile::TINY); // 4 read lines
    let r = htm.memory().alloc_line_aligned(8 * 8); // 8 lines
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Htm, |tx| {
            for i in 0..5 {
                let _ = tx.read(r.cell(i * 8))?; // distinct lines
            }
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::CapacityRead);
    assert_eq!(ctx.stats.aborts_capacity_read, 1);
}

#[test]
fn capacity_write_aborts() {
    let htm = htm_with(CapacityProfile::TINY); // 2 write lines
    let r = htm.memory().alloc_line_aligned(8 * 4);
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Htm, |tx| {
            for i in 0..3 {
                tx.write(r.cell(i * 8), 1)?;
            }
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::CapacityWrite);
}

#[test]
fn capacity_counts_lines_not_cells() {
    let htm = htm_with(CapacityProfile::TINY); // 4 read lines
    let r = htm.memory().alloc_line_aligned(8);
    let mut ctx = htm.thread(0);
    // 8 cells on ONE line: fits easily.
    ctx.txn(TxKind::Htm, |tx| {
        for i in 0..8 {
            let _ = tx.read(r.cell(i))?;
        }
        assert_eq!(tx.read_footprint(), 1);
        Ok(())
    })
    .unwrap();
}

#[test]
fn rot_reads_are_untracked_and_uncapped() {
    let htm = htm_with(CapacityProfile::TINY);
    let r = htm.memory().alloc_line_aligned(8 * 16);
    let mut ctx = htm.thread(0);
    ctx.txn(TxKind::Rot, |tx| {
        for i in 0..16 {
            let _ = tx.read(r.cell(i * 8))?; // 16 lines >> read cap 4
        }
        assert_eq!(tx.read_footprint(), 0, "ROT tracks no reads");
        tx.write(r.cell(0), 1)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(htm.direct(0).load(r.cell(0)), 1);
}

#[test]
fn rot_writes_are_still_buffered_and_capped() {
    let htm = htm_with(CapacityProfile::TINY); // rot_write_lines = 2
    let r = htm.memory().alloc_line_aligned(8 * 4);
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Rot, |tx| {
            for i in 0..3 {
                tx.write(r.cell(i * 8), 1)?;
            }
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::CapacityWrite);
    assert_eq!(htm.direct(0).load(r.cell(0)), 0, "rolled back");
}

#[test]
#[should_panic(expected = "POWER8-only")]
fn rot_panics_on_intel_like_profile() {
    let htm = htm_with(CapacityProfile::BROADWELL_SIM);
    let mut ctx = htm.thread(0);
    let _ = ctx.txn(TxKind::Rot, |_tx| Ok(()));
}

#[test]
fn suspend_runs_untracked_and_resumes() {
    let htm = htm_with(CapacityProfile::POWER8_SIM);
    let r = htm.memory().alloc_line_aligned(16);
    let side = htm.memory().alloc_line_aligned(8);
    let mut ctx = htm.thread(0);
    ctx.txn(TxKind::Rot, |tx| {
        tx.write(r.cell(0), 42)?;
        let seen = tx.suspend(|d| {
            d.store(side.cell(0), 1); // untracked effect, survives regardless
            d.load(r.cell(0))
        })?;
        assert_eq!(seen, 42, "suspended loads see own speculative stores (L1)");
        Ok(())
    })
    .unwrap();
    assert_eq!(htm.direct(0).load(side.cell(0)), 1);
    assert_eq!(htm.direct(0).load(r.cell(0)), 42);
}

#[test]
fn doom_while_suspended_aborts_at_resume() {
    let htm = htm_with(CapacityProfile::POWER8_SIM);
    let r = htm.memory().alloc_line_aligned(8);
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Rot, |tx| {
            tx.write(r.cell(0), 42)?;
            tx.suspend(|_d| {
                // Conflicting untracked store from another thread while
                // we're suspended.
                htm.direct(1).store(r.cell(0), 7);
            })?;
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::Conflict);
    assert_eq!(
        htm.direct(0).load(r.cell(0)),
        7,
        "tx rolled back, store kept"
    );
}

#[test]
fn interrupt_injection_aborts_eventually() {
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            interrupt_prob: 0.5,
            max_threads: 2,
            ..HtmConfig::default()
        },
        64,
    );
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    let mut interrupted = false;
    for _ in 0..64 {
        match ctx.txn(TxKind::Htm, |tx| {
            for _ in 0..8 {
                let _ = tx.read(r.cell(0))?;
            }
            Ok(())
        }) {
            Err(Abort::Interrupt) => {
                interrupted = true;
                break;
            }
            Err(other) => panic!("unexpected abort {other:?}"),
            Ok(()) => {}
        }
    }
    assert!(interrupted, "p=0.5 per access should interrupt quickly");
    assert!(ctx.stats.aborts_interrupt >= 1);
}

#[test]
fn explicit_abort_codes_pass_through() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let mut ctx = htm.thread(0);
    for code in [0u32, 1, 0xCA] {
        let err = ctx.txn(TxKind::Htm, |tx| tx.abort::<()>(code)).unwrap_err();
        assert_eq!(err, Abort::Explicit(code));
    }
    assert_eq!(ctx.stats.aborts_explicit, 3);
}

#[test]
fn tx_tx_conflict_requester_wins() {
    // Thread 0 reads the line in a transaction, thread 1 writes it
    // transactionally: requester (thread 1) must win, dooming thread 0.
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let mut c0 = htm.thread(0);
    let mut c1 = htm.thread(1);
    let err = c0
        .txn(TxKind::Htm, |tx| {
            let _ = tx.read(r.cell(0))?;
            // Nested: run thread 1's whole transaction while 0 is active.
            c1.txn(TxKind::Htm, |tx1| {
                tx1.write(r.cell(0), 3)?;
                Ok(())
            })
            .unwrap();
            tx.read(r.cell(0))?; // doomed now
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::Conflict);
    assert_eq!(htm.direct(0).load(r.cell(0)), 3);
}

#[test]
fn tx_tx_conflict_responder_wins_self_aborts() {
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            conflict_policy: htm_sim::ConflictPolicy::ResponderWins,
            max_threads: 4,
            ..HtmConfig::default()
        },
        64,
    );
    let r = htm.memory().alloc(1);
    let mut c0 = htm.thread(0);
    let mut c1 = htm.thread(1);
    c0.txn(TxKind::Htm, |tx| {
        let _ = tx.read(r.cell(0))?;
        let err = c1
            .txn(TxKind::Htm, |tx1| {
                tx1.write(r.cell(0), 3)?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, Abort::Conflict, "requester self-aborted");
        Ok(())
    })
    .unwrap();
    assert_eq!(htm.direct(0).load(r.cell(0)), 0, "responder survived");
}

#[test]
fn thread_slots_are_exclusive_and_reusable() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let c0 = htm.thread(0);
    drop(c0);
    let _again = htm.thread(0); // fine after drop
}

#[test]
#[should_panic(expected = "already claimed")]
fn double_claim_panics() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let _a = htm.thread(1);
    let _b = htm.thread(1);
}

#[test]
fn mem_access_trait_is_object_safe_and_uniform() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);

    fn bump(a: &mut dyn MemAccess, c: htm_sim::CellId) -> htm_sim::TxResult<u64> {
        let v = a.read(c)?;
        a.write(c, v + 1)?;
        Ok(v + 1)
    }

    let mut ctx = htm.thread(0);
    let v1 = ctx.txn(TxKind::Htm, |tx| bump(tx, r.cell(0))).unwrap();
    assert_eq!(v1, 1);
    let mut d = htm.direct(0);
    let v2 = bump(&mut d, r.cell(0)).unwrap();
    assert_eq!(v2, 2);
}

#[test]
fn direct_rmw_primitives() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let d = htm.direct(0);
    assert_eq!(d.compare_exchange(r.cell(0), 0, 10), Ok(0));
    assert_eq!(d.compare_exchange(r.cell(0), 0, 20), Err(10));
    assert_eq!(d.fetch_add(r.cell(0), 5), 10);
    assert_eq!(d.load(r.cell(0)), 15);
}

#[test]
fn stats_track_commits_and_aborts() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let mut ctx = htm.thread(0);
    ctx.txn(TxKind::Htm, |tx| tx.write(r.cell(0), 1)).unwrap();
    let _ = ctx.txn(TxKind::Htm, |tx| tx.abort::<()>(1));
    assert_eq!(ctx.stats.begins(), 2);
    assert_eq!(ctx.stats.commits(), 1);
    assert_eq!(ctx.stats.aborts(), 1);
}

#[test]
fn conflict_abort_is_attributed_to_line_and_peer() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let r = htm.memory().alloc(1);
    let line = htm.memory().line_of(r.cell(0));
    let mut ctx = htm.thread(0);
    let err = ctx
        .txn(TxKind::Htm, |tx| {
            let _ = tx.read(r.cell(0))?;
            htm.direct(1).store(r.cell(0), 9);
            tx.read(r.cell(0))?;
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err, Abort::Conflict);
    let info = ctx.last_conflict().expect("doomer left a note");
    assert_eq!(info.line, line);
    assert_eq!(info.peer, 1);
    // The note is per-transaction: a clean commit clears it.
    ctx.txn(TxKind::Htm, |tx| tx.write(r.cell(0), 1)).unwrap();
    assert_eq!(ctx.last_conflict(), None);
}

#[test]
fn non_conflict_aborts_carry_no_attribution() {
    let htm = htm_with(CapacityProfile::UNBOUNDED);
    let mut ctx = htm.thread(0);
    let _ = ctx.txn(TxKind::Htm, |tx| tx.abort::<()>(7));
    assert_eq!(ctx.last_conflict(), None);
}

/// Each thread context reuses one footprint and write buffer across its
/// transactions. Whatever way an attempt that buffered writes ends, the
/// next attempt must start empty: no footprint, reads served from memory,
/// and suspended loads not served from the old buffer either.
mod scratch_reuse {
    use htm_sim::{Abort, CapacityProfile, Htm, Region, TxKind, TxResult};

    /// Runs `attempt` (which buffers stores of 100+ into the first two lines
    /// of `r`), overwrites those cells with fresh values, then checks that
    /// the next transaction on the same context sees only memory.
    fn check_next_attempt_is_fresh(
        kind: TxKind,
        expect: Result<(), Abort>,
        attempt: impl FnOnce(&mut htm_sim::Tx<'_>, &Htm, Region) -> TxResult<()>,
    ) {
        // TINY: 4 read lines, 2 write lines, ROT and suspend/resume.
        let htm = super::htm_with(CapacityProfile::TINY);
        let r = htm.memory().alloc_line_aligned(8 * 4);
        let mut ctx = htm.thread(0);
        let got = ctx.txn(kind, |tx| attempt(tx, &htm, r));
        assert_eq!(got, expect);

        let fresh = [r.cell(0), r.cell(1), r.cell(8)];
        let d = htm.direct(1);
        for (i, &c) in fresh.iter().enumerate() {
            d.store(c, 7 + i as u64);
        }
        let want = vec![7, 8, 9];
        let (suspended, read) = ctx
            .txn(TxKind::Htm, |tx| {
                assert_eq!(tx.read_footprint(), 0, "read footprint carried over");
                assert_eq!(tx.write_footprint(), 0, "write footprint carried over");
                let suspended =
                    tx.suspend(|s| fresh.iter().map(|&c| s.load(c)).collect::<Vec<u64>>())?;
                let read = fresh
                    .iter()
                    .map(|&c| tx.read(c))
                    .collect::<TxResult<Vec<u64>>>()?;
                assert_eq!(tx.read_footprint(), 2);
                assert_eq!(tx.write_footprint(), 0);
                Ok((suspended, read))
            })
            .unwrap();
        assert_eq!(suspended, want, "suspended loads saw the old write buffer");
        assert_eq!(read, want, "reads saw the old write buffer");
        let after: Vec<u64> = fresh.iter().map(|&c| d.load(c)).collect();
        assert_eq!(
            after, want,
            "a read-only commit flushed the old write buffer"
        );
    }

    fn buffer_two_lines(tx: &mut htm_sim::Tx<'_>, r: &Region) -> TxResult<()> {
        tx.write(r.cell(0), 100)?;
        tx.write(r.cell(1), 101)?;
        tx.write(r.cell(8), 102)?;
        Ok(())
    }

    #[test]
    fn after_commit() {
        check_next_attempt_is_fresh(TxKind::Htm, Ok(()), |tx, _, r| {
            let _ = tx.read(r.cell(16))?;
            buffer_two_lines(tx, &r)
        });
    }

    #[test]
    fn after_explicit_abort() {
        check_next_attempt_is_fresh(TxKind::Htm, Err(Abort::Explicit(3)), |tx, _, r| {
            let _ = tx.read(r.cell(16))?;
            buffer_two_lines(tx, &r)?;
            tx.abort(3)
        });
    }

    #[test]
    fn after_capacity_abort() {
        check_next_attempt_is_fresh(TxKind::Htm, Err(Abort::CapacityWrite), |tx, _, r| {
            buffer_two_lines(tx, &r)?;
            tx.write(r.cell(16), 103) // a third line: over TINY's 2
        });
    }

    #[test]
    fn after_conflict_abort() {
        check_next_attempt_is_fresh(TxKind::Htm, Err(Abort::Conflict), |tx, htm, r| {
            let _ = tx.read(r.cell(24))?;
            buffer_two_lines(tx, &r)?;
            htm.direct(1).store(r.cell(24), 1); // strong isolation dooms us
            tx.read(r.cell(25)).map(drop)
        });
    }

    #[test]
    fn after_rot() {
        check_next_attempt_is_fresh(TxKind::Rot, Err(Abort::Explicit(5)), |tx, _, r| {
            let _ = tx.read(r.cell(16))?;
            buffer_two_lines(tx, &r)?;
            tx.abort(5)
        });
    }

    #[test]
    fn after_rot_commit() {
        check_next_attempt_is_fresh(TxKind::Rot, Ok(()), |tx, _, r| buffer_two_lines(tx, &r));
    }
}
