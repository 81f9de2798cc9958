//! The compact-level engine (PR 10) under churn: a warmed-up maintainer
//! keeps its one-byte `LevelVec` level array at least 3× smaller than
//! `u32` storage and absorbs further churn through the skip-scan delta
//! path without allocating. The level values themselves are pinned
//! against a scalar BFS oracle and against from-scratch embeds by the
//! maintainer suites inside `dbg-core` (`ffc::tests`).

use debruijn_rings::core::{Ffc, RingMaintainer, SnapshotPublisher};

#[test]
fn warmed_up_maintainer_absorbs_churn_without_allocating() {
    let ffc = Ffc::new(2, 12);
    let total = ffc.graph().len();
    let mut maint = RingMaintainer::new();
    let mut publisher = SnapshotPublisher::new();
    maint.reset(&ffc, &[]).expect("in-range");
    // Warm-up: enough add/clear/publish cycles to size every buffer —
    // including the delta scratch.
    let churn: Vec<usize> = (0..12).map(|i| (i * 241 + 7) % total).collect();
    for round in 0..3u64 {
        for &v in &churn {
            maint.add_fault(&ffc, v).expect("in-range");
        }
        maint.publish(&mut publisher, round).expect("publish");
        for &v in &churn {
            maint.clear_fault(&ffc, v).expect("in-range");
        }
        maint.publish(&mut publisher, round).expect("publish");
    }
    let level_bytes = maint.level_bytes();
    // One byte per node in the one level array (plus the
    // empty-in-steady-state overflow reserve): the compact array must beat
    // the 4 × total bytes of u32 storage by at least 3×.
    assert!(
        level_bytes * 3 <= 4 * total,
        "the compact level array must be ≥3× smaller: {level_bytes} bytes for {total} nodes"
    );
    let bytes = maint.allocated_bytes();
    assert!(bytes > 0);
    // Steady state: the same churn pattern (skip-scan delta path and
    // publications included) must not grow any buffer.
    for round in 0..2u64 {
        for &v in &churn {
            maint.add_fault(&ffc, v).expect("in-range");
        }
        maint.publish(&mut publisher, round).expect("publish");
        for &v in &churn {
            maint.clear_fault(&ffc, v).expect("in-range");
        }
        maint.publish(&mut publisher, round).expect("publish");
    }
    assert_eq!(
        maint.allocated_bytes(),
        bytes,
        "steady-state churn must not allocate"
    );
}
