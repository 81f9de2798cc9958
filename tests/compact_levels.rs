//! Differential suite for the compact-level engine (PR 10): the one-byte
//! `LevelVec` storage behind every level array must be bit-for-bit
//! invisible. Exhaustive ≤2-fault sweeps on B(2,5) and B(3,3) pin the
//! published broadcast levels against a scalar BFS oracle and pin the
//! incremental (delta-pass) path against from-scratch resets; a B(2,14)
//! property test crosses the sparse↔dense switch; and a warmed-up
//! maintainer must absorb further churn through the skip-scan delta path
//! without allocating.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use debruijn_rings::core::{Ffc, RingMaintainer, SnapshotPublisher};

/// Scalar broadcast-level oracle: BFS from `root` over the members along
/// forward de Bruijn edges `u -> (u mod d^(n-1))·d + a`.
fn oracle_levels(d: usize, total: usize, member: &[bool], root: usize) -> Vec<Option<u32>> {
    let suffix = total / d;
    let mut lv = vec![None; total];
    if !member[root] {
        return lv;
    }
    lv[root] = Some(0u32);
    let mut q = VecDeque::from([root]);
    while let Some(u) = q.pop_front() {
        let l = lv[u].expect("queued nodes are levelled");
        for a in 0..d {
            let v = (u % suffix) * d + a;
            if member[v] && lv[v].is_none() {
                lv[v] = Some(l + 1);
                q.push_back(v);
            }
        }
    }
    lv
}

/// Every fault set of size ≤ 2.
fn fault_sets(total: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new()];
    for a in 0..total {
        sets.push(vec![a]);
        for b in a + 1..total {
            sets.push(vec![a, b]);
        }
    }
    sets
}

#[test]
fn exhaustive_two_fault_broadcast_levels_match_the_scalar_oracle() {
    for &(d, n) in &[(2u64, 5u32), (3, 3)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.graph().len();
        let mut maint = RingMaintainer::new();
        let mut publisher = SnapshotPublisher::new();
        for faults in fault_sets(total) {
            maint.reset(&ffc, &faults).expect("in-range");
            let snap = maint.publish(&mut publisher, 0).expect("publish");
            match snap.root() {
                Some(root) => {
                    let member: Vec<bool> = (0..total)
                        .map(|v| snap.contains(v).expect("in range"))
                        .collect();
                    let want = oracle_levels(d as usize, total, &member, root);
                    for (v, want_v) in want.iter().enumerate() {
                        assert_eq!(
                            snap.broadcast_level(v).expect("in range"),
                            *want_v,
                            "d={d} n={n} faults={faults:?} node {v}"
                        );
                    }
                }
                None => {
                    for v in 0..total {
                        assert_eq!(
                            snap.broadcast_level(v).expect("in range"),
                            None,
                            "infeasible levels d={d} faults={faults:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_two_fault_incremental_levels_match_from_scratch() {
    for &(d, n) in &[(2u64, 5u32), (3, 3)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.graph().len();
        let mut inc = RingMaintainer::new();
        let mut fresh = RingMaintainer::new();
        let mut pub_inc = SnapshotPublisher::new();
        let mut pub_fresh = SnapshotPublisher::new();
        for faults in fault_sets(total) {
            // The incremental maintainer reaches the fault set through the
            // delta passes (one add_fault at a time from empty); the fresh
            // one rebuilds it from scratch.
            inc.reset(&ffc, &[]).expect("in-range");
            for &v in &faults {
                inc.add_fault(&ffc, v).expect("in-range");
            }
            fresh.reset(&ffc, &faults).expect("in-range");
            assert_eq!(inc.stats(), fresh.stats(), "stats faults={faults:?}");
            let a = inc
                .publish(&mut pub_inc, faults.len() as u64)
                .expect("publish");
            let b = fresh.publish(&mut pub_fresh, 0).expect("publish");
            for v in 0..total {
                assert_eq!(
                    a.broadcast_level(v).expect("in range"),
                    b.broadcast_level(v).expect("in range"),
                    "d={d} faults={faults:?} node {v}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// B(2,14) is dense-capable: random fault batches walk the maintainer
    /// across the sparse↔dense frontier switch, and the published levels
    /// must match the scalar oracle after every batch.
    #[test]
    fn b2_14_levels_match_oracle_across_the_density_switch(
        seed in any::<u64>(),
        batches in 4usize..9,
    ) {
        let ffc = Ffc::new(2, 14);
        let total = ffc.graph().len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut maint = RingMaintainer::new();
        let mut publisher = SnapshotPublisher::new();
        let mut faults: Vec<usize> = Vec::new();
        maint.reset(&ffc, &faults).expect("in-range");
        for step in 0..batches {
            for _ in 0..rng.gen_range(1..5) {
                let clear = !faults.is_empty() && rng.gen_range(0..3) == 0;
                if clear {
                    let i = rng.gen_range(0..faults.len());
                    let v = faults.swap_remove(i);
                    maint.clear_fault(&ffc, v).expect("in-range");
                } else {
                    let v = rng.gen_range(0..total);
                    if !faults.contains(&v) {
                        faults.push(v);
                    }
                    maint.add_fault(&ffc, v).expect("in-range");
                }
            }
            let snap = maint.publish(&mut publisher, step as u64).expect("publish");
            let root = snap.root().expect("≤ a few faults keeps B(2,14) feasible");
            let member: Vec<bool> = (0..total)
                .map(|v| snap.contains(v).expect("in range"))
                .collect();
            let want = oracle_levels(2, total, &member, root);
            for (v, want_v) in want.iter().enumerate() {
                prop_assert_eq!(
                    snap.broadcast_level(v).expect("in range"),
                    *want_v,
                    "step {} node {}", step, v
                );
            }
        }
    }
}

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
    // One byte per node per level array (plus the empty-in-steady-state
    // overflow reserve): the compact arrays must beat the 3 × 4 × total
    // bytes of the u32 storage they replaced by at least 3×.
    assert!(
        level_bytes * 3 <= 3 * 4 * total,
        "compact level arrays must be ≥3× smaller: {level_bytes} bytes for {total} nodes"
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
