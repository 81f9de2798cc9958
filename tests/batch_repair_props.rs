//! Correctness pins for batched multi-fault repair and graceful
//! degradation on the `RingMaintainer`:
//!
//! * an **exhaustive grid** over every ≤3-fault multiset on B(2,5) and
//!   B(3,3), applied sequentially and through every batch partitioning
//!   ([3], [1,2], [2,1], [1,1,1]), with stats *and* ring bytes asserted
//!   identical to a from-scratch `embed_into` of the same fault set;
//! * degradation past tolerance stays queryable and recovers to
//!   `Repaired` after clears, including the all-necklaces-dead
//!   `Infeasible` floor;
//! * the typed-rejection surface: out-of-range ids and non-edges return
//!   `RepairError` (batches atomically) instead of panicking, and
//!   clearing a never-faulty node is a documented no-op.

use debruijn_rings::core::{EmbedScratch, FaultEvent, Ffc, RepairError, RingMaintainer};

/// Every ordered batch partitioning of a `len`-event sequence.
fn partitionings(len: usize) -> Vec<Vec<usize>> {
    match len {
        0 => vec![vec![]],
        1 => vec![vec![1]],
        2 => vec![vec![2], vec![1, 1]],
        3 => vec![vec![3], vec![1, 2], vec![2, 1], vec![1, 1, 1]],
        _ => unreachable!("grid stops at 3 faults"),
    }
}

/// The exhaustive grid on one graph: every non-decreasing fault multiset
/// of size ≤ 3, every batch partitioning, vs sequential `add_fault` vs
/// from-scratch `embed_into`.
fn exhaustive_batch_grid(d: u64, n: u32) {
    let ffc = Ffc::new(d, n);
    let total = ffc.graph().len();
    let mut scratch = EmbedScratch::new();
    let mut maint = RingMaintainer::new();
    let mut ring = Vec::new();

    let mut multisets: Vec<Vec<usize>> = vec![vec![]];
    for a in 0..total {
        multisets.push(vec![a]);
        for b in a..total {
            multisets.push(vec![a, b]);
            for c in b..total {
                multisets.push(vec![a, b, c]);
            }
        }
    }

    let mut saw_degraded = false;
    for faults in &multisets {
        let mut unique = faults.clone();
        unique.dedup();
        let want = ffc.embed_into(&mut scratch, &unique);
        let want_ring: Vec<usize> = scratch.cycle().to_vec();

        // Sequential single-fault events.
        maint.reset(&ffc, &[]).expect("in-range");
        let mut outcome = maint.outcome();
        for &v in faults {
            outcome = maint.add_fault(&ffc, v).expect("in-range");
        }
        assert_eq!(outcome.stats(), want, "sequential stats for {faults:?}");
        maint.ring_into(&mut ring);
        assert_eq!(ring, want_ring, "sequential ring for {faults:?}");
        saw_degraded |= outcome.is_degraded();

        // The outcome variant must agree with the stats it carries.
        let live = total - want.removed_nodes;
        assert_eq!(
            outcome.is_repaired(),
            want.component_size == live && live > 0,
            "outcome classification for {faults:?}: {outcome:?}"
        );
        assert_eq!(outcome.excluded(), live - want.component_size);

        // Every batch partitioning of the same event sequence.
        for parts in partitionings(faults.len()) {
            maint.reset(&ffc, &[]).expect("in-range");
            let mut at = 0usize;
            let mut out = maint.outcome();
            for &len in &parts {
                let batch: Vec<FaultEvent> = faults[at..at + len]
                    .iter()
                    .map(|&v| FaultEvent::NodeDown(v))
                    .collect();
                out = maint.apply_batch(&ffc, &batch).expect("in-range");
                at += len;
            }
            assert_eq!(
                out.stats(),
                want,
                "batched stats for {faults:?} split {parts:?}"
            );
            maint.ring_into(&mut ring);
            assert_eq!(
                ring, want_ring,
                "batched ring for {faults:?} split {parts:?}"
            );
        }
    }
    // The grid must have crossed the degradation boundary, or it proved
    // nothing about the past-tolerance path.
    assert!(saw_degraded, "no ≤3-fault set degraded B({d},{n})");
}

#[test]
fn exhaustive_batch_grid_b2_5() {
    exhaustive_batch_grid(2, 5);
}

#[test]
fn exhaustive_batch_grid_b3_3() {
    exhaustive_batch_grid(3, 3);
}

/// Past tolerance the maintainer serves a shorter ring, stays fully
/// queryable, and climbs back to `Repaired` as faults clear — through the
/// `Infeasible` floor where every necklace is dead.
#[test]
fn degradation_is_queryable_and_recoverable() {
    let ffc = Ffc::new(2, 5);
    let total = ffc.graph().len();
    let mut scratch = EmbedScratch::new();
    let mut maint = RingMaintainer::new();
    let mut ring = Vec::new();
    maint.reset(&ffc, &[]).expect("in-range");
    let full_len = maint.outcome().ring_len();
    assert!(maint.outcome().is_repaired());

    // Fault every node, one batch of 8 at a time: the outcome weakens
    // monotonically-queryably (never a panic), ends Infeasible.
    for chunk in (0..total).collect::<Vec<_>>().chunks(8) {
        let batch: Vec<FaultEvent> = chunk.iter().map(|&v| FaultEvent::NodeDown(v)).collect();
        let out = maint.apply_batch(&ffc, &batch).expect("in-range");
        // Queryable in every state.
        assert_eq!(out.stats(), maint.stats());
        maint.ring_into(&mut ring);
        assert_eq!(ring.len(), out.ring_len());
    }
    let floor = maint.outcome();
    assert!(floor.is_infeasible(), "all nodes faulty must be infeasible");
    assert_eq!(floor.ring_len(), 0);
    assert_eq!(floor.stats().component_size, 0);
    maint.ring_into(&mut ring);
    assert!(ring.is_empty());

    // Clear everything in one batch: straight back to the full ring,
    // bit-identical to a fault-free from-scratch embed.
    let ups: Vec<FaultEvent> = (0..total).map(FaultEvent::NodeUp).collect();
    let out = maint.apply_batch(&ffc, &ups).expect("in-range");
    assert!(out.is_repaired(), "recovery from infeasible: {out:?}");
    assert_eq!(out.ring_len(), full_len);
    let want = ffc.embed_into(&mut scratch, &[]);
    assert_eq!(out.stats(), want);
    maint.ring_into(&mut ring);
    assert_eq!(ring, scratch.cycle());
}

/// A degraded state (some live nodes off the ring, but a ring exists)
/// must also recover: find one on the exhaustive grid, then clear it.
#[test]
fn degraded_state_recovers_to_repaired() {
    let ffc = Ffc::new(2, 5);
    let total = ffc.graph().len();
    let mut maint = RingMaintainer::new();
    let mut found = None;
    'search: for a in 0..total {
        for b in a + 1..total {
            maint.reset(&ffc, &[]).expect("in-range");
            let out = maint
                .apply_batch(&ffc, &[FaultEvent::NodeDown(a), FaultEvent::NodeDown(b)])
                .expect("in-range");
            if out.is_degraded() {
                found = Some((a, b, out));
                break 'search;
            }
        }
    }
    let (a, b, out) = found.expect("some 2-fault set degrades B(2,5)");
    assert!(out.excluded() > 0);
    assert!(out.ring_len() > 0, "degraded still serves a ring");
    let back = maint
        .apply_batch(&ffc, &[FaultEvent::NodeUp(a), FaultEvent::NodeUp(b)])
        .expect("in-range");
    assert!(back.is_repaired(), "clears must lift degradation: {back:?}");
}

/// Satellite: malformed ids are typed errors, not panics, and a rejected
/// batch leaves the session untouched.
#[test]
fn out_of_range_ids_are_rejected_not_panics() {
    let ffc = Ffc::new(2, 5);
    let total = ffc.graph().len();
    let mut maint = RingMaintainer::new();
    maint.reset(&ffc, &[]).expect("in-range");
    let clean = maint.stats();

    assert_eq!(
        maint.add_fault(&ffc, total),
        Err(RepairError::NodeOutOfRange {
            node: total,
            n_nodes: total
        })
    );
    assert_eq!(
        maint.clear_fault(&ffc, total + 7),
        Err(RepairError::NodeOutOfRange {
            node: total + 7,
            n_nodes: total
        })
    );
    // Atomicity: the in-range half of a rejected batch must NOT land.
    let batch = [FaultEvent::NodeDown(0), FaultEvent::NodeDown(total)];
    assert!(maint.apply_batch(&ffc, &batch).is_err());
    assert_eq!(maint.stats(), clean, "rejected batch must be atomic");
    assert!(maint.faulty_nodes().is_empty());

    // A rejected reset also leaves state untouched.
    assert!(maint.reset(&ffc, &[total]).is_err());
    assert_eq!(maint.stats(), clean);
}

/// Satellite: a link event naming a non-edge is `NotAnEdge`.
#[test]
fn non_edges_are_rejected() {
    let ffc = Ffc::new(2, 5);
    let mut maint = RingMaintainer::new();
    maint.reset(&ffc, &[]).expect("in-range");
    // Successors of node 0 in B(2,5) are 0 and 1; 5 is not one.
    assert_eq!(
        maint.apply_batch(&ffc, &[FaultEvent::EdgeDown(0, 5)]),
        Err(RepairError::NotAnEdge { from: 0, to: 5 })
    );
    assert_eq!(
        maint.apply_batch(&ffc, &[FaultEvent::EdgeUp(3, 0)]),
        Err(RepairError::NotAnEdge { from: 3, to: 0 })
    );
    // The real edge is accepted.
    maint
        .apply_batch(&ffc, &[FaultEvent::EdgeDown(0, 1)])
        .expect("a real edge");
}

/// Satellite: clearing a never-faulty node is a documented no-op — same
/// outcome, no extra repair work recorded.
#[test]
fn clear_of_never_faulty_node_is_a_noop() {
    let ffc = Ffc::new(2, 5);
    let mut maint = RingMaintainer::new();
    maint.reset(&ffc, &[3]).expect("in-range");
    let before = maint.outcome();
    let repairs = maint.repairs();
    let out = maint.clear_fault(&ffc, 7).expect("in-range no-op");
    assert_eq!(out, before);
    assert_eq!(maint.repairs(), repairs, "no-op must not count as repair");
    assert_eq!(maint.faulty_nodes(), &[3]);
    // Same through the batch path.
    let out = maint
        .apply_batch(&ffc, &[FaultEvent::NodeUp(7), FaultEvent::NodeUp(9)])
        .expect("in-range no-op batch");
    assert_eq!(out, before);
    assert_eq!(maint.repairs(), repairs);
}
