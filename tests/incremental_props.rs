//! Property tests for the incremental fault-update engine on B(2,14):
//! random mixes of `add_fault`/`clear_fault` events — including
//! root-necklace kills that force rebuild fallbacks — must leave the
//! `RingMaintainer` with stats identical to a from-scratch
//! `embed_stats_into` of the accumulated fault set after **every** event,
//! and with ring bytes identical to `embed_into` at checkpoints.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use debruijn_rings::core::{EmbedScratch, FaultEvent, Ffc, RingMaintainer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn maintainer_matches_from_scratch_on_b2_14(
        seed in any::<u64>(),
        events in 10usize..24,
    ) {
        let ffc = Ffc::new(2, 14);
        let total = ffc.graph().len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut maint = RingMaintainer::new();
        let mut scratch = EmbedScratch::new();
        let mut ring = Vec::new();
        let mut faults: Vec<usize> = Vec::new();
        maint.reset(&ffc, &faults).expect("in-range");
        for step in 0..events {
            // Mostly adds, some clears; occasionally aim near the root's
            // necklace (powers of two) to force the rebuild fallback.
            let clear = !faults.is_empty() && rng.gen_range(0..3) == 0;
            if clear {
                let i = rng.gen_range(0..faults.len());
                let v = faults.swap_remove(i);
                maint.clear_fault(&ffc, v).expect("in-range");
            } else {
                let v = if rng.gen_range(0..8) == 0 {
                    1usize << rng.gen_range(0..14)
                } else {
                    rng.gen_range(0..total)
                };
                if !faults.contains(&v) {
                    faults.push(v);
                }
                maint.add_fault(&ffc, v).expect("in-range");
            }
            let want = ffc.embed_stats_into(&mut scratch, &faults);
            prop_assert_eq!(
                maint.stats(), want,
                "stats diverge at step {} (faults={:?})", step, &faults
            );
            // Ring bytes at checkpoints (the walk is O(|B*|), so not every
            // step).
            if step % 7 == 0 || step + 1 == events {
                let full = ffc.embed_into(&mut scratch, &faults);
                prop_assert_eq!(maint.stats(), full, "full stats at step {}", step);
                maint.ring_into(&mut ring);
                prop_assert_eq!(
                    &ring[..], scratch.cycle(),
                    "ring bytes diverge at step {}", step
                );
            }
        }
        // The walk must have exercised the delta path, not only rebuilds.
        prop_assert!(maint.repairs().incremental > 0);
    }

    /// Batched churn: random mixed batches of node add/clear and edge
    /// fault/repair events through `apply_batch`, checked after every
    /// batch against a from-scratch `embed_stats_into` of the modelled
    /// exclusion set (node faults plus edge-fault sources), with ring
    /// bytes at checkpoints.
    #[test]
    fn batched_mixed_events_match_from_scratch_on_b2_14(
        seed in any::<u64>(),
        batches in 6usize..14,
    ) {
        let ffc = Ffc::new(2, 14);
        let d = 2usize;
        let n = 14u32;
        let total = ffc.graph().len();
        let suffix = total / d;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut maint = RingMaintainer::new();
        let mut scratch = EmbedScratch::new();
        let mut ring = Vec::new();
        maint.reset(&ffc, &[]).expect("in-range");
        // The model the maintainer must agree with: explicit node faults
        // plus the set of faulted directed edges (u, w). A node is
        // excluded iff it is node-faulty or sources a faulted edge.
        let mut node_down: Vec<usize> = Vec::new();
        let mut edges_down: Vec<(usize, usize)> = Vec::new();
        for step in 0..batches {
            let k = rng.gen_range(1..6);
            let mut batch = Vec::with_capacity(k);
            for _ in 0..k {
                let roll = rng.gen_range(0..10);
                let ev = if roll < 4 {
                    let v = if rng.gen_range(0..8) == 0 {
                        1usize << rng.gen_range(0..n)
                    } else {
                        rng.gen_range(0..total)
                    };
                    if !node_down.contains(&v) {
                        node_down.push(v);
                    }
                    FaultEvent::NodeDown(v)
                } else if roll < 6 && !node_down.is_empty() {
                    let i = rng.gen_range(0..node_down.len());
                    FaultEvent::NodeUp(node_down.swap_remove(i))
                } else if roll < 9 || edges_down.is_empty() {
                    let u = rng.gen_range(0..total);
                    let w = (u % suffix) * d + rng.gen_range(0..d);
                    if !edges_down.contains(&(u, w)) {
                        edges_down.push((u, w));
                    }
                    FaultEvent::EdgeDown(u, w)
                } else {
                    let i = rng.gen_range(0..edges_down.len());
                    let (u, w) = edges_down.swap_remove(i);
                    FaultEvent::EdgeUp(u, w)
                };
                batch.push(ev);
            }
            maint.apply_batch(&ffc, &batch).expect("generated events are valid");
            let mut faults: Vec<usize> = node_down.clone();
            faults.extend(edges_down.iter().map(|&(u, _)| u));
            faults.sort_unstable();
            faults.dedup();
            let want = ffc.embed_stats_into(&mut scratch, &faults);
            prop_assert_eq!(
                maint.stats(), want,
                "stats diverge at batch {} (batch={:?})", step, &batch
            );
            if step % 5 == 0 || step + 1 == batches {
                let full = ffc.embed_into(&mut scratch, &faults);
                prop_assert_eq!(maint.stats(), full, "full stats at batch {}", step);
                maint.ring_into(&mut ring);
                prop_assert_eq!(
                    &ring[..], scratch.cycle(),
                    "ring bytes diverge at batch {}", step
                );
            }
        }
    }
}
