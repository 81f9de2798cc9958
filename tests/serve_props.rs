//! Linearizability of the ring service's published snapshots.
//!
//! The contract under test (the PR 7 serving model): every snapshot a
//! reader can ever observe is **bit-identical** to a from-scratch
//! `Ffc::embed_into` of the exclusion set of some *prefix* of the applied
//! event sequence — no torn state, no intermediate mixtures — and the
//! epochs observed by any one reader handle are monotone. Exhaustive on
//! B(2,5)/B(3,3) (every ≤2-node fault set, plus link-fault sequences,
//! with a publication after every event), seeded streams on B(3,9),
//! B(5,6), B(4,8) and B(2,16) that span several copy-on-write snapshot
//! chunks (between them every arm of the entry rule: the sibling-exit scan
//! at non-power-of-two and power-of-two d, and α ^ 1 at d = 2), threaded
//! stress on the live service, and property tests on B(2,14).
//!
//! ATOMICS: the stress test's stop flag is a single-writer boolean — the
//! submitting thread alone stores it, with Release, after `shutdown()` has
//! published the last snapshot; reader threads load it with Acquire, so a
//! reader that sees it set also sees that publication, and takes one more
//! snapshot before it exits. All checked state flows through the
//! epoch-published snapshots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use debruijn_rings::core::{
    ChurnPlan, EmbedScratch, FaultEvent, Ffc, LookupError, RingMaintainer, RingService,
    RingSnapshot, ServeOptions, SnapshotPublisher,
};

/// The exclusion set a prefix of events accumulates to: explicitly faulty
/// nodes plus the source endpoints of faulty links — the same model the
/// session maintains (and PR 6's batch tests pinned).
fn exclusion_of(events: &[FaultEvent]) -> Vec<usize> {
    let mut node_down: Vec<usize> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for &ev in events {
        match ev {
            FaultEvent::NodeDown(v) => {
                if !node_down.contains(&v) {
                    node_down.push(v);
                }
            }
            FaultEvent::NodeUp(v) => {
                if let Some(i) = node_down.iter().position(|&x| x == v) {
                    node_down.swap_remove(i);
                }
            }
            FaultEvent::EdgeDown(u, w) => {
                if !edges.contains(&(u, w)) {
                    edges.push((u, w));
                }
            }
            FaultEvent::EdgeUp(u, w) => {
                if let Some(i) = edges.iter().position(|&e| e == (u, w)) {
                    edges.swap_remove(i);
                }
            }
        }
    }
    let mut excl = node_down;
    excl.extend(edges.iter().map(|&(u, _)| u));
    excl.sort_unstable();
    excl.dedup();
    excl
}

/// Asserts `snap` equals a from-scratch embed of the event prefix its
/// `applied_events` stamp names: stats, full ring bytes, and the
/// membership bitmap (popcount + every ring node contained).
fn assert_snapshot_matches_prefix(
    ffc: &Ffc,
    scratch: &mut EmbedScratch,
    snap: &RingSnapshot,
    events: &[FaultEvent],
) {
    let k = snap.applied_events() as usize;
    assert!(
        k <= events.len(),
        "snapshot claims more events than were ever submitted"
    );
    let excl = exclusion_of(&events[..k]);
    let want = ffc.embed_into(scratch, &excl);
    assert_eq!(
        snap.stats(),
        want,
        "snapshot stats diverge from prefix {k} (excl {excl:?})"
    );
    let mut ring = Vec::new();
    snap.ring_into(&mut ring);
    assert_eq!(
        &ring[..],
        scratch.cycle(),
        "snapshot ring bytes diverge from prefix {k}"
    );
    let mut members = 0usize;
    for v in 0..snap.n_nodes() {
        members += usize::from(snap.contains(v).expect("in range"));
    }
    assert_eq!(members, want.component_size, "membership popcount diverges");
    for &v in &ring {
        assert_eq!(snap.contains(v), Ok(true));
        assert!(snap.successor(v).is_ok());
    }
}

/// Exhaustive deterministic check: every ≤2-node fault set of the graph,
/// played as down/down/up/up, with a **publication after every event** —
/// each published generation must equal the from-scratch embed of its
/// prefix, and clean republications must share structures.
fn exhaustive_prefix_equality(d: u64, n: u32) {
    let ffc = Ffc::new(d, n);
    let total = ffc.graph().len();
    let mut scratch = EmbedScratch::new();
    let mut sequences: Vec<Vec<FaultEvent>> = Vec::new();
    for a in 0..total {
        sequences.push(vec![FaultEvent::NodeDown(a), FaultEvent::NodeUp(a)]);
        for b in a + 1..total {
            sequences.push(vec![
                FaultEvent::NodeDown(a),
                FaultEvent::NodeDown(b),
                FaultEvent::NodeUp(a),
                FaultEvent::NodeUp(b),
            ]);
        }
    }
    // Link faults: every edge leaving a stride of sources, mixed with a
    // node fault so edge and node repairs interleave in one sequence.
    let suffix = total / d as usize;
    for u in (0..total).step_by(3) {
        for a in 0..d as usize {
            let w = (u % suffix) * d as usize + a;
            let x = (u + 1) % total;
            sequences.push(vec![
                FaultEvent::EdgeDown(u, w),
                FaultEvent::NodeDown(x),
                FaultEvent::EdgeUp(u, w),
                FaultEvent::NodeUp(x),
            ]);
        }
    }
    for events in &sequences {
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, &[]).expect("reset");
        let mut publisher = SnapshotPublisher::new();
        let initial = maint.publish(&mut publisher, 0).expect("publish");
        assert_snapshot_matches_prefix(&ffc, &mut scratch, &initial, events);
        let mut prev = initial;
        for (i, &ev) in events.iter().enumerate() {
            maint.apply_batch(&ffc, &[ev]).expect("valid event");
            let snap = maint
                .publish(&mut publisher, (i + 1) as u64)
                .expect("publish");
            assert_snapshot_matches_prefix(&ffc, &mut scratch, &snap, events);
            assert!(snap.seq() > prev.seq(), "publication seq must increase");
            prev = snap;
        }
        // After the balanced sequence the fault set is empty again and a
        // clean republication shares every structure by refcount.
        let shared_before = publisher.shared_ring();
        let last = maint
            .publish(&mut publisher, events.len() as u64)
            .expect("publish");
        assert_eq!(publisher.shared_ring(), shared_before + 1);
        assert_snapshot_matches_prefix(&ffc, &mut scratch, &last, events);
    }
}

#[test]
fn exhaustive_prefix_equality_b2_5() {
    exhaustive_prefix_equality(2, 5);
}

#[test]
fn exhaustive_prefix_equality_b3_3() {
    exhaustive_prefix_equality(3, 3);
}

/// A seeded balanced event stream touching every node of the graph:
/// mostly downs early, the matching ups later, with some link faults.
fn seeded_stream(d: usize, total: usize, seed: u64, len: usize) -> Vec<FaultEvent> {
    let suffix = total / d;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut down: Vec<usize> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut events = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_range(0..10);
        let ev = if roll < 4 {
            let v = rng.gen_range(0..total);
            if !down.contains(&v) {
                down.push(v);
            }
            FaultEvent::NodeDown(v)
        } else if roll < 7 && !down.is_empty() {
            let i = rng.gen_range(0..down.len());
            FaultEvent::NodeUp(down.swap_remove(i))
        } else if roll < 9 || edges.is_empty() {
            let u = rng.gen_range(0..total);
            let w = (u % suffix) * d + rng.gen_range(0..d);
            if !edges.contains(&(u, w)) {
                edges.push((u, w));
            }
            FaultEvent::EdgeDown(u, w)
        } else {
            let i = rng.gen_range(0..edges.len());
            let (u, w) = edges.swap_remove(i);
            FaultEvent::EdgeUp(u, w)
        };
        events.push(ev);
    }
    // Balance the tail so the final state is fault-free.
    for v in down {
        events.push(FaultEvent::NodeUp(v));
    }
    for (u, w) in edges {
        events.push(FaultEvent::EdgeUp(u, w));
    }
    events
}

/// Chunked copy-on-write across several snapshot chunks: a seeded stream
/// with one publication per event, where every node's `contains` and
/// `successor` must read exactly like a snapshot
/// freshly built by `RingMaintainer::reset` to the same exclusion set. The
/// exhaustive grids above fit inside one chunk, so only graphs like these
/// catch a chunk the session forgot to mark dirty.
fn chunked_publications_match_fresh_snapshots(d: u64, n: u32, seed: u64, len: usize) {
    let ffc = Ffc::new(d, n);
    let total = ffc.graph().len();
    let events = seeded_stream(d as usize, total, seed, len);
    let mut maint = RingMaintainer::new();
    maint.reset(&ffc, &[]).expect("reset");
    let mut publisher = SnapshotPublisher::new();
    maint.publish(&mut publisher, 0).expect("publish");
    let full_copy = publisher.copied_chunks();
    let mut fresh = RingMaintainer::new();
    for (i, &ev) in events.iter().enumerate() {
        maint.apply_batch(&ffc, &[ev]).expect("valid event");
        let snap = maint
            .publish(&mut publisher, (i + 1) as u64)
            .expect("publish");
        fresh
            .reset(&ffc, &exclusion_of(&events[..=i]))
            .expect("reset");
        let want = fresh
            .publish(&mut SnapshotPublisher::new(), (i + 1) as u64)
            .expect("publish");
        assert_eq!(snap.stats(), want.stats(), "event {i}");
        for v in 0..total {
            assert_eq!(snap.contains(v), want.contains(v), "event {i} node {v}");
            assert_eq!(snap.successor(v), want.successor(v), "event {i} node {v}");
        }
    }
    let copied = publisher.copied_chunks() - full_copy;
    assert!(
        copied < events.len() as u64 * full_copy,
        "no publication shared a chunk: {copied} copies over {} events",
        events.len()
    );
}

#[test]
fn chunked_publications_match_fresh_snapshots_b3_9() {
    // 19,683 nodes: ten chunks, the last one partial.
    chunked_publications_match_fresh_snapshots(3, 9, 0x39, 14);
}

#[test]
fn chunked_publications_match_fresh_snapshots_b5_6() {
    // 15,625 nodes: eight chunks, the last one partial. An exit's siblings
    // lie 3,125 nodes apart, so the non-power-of-two sibling scan reads
    // exit bits across chunks, the partial last one included.
    chunked_publications_match_fresh_snapshots(5, 6, 0x56, 14);
}

#[test]
fn chunked_publications_match_fresh_snapshots_b4_8() {
    // 65,536 nodes: 32 chunks. An exit's siblings lie 16,384 nodes (8
    // chunks) apart, so the power-of-two sibling scan reads exit bits
    // across chunks.
    chunked_publications_match_fresh_snapshots(4, 8, 0x48, 12);
}

#[test]
fn chunked_publications_match_fresh_snapshots_b2_16() {
    chunked_publications_match_fresh_snapshots(2, 16, 0x216, 10);
}

/// A snapshot pinned while the publisher moves on: a churn trace with one
/// publication per batch, the snapshot of publication `pin` held, and after
/// every further 250 publications (and at the end, at least 1,000 later)
/// every node of it must still read like a snapshot freshly built by
/// `RingMaintainer::reset` to its own exclusion set. Later publications
/// retire and forward the segments the pinned snapshot references, so this
/// catches a segment written after it was shared. Returns the chunks the
/// publisher forwarded.
fn pinned_snapshot_survives_later_publications(n: u32, seed: u64, arrivals: usize) -> u64 {
    let ffc = Ffc::new(2, n);
    let total = ffc.graph().len();
    let steps = ChurnPlan::new(seed)
        .arrivals(arrivals)
        .bursts(4, 0.25)
        .edge_fault_prob(0.2)
        .generate(&ffc);
    let mut maint = RingMaintainer::new();
    maint.reset(&ffc, &[]).expect("reset");
    let mut publisher = SnapshotPublisher::new();
    let pin = 20;
    let mut events = Vec::new();
    let mut pinned: Option<(Arc<RingSnapshot>, Arc<RingSnapshot>)> = None;
    let mut later = 0usize;
    let check = |snap: &RingSnapshot, want: &RingSnapshot, later: usize| {
        assert_eq!(snap.stats(), want.stats());
        for v in 0..total {
            assert_eq!(
                snap.contains(v),
                want.contains(v),
                "{later} later, node {v}"
            );
            assert_eq!(
                snap.successor(v),
                want.successor(v),
                "{later} later, node {v}"
            );
        }
    };
    for (i, step) in steps.iter().enumerate() {
        maint.apply_batch(&ffc, &step.batch).expect("valid churn");
        events.extend_from_slice(&step.batch);
        let snap = maint
            .publish(&mut publisher, events.len() as u64)
            .expect("publish");
        match &pinned {
            None if i == pin => {
                let mut fresh = RingMaintainer::new();
                fresh.reset(&ffc, &exclusion_of(&events)).expect("reset");
                let want = fresh
                    .publish(&mut SnapshotPublisher::new(), snap.applied_events())
                    .expect("publish");
                check(&snap, &want, 0);
                pinned = Some((snap, want));
            }
            None => {}
            Some((snap, want)) => {
                later += 1;
                if later.is_multiple_of(250) {
                    check(snap, want, later);
                }
            }
        }
    }
    assert!(later >= 1000, "only {later} publications after the pin");
    let (snap, want) = pinned.expect("the trace reaches the pinned publication");
    check(&snap, &want, later);
    publisher.forwarded_chunks()
}

#[test]
fn pinned_snapshot_matches_its_fault_set_after_1000_publications_b2_12() {
    pinned_snapshot_survives_later_publications(12, 0x212, 500);
}

#[test]
fn pinned_snapshot_matches_its_fault_set_after_1000_publications_b2_14() {
    // 16 chunks per group: partly dirtied segments get retired and their
    // live chunks forwarded while the pinned snapshot still reads them.
    let forwarded = pinned_snapshot_survives_later_publications(14, 0x214, 500);
    assert!(forwarded > 0, "no segment was retired");
}

/// Runs `readers` concurrent reader threads against a live service while
/// the stream is submitted, and returns every distinct snapshot each
/// reader observed (epoch monotonicity asserted inside the readers).
fn stress_service(
    ffc: &Arc<Ffc>,
    events: &[FaultEvent],
    readers: usize,
    opts: ServeOptions,
) -> (Vec<Vec<Arc<RingSnapshot>>>, u64) {
    let svc = RingService::start(Arc::clone(ffc), &[], opts).expect("start");
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..readers {
        let mut reader = svc.reader();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut seen: Vec<Arc<RingSnapshot>> = Vec::new();
            let mut last_epoch = 0u64;
            let mut last_applied = 0u64;
            let mut buf = Vec::new();
            loop {
                // Read before the snapshot: once the flag is seen, the
                // snapshot below is the last publication.
                let stopping = stop.load(Ordering::Acquire);
                let snap = reader.snapshot();
                assert!(
                    reader.epoch() >= last_epoch,
                    "epoch went backwards: {last_epoch} -> {}",
                    reader.epoch()
                );
                last_epoch = reader.epoch();
                assert!(
                    snap.applied_events() >= last_applied,
                    "applied_events went backwards"
                );
                last_applied = snap.applied_events();
                // Wait-free reads against the snapshot stay mutually
                // consistent while the writer races ahead.
                if let Some(root) = snap.root() {
                    let wrote = snap.ring_segment(root, 8, &mut buf).expect("root on ring");
                    assert!(wrote > 0);
                    for &v in &buf {
                        assert_eq!(snap.contains(v), Ok(true));
                    }
                }
                if seen.last().is_none_or(|p| p.seq() != snap.seq()) {
                    seen.push(snap);
                }
                if stopping {
                    break;
                }
                std::thread::yield_now();
            }
            seen
        }));
    }
    for &ev in events {
        svc.submit(ev).expect("valid event");
    }
    let report = svc.shutdown();
    stop.store(true, Ordering::Release);
    assert_eq!(
        report.events,
        events.len() as u64,
        "writer drained the queue"
    );
    let captured = handles
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .collect();
    (captured, report.batches)
}

fn threaded_stress(d: u64, n: u32, seed: u64) {
    let ffc = Arc::new(Ffc::new(d, n));
    let events = seeded_stream(d as usize, ffc.graph().len(), seed, 80);
    // coalesce=1 maximises distinct generations readers can catch.
    let opts = ServeOptions { coalesce: 1 };
    let (captured, _) = stress_service(&ffc, &events, 3, opts);
    let mut scratch = EmbedScratch::new();
    let mut verified = std::collections::BTreeSet::new();
    for reader_snaps in &captured {
        assert!(!reader_snaps.is_empty());
        for snap in reader_snaps {
            if verified.insert(snap.seq()) {
                assert_snapshot_matches_prefix(&ffc, &mut scratch, snap, &events);
            }
        }
    }
    // Every reader saw at least the one generation it started from, and
    // the final generation is the fault-free ring (balanced stream).
    let last = captured[0].last().expect("nonempty");
    assert_eq!(last.applied_events(), events.len() as u64);
    assert!(last.outcome().is_repaired());
}

#[test]
fn threaded_readers_observe_only_event_prefixes_b2_5() {
    threaded_stress(2, 5, 0xB25);
}

#[test]
fn threaded_readers_observe_only_event_prefixes_b3_3() {
    threaded_stress(3, 3, 0xB33);
}

#[test]
fn reader_handle_rejections_are_typed_at_the_service_level() {
    let ffc = Arc::new(Ffc::new(2, 5));
    let n = ffc.graph().len();
    let svc = RingService::start(Arc::clone(&ffc), &[3], ServeOptions::default()).expect("start");
    let mut reader = svc.reader();
    assert_eq!(
        reader.successor(n + 9),
        Err(LookupError::NodeOutOfRange {
            node: n + 9,
            n_nodes: n
        })
    );
    assert_eq!(
        reader.contains(n),
        Err(LookupError::NodeOutOfRange {
            node: n,
            n_nodes: n
        })
    );
    // Node 3 started faulty: valid id, not on the ring.
    assert_eq!(reader.successor(3), Err(LookupError::NotOnRing { node: 3 }));
    assert_eq!(reader.contains(3), Ok(false));
    let _ = svc.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// B(2,14): a seeded stream through a live service with 2 reader
    /// threads and random coalescing; every distinct observed snapshot
    /// must equal the from-scratch embed of its event prefix.
    #[test]
    fn service_snapshots_match_prefixes_on_b2_14(
        seed in any::<u64>(),
        coalesce_idx in 0usize..3,
        len in 12usize..28,
    ) {
        let coalesce = [1usize, 2, 7][coalesce_idx];
        let ffc = Arc::new(Ffc::new(2, 14));
        let events = seeded_stream(2, ffc.graph().len(), seed, len);
        let opts = ServeOptions { coalesce };
        let (captured, batches) = stress_service(&ffc, &events, 2, opts);
        prop_assert!(batches >= (events.len() as u64).div_ceil(64));
        let mut scratch = EmbedScratch::new();
        let mut verified = std::collections::BTreeSet::new();
        for reader_snaps in &captured {
            for snap in reader_snaps {
                if verified.insert(snap.seq()) {
                    assert_snapshot_matches_prefix(&ffc, &mut scratch, snap, &events);
                }
            }
        }
        let last = captured[0].last().expect("nonempty");
        prop_assert_eq!(last.applied_events(), events.len() as u64);
        prop_assert!(last.outcome().is_repaired());
    }
}
