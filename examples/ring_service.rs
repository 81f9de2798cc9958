//! Ring-as-a-service: lock-free readers surviving a correlated fault burst.
//!
//! A `RingService` owns the repair loop for a B(2,12) ring: a writer
//! thread drains fault events through the incremental `RingMaintainer`
//! and publishes each repaired ring as an immutable epoch-stamped
//! snapshot. Reader threads keep walking the ring through cheap
//! `ReaderHandle`s the whole time — every lap runs against one coherent
//! snapshot, so a correlated 8-node rack failure (plus link faults)
//! repairs and republishes underneath them with **zero failed lookups**
//! and every lap still closing into a cycle.
//!
//! Run with: `cargo run --release --example ring_service`
//!
//! ATOMICS: the demo's stop flag is a single-writer boolean — the driver
//! thread alone stores it and readers poll it with Relaxed; every value
//! the readers actually check flows through the epoch-published
//! snapshots, not through this flag.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use debruijn_rings::prelude::*;

fn main() {
    let (d, n) = (2u64, 12u32);
    let ffc = Arc::new(Ffc::new(d, n));
    let total = ffc.graph().len();
    let svc = RingService::start(Arc::clone(&ffc), &[], ServeOptions::default())
        .expect("a fault-free network always embeds");
    let healthy_len = svc.reader().snapshot().ring_len();
    println!(
        "B({d},{n}): serving a ring of {healthy_len} of {total} processors (epoch {})",
        svc.epoch()
    );

    // Malformed submissions are rejected synchronously, before they can
    // reach the writer thread.
    let bogus = svc.submit(FaultEvent::NodeDown(total + 7));
    println!(
        "submitting NodeDown({}) -> {}",
        total + 7,
        bogus.unwrap_err()
    );

    // Three readers walk full laps concurrently with everything below.
    // Each lap runs against ONE immutable snapshot: the nodes a reader
    // walks can never be yanked out from under it, no matter what the
    // repair writer publishes meanwhile.
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let mut reader = svc.reader();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let (mut lookups, mut failed, mut laps) = (0u64, 0u64, 0u64);
            let mut generations = BTreeSet::new();
            while !stop.load(Ordering::Relaxed) {
                let snap = reader.snapshot();
                generations.insert(snap.seq());
                let Some(root) = snap.root() else { continue };
                let mut at = root;
                let mut closed = true;
                for _ in 0..snap.ring_len() {
                    match snap.successor(at) {
                        Ok(next) => {
                            at = next;
                            lookups += 1;
                        }
                        Err(_) => {
                            failed += 1;
                            closed = false;
                            break;
                        }
                    }
                }
                if closed && at == root {
                    laps += 1;
                } else if closed {
                    // A walk of ring_len successors that does not return
                    // to its start would mean a torn ring.
                    failed += 1;
                }
            }
            (lookups, failed, laps, generations.len())
        }));
    }
    std::thread::sleep(Duration::from_millis(30));

    // A correlated burst: a rack of 8 contiguous processors fails at
    // once, and two of the survivors lose an outgoing link.
    let rack = 1000..1008;
    println!("rack failure: processors {rack:?} down, 2 link faults");
    for v in rack.clone() {
        svc.submit(FaultEvent::NodeDown(v)).expect("valid event");
    }
    let suffix = total / d as usize;
    for u in [20usize, 21] {
        svc.submit(FaultEvent::EdgeDown(u, (u % suffix) * d as usize))
            .expect("valid event");
    }
    std::thread::sleep(Duration::from_millis(40));
    let mut probe = svc.reader();
    let degraded = probe.snapshot();
    println!(
        "degraded ring published: {} nodes ({} excluded), epoch {}",
        degraded.ring_len(),
        total - degraded.ring_len(),
        probe.epoch()
    );

    // The rack comes back; the links are restored.
    for v in rack {
        svc.submit(FaultEvent::NodeUp(v)).expect("valid event");
    }
    for u in [20usize, 21] {
        svc.submit(FaultEvent::EdgeUp(u, (u % suffix) * d as usize))
            .expect("valid event");
    }
    std::thread::sleep(Duration::from_millis(30));

    stop.store(true, Ordering::Relaxed);
    let final_snap = probe.snapshot();
    let report = svc.shutdown();
    println!(
        "writer: {} events in {} batches ({} coalesced), {} publications \
         ({} shared ring wiring, {} shared membership, {} chunks copied, {} forwarded), \
         publish p50 {:.1} µs p99 {:.1} µs",
        report.events,
        report.batches,
        report.coalesced_events(),
        report.publications,
        report.shared_ring,
        report.shared_membership,
        report.copied_chunks,
        report.forwarded_chunks,
        report.publish_quantile_ns(0.5) as f64 / 1e3,
        report.publish_quantile_ns(0.99) as f64 / 1e3,
    );
    let mut total_lookups = 0u64;
    for (i, t) in readers.into_iter().enumerate() {
        let (lookups, failed, laps, generations) = t.join().expect("reader panicked");
        println!(
            "reader {i}: {lookups} lookups, {laps} closed laps across {generations} ring \
             generations, {failed} failed"
        );
        assert_eq!(failed, 0, "snapshot reads must never fail mid-lap");
        total_lookups += lookups;
    }
    assert_eq!(final_snap.ring_len(), healthy_len, "ring fully recovered");
    assert!(report.final_outcome.expect("events flowed").is_repaired());
    println!("{total_lookups} total lookups, 0 failed — ring back to {healthy_len} nodes");
}
