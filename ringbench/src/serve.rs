//! `serve-churn`: a B(2,20) `RingService` fed an open loop of churn.
//!
//! The churn trace (Poisson arrivals, 25% bursts of 4, 20% link faults,
//! each fault repaired 2–6 gaps later) is submitted with `try_submit` at
//! each step's due time, whatever the service is doing. The main thread is
//! the generator and the only reader: between due times it makes random
//! `contains` + `successor` pairs on one held snapshot and refreshes it, so
//! it also stamps when each event first shows in `applied_events()`. The
//! writer thread is the second thread. Latency runs from when the event
//! was due, so a stall also charges the events queued behind it.
//!
//! The gated throughput is the writer's: batches absorbed per second of
//! repair and publication. The reader's lookups per second are printed
//! but not gated: over ten seeds their spread reached 26%, because a loop
//! of dependent cache misses tracks the load other tenants put on the
//! shared host.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use debruijn_rings::core::{
    ChurnPlan, EmbedScratch, EmbedStats, FaultEvent, Ffc, LookupError, RingMaintainer, RingService,
    RingSnapshot, ServeOptions, SnapshotPublisher,
};
use debruijn_rings::necklace::NecklacePartition;

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{first_ms, fnv1a, Config, Metric, Outcome, SplitMix64, MIB};

/// The service's graph is B(2, N): 1M nodes. At B(2,22) the publication
/// copy is bound by memory bandwidth that this host shares with its
/// neighbours, and the same seed's visible p50 ranged 3.3–4.8 ms.
pub const N: u32 = 20;
/// Wall-clock length of one churn-plan time unit (the mean arrival gap).
/// At 5 ms the writer is roughly a third busy and no backlog builds.
pub const GAP_NS: u64 = 20_000_000;
/// Lookup pairs between two snapshot refreshes (a few µs of reading).
const BATCH: usize = 128;
/// Traced runs time one lookup batch and refresh in this many.
const SAMPLE_EVERY: u64 = 256;
/// How long to wait after the window for submitted events to show.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// A generator later than this at p99 has stopped being an open loop, and
/// the run warns. It stays valid: latency is timed from the due time, so
/// the lag is already charged to it, and on a shared host other tenants
/// alone can delay the main thread this long.
const MAX_LAG_US: f64 = 5_000.0;
const PENDING: u64 = u64::MAX;
/// Down/up event pairs run through the service before the window.
const WARM_PAIRS: usize = 16;

/// One due step of the open loop: events to submit at `at_ns` after start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Due {
    pub at_ns: u64,
    pub events: Vec<FaultEvent>,
}

/// The open-loop schedule for a window of `seconds`: the churn trace of
/// `seed` on `ffc`'s graph, each plan time unit mapped to [`GAP_NS`].
/// A pure function of its arguments.
#[must_use]
pub fn schedule(ffc: &Ffc, seed: u64, seconds: f64) -> Vec<Due> {
    let run_ns = seconds * 1e9;
    // Poisson arrivals can fall short of their mean span; the margin keeps
    // the trace running to the end of the window, where it is cut.
    let arrivals = (run_ns / GAP_NS as f64 * 1.5).ceil() as usize + 20;
    ChurnPlan::new(seed)
        .arrivals(arrivals)
        .bursts(4, 0.25)
        .edge_fault_prob(0.2)
        .repair_window(2.0, 6.0)
        .generate(ffc)
        .into_iter()
        .map(|s| Due {
            at_ns: (s.time * GAP_NS as f64) as u64,
            events: s.batch,
        })
        .filter(|d| (d.at_ns as f64) < run_ns)
        .collect()
}

/// The nodes a prefix of events excludes from the ring: faulty nodes plus
/// the sources of faulty links, the model the repair engine maintains.
#[must_use]
pub fn exclusion_of(events: &[FaultEvent]) -> Vec<usize> {
    let mut nodes = BTreeSet::new();
    let mut edges = BTreeSet::new();
    for &ev in events {
        match ev {
            FaultEvent::NodeDown(v) => {
                nodes.insert(v);
            }
            FaultEvent::NodeUp(v) => {
                nodes.remove(&v);
            }
            FaultEvent::EdgeDown(u, w) => {
                edges.insert((u, w));
            }
            FaultEvent::EdgeUp(u, w) => {
                edges.remove(&(u, w));
            }
        }
    }
    nodes.extend(edges.iter().map(|&(u, _)| u));
    nodes.into_iter().collect()
}

/// Takes the writer through its first publications before the window
/// opens, so snapshot buffers are allocated and pooled and the measured
/// events meet a warm service: pairs of down/up events on random nodes,
/// each awaited by a reader. Leaves the fault set empty.
fn warm_up(svc: &RingService, n_nodes: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0x3a9f_0c1e_77d2_5b40);
    let mut reader = svc.reader();
    let mut submitted = reader.snapshot().applied_events();
    for _ in 0..WARM_PAIRS {
        let v = (rng.next_u64() as usize) % n_nodes;
        for ev in [FaultEvent::NodeDown(v), FaultEvent::NodeUp(v)] {
            svc.submit(ev).expect("warm-up events are valid");
            submitted += 1;
            let since = Instant::now();
            while reader.snapshot().applied_events() < submitted {
                assert!(
                    since.elapsed() < DRAIN_LIMIT,
                    "the writer stopped publishing"
                );
                std::hint::spin_loop();
            }
        }
    }
}

/// One lookup pair on a held snapshot, checked: `contains` and
/// `successor` agree, and a successor stays on the ring.
#[inline]
fn lookup_pair_ok(snap: &RingSnapshot, u: usize) -> bool {
    match (snap.contains(u), snap.successor(u)) {
        (Ok(true), Ok(s)) => snap.contains(s) == Ok(true),
        (Ok(false), Err(LookupError::NotOnRing { .. })) => true,
        _ => false,
    }
}

/// When each accepted event first became visible to the reader, and which
/// publication carried it when the reader saw that publication directly.
struct Visibility {
    /// `applied_events()` when the window opened (the warm-up events).
    base: u64,
    due_ns: Vec<u64>,
    visible_ns: Vec<u64>,
    /// Publication seq of the batch that carried the event, when the
    /// reader saw no publication in between.
    carried_by: Vec<Option<u64>>,
    seen_applied: u64,
    seen_seq: u64,
    /// Each newly seen publication's seq and when the reader saw it.
    published: Vec<(u64, u64)>,
}

impl Visibility {
    fn observe(&mut self, snap: &RingSnapshot, at_ns: u64) {
        let applied = snap.applied_events();
        if applied <= self.seen_applied {
            return;
        }
        let direct = snap.seq() == self.seen_seq + 1;
        for i in (self.seen_applied - self.base) as usize..(applied - self.base) as usize {
            self.visible_ns[i] = at_ns;
            self.carried_by[i] = direct.then_some(snap.seq());
        }
        self.seen_applied = applied;
        self.seen_seq = snap.seq();
        self.published.push((snap.seq(), at_ns));
    }

    fn pending(&self) -> bool {
        ((self.seen_applied - self.base) as usize) < self.due_ns.len()
    }
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: tables, initial embed and writer thread, several times.
    let mut kept = None;
    for i in 0..cfg.setups as u64 {
        drop(kept.take());
        let span = tracer.begin("setup", i);
        let t = Instant::now();
        let ffc = Arc::new(Ffc::new(2, N));
        let t_start = Instant::now();
        tracer.record("ffc.new", i, t, t_start);
        let svc = RingService::start(Arc::clone(&ffc), &[], ServeOptions::default())
            .expect("a service with no initial faults always starts");
        let t_warm = Instant::now();
        tracer.record("serve.start", i, t_start, t_warm);
        warm_up(&svc, ffc.graph().len(), cfg.seed);
        tracer.record("serve.warm", i, t_warm, Instant::now());
        out.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        kept = Some((ffc, svc));
    }
    let (ffc, svc) = kept.expect("at least one set-up");
    if tracer.is_on() {
        let t = Instant::now();
        let partition = NecklacePartition::new(ffc.graph().space());
        tracer.record("necklace.partition", 0, t, Instant::now());
        drop(partition);
    }

    let n_nodes = ffc.graph().len();
    let mask = n_nodes - 1;
    let plan = schedule(&ffc, cfg.seed, cfg.seconds);
    let mut reader = svc.reader();
    let mut snap = reader.snapshot();
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5e4e_c4a1_7b1d_0001);
    let mut vis = Visibility {
        base: snap.applied_events(),
        due_ns: Vec::new(),
        visible_ns: Vec::new(),
        carried_by: Vec::new(),
        seen_applied: snap.applied_events(),
        seen_seq: snap.seq(),
        published: Vec::new(),
    };
    let first_seq = snap.seq();
    let mut accepted: Vec<FaultEvent> = Vec::new();
    let (mut bad_lookups, mut pairs, mut batches) = (0u64, 0u64, 0u64);
    let (mut lag_us, mut depth) = (Vec::new(), Vec::new());
    let (mut lookup_ns, mut refresh_ns) = (Vec::new(), Vec::new());
    let run_ns = (cfg.seconds * 1e9) as u64;
    let mut next = 0usize;
    let mut rejected_due = Vec::new();

    let t0 = Instant::now();
    loop {
        let now = ns_since(t0);
        if now >= run_ns {
            break;
        }
        while next < plan.len() && plan[next].at_ns <= now {
            let step = &plan[next];
            lag_us.push((now - step.at_ns) as f64 / 1e3);
            for &ev in &step.events {
                let ts = Instant::now();
                let r = svc.try_submit(ev);
                tracer.record("serve.submit", accepted.len() as u64, ts, Instant::now());
                if r.is_ok() {
                    accepted.push(ev);
                    vis.due_ns.push(step.at_ns);
                    vis.visible_ns.push(PENDING);
                    vis.carried_by.push(None);
                } else {
                    rejected_due.push(step.at_ns);
                }
            }
            depth.push(svc.queue_len() as f64);
            next += 1;
        }
        let sampled = tracer.is_on() && batches % SAMPLE_EVERY == 0;
        let tb = Instant::now();
        for _ in 0..BATCH {
            let u = (rng.next_u64() as usize) & mask;
            bad_lookups += u64::from(!lookup_pair_ok(&snap, u));
        }
        pairs += BATCH as u64;
        batches += 1;
        let tr = Instant::now();
        snap = reader.snapshot();
        if sampled {
            let te = Instant::now();
            lookup_ns.push((tr - tb).as_nanos() as f64 / BATCH as f64);
            refresh_ns.push((te - tr).as_nanos() as f64);
            tracer.record("reader.lookups", batches, tb, tr);
            tracer.record("reader.refresh", batches, tr, te);
        }
        vis.observe(&snap, ns_since(t0));
    }
    let drain = Instant::now();
    while vis.pending() && drain.elapsed() < DRAIN_LIMIT {
        std::thread::yield_now();
        snap = reader.snapshot();
        vis.observe(&snap, ns_since(t0));
    }
    out.notes.push(format!(
        "serve-churn lookups_per_s={} 1/s (whole run, {pairs} checked pairs, not gated)",
        pairs as f64 / run_ns as f64 * 1e9
    ));
    out.peak_rss_mb = crate::host::peak_rss_mb();
    let report = svc.shutdown();

    // Latency per submitted event, in the window it was due; rejected or
    // never-visible events miss every limit.
    let never_visible = vis.visible_ns.iter().filter(|&&v| v == PENDING).count() as u64;
    for (&due, &seen) in vis.due_ns.iter().zip(&vis.visible_ns) {
        let ms = if seen == PENDING {
            f64::INFINITY
        } else {
            seen.saturating_sub(due) as f64 / 1e6
        };
        out.window(due).latency_ms.push(ms);
    }
    for &due in &rejected_due {
        out.window(due).latency_ms.push(f64::INFINITY);
    }
    // Throughput is the writer's: batches absorbed per second of repair
    // and publication, each charged to the window in which the reader saw
    // it. Seq s publishes batch s - 2 (seq 1 is the initial embed).
    let mut prev = first_seq;
    for &(seq, at) in &vis.published {
        for b in (prev - 1) as usize..(seq - 1) as usize {
            let busy_ns = report.repair_ns[b] + report.publish_ns[b];
            let w = out.window(at);
            w.ops += 1.0;
            w.busy_s += busy_ns as f64 / 1e9;
        }
        prev = seq;
    }
    let rejected = rejected_due.len() as u64;
    let submits = accepted.len() as u64 + rejected;
    out.attempted = submits + pairs;
    out.failed = rejected + never_visible + bad_lookups;

    // Final state: the last snapshot equals a from-scratch embed of the
    // cumulative fault set, stats and ring bytes alike.
    let fin = reader.snapshot();
    let excl = exclusion_of(&accepted);
    let mut scratch = EmbedScratch::new();
    let want = ffc.embed_into(&mut scratch, &excl);
    let mut ring = Vec::new();
    fin.ring_into(&mut ring);
    // A maintainer rebuilt at the final fault set agrees too, and its size
    // is the service's working set.
    let mut maint = RingMaintainer::new();
    let rebuilt = maint.reset(&ffc, &excl).map(|o| o.stats());
    let final_ok = fin.applied_events() == vis.base + accepted.len() as u64
        && fin.stats() == want
        && ring.as_slice() == scratch.cycle()
        && rebuilt == Ok(want);
    let session_bytes = maint.allocated_bytes();
    drop(maint);
    out.failed += u64::from(!final_ok);
    out.notes.push(format!(
        "serve-churn graph=B(2,{N}) events={} steps={next}/{} last_due_ms={} faults_at_end={} final_ring_len={} final_ring_fnv={:016x} final_check={}",
        accepted.len(),
        plan.len(),
        plan.last().map_or(0, |d| d.at_ns / 1_000_000),
        excl.len(),
        ring.len(),
        fnv1a(&ring),
        if final_ok { "ok" } else { "MISMATCH" },
    ));
    out.notes.push(format!(
        "serve-churn working_set session_bytes={session_bytes} embed_scratch_bytes={} rejected={rejected} never_visible={never_visible} bad_lookups={bad_lookups}",
        scratch.allocated_bytes()
    ));
    drop(scratch);
    drop(ring);

    // Open-loop honesty: a late generator is warned of, a growing queue
    // voids the run. The writer is about a tenth busy, so only a writer
    // that cannot keep up with the trace lets the queue grow.
    lag_us.sort_by(f64::total_cmp);
    let lag_p99 = percentile(&lag_us, 99.0);
    let quarter = depth.len() / 4;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let (depth_first, depth_last) = (
        mean(&depth[..quarter]),
        mean(&depth[depth.len() - quarter..]),
    );
    out.notes.push(format!(
        "serve-churn gen_lag_us_p99={lag_p99:.1} queue_depth_mean_first_quarter={depth_first:.2} last_quarter={depth_last:.2}"
    ));
    if lag_p99 > MAX_LAG_US {
        out.notes.push(format!(
            "WARN generator lag p99 {lag_p99:.0} us exceeds {MAX_LAG_US} us"
        ));
    }
    if depth_last > 2.0 * depth_first + 4.0 {
        out.invalid.push(format!(
            "queue depth grew over the run ({depth_first:.2} -> {depth_last:.2})"
        ));
    }

    if tracer.is_on() {
        // Event lifetimes from due to visible, for the written trace.
        for (i, (&due, &seen)) in vis.due_ns.iter().zip(&vis.visible_ns).enumerate() {
            if seen != PENDING {
                let at = |ns: u64| t0 + Duration::from_nanos(ns);
                tracer.record("serve.event", i as u64, at(due), at(seen));
            }
        }
        out.failed += u64::from(replay(&ffc, &plan[..next], tracer) != fin.stats());
        out.layers = layers(
            &report,
            &vis,
            tracer,
            &mut lookup_ns,
            &mut refresh_ns,
            &depth,
        );
        out.layers.extend([
            Metric::new("reader.reloads", reader.reloads() as f64, "count"),
            Metric::new("session.allocated_mb", session_bytes as f64 / MIB, "MB"),
            Metric::new("gen.lag_us_p99", lag_p99, "us"),
        ]);
    }
    out
}

/// Replays the submitted steps on this thread through the same public
/// calls the writer makes, one publication per step, under spans.
/// Returns the maintainer's final stats.
fn replay(ffc: &Ffc, steps: &[Due], tracer: &mut Tracer) -> EmbedStats {
    let mut maint = RingMaintainer::new();
    let mut publisher = SnapshotPublisher::new();
    let span = tracer.begin("replay.reset", 0);
    maint.reset(ffc, &[]).expect("an empty fault set is valid");
    tracer.end(span);
    let mut applied = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let span = tracer.begin("replay.step", i as u64);
        let t = Instant::now();
        maint
            .apply_batch(ffc, &step.events)
            .expect("generated events are valid for their graph");
        let t_pub = Instant::now();
        tracer.record("session.apply_batch", i as u64, t, t_pub);
        applied += step.events.len() as u64;
        let published = maint.publish(&mut publisher, applied);
        tracer.record("snapshot.publish", i as u64, t_pub, Instant::now());
        drop(published);
        tracer.end(span);
    }
    maint.stats()
}

/// The serve-side per-layer metrics: the writer's own per-batch timings
/// and counters from `ServiceReport`, and the reader's sampled timings.
fn layers(
    report: &debruijn_rings::core::ServiceReport,
    vis: &Visibility,
    tracer: &Tracer,
    lookup_ns: &mut [f64],
    refresh_ns: &mut [f64],
    depth: &[f64],
) -> Vec<Metric> {
    let pubs = report.publications.max(1) as f64;
    let r = report.repairs;
    // Queue wait: visible time minus the repair and publish time of the
    // batch that carried the event (seq 1 is the initial publication).
    let mut wait: Vec<f64> = (0..vis.due_ns.len())
        .filter_map(|i| {
            let b = usize::try_from(vis.carried_by[i]? - 2).ok()?;
            let busy = report.repair_ns.get(b)? + report.publish_ns.get(b)?;
            Some((vis.visible_ns[i] as f64 - vis.due_ns[i] as f64 - busy as f64) / 1e3)
        })
        .collect();
    wait.sort_by(f64::total_cmp);
    vec![
        Metric::new(
            "session.repair_us_p50",
            percentile_of(&report.repair_ns, 50.0),
            "us",
        ),
        Metric::new(
            "session.repair_us_p99",
            percentile_of(&report.repair_ns, 99.0),
            "us",
        ),
        Metric::new(
            "session.delta_ratio",
            r.incremental as f64 / (r.incremental + r.rebuilds).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "snapshot.publish_us_p50",
            percentile_of(&report.publish_ns, 50.0),
            "us",
        ),
        Metric::new(
            "snapshot.publish_us_p99",
            percentile_of(&report.publish_ns, 99.0),
            "us",
        ),
        Metric::new(
            "snapshot.shared_ring_ratio",
            report.shared_ring as f64 / pubs,
            "ratio",
        ),
        Metric::new(
            "snapshot.shared_membership_ratio",
            report.shared_membership as f64 / pubs,
            "ratio",
        ),
        Metric::new(
            "snapshot.shared_levels_ratio",
            report.shared_levels as f64 / pubs,
            "ratio",
        ),
        Metric::new(
            "snapshot.reclaimed_ratio",
            report.reclaimed_buffers as f64 / pubs,
            "ratio",
        ),
        Metric::new("serve.queue_wait_us_p50", percentile(&wait, 50.0), "us"),
        Metric::new("serve.queue_wait_us_p99", percentile(&wait, 99.0), "us"),
        Metric::new(
            "serve.events_per_batch",
            report.events as f64 / report.batches.max(1) as f64,
            "count",
        ),
        Metric::new(
            "serve.queue_depth_max",
            depth.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        Metric::new("reader.lookup_ns_p50", median(lookup_ns), "ns"),
        Metric::new("reader.refresh_ns_p50", median(refresh_ns), "ns"),
        first_ms(tracer, "ffc.new", "ffc.new_ms"),
        first_ms(tracer, "serve.start", "serve.start_ms"),
        first_ms(tracer, "necklace.partition", "necklace.partition_ms"),
    ]
}

/// Nearest-rank percentile of ns samples, in µs.
fn percentile_of(ns: &[u64], p: f64) -> f64 {
    let mut us: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    percentile(&us, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_a_pure_function_of_the_seed() {
        let ffc = Ffc::new(2, 10);
        let a = schedule(&ffc, 42, 3.0);
        assert_eq!(a, schedule(&ffc, 42, 3.0));
        assert_ne!(a, schedule(&ffc, 43, 3.0));
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a
            .iter()
            .all(|d| d.at_ns < 3_000_000_000 && !d.events.is_empty()));
        // ~50 arrivals per second, each followed by its repairs.
        assert!(a.len() > 200, "{} steps", a.len());
        // The schedule is fixed before the run: it fills the window.
        assert!(a.last().expect("non-empty").at_ns > 2_500_000_000);
    }

    #[test]
    fn exclusion_tracks_nodes_and_link_sources() {
        use FaultEvent::*;
        let evs = [
            NodeDown(5),
            EdgeDown(3, 6),
            NodeDown(9),
            NodeUp(5),
            EdgeDown(3, 7),
        ];
        assert_eq!(exclusion_of(&evs), vec![3, 9]);
        assert_eq!(
            exclusion_of(&[EdgeDown(3, 6), EdgeUp(3, 6)]),
            Vec::<usize>::new()
        );
    }
}
