//! Ring-as-a-service: wait-free reads under live repair.
//!
//! The paper's premise is that the embedded ring keeps *carrying traffic*
//! while faults land. [`RingService`] makes that real: a writer thread
//! drains a bounded [`FaultEvent`] queue through
//! [`RingMaintainer::apply_batch`] (coalescing a backlog into one fused
//! batch), publishes an immutable [`RingSnapshot`] per absorbed batch into
//! an [`epoch::EpochCell`], and any number of [`ReaderHandle`]s answer
//! `successor` / `contains` / `ring_segment` / `stats` against the latest
//! published generation — without ever blocking on a repair.
//!
//! The read fast path is wait-free: a handle caches `(epoch, Arc<snapshot>)`
//! and each query costs one atomic epoch load to detect staleness; only
//! when the writer has published something newer does the handle take the
//! epoch cell's slot lock to swap its cached `Arc` (and that lock is
//! uncontended unless the writer lapped the whole slot ring).
//!
//! Publication is segmented copy-on-write
//! ([`crate::ffc::SnapshotPublisher`]): a snapshot is cut into 2048-node
//! chunks stored in shared segments per structure group, and a
//! publication writes only the chunks the batch's repair dirtied into one
//! new segment per group, leaving every other chunk where the previous
//! generation has it. It costs those copies, a location-table copy of a
//! few KB and one refcount per segment, so its cost follows the repair's
//! footprint rather than the graph size (PERF.md). A segment is freed when
//! the last generation holding it drops.
//!
//! Consistency model: readers are **eventually consistent with monotone
//! generations** — every snapshot a reader observes is the *exact* output
//! of a from-scratch embed of some prefix of the applied event sequence
//! (pinned by the linearizability stress tests in `tests/serve_props.rs`),
//! and the sequence of epochs one handle observes never decreases. Queries
//! answered from one snapshot are mutually consistent by construction
//! (immutability), even while the writer races ahead.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{self, TryRecvError, TrySendError};
use epoch::EpochCell;

use crate::ffc::session::validate_event;
use crate::ffc::{
    EmbedStats, FaultEvent, Ffc, LookupError, RepairError, RepairOutcome, RepairStats,
    RingMaintainer, RingSnapshot, SnapshotPublisher,
};

/// Capacity of the bounded fault-event queue: [`RingService::submit`]
/// blocks when it is full, [`RingService::try_submit`] reports
/// [`SubmitError::Backlog`].
const QUEUE_CAP: usize = 1024;

/// Tuning knobs for [`RingService::start`]. The default serves a heavy
/// churn stream on one maintainer thread: up to 64 events coalesced per
/// repair batch. The event queue holds 1024 events, and the epoch cell
/// pins the [`epoch::DEFAULT_SLOTS`] most recent generations.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Maximum events drained into one [`RingMaintainer::apply_batch`]
    /// call (clamped to ≥ 1). Coalescing under backlog trades snapshot
    /// granularity for repair throughput: k queued events cost one fused
    /// delta pass and one publication instead of k.
    pub coalesce: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { coalesce: 64 }
    }
}

/// A rejected event submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The event failed pre-flight validation (same checks as
    /// [`RingMaintainer::apply_batch`]); it was **not** enqueued.
    Invalid(RepairError),
    /// Non-blocking submission found the queue full; the event was not
    /// enqueued. Blocking [`RingService::submit`] never reports this.
    Backlog,
    /// The writer thread has shut down.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "invalid fault event: {e}"),
            SubmitError::Backlog => write!(f, "fault-event queue is full"),
            SubmitError::Closed => write!(f, "ring service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// What the writer thread did over the service's lifetime, returned by
/// [`RingService::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Repair batches applied (= publications triggered by events).
    pub batches: u64,
    /// Fault events absorbed.
    pub events: u64,
    /// Publications (batches + the initial one).
    pub publications: u64,
    /// Publications that dirtied no chunk of the ring wiring, sharing all
    /// of it by refcount.
    pub shared_ring: u64,
    /// Publications that dirtied no chunk of the membership bitmap.
    pub shared_membership: u64,
    /// Always `publications`: snapshots hold no broadcast levels, so
    /// every publication shares them. Kept so readers of the report still
    /// compile.
    pub shared_levels: u64,
    /// Dirty chunks the per-batch publications copied
    /// ([`SnapshotPublisher::copied_chunks`], without the initial
    /// publication's copy of every chunk) — divided by `batches`, the
    /// per-publication cost that shows publication is O(cone).
    pub copied_chunks: u64,
    /// Clean chunks the per-batch publications re-copied only to retire a
    /// sparse segment ([`SnapshotPublisher::forwarded_chunks`]).
    pub forwarded_chunks: u64,
    /// Always 0: snapshot segments are freed by refcount, with no buffer
    /// pool to recycle them into. Kept so readers of the report still
    /// compile.
    pub reclaimed_buffers: u64,
    /// Bytes reserved by the writer's maintainer session at shutdown
    /// ([`RingMaintainer::allocated_bytes`]).
    pub session_bytes: usize,
    /// Per-batch repair times (the `apply_batch` call), nanoseconds.
    pub repair_ns: Vec<u64>,
    /// Per-batch publication times (snapshot build + epoch publish),
    /// nanoseconds.
    pub publish_ns: Vec<u64>,
    /// Delta-vs-rebuild counts from the maintainer.
    pub repairs: RepairStats,
    /// Outcome after the last absorbed batch (`None` if no event arrived).
    pub final_outcome: Option<RepairOutcome>,
}

impl ServiceReport {
    /// Events absorbed beyond one per batch — the coalescing win.
    #[must_use]
    pub fn coalesced_events(&self) -> u64 {
        self.events - self.batches
    }

    /// The `q`-quantile (0.0 ..= 1.0) of per-batch publication times, ns.
    #[must_use]
    pub fn publish_quantile_ns(&self, q: f64) -> u64 {
        quantile(&self.publish_ns, q)
    }

    /// The `q`-quantile (0.0 ..= 1.0) of per-batch repair times, ns.
    #[must_use]
    pub fn repair_quantile_ns(&self, q: f64) -> u64 {
        quantile(&self.repair_ns, q)
    }
}

/// The `q`-quantile (0.0 ..= 1.0) of `samples`: the sample at rank
/// round((len − 1)·q) in sorted order, 0 when there are none.
pub(crate) fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// A cheap per-reader cursor over the service's published snapshots: a
/// cached `(epoch, Arc<RingSnapshot>)` pair refreshed with one atomic load
/// per query. Clone one per reader thread ([`RingService::reader`]); the
/// handle stays valid after the service shuts down (it keeps serving the
/// final generation).
#[derive(Clone, Debug)]
pub struct ReaderHandle {
    cell: Arc<EpochCell<RingSnapshot>>,
    epoch: u64,
    snap: Arc<RingSnapshot>,
    reloads: u64,
}

impl ReaderHandle {
    fn new(cell: Arc<EpochCell<RingSnapshot>>) -> Self {
        let (epoch, snap) = cell.load();
        ReaderHandle {
            cell,
            epoch,
            snap,
            reloads: 0,
        }
    }

    /// Re-reads the epoch cell if the writer published a newer generation;
    /// one atomic load when nothing changed. The cached epoch is strictly
    /// monotone: a concurrent wrap-around can never move a handle to an
    /// older generation.
    pub fn refresh(&mut self) -> &Arc<RingSnapshot> {
        let current = self.cell.epoch();
        if current != self.epoch {
            let (epoch, snap) = self.cell.load();
            if epoch > self.epoch {
                self.epoch = epoch;
                self.snap = snap;
                self.reloads += 1;
            }
        }
        &self.snap
    }

    /// The latest snapshot (refreshing first) — hold the returned `Arc`
    /// for a multi-query consistent view.
    pub fn snapshot(&mut self) -> Arc<RingSnapshot> {
        Arc::clone(self.refresh())
    }

    /// The cached snapshot *without* refreshing — the frozen-baseline
    /// accessor: a reader that only ever calls this serves its pinned
    /// generation forever, never paying the epoch check.
    #[must_use]
    pub fn pinned(&self) -> &Arc<RingSnapshot> {
        &self.snap
    }

    /// The epoch of the cached snapshot.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many times this handle swapped to a newer generation.
    #[must_use]
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// Ring successor of `u` against the latest snapshot.
    ///
    /// # Errors
    /// See [`RingSnapshot::successor`].
    pub fn successor(&mut self, u: usize) -> Result<usize, LookupError> {
        self.refresh().successor(u)
    }

    /// Ring membership of `u` against the latest snapshot.
    ///
    /// # Errors
    /// See [`RingSnapshot::contains`].
    pub fn contains(&mut self, u: usize) -> Result<bool, LookupError> {
        self.refresh().contains(u)
    }

    /// Walks `len` ring nodes from `u` against the latest snapshot.
    ///
    /// # Errors
    /// See [`RingSnapshot::ring_segment`].
    pub fn ring_segment(
        &mut self,
        u: usize,
        len: usize,
        out: &mut Vec<usize>,
    ) -> Result<usize, LookupError> {
        self.refresh().ring_segment(u, len, out)
    }

    /// Stats of the latest snapshot.
    pub fn stats(&mut self) -> EmbedStats {
        self.refresh().stats()
    }
}

/// A long-lived ring service: one writer thread owning the
/// [`RingMaintainer`], an epoch cell of published [`RingSnapshot`]s, and
/// as many [`ReaderHandle`]s as there are readers. See the module docs for
/// the consistency model.
#[derive(Debug)]
pub struct RingService {
    cell: Arc<EpochCell<RingSnapshot>>,
    tx: Option<channel::Sender<FaultEvent>>,
    writer: Option<JoinHandle<ServiceReport>>,
    d: usize,
    suffix: usize,
    n_nodes: usize,
}

impl RingService {
    /// Builds the initial embedding for `initial_faults` (one maintainer
    /// reset), publishes generation 1 and spawns the writer thread. The
    /// `Ffc` is shared with the writer, hence the `Arc`.
    ///
    /// # Errors
    /// [`RepairError::NodeOutOfRange`] if an initial fault id is not a
    /// node of `ffc` (same contract as [`RingMaintainer::reset`]).
    pub fn start(
        ffc: Arc<Ffc>,
        initial_faults: &[usize],
        opts: ServeOptions,
    ) -> Result<RingService, RepairError> {
        let (d, n_nodes) = (ffc.graph().d() as usize, ffc.graph().len());
        let suffix = n_nodes / d;
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, initial_faults)?;
        let mut publisher = SnapshotPublisher::new();
        let first = maint.publish(&mut publisher, 0)?;
        let cell = Arc::new(EpochCell::new(first));
        let (tx, rx) = channel::bounded::<FaultEvent>(QUEUE_CAP);
        let writer = {
            let cell = Arc::clone(&cell);
            let coalesce = opts.coalesce.max(1);
            std::thread::spawn(move || writer_loop(&ffc, maint, publisher, &cell, &rx, coalesce))
        };
        Ok(RingService {
            cell,
            tx: Some(tx),
            writer: Some(writer),
            d,
            suffix,
            n_nodes,
        })
    }

    /// A fresh reader cursor positioned at the latest generation.
    #[must_use]
    pub fn reader(&self) -> ReaderHandle {
        ReaderHandle::new(Arc::clone(&self.cell))
    }

    /// The current publication epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Events currently waiting in the queue.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.tx.as_ref().map_or(0, channel::Sender::len)
    }

    /// Validates and enqueues one fault event, blocking while the queue is
    /// full. Validation happens *here* (same checks as
    /// [`RingMaintainer::apply_batch`]) so a malformed event is rejected
    /// synchronously and the writer loop never sees it.
    ///
    /// # Errors
    /// [`SubmitError::Invalid`] for a malformed event,
    /// [`SubmitError::Closed`] after shutdown.
    pub fn submit(&self, ev: FaultEvent) -> Result<(), SubmitError> {
        validate_event(self.d, self.suffix, self.n_nodes, ev).map_err(SubmitError::Invalid)?;
        match &self.tx {
            Some(tx) => tx.send(ev).map_err(|_| SubmitError::Closed),
            None => Err(SubmitError::Closed),
        }
    }

    /// Non-blocking [`RingService::submit`].
    ///
    /// # Errors
    /// As [`RingService::submit`], plus [`SubmitError::Backlog`] when the
    /// queue is full.
    pub fn try_submit(&self, ev: FaultEvent) -> Result<(), SubmitError> {
        validate_event(self.d, self.suffix, self.n_nodes, ev).map_err(SubmitError::Invalid)?;
        match &self.tx {
            Some(tx) => tx.try_send(ev).map_err(|e| match e {
                TrySendError::Full(_) => SubmitError::Backlog,
                TrySendError::Disconnected(_) => SubmitError::Closed,
            }),
            None => Err(SubmitError::Closed),
        }
    }

    /// Closes the queue, waits for the writer to drain every already
    /// accepted event (each one still published), and returns its report.
    /// Reader handles keep serving the final generation afterwards.
    ///
    /// # Panics
    /// Propagates a writer-thread panic (which only a maintainer bug can
    /// cause — malformed events are rejected at submission).
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        drop(self.tx.take());
        self.writer
            .take()
            // PANIC-OK: `shutdown` consumes `self` and `start` always sets
            // the handle, so the Option is `Some` exactly once here.
            .expect("writer joined once")
            .join()
            // PANIC-OK: the documented contract of `shutdown` — a writer
            // panic (only a maintainer bug can cause one) is propagated to
            // the caller, never swallowed.
            .expect("ring-service writer panicked")
    }
}

impl Drop for RingService {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// The writer loop: block on the queue, coalesce any backlog into one
/// batch, repair, publish, repeat — until every sender is gone and the
/// queue has drained.
fn writer_loop(
    ffc: &Ffc,
    mut maint: RingMaintainer,
    mut publisher: SnapshotPublisher,
    cell: &EpochCell<RingSnapshot>,
    rx: &channel::Receiver<FaultEvent>,
    coalesce: usize,
) -> ServiceReport {
    let mut report = ServiceReport::default();
    let mut batch: Vec<FaultEvent> = Vec::with_capacity(coalesce);
    let mut applied: u64 = 0;
    let (initial_copies, initial_forwards) =
        (publisher.copied_chunks(), publisher.forwarded_chunks());
    while let Ok(first) = rx.recv() {
        batch.clear();
        batch.push(first);
        while batch.len() < coalesce {
            match rx.try_recv() {
                Ok(ev) => batch.push(ev),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        let t0 = Instant::now();
        // Events were validated at submission against the same shape, so
        // the only errors left are maintainer bugs; surface those.
        let outcome = maint
            .apply_batch(ffc, &batch)
            // PANIC-OK: every event was validated at submission against
            // this same shape, so a failure here is a maintainer bug;
            // the panic is propagated to `shutdown` (see its contract).
            .expect("pre-validated batch must apply");
        let repaired = t0.elapsed().as_nanos() as u64;
        applied += batch.len() as u64;
        let t1 = Instant::now();
        let snap = maint
            .publish(&mut publisher, applied)
            // PANIC-OK: publish can only fail before the first embed, and
            // `start` embeds before the writer loop ever runs.
            .expect("session initialized at start");
        cell.publish(snap);
        let published = t1.elapsed().as_nanos() as u64;
        report.batches += 1;
        report.events += batch.len() as u64;
        report.repair_ns.push(repaired);
        report.publish_ns.push(published);
        report.final_outcome = Some(outcome);
    }
    report.publications = publisher.publications();
    report.shared_ring = publisher.shared_ring();
    report.shared_membership = publisher.shared_membership();
    report.shared_levels = report.publications;
    report.copied_chunks = publisher.copied_chunks() - initial_copies;
    report.forwarded_chunks = publisher.forwarded_chunks() - initial_forwards;
    report.session_bytes = maint.allocated_bytes();
    report.repairs = maint.repairs();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b25_service(opts: ServeOptions) -> RingService {
        RingService::start(Arc::new(Ffc::new(2, 5)), &[], opts).expect("start")
    }

    #[test]
    fn submit_rejects_malformed_events_synchronously() {
        let svc = b25_service(ServeOptions::default());
        let n = 32;
        assert_eq!(
            svc.submit(FaultEvent::NodeDown(n)),
            Err(SubmitError::Invalid(RepairError::NodeOutOfRange {
                node: n,
                n_nodes: n
            }))
        );
        assert_eq!(
            svc.try_submit(FaultEvent::EdgeDown(0, 5)),
            Err(SubmitError::Invalid(RepairError::NotAnEdge {
                from: 0,
                to: 5
            }))
        );
        // Nothing was enqueued, nothing published beyond the initial gen.
        let report = svc.shutdown();
        assert_eq!(report.events, 0);
        assert_eq!(report.publications, 1);
        assert!(report.final_outcome.is_none());
    }

    #[test]
    fn events_flow_through_to_published_snapshots() {
        let svc = b25_service(ServeOptions::default());
        let mut reader = svc.reader();
        assert_eq!(reader.epoch(), 1);
        let healthy_len = reader.snapshot().ring_len();
        svc.submit(FaultEvent::NodeDown(3)).expect("submit");
        svc.submit(FaultEvent::NodeUp(3)).expect("submit");
        let report = svc.shutdown();
        assert_eq!(report.events, 2);
        assert!(report.batches >= 1);
        assert_eq!(
            report.publications,
            report.batches + 1,
            "one publication per batch plus the initial one"
        );
        assert_eq!(report.repair_ns.len(), report.publish_ns.len());
        // After drain the fault set is empty again: the final snapshot is
        // the healthy ring and the reader observes it.
        let snap = reader.snapshot();
        assert_eq!(snap.applied_events(), 2);
        assert_eq!(snap.ring_len(), healthy_len);
        assert!(snap.outcome().is_repaired());
        assert!(reader.epoch() > 1);
    }

    #[test]
    fn coalescing_under_backlog_batches_events() {
        // A slow-to-start writer is not controllable; instead flood the
        // queue before the writer can drain it and check the accounting:
        // events ≥ batches always, and with 64-way coalescing a 200-event
        // flood cannot need 200 batches.
        let svc = b25_service(ServeOptions::default());
        for i in 0..100u64 {
            let v = (i % 16) as usize;
            let ev = if i % 2 == 0 {
                FaultEvent::NodeDown(v)
            } else {
                FaultEvent::NodeUp(v)
            };
            svc.submit(ev).expect("submit");
        }
        let report = svc.shutdown();
        assert_eq!(report.events, 100);
        assert_eq!(report.events, report.batches + report.coalesced_events());
        // Every batch took the delta or rebuild path, plus the reset —
        // except no-topology-change batches, which take neither.
        assert!(
            report.repairs.incremental + report.repairs.rebuilds <= report.batches as usize + 1
        );
    }

    #[test]
    fn readers_keep_serving_after_shutdown() {
        let svc = b25_service(ServeOptions::default());
        let mut reader = svc.reader();
        svc.submit(FaultEvent::NodeDown(7)).expect("submit");
        let _ = svc.shutdown();
        let snap = reader.snapshot();
        assert_eq!(snap.contains(7), Ok(false));
        assert!(snap.successor(0).is_ok());
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let report = ServiceReport {
            publish_ns: vec![50, 10, 40, 20, 30],
            ..ServiceReport::default()
        };
        assert_eq!(report.publish_quantile_ns(0.0), 10);
        assert_eq!(report.publish_quantile_ns(0.5), 30);
        assert_eq!(report.publish_quantile_ns(1.0), 50);
        assert_eq!(report.repair_quantile_ns(0.5), 0, "empty samples -> 0");
    }
}
