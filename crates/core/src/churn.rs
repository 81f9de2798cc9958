//! Fault-churn trace generation and replay against a [`RingMaintainer`].
//!
//! The paper's reconfiguration story (Section 2.5) is about rings that
//! survive an *evolving* fault environment, not a single static fault set.
//! This module models that regime as a timed trace of
//! [`FaultEvent`] batches — Poisson fault arrivals, correlated k-bursts,
//! occasional link faults, and bounded-repair-time departures — and
//! replays the trace through a [`RingMaintainer`], measuring time-to-repair
//! percentiles and the fraction of (simulated) wall time the embedding
//! spends degraded below full tolerance.
//!
//! Traces are deterministic given [`ChurnPlan::seed`], so replay results
//! are reproducible and comparable across shard counts and machines.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ffc::{FaultEvent, Ffc, RepairError, RepairOutcome, RingMaintainer};
use crate::serve::quantile;

/// Draws a uniform f64 in `[0, 1)` from the vendored generator (which only
/// exposes integer ranges) using the top 53 bits of one output word.
#[inline]
fn uniform01(rng: &mut StdRng) -> f64 {
    rng.gen_range(0u64..(1u64 << 53)) as f64 / (1u64 << 53) as f64
}

/// One timed step of a churn trace: a batch of simultaneous fault events.
///
/// Arrival bursts produce batches of several events at one instant;
/// departures (repairs completing) are singleton batches.
#[derive(Clone, Debug)]
pub struct ChurnStep {
    /// Simulated time of the batch, in abstract time units.
    pub time: f64,
    /// The simultaneous events, applied as one [`RingMaintainer::apply_batch`].
    pub batch: Vec<FaultEvent>,
}

/// A deterministic arrival/departure process over a de Bruijn network.
///
/// Arrivals follow a Poisson process (exponential inter-arrival gaps of
/// mean [`ChurnPlan::mean_interarrival`]); with probability
/// [`ChurnPlan::burst_prob`] an arrival is a correlated burst of
/// [`ChurnPlan::burst_size`] simultaneous faults. Each individual fault is
/// a link fault with probability [`ChurnPlan::edge_fault_prob`], otherwise
/// a node fault. Every fault schedules its own repair (the mirroring
/// `NodeUp`/`EdgeUp`) after a uniform delay in
/// `[repair_min, repair_max)` time units.
#[derive(Clone, Copy, Debug)]
pub struct ChurnPlan {
    /// RNG seed; the trace is a pure function of the plan and the graph.
    pub seed: u64,
    /// Number of arrival *events* (a burst counts as one arrival).
    pub arrivals: usize,
    /// Mean exponential gap between arrivals, in time units.
    pub mean_interarrival: f64,
    /// Minimum repair (fault-holding) time.
    pub repair_min: f64,
    /// Maximum repair time (exclusive).
    pub repair_max: f64,
    /// Number of simultaneous faults in a correlated burst.
    pub burst_size: usize,
    /// Probability that an arrival is a burst rather than a single fault.
    pub burst_prob: f64,
    /// Probability that an individual fault hits a link instead of a node.
    pub edge_fault_prob: f64,
}

impl ChurnPlan {
    /// A moderate default process: 60 arrivals, 25% bursts of 4,
    /// 20% link faults, repairs completing after 2–6 mean gaps.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChurnPlan {
            seed,
            arrivals: 60,
            mean_interarrival: 1.0,
            repair_min: 2.0,
            repair_max: 6.0,
            burst_size: 4,
            burst_prob: 0.25,
            edge_fault_prob: 0.2,
        }
    }

    /// Sets the number of arrival events.
    #[must_use]
    pub fn arrivals(mut self, arrivals: usize) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the correlated-burst shape: each burst brings `size`
    /// simultaneous faults with probability `prob` per arrival.
    #[must_use]
    pub fn bursts(mut self, size: usize, prob: f64) -> Self {
        self.burst_size = size.max(1);
        self.burst_prob = prob;
        self
    }

    /// Sets the probability that a fault hits a link instead of a node.
    #[must_use]
    pub fn edge_fault_prob(mut self, p: f64) -> Self {
        self.edge_fault_prob = p;
        self
    }

    /// Sets the uniform repair-time window `[min, max)`.
    #[must_use]
    pub fn repair_window(mut self, min: f64, max: f64) -> Self {
        self.repair_min = min;
        self.repair_max = max.max(min + f64::EPSILON);
        self
    }

    /// Generates the timed trace for `ffc`: arrival batches interleaved
    /// with their departure events, sorted by simulated time.
    ///
    /// Faults are drawn uniformly over nodes (and over the `d` out-edges
    /// of a uniformly drawn source for link faults); redundant events are
    /// left in the trace on purpose — [`RingMaintainer::apply_batch`]
    /// treats them as set-semantics no-ops, which is part of what churn
    /// replay exercises.
    #[must_use]
    pub fn generate(&self, ffc: &Ffc) -> Vec<ChurnStep> {
        let n_nodes = ffc.graph().len();
        let d = ffc.graph().d() as usize;
        let suffix = n_nodes / d;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut steps: Vec<ChurnStep> = Vec::new();
        let mut t = 0.0_f64;
        for _ in 0..self.arrivals {
            t += -self.mean_interarrival * (1.0 - uniform01(&mut rng)).ln();
            let k = if rng.gen_bool(self.burst_prob) {
                self.burst_size
            } else {
                1
            };
            let mut batch = Vec::with_capacity(k);
            for _ in 0..k {
                let (down, up) = if rng.gen_bool(self.edge_fault_prob) {
                    let u = rng.gen_range(0..n_nodes);
                    let w = (u % suffix) * d + rng.gen_range(0..d);
                    (FaultEvent::EdgeDown(u, w), FaultEvent::EdgeUp(u, w))
                } else {
                    let v = rng.gen_range(0..n_nodes);
                    (FaultEvent::NodeDown(v), FaultEvent::NodeUp(v))
                };
                batch.push(down);
                let dwell =
                    self.repair_min + uniform01(&mut rng) * (self.repair_max - self.repair_min);
                steps.push(ChurnStep {
                    time: t + dwell,
                    batch: vec![up],
                });
            }
            steps.push(ChurnStep { time: t, batch });
        }
        steps.sort_by(|a, b| a.time.total_cmp(&b.time));
        steps
    }
}

/// Aggregate results of replaying a churn trace through a maintainer.
#[derive(Clone, Debug, Default)]
pub struct ChurnReport {
    /// Batches applied (arrival bursts and departures alike).
    pub steps: usize,
    /// Individual fault events across all batches.
    pub events: usize,
    /// Wall-clock repair latency of each batch, in nanoseconds.
    pub repair_ns: Vec<u64>,
    /// Simulated time spent with the embedding degraded (reduced ring).
    pub degraded_time: f64,
    /// Simulated time spent infeasible (no live necklace at all).
    pub infeasible_time: f64,
    /// Total simulated time of the trace.
    pub total_time: f64,
    /// Largest number of live-but-excluded nodes seen in any degraded state.
    pub worst_excluded: usize,
    /// Steps that ended in each outcome class: `[repaired, degraded, infeasible]`.
    pub outcome_counts: [usize; 3],
}

impl ChurnReport {
    /// Median per-batch repair latency.
    #[must_use]
    pub fn p50_ns(&self) -> u64 {
        quantile(&self.repair_ns, 0.50)
    }

    /// 99th-percentile per-batch repair latency.
    #[must_use]
    pub fn p99_ns(&self) -> u64 {
        quantile(&self.repair_ns, 0.99)
    }

    /// Fraction of simulated time spent degraded (or infeasible),
    /// time-weighted over the trace.
    #[must_use]
    pub fn degraded_fraction(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        (self.degraded_time + self.infeasible_time) / self.total_time
    }
}

/// Replays a churn trace through `maint`, resetting it to the fault-free
/// embedding first, and reports repair latencies and degraded-time
/// fractions. `observe` sees every `(step, outcome, maintainer)` triple as
/// it happens — pass `|_, _, _| {}` when only the report matters.
///
/// Degraded/infeasible time is accounted between consecutive step times
/// under the state left by the *earlier* step, so a burst that degrades
/// the ring charges the interval until the repair that lifts it.
///
/// # Errors
/// Propagates any [`RepairError`] from the maintainer — a generated trace
/// is always in-range and edge-valid for its own `ffc`, so an error here
/// means the trace and graph are mismatched.
pub fn replay_churn<F>(
    ffc: &Ffc,
    maint: &mut RingMaintainer,
    steps: &[ChurnStep],
    mut observe: F,
) -> Result<ChurnReport, RepairError>
where
    F: FnMut(&ChurnStep, &RepairOutcome, &RingMaintainer),
{
    let mut report = ChurnReport::default();
    let mut outcome = maint.reset(ffc, &[])?;
    let mut prev_time = 0.0_f64;
    for step in steps {
        let span = (step.time - prev_time).max(0.0);
        match outcome {
            RepairOutcome::Repaired(_) => {}
            RepairOutcome::Degraded { .. } => report.degraded_time += span,
            RepairOutcome::Infeasible { .. } => report.infeasible_time += span,
        }
        prev_time = step.time;
        let start = Instant::now();
        outcome = maint.apply_batch(ffc, &step.batch)?;
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        report.repair_ns.push(ns);
        report.steps += 1;
        report.events += step.batch.len();
        match outcome {
            RepairOutcome::Repaired(_) => report.outcome_counts[0] += 1,
            RepairOutcome::Degraded { excluded, .. } => {
                report.outcome_counts[1] += 1;
                report.worst_excluded = report.worst_excluded.max(excluded);
            }
            RepairOutcome::Infeasible { .. } => report.outcome_counts[2] += 1,
        }
        observe(step, &outcome, maint);
    }
    report.total_time = prev_time;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffc::EmbedScratch;

    #[test]
    fn traces_are_deterministic_and_sorted() {
        let ffc = Ffc::new(2, 8);
        let plan = ChurnPlan::new(0xC0FFEE).arrivals(40);
        let a = plan.generate(&ffc);
        let b = plan.generate(&ffc);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time.to_bits(), y.time.to_bits());
            assert_eq!(x.batch, y.batch);
        }
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        // Every arrival schedules its mirror departure, so downs == ups.
        let downs = a
            .iter()
            .flat_map(|s| &s.batch)
            .filter(|e| matches!(e, FaultEvent::NodeDown(_) | FaultEvent::EdgeDown(..)))
            .count();
        let ups = a.iter().map(|s| s.batch.len()).sum::<usize>() - downs;
        assert_eq!(downs, ups);
    }

    #[test]
    fn replay_matches_from_scratch_at_every_step() {
        let ffc = Ffc::new(2, 9);
        let plan = ChurnPlan::new(7).arrivals(30).bursts(3, 0.3);
        let steps = plan.generate(&ffc);
        let mut maint = RingMaintainer::new();
        let mut scratch = EmbedScratch::new();
        let report = replay_churn(&ffc, &mut maint, &steps, |_, outcome, m| {
            let want = ffc.embed_stats_into(&mut scratch, m.faulty_nodes());
            assert_eq!(outcome.stats(), want);
        })
        .expect("generated trace is valid");
        assert_eq!(report.steps, steps.len());
        assert!(report.p50_ns() <= report.p99_ns());
        assert!(report.degraded_fraction() >= 0.0 && report.degraded_fraction() <= 1.0);
        // The trace ends with all repairs scheduled, so after replay the
        // maintainer must be back to (or still at) a repaired full ring.
        assert!(maint.outcome().is_repaired());
    }
}
