//! Distributed Monte-Carlo sweeps, driven by the same deterministic
//! [`SweepPlan`] seeding as the centralized batch engine.
//!
//! A sweep plan's per-trial RNG streams depend only on `(seed, trial)`
//! ([`SweepPlan::trial_seed`]), so a distributed runner — or any remote
//! worker handed a `(plan, trial range)` pair — reconstructs exactly the
//! fault sets the centralized [`Ffc::embed_batch`](debruijn_core::Ffc)
//! sweep draws, without replaying other trials and without shipping fault
//! lists over the wire. This module runs the Section 2.4 message-passing
//! protocol over a plan's trials and is differentially tested against the
//! centralized batch engine trial for trial.

use debruijn_core::{FaultDrawer, SweepPlan};

use crate::ffc_distributed::DistributedFfc;

/// The scalar record of one distributed sweep trial.
#[derive(Clone, Debug)]
pub struct DistributedTrial {
    /// Global trial index within the plan.
    pub index: usize,
    /// The fault set the trial drew (identical to the centralized sweep's
    /// draw for the same plan and index).
    pub faults: Vec<usize>,
    /// Length of the fault-free cycle the protocol traced, if it closed.
    pub cycle_len: Option<usize>,
    /// Total communication rounds the protocol used.
    pub rounds_total: usize,
    /// The broadcast depth (eccentricity of the root in B*).
    pub broadcast_depth: usize,
}

/// Runs `plan`'s trials `lo..hi` (a shard of the sweep) on the distributed
/// protocol, drawing each trial's fault set from [`SweepPlan::trial_seed`]
/// exactly like the centralized batch engine does.
///
/// # Panics
/// Panics if the range exceeds the plan's trial count.
#[must_use]
pub fn distributed_sweep_range(
    runner: &DistributedFfc,
    plan: &SweepPlan,
    range: std::ops::Range<usize>,
) -> Vec<DistributedTrial> {
    assert!(range.end <= plan.trials(), "trial range exceeds the plan");
    let n_nodes = runner.graph().len();
    let mut drawer = FaultDrawer::new();
    range
        .map(|trial| {
            let f = plan.schedule().faults_for(trial);
            let faults = drawer.draw(n_nodes, plan.trial_seed(trial), f).to_vec();
            let out = runner.run(&faults);
            DistributedTrial {
                index: trial,
                faults,
                cycle_len: out.cycle.as_ref().map(Vec::len),
                rounds_total: out.rounds.total,
                broadcast_depth: out.rounds.broadcast_depth,
            }
        })
        .collect()
}

/// [`distributed_sweep_range`] over the whole plan.
#[must_use]
pub fn distributed_sweep(runner: &DistributedFfc, plan: &SweepPlan) -> Vec<DistributedTrial> {
    distributed_sweep_range(runner, plan, 0..plan.trials())
}

#[cfg(test)]
mod tests {
    use super::*;
    use debruijn_core::{BatchEmbedder, EmbedStats, FaultSchedule, Ffc};

    /// The distributed sweep must draw the identical fault sets and find
    /// the identical cycles as the centralized batch engine, trial for
    /// trial — including when the work is split into shard-style ranges.
    #[test]
    fn distributed_sweep_matches_centralized_batch() {
        let (d, n) = (2u64, 5u32);
        let runner = DistributedFfc::new(d, n);
        let ffc = Ffc::new(d, n);
        let plan = SweepPlan::new(FaultSchedule::Cycling(vec![0, 1, 2]), 18, 0xC0FFEE)
            .collect_cycles(true);

        let mut batch = BatchEmbedder::new(2);
        type Centralized = (usize, Vec<usize>, EmbedStats, Vec<usize>);
        let central: Vec<Centralized> =
            ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<Centralized>, trial| {
                acc.push((
                    trial.index,
                    trial.faults.to_vec(),
                    trial.stats,
                    trial.cycle.expect("cycles requested").to_vec(),
                ));
            });

        // Run the distributed side as two "remote" shards.
        let mut distributed = distributed_sweep_range(&runner, &plan, 0..9);
        distributed.extend(distributed_sweep_range(&runner, &plan, 9..18));

        assert_eq!(central.len(), distributed.len());
        for ((idx, faults, stats, cycle), dt) in central.iter().zip(&distributed) {
            assert_eq!(*idx, dt.index);
            assert_eq!(faults, &dt.faults, "fault draw diverged at trial {idx}");
            assert_eq!(
                dt.cycle_len,
                Some(cycle.len()),
                "cycle length diverged at trial {idx}"
            );
            assert_eq!(dt.broadcast_depth, stats.eccentricity, "trial {idx}");
        }
    }

    #[test]
    fn whole_plan_sweep_equals_concatenated_ranges() {
        let runner = DistributedFfc::new(3, 3);
        let plan = SweepPlan::new(FaultSchedule::Constant(1), 8, 7);
        let whole = distributed_sweep(&runner, &plan);
        let mut parts = distributed_sweep_range(&runner, &plan, 0..3);
        parts.extend(distributed_sweep_range(&runner, &plan, 3..8));
        assert_eq!(whole.len(), parts.len());
        for (a, b) in whole.iter().zip(&parts) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.cycle_len, b.cycle_len);
            assert_eq!(a.rounds_total, b.rounds_total);
        }
    }
}
