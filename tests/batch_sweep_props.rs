//! Property tests for the batch sweep engine: `embed_batch` over a random
//! plan must produce **bit-identical** `EmbedStats` and cycles to a serial
//! loop of `embed_into` with the same per-trial seeds, at shard counts
//! 1, 2 and 5.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use debruijn_rings::core::oracle::{embed_stats_into_u8, U8StatsScratch};
use debruijn_rings::core::{
    BatchEmbedder, EmbedScratch, EmbedStats, FaultSchedule, Ffc, SweepPlan,
};

/// Strategy for a small (d, n) pair with d^n bounded, so each case stays
/// fast. Every pair here has at least 6 necklaces, so the fault counts of
/// [`schedule`] (≤ 5) always leave a ring; the all-nodes plan is pinned
/// by the sweep engine's unit tests.
fn small_debruijn() -> impl Strategy<Value = (u64, u32)> {
    prop_oneof![
        (2u64..=2, 4u32..=8),
        (3u64..=3, 2u32..=4),
        (4u64..=4, 2u32..=3),
        (5u64..=5, 2u32..=2),
    ]
}

/// Strategy for a fault schedule: constant or cycling, counts within 0..=5.
fn schedule() -> impl Strategy<Value = FaultSchedule> {
    prop_oneof![
        (0usize..=5).prop_map(FaultSchedule::Constant),
        (1usize..=2, 0usize..=3)
            .prop_map(|(len, lo)| { FaultSchedule::Cycling((lo..=lo + len).collect()) }),
    ]
}

/// The serial oracle: a plain loop of `embed_into` drawing each trial's
/// faults with `partial_shuffle` on a fresh identity array seeded from
/// `plan.trial_seed(t)` — the contract the batch engine promises to match.
fn serial_oracle(ffc: &Ffc, plan: &SweepPlan) -> Vec<(Vec<usize>, EmbedStats, Vec<usize>)> {
    let total = ffc.graph().len();
    let mut scratch = EmbedScratch::new();
    (0..plan.trials())
        .map(|t| {
            let f = plan.schedule().faults_for(t).min(total);
            let mut rng = StdRng::seed_from_u64(plan.trial_seed(t));
            let mut nodes: Vec<usize> = (0..total).collect();
            let (chosen, _) = nodes.partial_shuffle(&mut rng, f);
            let faults = chosen.to_vec();
            let stats = ffc.embed_into(&mut scratch, &faults);
            (faults, stats, scratch.cycle().to_vec())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-pipeline plans (cycles requested): stats, fault draws and
    /// cycles are bit-identical to the serial loop at every shard count.
    #[test]
    fn embed_batch_matches_serial_embed_into(
        (d, n) in small_debruijn(),
        sched in schedule(),
        trials in 1usize..32,
        seed in any::<u64>(),
    ) {
        let ffc = Ffc::new(d, n);
        let plan = SweepPlan::new(sched, trials, seed).collect_cycles(true);
        let expected = serial_oracle(&ffc, &plan);
        for shards in [1usize, 2, 5] {
            let mut batch = BatchEmbedder::new(shards);
            type Row = (usize, Vec<usize>, EmbedStats, Vec<usize>);
            let got: Vec<Row> = ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<Row>, trial| {
                acc.push((
                    trial.index,
                    trial.faults.to_vec(),
                    trial.stats,
                    trial.cycle.expect("plan requested cycles").to_vec(),
                ));
            });
            prop_assert_eq!(got.len(), trials, "shards={}", shards);
            for (i, ((faults, stats, cycle), (idx, b_faults, b_stats, b_cycle))) in
                expected.iter().zip(&got).enumerate()
            {
                prop_assert_eq!(*idx, i, "shards={}", shards);
                prop_assert_eq!(faults, b_faults, "faults diverge at trial {} shards={}", i, shards);
                prop_assert_eq!(stats, b_stats, "stats diverge at trial {} shards={}", i, shards);
                prop_assert_eq!(cycle, b_cycle, "cycle diverges at trial {} shards={}", i, shards);
            }
        }
    }

    /// Stats-only plans: the bit-parallel fast path reports the identical
    /// stats (and no cycle) at every shard count — identical to both the
    /// full-pipeline serial loop and the u8-stamp oracle on the same
    /// per-trial draws.
    #[test]
    fn stats_only_embed_batch_matches_serial(
        (d, n) in small_debruijn(),
        sched in schedule(),
        trials in 1usize..32,
        seed in any::<u64>(),
    ) {
        let ffc = Ffc::new(d, n);
        let plan = SweepPlan::new(sched, trials, seed);
        let expected = serial_oracle(&ffc, &plan.clone().collect_cycles(true));
        // The u8-stamp oracle must agree with the full pipeline trial for
        // trial before it is used as the comparison baseline.
        let mut u8_scratch = U8StatsScratch::default();
        for (faults, stats, _) in &expected {
            let got = embed_stats_into_u8(&ffc, &mut u8_scratch, faults);
            prop_assert_eq!(&got, stats, "u8 oracle diverges for {:?}", faults);
        }
        for shards in [1usize, 2, 5] {
            let mut batch = BatchEmbedder::new(shards);
            type Row = (usize, Vec<usize>, EmbedStats, bool);
            let got: Vec<Row> = ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<Row>, trial| {
                acc.push((
                    trial.index,
                    trial.faults.to_vec(),
                    trial.stats,
                    trial.cycle.is_some(),
                ));
            });
            prop_assert_eq!(got.len(), trials, "shards={}", shards);
            for (i, ((faults, stats, _), (idx, b_faults, b_stats, has_cycle))) in
                expected.iter().zip(&got).enumerate()
            {
                prop_assert_eq!(*idx, i);
                prop_assert_eq!(faults, b_faults, "faults diverge at trial {} shards={}", i, shards);
                prop_assert_eq!(stats, b_stats, "stats diverge at trial {} shards={}", i, shards);
                prop_assert!(!has_cycle, "stats-only plan produced a cycle");
            }
        }
    }
}
