//! `sweep`: the paper's Table 2.1/2.2 Monte-Carlo experiment at B(2,18),
//! stats only: `Ffc::embed_batch` over `SweepPlan`s with f cycling through
//! 0..=8. It runs the batch engine and the stats-only path, and skips
//! broadcast wiring, readoff and serving entirely.
//!
//! The timed plans run on one shard. Every few plans the same plan also
//! runs untimed on one shard per core, and must give the same accumulator;
//! the traced run reports that run's speed-up as `sweep.shard_scaling`.
//! Timing the sharded plans instead made the gated figures depend on where
//! the host placed this VM's two vCPUs: the same plan took 40 ms or 60 ms
//! depending on the run, so the per-plan p50 jumped between two modes.

use std::time::{Duration, Instant};

use debruijn_rings::core::{
    BatchEmbedder, EmbedScratch, FaultDrawer, FaultSchedule, Ffc, SweepAccumulator, SweepPlan,
    Trial,
};
use debruijn_rings::necklace::NecklacePartition;

use crate::stats::median;
use crate::trace::Tracer;
use crate::{first_ms, mix, Config, Metric, Outcome};

pub const N: u32 = 18;
/// Fault counts per trial cycle through 0..=MAX_F.
const MAX_F: usize = 8;
/// Trials per plan: 14 full cycles of the fault schedule, about 40 ms of
/// work on one shard, so each quarter-second window holds about six.
const TRIALS: usize = 14 * (MAX_F + 1);
/// Every this many plans, the plan is re-run on one shard per core
/// (untimed) and must produce the identical accumulator.
const CHECK_EVERY: u64 = 8;
/// Traced runs time this many single-thread draws and stats embeds per
/// check.
const TRACED_TRIALS: usize = 27;

/// Per fault count: trials, and sums of component size and eccentricity;
/// plus an order-free digest of every (trial, stats) pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tally {
    trials: [u64; MAX_F + 1],
    size_sum: [u64; MAX_F + 1],
    ecc_sum: [u64; MAX_F + 1],
    digest: u64,
}

impl SweepAccumulator for Tally {
    fn merge(&mut self, other: Self) {
        for f in 0..=MAX_F {
            self.trials[f] += other.trials[f];
            self.size_sum[f] += other.size_sum[f];
            self.ecc_sum[f] += other.ecc_sum[f];
        }
        self.digest ^= other.digest;
    }
}

fn record(acc: &mut Tally, t: Trial<'_>) {
    let f = t.faults.len();
    let s = t.stats;
    acc.trials[f] += 1;
    acc.size_sum[f] += s.component_size as u64;
    acc.ecc_sum[f] += s.eccentricity as u64;
    let key = [
        s.root,
        s.component_size,
        s.eccentricity,
        s.faulty_necklaces,
        s.removed_nodes,
    ]
    .iter()
    .fold(t.index as u64, |h, &x| mix(h, x as u64));
    acc.digest ^= key;
}

fn plan(seed: u64, k: u64, trials: usize) -> SweepPlan {
    SweepPlan::new(
        FaultSchedule::Cycling((0..=MAX_F).collect()),
        trials,
        mix(seed, k),
    )
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let shards = crate::host::cpus();
    let mut kept = None;
    for i in 0..cfg.setups as u64 {
        drop(kept.take());
        let span = tracer.begin("setup", i);
        let t = Instant::now();
        let ffc = Ffc::new(2, N);
        let t_warm = Instant::now();
        tracer.record("ffc.new", i, t, t_warm);
        // One cycle of the schedule grows the scratch to every fault
        // count. A whole plan here made set-up one plan's time, as noisy
        // as an unfiltered window (spread 60% over ten seeds).
        let mut batch = BatchEmbedder::new(1);
        let warm_plan = plan(cfg.seed, u64::MAX, MAX_F + 1);
        let warm: Tally = ffc.embed_batch(&mut batch, &warm_plan, record);
        std::hint::black_box(warm);
        tracer.record("sweep.warm", i, t_warm, Instant::now());
        out.setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        kept = Some((ffc, batch));
    }
    let (ffc, mut batch) = kept.expect("at least one set-up");
    if tracer.is_on() {
        let t = Instant::now();
        drop(NecklacePartition::new(ffc.graph().space()));
        tracer.record("necklace.partition", 0, t, Instant::now());
    }
    let n_nodes = ffc.graph().len();
    let mut sharded = BatchEmbedder::new(shards);
    let (mut stats_scratch, mut full_scratch) = (EmbedScratch::new(), EmbedScratch::new());
    let mut drawer = FaultDrawer::new();
    let mut faults = Vec::new();
    let (mut sharded_ns, mut single_ns, mut draw_ns, mut stats_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    let (mut plans, mut trials, mut failed) = (0u64, 0u64, 0u64);
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let k = plans;
        let p = plan(cfg.seed, k, TRIALS);
        let span = tracer.begin("sweep.plan", k);
        let t0 = Instant::now();
        let tally: Tally = ffc.embed_batch(&mut batch, &p, record);
        let dt = t0.elapsed();
        tracer.record("ffc.embed_batch", k, t0, t0 + dt);
        let w = out.window((t0 - start).as_nanos() as u64);
        w.latency_ms.push(dt.as_secs_f64() * 1e3);
        w.ops += TRIALS as f64;
        w.busy_s += dt.as_secs_f64();
        trials += TRIALS as u64;
        failed += u64::from(tally.trials.iter().sum::<u64>() != TRIALS as u64);
        if k % CHECK_EVERY == 0 {
            // The sharded accumulator is bit-identical to one shard's.
            let t1 = Instant::now();
            let all: Tally = ffc.embed_batch(&mut sharded, &p, record);
            let t2 = Instant::now();
            tracer.record("ffc.embed_batch.sharded", k, t1, t2);
            single_ns.push(dt.as_nanos() as f64);
            sharded_ns.push((t2 - t1).as_nanos() as f64);
            failed += u64::from(all != tally);
            // The stats-only path agrees with the full pipeline, on
            // trial indices that walk the plan across checks.
            let traced = if tracer.is_on() { TRACED_TRIALS } else { 1 };
            for j in 0..traced {
                let trial = (k as usize / CHECK_EVERY as usize * 31 + j) % TRIALS;
                let t3 = Instant::now();
                let f = p.schedule().faults_for(trial);
                faults.clear();
                faults.extend_from_slice(drawer.draw(n_nodes, p.trial_seed(trial), f));
                let t4 = Instant::now();
                let s = ffc.embed_stats_into(&mut stats_scratch, &faults);
                let t5 = Instant::now();
                tracer.record("sweep.draw", trial as u64, t3, t4);
                tracer.record("sweep.stats_embed", trial as u64, t4, t5);
                draw_ns.push((t4 - t3).as_nanos() as f64);
                stats_ns.push((t5 - t4).as_nanos() as f64);
                if j == 0 {
                    failed += u64::from(s != ffc.embed_into(&mut full_scratch, &faults));
                }
            }
        }
        tracer.end(span);
        plans += 1;
    }
    out.peak_rss_mb = crate::host::peak_rss_mb();
    out.attempted = trials;
    out.failed = failed;
    out.notes.push(format!(
        "sweep graph=B(2,{N}) timed_shards=1 check_shards={shards} plans={plans} trials_per_plan={TRIALS} sharded_checks={} working_set embed_scratch_bytes_per_shard={}",
        single_ns.len(),
        stats_scratch.allocated_bytes()
    ));
    if tracer.is_on() {
        out.layers = vec![
            Metric::new(
                "sweep.stats_embed_us_p50",
                median(&mut stats_ns) / 1e3,
                "us",
            ),
            Metric::new("sweep.draw_us_p50", median(&mut draw_ns) / 1e3, "us"),
            Metric::new(
                "sweep.shard_scaling",
                median(&mut single_ns) / median(&mut sharded_ns),
                "ratio",
            ),
            first_ms(tracer, "ffc.new", "ffc.new_ms"),
            first_ms(tracer, "necklace.partition", "necklace.partition_ms"),
        ];
    }
    out
}
