//! The batch sweep engine: Monte-Carlo sweeps as a first-class subsystem.
//!
//! The paper's headline experiments (Tables 2.1/2.2) re-run the FFC
//! embedding thousands of times per (d, n, f) cell. Before this module,
//! every sweep site re-implemented the same loop by hand: draw a fault
//! set, call [`Ffc::embed_into`] on a per-thread scratch, merge
//! accumulators under a mutex. The batch engine packages that loop behind
//! one deterministic, allocation-free API:
//!
//! * [`SweepPlan`] describes a whole sweep — the per-trial fault schedule,
//!   the trial count, and a seed from which **every trial's RNG stream is
//!   derived independently** ([`SweepPlan::trial_seed`]). Because trial t's
//!   fault draw depends only on `(seed, t)` and never on trials `0..t`,
//!   the same plan produces bit-identical results at any shard count, and
//!   a remote node (e.g. the `dbg-netsim` distributed sweep) can
//!   reconstruct any single trial without replaying the others.
//! * [`FaultDrawer`] draws a trial's fault set: a Fisher–Yates prefix
//!   shuffle of an identity permutation — byte-for-byte the same sample as
//!   `SliceRandom::partial_shuffle` on a fresh `0..n` array — whose swaps
//!   are undone after each draw so the buffer is reusable and trials stay
//!   independent. No allocation after warm-up.
//! * [`BatchEmbedder`] owns N sharded [`EmbedScratch`]es plus one
//!   [`FaultDrawer`] per shard, so a sweep fans out over scoped threads
//!   with zero shared mutable state and no locks: each shard runs a
//!   contiguous block of trials into its own accumulator, and the
//!   accumulators are merged in shard order (so `Vec` accumulators come
//!   back in global trial order).
//! * [`Ffc::embed_batch`] runs a plan: per trial it draws the fault set,
//!   embeds, and hands the result to a caller-supplied `record` closure as
//!   a [`Trial`] view. When the plan does not request cycles
//!   ([`SweepPlan::collect_cycles`]), the per-trial embedding takes the
//!   stats-only fast path ([`Ffc::embed_stats_into`]), which skips the
//!   spanning-tree, successor-function and cycle-readoff phases entirely —
//!   the dominant win for component-size/eccentricity sweeps like
//!   Tables 2.1/2.2.

use crossbeam::thread;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ffc::{EmbedScratch, EmbedStats, Ffc, RingMaintainer};

/// Per-trial fault-count schedule of a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Every trial draws the same number of faults — one Table 2.1/2.2 row.
    Constant(usize),
    /// Trial t draws `counts[t % counts.len()]` faults — the mixed-load
    /// schedule the engine benchmarks use (f cycling 0..=8).
    Cycling(Vec<usize>),
    /// **Nested** fault sets: one permutation is drawn for the whole row
    /// (from `trial_seed(0)`), and trial t's fault set is its first
    /// `counts[t % counts.len()]` elements. Consecutive trials therefore
    /// differ by single fault arrivals/repairs, which
    /// [`Ffc::embed_batch`] exploits by driving a [`RingMaintainer`]
    /// through `add_fault`/`clear_fault` deltas instead of re-embedding
    /// from scratch — the sweep analogue of an online fault stream. Each
    /// shard rebuilds once at its range start and repairs from there, so
    /// results stay bit-identical at any shard count (and identical to a
    /// serial loop of `embed_into` over the same prefixes).
    Nested(Vec<usize>),
}

impl FaultSchedule {
    /// The number of faults trial `trial` draws.
    ///
    /// # Panics
    /// Panics if a [`FaultSchedule::Cycling`] schedule is empty.
    #[must_use]
    pub fn faults_for(&self, trial: usize) -> usize {
        match self {
            FaultSchedule::Constant(f) => *f,
            FaultSchedule::Cycling(counts) | FaultSchedule::Nested(counts) => {
                assert!(!counts.is_empty(), "a cycling fault schedule needs counts");
                counts[trial % counts.len()]
            }
        }
    }

    /// The largest fault count any trial of this schedule draws.
    #[must_use]
    pub fn max_faults(&self) -> usize {
        match self {
            FaultSchedule::Constant(f) => *f,
            FaultSchedule::Cycling(counts) | FaultSchedule::Nested(counts) => {
                counts.iter().copied().max().unwrap_or(0)
            }
        }
    }
}

/// A deterministic description of one Monte-Carlo sweep: fault schedule,
/// trial count, seed, and whether per-trial cycles are materialised.
///
/// The plan is pure data — it owns no buffers — so it can be cloned,
/// serialised into experiment reports, or shipped to a distributed runner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepPlan {
    schedule: FaultSchedule,
    trials: usize,
    seed: u64,
    collect_cycles: bool,
}

impl SweepPlan {
    /// A plan running `trials` trials of `schedule` from `seed`, without
    /// cycle materialisation (the stats-only fast path).
    #[must_use]
    pub fn new(schedule: FaultSchedule, trials: usize, seed: u64) -> Self {
        SweepPlan {
            schedule,
            trials,
            seed,
            collect_cycles: false,
        }
    }

    /// Requests (or disables) per-trial cycle materialisation. With cycles
    /// on, every trial runs the full [`Ffc::embed_into`] pipeline and
    /// [`Trial::cycle`] is `Some`; with cycles off (the default), trials
    /// take the cheaper [`Ffc::embed_stats_into`] path.
    #[must_use]
    pub fn collect_cycles(mut self, yes: bool) -> Self {
        self.collect_cycles = yes;
        self
    }

    /// The per-trial fault schedule.
    #[must_use]
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// The number of trials the plan runs.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The plan seed all per-trial streams are derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether trials materialise their cycles.
    #[must_use]
    pub fn cycles_requested(&self) -> bool {
        self.collect_cycles
    }

    /// The RNG seed of trial `trial`: a SplitMix64-style mix of the plan
    /// seed and the trial index. Depends only on `(seed, trial)`, never on
    /// other trials — the invariant that makes sharding bit-transparent.
    #[must_use]
    pub fn trial_seed(&self, trial: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((trial as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The contiguous block of trial indices shard `shard` of `shards`
    /// executes (empty when the shard count exceeds the trial count).
    #[must_use]
    pub fn shard_range(trials: usize, shards: usize, shard: usize) -> std::ops::Range<usize> {
        let per = trials.div_ceil(shards.max(1));
        let lo = (shard * per).min(trials);
        let hi = ((shard + 1) * per).min(trials);
        lo..hi
    }
}

/// Reusable fault-set drawing: a Fisher–Yates prefix shuffle over an
/// identity permutation, undone after every draw.
///
/// `draw(n, seed, f)` returns exactly the sample `partial_shuffle` would
/// produce on a fresh `(0..n)` array with `StdRng::seed_from_u64(seed)` —
/// the contract the batch-vs-serial differential tests pin down — while
/// reusing its buffers, so steady-state draws perform no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct FaultDrawer {
    /// The identity permutation `0..n` (restored after every draw).
    nodes: Vec<usize>,
    /// The `j` index of each Fisher–Yates swap, for undoing in reverse.
    swaps: Vec<u32>,
    /// The drawn fault set of the most recent call.
    faults: Vec<usize>,
}

impl FaultDrawer {
    /// Creates an empty drawer; buffers are sized lazily by the first draw.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws `f` distinct node ids out of `0..n_nodes` from the stream of
    /// `seed`. The returned slice lives in the drawer's buffer and is valid
    /// until the next draw.
    ///
    /// `f` is clamped to `n_nodes`: a schedule whose fault count meets or
    /// exceeds the graph size (easy to write when one plan sweeps graphs
    /// of very different sizes) draws every node exactly once instead of
    /// indexing out of bounds. The clamp is pinned by
    /// `draw_clamps_oversized_fault_counts`.
    pub fn draw(&mut self, n_nodes: usize, seed: u64, f: usize) -> &[usize] {
        assert!(
            u32::try_from(n_nodes).is_ok(),
            "fault drawing indexes nodes with u32"
        );
        if self.nodes.len() != n_nodes {
            self.nodes.clear();
            self.nodes.extend(0..n_nodes);
        }
        let f = f.min(n_nodes);
        let mut rng = StdRng::seed_from_u64(seed);
        self.swaps.clear();
        for i in 0..f {
            let j = rng.gen_range(i..n_nodes);
            self.swaps.push(j as u32);
            self.nodes.swap(i, j);
        }
        self.faults.clear();
        self.faults.extend_from_slice(&self.nodes[..f]);
        // Undo the swaps in reverse so the buffer is the identity again and
        // the next trial's draw is independent of this one.
        for i in (0..f).rev() {
            self.nodes.swap(i, self.swaps[i] as usize);
        }
        &self.faults
    }
}

/// One shard's private state: an embedding scratch, a fault drawer, and
/// the incremental machinery of [`FaultSchedule::Nested`] rows (a ring
/// maintainer plus the row's shared permutation and ring buffer).
#[derive(Clone, Debug, Default)]
struct Shard {
    scratch: EmbedScratch,
    drawer: FaultDrawer,
    maintainer: RingMaintainer,
    row: Vec<usize>,
    ring: Vec<usize>,
}

/// Sharded per-sweep state: N independent [`EmbedScratch`]es and fault
/// drawers. One embedder serves any number of [`Ffc::embed_batch`] calls
/// (including across plans and graph sizes — buffers only ever grow), so a
/// sweep over many (d, n, f) rows warms up exactly once.
#[derive(Clone, Debug)]
pub struct BatchEmbedder {
    shards: Vec<Shard>,
}

impl BatchEmbedder {
    /// Creates an embedder with `shards` shards (clamped to at least 1).
    /// Shards beyond the trial count of a plan simply run zero trials.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        BatchEmbedder {
            shards: vec![Shard::default(); shards.max(1)],
        }
    }

    /// The number of shards (worker threads a batch call fans out over).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// A mergeable per-shard accumulator. Each shard folds its trials into its
/// own `Default` instance; [`Ffc::embed_batch`] then merges the shard
/// accumulators **in shard order**, so order-sensitive accumulators (like
/// `Vec`) observe trials in global index order.
pub trait SweepAccumulator: Default + Send {
    /// Absorbs another shard's accumulator (its trials all have higher
    /// indices than `self`'s).
    fn merge(&mut self, other: Self);
}

impl<T: Send> SweepAccumulator for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// The per-trial view handed to the `record` closure of
/// [`Ffc::embed_batch`]. Borrows the shard's buffers — copy out whatever
/// must outlive the trial.
#[derive(Clone, Copy, Debug)]
pub struct Trial<'a> {
    /// Global trial index within the plan (0-based).
    pub index: usize,
    /// The fault set this trial drew.
    pub faults: &'a [usize],
    /// The embedding's scalar results.
    pub stats: EmbedStats,
    /// The fault-free cycle, when the plan requested cycles.
    pub cycle: Option<&'a [usize]>,
}

impl Ffc {
    /// Runs a whole Monte-Carlo sweep: for every trial of `plan`, draws the
    /// fault set from the trial's own seed, embeds, and folds the result
    /// into a per-shard accumulator via `record`; shard accumulators are
    /// merged in shard order and returned.
    ///
    /// Trials are split into contiguous blocks across the shards of
    /// `batch` and run on scoped threads (inline when the embedder has one
    /// shard). Because every trial's RNG stream is independent
    /// ([`SweepPlan::trial_seed`]), the result is **bit-identical for any
    /// shard count** — and identical to a serial loop of
    /// [`Ffc::embed_into`] over the same per-trial seeds, which the
    /// workspace's property tests pin down.
    ///
    /// After warm-up the per-trial loop performs no heap allocation; what
    /// the accumulator does in `record` is the caller's business.
    pub fn embed_batch<A, F>(&self, batch: &mut BatchEmbedder, plan: &SweepPlan, record: F) -> A
    where
        A: SweepAccumulator,
        F: Fn(&mut A, Trial<'_>) + Sync,
    {
        let shards = batch.shards.len();
        let trials = plan.trials();
        if shards == 1 || trials <= 1 {
            let mut acc = A::default();
            self.run_shard(&mut batch.shards[0], plan, 0..trials, &record, &mut acc);
            return acc;
        }
        let accs: Vec<A> = thread::scope(|scope| {
            let handles: Vec<_> = batch
                .shards
                .iter_mut()
                .enumerate()
                .map(|(k, shard)| {
                    let record = &record;
                    scope.spawn(move |_| {
                        let mut acc = A::default();
                        let range = SweepPlan::shard_range(trials, shards, k);
                        self.run_shard(shard, plan, range, record, &mut acc);
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep shard panicked"))
                .collect()
        })
        .expect("scoped sweep threads do not panic");
        let mut merged = A::default();
        for acc in accs {
            merged.merge(acc);
        }
        merged
    }

    /// One shard's trial loop.
    fn run_shard<A, F>(
        &self,
        shard: &mut Shard,
        plan: &SweepPlan,
        range: std::ops::Range<usize>,
        record: &F,
        acc: &mut A,
    ) where
        A: SweepAccumulator,
        F: Fn(&mut A, Trial<'_>) + Sync,
    {
        if matches!(plan.schedule(), FaultSchedule::Nested(_)) {
            return self.run_shard_nested(shard, plan, range, record, acc);
        }
        let n_nodes = self.graph().len();
        let Shard {
            scratch, drawer, ..
        } = shard;
        for trial in range {
            let f = plan.schedule().faults_for(trial);
            let faults = drawer.draw(n_nodes, plan.trial_seed(trial), f);
            let (stats, cycle) = if plan.cycles_requested() {
                (self.embed_into(scratch, faults), Some(scratch.cycle()))
            } else {
                (self.embed_stats_into(scratch, faults), None)
            };
            record(
                acc,
                Trial {
                    index: trial,
                    faults,
                    stats,
                    cycle,
                },
            );
        }
    }

    /// The incremental trial loop of [`FaultSchedule::Nested`] rows: the
    /// shard draws the row's shared permutation once, rebuilds its
    /// [`RingMaintainer`] at the range's first prefix, and then absorbs
    /// each trial-to-trial difference as `add_fault`/`clear_fault` events.
    /// The recorded stats (and cycles, when requested) are identical to a
    /// from-scratch embed of each prefix — the maintainer's contract — so
    /// the sweep stays bit-identical at any shard count.
    fn run_shard_nested<A, F>(
        &self,
        shard: &mut Shard,
        plan: &SweepPlan,
        range: std::ops::Range<usize>,
        record: &F,
        acc: &mut A,
    ) where
        A: SweepAccumulator,
        F: Fn(&mut A, Trial<'_>) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let n_nodes = self.graph().len();
        let Shard {
            drawer,
            maintainer,
            row,
            ring,
            ..
        } = shard;
        let schedule = plan.schedule();
        let max = schedule.max_faults().min(n_nodes);
        row.clear();
        row.extend_from_slice(drawer.draw(n_nodes, plan.trial_seed(0), max));
        let mut cur = schedule.faults_for(range.start).min(n_nodes);
        maintainer
            .reset(self, &row[..cur])
            .expect("drawer yields in-range fault ids");
        for trial in range {
            let q = schedule.faults_for(trial).min(n_nodes);
            while cur < q {
                maintainer
                    .add_fault(self, row[cur])
                    .expect("drawer yields in-range fault ids");
                cur += 1;
            }
            while cur > q {
                cur -= 1;
                maintainer
                    .clear_fault(self, row[cur])
                    .expect("drawer yields in-range fault ids");
            }
            let cycle = if plan.cycles_requested() {
                maintainer.ring_into(ring);
                Some(&ring[..])
            } else {
                None
            };
            record(
                acc,
                Trial {
                    index: trial,
                    faults: &row[..q],
                    stats: maintainer.stats(),
                    cycle,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    #[test]
    fn trial_seeds_are_position_independent_and_distinct() {
        let plan = SweepPlan::new(FaultSchedule::Constant(3), 100, 42);
        let same = SweepPlan::new(FaultSchedule::Constant(7), 10, 42);
        for t in 0..100 {
            // Seeds depend only on (seed, trial), not on schedule or count.
            if t < 10 {
                assert_eq!(plan.trial_seed(t), same.trial_seed(t));
            }
            for u in (t + 1)..100 {
                assert_ne!(plan.trial_seed(t), plan.trial_seed(u));
            }
        }
        assert_ne!(
            plan.trial_seed(0),
            SweepPlan::new(FaultSchedule::Constant(3), 100, 43).trial_seed(0)
        );
    }

    #[test]
    fn shard_ranges_partition_the_trials() {
        for trials in [0usize, 1, 7, 16, 100] {
            for shards in 1..=8usize {
                let mut covered = Vec::new();
                for k in 0..shards {
                    covered.extend(SweepPlan::shard_range(trials, shards, k));
                }
                assert_eq!(covered, (0..trials).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn fault_schedules_cover_constant_and_cycling() {
        let c = FaultSchedule::Constant(5);
        assert_eq!(c.faults_for(0), 5);
        assert_eq!(c.faults_for(999), 5);
        assert_eq!(c.max_faults(), 5);
        let cy = FaultSchedule::Cycling(vec![0, 1, 2]);
        assert_eq!(cy.faults_for(0), 0);
        assert_eq!(cy.faults_for(4), 1);
        assert_eq!(cy.max_faults(), 2);
    }

    #[test]
    fn drawer_matches_partial_shuffle_and_restores_identity() {
        let mut drawer = FaultDrawer::new();
        for (n, f, seed) in [
            (32usize, 5usize, 1u64),
            (100, 0, 2),
            (64, 64, 3),
            (10, 3, 4),
        ] {
            let drawn = drawer.draw(n, seed, f).to_vec();
            // Oracle: partial_shuffle on a fresh identity array.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nodes: Vec<usize> = (0..n).collect();
            let (expected, _) = nodes.partial_shuffle(&mut rng, f);
            assert_eq!(drawn, expected, "n={n} f={f} seed={seed}");
            // The internal buffer is the identity again.
            assert_eq!(drawer.nodes, (0..n).collect::<Vec<_>>());
        }
    }

    /// A fault count at or beyond the node count must clamp to a full
    /// permutation draw — never index out of bounds — so large-graph sweep
    /// schedules can reuse fault counts written for larger graphs.
    #[test]
    fn draw_clamps_oversized_fault_counts() {
        let mut drawer = FaultDrawer::new();
        for (n, f) in [
            (10usize, 10usize),
            (10, 11),
            (10, 25),
            (10, usize::MAX),
            (1, 5),
        ] {
            let drawn = drawer.draw(n, 99, f).to_vec();
            assert_eq!(drawn.len(), n, "n={n} f={f}");
            let mut sorted = drawn.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n} f={f}");
            // The clamped draw is exactly the f == n draw, so schedules
            // stay deterministic whichever oversized count they carry.
            assert_eq!(drawn, drawer.draw(n, 99, n).to_vec(), "n={n} f={f}");
            // And the drawer is reusable afterwards (identity restored).
            assert_eq!(drawer.nodes, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn drawer_is_history_independent() {
        let mut a = FaultDrawer::new();
        let mut b = FaultDrawer::new();
        // a draws a bunch of unrelated sets first; b draws cold.
        for t in 0..20u64 {
            let _ = a.draw(64, t, 7);
        }
        assert_eq!(a.draw(64, 1234, 5), b.draw(64, 1234, 5));
    }

    #[test]
    fn batch_merges_vec_accumulators_in_trial_order() {
        let ffc = Ffc::new(2, 6);
        let plan = SweepPlan::new(FaultSchedule::Cycling(vec![0, 1, 2, 3]), 23, 99);
        let mut batch = BatchEmbedder::new(4);
        let order: Vec<usize> =
            ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<usize>, trial| {
                acc.push(trial.index);
            });
        assert_eq!(order, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn batch_is_shard_count_invariant() {
        let ffc = Ffc::new(3, 3);
        // Every fifth trial draws all 27 nodes: no necklace survives, so it
        // must come back infeasible (no ring) instead of panicking.
        let plan = SweepPlan::new(FaultSchedule::Cycling(vec![0, 1, 2, 5, 27]), 37, 7)
            .collect_cycles(true);
        type Row = (usize, Vec<usize>, usize, usize, Vec<usize>);
        let collect = |shards: usize| -> Vec<Row> {
            let mut batch = BatchEmbedder::new(shards);
            ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<_>, trial| {
                acc.push((
                    trial.index,
                    trial.faults.to_vec(),
                    trial.stats.component_size,
                    trial.stats.eccentricity,
                    trial.cycle.expect("plan requested cycles").to_vec(),
                ));
            })
        };
        let one = collect(1);
        assert_eq!(one.len(), 37);
        let all_down: Vec<&Row> = one.iter().filter(|row| row.1.len() == 27).collect();
        assert!(all_down.len() == 7 && all_down.iter().all(|row| row.4.is_empty()));
        for shards in [2usize, 3, 5, 8, 64] {
            assert_eq!(collect(shards), one, "shards={shards}");
        }
    }

    /// A nested plan's trials must be bit-identical to a serial loop of
    /// from-scratch embeds over the same prefixes — stats, fault slices
    /// and cycles — at every shard count (each shard rebuilds once at its
    /// range start, then repairs incrementally).
    #[test]
    fn nested_plan_matches_from_scratch_prefix_loop_at_any_shard_count() {
        let ffc = Ffc::new(2, 6);
        let total = ffc.graph().len();
        // Counts rise and fall so both add_fault and clear_fault deltas
        // run mid-row; 0 forces a full clear-down.
        let counts = vec![0usize, 1, 3, 6, 4, 2, 5, 0, 2];
        let plan =
            SweepPlan::new(FaultSchedule::Nested(counts.clone()), 31, 0xAB).collect_cycles(true);
        // Serial oracle: embed each prefix of the shared permutation.
        let mut drawer = FaultDrawer::new();
        let row = drawer
            .draw(
                total,
                plan.trial_seed(0),
                counts.iter().copied().max().unwrap(),
            )
            .to_vec();
        let mut scratch = EmbedScratch::new();
        type Row = (usize, Vec<usize>, EmbedStats, Vec<usize>);
        let want: Vec<Row> = (0..plan.trials())
            .map(|t| {
                let f = counts[t % counts.len()];
                let faults = row[..f].to_vec();
                let stats = ffc.embed_into(&mut scratch, &faults);
                (t, faults, stats, scratch.cycle().to_vec())
            })
            .collect();
        for shards in [1usize, 2, 5] {
            let mut batch = BatchEmbedder::new(shards);
            let got: Vec<Row> = ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<Row>, trial| {
                acc.push((
                    trial.index,
                    trial.faults.to_vec(),
                    trial.stats,
                    trial.cycle.expect("plan requested cycles").to_vec(),
                ));
            });
            assert_eq!(got, want, "shards={shards}");
        }
    }

    /// Stats-only nested plans match `embed_stats_into` per prefix and
    /// report no cycles.
    #[test]
    fn nested_stats_only_plan_matches_stats_path() {
        let ffc = Ffc::new(3, 3);
        let total = ffc.graph().len();
        let counts = vec![2usize, 4, 1, 5, 3];
        let plan = SweepPlan::new(FaultSchedule::Nested(counts.clone()), 17, 9);
        let mut drawer = FaultDrawer::new();
        let row = drawer.draw(total, plan.trial_seed(0), 5).to_vec();
        let mut scratch = EmbedScratch::new();
        let mut batch = BatchEmbedder::new(3);
        let got: Vec<(Vec<usize>, EmbedStats, bool)> =
            ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<_>, trial| {
                acc.push((trial.faults.to_vec(), trial.stats, trial.cycle.is_some()));
            });
        assert_eq!(got.len(), 17);
        for (t, (faults, stats, has_cycle)) in got.iter().enumerate() {
            let f = counts[t % counts.len()];
            assert_eq!(faults, &row[..f], "prefix of trial {t}");
            let want = ffc.embed_stats_into(&mut scratch, faults);
            assert_eq!(*stats, want, "trial {t}");
            assert!(!has_cycle);
        }
    }

    #[test]
    fn stats_only_plan_reports_no_cycles() {
        let ffc = Ffc::new(2, 5);
        let plan = SweepPlan::new(FaultSchedule::Constant(2), 9, 1);
        let mut batch = BatchEmbedder::new(2);
        let cycles: Vec<bool> = ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<bool>, trial| {
            acc.push(trial.cycle.is_some());
        });
        assert_eq!(cycles, vec![false; 9]);
    }

    #[test]
    fn zero_trials_yields_the_default_accumulator() {
        let ffc = Ffc::new(2, 4);
        let plan = SweepPlan::new(FaultSchedule::Constant(1), 0, 5);
        let mut batch = BatchEmbedder::new(3);
        let out: Vec<usize> = ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<usize>, trial| {
            acc.push(trial.index);
        });
        assert!(out.is_empty());
    }
}
