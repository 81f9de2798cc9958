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
//!   a [`Trial`] view. A plan that requests cycles
//!   ([`SweepPlan::collect_cycles`]) runs [`Ffc::embed_into`] per trial.
//!
//! # Stats-only trials by delta
//!
//! A plan without cycles needs only |B*| and the root's eccentricity per
//! trial (Tables 2.1/2.2). Its trials run the fault marking and root probe
//! of [`Ffc::embed_stats_into`], but not that function's forward pass over
//! all d^n nodes: a handful of faulty necklaces changes the levels of a
//! few hundred nodes. Each shard keeps the fault-free forward levels from
//! R = 0…01 in a one-byte [`LevelVec`], with their histogram, filled per
//! shape from a closed form with no BFS: node 0^j 1 w sits at level
//! k = n − 1 − j, which covers the ids [d^k, 2·d^k), and every other node
//! at level n. A trial then
//!
//! 1. deletes the killed necklaces' members with one
//!    [`crate::bitreach::BitReach::levels_delete`], which logs every node
//!    whose level it changes before writing it;
//! 2. reads |B*| (d^n less the logged nodes that left) and the
//!    eccentricity (the highest level still populated, with the logged old
//!    levels taken off the histogram and their new levels added) from that
//!    log;
//! 3. writes the logged old levels back, so the levels are the closed form
//!    again.
//!
//! A trial keeps the forward pass of [`Ffc::embed_stats_into`] when the
//! faults killed the default root's necklace (the root moved), when a
//! killed member sits at a fault-free level L whose cone, about d^n / d^L
//! nodes, costs more as a delta than the pass (`PASS_RATIO`), or when
//! the delete runs past its pop budget (d^n / `BUDGET_DIVISOR`). The
//! undo is exact after such an abort too. A trial with no fault reads the
//! histogram alone. [`BatchEmbedder::paths`] counts the trials each way
//! took. Every shard buffer is sized before the shard's first trial: the
//! level array and the delete pass's two bitmaps by the node count,
//! everything else by the pop budget.
//!
//! [`Ffc::embed_stats_into`] and [`Ffc::embed_into`] keep the forward pass
//! and are the reference the delta trials are tested against.

use crossbeam::thread;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitreach::{BitScratch, DeltaScratch};
use crate::ffc::{EmbedScratch, EmbedStats, Ffc, INFEASIBLE_ROOT};
use crate::mem::{grow_to, reserve_more, LevelVec, UNREACHED};

/// A stats-only trial takes the forward pass instead of the delta when a
/// killed necklace has a member at a fault-free level L with d^L at or
/// below this ratio. The delete pass's cone below such a member holds
/// about d^n / d^L nodes, and a delta costs about this many times more per
/// node than the forward pass (PERF.md, "Stats trials by delta").
const PASS_RATIO: u64 = 256;

/// A delta trial may pop d^n / `BUDGET_DIVISOR` queue entries; a delete
/// that needs more (a node cut off from B* climbs one level per pop
/// towards d^n) is undone and the trial takes the forward pass. A trial
/// whose killed members alone outnumber that budget takes the pass too.
const BUDGET_DIVISOR: usize = 64;

/// Per-trial fault-count schedule of a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Every trial draws the same number of faults — one Table 2.1/2.2 row.
    Constant(usize),
    /// Trial t draws `counts[t % counts.len()]` faults — the mixed-load
    /// schedule the engine benchmarks use (f cycling 0..=8).
    Cycling(Vec<usize>),
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
            FaultSchedule::Cycling(counts) => {
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
            FaultSchedule::Cycling(counts) => counts.iter().copied().max().unwrap_or(0),
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
    /// report [`Ffc::embed_stats_into`]'s stats, mostly by delta (module
    /// docs).
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

impl FaultDrawer {
    /// Total bytes currently reserved by the drawer's buffers.
    fn allocated_bytes(&self) -> usize {
        std::mem::size_of::<usize>() * (self.nodes.capacity() + self.faults.capacity())
            + 4 * self.swaps.capacity()
    }
}

/// The way a stats-only trial was answered (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Delta,
    FaultFree,
    PredictedPass,
    BudgetFallback,
    MovedRoot,
}

/// How the stats-only trials of a [`BatchEmbedder`] were answered, summed
/// over its shards since it was created. Trials of plans that request
/// cycles run [`Ffc::embed_into`] and count in none of these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepPaths {
    /// Answered by one delete pass over the fault-free levels and its
    /// undo.
    pub delta: u64,
    /// No fault: answered from the fault-free histogram alone.
    pub fault_free: u64,
    /// The forward pass, because a killed member's fault-free level L
    /// predicted a cone dearer than the pass (d^L ≤ 256), or the killed
    /// members alone outnumbered the pop budget.
    pub predicted_pass: u64,
    /// The delete ran past its pop budget (d^n / 64 pops): undone, then
    /// the forward pass.
    pub budget_fallback: u64,
    /// The faults killed the default root's necklace: the forward pass
    /// from the probed root, or no pass when every necklace is faulty.
    pub moved_root: u64,
}

impl SweepPaths {
    fn count(&mut self, path: Path) {
        *match path {
            Path::Delta => &mut self.delta,
            Path::FaultFree => &mut self.fault_free,
            Path::PredictedPass => &mut self.predicted_pass,
            Path::BudgetFallback => &mut self.budget_fallback,
            Path::MovedRoot => &mut self.moved_root,
        } += 1;
    }

    fn merge(&mut self, other: &Self) {
        self.delta += other.delta;
        self.fault_free += other.fault_free;
        self.predicted_pass += other.predicted_pass;
        self.budget_fallback += other.budget_fallback;
        self.moved_root += other.moved_root;
    }
}

/// One shard's state for stats-only trials by delta: the fault-free
/// forward levels from R = 0…01 and their histogram, the current trial's
/// killed members, and the delete pass's scratch.
#[derive(Clone, Debug, Default)]
struct DeltaTrials {
    /// (d, n) the levels were filled for; (0, 0) before the first fill.
    shape: (usize, u32),
    /// The fault-free forward level of every node, restored after every
    /// trial.
    levels: LevelVec,
    /// Nodes per fault-free level, levels 0..=n.
    hist: Vec<u32>,
    /// The copy of `hist` a delta trial takes its logged old levels off.
    counts: Vec<u32>,
    /// The members of the current trial's killed necklaces.
    killed: Vec<u32>,
    /// Queue pops a delete may take.
    budget: usize,
    /// Killed members a delta trial may delete (the budget as fitted).
    max_killed: usize,
    /// The highest fault-free level at which a killed member predicts the
    /// forward pass: d^`pass_level` ≤ `PASS_RATIO`.
    pass_level: u32,
    /// The delete pass's queues, bitmaps and change log.
    delta: DeltaScratch,
    /// Trials per path.
    paths: SweepPaths,
}

impl DeltaTrials {
    /// Fills the fault-free levels and histogram for `ffc`'s shape and
    /// sizes every buffer a trial uses, unless they hold that shape
    /// already.
    fn fit(&mut self, ffc: &Ffc) {
        let t = &ffc.tables;
        let n = ffc.graph().n();
        if self.shape == (t.d, n) {
            return;
        }
        self.shape = (t.d, n);
        fault_free_levels(t.d, n, &mut self.levels, &mut self.hist);
        grow_to(&mut self.counts, self.hist.len(), 0);
        self.budget = t.n_nodes / BUDGET_DIVISOR;
        self.max_killed = self.budget;
        self.pass_level = 0;
        while (t.d as u64).pow(self.pass_level + 1) <= PASS_RATIO {
            self.pass_level += 1;
        }
        reserve_more(&mut self.killed, self.budget);
        self.delta.fit(&t.reach, self.budget, self.budget);
        self.levels.reserve_escapes(self.budget, n);
    }

    /// One stats-only trial on a fitted shard: [`Ffc::embed_stats_into`]'s
    /// stats, from the path the module docs describe, with the shard's
    /// levels equal to the closed form again afterwards.
    fn trial(&mut self, ffc: &Ffc, scratch: &mut EmbedScratch, faults: &[usize]) -> EmbedStats {
        let (stats, path) = self.answer(ffc, scratch, faults);
        self.paths.count(path);
        stats
    }

    /// [`DeltaTrials::trial`], also returning the path it took.
    fn answer(
        &mut self,
        ffc: &Ffc,
        scratch: &mut EmbedScratch,
        faults: &[usize],
    ) -> (EmbedStats, Path) {
        let (levels, killed, max_killed) = (&self.levels, &mut self.killed, self.max_killed);
        killed.clear();
        // The least fault-free level of a killed member, and whether the
        // killed members outnumber what a delta trial may delete.
        let (mut low, mut over) = (u32::MAX, false);
        let mut stats = ffc.phases_to_root(scratch, faults, |members| {
            over |= killed.len() + members.len() > max_killed;
            if !over {
                killed.extend_from_slice(members);
                low = (members.iter()).fold(low, |l, &v| l.min(levels.get(v as usize)));
            }
        });
        if stats.root == INFEASIBLE_ROOT {
            return (stats, Path::MovedRoot);
        }
        let path = if stats.root != ffc.default_root() {
            Path::MovedRoot
        } else if over || low <= self.pass_level {
            Path::PredictedPass
        } else if let Some(found) = self.delete_and_undo(ffc, &scratch.bits) {
            (stats.component_size, stats.eccentricity) = found;
            let path = if self.killed.is_empty() {
                Path::FaultFree
            } else {
                Path::Delta
            };
            return (stats, path);
        } else {
            Path::BudgetFallback
        };
        let (reached, depth) = ffc.tables.reach.forward(&mut scratch.bits, stats.root);
        (stats.component_size, stats.eccentricity) = (reached, depth);
        (stats, path)
    }

    /// Deletes the killed members from the fault-free levels with one
    /// delete pass, reads |B*| and the eccentricity off its change log
    /// against the histogram, and writes the logged levels back. `None`
    /// when the pass ran past the budget; the levels are restored either
    /// way.
    fn delete_and_undo(&mut self, ffc: &Ffc, bits: &BitScratch) -> Option<(usize, usize)> {
        let reach = ffc.tables.reach;
        let live = |u: usize| !reach.is_dead(bits, u);
        self.delta.open(self.budget);
        let done = reach.levels_delete(&mut self.levels, &mut self.delta, &self.killed, live);
        let found = done.is_ok().then(|| {
            let counts = &mut self.counts[..self.hist.len()];
            counts.copy_from_slice(&self.hist);
            let (mut left, mut top) = (0usize, 0u32);
            for (u, old) in self.delta.changed() {
                counts[old as usize] -= 1;
                match self.levels.get(u as usize) {
                    UNREACHED => left += 1,
                    l => top = top.max(l),
                }
            }
            let top = top.max(top_level(counts));
            (ffc.tables.n_nodes - left, top as usize)
        });
        self.delta.undo(&mut self.levels);
        found
    }

    /// Total bytes currently reserved by the buffers.
    fn allocated_bytes(&self) -> usize {
        self.levels.allocated_bytes()
            + 4 * (self.hist.capacity() + self.counts.capacity() + self.killed.capacity())
            + self.delta.allocated_bytes()
    }
}

/// The highest level a histogram counts a node on.
fn top_level(counts: &[u32]) -> u32 {
    counts.iter().rposition(|&c| c > 0).unwrap_or(0) as u32
}

/// Fills `levels[..d^n]` with the forward levels from R = 0…01 in the
/// fault-free B(d,n), and `hist` with the nodes on each level 0..=n. The
/// nodes k steps from R are 0^(n−1−k) 1 w for every k-digit w, the ids
/// [d^k, 2·d^k), for k < n; every other node is n steps away.
fn fault_free_levels(d: usize, n: u32, levels: &mut LevelVec, hist: &mut Vec<u32>) {
    let n_nodes = d.pow(n);
    levels.grow(n_nodes);
    levels.fill_range(0..n_nodes, n);
    hist.clear();
    let mut first = 1usize;
    for k in 0..n {
        levels.fill_range(first..2 * first, k);
        hist.push(first as u32);
        first *= d;
    }
    let below: u32 = hist.iter().sum();
    hist.push(n_nodes as u32 - below);
}

/// One shard's private state: an embedding scratch, a fault drawer and the
/// stats-only trials' delta state.
#[derive(Clone, Debug, Default)]
struct Shard {
    scratch: EmbedScratch,
    drawer: FaultDrawer,
    delta: DeltaTrials,
}

/// Sharded per-sweep state: N independent [`EmbedScratch`]es, fault
/// drawers and stats-only delta states (module docs). One embedder serves
/// any number of [`Ffc::embed_batch`] calls (including across plans and
/// graph sizes — buffers only ever grow), so a sweep over many (d, n, f)
/// rows warms up exactly once.
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

    /// The stats-only trials run so far, by the path each took.
    #[must_use]
    pub fn paths(&self) -> SweepPaths {
        let mut sum = SweepPaths::default();
        for shard in &self.shards {
            sum.merge(&shard.delta.paths);
        }
        sum
    }

    /// Total bytes currently reserved by every shard's buffers: the
    /// embedding scratch, the fault drawer and the delta state. Constant
    /// across repeated plans at a fixed graph size.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.scratch.allocated_bytes() + s.drawer.allocated_bytes() + s.delta.allocated_bytes()
            })
            .sum()
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
        let n_nodes = self.graph().len();
        let Shard {
            scratch,
            drawer,
            delta,
        } = shard;
        if !plan.cycles_requested() && !range.is_empty() {
            delta.fit(self);
        }
        for trial in range {
            let f = plan.schedule().faults_for(trial);
            let faults = drawer.draw(n_nodes, plan.trial_seed(trial), f);
            let (stats, cycle) = if plan.cycles_requested() {
                (self.embed_into(scratch, faults), Some(scratch.cycle()))
            } else {
                (delta.trial(self, scratch, faults), None)
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

    /// The closed form equals the forward pass from R = 0…01 over the
    /// fault-free graph, levels and histogram both.
    #[test]
    fn closed_form_levels_match_the_forward_pass() {
        let mut s = crate::bitreach::BitScratch::new();
        let (mut want, mut got) = (LevelVec::new(), LevelVec::new());
        let (mut counts, mut hist) = (Vec::new(), Vec::new());
        for (d, n) in [
            (2usize, 10u32),
            (3, 6),
            (4, 5),
            (5, 4),
            (8, 4),
            (16, 3),
            (2, 18),
        ] {
            let n_nodes = d.pow(n);
            let reach = crate::bitreach::BitReach::new(d, n_nodes);
            reach.prepare(&mut s);
            let mut bits = vec![0u64; n_nodes.div_ceil(64)];
            let (reached, depth) =
                reach.forward_levels_reached(&mut s, 1, &mut want, &mut counts, &mut bits);
            assert_eq!((reached, depth), (n_nodes, n as usize), "B({d},{n})");
            fault_free_levels(d, n, &mut got, &mut hist);
            assert_eq!(hist, counts, "histogram of B({d},{n})");
            let differ = (0..n_nodes).find(|&v| got.get(v) != want.get(v));
            assert_eq!(differ, None, "first differing node of B({d},{n})");
        }
    }

    /// The node whose base-d digits are `digits`, most significant first.
    fn node(d: usize, digits: &[usize]) -> usize {
        digits.iter().fold(0, |v, &a| v * d + a)
    }

    /// Fault sets that force each path (the expected one, when a shape
    /// decides it alone), under the fitted settings of B(`d`,`n`):
    /// no fault; every node; the root's necklace twice over; a necklace
    /// two levels from R; 0^n (at d = 2 the only node on level n, so the
    /// eccentricity falls) and (d−1)^n; duplicate faults on one necklace;
    /// the necklace of 01…1, which cuts 1…1 off at d = 2; and the two
    /// necklaces that cut the pair 0101…/1010… off at d = 2, n even.
    fn forcing_sets(d: usize, n: u32) -> Vec<(Vec<usize>, Option<Path>)> {
        let n_nodes = d.pow(n);
        let n = n as usize;
        let two_levels = d * d + 1;
        let ones: Vec<usize> = std::iter::once(0).chain(vec![1; n - 1]).collect();
        // The pair's predecessors outside it: a, then n − 1 digits
        // alternating from a (0·0101… and 1·1010…).
        let entry = |a: usize| -> Vec<usize> {
            let tail = (0..n - 1).map(|i| (a + i) % 2);
            std::iter::once(a).chain(tail).collect()
        };
        let climbs = (d == 2 && n >= 11).then_some(Path::BudgetFallback);
        vec![
            (vec![], Some(Path::FaultFree)),
            ((0..n_nodes).collect(), Some(Path::MovedRoot)),
            (vec![1, d], Some(Path::MovedRoot)),
            (vec![two_levels], Some(Path::PredictedPass)),
            (
                vec![two_levels, two_levels * d % n_nodes],
                Some(Path::PredictedPass),
            ),
            (vec![0], Some(Path::Delta)),
            (vec![0, 0], Some(Path::Delta)),
            (vec![n_nodes - 1, n_nodes - 1], Some(Path::Delta)),
            (vec![node(d, &ones)], climbs),
            (vec![node(d, &entry(0)), node(d, &entry(1))], None),
        ]
    }

    /// One shape's delta trials against the forward pass: every trial's
    /// stats equal [`Ffc::embed_stats_into`]'s and the u8 oracle's, and the
    /// shard's level array is the closed form again after it. Runs the
    /// forcing sets under the fitted settings, then with the predicted pass
    /// off and no limit on pops or killed members (the delta path on every
    /// set with a fault and a live root, climbs included), then with
    /// budgets of 1–3 pops (the abort and its undo), then seeded random
    /// sets with f cycling 0..=8. Returns the paths taken.
    fn delta_trials_on(d: usize, n: u32) -> SweepPaths {
        let ffc = Ffc::new(d as u64, n);
        let n_nodes = ffc.graph().len();
        let (mut want_levels, mut want_hist) = (LevelVec::new(), Vec::new());
        fault_free_levels(d, n, &mut want_levels, &mut want_hist);
        let mut dt = DeltaTrials::default();
        dt.fit(&ffc);
        let fitted = (dt.budget, dt.max_killed, dt.pass_level);
        let (mut scratch, mut reference) = (EmbedScratch::new(), EmbedScratch::new());
        let mut u8s = crate::oracle::U8StatsScratch::default();
        let mut check = |dt: &mut DeltaTrials, faults: &[usize], expect: Option<Path>| {
            let tag = format!("B({d},{n}) faults {faults:?}");
            let (got, path) = dt.answer(&ffc, &mut scratch, faults);
            dt.paths.count(path);
            if let Some(expect) = expect {
                assert_eq!(path, expect, "path of {tag}");
            }
            let want = ffc.embed_stats_into(&mut reference, faults);
            assert_eq!(got, want, "stats of {tag} by {path:?}");
            let oracle = crate::oracle::embed_stats_into_u8(&ffc, &mut u8s, faults);
            assert_eq!(got, oracle, "u8 oracle on {tag}");
            let differ = (0..n_nodes).find(|&v| dt.levels.get(v) != want_levels.get(v));
            assert_eq!(differ, None, "levels not restored after {tag} by {path:?}");
            assert_eq!(dt.levels.overflow_len(), 0, "escapes left by {tag}");
            assert_eq!(dt.hist, want_hist, "histogram changed by {tag}");
        };
        let sets = forcing_sets(d, n);
        for (faults, expect) in &sets {
            check(&mut dt, faults, *expect);
        }
        (dt.budget, dt.max_killed, dt.pass_level) = (usize::MAX, usize::MAX, 0);
        let root = ffc.default_root();
        for (faults, _) in &sets {
            let expect = if faults.is_empty() {
                Path::FaultFree
            } else if faults.iter().any(|&v| ffc.representative_of(v) == root) {
                Path::MovedRoot
            } else {
                Path::Delta
            };
            check(&mut dt, faults, Some(expect));
        }
        for budget in 1..=3 {
            dt.budget = budget;
            check(&mut dt, &sets[3].0, Some(Path::BudgetFallback));
        }
        (dt.budget, dt.max_killed, dt.pass_level) = fitted;
        let mut drawer = FaultDrawer::new();
        for t in 0..120u64 {
            let faults = drawer.draw(n_nodes, 0x5eed ^ t, (t % 9) as usize).to_vec();
            check(&mut dt, &faults, None);
        }
        dt.paths
    }

    /// The delta trials on every path, B(2,10)–B(2,16), B(3,7), B(4,5)
    /// and B(8,4): each shape takes each path at least once.
    #[test]
    fn delta_trials_match_the_forward_pass_on_every_path() {
        let shapes = (10..=16)
            .map(|n| (2usize, n))
            .chain([(3, 7), (4, 5), (8, 4)]);
        for (d, n) in shapes {
            let p = delta_trials_on(d, n);
            let all = [
                p.delta,
                p.fault_free,
                p.predicted_pass,
                p.budget_fallback,
                p.moved_root,
            ];
            assert!(
                all.iter().all(|&c| c > 0),
                "B({d},{n}) missed a path: {p:?}"
            );
        }
    }

    /// An embedder's footprint is set by its first plan: later plans of
    /// either kind, at the same graph, reserve nothing more, and the path
    /// counts add up to the stats-only trials.
    #[test]
    fn batch_footprint_is_constant_across_plans() {
        let ffc = Ffc::new(2, 12);
        let schedule = FaultSchedule::Cycling((0..=8).collect());
        let mut batch = BatchEmbedder::new(2);
        let sum = |acc: &mut Vec<usize>, trial: Trial<'_>| acc.push(trial.stats.component_size);
        let warm = SweepPlan::new(schedule.clone(), 36, 1);
        let _: Vec<usize> = ffc.embed_batch(&mut batch, &warm, sum);
        let _: Vec<usize> = ffc.embed_batch(&mut batch, &warm.clone().collect_cycles(true), sum);
        let footprint = batch.allocated_bytes();
        for seed in 2..12u64 {
            let plan = SweepPlan::new(schedule.clone(), 72, seed);
            let _: Vec<usize> = ffc.embed_batch(&mut batch, &plan, sum);
            let _: Vec<usize> = ffc.embed_batch(&mut batch, &plan.collect_cycles(true), sum);
            assert_eq!(batch.allocated_bytes(), footprint, "plan seed {seed}");
        }
        let p = batch.paths();
        let total = p.delta + p.fault_free + p.predicted_pass + p.budget_fallback + p.moved_root;
        assert_eq!(total, 36 + 10 * 72);
        assert_eq!(p.fault_free, 4 + 10 * 8);
        assert!(p.delta > 0 && p.predicted_pass > 0, "{p:?}");
    }
}
