//! The fault-free cycle (FFC) algorithm for node failures (Chapter 2).
//!
//! Given a set of faulty processors in B(d,n), the algorithm
//!
//! 1. declares every necklace containing a faulty node *faulty* and removes
//!    it, keeping the component B* of what remains that contains the root;
//! 2. builds a spanning tree T of the necklace adjacency graph N* from the
//!    propagation pattern of a broadcast out of the root R (each w-labeled
//!    subtree T_w has height one because nodes wα and wβ share their
//!    earliest predecessor);
//! 3. turns every T_w into a directed cycle of w-edges (the modified tree
//!    D) and reads off a successor function: node αw leaves its necklace
//!    through the w-edge of D if its necklace has one, and otherwise
//!    follows its own necklace.
//!
//! The resulting successor function traces a Hamiltonian cycle of B*
//! (Proposition 2.1). When f ≤ d−2 processors fail the cycle has length at
//! least d^n − n·f and the broadcast finishes within 2n rounds
//! (Proposition 2.2); a single failure in the binary graph still leaves a
//! cycle of length ≥ 2^n − (n+1) (Proposition 2.3).
//!
//! # The embedding engine
//!
//! The paper's headline experiments (Tables 2.1/2.2) re-run this embedding
//! thousands of times per (d, n, f) cell, so the hot path is organised as
//! an *engine*: [`Ffc::new`] precomputes immutable flat tables once (node →
//! necklace id, necklace representatives/lengths, and a CSR layout of
//! necklace members), and a reusable [`EmbedScratch`] owns every piece of
//! per-call mutable state — stamped visit masks, BFS queues, the successor
//! array, and the output cycle buffer. After the first call at a given
//! (d, n) ("warm-up"), [`Ffc::embed_into`] performs **no heap allocation**:
//! buffers are stamp-invalidated, not cleared, and only ever grow.
//!
//! Per call the engine does:
//!
//! * **Component**: instead of a whole-graph Tarjan SCC pass, a
//!   forward-BFS and a backward-BFS from the root over the implicit
//!   successor/predecessor arithmetic of B(d,n), restricted to live nodes;
//!   the intersection of the two reachable sets is exactly the strongly
//!   connected component B* of the root.
//! * **Broadcast**: a level-synchronous BFS with minimal-predecessor tie
//!   breaking over B* only.
//! * **Cycle construction**: the w-group tables are flat arrays keyed by
//!   necklace id / edge label (no hash maps); successor overrides are
//!   written only at the w-exit nodes, flagged in a word-packed exit
//!   bitmap, and the cycle is read off by a streaming walk that computes
//!   every other step as a necklace rotation.
//!
//! The textbook formulation (materialised SCCs + hash-map groups) is kept
//! as [`Ffc::embed_reference`]; it is used by the differential tests and
//! as the baseline in the Criterion benchmarks.
//!
//! This module is the *centralized* reference implementation; the
//! message-passing version that mirrors Section 2.4 round by round lives in
//! the `dbg-netsim` crate and is checked against this one.

use dbg_graph::DeBruijn;
use dbg_necklace::NecklacePartition;

use crate::bitreach::{BitReach, BitScratch, SpaceTooLarge};

mod phases;
mod reference;
pub mod session;
pub mod snapshot;

#[cfg(test)]
mod tests;

pub use session::{
    EmbedSession, FaultEvent, RepairError, RepairOutcome, RepairStats, RingMaintainer,
};
pub use snapshot::{LookupError, RingSnapshot, SnapshotPublisher};

/// The FFC embedder for a fixed B(d,n): owns the necklace partition and the
/// engine's immutable lookup tables so that repeated embeddings (e.g. the
/// Monte-Carlo sweeps of Tables 2.1/2.2) recompute nothing.
#[derive(Clone, Debug)]
pub struct Ffc {
    graph: DeBruijn,
    partition: NecklacePartition,
    tables: EngineTables,
}

/// Immutable engine constants shared by every embedding at a fixed (d, n).
/// The per-necklace tables (representatives, lengths, member CSR) live on
/// the [`NecklacePartition`], which builds them in its single
/// FKM-enumeration pass — the engine no longer duplicates them.
#[derive(Clone, Debug)]
struct EngineTables {
    /// Alphabet size d, as usize for index arithmetic.
    d: usize,
    /// d^(n−1): the place value of the leading digit, and the number of
    /// distinct (n−1)-digit edge labels.
    suffix_count: usize,
    /// d^n.
    n_nodes: usize,
    /// Number of necklaces.
    n_necks: usize,
    /// The bit-parallel reachability engine for this shape.
    reach: BitReach,
}

/// The result of one FFC embedding.
#[derive(Clone, Debug)]
pub struct FfcOutcome {
    /// The root processor R used for the broadcast (always the minimal node
    /// of its necklace).
    pub root: usize,
    /// The fault-free cycle, as a sequence of node ids. Its length equals
    /// the size of B*. A single-node "cycle" is only meaningful when that
    /// node carries a self-loop (the constant words).
    pub cycle: Vec<usize>,
    /// |B*|: the number of nodes in the surviving component of the root.
    pub component_size: usize,
    /// The eccentricity of the root within B* — the number of broadcast
    /// rounds Step 1.1 needs (the K of the O(K + n) bound).
    pub eccentricity: usize,
    /// Number of faulty necklaces removed.
    pub faulty_necklaces: usize,
    /// Total number of nodes removed with the faulty necklaces (N_F ≤ n·f).
    pub removed_nodes: usize,
}

impl FfcOutcome {
    /// The paper's guaranteed minimum cycle length d^n − n·f for `f` faults
    /// (meaningful when f ≤ d−2).
    #[must_use]
    pub fn guarantee(d: u64, n: u32, faults: usize) -> usize {
        let total = dbg_algebra::num::pow(d, n) as usize;
        total.saturating_sub(n as usize * faults)
    }
}

/// The scalar results of one [`Ffc::embed_into`] call; the cycle itself
/// stays in the scratch's buffer ([`EmbedScratch::cycle`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmbedStats {
    /// The root processor R used for the broadcast.
    pub root: usize,
    /// |B*| — also the length of the cycle left in the scratch.
    pub component_size: usize,
    /// Eccentricity of the root within B* (broadcast rounds).
    pub eccentricity: usize,
    /// Number of faulty necklaces removed.
    pub faulty_necklaces: usize,
    /// Nodes removed with the faulty necklaces.
    pub removed_nodes: usize,
}

const NONE: u32 = u32::MAX;

/// Reusable per-call state for the embedding engine.
///
/// One scratch serves any number of [`Ffc::embed_into`] calls (including
/// across different (d, n) — buffers grow to the largest graph seen and
/// never shrink). Invalidation is by stamping: each call increments a
/// call counter and a slot is "set this call" iff it holds the current
/// stamp, so no O(d^n) clearing happens between calls. After the first
/// call at a fixed (d, n), **no method of this type allocates**.
#[derive(Clone, Debug, Default)]
pub struct EmbedScratch {
    /// Monotone per-call stamp; slot arrays compare against this.
    stamp: u32,
    /// Stamp for the stats-only reachability arrays below. One byte per
    /// slot quarters the hot working set of `embed_stats_into` (the sweep
    /// engine's fast path); it wraps every 255 calls, at which point the
    /// arrays are cleared once (amortised O(1/255) per call).
    stamp8: u8,
    // Per-necklace state.
    /// Stamp: necklace is faulty this call.
    faulty: Vec<u32>,
    // Per-node state.
    /// Stamp: reached by the root-repair probe.
    probe: Vec<u32>,
    /// Byte-stamp: forward-reachable, u8-stamp oracle path.
    fwd8: Vec<u8>,
    /// Byte-stamp: backward-reachable, u8-stamp oracle path.
    bwd8: Vec<u8>,
    /// Byte-stamp: broadcast-reached, u8-stamp oracle path.
    vis8: Vec<u8>,
    /// Word-packed bitmaps and frontiers of the bit-parallel reachability
    /// engine (fault mask, forward/backward/broadcast visited sets).
    bits: BitScratch,
    /// Packed (stamp << 32 | broadcast level) per node — one combined
    /// visited/level slot, so necklace selection's parent lookup costs a
    /// single random read. Unlike the session's compact level arrays
    /// this slot stays 64-bit: the stamp occupies the full upper half,
    /// and narrowing would force a per-call clear, trading the saved
    /// bandwidth back for a full-array sweep.
    plvl: Vec<u64>,
    /// Per-necklace best (level << 32 | node) over B* (`u64::MAX` =
    /// necklace not in B* this call; cleared per call).
    pbest: Vec<u64>,
    /// Bit `v` set ⟺ node `v` leaves its necklace through a w-edge. The
    /// streaming cycle readoff tests this bitmap (L2-resident even at
    /// B(2,20)) and computes the necklace rotation arithmetically, instead
    /// of loading a fully materialised successor array from DRAM on every
    /// step.
    exit_bits: Vec<u64>,
    /// Successor overrides: written (and later read) only at the w-exit
    /// nodes flagged in `exit_bits`; every other node follows its
    /// necklace rotation arithmetically.
    succ: Vec<u32>,
    // Per-label state (indexed by (n−1)-digit edge label).
    /// Stamp: label has a w-group this call.
    label_stamp: Vec<u32>,
    /// Parent necklace of the label's w-group.
    label_parent: Vec<u32>,
    // Worklists (cleared per call; capacity persists).
    /// Current BFS frontier / FIFO queue.
    queue: Vec<u32>,
    /// Next BFS frontier.
    next: Vec<u32>,
    /// The nodes of B*, as emitted level by level from the broadcast.
    bstar: Vec<u32>,
    /// CSR boundaries of the broadcast levels within `bstar`.
    level_offsets: Vec<u32>,
    /// Packed (label << 32 | necklace id) w-group membership records.
    group_entries: Vec<u64>,
    /// Member necklaces of the w-group being wired.
    members: Vec<u32>,
    /// The output cycle of the most recent call.
    cycle: Vec<usize>,
}

impl EmbedScratch {
    /// Creates an empty scratch; buffers are sized lazily by the first
    /// embedding that uses it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The fault-free cycle produced by the most recent
    /// [`Ffc::embed_into`] call on this scratch.
    #[must_use]
    pub fn cycle(&self) -> &[usize] {
        &self.cycle
    }

    /// Total bytes currently reserved by the scratch's buffers. Constant
    /// across repeated embeddings at a fixed (d, n) — the no-allocation
    /// property the engine tests pin down.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        4 * (self.faulty.capacity()
            + self.probe.capacity()
            + self.succ.capacity()
            + self.label_stamp.capacity()
            + self.label_parent.capacity()
            + self.queue.capacity()
            + self.next.capacity()
            + self.bstar.capacity()
            + self.level_offsets.capacity()
            + self.members.capacity())
            + (self.fwd8.capacity() + self.bwd8.capacity() + self.vis8.capacity())
            + self.bits.allocated_bytes()
            + 8 * (self.plvl.capacity() + self.pbest.capacity() + self.exit_bits.capacity())
            + 8 * self.group_entries.capacity()
            + std::mem::size_of::<usize>() * self.cycle.capacity()
    }

    /// Grows the slot arrays to the engine's sizes and advances the stamp.
    fn prepare(&mut self, t: &EngineTables) {
        if self.stamp == u32::MAX {
            // Stamp wrap-around (once per 2^32 calls): forget all slots.
            for arr in [&mut self.faulty, &mut self.probe, &mut self.label_stamp] {
                arr.iter_mut().for_each(|s| *s = 0);
            }
            // The packed (stamp | level) slots carry the stamp in their
            // high half; zero is never a current stamp.
            self.plvl.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        grow(&mut self.faulty, t.n_necks);
        grow(&mut self.probe, t.n_nodes);
        grow(&mut self.succ, t.n_nodes);
        grow(&mut self.label_stamp, t.suffix_count);
        grow(&mut self.label_parent, t.suffix_count);
        // Worklists are cleared and presized to their worst-case bounds, so
        // no fault pattern can grow them after the first call at this size:
        // frontiers and the cycle hold at most every node, the necklace
        // lists at most every necklace, each live necklace contributes
        // at most two group records (itself plus a first-seen parent), and
        // the broadcast can have at most one level per node (plus the two
        // CSR sentinels).
        reserve(&mut self.queue, t.n_nodes);
        reserve(&mut self.next, t.n_nodes);
        reserve(&mut self.bstar, t.n_nodes);
        reserve(&mut self.level_offsets, t.n_nodes + 2);
        reserve(&mut self.group_entries, 2 * t.n_necks);
        reserve(&mut self.members, t.n_necks);
        reserve(&mut self.cycle, t.n_nodes);
    }

    /// Grows the full-ring pipeline's slot arrays and clears the ones
    /// that are not stamped: the packed level slots are stamp-invalidated
    /// like the rest of the scratch, while the per-necklace best keys and
    /// the exit bitmap are cleared per call — both are O(d^n / n) or
    /// smaller, a vanishing fraction of the embedding itself. Kept out of
    /// [`EmbedScratch::prepare`] so the stats-only paths never pay it.
    fn clear_ring_slots(&mut self, t: &EngineTables) {
        grow(&mut self.plvl, t.n_nodes);
        grow(&mut self.pbest, t.n_necks);
        self.pbest[..t.n_necks].fill(u64::MAX);
        let words = t.n_nodes.div_ceil(64);
        grow(&mut self.exit_bits, words);
        self.exit_bits[..words].fill(0);
    }

    /// Grows and (on wrap-around) clears the byte-stamped reachability
    /// arrays of the stats-only path, and advances their stamp.
    fn prepare_stats(&mut self, t: &EngineTables) {
        grow(&mut self.fwd8, t.n_nodes);
        grow(&mut self.bwd8, t.n_nodes);
        grow(&mut self.vis8, t.n_nodes);
        self.stamp8 = self.stamp8.wrapping_add(1);
        if self.stamp8 == 0 {
            for arr in [&mut self.fwd8, &mut self.bwd8, &mut self.vis8] {
                arr.iter_mut().for_each(|b| *b = 0);
            }
            self.stamp8 = 1;
        }
    }
}

/// Grows a slot vector to at least `len` entries without ever shrinking.
fn grow<T: Default + Clone>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// Empties a worklist and guarantees room for `cap` entries (shared with
/// the bit-parallel scratch's frontier queues).
pub(crate) fn reserve<T>(v: &mut Vec<T>, cap: usize) {
    v.clear();
    if v.capacity() < cap {
        v.reserve_exact(cap - v.len());
    }
}

impl Ffc {
    /// Creates the embedder for B(d,n): one FKM necklace-enumeration pass
    /// builds the partition (membership table + member CSR) that the
    /// engine reads directly.
    ///
    /// # Panics
    /// Panics if d^n overflows the engine's u32 node indexing
    /// ([`Ffc::try_new`] is the non-panicking variant).
    #[must_use]
    pub fn new(d: u64, n: u32) -> Self {
        match Self::try_new(d, n) {
            Ok(ffc) => ffc,
            Err(e) => panic!("engine tables index nodes with u32; B({d},{n}) is too large: {e}"),
        }
    }

    /// [`Ffc::new`], rejecting spaces whose node ids overflow the
    /// engine's u32 indexing with a typed error instead of panicking —
    /// and without allocating any table for the oversized graph.
    ///
    /// # Errors
    /// Returns [`SpaceTooLarge`] when d^n exceeds [`u32::MAX`] (or
    /// overflows u64 entirely).
    pub fn try_new(d: u64, n: u32) -> Result<Self, SpaceTooLarge> {
        let n_nodes = dbg_algebra::num::checked_pow(d, n).ok_or(SpaceTooLarge { n_nodes: None })?;
        if u32::try_from(n_nodes).is_err() {
            return Err(SpaceTooLarge {
                n_nodes: Some(n_nodes),
            });
        }
        Ok(Self::build(d, n))
    }

    /// Constructs the embedder once the node count has been validated.
    fn build(d: u64, n: u32) -> Self {
        let graph = DeBruijn::new(d, n);
        let n_nodes = graph.len();
        let partition = NecklacePartition::new(graph.space());
        let tables = EngineTables {
            d: graph.d() as usize,
            suffix_count: graph.space().msd_place() as usize,
            n_nodes,
            n_necks: partition.len(),
            reach: BitReach::new(graph.d() as usize, n_nodes),
        };
        Ffc {
            graph,
            partition,
            tables,
        }
    }

    /// The underlying de Bruijn graph.
    #[must_use]
    pub fn graph(&self) -> &DeBruijn {
        &self.graph
    }

    /// The necklace partition of the node set.
    #[must_use]
    pub fn partition(&self) -> &NecklacePartition {
        &self.partition
    }

    /// The representative (minimal member) of `v`'s necklace — a flat table
    /// lookup, unlike the O(n) `WordSpace::canonical_rotation`.
    #[must_use]
    pub fn representative_of(&self, v: usize) -> usize {
        self.partition
            .necklace(self.partition.membership()[v] as usize)
            .representative() as usize
    }

    /// The members of necklace `id` in rotation order starting at its
    /// representative (a slice of the partition's precomputed CSR layout).
    #[must_use]
    pub fn necklace_members(&self, id: usize) -> &[u32] {
        self.partition.members(id)
    }

    /// The default root R = 0…01 used by the paper's simulations.
    #[must_use]
    pub fn default_root(&self) -> usize {
        1
    }

    /// Embeds a fault-free cycle avoiding `faulty_nodes`, rooted at the
    /// default root R = 0…01 (if R's necklace is faulty, the nearest
    /// non-faulty node found by a breadth-first probe is used instead,
    /// matching the protocol of Section 2.5.2).
    ///
    /// Allocates a fresh [`EmbedScratch`] per call; steady-state callers
    /// (sweeps, services) should hold a scratch and use
    /// [`Ffc::embed_into`].
    #[must_use]
    pub fn embed(&self, faulty_nodes: &[usize]) -> FfcOutcome {
        let mut scratch = EmbedScratch::new();
        let stats = self.embed_into(&mut scratch, faulty_nodes);
        outcome_from(stats, std::mem::take(&mut scratch.cycle))
    }

    /// Embeds a fault-free cycle avoiding `faulty_nodes`, rooted at (the
    /// necklace representative of) `root`.
    ///
    /// # Panics
    /// Panics if `root`'s necklace is itself faulty.
    #[must_use]
    pub fn embed_from(&self, faulty_nodes: &[usize], root: usize) -> FfcOutcome {
        let mut scratch = EmbedScratch::new();
        let stats = self.embed_into_from(&mut scratch, faulty_nodes, root);
        outcome_from(stats, std::mem::take(&mut scratch.cycle))
    }

    /// Embeds a fault-free cycle avoiding `faulty_nodes` using `scratch`
    /// for all mutable state; the cycle is left in [`EmbedScratch::cycle`].
    /// Root selection follows [`Ffc::embed`]. After the scratch has warmed
    /// up at this (d, n), the call performs no heap allocation.
    pub fn embed_into(&self, scratch: &mut EmbedScratch, faulty_nodes: &[usize]) -> EmbedStats {
        self.engine_embed(scratch, faulty_nodes, None)
    }

    /// [`Ffc::embed_into`] with an explicit root, like [`Ffc::embed_from`].
    ///
    /// # Panics
    /// Panics if `root`'s necklace is itself faulty.
    pub fn embed_into_from(
        &self,
        scratch: &mut EmbedScratch,
        faulty_nodes: &[usize],
        root: usize,
    ) -> EmbedStats {
        self.engine_embed(scratch, faulty_nodes, Some(root))
    }

    /// The scalar half of an embedding, without materialising the cycle:
    /// identical [`EmbedStats`] to [`Ffc::embed_into`] on the same faults
    /// (same root-repair policy, same component, same eccentricity), but
    /// the spanning-tree, successor-function and cycle-readoff phases are
    /// skipped entirely and [`EmbedScratch::cycle`] is left empty.
    ///
    /// This is the hot path of Monte-Carlo sweeps that only tabulate
    /// component sizes and eccentricities (Tables 2.1/2.2):
    /// [`Ffc::embed_batch`] uses it whenever the plan does not request
    /// cycles. The reachability passes run on the bit-parallel engine
    /// ([`crate::bitreach`]): direction-optimizing BFS whose dense regime
    /// advances 64 nodes per word op, with faulty necklaces masked out as
    /// word-packed pre-visited bits. Like `embed_into`, it performs no
    /// heap allocation after the scratch has warmed up at this (d, n).
    pub fn embed_stats_into(
        &self,
        scratch: &mut EmbedScratch,
        faulty_nodes: &[usize],
    ) -> EmbedStats {
        let t = &self.tables;
        let reach = t.reach;
        let s = scratch;
        s.prepare(t);
        reach.prepare(&mut s.bits);

        let (faulty_necklaces, removed_nodes) = self.mark_faults_bits(s, faulty_nodes);
        let (root, _) = self.phase_select_root(s, None);

        // Forward pass first: when B* turns out to equal the forward set
        // (the common light-fault case) its depth *is* the broadcast
        // eccentricity and the third pass is skipped entirely.
        let (fwd_count, fwd_depth) = reach.forward(&mut s.bits, root);
        reach.backward(&mut s.bits, root);
        let component_size = reach.component_size(&s.bits, removed_nodes);
        let eccentricity = if component_size == fwd_count {
            fwd_depth
        } else {
            reach.broadcast_depth(&mut s.bits, root)
        };

        EmbedStats {
            root,
            component_size,
            eccentricity,
            faulty_necklaces,
            removed_nodes,
        }
    }

    /// The u8-stamp stats path of PR 2, retained verbatim as the
    /// differential oracle for the bit-parallel engine and as the baseline
    /// the `bench_ffc` large-graph tiers compare against. Semantically
    /// identical to [`Ffc::embed_stats_into`].
    pub fn embed_stats_into_u8(
        &self,
        scratch: &mut EmbedScratch,
        faulty_nodes: &[usize],
    ) -> EmbedStats {
        let t = &self.tables;
        let membership = self.partition.membership();
        let d = t.d;
        let s = scratch;
        s.prepare(t);
        s.prepare_stats(t);
        let stamp = s.stamp;
        let stamp8 = s.stamp8;

        // Fault marking and root repair: byte-for-byte the policy of
        // `engine_embed` with `forced_root = None`. Every node of a faulty
        // necklace is additionally pre-stamped as "already visited" in the
        // byte-stamped fwd8/bwd8/vis8 arrays (O(n·f) stores via the
        // necklace CSR): the BFS loops below then never enqueue a dead
        // node, and their liveness check collapses into the visited check —
        // a single one-byte load per edge instead of the membership →
        // faulty indirection.
        let mut faulty_necklaces = 0usize;
        let mut removed_nodes = 0usize;
        for &v in faulty_nodes {
            assert!(v < t.n_nodes, "faulty node id {v} out of range");
            let nid = membership[v] as usize;
            if s.faulty[nid] != stamp {
                s.faulty[nid] = stamp;
                faulty_necklaces += 1;
                removed_nodes += self.partition.necklace(nid).len();
                for &member in self.partition.members(nid) {
                    s.fwd8[member as usize] = stamp8;
                    s.bwd8[member as usize] = stamp8;
                    s.vis8[member as usize] = stamp8;
                }
            }
        }
        let (root, _) = self.phase_select_root(s, None);

        // The reachability passes are monomorphised on whether d is a power
        // of two: the per-edge `% suffix` / `/ d` then compile to masks and
        // shifts instead of hardware divisions, which dominate the
        // otherwise load-light loops of the binary graphs.
        let (component_size, eccentricity) = if d.is_power_of_two() {
            self.stats_reach::<true>(s, root, stamp8)
        } else {
            self.stats_reach::<false>(s, root, stamp8)
        };

        EmbedStats {
            root,
            component_size,
            eccentricity,
            faulty_necklaces,
            removed_nodes,
        }
    }

    /// Shared fault marking of the bit-parallel paths: stamps each faulty
    /// necklace once and kills its members in the word-packed fault mask.
    /// Returns `(faulty_necklaces, removed_nodes)`.
    fn mark_faults_bits(&self, s: &mut EmbedScratch, faulty_nodes: &[usize]) -> (usize, usize) {
        let t = &self.tables;
        let membership = self.partition.membership();
        let stamp = s.stamp;
        let mut faulty_necklaces = 0usize;
        let mut removed_nodes = 0usize;
        for &v in faulty_nodes {
            assert!(v < t.n_nodes, "faulty node id {v} out of range");
            let nid = membership[v] as usize;
            if s.faulty[nid] != stamp {
                s.faulty[nid] = stamp;
                faulty_necklaces += 1;
                let members = self.partition.members(nid);
                removed_nodes += members.len();
                for &member in members {
                    t.reach.kill(&mut s.bits, member as usize);
                }
            }
        }
        (faulty_necklaces, removed_nodes)
    }

    /// The boolean per-necklace fault mask induced by a set of faulty nodes.
    #[must_use]
    pub fn faulty_necklace_mask(&self, faulty_nodes: &[usize]) -> Vec<bool> {
        for &v in faulty_nodes {
            assert!(v < self.graph.len(), "faulty node id {v} out of range");
        }
        self.partition
            .faulty_necklaces(faulty_nodes.iter().map(|&v| v as u64))
    }

    /// Picks a live root: `preferred` if its necklace survives, otherwise
    /// the repair root — the **nearest live node by breadth-first distance
    /// from `preferred` over the full graph (faults ignored while
    /// searching), ties broken by minimal node id**.
    ///
    /// The repair policy is implemented exactly once: this method stamps a
    /// throwaway scratch from the mask and delegates to the engine's
    /// `probe_for_live_root`, so the two public entry points cannot drift
    /// apart (an exhaustive differential test additionally pins the
    /// policy).
    ///
    /// # Panics
    /// Panics if every necklace is faulty.
    #[must_use]
    pub fn pick_root(&self, preferred: usize, faulty_mask: &[bool]) -> usize {
        let alive = |v: usize| !faulty_mask[self.partition.id_of(v as u64)];
        if alive(preferred) {
            return preferred;
        }
        let mut scratch = EmbedScratch::new();
        scratch.prepare(&self.tables);
        let stamp = scratch.stamp;
        for (nid, &faulty) in faulty_mask.iter().enumerate() {
            if faulty {
                scratch.faulty[nid] = stamp;
            }
        }
        self.probe_for_live_root(&mut scratch, preferred)
    }
}

/// Builds an [`FfcOutcome`] from engine stats and an owned cycle buffer.
fn outcome_from(stats: EmbedStats, cycle: Vec<usize>) -> FfcOutcome {
    FfcOutcome {
        root: stats.root,
        cycle,
        component_size: stats.component_size,
        eccentricity: stats.eccentricity,
        faulty_necklaces: stats.faulty_necklaces,
        removed_nodes: stats.removed_nodes,
    }
}
