//! The incremental fault-update engine: persistent phase outputs repaired
//! by delta passes.
//!
//! The phase pipeline of the engine recomputes everything per call; a
//! long-lived reconfiguration service absorbing a *stream* of fault events
//! should repair, not rebuild. [`RingMaintainer`] persists every phase's
//! output:
//!
//! * **Reachability and spanning tree** — the tree stage the engine runs
//!   too: one BFS *level* array from the root over the live graph (the
//!   levels, not just the reachable bitmap, are the certificate that makes
//!   node deletion repairable), one record per necklace (earliest member Y
//!   and parent necklace; a label's w-group is derived from the records of
//!   its d nodes w·d+β), and the exit bitmap and packed entry digits β
//!   from which the ring is walked on demand
//!   ([`RingMaintainer::ring_into`]);
//! * the B* membership bitmap, |B*| and the level histogram (the
//!   eccentricity is its maximum).
//!
//! Faults kill whole necklaces, so the root's forward set over live nodes
//! is B* (the twin-edge argument in the [`crate::ffc`] module docs): the
//! one level array is at once the reachability certificate and the
//! broadcast levels the tree stage reads, and B* is the set of nodes with
//! a level.
//!
//! [`RingMaintainer::apply_batch`] absorbs [`FaultEvent`] batches mixing
//! node arrivals, node repairs and **link faults** in one fused delta pass
//! ([`RingMaintainer::add_fault`] / [`RingMaintainer::clear_fault`] are the
//! single-event shorthands). A fault arrival kills one necklace: the bit
//! engine's delete pass
//! ([`crate::bitreach::BitReach::levels_delete`]) invalidates exactly the
//! necklace's forward cone (the nodes whose BFS support ran through it)
//! and re-settles it in increasing level order; a fault removal
//! re-expands from the healed frontier
//! ([`crate::bitreach::BitReach::levels_insert`]). Both are
//! **bit-identical to recompute** — BFS levels are canonical — so every
//! downstream phase repair (B* membership, necklace re-selection, w-group
//! rewiring) is confined to the nodes in the two passes' change log and
//! the necklaces whose chosen node may have moved or has a changed
//! predecessor (see `absorb_bcast_changes`), and the maintainer's stats
//! and ring bytes equal a from-scratch [`Ffc::embed_into`] of the
//! accumulated fault set after every event (pinned exhaustively over all
//! arrival orders of ≤2-fault sets and by B(2,14) property tests).
//!
//! Both delta passes of a batch charge their queue pops to one budget.
//! When the batch's pops exceed it (a pathological cascade — e.g. a huge
//! region losing reachability at once), or when the batch changes the
//! repair root, the maintainer falls back to a from-scratch rebuild: one
//! level-emitting forward pass writes the levels straight into the tree
//! stage, counts the histogram and sets the B* bitmap, and the tree stage
//! is built — one `embed_into`-shaped pipeline run.
//! [`RepairStats`] counts which path each batch took.
//!
//! The repair path **degrades gracefully** instead of panicking: malformed
//! requests come back as a typed [`RepairError`] before any state is
//! touched, and every accepted batch returns a [`RepairOutcome`]
//! classifying the surviving ring — [`RepairOutcome::Repaired`] when every
//! live node rides it, [`RepairOutcome::Degraded`] when the fault set
//! exceeds what one ring can absorb (the maintainer keeps serving the
//! largest surviving ring), and [`RepairOutcome::Infeasible`] when every
//! necklace carries a fault. All three states stay fully queryable, and
//! clearing faults lifts the maintainer back up through the variants.
//!
//! Repair state is mutable and single-writer, but reads are **not**
//! confined to the maintainer: [`RingMaintainer::publish`] carves an
//! immutable, refcounted [`super::RingSnapshot`] off it (chunked
//! copy-on-write — only the node-id chunks the last repairs dirtied are
//! copied; clean chunks are shared with the previous snapshot by `Arc`),
//! which any number of reader threads can query while further repairs
//! mutate the maintainer. [`crate::serve::RingService`] wraps this into a
//! full serving loop with epoch publication.

use std::sync::Arc;

use crate::bitreach::{BitScratch, DeltaBudgetExceeded, DeltaScratch, UNREACHED};
use crate::mem::{grow_to, reserve_more};

use super::phases::{read_off_cycle, DigitWidth, RootProbe, TreeStage};
use super::snapshot::{ChunkMask, RingSnapshot, SnapshotParts, SnapshotPublisher};
use super::{EmbedStats, Ffc, INFEASIBLE_ROOT, NONE};

/// How many [`RingMaintainer`] events ran as true delta repairs and how
/// many fell back to a from-scratch rebuild.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Events absorbed by the delta passes alone.
    pub incremental: usize,
    /// Events that rebuilt the maintainer's state (root change, budget
    /// exceeded, or an explicit [`RingMaintainer::reset`]).
    pub rebuilds: usize,
}

/// One fault-churn event for [`RingMaintainer::apply_batch`].
///
/// Node events toggle a processor's explicit fault flag (set semantics:
/// redundant events are no-ops). Link events mark a de Bruijn edge faulty;
/// the maintainer repairs a faulty link by **excluding its source node**
/// (and thereby the source's necklace) from the embedding — the paper's
/// necklace-removal machinery applied to the sending endpoint, which
/// guarantees the maintained ring never traverses the faulty link. This is
/// coarser than [`crate::EdgeFaultEmbedder`]'s translate/disjoint-family
/// mechanisms (which keep every node) but is incremental, composes with
/// node faults in the same batch, and applies to any number of link
/// faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Processor `v` fails. An already-faulty `v` is a no-op.
    NodeDown(usize),
    /// Processor `v` is repaired. A never-faulty `v` is a no-op.
    NodeUp(usize),
    /// Link `from -> to` fails. An already-faulty link is a no-op.
    EdgeDown(usize, usize),
    /// Link `from -> to` is repaired. A never-faulty link is a no-op.
    EdgeUp(usize, usize),
}

/// A request the repair engine rejects *before* touching any state — the
/// typed replacement for the slice-bounds panics malformed ids used to
/// hit. Batches are atomic: one bad event rejects the whole batch and the
/// maintainer is left exactly as it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// No [`RingMaintainer::reset`] has run yet.
    NotInitialized,
    /// The maintainer is bound to a different graph than the call's [`Ffc`].
    ShapeMismatch {
        /// Node count of the graph the maintainer was reset against.
        bound_nodes: usize,
        /// Node count of the graph passed to the rejected call.
        graph_nodes: usize,
    },
    /// A node id is not a node of the bound B(d,n).
    NodeOutOfRange {
        /// The offending id.
        node: usize,
        /// The bound graph's node count.
        n_nodes: usize,
    },
    /// A link event names a pair that is not a de Bruijn edge.
    NotAnEdge {
        /// The claimed source.
        from: usize,
        /// The claimed target.
        to: usize,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RepairError::NotInitialized => {
                write!(f, "RingMaintainer::reset must run before repair events")
            }
            RepairError::ShapeMismatch {
                bound_nodes,
                graph_nodes,
            } => write!(
                f,
                "RingMaintainer is bound to a graph with {bound_nodes} nodes, \
                 not {graph_nodes}; reset it before switching graphs"
            ),
            RepairError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node id {node} out of range (graph has {n_nodes} nodes)")
            }
            RepairError::NotAnEdge { from, to } => {
                write!(f, "{from} -> {to} is not a de Bruijn edge")
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// What state a repair event left the maintained ring in. Every variant
/// keeps the maintainer fully queryable, and the state is always recoverable:
/// clearing faults lifts `Infeasible` back through `Degraded` to
/// `Repaired` (pinned by tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Every live node rides the maintained ring — the f ≤ d − 2 regime of
    /// Theorem 2.3, and any heavier fault set that happens to keep the
    /// survivor graph strongly connected.
    Repaired(EmbedStats),
    /// The fault set exceeds what a single ring can absorb: the maintainer
    /// serves the **best-effort largest surviving ring** (the ring of the
    /// root's strongly connected component) and reports how many live
    /// nodes fell off it.
    Degraded {
        /// The maintainer's stats (identical to a from-scratch embed of the
        /// accumulated exclusion set).
        stats: EmbedStats,
        /// Length of the surviving ring being served.
        ring_len: usize,
        /// Live (non-removed) nodes that are not on the surviving ring.
        excluded: usize,
    },
    /// Every necklace carries a fault: no ring exists at all. The
    /// maintainer answers every query (empty ring, zeroed reachability) and
    /// recovers on the next reviving event.
    Infeasible {
        /// The stats of the infeasible embed (component size 0, root
        /// `usize::MAX`).
        stats: EmbedStats,
    },
}

impl RepairOutcome {
    /// Classifies the embedding `stats` of a B(d,n) with `n_nodes` nodes —
    /// the one classification behind [`RingMaintainer::outcome`] and
    /// [`RingSnapshot::outcome`]: infeasible when no root exists, repaired
    /// when every live node rides the ring, degraded otherwise.
    pub(crate) fn classify(stats: EmbedStats, n_nodes: usize) -> Self {
        match n_nodes - stats.removed_nodes - stats.component_size {
            _ if stats.root == INFEASIBLE_ROOT => RepairOutcome::Infeasible { stats },
            0 => RepairOutcome::Repaired(stats),
            excluded => RepairOutcome::Degraded {
                stats,
                ring_len: stats.component_size,
                excluded,
            },
        }
    }

    /// The embedding stats, available in every state.
    #[must_use]
    pub fn stats(&self) -> EmbedStats {
        match *self {
            RepairOutcome::Repaired(stats)
            | RepairOutcome::Degraded { stats, .. }
            | RepairOutcome::Infeasible { stats } => stats,
        }
    }

    /// Length of the ring currently being served (0 when infeasible).
    #[must_use]
    pub fn ring_len(&self) -> usize {
        match *self {
            RepairOutcome::Repaired(stats) => stats.component_size,
            RepairOutcome::Degraded { ring_len, .. } => ring_len,
            RepairOutcome::Infeasible { .. } => 0,
        }
    }

    /// Live nodes not on the served ring (0 unless degraded).
    #[must_use]
    pub fn excluded(&self) -> usize {
        match *self {
            RepairOutcome::Degraded { excluded, .. } => excluded,
            _ => 0,
        }
    }

    /// Whether every live node rides the ring.
    #[must_use]
    pub fn is_repaired(&self) -> bool {
        matches!(self, RepairOutcome::Repaired(_))
    }

    /// Whether the ring is serving with live nodes excluded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, RepairOutcome::Degraded { .. })
    }

    /// Whether no ring exists under the current fault set.
    #[must_use]
    pub fn is_infeasible(&self) -> bool {
        matches!(self, RepairOutcome::Infeasible { .. })
    }
}

/// The incremental fault-update engine: the persisted outputs of the
/// embedding pipeline's phases (see the module docs for the layout), the
/// accumulated fault state they were computed under, and the delta
/// machinery that repairs them.
///
/// [`RingMaintainer::apply_batch`] absorbs event batches (node arrivals,
/// node repairs and link faults; `add_fault` / `clear_fault` are the
/// single-event shorthands), falling back to a from-scratch rebuild only
/// when the batch changes the repair root or the delta's work budget is
/// exceeded. After every batch the stats and ring bytes are identical to
/// a from-scratch [`Ffc::embed_into`] of the accumulated exclusion set
/// ([`RingMaintainer::faulty_nodes`]), and the returned [`RepairOutcome`]
/// classifies the surviving ring — malformed requests are rejected as
/// typed [`RepairError`]s with no state touched, never panics.
///
/// Like [`super::EmbedScratch`], the maintainer is a state object: every
/// event method takes the [`Ffc`] it was [`RingMaintainer::reset`]
/// against (the shape is checked). One maintainer serves any number of
/// events with no heap allocation after warm-up.
///
/// The maintainer is the single *writer*; it does **not** monopolise the
/// read path. [`RingMaintainer::publish`] freezes the current ring into an
/// immutable [`RingSnapshot`] (chunked copy-on-write), and
/// [`crate::serve::RingService`] turns that into wait-free concurrent
/// reads under live repair.
#[derive(Clone, Debug, Default)]
pub struct RingMaintainer {
    // -- repair policy and accounting --
    /// Delta work budget override (see [`RingMaintainer::with_budget`]).
    budget: Option<usize>,
    repairs: RepairStats,
    // -- shape (checked against the `Ffc` of every call) --
    d: usize,
    suffix: usize,
    n_nodes: usize,
    n_necks: usize,
    initialized: bool,
    // -- accumulated fault state --
    /// Node-level fault flags (the accumulated fault *set*; duplicate adds
    /// are no-ops at the maintainer).
    node_faulty: Vec<bool>,
    /// The accumulated faulty nodes, unordered.
    fault_list: Vec<usize>,
    /// Position of each faulty node within `fault_list` (NONE otherwise).
    fault_pos: Vec<u32>,
    /// Per node: how many accumulated faulty links leave it. A node is
    /// *excluded* (a member of `fault_list`) while it is explicitly faulty
    /// or this count is positive.
    edge_src: Vec<u32>,
    /// The accumulated faulty links, unordered (linear-scan dedup — link
    /// fault sets are small compared to the graph).
    edge_faults: Vec<(u32, u32)>,
    /// Number of excluded nodes per necklace; a necklace is dead iff > 0.
    neck_fault_count: Vec<u32>,
    /// Per node: member of a dead necklace.
    node_dead: Vec<bool>,
    faulty_necklaces: usize,
    removed_nodes: usize,
    // -- reachability and spanning tree --
    root: usize,
    /// B* membership, word-packed: bit v set ⟺ v is live and
    /// forward-reachable from the root, i.e. has a level. Maintained
    /// incrementally, so [`RingMaintainer::publish`] freezes it into
    /// snapshots without an O(n) repack.
    bstar_bits: Vec<u64>,
    component_size: usize,
    /// The forward BFS levels from the root over live nodes ([`UNREACHED`]
    /// outside B*) in the compact one-byte-per-node encoding, which are
    /// the broadcast levels (published into snapshots as the level group);
    /// the per-necklace tree records; and the exit bitmap and packed entry
    /// digits the ring is walked from (published as the ring group).
    tree: TreeStage,
    /// Histogram of the levels (eccentricity = the last non-zero bin),
    /// filled by the rebuild's forward pass and kept by the delta path.
    level_counts: Vec<u32>,
    max_level: usize,
    // -- snapshot publication --
    /// Snapshot chunks whose entry digits or exit bits changed since the
    /// last publication: the d exit slots of every rewired label.
    snap_ring_dirty: ChunkMask,
    /// Snapshot chunks whose `bstar_bits` changed since the last
    /// publication: the logged nodes that joined or left B*.
    snap_bstar_dirty: ChunkMask,
    /// Snapshot chunks whose levels changed since the last publication:
    /// the nodes of the delta passes' change log.
    snap_level_dirty: ChunkMask,
    // -- reusable machinery --
    bits: BitScratch,
    /// The delta passes' queues, and the batch's budget and change log.
    delta: DeltaScratch,
    /// Event-scoped dedup stamps and worklists of the delta path.
    stamp: u32,
    /// Seeds of the batch's delete pass (members of killed necklaces).
    batch_buf: Vec<u32>,
    /// Seeds of the batch's insert pass (members of revived necklaces).
    ins_buf: Vec<u32>,
    /// Necklaces whose dead-state toggled while booking a batch, packed as
    /// `(nid << 1) | was_dead`, classified after booking into net kill and
    /// revive seed lists.
    touched_necks: Vec<u64>,
    killed_necks: Vec<u32>,
    revived_necks: Vec<u32>,
    dirty_stamp: Vec<u32>,
    dirty_necks: Vec<u32>,
    label_stamp: Vec<u32>,
    dirty_labels: Vec<u32>,
    /// The root-repair probe's buffers.
    probe: RootProbe,
}

impl RingMaintainer {
    /// The scalar results the accumulated fault set embeds to — identical
    /// to [`Ffc::embed_into`] of that set.
    #[must_use]
    pub fn stats(&self) -> EmbedStats {
        EmbedStats {
            root: self.root,
            component_size: self.component_size,
            eccentricity: self.max_level,
            faulty_necklaces: self.faulty_necklaces,
            removed_nodes: self.removed_nodes,
        }
    }

    /// The accumulated **excluded** nodes, unordered: explicitly faulty
    /// processors plus the source endpoints of faulty links. A
    /// from-scratch [`Ffc::embed_into`] of exactly this set reproduces the
    /// maintainer's stats and ring bytes.
    #[must_use]
    pub fn faulty_nodes(&self) -> &[usize] {
        &self.fault_list
    }

    /// The accumulated faulty links, unordered, as `(from, to)` pairs.
    #[must_use]
    pub fn faulty_edges(&self) -> &[(u32, u32)] {
        &self.edge_faults
    }

    /// The [`RepairOutcome`] of the accumulated fault set — the same
    /// classification the last event returned, queryable at any time after
    /// [`RingMaintainer::reset`]: repaired when every live node rides the
    /// ring, degraded when live nodes fell off it, infeasible when every
    /// necklace carries a fault.
    #[must_use]
    pub fn outcome(&self) -> RepairOutcome {
        RepairOutcome::classify(self.stats(), self.n_nodes)
    }

    /// Whether node `v` lies in B* under the accumulated fault set.
    #[must_use]
    pub fn in_bstar(&self, v: usize) -> bool {
        bit(&self.bstar_bits, v)
    }

    /// The current repair root (necklace representative; `usize::MAX`
    /// when infeasible).
    #[must_use]
    pub fn root(&self) -> usize {
        self.root
    }

    /// The length of the maintained ring (= |B*|).
    #[must_use]
    pub fn ring_len(&self) -> usize {
        self.component_size
    }

    /// Walks the maintained ring from the root into `out` — byte-identical
    /// to the cycle a from-scratch [`Ffc::embed_into`] of the accumulated
    /// fault set leaves in its scratch, and walked by the same readoff.
    /// O(|B*|); the repair events themselves never pay this walk, which is
    /// what makes single-fault repair sublinear in the ring length. Leaves
    /// `out` empty when the fault set is infeasible (no surviving ring).
    pub fn ring_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.component_size == 0 {
            return;
        }
        read_off_cycle(
            self.d,
            self.suffix,
            self.root,
            self.component_size,
            &self.tree.exit_bits,
            &self.tree.digits,
            out,
        );
    }

    /// Histogram of the forward BFS levels over live nodes (index = level,
    /// value = nodes first reached at that level; empty when infeasible),
    /// read from the maintained histogram in O(eccentricity). This is
    /// exactly the per-round new-receiver count of the distributed
    /// protocol's broadcast phase, which the netsim online harness asserts
    /// its message trace against.
    #[must_use]
    pub fn forward_level_counts(&self) -> Vec<usize> {
        let bins = self.level_counts.len().min(self.max_level + 1);
        self.level_counts[..bins]
            .iter()
            .map(|&c| c as usize)
            .collect()
    }

    /// Freezes the current ring into an immutable [`RingSnapshot`] via
    /// `publisher`, copying only the chunks mutated since the last
    /// publication (each structure group carries a per-chunk dirty mask the
    /// repair paths maintain) and sharing clean chunks with the previous
    /// snapshot by `Arc`. The snapshot stays valid — and bit-identical — no
    /// matter how many further events this maintainer absorbs.
    /// `applied_events` is the caller's count of absorbed events, stamped
    /// into the snapshot so readers can line it up with a prefix of the
    /// event sequence.
    ///
    /// # Errors
    /// [`RepairError::NotInitialized`] before the first
    /// [`RingMaintainer::reset`].
    pub fn publish(
        &mut self,
        publisher: &mut SnapshotPublisher,
        applied_events: u64,
    ) -> Result<Arc<RingSnapshot>, RepairError> {
        if !self.initialized {
            return Err(RepairError::NotInitialized);
        }
        let words = self.n_nodes.div_ceil(64);
        let digit_words = DigitWidth::of(self.d).words(self.n_nodes);
        let snap = publisher.build(SnapshotParts {
            d: self.d,
            suffix: self.suffix,
            n_nodes: self.n_nodes,
            stats: self.stats(),
            ring_dirty: &self.snap_ring_dirty,
            bstar_dirty: &self.snap_bstar_dirty,
            level_dirty: &self.snap_level_dirty,
            digits: &self.tree.digits[..digit_words],
            exit_bits: &self.tree.exit_bits[..words],
            bstar_bits: &self.bstar_bits[..words],
            bcast_level: &self.tree.levels,
            applied_events,
        });
        self.snap_ring_dirty.clear();
        self.snap_bstar_dirty.clear();
        self.snap_level_dirty.clear();
        Ok(snap)
    }

    /// Marks every snapshot chunk of every group dirty (a rebuild, the
    /// infeasible state, or a new shape rewrote all state).
    fn dirty_all_chunks(&mut self) {
        self.snap_ring_dirty.mark_all();
        self.snap_bstar_dirty.mark_all();
        self.snap_level_dirty.mark_all();
    }

    /// Bytes currently reserved by the per-node level array — the
    /// footprint the benchmark's `level_bytes` column audits against the
    /// `4 · n` a `u32` encoding would pay.
    #[must_use]
    pub fn level_bytes(&self) -> usize {
        self.tree.levels.allocated_bytes()
    }

    /// Total bytes currently reserved by the maintainer's buffers —
    /// constant across repair events at a fixed (d, n), the incremental
    /// engine's analogue of [`super::EmbedScratch::allocated_bytes`].
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        self.node_faulty.capacity()
            + self.node_dead.capacity()
            + std::mem::size_of::<usize>() * self.fault_list.capacity()
            + self.tree.allocated_bytes()
            + 4 * (self.fault_pos.capacity()
                + self.neck_fault_count.capacity()
                + self.level_counts.capacity()
                + self.batch_buf.capacity()
                + self.edge_src.capacity()
                + self.ins_buf.capacity()
                + self.killed_necks.capacity()
                + self.revived_necks.capacity()
                + self.dirty_stamp.capacity()
                + self.dirty_necks.capacity()
                + self.label_stamp.capacity()
                + self.dirty_labels.capacity())
            + 8 * (self.bstar_bits.capacity()
                + self.edge_faults.capacity()
                + self.touched_necks.capacity())
            + self.probe.allocated_bytes()
            + self.bits.allocated_bytes()
            + self.delta.allocated_bytes()
            + self.snap_ring_dirty.allocated_bytes()
            + self.snap_bstar_dirty.allocated_bytes()
            + self.snap_level_dirty.allocated_bytes()
    }

    // ------------------------------------------------------------------
    // Sizing and fault bookkeeping.
    // ------------------------------------------------------------------

    /// Advances the event stamp, clearing every stamp array on wrap-around
    /// (once per 2^32 stamped scopes).
    fn bump_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            for arr in [&mut self.dirty_stamp, &mut self.label_stamp] {
                arr.iter_mut().for_each(|x| *x = 0);
            }
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Sizes every buffer for `ffc`'s shape and clears the fault state.
    fn adopt_shape(&mut self, ffc: &Ffc) {
        let t = &ffc.tables;
        self.d = t.d;
        self.suffix = t.suffix_count;
        self.n_nodes = t.n_nodes;
        self.n_necks = t.n_necks;
        let n = self.n_nodes;
        grow_to(&mut self.node_faulty, n, false);
        grow_to(&mut self.node_dead, n, false);
        grow_to(&mut self.fault_pos, n, NONE);
        grow_to(&mut self.edge_src, n, 0);
        grow_to(&mut self.bstar_bits, n.div_ceil(64), 0);
        grow_to(&mut self.neck_fault_count, self.n_necks, 0);
        grow_to(&mut self.dirty_stamp, self.n_necks, 0);
        grow_to(&mut self.label_stamp, t.suffix_count, 0);
        // Worklists are presized to their worst-case bounds so repair
        // events never grow them; `level_counts` can in principle index up
        // to n_nodes - 1 during a delete cascade, so it gets full range.
        reserve_more(&mut self.fault_list, n);
        reserve_more(&mut self.batch_buf, n);
        reserve_more(&mut self.ins_buf, n);
        reserve_more(&mut self.touched_necks, self.n_necks);
        reserve_more(&mut self.killed_necks, self.n_necks);
        reserve_more(&mut self.revived_necks, self.n_necks);
        // Link-fault lists grow amortised (they are bounded by n·d, far
        // beyond any realistic churn trace; a small reservation keeps the
        // common case allocation-free).
        reserve_more(&mut self.edge_faults, 16);
        reserve_more(&mut self.level_counts, n + 1);
        reserve_more(&mut self.dirty_necks, self.n_necks);
        reserve_more(&mut self.dirty_labels, t.suffix_count);
        self.probe.fit(n);
        self.delta.fit(&t.reach, n, 0);
        // Fault state restarts from empty.
        self.node_faulty[..n].fill(false);
        self.node_dead[..n].fill(false);
        self.fault_pos[..n].fill(NONE);
        self.edge_src[..n].fill(0);
        self.edge_faults.clear();
        self.neck_fault_count[..self.n_necks].fill(0);
        self.fault_list.clear();
        self.faulty_necklaces = 0;
        self.removed_nodes = 0;
        self.bstar_bits[..n.div_ceil(64)].fill(0);
        self.snap_ring_dirty.fit(n);
        self.snap_bstar_dirty.fit(n);
        self.snap_level_dirty.fit(n);
        self.dirty_all_chunks();
        self.initialized = true;
    }

    /// Checks the maintainer was reset against `ffc`'s shape.
    fn ensure_shape(&self, ffc: &Ffc) -> Result<(), RepairError> {
        if !self.initialized {
            return Err(RepairError::NotInitialized);
        }
        let t = &ffc.tables;
        if self.d != t.d || self.n_nodes != t.n_nodes || self.n_necks != t.n_necks {
            return Err(RepairError::ShapeMismatch {
                bound_nodes: self.n_nodes,
                graph_nodes: t.n_nodes,
            });
        }
        Ok(())
    }

    /// Logs a necklace's first dead-state toggle of the batch (dedup on
    /// the batch stamp `self.stamp`, which `book_events` bumps once).
    fn touch_neck(&mut self, nid: usize, was_dead: bool) {
        if self.dirty_stamp[nid] != self.stamp {
            self.dirty_stamp[nid] = self.stamp;
            self.touched_necks
                .push(((nid as u64) << 1) | u64::from(was_dead));
        }
    }

    /// Adds `v` to the exclusion set (it newly became explicitly faulty or
    /// the source of a faulty link), killing its necklace when it is the
    /// necklace's first excluded member.
    fn exclude(&mut self, ffc: &Ffc, v: usize) {
        debug_assert_eq!(self.fault_pos[v], NONE);
        self.fault_pos[v] = self.fault_list.len() as u32;
        self.fault_list.push(v);
        let nid = ffc.partition.membership()[v] as usize;
        if self.neck_fault_count[nid] == 0 {
            self.touch_neck(nid, false);
            self.faulty_necklaces += 1;
            let members = ffc.partition.members(nid);
            self.removed_nodes += members.len();
            for &m in members {
                self.node_dead[m as usize] = true;
            }
        }
        self.neck_fault_count[nid] += 1;
    }

    /// Removes `v` from the exclusion set, reviving its necklace when it
    /// was the necklace's last excluded member.
    fn include(&mut self, ffc: &Ffc, v: usize) {
        debug_assert_ne!(self.fault_pos[v], NONE);
        let pos = self.fault_pos[v] as usize;
        self.fault_pos[v] = NONE;
        self.fault_list.swap_remove(pos);
        if let Some(&moved) = self.fault_list.get(pos) {
            self.fault_pos[moved] = pos as u32;
        }
        let nid = ffc.partition.membership()[v] as usize;
        self.neck_fault_count[nid] -= 1;
        if self.neck_fault_count[nid] == 0 {
            self.touch_neck(nid, true);
            self.faulty_necklaces -= 1;
            let members = ffc.partition.members(nid);
            self.removed_nodes -= members.len();
            for &m in members {
                self.node_dead[m as usize] = false;
            }
        }
    }

    /// Reconciles `v`'s presence in the exclusion set with its fault
    /// flags (explicit fault OR any faulty outgoing link).
    fn sync_exclusion(&mut self, ffc: &Ffc, v: usize) {
        let want = self.node_faulty[v] || self.edge_src[v] > 0;
        let have = self.fault_pos[v] != NONE;
        if want && !have {
            self.exclude(ffc, v);
        } else if !want && have {
            self.include(ffc, v);
        }
    }

    /// Applies one pre-validated event to the fault bookkeeping (set
    /// semantics: redundant events are no-ops).
    fn apply_event(&mut self, ffc: &Ffc, ev: FaultEvent) {
        match ev {
            FaultEvent::NodeDown(v) => {
                if !self.node_faulty[v] {
                    self.node_faulty[v] = true;
                    self.sync_exclusion(ffc, v);
                }
            }
            FaultEvent::NodeUp(v) => {
                if self.node_faulty[v] {
                    self.node_faulty[v] = false;
                    self.sync_exclusion(ffc, v);
                }
            }
            FaultEvent::EdgeDown(u, w) => {
                let key = (u as u32, w as u32);
                if !self.edge_faults.contains(&key) {
                    self.edge_faults.push(key);
                    self.edge_src[u] += 1;
                    self.sync_exclusion(ffc, u);
                }
            }
            FaultEvent::EdgeUp(u, w) => {
                let key = (u as u32, w as u32);
                if let Some(pos) = self.edge_faults.iter().position(|&e| e == key) {
                    self.edge_faults.swap_remove(pos);
                    self.edge_src[u] -= 1;
                    self.sync_exclusion(ffc, u);
                }
            }
        }
    }

    /// Books a validated event batch and classifies the **net** dead-state
    /// changes into `killed_necks` / `revived_necks` — a necklace that
    /// dies and revives inside one batch contributes to neither list.
    fn book_events(&mut self, ffc: &Ffc, events: &[FaultEvent]) {
        let _ = self.bump_stamp();
        self.touched_necks.clear();
        for &ev in events {
            self.apply_event(ffc, ev);
        }
        self.killed_necks.clear();
        self.revived_necks.clear();
        for i in 0..self.touched_necks.len() {
            let packed = self.touched_necks[i];
            let nid = (packed >> 1) as usize;
            let was_dead = packed & 1 == 1;
            let now_dead = self.neck_fault_count[nid] > 0;
            match (was_dead, now_dead) {
                (false, true) => self.killed_necks.push(nid as u32),
                (true, false) => self.revived_necks.push(nid as u32),
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Root policy.
    // ------------------------------------------------------------------

    /// The root the from-scratch engine would pick for the current fault
    /// set: [`RootProbe::find`] fed the per-necklace fault counts, as a
    /// necklace representative. `None` when every necklace is faulty.
    fn policy_root(&mut self, ffc: &Ffc) -> Option<usize> {
        let membership = ffc.partition.membership();
        let fault_count = &self.neck_fault_count;
        let live = |v: usize| fault_count[membership[v] as usize] == 0;
        let root = self
            .probe
            .find(self.d, self.suffix, ffc.default_root(), live)?;
        Some(ffc.representative_of(root))
    }

    /// Parks the maintainer in the no-ring state: every necklace carries a
    /// fault, so no fault-free cycle exists. Every query stays answerable
    /// (empty ring, empty histogram, zero |B*|), and the sentinel root
    /// compares unequal to every real root, so the next reviving event
    /// routes recovery through a full rebuild automatically.
    fn enter_infeasible(&mut self, ffc: &Ffc) {
        self.root = INFEASIBLE_ROOT;
        self.bstar_bits[..self.n_nodes.div_ceil(64)].fill(0);
        self.component_size = 0;
        self.tree.levels.grow(self.n_nodes);
        self.tree.levels.fill_unreached();
        self.tree.build(ffc, INFEASIBLE_ROOT);
        self.level_counts.clear();
        self.max_level = 0;
        self.dirty_all_chunks();
    }

    // ------------------------------------------------------------------
    // The from-scratch rebuild (fallback and initialisation).
    // ------------------------------------------------------------------

    /// Runs the full phase pipeline into the maintainer: one level-emitting
    /// forward pass, which also fills the histogram and the B* bitmap, and
    /// the tree stage's build (every necklace record and the exit/digit
    /// wiring).
    fn rebuild(&mut self, ffc: &Ffc) {
        let t = &ffc.tables;
        let reach = t.reach;
        let membership = ffc.partition.membership();
        let n = self.n_nodes;

        // Fault mask: kill every member of every dead necklace.
        reach.prepare(&mut self.bits);
        for v in 0..n {
            if self.node_dead[v] {
                reach.kill(&mut self.bits, v);
            }
        }
        let Some(root) = self.policy_root(ffc) else {
            self.enter_infeasible(ffc);
            return;
        };
        self.root = root;
        // B* is the forward set, so the forward levels are the broadcast
        // levels and the reached set is the B* mask.
        let (component, depth) = reach.forward_levels_reached(
            &mut self.bits,
            root,
            &mut self.tree.levels,
            &mut self.level_counts,
            &mut self.bstar_bits[..n.div_ceil(64)],
        );
        self.component_size = component;
        self.max_level = depth;
        self.dirty_all_chunks();
        self.tree.build(ffc, membership[root] as usize);
    }

    // ------------------------------------------------------------------
    // The delta repairs.
    // ------------------------------------------------------------------

    /// The fused delta path of one event batch: one delete pass seeded by
    /// **every** killed necklace's members and one insert pass seeded by
    /// every revived necklace's members — k simultaneous arrivals cost one
    /// frontier settlement instead of k.
    ///
    /// Order matters only between the two passes, not inside them: the
    /// delete pass runs with the *final* liveness predicate (revived nodes
    /// are already live but still hold `UNREACHED`, so they offer no
    /// support), which makes its result the canonical levels of the
    /// mid-state graph; the insert pass then re-expands from the revived
    /// members and settles the canonical levels of the final graph.
    ///
    /// Both passes run in one [`DeltaScratch`] batch, so `budget` caps
    /// their queue pops together, and share one change log. B* is the set
    /// of nodes with a level, so every node that left or joined B* changed
    /// its level and is in that log, and the log's first-seen old levels
    /// let a node deleted then re-inserted update the histogram once.
    fn delta_batch(&mut self, ffc: &Ffc, budget: usize) -> Result<(), DeltaBudgetExceeded> {
        let reach = ffc.tables.reach;
        self.batch_buf.clear();
        for i in 0..self.killed_necks.len() {
            let nid = self.killed_necks[i] as usize;
            self.batch_buf.extend_from_slice(ffc.partition.members(nid));
        }
        self.ins_buf.clear();
        for i in 0..self.revived_necks.len() {
            let nid = self.revived_necks[i] as usize;
            self.ins_buf.extend_from_slice(ffc.partition.members(nid));
        }

        let Self {
            node_dead,
            tree,
            delta,
            batch_buf,
            ins_buf,
            ..
        } = self;
        delta.open(budget);
        let live = |u: usize| !node_dead[u];
        reach.levels_delete(&mut tree.levels, delta, batch_buf, live)?;
        reach.levels_insert(&mut tree.levels, delta, ins_buf, live)?;
        self.absorb_bcast_changes(ffc);
        Ok(())
    }

    /// Applies the delta passes' change log — each changed node once, with
    /// its level before the batch — to the B* bitmap, the histogram and the
    /// tree stage, in work proportional to the log. A necklace's members
    /// are scanned only when its Y may have moved.
    ///
    /// A logged node joined B* when its old level is [`UNREACHED`] and its
    /// new one is not, and left it in the opposite case. For each changed
    /// node u, on necklace N:
    /// - **Incremental argmin.** N is re-selected over its members
    ///   ([`TreeStage::select`]) when u is N's Y and its level rose
    ///   ([`UNREACHED`] counting as highest), or when u beats N's Y
    ///   ([`TreeStage::beats`]; a necklace joining B* has no Y, and all
    ///   its members are in the log). Otherwise Y stays: an unchanged
    ///   member kept its level and was not chosen over Y before the
    ///   batch, and Y did not rise.
    /// - **Successor rule.** A parent is read from the levels of Y and Y's
    ///   d predecessors alone, so u marks the necklace of a successor
    ///   s = (u mod d^(n−1))·d + a only when s is that necklace's Y, to
    ///   recompute its parent in O(d) ([`TreeStage::reparent`]). Y's own
    ///   level is one more than its predecessors' least, so a Y whose
    ///   level fell has a changed predecessor and is marked this way.
    ///
    /// Records are re-selected while the log is read. That is exact: a
    /// re-selection runs on the batch's final levels, so its record is
    /// final (a later mark only recomputes the same parent), and every
    /// other necklace keeps its Y through the pass. Every changed tree
    /// edge dirties the labels of its old and new edge, and the dirty
    /// labels' w-groups are rewired from the final records.
    fn absorb_bcast_changes(&mut self, ffc: &Ffc) {
        let membership = ffc.partition.membership();
        let (d, suffix) = (self.d, self.suffix);
        let stamp = self.bump_stamp();
        self.dirty_necks.clear();
        self.dirty_labels.clear();
        let Self {
            delta,
            tree,
            bstar_bits,
            component_size,
            level_counts,
            max_level,
            snap_bstar_dirty,
            snap_level_dirty,
            dirty_stamp,
            dirty_necks,
            label_stamp,
            dirty_labels,
            ..
        } = self;
        let mut mark = |nid: usize| {
            if dirty_stamp[nid] != stamp {
                dirty_stamp[nid] = stamp;
                dirty_necks.push(nid as u32);
            }
        };
        let mut mark_labels = |[old, new]: [Option<(usize, u32)>; 2]| {
            if old != new {
                for (label, _) in old.into_iter().chain(new) {
                    if label_stamp[label] != stamp {
                        label_stamp[label] = stamp;
                        dirty_labels.push(label as u32);
                    }
                }
            }
        };
        for (u, old) in delta.changed() {
            let u = u as usize;
            snap_level_dirty.mark(u);
            let new = tree.levels.get(u);
            if (old == UNREACHED) != (new == UNREACHED) {
                bstar_bits[u / 64] ^= 1u64 << (u % 64);
                snap_bstar_dirty.mark(u);
                if new == UNREACHED {
                    *component_size -= 1;
                } else {
                    *component_size += 1;
                }
            }
            if old != UNREACHED {
                level_counts[old as usize] -= 1;
            }
            if new != UNREACHED {
                let new = new as usize;
                if level_counts.len() <= new {
                    level_counts.resize(new + 1, 0);
                }
                level_counts[new] += 1;
                *max_level = (*max_level).max(new);
            }
            let nid = membership[u] as usize;
            if (tree.chosen(nid) == u as u32 && new > old) || tree.beats(nid, u) {
                mark_labels(tree.select(ffc, nid));
            }
            let base = (u % suffix) * d;
            for (s, &ns) in (base..).zip(&membership[base..base + d]) {
                if tree.chosen(ns as usize) == s as u32 {
                    mark(ns as usize);
                }
            }
        }
        for &nid in dirty_necks.iter() {
            mark_labels(tree.reparent(ffc, nid as usize));
        }
        while self.max_level > 0 && self.level_counts[self.max_level] == 0 {
            self.max_level -= 1;
        }
        debug_assert_eq!(
            self.level_counts.iter().map(|&c| c as usize).sum::<usize>(),
            self.component_size,
            "histogram out of sync with |B*|"
        );
        // Rewiring rewrites the exit bits of a label's d possible exits
        // a·d^(n−1)+w, so their snapshot chunks are dirty.
        for i in 0..self.dirty_labels.len() {
            let label = self.dirty_labels[i] as usize;
            for a in 0..d {
                self.snap_ring_dirty.mark(a * suffix + label);
            }
            self.tree.rewire(ffc, label);
        }
    }
}

impl RingMaintainer {
    /// Creates an empty maintainer (automatic budget).
    /// [`RingMaintainer::reset`] must run before the first event.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the delta work budget — queue pops per batch, shared by
    /// the batch's delete and insert passes — above which the batch falls
    /// back to a rebuild. `None` restores the automatic budget,
    /// `max(1024, d^n)` — a queue pop (a handful of implicit-edge probes)
    /// costs well under what the rebuild pays per node across its
    /// level-emitting forward pass and tree build, so the break-even sits
    /// near one pop per node. A budget of 0 forces every batch to rebuild
    /// (the differential tests use this to pin fallback equality).
    #[must_use]
    pub fn with_budget(mut self, budget: Option<usize>) -> Self {
        self.budget = budget;
        self
    }

    /// How many events ran as delta repairs vs rebuilds.
    #[must_use]
    pub fn repairs(&self) -> RepairStats {
        self.repairs
    }

    /// (Re)initialises the maintainer for `ffc` with the given fault set
    /// via one from-scratch pipeline run, and returns its outcome.
    /// Duplicate nodes in `faults` are tolerated (set semantics, like
    /// [`Ffc::embed_into`]); accumulated link faults are cleared.
    ///
    /// # Errors
    /// [`RepairError::NodeOutOfRange`] if any id is not a node of `ffc`
    /// (the maintainer's previous state is discarded either way only on
    /// success — a rejected reset leaves it untouched).
    pub fn reset(&mut self, ffc: &Ffc, faults: &[usize]) -> Result<RepairOutcome, RepairError> {
        let n_nodes = ffc.tables.n_nodes;
        if let Some(&v) = faults.iter().find(|&&v| v >= n_nodes) {
            return Err(RepairError::NodeOutOfRange { node: v, n_nodes });
        }
        self.adopt_shape(ffc);
        let _ = self.bump_stamp();
        self.touched_necks.clear();
        for &v in faults {
            if !self.node_faulty[v] {
                self.node_faulty[v] = true;
                self.sync_exclusion(ffc, v);
            }
        }
        self.rebuild(ffc);
        self.repairs.rebuilds += 1;
        Ok(self.outcome())
    }

    /// Absorbs one batch of simultaneous fault-churn events and returns
    /// the [`RepairOutcome`] of the accumulated fault set — whose stats
    /// and ring bytes are identical to a fresh [`Ffc::embed_into`] of
    /// [`RingMaintainer::faulty_nodes`]. Redundant events (an already-faulty
    /// node going down, a never-faulty node coming up, a duplicate link
    /// fault) are no-ops inside the batch, and a batch whose net effect
    /// kills or revives no necklace costs nothing beyond bookkeeping.
    ///
    /// The whole batch is repaired by **one** fused delta pass (all killed
    /// necklaces deleted together, all revived necklaces re-inserted
    /// together), so k simultaneous arrivals settle each affected frontier
    /// once instead of k times. The repair falls back to one rebuild when
    /// the batch changes the repair root or exceeds the delta budget, and
    /// parks the maintainer in the (recoverable) infeasible state when the
    /// batch kills the last live necklace.
    ///
    /// # Errors
    /// The batch is validated atomically before any state changes:
    /// [`RepairError::NotInitialized`] / [`RepairError::ShapeMismatch`]
    /// when the maintainer is not bound to `ffc`,
    /// [`RepairError::NodeOutOfRange`] for an id outside the graph, and
    /// [`RepairError::NotAnEdge`] for a link event whose pair is not a de
    /// Bruijn edge.
    pub fn apply_batch(
        &mut self,
        ffc: &Ffc,
        events: &[FaultEvent],
    ) -> Result<RepairOutcome, RepairError> {
        self.ensure_shape(ffc)?;
        for &ev in events {
            validate_event(self.d, self.suffix, self.n_nodes, ev)?;
        }
        self.book_events(ffc, events);
        if self.killed_necks.is_empty() && self.revived_necks.is_empty() {
            return Ok(self.outcome()); // no topology change
        }
        match self.policy_root(ffc) {
            None => {
                self.enter_infeasible(ffc);
                self.repairs.rebuilds += 1;
            }
            Some(root) if root != self.root => {
                self.rebuild(ffc);
                self.repairs.rebuilds += 1;
            }
            Some(_) => {
                let budget = self.budget.unwrap_or_else(|| self.n_nodes.max(1024));
                match (budget > 0).then(|| self.delta_batch(ffc, budget)) {
                    Some(Ok(())) => self.repairs.incremental += 1,
                    _ => {
                        self.rebuild(ffc);
                        self.repairs.rebuilds += 1;
                    }
                }
            }
        }
        Ok(self.outcome())
    }

    /// Absorbs the arrival of a fault at node `v` — shorthand for a
    /// one-event [`RingMaintainer::apply_batch`]. A node already faulty is
    /// a no-op (set semantics).
    ///
    /// # Errors
    /// See [`RingMaintainer::apply_batch`].
    pub fn add_fault(&mut self, ffc: &Ffc, v: usize) -> Result<RepairOutcome, RepairError> {
        self.apply_batch(ffc, &[FaultEvent::NodeDown(v)])
    }

    /// Absorbs the repair (removal) of the fault at node `v` — shorthand
    /// for a one-event [`RingMaintainer::apply_batch`]. Clearing a node
    /// that was never faulty is a **documented no-op**: the current
    /// outcome comes back unchanged and no fault-set word is touched.
    ///
    /// # Errors
    /// See [`RingMaintainer::apply_batch`].
    pub fn clear_fault(&mut self, ffc: &Ffc, v: usize) -> Result<RepairOutcome, RepairError> {
        self.apply_batch(ffc, &[FaultEvent::NodeUp(v)])
    }
}

/// Validates one [`FaultEvent`] against a B(d,n) shape without touching
/// any state — the shared pre-flight check of
/// [`RingMaintainer::apply_batch`] and the service's submission path.
pub(crate) fn validate_event(
    d: usize,
    suffix: usize,
    n_nodes: usize,
    ev: FaultEvent,
) -> Result<(), RepairError> {
    match ev {
        FaultEvent::NodeDown(v) | FaultEvent::NodeUp(v) => {
            if v >= n_nodes {
                return Err(RepairError::NodeOutOfRange { node: v, n_nodes });
            }
        }
        FaultEvent::EdgeDown(u, w) | FaultEvent::EdgeUp(u, w) => {
            for node in [u, w] {
                if node >= n_nodes {
                    return Err(RepairError::NodeOutOfRange { node, n_nodes });
                }
            }
            if w / d != u % suffix {
                return Err(RepairError::NotAnEdge { from: u, to: w });
            }
        }
    }
    Ok(())
}

/// Whether bit `v` of the word-packed bitmap `words` is set.
fn bit(words: &[u64], v: usize) -> bool {
    words[v / 64] >> (v % 64) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnPlan;
    use crate::ffc::tests::assert_maintainer_matches_scratch;
    use crate::ffc::EmbedScratch;

    /// Checks `maint` against a fresh [`RingMaintainer::reset`] of `fresh`
    /// to the same exclusion set — every necklace's record, Y and parent —
    /// and against a from-scratch [`Ffc::embed_into`]: stats and ring
    /// bytes. Ring bytes alone can miss a wrong Y in the right label,
    /// which a later batch would then compare against.
    fn assert_matches_fresh(
        ffc: &Ffc,
        maint: &RingMaintainer,
        fresh: &mut RingMaintainer,
        scratch: &mut EmbedScratch,
        ring: &mut Vec<usize>,
        ctx: &str,
    ) {
        let faults = maint.faulty_nodes();
        fresh.reset(ffc, faults).expect("in-range");
        for nid in 0..maint.n_necks {
            assert_eq!(
                maint.tree.record(nid),
                fresh.tree.record(nid),
                "record of necklace {nid} diverges ({ctx}) faults={faults:?}"
            );
        }
        assert_maintainer_matches_scratch(ffc, maint, scratch, ring, ctx);
    }

    /// After every batch of seeded churn streams (node and link events,
    /// bursts of 4) on B(2,12) and B(3,7), every necklace's Y and parent
    /// equal those a fresh `reset` to the same fault set computes.
    #[test]
    fn maintained_records_equal_a_fresh_reset_under_churn() {
        for (d, n) in [(2u64, 12u32), (3, 7)] {
            let ffc = Ffc::new(d, n);
            let (mut maint, mut fresh) = (RingMaintainer::new(), RingMaintainer::new());
            let mut scratch = EmbedScratch::new();
            let mut ring = Vec::new();
            for seed in 0..3u64 {
                let steps = ChurnPlan::new(seed)
                    .arrivals(80)
                    .bursts(4, 0.4)
                    .edge_fault_prob(0.3)
                    .generate(&ffc);
                maint.reset(&ffc, &[]).expect("in-range");
                for (i, step) in steps.iter().enumerate() {
                    maint
                        .apply_batch(&ffc, &step.batch)
                        .expect("generated events are valid");
                    let ctx = format!("B({d},{n}) seed {seed} batch {i}");
                    assert_matches_fresh(&ffc, &maint, &mut fresh, &mut scratch, &mut ring, &ctx);
                }
            }
            assert!(
                maint.repairs().incremental > 300,
                "too few delta repairs on B({d},{n}): {:?}",
                maint.repairs()
            );
        }
    }

    /// The maintainer's event stamp starts just below `u32::MAX`, at every
    /// offset up to 7, so its wrap-arounds fall at each point of a batch.
    /// Every entry of `dirty_stamp` and `label_stamp` starts at 1, as if
    /// last stamped in the previous cycle. After a batch in which the
    /// stamp wrapped, it is moved back to the same offset below `u32::MAX`
    /// with the arrays left as they are, standing in for the next cycle: a
    /// stamp of the old cycle written after a wrap's clear, or a clear
    /// that was skipped, then reads a necklace or label as already marked.
    /// Every batch must still match a fresh reset and `embed_into`.
    #[test]
    fn stamps_wrap_around_mid_stream() {
        const NEAR_WRAP: u32 = u32::MAX - 8;
        let ffc = Ffc::new(2, 10);
        let steps = ChurnPlan::new(7)
            .arrivals(24)
            .bursts(4, 0.5)
            .edge_fault_prob(0.2)
            .generate(&ffc);
        let (mut maint, mut fresh) = (RingMaintainer::new(), RingMaintainer::new());
        let mut scratch = EmbedScratch::new();
        let mut ring = Vec::new();
        for offset in 0..8u32 {
            maint.reset(&ffc, &[]).expect("in-range");
            maint.stamp = u32::MAX - offset;
            maint.dirty_stamp.fill(1);
            maint.label_stamp.fill(1);
            let mut wraps = 0;
            for (i, step) in steps.iter().enumerate() {
                maint
                    .apply_batch(&ffc, &step.batch)
                    .expect("generated events are valid");
                let ctx = format!("offset {offset} batch {i}");
                assert_matches_fresh(&ffc, &maint, &mut fresh, &mut scratch, &mut ring, &ctx);
                if maint.stamp < NEAR_WRAP {
                    maint.stamp = u32::MAX - offset;
                    wraps += 1;
                }
            }
            assert!(wraps >= 3, "offset {offset}: {wraps} event-stamp wraps");
        }
    }

    /// `reset` sizes the delta passes' bitmaps and n-sized reservations,
    /// so the first batch after it does not.
    #[test]
    fn reset_sizes_the_delta_scratch_before_the_first_batch() {
        let ffc = Ffc::new(2, 10);
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, &[]).expect("in-range");
        let sized = maint.delta.fitted_nodes();
        assert_eq!(
            sized,
            ffc.graph().len(),
            "reset left the delta scratch unsized"
        );
        maint.add_fault(&ffc, 341).expect("in-range");
        assert_eq!(
            maint.repairs().incremental,
            1,
            "the batch fell back to a rebuild"
        );
        assert_eq!(
            maint.delta.fitted_nodes(),
            sized,
            "the first batch resized the scratch"
        );
    }
}
