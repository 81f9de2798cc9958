//! The incremental fault-update engine: persistent phase outputs repaired
//! by delta passes.
//!
//! The phase pipeline of the engine recomputes everything per call; a
//! long-lived reconfiguration service absorbing a *stream* of fault events
//! should repair, not rebuild. [`RingMaintainer`] persists every phase's
//! output:
//!
//! * **Reachability snapshot** — the forward and backward BFS *level*
//!   arrays over the live graph (not just the reachable bitmaps: the
//!   levels are the certificate that makes node deletion repairable), the
//!   derived B* membership and |B*|;
//! * **Spanning tree** — the broadcast level array over B* plus its level
//!   histogram (the eccentricity is its maximum);
//! * **Necklace selection** — per-necklace records (earliest member Y,
//!   tree label w, parent necklace) and the per-label w-group child lists;
//! * **Cycle readoff** — the successor overrides and exit bitmap, from
//!   which the ring is walked on demand ([`RingMaintainer::ring_into`]).
//!
//! [`RingMaintainer::apply_batch`] absorbs [`FaultEvent`] batches mixing
//! node arrivals, node repairs and **link faults** in one fused delta pass
//! ([`RingMaintainer::add_fault`] / [`RingMaintainer::clear_fault`] are the
//! single-event shorthands). A fault arrival kills one necklace: the bit
//! engine's delta passes
//! ([`crate::bitreach::BitReach::levels_delete`]) invalidate exactly the
//! necklace's forward/backward cones (the nodes whose BFS support ran
//! through it) and re-settle them in increasing level order; a fault
//! removal re-expands from the healed frontier
//! ([`crate::bitreach::BitReach::levels_insert`]). Both are
//! **bit-identical to recompute** — BFS levels are canonical — so every
//! downstream phase repair (necklace re-selection, w-group rewiring) is
//! confined to the necklaces whose members or predecessor levels actually
//! changed, and the maintainer's stats and ring bytes equal a from-scratch
//! [`Ffc::embed_into`] of the accumulated fault set after every event
//! (pinned exhaustively over all arrival orders of ≤2-fault sets and by
//! B(2,14) property tests).
//!
//! When the delta's queue work exceeds a budget (a pathological cascade —
//! e.g. a huge region losing reachability at once), or when the event
//! changes the repair root, the maintainer falls back to a from-scratch
//! rebuild on the level-emitting passes, which costs one
//! `embed_into`-shaped pipeline run. [`RepairStats`] counts which path
//! each event took.
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

use crate::bitreach::{BitScratch, DeltaBudgetExceeded, DeltaScratch, LevelVec, UNREACHED};
use crate::mem::{grow_to, reserve_more};

use super::phases::{for_each_w_edge, read_off_cycle, RootProbe};
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
    // -- reachability snapshot --
    root: usize,
    root_neck: usize,
    /// Forward BFS levels from the root over live nodes (UNREACHED = dead
    /// or unreachable), in the compact one-byte-per-node encoding — 4×
    /// less DRAM traffic on every level sweep than the `Vec<u32>` it
    /// replaced.
    fwd_level: LevelVec,
    /// Backward BFS levels (distance *to* the root) over live nodes.
    bwd_level: LevelVec,
    /// B* membership: forward- and backward-reachable and live.
    in_bstar: Vec<bool>,
    component_size: usize,
    // -- spanning tree --
    /// Broadcast levels over the B*-induced subgraph (compact, published
    /// into snapshots as the level group).
    bcast_level: LevelVec,
    /// Histogram of `bcast_level` (eccentricity = the last non-zero bin).
    level_counts: Vec<u32>,
    max_level: usize,
    // -- necklace selection --
    /// Earliest-reached member Y per necklace (NONE = no tree record:
    /// dead, outside B*, or the root necklace).
    neck_chosen: Vec<u32>,
    /// Tree label w of the necklace's record (valid iff `neck_chosen` set).
    neck_label: Vec<u32>,
    /// Parent necklace of the record (valid iff `neck_chosen` set).
    neck_parent: Vec<u32>,
    /// d sorted child slots per label (NONE = empty): the necklaces whose
    /// tree edge carries this label. A label's w-group is its children
    /// plus their shared parent necklace.
    label_children: Vec<u32>,
    // -- cycle readoff --
    /// Successor overrides (meaningful where the exit bit is set).
    succ: Vec<u32>,
    /// Bit v set ⟺ node v leaves its necklace through a w-edge.
    exit_bits: Vec<u64>,
    // -- snapshot publication --
    /// Word-packed mirror of `in_bstar`, maintained incrementally — the
    /// membership bitmap [`RingMaintainer::publish`] freezes into
    /// snapshots without an O(n) repack.
    bstar_bits: Vec<u64>,
    /// Snapshot chunks whose `succ`/`exit_bits` changed since the last
    /// publication: the d exit slots of every rewired label.
    snap_ring_dirty: ChunkMask,
    /// Snapshot chunks whose `bstar_bits` changed since the last
    /// publication: the nodes of `moved_buf`/`moved_in_buf`.
    snap_bstar_dirty: ChunkMask,
    /// Snapshot chunks whose `bcast_level` changed since the last
    /// publication: the nodes of `bc_nodes`.
    snap_level_dirty: ChunkMask,
    // -- reusable machinery --
    bits: BitScratch,
    delta: DeltaScratch,
    /// CSR buffers of the level-emitting rebuild passes.
    nodes_buf: Vec<u32>,
    offsets_buf: Vec<u32>,
    /// Per-necklace best (level, node) fold of the rebuild.
    best_key: Vec<u64>,
    best_stamp: Vec<u32>,
    live_necks: Vec<u32>,
    /// Event-scoped dedup stamps and worklists of the delta path.
    stamp: u32,
    cand_stamp: Vec<u32>,
    cand_buf: Vec<u32>,
    batch_buf: Vec<u32>,
    moved_buf: Vec<u32>,
    /// Seeds of the batched insert passes (members of revived necklaces).
    ins_buf: Vec<u32>,
    /// Candidates that *joined* B* this batch (mirror of `moved_buf`).
    moved_in_buf: Vec<u32>,
    /// Merged broadcast change log of one batch: nodes whose broadcast
    /// level changed across the delete *and* insert passes, each with its
    /// first-seen (true pre-batch) level.
    bc_nodes: Vec<u32>,
    bc_old: Vec<u32>,
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
    member_buf: Vec<u32>,
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
        self.in_bstar[v]
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
            &self.exit_bits,
            &self.succ,
            out,
        );
    }

    /// Histogram of the forward BFS levels over live nodes (index = level,
    /// value = nodes first reached at that level). This is exactly the
    /// per-round new-receiver count of the distributed protocol's
    /// broadcast phase, which the netsim online harness asserts its
    /// message trace against.
    #[must_use]
    pub fn forward_level_counts(&self) -> Vec<usize> {
        let mut counts = Vec::new();
        for v in 0..self.n_nodes {
            let l = self.fwd_level.get(v);
            if l == UNREACHED {
                continue;
            }
            let l = l as usize;
            if counts.len() <= l {
                counts.resize(l + 1, 0usize);
            }
            counts[l] += 1;
        }
        counts
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
        let snap = publisher.build(SnapshotParts {
            d: self.d,
            suffix: self.suffix,
            n_nodes: self.n_nodes,
            stats: self.stats(),
            ring_dirty: &self.snap_ring_dirty,
            bstar_dirty: &self.snap_bstar_dirty,
            level_dirty: &self.snap_level_dirty,
            succ: &self.succ[..self.n_nodes],
            exit_bits: &self.exit_bits[..words],
            bstar_bits: &self.bstar_bits[..words],
            bcast_level: &self.bcast_level,
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

    /// Bytes currently reserved by the three per-node level arrays —
    /// the footprint the benchmark's `level_bytes` column audits against
    /// the `3 · 4 · n` a `u32` encoding would pay.
    #[must_use]
    pub fn level_bytes(&self) -> usize {
        self.fwd_level.allocated_bytes()
            + self.bwd_level.allocated_bytes()
            + self.bcast_level.allocated_bytes()
    }

    /// Total bytes currently reserved by the maintainer's buffers —
    /// constant across repair events at a fixed (d, n), the incremental
    /// engine's analogue of [`super::EmbedScratch::allocated_bytes`].
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        self.node_faulty.capacity()
            + self.node_dead.capacity()
            + self.in_bstar.capacity()
            + std::mem::size_of::<usize>() * self.fault_list.capacity()
            + self.level_bytes()
            + 4 * (self.fault_pos.capacity()
                + self.neck_fault_count.capacity()
                + self.level_counts.capacity()
                + self.neck_chosen.capacity()
                + self.neck_label.capacity()
                + self.neck_parent.capacity()
                + self.label_children.capacity()
                + self.succ.capacity()
                + self.nodes_buf.capacity()
                + self.offsets_buf.capacity()
                + self.best_stamp.capacity()
                + self.live_necks.capacity()
                + self.cand_stamp.capacity()
                + self.cand_buf.capacity()
                + self.batch_buf.capacity()
                + self.moved_buf.capacity()
                + self.edge_src.capacity()
                + self.ins_buf.capacity()
                + self.moved_in_buf.capacity()
                + self.bc_nodes.capacity()
                + self.bc_old.capacity()
                + self.killed_necks.capacity()
                + self.revived_necks.capacity()
                + self.dirty_stamp.capacity()
                + self.dirty_necks.capacity()
                + self.label_stamp.capacity()
                + self.dirty_labels.capacity()
                + self.member_buf.capacity())
            + 8 * (self.exit_bits.capacity()
                + self.bstar_bits.capacity()
                + self.best_key.capacity()
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
            for arr in [
                &mut self.cand_stamp,
                &mut self.best_stamp,
                &mut self.dirty_stamp,
                &mut self.label_stamp,
            ] {
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
        grow_to(&mut self.in_bstar, n, false);
        grow_to(&mut self.fault_pos, n, NONE);
        grow_to(&mut self.edge_src, n, 0);
        self.fwd_level.grow(n);
        self.bwd_level.grow(n);
        self.bcast_level.grow(n);
        grow_to(&mut self.succ, n, 0);
        grow_to(&mut self.label_children, t.suffix_count * t.d, NONE);
        grow_to(&mut self.cand_stamp, n, 0);
        grow_to(&mut self.exit_bits, n.div_ceil(64), 0);
        grow_to(&mut self.bstar_bits, n.div_ceil(64), 0);
        grow_to(&mut self.neck_fault_count, self.n_necks, 0);
        grow_to(&mut self.neck_chosen, self.n_necks, NONE);
        grow_to(&mut self.neck_label, self.n_necks, 0);
        grow_to(&mut self.neck_parent, self.n_necks, 0);
        grow_to(&mut self.best_key, self.n_necks, 0);
        grow_to(&mut self.best_stamp, self.n_necks, 0);
        grow_to(&mut self.dirty_stamp, self.n_necks, 0);
        grow_to(&mut self.label_stamp, t.suffix_count, 0);
        // Worklists are presized to their worst-case bounds so repair
        // events never grow them; `level_counts` can in principle index up
        // to n_nodes - 1 during a delete cascade, so it gets full range.
        reserve_more(&mut self.fault_list, n);
        reserve_more(&mut self.cand_buf, n);
        reserve_more(&mut self.moved_buf, n);
        reserve_more(&mut self.batch_buf, n);
        reserve_more(&mut self.ins_buf, n);
        reserve_more(&mut self.moved_in_buf, n);
        reserve_more(&mut self.bc_nodes, n);
        reserve_more(&mut self.bc_old, n);
        reserve_more(&mut self.touched_necks, self.n_necks);
        reserve_more(&mut self.killed_necks, self.n_necks);
        reserve_more(&mut self.revived_necks, self.n_necks);
        // Link-fault lists grow amortised (they are bounded by n·d, far
        // beyond any realistic churn trace; a small reservation keeps the
        // common case allocation-free).
        reserve_more(&mut self.edge_faults, 16);
        reserve_more(&mut self.nodes_buf, n);
        reserve_more(&mut self.offsets_buf, n + 2);
        reserve_more(&mut self.level_counts, n + 1);
        reserve_more(&mut self.live_necks, self.n_necks);
        reserve_more(&mut self.dirty_necks, self.n_necks);
        reserve_more(&mut self.dirty_labels, t.suffix_count);
        reserve_more(&mut self.member_buf, t.d + 1);
        self.probe.fit(n);
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
    fn enter_infeasible(&mut self) {
        let n = self.n_nodes;
        self.root = INFEASIBLE_ROOT;
        self.root_neck = usize::MAX;
        self.fwd_level.fill_unreached();
        self.bwd_level.fill_unreached();
        self.bcast_level.fill_unreached();
        self.in_bstar[..n].fill(false);
        self.component_size = 0;
        self.level_counts.clear();
        self.max_level = 0;
        self.neck_chosen[..self.n_necks].fill(NONE);
        self.label_children[..self.suffix * self.d].fill(NONE);
        self.exit_bits[..n.div_ceil(64)].fill(0);
        self.bstar_bits[..n.div_ceil(64)].fill(0);
        self.dirty_all_chunks();
    }

    // ------------------------------------------------------------------
    // The from-scratch rebuild (fallback and initialisation).
    // ------------------------------------------------------------------

    /// Runs the full phase pipeline into the maintainer: the level-emitting
    /// reachability passes, B* and the broadcast histogram, every
    /// necklace record, the w-group tables and the exit/override wiring.
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
            self.enter_infeasible();
            return;
        };
        self.root = root;
        self.root_neck = membership[self.root] as usize;

        // Reachability snapshot, with levels persisted.
        let _ = reach.forward_levels(
            &mut self.bits,
            self.root,
            &mut self.nodes_buf,
            &mut self.offsets_buf,
        );
        scatter_levels(&mut self.fwd_level, n, &self.nodes_buf, &self.offsets_buf);
        let _ = reach.backward_levels(
            &mut self.bits,
            self.root,
            &mut self.nodes_buf,
            &mut self.offsets_buf,
        );
        scatter_levels(&mut self.bwd_level, n, &self.nodes_buf, &self.offsets_buf);

        // Spanning tree: one fused chunk-streamed pass writes the B* mask
        // (fwd ∧ bwd ∧ ¬dead), counts |B*| and seeds the broadcast
        // visited set, then emits the broadcast levels over B* — no
        // separate bstar-bitmap or component-count sweeps.
        let words = n.div_ceil(64);
        let (component, reached, depth) = reach.broadcast_levels_bstar(
            &mut self.bits,
            self.root,
            &mut self.nodes_buf,
            &mut self.offsets_buf,
            &mut self.bstar_bits[..words],
        );
        self.in_bstar[..n].fill(false);
        for (j, &word) in self.bstar_bits[..words].iter().enumerate() {
            let mut w = word;
            while w != 0 {
                self.in_bstar[j * 64 + w.trailing_zeros() as usize] = true;
                w &= w - 1;
            }
        }
        self.component_size = component;
        self.dirty_all_chunks();
        debug_assert_eq!(reached, component, "broadcast must cover B*");
        let _ = reached;
        scatter_levels(&mut self.bcast_level, n, &self.nodes_buf, &self.offsets_buf);
        self.level_counts.clear();
        self.level_counts.resize(depth + 1, 0);
        for l in 0..=depth {
            self.level_counts[l] = self.offsets_buf[l + 1] - self.offsets_buf[l];
        }
        self.max_level = depth;

        // Necklace selection: per-necklace earliest members, labels,
        // parents; then the per-label child tables and the wiring.
        self.neck_chosen[..self.n_necks].fill(NONE);
        self.label_children[..self.suffix * self.d].fill(NONE);
        let words = n.div_ceil(64);
        self.exit_bits[..words].fill(0);
        let stamp = self.bump_stamp();
        self.live_necks.clear();
        for l in 0..=depth {
            let (lo, hi) = (
                self.offsets_buf[l] as usize,
                self.offsets_buf[l + 1] as usize,
            );
            for &v in &self.nodes_buf[lo..hi] {
                let nid = membership[v as usize] as usize;
                if nid == self.root_neck {
                    continue;
                }
                let key = ((l as u64) << 32) | u64::from(v);
                if self.best_stamp[nid] != stamp {
                    self.best_stamp[nid] = stamp;
                    self.best_key[nid] = key;
                    self.live_necks.push(nid as u32);
                } else if key < self.best_key[nid] {
                    self.best_key[nid] = key;
                }
            }
        }
        self.dirty_labels.clear();
        for i in 0..self.live_necks.len() {
            let nid = self.live_necks[i] as usize;
            let chosen = (self.best_key[nid] & u64::from(u32::MAX)) as usize;
            let (label, parent_neck) = self.record_fields(ffc, chosen);
            self.neck_chosen[nid] = chosen as u32;
            self.neck_label[nid] = label as u32;
            self.neck_parent[nid] = parent_neck as u32;
            insert_child(&mut self.label_children, self.d, label, nid as u32);
            if self.label_stamp[label] != stamp {
                self.label_stamp[label] = stamp;
                self.dirty_labels.push(label as u32);
            }
        }
        for i in 0..self.dirty_labels.len() {
            let label = self.dirty_labels[i] as usize;
            self.rewire_label(ffc, label);
        }
    }

    /// The (label, parent necklace) of a chosen node: its (n−1)-digit
    /// prefix and its minimal predecessor one broadcast level up.
    fn record_fields(&self, ffc: &Ffc, chosen: usize) -> (usize, usize) {
        let (d, suffix) = (self.d, self.suffix);
        let label = chosen / d;
        let lvl = self.bcast_level.get(chosen);
        debug_assert!(lvl != UNREACHED && lvl >= 1, "chosen node outside the tree");
        let parent = (0..d)
            .map(|a| label + a * suffix)
            .find(|&p| self.bcast_level.get(p) == lvl - 1)
            // PANIC-OK: a chosen node sits at broadcast level >= 1, so one
            // of its d predecessors was on the frontier one level up — the
            // debug_assert above states the invariant and the exhaustive
            // differential suites pin it; reachable only via memory
            // corruption, never via caller input.
            .expect("chosen node with no frontier predecessor");
        (label, ffc.partition.membership()[parent] as usize)
    }

    // ------------------------------------------------------------------
    // The delta repairs.
    // ------------------------------------------------------------------

    /// The fused delta path of one event batch: one delete pass seeded by
    /// **every** killed necklace's members and one insert pass seeded by
    /// every revived necklace's members, per level structure — k
    /// simultaneous arrivals cost one frontier settlement instead of k.
    ///
    /// Order matters only between the two passes, not inside them: the
    /// delete pass runs with the *final* liveness predicate (revived nodes
    /// are already live but still hold `UNREACHED`, so they offer no
    /// support), which makes its result the canonical levels of the
    /// mid-state graph; the insert pass then re-expands from the revived
    /// members and settles the canonical levels of the final graph. The
    /// broadcast structure is repaired the same way from the nodes that
    /// left/joined B*, with both passes' change logs merged (first-seen
    /// old levels) so the histogram update counts each node once.
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
        let stamp = self.bump_stamp();
        self.cand_buf.clear();
        // One budget covers the whole batch: each pass deducts the pops it
        // consumed, so the per-batch cap holds across all structures.
        let mut remaining = budget;

        {
            let Self {
                fwd_level,
                bwd_level,
                node_dead,
                delta,
                batch_buf,
                ins_buf,
                cand_buf,
                cand_stamp,
                ..
            } = self;
            let mut fold = |seeds: &[u32], delta: &DeltaScratch| {
                for &u in seeds.iter().chain(delta.changed_nodes()) {
                    if cand_stamp[u as usize] != stamp {
                        cand_stamp[u as usize] = stamp;
                        cand_buf.push(u);
                    }
                }
            };
            for pass in 0..2 {
                let (levels, backward) = if pass == 0 {
                    (&mut *fwd_level, false)
                } else {
                    (&mut *bwd_level, true)
                };
                if !batch_buf.is_empty() {
                    let pops = reach.levels_delete(
                        &mut *levels,
                        delta,
                        batch_buf,
                        |u| !node_dead[u],
                        backward,
                        remaining,
                    )?;
                    remaining = remaining.saturating_sub(pops);
                    fold(batch_buf, delta);
                }
                if !ins_buf.is_empty() {
                    let pops = reach.levels_insert(
                        &mut *levels,
                        delta,
                        ins_buf,
                        |u| !node_dead[u],
                        backward,
                        remaining,
                    )?;
                    remaining = remaining.saturating_sub(pops);
                    fold(ins_buf, delta);
                }
            }
        }

        // B* transitions: candidates that lost or gained membership.
        self.moved_buf.clear();
        self.moved_in_buf.clear();
        for i in 0..self.cand_buf.len() {
            let u = self.cand_buf[i] as usize;
            let now = !self.node_dead[u]
                && self.fwd_level.get(u) != UNREACHED
                && self.bwd_level.get(u) != UNREACHED;
            if self.in_bstar[u] == now {
                continue;
            }
            self.in_bstar[u] = now;
            self.bstar_bits[u / 64] ^= 1u64 << (u % 64);
            self.snap_bstar_dirty.mark(u);
            if now {
                self.moved_in_buf.push(u as u32);
            } else {
                self.moved_buf.push(u as u32);
            }
        }
        self.component_size = self.component_size - self.moved_buf.len() + self.moved_in_buf.len();

        // Broadcast repair, with the two passes' change logs merged into
        // `bc_nodes`/`bc_old` keeping each node's first-seen (true
        // pre-batch) level — a node deleted then re-inserted must update
        // the histogram exactly once, old -> final.
        self.bc_nodes.clear();
        self.bc_old.clear();
        let bstamp = self.bump_stamp();
        {
            let Self {
                bcast_level,
                in_bstar,
                delta,
                moved_buf,
                moved_in_buf,
                bc_nodes,
                bc_old,
                cand_stamp,
                ..
            } = self;
            let mut merge = |delta: &DeltaScratch| {
                for (i, &u) in delta.changed_nodes().iter().enumerate() {
                    if cand_stamp[u as usize] != bstamp {
                        cand_stamp[u as usize] = bstamp;
                        bc_nodes.push(u);
                        bc_old.push(delta.old_levels()[i]);
                    }
                }
            };
            if !moved_buf.is_empty() {
                let pops = reach.levels_delete(
                    &mut *bcast_level,
                    delta,
                    moved_buf,
                    |u| in_bstar[u],
                    false,
                    remaining,
                )?;
                remaining = remaining.saturating_sub(pops);
                merge(delta);
            }
            if !moved_in_buf.is_empty() {
                let _ = reach.levels_insert(
                    &mut *bcast_level,
                    delta,
                    moved_in_buf,
                    |u| in_bstar[u],
                    false,
                    remaining,
                )?;
                merge(delta);
            }
        }
        self.absorb_bcast_changes(ffc);
        Ok(())
    }

    /// Applies the batch's merged broadcast change log
    /// (`bc_nodes`/`bc_old`): histogram (and eccentricity) updates, then
    /// re-selection of every necklace whose members or predecessor levels
    /// changed, then rewiring of every w-group whose membership or parent
    /// changed.
    fn absorb_bcast_changes(&mut self, ffc: &Ffc) {
        let membership = ffc.partition.membership();
        let (d, suffix) = (self.d, self.suffix);
        // Histogram.
        for i in 0..self.bc_nodes.len() {
            let u = self.bc_nodes[i] as usize;
            self.snap_level_dirty.mark(u);
            let old = self.bc_old[i];
            if old != UNREACHED {
                self.level_counts[old as usize] -= 1;
            }
            let new = self.bcast_level.get(u);
            if new != UNREACHED {
                let new = new as usize;
                if self.level_counts.len() <= new {
                    self.level_counts.resize(new + 1, 0);
                }
                self.level_counts[new] += 1;
                self.max_level = self.max_level.max(new);
            }
        }
        while self.max_level > 0 && self.level_counts[self.max_level] == 0 {
            self.max_level -= 1;
        }
        debug_assert_eq!(
            self.level_counts.iter().map(|&c| c as usize).sum::<usize>(),
            self.component_size,
            "histogram out of sync with |B*|"
        );

        // Dirty necklaces: those of changed nodes (their earliest member
        // may differ) and of their B* successors (their chosen node's
        // minimal predecessor may differ).
        let stamp = self.bump_stamp();
        self.dirty_necks.clear();
        self.dirty_labels.clear();
        {
            let Self {
                bc_nodes,
                dirty_necks,
                dirty_stamp,
                in_bstar,
                ..
            } = self;
            let mut mark = |nid: usize| {
                if dirty_stamp[nid] != stamp {
                    dirty_stamp[nid] = stamp;
                    dirty_necks.push(nid as u32);
                }
            };
            for &u in bc_nodes.iter() {
                let u = u as usize;
                mark(membership[u] as usize);
                let base = (u % suffix) * d;
                for a in 0..d {
                    let s = base + a;
                    if in_bstar[s] {
                        mark(membership[s] as usize);
                    }
                }
            }
        }
        for i in 0..self.dirty_necks.len() {
            let nid = self.dirty_necks[i] as usize;
            self.refresh_neck(ffc, nid, stamp);
        }
        for i in 0..self.dirty_labels.len() {
            let label = self.dirty_labels[i] as usize;
            self.rewire_label(ffc, label);
        }
    }

    /// Recomputes one necklace's tree record from the current broadcast
    /// levels and updates the per-label child tables, marking every label
    /// whose group changed.
    fn refresh_neck(&mut self, ffc: &Ffc, nid: usize, stamp: u32) {
        if nid == self.root_neck {
            return;
        }
        let members = ffc.partition.members(nid);
        let rep = members[0] as usize;
        let had = self.neck_chosen[nid] != NONE;
        let old_label = self.neck_label[nid] as usize;
        if !self.in_bstar[rep] {
            if had {
                remove_child(&mut self.label_children, self.d, old_label, nid as u32);
                mark_label(
                    old_label,
                    stamp,
                    &mut self.dirty_labels,
                    &mut self.label_stamp,
                );
                self.neck_chosen[nid] = NONE;
            }
            return;
        }
        let mut best = u64::MAX;
        for &m in members {
            let lvl = self.bcast_level.get(m as usize);
            debug_assert!(lvl != UNREACHED, "B* necklace member without a level");
            let key = (u64::from(lvl) << 32) | u64::from(m);
            best = best.min(key);
        }
        let chosen = (best & u64::from(u32::MAX)) as usize;
        let (label, parent_neck) = self.record_fields(ffc, chosen);
        let group_changed =
            !had || old_label != label || self.neck_parent[nid] as usize != parent_neck;
        self.neck_chosen[nid] = chosen as u32;
        self.neck_label[nid] = label as u32;
        self.neck_parent[nid] = parent_neck as u32;
        if !group_changed {
            return;
        }
        if had {
            remove_child(&mut self.label_children, self.d, old_label, nid as u32);
            mark_label(
                old_label,
                stamp,
                &mut self.dirty_labels,
                &mut self.label_stamp,
            );
        }
        insert_child(&mut self.label_children, self.d, label, nid as u32);
        mark_label(label, stamp, &mut self.dirty_labels, &mut self.label_stamp);
    }

    /// Unwires and (if the label still has children) rewires one w-group:
    /// the group's member necklaces — its children plus their shared
    /// parent, in necklace-id order — are closed into a directed cycle of
    /// w-edges, exactly like the engines' `wire_w_groups`.
    fn rewire_label(&mut self, ffc: &Ffc, label: usize) {
        let (d, suffix) = (self.d, self.suffix);
        let membership = ffc.partition.membership();
        // Every possible exit of label w is one of the d nodes a·suffix+w;
        // rewiring rewrites their exit bits and overrides unconditionally,
        // so their snapshot chunks are dirty.
        for a in 0..d {
            let e = a * suffix + label;
            self.exit_bits[e / 64] &= !(1u64 << (e % 64));
            self.snap_ring_dirty.mark(e);
        }
        let base = label * d;
        let child_count = self.label_children[base..base + d]
            .iter()
            .take_while(|&&c| c != NONE)
            .count();
        if child_count == 0 {
            return;
        }
        let parent = self.neck_parent[self.label_children[base] as usize];
        self.member_buf.clear();
        let mut inserted = false;
        for i in 0..child_count {
            let c = self.label_children[base + i];
            debug_assert_eq!(
                self.neck_parent[c as usize], parent,
                "T_w must have a single parent necklace (height-one property)"
            );
            if !inserted && parent < c {
                self.member_buf.push(parent);
                inserted = true;
            }
            if c == parent {
                inserted = true;
            }
            self.member_buf.push(c);
        }
        if !inserted {
            self.member_buf.push(parent);
        }
        let Self {
            member_buf,
            succ,
            exit_bits,
            in_bstar,
            ..
        } = self;
        for_each_w_edge(d, suffix, membership, label, member_buf, |exit, entry| {
            debug_assert!(in_bstar[entry]);
            succ[exit] = entry as u32;
            exit_bits[exit / 64] |= 1u64 << (exit % 64);
        });
    }
}

impl RingMaintainer {
    /// Creates an empty maintainer (automatic budget).
    /// [`RingMaintainer::reset`] must run before the first event.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the delta work budget — queue pops per event, shared
    /// across the event's forward/backward/broadcast repairs — above
    /// which an event falls back to a rebuild. `None` restores the automatic
    /// budget, `max(1024, d^n)` — a queue pop (a handful of implicit-edge
    /// probes) costs well under what the rebuild pays per node across its
    /// level-emitting passes and scatters, so the break-even sits near
    /// one pop per node. A budget of 0 forces every event to rebuild (the
    /// differential tests use this to pin fallback equality).
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
                self.enter_infeasible();
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

/// Marks a label dirty exactly once per event.
fn mark_label(label: usize, stamp: u32, labels: &mut Vec<u32>, stamps: &mut [u32]) {
    if stamps[label] != stamp {
        stamps[label] = stamp;
        labels.push(label as u32);
    }
}

/// Scatters a level CSR into a compact per-node level array (UNREACHED
/// holes).
fn scatter_levels(lv: &mut LevelVec, n_nodes: usize, nodes: &[u32], offsets: &[u32]) {
    lv.grow(n_nodes);
    lv.fill_unreached();
    for l in 0..offsets.len().saturating_sub(1) {
        for &v in &nodes[offsets[l] as usize..offsets[l + 1] as usize] {
            lv.set(v as usize, l as u32);
        }
    }
}

/// Inserts `nid` into label `label`'s sorted child slots.
fn insert_child(children: &mut [u32], d: usize, label: usize, nid: u32) {
    let base = label * d;
    let slots = &mut children[base..base + d];
    debug_assert_eq!(slots[d - 1], NONE, "a label can have at most d children");
    let mut pos = 0;
    while slots[pos] != NONE && slots[pos] < nid {
        pos += 1;
    }
    debug_assert_ne!(slots[pos], nid, "child inserted twice");
    slots[pos..].rotate_right(1);
    slots[pos] = nid;
}

/// Removes `nid` from label `label`'s sorted child slots.
fn remove_child(children: &mut [u32], d: usize, label: usize, nid: u32) {
    let base = label * d;
    let slots = &mut children[base..base + d];
    let pos = slots
        .iter()
        .position(|&c| c == nid)
        // PANIC-OK: callers only remove a child they previously inserted
        // (the w-group records are repaired in lockstep with the tree);
        // a miss means maintainer state corruption, not bad caller input —
        // pinned by the exhaustive repair-equality suites.
        .expect("removing a child that is not in the label's group");
    slots[pos..].rotate_left(1);
    slots[d - 1] = NONE;
}
