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
//! per-call mutable state — the bit-parallel reachability bitmaps (the
//! word-packed fault mask among them, the only record of which necklaces
//! are dead), the spanning-tree stage (the one-byte broadcast
//! levels, which the forward pass writes straight from its frontier, a
//! dense one a bitmap word at a time, the
//! per-necklace records, and the ring wiring: an exit bitmap plus one
//! packed entry digit per node), and the output cycle buffer. After the
//! first call at a given (d, n) ("warm-up"), [`Ffc::embed_into`] performs
//! **no heap allocation**: buffers only ever grow.
//!
//! Per call the engine does:
//!
//! * **Component and broadcast**: one forward BFS from the root over the
//!   implicit successor arithmetic of B(d,n), restricted to live nodes.
//!   Faults remove whole necklaces, each necklace is a rotation cycle, and
//!   every edge αz → zβ between two necklaces has a twin βz → zα between
//!   the same two necklaces the other way (N*'s antiparallel w-edges,
//!   [`crate::necklace_graph`]). So every live node the root reaches also
//!   reaches the root: the forward set is the strongly connected component
//!   B* — no Tarjan pass and no backward BFS — and its levels are the
//!   broadcast levels over B* that the tree stage reads (the minimal
//!   predecessor one level up breaks ties). The oracles keep their own
//!   backward reachability, and the differential suites check the two
//!   agree.
//! * **Cycle construction**: one record per necklace (its earliest member
//!   Y and the leading digit α_p of its parent node α_p·w) in a flat
//!   array, Y chosen by a fold over the members' raw level bytes. Since
//!   N(αw) = N(wα) for every digit α, the w-group of label w lies in the
//!   d necklace ids of the nodes w·d+α, one block of the membership
//!   table, and is derived from their records with no hash map, search or
//!   group table; at d = 2 a group is one child and its parent, wired
//!   straight from the child's record. A w-exit αw's successor is its
//!   entry w·d+β, so the wiring stores only β: b bits per node (b the
//!   smallest power of two ≥ ⌈log2 d⌉, one bit at d = 2), non-zero only at
//!   the exits, which a word-packed exit bitmap flags. The cycle is read
//!   off by a streaming walk that computes every other step as a necklace
//!   rotation.
//!
//! The textbook formulation (materialised SCCs + hash-map groups) is kept
//! as [`crate::oracle::embed_reference`]; it is used by the differential
//! tests and as the baseline in the Criterion benchmarks.
//!
//! This module is the *centralized* reference implementation; the
//! message-passing version that mirrors Section 2.4 round by round lives in
//! the `dbg-netsim` crate and is checked against this one.

use dbg_graph::DeBruijn;
use dbg_necklace::NecklacePartition;

use crate::bitreach::{BitReach, BitScratch, SpaceTooLarge};
use crate::mem::reserve_more;

mod phases;
pub mod session;
pub mod snapshot;

#[cfg(test)]
mod tests;

pub(crate) use phases::{probe_root, TreeStage};
pub use session::{FaultEvent, RepairError, RepairOutcome, RepairStats, RingMaintainer};
pub use snapshot::{LookupError, RingSnapshot, SnapshotPublisher};

/// The FFC embedder for a fixed B(d,n): owns the necklace partition and the
/// engine's immutable lookup tables so that repeated embeddings (e.g. the
/// Monte-Carlo sweeps of Tables 2.1/2.2) recompute nothing.
#[derive(Clone, Debug)]
pub struct Ffc {
    graph: DeBruijn,
    partition: NecklacePartition,
    pub(crate) tables: EngineTables,
}

/// Immutable engine constants shared by every embedding at a fixed (d, n).
/// The per-necklace tables (representatives, lengths, member CSR) live on
/// the [`NecklacePartition`], which builds them in its single
/// FKM-enumeration pass — the engine no longer duplicates them.
#[derive(Clone, Debug)]
pub(crate) struct EngineTables {
    /// Alphabet size d, as usize for index arithmetic.
    pub(crate) d: usize,
    /// d^(n−1): the place value of the leading digit, and the number of
    /// distinct (n−1)-digit edge labels.
    pub(crate) suffix_count: usize,
    /// d^n.
    pub(crate) n_nodes: usize,
    /// Number of necklaces.
    pub(crate) n_necks: usize,
    /// The bit-parallel reachability engine for this shape.
    pub(crate) reach: BitReach,
}

/// The result of one FFC embedding.
#[derive(Clone, Debug)]
pub struct FfcOutcome {
    /// The root processor R used for the broadcast (always the minimal node
    /// of its necklace), or `usize::MAX` when every necklace is faulty and
    /// no ring exists (the cycle is then empty and |B*| = 0).
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
    /// The root processor R used for the broadcast, or `usize::MAX` when
    /// every necklace is faulty: no root exists, |B*| and the eccentricity
    /// are 0 and the cycle is empty.
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

/// The root of a fault set that kills every necklace: no ring exists. It
/// compares unequal to every real node id.
pub(crate) const INFEASIBLE_ROOT: usize = usize::MAX;

/// Reusable per-call state for the embedding engine.
///
/// One scratch serves any number of [`Ffc::embed_into`] calls (including
/// across different (d, n) — buffers grow to the largest graph seen and
/// never shrink). Each call clears the bit engine's fault mask and kills
/// the faulty necklaces in it; fault marking, the root probe and the
/// forward pass all read that one mask. After the first call at a fixed
/// (d, n), **no method of this type allocates**.
#[derive(Clone, Debug, Default)]
pub struct EmbedScratch {
    /// Word-packed bitmaps and frontiers of the bit-parallel reachability
    /// engine (the fault mask and the forward visited set).
    pub(crate) bits: BitScratch,
    /// The spanning-tree stage — broadcast levels, necklace records, exit
    /// bitmap and entry digits — sized by the first full-ring call; the
    /// stats-only path never touches it.
    tree: TreeStage,
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
        self.bits.allocated_bytes()
            + self.tree.allocated_bytes()
            + std::mem::size_of::<usize>() * self.cycle.capacity()
    }

    /// Clears the cycle and reserves it for any fault pattern.
    fn prepare(&mut self, t: &EngineTables) {
        // The cycle is presized to its worst case, every node, so no fault
        // pattern can grow it after the first call at this size.
        self.cycle.clear();
        reserve_more(&mut self.cycle, t.n_nodes);
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
    /// non-faulty node by breadth-first distance is used instead, matching
    /// the protocol of Section 2.5.2). When every necklace is
    /// faulty the outcome is infeasible: root `usize::MAX`, empty cycle.
    ///
    /// Allocates a fresh [`EmbedScratch`] per call; steady-state callers
    /// (sweeps, services) should hold a scratch and use
    /// [`Ffc::embed_into`].
    #[must_use]
    pub fn embed(&self, faulty_nodes: &[usize]) -> FfcOutcome {
        let mut scratch = EmbedScratch::new();
        let stats = self.embed_into(&mut scratch, faulty_nodes);
        FfcOutcome {
            root: stats.root,
            cycle: scratch.cycle,
            component_size: stats.component_size,
            eccentricity: stats.eccentricity,
            faulty_necklaces: stats.faulty_necklaces,
            removed_nodes: stats.removed_nodes,
        }
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
    /// This is the same arithmetic probe the engine's root phase and the
    /// [`RingMaintainer`] run, fed the mask instead of their word-packed
    /// fault mask; it allocates nothing.
    ///
    /// # Panics
    /// Panics if every necklace is faulty.
    #[must_use]
    pub fn pick_root(&self, preferred: usize, faulty_mask: &[bool]) -> usize {
        let live = |v: usize| !faulty_mask[self.partition.id_of(v as u64)];
        probe_root(self.tables.d, self.tables.n_nodes, preferred, live)
            .expect("every node of B(d,n) lies on a faulty necklace")
    }
}
