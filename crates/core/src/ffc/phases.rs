//! The embedding pipeline, decomposed into named phases, and the rules
//! every embedding path shares.
//!
//! [`Ffc::embed_into`] runs every phase in order — fault marking, root
//! selection, one forward pass from the root (B* and its broadcast levels
//! at once, see [`Ffc::embed_into`]), the spanning-tree stage (necklace
//! selection and w-group wiring) and the cycle readoff.
//! [`Ffc::embed_stats_into`] runs the same first three phases without the
//! level writes and stops there. Each phase has one well-defined output,
//! which is what lets [`super::RingMaintainer`] persist the outputs and
//! repair them incrementally instead of re-running the pipeline per fault
//! event.
//!
//! The rules the maintainer and the snapshots share with the engine are
//! written here once: root selection with the Section 2.5.2 repair rule
//! ([`probe_root`]), the spanning-tree stage ([`TreeStage`]: each
//! necklace's record — its earliest member Y and the digit α_p of its
//! parent node α_p·w — and the two w-exits each record sets), the ring
//! successor ([`ring_step`]: the necklace rotation, or at a w-exit αw the
//! entry w·d+β, with β the next digit after α whose node βw is an exit)
//! and the ring walk built on it ([`read_off_cycle`]). The exit bitmap is
//! the whole wiring: no entry is stored.
//!
//! Every level-emitting pass writes its levels straight into a
//! [`LevelVec`](crate::mem::LevelVec) from the BFS frontier, a dense
//! frontier one bitmap word at a time; no pass materialises a per-level
//! node list.

use super::{EmbedScratch, EmbedStats, EngineTables, Ffc, INFEASIBLE_ROOT, NONE};
use crate::mem::{grow_to, reserve_more, LevelVec, UNREACHED};

impl Ffc {
    /// Embeds a fault-free cycle avoiding `faulty_nodes` using `scratch`
    /// for all mutable state; the cycle is left in [`EmbedScratch::cycle`].
    /// Root selection and the infeasible case follow [`Ffc::embed`]. After
    /// the scratch has warmed up at this (d, n), the call performs no heap
    /// allocation.
    ///
    /// The phases run serially: the front shared with
    /// [`Ffc::embed_stats_into`], one forward pass from the root that
    /// writes each node's level straight into the tree stage's level array,
    /// the spanning-tree stage (per-necklace records and the w-group wiring
    /// derived from them) and the streaming cycle readoff.
    ///
    /// That one pass is both the component search and the broadcast
    /// (Step 1.1): faults remove whole necklaces, so the forward set over
    /// live nodes *is* the strongly connected component B*, and its BFS
    /// levels are the broadcast levels over B* (the twin-edge argument in
    /// the [`crate::ffc`] module docs, "Component and broadcast").
    ///
    /// The tree stage derives each necklace's parent from the levels
    /// instead of materialising a whole-B* parent array.
    /// The readoff walks the necklace rotation arithmetically: no per-node
    /// successor array is materialised, and an entry is derived from the
    /// exit bitmap only where it is set — a pointer-chase through a
    /// B*-sized successor array is one dependent DRAM load per ring node,
    /// and it dominated the embed at a million nodes.
    pub fn embed_into(&self, scratch: &mut EmbedScratch, faulty_nodes: &[usize]) -> EmbedStats {
        let (t, s) = (&self.tables, scratch);
        let mut stats = self.phases_to_root(s, faulty_nodes, |_| {});
        if stats.root == INFEASIBLE_ROOT {
            return stats;
        }
        let root = stats.root;
        let (reached, depth) = t
            .reach
            .forward_levels(&mut s.bits, root, &mut s.tree.levels);
        stats.component_size = reached;
        stats.eccentricity = depth;
        let root_neck = self.partition.membership()[root] as usize;
        s.tree.build(self, root_neck);
        // The cycle is reserved for its worst case, every node, so no fault
        // pattern grows it after the first call at this size.
        reserve_more(&mut s.cycle, t.n_nodes);
        read_off_cycle(
            t.d,
            t.suffix_count,
            root,
            reached,
            &s.tree.exit_bits,
            &mut s.cycle,
        );
        stats
    }

    /// The scalar half of an embedding, without materialising the cycle:
    /// identical [`EmbedStats`] to [`Ffc::embed_into`] on the same faults
    /// (same root-repair policy, same component, same eccentricity), but
    /// the spanning-tree, successor-function and cycle-readoff phases are
    /// skipped entirely and [`EmbedScratch::cycle`] is left empty.
    ///
    /// Monte-Carlo sweeps that only tabulate component sizes and
    /// eccentricities (Tables 2.1/2.2) run [`Ffc::embed_batch`], which
    /// answers most such trials by a delta over the fault-free levels
    /// ([`crate::sweep`]); its other trials run this function's phases, and
    /// this function is the reference the delta is tested against.
    /// |B*| and the eccentricity are the count and depth of one
    /// forward pass from the root (B* is the forward set, see the
    /// [`crate::ffc`] module docs) on the bit-parallel engine
    /// ([`crate::bitreach`]): a direction-optimizing BFS whose dense regime
    /// advances 64 nodes per word op, with faulty necklaces masked out as
    /// word-packed pre-visited bits. Like `embed_into`, it performs no
    /// heap allocation after the scratch has warmed up at this (d, n).
    pub fn embed_stats_into(
        &self,
        scratch: &mut EmbedScratch,
        faulty_nodes: &[usize],
    ) -> EmbedStats {
        let mut stats = self.phases_to_root(scratch, faulty_nodes, |_| {});
        if stats.root != INFEASIBLE_ROOT {
            let (reached, depth) = self.tables.reach.forward(&mut scratch.bits, stats.root);
            stats.component_size = reached;
            stats.eccentricity = depth;
        }
        stats
    }

    /// The front both embedding paths share: fault marking and root
    /// selection. It empties the cycle, which only [`Ffc::embed_into`]
    /// refills.
    ///
    /// The root is the default root if its necklace survives, otherwise
    /// the nearest live node ([`probe_root`] on the fault mask, Section
    /// 2.5.2), normalised to the minimal node of its necklace so N(R) = [R].
    ///
    /// `killed` sees the members of each faulty necklace once, as the
    /// marking kills them (the stats-only sweep trials collect them).
    ///
    /// Returns the stats so far, with |B*| and the eccentricity left 0 for
    /// the caller's forward pass. When every necklace is faulty no root
    /// exists: the stats come back with root [`INFEASIBLE_ROOT`].
    pub(crate) fn phases_to_root(
        &self,
        s: &mut EmbedScratch,
        faulty_nodes: &[usize],
        killed: impl FnMut(&[u32]),
    ) -> EmbedStats {
        let t = &self.tables;
        s.cycle.clear();
        t.reach.prepare(&mut s.bits);
        let (faulty_necklaces, removed_nodes) = self.phase_mark_faults(s, faulty_nodes, killed);
        let live = |v: usize| !t.reach.is_dead(&s.bits, v);
        let root = probe_root(t.d, t.n_nodes, self.default_root(), live);
        EmbedStats {
            root: root.map_or(INFEASIBLE_ROOT, |r| self.representative_of(r)),
            component_size: 0,
            eccentricity: 0,
            faulty_necklaces,
            removed_nodes,
        }
    }

    /// Fault-marking phase: kills each faulty necklace's members in the
    /// word-packed fault mask once, handing them to `killed`; a fault on an
    /// already-killed necklace is itself dead and is skipped. Returns
    /// `(faulty_necklaces, removed_nodes)`.
    fn phase_mark_faults(
        &self,
        s: &mut EmbedScratch,
        faulty_nodes: &[usize],
        mut killed: impl FnMut(&[u32]),
    ) -> (usize, usize) {
        let t = &self.tables;
        let membership = self.partition.membership();
        let mut faulty_necklaces = 0usize;
        let mut removed_nodes = 0usize;
        for &v in faulty_nodes {
            assert!(v < t.n_nodes, "faulty node id {v} out of range");
            if !t.reach.is_dead(&s.bits, v) {
                faulty_necklaces += 1;
                let members = self.partition.members(membership[v] as usize);
                removed_nodes += members.len();
                for &member in members {
                    t.reach.kill(&mut s.bits, member as usize);
                }
                killed(members);
            }
        }
        (faulty_necklaces, removed_nodes)
    }
}

/// Root selection with the Section 2.5.2 repair rule, the one
/// implementation behind every root of the engine, the maintainer,
/// [`Ffc::pick_root`] and the u8 oracle: `preferred` if it is `live`,
/// otherwise the nearest live node by breadth-first distance from
/// `preferred` over the *full* graph B(d,n) (faults ignored while
/// searching), ties broken by minimal node id. `None` when no node is
/// live.
///
/// No search is needed: the ends of the k-edge walks from v are the
/// aligned id range (v mod d^(n−k))·d^k + [0, d^k), so the ranges are
/// scanned for k = 0, 1, …, n (range n is the whole graph) and the first
/// live id wins. A node at distance j < k also lies in range j, which was
/// scanned and found dead, so the least live id of range k is the least
/// live node at distance k. Allocation-free; under 2·d^n `live` calls
/// when every node is dead. `oracle::bfs_root` is the BFS definition the
/// tests pin it to.
pub(crate) fn probe_root(
    d: usize,
    n_nodes: usize,
    preferred: usize,
    live: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut widths = std::iter::successors(Some(1), |&w| (w < n_nodes).then(|| w * d));
    widths.find_map(|width| {
        let start = preferred % (n_nodes / width) * width;
        (start..start + width).find(|&v| live(v))
    })
}

/// Node v = αw's out-neighbour w·d + x of B(d,n): (v mod s)·d + x with
/// s = `suffix` = d^(n−1). With `POW2` (d, and so s, a power of two) it
/// compiles to a mask, a shift and an OR instead of a division; callers
/// choose `POW2` once, outside their walk loop. Every ring successor has
/// this form: x is α along the necklace ([`rotate`]) and the entry's last
/// digit β along a w-edge ([`entry`]).
#[inline(always)]
fn shift_in<const POW2: bool>(v: usize, d: usize, suffix: usize, x: usize) -> usize {
    if POW2 {
        ((v & (suffix - 1)) << d.trailing_zeros()) | x
    } else {
        (v % suffix) * d + x
    }
}

/// The leading digit α of node v = αw.
#[inline(always)]
fn lead<const POW2: bool>(v: usize, suffix: usize) -> usize {
    if POW2 {
        v >> suffix.trailing_zeros()
    } else {
        v / suffix
    }
}

/// The necklace rotation of B(d,n), v ↦ (v mod s)·d + ⌊v / s⌋: the ring
/// successor of every node that does not leave its necklace through a
/// w-edge.
#[inline(always)]
fn rotate<const POW2: bool>(v: usize, d: usize, suffix: usize) -> usize {
    shift_in::<POW2>(v, d, suffix, lead::<POW2>(v, suffix))
}

/// The ring successor rule of the engine's readoff, the maintainer's walk
/// and the snapshots: a w-exit (`exit(v)`) enters w·d+β ([`entry`]), every
/// other node takes the necklace rotation.
///
/// The exit arm stays a call: inlined, the two d = 2 arms fold into the
/// branch-free `rotate(v) ^ exit`, which puts the exit load on every
/// step's dependency chain and cost a B(2,20) embed about 40% of its
/// throughput. `exit` goes to it by value: by reference, its escaping
/// address kept a snapshot reader's exit test from reusing the word its
/// membership test had loaded, and random checked pairs paid about 20%.
#[inline(always)]
pub(crate) fn ring_step<const POW2: bool>(
    v: usize,
    d: usize,
    suffix: usize,
    exit: impl Fn(usize) -> bool + Copy,
) -> usize {
    if exit(v) {
        entry::<POW2>(v, d, suffix, exit)
    } else {
        rotate::<POW2>(v, d, suffix)
    }
}

/// The entry w·d+β of the w-exit v = αw. Step 3 closes each w-group into
/// a cycle of w-edges in necklace-id order, which is digit order: the
/// member of digit α is N(wα), and for α < β each rotation of wα is below
/// the same rotation of wβ, so N(wα)'s representative and id are below
/// N(wβ)'s. A group's members are exactly the digits whose nodes of label
/// w are exits, so β is the first digit among α+1, α+2, … (mod d) whose
/// node βw is an exit — α ^ 1 at d = 2, where a group is one child and
/// its parent. The nodes βw lie d^(n−1) apart, so at d ≥ 3 this reads up
/// to d − 1 more exit bits.
#[inline(never)]
fn entry<const POW2: bool>(
    v: usize,
    d: usize,
    suffix: usize,
    exit: impl Fn(usize) -> bool,
) -> usize {
    let alpha = lead::<POW2>(v, suffix);
    let label = v - alpha * suffix;
    let beta = if d == 2 {
        Some(alpha ^ 1)
    } else {
        (alpha + 1..d)
            .chain(0..alpha)
            .find(|&b| exit(b * suffix + label))
    };
    debug_assert!(
        beta.is_some_and(|b| exit(b * suffix + label)),
        "w-exit {v} has no sibling exit"
    );
    // A group has at least two members, so the fallback, the rotation, is
    // never taken.
    shift_in::<POW2>(v, d, suffix, beta.unwrap_or(alpha))
}

/// The ring walk shared by the engine's readoff and
/// [`super::RingMaintainer::ring_into`]: follows the successor permutation
/// from `root` into `out` (cleared first), deriving each entry from
/// `exit_bits` where it is set and taking the necklace rotation
/// everywhere else. `len` is |B*|, which bounds the walk in debug builds.
pub(crate) fn read_off_cycle(
    d: usize,
    suffix: usize,
    root: usize,
    len: usize,
    exit_bits: &[u64],
    out: &mut Vec<usize>,
) {
    out.clear();
    if d.is_power_of_two() {
        walk::<true>(d, suffix, root, len, exit_bits, out);
    } else {
        walk::<false>(d, suffix, root, len, exit_bits, out);
    }
}

/// [`read_off_cycle`] with the successor arithmetic fixed at compile time.
fn walk<const POW2: bool>(
    d: usize,
    suffix: usize,
    root: usize,
    len: usize,
    exit_bits: &[u64],
    out: &mut Vec<usize>,
) {
    let exit = |u: usize| exit_bits[u / 64] >> (u % 64) & 1 == 1;
    let mut v = root;
    loop {
        out.push(v);
        v = ring_step::<POW2>(v, d, suffix, exit);
        if v == root {
            break;
        }
        debug_assert!(out.len() <= len, "walk escaped B* or looped early");
    }
}

/// The tree record of a non-root necklace of B* (Steps 1.2 and 2): its
/// earliest-reached member Y and the leading digit α_p of its parent node
/// α_p·w, the minimal predecessor of Y one level up. Y's (n−1)-digit prefix
/// ⌊Y/d⌋ is the label w of the necklace's tree edge, and (w, α_p) names
/// that edge as (w, parent necklace) would: the parent necklace is
/// N(α_p·w), and nodes αw with distinct digits α hold distinct digit
/// multisets, so they lie on distinct necklaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TreeRecord {
    /// Y, or [`NONE`] when the necklace has no record.
    y: u32,
    /// α_p (meaningful when `y` is set).
    parent_digit: u32,
}

impl TreeRecord {
    /// The record of a dead, off-B* or root necklace.
    const NONE: TreeRecord = TreeRecord {
        y: NONE,
        parent_digit: NONE,
    };
}

/// The spanning-tree stage, from the broadcast levels to the ring wiring
/// (Steps 1.2 to 3). [`Ffc::embed_into`]'s scratch and
/// [`super::RingMaintainer`] each own one: the engine builds it once per
/// embedding ([`TreeStage::build`]), the maintainer also repairs it one
/// necklace and one label ([`TreeStage::rewire`]) at a time. A necklace's
/// record is repaired in one of two ways, by what changed: a full
/// re-selection over its members ([`TreeStage::select`]) when its Y may
/// have moved (Y's level rose, or a changed member [`TreeStage::beats`]
/// it), or the parent alone recomputed from Y's d predecessors
/// ([`TreeStage::reparent`]) when only the levels of Y or its
/// predecessors did. The parent rule ([`TreeStage::parent_of`]) is
/// written once, for the build and the repairs alike.
///
/// It holds the broadcast levels, one [`TreeRecord`] per necklace, and the
/// exit bitmap the readoff walks. The w-groups are not stored. For every
/// digit α, αw is a rotation of wα, so N(αw) = N(wα), and the d necklaces
/// a group of label w can hold are the d ids `membership[w·d .. w·d+d]`,
/// one per digit. Its children are the necklaces whose Y is one of the
/// nodes w·d+β, and its parent is the necklace of the children's α_p·w. A
/// member's exit is its node αw, so the exits of label w are the group:
/// each record sets two of them, βw on its own necklace (Y = wβ) and its
/// parent node α_p·w ([`TreeStage::link`]), and [`ring_step`] closes the
/// group into its cycle of w-edges from the exit bits alone.
#[derive(Clone, Debug, Default)]
pub(crate) struct TreeStage {
    /// Broadcast level per node: the forward BFS level from the root over
    /// live nodes, which is [`UNREACHED`] exactly outside B*.
    pub(crate) levels: LevelVec,
    /// One record per necklace.
    records: Vec<TreeRecord>,
    /// The root's necklace, which has no record.
    root_neck: usize,
    /// Bit `v` set ⟺ node `v` leaves its necklace through a w-edge. The
    /// readoff tests this bitmap, derives each exit's entry from it and
    /// computes every other step as a necklace rotation.
    pub(crate) exit_bits: Vec<u64>,
}

impl TreeStage {
    /// Bytes currently reserved by the stage's buffers.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.levels.allocated_bytes()
            + std::mem::size_of::<TreeRecord>() * self.records.capacity()
            + 8 * self.exit_bits.capacity()
    }

    /// Builds the stage from scratch out of the broadcast levels of a root
    /// on necklace `root_neck`, which a level-writing forward pass has
    /// left in `levels` (every node outside B* [`UNREACHED`]): selects
    /// every necklace's record and sets its two exits as it goes, since a
    /// record's exits depend on no other record. All-[`UNREACHED`] levels
    /// build the empty tree: no records, no exits.
    pub(crate) fn build(&mut self, ffc: &Ffc, root_neck: usize) {
        let t = &ffc.tables;
        let words = t.n_nodes.div_ceil(64);
        debug_assert!(self.levels.len() >= t.n_nodes, "levels not written");
        grow_to(&mut self.records, t.n_necks, TreeRecord::NONE);
        grow_to(&mut self.exit_bits, words, 0);
        self.exit_bits[..words].fill(0);
        self.root_neck = root_neck;
        for nid in 0..t.n_necks {
            let record = self.selected(ffc, nid);
            self.records[nid] = record;
            self.link(t, record);
        }
    }

    /// Re-selects necklace `nid`'s record over all its members from the
    /// current levels and returns its tree edge — (label w, parent digit
    /// α_p) — before and after. The root's necklace and a necklace
    /// outside B* (dead ones included) have no record; a necklace lies
    /// wholly inside or outside B*, so its first member says which.
    /// Otherwise Y is the member with the least [`TreeStage::key`]
    /// (reached first, ties to the minimal node; [`LevelVec::min_key`]),
    /// and the parent follows from Y ([`TreeStage::parent_of`]).
    pub(crate) fn select(&mut self, ffc: &Ffc, nid: usize) -> [Option<(usize, u32)>; 2] {
        let old = self.edge(ffc.tables.d, nid);
        self.records[nid] = self.selected(ffc, nid);
        [old, self.edge(ffc.tables.d, nid)]
    }

    /// Necklace `nid`'s record under the current levels: the selection of
    /// [`TreeStage::select`].
    fn selected(&self, ffc: &Ffc, nid: usize) -> TreeRecord {
        let levels = &self.levels;
        let members = ffc.partition.members(nid);
        let outside = levels.is_unreached(members[0] as usize);
        debug_assert!(
            members
                .iter()
                .all(|&m| levels.is_unreached(m as usize) == outside),
            "necklace split by B*"
        );
        if outside || nid == self.root_neck {
            return TreeRecord::NONE;
        }
        let best = levels.min_key(members);
        let y = best as u32;
        TreeRecord {
            y,
            parent_digit: self.parent_of(ffc, y as usize, (best >> 32) as u32),
        }
    }

    /// Recomputes necklace `nid`'s parent from its current Y in O(d), with
    /// no member scan, and returns its tree edge before and after.
    pub(crate) fn reparent(&mut self, ffc: &Ffc, nid: usize) -> [Option<(usize, u32)>; 2] {
        let old = self.edge(ffc.tables.d, nid);
        let y = self.records[nid].y as usize;
        if y != NONE as usize {
            self.records[nid].parent_digit = self.parent_of(ffc, y, self.levels.get(y));
        }
        [old, self.edge(ffc.tables.d, nid)]
    }

    /// The parent rule: the leading digit α_p of the minimal predecessor
    /// α_p·w of `y`, a chosen node at level `lvl`, one broadcast level up.
    /// It reads only the levels of y's d predecessors.
    #[inline]
    fn parent_of(&self, ffc: &Ffc, y: usize, lvl: u32) -> u32 {
        let t = &ffc.tables;
        debug_assert!(lvl >= 1, "non-root necklace reached at level 0");
        let label = y / t.d;
        (0..t.d)
            .find(|&a| self.levels.get(a * t.suffix_count + label) == lvl - 1)
            // PANIC-OK: Y was first reached at level lvl >= 1, so one
            // of its d predecessors sat on the frontier one level up;
            // the exhaustive engine-vs-reference suites pin it.
            .expect("chosen node with no frontier predecessor") as u32
    }

    /// Whether member `u` of necklace `nid` would be chosen over its
    /// current Y: `u` has a level and a lesser [`TreeStage::key`], or the
    /// necklace has no record. The root's necklace never takes a record.
    pub(crate) fn beats(&self, nid: usize, u: usize) -> bool {
        let y = self.records[nid].y;
        nid != self.root_neck
            && self.levels.get(u) != UNREACHED
            && (y == NONE || self.key(u) < self.key(y as usize))
    }

    /// Necklace `nid`'s record as (Y, α_p), [`NONE`] for both when it has
    /// none.
    #[cfg(test)]
    pub(crate) fn record(&self, nid: usize) -> (u32, u32) {
        let r = self.records[nid];
        (r.y, r.parent_digit)
    }

    /// Necklace `nid`'s Y, or [`NONE`] when it has no record.
    pub(crate) fn chosen(&self, nid: usize) -> u32 {
        self.records[nid].y
    }

    /// The argmin key of node `v` under the current levels, (level, node):
    /// a necklace's Y is its member with the least key, and [`UNREACHED`]
    /// sorts above every level.
    #[inline]
    fn key(&self, v: usize) -> u64 {
        (u64::from(self.levels.get(v)) << 32) | v as u64
    }

    /// The tree edge of necklace `nid`'s record: (label w, α_p).
    fn edge(&self, d: usize, nid: usize) -> Option<(usize, u32)> {
        let r = self.records[nid];
        (r.y != NONE).then_some((r.y as usize / d, r.parent_digit))
    }

    /// Clears the exit bits of `label`'s d possible exit nodes αw, then
    /// sets those of its children's records again: the group of label w
    /// under the current records.
    pub(crate) fn rewire(&mut self, ffc: &Ffc, label: usize) {
        let t = &ffc.tables;
        for a in 0..t.d {
            let e = a * t.suffix_count + label;
            self.exit_bits[e / 64] &= !(1u64 << (e % 64));
        }
        let base = label * t.d;
        let block = &ffc.partition.membership()[base..base + t.d];
        for (y, &nid) in (base..).zip(block) {
            let record = self.records[nid as usize];
            if record.y as usize == y {
                self.link(t, record);
            }
        }
    }

    /// Sets the exits of `record`'s tree edge (w, α_p), w = ⌊Y/d⌋: βw,
    /// where Y = wβ, and the parent node α_p·w. The two differ, since Y
    /// sits one level after α_p·w and βw shares Y's necklace. A necklace
    /// without a record sets none.
    #[inline]
    fn link(&mut self, t: &EngineTables, record: TreeRecord) {
        if record.y == NONE {
            return;
        }
        let y = record.y as usize;
        let (label, beta, parent) = (y / t.d, y % t.d, record.parent_digit as usize);
        debug_assert_ne!(beta, parent, "a parent node shares Y's necklace");
        for a in [beta, parent] {
            let e = a * t.suffix_count + label;
            self.exit_bits[e / 64] |= 1u64 << (e % 64);
        }
    }
}
