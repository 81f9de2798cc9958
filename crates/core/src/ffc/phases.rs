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
//! parent node α_p·w — and the w-groups derived from the records, each
//! wired from one block of d necklace ids), the ring successor
//! ([`ring_step`]: the necklace rotation, or at a w-exit the entry w·d+β
//! whose last digit β sits in a packed table, [`DigitWidth`]) and the
//! ring walk built on it ([`read_off_cycle`]).
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
    /// successor array is materialised, and the packed entry digits are
    /// consulted only where the exit bitmap is set — a pointer-chase
    /// through a B*-sized successor array is one dependent DRAM load per
    /// ring node, and it dominated the embed at a million nodes.
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
        read_off_cycle(
            t.d,
            t.suffix_count,
            root,
            reached,
            &s.tree.exit_bits,
            &s.tree.digits,
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
    /// selection.
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
        s.prepare(t);
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
/// digit β along a w-edge.
#[inline(always)]
fn shift_in<const POW2: bool>(v: usize, d: usize, suffix: usize, x: usize) -> usize {
    if POW2 {
        ((v & (suffix - 1)) << d.trailing_zeros()) | x
    } else {
        (v % suffix) * d + x
    }
}

/// The necklace rotation of B(d,n), v ↦ (v mod s)·d + ⌊v / s⌋: the ring
/// successor of every node that does not leave its necklace through a
/// w-edge.
#[inline(always)]
fn rotate<const POW2: bool>(v: usize, d: usize, suffix: usize) -> usize {
    let lead = if POW2 {
        v >> suffix.trailing_zeros()
    } else {
        v / suffix
    };
    shift_in::<POW2>(v, d, suffix, lead)
}

/// The ring successor rule of the engine's readoff, the maintainer's walk
/// and the snapshots: a w-exit (`exit`) enters w·d+β with β = `digit()`,
/// every other node takes the necklace rotation. The branch stays, so a
/// non-exit step never waits on a digit load.
#[inline(always)]
pub(crate) fn ring_step<const POW2: bool>(
    v: usize,
    d: usize,
    suffix: usize,
    exit: bool,
    digit: impl FnOnce() -> usize,
) -> usize {
    if exit {
        shift_in::<POW2>(v, d, suffix, digit())
    } else {
        rotate::<POW2>(v, d, suffix)
    }
}

/// The packed digit table of the ring wiring: one digit β < d per node,
/// b bits wide, where b is the smallest power of two ≥ ⌈log2 d⌉ (one bit
/// at d = 2), so no digit straddles a word and every index is a shift.
/// The width rule and the one get/set pair behind the engine's and the
/// maintainer's [`TreeStage`] and the snapshots' digit chunks. Digits are
/// zero except at the w-exits, so two tables of the same wiring hold the
/// same bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DigitWidth {
    /// log2 b.
    log: u32,
    /// The low b bits.
    mask: u64,
}

impl DigitWidth {
    /// The width for alphabet size `d` ≥ 2.
    pub(crate) fn of(d: usize) -> Self {
        debug_assert!((2..=1 << 32).contains(&d), "digits must fit 32 bits");
        let bits = (usize::BITS - (d - 1).leading_zeros()).next_power_of_two();
        DigitWidth {
            log: bits.trailing_zeros(),
            mask: u64::MAX >> (64 - bits),
        }
    }

    /// Words of a table holding `nodes` digits.
    pub(crate) fn words(self, nodes: usize) -> usize {
        (nodes << self.log).div_ceil(64)
    }

    /// The digit of node `v`.
    #[inline]
    pub(crate) fn get(self, table: &[u64], v: usize) -> usize {
        (table[v >> (6 - self.log)] >> ((v << self.log) & 63) & self.mask) as usize
    }

    /// Sets the digit of node `v` to `digit` (< d).
    #[inline]
    pub(crate) fn set(self, table: &mut [u64], v: usize, digit: usize) {
        let (j, off) = (v >> (6 - self.log), (v << self.log) & 63);
        table[j] = table[j] & !(self.mask << off) | (digit as u64) << off;
    }
}

/// The ring walk shared by the engine's readoff and
/// [`super::RingMaintainer::ring_into`]: follows the successor permutation
/// from `root` into `out` (cleared first), entering w·d+β with β from the
/// packed `digits` where `exit_bits` is set and taking the necklace
/// rotation everywhere else. `len` is |B*|, which bounds the walk in debug
/// builds.
pub(crate) fn read_off_cycle(
    d: usize,
    suffix: usize,
    root: usize,
    len: usize,
    exit_bits: &[u64],
    digits: &[u64],
    out: &mut Vec<usize>,
) {
    out.clear();
    if d.is_power_of_two() {
        walk::<true>(d, suffix, root, len, exit_bits, digits, out);
    } else {
        walk::<false>(d, suffix, root, len, exit_bits, digits, out);
    }
}

/// [`read_off_cycle`] with the successor arithmetic fixed at compile time.
fn walk<const POW2: bool>(
    d: usize,
    suffix: usize,
    root: usize,
    len: usize,
    exit_bits: &[u64],
    digits: &[u64],
    out: &mut Vec<usize>,
) {
    let width = DigitWidth::of(d);
    let mut v = root;
    loop {
        out.push(v);
        let exit = exit_bits[v / 64] >> (v % 64) & 1 == 1;
        v = ring_step::<POW2>(v, d, suffix, exit, || width.get(digits, v));
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
/// wiring the readoff walks. The w-groups are not stored. For every digit
/// α, αw is a rotation of wα, so N(αw) = N(wα), and the d necklaces a
/// group of label w can hold are the d ids `membership[w·d .. w·d+d]`, one
/// per digit. Its children are the necklaces whose Y is one of the nodes
/// w·d+β, and its parent is the entry at the children's α_p, so wiring a
/// label reads one block of d ids and d records.
#[derive(Clone, Debug, Default)]
pub(crate) struct TreeStage {
    /// Broadcast level per node: the forward BFS level from the root over
    /// live nodes, which is [`UNREACHED`] exactly outside B*.
    pub(crate) levels: LevelVec,
    /// One record per necklace.
    records: Vec<TreeRecord>,
    /// The root's necklace, which has no record.
    root_neck: usize,
    /// The last digit β of each w-exit's entry w·d+β, packed per
    /// [`DigitWidth`]; zero at every node not flagged in `exit_bits`.
    pub(crate) digits: Vec<u64>,
    /// Bit `v` set ⟺ node `v` leaves its necklace through a w-edge. The
    /// readoff tests this bitmap and computes every other step as a
    /// necklace rotation.
    pub(crate) exit_bits: Vec<u64>,
    /// The digits of the w-group being wired: at most d.
    group: Vec<u32>,
}

impl TreeStage {
    /// Bytes currently reserved by the stage's buffers.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.levels.allocated_bytes()
            + std::mem::size_of::<TreeRecord>() * self.records.capacity()
            + 4 * self.group.capacity()
            + 8 * (self.digits.capacity() + self.exit_bits.capacity())
    }

    /// Builds the stage from scratch out of the broadcast levels of a root
    /// on necklace `root_neck`, which a level-writing forward pass has
    /// left in `levels` (every node outside B* [`UNREACHED`]): rewrites every
    /// necklace's record, then wires every w-group once. At d ≥ 3 a group
    /// is wired from its first child ([`TreeStage::wire`]). At d = 2 each
    /// label has one child at most. A child's Y = wβ sits one level after
    /// its parent node α_p·w, so α_p ≠ β: βw lies on Y's own necklace,
    /// whose earliest member is Y. And w·α_p, at Y's level, is no Y: its
    /// necklace holds α_p·w a level earlier. So each record wires its
    /// group's two w-edges directly: βw enters w·α_p and α_p·w enters wβ.
    /// That reads neither the membership block nor a sibling's record, as
    /// the block rule would. All-[`UNREACHED`] levels build the empty
    /// tree: no records, no exits.
    pub(crate) fn build(&mut self, ffc: &Ffc, root_neck: usize) {
        let t = &ffc.tables;
        let words = t.n_nodes.div_ceil(64);
        let digit_words = DigitWidth::of(t.d).words(t.n_nodes);
        debug_assert!(self.levels.len() >= t.n_nodes, "levels not written");
        grow_to(&mut self.records, t.n_necks, TreeRecord::NONE);
        grow_to(&mut self.digits, digit_words, 0);
        grow_to(&mut self.exit_bits, words, 0);
        reserve_more(&mut self.group, t.d + 1);
        // Wiring reads the records of arbitrary necklaces, so every record
        // is rewritten.
        self.root_neck = root_neck;
        for nid in 0..t.n_necks {
            self.records[nid] = self.selected(ffc, nid);
        }
        self.exit_bits[..words].fill(0);
        self.digits[..digit_words].fill(0);
        for nid in 0..t.n_necks {
            let TreeRecord { y, parent_digit } = self.records[nid];
            if y == NONE {
                continue;
            }
            let y = y as usize;
            if t.d == 2 {
                let (label, beta, alpha) = (y >> 1, y & 1, parent_digit as usize);
                debug_assert_ne!(alpha, beta, "a d = 2 parent node shares Y's necklace");
                self.link(t, label, beta, alpha);
                self.link(t, label, alpha, beta);
            } else {
                self.wire(ffc, y / t.d, Some(nid as u32));
            }
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

    /// Clears the exit bits and digits of `label`'s d possible exit nodes
    /// αw, then wires its group from the current records.
    pub(crate) fn rewire(&mut self, ffc: &Ffc, label: usize) {
        let t = &ffc.tables;
        let width = DigitWidth::of(t.d);
        for a in 0..t.d {
            let e = a * t.suffix_count + label;
            self.exit_bits[e / 64] &= !(1u64 << (e % 64));
            width.set(&mut self.digits, e, 0);
        }
        self.wire(ffc, label, None);
    }

    /// Closes `label`'s w-group — the children plus their shared parent,
    /// in necklace-id order — into a directed cycle of w-edges (the
    /// modified tree D), writing each edge's entry digit and exit bit. A
    /// label without children has no group. With `from` set, the group is
    /// wired only if necklace `from` is its first child (the one with the
    /// smallest Y), so a build that calls this for every child wires each
    /// group once.
    ///
    /// A member of the group is named by its digit α: its necklace is
    /// N(αw) = `membership[w·d + α]`, its exit node is αw, and a w-edge
    /// into it enters wα. Those ids ascend with the digit: for α < β each
    /// rotation of wα is below the same rotation of wβ, so N(wα)'s
    /// representative is below N(wβ)'s, and ids follow representatives.
    /// So the group is the children's digits β and their α_p in digit
    /// order, and each member's exit αw enters w·d + α′, with α′ the next
    /// member's digit (wrapping).
    fn wire(&mut self, ffc: &Ffc, label: usize, from: Option<u32>) {
        let t = &ffc.tables;
        let base = label * t.d;
        let block = &ffc.partition.membership()[base..base + t.d];
        debug_assert!(
            block.windows(2).all(|p| p[0] < p[1]),
            "w-group ids must ascend with the digit"
        );
        self.group.clear();
        let mut parent = NONE;
        for (beta, &nid) in block.iter().enumerate() {
            let r = self.records[nid as usize];
            if r.y as usize == base + beta {
                if parent == NONE && from.is_some_and(|f| f != nid) {
                    return;
                }
                debug_assert!(
                    parent == NONE || parent == r.parent_digit,
                    "T_w must have a single parent necklace (height-one property)"
                );
                parent = r.parent_digit;
                self.group.push(beta as u32);
            }
        }
        if parent == NONE {
            return;
        }
        let at = self.group.partition_point(|&a| a < parent);
        self.group.insert(at, parent);
        let k = self.group.len();
        for i in 0..k {
            let (alpha, next) = (self.group[i], self.group[(i + 1) % k]);
            self.link(t, label, alpha as usize, next as usize);
        }
    }

    /// Wires the w-edge of D that leaves αw (w = `label`) for the entry
    /// w·d + β: sets αw's exit bit and stores β as its digit.
    #[inline]
    fn link(&mut self, t: &EngineTables, label: usize, alpha: usize, beta: usize) {
        debug_assert!(
            self.levels.get(label * t.d + beta) != UNREACHED,
            "w-edge entry outside B*"
        );
        let exit = alpha * t.suffix_count + label;
        DigitWidth::of(t.d).set(&mut self.digits, exit, beta);
        self.exit_bits[exit / 64] |= 1u64 << (exit % 64);
    }
}
