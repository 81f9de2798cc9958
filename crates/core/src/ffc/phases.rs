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
//! written here once: root selection with the Section 2.5.2 repair probe
//! ([`RootProbe`]), the spanning-tree stage ([`TreeStage`]: each
//! necklace's record — its earliest member Y and parent necklace — and the
//! w-groups derived from the records), the w-edge geometry of a w-group
//! ([`for_each_w_edge`]), the ring successor ([`ring_step`]: the
//! necklace rotation, or at a w-exit the entry w·d+β whose last digit β
//! sits in a packed table, [`DigitWidth`]) and the ring walk built on it
//! ([`read_off_cycle`]).
//!
//! Every level-emitting pass writes its levels straight into a
//! [`LevelVec`](crate::mem::LevelVec) from the BFS frontier; no pass
//! materialises a per-level node list.

use super::{EmbedScratch, EmbedStats, Ffc, INFEASIBLE_ROOT, NONE};
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
        let mut stats = self.phases_to_root(s, faulty_nodes);
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
    /// This is the hot path of Monte-Carlo sweeps that only tabulate
    /// component sizes and eccentricities (Tables 2.1/2.2):
    /// [`Ffc::embed_batch`] uses it whenever the plan does not request
    /// cycles. |B*| and the eccentricity are the count and depth of one
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
        let mut stats = self.phases_to_root(scratch, faulty_nodes);
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
    /// the nearest live node ([`RootProbe::find`], Section 2.5.2),
    /// normalised to the minimal node of its necklace so N(R) = [R].
    ///
    /// Returns the stats so far, with |B*| and the eccentricity left 0 for
    /// the caller's forward pass. When every necklace is faulty no root
    /// exists: the stats come back with root [`INFEASIBLE_ROOT`].
    fn phases_to_root(&self, s: &mut EmbedScratch, faulty_nodes: &[usize]) -> EmbedStats {
        let t = &self.tables;
        s.prepare(t);
        t.reach.prepare(&mut s.bits);
        let (faulty_necklaces, removed_nodes) = self.phase_mark_faults(s, faulty_nodes);
        let membership = self.partition.membership();
        let (faulty, stamp) = (&s.faulty, s.stamp);
        let live = |v: usize| faulty[membership[v] as usize] != stamp;
        let root = s.probe.find(t.d, t.suffix_count, self.default_root(), live);
        EmbedStats {
            root: root.map_or(INFEASIBLE_ROOT, |r| self.representative_of(r)),
            component_size: 0,
            eccentricity: 0,
            faulty_necklaces,
            removed_nodes,
        }
    }

    /// Fault-marking phase: stamps each faulty necklace once and kills its
    /// members in the word-packed fault mask. Returns
    /// `(faulty_necklaces, removed_nodes)`.
    fn phase_mark_faults(&self, s: &mut EmbedScratch, faulty_nodes: &[usize]) -> (usize, usize) {
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
}

/// The buffers of the root-repair probe: visit stamps over the node space
/// and the two BFS frontiers. The engine's scratch, the maintainer and the
/// u8 oracle each own one; [`Ffc::pick_root`] builds an empty one, which
/// allocates only if the preferred root is dead.
#[derive(Clone, Debug, Default)]
pub(crate) struct RootProbe {
    /// Monotone per-probe stamp of `seen`.
    stamp: u32,
    /// Stamp: node reached by the current probe.
    seen: Vec<u32>,
    /// Current BFS level.
    queue: Vec<u32>,
    /// Next BFS level.
    next: Vec<u32>,
}

impl RootProbe {
    /// Grows the buffers to `n_nodes` nodes, so no probe allocates.
    pub(crate) fn fit(&mut self, n_nodes: usize) {
        grow_to(&mut self.seen, n_nodes, 0);
        reserve_more(&mut self.queue, n_nodes);
        reserve_more(&mut self.next, n_nodes);
    }

    /// Bytes currently reserved by the buffers.
    pub(crate) fn allocated_bytes(&self) -> usize {
        4 * (self.seen.capacity() + self.queue.capacity() + self.next.capacity())
    }

    /// Root selection with the Section 2.5.2 repair rule, the one
    /// implementation behind every root of the engine, the maintainer,
    /// [`Ffc::pick_root`] and the u8 oracle: `preferred` if it is `live`,
    /// otherwise the nearest live node by breadth-first distance from
    /// `preferred` over the *full* graph B(d,n) (faults ignored while
    /// searching), ties broken by minimal node id — each level is sorted
    /// before it is scanned. `None` when no node is live. `suffix` is
    /// d^(n−1). The exhaustive test `root_repair_order_is_identical` pins
    /// the policy.
    pub(crate) fn find(
        &mut self,
        d: usize,
        suffix: usize,
        preferred: usize,
        live: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        if live(preferred) {
            return Some(preferred);
        }
        self.fit(d * suffix);
        if self.stamp == u32::MAX {
            // Stamp wrap-around (once per 2^32 probes): forget all visits.
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let (stamp, seen) = (self.stamp, &mut self.seen);
        let (queue, next) = (&mut self.queue, &mut self.next);
        queue.clear();
        seen[preferred] = stamp;
        queue.push(preferred as u32);
        while !queue.is_empty() {
            next.clear();
            for &v in queue.iter() {
                let base = (v as usize % suffix) * d;
                for a in 0..d {
                    let u = base + a;
                    if seen[u] != stamp {
                        seen[u] = stamp;
                        next.push(u as u32);
                    }
                }
            }
            next.sort_unstable();
            if let Some(&u) = next.iter().find(|&&u| live(u as usize)) {
                return Some(u as usize);
            }
            std::mem::swap(queue, next);
        }
        None
    }
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

/// The w-edge geometry of one w-group, wired by [`TreeStage`] for the
/// engine and the maintainer alike, so the ring bytes they produce can
/// never drift. `members` lists the group's necklaces in ascending id
/// order; each consecutive pair (wrapping) contributes one w-edge, whose
/// exit node is the unique member αw of the source necklace and whose
/// entry node wβ lies on the target necklace. `write(exit, β)` performs
/// the stores.
fn for_each_w_edge(
    d: usize,
    suffix: usize,
    membership: &[u32],
    label: usize,
    members: &[u32],
    mut write: impl FnMut(usize, usize),
) {
    let k = members.len();
    for idx in 0..k {
        let m = members[idx] as usize;
        let target = members[(idx + 1) % k] as usize;
        let exit = (0..d)
            .map(|alpha| alpha * suffix + label)
            .find(|&cand| membership[cand] as usize == m)
            // PANIC-OK: every member of a w-group owns a node αw — that is
            // what puts it in the group — so the source has an exit.
            .expect("a w-edge of D always has an exit node on the source necklace");
        let beta = (0..d)
            .find(|&beta| membership[beta * suffix + label] as usize == target)
            // PANIC-OK: likewise the target owns a node βw, and wβ lies on
            // the same necklace; a miss means corrupted group tables.
            .expect("a w-edge of D always has an entry node on the target necklace");
        write(exit, beta);
    }
}

/// The tree record of a non-root necklace of B* (Steps 1.2 and 2): its
/// earliest-reached member Y and its parent necklace. Y's (n−1)-digit
/// prefix ⌊Y/d⌋ is the label w of the necklace's tree edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TreeRecord {
    /// Y, or [`NONE`] when the necklace has no record.
    y: u32,
    /// The parent necklace (meaningful when `y` is set).
    parent: u32,
}

impl TreeRecord {
    /// The record of a dead, off-B* or root necklace.
    const NONE: TreeRecord = TreeRecord {
        y: NONE,
        parent: NONE,
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
/// wiring the readoff walks. The w-groups are not stored: the children of
/// label w are exactly the necklaces whose Y is one of the d nodes w·d+β,
/// so wiring a label derives its group from d records.
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
    /// The w-group being wired: at most d children plus their parent.
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
    /// necklace's record, and wires each w-group once, from its first
    /// child. All-[`UNREACHED`] levels build the empty tree: no records,
    /// no exits.
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
            let _ = self.select(ffc, nid);
        }
        self.exit_bits[..words].fill(0);
        self.digits[..digit_words].fill(0);
        for nid in 0..t.n_necks {
            if let Some((label, _)) = self.edge(t.d, nid) {
                self.wire(ffc, label, Some(nid as u32));
            }
        }
    }

    /// Re-selects necklace `nid`'s record over all its members from the
    /// current levels and returns its tree edge — (label w, parent
    /// necklace) — before and after. The root's necklace and a necklace
    /// outside B* (dead ones included) have no record. Otherwise Y is the
    /// member with the least [`TreeStage::key`] (reached first, ties to
    /// the minimal node), and the parent follows from Y
    /// ([`TreeStage::parent_of`]).
    pub(crate) fn select(&mut self, ffc: &Ffc, nid: usize) -> [Option<(usize, u32)>; 2] {
        let t = &ffc.tables;
        let old = self.edge(t.d, nid);
        let levels = &self.levels;
        let members = ffc.partition.members(nid);
        let best = if nid == self.root_neck {
            u64::MAX
        } else {
            members
                .iter()
                .map(|&m| self.key(m as usize))
                .fold(u64::MAX, u64::min)
        };
        let lvl = (best >> 32) as u32;
        self.records[nid] = if lvl == UNREACHED {
            TreeRecord::NONE
        } else {
            debug_assert!(
                members.iter().all(|&m| levels.get(m as usize) != UNREACHED),
                "B* necklace member without a level"
            );
            let y = best as u32;
            TreeRecord {
                y,
                parent: self.parent_of(ffc, y as usize, lvl),
            }
        };
        [old, self.edge(t.d, nid)]
    }

    /// Recomputes necklace `nid`'s parent from its current Y in O(d), with
    /// no member scan, and returns its tree edge before and after.
    pub(crate) fn reparent(&mut self, ffc: &Ffc, nid: usize) -> [Option<(usize, u32)>; 2] {
        let old = self.edge(ffc.tables.d, nid);
        let y = self.records[nid].y as usize;
        if y != NONE as usize {
            self.records[nid].parent = self.parent_of(ffc, y, self.levels.get(y));
        }
        [old, self.edge(ffc.tables.d, nid)]
    }

    /// The parent rule: the necklace of the minimal predecessor of `y`, a
    /// chosen node at level `lvl`, one broadcast level up. It reads only
    /// the levels of y's d predecessors.
    #[inline]
    fn parent_of(&self, ffc: &Ffc, y: usize, lvl: u32) -> u32 {
        let t = &ffc.tables;
        debug_assert!(lvl >= 1, "non-root necklace reached at level 0");
        let label = y / t.d;
        let parent = (0..t.d)
            .map(|a| label + a * t.suffix_count)
            .find(|&p| self.levels.get(p) == lvl - 1)
            // PANIC-OK: Y was first reached at level lvl >= 1, so one
            // of its d predecessors sat on the frontier one level up;
            // the exhaustive engine-vs-reference suites pin it.
            .expect("chosen node with no frontier predecessor");
        ffc.partition.membership()[parent]
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

    /// Necklace `nid`'s record as (Y, parent), [`NONE`] for both when it
    /// has none.
    #[cfg(test)]
    pub(crate) fn record(&self, nid: usize) -> (u32, u32) {
        let r = self.records[nid];
        (r.y, r.parent)
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

    /// The tree edge of necklace `nid`'s record: (label, parent necklace).
    fn edge(&self, d: usize, nid: usize) -> Option<(usize, u32)> {
        let r = self.records[nid];
        (r.y != NONE).then_some((r.y as usize / d, r.parent))
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
    fn wire(&mut self, ffc: &Ffc, label: usize, from: Option<u32>) {
        let (d, suffix) = (ffc.tables.d, ffc.tables.suffix_count);
        let membership = ffc.partition.membership();
        let Self {
            levels,
            records,
            digits,
            exit_bits,
            group,
            ..
        } = self;
        group.clear();
        let mut insert = |nid: u32| group.insert(group.partition_point(|&m| m < nid), nid);
        let mut parent = NONE;
        let base = label * d;
        for (y, &nid) in (base..).zip(&membership[base..base + d]) {
            let r = records[nid as usize];
            if r.y as usize == y {
                if parent == NONE && from.is_some_and(|f| f != nid) {
                    return;
                }
                debug_assert!(
                    parent == NONE || parent == r.parent,
                    "T_w must have a single parent necklace (height-one property)"
                );
                parent = r.parent;
                insert(nid);
            }
        }
        if parent == NONE {
            return;
        }
        insert(parent);
        let width = DigitWidth::of(d);
        for_each_w_edge(d, suffix, membership, label, group, |exit, beta| {
            debug_assert!(
                levels.get(label * d + beta) != UNREACHED,
                "w-edge entry outside B*"
            );
            width.set(digits, exit, beta);
            exit_bits[exit / 64] |= 1u64 << (exit % 64);
        });
    }
}
