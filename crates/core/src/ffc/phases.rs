//! The embedding pipeline, decomposed into named phases, and the rules
//! every embedding path shares.
//!
//! [`Ffc::embed_into`] runs every phase in order — fault marking, root
//! selection, the reachability snapshot (forward + backward passes that
//! pin down B*), the broadcast/spanning-tree phase, necklace selection
//! (per-necklace earliest members and their w-labeled tree edges),
//! w-group wiring, and the cycle readoff. [`Ffc::embed_stats_into`] runs
//! the same first three phases and stops at the broadcast depth. Each
//! phase has one well-defined output, which is what lets
//! [`super::RingMaintainer`] persist the outputs and repair them
//! incrementally instead of re-running the pipeline per fault event.
//!
//! The rules the maintainer and the snapshots share with the engine are
//! written here once: root selection with the Section 2.5.2 repair probe
//! ([`RootProbe`]), the w-edge geometry of a w-group ([`for_each_w_edge`]),
//! and the necklace rotation ([`rotate`]) with the ring walk built on it
//! ([`read_off_cycle`]).

use super::{EmbedScratch, EmbedStats, Ffc, INFEASIBLE_ROOT};
use crate::mem::{grow_to, reserve_more};

impl Ffc {
    /// Embeds a fault-free cycle avoiding `faulty_nodes` using `scratch`
    /// for all mutable state; the cycle is left in [`EmbedScratch::cycle`].
    /// Root selection and the infeasible case follow [`Ffc::embed`]. After
    /// the scratch has warmed up at this (d, n), the call performs no heap
    /// allocation.
    ///
    /// The phases run serially: the front shared with
    /// [`Ffc::embed_stats_into`], the level-emitting broadcast, necklace
    /// selection, w-group wiring and the streaming cycle readoff. Necklace
    /// selection derives spanning-tree parents lazily per necklace from the
    /// packed level slots instead of materialising a whole-B* parent array.
    /// The readoff walks the necklace rotation arithmetically: no per-node
    /// successor array is materialised and the override slots are consulted
    /// only where the exit bitmap is set — a pointer-chase through a
    /// B*-sized successor array is one dependent DRAM load per ring node,
    /// and it dominated the embed at a million nodes.
    pub fn embed_into(&self, scratch: &mut EmbedScratch, faulty_nodes: &[usize]) -> EmbedStats {
        let (t, s) = (&self.tables, scratch);
        s.clear_ring_slots(t);
        let (mut stats, _) = self.phases_to_bstar(s, faulty_nodes);
        if stats.root == INFEASIBLE_ROOT {
            return stats;
        }
        let (root, component_size) = (stats.root, stats.component_size);
        // Broadcast phase (Step 1.1): the bit engine emits B* level by
        // level into `bstar`, with `level_offsets` the CSR level boundaries.
        // The spanning tree itself is never materialised.
        let (reached, depth) =
            t.reach
                .broadcast_levels(&mut s.bits, root, &mut s.bstar, &mut s.level_offsets);
        debug_assert_eq!(reached, component_size, "broadcast must cover B*");
        stats.eccentricity = depth;
        self.phase_necklace_selection(s, self.partition.membership()[root] as usize);
        self.wire_w_groups(s);
        read_off_cycle(
            t.d,
            t.suffix_count,
            root,
            component_size,
            &s.exit_bits,
            &s.succ,
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
        let (mut stats, (fwd_count, fwd_depth)) = self.phases_to_bstar(scratch, faulty_nodes);
        if stats.root == INFEASIBLE_ROOT {
            return stats;
        }
        // When B* equals the forward set (the common light-fault case) the
        // forward pass's depth *is* the broadcast eccentricity and the
        // third pass is skipped entirely.
        stats.eccentricity = if stats.component_size == fwd_count {
            fwd_depth
        } else {
            let reach = self.tables.reach;
            reach.broadcast_depth(&mut scratch.bits, stats.root)
        };
        stats
    }

    /// The front both embedding paths share: fault marking, root
    /// selection and the reachability snapshot.
    ///
    /// The root is the default root if its necklace survives, otherwise
    /// the nearest live node ([`RootProbe::find`], Section 2.5.2),
    /// normalised to the minimal node of its necklace so N(R) = [R]. B* is
    /// the strongly connected component of the surviving graph that
    /// contains the root — the intersection of the live forward- and
    /// backward-reachable sets of the root, found by two
    /// direction-optimizing bit-parallel passes (no Tarjan, no
    /// materialised SCCs).
    ///
    /// Returns the stats so far, with the eccentricity left 0 for the
    /// caller's broadcast, and the forward pass's (reached, depth). When
    /// every necklace is faulty no root exists: the stats come back with
    /// root [`INFEASIBLE_ROOT`] and |B*| = 0, and no pass runs.
    fn phases_to_bstar(
        &self,
        s: &mut EmbedScratch,
        faulty_nodes: &[usize],
    ) -> (EmbedStats, (usize, usize)) {
        let t = &self.tables;
        s.prepare(t);
        t.reach.prepare(&mut s.bits);
        let (faulty_necklaces, removed_nodes) = self.phase_mark_faults(s, faulty_nodes);
        let membership = self.partition.membership();
        let (faulty, stamp) = (&s.faulty, s.stamp);
        let live = |v: usize| faulty[membership[v] as usize] != stamp;
        let root = s.probe.find(t.d, t.suffix_count, self.default_root(), live);
        let root = root.map_or(INFEASIBLE_ROOT, |r| self.representative_of(r));
        let mut stats = EmbedStats {
            root,
            component_size: 0,
            eccentricity: 0,
            faulty_necklaces,
            removed_nodes,
        };
        if root == INFEASIBLE_ROOT {
            return (stats, (0, 0));
        }
        let forward = t.reach.forward(&mut s.bits, root);
        t.reach.backward(&mut s.bits, root);
        stats.component_size = t.reach.component_size(&s.bits, removed_nodes);
        (stats, forward)
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

    /// The Step 2 → Step 3 wiring: walks the sorted `group_entries` runs,
    /// closes each w-group (children + parent necklace, in necklace-id
    /// order) into a directed cycle of w-edges — the modified tree D — and
    /// writes the successor override of every w-edge into the override
    /// slots plus the word-packed exit bitmap the streaming readoff tests.
    /// Nodes without an exit bit never have their override slot read, so
    /// no per-node successor default is ever materialised.
    fn wire_w_groups(&self, s: &mut EmbedScratch) {
        let t = &self.tables;
        let (d, suffix) = (t.d, t.suffix_count);
        let membership = self.partition.membership();
        let EmbedScratch {
            group_entries,
            members,
            succ,
            exit_bits,
            bits,
            ..
        } = s;
        let mut i = 0;
        while i < group_entries.len() {
            let label = (group_entries[i] >> 32) as usize;
            members.clear();
            let mut j = i;
            while j < group_entries.len() && (group_entries[j] >> 32) as usize == label {
                let nid = (group_entries[j] & u64::from(u32::MAX)) as u32;
                // Entries are sorted, so duplicates (a parent that is also
                // a child of the same label) are adjacent.
                if members.last() != Some(&nid) {
                    members.push(nid);
                }
                j += 1;
            }
            for_each_w_edge(d, suffix, membership, label, members, |exit, entry| {
                debug_assert!(t.reach.in_bstar(bits, entry));
                succ[exit] = entry as u32;
                exit_bits[exit / 64] |= 1u64 << (exit % 64);
            });
            i = j;
        }
    }

    /// Necklace-selection phase (Steps 1.2 and 2). First a level scatter
    /// and reduction: one pass over the emitted level CSR stamps every B*
    /// node's packed (stamp | level) slot and keeps each non-root
    /// necklace's earliest (level, node) key. Then, for every live
    /// non-root necklace, its best key names the earliest-reached member
    /// Y; the spanning-tree parent is computed **here, once per necklace**
    /// — the minimal predecessor of Y one level up, a packed-slot compare
    /// per candidate — instead of being materialised for every node of
    /// B*.
    fn phase_necklace_selection(&self, s: &mut EmbedScratch, root_neck: usize) {
        let t = &self.tables;
        let (d, suffix) = (t.d, t.suffix_count);
        let membership = self.partition.membership();
        let stamp = s.stamp;
        scan_levels(
            &mut s.plvl,
            &mut s.pbest,
            &s.bstar,
            &s.level_offsets,
            membership,
            stamp,
            root_neck,
        );

        let stamp_hi = u64::from(stamp) << 32;
        for nid in 0..t.n_necks {
            let key = s.pbest[nid];
            if key == u64::MAX {
                continue;
            }
            debug_assert_ne!(nid, root_neck, "the root necklace has no tree edge");
            let chosen = (key & u64::from(u32::MAX)) as usize;
            let lstar = (key >> 32) as u32;
            debug_assert!(lstar >= 1, "non-root necklace reached at level 0");
            let label = chosen / d; // the (n−1)-digit prefix of Y
            let want = stamp_hi | u64::from(lstar - 1);
            let parent = (0..d)
                .map(|a| label + a * suffix)
                .find(|&p| s.plvl[p] == want)
                // PANIC-OK: Y was first reached at level lstar >= 1, so one
                // of its d predecessors sat on the frontier one level up;
                // the exhaustive engine-vs-reference suites pin it.
                .expect("chosen node with no frontier predecessor");
            let parent_neck = membership[parent] as usize;
            if s.label_stamp[label] != stamp {
                s.label_stamp[label] = stamp;
                s.label_parent[label] = parent_neck as u32;
                s.group_entries
                    .push(((label as u64) << 32) | parent_neck as u64);
            } else {
                debug_assert_eq!(
                    s.label_parent[label] as usize, parent_neck,
                    "T_w must have a single parent necklace (height-one property)"
                );
            }
            s.group_entries.push(((label as u64) << 32) | nid as u64);
        }
        s.group_entries.sort_unstable();
    }
}

/// The level scatter + best-key pass of necklace selection: stamps every
/// B* node's packed (stamp | level) slot and folds its necklace's
/// (level, node) min.
fn scan_levels(
    plvl: &mut [u64],
    pbest: &mut [u64],
    bstar: &[u32],
    offsets: &[u32],
    membership: &[u32],
    stamp: u32,
    root_neck: usize,
) {
    let stamp_hi = u64::from(stamp) << 32;
    for (l, level) in offsets.windows(2).enumerate() {
        for &v in &bstar[level[0] as usize..level[1] as usize] {
            let v = v as usize;
            plvl[v] = stamp_hi | l as u64;
            let nid = membership[v] as usize;
            if nid == root_neck {
                continue;
            }
            let key = ((l as u64) << 32) | v as u64;
            if key < pbest[nid] {
                pbest[nid] = key;
            }
        }
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

/// The necklace rotation of B(d,n), v ↦ (v mod s)·d + ⌊v / s⌋ with
/// s = `suffix` = d^(n−1): the ring successor of every node that does not
/// leave its necklace through a w-edge. With `POW2` (d, and so s, a power
/// of two) it compiles to a mask and two shifts instead of two divisions;
/// callers choose `POW2` once, outside their walk loop.
#[inline(always)]
pub(crate) fn rotate<const POW2: bool>(v: usize, d: usize, suffix: usize) -> usize {
    if POW2 {
        ((v & (suffix - 1)) << d.trailing_zeros()) | (v >> suffix.trailing_zeros())
    } else {
        (v % suffix) * d + v / suffix
    }
}

/// The ring walk shared by the engine's readoff and
/// [`super::RingMaintainer::ring_into`]: follows the successor permutation
/// from `root` into `out` (cleared first), taking the override slot in
/// `succ` where `exit_bits` is set and the necklace rotation everywhere
/// else. `len` is |B*|, which bounds the walk in debug builds.
pub(crate) fn read_off_cycle(
    d: usize,
    suffix: usize,
    root: usize,
    len: usize,
    exit_bits: &[u64],
    succ: &[u32],
    out: &mut Vec<usize>,
) {
    out.clear();
    if d.is_power_of_two() {
        walk::<true>(d, suffix, root, len, exit_bits, succ, out);
    } else {
        walk::<false>(d, suffix, root, len, exit_bits, succ, out);
    }
}

/// [`read_off_cycle`] with the rotation form fixed at compile time.
fn walk<const POW2: bool>(
    d: usize,
    suffix: usize,
    root: usize,
    len: usize,
    exit_bits: &[u64],
    succ: &[u32],
    out: &mut Vec<usize>,
) {
    let mut v = root;
    loop {
        out.push(v);
        v = if exit_bits[v / 64] >> (v % 64) & 1 == 1 {
            succ[v] as usize
        } else {
            rotate::<POW2>(v, d, suffix)
        };
        if v == root {
            break;
        }
        debug_assert!(out.len() <= len, "walk escaped B* or looped early");
    }
}

/// The w-edge geometry shared by every wiring site — the engine's
/// `wire_w_groups` and the maintainer's `rewire_label` call this one
/// implementation, so the ring bytes they produce can never drift.
/// `members` lists the group's necklaces in ascending id order; each
/// consecutive pair (wrapping) contributes one w-edge, whose exit node is
/// the unique member αw of the source necklace and whose entry node wβ
/// lies on the target necklace. `write(exit, entry)` performs the
/// engine-specific stores.
pub(crate) fn for_each_w_edge(
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
        let entry = (0..d)
            .find(|&beta| membership[beta * suffix + label] as usize == target)
            .map(|beta| label * d + beta)
            // PANIC-OK: likewise the target owns a node βw, and wβ lies on
            // the same necklace; a miss means corrupted group tables.
            .expect("a w-edge of D always has an entry node on the target necklace");
        write(exit, entry);
    }
}
