//! The embedding pipeline, decomposed into named phases.
//!
//! Every `Ffc::embed_into*` entry point is a sequence of the same phases —
//! fault marking, root selection, the reachability snapshot (forward +
//! backward passes that pin down B*), the broadcast/spanning-tree phase,
//! necklace selection (per-necklace earliest members and their w-labeled
//! tree edges), w-group wiring, and the cycle readoff. Each phase has one
//! well-defined output, which is what lets [`super::session::EmbedSession`]
//! persist the outputs and repair them incrementally instead of re-running
//! the pipeline per fault event.

use super::{EmbedScratch, EmbedStats, Ffc};

impl Ffc {
    /// The reachability passes of [`Ffc::embed_stats_into_u8`] (the
    /// retained u8-stamp oracle — the production stats path runs on
    /// [`crate::bitreach`]): forward BFS,
    /// backward BFS and (only when needed) the broadcast over B*. Returns
    /// (|B*|, eccentricity of the root within B*). `POW2` selects the
    /// shift/mask address arithmetic for power-of-two d.
    pub(crate) fn stats_reach<const POW2: bool>(
        &self,
        s: &mut EmbedScratch,
        root: usize,
        stamp8: u8,
    ) -> (usize, usize) {
        let t = &self.tables;
        let d = t.d;
        let suffix = t.suffix_count;
        let d_log = d.trailing_zeros();
        let suffix_log = suffix.trailing_zeros();
        let suffix_mask = suffix.wrapping_sub(1);
        debug_assert!(!POW2 || (d.is_power_of_two() && suffix.is_power_of_two()));
        let succ_base = |v: usize| -> usize {
            if POW2 {
                (v & suffix_mask) << d_log
            } else {
                (v % suffix) * d
            }
        };
        let pred_base = |v: usize| -> usize {
            if POW2 {
                v >> d_log
            } else {
                v / d
            }
        };
        let pred_step = |a: usize| -> usize {
            if POW2 {
                a << suffix_log
            } else {
                a * suffix
            }
        };

        // Forward reachability, level-synchronous so its depth doubles as
        // the broadcast depth when B* turns out to be the whole forward set.
        s.queue.clear();
        s.fwd8[root] = stamp8;
        s.queue.push(root as u32);
        let mut fwd_count = 1usize;
        let mut fwd_depth = 0u32;
        loop {
            s.next.clear();
            for &v in &s.queue {
                let base = succ_base(v as usize);
                for a in 0..d {
                    let u = base + a;
                    if s.fwd8[u] != stamp8 {
                        s.fwd8[u] = stamp8;
                        s.next.push(u as u32);
                    }
                }
            }
            if s.next.is_empty() {
                break;
            }
            fwd_count += s.next.len();
            fwd_depth += 1;
            std::mem::swap(&mut s.queue, &mut s.next);
        }

        // Backward reachability (plain FIFO); |B*| is counted, not listed.
        s.queue.clear();
        s.bwd8[root] = stamp8;
        s.queue.push(root as u32);
        let mut component_size = 1usize;
        let mut head = 0;
        while head < s.queue.len() {
            let v = s.queue[head] as usize;
            head += 1;
            let base = pred_base(v);
            for a in 0..d {
                let u = base + pred_step(a);
                if s.bwd8[u] != stamp8 {
                    s.bwd8[u] = stamp8;
                    s.queue.push(u as u32);
                    if s.fwd8[u] == stamp8 {
                        component_size += 1;
                    }
                }
            }
        }

        // Eccentricity of the root within B*. When every forward-reachable
        // node is also backward-reachable (B* equals the forward set — the
        // common case for light fault loads), the forward BFS above *was*
        // the broadcast, so its depth is the answer and the third pass is
        // skipped. Otherwise run the broadcast restricted to B*, levels
        // only (the spanning-tree parents are not needed for stats).
        let eccentricity = if component_size == fwd_count {
            fwd_depth as usize
        } else {
            s.queue.clear();
            s.vis8[root] = stamp8;
            s.queue.push(root as u32);
            let mut depth = 0u32;
            loop {
                s.next.clear();
                for &v in &s.queue {
                    let base = succ_base(v as usize);
                    for a in 0..d {
                        let u = base + a;
                        if s.fwd8[u] == stamp8 && s.bwd8[u] == stamp8 && s.vis8[u] != stamp8 {
                            s.vis8[u] = stamp8;
                            s.next.push(u as u32);
                        }
                    }
                }
                if s.next.is_empty() {
                    break;
                }
                depth += 1;
                std::mem::swap(&mut s.queue, &mut s.next);
            }
            depth as usize
        };
        (component_size, eccentricity)
    }

    /// One full embedding on reusable state, as the explicit serial phase
    /// pipeline: fault marking, root selection, the reachability snapshot,
    /// the level-emitting broadcast, necklace selection, w-group wiring
    /// and the streaming cycle readoff. Necklace selection derives
    /// spanning-tree parents lazily per necklace from the packed level
    /// slots instead of materialising a whole-B* parent array. The
    /// readoff walks the necklace rotation arithmetically: no per-node
    /// successor array is materialised and the override slots are
    /// consulted only where the exit bitmap is set — a pointer-chase
    /// through a B*-sized successor array is one dependent DRAM load per
    /// ring node, and it dominated the embed at a million nodes.
    /// `forced_root` is `Some` for [`Ffc::embed_into_from`] (panics if
    /// its necklace is faulty) and `None` for the
    /// default-root-with-repair policy of [`Ffc::embed_into`].
    pub(crate) fn engine_embed(
        &self,
        s: &mut EmbedScratch,
        faulty_nodes: &[usize],
        forced_root: Option<usize>,
    ) -> EmbedStats {
        let t = &self.tables;
        s.prepare(t);
        s.clear_ring_slots(t);
        // The bit scratch sizes its bitmaps and clears the fault mask
        // here, not in `prepare` — the u8 oracle path never pays for it.
        t.reach.prepare(&mut s.bits);

        let (faulty_necklaces, removed_nodes) = self.mark_faults_bits(s, faulty_nodes);
        let (root, root_neck) = self.phase_select_root(s, forced_root);
        let component_size = self.phase_reachability_snapshot(s, root, removed_nodes);
        let eccentricity = self.phase_broadcast_levels(s, root, component_size);
        self.phase_necklace_selection(s, root_neck);
        self.wire_w_groups(s);
        self.phase_readoff_streaming(s, root, component_size);

        EmbedStats {
            root,
            component_size,
            eccentricity,
            faulty_necklaces,
            removed_nodes,
        }
    }

    /// Root-selection phase (Section 2.5.2): the forced root when one is
    /// requested (asserting its necklace is live), otherwise the preferred
    /// root if live, else the nearest live node by a breadth-first probe
    /// over the *full* graph — identical to [`Ffc::pick_root`], but
    /// allocation-free. The returned root is normalised to the minimal
    /// node of its necklace so N(R) = [R]; its necklace id rides along.
    pub(crate) fn phase_select_root(
        &self,
        s: &mut EmbedScratch,
        forced_root: Option<usize>,
    ) -> (usize, usize) {
        let t = &self.tables;
        let membership = self.partition.membership();
        let stamp = s.stamp;
        let root = match forced_root {
            Some(r) => {
                assert!(r < t.n_nodes, "root id {r} out of range");
                assert!(
                    s.faulty[membership[r] as usize] != stamp,
                    "the requested root lies on a faulty necklace"
                );
                r
            }
            None => {
                let preferred = self.default_root();
                if s.faulty[membership[preferred] as usize] != stamp {
                    preferred
                } else {
                    self.probe_for_live_root(s, preferred)
                }
            }
        };
        let root = self.representative_of(root);
        (root, membership[root] as usize)
    }

    /// Reachability-snapshot phase: B* is the strongly connected component
    /// of the surviving graph that contains the root — the intersection of
    /// the live forward- and backward-reachable sets of the root, found by
    /// two direction-optimizing bit-parallel passes (no Tarjan, no
    /// materialised SCCs). Returns |B*|.
    pub(crate) fn phase_reachability_snapshot(
        &self,
        s: &mut EmbedScratch,
        root: usize,
        removed_nodes: usize,
    ) -> usize {
        let reach = self.tables.reach;
        let _ = reach.forward(&mut s.bits, root);
        reach.backward(&mut s.bits, root);
        reach.component_size(&s.bits, removed_nodes)
    }

    /// Broadcast phase (Step 1.1): the bit engine runs the frontier
    /// expansion and emits the reached nodes level by level into
    /// `bstar` (which therefore lists exactly B*, with `level_offsets` the
    /// CSR level boundaries). The spanning tree itself is *not*
    /// materialised — necklace selection derives the parent of each chosen
    /// node lazily from the packed level slots, once per necklace instead
    /// of once per node. Returns the broadcast depth (the root's
    /// eccentricity within B*).
    pub(crate) fn phase_broadcast_levels(
        &self,
        s: &mut EmbedScratch,
        root: usize,
        component_size: usize,
    ) -> usize {
        let t = &self.tables;
        let (reached, depth) =
            t.reach
                .broadcast_levels(&mut s.bits, root, &mut s.bstar, &mut s.level_offsets);
        debug_assert_eq!(reached, component_size, "broadcast must cover B*");
        let _ = (reached, component_size);
        depth
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
    pub(crate) fn phase_necklace_selection(&self, s: &mut EmbedScratch, root_neck: usize) {
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

    /// Cycle-readoff phase: necklace rotation is arithmetic, the exit
    /// bitmap says when to consult the override slot instead.
    pub(crate) fn phase_readoff_streaming(
        &self,
        s: &mut EmbedScratch,
        root: usize,
        component_size: usize,
    ) {
        let (d, suffix) = (self.tables.d, self.tables.suffix_count);
        if d.is_power_of_two() && suffix.is_power_of_two() {
            read_off_cycle::<true>(s, root, d, suffix, component_size);
        } else {
            read_off_cycle::<false>(s, root, d, suffix, component_size);
        }
    }

    /// The single implementation of root repair, shared by the engine and
    /// (via a stamped throwaway scratch) by [`Ffc::pick_root`]: the nearest
    /// live node by breadth-first distance from `preferred`, ties broken by
    /// minimal node id (each level is sorted before it is scanned). The
    /// exhaustive differential test `root_repair_order_is_identical` pins
    /// the policy.
    ///
    /// # Panics
    /// Panics if every necklace is faulty.
    pub(crate) fn probe_for_live_root(&self, s: &mut EmbedScratch, preferred: usize) -> usize {
        let t = &self.tables;
        let membership = self.partition.membership();
        let stamp = s.stamp;
        let (d, suffix) = (t.d, t.suffix_count);
        s.queue.clear();
        s.probe[preferred] = stamp;
        s.queue.push(preferred as u32);
        while !s.queue.is_empty() {
            s.next.clear();
            for &v in &s.queue {
                let base = (v as usize % suffix) * d;
                for a in 0..d {
                    let u = base + a;
                    if s.probe[u] != stamp {
                        s.probe[u] = stamp;
                        s.next.push(u as u32);
                    }
                }
            }
            s.next.sort_unstable();
            if let Some(&u) = s
                .next
                .iter()
                .find(|&&u| s.faulty[membership[u as usize] as usize] != stamp)
            {
                s.queue.clear();
                return u as usize;
            }
            std::mem::swap(&mut s.queue, &mut s.next);
        }
        panic!("every node of B(d,n) lies on a faulty necklace");
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

/// The streaming readoff: walks the successor permutation from `root`
/// into the scratch's cycle buffer, computing the necklace rotation
/// arithmetically and consulting the override slot only where the exit
/// bitmap is set. `POW2` compiles the rotation to masks and shifts.
fn read_off_cycle<const POW2: bool>(
    s: &mut EmbedScratch,
    root: usize,
    d: usize,
    suffix: usize,
    component_size: usize,
) {
    let d_log = d.trailing_zeros();
    let suffix_log = suffix.trailing_zeros();
    let suffix_mask = suffix.wrapping_sub(1);
    debug_assert!(!POW2 || (d.is_power_of_two() && suffix.is_power_of_two()));
    let mut v = root;
    loop {
        s.cycle.push(v);
        v = if s.exit_bits[v / 64] >> (v % 64) & 1 == 1 {
            s.succ[v] as usize
        } else if POW2 {
            ((v & suffix_mask) << d_log) | (v >> suffix_log)
        } else {
            (v % suffix) * d + v / suffix
        };
        if v == root {
            break;
        }
        debug_assert!(
            s.cycle.len() <= component_size,
            "successor walk escaped B* or looped early"
        );
    }
}

/// The w-edge geometry shared by every wiring site — the engine's
/// `wire_w_groups` and the session's `rewire_label` call this one
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
            .expect("a w-edge of D always has an exit node on the source necklace");
        let entry = (0..d)
            .find(|&beta| membership[beta * suffix + label] as usize == target)
            .map(|beta| label * d + beta)
            .expect("a w-edge of D always has an entry node on the target necklace");
        write(exit, entry);
    }
}
