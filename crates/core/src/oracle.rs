//! The differential oracles: slower, simpler twins of the engine's paths,
//! which the exhaustive tests compare bit for bit and `bench_ffc` times as
//! its baselines. [`embed_reference`] (materialised SCCs plus hash-map
//! w-groups) is the oracle of [`Ffc::embed_into`], [`embed_stats_into_u8`]
//! (the u8-stamp stats engine it replaced) that of
//! [`Ffc::embed_stats_into`], and [`kernel_step_scalar`] (fold pass, then
//! expand pass) that of [`BitReach::kernel_step_fused`]. The two embedding
//! oracles still find B* as the root's strongly connected component (an
//! SCC search, or forward ∩ backward reachability), so the differential
//! suites check the engine's forward-only B* against an independent
//! definition. The algorithms are kept verbatim, stamps included, and
//! nothing here is re-exported from the crate root or the facade prelude.

use std::collections::HashMap;

use dbg_graph::algo::bfs::bfs_tree;
use dbg_graph::algo::components::scc_component_ids;
use dbg_graph::{DeBruijn, Topology};

use crate::bitreach::{spread2, BitReach};
use crate::ffc::{EmbedStats, EngineTables, Ffc, FfcOutcome, RootProbe, INFEASIBLE_ROOT};
use crate::mem::{grow_to, reserve_more};

/// A de Bruijn graph restricted to an alive-node mask, used by the
/// reference implementation for component and BFS computations without
/// materialising subgraphs.
struct Masked<'a> {
    graph: &'a DeBruijn,
    alive: &'a [bool],
}

impl Topology for Masked<'_> {
    fn node_count(&self) -> usize {
        self.graph.len()
    }

    fn for_each_successor(&self, v: usize, visit: &mut dyn FnMut(usize)) {
        if !self.alive[v] {
            return;
        }
        self.graph.for_each_successor(v, &mut |u| {
            if self.alive[u] {
                visit(u);
            }
        });
    }
}

/// The textbook formulation of the algorithm: materialised SCC search plus
/// hash-map w-groups, rebuilding every intermediate from scratch. When
/// every necklace is faulty there is no root and no ring: the outcome is
/// the engine's infeasible one (root `usize::MAX`, empty cycle).
#[must_use]
pub fn embed_reference(ffc: &Ffc, faulty_nodes: &[usize]) -> FfcOutcome {
    let faulty_mask = ffc.faulty_necklace_mask(faulty_nodes);
    if faulty_mask.iter().all(|&faulty| faulty) {
        return FfcOutcome {
            root: INFEASIBLE_ROOT,
            cycle: Vec::new(),
            component_size: 0,
            eccentricity: 0,
            faulty_necklaces: faulty_mask.len(),
            removed_nodes: ffc.graph().len(),
        };
    }
    let root = ffc.pick_root(ffc.default_root(), &faulty_mask);
    embed_with_mask(ffc, root, &faulty_mask)
}

fn embed_with_mask(ffc: &Ffc, root: usize, faulty_mask: &[bool]) -> FfcOutcome {
    let graph = ffc.graph();
    let partition = ffc.partition();
    let space = graph.space();
    let d = graph.d();
    let suffix_count = space.msd_place();
    let n_nodes = graph.len();

    // Root is normalised to the minimal node of its necklace so that
    // N(R) = [R], as Step 1.1 requires.
    let root = space.canonical_rotation(root as u64) as usize;

    // Per-node aliveness induced by the necklace fault mask.
    let alive: Vec<bool> = (0..n_nodes)
        .map(|v| !faulty_mask[partition.id_of(v as u64)])
        .collect();
    let faulty_necklaces = faulty_mask.iter().filter(|&&b| b).count();
    let removed_nodes = alive.iter().filter(|&&a| !a).count();

    // B*: the strongly connected component of the surviving graph that
    // contains the root. (The paper's "component" of a digraph.) The
    // node → component-id labelling makes the root lookup O(1) instead
    // of scanning every component's node list.
    let masked = Masked {
        graph,
        alive: &alive,
    };
    let (comp_ids, _) = scc_component_ids(&masked);
    let root_comp = comp_ids[root];
    let mut in_bstar = vec![false; n_nodes];
    let mut component_size = 0usize;
    for v in 0..n_nodes {
        if comp_ids[v] == root_comp {
            in_bstar[v] = true;
            component_size += 1;
        }
    }

    // Necklaces are unions of cycles, so they are wholly inside or
    // wholly outside B*.
    debug_assert!((0..n_nodes).all(|v| {
        !in_bstar[v] || {
            let rep = partition.necklace_of(v as u64).representative() as usize;
            in_bstar[rep]
        }
    }));

    // Step 1.1: broadcast from the root over B* (synchronous BFS with
    // minimal-predecessor tie-breaking).
    let restricted = Masked {
        graph,
        alive: &in_bstar,
    };
    let tree = bfs_tree(&restricted, root);
    let eccentricity = tree.depth();

    // Step 1.2: spanning tree T of N*. For every non-root live necklace
    // pick the node Y that received the broadcast first (ties: minimal
    // id); the tree edge enters [Y]'s necklace from the necklace of Y's
    // BFS parent, labeled with Y's (n−1)-digit prefix.
    let root_necklace = partition.id_of(root as u64);
    // label w -> (parent necklace, children necklaces)
    let mut groups: HashMap<u64, (usize, Vec<usize>)> = HashMap::new();
    for (id, neck) in partition.necklaces().iter().enumerate() {
        if faulty_mask[id] || id == root_necklace {
            continue;
        }
        let rep = neck.representative() as usize;
        if !in_bstar[rep] {
            continue;
        }
        let chosen = neck
            .nodes(space)
            .into_iter()
            .map(|c| c as usize)
            .min_by_key(|&v| (tree.level[v], v))
            .expect("necklaces are non-empty");
        debug_assert!(tree.reached(chosen), "B* node not reached by the broadcast");
        let parent = tree.parent[chosen];
        let parent_necklace = partition.id_of(parent as u64);
        let label = chosen as u64 / d; // the (n−1)-digit prefix of Y
        debug_assert_eq!(parent as u64 % suffix_count, label);
        let entry = groups.entry(label).or_insert((parent_necklace, Vec::new()));
        debug_assert_eq!(
            entry.0, parent_necklace,
            "T_w must have a single parent necklace (height-one property)"
        );
        entry.1.push(id);
    }

    // Step 2: modify each T_w into a directed cycle of w-edges (D).
    // Members are ordered by necklace representative, which coincides
    // with necklace id order.
    let mut d_edges: HashMap<(usize, u64), usize> = HashMap::new();
    for (&label, (parent, children)) in &groups {
        let mut members = children.clone();
        members.push(*parent);
        members.sort_unstable();
        members.dedup();
        let k = members.len();
        for i in 0..k {
            d_edges.insert((members[i], label), members[(i + 1) % k]);
        }
    }

    // Step 3: successor function and cycle extraction.
    let successor = |v: usize| -> usize {
        let w = v as u64 % suffix_count; // suffix of v = label of its exit edge
        let my_necklace = partition.id_of(v as u64);
        if let Some(&target) = d_edges.get(&(my_necklace, w)) {
            // Leave the necklace: successor is wβ where βw lies on the
            // target necklace.
            for beta in 0..d {
                let entering = w * d + beta; // the node wβ
                let beta_w = beta * suffix_count + w; // the node βw (same necklace)
                if partition.id_of(beta_w) == target {
                    debug_assert!(in_bstar[entering as usize]);
                    return entering as usize;
                }
            }
            unreachable!("a w-edge of D always has an entry node on the target necklace");
        }
        // Stay on the necklace.
        space.rotate_left(v as u64) as usize
    };

    let mut cycle = Vec::with_capacity(component_size);
    let mut v = root;
    loop {
        cycle.push(v);
        v = successor(v);
        if v == root {
            break;
        }
        debug_assert!(
            cycle.len() <= component_size,
            "successor walk escaped B* or looped early"
        );
    }

    FfcOutcome {
        root,
        cycle,
        component_size,
        eccentricity,
        faulty_necklaces,
        removed_nodes,
    }
}

/// Reusable state of [`embed_stats_into_u8`]: stamp-invalidated and
/// grow-only, so after the first call at a fixed (d, n) no call allocates.
#[derive(Clone, Debug, Default)]
pub struct U8StatsScratch {
    /// Per-call stamp of `faulty` (necklace faulty this call).
    stamp: u32,
    faulty: Vec<u32>,
    /// Per-call stamp of the forward-, backward- and broadcast-reached
    /// byte arrays. One byte per slot quarters the working set of a u32
    /// stamp; it wraps every 255 calls, clearing the arrays once.
    stamp8: u8,
    fwd8: Vec<u8>,
    bwd8: Vec<u8>,
    vis8: Vec<u8>,
    /// BFS frontiers.
    queue: Vec<u32>,
    next: Vec<u32>,
    probe: RootProbe,
}

impl U8StatsScratch {
    /// Total bytes currently reserved by the scratch's buffers.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        4 * (self.faulty.capacity() + self.queue.capacity() + self.next.capacity())
            + (self.fwd8.capacity() + self.bwd8.capacity() + self.vis8.capacity())
            + self.probe.allocated_bytes()
    }

    /// Grows the slot arrays to the engine's sizes and advances both
    /// stamps, clearing the stamped arrays on wrap-around.
    fn prepare(&mut self, t: &EngineTables) {
        if self.stamp == u32::MAX {
            self.faulty.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        grow_to(&mut self.faulty, t.n_necks, 0);
        reserve_more(&mut self.queue, t.n_nodes);
        reserve_more(&mut self.next, t.n_nodes);
        self.probe.fit(t.n_nodes);
        grow_to(&mut self.fwd8, t.n_nodes, 0);
        grow_to(&mut self.bwd8, t.n_nodes, 0);
        grow_to(&mut self.vis8, t.n_nodes, 0);
        self.stamp8 = self.stamp8.wrapping_add(1);
        if self.stamp8 == 0 {
            for arr in [&mut self.fwd8, &mut self.bwd8, &mut self.vis8] {
                arr.iter_mut().for_each(|b| *b = 0);
            }
            self.stamp8 = 1;
        }
    }
}

/// The u8-stamp stats path: identical [`EmbedStats`] to
/// [`Ffc::embed_stats_into`] (same root-repair policy, same component,
/// same eccentricity, the same infeasible stats when every necklace is
/// faulty), computed by byte-stamped scalar BFS instead of the
/// bit-parallel engine.
pub fn embed_stats_into_u8(
    ffc: &Ffc,
    scratch: &mut U8StatsScratch,
    faulty_nodes: &[usize],
) -> EmbedStats {
    let t = &ffc.tables;
    let partition = ffc.partition();
    let membership = partition.membership();
    let d = t.d;
    let s = scratch;
    s.prepare(t);
    let stamp = s.stamp;
    let stamp8 = s.stamp8;

    // Fault marking and root repair: byte-for-byte the policy of the
    // engine. Every node of a faulty necklace is additionally pre-stamped
    // as "already visited" in the byte-stamped fwd8/bwd8/vis8 arrays
    // (O(n·f) stores via the necklace CSR): the BFS loops below then never
    // enqueue a dead node, and their liveness check collapses into the
    // visited check — a single one-byte load per edge instead of the
    // membership → faulty indirection.
    let mut faulty_necklaces = 0usize;
    let mut removed_nodes = 0usize;
    for &v in faulty_nodes {
        assert!(v < t.n_nodes, "faulty node id {v} out of range");
        let nid = membership[v] as usize;
        if s.faulty[nid] != stamp {
            s.faulty[nid] = stamp;
            faulty_necklaces += 1;
            removed_nodes += partition.necklace(nid).len();
            for &member in partition.members(nid) {
                s.fwd8[member as usize] = stamp8;
                s.bwd8[member as usize] = stamp8;
                s.vis8[member as usize] = stamp8;
            }
        }
    }
    let faulty = &s.faulty;
    let live = |v: usize| faulty[membership[v] as usize] != stamp;
    let root = s.probe.find(t.d, t.suffix_count, ffc.default_root(), live);
    let root = root.map_or(INFEASIBLE_ROOT, |r| ffc.representative_of(r));

    // The reachability passes are monomorphised on whether d is a power
    // of two: the per-edge `% suffix` / `/ d` then compile to masks and
    // shifts instead of hardware divisions, which dominate the otherwise
    // load-light loops of the binary graphs.
    let (component_size, eccentricity) = if root == INFEASIBLE_ROOT {
        (0, 0) // every necklace is faulty: no root, no ring
    } else if d.is_power_of_two() {
        stats_reach::<true>(t, s, root, stamp8)
    } else {
        stats_reach::<false>(t, s, root, stamp8)
    };

    EmbedStats {
        root,
        component_size,
        eccentricity,
        faulty_necklaces,
        removed_nodes,
    }
}

/// The reachability passes of [`embed_stats_into_u8`]: forward BFS,
/// backward BFS and (only when needed) the broadcast over B*. Returns
/// (|B*|, eccentricity of the root within B*). `POW2` selects the
/// shift/mask address arithmetic for power-of-two d.
fn stats_reach<const POW2: bool>(
    t: &EngineTables,
    s: &mut U8StatsScratch,
    root: usize,
    stamp8: u8,
) -> (usize, usize) {
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

/// The two-phase dense BFS step of `reach` — fold into the caller-supplied
/// `fold` buffer (at least `suffix / 64` words), then expand against `vis`
/// into `nxt` — the bit-exact reference [`BitReach::kernel_step_fused`] is
/// pinned against (unit tests) and raced against (`bench_ffc --kernels`).
/// All buffers cover the shape's full word count. Returns the newly
/// visited node count.
///
/// # Panics
/// Panics (in debug builds) if the shape is not dense-capable.
pub fn kernel_step_scalar(
    reach: &BitReach,
    cur: &[u64],
    vis: &mut [u64],
    nxt: &mut [u64],
    fold: &mut [u64],
) -> usize {
    debug_assert!(reach.dense_capable);
    let d = reach.d;
    let steps = d.trailing_zeros();
    let expand = |x: u64| (0..steps).fold(x, |x, _| spread2(x));
    let bits_per = 64 / d;
    let chunk_mask = if bits_per == 64 {
        u64::MAX
    } else {
        (1u64 << bits_per) - 1
    };
    for (i, g) in fold[..reach.suffix_words].iter_mut().enumerate() {
        let mut acc = 0u64;
        for a in 0..d {
            acc |= cur[i + a * reach.suffix_words];
        }
        *g = acc;
    }
    let mut newly = 0usize;
    let mut j = 0usize;
    // S word j expands the (j mod d)-th chunk of G word (j div d).
    for &g in &fold[..reach.suffix_words] {
        for r in 0..d {
            let new = expand((g >> (r * bits_per)) & chunk_mask) & !vis[j];
            vis[j] |= new;
            nxt[j] = new;
            newly += new.count_ones() as usize;
            j += 1;
        }
    }
    newly
}
