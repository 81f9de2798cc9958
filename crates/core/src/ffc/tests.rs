//! The FFC engine's test suite: paper reproductions, engine-vs-reference
//! differentials, allocation pins, and the incremental engine.

use super::*;
use crate::bitreach::UNREACHED;
use crate::oracle::{self, embed_reference, embed_stats_into_u8, U8StatsScratch};
use dbg_graph::algo::cycles::is_cycle;
use dbg_graph::FaultSet;

/// Checks that an outcome's cycle is a genuine simple cycle of the
/// faulty graph that avoids every faulty necklace.
fn check_outcome(d: u64, n: u32, faulty_nodes: &[usize], out: &FfcOutcome) {
    let ffc = Ffc::new(d, n);
    let mask = ffc.faulty_necklace_mask(faulty_nodes);
    // Every cycle node is live.
    for &v in &out.cycle {
        assert!(
            !mask[ffc.partition().id_of(v as u64)],
            "cycle visits a faulty necklace"
        );
    }
    // The cycle is a simple cycle of the graph minus faulty necklaces.
    let dead: Vec<usize> = (0..ffc.graph().len())
        .filter(|&v| mask[ffc.partition().id_of(v as u64)])
        .collect();
    let faults = FaultSet::from_nodes(dead);
    let view = faults.view(ffc.graph());
    if out.cycle.len() > 1 {
        assert!(is_cycle(&view, &out.cycle), "FFC output is not a cycle");
    }
    assert_eq!(
        out.cycle.len(),
        out.component_size,
        "cycle must be Hamiltonian in B*"
    );
}

#[test]
fn no_faults_gives_hamiltonian_cycle() {
    for (d, n) in [(2u64, 4u32), (2, 6), (3, 3), (4, 2), (5, 2)] {
        let ffc = Ffc::new(d, n);
        let out = ffc.embed(&[]);
        assert_eq!(out.cycle.len(), ffc.graph().len(), "d={d} n={n}");
        assert_eq!(out.faulty_necklaces, 0);
        assert_eq!(out.removed_nodes, 0);
        check_outcome(d, n, &[], &out);
    }
}

#[test]
fn example_2_1_reproduced() {
    // Faults at 020 and 112 in B(3,3): a 21-node fault-free cycle exists.
    let ffc = Ffc::new(3, 3);
    let g = ffc.graph();
    let faults = vec![g.node("020").unwrap(), g.node("112").unwrap()];
    let out = ffc.embed(&faults);
    assert_eq!(out.component_size, 21);
    assert_eq!(out.cycle.len(), 21);
    assert_eq!(out.faulty_necklaces, 2);
    assert_eq!(out.removed_nodes, 6);
    check_outcome(3, 3, &faults, &out);
}

#[test]
fn proposition_2_2_guarantee_holds() {
    // For f ≤ d−2 faults the cycle has length ≥ d^n − n·f and the
    // broadcast depth is at most 2n.
    for (d, n) in [(3u64, 3u32), (4, 3), (5, 2), (4, 4)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.graph().len();
        let max_f = (d - 2) as usize;
        // Exhaustive over single faults, plus structured multi-fault sets.
        for v in 0..total.min(80) {
            let out = ffc.embed(&[v]);
            assert!(
                out.cycle.len() >= FfcOutcome::guarantee(d, n, 1),
                "d={d} n={n} single fault at {v}: {} < {}",
                out.cycle.len(),
                FfcOutcome::guarantee(d, n, 1)
            );
            assert!(out.eccentricity <= 2 * n as usize);
        }
        if max_f >= 2 {
            // The paper's worst-case fault pattern {a^{n-1}(d-1)}.
            let space = ffc.graph().space();
            let worst: Vec<usize> = (0..max_f as u64)
                .map(|a| {
                    let mut digits = vec![a; n as usize];
                    digits[n as usize - 1] = d - 1;
                    space.from_digits(&digits) as usize
                })
                .collect();
            let out = ffc.embed(&worst);
            assert!(out.cycle.len() >= FfcOutcome::guarantee(d, n, worst.len()));
            check_outcome(d, n, &worst, &out);
        }
    }
}

#[test]
fn worst_case_pattern_is_tight() {
    // With faults {a^{n-1}(d-1) : 0 ≤ a ≤ f-1} each faulty necklace is
    // aperiodic and distinct, so exactly n·f nodes are removed and the
    // FFC cycle meets the optimum d^n − n·f exactly (Section 2.5).
    let (d, n) = (5u64, 3u32);
    let ffc = Ffc::new(d, n);
    let space = ffc.graph().space();
    for f in 1..=(d - 2) as usize {
        let faults: Vec<usize> = (0..f as u64)
            .map(|a| {
                let mut digits = vec![a; n as usize];
                digits[n as usize - 1] = d - 1;
                space.from_digits(&digits) as usize
            })
            .collect();
        let out = ffc.embed(&faults);
        assert_eq!(out.cycle.len(), FfcOutcome::guarantee(d, n, f), "f={f}");
        check_outcome(d, n, &faults, &out);
    }
}

#[test]
fn proposition_2_3_binary_single_fault() {
    // B(2,n) with one faulty node: cycle length ≥ 2^n − (n+1).
    for n in 4..=9u32 {
        let ffc = Ffc::new(2, n);
        let total = ffc.graph().len();
        for v in (0..total).step_by(7) {
            let out = ffc.embed(&[v]);
            let bound = total - (n as usize + 1);
            assert!(
                out.cycle.len() >= bound,
                "n={n} fault={v}: {} < {bound}",
                out.cycle.len()
            );
            check_outcome(2, n, &[v], &out);
        }
    }
}

#[test]
fn multiple_faults_on_same_necklace_cost_only_one_necklace() {
    let ffc = Ffc::new(3, 4);
    let g = ffc.graph();
    // 0112 and 1120 are rotations of each other.
    let faults = vec![g.node("0112").unwrap(), g.node("1120").unwrap()];
    let out = ffc.embed(&faults);
    assert_eq!(out.faulty_necklaces, 1);
    assert_eq!(out.removed_nodes, 4);
    assert_eq!(out.cycle.len(), 81 - 4);
    check_outcome(3, 4, &faults, &out);
}

#[test]
fn root_is_rerouted_when_its_necklace_fails() {
    let ffc = Ffc::new(2, 5);
    // Fail the default root 00001 itself.
    let out = ffc.embed(&[1]);
    assert_ne!(out.root, 1);
    assert!(out.cycle.len() >= 32 - 6);
    check_outcome(2, 5, &[1], &out);
}

#[test]
fn heavy_fault_load_still_yields_valid_cycle() {
    // Way beyond the d−2 guarantee: the algorithm still returns a valid
    // (possibly much shorter) cycle — this is what Tables 2.1/2.2 probe.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    let ffc = Ffc::new(2, 8);
    for trial in 0..20 {
        let f = 5 + trial % 10;
        let faults: Vec<usize> = (0..f).map(|_| rng.gen_range(0..256)).collect();
        let out = ffc.embed(&faults);
        check_outcome(2, 8, &faults, &out);
    }
}

#[test]
fn guarantee_helper() {
    assert_eq!(FfcOutcome::guarantee(4, 6, 2), 4096 - 12);
    assert_eq!(FfcOutcome::guarantee(2, 10, 50), 1024 - 500);
    assert_eq!(FfcOutcome::guarantee(2, 3, 100), 0);
}

// ------------------------------------------------------------------
// Engine-specific tests.
// ------------------------------------------------------------------

/// The engine and the textbook reference must agree on every output
/// field for identical inputs.
fn assert_engine_matches_reference(ffc: &Ffc, scratch: &mut EmbedScratch, faults: &[usize]) {
    let reference = embed_reference(ffc, faults);
    let stats = ffc.embed_into(scratch, faults);
    assert_eq!(stats.root, reference.root, "root mismatch for {faults:?}");
    assert_eq!(
        scratch.cycle(),
        &reference.cycle[..],
        "cycle mismatch for {faults:?}"
    );
    assert_eq!(stats.component_size, reference.component_size);
    assert_eq!(stats.eccentricity, reference.eccentricity, "{faults:?}");
    assert_eq!(stats.faulty_necklaces, reference.faulty_necklaces);
    assert_eq!(stats.removed_nodes, reference.removed_nodes);
}

#[test]
fn engine_matches_reference_exhaustively_on_single_faults() {
    for (d, n) in [(2u64, 6u32), (3, 3), (3, 4), (4, 3), (5, 2)] {
        let ffc = Ffc::new(d, n);
        let mut scratch = EmbedScratch::new();
        assert_engine_matches_reference(&ffc, &mut scratch, &[]);
        for v in 0..ffc.graph().len() {
            assert_engine_matches_reference(&ffc, &mut scratch, &[v]);
        }
    }
}

#[test]
fn engine_matches_reference_on_random_heavy_fault_sets() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2026);
    for (d, n) in [(2u64, 8u32), (2, 10), (3, 5), (4, 4)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.graph().len();
        let mut scratch = EmbedScratch::new();
        for trial in 0..40 {
            let f = trial % 13;
            let faults: Vec<usize> = (0..f).map(|_| rng.gen_range(0..total)).collect();
            assert_engine_matches_reference(&ffc, &mut scratch, &faults);
        }
    }
}

#[test]
fn scratch_is_reusable_across_sizes() {
    // One scratch, many graphs: buffers grow to the largest and results
    // stay correct when hopping between (d, n).
    let mut scratch = EmbedScratch::new();
    for (d, n) in [(2u64, 4u32), (4, 4), (2, 6), (3, 3), (2, 10), (3, 3)] {
        let ffc = Ffc::new(d, n);
        let stats = ffc.embed_into(&mut scratch, &[0]);
        assert_eq!(stats.component_size, scratch.cycle().len(), "d={d} n={n}");
    }
}

#[test]
fn embed_into_does_not_allocate_after_warmup() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ffc = Ffc::new(2, 10);
    let total = ffc.graph().len();
    let mut scratch = EmbedScratch::new();
    let mut rng = StdRng::seed_from_u64(7);
    // Warm up: the worst-case cycle length (no faults) sizes the cycle
    // buffer (and exercises the dense bit-parallel regime); a heavy fault
    // load keeps the bit passes in the sparse regime.
    let _ = ffc.embed_into(&mut scratch, &[]);
    let heavy: Vec<usize> = (0..300).map(|_| rng.gen_range(0..total)).collect();
    let _ = ffc.embed_into(&mut scratch, &heavy);
    let warm = scratch.allocated_bytes();
    let cycle_ptr = scratch.cycle().as_ptr();
    // A faulty root moves the root by the probe, which allocates nothing.
    let stats = ffc.embed_into(&mut scratch, &[1]);
    assert_ne!(stats.root, ffc.default_root());
    assert_eq!(scratch.allocated_bytes(), warm, "the root probe allocated");
    for trial in 0..200 {
        let f = if trial % 3 == 0 {
            250 + trial % 100
        } else {
            trial % 17
        };
        let faults: Vec<usize> = (0..f).map(|_| rng.gen_range(0..total)).collect();
        let _ = ffc.embed_into(&mut scratch, &faults);
        assert_eq!(
            scratch.allocated_bytes(),
            warm,
            "scratch grew on trial {trial} (f={f})"
        );
    }
    // The cycle buffer never reallocated either.
    let _ = ffc.embed_into(&mut scratch, &[]);
    assert_eq!(scratch.cycle().as_ptr(), cycle_ptr);
    assert_eq!(scratch.allocated_bytes(), warm);
}

#[test]
fn representative_and_members_match_partition() {
    let ffc = Ffc::new(3, 4);
    let space = ffc.graph().space();
    for v in 0..ffc.graph().len() {
        assert_eq!(
            ffc.representative_of(v),
            space.canonical_rotation(v as u64) as usize
        );
    }
    for (id, neck) in ffc.partition().necklaces().iter().enumerate() {
        let members: Vec<u64> = ffc
            .necklace_members(id)
            .iter()
            .map(|&v| u64::from(v))
            .collect();
        assert_eq!(members, neck.nodes(space));
    }
}

/// Root repair must be one policy, and the rule's definition: for every
/// fault set of size ≤ 2 — exhaustively in B(2,5) and B(3,3) — for 200
/// random heavy sets each on B(2,10), B(3,6) and B(4,5), and for the
/// all-faulty set, with four preferred roots each, the arithmetic probe
/// fed the engine's fault mask and `pick_root` (fed the necklace mask)
/// must return the root `oracle::bfs_root` finds by BFS over the full
/// graph ("nearest live node, ties broken by minimal id"), and
/// `embed_into` must root at its necklace's representative.
#[test]
fn root_repair_order_is_identical() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x2007);
    let small = [(2u64, 5u32), (3, 3)];
    let heavy = [(2u64, 10u32), (3, 6), (4, 5)];
    for (d, n) in small.into_iter().chain(heavy) {
        let ffc = Ffc::new(d, n);
        let (t, total) = (&ffc.tables, ffc.graph().len());
        let mut scratch = EmbedScratch::new();
        let mut fault_sets: Vec<Vec<usize>> = vec![(0..total).collect()];
        if small.contains(&(d, n)) {
            fault_sets.extend((0..total).map(|a| vec![a]));
            for a in 0..total {
                fault_sets.extend(((a + 1)..total).map(|b| vec![a, b]));
            }
        } else {
            for _ in 0..200 {
                let f = rng.gen_range(1..total / 2);
                fault_sets.push((0..f).map(|_| rng.gen_range(0..total)).collect());
            }
        }
        for faults in &fault_sets {
            let mask = ffc.faulty_necklace_mask(faults);
            let stats = ffc.embed_into(&mut scratch, faults);
            for preferred in [ffc.default_root(), 0, total / 2, total - 1] {
                let want = oracle::bfs_root(&ffc, preferred, &mask);
                let live = |v: usize| !t.reach.is_dead(&scratch.bits, v);
                let probed = probe_root(t.d, t.n_nodes, preferred, live);
                let ctx = format!("preferred={preferred} faults={faults:?} in B({d},{n})");
                assert_eq!(probed, want, "probe vs BFS root, {ctx}");
                if let Some(root) = want {
                    assert_eq!(ffc.pick_root(preferred, &mask), root, "{ctx}");
                }
                if preferred == ffc.default_root() {
                    let root = want.map_or(INFEASIBLE_ROOT, |r| ffc.representative_of(r));
                    assert_eq!(stats.root, root, "embed_into root, {ctx}");
                }
            }
        }
    }
}

/// `embed_stats_into` must report the identical scalars to the full
/// pipeline — exhaustively over single faults, on random heavy loads
/// (which exercise both the merged-broadcast fast path and the genuine
/// three-pass fallback), and on the all-nodes set that leaves no root.
#[test]
fn stats_only_path_matches_full_pipeline() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(13);
    for (d, n) in [(2u64, 6u32), (2, 9), (3, 4), (4, 3)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.graph().len();
        let mut full = EmbedScratch::new();
        let mut fast = EmbedScratch::new();
        let mut check = |faults: &[usize]| {
            let expected = ffc.embed_into(&mut full, faults);
            let got = ffc.embed_stats_into(&mut fast, faults);
            assert_eq!(got, expected, "stats diverge for {faults:?} in B({d},{n})");
            assert!(fast.cycle().is_empty(), "stats path must not build a cycle");
            assert_eq!(
                fast.cycle.capacity(),
                0,
                "stats path must not reserve a cycle"
            );
        };
        check(&[]);
        for v in 0..total {
            check(&[v]);
        }
        for trial in 0..60 {
            let f = trial % 17;
            let faults: Vec<usize> = (0..f).map(|_| rng.gen_range(0..total)).collect();
            check(&faults);
        }
        check(&(0..total).collect::<Vec<_>>());
        assert!(full.cycle().is_empty(), "an infeasible embed has no cycle");
    }
}

/// The no-allocation property must hold across *both* density regimes
/// of the bit-parallel stats path — light faults drive the
/// dense/bottom-up sweeps (and their fold buffers), heavy faults keep
/// the pass sparse/top-down — and on the u8 oracle's own scratch. The
/// stats-only path never sizes the spanning-tree stage at all.
#[test]
fn stats_only_path_does_not_allocate_after_warmup() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ffc = Ffc::new(2, 10);
    assert!(ffc.tables.reach.dense_capable());
    let total = ffc.graph().len();
    let mut scratch = EmbedScratch::new();
    let mut u8s = U8StatsScratch::default();
    let mut rng = StdRng::seed_from_u64(3);
    // Warm-up: no faults (dense regime, bottom-up buffers) and a heavy
    // load (sparse regime throughout). A faulty root, which moves the
    // root by the probe, runs inside the checked loop below.
    let _ = ffc.embed_stats_into(&mut scratch, &[]);
    let heavy: Vec<usize> = (0..300).map(|_| rng.gen_range(0..total)).collect();
    let _ = ffc.embed_stats_into(&mut scratch, &heavy);
    let _ = embed_stats_into_u8(&ffc, &mut u8s, &[]);
    assert_eq!(
        scratch.tree.allocated_bytes(),
        0,
        "the stats-only path must not size the spanning-tree stage"
    );
    let warm = scratch.allocated_bytes();
    let warm_u8 = u8s.allocated_bytes();
    for trial in 0..200 {
        let f = match trial % 3 {
            0 => trial % 17,
            1 => 60 + trial % 40,
            _ => 250 + trial % 100,
        };
        let mut faults: Vec<usize> = (0..f).map(|_| rng.gen_range(0..total)).collect();
        if trial == 0 {
            faults.push(ffc.default_root());
        }
        let _ = ffc.embed_stats_into(&mut scratch, &faults);
        assert_eq!(
            scratch.allocated_bytes(),
            warm,
            "bit path grew on trial {trial} (f={f})"
        );
        let _ = embed_stats_into_u8(&ffc, &mut u8s, &faults);
        assert_eq!(
            u8s.allocated_bytes(),
            warm_u8,
            "u8 path grew on trial {trial} (f={f})"
        );
    }
}

/// Satellite differential: the bit-parallel stats path, the u8-stamp
/// oracle and the textbook reference must report identical scalars for
/// **every** fault set of size ≤ 2 on B(2,5) and B(3,3), and for the
/// all-nodes set, which leaves no root.
#[test]
fn bit_u8_and_reference_stats_agree_exhaustively() {
    for (d, n) in [(2u64, 5u32), (3, 3)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.graph().len();
        let mut bit = EmbedScratch::new();
        let mut u8s = U8StatsScratch::default();
        let mut fault_sets: Vec<Vec<usize>> = vec![Vec::new()];
        fault_sets.extend((0..total).map(|a| vec![a]));
        for a in 0..total {
            for b in (a + 1)..total {
                fault_sets.push(vec![a, b]);
            }
        }
        fault_sets.push((0..total).collect());
        for faults in &fault_sets {
            let want = embed_reference(&ffc, faults);
            let got_bit = ffc.embed_stats_into(&mut bit, faults);
            let got_u8 = embed_stats_into_u8(&ffc, &mut u8s, faults);
            assert_eq!(got_bit, got_u8, "bit vs u8 for {faults:?} in B({d},{n})");
            assert_eq!(got_bit.root, want.root, "{faults:?}");
            assert_eq!(got_bit.component_size, want.component_size, "{faults:?}");
            assert_eq!(got_bit.eccentricity, want.eccentricity, "{faults:?}");
            assert_eq!(got_bit.faulty_necklaces, want.faulty_necklaces);
            assert_eq!(got_bit.removed_nodes, want.removed_nodes);
        }
    }
}

/// Satellite property test: on B(2,14) the bit-parallel path must
/// agree with the u8 oracle under fault loads on both sides of the
/// density-switch threshold — light loads run the dense bottom-up
/// sweeps, heavy loads (component shredded) stay sparse top-down.
#[test]
fn bit_stats_match_u8_on_b2_14_across_density_regimes() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ffc = Ffc::new(2, 14);
    assert!(ffc.tables.reach.dense_capable());
    let total = ffc.graph().len();
    let mut bit = EmbedScratch::new();
    let mut u8s = U8StatsScratch::default();
    let mut rng = StdRng::seed_from_u64(0xB17);
    let mut check = |faults: &[usize]| {
        let got = ffc.embed_stats_into(&mut bit, faults);
        let want = embed_stats_into_u8(&ffc, &mut u8s, faults);
        assert_eq!(got, want, "{} faults", faults.len());
    };
    check(&[]);
    for trial in 0..12 {
        // Dense side: a handful of faults, B* stays near-complete.
        let f = trial % 9;
        let light: Vec<usize> = (0..f).map(|_| rng.gen_range(0..total)).collect();
        check(&light);
        // Sparse side: thousands of faults shred the graph so no
        // frontier ever reaches the dense threshold.
        let f = 2000 + 500 * (trial % 4);
        let heavy: Vec<usize> = (0..f).map(|_| rng.gen_range(0..total)).collect();
        check(&heavy);
    }
}

/// Satellite regression: oversized spaces are rejected with the typed
/// error before any table is allocated, instead of truncating node
/// ids in release builds.
#[test]
fn try_new_rejects_oversized_spaces() {
    // B(2,32) has 2^32 nodes — one past the u32 id space.
    let err = Ffc::try_new(2, 32).expect_err("B(2,32) must not fit u32 ids");
    assert_eq!(err.n_nodes, Some(1 << 32));
    // B(2,64) overflows u64 entirely.
    let err = Ffc::try_new(2, 64).expect_err("B(2,64) overflows u64");
    assert_eq!(err.n_nodes, None);
    // In-range shapes still construct.
    assert!(Ffc::try_new(2, 10).is_ok());
    assert!(Ffc::try_new(3, 3).is_ok());
}

#[test]
#[should_panic(expected = "too large")]
fn new_panics_on_oversized_spaces() {
    let _ = Ffc::new(2, 32);
}

// ------------------------------------------------------------------
// Incremental engine (RingMaintainer) tests.
// ------------------------------------------------------------------

/// Asserts the maintainer's state equals a from-scratch embed of its
/// accumulated fault set: stats, ring bytes and every node's decoded
/// level (escaped levels compare by value). An infeasible embed leaves
/// the scratch's levels stale, so there every maintained level must read
/// [`UNREACHED`]. Either way a node has a level exactly when it is in B*.
pub(super) fn assert_maintainer_matches_scratch(
    ffc: &Ffc,
    maint: &RingMaintainer,
    scratch: &mut EmbedScratch,
    ring: &mut Vec<usize>,
    ctx: &str,
) {
    let faults = maint.faulty_nodes().to_vec();
    let want = ffc.embed_into(scratch, &faults);
    assert_eq!(
        maint.stats(),
        want,
        "stats diverge ({ctx}) faults={faults:?}"
    );
    maint.ring_into(ring);
    assert_eq!(
        &ring[..],
        scratch.cycle(),
        "ring bytes diverge ({ctx}) faults={faults:?}"
    );
    let feasible = want.root != INFEASIBLE_ROOT;
    for v in 0..ffc.tables.n_nodes {
        let got = maint.tree.levels.get(v);
        let expect = if feasible {
            scratch.tree.levels.get(v)
        } else {
            UNREACHED
        };
        assert_eq!(
            got, expect,
            "level of node {v} diverges ({ctx}) faults={faults:?}"
        );
        assert_eq!(
            got != UNREACHED,
            maint.in_bstar(v),
            "level reach and B* disagree at node {v} ({ctx}) faults={faults:?}"
        );
    }
}

/// Scalar broadcast-level oracle: BFS from `root` over the members along
/// forward de Bruijn edges `u -> (u mod d^(n-1))·d + a`.
fn oracle_levels(d: usize, member: &[bool], root: usize) -> Vec<u32> {
    let suffix = member.len() / d;
    let mut lv = vec![UNREACHED; member.len()];
    if !member[root] {
        return lv;
    }
    lv[root] = 0;
    let mut q = std::collections::VecDeque::from([root]);
    while let Some(u) = q.pop_front() {
        for a in 0..d {
            let v = (u % suffix) * d + a;
            if member[v] && lv[v] == UNREACHED {
                lv[v] = lv[u] + 1;
                q.push_back(v);
            }
        }
    }
    lv
}

/// Asserts the maintainer's levels equal the scalar oracle's BFS from its
/// root over its B* members, or are all [`UNREACHED`] when infeasible.
fn assert_levels_match_oracle(ffc: &Ffc, maint: &RingMaintainer, ctx: &str) {
    let total = ffc.tables.n_nodes;
    let want = if maint.root() == INFEASIBLE_ROOT {
        vec![UNREACHED; total]
    } else {
        let member: Vec<bool> = (0..total).map(|v| maint.in_bstar(v)).collect();
        oracle_levels(ffc.tables.d, &member, maint.root())
    };
    for (v, &want_v) in want.iter().enumerate() {
        assert_eq!(maint.tree.levels.get(v), want_v, "{ctx} node {v}");
    }
}

/// On B(2,5) and B(3,3), for every fault set of size ≤ 2, a maintainer
/// reset to the set holds the scalar oracle's levels.
#[test]
fn exhaustive_two_fault_levels_match_the_scalar_oracle() {
    for (d, n) in [(2u64, 5u32), (3, 3)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.tables.n_nodes;
        let mut maint = RingMaintainer::new();
        let mut sets = vec![Vec::new()];
        for a in 0..total {
            sets.push(vec![a]);
            sets.extend((a + 1..total).map(|b| vec![a, b]));
        }
        for faults in sets {
            maint.reset(&ffc, &faults).expect("in-range");
            assert_levels_match_oracle(&ffc, &maint, &format!("B({d},{n}) faults={faults:?}"));
        }
    }
}

/// B(2,14) is dense-capable: random fault batches walk the maintainer
/// across the sparse↔dense frontier switch, and its levels must match
/// the scalar oracle after every batch.
#[test]
fn b2_14_levels_match_oracle_across_the_density_switch() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ffc = Ffc::new(2, 14);
    let total = ffc.tables.n_nodes;
    let mut maint = RingMaintainer::new();
    for seed in [0x14, 0x5eed, 0xd3a5, 0xb214_u64] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults: Vec<usize> = Vec::new();
        maint.reset(&ffc, &faults).expect("in-range");
        for step in 0..rng.gen_range(4..9) {
            for _ in 0..rng.gen_range(1..5) {
                if !faults.is_empty() && rng.gen_range(0..3) == 0 {
                    let v = faults.swap_remove(rng.gen_range(0..faults.len()));
                    maint.clear_fault(&ffc, v).expect("in-range");
                } else {
                    let v = rng.gen_range(0..total);
                    if !faults.contains(&v) {
                        faults.push(v);
                    }
                    maint.add_fault(&ffc, v).expect("in-range");
                }
            }
            assert_ne!(maint.root(), INFEASIBLE_ROOT, "seed {seed} step {step}");
            assert_levels_match_oracle(&ffc, &maint, &format!("seed {seed} step {step}"));
        }
    }
}

/// The arrival-order grid: on B(2,5), B(3,3), B(4,3) and B(5,3), for
/// **every** ≤2-fault set and **every arrival order** (both permutations
/// of each pair), and for add-then-clear round trips, the maintainer's
/// stats and ring bytes must equal a from-scratch `embed_into` of the
/// accumulated fault set after every single event. Root-killing faults
/// are included, so the rebuild fallback is exercised alongside the delta
/// path; B(4,3) puts up to four children in one w-group on the delta
/// path, and the four shapes cover every arm of the entry rule the walks
/// derive from the exit bits (α ^ 1 at d = 2, the sibling scan at
/// power-of-two and other d).
#[test]
fn incremental_matches_from_scratch_exhaustively_on_all_arrival_orders() {
    for (d, n) in [(2u64, 5u32), (3, 3), (4, 3), (5, 3)] {
        let ffc = Ffc::new(d, n);
        let total = ffc.graph().len();
        let mut maint = RingMaintainer::new();
        let mut scratch = EmbedScratch::new();
        let mut ring = Vec::new();
        let mut check = |maint: &RingMaintainer, scratch: &mut EmbedScratch, ctx: &str| {
            assert_maintainer_matches_scratch(&ffc, maint, scratch, &mut ring, ctx);
        };
        // Singles, with add → clear round trips.
        maint.reset(&ffc, &[]).expect("in-range");
        check(&maint, &mut scratch, "empty");
        for a in 0..total {
            maint.add_fault(&ffc, a).expect("in-range");
            check(&maint, &mut scratch, "single add");
            maint.clear_fault(&ffc, a).expect("in-range");
            check(&maint, &mut scratch, "single clear");
        }
        // Pairs, both arrival orders, then clears in both orders.
        for a in 0..total {
            for b in (a + 1)..total {
                for order in [[a, b], [b, a]] {
                    maint.reset(&ffc, &[]).expect("in-range");
                    maint.add_fault(&ffc, order[0]).expect("in-range");
                    check(&maint, &mut scratch, "pair first add");
                    maint.add_fault(&ffc, order[1]).expect("in-range");
                    check(&maint, &mut scratch, "pair second add");
                    maint.clear_fault(&ffc, order[0]).expect("in-range");
                    check(&maint, &mut scratch, "pair first clear");
                    maint.clear_fault(&ffc, order[1]).expect("in-range");
                    check(&maint, &mut scratch, "pair second clear");
                }
            }
        }
        // The grid must have exercised genuine delta repairs, not just
        // rebuild fallbacks.
        assert!(maint.repairs().incremental > 0, "no delta repair ran");
    }
}

/// Duplicate faults (same node twice, or a second node on an already-dead
/// necklace) must be no-ops at the topology level, mirroring the set
/// semantics of `embed_into`'s fault list.
#[test]
fn incremental_duplicate_and_same_necklace_faults_are_absorbed() {
    let ffc = Ffc::new(3, 4);
    let g = ffc.graph();
    let mut maint = RingMaintainer::new();
    let mut scratch = EmbedScratch::new();
    let mut ring = Vec::new();
    maint.reset(&ffc, &[]).expect("in-range");
    // 0112 and 1120 are rotations of each other: one necklace.
    let a = g.node("0112").unwrap();
    let b = g.node("1120").unwrap();
    let s1 = maint.add_fault(&ffc, a).expect("in-range").stats();
    let s2 = maint.add_fault(&ffc, a).expect("in-range").stats(); // duplicate node
    assert_eq!(s1, s2);
    let s3 = maint.add_fault(&ffc, b).expect("in-range").stats(); // same necklace
    assert_eq!(s1, s3);
    assert_eq!(s3.faulty_necklaces, 1);
    assert_eq!(s3.removed_nodes, 4);
    assert_maintainer_matches_scratch(&ffc, &maint, &mut scratch, &mut ring, "same necklace");
    // Clearing one of the two faults keeps the necklace dead …
    let s4 = maint.clear_fault(&ffc, a).expect("in-range").stats();
    assert_eq!(s4, s3);
    assert_maintainer_matches_scratch(&ffc, &maint, &mut scratch, &mut ring, "partial clear");
    // … and clearing the last one revives it.
    let s5 = maint.clear_fault(&ffc, b).expect("in-range").stats();
    assert_eq!(s5.faulty_necklaces, 0);
    assert_eq!(s5.removed_nodes, 0);
    assert_maintainer_matches_scratch(&ffc, &maint, &mut scratch, &mut ring, "full clear");
}

/// A budget of 0 forces every event through the rebuild fallback; the
/// results must still be identical — the fallback and the delta path are
/// one contract.
#[test]
fn incremental_zero_budget_forces_identical_rebuilds() {
    let ffc = Ffc::new(2, 6);
    let total = ffc.graph().len();
    let mut delta = RingMaintainer::new();
    let mut rebuild = RingMaintainer::new().with_budget(Some(0));
    let mut ring_a = Vec::new();
    let mut ring_b = Vec::new();
    delta.reset(&ffc, &[]).expect("in-range");
    rebuild.reset(&ffc, &[]).expect("in-range");
    for v in (0..total).step_by(3) {
        let sa = delta.add_fault(&ffc, v).expect("in-range").stats();
        let sb = rebuild.add_fault(&ffc, v).expect("in-range").stats();
        assert_eq!(sa, sb, "add {v}");
        delta.ring_into(&mut ring_a);
        rebuild.ring_into(&mut ring_b);
        assert_eq!(ring_a, ring_b, "add {v}");
        let sa = delta.clear_fault(&ffc, v).expect("in-range").stats();
        let sb = rebuild.clear_fault(&ffc, v).expect("in-range").stats();
        assert_eq!(sa, sb, "clear {v}");
    }
    assert_eq!(delta.repairs().rebuilds, 1, "delta path fell back");
    assert!(rebuild.repairs().incremental == 0);
}

/// `reset` with an initial fault set equals embedding that set from
/// scratch, and the maintainer keeps working across resets (including
/// graph switches).
#[test]
fn incremental_reset_and_graph_switch() {
    let mut maint = RingMaintainer::new();
    let mut scratch = EmbedScratch::new();
    let mut ring = Vec::new();
    for (d, n) in [(2u64, 6u32), (3, 3), (2, 6), (4, 3)] {
        let ffc = Ffc::new(d, n);
        let faults = [1usize, 7, 7, 13];
        maint.reset(&ffc, &faults).expect("in-range");
        assert_maintainer_matches_scratch(&ffc, &maint, &mut scratch, &mut ring, "reset");
        maint.add_fault(&ffc, 3).expect("in-range");
        assert_maintainer_matches_scratch(&ffc, &maint, &mut scratch, &mut ring, "post-reset add");
    }
}

/// After warm-up at a fixed (d, n), repair events perform no heap
/// allocation — the incremental analogue of
/// `embed_into_does_not_allocate_after_warmup`, and the satellite audit
/// that the maintainer accounts every buffer it owns (delta scratch and the
/// rebuild's level arrays included).
#[test]
fn incremental_repairs_do_not_allocate_after_warmup() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ffc = Ffc::new(2, 10);
    let total = ffc.graph().len();
    let mut maint = RingMaintainer::new();
    let mut rng = StdRng::seed_from_u64(0x5e55);
    // Warm up: a rebuild with a heavy fault set (a deep, sparse
    // broadcast) and a few delta events.
    let heavy: Vec<usize> = (0..300).map(|_| rng.gen_range(0..total)).collect();
    maint.reset(&ffc, &heavy).expect("in-range");
    maint.reset(&ffc, &[]).expect("in-range");
    for v in [5usize, 100, 731] {
        maint.add_fault(&ffc, v).expect("in-range");
    }
    let warm = maint.allocated_bytes();
    // Killing the root's necklace moves the root (probe + rebuild), and
    // reviving it moves it back.
    maint.add_fault(&ffc, 1).expect("in-range");
    assert_ne!(maint.root(), ffc.default_root());
    maint.clear_fault(&ffc, 1).expect("in-range");
    assert_eq!(maint.allocated_bytes(), warm, "a root move allocated");
    for trial in 0..300 {
        let v = rng.gen_range(0..total);
        if maint.faulty_nodes().contains(&v) {
            maint.clear_fault(&ffc, v).expect("in-range");
        } else {
            maint.add_fault(&ffc, v).expect("in-range");
        }
        assert_eq!(
            maint.allocated_bytes(),
            warm,
            "maintainer grew on trial {trial}"
        );
    }
}

/// The maintainer's forward-level histogram sums to |B*|: faults kill
/// whole necklaces, so the forward set is B* (the invariant the netsim
/// online harness leans on).
#[test]
fn incremental_forward_histogram_is_consistent() {
    let ffc = Ffc::new(2, 7);
    let mut maint = RingMaintainer::new();
    maint.reset(&ffc, &[9, 33]).expect("in-range");
    let counts = maint.forward_level_counts();
    assert!(!counts.is_empty());
    assert_eq!(counts[0], 1, "exactly the root at level 0");
    let reachable: usize = counts.iter().sum();
    assert_eq!(reachable, maint.stats().component_size);
}

/// `TreeStage::select` on a necklace whose members all hold escaped
/// levels (above the inline maximum, 253), least on a member other than
/// the minimal one: every byte key carries the escape byte, so the
/// selection re-folds over decoded levels and picks the least level, and
/// the parent digit follows from that Y.
#[test]
fn select_decodes_escaped_levels() {
    let ffc = Ffc::new(2, 6);
    let mut stage = TreeStage::default();
    stage.levels.grow(64);
    // All levels UNREACHED: the empty tree, with necklace 0 as the root's.
    stage.build(&ffc, 0);
    let nid = ffc.partition().membership()[0b000111] as usize;
    let members = ffc.necklace_members(nid).to_vec();
    assert!(members.len() == 6 && members.contains(&0b111000));
    for (k, &m) in members.iter().enumerate() {
        let l = if m == 0b111000 { 300 } else { 400 + k as u32 };
        stage.levels.set(m as usize, l);
    }
    // Y = 111000 has label w = 11100; its predecessors are 011100 (on
    // Y's own necklace, level 400+) and 111100, which is one level up.
    stage.levels.set(0b111100, 299);
    let edges = stage.select(&ffc, nid);
    assert_eq!(stage.record(nid), (0b111000, 1));
    assert_eq!(edges, [None, Some((0b11100, 1))]);
}
