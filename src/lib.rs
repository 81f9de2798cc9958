//! # debruijn-rings
//!
//! Fault-tolerant ring embedding in de Bruijn networks — a full Rust
//! implementation of Rowley & Bose's results (ICPP 1991 / IEEE ToC 1993 and
//! the 1993 OSU thesis of the same title).
//!
//! This facade crate re-exports the workspace so applications can depend on
//! a single crate:
//!
//! * [`algebra`] — number theory, finite fields GF(p^e), polynomials, LFSR
//!   sequences and d-ary words.
//! * [`graph`] — de Bruijn, butterfly and hypercube topologies plus the
//!   graph algorithms used by the embeddings.
//! * [`necklace`] — necklace (rotation-class) machinery and the Chapter 4
//!   counting formulas.
//! * [`core`] — the embeddings themselves: the FFC algorithm for node
//!   failures, edge-disjoint Hamiltonian cycles, link-failure-tolerant
//!   Hamiltonian cycles, the modified graph MB(d,n) and butterfly lifting.
//! * [`netsim`] — a synchronous message-passing simulator, the distributed
//!   FFC protocol of Section 2.4 and ring-based collectives.
//! * [`baselines`] — the hypercube ring embedder and a greedy baseline used
//!   for comparisons.
//!
//! ## Quick start
//!
//! ```rust
//! use debruijn_rings::prelude::*;
//!
//! // A 4096-processor network B(4,6) with two failed processors.
//! let ffc = Ffc::new(4, 6);
//! let failed = vec![17, 2048];
//! let ring = ffc.embed(&failed);
//! assert!(ring.cycle.len() >= FfcOutcome::guarantee(4, 6, failed.len())); // ≥ 4084
//!
//! // Steady-state embedding (Monte-Carlo sweeps, reconfiguration services):
//! // hold an EmbedScratch and re-embed with zero heap allocation per call.
//! let mut scratch = EmbedScratch::new();
//! for f in 0..8usize {
//!     let faults: Vec<usize> = (0..f).map(|i| 17 * i + 3).collect();
//!     let stats = ffc.embed_into(&mut scratch, &faults);
//!     assert_eq!(scratch.cycle().len(), stats.component_size);
//! }
//!
//! // Monte-Carlo sweeps: a deterministic plan on the batch engine.
//! // Per-trial seeding makes results bit-identical at any shard count.
//! let mut batch = BatchEmbedder::new(2);
//! let plan = SweepPlan::new(FaultSchedule::Constant(2), 50, 7);
//! let sizes = ffc.embed_batch(&mut batch, &plan, |acc: &mut Vec<usize>, t| {
//!     acc.push(t.stats.component_size);
//! });
//! assert_eq!(sizes.len(), 50);
//!
//! // Three edge-disjoint Hamiltonian cycles of B(4,2) (ψ(4) = 3).
//! let family = DisjointHamiltonianCycles::construct(4, 2);
//! assert_eq!(family.count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dbg_algebra as algebra;
pub use dbg_baselines as baselines;
pub use dbg_graph as graph;
pub use dbg_necklace as necklace;
pub use dbg_netsim as netsim;
pub use debruijn_core as core;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dbg_algebra::words::WordSpace;
    pub use dbg_algebra::{GField, Lfsr};
    pub use dbg_baselines::HypercubeRingEmbedder;
    pub use dbg_graph::{Butterfly, DeBruijn, FaultSet, Hypercube, Topology, UndirectedDeBruijn};
    pub use dbg_necklace::{Necklace, NecklacePartition};
    pub use dbg_netsim::{
        all_to_all_broadcast, distributed_sweep, split_all_to_all_broadcast, ChaosConfig,
        DistributedFfc, Network, OnlineFfc,
    };
    pub use debruijn_core::{
        edge_fault_tolerance, lift_cycle, phi_edge_bound, psi, replay_churn, BatchEmbedder,
        ButterflyEmbedder, ChurnPlan, ChurnReport, ChurnStep, DisjointHamiltonianCycles,
        EdgeFaultEmbedder, EmbedScratch, EmbedStats, FaultDrawer, FaultEvent, FaultSchedule, Ffc,
        FfcOutcome, LookupError, MaximalCycleFamily, ModifiedDeBruijn, NecklaceAdjacency,
        NoFaultFreeCycle, ReaderHandle, RepairError, RepairOutcome, RingMaintainer, RingService,
        RingSnapshot, ServeOptions, ServiceReport, SnapshotPublisher, SpaceTooLarge, SubmitError,
        SweepAccumulator, SweepPlan,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let ffc = Ffc::new(3, 3);
        let out = ffc.embed(&[4]);
        assert!(out.cycle.len() >= FfcOutcome::guarantee(3, 3, 1));
        assert_eq!(psi(4), 3);
    }
}
