//! Fault-tolerant ring embedding in de Bruijn networks.
//!
//! This crate is the primary contribution of the Rowley–Bose reproduction:
//! given a d-ary de Bruijn network B(d,n) with failed processors or failed
//! links, it finds the largest fault-free ring the theory guarantees.
//!
//! * [`ffc`] — the **fault-free cycle (FFC) algorithm** of Chapter 2:
//!   tolerate node failures by stitching non-faulty necklaces into a single
//!   cycle. For f ≤ d−2 failures the cycle has length at least d^n − n·f
//!   (Proposition 2.2), and for a single failure in the binary graph at
//!   least 2^n − (n+1) (Proposition 2.3). The production surface is one
//!   full-ring path ([`Ffc::embed_into`]), one stats-only path
//!   ([`Ffc::embed_stats_into`], batched by [`Ffc::embed_batch`]), the
//!   [`RingMaintainer`], which persists the pipeline's phase outputs and
//!   repairs them under online `add_fault`/`clear_fault` streams instead
//!   of re-embedding, and the [`RingService`] below.
//! * [`necklace_graph`] — the necklace adjacency graph N* and its spanning
//!   structures (Figures 2.1–2.4).
//! * [`disjoint`] — edge-disjoint Hamiltonian cycles (Section 3.2):
//!   maximal cycles from linear recurrences, the translate family s + C,
//!   Strategies 1–3, the Rees product for composite alphabets, and the
//!   bound ψ(d) of Table 3.1.
//! * [`edge_faults`] — fault-free Hamiltonian cycles under link failures
//!   (Section 3.3): tolerance MAX{ψ(d)−1, φ(d)} (Propositions 3.3, 3.4 and
//!   Table 3.2).
//! * [`modified`] — the modified graph MB(d,n) and its Hamiltonian
//!   decomposition (Section 3.2.3, Figure 3.3).
//! * [`butterfly`] — lifting de Bruijn cycles to butterfly networks via the
//!   Φ map (Section 3.4, Propositions 3.5 and 3.6).
//! * [`bitreach`] — the bit-parallel reachability engine under the FFC
//!   hot paths: word-packed visited/frontier/fault sets,
//!   direction-optimizing BFS that advances 64 nodes per word op on
//!   power-of-two alphabets (the B(2,20)-scale workhorse), and the
//!   delta level-repair passes behind incremental fault updates.
//! * [`bounds`] — the closed-form fault-tolerance bounds ψ(d) and φ(d).
//! * [`serve`] — the ring-as-a-service layer: a [`RingService`] writer
//!   thread drains a bounded fault-event queue through the
//!   [`RingMaintainer`] and publishes each repaired ring as an immutable
//!   epoch-stamped [`ffc::RingSnapshot`]; [`ReaderHandle`]s serve
//!   successor/membership/segment lookups wait-free against the latest
//!   published generation.
//! * [`sweep`] — the batch sweep engine: deterministic Monte-Carlo plans
//!   ([`SweepPlan`]), sharded allocation-free execution
//!   ([`BatchEmbedder`], [`Ffc::embed_batch`]), reusable fault drawing,
//!   and the nested incremental rows ([`FaultSchedule::Nested`]) that run
//!   a whole sweep row through the [`RingMaintainer`].
//! * [`verify`] — validation helpers shared by tests, benches and examples.
//! * [`oracle`] — the slow, simple twins the engine is pinned against by
//!   the differential tests and raced against by the benchmarks. They are
//!   not re-exported here or in the facade prelude.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitreach;
pub mod bounds;
pub mod butterfly;
pub mod churn;
pub mod disjoint;
pub mod edge_faults;
pub mod ffc;
mod mem;
pub mod modified;
pub mod necklace_graph;
pub mod oracle;
pub mod seq;
pub mod serve;
pub mod sweep;
pub mod verify;

pub use bitreach::{
    BitFrontier, BitReach, BitScratch, DeltaBudgetExceeded, DeltaScratch, DensePolicy, LevelStore,
    LevelVec, SpaceTooLarge, UNREACHED, UNREACHED_U8,
};
pub use bounds::{edge_fault_tolerance, phi_edge_bound, psi};
pub use butterfly::{lift_cycle, ButterflyEmbedder};
pub use churn::{replay_churn, ChurnPlan, ChurnReport, ChurnStep};
pub use disjoint::{DisjointHamiltonianCycles, MaximalCycleFamily};
pub use edge_faults::{EdgeFaultEmbedder, NoFaultFreeCycle};
pub use ffc::{
    EmbedScratch, EmbedStats, FaultEvent, Ffc, FfcOutcome, LookupError, RepairError, RepairOutcome,
    RepairStats, RingMaintainer, RingSnapshot, SnapshotPublisher,
};
pub use modified::ModifiedDeBruijn;
pub use necklace_graph::NecklaceAdjacency;
pub use serve::{ReaderHandle, RingService, ServeOptions, ServiceReport, SubmitError};
pub use sweep::{BatchEmbedder, FaultDrawer, FaultSchedule, SweepAccumulator, SweepPlan, Trial};
