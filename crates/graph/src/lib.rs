//! Interconnection-network graph substrate.
//!
//! The Rowley–Bose ring-embedding algorithms operate on the d-ary de Bruijn
//! digraph B(d,n) and relate it to several other classical interconnection
//! topologies (the undirected de Bruijn graph, butterflies, hypercubes,
//! shuffle-exchange and Kautz graphs). This crate implements all of those
//! topologies from scratch together with the graph algorithms the
//! embeddings need:
//!
//! * [`digraph`] / [`ungraph`] — concrete adjacency-list containers.
//! * [`topology`] — the [`Topology`] trait: a uniform
//!   "node count + successor enumeration" view shared by materialised
//!   graphs, implicit generators and fault-masked views.
//! * [`debruijn`], [`butterfly`], [`hypercube`], [`shuffle_exchange`],
//!   [`kautz`] — the network families.
//! * [`faults`] — node/edge fault sets and the faulty view of a topology.
//! * [`algo`] — BFS/eccentricity, connected and strongly connected
//!   components, Eulerian circuits, cycle validation and brute-force
//!   longest-cycle search for small instances.
//! * [`dot`] — Graphviz export used by the figure-regeneration binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod butterfly;
pub mod debruijn;
pub mod digraph;
pub mod dot;
pub mod faults;
pub mod hypercube;
pub mod kautz;
pub mod routing;
pub mod shuffle_exchange;
pub mod topology;
pub mod ungraph;

pub use butterfly::Butterfly;
pub use debruijn::{DeBruijn, UndirectedDeBruijn};
pub use digraph::DiGraph;
pub use faults::{FaultSet, FaultyView};
pub use hypercube::Hypercube;
pub use kautz::Kautz;
pub use shuffle_exchange::ShuffleExchange;
pub use topology::Topology;
pub use ungraph::UnGraph;
