//! # dynscan-graph
//!
//! Dynamic graph substrate for the DynSCAN family of algorithms (the Rust
//! reproduction of *Dynamic Structural Clustering on Graphs*, SIGMOD 2021).
//!
//! The crate provides:
//!
//! * [`VertexId`] / [`EdgeKey`] — lightweight identifiers; an edge key is an
//!   unordered pair so `(u, v)` and `(v, u)` address the same edge.
//! * [`IndexedSet`] — a set with O(1) insert / remove / contains **and**
//!   O(1) uniform random sampling.  Uniform neighbourhood sampling is the
//!   primitive the paper's (Δ, δ)-similarity estimator is built on
//!   (Section 4 of the paper), so the adjacency structure exposes it
//!   directly rather than forcing callers to copy neighbour lists.
//! * [`DynGraph`] — an undirected simple graph under edge insertions and
//!   deletions, with closed-neighbourhood membership tests and degree
//!   queries in O(1).  Every consumer walks it directly, the O(n + m)
//!   clustering-result extraction, the static SCAN baseline and the
//!   similarity estimator included.
//! * [`GraphUpdate`] — one edge insertion or deletion;
//!   [`DynGraph::check_update`] is the one validity check every backend's
//!   single-update path and batch engine share.
//! * [`snapshot`] — the length-prefixed, checksummed binary snapshot codec
//!   ([`SnapWriter`] / [`SnapReader`] / [`SnapshotError`]) every
//!   checkpointable structure in the workspace serialises through,
//!   including [`DynGraph`] itself (adjacency slot order is preserved so
//!   restored instances sample neighbourhoods bit-identically).
//! * [`GraphError`] — error type shared by the mutating operations.
//!
//! All structures report an approximate heap footprint through
//! [`MemoryFootprint`], which the Table-1 experiment of the paper
//! (peak memory over the update sequence) relies on.

// No unsafe anywhere in this crate — enforced, not aspirational.
#![forbid(unsafe_code)]

pub mod dynamic_graph;
pub mod edge;
pub mod error;
pub mod footprint;
pub mod indexed_set;
pub mod kernel;
pub mod snapshot;
pub mod update;
pub mod vertex;

pub use dynamic_graph::{default_memory_budget, DynGraph, NeighbourIter, NeighbourhoodRef};
pub use edge::EdgeKey;
pub use error::GraphError;
pub use footprint::{GraphMemoryBreakdown, MemoryFootprint};
pub use indexed_set::IndexedSet;
pub use kernel::KernelMode;
pub use snapshot::{
    DocumentMeta, SnapReader, SnapWriter, SnapshotError, SnapshotHeader, SnapshotKind,
};
pub use update::GraphUpdate;
pub use vertex::VertexId;
