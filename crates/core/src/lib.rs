//! # dynscan-core
//!
//! The paper's primary contribution: **DynELM** and **DynStrClu**, dynamic
//! structural clustering of a graph subject to edge insertions and
//! deletions.
//!
//! * [`DynElm`] maintains a valid ρ-approximate edge labelling under
//!   updates in O(log² n + log n · log(M/δ*)) amortized time per update
//!   (Theorem 6.1), by combining the sampling-based (Δ, δ)-labelling
//!   strategy (`dynscan-sim`) with per-edge distributed-tracking instances
//!   organised in per-vertex heaps (`dynscan-dt`).  From the maintained
//!   labelling the full clustering can be extracted in O(n + m) time.
//!
//! * [`DynStrClu`] layers the vertex auxiliary information (similar-
//!   neighbour counts, core flags, similar-core neighbour sets) and a fully
//!   dynamic connectivity structure over the sim-core graph
//!   (`dynscan-conn`) on top of DynELM, preserving all of its guarantees
//!   and additionally answering **cluster-group-by queries** in
//!   O(|Q| · log n) time (Theorem 7.1).
//!
//! * [`StrCluResult`] / [`extract_clustering`] implement the O(n + m)
//!   StrClu-result extraction of Fact 1, shared by the dynamic algorithms
//!   and the baselines.  The result is a structurally shared value, so
//!   DynStrClu's [`Clusterer::refresh_clustering`] can bring an earlier
//!   result up to date in proportion to the clusters a flip set touched.
//!
//! * [`Clusterer::apply_batch`] is the batch update engine's entry point:
//!   it takes a whole burst of updates, applies the topology in stream
//!   order, drains DT maturities **once per endpoint across the batch**,
//!   re-estimates the deduplicated affected-edge set **in parallel** with
//!   deterministic per-edge random streams, and feeds the coalesced net
//!   flip set to vAuxInfo / `G_core` maintenance once.  Single updates are the
//!   batch-size-1 special case of the same engine (see [`elm`] for the
//!   precise semantics).
//!
//! Both algorithms work under Jaccard and cosine similarity
//! ([`SimilarityMeasure`]), mirroring Sections 2–7 and 8 of the paper.
//!
//! ## The `Session` facade (recommended entry point)
//!
//! Applications drive any backend through one handle: the object-safe
//! [`Clusterer`] trait is the whole engine contract — typed update
//! application ([`Clusterer::try_apply`]), batch ingestion
//! ([`Clusterer::apply_batch`]), clustering extraction, cluster-group-by
//! queries and checkpoint/restore — and [`Session`] layers streaming
//! ingestion with
//! **read-your-writes** semantics on top: pushed updates are buffered
//! into size-bounded batches ([`AutoBatchPolicy`]), and every query
//! flushes the buffer first, so it always observes a state valid for
//! every accepted update.
//!
//! ```
//! use dynscan_core::{AutoBatchPolicy, Backend, GraphUpdate, Params, Session, VertexId};
//!
//! let mut session = Session::builder()
//!     .backend(Backend::DynStrClu)
//!     .params(Params::jaccard(0.5, 2).with_rho(0.05))
//!     .auto_batch(AutoBatchPolicy::Size(512))
//!     .build()
//!     .unwrap();
//! // Stream a small triangle plus a pendant vertex.
//! for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     session.push(GraphUpdate::Insert(VertexId(a), VertexId(b)));
//! }
//! let clustering = session.clustering();
//! assert!(clustering.num_clusters() >= 1);
//! // Group-by query over a subset of vertices.
//! let groups = session.cluster_group_by(&[VertexId(0), VertexId(3)]);
//! assert!(!groups.is_empty());
//! ```
//!
//! Snapshots of *any* registered backend restore behind the same erased
//! handle via [`restore_any`] (the registry dispatches on the snapshot's
//! algorithm tag); the exact baselines in `dynscan-baseline` join the
//! registry through that crate's `install()`.  The concrete types
//! ([`DynElm`], [`DynStrClu`]) remain available for callers that need
//! their full inherent APIs, including the typed `restore` and
//! `ALGO_TAG`.

pub mod aux;
pub mod clock;
pub mod cluster;
pub mod elm;
pub mod epoch;
pub mod fixtures;
pub mod gate;
pub mod params;
pub mod pool;
pub mod session;
pub mod snapshot;
pub mod store;
pub mod strclu;
pub mod sync;
pub mod testing;
pub mod traits;

pub use aux::VertexAux;
pub use clock::{Clock, MockClock, SystemClock};
pub use cluster::{extract_clustering, group_by_from_clustering, StrCluResult, VertexRole};
pub use elm::{DynElm, ElmStats, FlippedEdge};
pub use epoch::{EpochCell, EpochReadHandle, EpochSnapshot};
pub use params::Params;
pub use pool::ExecPool;
pub use session::{
    register_backend, restore_any, restore_any_chain, restore_any_with_info, AutoBatchPolicy,
    Backend, Session, SessionBuilder, SessionError, SnapshotInfo,
};
pub use snapshot::{CheckpointCapture, DirtyTracker};
pub use store::{CheckpointStore, DirCheckpointStore, TailError, TailedDoc};
pub use strclu::DynStrClu;
pub use testing::{FaultPlan, FlakySink, FlakyStore, MemCheckpointStore};
pub use traits::{Clusterer, UpdateError};

// Re-export the vocabulary types users need alongside the algorithms.
pub use dynscan_graph::{EdgeKey, GraphError, GraphUpdate, SnapshotError, SnapshotKind, VertexId};
pub use dynscan_sim::{EdgeLabel, SimilarityMeasure};
