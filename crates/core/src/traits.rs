//! The common interfaces the experiment harness drives algorithms through:
//! [`DynamicClustering`] for one-update-at-a-time processing,
//! [`BatchUpdate`] for whole-batch processing, [`Snapshot`] for typed
//! checkpoint/restore persistence and — unifying all of them behind one
//! object-safe handle — [`Clusterer`], the trait the [`crate::Session`]
//! facade wraps.

use crate::cluster::{group_by_from_clustering, StrCluResult};
use crate::elm::{DynElm, ElmStats, FlippedEdge};
use crate::snapshot::CheckpointCapture;
use crate::strclu::DynStrClu;
use dynscan_graph::{
    GraphError, GraphUpdate, MemoryFootprint, SnapshotError, SnapshotKind, VertexId,
};
use std::fmt;

/// Why a single update was rejected, with its cause.
///
/// All three causes leave the structure completely unchanged; callers are
/// free to treat them as recoverable (a stream replay simply skips them)
/// or to surface them (a service returns them to the client).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// An insertion of an edge that is already present.
    DuplicateInsert {
        /// First endpoint as supplied by the caller.
        u: VertexId,
        /// Second endpoint as supplied by the caller.
        v: VertexId,
    },
    /// A deletion of an edge that is not present.
    MissingDelete {
        /// First endpoint as supplied by the caller.
        u: VertexId,
        /// Second endpoint as supplied by the caller.
        v: VertexId,
    },
    /// Both endpoints name the same vertex (the graphs are simple, so
    /// self-loops are invalid).
    InvalidVertex {
        /// The offending vertex.
        v: VertexId,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::DuplicateInsert { u, v } => {
                write!(f, "duplicate insertion: edge ({u}, {v}) already exists")
            }
            UpdateError::MissingDelete { u, v } => {
                write!(f, "missing deletion: edge ({u}, {v}) does not exist")
            }
            UpdateError::InvalidVertex { v } => {
                write!(f, "invalid vertex: self-loop on {v} is not allowed")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<GraphError> for UpdateError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::EdgeExists { u, v } => UpdateError::DuplicateInsert { u, v },
            GraphError::EdgeMissing { u, v } => UpdateError::MissingDelete { u, v },
            GraphError::SelfLoop { v } => UpdateError::InvalidVertex { v },
        }
    }
}

/// A dynamic structural clustering algorithm: something that consumes a
/// stream of edge insertions/deletions and can produce the StrClu result on
/// request.
///
/// Implemented by [`DynElm`], [`DynStrClu`] and the baselines in
/// `dynscan-baseline`, so the experiment harness (Figures 7–11 of the
/// paper) can run them interchangeably.
pub trait DynamicClustering {
    /// A short human-readable name (used in experiment output).
    fn algorithm_name(&self) -> &'static str;

    /// Apply one update, reporting the net label flips it caused.
    ///
    /// Invalid updates (duplicate insertions, deletions of missing edges,
    /// self-loops) leave the structure unchanged and report their cause as
    /// an [`UpdateError`].
    fn try_apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError>;

    /// Extract the current clustering (O(n + m)).
    fn current_clustering(&self) -> StrCluResult;

    /// Approximate memory footprint in bytes (Table 1).
    fn memory_bytes(&self) -> usize;

    /// Number of updates successfully applied.
    fn updates_applied(&self) -> u64;

    /// Number of vertices the structure currently covers.
    fn num_vertices(&self) -> usize;

    /// Number of edges currently in the graph.
    fn num_edges(&self) -> usize;

    /// Optional labelling work counters (only the DynELM-based algorithms
    /// have them).
    fn elm_stats(&self) -> Option<ElmStats> {
        None
    }
}

/// A dynamic clustering algorithm that can consume updates in batches.
///
/// `apply_batch` must leave the structure in a state *valid for the
/// post-batch graph* — identical topology to one-at-a-time application,
/// every label within the algorithm's approximation guarantee — while
/// being free to deduplicate and reorder the similarity re-estimation work
/// inside the batch window.  The returned [`FlippedEdge`] set is the
/// **net** label change of the batch (coalesced, sorted by edge key);
/// invalid updates inside the batch are skipped, mirroring how
/// [`DynamicClustering::try_apply`] rejects them one at a time.
///
/// Implemented by [`DynElm`] and [`DynStrClu`] (deduplicated DT drain plus
/// parallel deterministic re-estimation) and by the two exact dynamic
/// baselines in `dynscan-baseline` (deduplicated relabelling over exact
/// counts), so the batch-throughput experiments can drive all four
/// interchangeably.
pub trait BatchUpdate: DynamicClustering {
    /// Apply a batch of updates; returns the coalesced net flip set.
    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge>;
}

/// Checkpoint/restore of a dynamic clustering algorithm's full live state.
///
/// The contract is **bit-identical resume**: feeding any update stream `S`
/// to `restore(checkpoint(A))` must produce exactly the state that feeding
/// `S` to `A` itself would have — the same edge labels, the same DT
/// counters and in-flight protocol rounds, and (in sampled mode) the same
/// future random draws, because the per-edge invocation counters and the
/// adjacency slot order that positional neighbourhood sampling depends on
/// are both part of the snapshot.  A restarted service therefore continues
/// as if it never stopped, rather than paying a full rebuild and drifting
/// onto a different (even if equally valid) labelling trajectory.
///
/// The wire format is the versioned, length-prefixed, checksummed binary
/// of [`dynscan_graph::snapshot`]; [`SnapshotError`] reports truncation,
/// corruption, version or algorithm mismatches instead of deserialising
/// garbage.  Every map-shaped structure is written in sorted order, so the
/// encoding is canonical: equal states produce byte-identical snapshots.
///
/// One portability caveat on the *bit*-identity claim: sampled-mode label
/// decisions size their draws via `f64::ln`, whose last-ulp behaviour is
/// libm-dependent, so "same future random draws" is guaranteed when
/// checkpoint and resume run on the same platform/libm (the snapshot
/// itself is portable and restores everywhere; across libms a resumed run
/// could round a sample count differently and diverge onto another —
/// equally ρ-valid — trajectory).
///
/// This trait is deliberately **not** object-safe (`Sized`, generic
/// writers, an associated tag): it is the typed path for callers that know
/// which structure they hold.  The erased path — restoring *whatever
/// algorithm a snapshot contains* behind `Box<dyn Clusterer>` — is
/// [`crate::session::restore_any`], which dispatches on the same
/// [`Snapshot::ALGO_TAG`] through the backend registry.
///
/// Implemented by [`DynElm`], [`DynStrClu`] (in [`crate::snapshot`]) and
/// the two exact dynamic baselines in `dynscan-baseline`.
pub trait Snapshot: Sized {
    /// Algorithm tag stored in the snapshot header, so a snapshot of one
    /// structure cannot silently restore as another.
    const ALGO_TAG: u32;

    /// Serialise the full live state into `w`.
    fn checkpoint<W: std::io::Write>(&self, w: W) -> Result<(), SnapshotError>;

    /// Rebuild an instance from a checkpoint produced by
    /// [`Snapshot::checkpoint`].
    fn restore<R: std::io::Read>(r: R) -> Result<Self, SnapshotError>;

    /// Convenience: checkpoint into a fresh byte vector.
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.checkpoint(&mut buf)
            .expect("writing to a Vec cannot fail");
        buf
    }

    /// Serialise the full live state as a legacy **format v2** document
    /// (fixed-width payload encoding under a version-2 header).  The
    /// compat gates and the v2-vs-v3 bench rows use this writer;
    /// restoring the bytes yields exactly the same state as
    /// [`Snapshot::checkpoint_bytes`], and re-encoding that state under
    /// the current format reproduces the v3 bytes byte for byte.
    fn checkpoint_v2_bytes(&self) -> Vec<u8>;

    /// Capture a checkpoint for the differential chain: a delta encoding
    /// only the state touched since the previous capture when
    /// `prefer_delta` holds and a base exists, a full snapshot otherwise
    /// (the actual kind is on the returned capture).  Capturing clears
    /// the instance's dirty marks and advances its chain position; the
    /// returned [`CheckpointCapture`] is fully encoded but not yet
    /// written, so framing + I/O can run off the update thread.
    ///
    /// `wall_time_millis` (ms since the Unix epoch; 0 = unstamped) is
    /// recorded in the document header.
    fn capture(&mut self, prefer_delta: bool, wall_time_millis: u64) -> CheckpointCapture;

    /// Apply one differential document on top of this instance, which
    /// must sit exactly at the delta's base (freshly restored or just
    /// captured, no mutations in between) — otherwise
    /// [`SnapshotError::DeltaBaseMismatch`] or a corruption error is
    /// returned.  **On error the instance may hold partially merged
    /// state and must be discarded.**
    fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;

    /// Convenience: capture and write a full snapshot, restarting the
    /// delta chain.
    fn checkpoint_full<W: std::io::Write>(
        &mut self,
        w: W,
        wall_time_millis: u64,
    ) -> Result<(), SnapshotError> {
        self.capture(false, wall_time_millis).write_to(w)
    }

    /// Convenience: capture and write a delta (or a full snapshot when no
    /// base exists yet); returns which kind was written.
    fn checkpoint_delta<W: std::io::Write>(
        &mut self,
        w: W,
        wall_time_millis: u64,
    ) -> Result<SnapshotKind, SnapshotError> {
        let capture = self.capture(true, wall_time_millis);
        let kind = capture.kind();
        capture.write_to(w)?;
        Ok(kind)
    }
}

/// The unified, **object-safe** engine interface: everything a service (or
/// the [`crate::Session`] facade) needs to drive any backend through one
/// `Box<dyn Clusterer>` handle.
///
/// `Clusterer` composes the per-update ([`DynamicClustering`], with the
/// typed [`DynamicClustering::try_apply`]) and batched ([`BatchUpdate`])
/// ingestion paths, and adds the two operations that previously existed
/// only on concrete types:
///
/// * **cluster-group-by** ([`Clusterer::cluster_group_by`], Theorem 7.1) —
///   lifted from a `DynStrClu` inherent method into the trait.  DynStrClu
///   answers in O(|Q| · log n) from its connectivity structure; DynELM and
///   the exact baselines answer from their maintained labels via an
///   O(n + m) extraction.  All implementations return the same canonical
///   form: each group sorted by vertex id, groups sorted by their smallest
///   member, noise vertices in no group, hub vertices in every group whose
///   cluster contains them.
/// * **erased checkpointing** ([`Clusterer::checkpoint_to`] /
///   [`Clusterer::checkpoint_bytes`]) — the same wire bytes as the typed
///   [`Snapshot`] path (the [`Clusterer::algo_tag`] in the header is what
///   [`crate::session::restore_any`] dispatches on), but callable on a
///   trait object, so a service can checkpoint whatever it is running
///   without knowing the concrete type.
pub trait Clusterer: BatchUpdate + Send {
    /// The algorithm tag this backend writes into its snapshot headers
    /// (equals [`Snapshot::ALGO_TAG`] of the concrete type).
    fn algo_tag(&self) -> u32;

    /// Configure how many worker threads this backend's parallel work
    /// (batch re-estimation, sharded aux maintenance) runs on: `0` means
    /// the global pool's default, `n > 0` a dedicated pool of exactly
    /// `n` workers.  Purely a performance knob — results are
    /// bit-identical at every thread count — and a no-op for backends
    /// without parallel paths (the exact baselines).
    fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Bound the bytes the backend's graph keeps in its hot (mutable
    /// indexed) adjacency tier; least-recently-touched neighbourhoods
    /// beyond the budget live in a compact cold arena (`None` = keep
    /// everything hot).  Purely a residency knob — promotion/demotion is
    /// driven by a deterministic touch clock, so results are
    /// byte-identical at any budget — and a no-op for backends without a
    /// tiered graph.
    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        let _ = bytes;
    }

    /// Answer a cluster-group-by query (Definition 3.2): group the
    /// vertices of `q` by the clusters containing them.
    ///
    /// Canonical form: members of each group sorted ascending and
    /// deduplicated, groups in lexicographic order of their member
    /// lists.  Vertices in
    /// no cluster (noise, unknown ids) appear in no group; hub vertices
    /// appear in several groups.
    fn cluster_group_by(&mut self, q: &[VertexId]) -> Vec<Vec<VertexId>>;

    /// Serialise the full live state into `w` (erased counterpart of
    /// [`Snapshot::checkpoint`]; identical bytes).
    fn checkpoint_to(&self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError>;

    /// Convenience: checkpoint into a fresh byte vector.
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.checkpoint_to(&mut buf)
            .expect("writing to a Vec cannot fail");
        buf
    }

    /// Erased counterpart of [`Snapshot::checkpoint_v2_bytes`]: the same
    /// live state under the legacy format-v2 writer (identical bytes).
    /// Exists for the compat gates and the v2-vs-v3 bench rows; new code
    /// wanting the current format uses [`Clusterer::checkpoint_bytes`].
    fn checkpoint_v2_bytes(&self) -> Vec<u8>;

    /// Erased counterpart of [`Snapshot::capture`]: capture a full or
    /// differential checkpoint, encoded but not yet written.
    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture;

    /// Erased counterpart of [`Snapshot::apply_delta`].  **On error the
    /// instance may hold partially merged state and must be discarded.**
    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;

    /// Apply a run of consecutive delta documents in order.  Semantically
    /// identical to calling [`Clusterer::apply_delta_bytes`] once per
    /// document, and that is the default; backends whose delta apply ends
    /// with an expensive re-derivation of derived modules (vAuxInfo +
    /// `G_core` for DynStrClu, the similarity index for the indexed
    /// baseline) override this to merge every delta first and derive
    /// **once**, so chain replay costs O(chain) + one rebuild instead of
    /// one rebuild per delta.  **On error the instance may hold partially
    /// merged state and must be discarded**, exactly as for a single
    /// failed delta.
    fn apply_delta_chain(&mut self, docs: &[&[u8]]) -> Result<(), SnapshotError> {
        for doc in docs {
            self.apply_delta_bytes(doc)?;
        }
        Ok(())
    }

    /// A handle to the execution pool this backend's parallel work runs
    /// on — the `Session` rides background checkpoint encoding/I/O on the
    /// same pool.  Backends without one report the global pool.
    fn exec_pool_handle(&self) -> crate::pool::ExecPool {
        crate::pool::ExecPool::global()
    }
}

impl DynamicClustering for DynElm {
    fn algorithm_name(&self) -> &'static str {
        "DynELM"
    }

    fn try_apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError> {
        self.apply(update).map_err(UpdateError::from)
    }

    fn current_clustering(&self) -> StrCluResult {
        self.clustering()
    }

    fn memory_bytes(&self) -> usize {
        MemoryFootprint::memory_bytes(self)
    }

    fn updates_applied(&self) -> u64 {
        self.stats().updates
    }

    fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.graph().num_edges()
    }

    fn elm_stats(&self) -> Option<ElmStats> {
        Some(self.stats())
    }
}

impl DynamicClustering for DynStrClu {
    fn algorithm_name(&self) -> &'static str {
        "DynStrClu"
    }

    fn try_apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError> {
        self.apply(update).map_err(UpdateError::from)
    }

    fn current_clustering(&self) -> StrCluResult {
        self.clustering()
    }

    fn memory_bytes(&self) -> usize {
        MemoryFootprint::memory_bytes(self)
    }

    fn updates_applied(&self) -> u64 {
        self.stats().updates
    }

    fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.graph().num_edges()
    }

    fn elm_stats(&self) -> Option<ElmStats> {
        Some(self.stats())
    }
}

impl BatchUpdate for DynElm {
    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        DynElm::apply_batch(self, updates)
    }
}

impl BatchUpdate for DynStrClu {
    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        DynStrClu::apply_batch(self, updates)
    }
}

impl Clusterer for DynElm {
    fn algo_tag(&self) -> u32 {
        <DynElm as Snapshot>::ALGO_TAG
    }

    fn set_threads(&mut self, threads: usize) {
        self.set_exec_pool(crate::pool::ExecPool::with_threads(threads));
    }

    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.graph.set_memory_budget(bytes);
    }

    /// DynELM keeps no connectivity structure, so group-by goes through
    /// the O(n + m) extraction of its maintained labelling.
    fn cluster_group_by(&mut self, q: &[VertexId]) -> Vec<Vec<VertexId>> {
        group_by_from_clustering(&self.clustering(), q)
    }

    fn checkpoint_to(&self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError> {
        Snapshot::checkpoint(self, w)
    }

    fn checkpoint_v2_bytes(&self) -> Vec<u8> {
        Snapshot::checkpoint_v2_bytes(self)
    }

    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture {
        Snapshot::capture(self, prefer_delta, wall_time_millis)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        Snapshot::apply_delta(self, bytes)
    }

    fn exec_pool_handle(&self) -> crate::pool::ExecPool {
        self.exec_pool().clone()
    }
}

impl Clusterer for DynStrClu {
    fn algo_tag(&self) -> u32 {
        <DynStrClu as Snapshot>::ALGO_TAG
    }

    fn set_threads(&mut self, threads: usize) {
        self.set_exec_pool(crate::pool::ExecPool::with_threads(threads));
    }

    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.elm.graph.set_memory_budget(bytes);
    }

    /// The O(|Q| · log n) path of Theorem 7.1 over `CC-Str(G_core)`.
    fn cluster_group_by(&mut self, q: &[VertexId]) -> Vec<Vec<VertexId>> {
        DynStrClu::cluster_group_by(self, q)
    }

    fn checkpoint_to(&self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError> {
        Snapshot::checkpoint(self, w)
    }

    fn checkpoint_v2_bytes(&self) -> Vec<u8> {
        Snapshot::checkpoint_v2_bytes(self)
    }

    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture {
        Snapshot::capture(self, prefer_delta, wall_time_millis)
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        Snapshot::apply_delta(self, bytes)
    }

    /// Merge every delta into the labelling first, then derive vAuxInfo
    /// and rebuild `CC-Str(G_core)` once for the whole run.
    fn apply_delta_chain(&mut self, docs: &[&[u8]]) -> Result<(), SnapshotError> {
        self.apply_delta_chain_impl(docs)
    }

    fn exec_pool_handle(&self) -> crate::pool::ExecPool {
        self.exec_pool().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{two_cliques_params, two_cliques_with_hub};
    use dynscan_graph::VertexId;

    #[test]
    fn trait_objects_are_interchangeable() {
        let params = two_cliques_params().with_exact_labels();
        let mut algos: Vec<Box<dyn Clusterer>> = vec![
            Box::new(DynElm::new(params)),
            Box::new(DynStrClu::new(params)),
        ];
        let g = two_cliques_with_hub();
        for algo in &mut algos {
            for e in g.edges() {
                algo.try_apply(GraphUpdate::Insert(e.lo(), e.hi()))
                    .expect("fresh edge inserts");
            }
            // Rejections carry their cause but are not fatal.
            assert_eq!(
                algo.try_apply(GraphUpdate::Insert(VertexId(0), VertexId(1))),
                Err(UpdateError::DuplicateInsert {
                    u: VertexId(0),
                    v: VertexId(1)
                })
            );
            assert_eq!(
                algo.try_apply(GraphUpdate::Delete(VertexId(0), VertexId(5000))),
                Err(UpdateError::MissingDelete {
                    u: VertexId(0),
                    v: VertexId(5000)
                })
            );
            assert_eq!(
                algo.try_apply(GraphUpdate::Insert(VertexId(3), VertexId(3))),
                Err(UpdateError::InvalidVertex { v: VertexId(3) })
            );
            let result = algo.current_clustering();
            assert_eq!(result.num_clusters(), 2, "{}", algo.algorithm_name());
            assert!(algo.memory_bytes() > 0);
            assert_eq!(algo.updates_applied() as usize, g.num_edges());
            assert_eq!(algo.num_edges(), g.num_edges());
            assert_eq!(algo.num_vertices(), g.num_vertices());
            assert!(algo.elm_stats().is_some());
        }
    }

    #[test]
    fn group_by_through_the_trait_is_canonical_for_both_backends() {
        let params = two_cliques_params().with_exact_labels();
        let mut algos: Vec<Box<dyn Clusterer>> = vec![
            Box::new(DynElm::new(params)),
            Box::new(DynStrClu::new(params)),
        ];
        let g = two_cliques_with_hub();
        let q: Vec<VertexId> = vec![VertexId(0), VertexId(6), VertexId(12), VertexId(13)];
        let mut answers = Vec::new();
        for algo in &mut algos {
            for e in g.edges() {
                algo.try_apply(GraphUpdate::Insert(e.lo(), e.hi())).unwrap();
            }
            answers.push(algo.cluster_group_by(&q));
        }
        // Canonical form: identical Vec<Vec<_>> across backends, groups
        // sorted by smallest member.
        assert_eq!(answers[0], answers[1]);
        assert_eq!(
            answers[0],
            vec![
                vec![VertexId(0), VertexId(12)],
                vec![VertexId(6), VertexId(12)]
            ]
        );
    }

    #[test]
    fn erased_checkpoint_matches_typed_checkpoint() {
        let params = two_cliques_params().with_seed(99);
        let mut algo = DynStrClu::new(params);
        let g = two_cliques_with_hub();
        for e in g.edges() {
            algo.insert_edge(e.lo(), e.hi()).unwrap();
        }
        let typed = Snapshot::checkpoint_bytes(&algo);
        let erased = {
            let dyn_ref: &dyn Clusterer = &algo;
            dyn_ref.checkpoint_bytes()
        };
        assert_eq!(typed, erased);
        assert_eq!(
            dynscan_graph::snapshot::peek_algo_tag(&erased).unwrap(),
            Clusterer::algo_tag(&algo)
        );
    }
}
