//! [`Clusterer`], the one object-safe engine interface every backend
//! implements and the [`crate::Session`] facade wraps, and
//! [`UpdateError`], the typed cause of a rejected update.

use crate::cluster::{group_by_from_clustering, StrCluResult};
use crate::elm::{DynElm, ElmStats, FlippedEdge};
use crate::snapshot::{self, finish_full_capture, CheckpointCapture};
use crate::strclu::{DynStrClu, LiveView};
use dynscan_graph::snapshot::write_document;
use dynscan_graph::{
    GraphError, GraphUpdate, MemoryFootprint, SnapWriter, SnapshotError, VertexId,
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

/// The engine interface every backend implements — [`DynElm`],
/// [`DynStrClu`] and the two exact dynamic baselines in
/// `dynscan-baseline` — and the one handle the [`crate::Session`] facade,
/// the service layer and the experiment harness (Figures 7–11 of the
/// paper) drive them through.  The trait is **object-safe**: a service
/// runs whatever backend it was configured or restored with behind one
/// `Box<dyn Clusterer>`.
///
/// # Updates
///
/// [`Clusterer::try_apply`] applies one update and reports the net label
/// flips it caused.  Invalid updates — duplicate insertions, deletions of
/// missing edges, self-loops — leave the structure completely unchanged
/// and report their cause as an [`UpdateError`].
///
/// [`Clusterer::apply_batch`] must leave the structure in a state *valid
/// for the post-batch graph* — identical topology to one-at-a-time
/// application, every label within the algorithm's approximation
/// guarantee — while being free to deduplicate and reorder the similarity
/// re-estimation work inside the batch window.  The returned
/// [`FlippedEdge`] set is the **net** label change of the batch
/// (coalesced, sorted by edge key); invalid updates inside the batch are
/// skipped, mirroring how `try_apply` rejects them one at a time.
///
/// # Queries
///
/// [`Clusterer::current_clustering`] extracts the clustering in
/// O(n + m).  [`Clusterer::refresh_clustering`] may bring an earlier
/// result up to date incrementally, but its result must **equal**
/// extraction.  [`Clusterer::cluster_group_by`] (Theorem 7.1) is answered
/// by DynStrClu in O(|Q| · log n) from its connectivity structure and by
/// DynELM and the exact baselines from their maintained labels via an
/// O(n + m) extraction; every implementation returns the same canonical
/// form (each group sorted by vertex id, groups sorted by their smallest
/// member, noise vertices in no group, hub vertices in every group whose
/// cluster contains them).
///
/// # Checkpoints
///
/// [`Clusterer::checkpoint_to`] serialises the full live state as a
/// versioned, length-prefixed, checksummed document
/// ([`dynscan_graph::snapshot`]) whose header carries
/// [`Clusterer::algo_tag`]; [`crate::session::restore_any`] dispatches on
/// that tag to the restorer registered for it, and each backend also has
/// an inherent `restore` and `ALGO_TAG`.  Restores report truncation,
/// corruption, version or algorithm mismatches as a [`SnapshotError`]
/// instead of deserialising garbage.  Every map-shaped structure is
/// written in sorted order, so the encoding is canonical: equal states
/// produce byte-identical documents.
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
/// One portability caveat on the *bit*-identity claim: sampled-mode label
/// decisions size their draws via `f64::ln`, whose last-ulp behaviour is
/// libm-dependent, so "same future random draws" is guaranteed when
/// checkpoint and resume run on the same platform/libm (the snapshot
/// itself is portable and restores everywhere; across libms a resumed run
/// could round a sample count differently and diverge onto another —
/// equally ρ-valid — trajectory).
pub trait Clusterer: Send {
    /// A short human-readable name (used in experiment output).
    fn algorithm_name(&self) -> &'static str;

    /// Apply one update, reporting the net label flips it caused, or the
    /// [`UpdateError`] that left the structure unchanged.
    fn try_apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError>;

    /// Apply a batch of updates; returns the coalesced net flip set
    /// (see the [trait docs](Clusterer)).
    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge>;

    /// Extract the current clustering (O(n + m)).
    fn current_clustering(&self) -> StrCluResult;

    /// Bring `prev`, this structure's clustering at an earlier state, up
    /// to date, given the endpoints of every edge whose label flipped
    /// since (any order, duplicates allowed).  The result must equal
    /// [`Clusterer::current_clustering`].  `None`, the default, means the
    /// structure has no incremental path: extract instead.
    fn refresh_clustering(
        &self,
        prev: &StrCluResult,
        flip_endpoints: &[VertexId],
    ) -> Option<StrCluResult> {
        let _ = (prev, flip_endpoints);
        None
    }

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

    /// The algorithm tag this backend writes into its snapshot headers
    /// (equals the concrete type's inherent `ALGO_TAG`).
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

    /// Serialise the full live state into `w` as a deterministic full
    /// snapshot (unstamped, chain position untouched).
    fn checkpoint_to(&self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError>;

    /// Convenience: checkpoint into a fresh byte vector.
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.checkpoint_to(&mut buf)
            .expect("writing to a Vec cannot fail");
        buf
    }

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
    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture;

    /// Apply one differential document on top of this instance, which
    /// must sit exactly at the delta's base (freshly restored or just
    /// captured, no mutations in between) — otherwise
    /// [`SnapshotError::DeltaBaseMismatch`] or a corruption error is
    /// returned.  **On error the instance may hold partially merged
    /// state and must be discarded.**
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

impl Clusterer for DynElm {
    fn algorithm_name(&self) -> &'static str {
        "DynELM"
    }

    fn try_apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError> {
        self.apply(update).map_err(UpdateError::from)
    }

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        DynElm::apply_batch(self, updates)
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

    fn algo_tag(&self) -> u32 {
        DynElm::ALGO_TAG
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
        let mut payload = SnapWriter::new();
        snapshot::write_elm_payload(self, &mut payload);
        write_document(w, DynElm::ALGO_TAG, &payload.into_bytes())
    }

    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture {
        if prefer_delta {
            if let Some(capture) =
                snapshot::try_capture_elm_delta(self, DynElm::ALGO_TAG, wall_time_millis)
            {
                return capture;
            }
        }
        let mut w = SnapWriter::new();
        snapshot::write_elm_payload(self, &mut w);
        finish_full_capture(
            DynElm::ALGO_TAG,
            &mut self.dirty,
            w.into_bytes(),
            wall_time_millis,
        )
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        snapshot::apply_elm_delta(self, DynElm::ALGO_TAG, bytes)
    }

    fn exec_pool_handle(&self) -> crate::pool::ExecPool {
        self.exec_pool().clone()
    }
}

impl Clusterer for DynStrClu {
    fn algorithm_name(&self) -> &'static str {
        "DynStrClu"
    }

    fn try_apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError> {
        self.apply(update).map_err(UpdateError::from)
    }

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        DynStrClu::apply_batch(self, updates)
    }

    fn current_clustering(&self) -> StrCluResult {
        self.clustering()
    }

    /// Patches a clone of `prev` from vAuxInfo and `CC-Str(G_core)`:
    /// O(volume of the clusters the flips touched) plus the chunks it
    /// rewrites, instead of O(n + m).  `prev` keeps every chunk it shares
    /// with the result.
    fn refresh_clustering(
        &self,
        prev: &StrCluResult,
        flip_endpoints: &[VertexId],
    ) -> Option<StrCluResult> {
        let mut next = prev.clone();
        next.refresh(flip_endpoints, &LiveView(self));
        Some(next)
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

    fn algo_tag(&self) -> u32 {
        DynStrClu::ALGO_TAG
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
        let mut payload = SnapWriter::new();
        snapshot::write_elm_payload(&self.elm, &mut payload);
        snapshot::write_aux_payload(self, &mut payload);
        write_document(w, DynStrClu::ALGO_TAG, &payload.into_bytes())
    }

    /// The delta payload is the ELM delta alone: vAuxInfo and `G_core`
    /// are pure functions of the restored labelling and are re-derived
    /// on apply.
    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture {
        if prefer_delta {
            if let Some(capture) = snapshot::try_capture_elm_delta(
                &mut self.elm,
                DynStrClu::ALGO_TAG,
                wall_time_millis,
            ) {
                return capture;
            }
        }
        let mut w = SnapWriter::new();
        snapshot::write_elm_payload(&self.elm, &mut w);
        snapshot::write_aux_payload(self, &mut w);
        finish_full_capture(
            DynStrClu::ALGO_TAG,
            &mut self.elm.dirty,
            w.into_bytes(),
            wall_time_millis,
        )
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.apply_delta_chain(&[bytes])
    }

    /// Merge every delta into the labelling first, then derive vAuxInfo
    /// and rebuild `CC-Str(G_core)` once for the whole run — both are
    /// pure functions of the final (labels, μ), so intermediate
    /// derivations are dead work.
    fn apply_delta_chain(&mut self, docs: &[&[u8]]) -> Result<(), SnapshotError> {
        if docs.is_empty() {
            return Ok(());
        }
        for bytes in docs {
            snapshot::apply_elm_delta(&mut self.elm, DynStrClu::ALGO_TAG, bytes)?;
        }
        self.aux = snapshot::derive_aux(&self.elm, self.mu);
        self.core_graph = snapshot::rebuild_core_graph(&self.elm, &self.aux);
        Ok(())
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
        let typed = algo.checkpoint_bytes();
        let erased = {
            let dyn_ref: &dyn Clusterer = &algo;
            dyn_ref.checkpoint_bytes()
        };
        assert_eq!(typed, erased);
        assert_eq!(
            dynscan_graph::snapshot::peek_algo_tag(&erased).unwrap(),
            DynStrClu::ALGO_TAG
        );
        // The inherent typed restore and the registry's erased one agree.
        let from_typed = DynStrClu::restore(&erased[..]).unwrap();
        let from_erased = crate::session::restore_any(&erased).unwrap();
        assert_eq!(from_typed.checkpoint_bytes(), erased);
        assert_eq!(from_erased.checkpoint_bytes(), erased);
    }
}
