//! DynELM: dynamic edge-labelling maintenance (Section 6 of the paper),
//! plus the batch update engine.
//!
//! # Batch semantics
//!
//! [`DynElm::apply_batch`] processes a burst of updates as one unit:
//!
//! 1. **Topology first** — all insertions/deletions are applied to the
//!    graph in stream order; every update increments the DT counters of its
//!    endpoints, deletions tear down their label and DT instance.
//! 2. **Deduplicated drain** — the DT maturities pending at the batch's
//!    touched vertices are drained **once per endpoint across the whole
//!    batch** ([`dynscan_dt::DtRegistry::drain_ready_batch`]), so an edge
//!    incident to a busy vertex is re-estimated once per batch instead of
//!    once per update.  Once a checkpoint has been taken, the dirty
//!    tracker marks every edge the drain signalled and every edge to be
//!    relabelled, and marks vertices only in phase 1: a delta writes a
//!    vertex only for its adjacency and DT counter, which only topology
//!    updates change.  A signal or a relabel rewrites the edge's label,
//!    coordinator and both participant heap entries, and all of those
//!    ride on the edge's record in the delta, so marking the edge alone
//!    captures it.
//! 3. **Parallel re-estimation** — the deduplicated affected set (matured
//!    edges ∪ surviving new edges) is sorted and relabelled in parallel
//!    against the post-batch topology.  Labellings are numbered over the
//!    whole run, as in the paper: the job at 1-based rank `r` of the
//!    sorted list is labelling `i = (labellings before the batch) + r`,
//!    sized with `δᵢ = δ*/(i(i+1))` and drawing from the deterministic
//!    stream `seed ⊕ batch-epoch ⊕ edge ⊕ i` (see
//!    [`dynscan_sim::EdgeRng`]).  Both are fixed before the parallel map,
//!    so the result is bit-identical at every thread count and under any
//!    scheduling of the relabel work.
//! 4. **Coalesced flips** — the returned [`FlippedEdge`] set is the *net*
//!    label change of the batch relative to the pre-batch labelling
//!    (an edge that flips twice inside a batch cancels out), ready to be
//!    fed to vAuxInfo and `G_core` maintenance exactly once.
//!
//! Every label produced this way is computed against the post-batch graph
//! with the full (½ρε, δᵢ)-strategy accuracy and every affected edge's DT
//! instance restarts with a threshold for its post-batch degrees, so the
//! maintained labelling is ρ-approximately valid after the batch.  The δᵢ
//! telescope to at most δ* over the whole run, so every label the run ever
//! produces is ρ-approximately valid with probability at least 1 − δ*
//! (Theorem 6.1; see [`LabellingStrategy::label_deterministic`]).
//! Relabelling *when* inside
//! the batch window an edge is examined is where batching differs from
//! one-at-a-time processing: a sampled-mode edge that matures mid-batch is
//! re-examined against the final topology rather than an intermediate one
//! (both are valid labellings; with exact labels and ρ = 0 the two
//! executions are state-identical — see the `batch_equivalence`
//! integration tests).
//!
//! The single-update API ([`DynElm::insert_edge`] / [`DynElm::delete_edge`])
//! routes through the same engine with a singleton batch, so there is one
//! code path and "sequential" is by construction the batch-size-1 special
//! case.

use crate::cluster::{extract_clustering, StrCluResult};
use crate::params::Params;
use crate::pool::ExecPool;
use dynscan_dt::DtRegistry;
use dynscan_graph::{DynGraph, EdgeKey, GraphError, GraphUpdate, MemoryFootprint, VertexId};
use dynscan_sim::{EdgeLabel, LabelOutcome, LabellingStrategy};
use std::collections::HashMap;

/// An edge whose label flipped while processing one update, together with
/// its new label (the set `F` returned by each DynELM step).
///
/// For a deletion of a similar edge the entry carries
/// [`EdgeLabel::Dissimilar`]: the edge is gone, which downstream is
/// equivalent to its label flipping to dissimilar (Section 7's running
/// example treats it exactly that way).
pub type FlippedEdge = (EdgeKey, EdgeLabel);

/// Counters describing the work DynELM has performed (used by the
/// experiment harness and the ablation benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElmStats {
    /// Updates processed so far (insertions + deletions).
    pub updates: u64,
    /// Labelling-strategy invocations (initial labels + relabels).
    pub labellings: u64,
    /// Relabellings triggered by DT maturity.
    pub dt_maturities: u64,
    /// Net label flips observed (coalesced per batch).
    pub label_flips: u64,
    /// Similarity samples drawn.
    pub samples_drawn: u64,
    /// Batches processed (single updates count as batches of size 1).
    pub batches: u64,
}

/// Reusable buffers of the batch engine, kept on the instance so steady
/// state batches — including the batch-size-1 single-update path —
/// allocate almost nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchScratch {
    /// Endpoints touched by the current batch (sorted + deduped in place).
    touched: Vec<VertexId>,
    /// Relabel jobs: affected edge and its labelling number in the run.
    jobs: Vec<(EdgeKey, u64)>,
    /// `(edge, label at first touch)` log; first occurrence per key is the
    /// edge's pre-batch label.
    pre_labels: Vec<(EdgeKey, Option<EdgeLabel>)>,
    /// Edges inserted by the batch and still alive (delete cancels).
    new_edges: Vec<EdgeKey>,
}

impl MemoryFootprint for BatchScratch {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.touched.capacity() * std::mem::size_of::<VertexId>()
            + self.jobs.capacity() * std::mem::size_of::<(EdgeKey, u64)>()
            + self.pre_labels.capacity() * std::mem::size_of::<(EdgeKey, Option<EdgeLabel>)>()
            + self.new_edges.capacity() * std::mem::size_of::<EdgeKey>()
    }
}

/// Dynamic Edge-Labelling Maintenance.
///
/// Maintains a valid ρ-approximate edge labelling `L(G)` under edge
/// insertions and deletions, in O(log² n + log n · log(M/δ*)) amortized time
/// per update, using:
///
/// * the (½ρε, δᵢ)-labelling strategy (sampling estimator) for every label
///   decision, and
/// * one distributed-tracking instance per edge, organised in per-vertex
///   checkpoint heaps, to decide *when* an edge's label must be re-examined
///   (after `τ(u, v)` affecting updates).
///
/// The full clustering can be extracted at any time in O(n + m) with
/// [`DynElm::clustering`].
#[derive(Clone, Debug)]
pub struct DynElm {
    pub(crate) params: Params,
    pub(crate) graph: DynGraph,
    pub(crate) labels: HashMap<EdgeKey, EdgeLabel>,
    pub(crate) dt: DtRegistry,
    /// The labelling strategy; its invocation counter numbers every
    /// labelling of the run (the δᵢ schedule position).
    pub(crate) strategy: LabellingStrategy,
    pub(crate) scratch: BatchScratch,
    pub(crate) stats: ElmStats,
    /// Dirty-state bookkeeping for differential checkpoints: which
    /// vertices/edges were touched since the last capture, plus the chain
    /// position of that capture.  Starts all-dirty (marking disabled, so
    /// instances that never checkpoint pay nothing); not serialised.
    pub(crate) dirty: crate::snapshot::DirtyTracker,
    /// Execution pool the parallel re-estimation (and, through DynStrClu,
    /// the shard fan-out) runs on.  Runtime configuration, not state: it
    /// is not serialised, not compared, and a restored instance starts on
    /// the global pool.
    pub(crate) pool: ExecPool,
}

impl DynElm {
    /// Create an empty DynELM instance with the given parameters.
    pub fn new(params: Params) -> Self {
        params.validate();
        let mut strategy =
            LabellingStrategy::new(params.measure, params.eps, params.rho, params.delta_star);
        if params.exact_labels {
            strategy = strategy.with_exact_labels();
        }
        DynElm {
            params,
            graph: DynGraph::new(),
            labels: HashMap::new(),
            dt: DtRegistry::new(0),
            strategy,
            scratch: BatchScratch::default(),
            stats: ElmStats::default(),
            dirty: crate::snapshot::DirtyTracker::new(),
            pool: ExecPool::global(),
        }
    }

    /// The algorithm parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Replace the execution pool parallel work runs on (default: the
    /// global work-stealing pool).  Pure runtime configuration — results
    /// are bit-identical on every pool at every thread count.
    pub fn set_exec_pool(&mut self, pool: ExecPool) {
        self.pool = pool;
    }

    /// The execution pool in use.
    pub fn exec_pool(&self) -> &ExecPool {
        &self.pool
    }

    /// The current graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The current label of an edge, if the edge exists.
    pub fn label(&self, key: EdgeKey) -> Option<EdgeLabel> {
        self.labels.get(&key).copied()
    }

    /// Whether the edge is currently labelled similar.
    pub fn is_similar(&self, u: VertexId, v: VertexId) -> bool {
        self.labels
            .get(&EdgeKey::new(u, v))
            .is_some_and(|l| l.is_similar())
    }

    /// Iterate over all `(edge, label)` pairs.
    pub fn labels(&self) -> impl Iterator<Item = (EdgeKey, EdgeLabel)> + '_ {
        self.labels.iter().map(|(&k, &l)| (k, l))
    }

    /// Number of edges currently labelled similar.
    pub fn num_similar_edges(&self) -> usize {
        self.labels.values().filter(|l| l.is_similar()).count()
    }

    /// Work counters.
    pub fn stats(&self) -> ElmStats {
        ElmStats {
            labellings: self.strategy.invocations(),
            samples_drawn: self.strategy.samples_drawn(),
            ..self.stats
        }
    }

    /// Apply a single update as a batch of one, or report why it is
    /// invalid ([`DynGraph::check_update`]) and change nothing.
    pub fn apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, GraphError> {
        self.graph.check_update(update)?;
        Ok(self.apply_batch(&[update]))
    }

    /// Insert the edge `(u, w)`, returning the set of edges whose labels
    /// flipped (including `(u, w)` itself if it is labelled similar).
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        w: VertexId,
    ) -> Result<Vec<FlippedEdge>, GraphError> {
        self.apply(GraphUpdate::Insert(u, w))
    }

    /// Delete the edge `(u, w)`, returning the set of edges whose labels
    /// flipped (the deleted edge itself is reported as flipping to
    /// dissimilar if it was similar).
    pub fn delete_edge(
        &mut self,
        u: VertexId,
        w: VertexId,
    ) -> Result<Vec<FlippedEdge>, GraphError> {
        self.apply(GraphUpdate::Delete(u, w))
    }

    /// Apply a whole batch of updates, returning the **net** flipped-edge
    /// set of the batch (see the module docs for the batch semantics).
    ///
    /// Invalid updates within the batch — duplicate insertions, deletions
    /// of absent edges, self-loops — are skipped, matching how
    /// [`crate::Clusterer::try_apply`] rejects them.  The flip
    /// set is sorted by edge key and coalesced: an edge whose label ends
    /// the batch where it started does not appear.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        self.stats.batches += 1;
        // Chronological `(edge, label at touch)` log; the first entry per
        // key is the edge's pre-batch label (flat vector instead of a map —
        // the single-update path runs through here too and must stay lean).
        let mut pre_labels = std::mem::take(&mut self.scratch.pre_labels);
        pre_labels.clear();
        // Surviving edges inserted by this batch (an insert followed by a
        // delete cancels out; deletes are rare enough within a batch that a
        // linear scan beats a set).
        let mut new_edges = std::mem::take(&mut self.scratch.new_edges);
        new_edges.clear();
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.clear();

        // Phase 1 — topology and DT counters, in stream order.
        for &update in updates {
            if self.graph.check_update(update).is_err() {
                continue;
            }
            let (u, w) = update.endpoints();
            self.dt.increment(u);
            self.dt.increment(w);
            let key = EdgeKey::new(u, w);
            // Differential checkpointing: the update touches both
            // endpoints' per-vertex state and the edge itself (no-op
            // while all-dirty, i.e. before the first checkpoint).
            self.dirty.mark_update(u, w, key);
            pre_labels.push((key, self.labels.get(&key).copied()));
            if update.is_insert() {
                self.graph.insert_edge(u, w).expect("existence checked");
                new_edges.push(key);
            } else {
                self.graph.delete_edge(u, w).expect("existence checked");
                self.labels.remove(&key);
                // New edges are only DT-registered at the end of the batch,
                // so deregister is a no-op for a cancelled in-batch insert.
                self.dt.deregister(key);
                if let Some(pos) = new_edges.iter().position(|&k| k == key) {
                    new_edges.swap_remove(pos);
                }
            }
            self.stats.updates += 1;
            touched.push(u);
            touched.push(w);
        }

        // Phase 2 — deduplicated cross-batch drain: each touched endpoint
        // is drained once, however many updates hit it.  Signalled edges
        // are logged only while marks are collected (all-dirty instances
        // pay nothing).
        let mut signalled = Vec::new();
        let matured = self.dt.drain_ready_batch(
            touched.iter().copied(),
            self.dirty.is_tracking().then_some(&mut signalled),
        );
        for key in signalled {
            self.dirty.mark_edge(key);
        }
        self.stats.dt_maturities += matured.len() as u64;
        let mut jobs = std::mem::take(&mut self.scratch.jobs);
        jobs.clear();
        let mut affected = matured;
        affected.extend(new_edges.iter().copied());
        affected.sort_unstable();
        // The job at 1-based rank r is labelling number `before + r` of
        // the run.
        let before = self.strategy.invocations();
        for (&key, invocation) in affected.iter().zip(before + 1..) {
            // Re-registration in phase 4 rewrites the edge's label,
            // coordinator and both heap entries: all on the edge's record.
            self.dirty.mark_edge(key);
            pre_labels.push((key, self.labels.get(&key).copied()));
            jobs.push((key, invocation));
        }

        // Phase 3 — re-estimate the deduplicated affected set in parallel
        // on the persistent work-stealing pool.  Each job's result is a
        // pure function of (seed, batch epoch, edge, labelling number,
        // post-batch graph), so the outcome vector is deterministic no
        // matter how the pool schedules or steals the work — and identical
        // to the sequential fallback used for small jobs, where even the
        // pool's cheap dispatch would cost more than the re-estimation
        // itself.  Labelling numbers never repeat in a run, so no two
        // labellings share a stream.
        let graph = &self.graph;
        let strategy = &self.strategy;
        let seed = self.params.seed ^ self.stats.batches.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let run_job = |&(key, invocation): &(EdgeKey, u64)| {
            strategy.label_deterministic(graph, key, invocation, seed)
        };
        let outcomes: Vec<LabelOutcome> = if updates.len() > 1 {
            self.pool.map(&jobs, run_job)
        } else {
            jobs.iter().map(run_job).collect()
        };

        // Phase 4 — commit labels, restart DT instances at post-batch
        // degrees, fold the work counters back in.
        let mut samples = 0u64;
        for (&(key, _), outcome) in jobs.iter().zip(&outcomes) {
            samples += outcome.samples_drawn;
            self.labels.insert(key, outcome.label);
            let (a, b) = key.endpoints();
            let tau = self.strategy.threshold(&self.graph, a, b);
            self.dt.register(key, tau);
        }
        self.strategy.record_invocations(jobs.len() as u64, samples);
        self.scratch.jobs = jobs;
        self.scratch.touched = touched;
        self.scratch.new_edges = new_edges;

        // Phase 5 — coalesce the batch's net label flips.  The log was
        // appended chronologically, so after a stable sort the first entry
        // per key holds the pre-batch label.
        pre_labels.sort_by_key(|&(key, _)| key);
        let mut flipped: Vec<FlippedEdge> = Vec::new();
        let mut i = 0;
        while i < pre_labels.len() {
            let (key, pre) = pre_labels[i];
            while i < pre_labels.len() && pre_labels[i].0 == key {
                i += 1;
            }
            let now = self.labels.get(&key).copied();
            match (pre, now) {
                (Some(before), Some(after)) if before != after => flipped.push((key, after)),
                // A similar edge that ended the batch deleted flips to
                // dissimilar for downstream maintenance.
                (Some(before), None) if before.is_similar() => {
                    flipped.push((key, EdgeLabel::Dissimilar))
                }
                // A brand-new edge is a flip only if it arrives similar.
                (None, Some(after)) if after.is_similar() => flipped.push((key, after)),
                _ => {}
            }
        }
        self.scratch.pre_labels = pre_labels;
        self.stats.label_flips += flipped.len() as u64;
        flipped
    }

    /// Extract the StrClu clustering from the maintained labelling in
    /// O(n + m) (Fact 1).
    pub fn clustering(&self) -> StrCluResult {
        extract_clustering(&self.graph, self.params.mu, |key| {
            self.labels.get(&key).is_some_and(|l| l.is_similar())
        })
    }
}

impl MemoryFootprint for DynElm {
    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + dynscan_graph::footprint::hashmap_bytes(&self.labels)
            + self.dt.memory_bytes()
            + self.scratch.memory_bytes()
            + std::mem::size_of::<LabellingStrategy>()
            + std::mem::size_of::<ElmStats>()
            + std::mem::size_of::<ExecPool>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{two_cliques_params, two_cliques_with_hub};
    use dynscan_sim::{exact_similarity, SimilarityMeasure};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Build a DynELM instance in exact-labelling mode and feed it a graph's
    /// edges as insertions.
    fn build_exact(graph: &DynGraph, params: Params) -> DynElm {
        let mut elm = DynElm::new(params.with_exact_labels());
        for e in graph.edges() {
            elm.insert_edge(e.lo(), e.hi()).unwrap();
        }
        elm
    }

    /// Exact validity check: every label matches the exact similarity
    /// against ε (this is the ρ = 0 notion, which exact-mode labels satisfy
    /// *at labelling time*; with ρ > 0 an edge may drift inside the
    /// does-not-matter band before its DT matures, so we check the
    /// ρ-approximate validity instead).
    fn assert_rho_approximate_valid(elm: &DynElm) {
        let p = elm.params();
        for (key, label) in elm.labels() {
            let sigma = exact_similarity(elm.graph(), key.lo(), key.hi(), p.measure);
            if sigma >= (1.0 + p.rho) * p.eps {
                assert!(
                    label.is_similar(),
                    "edge {key:?} with σ = {sigma} must be similar (ε = {}, ρ = {})",
                    p.eps,
                    p.rho
                );
            }
            if sigma < (1.0 - p.rho) * p.eps {
                assert!(
                    !label.is_similar(),
                    "edge {key:?} with σ = {sigma} must be dissimilar (ε = {}, ρ = {})",
                    p.eps,
                    p.rho
                );
            }
        }
    }

    #[test]
    fn insert_labels_and_counts() {
        let g = two_cliques_with_hub();
        let elm = build_exact(&g, two_cliques_params());
        assert_eq!(elm.graph().num_edges(), g.num_edges());
        // All intra-clique edges are similar; the pendant edge (0, 13) is not.
        assert!(elm.is_similar(v(0), v(1)));
        assert!(elm.is_similar(v(8), v(9)));
        assert!(!elm.is_similar(v(0), v(13)));
        assert!(elm.is_similar(v(12), v(0)));
        assert_rho_approximate_valid(&elm);
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_errors() {
        let mut elm = DynElm::new(two_cliques_params().with_exact_labels());
        elm.insert_edge(v(0), v(1)).unwrap();
        assert!(matches!(
            elm.insert_edge(v(1), v(0)),
            Err(GraphError::EdgeExists { .. })
        ));
        assert!(matches!(
            elm.delete_edge(v(0), v(2)),
            Err(GraphError::EdgeMissing { .. })
        ));
        assert!(matches!(
            elm.insert_edge(v(3), v(3)),
            Err(GraphError::SelfLoop { .. })
        ));
        // The failed operations must not corrupt counters.
        assert_eq!(elm.graph().num_edges(), 1);
        assert_eq!(elm.stats().updates, 1);
    }

    #[test]
    fn deletion_reports_similar_edge_as_flip() {
        let g = two_cliques_with_hub();
        let mut elm = build_exact(&g, two_cliques_params());
        let flips = elm.delete_edge(v(0), v(1)).unwrap();
        assert!(
            flips
                .iter()
                .any(|&(k, l)| k == EdgeKey::new(v(0), v(1)) && l == EdgeLabel::Dissimilar),
            "deleting a similar edge must report it in F: {flips:?}"
        );
        assert!(elm.label(EdgeKey::new(v(0), v(1))).is_none());
    }

    #[test]
    fn deletion_of_dissimilar_edge_is_not_a_flip_of_itself() {
        let g = two_cliques_with_hub();
        let mut elm = build_exact(&g, two_cliques_params());
        let key = EdgeKey::new(v(0), v(13));
        assert!(!elm.label(key).unwrap().is_similar());
        let flips = elm.delete_edge(v(0), v(13)).unwrap();
        assert!(flips.iter().all(|&(k, _)| k != key));
    }

    #[test]
    fn labelling_tracks_similarity_changes_through_updates() {
        // Start from the fixture, then delete edges of the A-clique one by
        // one; with exact labelling and ρ small, the maintained labelling
        // must stay ρ-approximately valid throughout.
        let g = two_cliques_with_hub();
        let mut elm = build_exact(&g, two_cliques_params().with_rho(0.01));
        let deletions = [(4u32, 5u32), (3, 5), (3, 4), (2, 5), (2, 4), (2, 3)];
        for (a, b) in deletions {
            elm.delete_edge(v(a), v(b)).unwrap();
            assert_rho_approximate_valid(&elm);
        }
        // Re-insert them and check again.
        for (a, b) in deletions {
            elm.insert_edge(v(a), v(b)).unwrap();
            assert_rho_approximate_valid(&elm);
        }
    }

    #[test]
    fn sampled_mode_maintains_rho_approximate_validity() {
        // With the estimator on (no exact-label switch), validity holds
        // with high probability; δ* = 10⁻⁶ and a fixed seed keep this
        // deterministic.
        let g = two_cliques_with_hub();
        let params = two_cliques_params().with_rho(0.1).with_seed(12345);
        let mut elm = DynElm::new(params);
        for e in g.edges() {
            elm.insert_edge(e.lo(), e.hi()).unwrap();
        }
        assert_rho_approximate_valid(&elm);
        for (a, b) in [(4u32, 5u32), (3, 4), (0, 12), (8, 9)] {
            elm.delete_edge(v(a), v(b)).unwrap();
            assert_rho_approximate_valid(&elm);
        }
        // On this low-degree fixture the exact shortcut kicks in, so the
        // strategy draws no samples; it must still have been invoked.
        assert!(elm.stats().labellings > 0);
    }

    #[test]
    fn clustering_extraction_matches_static_ground_truth() {
        let g = two_cliques_with_hub();
        let elm = build_exact(&g, two_cliques_params());
        let result = elm.clustering();
        assert_eq!(result.num_clusters(), 2);
        assert_eq!(result.num_hubs(), 1);
        assert_eq!(result.num_noise(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let g = two_cliques_with_hub();
        let mut elm = build_exact(&g, two_cliques_params());
        let before = elm.stats();
        assert_eq!(before.updates as usize, g.num_edges());
        assert!(before.labellings >= before.updates);
        elm.delete_edge(v(0), v(1)).unwrap();
        let after = elm.stats();
        assert_eq!(after.updates, before.updates + 1);
    }

    #[test]
    fn apply_dispatches_on_update_kind() {
        let mut elm = DynElm::new(two_cliques_params().with_exact_labels());
        elm.apply(GraphUpdate::Insert(v(0), v(1))).unwrap();
        assert!(elm.graph().has_edge(v(0), v(1)));
        elm.apply(GraphUpdate::Delete(v(0), v(1))).unwrap();
        assert!(!elm.graph().has_edge(v(0), v(1)));
    }

    #[test]
    fn cosine_mode_labels_consistently() {
        let g = two_cliques_with_hub();
        let params = Params::cosine(0.6, 5).with_rho(0.1).with_exact_labels();
        let elm = build_exact(&g, params);
        for (key, label) in elm.labels() {
            let sigma =
                exact_similarity(elm.graph(), key.lo(), key.hi(), SimilarityMeasure::Cosine);
            if sigma >= (1.0 + 0.1) * 0.6 {
                assert!(label.is_similar());
            }
            if sigma < (1.0 - 0.1) * 0.6 {
                assert!(!label.is_similar());
            }
        }
    }
}
