//! pSCAN-style exact dynamic baseline.

use crate::snapshot::write_exact_payload;
use dynscan_core::snapshot::{finish_full_capture, CheckpointCapture};
use dynscan_core::{
    extract_clustering, group_by_from_clustering, Clusterer, FlippedEdge, StrCluResult,
};
use dynscan_graph::snapshot::write_document;
use dynscan_graph::{
    DynGraph, EdgeKey, GraphUpdate, MemoryFootprint, SnapWriter, SnapshotError, VertexId,
};
use dynscan_sim::{EdgeLabel, SimilarityMeasure};
use std::collections::HashMap;

/// Exact dynamic structural clustering à la pSCAN.
///
/// The structure maintains, for every edge, the exact intersection size
/// `a = |N[u] ∩ N[v]|`.  An update `(u, w)` walks the full neighbourhoods of
/// `u` and `w` and adjusts each incident edge's count by one hash probe —
/// the O(d\[u\] + d\[w\]) ⊆ O(n) per-update behaviour the paper attributes to
/// the exact competitors.  Labels are always exactly valid, so the
/// clustering matches [`crate::StaticScan`] at every point in time.
#[derive(Clone, Debug)]
pub struct ExactDynScan {
    pub(crate) eps: f64,
    pub(crate) mu: usize,
    pub(crate) measure: SimilarityMeasure,
    pub(crate) graph: DynGraph,
    /// Exact `|N[u] ∩ N[v]|` per edge.
    pub(crate) intersections: HashMap<EdgeKey, u32>,
    pub(crate) labels: HashMap<EdgeKey, EdgeLabel>,
    pub(crate) updates: u64,
    /// Total neighbourhood probes performed (the baseline's cost driver).
    pub(crate) probes: u64,
    /// Differential-checkpoint bookkeeping (see
    /// [`dynscan_core::snapshot::DirtyTracker`]); not serialised.
    pub(crate) dirty: dynscan_core::snapshot::DirtyTracker,
}

impl ExactDynScan {
    /// Create an empty instance.
    pub fn new(eps: f64, mu: usize, measure: SimilarityMeasure) -> Self {
        ExactDynScan {
            eps,
            mu,
            measure,
            graph: DynGraph::new(),
            intersections: HashMap::new(),
            labels: HashMap::new(),
            updates: 0,
            probes: 0,
            dirty: dynscan_core::snapshot::DirtyTracker::new(),
        }
    }

    /// Jaccard-similarity instance.
    pub fn jaccard(eps: f64, mu: usize) -> Self {
        Self::new(eps, mu, SimilarityMeasure::Jaccard)
    }

    /// Cosine-similarity instance.
    pub fn cosine(eps: f64, mu: usize) -> Self {
        Self::new(eps, mu, SimilarityMeasure::Cosine)
    }

    /// The current graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The exact similarity of an existing edge, from the maintained counts.
    pub fn similarity(&self, key: EdgeKey) -> Option<f64> {
        let a = *self.intersections.get(&key)? as f64;
        let (u, v) = key.endpoints();
        Some(match self.measure {
            SimilarityMeasure::Jaccard => {
                let b = (self.graph.closed_degree(u) + self.graph.closed_degree(v)) as f64 - a;
                a / b
            }
            SimilarityMeasure::Cosine => {
                let nu = self.graph.closed_degree(u) as f64;
                let nv = self.graph.closed_degree(v) as f64;
                a / (nu * nv).sqrt()
            }
        })
    }

    /// The current label of an existing edge.
    pub fn label(&self, key: EdgeKey) -> Option<EdgeLabel> {
        self.labels.get(&key).copied()
    }

    /// Total neighbourhood probes performed so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Adjust the exact intersection counts for the insertion of `(u, w)`
    /// and return the affected edges, without relabelling them yet (the
    /// batch path defers relabelling to the end of the batch).
    fn insert_counts(&mut self, u: VertexId, w: VertexId) -> Option<Vec<EdgeKey>> {
        self.graph.insert_edge(u, w).ok()?;
        self.updates += 1;
        let mut affected = Vec::with_capacity(self.graph.degree(u) + self.graph.degree(w));
        // Exact count for the new edge, from scratch.
        let a = self.graph.closed_intersection_size(u, w) as u32;
        self.probes += self.graph.degree(u).min(self.graph.degree(w)) as u64;
        let new_key = EdgeKey::new(u, w);
        self.intersections.insert(new_key, a);
        affected.push(new_key);
        // Every other edge incident on u gains w in N[u]; its count grows by
        // one exactly when w also lies in the other endpoint's closed
        // neighbourhood.  Symmetrically for w.
        for (centre, other_end) in [(u, w), (w, u)] {
            let neighbours: Vec<VertexId> = self
                .graph
                .neighbours_iter(centre)
                .filter(|&x| x != other_end)
                .collect();
            for x in neighbours {
                self.probes += 1;
                let key = EdgeKey::new(centre, x);
                if self.graph.has_edge(other_end, x) {
                    *self.intersections.get_mut(&key).expect("existing edge") += 1;
                }
                affected.push(key);
            }
        }
        // Differential checkpointing: the endpoints' adjacency changed,
        // and every affected edge's count/label will be rewritten.
        if self.dirty.is_tracking() {
            self.dirty.mark_vertex(u);
            self.dirty.mark_vertex(w);
            for &key in &affected {
                self.dirty.mark_edge(key);
            }
        }
        Some(affected)
    }

    /// Adjust the exact intersection counts for the deletion of `(u, w)`
    /// and return the affected (surviving) edges, without relabelling.
    fn delete_counts(&mut self, u: VertexId, w: VertexId) -> Option<Vec<EdgeKey>> {
        self.graph.delete_edge(u, w).ok()?;
        self.updates += 1;
        let key = EdgeKey::new(u, w);
        self.intersections.remove(&key);
        self.labels.remove(&key);
        let mut affected = Vec::with_capacity(self.graph.degree(u) + self.graph.degree(w));
        for (centre, other_end) in [(u, w), (w, u)] {
            let neighbours: Vec<VertexId> = self.graph.neighbours_iter(centre).collect();
            for x in neighbours {
                self.probes += 1;
                let edge = EdgeKey::new(centre, x);
                if self.graph.has_edge(other_end, x) {
                    *self.intersections.get_mut(&edge).expect("existing edge") -= 1;
                }
                affected.push(edge);
            }
        }
        if self.dirty.is_tracking() {
            self.dirty.mark_vertex(u);
            self.dirty.mark_vertex(w);
            // The deleted edge itself becomes a tombstone in the delta.
            self.dirty.mark_edge(key);
            for &edge in &affected {
                self.dirty.mark_edge(edge);
            }
        }
        Some(affected)
    }

    /// Insert an edge as a batch of one; returns the affected edges (the
    /// new one plus every edge incident on either endpoint, sorted) or
    /// `None` if the update is invalid.
    pub fn insert_edge(&mut self, u: VertexId, w: VertexId) -> Option<Vec<EdgeKey>> {
        self.apply_one(GraphUpdate::Insert(u, w))
    }

    /// Delete an edge as a batch of one; returns the affected edges (every
    /// surviving edge incident on either endpoint, sorted) or `None` if the
    /// update is invalid.
    pub fn delete_edge(&mut self, u: VertexId, w: VertexId) -> Option<Vec<EdgeKey>> {
        self.apply_one(GraphUpdate::Delete(u, w))
    }

    fn apply_one(&mut self, update: GraphUpdate) -> Option<Vec<EdgeKey>> {
        self.graph.check_update(update).ok()?;
        Some(self.apply_batch_tracked(&[update]).1)
    }

    /// Batch path shared with [`crate::IndexedDynScan`]: apply every
    /// update's count adjustments in stream order, then relabel the
    /// **deduplicated** affected set once against the final counts.
    ///
    /// Because the maintained counts are exact at all times and a label is
    /// a pure function of the final counts and degrees, the post-batch
    /// state is identical to one-at-a-time processing for *any* batch —
    /// batching here removes the per-update relabelling of hot edges, which
    /// is the baseline's analogue of the sampling-dedup win in DynELM.
    ///
    /// The count-maintenance phase leaves labels of surviving edges
    /// untouched, so an affected edge's pre-batch label can be read at
    /// relabel time instead of being logged per touch; only deletions need
    /// a pre-batch snapshot.  The affected log is deduplicated with one
    /// sort instead of per-touch set operations — on bursty traffic this
    /// bookkeeping is far cheaper than the per-update relabels it replaces.
    ///
    /// Returns the coalesced net flips (sorted by key), the deduplicated
    /// affected edges still alive (sorted), and the edges removed net over
    /// the batch (sorted).
    pub(crate) fn apply_batch_tracked(
        &mut self,
        updates: &[GraphUpdate],
    ) -> (Vec<FlippedEdge>, Vec<EdgeKey>, Vec<EdgeKey>) {
        // Chronological log of affected edges (deduped by one sort below).
        let mut affected_log: Vec<EdgeKey> = Vec::with_capacity(4 * updates.len());
        // Pre-batch label of every edge the batch deleted at some point
        // (`None` for edges that were only inserted in-batch).
        let mut deleted_pre: HashMap<EdgeKey, Option<EdgeLabel>> = HashMap::new();
        for &update in updates {
            let (u, w) = update.endpoints();
            match update {
                GraphUpdate::Insert(..) => {
                    if let Some(affected) = self.insert_counts(u, w) {
                        affected_log.extend(affected);
                    }
                }
                GraphUpdate::Delete(..) => {
                    if self.graph.has_edge(u, w) {
                        let key = EdgeKey::new(u, w);
                        deleted_pre
                            .entry(key)
                            .or_insert_with(|| self.labels.get(&key).copied());
                        let affected = self.delete_counts(u, w).expect("existence checked above");
                        affected_log.extend(affected);
                    }
                }
            }
        }
        affected_log.sort_unstable();
        affected_log.dedup();
        // Deduplicated relabel pass over the final exact counts; edges that
        // ended the batch deleted have no count and are skipped.
        let mut flipped: Vec<FlippedEdge> = Vec::new();
        let mut affected_alive: Vec<EdgeKey> = Vec::with_capacity(affected_log.len());
        for &key in &affected_log {
            let Some(sigma) = self.similarity(key) else {
                continue;
            };
            affected_alive.push(key);
            let after = EdgeLabel::from_similarity(sigma, self.eps);
            let old_in_map = self.labels.insert(key, after);
            // For an edge deleted and re-inserted in-batch the map entry
            // was cleared; its true pre-batch label sits in `deleted_pre`.
            let pre = match deleted_pre.get(&key) {
                Some(&snapshot) => snapshot,
                None => old_in_map,
            };
            match pre {
                Some(before) if before != after => flipped.push((key, after)),
                None if after.is_similar() => flipped.push((key, after)),
                _ => {}
            }
        }
        // Edges that ended the batch deleted: flip to dissimilar if they
        // entered the batch similar.
        let mut removed: Vec<EdgeKey> = Vec::new();
        for (&key, &pre) in &deleted_pre {
            if self.intersections.contains_key(&key) {
                continue; // re-inserted, handled above
            }
            removed.push(key);
            if pre.is_some_and(|label| label.is_similar()) {
                flipped.push((key, EdgeLabel::Dissimilar));
            }
        }
        removed.sort_unstable();
        flipped.sort_unstable_by_key(|&(key, _)| key);
        (flipped, affected_alive, removed)
    }

    /// Extract the (exact) clustering in O(n + m).
    pub fn clustering(&self) -> StrCluResult {
        extract_clustering(&self.graph, self.mu, |key| {
            self.labels.get(&key).is_some_and(|l| l.is_similar())
        })
    }
}

impl Clusterer for ExactDynScan {
    fn algorithm_name(&self) -> &'static str {
        "pSCAN-like"
    }

    fn graph(&self) -> &DynGraph {
        &self.graph
    }

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        self.apply_batch_tracked(updates).0
    }

    fn current_clustering(&self) -> StrCluResult {
        self.clustering()
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + dynscan_graph::footprint::hashmap_bytes(&self.intersections)
            + dynscan_graph::footprint::hashmap_bytes(&self.labels)
    }

    fn updates_applied(&self) -> u64 {
        self.updates
    }

    fn algo_tag(&self) -> u32 {
        ExactDynScan::ALGO_TAG
    }

    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.graph.set_memory_budget(bytes);
    }

    /// Group-by from the always-exact maintained counts: extract the
    /// clustering (O(n + m)) and group `q` by membership.
    fn cluster_group_by(&mut self, q: &[VertexId]) -> Vec<Vec<VertexId>> {
        group_by_from_clustering(&self.clustering(), q)
    }

    fn checkpoint_to(&self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError> {
        let mut payload = SnapWriter::new();
        write_exact_payload(self, &mut payload);
        write_document(w, ExactDynScan::ALGO_TAG, &payload.into_bytes())
    }

    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture {
        if prefer_delta {
            if let Some(capture) =
                self.try_capture_delta_as(ExactDynScan::ALGO_TAG, wall_time_millis)
            {
                return capture;
            }
        }
        let mut w = SnapWriter::new();
        write_exact_payload(self, &mut w);
        finish_full_capture(
            ExactDynScan::ALGO_TAG,
            &mut self.dirty,
            w.into_bytes(),
            wall_time_millis,
        )
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.apply_delta_as(ExactDynScan::ALGO_TAG, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_scan::StaticScan;
    use dynscan_core::fixtures;
    use dynscan_sim::exact_similarity;
    use proptest::prelude::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn assert_counts_exact(algo: &ExactDynScan) {
        for edge in algo.graph().edges().collect::<Vec<_>>() {
            let expected = algo.graph().closed_intersection_size(edge.lo(), edge.hi());
            let stored = algo.intersections[&edge] as usize;
            assert_eq!(stored, expected, "intersection count drifted for {edge:?}");
            let sigma = algo.similarity(edge).unwrap();
            let truth = exact_similarity(algo.graph(), edge.lo(), edge.hi(), algo.measure);
            assert!((sigma - truth).abs() < 1e-12);
            assert_eq!(
                algo.label(edge).unwrap().is_similar(),
                truth >= algo.eps,
                "label mismatch for {edge:?}"
            );
        }
    }

    #[test]
    fn maintains_exact_counts_through_fixture_build() {
        let g = fixtures::two_cliques_with_hub();
        let mut algo = ExactDynScan::jaccard(0.29, 5);
        for e in g.edges() {
            assert!(algo.insert_edge(e.lo(), e.hi()).is_some());
        }
        assert_counts_exact(&algo);
        let result = algo.clustering();
        assert_eq!(result.num_clusters(), 2);
    }

    #[test]
    fn matches_static_scan_after_every_update() {
        let g = fixtures::two_cliques_with_hub();
        let mut algo = ExactDynScan::jaccard(0.29, 5);
        let scan = StaticScan::jaccard(0.29, 5);
        for e in g.edges() {
            algo.insert_edge(e.lo(), e.hi());
        }
        let deletions = [(4u32, 5u32), (0, 12), (8, 9), (0, 13)];
        for (a, b) in deletions {
            algo.delete_edge(v(a), v(b)).unwrap();
            assert_counts_exact(&algo);
            let expected = scan.cluster(algo.graph());
            let actual = algo.clustering();
            assert_eq!(expected.num_clusters(), actual.num_clusters());
            for x in algo.graph().vertices() {
                assert_eq!(expected.role(x), actual.role(x), "role mismatch at {x}");
            }
        }
    }

    #[test]
    fn invalid_operations_are_rejected() {
        let mut algo = ExactDynScan::jaccard(0.3, 2);
        assert!(algo.insert_edge(v(0), v(1)).is_some());
        assert!(algo.insert_edge(v(0), v(1)).is_none());
        assert!(algo.insert_edge(v(2), v(2)).is_none());
        assert!(algo.delete_edge(v(5), v(6)).is_none());
        assert_eq!(algo.updates_applied(), 1);
    }

    #[test]
    fn probe_counter_grows_with_degrees() {
        let mut algo = ExactDynScan::jaccard(0.3, 2);
        // Build a star; each new spoke probes the whole current neighbourhood
        // of the hub.
        for i in 1..=50u32 {
            algo.insert_edge(v(0), v(i));
        }
        assert!(
            algo.probes() as usize > 50 * 20,
            "probes: {}",
            algo.probes()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Under random update sequences, the maintained counts stay exact
        /// and the clustering equals static SCAN.
        #[test]
        fn random_updates_stay_exact(
            ops in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 1..100)
        ) {
            let mut algo = ExactDynScan::jaccard(0.35, 3);
            for (insert, a, b) in ops {
                if a == b { continue; }
                if insert {
                    algo.insert_edge(v(a), v(b));
                } else {
                    algo.delete_edge(v(a), v(b));
                }
            }
            assert_counts_exact(&algo);
            let expected = StaticScan::jaccard(0.35, 3).cluster(algo.graph());
            let actual = algo.clustering();
            prop_assert_eq!(expected.num_clusters(), actual.num_clusters());
            for x in algo.graph().vertices() {
                prop_assert_eq!(expected.role(x), actual.role(x));
            }
        }
    }
}
