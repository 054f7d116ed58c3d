//! hSCAN-style index-based dynamic baseline.

use crate::exact_dyn::ExactDynScan;
use crate::snapshot::{rebuild_index, write_indexed_payload};
use dynscan_core::snapshot::{finish_full_capture, CheckpointCapture};
use dynscan_core::{
    extract_clustering, group_by_from_clustering, Clusterer, FlippedEdge, StrCluResult, UpdateError,
};
use dynscan_graph::snapshot::write_document;
use dynscan_graph::{DynGraph, EdgeKey, GraphUpdate, SnapWriter, SnapshotError, VertexId};
use dynscan_sim::SimilarityMeasure;
use std::collections::{BTreeSet, HashMap};

/// Fixed-point quantisation of a similarity value so it can be ordered and
/// hashed exactly (12 decimal digits of precision).
pub(crate) fn quantise(sigma: f64) -> u64 {
    (sigma * 1e12).round() as u64
}

/// Index-based exact dynamic structural clustering à la hSCAN / GS*-index.
///
/// On top of the exact per-edge similarity maintenance of
/// [`ExactDynScan`], every vertex keeps its neighbours ordered by
/// similarity.  That ordering is what lets hSCAN answer clustering queries
/// for an (ε, μ) pair *supplied at query time*; maintaining it costs an
/// extra O(log n) per affected edge, which is exactly the O(n log n)
/// per-update behaviour the paper ascribes to hSCAN.
#[derive(Clone, Debug)]
pub struct IndexedDynScan {
    pub(crate) inner: ExactDynScan,
    pub(crate) default_eps: f64,
    pub(crate) default_mu: usize,
    /// Per-vertex neighbours ordered by (quantised similarity, neighbour).
    pub(crate) order: Vec<BTreeSet<(u64, VertexId)>>,
    /// Current quantised similarity per edge (to locate entries for removal).
    pub(crate) current: HashMap<EdgeKey, u64>,
}

impl IndexedDynScan {
    /// Create an empty instance; `eps` / `mu` are the defaults used by
    /// [`Clusterer::current_clustering`], but any pair can be given
    /// at query time through [`IndexedDynScan::cluster_with`].
    pub fn new(eps: f64, mu: usize, measure: SimilarityMeasure) -> Self {
        IndexedDynScan {
            inner: ExactDynScan::new(eps, mu, measure),
            default_eps: eps,
            default_mu: mu,
            order: Vec::new(),
            current: HashMap::new(),
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
        self.inner.graph()
    }

    fn ensure_vertex(&mut self, v: VertexId) {
        if v.index() >= self.order.len() {
            self.order.resize_with(v.index() + 1, BTreeSet::new);
        }
    }

    /// Bring the ordered neighbour sets in line with the affected edges of
    /// one update.
    fn refresh(&mut self, affected: &[EdgeKey], removed: Option<EdgeKey>) {
        if let Some(key) = removed {
            if let Some(old) = self.current.remove(&key) {
                let (a, b) = key.endpoints();
                self.order[a.index()].remove(&(old, b));
                self.order[b.index()].remove(&(old, a));
            }
        }
        for &key in affected {
            let (a, b) = key.endpoints();
            self.ensure_vertex(a);
            self.ensure_vertex(b);
            let sigma = self
                .inner
                .similarity(key)
                .expect("affected edge exists with a maintained similarity");
            let new_q = quantise(sigma);
            if let Some(old) = self.current.insert(key, new_q) {
                if old != new_q {
                    self.order[a.index()].remove(&(old, b));
                    self.order[b.index()].remove(&(old, a));
                    self.order[a.index()].insert((new_q, b));
                    self.order[b.index()].insert((new_q, a));
                }
            } else {
                self.order[a.index()].insert((new_q, b));
                self.order[b.index()].insert((new_q, a));
            }
        }
    }

    /// Insert an edge.  Returns `false` for duplicates/self-loops.
    pub fn insert_edge(&mut self, u: VertexId, w: VertexId) -> bool {
        match self.inner.insert_edge(u, w) {
            Some(affected) => {
                self.refresh(&affected, None);
                true
            }
            None => false,
        }
    }

    /// Delete an edge.  Returns `false` if the edge was missing.
    pub fn delete_edge(&mut self, u: VertexId, w: VertexId) -> bool {
        match self.inner.delete_edge(u, w) {
            Some(affected) => {
                self.refresh(&affected, Some(EdgeKey::new(u, w)));
                true
            }
            None => false,
        }
    }

    /// Apply a batch of updates: the inner exact counts are maintained in
    /// stream order, the deduplicated affected set is relabelled once, and
    /// the similarity-ordered neighbour index is refreshed **once per
    /// affected edge** instead of once per update touching it.  The final
    /// state is identical to one-at-a-time processing (the index is a pure
    /// function of the exact counts).
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        let (flipped, affected, removed) = self.inner.apply_batch_tracked(updates);
        for &key in &removed {
            if let Some(old) = self.current.remove(&key) {
                let (a, b) = key.endpoints();
                self.order[a.index()].remove(&(old, b));
                self.order[b.index()].remove(&(old, a));
            }
        }
        for &key in &affected {
            let (a, b) = key.endpoints();
            self.ensure_vertex(a);
            self.ensure_vertex(b);
            let sigma = self
                .inner
                .similarity(key)
                .expect("affected edge exists with a maintained similarity");
            let new_q = quantise(sigma);
            if let Some(old) = self.current.insert(key, new_q) {
                if old != new_q {
                    self.order[a.index()].remove(&(old, b));
                    self.order[b.index()].remove(&(old, a));
                    self.order[a.index()].insert((new_q, b));
                    self.order[b.index()].insert((new_q, a));
                }
            } else {
                self.order[a.index()].insert((new_q, b));
                self.order[b.index()].insert((new_q, a));
            }
        }
        flipped
    }

    /// Number of similar neighbours of `v` for a threshold `eps` given at
    /// query time, in O(log n + answer) using the ordered index.
    pub fn similar_degree(&self, v: VertexId, eps: f64) -> usize {
        let Some(set) = self.order.get(v.index()) else {
            return 0;
        };
        set.range((quantise(eps), VertexId(0))..).count()
    }

    /// Extract the clustering for an (ε, μ) pair given on the fly.
    pub fn cluster_with(&self, eps: f64, mu: usize) -> StrCluResult {
        let q = quantise(eps);
        extract_clustering(self.graph(), mu, |key| {
            self.current.get(&key).is_some_and(|&s| s >= q)
        })
    }
}

impl Clusterer for IndexedDynScan {
    fn algorithm_name(&self) -> &'static str {
        "hSCAN-like"
    }

    /// Typed single-update path; the same three rejection causes as every
    /// other backend, evaluated against the inner exact structure.
    fn try_apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError> {
        crate::exact_dyn::validate_update(self.graph(), update)?;
        Ok(IndexedDynScan::apply_batch(self, &[update]))
    }

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        IndexedDynScan::apply_batch(self, updates)
    }

    fn current_clustering(&self) -> StrCluResult {
        self.cluster_with(self.default_eps, self.default_mu)
    }

    fn memory_bytes(&self) -> usize {
        let order_bytes: usize = self
            .order
            .iter()
            .map(|s| s.len() * (std::mem::size_of::<(u64, VertexId)>() + 16))
            .sum();
        self.inner.memory_bytes()
            + order_bytes
            + dynscan_graph::footprint::hashmap_bytes(&self.current)
    }

    fn updates_applied(&self) -> u64 {
        self.inner.updates_applied()
    }

    fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.graph().num_edges()
    }

    fn algo_tag(&self) -> u32 {
        IndexedDynScan::ALGO_TAG
    }

    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.inner.graph.set_memory_budget(bytes);
    }

    /// Group-by at the default (ε, μ) from the exact similarity index.
    fn cluster_group_by(&mut self, q: &[VertexId]) -> Vec<Vec<VertexId>> {
        group_by_from_clustering(&self.current_clustering(), q)
    }

    fn checkpoint_to(&self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError> {
        let mut payload = SnapWriter::new();
        write_indexed_payload(self, &mut payload);
        write_document(w, IndexedDynScan::ALGO_TAG, &payload.into_bytes())
    }

    /// The delta path reuses the inner encoding under this tag (the index
    /// and the default (ε, μ) are derivable / immutable).
    fn capture_checkpoint(
        &mut self,
        prefer_delta: bool,
        wall_time_millis: u64,
    ) -> CheckpointCapture {
        if prefer_delta {
            if let Some(capture) = self
                .inner
                .try_capture_delta_as(IndexedDynScan::ALGO_TAG, wall_time_millis)
            {
                return capture;
            }
        }
        let mut w = SnapWriter::new();
        write_indexed_payload(self, &mut w);
        finish_full_capture(
            IndexedDynScan::ALGO_TAG,
            &mut self.inner.dirty,
            w.into_bytes(),
            wall_time_millis,
        )
    }

    fn apply_delta_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.apply_delta_chain(&[bytes])
    }

    /// Merge every delta into the exact counts first, then rebuild the
    /// similarity-ordered index **once** — the index is a pure function
    /// of the final counts, so per-delta rebuilds are dead work (same
    /// reasoning as `DynStrClu`'s chain replay of vAuxInfo / `G_core`).
    fn apply_delta_chain(&mut self, docs: &[&[u8]]) -> Result<(), SnapshotError> {
        if docs.is_empty() {
            return Ok(());
        }
        for bytes in docs {
            self.inner.apply_delta_as(IndexedDynScan::ALGO_TAG, bytes)?;
        }
        let (order, current) = rebuild_index(&self.inner);
        self.order = order;
        self.current = current;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_scan::StaticScan;
    use dynscan_core::fixtures;
    use proptest::prelude::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn build_fixture() -> IndexedDynScan {
        let g = fixtures::two_cliques_with_hub();
        let mut algo = IndexedDynScan::jaccard(0.29, 5);
        for e in g.edges() {
            assert!(algo.insert_edge(e.lo(), e.hi()));
        }
        algo
    }

    #[test]
    fn default_query_matches_static_scan() {
        let algo = build_fixture();
        let expected = StaticScan::jaccard(0.29, 5).cluster(algo.graph());
        let actual = algo.current_clustering();
        assert_eq!(expected.num_clusters(), actual.num_clusters());
        for x in algo.graph().vertices() {
            assert_eq!(expected.role(x), actual.role(x));
        }
    }

    #[test]
    fn on_the_fly_parameters_match_static_scan() {
        let algo = build_fixture();
        for (eps, mu) in [(0.2, 3), (0.5, 4), (0.8, 2), (0.29, 5)] {
            let expected = StaticScan::jaccard(eps, mu).cluster(algo.graph());
            let actual = algo.cluster_with(eps, mu);
            assert_eq!(
                expected.num_clusters(),
                actual.num_clusters(),
                "mismatch at ε = {eps}, μ = {mu}"
            );
            for x in algo.graph().vertices() {
                assert_eq!(
                    expected.role(x),
                    actual.role(x),
                    "role at {x}, ε = {eps}, μ = {mu}"
                );
            }
        }
    }

    #[test]
    fn similar_degree_uses_the_index() {
        let algo = build_fixture();
        // Vertex 0 has 6 similar neighbours at ε = 0.29 (the fixture's
        // analysis) and fewer at a higher threshold.
        assert_eq!(algo.similar_degree(v(0), 0.29), 6);
        assert!(algo.similar_degree(v(0), 0.7) < 6);
        assert_eq!(algo.similar_degree(v(13), 0.29), 0);
        assert_eq!(algo.similar_degree(v(100), 0.29), 0);
    }

    #[test]
    fn deletions_keep_index_consistent() {
        let mut algo = build_fixture();
        assert!(algo.delete_edge(v(4), v(5)));
        assert!(!algo.delete_edge(v(4), v(5)));
        let expected = StaticScan::jaccard(0.29, 5).cluster(algo.graph());
        let actual = algo.current_clustering();
        for x in algo.graph().vertices() {
            assert_eq!(expected.role(x), actual.role(x));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        /// Random update streams keep the index answers identical to static
        /// SCAN for several on-the-fly parameter choices.
        #[test]
        fn random_updates_match_static_scan(
            ops in prop::collection::vec((any::<bool>(), 0u32..10, 0u32..10), 1..80)
        ) {
            let mut algo = IndexedDynScan::jaccard(0.3, 3);
            for (insert, a, b) in ops {
                if a == b { continue; }
                if insert {
                    algo.insert_edge(v(a), v(b));
                } else {
                    algo.delete_edge(v(a), v(b));
                }
            }
            for (eps, mu) in [(0.3, 3usize), (0.6, 2)] {
                let expected = StaticScan::jaccard(eps, mu).cluster(algo.graph());
                let actual = algo.cluster_with(eps, mu);
                for x in algo.graph().vertices() {
                    prop_assert_eq!(expected.role(x), actual.role(x));
                }
            }
        }
    }
}
