//! DynStrClu: the ultimate dynamic structural clustering algorithm
//! (Section 7 of the paper).

use crate::aux::VertexAux;
use crate::cluster::{ClusterView, StrCluResult};
use crate::elm::{DynElm, ElmStats, FlippedEdge};
use crate::params::Params;
use crate::pool::ExecPool;
use dynscan_conn::{DynamicConnectivity, HdtConnectivity};
use dynscan_graph::{DynGraph, EdgeKey, GraphError, GraphUpdate, MemoryFootprint, VertexId};
use dynscan_sim::EdgeLabel;

/// Flip sets at least this large fan their vAuxInfo maintenance out
/// across vertex-range shards on the execution pool; smaller sets run
/// sequentially (the fan-out would cost more than the work).  Tunable per
/// instance via [`DynStrClu::set_shard_flip_cutoff`].
pub(crate) const DEFAULT_SHARD_FLIP_CUTOFF: usize = 192;

/// Dynamic structural clustering with cluster-group-by support.
///
/// DynStrClu consists of the three modules of Section 7:
///
/// 1. **ELM** — a [`DynElm`] instance maintaining the ρ-approximate edge
///    labelling; each update returns the flipped-edge set `F`.
/// 2. **vAuxInfo** — per-vertex [`VertexAux`] with `SimCnt`, the core flag
///    and the similar / similar-core neighbour sets; maintained from `F`
///    in O(|F|) time.
/// 3. **CC-Str(G_core)** — a fully dynamic connectivity structure
///    ([`HdtConnectivity`]) over the sim-core graph, maintained from the
///    O(|F|) sim-core status flips in O(|F| · log² n) amortized time.
///
/// On top of those, [`DynStrClu::cluster_group_by`] answers group-by queries
/// in O(|Q| · log n), [`DynStrClu::clustering`] extracts the full result
/// in O(n + m), and its [`crate::Clusterer::refresh_clustering`]
/// brings an earlier result up to date in O(volume of the clusters a
/// flip set touched).
#[derive(Clone, Debug)]
pub struct DynStrClu {
    pub(crate) elm: DynElm,
    pub(crate) aux: Vec<VertexAux>,
    pub(crate) core_graph: HdtConnectivity,
    pub(crate) mu: usize,
    /// Minimum flip-set size for the sharded vAuxInfo maintenance path.
    pub(crate) shard_flip_cutoff: usize,
}

/// Treap-priority seed of `CC-Str(G_core)`, derived from the algorithm
/// seed.  Shared by [`DynStrClu::new`] and the snapshot-restore rebuild so
/// a fresh and a restored instance always agree on the structure's seed.
pub(crate) fn core_graph_seed(params: &Params) -> u64 {
    params.seed ^ 0x9e37_79b9
}

impl DynStrClu {
    /// Create an empty DynStrClu instance.
    pub fn new(params: Params) -> Self {
        params.validate();
        let mu = params.mu;
        DynStrClu {
            elm: DynElm::new(params),
            aux: Vec::new(),
            core_graph: HdtConnectivity::with_seed(0, core_graph_seed(&params)),
            mu,
            shard_flip_cutoff: DEFAULT_SHARD_FLIP_CUTOFF,
        }
    }

    /// Replace the execution pool for parallel re-estimation and the
    /// sharded aux maintenance (see [`DynElm::set_exec_pool`]).
    pub fn set_exec_pool(&mut self, pool: ExecPool) {
        self.elm.set_exec_pool(pool);
    }

    /// The execution pool in use.
    pub fn exec_pool(&self) -> &ExecPool {
        self.elm.exec_pool()
    }

    /// Override the flip-set size at which vAuxInfo maintenance switches
    /// from the sequential to the shard-partitioned path (tuning /
    /// testing knob; both paths produce identical state).
    pub fn set_shard_flip_cutoff(&mut self, cutoff: usize) {
        self.shard_flip_cutoff = cutoff.max(1);
    }

    /// The algorithm parameters.
    pub fn params(&self) -> &Params {
        self.elm.params()
    }

    /// The current graph.
    pub fn graph(&self) -> &DynGraph {
        self.elm.graph()
    }

    /// The underlying edge-labelling maintenance module.
    pub fn elm(&self) -> &DynElm {
        &self.elm
    }

    /// Work counters of the labelling module.
    pub fn stats(&self) -> ElmStats {
        self.elm.stats()
    }

    /// Whether `v` is currently a core vertex.
    pub fn is_core(&self, v: VertexId) -> bool {
        self.aux.get(v.index()).is_some_and(VertexAux::is_core)
    }

    /// The number of similar neighbours of `v` (`SimCnt`).
    pub fn sim_count(&self, v: VertexId) -> usize {
        self.aux.get(v.index()).map_or(0, VertexAux::sim_count)
    }

    /// The per-vertex auxiliary record, if the vertex has been seen.
    pub fn vertex_aux(&self, v: VertexId) -> Option<&VertexAux> {
        self.aux.get(v.index())
    }

    /// Number of sim-core edges currently in `G_core`.
    pub fn num_sim_core_edges(&self) -> usize {
        self.core_graph.num_edges()
    }

    fn ensure_aux(&mut self, v: VertexId) {
        if v.index() >= self.aux.len() {
            self.aux.resize_with(v.index() + 1, VertexAux::default);
        }
    }

    /// Whether the edge is a sim-core edge under the maintained state
    /// (exists, labelled similar, both endpoints core).
    fn is_sim_core_edge(&self, key: EdgeKey) -> bool {
        let (a, b) = key.endpoints();
        self.elm.graph().has_edge(a, b)
            && self.elm.label(key).is_some_and(|l| l.is_similar())
            && self.aux[a.index()].is_core()
            && self.aux[b.index()].is_core()
    }

    /// Maintain vAuxInfo and `G_core` given the flipped-edge set `F`
    /// returned by the ELM module for one update or batch.  Dispatches to
    /// the shard-partitioned path for large flip sets on a multi-threaded
    /// pool; the two paths produce identical observable state.
    fn apply_flips(&mut self, flipped: &[FlippedEdge]) {
        if flipped.is_empty() {
            return;
        }
        if flipped.len() >= self.shard_flip_cutoff && self.elm.exec_pool().num_threads() > 1 {
            self.apply_flips_sharded(flipped);
        } else {
            self.apply_flips_sequential(flipped);
        }
    }

    fn apply_flips_sequential(&mut self, flipped: &[FlippedEdge]) {
        // Phase A: similar-neighbour sets and SimCnt.
        for &(key, new_label) in flipped {
            let (a, b) = key.endpoints();
            self.ensure_aux(a);
            self.ensure_aux(b);
            match new_label {
                EdgeLabel::Similar => {
                    self.aux[a.index()].add_similar(b);
                    self.aux[b.index()].add_similar(a);
                }
                EdgeLabel::Dissimilar => {
                    self.aux[a.index()].remove_similar(b);
                    self.aux[b.index()].remove_similar(a);
                }
            }
        }
        // Phase B: core-status flips (the set V′ of the paper).
        let mut core_flips: Vec<VertexId> = Vec::new();
        for &(key, _) in flipped {
            let (a, b) = key.endpoints();
            for x in [a, b] {
                if self.aux[x.index()].refresh_core(self.mu).is_some() {
                    core_flips.push(x);
                }
            }
        }
        // Phase C: similar-core neighbour sets.
        for &(key, new_label) in flipped {
            let (a, b) = key.endpoints();
            match new_label {
                EdgeLabel::Similar => {
                    let a_core = self.aux[a.index()].is_core();
                    let b_core = self.aux[b.index()].is_core();
                    self.aux[a.index()].set_neighbour_core(b, b_core);
                    self.aux[b.index()].set_neighbour_core(a, a_core);
                }
                EdgeLabel::Dissimilar => {
                    // remove_similar already evicted the core-neighbour
                    // entries in phase A; nothing further to do.
                }
            }
        }
        for &x in &core_flips {
            let x_core = self.aux[x.index()].is_core();
            let neighbours: Vec<VertexId> = self.aux[x.index()].similar_neighbours().collect();
            for y in neighbours {
                self.ensure_aux(y);
                self.aux[y.index()].set_neighbour_core(x, x_core);
            }
        }
        self.maintain_core_graph(flipped, &core_flips);
    }

    /// Shard-partitioned vAuxInfo maintenance: per-vertex aux state is
    /// split into contiguous vertex ranges, and each phase's writes are
    /// bucketed by owning shard and fanned out across the pool.  Within
    /// every vertex the operations apply in flip order, so the final aux
    /// state equals the sequential path's **at any shard count** — shard
    /// boundaries only reorder work between vertices, never within one.
    /// `G_core` maintenance (phase D) stays sequential: it is O(|F′| log²n)
    /// on one shared structure and is not the bottleneck.
    fn apply_flips_sharded(&mut self, flipped: &[FlippedEdge]) {
        // Fixed shard geometry needs the aux vector at its full, final
        // size up front (every flip endpoint and every similar neighbour
        // lives inside the graph's vertex space).
        let n = self.elm.graph().num_vertices();
        if n > 0 {
            self.ensure_aux(VertexId((n - 1) as u32));
        }
        let pool = self.elm.exec_pool().clone();
        let shards = pool.num_threads().min(self.aux.len()).max(1);
        let shard_len = self.aux.len().div_ceil(shards);
        let shard_of = |x: VertexId| x.index() / shard_len;

        // Phases A + B, bucketed: similar-set updates in flip order, then
        // core refreshes, each shard touching only its own vertex range.
        let mut ops: Vec<Vec<(VertexId, VertexId, bool)>> = vec![Vec::new(); shards];
        for &(key, new_label) in flipped {
            let (a, b) = key.endpoints();
            let add = matches!(new_label, EdgeLabel::Similar);
            ops[shard_of(a)].push((a, b, add));
            ops[shard_of(b)].push((b, a, add));
        }
        let mut core_flip_buckets: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
        {
            let mu = self.mu;
            let mut tasks = Vec::with_capacity(shards);
            let mut rest: &mut [VertexAux] = &mut self.aux;
            for (s, (ops, flips_out)) in ops.iter().zip(core_flip_buckets.iter_mut()).enumerate() {
                let take = shard_len.min(rest.len());
                let (slice, tail) = rest.split_at_mut(take);
                rest = tail;
                let base = s * shard_len;
                tasks.push(move || {
                    for &(x, y, add) in ops {
                        let aux = &mut slice[x.index() - base];
                        if add {
                            aux.add_similar(y);
                        } else {
                            aux.remove_similar(y);
                        }
                    }
                    // Core refresh is idempotent, so revisiting a vertex
                    // reports its flip exactly once, like the sequential
                    // path.
                    for &(x, _, _) in ops {
                        if slice[x.index() - base].refresh_core(mu).is_some() {
                            flips_out.push(x);
                        }
                    }
                });
            }
            pool.fan_out(tasks);
        }
        // Canonical core-flip order, independent of the shard count.
        let mut core_flips: Vec<VertexId> = core_flip_buckets.into_iter().flatten().collect();
        core_flips.sort_unstable();
        core_flips.dedup();

        // Phase C: similar-core neighbour messages.  Built sequentially
        // (cheap reads of the now-final core flags), applied per shard.
        // `set_neighbour_core` is last-write-wins on a per-(vertex,
        // neighbour) basis and every message for the same pair carries the
        // same (final) core status, so bucketing order cannot matter.
        let mut messages: Vec<Vec<(VertexId, VertexId, bool)>> = vec![Vec::new(); shards];
        for &(key, new_label) in flipped {
            if matches!(new_label, EdgeLabel::Similar) {
                let (a, b) = key.endpoints();
                let a_core = self.aux[a.index()].is_core();
                let b_core = self.aux[b.index()].is_core();
                messages[shard_of(a)].push((a, b, b_core));
                messages[shard_of(b)].push((b, a, a_core));
            }
        }
        for &x in &core_flips {
            let x_core = self.aux[x.index()].is_core();
            for y in self.aux[x.index()].similar_neighbours() {
                messages[shard_of(y)].push((y, x, x_core));
            }
        }
        {
            let mut tasks = Vec::with_capacity(shards);
            let mut rest: &mut [VertexAux] = &mut self.aux;
            for (s, messages) in messages.iter().enumerate() {
                let take = shard_len.min(rest.len());
                let (slice, tail) = rest.split_at_mut(take);
                rest = tail;
                let base = s * shard_len;
                tasks.push(move || {
                    for &(target, neighbour, core) in messages {
                        slice[target.index() - base].set_neighbour_core(neighbour, core);
                    }
                });
            }
            pool.fan_out(tasks);
        }
        self.maintain_core_graph(flipped, &core_flips);
    }

    /// Phase D: sim-core edge flips (the set F′) applied to `G_core`.
    /// Candidates: edges of F plus, for every vertex with a core flip,
    /// its (at most μ) persistently similar edges.
    fn maintain_core_graph(&mut self, flipped: &[FlippedEdge], core_flips: &[VertexId]) {
        let mut candidates: Vec<EdgeKey> = flipped.iter().map(|&(k, _)| k).collect();
        for &x in core_flips {
            for y in self.aux[x.index()].similar_neighbours() {
                candidates.push(EdgeKey::new(x, y));
            }
        }
        for key in candidates {
            let (a, b) = key.endpoints();
            let desired = self.is_sim_core_edge(key);
            let present = self.core_graph.has_edge(a, b);
            if desired && !present {
                self.core_graph.insert_edge(a, b);
            } else if !desired && present {
                self.core_graph.delete_edge(a, b);
            }
        }
    }

    /// Apply a single update.
    pub fn apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, GraphError> {
        match update {
            GraphUpdate::Insert(u, v) => self.insert_edge(u, v),
            GraphUpdate::Delete(u, v) => self.delete_edge(u, v),
        }
    }

    /// Insert the edge `(u, w)` and maintain all three modules.
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        w: VertexId,
    ) -> Result<Vec<FlippedEdge>, GraphError> {
        let flipped = self.elm.insert_edge(u, w)?;
        self.ensure_aux(u);
        self.ensure_aux(w);
        self.apply_flips(&flipped);
        Ok(flipped)
    }

    /// Delete the edge `(u, w)` and maintain all three modules.
    pub fn delete_edge(
        &mut self,
        u: VertexId,
        w: VertexId,
    ) -> Result<Vec<FlippedEdge>, GraphError> {
        let flipped = self.elm.delete_edge(u, w)?;
        self.apply_flips(&flipped);
        Ok(flipped)
    }

    /// Apply a whole batch of updates through the batch update engine and
    /// maintain vAuxInfo and `G_core` from the coalesced net flip set
    /// **once** (instead of once per update).
    ///
    /// Semantics are inherited from [`DynElm::apply_batch`]: topology in
    /// stream order, deduplicated DT drain, parallel deterministic
    /// re-estimation against the post-batch graph, net flips returned.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        let flipped = self.elm.apply_batch(updates);
        // Valid inserts can only mention vertices the graph now covers.
        let n = self.elm.graph().num_vertices();
        if n > 0 {
            self.ensure_aux(VertexId((n - 1) as u32));
        }
        self.apply_flips(&flipped);
        flipped
    }

    /// Answer a cluster-group-by query (Definition 3.2): group the vertices
    /// of `q` by the clusters containing them, in O(|Q| · log n).
    ///
    /// Each returned group corresponds to one cluster with a non-empty
    /// intersection with `q` and lists that intersection (sorted by vertex
    /// id); the groups themselves are in lexicographic order of their
    /// member lists (by smallest member, ties broken by the rest), the
    /// same canonical form every [`crate::Clusterer`] backend returns.
    /// Vertices belonging to no cluster (noise) appear in no group; hub
    /// vertices appear in several groups.
    pub fn cluster_group_by(&mut self, q: &[VertexId]) -> Vec<Vec<VertexId>> {
        let mut pairs: Vec<(u64, VertexId)> = Vec::with_capacity(q.len());
        for &u in q {
            if u.index() >= self.aux.len() {
                continue;
            }
            if self.aux[u.index()].is_core() {
                pairs.push((self.core_graph.component_id(u), u));
            } else {
                let cores: Vec<VertexId> = self.aux[u.index()].similar_core_neighbours().collect();
                for x in cores {
                    pairs.push((self.core_graph.component_id(x), u));
                }
            }
        }
        // Component ids are an internal artefact of `CC-Str(G_core)`;
        // the shared canonicalisation makes answers comparable across
        // backends (and across restore, where component ids may renumber).
        crate::cluster::canonical_groups(pairs)
    }

    /// Extract the full StrClu clustering in O(n + m).
    pub fn clustering(&self) -> StrCluResult {
        self.elm.clustering()
    }
}

/// vAuxInfo and `CC-Str(G_core)` as the live state a clustering is
/// refreshed from.
pub(crate) struct LiveView<'a>(pub(crate) &'a DynStrClu);

impl ClusterView for LiveView<'_> {
    fn num_vertices(&self) -> usize {
        self.0.graph().num_vertices()
    }

    fn is_core(&self, v: VertexId) -> bool {
        self.0.is_core(v)
    }

    fn similar_neighbours(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.0
            .aux
            .get(v.index())
            .into_iter()
            .flat_map(|aux| aux.similar_neighbours())
    }

    fn similar_core_neighbours(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.0
            .aux
            .get(v.index())
            .into_iter()
            .flat_map(|aux| aux.similar_core_neighbours())
    }

    /// O(component) through the level-0 spanning forest.
    fn core_component(&self, v: VertexId) -> Vec<VertexId> {
        self.0.core_graph.component_vertices(v)
    }
}

impl MemoryFootprint for DynStrClu {
    fn memory_bytes(&self) -> usize {
        self.elm.memory_bytes()
            + self
                .aux
                .iter()
                .map(MemoryFootprint::memory_bytes)
                .sum::<usize>()
            + self.core_graph.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::VertexRole;
    use crate::fixtures::{two_cliques_params, two_cliques_with_hub};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn build_exact(graph: &DynGraph, params: Params) -> DynStrClu {
        let mut algo = DynStrClu::new(params.with_exact_labels());
        for e in graph.edges() {
            algo.insert_edge(e.lo(), e.hi()).unwrap();
        }
        algo
    }

    /// The incrementally maintained state (core flags, sim counts, sim-core
    /// edges) must equal what a from-scratch extraction computes.
    fn assert_consistent_with_extraction(algo: &DynStrClu) {
        let result = algo.clustering();
        for x in 0..algo.graph().num_vertices() as u32 {
            let expected_core = result.role(v(x)) == VertexRole::Core;
            assert_eq!(
                algo.is_core(v(x)),
                expected_core,
                "core flag mismatch for vertex {x}"
            );
        }
        // Sim-core edge count: similar edges with both endpoints core.
        let expected_sim_core = algo
            .elm()
            .labels()
            .filter(|&(key, label)| {
                label.is_similar()
                    && result.role(key.lo()) == VertexRole::Core
                    && result.role(key.hi()) == VertexRole::Core
            })
            .count();
        assert_eq!(algo.num_sim_core_edges(), expected_sim_core);
    }

    #[test]
    fn incremental_build_matches_extraction() {
        let g = two_cliques_with_hub();
        let algo = build_exact(&g, two_cliques_params());
        assert_consistent_with_extraction(&algo);
        let result = algo.clustering();
        assert_eq!(result.num_clusters(), 2);
        assert_eq!(result.role(v(12)), VertexRole::Hub);
    }

    #[test]
    fn deletion_flips_core_status_and_stays_consistent() {
        let g = two_cliques_with_hub();
        let mut algo = build_exact(&g, two_cliques_params());
        assert!(algo.is_core(v(4)) && algo.is_core(v(5)));
        algo.delete_edge(v(4), v(5)).unwrap();
        assert!(
            !algo.is_core(v(4)),
            "vertex 4 drops below μ similar neighbours"
        );
        assert!(!algo.is_core(v(5)));
        assert_consistent_with_extraction(&algo);
        // Re-inserting restores the original state.
        algo.insert_edge(v(4), v(5)).unwrap();
        assert!(algo.is_core(v(4)) && algo.is_core(v(5)));
        assert_consistent_with_extraction(&algo);
    }

    #[test]
    fn group_by_groups_by_cluster() {
        let g = two_cliques_with_hub();
        let mut algo = build_exact(&g, two_cliques_params());
        // Query: one core from each clique, the hub, and the noise vertex.
        let groups = algo.cluster_group_by(&[v(0), v(6), v(12), v(13)]);
        // Expected: {0, 12} (cluster A) and {6, 12} (cluster B); 13 nowhere.
        assert_eq!(groups.len(), 2, "groups: {groups:?}");
        let as_sets: Vec<BTreeSet<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|x| x.raw()).collect())
            .collect();
        assert!(as_sets.contains(&[0u32, 12].into_iter().collect()));
        assert!(as_sets.contains(&[6u32, 12].into_iter().collect()));
    }

    #[test]
    fn group_by_with_all_vertices_matches_full_clustering() {
        let g = two_cliques_with_hub();
        let mut algo = build_exact(&g, two_cliques_params());
        let all: Vec<VertexId> = g.vertices().collect();
        let groups = algo.cluster_group_by(&all);
        let result = algo.clustering();
        let expected: BTreeSet<BTreeSet<u32>> = result
            .clusters()
            .iter()
            .map(|c| c.iter().map(|x| x.raw()).collect())
            .collect();
        let actual: BTreeSet<BTreeSet<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|x| x.raw()).collect())
            .collect();
        assert_eq!(actual, expected, "Q = V must reproduce the full clustering");
    }

    #[test]
    fn group_by_of_noise_only_is_empty() {
        let g = two_cliques_with_hub();
        let mut algo = build_exact(&g, two_cliques_params());
        assert!(algo.cluster_group_by(&[v(13)]).is_empty());
        assert!(algo.cluster_group_by(&[]).is_empty());
        // Unknown vertices are silently skipped.
        assert!(algo.cluster_group_by(&[v(1000)]).is_empty());
    }

    #[test]
    fn empty_instance_behaves() {
        let mut algo = DynStrClu::new(two_cliques_params().with_exact_labels());
        assert_eq!(algo.clustering().num_clusters(), 0);
        assert!(algo.cluster_group_by(&[v(0)]).is_empty());
        assert_eq!(algo.num_sim_core_edges(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random update sequences (insertions and deletions) keep the
        /// incrementally maintained core flags and sim-core graph consistent
        /// with a from-scratch extraction, and the group-by query over all
        /// vertices reproduces the full clustering.
        #[test]
        fn random_updates_stay_consistent(
            ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 1..80),
            mu in 2usize..4,
        ) {
            let params = Params::jaccard(0.4, mu).with_exact_labels().with_rho(0.05);
            let mut algo = DynStrClu::new(params);
            for (insert, a, b) in ops {
                if a == b { continue; }
                if insert {
                    let _ = algo.insert_edge(v(a), v(b));
                } else {
                    let _ = algo.delete_edge(v(a), v(b));
                }
            }
            assert_consistent_with_extraction(&algo);

            let all: Vec<VertexId> = algo.graph().vertices().collect();
            let groups = algo.cluster_group_by(&all);
            let result = algo.clustering();
            let expected: BTreeSet<BTreeSet<u32>> = result
                .clusters()
                .iter()
                .map(|c| c.iter().map(|x| x.raw()).collect())
                .collect();
            let actual: BTreeSet<BTreeSet<u32>> = groups
                .iter()
                .map(|g| g.iter().map(|x| x.raw()).collect())
                .collect();
            prop_assert_eq!(actual, expected);
        }
    }

    #[test]
    fn sharded_aux_maintenance_matches_sequential() {
        // Force the sharded path (cutoff 1) on multi-worker pools and
        // compare the full serialised state against a purely sequential
        // twin after every batch.
        use crate::traits::Clusterer;
        let params = Params::jaccard(0.35, 3)
            .with_exact_labels()
            .with_rho(0.05)
            .with_seed(7);
        for threads in [2usize, 4, 8] {
            let mut sequential = DynStrClu::new(params);
            let mut sharded = DynStrClu::new(params);
            sharded.set_exec_pool(crate::pool::ExecPool::with_threads(threads));
            sharded.set_shard_flip_cutoff(1);
            let mut rng = SmallRng::seed_from_u64(31 + threads as u64);
            let mut present: Vec<(u32, u32)> = Vec::new();
            for round in 0..6 {
                let mut batch = Vec::new();
                for _ in 0..60 {
                    if !present.is_empty() && rng.gen_bool(0.3) {
                        let idx = rng.gen_range(0..present.len());
                        let (a, b) = present.swap_remove(idx);
                        batch.push(GraphUpdate::Delete(v(a), v(b)));
                    } else {
                        let a = rng.gen_range(0u32..40);
                        let b = rng.gen_range(0u32..40);
                        batch.push(GraphUpdate::Insert(v(a), v(b)));
                        if a != b && !present.contains(&(a.min(b), a.max(b))) {
                            present.push((a.min(b), a.max(b)));
                        }
                    }
                }
                let flips_seq = sequential.apply_batch(&batch);
                let flips_shard = sharded.apply_batch(&batch);
                assert_eq!(flips_seq, flips_shard, "threads {threads} round {round}");
                assert_eq!(
                    sequential.checkpoint_bytes(),
                    sharded.checkpoint_bytes(),
                    "threads {threads} round {round}"
                );
                assert_eq!(
                    sequential.num_sim_core_edges(),
                    sharded.num_sim_core_edges()
                );
            }
            assert_consistent_with_extraction(&sharded);
            let all: Vec<VertexId> = sharded.graph().vertices().collect();
            assert_eq!(
                sequential.cluster_group_by(&all),
                sharded.cluster_group_by(&all)
            );
        }
    }

    #[test]
    fn randomised_stream_with_exact_labels_is_consistent() {
        // A longer deterministic random stream over a moderate vertex set.
        let mut rng = SmallRng::seed_from_u64(99);
        let params = Params::jaccard(0.35, 3).with_exact_labels().with_rho(0.1);
        let mut algo = DynStrClu::new(params);
        let mut present: Vec<(u32, u32)> = Vec::new();
        for step in 0..600u32 {
            let delete = !present.is_empty() && step % 5 == 4;
            if delete {
                let idx = (step as usize * 7919) % present.len();
                let (a, b) = present.swap_remove(idx);
                algo.delete_edge(v(a), v(b)).unwrap();
            } else {
                let a = rng.gen_range(0u32..30);
                let b = rng.gen_range(0u32..30);
                if a == b || algo.graph().has_edge(v(a), v(b)) {
                    continue;
                }
                algo.insert_edge(v(a), v(b)).unwrap();
                present.push((a, b));
            }
            if step % 100 == 99 {
                assert_consistent_with_extraction(&algo);
            }
        }
        assert_consistent_with_extraction(&algo);
        // Exercise group-by on a random subset.
        let mut subset: Vec<VertexId> = (0..30u32).map(v).collect();
        subset.shuffle(&mut rng);
        subset.truncate(8);
        let _ = algo.cluster_group_by(&subset);
    }
}
