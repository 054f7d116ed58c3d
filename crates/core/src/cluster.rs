//! The StrClu result: its O(n + m) extraction (Fact 1), its structurally
//! shared representation, and its incremental refresh.
//!
//! A [`StrCluResult`] stores one entry per vertex (core flag, the keys of
//! the clusters containing it, its primary cluster) in fixed-size
//! copy-on-write chunks of 64 vertices.  A cluster is keyed by its
//! smallest core vertex, and its sorted member list lives in that
//! vertex's entry.  Cloning a result copies chunk pointers, never
//! entries, so a new version shares every chunk a change did not touch
//! with the version before it.
//!
//! Extraction numbers clusters densely in the order of their smallest
//! core vertex, which is exactly key order.  The index-based accessors
//! ([`StrCluResult::clusters`], [`StrCluResult::clusters_of`], …) read a
//! dense view built on first use; the keyed accessor
//! [`StrCluResult::clusters_containing`] and [`group_by_from_clustering`]
//! read the chunks directly, so answering one query stays O(answer).
//!
//! The chunks and the dense view's `OnceLock` come from `std::sync`, not
//! the crate's `sync` facade: once shared they are immutable data (the
//! view is a cache of them), not a protocol the model checker explores.

use dynscan_conn::UnionFind;
use dynscan_graph::{DynGraph, EdgeKey, VertexId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Vertices per copy-on-write chunk.  A cluster of nearby ids spans one
/// or two chunks, and a new version costs n / 64 pointer copies on top
/// of the chunks it rewrites.
const CHUNK: usize = 64;

/// The role a vertex plays in a structural clustering (Section 1 / 2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VertexRole {
    /// A core vertex: at least μ similar neighbours.  Belongs to exactly one
    /// cluster.
    Core,
    /// A non-core vertex that belongs to exactly one cluster.
    Member,
    /// A non-core vertex that belongs to two or more clusters, bridging them.
    Hub,
    /// A vertex that belongs to no cluster (an outlier).
    Noise,
}

/// The keys of the clusters containing one vertex, ascending.  Only hubs
/// need an allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
enum Keys {
    #[default]
    Zero,
    One(VertexId),
    Many(Arc<[VertexId]>),
}

impl Keys {
    fn from_sorted(mut keys: impl ExactSizeIterator<Item = VertexId>) -> Keys {
        match keys.len() {
            0 => Keys::Zero,
            1 => Keys::One(keys.next().expect("one key")),
            _ => Keys::Many(keys.collect()),
        }
    }

    fn as_slice(&self) -> &[VertexId] {
        match self {
            Keys::Zero => &[],
            Keys::One(key) => std::slice::from_ref(key),
            Keys::Many(keys) => keys,
        }
    }
}

/// One vertex's entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Entry {
    core: bool,
    keys: Keys,
    /// Key of the primary-assignment cluster.
    primary: Option<VertexId>,
    /// The sorted members of the cluster this vertex keys, if it is the
    /// smallest core vertex of one.
    members: Option<Arc<[VertexId]>>,
}

impl Entry {
    fn role(&self) -> VertexRole {
        match (self.core, self.keys.as_slice().len()) {
            (true, _) => VertexRole::Core,
            (false, 0) => VertexRole::Noise,
            (false, 1) => VertexRole::Member,
            (false, _) => VertexRole::Hub,
        }
    }
}

/// The index-based view: clusters numbered densely in key order.
#[derive(Debug)]
struct Dense {
    /// Cluster keys, ascending; a cluster's index is its position here.
    keys: Vec<VertexId>,
    clusters: Vec<Vec<VertexId>>,
    /// `membership[offsets[v]..offsets[v + 1]]` lists v's cluster indices.
    offsets: Vec<usize>,
    membership: Vec<u32>,
}

impl Dense {
    fn index(&self, key: VertexId) -> u32 {
        self.keys
            .binary_search(&key)
            .expect("every cluster key names a cluster") as u32
    }
}

/// The StrClu clustering result `C(L(G), μ)`: the set of all StrClu
/// clusters, plus per-vertex role and membership information.
///
/// Clusters are identified two ways.  The index-based API numbers them
/// densely, `0..num_clusters()`, in the order of their smallest core
/// vertex.  The keyed API names each cluster by that smallest core
/// vertex (its *key*).  See the [module docs](self) for the
/// representation; `clone` copies n / 64 chunk pointers.
#[derive(Debug, Default)]
pub struct StrCluResult {
    chunks: Vec<Arc<Vec<Entry>>>,
    num_vertices: usize,
    num_clusters: usize,
    num_core: usize,
    /// Built on first use of an index-based accessor; never cloned.
    dense: OnceLock<Dense>,
}

impl Clone for StrCluResult {
    fn clone(&self) -> Self {
        StrCluResult {
            chunks: self.chunks.clone(),
            num_vertices: self.num_vertices,
            num_clusters: self.num_clusters,
            num_core: self.num_core,
            dense: OnceLock::new(),
        }
    }
}

/// Equal results answer every accessor identically.
impl PartialEq for StrCluResult {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices == other.num_vertices
            && self.num_clusters == other.num_clusters
            && self.num_core == other.num_core
            && self.chunks.len() == other.chunks.len()
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for StrCluResult {}

impl StrCluResult {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of vertices covered by the result (the graph's vertex count at
    /// extraction time).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of core vertices.
    pub fn num_core(&self) -> usize {
        self.num_core
    }

    fn entry(&self, v: VertexId) -> Option<&Entry> {
        self.chunks.get(v.index() / CHUNK)?.get(v.index() % CHUNK)
    }

    fn entry_mut(&mut self, v: VertexId) -> &mut Entry {
        &mut Arc::make_mut(&mut self.chunks[v.index() / CHUNK])[v.index() % CHUNK]
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    fn dense(&self) -> &Dense {
        self.dense.get_or_init(|| {
            let mut keys = Vec::with_capacity(self.num_clusters);
            let mut clusters = Vec::with_capacity(self.num_clusters);
            for (v, entry) in self.entries().enumerate() {
                if let Some(members) = &entry.members {
                    keys.push(VertexId::from(v));
                    clusters.push(members.to_vec());
                }
            }
            let mut dense = Dense {
                keys,
                clusters,
                offsets: Vec::with_capacity(self.num_vertices + 1),
                membership: Vec::new(),
            };
            dense.offsets.push(0);
            for entry in self.entries() {
                for &key in entry.keys.as_slice() {
                    let index = dense.index(key);
                    dense.membership.push(index);
                }
                dense.offsets.push(dense.membership.len());
            }
            dense
        })
    }

    /// The members of cluster `i` (sorted by vertex id).
    pub fn cluster(&self, i: usize) -> &[VertexId] {
        &self.dense().clusters[i]
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Vec<VertexId>] {
        &self.dense().clusters
    }

    /// The role of vertex `v`.
    pub fn role(&self, v: VertexId) -> VertexRole {
        self.entry(v).map_or(VertexRole::Noise, Entry::role)
    }

    /// The clusters `v` belongs to (possibly empty, possibly several for a
    /// hub).
    pub fn clusters_of(&self, v: VertexId) -> &[u32] {
        if v.index() >= self.num_vertices {
            return &[];
        }
        let dense = self.dense();
        &dense.membership[dense.offsets[v.index()]..dense.offsets[v.index() + 1]]
    }

    /// The keys (smallest core vertices) of the clusters `v` belongs to,
    /// ascending: the order of [`StrCluResult::clusters_of`].
    fn cluster_keys(&self, v: VertexId) -> &[VertexId] {
        self.entry(v).map_or(&[], |entry| entry.keys.as_slice())
    }

    /// The sorted members of the cluster keyed by `key`, if `key` is the
    /// smallest core vertex of a cluster.
    fn cluster_members(&self, key: VertexId) -> Option<&[VertexId]> {
        self.entry(key)?.members.as_deref()
    }

    /// The member lists of the clusters containing `v`, in smallest-core
    /// order (the order of [`StrCluResult::clusters_of`]), without
    /// building the dense view.
    pub fn clusters_containing(&self, v: VertexId) -> impl Iterator<Item = &[VertexId]> + '_ {
        self.cluster_keys(v).iter().map(|&key| {
            self.cluster_members(key)
                .expect("every cluster key names a cluster")
        })
    }

    /// The paper's single-assignment convention used for ARI: core vertices
    /// map to their cluster, non-core vertices to the cluster of their
    /// smallest-id similar core neighbour, noise to `None`.
    pub fn primary_assignment(&self, v: VertexId) -> Option<u32> {
        let key = self.entry(v)?.primary?;
        Some(self.dense().index(key))
    }

    /// Iterator over `(vertex, role)` pairs.
    pub fn roles(&self) -> impl Iterator<Item = (VertexId, VertexRole)> + '_ {
        self.entries()
            .enumerate()
            .map(|(i, entry)| (VertexId::from(i), entry.role()))
    }

    /// Number of noise vertices.
    pub fn num_noise(&self) -> usize {
        self.roles()
            .filter(|&(_, r)| r == VertexRole::Noise)
            .count()
    }

    /// Number of hub vertices.
    pub fn num_hubs(&self) -> usize {
        self.roles().filter(|&(_, r)| r == VertexRole::Hub).count()
    }

    /// Cluster indices ordered by decreasing size (the paper's "top-k
    /// clusters" convention used throughout Section 9).
    pub fn clusters_by_size(&self) -> Vec<usize> {
        let clusters = self.clusters();
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(clusters[i].len()));
        order
    }

    /// Extend the vertex space to `n` vertices, new ones as noise.
    fn grow(&mut self, n: usize) {
        while self.num_vertices < n {
            if self.num_vertices.is_multiple_of(CHUNK) {
                self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
            }
            let last = self.chunks.last_mut().expect("a chunk with room");
            let fill = (n - self.num_vertices).min(CHUNK - last.len());
            Arc::make_mut(last).extend(std::iter::repeat_n(Entry::default(), fill));
            self.num_vertices += fill;
        }
    }

    /// Bring the result up to date with `view`, given every endpoint of
    /// an edge whose label flipped since the result was current (any
    /// order, duplicates allowed).  Afterwards the result equals a full
    /// extraction from the live state, accessor for accessor.
    ///
    /// Call those endpoints *touched*.  Labels and core flags change only
    /// at touched vertices, so every cluster that contains no touched
    /// vertex, before or after, keeps its core component, its members
    /// and its key.  The refresh therefore drops the clusters that
    /// contained a touched vertex, rebuilds the current clusters that
    /// contain one (the `G_core` components of the touched cores and of
    /// the touched non-cores' similar core neighbours), and rewrites the
    /// entries of the touched vertices and of every member of a dropped
    /// or rebuilt cluster.  A dropped cluster's surviving cores always
    /// land in a rebuilt one: their current cluster still contains a
    /// touched vertex, either the one whose flip or core change split
    /// them off or the touched member that got the old cluster dropped.
    /// Cost: O(volume of the dropped and rebuilt clusters) view reads
    /// plus one copy of each chunk written.
    pub(crate) fn refresh<V: ClusterView>(&mut self, flip_endpoints: &[VertexId], view: &V) {
        self.dense = OnceLock::new();
        self.grow(view.num_vertices());
        let mut touched = flip_endpoints.to_vec();
        touched.sort_unstable();
        touched.dedup();

        let mut old_keys: Vec<VertexId> = touched
            .iter()
            .flat_map(|&t| self.cluster_keys(t).iter().copied())
            .collect();
        old_keys.sort_unstable();
        old_keys.dedup();

        let mut key_of: HashMap<VertexId, VertexId> = HashMap::new();
        let mut new_clusters: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
        for &t in &touched {
            let seeds: Vec<VertexId> = if view.is_core(t) {
                vec![t]
            } else {
                view.similar_core_neighbours(t).collect()
            };
            for seed in seeds {
                if key_of.contains_key(&seed) {
                    continue;
                }
                let component = view.core_component(seed);
                let key = *component.iter().min().expect("a component holds its seed");
                let mut members = component.clone();
                for &core in &component {
                    key_of.insert(core, key);
                    members.extend(view.similar_neighbours(core));
                }
                members.sort_unstable();
                members.dedup();
                new_clusters.push((key, members));
            }
        }

        let mut rewrite: Vec<VertexId> = touched;
        for &key in &old_keys {
            rewrite.extend_from_slice(
                self.cluster_members(key)
                    .expect("every cluster key names a cluster"),
            );
        }
        for (_, members) in &new_clusters {
            rewrite.extend_from_slice(members);
        }
        rewrite.sort_unstable();
        rewrite.dedup();
        // A core outside every rebuilt component sits in an unchanged
        // cluster, whose key its old entry still holds.
        let key_of_core = |core: VertexId| {
            key_of
                .get(&core)
                .copied()
                .unwrap_or_else(|| self.cluster_keys(core)[0])
        };
        let mut entries: Vec<(VertexId, bool, Keys, Option<VertexId>)> =
            Vec::with_capacity(rewrite.len());
        let mut keys: Vec<VertexId> = Vec::new();
        for &v in &rewrite {
            if view.is_core(v) {
                let key = key_of[&v];
                entries.push((v, true, Keys::One(key), Some(key)));
                continue;
            }
            keys.clear();
            let mut smallest: Option<VertexId> = None;
            for core in view.similar_core_neighbours(v) {
                keys.push(key_of_core(core));
                smallest = Some(smallest.map_or(core, |s| s.min(core)));
            }
            keys.sort_unstable();
            keys.dedup();
            entries.push((
                v,
                false,
                Keys::from_sorted(keys.iter().copied()),
                smallest.map(key_of_core),
            ));
        }

        for &key in &old_keys {
            self.entry_mut(key).members = None;
        }
        self.num_clusters = self.num_clusters - old_keys.len() + new_clusters.len();
        for (v, core, keys, primary) in entries {
            let entry = self.entry_mut(v);
            let was_core = std::mem::replace(&mut entry.core, core);
            entry.keys = keys;
            entry.primary = primary;
            self.num_core = self.num_core + usize::from(core) - usize::from(was_core);
        }
        for (key, members) in new_clusters {
            self.entry_mut(key).members = Some(members.into());
        }
    }
}

/// The live state [`StrCluResult::refresh`] reads: core flags and
/// similar-neighbour sets (vAuxInfo) and the components of `G_core`.
pub(crate) trait ClusterView {
    /// The current vertex count.
    fn num_vertices(&self) -> usize;
    /// Whether `v` is a core vertex.
    fn is_core(&self, v: VertexId) -> bool;
    /// The similar neighbours of `v`, in any order.
    fn similar_neighbours(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_;
    /// The similar neighbours of `v` that are core, in any order.
    fn similar_core_neighbours(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_;
    /// The vertices of the `G_core` component of the core vertex `v`, in
    /// any order.
    fn core_component(&self, v: VertexId) -> Vec<VertexId>;
}

/// Answer a cluster-group-by query (Definition 3.2) from a materialised
/// clustering: group the vertices of `q` by the clusters containing them,
/// in canonical form — members of each group sorted ascending and
/// deduplicated, groups in lexicographic order of their member lists.
/// O(|Q| log |Q|) through the keyed accessor; the dense view is not built.
///
/// This is the reference path shared by every backend without a dynamic
/// connectivity structure (DynELM and the exact baselines implement
/// `Clusterer::cluster_group_by` by extracting their clustering and
/// calling this); DynStrClu's O(|Q| · log n) connectivity path must return
/// exactly the same groups, which the cross-backend equivalence tests pin.
pub fn group_by_from_clustering(result: &StrCluResult, q: &[VertexId]) -> Vec<Vec<VertexId>> {
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(q.len());
    for &v in q {
        for &key in result.cluster_keys(v) {
            pairs.push((key, v));
        }
    }
    canonical_groups(pairs)
}

/// Turn a `(cluster key, query vertex)` pair list into the canonical
/// group-by answer: duplicates collapsed, members of each group sorted
/// ascending, groups in lexicographic order of their member lists (i.e.
/// by smallest member, ties broken by the remaining members).  The
/// single source of truth for the canonical form —
/// [`group_by_from_clustering`] feeds it cluster keys, DynStrClu's
/// connectivity path feeds it `G_core` component ids, and both must come
/// out identical.  The full lexicographic sort matters: a hub that is
/// the smallest queried member of *several* groups would otherwise leave
/// the tie to backend-internal key order (cluster key vs. `G_core`
/// component id), which differs across backends and across restore.
pub(crate) fn canonical_groups<K: Ord>(mut pairs: Vec<(K, VertexId)>) -> Vec<Vec<VertexId>> {
    pairs.sort_unstable();
    pairs.dedup();
    let mut groups: Vec<Vec<VertexId>> = Vec::new();
    let mut current: Option<K> = None;
    for (key, vertex) in pairs {
        if current.as_ref() != Some(&key) {
            groups.push(Vec::new());
            current = Some(key);
        }
        groups.last_mut().expect("just pushed").push(vertex);
    }
    groups.sort();
    groups
}

/// Extract the StrClu clustering in O(n + m) from a graph and an edge
/// labelling (Fact 1).
///
/// `is_similar` is consulted once per edge; for the dynamic algorithms it is
/// a lookup in the maintained labelling, for the static baseline it is an
/// exact similarity comparison.
pub fn extract_clustering<F>(graph: &DynGraph, mu: usize, mut is_similar: F) -> StrCluResult
where
    F: FnMut(EdgeKey) -> bool,
{
    let n = graph.num_vertices();
    // Pass 1: similar-neighbour counts → core flags.
    let mut sim_count = vec![0u32; n];
    let mut similar_edges: Vec<EdgeKey> = Vec::new();
    for edge in graph.edges() {
        if is_similar(edge) {
            sim_count[edge.lo().index()] += 1;
            sim_count[edge.hi().index()] += 1;
            similar_edges.push(edge);
        }
    }
    let core: Vec<bool> = sim_count.iter().map(|&c| c as usize >= mu).collect();
    let num_core = core.iter().filter(|&&c| c).count();

    // Pass 2: connected components of the sim-core graph.
    let mut uf = UnionFind::new(n);
    for edge in &similar_edges {
        let (a, b) = edge.endpoints();
        if core[a.index()] && core[b.index()] {
            uf.union(a.index(), b.index());
        }
    }

    // Pass 3: assign cluster ids to components that contain a core vertex,
    // in order of their smallest core vertex (the cluster's key).
    let mut cluster_of_root: HashMap<usize, u32> = HashMap::new();
    let mut keys: Vec<VertexId> = Vec::new();
    let mut clusters: Vec<Vec<VertexId>> = Vec::new();
    let mut membership: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in 0..n {
        if core[v] {
            let root = uf.find(v);
            let next_id = clusters.len() as u32;
            let id = *cluster_of_root.entry(root).or_insert_with(|| {
                keys.push(VertexId::from(v));
                clusters.push(Vec::new());
                next_id
            });
            clusters[id as usize].push(VertexId::from(v));
            membership[v].push(id);
        }
    }

    // Pass 4: attach non-core vertices to the clusters of their similar core
    // neighbours, and record the smallest-core-neighbour primary assignment.
    let mut primary: Vec<Option<u32>> = vec![None; n];
    let mut smallest_core_neighbour: Vec<Option<VertexId>> = vec![None; n];
    for v in 0..n {
        if core[v] {
            primary[v] = Some(membership[v][0]);
        }
    }
    for edge in &similar_edges {
        let (a, b) = edge.endpoints();
        for (x, y) in [(a, b), (b, a)] {
            // y is a similar neighbour of x; if y is core and x is not, x
            // joins y's cluster.
            if core[y.index()] && !core[x.index()] {
                let cluster = membership[y.index()][0];
                if !membership[x.index()].contains(&cluster) {
                    membership[x.index()].push(cluster);
                    clusters[cluster as usize].push(x);
                }
                let smaller = match smallest_core_neighbour[x.index()] {
                    None => true,
                    Some(current) => y < current,
                };
                if smaller {
                    smallest_core_neighbour[x.index()] = Some(y);
                    primary[x.index()] = Some(cluster);
                }
            }
        }
    }

    // Pass 5: the entries, chunk by chunk.  Cluster ids were assigned
    // in key order, so sorted ids give sorted keys.
    for cluster in &mut clusters {
        cluster.sort_unstable();
    }
    let mut chunks = Vec::with_capacity(n.div_ceil(CHUNK));
    for start in (0..n).step_by(CHUNK) {
        let mut chunk = Vec::with_capacity(CHUNK.min(n - start));
        for v in start..(start + CHUNK).min(n) {
            membership[v].sort_unstable();
            let members = match membership[v].first() {
                Some(&id) if core[v] && keys[id as usize].index() == v => {
                    Some(Arc::from(clusters[id as usize].as_slice()))
                }
                _ => None,
            };
            chunk.push(Entry {
                core: core[v],
                keys: Keys::from_sorted(membership[v].iter().map(|&id| keys[id as usize])),
                primary: primary[v].map(|id| keys[id as usize]),
                members,
            });
        }
        chunks.push(Arc::new(chunk));
    }
    StrCluResult {
        chunks,
        num_vertices: n,
        num_clusters: clusters.len(),
        num_core,
        dense: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::two_cliques_with_hub;
    use dynscan_sim::{exact_similarity, SimilarityMeasure};
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn jaccard_labelling(graph: &DynGraph, eps: f64) -> impl FnMut(EdgeKey) -> bool + '_ {
        move |e: EdgeKey| exact_similarity(graph, e.lo(), e.hi(), SimilarityMeasure::Jaccard) >= eps
    }

    /// A deliberately simple reference implementation of Fact 1, used to
    /// validate [`extract_clustering`] on arbitrary graphs: label edges,
    /// find cores, BFS over sim-core edges, attach similar neighbours.
    fn brute_force(graph: &DynGraph, mu: usize, eps: f64) -> Vec<BTreeSet<u32>> {
        let n = graph.num_vertices();
        let similar = |a: VertexId, b: VertexId| {
            exact_similarity(graph, a, b, SimilarityMeasure::Jaccard) >= eps
        };
        let mut core = vec![false; n];
        for x in 0..n as u32 {
            let count = graph
                .neighbours_iter(v(x))
                .filter(|&y| similar(v(x), y))
                .count();
            core[x as usize] = count >= mu;
        }
        let mut seen = vec![false; n];
        let mut clusters = Vec::new();
        for start in 0..n as u32 {
            if !core[start as usize] || seen[start as usize] {
                continue;
            }
            // BFS over sim-core edges.
            let mut component = vec![start];
            seen[start as usize] = true;
            let mut queue = vec![start];
            while let Some(x) = queue.pop() {
                for y in graph.neighbours_iter(v(x)) {
                    if core[y.index()] && !seen[y.index()] && similar(v(x), y) {
                        seen[y.index()] = true;
                        component.push(y.raw());
                        queue.push(y.raw());
                    }
                }
            }
            // Cluster = component cores plus all their similar neighbours.
            let mut cluster: BTreeSet<u32> = component.iter().copied().collect();
            for &x in &component {
                for y in graph.neighbours_iter(v(x)) {
                    if similar(v(x), y) {
                        cluster.insert(y.raw());
                    }
                }
            }
            clusters.push(cluster);
        }
        clusters
    }

    #[test]
    fn empty_graph_has_no_clusters() {
        let g = DynGraph::with_vertices(4);
        let result = extract_clustering(&g, 2, |_| true);
        assert_eq!(result.num_clusters(), 0);
        assert_eq!(result.num_core(), 0);
        assert_eq!(result.num_noise(), 4);
        assert_eq!(result.role(v(0)), VertexRole::Noise);
        assert_eq!(result.clusters_of(v(0)), &[] as &[u32]);
        assert_eq!(result.primary_assignment(v(0)), None);
    }

    #[test]
    fn clique_forms_single_cluster() {
        let mut g = DynGraph::with_vertices(5);
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                g.insert_edge(v(a), v(b)).unwrap();
            }
        }
        let result = extract_clustering(&g, 3, |_| true);
        assert_eq!(result.num_clusters(), 1);
        assert_eq!(result.cluster(0).len(), 5);
        assert_eq!(result.num_core(), 5);
        for i in 0..5 {
            assert_eq!(result.role(v(i)), VertexRole::Core);
            assert_eq!(result.primary_assignment(v(i)), Some(0));
        }
    }

    #[test]
    fn mu_larger_than_degree_means_all_noise() {
        let mut g = DynGraph::with_vertices(4);
        g.insert_edge(v(0), v(1)).unwrap();
        g.insert_edge(v(1), v(2)).unwrap();
        let result = extract_clustering(&g, 10, |_| true);
        assert_eq!(result.num_clusters(), 0);
        assert_eq!(result.num_noise(), 4);
    }

    #[test]
    fn two_cliques_with_hub_clusters_as_designed() {
        // See `fixtures::two_cliques_with_hub` for the analytical derivation.
        let g = two_cliques_with_hub();
        let result = extract_clustering(&g, 5, jaccard_labelling(&g, 0.29));

        assert_eq!(
            result.num_clusters(),
            2,
            "clusters: {:?}",
            result.clusters()
        );
        let sizes: Vec<usize> = result.clusters().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![7, 7]);

        // Clique members are core.
        for x in 0..12u32 {
            assert_eq!(
                result.role(v(x)),
                VertexRole::Core,
                "vertex {x} should be core"
            );
        }
        // Vertex 12 bridges both clusters.
        assert_eq!(result.role(v(12)), VertexRole::Hub);
        assert_eq!(result.clusters_of(v(12)).len(), 2);
        // Vertex 13 is noise.
        assert_eq!(result.role(v(13)), VertexRole::Noise);
        assert_eq!(result.primary_assignment(v(13)), None);
        // The hub's primary assignment follows its smallest core neighbour
        // (vertex 0), i.e. cluster A.
        assert_eq!(
            result.primary_assignment(v(12)),
            result.primary_assignment(v(0))
        );
        assert_eq!(result.num_core(), 12);
        assert_eq!(result.num_hubs(), 1);
        assert_eq!(result.num_noise(), 1);
    }

    #[test]
    fn deleting_an_intra_clique_edge_demotes_two_cores() {
        let mut g = two_cliques_with_hub();
        g.delete_edge(v(4), v(5)).unwrap();
        let result = extract_clustering(&g, 5, jaccard_labelling(&g, 0.29));
        assert_eq!(result.role(v(4)), VertexRole::Member);
        assert_eq!(result.role(v(5)), VertexRole::Member);
        // Cluster A still contains them as non-core members.
        assert_eq!(result.num_clusters(), 2);
        let a = result.clusters_of(v(0))[0];
        assert!(result.cluster(a as usize).contains(&v(4)));
        assert!(result.cluster(a as usize).contains(&v(5)));
    }

    #[test]
    fn group_by_helper_is_canonical() {
        let g = two_cliques_with_hub();
        let result = extract_clustering(&g, 5, jaccard_labelling(&g, 0.29));
        // Hub 12 appears in both groups; noise 13 and unknown ids in none;
        // duplicates collapse.
        let q = [v(6), v(12), v(0), v(13), v(0), v(1000)];
        let groups = group_by_from_clustering(&result, &q);
        assert_eq!(groups.len(), 2);
        // Groups sorted by smallest member, members ascending.
        assert_eq!(groups[0], vec![v(0), v(12)]);
        assert_eq!(groups[1], vec![v(6), v(12)]);
        assert!(group_by_from_clustering(&result, &[]).is_empty());
        assert!(group_by_from_clustering(&result, &[v(13)]).is_empty());
    }

    #[test]
    fn clusters_by_size_is_descending() {
        let g = two_cliques_with_hub();
        let result = extract_clustering(&g, 5, jaccard_labelling(&g, 0.29));
        let order = result.clusters_by_size();
        for w in order.windows(2) {
            assert!(result.cluster(w[0]).len() >= result.cluster(w[1]).len());
        }
    }

    #[test]
    fn membership_is_sorted_and_deduplicated() {
        let g = two_cliques_with_hub();
        let result = extract_clustering(&g, 5, jaccard_labelling(&g, 0.29));
        for x in 0..g.num_vertices() as u32 {
            let m = result.clusters_of(v(x));
            assert!(
                m.windows(2).all(|w| w[0] < w[1]),
                "membership of {x} not sorted/deduped"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_fixture() {
        let g = two_cliques_with_hub();
        let expected = brute_force(&g, 5, 0.29);
        let result = extract_clustering(&g, 5, jaccard_labelling(&g, 0.29));
        let actual: HashSet<BTreeSet<u32>> = result
            .clusters()
            .iter()
            .map(|c| c.iter().map(|x| x.raw()).collect())
            .collect();
        assert_eq!(actual, expected.into_iter().collect());
    }

    /// A graph under the exact Jaccard labelling as a [`ClusterView`].
    struct ExactView {
        mu: usize,
        similar: Vec<BTreeSet<u32>>,
    }

    impl ExactView {
        fn new(graph: &DynGraph, mu: usize, eps: f64) -> Self {
            let mut similar = vec![BTreeSet::new(); graph.num_vertices()];
            for e in graph.edges() {
                if exact_similarity(graph, e.lo(), e.hi(), SimilarityMeasure::Jaccard) >= eps {
                    similar[e.lo().index()].insert(e.hi().raw());
                    similar[e.hi().index()].insert(e.lo().raw());
                }
            }
            ExactView { mu, similar }
        }

        /// Endpoints of every edge labelled differently in `self` and
        /// `other`.
        fn flip_endpoints(&self, other: &ExactView) -> Vec<VertexId> {
            let empty = BTreeSet::new();
            let mut out = Vec::new();
            for x in 0..self.similar.len().max(other.similar.len()) {
                let a = self.similar.get(x).unwrap_or(&empty);
                let b = other.similar.get(x).unwrap_or(&empty);
                for &y in a.symmetric_difference(b) {
                    out.extend([v(x as u32), v(y)]);
                }
            }
            out
        }
    }

    impl ClusterView for ExactView {
        fn num_vertices(&self) -> usize {
            self.similar.len()
        }

        fn is_core(&self, x: VertexId) -> bool {
            self.similar
                .get(x.index())
                .is_some_and(|s| s.len() >= self.mu)
        }

        fn similar_neighbours(&self, x: VertexId) -> impl Iterator<Item = VertexId> + '_ {
            self.similar
                .get(x.index())
                .into_iter()
                .flatten()
                .map(|&y| v(y))
        }

        fn similar_core_neighbours(&self, x: VertexId) -> impl Iterator<Item = VertexId> + '_ {
            self.similar_neighbours(x).filter(|&y| self.is_core(y))
        }

        fn core_component(&self, x: VertexId) -> Vec<VertexId> {
            let mut seen = BTreeSet::from([x.raw()]);
            let mut stack = vec![x];
            while let Some(y) = stack.pop() {
                for z in self.similar_neighbours(y) {
                    if self.is_core(z) && seen.insert(z.raw()) {
                        stack.push(z);
                    }
                }
            }
            seen.into_iter().map(v).collect()
        }
    }

    /// Every accessor of `a` answers like `b`'s.
    fn assert_same_answers(a: &StrCluResult, b: &StrCluResult) {
        assert_eq!(a, b);
        assert_eq!(a.clusters(), b.clusters());
        assert_eq!(a.num_clusters(), b.num_clusters());
        assert_eq!(a.num_core(), b.num_core());
        assert_eq!(a.num_vertices(), b.num_vertices());
        for x in 0..a.num_vertices().max(b.num_vertices()) as u32 + 1 {
            assert_eq!(a.role(v(x)), b.role(v(x)), "role of {x}");
            assert_eq!(a.clusters_of(v(x)), b.clusters_of(v(x)), "clusters of {x}");
            assert_eq!(a.primary_assignment(v(x)), b.primary_assignment(v(x)));
            let listed: Vec<&[VertexId]> = a.clusters_containing(v(x)).collect();
            let indexed: Vec<&[VertexId]> = b
                .clusters_of(v(x))
                .iter()
                .map(|&i| b.cluster(i as usize))
                .collect();
            assert_eq!(listed, indexed, "keyed and dense views disagree on {x}");
        }
    }

    #[test]
    fn refresh_with_nothing_touched_only_grows() {
        let g = two_cliques_with_hub();
        let before = extract_clustering(&g, 5, jaccard_labelling(&g, 0.29));
        let mut grown = g.clone();
        grown.insert_edge(v(13), v(30)).unwrap();
        let mut patched = before.clone();
        patched.refresh(&[], &ExactView::new(&grown, 5, 0.29));
        assert_eq!(patched.num_vertices(), 31);
        assert_same_answers(
            &patched,
            &extract_clustering(&grown, 5, jaccard_labelling(&grown, 0.29)),
        );
        // The clone shared its chunks copy-on-write: the original is intact.
        assert_eq!(before.num_vertices(), 14);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Patching the clustering of a graph with the flip set of a
        /// random batch of edits reproduces the extraction of the edited
        /// graph, and leaves the patched-from version unchanged.
        #[test]
        fn refresh_matches_extraction_after_random_edits(
            edges in prop::collection::hash_set((0u32..18, 0u32..18), 1..100),
            edits in prop::collection::vec((any::<bool>(), 0u32..22, 0u32..22), 1..24),
            mu in 2usize..5,
            eps_permille in 150u32..600,
        ) {
            let eps = eps_permille as f64 / 1000.0;
            let edges: Vec<_> = edges.into_iter().filter(|(a, b)| a != b)
                .map(|(a, b)| (v(a), v(b))).collect();
            let (before, _) = DynGraph::from_edges(edges);
            let mut after = before.clone();
            for (insert, a, b) in edits {
                if a != b {
                    let _ = if insert {
                        after.insert_edge(v(a), v(b))
                    } else {
                        after.delete_edge(v(a), v(b))
                    };
                }
            }
            let prev = extract_clustering(&before, mu, jaccard_labelling(&before, eps));
            let view = ExactView::new(&after, mu, eps);
            let touched = ExactView::new(&before, mu, eps).flip_endpoints(&view);
            let mut patched = prev.clone();
            patched.refresh(&touched, &view);
            assert_same_answers(
                &patched,
                &extract_clustering(&after, mu, jaccard_labelling(&after, eps)),
            );
            prop_assert_eq!(
                prev,
                extract_clustering(&before, mu, jaccard_labelling(&before, eps))
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// On random graphs the O(n + m) extraction produces exactly the
        /// same set of clusters as the brute-force reference, for a spread
        /// of (ε, μ) settings.
        #[test]
        fn matches_brute_force_on_random_graphs(
            edges in prop::collection::hash_set((0u32..18, 0u32..18), 1..120),
            mu in 2usize..5,
            eps_permille in 100u32..700,
        ) {
            let eps = eps_permille as f64 / 1000.0;
            let edges: Vec<_> = edges.into_iter().filter(|(a, b)| a != b)
                .map(|(a, b)| (v(a), v(b))).collect();
            let (g, _) = DynGraph::from_edges(edges);
            let expected: HashSet<BTreeSet<u32>> =
                brute_force(&g, mu, eps).into_iter().collect();
            let result = extract_clustering(&g, mu, jaccard_labelling(&g, eps));
            let actual: HashSet<BTreeSet<u32>> = result
                .clusters()
                .iter()
                .map(|c| c.iter().map(|x| x.raw()).collect())
                .collect();
            prop_assert_eq!(actual, expected);
            // Role bookkeeping is consistent with membership counts.
            for x in 0..g.num_vertices() as u32 {
                match result.role(v(x)) {
                    VertexRole::Core => prop_assert!(!result.clusters_of(v(x)).is_empty()),
                    VertexRole::Member => prop_assert_eq!(result.clusters_of(v(x)).len(), 1),
                    VertexRole::Hub => prop_assert!(result.clusters_of(v(x)).len() >= 2),
                    VertexRole::Noise => prop_assert!(result.clusters_of(v(x)).is_empty()),
                }
            }
        }
    }
}
