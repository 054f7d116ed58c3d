//! Holm–de Lichtenberg–Thorup fully dynamic connectivity.
//!
//! This is the structure the paper's Fact 2 relies on for maintaining the
//! connected components of the sim-core graph `G_core`: edge insertions and
//! deletions in O(log² n) amortized time, connectivity / component-id
//! queries in O(log n) worst-case time, linear space.
//!
//! The implementation follows the classic description:
//!
//! * every edge has a level `ℓ(e) ≥ 0`, new edges start at level 0;
//! * `F_i` is a spanning forest of the sub-graph of edges with level ≥ i,
//!   with `F_0 ⊇ F_1 ⊇ …`; each `F_i` is an [`EulerTourForest`];
//! * tree edges of level ℓ appear in forests `F_0 … F_ℓ` and carry an
//!   "exact level" flag only in `F_ℓ`;
//! * non-tree edges live in per-level, per-vertex adjacency sets, and each
//!   vertex's node in `F_i` carries a flag "has non-tree level-i edges" so a
//!   component can be scanned for candidate replacement edges in
//!   O(log n) per candidate;
//! * deleting a tree edge at level ℓ searches levels ℓ, ℓ−1, …, 0 for a
//!   replacement, promoting the smaller side's tree edges and failed
//!   candidates one level up — the charging argument that yields the
//!   O(log² n) amortized bound.

use crate::ett::EulerTourForest;
use crate::{ComponentId, DynamicConnectivity};
use dynscan_graph::{EdgeKey, MemoryFootprint, VertexId};
use std::collections::{HashMap, HashSet};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EdgeInfo {
    level: usize,
    is_tree: bool,
}

#[derive(Clone, Debug)]
struct Level {
    forest: EulerTourForest,
    /// Non-tree edges of exactly this level, as per-vertex adjacency sets.
    nontree: Vec<HashSet<VertexId>>,
}

impl Level {
    fn new(seed: u64, capacity: usize) -> Self {
        Level {
            forest: EulerTourForest::with_seed(seed),
            nontree: vec![HashSet::new(); capacity],
        }
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.nontree.len() < n {
            self.nontree.resize_with(n, HashSet::new);
        }
    }

    /// Add a non-tree edge at this level and maintain the vertex flags.
    fn add_nontree(&mut self, u: VertexId, v: VertexId) {
        self.ensure_capacity(u.index().max(v.index()) + 1);
        self.nontree[u.index()].insert(v);
        self.nontree[v.index()].insert(u);
        self.forest.set_vertex_flag(u, true);
        self.forest.set_vertex_flag(v, true);
    }

    /// Remove a non-tree edge at this level and maintain the vertex flags.
    fn remove_nontree(&mut self, u: VertexId, v: VertexId) {
        self.nontree[u.index()].remove(&v);
        self.nontree[v.index()].remove(&u);
        if self.nontree[u.index()].is_empty() {
            self.forest.set_vertex_flag(u, false);
        }
        if self.nontree[v.index()].is_empty() {
            self.forest.set_vertex_flag(v, false);
        }
    }
}

/// Fully dynamic connectivity with poly-logarithmic amortized updates.
#[derive(Clone, Debug)]
pub struct HdtConnectivity {
    capacity: usize,
    levels: Vec<Level>,
    edges: HashMap<EdgeKey, EdgeInfo>,
    seed: u64,
}

impl Default for HdtConnectivity {
    fn default() -> Self {
        Self::new(0)
    }
}

impl HdtConnectivity {
    /// Create a structure over `n` vertices (`0..n`); the vertex space can
    /// grow later through [`DynamicConnectivity::ensure_vertices`].
    pub fn new(n: usize) -> Self {
        Self::with_seed(n, 0xd1c7_0bee)
    }

    /// Create with an explicit treap-priority seed (reproducible runs).
    pub fn with_seed(n: usize, seed: u64) -> Self {
        HdtConnectivity {
            capacity: n,
            levels: vec![Level::new(seed, n)],
            edges: HashMap::new(),
            seed,
        }
    }

    /// Deterministically rebuild a connectivity structure from an edge
    /// list: the snapshot-restore fast path for `CC-Str(G_core)`.
    ///
    /// The HDT hierarchy's internal shape (edge levels, treap layout)
    /// depends on the full insert/delete history, so instead of
    /// serialising it the snapshot subsystem records only the sim-core
    /// edge set and replays it here in canonical (sorted) order with the
    /// original seed.  Connectivity semantics — which vertices share a
    /// component — are a pure function of the edge set, so every
    /// `connected`/`cluster_group_by` answer after restore matches the
    /// uninterrupted instance (component *ids* are only ever guaranteed
    /// stable between two consecutive updates, see [`ComponentId`]).
    pub fn rebuild_from_edges<I>(n: usize, seed: u64, edges: I) -> Self
    where
        I: IntoIterator<Item = EdgeKey>,
    {
        let mut keys: Vec<EdgeKey> = edges.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        let mut conn = HdtConnectivity::with_seed(n, seed);
        for key in keys {
            conn.insert_edge(key.lo(), key.hi());
        }
        conn
    }

    fn ensure_level(&mut self, i: usize) {
        while self.levels.len() <= i {
            let seed = self.seed.wrapping_add(self.levels.len() as u64);
            self.levels.push(Level::new(seed, self.capacity));
        }
    }

    /// Whether the edge `(u, v)` is currently stored (tree or non-tree).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edges.contains_key(&EdgeKey::new(u, v))
    }

    /// Number of levels currently materialised (diagnostic).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Size of the connected component containing `u`.
    pub fn component_size(&self, u: VertexId) -> usize {
        self.levels[0].forest.tree_vertex_count(u)
    }

    /// Vertices of the connected component containing `u`, in no
    /// particular order (O(component size); the clustering refresh reads
    /// `G_core` components through this).
    pub fn component_vertices(&self, u: VertexId) -> Vec<VertexId> {
        self.levels[0].forest.tree_vertices(u)
    }

    /// Handle deletion of a tree edge at level `lvl`: search for a
    /// replacement from `lvl` downwards.
    fn replace(&mut self, u: VertexId, v: VertexId, lvl: usize) {
        for i in (0..=lvl).rev() {
            self.ensure_level(i + 1);
            // Work on the smaller of the two split components at level i.
            let size_u = self.levels[i].forest.tree_vertex_count(u);
            let size_v = self.levels[i].forest.tree_vertex_count(v);
            let (small, large) = if size_u <= size_v { (u, v) } else { (v, u) };

            // Step 1: push every level-i tree edge of the small component up
            // to level i + 1 (they stay tree edges, now also in F_{i+1}).
            while let Some((x, y)) = self.levels[i].forest.find_flagged_arc(small) {
                let key = EdgeKey::new(x, y);
                self.levels[i].forest.set_arc_flag(x, y, false);
                let info = self
                    .edges
                    .get_mut(&key)
                    .expect("tree edge must be registered");
                debug_assert!(info.is_tree && info.level == i);
                info.level = i + 1;
                self.levels[i + 1].forest.link(x, y);
                self.levels[i + 1].forest.set_arc_flag(x, y, true);
            }

            // Step 2: scan level-i non-tree edges incident to the small
            // component.  Each candidate either reconnects the split (done)
            // or is promoted to level i + 1 (paying for itself).
            let mut replacement: Option<EdgeKey> = None;
            'scan: while let Some(x) = self.levels[i].forest.find_flagged_vertex(small) {
                while let Some(&y) = self.levels[i].nontree[x.index()].iter().next() {
                    self.levels[i].remove_nontree(x, y);
                    if self.levels[i].forest.connected(y, large) {
                        replacement = Some(EdgeKey::new(x, y));
                        break 'scan;
                    }
                    // Both endpoints in the small component: promote.
                    let key = EdgeKey::new(x, y);
                    self.edges
                        .get_mut(&key)
                        .expect("non-tree edge must be registered")
                        .level = i + 1;
                    self.levels[i + 1].add_nontree(x, y);
                }
            }

            if let Some(key) = replacement {
                let (a, b) = key.endpoints();
                let info = self
                    .edges
                    .get_mut(&key)
                    .expect("replacement edge registered");
                info.is_tree = true;
                info.level = i;
                // The replacement joins every forest F_0 … F_i, reconnecting
                // all of them at once (they are supersets of F_i).
                for j in 0..=i {
                    self.levels[j].forest.link(a, b);
                }
                self.levels[i].forest.set_arc_flag(a, b, true);
                return;
            }
        }
    }
}

impl DynamicConnectivity for HdtConnectivity {
    fn num_vertices(&self) -> usize {
        self.capacity
    }

    fn ensure_vertices(&mut self, n: usize) {
        if n > self.capacity {
            self.capacity = n;
            for level in &mut self.levels {
                level.ensure_capacity(n);
            }
        }
    }

    fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert!(u != v, "self-loops are not supported");
        let key = EdgeKey::new(u, v);
        if self.edges.contains_key(&key) {
            return false;
        }
        self.ensure_vertices(u.index().max(v.index()) + 1);
        let level0 = &mut self.levels[0];
        level0.forest.ensure_vertex(u);
        level0.forest.ensure_vertex(v);
        if level0.forest.connected(u, v) {
            level0.add_nontree(u, v);
            self.edges.insert(
                key,
                EdgeInfo {
                    level: 0,
                    is_tree: false,
                },
            );
        } else {
            level0.forest.link(u, v);
            level0.forest.set_arc_flag(u, v, true);
            self.edges.insert(
                key,
                EdgeInfo {
                    level: 0,
                    is_tree: true,
                },
            );
        }
        true
    }

    fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let key = EdgeKey::new(u, v);
        let Some(info) = self.edges.remove(&key) else {
            return false;
        };
        if !info.is_tree {
            self.levels[info.level].remove_nontree(u, v);
            return true;
        }
        // A tree edge of level ℓ is present in forests F_0 … F_ℓ.
        for i in 0..=info.level {
            self.levels[i].forest.cut(u, v);
        }
        self.replace(u, v, info.level);
        true
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.levels[0].forest.connected(u, v)
    }

    fn component_id(&mut self, u: VertexId) -> ComponentId {
        self.levels[0].forest.tree_id(u)
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

impl MemoryFootprint for HdtConnectivity {
    fn memory_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        total += dynscan_graph::footprint::hashmap_bytes(&self.edges);
        for level in &self.levels {
            total += level.forest.memory_bytes();
            total += level
                .nontree
                .iter()
                .map(dynscan_graph::footprint::hashset_bytes)
                .sum::<usize>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveConnectivity;
    use proptest::prelude::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn insert_connects_delete_splits() {
        let mut c = HdtConnectivity::new(4);
        assert!(!c.connected(v(0), v(1)));
        assert!(c.insert_edge(v(0), v(1)));
        assert!(!c.insert_edge(v(1), v(0)), "duplicate insert is a no-op");
        assert!(c.connected(v(0), v(1)));
        assert!(c.delete_edge(v(0), v(1)));
        assert!(!c.delete_edge(v(0), v(1)), "double delete is a no-op");
        assert!(!c.connected(v(0), v(1)));
    }

    #[test]
    fn cycle_survives_single_deletion() {
        let mut c = HdtConnectivity::new(5);
        for i in 0..5u32 {
            c.insert_edge(v(i), v((i + 1) % 5));
        }
        assert_eq!(c.num_edges(), 5);
        // Deleting any single edge of a cycle keeps it connected.
        assert!(c.delete_edge(v(0), v(1)));
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert!(
                    c.connected(v(i), v(j)),
                    "cycle minus one edge stays connected"
                );
            }
        }
        // Deleting a second edge splits it.
        assert!(c.delete_edge(v(2), v(3)));
        assert!(c.connected(v(1), v(2)));
        assert!(c.connected(v(3), v(4)));
        assert!(!c.connected(v(2), v(3)));
    }

    #[test]
    fn replacement_found_across_levels() {
        // Two parallel paths between 0 and 3 plus chords; delete tree edges
        // repeatedly to force replacement searches.
        let mut c = HdtConnectivity::new(8);
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 4),
            (4, 5),
            (5, 3),
            (1, 5),
            (2, 4),
        ];
        for (a, b) in edges {
            c.insert_edge(v(a), v(b));
        }
        // Remove edges one by one; connectivity must match what remains.
        c.delete_edge(v(1), v(2));
        assert!(c.connected(v(0), v(3)));
        c.delete_edge(v(4), v(5));
        assert!(c.connected(v(0), v(3)));
        c.delete_edge(v(1), v(5));
        assert!(c.connected(v(0), v(3)));
        c.delete_edge(v(2), v(4));
        // Remaining: 0-1, 2-3, 0-4, 5-3 — so 0,1,4 together; 2,3,5 together.
        assert!(!c.connected(v(0), v(3)));
        assert!(c.connected(v(0), v(4)));
        assert!(c.connected(v(2), v(5)));
    }

    #[test]
    fn component_ids_partition_vertices() {
        let mut c = HdtConnectivity::new(6);
        c.insert_edge(v(0), v(1));
        c.insert_edge(v(1), v(2));
        c.insert_edge(v(3), v(4));
        let id0 = c.component_id(v(0));
        assert_eq!(id0, c.component_id(v(1)));
        assert_eq!(id0, c.component_id(v(2)));
        let id3 = c.component_id(v(3));
        assert_eq!(id3, c.component_id(v(4)));
        assert_ne!(id0, id3);
        assert_ne!(c.component_id(v(5)), id0);
        assert_ne!(c.component_id(v(5)), id3);
        assert_eq!(c.component_size(v(0)), 3);
        assert_eq!(c.component_size(v(5)), 1);
    }

    #[test]
    fn vertex_space_grows_on_demand() {
        let mut c = HdtConnectivity::new(0);
        assert!(c.insert_edge(v(10), v(20)));
        assert!(c.connected(v(10), v(20)));
        assert!(c.num_vertices() >= 21);
        assert!(!c.connected(v(10), v(5)));
    }

    #[test]
    fn rebuild_from_edges_reproduces_connectivity() {
        // Build with history (inserts + deletes), then rebuild from the
        // surviving edge set: the component partition must be identical.
        let mut live = HdtConnectivity::with_seed(8, 42);
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (2, 3),
            (6, 7),
        ] {
            live.insert_edge(v(a), v(b));
        }
        live.delete_edge(v(2), v(3));
        live.delete_edge(v(4), v(5));
        let edges: Vec<EdgeKey> = [(0, 1), (1, 2), (2, 0), (3, 4), (5, 3), (6, 7)]
            .into_iter()
            .map(|(a, b)| EdgeKey::new(v(a), v(b)))
            .collect();
        let mut rebuilt = HdtConnectivity::rebuild_from_edges(8, 42, edges);
        assert_eq!(rebuilt.num_edges(), live.num_edges());
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                assert_eq!(
                    rebuilt.connected(v(a), v(b)),
                    live.connected(v(a), v(b)),
                    "pair ({a}, {b})"
                );
            }
        }
        // Rebuilding twice from the same edge set is fully deterministic,
        // down to component ids.
        let mut again = HdtConnectivity::rebuild_from_edges(8, 42, rebuilt_edges(&rebuilt));
        for a in 0..8u32 {
            assert_eq!(again.component_id(v(a)), rebuilt.component_id(v(a)));
        }
    }

    fn rebuilt_edges(c: &HdtConnectivity) -> Vec<EdgeKey> {
        c.edges.keys().copied().collect()
    }

    #[test]
    fn dense_graph_random_deletions_stay_consistent() {
        // A 6-clique: delete edges in a fixed order and compare with the
        // naive recomputation at every step.
        let n = 6u32;
        let mut hdt = HdtConnectivity::new(n as usize);
        let mut naive = NaiveConnectivity::new(n as usize);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
                hdt.insert_edge(v(a), v(b));
                naive.insert_edge(v(a), v(b));
            }
        }
        for (a, b) in edges {
            hdt.delete_edge(v(a), v(b));
            naive.delete_edge(v(a), v(b));
            for x in 0..n {
                for y in (x + 1)..n {
                    assert_eq!(
                        hdt.connected(v(x), v(y)),
                        naive.connected(v(x), v(y)),
                        "mismatch after deleting ({a},{b}) for pair ({x},{y})"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Arbitrary interleavings of insertions and deletions agree with
        /// the naive (recompute-from-scratch) connectivity structure.
        #[test]
        fn matches_naive_connectivity(
            ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 1..300)
        ) {
            let mut hdt = HdtConnectivity::new(14);
            let mut naive = NaiveConnectivity::new(14);
            for (insert, a, b) in ops {
                if a == b { continue; }
                if insert {
                    prop_assert_eq!(hdt.insert_edge(v(a), v(b)), naive.insert_edge(v(a), v(b)));
                } else {
                    prop_assert_eq!(hdt.delete_edge(v(a), v(b)), naive.delete_edge(v(a), v(b)));
                }
            }
            prop_assert_eq!(hdt.num_edges(), naive.num_edges());
            for a in 0u32..14 {
                for b in (a + 1)..14 {
                    prop_assert_eq!(
                        hdt.connected(v(a), v(b)),
                        naive.connected(v(a), v(b)),
                        "connectivity mismatch for ({}, {})", a, b
                    );
                }
            }
            // Component ids induce the same partition as connectivity.
            for a in 0u32..14 {
                for b in (a + 1)..14 {
                    let same_id = hdt.component_id(v(a)) == hdt.component_id(v(b));
                    prop_assert_eq!(same_id, naive.connected(v(a), v(b)));
                }
            }
        }
    }
}
