//! Read-only neighbourhood access, abstracted over its backing store.
//!
//! The similarity estimator (Section 4 of the paper) needs exactly four
//! primitives about a vertex neighbourhood: its size, positional access
//! (for O(1) uniform sampling), closed-neighbourhood membership, and the
//! exact closed intersection for the low-degree shortcut.  [`NeighbourhoodView`]
//! captures those, so the estimation code can run against the live
//! [`DynGraph`] (the batch engine's path) or an immutable [`CsrGraph`]
//! snapshot, with one sampling contract for both.

use crate::csr::CsrGraph;
use crate::dynamic_graph::DynGraph;
use crate::vertex::VertexId;
use rand::Rng;

/// Read-only view of vertex neighbourhoods; see the [module docs](self).
///
/// Implementations must agree on the sampling contract: a uniform draw
/// from the closed neighbourhood `N[v]` consumes exactly one
/// `gen_range(0..=degree(v))` from the RNG and resolves positionally over
/// the adjacency slots, so two views exposing the same slot order produce
/// the same samples from the same RNG state.
pub trait NeighbourhoodView {
    /// Degree of `v` (open neighbourhood size).
    fn degree(&self, v: VertexId) -> usize;

    /// The neighbour stored at adjacency slot `i` of `v`.
    fn neighbour_at(&self, v: VertexId, i: usize) -> Option<VertexId>;

    /// Whether the edge `(u, v)` is present.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;

    /// Size of the closed neighbourhood `|N[v]| = degree(v) + 1`.
    #[inline]
    fn closed_degree(&self, v: VertexId) -> usize {
        self.degree(v) + 1
    }

    /// Whether `w ∈ N[v]`, i.e. `w == v` or `(w, v)` is an edge.
    #[inline]
    fn in_closed_neighbourhood(&self, w: VertexId, v: VertexId) -> bool {
        w == v || self.has_edge(w, v)
    }

    /// Draw a uniform member of the closed neighbourhood `N[v]` (`v`
    /// itself with probability `1 / (degree(v) + 1)`).
    fn sample_closed_neighbourhood<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId
    where
        Self: Sized,
    {
        let d = self.degree(v);
        let i = rng.gen_range(0..=d);
        if i == d {
            v
        } else {
            self.neighbour_at(v, i).expect("index within degree")
        }
    }

    /// `a = |N[u] ∩ N[v]|`, by scanning the smaller neighbourhood and
    /// probing the larger (ties break towards `u`, matching
    /// [`DynGraph::closed_intersection_size`]).
    ///
    /// This default is the scalar reference; implementations backed by
    /// [`IndexedSet`](crate::IndexedSet)s or sorted slices override it with
    /// [`crate::kernel`]'s adaptive paths, which return the same exact
    /// count (pinned by the kernel's differential proptests).
    fn closed_intersection_size(&self, u: VertexId, v: VertexId) -> usize {
        let (small, large) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let mut count = 0usize;
        for i in 0..self.degree(small) {
            let w = self.neighbour_at(small, i).expect("index within degree");
            if self.in_closed_neighbourhood(w, large) {
                count += 1;
            }
        }
        if self.in_closed_neighbourhood(small, large) {
            count += 1;
        }
        count
    }

    /// `b = |N[u] ∪ N[v]| = |N[u]| + |N[v]| − a`.
    fn closed_union_size(&self, u: VertexId, v: VertexId) -> usize {
        self.closed_degree(u) + self.closed_degree(v) - self.closed_intersection_size(u, v)
    }
}

impl NeighbourhoodView for DynGraph {
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        DynGraph::degree(self, v)
    }

    #[inline]
    fn neighbour_at(&self, v: VertexId, i: usize) -> Option<VertexId> {
        DynGraph::neighbour_at(self, v, i)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        DynGraph::has_edge(self, u, v)
    }

    #[inline]
    fn closed_intersection_size(&self, u: VertexId, v: VertexId) -> usize {
        DynGraph::closed_intersection_size(self, u, v)
    }
}

/// The CSR snapshot as a [`NeighbourhoodView`]: slot order is the sorted
/// neighbour order, so the kernel's merge/gallop paths apply directly.
impl NeighbourhoodView for CsrGraph {
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbour_at(&self, v: VertexId, i: usize) -> Option<VertexId> {
        self.neighbours(v).get(i).copied()
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    #[inline]
    fn closed_intersection_size(&self, u: VertexId, v: VertexId) -> usize {
        CsrGraph::closed_intersection_size(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn fixture() -> DynGraph {
        let (mut g, _) = DynGraph::from_edges(vec![
            (v(0), v(1)),
            (v(0), v(2)),
            (v(0), v(3)),
            (v(1), v(2)),
            (v(2), v(3)),
            (v(3), v(4)),
        ]);
        // Perturb slot order away from insertion order.
        g.delete_edge(v(0), v(2)).unwrap();
        g.insert_edge(v(0), v(2)).unwrap();
        g
    }

    #[test]
    fn trait_view_matches_inherent_graph_queries() {
        let g = fixture();
        for a in 0..5u32 {
            assert_eq!(NeighbourhoodView::degree(&g, v(a)), g.degree(v(a)));
            for b in 0..5u32 {
                assert_eq!(
                    NeighbourhoodView::has_edge(&g, v(a), v(b)),
                    g.has_edge(v(a), v(b))
                );
                assert_eq!(
                    NeighbourhoodView::closed_intersection_size(&g, v(a), v(b)),
                    g.closed_intersection_size(v(a), v(b))
                );
                assert_eq!(
                    NeighbourhoodView::closed_union_size(&g, v(a), v(b)),
                    g.closed_union_size(v(a), v(b))
                );
            }
        }
    }
}
