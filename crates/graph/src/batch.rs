//! Batch application of graph updates.
//!
//! The batch update engine (see `dynscan-core`) applies a whole burst of
//! updates to the topology first and defers all similarity work to the end
//! of the batch.  This module provides the same batch-application
//! semantics for **graph-only consumers** — applying a `&[GraphUpdate]`
//! slice in stream order, tolerating the invalid updates real streams
//! contain (duplicate insertions, deletions of absent edges), and
//! reporting the deduplicated touched-vertex set.  Note that the engine in
//! `dynscan-core` implements its own fused phase-1 loop (it needs
//! per-update label and DT hooks between topology steps), so changes here
//! affect standalone graph users and tests, not the engine's hot path;
//! the two must simply agree on the semantics documented on
//! [`DynGraph::apply_batch`].

use crate::dynamic_graph::DynGraph;
use crate::error::GraphError;
use crate::footprint::MemoryFootprint;
use crate::update::GraphUpdate;
use crate::vertex::VertexId;

/// Summary of one batch applied to a [`DynGraph`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchApplication {
    /// Updates applied successfully, in stream order.
    pub applied: usize,
    /// Updates skipped as invalid (duplicate insert, missing delete,
    /// self-loop).
    pub rejected: usize,
    /// Distinct endpoints of the applied updates, sorted ascending.
    pub touched: Vec<VertexId>,
}

impl BatchApplication {
    /// Total number of updates examined.
    pub fn total(&self) -> usize {
        self.applied + self.rejected
    }
}

impl MemoryFootprint for BatchApplication {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + crate::footprint::vec_bytes(&self.touched)
    }
}

/// The distinct endpoints mentioned by a slice of updates, sorted
/// ascending.  Deduplicating here is what turns per-update per-vertex work
/// (DT drains, auxiliary refreshes) into per-batch work.
pub fn touched_vertices(updates: &[GraphUpdate]) -> Vec<VertexId> {
    let mut touched: Vec<VertexId> = Vec::with_capacity(2 * updates.len());
    for update in updates {
        let (u, v) = update.endpoints();
        touched.push(u);
        touched.push(v);
    }
    touched.sort_unstable();
    touched.dedup();
    touched
}

impl DynGraph {
    /// Apply one update, dispatching on its kind.
    ///
    /// Named to match `dynscan_core`'s `Clusterer::try_apply`:
    /// every typed single-update entry point in the workspace is a
    /// `try_apply` returning the rejection cause.
    pub fn try_apply(&mut self, update: GraphUpdate) -> Result<(), GraphError> {
        match update {
            GraphUpdate::Insert(u, v) => self.insert_edge(u, v),
            GraphUpdate::Delete(u, v) => self.delete_edge(u, v),
        }
    }

    /// Apply a batch of updates in stream order, skipping invalid ones.
    ///
    /// The final topology is identical to applying the batch one update at
    /// a time — batching changes *when* derived state is recomputed, never
    /// what the graph looks like.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> BatchApplication {
        let mut summary = BatchApplication::default();
        let mut touched: Vec<VertexId> = Vec::with_capacity(2 * updates.len());
        for &update in updates {
            match self.try_apply(update) {
                Ok(()) => {
                    summary.applied += 1;
                    let (u, v) = update.endpoints();
                    touched.push(u);
                    touched.push(v);
                }
                Err(_) => summary.rejected += 1,
            }
        }
        touched.sort_unstable();
        touched.dedup();
        summary.touched = touched;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn batch_apply_matches_sequential_apply() {
        let updates = vec![
            GraphUpdate::Insert(v(0), v(1)),
            GraphUpdate::Insert(v(1), v(2)),
            GraphUpdate::Insert(v(0), v(1)), // duplicate → rejected
            GraphUpdate::Delete(v(0), v(1)),
            GraphUpdate::Delete(v(0), v(1)), // missing → rejected
            GraphUpdate::Insert(v(2), v(3)),
            GraphUpdate::Insert(v(3), v(3)), // self-loop → rejected
        ];
        let mut batched = DynGraph::new();
        let summary = batched.apply_batch(&updates);
        assert_eq!(summary.applied, 4);
        assert_eq!(summary.rejected, 3);
        assert_eq!(summary.total(), 7);
        assert_eq!(summary.touched, vec![v(0), v(1), v(2), v(3)]);

        let mut sequential = DynGraph::new();
        for &u in &updates {
            let _ = sequential.try_apply(u);
        }
        assert_eq!(batched.num_edges(), sequential.num_edges());
        for e in sequential.edges() {
            assert!(batched.has_edge(e.lo(), e.hi()));
        }
    }

    #[test]
    fn touched_vertices_dedupes_and_sorts() {
        let updates = vec![
            GraphUpdate::Insert(v(5), v(1)),
            GraphUpdate::Delete(v(1), v(5)),
            GraphUpdate::Insert(v(0), v(5)),
        ];
        assert_eq!(touched_vertices(&updates), vec![v(0), v(1), v(5)]);
        assert!(touched_vertices(&[]).is_empty());
    }

    #[test]
    fn footprint_counts_touched_buffer() {
        let mut small = BatchApplication::default();
        let base = small.memory_bytes();
        small.touched = (0..100u32).map(v).collect();
        assert!(small.memory_bytes() > base);
    }
}
