//! Snapshot-epoch concurrent reads: immutable published label epochs.
//!
//! [`Session`](crate::Session) keeps a label-epoch query cache — the
//! "effective change" clock that lets repeated clustering / group-by
//! queries skip recomputation.  This module lifts that cache into a
//! **shared immutable** [`EpochSnapshot`] behind an [`EpochCell`], so
//! that read-side consumers (the serve layer's `GroupBy` / `ClusterOf`
//! handlers on a primary or a replica, benches) can answer queries
//! **without taking the engine lock** while the writer applies the next
//! batch — the read-side discipline of snapshot-isolation systems.
//!
//! ## Cost of a version
//!
//! Each published clustering is an immutable version that shares every
//! copy-on-write chunk the write did not touch with the version before
//! it (see [`crate::cluster`]).  Publication patches the previous
//! version from the write's flipped edges, so the engine lock is held
//! for O(volume of the rebuilt clusters) plus n / 64 chunk-pointer
//! copies, not for an O(n + m) re-extraction; only the large flip sets
//! of bulk loads fall back to extraction.  Reads go through the keyed
//! accessors and never build the clustering's dense view, so
//! [`EpochSnapshot::group_by`] is O(|Q| log |Q|) and
//! [`EpochSnapshot::clusters_of`] is O(size of the answer).
//!
//! ## Consistency model
//!
//! * **Epoch-atomic:** a reader sees one fully-published snapshot or
//!   none; never a torn mix of two epochs.  The cell swaps a whole
//!   `Arc<EpochSnapshot>` under a mutex whose critical section is a
//!   pointer clone — O(1), never held while computing or serving.
//! * **Bounded-stale:** the writer publishes at the end of every
//!   mutation (under the engine lock, before the write is acknowledged),
//!   so a snapshot lags the live engine by at most the one in-flight
//!   batch.  A reader that observed an acknowledgement for update epoch
//!   `e` will find `snapshot.updates_applied >= e` on its next load —
//!   publication happens-before the acknowledgement.
//! * **Stats staleness contract:** every scalar in a snapshot —
//!   counts, checkpoint counters, [`ElmStats`] work counters — is
//!   **epoch-atomic as of `updates_applied`**: all fields were read
//!   from the engine under the same publication and describe the same
//!   epoch, so a stats reply assembled from one snapshot can never mix
//!   two epochs, no matter how the reader interleaves with the writer.
//! * **Readers never block the writer:** readers take the cell mutex
//!   only for the Arc clone; they never touch the engine lock.  Both
//!   properties are model-checked under `vendor/interleave`
//!   (`crates/check/tests/model_epoch.rs`).
//!
//! All synchronisation goes through [`crate::sync`] (enforced by
//! `dynscan-lint`'s `facade-sync` rule), so the model checker can drive
//! every interleaving of publisher and readers.  No `unsafe`, no
//! hand-rolled atomics: an `ArcSwap`-style lock-free pointer would need
//! exactly the reclamation reasoning the Rudra classes warn about, and
//! the O(1) mutex is invisible next to a graph mutation.

use crate::cluster::{group_by_from_clustering, StrCluResult};
use crate::elm::ElmStats;

use crate::sync::{Arc, Mutex};
use dynscan_graph::VertexId;

/// One fully-published label epoch: everything the read side needs to
/// answer clustering queries, immutable by construction.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    /// The session's label epoch this snapshot materialises (advances
    /// only on effective change: net flips or vertex growth).
    pub label_epoch: u64,
    /// Updates applied when the snapshot was published — the
    /// acknowledgement epoch the serve layer hands to clients, the
    /// floor for read-your-writes checks, and the **as-of point of the
    /// staleness contract**: every other field in this struct describes
    /// the engine exactly as of this epoch (never a mix of two).
    pub updates_applied: u64,
    /// The backend's algorithm name (static per session; carried so a
    /// `Stats` reply can be assembled entirely from one snapshot).
    pub algorithm: &'static str,
    /// Vertex count at publication.
    pub num_vertices: u64,
    /// Edge count at publication.
    pub num_edges: u64,
    /// Store sequence of the last completed checkpoint, if any (may lag
    /// an in-flight background checkpoint by design).
    pub checkpoint_seq: Option<u64>,
    /// Checkpoints the session had completed at publication.
    pub checkpoints_written: u64,
    /// The clustering this epoch serves queries from: an immutable
    /// version that shares its untouched chunks with earlier epochs.
    pub clustering: Arc<StrCluResult>,
    /// Labelling work counters, if the backend keeps them.
    pub stats: Option<ElmStats>,
}

impl EpochSnapshot {
    /// Cluster-group-by over `q` (Definition 3.2), canonical form —
    /// identical to [`crate::traits::Clusterer::cluster_group_by`] on
    /// the backend this snapshot was extracted from (the cross-backend
    /// equivalence the clustering layer pins).
    pub fn group_by(&self, q: &[VertexId]) -> Vec<Vec<VertexId>> {
        group_by_from_clustering(&self.clustering, q)
    }

    /// The clusters containing `v`, as whole member lists in
    /// smallest-core order (the serve layer's `ClusterOf` shape).
    pub fn clusters_of(&self, v: VertexId) -> Vec<Vec<VertexId>> {
        self.clustering
            .clusters_containing(v)
            .map(<[VertexId]>::to_vec)
            .collect()
    }
}

/// The publication cell: one writer swaps snapshots in, any number of
/// readers clone the current one out.  See the [module docs](self) for
/// the consistency model.
#[derive(Debug, Default)]
pub struct EpochCell {
    current: Mutex<Option<Arc<EpochSnapshot>>>,
}

impl EpochCell {
    /// An empty cell (no epoch published yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `snapshot`, replacing the current epoch.  O(1): one
    /// pointer store under the cell mutex.
    pub fn store(&self, snapshot: Arc<EpochSnapshot>) {
        let mut cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        *cur = Some(snapshot);
    }

    /// The current epoch, if one was published.  O(1): one Arc clone
    /// under the cell mutex, never blocking on (or blocked by) the
    /// engine lock.
    pub fn load(&self) -> Option<Arc<EpochSnapshot>> {
        self.current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// A cloneable read handle onto a publisher's epochs (obtained from
/// [`Session::enable_epoch_reads`](crate::Session::enable_epoch_reads),
/// or made over any other publisher's [`EpochCell`]).  Cheap to clone
/// and `Send`: hand one to every reader thread.
#[derive(Clone, Debug)]
pub struct EpochReadHandle {
    cell: Arc<EpochCell>,
}

impl EpochReadHandle {
    /// A read handle onto `cell`.
    pub fn new(cell: Arc<EpochCell>) -> Self {
        EpochReadHandle { cell }
    }

    /// The most recently published epoch (`None` only before the first
    /// publication, which `enable_epoch_reads` performs eagerly).
    pub fn load(&self) -> Option<Arc<EpochSnapshot>> {
        self.cell.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64) -> Arc<EpochSnapshot> {
        Arc::new(EpochSnapshot {
            label_epoch: epoch,
            updates_applied: epoch,
            algorithm: "test",
            num_vertices: 0,
            num_edges: 0,
            checkpoint_seq: None,
            checkpoints_written: 0,
            clustering: Arc::new(StrCluResult::default()),
            stats: None,
        })
    }

    #[test]
    fn cell_starts_empty_and_serves_latest() {
        let cell = EpochCell::new();
        assert!(cell.load().is_none());
        cell.store(snap(1));
        cell.store(snap(2));
        let got = cell.load().expect("published");
        assert_eq!(got.label_epoch, 2);
        // Loads are non-destructive.
        assert_eq!(cell.load().expect("still there").label_epoch, 2);
    }

    #[test]
    fn handle_shares_the_cell() {
        let cell = Arc::new(EpochCell::new());
        let handle = EpochReadHandle::new(Arc::clone(&cell));
        let second = handle.clone();
        cell.store(snap(7));
        assert_eq!(handle.load().expect("visible").updates_applied, 7);
        assert_eq!(second.load().expect("visible").updates_applied, 7);
    }
}
