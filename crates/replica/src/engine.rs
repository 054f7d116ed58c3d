//! The replayed state a replica serves reads from: an erased engine
//! rebuilt from the primary's checkpoint documents, plus the replication
//! position that every query reply is tagged with.

use dynscan_core::sync::Arc;
use dynscan_core::{restore_any, Clusterer, SnapshotError, SnapshotKind, StrCluResult};

/// A replica's engine and replication bookkeeping.  Not synchronised
/// itself — the serving layer holds it behind a mutex; this type only
/// guarantees that *whatever* state it holds is a state some prefix of
/// the primary's checkpoint chain produces, byte-for-byte.
#[derive(Default)]
pub struct ReplicaState {
    /// The replayed engine; `None` until the first full snapshot lands.
    engine: Option<Box<dyn Clusterer>>,
    /// Sequence number of the last applied document.
    applied_seq: Option<u64>,
    /// Documents applied over this replica's lifetime.
    docs_applied: u64,
    /// Full resyncs performed (initial sync included).
    full_resyncs: u64,
    /// Whether the ingest source has reported catch-up at least once.
    caught_up: bool,
    /// The applied state's clustering, extracted by the first read that
    /// needs it and shared by every read until the next applied
    /// document.
    clustering: Option<Arc<StrCluResult>>,
}

/// Why a document could not be applied.
#[derive(Debug)]
pub enum ApplyError {
    /// A delta arrived with no engine to apply it to, or its sequence
    /// number does not extend the applied chain — the ingest loop must
    /// resync from a full snapshot.
    NeedResync,
    /// The document itself failed to decode or apply.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::NeedResync => write!(f, "document does not extend the replica's chain"),
            ApplyError::Snapshot(e) => write!(f, "document failed to apply: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<SnapshotError> for ApplyError {
    fn from(e: SnapshotError) -> Self {
        ApplyError::Snapshot(e)
    }
}

impl ReplicaState {
    /// An empty replica (no engine, no position).
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one checkpoint document.  A full snapshot replaces the
    /// engine wholesale (that is what makes pruning-forced resyncs and
    /// primary chain restarts safe); a delta must extend the current
    /// engine and chain position exactly.  Documents at or below the
    /// applied position are skipped (`Ok` — the subscribe path can see
    /// a backlog/live overlap).
    pub fn apply_doc(
        &mut self,
        seq: u64,
        kind: SnapshotKind,
        bytes: &[u8],
    ) -> Result<(), ApplyError> {
        if self.applied_seq.is_some_and(|applied| seq <= applied) {
            return Ok(());
        }
        self.clustering = None;
        match kind {
            SnapshotKind::Full => {
                self.engine = Some(restore_any(bytes)?);
                self.full_resyncs += u64::from(self.applied_seq.is_none_or(|a| seq != a + 1));
            }
            SnapshotKind::Delta => {
                let extends = self.applied_seq.is_some_and(|applied| seq == applied + 1);
                let Some(engine) = self.engine.as_mut().filter(|_| extends) else {
                    return Err(ApplyError::NeedResync);
                };
                engine.apply_delta_bytes(bytes)?;
            }
        }
        self.applied_seq = Some(seq);
        self.docs_applied += 1;
        Ok(())
    }

    /// The sequence number of the last applied document.
    pub fn applied_seq(&self) -> Option<u64> {
        self.applied_seq
    }

    /// The replica's epoch: updates covered by the applied prefix.
    pub fn epoch(&self) -> u64 {
        self.engine.as_ref().map_or(0, |e| e.updates_applied())
    }

    /// Documents applied over this replica's lifetime.
    pub fn docs_applied(&self) -> u64 {
        self.docs_applied
    }

    /// Full resyncs performed (initial sync included).
    pub fn full_resyncs(&self) -> u64 {
        self.full_resyncs
    }

    /// Whether the ingest source has reported catch-up at least once.
    pub fn is_caught_up(&self) -> bool {
        self.caught_up
    }

    /// Record that the ingest source reported catch-up.
    pub fn note_caught_up(&mut self) {
        self.caught_up = true;
    }

    /// Drop the engine and position: the next applied document must be a
    /// full snapshot.  Called by the ingest loops when the source
    /// reports a chain gap.
    pub fn reset_for_resync(&mut self) {
        self.engine = None;
        self.applied_seq = None;
        self.clustering = None;
    }

    /// The clustering of the applied state: one O(n + m) extraction per
    /// applied document, shared by every read at that epoch; `None`
    /// until the first full snapshot.
    pub fn clustering(&mut self) -> Option<Arc<StrCluResult>> {
        let engine = self.engine.as_ref()?;
        let clustering = self
            .clustering
            .get_or_insert_with(|| Arc::new(engine.current_clustering()));
        Some(Arc::clone(clustering))
    }

    /// Borrow the replayed engine mutably (queries need `&mut` for the
    /// engine's internal caches); `None` until the first full snapshot.
    pub fn engine_mut(&mut self) -> Option<&mut (dyn Clusterer + '_)> {
        self.engine.as_mut().map(|e| &mut **e as _)
    }

    /// Borrow the replayed engine; `None` until the first full snapshot.
    pub fn engine(&self) -> Option<&(dyn Clusterer + '_)> {
        self.engine.as_ref().map(|e| &**e as _)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynscan_core::{Backend, GraphUpdate, Params, Session, VertexId};

    fn primary_docs(k: usize) -> Vec<(u64, SnapshotKind, Vec<u8>)> {
        dynscan_baseline::install();
        let mem = dynscan_core::MemCheckpointStore::new();
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(Params::jaccard(0.5, 2))
            .checkpoint_every(2)
            .full_every(4)
            .checkpoint_store(mem.clone())
            .build()
            .unwrap();
        for i in 0..k as u32 {
            session
                .apply(GraphUpdate::Insert(VertexId(i), VertexId(i + 1)))
                .unwrap();
        }
        mem.documents()
    }

    #[test]
    fn replays_a_chain_and_tracks_position() {
        let docs = primary_docs(10);
        assert!(docs.len() >= 3);
        let mut replica = ReplicaState::new();
        assert_eq!(replica.epoch(), 0);
        for (seq, kind, bytes) in &docs {
            replica.apply_doc(*seq, *kind, bytes).unwrap();
        }
        assert_eq!(replica.applied_seq(), Some(docs.last().unwrap().0));
        assert_eq!(replica.docs_applied(), docs.len() as u64);
        assert!(replica.epoch() > 0);
        // Re-applying an old document is a harmless no-op.
        let (seq, kind, bytes) = &docs[0];
        replica.apply_doc(*seq, *kind, bytes).unwrap();
        assert_eq!(replica.docs_applied(), docs.len() as u64);
    }

    #[test]
    fn reads_at_one_epoch_share_one_extraction() {
        let docs = primary_docs(10);
        let mut replica = ReplicaState::new();
        assert!(replica.clustering().is_none());
        let (seq, kind, bytes) = &docs[0];
        replica.apply_doc(*seq, *kind, bytes).unwrap();
        let first = replica.clustering().expect("a full snapshot landed");
        let second = replica.clustering().expect("still there");
        assert!(Arc::ptr_eq(&first, &second), "one extraction per epoch");
        for (seq, kind, bytes) in &docs[1..] {
            replica.apply_doc(*seq, *kind, bytes).unwrap();
        }
        let after = replica.clustering().expect("engine present");
        assert!(!Arc::ptr_eq(&first, &after));
        assert_ne!(*first, *after, "the path grew between the two epochs");
        let engine = replica.engine().expect("engine present");
        assert_eq!(*after, engine.current_clustering());
        replica.reset_for_resync();
        assert!(replica.clustering().is_none());
    }

    #[test]
    fn delta_without_base_demands_resync() {
        let docs = primary_docs(10);
        let (seq, kind, bytes) = docs
            .iter()
            .find(|(_, kind, _)| *kind == SnapshotKind::Delta)
            .expect("cadence produces deltas");
        let mut replica = ReplicaState::new();
        assert!(matches!(
            replica.apply_doc(*seq, *kind, bytes),
            Err(ApplyError::NeedResync)
        ));
        // A non-contiguous delta after a valid base also demands resync.
        let (fseq, fkind, fbytes) = &docs[0];
        replica.apply_doc(*fseq, *fkind, fbytes).unwrap();
        let gap_seq = fseq + 2;
        if let Some((seq, kind, bytes)) = docs
            .iter()
            .find(|(s, k, _)| *s == gap_seq && *k == SnapshotKind::Delta)
        {
            assert!(matches!(
                replica.apply_doc(*seq, *kind, bytes),
                Err(ApplyError::NeedResync)
            ));
        }
        replica.reset_for_resync();
        assert_eq!(replica.applied_seq(), None);
    }
}
