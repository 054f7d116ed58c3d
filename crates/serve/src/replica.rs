//! Replica mode: the replayed state a replica serves reads from, and the
//! ingest loops that keep it converging on the primary's chain.
//!
//! [`ReplicaState`] is an erased engine rebuilt from the primary's
//! checkpoint documents, plus the replication position every reply is
//! tagged with.  Each applied document (and each resync reset) publishes
//! one [`EpochSnapshot`] of it, so the server answers reads from that
//! snapshot exactly as it does on a primary, without the state lock.
//!
//! Documents reach the state by tailing a shared [`CheckpointStore`]
//! directory ([`tail_loop`]) or by subscribing to the primary's
//! replication stream over TCP ([`subscribe_loop`]).  Both loops share
//! one recovery discipline: any gap — a pruned tail position, a delta
//! that does not extend the applied chain, a lagged or broken stream —
//! resets the replica and resyncs from the newest full snapshot.
//! Progress is therefore monotone: the replica's state is always the
//! replay of *some* prefix of a primary chain, never a splice of two.

use crate::conn::{read_frame_polling, FrameRead};
use crate::drain::DrainFlag;
use crate::proto::{Request, RequestBody, Response, ResponseBody};
use dynscan_core::sync::{thread, Arc, Mutex};
use dynscan_core::{
    restore_any, CheckpointStore, Clusterer, DirCheckpointStore, EpochCell, EpochReadHandle,
    EpochSnapshot, SnapshotError, SnapshotKind, TailError,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where a replica's documents come from.
#[derive(Clone, Debug)]
pub enum ReplicaSource {
    /// Tail a checkpoint directory shared with the primary.
    Tail {
        /// The primary's checkpoint directory.
        dir: PathBuf,
        /// How often to poll for new documents.
        poll_interval: Duration,
    },
    /// Subscribe to the primary's replication stream over TCP.
    Subscribe {
        /// The primary's `host:port`.
        primary_addr: String,
        /// Mirror every applied document into this directory, producing
        /// an on-disk chain a primary can later resume from (promotion).
        mirror_dir: Option<PathBuf>,
    },
}

/// The algorithm a replica reports before its first full snapshot.
const NO_SNAPSHOT: &str = "(replica, no snapshot yet)";

/// A replica's engine and replication bookkeeping.  Not synchronised
/// itself — the server holds it behind a mutex that only the ingest
/// thread and checksummed `Stats` take; this type only guarantees that
/// *whatever* state it holds is a state some prefix of the primary's
/// checkpoint chain produces, byte-for-byte.
pub(crate) struct ReplicaState {
    /// The replayed engine; `None` until the first full snapshot lands.
    engine: Option<Box<dyn Clusterer>>,
    /// Sequence number of the last applied document.
    applied_seq: Option<u64>,
    /// Documents applied over this replica's lifetime.
    docs_applied: u64,
    /// Where every applied document publishes the replica's read view.
    published: Arc<EpochCell>,
}

/// Why a document could not be applied.
#[derive(Debug)]
pub(crate) enum ApplyError {
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
    /// An empty replica (no engine, no position), its empty epoch
    /// already published.
    pub(crate) fn new() -> Self {
        let state = ReplicaState {
            engine: None,
            applied_seq: None,
            docs_applied: 0,
            published: Arc::new(EpochCell::new()),
        };
        state.publish();
        state
    }

    /// A read handle onto the epochs this state publishes.
    pub(crate) fn epoch_reads(&self) -> EpochReadHandle {
        EpochReadHandle::new(Arc::clone(&self.published))
    }

    /// Apply one checkpoint document.  A full snapshot replaces the
    /// engine wholesale (that is what makes pruning-forced resyncs and
    /// primary chain restarts safe); a delta must extend the current
    /// engine and chain position exactly.  Documents at or below the
    /// applied position are skipped (`Ok` — the subscribe path can see
    /// a backlog/live overlap).  An applied document publishes a new
    /// epoch.
    pub(crate) fn apply_doc(
        &mut self,
        seq: u64,
        kind: SnapshotKind,
        bytes: &[u8],
    ) -> Result<(), ApplyError> {
        if self.applied_seq.is_some_and(|applied| seq <= applied) {
            return Ok(());
        }
        match kind {
            SnapshotKind::Full => {
                self.engine = Some(restore_any(bytes)?);
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
        self.publish();
        Ok(())
    }

    /// The sequence number of the last applied document.
    pub(crate) fn applied_seq(&self) -> Option<u64> {
        self.applied_seq
    }

    /// The replica's epoch: updates covered by the applied prefix.
    pub(crate) fn epoch(&self) -> u64 {
        self.engine.as_ref().map_or(0, |e| e.updates_applied())
    }

    /// Drop the engine and position and publish the empty epoch: the
    /// next applied document must be a full snapshot.  Called by the
    /// ingest loops when the source reports a chain gap.
    pub(crate) fn reset_for_resync(&mut self) {
        self.engine = None;
        self.applied_seq = None;
        self.publish();
    }

    /// Borrow the replayed engine; `None` until the first full snapshot.
    pub(crate) fn engine(&self) -> Option<&(dyn Clusterer + '_)> {
        self.engine.as_ref().map(|e| &**e as _)
    }

    /// Publish the applied state as the replica's read view.  The one
    /// O(n + m) extraction per applied document runs here, in the ingest
    /// thread, so no reader ever waits for it; without an engine this is
    /// the empty epoch (epoch 0, no checkpoint sequence, no clusters).
    fn publish(&self) {
        let engine = self.engine();
        self.published.store(Arc::new(EpochSnapshot {
            // A replica has no label clock of its own; its epochs are
            // counted by applied documents.
            label_epoch: self.docs_applied,
            updates_applied: self.epoch(),
            algorithm: engine.map_or(NO_SNAPSHOT, |e| e.algorithm_name()),
            num_vertices: engine.map_or(0, |e| e.num_vertices() as u64),
            num_edges: engine.map_or(0, |e| e.num_edges() as u64),
            checkpoint_seq: self.applied_seq,
            checkpoints_written: self.docs_applied,
            clustering: Arc::new(engine.map(|e| e.current_clustering()).unwrap_or_default()),
            stats: engine.and_then(|e| e.elm_stats()),
        }));
    }
}

/// Read-timeout granularity on the subscribe socket; bounds how long a
/// stop request waits on an idle stream.
const STREAM_READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Backoff between reconnect attempts after the stream drops.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// Feed `state` from `source` until `stop` trips.
pub(crate) fn ingest(source: ReplicaSource, state: Arc<Mutex<ReplicaState>>, stop: DrainFlag) {
    match source {
        ReplicaSource::Tail { dir, poll_interval } => {
            tail_loop(DirCheckpointStore::new(dir), state, stop, poll_interval)
        }
        ReplicaSource::Subscribe {
            primary_addr,
            mirror_dir,
        } => subscribe_loop(primary_addr, state, stop, mirror_dir),
    }
}

fn locked(state: &Arc<Mutex<ReplicaState>>) -> dynscan_core::sync::MutexGuard<'_, ReplicaState> {
    state.lock().unwrap_or_else(|p| p.into_inner())
}

/// Apply one shipped/polled document, translating "does not extend the
/// chain" into a reset so the caller can resync.  Returns whether the
/// caller must resync from a full snapshot.
fn apply_or_reset(
    state: &Arc<Mutex<ReplicaState>>,
    seq: u64,
    kind: SnapshotKind,
    bytes: &[u8],
) -> bool {
    let mut guard = locked(state);
    match guard.apply_doc(seq, kind, bytes) {
        Ok(()) => false,
        Err(ApplyError::NeedResync) | Err(ApplyError::Snapshot(_)) => {
            guard.reset_for_resync();
            true
        }
    }
}

/// Tail a checkpoint directory shared with the primary (same host or
/// shared filesystem), applying new documents as they appear.  Runs
/// until `stop` trips.  Retention pruning racing the tail surfaces as
/// [`TailError::ChainGap`] and triggers a full resync.
fn tail_loop(
    store: DirCheckpointStore,
    state: Arc<Mutex<ReplicaState>>,
    stop: DrainFlag,
    poll_interval: Duration,
) {
    while !stop.is_tripped() {
        let after = locked(&state).applied_seq();
        match store.poll_since(after) {
            Ok(docs) => {
                for doc in &docs {
                    if apply_or_reset(&state, doc.seq, doc.kind, &doc.bytes) {
                        break;
                    }
                }
            }
            Err(TailError::ChainGap { .. }) => {
                locked(&state).reset_for_resync();
                continue; // resync immediately, no sleep
            }
            Err(TailError::Io(_)) | Err(TailError::Unsupported) => {}
        }
        thread::sleep(poll_interval);
    }
}

/// Subscribe to `primary_addr`'s replication stream, applying every
/// shipped document; reconnects with backoff until `stop` trips.  When
/// `mirror` is given, every applied document is also written into that
/// directory — producing an on-disk chain byte-identical to the
/// primary's, which a primary [`crate::Server`] can later resume from
/// (replica promotion).
fn subscribe_loop(
    primary_addr: String,
    state: Arc<Mutex<ReplicaState>>,
    stop: DrainFlag,
    mirror: Option<PathBuf>,
) {
    let mut mirror = mirror.map(DirCheckpointStore::new);
    let mut request_id: u64 = 0;
    while !stop.is_tripped() {
        request_id += 1;
        let from_seq = locked(&state).applied_seq();
        match stream_once(
            &primary_addr,
            request_id,
            from_seq,
            &state,
            &stop,
            &mut mirror,
        ) {
            StreamEnd::Stale => {
                // The primary cannot extend our position (lagged stream
                // or pruned backlog): resync from scratch.
                locked(&state).reset_for_resync();
            }
            StreamEnd::Disconnected => {}
        }
        if !stop.is_tripped() {
            thread::sleep(RECONNECT_BACKOFF);
        }
    }
}

enum StreamEnd {
    /// The stream ended because our position is no longer extendable.
    Stale,
    /// The connection dropped, the primary is draining, or `stop`
    /// tripped; reconnect from the current position.
    Disconnected,
}

/// One connection lifetime: subscribe, apply shipped documents until the
/// stream ends.
fn stream_once(
    addr: &str,
    request_id: u64,
    from_seq: Option<u64>,
    state: &Arc<Mutex<ReplicaState>>,
    stop: &DrainFlag,
    mirror: &mut Option<DirCheckpointStore>,
) -> StreamEnd {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return StreamEnd::Disconnected;
    };
    if stream.set_read_timeout(Some(STREAM_READ_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return StreamEnd::Disconnected;
    }
    let request = Request {
        id: request_id,
        body: RequestBody::Subscribe { from_seq },
    };
    if crate::proto::write_request(&mut stream, &request).is_err() {
        return StreamEnd::Disconnected;
    }
    loop {
        let payload = match read_frame_polling(&mut stream, stop) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof) | Ok(FrameRead::Drained) | Err(_) => {
                return StreamEnd::Disconnected;
            }
        };
        let Ok(response) = Response::decode(&payload) else {
            return StreamEnd::Disconnected;
        };
        match response.body {
            ResponseBody::ShipDocument { seq, kind, payload } => {
                if apply_or_reset(state, seq, kind, &payload) {
                    return StreamEnd::Stale;
                }
                if let Some(dir) = mirror.as_mut() {
                    // Mirror only documents the engine actually holds;
                    // best-effort (a mirror write failure degrades
                    // promotion, not serving).  Remove first so a
                    // resync cannot leave two kinds at one sequence.
                    if locked(state).applied_seq() == Some(seq) {
                        let _ = dir.remove(seq);
                        let _ = dir.writer(seq, kind).and_then(|mut w| {
                            w.write_all(&payload)?;
                            w.flush()
                        });
                    }
                }
            }
            // The end of the backlog: the live phase follows.
            ResponseBody::ReplicaCaughtUp { .. } => {}
            ResponseBody::Draining => return StreamEnd::Disconnected,
            // A server error on an established stream means the hub
            // declared us lagged (or the backlog is unreadable): the
            // position is not extendable.
            ResponseBody::ServerError { .. } => return StreamEnd::Stale,
            // Anything else is a protocol violation; drop and retry.
            _ => return StreamEnd::Disconnected,
        }
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
        assert_eq!(replica.docs_applied, docs.len() as u64);
        assert!(replica.epoch() > 0);
        // Re-applying an old document is a harmless no-op.
        let (seq, kind, bytes) = &docs[0];
        replica.apply_doc(*seq, *kind, bytes).unwrap();
        assert_eq!(replica.docs_applied, docs.len() as u64);
    }

    #[test]
    fn reads_at_one_epoch_share_one_extraction() {
        let docs = primary_docs(10);
        let mut replica = ReplicaState::new();
        let reads = replica.epoch_reads();
        let empty = reads.load().expect("the empty epoch is published at once");
        assert_eq!(
            (empty.updates_applied, empty.checkpoint_seq, empty.algorithm),
            (0, None, NO_SNAPSHOT)
        );
        assert!(empty.group_by(&[VertexId(0), VertexId(1)]).is_empty());
        let mut previous = empty;
        for (seq, kind, bytes) in &docs {
            replica.apply_doc(*seq, *kind, bytes).unwrap();
            // Exactly one new epoch per applied document, shared by
            // every read until the next one.
            let epoch = reads.load().expect("published");
            assert!(!Arc::ptr_eq(&previous, &epoch), "document {seq} published");
            assert!(Arc::ptr_eq(&epoch, &reads.load().expect("still there")));
            assert_eq!(epoch.checkpoint_seq, Some(*seq));
            assert_eq!(epoch.updates_applied, replica.epoch());
            let engine = replica.engine().expect("engine present");
            assert_eq!(*epoch.clustering, engine.current_clustering());
            previous = epoch;
        }
        // A skipped (already applied) document publishes nothing.
        let (seq, kind, bytes) = &docs[0];
        replica.apply_doc(*seq, *kind, bytes).unwrap();
        assert!(Arc::ptr_eq(&previous, &reads.load().expect("published")));
        replica.reset_for_resync();
        let reset = reads.load().expect("published");
        assert_eq!(
            (reset.updates_applied, reset.checkpoint_seq, reset.algorithm),
            (0, None, NO_SNAPSHOT)
        );
        assert_eq!(*reset.clustering, Default::default());
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
