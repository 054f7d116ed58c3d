//! Per-connection machinery: one loop on the connection's own thread
//! reads a frame, decodes it, reserves its update weight, executes it,
//! releases the weight and writes the reply, then reads the next frame.
//!
//! Invariants this module maintains:
//!
//! * **Bounded memory** — a connection holds at most one decoded
//!   request.  It executes only if its update weight fits the
//!   server-wide queued-update budget; otherwise the client gets a typed
//!   `Overloaded{retry_after}` reply at once.  A request heavier than
//!   either cap can never fit and gets a `ServerError` naming its weight
//!   and the cap instead, so no client retries it.  A client that
//!   pipelines is held back by TCP flow control, not by a server-side
//!   queue.
//! * **Ordered replies, read-your-writes** — requests are answered in
//!   the order they were read, and a read never observes an epoch below
//!   the connection's own acknowledged writes.
//! * **Apply-before-ack** — the engine call (and the epoch it reports)
//!   runs under the engine lock; the lock is released before the
//!   acknowledgement is written.
//! * **No dropped socket mid-frame on drain** — once the drain latch
//!   trips, a request read afterwards gets `Draining`, and the connection
//!   closes with a terminal `Draining` frame (an idle connection sends it
//!   at its next read poll).
//! * **A stuck client cannot wedge the engine** — socket writes happen
//!   outside the engine lock and carry a write timeout; when one trips,
//!   the connection is torn down.
//! * **A replica is read-only** — on a replica, writes, `CheckpointNow`
//!   and `Subscribe` are answered `ReadOnly` before anything else, and
//!   every read is served from the published epoch.

use crate::drain::DrainFlag;
use crate::frame::{parse_header, WireError, HEADER_LEN};
use crate::proto::{
    RejectReason, Request, RequestBody, Response, ResponseBody, StatsReply, UNSOLICITED_ID,
};
use crate::server::{Role, Shared};
use dynscan_core::sync::atomic::Ordering;
use dynscan_core::sync::{Arc, MutexGuard};
use dynscan_core::{EpochSnapshot, GraphUpdate, Session, VertexId};
use dynscan_graph::snapshot::fnv1a;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Read-poll interval: how quickly an idle connection notices the drain
/// latch.
const READ_POLL: Duration = Duration::from_millis(25);

/// Timeout polls tolerated mid-frame after the drain latch trips before
/// the partially-sent frame is abandoned (~1 s at [`READ_POLL`]).
const DRAIN_GRACE_POLLS: u32 = 40;

/// Outcome of one polling frame read.
pub(crate) enum FrameRead {
    /// A complete, checksum-verified payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly between frames.
    Eof,
    /// The drain latch tripped while the line was idle.
    Drained,
}

enum Fill {
    Filled,
    Eof,
    Drained,
}

/// Fill `buf` completely, looping over short reads and read-timeout
/// polls — unlike `read_exact`, a timeout mid-buffer never loses the
/// bytes already read, so framing survives slow writers.  `idle_ok`
/// marks the frame boundary: only there are EOF and drain clean exits.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle_ok: bool,
    drain: &DrainFlag,
) -> Result<Fill, WireError> {
    let mut filled = 0usize;
    let mut grace = 0u32;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && idle_ok {
                    Ok(Fill::Eof)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if drain.is_tripped() {
                    if filled == 0 && idle_ok {
                        return Ok(Fill::Drained);
                    }
                    grace += 1;
                    if grace > DRAIN_GRACE_POLLS {
                        return Err(WireError::Truncated);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Filled)
}

/// Read one frame, polling the drain latch while idle (the replica's
/// subscribe loop reads its stream the same way).  The stream must have
/// a read timeout set, or the drain latch is never polled.
pub(crate) fn read_frame_polling(
    stream: &mut TcpStream,
    drain: &DrainFlag,
) -> Result<FrameRead, WireError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(stream, &mut header, true, drain)? {
        Fill::Eof => return Ok(FrameRead::Eof),
        Fill::Drained => return Ok(FrameRead::Drained),
        Fill::Filled => {}
    }
    let (len, declared) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    match read_full(stream, &mut payload, false, drain)? {
        Fill::Filled => {}
        // Unreachable (idle_ok is false), but type-complete.
        Fill::Eof | Fill::Drained => return Err(WireError::Truncated),
    }
    if fnv1a(&payload) != declared {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(FrameRead::Frame(payload))
}

fn send(stream: &mut TcpStream, id: u64, body: ResponseBody) -> Result<(), WireError> {
    crate::proto::write_response(stream, &Response { id, body })
}

/// Serve one connection to completion on the calling thread.  Every
/// frame read gets exactly one reply (a `Subscribe` gets a stream of
/// them); the loop ends on EOF, a lost frame, a failed reply write, a
/// finished subscription, or drain.
pub(crate) fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    // Read-your-writes floor: the highest apply epoch this connection
    // has been acknowledged at.  Epoch-snapshot reads must observe at
    // least this epoch; anything older falls back to the engine lock.
    let mut acked_floor = 0u64;
    let writable = loop {
        let payload = match read_frame_polling(&mut stream, &shared.drain) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof | FrameRead::Drained) | Err(WireError::Io { .. }) => break true,
            // Framing is lost (corruption, version mismatch): one
            // terminal typed error, then close.
            Err(e) => break server_error(&mut stream, UNSOLICITED_ID, e.to_string()),
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            // The frame was intact but the message was not a valid
            // request — protocol mismatch, close after a typed error.
            Err(e) => break server_error(&mut stream, UNSOLICITED_ID, e.to_string()),
        };
        if shared.drain.is_tripped() {
            // Refused; the terminal notice follows.
            break send(&mut stream, request.id, ResponseBody::Draining).is_ok();
        }
        let body = match (&shared.role, request.body) {
            // Writes, checkpoints and nested subscriptions belong on the
            // primary.
            (
                Role::Replica(_),
                RequestBody::Apply(_)
                | RequestBody::BatchApply(_)
                | RequestBody::CheckpointNow
                | RequestBody::Subscribe { .. },
            ) => ResponseBody::ReadOnly,
            (Role::Primary(_), RequestBody::Subscribe { from_seq }) => {
                // The stream owns the connection from here on; whatever
                // ends it (drain, lag, a gone peer) ends the connection
                // too.
                run_subscription(request.id, from_seq, &mut stream, shared);
                break false;
            }
            (_, body) => {
                let weight = weight_of(&body);
                match reserve(shared, weight) {
                    Ok(()) => {
                        let reply = execute(shared, body, acked_floor);
                        if weight > 0 {
                            shared.queued.fetch_sub(weight, Ordering::SeqCst);
                        }
                        reply
                    }
                    Err(refusal) => refusal,
                }
            }
        };
        if let ResponseBody::Applied { epoch, .. } | ResponseBody::BatchApplied { epoch, .. } =
            &body
        {
            acked_floor = acked_floor.max(*epoch);
        }
        if send(&mut stream, request.id, body).is_err() {
            break false;
        }
    };
    if writable && shared.drain.is_tripped() {
        let _ = send(&mut stream, UNSOLICITED_ID, ResponseBody::Draining);
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.connections.fetch_sub(1, Ordering::SeqCst);
}

/// Reply with a typed server error; `true` if the reply was written.
fn server_error(stream: &mut TcpStream, id: u64, message: String) -> bool {
    send(stream, id, ResponseBody::ServerError { message }).is_ok()
}

/// The queued-update weight a request reserves (queries and control
/// requests are unweighted).
fn weight_of(body: &RequestBody) -> u64 {
    match body {
        RequestBody::Apply(_) => 1,
        RequestBody::BatchApply(updates) => updates.len() as u64,
        _ => 0,
    }
}

/// Reserve a request's weight: at most `max_conn_queued_updates`, and
/// the server-wide count stays within `max_global_queued_updates`.  The
/// global reservation is one atomic add, undone on overflow, so two
/// connections can never pass the check together and overshoot the cap.
/// The refusal is the reply: `Overloaded` when the global budget is
/// momentarily full, a `ServerError` when the request exceeds a cap on
/// its own and no retry could ever fit it.
fn reserve(shared: &Shared, weight: u64) -> Result<(), ResponseBody> {
    if weight == 0 {
        return Ok(());
    }
    let cap = shared
        .cfg
        .max_conn_queued_updates
        .min(shared.cfg.max_global_queued_updates);
    if weight > cap {
        return Err(ResponseBody::ServerError {
            message: format!("a request of {weight} updates exceeds the cap of {cap} per request"),
        });
    }
    let before = shared.queued.fetch_add(weight, Ordering::SeqCst);
    if before + weight > shared.cfg.max_global_queued_updates {
        shared.queued.fetch_sub(weight, Ordering::SeqCst);
        return Err(ResponseBody::Overloaded {
            retry_after_millis: retry_after_hint(shared),
        });
    }
    Ok(())
}

/// Backoff hint for an `Overloaded` reply, scaled by global pressure.
fn retry_after_hint(shared: &Shared) -> u64 {
    10 + shared.queued.load(Ordering::SeqCst) / 100
}

/// The first endpoint of `update` at or above the served vertex bound.
fn out_of_bounds(update: &GraphUpdate, max_vertices: u32) -> Option<VertexId> {
    let (u, v) = update.endpoints();
    [u, v].into_iter().find(|x| x.0 >= max_vertices)
}

/// The primary's engine.  A replica has none: it answers reads from the
/// published epoch and refuses writes before they get here, so a request
/// that still needs the engine gets this error instead.
fn lock_engine(shared: &Shared) -> Result<MutexGuard<'_, Session>, ResponseBody> {
    match &shared.role {
        Role::Primary(engine) => Ok(engine.lock().unwrap_or_else(|p| p.into_inner())),
        Role::Replica(_) => Err(ResponseBody::ServerError {
            message: "a replica has no engine to serve this request from".into(),
        }),
    }
}

/// The published epoch snapshot, if it satisfies read-your-writes for a
/// connection acknowledged up to `acked_floor` (counts the lock-free
/// read when it does).
fn load_epoch(shared: &Shared, acked_floor: u64) -> Option<Arc<EpochSnapshot>> {
    let snapshot = shared.epoch.load()?;
    if snapshot.updates_applied < acked_floor {
        return None;
    }
    shared.epoch_reads.fetch_add(1, Ordering::SeqCst);
    Some(snapshot)
}

/// How often an idle replication stream polls its hub queue (and the
/// drain latch).
const STREAM_POLL: Duration = Duration::from_millis(10);

/// Ship one document, refusing (with a typed error to the peer) any
/// document too large for the protocol instead of panicking in encode.
fn ship(
    stream: &mut TcpStream,
    id: u64,
    seq: u64,
    kind: dynscan_core::SnapshotKind,
    payload: Vec<u8>,
) -> Result<(), WireError> {
    if payload.len() > crate::proto::MAX_SHIP_DOC_BYTES {
        server_error(
            stream,
            id,
            format!("checkpoint document {seq} exceeds the shippable size"),
        );
        return Err(WireError::Malformed("document exceeds ship cap"));
    }
    send(
        stream,
        id,
        ResponseBody::ShipDocument { seq, kind, payload },
    )
}

/// Turn the connection into a replication stream: subscribe to the hub
/// **first**, ship the backlog from the checkpoint directory, mark
/// catch-up, then forward hub documents (deduplicated by sequence
/// number against the backlog) until drain, lag, or a gone peer.
fn run_subscription(id: u64, from_seq: Option<u64>, stream: &mut TcpStream, shared: &Shared) {
    use dynscan_core::{CheckpointStore as _, DirCheckpointStore, TailError};
    let Some(dir) = shared.cfg.checkpoint_dir.as_ref() else {
        server_error(
            stream,
            id,
            "replication requires a checkpoint directory on the primary".into(),
        );
        return;
    };
    let subscription = shared.hub.subscribe();
    let store = DirCheckpointStore::new(dir);
    // Backlog: extend the subscriber's chain if its position survives
    // retention, otherwise fall back to a full resync — the same
    // contract `poll_since` gives a store-tailing replica.  `pos` tracks
    // the last sequence the subscriber is known to hold.
    let mut pos = from_seq;
    let mut backlog = store.poll_since(from_seq);
    if matches!(backlog, Err(TailError::ChainGap { .. })) && from_seq.is_some() {
        pos = None;
        backlog = store.poll_since(None);
    }
    // A transient gap can also hit the resync read itself (pruning races
    // the directory scan); retry a few times before giving up.
    let mut retries = 0;
    while matches!(backlog, Err(TailError::ChainGap { .. })) && retries < 8 {
        retries += 1;
        backlog = store.poll_since(None);
        pos = None;
    }
    let backlog = match backlog {
        Ok(docs) => docs,
        Err(e) => {
            server_error(
                stream,
                id,
                format!("reading the checkpoint backlog failed: {e}"),
            );
            return;
        }
    };
    for doc in backlog {
        if ship(stream, id, doc.seq, doc.kind, doc.bytes).is_err() {
            return;
        }
        pos = Some(doc.seq);
    }
    if send(stream, id, ResponseBody::ReplicaCaughtUp { seq: pos }).is_err() {
        return;
    }
    // Live phase: forward hub publications.  Documents the backlog read
    // already covered (published between `subscribe` and the directory
    // scan) are skipped by sequence number.
    loop {
        if shared.drain.is_tripped() {
            let _ = send(stream, UNSOLICITED_ID, ResponseBody::Draining);
            return;
        }
        match subscription.poll() {
            Ok(Some(doc)) => {
                if pos.is_some_and(|p| doc.seq <= p) {
                    continue;
                }
                if ship(stream, id, doc.seq, doc.kind, (*doc.bytes).clone()).is_err() {
                    return;
                }
                pos = Some(doc.seq);
            }
            Ok(None) => dynscan_core::sync::thread::sleep(STREAM_POLL),
            Err(lagged) => {
                server_error(stream, id, lagged.to_string());
                return;
            }
        }
    }
}

/// Perform one operation against the engine.  For writes, the returned
/// epoch is the global applied-update count observed **under the lock**,
/// which is what makes acknowledgements totally ordered.  An update
/// naming a vertex at or above `max_vertices` is refused before the lock
/// is taken, so no client can make the engine allocate past that bound.
///
/// Clustering queries (`GroupBy` / `ClusterOf`) take the lock-free path
/// instead: they answer from the published [`EpochSnapshot`] whenever
/// `snapshot.updates_applied >= acked_floor` — i.e. the snapshot already
/// covers every write this connection has been acknowledged for, so
/// read-your-writes holds.  The floor check cannot fail in practice
/// (publication happens under the engine lock *before* the write
/// returns, hence before its acknowledgement, hence before any later
/// query on the same connection), but the engine-lock fallback is kept
/// so the invariant is enforced rather than assumed.  A replica never
/// reaches it: its floor stays 0 and its first epoch is published before
/// the listener binds.
fn execute(shared: &Shared, body: RequestBody, acked_floor: u64) -> ResponseBody {
    try_execute(shared, body, acked_floor).unwrap_or_else(|refusal| refusal)
}

fn try_execute(
    shared: &Shared,
    body: RequestBody,
    acked_floor: u64,
) -> Result<ResponseBody, ResponseBody> {
    Ok(match body {
        RequestBody::Apply(update) => {
            if let Some(v) = out_of_bounds(&update, shared.cfg.max_vertices) {
                return Ok(ResponseBody::Rejected(RejectReason::InvalidVertex { v }));
            }
            let mut engine = lock_engine(shared)?;
            match engine.apply(update) {
                Ok(flips) => ResponseBody::Applied {
                    epoch: engine.updates_applied(),
                    flips: flips.len() as u64,
                },
                Err(e) => ResponseBody::Rejected(e.into()),
            }
        }
        RequestBody::BatchApply(mut updates) => {
            // Out-of-bounds updates are skipped and counted as rejected,
            // like the engine's own invalid updates.
            let sent = updates.len() as u64;
            updates.retain(|update| out_of_bounds(update, shared.cfg.max_vertices).is_none());
            let mut engine = lock_engine(shared)?;
            let before = engine.updates_applied();
            let flips = engine.apply_batch(&updates);
            let epoch = engine.updates_applied();
            ResponseBody::BatchApplied {
                epoch,
                applied: epoch - before,
                rejected: sent - (epoch - before),
                flips: flips.len() as u64,
            }
        }
        RequestBody::GroupBy(vertices) => {
            if let Some(snapshot) = load_epoch(shared, acked_floor) {
                return Ok(ResponseBody::Groups {
                    epoch: snapshot.updates_applied,
                    checkpoint_seq: snapshot.checkpoint_seq,
                    groups: snapshot.group_by(&vertices),
                });
            }
            let mut engine = lock_engine(shared)?;
            let groups = engine.cluster_group_by(&vertices);
            ResponseBody::Groups {
                epoch: engine.updates_applied(),
                checkpoint_seq: engine.last_checkpoint_seq(),
                groups,
            }
        }
        RequestBody::ClusterOf(v) => {
            if let Some(snapshot) = load_epoch(shared, acked_floor) {
                return Ok(ResponseBody::Groups {
                    epoch: snapshot.updates_applied,
                    checkpoint_seq: snapshot.checkpoint_seq,
                    groups: snapshot.clusters_of(v),
                });
            }
            let mut engine = lock_engine(shared)?;
            let groups = engine
                .clustering()
                .clusters_containing(v)
                .map(<[VertexId]>::to_vec)
                .collect();
            ResponseBody::Groups {
                epoch: engine.updates_applied(),
                checkpoint_seq: engine.last_checkpoint_seq(),
                groups,
            }
        }
        RequestBody::Stats {
            include_state_checksum,
        } => {
            // Staleness contract (see `dynscan_core::epoch`): without a
            // state checksum the reply is assembled from one published
            // snapshot, so every engine-derived field — epoch, counts,
            // checkpoint counters — is epoch-atomic as of `epoch`
            // (= `updates_applied` at publication), never a torn mix of
            // two epochs, and the answer takes no engine lock.  The
            // queue/connection gauges and the drain flag are
            // instantaneous server-side readings, not part of the
            // epoch.  A checksum needs the live engine state, so that
            // variant keeps the locking path.
            if !include_state_checksum {
                if let Some(snapshot) = load_epoch(shared, acked_floor) {
                    return Ok(snapshot_stats(shared, &snapshot, None));
                }
            }
            if let Role::Replica(state) = &shared.role {
                // The replica publishes under its state lock, so while
                // that lock is held the published epoch is the state's.
                let state = state.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(snapshot) = shared.epoch.load() {
                    let checksum = include_state_checksum
                        .then(|| state.engine().map(|e| fnv1a(&e.checkpoint_bytes())))
                        .flatten();
                    return Ok(snapshot_stats(shared, &snapshot, checksum));
                }
            }
            let mut engine = lock_engine(shared)?;
            let state_checksum = include_state_checksum.then(|| fnv1a(&engine.checkpoint_bytes()));
            ResponseBody::Stats(StatsReply {
                algorithm: engine.algorithm_name().to_string(),
                epoch: engine.updates_applied(),
                num_vertices: engine.num_vertices() as u64,
                num_edges: engine.num_edges() as u64,
                queued_updates: shared.queued.load(Ordering::SeqCst),
                connections: shared.connections.load(Ordering::SeqCst),
                checkpoints_written: engine.checkpoints_written(),
                draining: shared.drain.is_tripped(),
                state_checksum,
                last_checkpoint_seq: engine.last_checkpoint_seq(),
            })
        }
        RequestBody::CheckpointNow => {
            let mut engine = lock_engine(shared)?;
            match engine.checkpoint_now() {
                // Report the *store* sequence (the replication
                // position replicas track), not the in-document chain
                // sequence, which restarts at 0 on every full.
                Ok(info) => ResponseBody::CheckpointDone {
                    sequence: engine.last_checkpoint_seq().unwrap_or_default(),
                    kind: info.kind,
                    updates_applied: info.updates_applied,
                    payload_len: info.payload_len,
                },
                Err(e) => ResponseBody::ServerError {
                    message: e.to_string(),
                },
            }
        }
        RequestBody::Drain => {
            let epoch = match &shared.role {
                Role::Primary(_) => lock_engine(shared)?.updates_applied(),
                Role::Replica(_) => shared.epoch.load().map_or(0, |s| s.updates_applied),
            };
            shared.drain.trip();
            ResponseBody::DrainStarted { epoch }
        }
        // Subscriptions take over the connection in `serve`; one
        // reaching the ordinary execute path is a logic error upstream,
        // answered as such rather than by panicking a server thread.
        RequestBody::Subscribe { .. } => ResponseBody::ServerError {
            message: "subscription must be handled by the stream loop".into(),
        },
    })
}

/// A `Stats` reply assembled from one published epoch (plus the
/// instantaneous server gauges).
fn snapshot_stats(
    shared: &Shared,
    snapshot: &EpochSnapshot,
    state_checksum: Option<u64>,
) -> ResponseBody {
    ResponseBody::Stats(StatsReply {
        algorithm: snapshot.algorithm.to_string(),
        epoch: snapshot.updates_applied,
        num_vertices: snapshot.num_vertices,
        num_edges: snapshot.num_edges,
        queued_updates: shared.queued.load(Ordering::SeqCst),
        connections: shared.connections.load(Ordering::SeqCst),
        checkpoints_written: snapshot.checkpoints_written,
        draining: shared.drain.is_tripped(),
        state_checksum,
        last_checkpoint_seq: snapshot.checkpoint_seq,
    })
}
