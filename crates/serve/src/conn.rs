//! Per-connection machinery: a reader thread (framing, admission
//! control, backpressure) feeding a bounded queue consumed by a
//! processor (engine calls, ordered replies, terminal drain notices).
//!
//! Invariants this module maintains:
//!
//! * **Bounded memory** — a request is admitted only if the connection's
//!   and the server's queued-update budgets have room *and* the bounded
//!   request channel accepts it; otherwise the client gets a typed
//!   `Overloaded{retry_after}` reply immediately.  Nothing buffers
//!   without bound.
//! * **Apply-before-ack** — the processor performs the engine call (and
//!   reads the resulting epoch) under the engine lock, releases the
//!   lock, and only then writes the acknowledgement.
//! * **No dropped socket mid-frame on drain** — once the drain latch
//!   trips, admitted requests still get their normal replies, refused
//!   ones get `Draining`, and the connection closes with a terminal
//!   `Draining` frame after the last reply.
//! * **A stuck client cannot wedge the engine** — socket writes happen
//!   outside the engine lock and carry a write timeout; when one trips,
//!   the connection is torn down and its unacknowledged queue released.

use crate::admission::{bounded, JobReceiver, JobSender, TrySend};
use crate::drain::DrainFlag;
use crate::frame::{parse_header, WireError, HEADER_LEN};
use crate::proto::{Request, RequestBody, Response, ResponseBody, StatsReply, UNSOLICITED_ID};
use crate::server::Shared;
use dynscan_core::sync::atomic::{AtomicU64, Ordering};
use dynscan_core::sync::{Arc, Mutex};
use dynscan_core::{Session, VertexId};
use dynscan_graph::snapshot::fnv1a;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Read-poll interval: how quickly an idle reader notices the drain
/// latch.
const READ_POLL: Duration = Duration::from_millis(25);

/// Timeout polls tolerated mid-frame after the drain latch trips before
/// the partially-sent frame is abandoned (~1 s at [`READ_POLL`]).
const DRAIN_GRACE_POLLS: u32 = 40;

/// An admitted request waiting for the processor.
struct Job {
    id: u64,
    body: RequestBody,
    /// Queued-update weight reserved at admission (released by the
    /// processor).
    weight: u64,
}

/// Serve one connection to completion.  Runs on the connection's
/// processor thread; spawns the reader thread internally.
pub(crate) fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let result = stream.try_clone().map(|write_half| {
        let writer = Arc::new(Mutex::new(write_half));
        let conn_queued = Arc::new(AtomicU64::new(0));
        let (tx, rx) = bounded::<Job>(shared.cfg.max_queued_requests);
        let reader_shared = Arc::clone(&shared);
        let reader_writer = Arc::clone(&writer);
        let reader_queued = Arc::clone(&conn_queued);
        let reader = std::thread::Builder::new()
            .name("dynscan-serve-read".into())
            .spawn(move || reader_loop(stream, tx, reader_writer, reader_shared, reader_queued));
        if let Ok(reader) = reader {
            process_loop(rx, &writer, &shared, &conn_queued);
            let _ = reader.join();
        }
    });
    drop(result);
    shared.connections.fetch_sub(1, Ordering::SeqCst);
}

/// Outcome of one polling frame read.
pub enum FrameRead {
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

/// Read one frame, polling the drain latch while idle.  Public so the
/// replica's serving loop (which speaks the same protocol with the same
/// drain discipline) can reuse the exact framing behaviour; the stream
/// must have a read timeout set, or the drain latch is never polled.
pub fn read_frame_polling(
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

fn send(writer: &Mutex<TcpStream>, response: &Response) -> Result<(), WireError> {
    let mut stream = writer.lock().unwrap_or_else(|p| p.into_inner());
    crate::proto::write_response(&mut *stream, response)
}

/// The admission weight a request reserves from the queued-update
/// budgets (queries and control requests are unweighted — they occupy a
/// bounded channel slot but not the update queue).
fn weight_of(body: &RequestBody) -> u64 {
    match body {
        RequestBody::Apply(_) => 1,
        RequestBody::BatchApply(updates) => updates.len() as u64,
        _ => 0,
    }
}

/// Backoff hint for an `Overloaded` reply, scaled by global pressure.
fn retry_after_hint(shared: &Shared) -> u64 {
    10 + shared.queued.load(Ordering::SeqCst) / 100
}

/// Read frames, decode, admit, enqueue.  Every read frame gets exactly
/// one reply from some thread; the loop exits on EOF, fatal wire errors,
/// or drain.
fn reader_loop(
    mut stream: TcpStream,
    tx: JobSender<Job>,
    writer: Arc<Mutex<TcpStream>>,
    shared: Arc<Shared>,
    conn_queued: Arc<AtomicU64>,
) {
    loop {
        let payload = match read_frame_polling(&mut stream, &shared.drain) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof) | Ok(FrameRead::Drained) => break,
            Err(WireError::Io { .. }) => break,
            Err(e) => {
                // Framing is lost (corruption, version mismatch): one
                // terminal typed error, then close.
                let _ = send(
                    &writer,
                    &Response {
                        id: UNSOLICITED_ID,
                        body: ResponseBody::ServerError {
                            message: e.to_string(),
                        },
                    },
                );
                break;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame was intact but the message was not a valid
                // request — protocol mismatch, close after a typed error.
                let _ = send(
                    &writer,
                    &Response {
                        id: UNSOLICITED_ID,
                        body: ResponseBody::ServerError {
                            message: e.to_string(),
                        },
                    },
                );
                break;
            }
        };
        if shared.drain.is_tripped() {
            // Admissions are closed; the processor's terminal notice
            // follows once the queue drains.
            let _ = send(
                &writer,
                &Response {
                    id: request.id,
                    body: ResponseBody::Draining,
                },
            );
            break;
        }
        let weight = weight_of(&request.body);
        if weight > 0 {
            let conn_now = conn_queued.load(Ordering::SeqCst);
            let global_now = shared.queued.load(Ordering::SeqCst);
            if conn_now + weight > shared.cfg.max_conn_queued_updates
                || global_now + weight > shared.cfg.max_global_queued_updates
            {
                let overloaded = Response {
                    id: request.id,
                    body: ResponseBody::Overloaded {
                        retry_after_millis: retry_after_hint(&shared),
                    },
                };
                if send(&writer, &overloaded).is_err() {
                    break;
                }
                continue;
            }
            conn_queued.fetch_add(weight, Ordering::SeqCst);
            shared.queued.fetch_add(weight, Ordering::SeqCst);
        }
        match tx.try_send(Job {
            id: request.id,
            body: request.body,
            weight,
        }) {
            TrySend::Queued => {}
            TrySend::Full(job) => {
                release(&shared, &conn_queued, job.weight);
                let overloaded = Response {
                    id: job.id,
                    body: ResponseBody::Overloaded {
                        retry_after_millis: retry_after_hint(&shared),
                    },
                };
                if send(&writer, &overloaded).is_err() {
                    break;
                }
            }
            TrySend::Closed(job) => {
                release(&shared, &conn_queued, job.weight);
                break;
            }
        }
    }
    // Dropping the sender lets the processor finish the queue and write
    // the terminal reply.
}

fn release(shared: &Shared, conn_queued: &AtomicU64, weight: u64) {
    if weight > 0 {
        conn_queued.fetch_sub(weight, Ordering::SeqCst);
        shared.queued.fetch_sub(weight, Ordering::SeqCst);
    }
}

/// Consume admitted jobs in order: engine call under the lock, release
/// the reservation, reply outside the lock.  After the channel closes,
/// write the terminal `Draining` notice if a drain is in progress, and
/// shut the socket down cleanly either way.
fn process_loop(
    rx: JobReceiver<Job>,
    writer: &Mutex<TcpStream>,
    shared: &Shared,
    conn_queued: &AtomicU64,
) {
    let mut writer_dead = false;
    // Read-your-writes floor: the highest apply epoch this connection
    // has been (or is about to be) acknowledged at.  Epoch-snapshot
    // reads must observe at least this epoch; anything older falls back
    // to the engine lock.
    let mut acked_floor = 0u64;
    while let Some(job) = rx.recv() {
        if writer_dead {
            // The client stopped reading: release reservations without
            // executing — unacknowledged work carries no guarantee.
            release(shared, conn_queued, job.weight);
            continue;
        }
        if let RequestBody::Subscribe { from_seq } = job.body {
            release(shared, conn_queued, job.weight);
            run_subscription(job.id, from_seq, writer, shared);
            // The stream owned the connection; whatever ended it
            // (drain, lag, a gone peer) ends the connection too.  The
            // flag makes the remaining queued jobs release-and-skip.
            writer_dead = true;
            continue;
        }
        let body = execute(shared, job.body, acked_floor);
        release(shared, conn_queued, job.weight);
        if let ResponseBody::Applied { epoch, .. } | ResponseBody::BatchApplied { epoch, .. } =
            &body
        {
            acked_floor = acked_floor.max(*epoch);
        }
        let response = Response { id: job.id, body };
        if send(writer, &response).is_err() {
            writer_dead = true;
        }
    }
    if !writer_dead && shared.drain.is_tripped() {
        let _ = send(
            writer,
            &Response {
                id: UNSOLICITED_ID,
                body: ResponseBody::Draining,
            },
        );
    }
    let stream = writer.lock().unwrap_or_else(|p| p.into_inner());
    let _ = stream.shutdown(Shutdown::Both);
}

fn lock_engine(shared: &Shared) -> dynscan_core::sync::MutexGuard<'_, Session> {
    shared.engine.lock().unwrap_or_else(|p| p.into_inner())
}

/// The published epoch snapshot, if it satisfies read-your-writes for a
/// connection acknowledged up to `acked_floor` (counts the lock-free
/// read when it does).
fn load_epoch(
    shared: &Shared,
    acked_floor: u64,
) -> Option<dynscan_core::sync::Arc<dynscan_core::EpochSnapshot>> {
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
    writer: &Mutex<TcpStream>,
    id: u64,
    seq: u64,
    kind: dynscan_core::SnapshotKind,
    payload: Vec<u8>,
) -> Result<(), WireError> {
    if payload.len() > crate::proto::MAX_SHIP_DOC_BYTES {
        let _ = send(
            writer,
            &Response {
                id,
                body: ResponseBody::ServerError {
                    message: format!("checkpoint document {seq} exceeds the shippable size"),
                },
            },
        );
        return Err(WireError::Malformed("document exceeds ship cap"));
    }
    send(
        writer,
        &Response {
            id,
            body: ResponseBody::ShipDocument { seq, kind, payload },
        },
    )
}

/// Turn the connection into a replication stream: subscribe to the hub
/// **first**, ship the backlog from the checkpoint directory, mark
/// catch-up, then forward hub documents (deduplicated by sequence
/// number against the backlog) until drain, lag, or a gone peer.
fn run_subscription(id: u64, from_seq: Option<u64>, writer: &Mutex<TcpStream>, shared: &Shared) {
    use dynscan_core::{CheckpointStore as _, DirCheckpointStore, TailError};
    let Some(dir) = shared.cfg.checkpoint_dir.as_ref() else {
        let _ = send(
            writer,
            &Response {
                id,
                body: ResponseBody::ServerError {
                    message: "replication requires a checkpoint directory on the primary".into(),
                },
            },
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
            let _ = send(
                writer,
                &Response {
                    id,
                    body: ResponseBody::ServerError {
                        message: format!("reading the checkpoint backlog failed: {e}"),
                    },
                },
            );
            return;
        }
    };
    for doc in backlog {
        if ship(writer, id, doc.seq, doc.kind, doc.bytes).is_err() {
            return;
        }
        pos = Some(doc.seq);
    }
    if send(
        writer,
        &Response {
            id,
            body: ResponseBody::ReplicaCaughtUp { seq: pos },
        },
    )
    .is_err()
    {
        return;
    }
    // Live phase: forward hub publications.  Documents the backlog read
    // already covered (published between `subscribe` and the directory
    // scan) are skipped by sequence number.
    loop {
        if shared.drain.is_tripped() {
            let _ = send(
                writer,
                &Response {
                    id: UNSOLICITED_ID,
                    body: ResponseBody::Draining,
                },
            );
            return;
        }
        match subscription.poll() {
            Ok(Some(doc)) => {
                if pos.is_some_and(|p| doc.seq <= p) {
                    continue;
                }
                if ship(writer, id, doc.seq, doc.kind, (*doc.bytes).clone()).is_err() {
                    return;
                }
                pos = Some(doc.seq);
            }
            Ok(None) => dynscan_core::sync::thread::sleep(STREAM_POLL),
            Err(lagged) => {
                let _ = send(
                    writer,
                    &Response {
                        id,
                        body: ResponseBody::ServerError {
                            message: lagged.to_string(),
                        },
                    },
                );
                return;
            }
        }
    }
}

/// Perform one operation against the engine.  For writes, the returned
/// epoch is the global applied-update count observed **under the lock**,
/// which is what makes acknowledgements totally ordered.
///
/// Clustering queries (`GroupBy` / `ClusterOf`) take the lock-free path
/// instead: they answer from the published [`EpochSnapshot`] whenever
/// `snapshot.updates_applied >= acked_floor` — i.e. the snapshot already
/// covers every write this connection has been acknowledged for, so
/// read-your-writes holds.  The floor check cannot fail in practice
/// (publication happens under the engine lock *before* the write
/// returns, hence before its acknowledgement, hence before any later
/// query on the same connection), but the engine-lock fallback is kept
/// so the invariant is enforced rather than assumed.
fn execute(shared: &Shared, body: RequestBody, acked_floor: u64) -> ResponseBody {
    match body {
        RequestBody::Apply(update) => {
            let mut engine = lock_engine(shared);
            match engine.apply(update) {
                Ok(flips) => ResponseBody::Applied {
                    epoch: engine.updates_applied(),
                    flips: flips.len() as u64,
                },
                Err(e) => ResponseBody::Rejected(e.into()),
            }
        }
        RequestBody::BatchApply(updates) => {
            let mut engine = lock_engine(shared);
            let before = engine.updates_applied();
            let flips = engine.apply_batch(&updates);
            let epoch = engine.updates_applied();
            ResponseBody::BatchApplied {
                epoch,
                applied: epoch - before,
                rejected: updates.len() as u64 - (epoch - before),
                flips: flips.len() as u64,
            }
        }
        RequestBody::GroupBy(vertices) => {
            if let Some(snapshot) = load_epoch(shared, acked_floor) {
                return ResponseBody::Groups {
                    epoch: snapshot.updates_applied,
                    checkpoint_seq: snapshot.checkpoint_seq,
                    groups: snapshot.group_by(&vertices),
                };
            }
            let mut engine = lock_engine(shared);
            let groups = engine.cluster_group_by(&vertices);
            ResponseBody::Groups {
                epoch: engine.updates_applied(),
                checkpoint_seq: engine.last_checkpoint_seq(),
                groups,
            }
        }
        RequestBody::ClusterOf(v) => {
            if let Some(snapshot) = load_epoch(shared, acked_floor) {
                return ResponseBody::Groups {
                    epoch: snapshot.updates_applied,
                    checkpoint_seq: snapshot.checkpoint_seq,
                    groups: snapshot.clusters_of(v),
                };
            }
            let mut engine = lock_engine(shared);
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
                    return ResponseBody::Stats(StatsReply {
                        algorithm: snapshot.algorithm.to_string(),
                        epoch: snapshot.updates_applied,
                        num_vertices: snapshot.num_vertices,
                        num_edges: snapshot.num_edges,
                        queued_updates: shared.queued.load(Ordering::SeqCst),
                        connections: shared.connections.load(Ordering::SeqCst),
                        checkpoints_written: snapshot.checkpoints_written,
                        draining: shared.drain.is_tripped(),
                        state_checksum: None,
                        last_checkpoint_seq: snapshot.checkpoint_seq,
                    });
                }
            }
            let mut engine = lock_engine(shared);
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
            let mut engine = lock_engine(shared);
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
            let epoch = lock_engine(shared).updates_applied();
            shared.drain.trip();
            ResponseBody::DrainStarted { epoch }
        }
        // Subscriptions take over the connection in `process_loop`; one
        // reaching the ordinary execute path is a logic error upstream,
        // answered as such rather than by panicking a server thread.
        RequestBody::Subscribe { .. } => ResponseBody::ServerError {
            message: "subscription must be handled by the stream loop".into(),
        },
    }
}
