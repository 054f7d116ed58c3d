//! Typed request/response messages and their hand-rolled binary codec.
//!
//! Every message travels as the payload of one [`crate::frame`] frame;
//! this module only defines the payload layout.  The same discipline as
//! the snapshot codec applies: explicit type tags, little-endian
//! integers, length prefixes bounded both by fixed caps
//! ([`MAX_BATCH_UPDATES`], [`MAX_QUERY_VERTICES`], [`MAX_GROUPS`]) and by
//! the bytes actually remaining, and a final check that the payload was
//! consumed exactly — so decoding never panics and never silently
//! accepts trailing garbage.

use crate::frame::WireError;
use dynscan_core::{GraphUpdate, SnapshotKind, VertexId};

/// Upper bound on updates in one `BatchApply`.
pub const MAX_BATCH_UPDATES: usize = 65_536;

/// Upper bound on query vertices in one `GroupBy`.
pub const MAX_QUERY_VERTICES: usize = 65_536;

/// Upper bound on groups (and on vertices per group) in a `Groups`
/// response.
pub const MAX_GROUPS: usize = 1 << 20;

/// Upper bound on one shipped checkpoint document's payload bytes —
/// comfortably under [`crate::frame::MAX_FRAME_PAYLOAD`] so the framing
/// envelope always fits.
pub const MAX_SHIP_DOC_BYTES: usize = 15 << 20;

/// Reserved response id for messages not answering a specific request:
/// terminal `Draining` notices and error replies to frames whose request
/// could not be decoded at all.
pub const UNSOLICITED_ID: u64 = 0;

/// A client request: a correlation id (echoed verbatim in the response;
/// ids are per-connection and chosen by the client, `!= 0`) plus the
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The requested operation.
    pub body: RequestBody,
}

/// The operations the service accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Apply one edge update.
    Apply(GraphUpdate),
    /// Apply a batch of edge updates in stream order.
    BatchApply(Vec<GraphUpdate>),
    /// Cluster-group-by over the given vertices.
    GroupBy(Vec<VertexId>),
    /// The full member list of every cluster containing this vertex
    /// (possibly several for a hub, empty for noise).  Answered with a
    /// `Groups` response, one group per containing cluster.
    ClusterOf(VertexId),
    /// Server and engine statistics.
    Stats {
        /// Also compute the FNV-1a checksum of the engine's canonical
        /// full snapshot — expensive (serialises the state), used by the
        /// crash-recovery tests to compare states byte-for-byte.
        include_state_checksum: bool,
    },
    /// Take a full checkpoint now, synchronously.
    CheckpointNow,
    /// Begin a graceful drain: stop accepting requests, finish the ones
    /// executing, close every connection with a terminal reply, take a
    /// final full checkpoint, then exit.
    Drain,
    /// Turn this connection into a replication stream: the server ships
    /// every checkpoint document after the subscriber's position
    /// (`ShipDocument` frames, all echoing this request's id), marks the
    /// end of the backlog with `ReplicaCaughtUp`, and keeps pushing new
    /// documents as checkpoints complete until drain.  A subscriber whose
    /// position was pruned away receives a fresh resync chain (newest
    /// full snapshot onward) instead.
    Subscribe {
        /// The sequence number of the last document the subscriber has
        /// applied, or `None` for a full resync from the newest full
        /// snapshot.
        from_seq: Option<u64>,
    },
}

/// A server response to one request (or an unsolicited terminal notice,
/// id [`UNSOLICITED_ID`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's correlation id, or [`UNSOLICITED_ID`].
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// The outcomes the service produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// The update was applied and is visible to every later query.
    Applied {
        /// Global update epoch after this apply (total updates applied).
        epoch: u64,
        /// Edge labels the update flipped.
        flips: u64,
    },
    /// The batch was applied in order; individually invalid updates were
    /// skipped, exactly like the engine's batch path.
    BatchApplied {
        /// Global update epoch after the batch.
        epoch: u64,
        /// Updates applied.
        applied: u64,
        /// Updates skipped as invalid.
        rejected: u64,
        /// Coalesced net label flips across the batch.
        flips: u64,
    },
    /// Group-by result: each inner vector is one cluster's intersection
    /// with the query set, in the engine's canonical order.
    Groups {
        /// Global update epoch the query observed (≥ every epoch this
        /// client was previously acknowledged).
        epoch: u64,
        /// Sequence number of the answering engine's last applied (or
        /// written) checkpoint — `None` before the first one.  On a
        /// replica this is the replication position backing the reply.
        checkpoint_seq: Option<u64>,
        /// The groups.
        groups: Vec<Vec<VertexId>>,
    },
    /// Server and engine statistics.
    Stats(StatsReply),
    /// A requested checkpoint completed.
    CheckpointDone {
        /// Sequence number within the store's chain.
        sequence: u64,
        /// Full or delta (explicit checkpoints are always full).
        kind: SnapshotKind,
        /// Updates the snapshot covers.
        updates_applied: u64,
        /// Encoded payload size in bytes.
        payload_len: u64,
    },
    /// Drain accepted: no further requests will be admitted anywhere.
    DrainStarted {
        /// Global update epoch at the drain point.
        epoch: u64,
    },
    /// The update was invalid and not applied.
    Rejected(RejectReason),
    /// Overload control refused the request; retry after the hint.
    Overloaded {
        /// Suggested client backoff before retrying.
        retry_after_millis: u64,
    },
    /// Terminal notice: the server is draining and this connection is
    /// closing cleanly.  Also the reply to requests that arrive after a
    /// drain began.
    Draining,
    /// The request decoded but the server failed to serve it.
    ServerError {
        /// Human-readable cause.
        message: String,
    },
    /// One checkpoint document pushed over a replication stream (the
    /// reply id echoes the `Subscribe` request's id).
    ShipDocument {
        /// Sequence number within the primary's chain.
        seq: u64,
        /// Full snapshot or delta.
        kind: SnapshotKind,
        /// The encoded document, byte-identical to the primary's copy.
        payload: Vec<u8>,
    },
    /// The backlog is fully shipped; everything after this is pushed live
    /// as the primary's checkpoints complete.
    ReplicaCaughtUp {
        /// The last shipped document's sequence number, or `None` when
        /// the primary has no documents yet.
        seq: Option<u64>,
    },
    /// The server is a read-only replica and refuses writes (apply,
    /// batch-apply, checkpoint, subscribe); route them to the primary.
    ReadOnly,
}

/// Why an update was rejected (mirrors the engine's typed
/// `UpdateError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The edge already exists.
    DuplicateInsert {
        /// Lower endpoint.
        u: VertexId,
        /// Upper endpoint.
        v: VertexId,
    },
    /// The edge does not exist.
    MissingDelete {
        /// Lower endpoint.
        u: VertexId,
        /// Upper endpoint.
        v: VertexId,
    },
    /// The vertex id is out of range for the engine.
    InvalidVertex {
        /// The offending vertex.
        v: VertexId,
    },
}

impl From<dynscan_core::UpdateError> for RejectReason {
    fn from(e: dynscan_core::UpdateError) -> Self {
        match e {
            dynscan_core::UpdateError::DuplicateInsert { u, v } => {
                RejectReason::DuplicateInsert { u, v }
            }
            dynscan_core::UpdateError::MissingDelete { u, v } => {
                RejectReason::MissingDelete { u, v }
            }
            dynscan_core::UpdateError::InvalidVertex { v } => RejectReason::InvalidVertex { v },
        }
    }
}

/// The payload of a `Stats` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Engine algorithm name (e.g. `"DynStrClu"`).
    pub algorithm: String,
    /// Global update epoch (total updates applied).
    pub epoch: u64,
    /// Vertices the engine covers.
    pub num_vertices: u64,
    /// Edges currently in the graph.
    pub num_edges: u64,
    /// Updates in requests executing now, across all connections.
    pub queued_updates: u64,
    /// Live client connections.
    pub connections: u64,
    /// Checkpoints written since start.
    pub checkpoints_written: u64,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// FNV-1a of the engine's canonical full snapshot, if requested.
    pub state_checksum: Option<u64>,
    /// Sequence number of the last checkpoint this engine wrote (primary)
    /// or applied (replica) — `None` before the first one.
    pub last_checkpoint_seq: Option<u64>,
}

// --------------------------------------------------------------------- //
// Codec
// --------------------------------------------------------------------- //

mod tag {
    pub const REQ_APPLY: u8 = 1;
    pub const REQ_BATCH_APPLY: u8 = 2;
    pub const REQ_GROUP_BY: u8 = 3;
    pub const REQ_STATS: u8 = 4;
    pub const REQ_CHECKPOINT_NOW: u8 = 5;
    pub const REQ_DRAIN: u8 = 6;
    pub const REQ_SUBSCRIBE: u8 = 7;
    pub const REQ_CLUSTER_OF: u8 = 8;

    pub const RESP_APPLIED: u8 = 1;
    pub const RESP_BATCH_APPLIED: u8 = 2;
    pub const RESP_GROUPS: u8 = 3;
    pub const RESP_STATS: u8 = 4;
    pub const RESP_CHECKPOINT_DONE: u8 = 5;
    pub const RESP_DRAIN_STARTED: u8 = 6;
    pub const RESP_REJECTED: u8 = 7;
    pub const RESP_OVERLOADED: u8 = 8;
    pub const RESP_DRAINING: u8 = 9;
    pub const RESP_SERVER_ERROR: u8 = 10;
    pub const RESP_SHIP_DOCUMENT: u8 = 11;
    pub const RESP_REPLICA_CAUGHT_UP: u8 = 12;
    pub const RESP_READ_ONLY: u8 = 13;

    pub const UPDATE_INSERT: u8 = 1;
    pub const UPDATE_DELETE: u8 = 2;

    pub const REJECT_DUPLICATE_INSERT: u8 = 1;
    pub const REJECT_MISSING_DELETE: u8 = 2;
    pub const REJECT_INVALID_VERTEX: u8 = 3;

    pub const KIND_FULL: u8 = 1;
    pub const KIND_DELTA: u8 = 2;
}

/// Bounds-checked little-endian reader over a message payload.  The
/// `proto` counterpart of the snapshot codec's `SnapReader`, kept local
/// so every failure is a typed [`WireError`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// `take` with a compile-time width, as an array.  The width mismatch
    /// arm is unreachable (`take` returned exactly `N` bytes) but typed,
    /// keeping the decode path free of `expect` (per `decode-no-panic`).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        match *self.take(1)? {
            [b] => Ok(b),
            _ => Err(WireError::Truncated),
        }
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte must be 0 or 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    /// Presence byte (0/1) followed by the value when present.
    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// A `u32` element count, bounded both by the caller's cap and by the
    /// bytes remaining (each element is at least `min_elem_bytes`), so a
    /// hostile count cannot drive allocation.
    fn count(&mut self, cap: usize, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > cap {
            return Err(WireError::Malformed("element count exceeds protocol cap"));
        }
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn vertex(&mut self) -> Result<VertexId, WireError> {
        Ok(VertexId(self.u32()?))
    }

    fn update(&mut self) -> Result<GraphUpdate, WireError> {
        let kind = self.u8()?;
        let a = self.vertex()?;
        let b = self.vertex()?;
        match kind {
            tag::UPDATE_INSERT => Ok(GraphUpdate::Insert(a, b)),
            tag::UPDATE_DELETE => Ok(GraphUpdate::Delete(a, b)),
            _ => Err(WireError::Malformed("unknown update tag")),
        }
    }

    fn string(&mut self, cap: usize) -> Result<String, WireError> {
        let len = self.count(cap, 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not valid UTF-8"))
    }

    /// The whole payload must be consumed — trailing bytes are a
    /// malformed message, not padding.
    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after message"));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

fn put_vertex(out: &mut Vec<u8>, v: VertexId) {
    put_u32(out, v.0);
}

fn put_update(out: &mut Vec<u8>, u: &GraphUpdate) {
    match *u {
        GraphUpdate::Insert(a, b) => {
            out.push(tag::UPDATE_INSERT);
            put_vertex(out, a);
            put_vertex(out, b);
        }
        GraphUpdate::Delete(a, b) => {
            out.push(tag::UPDATE_DELETE);
            put_vertex(out, a);
            put_vertex(out, b);
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

impl Request {
    /// Encode into a frame payload.
    ///
    /// # Panics
    ///
    /// Panics if a batch or query exceeds its protocol cap — the client
    /// library splits before encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.id);
        match &self.body {
            RequestBody::Apply(update) => {
                out.push(tag::REQ_APPLY);
                put_update(&mut out, update);
            }
            RequestBody::BatchApply(updates) => {
                assert!(
                    updates.len() <= MAX_BATCH_UPDATES,
                    "batch exceeds protocol cap"
                );
                out.push(tag::REQ_BATCH_APPLY);
                put_u32(&mut out, updates.len() as u32);
                for u in updates {
                    put_update(&mut out, u);
                }
            }
            RequestBody::GroupBy(vertices) => {
                assert!(
                    vertices.len() <= MAX_QUERY_VERTICES,
                    "query exceeds protocol cap"
                );
                out.push(tag::REQ_GROUP_BY);
                put_u32(&mut out, vertices.len() as u32);
                for &v in vertices {
                    put_vertex(&mut out, v);
                }
            }
            RequestBody::Stats {
                include_state_checksum,
            } => {
                out.push(tag::REQ_STATS);
                out.push(u8::from(*include_state_checksum));
            }
            RequestBody::ClusterOf(v) => {
                out.push(tag::REQ_CLUSTER_OF);
                put_vertex(&mut out, *v);
            }
            RequestBody::CheckpointNow => out.push(tag::REQ_CHECKPOINT_NOW),
            RequestBody::Drain => out.push(tag::REQ_DRAIN),
            RequestBody::Subscribe { from_seq } => {
                out.push(tag::REQ_SUBSCRIBE);
                put_opt_u64(&mut out, *from_seq);
            }
        }
        out
    }

    /// Decode from a frame payload.  Never panics; trailing bytes, bad
    /// tags, over-cap counts and truncations are all typed errors.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(payload);
        let id = c.u64()?;
        if id == UNSOLICITED_ID {
            return Err(WireError::Malformed("request id 0 is reserved"));
        }
        let body = match c.u8()? {
            tag::REQ_APPLY => RequestBody::Apply(c.update()?),
            tag::REQ_BATCH_APPLY => {
                let n = c.count(MAX_BATCH_UPDATES, 9)?;
                let mut updates = Vec::with_capacity(n);
                for _ in 0..n {
                    updates.push(c.update()?);
                }
                RequestBody::BatchApply(updates)
            }
            tag::REQ_GROUP_BY => {
                let n = c.count(MAX_QUERY_VERTICES, 4)?;
                let mut vertices = Vec::with_capacity(n);
                for _ in 0..n {
                    vertices.push(c.vertex()?);
                }
                RequestBody::GroupBy(vertices)
            }
            tag::REQ_STATS => RequestBody::Stats {
                include_state_checksum: c.bool()?,
            },
            tag::REQ_CLUSTER_OF => RequestBody::ClusterOf(c.vertex()?),
            tag::REQ_CHECKPOINT_NOW => RequestBody::CheckpointNow,
            tag::REQ_DRAIN => RequestBody::Drain,
            tag::REQ_SUBSCRIBE => RequestBody::Subscribe {
                from_seq: c.opt_u64()?,
            },
            _ => return Err(WireError::Malformed("unknown request tag")),
        };
        c.finish()?;
        Ok(Request { id, body })
    }
}

fn put_kind(out: &mut Vec<u8>, kind: SnapshotKind) {
    out.push(match kind {
        SnapshotKind::Full => tag::KIND_FULL,
        SnapshotKind::Delta => tag::KIND_DELTA,
    });
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.id);
        match &self.body {
            ResponseBody::Applied { epoch, flips } => {
                out.push(tag::RESP_APPLIED);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *flips);
            }
            ResponseBody::BatchApplied {
                epoch,
                applied,
                rejected,
                flips,
            } => {
                out.push(tag::RESP_BATCH_APPLIED);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *applied);
                put_u64(&mut out, *rejected);
                put_u64(&mut out, *flips);
            }
            ResponseBody::Groups {
                epoch,
                checkpoint_seq,
                groups,
            } => {
                assert!(groups.len() <= MAX_GROUPS, "groups exceed protocol cap");
                out.push(tag::RESP_GROUPS);
                put_u64(&mut out, *epoch);
                put_opt_u64(&mut out, *checkpoint_seq);
                put_u32(&mut out, groups.len() as u32);
                for group in groups {
                    assert!(group.len() <= MAX_GROUPS, "group exceeds protocol cap");
                    put_u32(&mut out, group.len() as u32);
                    for &v in group {
                        put_vertex(&mut out, v);
                    }
                }
            }
            ResponseBody::Stats(stats) => {
                out.push(tag::RESP_STATS);
                put_string(&mut out, &stats.algorithm);
                put_u64(&mut out, stats.epoch);
                put_u64(&mut out, stats.num_vertices);
                put_u64(&mut out, stats.num_edges);
                put_u64(&mut out, stats.queued_updates);
                put_u64(&mut out, stats.connections);
                put_u64(&mut out, stats.checkpoints_written);
                out.push(u8::from(stats.draining));
                put_opt_u64(&mut out, stats.state_checksum);
                put_opt_u64(&mut out, stats.last_checkpoint_seq);
            }
            ResponseBody::CheckpointDone {
                sequence,
                kind,
                updates_applied,
                payload_len,
            } => {
                out.push(tag::RESP_CHECKPOINT_DONE);
                put_u64(&mut out, *sequence);
                put_kind(&mut out, *kind);
                put_u64(&mut out, *updates_applied);
                put_u64(&mut out, *payload_len);
            }
            ResponseBody::DrainStarted { epoch } => {
                out.push(tag::RESP_DRAIN_STARTED);
                put_u64(&mut out, *epoch);
            }
            ResponseBody::Rejected(reason) => {
                out.push(tag::RESP_REJECTED);
                match *reason {
                    RejectReason::DuplicateInsert { u, v } => {
                        out.push(tag::REJECT_DUPLICATE_INSERT);
                        put_vertex(&mut out, u);
                        put_vertex(&mut out, v);
                    }
                    RejectReason::MissingDelete { u, v } => {
                        out.push(tag::REJECT_MISSING_DELETE);
                        put_vertex(&mut out, u);
                        put_vertex(&mut out, v);
                    }
                    RejectReason::InvalidVertex { v } => {
                        out.push(tag::REJECT_INVALID_VERTEX);
                        put_vertex(&mut out, v);
                    }
                }
            }
            ResponseBody::Overloaded { retry_after_millis } => {
                out.push(tag::RESP_OVERLOADED);
                put_u64(&mut out, *retry_after_millis);
            }
            ResponseBody::Draining => out.push(tag::RESP_DRAINING),
            ResponseBody::ServerError { message } => {
                out.push(tag::RESP_SERVER_ERROR);
                put_string(&mut out, message);
            }
            ResponseBody::ShipDocument { seq, kind, payload } => {
                assert!(
                    payload.len() <= MAX_SHIP_DOC_BYTES,
                    "shipped document exceeds protocol cap"
                );
                out.push(tag::RESP_SHIP_DOCUMENT);
                put_u64(&mut out, *seq);
                put_kind(&mut out, *kind);
                put_u32(&mut out, payload.len() as u32);
                out.extend_from_slice(payload);
            }
            ResponseBody::ReplicaCaughtUp { seq } => {
                out.push(tag::RESP_REPLICA_CAUGHT_UP);
                put_opt_u64(&mut out, *seq);
            }
            ResponseBody::ReadOnly => out.push(tag::RESP_READ_ONLY),
        }
        out
    }

    /// Decode from a frame payload.  Never panics.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(payload);
        let id = c.u64()?;
        let body = match c.u8()? {
            tag::RESP_APPLIED => ResponseBody::Applied {
                epoch: c.u64()?,
                flips: c.u64()?,
            },
            tag::RESP_BATCH_APPLIED => ResponseBody::BatchApplied {
                epoch: c.u64()?,
                applied: c.u64()?,
                rejected: c.u64()?,
                flips: c.u64()?,
            },
            tag::RESP_GROUPS => {
                let epoch = c.u64()?;
                let checkpoint_seq = c.opt_u64()?;
                let n = c.count(MAX_GROUPS, 4)?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = c.count(MAX_GROUPS, 4)?;
                    let mut group = Vec::with_capacity(len);
                    for _ in 0..len {
                        group.push(c.vertex()?);
                    }
                    groups.push(group);
                }
                ResponseBody::Groups {
                    epoch,
                    checkpoint_seq,
                    groups,
                }
            }
            tag::RESP_STATS => {
                let algorithm = c.string(256)?;
                let epoch = c.u64()?;
                let num_vertices = c.u64()?;
                let num_edges = c.u64()?;
                let queued_updates = c.u64()?;
                let connections = c.u64()?;
                let checkpoints_written = c.u64()?;
                let draining = c.bool()?;
                let state_checksum = c.opt_u64()?;
                let last_checkpoint_seq = c.opt_u64()?;
                ResponseBody::Stats(StatsReply {
                    algorithm,
                    epoch,
                    num_vertices,
                    num_edges,
                    queued_updates,
                    connections,
                    checkpoints_written,
                    draining,
                    state_checksum,
                    last_checkpoint_seq,
                })
            }
            tag::RESP_CHECKPOINT_DONE => {
                let sequence = c.u64()?;
                let kind = match c.u8()? {
                    tag::KIND_FULL => SnapshotKind::Full,
                    tag::KIND_DELTA => SnapshotKind::Delta,
                    _ => return Err(WireError::Malformed("unknown snapshot kind tag")),
                };
                ResponseBody::CheckpointDone {
                    sequence,
                    kind,
                    updates_applied: c.u64()?,
                    payload_len: c.u64()?,
                }
            }
            tag::RESP_DRAIN_STARTED => ResponseBody::DrainStarted { epoch: c.u64()? },
            tag::RESP_REJECTED => {
                let reason = match c.u8()? {
                    tag::REJECT_DUPLICATE_INSERT => RejectReason::DuplicateInsert {
                        u: c.vertex()?,
                        v: c.vertex()?,
                    },
                    tag::REJECT_MISSING_DELETE => RejectReason::MissingDelete {
                        u: c.vertex()?,
                        v: c.vertex()?,
                    },
                    tag::REJECT_INVALID_VERTEX => RejectReason::InvalidVertex { v: c.vertex()? },
                    _ => return Err(WireError::Malformed("unknown reject reason tag")),
                };
                ResponseBody::Rejected(reason)
            }
            tag::RESP_OVERLOADED => ResponseBody::Overloaded {
                retry_after_millis: c.u64()?,
            },
            tag::RESP_DRAINING => ResponseBody::Draining,
            tag::RESP_SERVER_ERROR => ResponseBody::ServerError {
                message: c.string(4096)?,
            },
            tag::RESP_SHIP_DOCUMENT => {
                let seq = c.u64()?;
                let kind = match c.u8()? {
                    tag::KIND_FULL => SnapshotKind::Full,
                    tag::KIND_DELTA => SnapshotKind::Delta,
                    _ => return Err(WireError::Malformed("unknown snapshot kind tag")),
                };
                let len = c.count(MAX_SHIP_DOC_BYTES, 1)?;
                ResponseBody::ShipDocument {
                    seq,
                    kind,
                    payload: c.take(len)?.to_vec(),
                }
            }
            tag::RESP_REPLICA_CAUGHT_UP => ResponseBody::ReplicaCaughtUp { seq: c.opt_u64()? },
            tag::RESP_READ_ONLY => ResponseBody::ReadOnly,
            _ => return Err(WireError::Malformed("unknown response tag")),
        };
        c.finish()?;
        Ok(Response { id, body })
    }
}

/// Frame and write one request.
pub fn write_request(w: &mut dyn std::io::Write, request: &Request) -> Result<(), WireError> {
    crate::frame::write_frame(w, &request.encode())
}

/// Read and decode one request frame.
pub fn read_request(r: &mut dyn std::io::Read) -> Result<Request, WireError> {
    Request::decode(&crate::frame::read_frame(r)?)
}

/// Frame and write one response.
pub fn write_response(w: &mut dyn std::io::Write, response: &Response) -> Result<(), WireError> {
    crate::frame::write_frame(w, &response.encode())
}

/// Read and decode one response frame.
pub fn read_response(r: &mut dyn std::io::Read) -> Result<Response, WireError> {
    Response::decode(&crate::frame::read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_requests() -> Vec<Request> {
        vec![
            Request {
                id: 1,
                body: RequestBody::Apply(GraphUpdate::Insert(VertexId(0), VertexId(1))),
            },
            Request {
                id: 2,
                body: RequestBody::BatchApply(vec![
                    GraphUpdate::Insert(VertexId(2), VertexId(3)),
                    GraphUpdate::Delete(VertexId(0), VertexId(1)),
                ]),
            },
            Request {
                id: 3,
                body: RequestBody::GroupBy(vec![VertexId(0), VertexId(5), VertexId(9)]),
            },
            Request {
                id: 4,
                body: RequestBody::Stats {
                    include_state_checksum: true,
                },
            },
            Request {
                id: 5,
                body: RequestBody::CheckpointNow,
            },
            Request {
                id: 6,
                body: RequestBody::Drain,
            },
            Request {
                id: 7,
                body: RequestBody::ClusterOf(VertexId(42)),
            },
            Request {
                id: 8,
                body: RequestBody::Subscribe { from_seq: Some(11) },
            },
            Request {
                id: 9,
                body: RequestBody::Subscribe { from_seq: None },
            },
        ]
    }

    pub(crate) fn sample_responses() -> Vec<Response> {
        vec![
            Response {
                id: 1,
                body: ResponseBody::Applied { epoch: 7, flips: 2 },
            },
            Response {
                id: 2,
                body: ResponseBody::BatchApplied {
                    epoch: 9,
                    applied: 2,
                    rejected: 0,
                    flips: 3,
                },
            },
            Response {
                id: 3,
                body: ResponseBody::Groups {
                    epoch: 9,
                    checkpoint_seq: Some(4),
                    groups: vec![vec![VertexId(0), VertexId(5)], vec![VertexId(9)]],
                },
            },
            Response {
                id: 11,
                body: ResponseBody::Groups {
                    epoch: 0,
                    checkpoint_seq: None,
                    groups: vec![],
                },
            },
            Response {
                id: 4,
                body: ResponseBody::Stats(StatsReply {
                    algorithm: "DynStrClu".into(),
                    epoch: 9,
                    num_vertices: 14,
                    num_edges: 35,
                    queued_updates: 3,
                    connections: 2,
                    checkpoints_written: 1,
                    draining: false,
                    state_checksum: Some(0xdead_beef),
                    last_checkpoint_seq: Some(4),
                }),
            },
            Response {
                id: 5,
                body: ResponseBody::CheckpointDone {
                    sequence: 4,
                    kind: SnapshotKind::Full,
                    updates_applied: 9,
                    payload_len: 1234,
                },
            },
            Response {
                id: 6,
                body: ResponseBody::DrainStarted { epoch: 9 },
            },
            Response {
                id: 7,
                body: ResponseBody::Rejected(RejectReason::DuplicateInsert {
                    u: VertexId(0),
                    v: VertexId(1),
                }),
            },
            Response {
                id: 8,
                body: ResponseBody::Overloaded {
                    retry_after_millis: 25,
                },
            },
            Response {
                id: UNSOLICITED_ID,
                body: ResponseBody::Draining,
            },
            Response {
                id: 10,
                body: ResponseBody::ServerError {
                    message: "engine unavailable".into(),
                },
            },
            Response {
                id: 12,
                body: ResponseBody::ShipDocument {
                    seq: 5,
                    kind: SnapshotKind::Delta,
                    payload: vec![0xaa, 0xbb, 0xcc],
                },
            },
            Response {
                id: 12,
                body: ResponseBody::ReplicaCaughtUp { seq: Some(5) },
            },
            Response {
                id: 13,
                body: ResponseBody::ReplicaCaughtUp { seq: None },
            },
            Response {
                id: 14,
                body: ResponseBody::ReadOnly,
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for request in sample_requests() {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for response in sample_responses() {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn typed_rejections() {
        // Reserved id.
        let mut bytes = sample_requests()[0].encode();
        bytes[0..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Malformed("request id 0 is reserved"))
        ));
        // Unknown tag.
        let mut bytes = sample_requests()[0].encode();
        bytes[8] = 0xff;
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Malformed(_))
        ));
        // Trailing bytes.
        let mut bytes = sample_requests()[0].encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Malformed("trailing bytes after message"))
        ));
        // Over-cap count with no backing bytes is a truncation.
        let mut req = Vec::new();
        req.extend_from_slice(&1u64.to_le_bytes());
        req.push(super::tag::REQ_BATCH_APPLY);
        req.extend_from_slice(&10_000u32.to_le_bytes());
        assert!(matches!(Request::decode(&req), Err(WireError::Truncated)));
        // A count over the protocol cap is malformed even if bytes exist.
        let mut req = Vec::new();
        req.extend_from_slice(&1u64.to_le_bytes());
        req.push(super::tag::REQ_GROUP_BY);
        req.extend_from_slice(&(MAX_QUERY_VERTICES as u32 + 1).to_le_bytes());
        req.resize(req.len() + 4 * (MAX_QUERY_VERTICES + 1), 0);
        assert!(matches!(
            Request::decode(&req),
            Err(WireError::Malformed("element count exceeds protocol cap"))
        ));
    }
}
