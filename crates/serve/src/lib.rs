//! # dynscan-serve
//!
//! Clustering-as-a-service: a crash-safe, backpressured TCP front-end
//! over the `dynscan` [`Session`](dynscan_core::Session) — the service
//! layer the durability stack (incremental background checkpoints,
//! retention, chain resume) was built for.
//!
//! The server ([`Server`]) is thread-per-connection over
//! `std::net::TcpListener`: each connection's one thread reads,
//! executes and answers its requests in turn.  It speaks a hand-rolled
//! length-prefixed, versioned, FNV-checksummed framed protocol
//! ([`frame`], [`proto`]) with typed requests — `Apply`, `BatchApply`,
//! `GroupBy`, `Stats`, `CheckpointNow`, `Drain` — all routed onto
//! **one** shared engine.
//! The client library ([`Client`]) adds a
//! retry/timeout/exponential-backoff-with-jitter policy on top.
//!
//! ## The consistency contract
//!
//! All requests from all connections are applied to a single engine
//! under one lock, which yields one **global total order** of updates;
//! the *epoch* in every acknowledgement is the count of updates applied
//! when the operation finished, i.e. the operation's position in that
//! order.  Precisely:
//!
//! * **Acknowledged writes are visible** (read-your-writes and more):
//!   when a client receives `Applied{epoch}` / `BatchApplied{epoch}`,
//!   the update(s) were already applied to the engine *before* the
//!   acknowledgement was sent.  Every `GroupBy` — by this client or any
//!   other — whose processing starts after that moment observes a state
//!   that includes them; its `Groups{epoch}` carries an epoch ≥ the
//!   write's.  A client's own later `GroupBy` therefore always observes
//!   at least its own acknowledged updates (the [`Client`] handle
//!   additionally *verifies* this, failing with a protocol error if the
//!   observed epoch ever ran backwards past its acknowledged floor).
//! * **Concurrent clients observe a prefix**: a query observes exactly
//!   the first `epoch` updates of the global order — never a gap, never
//!   a reordering.  Two concurrent queries may observe different epochs,
//!   but always two prefixes of the *same* order (one extends the
//!   other).  Unacknowledged updates (in flight, refused with
//!   `Overloaded`, or lost with a dead connection) may or may not be in
//!   that prefix; no guarantee attaches to them until their
//!   acknowledgement arrives.
//! * **Acknowledged-implies-durable, up to the last checkpoint**: with a
//!   checkpoint directory configured, a *graceful* drain (SIGTERM or a
//!   `Drain` request) lets every executing request finish and ends with
//!   a full checkpoint, so nothing acknowledged is lost.  After a *crash*
//!   (kill -9), restart resumes from the newest stored chain: the state
//!   is byte-identical to the global order's prefix at the last
//!   completed checkpoint — every update acknowledged *before* that
//!   checkpoint survives; acknowledged updates *after* it are lost with
//!   the crash (the gap is bounded by the checkpoint cadence plus any
//!   in-flight write).  The kill-and-resume fault-injection test pins
//!   exactly this characterisation.
//! * **Overload is typed, not buffered**: a connection holds at most one
//!   decoded request, so a client that pipelines is held back by TCP
//!   flow control, not by a server-side queue.  A request that would
//!   push the updates in flight across all connections past the global
//!   cap is answered `Overloaded{retry_after}` at once and not executed;
//!   one carrying more updates than either cap could ever admit gets a
//!   `ServerError` naming its weight and the cap, which the client
//!   surfaces at once instead of retrying.  Every request read is
//!   answered, in the order it was read, and a draining server closes
//!   every connection with a terminal typed reply, never a dropped
//!   socket mid-frame.
//!
//! ## Wire discipline
//!
//! The framing mirrors the snapshot codec it lives next to: magic bytes,
//! an explicit protocol version, length fields checked against both hard
//! caps and bytes-remaining, and an FNV-1a payload checksum.  Decoding
//! **never panics** on truncated or bit-flipped input — the corruption
//! proptests drive every truncation and every single-bit flip of valid
//! frames through both decoders.  Vertex ids are bounded as well: an
//! update naming an id at or above [`ServeConfig::max_vertices`] is
//! rejected `InvalidVertex` before the engine allocates anything for it.
//!
//! ## Replication stream
//!
//! Protocol version 2 adds the primary side of snapshot-shipping
//! replication: a `Subscribe{from_seq}` request turns the connection
//! into a push stream read from the primary's checkpoint directory, the
//! one replication feed.  The stream polls the directory
//! (`DirCheckpointStore::poll_since`) and ships what it lists after the
//! subscriber's position (`ShipDocument` frames, byte-identical to the
//! on-disk documents), marks the end of its first poll with
//! `ReplicaCaughtUp`, then keeps shipping new documents as the primary
//! writes them.  A position the directory no longer retains — pruned
//! by retention before the subscriber connected or while it streamed —
//! continues from the newest full snapshot, which the replica applies
//! wholesale.  The directory is fsync'd before a poll's documents ship,
//! so a replica can never apply state the primary could lose; and a
//! stream holds at most one poll's documents, so a slow subscriber
//! costs the primary no memory beyond that.  Query replies (`Groups`,
//! `Stats`) carry the answering engine's checkpoint sequence alongside
//! the epoch, giving routing layers a precise bounded-staleness signal.
//!
//! ## Replicas
//!
//! A replica is a read-only mode of the same [`Server`]
//! ([`ServeConfig::replica_of`]; `dynscan-served --primary ADDR` or
//! `--tail-dir DIR`).  It rebuilds the primary's engine by replaying the
//! primary's own checkpoint documents — the full snapshots and deltas
//! the primary writes for crash recovery double as its replication log.
//! Because the snapshot encoding is canonical and replay is
//! bit-identical, a caught-up replica's state re-serialises to the
//! primary's checkpoint bytes exactly, which the replica harness asserts
//! against a sequential oracle.  Documents arrive on one of two paths:
//!
//! * **Tail** ([`ReplicaSource::Tail`]) — poll a checkpoint directory
//!   shared with the primary, the same reads a replication stream makes.
//!   Retention pruning racing the tail surfaces as a typed chain gap and
//!   triggers a full resync from the newest full snapshot.
//! * **Subscribe** ([`ReplicaSource::Subscribe`]) — the replication
//!   stream above.  With a mirror directory configured, every applied
//!   document is also written locally, producing an on-disk chain a
//!   primary can later resume from — that is replica **promotion**, and
//!   the resumed chain continues byte-identically.
//!
//! After every applied document the ingest thread publishes an epoch
//! snapshot, so a replica answers `GroupBy`, `ClusterOf` and
//! checksum-free `Stats` without a lock, exactly as a primary does;
//! writes, `CheckpointNow` and `Subscribe` are refused with `ReadOnly`.
//! Before its first full snapshot, and after a resync reset, a replica
//! serves the empty epoch: epoch 0, no checkpoint sequence, no clusters.
//!
//! Replication is asynchronous: an acknowledged write is durable on the
//! primary (per its checkpoint cadence) before it is *visible* on any
//! replica, a gap bounded by the checkpoint cadence plus shipping
//! latency.  Every replica reply therefore carries the replication
//! position backing it (`epoch`, `checkpoint_seq`), and [`RoutedClient`]
//! turns that into the client-side contract: writes and
//! read-your-writes reads go to the primary, bounded-staleness reads go
//! to replicas with every reply's epoch checked against the primary's
//! acknowledged floor — a stale reply is retried and then re-routed,
//! never silently returned.

pub mod client;
pub mod conn;
pub mod drain;
pub mod frame;
pub mod proto;
mod replica;
mod route;
pub mod server;

pub use client::{BatchAck, CheckpointAck, Client, ClientError, GroupsAck, RetryPolicy};
pub use drain::DrainFlag;
pub use frame::{WireError, PROTOCOL_VERSION};
pub use proto::{RejectReason, Request, RequestBody, Response, ResponseBody, StatsReply};
pub use replica::ReplicaSource;
pub use route::RoutedClient;
pub use server::{DrainReport, ServeConfig, ServeError, Server};
