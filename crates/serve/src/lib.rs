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
//!   flow control, not by a server-side queue.  A request carrying more
//!   updates than the per-request cap, or one that would push the
//!   updates in flight across all connections past the global cap, is
//!   answered `Overloaded{retry_after}` at once and not executed.  Every
//!   request read is answered, in the order it was read, and a draining
//!   server closes every connection with a terminal typed reply, never a
//!   dropped socket mid-frame.
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
//! replication (the replica side lives in `dynscan-replica`): a
//! `Subscribe{from_seq}` request turns the connection into a push
//! stream — the server ships the checkpoint backlog (`ShipDocument`
//! frames, byte-identical to the on-disk documents), marks the backlog's
//! end with `ReplicaCaughtUp`, then forwards every newly completed
//! checkpoint as the [`publish::PublishingStore`] tees it out of the
//! engine's store.  Documents are published to subscribers only **after**
//! they are durable on the primary, so a replica can never apply state
//! the primary could lose; a subscriber that falls behind its bounded
//! queue is told to resync (the same typed-gap contract as
//! `CheckpointStore::poll_since` under retention pruning).  Query
//! replies (`Groups`, `Stats`) carry the answering engine's checkpoint
//! sequence alongside the epoch, giving routing layers a precise
//! bounded-staleness signal.

pub mod client;
pub mod conn;
pub mod drain;
pub mod frame;
pub mod proto;
pub mod publish;
pub mod server;

pub use client::{BatchAck, CheckpointAck, Client, ClientError, GroupsAck, RetryPolicy};
pub use conn::{read_frame_polling, FrameRead};
pub use drain::{install_sigterm_handler, DrainFlag};
pub use frame::{WireError, PROTOCOL_VERSION};
pub use proto::{RejectReason, Request, RequestBody, Response, ResponseBody, StatsReply};
pub use publish::{PublishHub, PublishingStore, ShippedDoc, Subscription};
pub use server::{DrainReport, ServeConfig, ServeError, Server};
