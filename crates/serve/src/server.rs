//! The server: lifecycle (start → accept → drain → final checkpoint →
//! exit) and the state shared by every connection.
//!
//! One engine, many connections, one thread per connection: each
//! connection's thread reads, executes and answers its requests in turn.
//! All *writes* funnel onto a single [`Session`] behind a mutex, which
//! gives the service its consistency model — a single global apply
//! order, with every acknowledged update applied *before* its
//! acknowledgement is written (see the crate docs for the full
//! contract).  The engine lock is never held across a socket write, so
//! one stuck client can only stall its own connection.
//!
//! Clustering *queries* (`GroupBy` / `ClusterOf`) are answered from the
//! session's published [`EpochSnapshot`](dynscan_core::EpochSnapshot)
//! whenever it already covers the connection's acknowledged writes, so
//! readers never contend on the engine lock while a batch applies — see
//! `dynscan_core::epoch` for the epoch-atomic, bounded-stale model and
//! [`conn::execute`](crate::conn) for the read-your-writes floor check.
//!
//! Crash safety: on start the server resumes from the checkpoint
//! directory's chain if one exists ([`DirCheckpointStore::read_chain`] →
//! `build_resuming_from_chain`), and a graceful drain finishes with a
//! full checkpoint through [`Session::drain`] — so `SIGTERM` never loses
//! acknowledged updates, and a hard kill loses at most the acknowledged
//! suffix since the last completed checkpoint.

use crate::conn;
use crate::drain::{install_sigterm_handler, DrainFlag};
use crate::publish::{PublishHub, PublishingStore};
use dynscan_core::sync::atomic::{AtomicU64, Ordering};
use dynscan_core::sync::{Arc, Mutex};
use dynscan_core::{
    Backend, DirCheckpointStore, EpochReadHandle, Params, Session, SessionError, SnapshotInfo,
};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// Server configuration.  `ServeConfig::new("127.0.0.1:0")` gives
/// conservative defaults; every field is public for direct adjustment.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Engine backend for a fresh start (ignored when resuming — the
    /// chain determines the algorithm).
    pub backend: Backend,
    /// Engine parameters for a fresh start (ignored when resuming).
    pub params: Params,
    /// Checkpoint directory.  `None` disables durability entirely: no
    /// resume on start, no final checkpoint on drain.
    pub checkpoint_dir: Option<PathBuf>,
    /// Automatic checkpoint cadence in applied updates (`None`: only the
    /// drain checkpoint and explicit `CheckpointNow` requests write).
    pub checkpoint_every: Option<u64>,
    /// Every k-th automatic checkpoint is full, the rest deltas.
    pub full_every: u64,
    /// Retain the last n full-snapshot chains (`None`: keep everything).
    pub keep_last: Option<u64>,
    /// Write automatic checkpoints on a background pool thread.
    pub background_checkpoints: bool,
    /// Engine worker threads (`None`: the engine's default pool).
    pub threads: Option<usize>,
    /// Overload cap: updates in one request (a connection holds at most
    /// one request at a time).
    pub max_conn_queued_updates: u64,
    /// Overload cap: updates in flight across all connections.
    pub max_global_queued_updates: u64,
    /// Vertex-id bound: an update naming a vertex id at or above it is
    /// rejected as `InvalidVertex` before the engine sees it, so one
    /// request cannot make the engine allocate for billions of vertices.
    pub max_vertices: u32,
    /// Socket write timeout: a reply blocked longer than this tears the
    /// connection down instead of wedging a server thread on a stuck
    /// reader.
    pub write_timeout: Duration,
}

impl ServeConfig {
    /// Defaults: DynStrClu, Jaccard ε = 0.5 / μ = 2, no durability,
    /// per-request cap 4096 updates, global cap 65 536, vertex ids below
    /// 2²², 5 s write timeout.
    pub fn new(addr: impl Into<String>) -> Self {
        ServeConfig {
            addr: addr.into(),
            backend: Backend::DynStrClu,
            params: Params::jaccard(0.5, 2),
            checkpoint_dir: None,
            checkpoint_every: None,
            full_every: 8,
            keep_last: Some(2),
            background_checkpoints: false,
            threads: None,
            max_conn_queued_updates: 4096,
            max_global_queued_updates: 65_536,
            max_vertices: 1 << 22,
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener or reading the checkpoint directory failed.
    Io(std::io::Error),
    /// Building (or resuming) the engine session failed.
    Session(SessionError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Session(e) => write!(f, "session error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

/// How a drained server shut down.
#[derive(Debug)]
pub struct DrainReport {
    /// Updates applied over the server's lifetime (including any resumed
    /// prefix).
    pub updates_applied: u64,
    /// Metadata of the final full checkpoint (`None` without a
    /// checkpoint directory).
    pub final_checkpoint: Option<SnapshotInfo>,
    /// Why the final checkpoint failed, if it did.
    pub checkpoint_error: Option<String>,
}

/// State shared by the accept loop and every connection.
pub(crate) struct Shared {
    /// The one engine; never lock across a socket write.
    pub(crate) engine: Mutex<Session>,
    /// Lock-free read handle onto the engine's published label epochs
    /// (obtained from `Session::enable_epoch_reads` before the engine
    /// went behind the mutex).  Queries served from it never touch
    /// [`Shared::engine`].
    pub(crate) epoch: EpochReadHandle,
    /// Queries answered from the epoch snapshot instead of the engine
    /// lock (observability for tests and operators).
    pub(crate) epoch_reads: AtomicU64,
    /// Updates in requests that are executing, across all connections.
    pub(crate) queued: AtomicU64,
    /// Live connections.
    pub(crate) connections: AtomicU64,
    /// The drain latch (also observes SIGTERM).
    pub(crate) drain: DrainFlag,
    /// Fan-out of completed checkpoint documents to replication streams
    /// (fed by the [`PublishingStore`] wrapped around the engine's
    /// checkpoint store; idle without a checkpoint directory).
    pub(crate) hub: Arc<PublishHub>,
    /// Overload caps, the vertex bound and timeouts.
    pub(crate) cfg: ServeConfig,
}

/// A running server.  Dropping the handle does **not** stop it; trip
/// [`Server::drain_flag`] (or send a `Drain` request / SIGTERM) and then
/// [`Server::wait`] for the report.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<DrainReport>>,
}

impl Server {
    /// Build (or resume) the engine, bind the listener, arm the SIGTERM
    /// latch, and start accepting connections.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        // The chain may have been written by any registered backend.
        dynscan_baseline::install();
        install_sigterm_handler();
        let hub = Arc::new(PublishHub::new());
        let mut session = build_session(&cfg, &hub)?;
        // Publication must be live before the first connection: every
        // later mutation republishes under the engine lock, so the
        // handle's readers are never more than one batch behind.
        let epoch = session.enable_epoch_reads();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Mutex::new(session),
            epoch,
            epoch_reads: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            drain: DrainFlag::new(),
            hub,
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("dynscan-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawning the accept thread");
        Ok(Server {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle to the drain latch: tripping it is equivalent to an
    /// in-band `Drain` request or SIGTERM.
    pub fn drain_flag(&self) -> DrainFlag {
        self.shared.drain.clone()
    }

    /// Queries answered from the published epoch snapshot (no engine
    /// lock) since start.  `GroupBy` / `ClusterOf` fall back to the lock
    /// only when the snapshot does not yet cover the connection's own
    /// acknowledged writes, so in steady state this counts every
    /// clustering query.
    pub fn epoch_reads_served(&self) -> u64 {
        self.shared.epoch_reads.load(Ordering::SeqCst)
    }

    /// Block until the server has drained (flag tripped, connections
    /// closed, final checkpoint written) and return the report.
    pub fn wait(mut self) -> DrainReport {
        self.accept
            .take()
            .expect("wait is called once, by value")
            .join()
            .expect("accept loop never panics")
    }
}

/// Resume from the checkpoint directory's chain when one exists, build
/// fresh otherwise.  The store is wrapped in a [`PublishingStore`] so
/// every completed checkpoint fans out to subscribed replication
/// streams.
fn build_session(cfg: &ServeConfig, hub: &Arc<PublishHub>) -> Result<Session, ServeError> {
    let mut builder = Session::builder()
        .backend(cfg.backend)
        .params(cfg.params)
        .full_every(cfg.full_every)
        .background_checkpoints(cfg.background_checkpoints);
    if let Some(threads) = cfg.threads {
        builder = builder.threads(threads);
    }
    if let Some(every) = cfg.checkpoint_every {
        builder = builder.checkpoint_every(every);
    }
    if let Some(keep) = cfg.keep_last {
        builder = builder.keep_last(keep);
    }
    let Some(dir) = &cfg.checkpoint_dir else {
        return Ok(builder.build()?);
    };
    std::fs::create_dir_all(dir)?;
    let store = DirCheckpointStore::new(dir);
    let publishing = PublishingStore::new(DirCheckpointStore::new(dir), Arc::clone(hub));
    match store.read_chain() {
        Ok(docs) => Ok(builder
            .checkpoint_store(publishing)
            .build_resuming_from_chain(&docs)?),
        // No full snapshot yet: a fresh start writing into the same dir.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(builder.checkpoint_store(publishing).build()?)
        }
        Err(e) => Err(ServeError::Io(e)),
    }
}

/// Accept until the drain latch trips, then run the drain sequence:
/// stop accepting (no new connections; connections refuse new
/// requests), wait for every connection to finish the request it is
/// executing and close with a terminal reply, then flush the engine and
/// take the final full checkpoint.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> DrainReport {
    use dynscan_core::sync::atomic::Ordering;
    while !shared.drain.is_tripped() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("dynscan-serve-conn".into())
                    .spawn(move || conn::handle_connection(stream, &conn_shared));
                if spawned.is_err() {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            // Transient accept failures (per-connection resource errors)
            // must not kill the server.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener);
    // Connections observe the latch within their read-poll interval,
    // finish the request in hand, reply terminally, and close.
    while shared.connections.load(Ordering::SeqCst) > 0 {
        thread::sleep(Duration::from_millis(2));
    }
    let mut engine = shared.engine.lock().unwrap_or_else(|p| p.into_inner());
    let (final_checkpoint, checkpoint_error) = match engine.drain() {
        Ok(info) => (info, None),
        Err(e) => (None, Some(e.to_string())),
    };
    DrainReport {
        updates_applied: engine.updates_applied(),
        final_checkpoint,
        checkpoint_error,
    }
}
