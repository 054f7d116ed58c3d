//! The read-only replica server: one ingest thread keeps a
//! [`ReplicaState`] converging on the primary's chain, an accept loop
//! serves `GroupBy` / `ClusterOf` / `Stats` over the same framed
//! protocol as the primary, and every write-shaped request is refused
//! with `ReadOnly` so clients route it to the primary.
//!
//! Every query reply carries the replica's replication position — the
//! epoch covered by the applied checkpoint prefix and its sequence
//! number — which is what lets a routed client enforce an epoch floor
//! (see [`crate::route`]).

use crate::engine::ReplicaState;
use crate::ingest;
use dynscan_core::sync::atomic::{AtomicU64, Ordering};
use dynscan_core::sync::{thread, Arc, Mutex};
use dynscan_core::{DirCheckpointStore, VertexId};
use dynscan_graph::snapshot::fnv1a;
use dynscan_serve::proto::UNSOLICITED_ID;
use dynscan_serve::{
    read_frame_polling, DrainFlag, FrameRead, Request, RequestBody, Response, ResponseBody,
    StatsReply, WireError,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
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

/// Replica server configuration.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Where documents come from.
    pub source: ReplicaSource,
    /// Socket write timeout for query replies.
    pub write_timeout: Duration,
}

impl ReplicaConfig {
    /// A replica on `addr` fed from `source`, with a 5 s write timeout.
    pub fn new(addr: impl Into<String>, source: ReplicaSource) -> Self {
        ReplicaConfig {
            addr: addr.into(),
            source,
            write_timeout: Duration::from_secs(5),
        }
    }
}

struct Shared {
    /// The replayed state; shared with the ingest thread.
    state: Arc<Mutex<ReplicaState>>,
    /// Live connections (the stop sequence waits for them).
    connections: AtomicU64,
    /// Stop latch (also observes SIGTERM).
    stop: DrainFlag,
    cfg: ReplicaConfig,
}

/// How a stopped replica shut down.
#[derive(Debug)]
pub struct ReplicaReport {
    /// Documents applied over the replica's lifetime.
    pub docs_applied: u64,
    /// Full resyncs performed (initial sync included).
    pub full_resyncs: u64,
    /// The replication position at shutdown.
    pub applied_seq: Option<u64>,
    /// The epoch at shutdown.
    pub epoch: u64,
}

/// A running read-only replica.  Dropping the handle does **not** stop
/// it; trip [`ReplicaServer::stop_flag`] (or send a `Drain` request /
/// SIGTERM) and then [`ReplicaServer::wait`] for the report.
pub struct ReplicaServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    ingest: Option<thread::JoinHandle<()>>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ReplicaServer {
    /// Bind the listener, arm the SIGTERM latch, and start the ingest
    /// and accept threads.
    pub fn start(cfg: ReplicaConfig) -> std::io::Result<ReplicaServer> {
        // Shipped documents may have been written by any registered
        // backend.
        dynscan_baseline::install();
        dynscan_serve::install_sigterm_handler();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Arc::new(Mutex::new(ReplicaState::new())),
            connections: AtomicU64::new(0),
            stop: DrainFlag::new(),
            cfg,
        });
        let ingest = {
            let state = Arc::clone(&shared.state);
            let stop = shared.stop.clone();
            match shared.cfg.source.clone() {
                ReplicaSource::Tail { dir, poll_interval } => thread::spawn(move || {
                    ingest::tail_loop(DirCheckpointStore::new(dir), state, stop, poll_interval)
                }),
                ReplicaSource::Subscribe {
                    primary_addr,
                    mirror_dir,
                } => thread::spawn(move || {
                    ingest::subscribe_loop(primary_addr, state, stop, mirror_dir)
                }),
            }
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(ReplicaServer {
            local_addr,
            shared,
            ingest: Some(ingest),
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle to the stop latch: tripping it is equivalent to an
    /// in-band `Drain` request or SIGTERM.
    pub fn stop_flag(&self) -> DrainFlag {
        self.shared.stop.clone()
    }

    /// The replication position right now (applied sequence, epoch) —
    /// for tests and benches that wait for catch-up.
    pub fn position(&self) -> (Option<u64>, u64) {
        let state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        (state.applied_seq(), state.epoch())
    }

    /// Whether the ingest source has reported catch-up at least once.
    pub fn is_caught_up(&self) -> bool {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_caught_up()
    }

    /// Block until the replica has stopped (latch tripped, ingest and
    /// connections wound down) and return the report.
    pub fn wait(mut self) -> ReplicaReport {
        for handle in [self.ingest.take(), self.accept.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
        let state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        ReplicaReport {
            docs_applied: state.docs_applied(),
            full_resyncs: state.full_resyncs(),
            applied_seq: state.applied_seq(),
            epoch: state.epoch(),
        }
    }
}

/// Accept until the stop latch trips, then wait for the connections to
/// observe it and close.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.is_tripped() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                thread::spawn(move || {
                    handle_connection(stream, &conn_shared);
                    conn_shared.connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            // Transient accept failures must not kill the replica.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener);
    while shared.connections.load(Ordering::SeqCst) > 0 {
        thread::sleep(Duration::from_millis(2));
    }
}

/// Serve one connection: queries are answered from the replayed state,
/// writes refused with `ReadOnly`, `Drain` trips the replica's own stop
/// latch.  Queries never hold the state lock across a socket write.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    loop {
        let payload = match read_frame_polling(&mut stream, &shared.stop) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Drained) => return notify(&mut stream, ResponseBody::Draining),
            Ok(FrameRead::Eof) | Err(WireError::Io { .. }) => return,
            // Framing is lost (corruption, version mismatch): one typed
            // error, then close, as the primary does.
            Err(e) => return notify(&mut stream, server_error(&e)),
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => return notify(&mut stream, server_error(&e)),
        };
        let body = execute(&request.body, shared);
        let response = Response {
            id: request.id,
            body,
        };
        if dynscan_serve::proto::write_response(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Write an unsolicited notice to a connection that is closing (best
/// effort: a failed write changes nothing).
fn notify(stream: &mut TcpStream, body: ResponseBody) {
    let notice = Response {
        id: UNSOLICITED_ID,
        body,
    };
    let _ = dynscan_serve::proto::write_response(stream, &notice);
}

fn server_error(e: &WireError) -> ResponseBody {
    ResponseBody::ServerError {
        message: e.to_string(),
    }
}

/// Answer one request from the replayed state.
fn execute(body: &RequestBody, shared: &Arc<Shared>) -> ResponseBody {
    match body {
        RequestBody::GroupBy(q) => {
            let mut state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            let (epoch, checkpoint_seq) = (state.epoch(), state.applied_seq());
            let groups = state
                .engine_mut()
                .map_or_else(Vec::new, |engine| engine.cluster_group_by(q));
            ResponseBody::Groups {
                epoch,
                checkpoint_seq,
                groups,
            }
        }
        RequestBody::ClusterOf(v) => {
            // One extraction per applied document, shared by every read
            // at that epoch; the reply is built outside the state lock.
            let (epoch, checkpoint_seq, clustering) = {
                let mut state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
                (state.epoch(), state.applied_seq(), state.clustering())
            };
            let groups = clustering.map_or_else(Vec::new, |clustering| {
                clustering
                    .clusters_containing(*v)
                    .map(<[VertexId]>::to_vec)
                    .collect()
            });
            ResponseBody::Groups {
                epoch,
                checkpoint_seq,
                groups,
            }
        }
        RequestBody::Stats {
            include_state_checksum,
        } => {
            let state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            ResponseBody::Stats(StatsReply {
                algorithm: state
                    .engine()
                    .map_or("(replica, no snapshot yet)", |e| e.algorithm_name())
                    .to_string(),
                epoch: state.epoch(),
                num_vertices: state.engine().map_or(0, |e| e.num_vertices() as u64),
                num_edges: state.engine().map_or(0, |e| e.num_edges() as u64),
                queued_updates: 0,
                connections: shared.connections.load(Ordering::SeqCst),
                checkpoints_written: state.docs_applied(),
                draining: shared.stop.is_tripped(),
                state_checksum: include_state_checksum
                    .then(|| state.engine().map(|e| fnv1a(&e.checkpoint_bytes())))
                    .flatten(),
                last_checkpoint_seq: state.applied_seq(),
            })
        }
        RequestBody::Drain => {
            shared.stop.trip();
            let state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            ResponseBody::DrainStarted {
                epoch: state.epoch(),
            }
        }
        // Writes (and nested subscriptions) belong on the primary.
        RequestBody::Apply(_)
        | RequestBody::BatchApply(_)
        | RequestBody::CheckpointNow
        | RequestBody::Subscribe { .. } => ResponseBody::ReadOnly,
    }
}
