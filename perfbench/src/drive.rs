//! The served part of a run: start a `dynscan-serve` server in this
//! process, preload it, and drive it from closed-loop client threads
//! (one `Client` connection each, no think time).

use crate::gen::{next_query, Inputs, Query, CLIENTS};
use crate::workload::{Traffic, Workload, BATCH, CHECKPOINT_EVERY, PRELOAD_BATCH, READ_SHARE};
use dynscan_core::{Backend, GraphUpdate};
use dynscan_serve::{Client, ClientError, RetryPolicy, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A started, preloaded server and the inputs it was built from.
pub struct Served {
    /// The running server.
    pub server: Server,
    /// The run's inputs.
    pub inputs: Inputs,
    /// The checkpoint directory (durable workloads).
    pub dir: Option<PathBuf>,
}

/// Generate the inputs, start the server and preload the graph: the
/// work `setup_s` times.
pub fn setup(w: &Workload, seed: u64, dir: Option<&Path>) -> Result<Served, String> {
    let inputs = Inputs::generate(w.n, w.churn_len, seed);
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.backend = Backend::DynStrClu;
    cfg.params = w.params();
    cfg.max_conn_queued_updates = PRELOAD_BATCH as u64;
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
        cfg.checkpoint_dir = Some(dir.to_path_buf());
        cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
        cfg.background_checkpoints = true;
    }
    let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let mut client = connect(server.local_addr(), seed)?;
    for chunk in inputs.preload.chunks(PRELOAD_BATCH) {
        let ack = client
            .batch_apply(chunk)
            .map_err(|e| format!("preload: {e}"))?;
        if ack.rejected != 0 {
            return Err(format!("preload: {} updates rejected", ack.rejected));
        }
    }
    Ok(Served {
        server,
        inputs,
        dir: dir.map(Path::to_path_buf),
    })
}

/// Connect with the default retry policy and a per-client jitter seed.
pub fn connect(addr: SocketAddr, seed: u64) -> Result<Client, String> {
    let policy = RetryPolicy {
        seed,
        ..RetryPolicy::default()
    };
    Client::connect_with(addr, policy).map_err(|e| format!("connect: {e}"))
}

/// What a phase sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The workload's write traffic (`Apply` or `BatchApply`).
    Writes,
    /// Reads only.
    Reads,
    /// [`READ_SHARE`] reads, the rest `Apply`.
    Mixed,
}

/// An acknowledged write: its position in the global order and the
/// stream slice it carried.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    /// Epoch in the reply: updates applied when the request finished.
    pub epoch: u64,
    /// Client connection (stream) index.
    pub client: usize,
    /// First stream position of the request.
    pub start: usize,
    /// Updates in the request.
    pub len: usize,
    /// Sent as `BatchApply`.
    pub batch: bool,
}

/// A read with the epoch it observed (recorded in traced runs).
#[derive(Clone, Debug)]
pub struct Read {
    /// The query.
    pub query: Query,
    /// The epoch the reply carried.
    pub epoch: u64,
}

/// One client call, timed from the benchmark's side.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `serve.<kind>_call`.
    pub name: &'static str,
    /// Client connection.
    pub client: usize,
    /// Start, nanoseconds since the phase began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Epoch in the reply: the request's identifier in the replay.
    pub epoch: u64,
}

/// Everything one client observed in one phase.
#[derive(Default)]
pub struct ClientLog {
    /// Round trip of each acknowledged write request, µs.
    pub write_us: Vec<f64>,
    /// Round trip of each answered read, µs.
    pub read_us: Vec<f64>,
    /// Acknowledged writes.
    pub acks: Vec<Ack>,
    /// Reads (traced runs only).
    pub reads: Vec<Read>,
    /// Client spans (traced runs only).
    pub spans: Vec<Span>,
    /// Updates acknowledged.
    pub updates: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed with a `ClientError`.
    pub failed: u64,
    /// `Overloaded` replies the client retried.
    pub overload_retries: u64,
    /// First error seen, for the report.
    pub first_error: Option<String>,
    /// Stream position after the phase.
    pub next: usize,
}

/// The logs of every client in one phase and the phase's wall time.
pub struct PhaseLog {
    /// One per client connection.
    pub clients: Vec<ClientLog>,
    /// From the phase start until the last client finished.
    pub wall: Duration,
}

/// Latency samples per second and client reserved for a slice (well
/// above any request rate the service reaches on loopback).
const SAMPLES_PER_S_RESERVED: f64 = 1_000_000.0;

/// Drive `phase` for `secs` from [`CLIENTS`] closed-loop connections.
/// `next` is each client's stream position on entry.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    w: &Workload,
    addr: SocketAddr,
    inputs: &Inputs,
    phase: Phase,
    secs: f64,
    seed: u64,
    next: &[usize],
    trace: bool,
) -> PhaseLog {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(secs);
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stream = &inputs.streams[c];
                let start = next[c];
                scope.spawn(move || {
                    let op_seed = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1));
                    // Reserved up front: untouched pages stay out of the
                    // resident set, so `peak_rss_mb` grows with the
                    // samples taken instead of jumping at each doubling.
                    let capacity = (secs * SAMPLES_PER_S_RESERVED) as usize;
                    let mut log = ClientLog {
                        next: start,
                        write_us: Vec::with_capacity(capacity),
                        read_us: Vec::with_capacity(capacity),
                        ..ClientLog::default()
                    };
                    match connect(addr, op_seed) {
                        Ok(mut client) => {
                            let mut rng = SmallRng::seed_from_u64(op_seed ^ phase as u64);
                            let run = Loop {
                                w,
                                n: inputs.n,
                                c,
                                stream,
                                phase,
                                origin,
                                deadline,
                                trace,
                            };
                            run.run(&mut client, &mut rng, &mut log);
                            log.overload_retries = client.overload_retries();
                        }
                        Err(e) => {
                            log.attempted += 1;
                            log.failed += 1;
                            log.first_error = Some(e);
                        }
                    }
                    (log, origin.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = clients.iter().map(|(_, t)| *t).max().unwrap_or_default();
    PhaseLog {
        clients: clients.into_iter().map(|(log, _)| log).collect(),
        wall,
    }
}

/// One client's closed loop.
struct Loop<'a> {
    w: &'a Workload,
    n: usize,
    c: usize,
    stream: &'a [GraphUpdate],
    phase: Phase,
    origin: Instant,
    deadline: Instant,
    trace: bool,
}

impl Loop<'_> {
    fn run(&self, client: &mut Client, rng: &mut SmallRng, log: &mut ClientLog) {
        while Instant::now() < self.deadline {
            let write = match self.phase {
                Phase::Writes => true,
                Phase::Reads => false,
                Phase::Mixed => !rng.gen_bool(READ_SHARE),
            };
            if write {
                let batch = self.phase == Phase::Writes && self.w.traffic == Traffic::Batch;
                let len = if batch { BATCH } else { 1 };
                if log.next + len > self.stream.len() {
                    // The generated churn ran out: stop writing.
                    if self.phase == Phase::Mixed {
                        continue;
                    }
                    break;
                }
                self.write(client, log, batch, len);
            } else {
                self.read(client, next_query(self.n, rng), log);
            }
        }
    }

    fn write(&self, client: &mut Client, log: &mut ClientLog, batch: bool, len: usize) {
        let updates = &self.stream[log.next..log.next + len];
        log.attempted += 1;
        let t0 = Instant::now();
        let outcome: Result<u64, ClientError> = if batch {
            client.batch_apply(updates).and_then(|ack| {
                if ack.rejected == 0 {
                    Ok(ack.epoch)
                } else {
                    Err(ClientError::Protocol("batch updates rejected"))
                }
            })
        } else {
            client.apply(updates[0]).map(|(epoch, _flips)| epoch)
        };
        let dur = t0.elapsed();
        let start = log.next;
        log.next += len;
        match outcome {
            Ok(epoch) => {
                log.write_us.push(dur.as_secs_f64() * 1e6);
                log.updates += len as u64;
                log.acks.push(Ack {
                    epoch,
                    client: self.c,
                    start,
                    len,
                    batch,
                });
                let name = if batch {
                    "serve.batch_apply_call"
                } else {
                    "serve.apply_call"
                };
                self.span(log, name, t0, dur, epoch);
            }
            Err(e) => fail(log, e),
        }
    }

    fn read(&self, client: &mut Client, query: Query, log: &mut ClientLog) {
        log.attempted += 1;
        let t0 = Instant::now();
        let outcome = match &query {
            Query::GroupBy(vs) => client.group_by_detailed(vs),
            Query::ClusterOf(v) => client.cluster_of(*v),
        };
        let dur = t0.elapsed();
        match outcome {
            Ok(ack) => {
                log.read_us.push(dur.as_secs_f64() * 1e6);
                let name = match query {
                    Query::GroupBy(_) => "serve.group_by_call",
                    Query::ClusterOf(_) => "serve.cluster_of_call",
                };
                self.span(log, name, t0, dur, ack.epoch);
                if self.trace {
                    log.reads.push(Read {
                        query,
                        epoch: ack.epoch,
                    });
                }
            }
            Err(e) => fail(log, e),
        }
    }

    fn span(
        &self,
        log: &mut ClientLog,
        name: &'static str,
        t0: Instant,
        dur: Duration,
        epoch: u64,
    ) {
        if self.trace {
            log.spans.push(Span {
                name,
                client: self.c,
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                epoch,
            });
        }
    }
}

fn fail(log: &mut ClientLog, e: ClientError) {
    log.failed += 1;
    log.first_error.get_or_insert_with(|| e.to_string());
}
