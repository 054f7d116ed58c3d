//! Replica-scaling experiment: read throughput at 0/1/2 read replicas
//! over real sockets, replication lag under a write burst, and (when the
//! `dynscan-served` binary path is supplied) catch-up time after a
//! SIGKILL of a subscribing replica mid-stream.  Every row passes a **byte-identity gate**: each
//! replica's canonical state checksum must equal a sequential oracle
//! replay at the replica's epoch — i.e. the replica serves the replay of
//! some primary checkpoint prefix, byte-for-byte, or the row fails.
//!
//! The workload is the growing path `Insert(j, j+1)`, so the oracle is a
//! pure function of the epoch and byte identity is checkable at any
//! prefix.

use dynscan_core::{Backend, DirCheckpointStore, GraphUpdate, Params, Session, VertexId};
use dynscan_graph::snapshot::{fnv1a, peek_header, FORMAT_VERSION};
use dynscan_serve::{Client, ReplicaSource, RetryPolicy, RoutedClient, ServeConfig, Server};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 42;

/// Configuration of one replica-scaling sweep.
#[derive(Clone, Debug)]
pub struct ReplicaBenchConfig {
    /// Replica counts to sweep (0 = every read on the primary).
    pub replica_counts: Vec<usize>,
    /// Updates applied before the read phase.
    pub prefill_updates: u64,
    /// Group-by reads issued per reader thread.
    pub reads_per_reader: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Updates in the lag-probe write burst.
    pub burst_updates: u64,
    /// Primary checkpoint cadence in updates.
    pub checkpoint_every: u64,
    /// Path to the `dynscan-served` binary, run as a subscribing replica
    /// for the SIGKILL catch-up measurement; `None` skips it (the rest
    /// of the sweep still runs).
    pub served_bin: Option<PathBuf>,
}

impl ReplicaBenchConfig {
    /// The default measurement scale.
    pub fn default_scale() -> Self {
        ReplicaBenchConfig {
            replica_counts: vec![0, 1, 2],
            prefill_updates: 256,
            reads_per_reader: 500,
            readers: 4,
            burst_updates: 64,
            checkpoint_every: 8,
            served_bin: None,
        }
    }

    /// A smoke-test scale for CI.
    pub fn quick() -> Self {
        ReplicaBenchConfig {
            replica_counts: vec![0, 1, 2],
            prefill_updates: 32,
            reads_per_reader: 60,
            readers: 2,
            burst_updates: 16,
            checkpoint_every: 4,
            served_bin: None,
        }
    }
}

/// One measured row: a replica-count cell.
#[derive(Clone, Debug)]
pub struct ReplicaBenchRow {
    /// Read replicas serving this row.
    pub replicas: usize,
    /// Total group-by reads issued.
    pub reads: usize,
    /// Wall-clock seconds of the read phase.
    pub secs: f64,
    /// Reads per second (all readers combined).
    pub reads_per_sec: f64,
    /// Reads served by replicas (vs primary fallbacks) across readers.
    pub replica_reads: u64,
    /// Worst replication lag observed right after the write burst,
    /// in checkpoint documents.
    pub max_lag_checkpoints: u64,
    /// Milliseconds for a SIGKILLed replica to catch back up
    /// (`None` when no binary path was configured or `replicas == 0`).
    pub catchup_ms: Option<u64>,
    /// Checkpoint documents the primary shipped (the tailed chain).
    pub shipped_docs: u64,
    /// Total bytes of those documents — exactly what each tailing
    /// replica ingests over the row's lifetime.
    pub shipped_bytes: u64,
}

impl ReplicaBenchRow {
    /// Average shipped document size — the per-checkpoint replication
    /// cost the v3 codec shrinks.
    pub fn shipped_bytes_per_checkpoint(&self) -> f64 {
        self.shipped_bytes as f64 / (self.shipped_docs as f64).max(1.0)
    }
}

fn params() -> Params {
    Params::jaccard(0.5, 2).with_exact_labels().with_seed(SEED)
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        seed,
        base_delay: Duration::from_millis(2),
        ..RetryPolicy::default()
    }
}

/// Oracle checksum at epoch `k` of the growing-path send log.
fn oracle_checksum(k: u64) -> u64 {
    let mut oracle = Session::builder()
        .backend(Backend::DynStrClu)
        .params(params())
        .build()
        .expect("oracle session");
    for j in 0..k {
        oracle
            .apply(GraphUpdate::Insert(
                VertexId(j as u32),
                VertexId(j as u32 + 1),
            ))
            .expect("path edges are always fresh");
    }
    fnv1a(&oracle.checkpoint_bytes())
}

fn wait_for<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The byte-identity gate: the replica at `addr` must sit at an oracle
/// prefix at least `min_seq` deep.  Returns its epoch.
fn gate_byte_identity(addr: SocketAddr, min_seq: u64, what: &str) -> u64 {
    let mut client = Client::connect_with(addr, policy(17)).expect("connect to replica");
    let stats = wait_for(&format!("{what} to reach seq {min_seq}"), || {
        let stats = client.stats(true).ok()?;
        (stats.last_checkpoint_seq? >= min_seq).then_some(stats)
    });
    assert_eq!(
        stats.state_checksum.expect("checksum requested"),
        oracle_checksum(stats.epoch),
        "byte-identity gate failed: {what} at epoch {} diverges from the oracle",
        stats.epoch
    );
    stats.epoch
}

fn apply_path(client: &mut Client, from: &mut u64, count: u64) {
    for _ in 0..count {
        client
            .apply(GraphUpdate::Insert(
                VertexId(*from as u32),
                VertexId(*from as u32 + 1),
            ))
            .expect("apply acknowledged");
        *from += 1;
    }
}

/// Measure catch-up after SIGKILL: start a `dynscan-served --primary`
/// replica child, let it catch up, SIGKILL it, write more updates,
/// restart it and time its return to the primary's checkpoint position.
fn measure_catchup(
    bin: &std::path::Path,
    primary_addr: SocketAddr,
    writer: &mut Client,
    next: &mut u64,
    burst: u64,
    dir: &std::path::Path,
) -> u64 {
    let start_child = |round: usize| {
        let port_file = dir.join(format!("replica-port-{round}"));
        let _ = std::fs::remove_file(&port_file);
        let mut child = std::process::Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--primary")
            .arg(primary_addr.to_string())
            .arg("--port-file")
            .arg(&port_file)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("replica spawns");
        let addr = wait_for("the replica to publish its address", || {
            if let Ok(Some(status)) = child.try_wait() {
                panic!("the replica exited early: {status}");
            }
            std::fs::read_to_string(&port_file)
                .ok()?
                .trim()
                .parse::<SocketAddr>()
                .ok()
        });
        (child, addr)
    };
    let target = writer.checkpoint_now().expect("checkpoint").sequence;
    let (mut child, addr) = start_child(0);
    gate_byte_identity(addr, target, "pre-kill replica");
    child.kill().expect("SIGKILL the replica");
    child.wait().expect("reap the replica");
    apply_path(writer, next, burst);
    let target = writer.checkpoint_now().expect("checkpoint").sequence;
    let started = Instant::now();
    let (mut child, addr) = start_child(1);
    gate_byte_identity(addr, target, "post-kill replica");
    let catchup = started.elapsed().as_millis() as u64;
    child.kill().expect("stop the replica");
    child.wait().expect("reap the replica");
    catchup
}

/// Drive one replica-count cell and enforce the gates.
fn run_cell(config: &ReplicaBenchConfig, replicas: usize) -> ReplicaBenchRow {
    let dir = std::env::temp_dir().join(format!(
        "dynscan-replica-bench-{}-{}",
        replicas,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = Some(config.checkpoint_every);
    cfg.params = params();
    let primary = Server::start(cfg).expect("primary starts");
    let primary_addr = primary.local_addr();

    let mut writer = Client::connect_with(primary_addr, policy(1)).expect("connect");
    let mut next = 0u64;
    apply_path(&mut writer, &mut next, config.prefill_updates);
    // Force a checkpoint covering the whole prefill — the cadence's own
    // document for the final epoch may still be in flight.
    let primary_seq = writer.checkpoint_now().expect("checkpoint").sequence;

    let servers: Vec<Server> = (0..replicas)
        .map(|_| {
            let mut cfg = ServeConfig::new("127.0.0.1:0");
            cfg.replica_of = Some(ReplicaSource::Tail {
                dir: dir.clone(),
                poll_interval: Duration::from_millis(2),
            });
            Server::start(cfg).expect("replica starts")
        })
        .collect();
    let replica_addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    for (i, &addr) in replica_addrs.iter().enumerate() {
        gate_byte_identity(addr, primary_seq, &format!("replica {i} prefill"));
    }

    // Read phase: concurrent routed readers, each with its own sockets.
    let reads_per_reader = config.reads_per_reader;
    let total_vertices = next as u32;
    let start = Instant::now();
    let per_reader: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let addrs = &replica_addrs;
        let handles: Vec<_> = (0..config.readers)
            .map(|r| {
                scope.spawn(move || {
                    let primary_client = Client::connect_with(primary_addr, policy(100 + r as u64))
                        .expect("reader connects");
                    let reps = addrs
                        .iter()
                        .map(|&a| Client::connect_with(a, policy(200 + r as u64)).expect("connect"))
                        .collect();
                    let mut routed = RoutedClient::new(primary_client, reps);
                    for i in 0..reads_per_reader {
                        let v = (r * reads_per_reader + i) as u32 % total_vertices;
                        let ack = routed
                            .group_by(&[VertexId(v), VertexId(v + 1)])
                            .expect("routed read");
                        assert!(ack.epoch >= routed.floor(), "stale read slipped through");
                    }
                    (reads_per_reader, routed.replica_reads())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let reads: usize = per_reader.iter().map(|o| o.0).sum();
    let replica_reads: u64 = per_reader.iter().map(|o| o.1).sum();

    // Lag probe: burst writes, then sample each replica's position
    // immediately — the distance to the primary's newest checkpoint is
    // the replication lag in documents.
    apply_path(&mut writer, &mut next, config.burst_updates);
    let primary_seq = writer.checkpoint_now().expect("checkpoint").sequence;
    let max_lag_checkpoints = replica_addrs
        .iter()
        .map(|&addr| {
            let mut probe = Client::connect_with(addr, policy(33)).expect("connect");
            let seq = probe
                .stats(false)
                .expect("stats")
                .last_checkpoint_seq
                .unwrap_or(0);
            primary_seq.saturating_sub(seq)
        })
        .max()
        .unwrap_or(0);
    // Row gate: every replica converges to the post-burst prefix,
    // byte-identically.
    for (i, &addr) in replica_addrs.iter().enumerate() {
        gate_byte_identity(addr, primary_seq, &format!("replica {i} post-burst"));
    }

    // Shipped-volume accounting: a tailing replica ingests exactly the
    // primary's on-disk chain, so the directory *is* the wire.  Every
    // document must be a current-format (v3) snapshot, shipped
    // unchanged — replication never re-encodes.
    let store = DirCheckpointStore::new(&dir);
    let mut shipped_docs = 0u64;
    let mut shipped_bytes = 0u64;
    for (seq, _, path) in store.list().expect("list the shipped chain") {
        let bytes = std::fs::read(&path).expect("read shipped document");
        let header = peek_header(&bytes).expect("shipped document parses");
        assert_eq!(
            header.format_version, FORMAT_VERSION,
            "shipped checkpoint {seq} is not a v3 document"
        );
        shipped_docs += 1;
        shipped_bytes += bytes.len() as u64;
    }
    assert!(shipped_docs > 0, "the cadence must have shipped documents");

    let catchup_ms = match (&config.served_bin, replicas) {
        (Some(bin), n) if n > 0 => Some(measure_catchup(
            bin,
            primary_addr,
            &mut writer,
            &mut next,
            config.burst_updates,
            &dir,
        )),
        _ => None,
    };

    for server in servers {
        server.drain_flag().trip();
        server.wait();
    }
    writer.drain().expect("drain primary");
    primary.wait();
    let _ = std::fs::remove_dir_all(&dir);

    ReplicaBenchRow {
        replicas,
        reads,
        secs,
        reads_per_sec: reads as f64 / secs.max(f64::EPSILON),
        replica_reads,
        max_lag_checkpoints,
        catchup_ms,
        shipped_docs,
        shipped_bytes,
    }
}

/// Run the sweep over the configured replica counts.
pub fn run_replica_scaling(config: &ReplicaBenchConfig) -> Vec<ReplicaBenchRow> {
    config
        .replica_counts
        .iter()
        .map(|&n| run_cell(config, n))
        .collect()
}

/// Render rows as the `BENCH_replica.json` document (hand-rolled JSON —
/// the vendored serde is a marker stub).
pub fn replica_rows_to_json(config: &ReplicaBenchConfig, rows: &[ReplicaBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"replica_scaling\",\n");
    out.push_str("  \"command\": \"cargo bench -p dynscan-serve --bench replica_scaling\",\n");
    let _ = writeln!(out, "  \"prefill_updates\": {},", config.prefill_updates);
    let _ = writeln!(out, "  \"readers\": {},", config.readers);
    let _ = writeln!(out, "  \"reads_per_reader\": {},", config.reads_per_reader);
    let _ = writeln!(out, "  \"checkpoint_every\": {},", config.checkpoint_every);
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let catchup = row
            .catchup_ms
            .map_or("null".to_string(), |ms| ms.to_string());
        let _ = write!(
            out,
            "    {{\"replicas\": {}, \"reads\": {}, \"secs\": {:.6}, \
             \"reads_per_sec\": {:.1}, \"replica_reads\": {}, \
             \"max_lag_checkpoints\": {}, \"catchup_ms\": {}, \
             \"shipped_docs\": {}, \"shipped_bytes\": {}, \
             \"shipped_bytes_per_checkpoint\": {:.1}}}",
            row.replicas,
            row.reads,
            row.secs,
            row.reads_per_sec,
            row.replica_reads,
            row.max_lag_checkpoints,
            catchup,
            row.shipped_docs,
            row.shipped_bytes,
            row.shipped_bytes_per_checkpoint(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table of the rows.
pub fn replica_rows_to_table(rows: &[ReplicaBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>12} {:>14} {:>10} {:>11} {:>9} {:>11}",
        "replicas",
        "reads",
        "reads/s",
        "replica_reads",
        "lag(ckpt)",
        "catchup_ms",
        "ship_docs",
        "ship_B/ckpt"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>12.0} {:>14} {:>10} {:>11} {:>9} {:>11.0}",
            row.replicas,
            row.reads,
            row.reads_per_sec,
            row.replica_reads,
            row.max_lag_checkpoints,
            row.catchup_ms.map_or("-".to_string(), |ms| ms.to_string()),
            row.shipped_docs,
            row.shipped_bytes_per_checkpoint(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_gates_byte_identity_and_reports_rows() {
        let config = ReplicaBenchConfig::quick();
        let rows = run_replica_scaling(&config);
        assert_eq!(rows.len(), config.replica_counts.len());
        for (row, &n) in rows.iter().zip(&config.replica_counts) {
            assert_eq!(row.replicas, n);
            assert_eq!(row.reads, config.readers * config.reads_per_reader);
            assert!(row.reads_per_sec > 0.0);
            if n == 0 {
                assert_eq!(row.replica_reads, 0, "no replicas, no replica reads");
            }
            assert!(row.catchup_ms.is_none(), "no binary path configured");
            assert!(
                row.shipped_docs > 0 && row.shipped_bytes > 0,
                "shipped-volume accounting must see the chain"
            );
            assert!(row.shipped_bytes_per_checkpoint() > 0.0);
        }
        let json = replica_rows_to_json(&config, &rows);
        assert!(json.contains("\"benchmark\": \"replica_scaling\""));
        assert!(json.contains("\"catchup_ms\": null"));
        assert!(json.contains("\"shipped_bytes_per_checkpoint\""));
        assert!(json.trim_end().ends_with('}'));
        assert!(replica_rows_to_table(&rows).contains("replicas"));
    }
}
