//! The replication harness: a primary plus two replicas (one
//! subscribing over TCP via the real `dynscan-served --primary` binary
//! with a mirror directory, one tailing the primary's checkpoint
//! directory in-process) under a live write workload, pinning:
//!
//! * **byte identity** — every replica's canonical state checksum equals
//!   the sequential oracle at the replica's epoch, i.e. its state is the
//!   replay of some primary checkpoint prefix, byte-for-byte;
//! * **epoch-floor routing** — reads through [`RoutedClient`] never
//!   observe an epoch below the primary's acknowledged floor, and agree
//!   with the oracle's group-by answers;
//! * **crash catch-up** — a replica SIGKILLed mid-stream catches back up
//!   after restart, byte-identically;
//! * **promotion** — a primary started on the killed-and-recovered
//!   replica's mirror directory resumes the chain byte-identically and
//!   keeps accepting writes on the oracle trajectory.
//!
//! Updates are a growing path `Insert(j, j+1)` so the send log is a pure
//! function of the global index and the oracle needs only an epoch `k`
//! to replay (same discipline as the serve kill/resume harness).

use dynscan_core::{Backend, GraphUpdate, Params, Session, VertexId};
use dynscan_graph::snapshot::fnv1a;
use dynscan_serve::{
    Client, ClientError, ReplicaSource, RetryPolicy, RoutedClient, ServeConfig, Server,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

const CHECKPOINT_EVERY: u64 = 4;
const SEED: u64 = 42;

fn params() -> Params {
    Params::jaccard(0.5, 2).with_exact_labels().with_seed(SEED)
}

fn quick_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(50),
        request_timeout: Duration::from_secs(10),
        seed,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynscan-replica-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// The sequential oracle reduced to its canonical byte checksum: the
/// state after exactly the first `k` updates of the send log.  The serve
/// kill/resume harness pins the primary to this same oracle, so equality
/// here means the replica's state is byte-identical to a primary
/// checkpoint prefix.
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

/// An in-process replica tailing `dir`.
fn tail_replica(dir: &Path, poll_interval: Duration) -> ServeConfig {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.replica_of = Some(ReplicaSource::Tail {
        dir: dir.to_path_buf(),
        poll_interval,
    });
    cfg
}

fn start_replica(primary: SocketAddr, mirror: &Path, round: usize) -> (Child, SocketAddr) {
    let port_file = mirror.with_extension(format!("port-{round}"));
    let _ = std::fs::remove_file(&port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dynscan-served"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--primary")
        .arg(primary.to_string())
        .arg("--mirror-dir")
        .arg(mirror)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("replica binary spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(contents) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = contents.trim().parse::<SocketAddr>() {
                return (child, addr);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("replica exited before publishing its address: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "replica never published its address"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Poll `probe` until it returns `Some` or the deadline passes.
fn wait_for<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Assert a replica at `addr` sits at a byte-identical oracle prefix at
/// least `min_seq` deep, and return `(epoch, applied_seq)`.
fn assert_replica_at_prefix(addr: SocketAddr, min_seq: u64, tag: &str) -> (u64, u64) {
    let mut client = Client::connect_with(addr, quick_policy(17)).expect("connect to replica");
    let stats = wait_for(&format!("{tag} to reach seq {min_seq}"), || {
        let stats = client.stats(true).ok()?;
        (stats.last_checkpoint_seq? >= min_seq).then_some(stats)
    });
    let seq = stats.last_checkpoint_seq.expect("caught-up replica");
    assert_eq!(
        stats.state_checksum.expect("checksum requested"),
        oracle_checksum(stats.epoch),
        "{tag}: replica state at epoch {} diverges from the oracle prefix",
        stats.epoch
    );
    (stats.epoch, seq)
}

#[test]
fn primary_with_two_replicas_is_byte_identical_and_survives_kill_and_promote() {
    let ckpt_dir = temp_dir("primary-ckpts");
    let mirror_dir = temp_dir("mirror");

    // The primary: checkpoints every 4 updates into its checkpoint
    // directory, which the subscription stream and the tail replica read.
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.checkpoint_dir = Some(ckpt_dir.clone());
    cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    cfg.full_every = 4;
    cfg.params = params();
    let primary = Server::start(cfg).expect("primary starts");
    let primary_addr = primary.local_addr();

    // Replica A: the real binary, subscribing over TCP, mirroring.
    let (mut replica_a, addr_a) = start_replica(primary_addr, &mirror_dir, 0);
    // Replica B: in-process, tailing the shared checkpoint directory.
    let replica_b = Server::start(tail_replica(&ckpt_dir, Duration::from_millis(5)))
        .expect("tail replica starts");
    let addr_b = replica_b.local_addr();

    // Phase 1: replicate a prefix and pin byte identity on both paths.
    let mut writer = Client::connect_with(primary_addr, quick_policy(1)).expect("connect");
    let mut oracle = Session::builder()
        .backend(Backend::DynStrClu)
        .params(params())
        .build()
        .expect("oracle session");
    let mut j = 0u64;
    let apply_one = |writer: &mut Client, oracle: &mut Session, j: &mut u64| {
        let update = GraphUpdate::Insert(VertexId(*j as u32), VertexId(*j as u32 + 1));
        writer.apply(update).expect("apply acked");
        oracle.apply(update).expect("oracle apply");
        *j += 1;
    };
    for _ in 0..24 {
        apply_one(&mut writer, &mut oracle, &mut j);
    }
    let stats = writer.stats(false).expect("primary stats");
    assert_eq!(stats.epoch, 24);
    // Force a checkpoint covering the full prefix: the cadence alone
    // races this probe (the epoch-24 document may still be in flight).
    let ack = writer.checkpoint_now().expect("checkpoint");
    assert_eq!(ack.updates_applied, 24);
    let primary_seq = ack.sequence;
    let (epoch_a, _) = assert_replica_at_prefix(addr_a, primary_seq, "subscribe replica");
    let (epoch_b, _) = assert_replica_at_prefix(addr_b, primary_seq, "tail replica");
    assert_eq!(epoch_a, 24, "caught-up subscriber covers every checkpoint");
    assert_eq!(epoch_b, 24, "caught-up tailer covers every checkpoint");

    // Replicas refuse writes with the typed reply.
    let mut replica_client = Client::connect_with(addr_a, quick_policy(2)).expect("connect");
    match replica_client.apply(GraphUpdate::Insert(VertexId(900), VertexId(901))) {
        Err(ClientError::ReadOnly) => {}
        other => panic!("replica must refuse writes with ReadOnly, got {other:?}"),
    }

    // Phase 2: epoch-floor routing.  Every read after a write observes
    // an epoch at or above the primary's acknowledged floor and agrees
    // with the oracle — never a silently stale answer.
    let routed_primary = Client::connect_with(primary_addr, quick_policy(3)).expect("connect");
    let rep_a = Client::connect_with(addr_a, quick_policy(4)).expect("connect");
    let rep_b = Client::connect_with(addr_b, quick_policy(5)).expect("connect");
    let mut routed = RoutedClient::new(routed_primary, vec![rep_a, rep_b]);
    let mut reads = 0u64;
    for _ in 0..12 {
        let update = GraphUpdate::Insert(VertexId(j as u32), VertexId(j as u32 + 1));
        routed.apply(update).expect("routed write");
        oracle.apply(update).expect("oracle apply");
        j += 1;
        let q = [VertexId(0), VertexId(j as u32 - 1), VertexId(j as u32)];
        let ack = routed.group_by(&q).expect("routed read");
        reads += 1;
        assert!(
            ack.epoch >= routed.floor(),
            "stale read slipped through: epoch {} below floor {}",
            ack.epoch,
            routed.floor()
        );
        assert_eq!(
            ack.groups,
            oracle.cluster_group_by(&q),
            "routed group-by diverged from the oracle at j={j}"
        );
        let of = routed.cluster_of(VertexId(0)).expect("routed cluster-of");
        reads += 1;
        assert!(of.epoch >= routed.floor());
    }
    assert_eq!(
        routed.replica_reads() + routed.primary_fallbacks(),
        reads,
        "every read is accounted to a replica or the primary"
    );

    // Phase 3: SIGKILL the subscribing replica mid-stream, write on,
    // restart it, and verify byte-identical catch-up.
    for _ in 0..4 {
        apply_one(&mut writer, &mut oracle, &mut j);
    }
    replica_a.kill().expect("SIGKILL replica A");
    replica_a.wait().expect("reap replica A");
    for _ in 0..8 {
        apply_one(&mut writer, &mut oracle, &mut j);
    }
    // Force a full checkpoint at the exact current epoch so "caught up"
    // is a precise target.
    let ack = writer.checkpoint_now().expect("explicit checkpoint");
    assert_eq!(ack.updates_applied, j);
    let (mut replica_a, addr_a) = start_replica(primary_addr, &mirror_dir, 1);
    let (epoch_a, _) = assert_replica_at_prefix(addr_a, ack.sequence, "restarted replica");
    assert_eq!(
        epoch_a, j,
        "restarted replica caught up to the post-kill checkpoint"
    );

    // Phase 4: promotion.  Stop the replica and the old primary, then
    // start a *writable* primary on the replica's mirror directory: it
    // resumes the mirrored chain byte-identically and keeps accepting
    // writes on the oracle trajectory.
    let mut replica_client = Client::connect_with(addr_a, quick_policy(6)).expect("connect");
    replica_client.drain().expect("drain replica");
    let status = replica_a.wait().expect("replica exits on drain");
    assert!(status.success(), "drained replica exits cleanly: {status}");
    replica_b.drain_flag().trip();
    let report_b = replica_b.wait();
    assert!(report_b.updates_applied > 0);
    writer.drain().expect("drain primary");
    primary.wait();

    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.checkpoint_dir = Some(mirror_dir.clone());
    cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    cfg.full_every = 4;
    cfg.params = params();
    let promoted = Server::start(cfg).expect("promoted primary starts on the mirror");
    let mut client = Client::connect_with(promoted.local_addr(), quick_policy(7)).expect("connect");
    let stats = client.stats(true).expect("stats");
    assert_eq!(
        stats.epoch, j,
        "promotion resumes every update the mirror covered"
    );
    assert_eq!(
        stats.state_checksum.expect("requested"),
        oracle_checksum(j),
        "promoted state diverges from the oracle chain"
    );
    // The promoted primary is writable and stays on the oracle path.
    for _ in 0..4 {
        let update = GraphUpdate::Insert(VertexId(j as u32), VertexId(j as u32 + 1));
        client
            .apply(update)
            .expect("promoted primary accepts writes");
        j += 1;
    }
    let stats = client.stats(true).expect("stats");
    assert_eq!(stats.epoch, j);
    assert_eq!(
        stats.state_checksum.expect("requested"),
        oracle_checksum(j),
        "post-promotion writes diverge from the oracle"
    );
    client.drain().expect("drain promoted primary");
    promoted.wait();

    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&mirror_dir);
}

/// A tail replica whose base is pruned away mid-life resyncs through the
/// typed chain-gap path and converges again (retention racing the tail).
#[test]
fn tail_replica_survives_retention_pruning() {
    let ckpt_dir = temp_dir("prune-tail");
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.checkpoint_dir = Some(ckpt_dir.clone());
    cfg.checkpoint_every = Some(2);
    cfg.full_every = 2;
    cfg.keep_last = Some(1);
    cfg.params = params();
    let primary = Server::start(cfg).expect("primary starts");
    let replica = Server::start(tail_replica(&ckpt_dir, Duration::from_millis(2)))
        .expect("tail replica starts");

    let mut writer = Client::connect_with(primary.local_addr(), quick_policy(8)).expect("connect");
    for j in 0..40u64 {
        writer
            .apply(GraphUpdate::Insert(
                VertexId(j as u32),
                VertexId(j as u32 + 1),
            ))
            .expect("apply");
    }
    // Force a checkpoint covering all 40 updates — the cadence's own
    // documents race this probe, and pruning makes mid-stream positions
    // meaningless anyway.
    let ack = writer.checkpoint_now().expect("checkpoint");
    assert_eq!(ack.updates_applied, 40);
    let mut reader = Client::connect_with(replica.local_addr(), quick_policy(9)).expect("connect");
    let stats = wait_for("tail replica to converge past pruning", || {
        let stats = reader.stats(true).ok()?;
        (stats.last_checkpoint_seq? >= ack.sequence).then_some(stats)
    });
    assert_eq!(stats.epoch, 40);
    assert_eq!(
        stats.state_checksum.expect("requested"),
        oracle_checksum(40),
        "post-pruning replica state diverges from the oracle"
    );
    replica.drain_flag().trip();
    replica.wait();
    writer.drain().expect("drain primary");
    primary.wait();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// A replica's reads never take its state lock: once a tail replica
/// holds the primary's last checkpoint, every `GroupBy`, `ClusterOf` and
/// checksum-free `Stats` is answered from its published epoch, and each
/// answer equals the primary's.
#[test]
fn replica_reads_take_the_lock_free_epoch_path() {
    let ckpt_dir = temp_dir("epoch-reads");
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.checkpoint_dir = Some(ckpt_dir.clone());
    cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    cfg.params = params();
    let primary = Server::start(cfg).expect("primary starts");
    let replica = Server::start(tail_replica(&ckpt_dir, Duration::from_millis(2)))
        .expect("tail replica starts");
    let mut writer = Client::connect_with(primary.local_addr(), quick_policy(10)).expect("connect");
    for j in 0..20u32 {
        writer
            .apply(GraphUpdate::Insert(VertexId(j), VertexId(j + 1)))
            .expect("apply");
    }
    let ack = writer.checkpoint_now().expect("checkpoint");
    // Checksummed stats lock the replica state, so the catch-up probe
    // itself is never an epoch read.
    assert_replica_at_prefix(replica.local_addr(), ack.sequence, "tail replica");
    assert_eq!(replica.epoch_reads_served(), 0);

    let mut reader = Client::connect_with(replica.local_addr(), quick_policy(11)).expect("connect");
    let mut reads = 0u64;
    for v in 0..10u32 {
        let q = [VertexId(v), VertexId(v + 7), VertexId(30)];
        let ours = reader.group_by_detailed(&q).expect("replica group-by");
        let theirs = writer.group_by_detailed(&q).expect("primary group-by");
        assert_eq!((ours.epoch, ours.groups), (theirs.epoch, theirs.groups));
        let ours = reader.cluster_of(VertexId(v)).expect("replica cluster-of");
        let theirs = writer.cluster_of(VertexId(v)).expect("primary cluster-of");
        assert_eq!((ours.epoch, ours.groups), (theirs.epoch, theirs.groups));
        let ours = reader.stats(false).expect("replica stats");
        let theirs = writer.stats(false).expect("primary stats");
        assert_eq!(
            (
                ours.algorithm,
                ours.epoch,
                ours.num_vertices,
                ours.num_edges,
                ours.last_checkpoint_seq
            ),
            (
                theirs.algorithm,
                theirs.epoch,
                theirs.num_vertices,
                theirs.num_edges,
                theirs.last_checkpoint_seq
            )
        );
        reads += 3;
    }
    assert_eq!(
        replica.epoch_reads_served(),
        reads,
        "every replica read was served from the published epoch"
    );
    replica.drain_flag().trip();
    replica.wait();
    writer.drain().expect("drain primary");
    primary.wait();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
