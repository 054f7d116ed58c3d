//! Read-scaling with snapshot-shipping replicas: a primary service, one
//! replica subscribing over the wire (mirroring the shipped chain to
//! disk), one replica tailing the primary's checkpoint directory, and a
//! routed client that sends writes to the primary and reads to the
//! replicas under an epoch floor — finishing with the mirror directory
//! promoted into a new writable primary.
//!
//! ```text
//! cargo run --release --example replicated_service
//! ```

use dynscan::core::{GraphUpdate, Params, VertexId};
use dynscan::serve::{
    Client, ClientError, ReplicaSource, RetryPolicy, RoutedClient, ServeConfig, Server,
};
use std::time::{Duration, Instant};

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        seed,
        base_delay: Duration::from_millis(2),
        ..RetryPolicy::default()
    }
}

/// Poll `probe` until it yields, or panic after 30 s.
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

fn main() {
    let base = std::env::temp_dir().join(format!("dynscan-replica-example-{}", std::process::id()));
    let primary_dir = base.join("primary");
    let mirror_dir = base.join("mirror");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&primary_dir).expect("example dirs");

    // The primary: a normal dynscan-serve instance with a checkpoint
    // cadence.  The checkpoint chain it writes *is* the replication log.
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.params = Params::jaccard(0.5, 2).with_exact_labels();
    cfg.checkpoint_dir = Some(primary_dir.clone());
    cfg.checkpoint_every = Some(8);
    let primary = Server::start(cfg).expect("primary starts");
    let primary_addr = primary.local_addr();
    println!("primary on {primary_addr}");

    // Replicas are the same server in read-only mode.  Replica A
    // subscribes over the wire and mirrors every shipped document into
    // its own directory (that directory is the promotion asset).
    // Replica B tails the primary's checkpoint directory — the
    // shared-filesystem deployment, no extra protocol at all.
    let replica = |source| {
        let mut cfg = ServeConfig::new("127.0.0.1:0");
        cfg.replica_of = Some(source);
        Server::start(cfg)
    };
    let replica_a = replica(ReplicaSource::Subscribe {
        primary_addr: primary_addr.to_string(),
        mirror_dir: Some(mirror_dir.clone()),
    })
    .expect("replica A starts");
    let replica_b = replica(ReplicaSource::Tail {
        dir: primary_dir.clone(),
        poll_interval: Duration::from_millis(5),
    })
    .expect("replica B starts");
    println!(
        "replica A (subscribe+mirror) on {}, replica B (tail) on {}",
        replica_a.local_addr(),
        replica_b.local_addr()
    );

    // Write two 6-cliques through the primary: 30 acknowledged updates.
    let mut writer = Client::connect_with(primary_addr, policy(1)).expect("connect");
    for clique in 0..2u32 {
        let first = clique * 10;
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                writer
                    .apply(GraphUpdate::Insert(
                        VertexId(first + a),
                        VertexId(first + b),
                    ))
                    .expect("acknowledged");
            }
        }
    }
    // Force a checkpoint so the full epoch is replica-visible, then wait
    // for both replicas to reach that document.  Replication is
    // asynchronous: an ack means durable-per-cadence on the primary, and
    // the write becomes visible on replicas when its checkpoint ships.
    let target = writer.checkpoint_now().expect("checkpoint").sequence;
    for (name, addr) in [("A", replica_a.local_addr()), ("B", replica_b.local_addr())] {
        let mut probe = Client::connect_with(addr, policy(2)).expect("connect");
        let stats = wait_for(&format!("replica {name} to catch up"), || {
            let stats = probe.stats(false).ok()?;
            (stats.last_checkpoint_seq >= Some(target)).then_some(stats)
        });
        println!(
            "replica {name}: checkpoint seq {:?}, epoch {}",
            stats.last_checkpoint_seq, stats.epoch
        );
        assert_eq!(stats.epoch, 30, "replica replays every shipped update");
        // Replicas are read-only: writes get a typed refusal.
        let refused = probe.apply(GraphUpdate::Insert(VertexId(0), VertexId(99)));
        assert!(matches!(refused, Err(ClientError::ReadOnly)));
    }

    // The routed client: writes to the primary, reads round-robin over
    // the replicas, each reply checked against the epoch floor (your own
    // acknowledged writes) — stale replies retry, then fall back to the
    // primary.  Reads are bounded-stale, never silently stale.
    let reps = vec![
        Client::connect_with(replica_a.local_addr(), policy(3)).expect("connect"),
        Client::connect_with(replica_b.local_addr(), policy(4)).expect("connect"),
    ];
    let mut routed = RoutedClient::new(writer, reps);
    let query = [VertexId(0), VertexId(10)];
    let ack = routed.group_by(&query).expect("routed read");
    assert!(ack.epoch >= routed.floor(), "epoch floor enforced");
    assert_eq!(ack.groups.len(), 2, "two cliques, two clusters");
    println!(
        "routed group-by at epoch {} (floor {}): {} clusters | {} replica reads, {} fallbacks",
        ack.epoch,
        routed.floor(),
        ack.groups.len(),
        routed.replica_reads(),
        routed.primary_fallbacks()
    );

    // Shut the tier down: replicas stop, the primary drains.
    replica_a.drain_flag().trip();
    replica_a.wait();
    replica_b.drain_flag().trip();
    replica_b.wait();
    routed.primary().drain().expect("drain primary");
    primary.wait();

    // Promote: the mirror directory replica A maintained is a valid
    // checkpoint chain, so a plain `Server` starts on it and resumes the
    // primary's state byte-identically — then keeps writing its own
    // checkpoints onto the same chain.
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.params = Params::jaccard(0.5, 2).with_exact_labels();
    cfg.checkpoint_dir = Some(mirror_dir);
    cfg.checkpoint_every = Some(8);
    let promoted = Server::start(cfg).expect("promoted primary starts");
    let mut client = Client::connect_with(promoted.local_addr(), policy(5)).expect("connect");
    let stats = client.stats(false).expect("stats");
    println!("promoted primary resumed at epoch {}", stats.epoch);
    assert_eq!(stats.epoch, 30, "promotion covers every shipped update");
    client
        .apply(GraphUpdate::Insert(VertexId(20), VertexId(21)))
        .expect("promoted primary accepts writes");
    client.drain().expect("drain promoted primary");
    promoted.wait();
    let _ = std::fs::remove_dir_all(&base);
    println!("done");
}
