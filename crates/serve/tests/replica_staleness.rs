//! Property test for the routing consistency contract: random write /
//! read interleavings through a [`RoutedClient`] over a real primary and
//! a real (tailing) replica must match a sequential oracle exactly —
//! bounded-staleness reads are **never silently stale**.  Either the
//! router serves an answer at or above the primary's acknowledged epoch
//! floor (replica fresh enough, or primary fallback), and that answer
//! equals the oracle's, or it errors — it can never return an answer
//! computed on a stale prefix.
//!
//! The replica is deliberately laggy (slow poll interval relative to the
//! checkpoint cadence) so the stale-retry / primary-fallback paths are
//! actually exercised, not just the happy path.

use dynscan_core::{Backend, GraphUpdate, Params, Session, VertexId};
use dynscan_serve::{
    Client, ClientError, ReplicaSource, RetryPolicy, RoutedClient, ServeConfig, Server,
};
use proptest::prelude::*;
use std::time::Duration;

fn params() -> Params {
    Params::jaccard(0.5, 2).with_exact_labels().with_seed(11)
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dynscan-replica-staleness-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Writes go to the primary, reads round-robin through the replica
    /// with the epoch floor enforced; every outcome must match the
    /// sequential oracle.
    #[test]
    fn routed_reads_are_never_silently_stale(
        ops in prop::collection::vec((0u8..3, 0u32..12, 0u32..12), 1..30),
        case in 0u64..1000,
    ) {
        let ckpt_dir = temp_dir(&case.to_string());
        let mut cfg = ServeConfig::new("127.0.0.1:0");
        cfg.checkpoint_dir = Some(ckpt_dir.clone());
        cfg.checkpoint_every = Some(2);
        cfg.params = params();
        let primary = Server::start(cfg).expect("primary starts");
        let mut replica_cfg = ServeConfig::new("127.0.0.1:0");
        replica_cfg.replica_of = Some(ReplicaSource::Tail {
            dir: ckpt_dir.clone(),
            // Slow on purpose: reads routinely race replication, so the
            // floor check has something to catch.
            poll_interval: Duration::from_millis(15),
        });
        let replica = Server::start(replica_cfg).expect("replica starts");

        let primary_client =
            Client::connect_with(primary.local_addr(), quick_policy(case)).expect("connect");
        let rep_client =
            Client::connect_with(replica.local_addr(), quick_policy(case + 1)).expect("connect");
        let mut routed = RoutedClient::new(primary_client, vec![rep_client]);
        let mut oracle = Session::builder()
            .backend(Backend::DynStrClu)
            .params(params())
            .build()
            .expect("oracle session");

        for &(kind, a, b) in &ops {
            if kind < 2 {
                let update = if kind == 0 {
                    GraphUpdate::Insert(VertexId(a), VertexId(b))
                } else {
                    GraphUpdate::Delete(VertexId(a), VertexId(b))
                };
                let served = routed.apply(update);
                let local = oracle.apply(update);
                match (&served, &local) {
                    (Ok((epoch, _)), Ok(_)) => {
                        prop_assert_eq!(*epoch, oracle.updates_applied());
                    }
                    (Err(ClientError::Rejected(_)), Err(_)) => {}
                    other => panic!("accept/reject diverged: {other:?}"),
                }
            } else {
                let q = [VertexId(a), VertexId(b)];
                let ack = routed.group_by(&q).expect("routed read");
                // The floor: nothing below the primary's acknowledged
                // epoch is ever returned.
                prop_assert!(
                    ack.epoch >= routed.floor(),
                    "stale read: epoch {} below floor {}",
                    ack.epoch,
                    routed.floor()
                );
                // And the answer itself is the oracle's — a fresh-enough
                // epoch with wrong bytes would be a replay divergence.
                prop_assert_eq!(
                    ack.groups,
                    oracle.cluster_group_by(&q),
                    "routed group-by diverged from the oracle"
                );
            }
        }
        // The accounting invariant: reads are served by the replica or
        // explicitly fell back — nothing vanished.
        let reads = ops.iter().filter(|&&(kind, _, _)| kind == 2).count() as u64;
        prop_assert_eq!(routed.replica_reads() + routed.primary_fallbacks(), reads);

        replica.drain_flag().trip();
        replica.wait();
        primary.drain_flag().trip();
        primary.wait();
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}
