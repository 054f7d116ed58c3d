//! End-to-end smoke tests for the service: concurrent clients over real
//! sockets, typed overload replies, the vertex-id bound, pipelined
//! ordering, read-your-writes against a sequential oracle, graceful
//! drain with a final checkpoint, and resume-from-chain across a
//! (graceful) restart.

use dynscan_core::fixtures::{two_cliques_params, two_cliques_with_hub};
use dynscan_core::{GraphUpdate, SnapshotKind, VertexId};
use dynscan_serve::frame::encode_frame;
use dynscan_serve::proto::read_response;
use dynscan_serve::{
    Client, ClientError, RejectReason, Request, RequestBody, ResponseBody, RetryPolicy,
    ServeConfig, Server,
};
use proptest::prelude::*;
use std::time::Duration;

fn fixture_inserts() -> Vec<GraphUpdate> {
    two_cliques_with_hub()
        .edges()
        .map(|e| GraphUpdate::Insert(e.lo(), e.hi()))
        .collect()
}

fn quick_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(100),
        request_timeout: Duration::from_secs(10),
        seed,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dynscan-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_clients_then_drain_acknowledges_everything() {
    let cfg = ServeConfig::new("127.0.0.1:0");
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr();
    // Four writer threads with disjoint vertex ranges (a path each), plus
    // interleaved group-by queries.
    const WRITERS: usize = 4;
    const EDGES_PER_WRITER: u64 = 30;
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with(addr, quick_policy(w as u64)).expect("connect");
                let base = (w as u32) * 100;
                let mut acked = 0u64;
                for i in 0..EDGES_PER_WRITER as u32 {
                    let update = GraphUpdate::Insert(VertexId(base + i), VertexId(base + i + 1));
                    let (epoch, _flips) = client.apply(update).expect("apply acked");
                    assert!(epoch > 0);
                    acked += 1;
                    if i % 7 == 0 {
                        // The client verifies the read-your-writes floor
                        // internally; an Err here is a contract breach.
                        client
                            .group_by(&[VertexId(base), VertexId(base + i)])
                            .expect("query succeeds and observes acked writes");
                    }
                }
                assert_eq!(acked, EDGES_PER_WRITER);
                client.last_acked_epoch()
            })
        })
        .collect();
    let mut max_epoch = 0;
    for handle in handles {
        max_epoch = max_epoch.max(handle.join().expect("writer thread"));
    }
    let total = WRITERS as u64 * EDGES_PER_WRITER;
    assert_eq!(max_epoch, total, "some writer observed the final epoch");
    // Stats agree with the sum of acknowledgements.
    let mut client = Client::connect_with(addr, quick_policy(99)).expect("connect");
    let stats = client.stats(false).expect("stats");
    assert_eq!(stats.epoch, total);
    assert_eq!(stats.queued_updates, 0, "queues drain once acked");
    assert!(!stats.draining);
    // In-band drain: typed DrainStarted, then the server exits with every
    // acknowledged update accounted for.
    let drain_epoch = client.drain().expect("drain accepted");
    assert_eq!(drain_epoch, total);
    let report = server.wait();
    assert_eq!(report.updates_applied, total);
    assert!(report.final_checkpoint.is_none(), "no store configured");
    assert!(report.checkpoint_error.is_none());
}

#[test]
fn overload_is_typed_and_bounded_never_buffered() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.max_conn_queued_updates = 2;
    cfg.max_global_queued_updates = 8;
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr();
    // A batch over the per-connection budget is refused outright with a
    // typed reply — deterministically, regardless of timing.
    let mut client = Client::connect_with(addr, quick_policy(1)).expect("connect");
    let big: Vec<GraphUpdate> = (0..4)
        .map(|i| GraphUpdate::Insert(VertexId(i), VertexId(i + 1)))
        .collect();
    match client.batch_apply(&big) {
        Err(ClientError::RetriesExhausted { .. }) => {}
        other => panic!("a 4-update batch over a 2-update budget must stay refused: {other:?}"),
    }
    assert!(
        client.overload_retries() > 0,
        "the client saw Overloaded and retried"
    );
    // Within budget the same connection works.
    let ack = client.batch_apply(&big[..2]).expect("small batch fits");
    assert_eq!(ack.applied, 2);
    // Raw pipelining: fire 64 applies without reading a single reply.
    // Every request gets exactly one reply (some may be Overloaded); the
    // server neither buffers unboundedly nor drops requests.
    use std::io::Write as _;
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut blob = Vec::new();
    for i in 0..64u64 {
        let request = dynscan_serve::Request {
            id: i + 1,
            body: RequestBody::Apply(GraphUpdate::Insert(
                VertexId(200 + i as u32),
                VertexId(201 + i as u32),
            )),
        };
        blob.extend_from_slice(&dynscan_serve::frame::encode_frame(&request.encode()));
    }
    raw.write_all(&blob).expect("pipelined writes");
    let mut seen = std::collections::BTreeMap::new();
    let mut overloaded = 0u64;
    for _ in 0..64 {
        let response = read_response(&mut raw).expect("a reply per request");
        assert!(
            seen.insert(response.id, ()).is_none(),
            "duplicate reply for id {}",
            response.id
        );
        if matches!(response.body, ResponseBody::Overloaded { .. }) {
            overloaded += 1;
        }
    }
    assert_eq!(seen.len(), 64, "every pipelined request was answered");
    // The server stayed healthy: a fresh client still gets service and
    // the queues are empty again.
    let stats = client.stats(false).expect("stats after the flood");
    assert_eq!(stats.queued_updates, 0);
    assert!(
        stats.epoch + overloaded >= 64 + 2,
        "acked + overloaded covers the flood (epoch {}, overloaded {overloaded})",
        stats.epoch
    );
    server.drain_flag().trip();
    server.wait();
}

#[test]
fn vertex_ids_past_the_bound_are_rejected_before_the_engine_sees_them() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.max_vertices = 1_000;
    let server = Server::start(cfg).expect("server starts");
    let mut client = Client::connect_with(server.local_addr(), quick_policy(12)).expect("connect");
    client
        .apply(GraphUpdate::Insert(VertexId(0), VertexId(999)))
        .expect("the largest id in bounds is accepted");
    let before = client.stats(false).expect("stats");
    for bad in [1_000, u32::MAX - 1] {
        for update in [
            GraphUpdate::Insert(VertexId(0), VertexId(bad)),
            GraphUpdate::Delete(VertexId(bad), VertexId(1)),
        ] {
            match client.apply(update) {
                Err(ClientError::Rejected(RejectReason::InvalidVertex { v })) => {
                    assert_eq!(v, VertexId(bad));
                }
                other => panic!("{update:?} must be rejected as InvalidVertex: {other:?}"),
            }
        }
    }
    // A batch skips the out-of-bounds updates and counts them rejected.
    let ack = client
        .batch_apply(&[
            GraphUpdate::Insert(VertexId(1), VertexId(2)),
            GraphUpdate::Insert(VertexId(1), VertexId(1_000)),
            GraphUpdate::Insert(VertexId(u32::MAX - 1), VertexId(2)),
            GraphUpdate::Insert(VertexId(2), VertexId(3)),
        ])
        .expect("batch acked");
    assert_eq!((ack.applied, ack.rejected), (2, 2));
    let after = client.stats(false).expect("the server still answers");
    assert_eq!(after.num_vertices, before.num_vertices);
    assert_eq!(after.epoch, 3);
    server.drain_flag().trip();
    server.wait();
}

#[test]
fn pipelined_requests_keep_order_and_read_your_writes() {
    let server = Server::start(ServeConfig::new("127.0.0.1:0")).expect("server starts");
    // Writes and both read shapes, interleaved and sent in one burst
    // before any reply is read.
    let bodies: Vec<RequestBody> = (0..48u32)
        .map(|i| match i % 3 {
            0 => RequestBody::Apply(GraphUpdate::Insert(VertexId(i), VertexId(i + 1))),
            1 => RequestBody::GroupBy(vec![VertexId(0), VertexId(i)]),
            _ => RequestBody::ClusterOf(VertexId(i)),
        })
        .collect();
    let mut blob = Vec::new();
    for (id, body) in (1u64..).zip(&bodies) {
        let request = Request {
            id,
            body: body.clone(),
        };
        blob.extend_from_slice(&encode_frame(&request.encode()));
    }
    use std::io::Write as _;
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&blob).expect("one pipelined write");
    // The epoch of the latest Apply before the current position.
    let mut floor = 0u64;
    for (id, body) in (1u64..).zip(&bodies) {
        let response = read_response(&mut raw).expect("a reply per request");
        assert_eq!(response.id, id, "replies come back in request order");
        match (body, response.body) {
            (RequestBody::Apply(_), ResponseBody::Applied { epoch, .. }) => {
                assert!(epoch > floor, "acks advance the epoch");
                floor = epoch;
            }
            (
                RequestBody::GroupBy(_) | RequestBody::ClusterOf(_),
                ResponseBody::Groups { epoch, .. },
            ) => assert!(
                epoch >= floor,
                "request {id} read epoch {epoch}, below the earlier pipelined write at {floor}"
            ),
            (sent, got) => panic!("{sent:?} answered with {got:?}"),
        }
    }
    assert_eq!(floor, 16, "every pipelined write was applied");
    server.drain_flag().trip();
    server.wait();
}

#[test]
fn drain_closes_connections_with_terminal_reply_and_refuses_new_requests() {
    let server = Server::start(ServeConfig::new("127.0.0.1:0")).expect("server starts");
    let addr = server.local_addr();
    // A raw bystander connection, idle at drain time.
    let mut bystander = std::net::TcpStream::connect(addr).expect("connect");
    bystander
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut client = Client::connect_with(addr, quick_policy(2)).expect("connect");
    client
        .apply(GraphUpdate::Insert(VertexId(0), VertexId(1)))
        .expect("apply");
    client.drain().expect("drain accepted");
    // The bystander gets a terminal typed reply before the socket
    // closes — never a silent drop.
    let terminal = dynscan_serve::proto::read_response(&mut bystander)
        .expect("terminal frame arrives before close");
    assert!(
        matches!(terminal.body, ResponseBody::Draining),
        "terminal reply is Draining, got {terminal:?}"
    );
    let report = server.wait();
    assert_eq!(report.updates_applied, 1);
    // New connections are refused once the listener is gone.
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn drain_takes_final_checkpoint_and_restart_resumes_byte_identically() {
    let dir = temp_dir("graceful-restart");
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = Some(8);
    cfg.background_checkpoints = true;
    cfg.params = two_cliques_params().with_exact_labels().with_seed(77);
    let server = Server::start(cfg.clone()).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::connect_with(addr, quick_policy(3)).expect("connect");
    for update in fixture_inserts() {
        client.apply(update).expect("apply");
    }
    let stats = client.stats(true).expect("stats with checksum");
    let checksum_before = stats.state_checksum.expect("requested");
    assert_eq!(stats.epoch, 35);
    server.drain_flag().trip();
    let report = server.wait();
    let final_info = report.final_checkpoint.expect("store configured");
    assert_eq!(final_info.kind, SnapshotKind::Full);
    assert_eq!(
        final_info.updates_applied, 35,
        "the drain checkpoint covers every ack"
    );
    assert!(report.checkpoint_error.is_none());
    // No torn temporary files survive the drain.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| !name.ends_with(".snap"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "stray files after drain: {leftovers:?}"
    );
    // Restart on the same directory: byte-identical state, same epoch.
    let server = Server::start(cfg).expect("server resumes");
    let mut client = Client::connect_with(server.local_addr(), quick_policy(4)).expect("connect");
    let stats = client.stats(true).expect("stats");
    assert_eq!(stats.epoch, 35, "resume covers every acknowledged update");
    assert_eq!(
        stats.state_checksum.expect("requested"),
        checksum_before,
        "restarted state is byte-identical to the drained state"
    );
    // And the service still works: queries and updates proceed.
    let groups = client.group_by(&[VertexId(0), VertexId(6)]).expect("query");
    assert_eq!(groups.len(), 2, "the two cliques are distinct clusters");
    server.drain_flag().trip();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clustering_queries_take_the_lock_free_epoch_path() {
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.params = two_cliques_params().with_exact_labels().with_seed(11);
    let server = Server::start(cfg).expect("server starts");
    let mut client = Client::connect_with(server.local_addr(), quick_policy(8)).expect("connect");
    for update in fixture_inserts() {
        client.apply(update).expect("apply");
    }
    assert_eq!(server.epoch_reads_served(), 0, "writes never count");
    // Interleave queries with further writes: every clustering query is
    // answered from the published epoch snapshot (the engine-lock
    // fallback would leave the counter behind), and each reply's epoch
    // still satisfies the client's read-your-writes floor — the client
    // errors out internally if it does not.
    let mut queries = 0u64;
    for i in 0..10u32 {
        let groups = client
            .group_by(&[VertexId(0), VertexId(6)])
            .expect("group-by observes acked writes");
        assert_eq!(groups.len(), 2, "the two cliques stay distinct clusters");
        queries += 1;
        let of = client.cluster_of(VertexId(3)).expect("cluster-of");
        assert!(
            of.groups.iter().flatten().any(|&v| v == VertexId(3)),
            "cluster-of(3) contains 3"
        );
        queries += 1;
        // Checksum-free stats ride the same lock-free path, with every
        // engine-derived field epoch-atomic as of `stats.epoch`.
        let stats = client.stats(false).expect("stats");
        assert!(stats.state_checksum.is_none());
        assert!(stats.num_edges >= 10, "fixture edges visible in stats");
        queries += 1;
        client
            .apply(GraphUpdate::Insert(VertexId(100 + i), VertexId(101 + i)))
            .expect("interleaved write");
    }
    assert_eq!(
        server.epoch_reads_served(),
        queries,
        "every clustering query was served without the engine lock"
    );
    server.drain_flag().trip();
    server.wait();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One client's view must match a sequential oracle exactly: same
    /// accept/reject outcomes, same group-by results, monotone epochs.
    /// This is the read-your-writes proptest of the tentpole — the
    /// oracle applies the same operations to a local `Session` with
    /// identical parameters, so any acknowledged update the service
    /// failed to apply before a query would show up as a mismatch (and
    /// the client independently enforces the epoch floor).
    #[test]
    fn read_your_writes_matches_sequential_oracle(
        ops in prop::collection::vec((0u8..3, 0u32..14, 0u32..14), 1..40),
    ) {
        let params = two_cliques_params().with_exact_labels().with_seed(5);
        let mut cfg = ServeConfig::new("127.0.0.1:0");
        cfg.params = params;
        let server = Server::start(cfg).expect("server starts");
        let mut client =
            Client::connect_with(server.local_addr(), quick_policy(6)).expect("connect");
        let mut oracle = dynscan_core::Session::builder()
            .backend(dynscan_core::Backend::DynStrClu)
            .params(params)
            .build()
            .expect("oracle session");
        for &(kind, a, b) in &ops {
            if kind < 2 {
                let update = if kind == 0 {
                    GraphUpdate::Insert(VertexId(a), VertexId(b))
                } else {
                    GraphUpdate::Delete(VertexId(a), VertexId(b))
                };
                let served = client.apply(update);
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
                let served = client.group_by(&q).expect("query");
                let local = oracle.cluster_group_by(&q);
                prop_assert_eq!(served, local, "group-by diverged from the oracle");
            }
        }
        server.drain_flag().trip();
        server.wait();
    }
}
