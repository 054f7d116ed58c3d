//! The replication wire, seen from raw sockets.
//!
//! * The replica answers a frame it cannot read the way the primary
//!   does: one typed `ServerError`, then EOF.  A client then sees a
//!   protocol failure, not a bare disconnect it would retry as a network
//!   fault.
//! * A replica keeps its applied state when a stream ends in a
//!   `ServerError`.
//! * The primary's stream resyncs a pruned position in-stream, then
//!   ships the documents its checkpoint directory lists, in order.

use dynscan_core::{
    restore_any, Backend, DirCheckpointStore, GraphUpdate, Params, Session, SnapshotKind, VertexId,
};
use dynscan_graph::snapshot::fnv1a;
use dynscan_serve::frame::encode_frame;
use dynscan_serve::proto::{
    read_request, read_response, write_request, write_response, UNSOLICITED_ID,
};
use dynscan_serve::{
    Client, ReplicaSource, Request, RequestBody, Response, ResponseBody, ServeConfig, Server,
};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[test]
fn corrupt_frame_gets_one_server_error_then_eof() {
    let dir = std::env::temp_dir().join(format!("dynscan-replica-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.replica_of = Some(ReplicaSource::Tail {
        dir: dir.clone(),
        poll_interval: Duration::from_millis(20),
    });
    let replica = Server::start(cfg).expect("replica starts");
    let request = Request {
        id: 7,
        body: RequestBody::Stats {
            include_state_checksum: false,
        },
    };
    let mut frame = encode_frame(&request.encode());
    // Bytes 12..20 of the header hold the payload checksum.
    frame[12] ^= 0x01;
    let mut raw = std::net::TcpStream::connect(replica.local_addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&frame).expect("send the corrupt frame");
    let reply = read_response(&mut raw).expect("a typed reply before the close");
    assert_eq!(reply.id, UNSOLICITED_ID);
    assert!(
        matches!(&reply.body, ResponseBody::ServerError { message } if message.contains("checksum")),
        "expected a checksum ServerError, got {reply:?}"
    );
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "exactly one reply, then EOF");
    replica.drain_flag().trip();
    replica.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dynscan-replica-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Poll `probe` until it returns `Some` or 30 s pass.
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

fn params() -> Params {
    Params::jaccard(0.5, 2).with_exact_labels().with_seed(42)
}

fn path_update(j: u64) -> GraphUpdate {
    GraphUpdate::Insert(VertexId(j as u32), VertexId(j as u32 + 1))
}

/// A `ServerError` on a replication stream says the primary could not
/// serve the position, not that the replica's state is wrong: the
/// replica keeps its epoch and resubscribes from the position it holds.
/// The fake primary ships one full document, then answers every
/// resubscription with a `ServerError`.
#[test]
fn stream_server_error_keeps_the_applied_epoch() {
    let mut session = Session::builder()
        .backend(Backend::DynStrClu)
        .params(params())
        .build()
        .expect("session");
    for j in 0..12 {
        session.apply(path_update(j)).expect("apply");
    }
    let full = session.checkpoint_bytes();
    const FULL_SEQ: u64 = 3;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the fake primary");
    listener.set_nonblocking(true).unwrap();
    let fake_addr = listener.local_addr().unwrap();
    let (reached_tx, reached_rx) = mpsc::channel::<()>();
    let (resubscribed_tx, resubscribed_rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let fake_stop = Arc::clone(&stop);
    let fake = std::thread::spawn(move || {
        let mut first = true;
        while !fake_stop.load(Ordering::SeqCst) {
            let mut conn = match listener.accept() {
                Ok((conn, _)) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(e) => panic!("fake primary accept failed: {e}"),
            };
            conn.set_nonblocking(false).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let Ok(request) = read_request(&mut conn) else {
                continue;
            };
            let RequestBody::Subscribe { from_seq } = request.body else {
                panic!("the replica sent {request:?}, not a subscription");
            };
            let reply = |body| Response {
                id: request.id,
                body,
            };
            if first {
                first = false;
                assert_eq!(from_seq, None, "a fresh replica subscribes from scratch");
                write_response(
                    &mut conn,
                    &reply(ResponseBody::ShipDocument {
                        seq: FULL_SEQ,
                        kind: SnapshotKind::Full,
                        payload: full.clone(),
                    }),
                )
                .expect("ship the full document");
                write_response(
                    &mut conn,
                    &reply(ResponseBody::ReplicaCaughtUp {
                        seq: Some(FULL_SEQ),
                    }),
                )
                .expect("mark catch-up");
                // Hold the stream until the test saw the epoch, then
                // drop it so the replica resubscribes.
                let _ = reached_rx.recv();
            } else {
                let _ = write_response(
                    &mut conn,
                    &reply(ResponseBody::ServerError {
                        message: "reading the checkpoint directory failed".into(),
                    }),
                );
                let _ = resubscribed_tx.send(from_seq);
            }
        }
    });

    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.replica_of = Some(ReplicaSource::Subscribe {
        primary_addr: fake_addr.to_string(),
        mirror_dir: None,
    });
    let replica = Server::start(cfg).expect("replica starts");
    let mut reader = Client::connect(replica.local_addr()).expect("connect");
    let epoch = session.updates_applied();
    wait_for("the replica to apply the full document", || {
        let stats = reader.stats(false).ok()?;
        (stats.epoch == epoch).then_some(())
    });
    reached_tx
        .send(())
        .expect("the fake primary holds the stream");
    // Several reconnect cycles, each answered with a `ServerError`: the
    // replica has handled the first three once it subscribes a fourth
    // time.
    let resubscriptions: Vec<Option<u64>> = (0..4)
        .map(|_| {
            resubscribed_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the replica resubscribes")
        })
        .collect();
    let stats = reader.stats(false).expect("replica stats");
    assert_eq!(
        (stats.epoch, stats.last_checkpoint_seq),
        (epoch, Some(FULL_SEQ)),
        "a stream ServerError must not reset the replica"
    );
    assert!(
        resubscriptions.iter().all(|&from| from == Some(FULL_SEQ)),
        "every resubscription resumes from the applied position: {resubscriptions:?}"
    );
    replica.drain_flag().trip();
    replica.wait();
    stop.store(true, Ordering::SeqCst);
    fake.join().expect("fake primary");
}

/// Read the next replication-stream message, skipping nothing.
fn next_body(stream: &mut TcpStream, id: u64) -> ResponseBody {
    let response = read_response(stream).expect("a stream message");
    assert_eq!(response.id, id, "stream messages echo the subscription id");
    response.body
}

/// A subscription whose position was pruned resyncs in-stream: it gets
/// the newest full snapshot, then catch-up, then every later document
/// live in sequence order; staging files are never shipped; and the
/// shipped documents replay to the primary's state byte-for-byte.
#[test]
fn subscription_resyncs_a_pruned_position_and_streams_live() {
    let dir = temp_dir("pruned");
    let mut cfg = ServeConfig::new("127.0.0.1:0");
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = Some(2);
    cfg.full_every = 2;
    cfg.keep_last = Some(1);
    cfg.params = params();
    let primary = Server::start(cfg).expect("primary starts");
    let mut writer = Client::connect(primary.local_addr()).expect("connect");
    let mut j = 0;
    while j < 20 {
        writer.apply(path_update(j)).expect("apply");
        j += 1;
    }
    let listed = DirCheckpointStore::new(&dir).list().expect("list");
    assert!(
        listed.first().is_some_and(|&(seq, _, _)| seq > 0),
        "retention pruned seq 0: {listed:?}"
    );
    // A staging file, as a crashed write leaves behind.
    std::fs::write(dir.join("ckpt-00000099-delta.snap.tmp"), b"torn").expect("stray file");

    let mut stream = TcpStream::connect(primary.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let id = 5;
    write_request(
        &mut stream,
        &Request {
            id,
            body: RequestBody::Subscribe { from_seq: Some(0) },
        },
    )
    .expect("subscribe");
    let mut shipped: Vec<(u64, SnapshotKind, Vec<u8>)> = Vec::new();
    loop {
        match next_body(&mut stream, id) {
            ResponseBody::ShipDocument { seq, kind, payload } => {
                if shipped.is_empty() {
                    assert_eq!(kind, SnapshotKind::Full, "a pruned position resyncs");
                }
                shipped.push((seq, kind, payload));
            }
            ResponseBody::ReplicaCaughtUp { seq } => {
                assert!(!shipped.is_empty(), "the resync ships before catch-up");
                assert_eq!(seq, shipped.last().map(|d| d.0));
                break;
            }
            other => panic!("unexpected stream message {other:?}"),
        }
    }
    // Live: cadence checkpoints and an explicit one.
    while j < 26 {
        writer.apply(path_update(j)).expect("apply");
        j += 1;
    }
    let ack = writer.checkpoint_now().expect("checkpoint");
    assert_eq!(ack.updates_applied, j);
    while shipped.last().map(|d| d.0) != Some(ack.sequence) {
        match next_body(&mut stream, id) {
            ResponseBody::ShipDocument { seq, kind, payload } => shipped.push((seq, kind, payload)),
            other => panic!("unexpected stream message {other:?}"),
        }
    }
    for pair in shipped.windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "shipped out of order: {} then {}",
            pair[0].0,
            pair[1].0
        );
    }
    assert!(
        shipped.iter().all(|d| d.0 != 99),
        "a staging file was shipped"
    );

    let mut replayed = None;
    for (seq, kind, payload) in &shipped {
        match kind {
            SnapshotKind::Full => replayed = Some(restore_any(payload).expect("restore a full")),
            SnapshotKind::Delta => replayed
                .as_mut()
                .expect("a delta follows a full")
                .apply_delta_bytes(payload)
                .unwrap_or_else(|e| panic!("delta {seq} does not apply: {e}")),
        }
    }
    let replayed = replayed.expect("a full was shipped");
    let stats = writer.stats(true).expect("primary stats");
    assert_eq!(stats.epoch, replayed.updates_applied());
    assert_eq!(
        stats.state_checksum.expect("requested"),
        fnv1a(&replayed.checkpoint_bytes()),
        "the shipped documents do not replay to the primary's state"
    );
    drop(stream);
    writer.drain().expect("drain primary");
    primary.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
