//! The replica answers a frame it cannot read the way the primary does:
//! one typed `ServerError`, then EOF.  A client then sees a protocol
//! failure, not a bare disconnect it would retry as a network fault.

use dynscan_serve::frame::encode_frame;
use dynscan_serve::proto::{read_response, UNSOLICITED_ID};
use dynscan_serve::{ReplicaSource, Request, RequestBody, ResponseBody, ServeConfig, Server};
use std::io::{Read as _, Write as _};
use std::time::Duration;

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
