//! In-process replay of a served run's acknowledged order.
//!
//! Every `Applied`/`BatchApplied` reply carries the request's epoch —
//! its end position in the server's global apply order — so sorting the
//! acknowledgements by epoch rebuilds that order exactly.  The replay
//! applies the preload and then the acknowledged requests, with the
//! same batch boundaries, to a fresh [`Session`] built with the same
//! parameters.  Its state checksum must equal the server's (the
//! correctness gate).  A durable workload's replay also mirrors the
//! server's checkpoint cadence, because the server captures inside the
//! write path.
//!
//! With a [`Recorder`] the replay also times each layer's public calls
//! from here — `Session::apply`/`apply_batch`, the extraction
//! `Session::clustering()` runs after every mutation that advances the
//! label epoch (the same one epoch publication runs), `EpochSnapshot`
//! reads, `DynGraph::try_apply` and `closed_intersection_size` on a
//! standalone mirror, the wire codec on the run's own messages, and
//! checkpoint capture, write and restore.  No span goes inside the
//! program.

use crate::drive::{Ack, Read};
use crate::gen::{Inputs, Query};
use crate::workload::{Workload, CHECKPOINT_EVERY, PRELOAD_BATCH};
use dynscan_core::sync::Arc;
use dynscan_core::{
    CheckpointStore, Clusterer, DirCheckpointStore, ElmStats, EpochSnapshot, GraphUpdate, Session,
    SnapshotKind, StrCluResult,
};
use dynscan_graph::snapshot::fnv1a;
use dynscan_graph::DynGraph;
use dynscan_serve::frame::encode_frame;
use dynscan_serve::{Request, RequestBody, Response, ResponseBody};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `ServeConfig` default: every k-th automatic checkpoint is full.
const FULL_EVERY: u64 = 8;

/// One replayed call, timed.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySpan {
    /// Layer call, e.g. `core.apply`.
    pub name: &'static str,
    /// Epoch of the request the call belongs to (shared with its client
    /// span).
    pub epoch: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Samples and counts collected by a traced replay.
#[derive(Default)]
pub struct Recorder {
    /// Every timed call, in replay order.
    pub spans: Vec<ReplaySpan>,
    /// Codec bytes of each reply frame.
    pub reply_bytes: Vec<f64>,
    /// Encoded size of each captured checkpoint document.
    pub doc_bytes: Vec<f64>,
    /// Labelling counters when the churn started.
    pub stats_before: Option<ElmStats>,
    /// Labelling counters after the last acknowledged request.
    pub stats_after: Option<ElmStats>,
    /// `Clusterer::memory_bytes` after the replay.
    pub memory_bytes: usize,
    /// Topology mirror for the graph-layer calls.
    mirror: DynGraph,
}

impl Recorder {
    fn time<T>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.spans.push(ReplaySpan {
            name,
            epoch,
            dur_ns: t0.elapsed().as_nanos() as u64,
        });
        out
    }

    /// Durations of every span called `name`, in µs.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }
}

/// The server's automatic-checkpoint cadence, mirrored.
struct Checkpoints {
    since: u64,
    seq: u64,
    /// Where a traced replay writes its documents.
    store: Option<DirCheckpointStore>,
}

/// The replayed engine.
struct Engine {
    session: Option<Session>,
    ckpt: Option<Checkpoints>,
}

impl Engine {
    fn session(&mut self) -> &mut Session {
        self.session
            .as_mut()
            .expect("session is only taken inside capture")
    }

    /// Apply one request as the server did; returns whether the label
    /// epoch advanced (the server then re-extracted and published).
    /// Epoch 0 marks the preload, whose applies are not timed (its
    /// checkpoint captures are).
    fn mutate(
        &mut self,
        updates: &[GraphUpdate],
        batch: bool,
        epoch: u64,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<bool, String> {
        let timed = epoch > 0;
        let session = self.session();
        let label_before = session.label_epoch();
        let apply = |s: &mut Session| -> Result<(), String> {
            if batch {
                let before = s.updates_applied();
                s.apply_batch(updates);
                if s.updates_applied() - before != updates.len() as u64 {
                    return Err("replay: a batch update was rejected".into());
                }
                Ok(())
            } else {
                s.apply(updates[0])
                    .map(|_| ())
                    .map_err(|e| format!("replay: {e}"))
            }
        };
        match rec {
            Some(r) if timed => r.time("core.apply", epoch, || apply(session))?,
            _ => apply(session)?,
        }
        let advanced = session.label_epoch() != label_before;
        self.checkpoint(updates.len() as u64, epoch, rec)?;
        Ok(advanced)
    }

    /// The server's `after_mutation` cadence: capture once
    /// [`CHECKPOINT_EVERY`] updates have accumulated, delta unless the
    /// sequence number is a multiple of [`FULL_EVERY`].
    fn checkpoint(
        &mut self,
        submitted: u64,
        epoch: u64,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<(), String> {
        let Some(ckpt) = self.ckpt.as_mut() else {
            return Ok(());
        };
        ckpt.since += submitted;
        if ckpt.since < CHECKPOINT_EVERY {
            return Ok(());
        }
        ckpt.since = 0;
        let seq = ckpt.seq;
        ckpt.seq += 1;
        let prefer_delta = !seq.is_multiple_of(FULL_EVERY);
        let mut inner: Box<dyn Clusterer> =
            self.session.take().expect("session present").into_inner();
        let capture = match rec {
            Some(r) => {
                let name = if prefer_delta {
                    "store.capture_delta"
                } else {
                    "store.capture_full"
                };
                r.time(name, epoch, || inner.capture_checkpoint(prefer_delta, 0))
            }
            None => inner.capture_checkpoint(prefer_delta, 0),
        };
        self.session = Some(Session::from_clusterer(inner));
        if let (Some(r), Some(store)) = (rec, self.ckpt.as_mut().and_then(|c| c.store.as_mut())) {
            r.doc_bytes.push(capture.payload_len() as f64);
            let kind: SnapshotKind = capture.kind();
            r.time("store.write", epoch, || -> Result<(), String> {
                let mut w = store.writer(seq, kind).map_err(|e| e.to_string())?;
                capture.write_to(&mut w).map_err(|e| e.to_string())?;
                w.flush().map_err(|e| e.to_string())
            })?;
        }
        Ok(())
    }
}

/// What a replay produced.
pub struct Replayed {
    /// FNV-1a of the replayed engine's canonical full snapshot.
    pub checksum: u64,
    /// Edges in the replayed graph.
    pub num_edges: usize,
}

/// Replay the preload and `acks` (in epoch order).  `reads` are
/// re-answered from an [`EpochSnapshot`] at the epoch each observed.
/// With `rec`, time every layer call into it; `ckpt_dir` then receives
/// the durable workload's checkpoint documents.
pub fn replay(
    w: &Workload,
    inputs: &Inputs,
    acks: &[Ack],
    reads: &[Read],
    mut rec: Option<&mut Recorder>,
    ckpt_dir: Option<&Path>,
) -> Result<Replayed, String> {
    let session = Session::builder()
        .params(w.params())
        .build()
        .map_err(|e| format!("replay session: {e}"))?;
    let mut engine = Engine {
        session: Some(session),
        ckpt: w.durable.then(|| Checkpoints {
            since: 0,
            seq: 0,
            store: ckpt_dir.map(DirCheckpointStore::new),
        }),
    };
    for chunk in inputs.preload.chunks(PRELOAD_BATCH) {
        engine.mutate(chunk, true, 0, &mut rec)?;
    }
    let mut order: Vec<Ack> = acks.to_vec();
    order.sort_by_key(|a| a.epoch);
    let mut reads: Vec<&Read> = reads.iter().collect();
    reads.sort_by_key(|r| r.epoch);
    let mut next_read = 0;
    if let Some(r) = rec.as_deref_mut() {
        for update in &inputs.preload {
            let (u, v) = update.endpoints();
            r.mirror.insert_edge(u, v).map_err(|e| e.to_string())?;
        }
        r.stats_before = engine.session().stats();
    }
    let mut snapshot: Option<EpochSnapshot> = None;
    for ack in &order {
        let applied = engine.session().updates_applied();
        next_read = answer_reads(
            &mut engine,
            &reads,
            next_read,
            applied,
            &mut snapshot,
            &mut rec,
        );
        if applied + ack.len as u64 != ack.epoch {
            return Err(format!(
                "acknowledged epochs are not a total order: epoch {} after {applied} applied",
                ack.epoch
            ));
        }
        let updates = &inputs.streams[ack.client][ack.start..ack.start + ack.len];
        let advanced = engine.mutate(updates, ack.batch, ack.epoch, &mut rec)?;
        if let Some(r) = rec.as_deref_mut() {
            if advanced {
                let session = engine.session();
                r.time("core.publish_extract", ack.epoch, || {
                    session.clustering();
                });
            }
            record_write(r, updates, ack)?;
        }
    }
    let applied = engine.session().updates_applied();
    next_read = answer_reads(
        &mut engine,
        &reads,
        next_read,
        applied,
        &mut snapshot,
        &mut rec,
    );
    if next_read != reads.len() {
        return Err(format!(
            "{} reads observed an epoch that is not an acknowledged position",
            reads.len() - next_read
        ));
    }
    let session = engine.session();
    if let Some(r) = rec {
        r.stats_after = session.stats();
        r.memory_bytes = session.memory_bytes();
    }
    Ok(Replayed {
        checksum: fnv1a(&session.checkpoint_bytes()),
        num_edges: session.num_edges(),
    })
}

/// Graph-layer calls and the wire codec for one acknowledged write.
fn record_write(r: &mut Recorder, updates: &[GraphUpdate], ack: &Ack) -> Result<(), String> {
    for &update in updates {
        let mirror = &mut r.mirror;
        let t0 = Instant::now();
        let outcome = mirror.try_apply(update);
        let topo = t0.elapsed().as_nanos() as u64;
        outcome.map_err(|e| format!("mirror: {e}"))?;
        let (u, v) = update.endpoints();
        let t0 = Instant::now();
        std::hint::black_box(mirror.closed_intersection_size(u, v));
        let inter = t0.elapsed().as_nanos() as u64;
        r.spans.push(ReplaySpan {
            name: "graph.topology_apply",
            epoch: ack.epoch,
            dur_ns: topo,
        });
        r.spans.push(ReplaySpan {
            name: "graph.intersection",
            epoch: ack.epoch,
            dur_ns: inter,
        });
    }
    let (request, response) = if ack.batch {
        (
            RequestBody::BatchApply(updates.to_vec()),
            ResponseBody::BatchApplied {
                epoch: ack.epoch,
                applied: updates.len() as u64,
                rejected: 0,
                flips: 0,
            },
        )
    } else {
        (
            RequestBody::Apply(updates[0]),
            ResponseBody::Applied {
                epoch: ack.epoch,
                flips: 0,
            },
        )
    };
    codec(r, ack.epoch, request, response)
}

/// Time `encode`, `encode_frame` and `decode` of one request and its
/// reply.
fn codec(
    r: &mut Recorder,
    epoch: u64,
    request: RequestBody,
    response: ResponseBody,
) -> Result<(), String> {
    let request = Request {
        id: epoch.max(1),
        body: request,
    };
    let response = Response {
        id: epoch.max(1),
        body: response,
    };
    let reply_len = r.time("serve.codec", epoch, || -> Result<usize, String> {
        let payload = request.encode();
        std::hint::black_box(encode_frame(&payload));
        Request::decode(&payload).map_err(|e| e.to_string())?;
        let payload = response.encode();
        let frame = encode_frame(&payload);
        Response::decode(&payload).map_err(|e| e.to_string())?;
        Ok(frame.len())
    })?;
    r.reply_bytes.push(reply_len as f64);
    Ok(())
}

/// Answer, from an epoch snapshot of the replayed state, every read
/// that observed epoch `applied`; returns the next unanswered read.
fn answer_reads(
    engine: &mut Engine,
    reads: &[&Read],
    mut next: usize,
    applied: u64,
    snapshot: &mut Option<EpochSnapshot>,
    rec: &mut Option<&mut Recorder>,
) -> usize {
    let Some(r) = rec.as_deref_mut() else {
        return reads.len();
    };
    // A read below `applied` observed an epoch between two acknowledged
    // positions: it stays unanswered, and the caller reports it.
    while next < reads.len() && reads[next].epoch == applied {
        let read = reads[next];
        next += 1;
        if snapshot
            .as_ref()
            .is_none_or(|s| s.updates_applied != applied)
        {
            *snapshot = Some(epoch_snapshot(engine.session()));
        }
        let snap = snapshot.as_ref().expect("just built");
        let groups = match &read.query {
            Query::GroupBy(vs) => r.time("core.epoch_read", read.epoch, || snap.group_by(vs)),
            Query::ClusterOf(v) => r.time("core.epoch_read", read.epoch, || snap.clusters_of(*v)),
        };
        let request = match &read.query {
            Query::GroupBy(vs) => RequestBody::GroupBy(vs.clone()),
            Query::ClusterOf(v) => RequestBody::ClusterOf(*v),
        };
        let response = ResponseBody::Groups {
            epoch: read.epoch,
            checkpoint_seq: None,
            groups,
        };
        // A codec failure on our own messages is impossible; a panic
        // would be the honest report.
        codec(r, read.epoch, request, response).expect("codec round trip");
    }
    next
}

/// The snapshot `publish_epoch` would publish for the current state.
fn epoch_snapshot(session: &mut Session) -> EpochSnapshot {
    let clustering: StrCluResult = session.clustering().clone();
    EpochSnapshot {
        label_epoch: session.label_epoch(),
        updates_applied: session.updates_applied(),
        algorithm: session.algorithm_name(),
        num_vertices: session.num_vertices() as u64,
        num_edges: session.num_edges() as u64,
        checkpoint_seq: None,
        checkpoints_written: 0,
        clustering: Arc::new(clustering),
        stats: session.stats(),
    }
}
