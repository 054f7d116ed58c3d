//! Checkpoint/restore for [`DynElm`] and [`DynStrClu`]: their inherent
//! `ALGO_TAG` / `restore`, the payload codecs their
//! [`Clusterer`](crate::Clusterer) checkpoint methods write, and the
//! dirty tracking behind differential snapshots (see
//! `dynscan_graph::snapshot` for the wire format).
//!
//! # What is serialised
//!
//! A [`DynElm`] snapshot holds every piece of state its future behaviour
//! depends on:
//!
//! * the algorithm parameters (ε, μ, ρ, δ*, measure, mode, seed);
//! * the work counters, **including the batch epoch** that is mixed into
//!   every estimator stream seed and the one labelling counter that
//!   numbers every labelling of the run (the δᵢ schedule position and
//!   stream-derivation input of the next batch's jobs) — restoring them
//!   is what makes future sampled relabel decisions draw the same random
//!   bits as the uninterrupted instance;
//! * the graph topology with its exact adjacency slot order (positional
//!   uniform sampling must resume on identical slot sequences);
//! * the ρ-approximate edge labelling;
//! * the full distributed-tracking state: shared counters, per-vertex
//!   checkpoint heaps, and every coordinator's mid-round protocol state.
//!
//! A [`DynStrClu`] snapshot is exactly the DynELM payload under its own
//! algorithm tag: it adds no section.  Its two extra modules are pure
//! functions of (labels, μ), so every restore and every delta replay
//! derives them through one function, `derive_strclu_modules`: the
//! per-vertex auxiliary information (`SimCnt`, core flags, similar /
//! similar-core neighbour sets) and the `CC-Str(G_core)` connectivity
//! structure.  The latter's internal HDT hierarchy is history-dependent,
//! but its semantics depend only on the sim-core edge set, so it is
//! rebuilt deterministically ([`HdtConnectivity::rebuild_from_edges`]).
//! Format v1–v3 full documents still carry a copy of vAuxInfo in a
//! trailing AUX section; restore reads past its framing without decoding
//! it, and a v4 or later document must not carry one.
//!
//! Format v1–v4 ELM payloads also carry per-edge invocation counters, from
//! when the δ schedule ran per edge: a RELABELS section in full payloads,
//! a counter in every live delta edge record, and a second copy of the
//! labelling count in STATS.  Restore reads past all three; a v5 document
//! carries none of them.
//!
//! # Validation
//!
//! Restore cross-checks the sections against each other (labels ↔ edges,
//! DT instances ↔ edges) so a corrupt or hand-edited snapshot fails with
//! a [`SnapshotError`] instead of producing an instance that silently
//! violates the algorithm's invariants.

use crate::aux::VertexAux;
use crate::elm::{DynElm, ElmStats};
use crate::params::Params;
use crate::strclu::{core_graph_seed, DynStrClu, DEFAULT_SHARD_FLIP_CUTOFF};
use dynscan_conn::HdtConnectivity;
use dynscan_dt::{CoordinatorState, DtRegistry, ParticipantEntry};
use dynscan_graph::snapshot::{
    fnv1a, read_document_meta, split_document, write_document, write_document_prechecked,
    DocumentMeta, SnapshotHeader, SnapshotKind, FORMAT_VERSION_V3, FORMAT_VERSION_V4,
};
use dynscan_graph::{DynGraph, EdgeKey, SnapReader, SnapWriter, SnapshotError, VertexId};
use dynscan_sim::{EdgeLabel, LabellingStrategy, SimilarityMeasure};
use std::collections::{HashMap, HashSet};

/// Section tags of the core snapshot payloads.
mod section {
    pub const PARAMS: u32 = 0x5061_7201; // "Par."
    pub const STATS: u32 = 0x5374_6101; // "Sta."
    pub const GRAPH: u32 = 0x4772_6101; // "Gra."
    pub const LABELS: u32 = 0x4c61_6201; // "Lab."
    /// The per-edge invocation counters v1–v4 ELM payloads carry.
    pub const RELABELS: u32 = 0x5265_6c01; // "Rel."
    pub const DT: u32 = 0x4474_7201; // "Dtr."
    /// The vAuxInfo copy v1–v3 DynStrClu full payloads append.
    pub const AUX: u32 = 0x4175_7801; // "Aux."
                                      // Differential (v2) sections.
    pub const DELTA_GRAPH: u32 = 0x6447_7201; // "dGr."
    pub const DELTA_DT_VERTS: u32 = 0x6444_7601; // "dDv."
    pub const DELTA_EDGES: u32 = 0x6445_6401; // "dEd."
}

/// Chain position of the most recent checkpoint an instance wrote or was
/// restored from: the document's payload checksum (what the next delta's
/// header references as its base) and its sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainPosition {
    /// Payload checksum of the last document of the chain.
    pub checksum: u64,
    /// Its sequence number (0 = full, k ≥ 1 = k-th delta).
    pub sequence: u64,
}

/// Dirty-state bookkeeping for differential snapshots — the building block
/// every checkpointable backend in the workspace embeds.
///
/// Between two checkpoints the owning structure marks every vertex whose
/// per-vertex record changed and every edge whose per-edge record
/// changed.  In a DynELM delta a vertex record holds the adjacency slots
/// and the DT shared counter, so only topology updates mark vertices
/// (both endpoints).  An edge record holds the edge's existence, label,
/// DT coordinator and both participant heap entries, so a DT signal or a
/// relabel marks only its edge: the heap entries it rewrites travel with
/// the edge.  A delta
/// capture then serialises exactly the marked subset; writing (or
/// restoring) a checkpoint clears the marks and records the new
/// [`ChainPosition`].
///
/// A fresh instance starts in the *all-dirty* state: it has no base to
/// delta against, so marking is skipped entirely (zero overhead on the
/// update path until the first checkpoint) and the first capture is always
/// a full snapshot.
#[derive(Clone, Debug)]
pub struct DirtyTracker {
    all: bool,
    vertices: HashSet<VertexId>,
    edges: HashSet<EdgeKey>,
    chain: Option<ChainPosition>,
}

impl Default for DirtyTracker {
    fn default() -> Self {
        DirtyTracker {
            all: true,
            vertices: HashSet::new(),
            edges: HashSet::new(),
            chain: None,
        }
    }
}

impl DirtyTracker {
    /// A tracker in the initial all-dirty, no-base state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether fine-grained marks are being collected (false while
    /// all-dirty — callers skip the marking work entirely then).
    pub fn is_tracking(&self) -> bool {
        !self.all
    }

    /// Whether a delta against the recorded chain position is possible.
    pub fn can_delta(&self) -> bool {
        !self.all && self.chain.is_some()
    }

    /// Whether nothing changed since the last recorded checkpoint.
    pub fn is_clean(&self) -> bool {
        !self.all && self.vertices.is_empty() && self.edges.is_empty()
    }

    /// The chain position of the last written/restored document, if any.
    pub fn chain(&self) -> Option<ChainPosition> {
        self.chain
    }

    /// Mark one vertex's per-vertex state as changed.
    #[inline]
    pub fn mark_vertex(&mut self, v: VertexId) {
        if !self.all {
            self.vertices.insert(v);
        }
    }

    /// Mark one edge's per-edge state as changed (including creation and
    /// deletion — a deleted marked edge becomes a tombstone in the delta).
    #[inline]
    pub fn mark_edge(&mut self, key: EdgeKey) {
        if !self.all {
            self.edges.insert(key);
        }
    }

    /// Mark one applied update: both endpoints and the edge itself.
    #[inline]
    pub fn mark_update(&mut self, u: VertexId, w: VertexId, key: EdgeKey) {
        if !self.all {
            self.vertices.insert(u);
            self.vertices.insert(w);
            self.edges.insert(key);
        }
    }

    /// Drop back to the all-dirty state (no delta possible until the next
    /// full snapshot).  Safety valve for mutations outside the tracked
    /// paths.
    pub fn mark_all(&mut self) {
        self.all = true;
        self.vertices.clear();
        self.edges.clear();
    }

    /// The marked vertices, sorted.
    pub fn vertices_sorted(&self) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = self.vertices.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The marked edges, sorted.
    pub fn edges_sorted(&self) -> Vec<EdgeKey> {
        let mut e: Vec<EdgeKey> = self.edges.iter().copied().collect();
        e.sort_unstable();
        e
    }

    /// Record that a full snapshot with payload checksum `checksum` was
    /// captured: the chain restarts and the marks clear.
    pub fn note_full(&mut self, checksum: u64) {
        self.all = false;
        self.vertices.clear();
        self.edges.clear();
        self.chain = Some(ChainPosition {
            checksum,
            sequence: 0,
        });
    }

    /// Record that a delta with payload checksum `checksum` and chain
    /// position `sequence` was captured: marks clear, chain advances.
    pub fn note_delta(&mut self, checksum: u64, sequence: u64) {
        self.vertices.clear();
        self.edges.clear();
        self.chain = Some(ChainPosition { checksum, sequence });
    }

    /// Record that the instance was just restored from (or brought equal
    /// to) the document with the given checksum and sequence — further
    /// deltas chain onto it.
    pub fn note_restored(&mut self, checksum: u64, sequence: u64) {
        self.all = false;
        self.vertices.clear();
        self.edges.clear();
        self.chain = Some(ChainPosition { checksum, sequence });
    }
}

/// A checkpoint captured from a live instance, detached from it: the
/// payload is already encoded (delta-sized for deltas), so the remaining
/// work — checksummed document framing and sink I/O — can run anywhere,
/// including on an execution pool while the instance keeps processing
/// updates (the `Session`'s background checkpointing).
#[derive(Debug)]
pub struct CheckpointCapture {
    algo_tag: u32,
    meta: DocumentMeta,
    payload: Vec<u8>,
    checksum: u64,
}

impl CheckpointCapture {
    /// The algorithm tag the document header will carry.
    pub fn algo_tag(&self) -> u32 {
        self.algo_tag
    }

    /// Whether this capture is a full snapshot or a delta.
    pub fn kind(&self) -> SnapshotKind {
        self.meta.kind
    }

    /// The capture's chain position (0 = full, k ≥ 1 = k-th delta).
    pub fn sequence(&self) -> u64 {
        self.meta.sequence
    }

    /// The wall-clock stamp the document header will carry.
    pub fn wall_time_millis(&self) -> u64 {
        self.meta.wall_time_millis
    }

    /// Payload size in bytes (excludes the document header).
    pub fn payload_len(&self) -> u64 {
        self.payload.len() as u64
    }

    /// The payload checksum (what the next delta will reference as base).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Write the framed document into `w` (the payload checksum was
    /// computed once at capture time and is reused here).
    pub fn write_to(&self, w: impl std::io::Write) -> Result<(), SnapshotError> {
        write_document_prechecked(w, self.algo_tag, &self.meta, &self.payload, self.checksum)
    }

    /// The framed document as a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.payload.len() + 64);
        self.write_to(&mut buf)
            .expect("writing to a Vec cannot fail");
        buf
    }
}

/// Finish a full-snapshot capture: frame the metadata, restart the
/// tracker's chain.  Shared by every backend's
/// [`Clusterer::capture_checkpoint`](crate::Clusterer::capture_checkpoint).
pub fn finish_full_capture(
    algo_tag: u32,
    dirty: &mut DirtyTracker,
    payload: Vec<u8>,
    wall_time_millis: u64,
) -> CheckpointCapture {
    let checksum = fnv1a(&payload);
    dirty.note_full(checksum);
    CheckpointCapture {
        algo_tag,
        meta: DocumentMeta {
            kind: SnapshotKind::Full,
            sequence: 0,
            base_checksum: 0,
            wall_time_millis,
        },
        payload,
        checksum,
    }
}

/// Finish a delta capture against the tracker's current chain position.
///
/// # Panics
///
/// Panics if the tracker has no base ([`DirtyTracker::can_delta`] was not
/// checked) — implementors decide full-vs-delta *before* encoding.
pub fn finish_delta_capture(
    algo_tag: u32,
    dirty: &mut DirtyTracker,
    payload: Vec<u8>,
    wall_time_millis: u64,
) -> CheckpointCapture {
    let chain = dirty.chain().expect("delta capture requires a base");
    let checksum = fnv1a(&payload);
    let sequence = chain.sequence + 1;
    dirty.note_delta(checksum, sequence);
    CheckpointCapture {
        algo_tag,
        meta: DocumentMeta {
            kind: SnapshotKind::Delta,
            sequence,
            base_checksum: chain.checksum,
            wall_time_millis,
        },
        payload,
        checksum,
    }
}

/// Validate that a delta document is applicable to an instance in the
/// tracker's state: the instance must be exactly at the delta's base (no
/// unreported local mutations, matching base checksum, consecutive
/// sequence number).
pub fn check_delta_applicable(
    dirty: &DirtyTracker,
    header: &SnapshotHeader,
) -> Result<(), SnapshotError> {
    if header.kind != SnapshotKind::Delta {
        return Err(SnapshotError::Corrupt(
            "apply_delta called with a full snapshot document",
        ));
    }
    let Some(chain) = dirty.chain() else {
        return Err(SnapshotError::UnexpectedDelta);
    };
    if !dirty.is_clean() {
        return Err(SnapshotError::Corrupt(
            "delta applied to an instance that diverged from its base",
        ));
    }
    if chain.checksum != header.base_checksum {
        return Err(SnapshotError::DeltaBaseMismatch {
            expected: chain.checksum,
            found: header.base_checksum,
        });
    }
    if header.sequence != chain.sequence + 1 {
        return Err(SnapshotError::Corrupt("delta sequence out of order"));
    }
    Ok(())
}

fn measure_tag(measure: SimilarityMeasure) -> u8 {
    match measure {
        SimilarityMeasure::Jaccard => 0,
        SimilarityMeasure::Cosine => 1,
    }
}

fn measure_from_tag(tag: u8) -> Result<SimilarityMeasure, SnapshotError> {
    match tag {
        0 => Ok(SimilarityMeasure::Jaccard),
        1 => Ok(SimilarityMeasure::Cosine),
        _ => Err(SnapshotError::Corrupt("unknown similarity measure tag")),
    }
}

fn write_params(w: &mut SnapWriter, p: &Params) {
    w.section(section::PARAMS, |s| {
        s.f64(p.eps);
        s.u64(p.mu as u64);
        s.f64(p.rho);
        s.f64(p.delta_star);
        s.u8(measure_tag(p.measure));
        s.bool(p.exact_labels);
        s.u64(p.seed);
    });
}

/// Read and validate the parameter section ([`Params::try_validate`] as a
/// [`SnapshotError`] instead of a panic).
fn read_params(r: &mut SnapReader<'_>) -> Result<Params, SnapshotError> {
    let mut s = r.section(section::PARAMS)?;
    let params = Params {
        eps: s.f64()?,
        mu: s.u64()? as usize,
        rho: s.f64()?,
        delta_star: s.f64()?,
        measure: measure_from_tag(s.u8()?)?,
        exact_labels: s.bool()?,
        seed: s.u64()?,
    };
    s.finish()?;
    params
        .try_validate()
        .map_err(|_| SnapshotError::Corrupt("parameters outside their valid ranges"))?;
    Ok(params)
}

/// Whether a document of `format_version` carries the per-edge invocation
/// counters (module docs).
fn has_invocation_counters(format_version: u32) -> bool {
    format_version <= FORMAT_VERSION_V4
}

/// Write the work-counter section (identical layout in full and delta
/// payloads).  The labelling count is the strategy's invocation counter.
fn write_stats_section(elm: &DynElm, w: &mut SnapWriter) {
    let stats = elm.stats();
    w.section(section::STATS, |s| {
        s.u64(stats.updates);
        s.u64(stats.labellings);
        s.u64(stats.dt_maturities);
        s.u64(stats.label_flips);
        s.u64(stats.batches);
        s.u64(stats.samples_drawn);
    });
}

/// Read the work-counter section; returns the stats plus the strategy's
/// (invocations, samples) counters.
fn read_stats_section(
    r: &mut SnapReader<'_>,
    format_version: u32,
) -> Result<(ElmStats, u64, u64), SnapshotError> {
    let mut s = r.section(section::STATS)?;
    let updates = s.u64()?;
    let invocations = s.u64()?;
    let stats = ElmStats {
        updates,
        dt_maturities: s.u64()?,
        label_flips: s.u64()?,
        batches: s.u64()?,
        ..ElmStats::default()
    };
    if has_invocation_counters(format_version) {
        // The strategy's copy of the labelling count.
        s.u64()?;
    }
    let samples = s.u64()?;
    s.finish()?;
    Ok((stats, invocations, samples))
}

/// Rebuild the labelling strategy from restored parameters and counters.
fn rebuild_strategy(params: &Params, invocations: u64, samples: u64) -> LabellingStrategy {
    let mut strategy =
        LabellingStrategy::new(params.measure, params.eps, params.rho, params.delta_star);
    if params.exact_labels {
        strategy = strategy.with_exact_labels();
    }
    strategy.record_invocations(invocations, samples);
    strategy
}

/// Write every DynELM section into `w` (shared by both algorithms).
fn write_elm_payload(elm: &DynElm, w: &mut SnapWriter) {
    write_params(w, &elm.params);
    write_stats_section(elm, w);
    w.section(section::GRAPH, |s| elm.graph.write_snapshot(s));
    w.section(section::LABELS, |s| {
        let mut labels: Vec<(EdgeKey, EdgeLabel)> = elm.labels().collect();
        labels.sort_unstable_by_key(|&(k, _)| k);
        s.len_prefix(labels.len());
        // Delta-encoded sorted keys, then the similarity flags
        // bit-packed — ~1 bit per label.
        let mut prev: Option<EdgeKey> = None;
        for &(key, _) in &labels {
            s.edge_key_seq(&mut prev, key);
        }
        s.packed_bools(labels.iter().map(|&(_, l)| l.is_similar()));
    });
    w.section(section::DT, |s| elm.dt.write_snapshot(s));
}

/// Read every DynELM section from `r`, a payload of a document of
/// `format_version`, and reassemble the instance.
fn read_elm_payload(r: &mut SnapReader<'_>, format_version: u32) -> Result<DynElm, SnapshotError> {
    let params = read_params(r)?;
    let (stats, strategy_invocations, strategy_samples) = read_stats_section(r, format_version)?;

    let mut s = r.section(section::GRAPH)?;
    let graph = DynGraph::read_snapshot(&mut s)?;

    let mut s = r.section(section::LABELS)?;
    let label_count = s.len_prefix()?;
    let mut entries: Vec<(EdgeKey, bool)> = Vec::with_capacity(label_count);
    if s.compact() {
        let mut prev: Option<EdgeKey> = None;
        let mut keys: Vec<EdgeKey> = Vec::with_capacity(label_count);
        for _ in 0..label_count {
            keys.push(s.edge_key_seq(&mut prev)?);
        }
        let flags = s.packed_bools(label_count)?;
        entries.extend(keys.into_iter().zip(flags));
    } else {
        for _ in 0..label_count {
            let key = s.edge()?;
            let flag = s.bool()?;
            entries.push((key, flag));
        }
    }
    let mut labels: HashMap<EdgeKey, EdgeLabel> = HashMap::with_capacity(label_count);
    for (key, similar) in entries {
        let label = if similar {
            EdgeLabel::Similar
        } else {
            EdgeLabel::Dissimilar
        };
        if !graph.has_edge(key.lo(), key.hi()) {
            return Err(SnapshotError::Corrupt("label for a non-existent edge"));
        }
        if labels.insert(key, label).is_some() {
            return Err(SnapshotError::Corrupt("duplicate label entry"));
        }
    }
    s.finish()?;
    if labels.len() != graph.num_edges() {
        return Err(SnapshotError::Corrupt("edge without a label"));
    }

    if has_invocation_counters(format_version) {
        r.section(section::RELABELS)?;
    }

    let mut s = r.section(section::DT)?;
    let dt = DtRegistry::read_snapshot(&mut s)?;
    if dt.num_tracked() != graph.num_edges() {
        return Err(SnapshotError::Corrupt(
            "DT instance count does not match edge count",
        ));
    }
    for key in labels.keys() {
        if !dt.is_tracked(*key) {
            return Err(SnapshotError::Corrupt("live edge without a DT instance"));
        }
    }

    let strategy = rebuild_strategy(&params, strategy_invocations, strategy_samples);

    Ok(DynElm {
        params,
        graph,
        labels,
        dt,
        strategy,
        scratch: Default::default(),
        stats,
        // Runtime configuration, not serialised state: a restored
        // instance starts on the global pool (callers re-apply
        // `set_exec_pool` if they want a dedicated one) with a fresh
        // dirty tracker (the caller records the chain position).
        dirty: DirtyTracker::new(),
        pool: crate::pool::ExecPool::global(),
    })
}

/// Serialise the differential sections: only the state touched since the
/// last checkpoint.  `vertices` / `edges` are the tracker's sorted dirty
/// sets.  The section layouts:
///
/// * [`struct@section::STATS`] — identical to the full payload's (the
///   counters are tiny and change every batch);
/// * `DELTA_GRAPH` — the dirty vertices' adjacency in slot order, plus
///   the (possibly grown) vertex-space size;
/// * `DELTA_DT_VERTS` — the DT vertex-space size, then per dirty vertex
///   its shared counter (counters are the only per-vertex DT state an
///   update can touch without touching an incident edge);
/// * `DELTA_EDGES` — per dirty edge either a tombstone (the edge is gone)
///   or its label, DT coordinator state and its two participant heap
///   entries.  Heap entries ride on the *edge*, not the vertex: a signal,
///   re-registration or deletion changes exactly the signalled edge's
///   entries, so a hotspot vertex with thousands of untouched incident
///   edges costs the delta nothing beyond its counter and adjacency.
fn write_elm_delta_payload(
    elm: &DynElm,
    vertices: &[VertexId],
    edges: &[EdgeKey],
    w: &mut SnapWriter,
) {
    write_stats_section(elm, w);
    w.section(section::DELTA_GRAPH, |s| {
        elm.graph.write_snapshot_delta(s, vertices);
    });
    w.section(section::DELTA_DT_VERTS, |s| {
        s.len_prefix(elm.dt.num_vertices());
        s.len_prefix(vertices.len());
        let mut prev: Option<VertexId> = None;
        for &v in vertices {
            s.vertex_seq(&mut prev, v);
            s.u64(elm.dt.shared_counter(v));
        }
    });
    w.section(section::DELTA_EDGES, |s| {
        s.len_prefix(edges.len());
        let mut prev: Option<EdgeKey> = None;
        for &key in edges {
            s.edge_key_seq(&mut prev, key);
            let present = elm.graph.has_edge(key.lo(), key.hi());
            s.bool(present);
            if present {
                let label = elm.labels[&key];
                s.bool(label.is_similar());
                let state = elm
                    .dt
                    .coordinator_state(key)
                    .expect("live edge has a DT instance");
                s.u64(state.remaining);
                s.u64(state.slack);
                s.bool(state.simple);
                s.u64(state.signals);
                s.u64(state.counted);
                s.u64(state.messages);
                for (me, other) in [(key.lo(), key.hi()), (key.hi(), key.lo())] {
                    let entry = elm
                        .dt
                        .heap_entry(me, other)
                        .expect("live edge has both heap entries");
                    s.u64(entry.round_start);
                    s.u64(entry.checkpoint);
                }
            }
        }
    });
}

/// Apply a verified delta payload to `elm` (which
/// [`check_delta_applicable`] has confirmed sits exactly at the delta's
/// base), then re-validate the merged state with the same cross-checks as
/// a full decode.
fn apply_elm_delta_payload(
    elm: &mut DynElm,
    format_version: u32,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let mut r = SnapReader::for_version(format_version, payload);
    let (stats, strategy_invocations, strategy_samples) =
        read_stats_section(&mut r, format_version)?;

    let mut s = r.section(section::DELTA_GRAPH)?;
    elm.graph.apply_snapshot_delta(&mut s)?;

    let mut s = r.section(section::DELTA_DT_VERTS)?;
    // A bare count (the DT vertex-space size): untouched vertices have no
    // bytes in the section, so `len_prefix`'s byte bound does not apply.
    let dt_n = s.count_prefix()?;
    elm.dt.delta_grow_vertices(dt_n)?;
    let dirty_verts = s.len_prefix()?;
    let mut prev: Option<VertexId> = None;
    let mut last_vertex: Option<VertexId> = None;
    for _ in 0..dirty_verts {
        let v = s.vertex_seq(&mut prev)?;
        if v.index() >= dt_n {
            return Err(SnapshotError::Corrupt("dirty vertex outside DT space"));
        }
        if last_vertex.is_some_and(|p| p >= v) {
            return Err(SnapshotError::Corrupt("dirty vertices not sorted"));
        }
        last_vertex = Some(v);
        let counter = s.u64()?;
        elm.dt.delta_set_counter(v, counter);
    }
    s.finish()?;

    let mut s = r.section(section::DELTA_EDGES)?;
    let dirty_edges = s.len_prefix()?;
    let mut prev: Option<EdgeKey> = None;
    let mut last_edge: Option<EdgeKey> = None;
    for _ in 0..dirty_edges {
        let key = s.edge_key_seq(&mut prev)?;
        if last_edge.is_some_and(|p| p >= key) {
            return Err(SnapshotError::Corrupt("dirty edges not sorted"));
        }
        last_edge = Some(key);
        let present = s.bool()?;
        if present {
            if !elm.graph.has_edge(key.lo(), key.hi()) {
                return Err(SnapshotError::Corrupt("delta labels a non-existent edge"));
            }
            let label = if s.bool()? {
                EdgeLabel::Similar
            } else {
                EdgeLabel::Dissimilar
            };
            if has_invocation_counters(format_version) {
                s.u64()?;
            }
            let state = CoordinatorState {
                remaining: s.u64()?,
                slack: s.u64()?,
                simple: s.bool()?,
                signals: s.u64()?,
                counted: s.u64()?,
                messages: s.u64()?,
            };
            elm.labels.insert(key, label);
            elm.dt.delta_set_coordinator(key, state)?;
            for (me, other) in [(key.lo(), key.hi()), (key.hi(), key.lo())] {
                let entry = ParticipantEntry {
                    round_start: s.u64()?,
                    checkpoint: s.u64()?,
                };
                elm.dt.delta_set_entry(me, other, entry);
            }
        } else {
            if elm.graph.has_edge(key.lo(), key.hi()) {
                return Err(SnapshotError::Corrupt("delta tombstones a live edge"));
            }
            elm.labels.remove(&key);
            elm.dt.delta_remove_coordinator(key);
            elm.dt.delta_remove_entry(key.lo(), key.hi());
            elm.dt.delta_remove_entry(key.hi(), key.lo());
        }
    }
    s.finish()?;
    r.finish()?;

    // Cross-validate the merged state exactly like a full decode: the
    // maps must cover the post-delta edge set bijectively and the DT
    // registry must be internally consistent.
    if elm.labels.len() != elm.graph.num_edges() {
        return Err(SnapshotError::Corrupt("edge without a label"));
    }
    if elm.dt.num_tracked() != elm.graph.num_edges() {
        return Err(SnapshotError::Corrupt(
            "DT instance count does not match edge count",
        ));
    }
    for key in elm.labels.keys() {
        if !elm.graph.has_edge(key.lo(), key.hi()) {
            return Err(SnapshotError::Corrupt("label for a non-existent edge"));
        }
        if !elm.dt.is_tracked(*key) {
            return Err(SnapshotError::Corrupt("live edge without a DT instance"));
        }
    }
    elm.dt.validate()?;

    elm.stats = stats;
    elm.strategy = rebuild_strategy(&elm.params, strategy_invocations, strategy_samples);
    Ok(())
}

/// Capture a checkpoint of an ELM-family instance under `algo_tag`: a
/// delta against the tracker's chain position when `prefer_delta` and a
/// base exists, the full DynELM payload otherwise.  DynStrClu documents
/// are exactly DynELM's (module docs), so both backends capture here.
pub(crate) fn capture_elm_checkpoint(
    elm: &mut DynElm,
    algo_tag: u32,
    prefer_delta: bool,
    wall_time_millis: u64,
) -> CheckpointCapture {
    let mut w = SnapWriter::new();
    if prefer_delta && elm.dirty.can_delta() {
        let vertices = elm.dirty.vertices_sorted();
        let edges = elm.dirty.edges_sorted();
        write_elm_delta_payload(elm, &vertices, &edges, &mut w);
        return finish_delta_capture(algo_tag, &mut elm.dirty, w.into_bytes(), wall_time_millis);
    }
    write_elm_payload(elm, &mut w);
    finish_full_capture(algo_tag, &mut elm.dirty, w.into_bytes(), wall_time_millis)
}

/// Write the deterministic full document of an ELM-family instance under
/// `algo_tag` (both backends' `checkpoint_to`).
pub(crate) fn write_elm_document(
    elm: &DynElm,
    algo_tag: u32,
    w: &mut dyn std::io::Write,
) -> Result<(), SnapshotError> {
    let mut payload = SnapWriter::new();
    write_elm_payload(elm, &mut payload);
    write_document(w, algo_tag, &payload.into_bytes())
}

/// Apply one ELM-family delta document under `algo_tag` to `elm`, which
/// must sit exactly at the delta's base; on success `elm` sits at the
/// delta's chain position.  Shared by [`DynElm`] and [`DynStrClu`] (whose
/// caller re-derives vAuxInfo / `G_core` afterwards).
pub(crate) fn apply_elm_delta(
    elm: &mut DynElm,
    algo_tag: u32,
    bytes: &[u8],
) -> Result<(), SnapshotError> {
    let (header, payload) = split_document(bytes, algo_tag)?;
    check_delta_applicable(&elm.dirty, &header)?;
    if let Err(e) = apply_elm_delta_payload(elm, header.format_version, payload) {
        // A failed apply may have merged part of the delta; the instance
        // is no longer a valid chain base (or a valid instance at all) —
        // poison the tracker and report.  Callers must discard the
        // instance on error.
        elm.dirty.mark_all();
        return Err(e);
    }
    elm.dirty.note_restored(header.checksum, header.sequence);
    Ok(())
}

/// Read a full ELM-family document under `algo_tag`; the instance sits at
/// the document's chain position, so deltas written after it apply
/// directly.  `legacy_section` names a section that v1–v3 documents
/// append to the ELM sections: its framing must be there, but its bytes
/// are not decoded (the payload checksum already covered them).
fn restore_elm(
    r: impl std::io::Read,
    algo_tag: u32,
    legacy_section: Option<u32>,
) -> Result<DynElm, SnapshotError> {
    let (header, payload) = read_document_meta(r, algo_tag)?;
    if header.kind != SnapshotKind::Full {
        return Err(SnapshotError::UnexpectedDelta);
    }
    let mut reader = SnapReader::for_version(header.format_version, &payload);
    let mut elm = read_elm_payload(&mut reader, header.format_version)?;
    if let Some(tag) = legacy_section.filter(|_| header.format_version <= FORMAT_VERSION_V3) {
        reader.section(tag)?;
    }
    reader.finish()?;
    elm.dirty.note_restored(header.checksum, header.sequence);
    Ok(elm)
}

impl DynElm {
    /// Algorithm tag stored in DynELM snapshot headers, so a snapshot of
    /// one structure cannot silently restore as another.
    pub const ALGO_TAG: u32 = 1;

    /// Rebuild an instance from a full snapshot document of any supported
    /// format version (see [`crate::Clusterer`] for the bit-identical
    /// resume contract).  The instance sits at the document's chain
    /// position, so deltas written after it apply directly.
    pub fn restore<R: std::io::Read>(r: R) -> Result<Self, SnapshotError> {
        restore_elm(r, Self::ALGO_TAG, None)
    }
}

/// Derive DynStrClu's vAuxInfo and `CC-Str(G_core)` from an ELM state —
/// the one derivation behind [`DynStrClu::restore`] and delta replay.
/// The similar sets are exactly the similar-labelled edges, core flags
/// follow from SimCnt and μ, the similar-core sets from the core flags,
/// and `G_core` is rebuilt from the similar edges between two cores.
/// Edges are visited in sorted order, so the rebuild is reproducible.
pub(crate) fn derive_strclu_modules(elm: &DynElm) -> (Vec<VertexAux>, HdtConnectivity) {
    crate::testing::note_derived_rebuild();
    let n = elm.graph().num_vertices();
    let mut sim_edges: Vec<EdgeKey> = elm
        .labels()
        .filter_map(|(key, label)| label.is_similar().then_some(key))
        .collect();
    sim_edges.sort_unstable();
    let mut aux: Vec<VertexAux> = Vec::new();
    aux.resize_with(n, VertexAux::default);
    for &key in &sim_edges {
        let (a, b) = key.endpoints();
        aux[a.index()].add_similar(b);
        aux[b.index()].add_similar(a);
    }
    for vertex in &mut aux {
        vertex.refresh_core(elm.params().mu);
    }
    let mut sim_core_edges = Vec::new();
    for &key in &sim_edges {
        let (a, b) = key.endpoints();
        let (a_core, b_core) = (aux[a.index()].is_core(), aux[b.index()].is_core());
        aux[a.index()].set_neighbour_core(b, b_core);
        aux[b.index()].set_neighbour_core(a, a_core);
        if a_core && b_core {
            sim_core_edges.push(key);
        }
    }
    let core_graph =
        HdtConnectivity::rebuild_from_edges(n, core_graph_seed(elm.params()), sim_core_edges);
    (aux, core_graph)
}

impl DynStrClu {
    /// Algorithm tag stored in DynStrClu snapshot headers.
    pub const ALGO_TAG: u32 = 2;

    /// Rebuild an instance from a full snapshot document of any supported
    /// format version; see [`DynElm::restore`].
    pub fn restore<R: std::io::Read>(r: R) -> Result<Self, SnapshotError> {
        let elm = restore_elm(r, Self::ALGO_TAG, Some(section::AUX))?;
        let (aux, core_graph) = derive_strclu_modules(&elm);
        Ok(DynStrClu {
            mu: elm.params().mu,
            elm,
            aux,
            core_graph,
            shard_flip_cutoff: DEFAULT_SHARD_FLIP_CUTOFF,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{two_cliques_params, two_cliques_with_hub};
    use crate::session::restore_any;
    use crate::testing::aux_sets;
    use crate::traits::Clusterer;
    use dynscan_graph::snapshot::{write_document_meta, FORMAT_VERSION};
    use dynscan_graph::GraphUpdate;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn build_strclu(params: Params) -> DynStrClu {
        let g = two_cliques_with_hub();
        let mut algo = DynStrClu::new(params);
        for e in g.edges() {
            algo.insert_edge(e.lo(), e.hi()).unwrap();
        }
        algo
    }

    #[test]
    fn elm_checkpoint_restores_identical_state() {
        let g = two_cliques_with_hub();
        let mut elm = DynElm::new(two_cliques_params().with_exact_labels());
        for e in g.edges() {
            elm.insert_edge(e.lo(), e.hi()).unwrap();
        }
        elm.delete_edge(v(4), v(5)).unwrap();
        let bytes = elm.checkpoint_bytes();
        let restored = DynElm::restore(&bytes[..]).expect("restore");
        assert_eq!(restored.params(), elm.params());
        assert_eq!(restored.stats(), elm.stats());
        assert_eq!(restored.graph().num_edges(), elm.graph().num_edges());
        let mut a: Vec<_> = restored.labels().collect();
        let mut b: Vec<_> = elm.labels().collect();
        a.sort_unstable_by_key(|&(k, _)| k);
        b.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(a, b);
        // Canonical encoding: re-checkpointing yields identical bytes.
        assert_eq!(restored.checkpoint_bytes(), bytes);
    }

    #[test]
    fn elm_resumes_bit_identically_in_sampled_mode() {
        // Sampled-mode parameters, but on this 10-vertex graph every
        // labelling takes the exact shortcut (L far exceeds every closed
        // degree), so no estimator stream is consumed; the restored
        // instance must still make identical future decisions, flip for
        // flip.  `tests/sampled_labelling.rs` resumes runs that do sample.
        let params = Params::jaccard(0.3, 3).with_rho(0.2).with_seed(2024);
        let mut live = DynElm::new(params);
        let mut stream = Vec::new();
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                if (a * 31 + b * 7) % 3 != 0 {
                    stream.push(GraphUpdate::Insert(v(a), v(b)));
                }
            }
        }
        let (first, second) = stream.split_at(stream.len() / 2);
        for batch in first.chunks(4) {
            live.apply_batch(batch);
        }
        let restored_bytes = live.checkpoint_bytes();
        let mut restored = DynElm::restore(&restored_bytes[..]).expect("restore");
        for batch in second.chunks(5) {
            let flips_live = live.apply_batch(batch);
            let flips_restored = restored.apply_batch(batch);
            assert_eq!(
                flips_live, flips_restored,
                "flip sets must match batch for batch"
            );
        }
        assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
    }

    #[test]
    fn strclu_checkpoint_roundtrip_preserves_all_modules() {
        let mut live = build_strclu(two_cliques_params().with_exact_labels());
        live.delete_edge(v(4), v(5)).unwrap();
        let bytes = live.checkpoint_bytes();
        let mut restored = DynStrClu::restore(&bytes[..]).expect("restore");
        assert_eq!(restored.checkpoint_bytes(), bytes);
        assert_eq!(restored.num_sim_core_edges(), live.num_sim_core_edges());
        for x in 0..live.graph().num_vertices() as u32 {
            assert_eq!(
                restored.is_core(v(x)),
                live.is_core(v(x)),
                "core flag at {x}"
            );
            assert_eq!(restored.sim_count(v(x)), live.sim_count(v(x)));
        }
        // The document carries no vAuxInfo: the derived similar and
        // similar-core sets must equal the live ones, vertex by vertex.
        assert_eq!(aux_sets(&restored), aux_sets(&live));
        // Group-by answers agree as set partitions.
        let all: Vec<VertexId> = live.graph().vertices().collect();
        let as_sets = |groups: Vec<Vec<VertexId>>| {
            let mut sets: Vec<Vec<u32>> = groups
                .into_iter()
                .map(|g| g.into_iter().map(|x| x.raw()).collect())
                .collect();
            sets.sort();
            sets
        };
        assert_eq!(
            as_sets(restored.cluster_group_by(&all)),
            as_sets(live.cluster_group_by(&all))
        );
        // And the clusterings are equal.
        let a = live.clustering();
        let b = restored.clustering();
        assert_eq!(a.num_clusters(), b.num_clusters());
        for x in live.graph().vertices() {
            assert_eq!(a.role(x), b.role(x));
        }
    }

    /// The two cliques and their hub, then some churn.
    fn churn_stream() -> Vec<GraphUpdate> {
        let mut stream: Vec<GraphUpdate> = two_cliques_with_hub()
            .edges()
            .map(|e| GraphUpdate::Insert(e.lo(), e.hi()))
            .collect();
        stream.extend([
            GraphUpdate::Delete(v(4), v(5)),
            GraphUpdate::Delete(v(0), v(1)),
            GraphUpdate::Insert(v(0), v(1)),
        ]);
        stream
    }

    #[test]
    fn strclu_full_payload_is_the_elm_payload() {
        for params in [
            two_cliques_params().with_exact_labels(),
            Params::jaccard(0.3, 3).with_rho(0.2).with_seed(77),
        ] {
            let mut elm = DynElm::new(params);
            let mut strclu = DynStrClu::new(params);
            for batch in churn_stream().chunks(3) {
                elm.apply_batch(batch);
                strclu.apply_batch(batch);
            }
            let elm_doc = elm.checkpoint_bytes();
            let strclu_doc = strclu.checkpoint_bytes();
            let (_, elm_payload) = split_document(&elm_doc, DynElm::ALGO_TAG).unwrap();
            let (_, strclu_payload) = split_document(&strclu_doc, DynStrClu::ALGO_TAG).unwrap();
            assert_eq!(strclu_payload, elm_payload, "byte for byte");
            // The documents differ in the header's algorithm tag alone.
            assert_eq!(strclu_doc.len(), elm_doc.len());
            assert_eq!(strclu_doc[12..16], DynStrClu::ALGO_TAG.to_le_bytes());
            assert_eq!(strclu_doc[16..], elm_doc[16..]);
            // The background capture path writes the same payload.
            let capture = strclu.capture_checkpoint(false, 0);
            assert_eq!(capture.to_bytes(), strclu_doc);
        }
    }

    /// Frame `payload` as a full document under `algo_tag` claiming
    /// `version` (the header is outside the checksum, so only the payload
    /// decides what restores).
    fn doc_with_version(algo_tag: u32, payload: &[u8], version: u32) -> Vec<u8> {
        let mut doc = Vec::new();
        write_document_meta(&mut doc, algo_tag, &Default::default(), payload).unwrap();
        doc[8..12].copy_from_slice(&version.to_le_bytes());
        doc
    }

    /// `elm`'s canonical payload with legacy parts spliced in: `stats_copy`
    /// adds the strategy's copy of the labelling count to STATS,
    /// `relabels` a RELABELS section (counter 1 per edge) after LABELS,
    /// and `aux` a trailing AUX section.  Restore never decodes RELABELS
    /// or AUX, so the AUX contents here are not even vAuxInfo.  All three
    /// together make a v1–v3 DynStrClu payload; the first two a v4 one.
    fn spliced_payload(elm: &DynElm, stats_copy: bool, relabels: bool, aux: bool) -> Vec<u8> {
        let mut canonical = SnapWriter::new();
        write_elm_payload(elm, &mut canonical);
        let canonical = canonical.into_bytes();
        let mut out = SnapWriter::new();
        let mut rest = &canonical[..];
        while !rest.is_empty() {
            let tag = u32::from_le_bytes(rest[..4].try_into().unwrap());
            let len = u64::from_le_bytes(rest[4..12].try_into().unwrap()) as usize;
            let body = &rest[12..12 + len];
            rest = &rest[12 + len..];
            out.section(tag, |s| {
                if tag == section::STATS && stats_copy {
                    let mut r = SnapReader::new(body);
                    let c: Vec<u64> = (0..6).map(|_| r.u64().unwrap()).collect();
                    for x in [c[0], c[1], c[2], c[3], c[4], c[1], c[5]] {
                        s.u64(x);
                    }
                } else {
                    for &byte in body {
                        s.u8(byte);
                    }
                }
            });
            if tag == section::LABELS && relabels {
                let mut keys: Vec<EdgeKey> = elm.labels().map(|(k, _)| k).collect();
                keys.sort_unstable();
                out.section(section::RELABELS, |s| {
                    s.len_prefix(keys.len());
                    let mut prev = None;
                    for key in keys {
                        s.edge_key_seq(&mut prev, key);
                        s.u64(1);
                    }
                });
            }
        }
        if aux {
            out.section(section::AUX, |s| s.u64(0xdead_beef));
        }
        out.into_bytes()
    }

    fn churned_strclu() -> DynStrClu {
        let mut live = build_strclu(two_cliques_params().with_exact_labels());
        live.delete_edge(v(4), v(5)).unwrap();
        live
    }

    #[test]
    fn aux_section_is_required_before_v4_and_refused_in_v4() {
        let live = churned_strclu();
        let canonical = live.checkpoint_bytes();
        let doc = |stats_copy, relabels, aux, version| {
            let payload = spliced_payload(&live.elm, stats_copy, relabels, aux);
            DynStrClu::restore(&doc_with_version(DynStrClu::ALGO_TAG, &payload, version)[..])
        };
        // A v3 payload: the ELM sections with the invocation counters,
        // plus an AUX section.
        let legacy = doc(true, true, true, 3).unwrap();
        assert_eq!(legacy.checkpoint_bytes(), canonical);
        assert_eq!(aux_sets(&legacy), aux_sets(&live));
        // v3 without the section, and v4 and v5 with it, are refused.
        assert!(doc(true, true, false, 3).is_err());
        for (stats_copy, relabels, version) in [(true, true, 4), (false, false, FORMAT_VERSION)] {
            assert!(matches!(
                doc(stats_copy, relabels, true, version),
                Err(SnapshotError::Corrupt("trailing bytes after expected data"))
            ));
        }
        // DynELM documents never carried the section.
        let elm_v3 = spliced_payload(&live.elm, true, true, false);
        assert!(DynElm::restore(&doc_with_version(DynElm::ALGO_TAG, &elm_v3, 3)[..]).is_ok());
    }

    #[test]
    fn relabels_section_is_required_before_v5_and_refused_in_v5() {
        let live = churned_strclu();
        for (tag, canonical) in [
            (DynElm::ALGO_TAG, live.elm.checkpoint_bytes()),
            (DynStrClu::ALGO_TAG, live.checkpoint_bytes()),
        ] {
            let doc = |stats_copy, relabels, version| {
                let payload = spliced_payload(&live.elm, stats_copy, relabels, false);
                restore_any(&doc_with_version(tag, &payload, version)[..])
            };
            // A v4 document restores to the canonical state: its counters
            // are read past, and the labelling count comes from STATS.
            let legacy = doc(true, true, FORMAT_VERSION_V4).unwrap();
            assert_eq!(legacy.checkpoint_bytes(), canonical);
            assert_eq!(legacy.elm_stats(), Some(live.stats()));
            // A v4 document without RELABELS, and a v5 one with it, are
            // refused.
            assert!(matches!(
                doc(true, false, FORMAT_VERSION_V4),
                Err(SnapshotError::UnexpectedSection {
                    expected: section::RELABELS,
                    found: section::DT
                })
            ));
            assert!(matches!(
                doc(false, true, FORMAT_VERSION),
                Err(SnapshotError::UnexpectedSection {
                    expected: section::DT,
                    found: section::RELABELS
                })
            ));
        }
    }

    #[test]
    fn empty_instances_roundtrip() {
        let elm = DynElm::new(two_cliques_params().with_exact_labels());
        let restored = DynElm::restore(&elm.checkpoint_bytes()[..]).unwrap();
        assert_eq!(restored.graph().num_edges(), 0);
        let algo = DynStrClu::new(two_cliques_params().with_exact_labels());
        let restored = DynStrClu::restore(&algo.checkpoint_bytes()[..]).unwrap();
        assert_eq!(restored.clustering().num_clusters(), 0);
        assert_eq!(restored.num_sim_core_edges(), 0);
    }

    #[test]
    fn wrong_algorithm_tag_is_rejected() {
        let elm = DynElm::new(two_cliques_params().with_exact_labels());
        let bytes = elm.checkpoint_bytes();
        assert!(matches!(
            DynStrClu::restore(&bytes[..]),
            Err(SnapshotError::AlgorithmMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn tampered_payload_is_rejected() {
        let algo = build_strclu(two_cliques_params().with_exact_labels());
        let bytes = algo.checkpoint_bytes();
        // Flip one payload byte: the checksum catches it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            DynStrClu::restore(&bad[..]),
            Err(SnapshotError::ChecksumMismatch)
        ));
        // Truncation is caught before any parsing.
        assert!(matches!(
            DynStrClu::restore(&bytes[..bytes.len() / 2]),
            Err(SnapshotError::Truncated)
        ));
    }

    /// Only topology updates mark vertices: after one batch the dirty
    /// vertices are exactly the endpoints of its applied updates, every
    /// relabelled edge is marked on its own record, and base + delta
    /// restores the live state.  With these parameters τ = 1, so every
    /// edge at an updated vertex matures and is relabelled.
    #[test]
    fn batch_marks_update_endpoints_and_every_relabelled_edge() {
        let mut live = build_strclu(two_cliques_params().with_exact_labels());
        let base = live.capture_checkpoint(false, 0).to_bytes();
        let batch = [
            GraphUpdate::Delete(v(4), v(5)),
            GraphUpdate::Insert(v(12), v(8)),
            GraphUpdate::Insert(v(0), v(1)), // duplicate: skipped
            GraphUpdate::Insert(v(3), v(3)), // self-loop: skipped
            GraphUpdate::Delete(v(2), v(9)), // missing: skipped
        ];
        let labellings = live.stats().labellings;
        live.apply_batch(&batch);

        let endpoints = vec![v(4), v(5), v(8), v(12)];
        let relabelled: Vec<EdgeKey> = live
            .graph()
            .edges()
            .filter(|key| endpoints.contains(&key.lo()) || endpoints.contains(&key.hi()))
            .collect();
        assert_eq!(
            live.stats().labellings - labellings,
            relabelled.len() as u64,
            "every edge at an updated vertex is relabelled once"
        );
        assert_eq!(live.elm.dirty.vertices_sorted(), endpoints);
        let dirty_edges = live.elm.dirty.edges_sorted();
        for key in &relabelled {
            assert!(dirty_edges.contains(key), "relabelled {key:?} unmarked");
        }
        assert!(dirty_edges.contains(&EdgeKey::new(v(4), v(5))), "tombstone");

        let delta = live.capture_checkpoint(true, 0);
        assert_eq!(delta.kind(), SnapshotKind::Delta);
        let mut restored = DynStrClu::restore(&base[..]).unwrap();
        restored.apply_delta_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
    }

    #[test]
    fn updates_applied_counter_survives_restore() {
        let live = build_strclu(two_cliques_params().with_exact_labels());
        let restored = DynStrClu::restore(&live.checkpoint_bytes()[..]).unwrap();
        assert_eq!(restored.updates_applied(), live.updates_applied());
        assert_eq!(restored.stats(), live.stats());
    }
}
