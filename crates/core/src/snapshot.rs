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
//!   every estimator stream seed — restoring it is what makes future
//!   sampled relabel decisions draw the same random bits as the
//!   uninterrupted instance;
//! * the graph topology with its exact adjacency slot order (positional
//!   uniform sampling must resume on identical slot sequences);
//! * the ρ-approximate edge labelling;
//! * the per-edge estimator invocation counters (the δₖ schedule position
//!   and stream-derivation input of every edge);
//! * the full distributed-tracking state: shared counters, per-vertex
//!   checkpoint heaps, and every coordinator's mid-round protocol state.
//!
//! A [`DynStrClu`] snapshot appends the per-vertex auxiliary information
//! (`SimCnt`, core flags, similar / similar-core neighbour sets).  The
//! `CC-Str(G_core)` connectivity structure is **not** serialised: its
//! internal HDT hierarchy is history-dependent, but its semantics are a
//! pure function of the sim-core edge set, so restore rebuilds it
//! deterministically from the restored labelling + core flags
//! ([`HdtConnectivity::rebuild_from_edges`]) — the fast path that keeps
//! snapshots small and the restore linear.
//!
//! # Validation
//!
//! Restore cross-checks the sections against each other (labels ↔ edges,
//! relabel counters ↔ edges, DT instances ↔ edges, aux sets ↔ labels,
//! core flags ↔ SimCnt/μ) so a corrupt or hand-edited snapshot fails with
//! a [`SnapshotError`] instead of producing an instance that silently
//! violates the algorithm's invariants.

use crate::aux::VertexAux;
use crate::elm::{DynElm, ElmStats};
use crate::params::Params;
use crate::strclu::DynStrClu;
use dynscan_conn::HdtConnectivity;
use dynscan_dt::{CoordinatorState, DtRegistry, ParticipantEntry};
use dynscan_graph::snapshot::{
    fnv1a, read_document_meta, split_document, write_document_prechecked, DocumentMeta,
    SnapshotHeader, SnapshotKind,
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
    pub const RELABELS: u32 = 0x5265_6c01; // "Rel."
    pub const DT: u32 = 0x4474_7201; // "Dtr."
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
/// per-vertex state (adjacency slots, DT counter/heap) changed and every
/// edge whose per-edge state (label, invocation counter, DT coordinator,
/// existence) changed.  A delta capture then serialises exactly the marked
/// subset; writing (or restoring) a checkpoint clears the marks and
/// records the new [`ChainPosition`].
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

/// Write the work-counter section (identical layout in full and delta
/// payloads).
fn write_stats_section(elm: &DynElm, w: &mut SnapWriter) {
    let stats = elm.stats;
    let strategy = &elm.strategy;
    w.section(section::STATS, |s| {
        s.u64(stats.updates);
        s.u64(stats.labellings);
        s.u64(stats.dt_maturities);
        s.u64(stats.label_flips);
        s.u64(stats.batches);
        s.u64(strategy.invocations());
        s.u64(strategy.samples_drawn());
    });
}

/// Read the work-counter section; returns the stats plus the strategy's
/// (invocations, samples) counters.
fn read_stats_section(r: &mut SnapReader<'_>) -> Result<(ElmStats, u64, u64), SnapshotError> {
    let mut s = r.section(section::STATS)?;
    let stats = ElmStats {
        updates: s.u64()?,
        labellings: s.u64()?,
        dt_maturities: s.u64()?,
        label_flips: s.u64()?,
        batches: s.u64()?,
        samples_drawn: 0,
    };
    let strategy_invocations = s.u64()?;
    let strategy_samples = s.u64()?;
    s.finish()?;
    Ok((stats, strategy_invocations, strategy_samples))
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
pub(crate) fn write_elm_payload(elm: &DynElm, w: &mut SnapWriter) {
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
    w.section(section::RELABELS, |s| {
        let mut counts: Vec<(EdgeKey, u64)> =
            elm.relabel_counts.iter().map(|(&k, &c)| (k, c)).collect();
        counts.sort_unstable_by_key(|&(k, _)| k);
        s.len_prefix(counts.len());
        let mut prev: Option<EdgeKey> = None;
        for (key, count) in counts {
            s.edge_key_seq(&mut prev, key);
            s.u64(count);
        }
    });
    w.section(section::DT, |s| elm.dt.write_snapshot(s));
}

/// Read every DynELM section from `r` and reassemble the instance.
fn read_elm_payload(r: &mut SnapReader<'_>) -> Result<DynElm, SnapshotError> {
    let params = read_params(r)?;
    let (stats, strategy_invocations, strategy_samples) = read_stats_section(r)?;

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

    let mut s = r.section(section::RELABELS)?;
    let count = s.len_prefix()?;
    let mut relabel_counts: HashMap<EdgeKey, u64> = HashMap::with_capacity(count);
    let mut prev: Option<EdgeKey> = None;
    for _ in 0..count {
        let key = s.edge_key_seq(&mut prev)?;
        let invocations = s.u64()?;
        if !graph.has_edge(key.lo(), key.hi()) {
            return Err(SnapshotError::Corrupt(
                "invocation counter for a non-existent edge",
            ));
        }
        if invocations == 0 {
            return Err(SnapshotError::Corrupt("zero invocation counter"));
        }
        if relabel_counts.insert(key, invocations).is_some() {
            return Err(SnapshotError::Corrupt("duplicate invocation counter"));
        }
    }
    s.finish()?;
    if relabel_counts.len() != graph.num_edges() {
        return Err(SnapshotError::Corrupt("edge without an invocation counter"));
    }

    let mut s = r.section(section::DT)?;
    let dt = DtRegistry::read_snapshot(&mut s)?;
    if dt.num_tracked() != graph.num_edges() {
        return Err(SnapshotError::Corrupt(
            "DT instance count does not match edge count",
        ));
    }
    for key in relabel_counts.keys() {
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
        relabel_counts,
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
///   or its label, invocation counter, DT coordinator state and its two
///   participant heap entries.  Heap entries ride on the *edge*, not the
///   vertex: a signal, re-registration or deletion changes exactly the
///   signalled edge's entries, so a hotspot vertex with thousands of
///   untouched incident edges costs the delta nothing beyond its counter
///   and adjacency.
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
                s.u64(elm.relabel_counts[&key]);
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
    let (stats, strategy_invocations, strategy_samples) = read_stats_section(&mut r)?;

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
            let invocations = s.u64()?;
            if invocations == 0 {
                return Err(SnapshotError::Corrupt("zero invocation counter"));
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
            elm.relabel_counts.insert(key, invocations);
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
            elm.relabel_counts.remove(&key);
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
    if elm.relabel_counts.len() != elm.graph.num_edges() {
        return Err(SnapshotError::Corrupt("edge without an invocation counter"));
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
        if !elm.relabel_counts.contains_key(key) {
            return Err(SnapshotError::Corrupt("edge without an invocation counter"));
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

/// Try to capture an ELM-layer delta under the given algorithm tag —
/// the single source of the delta-capture sequence (sorted dirty sets →
/// delta payload → chain bookkeeping) shared by [`DynElm`] and
/// [`DynStrClu`] (whose deltas carry the same sections under tag 2,
/// with vAuxInfo / `G_core` re-derived on apply).  `None` when no chain
/// base exists yet.
pub(crate) fn try_capture_elm_delta(
    elm: &mut DynElm,
    algo_tag: u32,
    wall_time_millis: u64,
) -> Option<CheckpointCapture> {
    if !elm.dirty.can_delta() {
        return None;
    }
    let vertices = elm.dirty.vertices_sorted();
    let edges = elm.dirty.edges_sorted();
    let mut w = SnapWriter::new();
    write_elm_delta_payload(elm, &vertices, &edges, &mut w);
    Some(finish_delta_capture(
        algo_tag,
        &mut elm.dirty,
        w.into_bytes(),
        wall_time_millis,
    ))
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

impl DynElm {
    /// Algorithm tag stored in DynELM snapshot headers, so a snapshot of
    /// one structure cannot silently restore as another.
    pub const ALGO_TAG: u32 = 1;

    /// Rebuild an instance from a full snapshot document of any supported
    /// format version (see [`crate::Clusterer`] for the bit-identical
    /// resume contract).  The instance sits at the document's chain
    /// position, so deltas written after it apply directly.
    pub fn restore<R: std::io::Read>(r: R) -> Result<Self, SnapshotError> {
        let (header, payload) = read_document_meta(r, Self::ALGO_TAG)?;
        if header.kind != SnapshotKind::Full {
            return Err(SnapshotError::UnexpectedDelta);
        }
        let mut reader = SnapReader::for_version(header.format_version, &payload);
        let mut elm = read_elm_payload(&mut reader)?;
        reader.finish()?;
        elm.dirty.note_restored(header.checksum, header.sequence);
        Ok(elm)
    }
}

pub(crate) fn write_aux_payload(algo: &DynStrClu, w: &mut SnapWriter) {
    w.section(section::AUX, |s| {
        s.len_prefix(algo.aux.len());
        for aux in &algo.aux {
            s.bool(aux.is_core());
            let mut sims: Vec<VertexId> = aux.similar_neighbours().collect();
            sims.sort_unstable();
            s.len_prefix(sims.len());
            let mut prev: Option<VertexId> = None;
            for x in sims {
                s.vertex_seq(&mut prev, x);
            }
            let mut cores: Vec<VertexId> = aux.similar_core_neighbours().collect();
            cores.sort_unstable();
            s.len_prefix(cores.len());
            let mut prev: Option<VertexId> = None;
            for x in cores {
                s.vertex_seq(&mut prev, x);
            }
        }
    });
}

fn read_aux_payload(
    r: &mut SnapReader<'_>,
    elm: &DynElm,
    mu: usize,
) -> Result<Vec<VertexAux>, SnapshotError> {
    let mut s = r.section(section::AUX)?;
    let n = s.len_prefix()?;
    // Live instances keep exactly one aux record per vertex; anything else
    // (including zero-padded tails) is non-canonical and rejected.
    if n != elm.graph.num_vertices() {
        return Err(SnapshotError::Corrupt(
            "aux vector does not match vertex space",
        ));
    }
    let mut auxes: Vec<VertexAux> = Vec::with_capacity(n);
    let mut sim_entries = 0usize;
    for v in 0..n {
        let is_core = s.bool()?;
        let mut aux = VertexAux::default();
        let sim_count = s.len_prefix()?;
        let mut prev: Option<VertexId> = None;
        for _ in 0..sim_count {
            let x = s.vertex_seq(&mut prev)?;
            if x.index() >= n || x.index() == v {
                return Err(SnapshotError::Corrupt("similar neighbour out of range"));
            }
            let key = EdgeKey::new(VertexId(v as u32), x);
            if !elm.labels.get(&key).is_some_and(|l| l.is_similar()) {
                return Err(SnapshotError::Corrupt(
                    "similar neighbour without a similar edge",
                ));
            }
            if !aux.add_similar(x) {
                return Err(SnapshotError::Corrupt("duplicate similar neighbour"));
            }
        }
        sim_entries += sim_count;
        aux.refresh_core(mu);
        if aux.is_core() != is_core {
            return Err(SnapshotError::Corrupt(
                "core flag inconsistent with SimCnt and μ",
            ));
        }
        let core_count = s.len_prefix()?;
        let mut prev: Option<VertexId> = None;
        for _ in 0..core_count {
            let x = s.vertex_seq(&mut prev)?;
            if !aux.is_similar_neighbour(x) {
                return Err(SnapshotError::Corrupt(
                    "similar-core neighbour outside the similar set",
                ));
            }
            aux.set_neighbour_core(x, true);
        }
        if aux.similar_core_neighbours().count() != core_count {
            return Err(SnapshotError::Corrupt("duplicate similar-core neighbour"));
        }
        auxes.push(aux);
    }
    s.finish()?;
    if sim_entries != 2 * elm.num_similar_edges() {
        return Err(SnapshotError::Corrupt(
            "similar sets do not cover the labelling",
        ));
    }
    // Cross-check the similar-core sets against the freshly validated core
    // flags (each similar edge towards a core endpoint must be recorded).
    for aux in &auxes {
        for x in aux.similar_neighbours() {
            let expected = auxes[x.index()].is_core();
            let recorded = aux.is_similar_core_neighbour(x);
            if expected != recorded {
                return Err(SnapshotError::Corrupt(
                    "similar-core set inconsistent with core flags",
                ));
            }
        }
    }
    Ok(auxes)
}

/// Rebuild `CC-Str(G_core)` from a restored labelling + core flags — the
/// fast path that keeps snapshots small (module docs).  The sim-core
/// edges are fed in sorted order so the rebuild is reproducible.
pub(crate) fn rebuild_core_graph(elm: &DynElm, aux: &[VertexAux]) -> HdtConnectivity {
    crate::testing::note_derived_rebuild();
    let mut sim_core_edges: Vec<EdgeKey> = elm
        .labels()
        .filter_map(|(key, label)| {
            let (a, b) = key.endpoints();
            (label.is_similar() && aux[a.index()].is_core() && aux[b.index()].is_core())
                .then_some(key)
        })
        .collect();
    sim_core_edges.sort_unstable();
    HdtConnectivity::rebuild_from_edges(
        elm.graph().num_vertices(),
        crate::strclu::core_graph_seed(elm.params()),
        sim_core_edges,
    )
}

/// Derive the vAuxInfo vector from a restored labelling: the similar sets
/// are exactly the similar-labelled edges, core flags follow from SimCnt
/// and μ, and the similar-core sets from the core flags.  This is what
/// lets a *delta* snapshot skip the aux section entirely — vAuxInfo is a
/// pure function of (labels, μ).  Insertion happens in globally sorted
/// edge order, which gives every vertex the same ascending per-set
/// insertion order as the full decode's sorted aux section.
pub(crate) fn derive_aux(elm: &DynElm, mu: usize) -> Vec<VertexAux> {
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
    let mut core = vec![false; n];
    for (v, aux) in aux.iter_mut().enumerate() {
        aux.refresh_core(mu);
        core[v] = aux.is_core();
    }
    for &key in &sim_edges {
        let (a, b) = key.endpoints();
        aux[a.index()].set_neighbour_core(b, core[b.index()]);
        aux[b.index()].set_neighbour_core(a, core[a.index()]);
    }
    aux
}

impl DynStrClu {
    /// Algorithm tag stored in DynStrClu snapshot headers.
    pub const ALGO_TAG: u32 = 2;

    /// Rebuild an instance from a full snapshot document of any supported
    /// format version; see [`DynElm::restore`].
    pub fn restore<R: std::io::Read>(r: R) -> Result<Self, SnapshotError> {
        let (header, payload) = read_document_meta(r, Self::ALGO_TAG)?;
        if header.kind != SnapshotKind::Full {
            return Err(SnapshotError::UnexpectedDelta);
        }
        let mut reader = SnapReader::for_version(header.format_version, &payload);
        let mut elm = read_elm_payload(&mut reader)?;
        let mu = elm.params().mu;
        let aux = read_aux_payload(&mut reader, &elm, mu)?;
        reader.finish()?;
        elm.dirty.note_restored(header.checksum, header.sequence);
        // Fast path for CC-Str(G_core): rebuild from the restored sim-core
        // edge set instead of serialising the history-dependent HDT
        // hierarchy (module docs).
        let core_graph = rebuild_core_graph(&elm, &aux);
        Ok(DynStrClu {
            elm,
            aux,
            core_graph,
            mu,
            shard_flip_cutoff: crate::strclu::DEFAULT_SHARD_FLIP_CUTOFF,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{two_cliques_params, two_cliques_with_hub};
    use crate::traits::Clusterer;
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
        // Sampled mode with a ρ wide enough that estimator streams are
        // actually consumed; the restored instance must make identical
        // future decisions, flip for flip.
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

    #[test]
    fn updates_applied_counter_survives_restore() {
        let live = build_strclu(two_cliques_params().with_exact_labels());
        let restored = DynStrClu::restore(&live.checkpoint_bytes()[..]).unwrap();
        assert_eq!(restored.updates_applied(), live.updates_applied());
        assert_eq!(restored.stats(), live.stats());
    }
}
