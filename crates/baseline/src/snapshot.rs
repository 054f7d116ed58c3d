//! Checkpoint/restore for the exact dynamic baselines — their inherent
//! `ALGO_TAG` / `restore` and the payload codecs their
//! [`Clusterer`](dynscan_core::Clusterer) checkpoint methods write — so
//! the restart experiments can compare all four algorithms on the same
//! footing.
//!
//! [`ExactDynScan`] serialises its parameters, work counters, graph
//! topology and the exact per-edge intersection counts and labels — the
//! whole state is exact-valued, so restore is a pure decode with no
//! estimator or RNG concerns.  [`IndexedDynScan`] reuses the inner
//! encoding and rebuilds the similarity-ordered neighbour index from the
//! restored counts (the index is a pure function of them, exactly like
//! `CC-Str(G_core)` is rebuilt from the labelling in `dynscan-core`).

use crate::exact_dyn::ExactDynScan;
use crate::indexed_dyn::{quantise, IndexedDynScan};
use dynscan_core::snapshot::{check_delta_applicable, finish_delta_capture, CheckpointCapture};
use dynscan_graph::snapshot::{read_document_meta, split_document, SnapshotKind};
use dynscan_graph::{DynGraph, EdgeKey, SnapReader, SnapWriter, SnapshotError, VertexId};
use dynscan_sim::{EdgeLabel, SimilarityMeasure};
use std::collections::{BTreeSet, HashMap};

/// Section tags of the baseline snapshot payloads.
mod section {
    pub const PARAMS: u32 = 0x6250_6101; // baseline "Pa."
    pub const GRAPH: u32 = 0x6247_7201; // baseline "Gr."
    pub const EDGES: u32 = 0x6245_6401; // baseline "Ed."
    pub const INDEX: u32 = 0x6249_7801; // baseline "Ix."
                                        // Differential (v2) sections.
    pub const DELTA_STATS: u32 = 0x6264_5301; // baseline "dS."
    pub const DELTA_GRAPH: u32 = 0x6264_4701; // baseline "dG."
    pub const DELTA_EDGES: u32 = 0x6264_4501; // baseline "dE."
}

pub(crate) fn write_exact_payload(algo: &ExactDynScan, w: &mut SnapWriter) {
    w.section(section::PARAMS, |s| {
        s.f64(algo.eps);
        s.u64(algo.mu as u64);
        s.u8(match algo.measure {
            SimilarityMeasure::Jaccard => 0,
            SimilarityMeasure::Cosine => 1,
        });
        s.u64(algo.updates);
        s.u64(algo.probes);
    });
    w.section(section::GRAPH, |s| algo.graph.write_snapshot(s));
    w.section(section::EDGES, |s| {
        let mut edges: Vec<(EdgeKey, u32, EdgeLabel)> = algo
            .intersections
            .iter()
            .map(|(&k, &a)| (k, a, algo.labels[&k]))
            .collect();
        edges.sort_unstable_by_key(|&(k, _, _)| k);
        s.len_prefix(edges.len());
        // Delta-encoded sorted keys with varint counts, then the
        // similarity flags bit-packed at the end — the per-edge label
        // costs ~1 bit.
        let mut prev: Option<EdgeKey> = None;
        for &(key, a, _) in &edges {
            s.edge_key_seq(&mut prev, key);
            s.u32(a);
        }
        s.packed_bools(edges.iter().map(|&(_, _, l)| l.is_similar()));
    });
}

/// The indexed baseline's full payload: the inner exact payload plus its
/// default (ε, μ); the index itself is rebuilt on restore.
pub(crate) fn write_indexed_payload(algo: &IndexedDynScan, w: &mut SnapWriter) {
    write_exact_payload(&algo.inner, w);
    w.section(section::INDEX, |s| {
        s.f64(algo.default_eps);
        s.u64(algo.default_mu as u64);
    });
}

fn read_exact_payload(r: &mut SnapReader<'_>) -> Result<ExactDynScan, SnapshotError> {
    let mut s = r.section(section::PARAMS)?;
    let eps = s.f64()?;
    let mu = s.u64()? as usize;
    let measure = match s.u8()? {
        0 => SimilarityMeasure::Jaccard,
        1 => SimilarityMeasure::Cosine,
        _ => return Err(SnapshotError::Corrupt("unknown similarity measure tag")),
    };
    let updates = s.u64()?;
    let probes = s.u64()?;
    s.finish()?;
    if !(eps > 0.0 && eps <= 1.0) || mu < 1 {
        return Err(SnapshotError::Corrupt("baseline parameters out of range"));
    }

    let mut s = r.section(section::GRAPH)?;
    let graph = DynGraph::read_snapshot(&mut s)?;

    let mut s = r.section(section::EDGES)?;
    let count = s.len_prefix()?;
    let mut entries: Vec<(EdgeKey, u32, bool)> = Vec::with_capacity(count);
    let mut prev: Option<EdgeKey> = None;
    if s.compact() {
        let mut keyed: Vec<(EdgeKey, u32)> = Vec::with_capacity(count);
        for _ in 0..count {
            let key = s.edge_key_seq(&mut prev)?;
            let a = s.u32()?;
            keyed.push((key, a));
        }
        let flags = s.packed_bools(count)?;
        entries.extend(keyed.into_iter().zip(flags).map(|((k, a), f)| (k, a, f)));
    } else {
        for _ in 0..count {
            let key = s.edge_key_seq(&mut prev)?;
            let a = s.u32()?;
            entries.push((key, a, s.bool()?));
        }
    }
    let mut intersections: HashMap<EdgeKey, u32> = HashMap::with_capacity(count);
    let mut labels: HashMap<EdgeKey, EdgeLabel> = HashMap::with_capacity(count);
    for (key, a, similar) in entries {
        let label = if similar {
            EdgeLabel::Similar
        } else {
            EdgeLabel::Dissimilar
        };
        validate_edge_entry(&graph, measure, eps, key, a, label)?;
        if intersections.insert(key, a).is_some() {
            return Err(SnapshotError::Corrupt("duplicate edge entry"));
        }
        labels.insert(key, label);
    }
    s.finish()?;
    if intersections.len() != graph.num_edges() {
        return Err(SnapshotError::Corrupt("edge without a maintained count"));
    }
    Ok(ExactDynScan {
        eps,
        mu,
        measure,
        graph,
        intersections,
        labels,
        updates,
        probes,
        dirty: dynscan_core::snapshot::DirtyTracker::new(),
    })
}

/// Validate one `(edge, count, label)` entry against the (post-merge)
/// graph: the edge must exist, the exact intersection count must be in
/// range, and the label must equal what the count and degrees imply (the
/// baseline's labels are always exactly valid, so a disagreement means
/// the snapshot is corrupt, not merely stale).  Shared by the full decode
/// and the delta apply.
fn validate_edge_entry(
    graph: &DynGraph,
    measure: SimilarityMeasure,
    eps: f64,
    key: EdgeKey,
    a: u32,
    label: EdgeLabel,
) -> Result<(), SnapshotError> {
    let (u, v) = key.endpoints();
    if !graph.has_edge(u, v) {
        return Err(SnapshotError::Corrupt("count for a non-existent edge"));
    }
    // `a = |N[u] ∩ N[v]|` counts both endpoints of an existing edge, so
    // it is at least 2 and at most the smaller closed neighbourhood.
    let bound = graph.closed_degree(u).min(graph.closed_degree(v));
    if (a as usize) < 2 || a as usize > bound {
        return Err(SnapshotError::Corrupt("intersection count out of bounds"));
    }
    let sigma = match measure {
        SimilarityMeasure::Jaccard => {
            let union = (graph.closed_degree(u) + graph.closed_degree(v)) as f64 - a as f64;
            a as f64 / union
        }
        SimilarityMeasure::Cosine => {
            let nu = graph.closed_degree(u) as f64;
            let nv = graph.closed_degree(v) as f64;
            a as f64 / (nu * nv).sqrt()
        }
    };
    if label != EdgeLabel::from_similarity(sigma, eps) {
        return Err(SnapshotError::Corrupt(
            "label inconsistent with the exact intersection count",
        ));
    }
    Ok(())
}

/// Serialise the baseline's differential sections: work counters, the
/// dirty vertices' adjacency, and the dirty edges' counts/labels (or
/// tombstones).
fn write_exact_delta_payload(
    algo: &ExactDynScan,
    vertices: &[VertexId],
    edges: &[EdgeKey],
    w: &mut SnapWriter,
) {
    w.section(section::DELTA_STATS, |s| {
        s.u64(algo.updates);
        s.u64(algo.probes);
    });
    w.section(section::DELTA_GRAPH, |s| {
        algo.graph.write_snapshot_delta(s, vertices);
    });
    w.section(section::DELTA_EDGES, |s| {
        s.len_prefix(edges.len());
        let mut prev: Option<EdgeKey> = None;
        for &key in edges {
            s.edge_key_seq(&mut prev, key);
            let present = algo.intersections.contains_key(&key);
            s.bool(present);
            if present {
                s.u32(algo.intersections[&key]);
                s.bool(algo.labels[&key].is_similar());
            }
        }
    });
}

/// Apply a verified delta payload to `algo`, then re-run the full
/// decode's cross-checks on the merged state.
fn apply_exact_delta_payload(
    algo: &mut ExactDynScan,
    format_version: u32,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    let mut r = SnapReader::for_version(format_version, payload);
    let mut s = r.section(section::DELTA_STATS)?;
    let updates = s.u64()?;
    let probes = s.u64()?;
    s.finish()?;

    let mut s = r.section(section::DELTA_GRAPH)?;
    algo.graph.apply_snapshot_delta(&mut s)?;

    let mut s = r.section(section::DELTA_EDGES)?;
    let count = s.len_prefix()?;
    let mut prev: Option<EdgeKey> = None;
    let mut last: Option<EdgeKey> = None;
    for _ in 0..count {
        let key = s.edge_key_seq(&mut prev)?;
        if last.is_some_and(|p| p >= key) {
            return Err(SnapshotError::Corrupt("dirty edges not sorted"));
        }
        last = Some(key);
        let present = s.bool()?;
        if present {
            let a = s.u32()?;
            let label = if s.bool()? {
                EdgeLabel::Similar
            } else {
                EdgeLabel::Dissimilar
            };
            validate_edge_entry(&algo.graph, algo.measure, algo.eps, key, a, label)?;
            algo.intersections.insert(key, a);
            algo.labels.insert(key, label);
        } else {
            if algo.graph.has_edge(key.lo(), key.hi()) {
                return Err(SnapshotError::Corrupt("delta tombstones a live edge"));
            }
            algo.intersections.remove(&key);
            algo.labels.remove(&key);
        }
    }
    s.finish()?;
    r.finish()?;

    if algo.intersections.len() != algo.graph.num_edges()
        || algo.labels.len() != algo.graph.num_edges()
    {
        return Err(SnapshotError::Corrupt("edge without a maintained count"));
    }
    for key in algo.intersections.keys() {
        if !algo.graph.has_edge(key.lo(), key.hi()) {
            return Err(SnapshotError::Corrupt("count for a non-existent edge"));
        }
        if !algo.labels.contains_key(key) {
            return Err(SnapshotError::Corrupt("edge without a label"));
        }
    }
    algo.updates = updates;
    algo.probes = probes;
    Ok(())
}

impl ExactDynScan {
    /// Algorithm tag stored in pSCAN-like snapshot headers.
    pub const ALGO_TAG: u32 = 3;

    /// Rebuild an instance from a full snapshot document of any supported
    /// format version; it sits at the document's chain position, so
    /// deltas written after it apply directly.
    pub fn restore<R: std::io::Read>(r: R) -> Result<Self, SnapshotError> {
        let (header, payload) = read_document_meta(r, Self::ALGO_TAG)?;
        if header.kind != SnapshotKind::Full {
            return Err(SnapshotError::UnexpectedDelta);
        }
        let mut reader = SnapReader::for_version(header.format_version, &payload);
        let mut algo = read_exact_payload(&mut reader)?;
        reader.finish()?;
        algo.dirty.note_restored(header.checksum, header.sequence);
        Ok(algo)
    }

    /// Try to capture a delta under the given algorithm tag (the indexed
    /// baseline reuses the inner delta encoding under its own tag);
    /// `None` when no chain base exists yet.
    pub(crate) fn try_capture_delta_as(
        &mut self,
        algo_tag: u32,
        wall_time_millis: u64,
    ) -> Option<CheckpointCapture> {
        if !self.dirty.can_delta() {
            return None;
        }
        let vertices = self.dirty.vertices_sorted();
        let edges = self.dirty.edges_sorted();
        let mut w = SnapWriter::new();
        write_exact_delta_payload(self, &vertices, &edges, &mut w);
        Some(finish_delta_capture(
            algo_tag,
            &mut self.dirty,
            w.into_bytes(),
            wall_time_millis,
        ))
    }

    pub(crate) fn apply_delta_as(
        &mut self,
        algo_tag: u32,
        bytes: &[u8],
    ) -> Result<(), SnapshotError> {
        let (header, payload) = split_document(bytes, algo_tag)?;
        check_delta_applicable(&self.dirty, &header)?;
        if let Err(e) = apply_exact_delta_payload(self, header.format_version, payload) {
            self.dirty.mark_all();
            return Err(e);
        }
        self.dirty.note_restored(header.checksum, header.sequence);
        Ok(())
    }
}

/// Rebuild the similarity-ordered neighbour index from the inner exact
/// counts (a pure function of them, exactly like `CC-Str(G_core)` is
/// rebuilt from the labelling in `dynscan-core`).  Shared by the full
/// restore and the delta apply.
#[allow(clippy::type_complexity)]
pub(crate) fn rebuild_index(
    inner: &ExactDynScan,
) -> (Vec<BTreeSet<(u64, VertexId)>>, HashMap<EdgeKey, u64>) {
    dynscan_core::testing::note_derived_rebuild();
    let mut order: Vec<BTreeSet<(u64, VertexId)>> = Vec::new();
    order.resize_with(inner.graph().num_vertices(), BTreeSet::new);
    let mut current: HashMap<EdgeKey, u64> = HashMap::with_capacity(inner.graph().num_edges());
    for key in inner.graph().edges() {
        let sigma = inner
            .similarity(key)
            .expect("restored edge has a maintained count");
        let q = quantise(sigma);
        let (a, b) = key.endpoints();
        order[a.index()].insert((q, b));
        order[b.index()].insert((q, a));
        current.insert(key, q);
    }
    (order, current)
}

impl IndexedDynScan {
    /// Algorithm tag stored in hSCAN-like snapshot headers.
    pub const ALGO_TAG: u32 = 4;

    /// Rebuild an instance from a full snapshot document of any supported
    /// format version; see [`ExactDynScan::restore`].
    pub fn restore<R: std::io::Read>(r: R) -> Result<Self, SnapshotError> {
        let (header, payload) = read_document_meta(r, Self::ALGO_TAG)?;
        if header.kind != SnapshotKind::Full {
            return Err(SnapshotError::UnexpectedDelta);
        }
        let mut reader = SnapReader::for_version(header.format_version, &payload);
        let mut inner = read_exact_payload(&mut reader)?;
        let mut s = reader.section(section::INDEX)?;
        let default_eps = s.f64()?;
        let default_mu = s.u64()? as usize;
        s.finish()?;
        reader.finish()?;
        inner.dirty.note_restored(header.checksum, header.sequence);
        // The similarity-ordered index is a pure function of the exact
        // counts: rebuild it instead of serialising the BTree shape.
        let (order, current) = rebuild_index(&inner);
        Ok(IndexedDynScan {
            inner,
            default_eps,
            default_mu,
            order,
            current,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynscan_core::fixtures;
    use dynscan_core::Clusterer;
    use dynscan_graph::{GraphUpdate, VertexId};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn build_exact() -> ExactDynScan {
        let g = fixtures::two_cliques_with_hub();
        let mut algo = ExactDynScan::jaccard(0.29, 5);
        for e in g.edges() {
            algo.insert_edge(e.lo(), e.hi());
        }
        algo.delete_edge(v(4), v(5)).unwrap();
        algo
    }

    #[test]
    fn exact_baseline_roundtrips_canonically() {
        let live = build_exact();
        let bytes = live.checkpoint_bytes();
        let restored = ExactDynScan::restore(&bytes[..]).expect("restore");
        assert_eq!(restored.checkpoint_bytes(), bytes);
        assert_eq!(restored.updates_applied(), live.updates_applied());
        assert_eq!(restored.probes(), live.probes());
        for key in live.graph().edges() {
            assert_eq!(restored.similarity(key), live.similarity(key));
            assert_eq!(restored.label(key), live.label(key));
        }
    }

    #[test]
    fn exact_baseline_resumes_identically() {
        let mut live = build_exact();
        let mut restored = ExactDynScan::restore(&live.checkpoint_bytes()[..]).unwrap();
        let continuation = [
            GraphUpdate::Insert(v(4), v(5)),
            GraphUpdate::Delete(v(0), v(1)),
            GraphUpdate::Insert(v(13), v(7)),
        ];
        for &update in &continuation {
            assert_eq!(live.try_apply(update), restored.try_apply(update));
        }
        assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
    }

    #[test]
    fn indexed_baseline_roundtrips_with_rebuilt_index() {
        let g = fixtures::two_cliques_with_hub();
        let mut live = IndexedDynScan::jaccard(0.29, 5);
        for e in g.edges() {
            live.insert_edge(e.lo(), e.hi());
        }
        live.delete_edge(v(8), v(9));
        let bytes = live.checkpoint_bytes();
        let restored = IndexedDynScan::restore(&bytes[..]).expect("restore");
        assert_eq!(restored.checkpoint_bytes(), bytes);
        // On-the-fly queries must agree for several (ε, μ) pairs.
        for (eps, mu) in [(0.29, 5usize), (0.5, 3), (0.8, 2)] {
            let a = live.cluster_with(eps, mu);
            let b = restored.cluster_with(eps, mu);
            for x in live.graph().vertices() {
                assert_eq!(a.role(x), b.role(x), "ε = {eps}, μ = {mu}, vertex {x}");
            }
        }
        for x in live.graph().vertices() {
            assert_eq!(
                restored.similar_degree(x, 0.29),
                live.similar_degree(x, 0.29)
            );
        }
    }

    #[test]
    fn baseline_tags_are_distinct() {
        let exact = build_exact();
        let bytes = exact.checkpoint_bytes();
        assert!(matches!(
            IndexedDynScan::restore(&bytes[..]),
            Err(SnapshotError::AlgorithmMismatch {
                expected: 4,
                found: 3
            })
        ));
    }
}
