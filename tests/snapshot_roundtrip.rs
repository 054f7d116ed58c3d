//! Checkpoint/restore correctness: a restored instance must behave
//! **exactly** like the instance that never stopped.
//!
//! The property exercised throughout: split a random update stream at a
//! random point, checkpoint the live instance there, restore a second
//! instance from the bytes, then feed the identical continuation to both.
//! Every batch must return byte-identical flip sets, and the final
//! checkpoints must be byte-identical — in exact mode *and* in sampled
//! mode (where the continuation consumes estimator random streams, so any
//! drift in RNG counters, adjacency slot order or DT state would show).
//!
//! A committed golden fixture pins the on-disk format: if the encoding
//! changes, the fixture test fails and `FORMAT_VERSION` must be bumped.

use dynscan_baseline::ExactDynScan;
use dynscan_core::{
    restore_any, Clusterer, DynElm, DynStrClu, GraphUpdate, Params, SnapshotError, VertexId,
};
use proptest::prelude::*;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// Turn proptest's raw op triples into updates (self-loops dropped).
fn to_updates(ops: &[(bool, u32, u32)]) -> Vec<GraphUpdate> {
    ops.iter()
        .filter(|(_, a, b)| a != b)
        .map(|&(insert, a, b)| {
            if insert {
                GraphUpdate::Insert(v(a), v(b))
            } else {
                GraphUpdate::Delete(v(a), v(b))
            }
        })
        .collect()
}

/// Drive `live` through `prefix`, checkpoint+restore, then apply
/// `suffix` to both and require byte-identical behaviour throughout.
fn assert_resumes_bit_identically<A>(
    make: impl Fn() -> A,
    stream: &[GraphUpdate],
    cut: usize,
    batch: usize,
) where
    A: Clusterer,
{
    // The registry restores whichever backend wrote the bytes.
    dynscan_baseline::install();
    let cut = cut.min(stream.len());
    let (prefix, suffix) = stream.split_at(cut);
    let mut live = make();
    for chunk in prefix.chunks(batch.max(1)) {
        live.apply_batch(chunk);
    }
    let snapshot = live.checkpoint_bytes();
    let mut restored = restore_any(&snapshot).expect("checkpoint must restore");
    // Restoring is free of side effects: the restored instance's own
    // checkpoint is the same document.
    assert_eq!(restored.checkpoint_bytes(), snapshot);
    for chunk in suffix.chunks(batch.max(1)) {
        let flips_live = live.apply_batch(chunk);
        let flips_restored = restored.apply_batch(chunk);
        assert_eq!(flips_live, flips_restored, "flip sets diverged");
    }
    assert_eq!(
        live.checkpoint_bytes(),
        restored.checkpoint_bytes(),
        "post-continuation state diverged"
    );
    assert_eq!(live.updates_applied(), restored.updates_applied());
}

fn exact_params() -> Params {
    Params::jaccard(0.35, 3)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(0x5eed_0001)
}

fn sampled_params() -> Params {
    Params::jaccard(0.3, 3).with_rho(0.2).with_seed(0x5eed_0002)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Exact mode: checkpoint → restore → apply(S) is byte-identical to
    /// apply(S) on the live instance, for any stream, cut point and batch
    /// partition — including streams whose deletions empty the graph.
    #[test]
    fn strclu_exact_mode_resumes_bit_identically(
        ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 1..120),
        cut in 0usize..120,
        batch in 1usize..20,
    ) {
        let stream = to_updates(&ops);
        assert_resumes_bit_identically(
            || DynStrClu::new(exact_params()),
            &stream,
            cut,
            batch,
        );
    }

    /// Sampled mode (the real algorithm): the continuation draws estimator
    /// randomness, so this property additionally covers the per-edge
    /// invocation counters, the batch epoch and the adjacency slot order.
    #[test]
    fn strclu_sampled_mode_resumes_bit_identically(
        ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 1..100),
        cut in 0usize..100,
        batch in 1usize..20,
    ) {
        let stream = to_updates(&ops);
        assert_resumes_bit_identically(
            || DynStrClu::new(sampled_params()),
            &stream,
            cut,
            batch,
        );
    }

    /// The same property at the DynELM layer and for the exact baseline.
    #[test]
    fn elm_and_baseline_resume_bit_identically(
        ops in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 1..80),
        cut in 0usize..80,
        batch in 1usize..16,
    ) {
        let stream = to_updates(&ops);
        assert_resumes_bit_identically(|| DynElm::new(sampled_params()), &stream, cut, batch);
        assert_resumes_bit_identically(
            || ExactDynScan::jaccard(0.35, 3),
            &stream,
            cut,
            batch,
        );
    }
}

/// Deletions all the way down to the empty graph, checkpointing at every
/// intermediate size (the degenerate-topology sweep of the satellite
/// task).
#[test]
fn checkpoints_survive_deletion_to_empty_graph() {
    for params in [exact_params(), sampled_params()] {
        let mut live = DynStrClu::new(params);
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                live.insert_edge(v(a), v(b)).unwrap();
                edges.push((a, b));
            }
        }
        for &(a, b) in &edges {
            let snapshot = live.checkpoint_bytes();
            let mut restored = DynStrClu::restore(&snapshot[..]).expect("restore");
            let flips_live = live.delete_edge(v(a), v(b)).unwrap();
            let flips_restored = restored.delete_edge(v(a), v(b)).unwrap();
            assert_eq!(flips_live, flips_restored);
            assert_eq!(live.checkpoint_bytes(), restored.checkpoint_bytes());
        }
        assert_eq!(live.graph().num_edges(), 0);
        // The empty end state itself roundtrips.
        let restored = DynStrClu::restore(&live.checkpoint_bytes()[..]).unwrap();
        assert_eq!(restored.clustering().num_clusters(), 0);
    }
}

/// Group-by queries agree (as cluster partitions) between live and
/// restored instances; component ids may differ, groupings may not.
#[test]
fn group_by_partitions_agree_after_restore() {
    let mut live = DynStrClu::new(sampled_params());
    for a in 0..5u32 {
        for b in (a + 1)..5 {
            live.insert_edge(v(a), v(b)).unwrap();
        }
    }
    for a in 6..10u32 {
        for b in (a + 1)..10 {
            live.insert_edge(v(a), v(b)).unwrap();
        }
    }
    live.insert_edge(v(4), v(6)).unwrap();
    let mut restored = DynStrClu::restore(&live.checkpoint_bytes()[..]).unwrap();
    let q: Vec<VertexId> = (0..10).map(v).collect();
    let normalise = |groups: Vec<Vec<VertexId>>| {
        let mut sets: Vec<Vec<u32>> = groups
            .into_iter()
            .map(|g| g.into_iter().map(|x| x.raw()).collect())
            .collect();
        sets.sort();
        sets
    };
    assert_eq!(
        normalise(live.cluster_group_by(&q)),
        normalise(restored.cluster_group_by(&q))
    );
}

/// The committed golden fixtures pin the format story across versions:
///
/// * `golden_snapshot_v3.bin` (current format) restores to a fixed point
///   of checkpoint∘restore — any accidental change to the encoding *or*
///   to the serialised algorithm state breaks this; intentional changes
///   regenerate it (`snapshot_ci golden write
///   tests/fixtures/golden_snapshot_v3.bin`) and bump `FORMAT_VERSION`
///   if the wire layout itself changed.
/// * `golden_snapshot_v2.bin` and `golden_snapshot_v1.bin` (legacy
///   formats, never regenerated — no writer produces either any more)
///   are the backward-compat decode gates: both must keep restoring,
///   and re-encoding either under the current format must reproduce the
///   v3 fixture byte for byte — proof that all three fixtures hold the
///   same semantic state.
/// * The v3 document must be **at least 3× smaller** than the v2
///   document of the identical state — the compression floor the codec
///   migration promised.
#[test]
fn golden_snapshot_fixtures_are_stable() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let committed_v3 = std::fs::read(fixtures.join("golden_snapshot_v3.bin"))
        .expect("v3 golden fixture is committed");
    assert_eq!(
        dynscan_graph::snapshot::peek_header(&committed_v3)
            .expect("v3 header peeks")
            .format_version,
        dynscan_graph::snapshot::FORMAT_VERSION
    );
    let restored = DynStrClu::restore(&committed_v3[..])
        .expect("committed v3 fixture must restore under the current format");
    assert_eq!(
        restored.checkpoint_bytes(),
        committed_v3,
        "v3 fixture must be a fixed point of checkpoint∘restore"
    );
    // Pin a few semantic facts so the fixture is more than opaque bytes.
    assert_eq!(restored.graph().num_vertices(), 11);
    assert_eq!(restored.graph().num_edges(), 23);
    assert_eq!(restored.clustering().num_clusters(), 1);
    assert!(restored.is_core(v(0)) && restored.is_core(v(5)));

    // Backward compatibility: both legacy documents still decode and
    // hold exactly the same state as the v3 fixture.
    let committed_v2 = std::fs::read(fixtures.join("golden_snapshot_v2.bin"))
        .expect("v2 golden fixture is committed");
    assert_eq!(
        dynscan_graph::snapshot::peek_header(&committed_v2)
            .expect("v2 header peeks")
            .format_version,
        dynscan_graph::snapshot::FORMAT_VERSION_V2
    );
    let from_v2 =
        DynStrClu::restore(&committed_v2[..]).expect("legacy v2 fixture must keep restoring");
    assert_eq!(
        from_v2.checkpoint_bytes(),
        committed_v3,
        "re-encoding the v2 fixture must reproduce the v3 fixture"
    );
    assert!(
        committed_v3.len() * 3 <= committed_v2.len(),
        "v3 document ({} B) must be at least 3x smaller than v2 ({} B)",
        committed_v3.len(),
        committed_v2.len()
    );

    let committed_v1 = std::fs::read(fixtures.join("golden_snapshot_v1.bin"))
        .expect("v1 golden fixture is committed");
    assert_eq!(
        dynscan_graph::snapshot::peek_header(&committed_v1)
            .expect("v1 header peeks")
            .format_version,
        dynscan_graph::snapshot::FORMAT_VERSION_V1
    );
    let from_v1 =
        DynStrClu::restore(&committed_v1[..]).expect("legacy v1 fixture must keep restoring");
    assert_eq!(
        from_v1.checkpoint_bytes(),
        committed_v3,
        "re-encoding the v1 fixture must reproduce the v3 fixture"
    );
}

/// The golden instance's update stream (two 5-cliques bridged by a hub,
/// then churn), applied in batches of 7 — the stream `snapshot_ci golden
/// write` builds its DynStrClu fixture from.
fn golden_updates() -> Vec<GraphUpdate> {
    let mut u = Vec::new();
    for base in [0u32, 5] {
        for a in base..base + 5 {
            for b in (a + 1)..base + 5 {
                u.push(GraphUpdate::Insert(v(a), v(b)));
            }
        }
    }
    for x in [0u32, 1, 5, 6] {
        u.push(GraphUpdate::Insert(v(10), v(x)));
    }
    u.push(GraphUpdate::Delete(v(0), v(1)));
    u.push(GraphUpdate::Insert(v(0), v(1)));
    u.push(GraphUpdate::Delete(v(5), v(9)));
    u
}

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{} is committed: {e}", path.display()))
}

/// `golden_snapshot_v2_pscan.bin` — a pSCAN-like document written by the
/// retired v2 writer over the golden update stream — restores to exactly
/// the state the stream rebuilds today.
#[test]
fn golden_v2_pscan_fixture_restores_to_the_rebuilt_state() {
    let committed = fixture("golden_snapshot_v2_pscan.bin");
    let header = dynscan_graph::snapshot::peek_header(&committed).expect("header peeks");
    assert_eq!(
        header.format_version,
        dynscan_graph::snapshot::FORMAT_VERSION_V2
    );
    assert_eq!(header.algo_tag, ExactDynScan::ALGO_TAG);
    let mut rebuilt = ExactDynScan::jaccard(0.35, 3);
    for batch in golden_updates().chunks(7) {
        Clusterer::apply_batch(&mut rebuilt, batch);
    }
    let restored = ExactDynScan::restore(&committed[..]).expect("v2 pSCAN fixture restores");
    assert_eq!(restored.checkpoint_bytes(), rebuilt.checkpoint_bytes());
}

/// `golden_delta_v2.bin` — a DynStrClu delta written by the retired v2
/// writer on top of `golden_snapshot_v2.bin` after three updates —
/// applies to the restored v2 base and lands on the state the v3 fixture
/// reaches through the same three updates.
#[test]
fn golden_v2_delta_applies_to_the_v2_base() {
    let delta = fixture("golden_delta_v2.bin");
    let header = dynscan_graph::snapshot::peek_header(&delta).expect("header peeks");
    assert_eq!(
        header.format_version,
        dynscan_graph::snapshot::FORMAT_VERSION_V2
    );
    assert_eq!(header.kind, dynscan_graph::SnapshotKind::Delta);
    let mut replayed = DynStrClu::restore(&fixture("golden_snapshot_v2.bin")[..]).unwrap();
    replayed
        .apply_delta_bytes(&delta)
        .expect("v2 delta applies");
    let mut expected = DynStrClu::restore(&fixture("golden_snapshot_v3.bin")[..]).unwrap();
    for update in [
        GraphUpdate::Insert(v(5), v(9)),
        GraphUpdate::Delete(v(0), v(10)),
        GraphUpdate::Insert(v(3), v(8)),
    ] {
        expected.try_apply(update).unwrap();
    }
    assert_eq!(replayed.checkpoint_bytes(), expected.checkpoint_bytes());
    // The v3 base sits at a different chain position, so the v2 delta
    // refuses it.
    let mut wrong_base = DynStrClu::restore(&fixture("golden_snapshot_v3.bin")[..]).unwrap();
    assert!(matches!(
        wrong_base.apply_delta_bytes(&delta),
        Err(SnapshotError::DeltaBaseMismatch { .. })
    ));
}

/// Error paths: garbage, truncation and cross-algorithm confusion all
/// fail loudly instead of restoring nonsense.
#[test]
fn snapshot_error_paths() {
    assert!(matches!(
        DynStrClu::restore(&b"not a snapshot at all"[..]),
        Err(SnapshotError::BadMagic) | Err(SnapshotError::Truncated)
    ));
    let elm = DynElm::new(exact_params());
    let bytes = elm.checkpoint_bytes();
    assert!(matches!(
        DynStrClu::restore(&bytes[..]),
        Err(SnapshotError::AlgorithmMismatch { .. })
    ));
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x55;
    assert!(DynElm::restore(&corrupt[..]).is_err());
    assert!(matches!(
        DynElm::restore(&bytes[..bytes.len() - 1]),
        Err(SnapshotError::Truncated)
    ));
}
