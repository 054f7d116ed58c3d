//! Differential-snapshot correctness: replaying a base + delta chain must
//! reconstruct **byte-identical** state to a full snapshot taken at the
//! same moment, for every backend, in exact and sampled mode, for any
//! stream and any chain cut points.
//!
//! The property exercised throughout: drive a live instance through a
//! random update stream, capturing a full snapshot first and a delta
//! after every subsequent batch; then restore the base, apply the deltas
//! in order, and require (a) the reconstructed state re-encodes to the
//! same bytes as the live instance's full snapshot, and (b) both
//! instances continue identically, flip for flip (in sampled mode this
//! covers RNG counters, adjacency slot order and DT round state — any
//! dirty-tracking gap in the engines would surface here as divergence).

use dynscan_baseline::{ExactDynScan, IndexedDynScan};
use dynscan_core::{
    restore_any, restore_any_chain, Clusterer, DynElm, DynStrClu, GraphUpdate, Params, VertexId,
};
use dynscan_graph::{SnapshotError, SnapshotKind};
use proptest::prelude::*;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

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

/// Drive `live` through `stream` in batches; after `warm` batches capture
/// the chain base, then one delta per remaining batch.  Replay the chain
/// into a restored twin and require byte-identity plus identical
/// continuation behaviour.
fn assert_chain_equals_full<A>(make: impl Fn() -> A, stream: &[GraphUpdate], batch: usize)
where
    A: Clusterer,
{
    let batch = batch.max(1);
    let batches: Vec<&[GraphUpdate]> = stream.chunks(batch).collect();
    if batches.is_empty() {
        return;
    }
    let warm = batches.len() / 2;
    let mut live = make();
    for chunk in &batches[..warm] {
        live.apply_batch(chunk);
    }
    // Base of the chain.
    let mut docs: Vec<Vec<u8>> = Vec::new();
    let base = live.capture_checkpoint(false, 0);
    assert_eq!(base.kind(), SnapshotKind::Full);
    docs.push({
        let mut buf = Vec::new();
        base.write_to(&mut buf).unwrap();
        buf
    });
    // One delta per remaining batch.
    for (i, chunk) in batches[warm..].iter().enumerate() {
        live.apply_batch(chunk);
        let delta = live.capture_checkpoint(true, 0);
        assert_eq!(delta.kind(), SnapshotKind::Delta, "delta #{i}");
        assert_eq!(delta.sequence(), (i + 1) as u64, "chain position #{i}");
        docs.push({
            let mut buf = Vec::new();
            delta.write_to(&mut buf).unwrap();
            buf
        });
    }
    // Replay one delta at a time: restore the base, apply the deltas in
    // order.
    dynscan_baseline::install();
    let mut restored = restore_any(&docs[0]).expect("base restores");
    for delta in &docs[1..] {
        restored
            .apply_delta_bytes(delta)
            .expect("delta applies in order");
    }
    assert_eq!(
        restored.checkpoint_bytes(),
        live.checkpoint_bytes(),
        "base + delta chain must reconstruct the live state byte for byte"
    );
    // Chain replay (one derivation for the whole run) gives the same
    // state.
    let erased = restore_any_chain(&docs).expect("erased chain restore");
    assert_eq!(erased.checkpoint_bytes(), live.checkpoint_bytes());
    // Both continue identically (covers future sampled decisions).
    let continuation = [
        GraphUpdate::Insert(v(0), v(9)),
        GraphUpdate::Delete(v(0), v(9)),
        GraphUpdate::Insert(v(1), v(7)),
    ];
    for update in continuation {
        assert_eq!(
            live.apply_batch(&[update]),
            restored.apply_batch(&[update]),
            "continuation diverged"
        );
    }
    assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
}

fn exact_params() -> Params {
    Params::jaccard(0.35, 3)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(0xde17_0001)
}

fn sampled_params() -> Params {
    Params::jaccard(0.3, 3).with_rho(0.2).with_seed(0xde17_0002)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DynStrClu, sampled mode — the headline property.
    #[test]
    fn strclu_sampled_chain_replays_to_full(
        ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 4..110),
        batch in 1usize..16,
    ) {
        let stream = to_updates(&ops);
        assert_chain_equals_full(|| DynStrClu::new(sampled_params()), &stream, batch);
    }

    /// DynStrClu, exact mode.
    #[test]
    fn strclu_exact_chain_replays_to_full(
        ops in prop::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 4..110),
        batch in 1usize..16,
    ) {
        let stream = to_updates(&ops);
        assert_chain_equals_full(|| DynStrClu::new(exact_params()), &stream, batch);
    }

    /// DynELM (sampled) and both exact baselines.
    #[test]
    fn elm_and_baselines_chain_replays_to_full(
        ops in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 4..90),
        batch in 1usize..12,
    ) {
        let stream = to_updates(&ops);
        assert_chain_equals_full(|| DynElm::new(sampled_params()), &stream, batch);
        assert_chain_equals_full(|| ExactDynScan::jaccard(0.35, 3), &stream, batch);
        assert_chain_equals_full(|| IndexedDynScan::jaccard(0.35, 3), &stream, batch);
    }
}

/// The batch engine on a multi-worker pool must feed the dirty tracker
/// exactly like the single-worker one: a delta chain captured after
/// pooled batches replays to the live state byte for byte, and the chain
/// documents themselves are identical at every thread count.  A missed
/// mark would not error — it would silently omit touched state — so this
/// is pinned separately from the single-threaded proptests above.
#[test]
fn pooled_batches_chain_replays_to_full() {
    use dynscan_core::ExecPool;
    for params in [exact_params(), sampled_params()] {
        let mut reference_docs: Option<Vec<Vec<u8>>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut rng_state = 0x9e37u64;
            let mut next = move |m: u32| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((rng_state >> 33) as u32) % m
            };
            let mut live = DynStrClu::new(params);
            live.set_exec_pool(ExecPool::with_threads(threads));
            let mut present: Vec<(u32, u32)> = Vec::new();
            // Three batches of 24 updates per call, mixing inserts and
            // deletes of present edges.
            let mut apply_group = |live: &mut DynStrClu, present: &mut Vec<(u32, u32)>| {
                for _ in 0..3 {
                    let batch: Vec<GraphUpdate> = (0..24)
                        .map(|_| {
                            if !present.is_empty() && next(3) == 0 {
                                let idx = next(present.len() as u32) as usize;
                                let (a, b) = present.swap_remove(idx);
                                GraphUpdate::Delete(v(a), v(b))
                            } else {
                                let a = next(20);
                                let b = next(20);
                                if a != b && !present.contains(&(a.min(b), a.max(b))) {
                                    present.push((a.min(b), a.max(b)));
                                }
                                GraphUpdate::Insert(v(a), v(b))
                            }
                        })
                        .collect();
                    live.apply_batch(&batch);
                }
            };
            // Warm up, then capture the chain base.
            apply_group(&mut live, &mut present);
            let mut docs = vec![live.capture_checkpoint(false, 0).to_bytes()];
            // Three delta captures, each after a run of pooled batches.
            for _ in 0..3 {
                apply_group(&mut live, &mut present);
                let capture = live.capture_checkpoint(true, 0);
                assert_eq!(capture.kind(), SnapshotKind::Delta);
                docs.push(capture.to_bytes());
            }
            let restored = restore_any_chain(&docs).expect("pooled chain restores");
            assert_eq!(
                restored.checkpoint_bytes(),
                live.checkpoint_bytes(),
                "delta captured after pooled batches at {threads} threads must replay to \
                 the live state byte for byte"
            );
            let reference = reference_docs.get_or_insert_with(|| docs.clone());
            assert_eq!(
                *reference, docs,
                "chain documents diverged at {threads} threads"
            );
        }
    }
}

/// Chain discipline: deltas refuse the wrong base, the wrong order, and
/// application to a diverged instance; a delta alone refuses to restore.
#[test]
fn chain_misuse_is_rejected() {
    let mut live = DynStrClu::new(sampled_params());
    for a in 0..6u32 {
        for b in (a + 1)..6 {
            live.insert_edge(v(a), v(b)).unwrap();
        }
    }
    let base_doc = {
        let mut buf = Vec::new();
        live.capture_checkpoint(false, 0)
            .write_to(&mut buf)
            .unwrap();
        buf
    };
    live.apply_batch(&[GraphUpdate::Delete(v(0), v(1))]);
    let delta1 = {
        let mut buf = Vec::new();
        live.capture_checkpoint(true, 0).write_to(&mut buf).unwrap();
        buf
    };
    live.apply_batch(&[GraphUpdate::Insert(v(0), v(1))]);
    let delta2 = {
        let mut buf = Vec::new();
        live.capture_checkpoint(true, 0).write_to(&mut buf).unwrap();
        buf
    };

    // A delta alone is not restorable.
    assert!(matches!(
        DynStrClu::restore(&delta1[..]),
        Err(SnapshotError::UnexpectedDelta)
    ));
    assert!(matches!(
        dynscan_core::restore_any(&delta1),
        Err(SnapshotError::UnexpectedDelta)
    ));

    // Skipping delta1 must fail with a base mismatch.
    let mut skipping = DynStrClu::restore(&base_doc[..]).unwrap();
    assert!(matches!(
        skipping.apply_delta_bytes(&delta2),
        Err(SnapshotError::DeltaBaseMismatch { .. })
    ));

    // Applying to a diverged instance must fail.
    let mut diverged = DynStrClu::restore(&base_doc[..]).unwrap();
    diverged.apply_batch(&[GraphUpdate::Delete(v(2), v(3))]);
    assert!(diverged.apply_delta_bytes(&delta1).is_err());

    // Applying a full document through apply_delta must fail.
    let mut fresh = DynStrClu::restore(&base_doc[..]).unwrap();
    assert!(fresh.apply_delta_bytes(&base_doc).is_err());

    // The correct order works, including a *continued* chain on top of a
    // restored instance (restore places it at the chain position).
    let mut ok = DynStrClu::restore(&base_doc[..]).unwrap();
    ok.apply_delta_bytes(&delta1).unwrap();
    ok.apply_delta_bytes(&delta2).unwrap();
    assert_eq!(ok.checkpoint_bytes(), live.checkpoint_bytes());
    // …and the twin can now extend the same chain itself.
    ok.apply_batch(&[GraphUpdate::Delete(v(4), v(5))]);
    live.apply_batch(&[GraphUpdate::Delete(v(4), v(5))]);
    let delta3_from_twin = {
        let mut buf = Vec::new();
        let capture = ok.capture_checkpoint(true, 0);
        assert_eq!(capture.kind(), SnapshotKind::Delta);
        assert_eq!(capture.sequence(), 3);
        capture.write_to(&mut buf).unwrap();
        buf
    };
    let mut third = DynStrClu::restore(&base_doc[..]).unwrap();
    third.apply_delta_bytes(&delta1).unwrap();
    third.apply_delta_bytes(&delta2).unwrap();
    third.apply_delta_bytes(&delta3_from_twin).unwrap();
    assert_eq!(third.checkpoint_bytes(), live.checkpoint_bytes());
}

/// An empty chain and a chain whose later documents include a newer full
/// snapshot both behave as documented.
#[test]
fn chain_edge_cases() {
    assert!(restore_any_chain::<Vec<u8>>(&[]).is_err());
    let mut live = DynElm::new(exact_params());
    live.insert_edge(v(0), v(1)).unwrap();
    let full1 = live.capture_checkpoint(false, 0).to_bytes();
    live.insert_edge(v(1), v(2)).unwrap();
    let delta = live.capture_checkpoint(true, 0).to_bytes();
    live.insert_edge(v(2), v(3)).unwrap();
    let full2 = live.capture_checkpoint(false, 0).to_bytes();
    // A newer full mid-chain replaces the state wholesale.
    let restored = restore_any_chain(&[full1, delta, full2]).unwrap();
    assert_eq!(restored.checkpoint_bytes(), live.checkpoint_bytes());
}
