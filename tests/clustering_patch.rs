//! The session's patched clustering equals a full extraction after every
//! mutation.  `Session::clustering()` — and, with epoch reads on, the
//! published snapshot — is compared accessor for accessor with
//! `current_clustering()` on random streams: single applies, batches of
//! mixed sizes, exact and sampled labels, new vertices, a restore
//! mid-stream and a delete-to-empty tail, on both sides of
//! [`PATCH_CROSSOVER`].

use dynscan_core::session::PATCH_CROSSOVER;
use dynscan_core::{EpochReadHandle, GraphUpdate, Params, Session, StrCluResult, VertexId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// Every accessor of `patched` answers like `extracted`'s.
fn assert_same(patched: &StrCluResult, extracted: &StrCluResult, at: &str) {
    assert_eq!(patched.num_clusters(), extracted.num_clusters(), "{at}");
    assert_eq!(patched.num_core(), extracted.num_core(), "{at}");
    assert_eq!(patched.num_vertices(), extracted.num_vertices(), "{at}");
    assert_eq!(patched.clusters(), extracted.clusters(), "{at}");
    for x in 0..extracted.num_vertices() as u32 {
        let x = v(x);
        assert_eq!(patched.role(x), extracted.role(x), "{at}: role of {x}");
        assert_eq!(
            patched.clusters_of(x),
            extracted.clusters_of(x),
            "{at}: clusters of {x}"
        );
        assert_eq!(
            patched.primary_assignment(x),
            extracted.primary_assignment(x),
            "{at}: primary of {x}"
        );
    }
    assert!(patched == extracted, "{at}");
}

/// Compare the session's clustering (and the published epoch, if any)
/// with a fresh extraction.
fn check(session: &mut Session, reads: Option<&EpochReadHandle>, at: &str) {
    let extracted = session.as_clusterer().current_clustering();
    if let Some(handle) = reads {
        let snapshot = handle.load().expect("published before the ack");
        assert_same(&snapshot.clustering, &extracted, at);
        for x in 0..extracted.num_vertices() as u32 {
            let by_index: Vec<Vec<VertexId>> = extracted
                .clusters_of(v(x))
                .iter()
                .map(|&i| extracted.cluster(i as usize).to_vec())
                .collect();
            assert_eq!(snapshot.clusters_of(v(x)), by_index, "{at}: {x}");
        }
    }
    assert_same(session.clustering(), &extracted, at);
}

fn session(params: Params) -> Session {
    Session::builder()
        .params(params)
        .build()
        .expect("DynStrClu")
}

/// A random update over vertices `0..span`: mostly inserts, deletes of
/// present edges otherwise.
fn random_update(rng: &mut SmallRng, present: &mut Vec<(u32, u32)>, span: u32) -> GraphUpdate {
    if !present.is_empty() && rng.gen_bool(0.3) {
        let (a, b) = present.swap_remove(rng.gen_range(0..present.len()));
        GraphUpdate::Delete(v(a), v(b))
    } else {
        let a = rng.gen_range(0..span);
        let b = rng.gen_range(0..span);
        if a != b && !present.contains(&(a.min(b), a.max(b))) {
            present.push((a.min(b), a.max(b)));
        }
        GraphUpdate::Insert(v(a), v(b))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn patched_clustering_equals_extraction_after_every_mutation(
        kinds in prop::collection::vec(0u8..10, 30..90),
        exact in any::<bool>(),
        epoch_reads in any::<bool>(),
        restore_at in 0usize..90,
        seed in 0u64..1_000,
    ) {
        let mut params = Params::jaccard(0.3, 3).with_rho(0.05).with_seed(seed);
        if exact {
            params = params.with_exact_labels();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut session = session(params);
        let mut reads = epoch_reads.then(|| session.enable_epoch_reads());
        let mut present: Vec<(u32, u32)> = Vec::new();
        for (step, kind) in kinds.into_iter().enumerate() {
            // The vertex space grows as the stream goes on.
            let span = 8 + step as u32 / 2;
            match kind {
                0..=5 => {
                    let update = random_update(&mut rng, &mut present, span);
                    let _ = session.apply(update);
                }
                6..=8 => {
                    let len = rng.gen_range(1..=24);
                    let batch: Vec<GraphUpdate> = (0..len)
                        .map(|_| random_update(&mut rng, &mut present, span))
                        .collect();
                    session.apply_batch(&batch);
                }
                _ => {
                    // Several mutations pile up endpoints before a read.
                    for _ in 0..rng.gen_range(2..6) {
                        let update = random_update(&mut rng, &mut present, span);
                        session.push(update);
                        session.flush();
                    }
                }
            }
            if step == restore_at {
                session = Session::restore(&session.checkpoint_bytes()).expect("restores");
                reads = epoch_reads.then(|| session.enable_epoch_reads());
            }
            // Without epoch reads, skipping a check lets the session
            // collect endpoints across several mutations.
            if reads.is_some() || rng.gen_bool(0.6) {
                check(&mut session, reads.as_ref(), &format!("step {step}"));
            }
        }
        // Delete to empty, in single applies and batches.
        while !present.is_empty() {
            let take = rng.gen_range(1..=present.len().min(8));
            let batch: Vec<GraphUpdate> = present
                .drain(..take)
                .map(|(a, b)| GraphUpdate::Delete(v(a), v(b)))
                .collect();
            if batch.len() == 1 {
                session.apply(batch[0]).expect("present edge");
            } else {
                session.apply_batch(&batch);
            }
            check(&mut session, reads.as_ref(), "tail");
        }
        prop_assert_eq!(session.num_edges(), 0);
        let empty = session.clustering();
        prop_assert_eq!(empty.num_clusters(), 0);
        prop_assert_eq!(empty.num_core(), 0);
    }
}

/// Cliques of `size` over `count` consecutive id ranges starting at
/// `base`: every edge is similar, so each one is a flip.
fn cliques(base: u32, count: u32, size: u32) -> Vec<GraphUpdate> {
    let mut updates = Vec::new();
    for c in 0..count {
        let first = base + c * size;
        for a in first..first + size {
            for b in a + 1..first + size {
                updates.push(GraphUpdate::Insert(v(a), v(b)));
            }
        }
    }
    updates
}

#[test]
fn batches_past_the_crossover_extract_and_later_writes_patch() {
    for epoch_reads in [false, true] {
        let mut session = session(Params::jaccard(0.3, 3).with_exact_labels().with_seed(3));
        let reads = epoch_reads.then(|| session.enable_epoch_reads());
        session.apply_batch(&cliques(0, 4, 8));
        check(&mut session, reads.as_ref(), "small preload");
        // One batch whose flips exceed the crossover.
        let bulk = cliques(100, 70, 10);
        let flips = session.apply_batch(&bulk);
        assert!(2 * flips.len() > PATCH_CROSSOVER, "{} flips", flips.len());
        check(&mut session, reads.as_ref(), "bulk");
        // Below the crossover again: merge two cliques, split one, bridge
        // three with a hub, then dissolve a whole clique.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut steps: Vec<Vec<GraphUpdate>> = vec![
            vec![
                GraphUpdate::Insert(v(0), v(8)),
                GraphUpdate::Insert(v(1), v(9)),
            ],
            (0..4)
                .map(|b| GraphUpdate::Delete(v(100), v(101 + b)))
                .collect(),
            vec![
                GraphUpdate::Insert(v(90), v(16)),
                GraphUpdate::Insert(v(90), v(24)),
            ],
        ];
        steps.push(
            cliques(110, 1, 10)
                .into_iter()
                .map(|u| {
                    let (a, b) = u.endpoints();
                    GraphUpdate::Delete(a, b)
                })
                .collect(),
        );
        for (i, batch) in steps.iter().enumerate() {
            if rng.gen_bool(0.5) {
                for &update in batch {
                    let _ = session.apply(update);
                    check(&mut session, reads.as_ref(), &format!("step {i} single"));
                }
            } else {
                session.apply_batch(batch);
                check(&mut session, reads.as_ref(), &format!("step {i} batch"));
            }
        }
    }
}
