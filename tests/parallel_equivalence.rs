//! The parallel execution layer is semantically inert: pooled
//! re-estimation and sharded aux maintenance on any pool at any thread
//! count produce **byte-identical** state to a single-worker
//! `apply_batch` loop over the same batch boundaries — for all four
//! backends, in exact and sampled mode.
//!
//! Byte-identity is checked on three observables:
//!
//! * the coalesced net flip set of every batch,
//! * the erased checkpoint bytes (canonical encoding: equal state ⇔
//!   equal bytes),
//! * the canonical cluster-group-by answer over the full vertex range.
//!
//! Thread counts {1, 2, 4, 8} cover the degenerate single-worker pool,
//! the typical small pools and an oversubscribed one (the CI machine may
//! have fewer cores — oversubscription must not change results either).

use dynscan_core::{
    restore_any, AutoBatchPolicy, Backend, Clusterer, DynStrClu, ExecPool, FlippedEdge,
    GraphUpdate, Params, Session, VertexId,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

fn partition(updates: &[GraphUpdate], sizes: &[usize]) -> Vec<Vec<GraphUpdate>> {
    let mut batches = Vec::new();
    let mut rest = updates;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes[i % sizes.len()].clamp(1, rest.len());
        let (head, tail) = rest.split_at(take);
        batches.push(head.to_vec());
        rest = tail;
        i += 1;
    }
    batches
}

fn exact_params() -> Params {
    Params::jaccard(0.4, 3)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(0xabc)
}

fn sampled_params() -> Params {
    Params::jaccard(0.4, 3).with_rho(0.3).with_seed(0xabc)
}

/// The batch engine over a whole batch sequence: one net flip set per
/// batch.
fn apply_all(engine: &mut dyn Clusterer, batches: &[Vec<GraphUpdate>]) -> Vec<Vec<FlippedEdge>> {
    batches
        .iter()
        .map(|batch| engine.apply_batch(batch))
        .collect()
}

fn build(backend: Backend, params: Params) -> Box<dyn Clusterer> {
    dynscan_baseline::install();
    Session::builder()
        .backend(backend)
        .params(params)
        .build()
        .expect("backend registered")
        .into_inner()
}

/// Replay `batches` on a single-worker pool and on a pool of every
/// thread count; every observable must match byte for byte.
fn assert_equivalent(
    backend: Backend,
    params: Params,
    batches: &[Vec<GraphUpdate>],
    query: &[VertexId],
) {
    let mut reference = build(backend, params);
    reference.set_threads(1);
    let reference_flips = apply_all(reference.as_mut(), batches);
    let reference_bytes = reference.checkpoint_bytes();
    let reference_groups = reference.cluster_group_by(query);

    for &threads in &THREAD_COUNTS {
        let mut candidate = build(backend, params);
        candidate.set_threads(threads);
        let flips = apply_all(candidate.as_mut(), batches);
        assert_eq!(
            reference_flips, flips,
            "{backend}: flip sets diverged at {threads} threads"
        );
        assert_eq!(
            reference_bytes,
            candidate.checkpoint_bytes(),
            "{backend}: checkpoint bytes diverged at {threads} threads"
        );
        assert_eq!(
            reference_groups,
            candidate.cluster_group_by(query),
            "{backend}: group-by diverged at {threads} threads"
        );
        // And the checkpoint restores to a working instance regardless of
        // which execution produced it.
        let restored = restore_any(&reference_bytes).expect("restores");
        assert_eq!(restored.algorithm_name(), candidate.algorithm_name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Pooled + sharded execution at {1, 2, 4, 8} threads is
    /// byte-identical to single-worker batch application, across all
    /// four backends, exact and sampled.
    #[test]
    fn pooled_batches_equal_sequential_across_backends(
        ops in prop::collection::vec((any::<bool>(), 0u32..28, 0u32..28), 40..160),
        sizes in prop::collection::vec(1usize..48, 1..4),
    ) {
        let updates = to_updates(&ops);
        if !updates.is_empty() {
            let batches = partition(&updates, &sizes);
            let query: Vec<VertexId> = (0..28).map(v).collect();
            for backend in Backend::all() {
                for params in [exact_params(), sampled_params()] {
                    assert_equivalent(backend, params, &batches, &query);
                }
            }
        }
    }
}

/// The sharded aux-maintenance path forced on (cutoff 1) tracks the
/// sequential path across every thread count on a denser stream.
#[test]
fn forced_sharding_is_byte_identical_across_thread_counts() {
    use dynscan_core::Clusterer;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let params = sampled_params();
    let mut rng = SmallRng::seed_from_u64(0x57a2d);
    let mut present: Vec<(u32, u32)> = Vec::new();
    let mut batches = Vec::new();
    for _ in 0..5 {
        let mut batch = Vec::new();
        for _ in 0..80 {
            if !present.is_empty() && rng.gen_bool(0.3) {
                let idx = rng.gen_range(0..present.len());
                let (a, b) = present.swap_remove(idx);
                batch.push(GraphUpdate::Delete(v(a), v(b)));
            } else {
                let a = rng.gen_range(0u32..48);
                let b = rng.gen_range(0u32..48);
                batch.push(GraphUpdate::Insert(v(a), v(b)));
                if a != b && !present.contains(&(a.min(b), a.max(b))) {
                    present.push((a.min(b), a.max(b)));
                }
            }
        }
        batches.push(batch);
    }

    let mut reference = DynStrClu::new(params);
    for batch in &batches {
        reference.apply_batch(batch);
    }
    let reference_bytes = reference.checkpoint_bytes();

    for threads in THREAD_COUNTS {
        let mut sharded = DynStrClu::new(params);
        sharded.set_exec_pool(ExecPool::with_threads(threads));
        sharded.set_shard_flip_cutoff(1);
        for batch in &batches {
            sharded.apply_batch(batch);
        }
        assert_eq!(
            reference_bytes,
            sharded.checkpoint_bytes(),
            "forced sharding diverged at {threads} threads"
        );
    }
}

/// The adaptive intersection kernel is as semantically inert as the
/// thread count: the same batch sequence replayed under
/// `KernelMode::Scalar` and `KernelMode::Adaptive` produces identical
/// flip sets, identical checkpoint bytes, and identical group-by
/// answers at every thread count — for all backends, exact and sampled
/// (the sampled run pins the kernel's bit-stream discipline, not just
/// its counts).  The kernel mode is process-global, so both runs live
/// in this one test fn; interference the other way is impossible
/// because the mode never changes any observable (which is exactly
/// what this test proves).
#[test]
fn kernel_modes_are_byte_identical_end_to_end() {
    use dynscan_graph::kernel::{self, KernelMode};

    // A hub-heavy stream so the adaptive run actually crosses the
    // summary build threshold (hub degree well past it) and exercises
    // the popcount / bit-probe / gallop paths, not just merge.
    let mut batches: Vec<Vec<GraphUpdate>> = Vec::new();
    let mut batch = Vec::new();
    for h in 0..3u32 {
        for t in 0..120u32 {
            if h != t && (t + h) % 4 != 0 {
                batch.push(GraphUpdate::Insert(v(h), v(t)));
                if batch.len() == 50 {
                    batches.push(std::mem::take(&mut batch));
                }
            }
        }
    }
    for i in 0..120u32 {
        let a = (i * 13 + 1) % 120;
        if i != a {
            batch.push(GraphUpdate::Insert(v(i), v(a)));
        }
        if i % 5 == 0 && i > 0 {
            batch.push(GraphUpdate::Delete(v(0), v(i)));
        }
        if batch.len() >= 50 {
            batches.push(std::mem::take(&mut batch));
        }
    }
    batches.push(batch);
    let query: Vec<VertexId> = (0..120).map(v).collect();

    let before = kernel::mode();
    let mut runs = Vec::new();
    for mode in [KernelMode::Scalar, KernelMode::Adaptive] {
        kernel::set_mode(mode);
        for backend in Backend::all() {
            for params in [exact_params(), sampled_params()] {
                for threads in THREAD_COUNTS {
                    let mut engine = build(backend, params);
                    engine.set_threads(threads);
                    let flips = apply_all(engine.as_mut(), &batches);
                    runs.push((
                        backend,
                        params.rho.to_bits(),
                        threads,
                        flips,
                        engine.checkpoint_bytes(),
                        engine.cluster_group_by(&query),
                    ));
                }
            }
        }
    }
    kernel::set_mode(before);
    let (scalar, adaptive) = runs.split_at(runs.len() / 2);
    assert_eq!(
        scalar, adaptive,
        "kernel mode changed an observable (flips, checkpoint bytes, or group-by)"
    );
}

/// Snapshot-epoch reads are observationally identical to locked
/// queries: after every batch, at every thread count, the published
/// [`EpochSnapshot`](dynscan_core::EpochSnapshot) answers group-by
/// exactly like `Session::cluster_group_by` under the engine lock, and
/// its counters match the session's own.
#[test]
fn epoch_reads_match_locked_queries_at_all_thread_counts() {
    dynscan_baseline::install();
    let updates: Vec<GraphUpdate> = (0..90u32)
        .flat_map(|i| {
            let a = i % 18;
            let b = (i * 7 + 3) % 18;
            (a != b).then_some(GraphUpdate::Insert(v(a), v(b)))
        })
        .chain((0..12u32).map(|i| GraphUpdate::Delete(v(i % 18), v((i * 7 + 3) % 18))))
        .collect();
    let query: Vec<VertexId> = (0..18).map(v).collect();
    for backend in Backend::all() {
        for threads in THREAD_COUNTS {
            let mut session = Session::builder()
                .backend(backend)
                .params(sampled_params())
                .threads(threads)
                .build()
                .unwrap();
            let handle = session.enable_epoch_reads();
            for chunk in updates.chunks(17) {
                session.apply_batch(chunk);
                let locked = session.cluster_group_by(&query);
                let snapshot = handle.load().expect("published on every mutation");
                assert_eq!(
                    locked,
                    snapshot.group_by(&query),
                    "{backend} at {threads} threads: epoch group-by diverged"
                );
                assert_eq!(snapshot.updates_applied, session.updates_applied());
                assert_eq!(snapshot.label_epoch, session.label_epoch());
                assert_eq!(snapshot.num_vertices, session.num_vertices() as u64);
                assert_eq!(snapshot.num_edges, session.num_edges() as u64);
                // `ClusterOf` replies, hub ordering included, are the
                // extracted clustering's, index by index.
                let extracted = session.as_clusterer().current_clustering();
                for x in 0..session.num_vertices() as u32 {
                    let expected: Vec<Vec<VertexId>> = extracted
                        .clusters_of(v(x))
                        .iter()
                        .map(|&i| extracted.cluster(i as usize).to_vec())
                        .collect();
                    assert_eq!(
                        snapshot.clusters_of(v(x)),
                        expected,
                        "{backend} at {threads} threads: cluster-of {x} diverged"
                    );
                }
            }
        }
    }
}

/// Streaming through a threaded session (auto-batched pushes) matches
/// the unthreaded session for every buffer size — the `threads(n)`
/// builder knob composes with the existing read-your-writes semantics.
#[test]
fn threaded_sessions_stream_identically() {
    dynscan_baseline::install();
    let updates: Vec<GraphUpdate> = (0..30u32)
        .flat_map(|i| {
            let a = i % 10;
            let b = (i * 7 + 1) % 10;
            (a != b).then_some(GraphUpdate::Insert(v(a), v(b)))
        })
        .collect();
    for backend in Backend::all() {
        let mut reference = Session::builder()
            .backend(backend)
            .params(sampled_params())
            .auto_batch(AutoBatchPolicy::Size(7))
            .build()
            .unwrap();
        reference.extend(updates.clone());
        let reference_bytes = reference.checkpoint_bytes();
        for threads in THREAD_COUNTS {
            let mut session = Session::builder()
                .backend(backend)
                .params(sampled_params())
                .auto_batch(AutoBatchPolicy::Size(7))
                .threads(threads)
                .build()
                .unwrap();
            session.extend(updates.clone());
            assert_eq!(
                reference_bytes,
                session.checkpoint_bytes(),
                "{backend} at {threads} threads"
            );
        }
    }
}
