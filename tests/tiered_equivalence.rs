//! The memory-tiered adjacency is semantically inert: a backend whose
//! graph runs under a tiny hot-tier budget (so nearly every
//! neighbourhood lives demoted in the cold arena and is decoded on
//! access) produces **byte-identical** observables to the same backend
//! with everything hot — for all four backends, in exact and sampled
//! mode, at every thread count, under both intersection kernels.
//!
//! This is the contract `DynGraph`'s tiering rests on (ISSUE: residency
//! is a performance knob, never a semantic one).  Byte-identity is
//! checked on three observables:
//!
//! * the coalesced net flip set of every batch,
//! * the erased checkpoint bytes (canonical v5: equal state ⇔ equal
//!   bytes),
//! * the canonical cluster-group-by answer over the full vertex range.
//!
//! The kernel mode is process-global, so both modes run inside the one
//! test fn (the pattern of `parallel_equivalence.rs`).

use dynscan_core::{Backend, Clusterer, GraphUpdate, Params, Session, VertexId};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Small enough that the 60-vertex workload overflows it immediately:
/// the budgeted runs do real promotion/demotion traffic on every batch.
const TINY_BUDGET: usize = 256;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

fn exact_params() -> Params {
    Params::jaccard(0.4, 3)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(0x7ead)
}

fn sampled_params() -> Params {
    Params::jaccard(0.4, 3).with_rho(0.3).with_seed(0x7ead)
}

fn build(backend: Backend, params: Params, budget: Option<usize>) -> Box<dyn Clusterer> {
    dynscan_baseline::install();
    let mut engine = Session::builder()
        .backend(backend)
        .params(params)
        .memory_budget(budget)
        .build()
        .expect("backend registered")
        .into_inner();
    // Belt and braces: the erased setter must agree with the builder.
    engine.set_memory_budget(budget);
    engine
}

/// A churny stream with hubs (so the adaptive kernel builds summaries),
/// growth and deletions, in uneven batches.
fn workload() -> Vec<Vec<GraphUpdate>> {
    let mut batches: Vec<Vec<GraphUpdate>> = Vec::new();
    let mut batch: Vec<GraphUpdate> = Vec::new();
    for h in 0..2u32 {
        for t in 0..60u32 {
            if h != t && (t + h) % 5 != 0 {
                batch.push(GraphUpdate::Insert(v(h), v(t)));
                if batch.len() == 23 {
                    batches.push(std::mem::take(&mut batch));
                }
            }
        }
    }
    for i in 0..60u32 {
        let a = (i * 17 + 3) % 60;
        if i != a {
            batch.push(GraphUpdate::Insert(v(i), v(a)));
        }
        if i % 7 == 0 && i > 0 {
            batch.push(GraphUpdate::Delete(v(0), v(i)));
        }
        if batch.len() >= 23 {
            batches.push(std::mem::take(&mut batch));
        }
    }
    batches.push(batch);
    batches
}

/// All four backends × exact/sampled × {1,2,4,8} threads × both
/// kernels: the tiny-budget run must match the unbudgeted reference
/// byte for byte on every observable.
#[test]
fn tiered_backends_are_byte_identical_to_untiered() {
    use dynscan_graph::kernel::{self, KernelMode};

    let batches = workload();
    let query: Vec<VertexId> = (0..62).map(v).collect();

    let before = kernel::mode();
    for mode in [KernelMode::Scalar, KernelMode::Adaptive] {
        kernel::set_mode(mode);
        for backend in Backend::all() {
            for params in [exact_params(), sampled_params()] {
                let mut reference = build(backend, params, None);
                reference.set_threads(1);
                let mut reference_flips = Vec::new();
                for batch in &batches {
                    reference_flips.push(reference.apply_batch(batch));
                }
                let reference_bytes = reference.checkpoint_bytes();
                let reference_groups = reference.cluster_group_by(&query);

                for &threads in &THREAD_COUNTS {
                    let mut tiered = build(backend, params, Some(TINY_BUDGET));
                    tiered.set_threads(threads);
                    let flips: Vec<_> = batches.iter().map(|b| tiered.apply_batch(b)).collect();
                    assert_eq!(
                        reference_flips, flips,
                        "{backend} ({mode:?}): flips diverged under budget at {threads} threads"
                    );
                    assert_eq!(
                        reference_bytes,
                        tiered.checkpoint_bytes(),
                        "{backend} ({mode:?}): checkpoint bytes diverged under budget at \
                         {threads} threads"
                    );
                    assert_eq!(
                        reference_groups,
                        tiered.cluster_group_by(&query),
                        "{backend} ({mode:?}): group-by diverged under budget at {threads} \
                         threads"
                    );
                }
            }
        }
    }
    kernel::set_mode(before);
}

/// The budget knob round-trips through checkpoints: a tiered instance's
/// checkpoint restores (restore always comes up untiered/all-hot) to
/// the same state, and re-applying the budget to the restored instance
/// changes nothing observable.
#[test]
fn tiered_checkpoints_restore_and_rebudget_cleanly() {
    use dynscan_core::restore_any;

    let batches = workload();
    let query: Vec<VertexId> = (0..62).map(v).collect();
    for backend in Backend::all() {
        let mut tiered = build(backend, sampled_params(), Some(TINY_BUDGET));
        for batch in &batches {
            tiered.apply_batch(batch);
        }
        let bytes = tiered.checkpoint_bytes();
        let mut restored = restore_any(&bytes).expect("tiered checkpoint restores");
        assert_eq!(restored.checkpoint_bytes(), bytes, "{backend}: fixed point");
        restored.set_memory_budget(Some(TINY_BUDGET));
        assert_eq!(
            restored.checkpoint_bytes(),
            bytes,
            "{backend}: re-budgeting the restored instance changed state"
        );
        assert_eq!(
            restored.cluster_group_by(&query),
            tiered.cluster_group_by(&query),
            "{backend}: group-by diverged after restore"
        );
    }
}
