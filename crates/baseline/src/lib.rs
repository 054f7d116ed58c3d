//! # dynscan-baseline
//!
//! The algorithms DynELM / DynStrClu are compared against in the paper's
//! evaluation:
//!
//! * [`StaticScan`] — the original SCAN algorithm (Xu et al., KDD 2007):
//!   compute every edge's exact similarity and extract the clustering from
//!   scratch.  It is the *ground truth* the quality metrics (mis-labelled
//!   rate, ARI, individual cluster quality) compare against.
//!
//! * [`ExactDynScan`] — a pSCAN-style exact dynamic baseline: it maintains
//!   exact per-edge intersection counts under updates, so every update costs
//!   O(d\[u\] + d\[w\]) hash probes (the Θ(n) worst case the paper's
//!   introduction describes), and the labelling is always exactly valid.
//!
//! * [`IndexedDynScan`] — an hSCAN-style index baseline: on top of the exact
//!   counts it keeps each vertex's neighbours ordered by similarity, which
//!   lets it answer clustering queries for *any* (ε, μ) given on the fly at
//!   the price of an extra O(log n) factor per affected edge on updates.
//!
//! All three reuse the `StrCluResult` extraction from `dynscan-core`, so
//! quality comparisons are apples-to-apples.
//!
//! # Why batching is a wash for the exact baselines (by design)
//!
//! The batch update engine speeds DynELM/DynStrClu up 2.5×+ on bursty
//! streams, yet the same engine driving [`ExactDynScan`] measures around
//! **0.7×** — slightly *slower* than one-at-a-time application.  That is
//! not a defect to fix but the designed contrast point of the whole
//! batching story: pSCAN-style exact maintenance relabels an edge in
//! O(1) per affecting update (the exact intersection counts are updated
//! incrementally, and the ε-comparison is a single branch), so there is
//! no expensive per-edge re-examination for a batch to deduplicate — the
//! dedup bookkeeping (sorting touched sets, coalescing flips) costs
//! about as much as the relabel work it saves.  DynELM/DynStrClu are the
//! opposite: a matured edge pays a full (Δ, δ)-sampling re-estimation,
//! which is exactly the work the batch engine deduplicates across the
//! burst and fans out across the execution pool.  Batching pays where
//! re-estimation is expensive; keep the baseline rows in
//! `BENCH_batch.json` as the control that shows the speedup comes from
//! deduplicated estimation, not from measurement artefacts.
//!
//! Both dynamic baselines implement the object-safe
//! [`dynscan_core::Clusterer`] trait, so the `Session` facade can drive
//! them exactly like DynELM / DynStrClu.  Because the crate dependency
//! points from here to `dynscan-core`, the facade reaches them through
//! the backend registry: call [`install`] once at startup and
//! `Session::builder().backend(Backend::ExactDynScan)` and erased
//! `restore_any` snapshots of either baseline work.

// No unsafe anywhere in this crate — enforced, not aspirational.
#![forbid(unsafe_code)]

pub mod exact_dyn;
pub mod indexed_dyn;
pub mod snapshot;
pub mod static_scan;

pub use exact_dyn::ExactDynScan;
pub use indexed_dyn::IndexedDynScan;
pub use static_scan::StaticScan;

use dynscan_core::session::{register_backend, Backend};
use dynscan_core::{Clusterer, Params, SnapshotError};

fn construct_exact(p: Params) -> Box<dyn Clusterer> {
    Box::new(ExactDynScan::new(p.eps, p.mu, p.measure))
}

fn restore_exact(bytes: &[u8]) -> Result<Box<dyn Clusterer>, SnapshotError> {
    Ok(Box::new(ExactDynScan::restore(bytes)?))
}

fn construct_indexed(p: Params) -> Box<dyn Clusterer> {
    Box::new(IndexedDynScan::new(p.eps, p.mu, p.measure))
}

fn restore_indexed(bytes: &[u8]) -> Result<Box<dyn Clusterer>, SnapshotError> {
    Ok(Box::new(IndexedDynScan::restore(bytes)?))
}

/// Register both exact dynamic baselines with `dynscan-core`'s backend
/// registry, making them constructible through
/// `Session::builder().backend(..)` and restorable through the erased
/// `restore_any` path.  Idempotent; call once at startup.
pub fn install() {
    register_backend(
        Backend::ExactDynScan,
        ExactDynScan::ALGO_TAG,
        construct_exact,
        restore_exact,
    );
    register_backend(
        Backend::IndexedDynScan,
        IndexedDynScan::ALGO_TAG,
        construct_indexed,
        restore_indexed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynscan_core::fixtures::{two_cliques_params, two_cliques_with_hub};
    use dynscan_core::{restore_any, DynElm, DynStrClu, GraphUpdate, UpdateError, VertexId};

    /// One engine trait covers every backend: the same `Box<dyn
    /// Clusterer>` code drives typed and batched updates, extraction,
    /// group-by and the full + delta checkpoint round trip for all four.
    #[test]
    fn all_four_backends_behind_one_trait_object() {
        install();
        let params = two_cliques_params().with_exact_labels();
        let mut algos: Vec<Box<dyn Clusterer>> = vec![
            Box::new(DynElm::new(params)),
            Box::new(DynStrClu::new(params)),
            construct_exact(params),
            construct_indexed(params),
        ];
        let g = two_cliques_with_hub();
        let inserts: Vec<GraphUpdate> = g
            .edges()
            .map(|e| GraphUpdate::Insert(e.lo(), e.hi()))
            .collect();
        let (singles, batch) = inserts.split_at(10);
        let q = [VertexId(0), VertexId(6), VertexId(12), VertexId(13)];
        let mut answers = Vec::new();
        for algo in &mut algos {
            let name = algo.algorithm_name();
            for &update in singles {
                algo.try_apply(update).expect("fresh edge inserts");
            }
            algo.apply_batch(batch);
            assert_eq!(
                algo.try_apply(GraphUpdate::Insert(VertexId(3), VertexId(3))),
                Err(UpdateError::InvalidVertex { v: VertexId(3) }),
                "{name}"
            );
            assert_eq!(algo.updates_applied() as usize, g.num_edges(), "{name}");
            assert_eq!(algo.num_edges(), g.num_edges(), "{name}");
            assert_eq!(algo.current_clustering().num_clusters(), 2, "{name}");
            answers.push(algo.cluster_group_by(&q));

            let bytes = algo.checkpoint_bytes();
            let restored = restore_any(&bytes).expect("registry restores");
            assert_eq!(restored.algo_tag(), algo.algo_tag(), "{name}");
            assert_eq!(restored.checkpoint_bytes(), bytes, "{name}");

            let base = algo.capture_checkpoint(false, 0).to_bytes();
            algo.apply_batch(&[GraphUpdate::Delete(VertexId(4), VertexId(5))]);
            let delta = algo.capture_checkpoint(true, 0).to_bytes();
            let mut replayed = restore_any(&base).expect("base restores");
            replayed.apply_delta_bytes(&delta).expect("delta applies");
            assert_eq!(
                replayed.checkpoint_bytes(),
                algo.checkpoint_bytes(),
                "{name}"
            );
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
    }
}
