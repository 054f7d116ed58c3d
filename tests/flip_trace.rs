//! Flip-trace fixture: DynELM and DynStrClu at the paper's default
//! parameters on a seeded Chung–Lu stream, pinned to committed checksums.
//!
//! At `Params::default()` (ε = 0.2, ρ = 0.01, δ* = 10⁻⁶) the sample size
//! is in the tens of millions, so every labelling takes the exact shortcut
//! (exact similarity once L ≥ the smaller closed degree) and no sample is
//! drawn.  The labels, flips and clusterings of such a stream are then a
//! function of the topology and the DT schedule alone, and the committed
//! constants below pin them: an engine change that alters how the exact
//! regime labels, relabels or coalesces flips fails here, while a change
//! confined to the sampled regime (where the δ schedule lives) leaves every
//! constant standing.
//!
//! The stream is one preload batch, 16 bursty batches of 128 and 256
//! single `try_apply` updates.  Each call's net flip set is folded into one
//! FNV-1a trace, the final clustering into a second, and the labelling
//! count is recorded.  The execution pool, the intersection kernel and the
//! memory budget are semantically inert, so the constants hold under every
//! environment setting the tier-1 suite runs with.

use dynscan_bench::clustering_fingerprint;
use dynscan_core::{Clusterer, DynElm, DynStrClu, FlippedEdge, GraphUpdate, Params};
use dynscan_graph::snapshot::fnv1a;
use dynscan_workload::{chung_lu_power_law, BurstyStream, BurstyStreamConfig};

/// Committed checksums, equal for both backends (a DynStrClu labels
/// exactly as the DynELM inside it): (flip trace, final clustering,
/// labellings).
const TRACE: (u64, u64, u64) = (
    5_060_258_575_194_540_537,
    11_988_799_391_224_858_339,
    51_791,
);

const N: usize = 2_000;
const BURSTS: usize = 16;
const BURST_SIZE: usize = 128;
const SINGLES: usize = 256;

/// Append one call's net flip set to the trace bytes: its length, then
/// each flip's endpoints and label.
fn record(trace: &mut Vec<u8>, flips: &[FlippedEdge]) {
    trace.extend_from_slice(&(flips.len() as u64).to_le_bytes());
    for &(key, label) in flips {
        trace.extend_from_slice(&key.lo().raw().to_le_bytes());
        trace.extend_from_slice(&key.hi().raw().to_le_bytes());
        trace.push(u8::from(label.is_similar()));
    }
}

/// Drive `algo` through the fixed stream and return (flip-trace hash,
/// clustering hash, labellings).
fn run(algo: &mut dyn Clusterer) -> (u64, u64, u64) {
    let initial = chung_lu_power_law(N, 8_000, 2.3, 7);
    let preload: Vec<GraphUpdate> = initial
        .iter()
        .map(|&(u, v)| GraphUpdate::Insert(u, v))
        .collect();
    let mut stream = BurstyStream::new(&initial, BurstyStreamConfig::new(N, BURST_SIZE));
    let mut trace = Vec::new();
    record(&mut trace, &algo.apply_batch(&preload));
    for batch in stream.take_batches(BURSTS) {
        record(&mut trace, &algo.apply_batch(&batch));
    }
    let singles: Vec<GraphUpdate> = stream.take_batches(SINGLES / BURST_SIZE).concat();
    assert_eq!(singles.len(), SINGLES);
    for update in singles {
        let flips = algo
            .try_apply(update)
            .expect("the bursty stream emits valid updates");
        record(&mut trace, &flips);
    }
    let stats = algo.elm_stats().expect("an ELM-family backend");
    assert_eq!(
        stats.samples_drawn, 0,
        "at the default parameters every labelling takes the exact shortcut"
    );
    let clustering = clustering_fingerprint(&algo.current_clustering());
    (
        fnv1a(&trace),
        fnv1a(clustering.as_bytes()),
        stats.labellings,
    )
}

#[test]
fn dynelm_flip_trace_matches_the_committed_checksums() {
    assert_eq!(run(&mut DynElm::new(Params::default())), TRACE);
}

#[test]
fn dynstrclu_flip_trace_matches_the_committed_checksums() {
    assert_eq!(run(&mut DynStrClu::new(Params::default())), TRACE);
}
