//! Batch-throughput experiment: per-update vs. batched application of the
//! same bursty update stream, with byte-identity verification of the
//! resulting clusterings and JSON export.
//!
//! This is the measurement behind the batch update engine: replay an
//! identical bursty stream (a) one update at a time through
//! [`dynscan_core::Clusterer::try_apply`] and (b) burst-by-burst
//! through [`dynscan_core::Clusterer::apply_batch`], time both, compare
//! throughput, and check
//! that the final clusterings serialise to identical bytes.  In
//! exact-labelling ρ = 0 mode the identity is a theorem (see the
//! `batch_equivalence` integration tests); in sampled mode it is checked
//! and reported per run.

use dynscan_baseline::ExactDynScan;
use dynscan_core::{Clusterer, DynElm, DynStrClu, Params, StrCluResult};
use dynscan_graph::GraphUpdate;
use dynscan_workload::{chung_lu_power_law, BurstyStream, BurstyStreamConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Configuration of one batch-throughput comparison.
#[derive(Clone, Copy, Debug)]
pub struct BatchBenchConfig {
    /// Vertices of the synthetic dataset.
    pub num_vertices: usize,
    /// Edges of the initial (pre-loaded, untimed) graph.
    pub initial_edges: usize,
    /// Number of bursts replayed in the timed region.
    pub batches: usize,
    /// Updates per burst.
    pub batch_size: usize,
    /// Seed for graph and stream generation.
    pub seed: u64,
}

impl BatchBenchConfig {
    /// The default measurement scale (a few seconds per row).
    pub fn default_scale() -> Self {
        BatchBenchConfig {
            num_vertices: 2_000,
            initial_edges: 8_000,
            batches: 40,
            batch_size: 256,
            seed: 0xbbaa_77cc ^ 0x5eed,
        }
    }

    /// A smoke-test scale for CI and unit tests.
    pub fn quick() -> Self {
        BatchBenchConfig {
            num_vertices: 300,
            initial_edges: 900,
            batches: 6,
            batch_size: 64,
            seed: 77,
        }
    }

    /// Override the burst size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }
}

/// One measured comparison row.
#[derive(Clone, Debug)]
pub struct BatchBenchRow {
    /// Algorithm name (from [`dynscan_core::Clusterer::algorithm_name`]).
    pub algorithm: &'static str,
    /// Labelling mode: `"exact-rho0"` or `"sampled"`.
    pub mode: &'static str,
    /// Updates per burst.
    pub batch_size: usize,
    /// Total timed updates.
    pub updates: usize,
    /// Wall-clock seconds of the one-at-a-time replay.
    pub per_update_secs: f64,
    /// Wall-clock seconds of the batched replay.
    pub batched_secs: f64,
    /// Updates/second, one at a time.
    pub per_update_ops: f64,
    /// Updates/second, batched.
    pub batched_ops: f64,
    /// `batched_ops / per_update_ops`.
    pub speedup: f64,
    /// Whether the two final clusterings serialise to identical bytes.
    pub identical_clustering: bool,
}

/// Canonical byte serialisation of a clustering: every cluster's sorted
/// member list (clusters themselves sorted), then every vertex's role.
/// Two `StrCluResult`s are byte-identical under this serialisation iff
/// they describe the same clustering.
pub fn clustering_fingerprint(result: &StrCluResult) -> String {
    let mut clusters: Vec<Vec<u32>> = result
        .clusters()
        .iter()
        .map(|c| {
            let mut ids: Vec<u32> = c.iter().map(|v| v.raw()).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    clusters.sort();
    let mut out = String::new();
    for cluster in &clusters {
        out.push('[');
        for id in cluster {
            let _ = write!(out, "{id},");
        }
        out.push_str("]\n");
    }
    for (v, role) in result.roles() {
        let _ = writeln!(out, "{}:{:?}", v.raw(), role);
    }
    out
}

/// The bursty stream both replays consume: `batches` bursts of
/// `batch_size` updates over per-burst hotspots.
fn make_batches(config: &BatchBenchConfig) -> (Vec<(u32, u32)>, Vec<Vec<GraphUpdate>>) {
    let initial_pairs =
        chung_lu_power_law(config.num_vertices, config.initial_edges, 2.3, config.seed);
    let stream_config = BurstyStreamConfig::new(config.num_vertices, config.batch_size)
        .with_hotspot_size(12)
        .with_hotspot_bias(0.85)
        .with_eta(0.25)
        .with_seed(config.seed ^ 0x00ff_00ff);
    let mut stream = BurstyStream::new(&initial_pairs, stream_config);
    let batches = stream.take_batches(config.batches);
    let raw: Vec<(u32, u32)> = initial_pairs
        .iter()
        .map(|&(u, v)| (u.raw(), v.raw()))
        .collect();
    (raw, batches)
}

/// Replay `initial` as single untimed inserts (identical pre-state for both
/// runs), then time the bursty phase.
fn measure<A, F>(
    make: F,
    initial: &[(u32, u32)],
    batches: &[Vec<GraphUpdate>],
    batched: bool,
) -> (f64, StrCluResult)
where
    A: Clusterer,
    F: Fn() -> A,
{
    let mut algo = make();
    for &(u, v) in initial {
        let _ = algo.try_apply(GraphUpdate::Insert(u.into(), v.into()));
    }
    let start = Instant::now();
    if batched {
        for batch in batches {
            algo.apply_batch(batch);
        }
    } else {
        for batch in batches {
            for &update in batch {
                let _ = algo.try_apply(update);
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, algo.current_clustering())
}

fn compare<A, F>(
    config: &BatchBenchConfig,
    algorithm: &'static str,
    mode: &'static str,
    make: F,
) -> BatchBenchRow
where
    A: Clusterer,
    F: Fn() -> A,
{
    let (initial, batches) = make_batches(config);
    let updates: usize = batches.iter().map(Vec::len).sum();
    // Two timed repetitions per side, keeping the faster one: replays are
    // deterministic, so the spread between repetitions is machine noise.
    let (seq_a, sequential_result) = measure(&make, &initial, &batches, false);
    let (seq_b, _) = measure(&make, &initial, &batches, false);
    let per_update_secs = seq_a.min(seq_b);
    let (bat_a, batched_result) = measure(&make, &initial, &batches, true);
    let (bat_b, _) = measure(&make, &initial, &batches, true);
    let batched_secs = bat_a.min(bat_b);
    let identical =
        clustering_fingerprint(&sequential_result) == clustering_fingerprint(&batched_result);
    let ops = |secs: f64| {
        if secs > 0.0 {
            updates as f64 / secs
        } else {
            f64::INFINITY
        }
    };
    BatchBenchRow {
        algorithm,
        mode,
        batch_size: config.batch_size,
        updates,
        per_update_secs,
        batched_secs,
        per_update_ops: ops(per_update_secs),
        batched_ops: ops(batched_secs),
        speedup: per_update_secs / batched_secs.max(f64::EPSILON),
        identical_clustering: identical,
    }
}

/// Parameters for the byte-identity configuration: exact labels with ρ = 0
/// mean every label is the exact ε-threshold of the current graph, so
/// batched and sequential replays provably converge to the same state.
fn exact_params(seed: u64) -> Params {
    Params::jaccard(0.3, 4)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(seed)
}

/// Parameters for the sampled configuration (the real algorithm): the
/// batch engine's win here is deduplicated + parallel re-estimation.
fn sampled_params(seed: u64) -> Params {
    Params::jaccard(0.3, 4).with_rho(0.25).with_seed(seed)
}

/// Run the full batch-throughput comparison matrix.
pub fn run_batch_throughput(config: &BatchBenchConfig) -> Vec<BatchBenchRow> {
    let mut rows = Vec::new();
    // Headline: DynStrClu with byte-identical output across batch sizes.
    // Each row replays the same total update count so small-batch rows are
    // measured over the same wall-clock scale as large-batch rows.
    let total_updates = config.batches * config.batch_size;
    for batch_size in [64, 256, 1024] {
        let mut scaled = config.with_batch_size(batch_size);
        scaled.batches = (total_updates / batch_size).max(1);
        rows.push(compare(&scaled, "DynStrClu", "exact-rho0", move || {
            DynStrClu::new(exact_params(scaled.seed))
        }));
    }
    // The sampled estimator path (deduplicated parallel re-estimation).
    rows.push(compare(config, "DynStrClu", "sampled", || {
        DynStrClu::new(sampled_params(config.seed))
    }));
    rows.push(compare(config, "DynELM", "exact-rho0", || {
        DynElm::new(exact_params(config.seed))
    }));
    // Baseline: batching dedupes the exact relabelling work.
    rows.push(compare(config, "pSCAN-like", "exact", || {
        ExactDynScan::jaccard(0.3, 4)
    }));
    rows
}

/// Render rows as the `BENCH_batch.json` document (hand-rolled JSON — the
/// vendored serde is a marker stub).
pub fn rows_to_json(config: &BatchBenchConfig, rows: &[BatchBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"batch_throughput\",\n");
    out.push_str("  \"command\": \"cargo bench -p dynscan-bench --bench batch_throughput\",\n");
    let _ = writeln!(out, "  \"num_vertices\": {},", config.num_vertices);
    let _ = writeln!(out, "  \"initial_edges\": {},", config.initial_edges);
    let _ = writeln!(out, "  \"batches\": {},", config.batches);
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"algorithm\": \"{}\", \"mode\": \"{}\", \"batch_size\": {}, \"updates\": {}, \
             \"per_update_secs\": {:.6}, \"batched_secs\": {:.6}, \
             \"per_update_ops\": {:.1}, \"batched_ops\": {:.1}, \
             \"speedup\": {:.3}, \"identical_clustering\": {}}}",
            row.algorithm,
            row.mode,
            row.batch_size,
            row.updates,
            row.per_update_secs,
            row.batched_secs,
            row.per_update_ops,
            row.batched_ops,
            row.speedup,
            row.identical_clustering,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table of the rows.
pub fn rows_to_table(rows: &[BatchBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<10} {:>6} {:>9} {:>13} {:>13} {:>8} {:>10}",
        "algorithm", "mode", "batch", "updates", "seq ops/s", "batch ops/s", "speedup", "identical"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<11} {:<10} {:>6} {:>9} {:>13.0} {:>13.0} {:>7.2}x {:>10}",
            row.algorithm,
            row.mode,
            row.batch_size,
            row.updates,
            row.per_update_ops,
            row.batched_ops,
            row.speedup,
            row.identical_clustering,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_is_identical_and_measured() {
        let config = BatchBenchConfig::quick();
        let row = compare(&config, "DynStrClu", "exact-rho0", || {
            DynStrClu::new(exact_params(config.seed))
        });
        assert!(
            row.identical_clustering,
            "exact ρ=0 batching must be byte-identical"
        );
        assert!(row.updates > 0);
        assert!(row.per_update_secs > 0.0 && row.batched_secs > 0.0);
    }

    #[test]
    fn baseline_batching_is_always_identical() {
        let config = BatchBenchConfig::quick();
        let row = compare(&config, "pSCAN-like", "exact", || {
            ExactDynScan::jaccard(0.3, 4)
        });
        assert!(row.identical_clustering);
    }

    #[test]
    fn json_export_shape() {
        let config = BatchBenchConfig::quick();
        let rows = vec![compare(&config, "DynELM", "exact-rho0", || {
            DynElm::new(exact_params(config.seed))
        })];
        let json = rows_to_json(&config, &rows);
        assert!(json.contains("\"benchmark\": \"batch_throughput\""));
        assert!(json.contains("\"algorithm\": \"DynELM\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.trim_end().ends_with('}'));
        let table = rows_to_table(&rows);
        assert!(table.contains("DynELM"));
    }

    #[test]
    fn fingerprints_detect_differences() {
        let params = Params::jaccard(0.5, 2).with_rho(0.0).with_exact_labels();
        let mut a = DynStrClu::new(params);
        let mut b = DynStrClu::new(params);
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 2), (2, 3)] {
            a.insert_edge(u.into(), v.into()).unwrap();
            b.insert_edge(u.into(), v.into()).unwrap();
        }
        assert_eq!(
            clustering_fingerprint(&a.clustering()),
            clustering_fingerprint(&b.clustering())
        );
        b.delete_edge(0u32.into(), 1u32.into()).unwrap();
        assert_ne!(
            clustering_fingerprint(&a.clustering()),
            clustering_fingerprint(&b.clustering())
        );
    }
}
