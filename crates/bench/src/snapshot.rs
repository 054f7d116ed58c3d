//! Checkpoint-vs-rebuild experiment: how much faster is restoring a
//! serialised instance than rebuilding it from the raw edge stream, and
//! does the restored instance really resume bit-identically?
//!
//! For each algorithm the runner:
//!
//! 1. builds a live instance over a synthetic workload (initial power-law
//!    graph plus bursty update batches);
//! 2. times `checkpoint` into a byte buffer and `restore` back out of it;
//! 3. times the restart alternative — a fresh instance fed the current
//!    graph's edges (batched, i.e. the *fastest* rebuild path available),
//!    which is what a process without persistence would have to do;
//! 4. replays an identical continuation stream into the live and the
//!    restored instance and checks they finish in **byte-identical**
//!    state (their post-continuation checkpoints are compared bytewise,
//!    which covers labels, DT counters, the labelling counter and the
//!    batch epoch every future random draw derives from).
//!
//! Modes name the parameters, not the code path: `rho0.25` is ε = 0.3,
//! ρ = 0.25 and δ* = 10⁻⁶, where every labelling takes the estimator's
//! exact shortcut (the sample size L ≥ 20,600 exceeds every closed
//! degree), so each row reports the `samples_drawn` it actually made.
//!
//! The rows are exported as `BENCH_checkpoint.json`; the bench binary
//! asserts the ≥ 5× restore-vs-rebuild bar for the DynStrClu rows.

use dynscan_baseline::ExactDynScan;
use dynscan_core::{restore_any, Clusterer, DynElm, DynStrClu, Params};
use dynscan_graph::{GraphUpdate, VertexId};
use dynscan_workload::{chung_lu_power_law, BurstyStream, BurstyStreamConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Configuration of one checkpoint-vs-rebuild comparison.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointBenchConfig {
    /// Vertices of the synthetic dataset.
    pub num_vertices: usize,
    /// Edges of the initial power-law graph.
    pub initial_edges: usize,
    /// Bursty update batches applied before the checkpoint.
    pub warmup_batches: usize,
    /// Bursty update batches replayed after the checkpoint (the
    /// bit-identity continuation).
    pub continuation_batches: usize,
    /// Updates per burst.
    pub batch_size: usize,
    /// Seed for graph and stream generation.
    pub seed: u64,
}

impl CheckpointBenchConfig {
    /// The default measurement scale: dense enough that per-edge exact
    /// similarity (what a rebuild pays per edge) costs real work.
    pub fn default_scale() -> Self {
        CheckpointBenchConfig {
            num_vertices: 3_000,
            initial_edges: 45_000,
            warmup_batches: 24,
            continuation_batches: 8,
            batch_size: 256,
            seed: 0xc0de_5eed,
        }
    }

    /// A smoke-test scale for CI and unit tests (dense enough that the
    /// ≥ 5× restore bar holds with margin even on noisy CI machines).
    pub fn quick() -> Self {
        CheckpointBenchConfig {
            num_vertices: 600,
            initial_edges: 6_000,
            warmup_batches: 8,
            continuation_batches: 4,
            batch_size: 128,
            seed: 0xc0de_5eed ^ 0xff,
        }
    }
}

/// One measured comparison row.
#[derive(Clone, Debug)]
pub struct CheckpointBenchRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Labelling mode: `"exact-rho0"`, `"rho0.25"` or `"exact"`.
    pub mode: &'static str,
    /// Edges in the graph at checkpoint time.
    pub edges: usize,
    /// Similarity samples the live instance drew up to checkpoint time
    /// (0 for the exact baseline).
    pub samples_drawn: u64,
    /// Snapshot size in bytes.
    pub snapshot_bytes: usize,
    /// Wall-clock seconds to checkpoint.
    pub checkpoint_secs: f64,
    /// Wall-clock seconds to restore.
    pub restore_secs: f64,
    /// Wall-clock seconds to rebuild a fresh instance from the edge
    /// stream (batched inserts — the fastest rebuild available).
    pub rebuild_secs: f64,
    /// `rebuild_secs / restore_secs`.
    pub restore_speedup: f64,
    /// Whether live and restored instances finished the continuation in
    /// byte-identical state.
    pub bit_identical: bool,
}

/// The phases of the checkpoint workload: the initial edge list, the
/// pre-checkpoint warmup bursts and the post-checkpoint continuation.
pub type CheckpointWorkload = (
    Vec<(VertexId, VertexId)>,
    Vec<Vec<GraphUpdate>>,
    Vec<Vec<GraphUpdate>>,
);

/// The deterministic workload both phases share.
pub fn make_workload(config: &CheckpointBenchConfig) -> CheckpointWorkload {
    let initial = chung_lu_power_law(config.num_vertices, config.initial_edges, 2.3, config.seed);
    let stream_config = BurstyStreamConfig::new(config.num_vertices, config.batch_size)
        .with_hotspot_size(12)
        .with_hotspot_bias(0.85)
        .with_eta(0.25)
        .with_seed(config.seed ^ 0x5a5a_a5a5);
    let mut stream = BurstyStream::new(&initial, stream_config);
    let warmup = stream.take_batches(config.warmup_batches);
    let continuation = stream.take_batches(config.continuation_batches);
    (initial, warmup, continuation)
}

fn median_secs(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn compare<A, F>(
    config: &CheckpointBenchConfig,
    algorithm: &'static str,
    mode: &'static str,
    make: F,
) -> CheckpointBenchRow
where
    A: Clusterer,
    F: Fn() -> A,
{
    // Restores go through the registry, which needs the baselines.
    dynscan_baseline::install();
    let (initial, warmup, continuation) = make_workload(config);

    // Build the live instance up to the checkpoint moment.
    let mut live = make();
    for &(u, v) in &initial {
        live.apply_batch(&[GraphUpdate::Insert(u, v)]);
    }
    for batch in &warmup {
        live.apply_batch(batch);
    }

    // Measure checkpoint / restore / rebuild, three repetitions each; the
    // replays are deterministic so the spread is machine noise.
    let mut checkpoint_runs = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let (secs, b) = time(|| live.checkpoint_bytes());
        checkpoint_runs.push(secs);
        bytes = b;
    }
    let mut restore_runs = Vec::new();
    let mut restored = None;
    for _ in 0..3 {
        let (secs, r) = time(|| restore_any(&bytes).expect("bench snapshot restores"));
        restore_runs.push(secs);
        restored = Some(r);
    }
    let mut restored = restored.expect("three restore runs happened");

    // Rebuild-from-edge-stream: what a restart without persistence costs.
    // The live state (labels, DT counters, labelling counter) is a
    // function of the full update history, so the no-snapshot restart is a
    // log replay: the initial edges plus every warmup burst, fed through
    // the batch engine — the fastest replay path this workspace has.
    let initial_inserts: Vec<GraphUpdate> = initial
        .iter()
        .map(|&(u, v)| GraphUpdate::Insert(u, v))
        .collect();
    let mut rebuild_runs = Vec::new();
    for _ in 0..3 {
        let (secs, rebuilt) = time(|| {
            let mut fresh = make();
            for chunk in initial_inserts.chunks(1024) {
                fresh.apply_batch(chunk);
            }
            for batch in &warmup {
                fresh.apply_batch(batch);
            }
            fresh
        });
        rebuild_runs.push(secs);
        drop(rebuilt);
    }
    let edges = restored.num_edges();
    let samples_drawn = samples_drawn(&live);

    // Bit-identity: live and restored must agree flip-for-flip on the
    // continuation and end in byte-identical checkpoints.
    let mut bit_identical = true;
    for batch in &continuation {
        let flips_live = live.apply_batch(batch);
        let flips_restored = restored.apply_batch(batch);
        bit_identical &= flips_live == flips_restored;
    }
    bit_identical &= live.checkpoint_bytes() == restored.checkpoint_bytes();

    let restore_secs = median_secs(restore_runs);
    let rebuild_secs = median_secs(rebuild_runs);
    CheckpointBenchRow {
        algorithm,
        mode,
        edges,
        samples_drawn,
        snapshot_bytes: bytes.len(),
        checkpoint_secs: median_secs(checkpoint_runs),
        restore_secs,
        rebuild_secs,
        restore_speedup: rebuild_secs / restore_secs.max(f64::EPSILON),
        bit_identical,
    }
}

/// One measured delta-vs-full comparison row (differential snapshots):
/// how much smaller and faster a delta capture is than a full
/// capture after one bursty batch of churn.
#[derive(Clone, Debug)]
pub struct DeltaBenchRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Labelling mode.
    pub mode: &'static str,
    /// Edges in the graph at the measurement point.
    pub edges: usize,
    /// Similarity samples the live instance drew up to the delta.
    pub samples_drawn: u64,
    /// Updates applied between the base checkpoint and the delta.
    pub churn_updates: usize,
    /// `churn_updates / edges` — how small a slice of the state the burst
    /// touched (the delta bars target bursts touching ≤ 10%).
    pub churn_fraction: f64,
    /// Full snapshot document size in bytes.
    pub full_bytes: usize,
    /// Delta document size in bytes.
    pub delta_bytes: usize,
    /// `full_bytes / delta_bytes`.
    pub size_ratio: f64,
    /// Wall-clock seconds to capture a full snapshot.
    pub full_secs: f64,
    /// Wall-clock seconds to capture the delta.
    pub delta_secs: f64,
    /// `full_secs / delta_secs`.
    pub time_ratio: f64,
    /// Whether base + delta restores byte-identically to the live state
    /// (checkpoint bytes + continuation flips).
    pub chain_identical: bool,
}

/// Measure delta-vs-full for one algorithm: build to the warmup boundary,
/// take a full base checkpoint, apply **one** more bursty batch, then
/// compare capturing that churn as a delta against re-serialising the
/// full state — and verify base + delta replays to the live state
/// byte-for-byte.
fn compare_delta<A, F>(
    config: &CheckpointBenchConfig,
    algorithm: &'static str,
    mode: &'static str,
    make: F,
) -> DeltaBenchRow
where
    A: Clusterer + Clone,
    F: Fn() -> A,
{
    dynscan_baseline::install();
    let (initial, warmup, continuation) = make_workload(config);
    let mut live = make();
    for chunk in initial
        .iter()
        .map(|&(u, v)| GraphUpdate::Insert(u, v))
        .collect::<Vec<_>>()
        .chunks(1024)
    {
        live.apply_batch(chunk);
    }
    for batch in &warmup {
        live.apply_batch(batch);
    }
    // Base checkpoint: starts the delta chain.
    let base_doc = {
        let mut buf = Vec::new();
        live.capture_checkpoint(false, 0)
            .write_to(&mut buf)
            .expect("base");
        buf
    };
    // One bursty batch of churn.
    let churn = &continuation[0];
    live.apply_batch(churn);
    let edges = live.num_edges();

    // Full capture cost at the post-churn state.  `checkpoint_bytes`
    // (the plain path) leaves the dirty tracker untouched, so the delta
    // below still describes exactly the churn batch.
    let mut full_runs = Vec::new();
    let mut full_bytes = Vec::new();
    for _ in 0..3 {
        let (secs, bytes) = time(|| live.checkpoint_bytes());
        full_runs.push(secs);
        full_bytes = bytes;
    }
    // Delta capture cost: capturing consumes the dirty marks, so each
    // repetition runs on a fresh clone of the live instance (the clone is
    // taken outside the timed section).
    let mut delta_runs = Vec::new();
    for _ in 0..3 {
        let mut twin = live.clone();
        let (secs, capture) = time(|| twin.capture_checkpoint(true, 0));
        assert_eq!(
            capture.kind(),
            dynscan_graph::SnapshotKind::Delta,
            "{algorithm} ({mode}): churn capture must be differential"
        );
        delta_runs.push(secs);
    }
    // Chain equivalence: base + delta ≡ live, bytes and behaviour.
    let delta_doc = {
        let mut buf = Vec::new();
        live.capture_checkpoint(true, 0)
            .write_to(&mut buf)
            .expect("delta");
        buf
    };
    let mut restored = restore_any(&base_doc).expect("base restores");
    restored
        .apply_delta_bytes(&delta_doc)
        .expect("delta applies");
    let mut chain_identical = restored.checkpoint_bytes() == live.checkpoint_bytes();
    for batch in &continuation[1..] {
        chain_identical &= live.apply_batch(batch) == restored.apply_batch(batch);
    }

    let full_secs = median_secs(full_runs);
    let delta_secs = median_secs(delta_runs);
    DeltaBenchRow {
        algorithm,
        mode,
        edges,
        samples_drawn: samples_drawn(&live),
        churn_updates: churn.len(),
        churn_fraction: churn.len() as f64 / edges.max(1) as f64,
        full_bytes: full_bytes.len(),
        delta_bytes: delta_doc.len(),
        size_ratio: full_bytes.len() as f64 / delta_doc.len().max(1) as f64,
        full_secs,
        delta_secs,
        time_ratio: full_secs / delta_secs.max(f64::EPSILON),
        chain_identical,
    }
}

/// Run the delta-vs-full comparison for all four backends.
pub fn run_delta_vs_full(config: &CheckpointBenchConfig) -> Vec<DeltaBenchRow> {
    vec![
        // Headline: DynStrClu at ρ = 0.25 — the ≥ 3× size / ≥ 1.5× time
        // delta bars apply to this row.
        compare_delta(config, "DynStrClu", "rho0.25", || {
            DynStrClu::new(rho025_params(config.seed))
        }),
        compare_delta(config, "DynStrClu", "exact-rho0", || {
            DynStrClu::new(exact_params(config.seed))
        }),
        compare_delta(config, "DynELM", "rho0.25", || {
            DynElm::new(rho025_params(config.seed))
        }),
        compare_delta(config, "pSCAN-like", "exact", || {
            ExactDynScan::jaccard(0.3, 4)
        }),
    ]
}

/// Human-readable table of the delta rows.
pub fn delta_rows_to_table(rows: &[DeltaBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<10} {:>7} {:>8} {:>6} {:>10} {:>10} {:>7} {:>9} {:>9} {:>7} {:>9}",
        "algorithm",
        "mode",
        "edges",
        "samples",
        "churn",
        "full KiB",
        "delta KiB",
        "size x",
        "full ms",
        "delta ms",
        "time x",
        "identical"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<11} {:<10} {:>7} {:>8} {:>6} {:>10.1} {:>10.1} {:>6.1}x {:>9.2} {:>9.2} {:>6.1}x {:>9}",
            row.algorithm,
            row.mode,
            row.edges,
            row.samples_drawn,
            row.churn_updates,
            row.full_bytes as f64 / 1024.0,
            row.delta_bytes as f64 / 1024.0,
            row.size_ratio,
            row.full_secs * 1e3,
            row.delta_secs * 1e3,
            row.time_ratio,
            row.chain_identical,
        );
    }
    out
}

/// ε = 0.3, ρ = 0.25, default δ* = 10⁻⁶: the estimator's parameters,
/// but every labelling here takes its exact shortcut (module docs).
fn rho025_params(seed: u64) -> Params {
    Params::jaccard(0.3, 4).with_rho(0.25).with_seed(seed)
}

/// Similarity samples `algo` has drawn (0 without labelling counters).
fn samples_drawn(algo: &impl Clusterer) -> u64 {
    algo.elm_stats().map_or(0, |s| s.samples_drawn)
}

fn exact_params(seed: u64) -> Params {
    Params::jaccard(0.3, 4)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(seed)
}

/// Run the full checkpoint-vs-rebuild comparison matrix.
pub fn run_checkpoint_vs_rebuild(config: &CheckpointBenchConfig) -> Vec<CheckpointBenchRow> {
    vec![
        // Headline: DynStrClu at ρ = 0.25 with the estimator on — the
        // ≥ 5× acceptance bar applies to every DynStrClu row.
        compare(config, "DynStrClu", "rho0.25", || {
            DynStrClu::new(rho025_params(config.seed))
        }),
        compare(config, "DynStrClu", "exact-rho0", || {
            DynStrClu::new(exact_params(config.seed))
        }),
        compare(config, "DynELM", "rho0.25", || {
            DynElm::new(rho025_params(config.seed))
        }),
        compare(config, "pSCAN-like", "exact", || {
            ExactDynScan::jaccard(0.3, 4)
        }),
    ]
}

/// One tiered-memory measurement: the same workload replayed at one
/// hot-tier budget setting.
#[derive(Clone, Debug)]
pub struct TieredMemoryRow {
    /// The budget label: `"none"`, `"ample"` or `"tiny"`.
    pub label: &'static str,
    /// The configured hot-tier budget in bytes (0 = unbudgeted).
    pub budget_bytes: usize,
    /// Wall-clock seconds to replay the full workload.
    pub replay_secs: f64,
    /// Hot-tier resident bytes at the end of the replay.
    pub resident_hot_bytes: usize,
    /// Cold-arena bytes at the end of the replay.
    pub cold_bytes: usize,
    /// Kernel bitset-summary bytes (reported separately per the
    /// memory-footprint fix).
    pub summary_bytes: usize,
    /// Tier promotions over the replay.
    pub promotions: u64,
    /// Tier demotions over the replay.
    pub demotions: u64,
    /// Whether this run's final checkpoint equals the unbudgeted run's.
    pub bytes_identical: bool,
}

/// Replay the bench workload on DynStrClu (ρ = 0.25) at three budget
/// settings — unbudgeted, ample (never demotes) and tiny (heavily
/// cold) — and report residency, tier traffic and byte-identity.  The
/// bench binary gates: tiny stays under its budget with real cold
/// state, ample never demotes and stays within noise of unbudgeted
/// (the hot-path regression gate), and all three end byte-identical.
pub fn run_tiered_memory(config: &CheckpointBenchConfig) -> Vec<TieredMemoryRow> {
    const TINY_BUDGET: usize = 64 * 1024;
    let (initial, warmup, _) = make_workload(config);
    let initial_inserts: Vec<GraphUpdate> = initial
        .iter()
        .map(|&(u, v)| GraphUpdate::Insert(u, v))
        .collect();
    let settings: [(&'static str, Option<usize>); 3] = [
        ("none", None),
        ("ample", Some(usize::MAX / 2)),
        ("tiny", Some(TINY_BUDGET)),
    ];
    let mut reference_bytes: Option<Vec<u8>> = None;
    let mut rows = Vec::new();
    for (label, budget) in settings {
        let mut live = DynStrClu::new(rho025_params(config.seed));
        live.set_memory_budget(budget);
        let (replay_secs, ()) = time(|| {
            for chunk in initial_inserts.chunks(1024) {
                live.apply_batch(chunk);
            }
            for batch in &warmup {
                live.apply_batch(batch);
            }
        });
        let bytes = live.checkpoint_bytes();
        let bytes_identical = match &reference_bytes {
            None => {
                reference_bytes = Some(bytes);
                true
            }
            Some(reference) => *reference == bytes,
        };
        let graph = live.graph();
        let breakdown = graph.memory_breakdown();
        let (promotions, demotions) = graph.tier_counters();
        rows.push(TieredMemoryRow {
            label,
            budget_bytes: budget.unwrap_or(0),
            replay_secs,
            resident_hot_bytes: graph.resident_hot_bytes(),
            cold_bytes: breakdown.cold_bytes,
            summary_bytes: breakdown.summary_bytes,
            promotions,
            demotions,
            bytes_identical,
        });
    }
    rows
}

/// Human-readable table of the tiered-memory rows.
pub fn tiered_rows_to_table(rows: &[TieredMemoryRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<7} {:>12} {:>10} {:>10} {:>10} {:>9} {:>8} {:>8} {:>9}",
        "budget",
        "bytes",
        "replay s",
        "hot KiB",
        "cold KiB",
        "summ KiB",
        "promote",
        "demote",
        "identical"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<7} {:>12} {:>10.3} {:>10.1} {:>10.1} {:>9.1} {:>8} {:>8} {:>9}",
            row.label,
            row.budget_bytes,
            row.replay_secs,
            row.resident_hot_bytes as f64 / 1024.0,
            row.cold_bytes as f64 / 1024.0,
            row.summary_bytes as f64 / 1024.0,
            row.promotions,
            row.demotions,
            row.bytes_identical,
        );
    }
    out
}

/// Render rows as the `BENCH_checkpoint.json` document (hand-rolled JSON —
/// the vendored serde is a marker stub).
pub fn checkpoint_rows_to_json(
    config: &CheckpointBenchConfig,
    rows: &[CheckpointBenchRow],
    delta_rows: &[DeltaBenchRow],
    tiered_rows: &[TieredMemoryRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"checkpoint_vs_rebuild\",\n");
    out.push_str("  \"command\": \"cargo bench -p dynscan-bench --bench checkpoint_restore\",\n");
    let _ = writeln!(out, "  \"num_vertices\": {},", config.num_vertices);
    let _ = writeln!(out, "  \"initial_edges\": {},", config.initial_edges);
    let _ = writeln!(
        out,
        "  \"warmup_updates\": {},",
        config.warmup_batches * config.batch_size
    );
    let _ = writeln!(
        out,
        "  \"continuation_updates\": {},",
        config.continuation_batches * config.batch_size
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"algorithm\": \"{}\", \"mode\": \"{}\", \"edges\": {}, \
             \"samples_drawn\": {}, \"snapshot_bytes\": {}, \"checkpoint_secs\": {:.6}, \
             \"restore_secs\": {:.6}, \"rebuild_secs\": {:.6}, \"restore_speedup\": {:.2}, \
             \"bit_identical\": {}}}",
            row.algorithm,
            row.mode,
            row.edges,
            row.samples_drawn,
            row.snapshot_bytes,
            row.checkpoint_secs,
            row.restore_secs,
            row.rebuild_secs,
            row.restore_speedup,
            row.bit_identical,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"delta_rows\": [\n");
    for (i, row) in delta_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"algorithm\": \"{}\", \"mode\": \"{}\", \"edges\": {}, \
             \"samples_drawn\": {}, \"churn_updates\": {}, \"churn_fraction\": {:.4}, \
             \"full_bytes\": {}, \"delta_bytes\": {}, \"size_ratio\": {:.2}, \
             \"full_secs\": {:.6}, \"delta_secs\": {:.6}, \"time_ratio\": {:.2}, \
             \"chain_identical\": {}}}",
            row.algorithm,
            row.mode,
            row.edges,
            row.samples_drawn,
            row.churn_updates,
            row.churn_fraction,
            row.full_bytes,
            row.delta_bytes,
            row.size_ratio,
            row.full_secs,
            row.delta_secs,
            row.time_ratio,
            row.chain_identical,
        );
        out.push_str(if i + 1 < delta_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"tiered_memory\": [\n");
    for (i, row) in tiered_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"budget\": \"{}\", \"budget_bytes\": {}, \"replay_secs\": {:.6}, \
             \"resident_hot_bytes\": {}, \"cold_bytes\": {}, \"summary_bytes\": {}, \
             \"promotions\": {}, \"demotions\": {}, \"bytes_identical\": {}}}",
            row.label,
            row.budget_bytes,
            row.replay_secs,
            row.resident_hot_bytes,
            row.cold_bytes,
            row.summary_bytes,
            row.promotions,
            row.demotions,
            row.bytes_identical,
        );
        out.push_str(if i + 1 < tiered_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table of the rows.
pub fn checkpoint_rows_to_table(rows: &[CheckpointBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<10} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "algorithm",
        "mode",
        "edges",
        "samples",
        "snap KiB",
        "ckpt ms",
        "restore ms",
        "rebuild ms",
        "speedup",
        "identical"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<11} {:<10} {:>7} {:>8} {:>10.1} {:>10.2} {:>10.2} {:>10.2} {:>8.1}x {:>9}",
            row.algorithm,
            row.mode,
            row.edges,
            row.samples_drawn,
            row.snapshot_bytes as f64 / 1024.0,
            row.checkpoint_secs * 1e3,
            row.restore_secs * 1e3,
            row.rebuild_secs * 1e3,
            row.restore_speedup,
            row.bit_identical,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_is_bit_identical_and_fast_to_restore() {
        let config = CheckpointBenchConfig::quick();
        let row = compare(&config, "DynStrClu", "rho0.25", || {
            DynStrClu::new(rho025_params(config.seed))
        });
        assert!(
            row.bit_identical,
            "restored DynStrClu must resume bit-identically"
        );
        assert!(row.snapshot_bytes > 0);
        assert!(row.restore_secs > 0.0 && row.rebuild_secs > 0.0);
        // The ≥ 5× acceptance bar is asserted by the release-mode
        // `checkpoint_restore` bench; under the unoptimised test profile
        // the codec's per-byte overhead is inflated, so this smoke test
        // only requires restore to win at all.
        assert!(
            row.restore_speedup > 1.0,
            "restore must beat rebuild even at smoke scale, got {:.1}×",
            row.restore_speedup
        );
    }

    #[test]
    fn exact_baseline_row_is_bit_identical() {
        let config = CheckpointBenchConfig::quick();
        let row = compare(&config, "pSCAN-like", "exact", || {
            ExactDynScan::jaccard(0.3, 4)
        });
        assert!(row.bit_identical);
        assert_eq!(row.samples_drawn, 0);
    }

    #[test]
    fn json_export_shape() {
        let config = CheckpointBenchConfig::quick();
        let rows = vec![compare(&config, "DynELM", "rho0.25", || {
            DynElm::new(rho025_params(config.seed))
        })];
        let delta_rows = vec![compare_delta(&config, "DynELM", "rho0.25", || {
            DynElm::new(rho025_params(config.seed))
        })];
        let tiered_rows = run_tiered_memory(&config);
        let json = checkpoint_rows_to_json(&config, &rows, &delta_rows, &tiered_rows);
        assert!(json.contains("\"benchmark\": \"checkpoint_vs_rebuild\""));
        assert!(json.contains("\"restore_speedup\""));
        assert!(json.contains("\"mode\": \"rho0.25\""));
        assert!(json.contains("\"samples_drawn\": "));
        assert!(json.contains("\"delta_rows\""));
        assert!(json.contains("\"chain_identical\": true"));
        assert!(json.contains("\"tiered_memory\""));
        assert!(json.contains("\"bytes_identical\": true"));
        assert!(json.trim_end().ends_with('}'));
        let table = checkpoint_rows_to_table(&rows);
        assert!(table.contains("DynELM"));
        let delta_table = delta_rows_to_table(&delta_rows);
        assert!(delta_table.contains("delta KiB"));
        let tiered_table = tiered_rows_to_table(&tiered_rows);
        assert!(tiered_table.contains("cold KiB"));
    }

    #[test]
    fn quick_delta_chain_is_identical_and_smaller() {
        let config = CheckpointBenchConfig::quick();
        let row = compare_delta(&config, "DynStrClu", "rho0.25", || {
            DynStrClu::new(rho025_params(config.seed))
        });
        assert!(
            row.chain_identical,
            "base + delta must replay to the live state"
        );
        assert!(
            row.delta_bytes < row.full_bytes,
            "a one-burst delta must be smaller than the full snapshot \
             ({} vs {} bytes)",
            row.delta_bytes,
            row.full_bytes
        );
        // The ≥ 5× / ≥ 3× acceptance bars are asserted by the
        // release-mode `checkpoint_restore` bench; the unoptimised test
        // profile only smoke-checks that the delta wins at all.
        assert!(row.size_ratio > 1.0 && row.time_ratio > 0.0);
    }
}
