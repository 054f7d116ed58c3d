//! Parallel-scaling experiment for the execution layer: the batch
//! engine (`apply_batch` loop) on the persistent work-stealing pool,
//! with sharded aux maintenance, across threads × batch size × labelling
//! mode.
//!
//! Every thread count replays the *same* bursty stream with the same
//! batch boundaries, and each row's throughput is reported relative to
//! the cell's first (1-thread) row.  Every run's final clustering must
//! serialise to identical bytes — the thread count is a performance
//! choice, never a semantic one — and the run panics if that ever fails.

use crate::batch::clustering_fingerprint;
use dynscan_core::{Backend, DynStrClu, ExecPool, Params, Session};
use dynscan_graph::kernel::{self, KernelMode};
use dynscan_graph::{GraphUpdate, VertexId};
use dynscan_workload::{chung_lu_power_law, BurstyStream, BurstyStreamConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Configuration of one parallel-scaling sweep.
#[derive(Clone, Debug)]
pub struct ParallelBenchConfig {
    /// Vertices of the synthetic dataset.
    pub num_vertices: usize,
    /// Edges of the initial (pre-loaded, untimed) graph.
    pub initial_edges: usize,
    /// Scales the timed region: every row replays
    /// `batches × max(batch_sizes)` total updates, so the burst *count*
    /// per row is this value only for the largest batch size and
    /// proportionally more for smaller ones (equal wall-clock scale per
    /// row).
    pub batches: usize,
    /// Burst sizes to sweep.
    pub batch_sizes: Vec<usize>,
    /// Worker-thread counts to sweep.
    pub thread_counts: Vec<usize>,
    /// Seed for graph and stream generation.
    pub seed: u64,
}

impl ParallelBenchConfig {
    /// The default measurement scale.
    pub fn default_scale() -> Self {
        ParallelBenchConfig {
            num_vertices: 2_000,
            initial_edges: 8_000,
            batches: 16,
            batch_sizes: vec![64, 256, 1024],
            thread_counts: vec![1, 2, 4, 8],
            seed: 0x009a_11e1 ^ 0x5eed,
        }
    }

    /// A smoke-test scale for CI.
    pub fn quick() -> Self {
        ParallelBenchConfig {
            num_vertices: 400,
            initial_edges: 1_200,
            batches: 8,
            batch_sizes: vec![128],
            thread_counts: vec![1, 4],
            seed: 99,
        }
    }
}

/// One measured row: a (backend, labelling mode, batch size, threads)
/// cell.
#[derive(Clone, Debug)]
pub struct ParallelBenchRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Labelling mode: `"sampled"` or `"exact-rho0"`.
    pub mode: &'static str,
    /// Updates per burst.
    pub batch_size: usize,
    /// Worker threads.
    pub threads: usize,
    /// Total timed updates.
    pub updates: usize,
    /// Wall-clock seconds of the timed replay (best of two).
    pub secs: f64,
    /// Updates per second.
    pub ops: f64,
    /// Throughput relative to the first thread count of the same
    /// (backend, mode, batch size) cell — 1 thread in both shipped
    /// configs, so 1.0 for the 1-thread rows themselves.
    pub speedup_vs_one_thread: f64,
    /// Whether the final clustering matched the group's reference
    /// fingerprint (must always be true).
    pub identical_clustering: bool,
}

fn make_batches(config: &ParallelBenchConfig, batch_size: usize) -> Vec<Vec<GraphUpdate>> {
    let initial = chung_lu_power_law(config.num_vertices, config.initial_edges, 2.3, config.seed);
    let stream_config = BurstyStreamConfig::new(config.num_vertices, batch_size)
        .with_hotspot_size(12)
        .with_hotspot_bias(0.85)
        .with_eta(0.25)
        .with_seed(config.seed ^ 0x00ff_00ff);
    let mut stream = BurstyStream::new(&initial, stream_config);
    // Same total update count per batch-size row.
    let total = config.batches * config.batch_sizes.iter().copied().max().unwrap_or(256);
    stream.take_batches((total / batch_size).max(1))
}

fn initial_pairs(config: &ParallelBenchConfig) -> Vec<(u32, u32)> {
    chung_lu_power_law(config.num_vertices, config.initial_edges, 2.3, config.seed)
        .iter()
        .map(|&(u, v)| (u.raw(), v.raw()))
        .collect()
}

/// Replay `batches` on a fresh DynStrClu with a dedicated pool of
/// `threads` workers; returns (timed seconds, final state fingerprint).
fn run_once(
    params: Params,
    initial: &[(u32, u32)],
    batches: &[Vec<GraphUpdate>],
    threads: usize,
) -> (f64, String) {
    let mut algo = DynStrClu::new(params);
    algo.set_exec_pool(ExecPool::with_threads(threads));
    for &(u, v) in initial {
        let _ = algo.insert_edge(u.into(), v.into());
    }
    let start = Instant::now();
    for batch in batches {
        algo.apply_batch(batch);
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, clustering_fingerprint(&algo.clustering()))
}

fn sampled_params(seed: u64) -> Params {
    Params::jaccard(0.3, 4).with_rho(0.25).with_seed(seed)
}

fn exact_params(seed: u64) -> Params {
    Params::jaccard(0.3, 4)
        .with_rho(0.0)
        .with_exact_labels()
        .with_seed(seed)
}

/// Run the sweep: threads × batch size × {sampled, exact} DynStrClu.
pub fn run_parallel_scaling(config: &ParallelBenchConfig) -> Vec<ParallelBenchRow> {
    let initial = initial_pairs(config);
    let mut rows = Vec::new();
    for (mode, params) in [
        ("sampled", sampled_params(config.seed)),
        ("exact-rho0", exact_params(config.seed)),
    ] {
        for &batch_size in &config.batch_sizes {
            let batches = make_batches(config, batch_size);
            let updates: usize = batches.iter().map(Vec::len).sum();
            let mut reference: Option<(f64, String)> = None;
            for &threads in &config.thread_counts {
                // Best of two: replays are deterministic, the spread is
                // machine noise.
                let (secs_a, fingerprint) = run_once(params, &initial, &batches, threads);
                let (secs_b, _) = run_once(params, &initial, &batches, threads);
                let secs = secs_a.min(secs_b);
                let (base_secs, base_fingerprint) =
                    reference.get_or_insert_with(|| (secs, fingerprint.clone()));
                let identical = *base_fingerprint == fingerprint;
                assert!(
                    identical,
                    "{mode}/{batch_size}/{threads} diverged from the reference clustering — \
                     the execution layer must be semantically inert"
                );
                rows.push(ParallelBenchRow {
                    algorithm: "DynStrClu",
                    mode,
                    batch_size,
                    threads,
                    updates,
                    secs,
                    ops: updates as f64 / secs.max(f64::EPSILON),
                    speedup_vs_one_thread: *base_secs / secs.max(f64::EPSILON),
                    identical_clustering: identical,
                });
            }
        }
    }
    rows
}

/// One kernel-comparison row: the same replay (workload, exact labels,
/// one worker) under one intersection-kernel mode.  Rows come in
/// scalar/adaptive pairs per workload, measured back to back in the
/// same process, so the ratio isolates the kernel's own effect.
#[derive(Clone, Debug)]
pub struct KernelBenchRow {
    /// `"hub-heavy"` (hub degrees far past the summary build threshold,
    /// where the bitset/gallop paths engage) or `"uniform"` (degrees
    /// mostly below it, where adaptive must simply not regress).
    pub workload: &'static str,
    /// `"scalar"` or `"adaptive"`.
    pub kernel: &'static str,
    /// Total timed updates.
    pub updates: usize,
    /// Wall-clock seconds of the timed replay (best of two).
    pub secs: f64,
    /// Updates per second.
    pub ops: f64,
    /// Whether the final clustering matched the workload's scalar
    /// reference fingerprint (must always be true — the kernel is a
    /// pure performance knob).
    pub identical_clustering: bool,
}

/// Initial edges and update batches for one kernel workload.  Both
/// share the bursty generator; `hub-heavy` additionally pre-grows four
/// hub vertices to ~n/3 neighbours and concentrates the stream on them.
fn kernel_workload(
    config: &ParallelBenchConfig,
    workload: &str,
) -> (Vec<(u32, u32)>, Vec<Vec<GraphUpdate>>) {
    let mut initial = initial_pairs(config);
    let n = config.num_vertices as u32;
    let (hotspot, bias) = if workload == "hub-heavy" {
        for h in 0..4u32 {
            for t in (0..n).step_by(3) {
                if t != h {
                    initial.push((h.min(t), h.max(t)));
                }
            }
        }
        (4, 0.95)
    } else {
        (config.num_vertices, 0.0)
    };
    let batch_size = config.batch_sizes.iter().copied().max().unwrap_or(256);
    let initial_v: Vec<(VertexId, VertexId)> = initial
        .iter()
        .map(|&(a, b)| (VertexId(a), VertexId(b)))
        .collect();
    let stream_config = BurstyStreamConfig::new(config.num_vertices, batch_size)
        .with_hotspot_size(hotspot)
        .with_hotspot_bias(bias)
        .with_eta(0.25)
        .with_seed(config.seed ^ 0x5ca1_ab1e);
    let mut stream = BurstyStream::new(&initial_v, stream_config);
    (initial, stream.take_batches(config.batches))
}

/// Replay one kernel workload under `mode` on a single worker with
/// exact labels (similarity work is all intersections, the quantity the
/// kernel accelerates); returns (timed seconds, state fingerprint).
/// The graph is *built* under the mode too, so summary construction
/// cost (adaptive) and its absence (scalar) are both measured.
fn run_kernel_once(
    params: Params,
    initial: &[(u32, u32)],
    batches: &[Vec<GraphUpdate>],
    mode: KernelMode,
) -> (f64, String) {
    kernel::set_mode(mode);
    let mut algo = DynStrClu::new(params);
    algo.set_exec_pool(ExecPool::with_threads(1));
    for &(u, v) in initial {
        let _ = algo.insert_edge(u.into(), v.into());
    }
    let start = Instant::now();
    for batch in batches {
        algo.apply_batch(batch);
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, clustering_fingerprint(&algo.clustering()))
}

/// The kernel sweep: {hub-heavy, uniform} × {scalar, adaptive}, exact
/// labels, one worker, byte-identity enforced within each workload.
/// Leaves the process-global kernel mode as it found it.
pub fn run_kernel_comparison(config: &ParallelBenchConfig) -> Vec<KernelBenchRow> {
    let params = exact_params(config.seed);
    let before = kernel::mode();
    let mut rows = Vec::new();
    for workload in ["hub-heavy", "uniform"] {
        let (initial, batches) = kernel_workload(config, workload);
        let updates: usize = batches.iter().map(Vec::len).sum();
        let mut reference_fingerprint: Option<String> = None;
        for (name, mode) in [
            ("scalar", KernelMode::Scalar),
            ("adaptive", KernelMode::Adaptive),
        ] {
            let (secs_a, fingerprint) = run_kernel_once(params, &initial, &batches, mode);
            let (secs_b, _) = run_kernel_once(params, &initial, &batches, mode);
            let secs = secs_a.min(secs_b);
            let reference = reference_fingerprint.get_or_insert_with(|| fingerprint.clone());
            let identical = *reference == fingerprint;
            assert!(
                identical,
                "{workload}/{name}: kernel mode changed the clustering — it must be a \
                 pure performance knob"
            );
            rows.push(KernelBenchRow {
                workload,
                kernel: name,
                updates,
                secs,
                ops: updates as f64 / secs.max(f64::EPSILON),
                identical_clustering: identical,
            });
        }
    }
    kernel::set_mode(before);
    rows
}

/// The kernel guard: geometric mean, over every workload measured under
/// both kernel modes, of adaptive ops over scalar ops.  Filter the rows
/// to one workload first to gate that workload alone (the acceptance
/// bar applies to `hub-heavy`; `uniform` only feeds the no-regression
/// sanity bound).
pub fn kernel_vs_scalar_geomean(rows: &[KernelBenchRow]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut cells = 0usize;
    for ad in rows.iter().filter(|r| r.kernel == "adaptive") {
        let Some(sc) = rows
            .iter()
            .find(|r| r.kernel == "scalar" && r.workload == ad.workload)
        else {
            continue;
        };
        if ad.ops > 0.0 && sc.ops > 0.0 {
            log_sum += (ad.ops / sc.ops).ln();
            cells += 1;
        }
    }
    (cells > 0).then(|| (log_sum / cells as f64).exp())
}

/// Human-readable table of the kernel rows.
pub fn kernel_rows_to_table(rows: &[KernelBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<9} {:>8} {:>10} {:>12} {:>10}",
        "workload", "kernel", "updates", "secs", "ops/s", "identical"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<11} {:<9} {:>8} {:>10.4} {:>12.0} {:>10}",
            row.workload, row.kernel, row.updates, row.secs, row.ops, row.identical_clustering
        );
    }
    out
}

/// Outcome of the snapshot-epoch concurrent-read experiment: one writer
/// replaying the hub-heavy stream through a [`Session`] with epoch
/// publication enabled, first alone, then with reader threads hammering
/// group-by queries against the published
/// [`EpochSnapshot`](dynscan_core::EpochSnapshot) — no engine lock on
/// the read path, so the writer should barely notice them.
#[derive(Clone, Debug)]
pub struct ConcurrentReadReport {
    /// Reader threads in the concurrent phase.
    pub readers: usize,
    /// Timed writer updates per phase.
    pub updates: usize,
    /// Writer wall-clock with no readers (best of two).
    pub writer_only_secs: f64,
    /// Writer updates/s with no readers.
    pub writer_only_ops: f64,
    /// Writer wall-clock with `readers` concurrent readers.
    pub writer_with_readers_secs: f64,
    /// Writer updates/s with concurrent readers.
    pub writer_with_readers_ops: f64,
    /// `writer_with_readers_ops / writer_only_ops` — 1.0 means the
    /// readers were free; the acceptance bar holds it within 5% on
    /// multi-core hosts.
    pub writer_throughput_ratio: f64,
    /// Epoch-snapshot reads completed across all readers.
    pub reads_total: u64,
    /// Reads per second (over the writer's wall-clock).
    pub reads_per_sec: f64,
    /// Worst single load + group-by latency any reader observed.
    pub max_read_latency_micros: u64,
}

/// One writer phase: replay the batches through a session with epoch
/// reads enabled while `readers` threads query the published snapshot.
/// Returns (writer secs, total reads, max read latency µs).
fn concurrent_phase(
    params: Params,
    initial: &[(u32, u32)],
    batches: &[Vec<GraphUpdate>],
    readers: usize,
) -> (f64, u64, u64) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let mut session = Session::builder()
        .backend(Backend::DynStrClu)
        .params(params)
        .build()
        .expect("DynStrClu is always registered");
    let handle = session.enable_epoch_reads();
    let initial_updates: Vec<GraphUpdate> = initial
        .iter()
        .map(|&(a, b)| GraphUpdate::Insert(VertexId(a), VertexId(b)))
        .collect();
    session.apply_batch(&initial_updates);
    let stop = Arc::new(AtomicBool::new(false));
    let reader_threads: Vec<_> = (0..readers)
        .map(|_| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let query: Vec<VertexId> = (0..8).map(VertexId).collect();
                let mut reads = 0u64;
                let mut max_micros = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let start = Instant::now();
                    let snapshot = handle.load().expect("published before readers start");
                    std::hint::black_box(snapshot.group_by(&query));
                    max_micros = max_micros.max(start.elapsed().as_micros() as u64);
                    reads += 1;
                }
                (reads, max_micros)
            })
        })
        .collect();
    let start = Instant::now();
    for batch in batches {
        session.apply_batch(batch);
    }
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let mut reads_total = 0u64;
    let mut max_micros = 0u64;
    for thread in reader_threads {
        let (reads, max) = thread.join().expect("reader thread");
        reads_total += reads;
        max_micros = max_micros.max(max);
    }
    (secs, reads_total, max_micros)
}

/// Run the concurrent-read experiment on the hub-heavy workload with
/// sampled labels (the service-shaped write path).
pub fn run_concurrent_reads(config: &ParallelBenchConfig, readers: usize) -> ConcurrentReadReport {
    let (initial, batches) = kernel_workload(config, "hub-heavy");
    let updates: usize = batches.iter().map(Vec::len).sum();
    let params = sampled_params(config.seed);
    // Baseline: the writer alone (readers = 0), best of two.
    let (only_a, _, _) = concurrent_phase(params, &initial, &batches, 0);
    let (only_b, _, _) = concurrent_phase(params, &initial, &batches, 0);
    let writer_only_secs = only_a.min(only_b);
    let (with_secs, reads_total, max_micros) =
        concurrent_phase(params, &initial, &batches, readers);
    let writer_only_ops = updates as f64 / writer_only_secs.max(f64::EPSILON);
    let writer_with_readers_ops = updates as f64 / with_secs.max(f64::EPSILON);
    ConcurrentReadReport {
        readers,
        updates,
        writer_only_secs,
        writer_only_ops,
        writer_with_readers_secs: with_secs,
        writer_with_readers_ops,
        writer_throughput_ratio: writer_with_readers_ops / writer_only_ops.max(f64::EPSILON),
        reads_total,
        reads_per_sec: reads_total as f64 / with_secs.max(f64::EPSILON),
        max_read_latency_micros: max_micros,
    }
}

/// Render rows as the `BENCH_parallel.json` document (hand-rolled JSON —
/// the vendored serde is a marker stub).
pub fn parallel_rows_to_json(config: &ParallelBenchConfig, rows: &[ParallelBenchRow]) -> String {
    parallel_report_json(config, rows, &[], None)
}

/// The full `BENCH_parallel.json` document: the scaling rows plus the
/// kernel scalar/adaptive pairs and the snapshot-epoch concurrent-read
/// experiment, when those ran.
pub fn parallel_report_json(
    config: &ParallelBenchConfig,
    rows: &[ParallelBenchRow],
    kernel_rows: &[KernelBenchRow],
    concurrent: Option<&ConcurrentReadReport>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"parallel_scaling\",\n");
    out.push_str("  \"command\": \"cargo bench -p dynscan-bench --bench parallel_scaling\",\n");
    let _ = writeln!(out, "  \"num_vertices\": {},", config.num_vertices);
    let _ = writeln!(out, "  \"initial_edges\": {},", config.initial_edges);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(out, "  \"host_parallelism\": {host_parallelism},");
    if host_parallelism < 4 {
        let _ = writeln!(
            out,
            "  \"caveats\": \"host_parallelism = {host_parallelism} < 4: the speedup, \
             kernel-geomean and writer-isolation acceptance bars are not enforced on this \
             host; ratios near parity are expected where the win needs parallel hardware \
             or low scheduler noise\","
        );
    }
    if let Some(geomean) = kernel_vs_scalar_geomean(kernel_rows) {
        let _ = writeln!(out, "  \"kernel_vs_scalar_geomean\": {geomean:.3},");
    }
    if !kernel_rows.is_empty() {
        out.push_str("  \"kernel_rows\": [\n");
        for (i, row) in kernel_rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"kernel\": \"{}\", \"updates\": {}, \
                 \"secs\": {:.6}, \"ops\": {:.1}, \"identical_clustering\": {}}}",
                row.workload, row.kernel, row.updates, row.secs, row.ops, row.identical_clustering,
            );
            out.push_str(if i + 1 < kernel_rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
    }
    if let Some(report) = concurrent {
        let _ = writeln!(out, "  \"concurrent_reads\": {{");
        let _ = writeln!(out, "    \"readers\": {},", report.readers);
        let _ = writeln!(out, "    \"updates\": {},", report.updates);
        let _ = writeln!(
            out,
            "    \"writer_only_ops\": {:.1},",
            report.writer_only_ops
        );
        let _ = writeln!(
            out,
            "    \"writer_with_readers_ops\": {:.1},",
            report.writer_with_readers_ops
        );
        let _ = writeln!(
            out,
            "    \"writer_throughput_ratio\": {:.3},",
            report.writer_throughput_ratio
        );
        let _ = writeln!(out, "    \"reads_total\": {},", report.reads_total);
        let _ = writeln!(out, "    \"reads_per_sec\": {:.1},", report.reads_per_sec);
        let _ = writeln!(
            out,
            "    \"max_read_latency_micros\": {}",
            report.max_read_latency_micros
        );
        let _ = writeln!(out, "  }},");
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"algorithm\": \"{}\", \"mode\": \"{}\", \"batch_size\": {}, \
             \"threads\": {}, \"updates\": {}, \"secs\": {:.6}, \"ops\": {:.1}, \
             \"speedup_vs_one_thread\": {:.3}, \"identical_clustering\": {}}}",
            row.algorithm,
            row.mode,
            row.batch_size,
            row.threads,
            row.updates,
            row.secs,
            row.ops,
            row.speedup_vs_one_thread,
            row.identical_clustering,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table of the rows.
pub fn parallel_rows_to_table(rows: &[ParallelBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<10} {:>6} {:>8} {:>12} {:>9} {:>10}",
        "algorithm", "mode", "batch", "threads", "ops/s", "vs 1 thr", "identical"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<11} {:<10} {:>6} {:>8} {:>12.0} {:>8.2}x {:>10}",
            row.algorithm,
            row.mode,
            row.batch_size,
            row.threads,
            row.ops,
            row.speedup_vs_one_thread,
            row.identical_clustering,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_identical_across_thread_counts() {
        let config = ParallelBenchConfig::quick();
        let rows = run_parallel_scaling(&config);
        // 2 modes × 1 batch size × 2 thread counts.
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.identical_clustering));
        assert!(rows.iter().all(|r| r.updates > 0 && r.secs > 0.0));
        // The 1-thread rows anchor their cell at speedup 1.0.
        for row in rows.iter().filter(|r| r.threads == 1) {
            assert!((row.speedup_vs_one_thread - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn json_and_table_shapes() {
        let config = ParallelBenchConfig::quick();
        let rows = vec![ParallelBenchRow {
            algorithm: "DynStrClu",
            mode: "sampled",
            batch_size: 128,
            threads: 4,
            updates: 1024,
            secs: 0.5,
            ops: 2048.0,
            speedup_vs_one_thread: 1.7,
            identical_clustering: true,
        }];
        let json = parallel_rows_to_json(&config, &rows);
        assert!(json.contains("\"benchmark\": \"parallel_scaling\""));
        assert!(json.contains("\"speedup_vs_one_thread\": 1.700"));
        assert!(!json.contains("engine") && !json.contains("deque"));
        assert!(json.trim_end().ends_with('}'));
        let table = parallel_rows_to_table(&rows);
        assert!(table.contains("1.70x"));
    }

    #[test]
    fn kernel_comparison_is_paired_and_identical() {
        let config = ParallelBenchConfig::quick();
        let rows = run_kernel_comparison(&config);
        // 2 workloads × 2 kernel modes.
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.identical_clustering));
        assert!(rows.iter().all(|r| r.updates > 0 && r.secs > 0.0));
        let geomean = kernel_vs_scalar_geomean(&rows).expect("paired kernel rows");
        assert!(geomean.is_finite() && geomean > 0.0);
        // The hub-heavy pair alone also resolves (the acceptance bar's
        // filter shape).
        let hub: Vec<KernelBenchRow> = rows
            .iter()
            .filter(|r| r.workload == "hub-heavy")
            .cloned()
            .collect();
        assert!(kernel_vs_scalar_geomean(&hub).is_some());
        assert!(kernel_rows_to_table(&rows).contains("hub-heavy"));
    }

    #[test]
    fn concurrent_reads_report_is_sane() {
        let config = ParallelBenchConfig::quick();
        let report = run_concurrent_reads(&config, 2);
        assert_eq!(report.readers, 2);
        assert!(report.updates > 0);
        assert!(report.writer_only_ops > 0.0 && report.writer_with_readers_ops > 0.0);
        assert!(report.writer_throughput_ratio.is_finite());
        assert!(
            report.reads_total > 0,
            "readers must make progress while the writer runs"
        );
        assert!(report.reads_per_sec > 0.0);
    }

    #[test]
    fn full_report_json_carries_the_new_sections() {
        let config = ParallelBenchConfig::quick();
        let kernel_rows = vec![
            KernelBenchRow {
                workload: "hub-heavy",
                kernel: "scalar",
                updates: 1024,
                secs: 1.0,
                ops: 1024.0,
                identical_clustering: true,
            },
            KernelBenchRow {
                workload: "hub-heavy",
                kernel: "adaptive",
                updates: 1024,
                secs: 0.5,
                ops: 2048.0,
                identical_clustering: true,
            },
        ];
        let report = ConcurrentReadReport {
            readers: 2,
            updates: 1024,
            writer_only_secs: 1.0,
            writer_only_ops: 1024.0,
            writer_with_readers_secs: 1.02,
            writer_with_readers_ops: 1004.0,
            writer_throughput_ratio: 0.98,
            reads_total: 5000,
            reads_per_sec: 4900.0,
            max_read_latency_micros: 800,
        };
        let json = parallel_report_json(&config, &[], &kernel_rows, Some(&report));
        assert!(json.contains("\"kernel_vs_scalar_geomean\": 2.000"));
        assert!(json.contains("\"workload\": \"hub-heavy\""));
        assert!(json.contains("\"kernel\": \"adaptive\""));
        assert!(json.contains("\"concurrent_reads\": {"));
        assert!(json.contains("\"writer_throughput_ratio\": 0.980"));
        assert!(json.contains("\"max_read_latency_micros\": 800"));
        assert!(json.trim_end().ends_with('}'));
    }
}
