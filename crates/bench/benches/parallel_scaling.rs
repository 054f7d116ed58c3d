//! Parallel execution-layer scaling benchmark: the batch engine on the
//! persistent pool with sharded aux maintenance, across threads × batch
//! size, with byte-identity enforced.  Prints the comparison table; the
//! full-scale run also exports `BENCH_parallel.json` at the workspace
//! root (`--quick` smoke runs leave the committed record alone).
//!
//! ```text
//! cargo bench -p dynscan-bench --bench parallel_scaling
//! ```

use dynscan_bench::{
    kernel_rows_to_table, kernel_vs_scalar_geomean, parallel_report_json, parallel_rows_to_table,
    run_concurrent_reads, run_kernel_comparison, run_parallel_scaling, write_bench_record,
    KernelBenchRow, ParallelBenchConfig,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        ParallelBenchConfig::quick()
    } else {
        ParallelBenchConfig::default_scale()
    };
    eprintln!(
        "parallel_scaling: n = {}, m0 = {}, {} bursts, batch sizes {:?}, threads {:?}",
        config.num_vertices,
        config.initial_edges,
        config.batches,
        config.batch_sizes,
        config.thread_counts
    );
    let rows = run_parallel_scaling(&config);
    print!("{}", parallel_rows_to_table(&rows));

    // The acceptance bar: at ≥ 4 threads on the bursty sampled workload,
    // the pooled + sharded engine beats its own 1-thread run by at least
    // 1.5×.  Parallel wall-clock speedup needs parallel hardware,
    // so the bar is enforced on the full-scale run on hosts with ≥ 4
    // cores; on smaller hosts (and the quick CI smoke run) the sweep
    // still runs and byte-identity is still enforced, and the JSON
    // records `host_parallelism` so readers can interpret the ratios.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let best = rows
        .iter()
        .filter(|r| r.mode == "sampled" && r.threads >= 4)
        .map(|r| r.speedup_vs_one_thread)
        .fold(f64::NAN, f64::max);
    if !quick && host_parallelism >= 4 {
        assert!(
            best >= 1.5,
            "the batch engine must be ≥ 1.5× over 1 thread at ≥ 4 threads \
             on the bursty sampled workload (best observed: {best:.2}×)"
        );
    } else {
        eprintln!(
            "speedup bar not enforced (quick = {quick}, host parallelism = \
             {host_parallelism}); best speedup over 1 thread at ≥ 4 threads: {best:.2}×"
        );
    }

    // Kernel sweep: scalar vs adaptive intersection kernel, same
    // process, byte-identity enforced inside the runner.  The bar —
    // adaptive ≥ 1.3× scalar (geomean) on the hub-heavy workload —
    // needs a quiet multi-core host to be meaningful, so it follows the
    // same ≥ 4-core rule as the speedup bar; everywhere else the sweep
    // still runs and a generous sanity bound catches an outright
    // regression (on hosts where the summaries never pay off, adaptive
    // degrades to near-parity, not to a slowdown).
    let kernel_rows = run_kernel_comparison(&config);
    print!("{}", kernel_rows_to_table(&kernel_rows));
    let hub_rows: Vec<KernelBenchRow> = kernel_rows
        .iter()
        .filter(|r| r.workload == "hub-heavy")
        .cloned()
        .collect();
    let hub_geomean = kernel_vs_scalar_geomean(&hub_rows).expect("paired hub-heavy rows");
    let all_geomean = kernel_vs_scalar_geomean(&kernel_rows).expect("paired kernel rows");
    eprintln!(
        "adaptive vs scalar kernel: hub-heavy {hub_geomean:.3}x, all workloads {all_geomean:.3}x"
    );
    if !quick && host_parallelism >= 4 {
        assert!(
            hub_geomean >= 1.3,
            "adaptive kernel must be ≥ 1.3× over scalar on the hub-heavy workload \
             (observed: {hub_geomean:.3}×)"
        );
    } else {
        eprintln!(
            "kernel bar not enforced (quick = {quick}, host parallelism = {host_parallelism})"
        );
    }
    assert!(
        all_geomean >= 0.7,
        "adaptive kernel regressed outright vs scalar: {all_geomean:.3}x geomean"
    );

    // Snapshot-epoch concurrent reads: the writer replays the hub-heavy
    // stream while readers query the published epoch.  Readers must
    // make progress with bounded worst-case latency, and on multi-core
    // hosts the writer must stay within 5% of its reader-free
    // throughput (the readers never take the engine lock).  On a 1-core
    // container readers and writer time-share one CPU, so the ratio
    // measures the scheduler, not the lock — recorded, not gated.
    let concurrent = run_concurrent_reads(&config, 3);
    eprintln!(
        "concurrent reads: {} readers, writer {:.0} -> {:.0} ops/s (ratio {:.3}), \
         {:.0} reads/s, max read latency {} µs",
        concurrent.readers,
        concurrent.writer_only_ops,
        concurrent.writer_with_readers_ops,
        concurrent.writer_throughput_ratio,
        concurrent.reads_per_sec,
        concurrent.max_read_latency_micros
    );
    assert!(
        concurrent.reads_total > 0,
        "readers made no progress while the writer ran"
    );
    if !quick && host_parallelism >= 4 {
        assert!(
            concurrent.writer_throughput_ratio >= 0.95,
            "lock-free readers slowed the writer by more than 5%: ratio {:.3}",
            concurrent.writer_throughput_ratio
        );
        assert!(
            concurrent.max_read_latency_micros < 1_000_000,
            "a reader stalled for ≥ 1 s: {} µs",
            concurrent.max_read_latency_micros
        );
    } else {
        eprintln!(
            "writer-isolation bar not enforced (quick = {quick}, host parallelism = \
             {host_parallelism})"
        );
    }

    let json = parallel_report_json(&config, &rows, &kernel_rows, Some(&concurrent));
    write_bench_record("BENCH_parallel.json", &json, quick);
}
