//! The batch update engine's throughput benchmark: replay one bursty
//! stream per-update and batched, verify byte-identity of the clusterings,
//! print the comparison table and, on full-scale runs, export
//! `BENCH_batch.json` at the workspace root.
//!
//! ```text
//! cargo bench -p dynscan-bench --bench batch_throughput
//! ```

use dynscan_bench::{
    rows_to_json, rows_to_table, run_batch_throughput, write_bench_record, BatchBenchConfig,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        BatchBenchConfig::quick()
    } else {
        BatchBenchConfig::default_scale()
    };
    eprintln!(
        "batch_throughput: n = {}, m0 = {}, {} bursts (default batch {} updates)",
        config.num_vertices, config.initial_edges, config.batches, config.batch_size
    );
    let rows = run_batch_throughput(&config);
    print!("{}", rows_to_table(&rows));

    // The exact-ρ0 configurations must be byte-identical by construction;
    // fail loudly if the engine ever breaks that.
    for row in &rows {
        if row.mode == "exact-rho0" || row.mode == "exact" {
            assert!(
                row.identical_clustering,
                "{} ({}) batched clustering diverged from sequential",
                row.algorithm, row.mode
            );
        }
    }

    write_bench_record("BENCH_batch.json", &rows_to_json(&config, &rows), quick);
}
