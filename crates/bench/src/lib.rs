//! # dynscan-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 9), plus Criterion micro-benchmarks and the
//! ablation benches listed in DESIGN.md.
//!
//! The harness is exposed both as a library (so the Criterion benches and
//! the integration tests can reuse the runners) and as the `experiments`
//! binary:
//!
//! ```text
//! cargo run -p dynscan-bench --release --bin experiments -- table1
//! cargo run -p dynscan-bench --release --bin experiments -- fig8 --quick
//! cargo run -p dynscan-bench --release --bin experiments -- all --quick
//! ```
//!
//! Absolute numbers differ from the paper (the datasets are scaled-down
//! synthetic stand-ins and the machine is a laptop, not a 1 TB Xeon box);
//! the harness is built to reproduce the *shape* of every result: which
//! algorithm wins, by how many orders of magnitude, and how the curves move
//! with ε, η, ρ and |Q|.

// No unsafe anywhere in this crate — enforced, not aspirational.
#![forbid(unsafe_code)]

pub mod batch;
pub mod experiments;
pub mod export;
pub mod parallel;
pub mod replica;
pub mod runner;
pub mod scale;
pub mod serve;
pub mod snapshot;

pub use batch::{
    clustering_fingerprint, rows_to_json, rows_to_table, run_batch_throughput, BatchBenchConfig,
    BatchBenchRow,
};
pub use parallel::{
    kernel_rows_to_table, kernel_vs_scalar_geomean, parallel_report_json, parallel_rows_to_json,
    parallel_rows_to_table, run_concurrent_reads, run_kernel_comparison, run_parallel_scaling,
    ConcurrentReadReport, KernelBenchRow, ParallelBenchConfig, ParallelBenchRow,
};
pub use replica::{
    replica_rows_to_json, replica_rows_to_table, run_replica_scaling, ReplicaBenchConfig,
    ReplicaBenchRow,
};
pub use runner::{run_updates, RunOutcome};
pub use scale::Scale;
pub use serve::{
    run_serve_throughput, serve_rows_to_json, serve_rows_to_table, ServeBenchConfig, ServeBenchRow,
};
pub use snapshot::{
    checkpoint_rows_to_json, checkpoint_rows_to_table, delta_rows_to_table,
    run_checkpoint_vs_rebuild, run_delta_vs_full, run_tiered_memory, tiered_rows_to_table,
    CheckpointBenchConfig, CheckpointBenchRow, DeltaBenchRow, TieredMemoryRow,
};

/// Write a bench's JSON record to `file_name` at the workspace root —
/// on full-scale runs only.  `--quick` smoke runs print their tables but
/// leave the committed full-scale record untouched.
pub fn write_bench_record(file_name: &str, json: &str, quick: bool) {
    if quick {
        eprintln!("quick run: {file_name} left untouched");
        return;
    }
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name);
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
    eprintln!("wrote {}", out_path.display());
}
