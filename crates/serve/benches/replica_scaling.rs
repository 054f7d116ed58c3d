//! Replica-scaling benchmark: read throughput at 0/1/2 read replicas
//! over real sockets, replication lag in checkpoint documents under a
//! write burst, and catch-up time after SIGKILLing a subscribing
//! `dynscan-served --primary` replica mid-stream.  Every row passes the byte-identity
//! gate (replica checksum == sequential oracle at the replica's epoch)
//! inside the harness — a divergent replica fails the bench, it does not
//! produce a number.
//!
//! Run with `--quick` for the CI smoke scale.  Full-scale runs write
//! `BENCH_replica.json` at the workspace root; quick runs leave it alone.

use dynscan_bench::{
    replica_rows_to_json, replica_rows_to_table, run_replica_scaling, write_bench_record,
    ReplicaBenchConfig,
};
use std::path::PathBuf;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut config = if quick {
        ReplicaBenchConfig::quick()
    } else {
        ReplicaBenchConfig::default_scale()
    };
    // Only this crate can resolve its own binary; the harness treats the
    // path as optional so the library test stays self-contained.
    config.served_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_dynscan-served")));

    eprintln!(
        "replica_scaling: sweeping {:?} replicas, {} readers x {} reads{}",
        config.replica_counts,
        config.readers,
        config.reads_per_reader,
        if quick { " (quick)" } else { "" },
    );
    let rows = run_replica_scaling(&config);
    print!("{}", replica_rows_to_table(&rows));

    for row in &rows {
        // Liveness floors: the gates inside the harness prove
        // correctness; these prove the sweep actually measured something.
        assert!(
            row.reads_per_sec >= 50.0,
            "implausibly low read throughput at {} replicas: {:.1}/s",
            row.replicas,
            row.reads_per_sec
        );
        if row.replicas > 0 {
            let catchup = row
                .catchup_ms
                .expect("bench always measures catch-up when replicas exist");
            assert!(
                catchup < 60_000,
                "catch-up after SIGKILL took {catchup} ms at {} replicas",
                row.replicas
            );
        }
    }

    write_bench_record(
        "BENCH_replica.json",
        &replica_rows_to_json(&config, &rows),
        quick,
    );
}
