//! Service-layer throughput benchmark: concurrent clients over real TCP
//! against one shared engine, in-memory vs durable (background
//! checkpoints + final drain checkpoint).  Prints the comparison table
//! and, on full-scale runs, exports `BENCH_serve.json` at the workspace
//! root.
//!
//! ```text
//! cargo bench -p dynscan-bench --bench serve_throughput
//! ```

use dynscan_bench::{
    run_serve_throughput, serve_rows_to_json, serve_rows_to_table, write_bench_record,
    ServeBenchConfig,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        ServeBenchConfig::quick()
    } else {
        ServeBenchConfig::default_scale()
    };
    eprintln!(
        "serve_throughput: {} updates/client, query every {}, clients {:?}",
        config.updates_per_client, config.query_every, config.client_counts
    );
    let rows = run_serve_throughput(&config);
    print!("{}", serve_rows_to_table(&rows));

    // The correctness gates (every update acknowledged, epoch identity,
    // drain checkpoint coverage) are enforced inside the runner; here the
    // bench only pins a liveness floor — the stack must actually move
    // requests, even on a loaded CI box.
    for row in &rows {
        assert!(
            row.ops >= 50.0,
            "service throughput collapsed: {} clients / {} moved {:.0} acks/s",
            row.clients,
            row.scenario,
            row.ops
        );
    }

    write_bench_record(
        "BENCH_serve.json",
        &serve_rows_to_json(&config, &rows),
        quick,
    );
}
