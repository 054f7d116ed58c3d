//! The batch update engine through the `Session` facade: stream bursty
//! traffic with auto-batching, and confirm the result matches
//! one-at-a-time processing.
//!
//! ```text
//! cargo run --release --example batch_updates
//! ```

use dynscan::core::{AutoBatchPolicy, Backend, GraphUpdate, Params, Session};
use dynscan::workload::{erdos_renyi, BurstyStream, BurstyStreamConfig};

fn build_session(
    policy: AutoBatchPolicy,
    initial: &[(dynscan::graph::VertexId, dynscan::graph::VertexId)],
) -> Session {
    // Exact labels with ρ = 0: batched and sequential processing are
    // provably state-identical, so the comparison below must come out even.
    let params = Params::jaccard(0.3, 4).with_rho(0.0).with_exact_labels();
    let mut session = Session::builder()
        .backend(Backend::DynStrClu)
        .params(params)
        .auto_batch(policy)
        .build()
        .expect("DynStrClu is always available");
    for &(u, v) in initial {
        session.apply(GraphUpdate::Insert(u, v)).unwrap();
    }
    session
}

fn main() {
    let initial = erdos_renyi(500, 1500, 7);
    let config = BurstyStreamConfig::new(500, 128)
        .with_hotspot_size(12)
        .with_hotspot_bias(0.8)
        .with_eta(0.2)
        .with_seed(42);
    let batches = BurstyStream::new(&initial, config).take_batches(20);

    // Streamed ingestion: the session buffers pushed updates and flushes
    // through the batch engine whenever 128 accumulate.
    let mut batched = build_session(AutoBatchPolicy::Size(128), &initial);
    let mut total_flips = 0usize;
    for batch in &batches {
        total_flips += batched.extend(batch.iter().copied()).len();
    }
    total_flips += batched.flush().len();

    // The same stream, one update at a time.
    let mut sequential = build_session(AutoBatchPolicy::Manual, &initial);
    for batch in &batches {
        for &update in batch {
            let _ = sequential.apply(update);
        }
    }

    let stats = batched.stats().expect("DynStrClu keeps work counters");
    println!(
        "ingested {} bursts ({} updates) in {} session flushes",
        batches.len(),
        batches.iter().map(Vec::len).sum::<usize>(),
        batched.flushes(), // the initial inserts go through `apply`, not the buffer
    );
    println!("net label flips across bursts: {total_flips}");
    println!(
        "estimator invocations: {} (sequential run: {})",
        stats.labellings,
        sequential.stats().expect("same backend").labellings,
    );

    let a = batched.clustering().clone();
    let b = sequential.clustering();
    assert_eq!(a.num_clusters(), b.num_clusters());
    for v in 0..a.num_vertices() as u32 {
        let v = dynscan::graph::VertexId(v);
        assert_eq!(a.role(v), b.role(v), "role mismatch at {v}");
    }
    println!(
        "batched == sequential: {} clusters, {} cores, {} hubs, {} noise — identical",
        a.num_clusters(),
        a.num_core(),
        a.num_hubs(),
        a.num_noise()
    );
}
