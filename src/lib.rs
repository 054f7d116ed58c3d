//! # dynscan
//!
//! Umbrella crate for the DynSCAN workspace — the Rust reproduction of
//! *Dynamic Structural Clustering on Graphs* (SIGMOD 2021) grown into a
//! batch-capable system.  It re-exports every sub-crate under one roof so
//! applications (and the repo-level examples and integration tests) can
//! depend on a single crate:
//!
//! * [`graph`] — dynamic graph substrate (`DynGraph`, `EdgeKey`, batches).
//! * [`sim`] — structural similarity: exact, sampled, deterministic
//!   per-edge estimation streams.
//! * [`conn`] — fully dynamic connectivity (HDT) over the sim-core graph.
//! * [`dt`] — distributed-tracking registry deciding *when* to relabel.
//! * [`core`] — `DynElm` / `DynStrClu`, the object-safe [`core::Clusterer`]
//!   engine trait (per-update and batch updates, clustering, group-by,
//!   checkpoint/restore) and the [`core::Session`] facade (streaming
//!   ingestion, query caching, automatic checkpointing).
//! * [`baseline`] — static SCAN plus pSCAN/hSCAN-style dynamic baselines;
//!   [`baseline::install`] registers the latter with the `Session`
//!   backend registry.
//! * [`metrics`] — clustering-quality and peak-memory measurements.
//! * [`workload`] — generators, update streams and bursty batched streams.
//! * [`bench`](mod@bench) — the experiment harness and batch-throughput
//!   benchmarks.
//! * [`serve`] — clustering-as-a-service: the crash-safe, backpressured
//!   TCP front-end over [`core::Session`] ([`serve::Server`] /
//!   [`serve::Client`], the `dynscan-served` binary) with its framed,
//!   checksummed wire protocol.  The same server runs as a read-only
//!   replica built on the checkpoint chain
//!   ([`serve::ServeConfig::replica_of`]): it tails a shared checkpoint
//!   directory or subscribes to the primary's replication stream, serves
//!   reads lock-free from the epoch it publishes per applied document,
//!   and pairs with epoch-floor-verified routing
//!   ([`serve::RoutedClient`]) and byte-identical promotion.

pub use dynscan_baseline as baseline;
pub use dynscan_bench as bench;
pub use dynscan_conn as conn;
pub use dynscan_core as core;
pub use dynscan_dt as dt;
pub use dynscan_graph as graph;
pub use dynscan_metrics as metrics;
pub use dynscan_serve as serve;
pub use dynscan_sim as sim;
pub use dynscan_workload as workload;
