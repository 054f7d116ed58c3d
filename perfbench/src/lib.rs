//! # perfbench
//!
//! The end-to-end benchmark of the `dynscan-serve` clustering service.
//!
//! Each run starts a [`dynscan_serve::Server`] inside this process,
//! preloads a seeded planted-community graph over the wire, and drives
//! it from two closed-loop client threads (one `Client` connection
//! each, no think time) for the requested seconds.  Every run ends with
//! a correctness gate ([`run`]): the final epoch and edge count match
//! the generator, queues are empty, an in-process replay of the
//! acknowledged order reproduces the server's state checksum, a final
//! `GroupBy` over all vertices satisfies the sandwich guarantee against
//! the static baseline, and a durable drain checkpoint covers every
//! acknowledged update.
//!
//! Untraced runs report end-to-end metrics.  Traced runs repeat the
//! served workload with client spans on and replay its acknowledged
//! order in-process, timing the public calls of each layer from this
//! crate ([`replay`]), and report per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload write-2k --seed 1 --seconds 25 --trace 0
//! ```

pub mod drive;
pub mod gate;
pub mod gen;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
