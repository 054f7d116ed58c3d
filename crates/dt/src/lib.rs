//! # dynscan-dt
//!
//! Simulation of the Distributed Tracking (DT) protocol (Section 2.4 of the
//! paper) and its heap-organised, shared-counter deployment (Section 5.2).
//!
//! One DT *instance* is created per graph edge: the edge is the coordinator,
//! its two endpoints are the participants, and the tracking threshold is the
//! edge's update affordability `τ(u, v)`.  The coordinator must report
//! *maturity* exactly when the total number of affecting updates reaches
//! `τ(u, v)`, at which point the clustering layer relabels the edge and
//! restarts the instance.
//!
//! Implementing the instances naively would require incrementing one counter
//! per incident edge on every update — Ω(d\[u\]) work.  Instead, following
//! Section 5.2:
//!
//! * every vertex `u` keeps a single **shared counter** `s_u` counting the
//!   affecting updates incident on `u`;
//! * every participant's next check-in is a **shifted checkpoint**
//!   `ĉ_u(u,v) = s_u(v) + λ(u,v)`, stored in a per-vertex ordered structure
//!   ([`DtHeap`]) keyed by the checkpoint;
//! * an update only touches the heap entries whose checkpoint equals the new
//!   `s_u` (the *checkpoint-ready* entries), so the per-update work is
//!   proportional to the number of signals the DT protocol itself sends —
//!   O(log τ) messages per instance over its lifetime.
//!
//! The clustering layer increments the counters of every update in a
//! batch (a single update is a batch of one), then drains the touched
//! vertices once with [`DtRegistry::drain_ready_batch`], the one drain.
//! The module deliberately knows nothing about similarities or labels: it
//! reports which edges matured and the clustering layer decides what to do.

// No unsafe anywhere in this crate — enforced, not aspirational.
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod heap;
pub mod registry;

pub use coordinator::{Coordinator, CoordinatorState, SignalOutcome};
pub use heap::{DtHeap, ParticipantEntry};
pub use registry::DtRegistry;

/// Number of participants of every DT instance (an edge has two endpoints).
pub const PARTICIPANTS: u64 = 2;

/// Threshold at or below which the protocol uses the straightforward
/// "report every increment" algorithm (`τ ≤ 4h`).
pub const SIMPLE_MODE_THRESHOLD: u64 = 4 * PARTICIPANTS;
