//! The hub fixture: a graph whose degrees exceed the sample size, so the
//! estimator really draws.  Shared by `sampled_labelling` and
//! `sandwich_guarantee`.
//!
//! Eight hubs are pairwise adjacent; each is adjacent to the same 592
//! shared leaves and to 300 private leaves of its own.  That is 7,164
//! edges, every hub has closed degree 900, and every hub–hub pair has
//! Jaccard similarity exactly 0.5.  At ε = 0.5, ρ = 0.9 and δ* = 0.5 the
//! sample size L = 2Δ⁻²·ln(2/δᵢ) (Δ = ½ρε) is 83 at the first labelling of
//! the run, 757 at the 7,164th, and first reaches the hub closed degree
//! near the 43,700th.  So the 28 hub–hub edges sample every time they are
//! (re)labelled here, with estimates landing on both sides of ε, while
//! every leaf edge takes the exact shortcut (L ≥ the leaf's closed
//! degree).

use dynscan_core::{GraphUpdate, Params, VertexId};

/// Pairwise-adjacent hubs.
pub const HUBS: u32 = 8;
/// Leaves adjacent to every hub.
const SHARED: u32 = 592;
/// Leaves adjacent to one hub each, per hub.
const PRIVATE: u32 = 300;
/// Private leaves per hub that the churn deletes and re-inserts.  Enough
/// for every hub–hub instance to mature at least once, few enough that the
/// run's labelling count stays far below the ~43,700 where L would reach
/// the hub closed degree and sampling would stop.
const CHURN_LEAVES: u32 = 120;
/// Batch sizes the churn cycles through.
const CHURN_SIZES: [usize; 7] = [1, 7, 64, 3, 128, 16, 40];

/// ε = 0.5, μ = 3, ρ = 0.9, δ* = 0.5.
pub fn params() -> Params {
    Params::jaccard(0.5, 3)
        .with_rho(0.9)
        .with_delta_star(0.5)
        .with_seed(0x5a3d)
}

fn shared_leaf(j: u32) -> VertexId {
    VertexId(HUBS + j)
}

fn private_leaf(hub: u32, j: u32) -> VertexId {
    VertexId(HUBS + SHARED + hub * PRIVATE + j)
}

/// The fixture's 7,164 edges, as insertions.
pub fn fixture_edges() -> Vec<GraphUpdate> {
    let mut edges = Vec::new();
    for h in 0..HUBS {
        for g in (h + 1)..HUBS {
            edges.push(GraphUpdate::Insert(VertexId(h), VertexId(g)));
        }
        for j in 0..SHARED {
            edges.push(GraphUpdate::Insert(VertexId(h), shared_leaf(j)));
        }
        for j in 0..PRIVATE {
            edges.push(GraphUpdate::Insert(VertexId(h), private_leaf(h, j)));
        }
    }
    edges
}

/// Delete and re-insert hub–private-leaf edges, cut into batches of mixed
/// sizes (a delete and its re-insert may land in different batches).
pub fn churn_batches() -> Vec<Vec<GraphUpdate>> {
    let mut updates = Vec::new();
    for j in 0..CHURN_LEAVES {
        for h in 0..HUBS {
            let (hub, leaf) = (VertexId(h), private_leaf(h, j));
            updates.push(GraphUpdate::Delete(hub, leaf));
            updates.push(GraphUpdate::Insert(hub, leaf));
        }
    }
    let mut batches = Vec::new();
    let mut rest = &updates[..];
    for &size in CHURN_SIZES.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(size.min(rest.len()));
        batches.push(head.to_vec());
        rest = tail;
    }
    batches
}
