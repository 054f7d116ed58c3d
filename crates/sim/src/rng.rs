//! Deterministic, splittable per-edge random streams.
//!
//! The batch update engine re-estimates many edges concurrently.  Sharing
//! one sequential RNG across workers would make results depend on thread
//! scheduling; instead every (edge, invocation) pair gets its own stream,
//! derived by mixing the algorithm seed with the edge key and the
//! invocation's number in the run:
//!
//! ```text
//! stream(e, i) = SplitMix64(seed ⊕ mix(lo(e), hi(e)) ⊕ mix(i))
//! ```
//!
//! Two properties follow directly:
//!
//! * **Schedule independence** — the bits an estimator invocation consumes
//!   are a pure function of `(seed, edge, i)`, so a batched parallel
//!   re-estimation draws exactly the same samples as any sequential
//!   execution of the same invocations.
//! * **Stream disjointness (statistical)** — distinct `(edge, i)` pairs map
//!   to distinct 64-bit initial states via an avalanche mixer, so streams
//!   are uncorrelated for all practical purposes.

use dynscan_graph::EdgeKey;
use rand::RngCore;

/// 64-bit finaliser of SplitMix64 (full avalanche).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic SplitMix64 stream for one estimator invocation.
#[derive(Clone, Debug)]
pub struct EdgeRng {
    state: u64,
}

impl EdgeRng {
    /// The stream for invocation number `invocation`, which labels edge
    /// `edge`, under the given algorithm seed.
    pub fn for_edge(seed: u64, edge: EdgeKey, invocation: u64) -> Self {
        let (lo, hi) = edge.endpoints();
        let edge_bits = (u64::from(lo.raw()) << 32) | u64::from(hi.raw());
        EdgeRng {
            state: mix64(
                seed ^ mix64(edge_bits) ^ mix64(invocation.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ),
        }
    }

    /// A plain deterministic stream from a raw state (used by tests).
    pub fn from_state(state: u64) -> Self {
        EdgeRng { state }
    }
}

impl RngCore for EdgeRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynscan_graph::VertexId;
    use rand::Rng;

    fn key(a: u32, b: u32) -> EdgeKey {
        EdgeKey::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn same_inputs_same_stream() {
        let mut a = EdgeRng::for_edge(7, key(3, 9), 2);
        let mut b = EdgeRng::for_edge(7, key(9, 3), 2);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64(), "edge keys are unordered");
        }
    }

    #[test]
    fn different_edges_invocations_and_seeds_diverge() {
        let base: Vec<u64> = {
            let mut r = EdgeRng::for_edge(7, key(3, 9), 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        for mut other in [
            EdgeRng::for_edge(8, key(3, 9), 2),
            EdgeRng::for_edge(7, key(3, 10), 2),
            EdgeRng::for_edge(7, key(3, 9), 3),
        ] {
            let stream: Vec<u64> = (0..8).map(|_| other.next_u64()).collect();
            assert_ne!(stream, base);
        }
    }

    #[test]
    fn behaves_as_a_uniform_source() {
        let mut r = EdgeRng::for_edge(42, key(0, 1), 1);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[r.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!(
                (800..1200).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }
}
