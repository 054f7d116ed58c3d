//! Whole-stack differential test of the adaptive intersection kernel:
//! for the same topology, [`DynGraph`] must report byte-identical closed
//! intersection and union sizes under `KernelMode::Scalar` and
//! `KernelMode::Adaptive` — the kernel is a pure performance knob, never
//! an observable one.
//!
//! The kernel's unit proptests pin each code path (hash probe, bitset
//! probe, popcount) against brute force; this test pins the
//! *dispatch* — threshold crossings, summary lifecycle during
//! construction, and the closed-neighbourhood adjustments (including
//! the `u == v` "self pair" whose answer is `degree + 1`).
//!
//! The kernel mode is process-global, so all mode flipping lives in
//! this one `#[test]` — it must not run concurrently with another test
//! that also flips the mode.

use dynscan_graph::kernel::{self, KernelMode};
use dynscan_graph::{DynGraph, VertexId};

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// Deterministic pseudo-random edge list: a sparse random layer plus a
/// hub clique, so both the hash-probe path (low degrees) and the summary
/// paths (hubs ≥ the build threshold) are exercised.
fn hub_heavy_edges(n: u32, hubs: u32, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut edges = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*: deterministic, no external RNG needed here.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    // Sparse random layer.
    for _ in 0..(n as usize * 3) {
        let a = (next() % n as u64) as u32;
        let b = (next() % n as u64) as u32;
        if a != b {
            edges.push((v(a.min(b)), v(a.max(b))));
        }
    }
    // Hubs: each of the first `hubs` vertices connects to a wide swathe,
    // pushing their adjacency sets well past the summary build threshold.
    for h in 0..hubs {
        for t in 0..n {
            if t != h && (t + h) % 3 != 0 {
                edges.push((v(h.min(t)), v(h.max(t))));
            }
        }
    }
    edges
}

fn build_graph(edges: &[(VertexId, VertexId)], n: u32) -> DynGraph {
    let mut g = DynGraph::with_vertices(n as usize);
    for &(a, b) in edges {
        let _ = g.insert_edge(a, b);
    }
    g
}

/// The graph's answers for `(u, v)`: closed intersection, then union.
fn answers(g: &DynGraph, u: VertexId, w: VertexId) -> [usize; 2] {
    [g.closed_intersection_size(u, w), g.closed_union_size(u, w)]
}

#[test]
fn all_backends_agree_across_kernel_modes() {
    const N: u32 = 160;
    let edges = hub_heavy_edges(N, 4, 0xD1F5_CA11);
    // Probe pairs: hub×hub (popcount), hub×leaf (bit probe), leaf×leaf
    // (hash probe), adjacent and non-adjacent pairs,
    // and the u == v self pair (closed answer: degree + 1).
    let probes: Vec<(VertexId, VertexId)> = (0..N)
        .step_by(7)
        .flat_map(|a| (0..N).step_by(11).map(move |b| (v(a), v(b))))
        .chain((0..N).map(|a| (v(a), v(a))))
        .chain([(v(0), v(1)), (v(0), v(N - 1)), (v(1), v(2))])
        .collect();
    let run = |mode: KernelMode| {
        kernel::set_mode(mode);
        // Build *under* the mode, so summary construction (adaptive) and
        // its absence (scalar) are both part of what is being compared.
        let g = build_graph(&edges, N);
        let mut all = Vec::with_capacity(probes.len());
        for &(a, b) in &probes {
            let got = answers(&g, a, b);
            if a == b {
                assert_eq!(got[0], g.degree(a) + 1, "self pair is |N[v]| = d + 1");
            }
            all.push(got);
        }
        all
    };
    let before = kernel::mode();
    let scalar = run(KernelMode::Scalar);
    let adaptive = run(KernelMode::Adaptive);
    kernel::set_mode(before);
    assert_eq!(
        scalar, adaptive,
        "the kernel mode must never change an exact count"
    );
}
