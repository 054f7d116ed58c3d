//! The adaptive closed-neighbourhood intersection kernel.
//!
//! Every re-estimation in the paper's tracking loop bottoms out in
//! `a = |N[u] ∩ N[v]|`; this module is the one place that computes it.
//! Three strategies are selected **by degree/size thresholds only** —
//! no RNG, no clocks — so every path returns the same exact count and
//! the choice can never perturb a sampled bit-stream:
//!
//! * **probe** — scan the smaller side, test membership on the larger.
//!   Against an [`IndexedSet`] the test is a hash probe (the scalar
//!   baseline) or, when the larger side is a *hub* carrying a
//!   [`NeighbourSummary`], a single bit test on a chunked-`u64` bitmap.
//! * **popcount** — when both sides are hubs and their bitmaps overlap
//!   tightly enough, AND the word arrays and popcount.  The loop is
//!   plain `u64` chunks with no data-dependent branches, exactly the
//!   shape LLVM auto-vectorises.
//! * **merge / gallop** — for the sorted CSR slices: linear merge when
//!   degrees are balanced, exponential (galloping) probes into the
//!   larger slice when they are skewed by [`GALLOP_RATIO`] or more.
//!
//! ## Kernel selection and the `DYNSCAN_KERNEL` override
//!
//! [`KernelMode::Adaptive`] is the default.  `DYNSCAN_KERNEL=scalar`
//! (read once per process, like `RAYON_NUM_THREADS`) pins every call to
//! the scalar probe/merge baseline; [`set_mode`]
//! switches at runtime so benches can measure both kernels in one
//! process.  Because all paths are exact, the mode is a pure performance
//! knob: flips, checkpoints and group-by answers are byte-identical
//! under either setting (pinned by the differential proptests below and
//! by `tests/parallel_equivalence.rs`).
//!
//! ## Safety audit (Rudra bug classes)
//!
//! This crate is `#![forbid(unsafe_code)]` and the kernel keeps it that
//! way — **no new `unsafe` was needed**.  For the record, per the Rudra
//! classes the PR 7 deque documented: no `Send`/`Sync` impls are written
//! (nothing here owns shared state; summaries live inside `IndexedSet`
//! and follow its ownership), there is no uninitialised memory (bitmaps
//! grow with `resize(0u64)`), and panic-safety is moot because the
//! kernel never runs user callbacks mid-update.  "SIMD-friendly" here
//! means autovectorisable safe `u64` chunk loops, not intrinsics.

use crate::indexed_set::IndexedSet;
use crate::vertex::VertexId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which intersection kernel the process uses (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// The pre-kernel baseline: hash probes and linear merges.
    Scalar,
    /// Threshold-selected probe / popcount / gallop (the default).
    Adaptive,
}

const MODE_SCALAR: u8 = 0;
const MODE_ADAPTIVE: u8 = 1;

/// Current mode; initialised lazily from `DYNSCAN_KERNEL`.
static MODE: AtomicU8 = AtomicU8::new(u8::MAX);
static MODE_INIT: OnceLock<u8> = OnceLock::new();

fn init_mode() -> u8 {
    *MODE_INIT.get_or_init(|| {
        let from_env = match std::env::var("DYNSCAN_KERNEL") {
            Ok(s) if s.eq_ignore_ascii_case("scalar") => MODE_SCALAR,
            _ => MODE_ADAPTIVE,
        };
        MODE.store(from_env, Ordering::Relaxed);
        from_env
    })
}

/// The mode in effect.
pub fn mode() -> KernelMode {
    let raw = match MODE.load(Ordering::Relaxed) {
        u8::MAX => init_mode(),
        raw => raw,
    };
    if raw == MODE_SCALAR {
        KernelMode::Scalar
    } else {
        KernelMode::Adaptive
    }
}

/// Override the kernel mode for the rest of the process (bench control;
/// tests pin byte-identity across the switch so flipping mid-run is
/// safe for correctness, it only changes speed).
pub fn set_mode(m: KernelMode) {
    init_mode();
    let raw = match m {
        KernelMode::Scalar => MODE_SCALAR,
        KernelMode::Adaptive => MODE_ADAPTIVE,
    };
    MODE.store(raw, Ordering::Relaxed);
}

/// Whether the adaptive paths are enabled.
#[inline]
pub fn adaptive() -> bool {
    mode() == KernelMode::Adaptive
}

/// Build a [`NeighbourSummary`] once a set reaches this many elements…
pub const SUMMARY_BUILD: usize = 64;
/// …and drop it when the set shrinks below this (hysteresis: ≥ 16
/// mutations between a drop and the next rebuild, so churn around the
/// threshold cannot thrash).
pub const SUMMARY_DROP: usize = 48;
/// Ids at or above this cap are never summarised (bounds a summary's
/// word array to 64 KiB even for adversarial sparse id spaces).
pub const SUMMARY_MAX_ID: u32 = 1 << 22;
/// Take the popcount path when the overlapping words number at most
/// this many per element of the smaller side (a word-AND+popcount costs
/// about half a probe).
pub const POPCOUNT_WORDS_PER_ELEM: usize = 2;
/// Gallop into the larger sorted slice when it is at least this many
/// times longer than the smaller one.
pub const GALLOP_RATIO: usize = 8;

/// Chunked-`u64` bitmap over the dense vertex-id space: bit `v` set iff
/// `v` is a member.  Maintained incrementally by [`IndexedSet`] for hub
/// neighbourhoods (see the threshold constants); exact, not a filter.
#[derive(Clone, Debug, Default)]
pub struct NeighbourSummary {
    words: Vec<u64>,
}

impl NeighbourSummary {
    /// Build from a membership slice.
    pub(crate) fn build(items: &[VertexId]) -> NeighbourSummary {
        let mut s = NeighbourSummary::default();
        for &v in items {
            s.set(v);
        }
        s
    }

    #[inline]
    fn slot(v: VertexId) -> (usize, u32) {
        ((v.raw() >> 6) as usize, v.raw() & 63)
    }

    pub(crate) fn set(&mut self, v: VertexId) {
        let (w, b) = Self::slot(v);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << b;
    }

    pub(crate) fn clear(&mut self, v: VertexId) {
        let (w, b) = Self::slot(v);
        if let Some(word) = self.words.get_mut(w) {
            *word &= !(1u64 << b);
        }
    }

    /// O(1) membership: one load, one shift.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let (w, b) = Self::slot(v);
        self.words.get(w).is_some_and(|word| word >> b & 1 == 1)
    }

    /// Number of `u64` words backing the bitmap.
    #[inline]
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// `|self ∩ other|` by word-AND + popcount over the overlapping
    /// prefix (beyond it one side is all zeros).  Branchless chunk loop.
    pub fn and_popcount(&self, other: &NeighbourSummary) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Approximate heap footprint.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// `|adj_a ∩ adj_b|` over two *open* neighbourhood sets, scalar path:
/// scan the smaller, hash-probe the larger — exactly the pre-kernel
/// baseline.
fn open_intersection_scalar(a: &IndexedSet, b: &IndexedSet) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .as_slice()
        .iter()
        .filter(|&&w| large.contains(w))
        .count()
}

/// `|adj_a ∩ adj_b|`, adaptive: bit probes against a hub summary when
/// one exists, word-AND+popcount when both sides are hubs with tightly
/// overlapping bitmaps, hash probes otherwise.
fn open_intersection_adaptive(a: &IndexedSet, b: &IndexedSet) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match (small.summary(), large.summary()) {
        (Some(sa), Some(sb)) => {
            let overlap = sa.words().min(sb.words());
            if overlap <= POPCOUNT_WORDS_PER_ELEM * small.len() {
                sa.and_popcount(sb)
            } else {
                bit_probe_count(small.as_slice(), sb)
            }
        }
        (None, Some(sb)) => bit_probe_count(small.as_slice(), sb),
        // The large side is in the hysteresis band without a summary but
        // the small side carries one: bit probes are enough cheaper than
        // hash probes that scanning the *larger* slice wins while the
        // sizes stay comparable.
        (Some(sa), None) if large.len() <= 4 * small.len() => bit_probe_count(large.as_slice(), sa),
        _ => open_intersection_scalar(small, large),
    }
}

/// Count members of `items` present in `summary`: a branchless
/// accumulate over O(1) bit tests.
#[inline]
fn bit_probe_count(items: &[VertexId], summary: &NeighbourSummary) -> usize {
    items
        .iter()
        .map(|&w| usize::from(summary.contains(w)))
        .sum()
}

/// `a = |N[u] ∩ N[v]|` (closed neighbourhoods) from the two adjacency
/// sets.  For `u ≠ v` the closed count decomposes as
/// `|adj(u) ∩ adj(v)| + 2·[edge(u, v)]` (each endpoint is in its own
/// closed neighbourhood, and in the other's iff the edge exists); for
/// `u = v` it is `degree + 1`.
pub fn closed_intersection_sets(
    u: VertexId,
    v: VertexId,
    adj_u: &IndexedSet,
    adj_v: &IndexedSet,
) -> usize {
    if u == v {
        return adj_u.len() + 1;
    }
    let open = if adaptive() {
        open_intersection_adaptive(adj_u, adj_v)
    } else {
        open_intersection_scalar(adj_u, adj_v)
    };
    open + 2 * usize::from(adj_v.contains(u))
}

/// `|a ∩ b|` over two ascending-sorted slices: linear merge.
fn merge_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut count = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// `|small ∩ large|` over two ascending-sorted slices with
/// `|large| ≫ |small|`: for each element of the smaller slice, advance
/// through the larger with an exponential (galloping) probe followed by
/// a binary search in the located window — O(|small| · log |large|).
fn gallop_count(small: &[VertexId], large: &[VertexId]) -> usize {
    let mut lo = 0usize;
    let mut count = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        // Exponential probe: grow [lo, hi] until large[hi] reaches x (the
        // element at hi itself may equal x, so the window is inclusive).
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            hi += step;
            step <<= 1;
        }
        let end = if hi < large.len() {
            hi + 1
        } else {
            large.len()
        };
        let window = &large[lo..end];
        match window.binary_search(&x) {
            Ok(pos) => {
                count += 1;
                lo += pos + 1;
            }
            Err(pos) => {
                lo += pos;
            }
        }
    }
    count
}

/// `|a ∩ b|` over two ascending-sorted slices (the CSR shape), with the
/// merge/gallop selection of the module docs.
pub fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if adaptive() && !small.is_empty() && large.len() >= GALLOP_RATIO * small.len() {
        gallop_count(small, large)
    } else {
        merge_count(small, large)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn set_of(ids: &[u32]) -> IndexedSet {
        ids.iter().map(|&i| v(i)).collect()
    }

    fn brute_open(a: &IndexedSet, b: &IndexedSet) -> usize {
        let sa: HashSet<VertexId> = a.iter().collect();
        b.iter().filter(|x| sa.contains(x)).count()
    }

    #[test]
    fn env_default_is_adaptive() {
        // The test process does not set DYNSCAN_KERNEL.
        assert_eq!(mode(), KernelMode::Adaptive);
    }

    #[test]
    fn summary_tracks_membership() {
        let mut s = NeighbourSummary::default();
        s.set(v(0));
        s.set(v(63));
        s.set(v(64));
        s.set(v(1000));
        assert!(s.contains(v(0)) && s.contains(v(63)) && s.contains(v(64)));
        assert!(s.contains(v(1000)) && !s.contains(v(65)) && !s.contains(v(100_000)));
        s.clear(v(64));
        assert!(!s.contains(v(64)));
        assert_eq!(s.and_popcount(&s.clone()), 3);
    }

    #[test]
    fn gallop_matches_merge_on_skewed_slices() {
        let small: Vec<VertexId> = [3u32, 64, 65, 900, 901].map(v).to_vec();
        let large: Vec<VertexId> = (0..1000u32).filter(|i| i % 3 == 0).map(v).collect();
        assert_eq!(
            gallop_count(&small, &large),
            merge_count(&small, &large),
            "gallop and merge must agree"
        );
        // Degenerate shapes.
        assert_eq!(gallop_count(&[], &large), 0);
        assert_eq!(gallop_count(&small, &[]), 0);
    }

    proptest! {
        /// Every open-intersection path — scalar hash probe, bit probe,
        /// popcount — returns the brute-force count, regardless of which
        /// side carries a summary.
        #[test]
        fn open_paths_agree_with_brute_force(
            a in prop::collection::hash_set(0u32..512, 0..200),
            b in prop::collection::hash_set(0u32..512, 0..200),
        ) {
            let a: Vec<u32> = a.into_iter().collect();
            let b: Vec<u32> = b.into_iter().collect();
            let (sa, sb) = (set_of(&a), set_of(&b));
            let expected = brute_open(&sa, &sb);
            prop_assert_eq!(open_intersection_scalar(&sa, &sb), expected);
            prop_assert_eq!(open_intersection_adaptive(&sa, &sb), expected);
            // Force summaries on both sides and re-check every probe shape.
            let (wa, wb) = (
                NeighbourSummary::build(sa.as_slice()),
                NeighbourSummary::build(sb.as_slice()),
            );
            prop_assert_eq!(wa.and_popcount(&wb), expected);
            prop_assert_eq!(bit_probe_count(sa.as_slice(), &wb), expected);
            prop_assert_eq!(bit_probe_count(sb.as_slice(), &wa), expected);
        }

        /// Merge and gallop agree on arbitrary sorted slices.
        #[test]
        fn sorted_paths_agree(
            a in prop::collection::hash_set(0u32..2048, 0..300),
            b in prop::collection::hash_set(0u32..2048, 0..40),
        ) {
            let mut a: Vec<VertexId> = a.into_iter().map(v).collect();
            let mut b: Vec<VertexId> = b.into_iter().map(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            let expected = merge_count(&b, &a);
            prop_assert_eq!(merge_count(&a, &b), expected);
            prop_assert_eq!(gallop_count(&b, &a), expected);
            prop_assert_eq!(sorted_intersection_size(&a, &b), expected);
        }

        /// The closed-count decomposition holds against a brute-force
        /// closed-neighbourhood computation, including the self-pair.
        #[test]
        fn closed_counts_match_brute_force(
            edges in prop::collection::hash_set((0u32..48, 0u32..48), 0..160),
            u in 0u32..48,
            w in 0u32..48,
        ) {
            use crate::dynamic_graph::DynGraph;
            let (g, _) = DynGraph::from_edges(
                edges.into_iter().filter(|(a, b)| a != b).map(|(a, b)| (v(a), v(b))),
            );
            let closed = |x: u32| -> HashSet<u32> {
                g.neighbours_iter(v(x)).map(|y| y.raw()).chain([x]).collect()
            };
            let expected = closed(u).intersection(&closed(w)).count();
            let got = closed_intersection_sets(v(u), v(w), &g.neighbours(v(u)), &g.neighbours(v(w)));
            prop_assert_eq!(got, expected);
        }
    }
}
