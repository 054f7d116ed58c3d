//! A set with O(1) membership, insertion, removal and uniform sampling.

use crate::footprint::{hashmap_bytes, vec_bytes, MemoryFootprint};
use crate::kernel::{self, NeighbourSummary, SUMMARY_BUILD, SUMMARY_DROP, SUMMARY_MAX_ID};
use crate::vertex::VertexId;
use rand::Rng;
use std::collections::HashMap;

/// A set of vertices supporting O(1) insert / remove / contains and O(1)
/// uniform random sampling.
///
/// The paper's similarity estimator (Section 4) repeatedly draws a uniform
/// vertex from a neighbourhood `N[u]`; storing the neighbours in a dense
/// vector with a position index gives that primitive without the O(log n)
/// cost of the binary-search-tree neighbourhoods the paper assumes (which
/// only makes our per-update constants smaller, not the asymptotics).
///
/// Removal uses the classic swap-remove trick, so iteration order is
/// unspecified.
///
/// Hub sets (≥ [`SUMMARY_BUILD`] elements, with hysteresis) additionally
/// maintain a chunked-`u64` [`NeighbourSummary`] for the adaptive
/// intersection kernel ([`crate::kernel`]): membership probes against a
/// hub become single bit tests and hub×hub intersections become
/// word-AND+popcount loops.  The summary is exact and incrementally
/// maintained, never serialised (restore rebuilds it), and only built
/// while the adaptive kernel is enabled.
#[derive(Clone, Debug, Default)]
pub struct IndexedSet {
    items: Vec<VertexId>,
    positions: HashMap<VertexId, usize>,
    summary: Option<Box<NeighbourSummary>>,
}

impl IndexedSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty set with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        IndexedSet {
            items: Vec::with_capacity(cap),
            positions: HashMap::with_capacity(cap),
            summary: None,
        }
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        // A summary, when present, is exact — and a bit test is ~10×
        // cheaper than a SipHash probe, so hubs answer from it.
        match &self.summary {
            Some(s) if kernel::adaptive() => s.contains(v),
            _ => self.positions.contains_key(&v),
        }
    }

    /// The hub bitmap, if this set currently maintains one (see the
    /// [type docs](IndexedSet) and [`crate::kernel`]).
    #[inline]
    pub fn summary(&self) -> Option<&NeighbourSummary> {
        self.summary.as_deref()
    }

    /// Re-evaluate whether this set should carry a summary, after a
    /// mutation.  Build/drop thresholds carry hysteresis so churn around
    /// the boundary cannot thrash, and ids ≥ [`SUMMARY_MAX_ID`] opt the
    /// set out (the bitmap size is bounded by the largest member id).
    fn maintain_summary(&mut self) {
        match &self.summary {
            Some(_) if self.items.len() < SUMMARY_DROP => self.summary = None,
            None if self.items.len() >= SUMMARY_BUILD
                && kernel::adaptive()
                && self.items.iter().all(|v| v.raw() < SUMMARY_MAX_ID) =>
            {
                self.summary = Some(Box::new(NeighbourSummary::build(&self.items)));
            }
            _ => {}
        }
    }

    /// Insert `v`.  Returns `true` if it was not already present.
    pub fn insert(&mut self, v: VertexId) -> bool {
        if self.positions.contains_key(&v) {
            return false;
        }
        self.positions.insert(v, self.items.len());
        self.items.push(v);
        match &mut self.summary {
            Some(s) if v.raw() < SUMMARY_MAX_ID => s.set(v),
            Some(_) => self.summary = None,
            None => self.maintain_summary(),
        }
        true
    }

    /// Remove `v`.  Returns `true` if it was present.
    pub fn remove(&mut self, v: VertexId) -> bool {
        let Some(pos) = self.positions.remove(&v) else {
            return false;
        };
        let last = self
            .items
            .pop()
            .expect("non-empty: position map had an entry");
        if pos < self.items.len() {
            self.items[pos] = last;
            self.positions.insert(last, pos);
        }
        if let Some(s) = &mut self.summary {
            s.clear(v);
        }
        self.maintain_summary();
        true
    }

    /// The element stored at dense index `i` (0-based, order unspecified).
    #[inline]
    pub fn get(&self, i: usize) -> Option<VertexId> {
        self.items.get(i).copied()
    }

    /// Draw a uniformly random element, or `None` if the set is empty.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<VertexId> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items[rng.gen_range(0..self.items.len())])
        }
    }

    /// Iterate over the elements in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.items.iter().copied()
    }

    /// A slice view of the elements (order unspecified).
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.items
    }

    /// Heap bytes attributable to the hub summary alone (0 when no
    /// summary is maintained) — reported as its own line item in the
    /// memory breakdown.
    pub fn summary_bytes(&self) -> usize {
        self.summary.as_ref().map_or(0, |s| s.memory_bytes())
    }

    /// Remove all elements, keeping allocations.
    pub fn clear(&mut self) {
        self.items.clear();
        self.positions.clear();
        self.summary = None;
    }
}

impl MemoryFootprint for IndexedSet {
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.items) + hashmap_bytes(&self.positions) + self.summary_bytes()
    }
}

impl FromIterator<VertexId> for IndexedSet {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        let mut s = IndexedSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl<'a> IntoIterator for &'a IndexedSet {
    type Item = VertexId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VertexId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = IndexedSet::new();
        assert!(s.is_empty());
        assert!(s.insert(v(1)));
        assert!(s.insert(v(2)));
        assert!(!s.insert(v(1)), "duplicate insert must be a no-op");
        assert_eq!(s.len(), 2);
        assert!(s.contains(v(1)));
        assert!(!s.contains(v(3)));
        assert!(s.remove(v(1)));
        assert!(!s.remove(v(1)), "double remove must be a no-op");
        assert_eq!(s.len(), 1);
        assert!(!s.contains(v(1)));
        assert!(s.contains(v(2)));
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut s = IndexedSet::new();
        for i in 0..100 {
            s.insert(v(i));
        }
        // Remove from the middle repeatedly and check membership of the rest.
        for i in (0..100).step_by(3) {
            assert!(s.remove(v(i)));
        }
        for i in 0..100 {
            assert_eq!(s.contains(v(i)), i % 3 != 0);
        }
        let collected: HashSet<_> = s.iter().collect();
        assert_eq!(collected.len(), s.len());
    }

    #[test]
    fn sample_is_member_and_roughly_uniform() {
        let mut s = IndexedSet::new();
        for i in 0..8 {
            s.insert(v(i));
        }
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            let x = s.sample(&mut rng).unwrap();
            assert!(s.contains(x));
            counts[x.index()] += 1;
        }
        for &c in &counts {
            // Each of the 8 elements expects ~1000 draws; allow wide slack.
            assert!(
                c > 700 && c < 1300,
                "sampling looks non-uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn sample_empty_is_none() {
        let s = IndexedSet::new();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(s.sample(&mut rng), None);
    }

    #[test]
    fn clear_resets() {
        let mut s: IndexedSet = (0..10u32).map(v).collect();
        assert_eq!(s.len(), 10);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(v(3)));
    }

    #[test]
    fn from_iterator_dedups() {
        let s: IndexedSet = [v(1), v(2), v(1), v(3)].into_iter().collect();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn summary_lifecycle_follows_hysteresis() {
        // Under the scalar kernel (DYNSCAN_KERNEL=scalar) no summary is
        // ever built; membership must hold either way.
        let adaptive = kernel::adaptive();
        let mut s = IndexedSet::new();
        for i in 0..SUMMARY_BUILD as u32 - 1 {
            s.insert(v(i));
        }
        assert!(s.summary().is_none(), "below the build threshold");
        s.insert(v(SUMMARY_BUILD as u32 - 1));
        assert_eq!(s.summary().is_some(), adaptive, "built at the threshold");
        if let Some(summary) = s.summary() {
            assert!(summary.contains(v(0)) && !summary.contains(v(5000)));
        }
        // Removals keep the summary exact down to the drop threshold…
        let removed = (SUMMARY_BUILD - SUMMARY_DROP) as u32;
        for i in 0..removed {
            s.remove(v(i));
            assert_eq!(s.summary().is_some(), adaptive, "len ≥ {SUMMARY_DROP}");
            if let Some(sum) = s.summary() {
                assert!(!sum.contains(v(i)));
            }
        }
        // …and one more removal crosses it.
        s.remove(v(removed));
        assert!(
            s.summary().is_none(),
            "dropped once the set shrank below {SUMMARY_DROP}"
        );
        // Membership stays correct throughout.
        for i in 0..SUMMARY_BUILD as u32 {
            assert_eq!(s.contains(v(i)), i > removed);
        }
    }

    #[test]
    fn oversized_ids_opt_out_of_the_summary() {
        let mut s: IndexedSet = (0..100u32).map(v).collect();
        assert_eq!(s.summary().is_some(), kernel::adaptive());
        s.insert(v(SUMMARY_MAX_ID + 7));
        assert!(s.summary().is_none(), "an uncapped id drops the bitmap");
        assert!(s.contains(v(SUMMARY_MAX_ID + 7)) && s.contains(v(42)));
    }

    #[test]
    fn footprint_grows_with_size() {
        let small: IndexedSet = (0..4u32).map(v).collect();
        let big: IndexedSet = (0..4096u32).map(v).collect();
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    proptest! {
        /// The IndexedSet behaves exactly like a reference HashSet under an
        /// arbitrary interleaving of inserts and removes.
        #[test]
        fn behaves_like_hashset(ops in prop::collection::vec((any::<bool>(), 0u32..64), 0..400)) {
            let mut ours = IndexedSet::new();
            let mut reference: HashSet<u32> = HashSet::new();
            for (is_insert, x) in ops {
                if is_insert {
                    prop_assert_eq!(ours.insert(v(x)), reference.insert(x));
                } else {
                    prop_assert_eq!(ours.remove(v(x)), reference.remove(&x));
                }
                prop_assert_eq!(ours.len(), reference.len());
            }
            for x in 0u32..64 {
                prop_assert_eq!(ours.contains(v(x)), reference.contains(&x));
            }
            let collected: HashSet<u32> = ours.iter().map(|y| y.raw()).collect();
            prop_assert_eq!(collected, reference);
        }
    }
}
