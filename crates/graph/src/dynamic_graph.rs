//! The dynamic undirected simple graph with a two-tier adjacency store.

use crate::edge::EdgeKey;
use crate::error::GraphError;
use crate::footprint::{GraphMemoryBreakdown, MemoryFootprint};
use crate::indexed_set::IndexedSet;
use crate::snapshot::{SnapReader, SnapWriter};
use crate::vertex::VertexId;
use rand::Rng;
use std::collections::BTreeSet;
use std::ops::Deref;
use std::sync::OnceLock;

/// Decoding bytes this module itself encoded cannot fail; the message on
/// the `expect`s documents that invariant.
const SELF_ENCODED: &str = "cold-tier bytes are self-encoded and always decode";

static DEFAULT_BUDGET: OnceLock<Option<usize>> = OnceLock::new();

/// The process-default hot-tier byte budget, read **once** from the
/// `DYNSCAN_MEMORY_BUDGET` environment variable (a plain byte count;
/// unset, unparsable or zero means unbudgeted).  Every graph constructor
/// starts from this value, so a budgeted CI run exercises the cold tier
/// in every backend without code changes; per-instance overrides go
/// through [`DynGraph::set_memory_budget`].
///
/// Like the kernel-mode switch in [`crate::kernel`], the budget is a
/// pure performance/residency knob: promotion and demotion are driven by
/// touch order under a logical clock, never by wall time, so results are
/// byte-identical with or without a budget.
pub fn default_memory_budget() -> Option<usize> {
    *DEFAULT_BUDGET.get_or_init(|| {
        std::env::var("DYNSCAN_MEMORY_BUDGET")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&b| b > 0)
    })
}

/// A demoted adjacency list: the vertex's slots, in slot order, encoded
/// with the same compact codec the v3 snapshot GRAPH section uses
/// (`len_prefix` + zigzag-delta slot ids — see
/// [`SnapWriter::slot_vertex`]).  Storing wire bytes keeps the cold tier
/// ~5–10× smaller than the hot [`IndexedSet`] form and makes a
/// file-backed arena a pure I/O change: the bytes are already in their
/// on-disk format.
#[derive(Clone, Debug)]
struct ColdList {
    bytes: Box<[u8]>,
    degree: u32,
}

impl ColdList {
    fn encode(set: &IndexedSet) -> ColdList {
        let slots = set.as_slice();
        let mut w = SnapWriter::new();
        w.len_prefix(slots.len());
        let mut prev: Option<VertexId> = None;
        for &x in slots {
            w.slot_vertex(&mut prev, x);
        }
        ColdList {
            bytes: w.into_bytes().into_boxed_slice(),
            degree: slots.len() as u32,
        }
    }

    fn arena_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn reader(&self) -> (SnapReader<'_>, usize) {
        let mut r = SnapReader::new(&self.bytes);
        let d = r.len_prefix().expect(SELF_ENCODED);
        (r, d)
    }

    /// Decode back into an [`IndexedSet`], reproducing the exact slot
    /// order the set had when demoted (inserts append), so a
    /// demote/promote cycle is invisible to positional sampling.
    fn decode_set(&self) -> IndexedSet {
        let (mut r, d) = self.reader();
        let mut set = IndexedSet::with_capacity(d);
        let mut prev: Option<VertexId> = None;
        for _ in 0..d {
            set.insert(r.slot_vertex(&mut prev).expect(SELF_ENCODED));
        }
        set
    }

    fn decode_vec(&self) -> Vec<VertexId> {
        let (mut r, d) = self.reader();
        let mut out = Vec::with_capacity(d);
        let mut prev: Option<VertexId> = None;
        for _ in 0..d {
            out.push(r.slot_vertex(&mut prev).expect(SELF_ENCODED));
        }
        out
    }

    /// The slot at dense index `i` — a partial decode that stops at `i`.
    fn get(&self, i: usize) -> Option<VertexId> {
        let (mut r, d) = self.reader();
        if i >= d {
            return None;
        }
        let mut prev: Option<VertexId> = None;
        for _ in 0..=i {
            r.slot_vertex(&mut prev).expect(SELF_ENCODED);
        }
        prev
    }

    fn contains(&self, target: VertexId) -> bool {
        let (mut r, d) = self.reader();
        let mut prev: Option<VertexId> = None;
        for _ in 0..d {
            if r.slot_vertex(&mut prev).expect(SELF_ENCODED) == target {
                return true;
            }
        }
        false
    }
}

/// One vertex's adjacency, in whichever tier it currently lives.
///
/// `Hot` caches the set's last accounted byte size (`bytes`, 0 for empty
/// sets, which are never accounted or demoted) and its logical-clock
/// `touch` stamp, the key of the demotion queue.
#[derive(Clone, Debug)]
enum Slot {
    Hot {
        set: IndexedSet,
        touch: u64,
        bytes: usize,
    },
    Cold(ColdList),
}

impl Default for Slot {
    fn default() -> Self {
        Slot::Hot {
            set: IndexedSet::new(),
            touch: 0,
            bytes: 0,
        }
    }
}

/// Tiering bookkeeping: the budget, the logical clock, running byte
/// totals per tier, and the touch-ordered demotion queue.
#[derive(Clone, Debug, Default)]
struct TierState {
    budget: Option<usize>,
    clock: u64,
    hot_bytes: usize,
    cold_bytes: usize,
    /// `(touch, vertex)` for every accounted (non-empty) hot slot; the
    /// smallest entry is the demotion victim.
    lru: BTreeSet<(u64, u32)>,
    promotions: u64,
    demotions: u64,
}

/// The open neighbourhood of a vertex: a borrow of the hot set, or a
/// freshly decoded owned set for a cold-tier vertex.  Dereferences to
/// [`IndexedSet`] either way, so read-side callers are tier-blind.
#[derive(Debug)]
pub enum NeighbourhoodRef<'a> {
    /// Borrowed from the hot tier.
    Hot(&'a IndexedSet),
    /// Decoded on the fly from the cold tier.
    Cold(IndexedSet),
}

impl Deref for NeighbourhoodRef<'_> {
    type Target = IndexedSet;

    fn deref(&self) -> &IndexedSet {
        match self {
            NeighbourhoodRef::Hot(s) => s,
            NeighbourhoodRef::Cold(s) => s,
        }
    }
}

/// Iterator over one vertex's neighbours in slot order, from either tier.
#[derive(Debug)]
pub struct NeighbourIter<'a>(NeighbourIterInner<'a>);

#[derive(Debug)]
enum NeighbourIterInner<'a> {
    Hot(std::slice::Iter<'a, VertexId>),
    Cold(std::vec::IntoIter<VertexId>),
}

impl Iterator for NeighbourIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        match &mut self.0 {
            NeighbourIterInner::Hot(it) => it.next().copied(),
            NeighbourIterInner::Cold(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            NeighbourIterInner::Hot(it) => it.size_hint(),
            NeighbourIterInner::Cold(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for NeighbourIter<'_> {}

/// An undirected simple graph under edge insertions and deletions.
///
/// This is the substrate every algorithm in the workspace runs on:
///
/// * adjacency is stored per vertex in an [`IndexedSet`], giving O(1)
///   `has_edge`, O(1) insert/delete and O(1) uniform neighbour sampling;
/// * the vertex set is the dense range `0..num_vertices()` and grows
///   automatically when an edge mentions a new id (matching the paper's
///   relabelled SNAP datasets);
/// * degrees, edge counts and closed-neighbourhood (`N\[v\] = neighbours ∪ {v}`)
///   membership checks are O(1).
///
/// # Memory tiering
///
/// Under a memory budget ([`DynGraph::set_memory_budget`] /
/// `DYNSCAN_MEMORY_BUDGET`), adjacency lives in two tiers: a **hot**
/// tier of mutable [`IndexedSet`]s and a **cold** tier of compact
/// codec-encoded lists (≈ 1–2 bytes per neighbour instead of ≈ 45).
/// Mutating an edge promotes both endpoints; after every mutation the
/// least-recently-touched hot sets are demoted until the hot tier fits
/// the budget.  The schedule is driven purely by a logical touch clock —
/// the same determinism rule as the `kernel.rs` thresholds — and every
/// read path decodes cold lists on the fly without changing tiers, so a
/// budgeted graph returns **byte-identical** results to an unbudgeted
/// one (pinned by the differential tests and the `tiered_memory` bench
/// gate).
///
/// The structure deliberately stores no similarity or clustering state; that
/// lives in the algorithm crates layered on top.
#[derive(Clone, Debug)]
pub struct DynGraph {
    slots: Vec<Slot>,
    num_edges: usize,
    tier: TierState,
}

impl Default for DynGraph {
    fn default() -> Self {
        DynGraph::new()
    }
}

impl DynGraph {
    /// Create an empty graph with no vertices (hot-tier budget taken
    /// from [`default_memory_budget`]).
    pub fn new() -> Self {
        DynGraph {
            slots: Vec::new(),
            num_edges: 0,
            tier: TierState {
                budget: default_memory_budget(),
                ..TierState::default()
            },
        }
    }

    /// Create an empty graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        let mut g = DynGraph::new();
        g.slots.resize_with(n, Slot::default);
        g
    }

    /// Build a graph from an edge list, ignoring duplicates and self-loops
    /// (the paper's pre-processing).  Returns the graph and the number of
    /// edges actually inserted.
    pub fn from_edges<I>(edges: I) -> (Self, usize)
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = DynGraph::new();
        let mut inserted = 0;
        for (u, v) in edges {
            if u != v && g.insert_edge(u, v).is_ok() {
                inserted += 1;
            }
        }
        (g, inserted)
    }

    /// Current number of vertices (dense id space `0..n`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.slots.len()
    }

    /// Current number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterate over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.slots.len() as u32).map(VertexId)
    }

    /// Ensure the vertex id space covers `v`.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if v.index() >= self.slots.len() {
            self.slots.resize_with(v.index() + 1, Slot::default);
        }
    }

    /// Degree of `v` (number of neighbours, excluding `v` itself) — O(1)
    /// in both tiers (the cold tier stores the degree alongside the
    /// encoded list).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        match self.slots.get(v.index()) {
            Some(Slot::Hot { set, .. }) => set.len(),
            Some(Slot::Cold(c)) => c.degree as usize,
            None => 0,
        }
    }

    /// Size of the closed neighbourhood `|N\[v\]| = degree(v) + 1`.
    #[inline]
    pub fn closed_degree(&self, v: VertexId) -> usize {
        self.degree(v) + 1
    }

    /// Whether the edge `(u, v)` is present.  Probes a hot endpoint when
    /// one exists; a cold×cold pair scans the lower-degree list.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match (self.slots.get(u.index()), self.slots.get(v.index())) {
            (Some(Slot::Hot { set, .. }), _) => set.contains(v),
            (_, Some(Slot::Hot { set, .. })) => set.contains(u),
            (Some(Slot::Cold(a)), Some(Slot::Cold(b))) => {
                if a.degree <= b.degree {
                    a.contains(v)
                } else {
                    b.contains(u)
                }
            }
            _ => false,
        }
    }

    /// Whether `w` belongs to the *closed* neighbourhood `N\[v\]`, i.e.
    /// `w == v` or `(w, v)` is an edge.  This is the membership test used by
    /// the structural-similarity definitions.
    #[inline]
    pub fn in_closed_neighbourhood(&self, w: VertexId, v: VertexId) -> bool {
        w == v || self.has_edge(w, v)
    }

    /// The open neighbourhood of `v`: a borrow of the hot set, or a
    /// decode of the cold list (the vertex stays cold — reads never
    /// change tiers, which is what keeps the schedule deterministic
    /// under `&self` access from multiple threads).
    #[inline]
    pub fn neighbours(&self, v: VertexId) -> NeighbourhoodRef<'_> {
        match self.slots.get(v.index()) {
            Some(Slot::Hot { set, .. }) => NeighbourhoodRef::Hot(set),
            Some(Slot::Cold(c)) => NeighbourhoodRef::Cold(c.decode_set()),
            None => NeighbourhoodRef::Hot(once_empty::Empty::get()),
        }
    }

    /// Iterate over the open neighbourhood of `v` in slot order.
    pub fn neighbours_iter(&self, v: VertexId) -> NeighbourIter<'_> {
        NeighbourIter(match self.slots.get(v.index()) {
            Some(Slot::Hot { set, .. }) => NeighbourIterInner::Hot(set.as_slice().iter()),
            Some(Slot::Cold(c)) => NeighbourIterInner::Cold(c.decode_vec().into_iter()),
            None => NeighbourIterInner::Hot([].iter()),
        })
    }

    /// The neighbour in dense slot `i` of `v`'s adjacency (0-based; the
    /// positional primitive behind uniform sampling).  Cold lists decode
    /// up to slot `i` and stop.
    pub fn neighbour_at(&self, v: VertexId, i: usize) -> Option<VertexId> {
        match self.slots.get(v.index()) {
            Some(Slot::Hot { set, .. }) => set.get(i),
            Some(Slot::Cold(c)) => c.get(i),
            None => None,
        }
    }

    /// Draw a uniform member of the *closed* neighbourhood `N\[v\]`
    /// (so `v` itself is drawn with probability `1 / (degree(v) + 1)`).
    /// Exactly one `gen_range` draw in both tiers — the random stream is
    /// independent of the tier split.
    pub fn sample_closed_neighbourhood<R: Rng + ?Sized>(
        &self,
        v: VertexId,
        rng: &mut R,
    ) -> VertexId {
        let d = self.degree(v);
        let i = rng.gen_range(0..=d);
        if i == d {
            v
        } else {
            self.neighbour_at(v, i).expect("index within degree")
        }
    }

    fn promote(&mut self, v: VertexId) {
        let Some(slot) = self.slots.get_mut(v.index()) else {
            return;
        };
        if let Slot::Cold(c) = slot {
            let set = c.decode_set();
            self.tier.cold_bytes -= c.arena_bytes();
            self.tier.promotions += 1;
            self.tier.clock += 1;
            let touch = self.tier.clock;
            let bytes = if set.is_empty() {
                0
            } else {
                set.memory_bytes()
            };
            self.tier.hot_bytes += bytes;
            if bytes > 0 {
                self.tier.lru.insert((touch, v.raw()));
            }
            *slot = Slot::Hot { set, touch, bytes };
        }
    }

    /// Refresh `v`'s touch stamp and byte accounting after a mutation.
    fn touch(&mut self, v: VertexId) {
        self.tier.clock += 1;
        let clock = self.tier.clock;
        let Some(Slot::Hot { set, touch, bytes }) = self.slots.get_mut(v.index()) else {
            return;
        };
        let new_bytes = if set.is_empty() {
            0
        } else {
            set.memory_bytes()
        };
        if *bytes > 0 {
            self.tier.lru.remove(&(*touch, v.raw()));
        }
        self.tier.hot_bytes = self.tier.hot_bytes - *bytes + new_bytes;
        *bytes = new_bytes;
        *touch = clock;
        if new_bytes > 0 {
            self.tier.lru.insert((clock, v.raw()));
        }
    }

    fn demote(&mut self, v: VertexId) {
        let Some(slot) = self.slots.get_mut(v.index()) else {
            return;
        };
        if let Slot::Hot { set, bytes, .. } = slot {
            if set.is_empty() {
                return;
            }
            let cold = ColdList::encode(set);
            self.tier.hot_bytes -= *bytes;
            self.tier.cold_bytes += cold.arena_bytes();
            self.tier.demotions += 1;
            *slot = Slot::Cold(cold);
        }
    }

    /// Demote least-recently-touched sets until the hot tier fits the
    /// budget (or nothing demotable remains).
    fn enforce_budget(&mut self) {
        let Some(budget) = self.tier.budget else {
            return;
        };
        while self.tier.hot_bytes > budget {
            let Some(&(touch, raw)) = self.tier.lru.iter().next() else {
                break;
            };
            self.tier.lru.remove(&(touch, raw));
            self.demote(VertexId(raw));
        }
    }

    /// Insert the edge `(u, v)`.
    ///
    /// Grows the vertex set if needed.  Returns an error (and changes
    /// nothing) if the edge already exists or is a self-loop.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { v });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::EdgeExists { u, v });
        }
        self.ensure_vertex(u);
        self.ensure_vertex(v);
        self.promote(u);
        self.promote(v);
        if let Some(Slot::Hot { set, .. }) = self.slots.get_mut(u.index()) {
            set.insert(v);
        }
        if let Some(Slot::Hot { set, .. }) = self.slots.get_mut(v.index()) {
            set.insert(u);
        }
        self.num_edges += 1;
        self.touch(u);
        self.touch(v);
        self.enforce_budget();
        Ok(())
    }

    /// Delete the edge `(u, v)`.
    ///
    /// Returns an error (and changes nothing) if the edge does not exist.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { v });
        }
        if !self.has_edge(u, v) {
            return Err(GraphError::EdgeMissing { u, v });
        }
        self.promote(u);
        self.promote(v);
        if let Some(Slot::Hot { set, .. }) = self.slots.get_mut(u.index()) {
            set.remove(v);
        }
        if let Some(Slot::Hot { set, .. }) = self.slots.get_mut(v.index()) {
            set.remove(u);
        }
        self.num_edges -= 1;
        self.touch(u);
        self.touch(v);
        self.enforce_budget();
        Ok(())
    }

    /// Iterate over every edge exactly once, as canonical [`EdgeKey`]s.
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbours_iter(u)
                .filter(move |&x| u < x)
                .map(move |x| EdgeKey::new(u, x))
        })
    }

    /// The hot-tier byte budget currently applied to this graph (`None`
    /// = unbudgeted, everything stays hot).
    pub fn memory_budget(&self) -> Option<usize> {
        self.tier.budget
    }

    /// Set or clear the hot-tier byte budget and rebalance immediately.
    /// Budget accounting covers the heap bytes of non-empty hot
    /// adjacency sets (including their kernel summaries); per-slot and
    /// cold-arena overheads are reported by
    /// [`DynGraph::memory_breakdown`] but not budgeted.
    pub fn set_memory_budget(&mut self, budget: Option<usize>) {
        self.tier.budget = budget;
        self.enforce_budget();
    }

    /// Bytes currently resident in the hot tier (the quantity the budget
    /// bounds between mutations).
    pub fn resident_hot_bytes(&self) -> usize {
        self.tier.hot_bytes
    }

    /// Lifetime `(promotions, demotions)` counters — diagnostics and
    /// bench-gate plumbing.
    pub fn tier_counters(&self) -> (u64, u64) {
        (self.tier.promotions, self.tier.demotions)
    }

    /// Per-tier byte accounting: hot sets (excluding summaries), kernel
    /// bitset summaries, and the cold arena — the line items the
    /// `MemoryFootprint` satellite reports separately.
    pub fn memory_breakdown(&self) -> GraphMemoryBreakdown {
        let mut b = GraphMemoryBreakdown::default();
        for slot in &self.slots {
            match slot {
                Slot::Hot { set, .. } => {
                    let summary = set.summary_bytes();
                    b.summary_bytes += summary;
                    b.hot_bytes += set.memory_bytes() - summary;
                }
                Slot::Cold(c) => b.cold_bytes += c.arena_bytes(),
            }
        }
        b
    }

    /// Assemble a graph directly from pre-validated adjacency sets (the
    /// snapshot restore path; see [`crate::snapshot`]).  All sets start
    /// hot with touch order = vertex order; the caller rebalances once
    /// validation is done.
    pub(crate) fn from_parts(adjacency: Vec<IndexedSet>, num_edges: usize) -> Self {
        let mut g = DynGraph::new();
        g.slots.reserve_exact(adjacency.len());
        for (i, set) in adjacency.into_iter().enumerate() {
            g.tier.clock += 1;
            let touch = g.tier.clock;
            let bytes = if set.is_empty() {
                0
            } else {
                set.memory_bytes()
            };
            g.tier.hot_bytes += bytes;
            if bytes > 0 {
                g.tier.lru.insert((touch, i as u32));
            }
            g.slots.push(Slot::Hot { set, touch, bytes });
        }
        g.num_edges = num_edges;
        g
    }

    /// Fallibly grow the vertex space to `n` slots (the delta-restore
    /// path, where `n` is attacker-controlled input).
    pub(crate) fn try_grow(&mut self, n: usize) -> bool {
        if n <= self.slots.len() {
            return true;
        }
        if self.slots.try_reserve_exact(n - self.slots.len()).is_err() {
            return false;
        }
        self.slots.resize_with(n, Slot::default);
        true
    }

    /// Replace `v`'s adjacency with a pre-validated set (hot, freshly
    /// touched), fixing up tier accounting for whatever was there.
    pub(crate) fn set_adjacency(&mut self, v: VertexId, set: IndexedSet) {
        self.ensure_vertex(v);
        let Some(slot) = self.slots.get_mut(v.index()) else {
            return;
        };
        match slot {
            Slot::Hot { touch, bytes, .. } => {
                if *bytes > 0 {
                    self.tier.lru.remove(&(*touch, v.raw()));
                    self.tier.hot_bytes -= *bytes;
                }
            }
            Slot::Cold(c) => self.tier.cold_bytes -= c.arena_bytes(),
        }
        self.tier.clock += 1;
        let touch = self.tier.clock;
        let bytes = if set.is_empty() {
            0
        } else {
            set.memory_bytes()
        };
        self.tier.hot_bytes += bytes;
        if bytes > 0 {
            self.tier.lru.insert((touch, v.raw()));
        }
        *slot = Slot::Hot { set, touch, bytes };
    }

    /// Overwrite the edge count after an out-of-band adjacency rewrite
    /// (restore paths re-validate and recount).
    pub(crate) fn set_num_edges(&mut self, m: usize) {
        self.num_edges = m;
    }

    /// Re-apply the budget after a bulk rewrite (restore paths).
    pub(crate) fn rebalance(&mut self) {
        self.enforce_budget();
    }

    /// The exact size of the intersection of the closed neighbourhoods of
    /// `u` and `v`, i.e. `a = |N\[u\] ∩ N\[v\]|` in the paper's notation.
    ///
    /// Computed by the adaptive kernel ([`crate::kernel`]): hash probes
    /// over the smaller neighbourhood in scalar mode, bit probes or
    /// word-AND+popcount when hub summaries are available.  Every path is
    /// exact, so neither the kernel mode nor the tier split ever changes
    /// the result.
    pub fn closed_intersection_size(&self, u: VertexId, v: VertexId) -> usize {
        let nu = self.neighbours(u);
        let nv = self.neighbours(v);
        crate::kernel::closed_intersection_sets(u, v, &nu, &nv)
    }

    /// The exact size of the union of the closed neighbourhoods,
    /// `b = |N\[u\] ∪ N\[v\]| = |N\[u\]| + |N\[v\]| - a`.
    pub fn closed_union_size(&self, u: VertexId, v: VertexId) -> usize {
        self.closed_degree(u) + self.closed_degree(v) - self.closed_intersection_size(u, v)
    }
}

impl MemoryFootprint for DynGraph {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self
                .slots
                .iter()
                .map(|slot| match slot {
                    Slot::Hot { set, .. } => set.memory_bytes(),
                    Slot::Cold(c) => c.arena_bytes(),
                })
                .sum::<usize>()
            + self.tier.lru.len() * std::mem::size_of::<(u64, u32)>()
    }
}

/// A tiny helper module that provides a `'static` empty [`IndexedSet`] so
/// `neighbours()` can return a borrow even for out-of-range vertices.
mod once_empty {
    use crate::indexed_set::IndexedSet;
    use std::sync::OnceLock;

    pub(super) struct Empty;

    static EMPTY_SET: OnceLock<IndexedSet> = OnceLock::new();

    impl Empty {
        pub(super) fn get() -> &'static IndexedSet {
            EMPTY_SET.get_or_init(IndexedSet::new)
        }
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

    /// The small example graph of the paper's Figure 1(a) restricted to the
    /// cluster around u, w: enough structure for sanity checks.
    fn triangle_plus_tail() -> DynGraph {
        let (g, m) =
            DynGraph::from_edges(vec![(v(0), v(1)), (v(1), v(2)), (v(0), v(2)), (v(2), v(3))]);
        assert_eq!(m, 4);
        g
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = DynGraph::new();
        assert_eq!(g.num_vertices(), 0);
        g.insert_edge(v(0), v(5)).unwrap();
        assert_eq!(g.num_vertices(), 6, "vertex space grows to max id + 1");
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(v(0), v(5)));
        assert!(g.has_edge(v(5), v(0)), "undirected");
        assert_eq!(g.degree(v(0)), 1);
        assert_eq!(g.degree(v(5)), 1);
        assert_eq!(g.degree(v(3)), 0);

        g.delete_edge(v(5), v(0)).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert!(!g.has_edge(v(0), v(5)));
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_errors() {
        let mut g = DynGraph::new();
        g.insert_edge(v(1), v(2)).unwrap();
        assert_eq!(
            g.insert_edge(v(2), v(1)),
            Err(GraphError::EdgeExists { u: v(2), v: v(1) })
        );
        assert_eq!(
            g.delete_edge(v(1), v(3)),
            Err(GraphError::EdgeMissing { u: v(1), v: v(3) })
        );
        assert_eq!(
            g.insert_edge(v(4), v(4)),
            Err(GraphError::SelfLoop { v: v(4) })
        );
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn closed_neighbourhood_membership() {
        let g = triangle_plus_tail();
        assert!(g.in_closed_neighbourhood(v(0), v(0)), "v ∈ N[v]");
        assert!(g.in_closed_neighbourhood(v(1), v(0)));
        assert!(!g.in_closed_neighbourhood(v(3), v(0)));
        assert_eq!(g.closed_degree(v(2)), 4);
    }

    #[test]
    fn intersection_and_union_sizes() {
        let g = triangle_plus_tail();
        // N[0] = {0,1,2}, N[1] = {0,1,2}: intersection 3, union 3.
        assert_eq!(g.closed_intersection_size(v(0), v(1)), 3);
        assert_eq!(g.closed_union_size(v(0), v(1)), 3);
        // N[2] = {0,1,2,3}, N[3] = {2,3}: intersection {2,3} = 2, union 4.
        assert_eq!(g.closed_intersection_size(v(2), v(3)), 2);
        assert_eq!(g.closed_union_size(v(2), v(3)), 4);
        // Symmetric.
        assert_eq!(
            g.closed_intersection_size(v(3), v(2)),
            g.closed_intersection_size(v(2), v(3))
        );
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: HashSet<EdgeKey> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&EdgeKey::new(v(0), v(1))));
        assert!(edges.contains(&EdgeKey::new(v(2), v(3))));
    }

    #[test]
    fn closed_neighbourhood_sampling_hits_every_member() {
        let g = triangle_plus_tail();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = HashSet::new();
        for _ in 0..500 {
            let x = g.sample_closed_neighbourhood(v(2), &mut rng);
            assert!(g.in_closed_neighbourhood(x, v(2)));
            seen.insert(x);
        }
        assert_eq!(seen.len(), 4, "all of N[2] = {{0,1,2,3}} should be sampled");
    }

    #[test]
    fn from_edges_skips_duplicates_and_self_loops() {
        let (g, inserted) =
            DynGraph::from_edges(vec![(v(0), v(1)), (v(1), v(0)), (v(2), v(2)), (v(1), v(2))]);
        assert_eq!(inserted, 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn neighbours_of_unknown_vertex_is_empty() {
        let g = DynGraph::new();
        assert_eq!(g.neighbours(v(99)).len(), 0);
        assert_eq!(g.degree(v(99)), 0);
    }

    #[test]
    fn footprint_grows_with_graph() {
        let small = triangle_plus_tail();
        let (big, _) = DynGraph::from_edges((0..500u32).map(|i| (v(i), v(i + 1))));
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    /// A budget of one byte forces every non-empty set cold after each
    /// mutation — the harshest possible schedule.  Every observable must
    /// still match the unbudgeted graph exactly.
    #[test]
    fn tiered_graph_is_byte_identical_to_untiered() {
        let edges: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|i| {
                let j = (i * 7 + 3) % 40;
                (i != j).then_some((i.min(j), i.max(j)))
            })
            .collect();
        let mut hot = DynGraph::new();
        hot.set_memory_budget(None);
        let mut tiered = DynGraph::new();
        tiered.set_memory_budget(Some(1));
        for &(a, b) in &edges {
            assert_eq!(
                hot.insert_edge(v(a), v(b)).is_ok(),
                tiered.insert_edge(v(a), v(b)).is_ok()
            );
        }
        // Delete a third of them, shuffling slot order via swap-remove.
        for &(a, b) in edges.iter().step_by(3) {
            assert_eq!(
                hot.delete_edge(v(a), v(b)).is_ok(),
                tiered.delete_edge(v(a), v(b)).is_ok()
            );
        }
        let (_, demotions) = tiered.tier_counters();
        assert!(demotions > 0, "budget of 1 byte must force demotions");
        assert!(
            tiered.memory_breakdown().cold_bytes > 0,
            "cold tier must hold the demoted sets"
        );
        assert_eq!(hot.num_vertices(), tiered.num_vertices());
        assert_eq!(hot.num_edges(), tiered.num_edges());
        for x in hot.vertices() {
            assert_eq!(
                hot.neighbours(x).as_slice(),
                tiered.neighbours(x).as_slice(),
                "slot order must survive demote/promote cycles for vertex {x}"
            );
            assert_eq!(
                hot.neighbours_iter(x).collect::<Vec<_>>(),
                tiered.neighbours_iter(x).collect::<Vec<_>>()
            );
            for i in 0..hot.degree(x) {
                assert_eq!(hot.neighbour_at(x, i), tiered.neighbour_at(x, i));
            }
        }
        assert_eq!(
            hot.edges().collect::<Vec<_>>(),
            tiered.edges().collect::<Vec<_>>()
        );
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                assert_eq!(hot.has_edge(v(a), v(b)), tiered.has_edge(v(a), v(b)));
                assert_eq!(
                    hot.closed_intersection_size(v(a), v(b)),
                    tiered.closed_intersection_size(v(a), v(b))
                );
            }
        }
        // Positional sampling consumes identical random bits.
        let mut rng_a = SmallRng::seed_from_u64(99);
        let mut rng_b = SmallRng::seed_from_u64(99);
        for x in 0..40u32 {
            assert_eq!(
                hot.sample_closed_neighbourhood(v(x), &mut rng_a),
                tiered.sample_closed_neighbourhood(v(x), &mut rng_b)
            );
        }
    }

    #[test]
    fn budget_bounds_resident_hot_bytes() {
        let mut g = DynGraph::new();
        g.set_memory_budget(Some(4096));
        for i in 0..200u32 {
            g.insert_edge(v(i), v((i + 1) % 200)).unwrap();
            g.insert_edge(v(i), v((i + 7) % 200)).unwrap_or(());
        }
        assert!(
            g.resident_hot_bytes() <= 4096,
            "hot tier {} exceeds the 4096-byte budget",
            g.resident_hot_bytes()
        );
        let breakdown = g.memory_breakdown();
        assert!(breakdown.cold_bytes > 0);
        // Lifting the budget changes nothing until the next mutation
        // promotes, and correctness is unaffected either way.
        g.set_memory_budget(None);
        assert_eq!(g.degree(v(0)), 4, "edges (0,1), (0,7), (199,0), (193,0)");
    }

    proptest! {
        /// Insertions and deletions agree with a reference edge set, and the
        /// derived quantities (degree, edge count) stay consistent.  A
        /// shadow graph under a tiny memory budget must agree with the
        /// unbudgeted graph on every observable.
        #[test]
        fn matches_reference_edge_set(
            ops in prop::collection::vec((any::<bool>(), 0u32..20, 0u32..20), 0..300)
        ) {
            let mut g = DynGraph::new();
            let mut tiered = DynGraph::new();
            tiered.set_memory_budget(Some(256));
            let mut reference: HashSet<(u32, u32)> = HashSet::new();
            for (is_insert, a, b) in ops {
                if a == b { continue; }
                let key = (a.min(b), a.max(b));
                if is_insert {
                    let ok = g.insert_edge(v(a), v(b)).is_ok();
                    prop_assert_eq!(tiered.insert_edge(v(a), v(b)).is_ok(), ok);
                    prop_assert_eq!(ok, reference.insert(key));
                } else {
                    let ok = g.delete_edge(v(a), v(b)).is_ok();
                    prop_assert_eq!(tiered.delete_edge(v(a), v(b)).is_ok(), ok);
                    prop_assert_eq!(ok, reference.remove(&key));
                }
                prop_assert_eq!(g.num_edges(), reference.len());
                prop_assert_eq!(tiered.num_edges(), reference.len());
            }
            // Degrees match the reference; slot order matches the
            // untiered graph exactly.
            for x in 0u32..20 {
                let expected = reference.iter().filter(|(a, b)| *a == x || *b == x).count();
                prop_assert_eq!(g.degree(v(x)), expected);
                prop_assert_eq!(tiered.degree(v(x)), expected);
                prop_assert_eq!(
                    g.neighbours(v(x)).as_slice(),
                    tiered.neighbours(v(x)).as_slice()
                );
            }
            // Exact intersection sizes match a brute-force computation.
            for u in 0u32..6 {
                for w in (u + 1)..6 {
                    let nu: HashSet<u32> = g.neighbours_iter(v(u)).map(|x| x.raw())
                        .chain(std::iter::once(u)).collect();
                    let nw: HashSet<u32> = g.neighbours_iter(v(w)).map(|x| x.raw())
                        .chain(std::iter::once(w)).collect();
                    prop_assert_eq!(
                        g.closed_intersection_size(v(u), v(w)),
                        nu.intersection(&nw).count()
                    );
                    prop_assert_eq!(
                        tiered.closed_intersection_size(v(u), v(w)),
                        nu.intersection(&nw).count()
                    );
                    prop_assert_eq!(g.closed_union_size(v(u), v(w)), nu.union(&nw).count());
                }
            }
        }
    }
}
