//! The registry tying shared counters, per-vertex heaps and per-edge
//! coordinators together.

use crate::coordinator::{Coordinator, CoordinatorState, SignalOutcome};
use crate::heap::{DtHeap, ParticipantEntry};
use dynscan_graph::{EdgeKey, MemoryFootprint, SnapReader, SnapWriter, SnapshotError, VertexId};
use std::collections::HashMap;

/// All DT state of a graph: one shared counter and one [`DtHeap`] per
/// vertex, one [`Coordinator`] per tracked edge.
///
/// The clustering layer drives it with three calls per batch of graph
/// updates (a single update is a batch of one):
///
/// 1. [`DtRegistry::increment`] on both endpoints of every applied update
///    (the affecting updates),
/// 2. [`DtRegistry::deregister`] for every deleted edge, and later
///    [`DtRegistry::register`] for every new or relabelled edge,
/// 3. one [`DtRegistry::drain_ready_batch`] over all the endpoints, which
///    walks their checkpoint-ready heap entries once, simulates the DT
///    signals, and returns the edges whose instances matured — exactly
///    the edges that must be relabelled.
#[derive(Clone, Debug, Default)]
pub struct DtRegistry {
    counters: Vec<u64>,
    heaps: Vec<DtHeap>,
    coordinators: HashMap<EdgeKey, Coordinator>,
}

impl DtRegistry {
    /// Create a registry over `n` vertices.
    pub fn new(n: usize) -> Self {
        DtRegistry {
            counters: vec![0; n],
            heaps: (0..n).map(|_| DtHeap::new()).collect(),
            coordinators: HashMap::new(),
        }
    }

    /// Grow the vertex space to at least `n`.
    pub fn ensure_vertices(&mut self, n: usize) {
        if self.counters.len() < n {
            self.counters.resize(n, 0);
            self.heaps.resize_with(n, DtHeap::new);
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.counters.len()
    }

    /// The shared counter `s_v`.
    pub fn shared_counter(&self, v: VertexId) -> u64 {
        self.counters.get(v.index()).copied().unwrap_or(0)
    }

    /// Whether the edge has an active DT instance.
    pub fn is_tracked(&self, key: EdgeKey) -> bool {
        self.coordinators.contains_key(&key)
    }

    /// Number of active DT instances.
    pub fn num_tracked(&self) -> usize {
        self.coordinators.len()
    }

    /// Messages exchanged so far by the instance tracking `key`.
    pub fn messages(&self, key: EdgeKey) -> Option<u64> {
        self.coordinators.get(&key).map(|c| c.messages())
    }

    /// Start tracking `key` with threshold `tau ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if the edge is already tracked.
    pub fn register(&mut self, key: EdgeKey, tau: u64) {
        assert!(
            !self.coordinators.contains_key(&key),
            "edge {key:?} is already tracked"
        );
        let (u, v) = key.endpoints();
        self.ensure_vertices(u.index().max(v.index()) + 1);
        let coordinator = Coordinator::new(tau);
        let slack = coordinator.slack();
        for (me, other) in [(u, v), (v, u)] {
            let s = self.counters[me.index()];
            self.heaps[me.index()].insert(
                other,
                ParticipantEntry {
                    round_start: s,
                    checkpoint: s + slack,
                },
            );
        }
        self.coordinators.insert(key, coordinator);
    }

    /// Stop tracking `key` (e.g. because the edge was deleted).  Returns
    /// `true` if it was tracked.
    pub fn deregister(&mut self, key: EdgeKey) -> bool {
        if self.coordinators.remove(&key).is_none() {
            return false;
        }
        let (u, v) = key.endpoints();
        self.heaps[u.index()].remove(v);
        self.heaps[v.index()].remove(u);
        true
    }

    /// Record one affecting update incident on `v` (increments `s_v`).
    pub fn increment(&mut self, v: VertexId) {
        self.ensure_vertices(v.index() + 1);
        self.counters[v.index()] += 1;
    }

    /// Drain: process the checkpoint-ready entries of every given vertex,
    /// visiting each distinct vertex once, simulating the DT signals, and
    /// return the sorted set of edges whose instances matured.  Those
    /// instances are removed; the caller relabels the edges and
    /// [`DtRegistry::register`]s them again with fresh thresholds.
    ///
    /// The caller increments every affecting update first and drains once
    /// at the end (a single update is a batch of one), so an edge incident
    /// to a busy vertex is examined once per batch, not once per update.
    /// Correctness relies on the coordinator protocol being driven purely
    /// by the shared counters: an instance matures during a deferred drain
    /// if and only if the accumulated affecting updates crossed its
    /// threshold, exactly as it would have under per-update drains (the
    /// simple-mode coordinator replays one signal per pending increment
    /// inside the drain loop).
    ///
    /// `log`, when given, receives every edge that received a signal (its
    /// coordinator state advanced, matured or not): a signal rewrites only
    /// that edge's coordinator and its two participant heap entries, so
    /// the signalled edges are exactly the drain's writes beyond the
    /// shared counters the caller incremented.
    pub fn drain_ready_batch<I>(
        &mut self,
        vertices: I,
        mut log: Option<&mut Vec<EdgeKey>>,
    ) -> Vec<EdgeKey>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut seen: Vec<VertexId> = vertices.into_iter().collect();
        seen.sort_unstable();
        seen.dedup();
        let mut matured = Vec::new();
        for v in seen {
            if v.index() >= self.heaps.len() {
                continue;
            }
            self.drain_vertex(v, &mut matured, log.as_deref_mut());
        }
        // Maturity removes the coordinator, so an edge can only be
        // reported by the drain of one endpoint; dedup is defensive.
        matured.sort_unstable();
        matured.dedup();
        matured
    }

    /// Walk `DtHeap(v)`'s checkpoint-ready entries, appending matured
    /// edges to `matured` and signalled edges to `log`.
    fn drain_vertex(
        &mut self,
        v: VertexId,
        matured: &mut Vec<EdgeKey>,
        mut log: Option<&mut Vec<EdgeKey>>,
    ) {
        loop {
            let s_v = self.counters[v.index()];
            let Some((nb, entry)) = self.heaps[v.index()].pop_ready(s_v) else {
                break;
            };
            let key = EdgeKey::new(v, nb);
            let other_entry = self.heaps[nb.index()]
                .get(v)
                .expect("participant entries are kept symmetric");
            let s_nb = self.counters[nb.index()];
            let outcome = self
                .coordinators
                .get_mut(&key)
                .expect("tracked edge has a coordinator")
                .on_signal(|| [s_v - entry.round_start, s_nb - other_entry.round_start]);
            if let Some(log) = log.as_deref_mut() {
                log.push(key);
            }
            match outcome {
                SignalOutcome::ContinueRound { slack } => {
                    // Same round: only this participant's checkpoint moves.
                    self.heaps[v.index()].insert(
                        nb,
                        ParticipantEntry {
                            round_start: entry.round_start,
                            checkpoint: entry.checkpoint + slack,
                        },
                    );
                }
                SignalOutcome::NewRound { slack } => {
                    // Both participants restart from their current counters.
                    self.heaps[v.index()].insert(
                        nb,
                        ParticipantEntry {
                            round_start: s_v,
                            checkpoint: s_v + slack,
                        },
                    );
                    self.heaps[nb.index()].reset(
                        v,
                        ParticipantEntry {
                            round_start: s_nb,
                            checkpoint: s_nb + slack,
                        },
                    );
                }
                SignalOutcome::Mature => {
                    self.heaps[nb.index()].remove(v);
                    self.coordinators.remove(&key);
                    matured.push(key);
                }
            }
        }
    }

    /// One participant-side heap entry, if the edge is tracked: the entry
    /// vertex `v` holds for its neighbour `nb`.
    pub fn heap_entry(&self, v: VertexId, nb: VertexId) -> Option<ParticipantEntry> {
        self.heaps.get(v.index())?.get(nb)
    }

    /// The mid-round protocol state of one edge's coordinator, if tracked.
    pub fn coordinator_state(&self, key: EdgeKey) -> Option<CoordinatorState> {
        self.coordinators.get(&key).map(Coordinator::state)
    }

    /// Delta restore: set one vertex's shared counter (growing the vertex
    /// space as needed).  The caller must finish with
    /// [`DtRegistry::validate`] — partial application is not a consistent
    /// registry.
    pub fn delta_set_counter(&mut self, v: VertexId, counter: u64) {
        self.ensure_vertices(v.index() + 1);
        self.counters[v.index()] = counter;
    }

    /// Delta restore: install or replace the heap entry `v` holds for its
    /// neighbour `nb`.
    pub fn delta_set_entry(&mut self, v: VertexId, nb: VertexId, entry: ParticipantEntry) {
        self.ensure_vertices(v.index().max(nb.index()) + 1);
        let heap = &mut self.heaps[v.index()];
        if heap.get(nb).is_some() {
            heap.reset(nb, entry);
        } else {
            heap.insert(nb, entry);
        }
    }

    /// Delta restore: drop the heap entry `v` holds for `nb`, if present.
    pub fn delta_remove_entry(&mut self, v: VertexId, nb: VertexId) {
        if let Some(heap) = self.heaps.get_mut(v.index()) {
            heap.remove(nb);
        }
    }

    /// Delta restore: install (or replace) one edge's coordinator from its
    /// serialised protocol state.
    pub fn delta_set_coordinator(
        &mut self,
        key: EdgeKey,
        state: CoordinatorState,
    ) -> Result<(), SnapshotError> {
        let coordinator = Coordinator::from_state(state)
            .ok_or(SnapshotError::Corrupt("inconsistent coordinator state"))?;
        let (u, v) = key.endpoints();
        self.ensure_vertices(u.index().max(v.index()) + 1);
        self.coordinators.insert(key, coordinator);
        Ok(())
    }

    /// Delta restore: drop one edge's coordinator (its heap entries are
    /// replaced through [`DtRegistry::delta_remove_entry`] by the caller).
    pub fn delta_remove_coordinator(&mut self, key: EdgeKey) {
        self.coordinators.remove(&key);
    }

    /// Grow the vertex space to exactly match a snapshot's recorded size
    /// (growth only; a shrink is a corrupt delta).  The allocation is
    /// fallible: a crafted document declaring an absurd vertex count
    /// errors instead of aborting on allocation failure.
    pub fn delta_grow_vertices(&mut self, n: usize) -> Result<(), SnapshotError> {
        if n < self.counters.len() {
            return Err(SnapshotError::Corrupt("delta shrinks the DT vertex space"));
        }
        let grow = n - self.counters.len();
        self.counters
            .try_reserve_exact(grow)
            .and_then(|()| self.heaps.try_reserve_exact(grow))
            .map_err(|_| SnapshotError::Corrupt("DT vertex space exceeds available memory"))?;
        self.ensure_vertices(n);
        Ok(())
    }

    /// Cross-check heaps and coordinators against each other — the same
    /// invariants [`DtRegistry::read_snapshot`] enforces during a full
    /// decode, callable after a sequence of delta mutators.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        let n = self.counters.len();
        if self.heaps.len() != n {
            return Err(SnapshotError::Corrupt(
                "counter/heap vector length mismatch",
            ));
        }
        let mut heap_entries = 0usize;
        for (v, heap) in self.heaps.iter().enumerate() {
            for (neighbour, _) in heap.entries() {
                if neighbour.index() >= n || neighbour.index() == v {
                    return Err(SnapshotError::Corrupt("heap entry neighbour out of range"));
                }
                let key = EdgeKey::new(VertexId(v as u32), neighbour);
                if !self.coordinators.contains_key(&key) {
                    return Err(SnapshotError::Corrupt("heap entry without a coordinator"));
                }
                heap_entries += 1;
            }
        }
        for key in self.coordinators.keys() {
            let (u, v) = key.endpoints();
            if v.index() >= n {
                return Err(SnapshotError::Corrupt(
                    "coordinator edge out of vertex range",
                ));
            }
            if self.heaps[u.index()].get(v).is_none() || self.heaps[v.index()].get(u).is_none() {
                return Err(SnapshotError::Corrupt(
                    "coordinator missing its heap entries",
                ));
            }
        }
        if heap_entries != 2 * self.coordinators.len() {
            return Err(SnapshotError::Corrupt(
                "heap entries not paired with coordinators",
            ));
        }
        Ok(())
    }

    /// Serialise the full tracking state — shared counters, per-vertex
    /// checkpoint-heap entries and every coordinator's mid-round protocol
    /// state — in canonical (sorted) order.
    ///
    /// Restoring from these bytes resumes every DT instance exactly where
    /// it stopped: rounds in flight keep their slack, signal counts and
    /// round-start counters, so maturity fires after precisely the same
    /// future affecting updates as it would have on the uninterrupted
    /// instance.
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        w.len_prefix(self.counters.len());
        for &c in &self.counters {
            w.u64(c);
        }
        for heap in &self.heaps {
            let mut entries: Vec<(VertexId, ParticipantEntry)> = heap.entries().collect();
            entries.sort_unstable_by_key(|&(n, _)| n);
            w.len_prefix(entries.len());
            let mut prev: Option<VertexId> = None;
            for (n, entry) in entries {
                w.vertex_seq(&mut prev, n);
                w.u64(entry.round_start);
                w.u64(entry.checkpoint);
            }
        }
        let mut coordinators: Vec<(EdgeKey, CoordinatorState)> = self
            .coordinators
            .iter()
            .map(|(&k, c)| (k, c.state()))
            .collect();
        coordinators.sort_unstable_by_key(|&(k, _)| k);
        w.len_prefix(coordinators.len());
        let mut prev: Option<EdgeKey> = None;
        for (key, state) in coordinators {
            w.edge_key_seq(&mut prev, key);
            w.u64(state.remaining);
            w.u64(state.slack);
            w.bool(state.simple);
            w.u64(state.signals);
            w.u64(state.counted);
            w.u64(state.messages);
        }
    }

    /// Rebuild a registry from [`DtRegistry::write_snapshot`] bytes,
    /// validating that heap entries and coordinators describe each other
    /// symmetrically.
    pub fn read_snapshot(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len_prefix()?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            counters.push(r.u64()?);
        }
        let mut heaps: Vec<DtHeap> = Vec::with_capacity(n);
        let mut heap_entries = 0usize;
        for v in 0..n {
            let count = r.len_prefix()?;
            let mut heap = DtHeap::new();
            let mut prev: Option<VertexId> = None;
            for _ in 0..count {
                let neighbour = r.vertex_seq(&mut prev)?;
                if neighbour.index() >= n || neighbour.index() == v {
                    return Err(SnapshotError::Corrupt("heap entry neighbour out of range"));
                }
                let entry = ParticipantEntry {
                    round_start: r.u64()?,
                    checkpoint: r.u64()?,
                };
                if heap.get(neighbour).is_some() {
                    return Err(SnapshotError::Corrupt("duplicate heap entry"));
                }
                heap.insert(neighbour, entry);
            }
            heap_entries += count;
            heaps.push(heap);
        }
        let coordinator_count = r.len_prefix()?;
        let mut coordinators = HashMap::with_capacity(coordinator_count);
        let mut prev: Option<EdgeKey> = None;
        for _ in 0..coordinator_count {
            let key = r.edge_key_seq(&mut prev)?;
            let state = CoordinatorState {
                remaining: r.u64()?,
                slack: r.u64()?,
                simple: r.bool()?,
                signals: r.u64()?,
                counted: r.u64()?,
                messages: r.u64()?,
            };
            let coordinator = Coordinator::from_state(state)
                .ok_or(SnapshotError::Corrupt("inconsistent coordinator state"))?;
            let (u, v) = key.endpoints();
            if v.index() >= n {
                return Err(SnapshotError::Corrupt(
                    "coordinator edge out of vertex range",
                ));
            }
            if heaps[u.index()].get(v).is_none() || heaps[v.index()].get(u).is_none() {
                return Err(SnapshotError::Corrupt(
                    "coordinator missing its heap entries",
                ));
            }
            if coordinators.insert(key, coordinator).is_some() {
                return Err(SnapshotError::Corrupt("duplicate coordinator"));
            }
        }
        r.finish()?;
        if heap_entries != 2 * coordinator_count {
            return Err(SnapshotError::Corrupt(
                "heap entries not paired with coordinators",
            ));
        }
        Ok(DtRegistry {
            counters,
            heaps,
            coordinators,
        })
    }
}

impl MemoryFootprint for DtRegistry {
    fn memory_bytes(&self) -> usize {
        dynscan_graph::footprint::vec_bytes(&self.counters)
            + self
                .heaps
                .iter()
                .map(MemoryFootprint::memory_bytes)
                .sum::<usize>()
            + dynscan_graph::footprint::hashmap_bytes(&self.coordinators)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn key(a: u32, b: u32) -> EdgeKey {
        EdgeKey::new(v(a), v(b))
    }

    /// Drive a single instance: apply `updates` affecting updates, split
    /// between the two endpoints according to `pattern`, and return the
    /// 1-based index of the update at which the instance matured.
    fn maturity_index(tau: u64, pattern: impl Iterator<Item = bool>) -> Option<usize> {
        let mut reg = DtRegistry::new(2);
        reg.register(key(0, 1), tau);
        for (i, on_first) in pattern.enumerate() {
            let side = if on_first { v(0) } else { v(1) };
            reg.increment(side);
            let matured = reg.drain_ready_batch([side], None);
            if matured.contains(&key(0, 1)) {
                return Some(i + 1);
            }
        }
        None
    }

    #[test]
    fn matures_exactly_at_threshold_simple_mode() {
        for tau in 1..=8u64 {
            let idx = maturity_index(tau, (0..100).map(|i| i % 2 == 0));
            assert_eq!(idx, Some(tau as usize), "τ = {tau}");
        }
    }

    #[test]
    fn matures_exactly_at_threshold_slack_mode() {
        for tau in [9u64, 17, 64, 100, 257] {
            // All updates on one side.
            assert_eq!(
                maturity_index(tau, std::iter::repeat_n(true, 1000)),
                Some(tau as usize),
                "one-sided, τ = {tau}"
            );
            // Alternating sides.
            assert_eq!(
                maturity_index(tau, (0..1000).map(|i| i % 2 == 0)),
                Some(tau as usize),
                "alternating, τ = {tau}"
            );
            // Skewed 3:1 split.
            assert_eq!(
                maturity_index(tau, (0..1000).map(|i| i % 4 != 0)),
                Some(tau as usize),
                "skewed, τ = {tau}"
            );
        }
    }

    #[test]
    fn message_count_stays_logarithmic() {
        let tau = 100_000u64;
        let mut reg = DtRegistry::new(2);
        reg.register(key(0, 1), tau);
        let mut matured_at = None;
        for i in 0..tau {
            let side = if i % 3 == 0 { v(0) } else { v(1) };
            reg.increment(side);
            if !reg.drain_ready_batch([side], None).is_empty() {
                matured_at = Some(i + 1);
                break;
            }
            if let Some(m) = reg.messages(key(0, 1)) {
                assert!(m < 500, "messages {m} should stay O(log τ)");
            }
        }
        assert_eq!(matured_at, Some(tau));
    }

    #[test]
    fn deregister_removes_both_sides() {
        let mut reg = DtRegistry::new(3);
        reg.register(key(0, 1), 10);
        reg.register(key(0, 2), 10);
        assert_eq!(reg.num_tracked(), 2);
        assert!(reg.deregister(key(0, 1)));
        assert!(!reg.deregister(key(0, 1)));
        assert_eq!(reg.num_tracked(), 1);
        // The remaining instance still matures correctly.
        for _ in 0..9 {
            reg.increment(v(0));
            assert!(reg.drain_ready_batch([v(0)], None).is_empty());
        }
        reg.increment(v(2));
        assert_eq!(reg.drain_ready_batch([v(2)], None), vec![key(0, 2)]);
    }

    #[test]
    fn instances_sharing_a_vertex_are_independent() {
        let mut reg = DtRegistry::new(4);
        reg.register(key(0, 1), 3);
        reg.register(key(0, 2), 5);
        reg.register(key(0, 3), 100);
        let mut matured = Vec::new();
        for i in 0..10u64 {
            reg.increment(v(0));
            for e in reg.drain_ready_batch([v(0)], None) {
                matured.push((i + 1, e));
            }
        }
        assert_eq!(matured, vec![(3, key(0, 1)), (5, key(0, 2))]);
        assert!(reg.is_tracked(key(0, 3)));
    }

    #[test]
    fn re_registration_after_maturity_restarts_tracking() {
        let mut reg = DtRegistry::new(2);
        reg.register(key(0, 1), 2);
        reg.increment(v(0));
        assert!(reg.drain_ready_batch([v(0)], None).is_empty());
        reg.increment(v(1));
        assert_eq!(reg.drain_ready_batch([v(1)], None), vec![key(0, 1)]);
        assert!(!reg.is_tracked(key(0, 1)));
        // Restart with a new threshold.
        reg.register(key(0, 1), 3);
        reg.increment(v(0));
        reg.increment(v(0));
        assert!(reg.drain_ready_batch([v(0)], None).is_empty());
        reg.increment(v(1));
        assert_eq!(reg.drain_ready_batch([v(1)], None), vec![key(0, 1)]);
    }

    #[test]
    fn drain_without_increment_is_empty() {
        let mut reg = DtRegistry::new(2);
        reg.register(key(0, 1), 4);
        assert!(reg.drain_ready_batch([v(0)], None).is_empty());
        assert!(reg.drain_ready_batch([v(1)], None).is_empty());
        assert!(
            reg.drain_ready_batch([v(5)], None).is_empty(),
            "unknown vertex is fine"
        );
    }

    #[test]
    fn deferred_batch_drain_detects_maturity() {
        // Increment without draining (as the batch engine does), then drain
        // everything once: instances whose thresholds were crossed mature,
        // the others keep running.
        let mut reg = DtRegistry::new(4);
        reg.register(key(0, 1), 3);
        reg.register(key(0, 2), 5);
        reg.register(key(0, 3), 50);
        for _ in 0..2 {
            reg.increment(v(0));
        }
        reg.increment(v(1));
        reg.increment(v(2));
        reg.increment(v(2));
        reg.increment(v(2));
        // (0,1): 2 + 1 = 3 ≥ 3 matured; (0,2): 2 + 3 = 5 ≥ 5 matured;
        // (0,3): 2 < 50 keeps running.
        let matured = reg.drain_ready_batch([v(0), v(1), v(2), v(2), v(3), v(9)], None);
        assert_eq!(matured, vec![key(0, 1), key(0, 2)]);
        assert!(reg.is_tracked(key(0, 3)));
        assert!(!reg.is_tracked(key(0, 1)));
        // A second batch drain with no new increments finds nothing.
        assert!(reg
            .drain_ready_batch([v(0), v(1), v(2), v(3)], None)
            .is_empty());
    }

    #[test]
    fn deferred_drain_matches_eager_drain_on_maturity_set() {
        // The same increment sequence, drained eagerly vs. once at the end,
        // matures the same set of edges.
        let build = || {
            let mut reg = DtRegistry::new(3);
            reg.register(key(0, 1), 4);
            reg.register(key(1, 2), 7);
            reg
        };
        let updates = [v(0), v(1), v(1), v(2), v(0), v(1), v(2), v(2), v(1)];
        let mut eager = build();
        let mut eager_matured = Vec::new();
        for &x in &updates {
            eager.increment(x);
            eager_matured.extend(eager.drain_ready_batch([x], None));
        }
        let mut deferred = build();
        for &x in &updates {
            deferred.increment(x);
        }
        let deferred_matured = deferred.drain_ready_batch(updates, None);
        eager_matured.sort_unstable();
        assert_eq!(eager_matured, deferred_matured);
    }

    #[test]
    fn drain_log_holds_exactly_the_signalled_edges() {
        // Simple-mode instances signal on every pending increment; the
        // slack-mode one (τ = 100) stays quiet for a single increment.
        let mut reg = DtRegistry::new(5);
        reg.register(key(0, 1), 2);
        reg.register(key(0, 2), 3);
        reg.register(key(0, 3), 100);
        reg.register(key(3, 4), 2);
        reg.increment(v(0));
        let mut log = Vec::new();
        assert!(reg.drain_ready_batch([v(0)], Some(&mut log)).is_empty());
        log.sort_unstable();
        assert_eq!(log, vec![key(0, 1), key(0, 2)]);
        reg.increment(v(1));
        let mut log = Vec::new();
        assert_eq!(
            reg.drain_ready_batch([v(1), v(4)], Some(&mut log)),
            vec![key(0, 1)]
        );
        assert_eq!(log, vec![key(0, 1)], "no vertex and no quiet edge");
    }

    fn snapshot_roundtrip(reg: &DtRegistry) -> DtRegistry {
        let mut w = SnapWriter::new();
        reg.write_snapshot(&mut w);
        let bytes = w.into_bytes();
        DtRegistry::read_snapshot(&mut SnapReader::new(&bytes)).expect("roundtrip")
    }

    #[test]
    fn snapshot_restores_mid_round_state() {
        // Drive an instance partway through a slack-mode round, snapshot,
        // and check both copies mature at exactly the same future update.
        let mut reg = DtRegistry::new(2);
        reg.register(key(0, 1), 100);
        for i in 0..40u64 {
            let side = if i % 3 == 0 { v(0) } else { v(1) };
            reg.increment(side);
            assert!(
                reg.drain_ready_batch([side], None).is_empty(),
                "must not mature before τ"
            );
        }
        let mut restored = snapshot_roundtrip(&reg);
        assert_eq!(restored.num_vertices(), reg.num_vertices());
        assert_eq!(restored.num_tracked(), 1);
        assert_eq!(restored.messages(key(0, 1)), reg.messages(key(0, 1)));
        let mut matured_live = None;
        let mut matured_restored = None;
        for i in 40..200u64 {
            let side = if i % 3 == 0 { v(0) } else { v(1) };
            for (registry, matured_at) in [
                (&mut reg, &mut matured_live),
                (&mut restored, &mut matured_restored),
            ] {
                registry.increment(side);
                if matured_at.is_none() && !registry.drain_ready_batch([side], None).is_empty() {
                    *matured_at = Some(i + 1);
                }
            }
        }
        assert_eq!(
            matured_live,
            Some(100),
            "τ = 100 instance matures at the 100th update"
        );
        assert_eq!(
            matured_restored, matured_live,
            "restored registry must track identically"
        );
    }

    #[test]
    fn snapshot_of_empty_and_multi_edge_registries_roundtrips() {
        let empty = snapshot_roundtrip(&DtRegistry::new(0));
        assert_eq!(empty.num_vertices(), 0);
        assert_eq!(empty.num_tracked(), 0);

        let mut reg = DtRegistry::new(5);
        reg.register(key(0, 1), 3);
        reg.register(key(0, 2), 17);
        reg.register(key(3, 4), 64);
        reg.increment(v(0));
        reg.increment(v(3));
        let restored = snapshot_roundtrip(&reg);
        assert_eq!(restored.num_tracked(), 3);
        for e in [key(0, 1), key(0, 2), key(3, 4)] {
            assert_eq!(restored.messages(e), reg.messages(e), "edge {e:?}");
        }
        for x in 0..5u32 {
            assert_eq!(restored.shared_counter(v(x)), reg.shared_counter(v(x)));
        }
    }

    #[test]
    fn snapshot_rejects_inconsistent_state() {
        // A coordinator without heap entries.
        let mut w = SnapWriter::new();
        w.len_prefix(2); // n = 2
        w.u64(0);
        w.u64(0);
        w.len_prefix(0); // heap 0 empty
        w.len_prefix(0); // heap 1 empty
        w.len_prefix(1); // one coordinator
        w.edge(key(0, 1));
        w.u64(5); // remaining
        w.u64(1); // slack
        w.u8(1); // simple
        w.u64(0);
        w.u64(0);
        w.u64(2);
        let bytes = w.into_bytes();
        assert!(matches!(
            DtRegistry::read_snapshot(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt(
                "coordinator missing its heap entries"
            ))
        ));
        // A matured coordinator (remaining = 0) must have been removed.
        assert!(Coordinator::from_state(CoordinatorState {
            remaining: 0,
            slack: 1,
            simple: true,
            signals: 0,
            counted: 0,
            messages: 2,
        })
        .is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Whatever the split of affecting updates between the two
        /// endpoints, maturity is reported exactly at the τ-th update.
        #[test]
        fn maturity_is_exact(tau in 1u64..400, pattern in prop::collection::vec(any::<bool>(), 400)) {
            let idx = maturity_index(tau, pattern.into_iter());
            prop_assert_eq!(idx, Some(tau as usize));
        }

        /// Checkpointing at an arbitrary point of an arbitrary update
        /// pattern never shifts the maturity index: the restored registry
        /// matures at exactly the τ-th update, like the live one.
        #[test]
        fn snapshot_preserves_maturity_exactly(
            tau in 1u64..300,
            pattern in prop::collection::vec(any::<bool>(), 300),
            cut in 0usize..300,
        ) {
            let mut reg = DtRegistry::new(2);
            reg.register(key(0, 1), tau);
            let mut live_maturity = None;
            let mut restored: Option<DtRegistry> = None;
            let mut restored_maturity = None;
            for (i, &on_first) in pattern.iter().enumerate() {
                if i == cut && live_maturity.is_none() {
                    restored = Some(snapshot_roundtrip(&reg));
                }
                let side = if on_first { v(0) } else { v(1) };
                reg.increment(side);
                if live_maturity.is_none() && reg.drain_ready_batch([side], None).contains(&key(0, 1)) {
                    live_maturity = Some(i + 1);
                }
                if let Some(registry) = restored.as_mut() {
                    registry.increment(side);
                    if restored_maturity.is_none()
                        && registry.drain_ready_batch([side], None).contains(&key(0, 1))
                    {
                        restored_maturity = Some(i + 1);
                    }
                }
            }
            prop_assert_eq!(live_maturity, Some(tau as usize));
            if restored.is_some() {
                prop_assert_eq!(restored_maturity, Some(tau as usize));
            }
        }

        /// Deferred batch drains mature an instance iff the accumulated
        /// updates crossed the threshold, for any split and any τ.
        #[test]
        fn batch_drain_thresholds_are_exact(
            tau in 1u64..300,
            pattern in prop::collection::vec(any::<bool>(), 0..300),
        ) {
            let total = pattern.len() as u64;
            let mut reg = DtRegistry::new(2);
            reg.register(key(0, 1), tau);
            for &on_first in &pattern {
                reg.increment(if on_first { v(0) } else { v(1) });
            }
            let matured = reg.drain_ready_batch([v(0), v(1)], None);
            prop_assert_eq!(!matured.is_empty(), total >= tau);
        }
    }
}
