//! Reusable fault-injection and instrumentation helpers for durability
//! tests: [`FlakyStore`] / [`FlakySink`] wrap any [`CheckpointStore`] /
//! `Write` with scripted failures (refused opens, torn writes), and
//! [`MemCheckpointStore`] is an in-memory store with the same
//! publish-on-flush discipline as the directory store — together they
//! let a test drive the session's recovery paths (failure → recorded
//! error → chain restart with a full snapshot → resumable chain) without
//! touching the filesystem or hand-rolling one-off sink closures.
//!
//! The module is compiled unconditionally (not `#[cfg(test)]`) so
//! integration tests, downstream crates (the baselines, the service
//! layer) and benches can all reach it; nothing in here is used on any
//! production path.
//!
//! It also hosts the **derived-module rebuild counter**: every restore
//! path that re-derives a derived module from restored base state —
//! vAuxInfo + `CC-Str(G_core)` in this crate, the similarity-ordered
//! index in `dynscan-baseline` — calls [`note_derived_rebuild`], so a
//! test can assert that replaying a delta chain derives **once per
//! replay**, not once per delta (see `crate::restore_any_chain` and the
//! `Clusterer::apply_delta_chain` fast path).  [`aux_sets`] puts the
//! vAuxInfo such a derivation produces in a form tests can compare.

use crate::store::CheckpointStore;
use crate::strclu::DynStrClu;
use dynscan_graph::{SnapshotKind, VertexId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// --------------------------------------------------------------------- //
// Derived-module rebuild instrumentation
// --------------------------------------------------------------------- //

static DERIVED_REBUILDS: AtomicU64 = AtomicU64::new(0);

/// Record one derived-module rebuild (called by the restore paths; a
/// relaxed counter increment, negligible next to the rebuild itself).
pub fn note_derived_rebuild() {
    DERIVED_REBUILDS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide count of derived-module rebuilds so far.  Tests measure
/// a window by differencing two readings; the counter is global, so a
/// test doing that must not race other restore-heavy tests in the same
/// process (keep such assertions inside one `#[test]`).
pub fn derived_rebuilds() -> u64 {
    DERIVED_REBUILDS.load(Ordering::Relaxed)
}

/// DynStrClu's vAuxInfo in comparable form: per vertex, its core flag and
/// its sorted similar and similar-core neighbour sets.  Snapshots do not
/// carry vAuxInfo, so restore and replay tests compare this against the
/// live instance.
pub fn aux_sets(algo: &DynStrClu) -> Vec<(bool, Vec<VertexId>, Vec<VertexId>)> {
    algo.graph()
        .vertices()
        .map(|v| {
            let aux = algo.vertex_aux(v).expect("every vertex has vAuxInfo");
            let mut similar: Vec<VertexId> = aux.similar_neighbours().collect();
            let mut cores: Vec<VertexId> = aux.similar_core_neighbours().collect();
            similar.sort_unstable();
            cores.sort_unstable();
            (aux.is_core(), similar, cores)
        })
        .collect()
}

// --------------------------------------------------------------------- //
// Fault plan + flaky wrappers
// --------------------------------------------------------------------- //

#[derive(Default)]
struct FaultPlanInner {
    /// Writer-open attempts made so far (attempt indices are 0-based and
    /// count *opens*, which under the session's one-write-per-sequence
    /// discipline equals checkpoint attempts).
    attempts: AtomicU64,
    /// Attempt indices whose `writer()` call errors outright.
    fail_open: Mutex<HashSet<u64>>,
    /// Attempt index → byte budget: the writer opens, accepts this many
    /// payload bytes, then fails (a torn write).
    write_budget: Mutex<HashMap<u64, usize>>,
}

/// A shared, scriptable failure schedule for [`FlakyStore`]: which
/// checkpoint attempts refuse to open a writer and which tear mid-write.
/// Clones share the schedule and the attempt counter, so a test keeps
/// one handle while the store lives inside a session.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Arc<FaultPlanInner>,
}

impl FaultPlan {
    /// A plan with no scheduled failures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule these 0-based attempt indices to fail at `writer()` open.
    pub fn fail_open_on(&self, attempts: impl IntoIterator<Item = u64>) {
        let mut set = self
            .inner
            .fail_open
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        set.extend(attempts);
    }

    /// Schedule attempt `attempt` to accept `bytes` payload bytes and
    /// then fail every further write and the final flush — a torn write.
    pub fn tear_write_at(&self, attempt: u64, bytes: usize) {
        self.inner
            .write_budget
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(attempt, bytes);
    }

    /// How many writer opens the wrapped store has seen.
    pub fn attempts(&self) -> u64 {
        self.inner.attempts.load(Ordering::SeqCst)
    }

    fn next_attempt(&self) -> u64 {
        self.inner.attempts.fetch_add(1, Ordering::SeqCst)
    }

    fn should_fail_open(&self, attempt: u64) -> bool {
        self.inner
            .fail_open
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .contains(&attempt)
    }

    fn budget_for(&self, attempt: u64) -> Option<usize> {
        self.inner
            .write_budget
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&attempt)
            .copied()
    }
}

/// A [`CheckpointStore`] wrapper injecting the failures scripted in a
/// [`FaultPlan`]: scheduled attempts refuse to open or tear mid-write;
/// everything else passes through to the wrapped store unchanged
/// (including `remove` and `existing_documents`, so retention and
/// resume-numbering behave exactly as with the bare store).
pub struct FlakyStore<S> {
    inner: S,
    plan: FaultPlan,
}

impl<S: CheckpointStore> FlakyStore<S> {
    /// Wrap `inner`, injecting the failures scheduled in `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FlakyStore { inner, plan }
    }
}

impl<S: CheckpointStore> CheckpointStore for FlakyStore<S> {
    fn writer(&mut self, seq: u64, kind: SnapshotKind) -> io::Result<Box<dyn io::Write>> {
        let attempt = self.plan.next_attempt();
        if self.plan.should_fail_open(attempt) {
            return Err(io::Error::other(format!(
                "injected open failure (attempt {attempt}, seq {seq})"
            )));
        }
        let writer = self.inner.writer(seq, kind)?;
        match self.plan.budget_for(attempt) {
            Some(budget) => Ok(Box::new(FlakySink::new(writer, budget))),
            None => Ok(writer),
        }
    }

    fn remove(&mut self, seq: u64) -> io::Result<()> {
        self.inner.remove(seq)
    }

    fn existing_documents(&self) -> Vec<(u64, SnapshotKind)> {
        self.inner.existing_documents()
    }
}

/// A `Write` wrapper that accepts a bounded number of bytes and then
/// fails every further write **and** `flush` — a torn write: under a
/// publish-on-flush writer (the directory store's atomic tmp+rename,
/// [`MemCheckpointStore`]) the document never becomes visible.
pub struct FlakySink<W> {
    inner: W,
    remaining: usize,
    tripped: bool,
}

impl<W: io::Write> FlakySink<W> {
    /// Accept `budget` bytes, then fail.
    pub fn new(inner: W, budget: usize) -> Self {
        FlakySink {
            inner,
            remaining: budget,
            tripped: false,
        }
    }
}

impl<W: io::Write> io::Write for FlakySink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.tripped || self.remaining == 0 {
            self.tripped = true;
            return Err(io::Error::other(
                "injected write failure (budget exhausted)",
            ));
        }
        let take = buf.len().min(self.remaining);
        let written = self.inner.write(&buf[..take])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.tripped {
            return Err(io::Error::other("injected flush failure after torn write"));
        }
        self.inner.flush()
    }
}

// --------------------------------------------------------------------- //
// In-memory checkpoint store
// --------------------------------------------------------------------- //

type MemDocs = Arc<Mutex<BTreeMap<u64, (SnapshotKind, Vec<u8>)>>>;

/// An in-memory [`CheckpointStore`] with the directory store's
/// publish-on-flush discipline: a document becomes visible only when its
/// writer is flushed, so a torn write (e.g. through [`FlakySink`]) leaves
/// no trace — exactly like a crash before the atomic rename.  Clones
/// share the document map, so a test keeps a reading handle while the
/// store lives inside a session.
#[derive(Clone, Default)]
pub struct MemCheckpointStore {
    docs: MemDocs,
}

impl MemCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every published document, in sequence order.
    pub fn documents(&self) -> Vec<(u64, SnapshotKind, Vec<u8>)> {
        self.docs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(&seq, (kind, bytes))| (seq, *kind, bytes.clone()))
            .collect()
    }

    /// The resume chain — the newest full document plus every delta after
    /// it, in order (the in-memory analogue of
    /// [`crate::store::DirCheckpointStore::read_chain`]); empty when no
    /// full document has been published.
    pub fn chain(&self) -> Vec<Vec<u8>> {
        let docs = self.documents();
        let Some(base) = docs
            .iter()
            .rposition(|&(_, kind, _)| kind == SnapshotKind::Full)
        else {
            return Vec::new();
        };
        docs[base..].iter().map(|(_, _, b)| b.clone()).collect()
    }
}

struct MemWriter {
    seq: u64,
    kind: SnapshotKind,
    buf: Vec<u8>,
    docs: MemDocs,
}

impl io::Write for MemWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.docs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(self.seq, (self.kind, std::mem::take(&mut self.buf)));
        Ok(())
    }
}

impl CheckpointStore for MemCheckpointStore {
    fn writer(&mut self, seq: u64, kind: SnapshotKind) -> io::Result<Box<dyn io::Write>> {
        Ok(Box::new(MemWriter {
            seq,
            kind,
            buf: Vec::new(),
            docs: Arc::clone(&self.docs),
        }))
    }

    fn remove(&mut self, seq: u64) -> io::Result<()> {
        self.docs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&seq);
        Ok(())
    }

    fn existing_documents(&self) -> Vec<(u64, SnapshotKind)> {
        self.docs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(&seq, &(kind, _))| (seq, kind))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{two_cliques_params, two_cliques_with_hub};
    use crate::session::{Backend, Session};
    use crate::store::DirCheckpointStore;
    use dynscan_graph::GraphUpdate;
    use std::io::Write as _;

    fn fixture_inserts() -> Vec<GraphUpdate> {
        two_cliques_with_hub()
            .edges()
            .map(|e| GraphUpdate::Insert(e.lo(), e.hi()))
            .collect()
    }

    #[test]
    fn mem_store_publishes_on_flush_only() {
        let store = MemCheckpointStore::new();
        let mut handle = store.clone();
        let mut w = handle.writer(0, SnapshotKind::Full).unwrap();
        w.write_all(b"abc").unwrap();
        assert!(store.documents().is_empty(), "unflushed writes stay staged");
        w.flush().unwrap();
        assert_eq!(store.documents().len(), 1);
        assert_eq!(store.existing_documents(), vec![(0, SnapshotKind::Full)]);
        handle.remove(0).unwrap();
        assert!(store.documents().is_empty());
    }

    #[test]
    fn flaky_sink_tears_and_never_publishes() {
        let store = MemCheckpointStore::new();
        let plan = FaultPlan::new();
        plan.tear_write_at(0, 2);
        let mut flaky = FlakyStore::new(store.clone(), plan.clone());
        let mut w = flaky.writer(0, SnapshotKind::Full).unwrap();
        assert_eq!(w.write(b"abcd").unwrap(), 2, "budget caps the write");
        assert!(w.write(b"cd").is_err(), "budget exhausted");
        assert!(w.flush().is_err(), "flush after a torn write fails");
        assert!(
            store.documents().is_empty(),
            "a torn write must never publish"
        );
        assert_eq!(plan.attempts(), 1);
    }

    /// The satellite regression: a **background** checkpoint failure is
    /// recorded, forces the next document to restart the chain with a
    /// full snapshot, and the store still ends up with a resumable chain
    /// covering the whole stream.
    #[test]
    fn background_checkpoint_failure_then_recovery_yields_resumable_chain() {
        let dir =
            std::env::temp_dir().join(format!("dynscan-testing-flaky-bg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::new();
        // Attempt 0 (full) succeeds, attempt 1 (the first delta of the
        // full_every(4) cadence) is refused, attempt 2 tears mid-write;
        // attempt 3+ succeed.
        plan.fail_open_on([1]);
        plan.tear_write_at(2, 16);
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(41))
            .checkpoint_every(8)
            .checkpoint_store(FlakyStore::new(DirCheckpointStore::new(&dir), plan.clone()))
            .full_every(4)
            .background_checkpoints(true)
            .build()
            .unwrap();
        let updates = fixture_inserts();
        for &u in &updates[..8] {
            session.apply(u).unwrap();
        }
        session.wait_for_checkpoints();
        assert!(session.last_checkpoint_error().is_none());
        for &u in &updates[8..16] {
            session.apply(u).unwrap();
        }
        session.wait_for_checkpoints();
        assert!(
            session
                .last_checkpoint_error()
                .is_some_and(|e| e.contains("injected open failure")),
            "the refused open must surface: {:?}",
            session.last_checkpoint_error()
        );
        for &u in &updates[16..24] {
            session.apply(u).unwrap();
        }
        session.wait_for_checkpoints();
        assert!(
            session
                .last_checkpoint_error()
                .is_some_and(|e| e.contains("injected")),
            "the torn write must surface too: {:?}",
            session.last_checkpoint_error()
        );
        // Recovery: the next attempt succeeds and — because each failure
        // punched a hole in the chain — must be a *full* snapshot.
        for &u in &updates[24..32] {
            session.apply(u).unwrap();
        }
        session.wait_for_checkpoints();
        assert!(session.last_checkpoint_error().is_none(), "error cleared");
        let info = session.last_checkpoint_info().unwrap();
        assert_eq!(
            info.kind,
            SnapshotKind::Full,
            "recovery restarts the chain with a full snapshot"
        );
        assert_eq!(plan.attempts(), 4);
        // The directory still resumes — the failed attempts left no
        // documents (the torn write published nothing), and the recovered
        // chain covers the checkpointed prefix.
        let docs = DirCheckpointStore::new(&dir).read_chain().unwrap();
        let resumed = crate::session::restore_any_chain(&docs).unwrap();
        assert_eq!(resumed.updates_applied(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same recovery shape through the reusable wrappers in
    /// foreground mode and a purely in-memory store — no filesystem, no
    /// ad-hoc sink closures.
    #[test]
    fn foreground_failure_recovery_with_mem_store() {
        let mem = MemCheckpointStore::new();
        let plan = FaultPlan::new();
        plan.fail_open_on([1]);
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(3))
            .checkpoint_every(8)
            .full_every(4)
            .checkpoint_store(FlakyStore::new(mem.clone(), plan))
            .build()
            .unwrap();
        let updates = fixture_inserts();
        for &u in &updates[..8] {
            session.apply(u).unwrap();
        }
        assert!(session.last_checkpoint_error().is_none());
        for &u in &updates[8..16] {
            session.apply(u).unwrap();
        }
        assert!(session
            .last_checkpoint_error()
            .is_some_and(|e| e.contains("injected open failure")));
        for &u in &updates[16..24] {
            session.apply(u).unwrap();
        }
        assert!(session.last_checkpoint_error().is_none());
        assert_eq!(
            session.last_checkpoint_info().unwrap().kind,
            SnapshotKind::Full,
            "chain restarts full after the hole"
        );
        let chain = mem.chain();
        assert!(!chain.is_empty());
        let resumed = crate::session::restore_any_chain(&chain).unwrap();
        assert_eq!(resumed.updates_applied(), 24);
    }
}
