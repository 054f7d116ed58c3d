//! The [`Session`] facade: one handle that drives **any** backend —
//! DynELM, DynStrClu or (once registered) the exact dynamic baselines —
//! through the object-safe [`Clusterer`] trait, adding streaming
//! ingestion, query-result caching and automatic checkpointing on top.
//!
//! # Streaming ingestion and read-your-writes
//!
//! [`Session::push`] does not apply an update immediately: it buffers it
//! and flushes the whole buffer through [`crate::BatchUpdate::apply_batch`] when
//! the [`AutoBatchPolicy`] size bound is hit — the batch engine's
//! deduplicated drain and parallel re-estimation are most effective on
//! full batches, which is exactly the ROADMAP's "accumulate updates into
//! size-bounded batches automatically" ingestion front-end.
//!
//! The flush points are chosen so the facade still behaves like a
//! sequentially consistent store (**read-your-writes**): every query —
//! [`Session::clustering`], [`Session::cluster_group_by`],
//! [`Session::checkpoint_bytes`], [`Session::num_edges`] — first flushes
//! the buffer, so the state it observes is valid for *every* accepted
//! update, never a prefix.  In the terminology of reenactment-style
//! consistent views, a query pins the state containing all its session's
//! prior writes; there is no window where a caller can read a clustering
//! that ignores updates it already submitted.  Explicit [`Session::flush`]
//! and the direct [`Session::apply`] / [`Session::apply_batch`] paths
//! (which flush first, then apply) give the same guarantee.
//!
//! # Group-by epochs
//!
//! Cluster membership is a pure function of the maintained *labelling*
//! (plus μ), so a flush that causes **no net label flips and no new
//! vertices** cannot change any query answer.  `Session` tracks a label
//! epoch that only advances on such effective changes and serves repeated
//! [`Session::clustering`] / identical [`Session::cluster_group_by`]
//! queries from cache across no-op flushes — the batch-aware group-by
//! epoch from the ROADMAP.  The [`Session::groupby_recomputes`] /
//! [`Session::clustering_recomputes`] counters make the caching
//! observable (and testable).
//!
//! A stale cached clustering is *patched*, not re-extracted, when the
//! backend can ([`crate::DynamicClustering::refresh_clustering`]): while a
//! clustering is cached the session collects the endpoints of every
//! flipped edge, and the refresh rebuilds only the clusters those
//! touched.  Past [`PATCH_CROSSOVER`] endpoints it drops the list and
//! the next refresh extracts.
//!
//! # Erased checkpointing and the restore registry
//!
//! [`Session::checkpoint_bytes`] serialises whatever backend the session
//! wraps; the snapshot header carries the backend's
//! [`Snapshot::ALGO_TAG`].  The reverse
//! direction is [`restore_any`]: it peeks the tag and dispatches to the
//! restorer registered for it, returning a `Box<dyn Clusterer>` of
//! *whatever algorithm the snapshot contains* — a service can restart
//! from a snapshot directory without knowing which algorithm wrote it.
//! DynELM and DynStrClu are pre-registered; the exact baselines register
//! themselves via `dynscan_baseline::install()` (or any caller can add
//! backends through [`register_backend`]).
//!
//! With [`SessionBuilder::checkpoint_every`] the session also checkpoints
//! *automatically* every `n` submitted updates, writing through a
//! [`CheckpointStore`] (or the legacy closure sink — a file per sequence
//! number, an object store upload, …); failures are recorded on the
//! session rather than panicking mid-stream
//! ([`Session::last_checkpoint_error`], cleared again by the next
//! success).
//!
//! # Incremental, background, retained
//!
//! Three orthogonal knobs turn the auto-checkpoint hook into a
//! low-pause durability subsystem:
//!
//! * **[`SessionBuilder::full_every`]`(k)`** — only every k-th document
//!   is a full snapshot; the ones in between are format-v2
//!   **differential snapshots** encoding just the state touched since
//!   the previous checkpoint (each backend's dirty tracking), typically
//!   several times smaller and faster to capture on bursty streams.  A
//!   resume replays the newest full plus its deltas
//!   ([`restore_any_chain`] / [`Session::restore_chain`]) to
//!   byte-identical state.
//! * **[`SessionBuilder::background_checkpoints`]** — the state capture
//!   stays synchronous (delta-sized in steady state), but document
//!   framing, checksumming and sink I/O run on the backend's execution
//!   pool, so [`Session::push`] never stalls on disk.  One write in
//!   flight at most; a failed write forces the next document to restart
//!   the chain with a full snapshot.
//! * **[`SessionBuilder::keep_last`]`(n)`** — after each successful
//!   checkpoint, every document older than the n-th-newest full snapshot
//!   is pruned from the store, bounding disk usage to `n` resumable
//!   chains (each at most `k − 1` deltas long).

use crate::clock::wall_clock_millis;
use crate::clock::{Clock, SystemClock};
use crate::cluster::StrCluResult;
use crate::elm::{DynElm, ElmStats, FlippedEdge};
use crate::epoch::{EpochCell, EpochReadHandle, EpochSnapshot};
use crate::gate::{CompletionSlot, InflightGate};
use crate::params::Params;
use crate::snapshot::CheckpointCapture;
use crate::store::{CheckpointStore, SinkStore};
use crate::strclu::DynStrClu;
use crate::sync::{Arc, Mutex, OnceLock};
use crate::traits::{Clusterer, Snapshot, UpdateError};
use dynscan_graph::snapshot::{peek_algo_tag, peek_header, SnapshotKind, FORMAT_VERSION};
use dynscan_graph::{GraphUpdate, SnapshotError, VertexId};
use std::fmt;
use std::time::Duration;

/// Flip endpoints (counted with repeats) beyond which refreshing the
/// cached clustering extracts it in O(n + m) instead of patching it.
///
/// Measured on the benchmark's graphs (planted communities of 50,
/// Chung–Lu degrees, average degree 8; Jaccard ε = 0.2, μ = 5,
/// ρ = 0.01; seed 7; 2-core x86-64 host, release build) as patch time
/// over extraction time, for one update, a 128-update batch and a
/// 4,096-update batch:
///
/// | n   | extraction | 1 update (2 endpoints) | 128 (~370) | 4,096 |
/// |-----|------------|------------------------|------------|-------|
/// | 2k  | 1.1 ms     | 0.04                   | 0.59       | 0.94 at 3,878 endpoints |
/// | 20k | 24 ms      | 0.001                  | 0.07       | 0.38 at 9,024 endpoints |
/// | 50k | 87 ms      | 0.001                  | 0.02       | 0.21 at 10,442 endpoints |
///
/// The patch grows with the endpoints and extraction with n + m, so
/// the two meet near 4,000 endpoints on the smallest graph.  At 4096
/// single updates and 128-update batches take the patch at every size,
/// and the preload batches of up to 65,536 updates (at least 5,754
/// endpoints each on these graphs) take extraction.
pub const PATCH_CROSSOVER: usize = 4096;

/// The four clustering backends a [`Session`] can be built over.
///
/// [`Backend::DynElm`] and [`Backend::DynStrClu`] (this crate) are always
/// constructible; the two exact baselines live in `dynscan-baseline` and
/// become constructible once that crate's `install()` has registered them
/// (the dependency points from the baselines to this crate, so the
/// registry is how the facade reaches them without a cycle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// DynELM: edge-labelling maintenance only (Section 6).
    DynElm,
    /// DynStrClu: DynELM + vAuxInfo + `CC-Str(G_core)` (Section 7).
    DynStrClu,
    /// pSCAN-style exact dynamic baseline (`dynscan-baseline`).
    ExactDynScan,
    /// hSCAN-style indexed exact baseline (`dynscan-baseline`).
    IndexedDynScan,
}

impl Backend {
    /// The backend's human-readable algorithm name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::DynElm => "DynELM",
            Backend::DynStrClu => "DynStrClu",
            Backend::ExactDynScan => "pSCAN-like",
            Backend::IndexedDynScan => "hSCAN-like",
        }
    }

    /// All four backends, in registry order.
    pub fn all() -> [Backend; 4] {
        [
            Backend::DynElm,
            Backend::DynStrClu,
            Backend::ExactDynScan,
            Backend::IndexedDynScan,
        ]
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When buffered updates are flushed through the batch engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutoBatchPolicy {
    /// Only flush on an explicit [`Session::flush`] or a query.
    Manual,
    /// Flush whenever the buffer reaches this many updates.
    Size(usize),
    /// Flush at `size` buffered updates **or** once the oldest buffered
    /// update has waited `max_delay`, whichever comes first — the
    /// time-bounded auto-batching of the ROADMAP.  Deadlines are checked
    /// against the session's [`Clock`] on every [`Session::push`] and on
    /// explicit [`Session::poll`] calls (the session has no background
    /// thread; a quiet stream should be pumped with `poll` if latency
    /// bounds matter while nothing arrives).
    SizeOrDelay {
        /// Flush at this many buffered updates…
        size: usize,
        /// …or when the oldest buffered update is this old.
        max_delay: Duration,
    },
}

/// Why a [`Session`] could not be built.
#[derive(Debug)]
pub enum SessionError {
    /// The requested backend has no registered constructor.  The exact
    /// baselines require `dynscan_baseline::install()` to run first.
    BackendUnavailable {
        /// The backend that was requested.
        backend: Backend,
    },
    /// `AutoBatchPolicy::Size(0)` never flushes and is rejected.
    InvalidBatchSize,
    /// `checkpoint_every(0)` would checkpoint before any update.
    InvalidCheckpointInterval,
    /// `checkpoint_every` was set without a `checkpoint_sink` /
    /// `checkpoint_store` to write to.
    MissingCheckpointSink,
    /// `full_every(0)` would never write a full snapshot.
    InvalidFullEvery,
    /// `keep_last(0)` would retain nothing to resume from.
    InvalidRetention,
    /// [`SessionBuilder::build_resuming_from_chain`] could not restore
    /// the supplied chain.
    RestoreFailed(SnapshotError),
    /// An explicitly requested checkpoint ([`Session::checkpoint_now`] /
    /// [`Session::drain`]) failed to reach the store.
    CheckpointFailed(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BackendUnavailable { backend } => write!(
                f,
                "backend {backend} has no registered constructor — for the exact \
                 baselines call `dynscan_baseline::install()` first (or register \
                 it with `dynscan_core::session::register_backend`)"
            ),
            SessionError::InvalidBatchSize => {
                write!(f, "AutoBatchPolicy::Size(0) would never flush")
            }
            SessionError::InvalidCheckpointInterval => {
                write!(f, "checkpoint_every(0) is not a valid interval")
            }
            SessionError::MissingCheckpointSink => write!(
                f,
                "checkpoint_every was set but no checkpoint_sink/checkpoint_store \
                 was supplied"
            ),
            SessionError::InvalidFullEvery => {
                write!(f, "full_every(0) would never write a full snapshot")
            }
            SessionError::InvalidRetention => {
                write!(f, "keep_last(0) would retain nothing to resume from")
            }
            SessionError::RestoreFailed(e) => {
                write!(f, "resuming from the checkpoint chain failed: {e}")
            }
            SessionError::CheckpointFailed(message) => {
                write!(f, "requested checkpoint failed: {message}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Constructor registered per [`Backend`].
pub type ConstructFn = fn(Params) -> Box<dyn Clusterer>;

/// Restorer registered per snapshot algorithm tag.
pub type RestoreFn = fn(&[u8]) -> Result<Box<dyn Clusterer>, SnapshotError>;

struct Registration {
    backend: Backend,
    algo_tag: u32,
    construct: ConstructFn,
    restore: RestoreFn,
}

fn restore_dyn_elm(bytes: &[u8]) -> Result<Box<dyn Clusterer>, SnapshotError> {
    Ok(Box::new(DynElm::restore(bytes)?))
}

fn restore_dyn_str_clu(bytes: &[u8]) -> Result<Box<dyn Clusterer>, SnapshotError> {
    Ok(Box::new(DynStrClu::restore(bytes)?))
}

/// The process-global backend registry, seeded with this crate's two
/// algorithms.
fn registry() -> &'static Mutex<Vec<Registration>> {
    static REGISTRY: OnceLock<Mutex<Vec<Registration>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(vec![
            Registration {
                backend: Backend::DynElm,
                algo_tag: <DynElm as Snapshot>::ALGO_TAG,
                construct: |p| Box::new(DynElm::new(p)),
                restore: restore_dyn_elm,
            },
            Registration {
                backend: Backend::DynStrClu,
                algo_tag: <DynStrClu as Snapshot>::ALGO_TAG,
                construct: |p| Box::new(DynStrClu::new(p)),
                restore: restore_dyn_str_clu,
            },
        ])
    })
}

fn lock_registry() -> crate::sync::MutexGuard<'static, Vec<Registration>> {
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// Register (or re-register) a backend: its constructor for
/// [`SessionBuilder::backend`] and its restorer for [`restore_any`],
/// keyed by the algorithm tag its snapshots carry.  Idempotent: a second
/// registration for the same backend replaces the first.
pub fn register_backend(
    backend: Backend,
    algo_tag: u32,
    construct: ConstructFn,
    restore: RestoreFn,
) {
    let mut entries = lock_registry();
    entries.retain(|r| r.backend != backend && r.algo_tag != algo_tag);
    entries.push(Registration {
        backend,
        algo_tag,
        construct,
        restore,
    });
}

/// Whether [`SessionBuilder::backend`] can currently construct `backend`.
pub fn backend_available(backend: Backend) -> bool {
    lock_registry().iter().any(|r| r.backend == backend)
}

/// Metadata of one snapshot: the document header's fields plus the
/// update count of the state it holds.
///
/// Returned by [`restore_any_with_info`] and recorded by the session's
/// automatic checkpointing ([`Session::last_checkpoint_info`]), so a
/// service can log *what* it wrote or restored — how far the stream had
/// progressed, under which format version, at what size — without
/// decoding anything by hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Snapshot wire-format version.
    pub format_version: u32,
    /// Algorithm tag (which backend wrote it).
    pub algo_tag: u32,
    /// Full or differential.
    pub kind: SnapshotKind,
    /// Chain position (0 = full, k ≥ 1 = k-th delta).
    pub sequence: u64,
    /// Wall-clock stamp in the document header (ms since the Unix epoch;
    /// 0 = unstamped).
    pub wall_time_millis: u64,
    /// Payload size in bytes (excludes the fixed document header).
    pub payload_len: u64,
    /// Updates the serialised state had applied.
    pub updates_applied: u64,
}

/// Like [`restore_any`], but also surface the snapshot's metadata as a
/// [`SnapshotInfo`] (header fields + the restored state's update count).
pub fn restore_any_with_info(
    bytes: &[u8],
) -> Result<(Box<dyn Clusterer>, SnapshotInfo), SnapshotError> {
    let header = peek_header(bytes)?;
    let restored = restore_any(bytes)?;
    let info = SnapshotInfo {
        format_version: header.format_version,
        algo_tag: header.algo_tag,
        kind: header.kind,
        sequence: header.sequence,
        wall_time_millis: header.wall_time_millis,
        payload_len: header.payload_len,
        updates_applied: restored.updates_applied(),
    };
    Ok((restored, info))
}

/// Restore from a **base + delta chain**: the first document must be a
/// full snapshot (restored via [`restore_any`]); every following document
/// is either a delta applied in order (base checksums and sequence
/// numbers are verified) or a newer full snapshot that replaces the state
/// wholesale.  The result is byte-identical to restoring a full snapshot
/// taken at the chain's end — the property the delta-chain equivalence
/// tests pin across all four backends.
///
/// Cost note: consecutive deltas are replayed through
/// [`Clusterer::apply_delta_chain`], so backends with expensive derived
/// modules (vAuxInfo / `G_core` / the baseline index) merge every delta
/// first and derive **once per chain**, not once per delta — replay cost
/// scales with the chain length plus a single rebuild, which
/// `tests/chain_replay_cost.rs` pins via the
/// [`crate::testing::derived_rebuilds`] counter.
pub fn restore_any_chain<B: AsRef<[u8]>>(docs: &[B]) -> Result<Box<dyn Clusterer>, SnapshotError> {
    let mut iter = docs.iter();
    let Some(first) = iter.next() else {
        return Err(SnapshotError::Truncated);
    };
    let mut restored = restore_any(first.as_ref())?;
    let mut pending: Vec<&[u8]> = Vec::new();
    for doc in iter {
        let doc = doc.as_ref();
        let header = peek_header(doc)?;
        match header.kind {
            SnapshotKind::Full => {
                // A newer full snapshot supersedes everything before it;
                // any deltas queued against the old base are dead.
                pending.clear();
                restored = restore_any(doc)?;
            }
            SnapshotKind::Delta => pending.push(doc),
        }
    }
    restored.apply_delta_chain(&pending)?;
    Ok(restored)
}

/// Restore **whatever algorithm a snapshot contains** behind an erased
/// `Box<dyn Clusterer>` handle: peek the algorithm tag in the header and
/// dispatch to the restorer registered for it.
///
/// This is the restart path for a service that persists heterogeneous
/// snapshots: it does not need to know (or hard-code) which backend wrote
/// a file.  A tag with no registered restorer fails with
/// [`SnapshotError::UnknownAlgorithm`] — for the exact baselines, run
/// `dynscan_baseline::install()` first.
///
/// ```
/// use dynscan_core::{restore_any, DynStrClu, Params, Snapshot, VertexId};
///
/// let mut live = DynStrClu::new(Params::jaccard(0.5, 2).with_rho(0.05));
/// live.insert_edge(VertexId(0), VertexId(1)).unwrap();
/// let bytes = live.checkpoint_bytes();
///
/// // No concrete type named: the registry picks DynStrClu from the tag.
/// let restored = restore_any(&bytes).unwrap();
/// assert_eq!(restored.algorithm_name(), "DynStrClu");
/// ```
pub fn restore_any(bytes: &[u8]) -> Result<Box<dyn Clusterer>, SnapshotError> {
    // A delta cannot restore on its own — fail before dispatching (the
    // concrete restorers would reject it too; this just gives the precise
    // error without consulting the registry).
    if peek_header(bytes)?.kind != SnapshotKind::Full {
        return Err(SnapshotError::UnexpectedDelta);
    }
    let found = peek_algo_tag(bytes)?;
    let restore = lock_registry()
        .iter()
        .find(|r| r.algo_tag == found)
        .map(|r| r.restore)
        .ok_or(SnapshotError::UnknownAlgorithm { found })?;
    restore(bytes)
}

fn construct_backend(backend: Backend, params: Params) -> Result<Box<dyn Clusterer>, SessionError> {
    let construct = lock_registry()
        .iter()
        .find(|r| r.backend == backend)
        .map(|r| r.construct)
        .ok_or(SessionError::BackendUnavailable { backend })?;
    Ok(construct(params))
}

/// Factory for auto-checkpoint writers: called with the checkpoint
/// sequence number (0, 1, …), returns the `Write` destination for that
/// checkpoint.
pub type CheckpointSinkFn = dyn FnMut(u64) -> std::io::Result<Box<dyn std::io::Write>> + Send;

/// State shared between the session and its (possibly background)
/// checkpoint jobs: the store and the retention ledger.
struct CheckpointShared {
    store: Box<dyn CheckpointStore>,
    /// Documents currently retained, in write order.
    ledger: Vec<(u64, SnapshotKind)>,
}

struct JobReport {
    result: Result<SnapshotInfo, String>,
}

/// Per-session auto-checkpoint configuration + runtime state.
struct CheckpointRuntime {
    full_every: u64,
    keep_last: Option<u64>,
    background: bool,
    shared: Arc<Mutex<CheckpointShared>>,
    /// Sequence number of the next attempt (unique and monotone; failed
    /// attempts leave holes in the store).  Doubles as the cadence
    /// position: attempt k writes a full snapshot iff
    /// `k % full_every == 0`.
    next_seq: u64,
    /// A failed write broke the on-disk chain — the next capture must be
    /// a full snapshot regardless of cadence.
    force_full: bool,
    /// The in-flight background job, if any (at most one; the next
    /// checkpoint waits for it first, which keeps documents ordered).
    inflight: InflightGate<JobReport>,
}

/// Frame `capture` into the store, update the retention ledger, prune.
/// Runs inline (foreground mode) or on the execution pool (background
/// mode); `shared` is the only state it touches.
fn run_checkpoint_job(
    seq: u64,
    capture: &CheckpointCapture,
    updates_applied: u64,
    keep_last: Option<u64>,
    shared: &Mutex<CheckpointShared>,
) -> JobReport {
    let kind = capture.kind();
    let result = (|| -> Result<SnapshotInfo, String> {
        let mut guard = shared.lock().unwrap_or_else(|p| p.into_inner());
        let mut writer = guard
            .store
            .writer(seq, kind)
            .map_err(|e| format!("checkpoint sink {seq}: {e}"))?;
        if let Err(e) = capture.write_to(&mut writer) {
            // Drop the half-written document (best effort): a truncated
            // file left behind could otherwise shadow an intact older
            // chain as the resume base.
            drop(writer);
            let _ = guard.store.remove(seq);
            return Err(format!("checkpoint write {seq}: {e}"));
        }
        drop(writer);
        guard.ledger.push((seq, kind));
        // Retention: keep the last `keep_last` chains — everything older
        // than the keep_last-th-newest full snapshot is pruned
        // (best-effort removal; the ledger is authoritative).
        if let Some(keep) = keep_last {
            let fulls: Vec<u64> = guard
                .ledger
                .iter()
                .filter(|&&(_, k)| k == SnapshotKind::Full)
                .map(|&(s, _)| s)
                .collect();
            if fulls.len() as u64 > keep {
                let cutoff = fulls[fulls.len() - keep as usize];
                let pruned: Vec<u64> = guard
                    .ledger
                    .iter()
                    .filter(|&&(s, _)| s < cutoff)
                    .map(|&(s, _)| s)
                    .collect();
                for s in pruned {
                    let _ = guard.store.remove(s);
                }
                guard.ledger.retain(|&(s, _)| s >= cutoff);
            }
        }
        Ok(SnapshotInfo {
            format_version: FORMAT_VERSION,
            algo_tag: capture.algo_tag(),
            kind,
            sequence: capture.sequence(),
            wall_time_millis: capture.wall_time_millis(),
            payload_len: capture.payload_len(),
            updates_applied,
        })
    })();
    JobReport { result }
}

/// Builder for [`Session`]; see the [module docs](self) for the overall
/// semantics.
pub struct SessionBuilder {
    backend: Backend,
    params: Params,
    policy: AutoBatchPolicy,
    threads: Option<usize>,
    memory_budget: Option<Option<usize>>,
    clock: Option<Box<dyn Clock>>,
    checkpoint_every: Option<u64>,
    checkpoint_store: Option<Box<dyn CheckpointStore>>,
    full_every: u64,
    keep_last: Option<u64>,
    background_checkpoints: bool,
}

impl SessionBuilder {
    /// Which backend to construct (default: [`Backend::DynStrClu`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The algorithm parameters (the baselines use `eps`, `mu` and
    /// `measure`; the DynELM-based backends use all of them).
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// The auto-flush policy (default: [`AutoBatchPolicy::Manual`]).
    pub fn auto_batch(mut self, policy: AutoBatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// How many worker threads the backend's parallel work (batch
    /// re-estimation, sharded aux maintenance) runs on: `0` (the
    /// default) uses the process-wide pool, `n > 0` a dedicated pool of
    /// exactly `n` workers.  Purely a performance knob — results are
    /// bit-identical at every thread count.  [`SessionBuilder::build`]
    /// panics if the OS refuses to spawn the dedicated workers (see
    /// [`crate::ExecPool::with_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Bound the bytes the backend's graph keeps in its hot (mutable
    /// indexed) adjacency tier; least-recently-touched neighbourhoods
    /// beyond the budget are demoted to a compact cold arena and decoded
    /// on access ([`Clusterer::set_memory_budget`]).  `None` keeps
    /// everything hot.  When this builder knob is not called, the
    /// process-wide `DYNSCAN_MEMORY_BUDGET` default applies.  Purely a
    /// residency knob — clustering results are byte-identical at any
    /// budget.
    pub fn memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// The clock time-bounded auto-batching reads (default:
    /// [`SystemClock`]).  Tests inject a
    /// [`crate::clock::MockClock`] to make deadline behaviour exact.
    pub fn clock<C: Clock + 'static>(mut self, clock: C) -> Self {
        self.clock = Some(Box::new(clock));
        self
    }

    /// Checkpoint automatically after every `n` submitted updates,
    /// through the sink supplied with
    /// [`SessionBuilder::checkpoint_sink`].
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    /// Where automatic checkpoints are written: the factory is called
    /// with the checkpoint sequence number and returns the writer for
    /// that checkpoint.  Retention pruning cannot physically delete
    /// through a closure sink — use
    /// [`SessionBuilder::checkpoint_store`] with a
    /// [`crate::store::DirCheckpointStore`] (or any
    /// [`CheckpointStore`]) when `keep_last` matters.
    pub fn checkpoint_sink<F>(mut self, sink: F) -> Self
    where
        F: FnMut(u64) -> std::io::Result<Box<dyn std::io::Write>> + Send + 'static,
    {
        self.checkpoint_store = Some(Box::new(SinkStore {
            sink: Box::new(sink),
        }));
        self
    }

    /// Where automatic checkpoints are written, with removal support for
    /// retention pruning (e.g. [`crate::store::DirCheckpointStore`]).
    /// Replaces any previously supplied sink/store.
    pub fn checkpoint_store<S: CheckpointStore + 'static>(mut self, store: S) -> Self {
        self.checkpoint_store = Some(Box::new(store));
        self
    }

    /// Differential cadence: every `k`-th automatic checkpoint (the 0th,
    /// k-th, 2k-th, …) is a full snapshot; the ones in between are
    /// **deltas** encoding only the state touched since the previous
    /// checkpoint.  `1` (the default) writes only full snapshots.  A
    /// chain therefore never exceeds `k − 1` deltas, bounding resume
    /// cost.
    pub fn full_every(mut self, k: u64) -> Self {
        self.full_every = k;
        self
    }

    /// Retention policy: after each successful checkpoint, prune every
    /// document older than the `n`-th-newest full snapshot, so the store
    /// keeps at most `n` resumable full+delta chains.  Default: keep
    /// everything.
    pub fn keep_last(mut self, n: u64) -> Self {
        self.keep_last = Some(n);
        self
    }

    /// Run checkpoint framing + sink I/O on the backend's execution pool
    /// instead of the update thread: [`Session::push`] only pays for the
    /// state capture (delta-sized in steady state) and never stalls on
    /// disk.  At most one write is in flight; the next auto-checkpoint
    /// waits for it first, which keeps the on-disk chain ordered.
    /// Results ([`Session::last_checkpoint_error`] /
    /// [`Session::last_checkpoint_info`] / [`Session::checkpoints_written`])
    /// become visible after the job completes — at the next mutation or
    /// an explicit [`Session::wait_for_checkpoints`].  Call
    /// [`Session::wait_for_checkpoints`] before process exit: an
    /// in-flight write survives dropping the session (the job owns
    /// everything it needs), but not the process.
    pub fn background_checkpoints(mut self, background: bool) -> Self {
        self.background_checkpoints = background;
        self
    }

    /// Construct the session.  Fails if the backend has no registered
    /// constructor or the configuration is inconsistent; invalid
    /// [`Params`] panic exactly as the concrete constructors do.
    pub fn build(self) -> Result<Session, SessionError> {
        if matches!(
            self.policy,
            AutoBatchPolicy::Size(0) | AutoBatchPolicy::SizeOrDelay { size: 0, .. }
        ) {
            return Err(SessionError::InvalidBatchSize);
        }
        if self.checkpoint_every == Some(0) {
            return Err(SessionError::InvalidCheckpointInterval);
        }
        if self.checkpoint_every.is_some() && self.checkpoint_store.is_none() {
            return Err(SessionError::MissingCheckpointSink);
        }
        if self.full_every == 0 {
            return Err(SessionError::InvalidFullEvery);
        }
        if self.keep_last == Some(0) {
            return Err(SessionError::InvalidRetention);
        }
        let mut inner = construct_backend(self.backend, self.params)?;
        if let Some(threads) = self.threads {
            inner.set_threads(threads);
        }
        if let Some(budget) = self.memory_budget {
            inner.set_memory_budget(budget);
        }
        Ok(self.wire_session(inner))
    }

    /// Construct the session by **resuming** from a base + delta chain
    /// (e.g. [`crate::store::DirCheckpointStore::read_chain`]) instead of
    /// building a fresh backend — the restart path of a durable service:
    /// the restored state continues exactly where the chain ends, and the
    /// configured auto-checkpointing (same store, `full_every`,
    /// `keep_last`) carries on writing into it — the first automatic
    /// delta chains directly onto the restored document, and retention
    /// adopts the store's existing documents so pruning keeps working
    /// across process lifetimes.  The builder's `backend`/`params` are
    /// ignored (the chain determines the algorithm and its parameters).
    ///
    /// ```no_run
    /// use dynscan_core::{DirCheckpointStore, Session};
    ///
    /// let store = DirCheckpointStore::new("ckpts");
    /// let docs = store.read_chain().expect("a chain to resume from");
    /// let session = Session::builder()
    ///     .checkpoint_every(1_000)
    ///     .checkpoint_store(store)
    ///     .full_every(8)
    ///     .keep_last(2)
    ///     .build_resuming_from_chain(&docs)
    ///     .unwrap();
    /// ```
    pub fn build_resuming_from_chain<B: AsRef<[u8]>>(
        self,
        docs: &[B],
    ) -> Result<Session, SessionError> {
        if matches!(
            self.policy,
            AutoBatchPolicy::Size(0) | AutoBatchPolicy::SizeOrDelay { size: 0, .. }
        ) {
            return Err(SessionError::InvalidBatchSize);
        }
        if self.checkpoint_every == Some(0) {
            return Err(SessionError::InvalidCheckpointInterval);
        }
        if self.checkpoint_every.is_some() && self.checkpoint_store.is_none() {
            return Err(SessionError::MissingCheckpointSink);
        }
        if self.full_every == 0 {
            return Err(SessionError::InvalidFullEvery);
        }
        if self.keep_last == Some(0) {
            return Err(SessionError::InvalidRetention);
        }
        let mut inner = restore_any_chain(docs).map_err(SessionError::RestoreFailed)?;
        if let Some(threads) = self.threads {
            inner.set_threads(threads);
        }
        if let Some(budget) = self.memory_budget {
            inner.set_memory_budget(budget);
        }
        Ok(self.wire_session(inner))
    }

    /// Shared tail of [`SessionBuilder::build`] /
    /// [`SessionBuilder::build_resuming_from_chain`]: attach the policy,
    /// clock and checkpoint runtime to a constructed or restored backend.
    fn wire_session(self, inner: Box<dyn Clusterer>) -> Session {
        let mut session = Session::from_clusterer(inner);
        session.policy = self.policy;
        session.checkpoint_every = self.checkpoint_every;
        if let Some(store) = self.checkpoint_store {
            // Adopt any documents already in the store (a restarted
            // service reusing its checkpoint directory): numbering
            // continues past them — a new `seq 0` would sort before the
            // previous run's leftovers and shadow the resume chain — and
            // they join the retention ledger, so `keep_last` prunes the
            // previous lifetimes' chains instead of letting the directory
            // grow without bound.
            let ledger = store.existing_documents();
            let next_seq = ledger.last().map_or(0, |&(s, _)| s + 1);
            session.ckpt = Some(CheckpointRuntime {
                full_every: self.full_every,
                keep_last: self.keep_last,
                background: self.background_checkpoints,
                shared: Arc::new(Mutex::new(CheckpointShared { store, ledger })),
                next_seq,
                force_full: false,
                inflight: InflightGate::new(),
            });
        }
        if let Some(clock) = self.clock {
            session.clock = clock;
        }
        session
    }
}

/// One uniform handle over any [`Clusterer`] backend, with buffered
/// streaming ingestion, cached queries and automatic checkpointing.  See
/// the [module docs](self).
///
/// ```
/// use dynscan_core::{AutoBatchPolicy, Backend, GraphUpdate, Params, Session, VertexId};
///
/// let mut session = Session::builder()
///     .backend(Backend::DynStrClu)
///     .params(Params::jaccard(0.5, 2).with_rho(0.05))
///     .auto_batch(AutoBatchPolicy::Size(512))
///     .build()
///     .unwrap();
///
/// // Streamed updates are buffered into size-bounded batches…
/// for (a, b) in [(0u32, 1u32), (1, 2), (0, 2), (2, 3)] {
///     session.push(GraphUpdate::Insert(VertexId(a), VertexId(b)));
/// }
/// // …and every query flushes first (read-your-writes): the clustering
/// // observes all four insertions even though no batch filled up.
/// assert_eq!(session.num_edges(), 4);
/// let groups = session.cluster_group_by(&[VertexId(0), VertexId(3)]);
/// assert!(!groups.is_empty());
/// ```
pub struct Session {
    inner: Box<dyn Clusterer>,
    policy: AutoBatchPolicy,
    buffer: Vec<GraphUpdate>,
    /// Updates submitted (buffered or applied), including in-batch
    /// invalid ones the engine later skips.
    submitted: u64,
    flushes: u64,
    /// Advances only when a mutation changed the labelling (net flips) or
    /// grew the vertex set — the "effective change" clock behind the
    /// query caches.
    label_epoch: u64,
    last_vertices: usize,
    /// The clustering of `label_epoch`, shared with any published
    /// [`EpochSnapshot`] (the Arc is what makes eager publication O(1)
    /// on top of the refresh itself).
    clustering_cache: Option<(u64, Arc<StrCluResult>)>,
    /// Endpoints of the edges flipped since the cached clustering was
    /// refreshed: `None` while nothing is cached or once more than
    /// [`PATCH_CROSSOVER`] piled up (the next refresh extracts).
    flip_endpoints: Option<Vec<VertexId>>,
    groupby_cache: Option<(u64, Vec<VertexId>, Vec<Vec<VertexId>>)>,
    /// When present, every mutation publishes a fresh [`EpochSnapshot`]
    /// here before returning (see [`Session::enable_epoch_reads`]).
    epoch_pub: Option<Arc<EpochCell>>,
    clustering_recomputes: u64,
    groupby_recomputes: u64,
    checkpoint_every: Option<u64>,
    ckpt: Option<CheckpointRuntime>,
    since_checkpoint: u64,
    checkpoints_written: u64,
    last_checkpoint_error: Option<String>,
    last_checkpoint_info: Option<SnapshotInfo>,
    clock: Box<dyn Clock>,
    /// Clock reading when the oldest currently-buffered update arrived
    /// (`None` while the buffer is empty); drives the `max_delay` bound.
    buffer_opened_at: Option<Duration>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("algorithm", &self.inner.algorithm_name())
            .field("policy", &self.policy)
            .field("buffered", &self.buffer.len())
            .field("submitted", &self.submitted)
            .field("label_epoch", &self.label_epoch)
            .field("checkpoints_written", &self.checkpoints_written)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Start building a session (defaults: DynStrClu backend, default
    /// [`Params`], manual flushing, no auto-checkpointing).
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            backend: Backend::DynStrClu,
            params: Params::default(),
            policy: AutoBatchPolicy::Manual,
            threads: None,
            memory_budget: None,
            clock: None,
            checkpoint_every: None,
            checkpoint_store: None,
            full_every: 1,
            keep_last: None,
            background_checkpoints: false,
        }
    }

    /// Wrap an existing backend (manual flushing, no auto-checkpoints).
    pub fn from_clusterer(inner: Box<dyn Clusterer>) -> Self {
        let last_vertices = inner.num_vertices();
        Session {
            inner,
            policy: AutoBatchPolicy::Manual,
            buffer: Vec::new(),
            submitted: 0,
            flushes: 0,
            label_epoch: 0,
            last_vertices,
            clustering_cache: None,
            flip_endpoints: None,
            groupby_cache: None,
            epoch_pub: None,
            clustering_recomputes: 0,
            groupby_recomputes: 0,
            checkpoint_every: None,
            ckpt: None,
            since_checkpoint: 0,
            checkpoints_written: 0,
            last_checkpoint_error: None,
            last_checkpoint_info: None,
            clock: Box::new(SystemClock::new()),
            buffer_opened_at: None,
        }
    }

    /// Resume a session from a snapshot of **any** registered backend
    /// (see [`restore_any`]).
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Session::from_clusterer(restore_any(bytes)?))
    }

    /// Resume a session from a **base + delta chain** (see
    /// [`restore_any_chain`]); e.g. the documents
    /// [`crate::store::DirCheckpointStore::read_chain`] returns.
    pub fn restore_chain<B: AsRef<[u8]>>(docs: &[B]) -> Result<Self, SnapshotError> {
        Ok(Session::from_clusterer(restore_any_chain(docs)?))
    }

    /// Replace the auto-flush policy (builder-style).
    pub fn with_auto_batch(mut self, policy: AutoBatchPolicy) -> Self {
        assert!(
            !matches!(policy, AutoBatchPolicy::Size(0)),
            "AutoBatchPolicy::Size(0) would never flush"
        );
        self.policy = policy;
        self
    }

    // ----------------------------------------------------------------- //
    // Ingestion
    // ----------------------------------------------------------------- //

    /// Submit one update to the stream.  The update is buffered; if the
    /// [`AutoBatchPolicy`] size bound is reached the buffer is flushed
    /// and the flush's net flips are returned.
    ///
    /// Invalid updates (duplicates, missing deletions, self-loops) are
    /// skipped by the batch engine at flush time, exactly as
    /// [`crate::BatchUpdate::apply_batch`] documents; use [`Session::apply`] for
    /// per-update typed errors.
    pub fn push(&mut self, update: GraphUpdate) -> Option<Vec<FlippedEdge>> {
        if self.buffer.is_empty() {
            if let AutoBatchPolicy::SizeOrDelay { .. } = self.policy {
                self.buffer_opened_at = Some(self.clock.now());
            }
        }
        self.buffer.push(update);
        match self.policy {
            AutoBatchPolicy::Size(n) if self.buffer.len() >= n => Some(self.flush()),
            AutoBatchPolicy::SizeOrDelay { size, max_delay } => {
                if self.buffer.len() >= size || self.oldest_buffered_age() >= max_delay {
                    Some(self.flush())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// How long the oldest buffered update has been waiting (zero for an
    /// empty buffer).
    fn oldest_buffered_age(&self) -> Duration {
        match self.buffer_opened_at {
            Some(opened) => self.clock.now().saturating_sub(opened),
            None => Duration::ZERO,
        }
    }

    /// Flush if the [`AutoBatchPolicy::SizeOrDelay`] deadline has passed;
    /// returns the flush's net flips if one happened.  Call this
    /// periodically on quiet streams — the session has no background
    /// thread, so with no pushes arriving, only `poll` (or a query) can
    /// honour `max_delay`.
    pub fn poll(&mut self) -> Option<Vec<FlippedEdge>> {
        match self.policy {
            AutoBatchPolicy::SizeOrDelay { max_delay, .. }
                if !self.buffer.is_empty() && self.oldest_buffered_age() >= max_delay =>
            {
                Some(self.flush())
            }
            _ => None,
        }
    }

    /// Submit many updates; returns the concatenation of the net flip
    /// sets of every flush that happened along the way.
    pub fn extend<I: IntoIterator<Item = GraphUpdate>>(&mut self, updates: I) -> Vec<FlippedEdge> {
        let mut flips = Vec::new();
        for update in updates {
            if let Some(batch_flips) = self.push(update) {
                flips.extend(batch_flips);
            }
        }
        flips
    }

    /// Flush the buffered updates through the batch engine now; returns
    /// the batch's coalesced net flips (empty if nothing was buffered).
    pub fn flush(&mut self) -> Vec<FlippedEdge> {
        self.buffer_opened_at = None;
        if self.buffer.is_empty() {
            // Nothing to apply, but a finished background checkpoint can
            // still surface its outcome.
            self.finish_pending_checkpoint(false);
            return Vec::new();
        }
        let batch = std::mem::take(&mut self.buffer);
        let flips = self.inner.apply_batch(&batch);
        self.flushes += 1;
        self.after_mutation(batch.len() as u64, &flips);
        // Reuse the buffer allocation for the next window.
        self.buffer = batch;
        self.buffer.clear();
        flips
    }

    /// Apply one update immediately with a typed error: flushes the
    /// buffer first (so ordering with previously pushed updates is
    /// preserved), then applies `update` on its own.
    pub fn apply(&mut self, update: GraphUpdate) -> Result<Vec<FlippedEdge>, UpdateError> {
        self.flush();
        let flips = self.inner.try_apply(update)?;
        self.after_mutation(1, &flips);
        Ok(flips)
    }

    /// Apply a whole batch immediately (after flushing the buffer),
    /// preserving the caller's exact batch boundary — the harness and the
    /// checkpoint CI gate use this to keep replays bit-reproducible.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Vec<FlippedEdge> {
        self.flush();
        let flips = self.inner.apply_batch(updates);
        self.flushes += 1;
        self.after_mutation(updates.len() as u64, &flips);
        flips
    }

    fn after_mutation(&mut self, submitted: u64, flips: &[FlippedEdge]) {
        self.submitted += submitted;
        let vertices = self.inner.num_vertices();
        if !flips.is_empty() || vertices != self.last_vertices {
            self.label_epoch += 1;
            self.last_vertices = vertices;
        }
        if let Some(endpoints) = &mut self.flip_endpoints {
            if endpoints.len() + 2 * flips.len() > PATCH_CROSSOVER {
                self.flip_endpoints = None;
            } else {
                endpoints.extend(flips.iter().flat_map(|(key, _)| [key.lo(), key.hi()]));
            }
        }
        // Surface any finished background checkpoint without blocking.
        self.finish_pending_checkpoint(false);
        if self.checkpoint_every.is_some() {
            self.since_checkpoint += submitted;
            if self.since_checkpoint >= self.checkpoint_every.expect("checked") {
                self.auto_checkpoint();
            }
        }
        // Publish the new epoch *before* the mutation returns (and hence
        // before any caller acknowledges the write): a reader that saw
        // the ack will find a snapshot at least this fresh.
        self.publish_epoch();
    }

    /// Turn on snapshot-epoch concurrent reads and return a read handle.
    ///
    /// From this point every mutation eagerly refreshes the cached
    /// clustering (on effective change) and publishes an immutable
    /// [`EpochSnapshot`]; the handle's readers answer clustering /
    /// group-by queries from it without ever taking a lock on this
    /// session (see [`crate::epoch`] for the consistency model).  The
    /// refresh is a patch over the clusters the mutation's flips touched
    /// (see [`PATCH_CROSSOVER`]), so a write pays in proportion to what
    /// it changed.  It is still opt-in: sessions that never call this
    /// keep the lazy query-cache behaviour (and its pinned recompute
    /// counters) unchanged.  Idempotent: later calls return handles onto
    /// the same cell.
    pub fn enable_epoch_reads(&mut self) -> EpochReadHandle {
        if self.epoch_pub.is_none() {
            self.epoch_pub = Some(Arc::new(EpochCell::new()));
            self.publish_epoch();
        }
        EpochReadHandle::new(Arc::clone(self.epoch_pub.as_ref().expect("just set")))
    }

    /// Refresh the clustering (if the label epoch advanced) and publish
    /// the current epoch.  No-op unless [`Session::enable_epoch_reads`]
    /// was called.
    fn publish_epoch(&mut self) {
        let Some(cell) = self.epoch_pub.clone() else {
            return;
        };
        let clustering = Arc::clone(self.fresh_clustering_cache());
        cell.store(Arc::new(EpochSnapshot {
            label_epoch: self.label_epoch,
            updates_applied: self.inner.updates_applied(),
            algorithm: self.inner.algorithm_name(),
            num_vertices: self.inner.num_vertices() as u64,
            num_edges: self.inner.num_edges() as u64,
            checkpoint_seq: self.last_checkpoint_seq(),
            checkpoints_written: self.checkpoints_written,
            clustering,
            stats: self.inner.elm_stats(),
        }));
    }

    /// The clustering cache entry for the current label epoch,
    /// refreshing it (and counting the recompute) only when stale — the
    /// one refresh path shared by [`Session::clustering`] and epoch
    /// publication.  A stale entry is patched from the collected flip
    /// endpoints when the backend supports it, and extracted otherwise.
    fn fresh_clustering_cache(&mut self) -> &Arc<StrCluResult> {
        let epoch = self.label_epoch;
        let stale = !matches!(&self.clustering_cache, Some((e, _)) if *e == epoch);
        if stale {
            self.clustering_recomputes += 1;
            let patched = match (&self.clustering_cache, self.flip_endpoints.take()) {
                (Some((_, prev)), Some(endpoints)) => {
                    self.inner.refresh_clustering(prev, &endpoints)
                }
                _ => None,
            };
            let result = patched.unwrap_or_else(|| self.inner.current_clustering());
            self.clustering_cache = Some((epoch, Arc::new(result)));
            self.flip_endpoints = Some(Vec::new());
        }
        &self.clustering_cache.as_ref().expect("just filled").1
    }

    /// Absorb the in-flight background checkpoint's outcome, waiting for
    /// it when `blocking`.
    fn finish_pending_checkpoint(&mut self, blocking: bool) {
        let Some(ckpt) = self.ckpt.as_mut() else {
            return;
        };
        // The gate keeps the job pending when it is still running and we
        // must not wait.
        if let Some(report) = ckpt.inflight.finish(blocking) {
            self.absorb_checkpoint_report(report);
        }
    }

    fn absorb_checkpoint_report(&mut self, report: JobReport) {
        match report.result {
            Ok(info) => {
                self.checkpoints_written += 1;
                // A later success clears any stale failure — callers must
                // never keep seeing an error the store has recovered from.
                self.last_checkpoint_error = None;
                self.last_checkpoint_info = Some(info);
            }
            Err(message) => {
                self.last_checkpoint_error = Some(message);
                if let Some(ckpt) = self.ckpt.as_mut() {
                    // The failed document is a hole in the chain: deltas
                    // written after it would reference a base that never
                    // reached the store, so the next capture restarts the
                    // chain with a full snapshot.
                    ckpt.force_full = true;
                }
            }
        }
    }

    fn auto_checkpoint(&mut self) {
        self.since_checkpoint = 0;
        if self.ckpt.is_none() {
            return;
        }
        // One write in flight at most: finishing the previous job first
        // keeps the store's documents in chain order and makes its
        // outcome (in particular `force_full`) visible before the kind of
        // this capture is decided.
        self.finish_pending_checkpoint(true);
        let ckpt = self.ckpt.as_mut().expect("checked above");
        let seq = ckpt.next_seq;
        ckpt.next_seq += 1;
        let prefer_delta =
            ckpt.full_every > 1 && !seq.is_multiple_of(ckpt.full_every) && !ckpt.force_full;
        ckpt.force_full = false;
        // Synchronous part: capture the state (delta-sized in steady
        // state).  Everything after — framing, checksum, sink I/O,
        // retention pruning — only needs the capture and the shared
        // store.
        let capture = self
            .inner
            .capture_checkpoint(prefer_delta, wall_clock_millis());
        let updates_applied = self.inner.updates_applied();
        let ckpt = self.ckpt.as_mut().expect("checked above");
        let keep_last = ckpt.keep_last;
        let shared = Arc::clone(&ckpt.shared);
        if ckpt.background {
            let slot: Arc<CompletionSlot<JobReport>> = ckpt.inflight.launch();
            self.inner.exec_pool_handle().spawn(move || {
                // A panicking store/sink must still complete the slot —
                // otherwise the update thread would block forever on the
                // next checkpoint.  The panic is converted into the same
                // recorded-failure path as an Err.
                let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_checkpoint_job(seq, &capture, updates_applied, keep_last, &shared)
                }))
                .unwrap_or_else(|payload| {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    JobReport {
                        result: Err(format!("checkpoint job {seq} panicked: {what}")),
                    }
                });
                slot.complete(report);
            });
        } else {
            let report = run_checkpoint_job(seq, &capture, updates_applied, keep_last, &shared);
            self.absorb_checkpoint_report(report);
        }
    }

    /// Block until any in-flight background checkpoint has been written
    /// and its outcome is reflected in [`Session::last_checkpoint_error`]
    /// / [`Session::last_checkpoint_info`] /
    /// [`Session::checkpoints_written`].  No-op in foreground mode.
    pub fn wait_for_checkpoints(&mut self) {
        self.finish_pending_checkpoint(true);
    }

    /// Whether a background checkpoint write is currently in flight
    /// (always `false` in foreground mode or after
    /// [`Session::wait_for_checkpoints`]).
    pub fn has_pending_checkpoint(&self) -> bool {
        self.ckpt.as_ref().is_some_and(|c| c.inflight.is_pending())
    }

    /// Take a **full** checkpoint right now, synchronously: flush the
    /// buffer, wait for any in-flight background write (keeping the store
    /// in chain order), then capture and write a full snapshot through
    /// the configured store and report its metadata.  The automatic
    /// cadence restarts from here (`since_checkpoint` resets, the
    /// sequence number advances).  Errors are also recorded in
    /// [`Session::last_checkpoint_error`] exactly like an automatic
    /// checkpoint's.
    pub fn checkpoint_now(&mut self) -> Result<SnapshotInfo, SessionError> {
        self.flush();
        if self.ckpt.is_none() {
            return Err(SessionError::MissingCheckpointSink);
        }
        self.finish_pending_checkpoint(true);
        self.since_checkpoint = 0;
        let ckpt = self.ckpt.as_mut().expect("checked above");
        let seq = ckpt.next_seq;
        ckpt.next_seq += 1;
        // A full snapshot starts a fresh chain, so any hole punched by an
        // earlier failure is healed by this write.
        ckpt.force_full = false;
        let capture = self.inner.capture_checkpoint(false, wall_clock_millis());
        let updates_applied = self.inner.updates_applied();
        let ckpt = self.ckpt.as_mut().expect("checked above");
        let keep_last = ckpt.keep_last;
        let shared = Arc::clone(&ckpt.shared);
        let report = run_checkpoint_job(seq, &capture, updates_applied, keep_last, &shared);
        let outcome = match &report.result {
            Ok(info) => Ok(*info),
            Err(message) => Err(SessionError::CheckpointFailed(message.clone())),
        };
        self.absorb_checkpoint_report(report);
        outcome
    }

    /// Drain the session for shutdown: flush every buffered update, wait
    /// out any in-flight background checkpoint (shutdown can never race a
    /// detached write — with an atomic store this also means no stray
    /// `.tmp` files survive the drain), and take a final **full**
    /// checkpoint so a restart resumes from exactly this state without
    /// replaying deltas.  Returns the final checkpoint's metadata, or
    /// `Ok(None)` when the session has no checkpoint store (nothing to
    /// make durable).  The session stays usable afterwards; a service
    /// front-end stops admitting work before calling this.
    pub fn drain(&mut self) -> Result<Option<SnapshotInfo>, SessionError> {
        self.flush();
        self.finish_pending_checkpoint(true);
        if self.ckpt.is_none() {
            return Ok(None);
        }
        self.checkpoint_now().map(Some)
    }

    /// The documents the auto-checkpoint store currently retains, in
    /// write order, as recorded by the retention ledger (sequence
    /// number and kind).  Empty without auto-checkpointing.  Note that
    /// a background job may still be adding to it; call
    /// [`Session::wait_for_checkpoints`] first for an exact view.
    pub fn retained_checkpoints(&self) -> Vec<(u64, SnapshotKind)> {
        self.ckpt
            .as_ref()
            .map(|c| {
                c.shared
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .ledger
                    .clone()
            })
            .unwrap_or_default()
    }

    // ----------------------------------------------------------------- //
    // Queries (each flushes first: read-your-writes)
    // ----------------------------------------------------------------- //

    /// The current full clustering.  Flushes the buffer, then serves from
    /// cache unless an effective change happened since the last refresh.
    pub fn clustering(&mut self) -> &StrCluResult {
        self.flush();
        self.fresh_clustering_cache().as_ref()
    }

    /// Cluster-group-by over `q` (Definition 3.2), in the canonical form
    /// of [`Clusterer::cluster_group_by`].  Flushes the buffer; a repeat
    /// of the same query with no effective change in between is served
    /// from cache without consulting the backend.
    pub fn cluster_group_by(&mut self, q: &[VertexId]) -> Vec<Vec<VertexId>> {
        self.flush();
        let epoch = self.label_epoch;
        if let Some((e, cached_q, groups)) = &self.groupby_cache {
            if *e == epoch && cached_q == q {
                return groups.clone();
            }
        }
        self.groupby_recomputes += 1;
        let groups = self.inner.cluster_group_by(q);
        self.groupby_cache = Some((epoch, q.to_vec(), groups.clone()));
        groups
    }

    /// Serialise the wrapped backend's full live state (erased
    /// checkpointing; restore with [`restore_any`] / [`Session::restore`]).
    /// Flushes the buffer first, so the snapshot covers every submitted
    /// update.
    pub fn checkpoint_bytes(&mut self) -> Vec<u8> {
        self.flush();
        self.inner.checkpoint_bytes()
    }

    /// Like [`Session::checkpoint_bytes`], but under the legacy
    /// format-v2 writer — same state, v2 wire bytes.  Exists for the
    /// compat gates and the v2-vs-v3 size/speed comparison; everything
    /// else checkpoints in the current format.
    pub fn checkpoint_v2_bytes(&mut self) -> Vec<u8> {
        self.flush();
        self.inner.checkpoint_v2_bytes()
    }

    /// Like [`Session::checkpoint_bytes`], but streaming into `w`.
    pub fn checkpoint_to(&mut self, w: &mut dyn std::io::Write) -> Result<(), SnapshotError> {
        self.flush();
        self.inner.checkpoint_to(w)
    }

    /// Number of edges currently in the graph (flushes first).
    pub fn num_edges(&mut self) -> usize {
        self.flush();
        self.inner.num_edges()
    }

    /// Number of vertices the structure covers (flushes first).
    pub fn num_vertices(&mut self) -> usize {
        self.flush();
        self.inner.num_vertices()
    }

    // ----------------------------------------------------------------- //
    // Introspection (no flush: these describe the session itself)
    // ----------------------------------------------------------------- //

    /// The wrapped backend's algorithm name.
    pub fn algorithm_name(&self) -> &'static str {
        self.inner.algorithm_name()
    }

    /// The wrapped backend's snapshot algorithm tag.
    pub fn algo_tag(&self) -> u32 {
        self.inner.algo_tag()
    }

    /// Labelling work counters, if the backend keeps them.
    pub fn stats(&self) -> Option<ElmStats> {
        self.inner.elm_stats()
    }

    /// Approximate memory footprint: backend plus ingestion buffer.
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
            + self.buffer.capacity() * std::mem::size_of::<GraphUpdate>()
            + std::mem::size_of::<Self>()
    }

    /// Updates the backend has successfully applied (excludes buffered
    /// and skipped-invalid ones).
    pub fn updates_applied(&self) -> u64 {
        self.inner.updates_applied()
    }

    /// The session's epoch: the count of applied updates, which is what
    /// every acknowledgement and query reply in the service layer is
    /// tagged with.  An alias of [`Session::updates_applied`] under the
    /// name the replication contract uses — a replica serving reads at
    /// `current_epoch() ≥ floor` has applied at least the writes the
    /// floor acknowledges.
    pub fn current_epoch(&self) -> u64 {
        self.updates_applied()
    }

    /// Updates submitted to the session (buffered or applied, including
    /// invalid ones the engine skips at flush time).
    pub fn submitted(&self) -> u64 {
        self.submitted + self.buffer.len() as u64
    }

    /// Updates currently buffered, waiting for a flush.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Number of batches flushed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The effective-change clock driving the query caches.
    pub fn label_epoch(&self) -> u64 {
        self.label_epoch
    }

    /// How often the cached clustering was refreshed (cache misses), by
    /// patch or by extraction alike.
    pub fn clustering_recomputes(&self) -> u64 {
        self.clustering_recomputes
    }

    /// How often a group-by query actually consulted the backend (cache
    /// misses).
    pub fn groupby_recomputes(&self) -> u64 {
        self.groupby_recomputes
    }

    /// Automatic checkpoints successfully written so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// The most recent automatic-checkpoint failure, if the latest
    /// attempt failed (cleared by the next successful checkpoint).
    pub fn last_checkpoint_error(&self) -> Option<&str> {
        self.last_checkpoint_error.as_deref()
    }

    /// Metadata of the most recent successful automatic checkpoint
    /// (format version, algorithm tag, payload size, update count), or
    /// `None` before the first one.
    pub fn last_checkpoint_info(&self) -> Option<SnapshotInfo> {
        self.last_checkpoint_info
    }

    /// The **store** sequence number of the newest durably written
    /// checkpoint document — the number in [`CheckpointStore`] listings
    /// (and `DirCheckpointStore` filenames), monotone over the session's
    /// lifetime.  This is the replication position replicas track, as
    /// opposed to [`SnapshotInfo::sequence`], which is the in-document
    /// *chain* sequence and restarts at 0 on every full snapshot.
    /// Read from the retention ledger, so for a background checkpoint it
    /// advances only once the write has actually landed.  `None` without
    /// auto-checkpointing or before the first document.
    pub fn last_checkpoint_seq(&self) -> Option<u64> {
        self.ckpt.as_ref().and_then(|c| {
            c.shared
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .ledger
                .last()
                .map(|&(seq, _)| seq)
        })
    }

    /// Reconfigure the backend's worker-thread count (see
    /// [`SessionBuilder::threads`]).
    pub fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    /// Borrow the wrapped backend.
    pub fn as_clusterer(&self) -> &dyn Clusterer {
        &*self.inner
    }

    /// Unwrap the session, flushing any buffered updates first so the
    /// returned backend reflects everything submitted (read-your-writes,
    /// like every other way of observing the state).
    pub fn into_inner(mut self) -> Box<dyn Clusterer> {
        self.flush();
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{two_cliques_params, two_cliques_with_hub};
    use std::io::Write;
    use std::sync::Arc;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn fixture_inserts() -> Vec<GraphUpdate> {
        two_cliques_with_hub()
            .edges()
            .map(|e| GraphUpdate::Insert(e.lo(), e.hi()))
            .collect()
    }

    fn exact_session(policy: AutoBatchPolicy) -> Session {
        Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_exact_labels().with_rho(0.0))
            .auto_batch(policy)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(matches!(
            Session::builder()
                .auto_batch(AutoBatchPolicy::Size(0))
                .build(),
            Err(SessionError::InvalidBatchSize)
        ));
        assert!(matches!(
            Session::builder()
                .auto_batch(AutoBatchPolicy::SizeOrDelay {
                    size: 0,
                    max_delay: std::time::Duration::from_millis(5),
                })
                .build(),
            Err(SessionError::InvalidBatchSize)
        ));
        assert!(matches!(
            Session::builder().checkpoint_every(10).build(),
            Err(SessionError::MissingCheckpointSink)
        ));
        assert!(matches!(
            Session::builder()
                .checkpoint_every(0)
                .checkpoint_sink(|_| Ok(Box::new(Vec::new()) as Box<dyn Write>))
                .build(),
            Err(SessionError::InvalidCheckpointInterval)
        ));
    }

    #[test]
    fn queries_flush_the_buffer_first() {
        let mut session = exact_session(AutoBatchPolicy::Size(1024));
        for update in fixture_inserts() {
            assert!(session.push(update).is_none(), "size bound not reached");
        }
        assert_eq!(session.buffered(), 35);
        // Read-your-writes: the query observes all buffered updates.
        assert_eq!(session.clustering().num_clusters(), 2);
        assert_eq!(session.buffered(), 0);
        assert_eq!(session.flushes(), 1);
        assert_eq!(session.updates_applied(), 35);
    }

    #[test]
    fn auto_batch_flushes_on_the_size_bound() {
        let mut session = exact_session(AutoBatchPolicy::Size(10));
        let updates = fixture_inserts();
        let mut auto_flushes = 0;
        for update in updates.iter().copied() {
            if session.push(update).is_some() {
                auto_flushes += 1;
                assert_eq!(session.buffered(), 0);
            }
        }
        assert_eq!(auto_flushes, 35 / 10);
        assert_eq!(session.buffered(), 35 % 10);
        session.flush();
        assert_eq!(session.updates_applied(), 35);
    }

    #[test]
    fn apply_preserves_order_with_buffered_updates_and_types_errors() {
        let mut session = exact_session(AutoBatchPolicy::Size(1024));
        session.push(GraphUpdate::Insert(v(0), v(1)));
        // The direct apply flushes the buffer first, so the duplicate is
        // detected against a state that already contains (0, 1).
        assert_eq!(
            session.apply(GraphUpdate::Insert(v(1), v(0))),
            Err(UpdateError::DuplicateInsert { u: v(1), v: v(0) })
        );
        assert_eq!(
            session.apply(GraphUpdate::Delete(v(5), v(6))),
            Err(UpdateError::MissingDelete { u: v(5), v: v(6) })
        );
        assert_eq!(
            session.apply(GraphUpdate::Insert(v(2), v(2))),
            Err(UpdateError::InvalidVertex { v: v(2) })
        );
        assert_eq!(session.num_edges(), 1);
    }

    #[test]
    fn group_by_epoch_skips_recompute_on_no_flip_flush() {
        let mut session = exact_session(AutoBatchPolicy::Manual);
        session.extend(fixture_inserts());
        let q = [v(0), v(6), v(12), v(13)];
        let first = session.cluster_group_by(&q);
        assert_eq!(session.groupby_recomputes(), 1);
        let epoch = session.label_epoch();

        // A flush that does real work but produces no net flips and no new
        // vertices: delete + re-insert of an existing edge in one batch.
        session.push(GraphUpdate::Delete(v(0), v(1)));
        session.push(GraphUpdate::Insert(v(0), v(1)));
        let flips = session.flush();
        assert!(flips.is_empty(), "net flips must cancel: {flips:?}");
        assert_eq!(session.label_epoch(), epoch, "no effective change");

        // The repeated query is served from cache: no backend recompute.
        let second = session.cluster_group_by(&q);
        assert_eq!(first, second);
        assert_eq!(session.groupby_recomputes(), 1);
        assert_eq!(session.clustering_recomputes(), 0);

        // A flush that *does* flip labels invalidates the cache.
        session.push(GraphUpdate::Delete(v(4), v(5)));
        let flips = session.flush();
        assert!(!flips.is_empty());
        assert!(session.label_epoch() > epoch);
        let third = session.cluster_group_by(&q);
        assert_eq!(session.groupby_recomputes(), 2);
        assert_eq!(first, third, "this particular query's answer is stable");
    }

    #[test]
    fn max_delay_flushes_on_push_once_the_deadline_passes() {
        use crate::clock::MockClock;
        use std::time::Duration;
        let clock = MockClock::new();
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_exact_labels().with_rho(0.0))
            .auto_batch(AutoBatchPolicy::SizeOrDelay {
                size: 1000,
                max_delay: Duration::from_millis(50),
            })
            .clock(clock.clone())
            .build()
            .unwrap();
        // Far below the size bound, within the delay: buffered.
        assert!(session.push(GraphUpdate::Insert(v(0), v(1))).is_none());
        assert!(session.push(GraphUpdate::Insert(v(1), v(2))).is_none());
        assert_eq!(session.buffered(), 2);
        clock.advance(Duration::from_millis(49));
        assert!(session.push(GraphUpdate::Insert(v(0), v(2))).is_none());
        // The next push after the deadline carries the whole buffer out.
        clock.advance(Duration::from_millis(1));
        assert!(session.push(GraphUpdate::Insert(v(2), v(3))).is_some());
        assert_eq!(session.buffered(), 0);
        assert_eq!(session.updates_applied(), 4);
        // The deadline clock restarts with the next buffered update.
        assert!(session.push(GraphUpdate::Insert(v(3), v(4))).is_none());
        clock.advance(Duration::from_millis(49));
        assert!(session.poll().is_none(), "49ms < max_delay");
        clock.advance(Duration::from_millis(1));
        let flips = session.poll();
        assert!(
            flips.is_some(),
            "poll honours the deadline on quiet streams"
        );
        assert_eq!(session.buffered(), 0);
        assert!(session.poll().is_none(), "empty buffer never flushes");
    }

    #[test]
    fn threads_builder_configures_the_backend_pool() {
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_exact_labels().with_rho(0.0))
            .threads(3)
            .build()
            .unwrap();
        session.extend(fixture_inserts());
        assert_eq!(session.clustering().num_clusters(), 2);
        // Reconfiguring mid-stream is allowed and changes nothing
        // observable.
        session.set_threads(1);
        session.push(GraphUpdate::Delete(v(4), v(5)));
        session.push(GraphUpdate::Insert(v(4), v(5)));
        session.flush();
        assert_eq!(session.clustering().num_clusters(), 2);
    }

    #[test]
    fn threaded_sessions_match_the_default_byte_for_byte() {
        let updates = fixture_inserts();
        let mut reference = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(5))
            .auto_batch(AutoBatchPolicy::Size(8))
            .build()
            .unwrap();
        reference.extend(updates.clone());
        let reference_bytes = reference.checkpoint_bytes();
        for threads in [1usize, 2, 4] {
            let mut session = Session::builder()
                .backend(Backend::DynStrClu)
                .params(two_cliques_params().with_seed(5))
                .auto_batch(AutoBatchPolicy::Size(8))
                .threads(threads)
                .build()
                .unwrap();
            session.extend(updates.clone());
            assert_eq!(
                session.checkpoint_bytes(),
                reference_bytes,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn restore_any_with_info_surfaces_header_metadata() {
        let mut session = exact_session(AutoBatchPolicy::Manual);
        session.extend(fixture_inserts());
        let bytes = session.checkpoint_bytes();
        let (restored, info) = restore_any_with_info(&bytes).unwrap();
        assert_eq!(restored.algorithm_name(), "DynStrClu");
        assert_eq!(info.format_version, FORMAT_VERSION);
        assert_eq!(info.algo_tag, restored.algo_tag());
        assert_eq!(info.updates_applied, 35);
        assert_eq!(info.kind, SnapshotKind::Full);
        assert_eq!(info.sequence, 0);
        assert_eq!(
            info.payload_len as usize,
            bytes.len() - dynscan_graph::snapshot::HEADER_LEN
        );
        assert!(matches!(
            restore_any_with_info(&bytes[..10]),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn clustering_cache_tracks_new_vertices() {
        let mut session = exact_session(AutoBatchPolicy::Manual);
        session.extend(fixture_inserts());
        let before = session.clustering().num_vertices();
        assert_eq!(session.clustering_recomputes(), 1);
        // An isolated-ish new vertex whose edge stays dissimilar produces
        // no flips — but the vertex set grew, so the cache must refresh.
        session.push(GraphUpdate::Insert(v(13), v(20)));
        session.flush();
        let after = session.clustering().num_vertices();
        assert!(after > before);
        assert_eq!(session.clustering_recomputes(), 2);
    }

    #[test]
    fn flip_endpoints_route_refreshes_between_patch_and_extraction() {
        let mut session = exact_session(AutoBatchPolicy::Manual);
        session.apply_batch(&fixture_inserts());
        assert!(session.flip_endpoints.is_none(), "nothing cached yet");
        session.clustering();
        assert_eq!(session.flip_endpoints.as_deref(), Some(&[][..]));
        session.apply(GraphUpdate::Delete(v(4), v(5))).unwrap();
        let pending = session.flip_endpoints.clone().expect("collecting");
        assert!(pending.contains(&v(4)) && pending.contains(&v(5)));
        let patched = session.clustering().clone();
        assert_eq!(patched, session.inner.current_clustering());
        assert_eq!(session.clustering_recomputes(), 2);
        // Isolated edges arrive similar: past the crossover the list is
        // dropped and the next refresh extracts.
        let bulk: Vec<GraphUpdate> = (0..PATCH_CROSSOVER as u32 / 2 + 1)
            .map(|i| GraphUpdate::Insert(v(100 + 2 * i), v(101 + 2 * i)))
            .collect();
        session.apply_batch(&bulk);
        assert!(session.flip_endpoints.is_none());
        let extracted = session.clustering().clone();
        assert_eq!(extracted, session.inner.current_clustering());
        assert_eq!(session.clustering_recomputes(), 3);
        assert_eq!(session.flip_endpoints.as_deref(), Some(&[][..]));
    }

    #[test]
    fn streamed_equals_direct_for_any_flush_pattern() {
        let updates = fixture_inserts();
        let mut direct = exact_session(AutoBatchPolicy::Manual);
        for &u in &updates {
            direct.apply(u).unwrap();
        }
        for size in [1usize, 2, 3, 7, 64] {
            let mut streamed = exact_session(AutoBatchPolicy::Size(size));
            streamed.extend(updates.iter().copied());
            assert_eq!(
                streamed.cluster_group_by(&[v(0), v(6), v(12)]),
                direct.cluster_group_by(&[v(0), v(6), v(12)]),
                "buffer size {size}"
            );
            assert_eq!(
                streamed.clustering().num_clusters(),
                direct.clustering().num_clusters()
            );
        }
    }

    #[test]
    fn unregistered_backend_is_a_typed_error() {
        // The baselines live downstream; without their `install()` the
        // core registry cannot construct them.
        let result = Session::builder().backend(Backend::ExactDynScan).build();
        assert!(matches!(
            result,
            Err(SessionError::BackendUnavailable {
                backend: Backend::ExactDynScan
            })
        ));
        assert!(backend_available(Backend::DynElm));
        assert!(backend_available(Backend::DynStrClu));
    }

    #[test]
    fn restore_any_roundtrips_both_core_backends() {
        for backend in [Backend::DynElm, Backend::DynStrClu] {
            let mut session = Session::builder()
                .backend(backend)
                .params(two_cliques_params().with_seed(17))
                .build()
                .unwrap();
            session.extend(fixture_inserts());
            let bytes = session.checkpoint_bytes();
            let restored = restore_any(&bytes).expect("registry restores");
            assert_eq!(restored.algorithm_name(), session.algorithm_name());
            assert_eq!(restored.checkpoint_bytes(), bytes, "canonical encoding");
            let mut resumed = Session::from_clusterer(restored);
            assert_eq!(
                resumed.clustering().num_clusters(),
                session.clustering().num_clusters()
            );
        }
    }

    #[test]
    fn restore_any_rejects_unknown_tags() {
        let mut session = exact_session(AutoBatchPolicy::Manual);
        session.extend(fixture_inserts());
        let mut bytes = session.checkpoint_bytes();
        // Forge an unknown algorithm tag in the header.
        bytes[12..16].copy_from_slice(&0xdead_beef_u32.to_le_bytes());
        assert!(matches!(
            restore_any(&bytes),
            Err(SnapshotError::UnknownAlgorithm { found: 0xdead_beef })
        ));
        assert!(matches!(
            restore_any(&[1, 2, 3]),
            Err(SnapshotError::Truncated)
        ));
    }

    /// A `Write` that buffers locally and publishes into the shared store
    /// slot on `flush` — the in-memory stand-in for a file-per-checkpoint
    /// sink.
    struct Tee {
        buf: Vec<u8>,
        store: Arc<Mutex<Vec<Vec<u8>>>>,
        index: usize,
    }

    impl Write for Tee {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.store.lock().unwrap()[self.index] = self.buf.clone();
            Ok(())
        }
    }

    #[test]
    fn auto_checkpoint_writes_through_the_sink_and_restores_erased() {
        let store: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_store = Arc::clone(&store);
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(7))
            .auto_batch(AutoBatchPolicy::Size(8))
            .checkpoint_every(16)
            .checkpoint_sink(move |seq| {
                let store = Arc::clone(&sink_store);
                let index = {
                    let mut slots = store.lock().unwrap();
                    assert_eq!(seq as usize, slots.len(), "sequence numbers are dense");
                    slots.push(Vec::new());
                    slots.len() - 1
                };
                Ok(Box::new(Tee {
                    buf: Vec::new(),
                    store,
                    index,
                }) as Box<dyn Write>)
            })
            .build()
            .unwrap();
        session.extend(fixture_inserts());
        session.flush();
        assert!(session.last_checkpoint_error().is_none());
        assert_eq!(session.checkpoints_written(), 2, "35 updates / every 16");
        // The session records what it wrote: the second checkpoint covers
        // the first 32 updates and its payload length matches the bytes
        // that reached the sink.
        let info = session.last_checkpoint_info().expect("checkpoints written");
        assert_eq!(info.algo_tag, session.algo_tag());
        assert_eq!(info.format_version, FORMAT_VERSION);
        assert_eq!(info.updates_applied, 32);
        let snapshots = store.lock().unwrap();
        assert_eq!(
            info.payload_len as usize,
            snapshots.last().unwrap().len() - dynscan_graph::snapshot::HEADER_LEN
        );
        assert_eq!(info.kind, SnapshotKind::Full, "full_every defaults to 1");
        assert!(info.wall_time_millis > 0, "auto-checkpoints are stamped");
        for bytes in snapshots.iter() {
            let restored = restore_any(bytes).expect("auto-checkpoint restores erased");
            assert_eq!(restored.algorithm_name(), "DynStrClu");
        }
    }

    /// Regression: a stale failure must not outlive the next successful
    /// auto-checkpoint — a sink that fails once and then recovers leaves
    /// `last_checkpoint_error` clear, and the first document after the
    /// failure is a *full* snapshot (the failed write punched a hole in
    /// the chain, so a delta would reference a base the store never got).
    #[test]
    fn checkpoint_error_clears_after_recovery_and_chain_restarts_full() {
        use crate::testing::{FaultPlan, FlakyStore, MemCheckpointStore};
        let store = MemCheckpointStore::new();
        let plan = FaultPlan::new();
        // Attempts: 0 ok (full), 1 fails at open, 2+ ok.
        plan.fail_open_on([1]);
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(3))
            .checkpoint_every(8)
            .full_every(4) // deltas in between — the recovery must override
            .checkpoint_store(FlakyStore::new(store.clone(), plan.clone()))
            .build()
            .unwrap();
        let updates = fixture_inserts();
        // First 8 updates → checkpoint 0 (full, succeeds).
        for &u in &updates[..8] {
            session.apply(u).unwrap();
        }
        assert!(session.last_checkpoint_error().is_none());
        assert_eq!(session.checkpoints_written(), 1);
        // Next 8 → attempt 1 (would be a delta) fails: recorded, not fatal.
        for &u in &updates[8..16] {
            session.apply(u).unwrap();
        }
        assert!(session
            .last_checkpoint_error()
            .is_some_and(|e| e.contains("injected open failure")));
        assert_eq!(session.checkpoints_written(), 1);
        // Next 8 → attempt 2 succeeds: the stale error must clear, and
        // because the chain broke, the document must be a full snapshot.
        for &u in &updates[16..24] {
            session.apply(u).unwrap();
        }
        assert!(
            session.last_checkpoint_error().is_none(),
            "a later successful auto-checkpoint must clear the stale failure"
        );
        assert_eq!(session.checkpoints_written(), 2);
        let info = session.last_checkpoint_info().unwrap();
        assert_eq!(
            info.kind,
            SnapshotKind::Full,
            "chain restarts after a failure"
        );
        assert_eq!(plan.attempts(), 3);
        let docs = store.documents();
        assert_eq!(docs.len(), 2);
        // Both documents restore.
        for (_, _, bytes) in docs.iter() {
            restore_any(bytes).expect("recovered chain documents restore");
        }
    }

    /// Satellite fix pin: a drain waits out the in-flight background
    /// checkpoint and takes a final full snapshot — afterwards the store
    /// directory holds only published documents, never a stray `.tmp`
    /// from a write the shutdown raced.
    #[test]
    fn drain_waits_for_background_checkpoints_and_leaves_no_tmp() {
        let dir =
            std::env::temp_dir().join(format!("dynscan-session-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(13))
            .checkpoint_every(8)
            .checkpoint_store(crate::store::DirCheckpointStore::new(&dir))
            .full_every(4)
            .background_checkpoints(true)
            .build()
            .unwrap();
        let updates = fixture_inserts();
        for &u in &updates[..33] {
            session.apply(u).unwrap();
        }
        // Push the remaining updates but do NOT flush: drain must cover
        // them in the final checkpoint anyway.
        for &u in &updates[33..] {
            session.push(u);
        }
        let info = session
            .drain()
            .expect("drain checkpoint succeeds")
            .expect("a store is configured");
        assert_eq!(info.kind, SnapshotKind::Full, "drain checkpoints full");
        assert_eq!(info.updates_applied, updates.len() as u64);
        assert!(!session.has_pending_checkpoint());
        assert!(session.last_checkpoint_error().is_none());
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| !name.ends_with(".snap"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "stray non-snapshot files: {leftovers:?}"
        );
        // The drained chain resumes to exactly the full stream.
        let docs = crate::store::DirCheckpointStore::new(&dir)
            .read_chain()
            .unwrap();
        let resumed = restore_any_chain(&docs).unwrap();
        assert_eq!(resumed.updates_applied(), updates.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_cadence_retention_and_chain_resume_via_dir_store() {
        let dir =
            std::env::temp_dir().join(format!("dynscan-session-chain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(11))
            .checkpoint_every(5)
            .checkpoint_store(crate::store::DirCheckpointStore::new(&dir))
            .full_every(3)
            .keep_last(1)
            .build()
            .unwrap();
        let updates = fixture_inserts();
        for &u in &updates {
            session.apply(u).unwrap();
        }
        // 35 updates / every 5 → 7 checkpoints: kinds F D D F D D F,
        // keep_last(1) retains only seq 6 (the newest full).
        assert_eq!(session.checkpoints_written(), 7);
        assert_eq!(
            session.retained_checkpoints(),
            vec![(6, SnapshotKind::Full)]
        );
        let reader = crate::store::DirCheckpointStore::new(&dir);
        let on_disk: Vec<(u64, SnapshotKind)> = reader
            .list()
            .unwrap()
            .into_iter()
            .map(|(s, k, _)| (s, k))
            .collect();
        assert_eq!(
            on_disk,
            vec![(6, SnapshotKind::Full)],
            "pruning deletes files"
        );
        // The info of the last checkpoint reflects the cadence.
        let info = session.last_checkpoint_info().unwrap();
        assert_eq!(info.kind, SnapshotKind::Full);
        assert_eq!(info.sequence, 0, "a full snapshot restarts the chain");
        // The retained chain resumes to exactly the checkpointed state.
        let docs = reader.read_chain().unwrap();
        let mut resumed = Session::restore_chain(&docs).unwrap();
        assert_eq!(resumed.updates_applied(), 35, "7 × 5 updates at seq 6");
        assert_eq!(resumed.clustering().num_clusters(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The restart workflow end to end: resume from the store's chain
    /// *and keep auto-checkpointing into it* — the first post-resume
    /// document chains as a delta onto the restored base, and a later
    /// fresh-process restore sees the pre- and post-restart updates.
    #[test]
    fn build_resuming_continues_state_and_chain() {
        let dir =
            std::env::temp_dir().join(format!("dynscan-session-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let updates = fixture_inserts();
        // Run 1: 20 updates, checkpoints at 10 and 20, then "crash".
        let mut first = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(31))
            .checkpoint_every(10)
            .checkpoint_store(crate::store::DirCheckpointStore::new(&dir))
            .full_every(4)
            .build()
            .unwrap();
        for &u in &updates[..20] {
            first.apply(u).unwrap();
        }
        assert_eq!(first.checkpoints_written(), 2);
        drop(first);
        // Run 2: resume from the chain and continue checkpointing.
        let docs = crate::store::DirCheckpointStore::new(&dir)
            .read_chain()
            .unwrap();
        let mut resumed = Session::builder()
            .checkpoint_every(10)
            .checkpoint_store(crate::store::DirCheckpointStore::new(&dir))
            .full_every(4)
            .build_resuming_from_chain(&docs)
            .unwrap();
        assert_eq!(resumed.updates_applied(), 20, "state continues, not fresh");
        for &u in &updates[20..] {
            resumed.apply(u).unwrap();
        }
        assert_eq!(resumed.checkpoints_written(), 1, "one more at update 30");
        let info = resumed.last_checkpoint_info().unwrap();
        assert_eq!(
            info.kind,
            SnapshotKind::Delta,
            "seq 2 in a full_every(4) cadence chains onto the restored base"
        );
        // A third lifetime restores the extended chain to the full state.
        let docs = crate::store::DirCheckpointStore::new(&dir)
            .read_chain()
            .unwrap();
        let mut third = Session::restore_chain(&docs).unwrap();
        assert_eq!(third.updates_applied(), 30);
        assert_eq!(third.clustering().num_clusters(), 2);
        // A bogus chain is a typed error.
        assert!(matches!(
            Session::builder().build_resuming_from_chain(&[&b"junk"[..]]),
            Err(SessionError::RestoreFailed(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: reusing a checkpoint directory across session
    /// lifetimes must continue the sequence numbering past the previous
    /// run's documents — otherwise the new run's `seq 0` sorts before
    /// stale leftovers and `read_chain` resumes the wrong state.
    #[test]
    fn reused_store_directory_continues_the_numbering() {
        let dir =
            std::env::temp_dir().join(format!("dynscan-session-reuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            Session::builder()
                .backend(Backend::DynStrClu)
                .params(two_cliques_params().with_seed(29))
                .checkpoint_every(10)
                .checkpoint_store(crate::store::DirCheckpointStore::new(&dir))
                .keep_last(2)
                .build()
                .unwrap()
        };
        // Run 1: 20 updates → seqs 0 and 1, then "crash" (drop).
        let mut first = build();
        for &u in &fixture_inserts()[..20] {
            first.apply(u).unwrap();
        }
        assert_eq!(first.checkpoints_written(), 2);
        drop(first);
        // Run 2 over the same directory: numbering continues at 2.
        let mut second = build();
        for &u in &fixture_inserts() {
            second.apply(u).unwrap();
        }
        assert_eq!(second.checkpoints_written(), 3);
        let resumed_docs = crate::store::DirCheckpointStore::new(&dir)
            .read_chain()
            .unwrap();
        let (_, info) = restore_any_with_info(&resumed_docs[0]).unwrap();
        assert!(
            info.updates_applied >= 30,
            "resume must pick run 2's newest full (seq ≥ 2), not run 1's \
             leftovers — got a snapshot at {} updates",
            info.updates_applied
        );
        // Retention spans lifetimes: the adopted ledger lets keep_last(2)
        // prune run 1's chains, so only the 2 newest fulls remain on disk.
        let remaining: Vec<u64> = crate::store::DirCheckpointStore::new(&dir)
            .list()
            .unwrap()
            .into_iter()
            .map(|(s, _, _)| s)
            .collect();
        assert_eq!(
            remaining,
            vec![3, 4],
            "run 1's documents (seqs 0, 1) and run 2's pruned seq 2 must be gone"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_checkpoints_complete_and_restore() {
        let dir = std::env::temp_dir().join(format!("dynscan-session-bg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = Session::builder()
            .backend(Backend::DynStrClu)
            .params(two_cliques_params().with_seed(23))
            .auto_batch(AutoBatchPolicy::Size(4))
            .checkpoint_every(10)
            .checkpoint_store(crate::store::DirCheckpointStore::new(&dir))
            .full_every(2)
            .background_checkpoints(true)
            .build()
            .unwrap();
        session.extend(fixture_inserts());
        session.flush();
        session.wait_for_checkpoints();
        assert!(session.last_checkpoint_error().is_none());
        assert_eq!(session.checkpoints_written(), 3, "35 updates / every 10");
        assert_eq!(
            session.retained_checkpoints(),
            vec![
                (0, SnapshotKind::Full),
                (1, SnapshotKind::Delta),
                (2, SnapshotKind::Full),
            ]
        );
        // The background-written chain resumes to the same clustering as
        // the live session at the last checkpoint boundary.
        let docs = crate::store::DirCheckpointStore::new(&dir)
            .read_chain()
            .unwrap();
        let mut resumed = Session::restore_chain(&docs).unwrap();
        // Batched flushes land the checkpoint boundaries at 12/24/35.
        assert_eq!(resumed.updates_applied(), 35);
        assert_eq!(
            resumed.clustering().num_clusters(),
            session.clustering().num_clusters()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_sink_is_recorded_not_fatal() {
        let mut session = Session::builder()
            .backend(Backend::DynElm)
            .params(two_cliques_params())
            .checkpoint_every(4)
            .checkpoint_sink(|_| {
                Err(std::io::Error::new(
                    std::io::ErrorKind::PermissionDenied,
                    "disk full",
                ))
            })
            .build()
            .unwrap();
        session.extend(fixture_inserts());
        session.flush();
        assert_eq!(session.checkpoints_written(), 0);
        assert!(session
            .last_checkpoint_error()
            .is_some_and(|e| e.contains("disk full")));
        // The session itself keeps working.
        assert_eq!(session.clustering().num_clusters(), 2);
    }
}
