//! The cross-process checkpoint/restore gate used by CI, plus the golden
//! snapshot fixture generator — driven end-to-end through the `Session`
//! facade.
//!
//! The point of the two-command dance is that restore happens in a *fresh
//! process* — nothing can leak through in-memory state, the snapshot files
//! are the only channel:
//!
//! ```text
//! # Phase 1: build a workload with background auto-checkpointing into a
//! # directory store (full snapshot every 8th checkpoint, deltas in
//! # between, keep_last(2) retention pruning).  The warmup's last update
//! # lands exactly on a checkpoint boundary; the phase then verifies the
//! # retention ledger against the files on disk, finishes the stream
//! # in-process and records the expected final clustering.
//! snapshot_ci checkpoint <dir>
//!
//! # Phase 2 (fresh process): read the newest full snapshot + delta chain
//! # back from the directory, restore it through the *erased*
//! # `restore_any_chain` registry path (no concrete type named), replay
//! # the same continuation, and fail unless the final clustering and the
//! # final checkpoint bytes match phase 1 exactly.
//! snapshot_ci resume <dir>
//! ```
//!
//! The workload is regenerated deterministically from a fixed seed in both
//! phases, so the only state crossing the process boundary is the
//! checkpoint chain itself.
//!
//! ```text
//! # Maintain the committed current-format (v5) fixture:
//! snapshot_ci golden write tests/fixtures/golden_snapshot_v5.bin
//! snapshot_ci golden check tests/fixtures/golden_snapshot_v5.bin
//! # Backward-compat decode gate for the immutable v1–v4 fixtures (no
//! # writer produces any of them any more): the version comes from the
//! # header, and the fixture must keep restoring to exactly the canonical
//! # state (its v5 re-encode equals `golden write`'s output byte for
//! # byte):
//! snapshot_ci golden check-legacy tests/fixtures/golden_snapshot_v4.bin
//! snapshot_ci golden check-legacy tests/fixtures/golden_snapshot_v3.bin
//! snapshot_ci golden check-legacy tests/fixtures/golden_snapshot_v2.bin
//! snapshot_ci golden check-legacy tests/fixtures/golden_snapshot_v1.bin
//! ```

use dynscan_bench::clustering_fingerprint;
use dynscan_bench::snapshot::make_workload;
use dynscan_bench::CheckpointBenchConfig;
use dynscan_core::{restore_any, Backend, DirCheckpointStore, Params, Session, SnapshotKind};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn ci_config() -> CheckpointBenchConfig {
    CheckpointBenchConfig {
        num_vertices: 800,
        initial_edges: 3_200,
        warmup_batches: 10,
        continuation_batches: 6,
        batch_size: 128,
        seed: 0x00c1_5eed,
    }
}

/// Auto-checkpoint cadence of the gate.  `CHECKPOINT_EVERY` divides both
/// the initial-insert count and the warmup batch size, so the 35th and
/// last checkpoint fires exactly at the warmup boundary — the chain's end
/// state equals the state the continuation starts from.
const CHECKPOINT_EVERY: u64 = 128;
const FULL_EVERY: u64 = 8;
const KEEP_LAST: u64 = 2;

fn ci_params(seed: u64) -> Params {
    // Sampled mode: the hardest configuration to resume bit-identically.
    Params::jaccard(0.3, 4).with_rho(0.25).with_seed(seed)
}

fn chain_dir(dir: &Path) -> PathBuf {
    dir.join("chain")
}

/// Build the session up to the checkpoint moment (phase 1 only),
/// auto-checkpointing full+delta chains into `<dir>/chain` with
/// background encoding/I/O and retention pruning, then verify the
/// retained documents are exactly what the policy promises.
fn build_to_checkpoint(config: &CheckpointBenchConfig, dir: &Path) -> Result<Session, String> {
    let (initial, warmup, _) = make_workload(config);
    let mut session = Session::builder()
        .backend(Backend::DynStrClu)
        .params(ci_params(config.seed))
        .checkpoint_every(CHECKPOINT_EVERY)
        .checkpoint_store(DirCheckpointStore::new(chain_dir(dir)))
        .full_every(FULL_EVERY)
        .keep_last(KEEP_LAST)
        .background_checkpoints(true)
        .build()
        .map_err(|e| format!("build session: {e}"))?;
    for &(u, v) in &initial {
        session
            .apply(dynscan_core::GraphUpdate::Insert(u, v))
            .map_err(|e| format!("initial insert: {e}"))?;
    }
    for batch in &warmup {
        session.apply_batch(batch);
    }
    // Background mode: the last write may still be in flight.
    session.wait_for_checkpoints();
    if let Some(error) = session.last_checkpoint_error() {
        return Err(format!("auto-checkpoint failed: {error}"));
    }
    let total_updates = (config.initial_edges + config.warmup_batches * config.batch_size) as u64;
    let expected_checkpoints = total_updates / CHECKPOINT_EVERY;
    if session.checkpoints_written() != expected_checkpoints {
        return Err(format!(
            "expected {expected_checkpoints} auto-checkpoints over {total_updates} updates, \
             got {}",
            session.checkpoints_written()
        ));
    }
    // Retention: everything older than the KEEP_LAST-th-newest full must
    // be pruned, on the ledger *and* on disk.
    let retained = session.retained_checkpoints();
    let fulls: Vec<u64> = retained
        .iter()
        .filter(|&&(_, k)| k == SnapshotKind::Full)
        .map(|&(s, _)| s)
        .collect();
    if fulls.len() as u64 != KEEP_LAST {
        return Err(format!(
            "retention must keep exactly {KEEP_LAST} full snapshots, ledger holds {fulls:?}"
        ));
    }
    let expected_first = fulls[0];
    if retained.first().map(|&(s, _)| s) != Some(expected_first)
        || retained.last().map(|&(s, _)| s) != Some(expected_checkpoints - 1)
    {
        return Err(format!("unexpected retention ledger: {retained:?}"));
    }
    let on_disk = DirCheckpointStore::new(chain_dir(dir))
        .list()
        .map_err(|e| format!("list chain dir: {e}"))?;
    let disk_view: Vec<(u64, SnapshotKind)> = on_disk.iter().map(|&(s, k, _)| (s, k)).collect();
    if disk_view != retained {
        return Err(format!(
            "retention pruning drifted from the ledger: disk {disk_view:?} vs ledger {retained:?}"
        ));
    }
    eprintln!(
        "snapshot_ci: {} documents retained after pruning ({} fulls), chain resumes from \
         seq {}",
        retained.len(),
        fulls.len(),
        fulls.last().expect("KEEP_LAST ≥ 1")
    );
    Ok(session)
}

/// Replay the continuation and return (fingerprint, final checkpoint).
fn run_continuation(session: &mut Session, config: &CheckpointBenchConfig) -> (String, Vec<u8>) {
    let (_, _, continuation) = make_workload(config);
    for batch in &continuation {
        session.apply_batch(batch);
    }
    let fingerprint = clustering_fingerprint(session.clustering());
    (fingerprint, session.checkpoint_bytes())
}

fn phase_checkpoint(dir: &Path) -> Result<(), String> {
    let config = ci_config();
    let _ = std::fs::remove_dir_all(chain_dir(dir));
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let session = build_to_checkpoint(&config, dir)?;
    // Detach the backend from the auto-checkpoint hook for the
    // continuation: the chain on disk must keep holding exactly the
    // warmup-boundary state that phase 2 resumes from.
    let mut session = Session::from_clusterer(session.into_inner());
    let edges_at_checkpoint = session.num_edges();
    let (fingerprint, final_bytes) = run_continuation(&mut session, &config);
    std::fs::write(dir.join("expected_fingerprint.txt"), fingerprint)
        .map_err(|e| format!("write expected_fingerprint.txt: {e}"))?;
    std::fs::write(dir.join("expected_final.bin"), final_bytes)
        .map_err(|e| format!("write expected_final.bin: {e}"))?;
    eprintln!(
        "snapshot_ci: auto-checkpointed a full+delta chain at {edges_at_checkpoint} edges \
         into {}",
        chain_dir(dir).display()
    );
    Ok(())
}

fn phase_resume(dir: &Path) -> Result<(), String> {
    let config = ci_config();
    let docs = DirCheckpointStore::new(chain_dir(dir))
        .read_chain()
        .map_err(|e| format!("read chain (run `snapshot_ci checkpoint` first): {e}"))?;
    // The gate must actually exercise delta replay: base + ≥ 1 delta.
    let kinds: Vec<SnapshotKind> = docs
        .iter()
        .map(|doc| {
            dynscan_graph::snapshot::peek_header(doc)
                .map(|h| h.kind)
                .map_err(|e| format!("peek chain document: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if kinds.first() != Some(&SnapshotKind::Full)
        || !kinds[1..].iter().all(|&k| k == SnapshotKind::Delta)
        || kinds.len() < 2
    {
        return Err(format!(
            "expected a full snapshot followed by deltas, got {kinds:?}"
        ));
    }
    // Erased restore: the registry dispatches on the base's algorithm
    // tag; deltas are applied through the object-safe handle.  This phase
    // never names a concrete algorithm type.
    let mut session =
        Session::restore_chain(&docs).map_err(|e| format!("restore_any_chain failed: {e}"))?;
    let (fingerprint, final_bytes) = run_continuation(&mut session, &config);
    let expected_fingerprint = std::fs::read_to_string(dir.join("expected_fingerprint.txt"))
        .map_err(|e| format!("read expected_fingerprint.txt: {e}"))?;
    if fingerprint != expected_fingerprint {
        return Err(
            "final clustering of the restored run differs from the uninterrupted run".into(),
        );
    }
    let expected_final = std::fs::read(dir.join("expected_final.bin"))
        .map_err(|e| format!("read expected_final.bin: {e}"))?;
    if final_bytes != expected_final {
        return Err(
            "final checkpoint bytes of the restored run differ from the uninterrupted run".into(),
        );
    }
    eprintln!(
        "snapshot_ci: fresh-process resume from a base + {}-delta chain via restore_any_chain \
         ({}) matched the uninterrupted run (clustering + {} final state bytes)",
        kinds.len() - 1,
        session.algorithm_name(),
        final_bytes.len()
    );
    Ok(())
}

/// The canonical instance behind the committed golden fixtures: small and
/// fully deterministic, in sampled mode so estimator counters are
/// exercised.
fn golden_session() -> Session {
    let params = Params::jaccard(0.35, 3).with_rho(0.2).with_seed(0x601d);
    let mut session = Session::builder()
        .backend(Backend::DynStrClu)
        .params(params)
        .build()
        .expect("DynStrClu is always registered");
    let updates: Vec<dynscan_core::GraphUpdate> = {
        use dynscan_core::{GraphUpdate, VertexId};
        let v = VertexId;
        let mut u = Vec::new();
        // Two tight 5-cliques bridged by a hub, then some churn.
        for base in [0u32, 5] {
            for a in base..base + 5 {
                for b in (a + 1)..base + 5 {
                    u.push(GraphUpdate::Insert(v(a), v(b)));
                }
            }
        }
        for x in [0u32, 1, 5, 6] {
            u.push(GraphUpdate::Insert(v(10), v(x)));
        }
        u.push(GraphUpdate::Delete(v(0), v(1)));
        u.push(GraphUpdate::Insert(v(0), v(1)));
        u.push(GraphUpdate::Delete(v(5), v(9)));
        u
    };
    for batch in updates.chunks(7) {
        session.apply_batch(batch);
    }
    session
}

fn golden(action: &str, path: &Path) -> Result<(), String> {
    use dynscan_graph::snapshot::{peek_header, FORMAT_VERSION};
    let bytes = golden_session().checkpoint_bytes();
    if action == "write" {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, &bytes).map_err(|e| format!("write fixture: {e}"))?;
        eprintln!(
            "snapshot_ci: wrote {} fixture bytes to {}",
            bytes.len(),
            path.display()
        );
        return Ok(());
    }
    if action != "check" && action != "check-legacy" {
        return Err(format!(
            "unknown golden action `{action}` (use write|check|check-legacy)"
        ));
    }
    let committed =
        std::fs::read(path).map_err(|e| format!("read fixture {}: {e}", path.display()))?;
    let version = peek_header(&committed)
        .map_err(|e| format!("peek fixture: {e}"))?
        .format_version;
    let restored = restore_any(&committed[..])
        .map_err(|e| format!("format-v{version} fixture no longer restores: {e}"))?;
    if action == "check-legacy" {
        // A legacy fixture is never regenerated: it must keep restoring
        // to exactly the canonical state, so its current-format re-encode
        // equals `golden write`'s output byte for byte.
        if version >= FORMAT_VERSION {
            return Err(format!(
                "expected a legacy fixture (format v1–v{}), found version {version}",
                FORMAT_VERSION - 1
            ));
        }
        if restored.checkpoint_bytes() != bytes {
            return Err(format!(
                "v{version} fixture restores to different state than the canonical instance"
            ));
        }
        eprintln!(
            "snapshot_ci: legacy v{version} fixture ({} bytes) still restores to the canonical \
             state under format v{FORMAT_VERSION}",
            committed.len()
        );
        return Ok(());
    }
    if version != FORMAT_VERSION {
        return Err(format!(
            "expected a format-v{FORMAT_VERSION} fixture, found version {version}"
        ));
    }
    if restored.checkpoint_bytes() != committed {
        return Err("fixture is not a fixed point of checkpoint∘restore".into());
    }
    if committed != bytes {
        // Both wire-format changes and semantic algorithm changes (e.g. a
        // threshold-formula fix that alters DT state) land here — the
        // point is that neither may happen *silently*.
        return Err(format!(
            "snapshot bytes drifted: rebuilding the canonical instance produces different \
             bytes than {} — if the change is intentional, regenerate with `snapshot_ci \
             golden write`; additionally bump FORMAT_VERSION if (and only if) the wire \
             layout itself changed",
            path.display()
        ));
    }
    eprintln!(
        "snapshot_ci: golden fixture matches ({} bytes, restored as {})",
        bytes.len(),
        restored.algorithm_name()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, dir] if cmd == "checkpoint" => phase_checkpoint(Path::new(dir)),
        [cmd, dir] if cmd == "resume" => phase_resume(Path::new(dir)),
        [cmd, action, path] if cmd == "golden" => golden(action, Path::new(path)),
        _ => Err("usage: snapshot_ci checkpoint <dir> | resume <dir> | \
             golden write|check|check-legacy <path>"
            .into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("snapshot_ci: FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
