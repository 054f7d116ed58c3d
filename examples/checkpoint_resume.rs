//! Checkpoint a live clustering service and resume it bit-identically —
//! through the `Session` facade's auto-checkpoint hook and the *erased*
//! `restore_any` path (no concrete algorithm type is named on restore).
//!
//! ```text
//! cargo run --release --example checkpoint_resume
//! ```

use dynscan::core::{Backend, GraphUpdate, MemCheckpointStore, Params, Session, VertexId};

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// The service's whole update history — also what a production
/// deployment would keep in its write-ahead log: two communities plus
/// some churn.
fn update_log() -> Vec<GraphUpdate> {
    let mut log = Vec::new();
    for base in [0u32, 8] {
        for a in base..base + 8 {
            for b in (a + 1)..base + 8 {
                log.push(GraphUpdate::Insert(v(a), v(b)));
            }
        }
    }
    log.push(GraphUpdate::Insert(v(7), v(8)));
    log.push(GraphUpdate::Delete(v(0), v(1)));
    log
}

fn main() {
    // Sampled mode (the real algorithm): future label decisions draw
    // randomness, which is exactly what a checkpoint must preserve.
    // An in-memory checkpoint store; a production service would use a
    // `DirCheckpointStore` (one file per document) or its own
    // `CheckpointStore` over an object store.  Clones share the
    // documents, so this handle reads what the session writes.
    let store = MemCheckpointStore::new();
    let mut service = Session::builder()
        .backend(Backend::DynStrClu)
        .params(Params::jaccard(0.3, 4).with_rho(0.2).with_seed(7))
        // Auto-checkpoint every 50 submitted updates into the store.
        .checkpoint_every(50)
        .checkpoint_store(store.clone())
        .build()
        .expect("valid configuration");

    // A running service, fed from the log.
    let full_log = update_log();
    for &update in &full_log {
        service.apply(update).unwrap();
    }
    assert!(service.last_checkpoint_error().is_none());
    println!(
        "service processed {} updates; auto-checkpoints written: {}",
        service.updates_applied(),
        service.checkpoints_written()
    );

    // --- Crash & restart: restore the *latest* auto-checkpoint instead
    // of replaying the history.  `Session::restore` goes through the
    // erased registry — it works for whatever algorithm the bytes hold.
    let (_, _, latest) = store.documents().pop().expect("checkpoints");
    println!("restoring from {} snapshot bytes", latest.len());
    let mut resumed = Session::restore(&latest).expect("snapshot restores");
    println!("restored backend: {}", resumed.algorithm_name());

    // The restored session lags the live one by the updates submitted
    // after the last auto-checkpoint; replay them (in production: from a
    // write-ahead log), then both must behave bit-identically.
    let behind = service.updates_applied() - resumed.updates_applied();
    println!("replaying {behind} post-checkpoint updates from the log");
    let start = full_log.len() - behind as usize;
    for &update in &full_log[start..] {
        resumed.apply(update).unwrap();
    }

    // Both instances now process the same continuation; the restored one
    // behaves exactly like the one that never stopped — byte-identical
    // flip sets and, afterwards, byte-identical checkpoints.
    let continuation = [
        GraphUpdate::Insert(v(0), v(1)),
        GraphUpdate::Delete(v(7), v(8)),
        GraphUpdate::Insert(v(3), v(12)),
    ];
    for &update in &continuation {
        let live_flips = service.apply(update).unwrap();
        let resumed_flips = resumed.apply(update).unwrap();
        assert_eq!(live_flips, resumed_flips, "resume must be bit-identical");
    }
    assert_eq!(service.checkpoint_bytes(), resumed.checkpoint_bytes());
    println!(
        "resumed bit-identically: {} clusters either way",
        resumed.clustering().num_clusters()
    );
}
