//! Where automatic checkpoints go: the [`CheckpointStore`] abstraction
//! and a ready-made directory-backed implementation.
//!
//! The [`crate::Session`]'s auto-checkpointing needs more than a `Write`
//! factory once retention enters the picture: pruning old full+delta
//! chains requires *removing* documents by sequence number.  A store is
//! therefore a factory keyed by `(sequence, kind)` plus a best-effort
//! `remove`.
//!
//! [`DirCheckpointStore`] writes one file per document
//! (`ckpt-<seq>-<kind>.snap`), really deletes on `remove`, and can read
//! the **resume chain** back: the newest full snapshot plus every delta
//! written after it, in order — exactly what
//! [`crate::restore_any_chain`] consumes.  The fresh-process `snapshot_ci`
//! gate drives this end to end.  It can also be tailed
//! ([`DirCheckpointStore::poll_since`]): the directory is the one
//! replication feed, read both by tailing replicas and by the primary's
//! replication streams.

use dynscan_graph::SnapshotKind;
use std::io;
use std::path::{Path, PathBuf};

/// One checkpoint document returned by [`DirCheckpointStore::poll_since`]:
/// its chain sequence number, kind, and full encoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailedDoc {
    /// Sequence number within the store's chain.
    pub seq: u64,
    /// Full snapshot or delta.
    pub kind: SnapshotKind,
    /// The encoded document, exactly as written.
    pub bytes: Vec<u8>,
}

/// Why a [`DirCheckpointStore::poll_since`] tail poll failed.
#[derive(Debug)]
pub enum TailError {
    /// The reader's chain position no longer connects to what the store
    /// retains: the base document it last applied was pruned away (or
    /// vanished mid-read under a concurrent prune).  The tailing reader
    /// must fall back to a full resync — `poll_since(None)` — instead of
    /// applying deltas onto a state the store can no longer anchor.
    ChainGap {
        /// The oldest sequence number the store still retains, if any —
        /// a resync will start at (or after) this document.
        oldest_retained: Option<u64>,
    },
    /// Reading the store failed for an ordinary I/O reason.
    Io(io::Error),
}

impl std::fmt::Display for TailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailError::ChainGap { oldest_retained } => write!(
                f,
                "chain gap: the tail position was pruned away (oldest retained: {oldest_retained:?}); full resync required"
            ),
            TailError::Io(e) => write!(f, "i/o error while tailing: {e}"),
        }
    }
}

impl std::error::Error for TailError {}

impl From<io::Error> for TailError {
    fn from(e: io::Error) -> Self {
        TailError::Io(e)
    }
}

/// Destination of automatic checkpoints: a writer factory keyed by the
/// checkpoint's sequence number and kind, plus best-effort removal for
/// retention pruning.
pub trait CheckpointStore: Send {
    /// Open the destination for the document with this sequence number.
    fn writer(&mut self, seq: u64, kind: SnapshotKind) -> io::Result<Box<dyn std::io::Write>>;

    /// Remove the document with this sequence number (retention pruning).
    /// Best-effort: the default implementation does nothing, which is
    /// correct for sinks that cannot delete (append-only logs).
    fn remove(&mut self, seq: u64) -> io::Result<()> {
        let _ = seq;
        Ok(())
    }

    /// The documents already present in the store from previous process
    /// lifetimes, in sequence order (empty means "unknown or none").  A
    /// session seeds its numbering *past* the last entry — so a restarted
    /// run's new documents sort after the previous run's leftovers and
    /// [`DirCheckpointStore::read_chain`] never resumes a stale chain —
    /// and seeds its retention ledger *with* them, so `keep_last` prunes
    /// the previous lifetimes' chains too instead of letting a reused
    /// directory grow without bound.
    fn existing_documents(&self) -> Vec<(u64, SnapshotKind)> {
        Vec::new()
    }
}

/// One file per checkpoint document in a directory:
/// `ckpt-<seq, 8 digits>-<full|delta>.snap`.
#[derive(Debug, Clone)]
pub struct DirCheckpointStore {
    dir: PathBuf,
}

impl DirCheckpointStore {
    /// A store rooted at `dir` (created lazily on the first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DirCheckpointStore { dir: dir.into() }
    }

    /// The directory the store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(seq: u64, kind: SnapshotKind) -> String {
        format!("ckpt-{seq:08}-{kind}.snap")
    }

    fn parse_name(name: &str) -> Option<(u64, SnapshotKind)> {
        let rest = name.strip_prefix("ckpt-")?.strip_suffix(".snap")?;
        let (seq, kind) = rest.split_once('-')?;
        let seq: u64 = seq.parse().ok()?;
        let kind = match kind {
            "full" => SnapshotKind::Full,
            "delta" => SnapshotKind::Delta,
            _ => return None,
        };
        Some((seq, kind))
    }

    /// Every checkpoint document currently in the directory, sorted by
    /// sequence number.
    pub fn list(&self) -> io::Result<Vec<(u64, SnapshotKind, PathBuf)>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((seq, kind)) = Self::parse_name(name) {
                out.push((seq, kind, entry.path()));
            }
        }
        out.sort_by_key(|&(seq, _, _)| seq);
        Ok(out)
    }

    /// The resume chain: the newest full snapshot plus every delta after
    /// it, in sequence order — the input of
    /// [`crate::restore_any_chain`].  Errors with
    /// [`io::ErrorKind::NotFound`] when the directory holds no full
    /// snapshot.
    ///
    /// Tolerates retention pruning racing the read: a file that vanishes
    /// between the directory listing and its read triggers a re-list and
    /// retry (the post-prune listing names a newer, intact chain), so a
    /// concurrent prune can never yield a wrong or torn chain here.
    pub fn read_chain(&self) -> io::Result<Vec<Vec<u8>>> {
        // The race window is one prune pass; a handful of retries is far
        // more than a live writer can keep re-triggering.
        for _ in 0..8 {
            match self.poll_since(None) {
                Ok(docs) if docs.is_empty() => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no full snapshot in {}", self.dir.display()),
                    ));
                }
                Ok(docs) => return Ok(docs.into_iter().map(|d| d.bytes).collect()),
                Err(TailError::ChainGap { .. }) => continue,
                Err(TailError::Io(e)) => return Err(e),
            }
        }
        Err(io::Error::other(format!(
            "chain in {} kept changing under concurrent pruning",
            self.dir.display()
        )))
    }

    /// The tailing API read replicas and replication streams are built
    /// on: every document the directory holds *after* the reader's
    /// position, in sequence order.
    ///
    /// * `after == Some(s)` — the reader has applied the document with
    ///   sequence `s`.  If the directory still retains `s`, the returned
    ///   run extends the reader's chain exactly (the session's
    ///   chain-restart-after-failure discipline guarantees every on-store
    ///   document chains onto the previous on-store document).  If `s`
    ///   was pruned away — retention racing the tail — the poll fails
    ///   with [`TailError::ChainGap`] and the reader must resync.
    /// * `after == None` — a full resync: the newest full snapshot plus
    ///   every document after it (the resume chain), or empty when the
    ///   directory holds no full snapshot yet.
    ///
    /// A listed document's rename may not be durable yet (its writer
    /// fsyncs the directory after the rename); a reader that must not
    /// hand out anything a power loss could take back calls
    /// [`Self::sync`] before it does.
    pub fn poll_since(&self, after: Option<u64>) -> Result<Vec<TailedDoc>, TailError> {
        let listed = self.list()?;
        match after {
            Some(s) => {
                // The reader's base must still be retained: pruning only
                // ever removes a prefix below a full-snapshot cutoff, so
                // "seq s is listed" is exactly "everything after s still
                // chains onto s".
                if !listed.iter().any(|&(seq, _, _)| seq == s) {
                    return Err(TailError::ChainGap {
                        oldest_retained: listed.first().map(|&(seq, _, _)| seq),
                    });
                }
                let newer: Vec<_> = listed.into_iter().filter(|&(seq, _, _)| seq > s).collect();
                self.read_listed(&newer)
            }
            None => {
                let Some(base) = listed
                    .iter()
                    .rposition(|&(_, kind, _)| kind == SnapshotKind::Full)
                else {
                    return Ok(Vec::new());
                };
                self.read_listed(&listed[base..])
            }
        }
    }

    /// Make every document the directory lists durable: fsync the
    /// directory, so the renames that published them survive a power
    /// loss.
    pub fn sync(&self) -> io::Result<()> {
        sync_dir(&self.dir)
    }

    /// Read the bytes of every listed document, mapping a file that
    /// vanished under a concurrent prune to [`TailError::ChainGap`].
    fn read_listed(
        &self,
        listed: &[(u64, SnapshotKind, PathBuf)],
    ) -> Result<Vec<TailedDoc>, TailError> {
        let mut out = Vec::with_capacity(listed.len());
        for (seq, kind, path) in listed {
            match std::fs::read(path) {
                Ok(bytes) => out.push(TailedDoc {
                    seq: *seq,
                    kind: *kind,
                    bytes,
                }),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // Pruned between list and read: the listing is stale.
                    let oldest = self.list()?.first().map(|&(seq, _, _)| seq);
                    return Err(TailError::ChainGap {
                        oldest_retained: oldest,
                    });
                }
                Err(e) => return Err(TailError::Io(e)),
            }
        }
        Ok(out)
    }
}

/// Writes into `<final>.tmp` and renames onto the final name on `flush`
/// (the snapshot writer flushes exactly once, after the full document):
/// a crash mid-write leaves only a `.tmp` file, which
/// [`DirCheckpointStore::list`] ignores, so a truncated document can
/// never shadow an intact older chain as the resume base.  The file is
/// fsync'd before the rename and the directory after it, so a document
/// that has been published survives a power loss, not only a process
/// kill.
struct AtomicFileWriter {
    tmp_path: PathBuf,
    final_path: PathBuf,
    file: Option<std::io::BufWriter<std::fs::File>>,
}

impl std::io::Write for AtomicFileWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.file.as_mut() {
            Some(file) => file.write(buf),
            None => Err(io::Error::other("checkpoint file already published")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(file) = self.file.take() {
            file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&self.tmp_path, &self.final_path)?;
            // A bare file name lives in the working directory.
            let dir = self
                .final_path
                .parent()
                .filter(|d| !d.as_os_str().is_empty());
            sync_dir(dir.unwrap_or(Path::new(".")))?;
        }
        Ok(())
    }
}

/// Make the entries of `dir` (a rename into it) durable.  Directories
/// are fsync'd through an open handle on Unix; elsewhere the rename is
/// left to the platform.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

impl CheckpointStore for DirCheckpointStore {
    fn writer(&mut self, seq: u64, kind: SnapshotKind) -> io::Result<Box<dyn std::io::Write>> {
        std::fs::create_dir_all(&self.dir)?;
        let final_path = self.dir.join(Self::file_name(seq, kind));
        let tmp_path = self.dir.join(format!("{}.tmp", Self::file_name(seq, kind)));
        let file = std::fs::File::create(&tmp_path)?;
        Ok(Box::new(AtomicFileWriter {
            tmp_path,
            final_path,
            file: Some(std::io::BufWriter::new(file)),
        }))
    }

    fn remove(&mut self, seq: u64) -> io::Result<()> {
        for kind in [SnapshotKind::Full, SnapshotKind::Delta] {
            let name = Self::file_name(seq, kind);
            // Also sweep the staging name: a failed write leaves its
            // `.tmp` behind (the atomic rename never ran), and sequence
            // numbers are never reused, so this is the only place the
            // orphan would ever be collected.
            for candidate in [name.clone(), format!("{name}.tmp")] {
                match std::fs::remove_file(self.dir.join(candidate)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    fn existing_documents(&self) -> Vec<(u64, SnapshotKind)> {
        self.list()
            .map(|docs| docs.into_iter().map(|(seq, kind, _)| (seq, kind)).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dynscan-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_store_roundtrips_and_prunes() {
        let dir = temp_dir("roundtrip");
        let mut store = DirCheckpointStore::new(&dir);
        for (seq, kind, body) in [
            (0u64, SnapshotKind::Full, b"f0".as_slice()),
            (1, SnapshotKind::Delta, b"d1".as_slice()),
            (2, SnapshotKind::Full, b"f2".as_slice()),
            (3, SnapshotKind::Delta, b"d3".as_slice()),
        ] {
            let mut w = store.writer(seq, kind).unwrap();
            w.write_all(body).unwrap();
            w.flush().unwrap();
        }
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 4);
        assert_eq!(listed[0].0, 0);
        assert_eq!(listed[3].1, SnapshotKind::Delta);
        // The chain starts at the newest full.
        let chain = store.read_chain().unwrap();
        assert_eq!(chain, vec![b"f2".to_vec(), b"d3".to_vec()]);
        // Removal really deletes; removing a missing seq is fine.
        store.remove(0).unwrap();
        store.remove(0).unwrap();
        assert_eq!(store.list().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poll_since_extends_or_reports_a_gap() {
        let dir = temp_dir("poll");
        let mut store = DirCheckpointStore::new(&dir);
        for (seq, kind, body) in [
            (0u64, SnapshotKind::Full, b"f0".as_slice()),
            (1, SnapshotKind::Delta, b"d1".as_slice()),
            (2, SnapshotKind::Full, b"f2".as_slice()),
            (3, SnapshotKind::Delta, b"d3".as_slice()),
        ] {
            let mut w = store.writer(seq, kind).unwrap();
            w.write_all(body).unwrap();
            w.flush().unwrap();
        }
        // Resync = the resume chain, with sequence numbers attached.
        let resync = store.poll_since(None).unwrap();
        assert_eq!(
            resync
                .iter()
                .map(|d| (d.seq, d.kind, d.bytes.clone()))
                .collect::<Vec<_>>(),
            vec![
                (2, SnapshotKind::Full, b"f2".to_vec()),
                (3, SnapshotKind::Delta, b"d3".to_vec()),
            ]
        );
        // A retained position extends exactly; the newest position is
        // simply empty, not an error.
        let run = store.poll_since(Some(1)).unwrap();
        assert_eq!(run.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![2, 3]);
        assert!(store.poll_since(Some(3)).unwrap().is_empty());
        // A pruned position is a typed gap naming the oldest survivor.
        store.remove(0).unwrap();
        store.remove(1).unwrap();
        match store.poll_since(Some(1)) {
            Err(TailError::ChainGap { oldest_retained }) => {
                assert_eq!(oldest_retained, Some(2));
            }
            other => panic!("expected a chain gap, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_resync_is_empty_not_an_error() {
        let dir = temp_dir("poll-empty");
        let store = DirCheckpointStore::new(&dir);
        assert!(store.poll_since(None).unwrap().is_empty());
        match store.poll_since(Some(7)) {
            Err(TailError::ChainGap { oldest_retained }) => assert_eq!(oldest_retained, None),
            other => panic!("expected a chain gap, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: retention pruning racing a tailing reader must yield a
    /// typed [`TailError::ChainGap`] (or a valid chain), never a torn
    /// chain, a wrong chain, or a raw `io::Error`.  A writer thread keeps
    /// appending full+delta pairs and pruning everything below the newest
    /// full while a reader thread alternates resync polls and tail polls.
    #[test]
    fn concurrent_prune_vs_tail_never_tears_the_chain() {
        let dir = temp_dir("prune-race");
        let writer_dir = dir.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer_stop = std::sync::Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut store = DirCheckpointStore::new(&writer_dir);
            let mut seq = 0u64;
            while !writer_stop.load(std::sync::atomic::Ordering::SeqCst) {
                for kind in [SnapshotKind::Full, SnapshotKind::Delta] {
                    let mut w = store.writer(seq, kind).unwrap();
                    w.write_all(format!("{kind}-{seq}").as_bytes()).unwrap();
                    w.flush().unwrap();
                    seq += 1;
                }
                // Prune everything below the newest full (seq - 2): the
                // same prefix-only discipline the session's retention
                // ledger follows.
                for pruned in seq.saturating_sub(12)..seq - 2 {
                    store.remove(pruned).unwrap();
                }
            }
        });
        let store = DirCheckpointStore::new(&dir);
        let mut applied: Option<u64> = None;
        let mut polls = 0u32;
        let mut gaps = 0u32;
        // Poll until the race has demonstrably fired a few times (with a
        // generous cap so a pathological scheduler still terminates).
        while (gaps < 3 && polls < 3000) || polls < 100 {
            polls += 1;
            if polls.is_multiple_of(4) {
                // Let the writer make progress between bursts of polls.
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            match store.poll_since(applied) {
                Ok(docs) => {
                    if applied.is_none() {
                        // A resync chain must start with a full snapshot.
                        if let Some(first) = docs.first() {
                            assert_eq!(first.kind, SnapshotKind::Full);
                        }
                    }
                    // Every returned run is contiguous and every document
                    // carries the bytes written for exactly that seq.
                    for pair in docs.windows(2) {
                        assert_eq!(pair[1].seq, pair[0].seq + 1);
                    }
                    for doc in &docs {
                        assert_eq!(doc.bytes, format!("{}-{}", doc.kind, doc.seq).into_bytes());
                    }
                    if let Some(last) = docs.last() {
                        applied = Some(last.seq);
                    }
                }
                Err(TailError::ChainGap { .. }) => {
                    // The documented fallback: full resync.
                    gaps += 1;
                    applied = None;
                }
                Err(e) => panic!("tail poll must never fail with {e}"),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        writer.join().unwrap();
        // The race is real: pruning must have invalidated the tail under
        // an aggressive pruner.
        assert!(gaps > 0, "the prune-vs-tail race never fired");
        // read_chain stays io::Result and never reports a transient gap.
        let chain = store.read_chain().unwrap();
        assert!(!chain.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_without_a_full_is_not_found() {
        let dir = temp_dir("nofull");
        let mut store = DirCheckpointStore::new(&dir);
        let mut w = store.writer(5, SnapshotKind::Delta).unwrap();
        w.write_all(b"d").unwrap();
        drop(w);
        assert_eq!(
            store.read_chain().unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        // An empty / missing directory lists as empty.
        let missing = DirCheckpointStore::new(dir.join("missing"));
        assert!(missing.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
