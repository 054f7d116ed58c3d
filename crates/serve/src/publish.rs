//! The primary side of push replication: a [`PublishHub`] fanning
//! completed checkpoint documents out to subscribed replication streams,
//! and a [`PublishingStore`] that tees every document written through the
//! engine's checkpoint store into the hub.
//!
//! Ordering and durability contract:
//!
//! * **Durable before published** — the hub sees a document only after
//!   the wrapped directory store has atomically published it on disk
//!   (the inner writer's flush runs first).  A subscriber can therefore
//!   never observe a document the primary could lose in a crash.
//! * **Per-subscriber order = chain order** — documents enter every
//!   subscriber queue under one hub lock in write order, and the store's
//!   chain-restart discipline makes on-store write order a valid replay
//!   chain; a subscriber applying its queue in order replays a prefix of
//!   the primary's chain byte-for-byte.
//! * **Bounded queues** — a subscriber that stops draining is marked
//!   *lagged* and its queue cleared; on lag the replication stream ends
//!   with an error and the replica resyncs through the backlog path
//!   (`poll_since`), exactly like a pruned tail position.
//!
//! The hub is poll-based (no condvar): the subscription loop in
//! [`crate::conn`] already polls the drain latch on a short interval, so
//! a blocking rendezvous would buy latency no one observes and would
//! complicate the model-checked facade.

use dynscan_core::sync::{Arc, Mutex};
use dynscan_core::{CheckpointStore, SnapshotKind, TailError, TailedDoc};
use std::collections::VecDeque;
use std::io;

/// Documents a subscriber may queue before it is declared lagged.
const SUBSCRIBER_QUEUE_CAP: usize = 256;

/// One published checkpoint document; the payload is shared, not cloned,
/// across subscribers.
#[derive(Clone, Debug)]
pub struct ShippedDoc {
    /// Sequence number within the primary's chain.
    pub seq: u64,
    /// Full snapshot or delta.
    pub kind: SnapshotKind,
    /// The encoded document, byte-identical to the on-disk copy.
    pub bytes: Arc<Vec<u8>>,
}

struct SubState {
    queue: VecDeque<ShippedDoc>,
    lagged: bool,
    closed: bool,
}

type SubHandle = Arc<Mutex<SubState>>;

/// Fan-out point for completed checkpoint documents.
#[derive(Default)]
pub struct PublishHub {
    subs: Mutex<Vec<SubHandle>>,
}

impl PublishHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new subscriber.  Call **before** reading the backlog:
    /// a document published between the backlog read and the
    /// subscription would otherwise be lost; registered-first it is
    /// queued, and the stream loop deduplicates by sequence number.
    pub fn subscribe(&self) -> Subscription {
        let state = Arc::new(Mutex::new(SubState {
            queue: VecDeque::new(),
            lagged: false,
            closed: false,
        }));
        self.subs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&state));
        Subscription { state }
    }

    /// Enqueue a document for every live subscriber (and drop closed
    /// ones).  A subscriber at capacity is marked lagged and its queue
    /// cleared — it will resync, so holding stale documents for it is
    /// pure waste.
    pub fn publish(&self, doc: &ShippedDoc) {
        let mut subs = self.subs.lock().unwrap_or_else(|p| p.into_inner());
        subs.retain(|sub| {
            let mut state = sub.lock().unwrap_or_else(|p| p.into_inner());
            if state.closed {
                return false;
            }
            if state.lagged {
                return true;
            }
            if state.queue.len() >= SUBSCRIBER_QUEUE_CAP {
                state.lagged = true;
                state.queue.clear();
            } else {
                state.queue.push_back(doc.clone());
            }
            true
        });
    }

    /// Live subscriber count.
    #[cfg(test)]
    fn subscribers(&self) -> usize {
        self.subs.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// A subscriber's end of the hub: poll for queued documents.
pub struct Subscription {
    state: SubHandle,
}

impl Subscription {
    /// The next queued document, `Ok(None)` when the queue is empty, or
    /// `Err(Lagged)` once the hub overflowed this subscriber — the
    /// stream must end and the replica resync.
    pub fn poll(&self) -> Result<Option<ShippedDoc>, Lagged> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.lagged {
            return Err(Lagged);
        }
        Ok(state.queue.pop_front())
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.closed = true;
        state.queue.clear();
    }
}

/// The subscriber fell behind the hub's bounded queue and must resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lagged;

impl std::fmt::Display for Lagged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subscription lagged behind the publish queue")
    }
}

impl std::error::Error for Lagged {}

/// A [`CheckpointStore`] that tees every published document into a
/// [`PublishHub`] after the wrapped store has durably published it.
pub struct PublishingStore<S> {
    inner: S,
    hub: Arc<PublishHub>,
}

impl<S: CheckpointStore> PublishingStore<S> {
    /// Wrap `inner`, publishing every flushed document to `hub`.
    pub fn new(inner: S, hub: Arc<PublishHub>) -> Self {
        PublishingStore { inner, hub }
    }
}

impl<S: CheckpointStore> CheckpointStore for PublishingStore<S> {
    fn writer(&mut self, seq: u64, kind: SnapshotKind) -> io::Result<Box<dyn io::Write>> {
        Ok(Box::new(TeeWriter {
            inner: self.inner.writer(seq, kind)?,
            buf: Vec::new(),
            seq,
            kind,
            hub: Arc::clone(&self.hub),
            published: false,
        }))
    }

    fn remove(&mut self, seq: u64) -> io::Result<()> {
        self.inner.remove(seq)
    }

    fn existing_documents(&self) -> Vec<(u64, SnapshotKind)> {
        self.inner.existing_documents()
    }

    fn poll_since(&self, after: Option<u64>) -> Result<Vec<TailedDoc>, TailError> {
        self.inner.poll_since(after)
    }
}

/// Buffers the document alongside the inner writer and publishes to the
/// hub exactly once, on the first successful flush — after the inner
/// writer's own flush, which is where the directory store atomically
/// renames the document into place.
struct TeeWriter {
    inner: Box<dyn io::Write>,
    buf: Vec<u8>,
    seq: u64,
    kind: SnapshotKind,
    hub: Arc<PublishHub>,
    published: bool,
}

impl io::Write for TeeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.buf.extend_from_slice(&buf[..written]);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        // Durable first: a flush failure means the document was never
        // published on disk, so it must not reach subscribers either.
        self.inner.flush()?;
        if !self.published {
            self.published = true;
            self.hub.publish(&ShippedDoc {
                seq: self.seq,
                kind: self.kind,
                bytes: Arc::new(std::mem::take(&mut self.buf)),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynscan_core::MemCheckpointStore;
    use std::io::Write as _;

    #[test]
    fn publishes_only_after_durable_flush_in_order() {
        let hub = Arc::new(PublishHub::new());
        let mem = MemCheckpointStore::new();
        let mut store = PublishingStore::new(mem.clone(), Arc::clone(&hub));
        let sub = hub.subscribe();
        let mut w = store.writer(0, SnapshotKind::Full).unwrap();
        w.write_all(b"full-0").unwrap();
        assert!(sub.poll().unwrap().is_none(), "unflushed writes stay put");
        w.flush().unwrap();
        drop(w);
        let mut w = store.writer(1, SnapshotKind::Delta).unwrap();
        w.write_all(b"delta-1").unwrap();
        w.flush().unwrap();
        w.flush().unwrap();
        drop(w);
        let first = sub.poll().unwrap().unwrap();
        assert_eq!((first.seq, first.kind), (0, SnapshotKind::Full));
        assert_eq!(*first.bytes, b"full-0".to_vec());
        let second = sub.poll().unwrap().unwrap();
        assert_eq!(second.seq, 1, "double flush publishes once");
        assert!(sub.poll().unwrap().is_none());
        // The wrapped store saw exactly the same documents.
        assert_eq!(mem.documents().len(), 2);
    }

    #[test]
    fn overflow_marks_lagged_and_drop_unsubscribes() {
        let hub = PublishHub::new();
        let sub = hub.subscribe();
        assert_eq!(hub.subscribers(), 1);
        let doc = ShippedDoc {
            seq: 0,
            kind: SnapshotKind::Delta,
            bytes: Arc::new(vec![1]),
        };
        for _ in 0..SUBSCRIBER_QUEUE_CAP + 1 {
            hub.publish(&doc);
        }
        assert!(matches!(sub.poll(), Err(Lagged)));
        drop(sub);
        hub.publish(&doc);
        assert_eq!(hub.subscribers(), 0, "dropped subscribers are pruned");
    }
}
