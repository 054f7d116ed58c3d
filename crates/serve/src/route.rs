//! Replica-aware routing with an explicit consistency contract:
//!
//! * **Writes** always go to the primary.  The primary acknowledges
//!   only after the update is applied, so the primary's last
//!   acknowledged epoch is this client's read-your-writes floor.
//! * **Reads** round-robin across replicas, and every reply's epoch is
//!   checked against the floor.  A reply below the floor is *bounded
//!   staleness detected* — never silently returned: the router retries
//!   the replica a few times (replication is in flight) and then falls
//!   back to the primary, which can never be below its own floor.
//!
//! With no replicas configured the router degenerates to a plain
//! primary client.

use crate::client::{BatchAck, Client, ClientError, GroupsAck};
use dynscan_core::VertexId;
use dynscan_graph::GraphUpdate;
use std::time::Duration;

/// How long the router waits between staleness retries on a replica.
const STALE_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// A primary connection plus any number of replica connections, with
/// epoch-floor-verified reads.
pub struct RoutedClient {
    primary: Client,
    replicas: Vec<Client>,
    /// Next replica to try (round-robin).
    next: usize,
    /// Staleness retries per replica read before falling back.
    max_stale_retries: u32,
    replica_reads: u64,
    stale_retries: u64,
    primary_fallbacks: u64,
}

impl RoutedClient {
    /// Route through `primary` and `replicas` (read round-robin), with
    /// 3 staleness retries per read.
    pub fn new(primary: Client, replicas: Vec<Client>) -> Self {
        RoutedClient {
            primary,
            replicas,
            next: 0,
            max_stale_retries: 3,
            replica_reads: 0,
            stale_retries: 0,
            primary_fallbacks: 0,
        }
    }

    /// Staleness retries per read before falling back to the primary.
    pub fn with_stale_retries(mut self, retries: u32) -> Self {
        self.max_stale_retries = retries;
        self
    }

    /// The read-your-writes floor: the primary's last acknowledged
    /// epoch.
    pub fn floor(&self) -> u64 {
        self.primary.last_acked_epoch()
    }

    /// Reads served by a replica (vs [`RoutedClient::primary_fallbacks`]).
    pub fn replica_reads(&self) -> u64 {
        self.replica_reads
    }

    /// Replica replies observed below the floor and retried.
    pub fn stale_retries(&self) -> u64 {
        self.stale_retries
    }

    /// Reads that fell back to the primary after exhausting retries.
    pub fn primary_fallbacks(&self) -> u64 {
        self.primary_fallbacks
    }

    /// Direct access to the primary connection (writes, stats, drain).
    pub fn primary(&mut self) -> &mut Client {
        &mut self.primary
    }

    /// Apply one update on the primary.
    pub fn apply(&mut self, update: GraphUpdate) -> Result<(u64, u64), ClientError> {
        self.primary.apply(update)
    }

    /// Apply a batch on the primary.
    pub fn batch_apply(&mut self, updates: &[GraphUpdate]) -> Result<BatchAck, ClientError> {
        self.primary.batch_apply(updates)
    }

    /// Cluster-group-by, served by a replica when one is fresh enough,
    /// by the primary otherwise.
    pub fn group_by(&mut self, vertices: &[VertexId]) -> Result<GroupsAck, ClientError> {
        self.read(
            |client, vertices| client.group_by_detailed(vertices),
            vertices,
        )
    }

    /// The member lists of every cluster containing `v`, same routing as
    /// [`RoutedClient::group_by`].
    pub fn cluster_of(&mut self, v: VertexId) -> Result<GroupsAck, ClientError> {
        self.read(|client, &v| client.cluster_of(v), &v)
    }

    /// The routing core: try one replica (with bounded staleness
    /// retries), fall back to the primary on staleness or replica
    /// failure.  Only a primary error is a hard error.
    fn read<Q: ?Sized>(
        &mut self,
        query: impl Fn(&mut Client, &Q) -> Result<GroupsAck, ClientError>,
        q: &Q,
    ) -> Result<GroupsAck, ClientError> {
        let floor = self.primary.last_acked_epoch();
        if !self.replicas.is_empty() {
            let idx = self.next % self.replicas.len();
            self.next = self.next.wrapping_add(1);
            let replica = &mut self.replicas[idx];
            for attempt in 0..=self.max_stale_retries {
                match query(replica, q) {
                    Ok(ack) if ack.epoch >= floor => {
                        self.replica_reads += 1;
                        return Ok(ack);
                    }
                    // Below the floor: replication is in flight.  Wait
                    // for it rather than serving a stale answer.
                    Ok(_) => {
                        self.stale_retries += 1;
                        if attempt < self.max_stale_retries {
                            std::thread::sleep(STALE_RETRY_BACKOFF);
                        }
                    }
                    // A broken replica must not fail the read.
                    Err(_) => break,
                }
            }
            self.primary_fallbacks += 1;
        }
        let ack = query(&mut self.primary, q)?;
        debug_assert!(
            ack.epoch >= floor,
            "the primary cannot be below its own floor"
        );
        Ok(ack)
    }
}
