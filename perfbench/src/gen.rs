//! Seeded inputs: a planted-community graph with Chung–Lu endpoint
//! weights, a churn stream over it split between the client connections
//! by edge key, and the read queries.
//!
//! Every vertex belongs to a community of [`COMMUNITY`] consecutive ids.
//! Vertex weights follow Chung–Lu with exponent γ over a seeded random
//! ranking, so hubs exist and sit in random communities.  An edge is
//! intra-community with probability [`INTRA_SHARE`] (first endpoint by
//! global weight, second by weight within that community), otherwise
//! both endpoints are drawn by global weight.  Sampling is a binary
//! search over cumulative weights, so generating m edges costs
//! O(m log n).
//!
//! Churn: inserts follow the same edge model, deletions pick a uniform
//! random current edge, and η = 1 (deletion with probability 1/2) keeps
//! m steady.  [`owner`] assigns every edge key to exactly one
//! connection, so each edge's updates keep their stream order on one
//! connection, and every update is valid under any interleaving of the
//! connections.

use dynscan_core::{EdgeKey, GraphUpdate, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Vertices per planted community.
pub const COMMUNITY: usize = 50;
/// Chung–Lu power-law exponent.
pub const GAMMA: f64 = 2.3;
/// Share of edge draws that stay inside one community.
pub const INTRA_SHARE: f64 = 0.85;
/// Average degree of the preloaded graph (m = n · AVG_DEGREE / 2).
pub const AVG_DEGREE: usize = 8;
/// Client connections the churn is split between.
pub const CLIENTS: usize = 2;
/// Vertices in one `GroupBy` query.
pub const GROUP_BY_SIZE: usize = 32;

/// The weighted endpoint model shared by the preload and the inserts.
pub struct EdgeModel {
    /// Cumulative weight over all vertices (global draws).
    global: Vec<f64>,
    /// Cumulative weight restarting at every community boundary.
    local: Vec<f64>,
}

impl EdgeModel {
    /// The model for `n` vertices (a multiple of [`COMMUNITY`]).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2 * COMMUNITY && n.is_multiple_of(COMMUNITY));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x57ea_d1e5);
        // A seeded ranking: vertex v gets the weight of rank[v].
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank.swap(i, rng.gen_range(0..=i));
        }
        let exponent = -1.0 / (GAMMA - 1.0);
        let mut global = Vec::with_capacity(n);
        let mut local = Vec::with_capacity(n);
        let (mut total, mut within) = (0.0f64, 0.0f64);
        for (v, &r) in rank.iter().enumerate() {
            let w = ((r + 1) as f64).powf(exponent);
            if v.is_multiple_of(COMMUNITY) {
                within = 0.0;
            }
            total += w;
            within += w;
            global.push(total);
            local.push(within);
        }
        EdgeModel { global, local }
    }

    fn pick(cumulative: &[f64], rng: &mut SmallRng) -> usize {
        let top = *cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..top);
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1)
    }

    /// One candidate edge (may be a self-loop; callers reject those and
    /// duplicates).
    pub fn draw(&self, rng: &mut SmallRng) -> (u32, u32) {
        let u = Self::pick(&self.global, rng);
        let v = if rng.gen_bool(INTRA_SHARE) {
            let base = u - u % COMMUNITY;
            base + Self::pick(&self.local[base..base + COMMUNITY], rng)
        } else {
            Self::pick(&self.global, rng)
        };
        (u as u32, v as u32)
    }
}

/// The connection an edge key belongs to (a fixed mix of the key, so
/// the split does not depend on the stream).
pub fn owner(key: EdgeKey) -> usize {
    let mut x = (u64::from(key.lo().raw()) << 32) | u64::from(key.hi().raw());
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x % CLIENTS as u64) as usize
}

fn key_of(update: &GraphUpdate) -> EdgeKey {
    let (u, v) = update.endpoints();
    EdgeKey::new(u, v)
}

/// A mutable edge set with O(1) uniform sampling.
#[derive(Default)]
struct EdgeSet {
    edges: Vec<EdgeKey>,
    pos: HashMap<EdgeKey, usize>,
}

impl EdgeSet {
    /// Add a key the set does not hold yet.
    fn insert(&mut self, key: EdgeKey) {
        self.pos.insert(key, self.edges.len());
        self.edges.push(key);
    }

    fn remove_at(&mut self, idx: usize) -> EdgeKey {
        let key = self.edges.swap_remove(idx);
        self.pos.remove(&key);
        if let Some(&moved) = self.edges.get(idx) {
            self.pos.insert(moved, idx);
        }
        key
    }
}

/// Everything one run sends to the server, generated from the seed.
pub struct Inputs {
    /// Vertex count.
    pub n: usize,
    /// The preloaded edges, as insertions in generation order.
    pub preload: Vec<GraphUpdate>,
    /// Per-connection churn, in stream order.
    pub streams: Vec<Vec<GraphUpdate>>,
}

impl Inputs {
    /// The preload (n · [`AVG_DEGREE`] / 2 edges) and `churn_len`
    /// updates of churn after it.
    pub fn generate(n: usize, churn_len: usize, seed: u64) -> Inputs {
        let model = EdgeModel::new(n, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ff_ee00);
        let mut set = EdgeSet::default();
        let m = n * AVG_DEGREE / 2;
        let mut preload = Vec::with_capacity(m);
        while preload.len() < m {
            if let Some(key) = draw_new(&model, &set, &mut rng) {
                set.insert(key);
                preload.push(GraphUpdate::Insert(key.lo(), key.hi()));
            }
        }
        let mut streams: Vec<Vec<GraphUpdate>> = (0..CLIENTS)
            .map(|_| Vec::with_capacity(churn_len / CLIENTS + 1))
            .collect();
        let mut emitted = 0;
        while emitted < churn_len {
            let update = if rng.gen_bool(0.5) {
                let key = set.remove_at(rng.gen_range(0..set.edges.len()));
                GraphUpdate::Delete(key.lo(), key.hi())
            } else {
                // Redraw until new, so deletions and insertions stay
                // balanced and m stays steady.
                let key = loop {
                    if let Some(key) = draw_new(&model, &set, &mut rng) {
                        break key;
                    }
                };
                set.insert(key);
                GraphUpdate::Insert(key.lo(), key.hi())
            };
            streams[owner(key_of(&update))].push(update);
            emitted += 1;
        }
        Inputs {
            n,
            preload,
            streams,
        }
    }

    /// The edge set after the preload plus the first `applied[c]`
    /// updates of each connection's stream (the interleaving does not
    /// matter: each edge lives on one connection).
    pub fn mirror(&self, applied: &[usize]) -> HashSet<EdgeKey> {
        let mut edges: HashSet<EdgeKey> = self.preload.iter().map(key_of).collect();
        for (stream, &len) in self.streams.iter().zip(applied) {
            for update in &stream[..len] {
                match update {
                    GraphUpdate::Insert(..) => edges.insert(key_of(update)),
                    GraphUpdate::Delete(..) => edges.remove(&key_of(update)),
                };
            }
        }
        edges
    }
}

fn draw_new(model: &EdgeModel, set: &EdgeSet, rng: &mut SmallRng) -> Option<EdgeKey> {
    let (u, v) = model.draw(rng);
    if u == v {
        return None;
    }
    let key = EdgeKey::new(VertexId(u), VertexId(v));
    (!set.pos.contains_key(&key)).then_some(key)
}

/// One read request.
#[derive(Clone, Debug)]
pub enum Query {
    /// `GroupBy` over these vertices.
    GroupBy(Vec<VertexId>),
    /// `ClusterOf` this vertex.
    ClusterOf(VertexId),
}

/// A seeded query source: `GroupBy` over [`GROUP_BY_SIZE`] uniform
/// vertices and `ClusterOf` a uniform vertex, 1:1.
pub fn next_query(n: usize, rng: &mut SmallRng) -> Query {
    if rng.gen_bool(0.5) {
        Query::GroupBy(
            (0..GROUP_BY_SIZE)
                .map(|_| VertexId(rng.gen_range(0..n as u32)))
                .collect(),
        )
    } else {
        Query::ClusterOf(VertexId(rng.gen_range(0..n as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynscan_graph::DynGraph;

    #[test]
    fn same_seed_same_inputs_and_intra_share_near_target() {
        let a = Inputs::generate(1_000, 2_000, 7);
        let b = Inputs::generate(1_000, 2_000, 7);
        assert_eq!(a.preload, b.preload);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.preload.len(), 1_000 * AVG_DEGREE / 2);
        let intra = a
            .preload
            .iter()
            .filter(|u| {
                let (x, y) = u.endpoints();
                x.index() / COMMUNITY == y.index() / COMMUNITY
            })
            .count();
        let share = intra as f64 / a.preload.len() as f64;
        assert!((0.7..0.9).contains(&share), "intra share {share}");
        assert_ne!(a.preload, Inputs::generate(1_000, 2_000, 8).preload);
    }

    #[test]
    fn every_update_is_valid_under_any_interleaving() {
        let inputs = Inputs::generate(500, 6_000, 3);
        // 1. Each edge key is owned by exactly one connection.
        let mut seen: HashMap<EdgeKey, usize> = HashMap::new();
        for (c, stream) in inputs.streams.iter().enumerate() {
            assert!(!stream.is_empty());
            for update in stream {
                assert_eq!(*seen.entry(key_of(update)).or_insert(c), c);
            }
        }
        // 2. Seeded random interleavings (including the two extreme
        //    ones) all apply without a single rejection.
        for trial in 0..6u64 {
            let mut graph = DynGraph::with_vertices(inputs.n);
            for update in &inputs.preload {
                graph.try_apply(*update).expect("preload is valid");
            }
            let mut rng = SmallRng::seed_from_u64(trial);
            let mut next = [0usize; CLIENTS];
            loop {
                let open: Vec<usize> = (0..CLIENTS)
                    .filter(|&c| next[c] < inputs.streams[c].len())
                    .collect();
                let Some(&c) = (match trial {
                    0 => open.first(),
                    1 => open.last(),
                    _ => open.get(rng.gen_range(0..open.len().max(1))),
                }) else {
                    break;
                };
                graph
                    .try_apply(inputs.streams[c][next[c]])
                    .expect("valid under this interleaving");
                next[c] += 1;
            }
            assert_eq!(graph.num_edges(), inputs.mirror(&next).len());
        }
    }
}
