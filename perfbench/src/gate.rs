//! Correctness checks that do not need the replay: the sandwich
//! guarantee against the static baseline on the mirror graph.

use crate::workload::{EPS, MU, RHO};
use dynscan_baseline::StaticScan;
use dynscan_core::{EdgeKey, VertexId};
use dynscan_graph::DynGraph;
use std::collections::{HashMap, HashSet};

/// The paper's sandwich guarantee (Theorem 2.3): every cluster of the
/// exact clustering at (1 + ρ)ε lies inside a served cluster, and every
/// served cluster lies inside a cluster of the exact clustering at
/// (1 − ρ)ε.  `served` is a `GroupBy` over every vertex.
pub fn check_sandwich(
    served: &[Vec<VertexId>],
    mirror: &HashSet<EdgeKey>,
    n: usize,
) -> Result<(), String> {
    let mut edges: Vec<EdgeKey> = mirror.iter().copied().collect();
    edges.sort_unstable();
    let mut graph = DynGraph::with_vertices(n);
    for key in edges {
        graph
            .insert_edge(key.lo(), key.hi())
            .map_err(|e| format!("mirror graph: {e}"))?;
    }
    let upper = StaticScan::jaccard((1.0 + RHO) * EPS, MU).cluster(&graph);
    let lower = StaticScan::jaccard((1.0 - RHO) * EPS, MU).cluster(&graph);
    nested(upper.clusters(), served).map_err(|c| format!("a (1+ρ)ε cluster {c} is split"))?;
    nested(served, lower.clusters())
        .map_err(|c| format!("served cluster {c} spans (1-ρ)ε clusters"))
}

/// Every cluster of `inner` is a subset of some cluster of `outer`;
/// on failure, describes the first cluster that is not.
fn nested(inner: &[Vec<VertexId>], outer: &[Vec<VertexId>]) -> Result<(), String> {
    let outer: Vec<HashSet<VertexId>> = outer.iter().map(|c| c.iter().copied().collect()).collect();
    let mut containing: HashMap<VertexId, Vec<usize>> = HashMap::new();
    for (i, cluster) in outer.iter().enumerate() {
        for &v in cluster {
            containing.entry(v).or_default().push(i);
        }
    }
    for cluster in inner {
        let Some(first) = cluster.first() else {
            continue;
        };
        let candidates = containing.get(first).map(Vec::as_slice).unwrap_or(&[]);
        if !candidates
            .iter()
            .any(|&i| cluster.iter().all(|v| outer[i].contains(v)))
        {
            return Err(format!(
                "of {} vertices starting at {}",
                cluster.len(),
                first.raw()
            ));
        }
    }
    Ok(())
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_checked_per_cluster_including_hubs() {
        let v = |xs: &[u32]| xs.iter().map(|&x| VertexId(x)).collect::<Vec<_>>();
        let outer = vec![v(&[1, 2, 3, 4]), v(&[4, 5, 6])];
        assert!(nested(&[v(&[1, 2]), v(&[4, 6])], &outer).is_ok());
        assert!(nested(&[v(&[3, 5])], &outer).is_err());
        assert!(peak_rss_mb() > 0.0);
    }
}
