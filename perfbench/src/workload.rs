//! The workload table: graph size, traffic mix and server configuration
//! of every named workload.

use dynscan_core::Params;

/// How the clients drive the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Every request is a single-update `Apply`.
    Apply,
    /// [`READ_SHARE`] of the requests are reads, the rest `Apply`.
    Mixed,
    /// Every request is a `BatchApply` of [`BATCH`] updates.
    Batch,
}

/// Share of reads in [`Traffic::Mixed`].
pub const READ_SHARE: f64 = 0.9;
/// Updates per `BatchApply` in [`Traffic::Batch`].
pub const BATCH: usize = 128;
/// Updates per `BatchApply` while preloading: the server's default
/// global admission cap, to which the benchmark also raises the
/// per-connection cap.
pub const PRELOAD_BATCH: usize = 65_536;
/// Automatic checkpoint cadence of the durable workload.
pub const CHECKPOINT_EVERY: u64 = 4096;
/// Share of a write-only workload's time spent in its closing read-only
/// phase.
pub const READ_PHASE_SHARE: f64 = 0.2;

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Vertex count (a multiple of the community size).
    pub n: usize,
    /// Request mix.
    pub traffic: Traffic,
    /// Checkpoint directory with background automatic checkpoints.
    pub durable: bool,
    /// Churn updates generated (more than any run consumes).
    pub churn_len: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "write-2k",
                n: 2_000,
                traffic: Traffic::Apply,
                durable: false,
                churn_len: 400_000,
            },
            Workload {
                name: "read-50k",
                n: 50_000,
                traffic: Traffic::Mixed,
                durable: false,
                churn_len: 100_000,
            },
            Workload {
                name: "durable-batch-20k",
                n: 20_000,
                traffic: Traffic::Batch,
                durable: true,
                churn_len: 400_000,
            },
        ]
    }

    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The same traffic on a small graph, for self-tests.
    pub fn quick(mut self) -> Workload {
        self.n = 500;
        self.churn_len = 20_000;
        self
    }

    /// The paper's defaults, set explicitly: Jaccard, ε = 0.2, μ = 5,
    /// ρ = 0.01, δ* = 1/n.
    pub fn params(&self) -> Params {
        Params::jaccard(EPS, MU)
            .with_rho(RHO)
            .with_delta_star_for_n(self.n)
    }
}

/// Similarity threshold ε.
pub const EPS: f64 = 0.2;
/// Core threshold μ.
pub const MU: usize = 5;
/// Approximation parameter ρ.
pub const RHO: f64 = 0.01;
