//! The execution-pool handle the parallel batch engine runs on.
//!
//! [`ExecPool`] abstracts **where** the engine's data-parallel work
//! (re-estimation fan-out, shard-partitioned aux maintenance, background
//! checkpoint encoding) executes:
//!
//! * [`ExecPool::global`] — the lazily initialised process-wide
//!   work-stealing pool (`RAYON_NUM_THREADS` sized), the default.
//! * [`ExecPool::with_threads`] — a dedicated pool of exactly `n` workers,
//!   shared by clones of the handle.  `Session::builder().threads(n)` ends
//!   up here.
//!
//! Determinism does not depend on the choice: every parallel operation
//! scatters results by input index and every job's outcome is a pure
//! function of its inputs, so both pools — at any thread count — produce
//! identical results, only at different speeds.

use crate::sync::Arc;

#[derive(Clone, Debug)]
enum PoolKind {
    /// The process-wide work-stealing pool.
    Global,
    /// A dedicated work-stealing pool with a fixed worker count.
    Dedicated(Arc<rayon::ThreadPool>),
}

/// Below this many jobs a parallel map runs inline: dispatching onto
/// resident workers is cheap, but not free.
const PARALLEL_CUTOFF: usize = 32;

/// Handle to an execution pool; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct ExecPool {
    kind: PoolKind,
}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::global()
    }
}

impl ExecPool {
    /// The process-wide work-stealing pool (created lazily on first
    /// parallel operation).
    pub fn global() -> Self {
        ExecPool {
            kind: PoolKind::Global,
        }
    }

    /// A dedicated work-stealing pool with exactly `threads` workers
    /// (`0` falls back to the global pool).  The workers are shared by
    /// every clone of the returned handle and join when the last clone
    /// drops.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn the worker
    /// threads (e.g. a process/thread limit is hit) — a dedicated pool
    /// that silently fell back to fewer workers would misreport
    /// `num_threads` to the sharding heuristics.
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            return ExecPool::global();
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("spawning dedicated pool workers");
        ExecPool {
            kind: PoolKind::Dedicated(Arc::new(pool)),
        }
    }

    /// Worker threads parallel operations on this handle use.
    pub fn num_threads(&self) -> usize {
        match &self.kind {
            PoolKind::Global => rayon::current_num_threads(),
            PoolKind::Dedicated(pool) => pool.num_threads(),
        }
    }

    /// Map `f` over `items` in parallel, results in input order.  Short
    /// inputs (below an internal 32-job cutoff) and single-thread pools
    /// run on the calling thread.
    pub fn map<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        if items.len() < PARALLEL_CUTOFF || self.num_threads() <= 1 {
            return items.iter().map(&f).collect();
        }
        match &self.kind {
            PoolKind::Global => rayon::global().map_slice(items, f),
            PoolKind::Dedicated(pool) => pool.map_slice(items, f),
        }
    }

    /// Fire-and-forget: run `task` on the pool without blocking the
    /// caller — the background-checkpointing primitive (`Session` encodes
    /// a capture's document and streams it into the sink off the update
    /// thread).  The task owns its data and must synchronise completion
    /// itself (the session uses a mutex/condvar slot); a panic inside it
    /// is contained to the task.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        match &self.kind {
            PoolKind::Global => rayon::global().spawn_detached(task),
            PoolKind::Dedicated(pool) => pool.spawn_detached(task),
        }
    }

    /// Run every task to completion, fanning out across the pool (the
    /// shard fan-out primitive).  Tasks may borrow caller data.
    pub fn fan_out<'a, F>(&self, tasks: Vec<F>)
    where
        F: FnOnce() + Send + 'a,
    {
        if self.num_threads() <= 1 || tasks.len() <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        match &self.kind {
            PoolKind::Global => rayon::global().scope(|s| {
                for task in tasks {
                    s.spawn(move |_| task());
                }
            }),
            PoolKind::Dedicated(pool) => pool.scope(|s| {
                for task in tasks {
                    s.spawn(move |_| task());
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pools() -> Vec<ExecPool> {
        vec![
            ExecPool::global(),
            ExecPool::with_threads(1),
            ExecPool::with_threads(3),
        ]
    }

    #[test]
    fn map_preserves_order_on_every_pool_kind() {
        let items: Vec<u64> = (0..1_000).collect();
        for pool in pools() {
            let out = pool.map(&items, |&x| x * 7);
            assert_eq!(out.len(), items.len(), "{pool:?}");
            for (i, &r) in out.iter().enumerate() {
                assert_eq!(r, i as u64 * 7, "{pool:?}");
            }
        }
    }

    #[test]
    fn fan_out_completes_every_task() {
        for pool in pools() {
            let counter = AtomicU64::new(0);
            let tasks: Vec<_> = (0..16u64)
                .map(|i| {
                    let counter = &counter;
                    move || {
                        counter.fetch_add(i, Ordering::Relaxed);
                    }
                })
                .collect();
            pool.fan_out(tasks);
            assert_eq!(counter.load(Ordering::Relaxed), 120, "{pool:?}");
        }
    }

    #[test]
    fn with_threads_zero_is_the_global_pool() {
        let pool = ExecPool::with_threads(0);
        assert_eq!(pool.num_threads(), rayon::current_num_threads());
    }
}
