//! The checkpoint/restore benchmark: measure checkpoint, restore and
//! rebuild-from-edge-stream for every algorithm, verify bit-identical
//! resume, measure **differential vs full** checkpoint cost, replay under
//! **tiered-memory budgets** (residency ceiling + hot-path regression
//! gates), print the comparison tables and, on full-scale runs, export
//! `BENCH_checkpoint.json` at the workspace root.
//!
//! ```text
//! cargo bench -p dynscan-bench --bench checkpoint_restore
//! ```

use dynscan_bench::{
    checkpoint_rows_to_json, checkpoint_rows_to_table, delta_rows_to_table,
    run_checkpoint_vs_rebuild, run_delta_vs_full, run_tiered_memory, tiered_rows_to_table,
    write_bench_record, CheckpointBenchConfig,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        CheckpointBenchConfig::quick()
    } else {
        CheckpointBenchConfig::default_scale()
    };
    eprintln!(
        "checkpoint_restore: n = {}, m0 = {}, warmup {} × {} updates",
        config.num_vertices, config.initial_edges, config.warmup_batches, config.batch_size
    );
    let rows = run_checkpoint_vs_rebuild(&config);
    print!("{}", checkpoint_rows_to_table(&rows));

    // Hard gates: every row must resume bit-identically, and restoring a
    // DynStrClu instance must beat rebuild-from-edge-stream ≥ 5×.
    for row in &rows {
        assert!(
            row.bit_identical,
            "{} ({}) restored instance diverged from the live one",
            row.algorithm, row.mode
        );
        if row.algorithm == "DynStrClu" {
            assert!(
                row.restore_speedup >= 5.0,
                "{} ({}) restore speedup {:.1}× below the 5× bar",
                row.algorithm,
                row.mode,
                row.restore_speedup
            );
        }
    }

    // Differential snapshots: after one bursty batch of churn, a delta
    // capture must be much smaller and much faster than re-serialising
    // the full state, and base + delta must replay byte-identically.
    let delta_rows = run_delta_vs_full(&config);
    print!("{}", delta_rows_to_table(&delta_rows));
    for row in &delta_rows {
        assert!(
            row.chain_identical,
            "{} ({}) base + delta chain diverged from the live state",
            row.algorithm, row.mode
        );
        assert!(
            row.churn_fraction <= 0.10,
            "{} ({}) churn {:.1}% exceeds the ≤ 10%-touched workload the delta \
             bars are defined on",
            row.algorithm,
            row.mode,
            row.churn_fraction * 100.0
        );
        if row.algorithm == "DynStrClu" && row.mode == "rho0.25" {
            if quick {
                // At smoke scale the hotspot burst touches ~30% of the DT
                // state (tiny τ thresholds on a 600-vertex graph), so the
                // full bars are defined on the measurement scale only;
                // the smoke run still requires a clear win.
                assert!(
                    row.size_ratio > 1.5 && row.time_ratio > 1.5,
                    "delta must clearly beat full even at smoke scale \
                     (got {:.1}× size, {:.1}× time)",
                    row.size_ratio,
                    row.time_ratio
                );
            } else {
                // Bars recalibrated for the compact codec: the full document
                // is itself delta-coded (≥ 3× smaller than v2, pinned on
                // the golden fixtures), so the differential snapshot's
                // *relative* advantage is structurally smaller than it
                // was against v2 fulls — but must still be decisive.
                assert!(
                    row.size_ratio >= 3.0,
                    "delta snapshot only {:.1}× smaller than full (bar: ≥ 3×)",
                    row.size_ratio
                );
                assert!(
                    row.time_ratio >= 1.5,
                    "delta capture only {:.1}× faster than full (bar: ≥ 1.5×)",
                    row.time_ratio
                );
            }
        }
    }

    // Tiered memory: the tiny-budget replay must bound resident hot
    // bytes by the budget while holding real cold state, the ample
    // budget must never demote (and stay within noise of the unbudgeted
    // hot path), and every setting must end byte-identical.
    let tiered_rows = run_tiered_memory(&config);
    print!("{}", tiered_rows_to_table(&tiered_rows));
    let unbudgeted = &tiered_rows[0];
    assert_eq!(unbudgeted.label, "none");
    assert!(
        unbudgeted.cold_bytes == 0 && unbudgeted.demotions == 0,
        "unbudgeted run must keep everything hot"
    );
    for row in &tiered_rows {
        assert!(
            row.bytes_identical,
            "budget `{}` changed the checkpoint bytes",
            row.label
        );
        match row.label {
            "ample" => {
                assert_eq!(row.demotions, 0, "ample budget must never demote");
                assert!(
                    row.replay_secs <= unbudgeted.replay_secs * 2.0,
                    "never-demoting budget slowed the hot path {:.1}x (bar: <= 2x, \
                     tier bookkeeping must be cheap when nothing tiers)",
                    row.replay_secs / unbudgeted.replay_secs.max(f64::EPSILON)
                );
            }
            "tiny" => {
                assert!(
                    row.resident_hot_bytes <= row.budget_bytes,
                    "resident hot bytes {} exceed the {} budget",
                    row.resident_hot_bytes,
                    row.budget_bytes
                );
                assert!(
                    row.cold_bytes > 0 && row.demotions > 0,
                    "tiny budget must force real cold-tier traffic"
                );
            }
            _ => {}
        }
    }

    let json = checkpoint_rows_to_json(&config, &rows, &delta_rows, &tiered_rows);
    write_bench_record("BENCH_checkpoint.json", &json, quick);
}
