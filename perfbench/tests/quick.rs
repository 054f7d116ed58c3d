//! Quick-scale end-to-end runs of every workload, untraced and traced,
//! with the correctness gate on.

use perfbench::report::result_line;
use perfbench::run::{run, RunConfig};
use perfbench::workload::Workload;
use std::path::PathBuf;

/// The metric names `BENCHMARK.json` lists.
fn listed_metrics() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
}

#[test]
fn every_workload_passes_the_gate_at_quick_scale() {
    let listed = listed_metrics();
    for w in Workload::all() {
        assert!(listed.contains(&format!("\"name\": \"{}\"", w.name)));
        let w = w.quick();
        for trace in [false, true] {
            let cfg = RunConfig {
                seed: 5,
                seconds: 1.0,
                trace,
                scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("quick-{}-{trace}", w.name)),
            };
            let outcome = run(&w, &cfg).expect("run completes");
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                w.name, outcome.notes
            );
            assert_eq!(outcome.failed, 0, "{}", w.name);
            assert!(outcome.attempted > 0);
            for m in &outcome.metrics {
                assert!(
                    listed.contains(&format!("\"name\": \"{}\"", m.name)),
                    "{} is not in BENCHMARK.json",
                    m.name
                );
                assert!(m.value.is_finite());
            }
            let expected = if trace { 28 } else { 8 };
            assert_eq!(outcome.metrics.len(), expected);
            if trace {
                // Every layer the workload exercises reports a measurement.
                let value = |name: &str| {
                    outcome
                        .metrics
                        .iter()
                        .find(|m| m.name == name)
                        .map_or(0.0, |m| m.value)
                };
                let mut exercised = vec![
                    "core.apply_p50_us",
                    "core.publish_extract_us",
                    "core.epoch_read_us",
                    "core.memory_bytes",
                    "dt.maturities_per_update",
                    "sim.labellings_per_update",
                    "graph.topology_apply_us",
                    "graph.intersection_us",
                    "serve.group_by_call_us",
                    "serve.cluster_of_call_us",
                    "serve.codec_us",
                    "serve.reply_bytes",
                    "serve.epoch_read_ratio",
                ];
                exercised.push(if w.durable {
                    "serve.batch_apply_call_us"
                } else {
                    "serve.apply_call_us"
                });
                if w.durable {
                    exercised.extend([
                        "store.capture_full_us",
                        "store.write_us",
                        "store.doc_bytes",
                        "store.bytes_per_update",
                        "store.restore_s",
                    ]);
                }
                for name in exercised {
                    assert!(value(name) > 0.0, "{}: {name} not measured", w.name);
                }
            }
            assert!(!cfg.scratch.exists(), "scratch is removed");
            let line = result_line(&outcome);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}
