//! One benchmark run: set up, drive, verify, and compute the metrics.

use crate::drive::{connect, drive, setup, Ack, ClientLog, Phase, PhaseLog, Read, Served, Span};
use crate::gate::{check_sandwich, peak_rss_mb};
use crate::replay::{replay, Recorder};
use crate::stats::{mean, quantile, tail_is_supported};
use crate::workload::{Traffic, Workload, READ_PHASE_SHARE};
use dynscan_core::{restore_any_chain, DirCheckpointStore, VertexId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// An untraced run sets up at least this many times, and keeps setting
/// up until [`SETUP_SECONDS`] have passed; `setup_s` is the median, so
/// small graphs, whose set-up is short and noisy, get more samples.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const SETUP_SECONDS: f64 = 1.0;

/// Run settings from the command line.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured traffic.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for checkpoints; removed afterwards.
    pub scratch: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of a run.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests sent in the measured measured.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Sample counts, tails and failed checks, for the log.
    pub notes: Vec<String>,
    /// Client spans of a traced run.
    pub client_spans: Vec<Span>,
    /// Replay spans and counts of a traced run.
    pub recorder: Option<Recorder>,
}

/// Rounds a run's measured time is split into.  Each round drives the
/// workload's write traffic and then (write workloads) a read-only
/// slice; medians and rates are medians over rounds, which keeps a
/// short burst of host noise from moving them.
pub const ROUNDS: usize = 10;

/// The measured slices of one served run, in order.
struct Measured {
    slices: Vec<(Phase, PhaseLog)>,
}

impl Measured {
    fn logs(&self) -> impl Iterator<Item = &ClientLog> {
        self.slices.iter().flat_map(|(_, p)| p.clients.iter())
    }

    fn write_slices(&self) -> impl Iterator<Item = &PhaseLog> {
        self.slices
            .iter()
            .filter(|(phase, _)| *phase != Phase::Reads)
            .map(|(_, p)| p)
    }

    fn read_slices(&self) -> impl Iterator<Item = &PhaseLog> {
        self.slices
            .iter()
            .filter(|(phase, _)| *phase != Phase::Writes)
            .map(|(_, p)| p)
    }

    fn attempted(&self) -> u64 {
        self.logs().map(|l| l.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.logs().map(|l| l.failed).sum()
    }

    /// The first error each failing client saw.
    fn errors(&self) -> impl Iterator<Item = String> + '_ {
        self.logs()
            .filter_map(|l| l.first_error.as_ref())
            .map(|e| format!("FAILED request: {e}"))
    }

    fn updates(&self) -> u64 {
        self.logs().map(|l| l.updates).sum()
    }

    fn reads(&self) -> usize {
        self.logs().map(|l| l.read_us.len()).sum()
    }

    fn acks(&self) -> Vec<Ack> {
        self.logs().flat_map(|l| l.acks.iter().copied()).collect()
    }

    fn recorded_reads(&self) -> Vec<Read> {
        self.logs().flat_map(|l| l.reads.iter().cloned()).collect()
    }

    /// Each client's stream position after the last slice.
    fn next(&self) -> Vec<usize> {
        let (_, last) = self.slices.last().expect("at least one slice");
        last.clients.iter().map(|l| l.next).collect()
    }

    /// Requests answered per second over the whole run.
    fn rate(&self) -> f64 {
        let wall: f64 = self.slices.iter().map(|(_, p)| p.wall.as_secs_f64()).sum();
        (self.attempted() - self.failed()) as f64 / wall.max(f64::EPSILON)
    }
}

/// Pooled samples of `pick` over `slices`.
fn pooled<'a>(
    slices: impl Iterator<Item = &'a PhaseLog>,
    pick: fn(&ClientLog) -> &[f64],
) -> Vec<f64> {
    slices
        .flat_map(|p| p.clients.iter().flat_map(|l| pick(l).iter().copied()))
        .collect()
}

/// Median over `slices` of each slice's median of `pick`.
fn median_of_p50s<'a>(
    slices: impl Iterator<Item = &'a PhaseLog>,
    pick: fn(&ClientLog) -> &[f64],
) -> f64 {
    let mut p50s: Vec<f64> = slices
        .map(|p| quantile(&mut pooled(std::iter::once(p), pick), 0.5))
        .collect();
    quantile(&mut p50s, 0.5)
}

/// Median over `slices` of each slice's `count` per second.
fn median_rate<'a>(
    slices: impl Iterator<Item = &'a PhaseLog>,
    count: fn(&ClientLog) -> f64,
) -> f64 {
    let mut rates: Vec<f64> = slices
        .map(|p| p.clients.iter().map(count).sum::<f64>() / p.wall.as_secs_f64().max(f64::EPSILON))
        .collect();
    quantile(&mut rates, 0.5)
}

/// Drive the workload for `secs` in [`ROUNDS`] rounds.
fn serve(w: &Workload, served: &Served, secs: f64, seed: u64, trace: bool) -> Measured {
    let addr = served.server.local_addr();
    let round = secs / ROUNDS as f64;
    let mut next = vec![0; served.inputs.streams.len()];
    let mut slices = Vec::new();
    for r in 0..ROUNDS as u64 {
        let plan: &[(Phase, f64)] = match w.traffic {
            Traffic::Mixed => &[(Phase::Mixed, 1.0)],
            Traffic::Apply | Traffic::Batch => &[
                (Phase::Writes, 1.0 - READ_PHASE_SHARE),
                (Phase::Reads, READ_PHASE_SHARE),
            ],
        };
        for &(phase, share) in plan {
            let log = drive(
                w,
                addr,
                &served.inputs,
                phase,
                round * share,
                seed ^ r,
                &next,
                trace,
            );
            next = log.clients.iter().map(|l| l.next).collect();
            slices.push((phase, log));
        }
    }
    Measured { slices }
}

/// Run `w` once as configured.
pub fn run(w: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let result = if cfg.trace {
        run_traced(w, cfg)
    } else {
        run_untraced(w, cfg)
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    result
}

fn ckpt_dir(w: &Workload, cfg: &RunConfig, i: usize) -> Option<PathBuf> {
    w.durable.then(|| cfg.scratch.join(format!("server-{i}")))
}

/// Drain a set-up server that will not be measured.
fn discard(served: Served) {
    served.server.drain_flag().trip();
    let _ = served.server.wait();
    if let Some(dir) = served.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn run_untraced(w: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut served = None;
    while setup_s.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        if let Some(previous) = served.take() {
            discard(previous);
        }
        let t0 = Instant::now();
        let s = setup(w, cfg.seed, ckpt_dir(w, cfg, setup_s.len()).as_deref())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let measured = serve(w, &served, cfg.seconds, cfg.seed, false);
    let peak = peak_rss_mb();
    let mut notes: Vec<String> = measured.errors().collect();
    notes.push(format!("set-ups: {}", setup_s.len()));
    let correct = verify(w, served, &measured, None, cfg, &mut notes)?;

    let mut write_us = pooled(measured.write_slices(), |l| &l.write_us);
    let mut read_us = pooled(measured.read_slices(), |l| &l.read_us);
    // Reported without a bound: write p50 sits between the modes of a
    // multimodal distribution (0, 1, 2 or 3 extractions per ack) and
    // write tails follow host contention; read p99 of a loopback round
    // trip mostly measures host scheduling.  p99 is marked when it
    // leaves fewer than ten samples beyond it.
    for (what, samples) in [("write", &mut write_us), ("read", &mut read_us)] {
        let len = samples.len();
        notes.push(format!(
            "{what}s: {len} samples, mean {:.1} µs, p10 {:.1}, p50 {:.1}, p90 {:.1}, p99 {:.1}{}",
            mean(samples),
            quantile(samples, 0.1),
            quantile(samples, 0.5),
            quantile(samples, 0.9),
            quantile(samples, 0.99),
            if tail_is_supported(len, 0.99) {
                ""
            } else {
                " (p99 has fewer than 10 samples beyond it)"
            }
        ));
    }
    let attempted = measured.attempted();
    let failed = measured.failed();
    let metrics = vec![
        metric("setup_s", quantile(&mut setup_s, 0.5), "s"),
        metric("write_mean_us", mean(&write_us), "us"),
        metric(
            "writes_per_s",
            median_rate(measured.write_slices(), |l| l.updates as f64),
            "1/s",
        ),
        metric(
            "read_p50_us",
            median_of_p50s(measured.read_slices(), |l| &l.read_us),
            "us",
        ),
        metric("read_p90_us", quantile(&mut read_us, 0.9), "us"),
        metric(
            "reads_per_s",
            median_rate(measured.read_slices(), |l| l.read_us.len() as f64),
            "1/s",
        ),
        metric(
            "ack_ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak, "MiB"),
    ];
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        client_spans: Vec::new(),
        recorder: None,
    })
}

fn run_traced(w: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    let half = cfg.seconds / 2.0;
    // Untraced reference half: its request rate is the base of
    // `trace.overhead_pct`.
    let plain = setup(w, cfg.seed, ckpt_dir(w, cfg, 0).as_deref())?;
    let plain_rate = serve(w, &plain, half, cfg.seed, false).rate();
    discard(plain);

    let served = setup(w, cfg.seed, ckpt_dir(w, cfg, 1).as_deref())?;
    let measured = serve(w, &served, half, cfg.seed, true);
    let traced_rate = measured.rate();
    let epoch_reads = served.server.epoch_reads_served();
    let mut rec = Recorder::default();
    let mut notes: Vec<String> = measured.errors().collect();
    let correct = verify(w, served, &measured, Some(&mut rec), cfg, &mut notes)?;

    let client_spans: Vec<Span> = measured
        .logs()
        .flat_map(|l| l.spans.iter().copied())
        .collect();
    let call_us = |name: &str| {
        let mut v: Vec<f64> = client_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        quantile(&mut v, 0.5)
    };
    let mut apply = rec.micros("core.apply");
    let mut extract = rec.micros("core.publish_extract");
    let extract_sum: f64 = extract.iter().sum();
    let apply_sum: f64 = apply.iter().sum();
    let (before, after) = (
        rec.stats_before.unwrap_or_default(),
        rec.stats_after.unwrap_or_default(),
    );
    let updates = (after.updates - before.updates).max(1) as f64;
    let per_update = |a: u64, b: u64| (a - b) as f64 / updates;
    let p50 = |name: &str| quantile(&mut rec.micros(name), 0.5);
    let doc_sum: f64 = rec.doc_bytes.iter().sum();
    let reads_issued = measured.reads().max(1) as f64;
    let metrics = vec![
        metric("core.apply_p50_us", quantile(&mut apply, 0.5), "us"),
        metric("core.apply_p90_us", quantile(&mut apply, 0.9), "us"),
        metric("core.publish_extract_us", quantile(&mut extract, 0.5), "us"),
        metric("core.publish_extracts", extract.len() as f64, "count"),
        metric(
            "core.publish_share",
            extract_sum / (apply_sum + extract_sum).max(f64::EPSILON),
            "ratio",
        ),
        metric("core.epoch_read_us", p50("core.epoch_read"), "us"),
        metric("core.memory_bytes", rec.memory_bytes as f64, "bytes"),
        metric(
            "core.flips_per_update",
            per_update(after.label_flips, before.label_flips),
            "count",
        ),
        metric(
            "dt.maturities_per_update",
            per_update(after.dt_maturities, before.dt_maturities),
            "count",
        ),
        metric(
            "sim.labellings_per_update",
            per_update(after.labellings, before.labellings),
            "count",
        ),
        metric(
            "sim.samples_per_update",
            per_update(after.samples_drawn, before.samples_drawn),
            "count",
        ),
        metric("graph.topology_apply_us", p50("graph.topology_apply"), "us"),
        metric("graph.intersection_us", p50("graph.intersection"), "us"),
        metric("serve.apply_call_us", call_us("serve.apply_call"), "us"),
        metric(
            "serve.batch_apply_call_us",
            call_us("serve.batch_apply_call"),
            "us",
        ),
        metric(
            "serve.group_by_call_us",
            call_us("serve.group_by_call"),
            "us",
        ),
        metric(
            "serve.cluster_of_call_us",
            call_us("serve.cluster_of_call"),
            "us",
        ),
        metric("serve.codec_us", p50("serve.codec"), "us"),
        metric("serve.reply_bytes", mean(&rec.reply_bytes), "bytes"),
        metric(
            "serve.epoch_read_ratio",
            epoch_reads as f64 / reads_issued,
            "ratio",
        ),
        metric(
            "serve.overload_retries",
            measured.logs().map(|l| l.overload_retries).sum::<u64>() as f64,
            "count",
        ),
        metric("store.capture_full_us", p50("store.capture_full"), "us"),
        metric("store.capture_delta_us", p50("store.capture_delta"), "us"),
        metric("store.write_us", p50("store.write"), "us"),
        metric("store.doc_bytes", mean(&rec.doc_bytes), "bytes"),
        metric(
            "store.bytes_per_update",
            doc_sum / (after.updates.max(1)) as f64,
            "bytes",
        ),
        metric("store.restore_s", rec_restore_s(&rec), "s"),
        metric(
            "trace.overhead_pct",
            100.0 * (plain_rate - traced_rate) / plain_rate.max(f64::EPSILON),
            "%",
        ),
    ];
    Ok(Outcome {
        correct,
        attempted: measured.attempted(),
        failed: measured.failed(),
        metrics,
        notes,
        client_spans,
        recorder: Some(rec),
    })
}

fn rec_restore_s(rec: &Recorder) -> f64 {
    rec.spans
        .iter()
        .find(|s| s.name == "store.restore")
        .map_or(0.0, |s| s.dur_ns as f64 / 1e9)
}

/// The correctness gate.  Consumes the server (it is drained here).
/// Returns whether every check passed; failures are described in
/// `notes`.
fn verify(
    w: &Workload,
    served: Served,
    measured: &Measured,
    mut rec: Option<&mut Recorder>,
    cfg: &RunConfig,
    notes: &mut Vec<String>,
) -> Result<bool, String> {
    let mut ok = true;
    let mut check = |pass: bool, what: String| {
        if !pass {
            ok = false;
            notes.push(format!("FAILED: {what}"));
        }
    };
    let inputs = &served.inputs;
    let mut probe = connect(served.server.local_addr(), cfg.seed ^ 0x0b5e)?;
    let stats = probe.stats(true).map_err(|e| format!("stats: {e}"))?;
    let expected = inputs.preload.len() as u64 + measured.updates();
    check(
        stats.epoch == expected,
        format!(
            "final epoch {} != preload + acknowledged = {expected}",
            stats.epoch
        ),
    );
    check(
        stats.queued_updates == 0,
        format!("{} updates still queued", stats.queued_updates),
    );
    let mirror = inputs.mirror(&measured.next());
    check(
        stats.num_edges == mirror.len() as u64,
        format!(
            "server has {} edges, the generator's mirror {}",
            stats.num_edges,
            mirror.len()
        ),
    );
    let everyone: Vec<VertexId> = (0..inputs.n as u32).map(VertexId).collect();
    let groups = probe
        .group_by(&everyone)
        .map_err(|e| format!("final group-by: {e}"))?;
    drop(probe);
    if let Err(e) = check_sandwich(&groups, &mirror, inputs.n) {
        check(false, format!("sandwich guarantee: {e}"));
    }
    served.server.drain_flag().trip();
    let report = served.server.wait();
    if w.durable {
        let covered = report.final_checkpoint.map(|info| info.updates_applied);
        check(
            covered == Some(stats.epoch),
            format!(
                "drain checkpoint covers {covered:?} of {} updates",
                stats.epoch
            ),
        );
        if let (Some(r), Some(dir)) = (rec.as_deref_mut(), served.dir.as_deref()) {
            let docs = DirCheckpointStore::new(dir)
                .read_chain()
                .map_err(|e| format!("reading the final chain: {e}"))?;
            let t0 = Instant::now();
            let restored = restore_any_chain(&docs).map_err(|e| format!("restore: {e}"))?;
            r.spans.push(crate::replay::ReplaySpan {
                name: "store.restore",
                epoch: stats.epoch,
                dur_ns: t0.elapsed().as_nanos() as u64,
            });
            drop(restored);
        }
    }
    if let Some(dir) = &served.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let replay_dir: Option<PathBuf> = rec.is_some().then(|| cfg.scratch.join("replay"));
    let replayed = replay(
        w,
        inputs,
        &measured.acks(),
        &measured.recorded_reads(),
        rec,
        replay_dir.as_deref().filter(|_| w.durable),
    )?;
    check(
        Some(replayed.checksum) == stats.state_checksum,
        format!(
            "replay checksum {:#x} != server {:?}",
            replayed.checksum, stats.state_checksum
        ),
    );
    check(
        replayed.num_edges == mirror.len(),
        format!(
            "replay has {} edges, mirror {}",
            replayed.num_edges,
            mirror.len()
        ),
    );
    if let Some(dir) = replay_dir {
        let _ = std::fs::remove_dir_all(Path::new(&dir));
    }
    Ok(ok)
}
