//! Output: the result line, the provenance line and the trace file.

use crate::run::Outcome;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Where and how the numbers were produced.
pub struct Provenance {
    /// Available parallelism of the host.
    pub nproc: usize,
    /// `git rev-parse HEAD` of the working directory, or `unknown`.
    pub git_rev: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Provenance {
    /// Probe the host and toolchain.
    pub fn collect() -> Provenance {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"git_rev\": {}, \"rustc\": {}, \"profile\": {}}}",
            self.nproc,
            json_str(&self.git_rev),
            json_str(&self.rustc),
            json_str(self.profile)
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust prints.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        // `+ 0.0` turns a negative zero (an empty float sum) into 0.0.
        format!("{:?}", x + 0.0)
    } else {
        "0.0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Write the traced run's spans and counts to `path` (once, at exit).
pub fn write_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    provenance: &Provenance,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": {}, \"seed\": {seed}, \"provenance\": {},",
        json_str(workload),
        provenance.to_json()
    );
    let _ = writeln!(out, "\"metrics\": {},", result_line(outcome));
    out.push_str("\"client_spans\": [\n");
    let spans: Vec<String> = outcome
        .client_spans
        .iter()
        .map(|s| {
            format!(
                "[{}, {}, {}, {}, {}]",
                json_str(s.name),
                s.client,
                s.epoch,
                s.start_ns,
                s.dur_ns
            )
        })
        .collect();
    out.push_str(&spans.join(",\n"));
    out.push_str("\n],\n\"replay_spans\": [\n");
    let spans: Vec<String> = outcome
        .recorder
        .iter()
        .flat_map(|r| r.spans.iter())
        .map(|s| format!("[{}, {}, {}]", json_str(s.name), s.epoch, s.dur_ns))
        .collect();
    out.push_str(&spans.join(",\n"));
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
