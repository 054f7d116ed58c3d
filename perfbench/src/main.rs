//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, one note line per check or sample count,
//! and as its last line the JSON result.  Traced runs also write their
//! spans to `.bench_out/trace-<workload>-<seed>.json`.  Exits non-zero
//! without a result line when the run cannot complete.

use perfbench::report::{result_line, write_trace, Provenance};
use perfbench::run::{run, RunConfig};
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::collect();
    println!("provenance: {}", provenance.to_json());
    let out = PathBuf::from(".bench_out");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: out.join(format!("run-{}", std::process::id())),
    };
    let outcome = match run(&args.workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if args.trace {
        let path = out.join(format!("trace-{}-{}.json", args.workload.name, args.seed));
        if let Err(e) = write_trace(&path, args.workload.name, args.seed, &provenance, &outcome) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace: {}", path.display());
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
