//! `dynscan-served` — the standalone clustering service.
//!
//! ```text
//! dynscan-served --addr 127.0.0.1:7411 --dir ./ckpts --checkpoint-every 256 \
//!                --full-every 8 --keep-last 2 --background
//! ```
//!
//! Starts (resuming from `--dir`'s checkpoint chain when one exists),
//! serves until SIGTERM or an in-band `Drain` request, then drains:
//! stops accepting requests, finishes the ones executing, takes a final
//! full checkpoint, and exits 0.  `--max-vertices N` rejects updates
//! naming a vertex id ≥ N (default 2²²).  `--port-file` atomically publishes the bound address
//! (useful with `--addr 127.0.0.1:0`) for test harnesses.

use dynscan_core::{Backend, Params};
use dynscan_serve::{ServeConfig, Server};
use std::io::Write as _;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: dynscan-served [--addr HOST:PORT] [--dir PATH] [--port-file PATH]\n\
         \x20                     [--checkpoint-every N] [--full-every K] [--keep-last N]\n\
         \x20                     [--background] [--threads N] [--max-vertices N]\n\
         \x20                     [--backend dynelm|dynstrclu|exact|indexed]\n\
         \x20                     [--eps F] [--mu N] [--exact-labels] [--seed N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    let Some(value) = value else {
        eprintln!("missing value for {flag}");
        usage();
    };
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {value:?} for {flag}");
        usage();
    })
}

fn main() -> ExitCode {
    let mut cfg = ServeConfig::new("127.0.0.1:7411");
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut eps = 0.5f64;
    let mut mu = 2usize;
    let mut exact_labels = false;
    let mut seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = parse(args.next(), "--addr"),
            "--dir" => cfg.checkpoint_dir = Some(parse(args.next(), "--dir")),
            "--port-file" => port_file = Some(parse(args.next(), "--port-file")),
            "--checkpoint-every" => {
                cfg.checkpoint_every = Some(parse(args.next(), "--checkpoint-every"))
            }
            "--full-every" => cfg.full_every = parse(args.next(), "--full-every"),
            "--keep-last" => cfg.keep_last = Some(parse(args.next(), "--keep-last")),
            "--background" => cfg.background_checkpoints = true,
            "--threads" => cfg.threads = Some(parse(args.next(), "--threads")),
            "--max-vertices" => cfg.max_vertices = parse(args.next(), "--max-vertices"),
            "--backend" => {
                cfg.backend = match parse::<String>(args.next(), "--backend").as_str() {
                    "dynelm" => Backend::DynElm,
                    "dynstrclu" => Backend::DynStrClu,
                    "exact" => Backend::ExactDynScan,
                    "indexed" => Backend::IndexedDynScan,
                    other => {
                        eprintln!("unknown backend {other:?}");
                        usage();
                    }
                }
            }
            "--eps" => eps = parse(args.next(), "--eps"),
            "--mu" => mu = parse(args.next(), "--mu"),
            "--exact-labels" => exact_labels = true,
            "--seed" => seed = Some(parse(args.next(), "--seed")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    let mut params = Params::jaccard(eps, mu);
    if exact_labels {
        params = params.with_exact_labels();
    }
    if let Some(seed) = seed {
        params = params.with_seed(seed);
    }
    cfg.params = params;

    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dynscan-served: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    eprintln!("dynscan-served: listening on {addr}");
    if let Some(path) = port_file {
        // Atomic publish (tmp + rename) so a watching harness never
        // reads a half-written address.
        let tmp = path.with_extension("tmp");
        let publish = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                writeln!(f, "{addr}")?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = publish {
            eprintln!("dynscan-served: failed to write port file: {e}");
            return ExitCode::FAILURE;
        }
    }
    let report = server.wait();
    eprintln!(
        "dynscan-served: drained after {} updates (final checkpoint: {})",
        report.updates_applied,
        match (&report.final_checkpoint, &report.checkpoint_error) {
            (Some(info), _) => format!(
                "seq {} covering {} updates",
                info.sequence, info.updates_applied
            ),
            (None, Some(e)) => format!("FAILED: {e}"),
            (None, None) => "none configured".into(),
        }
    );
    if report.checkpoint_error.is_some() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
