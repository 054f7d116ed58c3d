//! The `dynscan-lint` gate: `cargo run -p dynscan-check --bin
//! dynscan-lint` from anywhere inside the workspace.
//!
//! Exit status: 0 clean, 1 findings or stale allowlist or module-list
//! entries, 2 when the workspace root or a source file could not be
//! read.  Pass an explicit root as the first argument to lint a
//! different checkout.

use dynscan_check::lint;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match std::env::args_os().nth(1) {
        Some(arg) => std::path::PathBuf::from(arg),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(e) => {
                    eprintln!("dynscan-lint: cannot determine the working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match lint::find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!(
                        "dynscan-lint: no workspace root above {} (looked for a Cargo.toml \
                         with [workspace])",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let outcome = match lint::run(&root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("dynscan-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for finding in &outcome.findings {
        eprintln!("{finding}");
    }
    for stale in &outcome.unused_allows {
        eprintln!(
            "error[stale-allow] crates/check/lint-allow.txt:{}: entry `{} | {} | {}` matched \
             nothing — the violation is gone, remove the entry",
            stale.line, stale.rule, stale.path_suffix, stale.needle
        );
    }
    for module in &outcome.unmatched_modules {
        eprintln!(
            "error[stale-module] crates/check/src/lint.rs: module-list entry `{module}` names no \
             scanned file — point it at the moved file or remove it"
        );
    }
    eprintln!(
        "dynscan-lint: {} file(s) scanned, {} finding(s), {} suppressed by the allowlist, \
         {} stale allowlist entr(ies), {} stale module entr(ies)",
        outcome.files_scanned,
        outcome.findings.len(),
        outcome.suppressed,
        outcome.unused_allows.len(),
        outcome.unmatched_modules.len()
    );
    if outcome.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
