//! The lint gate as a test: plain `cargo test` fails if the workspace
//! drifts out of compliance or the allowlist or a rule's module list
//! goes stale, mirroring the CI `check` job (`cargo run -p
//! dynscan-check --bin dynscan-lint`).

use dynscan_check::lint;
use std::path::Path;

#[test]
fn the_workspace_is_lint_clean() {
    let root = lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the check crate lives inside the workspace");
    let outcome = lint::run(&root).expect("the workspace sources are readable");
    let mut report = String::new();
    for f in &outcome.findings {
        report.push_str(&format!("{f}\n"));
    }
    for stale in &outcome.unused_allows {
        report.push_str(&format!(
            "stale allowlist entry at lint-allow.txt:{}: {} | {} | {}\n",
            stale.line, stale.rule, stale.path_suffix, stale.needle
        ));
    }
    for module in &outcome.unmatched_modules {
        report.push_str(&format!("module-list entry names no file: {module}\n"));
    }
    assert!(
        outcome.clean(),
        "dynscan-lint found violations ({} findings, {} stale allows, {} stale modules):\n{report}",
        outcome.findings.len(),
        outcome.unused_allows.len(),
        outcome.unmatched_modules.len()
    );
    assert!(
        outcome.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the scan roots move?",
        outcome.files_scanned
    );
}
