//! `dynscan-check`: the workspace's correctness tooling.
//!
//! Two halves:
//!
//! * [`lint`] — a lexer-level static analyzer over the workspace's
//!   `.rs` files (`cargo run -p dynscan-check --bin dynscan-lint`),
//!   enforcing the rules catalogued in `crates/check/README.md` with a
//!   checked-in, justified allowlist.
//! * the model-checked interleaving suites under `tests/` — seeded
//!   bug-class fixtures proving the `interleave` checker finds races,
//!   missed wakeups and double drops (always run), plus the production
//!   invariants (epoch sleep protocol, Chase–Lev deque, one-in-flight
//!   checkpointing, epoch publication) exercised against the *real*
//!   facaded structures under `cfg(dynscan_model_check)`.

#![forbid(unsafe_code)]

pub mod lint;
