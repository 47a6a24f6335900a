//! # bench
//!
//! The reproduction's binaries:
//!
//! * `src/bin/figures.rs` — regenerates every table and figure of the paper
//!   as textual series (`cargo run --release -p bench --bin figures`);
//! * `src/bin/bench_leakage.rs` — the timing-leakage sweep of every decay
//!   policy, written to `BENCH_leakage.json`.
//!
//! Timing of the simulation pipeline itself is `tierbench`'s job.

#![forbid(unsafe_code)]
