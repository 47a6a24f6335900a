//! # bench
//!
//! The reproduction's binaries:
//!
//! * `src/bin/figures.rs` — regenerates every table and figure of the paper
//!   as textual series (`cargo run --release -p bench --bin figures`);
//! * `src/bin/bench_leakage.rs` — the timing-leakage sweep of every decay
//!   policy, written to `BENCH_leakage.json`;
//! * `src/bin/bench_wheel.rs` — replays a 2 MB L2 through the decay timing
//!   wheel and the retained `ReferenceCache`, written to `BENCH_wheel.json`.
//!
//! Timing of the simulation pipeline itself is `tierbench`'s job.

#![forbid(unsafe_code)]
