//! Seeded fixture for the `no-wallclock` rule: a harness
//! observer that times probes with the host clock instead of simulated
//! cycles, injecting machine noise into the distinguishability scores.

use std::time::Instant;

pub fn probe_latency_ns() -> u128 {
    let start = Instant::now();
    start.elapsed().as_nanos()
}
