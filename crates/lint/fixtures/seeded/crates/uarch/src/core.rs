//! Seeded fixture for the `no-wallclock` rule in a simulator crate: a
//! core that times its own slot bookings with the host clock, putting a
//! system call inside the per-instruction loop.

use std::time::Instant;

pub fn book_timed(calendar: &mut Vec<u64>, earliest: u64) -> (u64, u128) {
    let started = Instant::now();
    calendar.push(earliest);
    (earliest, started.elapsed().as_nanos())
}
