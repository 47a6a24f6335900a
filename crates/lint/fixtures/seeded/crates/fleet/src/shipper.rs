//! Seeded tidy violation (fixture — never compiled). Mirrors a
//! hypothetical `crates/fleet/src/shipper.rs` path: the fleet crate is
//! allowed sockets (server boundary) but must NEVER touch the
//! filesystem — peer record bytes are read and written only through
//! runstore, which owns all disk access and checksums every record.

use std::fs;

fn land_segment(dir: &str, name: &str, bytes: &[u8]) {
    // Violation: writing peer bytes straight to disk bypasses the
    // store's record-by-record checksum verification and its fresh-
    // segment naming — a torn or poisoned transfer would be trusted.
    let _ = fs::write(format!("{dir}/{name}"), bytes);
}
