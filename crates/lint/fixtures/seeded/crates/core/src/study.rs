//! Seeded tidy violation (fixture — never compiled). Mirrors the real
//! `crates/core/src/study.rs` path so the lock-order rule applies.

fn get_or_run(&self, key: &RunKey) -> RunResult {
    let mut memo = self.memo.lock().expect("run cache lock");
    if let Some(hit) = memo.get(key) {
        return hit.clone();
    }
    // Violation: blocking on the inflight table while the memo guard is
    // still live — the deadlock pattern fill coalescing forbids.
    self.inflight.wait(key);
    drop(memo);
    self.run_uncached(key)
}
