//! Seeded fixture for the `no-alloc-in-sweep` rule: a due-list drain that
//! collects a wrap's lines into a fresh `Vec` on every advance — exactly
//! the steady-state allocation the preallocated intrusive lists exist to
//! avoid.

pub fn pop_all(heads: &[u32; 4], next: &[u32], wrap: u64) -> Vec<usize> {
    let mut due = Vec::new();
    let mut at = heads[(wrap % 4) as usize];
    while at != u32::MAX {
        due.push(at as usize);
        at = next[at as usize];
    }
    due
}
