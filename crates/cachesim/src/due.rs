//! Decay deadlines on four due lists, one per residue of the wrap count
//! modulo 4.
//!
//! A line decays only at a wrap of the global counter, and every pending
//! deadline falls 1–3 wraps past the wraps counted so far. A touch at wrap
//! count `w` schedules wrap `w + 3` (`w + max(3 − base, 1)` under the
//! `pre-fix-stale-counter` mutant), and a saturated line that is still
//! waking at its wrap retries at the next one. So the pending wraps never
//! span four consecutive values, list `wrap % 4` holds exactly the lines
//! due at `wrap`, and the four lists never alias.
//!
//! The lists are intrusive and doubly linked over per-line arrays
//! allocated in [`DueLists::new`]; linking, unlinking and popping are O(1)
//! and allocate nothing (the `no-alloc-in-sweep` tidy lint enforces this).

use serde::{Deserialize, Serialize};

/// Sentinel for "no line" in the lists.
const NIL: u32 = u32::MAX;
/// The wrap of a line on no list.
const NOT_DUE: u64 = u64::MAX;

/// Four intrusive lists of lines, list `k` holding the lines due at a
/// wrap `≡ k (mod 4)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DueLists {
    /// First line of each list (`NIL` when empty).
    heads: [u32; 4],
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The wrap each line is due at (`NOT_DUE` when on no list).
    wrap: Vec<u64>,
}

impl DueLists {
    /// Four empty lists over `lines` lines.
    pub(crate) fn new(lines: usize) -> Self {
        DueLists {
            heads: [NIL; 4],
            // lint: allow(no-alloc-in-sweep): one-time construction
            next: vec![NIL; lines],
            // lint: allow(no-alloc-in-sweep): one-time construction
            prev: vec![NIL; lines],
            // lint: allow(no-alloc-in-sweep): one-time construction
            wrap: vec![NOT_DUE; lines],
        }
    }

    /// Puts line `i` on the list of `wrap`, off any list it was on.
    pub(crate) fn link(&mut self, i: usize, wrap: u64) {
        self.unlink(i);
        let list = (wrap % 4) as usize;
        let head = self.heads[list];
        self.next[i] = head;
        self.prev[i] = NIL;
        if head != NIL {
            self.prev[head as usize] = i as u32;
        }
        self.heads[list] = i as u32;
        self.wrap[i] = wrap;
    }

    /// Takes line `i` off its list, if it is on one.
    pub(crate) fn unlink(&mut self, i: usize) {
        let wrap = self.wrap[i];
        if wrap == NOT_DUE {
            return;
        }
        let (next, prev) = (self.next[i], self.prev[i]);
        if prev == NIL {
            self.heads[(wrap % 4) as usize] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        }
        self.wrap[i] = NOT_DUE;
    }

    /// Takes one line due at `wrap` off its list and returns it; `None`
    /// once no line is due then.
    pub(crate) fn pop(&mut self, wrap: u64) -> Option<usize> {
        let head = self.heads[(wrap % 4) as usize];
        if head == NIL {
            return None;
        }
        let i = head as usize;
        debug_assert_eq!(
            self.wrap[i], wrap,
            "line {i} is on the list of another wrap"
        );
        self.unlink(i);
        Some(i)
    }

    /// The wrap line `i` is due at, if it is on a list.
    pub(crate) fn wrap_of(&self, i: usize) -> Option<u64> {
        let wrap = self.wrap[i];
        (wrap != NOT_DUE).then_some(wrap)
    }

    /// Whether no line is due at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.heads == [NIL; 4]
    }

    /// The lines on list `list`, head first (for the audit).
    pub(crate) fn members(&self, list: usize) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[list];
        std::iter::from_fn(move || {
            let i = (at != NIL).then_some(at as usize)?;
            at = self.next[i];
            Some(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(due: &mut DueLists, wrap: u64) -> Vec<usize> {
        std::iter::from_fn(|| due.pop(wrap)).collect()
    }

    #[test]
    fn lines_pop_at_their_wrap_only() {
        let mut due = DueLists::new(6);
        for (i, wrap) in [(0, 5), (1, 6), (2, 7), (3, 5), (4, 7)] {
            due.link(i, wrap);
        }
        assert_eq!(drain(&mut due, 5), vec![3, 0]);
        assert_eq!(drain(&mut due, 6), vec![1]);
        assert_eq!(drain(&mut due, 7), vec![4, 2]);
        assert!(due.is_empty());
        assert_eq!(due.wrap_of(0), None);
    }

    #[test]
    fn relinking_moves_a_line_and_unlinking_drops_it() {
        let mut due = DueLists::new(4);
        for i in 0..4 {
            due.link(i, 9);
        }
        due.link(1, 10);
        due.unlink(2);
        due.unlink(2);
        assert_eq!(due.wrap_of(1), Some(10));
        assert_eq!(due.members(1).collect::<Vec<_>>(), vec![3, 0]);
        assert_eq!(drain(&mut due, 9), vec![3, 0]);
        assert_eq!(drain(&mut due, 10), vec![1]);
        assert!(due.is_empty());
    }

    #[test]
    fn a_line_relinked_while_its_wrap_drains_waits_for_the_next() {
        let mut due = DueLists::new(2);
        due.link(0, 3);
        due.link(1, 3);
        let mut fired = Vec::new();
        while let Some(i) = due.pop(3) {
            fired.push(i);
            due.link(i, 4);
        }
        assert_eq!(fired, vec![1, 0]);
        assert_eq!(drain(&mut due, 4), vec![0, 1]);
    }
}
