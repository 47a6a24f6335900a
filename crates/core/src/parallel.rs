//! An ordered parallel map for independent simulation runs that do not
//! go through the [`crate::study::RunCache`] (custom core
//! configurations, closed-loop adaptive runs).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item across at most `threads` scoped workers and
/// returns the results in input order. With one worker (or one item) the
/// map runs inline on the calling thread.
///
/// # Errors
///
/// Returns the first error any worker hit; remaining items may be
/// skipped once an error is recorded.
pub fn map_ordered<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let first_error: Mutex<Option<E>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    return;
                }
                // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
                if first_error.lock().expect("error slot lock").is_some() {
                    return;
                }
                match f(&items[i]) {
                    // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
                    Ok(r) => *slots[i].lock().expect("result slot lock") = Some(r),
                    Err(e) => {
                        // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
                        let mut slot = first_error.lock().expect("error slot lock");
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
            });
        }
    });
    // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
    if let Some(e) = first_error.into_inner().expect("error slot lock") {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                // lint: allow(unwrap): a poisoned lock means a worker panicked; propagate
                .expect("result slot lock")
                // lint: allow(unwrap): every slot is filled before join returns
                .expect("slot filled")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = map_ordered(8, &items, |&x| Ok::<u64, ()>(x * 2)).unwrap();
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let items = [1u64, 2, 3];
        let out = map_ordered(1, &items, |&x| Ok::<u64, ()>(x + 1)).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn first_error_is_reported() {
        let items: Vec<u64> = (0..10).collect();
        let err = map_ordered(4, &items, |&x| if x == 5 { Err("boom") } else { Ok(x) });
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn empty_input_is_fine() {
        let items: [u64; 0] = [];
        let out = map_ordered(4, &items, |&x| Ok::<u64, ()>(x)).unwrap();
        assert!(out.is_empty());
    }
}
