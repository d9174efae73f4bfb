//! Scoped `std::thread` worker pool for work that is independent by
//! construction: LP constraint rows, the rip-up candidate scan, and the
//! congestion mode's per-net feature and victim scans. Workers claim
//! items from one shared counter (relaxed: it publishes nothing; results
//! travel through `join`), and results come back in item order, so
//! callers whose `f` is a pure function of `(index, item)` get the same
//! output at every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on up to `threads` OS threads and returns
/// the results in item order. With `threads <= 1` (or fewer than two
/// items) everything runs on the caller's thread. A panic inside `f`
/// propagates to the caller once the scope joins.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let (next, f) = (&AtomicUsize::new(0), &f);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    std::iter::from_fn(|| {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        items.get(i).map(|t| (i, f(i, t)))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every index claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_in_item_order_at_any_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7, 64] {
            let out = super::parallel_map(&items, threads, |i, &x| (i == x).then_some(x * 3));
            assert_eq!(out, (0..100).map(|x| Some(x * 3)).collect::<Vec<_>>());
            assert!(super::parallel_map(&items[..0], threads, |_, &x| x).is_empty());
        }
    }
}
