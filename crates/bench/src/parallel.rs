//! Batch fan-out for the benchmark binaries: whole cases spread across a
//! few threads, each case solving on its own BDD manager. Nothing is
//! shared between items, so results are identical at any job count; only
//! wall time changes.

use std::sync::Mutex;

/// Resolves a `--jobs` value to a concrete thread count: `0` means "all
/// available parallelism" (falling back to 1 when the machine will not
/// say), anything else passes through.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// Applies `f` to every item on `jobs` scoped threads and returns the
/// results **in item order**. Threads claim items one at a time from a
/// shared queue, so long items do not convoy short ones; `jobs <= 1` (or
/// a single item) is a plain in-order loop on the calling thread. `f`
/// receives `(index, item)`.
///
/// A panicking item propagates to the caller once every thread has
/// joined; the other threads finish the remaining items first.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut panic = None;
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Bind the claim first so the lock is released
                        // before the item runs.
                        let next = queue.lock().expect("no item runs under the queue lock").next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        for t in threads {
            match t.join() {
                Ok(done) => {
                    for (i, r) in done {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    results.into_iter().map(|r| r.expect("every item mapped")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolve_jobs_zero_means_available_parallelism() {
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn parallel_map_preserves_order_and_covers_every_item() {
        for jobs in [1, 2, 4, 9] {
            let out = parallel_map(jobs, (0..57usize).collect(), |i, x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..57usize).map(|x| x * 3).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = parallel_map(4, Vec::<usize>::new(), |_, x| x);
        assert!(empty.is_empty());
    }

    /// A panicking item reaches the caller with its own payload, and only
    /// after the other threads have mapped every remaining item.
    #[test]
    fn panicking_item_propagates_after_every_thread_joins() {
        let mapped = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(3, (0..40usize).collect(), |_, x| {
                if x == 5 {
                    panic!("item {x} failed");
                }
                mapped.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        let payload = outcome.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("item 5 failed"));
        assert_eq!(mapped.load(Ordering::SeqCst), 39);
    }
}
