//! The workspace's one parallel map, and its thread count.
//!
//! Work fans out only where items are independent: the per-design maps in
//! dataset generation and training go through [`par_map`], and the serving
//! daemon runs its own worker threads. The kernels in this crate are serial
//! loops. The thread count defaults to the `RTT_THREADS` environment
//! variable, falling back to all available cores. `RTT_THREADS=1` (or
//! [`set_num_threads`]`(1)`) runs the per-design maps serially and
//! reproduces their results exactly — each design's result is bit-identical
//! whichever thread computes it, so this is a debugging aid, not a
//! correctness requirement.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Configured thread count; 0 = not yet read from the environment.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Reconfigures the global thread count (`1` forces serial execution).
pub fn set_num_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The number of threads [`par_map`] fans out to.
fn num_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let n = std::env::var("RTT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    // A count set while the default was read wins over the default.
    match THREADS.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => n,
        Err(set) => set,
    }
}

/// Maps `f` over `items` on up to the configured number of threads, the
/// calling one included, and returns the results in input order.
///
/// Every thread takes the next untaken item from one shared cursor until
/// none are left, so a thread whose item finishes early takes another
/// instead of idling. Which thread runs an item depends on timing; since
/// the results are put back in input order, it never changes the output.
/// Threads are spawned per call: the callers map over whole designs, so
/// the spawn cost is small against each item's work.
///
/// # Panics
///
/// A panic in `f`, on any thread, re-raises on the caller with its
/// payload.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = num_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let cursor = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of this statement, so `f` runs
            // unlocked. Taking an item cannot panic, so a poisoned lock
            // still holds a valid cursor.
            let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else { return done };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for worker in workers {
            match worker.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_num_threads_round_trips() {
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
    }
}
