//! An offline, API-compatible subset of `rayon`.
//!
//! The build environment has no crates.io access, so the parallel-iterator
//! surface this workspace uses is implemented locally on top of
//! [`std::thread::scope`]. Semantics this workspace relies on:
//!
//! * **Order preservation** — `par_iter().map(f).collect()` returns results
//!   in input order, so parallel output is a permutation-free, bit-identical
//!   replacement for the serial map.
//! * **Dynamic handout** — threads take runs of consecutive items from one
//!   shared cursor, so which thread runs an item depends on timing; since
//!   results are reordered, it never changes the output.
//! * **No nesting** — a parallel call issued from inside a worker runs
//!   serially on that worker (rayon would work-steal instead; for the
//!   fork-join shapes used here the observable results are identical and
//!   oversubscription is avoided).
//! * **Thread-count control** — the global thread count defaults to the
//!   `RTT_THREADS` environment variable, falling back to
//!   [`std::thread::available_parallelism`]. Unlike upstream rayon,
//!   [`ThreadPoolBuilder::build_global`] may be called repeatedly to
//!   reconfigure the count (the perf suite uses this to time serial vs.
//!   parallel execution in one process).
//!
//! Threads are spawned per parallel call rather than pooled. The call
//! sites in this workspace map over whole designs, so the ~tens of
//! microseconds of spawn cost are small against each item's work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Global thread count; 0 = not yet initialized.
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while executing inside a parallel worker; nested parallel calls
    /// observe it and degrade to serial execution.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn default_threads() -> usize {
    std::env::var("RTT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The number of threads parallel calls will fan out to.
pub fn current_num_threads() -> usize {
    let n = THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let n = default_threads();
    // A racing initializer computes the same value; last store wins.
    THREADS.store(n, Ordering::Relaxed);
    n
}

/// Error type of [`ThreadPoolBuilder::build_global`] (never produced by
/// this implementation; kept for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to configure global thread count")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures the global thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count (`0` = use the default).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the configuration globally. Unlike upstream rayon this may
    /// be called more than once; the latest call wins.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_threads() } else { self.num_threads };
        THREADS.store(n, Ordering::SeqCst);
        Ok(())
    }
}

/// Order-preserving parallel map over an item list. Every thread, the
/// calling one included, takes runs of consecutive items from one shared
/// cursor until none are left, so a thread whose items finish early takes
/// more instead of idling; results are put back in input order.
fn execute<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 || IN_WORKER.with(std::cell::Cell::get) {
        return items.into_iter().map(f).collect();
    }
    // About four runs per thread: a long list of small items (one row
    // each) then takes the cursor's lock a few times per thread, while a
    // short list of large items (one design each) goes out one at a time.
    let run = (n / (4 * threads)).max(1);
    let cursor = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let next: Vec<(usize, T)> = {
                // Taking items cannot panic, so a poisoned lock still holds
                // a valid cursor.
                let mut items = cursor.lock().unwrap_or_else(PoisonError::into_inner);
                items.by_ref().take(run).collect()
            };
            let Some(&(first, _)) = next.first() else { return done };
            done.push((first, next.into_iter().map(|(_, item)| f(item)).collect()));
        }
    };
    let mut runs = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                s.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    work()
                })
            })
            .collect();
        // Mark the calling thread as a worker while it takes items so
        // nested parallel calls inside `f` degrade serially.
        let was = IN_WORKER.with(|w| w.replace(true));
        let mut runs = work();
        IN_WORKER.with(|w| w.set(was));
        for h in handles {
            // A worker can only fail if `f` panicked; re-raise that panic
            // on the caller exactly as rayon does.
            match h.join() {
                Ok(part) => runs.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        runs
    });
    runs.sort_unstable_by_key(|&(first, _)| first);
    runs.into_iter().flat_map(|(_, results)| results).collect()
}

/// Parallel iterator types and conversion traits.
pub mod iter {
    use super::execute;

    /// An eager, order-preserving parallel iterator: the item list is
    /// materialized up front; only the mapped/consumed function runs in
    /// parallel.
    pub struct ParIter<T> {
        items: Vec<T>,
    }

    /// A lazily mapped [`ParIter`].
    pub struct Map<T, F> {
        items: Vec<T>,
        f: F,
    }

    impl<T: Send> ParIter<T> {
        /// Maps each item; the closure runs in parallel at consumption.
        pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> Map<T, F> {
            Map { items: self.items, f }
        }
    }

    impl<T: Send, R: Send, F: Fn(T) -> R + Sync> Map<T, F> {
        /// Runs the map in parallel and collects results in input order.
        pub fn collect<C: FromParIter<R>>(self) -> C {
            C::from_results(execute(self.items, self.f))
        }
    }

    /// Collection types constructible from ordered parallel results.
    pub trait FromParIter<R> {
        /// Builds the collection from in-order results.
        fn from_results(results: Vec<R>) -> Self;
    }

    impl<R> FromParIter<R> for Vec<R> {
        fn from_results(results: Vec<R>) -> Self {
            results
        }
    }

    /// Conversion of owned collections into parallel iterators.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;

        /// Converts into a parallel iterator.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;

        fn into_par_iter(self) -> ParIter<T> {
            ParIter { items: self }
        }
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Item = usize;

        fn into_par_iter(self) -> ParIter<usize> {
            ParIter { items: self.collect() }
        }
    }

    /// `par_iter()` — shared-reference parallel iteration.
    pub trait IntoParallelRefIterator<'a> {
        /// Item type (a shared reference).
        type Item: Send;

        /// Parallel iterator over shared references.
        fn par_iter(&'a self) -> ParIter<Self::Item>;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;

        fn par_iter(&'a self) -> ParIter<&'a T> {
            ParIter { items: self.iter().collect() }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;

        fn par_iter(&'a self) -> ParIter<&'a T> {
            ParIter { items: self.iter().collect() }
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        let out2: Vec<usize> = (0..100usize).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out2, (1..101).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_degrade_serially() {
        ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
        let outer: Vec<Vec<usize>> = (0..8usize)
            .into_par_iter()
            .map(|i| (0..4usize).into_par_iter().map(move |j| i * 4 + j).collect())
            .collect();
        let flat: Vec<usize> = outer.into_iter().flatten().collect();
        assert_eq!(flat, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        ThreadPoolBuilder::new().num_threads(1).build_global().unwrap();
        let out: Vec<usize> = (0..10usize).into_par_iter().map(|x| x).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
    }
}
