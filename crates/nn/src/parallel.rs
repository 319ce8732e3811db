//! Thread-count configuration for the workspace's two parallel tiers.
//!
//! Work fans out only where items are independent: the per-design maps in
//! dataset generation and training run on rayon's global pool, and the
//! serving daemon runs its own worker threads. The kernels in this crate
//! are serial loops. The pool size defaults to the `RTT_THREADS`
//! environment variable, falling back to all available cores.
//! `RTT_THREADS=1` (or [`set_num_threads`]`(1)`) runs the per-design maps
//! serially and reproduces their results exactly — each design's result is
//! bit-identical whichever thread computes it, so this is a debugging aid,
//! not a correctness requirement.

/// Reconfigures the global thread count (`1` forces serial execution).
pub fn set_num_threads(n: usize) {
    let n = n.max(1);
    // The builder cannot fail in practice; panicking here would turn a
    // configuration call into a hidden abort site, so ignore the result.
    let _ = rayon::ThreadPoolBuilder::new().num_threads(n).build_global();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_num_threads_round_trips() {
        set_num_threads(3);
        assert_eq!(rayon::current_num_threads(), 3);
        set_num_threads(1);
        assert_eq!(rayon::current_num_threads(), 1);
    }
}
