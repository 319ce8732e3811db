//! Debug-build kernel sanitizer.
//!
//! Two families of checks, both free in release builds:
//!
//! * **Value checks** ([`check_finite`]): scan a tensor for NaN/Inf after a
//!   kernel writes it. The serving kernels are closed over finite inputs
//!   (the one NEG_INFINITY sentinel in `segment_max_csr` is zeroed before
//!   it escapes), so any non-finite value is a kernel bug.
//! * **Plan checks** ([`check_csr`]): validate the CSR invariants of a
//!   gather/segment plan at build time — offsets ascend and end exactly at
//!   the index count, and every gather index addresses a real row.
//!
//! [`enabled`] is `const false` in release builds, so every check body is
//! dead code there and the serving path pays nothing. Debug builds always
//! check, and each pass bumps the `nn::sanitize_value_checks` /
//! `nn::sanitize_plan_checks` flat counters so tests can assert the
//! sanitizer actually looked at something. Checks never mutate data, so
//! they cannot change an output bit.

use crate::Tensor;

static VALUE_CHECKS: rtt_obs::Counter = rtt_obs::Counter::new("nn::sanitize_value_checks");
static PLAN_CHECKS: rtt_obs::Counter = rtt_obs::Counter::new("nn::sanitize_plan_checks");

/// `true` when sanitizer checks should run: in debug builds. Always
/// `false` in release builds, which lets the optimizer delete every check
/// body.
#[inline]
pub const fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Scans `t` for non-finite values when the sanitizer is enabled.
///
/// # Panics
///
/// Panics naming `tag` and the flat index of the first NaN/Inf found.
#[inline]
pub fn check_finite(tag: &str, t: &Tensor) {
    if !enabled() {
        return;
    }
    VALUE_CHECKS.add(1);
    for (i, &v) in t.data().iter().enumerate() {
        if !v.is_finite() {
            // rtt-lint: allow(R002, R003, reason = "sanitizer abort is the product: debug builds only, compiled out of release")
            panic!(
                "sanitize[{tag}]: non-finite value {v} at flat index {i} of shape {:?}",
                t.shape()
            );
        }
    }
}

/// Validates the CSR invariants of a segment plan when the sanitizer is
/// enabled: `offsets` is non-empty, starts at 0, ascends monotonically,
/// ends exactly at `indices.len()`, and every index in `indices` is below
/// `rows`.
///
/// # Panics
///
/// Panics naming `tag` and the violated invariant.
#[inline]
pub fn check_csr(tag: &str, offsets: &[u32], indices: &[u32], rows: usize) {
    if !enabled() {
        return;
    }
    PLAN_CHECKS.add(1);
    // rtt-lint: allow(R002, R003, reason = "sanitizer abort is the product: debug builds only, compiled out of release")
    let fail = |what: String| -> ! { panic!("sanitize[{tag}]: {what}") };
    if offsets.is_empty() {
        fail("CSR offsets are empty".to_owned());
    }
    if offsets[0] != 0 {
        fail(format!("CSR offsets start at {} instead of 0", offsets[0]));
    }
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            fail(format!("CSR offsets descend: {} -> {}", w[0], w[1]));
        }
    }
    let last = offsets[offsets.len() - 1] as usize;
    if last != indices.len() {
        fail(format!("CSR offsets end at {last} but there are {} indices", indices.len()));
    }
    for (i, &ix) in indices.iter().enumerate() {
        if ix as usize >= rows {
            fail(format!("gather index {ix} at position {i} exceeds {rows} rows"));
        }
    }
}

/// Validates a plain scatter/gather row-index list when the sanitizer is
/// enabled: every destination in `dst` addresses one of `rows` rows.
///
/// # Panics
///
/// Panics naming `tag` and the out-of-range index.
#[inline]
pub fn check_rows(tag: &str, dst: &[u32], rows: usize) {
    if !enabled() {
        return;
    }
    PLAN_CHECKS.add(1);
    for (i, &ix) in dst.iter().enumerate() {
        if ix as usize >= rows {
            // rtt-lint: allow(R002, R003, reason = "sanitizer abort is the product: debug builds only, compiled out of release")
            panic!("sanitize[{tag}]: row index {ix} at position {i} exceeds {rows} rows");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // tests/sanitize.rs covers the gate end-to-end (checks run in debug,
    // none in release); these exercise the check bodies directly.

    #[test]
    fn finite_tensor_passes() {
        check_finite("t", &Tensor::zeros(&[2, 2]));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_caught() {
        let mut t = Tensor::zeros(&[2]);
        t.data_mut()[1] = f32::NAN;
        check_finite("t", &t);
    }

    #[test]
    fn valid_csr_passes() {
        check_csr("p", &[0, 2, 2, 3], &[0, 1, 4], 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_gather_is_caught() {
        check_csr("p", &[0, 1], &[9], 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "end at")]
    fn truncated_offsets_are_caught() {
        check_csr("p", &[0, 1], &[0, 1], 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "row index")]
    fn bad_scatter_row_is_caught() {
        check_rows("p", &[7], 3);
    }
}
