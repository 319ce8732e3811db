//! Property-based equivalence suites for the kernel layer.
//!
//! The blocked `matmul`, the zero-skip variant, and the im2col `conv2d`
//! all claim to be drop-in replacements for the naive reference loops they
//! displaced. These tests pin that claim down: each kernel is compared
//! against a reference implementation written the obvious way, across
//! randomly sampled shapes and values, and across thread counts (kernels
//! are serial, so the pool size must never reach their results).

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_nn::{ops, parallel, Tape, Tensor};

/// Serializes tests that toggle the global thread count. Kernels are
/// bit-identical across thread counts, so tests that *don't* toggle are
/// unaffected by whoever holds the lock.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once at one thread and once at four, restoring one thread
/// afterwards. Both runs happen under the lock so concurrent tests can't
/// change the pool between the two measurements.
fn at_one_and_four_threads<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let _guard = THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_num_threads(1);
    let serial = f();
    parallel::set_num_threads(4);
    let par = f();
    parallel::set_num_threads(1);
    (serial, par)
}

fn random_tensor(shape: &[usize], seed: u64, bound: f32) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(&mut rng, shape, bound)
}

/// The naive triple loop the blocked kernel replaced, accumulating over
/// `k` in ascending order per output element — the same order the blocked
/// kernel uses, so results must match bit for bit.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k);
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.at(i, p) * b.at(p, j);
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #[test]
    fn blocked_matmul_matches_naive_reference(
        dims in (1usize..17, 1usize..33, 1usize..33),
        seed in 0u64..1_000_000,
    ) {
        // The blocked kernel is serial, so the pool size does not matter.
        let (m, k, n) = dims;
        let a = random_tensor(&[m, k], seed, 2.0);
        let b = random_tensor(&[k, n], seed ^ 0xA5A5, 2.0);
        prop_assert_eq!(a.matmul(&b).data(), naive_matmul(&a, &b).data());
    }
}

#[test]
fn parallel_matmul_is_bit_identical_to_serial() {
    // 2·m·k·n = 2·64·64·64 = 512 KiFLOPs, large enough that a threaded
    // kernel would split the output rows.
    let a = random_tensor(&[64, 64], 7, 1.5);
    let b = random_tensor(&[64, 64], 11, 1.5);
    let (serial, par) = at_one_and_four_threads(|| a.matmul(&b));
    assert_eq!(serial.data(), par.data());
    assert_eq!(serial.data(), naive_matmul(&a, &b).data());
}

/// Direct (non-im2col) convolution forward: `x` is `[cin, h, w]`, `w` is
/// `[cout, cin, kh, kw]`, zero padding, stride 1. Taps are accumulated in
/// the same `(ci, ky, kx)` order as the im2col column layout, with padding
/// contributing exact `0.0` terms, so the result matches bit for bit.
#[allow(clippy::needless_range_loop)]
fn direct_conv2d(x: &Tensor, w: &Tensor, pad: usize) -> Tensor {
    let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
    assert_eq!(w.shape()[1], cin);
    let (oh, ow) = (h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1);
    let mut out = Tensor::zeros(&[cout, oh, ow]);
    for co in 0..cout {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ci in 0..cin {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let (iy, ix) = (oy + ky, ox + kx);
                            let tap = if iy >= pad && ix >= pad && iy - pad < h && ix - pad < wd {
                                x.data()[ci * h * wd + (iy - pad) * wd + (ix - pad)]
                            } else {
                                0.0
                            };
                            acc += tap * w.data()[((co * cin + ci) * kh + ky) * kw + kx];
                        }
                    }
                }
                out.data_mut()[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
    out
}

/// Direct adjoint of [`direct_conv2d`] given the upstream gradient `gy`.
fn direct_conv2d_backward(x: &Tensor, w: &Tensor, pad: usize, gy: &Tensor) -> (Tensor, Tensor) {
    let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
    let (oh, ow) = (gy.shape()[1], gy.shape()[2]);
    let mut gx = Tensor::zeros(x.shape());
    let mut gw = Tensor::zeros(w.shape());
    for co in 0..cout {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gy.data()[(co * oh + oy) * ow + ox];
                for ci in 0..cin {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let (iy, ix) = (oy + ky, ox + kx);
                            if iy < pad || ix < pad || iy - pad >= h || ix - pad >= wd {
                                continue;
                            }
                            let xi = ci * h * wd + (iy - pad) * wd + (ix - pad);
                            let wi = ((co * cin + ci) * kh + ky) * kw + kx;
                            gx.data_mut()[xi] += g * w.data()[wi];
                            gw.data_mut()[wi] += g * x.data()[xi];
                        }
                    }
                }
            }
        }
    }
    (gx, gw)
}

fn assert_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let scale = 1.0f32.max(w.abs());
        assert!((g - w).abs() <= tol * scale, "{what}[{i}]: got {g}, want {w}");
    }
}

proptest! {
    #[test]
    fn im2col_conv2d_forward_matches_direct(
        chans in (1usize..4, 1usize..4),
        hw in (4usize..10, 4usize..10),
        kp in (0usize..2, 0usize..2),
        seed in 0u64..1_000_000,
    ) {
        let (cin, cout) = chans;
        let (h, wd) = hw;
        let (ksel, pad) = kp;
        let k = if ksel == 0 { 1 } else { 3 };
        let x = random_tensor(&[cin, h, wd], seed, 1.0);
        let w = random_tensor(&[cout, cin, k, k], seed ^ 0xC0FE, 0.8);

        let tape = Tape::new();
        let y = tape.conv2d(tape.constant(x.clone()), tape.constant(w.clone()), pad);
        let direct = direct_conv2d(&x, &w, pad);
        prop_assert_eq!(tape.value(y).shape(), direct.shape());
        prop_assert_eq!(tape.value(y).data(), direct.data());
    }

    #[test]
    fn im2col_conv2d_gradients_match_direct_adjoint(
        chans in (1usize..4, 1usize..4),
        hw in (4usize..9, 4usize..9),
        pad in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (cin, cout) = chans;
        let (h, wd) = hw;
        let k = 3;
        let x = random_tensor(&[cin, h, wd], seed, 1.0);
        let w = random_tensor(&[cout, cin, k, k], seed ^ 0xBEEF, 0.8);

        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.constant(w.clone());
        let y = tape.conv2d(xv, wv, pad);
        // A random linear readout gives every output element a distinct
        // upstream gradient.
        let c = random_tensor(tape.value(y).shape(), seed ^ 0xD00D, 1.0);
        let n = c.len() as f32;
        let loss = y.mul(tape.constant(c.clone())).mean();
        let grads = tape.backward(loss);

        let mut gy = c;
        gy.scale_assign(1.0 / n);
        let (gx, gw) = direct_conv2d_backward(&x, &w, pad, &gy);
        // The im2col path pairs products in a different order than the
        // direct loops, so compare to f32 reduction tolerance, not bits.
        assert_close(grads.wrt(xv.id()).unwrap().data(), gx.data(), 1e-4, "gx");
        assert_close(grads.wrt(wv.id()).unwrap().data(), gw.data(), 1e-4, "gw");
    }
}

#[test]
fn parallel_conv2d_is_bit_identical_to_serial() {
    let x = random_tensor(&[3, 32, 32], 13, 1.0);
    let w = random_tensor(&[8, 3, 3, 3], 17, 0.5);
    let (serial, par) = at_one_and_four_threads(|| {
        let tape = Tape::new();
        let y = tape.conv2d(tape.constant(x.clone()), tape.constant(w.clone()), 1);
        tape.value(y)
    });
    assert_eq!(serial.data(), par.data());
    assert_eq!(serial.data(), direct_conv2d(&x, &w, 1).data());
}

#[test]
fn parallel_segment_reductions_are_bit_identical_to_serial() {
    // 256 rows × 64 cols, large enough that a threaded gather or segment
    // kernel would split the output rows.
    let (rows, d, segs) = (256usize, 64usize, 10usize);
    let x = random_tensor(&[rows, d], 19, 1.0);
    // CSR runs of growing length.
    let seg_off: Vec<u32> = (0..=segs).map(|s| ((s * s * rows) / (segs * segs)) as u32).collect();
    let idx: Vec<u32> = (0..rows).map(|i| ((i * 7 + 3) % rows) as u32).collect();

    let run = || {
        let (mut sum, mut max, mut gath) =
            (Tensor::default(), Tensor::default(), Tensor::default());
        ops::segment_sum_csr(&x, &seg_off, &mut sum);
        ops::segment_max_csr(&x, &seg_off, &mut max);
        ops::gather_rows_flat(&x, &idx, &mut gath);
        (sum, max, gath)
    };
    let (serial, par) = at_one_and_four_threads(run);
    assert_eq!(serial.0.data(), par.0.data());
    assert_eq!(serial.1.data(), par.1.data());
    assert_eq!(serial.2.data(), par.2.data());
}

// ---------------------------------------------------------------- readout

/// Mask rows as runs over `bins` bins: an empty row, a full row, `n`
/// random rows, and a repeat of the first random row.
fn mask_rows(bins: u32, n: usize, seed: u64) -> Vec<Vec<[u32; 2]>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = vec![Vec::new(), vec![[0, bins]]];
    for _ in 0..n {
        let mut row = Vec::new();
        let mut bin = rng.gen_range(0..4);
        while bin < bins {
            let len = rng.gen_range(1..6).min(bins - bin);
            row.push([bin, len]);
            bin += len + rng.gen_range(1..8);
        }
        rows.push(row);
    }
    rows.push(rows[2].clone());
    rows
}

/// `rows` as dense 0/1 mask rows.
fn dense_masks(rows: &[Vec<[u32; 2]>], bins: usize) -> Tensor {
    let mut t = Tensor::zeros(&[rows.len(), bins]);
    for (r, runs) in rows.iter().enumerate() {
        for &[start, len] in runs {
            t.data_mut()[r * bins + start as usize..r * bins + (start + len) as usize].fill(1.0);
        }
    }
    t
}

/// A global map whose bins include +0, −0 and negative values.
fn signed_map(bins: usize, seed: u64) -> Tensor {
    let mut t = random_tensor(&[bins], seed, 1.0);
    for (b, v) in t.data_mut().iter_mut().enumerate() {
        match b % 5 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            2 => *v = -v.abs(),
            _ => {}
        }
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The sparse readout kernels against the dense path they replace: 0/1
/// mask rows, `mul_row` by the global map, then a linear layer (`matmul`,
/// `add_row`), all on the tape. The output and the gradients of the map,
/// the weight and the bias must agree bit for bit, at one and four
/// threads, including an empty mask, a full one, a repeated one and
/// zero, negative-zero and negative map bins.
#[test]
fn masked_readout_matches_the_dense_layer_bit_for_bit() {
    // 1,000 rows of about 40 bins at width 32, large enough that a
    // threaded readout would split the output rows.
    let (bins, d) = (96, 32);
    for seed in 0..3 {
        let rows = std::sync::Arc::new(mask_rows(bins as u32, 1000, seed));
        let n = rows.len();
        let gmap = signed_map(bins, seed + 10);
        let w = random_tensor(&[bins, d], seed + 20, 0.5);
        let b = random_tensor(&[d], seed + 30, 0.5);
        let c = random_tensor(&[n, d], seed + 40, 1.0);
        // Both paths on a tape: values of the output, then the gradients
        // of the map, the weight and the bias.
        let run = |sparse: bool| {
            let tape = Tape::new();
            let inputs = [gmap.clone(), w.clone(), b.clone()].map(|t| tape.constant(t));
            let [gv, wv, bv] = inputs;
            let out = if sparse {
                let back = std::sync::Arc::clone(&rows);
                let forward = |v: &[&Tensor], out: &mut Tensor| {
                    ops::masked_readout(v[1], v[0].data(), v[2].data(), n, |i| &rows[i], out);
                };
                tape.fused(&inputs, n * d, forward, move |v, _, g, gin| {
                    let [g_gmap, g_w, g_b] = gin else { unreachable!("three inputs") };
                    ops::add_row_sums(g, g_b);
                    let runs_of = |i: usize| back[i].as_slice();
                    ops::masked_readout_backward(
                        v[0].data(),
                        v[1],
                        g,
                        n,
                        runs_of,
                        g_gmap.data_mut(),
                        g_w,
                    );
                })
            } else {
                let masked = tape.constant(dense_masks(&rows, bins)).mul_row(gv);
                masked.matmul(wv).add_row(bv)
            };
            let grads = tape.backward(out.mul(tape.constant(c.clone())).mean());
            let mut all = vec![bits(&tape.value(out))];
            all.extend(inputs.map(|v| bits(grads.wrt(v.id()).expect("a leaf gradient"))));
            all
        };
        let want = run(false);
        let (serial, par) = at_one_and_four_threads(|| run(true));
        for (what, (got, want)) in
            ["output", "map", "weight", "bias"].iter().zip(serial.iter().zip(&want))
        {
            assert_eq!(got, want, "seed {seed}: {what} differs from the dense path");
        }
        assert_eq!(par, serial, "seed {seed}: thread count changed the readout");
    }
    // No row reads as one empty mask row: the bias.
    let w = Tensor::zeros(&[4, 3]);
    let mut out = Tensor::full(&[5, 5], 9.0);
    ops::masked_readout(&w, &[0.0; 4], &[1.0, -2.0, 0.5], 0, |_| &[], &mut out);
    assert_eq!((out.shape(), out.data()), (&[1usize, 3][..], &[1.0, -2.0, 0.5][..]));
}
