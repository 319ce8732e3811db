//! Pure forward kernels shared by the autodiff tape and the tape-free
//! inference engine, and the adjoints the backward passes share.
//!
//! Every function here is a pure function of its inputs that writes into a
//! caller-provided output tensor, resized in place so its allocation is
//! reused. [`crate::Tape`] calls these to produce the forward value of
//! every node it records; [`crate::InferCtx`] calls the *same* functions
//! with recycled arena buffers. That single-implementation rule is what
//! makes the two execution backends bit-identical by construction: each
//! kernel is a serial loop with one accumulation order (see the
//! determinism notes on the individual functions). Kernels never fan out
//! across threads; parallelism lives in the callers whose work items are
//! independent designs or requests.
//!
//! [`maxpool2d`] always records its argmax for the backward pass — the
//! tape keeps it on the node, the inference engine hands in a scratch
//! buffer it recycles — so the reduction loop itself stays identical
//! between backends. [`segment_max_csr`] records nothing: the GNN's fused
//! backward recomputes the reduction and routes each gradient to the first
//! row of the run equal to the output, which keeps the serving kernel
//! branch-free.

use crate::Tensor;

/// Matrix product `a · b` (delegates to the cache-blocked
/// [`Tensor::matmul_into`] kernel).
///
/// # Panics
///
/// Panics if inner dimensions mismatch.
// rtt-lint: hot
pub fn matmul(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    a.matmul_into(b, out);
}

/// Elementwise sum (same shape).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn add(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    out.copy_from(a);
    out.add_assign(b);
}

/// Adds a rank-1 row vector to every row of a matrix (bias add).
///
/// # Panics
///
/// Panics if `row.len() != a.cols()`.
pub fn add_row(a: &Tensor, row: &Tensor, out: &mut Tensor) {
    out.copy_from(a);
    add_row_in_place(out, row.data());
}

/// Adds a per-channel bias `[C]` to a feature map `[C, H, W]`.
///
/// # Panics
///
/// Panics if `bias.len() != C`.
pub fn add_channel(x: &Tensor, bias: &Tensor, out: &mut Tensor) {
    out.copy_from(x);
    add_channel_in_place(out, bias.data());
}

/// Elementwise difference (same shape).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn sub(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    out.copy_from(a);
    for (x, y) in out.data_mut().iter_mut().zip(b.data()) {
        *x -= y;
    }
}

/// Elementwise (Hadamard) product — the paper's Equation 6 masking.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mul(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
    out.copy_from(a);
    for (x, y) in out.data_mut().iter_mut().zip(b.data()) {
        *x *= y;
    }
}

/// Multiplies every row of a matrix by a rank-1 vector (broadcast
/// Hadamard — each endpoint mask row times the shared layout map). The
/// model reads masks as runs instead ([`masked_readout`]); this is the
/// dense reference its tests compare against.
///
/// # Panics
///
/// Panics if `row.len() != a.cols()`.
pub fn mul_row(a: &Tensor, row: &Tensor, out: &mut Tensor) {
    out.copy_from(a);
    mul_row_in_place(out, row.data());
}

/// Scalar multiple.
pub fn scale(a: &Tensor, s: f32, out: &mut Tensor) {
    out.copy_from(a);
    out.scale_assign(s);
}

/// Rectified linear unit.
pub fn relu(x: &Tensor, out: &mut Tensor) {
    out.copy_from(x);
    relu_in_place(out);
}

/// Reshaped copy with identical element count.
///
/// # Panics
///
/// Panics if volumes differ.
pub fn reshape(x: &Tensor, shape: &[usize], out: &mut Tensor) {
    out.copy_from(x);
    out.reshape_in_place(shape);
}

/// Mean of all elements (scalar `[1]` output).
pub fn mean(x: &Tensor, out: &mut Tensor) {
    out.reset(&[1], x.sum() / x.len() as f32);
}

/// Concatenates `a` and `b` side by side (matrices with equal rows) —
/// the paper's multimodal fusion `[v_n ; v_l]`.
///
/// # Panics
///
/// Panics on row mismatch.
// rtt-lint: hot
pub fn concat_cols(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(a.rows(), b.rows(), "concat_cols row mismatch");
    let (m, p, q) = (a.rows(), a.cols(), b.cols());
    out.reset(&[m, p + q], 0.0);
    for r in 0..m {
        out.data_mut()[r * (p + q)..r * (p + q) + p].copy_from_slice(a.row(r));
        out.data_mut()[r * (p + q) + p..(r + 1) * (p + q)].copy_from_slice(b.row(r));
    }
}

/// 2-D convolution, stride 1: `x` is `[C_in, H, W]`, `w` is
/// `[C_out, C_in, kh, kw]`, output `[C_out, H', W']` with
/// `H' = H + 2·pad - kh + 1`. `col` is the im2col scratch matrix, handed
/// in so the inference arena can recycle it across calls.
///
/// # Panics
///
/// Panics on rank/shape mismatch or if the kernel exceeds the padded
/// input.
// rtt-lint: hot
pub fn conv2d(x: &Tensor, w: &Tensor, pad: usize, col: &mut Tensor, out: &mut Tensor) {
    let (cin, h, wd) = rank3(x);
    let ws = w.shape();
    assert_eq!(ws.len(), 4, "weight must be [Cout,Cin,kh,kw]");
    let (cout, wcin, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
    assert_eq!(cin, wcin, "channel mismatch");
    let oh = h + 2 * pad + 1 - kh;
    let ow = wd + 2 * pad + 1 - kw;
    static CONV2D_CALLS: rtt_obs::Counter = rtt_obs::Counter::new("nn::conv2d_calls");
    static CONV2D_FLOPS: rtt_obs::Counter = rtt_obs::Counter::new("nn::conv2d_flops");
    CONV2D_CALLS.add(1);
    CONV2D_FLOPS.add(2 * (cout * cin * kh * kw * oh * ow) as u64);
    // im2col: the convolution becomes one dense [cout, cin·kh·kw] ×
    // [cin·kh·kw, oh·ow] product, which reuses the blocked matmul.
    // Products accumulate in the same (ci, ky, kx) order as a direct loop
    // (padding taps contribute exact zeros), so values match the naive
    // kernel.
    im2col(x, kh, kw, pad, oh, ow, col);
    // The [Cout, Cin, kh, kw] weight is already laid out row-major as the
    // [Cout, Cin·kh·kw] matrix the product needs — multiply through the
    // shape-only view instead of copying the weights every call.
    w.matmul_view_into(cout, cin * kh * kw, col, out);
    out.reshape_in_place(&[cout, oh, ow]);
}

/// Max pooling with a square window and equal stride over `[C, H, W]`.
/// `argmax` records the winning input index per output element for the
/// backward pass; it is always computed so the loop is backend-invariant.
///
/// # Panics
///
/// Panics if `size` does not divide H and W.
// rtt-lint: hot
pub fn maxpool2d(x: &Tensor, size: usize, out: &mut Tensor, argmax: &mut Vec<u32>) {
    let (c, h, w) = rank3(x);
    assert!(size > 0 && h % size == 0 && w % size == 0, "pool must tile the map");
    let (oh, ow) = (h / size, w / size);
    out.reset(&[c, oh, ow], f32::NEG_INFINITY);
    argmax.clear();
    // rtt-lint: allow(P001, reason = "argmax scratch warms once; clear+resize reuses capacity")
    argmax.resize(c * oh * ow, 0u32);
    // Pin the scratch length so LLVM can hoist the `argmax[oi]` bounds
    // check out of the window loop.
    assert_eq!(argmax.len(), c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let oi = ch * oh * ow + oy * ow + ox;
                for dy in 0..size {
                    for dx in 0..size {
                        let (iy, ix) = (oy * size + dy, ox * size + dx);
                        let ii = ch * h * w + iy * w + ix;
                        let v = x.data()[ii];
                        if v > out.data()[oi] {
                            out.data_mut()[oi] = v;
                            argmax[oi] = ii as u32;
                        }
                    }
                }
            }
        }
    }
}

/// Selects rows `idx` from matrix `src` into `out`, shaped exactly
/// `[idx.len(), d]`. Every row is overwritten, so the output is not
/// pre-filled. Empty `idx` produces one `[1, d]` zero row.
///
/// # Panics
///
/// Panics if an index is out of range or `src` is not a matrix.
// rtt-lint: hot
pub fn gather_rows_flat(src: &Tensor, idx: &[u32], out: &mut Tensor) {
    let d = src.cols();
    if idx.is_empty() {
        out.reset(&[1, d], 0.0);
        return;
    }
    out.reset_for_overwrite(&[idx.len(), d]);
    for (i, &r) in idx.iter().enumerate() {
        out.data_mut()[i * d..(i + 1) * d].copy_from_slice(src.row(r as usize));
    }
}

/// Copies row `src_row0 + i` of `src` to row `dst_rows[i]` of `dst` for
/// each `i`. The destination must already be shaped; rows not named in
/// `dst_rows` keep their contents. Used to write per-group GNN level
/// results into their nodes' rows of the flat embedding matrix.
///
/// # Panics
///
/// Panics if a row index is out of range or column counts differ.
// rtt-lint: hot
pub fn scatter_rows(src: &Tensor, src_row0: usize, dst_rows: &[u32], dst: &mut Tensor) {
    let d = src.cols();
    assert_eq!(dst.cols(), d, "scatter_rows column mismatch");
    for (i, &r) in dst_rows.iter().enumerate() {
        let row = src.row(src_row0 + i);
        dst.data_mut()[r as usize * d..(r as usize + 1) * d].copy_from_slice(row);
    }
}

/// Adds row `i` of `src` onto row `dst_rows[i]` of `dst` for each `i`, in
/// ascending `i`: the adjoint of [`gather_rows_flat`], so a row gathered
/// several times collects every copy's gradient.
///
/// # Panics
///
/// Panics if a row index is out of range or column counts differ.
pub fn scatter_add_rows(src: &Tensor, dst_rows: &[u32], dst: &mut Tensor) {
    let d = dst.cols();
    for (i, &r) in dst_rows.iter().enumerate() {
        let row = &mut dst.data_mut()[r as usize * d..(r as usize + 1) * d];
        for (x, g) in row.iter_mut().zip(&src.data()[i * d..(i + 1) * d]) {
            *x += g;
        }
    }
}

/// Adds every row of `src` onto `sum`, in ascending row order: the adjoint
/// of [`add_row`]'s broadcast, i.e. a bias gradient.
///
/// # Panics
///
/// Panics if `sum` is empty.
pub fn add_row_sums(src: &Tensor, sum: &mut Tensor) {
    for row in src.data().chunks(sum.len()) {
        for (s, v) in sum.data_mut().iter_mut().zip(row) {
            *s += v;
        }
    }
}

/// Zeroes the gradient `g` wherever the ReLU whose output is `out` was
/// inactive: the adjoint of [`relu_in_place`].
pub fn relu_backward(g: &mut Tensor, out: &Tensor) {
    for (g, &o) in g.data_mut().iter_mut().zip(out.data()) {
        *g = if o > 0.0 { *g } else { 0.0 };
    }
}

/// Per-segment column-wise maximum over pre-sorted rows, driven by CSR
/// offsets: segment `s` reduces rows `seg_off[s]..seg_off[s + 1]` of
/// `src`. Rows scan in ascending order with a strict-greater select
/// (first-wins ties), and empty segments produce zero rows. A column no
/// row beats (all NaN or all `-inf`) keeps the `NEG_INFINITY` sentinel
/// and is zeroed like an empty segment.
///
/// # Panics
///
/// Panics if `seg_off` is not a valid CSR offset array over `src`'s rows.
// rtt-lint: hot
pub fn segment_max_csr(src: &Tensor, seg_off: &[u32], out: &mut Tensor) {
    let n = seg_off.len().saturating_sub(1);
    let d = src.cols();
    if n == 0 {
        out.reset(&[1, d], 0.0);
        return;
    }
    assert_eq!(*seg_off.last().unwrap_or(&0) as usize, src.rows(), "CSR must cover all rows");
    out.reset_for_overwrite(&[n, d]);
    let data = src.data();
    for (s, orow) in out.data_mut().chunks_mut(d).enumerate() {
        let (lo, hi) = (seg_off[s] as usize, seg_off[s + 1] as usize);
        if lo == hi {
            orow.fill(0.0);
            continue;
        }
        orow.fill(f32::NEG_INFINITY);
        for r in lo..hi {
            let srow = &data[r * d..(r + 1) * d];
            for (o, &v) in orow.iter_mut().zip(srow) {
                if v > *o {
                    *o = v;
                }
            }
        }
        // Columns never beaten (all-NaN or all--inf input) follow the
        // empty-segment rule and become zero. The sentinel is matched by
        // bit pattern, so a real -inf produced here is also zeroed.
        for o in orow.iter_mut() {
            if o.to_bits() == f32::NEG_INFINITY.to_bits() {
                *o = 0.0;
            }
        }
    }
}

/// Per-segment column-wise sum over pre-sorted rows, driven by CSR
/// offsets: each output row starts from `0.0` and accumulates its rows
/// in ascending order (empty segments stay zero).
///
/// # Panics
///
/// Panics if `seg_off` is not a valid CSR offset array over `src`'s rows.
// rtt-lint: hot
pub fn segment_sum_csr(src: &Tensor, seg_off: &[u32], out: &mut Tensor) {
    let n = seg_off.len().saturating_sub(1);
    let d = src.cols();
    if n == 0 {
        out.reset(&[1, d], 0.0);
        return;
    }
    assert_eq!(*seg_off.last().unwrap_or(&0) as usize, src.rows(), "CSR must cover all rows");
    out.reset_for_overwrite(&[n, d]);
    let data = src.data();
    for (s, orow) in out.data_mut().chunks_mut(d).enumerate() {
        orow.fill(0.0);
        for r in seg_off[s] as usize..seg_off[s + 1] as usize {
            let srow = &data[r * d..(r + 1) * d];
            for (o, &v) in orow.iter_mut().zip(srow) {
                *o += v;
            }
        }
    }
}

/// In-place rectified linear unit.
// rtt-lint: hot
pub fn relu_in_place(x: &mut Tensor) {
    for v in x.data_mut() {
        *v = v.max(0.0);
    }
}

/// Hyperbolic tangent written into `out`; the source stays intact, so a
/// residual block can add it back afterwards.
// rtt-lint: hot
pub fn tanh_to(src: &Tensor, out: &mut Tensor) {
    out.reset_for_overwrite(src.shape());
    for (o, &v) in out.data_mut().iter_mut().zip(src.data()) {
        *o = v.tanh();
    }
}

/// In-place bias add: `row` is added to every row of `x`.
///
/// # Panics
///
/// Panics if `row.len() != x.cols()`.
// rtt-lint: hot
pub fn add_row_in_place(x: &mut Tensor, row: &[f32]) {
    assert_eq!(x.cols(), row.len(), "bias width mismatch");
    let n = row.len();
    for xr in x.data_mut().chunks_mut(n) {
        for (v, &b) in xr.iter_mut().zip(row) {
            *v += b;
        }
    }
}

/// In-place per-channel bias add on a `[C, H, W]` map.
///
/// # Panics
///
/// Panics if `bias.len() != C`.
// rtt-lint: hot
pub fn add_channel_in_place(x: &mut Tensor, bias: &[f32]) {
    let (c, h, w) = rank3(x);
    assert_eq!(bias.len(), c, "one bias per channel");
    for (plane, &b) in x.data_mut().chunks_mut(h * w).zip(bias) {
        for p in plane {
            *p += b;
        }
    }
}

/// In-place broadcast Hadamard: every row of `x` is multiplied by `row`.
///
/// # Panics
///
/// Panics if `row.len() != x.cols()`.
// rtt-lint: hot
pub fn mul_row_in_place(x: &mut Tensor, row: &[f32]) {
    assert_eq!(x.cols(), row.len(), "row width mismatch");
    let n = row.len();
    for xr in x.data_mut().chunks_mut(n) {
        for (v, &m) in xr.iter_mut().zip(row) {
            *v *= m;
        }
    }
}

/// The masked layout embedding (the paper's Eq. 6 and the fully
/// connected layer after it) without densifying a mask: row `i` of `out`
/// is the sum of `gmap[b]·w[b, :]` over the bins `b` of the runs
/// `runs_of(i)`, taken from +0 in ascending bin order, plus `bias`. A run
/// is `[start bin, length]`, runs ascending. `rows == 0` yields one row of
/// `bias`, as the dense path's one empty mask row does.
///
/// Bit-identical to densifying the masks into 0/1 rows, multiplying them
/// by `gmap` ([`mul_row`]) and running the layer ([`matmul`], then
/// [`add_row`]): the matmul sums every bin from +0 in ascending order, a
/// masked bin's term is `(1·gmap[b])·w[b, j]`, the same product, and an
/// unmasked bin's is `(0·gmap[b])·w[b, j] = ±0`. Adding ±0 leaves a sum
/// that started at +0 unchanged, since such a sum is never −0. That needs
/// finite values, which the sanitizer checks. The work is the masked bins
/// times the width, not every bin.
///
/// # Panics
///
/// Panics if a run leaves `w`'s rows, `gmap` has fewer bins than `w` has
/// rows, or `bias.len()` is not `w`'s width.
// rtt-lint: hot
pub fn masked_readout<'r>(
    w: &Tensor,
    gmap: &[f32],
    bias: &[f32],
    rows: usize,
    runs_of: impl Fn(usize) -> &'r [[u32; 2]],
    out: &mut Tensor,
) {
    let d = w.cols();
    assert_eq!(bias.len(), d, "bias width mismatch");
    out.reset(&[rows.max(1), d], 0.0);
    let data = w.data();
    for (i, orow) in out.data_mut().chunks_mut(d).enumerate() {
        if i < rows {
            for &[start, len] in runs_of(i) {
                let span = start as usize..(start + len) as usize;
                let run = &data[span.start * d..span.end * d];
                for (wrow, &m) in run.chunks_exact(d).zip(&gmap[span]) {
                    for (o, &wv) in orow.iter_mut().zip(wrow) {
                        *o += m * wv;
                    }
                }
            }
        }
        for (o, &b) in orow.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// The adjoint of [`masked_readout`] with respect to `gmap` and the weight
/// `w` (the bias's is [`add_row_sums`]) at output gradient `g`. It visits
/// rows in ascending order and, for each bin `b` of row `i`'s runs, adds
/// `gmap[b]·g[i, :]` into row `b` of `g_w` and `⟨g[i, :], w[b, :]⟩`, summed
/// from +0 in ascending column order, into `g_gmap[b]`.
///
/// Bit-identical to the dense path's backward (densified masks, [`mul_row`],
/// [`matmul`], [`add_row`]) when `g_w` and `g_gmap` start at zero: its
/// matmul adjoint sums `w`'s gradient over rows in ascending order, and the
/// `mul_row` adjoint sums the gradient of each bin over rows in ascending
/// order, with each `(i, b)` term being the same product or dot product;
/// an unmasked `(i, b)` adds ±0 there, as in [`masked_readout`].
///
/// # Panics
///
/// Panics on a shape mismatch or a run outside `w`'s rows.
pub fn masked_readout_backward<'r>(
    gmap: &[f32],
    w: &Tensor,
    g: &Tensor,
    rows: usize,
    runs_of: impl Fn(usize) -> &'r [[u32; 2]],
    g_gmap: &mut [f32],
    g_w: &mut Tensor,
) {
    let (bins, d) = (w.rows(), w.cols());
    assert!(gmap.len() == bins && g_gmap.len() == bins, "one map bin per weight row");
    assert!(g_w.shape() == w.shape() && g.cols() == d, "gradient shape mismatch");
    for i in 0..rows {
        let gi = g.row(i);
        for &[start, len] in runs_of(i) {
            let span = start as usize..(start + len) as usize;
            let g_rows = &mut g_w.data_mut()[span.start * d..span.end * d];
            for (gw, &m) in g_rows.chunks_exact_mut(d).zip(&gmap[span.clone()]) {
                for (x, &gv) in gw.iter_mut().zip(gi) {
                    *x += m * gv;
                }
            }
            let w_rows = &w.data()[span.start * d..span.end * d];
            for (x, wrow) in g_gmap[span].iter_mut().zip(w_rows.chunks_exact(d)) {
                let mut dot = 0.0f32;
                for (&gv, &wv) in gi.iter().zip(wrow) {
                    dot += gv * wv;
                }
                *x += dot;
            }
        }
    }
}

/// Adds `x.rows()` consecutive rows of `src` (starting at `src_row0`)
/// onto `x`, row by row: `x[i] += src[src_row0 + i]`. Used to add a slice
/// of a precomputed static-MLP product without materializing it.
///
/// # Panics
///
/// Panics if the row range is out of bounds or columns differ.
// rtt-lint: hot
pub fn add_rows_range(x: &mut Tensor, src: &Tensor, src_row0: usize) {
    let d = x.cols();
    assert_eq!(src.cols(), d, "add_rows_range column mismatch");
    let rows = x.rows();
    let s = &src.data()[src_row0 * d..(src_row0 + rows) * d];
    for (v, &a) in x.data_mut().iter_mut().zip(s) {
        *v += a;
    }
}

/// In-place row scaling: row `r` of `x` is multiplied by `factors[r]`.
///
/// # Panics
///
/// Panics if `factors.len() != x.rows()`.
// rtt-lint: hot
pub fn scale_rows_in_place(x: &mut Tensor, factors: &[f32]) {
    assert_eq!(factors.len(), x.rows());
    let d = x.cols();
    for (xr, &f) in x.data_mut().chunks_mut(d).zip(factors) {
        for v in xr {
            *v *= f;
        }
    }
}

/// Asserts rank 3 and returns `(C, H, W)`.
pub(crate) fn rank3(t: &Tensor) -> (usize, usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 3, "expected [C,H,W], got {s:?}");
    (s[0], s[1], s[2])
}

/// Unfolds a padded `[C_in, H, W]` map into the im2col matrix
/// `[C_in·kh·kw, oh·ow]`: column `oy·ow + ox` holds the receptive field of
/// output pixel `(oy, ox)`. Out-of-bounds (padding) taps stay zero.
pub(crate) fn im2col(
    x: &Tensor,
    kh: usize,
    kw: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    col: &mut Tensor,
) {
    let (cin, h, wd) = rank3(x);
    col.reset(&[cin * kh * kw, oh * ow], 0.0);
    for (row, crow) in col.data_mut().chunks_mut(oh * ow).enumerate() {
        let ci = row / (kh * kw);
        let ky = (row / kw) % kh;
        let kx = row % kw;
        for oy in 0..oh {
            let iy = (oy + ky) as isize - pad as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            // Valid ox range: 0 <= ox + kx - pad < wd.
            let lo = pad.saturating_sub(kx);
            let hi = (wd + pad - kx).min(ow);
            if lo >= hi {
                continue;
            }
            let ix0 = lo + kx - pad;
            let src = &x.data()[ci * h * wd + iy as usize * wd + ix0..];
            crow[oy * ow + lo..oy * ow + hi].copy_from_slice(&src[..hi - lo]);
        }
    }
}

/// Folds the im2col gradient `[C_in·kh·kw, oh·ow]` back onto the input map
/// (the adjoint of [`im2col`]): overlapping receptive fields accumulate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im(
    gcol: &Tensor,
    cin: usize,
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    gx: &mut Tensor,
) {
    let (oh, ow) = (h + 2 * pad + 1 - kh, wd + 2 * pad + 1 - kw);
    for row in 0..cin * kh * kw {
        let ci = row / (kh * kw);
        let ky = (row / kw) % kh;
        let kx = row % kw;
        let crow = &gcol.data()[row * oh * ow..(row + 1) * oh * ow];
        for oy in 0..oh {
            let iy = (oy + ky) as isize - pad as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            let lo = pad.saturating_sub(kx);
            let hi = (wd + pad - kx).min(ow);
            if lo >= hi {
                continue;
            }
            let ix0 = lo + kx - pad;
            let dst = &mut gx.data_mut()[ci * h * wd + iy as usize * wd + ix0..][..hi - lo];
            for (d, g) in dst.iter_mut().zip(&crow[oy * ow + lo..oy * ow + hi]) {
                *d += g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_buffers_are_recycled_without_changing_results() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Tensor::default();
        matmul(&a, &b, &mut out);
        assert_eq!(out.data(), &[19.0, 22.0, 43.0, 50.0]);
        // Re-run with a dirty, differently-shaped buffer: same result.
        let mut dirty = Tensor::full(&[7, 3], 9.0);
        matmul(&a, &b, &mut dirty);
        assert_eq!(dirty.data(), &[19.0, 22.0, 43.0, 50.0]);
        assert_eq!(dirty.shape(), &[2, 2]);
    }

    #[test]
    fn csr_segment_kernels() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[5.0, 0.0], &[3.0, 4.0]]);
        let mut out = Tensor::default();
        // Segments: rows 0..2, the empty run 2..2, then row 2.
        let off = [0, 2, 2, 3];
        segment_max_csr(&x, &off, &mut out);
        assert_eq!(out.data(), &[5.0, 2.0, 0.0, 0.0, 3.0, 4.0]);
        segment_sum_csr(&x, &off, &mut out);
        scale_rows_in_place(&mut out, &[0.5, 1.0, 2.0]);
        assert_eq!(out.data(), &[3.0, 1.0, 0.0, 0.0, 6.0, 8.0]);
    }

    #[test]
    fn maxpool_with_dirty_scratch() {
        let x = Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 9.0, 2.0]);
        let mut out = Tensor::default();
        let mut arg = vec![7u32; 99];
        maxpool2d(&x, 2, &mut out, &mut arg);
        assert_eq!(out.data(), &[5.0, 9.0]);
        assert_eq!(arg, vec![1, 6]);
    }
}
