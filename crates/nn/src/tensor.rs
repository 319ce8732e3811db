//! Dense row-major float tensors.

use rand::Rng;

/// Rows of the left operand processed per block; sized so a block of
/// output rows stays cache-resident while a `K_BLOCK`-row panel of the
/// right operand streams through.
const MM_ROW_BLOCK: usize = 8;
/// Depth (`k`) tile width for the blocked kernel.
const MM_K_BLOCK: usize = 128;

/// Blocked matmul: `a` is the left operand (`m × k`), `b` the right
/// operand (`k × n`), `out` the output (`m × n`, zeroed). Every output
/// element accumulates its `k` products in ascending-`k` order — the same
/// order as the textbook triple loop — so the blocking leaves results
/// bit-identical to it.
fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let m = out.len() / n;
    for i0 in (0..m).step_by(MM_ROW_BLOCK) {
        let i1 = (i0 + MM_ROW_BLOCK).min(m);
        for k0 in (0..k).step_by(MM_K_BLOCK) {
            let k1 = (k0 + MM_K_BLOCK).min(k);
            for i in i0..i1 {
                let a_row = &a[i * k + k0..i * k + k1];
                let o_row = &mut out[i * n..(i + 1) * n];
                // Unroll 4 depth steps per sweep of the output row: one
                // load/store of each output lane covers four products. The
                // adds into `acc` are issued strictly in ascending-`k`
                // order (four separate statements, never a re-associated
                // sum), so results stay bit-identical to the rolled loop.
                let mut p = 0;
                while p + 4 <= a_row.len() {
                    let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
                    let b0 = &b[(k0 + p) * n..(k0 + p + 1) * n];
                    let b1 = &b[(k0 + p + 1) * n..(k0 + p + 2) * n];
                    let b2 = &b[(k0 + p + 2) * n..(k0 + p + 3) * n];
                    let b3 = &b[(k0 + p + 3) * n..(k0 + p + 4) * n];
                    for j in 0..n {
                        let mut acc = o_row[j];
                        acc += a0 * b0[j];
                        acc += a1 * b1[j];
                        acc += a2 * b2[j];
                        acc += a3 * b3[j];
                        o_row[j] = acc;
                    }
                    p += 4;
                }
                while p < a_row.len() {
                    let av = a_row[p];
                    let b_row = &b[(k0 + p) * n..(k0 + p + 1) * n];
                    for (o, &bv) in o_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                    p += 1;
                }
            }
        }
    }
}

/// A dense tensor of `f32` values with a row-major layout.
///
/// Rank is arbitrary, but the ops in this crate use rank 1 (vectors), rank 2
/// (matrices, `[rows, cols]`), and rank 3 (feature maps, `[channels, h, w]`).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(shape.iter().all(|&d| d > 0), "zero-sized dimension in {shape:?}");
        Self { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// Creates a tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let mut t = Self::zeros(shape);
        t.data.fill(v);
        t
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not hold {} elements",
            data.len()
        );
        Self { shape: shape.to_vec(), data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self { shape: vec![rows.len(), cols], data }
    }

    /// Xavier/Glorot-uniform initialization for a `[fan_in, fan_out]` weight.
    pub fn xavier<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Self {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let data = (0..fan_in * fan_out).map(|_| rng.gen_range(-bound..bound)).collect();
        Self { shape: vec![fan_in, fan_out], data }
    }

    /// Uniform random tensor in `[-bound, bound]`.
    pub fn uniform<R: Rng>(rng: &mut R, shape: &[usize], bound: f32) -> Self {
        let mut t = Self::zeros(shape);
        for v in &mut t.data {
            *v = rng.gen_range(-bound..bound);
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no data (default-constructed).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows (first dimension).
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns (second dimension of a matrix).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() needs a matrix");
        self.shape[1]
    }

    /// Borrows matrix row `r`.
    ///
    /// # Panics
    ///
    /// Panics if not a matrix or `r` out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Matrix element accessor.
    ///
    /// # Panics
    ///
    /// Panics if not a matrix or out of range.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols();
        assert!(r < self.rows() && c < cols);
        self.data[r * cols + c]
    }

    /// Reshapes in place (same number of elements, no data movement).
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "shape {shape:?} does not hold {} elements",
            self.data.len()
        );
        self.shape.clear();
        // rtt-lint: allow(P001, reason = "rank<=4 shape vec reuses capacity after the first call")
        self.shape.extend_from_slice(shape);
    }

    /// Reshapes in place to `shape` and fills every element with `v`,
    /// reusing the existing allocation when capacity allows. Equivalent to
    /// replacing `self` with [`Tensor::full`] but without reallocating —
    /// the primitive behind the inference arena's buffer recycling.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn reset(&mut self, shape: &[usize], v: f32) {
        assert!(shape.iter().all(|&d| d > 0), "zero-sized dimension in {shape:?}");
        self.shape.clear();
        // rtt-lint: allow(P001, reason = "clear+extend/resize reuse capacity; growth is the arena warm-up, tallied on nn::infer_arena_bytes")
        self.shape.extend_from_slice(shape);
        self.data.clear();
        // rtt-lint: allow(P001, reason = "clear+resize reuses capacity; growth is the arena warm-up, tallied on nn::infer_arena_bytes")
        self.data.resize(self.shape.iter().product(), v);
    }

    /// Reshapes to `shape` without initializing elements when the volume
    /// already matches (the allocation and its contents are reused as-is).
    /// For kernels that overwrite every element before reading any — the
    /// flat gather/scatter/segment path — this skips [`Tensor::reset`]'s
    /// fill pass. When the volume changes, falls back to a zero fill so
    /// the buffer never exposes stale data at a new size.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized dimension.
    pub fn reset_for_overwrite(&mut self, shape: &[usize]) {
        assert!(shape.iter().all(|&d| d > 0), "zero-sized dimension in {shape:?}");
        let vol = shape.iter().product::<usize>();
        self.shape.clear();
        // rtt-lint: allow(P001, reason = "clear+extend/resize reuse capacity; growth is the arena warm-up, tallied on nn::infer_arena_bytes")
        self.shape.extend_from_slice(shape);
        if self.data.len() != vol {
            self.data.clear();
            // rtt-lint: allow(P001, reason = "clear+resize reuses capacity; growth is the arena warm-up, tallied on nn::infer_arena_bytes")
            self.data.resize(vol, 0.0);
        }
    }

    /// Resizes a matrix to `rows` rows in place: rows below both the old
    /// and the new count keep their contents, and added rows are zero.
    /// The allocation is kept unless it must grow.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn resize_rows(&mut self, rows: usize) {
        let cols = self.cols();
        self.data.resize(rows * cols, 0.0);
        self.shape[0] = rows;
    }

    /// Makes `self` an exact copy of `src`, reusing the existing
    /// allocation when capacity allows.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Number of elements the backing allocation can hold without growing.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Views a recycled buffer as a flat `[n]` tensor of its first `n`
    /// stale elements, `n = min(len, self.len())`, keeping the whole
    /// allocation. A kernel that resets it to a volume of `len` without
    /// filling then sees stale data, not zeros.
    pub(crate) fn recycle(&mut self, len: usize) {
        self.data.truncate(len);
        self.shape.clear();
        self.shape.push(self.data.len());
    }

    /// Matrix product `self · other` for rank-2 tensors.
    ///
    /// Uses a serial cache-blocked kernel; each output element accumulates
    /// in ascending-`k` order.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-provided output tensor,
    /// which is resized in place (reusing its allocation) — the hot path
    /// of the tape-free inference engine. Bit-identical to `matmul`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions mismatch.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.matmul_view_into(self.rows(), self.cols(), other, out);
    }

    /// [`Tensor::matmul_into`] with `self` reinterpreted as an `[m, k]`
    /// matrix without copying — the shape-only view conv2d needs for its
    /// im2col product, where the `[Cout, Cin, kh, kw]` weight is already
    /// laid out as `[Cout, Cin·kh·kw]` row-major. Bit-identical to
    /// reshaping first (same kernel, same accumulation order).
    ///
    /// # Panics
    ///
    /// Panics if `m·k` differs from the element count or inner dimensions
    /// mismatch.
    pub fn matmul_view_into(&self, m: usize, k: usize, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            m * k,
            self.data.len(),
            "view [{m}, {k}] does not hold {} elements",
            self.data.len()
        );
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul {m}x{k} by {k2}x{n}");
        static MATMUL_CALLS: rtt_obs::Counter = rtt_obs::Counter::new("nn::matmul_calls");
        static MATMUL_FLOPS: rtt_obs::Counter = rtt_obs::Counter::new("nn::matmul_flops");
        MATMUL_CALLS.add(1);
        MATMUL_FLOPS.add(2 * (m * k * n) as u64);
        out.reset(&[m, n], 0.0);
        matmul_rows(&self.data, &other.data, &mut out.data, k, n);
    }

    /// Transposed copy of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    #[must_use]
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transpose_view_into(self.rows(), self.cols(), &mut out);
        out
    }

    /// [`Tensor::transposed`] of `self` read as an `[m, n]` matrix, written
    /// into `out` (every element is overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `m·n` differs from the element count.
    pub(crate) fn transpose_view_into(&self, m: usize, n: usize, out: &mut Tensor) {
        assert_eq!(m * n, self.data.len(), "view [{m}, {n}] does not hold {} elements", self.len());
        out.reset_for_overwrite(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
    }

    /// In-place `self += other` (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius / L2 norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.at(1, 0), 3.0);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.sum(), 10.0);
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transposed();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = Tensor::xavier(&mut rng, 8, 8);
        let bound = (6.0 / 16.0f32).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_checks_volume() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_checks_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    proptest! {
        #[test]
        fn matmul_identity(n in 1usize..6, seed in 0u64..100) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Tensor::uniform(&mut rng, &[n, n], 1.0);
            let mut eye = Tensor::zeros(&[n, n]);
            for i in 0..n { eye.data_mut()[i * n + i] = 1.0; }
            let prod = a.matmul(&eye);
            for (x, y) in prod.data().iter().zip(a.data()) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }

        #[test]
        fn transpose_swaps_matmul(
            m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..50
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Tensor::uniform(&mut rng, &[m, k], 1.0);
            let b = Tensor::uniform(&mut rng, &[k, n], 1.0);
            let left = a.matmul(&b).transposed();
            let right = b.transposed().matmul(&a.transposed());
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
