//! A dense 2-D scalar grid over the die.
//!
//! Used for placement density, and reused by the feature crate for the
//! paper's three layout maps (cell density, RUDY, macro region) and by the
//! model for the pooled layout information map `M^L`.

use crate::Rect;

/// A row-major `w × h` grid of `f32` values mapped onto a die rectangle.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid {
    w: usize,
    h: usize,
    die: Rect,
    data: Vec<f32>,
}

impl Grid {
    /// Creates a zero-filled grid of `w × h` bins covering `die`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`, `h == 0`, or the die is degenerate.
    pub fn new(w: usize, h: usize, die: Rect) -> Self {
        assert!(w > 0 && h > 0, "grid must have at least one bin");
        assert!(die.width() > 0.0 && die.height() > 0.0, "degenerate die");
        Self { w, h, die, data: vec![0.0; w * h] }
    }

    /// Grid width in bins.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Grid height in bins.
    pub fn height(&self) -> usize {
        self.h
    }

    /// The die rectangle this grid covers.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Raw values, row-major (`y * width + x`).
    pub fn values(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw values.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at bin `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn at(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.w && y < self.h, "bin ({x},{y}) out of range");
        self.data[y * self.w + x]
    }

    /// Sets the value at bin `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        assert!(x < self.w && y < self.h, "bin ({x},{y}) out of range");
        self.data[y * self.w + x] = v;
    }

    /// Bin size in µm (width, height).
    pub fn bin_size(&self) -> (f32, f32) {
        (self.die.width() / self.w as f32, self.die.height() / self.h as f32)
    }

    /// Bin containing point `(px, py)`, clamped to the grid.
    pub fn bin_of(&self, px: f32, py: f32) -> (usize, usize) {
        let (bw, bh) = self.bin_size();
        let x = (((px - self.die.x0) / bw).floor() as isize).clamp(0, self.w as isize - 1);
        let y = (((py - self.die.y0) / bh).floor() as isize).clamp(0, self.h as isize - 1);
        (x as usize, y as usize)
    }

    /// The die-space rectangle of bin `(x, y)`.
    pub fn bin_rect(&self, x: usize, y: usize) -> Rect {
        let (x0, x1) = self.col_span(x);
        let (y0, y1) = self.row_span(y);
        Rect::new(x0, y0, x1, y1)
    }

    /// Die-space x-extent of column `x`: the x-range of [`Self::bin_rect`].
    fn col_span(&self, x: usize) -> (f32, f32) {
        let bw = self.bin_size().0;
        (self.die.x0 + bw * x as f32, self.die.x0 + bw * (x + 1) as f32)
    }

    /// Die-space y-extent of row `y`: the y-range of [`Self::bin_rect`].
    fn row_span(&self, y: usize) -> (f32, f32) {
        let bh = self.bin_size().1;
        (self.die.y0 + bh * y as f32, self.die.y0 + bh * (y + 1) as f32)
    }

    /// Adds `v` to every bin overlapping `r`, weighted by the overlap
    /// fraction of the bin (standard area-smearing used for density and
    /// RUDY maps).
    ///
    /// A bin's overlap is the product of its column's x-overlap and its
    /// row's y-overlap, so each column's x-overlap is computed once per
    /// rect and each row's y-overlap once per row, from the same edges
    /// [`Self::bin_rect`] yields.
    pub fn splat(&mut self, r: Rect, v: f32) {
        if r.area() <= 0.0 {
            // Degenerate rect (e.g. a zero-length net): deposit into one bin.
            let (x, y) = self.bin_of(r.x0, r.y0);
            self.data[y * self.w + x] += v;
            return;
        }
        let (x0, y0) = self.bin_of(r.x0, r.y0);
        let (x1, y1) = self.bin_of(r.x1, r.y1);
        let area = r.area();
        let ox: Vec<f32> = (x0..=x1)
            .map(|bx| {
                let (b0, b1) = self.col_span(bx);
                (r.x1.min(b1) - r.x0.max(b0)).max(0.0)
            })
            .collect();
        for by in y0..=y1 {
            let (b0, b1) = self.row_span(by);
            let oy = (r.y1.min(b1) - r.y0.max(b0)).max(0.0);
            let row = &mut self.data[by * self.w + x0..=by * self.w + x1];
            for (bin, &ox) in row.iter_mut().zip(&ox) {
                *bin += v * ((ox * oy) / area);
            }
        }
    }

    /// Sum of all bin values.
    pub fn total(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum bin value.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Divides every bin by the bin area (turn mass into density).
    pub fn normalize_by_bin_area(&mut self) {
        let (bw, bh) = self.bin_size();
        let a = bw * bh;
        for v in &mut self.data {
            *v /= a;
        }
    }

    /// Scales all values so the maximum becomes 1 (no-op on an all-zero
    /// grid).
    pub fn normalize_max(&mut self) {
        let m = self.max();
        if m > 0.0 {
            for v in &mut self.data {
                *v /= m;
            }
        }
    }

    /// Average-pools the grid by an integer `factor` in both dimensions,
    /// producing a `(w/factor) × (h/factor)` grid.
    ///
    /// # Panics
    ///
    /// Panics if `factor` does not divide both dimensions.
    #[must_use]
    pub fn avg_pool(&self, factor: usize) -> Grid {
        assert!(factor > 0 && self.w.is_multiple_of(factor) && self.h.is_multiple_of(factor));
        let (nw, nh) = (self.w / factor, self.h / factor);
        let mut out = Grid::new(nw, nh, self.die);
        let inv = 1.0 / (factor * factor) as f32;
        for y in 0..nh {
            for x in 0..nw {
                let mut s = 0.0;
                for dy in 0..factor {
                    for dx in 0..factor {
                        s += self.at(x * factor + dx, y * factor + dy);
                    }
                }
                out.set(x, y, s * inv);
            }
        }
        out
    }

    /// Renders the grid as a binary PGM image (max-normalized), for the
    /// Fig. 5 reproduction.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.w, self.h).into_bytes();
        let m = self.max().max(f32::MIN_POSITIVE);
        // PGM rows go top-down; our y axis goes bottom-up.
        for y in (0..self.h).rev() {
            for x in 0..self.w {
                let v = (self.at(x, y) / m * 255.0).clamp(0.0, 255.0) as u8;
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn die() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn bin_mapping_is_clamped() {
        let g = Grid::new(10, 10, die());
        assert_eq!(g.bin_of(0.0, 0.0), (0, 0));
        assert_eq!(g.bin_of(99.9, 99.9), (9, 9));
        assert_eq!(g.bin_of(150.0, -5.0), (9, 0));
        assert_eq!(g.bin_size(), (10.0, 10.0));
    }

    #[test]
    fn splat_conserves_mass() {
        let mut g = Grid::new(10, 10, die());
        g.splat(Rect::new(5.0, 5.0, 35.0, 25.0), 3.0);
        assert!((g.total() - 3.0).abs() < 1e-4);
    }

    #[test]
    fn splat_point_mass() {
        let mut g = Grid::new(10, 10, die());
        g.splat(Rect::new(42.0, 57.0, 42.0, 57.0), 2.0);
        assert_eq!(g.at(4, 5), 2.0);
        assert!((g.total() - 2.0).abs() < 1e-6);
    }

    /// Reference splat: builds `bin_rect` and both overlaps for every bin
    /// the rect touches.
    fn splat_per_bin(g: &mut Grid, r: Rect, v: f32) {
        if r.area() <= 0.0 {
            let (x, y) = g.bin_of(r.x0, r.y0);
            g.set(x, y, g.at(x, y) + v);
            return;
        }
        let (x0, y0) = g.bin_of(r.x0, r.y0);
        let (x1, y1) = g.bin_of(r.x1, r.y1);
        for by in y0..=y1 {
            for bx in x0..=x1 {
                let b = g.bin_rect(bx, by);
                let ox = (r.x1.min(b.x1) - r.x0.max(b.x0)).max(0.0);
                let oy = (r.y1.min(b.y1) - r.y0.max(b.y0)).max(0.0);
                let frac = (ox * oy) / r.area();
                g.set(bx, by, g.at(bx, by) + v * frac);
            }
        }
    }

    #[test]
    fn splat_matches_the_per_bin_reference_bitwise() {
        // Non-square bins over an offset die, so swapping rows and
        // columns changes both the bin edges and the bins touched.
        let die = Rect::new(-13.5, 20.25, 86.0, 61.0);
        let mut fast = Grid::new(7, 5, die);
        let mut slow = fast.clone();
        let (c2, c4) = (fast.bin_rect(2, 1), fast.bin_rect(4, 3));
        let rects = [
            ("zero area", Rect::new(10.0, 30.0, 10.0, 55.0)),
            ("one column wide", Rect::new(c2.x0 + 1.0, 21.0, c2.x1 - 2.5, 58.5)),
            ("edges on bin boundaries", Rect::new(c2.x0, c2.y0, c4.x1, c4.y1)),
            ("partly outside the die", Rect::new(-40.0, 5.0, 20.0, 33.3)),
            ("spanning the whole die", Rect::new(-20.0, 10.0, 95.0, 70.0)),
        ];
        for (what, r) in rects {
            let (mut one_fast, mut one_slow) = (Grid::new(7, 5, die), Grid::new(7, 5, die));
            one_fast.splat(r, 2.75);
            splat_per_bin(&mut one_slow, r, 2.75);
            fast.splat(r, 2.75);
            splat_per_bin(&mut slow, r, 2.75);
            for (a, b) in [(&one_fast, &one_slow), (&fast, &slow)] {
                let bits = |g: &Grid| g.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{what}: splat diverged from the per-bin reference");
            }
            assert!(one_slow.total() > 0.0, "{what}: the reference deposited nothing");
        }
    }

    #[test]
    fn avg_pool_preserves_mean() {
        let mut g = Grid::new(8, 8, die());
        for y in 0..8 {
            for x in 0..8 {
                g.set(x, y, (x + y) as f32);
            }
        }
        let p = g.avg_pool(4);
        assert_eq!(p.width(), 2);
        assert_eq!(p.height(), 2);
        let mean_g = g.total() / 64.0;
        let mean_p = p.total() / 4.0;
        assert!((mean_g - mean_p).abs() < 1e-5);
    }

    #[test]
    fn normalize_max_caps_at_one() {
        let mut g = Grid::new(4, 4, die());
        g.set(1, 2, 8.0);
        g.set(3, 3, 2.0);
        g.normalize_max();
        assert_eq!(g.at(1, 2), 1.0);
        assert_eq!(g.at(3, 3), 0.25);
    }

    #[test]
    fn pgm_header_and_size() {
        let g = Grid::new(4, 3, die());
        let pgm = g.to_pgm();
        assert!(pgm.starts_with(b"P5\n4 3\n255\n"));
        assert_eq!(pgm.len(), b"P5\n4 3\n255\n".len() + 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn at_out_of_range_panics() {
        let g = Grid::new(4, 4, die());
        let _ = g.at(4, 0);
    }

    proptest! {
        #[test]
        fn splat_mass_conservation_holds_for_any_rect(
            ax in 0.0f32..100.0, ay in 0.0f32..100.0,
            bx in 0.0f32..100.0, by in 0.0f32..100.0,
            v in 0.1f32..10.0,
        ) {
            let mut g = Grid::new(16, 16, die());
            g.splat(Rect::new(ax, ay, bx, by), v);
            prop_assert!((g.total() - v).abs() < v * 1e-3 + 1e-4);
        }

        #[test]
        fn bin_rect_contains_its_points(x in 0usize..10, y in 0usize..10) {
            let g = Grid::new(10, 10, die());
            let r = g.bin_rect(x, y);
            let c = r.center();
            prop_assert_eq!(g.bin_of(c.x, c.y), (x, y));
        }
    }
}
