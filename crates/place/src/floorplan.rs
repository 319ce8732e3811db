//! Die geometry primitives.

/// A point in micrometres.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    /// X coordinate in µm.
    pub x: f32,
    /// Y coordinate in µm.
    pub y: f32,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to `other` — the paper's *net distance* feature.
    pub fn manhattan(self, other: Point) -> f32 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// An axis-aligned rectangle in micrometres, `x0 <= x1`, `y0 <= y1`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Rect {
    /// Left edge.
    pub x0: f32,
    /// Bottom edge.
    pub y0: f32,
    /// Right edge.
    pub x1: f32,
    /// Top edge.
    pub y1: f32,
}

impl Rect {
    /// Creates a rectangle from two corners, normalizing the order.
    pub fn new(ax: f32, ay: f32, bx: f32, by: f32) -> Self {
        Self { x0: ax.min(bx), y0: ay.min(by), x1: ax.max(bx), y1: ay.max(by) }
    }

    /// Bounding box of two points — the paper's net-edge bounding box
    /// (Equation 4).
    pub fn bounding(a: Point, b: Point) -> Self {
        Self::new(a.x, a.y, b.x, b.y)
    }

    /// Rectangle width.
    pub fn width(&self) -> f32 {
        self.x1 - self.x0
    }

    /// Rectangle height.
    pub fn height(&self) -> f32 {
        self.y1 - self.y0
    }

    /// Rectangle area.
    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) * 0.5, (self.y0 + self.y1) * 0.5)
    }

    /// `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x0 && p.x <= self.x1 && p.y >= self.y0 && p.y <= self.y1
    }

    /// `true` if the two rectangles share interior area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// Clamps `p` into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.x0, self.x1), p.y.clamp(self.y0, self.y1))
    }

    /// Grows the rectangle by `m` on every side.
    #[must_use]
    pub fn inflate(&self, m: f32) -> Rect {
        Rect::new(self.x0 - m, self.y0 - m, self.x1 + m, self.y1 + m)
    }
}

/// The die outline and the macro blocks carved out of it.
#[derive(Clone, Debug, Default)]
pub struct Floorplan {
    /// Die outline (origin at (0, 0)).
    pub die: Rect,
    /// Macro blocks (placement and routing obstacles; the paper's *macro
    /// cells region* feature).
    pub macros: Vec<Rect>,
}

impl Floorplan {
    /// `true` if `p` is inside the die and outside every macro.
    pub fn is_placeable(&self, p: Point) -> bool {
        self.die.contains(p) && !self.macros.iter().any(|m| m.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn manhattan_distance() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, -2.0);
        assert_eq!(a.manhattan(b), 7.0);
        assert_eq!(b.manhattan(a), 7.0);
        assert_eq!(a.manhattan(a), 0.0);
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(5.0, 6.0, 1.0, 2.0);
        assert_eq!(r, Rect { x0: 1.0, y0: 2.0, x1: 5.0, y1: 6.0 });
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 16.0);
    }

    #[test]
    fn containment_and_overlap() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
        assert!(r.overlaps(&Rect::new(9.0, 9.0, 12.0, 12.0)));
        assert!(!r.overlaps(&Rect::new(10.0, 0.0, 12.0, 12.0))); // edge-touch
    }

    #[test]
    fn floorplan_placeability() {
        let fp = Floorplan {
            die: Rect::new(0.0, 0.0, 100.0, 100.0),
            macros: vec![Rect::new(0.0, 0.0, 30.0, 30.0)],
        };
        assert!(!fp.is_placeable(Point::new(10.0, 10.0)));
        assert!(fp.is_placeable(Point::new(50.0, 50.0)));
        assert!(!fp.is_placeable(Point::new(150.0, 50.0)));
    }

    proptest! {
        #[test]
        fn bounding_box_contains_both_points(
            ax in -100.0f32..100.0, ay in -100.0f32..100.0,
            bx in -100.0f32..100.0, by in -100.0f32..100.0,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let r = Rect::bounding(a, b);
            prop_assert!(r.contains(a));
            prop_assert!(r.contains(b));
            prop_assert!(r.area() >= 0.0);
        }

        #[test]
        fn clamp_lands_inside(
            px in -200.0f32..200.0, py in -200.0f32..200.0,
        ) {
            let r = Rect::new(0.0, 0.0, 50.0, 80.0);
            let c = r.clamp(Point::new(px, py));
            prop_assert!(r.contains(c));
        }

        #[test]
        fn manhattan_triangle_inequality(
            ax in -50.0f32..50.0, ay in -50.0f32..50.0,
            bx in -50.0f32..50.0, by in -50.0f32..50.0,
            cx in -50.0f32..50.0, cy in -50.0f32..50.0,
        ) {
            let (a, b, c) = (Point::new(ax, ay), Point::new(bx, by), Point::new(cx, cy));
            prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c) + 1e-3);
        }
    }
}
