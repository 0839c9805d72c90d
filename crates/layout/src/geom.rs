//! Layout geometry primitives.
//!
//! All coordinates are integer database units (**dbu**), where 1 dbu = 1 nm;
//! `1 µm = 1000 dbu`. Metal layers are numbered from 1 (M1, closest to the
//! devices) upward, with alternating preferred routing directions
//! (M1 horizontal, M2 vertical, …) as in the NanGate 45 nm stack. The paper's
//! vector features are expressed in exactly these terms: distances along the
//! *preferred* and *non-preferred* routing direction of the split layer.

use std::fmt;

/// Database units per micrometre.
pub(crate) const DBU_PER_UM: i64 = 1000;

/// Converts micrometres to dbu.
pub fn um(v: f64) -> i64 {
    (v * DBU_PER_UM as f64).round() as i64
}

/// Converts dbu to micrometres.
pub fn to_um(v: i64) -> f64 {
    v as f64 / DBU_PER_UM as f64
}

/// An axis direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Horizontal (along x).
    H,
    /// Vertical (along y).
    V,
}

impl Dir {
    /// The other direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::H => Dir::V,
            Dir::V => Dir::H,
        }
    }
}

/// A metal layer, 1-based (`Layer(1)` = M1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Layer(pub u8);

impl Layer {
    /// Preferred routing direction: odd layers horizontal, even vertical.
    pub fn dir(self) -> Dir {
        if self.0 % 2 == 1 {
            Dir::H
        } else {
            Dir::V
        }
    }

    /// The layer above.
    pub fn up(self) -> Layer {
        Layer(self.0 + 1)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// A point in dbu.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// x coordinate in dbu.
    pub x: i64,
    /// y coordinate in dbu.
    pub y: i64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: i64, y: i64) -> Point {
        Point { x, y }
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Coordinate along `dir`.
    pub fn along(self, dir: Dir) -> i64 {
        match dir {
            Dir::H => self.x,
            Dir::V => self.y,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned rectangle (inclusive bounds, in dbu).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from two corners (normalised).
    pub fn new(a: Point, b: Point) -> Rect {
        Rect {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Width in dbu.
    pub fn width(&self) -> i64 {
        self.hi.x - self.lo.x
    }

    /// Height in dbu.
    pub fn height(&self) -> i64 {
        self.hi.y - self.lo.y
    }

    /// Half-perimeter in dbu.
    pub fn half_perimeter(&self) -> i64 {
        self.width() + self.height()
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Grows the rectangle to include `p`.
    pub(crate) fn expand_to(&mut self, p: Point) {
        self.lo.x = self.lo.x.min(p.x);
        self.lo.y = self.lo.y.min(p.y);
        self.hi.x = self.hi.x.max(p.x);
        self.hi.y = self.hi.y.max(p.y);
    }
}

/// An axis-parallel wire segment on a metal layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Metal layer.
    pub layer: Layer,
    /// One endpoint.
    pub a: Point,
    /// Other endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment; endpoints must share an axis.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not axis-parallel.
    pub fn new(layer: Layer, a: Point, b: Point) -> Segment {
        assert!(a.x == b.x || a.y == b.y, "segment must be axis-parallel");
        Segment { layer, a, b }
    }

    /// Direction of the segment (degenerate segments report the layer's
    /// preferred direction).
    pub fn dir(&self) -> Dir {
        if self.a.y == self.b.y && self.a.x != self.b.x {
            Dir::H
        } else if self.a.x == self.b.x && self.a.y != self.b.y {
            Dir::V
        } else {
            self.layer.dir()
        }
    }

    /// Length in dbu.
    pub fn len(&self) -> i64 {
        self.a.manhattan(self.b)
    }

    /// Whether the segment has zero length.
    pub fn is_empty(&self) -> bool {
        self.a == self.b
    }

    /// Whether `p` lies on the segment (same layer not checked).
    pub fn contains_point(&self, p: Point) -> bool {
        let r = Rect::new(self.a, self.b);
        r.contains(p)
            && (self.a.x == self.b.x || p.y == self.a.y)
            && (self.a.y == self.b.y || p.x == self.a.x)
    }
}

/// A via connecting `lower` to `lower + 1` at a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Via {
    /// Lower layer of the cut (`Via { lower: Layer(3) }` connects M3–M4).
    pub lower: Layer,
    /// Location.
    pub at: Point,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(um(1.0), 1000);
        assert_eq!(um(0.05), 50);
        assert!((to_um(1900) - 1.9).abs() < 1e-12);
    }

    #[test]
    fn layer_directions_alternate() {
        assert_eq!(Layer(1).dir(), Dir::H);
        assert_eq!(Layer(2).dir(), Dir::V);
        assert_eq!(Layer(3).dir(), Dir::H);
        assert_eq!(Layer(4).dir(), Dir::V);
    }

    #[test]
    fn manhattan_distance() {
        let a = Point::new(0, 0);
        let b = Point::new(3, -4);
        assert_eq!(a.manhattan(b), 7);
        assert_eq!(b.manhattan(a), 7);
    }

    #[test]
    fn rect_ops() {
        let r = Rect::new(Point::new(10, 20), Point::new(0, 0));
        assert_eq!(r.lo, Point::new(0, 0));
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 20);
        assert_eq!(r.half_perimeter(), 30);
        assert!(r.contains(Point::new(5, 5)));
        assert!(!r.contains(Point::new(11, 5)));
    }

    #[test]
    fn segment_direction_and_containment() {
        let s = Segment::new(Layer(1), Point::new(0, 5), Point::new(10, 5));
        assert_eq!(s.dir(), Dir::H);
        assert_eq!(s.len(), 10);
        assert!(s.contains_point(Point::new(4, 5)));
        assert!(!s.contains_point(Point::new(4, 6)));
        let v = Segment::new(Layer(2), Point::new(3, 0), Point::new(3, 9));
        assert_eq!(v.dir(), Dir::V);
    }

    #[test]
    #[should_panic(expected = "axis-parallel")]
    fn diagonal_segment_panics() {
        let _ = Segment::new(Layer(1), Point::new(0, 0), Point::new(1, 1));
    }

    #[test]
    fn degenerate_segment_uses_layer_dir() {
        let s = Segment::new(Layer(2), Point::new(3, 3), Point::new(3, 3));
        assert_eq!(s.dir(), Dir::V);
        assert!(s.is_empty());
    }
}
