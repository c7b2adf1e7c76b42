//! Planar geometry: points, rooms and antenna arrays.

use std::fmt;
use std::ops::{Add, Sub};

/// A point (or displacement) in the 2-D floor plan of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate \[m\]; positive to the right of the AP.
    pub x: f64,
    /// Depth coordinate \[m\]; positive toward the beamformees.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point2) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Vector length when interpreted as a displacement.
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Scales the displacement by `s`.
    pub fn scale(&self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }

    /// Linear interpolation `self + t·(other − self)` for `t ∈ [0, 1]`.
    pub fn lerp(&self, other: &Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// A rectangular room with reflective walls.
///
/// First-order wall reflections are generated with the image method; the
/// common `reflection_coeff` models the average energy loss per bounce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Room {
    /// Left wall x-coordinate \[m\].
    pub x_min: f64,
    /// Right wall x-coordinate \[m\].
    pub x_max: f64,
    /// Back wall (behind the AP) y-coordinate \[m\].
    pub y_min: f64,
    /// Front wall (behind the beamformees) y-coordinate \[m\].
    pub y_max: f64,
    /// Amplitude reflection coefficient of the walls, `0 < Γ < 1`.
    pub reflection_coeff: f64,
}

impl Room {
    /// Creates a room after validating the bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inverted or the reflection coefficient is
    /// outside `(0, 1)`.
    pub fn new(x_min: f64, x_max: f64, y_min: f64, y_max: f64, reflection_coeff: f64) -> Self {
        assert!(x_min < x_max && y_min < y_max, "degenerate room bounds");
        assert!(
            reflection_coeff > 0.0 && reflection_coeff < 1.0,
            "reflection coefficient must be in (0, 1)"
        );
        Room {
            x_min,
            x_max,
            y_min,
            y_max,
            reflection_coeff,
        }
    }

    /// Returns `true` when the point lies inside the room.
    pub fn contains(&self, p: &Point2) -> bool {
        p.x >= self.x_min && p.x <= self.x_max && p.y >= self.y_min && p.y <= self.y_max
    }

    /// The four first-order mirror images of a point with respect to the
    /// walls, ordered left, right, back, front.
    pub fn wall_images(&self, p: &Point2) -> [Point2; 4] {
        [
            Point2::new(2.0 * self.x_min - p.x, p.y),
            Point2::new(2.0 * self.x_max - p.x, p.y),
            Point2::new(p.x, 2.0 * self.y_min - p.y),
            Point2::new(p.x, 2.0 * self.y_max - p.y),
        ]
    }
}

/// A uniform linear antenna array in the floor plan.
///
/// Elements are spaced `spacing` metres apart along the direction given by
/// `orientation` (radians from the +x axis), centred on `center`. The AP
/// of the paper uses M = 3 active elements at λ/2 spacing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AntennaArray {
    center: Point2,
    orientation: f64,
    spacing: f64,
    count: usize,
}

impl AntennaArray {
    /// Creates an array.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `spacing` is non-positive.
    pub fn new(center: Point2, orientation: f64, spacing: f64, count: usize) -> Self {
        assert!(count > 0, "array needs at least one element");
        assert!(spacing > 0.0, "element spacing must be positive");
        AntennaArray {
            center,
            orientation,
            spacing,
            count,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if the array has no elements (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Array center.
    pub fn center(&self) -> Point2 {
        self.center
    }

    /// Returns a copy of the array moved to a new center.
    pub fn at(&self, center: Point2) -> AntennaArray {
        AntennaArray { center, ..*self }
    }

    /// Position of element `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn element(&self, i: usize) -> Point2 {
        assert!(i < self.count, "antenna index out of range");
        let offset = (i as f64 - (self.count as f64 - 1.0) / 2.0) * self.spacing;
        Point2::new(
            self.center.x + offset * self.orientation.cos(),
            self.center.y + offset * self.orientation.sin(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_triangle() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        let c = Point2::new(-1.0, 2.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&b) <= a.distance(&c) + c.distance(&b) + 1e-12);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(2.0, -1.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.x - 1.5).abs() < 1e-12 && (mid.y - 0.0).abs() < 1e-12);
    }

    #[test]
    fn wall_images_reflect_correctly() {
        let room = Room::new(-2.0, 2.0, -1.0, 4.0, 0.5);
        let p = Point2::new(1.0, 2.0);
        let [left, right, back, front] = room.wall_images(&p);
        assert_eq!(left, Point2::new(-5.0, 2.0));
        assert_eq!(right, Point2::new(3.0, 2.0));
        assert_eq!(back, Point2::new(1.0, -4.0));
        assert_eq!(front, Point2::new(1.0, 6.0));
        // Images are outside the room.
        for img in [left, right, back, front] {
            assert!(!room.contains(&img));
        }
    }

    #[test]
    #[should_panic(expected = "degenerate room")]
    fn inverted_room_panics() {
        let _ = Room::new(2.0, -2.0, 0.0, 1.0, 0.5);
    }

    #[test]
    fn array_elements_are_centered_and_spaced() {
        let arr = AntennaArray::new(Point2::new(0.0, 0.0), 0.0, 0.03, 3);
        assert_eq!(arr.len(), 3);
        let e0 = arr.element(0);
        let e1 = arr.element(1);
        let e2 = arr.element(2);
        assert!((e0.x + 0.03).abs() < 1e-12);
        assert!((e1.x).abs() < 1e-12);
        assert!((e2.x - 0.03).abs() < 1e-12);
        // Mean position equals center.
        let mean = Point2::new((e0.x + e1.x + e2.x) / 3.0, (e0.y + e1.y + e2.y) / 3.0);
        assert!(mean.distance(&arr.center()) < 1e-12);
    }

    #[test]
    fn rotated_array_points_along_orientation() {
        let arr = AntennaArray::new(Point2::new(1.0, 1.0), std::f64::consts::FRAC_PI_2, 0.1, 2);
        let e0 = arr.element(0);
        let e1 = arr.element(1);
        assert!((e0.x - 1.0).abs() < 1e-12);
        assert!((e1.y - e0.y - 0.1).abs() < 1e-12);
    }

    #[test]
    fn moved_array_keeps_shape() {
        let arr = AntennaArray::new(Point2::new(0.0, 0.0), 0.0, 0.05, 2);
        let moved = arr.at(Point2::new(5.0, 5.0));
        assert_eq!(moved.center(), Point2::new(5.0, 5.0));
        let d_orig = arr.element(0).distance(&arr.element(1));
        let d_moved = moved.element(0).distance(&moved.element(1));
        assert!((d_orig - d_moved).abs() < 1e-12);
    }
}
