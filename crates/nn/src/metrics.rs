//! Classification metrics: accuracy and confusion matrices.

use std::fmt;

/// A square confusion matrix over `n` classes; rows are actual labels,
/// columns are predictions — the layout of Figs. 8, 9, 11, 15, 16b and 17
/// in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over `n` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "at least one class required");
        ConfusionMatrix {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.n
    }

    /// Records one (actual, predicted) observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add(&mut self, actual: usize, predicted: usize) {
        assert!(actual < self.n && predicted < self.n, "class out of range");
        self.counts[actual * self.n + predicted] += 1;
    }

    /// Raw count of (actual, predicted).
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual * self.n + predicted]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy in `[0, 1]`; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n).map(|i| self.count(i, i)).sum();
        correct as f64 / total as f64
    }

    /// Per-class recall (diagonal / row sum); `None` for unseen classes.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row: u64 = (0..self.n).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row as f64)
        }
    }

    /// Row-normalised value (the quantity the paper's colour maps show).
    pub fn normalized(&self, actual: usize, predicted: usize) -> f64 {
        let row: u64 = (0..self.n).map(|p| self.count(actual, p)).sum();
        if row == 0 {
            0.0
        } else {
            self.count(actual, predicted) as f64 / row as f64
        }
    }

    /// Merges another matrix into this one.
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.n, other.n, "class count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "actual\\pred {}",
            (0..self.n).map(|i| format!("{i:>5}")).collect::<String>()
        )?;
        for a in 0..self.n {
            write!(f, "{a:>11} ")?;
            for p in 0..self.n {
                write!(f, "{:>5.2}", self.normalized(a, p))?;
            }
            writeln!(f)?;
        }
        write!(f, "accuracy: {:.2}%", self.accuracy() * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let mut m = ConfusionMatrix::new(3);
        for c in 0..3 {
            for _ in 0..10 {
                m.add(c, c);
            }
        }
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.total(), 30);
        for c in 0..3 {
            assert_eq!(m.recall(c), Some(1.0));
        }
    }

    #[test]
    fn known_mixed_counts() {
        let mut m = ConfusionMatrix::new(2);
        m.add(0, 0);
        m.add(0, 0);
        m.add(0, 1);
        m.add(1, 1);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
        assert!((m.recall(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.normalized(0, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_zero_accuracy() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.recall(0), None);
        assert_eq!(m.normalized(1, 1), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix::new(2);
        a.add(0, 0);
        let mut b = ConfusionMatrix::new(2);
        b.add(0, 1);
        b.add(1, 1);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(0, 1), 1);
    }

    #[test]
    fn display_contains_accuracy() {
        let mut m = ConfusionMatrix::new(2);
        m.add(0, 0);
        let s = m.to_string();
        assert!(s.contains("accuracy"));
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn out_of_range_panics() {
        let mut m = ConfusionMatrix::new(2);
        m.add(2, 0);
    }
}
