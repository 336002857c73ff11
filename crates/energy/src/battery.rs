//! A simple battery / residual-energy tracker.
//!
//! Supports the paper's §3.2 scenario: "adjust the Intra_Th parameter to
//! maximize error resilient level within current residual energy
//! constraint". The battery is drained by measured energy and reports the
//! residual budget the controller divides over the remaining workload.

use crate::model::Joules;

/// A finite energy reservoir.
///
/// # Example
///
/// ```rust
/// use pbpair_energy::{Battery, Joules};
///
/// let mut b = Battery::new(Joules(10.0));
/// b.drain(Joules(4.0));
/// assert_eq!(b.remaining(), Joules(6.0));
/// assert!(!b.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity: Joules,
    remaining: Joules,
}

impl Battery {
    /// Creates a full battery.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn new(capacity: Joules) -> Self {
        assert!(capacity.get() > 0.0, "battery capacity must be positive");
        Battery {
            capacity,
            remaining: capacity,
        }
    }

    /// Rated capacity.
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Residual energy (never negative).
    pub fn remaining(&self) -> Joules {
        self.remaining
    }

    /// Fraction of capacity remaining, `0.0..=1.0`.
    pub fn remaining_fraction(&self) -> f64 {
        self.remaining.get() / self.capacity.get()
    }

    /// Whether the battery is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining.get() <= 0.0
    }

    /// Drains energy; clamps at empty. Returns the energy actually drawn.
    pub fn drain(&mut self, amount: Joules) -> Joules {
        let drawn = amount.get().min(self.remaining.get()).max(0.0);
        self.remaining = Joules(self.remaining.get() - drawn);
        Joules(drawn)
    }

    /// The per-frame budget that spreads the residual energy evenly over
    /// `frames_left` more frames; `None` when empty or `frames_left` is 0.
    pub fn per_frame_budget(&self, frames_left: u64) -> Option<Joules> {
        if self.is_empty() || frames_left == 0 {
            return None;
        }
        Some(Joules(self.remaining.get() / frames_left as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_and_clamp() {
        let mut b = Battery::new(Joules(5.0));
        assert_eq!(b.drain(Joules(2.0)), Joules(2.0));
        assert_eq!(b.remaining(), Joules(3.0));
        assert_eq!(b.drain(Joules(10.0)), Joules(3.0), "clamped at empty");
        assert!(b.is_empty());
        assert_eq!(b.drain(Joules(1.0)), Joules(0.0));
    }

    #[test]
    fn fraction_and_budget() {
        let mut b = Battery::new(Joules(8.0));
        b.drain(Joules(2.0));
        assert!((b.remaining_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(b.per_frame_budget(3).unwrap(), Joules(2.0));
        assert!(b.per_frame_budget(0).is_none());
        b.drain(Joules(100.0));
        assert!(b.per_frame_budget(10).is_none());
    }

    #[test]
    fn negative_drain_is_ignored() {
        let mut b = Battery::new(Joules(5.0));
        assert_eq!(b.drain(Joules(-3.0)), Joules(0.0));
        assert_eq!(b.remaining(), Joules(5.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Battery::new(Joules(0.0));
    }
}
