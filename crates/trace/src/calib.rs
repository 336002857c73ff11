//! `C^k` calibration scoring: Brier score and reliability bins.
//!
//! PBPAIR's encoder maintains a per-MB correctness probability
//! (`sigma`, the `C^k` matrix of the paper). The replay pass derives a
//! ground-truth correct/dirty bit per (frame, MB) from the provenance
//! DAG; this module scores the prediction against that truth.
//!
//! All accumulation is integer: each observation contributes its
//! squared error and predicted probability pre-scaled by
//! [`SIGMA_SCALE`] and rounded once, so merging accumulators is a
//! commutative integer sum and the exported JSON is byte-identical
//! regardless of how sessions were scheduled across workers.

use pbpair_telemetry::json;

/// Fixed-point scale for probabilities in the deterministic export
/// (1.0 ⇒ `1_000_000_000`).
pub const SIGMA_SCALE: u64 = 1_000_000_000;

/// Number of equal-width reliability bins over [0, 1].
pub const BIN_COUNT: usize = 10;

/// One reliability bin: observations whose predicted probability fell
/// in `[lo, lo + 0.1)` (the last bin includes 1.0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalibrationBin {
    /// Observations in the bin.
    pub count: u64,
    /// How many of them were actually correct.
    pub correct: u64,
    /// Sum of predicted probabilities, scaled by [`SIGMA_SCALE`].
    pub sigma_sum_e9: u64,
}

impl CalibrationBin {
    /// Mean predicted probability of the bin.
    pub fn predicted_mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sigma_sum_e9 as f64 / (self.count as f64 * SIGMA_SCALE as f64)
    }

    /// Observed frequency of correctness in the bin.
    pub fn empirical_rate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.correct as f64 / self.count as f64
    }
}

/// Brier-score accumulator with reliability bins. Merge with
/// [`Calibration::merge`]; all fields are order-independent sums.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Calibration {
    /// Total observations.
    pub count: u64,
    /// Observations whose MB was actually correct.
    pub correct: u64,
    /// Sum over observations of `(sigma - correct)^2`, each term
    /// scaled by [`SIGMA_SCALE`] and rounded.
    pub brier_sum_e9: u64,
    /// Reliability bins by predicted probability.
    pub bins: [CalibrationBin; BIN_COUNT],
}

impl Calibration {
    /// Records one prediction. `sigma_e9` is the predicted probability
    /// of correctness scaled by [`SIGMA_SCALE`] (clamped to 1.0);
    /// `correct` is the DAG ground truth.
    pub fn observe(&mut self, sigma_e9: u64, correct: bool) {
        let sigma_e9 = sigma_e9.min(SIGMA_SCALE);
        let sigma = sigma_e9 as f64 / SIGMA_SCALE as f64;
        let target = if correct { 1.0 } else { 0.0 };
        let err = sigma - target;
        self.count += 1;
        self.correct += u64::from(correct);
        self.brier_sum_e9 += (err * err * SIGMA_SCALE as f64).round() as u64;
        let bin = ((sigma_e9 * BIN_COUNT as u64) / SIGMA_SCALE).min(BIN_COUNT as u64 - 1);
        let bin = &mut self.bins[bin as usize];
        bin.count += 1;
        bin.correct += u64::from(correct);
        bin.sigma_sum_e9 += sigma_e9;
    }

    /// Convenience wrapper over [`Calibration::observe`] for an
    /// unscaled probability.
    pub fn observe_prob(&mut self, sigma: f64, correct: bool) {
        let clamped = sigma.clamp(0.0, 1.0);
        self.observe((clamped * SIGMA_SCALE as f64).round() as u64, correct);
    }

    /// Adds another accumulator into this one (commutative).
    pub fn merge(&mut self, other: &Calibration) {
        self.count += other.count;
        self.correct += other.correct;
        self.brier_sum_e9 += other.brier_sum_e9;
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            a.count += b.count;
            a.correct += b.correct;
            a.sigma_sum_e9 += b.sigma_sum_e9;
        }
    }

    /// Mean Brier score (0 = perfect, 0.25 = uninformative coin).
    pub fn brier(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.brier_sum_e9 as f64 / (self.count as f64 * SIGMA_SCALE as f64)
    }

    /// Integer mean Brier score scaled by [`SIGMA_SCALE`], for the
    /// deterministic export.
    pub fn brier_e9(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        self.brier_sum_e9 / self.count
    }

    /// Deterministic JSON object: integers only, fixed key order.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("count", self.count)
                .field("correct", self.correct)
                .field("brier_sum_e9", self.brier_sum_e9)
                .field("brier_e9", self.brier_e9())
                .array("bins", |a| {
                    for (i, bin) in self.bins.iter().enumerate() {
                        a.object(|b| {
                            b.field("lo_e2", i as u64 * 10)
                                .field("count", bin.count)
                                .field("correct", bin.correct)
                                .field("sigma_sum_e9", bin.sigma_sum_e9);
                        });
                    }
                });
        })
    }

    /// Human-readable reliability table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "calibration: n={} brier={:.4} (accuracy {:.3})\n",
            self.count,
            self.brier(),
            if self.count == 0 {
                0.0
            } else {
                self.correct as f64 / self.count as f64
            },
        ));
        out.push_str("  bin        count  predicted  empirical\n");
        for (i, bin) in self.bins.iter().enumerate() {
            if bin.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  [{:.1},{:.1}) {:>7}     {:.3}      {:.3}\n",
                i as f64 / 10.0,
                (i + 1) as f64 / 10.0,
                bin.count,
                bin.predicted_mean(),
                bin.empirical_rate(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_score_zero() {
        let mut c = Calibration::default();
        for _ in 0..100 {
            c.observe_prob(1.0, true);
            c.observe_prob(0.0, false);
        }
        assert_eq!(c.brier_sum_e9, 0);
        assert_eq!(c.brier_e9(), 0);
        assert_eq!(c.count, 200);
        assert_eq!(c.correct, 100);
    }

    #[test]
    fn coin_flip_predictions_score_quarter() {
        let mut c = Calibration::default();
        for i in 0..1000 {
            c.observe_prob(0.5, i % 2 == 0);
        }
        assert!((c.brier() - 0.25).abs() < 1e-9, "brier {}", c.brier());
    }

    #[test]
    fn merge_equals_sequential_observation() {
        let mut all = Calibration::default();
        let mut a = Calibration::default();
        let mut b = Calibration::default();
        for i in 0..50u64 {
            let sigma = (i as f64) / 50.0;
            let correct = i % 3 != 0;
            all.observe_prob(sigma, correct);
            if i % 2 == 0 {
                a.observe_prob(sigma, correct);
            } else {
                b.observe_prob(sigma, correct);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Merge is commutative.
        let mut rev = b;
        rev.merge(&a);
        assert_eq!(rev, merged);
    }

    #[test]
    fn bins_partition_the_unit_interval() {
        let mut c = Calibration::default();
        c.observe_prob(0.0, false);
        c.observe_prob(0.05, false);
        c.observe_prob(0.95, true);
        c.observe_prob(1.0, true);
        assert_eq!(c.bins[0].count, 2);
        assert_eq!(c.bins[BIN_COUNT - 1].count, 2);
        assert_eq!(c.bins.iter().map(|b| b.count).sum::<u64>(), c.count);
    }

    #[test]
    fn deterministic_json_is_integer_only() {
        let mut c = Calibration::default();
        c.observe_prob(0.7, true);
        let json = c.deterministic_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(
            !json.contains('.'),
            "floats leaked into deterministic JSON: {json}"
        );
        assert!(json.contains("\"brier_e9\""));
    }
}
