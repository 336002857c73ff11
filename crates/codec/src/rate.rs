//! Frame-level rate control.
//!
//! The paper treats rate control as an orthogonal mechanism ("PBPAIR is
//! independent from any other encoder and/or decoder side control
//! mechanisms (i.e. rate control, channel coding, etc.)") and lists
//! cooperation with it as future work. This module provides a TMN-style
//! frame-level controller so that cooperation can actually be exercised:
//! a virtual buffer tracks the debt/credit against a constant target
//! rate, and the quantizer moves one step at a time to drain it.
//!
//! The controller is deliberately frame-granular (no macroblock-level QP
//! modulation): per-frame `PQUANT` is what this codec's picture header
//! carries, and frame granularity keeps the interaction with refresh
//! policies legible — more intra macroblocks → more bits → higher QP on
//! subsequent frames, which is exactly the coupling the paper's
//! "further optimization" remark is about.

use crate::quant::Qp;

/// A frame-level rate controller with a virtual buffer.
///
/// # Example
///
/// ```rust
/// use pbpair_codec::rate::RateController;
/// use pbpair_codec::Qp;
///
/// let mut rc = RateController::new(64_000, 15.0, Qp::new(8).unwrap());
/// // An oversized frame raises the quantizer...
/// let qp_after_big = rc.frame_encoded(40_000);
/// assert!(qp_after_big.get() > 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateController {
    target_bits_per_frame: f64,
    /// Virtual buffer fullness in bits; positive = over budget.
    buffer_bits: f64,
    qp: u8,
    min_qp: u8,
    max_qp: u8,
}

impl RateController {
    /// Creates a controller for `target_bps` at `fps` frames per second,
    /// starting from `initial_qp`.
    ///
    /// # Panics
    ///
    /// Panics if `target_bps` is zero or `fps` is not positive.
    pub fn new(target_bps: u64, fps: f64, initial_qp: Qp) -> Self {
        assert!(target_bps > 0, "target bit rate must be positive");
        assert!(fps > 0.0, "frame rate must be positive");
        RateController {
            target_bits_per_frame: target_bps as f64 / fps,
            buffer_bits: 0.0,
            qp: initial_qp.get(),
            min_qp: 1,
            max_qp: 31,
        }
    }

    /// Restricts the controller to a QP band (e.g. to bound quality).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min <= max <= 31`.
    pub fn with_qp_bounds(mut self, min: Qp, max: Qp) -> Self {
        assert!(min <= max, "min qp must not exceed max qp");
        self.min_qp = min.get();
        self.max_qp = max.get();
        self.qp = self.qp.clamp(self.min_qp, self.max_qp);
        self
    }

    /// The quantizer to use for the next frame.
    pub fn qp(&self) -> Qp {
        Qp::new(self.qp).expect("controller keeps qp in range")
    }

    /// Target bits per frame.
    pub fn target_bits_per_frame(&self) -> f64 {
        self.target_bits_per_frame
    }

    /// Virtual buffer fullness in bits (positive = over budget).
    pub fn buffer_fullness(&self) -> f64 {
        self.buffer_bits
    }

    /// Reports the size of the frame just encoded; returns the quantizer
    /// for the next frame.
    pub fn frame_encoded(&mut self, bits: u64) -> Qp {
        self.buffer_bits += bits as f64 - self.target_bits_per_frame;
        // Clamp the buffer to ±2 seconds of debt so one I-frame cannot
        // wind the controller up indefinitely.
        let clamp = 2.0 * 15.0 * self.target_bits_per_frame;
        self.buffer_bits = self.buffer_bits.clamp(-clamp, clamp);

        // Dead zone of ±¼ frame budget, then single steps; a large
        // overshoot (more than two frame budgets) takes a double step.
        let t = self.target_bits_per_frame;
        let step: i8 = if self.buffer_bits > 2.0 * t {
            2
        } else if self.buffer_bits > 0.25 * t {
            1
        } else if self.buffer_bits < -2.0 * t {
            -2
        } else if self.buffer_bits < -0.25 * t {
            -1
        } else {
            0
        };
        self.qp =
            (self.qp as i16 + step as i16).clamp(self.min_qp as i16, self.max_qp as i16) as u8;
        self.qp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_frames_raise_qp_and_undersized_lower_it() {
        let mut rc = RateController::new(48_000, 15.0, Qp::new(8).unwrap());
        let budget = rc.target_bits_per_frame() as u64; // 3200
        let up = rc.frame_encoded(budget * 3);
        assert!(up.get() > 8);
        // Several tiny frames drain the buffer and bring QP back down.
        let mut qp = up;
        for _ in 0..12 {
            qp = rc.frame_encoded(100);
        }
        assert!(qp.get() < up.get());
    }

    #[test]
    fn on_budget_frames_hold_qp_steady() {
        let mut rc = RateController::new(60_000, 15.0, Qp::new(10).unwrap());
        let budget = rc.target_bits_per_frame() as u64;
        for _ in 0..20 {
            assert_eq!(rc.frame_encoded(budget).get(), 10);
        }
        assert!(rc.buffer_fullness().abs() < 1.0);
    }

    #[test]
    fn qp_respects_bounds() {
        let mut rc = RateController::new(10_000, 15.0, Qp::new(8).unwrap())
            .with_qp_bounds(Qp::new(6).unwrap(), Qp::new(12).unwrap());
        for _ in 0..50 {
            rc.frame_encoded(1_000_000); // hopeless overshoot
        }
        assert_eq!(rc.qp().get(), 12);
        for _ in 0..50 {
            rc.frame_encoded(0);
        }
        assert_eq!(rc.qp().get(), 6);
    }

    #[test]
    fn buffer_is_clamped() {
        let mut rc = RateController::new(15_000, 15.0, Qp::new(8).unwrap());
        for _ in 0..100 {
            rc.frame_encoded(10_000_000);
        }
        let clamp = 2.0 * 15.0 * rc.target_bits_per_frame();
        assert!(rc.buffer_fullness() <= clamp + 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = RateController::new(0, 15.0, Qp::new(8).unwrap());
    }

    /// Closed loop against the real encoder: the mean bit rate over a
    /// clip must converge near the target.
    #[test]
    fn converges_on_the_real_encoder() {
        use crate::encoder::{Encoder, EncoderConfig};
        use crate::policy::NaturalPolicy;
        use pbpair_media::synth::SyntheticSequence;

        let fps = 15.0;
        let target_bps = 48_000u64;
        let mut rc = RateController::new(target_bps, fps, Qp::new(8).unwrap());
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(3);
        let mut total_bits = 0u64;
        let frames = 45;
        for _ in 0..frames {
            enc.set_qp(rc.qp());
            let e = enc.encode_frame(&seq.next_frame(), &mut policy);
            total_bits += e.stats.bits;
            rc.frame_encoded(e.stats.bits);
        }
        // Skip the I-frame when judging the steady state.
        let achieved_bps = total_bits as f64 * fps / frames as f64;
        assert!(
            achieved_bps < target_bps as f64 * 1.5 && achieved_bps > target_bps as f64 * 0.3,
            "achieved {achieved_bps} vs target {target_bps}"
        );
    }
}
