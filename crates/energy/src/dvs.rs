//! Dynamic voltage/frequency scaling (DVS/DFS) cooperation.
//!
//! The paper's final future-work item: "cooperation with traditional low
//! power techniques such as dynamic voltage scaling (DVS) and dynamic
//! frequency scaling (DFS) to explore more energy gain". The mechanism:
//! PBPAIR reduces the *cycles* a frame needs (skipped ME searches); a
//! DVS governor can then convert that slack into a lower
//! voltage/frequency point for the whole frame, and since switching
//! energy scales with `V²`, the saving is **superlinear** in the cycle
//! reduction — more than PBPAIR alone.
//!
//! The model: each device exposes XScale-style operating points
//! ([`DvfsLevel`]); [`DvfsGovernor::govern`] picks the lowest point that
//! still finishes a frame's estimated cycles within the frame deadline
//! (classic real-time DVS), and [`DvfsGovernor::frame_energy`] prices the
//! frame at that point.

use crate::model::{nj, Joules};
use pbpair_codec::DeviceProfile;

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsLevel {
    /// Core frequency in MHz.
    pub freq_mhz: u32,
    /// Core voltage in volts.
    pub voltage: f64,
}

impl DvfsLevel {
    /// Cycles available within `deadline_s` at this frequency.
    pub fn cycle_budget(&self, deadline_s: f64) -> f64 {
        self.freq_mhz as f64 * 1e6 * deadline_s
    }
}

/// XScale PXA25x-class operating points (highest last).
pub const XSCALE_LEVELS: [DvfsLevel; 4] = [
    DvfsLevel {
        freq_mhz: 100,
        voltage: 0.85,
    },
    DvfsLevel {
        freq_mhz: 200,
        voltage: 1.0,
    },
    DvfsLevel {
        freq_mhz: 300,
        voltage: 1.1,
    },
    DvfsLevel {
        freq_mhz: 400,
        voltage: 1.3,
    },
];

/// Deadline-driven DVS governor over a device profile.
///
/// The device's energy profile is defined at its maximum operating point,
/// where one cycle costs the profile's [`DeviceProfile::cycle_pj`]; at a
/// lower point the same cycles cost `E · (V / V_max)²` and take
/// `cycles / f` seconds.
#[derive(Debug, Clone)]
pub struct DvfsGovernor {
    profile: DeviceProfile,
    levels: Vec<DvfsLevel>,
}

impl DvfsGovernor {
    /// Creates a governor with the XScale levels over `profile`.
    pub fn xscale(profile: DeviceProfile) -> Self {
        DvfsGovernor {
            profile,
            levels: XSCALE_LEVELS.to_vec(),
        }
    }

    /// The operating points, ascending.
    pub fn levels(&self) -> &[DvfsLevel] {
        &self.levels
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Converts an encoding-energy figure (priced at the maximum point)
    /// into an estimated cycle count.
    pub fn cycles_of(&self, energy_at_max: Joules) -> f64 {
        energy_at_max.get() / (nj(self.profile.cycle_pj) * 1e-9)
    }

    /// The lowest operating point that can retire `cycles` within
    /// `deadline_s`, or `None` if even the maximum point cannot (a
    /// deadline miss — the encoder must drop quality or frames).
    pub fn govern(&self, cycles: f64, deadline_s: f64) -> Option<DvfsLevel> {
        self.levels
            .iter()
            .copied()
            .find(|l| l.cycle_budget(deadline_s) >= cycles)
    }

    /// Energy to retire `cycles` at `level` (V² scaling from the maximum
    /// point).
    pub fn frame_energy(&self, cycles: f64, level: DvfsLevel) -> Joules {
        let v_max = self
            .levels
            .last()
            .expect("governor always has levels")
            .voltage;
        let scale = (level.voltage / v_max).powi(2);
        Joules(cycles * nj(self.profile.cycle_pj) * 1e-9 * scale)
    }

    /// Convenience: govern a frame and price it; falls back to the
    /// maximum point when the deadline is missed.
    pub fn frame_energy_with_dvs(&self, energy_at_max: Joules, deadline_s: f64) -> Joules {
        let cycles = self.cycles_of(energy_at_max);
        let level = self
            .govern(cycles, deadline_s)
            .unwrap_or_else(|| *self.levels.last().expect("non-empty"));
        self.frame_energy(cycles, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_codec::{IPAQ_H5555, ZAURUS_SL5600};

    #[test]
    fn levels_are_ascending_and_physical() {
        for w in XSCALE_LEVELS.windows(2) {
            assert!(w[0].freq_mhz < w[1].freq_mhz);
            assert!(w[0].voltage <= w[1].voltage);
        }
        assert!(XSCALE_LEVELS
            .iter()
            .all(|l| l.voltage > 0.5 && l.voltage < 2.0));
    }

    #[test]
    fn governor_picks_the_lowest_feasible_level() {
        let g = DvfsGovernor::xscale(IPAQ_H5555);
        // 10 M cycles in 200 ms: 100 MHz gives 20 M — feasible.
        assert_eq!(g.govern(10e6, 0.2).unwrap().freq_mhz, 100);
        // 50 M cycles in 200 ms: needs ≥ 250 MHz → 300.
        assert_eq!(g.govern(50e6, 0.2).unwrap().freq_mhz, 300);
        // 90 M cycles in 200 ms: not even 400 MHz (80 M) suffices.
        assert!(g.govern(90e6, 0.2).is_none());
    }

    #[test]
    fn lower_levels_cost_quadratically_less() {
        let g = DvfsGovernor::xscale(IPAQ_H5555);
        let cycles = 30e6;
        let e_max = g.frame_energy(cycles, XSCALE_LEVELS[3]);
        let e_200 = g.frame_energy(cycles, XSCALE_LEVELS[1]);
        let expected_ratio = (1.0f64 / 1.3).powi(2);
        assert!(((e_200.get() / e_max.get()) - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn cycle_reduction_buys_superlinear_energy_with_dvs() {
        // The future-work claim: PBPAIR's cycle saving (say 26%) turns
        // into a larger energy saving once DVS exploits the slack.
        let g = DvfsGovernor::xscale(IPAQ_H5555);
        let deadline = 0.2; // 5 fps, the paper-config full-search regime
        let no_energy = Joules(0.0623); // ≈ a full-search P-frame at max
        let pbpair_energy = Joules(no_energy.get() * 0.74); // 26% fewer cycles
        let no_dvs = g.frame_energy_with_dvs(no_energy, deadline);
        let pb_dvs = g.frame_energy_with_dvs(pbpair_energy, deadline);
        let saving_without = 1.0 - pbpair_energy.get() / no_energy.get();
        let saving_with = 1.0 - pb_dvs.get() / no_dvs.get();
        assert!(
            saving_with > saving_without + 0.05,
            "DVS must amplify the saving: {saving_with} vs {saving_without}"
        );
    }

    #[test]
    fn deadline_miss_falls_back_to_max_level() {
        let g = DvfsGovernor::xscale(ZAURUS_SL5600);
        let impossible = Joules(1.0); // ~9e8 cycles
        let e = g.frame_energy_with_dvs(impossible, 0.01);
        // Falls back to the max point: energy equals the input.
        assert!((e.get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_roundtrip_through_energy() {
        let g = DvfsGovernor::xscale(IPAQ_H5555);
        let cycles = g.cycles_of(Joules(0.05));
        let back = g.frame_energy(cycles, XSCALE_LEVELS[3]);
        assert!((back.get() - 0.05).abs() < 1e-12);
    }
}
