//! Joint rate–distortion–energy λ-plane sweep, run through the serving
//! layer on the committed Markov burst-erasure channel.
//!
//! Every arm is one fleet run of the *same* PBPAIR configuration — same
//! seeds, same channel process, same admission settings — differing only
//! in the encoder's [`RdeConfig`]: the `pbpair` arm runs the controller
//! disabled, `rde-zero` runs it enabled at λ1 = λ2 = 0 (the inert gate,
//! whose digest must equal `pbpair`'s byte for byte), and the remaining
//! arms place (λ1, λ2) points across the plane from rate-only through
//! balanced to energy-dominant.
//!
//! The sweep reports each arm's end-to-end outcome — displayed quality,
//! modeled encode energy, wire bytes — and marks the Pareto front under
//! (energy ↓, bytes ↓, quality ↑) weak dominance. Because the inert gate
//! reproduces the PBPAIR point exactly, the front *weakly dominates*
//! pure PBPAIR at equal energy by construction, and the active arms must
//! demonstrate the energy lever actually engages (strictly cheaper
//! encodes than baseline somewhere on the plane).
//!
//! Each cell carries an FNV-1a digest of the fleet's deterministic
//! report, so `ci/validate_scenarios.py --rde` can gate the committed
//! front in `ci/rde_bounds.json` without float-formatting hazards; the
//! JSON is byte-identical for any worker count.

use super::fleet;
use crate::report::{fmt_f, Table};
use pbpair_codec::RdeConfig;
use pbpair_netsim::ChannelSpec;
use pbpair_serve::{DeviceKind, DeviceMix, ServeConfig};
use pbpair_telemetry::json;
use pbpair_telemetry::Telemetry;

/// One (λ1, λ2) operating point of the sweep.
#[derive(Debug, Clone)]
pub struct RdeArm {
    /// Stable name, the key the CI bounds gate on.
    pub name: &'static str,
    /// Encoder RDE configuration (`None` = controller compiled out of
    /// the decision path entirely — the pure-PBPAIR baseline).
    pub rde: Option<RdeConfig>,
}

/// The committed λ grid: the PBPAIR baseline, the inert zero-λ gate,
/// two rate-only points, two energy-only points, and one joint point.
/// Weights are Q16.16 ([`pbpair_codec::LAMBDA_ONE`] = 1.0); the
/// exponents were chosen so every active arm lands on a distinct
/// operating point of this fleet (distinct digests) while staying in
/// the mode-diverse interior the metamorphic suite maps on foreman.
pub fn committed_arms() -> Vec<RdeArm> {
    let point = |l1: u32, l2: u32| {
        Some(RdeConfig {
            lambda1_q16: l1,
            lambda2_q16: l2,
        })
    };
    vec![
        RdeArm {
            name: "pbpair",
            rde: None,
        },
        RdeArm {
            name: "rde-zero",
            rde: Some(RdeConfig::default()),
        },
        RdeArm {
            name: "rde-r12",
            rde: point(1 << 12, 0),
        },
        RdeArm {
            name: "rde-r20",
            rde: point(1 << 20, 0),
        },
        RdeArm {
            name: "rde-e4",
            rde: point(0, 1 << 4),
        },
        RdeArm {
            name: "rde-e8",
            rde: point(0, 1 << 8),
        },
        RdeArm {
            name: "rde-r16-e4",
            rde: point(1 << 16, 1 << 4),
        },
    ]
}

/// One arm's deterministic outcome.
#[derive(Debug, Clone)]
pub struct RdeCell {
    /// Arm name.
    pub arm: String,
    /// Q16.16 bit price (0 for the baseline arm).
    pub lambda1_q16: u32,
    /// Q16.16 energy price (0 for the baseline arm).
    pub lambda2_q16: u32,
    /// FNV-1a of the fleet's deterministic digest.
    pub digest: u64,
    /// Frames encoded fleet-wide.
    pub frames: u64,
    /// Whole frames lost to the channel.
    pub frames_lost: u64,
    /// Frames delivered damaged.
    pub frames_damaged: u64,
    /// Fleet mean PSNR in milli-dB fixed point.
    pub psnr_mdb: u64,
    /// Total modeled encode energy in microjoules.
    pub encode_uj: u64,
    /// Bytes offered to the channels.
    pub sent_bytes: u64,
    /// Whether this arm sits on the (energy, bytes, quality) Pareto
    /// front of the sweep.
    pub on_front: bool,
}

impl RdeCell {
    /// Weak Pareto dominance over (encode energy ↓, wire bytes ↓,
    /// quality ↑): `self` does at least as well on every objective and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &RdeCell) -> bool {
        let no_worse = self.encode_uj <= other.encode_uj
            && self.sent_bytes <= other.sent_bytes
            && self.psnr_mdb >= other.psnr_mdb;
        let better = self.encode_uj < other.encode_uj
            || self.sent_bytes < other.sent_bytes
            || self.psnr_mdb > other.psnr_mdb;
        no_worse && better
    }
}

/// The full λ-plane sweep result.
#[derive(Debug, Clone)]
pub struct RdeSweep {
    /// Frames per session in every arm.
    pub frames: usize,
    /// Sessions per arm.
    pub sessions: usize,
    /// Arms in [`committed_arms`] order, front flags populated.
    pub cells: Vec<RdeCell>,
}

impl RdeSweep {
    /// Looks an arm up by name.
    pub fn cell(&self, arm: &str) -> Option<&RdeCell> {
        self.cells.iter().find(|c| c.arm == arm)
    }

    /// The arms on the Pareto front, in sweep order.
    pub fn front(&self) -> Vec<&RdeCell> {
        self.cells.iter().filter(|c| c.on_front).collect()
    }

    /// Human-readable summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "RDE lambda-plane sweep on the burst channel, {} sessions x {} frames/arm",
            self.sessions, self.frames
        ));
        t.set_headers([
            "arm",
            "l1_q16",
            "l2_q16",
            "digest",
            "lost",
            "damaged",
            "PSNR dB",
            "encode mJ",
            "sent kB",
            "front",
        ]);
        for c in &self.cells {
            t.add_row([
                c.arm.clone(),
                c.lambda1_q16.to_string(),
                c.lambda2_q16.to_string(),
                format!("{:016x}", c.digest),
                format!("{}/{}", c.frames_lost, c.frames),
                c.frames_damaged.to_string(),
                fmt_f(c.psnr_mdb as f64 / 1000.0, 2),
                fmt_f(c.encode_uj as f64 / 1000.0, 2),
                fmt_f(c.sent_bytes as f64 / 1000.0, 1),
                if c.on_front { "*" } else { "" }.to_string(),
            ]);
        }
        t
    }

    /// Deterministic integer-only JSON export (fixed-point metrics, hex
    /// digests, 0/1 front flags); byte-identical at any worker count.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("frames", self.frames)
                .field("sessions", self.sessions)
                .array("cells", |a| {
                    for c in &self.cells {
                        a.object(|o| {
                            o.string("arm", &c.arm)
                                .field("lambda1_q16", c.lambda1_q16)
                                .field("lambda2_q16", c.lambda2_q16)
                                .string("digest", &format!("{:016x}", c.digest))
                                .field("frames", c.frames)
                                .field("frames_lost", c.frames_lost)
                                .field("frames_damaged", c.frames_damaged)
                                .field("psnr_mdb", c.psnr_mdb)
                                .field("encode_uj", c.encode_uj)
                                .field("sent_bytes", c.sent_bytes)
                                .field("on_front", u64::from(c.on_front));
                        });
                    }
                });
        })
    }
}

/// Builds the fleet configuration for one arm: the committed burst
/// channel, a uniform iPAQ fleet (the profile the RDE prices every
/// session with), admission shedding disabled so every arm
/// encodes the same frame slots.
fn arm_config(arm: &RdeArm, frames: usize, sessions: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        corruption: 0.0, // isolate the rate/energy levers from bit flips
        channel: Some(ChannelSpec::BurstErasure {
            burst_len: 4.0,
            guard_len: 28.0,
        }),
        rde: arm.rde,
        device_mix: DeviceMix::Uniform(DeviceKind::Ipaq),
        ..fleet::base(frames, sessions, workers)
    }
}

/// Runs the committed λ grid with every arm's fleet reporting into
/// `tel` (same semantics as the serve binary's `--telemetry`).
///
/// # Errors
///
/// Returns an error for invalid fleet configuration.
pub fn run_rde_sweep(
    frames: usize,
    sessions: usize,
    workers: usize,
    tel: &Telemetry,
) -> Result<RdeSweep, String> {
    let grid = committed_arms().into_iter().map(|arm| {
        let cfg = arm_config(&arm, frames, sessions, workers);
        (arm, cfg)
    });
    let mut cells = fleet::run_cells(grid, tel, false, |arm, run| {
        let report = run.report;
        let rde = arm.rde.unwrap_or_default();
        RdeCell {
            arm: arm.name.to_string(),
            lambda1_q16: rde.lambda1_q16,
            lambda2_q16: rde.lambda2_q16,
            digest: fleet::digest(&report),
            frames: report.sessions.iter().map(|s| s.frames_encoded).sum(),
            frames_lost: report.sessions.iter().map(|s| s.frames_lost).sum(),
            frames_damaged: report.sessions.iter().map(|s| s.frames_damaged).sum(),
            psnr_mdb: (report.mean_psnr_db * 1000.0).round() as u64,
            encode_uj: (report.total_encode_joules * 1e6).round() as u64,
            sent_bytes: report.total_sent_bytes,
            on_front: false,
        }
    })?;
    for i in 0..cells.len() {
        cells[i].on_front = !cells.iter().any(|other| other.dominates(&cells[i]));
    }
    Ok(RdeSweep {
        frames,
        sessions,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid_and_pins_the_zero_gate() {
        let s = run_rde_sweep(16, 2, 2, &Telemetry::disabled()).unwrap();
        assert_eq!(s.cells.len(), 7, "committed grid is seven arms");
        for c in &s.cells {
            assert!(c.psnr_mdb > 0, "every arm must decode something: {c:?}");
            assert_ne!(c.digest, 0);
            assert_eq!(c.frames, 2 * 16, "shedding is disabled");
        }
        let base = s.cell("pbpair").unwrap();
        let zero = s.cell("rde-zero").unwrap();
        assert_eq!(
            zero.digest, base.digest,
            "the inert gate must reproduce pure PBPAIR byte for byte"
        );
        assert_eq!((zero.lambda1_q16, zero.lambda2_q16), (0, 0));
        // The front weakly dominates the baseline at equal energy — the
        // zero arm guarantees a witness even if no active arm wins.
        assert!(
            s.front()
                .iter()
                .any(|c| c.encode_uj <= base.encode_uj && c.psnr_mdb >= base.psnr_mdb),
            "no front arm weakly dominates pure PBPAIR"
        );
        // And the energy lever genuinely engages somewhere on the plane.
        assert!(
            s.cells
                .iter()
                .filter(|c| c.lambda2_q16 > 0)
                .any(|c| c.encode_uj < base.encode_uj),
            "no energy-priced arm encoded cheaper than baseline"
        );
        let json = s.deterministic_json();
        assert!(json.contains("\"arm\":\"rde-r16-e4\""));
        assert!(
            !json.contains('.'),
            "deterministic JSON must be integer-only"
        );
    }

    #[test]
    fn sweep_json_is_worker_count_invariant() {
        let a = run_rde_sweep(12, 2, 1, &Telemetry::disabled())
            .unwrap()
            .deterministic_json();
        let b = run_rde_sweep(12, 2, 4, &Telemetry::disabled())
            .unwrap()
            .deterministic_json();
        assert_eq!(a, b);
    }

    #[test]
    fn front_flags_are_mutually_non_dominated() {
        let s = run_rde_sweep(16, 2, 2, &Telemetry::disabled()).unwrap();
        let front = s.front();
        assert!(!front.is_empty(), "a finite sweep always has a front");
        for a in &front {
            for b in &front {
                assert!(
                    !a.dominates(b),
                    "{} dominates front member {}",
                    a.arm,
                    b.arm
                );
            }
        }
        // Off-front arms are each dominated by someone.
        for c in s.cells.iter().filter(|c| !c.on_front) {
            assert!(
                s.cells.iter().any(|other| other.dominates(c)),
                "{} is off-front yet undominated",
                c.arm
            );
        }
    }
}
