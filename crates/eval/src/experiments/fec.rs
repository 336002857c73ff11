//! FEC-family evaluation matrix: channel × codec family × control mode,
//! run through the serving layer.
//!
//! Every protected arm carries the *same* 25% parity budget — fixed
//! codecs by construction (`xor-4.1`, `rs-8.2`, `lt-8.2` all spend one
//! parity byte per four data bytes) and adaptive arms by the joint
//! controller's `budget_ratio = 1.25` wire-byte cap — so differences in
//! residual frame loss are attributable to *how* the budget is spent
//! (code strength, and for adaptive arms the `C^k`-driven split between
//! `Intra_Th` and parity), not to how much redundancy was bought.
//!
//! Channels: independent uniform loss, and the committed Markov
//! burst-erasure scenario (`burst_len 4.0 / guard_len 28.0`, the same
//! `(B,G)` process the scenario matrix pins) — the regime where
//! single-erasure XOR dies and multi-erasure RS/LT earn their keep.
//!
//! Each cell reports an FNV-1a digest of the fleet's deterministic
//! report plus integer fixed-point outcome stats, so
//! `ci/validate_scenarios.py --fec` can gate committed residual-loss
//! and energy bounds without float-formatting hazards.

use super::fleet;
use crate::report::{fmt_f, Table};
use pbpair_netsim::{ChannelSpec, FecSpec};
use pbpair_serve::{DeviceMix, RedundancyConfig, ServeConfig};
use pbpair_telemetry::json;
use pbpair_telemetry::Telemetry;

/// One channel workload of the matrix.
#[derive(Debug, Clone)]
pub struct FecChannel {
    /// Stable name, the key the CI bounds gate on.
    pub name: &'static str,
    /// Forward-channel description (`None` = uniform loss at the
    /// config's base PLR).
    pub channel: Option<ChannelSpec>,
}

/// The two committed channels: independent loss and the scenario
/// matrix's Markov burst-erasure process.
pub fn committed_channels() -> Vec<FecChannel> {
    vec![
        FecChannel {
            name: "uniform",
            channel: None,
        },
        FecChannel {
            name: "markov_burst",
            channel: Some(ChannelSpec::BurstErasure {
                burst_len: 4.0,
                guard_len: 28.0,
            }),
        },
    ]
}

/// One codec/control arm of the matrix.
#[derive(Debug, Clone)]
pub struct FecArm {
    /// Stable arm label (`none`, `xor-fixed`, `rs-adaptive`, ...).
    pub name: &'static str,
    /// Fixed codec on the packet path, if this arm pins one.
    pub fec: Option<FecSpec>,
    /// Joint controller config, if this arm adapts.
    pub redundancy: Option<RedundancyConfig>,
}

/// The seven committed arms: no protection, then {XOR, RS, LT} × {fixed,
/// adaptive}. Every protected arm's wire budget is 1.25× payload.
pub fn committed_arms() -> Vec<FecArm> {
    let adaptive = |family: FecSpec| {
        let mut rc = RedundancyConfig::new(family);
        rc.budget_ratio = 1.25;
        // Parity is capped where the fixed arms sit (r = 2), so the
        // adaptive arms can only *save* budget relative to fixed, never
        // outspend them: short tail blocks still get the full shard
        // count, so deeper parity would inflate real wire overhead past
        // what the controller's k-proportional model prices.
        rc.max_parity = 2;
        rc.gop = 8;
        rc
    };
    vec![
        FecArm {
            name: "none",
            fec: None,
            redundancy: None,
        },
        FecArm {
            name: "xor-fixed",
            fec: Some(FecSpec::Xor { k: 4 }),
            redundancy: None,
        },
        FecArm {
            name: "xor-adaptive",
            fec: None,
            redundancy: Some(adaptive(FecSpec::Xor { k: 4 })),
        },
        FecArm {
            name: "rs-fixed",
            fec: Some(FecSpec::Rs { k: 8, r: 2 }),
            redundancy: None,
        },
        FecArm {
            name: "rs-adaptive",
            fec: None,
            redundancy: Some(adaptive(FecSpec::Rs { k: 8, r: 2 })),
        },
        FecArm {
            name: "lt-fixed",
            fec: Some(FecSpec::Lt {
                k: 8,
                r: 2,
                seed: 7,
            }),
            redundancy: None,
        },
        FecArm {
            name: "lt-adaptive",
            fec: None,
            redundancy: Some(adaptive(FecSpec::Lt {
                k: 8,
                r: 2,
                seed: 7,
            })),
        },
    ]
}

/// One (channel, arm) cell's deterministic outcome.
#[derive(Debug, Clone)]
pub struct FecCell {
    /// Channel name.
    pub channel: String,
    /// Arm name.
    pub arm: String,
    /// Codec label in force at the end of the run (empty for `none`).
    pub codec: String,
    /// FNV-1a of the fleet's deterministic digest.
    pub digest: u64,
    /// Frames encoded fleet-wide.
    pub frames: u64,
    /// Residual whole-frame losses (after FEC repair), fleet-wide.
    pub frames_lost: u64,
    /// Frames delivered damaged (partial loss survived to the decoder).
    pub frames_damaged: u64,
    /// Frames where FEC repaired at least one erased fragment.
    pub fec_recoveries: u64,
    /// Blocks the decoder-side FEC could not repair.
    pub blocks_failed: u64,
    /// Fleet mean PSNR in milli-dB fixed point.
    pub psnr_mdb: u64,
    /// Total modeled encode energy in microjoules.
    pub encode_uj: u64,
    /// Total modeled FEC processing energy in microjoules.
    pub fec_uj: u64,
    /// Bytes offered to the channels (parity included).
    pub sent_bytes: u64,
    /// Parity bytes within `sent_bytes`.
    pub parity_bytes: u64,
}

impl FecCell {
    /// Frames not delivered intact — lost whole or damaged by packet
    /// erasure the FEC could not repair. The residual-loss metric the
    /// smoke gate and CI bounds compare arms on: at packet granularity
    /// whole-frame loss needs *every* fragment erased, so unrepaired
    /// damage is where codecs actually differ.
    pub fn frames_not_intact(&self) -> u64 {
        self.frames_lost + self.frames_damaged
    }

    /// Residual rate (`frames_not_intact / frames`) in parts-per-million.
    pub fn residual_ppm(&self) -> u64 {
        (self.frames_not_intact() * 1_000_000)
            .checked_div(self.frames)
            .unwrap_or(0)
    }

    /// Parity overhead on the wire in parts-per-million of sent bytes.
    pub fn overhead_ppm(&self) -> u64 {
        (self.parity_bytes * 1_000_000)
            .checked_div(self.sent_bytes)
            .unwrap_or(0)
    }
}

/// The full FEC matrix result.
#[derive(Debug, Clone)]
pub struct FecMatrix {
    /// Frames per session in every cell.
    pub frames: usize,
    /// Sessions per cell.
    pub sessions: usize,
    /// Cells in channel-major, arm-second order.
    pub cells: Vec<FecCell>,
}

impl FecMatrix {
    /// Looks a cell up by `(channel, arm)` name.
    pub fn cell(&self, channel: &str, arm: &str) -> Option<&FecCell> {
        self.cells
            .iter()
            .find(|c| c.channel == channel && c.arm == arm)
    }

    /// Human-readable summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(format!(
            "FEC family matrix, {} sessions x {} frames/cell, 1.25x wire budget on every protected arm",
            self.sessions, self.frames
        ));
        t.set_headers([
            "channel", "arm", "codec", "digest", "lost", "damaged", "repairs", "PSNR dB",
            "overhead", "fec mJ",
        ]);
        for c in &self.cells {
            t.add_row([
                c.channel.clone(),
                c.arm.clone(),
                if c.codec.is_empty() {
                    "-".to_string()
                } else {
                    c.codec.clone()
                },
                format!("{:016x}", c.digest),
                format!("{}/{}", c.frames_lost, c.frames),
                c.frames_damaged.to_string(),
                c.fec_recoveries.to_string(),
                fmt_f(c.psnr_mdb as f64 / 1000.0, 2),
                fmt_f(c.overhead_ppm() as f64 / 10_000.0, 1) + "%",
                fmt_f(c.fec_uj as f64 / 1000.0, 3),
            ]);
        }
        t
    }

    /// Deterministic integer-only JSON export (fixed-point rates, hex
    /// digests); byte-identical at any worker count.
    pub fn deterministic_json(&self) -> String {
        json::object(|o| {
            o.field("frames", self.frames)
                .field("sessions", self.sessions)
                .array("cells", |a| {
                    for c in &self.cells {
                        a.object(|o| {
                            o.string("channel", &c.channel)
                                .string("arm", &c.arm)
                                .string("codec", &c.codec)
                                .string("digest", &format!("{:016x}", c.digest))
                                .field("frames", c.frames)
                                .field("frames_lost", c.frames_lost)
                                .field("frames_damaged", c.frames_damaged)
                                .field("fec_recoveries", c.fec_recoveries)
                                .field("blocks_failed", c.blocks_failed)
                                .field("residual_ppm", c.residual_ppm())
                                .field("overhead_ppm", c.overhead_ppm())
                                .field("psnr_mdb", c.psnr_mdb)
                                .field("encode_uj", c.encode_uj)
                                .field("fec_uj", c.fec_uj)
                                .field("sent_bytes", c.sent_bytes)
                                .field("parity_bytes", c.parity_bytes);
                        });
                    }
                });
        })
    }
}

/// Builds the fleet configuration for one cell.
fn cell_config(
    channel: &FecChannel,
    arm: &FecArm,
    frames: usize,
    sessions: usize,
    workers: usize,
) -> ServeConfig {
    ServeConfig {
        corruption: 0.0, // isolate erasures: FEC repairs losses, not flips
        // ~275-byte synthetic frames fragment into ~8 packets at this
        // MTU, so the k=8 block codes operate on full blocks; at the
        // default MTU a frame is one packet and every code degenerates
        // to k=1 with a full-size parity twin.
        mtu: 36,
        channel: channel.channel.clone(),
        fec: arm.fec,
        redundancy: arm.redundancy,
        device_mix: DeviceMix::Alternating,
        ..fleet::base(frames, sessions, workers)
    }
}

/// Runs the full matrix — every committed channel × arm — with every
/// cell's fleet reporting into `tel` (same semantics as the serve
/// binary's `--telemetry`).
///
/// # Errors
///
/// Returns an error for invalid fleet configuration.
pub fn run_fec_matrix(
    frames: usize,
    sessions: usize,
    workers: usize,
    tel: &Telemetry,
) -> Result<FecMatrix, String> {
    let mut grid = Vec::new();
    for channel in committed_channels() {
        for arm in committed_arms() {
            let cfg = cell_config(&channel, &arm, frames, sessions, workers);
            grid.push(((channel.name, arm.name), cfg));
        }
    }
    let cells = fleet::run_cells(grid, tel, false, |(channel, arm), run| {
        let report = run.report;
        FecCell {
            channel: channel.to_string(),
            arm: arm.to_string(),
            codec: report
                .sessions
                .first()
                .map(|s| s.fec_codec.clone())
                .unwrap_or_default(),
            digest: fleet::digest(&report),
            frames: report.sessions.iter().map(|s| s.frames_encoded).sum(),
            frames_lost: report.sessions.iter().map(|s| s.frames_lost).sum(),
            frames_damaged: report.sessions.iter().map(|s| s.frames_damaged).sum(),
            fec_recoveries: report.sessions.iter().map(|s| s.fec_recoveries).sum(),
            blocks_failed: report.sessions.iter().map(|s| s.fec.blocks_failed).sum(),
            psnr_mdb: (report.mean_psnr_db * 1000.0).round() as u64,
            encode_uj: (report.total_encode_joules * 1e6).round() as u64,
            fec_uj: (report.total_fec_joules * 1e6).round() as u64,
            sent_bytes: report.total_sent_bytes,
            parity_bytes: report.sessions.iter().map(|s| s.fec.parity_bytes).sum(),
        }
    })?;
    Ok(FecMatrix {
        frames,
        sessions,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_dimension_and_charges_fec() {
        let m = run_fec_matrix(16, 2, 2, &Telemetry::disabled()).unwrap();
        assert_eq!(m.cells.len(), 2 * 7, "2 channels x 7 arms");
        for c in &m.cells {
            assert!(c.psnr_mdb > 0, "every cell must decode something: {c:?}");
            assert_ne!(c.digest, 0);
            assert_eq!(c.frames, 2 * 16);
            if c.arm == "none" {
                assert_eq!(c.parity_bytes, 0, "{c:?}");
                assert_eq!(c.fec_uj, 0, "{c:?}");
                assert!(c.codec.is_empty());
            } else {
                assert!(c.parity_bytes > 0, "protected arm sent no parity: {c:?}");
                assert!(c.fec_uj > 0, "FEC work must be charged: {c:?}");
                assert!(!c.codec.is_empty());
            }
        }
        let json = m.deterministic_json();
        assert!(json.contains("\"channel\":\"markov_burst\""));
        assert!(json.contains("\"arm\":\"rs-adaptive\""));
        // Integer-only numerics: the only dots allowed are the ones
        // inside codec labels ("rs-8.2").
        let mut numeric_part = String::new();
        let mut rest = json.as_str();
        while let Some(i) = rest.find("\"codec\":\"") {
            let after = &rest[i + 9..];
            let end = after.find('"').expect("codec value is quoted");
            numeric_part.push_str(&rest[..i]);
            rest = &after[end + 1..];
        }
        numeric_part.push_str(rest);
        assert!(
            !numeric_part.contains('.'),
            "deterministic JSON must be integer-only outside codec labels"
        );
    }

    #[test]
    fn matrix_json_is_worker_count_invariant() {
        let a = run_fec_matrix(12, 2, 1, &Telemetry::disabled())
            .unwrap()
            .deterministic_json();
        let b = run_fec_matrix(12, 2, 4, &Telemetry::disabled())
            .unwrap()
            .deterministic_json();
        assert_eq!(a, b);
    }

    #[test]
    fn protected_arms_stay_inside_the_wire_budget() {
        let m = run_fec_matrix(16, 2, 2, &Telemetry::disabled()).unwrap();
        for c in &m.cells {
            // r=2 over k=8 is 20% of wire bytes on full blocks; short
            // tail blocks still carry the full shard count, which lifts
            // the real ratio — bound it at 32% so a genuinely deeper
            // code (or a budget bug) still trips.
            assert!(
                c.overhead_ppm() <= 320_000,
                "{}/{} blew the parity budget: {} ppm",
                c.channel,
                c.arm,
                c.overhead_ppm()
            );
        }
    }

    #[test]
    fn rs_beats_xor_on_the_burst_channel() {
        let m = run_fec_matrix(48, 2, 2, &Telemetry::disabled()).unwrap();
        let xor = m.cell("markov_burst", "xor-fixed").unwrap();
        let rs = m.cell("markov_burst", "rs-adaptive").unwrap();
        assert!(
            rs.frames_not_intact() < xor.frames_not_intact(),
            "adaptive RS must beat fixed XOR under bursts at equal budget: {} vs {}",
            rs.frames_not_intact(),
            xor.frames_not_intact()
        );
    }
}
