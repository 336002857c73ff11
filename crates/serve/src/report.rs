//! Aggregate serving results.
//!
//! A [`ServeReport`] is split along the determinism boundary:
//!
//! * everything in [`SessionReport`] and the fleet-level counters is a
//!   pure function of the [`crate::ServeConfig`] — identical no matter
//!   how many workers executed the run or how the scheduler interleaved
//!   them ([`ServeReport::deterministic_digest`] serializes exactly this
//!   part, and the replay test asserts byte-identity across worker
//!   counts);
//! * [`FleetTiming`] carries the wall-clock measurements (throughput,
//!   latency percentiles) that are the *point* of running with more
//!   workers and are naturally machine- and schedule-dependent.

use crate::health::{HealthState, HealthTransition};
use pbpair_codec::DecodeReport;
use pbpair_netsim::FecOps;
use pbpair_telemetry::slo::AlertEvent;
use std::fmt::Write as _;

/// Per-session outcome (deterministic). A [`crate::Session`] keeps one
/// as its ledger and hands out a completed copy from
/// [`crate::Session::report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionReport {
    /// Session id.
    pub id: u32,
    /// Content class label.
    pub class: String,
    /// Refresh-scheme label (`PBPAIR`, `GOP-n`, ...).
    pub scheme: String,
    /// Device profile label (`ipaq` / `zaurus`).
    pub device: String,
    /// Frames encoded and transmitted.
    pub frames_encoded: u64,
    /// Frames skipped under fleet-imposed rate degradation.
    pub frames_rate_dropped: u64,
    /// Frames lost whole on the channel.
    pub frames_lost: u64,
    /// Frames delivered damaged (resilient decode engaged).
    pub frames_damaged: u64,
    /// Frames the display held because the decoder was stalled.
    pub frames_stalled: u64,
    /// Chaos faults injected into this session.
    pub chaos_injected: u64,
    /// Frames where FEC reconstructed at least one erased fragment.
    pub fec_recoveries: u64,
    /// Lifetime FEC arithmetic ledger (all zero when FEC is off).
    pub fec: FecOps,
    /// Modeled FEC processing energy (Joules).
    pub fec_joules: f64,
    /// Codec label (`"rs-8.2"`, ...); empty when FEC is off.
    pub fec_codec: String,
    /// Mean decoder-side PSNR over every displayed frame slot.
    pub avg_psnr_db: f64,
    /// Encoded payload bytes.
    pub encoded_bytes: u64,
    /// Bytes on the wire (incl. FEC parity).
    pub sent_bytes: u64,
    /// Modeled encoding energy (Joules).
    pub encode_joules: f64,
    /// The receiver's final PLR estimate.
    pub plr_estimate: f64,
    /// `Intra_Th` in force after the last frame.
    pub final_intra_th: f64,
    /// Whether admission control shed this session before the end.
    pub shed: bool,
    /// Final health state of the session's staleness watchdog.
    pub health: HealthState,
    /// Every health transition the watchdog recorded, in frame order.
    pub health_log: Vec<HealthTransition>,
    /// Resilient-decode accounting.
    pub decode: DecodeReport,
}

/// Fleet-wide tally of final session health states (deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetHealth {
    /// Sessions that never left [`HealthState::Healthy`].
    pub healthy: u32,
    /// Sessions ending in [`HealthState::Degraded`].
    pub degraded: u32,
    /// Sessions ending in [`HealthState::Quarantined`].
    pub quarantined: u32,
    /// Sessions that were impaired and ended [`HealthState::Recovered`].
    pub recovered: u32,
}

impl FleetHealth {
    /// Tallies one session's final state.
    pub fn count(&mut self, state: HealthState) {
        match state {
            HealthState::Healthy => self.healthy += 1,
            HealthState::Degraded => self.degraded += 1,
            HealthState::Quarantined => self.quarantined += 1,
            HealthState::Recovered => self.recovered += 1,
        }
    }

    /// Sessions that ended the run impaired (degraded or quarantined).
    pub fn impaired(&self) -> u32 {
        self.degraded + self.quarantined
    }
}

/// Wall-clock fleet measurements (machine- and schedule-dependent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTiming {
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Frames fully processed per wall-clock second.
    pub throughput_fps: f64,
    /// Median per-frame service latency, milliseconds, from the start of
    /// the frame's round (when every live session's frame falls due) to
    /// the frame being done.
    pub p50_frame_ms: f64,
    /// 99th-percentile per-frame service latency from round start,
    /// milliseconds.
    pub p99_frame_ms: f64,
    /// Session frames run by a worker other than the session's home
    /// worker.
    pub migrations: u64,
}

/// The full result of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Worker threads used (recorded for context; does not affect the
    /// deterministic portion).
    pub workers: usize,
    /// Rounds executed (one frame slot per live session per round).
    pub rounds: usize,
    /// Per-session outcomes, ordered by id.
    pub sessions: Vec<SessionReport>,
    /// Sessions shed by admission control.
    pub shed_count: u32,
    /// Rounds spent below normal service level.
    pub degraded_rounds: u64,
    /// Final lag in round-budget units.
    pub final_lag: f64,
    /// Total frames fully processed (encoded + delivered/concealed).
    pub total_frames: u64,
    /// Total bytes offered to the channels.
    pub total_sent_bytes: u64,
    /// Mean of the per-session average PSNRs (unshed sessions).
    pub mean_psnr_db: f64,
    /// Total modeled encode energy (Joules).
    pub total_encode_joules: f64,
    /// Total modeled FEC processing energy (Joules; 0 without FEC).
    pub total_fec_joules: f64,
    /// Final health tally across the fleet.
    pub health: FleetHealth,
    /// SLO burn-rate alert transitions, in firing order (empty unless
    /// the observability plane ran). Deterministic: the engine only sees
    /// deterministic counters.
    pub alerts: Vec<AlertEvent>,
    /// Wall-clock measurements.
    pub timing: FleetTiming,
}

impl ServeReport {
    /// Serializes every schedule-independent field with fixed formatting.
    /// Two runs of the same [`crate::ServeConfig`] must produce
    /// byte-identical digests at *any* worker count — this is the
    /// contract the determinism test enforces.
    pub fn deterministic_digest(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rounds={} shed={} degraded_rounds={} lag={:.9} frames={} sent_bytes={} \
             mean_psnr={:.6} energy_j={:.9}",
            self.rounds,
            self.shed_count,
            self.degraded_rounds,
            self.final_lag,
            self.total_frames,
            self.total_sent_bytes,
            self.mean_psnr_db,
            self.total_encode_joules,
        );
        let _ = writeln!(
            out,
            "health healthy={} degraded={} quarantined={} recovered={}",
            self.health.healthy,
            self.health.degraded,
            self.health.quarantined,
            self.health.recovered,
        );
        // Alert lines only when the observability plane produced any, so
        // observability-off digests (including the committed scenario
        // goldens) keep the pre-observability format.
        for a in &self.alerts {
            let _ = writeln!(
                out,
                "alert round={} slo={} state={} burn_fast_milli={} burn_slow_milli={}",
                a.round,
                a.slo,
                a.state.label(),
                a.burn_fast_milli,
                a.burn_slow_milli,
            );
        }
        for s in &self.sessions {
            let _ = writeln!(
                out,
                "session id={} class={} scheme={} device={} enc={} dropped={} lost={} \
                 damaged={} stalled={} chaos={} fec={} \
                 psnr={:.6} bytes={}/{} j={:.9} plr={:.6} th={:.9} shed={} health={} \
                 dec_frames={} dec_recovered={} dec_mbs={} dec_resyncs={}",
                s.id,
                s.class,
                s.scheme,
                s.device,
                s.frames_encoded,
                s.frames_rate_dropped,
                s.frames_lost,
                s.frames_damaged,
                s.frames_stalled,
                s.chaos_injected,
                s.fec_recoveries,
                s.avg_psnr_db,
                s.encoded_bytes,
                s.sent_bytes,
                s.encode_joules,
                s.plr_estimate,
                s.final_intra_th,
                s.shed,
                s.health.label(),
                s.decode.frames_decoded,
                s.decode.frames_recovered,
                s.decode.mbs_concealed,
                s.decode.resyncs,
            );
            // FEC sub-line only for FEC-enabled sessions, so FEC-off
            // digests (including the committed scenario goldens) are
            // byte-identical to the pre-FEC format.
            if !s.fec_codec.is_empty() {
                let _ = writeln!(
                    out,
                    "  fec session={} codec={} blocks_enc={} blocks_rep={} blocks_fail={} \
                     parity_bytes={} xor_b={} gf_b={} inv={} fec_j={:.9}",
                    s.id,
                    s.fec_codec,
                    s.fec.blocks_encoded,
                    s.fec.blocks_repaired,
                    s.fec.blocks_failed,
                    s.fec.parity_bytes,
                    s.fec.xor_bytes,
                    s.fec.gf_mul_bytes,
                    s.fec.matrix_inversions,
                    s.fec_joules,
                );
            }
            for t in &s.health_log {
                let _ = writeln!(
                    out,
                    "  health_transition session={} frame={} {}->{} reason={}",
                    s.id,
                    t.frame,
                    t.from.label(),
                    t.to.label(),
                    t.reason,
                );
            }
        }
        out
    }
}

/// Computes the `q`-quantile (0 ≤ q ≤ 1) of unsorted samples by the
/// nearest-rank method. Returns 0 for an empty slice.
pub fn quantile_ms(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency is never NaN"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile_ms(&samples, 0.5), 3.0);
        assert_eq!(quantile_ms(&samples, 0.99), 5.0);
        assert_eq!(quantile_ms(&samples, 0.0), 1.0);
        assert_eq!(quantile_ms(&[], 0.5), 0.0);
        assert_eq!(quantile_ms(&[7.0], 0.5), 7.0);
    }
}
