//! The paper's §5 future-work extensions, measured end to end:
//!
//! 1. **Channel-coding cooperation** — PBPAIR with and without XOR-parity
//!    FEC on a packet-lossy channel (small MTU, so frames fragment);
//! 2. **Concealment cooperation** — copy vs motion-copy concealment at
//!    the decoder, with PBPAIR's similarity factor matched to each
//!    (§3.1.3's "we can easily adopt various error concealment schemes");
//! 3. **DVS/DFS cooperation** — the per-frame slack PBPAIR creates,
//!    converted into lower XScale operating points by a deadline-driven
//!    governor;
//! 4. **Congestion** — §4.2's claim that GOP's frame-size spikes "will
//!    cause transmission problems such as buffer overflow, higher delay
//!    and link congestion", demonstrated on a bandwidth-limited real-time
//!    link with a playout deadline.

use crate::pipeline::transport;
use crate::report::{fmt_f, fmt_pct, Table};
use pbpair::{PbpairConfig, PbpairPolicy, SimilarityInput};
use pbpair_codec::{Concealment, Decoder, Encoder, EncoderConfig};
use pbpair_energy::{DvfsGovernor, EnergyModel, Joules, IPAQ_H5555};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::SyntheticSequence;
use pbpair_media::VideoFormat;
use pbpair_netsim::{
    reassemble_frame, FecOps, FecProtector, FecSpec, LossyChannel, Packetizer, UniformLoss,
};

/// Result of one FEC configuration.
#[derive(Debug, Clone)]
pub struct FecRow {
    /// Configuration label.
    pub label: String,
    /// Frames usable at the decoder (delivered or FEC-recovered).
    pub frames_usable: u64,
    /// Average PSNR.
    pub avg_psnr: f64,
    /// Payload bytes sent, including parity overhead.
    pub bytes_sent: u64,
}

/// FEC cooperation experiment: PBPAIR over a packet-lossy channel with a
/// small MTU, with and without single-erasure XOR FEC.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn run_fec(frames: usize, packet_loss: f64, mtu: usize) -> Result<Vec<FecRow>, String> {
    let mut rows = Vec::new();
    for (label, spec) in [
        ("no FEC".to_string(), None),
        ("XOR FEC k=4".to_string(), Some(FecSpec::Xor { k: 4 })),
        ("XOR FEC k=2".to_string(), Some(FecSpec::Xor { k: 2 })),
    ] {
        let fec = spec.map(FecProtector::new).transpose()?;
        let mut ops = FecOps::default();
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default())?;
        let mut encoder = Encoder::new(EncoderConfig::default());
        let mut decoder = Decoder::new(VideoFormat::QCIF);
        let mut packetizer = Packetizer::new(mtu);
        let mut channel = LossyChannel::new(Box::new(UniformLoss::new(packet_loss, 404)));
        let mut seq = SyntheticSequence::foreman_class(2005);
        let mut quality = QualityStats::new();
        let mut usable = 0u64;
        let mut bytes_sent = 0u64;
        for _ in 0..frames {
            let original = seq.next_frame();
            let encoded = encoder.encode_frame(&original, &mut policy);
            let data_packets = packetizer.packetize(encoded.index, &encoded.data);
            let sent = match &fec {
                Some(f) => f.protect(&data_packets, &mut ops),
                None => data_packets.clone(),
            };
            bytes_sent += sent.iter().map(|p| p.len() as u64).sum::<u64>();
            let survivors = channel.transmit(&sent);
            let recovered = match &fec {
                Some(f) => f
                    .recover(&survivors, &mut ops)
                    .and_then(|rec| rec.complete.then_some(rec.data)),
                None => (survivors.len() == data_packets.len()).then_some(survivors),
            };
            let arrived = recovered.as_deref().and_then(reassemble_frame);
            usable += u64::from(arrived.is_some());
            quality.record(&original, decoder.receive(arrived.as_deref()).0);
        }
        rows.push(FecRow {
            label,
            frames_usable: usable,
            avg_psnr: quality.average_psnr(),
            bytes_sent,
        });
    }
    Ok(rows)
}

/// Renders the FEC rows.
pub fn fec_table(rows: &[FecRow], frames: usize, packet_loss: f64) -> Table {
    let mut t = Table::new(format!(
        "Extension: XOR-FEC cooperation (foreman, {frames} frames, {:.0}% packet loss, fragmented frames)",
        packet_loss * 100.0
    ));
    t.set_headers(["config", "usable frames", "PSNR (dB)", "sent (KB)"]);
    for r in rows {
        t.add_row([
            r.label.clone(),
            format!("{}/{frames}", r.frames_usable),
            fmt_f(r.avg_psnr, 2),
            fmt_f(r.bytes_sent as f64 / 1024.0, 1),
        ]);
    }
    t
}

/// Result of one concealment configuration.
#[derive(Debug, Clone)]
pub struct ConcealmentRow {
    /// Configuration label.
    pub label: String,
    /// Average PSNR under loss.
    pub avg_psnr: f64,
    /// Total bad pixels.
    pub bad_pixels: u64,
    /// Mean intra ratio (how hard PBPAIR refreshes under this model).
    pub intra_ratio: f64,
}

/// Concealment cooperation: copy vs motion-copy at the decoder, with the
/// encoder's similarity input matched to each.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn run_concealment(frames: usize, plr: f64) -> Result<Vec<ConcealmentRow>, String> {
    let mut rows = Vec::new();
    for (label, concealment, input) in [
        (
            "copy + colocated similarity",
            Concealment::CopyPrevious,
            SimilarityInput::ColocatedSad,
        ),
        (
            "motion-copy + residual similarity",
            Concealment::MotionCopy,
            SimilarityInput::MotionResidual,
        ),
    ] {
        let mut policy = PbpairPolicy::new(
            VideoFormat::QCIF,
            PbpairConfig {
                similarity_input: input,
                plr,
                ..PbpairConfig::default()
            },
        )?;
        let mut encoder = Encoder::new(EncoderConfig::default());
        let mut decoder = Decoder::with_concealment(VideoFormat::QCIF, concealment);
        let mut packetizer = Packetizer::default();
        let mut channel = LossyChannel::new(Box::new(UniformLoss::new(plr, 505)));
        let mut seq = SyntheticSequence::garden_class(2005);
        let mut quality = QualityStats::new();
        let mut intra_acc = 0.0;
        for _ in 0..frames {
            let original = seq.next_frame();
            let encoded = encoder.encode_frame(&original, &mut policy);
            intra_acc += encoded.stats.intra_ratio();
            let shown = transport(&mut packetizer, &mut channel, &mut decoder, &encoded);
            quality.record(&original, shown);
        }
        rows.push(ConcealmentRow {
            label: label.to_string(),
            avg_psnr: quality.average_psnr(),
            bad_pixels: quality.total_bad_pixels(),
            intra_ratio: intra_acc / frames as f64,
        });
    }
    Ok(rows)
}

/// Renders the concealment rows.
pub fn concealment_table(rows: &[ConcealmentRow], frames: usize, plr: f64) -> Table {
    let mut t = Table::new(format!(
        "Extension: concealment cooperation (garden, {frames} frames, PLR {:.0}%)",
        plr * 100.0
    ));
    t.set_headers(["config", "PSNR (dB)", "bad pixels", "intra ratio"]);
    for r in rows {
        t.add_row([
            r.label.clone(),
            fmt_f(r.avg_psnr, 2),
            r.bad_pixels.to_string(),
            fmt_f(r.intra_ratio, 3),
        ]);
    }
    t
}

/// Result of one DVS configuration.
#[derive(Debug, Clone)]
pub struct DvsRow {
    /// Scheme label.
    pub scheme: String,
    /// Energy at the fixed maximum operating point, Joules.
    pub energy_max_level: f64,
    /// Energy with the deadline-driven governor, Joules.
    pub energy_with_dvs: f64,
    /// Relative saving DVS adds on top of the scheme.
    pub dvs_gain: f64,
}

/// DVS cooperation: price each scheme's per-frame cycles with and without
/// the governor at a given frame deadline.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn run_dvs(frames: usize, fps: f64) -> Result<Vec<DvsRow>, String> {
    use pbpair::{build_policy, SchemeSpec};
    let governor = DvfsGovernor::xscale(IPAQ_H5555);
    let model = EnergyModel::new(IPAQ_H5555);
    let deadline = 1.0 / fps;
    let mut rows = Vec::new();
    for spec in [
        SchemeSpec::No,
        SchemeSpec::Pbpair(PbpairConfig {
            intra_th: 0.95,
            ..PbpairConfig::default()
        }),
    ] {
        let mut policy = build_policy(spec, VideoFormat::QCIF)?;
        let mut encoder = Encoder::new(EncoderConfig::paper());
        let mut seq = SyntheticSequence::foreman_class(2005);
        let mut at_max = Joules(0.0);
        let mut with_dvs = Joules(0.0);
        for _ in 0..frames {
            let before = *encoder.ops();
            let _ = encoder.encode_frame(&seq.next_frame(), policy.as_mut());
            let frame_energy = model.encoding_energy(&(*encoder.ops() - before));
            at_max = at_max + frame_energy;
            with_dvs = with_dvs + governor.frame_energy_with_dvs(frame_energy, deadline);
        }
        rows.push(DvsRow {
            scheme: spec.name(),
            energy_max_level: at_max.get(),
            energy_with_dvs: with_dvs.get(),
            dvs_gain: 1.0 - with_dvs.get() / at_max.get(),
        });
    }
    Ok(rows)
}

/// Renders the DVS rows.
pub fn dvs_table(rows: &[DvsRow], frames: usize, fps: f64) -> Table {
    let mut t = Table::new(format!(
        "Extension: DVS/DFS cooperation (foreman, {frames} frames, {fps:.0} fps deadline, full search)"
    ));
    t.set_headers(["scheme", "E @400MHz (J)", "E with DVS (J)", "DVS gain"]);
    for r in rows {
        t.add_row([
            r.scheme.clone(),
            fmt_f(r.energy_max_level, 3),
            fmt_f(r.energy_with_dvs, 3),
            fmt_pct(r.dvs_gain),
        ]);
    }
    t
}

/// Result of one congestion configuration.
#[derive(Debug, Clone)]
pub struct CongestionRow {
    /// Scheme label.
    pub scheme: String,
    /// Average bit rate offered, kbit/s.
    pub avg_kbps: f64,
    /// Frames that missed the playout deadline.
    pub late_frames: u64,
    /// Mean end-to-end delay, ms.
    pub mean_delay_ms: f64,
    /// Worst delay, ms.
    pub max_delay_ms: f64,
    /// Peak sender backlog, bytes.
    pub max_backlog: u64,
}

/// Congestion experiment: every scheme encodes the same clip under the
/// same frame-level rate controller (so average rates match by
/// construction and content-driven variation is smoothed away), then its
/// actual frame-size series is pushed through a real-time link with 25%
/// capacity headroom. What remains is the *scheme-caused* burstiness:
/// GOP's I-frames overshoot the controller (a frame-level controller can
/// only react on the next frame), while distributed-refresh schemes stay
/// near the target every frame.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn run_congestion(frames: usize, fps: f64) -> Result<Vec<CongestionRow>, String> {
    use pbpair::{build_policy, SchemeSpec};
    use pbpair_codec::{Encoder, Qp, RateController};
    use pbpair_media::synth::SyntheticSequence;
    use pbpair_netsim::RealTimeLink;

    let target_bps = 48_000u64;
    let link_bps = (target_bps as f64 * 1.25) as u64;
    let specs: [(String, SchemeSpec); 4] = [
        (
            "PBPAIR".to_string(),
            SchemeSpec::Pbpair(PbpairConfig {
                intra_th: 0.9,
                ..PbpairConfig::default()
            }),
        ),
        (
            "PBPAIR capped".to_string(),
            SchemeSpec::Pbpair(PbpairConfig {
                intra_th: 0.9,
                refresh_cap_ratio: 0.08,
                ..PbpairConfig::default()
            }),
        ),
        ("PGOP-1".to_string(), SchemeSpec::Pgop(1)),
        ("GOP-8".to_string(), SchemeSpec::Gop(8)),
    ];

    let mut rows = Vec::new();
    for (name, spec) in specs {
        let mut policy = build_policy(spec, VideoFormat::QCIF)?;
        let mut encoder = Encoder::new(EncoderConfig::default());
        let mut rc = RateController::new(target_bps, fps, Qp::new(8).expect("valid"))
            .with_qp_bounds(Qp::new(4).expect("valid"), Qp::new(24).expect("valid"));
        let mut seq = SyntheticSequence::foreman_class(2005);
        let mut link = RealTimeLink::new(link_bps, fps, 0.25);
        let mut total_bits = 0u64;
        for i in 0..frames {
            encoder.set_qp(rc.qp());
            let e = encoder.encode_frame(&seq.next_frame(), policy.as_mut());
            rc.frame_encoded(e.stats.bits);
            total_bits += e.stats.bits;
            if i > 0 {
                // Skip the initial I-frame every scheme shares.
                link.offer_frame(e.stats.bits.div_ceil(8));
            }
        }
        let s = *link.stats();
        rows.push(CongestionRow {
            scheme: name,
            avg_kbps: total_bits as f64 / frames as f64 * fps / 1000.0,
            late_frames: s.late_frames,
            mean_delay_ms: s.mean_delay_s() * 1000.0,
            max_delay_ms: s.max_delay_s * 1000.0,
            max_backlog: s.max_backlog_bytes,
        });
    }
    Ok(rows)
}

/// Renders the congestion rows.
pub fn congestion_table(rows: &[CongestionRow], frames: usize, fps: f64) -> Table {
    let mut t = Table::new(format!(
        "Extension: link congestion from bit-rate peaks (foreman, {frames} frames, {fps:.0} fps, 25% link headroom, 250 ms playout)"
    ));
    t.set_headers([
        "scheme",
        "avg kbit/s",
        "late frames",
        "mean delay (ms)",
        "max delay (ms)",
        "peak backlog (B)",
    ]);
    for r in rows {
        t.add_row([
            r.scheme.clone(),
            fmt_f(r.avg_kbps, 1),
            r.late_frames.to_string(),
            fmt_f(r.mean_delay_ms, 1),
            fmt_f(r.max_delay_ms, 1),
            r.max_backlog.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fec_recovers_frames_and_costs_overhead() {
        let rows = run_fec(30, 0.05, 120).unwrap();
        let no_fec = &rows[0];
        let k4 = &rows[1];
        let k2 = &rows[2];
        assert!(
            k4.frames_usable > no_fec.frames_usable,
            "FEC must recover frames: {} vs {}",
            k4.frames_usable,
            no_fec.frames_usable
        );
        assert!(k4.avg_psnr >= no_fec.avg_psnr);
        // Stronger code, more overhead.
        assert!(k2.bytes_sent > k4.bytes_sent);
        assert!(k4.bytes_sent > no_fec.bytes_sent);
        assert!(!fec_table(&rows, 30, 0.05).is_empty());
    }

    #[test]
    fn matched_concealment_beats_plain_copy_on_panning_content() {
        let rows = run_concealment(24, 0.15).unwrap();
        let copy = &rows[0];
        let motion = &rows[1];
        assert!(
            motion.avg_psnr > copy.avg_psnr,
            "motion-copy concealment must win on a pan: {} vs {}",
            motion.avg_psnr,
            copy.avg_psnr
        );
        assert!(!concealment_table(&rows, 24, 0.15).is_empty());
    }

    #[test]
    fn capped_pbpair_is_the_smoothest_stream() {
        let rows = run_congestion(40, 15.0).unwrap();
        let capped = rows.iter().find(|r| r.scheme == "PBPAIR capped").unwrap();
        let gop = rows.iter().find(|r| r.scheme == "GOP-8").unwrap();
        assert!(
            gop.max_delay_ms > capped.max_delay_ms,
            "GOP peaks must cause worse delay than capped PBPAIR: {} vs {}",
            gop.max_delay_ms,
            capped.max_delay_ms
        );
        assert!(
            gop.max_backlog > capped.max_backlog,
            "GOP must build a deeper queue than capped PBPAIR"
        );
        assert_eq!(capped.late_frames, 0, "capped PBPAIR must never be late");
        assert!(!congestion_table(&rows, 40, 15.0).is_empty());
    }

    #[test]
    fn dvs_amplifies_pbpair_saving() {
        let rows = run_dvs(6, 5.0).unwrap();
        let no = &rows[0];
        let pb = &rows[1];
        // PBPAIR uses fewer cycles, so the governor can clock lower more
        // often: its DVS gain must be at least NO's.
        assert!(pb.energy_max_level < no.energy_max_level);
        assert!(pb.energy_with_dvs < no.energy_with_dvs);
        assert!(
            pb.dvs_gain >= no.dvs_gain - 1e-9,
            "PBPAIR slack must buy at least as much DVS gain: {} vs {}",
            pb.dvs_gain,
            no.dvs_gain
        );
        assert!(!dvs_table(&rows, 6, 5.0).is_empty());
    }
}
