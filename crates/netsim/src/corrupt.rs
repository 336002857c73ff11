//! Payload-level fault injection.
//!
//! The loss models in [`crate::loss`] damage traffic at whole-packet
//! granularity: a packet either arrives intact or not at all. Real
//! wireless channels are messier — residual bit errors slip past link
//! CRCs, interleavers smear fades into in-payload burst erasures, and
//! transport quirks duplicate or reorder datagrams. This module injects
//! exactly that class of damage, deterministically from a seed, so the
//! decoder's resilience path (resync + concealment, see
//! `pbpair_codec::DecodeReport`) can be exercised and measured
//! end-to-end.
//!
//! Everything composes with the existing [`LossModel`]s: a
//! [`CorruptingChannel`] applies packet loss first (Uniform,
//! Gilbert–Elliott, Scripted, …) and then damages the survivors in
//! place, so each delivered packet is copied once, by the loss stage.
//!
//! # Example
//!
//! ```rust
//! use pbpair_netsim::corrupt::{CorruptingChannel, CorruptionProfile, Delivery};
//! use pbpair_netsim::{loss::UniformLoss, rtp::Packetizer};
//!
//! let mut chan = CorruptingChannel::new(
//!     Box::new(UniformLoss::new(0.05, 7)),
//!     CorruptionProfile::light(),
//!     42,
//! );
//! let mut pkt = Packetizer::new(200);
//! match chan.transmit_frame(&pkt.packetize(0, &[0u8; 900])) {
//!     Delivery::Intact(bytes) => assert_eq!(bytes.len(), 900),
//!     Delivery::Damaged(bytes) => assert!(!bytes.is_empty()),
//!     Delivery::Lost => {}
//! }
//! ```

use crate::channel::LossyChannel;
use crate::loss::LossModel;
use crate::packet::{ChannelStats, Packet};
use pbpair_telemetry::{Counter, Span, Stage, Telemetry};
use pbpair_trace::{Event as TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-packet damage probabilities and magnitudes. All probabilities are
/// independent per packet; several kinds of damage can hit the same
/// packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionProfile {
    /// Probability that a packet's payload receives random bit flips.
    pub flip_prob: f64,
    /// Upper bound on flipped bits per damaged packet (at least 1).
    pub max_flips: u32,
    /// Probability that a packet's payload is truncated.
    pub truncate_prob: f64,
    /// Probability of a burst erasure (a zeroed run) inside the payload.
    pub burst_prob: f64,
    /// Upper bound on the erased run length in bytes (at least 1).
    pub max_burst_len: usize,
    /// Probability that a packet is duplicated in the delivered stream.
    pub duplicate_prob: f64,
    /// Probability that a packet swaps places with its successor.
    pub reorder_prob: f64,
}

impl Default for CorruptionProfile {
    fn default() -> Self {
        CorruptionProfile::clean()
    }
}

impl CorruptionProfile {
    /// No damage at all; the identity profile.
    pub fn clean() -> Self {
        CorruptionProfile {
            flip_prob: 0.0,
            max_flips: 1,
            truncate_prob: 0.0,
            burst_prob: 0.0,
            max_burst_len: 1,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
        }
    }

    /// Sparse residual bit errors with occasional truncation — the
    /// "link CRC mostly works" regime.
    pub fn light() -> Self {
        CorruptionProfile {
            flip_prob: 0.05,
            max_flips: 3,
            truncate_prob: 0.01,
            burst_prob: 0.01,
            max_burst_len: 16,
            duplicate_prob: 0.005,
            reorder_prob: 0.005,
        }
    }

    /// Aggressive damage: frequent flips, bursts, and truncation — deep
    /// fades on an unprotected link.
    pub fn heavy() -> Self {
        CorruptionProfile {
            flip_prob: 0.35,
            max_flips: 24,
            truncate_prob: 0.10,
            burst_prob: 0.15,
            max_burst_len: 128,
            duplicate_prob: 0.02,
            reorder_prob: 0.02,
        }
    }

    /// Interpolates damage intensity on `[0, 1]`: `0.0` is [`clean`],
    /// `1.0` is [`heavy`]. Used by the corruption-sweep experiment to
    /// turn one scalar into a profile.
    ///
    /// [`clean`]: CorruptionProfile::clean
    /// [`heavy`]: CorruptionProfile::heavy
    pub fn with_intensity(intensity: f64) -> Self {
        let x = intensity.clamp(0.0, 1.0);
        let heavy = CorruptionProfile::heavy();
        CorruptionProfile {
            flip_prob: heavy.flip_prob * x,
            max_flips: 1 + ((heavy.max_flips - 1) as f64 * x).round() as u32,
            truncate_prob: heavy.truncate_prob * x,
            burst_prob: heavy.burst_prob * x,
            max_burst_len: 1 + ((heavy.max_burst_len - 1) as f64 * x).round() as usize,
            duplicate_prob: heavy.duplicate_prob * x,
            reorder_prob: heavy.reorder_prob * x,
        }
    }
}

/// Running tally of injected damage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorruptionStats {
    /// Packets whose payload was altered (flip, truncate, or burst).
    pub packets_damaged: u64,
    /// Individual bits flipped.
    pub bits_flipped: u64,
    /// Bytes removed by truncation.
    pub bytes_truncated: u64,
    /// Bytes overwritten by burst erasures.
    pub bytes_erased: u64,
    /// Packets duplicated into the stream.
    pub packets_duplicated: u64,
    /// Adjacent swaps applied to the stream.
    pub packets_reordered: u64,
}

/// Seeded, deterministic payload corrupter.
#[derive(Debug, Clone)]
pub struct Corrupter {
    profile: CorruptionProfile,
    rng: StdRng,
    stats: CorruptionStats,
    trace: Tracer,
}

impl Corrupter {
    /// Creates a corrupter with the given damage profile and seed.
    pub fn new(profile: CorruptionProfile, seed: u64) -> Self {
        Corrupter {
            profile,
            rng: StdRng::seed_from_u64(seed),
            stats: CorruptionStats::default(),
            trace: Tracer::disabled(),
        }
    }

    /// Attaches a causal tracer; every damaged packet then emits a
    /// `packet_corrupted` event carrying the packet→fragment mapping.
    pub fn set_tracer(&mut self, trace: &Tracer) {
        self.trace = trace.clone();
    }

    /// The damage profile.
    pub fn profile(&self) -> &CorruptionProfile {
        &self.profile
    }

    /// Damage injected since construction. Two corrupters built from
    /// one profile and seed inject the same damage.
    pub fn stats(&self) -> &CorruptionStats {
        &self.stats
    }

    /// Applies flip/truncate/burst decisions to a raw byte buffer in
    /// place. Returns `true` if the buffer was altered. Empty buffers
    /// pass through untouched.
    pub fn corrupt_bytes(&mut self, data: &mut Vec<u8>) -> bool {
        if data.is_empty() {
            return false;
        }
        let mut damaged = false;
        if self.profile.flip_prob > 0.0 && self.rng.gen_bool(self.profile.flip_prob) {
            let flips = self.rng.gen_range(1..=self.profile.max_flips.max(1));
            for _ in 0..flips {
                let byte = self.rng.gen_range(0..data.len());
                let bit = self.rng.gen_range(0u32..8);
                data[byte] ^= 1 << bit;
            }
            self.stats.bits_flipped += flips as u64;
            damaged = true;
        }
        if self.profile.burst_prob > 0.0 && self.rng.gen_bool(self.profile.burst_prob) {
            let start = self.rng.gen_range(0..data.len());
            let cap = self.profile.max_burst_len.max(1).min(data.len() - start);
            let len = self.rng.gen_range(1..=cap);
            for b in &mut data[start..start + len] {
                *b = 0;
            }
            self.stats.bytes_erased += len as u64;
            damaged = true;
        }
        if self.profile.truncate_prob > 0.0
            && data.len() >= 2
            && self.rng.gen_bool(self.profile.truncate_prob)
        {
            let keep = self.rng.gen_range(1..data.len());
            self.stats.bytes_truncated += (data.len() - keep) as u64;
            data.truncate(keep);
            damaged = true;
        }
        damaged
    }

    /// Applies payload damage to `packet` in place (metadata is never
    /// altered — headers are assumed protected by the link layer,
    /// matching how RTP survives payload damage). A damaged packet emits
    /// a `packet_corrupted` event carrying its length before the damage.
    pub fn corrupt_packet(&mut self, packet: &mut Packet) {
        let len = packet.payload.len() as u32;
        if self.corrupt_bytes(&mut packet.payload) {
            self.stats.packets_damaged += 1;
            self.trace.emit(TraceEvent::PacketCorrupted {
                frame: packet.frame_index as u32,
                seq: packet.seq,
                frag: packet.fragment_index,
                frag_count: packet.fragment_count,
                len,
            });
        }
    }

    /// Applies per-packet payload damage plus stream-level duplication
    /// and adjacent reordering to a packet sequence, in place. A
    /// duplicate is a copy of the damaged packet, placed right after it.
    pub fn corrupt_stream(&mut self, packets: &mut Vec<Packet>) {
        let mut i = 0;
        while i < packets.len() {
            self.corrupt_packet(&mut packets[i]);
            if self.profile.duplicate_prob > 0.0 && self.rng.gen_bool(self.profile.duplicate_prob) {
                packets.insert(i + 1, packets[i].clone());
                self.stats.packets_duplicated += 1;
                i += 1;
            }
            i += 1;
        }
        if self.profile.reorder_prob > 0.0 {
            let mut i = 0;
            while i + 1 < packets.len() {
                if self.rng.gen_bool(self.profile.reorder_prob) {
                    packets.swap(i, i + 1);
                    self.stats.packets_reordered += 1;
                    i += 2; // a swapped pair is settled; don't re-swap
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Best-effort reassembly of a (possibly damaged) fragment stream:
/// duplicates are dropped (first arrival wins), fragments are ordered by
/// index, missing fragments leave gaps, and whatever payload is present
/// is concatenated. Returns `None` only when no usable fragment exists.
///
/// This is the receiver behaviour that feeds a *resilient* decoder —
/// contrast [`crate::rtp::reassemble_frame`], which is all-or-nothing
/// for the classic brittle decode path.
pub fn reassemble_frame_damaged(packets: &[Packet]) -> Option<Vec<u8>> {
    let first = packets.iter().find(|p| !p.parity)?;
    let frame_index = first.frame_index;
    let count = first.fragment_count as usize;
    let mut slots: Vec<Option<&Packet>> = vec![None; count.max(1)];
    for p in packets {
        if p.parity || p.frame_index != frame_index || p.fragment_index as usize >= slots.len() {
            continue;
        }
        let slot = &mut slots[p.fragment_index as usize];
        if slot.is_none() {
            *slot = Some(p);
        }
    }
    let mut out = Vec::new();
    for s in slots.iter().flatten() {
        out.extend_from_slice(&s.payload);
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// What came out of a [`CorruptingChannel`] for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Every fragment arrived unaltered.
    Intact(Vec<u8>),
    /// Something arrived, but fragments were damaged, lost, duplicated,
    /// or reordered; the bytes are a best-effort reconstruction.
    Damaged(Vec<u8>),
    /// Nothing usable arrived.
    Lost,
}

impl Delivery {
    /// The delivered bytes, if any.
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Delivery::Intact(b) | Delivery::Damaged(b) => Some(b),
            Delivery::Lost => None,
        }
    }
}

/// A lossy channel that also injects payload-level corruption: packet
/// loss (any [`LossModel`]) is applied first, then the surviving
/// packets run through a [`Corrupter`]; [`transmit_frame`] then
/// reassembles them best-effort.
///
/// [`transmit_frame`]: CorruptingChannel::transmit_frame
pub struct CorruptingChannel {
    inner: LossyChannel,
    corrupter: Corrupter,
    /// Pre-resolved telemetry handles; `None` until
    /// [`CorruptingChannel::set_telemetry`] attaches an enabled context.
    /// Flushed per transmit call as deltas of the already-deterministic
    /// loss/corruption tallies.
    tel: Option<ChannelTelemetry>,
}

/// Telemetry handles the channel flushes per transmit call.
#[derive(Debug)]
struct ChannelTelemetry {
    /// Stage `"channel"`; one span per transmit call, virtual units =
    /// payload bytes offered.
    stage: Stage,
    packets_sent: Counter,
    packets_lost: Counter,
    packets_corrupted: Counter,
    bits_flipped: Counter,
    bytes_sent: Counter,
    bytes_lost: Counter,
}

impl ChannelTelemetry {
    fn new(tel: &Telemetry) -> Self {
        ChannelTelemetry {
            stage: tel.stage("channel"),
            packets_sent: tel.counter("net.packets_sent"),
            packets_lost: tel.counter("net.packets_lost"),
            packets_corrupted: tel.counter("net.packets_corrupted"),
            bits_flipped: tel.counter("net.bits_flipped"),
            bytes_sent: tel.counter("net.bytes_sent"),
            bytes_lost: tel.counter("net.bytes_lost"),
        }
    }

    /// Flushes the difference between two (loss, corruption) snapshots
    /// and closes the call's span.
    fn note_delta(
        &self,
        mut span: Span,
        loss_before: &ChannelStats,
        loss_after: &ChannelStats,
        corr_before: &CorruptionStats,
        corr_after: &CorruptionStats,
    ) {
        span.add_units(loss_after.bytes_sent - loss_before.bytes_sent);
        self.packets_sent
            .inc(loss_after.packets_sent - loss_before.packets_sent);
        self.packets_lost
            .inc(loss_after.packets_lost - loss_before.packets_lost);
        self.packets_corrupted
            .inc(corr_after.packets_damaged - corr_before.packets_damaged);
        self.bits_flipped
            .inc(corr_after.bits_flipped - corr_before.bits_flipped);
        self.bytes_sent
            .inc(loss_after.bytes_sent - loss_before.bytes_sent);
        self.bytes_lost
            .inc(loss_after.bytes_lost - loss_before.bytes_lost);
    }
}

impl std::fmt::Debug for CorruptingChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorruptingChannel")
            .field("loss", &self.inner)
            .field("corruption", self.corrupter.stats())
            .finish()
    }
}

impl CorruptingChannel {
    /// Builds a channel from a loss model, a damage profile, and the
    /// corruption seed.
    pub fn new(model: Box<dyn LossModel>, profile: CorruptionProfile, seed: u64) -> Self {
        CorruptingChannel {
            inner: LossyChannel::new(model),
            corrupter: Corrupter::new(profile, seed),
            tel: None,
        }
    }

    /// Attaches a causal tracer to the loss stage and the corrupter;
    /// subsequent transmissions emit per-packet loss and corruption
    /// events carrying the packet→fragment mapping the replay joins on.
    pub fn set_tracer(&mut self, trace: &Tracer) {
        self.inner.set_tracer(trace);
        self.corrupter.set_tracer(trace);
    }

    /// Attaches a telemetry context; subsequent transmissions flush
    /// their deterministic loss/corruption deltas into it (`net.*`
    /// metrics and the `"channel"` stage). A disabled context detaches.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.is_enabled().then(|| ChannelTelemetry::new(tel));
    }

    /// Payload bytes offered to the channel so far, lost packets
    /// included.
    pub fn sent_bytes(&self) -> u64 {
        self.inner.stats().bytes_sent
    }

    /// The fate record of the last transmit call: one flag per offered
    /// packet, in offered order, `true` where the loss model dropped it
    /// (see [`LossyChannel::lost`]).
    pub fn lost(&self) -> &[bool] {
        self.inner.lost()
    }

    /// Advances the loss model's frame clock (see
    /// [`crate::loss::LossModel::on_frame`]); call once per frame slot
    /// before transmitting that slot's packets.
    pub fn on_frame(&mut self, frame: u64) {
        self.inner.on_frame(frame);
    }

    /// Replaces the loss model mid-stream (chaos-injection channel
    /// swaps), preserving loss statistics. Returns the old model.
    pub fn swap_model(&mut self, model: Box<dyn LossModel>) -> Box<dyn LossModel> {
        self.inner.swap_model(model)
    }

    /// Corruption statistics.
    pub fn corruption_stats(&self) -> &CorruptionStats {
        self.corrupter.stats()
    }

    /// Transmits one frame's packets: loss first, then corruption, then
    /// best-effort reassembly. The frame is [`Delivery::Intact`] when no
    /// packet was lost and the corrupter touched nothing.
    pub fn transmit_frame(&mut self, packets: &[Packet]) -> Delivery {
        let (delivered, untouched) = self.transmit(packets);
        match reassemble_frame_damaged(&delivered) {
            None => Delivery::Lost,
            Some(bytes) if untouched => Delivery::Intact(bytes),
            Some(bytes) => Delivery::Damaged(bytes),
        }
    }

    /// Transmits a batch of packets and returns the survivors *without*
    /// reassembling them: loss first, then payload corruption. This is
    /// the packet-granularity entry point receivers with their own
    /// recovery machinery need — notably [`crate::fec::FecProtector`], whose
    /// parity recovery must run on the surviving packet set before any
    /// reassembly collapses it to bytes.
    pub fn transmit_packets(&mut self, packets: &[Packet]) -> Vec<Packet> {
        self.transmit(packets).0
    }

    /// The one transmit body: loss, then in-place corruption of the
    /// survivors, then one telemetry flush, all inside one `"channel"`
    /// span. Also returns whether the delivery is untouched: nothing
    /// lost, damaged, duplicated or reordered.
    fn transmit(&mut self, packets: &[Packet]) -> (Vec<Packet>, bool) {
        let span = self.tel.as_ref().map(|t| t.stage.span());
        let loss_before = *self.inner.stats();
        let corr_before = *self.corrupter.stats();
        let mut delivered = self.inner.transmit(packets);
        self.corrupter.corrupt_stream(&mut delivered);
        if let (Some(t), Some(span)) = (&self.tel, span) {
            t.note_delta(
                span,
                &loss_before,
                self.inner.stats(),
                &corr_before,
                self.corrupter.stats(),
            );
        }
        let untouched =
            !self.inner.lost().contains(&true) && *self.corrupter.stats() == corr_before;
        (delivered, untouched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{NoLoss, UniformLoss};
    use crate::rtp::Packetizer;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn clean_profile_is_identity() {
        let mut c = Corrupter::new(CorruptionProfile::clean(), 1);
        let mut pkt = Packetizer::new(100);
        let data = payload(350);
        let pkts = pkt.packetize(0, &data);
        let mut out = pkts.clone();
        c.corrupt_stream(&mut out);
        assert_eq!(out, pkts);
        assert_eq!(c.stats(), &CorruptionStats::default());
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let profile = CorruptionProfile::heavy();
        let mut a = Corrupter::new(profile, 77);
        let mut b = Corrupter::new(profile, 77);
        let mut pkt = Packetizer::new(64);
        for f in 0..20u64 {
            let mut x = pkt.packetize(f, &payload(500));
            let mut y = x.clone();
            a.corrupt_stream(&mut x);
            b.corrupt_stream(&mut y);
            assert_eq!(x, y);
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().packets_damaged > 0, "heavy profile must damage");
    }

    #[test]
    fn bit_flips_flip_exactly_counted_bits() {
        let profile = CorruptionProfile {
            flip_prob: 1.0,
            max_flips: 8,
            ..CorruptionProfile::clean()
        };
        let mut c = Corrupter::new(profile, 3);
        let original = payload(256);
        let mut data = original.clone();
        assert!(c.corrupt_bytes(&mut data));
        assert_eq!(data.len(), original.len(), "flips never change length");
        let differing_bits: u32 = original
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        // Flips can collide on the same bit (flipping it back), so the
        // observed Hamming distance is at most the counted flips and has
        // matching parity.
        assert!(differing_bits as u64 <= c.stats().bits_flipped);
        assert_eq!(differing_bits as u64 % 2, c.stats().bits_flipped % 2);
        assert!(c.stats().bits_flipped >= 1);
    }

    #[test]
    fn truncation_shortens_but_never_empties() {
        let profile = CorruptionProfile {
            truncate_prob: 1.0,
            ..CorruptionProfile::clean()
        };
        let mut c = Corrupter::new(profile, 11);
        for n in [2usize, 3, 10, 500] {
            let mut data = payload(n);
            assert!(c.corrupt_bytes(&mut data));
            assert!(!data.is_empty() && data.len() < n);
        }
        // A 1-byte payload cannot be truncated further.
        let mut tiny = vec![42u8];
        assert!(!c.corrupt_bytes(&mut tiny));
        assert_eq!(tiny, vec![42u8]);
    }

    #[test]
    fn bursts_zero_a_run_within_bounds() {
        let profile = CorruptionProfile {
            burst_prob: 1.0,
            max_burst_len: 32,
            ..CorruptionProfile::clean()
        };
        let mut c = Corrupter::new(profile, 13);
        let mut data = vec![0xFFu8; 300];
        assert!(c.corrupt_bytes(&mut data));
        let zeroed = data.iter().filter(|&&b| b == 0).count();
        assert!((1..=32).contains(&zeroed));
        assert_eq!(zeroed as u64, c.stats().bytes_erased);
        // The zeroed bytes form one contiguous run.
        let first = data.iter().position(|&b| b == 0).unwrap();
        let last = data.iter().rposition(|&b| b == 0).unwrap();
        assert_eq!(last - first + 1, zeroed);
    }

    #[test]
    fn duplication_and_reorder_touch_the_stream() {
        let profile = CorruptionProfile {
            duplicate_prob: 0.5,
            reorder_prob: 0.5,
            ..CorruptionProfile::clean()
        };
        let mut c = Corrupter::new(profile, 17);
        let mut pkt = Packetizer::new(50);
        let pkts = pkt.packetize(0, &payload(500)); // 10 fragments
        let mut out = pkts.clone();
        c.corrupt_stream(&mut out);
        assert_eq!(
            out.len(),
            pkts.len() + c.stats().packets_duplicated as usize
        );
        assert!(c.stats().packets_duplicated > 0);
        assert!(c.stats().packets_reordered > 0);
        // Payloads are untouched by dup/reorder.
        assert!(c.stats().packets_damaged == 0);
    }

    #[test]
    fn damaged_reassembly_tolerates_dups_gaps_and_order() {
        let mut pkt = Packetizer::new(100);
        let data = payload(300);
        let mut pkts = pkt.packetize(0, &data); // 3 fragments
        pkts.swap(0, 2); // reorder
        pkts.push(pkts[1].clone()); // duplicate
        assert_eq!(reassemble_frame_damaged(&pkts).unwrap(), data);
        // Drop the middle fragment: the rest still concatenates.
        let gappy: Vec<Packet> = pkts
            .iter()
            .filter(|p| p.fragment_index != 1)
            .cloned()
            .collect();
        let partial = reassemble_frame_damaged(&gappy).unwrap();
        assert_eq!(partial.len(), 200);
        assert_eq!(&partial[..100], &data[..100]);
        assert_eq!(&partial[100..], &data[200..]);
        assert!(reassemble_frame_damaged(&[]).is_none());
    }

    #[test]
    fn corrupting_channel_composes_loss_and_damage() {
        let mut chan = CorruptingChannel::new(
            Box::new(UniformLoss::new(0.3, 21)),
            CorruptionProfile::heavy(),
            22,
        );
        let mut pkt = Packetizer::new(120);
        let mut intact = 0u32;
        let mut damaged = 0u32;
        let mut lost = 0u32;
        let mut packets_lost = 0usize;
        for f in 0..400u64 {
            match chan.transmit_frame(&pkt.packetize(f, &payload(600))) {
                Delivery::Intact(b) => {
                    assert_eq!(b, payload(600));
                    intact += 1;
                }
                Delivery::Damaged(b) => {
                    assert!(!b.is_empty());
                    damaged += 1;
                }
                Delivery::Lost => lost += 1,
            }
            packets_lost += chan.lost().iter().filter(|&&l| l).count();
        }
        assert!(intact > 0, "some frames must pass clean");
        assert!(damaged > 0, "some frames must arrive damaged");
        assert!(lost > 0, "per-packet loss should kill some frames whole");
        assert!(packets_lost > 0);
        assert!(chan.corruption_stats().packets_damaged > 0);
    }

    #[test]
    fn corrupting_channel_with_clean_profile_matches_lossless_delivery() {
        let mut chan = CorruptingChannel::new(Box::new(NoLoss), CorruptionProfile::clean(), 0);
        let mut pkt = Packetizer::new(90);
        let data = payload(450);
        match chan.transmit_frame(&pkt.packetize(0, &data)) {
            Delivery::Intact(b) => assert_eq!(b, data),
            other => panic!("expected intact delivery, got {other:?}"),
        }
    }

    #[test]
    fn intensity_interpolates_between_clean_and_heavy() {
        assert_eq!(
            CorruptionProfile::with_intensity(0.0),
            CorruptionProfile::clean()
        );
        assert_eq!(
            CorruptionProfile::with_intensity(1.0),
            CorruptionProfile::heavy()
        );
        let mid = CorruptionProfile::with_intensity(0.5);
        assert!(mid.flip_prob > 0.0 && mid.flip_prob < CorruptionProfile::heavy().flip_prob);
        // Out-of-range intensities clamp.
        assert_eq!(
            CorruptionProfile::with_intensity(-3.0),
            CorruptionProfile::clean()
        );
        assert_eq!(
            CorruptionProfile::with_intensity(7.0),
            CorruptionProfile::heavy()
        );
    }
}
