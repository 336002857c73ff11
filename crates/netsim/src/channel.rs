//! The lossy channel: applies a loss model to packet streams and keeps
//! statistics and the fate of each packet.

use crate::loss::LossModel;
use crate::packet::{ChannelStats, Packet};
use crate::rtp::reassemble_frame;
use pbpair_trace::{Event as TraceEvent, Tracer};

/// A simplex lossy channel. Packets go in; the survivors come out, and
/// the channel keeps which of them the loss model dropped
/// ([`LossyChannel::lost`]).
///
/// # Example
///
/// ```rust
/// use pbpair_netsim::{channel::LossyChannel, loss::ScriptedLoss, rtp::Packetizer};
///
/// let mut chan = LossyChannel::new(Box::new(ScriptedLoss::new([1u64])));
/// let mut pkt = Packetizer::new(100);
/// let sent = pkt.packetize(0, &[1u8; 250]); // three fragments
/// let survivors = chan.transmit(&sent);
/// assert_eq!(survivors.len(), 2);
/// assert_eq!(chan.lost(), &[false, true, false]);
/// assert_eq!(chan.stats().packets_lost, 1);
/// ```
pub struct LossyChannel {
    model: Box<dyn LossModel>,
    stats: ChannelStats,
    /// The fate record [`LossyChannel::lost`] returns; its buffer is
    /// reused across calls.
    lost: Vec<bool>,
    trace: Tracer,
}

impl std::fmt::Debug for LossyChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LossyChannel")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl LossyChannel {
    /// Creates a channel driven by the given loss model.
    pub fn new(model: Box<dyn LossModel>) -> Self {
        LossyChannel {
            model,
            stats: ChannelStats::default(),
            lost: Vec::new(),
            trace: Tracer::disabled(),
        }
    }

    /// Attaches a causal tracer: every packet [`transmit`] drops then
    /// emits a `packet_lost` event.
    ///
    /// [`transmit`]: LossyChannel::transmit
    pub(crate) fn set_tracer(&mut self, trace: &Tracer) {
        self.trace = trace.clone();
    }

    /// Statistics since construction.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The fate record of the last [`transmit`] call: one flag per
    /// offered packet, in offered order, `true` where the packet was
    /// lost. Empty before the first call.
    ///
    /// [`transmit`]: LossyChannel::transmit
    pub fn lost(&self) -> &[bool] {
        &self.lost
    }

    /// Advances the loss model's frame clock (see
    /// [`LossModel::on_frame`]). Call once per frame slot, before that
    /// slot's packets are transmitted.
    pub fn on_frame(&mut self, frame: u64) {
        self.model.on_frame(frame);
    }

    /// Replaces the loss model mid-stream, returning the old one.
    /// Statistics are preserved — the channel is still the same link,
    /// the weather on it changed (chaos-injection channel swaps).
    pub fn swap_model(&mut self, model: Box<dyn LossModel>) -> Box<dyn LossModel> {
        std::mem::replace(&mut self.model, model)
    }

    /// Transmits a batch of packets; returns those that survive, in
    /// order. Each packet's fate goes to [`LossyChannel::lost`].
    pub fn transmit(&mut self, packets: &[Packet]) -> Vec<Packet> {
        self.lost.clear();
        let mut out = Vec::with_capacity(packets.len());
        for p in packets {
            let lost = self.model.next_lost();
            self.lost.push(lost);
            self.stats.packets_sent += 1;
            self.stats.bytes_sent += p.len() as u64;
            if lost {
                self.stats.packets_lost += 1;
                self.stats.bytes_lost += p.len() as u64;
                self.trace.emit(TraceEvent::PacketLost {
                    frame: p.frame_index as u32,
                    seq: p.seq,
                    frag: p.fragment_index,
                    frag_count: p.fragment_count,
                    len: p.payload.len() as u32,
                    parity: p.parity,
                });
            } else {
                out.push(p.clone());
            }
        }
        out
    }

    /// Transmits one frame with a **single** loss decision for the whole
    /// frame, regardless of fragment count — the paper's setup, which
    /// "uses the frame loss rate to denote the network packet loss rate".
    /// Returns the frame bytes if it survives.
    pub fn transmit_frame_atomic(&mut self, packets: &[Packet]) -> Option<Vec<u8>> {
        let lost = self.model.next_lost();
        let bytes: u64 = packets.iter().map(|p| p.len() as u64).sum();
        self.stats.packets_sent += packets.len() as u64;
        self.stats.bytes_sent += bytes;
        if lost {
            self.stats.packets_lost += packets.len() as u64;
            self.stats.bytes_lost += bytes;
            self.stats.frames_lost += 1;
            return None;
        }
        match reassemble_frame(packets) {
            Some(f) => {
                self.stats.frames_delivered += 1;
                Some(f)
            }
            None => {
                self.stats.frames_lost += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{NoLoss, ScriptedLoss, UniformLoss};
    use crate::rtp::Packetizer;

    #[test]
    fn lossless_channel_delivers_everything() {
        let mut chan = LossyChannel::new(Box::new(NoLoss));
        let mut pkt = Packetizer::new(64);
        for i in 0..10u64 {
            let data = vec![i as u8; 150];
            let got = reassemble_frame(&chan.transmit(&pkt.packetize(i, &data))).unwrap();
            assert_eq!(got, data);
            assert_eq!(chan.lost(), &[false; 3]);
        }
        assert_eq!(chan.stats().packets_sent, 30);
        assert_eq!(chan.stats().packets_lost, 0);
    }

    #[test]
    fn one_lost_fragment_kills_the_frame() {
        // Frame of 3 fragments; drop the middle packet (seq 1).
        let mut chan = LossyChannel::new(Box::new(ScriptedLoss::new([1u64])));
        let mut pkt = Packetizer::new(64);
        let data = vec![9u8; 180];
        let survivors = chan.transmit(&pkt.packetize(0, &data));
        assert!(reassemble_frame(&survivors).is_none());
        assert_eq!(chan.lost(), &[false, true, false]);
        let s = chan.stats();
        assert_eq!(s.packets_sent, 3);
        assert_eq!(s.packets_lost, 1);
        assert_eq!(s.bytes_lost, 64);
    }

    #[test]
    fn atomic_transmission_makes_one_decision_per_frame() {
        // Loss pattern: drop transmission #0 only. A 3-fragment frame
        // consumes one decision in atomic mode, so the second frame
        // survives even though per-packet mode would consume 3 decisions.
        let mut chan = LossyChannel::new(Box::new(ScriptedLoss::new([0u64])));
        let mut pkt = Packetizer::new(64);
        assert!(chan
            .transmit_frame_atomic(&pkt.packetize(0, &[1u8; 180]))
            .is_none());
        assert!(chan
            .transmit_frame_atomic(&pkt.packetize(1, &[2u8; 180]))
            .is_some());
        let s = chan.stats();
        assert_eq!(s.frames_lost, 1);
        assert_eq!(s.frames_delivered, 1);
        assert_eq!(s.packets_lost, 3, "all fragments of the lost frame count");
    }

    #[test]
    fn stats_track_observed_rate() {
        let mut chan = LossyChannel::new(Box::new(UniformLoss::new(0.2, 5)));
        let mut pkt = Packetizer::new(1000);
        let mut flagged = 0u64;
        for i in 0..5000u64 {
            let _ = chan.transmit(&pkt.packetize(i, &[0u8; 100]));
            flagged += chan.lost().iter().filter(|&&l| l).count() as u64;
        }
        let plr = chan.stats().packet_loss_ratio();
        assert!((plr - 0.2).abs() < 0.02, "observed {plr}");
        // The fate record and the statistics count the same losses.
        assert_eq!(chan.stats().packets_lost, flagged);
    }
}
