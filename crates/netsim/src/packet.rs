//! Packet types.

/// One network packet carrying (a fragment of) an encoded video frame —
/// the RTP-payload abstraction of the paper's transport: "the
//  variable-size encoded output of each frame is contained by a single
/// packet as long as it does not exceed the maximum transfer unit".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Monotonic sequence number across the session (RTP sequence).
    pub seq: u32,
    /// Index of the video frame this packet belongs to (RTP timestamp
    /// analogue).
    pub frame_index: u64,
    /// Fragment position within the frame, `0..fragment_count`.
    pub fragment_index: u16,
    /// Total fragments of this frame.
    pub fragment_count: u16,
    /// Payload bytes: one fragment of the encoded frame, or FEC parity.
    pub payload: Vec<u8>,
    /// True for forward-error-correction parity packets (see
    /// [`crate::fec`]); false for media data.
    pub parity: bool,
}

impl Packet {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty (never produced by the packetizer).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Running transmission statistics of a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Packets handed to the channel.
    pub packets_sent: u64,
    /// Packets dropped by the loss model.
    pub packets_lost: u64,
    /// Payload bytes handed to the channel.
    pub bytes_sent: u64,
    /// Payload bytes dropped.
    pub bytes_lost: u64,
    /// Frames [`LossyChannel::transmit_frame_atomic`] delivered.
    ///
    /// [`LossyChannel::transmit_frame_atomic`]: crate::LossyChannel::transmit_frame_atomic
    pub frames_delivered: u64,
    /// Frames [`LossyChannel::transmit_frame_atomic`] lost.
    ///
    /// [`LossyChannel::transmit_frame_atomic`]: crate::LossyChannel::transmit_frame_atomic
    pub frames_lost: u64,
}

impl ChannelStats {
    /// Observed packet-loss ratio, `0.0` when nothing was sent.
    pub fn packet_loss_ratio(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.packets_lost as f64 / self.packets_sent as f64
        }
    }

    /// Observed frame-loss ratio, `0.0` when nothing was sent.
    pub fn frame_loss_ratio(&self) -> f64 {
        let total = self.frames_delivered + self.frames_lost;
        if total == 0 {
            0.0
        } else {
            self.frames_lost as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_accessors() {
        let p = Packet {
            seq: 1,
            frame_index: 7,
            fragment_index: 0,
            fragment_count: 1,
            payload: b"abc".to_vec(),
            parity: false,
        };
        assert_eq!(p.fragment_count, 1);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn stats_ratios() {
        let s = ChannelStats {
            packets_sent: 10,
            packets_lost: 3,
            frames_delivered: 6,
            frames_lost: 2,
            ..ChannelStats::default()
        };
        assert!((s.packet_loss_ratio() - 0.3).abs() < 1e-12);
        assert!((s.frame_loss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(ChannelStats::default().packet_loss_ratio(), 0.0);
        assert_eq!(ChannelStats::default().frame_loss_ratio(), 0.0);
    }
}
