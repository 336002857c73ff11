//! Trace event vocabulary shared by encoder, channel, decoder, and the
//! serve control plane.
//!
//! Events are small `Copy` records so the hot paths can emit them
//! without allocation.

/// Macroblock coding mode codes used in [`Event::MbCoded`].
pub const MODE_INTRA: u8 = 0;
/// Inter (motion-compensated) mode code.
pub const MODE_INTER: u8 = 1;
/// Skip (copy colocated) mode code.
pub const MODE_SKIP: u8 = 2;

/// One trace event. `frame` is always the *encoder* frame index; the
/// decoder does not know it, so pipeline owners (e.g. a serve session)
/// publish the index through [`crate::Tracer::set_frame`] before
/// invoking the decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Encoder coded one macroblock: provenance for the DAG. `mv_x`
    /// and `mv_y` are the integer-pel motion vector (zero for intra
    /// and skip); `bit_start`/`bit_len` locate the MB inside the
    /// frame's bitstream, header bits included in the offset.
    MbCoded {
        frame: u32,
        mb: u16,
        mode: u8,
        mv_x: i16,
        mv_y: i16,
        bit_start: u32,
        bit_len: u32,
    },
    /// The channel dropped a packet. `frag`×MTU gives the byte offset
    /// of the lost payload inside the frame; `parity` marks FEC parity
    /// packets (their loss damages nothing by itself).
    PacketLost {
        frame: u32,
        seq: u32,
        frag: u16,
        frag_count: u16,
        len: u32,
        parity: bool,
    },
    /// The channel delivered a packet with a damaged payload.
    PacketCorrupted {
        frame: u32,
        seq: u32,
        frag: u16,
        frag_count: u16,
        len: u32,
    },
    /// FEC repaired this frame after a loss; the replay pass ignores
    /// the frame's loss events when computing damage.
    FecRecovered { frame: u32 },
    /// Decoder concealed `count` MBs starting at flat index `mb_start`.
    MbConcealed {
        frame: u32,
        mb_start: u16,
        count: u16,
    },
    /// Decoder skipped `bytes_skipped` bytes hunting for a start code.
    Resync { frame: u32, bytes_skipped: u32 },
    /// Decoder concealed an entire frame (`mbs` macroblocks).
    FrameConcealed { frame: u32, mbs: u16 },
    /// The admission controller degraded the fleet (level 1 = floor
    /// raised, 2 = frame drops, 3 = shedding).
    Degraded { round: u32, level: u8 },
}

impl Event {
    /// Frame index the event refers to ([`Event::Degraded`] reports
    /// its round instead).
    pub fn frame(&self) -> u32 {
        match *self {
            Event::MbCoded { frame, .. }
            | Event::PacketLost { frame, .. }
            | Event::PacketCorrupted { frame, .. }
            | Event::FecRecovered { frame }
            | Event::MbConcealed { frame, .. }
            | Event::Resync { frame, .. }
            | Event::FrameConcealed { frame, .. } => frame,
            Event::Degraded { round, .. } => round,
        }
    }

    /// Short stable name, used by both JSON exporters.
    pub fn name(&self) -> &'static str {
        match self {
            Event::MbCoded { .. } => "mb_coded",
            Event::PacketLost { .. } => "packet_lost",
            Event::PacketCorrupted { .. } => "packet_corrupted",
            Event::FecRecovered { .. } => "fec_recovered",
            Event::MbConcealed { .. } => "mb_concealed",
            Event::Resync { .. } => "resync",
            Event::FrameConcealed { .. } => "frame_concealed",
            Event::Degraded { .. } => "degraded",
        }
    }

    /// Whether the tracer's flight tail should capture the event.
    /// Per-MB provenance is high-volume background material; the tail
    /// keeps only transport, decode, and control-plane events so a
    /// dump shows the interesting end of a session.
    pub fn is_flight(&self) -> bool {
        !matches!(self, Event::MbCoded { .. })
    }
}
