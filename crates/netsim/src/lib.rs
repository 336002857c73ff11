//! Lossy packet-network simulator for the PBPAIR reproduction.
//!
//! Models the transport of the paper's evaluation: RTP-style
//! packetization with MTU fragmentation ([`rtp`]), seeded loss models
//! including the paper's uniform frame discard ([`loss`]), a channel that
//! keeps statistics and each packet's fate ([`channel`]), payload
//! corruption on top of it ([`corrupt`]), and receiver-side PLR
//! estimation for the encoder feedback loop ([`feedback`]).
//!
//! # Example: a frame through a 10%-loss channel
//!
//! ```rust
//! use pbpair_netsim::{channel::LossyChannel, loss::UniformLoss};
//! use pbpair_netsim::rtp::{reassemble_frame, Packetizer};
//!
//! let mut chan = LossyChannel::new(Box::new(UniformLoss::new(0.10, 42)));
//! let mut pkt = Packetizer::default();
//! let encoded_frame = vec![0u8; 900]; // pretend this came from the encoder
//! let survivors = chan.transmit(&pkt.packetize(0, &encoded_frame));
//! match reassemble_frame(&survivors) {
//!     Some(bytes) => assert_eq!(bytes, encoded_frame), // decode it
//!     None => assert!(chan.lost().contains(&true)),    // conceal it
//! }
//! ```

pub mod channel;
pub mod corrupt;
pub mod delay;
pub mod fec;
pub mod feedback;
pub mod loss;
pub mod packet;
pub mod rtp;
pub mod scenario;

pub use channel::LossyChannel;
pub use corrupt::{
    reassemble_frame_damaged, Corrupter, CorruptingChannel, CorruptionProfile, CorruptionStats,
    Delivery,
};
pub use delay::{LinkStats, RealTimeLink};
pub use fec::{FecProtector, FecRecovery};
pub use feedback::{
    BurstEstimator, FeedbackLink, FeedbackLinkStats, FeedbackReport, WindowPlrEstimator,
};
pub use loss::{GilbertElliott, LossModel, NoLoss, ScriptedLoss, UniformLoss};
pub use packet::{ChannelStats, Packet};
pub use pbpair_fec::{FecOps, FecSpec};
pub use rtp::{reassemble_frame, Packetizer, DEFAULT_MTU};
pub use scenario::{
    ChannelSpec, MarkovBurstErasure, Phase, PhaseKind, ScheduleBuilder, ScheduleChannel,
};
