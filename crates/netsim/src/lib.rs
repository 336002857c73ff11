//! Lossy packet-network simulator for the PBPAIR reproduction.
//!
//! Models the transport of the paper's evaluation: RTP-style
//! packetization with MTU fragmentation ([`rtp`]), seeded loss models
//! including the paper's uniform frame discard ([`loss`]), a statistics-
//! keeping channel ([`channel`]), and receiver-side PLR estimation for
//! the encoder feedback loop ([`feedback`]).
//!
//! # Example: a frame through a 10%-loss channel
//!
//! ```rust
//! use pbpair_netsim::{channel::LossyChannel, loss::UniformLoss, rtp::Packetizer};
//!
//! let mut chan = LossyChannel::new(Box::new(UniformLoss::new(0.10, 42)));
//! let mut pkt = Packetizer::default();
//! let encoded_frame = vec![0u8; 900]; // pretend this came from the encoder
//! match chan.transmit_frame(&pkt.packetize(0, &encoded_frame)) {
//!     Some(bytes) => assert_eq!(bytes, encoded_frame), // decode it
//!     None => {}                                       // conceal it
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
    BurstEstimator, EwmaPlrEstimator, FeedbackLink, FeedbackLinkStats, FeedbackReport, RetryConfig,
    WindowPlrEstimator,
};
pub use loss::{GilbertElliott, LossModel, NoLoss, ScriptedLoss, TraceLoss, UniformLoss};
pub use packet::{ChannelStats, Packet};
pub use pbpair_fec::{FecOps, FecSpec};
pub use rtp::{reassemble_frame, Packetizer, DEFAULT_MTU};
pub use scenario::{
    ChannelSpec, MarkovBurstErasure, Phase, PhaseKind, ScenarioChannel, ScheduleBuilder,
    ScheduleChannel,
};
