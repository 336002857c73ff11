//! An H.263-class hybrid video codec with pluggable error-resilience
//! policies and operation accounting.
//!
//! This crate is the substrate on which the PBPAIR reproduction runs: a
//! from-scratch predictive DCT codec with the same pipeline as the paper's
//! H.263 encoder — motion estimation ([`me`]), transform ([`dct`]),
//! quantization ([`quant`]), and variable-length coding ([`vlc`]) — plus a
//! decoder with error concealment ([`decoder`]).
//!
//! Two design points make it a *research* codec for this paper rather than
//! a generic one:
//!
//! * **Refresh policies** ([`policy::RefreshPolicy`]) expose the exact
//!   hooks where error-resilient schemes intervene: frame type selection,
//!   pre-ME mode selection (PBPAIR's energy-saving early intra decision),
//!   an additive bias in the ME cost function (PBPAIR's
//!   probability-of-correctness term), and a post-ME override (AIR/PGOP).
//! * **Operation accounting** ([`ops::OpCounts`]) tallies every SAD op,
//!   transform, and emitted bit, and [`ops::DeviceProfile`] prices each
//!   operation in integer picojoules per device, so the `pbpair-energy`
//!   crate can model encoding energy the way the paper measured it on
//!   PDAs.
//!
//! # Quick start
//!
//! ```rust
//! use pbpair_codec::{Decoder, Encoder, EncoderConfig, NaturalPolicy};
//! use pbpair_media::{metrics, synth::SyntheticSequence, VideoFormat};
//!
//! let mut enc = Encoder::new(EncoderConfig::default());
//! let mut dec = Decoder::new(VideoFormat::QCIF);
//! let mut policy = NaturalPolicy::new(); // no error resilience ("NO")
//! let mut seq = SyntheticSequence::foreman_class(42);
//!
//! for _ in 0..3 {
//!     let frame = seq.next_frame();
//!     let encoded = enc.encode_frame(&frame, &mut policy);
//!     let (decoded, _report) = dec.receive(Some(&encoded.data));
//!     assert!(metrics::psnr_y(&frame, decoded) > 25.0);
//! }
//! println!("SAD ops executed: {}", enc.ops().sad_ops);
//! ```

pub mod bitstream;
pub mod block;
pub mod blockcode;
pub mod dct;
pub mod deblock;
pub mod decoder;
pub mod encoder;
pub mod fused;
pub mod kernels;
pub mod mb;
pub(crate) mod mbcode;
pub mod mc;
pub mod me;
pub mod ops;
pub(crate) mod par;
pub mod policy;
pub mod quant;
pub mod rate;
pub mod rde;
pub mod vlc;
pub mod zigzag;

pub use bitstream::BitstreamError;
pub use decoder::{Concealment, DecodeError, DecodeReport, DecodedInfo, Decoder};
pub use encoder::{EncodedFrame, Encoder, EncoderConfig, OptConfig};
pub use kernels::{KernelTier, Kernels};
pub use mb::{FrameStats, MbMode, MotionVector};
pub use me::{MeConfig, MeResult, SearchStrategy};
pub use ops::{DeviceProfile, OpCounts, IPAQ_H5555, ZAURUS_SL5600};
pub use policy::{
    FrameContext, FrameKind, FrozenMeBias, MbContext, MbOutcome, NaturalPolicy, PostMeDecision,
    PreMeDecision, RefreshPolicy,
};
pub use quant::Qp;
pub use rate::RateController;
pub use rde::{RdeConfig, LAMBDA_ONE};
