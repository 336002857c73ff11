//! End-to-end evaluation pipeline and per-figure experiment harnesses for
//! the PBPAIR reproduction.
//!
//! * [`pipeline`] — one [`pipeline::RunConfig`] per experimental cell
//!   (scheme × sequence × channel), executed deterministically by
//!   [`pipeline::run`]; plus the `Intra_Th` size calibration the paper
//!   uses to compare schemes at matched compression.
//! * [`experiments`] — a driver per paper figure/section: Figure 5
//!   (scheme comparison), Figure 6 (per-frame loss behaviour), the
//!   headline energy-reduction percentages, the §4.3/§4.4 sweeps, the
//!   §3.2 adaptive extension, and the fault-injection resilience
//!   scenarios (corruption sweep + feedback blackout); plus the five
//!   serve-driven matrices (scenarios, dashboard, FEC, RDE, trace), all
//!   run by one fleet runner, [`experiments::fleet`].
//! * [`report`] — aligned text tables, printed in the same shape the
//!   paper reports.
//!
//! Regenerate any figure with the `paper` binary and the experiment's
//! name, e.g.:
//!
//! ```text
//! cargo run --release -p pbpair-eval --bin paper -- fig5
//! cargo run --release -p pbpair-eval --bin paper -- fig6
//! cargo run --release -p pbpair-eval --bin paper -- headline
//! cargo run --release -p pbpair-eval --bin paper -- sweep_intra_th
//! cargo run --release -p pbpair-eval --bin paper -- sweep_plr
//! cargo run --release -p pbpair-eval --bin paper -- adaptive
//! cargo run --release -p pbpair-eval --bin paper -- extensions
//! cargo run --release -p pbpair-eval --bin paper -- resilience
//! cargo run --release -p pbpair-eval --bin paper -- summary
//! cargo run --release -p pbpair-eval --bin matrix -- scenarios  # or dashboard, fec, rde, trace
//! ```
//!
//! Set `PBPAIR_FRAMES=<n>` to shrink runs for smoke testing.
//!
//! # Example
//!
//! ```rust
//! use pbpair_eval::pipeline::{run, LossSpec, RunConfig, SequenceSpec};
//! use pbpair::SchemeSpec;
//! use pbpair_media::synth::MotionClass;
//! use pbpair_codec::EncoderConfig;
//!
//! # fn main() -> Result<(), String> {
//! let result = run(&RunConfig {
//!     scheme: SchemeSpec::Gop(3),
//!     sequence: SequenceSpec::Synthetic { class: MotionClass::LowAkiyo, seed: 1 },
//!     frames: 10,
//!     encoder: EncoderConfig::default(),
//!     loss: LossSpec::Uniform { rate: 0.1, seed: 7 },
//!     mtu: 1400,
//! })?;
//! assert_eq!(result.quality.frames(), 10);
//! # Ok(())
//! # }
//! ```

pub mod experiments;
pub mod pipeline;
pub mod report;

pub use pipeline::{calibrate_intra_th, run, LossSpec, RunConfig, RunResult, SequenceSpec};
