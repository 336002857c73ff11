//! Causal error-propagation tracing for the PBPAIR pipeline.
//!
//! `pbpair-trace` is a std-only event-tracing layer beside
//! `pbpair-telemetry` (its one dependency, for the JSON writer): where
//! telemetry aggregates counters, this crate records individual events —
//! per-MB coding decisions at the encoder, per-packet loss/corruption at
//! the channel, concealment and resync at the decoder — and joins them
//! after the fact into a causal
//! provenance DAG. The DAG answers two questions the aggregate counters
//! cannot:
//!
//! 1. **Blast radius** — for each loss event, which macroblocks did it
//!    ultimately dirty (through the inter-prediction reference chain),
//!    how many frames until intra refresh healed the region, and what
//!    was the pixel cost (per-MB SAD between the decoder's output and
//!    the encoder's local reconstruction)?
//! 2. **`C^k` calibration** — does the encoder's per-MB correctness
//!    probability matrix actually predict which MBs go bad? The replay
//!    pass scores the prediction with a Brier score and reliability
//!    bins ([`Calibration`]).
//!
//! The crate mirrors the telemetry crate's deterministic/timing split:
//! everything derived from the structured event log (DAG, blast radii,
//! calibration) is a pure function of the seeds and is emitted as
//! sorted-key integer-only JSON, byte-identical across worker counts.
//! Wall-clock timestamps exist only in the flight tail — the newest
//! [`FLIGHT_CAPACITY`] transport/decode/control events, which the
//! [`Tracer`] keeps beside its log under the same lock — and are
//! exported separately as chrome://tracing JSON.
//!
//! Disabled tracing (the default, [`Tracer::disabled`]) is a single
//! branch on an `Option` per would-be event; the overhead guard
//! (`perf --overhead`, in `pbpair-eval`) holds it below the same <2%
//! budget as disabled telemetry.

pub mod calib;
pub mod event;
pub mod replay;
mod tracer;

pub use calib::{Calibration, CalibrationBin, BIN_COUNT, SIGMA_SCALE};
pub use event::Event;
pub use replay::{analyze, Analysis, AnalyzeParams, EventBlast, LossKind, ProvenanceDag, TraceLog};
pub use tracer::{RecordedEvent, Tracer, FLIGHT_CAPACITY};
