//! # pbpair-serve — multi-session PBPAIR streaming service
//!
//! PBPAIR (ICDCS 2005) treats the intra threshold `Intra_Th` as a joint
//! energy/resilience lever for *one* encoder on *one* lossy channel. This
//! crate scales that loop out to a serving fleet: N concurrent sessions,
//! each a complete source → PBPAIR encoder → RTP/FEC → lossy channel →
//! resilient decoder → PLR-feedback pipeline built from the existing
//! workspace crates, executed on a work-stealing thread pool with bounded
//! queues, and governed by an admission controller that uses the *same
//! lever* — raising `Intra_Th`, then dropping frames, then shedding
//! sessions — when aggregate encode cost exceeds the fleet's budget.
//!
//! The design splits cleanly along a determinism boundary:
//!
//! * [`session`] — a self-contained, seeded per-client loop; no shared
//!   mutable state, so a session computes the same trajectory wherever
//!   the scheduler runs it.
//! * [`sched`] — the work-stealing pool: per-worker deques, a global
//!   injector, backpressure via a bounded in-flight count.
//! * [`admission`] — the lag-integrating controller driven by *modeled*
//!   encode Joules (deterministic), never wall clock.
//! * [`manager`] — rounds + barrier: ties the three together and splits
//!   the output into a deterministic digest and wall-clock
//!   [`FleetTiming`].
//!
//! ```no_run
//! use pbpair_serve::{run, ServeConfig};
//!
//! let report = run(&ServeConfig {
//!     sessions: 8,
//!     frames: 32,
//!     workers: 4,
//!     ..ServeConfig::default()
//! })
//! .expect("valid config");
//! println!(
//!     "{:.1} fps, mean PSNR {:.1} dB, {} shed",
//!     report.timing.throughput_fps, report.mean_psnr_db, report.shed_count
//! );
//! ```

pub mod admission;
pub mod chaos;
pub mod health;
pub mod manager;
pub mod observe;
pub mod redundancy;
pub mod report;
pub mod sched;
pub mod session;
pub mod trace;

pub use admission::{
    AdmissionConfig, AdmissionController, RoundDecision, ServiceLevel, SessionRoundCost,
};
pub use chaos::{ChaosEvent, ChaosFault, ChaosPlan};
pub use health::{HealthLedger, HealthState, HealthTransition, StalenessWatchdog, WatchdogConfig};
pub use manager::{
    run, run_instrumented, run_observed, run_traced, run_traced_observed, DeviceMix, ServeConfig,
};
pub use observe::{standard_slos, Observability, ObservabilityConfig};
pub use redundancy::{RedundancyConfig, RedundancyController, RedundancyDecision};
pub use report::{FleetHealth, FleetTiming, ServeReport, SessionReport};
pub use sched::WorkStealingPool;
pub use session::{
    DeviceKind, FrameOutcome, IntraThSource, Session, SessionConfig, SessionScheme, SessionStats,
};
pub use trace::{FleetTrace, SessionTrace, TraceDump, TRACE_RING_CAPACITY};
