//! Operation-accounting energy model for the PBPAIR reproduction.
//!
//! The paper measures encoding energy by sampling the voltage drop across
//! a sense resistor on battery-less PDAs. This crate substitutes a model:
//! the codec reports what it *did* ([`pbpair_codec::OpCounts`]), and the
//! codec's device table ([`DeviceProfile`], integer picojoules per
//! operation) prices it; [`model`] converts the table to Joules,
//! preserving the between-scheme energy ratios the paper's headline
//! result is about. A [`DvfsGovernor`] reads the same table's per-cycle
//! energy, and a [`Battery`] tracker supports the §3.2 residual-energy
//! adaptation scenario.
//!
//! # Example
//!
//! ```rust
//! use pbpair_energy::{EnergyModel, IPAQ_H5555, ZAURUS_SL5600};
//! use pbpair_codec::OpCounts;
//!
//! let ops = OpCounts { sad_ops: 800_000, dct_blocks: 594, ..OpCounts::default() };
//! let ipaq = EnergyModel::new(IPAQ_H5555).encoding_energy(&ops);
//! let zaurus = EnergyModel::new(ZAURUS_SL5600).encoding_energy(&ops);
//! assert!(ipaq.get() > 0.0 && zaurus.get() > 0.0);
//! ```

pub mod battery;
pub mod dvs;
pub mod model;

pub use battery::Battery;
pub use dvs::{DvfsGovernor, DvfsLevel, XSCALE_LEVELS};
pub use model::{EnergyBreakdown, EnergyModel, Joules};
pub use pbpair_codec::{DeviceProfile, IPAQ_H5555, ZAURUS_SL5600};
