//! The error-resilient coding schemes the paper compares.
//!
//! | Scheme | Refresh unit | Decision point | Network aware | Content aware |
//! |--------|--------------|----------------|---------------|---------------|
//! | NO ([`NoPolicy`]) | — | — | no | no |
//! | GOP-N ([`GopPolicy`]) | whole I-frame every N+1 frames | per frame | no | no |
//! | AIR-N ([`AirPolicy`]) | N highest-activity MBs | **after** ME | no | yes |
//! | PGOP-N ([`PgopPolicy`]) | N columns, sweeping | before ME (+ stride-back after) | partially (N from PLR) | no |
//! | PBPAIR ([`crate::PbpairPolicy`]) | MBs with σ < Intra_Th | **before** ME + σ-aware ME | yes (α) | yes (similarity) |
//!
//! All are [`pbpair_codec::RefreshPolicy`] implementations,
//! so they plug into the same encoder and are compared on identical
//! footing — the comparison of the paper's Section 4.

pub mod ablation;
mod air;
mod gop;
mod pgop;

pub use ablation::LatePbpairPolicy;
pub use air::AirPolicy;
pub use gop::GopPolicy;
pub use pgop::PgopPolicy;

/// The paper's "NO" configuration: plain predictive coding with no
/// resilience scheme (re-exported from the codec, where it doubles as the
/// default policy).
pub type NoPolicy = pbpair_codec::NaturalPolicy;

use crate::{PbpairConfig, PbpairPolicy};
use pbpair_codec::RefreshPolicy;
use pbpair_media::VideoFormat;

/// A plain-value description of any scheme — what experiment configs
/// carry and what [`build_policy`] turns into a live policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// No error resilience.
    No,
    /// GOP with N P-frames per I-frame.
    Gop(u32),
    /// AIR refreshing N macroblocks per frame.
    Air(usize),
    /// PGOP refreshing N columns per frame.
    Pgop(usize),
    /// PBPAIR with the given configuration.
    Pbpair(PbpairConfig),
}

impl SchemeSpec {
    /// Short display name matching the paper's figure legends.
    pub fn name(&self) -> String {
        match self {
            SchemeSpec::No => "NO".to_string(),
            SchemeSpec::Gop(n) => format!("GOP-{n}"),
            SchemeSpec::Air(n) => format!("AIR-{n}"),
            SchemeSpec::Pgop(n) => format!("PGOP-{n}"),
            SchemeSpec::Pbpair(_) => "PBPAIR".to_string(),
        }
    }
}

/// Instantiates the policy a [`SchemeSpec`] describes.
///
/// # Errors
///
/// Returns an error for invalid PBPAIR configurations and for a fixed
/// scheme with a zero period (GOP-0, PGOP-0).
pub fn build_policy(
    spec: SchemeSpec,
    format: VideoFormat,
) -> Result<Box<dyn RefreshPolicy>, String> {
    Ok(match spec {
        SchemeSpec::Gop(0) => return Err("GOP-0 has no P-frame per GOP".into()),
        SchemeSpec::Pgop(0) => return Err("PGOP-0 refreshes no column".into()),
        SchemeSpec::No => Box::new(NoPolicy::new()),
        SchemeSpec::Gop(n) => Box::new(GopPolicy::new(n)),
        SchemeSpec::Air(n) => Box::new(AirPolicy::new(format, n)),
        SchemeSpec::Pgop(n) => Box::new(PgopPolicy::new(format, n)),
        SchemeSpec::Pbpair(cfg) => Box::new(PbpairPolicy::new(format, cfg)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_match_paper_legends() {
        assert_eq!(SchemeSpec::No.name(), "NO");
        assert_eq!(SchemeSpec::Gop(3).name(), "GOP-3");
        assert_eq!(SchemeSpec::Air(24).name(), "AIR-24");
        assert_eq!(SchemeSpec::Pgop(1).name(), "PGOP-1");
        assert_eq!(SchemeSpec::Pbpair(PbpairConfig::default()).name(), "PBPAIR");
    }

    #[test]
    fn build_policy_constructs_each_scheme() {
        for spec in [
            SchemeSpec::No,
            SchemeSpec::Gop(8),
            SchemeSpec::Air(10),
            SchemeSpec::Pgop(2),
            SchemeSpec::Pbpair(PbpairConfig::default()),
        ] {
            let p = build_policy(spec, VideoFormat::QCIF).unwrap();
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn build_policy_rejects_invalid_pbpair() {
        let bad = SchemeSpec::Pbpair(PbpairConfig {
            intra_th: 7.0,
            ..PbpairConfig::default()
        });
        assert!(build_policy(bad, VideoFormat::QCIF).is_err());
    }

    #[test]
    fn build_policy_rejects_zero_period_schemes() {
        for (spec, message) in [
            (SchemeSpec::Gop(0), "GOP-0 has no P-frame per GOP"),
            (SchemeSpec::Pgop(0), "PGOP-0 refreshes no column"),
        ] {
            assert_eq!(
                build_policy(spec, VideoFormat::QCIF).err().as_deref(),
                Some(message)
            );
        }
    }
}
