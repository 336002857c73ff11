//! The one runner under the serve-driven experiments: the scenario
//! matrix, the FEC matrix, the RDE λ sweep and the trace sweep each
//! describe their cells as [`ServeConfig`]s and run them here, one fleet
//! per cell, in order, into one shared registry. (The dashboard replay
//! runs each cell on a registry of its own, so it loops over
//! [`run_with`] itself.)
//!
//! A matrix keeps only what is its own: its committed arms, its cell
//! struct, and how one [`FleetRun`] reduces to a cell. The fleet most
//! cells start from and the digest they commit live here once.

use pbpair_serve::{run_with, FleetRun, ServeConfig, ServeReport};
use pbpair_telemetry::Telemetry;

/// FNV-1a of a fleet's deterministic digest: the replay anchor the
/// scenario, FEC and RDE cells and the scenario goldens commit
/// (byte-identical at any worker count).
pub fn digest(report: &ServeReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in report.deterministic_digest().as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fleet the scenario, dashboard, FEC and RDE cells start from: the
/// committed seed and base PLR, no pacing wait, and admission control
/// that never sheds — those matrices compare channels, schemes, codecs
/// and λ points, not admission decisions. (Trace points sweep the PLR
/// and keep default admission, so they spell their fleet out.)
pub fn base(frames: usize, sessions: usize, workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig {
        sessions,
        frames,
        workers,
        seed: 2005,
        plr: 0.08,
        pacing_us: 0,
        ..ServeConfig::default()
    };
    cfg.admission.capacity_j_per_round = f64::MAX;
    cfg
}

/// Runs one fleet per `(arm, config)` cell, in order, every fleet
/// reporting into `tel` and traced when `trace` is set; `reduce` turns
/// each run into the matrix's cell.
///
/// # Errors
///
/// Returns the first failing cell's error from [`run_with`].
pub fn run_cells<A, C>(
    cells: impl IntoIterator<Item = (A, ServeConfig)>,
    tel: &Telemetry,
    trace: bool,
    mut reduce: impl FnMut(A, FleetRun) -> C,
) -> Result<Vec<C>, String> {
    cells
        .into_iter()
        .map(|(arm, cfg)| Ok(reduce(arm, run_with(&cfg, tel, trace)?)))
        .collect()
}
