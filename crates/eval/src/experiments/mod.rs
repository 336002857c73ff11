//! One module per paper experiment. The `paper` binary prints the
//! paper experiments' tables and `matrix` runs the serve-driven ones;
//! tests and benches call these modules directly. See DESIGN.md's
//! experiment index for the full mapping.

pub mod adaptive;
pub mod dashboard;
pub mod extensions;
pub mod fec;
pub mod fig5;
pub mod fig6;
pub mod fleet;
pub mod headline;
pub mod rde;
pub mod resilience;
pub mod scenarios;
pub mod sweeps;
pub mod trace;

use std::ffi::OsString;

use pbpair_serve::MAX_WORKERS;

/// Reads the frame-count override from `PBPAIR_FRAMES` (smoke runs), or
/// returns `default` when the variable is unset.
///
/// # Errors
///
/// Returns the message the command line prints for a value that is not
/// a whole number of at least 10 frames.
pub fn frames_from_env(default: usize) -> Result<usize, String> {
    parse_frames(std::env::var_os("PBPAIR_FRAMES"), default)
}

/// [`frames_from_env`] over the variable's value, `None` when unset.
fn parse_frames(value: Option<OsString>, default: usize) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(default);
    };
    v.to_str()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n >= 10)
        .ok_or_else(|| format!("PBPAIR_FRAMES expects a number of at least 10, got {v:?}"))
}

/// Parses a `--workers` value: a thread count in `1..=MAX_WORKERS`.
///
/// # Errors
///
/// Returns the message the command line prints for anything else.
pub fn parse_workers(v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|n| (1..=MAX_WORKERS).contains(n))
        .ok_or_else(|| format!("--workers expects a number in 1..={MAX_WORKERS}, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_env_override_parses_and_floors() {
        // Parses values directly: the process environment is shared by
        // tests running in parallel, and may itself set PBPAIR_FRAMES.
        assert_eq!(parse_frames(None, 300), Ok(300));
        for (v, n) in [("10", 10), ("45", 45)] {
            assert_eq!(parse_frames(Some(v.into()), 300), Ok(n));
        }
        for v in ["9", "abc", "", "-10"] {
            let err = parse_frames(Some(v.into()), 300).unwrap_err();
            assert!(err.contains("at least 10"), "{v:?}: {err}");
        }
    }
}
