//! Image quality metrics: PSNR and the paper's bad-pixel counter.
//!
//! Section 4.4 of the paper uses two metrics: the peak signal-to-noise ratio
//! (PSNR) and the *number of bad pixels* — pixels whose reconstructed value
//! differs from the original by more than a visibility threshold. The paper
//! argues bad pixels represent error resiliency better than PSNR because
//! they count perceptibly damaged pixels regardless of how far off they are.

use crate::frame::Frame;
use crate::plane::Plane;

/// Default absolute luma difference above which a pixel counts as "bad".
///
/// The paper does not publish its threshold; 20 codes (≈8% of range) is a
/// conventional visibility threshold and is what the experiment harness
/// uses. It is a parameter of [`bad_pixels_with_threshold`] so sweeps can
/// vary it.
pub const DEFAULT_BAD_PIXEL_THRESHOLD: u8 = 20;

/// Mean squared error between two planes of identical dimensions.
///
/// # Panics
///
/// Panics if the plane dimensions differ.
pub fn mse(a: &Plane, b: &Plane) -> f64 {
    assert_eq!(a.width(), b.width(), "plane widths differ");
    assert_eq!(a.height(), b.height(), "plane heights differ");
    let mut acc = 0u64;
    for (pa, pb) in a.samples().iter().zip(b.samples()) {
        let d = *pa as i64 - *pb as i64;
        acc += (d * d) as u64;
    }
    acc as f64 / (a.width() * a.height()) as f64
}

/// PSNR between two planes in dB. Identical planes yield
/// [`f64::INFINITY`].
///
/// # Panics
///
/// Panics if the plane dimensions differ.
pub fn psnr(a: &Plane, b: &Plane) -> f64 {
    let m = mse(a, b);
    if m == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / m).log10()
    }
}

/// Luma PSNR between two frames — the metric plotted in Figures 5(a) and
/// 6(a) of the paper.
///
/// # Panics
///
/// Panics if the frame formats differ.
pub fn psnr_y(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.format(), b.format(), "frame formats differ");
    psnr(a.y(), b.y())
}

/// Counts luma pixels differing by more than
/// [`DEFAULT_BAD_PIXEL_THRESHOLD`].
pub fn bad_pixels(a: &Frame, b: &Frame) -> u64 {
    bad_pixels_with_threshold(a, b, DEFAULT_BAD_PIXEL_THRESHOLD)
}

/// Counts luma pixels whose absolute difference exceeds `threshold` — the
/// paper's "number of bad pixels" metric (Figure 5(b)).
///
/// # Panics
///
/// Panics if the frame formats differ.
pub fn bad_pixels_with_threshold(a: &Frame, b: &Frame, threshold: u8) -> u64 {
    assert_eq!(a.format(), b.format(), "frame formats differ");
    a.y()
        .samples()
        .iter()
        .zip(b.y().samples())
        .filter(|(pa, pb)| (**pa as i16 - **pb as i16).unsigned_abs() > threshold as u16)
        .count() as u64
}

/// Per-macroblock damage map: for each 16×16 macroblock (raster order),
/// the fraction of its luma pixels whose difference exceeds `threshold`.
/// This is the ground-truth counterpart of PBPAIR's probability-of-
/// correctness matrix: `1 − σ` should track these fractions.
///
/// # Panics
///
/// Panics if the frame formats differ.
pub fn bad_pixel_map(a: &Frame, b: &Frame, threshold: u8) -> Vec<f64> {
    assert_eq!(a.format(), b.format(), "frame formats differ");
    let fmt = a.format();
    let (cols, rows) = (fmt.mb_cols(), fmt.mb_rows());
    let mut out = Vec::with_capacity(cols * rows);
    for mb_y in 0..rows {
        for mb_x in 0..cols {
            let mut bad = 0u32;
            for dy in 0..16 {
                let y = mb_y * 16 + dy;
                let ra = &a.y().row(y)[mb_x * 16..mb_x * 16 + 16];
                let rb = &b.y().row(y)[mb_x * 16..mb_x * 16 + 16];
                for (pa, pb) in ra.iter().zip(rb) {
                    if (*pa as i16 - *pb as i16).unsigned_abs() > threshold as u16 {
                        bad += 1;
                    }
                }
            }
            out.push(bad as f64 / 256.0);
        }
    }
    out
}

/// Renders a per-macroblock value grid (raster order, values in `[0, 1]`)
/// as a text heatmap, one character per macroblock from ` ` (0) to `█`
/// (1). Used by diagnostics to print σ maps and damage maps side by side.
///
/// # Panics
///
/// Panics if `values.len()` is not a multiple of `cols` or `cols == 0`.
pub fn render_mb_heatmap(values: &[f64], cols: usize) -> String {
    assert!(cols > 0, "heatmap needs at least one column");
    assert_eq!(values.len() % cols, 0, "values must fill whole rows");
    const GLYPHS: [char; 6] = [' ', '░', '▒', '▓', '█', '█'];
    let mut out = String::new();
    for row in values.chunks(cols) {
        for &v in row {
            let idx = (v.clamp(0.0, 1.0) * 4.999) as usize;
            out.push(GLYPHS[idx]);
        }
        out.push('\n');
    }
    out
}

/// Accumulates per-frame quality measurements over a sequence and reports
/// the aggregates the paper's figures use.
///
/// # Example
///
/// ```rust
/// use pbpair_media::{metrics::QualityStats, Frame, VideoFormat};
///
/// let mut stats = QualityStats::new();
/// let a = Frame::flat(VideoFormat::QCIF, 100);
/// let b = Frame::flat(VideoFormat::QCIF, 101);
/// stats.record(&a, &b);
/// assert_eq!(stats.frames(), 1);
/// assert_eq!(stats.total_bad_pixels(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QualityStats {
    psnr_series: Vec<f64>,
    bad_pixel_series: Vec<u64>,
}

impl QualityStats {
    /// New accumulator; bad pixels use [`DEFAULT_BAD_PIXEL_THRESHOLD`].
    pub fn new() -> Self {
        QualityStats::default()
    }

    /// Records one (original, reconstructed) frame pair.
    pub fn record(&mut self, original: &Frame, reconstructed: &Frame) {
        self.psnr_series.push(psnr_y(original, reconstructed));
        self.bad_pixel_series
            .push(bad_pixels(original, reconstructed));
    }

    /// Number of recorded frame pairs.
    pub fn frames(&self) -> usize {
        self.psnr_series.len()
    }

    /// Per-frame PSNR series (Figure 6(a)'s y-axis).
    pub fn psnr_series(&self) -> &[f64] {
        &self.psnr_series
    }

    /// Per-frame bad-pixel series.
    pub fn bad_pixel_series(&self) -> &[u64] {
        &self.bad_pixel_series
    }

    /// Mean PSNR in dB over all frames (Figure 5(a)'s bars). Infinite
    /// per-frame values (bit-exact frames) are clipped to 100 dB so one
    /// perfect frame cannot dominate the mean.
    pub fn average_psnr(&self) -> f64 {
        if self.psnr_series.is_empty() {
            return f64::NAN;
        }
        let sum: f64 = self.psnr_series.iter().map(|p| p.min(100.0)).sum();
        sum / self.psnr_series.len() as f64
    }

    /// Total bad pixels over the sequence (Figure 5(b)'s bars, which the
    /// paper reports in millions).
    pub fn total_bad_pixels(&self) -> u64 {
        self.bad_pixel_series.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::VideoFormat;

    #[test]
    fn identical_planes_have_zero_mse_and_infinite_psnr() {
        let p = Plane::filled(8, 8, 42);
        assert_eq!(mse(&p, &p), 0.0);
        assert!(psnr(&p, &p).is_infinite());
    }

    #[test]
    fn known_mse_value() {
        let a = Plane::filled(4, 4, 10);
        let b = Plane::filled(4, 4, 14);
        assert_eq!(mse(&a, &b), 16.0);
        let expected = 10.0 * (255.0f64 * 255.0 / 16.0).log10();
        assert!((psnr(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn psnr_decreases_with_distortion() {
        let a = Plane::filled(8, 8, 100);
        let b = Plane::filled(8, 8, 105);
        let c = Plane::filled(8, 8, 130);
        assert!(psnr(&a, &b) > psnr(&a, &c));
    }

    #[test]
    fn bad_pixels_respects_threshold() {
        let fmt = VideoFormat::custom(16, 16).unwrap();
        let a = Frame::flat(fmt, 100);
        let mut b = Frame::flat(fmt, 100);
        b.y_mut().set(0, 0, 100 + 21); // above default threshold
        b.y_mut().set(1, 0, 100 + 20); // exactly at threshold → not bad
        b.y_mut().set(2, 0, 100 - 30); // below original → bad
        assert_eq!(bad_pixels(&a, &b), 2);
        assert_eq!(bad_pixels_with_threshold(&a, &b, 5), 3);
        assert_eq!(bad_pixels_with_threshold(&a, &b, 40), 0);
    }

    #[test]
    fn quality_stats_aggregates() {
        let fmt = VideoFormat::custom(16, 16).unwrap();
        let a = Frame::flat(fmt, 100);
        let b = Frame::flat(fmt, 140); // 40 off on every pixel
        let mut s = QualityStats::new();
        s.record(&a, &a); // perfect frame
        s.record(&a, &b); // uniformly bad frame
        assert_eq!(s.frames(), 2);
        assert_eq!(s.total_bad_pixels(), 256);
        assert_eq!(s.bad_pixel_series(), &[0, 256]);
        // First frame clipped to 100 dB, not infinity.
        assert!(s.average_psnr() < 100.0);
        assert!(s.psnr_series()[1] < 30.0);
    }

    #[test]
    fn empty_stats_average_is_nan() {
        assert!(QualityStats::new().average_psnr().is_nan());
    }

    #[test]
    fn bad_pixel_map_localizes_damage() {
        let fmt = VideoFormat::QCIF;
        let a = Frame::flat(fmt, 100);
        let mut b = Frame::flat(fmt, 100);
        // Fully damage macroblock (row 2, col 3) and half of (0, 0).
        for y in 32..48 {
            for x in 48..64 {
                b.y_mut().set(x, y, 200);
            }
        }
        for y in 0..16 {
            for x in 0..8 {
                b.y_mut().set(x, y, 200);
            }
        }
        let map = bad_pixel_map(&a, &b, 20);
        assert_eq!(map.len(), 99);
        assert_eq!(map[2 * 11 + 3], 1.0);
        assert!((map[0] - 0.5).abs() < 1e-12);
        assert!(map
            .iter()
            .enumerate()
            .all(|(i, &v)| { i == 0 || i == 2 * 11 + 3 || v == 0.0 }));
    }

    #[test]
    fn heatmap_renders_rows_and_scales() {
        let s = render_mb_heatmap(&[0.0, 0.3, 0.6, 1.0], 2);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(' '));
        assert!(lines[1].ends_with('█'));
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn heatmap_rejects_ragged_input() {
        let _ = render_mb_heatmap(&[0.0, 0.5, 1.0], 2);
    }
}
