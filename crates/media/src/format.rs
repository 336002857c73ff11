//! Picture formats and macroblock geometry.

use std::fmt;

/// Width and height of a luma macroblock in samples.
pub const MB_SIZE: usize = 16;

/// Largest macroblock grid side a custom format may have: the codec's
/// custom-format picture header carries the column and row counts in
/// 8-bit fields.
const MAX_MBS_PER_SIDE: usize = 255;

/// A picture format: luma dimensions plus the derived 16×16 macroblock grid.
///
/// The paper evaluates on QCIF (176×144 → 11×9 macroblocks); CIF and SQCIF
/// are provided for completeness, and [`VideoFormat::custom`] accepts any
/// dimensions that are a multiple of 16, up to 255 macroblocks a side.
///
/// # Example
///
/// ```rust
/// use pbpair_media::VideoFormat;
///
/// let f = VideoFormat::QCIF;
/// assert_eq!((f.width(), f.height()), (176, 144));
/// assert_eq!((f.mb_cols(), f.mb_rows()), (11, 9));
/// assert_eq!(f.mb_count(), 99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VideoFormat {
    width: usize,
    height: usize,
}

impl VideoFormat {
    /// Sub-QCIF, 128×96.
    pub const SQCIF: VideoFormat = VideoFormat {
        width: 128,
        height: 96,
    };
    /// Quarter CIF, 176×144 — the format used throughout the paper
    /// (9×11 macroblocks of 16×16 luma samples).
    pub const QCIF: VideoFormat = VideoFormat {
        width: 176,
        height: 144,
    };
    /// CIF, 352×288.
    pub const CIF: VideoFormat = VideoFormat {
        width: 352,
        height: 288,
    };

    /// Creates a custom format.
    ///
    /// # Errors
    ///
    /// Returns `None` unless both dimensions are non-zero multiples of 16
    /// (the codec does not implement partial macroblocks) spanning at
    /// most 255 macroblocks (the picture header's 8-bit grid fields).
    pub fn custom(width: usize, height: usize) -> Option<VideoFormat> {
        let side_ok =
            |n: usize| n != 0 && n.is_multiple_of(MB_SIZE) && n / MB_SIZE <= MAX_MBS_PER_SIDE;
        if !side_ok(width) || !side_ok(height) {
            return None;
        }
        Some(VideoFormat { width, height })
    }

    /// Luma width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Luma height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Chroma width in samples (4:2:0 subsampling).
    #[inline]
    pub fn chroma_width(&self) -> usize {
        self.width / 2
    }

    /// Chroma height in samples (4:2:0 subsampling).
    #[inline]
    pub fn chroma_height(&self) -> usize {
        self.height / 2
    }

    /// Number of macroblock columns.
    #[inline]
    pub fn mb_cols(&self) -> usize {
        self.width / MB_SIZE
    }

    /// Number of macroblock rows.
    #[inline]
    pub fn mb_rows(&self) -> usize {
        self.height / MB_SIZE
    }

    /// Total number of macroblocks per frame (99 for QCIF).
    #[inline]
    pub fn mb_count(&self) -> usize {
        self.mb_cols() * self.mb_rows()
    }

    /// Total number of luma samples per frame.
    #[inline]
    pub fn luma_samples(&self) -> usize {
        self.width * self.height
    }
}

impl fmt::Display for VideoFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VideoFormat::SQCIF => write!(f, "SQCIF ({}x{})", self.width, self.height),
            VideoFormat::QCIF => write!(f, "QCIF ({}x{})", self.width, self.height),
            VideoFormat::CIF => write!(f, "CIF ({}x{})", self.width, self.height),
            _ => write!(f, "{}x{}", self.width, self.height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qcif_matches_paper_geometry() {
        // The paper: "9x11 MBs ... with 16x16 pixels in a QCIF frame".
        let f = VideoFormat::QCIF;
        assert_eq!(f.mb_rows(), 9);
        assert_eq!(f.mb_cols(), 11);
        assert_eq!(f.mb_count(), 99);
        assert_eq!(f.chroma_width(), 88);
        assert_eq!(f.chroma_height(), 72);
        assert_eq!(
            f.luma_samples() + 2 * f.chroma_width() * f.chroma_height(),
            176 * 144 * 3 / 2
        );
    }

    #[test]
    fn custom_rejects_non_multiple_of_16() {
        assert!(VideoFormat::custom(100, 144).is_none());
        assert!(VideoFormat::custom(176, 0).is_none());
        assert!(VideoFormat::custom(176, 100).is_none());
        let f = VideoFormat::custom(64, 48).unwrap();
        assert_eq!(f.mb_count(), 4 * 3);
    }

    #[test]
    fn custom_caps_the_grid_at_255_macroblocks() {
        assert!(VideoFormat::custom(255 * 16, 255 * 16).is_some());
        assert!(VideoFormat::custom(256 * 16, 144).is_none());
        assert!(VideoFormat::custom(176, 256 * 16).is_none());
        assert!(VideoFormat::custom(usize::MAX - 15, 16).is_none());
    }

    #[test]
    fn display_names_known_formats() {
        assert_eq!(VideoFormat::QCIF.to_string(), "QCIF (176x144)");
        assert_eq!(VideoFormat::custom(64, 64).unwrap().to_string(), "64x64");
    }
}
