//! YUV 4:2:0 frames.

use crate::format::VideoFormat;
use crate::plane::Plane;

/// A planar YUV 4:2:0 frame: full-resolution luma plus half-resolution
/// chroma, the layout used by QCIF video conferencing and by the paper's
/// H.263 codec.
///
/// # Example
///
/// ```rust
/// use pbpair_media::{Frame, VideoFormat};
///
/// let f = Frame::new(VideoFormat::QCIF);
/// assert_eq!(f.y().width(), 176);
/// assert_eq!(f.cb().width(), 88);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    format: VideoFormat,
    y: Plane,
    cb: Plane,
    cr: Plane,
}

impl Frame {
    /// Creates a black frame (all samples zero) of the given format.
    pub fn new(format: VideoFormat) -> Self {
        Frame {
            format,
            y: Plane::new(format.width(), format.height()),
            cb: Plane::new(format.chroma_width(), format.chroma_height()),
            cr: Plane::new(format.chroma_width(), format.chroma_height()),
        }
    }

    /// Creates a frame with constant luma and neutral (128) chroma — a flat
    /// grey test card.
    pub fn flat(format: VideoFormat, luma: u8) -> Self {
        Frame {
            format,
            y: Plane::filled(format.width(), format.height(), luma),
            cb: Plane::filled(format.chroma_width(), format.chroma_height(), 128),
            cr: Plane::filled(format.chroma_width(), format.chroma_height(), 128),
        }
    }

    /// Assembles a frame from three planes.
    ///
    /// # Errors
    ///
    /// Returns `None` if the plane dimensions do not match the format's
    /// 4:2:0 geometry.
    pub fn from_planes(format: VideoFormat, y: Plane, cb: Plane, cr: Plane) -> Option<Self> {
        let ok = y.width() == format.width()
            && y.height() == format.height()
            && cb.width() == format.chroma_width()
            && cb.height() == format.chroma_height()
            && cr.width() == format.chroma_width()
            && cr.height() == format.chroma_height();
        if !ok {
            return None;
        }
        Some(Frame { format, y, cb, cr })
    }

    /// The picture format.
    #[inline]
    pub fn format(&self) -> VideoFormat {
        self.format
    }

    /// Luma plane.
    #[inline]
    pub fn y(&self) -> &Plane {
        &self.y
    }

    /// Luma plane, mutable.
    #[inline]
    pub fn y_mut(&mut self) -> &mut Plane {
        &mut self.y
    }

    /// Blue-difference chroma plane.
    #[inline]
    pub fn cb(&self) -> &Plane {
        &self.cb
    }

    /// Blue-difference chroma plane, mutable.
    #[inline]
    pub fn cb_mut(&mut self) -> &mut Plane {
        &mut self.cb
    }

    /// Red-difference chroma plane.
    #[inline]
    pub fn cr(&self) -> &Plane {
        &self.cr
    }

    /// Red-difference chroma plane, mutable.
    #[inline]
    pub fn cr_mut(&mut self) -> &mut Plane {
        &mut self.cr
    }

    /// Mutable access to all three planes at once (needed when
    /// reconstructing Y and chroma in the same pass).
    #[inline]
    pub fn planes_mut(&mut self) -> (&mut Plane, &mut Plane, &mut Plane) {
        (&mut self.y, &mut self.cb, &mut self.cr)
    }

    /// Copies all three planes from `other` without reallocating — the
    /// allocation-free alternative to cloning.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different formats.
    pub fn copy_from(&mut self, other: &Frame) {
        assert!(
            self.format == other.format,
            "copy_from requires equal formats"
        );
        self.y.copy_from(&other.y);
        self.cb.copy_from(&other.cb);
        self.cr.copy_from(&other.cr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_420_geometry() {
        let f = Frame::new(VideoFormat::QCIF);
        assert_eq!(f.y().width(), 176);
        assert_eq!(f.y().height(), 144);
        assert_eq!(f.cb().width(), 88);
        assert_eq!(f.cr().height(), 72);
    }

    #[test]
    fn flat_sets_neutral_chroma() {
        let f = Frame::flat(VideoFormat::SQCIF, 50);
        assert!(f.y().samples().iter().all(|&s| s == 50));
        assert!(f.cb().samples().iter().all(|&s| s == 128));
        assert!(f.cr().samples().iter().all(|&s| s == 128));
    }

    #[test]
    fn from_planes_validates_dimensions() {
        let fmt = VideoFormat::QCIF;
        let y = Plane::new(fmt.width(), fmt.height());
        let cb = Plane::new(fmt.chroma_width(), fmt.chroma_height());
        let cr_bad = Plane::new(10, 10);
        assert!(Frame::from_planes(fmt, y.clone(), cb.clone(), cr_bad).is_none());
        let cr = Plane::new(fmt.chroma_width(), fmt.chroma_height());
        assert!(Frame::from_planes(fmt, y, cb, cr).is_some());
    }
}
