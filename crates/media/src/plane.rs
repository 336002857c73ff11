//! A single 8-bit sample plane (luma or chroma).

use std::fmt;

/// A rectangular plane of 8-bit samples stored in row-major order.
///
/// `Plane` is the storage primitive shared by every layer of the workspace:
/// the synthetic generators write into it, the codec predicts/transforms
/// 8×8 and 16×16 regions of it, and the metrics compare two of them.
///
/// All accessors are bounds-checked; the hot codec kernels use
/// [`Plane::row`] to get contiguous slices and do their own indexing.
///
/// # Example
///
/// ```rust
/// use pbpair_media::Plane;
///
/// let mut p = Plane::new(16, 16);
/// p.fill(128);
/// p.set(3, 4, 200);
/// assert_eq!(p.get(3, 4), 200);
/// assert_eq!(p.get(0, 0), 128);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a plane of `width * height` samples, all zero.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        Plane {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Creates a plane filled with `value`.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        let mut p = Plane::new(width, height);
        p.fill(value);
        p
    }

    /// Creates a plane by evaluating `f(x, y)` at every sample position.
    pub fn from_fn<F: FnMut(usize, usize) -> u8>(width: usize, height: usize, mut f: F) -> Self {
        let mut p = Plane::new(width, height);
        for y in 0..height {
            for x in 0..width {
                p.data[y * width + x] = f(x, y);
            }
        }
        p
    }

    /// Creates a plane from raw row-major samples.
    ///
    /// # Errors
    ///
    /// Returns `None` if `data.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Option<Self> {
        if width == 0 || height == 0 || data.len() != width * height {
            return None;
        }
        Some(Plane {
            width,
            height,
            data,
        })
    }

    /// Plane width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Returns the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "sample out of bounds");
        self.data[y * self.width + x]
    }

    /// Returns the sample at `(x, y)` with coordinates clamped to the plane
    /// edges, mirroring the unrestricted-motion edge extension of H.263.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Writes `value` at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "sample out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// Sets every sample to `value`.
    pub fn fill(&mut self, value: u8) {
        self.data.fill(value);
    }

    /// Copies every sample from `other` into this plane without
    /// reallocating — the allocation-free alternative to cloning.
    ///
    /// # Panics
    ///
    /// Panics if the planes have different dimensions.
    pub fn copy_from(&mut self, other: &Plane) {
        assert!(
            self.width == other.width && self.height == other.height,
            "copy_from requires equal dimensions"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Returns row `y` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Returns row `y` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [u8] {
        assert!(y < self.height, "row out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// All samples in row-major order.
    #[inline]
    pub fn samples(&self) -> &[u8] {
        &self.data
    }

    /// Copies a `bw × bh` block whose top-left corner is `(x, y)` into `out`
    /// (row-major, `out.len() == bw * bh`). Samples outside the plane are
    /// edge-clamped, so the block origin may be negative or extend past the
    /// right/bottom edge — this is what motion compensation needs.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != bw * bh`.
    pub fn copy_block_clamped(&self, x: isize, y: isize, bw: usize, bh: usize, out: &mut [u8]) {
        assert_eq!(out.len(), bw * bh, "output buffer size mismatch");
        let w = self.width as isize;
        let h = self.height as isize;
        // Fast path: the whole block is inside the plane.
        if x >= 0 && y >= 0 && x + bw as isize <= w && y + bh as isize <= h {
            let (x, y) = (x as usize, y as usize);
            for by in 0..bh {
                let src = &self.data[(y + by) * self.width + x..(y + by) * self.width + x + bw];
                out[by * bw..(by + 1) * bw].copy_from_slice(src);
            }
            return;
        }
        for by in 0..bh {
            for bx in 0..bw {
                out[by * bw + bx] = self.get_clamped(x + bx as isize, y + by as isize);
            }
        }
    }

    /// Copies `block` (row-major `bw × bh`) into the plane at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the destination rectangle is not fully inside the plane or
    /// if `block.len() != bw * bh`.
    pub fn paste_block(&mut self, x: usize, y: usize, bw: usize, bh: usize, block: &[u8]) {
        assert_eq!(block.len(), bw * bh, "block buffer size mismatch");
        assert!(
            x + bw <= self.width && y + bh <= self.height,
            "destination rectangle out of bounds"
        );
        for by in 0..bh {
            let dst = &mut self.data[(y + by) * self.width + x..(y + by) * self.width + x + bw];
            dst.copy_from_slice(&block[by * bw..(by + 1) * bw]);
        }
    }

    /// Sum of absolute differences against another plane over the rectangle
    /// `(x, y, bw, bh)`, both planes indexed at the same position.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is out of bounds in either plane.
    pub fn sad_colocated(&self, other: &Plane, x: usize, y: usize, bw: usize, bh: usize) -> u64 {
        assert!(x + bw <= self.width && y + bh <= self.height);
        assert!(x + bw <= other.width && y + bh <= other.height);
        let mut acc = 0u64;
        for by in 0..bh {
            let a = &self.data[(y + by) * self.width + x..(y + by) * self.width + x + bw];
            let b = &other.data[(y + by) * other.width + x..(y + by) * other.width + x + bw];
            for (pa, pb) in a.iter().zip(b) {
                acc += (*pa as i32 - *pb as i32).unsigned_abs() as u64;
            }
        }
        acc
    }
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plane")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("samples", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let p = Plane::new(4, 3);
        assert_eq!(p.width(), 4);
        assert_eq!(p.height(), 3);
        assert!(p.samples().iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_panics() {
        let _ = Plane::new(0, 3);
    }

    #[test]
    fn from_fn_evaluates_every_position() {
        let p = Plane::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(p.get(0, 0), 0);
        assert_eq!(p.get(2, 0), 2);
        assert_eq!(p.get(0, 1), 10);
        assert_eq!(p.get(2, 1), 12);
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(Plane::from_raw(2, 2, vec![1, 2, 3]).is_none());
        let p = Plane::from_raw(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(p.get(1, 1), 4);
    }

    #[test]
    fn get_clamped_extends_edges() {
        let p = Plane::from_fn(2, 2, |x, y| (y * 2 + x) as u8); // [[0,1],[2,3]]
        assert_eq!(p.get_clamped(-5, -5), 0);
        assert_eq!(p.get_clamped(10, -1), 1);
        assert_eq!(p.get_clamped(-1, 10), 2);
        assert_eq!(p.get_clamped(10, 10), 3);
    }

    #[test]
    fn copy_block_fast_and_slow_paths_agree() {
        let p = Plane::from_fn(8, 8, |x, y| (y * 8 + x) as u8);
        let mut inside = vec![0u8; 4];
        p.copy_block_clamped(2, 2, 2, 2, &mut inside);
        assert_eq!(inside, vec![18, 19, 26, 27]);

        // Block hanging off the top-left corner takes the clamped path.
        let mut edge = vec![0u8; 4];
        p.copy_block_clamped(-1, -1, 2, 2, &mut edge);
        assert_eq!(edge, vec![0, 0, 0, 0]); // clamped to sample (0,0)..(1,1) region
        assert_eq!(edge[3], p.get(0, 0));
    }

    #[test]
    fn paste_then_copy_roundtrips() {
        let mut p = Plane::new(16, 16);
        let block: Vec<u8> = (0..64).map(|i| i as u8).collect();
        p.paste_block(8, 8, 8, 8, &block);
        let mut out = vec![0u8; 64];
        p.copy_block_clamped(8, 8, 8, 8, &mut out);
        assert_eq!(out, block);
    }

    #[test]
    fn sad_colocated_counts_all_differences() {
        let a = Plane::filled(4, 4, 10);
        let b = Plane::filled(4, 4, 13);
        assert_eq!(a.sad_colocated(&b, 0, 0, 4, 4), 3 * 16);
        assert_eq!(a.sad_colocated(&b, 1, 1, 2, 2), 3 * 4);
    }

    #[test]
    fn rows_are_contiguous() {
        let mut p = Plane::new(3, 2);
        p.row_mut(1).copy_from_slice(&[7, 8, 9]);
        assert_eq!(p.row(1), &[7, 8, 9]);
        assert_eq!(p.get(2, 1), 9);
    }
}
