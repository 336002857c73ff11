//! Macroblock grid addressing.
//!
//! The paper indexes macroblocks as `m[i][j]` with `0 <= i < 9` rows and
//! `0 <= j < 11` columns for QCIF; [`MbIndex`] mirrors that convention.

use crate::format::{VideoFormat, MB_SIZE};

/// Position of one macroblock within the frame grid: `(row, col)` in
/// macroblock units, matching the paper's `m_{i,j}` subscripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MbIndex {
    /// Macroblock row (the paper's `i`), `0..mb_rows`.
    pub row: usize,
    /// Macroblock column (the paper's `j`), `0..mb_cols`.
    pub col: usize,
}

impl MbIndex {
    /// Creates an index. No bounds are enforced here; use
    /// [`MbGrid::contains`] to validate against a particular format.
    pub fn new(row: usize, col: usize) -> Self {
        MbIndex { row, col }
    }

    /// Top-left luma sample coordinate of this macroblock.
    #[inline]
    pub fn luma_origin(&self) -> (usize, usize) {
        (self.col * MB_SIZE, self.row * MB_SIZE)
    }

    /// Top-left chroma sample coordinate of this macroblock (4:2:0).
    #[inline]
    pub fn chroma_origin(&self) -> (usize, usize) {
        (self.col * MB_SIZE / 2, self.row * MB_SIZE / 2)
    }
}

/// The macroblock grid of a frame: iteration order, flat indexing, and
/// geometric queries shared by the encoder and the refresh schemes.
///
/// # Example
///
/// ```rust
/// use pbpair_media::{MbGrid, MbIndex, VideoFormat};
///
/// let grid = MbGrid::new(VideoFormat::QCIF);
/// assert_eq!(grid.len(), 99);
/// let first = grid.iter().next().unwrap();
/// assert_eq!(first, MbIndex::new(0, 0));
/// assert_eq!(grid.flat_index(MbIndex::new(1, 0)), 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbGrid {
    rows: usize,
    cols: usize,
}

impl MbGrid {
    /// Grid for the given picture format.
    pub fn new(format: VideoFormat) -> Self {
        MbGrid {
            rows: format.mb_rows(),
            cols: format.mb_cols(),
        }
    }

    /// Number of macroblock rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of macroblock columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of macroblocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the grid is empty (never true for valid formats).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `idx` lies inside the grid.
    #[inline]
    pub fn contains(&self, idx: MbIndex) -> bool {
        idx.row < self.rows && idx.col < self.cols
    }

    /// Raster-scan flat index of `idx` (row-major), the order in which the
    /// encoder emits macroblocks.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of the grid.
    #[inline]
    pub fn flat_index(&self, idx: MbIndex) -> usize {
        assert!(self.contains(idx), "macroblock index out of grid");
        idx.row * self.cols + idx.col
    }

    /// Inverse of [`MbGrid::flat_index`].
    ///
    /// # Panics
    ///
    /// Panics if `flat >= len()`.
    #[inline]
    pub fn from_flat(&self, flat: usize) -> MbIndex {
        assert!(flat < self.len(), "flat macroblock index out of grid");
        MbIndex::new(flat / self.cols, flat % self.cols)
    }

    /// Iterates over all macroblocks in raster-scan order.
    pub fn iter(&self) -> impl Iterator<Item = MbIndex> + '_ {
        let cols = self.cols;
        (0..self.len()).map(move |f| MbIndex::new(f / cols, f % cols))
    }

    /// The macroblocks (at most four) that a 16×16 luma region anchored at
    /// pixel `(px, py)` overlaps, together with the number of luma samples
    /// of the region that fall inside each. Pixels outside the frame are
    /// attributed to the edge macroblock they clamp to, mirroring
    /// edge-extended motion compensation.
    ///
    /// This is the geometric core of the paper's Eq. (1): the "related MBs"
    /// of an inter macroblock are exactly the previous-frame macroblocks its
    /// motion-compensated reference area touches.
    pub fn overlapped_mbs(&self, px: isize, py: isize) -> Vec<(MbIndex, usize)> {
        let mut out: Vec<(MbIndex, usize)> = Vec::with_capacity(4);
        self.for_each_overlapped(px, py, |idx, area| {
            if let Some(e) = out.iter_mut().find(|(i, _)| *i == idx) {
                e.1 += area;
            } else {
                out.push((idx, area));
            }
        });
        debug_assert_eq!(out.iter().map(|(_, a)| a).sum::<usize>(), MB_SIZE * MB_SIZE);
        out
    }

    /// Allocation-free variant of [`MbGrid::overlapped_mbs`] for hot paths
    /// (PBPAIR's Equation-1 update evaluates it once per inter
    /// macroblock).
    /// `f(mb, samples)` is invoked up to four times; when clamping collapses
    /// cells the same index may be reported more than once, with the areas
    /// still totalling 256.
    pub fn for_each_overlapped<F: FnMut(MbIndex, usize)>(&self, px: isize, py: isize, mut f: F) {
        let mb = MB_SIZE as isize;
        let max_x = (self.cols * MB_SIZE - 1) as isize;
        let max_y = (self.rows * MB_SIZE - 1) as isize;
        let (ys, ny) = split_span2(py, mb, max_y);
        let (xs, nx) = split_span2(px, mb, max_x);
        for &(cy0, cy1) in ys.iter().take(ny) {
            for &(cx0, cx1) in xs.iter().take(nx) {
                let row = ((cy0 / mb) as usize).min(self.rows - 1);
                let col = ((cx0 / mb) as usize).min(self.cols - 1);
                let area = ((cx1 - cx0 + 1) * (cy1 - cy0 + 1)) as usize;
                f(MbIndex::new(row, col), area);
            }
        }
    }
}

/// Array-returning version of [`split_span`] used by the allocation-free
/// walk: returns up to two inclusive ranges and their count.
fn split_span2(start: isize, mb: isize, max: isize) -> ([(isize, isize); 2], usize) {
    let a = start.clamp(0, max);
    let b = (start + mb - 1).clamp(0, max);
    let cell_a = a / mb;
    let cell_b = b / mb;
    if cell_a == cell_b {
        ([(cell_a * mb, cell_a * mb + mb - 1), (0, 0)], 1)
    } else {
        let boundary = cell_b * mb;
        let left = boundary - start;
        let right = mb - left;
        (
            [
                (boundary - left, boundary - 1),
                (boundary, boundary + right - 1),
            ],
            2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qcif_grid() -> MbGrid {
        MbGrid::new(VideoFormat::QCIF)
    }

    #[test]
    fn raster_order_and_flat_roundtrip() {
        let g = qcif_grid();
        assert_eq!(g.len(), 99);
        for (i, idx) in g.iter().enumerate() {
            assert_eq!(g.flat_index(idx), i);
            assert_eq!(g.from_flat(i), idx);
        }
    }

    #[test]
    fn luma_and_chroma_origins() {
        let idx = MbIndex::new(2, 3);
        assert_eq!(idx.luma_origin(), (48, 32));
        assert_eq!(idx.chroma_origin(), (24, 16));
    }

    #[test]
    fn aligned_region_overlaps_exactly_one_mb() {
        let g = qcif_grid();
        let o = g.overlapped_mbs(32, 16);
        assert_eq!(o, vec![(MbIndex::new(1, 2), 256)]);
    }

    #[test]
    fn offset_region_overlaps_four_mbs_with_correct_weights() {
        let g = qcif_grid();
        let o = g.overlapped_mbs(20, 12); // 4 into col 1, 12 into row 0
        let total: usize = o.iter().map(|(_, a)| a).sum();
        assert_eq!(total, 256);
        assert_eq!(o.len(), 4);
        // x split: 12 samples in col 1, 4 in col 2; y split: 4 in row 0, 12 in row 1.
        let get = |r, c| {
            o.iter()
                .find(|(i, _)| *i == MbIndex::new(r, c))
                .map(|(_, a)| *a)
                .unwrap()
        };
        assert_eq!(get(0, 1), 12 * 4);
        assert_eq!(get(0, 2), 4 * 4);
        assert_eq!(get(1, 1), 12 * 12);
        assert_eq!(get(1, 2), 4 * 12);
    }

    #[test]
    fn horizontal_only_offset_overlaps_two_mbs() {
        let g = qcif_grid();
        let o = g.overlapped_mbs(8, 0);
        assert_eq!(o.len(), 2);
        let total: usize = o.iter().map(|(_, a)| a).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn out_of_frame_region_clamps_to_edge_mbs() {
        let g = qcif_grid();
        let o = g.overlapped_mbs(-20, -20);
        let total: usize = o.iter().map(|(_, a)| a).sum();
        assert_eq!(total, 256);
        assert!(o.iter().all(|(i, _)| g.contains(*i)));
        assert_eq!(o[0].0, MbIndex::new(0, 0));

        let o2 = g.overlapped_mbs(10_000, 10_000);
        assert!(o2.iter().all(|(i, _)| g.contains(*i)));
        assert_eq!(o2.iter().map(|(_, a)| a).sum::<usize>(), 256);
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn flat_index_checks_bounds() {
        let g = qcif_grid();
        let _ = g.flat_index(MbIndex::new(9, 0));
    }
}
