//! The per-macroblock record both encoder schedules share, and the
//! per-row scratch of the slice schedule.
//!
//! Every macroblock's passage through the encoder's five steps is
//! recorded in one [`MbStage`]. The serial schedule keeps a single record
//! on the stack for the macroblock in flight; the slice schedule keeps
//! one [`RowScratch`] per macroblock row, holding that row's records and
//! a private bit writer, reconstruction frame and operation tally, and
//! hands the rows to a [`pbpair_sched::Pool`]. Both are persistent
//! encoder state, so steady-state parallel encoding reuses them without
//! reallocating.

use crate::bitstream::BitWriter;
use crate::mb::{MbMode, MotionVector};
use crate::me::{MeConfig, MeResult, SearchWindow};
use crate::ops::OpCounts;
use pbpair_media::{Frame, Plane, VideoFormat};

/// Everything the encoder records about one macroblock as it moves
/// through the five steps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MbStage {
    /// Step 1: similarity SAD against the previous original frame.
    pub colocated_sad: u64,
    /// Step 1: intra without a search (every I-frame macroblock, or the
    /// policy's pre-ME decision).
    pub force_intra: bool,
    /// Step 2: motion-search result (meaningless when `force_intra`).
    pub me: MeResult,
    /// Step 2: self-SAD (deviation from the MB mean) for the natural
    /// intra test.
    pub sad_self: u64,
    /// Step 3: final pre-coding decision — `None` = intra, `Some(mv)` =
    /// inter with this vector (half-pel refinement still pending).
    pub inter_mv: Option<MotionVector>,
    /// Step 4: the mode the block coder actually produced.
    pub final_mode: MbMode,
    /// Step 4: integer vector of the coded MB (zero for intra/skip).
    pub final_mv: MotionVector,
    /// Step 4: SAD of the chosen vector when ME ran (after refinement).
    pub sad_mv: Option<u64>,
    /// Step 4: bit offset of this MB within the writer it was coded into.
    pub bit_start: u64,
    /// Step 4: bits this MB occupies.
    pub bit_len: u64,
}

impl Default for MbStage {
    fn default() -> Self {
        MbStage {
            colocated_sad: 0,
            force_intra: false,
            me: MeResult {
                mv: MotionVector::ZERO,
                sad: 0,
                cost: 0,
                candidates: 0,
                sad_ops: 0,
            },
            sad_self: 0,
            inter_mv: None,
            final_mode: MbMode::Intra,
            final_mv: MotionVector::ZERO,
            sad_mv: None,
            bit_start: 0,
            bit_len: 0,
        }
    }
}

/// Private working state of one macroblock row on the slice schedule.
#[derive(Debug)]
pub(crate) struct RowScratch {
    /// One record per macroblock of the row, left to right.
    pub stages: Vec<MbStage>,
    /// Row-local bitstream; appended to the frame writer in row order.
    pub writer: BitWriter,
    /// Full-size reconstruction frame; only this row's 16-pixel luma band
    /// (8-pixel chroma band) is written, and only that band is copied out.
    pub recon: Frame,
    /// Row-local operation tally, merged in row order.
    pub ops: OpCounts,
    /// Scratch writer for RDE trial coding; untouched when the joint
    /// controller is inactive.
    pub rde_writer: BitWriter,
    /// The row's full-search window scratch (empty for the three-step
    /// search).
    pub me_window: SearchWindow,
}

impl RowScratch {
    /// The scratch of every macroblock row of `format`, searching with
    /// `me`.
    pub fn for_format(format: VideoFormat, me: MeConfig) -> Vec<RowScratch> {
        let grid = pbpair_media::MbGrid::new(format);
        (0..grid.rows())
            .map(|_| RowScratch {
                stages: vec![MbStage::default(); grid.cols()],
                writer: BitWriter::new(),
                recon: Frame::new(format),
                ops: OpCounts::new(),
                rde_writer: BitWriter::new(),
                me_window: SearchWindow::new(me),
            })
            .collect()
    }
}

fn copy_band(dst: &mut Plane, src: &Plane, y0: usize, h: usize) {
    for y in y0..y0 + h {
        dst.row_mut(y).copy_from_slice(src.row(y));
    }
}

/// Copies macroblock row `mb_row`'s reconstruction band from a row
/// scratch frame into the frame-level reconstruction.
pub(crate) fn copy_row_band(dst: &mut Frame, src: &Frame, mb_row: usize) {
    copy_band(dst.y_mut(), src.y(), mb_row * 16, 16);
    copy_band(dst.cb_mut(), src.cb(), mb_row * 8, 8);
    copy_band(dst.cr_mut(), src.cr(), mb_row * 8, 8);
}
