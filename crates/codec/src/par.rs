//! The per-macroblock record both encoder schedules share, and the
//! per-row scratch of the slice schedule.
//!
//! Every macroblock's passage through the encoder's five steps is
//! recorded in one [`MbStage`]. The serial schedule keeps a single record
//! on the stack for the macroblock in flight; the slice schedule keeps
//! one per macroblock and farms rows of them to a
//! [`pbpair_sched::WorkStealingPool`] ([`run_rows`]), where each row job
//! also owns one [`RowScratch`] (a private bit writer, reconstruction
//! frame, and operation tally). Both are persistent encoder state, so
//! steady-state parallel encoding reuses them without reallocating.

use crate::bitstream::BitWriter;
use crate::mb::{MbMode, MotionVector};
use crate::me::MeResult;
use crate::ops::OpCounts;
use pbpair_media::{Frame, Plane, VideoFormat};
use pbpair_sched::WorkStealingPool;

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

/// Private working state of one row job.
#[derive(Debug)]
pub(crate) struct RowScratch {
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
}

/// Persistent scratch for the slice schedule, lazily created on the
/// first slice-parallel frame.
#[derive(Debug)]
pub(crate) struct ParScratch {
    /// One entry per macroblock, raster order; rows are handed to jobs
    /// via `chunks_mut(cols)`.
    pub mbs: Vec<MbStage>,
    /// One entry per macroblock row.
    pub rows: Vec<RowScratch>,
}

impl ParScratch {
    pub fn new(format: VideoFormat) -> Self {
        let grid = pbpair_media::MbGrid::new(format);
        ParScratch {
            mbs: vec![MbStage::default(); grid.len()],
            rows: (0..grid.rows())
                .map(|_| RowScratch {
                    writer: BitWriter::new(),
                    recon: Frame::new(format),
                    ops: OpCounts::new(),
                    rde_writer: BitWriter::new(),
                })
                .collect(),
        }
    }
}

/// Runs `job(row, stages, scratch)` once per macroblock row on `pool`,
/// each call with that row's `cols` records and its scratch, and returns
/// when every row is done.
pub(crate) fn run_rows<F>(pool: &WorkStealingPool, par: &mut ParScratch, cols: usize, job: F)
where
    F: Fn(usize, &mut [MbStage], &mut RowScratch) + Sync,
{
    let job = &job;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = par
        .mbs
        .chunks_mut(cols)
        .zip(par.rows.iter_mut())
        .enumerate()
        .map(|(row, (stages, rs))| {
            Box::new(move || job(row, stages, rs)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run_scoped(jobs);
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
