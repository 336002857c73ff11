//! Macroblock coding primitives for the encoder's coding step (step 4,
//! run by both of its schedules) and the RDE trial coder, and the
//! macroblock reconstruction that the encoder, the RDE trial coder and
//! the decoder all share: [`recon_intra_mb`] for intra blocks,
//! [`MbPrediction`] for inter, skipped and concealed ones, and
//! [`copy_mb`] for explicit skips. Reconstruction charges no operations;
//! each caller counts its own.
//!
//! These are free functions over explicit references (current frame,
//! prediction reference, output reconstruction, bit writer, op counter)
//! rather than `Encoder` methods, because the coding step writes into
//! whichever writer and reconstruction its schedule hands it: the
//! frame's own on the serial schedule, a row job's private scratch on
//! the slice schedule, where the encoder itself is only shared.
//!
//! All coefficient staging lives in fixed stack arrays (`[[i32; 64]; 6]`)
//! — the steady-state encode loop performs no heap allocation here.

use crate::bitstream::BitWriter;
use crate::block::{
    load_block, residual_block, store_block_clamped_with, store_pred, store_pred_plus_residual_with,
};
use crate::blockcode::{block_is_coded, write_coeff_block};
use crate::fused;
use crate::kernels::Kernels;
use crate::mb::{MbMode, SubPelVector};
use crate::mc::{predict_chroma_subpel_with, predict_luma_subpel_with, CHROMA_BLOCK, LUMA_BLOCK};
use crate::ops::OpCounts;
use crate::quant::{dequantize_block, quantize_block, Qp};
use crate::rde::{mc_read_bytes, MB_FOOTPRINT_BYTES};
use crate::vlc;
use crate::zigzag;
use pbpair_media::{Frame, MbIndex};

/// The per-frame coding parameters the block level needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockCodeCfg {
    pub qp: Qp,
    pub half_pel: bool,
    /// Use the fused `dct→quant→zigzag` kernel ([`fused::fdct_quant_scan`]).
    pub fused: bool,
    /// The pixel-kernel tier every block-level loop dispatches through.
    pub kernels: &'static Kernels,
}

/// Transforms one spatial block into zigzag-ordered levels, via either
/// the fused kernel or the separate three-pass pipeline (bit-identical
/// by construction; `tests/kernel_equiv.rs` proves it). Returns the
/// coded-block flag.
#[inline]
fn transform_block(
    cfg: &BlockCodeCfg,
    spatial: &[i32; 64],
    intra: bool,
    zig: &mut [i32; 64],
    ops: &mut OpCounts,
) -> bool {
    ops.dct_blocks += 1;
    ops.quant_blocks += 1;
    if cfg.fused {
        fused::fdct_quant_scan_with(cfg.kernels, spatial, cfg.qp, intra, zig)
    } else {
        let mut freq = [0i32; 64];
        cfg.kernels.fdct8(spatial, &mut freq);
        let quantized = quantize_block(&freq, cfg.qp, intra);
        *zig = zigzag::scan(&quantized);
        block_is_coded(zig, usize::from(intra))
    }
}

/// Codes one intra macroblock (shared by I-frames and forced-intra MBs
/// of P-frames; the caller writes any COD/mode bits first).
pub(crate) fn code_intra_mb(
    cfg: &BlockCodeCfg,
    w: &mut BitWriter,
    frame: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    ops: &mut OpCounts,
) {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();
    ops.recon_write_bytes += MB_FOOTPRINT_BYTES;
    let mut levels: MbLevels = [[0i32; 64]; 6];
    let mut cbp = 0u8;
    for (i, (px, py, plane)) in [
        (lx, ly, frame.y()),
        (lx + 8, ly, frame.y()),
        (lx, ly + 8, frame.y()),
        (lx + 8, ly + 8, frame.y()),
        (cx, cy, frame.cb()),
        (cx, cy, frame.cr()),
    ]
    .into_iter()
    .enumerate()
    {
        let spatial = load_block(plane, px, py);
        if transform_block(cfg, &spatial, true, &mut levels[i], ops) {
            cbp |= 1 << (5 - i);
        }
    }

    vlc::write_cbp(w, cbp);
    for (i, zig) in levels.iter().enumerate() {
        w.put_bits(zig[0].clamp(0, 255) as u32, 8); // intra DC carrier
        if cbp & (1 << (5 - i)) != 0 {
            write_coeff_block(w, zig, 1);
        }
    }

    recon_intra_mb(cfg.kernels, cfg.qp, &levels, new_recon, mb);
    ops.dequant_blocks += 6;
    ops.idct_blocks += 6;
}

/// Codes one inter macroblock, with automatic demotion to skip when the
/// vector is zero and every block quantizes to nothing. Returns the
/// final mode ([`MbMode::Inter`] or [`MbMode::Skip`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn code_inter_mb(
    cfg: &BlockCodeCfg,
    w: &mut BitWriter,
    frame: &Frame,
    reference: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    mv: SubPelVector,
    ops: &mut OpCounts,
) -> MbMode {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();

    let pred = MbPrediction::new(cfg.kernels, reference, mb, mv);
    ops.mc_luma_blocks += 1;
    ops.mc_chroma_blocks += 2;
    ops.ref_read_bytes += mc_read_bytes(mv);
    ops.recon_write_bytes += MB_FOOTPRINT_BYTES;

    // Residual transform per block.
    let mut levels: MbLevels = [[0i32; 64]; 6];
    let mut cbp = 0u8;
    for (i, &(sx, sy)) in LUMA_SUB.iter().enumerate() {
        let resid = residual_block(frame.y(), lx + sx, ly + sy, &pred.y, LUMA_BLOCK, sx, sy);
        if transform_block(cfg, &resid, false, &mut levels[i], ops) {
            cbp |= 1 << (5 - i);
        }
    }
    for (i, (plane, pred)) in [(frame.cb(), &pred.cb), (frame.cr(), &pred.cr)]
        .into_iter()
        .enumerate()
    {
        let resid = residual_block(plane, cx, cy, pred, CHROMA_BLOCK, 0, 0);
        if transform_block(cfg, &resid, false, &mut levels[i + 4], ops) {
            cbp |= 1 << (1 - i);
        }
    }

    if mv.is_zero() && cbp == 0 {
        // Skip: single COD bit, reconstruction = colocated copy.
        w.put_bit(true);
        pred.store(new_recon, mb);
        return MbMode::Skip;
    }

    w.put_bit(false); // COD = 0
    w.put_bit(false); // inter
    if cfg.half_pel {
        let (hx, hy) = mv.to_half_units();
        vlc::write_mvd(w, hx);
        vlc::write_mvd(w, hy);
    } else {
        vlc::write_mvd(w, mv.int.x);
        vlc::write_mvd(w, mv.int.y);
    }
    vlc::write_cbp(w, cbp);
    for (i, zig) in levels.iter().enumerate() {
        if cbp & (1 << (5 - i)) != 0 {
            write_coeff_block(w, zig, 0);
        }
    }

    pred.store_plus_residual(cfg.kernels, cfg.qp, &levels, cbp, new_recon, mb);
    let coded = u64::from(cbp.count_ones());
    ops.dequant_blocks += coded;
    ops.idct_blocks += coded;
    MbMode::Inter
}

/// Codes one macroblock as an explicit skip: a single COD bit and a
/// colocated (zero-vector) reference copy into the reconstruction. This
/// is what the RDE controller emits when it *chooses* skip outright — it
/// genuinely performs only the copy, unlike the demotion path of
/// [`code_inter_mb`], which discovers the skip after full transform work.
/// Bit-identical on the wire to a demoted skip.
pub(crate) fn code_skip_mb(
    w: &mut BitWriter,
    reference: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    ops: &mut OpCounts,
) -> MbMode {
    w.put_bit(true); // COD = 1: skipped
    copy_mb(reference, new_recon, mb);
    ops.mc_luma_blocks += 1;
    ops.mc_chroma_blocks += 2;
    ops.ref_read_bytes += MB_FOOTPRINT_BYTES;
    ops.recon_write_bytes += MB_FOOTPRINT_BYTES;
    MbMode::Skip
}

/// The zigzag-ordered levels of a macroblock's six 8×8 blocks, in coding
/// order: Y0 Y1 Y2 Y3 (raster 8×8 quadrants), Cb, Cr.
pub(crate) type MbLevels = [[i32; 64]; 6];

/// Offsets of the four luma blocks inside the 16×16 macroblock.
const LUMA_SUB: [(usize, usize); 4] = [(0, 0), (8, 0), (0, 8), (8, 8)];

/// Dequantizes and inverse-transforms one block of zigzag levels.
#[inline]
fn inverse_block(k: &Kernels, zig: &[i32; 64], qp: Qp, intra: bool) -> [i32; 64] {
    let coefs = dequantize_block(&zigzag::unscan(zig), qp, intra);
    let mut spatial = [0i32; 64];
    k.idct8(&coefs, &mut spatial);
    spatial
}

/// Reconstructs an intra macroblock from its levels into `dst`:
/// dequantize → IDCT → clamped store, block by block. The encoder, the
/// RDE trial coder and the decoder all rebuild intra macroblocks here;
/// callers count the six dequantized and inverse-transformed blocks.
pub(crate) fn recon_intra_mb(k: &Kernels, qp: Qp, levels: &MbLevels, dst: &mut Frame, mb: MbIndex) {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();
    for (i, zig) in levels.iter().enumerate() {
        let spatial = inverse_block(k, zig, qp, true);
        let (dx, dy, plane) = match i {
            0..=3 => (lx + LUMA_SUB[i].0, ly + LUMA_SUB[i].1, dst.y_mut()),
            4 => (cx, cy, dst.cb_mut()),
            _ => (cx, cy, dst.cr_mut()),
        };
        store_block_clamped_with(k, plane, dx, dy, &spatial);
    }
}

/// One macroblock's motion-compensated prediction, all three planes.
/// The encoder, the RDE trial coder and the decoder all predict inter,
/// skipped and concealed macroblocks through it.
pub(crate) struct MbPrediction {
    y: [u8; LUMA_BLOCK * LUMA_BLOCK],
    cb: [u8; CHROMA_BLOCK * CHROMA_BLOCK],
    cr: [u8; CHROMA_BLOCK * CHROMA_BLOCK],
}

impl MbPrediction {
    /// Predicts macroblock `mb` from `reference` displaced by `mv`.
    pub(crate) fn new(k: &Kernels, reference: &Frame, mb: MbIndex, mv: SubPelVector) -> Self {
        let mut pred = MbPrediction {
            y: [0; LUMA_BLOCK * LUMA_BLOCK],
            cb: [0; CHROMA_BLOCK * CHROMA_BLOCK],
            cr: [0; CHROMA_BLOCK * CHROMA_BLOCK],
        };
        predict_luma_subpel_with(k, reference.y(), mb, mv, &mut pred.y);
        predict_chroma_subpel_with(k, reference.cb(), mb, mv, &mut pred.cb);
        predict_chroma_subpel_with(k, reference.cr(), mb, mv, &mut pred.cr);
        pred
    }

    /// Stores the prediction with no residual: a demoted skip or a
    /// concealed macroblock.
    pub(crate) fn store(&self, dst: &mut Frame, mb: MbIndex) {
        let (lx, ly) = mb.luma_origin();
        let (cx, cy) = mb.chroma_origin();
        let (l, c) = (LUMA_BLOCK, CHROMA_BLOCK);
        store_pred(dst.y_mut(), lx, ly, &self.y, l, 0, 0, l);
        store_pred(dst.cb_mut(), cx, cy, &self.cb, c, 0, 0, c);
        store_pred(dst.cr_mut(), cx, cy, &self.cr, c, 0, 0, c);
    }

    /// Stores prediction plus residual, clamped: each block `cbp` flags
    /// adds its dequantized, inverse-transformed `levels`, the others a
    /// zero residual. Callers count the coded blocks.
    pub(crate) fn store_plus_residual(
        &self,
        k: &Kernels,
        qp: Qp,
        levels: &MbLevels,
        cbp: u8,
        dst: &mut Frame,
        mb: MbIndex,
    ) {
        let (lx, ly) = mb.luma_origin();
        let (cx, cy) = mb.chroma_origin();
        for (i, zig) in levels.iter().enumerate() {
            let resid = if cbp & (1 << (5 - i)) != 0 {
                inverse_block(k, zig, qp, false)
            } else {
                [0i32; 64]
            };
            let (x, y, plane, pred, stride, (px, py)) = match i {
                0..=3 => (
                    lx + LUMA_SUB[i].0,
                    ly + LUMA_SUB[i].1,
                    dst.y_mut(),
                    &self.y[..],
                    LUMA_BLOCK,
                    LUMA_SUB[i],
                ),
                4 => (cx, cy, dst.cb_mut(), &self.cb[..], CHROMA_BLOCK, (0, 0)),
                _ => (cx, cy, dst.cr_mut(), &self.cr[..], CHROMA_BLOCK, (0, 0)),
            };
            store_pred_plus_residual_with(k, plane, x, y, pred, stride, px, py, &resid);
        }
    }
}

/// Copies macroblock `mb` of `reference` into `dst` unchanged: the
/// zero-vector prediction of a skipped macroblock, without the
/// motion-compensation kernels (every tier's zero-vector prediction is
/// this copy).
pub(crate) fn copy_mb(reference: &Frame, dst: &mut Frame, mb: MbIndex) {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();
    for y in 0..16 {
        let row = &reference.y().row(ly + y)[lx..lx + 16];
        dst.y_mut().row_mut(ly + y)[lx..lx + 16].copy_from_slice(row);
    }
    for y in 0..8 {
        let cb = &reference.cb().row(cy + y)[cx..cx + 8];
        dst.cb_mut().row_mut(cy + y)[cx..cx + 8].copy_from_slice(cb);
        let cr = &reference.cr().row(cy + y)[cx..cx + 8];
        dst.cr_mut().row_mut(cy + y)[cx..cx + 8].copy_from_slice(cr);
    }
}
