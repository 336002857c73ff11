//! Pixel-block helpers shared by the encoder's reconstruction loop and the
//! decoder, guaranteeing bit-identical reconstruction on both sides.

use crate::dct::{BLOCK, BLOCK_LEN};
use crate::kernels::Kernels;
use pbpair_media::Plane;

/// Loads an 8×8 block of samples at `(x, y)` as `i32` (fully inside the
/// plane).
///
/// # Panics
///
/// Panics if the block is out of bounds.
pub fn load_block(p: &Plane, x: usize, y: usize) -> [i32; BLOCK_LEN] {
    let mut out = [0i32; BLOCK_LEN];
    for by in 0..BLOCK {
        let row = &p.row(y + by)[x..x + BLOCK];
        for (bx, &s) in row.iter().enumerate() {
            out[by * BLOCK + bx] = s as i32;
        }
    }
    out
}

/// Computes the 8×8 residual between the samples of `p` at `(x, y)` and a
/// prediction buffer: `pred` is row-major with the given `stride`, and
/// `(px, py)` is the block's offset inside it.
pub fn residual_block(
    p: &Plane,
    x: usize,
    y: usize,
    pred: &[u8],
    stride: usize,
    px: usize,
    py: usize,
) -> [i32; BLOCK_LEN] {
    let mut out = [0i32; BLOCK_LEN];
    for by in 0..BLOCK {
        let row = &p.row(y + by)[x..x + BLOCK];
        for (bx, &s) in row.iter().enumerate() {
            out[by * BLOCK + bx] = s as i32 - pred[(py + by) * stride + (px + bx)] as i32;
        }
    }
    out
}

/// Stores an 8×8 spatial block into the plane at `(x, y)`, clamping each
/// sample to `0..=255` through the kernel table `k` — the
/// reconstruction path of intra blocks.
///
/// # Panics
///
/// Panics if the block is out of bounds.
pub fn store_block_clamped_with(
    k: &Kernels,
    p: &mut Plane,
    x: usize,
    y: usize,
    data: &[i32; BLOCK_LEN],
) {
    for by in 0..BLOCK {
        let row = &mut p.row_mut(y + by)[x..x + BLOCK];
        k.store_clamped8(row, &data[by * BLOCK..(by + 1) * BLOCK]);
    }
}

/// Stores prediction + residual into the plane at `(x, y)`, clamped — the
/// reconstruction path of inter blocks, through the kernel table `k`.
/// `pred`/`stride`/`(px, py)` are as in [`residual_block`].
#[allow(clippy::too_many_arguments)]
pub fn store_pred_plus_residual_with(
    k: &Kernels,
    p: &mut Plane,
    x: usize,
    y: usize,
    pred: &[u8],
    stride: usize,
    px: usize,
    py: usize,
    resid: &[i32; BLOCK_LEN],
) {
    for by in 0..BLOCK {
        let row = &mut p.row_mut(y + by)[x..x + BLOCK];
        k.add_residual8(
            row,
            &pred[(py + by) * stride + px..(py + by) * stride + px + BLOCK],
            &resid[by * BLOCK..(by + 1) * BLOCK],
        );
    }
}

/// Copies a prediction buffer region into the plane verbatim (skip mode /
/// zero residual).
#[allow(clippy::too_many_arguments)]
pub fn store_pred(
    p: &mut Plane,
    x: usize,
    y: usize,
    pred: &[u8],
    stride: usize,
    px: usize,
    py: usize,
    size: usize,
) {
    for by in 0..size {
        let row = &mut p.row_mut(y + by)[x..x + size];
        row.copy_from_slice(&pred[(py + by) * stride + px..(py + by) * stride + px + size]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let k = Kernels::active();
        let mut p = Plane::from_fn(16, 16, |x, y| (x * 16 + y) as u8);
        let blk = load_block(&p, 8, 8);
        let mut q = Plane::new(16, 16);
        store_block_clamped_with(k, &mut q, 8, 8, &blk);
        for y in 8..16 {
            for x in 8..16 {
                assert_eq!(q.get(x, y), p.get(x, y));
            }
        }
        // Clamping.
        let hot = [300i32; BLOCK_LEN];
        store_block_clamped_with(k, &mut p, 0, 0, &hot);
        assert_eq!(p.get(0, 0), 255);
        let cold = [-5i32; BLOCK_LEN];
        store_block_clamped_with(k, &mut p, 0, 0, &cold);
        assert_eq!(p.get(0, 0), 0);
    }

    #[test]
    fn residual_plus_prediction_reconstructs() {
        let k = Kernels::active();
        let cur = Plane::from_fn(16, 16, |x, y| (40 + x * 3 + y) as u8);
        let pred: Vec<u8> = (0..256).map(|i| (i % 200) as u8).collect();
        let resid = residual_block(&cur, 0, 8, &pred, 16, 0, 8);
        let mut out = Plane::new(16, 16);
        store_pred_plus_residual_with(k, &mut out, 0, 8, &pred, 16, 0, 8, &resid);
        for y in 8..16 {
            for x in 0..8 {
                assert_eq!(out.get(x, y), cur.get(x, y));
            }
        }
    }

    #[test]
    fn store_pred_copies_subregion() {
        let pred: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let mut p = Plane::new(32, 32);
        store_pred(&mut p, 16, 16, &pred, 16, 8, 8, 8);
        assert_eq!(p.get(16, 16), pred[8 * 16 + 8]);
        assert_eq!(p.get(23, 23), pred[15 * 16 + 15]);
    }
}
