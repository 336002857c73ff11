//! Motion estimation.
//!
//! Two search strategies over an integer-pixel window:
//!
//! * [`SearchStrategy::Full`] — exhaustive search of the whole window, the
//!   reference against which the fast search is validated;
//! * [`SearchStrategy::ThreeStep`] — the classic logarithmic three-step
//!   search (9 candidates per step, halving the stride), the default used
//!   by the evaluation because it matches what a 400 MHz PDA codec would
//!   actually run.
//!
//! Every candidate's cost is `SAD(mv) + bias(mv)` where `bias` is supplied
//! by the caller. The plain codec passes a zero bias; **PBPAIR passes its
//! probability-of-correctness penalty here** — this hook is exactly where
//! the paper integrates network awareness into the ME process (Section
//! 3.1.2).
//!
//! Each search also reports how many absolute-difference operations it
//! executed, feeding the operation-accounting energy model.

use crate::kernels::Kernels;
use crate::mb::{MotionVector, SubPelVector};
use crate::mc::{predict_luma_subpel_with, LUMA_BLOCK};
use pbpair_media::{MbIndex, Plane};

/// Which candidate pattern the searcher visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Exhaustive integer search of `(2r+1)²` candidates.
    Full,
    /// Three-step logarithmic search (~25 candidates for r = 7,
    /// ~33 for r = 15).
    ThreeStep,
}

/// Motion-search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeConfig {
    /// Maximum displacement per axis in pixels (H.263 default window ±15).
    pub search_range: u8,
    /// Candidate pattern.
    pub strategy: SearchStrategy,
}

impl Default for MeConfig {
    /// ±15 three-step search — the evaluation default.
    fn default() -> Self {
        MeConfig {
            search_range: 15,
            strategy: SearchStrategy::ThreeStep,
        }
    }
}

/// Result of one motion search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeResult {
    /// The winning vector.
    pub mv: MotionVector,
    /// Plain SAD of the winning vector (bias not included).
    pub sad: u64,
    /// Biased cost of the winning vector (what the search minimized).
    pub cost: i64,
    /// Candidates evaluated.
    pub candidates: u32,
    /// Absolute-difference operations executed (256 per candidate).
    pub sad_ops: u64,
}

/// SAD between the macroblock `mb` of `cur` and the same-size block of
/// `reference` displaced by `mv` (edge-clamped), through the kernel
/// table `k`. Interior candidates (both blocks fully inside their
/// planes) run the tier's SAD kernel; edge-clamped candidates read the
/// reference one edge-replicated row at a time and stay scalar on every
/// tier. They are not rare: about 19% of a ±15 full search on QCIF.
pub fn sad_mb_with(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    mv: MotionVector,
) -> u64 {
    let (ox, oy) = mb.luma_origin();
    let rx = ox as isize + mv.x as isize;
    let ry = oy as isize + mv.y as isize;
    let w = reference.width() as isize;
    let h = reference.height() as isize;
    if rx >= 0 && ry >= 0 && rx + 16 <= w && ry + 16 <= h {
        // Fast path: contiguous rows on both sides.
        let (rx, ry) = (rx as usize, ry as usize);
        let cur_stride = cur.width();
        let ref_stride = reference.width();
        k.sad16(
            &cur.samples()[oy * cur_stride + ox..],
            cur_stride,
            &reference.samples()[ry * ref_stride + rx..],
            ref_stride,
        )
    } else {
        let mut acc = 0u64;
        let mut buf = [0u8; 16];
        for dy in 0..16 {
            let a = &cur.row(oy + dy)[ox..ox + 16];
            let b = clamped_ref_row(reference, rx, ry + dy as isize, &mut buf);
            for (pa, pb) in a.iter().zip(b) {
                acc += (*pa as i32 - *pb as i32).unsigned_abs() as u64;
            }
        }
        acc
    }
}

/// The 16 reference samples at `(x..x + 16, y)` as
/// [`Plane::get_clamped`] reads them: row `y` clamped into the plane,
/// then a slice of it when the span lies inside horizontally, otherwise
/// a copy into `buf` with the edge sample replicated.
#[inline]
fn clamped_ref_row<'a>(
    reference: &'a Plane,
    x: isize,
    y: isize,
    buf: &'a mut [u8; 16],
) -> &'a [u8] {
    let w = reference.width() as isize;
    let row = reference.row(y.clamp(0, reference.height() as isize - 1) as usize);
    if x >= 0 && x + 16 <= w {
        &row[x as usize..x as usize + 16]
    } else {
        for (dx, s) in buf.iter_mut().enumerate() {
            *s = row[(x + dx as isize).clamp(0, w - 1) as usize];
        }
        buf
    }
}

/// Bounded SAD with early termination: accumulates row by row and
/// abandons the candidate as soon as the partial sum reaches `limit`
/// (at which point it can no longer win). Returns the accumulated sum
/// plus the number of absolute-difference operations actually executed
/// (16 per row visited, against [`sad_mb_with`]'s unconditional 256),
/// through the kernel table `k`.
///
/// # Contract
///
/// Callers may rely on exactly two properties of the returned `(acc,
/// ops)` — and nothing else:
///
/// 1. if `acc < limit`, then `acc` **is** the exact full SAD;
/// 2. if `acc ≥ limit`, the true SAD is `≥ limit` (the candidate was
///    abandoned; `acc` is only a lower bound on the true SAD).
///
/// In particular, callers must NOT assume the bound is consulted after
/// every row: an implementation that checks it every 2 rows (or per
/// whole block) still satisfies 1–2, and the motion searches remain
/// winner-identical under it because they adopt a candidate only when
/// `acc < limit` — see `tests/kernel_equiv.rs`
/// (`coarse_bounded_sad_is_winner_identical`), which proves the searches
/// against a deliberately 2-row-granular tier
/// ([`Kernels::coarse2_for_tests`]). Every *production* tier does check
/// per row, which is the stronger property that keeps `ops` (and the
/// energy model) tier-invariant, not just the winner.
pub fn sad_mb_bounded_with(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    mv: MotionVector,
    limit: u64,
) -> (u64, u64) {
    let (ox, oy) = mb.luma_origin();
    let rx = ox as isize + mv.x as isize;
    let ry = oy as isize + mv.y as isize;
    let w = reference.width() as isize;
    let h = reference.height() as isize;
    if rx >= 0 && ry >= 0 && rx + 16 <= w && ry + 16 <= h {
        let (rx, ry) = (rx as usize, ry as usize);
        let cur_stride = cur.width();
        let ref_stride = reference.width();
        k.sad16_bounded(
            &cur.samples()[oy * cur_stride + ox..],
            cur_stride,
            &reference.samples()[ry * ref_stride + rx..],
            ref_stride,
            limit,
        )
    } else {
        let mut acc = 0u64;
        let mut ops = 0u64;
        let mut buf = [0u8; 16];
        for dy in 0..16 {
            let a = &cur.row(oy + dy)[ox..ox + 16];
            let b = clamped_ref_row(reference, rx, ry + dy as isize, &mut buf);
            for (pa, pb) in a.iter().zip(b) {
                acc += (*pa as i32 - *pb as i32).unsigned_abs() as u64;
            }
            ops += 16;
            if acc >= limit {
                return (acc, ops);
            }
        }
        (acc, ops)
    }
}

/// Sum of absolute deviations of macroblock `mb` from its own mean — the
/// paper's `SAD_self`, the intra-side term of the inter/intra decision.
pub fn sad_self(cur: &Plane, mb: MbIndex) -> u64 {
    let (ox, oy) = mb.luma_origin();
    let mut sum = 0u64;
    for dy in 0..16 {
        for &p in &cur.row(oy + dy)[ox..ox + 16] {
            sum += p as u64;
        }
    }
    let mean = (sum / 256) as i32;
    let mut acc = 0u64;
    for dy in 0..16 {
        for &p in &cur.row(oy + dy)[ox..ox + 16] {
            acc += (p as i32 - mean).unsigned_abs() as u64;
        }
    }
    acc
}

/// A small deduplicated list of predicted motion vectors, fed to
/// [`search_fast_with`] as a pruning prepass. The encoder fills it with the
/// median of the causal neighbours (left/top/top-right), the zero
/// vector, and the co-located previous-frame vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct MvCandidates {
    mvs: [MotionVector; 4],
    len: u8,
}

impl MvCandidates {
    /// Adds `mv` clamped to the search window `±range`, skipping exact
    /// duplicates. Silently ignores pushes past capacity (4).
    pub fn push_clamped(&mut self, mv: MotionVector, range: u8) {
        let r = range as i16;
        let clamped = MotionVector::new(mv.x.clamp(-r, r), mv.y.clamp(-r, r));
        if self.len as usize == self.mvs.len() || self.as_slice().contains(&clamped) {
            return;
        }
        self.mvs[self.len as usize] = clamped;
        self.len += 1;
    }

    /// The candidates pushed so far.
    pub fn as_slice(&self) -> &[MotionVector] {
        &self.mvs[..self.len as usize]
    }
}

/// Component-wise median of three motion vectors — the H.263/H.264
/// motion-vector predictor over the left/top/top-right neighbours.
pub fn median_mv(a: MotionVector, b: MotionVector, c: MotionVector) -> MotionVector {
    fn med(a: i16, b: i16, c: i16) -> i16 {
        let mut v = [a, b, c];
        v.sort_unstable();
        v[1]
    }
    MotionVector::new(med(a.x, b.x, c.x), med(a.y, b.y, c.y))
}

/// Runs the configured search for macroblock `mb` through the kernel
/// table `k`, minimizing `SAD(mv) + bias(mv)`.
///
/// `bias` may be stateful (PBPAIR consults its correctness matrix); it is
/// invoked once per candidate.
pub fn search_with(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    cfg: MeConfig,
    bias: &mut dyn FnMut(MotionVector) -> i64,
) -> MeResult {
    match cfg.strategy {
        SearchStrategy::Full => full_search(k, cur, reference, mb, cfg.search_range, bias),
        SearchStrategy::ThreeStep => three_step(k, cur, reference, mb, cfg.search_range, bias),
    }
}

/// The optimized counterpart of [`search_with`]: returns the **identical**
/// `(mv, sad, cost)` for any inputs (the winner, its SAD, and its biased
/// cost are provably the same as the naive search's, including
/// tie-breaking), but executes far fewer absolute-difference operations.
/// `candidates` and `sad_ops` report the work actually performed, so they
/// are smaller than (and not comparable to) the naive search's counts.
///
/// * `Full`: the predicted-MV `prepass` list is evaluated first to
///   establish an upper bound on the winning cost; the exhaustive sweep
///   then abandons any candidate whose partial SAD proves it cannot beat
///   both the running best and that bound. The prepass only tightens the
///   pruning limit — it never replaces the running best directly, which
///   is what preserves the naive search's first-wins tie-breaking.
/// * `ThreeStep`: the hill-climb visits exactly the naive trajectory
///   (prediction can not be folded in without changing the path), with
///   each candidate's SAD abandoned once it reaches the running best.
///
/// `bias` is invoked once per visited candidate, including the prepass —
/// i.e. potentially more times than the naive search invokes it.
#[allow(clippy::too_many_arguments)]
pub fn search_fast_with(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    cfg: MeConfig,
    bias: &mut dyn FnMut(MotionVector) -> i64,
    prepass: &MvCandidates,
) -> MeResult {
    match cfg.strategy {
        SearchStrategy::Full => {
            full_search_fast(k, cur, reference, mb, cfg.search_range, bias, prepass)
        }
        SearchStrategy::ThreeStep => three_step_fast(k, cur, reference, mb, cfg.search_range, bias),
    }
}

fn full_search_fast(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    range: u8,
    bias: &mut dyn FnMut(MotionVector) -> i64,
    prepass: &MvCandidates,
) -> MeResult {
    let r = range as i16;
    // Zero vector first, fully evaluated: the tie-breaking anchor.
    let zero_sad = sad_mb_with(k, cur, reference, mb, MotionVector::ZERO);
    let mut best = MeResult {
        mv: MotionVector::ZERO,
        sad: zero_sad,
        cost: zero_sad as i64 + bias(MotionVector::ZERO),
        candidates: 1,
        sad_ops: 256,
    };
    // Prepass: each predicted MV is inside the window (push_clamped), so
    // its cost is an upper bound on the sweep's true minimum. Only the
    // bound is tightened; `best` is NOT updated here, because adopting a
    // candidate out of sweep order would change which of several
    // equal-cost vectors wins.
    let mut bound = best.cost;
    for &mv in prepass.as_slice() {
        if mv == MotionVector::ZERO {
            continue;
        }
        let sad = sad_mb_with(k, cur, reference, mb, mv);
        best.candidates += 1;
        best.sad_ops += 256;
        bound = bound.min(sad as i64 + bias(mv));
    }
    for dy in -r..=r {
        for dx in -r..=r {
            if dx == 0 && dy == 0 {
                continue;
            }
            let mv = MotionVector::new(dx, dy);
            let b = bias(mv);
            best.candidates += 1;
            // A candidate can only be the naive winner with
            // cost < best.cost and cost ≤ bound, i.e.
            // sad < min(best.cost, bound + 1) − bias.
            let limit = best.cost.min(bound.saturating_add(1)).saturating_sub(b);
            if limit <= 0 {
                continue;
            }
            let (sad, ops) = sad_mb_bounded_with(k, cur, reference, mb, mv, limit as u64);
            best.sad_ops += ops;
            if sad < limit as u64 {
                // Fully evaluated and strictly under the limit, hence
                // strictly under the running best.
                best.mv = mv;
                best.sad = sad;
                best.cost = sad as i64 + b;
            }
        }
    }
    best
}

fn three_step_fast(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    range: u8,
    bias: &mut dyn FnMut(MotionVector) -> i64,
) -> MeResult {
    let r = range as i16;
    let zero_sad = sad_mb_with(k, cur, reference, mb, MotionVector::ZERO);
    let mut best = MeResult {
        mv: MotionVector::ZERO,
        sad: zero_sad,
        cost: zero_sad as i64 + bias(MotionVector::ZERO),
        candidates: 1,
        sad_ops: 256,
    };
    let mut step = 1i16;
    while step * 2 <= r.max(1) {
        step *= 2;
    }
    let mut center = MotionVector::ZERO;
    while step >= 1 {
        let mut improved = true;
        while improved {
            improved = false;
            for dy in [-step, 0, step] {
                for dx in [-step, 0, step] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let cand = MotionVector::new(
                        (center.x + dx).clamp(-r, r),
                        (center.y + dy).clamp(-r, r),
                    );
                    if cand == center {
                        continue;
                    }
                    let b = bias(cand);
                    best.candidates += 1;
                    // Update iff sad < best.cost − bias ⇔ the naive
                    // search's strict cost improvement — so the
                    // hill-climb follows the identical trajectory.
                    let limit = best.cost.saturating_sub(b);
                    if limit <= 0 {
                        continue;
                    }
                    let (sad, ops) = sad_mb_bounded_with(k, cur, reference, mb, cand, limit as u64);
                    best.sad_ops += ops;
                    if sad < limit as u64 {
                        best.mv = cand;
                        best.sad = sad;
                        best.cost = sad as i64 + b;
                        improved = true;
                    }
                }
            }
            if improved {
                center = best.mv;
            }
            if step > 1 {
                break; // only the final stride hill-climbs repeatedly
            }
        }
        step /= 2;
    }
    best
}

/// Result of a half-pel refinement around an integer winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubPelResult {
    /// The winning half-pel vector (may equal the integer input).
    pub mv: SubPelVector,
    /// SAD of the winning position.
    pub sad: u64,
    /// Absolute-difference + interpolation operations spent (for the
    /// energy model).
    pub sad_ops: u64,
}

/// Refines an integer-search winner by testing its 8 half-pel neighbours
/// (H.263's half-pel step after integer search). Returns the best of the
/// 9 positions. Interpolation and SAD both run on the kernel table `k`.
pub fn refine_half_pel_with(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    int_mv: MotionVector,
    int_sad: u64,
) -> SubPelResult {
    let (ox, oy) = mb.luma_origin();
    let mut best = SubPelResult {
        mv: SubPelVector::integer(int_mv),
        sad: int_sad,
        sad_ops: 0,
    };
    let (cx, cy) = (2 * int_mv.x, 2 * int_mv.y);
    let cur_stride = cur.width();
    let cur_base = &cur.samples()[oy * cur_stride + ox..];
    let mut pred = [0u8; LUMA_BLOCK * LUMA_BLOCK];
    for dy in -1i16..=1 {
        for dx in -1i16..=1 {
            if dx == 0 && dy == 0 {
                continue;
            }
            let cand = SubPelVector::from_half_units(cx + dx, cy + dy);
            predict_luma_subpel_with(k, reference, mb, cand, &mut pred);
            let sad = k.sad16(cur_base, cur_stride, &pred, LUMA_BLOCK);
            // 256 interpolation ops + 256 difference ops per candidate.
            best.sad_ops += 512;
            if sad < best.sad {
                best.sad = sad;
                best.mv = cand;
            }
        }
    }
    best
}

fn evaluate(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    mv: MotionVector,
    bias: &mut dyn FnMut(MotionVector) -> i64,
    best: &mut MeResult,
) {
    let sad = sad_mb_with(k, cur, reference, mb, mv);
    let cost = sad as i64 + bias(mv);
    best.candidates += 1;
    best.sad_ops += 256;
    // Strict improvement keeps the earliest (most central) candidate on
    // ties, biasing toward short vectors.
    if cost < best.cost {
        best.mv = mv;
        best.sad = sad;
        best.cost = cost;
    }
}

fn full_search(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    range: u8,
    bias: &mut dyn FnMut(MotionVector) -> i64,
) -> MeResult {
    let r = range as i16;
    let mut best = MeResult {
        mv: MotionVector::ZERO,
        sad: u64::MAX,
        cost: i64::MAX,
        candidates: 0,
        sad_ops: 0,
    };
    // Zero vector first so ties resolve to it.
    evaluate(k, cur, reference, mb, MotionVector::ZERO, bias, &mut best);
    for dy in -r..=r {
        for dx in -r..=r {
            if dx == 0 && dy == 0 {
                continue;
            }
            evaluate(
                k,
                cur,
                reference,
                mb,
                MotionVector::new(dx, dy),
                bias,
                &mut best,
            );
        }
    }
    best
}

fn three_step(
    k: &Kernels,
    cur: &Plane,
    reference: &Plane,
    mb: MbIndex,
    range: u8,
    bias: &mut dyn FnMut(MotionVector) -> i64,
) -> MeResult {
    let r = range as i16;
    let mut best = MeResult {
        mv: MotionVector::ZERO,
        sad: u64::MAX,
        cost: i64::MAX,
        candidates: 0,
        sad_ops: 0,
    };
    evaluate(k, cur, reference, mb, MotionVector::ZERO, bias, &mut best);
    // Initial stride: largest power of two ≤ max(range, 1) rounded to
    // cover the window (8 for the ±15 default).
    let mut step = 1i16;
    while step * 2 <= r.max(1) {
        step *= 2;
    }
    let mut center = MotionVector::ZERO;
    while step >= 1 {
        let mut improved = true;
        // At each stride, hill-climb until the center stops moving, then
        // halve — the classic TSS with center refinement.
        while improved {
            improved = false;
            for dy in [-step, 0, step] {
                for dx in [-step, 0, step] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let cand = MotionVector::new(
                        (center.x + dx).clamp(-r, r),
                        (center.y + dy).clamp(-r, r),
                    );
                    if cand == center {
                        continue;
                    }
                    let before = best.cost;
                    evaluate(k, cur, reference, mb, cand, bias, &mut best);
                    if best.cost < before && best.mv == cand {
                        improved = true;
                    }
                }
            }
            if improved {
                center = best.mv;
            }
            if step > 1 {
                break; // only the final stride hill-climbs repeatedly
            }
        }
        step /= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_media::VideoFormat;

    /// Builds (current, reference) planes where the current frame is the
    /// reference shifted by `(dx, dy)` pixels.
    fn shifted_pair(dx: isize, dy: isize) -> (Plane, Plane) {
        let fmt = VideoFormat::QCIF;
        let reference = Plane::from_fn(fmt.width(), fmt.height(), |x, y| {
            // Smooth deterministic texture: the error surface around the
            // true translation is unimodal, which logarithmic searches
            // (three-step) require to converge; full search does not care.
            let v = 128.0
                + 55.0 * (x as f64 * 0.11).sin()
                + 45.0 * (y as f64 * 0.09).cos()
                + 20.0 * ((x + y) as f64 * 0.05).sin();
            v as u8
        });
        let mut cur = Plane::new(fmt.width(), fmt.height());
        for y in 0..fmt.height() {
            for x in 0..fmt.width() {
                cur.set(
                    x,
                    y,
                    reference.get_clamped(x as isize + dx, y as isize + dy),
                );
            }
        }
        (cur, reference)
    }

    #[test]
    fn full_search_finds_exact_translation() {
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(5, -3);
        let cfg = MeConfig {
            search_range: 7,
            strategy: SearchStrategy::Full,
        };
        let mb = MbIndex::new(4, 5);
        let r = search_with(k, &cur, &reference, mb, cfg, &mut |_| 0);
        assert_eq!(r.mv, MotionVector::new(5, -3));
        assert_eq!(r.sad, 0);
        assert_eq!(r.candidates, 15 * 15);
        assert_eq!(r.sad_ops, 15 * 15 * 256);
    }

    #[test]
    fn three_step_finds_the_same_translation() {
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(5, -3);
        let cfg = MeConfig {
            search_range: 15,
            strategy: SearchStrategy::ThreeStep,
        };
        let mb = MbIndex::new(4, 5);
        let r = search_with(k, &cur, &reference, mb, cfg, &mut |_| 0);
        assert_eq!(r.mv, MotionVector::new(5, -3));
        assert_eq!(r.sad, 0);
        assert!(
            r.candidates < 80,
            "three-step must be far cheaper than full search: {}",
            r.candidates
        );
    }

    #[test]
    fn zero_motion_yields_zero_vector() {
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(0, 0);
        for strategy in [SearchStrategy::Full, SearchStrategy::ThreeStep] {
            let cfg = MeConfig {
                search_range: 7,
                strategy,
            };
            let r = search_with(k, &cur, &reference, MbIndex::new(2, 2), cfg, &mut |_| 0);
            assert_eq!(r.mv, MotionVector::ZERO, "{strategy:?}");
            assert_eq!(r.sad, 0);
        }
    }

    #[test]
    fn bias_can_veto_the_sad_winner() {
        // Reproduces the paper's Figure 3: the lowest-SAD candidate loses
        // when the bias (probability-of-correctness penalty) is high.
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(4, 0);
        let cfg = MeConfig {
            search_range: 7,
            strategy: SearchStrategy::Full,
        };
        let mb = MbIndex::new(3, 3);
        // Unbiased winner is (4, 0).
        let unbiased = search_with(k, &cur, &reference, mb, cfg, &mut |_| 0);
        assert_eq!(unbiased.mv, MotionVector::new(4, 0));
        // Penalize exactly that vector enormously.
        let biased = search_with(k, &cur, &reference, mb, cfg, &mut |mv| {
            if mv == MotionVector::new(4, 0) {
                1_000_000
            } else {
                0
            }
        });
        assert_ne!(biased.mv, MotionVector::new(4, 0));
        assert!(biased.sad >= unbiased.sad);
    }

    #[test]
    fn search_respects_the_window() {
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(12, 0); // true motion outside ±7
        let cfg = MeConfig {
            search_range: 7,
            strategy: SearchStrategy::Full,
        };
        let r = search_with(k, &cur, &reference, MbIndex::new(4, 4), cfg, &mut |_| 0);
        assert!(r.mv.x.abs() <= 7 && r.mv.y.abs() <= 7);
    }

    #[test]
    fn sad_self_is_zero_for_flat_blocks() {
        let flat = Plane::filled(176, 144, 77);
        assert_eq!(sad_self(&flat, MbIndex::new(0, 0)), 0);
        let (cur, _) = shifted_pair(0, 0);
        assert!(sad_self(&cur, MbIndex::new(3, 3)) > 0);
    }

    /// All (mb, shift, strategy, bias) combinations the fast search must
    /// match the naive search on, including window-clamped cases.
    fn fast_matches_naive_case(
        dx: isize,
        dy: isize,
        mb: MbIndex,
        range: u8,
        strategy: SearchStrategy,
        penalty: i64,
    ) {
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(dx, dy);
        let cfg = MeConfig {
            search_range: range,
            strategy,
        };
        let penalized = MotionVector::new(dx as i16, dy as i16);
        let naive = search_with(k, &cur, &reference, mb, cfg, &mut |mv| {
            if mv == penalized {
                penalty
            } else {
                0
            }
        });
        let mut prepass = MvCandidates::default();
        prepass.push_clamped(MotionVector::new(dx as i16, dy as i16), range);
        prepass.push_clamped(MotionVector::ZERO, range);
        prepass.push_clamped(MotionVector::new(-3, 2), range);
        let fast = search_fast_with(
            k,
            &cur,
            &reference,
            mb,
            cfg,
            &mut |mv| if mv == penalized { penalty } else { 0 },
            &prepass,
        );
        assert_eq!(fast.mv, naive.mv, "{strategy:?} shift=({dx},{dy})");
        assert_eq!(fast.sad, naive.sad, "{strategy:?} shift=({dx},{dy})");
        assert_eq!(fast.cost, naive.cost, "{strategy:?} shift=({dx},{dy})");
        if strategy == SearchStrategy::Full {
            assert!(
                fast.sad_ops < naive.sad_ops,
                "pruning must actually cut work: fast {} vs naive {}",
                fast.sad_ops,
                naive.sad_ops
            );
        }
    }

    #[test]
    fn fast_search_matches_naive_winner_everywhere() {
        for strategy in [SearchStrategy::Full, SearchStrategy::ThreeStep] {
            fast_matches_naive_case(5, -3, MbIndex::new(4, 5), 7, strategy, 0);
            fast_matches_naive_case(0, 0, MbIndex::new(0, 0), 7, strategy, 0);
            // Border MB: candidate windows clamp against the frame edge.
            fast_matches_naive_case(-4, 6, MbIndex::new(0, 0), 15, strategy, 0);
            fast_matches_naive_case(3, 3, MbIndex::new(8, 10), 15, strategy, 0);
            // A bias that vetoes the SAD winner must veto it in both.
            fast_matches_naive_case(4, 0, MbIndex::new(3, 3), 7, strategy, 1_000_000);
        }
    }

    #[test]
    fn mv_candidates_clamp_and_dedup() {
        let mut c = MvCandidates::default();
        c.push_clamped(MotionVector::new(40, -40), 15);
        c.push_clamped(MotionVector::new(15, -15), 15); // dup after clamp
        c.push_clamped(MotionVector::ZERO, 15);
        assert_eq!(
            c.as_slice(),
            &[MotionVector::new(15, -15), MotionVector::ZERO]
        );
    }

    #[test]
    fn median_mv_is_componentwise() {
        assert_eq!(
            median_mv(
                MotionVector::new(1, 9),
                MotionVector::new(5, -4),
                MotionVector::new(3, 0),
            ),
            MotionVector::new(3, 0)
        );
    }

    #[test]
    fn sad_mb_bounded_agrees_with_full_sad_under_limit() {
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(2, -1);
        let mb = MbIndex::new(3, 4);
        for mv in [
            MotionVector::ZERO,
            MotionVector::new(2, -1),
            MotionVector::new(-15, 15), // clamped path
        ] {
            let full = sad_mb_with(k, &cur, &reference, mb, mv);
            let (bounded, ops) = sad_mb_bounded_with(k, &cur, &reference, mb, mv, u64::MAX);
            assert_eq!(bounded, full);
            assert_eq!(ops, 256);
            // A tight limit must abandon early and report fewer ops.
            if full > 0 {
                let (partial, partial_ops) = sad_mb_bounded_with(k, &cur, &reference, mb, mv, 1);
                assert!(partial >= 1);
                assert!(partial_ops <= 256);
            }
        }
    }

    /// The bounded SAD as it read edge-clamped candidates before the
    /// row-wise border path: one [`Plane::get_clamped`] per pixel, the
    /// limit checked after every row.
    fn get_clamped_bounded_sad(
        cur: &Plane,
        reference: &Plane,
        mb: MbIndex,
        mv: MotionVector,
        limit: u64,
    ) -> (u64, u64) {
        let (ox, oy) = mb.luma_origin();
        let (rx, ry) = (ox as isize + mv.x as isize, oy as isize + mv.y as isize);
        let (mut acc, mut ops) = (0u64, 0u64);
        for dy in 0..16 {
            for dx in 0..16 {
                let a = cur.get(ox + dx, oy + dy) as i32;
                let b = reference.get_clamped(rx + dx as isize, ry + dy as isize) as i32;
                acc += (a - b).unsigned_abs() as u64;
            }
            ops += 16;
            if acc >= limit {
                break;
            }
        }
        (acc, ops)
    }

    #[test]
    fn border_bounded_sad_matches_a_per_pixel_clamped_reference() {
        let k = Kernels::active();
        let noise = |w: usize, h: usize, salt: usize| {
            Plane::from_fn(w, h, |x, y| {
                let z = (x * 7919 + y * 104_729 + salt * 31).wrapping_mul(0x9e37_79b9);
                (z >> 7) as u8
            })
        };
        let formats = [
            VideoFormat::QCIF,
            VideoFormat::custom(16, 16).expect("one macroblock"),
        ];
        let limits = [0, 1, 64, 500, 2_000, 8_000, 20_000, 40_000, u64::MAX];
        for format in formats {
            let (w, h) = (format.width(), format.height());
            let (cur, reference) = (noise(w, h, 1), noise(w, h, 2));
            let (last_row, last_col) = (format.mb_rows() - 1, format.mb_cols() - 1);
            let mut border = 0;
            for mb in [
                MbIndex::new(0, 0),
                MbIndex::new(0, last_col),
                MbIndex::new(last_row, 0),
                MbIndex::new(last_row, last_col),
            ] {
                for dy in -15..=15 {
                    for dx in -15..=15 {
                        let mv = MotionVector::new(dx, dy);
                        let (ox, oy) = mb.luma_origin();
                        let (rx, ry) = (ox as isize + dx as isize, oy as isize + dy as isize);
                        if rx < 0 || ry < 0 || rx + 16 > w as isize || ry + 16 > h as isize {
                            border += 1;
                        }
                        let full = get_clamped_bounded_sad(&cur, &reference, mb, mv, u64::MAX).0;
                        assert_eq!(
                            sad_mb_with(k, &cur, &reference, mb, mv),
                            full,
                            "{mb:?} {mv:?}"
                        );
                        for limit in limits {
                            assert_eq!(
                                sad_mb_bounded_with(k, &cur, &reference, mb, mv, limit),
                                get_clamped_bounded_sad(&cur, &reference, mb, mv, limit),
                                "{w}x{h} {mb:?} {mv:?} limit {limit}"
                            );
                        }
                    }
                }
            }
            assert!(border > 1000, "{w}x{h}: only {border} border candidates");
        }
    }

    #[test]
    fn sad_mb_fast_and_clamped_paths_agree() {
        let k = Kernels::active();
        let (cur, reference) = shifted_pair(2, 2);
        // An interior vector takes the fast path; recompute manually via
        // the clamped accessor and compare.
        let mb = MbIndex::new(2, 2);
        let mv = MotionVector::new(1, -1);
        let fast = sad_mb_with(k, &cur, &reference, mb, mv);
        let (ox, oy) = mb.luma_origin();
        let mut slow = 0u64;
        for dy in 0..16isize {
            for dx in 0..16isize {
                let a = cur.get(ox + dx as usize, oy + dy as usize);
                let b = reference.get_clamped(
                    ox as isize + dx + mv.x as isize,
                    oy as isize + dy + mv.y as isize,
                );
                slow += (a as i32 - b as i32).unsigned_abs() as u64;
            }
        }
        assert_eq!(fast, slow);
    }
}
