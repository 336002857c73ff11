//! The probability-of-correctness matrix `C^k` (paper §3.1, §3.1.3).
//!
//! PBPAIR maintains, for every macroblock `m_{i,j}` of the most recently
//! encoded frame, an estimate `σ_{i,j} ∈ [0, 1]` of the probability that
//! the decoder holds a correct reconstruction of that macroblock, given
//! the network packet-loss rate `α` and the error-concealment behaviour.
//!
//! Update rules (the paper's Equations 1–3):
//!
//! * **Inter MB** (Eq. 1):
//!   `σ^k = (1−α) · min(σ^{k−1} of related MBs) + α · sim · σ^{k−1}_{i,j}`
//!   — with probability `1−α` the frame arrives and the MB is as good as
//!   the *worst* reference macroblock its motion-compensated prediction
//!   touches; with probability `α` the frame is lost, concealment copies
//!   the colocated predecessor, and quality degrades by the content
//!   similarity factor.
//! * **Intra MB** (Eq. 2): the first term becomes `(1−α) · 1` — an intra
//!   macroblock that arrives is perfect; it refreshes the chain.
//! * **Eq. 3** is the no-similarity approximation (`sim = 0`), exposed as
//!   an ablation through [`SimilarityModel::None`].
//!
//! The *similarity factor* depends on the decoder's concealment. For the
//! paper's simple copy scheme we map the colocated SAD between `m^k` and
//! `m^{k−1}` through a decaying exponential (`exp(−SAD/scale)`): zero SAD
//! (static content) → concealment is perfect (sim = 1); large SAD → the
//! copied block is wrong (sim → 0). Other concealments are one
//! [`SimilarityModel`] away, exactly as the paper promises.

use pbpair_media::format::MB_SIZE;
use pbpair_media::{MbGrid, MbIndex, VideoFormat};

/// How the similarity factor is derived from the colocated SAD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimilarityModel {
    /// `sim = exp(−SAD / scale)` — the copy-concealment model. `scale` is
    /// in SAD units over a 16×16 block (65280 max).
    ExpDecay {
        /// SAD scale constant; smaller = similarity drops faster with
        /// motion. A scale that is not positive (NaN included) means no
        /// similarity, so σ stays a finite probability.
        scale: f64,
    },
    /// `sim = 0`: the paper's Equation 3 approximation (no similarity
    /// between consecutive frames). Ablation configuration.
    None,
}

impl SimilarityModel {
    /// The default copy-concealment model.
    ///
    /// The scale (16000 SAD units ≈ 62 gray levels of mean absolute
    /// difference × 256 pixels / 4) is calibrated against the bad-pixel
    /// semantics of §4.4: `sim` approximates the fraction of the
    /// macroblock that stays visually correct when a lost frame is
    /// concealed by copying. Static content (SAD ≈ sensor noise) concealss
    /// near-perfectly (`sim ≈ 0.97`), so its σ barely decays and PBPAIR
    /// spends its refresh budget on *moving* macroblocks — the content
    /// awareness that distinguishes it from PGOP's blind column sweep.
    pub fn default_copy_concealment() -> Self {
        SimilarityModel::ExpDecay { scale: 16000.0 }
    }

    /// Evaluates the similarity factor for a colocated SAD.
    pub fn similarity(&self, colocated_sad: u64) -> f64 {
        match *self {
            SimilarityModel::ExpDecay { scale } => {
                if scale.is_nan() || scale <= 0.0 {
                    0.0
                } else {
                    (-(colocated_sad as f64) / scale).exp()
                }
            }
            SimilarityModel::None => 0.0,
        }
    }
}

/// The per-macroblock probability-of-correctness state, double-buffered:
/// reads during frame `k` see `C^{k−1}` while writes build `C^k`.
///
/// # Example
///
/// ```rust
/// use pbpair::correctness::{CorrectnessMatrix, SimilarityModel};
/// use pbpair_media::{MbIndex, VideoFormat};
/// use pbpair_codec::MotionVector;
///
/// let mut c = CorrectnessMatrix::new(VideoFormat::QCIF, SimilarityModel::default_copy_concealment());
/// let mb = MbIndex::new(0, 0);
/// assert_eq!(c.sigma(mb), 1.0); // error-free start
/// // One inter update at 10% loss with a fairly similar block:
/// c.update_inter(mb, MotionVector::ZERO, 1000, 0.1);
/// c.commit_frame();
/// assert!(c.sigma(mb) < 1.0 && c.sigma(mb) > 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectnessMatrix {
    grid: MbGrid,
    /// `C^{k−1}`: what mode selection and ME biasing read.
    prev: Vec<f64>,
    /// `C^k` under construction.
    next: Vec<f64>,
    /// `C^{k−1}` again, laid out for the σ-aware search's region reads.
    committed: SigmaSnapshot,
    model: SimilarityModel,
}

impl CorrectnessMatrix {
    /// Creates the matrix for a format, starting from an error-free image
    /// (`∀ i,j: σ = 1`, the initialization in the paper's Figure 2).
    pub fn new(format: VideoFormat, model: SimilarityModel) -> Self {
        let grid = MbGrid::new(format);
        let prev = vec![1.0; grid.len()];
        CorrectnessMatrix {
            committed: SigmaSnapshot::new(grid, &prev),
            next: prev.clone(),
            prev,
            grid,
            model,
        }
    }

    /// The macroblock grid the matrix covers.
    pub fn grid(&self) -> MbGrid {
        self.grid
    }

    /// The similarity model in use.
    pub fn model(&self) -> SimilarityModel {
        self.model
    }

    /// `σ^{k−1}_{i,j}` — the value mode selection compares against
    /// `Intra_Th`.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is out of the grid.
    pub fn sigma(&self, mb: MbIndex) -> f64 {
        self.prev[self.grid.flat_index(mb)]
    }

    /// Area-weighted `σ^{k−1}` over the macroblocks that a 16×16 reference
    /// region anchored at pixel `(px, py)` overlaps — the candidate
    /// quality term of the σ-aware motion search (paper §3.1.2,
    /// Figure 3). Pixels outside the frame count as the edge macroblock
    /// they clamp to, as in [`MbGrid::overlapped_mbs`].
    pub fn sigma_of_region(&self, px: isize, py: isize) -> f64 {
        self.committed.sigma_of_region(px, py)
    }

    /// The committed `σ^{k−1}` as the snapshot the σ-aware search reads.
    pub(crate) fn committed(&self) -> &SigmaSnapshot {
        &self.committed
    }

    /// Minimum `σ^{k−1}` over the macroblocks a reference region overlaps
    /// — the "min of related MBs" term of Equation 1.
    pub fn min_sigma_of_region(&self, px: isize, py: isize) -> f64 {
        let mut min = f64::INFINITY;
        self.grid.for_each_overlapped(px, py, |mb, _| {
            min = min.min(self.prev[self.grid.flat_index(mb)]);
        });
        min
    }

    /// Records the Equation-1 update for an inter macroblock coded with
    /// motion vector `mv` and the given colocated SAD, at packet-loss
    /// rate `plr`.
    ///
    /// # Panics
    ///
    /// Panics if `plr` is outside `[0, 1]`.
    pub fn update_inter(
        &mut self,
        mb: MbIndex,
        mv: pbpair_codec::MotionVector,
        colocated_sad: u64,
        plr: f64,
    ) {
        assert!((0.0..=1.0).contains(&plr), "plr must be a probability");
        let (ox, oy) = mb.luma_origin();
        let min_related =
            self.min_sigma_of_region(ox as isize + mv.x as isize, oy as isize + mv.y as isize);
        let sim = self.model.similarity(colocated_sad);
        let idx = self.grid.flat_index(mb);
        let sigma = (1.0 - plr) * min_related + plr * sim * self.prev[idx];
        self.next[idx] = sigma.clamp(0.0, 1.0);
    }

    /// Records the Equation-2 update for an intra macroblock.
    ///
    /// # Panics
    ///
    /// Panics if `plr` is outside `[0, 1]`.
    pub fn update_intra(&mut self, mb: MbIndex, colocated_sad: u64, plr: f64) {
        assert!((0.0..=1.0).contains(&plr), "plr must be a probability");
        let sim = self.model.similarity(colocated_sad);
        let idx = self.grid.flat_index(mb);
        let sigma = (1.0 - plr) + plr * sim * self.prev[idx];
        self.next[idx] = sigma.clamp(0.0, 1.0);
    }

    /// Finishes frame `k`: `C^k` becomes the readable `C^{k−1}` of the
    /// next frame (the "update C^k and go to next frame" box of
    /// Figure 2).
    pub fn commit_frame(&mut self) {
        self.prev.copy_from_slice(&self.next);
        self.committed.refresh(&self.prev);
    }

    /// All `σ^{k−1}` values in raster order — the grid behind
    /// [`pbpair_media::metrics::render_mb_heatmap`]-style diagnostics and
    /// the σ-vs-reality comparison in `examples/probability_map.rs`.
    pub fn sigma_values(&self) -> &[f64] {
        &self.prev
    }

    /// Mean `σ^{k−1}` over the frame — a scalar robustness summary used by
    /// reports and the adaptive controller.
    pub fn mean_sigma(&self) -> f64 {
        self.prev.iter().sum::<f64>() / self.prev.len() as f64
    }

    /// Minimum `σ^{k−1}` over the frame.
    pub fn min_sigma(&self) -> f64 {
        self.prev.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// A copy of the committed `σ^{k−1}` grid padded with one extra column
/// and one extra row, so that the four cells a 16×16 region can touch
/// are always in bounds. The σ-aware search reads it once per candidate,
/// and a frame-frozen ME bias captures a clone of it and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SigmaSnapshot {
    /// `(rows + 1) × (cols + 1)` values in raster order; the last row
    /// and column are padding that only ever carries a zero weight.
    cells: Vec<f64>,
    /// `cols + 1`.
    stride: usize,
    /// The largest anchor that still moves the region: `W − 16`.
    max_x: isize,
    /// `H − 16`.
    max_y: isize,
}

impl SigmaSnapshot {
    fn new(grid: MbGrid, sigma: &[f64]) -> Self {
        let stride = grid.cols() + 1;
        let mut snapshot = SigmaSnapshot {
            cells: vec![0.0; (grid.rows() + 1) * stride],
            stride,
            max_x: ((grid.cols() - 1) * MB_SIZE) as isize,
            max_y: ((grid.rows() - 1) * MB_SIZE) as isize,
        };
        snapshot.refresh(sigma);
        snapshot
    }

    /// Copies the raster-order grid `sigma` into the unpadded cells.
    fn refresh(&mut self, sigma: &[f64]) {
        let cols = self.stride - 1;
        for (dst, src) in self
            .cells
            .chunks_exact_mut(self.stride)
            .zip(sigma.chunks_exact(cols))
        {
            dst[..cols].copy_from_slice(src);
        }
    }

    /// [`CorrectnessMatrix::sigma_of_region`] in closed form. Past the
    /// frame edges every pixel clamps to the edge macroblocks, so the
    /// anchor clamps to `[0, W−16] × [0, H−16]` without changing the
    /// result. Each coordinate then splits into a cell and an offset,
    /// and the region covers `(16−ox)(16−oy)`, `ox(16−oy)`, `(16−ox)oy`
    /// and `ox·oy` samples of the four cells from its anchor cell
    /// rightwards and down. The terms are summed in the order
    /// [`MbGrid::for_each_overlapped`] visits them. A cell the region
    /// misses has area 0 and a finite σ, so it adds `+0.0`, which leaves
    /// every partial sum unchanged: the result is bit-identical to the
    /// area-weighted walk over the overlapped macroblocks.
    #[inline]
    pub(crate) fn sigma_of_region(&self, px: isize, py: isize) -> f64 {
        let x = px.clamp(0, self.max_x) as usize;
        let y = py.clamp(0, self.max_y) as usize;
        let (ox, oy) = (x % MB_SIZE, y % MB_SIZE);
        let at = (y / MB_SIZE) * self.stride + x / MB_SIZE;
        let top = &self.cells[at..at + 2];
        let bottom = &self.cells[at + self.stride..at + self.stride + 2];
        let (w0, w1) = (MB_SIZE - ox, ox);
        let (h0, h1) = (MB_SIZE - oy, oy);
        let acc = 0.0
            + top[0] * (w0 * h0) as f64
            + top[1] * (w1 * h0) as f64
            + bottom[0] * (w0 * h1) as f64
            + bottom[1] * (w1 * h1) as f64;
        acc / 256.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_codec::MotionVector;

    fn matrix() -> CorrectnessMatrix {
        CorrectnessMatrix::new(
            VideoFormat::QCIF,
            SimilarityModel::default_copy_concealment(),
        )
    }

    #[test]
    fn starts_error_free() {
        let c = matrix();
        assert_eq!(c.mean_sigma(), 1.0);
        assert_eq!(c.min_sigma(), 1.0);
        assert_eq!(c.sigma(MbIndex::new(8, 10)), 1.0);
    }

    #[test]
    fn inter_update_decays_with_plr() {
        // Pure Eq. 3 setting (sim = 0): σ^k = (1−α)^k.
        let mut c = CorrectnessMatrix::new(VideoFormat::QCIF, SimilarityModel::None);
        let mb = MbIndex::new(3, 4);
        let alpha = 0.1;
        for k in 1..=10 {
            for idx in c.grid().iter().collect::<Vec<_>>() {
                c.update_inter(idx, MotionVector::ZERO, 0, alpha);
            }
            c.commit_frame();
            let expected = (1.0 - alpha) * c.sigma(mb).max(0.0); // next step uses committed value
                                                                 // Direct closed form:
            let closed = (1.0f64 - alpha).powi(k);
            assert!(
                (c.sigma(mb) - closed).abs() < 1e-12,
                "frame {k}: {} vs {closed}",
                c.sigma(mb)
            );
            let _ = expected;
        }
    }

    #[test]
    fn higher_plr_decays_sigma_faster() {
        let run = |plr: f64| {
            let mut c = matrix();
            for _ in 0..5 {
                for mb in c.grid().iter().collect::<Vec<_>>() {
                    c.update_inter(mb, MotionVector::ZERO, 3000, plr);
                }
                c.commit_frame();
            }
            c.mean_sigma()
        };
        let low = run(0.05);
        let high = run(0.3);
        assert!(
            high < low,
            "plr 0.3 must decay sigma faster: {high} vs {low}"
        );
    }

    #[test]
    fn intra_refresh_restores_sigma() {
        let mut c = matrix();
        let mb = MbIndex::new(2, 2);
        // Degrade everything.
        for _ in 0..20 {
            for idx in c.grid().iter().collect::<Vec<_>>() {
                c.update_inter(idx, MotionVector::ZERO, 20_000, 0.2);
            }
            c.commit_frame();
        }
        let degraded = c.sigma(mb);
        assert!(degraded < 0.5);
        for idx in c.grid().iter().collect::<Vec<_>>() {
            c.update_intra(idx, 20_000, 0.2);
        }
        c.commit_frame();
        assert!(c.sigma(mb) > 0.79, "intra must refresh: {}", c.sigma(mb));
        assert!(c.sigma(mb) > degraded);
    }

    #[test]
    fn zero_plr_with_clean_reference_stays_perfect() {
        let mut c = matrix();
        for _ in 0..10 {
            for mb in c.grid().iter().collect::<Vec<_>>() {
                c.update_inter(mb, MotionVector::ZERO, 50_000, 0.0);
            }
            c.commit_frame();
        }
        assert_eq!(c.mean_sigma(), 1.0, "no loss → no degradation");
    }

    #[test]
    fn motion_vector_pulls_in_related_mb_quality() {
        let mut c = matrix();
        // Damage MB (0, 1) only.
        let victim = MbIndex::new(0, 1);
        for mb in c.grid().iter().collect::<Vec<_>>() {
            if mb == victim {
                c.update_inter(mb, MotionVector::ZERO, 60_000, 0.9);
            } else {
                c.update_intra(mb, 0, 0.0);
            }
        }
        c.commit_frame();
        assert!(c.sigma(victim) < 0.2);
        // An MB at (0,0) predicting straight from the damaged neighbour
        // inherits its low sigma through the min() of Eq. 1.
        let mb = MbIndex::new(0, 0);
        c.update_inter(mb, MotionVector::new(16, 0), 0, 0.0);
        c.commit_frame();
        assert!(
            c.sigma(mb) < 0.2,
            "prediction from a damaged MB must inherit damage: {}",
            c.sigma(mb)
        );
    }

    #[test]
    fn sigma_of_region_weights_by_overlap() {
        let mut c = matrix();
        // Make column 0 bad (σ→0), everything else perfect.
        for mb in c.grid().iter().collect::<Vec<_>>() {
            if mb.col == 0 {
                c.update_inter(mb, MotionVector::ZERO, u64::MAX, 1.0);
            } else {
                c.update_intra(mb, 0, 0.0);
            }
        }
        c.commit_frame();
        // A region fully in column 0:
        assert!(c.sigma_of_region(0, 0) < 0.01);
        // Fully in column 1:
        assert!((c.sigma_of_region(16, 0) - 1.0).abs() < 1e-12);
        // Half-and-half:
        let half = c.sigma_of_region(8, 0);
        assert!((half - 0.5).abs() < 0.01, "blend: {half}");
        // min over the same region is the bad half.
        assert!(c.min_sigma_of_region(8, 0) < 0.01);
    }

    /// The region read as it was before the closed form: the
    /// area-weighted walk over the overlapped macroblocks.
    fn walked_sigma_of_region(c: &CorrectnessMatrix, px: isize, py: isize) -> f64 {
        let mut acc = 0.0;
        c.grid.for_each_overlapped(px, py, |mb, area| {
            acc += c.prev[c.grid.flat_index(mb)] * area as f64;
        });
        acc / 256.0
    }

    #[test]
    fn closed_form_region_read_is_bit_identical_to_the_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let formats = [
            VideoFormat::SQCIF,
            VideoFormat::QCIF,
            VideoFormat::CIF,
            VideoFormat::custom(16, 80).expect("one macroblock wide"),
            VideoFormat::custom(96, 16).expect("one macroblock tall"),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
        for format in formats {
            let mut c = CorrectnessMatrix::new(format, SimilarityModel::None);
            for round in 0..3 {
                // Round 0 is the error-free start; later rounds draw σ
                // uniformly, with exact 0s and 1s mixed in.
                if round > 0 {
                    for s in c.next.iter_mut() {
                        *s = match rng.gen_range(0u32..8) {
                            0 => 0.0,
                            1 => 1.0,
                            _ => rng.gen::<f64>(),
                        };
                    }
                    c.commit_frame();
                }
                let (w, h) = (format.width() as isize, format.height() as isize);
                for py in -40..=h + 40 {
                    for px in -40..=w + 40 {
                        let closed = c.sigma_of_region(px, py);
                        let walked = walked_sigma_of_region(&c, px, py);
                        assert_eq!(
                            closed.to_bits(),
                            walked.to_bits(),
                            "{}x{} round {round} anchor ({px}, {py}): {closed} vs {walked}",
                            format.width(),
                            format.height()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn similarity_models_behave() {
        let m = SimilarityModel::default_copy_concealment();
        assert!((m.similarity(0) - 1.0).abs() < 1e-12);
        assert!(m.similarity(2_000) > m.similarity(20_000));
        assert!(m.similarity(1_000_000) < 1e-9);
        assert_eq!(SimilarityModel::None.similarity(0), 0.0);
        // A NaN scale must not put NaN into the matrix.
        let nan = SimilarityModel::ExpDecay { scale: f64::NAN };
        assert_eq!(nan.similarity(0), 0.0);
    }

    #[test]
    fn sigma_always_in_unit_interval() {
        let mut c = matrix();
        // Chaotic updates must never leave [0,1].
        let mvs = [
            MotionVector::new(-15, 15),
            MotionVector::new(15, -15),
            MotionVector::ZERO,
        ];
        for k in 0..30u64 {
            for (n, mb) in c.grid().iter().collect::<Vec<_>>().into_iter().enumerate() {
                let plr = ((k as f64 / 30.0) + (n as f64 / 99.0)) % 1.0;
                if n % 3 == 0 {
                    c.update_intra(mb, (n as u64) * 997, plr);
                } else {
                    c.update_inter(mb, mvs[n % mvs.len()], (n as u64) * 499, plr);
                }
            }
            c.commit_frame();
            for mb in c.grid().iter().collect::<Vec<_>>() {
                let s = c.sigma(mb);
                assert!((0.0..=1.0).contains(&s), "sigma out of range: {s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_plr_panics() {
        let mut c = matrix();
        c.update_intra(MbIndex::new(0, 0), 0, 1.5);
    }
}
