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

use pbpair_media::{MbGrid, MbIndex, VideoFormat};

/// How the similarity factor is derived from the colocated SAD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimilarityModel {
    /// `sim = exp(−SAD / scale)` — the copy-concealment model. `scale` is
    /// in SAD units over a 16×16 block (65280 max).
    ExpDecay {
        /// SAD scale constant; smaller = similarity drops faster with
        /// motion.
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
                if scale <= 0.0 {
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
    model: SimilarityModel,
}

impl CorrectnessMatrix {
    /// Creates the matrix for a format, starting from an error-free image
    /// (`∀ i,j: σ = 1`, the initialization in the paper's Figure 2).
    pub fn new(format: VideoFormat, model: SimilarityModel) -> Self {
        let grid = MbGrid::new(format);
        CorrectnessMatrix {
            prev: vec![1.0; grid.len()],
            next: vec![1.0; grid.len()],
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

    /// Replaces the similarity model (ablations).
    pub fn set_model(&mut self, model: SimilarityModel) {
        self.model = model;
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
    /// Figure 3).
    pub fn sigma_of_region(&self, px: isize, py: isize) -> f64 {
        let mut acc = 0.0;
        self.grid.for_each_overlapped(px, py, |mb, area| {
            acc += self.prev[self.grid.flat_index(mb)] * area as f64;
        });
        acc / 256.0
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
    }

    /// Resets to the error-free state (a new sequence).
    pub fn reset(&mut self) {
        self.prev.iter_mut().for_each(|s| *s = 1.0);
        self.next.iter_mut().for_each(|s| *s = 1.0);
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

    #[test]
    fn similarity_models_behave() {
        let m = SimilarityModel::default_copy_concealment();
        assert!((m.similarity(0) - 1.0).abs() < 1e-12);
        assert!(m.similarity(2_000) > m.similarity(20_000));
        assert!(m.similarity(1_000_000) < 1e-9);
        assert_eq!(SimilarityModel::None.similarity(0), 0.0);
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

    #[test]
    fn reset_restores_error_free_state() {
        let mut c = matrix();
        for mb in c.grid().iter().collect::<Vec<_>>() {
            c.update_inter(mb, MotionVector::ZERO, u64::MAX, 0.9);
        }
        c.commit_frame();
        assert!(c.mean_sigma() < 1.0);
        c.reset();
        assert_eq!(c.mean_sigma(), 1.0);
    }
}
