//! Ablation policies: PBPAIR with individual design choices disabled.
//!
//! DESIGN.md calls out the paper's two load-bearing design decisions;
//! these policies isolate them so tests can pin what each one costs in
//! operations (the `ablation_table_*` tests hold the table in
//! EXPERIMENTS.md):
//!
//! 1. **Early (pre-ME) mode decision** — [`LatePbpairPolicy`] moves the
//!    `σ < Intra_Th` test *after* motion estimation. The refresh pattern
//!    (and therefore resilience) is identical to PBPAIR's, but every
//!    macroblock pays for its search — exactly AIR's cost structure. The
//!    energy delta between `PbpairPolicy` and `LatePbpairPolicy` *is* the
//!    paper's energy contribution.
//! 2. **σ-aware motion search** — disabled by `PbpairConfig { lambda:
//!    0.0, .. }` on the normal policy (no separate type needed).
//! 3. **Similarity factor** — disabled by `PbpairConfig { similarity:
//!    SimilarityModel::None, .. }` (the paper's Equation 3).

use crate::correctness::CorrectnessMatrix;
use crate::pbpair::{frozen_sigma_penalty, sigma_penalty, PbpairConfig};
use pbpair_codec::{
    FrameContext, FrameKind, FrameStats, FrozenMeBias, MbContext, MbMode, MbOutcome, MeResult,
    MotionVector, PostMeDecision, RefreshPolicy,
};
use pbpair_media::VideoFormat;

/// PBPAIR with the mode decision moved after motion estimation (ablation
/// of the paper's early-decision energy optimization).
#[derive(Debug, Clone)]
pub struct LatePbpairPolicy {
    cfg: PbpairConfig,
    matrix: CorrectnessMatrix,
}

impl LatePbpairPolicy {
    /// Creates the ablated policy.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(format: VideoFormat, cfg: PbpairConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(LatePbpairPolicy {
            matrix: CorrectnessMatrix::new(format, cfg.similarity),
            cfg,
        })
    }

    /// Read access to the correctness matrix.
    pub fn matrix(&self) -> &CorrectnessMatrix {
        &self.matrix
    }
}

impl RefreshPolicy for LatePbpairPolicy {
    fn begin_frame(&mut self, _ctx: &FrameContext) -> FrameKind {
        FrameKind::Inter
    }

    // NOTE: no `pre_me_mode` override — the search always runs.

    fn me_bias(&mut self, ctx: &MbContext<'_>, mv: MotionVector) -> i64 {
        sigma_penalty(self.matrix.committed(), self.cfg.lambda, ctx.mb, mv)
    }

    fn frame_frozen_bias(&self, _ctx: &FrameContext) -> Option<FrozenMeBias> {
        // The bias reads only the committed matrix, exactly as
        // PBPAIR's does, so it freezes the same way.
        Some(frozen_sigma_penalty(&self.matrix, &self.cfg))
    }

    fn post_me_mode(&mut self, ctx: &MbContext<'_>, _me: &MeResult) -> PostMeDecision {
        // Same dithered threshold as the early-decision policy so the
        // refresh patterns stay comparable (the ablation isolates *when*
        // the decision happens, not *what* it decides).
        if self.matrix.sigma(ctx.mb)
            < crate::pbpair::dithered_threshold(
                self.cfg.intra_th,
                self.matrix.grid().flat_index(ctx.mb),
            )
        {
            PostMeDecision::ForceIntra
        } else {
            PostMeDecision::Keep
        }
    }

    fn mb_coded(&mut self, _ctx: &FrameContext, outcome: &MbOutcome) {
        match outcome.mode {
            MbMode::Intra => {
                self.matrix
                    .update_intra(outcome.mb, outcome.colocated_sad, self.cfg.plr)
            }
            MbMode::Inter | MbMode::Skip => self.matrix.update_inter(
                outcome.mb,
                outcome.mv,
                outcome.colocated_sad,
                self.cfg.plr,
            ),
        }
    }

    fn end_frame(&mut self, _ctx: &FrameContext, _stats: &FrameStats) {
        self.matrix.commit_frame();
    }

    fn label(&self) -> String {
        format!(
            "PBPAIR-late(th={:.2},plr={:.2})",
            self.cfg.intra_th, self.cfg.plr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimilarityModel;
    use pbpair_codec::{Encoder, EncoderConfig, MeConfig, OpCounts, SearchStrategy};
    use pbpair_media::synth::{MotionClass, SyntheticSequence};

    fn encode(policy: &mut dyn RefreshPolicy, frames: usize) -> (OpCounts, Vec<u32>) {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(11);
        let mut intra = Vec::new();
        for _ in 0..frames {
            let e = enc.encode_frame(&seq.next_frame(), policy);
            intra.push(e.stats.intra_mbs);
        }
        (enc.take_ops(), intra)
    }

    #[test]
    fn late_decision_refreshes_like_pbpair_but_always_searches() {
        let cfg = PbpairConfig {
            intra_th: 0.93,
            ..PbpairConfig::default()
        };
        let mut early = crate::PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let mut late = LatePbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let (ops_early, intra_early) = encode(&mut early, 12);
        let (ops_late, intra_late) = encode(&mut late, 12);

        // Same correctness dynamics → (nearly) identical refresh counts.
        // Small divergence is possible because the σ-aware bias can pick
        // different vectors once reconstructions drift, but the totals
        // must be close.
        let total_early: u32 = intra_early.iter().sum();
        let total_late: u32 = intra_late.iter().sum();
        let diff = total_early.abs_diff(total_late) as f64;
        assert!(
            diff / total_early.max(1) as f64 <= 0.25,
            "refresh counts diverge: early {total_early} vs late {total_late}"
        );

        // The ablation: the late variant searches every P-frame MB.
        assert_eq!(ops_late.me_invocations, 11 * 99);
        assert!(
            ops_early.me_invocations < ops_late.me_invocations,
            "early decision must skip searches"
        );
        assert!(ops_early.sad_ops < ops_late.sad_ops);
    }

    /// The inputs of the ablation table in EXPERIMENTS.md: eight frames
    /// of `class` (seed 2005) under `enc_cfg`; returns the op counts.
    fn table_ops(
        class: MotionClass,
        enc_cfg: EncoderConfig,
        policy: &mut dyn RefreshPolicy,
    ) -> OpCounts {
        let mut enc = Encoder::new(enc_cfg);
        let mut seq = SyntheticSequence::for_class(class, 2005);
        for _ in 0..8 {
            enc.encode_frame(&seq.next_frame(), policy);
        }
        enc.take_ops()
    }

    /// PBPAIR at the table's operating point: `Intra_Th` 0.93, α 0.10.
    fn table_cfg() -> PbpairConfig {
        PbpairConfig {
            intra_th: 0.93,
            plr: 0.10,
            ..PbpairConfig::default()
        }
    }

    /// A QCIF PBPAIR policy for `cfg`.
    fn table_pbpair(cfg: PbpairConfig) -> crate::PbpairPolicy {
        crate::PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap()
    }

    #[test]
    fn ablation_table_early_vs_late_decision() {
        // Paper config: the early decision skips the search of every
        // macroblock it refreshes, the late one searches all 7 × 99.
        let foreman = MotionClass::MediumForeman;
        let early = table_ops(
            foreman,
            EncoderConfig::paper(),
            &mut table_pbpair(table_cfg()),
        );
        let mut late = LatePbpairPolicy::new(VideoFormat::QCIF, table_cfg()).unwrap();
        let late = table_ops(foreman, EncoderConfig::paper(), &mut late);
        assert_eq!((early.me_invocations, early.intra_mbs), (518, 274));
        assert_eq!((late.me_invocations, late.intra_mbs), (693, 274));
    }

    #[test]
    fn ablation_table_sigma_bias() {
        // λ = 1 steers vectors toward well-refreshed references, so fewer
        // macroblocks decay below `Intra_Th`; each one it keeps inter
        // pays a search instead of a refresh.
        let run = |lambda| {
            let mut p = table_pbpair(PbpairConfig {
                lambda,
                ..table_cfg()
            });
            let ops = table_ops(MotionClass::MediumForeman, EncoderConfig::default(), &mut p);
            (ops.intra_mbs, ops.me_invocations)
        };
        assert_eq!(run(1.0), (278, 514));
        assert_eq!(run(0.0), (302, 490));
    }

    #[test]
    fn ablation_table_similarity_factor() {
        // Without the similarity factor (Equation 3) static akiyo decays
        // as fast as motion would, and every macroblock refreshes.
        let run = |similarity| {
            let mut p = table_pbpair(PbpairConfig {
                similarity,
                ..table_cfg()
            });
            table_ops(MotionClass::LowAkiyo, EncoderConfig::default(), &mut p).intra_mbs
        };
        assert_eq!(run(SimilarityModel::default_copy_concealment()), 207);
        assert_eq!(run(SimilarityModel::None), 8 * 99);
    }

    #[test]
    fn ablation_table_full_vs_three_step_search() {
        // Candidates per search on garden: 962.1 for full search ±15,
        // 37.9 for three-step.
        let run = |strategy| {
            let cfg = EncoderConfig {
                me: MeConfig {
                    search_range: 15,
                    strategy,
                },
                ..EncoderConfig::default()
            };
            let ops = table_ops(MotionClass::HighGarden, cfg, &mut table_pbpair(table_cfg()));
            (ops.sad_candidates, ops.me_invocations)
        };
        assert_eq!(run(SearchStrategy::Full), (471_430, 490));
        assert_eq!(run(SearchStrategy::ThreeStep), (18_537, 489));
    }

    #[test]
    fn label_marks_the_ablation() {
        let p = LatePbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default()).unwrap();
        assert!(p.label().starts_with("PBPAIR-late"));
    }
}
