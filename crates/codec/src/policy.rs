//! The refresh-policy interface: where error-resilience schemes plug into
//! the encoder.
//!
//! The paper's Figure 2 shows PBPAIR integrating into the encoding loop at
//! two points: **encoding mode selection before motion estimation** and
//! **the ME cost function itself**. The baselines hook in elsewhere: GOP
//! at frame granularity, PGOP/AIR per macroblock (AIR necessarily *after*
//! ME). [`RefreshPolicy`] exposes exactly these hooks, so every scheme —
//! including the paper's ablations — is a policy implementation, and the
//! encoder's energy accounting automatically reflects which hooks a scheme
//! uses (a pre-ME intra decision never runs the search, which is the whole
//! energy story).
//!
//! The trait lives in the codec crate so the encoder can drive it; the
//! scheme implementations live in the `pbpair` crate.

use crate::mb::{FrameStats, MbMode, MotionVector};
use crate::me::MeResult;
use pbpair_media::{MbIndex, Plane, VideoFormat};

/// Frame-level coding type requested by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// All macroblocks intra (an I-frame).
    Intra,
    /// Predictive frame; per-macroblock decisions apply (a P-frame).
    Inter,
}

/// Per-frame information passed to policy hooks.
#[derive(Debug, Clone, Copy)]
pub struct FrameContext {
    /// Index of the frame being encoded (0-based).
    pub frame_index: u64,
    /// Picture format.
    pub format: VideoFormat,
    /// Macroblocks per frame.
    pub mb_count: usize,
}

/// Per-macroblock information passed to policy hooks.
#[derive(Debug)]
pub struct MbContext<'a> {
    /// Index of the frame being encoded.
    pub frame_index: u64,
    /// The macroblock being decided.
    pub mb: MbIndex,
    /// Original luma of the current frame.
    pub cur_luma: &'a Plane,
    /// Reconstructed luma of the reference (previous) frame.
    pub ref_luma: &'a Plane,
    /// SAD between this macroblock and its colocated predecessor in the
    /// previous *original* frame — the content-similarity measurement that
    /// drives the paper's similarity factor.
    pub colocated_sad: u64,
}

/// Mode decision available before motion estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreMeDecision {
    /// Code this macroblock intra and **skip motion estimation** — the
    /// energy-saving early exit of PBPAIR and the column refresh of PGOP.
    ForceIntra,
    /// Run motion estimation and continue to the post-ME decision.
    TryInter,
}

/// Mode decision available after motion estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostMeDecision {
    /// Accept the encoder's natural inter/intra choice.
    Keep,
    /// Force intra even though ME ran (AIR's refresh, PGOP's stride-back).
    ForceIntra,
}

/// What actually happened to a macroblock, reported back to the policy
/// after it is coded.
#[derive(Debug, Clone, Copy)]
pub struct MbOutcome {
    /// The macroblock.
    pub mb: MbIndex,
    /// Final coding mode.
    pub mode: MbMode,
    /// Motion vector (zero for intra and skip).
    pub mv: MotionVector,
    /// SAD of the chosen vector if motion estimation ran.
    pub sad_mv: Option<u64>,
    /// Whether motion estimation was performed for this macroblock.
    pub me_performed: bool,
    /// Colocated-SAD similarity measurement (same value the `MbContext`
    /// carried).
    pub colocated_sad: u64,
}

/// A frame-frozen snapshot of a policy's ME bias: a pure function of
/// `(macroblock, candidate vector)` that is safe to evaluate from
/// multiple slice-encoding threads at once. See
/// [`RefreshPolicy::frame_frozen_bias`].
pub type FrozenMeBias = Box<dyn Fn(MbIndex, MotionVector) -> i64 + Send + Sync>;

/// An error-resilience scheme, driven by the encoder once per frame and
/// once per macroblock.
///
/// All hooks have defaults that produce plain predictive coding with no
/// forced refresh, so a policy only overrides the hooks its scheme uses.
pub trait RefreshPolicy {
    /// Chooses the frame type. Called before any macroblock of the frame.
    /// The encoder forces the very first frame to [`FrameKind::Intra`]
    /// regardless of this hook (there is no reference yet).
    fn begin_frame(&mut self, ctx: &FrameContext) -> FrameKind {
        let _ = ctx;
        FrameKind::Inter
    }

    /// Early mode selection, before motion estimation (paper §3.1.1).
    fn pre_me_mode(&mut self, ctx: &MbContext<'_>) -> PreMeDecision {
        let _ = ctx;
        PreMeDecision::TryInter
    }

    /// Additive bias on an ME candidate's cost (paper §3.1.2). Positive
    /// values penalize the candidate. The default is no bias (pure SAD).
    ///
    /// The search may call this more than once for the same vector of a
    /// macroblock (each prepass candidate is priced before the sweep,
    /// which may visit it again), so calling it must not change any later
    /// decision: the bias a vector gets, or any other hook's result.
    fn me_bias(&mut self, ctx: &MbContext<'_>, mv: MotionVector) -> i64 {
        let _ = (ctx, mv);
        0
    }

    /// Late mode override, after motion estimation.
    fn post_me_mode(&mut self, ctx: &MbContext<'_>, me: &MeResult) -> PostMeDecision {
        let _ = (ctx, me);
        PostMeDecision::Keep
    }

    /// A thread-safe snapshot of [`RefreshPolicy::me_bias`] for the frame
    /// about to be encoded, or `None` (the default) when the bias cannot
    /// be frozen. Slice-parallel encoding is only engaged when this
    /// returns `Some`: the slice schedule calls the snapshot instead of
    /// `me_bias`, so a policy must guarantee the snapshot returns exactly
    /// what `me_bias` would have returned at any point during the frame
    /// (i.e. its bias does not change mid-frame). Policies with a
    /// mid-frame-mutating bias keep the `None` default and the encoder
    /// transparently falls back to serial encoding.
    fn frame_frozen_bias(&self, ctx: &FrameContext) -> Option<FrozenMeBias> {
        let _ = ctx;
        None
    }

    /// Observes the final outcome of each macroblock (PBPAIR updates its
    /// correctness matrix here; AIR records SADs for the next frame).
    fn mb_coded(&mut self, ctx: &FrameContext, outcome: &MbOutcome) {
        let _ = (ctx, outcome);
    }

    /// Observes the end of each frame with its stats.
    fn end_frame(&mut self, ctx: &FrameContext, stats: &FrameStats) {
        let _ = (ctx, stats);
    }

    /// Human-readable scheme label used in reports ("PBPAIR", "GOP-8" …).
    fn label(&self) -> String {
        "policy".to_string()
    }
}

/// The paper's **NO** configuration: no error-resilience scheme at all.
/// The encoder still makes its natural inter/intra choice per macroblock
/// (high-motion blocks go intra when prediction fails), but nothing is
/// ever refreshed for resilience.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaturalPolicy;

impl NaturalPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        NaturalPolicy
    }
}

impl RefreshPolicy for NaturalPolicy {
    fn label(&self) -> String {
        "NO".to_string()
    }

    fn frame_frozen_bias(&self, _ctx: &FrameContext) -> Option<FrozenMeBias> {
        Some(Box::new(|_, _| 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_policy_uses_all_defaults() {
        let mut p = NaturalPolicy::new();
        let fctx = FrameContext {
            frame_index: 3,
            format: VideoFormat::QCIF,
            mb_count: 99,
        };
        assert_eq!(p.begin_frame(&fctx), FrameKind::Inter);
        assert_eq!(p.label(), "NO");
        let plane = Plane::new(176, 144);
        let ctx = MbContext {
            frame_index: 3,
            mb: MbIndex::new(0, 0),
            cur_luma: &plane,
            ref_luma: &plane,
            colocated_sad: 0,
        };
        assert_eq!(p.pre_me_mode(&ctx), PreMeDecision::TryInter);
        assert_eq!(p.me_bias(&ctx, MotionVector::new(1, 1)), 0);
    }
}
