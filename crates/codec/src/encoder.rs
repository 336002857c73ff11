//! The hybrid video encoder.
//!
//! Every macroblock passes through five steps (Figures 1–2 of the paper),
//! each one function over the macroblock's record (`par::MbStage`):
//!
//! 1. **colocated SAD and pre-ME mode selection** — the content-similarity
//!    SAD against the previous original frame, then, on P-frames, the
//!    policy may force intra and skip the search entirely (PBPAIR's early
//!    decision);
//! 2. **motion estimation** — biased cost search
//!    (`SAD + policy.me_bias(mv)`) plus the macroblock's `SAD_self`;
//! 3. **natural inter/intra test and post-ME override** — intra when
//!    `SAD_mv > SAD_self + SAD_TH` (the paper's `SAD_mv − SAD_Th >
//!    SAD_self` test); the policy may still force intra (AIR, PGOP
//!    stride-back);
//! 4. **coding** — half-pel refinement, then transform / quantize /
//!    entropy-code (through the joint RDE controller when it is active),
//!    plus an in-loop reconstruction identical to the decoder's;
//! 5. **bookkeeping** — the trace event, frame statistics, the policy's
//!    outcome observation and the motion-vector history.
//!
//! All primitive operations are tallied in an [`OpCounts`], the input to
//! the energy model; a frame's ME count is its `OpCounts` delta.
//!
//! # Two schedules
//!
//! The **serial** schedule runs steps 1–5 macroblock by macroblock in
//! raster order, with the policy's live ME bias and a search prepass
//! seeded by the median of the coded neighbours. The **slice** schedule
//! (`OptConfig::slices > 1` and a policy with a frame-frozen bias) runs
//! each step over the whole frame: steps 1, 3 and 5 serially in raster
//! order, steps 2 and 4 over the macroblock rows on a fork–join pool,
//! with the frozen bias and a row-local prepass. Each policy hook sees
//! the same calls in the same order under both schedules, and the
//! bitstream is identical. The prepass lists differ on purpose: a
//! prepass only tightens the search's pruning bound and never selects
//! the winner, so either list finds the same vectors, and only the
//! row-local one keeps the slice schedule's operation counts independent
//! of the thread count.
//!
//! # Hot-path optimizations
//!
//! [`OptConfig`] gates three optimizations that keep the bitstream
//! **bit-identical** to the retained naive path (the golden-vector tests
//! prove it):
//!
//! * **predicted-MV fast search** — each P-macroblock seeds the search
//!   with predicted vectors, and every sweep candidate's SAD accumulation
//!   terminates early once it exceeds the running best (see
//!   [`me::search_fast_with`]);
//! * **fused transform** — DCT, quantization, and zigzag run as one
//!   kernel with no intermediate 8×8 buffers ([`crate::fused`]);
//! * **zero-allocation steady state** — the bit writer, reconstruction
//!   target, motion-vector history and the slice schedule's row scratch
//!   are persistent state reused across frames, so
//!   [`Encoder::encode_frame_into`] performs no heap allocation after
//!   warm-up on either schedule (a counting-allocator test asserts this).

use crate::bitstream::BitWriter;
use crate::kernels::{KernelTier, Kernels};
use crate::mb::{FrameStats, MbMode, MotionVector, SubPelVector};
use crate::mbcode::{code_intra_mb, BlockCodeCfg};
use crate::mc::LUMA_BLOCK;
use crate::me::{self, MeConfig, MvCandidates};
use crate::ops::OpCounts;
use crate::par::{self, MbStage, RowScratch};
use crate::policy::{
    FrameContext, FrameKind, FrozenMeBias, MbContext, MbOutcome, PostMeDecision, PreMeDecision,
    RefreshPolicy,
};
use crate::quant::Qp;
use crate::rde::{self, RdeCandidate, RdeConfig};
use pbpair_media::{Frame, MbGrid, MbIndex, VideoFormat};
use pbpair_sched::Pool;
use pbpair_telemetry::{Counter, Histogram, Stage, Telemetry};
use pbpair_trace::{event as trace_event, Event as TraceEvent, Tracer};

/// The 17-bit picture start code (16 zeros and a one, H.263 style).
pub const PICTURE_START_CODE: u32 = 1;
/// Bits in the picture start code.
pub const PICTURE_START_CODE_LEN: u32 = 17;

/// Hot-path optimization switches. Every combination produces the exact
/// same bitstream; these only trade CPU time. The defaults enable the
/// single-threaded optimizations and keep encoding serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Predicted-MV candidate seeding plus SAD early termination in the
    /// motion search ([`me::search_fast_with`]). Off = the naive
    /// exhaustive accounting path ([`me::search_with`]).
    pub fast_me: bool,
    /// The fused `dct→quant→zigzag` block kernel
    /// ([`crate::fused::fdct_quant_scan`]). Off = the separate
    /// three-pass pipeline.
    pub fused_transform: bool,
    /// Number of slice-encoding threads, counting the calling thread
    /// (`n` slices spawn `n − 1` helpers). `0` and `1` both mean serial.
    /// Values above 1 enable slice-parallel encoding *when the active
    /// policy provides a frame-frozen ME bias*
    /// ([`crate::policy::RefreshPolicy::frame_frozen_bias`]); otherwise
    /// the encoder transparently falls back to serial. The assembled
    /// bitstream is deterministic and independent of the thread count.
    pub slices: u8,
    /// Which SIMD pixel-kernel tier to dispatch through
    /// ([`crate::kernels`]). `None` (the default) uses the process-wide
    /// active tier ([`Kernels::active`]) — the detected best, or the
    /// `PBPAIR_KERNELS` override; `Some(tier)` pins this encoder only
    /// and panics at [`Encoder::new`] if the host lacks the tier.
    /// Every tier produces the exact same bitstream.
    pub kernels: Option<KernelTier>,
}

impl Default for OptConfig {
    /// Fast ME and the fused transform on; serial (1 slice); auto kernel
    /// dispatch.
    fn default() -> Self {
        OptConfig {
            fast_me: true,
            fused_transform: true,
            slices: 1,
            kernels: None,
        }
    }
}

impl OptConfig {
    /// The retained naive reference path: no fast ME, no fused kernel,
    /// serial, scalar pixel kernels. Benchmarks use this as the speedup
    /// baseline and the differential tests as the ground truth.
    pub fn naive() -> Self {
        OptConfig {
            fast_me: false,
            fused_transform: false,
            slices: 1,
            kernels: Some(KernelTier::Scalar),
        }
    }
}

/// The paper's `SAD_Th`: inter is kept only while
/// `SAD_mv ≤ SAD_self + SAD_TH` (500, the H.263 TMN convention).
const SAD_TH: u64 = 500;

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Picture format of every input frame.
    pub format: VideoFormat,
    /// Quantization parameter used for all frames.
    pub qp: Qp,
    /// Motion-search configuration.
    pub me: MeConfig,
    /// Half-pixel motion precision (H.263's default). When set, the
    /// integer search winner is refined over its 8 half-pel neighbours
    /// and vectors travel in half-pel units. The flag is carried in every
    /// picture header so the decoder follows automatically. The paper
    /// experiments keep this off (integer precision) so refresh-scheme
    /// comparisons stay on the configuration DESIGN.md documents.
    pub half_pel: bool,
    /// In-loop deblocking filter (see [`crate::deblock`]). Carried in the
    /// picture header; off in all paper experiments.
    pub deblock: bool,
    /// Hot-path optimization switches (bitstream-neutral).
    pub opt: OptConfig,
    /// Joint rate–distortion–energy controller ([`crate::rde`]). `None`
    /// — and `Some` with both λ weights zero — leave every decision to
    /// the plain policy path, bit-identically.
    pub rde: Option<RdeConfig>,
}

impl Default for EncoderConfig {
    /// QCIF, QP 8, ±15 three-step search, integer precision, no
    /// deblocking.
    fn default() -> Self {
        EncoderConfig {
            format: VideoFormat::QCIF,
            qp: Qp::default(),
            me: MeConfig::default(),
            half_pel: false,
            deblock: false,
            opt: OptConfig::default(),
            rde: None,
        }
    }
}

impl EncoderConfig {
    /// The paper's configuration: like [`EncoderConfig::default`] but
    /// with exhaustive ±15 full-search motion estimation, matching the
    /// reference H.263 TMN encoder the paper builds on. This is what the
    /// figure-regeneration experiments use; it makes ME ≈95% of the
    /// encoding energy, the regime in which the paper's energy numbers
    /// live.
    pub fn paper() -> Self {
        EncoderConfig {
            me: MeConfig {
                search_range: 15,
                strategy: crate::me::SearchStrategy::Full,
            },
            ..EncoderConfig::default()
        }
    }
}

/// One encoded frame: the bitstream plus side statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// 0-based frame index (also carried in the picture header mod 256).
    pub index: u64,
    /// Frame coding type.
    pub kind: FrameKind,
    /// The encoded bitstream, byte-aligned.
    pub data: Vec<u8>,
    /// Per-frame statistics.
    pub stats: FrameStats,
    /// Final mode of each macroblock in raster order (diagnostic side
    /// info; not part of the bitstream).
    pub mb_modes: Vec<MbMode>,
}

impl EncodedFrame {
    /// An empty frame suitable as the reusable output slot of
    /// [`Encoder::encode_frame_into`].
    pub fn empty() -> Self {
        EncodedFrame {
            index: 0,
            kind: FrameKind::Intra,
            data: Vec::new(),
            stats: FrameStats::default(),
            mb_modes: Vec::new(),
        }
    }
}

/// The encoder. Owns the reconstruction loop (its reference frame is the
/// decoder's output for a loss-free channel, bit-exactly).
///
/// # Example
///
/// ```rust
/// use pbpair_codec::{Encoder, EncoderConfig, NaturalPolicy};
/// use pbpair_media::synth::SyntheticSequence;
///
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut policy = NaturalPolicy::new();
/// let mut seq = SyntheticSequence::akiyo_class(1);
/// let encoded = enc.encode_frame(&seq.next_frame(), &mut policy);
/// assert!(!encoded.data.is_empty());
/// assert_eq!(encoded.stats.total_mbs(), 99);
/// ```
#[derive(Debug)]
pub struct Encoder {
    cfg: EncoderConfig,
    /// The pixel-kernel tier, resolved once from `cfg.opt.kernels` at
    /// construction; every hot loop (ME, transform, MC, reconstruction)
    /// dispatches through this single table.
    kernels: &'static Kernels,
    grid: MbGrid,
    /// Reconstructed previous frame (the prediction reference).
    recon: Frame,
    /// Original previous frame (similarity measurements).
    prev_original: Frame,
    frame_index: u64,
    ops: OpCounts,
    /// Pre-resolved telemetry handles; `None` until
    /// [`Encoder::set_telemetry`] attaches an enabled context. The
    /// flush is one batch of atomic adds per *frame*, so the per-MB hot
    /// loop carries no instrumentation cost at all.
    tel: Option<EncoderTelemetry>,
    /// Trace handle; `None` until [`Encoder::set_tracer`] attaches an
    /// enabled tracer. When attached, every macroblock's coding
    /// decision (mode, motion vector, bitstream range) is recorded as
    /// provenance for the causal replay pass.
    trace: Option<Tracer>,
    /// Persistent bit writer, reused across frames (taken at frame start,
    /// restored after `finish_into`). Part of the zero-allocation loop.
    writer: BitWriter,
    /// Scratch writer for RDE trial coding on the serial schedule (the
    /// slice schedule carries one per row). Untouched when RDE is
    /// inactive.
    rde_scratch: BitWriter,
    /// Reusable reconstruction target: after each frame it holds the
    /// retired two-frames-ago reconstruction, whose every pixel is
    /// overwritten before use (the MB grid tiles the frame exactly).
    scratch_recon: Option<Frame>,
    /// Integer MV of each macroblock of the previous frame (raster
    /// order); seeds the fast search's temporal candidate.
    prev_mvs: Vec<MotionVector>,
    /// Integer MV of each macroblock coded so far in the current frame;
    /// seeds the spatial (left/top/top-right) candidates.
    cur_mvs: Vec<MotionVector>,
    /// Slice-encoding worker pool, lazily created on the first frame that
    /// takes the slice schedule (`opt.slices > 1` and a policy with a
    /// frame-frozen bias).
    pool: Option<Pool>,
    /// Persistent per-row scratch of the slice schedule.
    row_scratch: Option<Vec<RowScratch>>,
}

/// Telemetry handles the encoder flushes once per encoded frame. All
/// quantities are deterministic (mode counts, bits, operation tallies),
/// so instrumented runs reproduce byte-identically.
#[derive(Debug)]
struct EncoderTelemetry {
    /// Stage `"encode"`; virtual units = SAD absolute-difference ops,
    /// the paper's dominant energy term.
    stage: Stage,
    frames: Counter,
    mbs_intra: Counter,
    mbs_inter: Counter,
    mbs_skip: Counter,
    /// ME searches performed.
    me_searches: Counter,
    /// P-frame macroblocks coded without a search — PBPAIR's savings.
    me_skipped: Counter,
    sad_ops: Counter,
    bits: Counter,
    bits_intra: Counter,
    bits_inter: Counter,
    bits_skip: Counter,
    /// Per-frame quantizer levels (QP is 1..=31).
    frame_qp: Histogram,
    /// Per-frame encoded sizes in bits.
    frame_bits: Histogram,
}

impl EncoderTelemetry {
    fn new(tel: &Telemetry) -> Self {
        EncoderTelemetry {
            stage: tel.stage("encode"),
            frames: tel.counter("enc.frames"),
            mbs_intra: tel.counter("enc.mbs_intra"),
            mbs_inter: tel.counter("enc.mbs_inter"),
            mbs_skip: tel.counter("enc.mbs_skip"),
            me_searches: tel.counter("enc.me_searches"),
            me_skipped: tel.counter("enc.me_skipped"),
            sad_ops: tel.counter("enc.sad_ops"),
            bits: tel.counter("enc.bits"),
            bits_intra: tel.counter("enc.bits_intra"),
            bits_inter: tel.counter("enc.bits_inter"),
            bits_skip: tel.counter("enc.bits_skip"),
            frame_qp: tel.histogram("enc.frame_qp", &[2, 4, 8, 12, 16, 22, 31]),
            frame_bits: tel.histogram(
                "enc.frame_bits",
                &[2_000, 8_000, 20_000, 50_000, 100_000, 250_000],
            ),
        }
    }
}

impl Encoder {
    /// Creates an encoder; the first frame passed to
    /// [`Encoder::encode_frame`] is always coded intra.
    pub fn new(cfg: EncoderConfig) -> Self {
        let grid = MbGrid::new(cfg.format);
        let mbs = grid.len();
        Encoder {
            cfg,
            kernels: cfg
                .opt
                .kernels
                .map_or_else(Kernels::active, Kernels::forced),
            grid,
            recon: Frame::new(cfg.format),
            prev_original: Frame::new(cfg.format),
            frame_index: 0,
            ops: OpCounts::new(),
            tel: None,
            trace: None,
            writer: BitWriter::new(),
            rde_scratch: BitWriter::new(),
            scratch_recon: Some(Frame::new(cfg.format)),
            prev_mvs: vec![MotionVector::ZERO; mbs],
            cur_mvs: vec![MotionVector::ZERO; mbs],
            pool: None,
            row_scratch: None,
        }
    }

    /// Attaches a telemetry context; subsequent frames flush their
    /// deterministic per-frame statistics into it (`enc.*` metrics and
    /// the `"encode"` stage). A disabled context detaches.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.is_enabled().then(|| EncoderTelemetry::new(tel));
    }

    /// Attaches a tracer; subsequent frames record per-MB provenance
    /// events (mode, motion vector, bitstream bit range). A disabled
    /// tracer detaches.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.trace = tracer.is_enabled().then(|| tracer.clone());
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Changes the quantizer for subsequent frames — the hook a rate
    /// controller ([`crate::rate::RateController`]) drives. The QP is
    /// carried per frame in the picture header, so the decoder follows
    /// automatically.
    pub fn set_qp(&mut self, qp: Qp) {
        self.cfg.qp = qp;
    }

    /// Cumulative operation counts since construction (or the last
    /// [`Encoder::take_ops`]).
    pub fn ops(&self) -> &OpCounts {
        &self.ops
    }

    /// Returns and resets the cumulative operation counts.
    pub fn take_ops(&mut self) -> OpCounts {
        std::mem::take(&mut self.ops)
    }

    /// The encoder's current reconstructed reference frame (what a
    /// loss-free decoder would display for the last encoded frame).
    pub fn reconstructed(&self) -> &Frame {
        &self.recon
    }

    /// Index the next encoded frame will get.
    pub fn next_frame_index(&self) -> u64 {
        self.frame_index
    }

    /// Encodes one frame under the given refresh policy.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s format differs from the configured format.
    pub fn encode_frame(&mut self, frame: &Frame, policy: &mut dyn RefreshPolicy) -> EncodedFrame {
        let mut out = EncodedFrame::empty();
        self.encode_frame_into(frame, policy, &mut out);
        out
    }

    /// Encodes one frame into a caller-owned output slot, reusing its
    /// `data` and `mb_modes` buffers. In steady state (slot capacity
    /// established, serial schedule, no tracer) this performs **no heap
    /// allocation** — the property `tests/alloc_count.rs` asserts with a
    /// counting allocator.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s format differs from the configured format.
    pub fn encode_frame_into(
        &mut self,
        frame: &Frame,
        policy: &mut dyn RefreshPolicy,
        out: &mut EncodedFrame,
    ) {
        assert_eq!(
            frame.format(),
            self.cfg.format,
            "frame format does not match encoder configuration"
        );
        let ops_at_entry = self.ops;
        let span = self.tel.as_ref().map(|t| t.stage.span());
        let fctx = FrameContext {
            frame_index: self.frame_index,
            format: self.cfg.format,
            mb_count: self.grid.len(),
        };
        let kind = if self.frame_index == 0 {
            FrameKind::Intra
        } else {
            policy.begin_frame(&fctx)
        };

        let mut w = std::mem::take(&mut self.writer);
        w.reset();
        w.put_bits(PICTURE_START_CODE, PICTURE_START_CODE_LEN);
        w.put_bits((self.frame_index & 0xFF) as u32, 8);
        w.put_bit(kind == FrameKind::Inter);
        w.put_bits(self.cfg.qp.get() as u32, 5);
        w.put_bit(self.cfg.half_pel);
        w.put_bit(self.cfg.deblock);
        // Source format: 2-bit code for the standard sizes, escape code 3
        // followed by the dimensions in macroblock units. The decoder
        // validates this against its configured format instead of
        // silently mis-parsing a stream of the wrong size.
        match self.cfg.format {
            VideoFormat::SQCIF => w.put_bits(0, 2),
            VideoFormat::QCIF => w.put_bits(1, 2),
            VideoFormat::CIF => w.put_bits(2, 2),
            custom => {
                w.put_bits(3, 2);
                w.put_bits(custom.mb_cols() as u32, 8);
                w.put_bits(custom.mb_rows() as u32, 8);
            }
        }

        // Every pixel of the scratch frame is overwritten below (the MB
        // grid tiles the frame exactly), so stale content is harmless.
        let mut new_recon = self
            .scratch_recon
            .take()
            .unwrap_or_else(|| Frame::new(self.cfg.format));
        out.stats = FrameStats::default();
        out.mb_modes.clear();

        let env = FrameEnv {
            frame,
            reference: &self.recon,
            prev_original: &self.prev_original,
            prev_mvs: &self.prev_mvs,
            trace: self.trace.as_ref(),
            grid: self.grid,
            kind,
            fctx,
            me: self.cfg.me,
            fast_me: self.cfg.opt.fast_me,
            bcfg: BlockCodeCfg {
                qp: self.cfg.qp,
                half_pel: self.cfg.half_pel,
                fused: self.cfg.opt.fused_transform,
                kernels: self.kernels,
            },
            rde: self.cfg.rde.filter(|r| r.is_active()),
        };
        // The slice schedule engages only when configured AND the policy
        // can freeze its ME bias for the frame; otherwise the serial
        // schedule runs (identical bitstream either way).
        let rows = self.grid.rows();
        let frozen = if self.cfg.opt.slices > 1 && rows > 1 {
            policy.frame_frozen_bias(&fctx)
        } else {
            None
        };
        if let Some(frozen) = frozen {
            let workers = (self.cfg.opt.slices as usize).min(rows);
            let format = self.cfg.format;
            encode_slices(
                env,
                policy,
                &frozen,
                self.pool.get_or_insert_with(|| Pool::new(workers)),
                self.row_scratch
                    .get_or_insert_with(|| RowScratch::for_format(format)),
                &mut w,
                &mut new_recon,
                &mut self.ops,
                &mut self.cur_mvs,
                out,
            );
        } else {
            // The serial schedule: steps 1–5 per macroblock in raster
            // order, with the policy's live bias and the median prepass.
            for mb in env.grid.iter() {
                let mut st = env.colocate(policy, mb, &mut self.ops);
                if !st.force_intra {
                    let prepass = env.median_prepass(&self.cur_mvs, mb);
                    let ctx = env.mb_context(mb, st.colocated_sad);
                    let mut bias = |mv| policy.me_bias(&ctx, mv);
                    env.search(mb, &mut st, &prepass, &mut bias, &mut self.ops);
                }
                env.decide(policy, mb, &mut st);
                env.code(
                    mb,
                    &mut st,
                    &mut w,
                    &mut self.rde_scratch,
                    &mut new_recon,
                    &mut self.ops,
                );
                env.record(policy, mb, &st, 0, out, &mut self.cur_mvs);
            }
        }

        if self.cfg.deblock {
            crate::deblock::deblock_frame(&mut new_recon, self.cfg.qp);
        }

        let frame_ops = self.ops - ops_at_entry;
        let stats = &mut out.stats;
        stats.bits = w.bit_len();
        stats.me_invocations = frame_ops.me_invocations as u32;

        w.finish_into(&mut out.data);
        self.writer = w;
        self.ops.frames += 1;
        self.ops.intra_mbs += stats.intra_mbs as u64;
        self.ops.inter_mbs += stats.inter_mbs as u64;
        self.ops.skip_mbs += stats.skip_mbs as u64;
        self.ops.bits_emitted += stats.bits;

        policy.end_frame(&fctx, stats);

        if let Some(t) = &self.tel {
            t.frames.inc(1);
            t.mbs_intra.inc(stats.intra_mbs as u64);
            t.mbs_inter.inc(stats.inter_mbs as u64);
            t.mbs_skip.inc(stats.skip_mbs as u64);
            t.me_searches.inc(stats.me_invocations as u64);
            if kind == FrameKind::Inter {
                t.me_skipped
                    .inc(self.grid.len() as u64 - stats.me_invocations as u64);
            }
            t.sad_ops.inc(frame_ops.sad_ops);
            t.bits.inc(stats.bits);
            t.bits_intra.inc(stats.intra_bits);
            t.bits_inter.inc(stats.inter_bits);
            t.bits_skip.inc(stats.skip_bits);
            t.frame_qp.record(self.cfg.qp.get() as u64);
            t.frame_bits.record(stats.bits);
            if let Some(mut span) = span {
                span.add_units(frame_ops.sad_ops);
            }
        }

        std::mem::swap(&mut self.recon, &mut new_recon);
        self.scratch_recon = Some(new_recon);
        self.prev_original.copy_from(frame);
        std::mem::swap(&mut self.prev_mvs, &mut self.cur_mvs);

        out.index = self.frame_index;
        out.kind = kind;
        self.frame_index += 1;
    }
}

/// The slice schedule: each step over the whole frame. Steps 1 and 3 run
/// in raster order, so sequential policy state (PBPAIR's refresh cap)
/// replays exactly; steps 2 and 4 run row by row on the pool,
/// searching with the frozen bias and a row-local prepass and coding
/// into per-row writers and reconstruction bands; step 5 appends the row
/// writers in order and does the bookkeeping in raster order.
///
/// Each policy hook sees the serial schedule's calls in the same order;
/// only their *interleaving* differs (every pre-ME decision comes before
/// any outcome), which is what [`RefreshPolicy::frame_frozen_bias`]
/// certifies as safe.
#[allow(clippy::too_many_arguments)]
fn encode_slices(
    env: FrameEnv<'_>,
    policy: &mut dyn RefreshPolicy,
    frozen: &FrozenMeBias,
    pool: &mut Pool,
    rows: &mut [RowScratch],
    w: &mut BitWriter,
    new_recon: &mut Frame,
    ops: &mut OpCounts,
    cur_mvs: &mut [MotionVector],
    out: &mut EncodedFrame,
) {
    for (row, rs) in rows.iter_mut().enumerate() {
        for (col, st) in rs.stages.iter_mut().enumerate() {
            *st = env.colocate(policy, MbIndex::new(row, col), ops);
        }
        rs.ops = OpCounts::new();
        rs.writer.reset();
    }
    if env.kind == FrameKind::Inter {
        pool.for_each_mut(rows, |row, rs| {
            let mut left = None;
            for (col, st) in rs.stages.iter_mut().enumerate() {
                if st.force_intra {
                    left = None;
                    continue;
                }
                let mb = MbIndex::new(row, col);
                let prepass = env.row_prepass(mb, left);
                env.search(mb, st, &prepass, &mut |mv| frozen(mb, mv), &mut rs.ops);
                left = Some(st.me.mv);
            }
        });
    }
    for (row, rs) in rows.iter_mut().enumerate() {
        for (col, st) in rs.stages.iter_mut().enumerate() {
            env.decide(policy, MbIndex::new(row, col), st);
        }
    }
    pool.for_each_mut(rows, |row, rs| {
        for (col, st) in rs.stages.iter_mut().enumerate() {
            let mb = MbIndex::new(row, col);
            env.code(
                mb,
                st,
                &mut rs.writer,
                &mut rs.rde_writer,
                &mut rs.recon,
                &mut rs.ops,
            );
        }
    });
    for (row, rs) in rows.iter().enumerate() {
        let row_start = w.bit_len();
        w.append(&rs.writer);
        *ops += rs.ops;
        for (col, st) in rs.stages.iter().enumerate() {
            env.record(policy, MbIndex::new(row, col), st, row_start, out, cur_mvs);
        }
        par::copy_row_band(new_recon, &rs.recon, row);
    }
}

/// What every per-macroblock step reads about the frame being encoded.
/// `Copy`, so each row job of the slice schedule shares it freely.
#[derive(Clone, Copy)]
struct FrameEnv<'a> {
    frame: &'a Frame,
    /// The reconstructed previous frame: the prediction reference.
    reference: &'a Frame,
    /// The original previous frame, for the colocated SAD.
    prev_original: &'a Frame,
    /// Integer MV of each macroblock of the previous frame.
    prev_mvs: &'a [MotionVector],
    trace: Option<&'a Tracer>,
    grid: MbGrid,
    kind: FrameKind,
    fctx: FrameContext,
    me: MeConfig,
    fast_me: bool,
    bcfg: BlockCodeCfg,
    /// The RDE configuration, only when it actually reprices decisions
    /// (the zero-λ gate: `None` and zero-λ configs are the same encoder).
    rde: Option<RdeConfig>,
}

impl<'a> FrameEnv<'a> {
    fn mb_context(&self, mb: MbIndex, colocated_sad: u64) -> MbContext<'a> {
        MbContext {
            frame_index: self.fctx.frame_index,
            mb,
            cur_luma: self.frame.y(),
            ref_luma: self.reference.y(),
            colocated_sad,
        }
    }

    /// Step 1: the content-similarity SAD against the colocated MB of the
    /// previous original frame (one 256-op SAD, charged on every frame
    /// kind), then, on P-frames, the policy's pre-ME decision. Policies
    /// observe I-frame macroblocks too; for frame 0 the previous original
    /// is black, so similarity-based policies correctly see "nothing to
    /// conceal from".
    fn colocate(&self, policy: &mut dyn RefreshPolicy, mb: MbIndex, ops: &mut OpCounts) -> MbStage {
        let (ox, oy) = mb.luma_origin();
        let colocated_sad =
            self.frame
                .y()
                .sad_colocated(self.prev_original.y(), ox, oy, LUMA_BLOCK, LUMA_BLOCK);
        ops.sad_ops += 256;
        let force_intra = self.kind == FrameKind::Intra
            || policy.pre_me_mode(&self.mb_context(mb, colocated_sad)) == PreMeDecision::ForceIntra;
        MbStage {
            colocated_sad,
            force_intra,
            ..MbStage::default()
        }
    }

    /// The serial schedule's prepass: the component-wise median of the
    /// left/top/top-right neighbours coded this frame, the zero vector,
    /// and the colocated vector of the previous frame. Empty when fast ME
    /// is off (the naive search takes no prepass).
    fn median_prepass(&self, cur_mvs: &[MotionVector], mb: MbIndex) -> MvCandidates {
        let mut cands = MvCandidates::default();
        if !self.fast_me {
            return cands;
        }
        let cols = self.grid.cols();
        let (row, col) = (mb.row, mb.col);
        let flat = row * cols + col;
        let range = self.me.search_range;
        let zero = MotionVector::ZERO;
        let left = if col > 0 { cur_mvs[flat - 1] } else { zero };
        let top = if row > 0 { cur_mvs[flat - cols] } else { zero };
        let top_right = if row > 0 && col + 1 < cols {
            cur_mvs[flat - cols + 1]
        } else {
            zero
        };
        cands.push_clamped(me::median_mv(left, top, top_right), range);
        cands.push_clamped(zero, range);
        cands.push_clamped(self.prev_mvs[flat], range);
        cands
    }

    /// The slice schedule's prepass: the zero vector, the colocated
    /// vector of the previous frame, and `left`, the row's previous
    /// search winner. Row-local, so a row's operation count does not
    /// depend on which thread ran which row. Empty when fast ME is off.
    fn row_prepass(&self, mb: MbIndex, left: Option<MotionVector>) -> MvCandidates {
        let mut cands = MvCandidates::default();
        if self.fast_me {
            let range = self.me.search_range;
            cands.push_clamped(MotionVector::ZERO, range);
            cands.push_clamped(self.prev_mvs[mb.row * self.grid.cols() + mb.col], range);
            if let Some(lv) = left {
                cands.push_clamped(lv, range);
            }
        }
        cands
    }

    /// Step 2, for a macroblock step 1 left to inter: the motion search
    /// minimizing `SAD + bias`, then `SAD_self` for the natural intra
    /// test.
    fn search(
        &self,
        mb: MbIndex,
        st: &mut MbStage,
        prepass: &MvCandidates,
        bias: &mut dyn FnMut(MotionVector) -> i64,
        ops: &mut OpCounts,
    ) {
        let (k, cur, reference) = (self.bcfg.kernels, self.frame.y(), self.reference.y());
        st.me = if self.fast_me {
            me::search_fast_with(k, cur, reference, mb, self.me, bias, prepass)
        } else {
            me::search_with(k, cur, reference, mb, self.me, bias)
        };
        ops.me_invocations += 1;
        ops.sad_candidates += st.me.candidates as u64;
        ops.sad_ops += st.me.sad_ops;
        st.sad_self = me::sad_self(cur, mb);
        ops.sad_ops += 512; // mean + deviation pass
    }

    /// Step 3, for a macroblock step 1 left to inter: the natural intra
    /// test and the policy's post-ME override, which is consulted even
    /// when the natural test already chose intra.
    fn decide(&self, policy: &mut dyn RefreshPolicy, mb: MbIndex, st: &mut MbStage) {
        if st.force_intra {
            return;
        }
        let natural_intra = st.me.sad > st.sad_self + SAD_TH;
        let post = policy.post_me_mode(&self.mb_context(mb, st.colocated_sad), &st.me);
        st.inter_mv = (!natural_intra && post != PostMeDecision::ForceIntra).then_some(st.me.mv);
    }

    /// Step 4: half-pel refinement when inter survived, then block coding
    /// into `w` and `recon` — through the joint RDE controller when it is
    /// active. I-frame macroblocks carry no COD/mode prefix.
    fn code(
        &self,
        mb: MbIndex,
        st: &mut MbStage,
        w: &mut BitWriter,
        rde_scratch: &mut BitWriter,
        recon: &mut Frame,
        ops: &mut OpCounts,
    ) {
        let bit_start = w.bit_len();
        let bcfg = &self.bcfg;
        let baseline = match st.inter_mv {
            Some(int_mv) => {
                let (mv, sad) = if bcfg.half_pel {
                    let (cur, reference) = (self.frame.y(), self.reference.y());
                    let refined = me::refine_half_pel_with(
                        bcfg.kernels,
                        cur,
                        reference,
                        mb,
                        int_mv,
                        st.me.sad,
                    );
                    ops.sad_ops += refined.sad_ops;
                    (refined.mv, refined.sad)
                } else {
                    (SubPelVector::integer(int_mv), st.me.sad)
                };
                st.sad_mv = Some(sad);
                RdeCandidate::Inter(mv)
            }
            None => {
                st.sad_mv = (!st.force_intra).then_some(st.me.sad);
                RdeCandidate::Intra
            }
        };
        st.final_mode = if self.kind == FrameKind::Intra {
            code_intra_mb(bcfg, w, self.frame, recon, mb, ops);
            MbMode::Intra
        } else if let Some(rde) = &self.rde {
            rde::choose_and_code_mb(
                rde,
                bcfg,
                w,
                rde_scratch,
                self.frame,
                self.reference,
                recon,
                mb,
                baseline,
                ops,
            )
        } else {
            rde::code_candidate(
                baseline,
                bcfg,
                w,
                self.frame,
                self.reference,
                recon,
                mb,
                ops,
            )
        };
        st.final_mv = match (st.final_mode, baseline) {
            (MbMode::Inter, RdeCandidate::Inter(mv)) => mv.int,
            _ => MotionVector::ZERO,
        };
        st.bit_start = bit_start;
        st.bit_len = w.bit_len() - bit_start;
    }

    /// Step 5: the provenance event (bit range offset by `bit_base`, the
    /// frame-writer position of the writer the MB was coded into), the
    /// frame statistics and mode list, the policy's outcome observation,
    /// and the MV history.
    fn record(
        &self,
        policy: &mut dyn RefreshPolicy,
        mb: MbIndex,
        st: &MbStage,
        bit_base: u64,
        out: &mut EncodedFrame,
        cur_mvs: &mut [MotionVector],
    ) {
        let flat = mb.row * self.grid.cols() + mb.col;
        let (mode_code, count, bits) = match st.final_mode {
            MbMode::Intra => (
                trace_event::MODE_INTRA,
                &mut out.stats.intra_mbs,
                &mut out.stats.intra_bits,
            ),
            MbMode::Inter => (
                trace_event::MODE_INTER,
                &mut out.stats.inter_mbs,
                &mut out.stats.inter_bits,
            ),
            MbMode::Skip => (
                trace_event::MODE_SKIP,
                &mut out.stats.skip_mbs,
                &mut out.stats.skip_bits,
            ),
        };
        *count += 1;
        *bits += st.bit_len;
        if let Some(t) = self.trace {
            t.emit(TraceEvent::MbCoded {
                frame: self.fctx.frame_index as u32,
                mb: flat as u16,
                mode: mode_code,
                mv_x: st.final_mv.x,
                mv_y: st.final_mv.y,
                bit_start: (bit_base + st.bit_start) as u32,
                bit_len: st.bit_len as u32,
            });
        }
        out.mb_modes.push(st.final_mode);
        policy.mb_coded(
            &self.fctx,
            &MbOutcome {
                mb,
                mode: st.final_mode,
                mv: st.final_mv,
                sad_mv: st.sad_mv,
                me_performed: self.kind == FrameKind::Inter && !st.force_intra,
                colocated_sad: st.colocated_sad,
            },
        );
        cur_mvs[flat] = st.final_mv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NaturalPolicy;
    use pbpair_media::metrics;
    use pbpair_media::synth::SyntheticSequence;

    fn encode_n(n: usize, seed: u64) -> (Encoder, Vec<EncodedFrame>, Vec<Frame>) {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(seed);
        let mut encoded = Vec::new();
        let mut originals = Vec::new();
        for _ in 0..n {
            let f = seq.next_frame();
            encoded.push(enc.encode_frame(&f, &mut policy));
            originals.push(f);
        }
        (enc, encoded, originals)
    }

    #[test]
    fn first_frame_is_always_intra() {
        let (_, encoded, _) = encode_n(2, 1);
        assert_eq!(encoded[0].kind, FrameKind::Intra);
        assert_eq!(encoded[0].stats.intra_mbs, 99);
        assert_eq!(encoded[1].kind, FrameKind::Inter);
    }

    #[test]
    fn reconstruction_tracks_the_original() {
        let (enc, _, originals) = encode_n(5, 2);
        let p = metrics::psnr_y(originals.last().unwrap(), enc.reconstructed());
        assert!(p > 28.0, "encoder reconstruction PSNR too low: {p}");
    }

    #[test]
    fn p_frames_are_much_smaller_than_i_frames() {
        let (_, encoded, _) = encode_n(4, 3);
        let i_bits = encoded[0].stats.bits;
        let p_bits = encoded[2].stats.bits;
        assert!(
            p_bits * 2 < i_bits,
            "P-frame ({p_bits} bits) should be well under the I-frame ({i_bits} bits)"
        );
    }

    #[test]
    fn ops_are_accounted() {
        let (enc, encoded, _) = encode_n(3, 4);
        let ops = enc.ops();
        assert_eq!(ops.frames, 3);
        assert_eq!(ops.total_mbs(), 3 * 99);
        // I-frame has no ME; P-frames search for non-forced MBs.
        assert!(ops.me_invocations > 0);
        assert!(ops.me_invocations <= 2 * 99);
        assert!(ops.sad_ops > 0);
        assert_eq!(
            ops.bits_emitted,
            encoded.iter().map(|e| e.stats.bits).sum::<u64>()
        );
        // 6 blocks per coded MB are transformed (skip MBs transform too
        // before demotion).
        assert!(ops.dct_blocks >= (ops.intra_mbs + ops.inter_mbs) * 6);
    }

    #[test]
    fn mb_modes_match_stats() {
        let (_, encoded, _) = encode_n(3, 5);
        for e in &encoded {
            let intra = e.mb_modes.iter().filter(|m| **m == MbMode::Intra).count() as u32;
            let inter = e.mb_modes.iter().filter(|m| **m == MbMode::Inter).count() as u32;
            let skip = e.mb_modes.iter().filter(|m| **m == MbMode::Skip).count() as u32;
            assert_eq!(intra, e.stats.intra_mbs);
            assert_eq!(inter, e.stats.inter_mbs);
            assert_eq!(skip, e.stats.skip_mbs);
        }
    }

    #[test]
    fn static_content_produces_skip_mbs() {
        // A perfectly static source (flat frames) must devolve to skip
        // macroblocks after the first frame.
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let flat = Frame::flat(VideoFormat::QCIF, 90);
        let _ = enc.encode_frame(&flat, &mut policy);
        let e = enc.encode_frame(&flat, &mut policy);
        assert_eq!(e.stats.skip_mbs, 99, "static frame should fully skip");
        assert!(e.stats.bits < 200, "a fully skipped frame is ~1 bit/MB");
    }

    #[test]
    fn optimizations_do_not_change_the_bitstream() {
        // Fast ME + fused transform vs. the retained naive path: the
        // bitstreams and side info must be identical frame by frame, and
        // the fast path must execute strictly fewer SAD operations.
        let mut fast = Encoder::new(EncoderConfig::default());
        let mut naive = Encoder::new(EncoderConfig {
            opt: OptConfig::naive(),
            ..EncoderConfig::default()
        });
        let mut pf = NaturalPolicy::new();
        let mut pn = NaturalPolicy::new();
        let mut seq_f = SyntheticSequence::foreman_class(11);
        let mut seq_n = SyntheticSequence::foreman_class(11);
        for i in 0..5 {
            let ef = fast.encode_frame(&seq_f.next_frame(), &mut pf);
            let en = naive.encode_frame(&seq_n.next_frame(), &mut pn);
            assert_eq!(ef.data, en.data, "bitstream diverged at frame {i}");
            assert_eq!(ef.stats, en.stats, "stats diverged at frame {i}");
            assert_eq!(ef.mb_modes, en.mb_modes, "modes diverged at frame {i}");
        }
        assert!(
            fast.ops().sad_ops < naive.ops().sad_ops,
            "fast path must save SAD ops: {} vs {}",
            fast.ops().sad_ops,
            naive.ops().sad_ops
        );
    }

    #[test]
    fn slice_parallel_encoding_is_bit_identical_and_deterministic() {
        // The slice schedule must reproduce the serial bitstream exactly
        // at every thread count, and its operation counts must not depend
        // on the thread count (row-local candidate seeding).
        let encode = |slices: u8| {
            let mut enc = Encoder::new(EncoderConfig {
                opt: OptConfig {
                    slices,
                    ..OptConfig::default()
                },
                ..EncoderConfig::default()
            });
            let mut policy = NaturalPolicy::new();
            let mut seq = SyntheticSequence::foreman_class(21);
            let frames: Vec<_> = (0..5)
                .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy))
                .collect();
            (frames, *enc.ops())
        };
        let (serial, _) = encode(1);
        let (two, ops2) = encode(2);
        let (four, ops4) = encode(4);
        for i in 0..serial.len() {
            assert_eq!(
                serial[i].data, two[i].data,
                "2 slices diverged at frame {i}"
            );
            assert_eq!(
                serial[i].data, four[i].data,
                "4 slices diverged at frame {i}"
            );
            assert_eq!(serial[i].stats, two[i].stats, "stats diverged at frame {i}");
            assert_eq!(
                serial[i].stats, four[i].stats,
                "stats diverged at frame {i}"
            );
            assert_eq!(serial[i].mb_modes, two[i].mb_modes);
            assert_eq!(serial[i].mb_modes, four[i].mb_modes);
        }
        assert_eq!(
            ops2, ops4,
            "operation counts must be independent of the thread count"
        );
    }

    #[test]
    fn slice_parallel_without_frozen_bias_falls_back_to_serial() {
        // A policy that cannot freeze its bias (the default `None`) must
        // still encode correctly with slices configured: the encoder
        // silently takes the serial schedule.
        struct Unfreezable;
        impl RefreshPolicy for Unfreezable {
            fn label(&self) -> String {
                "unfreezable".into()
            }
        }
        let mut parallel = Encoder::new(EncoderConfig {
            opt: OptConfig {
                slices: 4,
                ..OptConfig::default()
            },
            ..EncoderConfig::default()
        });
        let mut serial = Encoder::new(EncoderConfig::default());
        let mut seq_a = SyntheticSequence::foreman_class(22);
        let mut seq_b = SyntheticSequence::foreman_class(22);
        for i in 0..3 {
            let a = parallel.encode_frame(&seq_a.next_frame(), &mut Unfreezable);
            let b = serial.encode_frame(&seq_b.next_frame(), &mut Unfreezable);
            assert_eq!(a, b, "fallback diverged at frame {i}");
        }
    }

    #[test]
    fn encode_frame_into_reuses_the_output_slot() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(6);
        let mut out = EncodedFrame::empty();
        let mut reference = Encoder::new(EncoderConfig::default());
        let mut ref_policy = NaturalPolicy::new();
        let mut ref_seq = SyntheticSequence::foreman_class(6);
        for i in 0..4 {
            enc.encode_frame_into(&seq.next_frame(), &mut policy, &mut out);
            let want = reference.encode_frame(&ref_seq.next_frame(), &mut ref_policy);
            assert_eq!(out, want, "frame {i} diverged between into/owned APIs");
        }
    }

    #[test]
    #[should_panic(expected = "format")]
    fn wrong_format_panics() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let wrong = Frame::new(VideoFormat::CIF);
        let _ = enc.encode_frame(&wrong, &mut policy);
    }
}
