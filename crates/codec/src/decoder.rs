//! The video decoder, with error concealment for lost frames.
//!
//! The decoder parses each macroblock's CBP, vectors and coefficient
//! blocks and rebuilds it through the encoder's own reconstruction
//! (`mbcode`), so the two stay bit-exact by construction. The receiver
//! hands whatever arrived for each frame to [`Decoder::receive`], which
//! decodes the bytes, concealing any damage, or conceals the whole frame
//! when the network dropped it. The default concealment is the paper's
//! **simple copy scheme** — repeat the previous reconstructed frame —
//! and the strategy is pluggable so richer concealments slot in (the
//! paper notes they only change PBPAIR's similarity factor).

use crate::bitstream::{BitReader, BitstreamError};
use crate::blockcode::read_coeff_block;
use crate::encoder::{PICTURE_START_CODE, PICTURE_START_CODE_LEN};
use crate::kernels::{KernelTier, Kernels};
use crate::mb::{MbMode, MotionVector, SubPelVector};
use crate::mbcode::{copy_mb, recon_intra_mb, MbLevels, MbPrediction};
use crate::policy::FrameKind;
use crate::quant::Qp;
use crate::vlc;
use pbpair_media::{Frame, MbGrid, MbIndex, VideoFormat};
use pbpair_telemetry::{Counter, Span, Stage, Telemetry};
use pbpair_trace::{Event as TraceEvent, Tracer};
use std::error::Error;
use std::fmt;

/// Errors produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream ended early or a code was malformed.
    Bitstream(BitstreamError),
    /// The picture start code was absent (corrupt or non-frame data).
    BadStartCode,
    /// The header carried an illegal quantizer.
    BadQp(u8),
    /// The stream's source format differs from the decoder's configured
    /// format.
    FormatMismatch {
        /// Format declared in the picture header.
        stream: VideoFormat,
        /// Format this decoder was built for.
        decoder: VideoFormat,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Bitstream(e) => write!(f, "bitstream error: {e}"),
            DecodeError::BadStartCode => write!(f, "missing picture start code"),
            DecodeError::BadQp(q) => write!(f, "illegal quantizer {q} in picture header"),
            DecodeError::FormatMismatch { stream, decoder } => write!(
                f,
                "stream format {stream} does not match decoder format {decoder}"
            ),
        }
    }
}

impl Error for DecodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DecodeError::Bitstream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BitstreamError> for DecodeError {
    fn from(e: BitstreamError) -> Self {
        DecodeError::Bitstream(e)
    }
}

/// How the decoder fills in a lost frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concealment {
    /// Repeat the previous reconstructed frame (the paper's "simple copy
    /// scheme").
    #[default]
    CopyPrevious,
    /// Extrapolate motion: rebuild the lost frame by re-applying each
    /// macroblock's most recent motion vector to the reference — the
    /// classic temporal-concealment upgrade the paper's §3.1.3 anticipates
    /// ("we can easily adopt various error concealment schemes ... by
    /// modifying the similarity factor"). Falls back to copy behaviour
    /// when no motion history exists (e.g. after an I-frame).
    MotionCopy,
}

/// Parsed picture-header fields (internal).
#[derive(Debug, Clone, Copy)]
struct PictureHeader {
    temporal_ref: u8,
    kind: FrameKind,
    qp: Qp,
    half_pel: bool,
    deblock: bool,
}

/// Aggregated outcome of resilient decoding — what the error-tolerant
/// entry point ([`Decoder::decode_frame_resilient`]) returns instead of
/// an error, and what [`Decoder::receive`] returns for every frame (empty
/// for a frame that never arrived).
///
/// Reports from successive calls add together with
/// [`absorb`](DecodeReport::absorb), so a session-level tally is one
/// running struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeReport {
    /// Pictures emitted in total (clean + recovered).
    pub frames_decoded: u64,
    /// Pictures emitted through the damage-recovery path — part or all
    /// of the picture was concealed rather than decoded.
    pub frames_recovered: u64,
    /// Macroblocks filled in by concealment inside a decoded picture.
    /// A frame that never arrived is concealed whole without a report,
    /// so it counts here nowhere, while the `dec.mbs_concealed` counter
    /// counts its whole grid (see [`Decoder::receive`]).
    pub mbs_concealed: u64,
    /// Forward scans to a new picture start code after damage.
    pub resyncs: u64,
    /// Bytes discarded while hunting for a start code.
    pub bytes_skipped: u64,
}

impl DecodeReport {
    /// Adds another report's counts into this one.
    pub fn absorb(&mut self, other: &DecodeReport) {
        self.frames_decoded += other.frames_decoded;
        self.frames_recovered += other.frames_recovered;
        self.mbs_concealed += other.mbs_concealed;
        self.resyncs += other.resyncs;
        self.bytes_skipped += other.bytes_skipped;
    }

    /// Whether any recovery action was taken.
    pub fn any_damage(&self) -> bool {
        self.frames_recovered > 0 || self.resyncs > 0 || self.bytes_skipped > 0
    }
}

/// Side information about one decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedInfo {
    /// Temporal reference from the header (frame index mod 256).
    pub temporal_ref: u8,
    /// Frame coding type.
    pub kind: FrameKind,
    /// Quantizer from the header.
    pub qp: Qp,
    /// Decoded mode of every macroblock in raster order.
    pub mb_modes: Vec<MbMode>,
}

/// The decoder.
///
/// # Example
///
/// ```rust
/// use pbpair_codec::{Decoder, Encoder, EncoderConfig, NaturalPolicy};
/// use pbpair_media::{metrics, synth::SyntheticSequence, VideoFormat};
///
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut dec = Decoder::new(VideoFormat::QCIF);
/// let mut policy = NaturalPolicy::new();
/// let mut seq = SyntheticSequence::akiyo_class(1);
/// let original = seq.next_frame();
/// let encoded = enc.encode_frame(&original, &mut policy);
/// let (decoded, report) = dec.receive(Some(&encoded.data));
/// assert!(metrics::psnr_y(&original, decoded) > 28.0);
/// assert!(!report.any_damage());
/// let shown = decoded.clone();
/// // The next frame never arrives: copy concealment shows this one again.
/// let (concealed, _) = dec.receive(None);
/// assert_eq!(concealed, &shown);
/// ```
#[derive(Debug)]
pub struct Decoder {
    format: VideoFormat,
    /// The pixel-kernel tier (IDCT, motion compensation, reconstruction
    /// clamps); defaults to the process-wide active tier and is
    /// re-pinnable via [`Decoder::set_kernels`]. Every tier reconstructs
    /// pixel-identically.
    kernels: &'static Kernels,
    grid: MbGrid,
    recon: Frame,
    concealment: Concealment,
    /// Motion vector of each macroblock in the most recent decoded frame
    /// (zero for intra/skip) — the input to motion-copy concealment.
    last_mvs: Vec<SubPelVector>,
    /// The motion field of the picture being decoded, swapped with
    /// `last_mvs` when that picture commits. Kept, so decoding a frame
    /// allocates no field.
    next_mvs: Vec<SubPelVector>,
    /// Pre-resolved telemetry handles; `None` until
    /// [`Decoder::set_telemetry`] attaches an enabled context, and
    /// `None` again after a disabled one, as in a never-wired decoder.
    /// Each decode call runs in one `"decode"` span and flushes the
    /// already-deterministic [`DecodeReport`] quantities.
    tel: Option<DecoderTelemetry>,
    /// Trace handle; disabled until [`Decoder::set_tracer`] attaches an
    /// enabled tracer, and disabled again after a disabled one.
    /// Concealment/resync events are stamped with the frame index the
    /// pipeline owner published via [`Tracer::set_frame`].
    trace: Tracer,
}

/// Telemetry handles the decoder flushes per decode/conceal call.
#[derive(Debug)]
struct DecoderTelemetry {
    /// Stage `"decode"`; one span per decode call, virtual units =
    /// input bytes.
    stage: Stage,
    frames: Counter,
    frames_recovered: Counter,
    mbs_concealed: Counter,
    resyncs: Counter,
    bytes_skipped: Counter,
    /// Whole-frame concealments requested by the caller (frame never
    /// arrived, as opposed to damage found inside a bitstream).
    lost_frames: Counter,
}

impl DecoderTelemetry {
    fn new(tel: &Telemetry) -> Self {
        DecoderTelemetry {
            stage: tel.stage("decode"),
            frames: tel.counter("dec.frames"),
            frames_recovered: tel.counter("dec.frames_recovered"),
            mbs_concealed: tel.counter("dec.mbs_concealed"),
            resyncs: tel.counter("dec.resyncs"),
            bytes_skipped: tel.counter("dec.bytes_skipped"),
            lost_frames: tel.counter("dec.lost_frames"),
        }
    }

    /// Opens the span of one decode call over `input_bytes` bytes.
    fn span(&self, input_bytes: usize) -> Span {
        let mut span = self.stage.span();
        span.add_units(input_bytes as u64);
        span
    }

    fn note_report(&self, report: &DecodeReport) {
        self.frames.inc(report.frames_decoded);
        self.frames_recovered.inc(report.frames_recovered);
        self.mbs_concealed.inc(report.mbs_concealed);
        self.resyncs.inc(report.resyncs);
        self.bytes_skipped.inc(report.bytes_skipped);
    }
}

impl Decoder {
    /// Creates a decoder for `format` with copy-previous concealment.
    pub fn new(format: VideoFormat) -> Self {
        Decoder::with_concealment(format, Concealment::default())
    }

    /// Creates a decoder with an explicit concealment strategy.
    pub fn with_concealment(format: VideoFormat, concealment: Concealment) -> Self {
        let grid = MbGrid::new(format);
        Decoder {
            format,
            kernels: Kernels::active(),
            recon: Frame::new(format),
            concealment,
            last_mvs: vec![SubPelVector::ZERO; grid.len()],
            next_mvs: vec![SubPelVector::ZERO; grid.len()],
            grid,
            tel: None,
            trace: Tracer::disabled(),
        }
    }

    /// Pins the pixel-kernel tier for subsequent decoding — the decoder
    /// side of the forced-dispatch test matrix. Reconstruction is
    /// pixel-identical under every tier.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is not available on this host (see
    /// [`Kernels::forced`]).
    pub fn set_kernels(&mut self, tier: KernelTier) {
        self.kernels = Kernels::forced(tier);
    }

    /// Attaches a telemetry context; subsequent decode and concealment
    /// calls flush their deterministic counts into it (`dec.*` metrics
    /// and the `"decode"` stage). A disabled context detaches.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.is_enabled().then(|| DecoderTelemetry::new(tel));
    }

    /// Attaches a tracer; subsequent concealment and resync actions
    /// emit trace events. A disabled tracer detaches.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.trace = tracer.clone();
    }

    /// Emits a trace event stamped with the published frame index.
    fn trace_emit(&self, make: impl FnOnce(u32) -> TraceEvent) {
        if self.trace.is_enabled() {
            self.trace.emit(make(self.trace.current_frame()));
        }
    }

    /// The picture format this decoder expects.
    pub fn format(&self) -> VideoFormat {
        self.format
    }

    /// The most recent output frame (decoded or concealed).
    pub fn last_frame(&self) -> &Frame {
        &self.recon
    }

    /// Decodes one encoded frame and returns the reconstructed picture
    /// plus header/mode side info.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or corruption; the
    /// decoder's reference frame and motion field are left unchanged in
    /// that case, so the caller can treat a corrupt frame exactly like a
    /// lost one. The `"decode"` stage counts the call and its input bytes
    /// either way; `dec.frames` counts only a decoded frame.
    pub fn decode_frame(&mut self, data: &[u8]) -> Result<(Frame, DecodedInfo), DecodeError> {
        let _span = self.tel.as_ref().map(|t| t.span(data.len()));
        let mut r = BitReader::new(data);
        let header = self.parse_header(&mut r)?;
        let mut mb_modes = Vec::with_capacity(self.grid.len());
        let (recon, damage) = self.decode_mbs(&mut r, &header, Some(&mut mb_modes));
        if let Some((_, e)) = damage {
            return Err(e);
        }
        self.commit(recon, header.deblock.then_some(header.qp));
        if let Some(t) = &self.tel {
            t.frames.inc(1);
        }
        Ok((
            self.recon.clone(),
            DecodedInfo {
                temporal_ref: header.temporal_ref,
                kind: header.kind,
                qp: header.qp,
                mb_modes,
            },
        ))
    }

    /// Parses the picture header, validating the quantizer and the
    /// format against this decoder's configuration.
    fn parse_header(&self, r: &mut BitReader<'_>) -> Result<PictureHeader, DecodeError> {
        if r.get_bits(PICTURE_START_CODE_LEN)? != PICTURE_START_CODE {
            return Err(DecodeError::BadStartCode);
        }
        let temporal_ref = r.get_bits(8)? as u8;
        let kind = if r.get_bit()? {
            FrameKind::Inter
        } else {
            FrameKind::Intra
        };
        let raw_qp = r.get_bits(5)? as u8;
        let qp = Qp::new(raw_qp).ok_or(DecodeError::BadQp(raw_qp))?;
        let half_pel = r.get_bit()?;
        let deblock = r.get_bit()?;
        let stream_format = match r.get_bits(2)? {
            0 => VideoFormat::SQCIF,
            1 => VideoFormat::QCIF,
            2 => VideoFormat::CIF,
            _ => {
                let cols = r.get_bits(8)? as usize;
                let rows = r.get_bits(8)? as usize;
                VideoFormat::custom(cols * 16, rows * 16).ok_or(DecodeError::Bitstream(
                    BitstreamError::ValueOutOfRange {
                        what: "custom format dimensions",
                        value: (cols * rows) as i64,
                    },
                ))?
            }
        };
        if stream_format != self.format {
            return Err(DecodeError::FormatMismatch {
                stream: stream_format,
                decoder: self.format,
            });
        }
        Ok(PictureHeader {
            temporal_ref,
            kind,
            qp,
            half_pel,
            deblock,
        })
    }

    /// The receiver's one call per frame: turns whatever arrived into the
    /// displayed picture, which also becomes the new reference, and
    /// returns that reference. Bytes decode as in
    /// [`decode_frame_resilient`](Decoder::decode_frame_resilient), so
    /// damage is concealed inside the picture; `None` (nothing arrived)
    /// conceals as in [`conceal_lost_frame`](Decoder::conceal_lost_frame)
    /// and returns an empty report. On a complete frame the picture is the
    /// one the strict [`decode_frame`](Decoder::decode_frame) commits.
    /// Neither path copies the picture out, and copy concealment does no
    /// work at all.
    ///
    /// The report counts only concealment inside a decoded picture. A
    /// frame that never arrived adds one grid of macroblocks to the
    /// `dec.mbs_concealed` counter (and one to `dec.lost_frames`) but
    /// nothing to the report, so a sum of reports falls short of that
    /// counter by one grid per frame concealed whole.
    pub fn receive(&mut self, arrived: Option<&[u8]>) -> (&Frame, DecodeReport) {
        let report = match arrived {
            Some(data) => self.decode_resilient(data),
            None => {
                self.conceal_lost();
                DecodeReport::default()
            }
        };
        (&self.recon, report)
    }

    /// Produces the concealed output for a lost frame and keeps it as the
    /// new reference (so subsequent inter frames predict from the
    /// concealment, propagating the error exactly as the paper models).
    pub fn conceal_lost_frame(&mut self) -> Frame {
        self.conceal_lost();
        self.recon.clone()
    }

    /// Counts and traces a frame that never arrived, then conceals it.
    fn conceal_lost(&mut self) {
        if let Some(t) = &self.tel {
            t.lost_frames.inc(1);
            t.mbs_concealed.inc(self.grid.len() as u64);
        }
        let mbs = self.grid.len() as u16;
        self.trace_emit(|frame| TraceEvent::FrameConcealed { frame, mbs });
        self.conceal_reference();
    }

    /// Replaces the reference with its whole-frame concealment, without
    /// telemetry accounting — the resilient decode path calls this so
    /// damage already tallied in a [`DecodeReport`] is not double-counted.
    fn conceal_reference(&mut self) {
        match self.concealment {
            // Copy-previous: the reference *is* the concealment, no work.
            Concealment::CopyPrevious => {}
            Concealment::MotionCopy => {
                let mut concealed = Frame::new(self.format);
                self.conceal_mbs(&mut concealed, self.grid.iter());
                // The concealed frame becomes the reference; the motion
                // history is retained so consecutive losses keep
                // extrapolating the same field.
                self.recon = concealed;
            }
        }
    }

    /// Decodes one frame **totally**: any damage — truncation, flipped
    /// bits, a destroyed header — produces a concealed picture instead of
    /// an error. The output frame always becomes the new reference.
    ///
    /// Recovery ladder:
    ///
    /// 1. Scan for a picture start code (tolerating leading garbage).
    /// 2. Decode macroblocks until the entropy data turns bad; conceal
    ///    the damaged MB range `k..end` via the configured
    ///    [`Concealment`] and keep the partial picture.
    /// 3. If the header itself is unusable, skip past the false start
    ///    code and rescan.
    /// 4. If nothing decodable remains, conceal the whole frame.
    ///
    /// # Example
    ///
    /// ```rust
    /// use pbpair_codec::Decoder;
    /// use pbpair_media::VideoFormat;
    ///
    /// let mut dec = Decoder::new(VideoFormat::QCIF);
    /// // Pure garbage: no panic, no error — a concealed frame plus a
    /// // report saying the whole picture was concealed.
    /// let (frame, report) = dec.decode_frame_resilient(&[0xAB; 64]);
    /// assert_eq!(frame.format(), VideoFormat::QCIF);
    /// assert_eq!(report.frames_recovered, 1);
    /// ```
    pub fn decode_frame_resilient(&mut self, data: &[u8]) -> (Frame, DecodeReport) {
        let report = self.decode_resilient(data);
        (self.recon.clone(), report)
    }

    /// [`decode_frame_resilient`](Decoder::decode_frame_resilient) without
    /// the output copy: commits the picture and returns the report.
    fn decode_resilient(&mut self, data: &[u8]) -> DecodeReport {
        let _span = self.tel.as_ref().map(|t| t.span(data.len()));
        let mut report = DecodeReport {
            frames_decoded: 1,
            ..DecodeReport::default()
        };
        let mut offset = 0usize;
        loop {
            let Some(delta) = find_start_code(&data[offset..]) else {
                // Nothing decodable left: conceal the whole picture.
                report.bytes_skipped += (data.len() - offset) as u64;
                report.frames_recovered += 1;
                report.mbs_concealed += self.grid.len() as u64;
                let mbs = self.grid.len() as u16;
                self.trace_emit(|frame| TraceEvent::FrameConcealed { frame, mbs });
                self.conceal_reference();
                break;
            };
            report.bytes_skipped += delta as u64;
            if offset + delta > 0 {
                report.resyncs += 1;
                let skipped = delta as u32;
                self.trace_emit(|frame| TraceEvent::Resync {
                    frame,
                    bytes_skipped: skipped,
                });
            }
            offset += delta;
            let mut r = BitReader::new(&data[offset..]);
            let Ok(header) = self.parse_header(&mut r) else {
                // False or damaged start code: step past it, rescan.
                report.bytes_skipped += 1;
                offset += 1;
                continue;
            };
            let (mut recon, damage) = self.decode_mbs(&mut r, &header, None);
            let Some((k, _)) = damage else {
                self.commit(recon, header.deblock.then_some(header.qp));
                break;
            };
            let count = self.grid.len() - k;
            report.frames_recovered += 1;
            report.mbs_concealed += count as u64;
            self.trace_emit(|frame| TraceEvent::MbConcealed {
                frame,
                mb_start: k as u16,
                count: count as u16,
            });
            self.conceal_mbs(&mut recon, self.grid.iter().skip(k));
            // No deblocking: filtering across the decoded/concealed seam
            // would smear the damage outward.
            self.commit(recon, None);
            break;
        }
        if let Some(t) = &self.tel {
            t.note_report(&report);
        }
        report
    }

    /// The picture loop both entry points share: parses every macroblock
    /// after the header and reconstructs it into a new picture predicted
    /// from the current reference, stopping at the first macroblock whose
    /// data is bad. Returns the picture with that macroblock's index and
    /// error (`None` when every macroblock decoded). Each decoded
    /// macroblock's motion goes into `next_mvs`, which starts as the
    /// committed field, so macroblocks concealed after damage keep their
    /// previous motion for a later motion-copy concealment; its mode goes
    /// into `modes` when given. Commits nothing.
    fn decode_mbs(
        &mut self,
        r: &mut BitReader<'_>,
        header: &PictureHeader,
        mut modes: Option<&mut Vec<MbMode>>,
    ) -> (Frame, Option<(usize, DecodeError)>) {
        let mut recon = Frame::new(self.format);
        self.next_mvs.copy_from_slice(&self.last_mvs);
        for (k, mb) in self.grid.iter().enumerate() {
            match decode_mb(self.kernels, r, header, &self.recon, &mut recon, mb) {
                Ok((mode, mv)) => {
                    self.next_mvs[k] = mv;
                    if let Some(modes) = modes.as_deref_mut() {
                        modes.push(mode);
                    }
                }
                Err(e) => return (recon, Some((k, e))),
            }
        }
        (recon, None)
    }

    /// Makes `recon` the new reference, deblocking it first when `deblock`
    /// carries the picture's quantizer, and `next_mvs` the new motion
    /// field.
    fn commit(&mut self, mut recon: Frame, deblock: Option<Qp>) {
        if let Some(qp) = deblock {
            crate::deblock::deblock_frame(&mut recon, qp);
        }
        self.recon = recon;
        std::mem::swap(&mut self.last_mvs, &mut self.next_mvs);
    }

    /// Fills the given macroblocks of `dst` from the current reference
    /// using the configured concealment strategy.
    fn conceal_mbs(&self, dst: &mut Frame, mbs: impl IntoIterator<Item = MbIndex>) {
        for mb in mbs {
            let mv = match self.concealment {
                Concealment::CopyPrevious => SubPelVector::ZERO,
                Concealment::MotionCopy => self.last_mvs[self.grid.flat_index(mb)],
            };
            MbPrediction::new(self.kernels, &self.recon, mb, mv).store(dst, mb);
        }
    }
}

/// Parses macroblock `mb` of a picture with header `h` — only the COD and
/// mode bits, vector differences, CBP and coefficient blocks — and
/// rebuilds it into `dst` from `reference` through the encoder's own
/// reconstruction. Returns its mode and motion vector (zero unless inter).
fn decode_mb(
    k: &Kernels,
    r: &mut BitReader<'_>,
    h: &PictureHeader,
    reference: &Frame,
    dst: &mut Frame,
    mb: MbIndex,
) -> Result<(MbMode, SubPelVector), DecodeError> {
    if h.kind == FrameKind::Inter {
        if r.get_bit()? {
            // COD = 1: skipped — copy colocated from the reference.
            copy_mb(reference, dst, mb);
            return Ok((MbMode::Skip, SubPelVector::ZERO));
        }
        if !r.get_bit()? {
            let mvx = vlc::read_mvd(r)?;
            let mvy = vlc::read_mvd(r)?;
            let mv = if h.half_pel {
                SubPelVector::from_half_units(mvx, mvy)
            } else {
                SubPelVector::integer(MotionVector::new(mvx, mvy))
            };
            let cbp = vlc::read_cbp(r)?;
            let mut levels: MbLevels = [[0i32; 64]; 6];
            for (i, zig) in levels.iter_mut().enumerate() {
                if cbp & (1 << (5 - i)) != 0 {
                    *zig = read_coeff_block(r, 0)?;
                }
            }
            MbPrediction::new(k, reference, mb, mv)
                .store_plus_residual(k, h.qp, &levels, cbp, dst, mb);
            return Ok((MbMode::Inter, mv));
        }
        // Otherwise an intra macroblock inside a P-frame.
    }
    let cbp = vlc::read_cbp(r)?;
    let mut levels: MbLevels = [[0i32; 64]; 6];
    for (i, zig) in levels.iter_mut().enumerate() {
        let dc = r.get_bits(8)? as i32;
        if cbp & (1 << (5 - i)) != 0 {
            *zig = read_coeff_block(r, 1)?;
        }
        zig[0] = dc;
    }
    recon_intra_mb(k, h.qp, &levels, dst, mb);
    Ok((MbMode::Intra, SubPelVector::ZERO))
}

/// Finds the byte offset of the next picture start code in `data`.
///
/// The 17-bit start code (value 1) is byte-aligned by the encoder, so it
/// reads as two zero bytes followed by a byte with the top bit set.
/// Payload bits can emulate this pattern; resilient decoding treats such
/// emulations as candidates and rejects them via header validation.
fn find_start_code(data: &[u8]) -> Option<usize> {
    data.windows(3)
        .position(|w| w[0] == 0 && w[1] == 0 && w[2] & 0x80 != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::policy::NaturalPolicy;
    use pbpair_media::metrics;
    use pbpair_media::synth::SyntheticSequence;

    #[test]
    fn decoder_matches_encoder_reconstruction_bit_exactly() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(9);
        for _ in 0..6 {
            let f = seq.next_frame();
            let e = enc.encode_frame(&f, &mut policy);
            let (decoded, info) = dec.decode_frame(&e.data).unwrap();
            assert_eq!(&decoded, enc.reconstructed(), "drift at frame {}", e.index);
            assert_eq!(info.kind, e.kind);
            assert_eq!(info.mb_modes, e.mb_modes);
            assert_eq!(info.temporal_ref as u64, e.index & 0xFF);
        }
    }

    #[test]
    fn decoded_quality_is_reasonable() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::garden_class(10);
        let mut last_psnr = 0.0;
        for _ in 0..4 {
            let f = seq.next_frame();
            let e = enc.encode_frame(&f, &mut policy);
            let (decoded, _) = dec.decode_frame(&e.data).unwrap();
            last_psnr = metrics::psnr_y(&f, &decoded);
        }
        assert!(last_psnr > 26.0, "end-to-end PSNR too low: {last_psnr}");
    }

    #[test]
    fn concealment_repeats_previous_frame() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::akiyo_class(2);
        let f0 = seq.next_frame();
        let e0 = enc.encode_frame(&f0, &mut policy);
        let (d0, _) = dec.decode_frame(&e0.data).unwrap();
        let concealed = dec.conceal_lost_frame();
        assert_eq!(concealed, d0);
        assert_eq!(dec.last_frame(), &d0);
    }

    #[test]
    fn error_propagates_through_p_frames_after_a_loss() {
        // Encode 3 frames; decoder drops frame 1. Frame 2's prediction
        // then mismatches, and quality must be worse than the loss-free
        // path at frame 2.
        let make = || {
            let mut enc = Encoder::new(EncoderConfig::default());
            let mut policy = NaturalPolicy::new();
            let mut seq = SyntheticSequence::foreman_class(33);
            let fs: Vec<_> = (0..3).map(|_| seq.next_frame()).collect();
            let es: Vec<_> = fs
                .iter()
                .map(|f| enc.encode_frame(f, &mut policy))
                .collect();
            (fs, es)
        };
        let (fs, es) = make();

        let mut clean = Decoder::new(VideoFormat::QCIF);
        for e in &es {
            let _ = clean.decode_frame(&e.data).unwrap();
        }
        let clean_last = clean.last_frame().clone();

        let mut lossy = Decoder::new(VideoFormat::QCIF);
        let _ = lossy.decode_frame(&es[0].data).unwrap();
        let _ = lossy.conceal_lost_frame(); // frame 1 lost
        let (lossy_last, _) = lossy.decode_frame(&es[2].data).unwrap();

        let p_clean = metrics::psnr_y(&fs[2], &clean_last);
        let p_lossy = metrics::psnr_y(&fs[2], &lossy_last);
        assert!(
            p_lossy < p_clean,
            "loss must hurt quality: clean {p_clean} vs lossy {p_lossy}"
        );
    }

    #[test]
    fn motion_copy_beats_plain_copy_on_panning_content() {
        // GARDEN-class content pans steadily; extrapolating the motion
        // field must conceal a lost frame better than freezing.
        let run = |concealment: Concealment| {
            let mut enc = Encoder::new(EncoderConfig::default());
            let mut dec = Decoder::with_concealment(VideoFormat::QCIF, concealment);
            let mut policy = NaturalPolicy::new();
            let mut seq = SyntheticSequence::garden_class(12);
            let mut last_psnr = 0.0;
            for i in 0..6 {
                let f = seq.next_frame();
                let e = enc.encode_frame(&f, &mut policy);
                let shown = if i == 4 {
                    dec.conceal_lost_frame()
                } else {
                    dec.decode_frame(&e.data).unwrap().0
                };
                if i == 4 {
                    last_psnr = metrics::psnr_y(&f, &shown);
                }
            }
            last_psnr
        };
        let copy = run(Concealment::CopyPrevious);
        let motion = run(Concealment::MotionCopy);
        assert!(
            motion > copy + 0.5,
            "motion-copy {motion} must beat copy {copy} on a pan"
        );
    }

    #[test]
    fn motion_copy_without_history_degenerates_to_copy() {
        // After only an I-frame, the motion field is all-zero, so both
        // concealments produce the same frame.
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::akiyo_class(3);
        let f0 = seq.next_frame();
        let e0 = enc.encode_frame(&f0, &mut policy);
        let mut a = Decoder::with_concealment(VideoFormat::QCIF, Concealment::CopyPrevious);
        let mut b = Decoder::with_concealment(VideoFormat::QCIF, Concealment::MotionCopy);
        let _ = a.decode_frame(&e0.data).unwrap();
        let _ = b.decode_frame(&e0.data).unwrap();
        assert_eq!(a.conceal_lost_frame(), b.conceal_lost_frame());
    }

    #[test]
    fn truncated_data_is_rejected_and_reference_preserved() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(5);
        let e0 = enc.encode_frame(&seq.next_frame(), &mut policy);
        let (d0, _) = dec.decode_frame(&e0.data).unwrap();
        let e1 = enc.encode_frame(&seq.next_frame(), &mut policy);
        let err = dec.decode_frame(&e1.data[..e1.data.len() / 2]);
        assert!(err.is_err());
        assert_eq!(dec.last_frame(), &d0, "reference must survive a bad frame");
    }

    #[test]
    fn a_failed_strict_decode_keeps_the_motion_field() {
        // Motion-copy concealment reads the committed motion field, so a
        // decoder that rejected a frame must conceal the next loss exactly
        // like one that never saw that frame.
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(9);
        let streams: Vec<_> = (0..4)
            .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy).data)
            .collect();
        let mut tried = Decoder::with_concealment(VideoFormat::QCIF, Concealment::MotionCopy);
        let mut clean = Decoder::with_concealment(VideoFormat::QCIF, Concealment::MotionCopy);
        for data in &streams[..3] {
            tried.decode_frame(data).unwrap();
            clean.decode_frame(data).unwrap();
        }
        let cut = &streams[3][..streams[3].len() * 3 / 4];
        assert!(tried.decode_frame(cut).is_err());
        assert_eq!(tried.last_frame(), clean.last_frame());
        assert_eq!(tried.conceal_lost_frame(), clean.conceal_lost_frame());
    }

    #[test]
    fn deblocked_streams_decode_bit_exactly_and_reduce_blockiness() {
        let cfg = EncoderConfig {
            deblock: true,
            qp: crate::quant::Qp::new(16).unwrap(), // coarse: visible blocking
            ..EncoderConfig::default()
        };
        let mut enc = Encoder::new(cfg);
        let mut enc_plain = Encoder::new(EncoderConfig {
            deblock: false,
            ..cfg
        });
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut policy2 = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(6);
        for _ in 0..4 {
            let f = seq.next_frame();
            let e = enc.encode_frame(&f, &mut policy);
            let _ = enc_plain.encode_frame(&f, &mut policy2);
            let (decoded, _) = dec.decode_frame(&e.data).unwrap();
            assert_eq!(&decoded, enc.reconstructed(), "deblock recon drift");
        }
        let filtered = crate::deblock::blockiness(enc.reconstructed().y());
        let plain = crate::deblock::blockiness(enc_plain.reconstructed().y());
        assert!(
            filtered < plain,
            "deblocking must reduce boundary steps: {filtered} vs {plain}"
        );
    }

    #[test]
    fn half_pel_streams_decode_bit_exactly() {
        let cfg = EncoderConfig {
            half_pel: true,
            ..EncoderConfig::default()
        };
        let mut enc = Encoder::new(cfg);
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::garden_class(14);
        for _ in 0..5 {
            let f = seq.next_frame();
            let e = enc.encode_frame(&f, &mut policy);
            let (decoded, _) = dec.decode_frame(&e.data).unwrap();
            assert_eq!(&decoded, enc.reconstructed(), "half-pel recon drift");
        }
    }

    #[test]
    fn half_pel_improves_quality_on_sub_pel_motion() {
        // GARDEN pans at 2.5 px/frame — an exact half-pel component.
        // Half-pel prediction must improve loss-free PSNR at equal QP.
        let run = |half_pel: bool| {
            let cfg = EncoderConfig {
                half_pel,
                ..EncoderConfig::default()
            };
            let mut enc = Encoder::new(cfg);
            let mut policy = NaturalPolicy::new();
            let mut seq = SyntheticSequence::garden_class(5);
            let mut psnr = 0.0;
            let mut bits = 0u64;
            for i in 0..8 {
                let f = seq.next_frame();
                let e = enc.encode_frame(&f, &mut policy);
                bits += e.stats.bits;
                if i >= 4 {
                    psnr += metrics::psnr_y(&f, enc.reconstructed());
                }
            }
            (psnr / 4.0, bits)
        };
        let (p_int, bits_int) = run(false);
        let (p_half, bits_half) = run(true);
        // Half-pel buys quality, bits, or both; require a clear win on
        // the combined rate-distortion picture.
        let better_quality = p_half > p_int + 0.3;
        let fewer_bits = bits_half * 10 < bits_int * 95 / 10; // <95%
        assert!(
            better_quality || fewer_bits,
            "half-pel must help: psnr {p_int}→{p_half}, bits {bits_int}→{bits_half}"
        );
    }

    #[test]
    fn garbage_start_code_is_rejected() {
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let garbage = vec![0xFFu8; 100];
        assert_eq!(
            dec.decode_frame(&garbage).unwrap_err(),
            DecodeError::BadStartCode
        );
    }

    #[test]
    fn format_mismatch_is_rejected_not_misparsed() {
        // A CIF stream offered to a QCIF decoder must fail cleanly.
        let cif_cfg = EncoderConfig {
            format: VideoFormat::CIF,
            ..EncoderConfig::default()
        };
        let mut enc = Encoder::new(cif_cfg);
        let mut policy = NaturalPolicy::new();
        let frame = pbpair_media::Frame::flat(VideoFormat::CIF, 100);
        let e = enc.encode_frame(&frame, &mut policy);
        let mut dec = Decoder::new(VideoFormat::QCIF);
        match dec.decode_frame(&e.data) {
            Err(DecodeError::FormatMismatch { stream, decoder }) => {
                assert_eq!(stream, VideoFormat::CIF);
                assert_eq!(decoder, VideoFormat::QCIF);
            }
            other => panic!("expected FormatMismatch, got {other:?}"),
        }
    }

    #[test]
    fn custom_format_travels_in_the_header() {
        let fmt = VideoFormat::custom(64, 48).unwrap();
        let cfg = EncoderConfig {
            format: fmt,
            ..EncoderConfig::default()
        };
        let mut enc = Encoder::new(cfg);
        let mut dec = Decoder::new(fmt);
        let mut policy = NaturalPolicy::new();
        let frame = pbpair_media::Frame::flat(fmt, 80);
        let e = enc.encode_frame(&frame, &mut policy);
        let (decoded, _) = dec.decode_frame(&e.data).unwrap();
        assert_eq!(&decoded, enc.reconstructed());
    }

    #[test]
    fn resilient_decode_of_clean_stream_is_bit_exact() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut strict = Decoder::new(VideoFormat::QCIF);
        let mut resilient = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(21);
        for _ in 0..5 {
            let e = enc.encode_frame(&seq.next_frame(), &mut policy);
            let (a, _) = strict.decode_frame(&e.data).unwrap();
            let (b, report) = resilient.decode_frame_resilient(&e.data);
            assert_eq!(a, b, "resilient path must match strict on clean data");
            assert_eq!(report.frames_decoded, 1);
            assert!(!report.any_damage(), "clean data must report no damage");
        }
    }

    #[test]
    fn resilient_decode_conceals_truncated_tail() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(5);
        let e0 = enc.encode_frame(&seq.next_frame(), &mut policy);
        let (_, r0) = dec.decode_frame_resilient(&e0.data);
        assert_eq!(r0.frames_recovered, 0);
        let e1 = enc.encode_frame(&seq.next_frame(), &mut policy);
        let (frame, r1) = dec.decode_frame_resilient(&e1.data[..e1.data.len() / 2]);
        assert_eq!(r1.frames_decoded, 1);
        assert_eq!(r1.frames_recovered, 1);
        assert!(r1.mbs_concealed > 0, "a cut stream must conceal its tail");
        assert!(
            (r1.mbs_concealed as usize) < MbGrid::new(VideoFormat::QCIF).len(),
            "half the stream should still decode some leading MBs"
        );
        // The partially-recovered picture is committed as the reference.
        assert_eq!(dec.last_frame(), &frame);
    }

    #[test]
    fn resilient_decode_of_garbage_conceals_whole_frame() {
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let (frame, report) = dec.decode_frame_resilient(&[0xABu8; 200]);
        assert_eq!(frame.format(), VideoFormat::QCIF);
        assert_eq!(report.frames_decoded, 1);
        assert_eq!(report.frames_recovered, 1);
        assert_eq!(
            report.mbs_concealed as usize,
            MbGrid::new(VideoFormat::QCIF).len()
        );
        assert_eq!(report.bytes_skipped, 200);
    }

    #[test]
    fn resilient_decode_resyncs_past_leading_garbage() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::akiyo_class(8);
        let e = enc.encode_frame(&seq.next_frame(), &mut policy);
        // Garbage prefix free of start-code patterns (no 00 00 bytes).
        let mut data = vec![0x55u8; 37];
        data.extend_from_slice(&e.data);
        let (frame, report) = dec.decode_frame_resilient(&data);
        assert_eq!(report.frames_decoded, 1);
        assert_eq!(report.frames_recovered, 0, "picture itself is clean");
        assert_eq!(report.bytes_skipped, 37);
        assert_eq!(report.resyncs, 1);
        let mut strict = Decoder::new(VideoFormat::QCIF);
        assert_eq!(frame, strict.decode_frame(&e.data).unwrap().0);
    }

    /// Builds a byte-aligned Inter QCIF picture header with a valid
    /// quantizer and no payload.
    fn phantom_header() -> Vec<u8> {
        use crate::bitstream::BitWriter;
        let mut w = BitWriter::new();
        w.put_bits(PICTURE_START_CODE, PICTURE_START_CODE_LEN);
        w.put_bits(5, 8); // temporal_ref
        w.put_bit(true); // Inter
        w.put_bits(8, 5); // valid QP
        w.put_bit(false); // half_pel
        w.put_bit(false); // deblock
        w.put_bits(1, 2); // format = QCIF
        w.finish()
    }

    #[test]
    fn decode_frame_resilient_still_conceals_header_only_picture() {
        // A header with no payload is a truncated picture: every
        // macroblock is concealed.
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let (frame, report) = dec.decode_frame_resilient(&phantom_header());
        assert_eq!(frame.format(), VideoFormat::QCIF);
        assert_eq!(report.frames_decoded, 1);
        assert_eq!(report.frames_recovered, 1);
        assert_eq!(
            report.mbs_concealed as usize,
            MbGrid::new(VideoFormat::QCIF).len()
        );
    }

    #[test]
    fn decode_report_absorbs() {
        let mut total = DecodeReport::default();
        total.absorb(&DecodeReport {
            frames_decoded: 2,
            frames_recovered: 1,
            mbs_concealed: 9,
            resyncs: 1,
            bytes_skipped: 100,
        });
        total.absorb(&DecodeReport {
            frames_decoded: 1,
            ..DecodeReport::default()
        });
        assert_eq!(total.frames_decoded, 3);
        assert_eq!(total.frames_recovered, 1);
        assert_eq!(total.mbs_concealed, 9);
        assert!(total.any_damage());
        assert!(!DecodeReport::default().any_damage());
    }

    #[test]
    fn find_start_code_locates_aligned_codes() {
        assert_eq!(find_start_code(&[0x00, 0x00, 0x80]), Some(0));
        assert_eq!(find_start_code(&[0x55, 0x00, 0x00, 0xFF]), Some(1));
        assert_eq!(find_start_code(&[0x00, 0x00, 0x7F]), None);
        assert_eq!(find_start_code(&[0x00, 0x00]), None);
        assert_eq!(find_start_code(&[]), None);
    }

    #[test]
    fn a_disabled_context_and_tracer_leave_the_decoder_unwired() {
        let mut dec = Decoder::new(VideoFormat::QCIF);
        dec.set_telemetry(&Telemetry::new());
        dec.set_tracer(&Tracer::new());
        assert!(dec.tel.is_some() && dec.trace.is_enabled());
        dec.set_telemetry(&Telemetry::disabled());
        dec.set_tracer(&Tracer::disabled());
        assert!(dec.tel.is_none(), "a disabled context stayed attached");
        assert!(!dec.trace.is_enabled(), "a disabled tracer stayed attached");
    }

    #[test]
    fn bad_qp_is_rejected() {
        // Hand-build a header with QP = 0.
        use crate::bitstream::BitWriter;
        let mut w = BitWriter::new();
        w.put_bits(PICTURE_START_CODE, PICTURE_START_CODE_LEN);
        w.put_bits(0, 8);
        w.put_bit(false);
        w.put_bits(0, 5);
        let mut dec = Decoder::new(VideoFormat::QCIF);
        assert_eq!(
            dec.decode_frame(&w.finish()).unwrap_err(),
            DecodeError::BadQp(0)
        );
    }
}
