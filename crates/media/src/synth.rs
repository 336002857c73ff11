//! Seeded procedural QCIF sequences.
//!
//! The paper evaluates on three standard clips that we cannot redistribute:
//! AKIYO (near-static news anchor), FOREMAN (talking head with camera
//! jitter and a late pan) and GARDEN (a continuous high-detail pan). For the
//! reproduction the clips only matter as *low / medium / high motion*
//! workloads, so this module generates deterministic sequences with matched
//! motion statistics:
//!
//! * a procedural multi-octave value-noise "world" texture sampled through a
//!   moving camera (pan + jitter) — translation the motion estimator can
//!   actually find,
//! * an elliptical foreground "head" with an animated mouth region for the
//!   conversational clips — localized change that defeats pure copying,
//! * per-class parameters controlling pan speed, jitter, head motion, and
//!   texture detail.
//!
//! Everything is a pure function of `(seed, frame_index)`, so experiments
//! are exactly repeatable and two generators with the same seed produce
//! identical frames.

use crate::format::VideoFormat;
use crate::frame::Frame;
use crate::plane::Plane;

/// A source of video frames: either a synthetic generator or a file reader.
///
/// The trait is object-safe so pipelines can hold `Box<dyn FrameSource>`.
/// A source plays once; to replay it, build a fresh one from the same
/// seed or file.
pub trait FrameSource {
    /// The picture format every produced frame will have.
    fn format(&self) -> VideoFormat;
    /// Produces the next frame. Synthetic sources never run out; file
    /// sources return `None` at end of stream.
    fn try_next_frame(&mut self) -> Option<Frame>;
}

/// Motion/content class of a synthetic sequence, ordered by activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotionClass {
    /// AKIYO-like: static camera, static background, small slow head and
    /// mouth motion. Lowest SAD activity.
    LowAkiyo,
    /// FOREMAN-like: hand-held camera jitter, moderate head motion, slow pan
    /// in the tail of the clip. Medium SAD activity.
    MediumForeman,
    /// GARDEN-like: continuous fast pan over a high-detail texture, no
    /// foreground. Highest SAD activity.
    HighGarden,
}

impl MotionClass {
    /// Short lowercase name used in reports ("akiyo", "foreman", "garden"),
    /// matching the labels in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            MotionClass::LowAkiyo => "akiyo",
            MotionClass::MediumForeman => "foreman",
            MotionClass::HighGarden => "garden",
        }
    }

    /// All classes in the order the paper's Figure 5 lists them.
    pub fn all() -> [MotionClass; 3] {
        [
            MotionClass::MediumForeman,
            MotionClass::LowAkiyo,
            MotionClass::HighGarden,
        ]
    }
}

/// Tunable parameters of the synthetic world. Exposed so tests and ablation
/// benches can construct pathological content (e.g. zero motion, or pure
/// noise) without new generator code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthParams {
    /// Horizontal camera pan in 1/16 pixel per frame (positive = rightward).
    pub pan_per_frame_q4: i32,
    /// Frame index at which panning starts (FOREMAN pans only near the end).
    pub pan_start_frame: u32,
    /// Peak hand-held jitter amplitude in pixels (0 = tripod).
    pub jitter_amp: f64,
    /// Whether a foreground head/shoulders figure is composited.
    pub foreground: bool,
    /// Peak head sway amplitude in pixels.
    pub head_sway: f64,
    /// Head sway angular speed in radians per frame.
    pub head_speed: f64,
    /// Relative texture detail (octave weighting), 0.0 smooth .. 1.0 busy.
    pub detail: f64,
    /// Amplitude of per-frame sensor noise in luma codes (0 disables).
    pub sensor_noise: u8,
}

impl SynthParams {
    /// Parameters of the AKIYO-like class.
    pub fn akiyo() -> Self {
        SynthParams {
            pan_per_frame_q4: 0,
            pan_start_frame: 0,
            jitter_amp: 0.0,
            foreground: true,
            head_sway: 1.2,
            head_speed: 0.05,
            detail: 0.25,
            sensor_noise: 1,
        }
    }

    /// Parameters of the FOREMAN-like class.
    pub fn foreman() -> Self {
        SynthParams {
            pan_per_frame_q4: 24, // 1.5 px/frame once the pan starts
            pan_start_frame: 200,
            jitter_amp: 1.6,
            foreground: true,
            head_sway: 4.0,
            head_speed: 0.13,
            detail: 0.5,
            sensor_noise: 2,
        }
    }

    /// Parameters of the GARDEN-like class.
    pub fn garden() -> Self {
        SynthParams {
            pan_per_frame_q4: 40, // 2.5 px/frame throughout
            pan_start_frame: 0,
            jitter_amp: 0.4,
            foreground: false,
            head_sway: 0.0,
            head_speed: 0.0,
            detail: 1.0,
            sensor_noise: 2,
        }
    }

    /// Parameters for the given class.
    pub fn for_class(class: MotionClass) -> Self {
        match class {
            MotionClass::LowAkiyo => SynthParams::akiyo(),
            MotionClass::MediumForeman => SynthParams::foreman(),
            MotionClass::HighGarden => SynthParams::garden(),
        }
    }
}

/// Deterministic procedural QCIF sequence.
///
/// # Example
///
/// ```rust
/// use pbpair_media::synth::{SyntheticSequence, FrameSource};
///
/// let mut a = SyntheticSequence::garden_class(42);
/// let mut b = SyntheticSequence::garden_class(42);
/// assert_eq!(a.next_frame(), b.next_frame()); // same seed → same frames
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticSequence {
    format: VideoFormat,
    params: SynthParams,
    seed: u64,
    frame_index: u32,
}

impl SyntheticSequence {
    /// Creates a generator with explicit parameters.
    pub fn new(format: VideoFormat, params: SynthParams, seed: u64) -> Self {
        SyntheticSequence {
            format,
            params,
            seed,
            frame_index: 0,
        }
    }

    /// QCIF generator of the given motion class.
    pub fn for_class(class: MotionClass, seed: u64) -> Self {
        SyntheticSequence::new(VideoFormat::QCIF, SynthParams::for_class(class), seed)
    }

    /// QCIF AKIYO-like generator (low motion).
    pub fn akiyo_class(seed: u64) -> Self {
        SyntheticSequence::for_class(MotionClass::LowAkiyo, seed)
    }

    /// QCIF FOREMAN-like generator (medium motion).
    pub fn foreman_class(seed: u64) -> Self {
        SyntheticSequence::for_class(MotionClass::MediumForeman, seed)
    }

    /// QCIF GARDEN-like generator (high motion).
    pub fn garden_class(seed: u64) -> Self {
        SyntheticSequence::for_class(MotionClass::HighGarden, seed)
    }

    /// The parameters in effect.
    pub fn params(&self) -> &SynthParams {
        &self.params
    }

    /// Index of the frame that [`SyntheticSequence::next_frame`] will
    /// produce next.
    pub fn frame_index(&self) -> u32 {
        self.frame_index
    }

    /// Produces the next frame (synthetic sources are infinite).
    pub fn next_frame(&mut self) -> Frame {
        let f = self.render(self.frame_index);
        self.frame_index += 1;
        f
    }

    /// Renders frame `t` without advancing the cursor — handy for tests.
    pub fn render(&self, t: u32) -> Frame {
        let p = &self.params;
        // Camera position: accumulated pan + sinusoid-mixed jitter. The
        // jitter uses two incommensurate frequencies so it never repeats on
        // short clips but stays deterministic.
        let pan_frames = t.saturating_sub(p.pan_start_frame) as i64;
        let pan_x_q4 = pan_frames * p.pan_per_frame_q4 as i64;
        let tt = t as f64;
        let jx = p.jitter_amp * ((tt * 0.9).sin() + 0.5 * (tt * 2.3 + 1.0).sin());
        let jy = p.jitter_amp * 0.7 * ((tt * 1.1 + 0.3).cos() + 0.5 * (tt * 2.9).sin());
        let cam_x = pan_x_q4 as f64 / 16.0 + jx;
        let cam_y = jy;

        let w = self.format.width();
        let h = self.format.height();
        let seed = self.seed;
        let detail = p.detail;

        let mut y_plane = Plane::from_fn(w, h, |x, y| {
            let wx = x as f64 + cam_x;
            let wy = y as f64 + cam_y;
            world_luma(seed, wx, wy, detail)
        });

        // Chroma from a low-frequency field of the same world, half resolution.
        let cb = Plane::from_fn(w / 2, h / 2, |x, y| {
            let wx = (2 * x) as f64 + cam_x;
            let wy = (2 * y) as f64 + cam_y;
            world_chroma(seed ^ 0x9e37_79b9, wx, wy)
        });
        let cr = Plane::from_fn(w / 2, h / 2, |x, y| {
            let wx = (2 * x) as f64 + cam_x;
            let wy = (2 * y) as f64 + cam_y;
            world_chroma(seed ^ 0x85eb_ca6b, wx, wy)
        });

        if p.foreground {
            composite_head(&mut y_plane, seed, t, p);
        }

        if p.sensor_noise > 0 {
            apply_sensor_noise(&mut y_plane, seed, t, p.sensor_noise);
        }

        Frame::from_planes(self.format, y_plane, cb, cr)
            .expect("generator planes match format by construction")
    }
}

impl FrameSource for SyntheticSequence {
    fn format(&self) -> VideoFormat {
        self.format
    }

    fn try_next_frame(&mut self) -> Option<Frame> {
        Some(self.next_frame())
    }
}

// ---------------------------------------------------------------------------
// Procedural world
// ---------------------------------------------------------------------------

/// 64-bit integer hash (splitmix64 finalizer); the lattice noise basis.
#[inline]
fn hash2(seed: u64, x: i64, y: i64) -> u64 {
    let mut z = seed
        .wrapping_add((x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((y as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Lattice value in [0, 1).
#[inline]
fn lattice(seed: u64, x: i64, y: i64) -> f64 {
    (hash2(seed, x, y) >> 11) as f64 / (1u64 << 53) as f64
}

/// Smoothstep-interpolated value noise in [0, 1).
fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = x - x0;
    let fy = y - y0;
    let sx = fx * fx * (3.0 - 2.0 * fx);
    let sy = fy * fy * (3.0 - 2.0 * fy);
    let (ix, iy) = (x0 as i64, y0 as i64);
    let v00 = lattice(seed, ix, iy);
    let v10 = lattice(seed, ix + 1, iy);
    let v01 = lattice(seed, ix, iy + 1);
    let v11 = lattice(seed, ix + 1, iy + 1);
    let a = v00 + (v10 - v00) * sx;
    let b = v01 + (v11 - v01) * sx;
    a + (b - a) * sy
}

/// Multi-octave luma of the world at a continuous position.
fn world_luma(seed: u64, x: f64, y: f64, detail: f64) -> u8 {
    // Base octave: broad shapes; higher octaves add detail scaled by the
    // class's `detail` knob (GARDEN is busy, AKIYO is smooth).
    let o1 = value_noise(seed, x / 64.0, y / 64.0);
    let o2 = value_noise(seed ^ 1, x / 24.0, y / 24.0);
    let o3 = value_noise(seed ^ 2, x / 9.0, y / 9.0);
    let o4 = value_noise(seed ^ 3, x / 3.5, y / 3.5);
    let v = 0.45 * o1 + 0.25 * o2 + detail * (0.2 * o3 + 0.1 * o4) + (1.0 - detail) * 0.15;
    // Add a gentle vertical luminance ramp so frames aren't statistically flat.
    let ramp = 0.08 * (y / 144.0);
    to_luma(v + ramp)
}

/// Slowly varying chroma field.
fn world_chroma(seed: u64, x: f64, y: f64) -> u8 {
    let v = value_noise(seed, x / 80.0, y / 80.0);
    (96.0 + v * 64.0) as u8
}

fn to_luma(v: f64) -> u8 {
    (16.0 + v.clamp(0.0, 1.0) * 219.0) as u8
}

/// Composites an elliptical head with animated "mouth" texture onto the luma
/// plane. The head sways with the class parameters; the mouth band changes
/// every frame, which is what keeps AKIYO-like content from being a pure
/// still image.
fn composite_head(y_plane: &mut Plane, seed: u64, t: u32, p: &SynthParams) {
    let w = y_plane.width() as f64;
    let h = y_plane.height() as f64;
    let tt = t as f64;
    let cx = w * 0.5 + p.head_sway * (tt * p.head_speed).sin();
    let cy = h * 0.42 + 0.6 * p.head_sway * (tt * p.head_speed * 0.77 + 0.9).cos();
    let rx = w * 0.16;
    let ry = h * 0.26;
    let mouth_y0 = cy + ry * 0.35;
    let mouth_y1 = cy + ry * 0.62;
    let mouth_x0 = cx - rx * 0.45;
    let mouth_x1 = cx + rx * 0.45;
    let mouth_phase = (t % 7) as u64;

    let (x_lo, x_hi) = (
        ((cx - rx).floor().max(0.0)) as usize,
        ((cx + rx).ceil().min(w - 1.0)) as usize,
    );
    let (y_lo, y_hi) = (
        ((cy - ry).floor().max(0.0)) as usize,
        ((cy + ry).ceil().min(h - 1.0)) as usize,
    );
    for py in y_lo..=y_hi {
        for px in x_lo..=x_hi {
            let dx = (px as f64 - cx) / rx;
            let dy = (py as f64 - cy) / ry;
            let d = dx * dx + dy * dy;
            if d > 1.0 {
                continue;
            }
            let fx = px as f64;
            let fy = py as f64;
            let base = 0.62 + 0.18 * value_noise(seed ^ 77, fx / 7.0, fy / 7.0);
            let mut v = base * (1.0 - 0.35 * d); // simple shading toward the rim
            if fy >= mouth_y0 && fy <= mouth_y1 && fx >= mouth_x0 && fx <= mouth_x1 {
                // Animated mouth band: texture phase advances with t.
                v = 0.30
                    + 0.35
                        * value_noise(seed ^ 1234, fx / 3.0 + mouth_phase as f64 * 2.1, fy / 3.0);
            }
            y_plane.set(px, py, to_luma(v));
        }
    }
}

/// Adds deterministic per-frame sensor noise of ±`amp` luma codes.
fn apply_sensor_noise(y_plane: &mut Plane, seed: u64, t: u32, amp: u8) {
    let w = y_plane.width();
    let span = 2 * amp as i32 + 1;
    for py in 0..y_plane.height() {
        let row = y_plane.row_mut(py);
        for (px, s) in row.iter_mut().enumerate().take(w) {
            let n = hash2(seed ^ 0xface, (t as i64) << 20 | px as i64, py as i64);
            let d = (n % span as u64) as i32 - amp as i32;
            *s = (*s as i32 + d).clamp(0, 255) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SyntheticSequence::foreman_class(99);
        let mut b = SyntheticSequence::foreman_class(99);
        for _ in 0..3 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticSequence::akiyo_class(1);
        let mut b = SyntheticSequence::akiyo_class(2);
        assert_ne!(a.next_frame(), b.next_frame());
    }

    #[test]
    fn motion_activity_is_ordered_by_class() {
        // Mean per-frame SAD between consecutive frames must be ordered
        // akiyo < foreman < garden — this ordering is what the paper's
        // three workloads provide.
        let mut activity = Vec::new();
        for class in [
            MotionClass::LowAkiyo,
            MotionClass::MediumForeman,
            MotionClass::HighGarden,
        ] {
            let mut s = SyntheticSequence::for_class(class, 11);
            let mut prev = s.next_frame();
            let mut total = 0u64;
            for _ in 0..6 {
                let cur = s.next_frame();
                total += prev
                    .y()
                    .sad_colocated(cur.y(), 0, 0, prev.y().width(), prev.y().height());
                prev = cur;
            }
            activity.push(total);
        }
        assert!(
            activity[0] < activity[1] && activity[1] < activity[2],
            "activity not ordered: {activity:?}"
        );
    }

    #[test]
    fn consecutive_frames_are_correlated() {
        // A predictive codec only makes sense if consecutive frames are
        // similar: the colocated PSNR must be well above that of unrelated
        // noise (~8 dB) for every class.
        for class in MotionClass::all() {
            let mut s = SyntheticSequence::for_class(class, 3);
            let a = s.next_frame();
            let b = s.next_frame();
            let p = metrics::psnr_y(&a, &b);
            assert!(p > 15.0, "{}: inter-frame PSNR too low: {p}", class.label());
        }
    }

    #[test]
    fn garden_pan_moves_content() {
        // Frame t sampled at x and frame t+1 sampled at x+pan should match
        // closely in the world; verify via a shifted SAD being much smaller
        // than the colocated SAD.
        let s = SyntheticSequence::garden_class(17);
        let a = s.render(10);
        let b = s.render(11);
        let (w, h) = (a.y().width(), a.y().height());
        let colocated = a.y().sad_colocated(b.y(), 0, 0, w, h);
        // Pan is 2.5 px/frame rightward in world coordinates, so frame t+1
        // holds frame t's content shifted left: sample b at x-2..x-3.
        let mut best_shift = u64::MAX;
        for shift in -3..=-2isize {
            let mut acc = 0u64;
            let mut blk = vec![0u8; w - 8];
            for y in 0..h {
                b.y()
                    .copy_block_clamped(shift, y as isize, w - 8, 1, &mut blk);
                let arow = &a.y().row(y)[..w - 8];
                for (pa, pb) in arow.iter().zip(&blk) {
                    acc += (*pa as i32 - *pb as i32).unsigned_abs() as u64;
                }
            }
            best_shift = best_shift.min(acc);
        }
        assert!(
            best_shift * 2 < colocated,
            "shifted SAD {best_shift} not clearly below colocated {colocated}"
        );
    }

    #[test]
    fn mouth_region_changes_even_for_akiyo() {
        let s = SyntheticSequence::akiyo_class(8);
        let a = s.render(0);
        let b = s.render(1);
        assert_ne!(a, b, "akiyo-class must not be a still image");
    }

    #[test]
    fn luma_stays_in_video_range() {
        let s = SyntheticSequence::foreman_class(23);
        let f = s.render(4);
        // Sensor noise of +-2 around [16, 235] keeps us comfortably in 8 bits
        // and never at the extremes.
        let (lo, hi) = f
            .y()
            .samples()
            .iter()
            .fold((255u8, 0u8), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        assert!(lo >= 10, "luma floor {lo}");
        assert!(hi <= 245, "luma ceiling {hi}");
    }
}
