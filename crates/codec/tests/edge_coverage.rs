//! Edge coverage for the two places the ISSUE calls out as easy to get
//! subtly wrong: motion estimation at frame borders (vectors that clamp
//! against every edge must survive the full encode→decode loop), and VLC
//! escape coding at the extreme corners of the (LAST, RUN, LEVEL) event
//! space.

use pbpair_codec::bitstream::{BitReader, BitWriter};
use pbpair_codec::blockcode::{read_coeff_block, write_coeff_block};
use pbpair_codec::vlc::{self, TcoefEvent, MVD_MAX, TCOEF_LEVEL_MAX, TCOEF_RUN_MAX};
use pbpair_codec::{
    Decoder, Encoder, EncoderConfig, MeConfig, NaturalPolicy, OptConfig, SearchStrategy,
};
use pbpair_media::{metrics, Frame, Plane, VideoFormat};

/// A frame in `format` whose texture is globally shifted by `(dx, dy)` —
/// every macroblock's true motion is the same large vector, so border MBs
/// must search (and clamp) against the frame edge.
fn shifted_frame_in(format: VideoFormat, dx: isize, dy: isize) -> Frame {
    let texture = |x: isize, y: isize| -> u8 {
        let (x, y) = (x.rem_euclid(256), y.rem_euclid(256));
        ((x * 7 + y * 13 + (x * y) / 9) % 256) as u8
    };
    let (w, h) = (format.width(), format.height());
    let y = Plane::from_fn(w, h, |x, yy| texture(x as isize + dx, yy as isize + dy));
    let cb = Plane::from_fn(w / 2, h / 2, |x, yy| {
        texture(x as isize + dx / 2, yy as isize + dy / 2)
    });
    let cr = Plane::from_fn(w / 2, h / 2, |x, yy| {
        texture(x as isize - dx / 2, yy as isize - dy / 2)
    });
    Frame::from_planes(format, y, cb, cr).unwrap()
}

/// [`shifted_frame_in`] at QCIF.
fn shifted_frame(dx: isize, dy: isize) -> Frame {
    shifted_frame_in(VideoFormat::QCIF, dx, dy)
}

/// The slice schedule at 2 slices. `NaturalPolicy` freezes a zero bias,
/// so this really takes the slice schedule.
const TWO_SLICES: OptConfig = OptConfig {
    slices: 2,
    kernels: None,
};

/// Large global motion right at the search-range limit, both strategies,
/// on the serial and the slice schedule: the encoded stream must decode
/// to exactly the encoder's reconstruction even when every border MB
/// clamps its window.
#[test]
fn border_motion_survives_the_full_codec_loop() {
    for strategy in [SearchStrategy::Full, SearchStrategy::ThreeStep] {
        for opt in [OptConfig::default(), TWO_SLICES] {
            let cfg = EncoderConfig {
                me: MeConfig {
                    search_range: 15,
                    strategy,
                },
                opt,
                ..EncoderConfig::default()
            };
            let mut enc = Encoder::new(cfg);
            let mut dec = Decoder::new(VideoFormat::QCIF);
            let mut policy = NaturalPolicy::new();
            // Pan at the full search range per frame, alternating axes so
            // all four frame edges clamp.
            let motions = [(0, 0), (15, 0), (15, 15), (0, 15), (-15, -15)];
            for (i, (dx, dy)) in motions.iter().enumerate() {
                let frame = shifted_frame(*dx, *dy);
                let encoded = enc.encode_frame(&frame, &mut policy);
                let (decoded, _) = dec.decode_frame(&encoded.data).expect("decodable");
                let drift = metrics::psnr_y(&decoded, enc.reconstructed());
                assert!(
                    drift.is_infinite(),
                    "decoder drifted from encoder reconstruction at frame {i} \
                     ({strategy:?}, slices={}): {drift} dB",
                    opt.slices,
                );
            }
        }
    }
}

/// The serial and the slice schedule must also produce identical
/// bitstreams under border-clamping motion (the golden vectors only
/// cover moderate motion), where the slice schedule's row-local prepass
/// seeds window-clamped searches at the frame edges.
#[test]
fn serial_and_slice_bitstreams_match_under_border_motion() {
    let run = |opt: OptConfig| -> Vec<Vec<u8>> {
        let mut enc = Encoder::new(EncoderConfig {
            opt,
            ..EncoderConfig::default()
        });
        let mut policy = NaturalPolicy::new();
        [(0, 0), (15, 7), (-15, -15), (12, -15)]
            .iter()
            .map(|(dx, dy)| enc.encode_frame(&shifted_frame(*dx, *dy), &mut policy).data)
            .collect()
    };
    assert_eq!(run(OptConfig::default()), run(TWO_SLICES));
}

/// Every extreme corner of the TCOEF event space: maximal regular
/// run/level, the first escaped run and level, the largest legal escaped
/// values, and both signs.
#[test]
fn tcoef_escape_extremes_roundtrip() {
    let extremes = [
        // Regular-table boundary.
        TcoefEvent {
            last: false,
            run: TCOEF_RUN_MAX,
            level: TCOEF_LEVEL_MAX,
        },
        TcoefEvent {
            last: true,
            run: TCOEF_RUN_MAX,
            level: -TCOEF_LEVEL_MAX,
        },
        // First escapes past each boundary.
        TcoefEvent {
            last: false,
            run: TCOEF_RUN_MAX + 1,
            level: 1,
        },
        TcoefEvent {
            last: false,
            run: 0,
            level: TCOEF_LEVEL_MAX + 1,
        },
        TcoefEvent {
            last: true,
            run: 0,
            level: -(TCOEF_LEVEL_MAX + 1),
        },
        // Largest values the decoder accepts.
        TcoefEvent {
            last: true,
            run: 63,
            level: 4096,
        },
        TcoefEvent {
            last: true,
            run: 63,
            level: -4096,
        },
        TcoefEvent {
            last: false,
            run: 63,
            level: 1,
        },
    ];
    let mut w = BitWriter::new();
    for ev in extremes {
        vlc::write_tcoef(&mut w, ev);
    }
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    for ev in extremes {
        assert_eq!(vlc::read_tcoef(&mut r).unwrap(), ev, "{ev:?}");
    }
}

/// Coefficient blocks whose events sit at the extreme scan positions: a
/// lone coefficient in the final zigzag slot (run 63 — the longest legal
/// run), clamped-magnitude levels, and the intra variant where the scan
/// starts at 1.
#[test]
fn coeff_block_roundtrips_at_extreme_positions() {
    type Build = Box<dyn Fn(&mut [i32; 64])>;
    let cases: [(usize, Build); 4] = [
        // Inter: only the very last coefficient — run 63.
        (0, Box::new(|z| z[63] = 127)),
        // Inter: first and last — run 0 then run 62.
        (
            0,
            Box::new(|z| {
                z[0] = -127;
                z[63] = 1;
            }),
        ),
        // Intra: scan starts at 1, lone final coefficient — run 62.
        (1, Box::new(|z| z[63] = -90)),
        // Intra: every slot from 1 populated at escape-range magnitude.
        (
            1,
            Box::new(|z| {
                for (i, slot) in z.iter_mut().enumerate().skip(1) {
                    *slot = if i % 2 == 0 { 100 } else { -100 };
                }
            }),
        ),
    ];
    for (i, (first, build)) in cases.iter().enumerate() {
        let mut zig = [0i32; 64];
        build(&mut zig);
        let mut w = BitWriter::new();
        write_coeff_block(&mut w, &zig, *first);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let got = read_coeff_block(&mut r, *first).unwrap();
        assert_eq!(got, zig, "case {i}");
    }
}

/// Vector-tail coverage for the SIMD kernel tiers: frame widths whose
/// macroblock rows are *not* a multiple of any vector width force the
/// kernels through their per-row (rather than whole-plane) load paths —
/// a 48-wide luma plane has 16-sample SAD rows starting at stride
/// offsets 0/16/32, and QCIF's 88-wide chroma planes put half of every
/// chroma block row on an odd 8-byte boundary. Every available tier must
/// produce the identical bitstream and a drift-free decode on both.
#[test]
fn kernel_tiers_agree_on_vector_tail_formats() {
    use pbpair_codec::Kernels;
    let formats = [
        (
            "48x48",
            VideoFormat::custom(48, 48).expect("multiple of 16"),
        ),
        ("qcif", VideoFormat::QCIF),
    ];
    let motions = [(0isize, 0isize), (15, 7), (-15, -15), (3, 12)];
    for (label, format) in formats {
        let mut reference_streams: Option<Vec<Vec<u8>>> = None;
        for tier in Kernels::available() {
            let mut enc = Encoder::new(EncoderConfig {
                format,
                opt: OptConfig {
                    kernels: Some(tier),
                    ..OptConfig::default()
                },
                ..EncoderConfig::default()
            });
            let mut dec = Decoder::new(format);
            dec.set_kernels(tier);
            let mut policy = NaturalPolicy::new();
            let mut streams = Vec::new();
            for (i, (dx, dy)) in motions.iter().enumerate() {
                let frame = shifted_frame_in(format, *dx, *dy);
                let encoded = enc.encode_frame(&frame, &mut policy);
                let (decoded, _) = dec.decode_frame(&encoded.data).expect("decodable");
                let drift = metrics::psnr_y(&decoded, enc.reconstructed());
                assert!(
                    drift.is_infinite(),
                    "{label} frame {i}: decoder drifted from encoder on tier {tier}"
                );
                streams.push(encoded.data);
            }
            match &reference_streams {
                None => reference_streams = Some(streams),
                Some(want) => assert_eq!(
                    &streams, want,
                    "{label}: tier {tier} bitstream diverged from the first tier"
                ),
            }
        }
    }
}

/// Motion-vector components at and past the escape boundary.
#[test]
fn mvd_escape_extremes_roundtrip() {
    let values = [MVD_MAX, -MVD_MAX, MVD_MAX + 1, -(MVD_MAX + 1), 2048, -2048];
    let mut w = BitWriter::new();
    for v in values {
        vlc::write_mvd(&mut w, v);
    }
    let bytes = w.finish();
    let mut r = BitReader::new(&bytes);
    for v in values {
        assert_eq!(vlc::read_mvd(&mut r).unwrap(), v, "mvd {v}");
    }
}
