//! Robustness fuzzing: no byte sequence may panic the Y4M reader.
//! `transcode --input` and `SequenceSpec::Y4mFile` hand it files from
//! outside the program, so [`Y4mReader::new`] and
//! [`Y4mReader::read_frame`] must return `Ok` or `Err` for anything.
//!
//! The harness is a seeded loop over valid streams that takes the
//! mutation classes in turn: header tokens, dimensions, colour-space
//! tags, `FRAME` markers, truncation inside each plane, and random
//! bytes. Beyond not panicking, every frame read must carry the
//! header's format, a cut inside a plane must fail that frame and no
//! earlier one, and a fresh reader over the same bytes must read the
//! first frame again.

use pbpair_media::synth::{FrameSource, SynthParams, SyntheticSequence};
use pbpair_media::y4m::{Y4mReader, Y4mWriter};
use pbpair_media::VideoFormat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;

/// A valid stream and the layout the mutations aim at.
struct Stream {
    bytes: Vec<u8>,
    /// Length of the header line, newline included.
    header_len: usize,
    format: VideoFormat,
    frames: usize,
}

impl Stream {
    /// Bytes per frame: the `FRAME\n` marker and three planes.
    fn frame_len(&self) -> usize {
        6 + self.format.luma_samples() + 2 * self.chroma_len()
    }

    fn chroma_len(&self) -> usize {
        self.format.chroma_width() * self.format.chroma_height()
    }

    /// Offset of frame `k`'s marker.
    fn frame_start(&self, k: usize) -> usize {
        self.header_len + k * self.frame_len()
    }

    /// The header's space-separated tokens, magic included.
    fn header_tokens(&self) -> Vec<Vec<u8>> {
        self.bytes[..self.header_len - 1]
            .split(|&b| b == b' ')
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// The stream with its header line rebuilt from `tokens`.
    fn with_header(&self, tokens: &[Vec<u8>]) -> Vec<u8> {
        let mut out = tokens.join(&b' ');
        out.push(b'\n');
        out.extend_from_slice(&self.bytes[self.header_len..]);
        out
    }
}

/// Valid streams to mutate: three QCIF frames and two frames of a
/// 32×16 grid.
fn valid_streams() -> Vec<Stream> {
    [
        (VideoFormat::QCIF, 3),
        (VideoFormat::custom(32, 16).unwrap(), 2),
    ]
    .into_iter()
    .map(|(format, frames)| {
        let mut seq = SyntheticSequence::new(format, SynthParams::foreman(), 7);
        let mut bytes = Vec::new();
        let mut w = Y4mWriter::new(&mut bytes, format, 30).unwrap();
        for _ in 0..frames {
            w.write_frame(&seq.next_frame()).unwrap();
        }
        w.finish().unwrap();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        Stream {
            bytes,
            header_len,
            format,
            frames,
        }
    })
    .collect()
}

/// What reading a stream to its end produced.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// `Y4mReader::new` refused the header.
    Rejected,
    /// Frames read before the stream ended, cleanly or with an error.
    Read { frames: usize, error: bool },
}

/// Reads `bytes` to the end and checks the reader's invariants.
fn read_all(bytes: Vec<u8>) -> Outcome {
    let Ok(mut reader) = Y4mReader::new(Cursor::new(&bytes)) else {
        return Outcome::Rejected;
    };
    let format = reader.format();
    let mut frames = 0;
    let error = loop {
        match reader.read_frame() {
            Ok(Some(frame)) => {
                assert_eq!(frame.format(), format, "frame differs from its header");
                frames += 1;
            }
            Ok(None) => break false,
            Err(_) => break true,
        }
    };
    let mut fresh = Y4mReader::new(Cursor::new(&bytes)).expect("the header parsed once");
    assert_eq!(
        fresh.try_next_frame().is_some(),
        frames > 0,
        "a fresh reader does not read the first frame again"
    );
    Outcome::Read { frames, error }
}

/// Header tokens a hostile file might carry.
const TOKENS: &[&str] = &[
    "",
    "W",
    "H",
    "C",
    "F",
    "Wabc",
    "H-16",
    "W+176",
    "W1e3",
    "H144.0",
    "F30:1",
    "F0:0",
    "Ip",
    "A1:1",
    "A0:0",
    "XYSCSS=420JPEG",
    "X",
    "W\u{e9}",
    "\u{e9}W176",
    "YUV4MPEG2",
    "FRAME",
];

/// Dimension values: zero, off the macroblock grid, at and past the
/// 255-macroblock limit, and past `usize`.
const DIMS: &[&str] = &[
    "0",
    "1",
    "15",
    "16",
    "17",
    "100",
    "4080",
    "4081",
    "4096",
    "65536",
    "18446744073709551600",
    "18446744073709551615",
    "99999999999999999999999",
];

/// Colour-space tags, supported and not.
const COLOUR_SPACES: &[&str] = &[
    "C420",
    "C420jpeg",
    "C420mpeg2",
    "C420paldv",
    "C420p10",
    "C4200",
    "C422",
    "C444",
    "C444alpha",
    "Cmono",
    "C",
];

/// Replacement `FRAME` marker lines, newline excluded.
const MARKERS: &[&str] = &[
    "",
    "FRAM",
    "frame",
    "XFRAME",
    "FRAMEFRAME",
    "FRAME Ixyz",
    "FRAME\r",
];

/// Display names of the mutation classes, indexed by the class id that
/// [`mutate`] accepts.
const CLASSES: [&str; 6] = [
    "header-token",
    "dimensions",
    "colour-space",
    "frame-marker",
    "plane-truncation",
    "random-bytes",
];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Applies one mutation of `class` to `s`. For a cut inside a plane it
/// also returns the frame the cut lands in.
fn mutate(rng: &mut StdRng, s: &Stream, class: usize) -> (Vec<u8>, Option<usize>) {
    let mut tokens = s.header_tokens();
    let bytes = match class {
        // Replace, delete, duplicate or insert a header token, or flip a
        // byte of the header line (its newline included).
        0 => {
            let i = rng.gen_range(0..tokens.len());
            match rng.gen_range(0..5u8) {
                0 => tokens[i] = pick(rng, TOKENS).into(),
                1 => {
                    tokens.remove(i);
                }
                2 => tokens.insert(i, tokens[i].clone()),
                3 => tokens.insert(i, pick(rng, TOKENS).into()),
                _ => {
                    let mut bytes = s.bytes.clone();
                    bytes[rng.gen_range(0..s.header_len)] ^= 1 << rng.gen_range(0..8u8);
                    return (bytes, None);
                }
            }
            s.with_header(&tokens)
        }
        // Width, height or both from the hostile values.
        1 => {
            for tag in [b'W', b'H'] {
                if rng.gen_bool(0.6) {
                    for t in tokens.iter_mut().filter(|t| t.first() == Some(&tag)) {
                        *t = [&[tag], pick(rng, DIMS).as_bytes()].concat();
                    }
                }
            }
            s.with_header(&tokens)
        }
        // Replace the colour-space tag, or add a second one.
        2 => {
            let tag = pick(rng, COLOUR_SPACES).as_bytes().to_vec();
            match tokens.iter().position(|t| t.first() == Some(&b'C')) {
                Some(i) if rng.gen_bool(0.7) => tokens[i] = tag,
                _ => tokens.push(tag),
            }
            s.with_header(&tokens)
        }
        // Rewrite one frame's marker line, or drop its newline so the
        // marker runs into the plane bytes.
        3 => {
            let mut bytes = s.bytes.clone();
            let at = s.frame_start(rng.gen_range(0..s.frames));
            if rng.gen_bool(0.2) {
                bytes.remove(at + 5);
            } else {
                bytes.splice(at..at + 5, pick(rng, MARKERS).bytes());
            }
            bytes
        }
        // Cut inside one plane of one frame.
        4 => {
            let k = rng.gen_range(0..s.frames);
            let luma = s.format.luma_samples();
            let (start, len) = match rng.gen_range(0..3u8) {
                0 => (6, luma),
                1 => (6 + luma, s.chroma_len()),
                _ => (6 + luma + s.chroma_len(), s.chroma_len()),
            };
            let cut = s.frame_start(k) + start + rng.gen_range(0..len);
            return (s.bytes[..cut].to_vec(), Some(k));
        }
        // Pure noise, noise behind the magic, or byte flips, overwrites
        // and deletions anywhere in a valid stream.
        _ => match rng.gen_range(0..3u8) {
            0 => {
                let mut bytes = vec![0u8; rng.gen_range(0..2048usize)];
                rng.fill_bytes(&mut bytes);
                bytes
            }
            1 => {
                let mut bytes = vec![0u8; rng.gen_range(0..2048usize)];
                rng.fill_bytes(&mut bytes);
                [b"YUV4MPEG2 ".as_slice(), &bytes].concat()
            }
            _ => {
                let mut bytes = s.bytes.clone();
                for _ in 0..rng.gen_range(1..=8usize) {
                    let i = rng.gen_range(0..bytes.len());
                    match rng.gen_range(0..3u8) {
                        0 => bytes[i] ^= 1 << rng.gen_range(0..8u8),
                        1 => bytes[i] = rng.gen(),
                        _ => {
                            bytes.remove(i);
                        }
                    }
                }
                bytes
            }
        },
    };
    (bytes, None)
}

#[test]
fn thousands_of_seeded_mutations_never_panic() {
    let streams = valid_streams();
    for s in &streams {
        let whole = Outcome::Read {
            frames: s.frames,
            error: false,
        };
        assert_eq!(read_all(s.bytes.clone()), whole, "an unmutated stream");
    }
    let mut rng = StdRng::seed_from_u64(0x0059_344D);
    // Per class: headers rejected, frames read, reads that failed.
    let mut tally = [(0u32, 0u32, 0u32); CLASSES.len()];

    for case in 0..3600usize {
        let class = case % CLASSES.len();
        let s = &streams[(case / CLASSES.len()) % streams.len()];
        let (bytes, cut_frame) = mutate(&mut rng, s, class);
        let outcome = read_all(bytes);
        if let Some(k) = cut_frame {
            assert_eq!(
                outcome,
                Outcome::Read {
                    frames: k,
                    error: true
                },
                "case {case}: a cut inside frame {k} must fail that frame"
            );
        }
        let t = &mut tally[class];
        match outcome {
            Outcome::Rejected => t.0 += 1,
            Outcome::Read { frames, error } => {
                t.1 += frames as u32;
                t.2 += u32::from(error);
            }
        }
    }

    // Every class must reach the reader's error paths, not only
    // produce benign variants.
    for (name, (rejected, frames, failed)) in CLASSES.iter().zip(tally) {
        eprintln!("{name:>16}: {rejected} rejected, {frames} frames read, {failed} failed reads");
        assert!(rejected + failed > 0, "{name}: no mutation was refused");
    }
}
