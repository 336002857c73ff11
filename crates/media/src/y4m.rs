//! Minimal YUV4MPEG2 ("Y4M") reader and writer.
//!
//! The evaluation runs on synthetic sequences ([`crate::synth`]) by default,
//! but this module lets users drop in the real FOREMAN/AKIYO/GARDEN clips
//! (or any other 4:2:0 Y4M file): `Y4mReader` implements
//! [`crate::synth::FrameSource`] over any `Read`.
//!
//! Only the subset of the format needed for raw planar 4:2:0 is supported:
//! the `C420`/`C420jpeg`/`C420mpeg2`/`C420paldv` color-space tags (all read
//! as 4:2:0) and `FRAME` markers with no parameters.

use crate::format::VideoFormat;
use crate::frame::Frame;
use crate::plane::Plane;
use crate::synth::FrameSource;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Errors produced while parsing a Y4M stream.
#[derive(Debug)]
pub enum ParseY4mError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not start with the `YUV4MPEG2` magic.
    BadMagic,
    /// A required header parameter (`W`, `H`) was missing or malformed.
    BadHeader(String),
    /// Declared dimensions are unusable (zero, not multiples of 16, or
    /// wider or taller than 255 macroblocks).
    BadDimensions(usize, usize),
    /// Unsupported color space tag.
    UnsupportedColorSpace(String),
    /// A frame marker was malformed.
    BadFrameMarker,
}

impl fmt::Display for ParseY4mError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseY4mError::Io(e) => write!(f, "i/o error while reading y4m: {e}"),
            ParseY4mError::BadMagic => write!(f, "missing YUV4MPEG2 magic"),
            ParseY4mError::BadHeader(s) => write!(f, "malformed y4m header: {s}"),
            ParseY4mError::BadDimensions(w, h) => {
                write!(
                    f,
                    "unsupported y4m dimensions {w}x{h} (need multiples of 16, at most 4080)"
                )
            }
            ParseY4mError::UnsupportedColorSpace(c) => {
                write!(f, "unsupported y4m color space {c}")
            }
            ParseY4mError::BadFrameMarker => write!(f, "malformed FRAME marker"),
        }
    }
}

impl Error for ParseY4mError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseY4mError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseY4mError {
    fn from(e: io::Error) -> Self {
        ParseY4mError::Io(e)
    }
}

/// Streaming Y4M reader.
///
/// # Example
///
/// ```rust
/// use pbpair_media::y4m::{Y4mReader, Y4mWriter};
/// use pbpair_media::synth::{FrameSource, SyntheticSequence};
/// use std::io::Cursor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Write two synthetic frames, then read them back.
/// let mut seq = SyntheticSequence::akiyo_class(1);
/// let mut buf = Vec::new();
/// {
///     let mut w = Y4mWriter::new(&mut buf, seq.format(), 30)?;
///     w.write_frame(&seq.next_frame())?;
///     w.write_frame(&seq.next_frame())?;
/// }
/// let mut r = Y4mReader::new(Cursor::new(buf))?;
/// assert!(r.try_next_frame().is_some());
/// assert!(r.try_next_frame().is_some());
/// assert!(r.try_next_frame().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Y4mReader<R> {
    inner: R,
    format: VideoFormat,
}

impl<R: Read> Y4mReader<R> {
    /// Parses the stream header and positions the reader at the first frame.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseY4mError`] if the header is malformed, the color
    /// space is not 4:2:0, or the dimensions are not multiples of 16 of
    /// at most 255 macroblocks a side.
    pub fn new(mut inner: R) -> Result<Self, ParseY4mError> {
        let header = read_line(&mut inner)?;
        let mut parts = header.split(' ');
        if parts.next() != Some("YUV4MPEG2") {
            return Err(ParseY4mError::BadMagic);
        }
        let mut width = None;
        let mut height = None;
        for p in parts {
            match p.chars().next() {
                Some('W') => {
                    width = Some(p[1..].parse::<usize>().map_err(|_| {
                        ParseY4mError::BadHeader(format!("bad width parameter {p}"))
                    })?)
                }
                Some('H') => {
                    height = Some(p[1..].parse::<usize>().map_err(|_| {
                        ParseY4mError::BadHeader(format!("bad height parameter {p}"))
                    })?)
                }
                Some('C') if !p.starts_with("C420") => {
                    return Err(ParseY4mError::UnsupportedColorSpace(p.to_string()));
                }
                _ => {} // frame rate, aspect, interlacing: ignored
            }
        }
        let w = width.ok_or_else(|| ParseY4mError::BadHeader("missing width".into()))?;
        let h = height.ok_or_else(|| ParseY4mError::BadHeader("missing height".into()))?;
        let format = VideoFormat::custom(w, h).ok_or(ParseY4mError::BadDimensions(w, h))?;
        Ok(Y4mReader { inner, format })
    }

    /// Reads the next frame, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns an error for truncated frames or malformed frame markers.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, ParseY4mError> {
        let mut marker = Vec::new();
        // Peek for EOF by trying to read the first marker byte.
        let mut one = [0u8; 1];
        match self.inner.read(&mut one)? {
            0 => return Ok(None),
            _ => marker.push(one[0]),
        }
        loop {
            let mut b = [0u8; 1];
            if self.inner.read(&mut b)? == 0 {
                return Err(ParseY4mError::BadFrameMarker);
            }
            if b[0] == b'\n' {
                break;
            }
            marker.push(b[0]);
            if marker.len() > 128 {
                return Err(ParseY4mError::BadFrameMarker);
            }
        }
        if !marker.starts_with(b"FRAME") {
            return Err(ParseY4mError::BadFrameMarker);
        }
        let f = self.format;
        let mut y = vec![0u8; f.luma_samples()];
        let mut cb = vec![0u8; f.chroma_width() * f.chroma_height()];
        let mut cr = vec![0u8; f.chroma_width() * f.chroma_height()];
        self.inner.read_exact(&mut y)?;
        self.inner.read_exact(&mut cb)?;
        self.inner.read_exact(&mut cr)?;
        let frame = Frame::from_planes(
            f,
            Plane::from_raw(f.width(), f.height(), y).expect("sized above"),
            Plane::from_raw(f.chroma_width(), f.chroma_height(), cb).expect("sized above"),
            Plane::from_raw(f.chroma_width(), f.chroma_height(), cr).expect("sized above"),
        )
        .expect("planes built to format");
        Ok(Some(frame))
    }
}

impl<R: Read> FrameSource for Y4mReader<R> {
    fn format(&self) -> VideoFormat {
        self.format
    }

    fn try_next_frame(&mut self) -> Option<Frame> {
        self.read_frame().ok().flatten()
    }
}

fn read_line<R: Read>(r: &mut R) -> Result<String, ParseY4mError> {
    let mut line = Vec::new();
    loop {
        let mut b = [0u8; 1];
        if r.read(&mut b)? == 0 {
            return Err(ParseY4mError::BadMagic);
        }
        if b[0] == b'\n' {
            break;
        }
        line.push(b[0]);
        if line.len() > 512 {
            return Err(ParseY4mError::BadHeader("header line too long".into()));
        }
    }
    String::from_utf8(line).map_err(|_| ParseY4mError::BadHeader("non-utf8 header".into()))
}

/// Streaming Y4M writer (C420, progressive, square pixels).
#[derive(Debug)]
pub struct Y4mWriter<W> {
    inner: W,
    format: VideoFormat,
}

impl<W: Write> Y4mWriter<W> {
    /// Writes the stream header for `format` at `fps` frames per second.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut inner: W, format: VideoFormat, fps: u32) -> io::Result<Self> {
        writeln!(
            inner,
            "YUV4MPEG2 W{} H{} F{}:1 Ip A1:1 C420",
            format.width(),
            format.height(),
            fps
        )?;
        Ok(Y4mWriter { inner, format })
    }

    /// Appends one frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns `InvalidInput` if the frame format
    /// differs from the stream format.
    pub fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        if frame.format() != self.format {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame format differs from stream format",
            ));
        }
        self.inner.write_all(b"FRAME\n")?;
        self.inner.write_all(frame.y().samples())?;
        self.inner.write_all(frame.cb().samples())?;
        self.inner.write_all(frame.cr().samples())?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticSequence;
    use std::io::Cursor;

    #[test]
    fn roundtrip_preserves_frames() {
        let mut seq = SyntheticSequence::foreman_class(4);
        let frames: Vec<Frame> = (0..3).map(|_| seq.next_frame()).collect();
        let mut buf = Vec::new();
        {
            let mut w = Y4mWriter::new(&mut buf, VideoFormat::QCIF, 30).unwrap();
            for f in &frames {
                w.write_frame(f).unwrap();
            }
        }
        let mut r = Y4mReader::new(Cursor::new(buf)).unwrap();
        assert_eq!(r.format(), VideoFormat::QCIF);
        for f in &frames {
            assert_eq!(&r.read_frame().unwrap().unwrap(), f);
        }
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn reads_any_reader_and_a_fresh_one_replays() {
        let mut seq = SyntheticSequence::akiyo_class(4);
        let first = seq.next_frame();
        let mut buf = Vec::new();
        {
            let mut w = Y4mWriter::new(&mut buf, VideoFormat::QCIF, 30).unwrap();
            w.write_frame(&first).unwrap();
            w.write_frame(&seq.next_frame()).unwrap();
        }
        // A plain byte slice: no seeking needed.
        let mut r = Y4mReader::new(buf.as_slice()).unwrap();
        let _ = r.try_next_frame();
        let _ = r.try_next_frame();
        assert!(r.try_next_frame().is_none());
        let mut again = Y4mReader::new(buf.as_slice()).unwrap();
        assert_eq!(again.try_next_frame().unwrap(), first);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Y4mReader::new(Cursor::new(b"NOTY4M W176 H144\n".to_vec())).unwrap_err();
        assert!(matches!(err, ParseY4mError::BadMagic));
    }

    #[test]
    fn rejects_missing_dimensions() {
        let err = Y4mReader::new(Cursor::new(b"YUV4MPEG2 W176\n".to_vec())).unwrap_err();
        assert!(matches!(err, ParseY4mError::BadHeader(_)));
    }

    #[test]
    fn rejects_non_420_color_space() {
        let err = Y4mReader::new(Cursor::new(b"YUV4MPEG2 W176 H144 C444\n".to_vec())).unwrap_err();
        assert!(matches!(err, ParseY4mError::UnsupportedColorSpace(_)));
    }

    #[test]
    fn rejects_unaligned_dimensions() {
        let err = Y4mReader::new(Cursor::new(b"YUV4MPEG2 W100 H100 C420\n".to_vec())).unwrap_err();
        assert!(matches!(err, ParseY4mError::BadDimensions(100, 100)));
    }

    #[test]
    fn rejects_grids_the_picture_header_cannot_carry() {
        let err = Y4mReader::new(Cursor::new(b"YUV4MPEG2 W4096 H144 C420\n".to_vec())).unwrap_err();
        assert!(matches!(err, ParseY4mError::BadDimensions(4096, 144)));
        let err = Y4mReader::new(Cursor::new(
            b"YUV4MPEG2 W18446744073709551600 H16 C420\n".to_vec(),
        ))
        .unwrap_err();
        assert!(matches!(err, ParseY4mError::BadDimensions(_, 16)));
    }

    #[test]
    fn truncated_frame_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"YUV4MPEG2 W176 H144 C420\nFRAME\n");
        buf.extend_from_slice(&[0u8; 100]); // far short of a full frame
        let mut r = Y4mReader::new(Cursor::new(buf)).unwrap();
        assert!(r.read_frame().is_err());
    }

    #[test]
    fn writer_rejects_mismatched_format() {
        let mut buf = Vec::new();
        let mut w = Y4mWriter::new(&mut buf, VideoFormat::QCIF, 30).unwrap();
        let wrong = Frame::new(VideoFormat::CIF);
        assert!(w.write_frame(&wrong).is_err());
    }
}
